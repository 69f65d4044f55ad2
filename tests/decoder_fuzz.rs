//! One never-panics harness for the decoders that accept bytes from outside
//! the process (ROADMAP 4d): the baggage header text a peer sends and the
//! lineage wire payload. Whatever the input — noise, or a valid encoding
//! with a byte flipped, a tail cut off or garbage spliced in — each decoder
//! must return, and whatever it accepts must render again.

use antipode_lineage::{Baggage, Lineage, LineageId, WriteId, LINEAGE_KEY};
use proptest::prelude::*;

/// A decoder under test: its name and a driver that feeds it the bytes.
type Decoder = (&'static str, fn(&[u8]));

/// Every external-bytes decoder, driven to the point where its output is
/// used: decode, then extract and re-encode what decoded.
const DECODERS: [Decoder; 2] = [
    ("Baggage::from_header(..).lineage()", |bytes| {
        let baggage = Baggage::from_header(&String::from_utf8_lossy(bytes));
        if let Ok(lineage) = baggage.lineage() {
            let _ = lineage.wire_b64();
        }
        let _ = baggage.to_header();
    }),
    ("Lineage::deserialize", |bytes| {
        if let Ok(lineage) = Lineage::deserialize(bytes) {
            let _ = lineage.serialize();
        }
    }),
];

/// Feeds `input` to every decoder, naming the one that panicked.
fn never_panics(input: &[u8]) -> Result<(), TestCaseError> {
    for (name, decode) in DECODERS {
        let outcome = std::panic::catch_unwind(|| decode(input));
        prop_assert!(outcome.is_ok(), "{name} panicked on {input:?}");
    }
    Ok(())
}

fn arb_baggage() -> impl Strategy<Value = Baggage> {
    let dep = (
        "[a-z][a-z0-9-]{0,12}",
        "[a-zA-Z0-9/_%=,-]{0,16}",
        any::<u64>(),
    );
    (
        any::<u64>(),
        proptest::collection::vec(dep, 0..12),
        proptest::collection::btree_map("[a-z%=,]{1,8}", "\\PC{0,16}", 0..4),
    )
        .prop_map(|(id, deps, entries)| {
            let mut lineage = Lineage::new(LineageId(id));
            for (store, key, version) in deps {
                lineage.append(WriteId::new(store, key, version));
            }
            let mut baggage = Baggage::new();
            for (k, v) in entries {
                baggage.set(k, v);
            }
            baggage.set_lineage(&lineage);
            baggage
        })
}

/// The valid encodings of one baggage, one per decoder family.
fn encodings(baggage: &Baggage) -> [Vec<u8>; 2] {
    let lineage = baggage.lineage().expect("arb_baggage sets one");
    [baggage.to_header().into_bytes(), lineage.serialize()]
}

proptest! {
    #[test]
    fn decoders_survive_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
        text in "\\PC{0,96}",
        lineage_entry in "[A-Za-z0-9+/=%,]{0,96}",
    ) {
        never_panics(&bytes)?;
        never_panics(text.as_bytes())?;
        never_panics(format!("{LINEAGE_KEY}={lineage_entry}").as_bytes())?;
    }

    #[test]
    fn decoders_survive_damaged_encodings(
        baggage in arb_baggage(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
        splice in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        for valid in encodings(&baggage) {
            never_panics(&valid)?;
            let at = at.index(valid.len());
            let mut flipped = valid.clone();
            flipped[at] ^= xor;
            never_panics(&flipped)?;
            never_panics(&valid[..at])?;
            let mut spliced = valid[..at].to_vec();
            spliced.extend_from_slice(&splice);
            spliced.extend_from_slice(&valid[at..]);
            never_panics(&spliced)?;
        }
    }
}
