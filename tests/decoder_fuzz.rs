//! One never-panics harness for the decoders that accept bytes from outside
//! the process (ROADMAP 4d): the baggage header text a peer sends, the
//! lineage wire payload, and the write-ahead log a replica reads back off
//! its disk at restart. Whatever the input — noise, or a valid encoding
//! with a byte flipped, a tail cut off or garbage spliced in — each decoder
//! must return, and whatever it accepts must render again — and read: an
//! accepted lineage's identifiers hold ranges of one shared key buffer, and a
//! range off a char boundary would panic in `WriteId::key`.

use std::rc::Rc;

use antipode_lineage::varint::{put_str, put_varint};
use antipode_lineage::{Baggage, CodecError, Lineage, LineageId, WriteId, LINEAGE_KEY};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::wal::CHECKPOINT_INTERVAL;
use antipode_store::{RecoveryConfig, WalEntry, WalLog};
use bytes::Bytes;
use proptest::prelude::*;

/// A decoder under test: its name and a driver that feeds it the bytes.
type Decoder = (&'static str, fn(&[u8]));

/// Every external-bytes decoder, driven to the point where its output is
/// used: decode, then extract, read and re-encode what decoded.
const DECODERS: [Decoder; 2] = [
    ("Baggage::from_header(..).lineage()", |bytes| {
        let baggage = Baggage::from_header(&String::from_utf8_lossy(bytes));
        if let Ok(lineage) = baggage.lineage() {
            read_keys(&lineage);
            let _ = lineage.wire_b64();
        }
        let _ = baggage.to_header();
    }),
    ("Lineage::deserialize", |bytes| {
        if let Ok(lineage) = Lineage::deserialize(bytes) {
            read_keys(&lineage);
            let _ = lineage.serialize();
        }
    }),
];

/// Slices every key out of the accepted lineage's key buffer.
fn read_keys(lineage: &Lineage) {
    for dep in lineage.deps() {
        let _ = dep.key().chars().count();
    }
}

/// Two adjacent keys that are valid UTF-8 only as a pair: the first ends in
/// the lead byte of `é`, the second starts with its continuation byte. Were
/// keys validated as one run — or copied first and validated after — the
/// decoder would accept ranges that split a character.
#[test]
fn keys_are_validated_one_by_one_not_as_a_run() {
    let pair = "aéb".as_bytes(); // 61 C3 A9 62
    let mut wire = vec![1u8]; // version
    put_varint(&mut wire, 7); // id
    put_varint(&mut wire, 1); // one name
    put_str(&mut wire, "s");
    put_varint(&mut wire, 2); // two deps
    for (key, version) in [(&pair[..2], 1), (&pair[2..], 2)] {
        put_varint(&mut wire, 0); // store index
        put_varint(&mut wire, key.len() as u64);
        wire.extend_from_slice(key);
        put_varint(&mut wire, version);
    }
    assert!(std::str::from_utf8(pair).is_ok());
    assert_eq!(Lineage::deserialize(&wire), Err(CodecError::InvalidUtf8));
}

/// WAL replay as a decoder: the image becomes the resident log of a live
/// replica, which then crash-restarts over it (`scan_frames` → the replay
/// fold) — with checksums verified and, the ablation, trusted; over an
/// empty table and over the table a checkpoint left behind.
const WAL_REPLAYS: [Decoder; 4] = [
    ("WAL replay, verified", |image| {
        wal_restart(image, true, false)
    }),
    ("WAL replay, unverified", |image| {
        wal_restart(image, false, false)
    }),
    ("WAL replay behind a checkpoint, verified", |image| {
        wal_restart(image, true, true)
    }),
    ("WAL replay behind a checkpoint, unverified", |image| {
        wal_restart(image, false, true)
    }),
];

const WAL_KEYS: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Writes a replica's log (past a checkpoint interval when
/// `behind_checkpoint`), swaps `image` in for what is resident,
/// crash-restarts the replica, then uses whatever the replay accepted:
/// reads, gauges, a scrub, a further write and a repair round.
fn wal_restart(image: &[u8], verify: bool, behind_checkpoint: bool) {
    let sim = Sim::new(1);
    let net = Rc::new(Network::global_triangle());
    let profile = KvProfile {
        local_write: Dist::constant_ms(1.0),
        replication: Dist::constant_ms(20.0),
        ..KvProfile::default()
    };
    let store = KvStore::new(&sim, net, "db", &[US, EU], profile);
    store.set_recovery(RecoveryConfig {
        verify_checksums: verify,
        ..RecoveryConfig::default()
    });
    let writes = if behind_checkpoint {
        CHECKPOINT_INTERVAL + 8
    } else {
        8
    };
    let s = store.clone();
    sim.block_on(async move {
        for i in 0..writes {
            let key = WAL_KEYS[i % WAL_KEYS.len()];
            s.put(US, key, Bytes::from(vec![i as u8; 8])).await.unwrap();
        }
    });
    assert_eq!(
        store.wal_len(US) > store.wal_resident_len(US),
        behind_checkpoint,
        "the volume alone decides whether a checkpoint lies behind the image"
    );
    store.corrupt_wal(US, image);
    let crash_at = sim.now() + std::time::Duration::from_millis(1);
    sim.faults().schedule(
        crash_at,
        crash_at + std::time::Duration::from_millis(1),
        FaultKind::ReplicaCrash {
            store: "db".into(),
            region: US,
        },
    );
    sim.run_until(crash_at + std::time::Duration::from_millis(2));
    for key in WAL_KEYS {
        let _ = store.get_sync(US, key);
    }
    let _ = (
        store.wal_len(US),
        store.wal_resident_len(US),
        store.wal_byte_len(US),
        store.stable_frontier(),
        store.scrub_sweep(),
    );
    let s = store.clone();
    sim.block_on(async move {
        let _ = s.put(US, WAL_KEYS[0], Bytes::from_static(b"after")).await;
        s.repair_sweep().await;
    });
    let _ = store.converged_bytes();
}

/// Feeds `input` to every decoder of `decoders`, naming the one that
/// panicked.
fn never_panics(decoders: &[Decoder], input: &[u8]) -> Result<(), TestCaseError> {
    for &(name, decode) in decoders {
        let outcome = std::panic::catch_unwind(|| decode(input));
        prop_assert!(outcome.is_ok(), "{name} panicked on {input:?}");
    }
    Ok(())
}

fn arb_baggage() -> impl Strategy<Value = Baggage> {
    // Keys of any printable characters: the header's metacharacters, and
    // multi-byte ones so that damage lands inside characters of the keys.
    let dep = ("[a-z][a-z0-9-]{0,12}", "\\PC{0,12}", any::<u64>());
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

/// A well-formed log image over the keys the replica itself writes (so the
/// replay meets records its table already holds) and any version or instant.
fn arb_wal_image() -> impl Strategy<Value = Vec<u8>> {
    let entry = (
        0usize..WAL_KEYS.len() + 1,
        prop_oneof![1u64..2_000, any::<u64>()],
        proptest::collection::vec(any::<u8>(), 0..24),
        any::<u64>(),
        any::<u64>(),
    );
    proptest::collection::vec(entry, 1..8).prop_map(|entries| {
        let mut log = WalLog::default();
        for (key_ix, version, value, visible_ns, committed_ns) in entries {
            log.append(WalEntry {
                key: Rc::from(*WAL_KEYS.get(key_ix).unwrap_or(&"stranger")),
                version,
                bytes: Bytes::from(value),
                visible_at: SimTime::from_nanos(visible_ns),
                committed_at: SimTime::from_nanos(committed_ns),
            });
        }
        log.as_bytes().to_vec()
    })
}

/// `valid`, then `valid` with a byte flipped, a tail cut off and garbage
/// spliced in at `at`.
fn damaged(valid: &[u8], at: &proptest::sample::Index, xor: u8, splice: &[u8]) -> [Vec<u8>; 4] {
    let at = at.index(valid.len());
    let mut flipped = valid.to_vec();
    flipped[at] ^= xor;
    let mut spliced = valid[..at].to_vec();
    spliced.extend_from_slice(splice);
    spliced.extend_from_slice(&valid[at..]);
    [valid.to_vec(), flipped, valid[..at].to_vec(), spliced]
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
        never_panics(&DECODERS, &bytes)?;
        never_panics(&DECODERS, text.as_bytes())?;
        never_panics(&DECODERS, format!("{LINEAGE_KEY}={lineage_entry}").as_bytes())?;
    }

    #[test]
    fn decoders_survive_damaged_encodings(
        baggage in arb_baggage(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
        splice in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        for valid in encodings(&baggage) {
            for input in damaged(&valid, &at, xor, &splice) {
                never_panics(&DECODERS, &input)?;
            }
        }
    }
}

proptest! {
    // Each case restarts a dozen freshly written replicas, four of them
    // past a checkpoint interval of writes: fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wal_replay_survives_noise_and_damaged_logs(
        noise in proptest::collection::vec(any::<u8>(), 0..192),
        image in arb_wal_image(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
        splice in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        never_panics(&WAL_REPLAYS, &noise)?;
        for input in damaged(&image, &at, xor, &splice) {
            never_panics(&WAL_REPLAYS, &input)?;
        }
    }
}
