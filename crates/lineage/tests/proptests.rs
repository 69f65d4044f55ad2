//! Property-based tests for the lineage crate: codec round-trips and
//! formal-model invariants.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use antipode_lineage::model::{Causality, Execution, Op, ProcId};
use antipode_lineage::varint::{get_str, get_varint, put_str, put_varint};
use antipode_lineage::{base64, Baggage, Lineage, LineageId, WriteId};
use proptest::prelude::*;

fn arb_write_id() -> impl Strategy<Value = WriteId> {
    ("[a-z][a-z0-9-]{0,20}", "[a-zA-Z0-9/_-]{0,24}", any::<u64>())
        .prop_map(|(s, k, v)| WriteId::new(s, k, v))
}

fn arb_lineage() -> impl Strategy<Value = Lineage> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_write_id(), 0..40),
    )
        .prop_map(|(id, deps)| {
            let mut l = Lineage::new(LineageId(id));
            for d in deps {
                l.append(d);
            }
            l
        })
}

/// Write ids over few stores with short keys of any printable characters:
/// multi-byte ones put char boundaries inside a decoded lineage's shared key
/// buffer, and the narrow alphabets make equal keys, prefixes and same-object
/// pairs common.
fn arb_unicode_write_id() -> impl Strategy<Value = WriteId> {
    ("[a-c]", "\\PC{0,4}", 0u64..4).prop_map(|(s, k, v)| WriteId::new(s, k, v))
}

/// A lineage built by `append`, so every id owns a buffer that is its key.
fn lineage_of(id: u64, deps: impl IntoIterator<Item = WriteId>) -> Lineage {
    let mut l = Lineage::new(LineageId(id));
    for d in deps {
        l.append(d);
    }
    l
}

fn hash_of(w: &WriteId) -> u64 {
    let mut h = DefaultHasher::new();
    w.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn decoded_ids_behave_as_the_appended_ones(
        id in any::<u64>(),
        deps in proptest::collection::vec(arb_unicode_write_id(), 0..24),
        strangers in proptest::collection::vec(arb_unicode_write_id(), 0..8),
    ) {
        // A decoded id holds a range of its lineage's one key buffer, an
        // appended one a buffer of its own: nothing may tell them apart.
        let built = lineage_of(id, deps);
        let bytes = built.serialize();
        let decoded = Lineage::deserialize(&bytes).unwrap();
        prop_assert_eq!(&decoded, &built);
        let probes: Vec<WriteId> = built.deps().cloned().chain(strangers).collect();
        for (d, b) in decoded.deps().zip(built.deps()) {
            prop_assert_eq!(d, b);
            prop_assert_eq!(hash_of(d), hash_of(b));
            for p in &probes {
                prop_assert_eq!(d.cmp(p), b.cmp(p));
                prop_assert_eq!(p.cmp(d), b.cmp(p).reverse());
                prop_assert_eq!(d == p, b == p);
                prop_assert_eq!(d.same_object(p), b.same_object(p));
            }
        }
        // A clone pins the buffer: it reads its key after the lineage, its
        // wire bytes and the input are gone.
        let kept: Vec<WriteId> = decoded.deps().cloned().collect();
        let want: Vec<(String, u64)> =
            built.deps().map(|d| (d.key().to_string(), d.version())).collect();
        drop((decoded, bytes, built));
        prop_assert_eq!(kept.len(), want.len());
        for (k, (key, version)) in kept.iter().zip(&want) {
            prop_assert_eq!(k.key(), key.as_str());
            prop_assert_eq!(k.version(), *version);
        }
    }

    #[test]
    fn transfer_from_a_superset_shares_its_vector(
        id in any::<u64>(),
        deps in proptest::collection::vec((arb_unicode_write_id(), any::<bool>()), 0..24),
        stranger in arb_write_id(),
    ) {
        let b = lineage_of(id, deps.iter().map(|(d, _)| d.clone()));
        let subset = || deps.iter().filter(|(_, keep)| *keep).map(|(d, _)| d.clone());
        // Equal sets are left alone (the receiver keeps its own caches), so
        // only a strict subset ends up on the donor's vector.
        let strict = lineage_of(id, subset()).len() < b.len();
        let _ = b.wire_b64(); // the donor arrives with both caches filled

        // Equal ids: the donor's vector *and* its encodings are the union's.
        let mut a = lineage_of(id, subset());
        let _ = a.wire_b64();
        a.transfer_from(&b);
        prop_assert_eq!(a.shares_deps_with(&b), strict || b.is_empty());
        prop_assert_eq!(&a, &b);
        let fresh = lineage_of(id, b.deps().cloned());
        prop_assert_eq!(a.wire_bytes(), fresh.wire_bytes());
        prop_assert_eq!(a.wire_b64(), fresh.wire_b64());

        // Different ids: the vector is shared, the encodings are not — the
        // wire form carries the id.
        let other_id = id ^ 1;
        let mut a = lineage_of(other_id, subset());
        let _ = a.wire_b64();
        a.transfer_from(&b);
        prop_assert_eq!(a.shares_deps_with(&b), strict || b.is_empty());
        let fresh = lineage_of(other_id, b.deps().cloned());
        prop_assert_eq!(&a, &fresh);
        prop_assert_eq!(Lineage::deserialize(&a.serialize()).unwrap().id(), LineageId(other_id));
        prop_assert_eq!(a.wire_bytes(), fresh.wire_bytes());
        prop_assert_eq!(a.wire_b64(), fresh.wire_b64());

        // Not a subset: a merge into a vector of its own, as before.
        if !b.contains(&stranger) {
            let mut a = lineage_of(id, subset().chain([stranger.clone()]));
            a.transfer_from(&b);
            prop_assert!(!a.shares_deps_with(&b));
            let union = lineage_of(id, b.deps().cloned().chain([stranger]));
            prop_assert_eq!(&a, &union);
            prop_assert_eq!(a.wire_bytes(), union.wire_bytes());
        }
    }

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut slice = buf.as_slice();
        prop_assert_eq!(get_varint(&mut slice), Ok(v));
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn string_round_trips(s in "\\PC{0,64}") {
        let mut buf = Vec::new();
        put_str(&mut buf, &s);
        let mut slice = buf.as_slice();
        prop_assert_eq!(get_str(&mut slice).unwrap(), s);
    }

    #[test]
    fn base64_round_trips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let enc = base64::encode(&data);
        prop_assert_eq!(base64::decode(&enc).unwrap(), data);
    }

    #[test]
    fn base64_decoding_never_panics(s in "\\PC{0,64}") {
        let _ = base64::decode(&s);
    }

    #[test]
    fn lineage_serialization_round_trips(l in arb_lineage()) {
        let bytes = l.serialize();
        let back = Lineage::deserialize(&bytes).unwrap();
        prop_assert_eq!(back, l);
    }

    #[test]
    fn lineage_deserialize_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Lineage::deserialize(&bytes);
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicked(
        l in arb_lineage(),
        cut in any::<proptest::sample::Index>(),
    ) {
        // Every strict prefix of a valid encoding must decode to an error:
        // declared counts pin the payload length, so a network-truncated
        // lineage can never silently drop dependencies.
        let bytes = l.serialize();
        let cut = cut.index(bytes.len().max(1));
        if cut < bytes.len() {
            prop_assert!(Lineage::deserialize(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_payloads_never_panic(
        l in arb_lineage(),
        pos in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        // A single flipped byte may still decode (e.g. a changed version
        // number), but must never panic, and whatever decodes must
        // re-serialize cleanly.
        let mut bytes = l.serialize();
        let pos = pos.index(bytes.len());
        bytes[pos] ^= xor;
        if let Ok(decoded) = Lineage::deserialize(&bytes) {
            let _ = decoded.serialize();
        }
    }

    #[test]
    fn hostile_counts_are_rejected(count in 64u64.., tail in proptest::collection::vec(any::<u8>(), 0..8)) {
        // A tiny payload declaring a huge name- or dep-count must fail the
        // length guard (each entry costs bytes the input doesn't have),
        // never trigger a large allocation or a panic.
        for inject_deps in [false, true] {
            let mut buf = vec![1u8]; // version
            put_varint(&mut buf, 7); // id
            if inject_deps {
                put_varint(&mut buf, 1); // 1 name
                put_str(&mut buf, "s");
            }
            put_varint(&mut buf, count); // hostile count
            buf.extend_from_slice(&tail);
            prop_assert!(Lineage::deserialize(&buf).is_err());
        }
    }

    #[test]
    fn base64_decode_is_strict_inverse_of_encode(s in "[A-Za-z0-9+/=]{0,64}") {
        // Strictness: anything the decoder accepts is exactly what the
        // encoder produces for those bytes — decode is a bijection onto
        // encode's range, the property cache adoption relies on.
        if let Ok(data) = base64::decode(&s) {
            prop_assert_eq!(base64::encode(&data), s);
        }
    }

    #[test]
    fn lineage_wire_size_is_linear_in_deps(l in arb_lineage()) {
        // Sanity bound used by the metadata experiments: each dependency
        // costs at most (key + store name + version + framing) bytes.
        let size = l.wire_size();
        prop_assert!(size <= 16 + l.len() * 64);
    }

    #[test]
    fn transfer_is_a_superset_union(a in arb_lineage(), b in arb_lineage()) {
        let mut merged = a.clone();
        merged.transfer_from(&b);
        for d in a.deps() {
            prop_assert!(merged.contains(d));
        }
        for d in b.deps() {
            prop_assert!(merged.contains(d));
        }
        prop_assert_eq!(merged.id(), a.id());
        // Idempotent.
        let mut twice = merged.clone();
        twice.transfer_from(&b);
        prop_assert_eq!(twice, merged);
    }

    #[test]
    fn baggage_header_round_trips(
        entries in proptest::collection::btree_map("[a-z%=,]{1,12}", "[a-zA-Z0-9%=,+/]{0,24}", 0..6),
        l in arb_lineage(),
    ) {
        let mut b = Baggage::new();
        for (k, v) in &entries {
            b.set(k.clone(), v.clone());
        }
        b.set_lineage(&l);
        let back = Baggage::from_header(&b.to_header());
        prop_assert_eq!(&back, &b);
        prop_assert_eq!(back.lineage().unwrap(), l);
        for (k, v) in &entries {
            prop_assert_eq!(back.get(k), Some(v.as_str()));
        }
        // Without a lineage the header is just the escaped entries.
        b.clear_lineage();
        prop_assert_eq!(Baggage::from_header(&b.to_header()), b);
    }
}

// ---------------------------------------------------------------------------
// Formal-model properties over small random executions.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum OpSpec {
    Write {
        proc: u8,
        lineage: u8,
        key: u8,
    },
    Read {
        proc: u8,
        lineage: u8,
        key: u8,
        version_back: u8,
    },
    Msg {
        from: u8,
        to: u8,
        lineage: u8,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..4, 0u8..4, 0u8..3).prop_map(|(proc, lineage, key)| OpSpec::Write {
                proc,
                lineage,
                key
            }),
            (0u8..4, 0u8..4, 0u8..3, 0u8..3).prop_map(|(proc, lineage, key, version_back)| {
                OpSpec::Read {
                    proc,
                    lineage,
                    key,
                    version_back,
                }
            }),
            (0u8..4, 0u8..4, 0u8..4).prop_map(|(from, to, lineage)| OpSpec::Msg {
                from,
                to,
                lineage
            }),
        ],
        0..14,
    )
}

/// Builds an execution where reads return a previously-written version of
/// their key (or not-found).
fn build_execution(specs: &[OpSpec]) -> Execution {
    let mut e = Execution::new();
    let mut versions: Vec<Vec<WriteId>> = vec![Vec::new(); 3];
    let mut msg_id = 0u64;
    for spec in specs {
        match spec {
            OpSpec::Write { proc, lineage, key } => {
                let v = versions[*key as usize].len() as u64 + 1;
                let w = WriteId::new("store", format!("k{key}"), v);
                versions[*key as usize].push(w.clone());
                e.write(ProcId(u32::from(*proc)), LineageId(u64::from(*lineage)), w);
            }
            OpSpec::Read {
                proc,
                lineage,
                key,
                version_back,
            } => {
                let written = &versions[*key as usize];
                let returned = if written.is_empty() {
                    None
                } else {
                    let idx = written.len().saturating_sub(1 + *version_back as usize);
                    written.get(idx).cloned()
                };
                e.read(
                    ProcId(u32::from(*proc)),
                    LineageId(u64::from(*lineage)),
                    "store",
                    format!("k{key}"),
                    returned,
                );
            }
            OpSpec::Msg { from, to, lineage } => {
                msg_id += 1;
                e.send(
                    ProcId(u32::from(*from)),
                    LineageId(u64::from(*lineage)),
                    msg_id,
                );
                e.recv(
                    ProcId(u32::from(*to)),
                    LineageId(u64::from(*lineage)),
                    msg_id,
                );
            }
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lamport_dependencies_are_a_subset_of_xcy(specs in arb_ops()) {
        let e = build_execution(&specs);
        let n = e.ops().len();
        for a in 0..n {
            for b in 0..n {
                if e.depends(a, b, Causality::Lamport) {
                    prop_assert!(
                        e.depends(a, b, Causality::Xcy),
                        "Lamport {a}↝{b} must imply XCY"
                    );
                }
            }
        }
    }

    #[test]
    fn lamport_violations_are_a_subset_of_xcy_violations(specs in arb_ops()) {
        // XCY is stronger: anything inconsistent under Lamport is
        // inconsistent under XCY.
        let e = build_execution(&specs);
        if !e.is_consistent(Causality::Lamport) {
            prop_assert!(!e.is_consistent(Causality::Xcy));
        }
    }

    #[test]
    fn reads_of_latest_version_in_program_order_are_consistent(
        writes in proptest::collection::vec(0u8..3, 0..8)
    ) {
        // A single process writing keys and immediately reading back the
        // latest version is consistent under both definitions.
        let mut e = Execution::new();
        let mut latest: [Option<WriteId>; 3] = [None, None, None];
        for (i, key) in writes.iter().enumerate() {
            let w = WriteId::new("store", format!("k{key}"), i as u64 + 1);
            latest[*key as usize] = Some(w.clone());
            e.write(ProcId(0), LineageId(1), w);
            e.read(ProcId(0), LineageId(1), "store", format!("k{key}"), latest[*key as usize].clone());
        }
        prop_assert!(e.is_consistent(Causality::Lamport));
        prop_assert!(e.is_consistent(Causality::Xcy));
    }

    #[test]
    fn checker_never_panics(specs in arb_ops()) {
        let e = build_execution(&specs);
        let _ = e.check(Causality::Lamport);
        let _ = e.check(Causality::Xcy);
    }

    #[test]
    fn ops_accessors_consistent(specs in arb_ops()) {
        let e = build_execution(&specs);
        for op in e.ops() {
            match op {
                Op::Write { proc, .. } | Op::Read { proc, .. }
                | Op::Send { proc, .. } | Op::Recv { proc, .. } => {
                    prop_assert_eq!(op.proc(), *proc);
                }
            }
        }
    }
}
