//! Property-based tests for the lineage crate: codec round-trips and
//! formal-model invariants.

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

proptest! {
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
