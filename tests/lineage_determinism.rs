//! Determinism of the zero-copy lineage plane.
//!
//! The interner assigns [`StoreId`]s in first-intern order and the lineage
//! caches are pure functions of the dep set, so two threads (each with a
//! fresh thread-local interner) running the same seeded workload must
//! observe identical ids, identical wire bytes, and identical lineage-plane
//! stats. This is what keeps the chaos plane's byte-for-byte reproducibility
//! intact across the perf refactor.

use std::rc::Rc;
use std::thread;

use antipode_lineage::WriteId;
use antipode_lineage::{interner, stats, Baggage, Lineage, LineageId, LineageStats, StoreId};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{Network, Sim};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use bytes::Bytes;

/// A fixed intern sequence with re-interns mixed in.
const NAMES: [&str; 7] = [
    "post-storage-mongodb",
    "write-home-timeline-rabbitmq",
    "post-storage-mongodb",
    "user-timeline-mongodb",
    "media-mongodb",
    "write-home-timeline-rabbitmq",
    "social-graph-redis",
];

fn intern_sequence() -> Vec<(String, u32)> {
    NAMES
        .iter()
        .map(|n| (n.to_string(), StoreId::intern(n).as_u32()))
        .collect()
}

/// splitmix64, so the workload needs no RNG dependency.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a fixed hop workload and returns everything observable about it
/// that must be thread- and run-independent.
fn workload(seed: u64) -> (Vec<String>, Vec<u8>, String, LineageStats) {
    stats::reset();
    let mut state = seed;
    let mut lineage = Lineage::new(LineageId(seed));
    for hop in 0..64u64 {
        let r = mix(&mut state);
        let store = NAMES[(r % NAMES.len() as u64) as usize];
        lineage.append(WriteId::new(store, format!("key-{}", r >> 32), hop + 1));
        let mut bag = Baggage::new();
        bag.set_lineage(&lineage);
        let header = bag.to_header();
        lineage = Baggage::from_header(&header)
            .lineage()
            .expect("hop round-trips");
    }
    let interned: Vec<String> = interner::snapshot()
        .into_iter()
        .map(|n| n.to_string())
        .collect();
    let mut bag = Baggage::new();
    bag.set_lineage(&lineage);
    (
        interned,
        lineage.serialize(),
        bag.to_header(),
        stats::snapshot(),
    )
}

#[test]
fn interner_ids_are_deterministic_across_threads() {
    let a = thread::spawn(intern_sequence).join().unwrap();
    let b = thread::spawn(intern_sequence).join().unwrap();
    assert_eq!(a, b, "first-intern order must fix the id assignment");
    // Re-interns reuse the first id.
    assert_eq!(a[0].1, a[2].1);
    assert_eq!(a[1].1, a[5].1);
}

#[test]
fn fixed_workload_is_identical_across_threads() {
    let a = thread::spawn(|| workload(0xD15C0)).join().unwrap();
    let b = thread::spawn(|| workload(0xD15C0)).join().unwrap();
    assert_eq!(a.0, b.0, "interned name sequence");
    assert_eq!(a.1, b.1, "final wire bytes");
    assert_eq!(a.2, b.2, "final baggage header");
    assert_eq!(a.3, b.3, "lineage-plane stats");
}

/// What the lineage path allocates, by count: key buffers for decoding a
/// 1-dep and a 64-dep canonical lineage, and dep-vector copies for eight shim
/// writes on a lineage nobody else holds.
fn allocation_counts() -> (u64, u64, u64) {
    let decode_key_buffers = |deps: u64| {
        let mut l = Lineage::new(LineageId(deps));
        for i in 0..deps {
            l.append(WriteId::new(
                NAMES[i as usize % NAMES.len()],
                format!("key-{i}"),
                i + 1,
            ));
        }
        let wire = l.serialize();
        let before = stats::snapshot();
        let back = Lineage::deserialize(&wire).expect("canonical");
        let after = stats::snapshot();
        assert_eq!(back, l);
        assert_eq!(after.canonical_decodes, before.canonical_decodes + 1);
        after.key_buffers - before.key_buffers
    };
    let (one, sixty_four) = (decode_key_buffers(1), decode_key_buffers(64));

    let sim = Sim::new(5);
    let net = Rc::new(Network::global_triangle());
    let store = KvStore::new(&sim, net, "posts", &[EU, US], KvProfile::default());
    let shim = KvShim::new(store);
    stats::reset();
    sim.block_on(async move {
        let mut lineage = Lineage::new(LineageId(1));
        for i in 0..8 {
            shim.write(EU, &format!("post-{i}"), Bytes::new(), &mut lineage)
                .await
                .expect("EU configured");
        }
        assert_eq!(lineage.len(), 8);
    });
    (one, sixty_four, stats::snapshot().cow_dep_clones)
}

#[test]
fn the_lineage_path_allocates_per_lineage_not_per_dependency() {
    let a = thread::spawn(allocation_counts).join().unwrap();
    let b = thread::spawn(allocation_counts).join().unwrap();
    // One key buffer per decoded lineage whatever its size (a key `Rc` per
    // dependency would read 1 and 64), and one dep-vector copy — the first
    // append, off the shared empty vector — for any number of shim writes
    // (a clone held across each write would read 8).
    assert_eq!(a, (1, 1, 1));
    assert_eq!(a, b, "the counts repeat");
}

#[test]
fn different_seeds_diverge() {
    // Sanity: the workload actually depends on its seed (guards against a
    // vacuous determinism assertion).
    let a = thread::spawn(|| workload(1)).join().unwrap();
    let b = thread::spawn(|| workload(2)).join().unwrap();
    assert_ne!(a.1, b.1);
}

#[test]
fn serialize_scaling_is_linear() {
    // Regression guard for the old O(deps × stores) string-table scan:
    // encode time is not asserted (wall-clock is machine-dependent), but
    // the byte work is — wire size must grow linearly in deps when the
    // store universe is fixed, and the string table must stay constant.
    let sizes = [64usize, 128, 256, 512];
    let wire: Vec<usize> = sizes
        .iter()
        .map(|&n| {
            let mut l = Lineage::new(LineageId(9));
            for i in 0..n {
                l.append(WriteId::new(
                    NAMES[i % NAMES.len()],
                    format!("key-{i:06}"),
                    i as u64 + 1,
                ));
            }
            l.wire_size()
        })
        .collect();
    // Linear means size = C + k·deps: the marginal per-dep cost between
    // consecutive doublings must stay flat (±25% absorbs varint-width
    // steps), where quadratic growth would double it each time.
    let marginal: Vec<f64> = sizes
        .windows(2)
        .zip(wire.windows(2))
        .map(|(s, w)| (w[1] - w[0]) as f64 / (s[1] - s[0]) as f64)
        .collect();
    for m in marginal.windows(2) {
        let ratio = m[1] / m[0];
        assert!(
            (0.8..=1.25).contains(&ratio),
            "per-dep wire cost must be flat: sizes {wire:?}, marginal {marginal:?}"
        );
    }
}
