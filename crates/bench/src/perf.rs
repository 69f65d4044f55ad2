//! Lineage-plane performance baseline: the fixed-seed workload behind
//! `perf_baseline` (which writes `BENCH_lineage.json`) and the determinism
//! test.
//!
//! The baseline is split in two:
//!
//! - [`DeterministicMetrics`] — structural counters from a fixed hop
//!   workload: lineage-plane stats ([`antipode_lineage::LineageStats`]: copy-on-write clones,
//!   wire/base64 encodes vs cache hits, canonical decode adoptions), final
//!   sizes, and interner population. These are an allocation/work *proxy*
//!   that must be byte-identical across runs with the same seed — the
//!   determinism test asserts exactly that.
//! - [`TimingMetrics`] — wall-clock ns/op for the hot operations (clone,
//!   hop, serialize cached/dirty, deserialize, transfer). Machine-dependent,
//!   never asserted on; recorded so regressions show up in CI artifacts.

use std::time::Instant;

use antipode_lineage::{interner, stats};
use antipode_lineage::{Baggage, Lineage, LineageId, WriteId};
use serde::Serialize;

/// Datastore population of the workload — shaped like the paper's
/// DeathStarBench deployment (a handful of stores, many keys).
const STORES: [&str; 6] = [
    "post-storage-mongodb",
    "post-storage-redis",
    "write-home-timeline-rabbitmq",
    "user-timeline-mongodb",
    "media-mongodb",
    "social-graph-redis",
];

/// Default dependency count per lineage (the paper's lineages are small;
/// 16 matches the PR's acceptance benchmarks).
pub const DEFAULT_DEPS: usize = 16;
/// Default number of RPC hops simulated by the deterministic workload.
pub const DEFAULT_HOPS: usize = 256;

/// splitmix64 — deterministic, dependency-free.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Structural counters from the fixed-seed hop workload. Identical across
/// runs with the same seed, on any machine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DeterministicMetrics {
    /// Dependencies in the final lineage.
    pub final_deps: usize,
    /// Wire-format size of the final lineage, bytes.
    pub final_wire_bytes: usize,
    /// Header size of baggage carrying the final lineage, bytes.
    pub final_header_bytes: usize,
    /// Distinct datastore names interned by the workload thread.
    pub interned_stores: usize,
    /// Dependency-vector deep copies forced by copy-on-write.
    pub cow_dep_clones: u64,
    /// Full wire encodes performed.
    pub wire_encodes: u64,
    /// Wire requests served from cache.
    pub wire_cache_hits: u64,
    /// Base64 encodes performed.
    pub b64_encodes: u64,
    /// Base64 requests served from cache.
    pub b64_cache_hits: u64,
    /// Decodes that adopted canonical input bytes as the wire cache.
    pub canonical_decodes: u64,
}

/// Wall-clock measurements, ns per operation (machine-dependent).
#[derive(Clone, Debug, Serialize)]
pub struct TimingMetrics {
    /// Cloning a lineage (shallow, cache-sharing).
    pub clone_ns: f64,
    /// One full baggage hop: inject → header → parse → extract.
    pub hop_ns: f64,
    /// `serialize()` with a warm cache (the per-hop steady state).
    pub serialize_cached_ns: f64,
    /// `serialize()` immediately after a mutation (full re-encode).
    pub serialize_dirty_ns: f64,
    /// `deserialize()` of a canonical payload.
    pub deserialize_ns: f64,
    /// `transfer_from` into an empty lineage (the read-path union).
    pub transfer_into_empty_ns: f64,
    /// Hops per second implied by `hop_ns`.
    pub hop_ops_per_sec: f64,
}

/// The full baseline document written to `BENCH_lineage.json`.
#[derive(Clone, Debug, Serialize)]
pub struct LineageBaseline {
    /// Artifact name.
    pub bench: String,
    /// Workload seed.
    pub seed: u64,
    /// Dependencies per lineage.
    pub deps: usize,
    /// Hops in the deterministic workload.
    pub hops: usize,
    /// Same-seed-stable structural counters.
    pub deterministic: DeterministicMetrics,
    /// Machine-dependent timings.
    pub timing: TimingMetrics,
}

/// Builds a lineage with `deps` dependencies drawn deterministically from
/// `seed`.
pub fn build_lineage(seed: u64, deps: usize) -> Lineage {
    let mut state = seed;
    let mut l = Lineage::new(LineageId(seed));
    while l.len() < deps {
        let r = mix(&mut state);
        let store = STORES[(r % STORES.len() as u64) as usize];
        let key = format!("key-{}", r >> 16);
        l.append(WriteId::new(store, key, (r & 0xffff) + 1));
    }
    l
}

/// Runs the fixed hop workload and returns its structural counters.
///
/// Each hop models a service boundary: the lineage is injected into
/// baggage, carried across the edge, and extracted on the far side. The
/// edges alternate in runs of four between the two ways baggage travels in
/// this repo: as header text (render/parse, what `trace_rpc` puts on every
/// RPC leg) and by value (what `Endpoint::call` does: `RequestCtx::outgoing`
/// → `from_baggage` hands the struct over, no codec). On arrival the
/// receiving service persists the value, which serializes the lineage into
/// a datastore envelope — the wire-cache consumer that canonical decode
/// adoption exists for. Every fourth hop the receiving service starts a
/// request of its own — transferring the received lineage in and appending
/// a write — while the other hops forward the lineage unchanged, the
/// pass-through case the wire/base64 caches exist for.
pub fn deterministic_workload(seed: u64, deps: usize, hops: usize) -> DeterministicMetrics {
    let mut state = seed ^ 0x5eed;
    let mut lineage = build_lineage(seed, deps);
    stats::reset();
    for hop in 0..hops as u64 {
        let mut out = Baggage::new();
        out.set_lineage(&lineage);
        let incoming = if hop % 8 < 4 {
            Baggage::from_header(&out.to_header())
        } else {
            out
        };
        let received = incoming.lineage().expect("hop carries a lineage");
        // The receiver stores the value: the shim envelopes it under the
        // received lineage, which asks for the wire form. After a canonical
        // text-edge decode, or a by-value hop of an unchanged lineage, this
        // must be a cache hit, not a re-encode.
        std::hint::black_box(received.wire_size());
        lineage = if hop % 4 == 0 {
            let mut request = Lineage::new(LineageId(seed ^ (hop + 1)));
            request.transfer_from(&received);
            let r = mix(&mut state);
            let store = STORES[(r % STORES.len() as u64) as usize];
            request.append(WriteId::new(store, format!("hop-{hop}"), (r & 0xffff) + 1));
            request
        } else {
            received
        };
    }
    let mut carrier = Baggage::new();
    carrier.set_lineage(&lineage);
    let final_wire_bytes = lineage.wire_size();
    let final_header_bytes = carrier.header_size();
    // Snapshot last so the final-size probes above are themselves counted.
    let stats = stats::snapshot();
    DeterministicMetrics {
        final_deps: lineage.len(),
        final_wire_bytes,
        final_header_bytes,
        interned_stores: interner::interned_count(),
        cow_dep_clones: stats.cow_dep_clones,
        wire_encodes: stats.wire_encodes,
        wire_cache_hits: stats.wire_cache_hits,
        b64_encodes: stats.b64_encodes,
        b64_cache_hits: stats.b64_cache_hits,
        canonical_decodes: stats.canonical_decodes,
    }
}

fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    // Warm-up, then one timed block.
    for _ in 0..iters.min(100) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures wall-clock timings of the lineage-plane hot paths.
pub fn timing_workload(seed: u64, deps: usize) -> TimingMetrics {
    let lineage = build_lineage(seed, deps);
    let bytes = lineage.serialize();

    let clone_ns = time_ns(100_000, || {
        std::hint::black_box(lineage.clone());
    });

    let hop_ns = time_ns(20_000, || {
        let mut b = Baggage::new();
        b.set_lineage(&lineage);
        let header = b.to_header();
        let back = Baggage::from_header(&header);
        std::hint::black_box(back.lineage().expect("valid hop"));
    });

    let serialize_cached_ns = time_ns(100_000, || {
        std::hint::black_box(lineage.serialize());
    });

    let mut version = 1_000_000u64;
    let serialize_dirty_ns = time_ns(20_000, || {
        // Fresh clone each iteration keeps the lineage at `deps` deps; the
        // append pays the COW copy, the serialize the full re-encode.
        let mut dirty = lineage.clone();
        version += 1;
        dirty.append(WriteId::new(STORES[0], "dirty-key", version));
        std::hint::black_box(dirty.serialize());
    });

    let deserialize_ns = time_ns(50_000, || {
        std::hint::black_box(Lineage::deserialize(&bytes).expect("round trip"));
    });

    let transfer_into_empty_ns = time_ns(100_000, || {
        let mut l = Lineage::new(LineageId(2));
        l.transfer_from(&lineage);
        std::hint::black_box(l);
    });

    TimingMetrics {
        clone_ns,
        hop_ns,
        serialize_cached_ns,
        serialize_dirty_ns,
        deserialize_ns,
        transfer_into_empty_ns,
        hop_ops_per_sec: 1e9 / hop_ns,
    }
}

/// Runs the full baseline (deterministic workload + timings).
pub fn run(seed: u64) -> LineageBaseline {
    LineageBaseline {
        bench: "lineage_plane".to_string(),
        seed,
        deps: DEFAULT_DEPS,
        hops: DEFAULT_HOPS,
        deterministic: deterministic_workload(seed, DEFAULT_DEPS, DEFAULT_HOPS),
        timing: timing_workload(seed, DEFAULT_DEPS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_within_a_thread() {
        // Same seed twice in one thread: interner population differs only if
        // the second run interns new names — it must not.
        let a = deterministic_workload(11, 8, 32);
        let b = deterministic_workload(11, 8, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn hop_workload_hits_the_caches() {
        let m = deterministic_workload(3, DEFAULT_DEPS, DEFAULT_HOPS);
        assert!(
            m.canonical_decodes > 0,
            "hop decodes must adopt canonical inputs: {m:?}"
        );
        // The envelope write on every text-edge hop asks for the wire form
        // of a just-decoded lineage; canonical adoption must serve it from
        // cache. Both text edges of every 4-hop cycle qualify, so the hit
        // count is bounded below by half the hops — this pins the
        // historical regression where the counter sat at zero because no
        // consumer ever re-asked for the wire bytes.
        assert!(
            m.wire_cache_hits >= DEFAULT_HOPS as u64 / 2,
            "envelope writes after canonical decodes must hit the wire cache: {m:?}"
        );
        // Pass-through text hops forward the adopted base64 unchanged.
        assert!(
            m.b64_cache_hits > 0,
            "pass-through hops must be base64 cache hits: {m:?}"
        );
    }
}
