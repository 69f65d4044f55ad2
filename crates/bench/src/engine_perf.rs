//! Engine-plane performance baseline: the fixed-seed replication workload
//! behind `engine_baseline` (which writes `BENCH_engine.json`).
//!
//! Mirrors [`crate::perf`] for the commit → fan-out → apply pipeline. The
//! baseline is split the same way:
//!
//! - [`EngineDeterministicMetrics`] — structural counters from a fixed
//!   write workload: engine counters ([`antipode_store::EngineStats`]:
//!   commits, fan-out flusher wakes, send entries, applies, WAL
//!   appends/bytes, entries per wake). Integer-only and byte-identical
//!   across same-seed runs on any machine — CI diffs this section against
//!   the committed artifact.
//! - [`EngineTimingMetrics`] — wall-clock ns per replicated write.
//!   Machine-dependent, never asserted on.
//!
//! A *hop* here is one fully replicated write: commit at the origin, fan
//! out to every other replica, apply (with WAL append) at each. The
//! headline comparison is `hop_ns` here against the lineage plane's
//! `hop_ns` in `BENCH_lineage.json` — the engine pipeline moves a write
//! end-to-end across three regions in a fraction of what one baggage
//! header hop used to cost.

use std::rc::Rc;
use std::time::{Duration, Instant};

use antipode_lineage::Lineage;
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::net::Network;
use antipode_sim::{Region, Sim};
use antipode_store::{stats, EngineStats, Envelope, KvProfile, KvStore};
use bytes::Bytes;
use serde::Serialize;

use crate::perf::build_lineage;

/// Regions the bench store replicates across.
const REGIONS: [Region; 3] = [EU, US, SG];

/// Concurrent writers. Each writer is a persistent client task issuing
/// sequential puts; with constant commit latency every writer's n-th put
/// commits at the same virtual instant, so a third of them (writers are
/// spread over the regions) share each (origin, dest) pair's wake.
pub const DEFAULT_WRITERS: usize = 256;
/// Sequential puts per writer (one warmup put per writer runs first and
/// is not counted). Sized so one repetition's measured window fits inside
/// a host scheduling quantum — the minimum over repetitions then has a
/// real chance of observing an unpreempted run on a busy machine.
pub const DEFAULT_ROUNDS: usize = 16;
/// Timing repetitions; the reported wall time is the minimum
/// (the run least disturbed by the host machine). Deterministic counters
/// are asserted identical across repetitions.
pub const DEFAULT_REPS: usize = 15;
/// Dependencies in the lineage enveloped with every write.
pub const DEFAULT_DEPS: usize = 16;

/// Structural counters from the fixed-seed write workload. Identical
/// across runs with the same seed, on any machine. All counters cover the
/// measured rounds only (the warmup round is excluded).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct EngineDeterministicMetrics {
    /// Replicated writes in the measured rounds.
    pub writes: u64,
    /// Commits that assigned a version.
    pub commits: u64,
    /// Fan-out flusher wakes (virtual-time events spent on replication).
    pub fanout_events: u64,
    /// Replication send entries reaching their terminal step.
    pub send_entries: u64,
    /// Replica applies.
    pub applies: u64,
    /// WAL appends across all replicas.
    pub wal_appends: u64,
    /// Bytes logged across those appends.
    pub wal_bytes: u64,
    /// Applies that reached a live replica.
    pub batch_flushes: u64,
    /// Most entries one flusher wake delivered.
    pub max_batch: u64,
}

/// Wall-clock measurements, ns per replicated write (machine-dependent).
#[derive(Clone, Debug, Serialize)]
pub struct EngineTimingMetrics {
    /// One replicated write.
    pub hop_ns: f64,
    /// Replicated writes per second implied by `hop_ns`.
    pub hop_ops_per_sec: f64,
    /// Commits per second.
    pub commits_per_sec: f64,
    /// Fan-out flusher wakes per second.
    pub fanout_events_per_sec: f64,
    /// Average WAL bytes logged per commit (from the deterministic
    /// counters; kept here so the deterministic section stays integral).
    pub wal_bytes_per_commit: f64,
    /// CRC32C cost of sealing one commit's WAL frames: the checksum of a
    /// representative framed body, times the appends each commit fans out
    /// to (one per replica). Sealing runs off the commit path (the WAL
    /// stages appends and seals at observation, group-commit style), so
    /// this is the deferred flush-side bill per commit — reported next to
    /// `hop_ns` to keep the integrity plane's overhead visible and
    /// to show why it must stay off the hop: on the commit path it would
    /// blow the < 5 % hop budget roughly twentyfold.
    pub crc_ns_per_commit: f64,
    /// Average send entries per flusher wake.
    pub avg_batch: f64,
}

/// The full baseline document written to `BENCH_engine.json`.
#[derive(Clone, Debug, Serialize)]
pub struct EngineBaseline {
    /// Artifact name.
    pub bench: String,
    /// Workload seed.
    pub seed: u64,
    /// Concurrent persistent writers.
    pub writers: usize,
    /// Measured sequential puts per writer.
    pub rounds: usize,
    /// Same-seed-stable structural counters.
    pub deterministic: EngineDeterministicMetrics,
    /// Machine-dependent timings.
    pub timing: EngineTimingMetrics,
}

/// One run's raw outcome: engine counters over the measured rounds, and
/// their wall-clock duration.
struct RunOutcome {
    engine: EngineStats,
    elapsed: Duration,
}

fn bench_profile() -> KvProfile {
    // Constant latencies: every write of a round commits at the same
    // virtual instant and replicates with the same lag, so a pair's sends
    // share their wakes. (Jittered profiles give every delivery its own
    // instant and its own wake; the benchmark workloads cover those.)
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(50.0),
    }
}

fn bench_network() -> Network {
    // Constant link delays for the same reason as `bench_profile`: the
    // evaluation topology's lognormal jitter would give every send its
    // own delivery instant.
    Network::new(Dist::Constant(0.000_25), Dist::Constant(0.080))
}

/// Spawns the persistent writer fleet — one long-lived client task per
/// writer issuing `puts` sequential writes to its own key from its home
/// region — and drains the sim until all replication has landed. Each
/// write envelopes the payload under the shared lineage exactly as a shim
/// write would. Long-lived clients are the representative shape (a service shim
/// issues a stream of writes, not one task per write), and they keep the
/// harness out of the measurement: the task spawn amortizes over the
/// writer's whole stream.
fn run_writers(
    sim: &Sim,
    store: &KvStore,
    lineage: &Lineage,
    keys: &Rc<Vec<Rc<str>>>,
    puts: usize,
) {
    let sim2 = sim.clone();
    let store = store.clone();
    let lineage = lineage.clone();
    let keys = Rc::clone(keys);
    sim.block_on(async move {
        for (w, key) in keys.iter().enumerate() {
            let s = store.clone();
            let origin = REGIONS[w % REGIONS.len()];
            let key = Rc::clone(key);
            let lineage = lineage.clone();
            sim2.spawn_detached(async move {
                for n in 0..puts {
                    let value = Envelope::with_lineage(
                        Bytes::from_static(b"engine-bench-value"),
                        lineage.clone(),
                    )
                    .encode();
                    s.put(origin, &key, value)
                        .await
                        .unwrap_or_else(|e| panic!("bench put {n}: {e:?}"));
                }
            });
        }
        // puts × commit latency + transit + replication lag is well under
        // the horizon; the sleep drains every spawned task
        // deterministically.
        sim2.sleep(Duration::from_secs(2)).await;
    });
}

/// Runs one warmup put per writer, then `rounds` measured sequential puts
/// per writer, and returns the measured counters and wall time.
fn run_workload(seed: u64, writers: usize, rounds: usize) -> RunOutcome {
    let sim = Sim::new(seed);
    let net = Rc::new(bench_network());
    let store = KvStore::new(&sim, net, "bench-db", &REGIONS, bench_profile());

    // Every write carries a shim-style envelope: the value plus a
    // serialized lineage. The lineage is shared across writes, so its
    // wire form is cached after the first encode and each per-write
    // envelope encode is a scratch assembly + memcpy.
    let lineage: Lineage = build_lineage(seed, DEFAULT_DEPS);
    // Warm the wire cache once: a shim's lineage has already crossed a hop
    // by the time it lands in a write, and clones share the cached wire
    // form — so a steady-state envelope encode is an assembly memcpy, not
    // a serialization.
    let _ = lineage.wire_bytes();
    // Keys are allocated once up front (clients reuse their key strings);
    // the measured loop shares them by refcount.
    let keys: Rc<Vec<Rc<str>>> = Rc::new(
        (0..writers)
            .map(|w| Rc::from(format!("w{w}").as_str()))
            .collect(),
    );

    run_writers(&sim, &store, &lineage, &keys, 1);

    stats::reset();
    let start = Instant::now();
    run_writers(&sim, &store, &lineage, &keys, rounds);
    let elapsed = start.elapsed();
    let engine = stats::snapshot();

    assert!(
        store.pending_sends() == 0 && store.converged(),
        "bench workload must drain and converge (pending {}, converged {})",
        store.pending_sends(),
        store.converged(),
    );
    RunOutcome { engine, elapsed }
}

/// Runs the workload once, returning its deterministic counters.
pub fn deterministic_workload(
    seed: u64,
    writers: usize,
    rounds: usize,
) -> EngineDeterministicMetrics {
    metrics_of(writers, rounds, &run_workload(seed, writers, rounds).engine)
}

fn metrics_of(writers: usize, rounds: usize, e: &EngineStats) -> EngineDeterministicMetrics {
    EngineDeterministicMetrics {
        writes: (writers * rounds) as u64,
        commits: e.commits,
        fanout_events: e.fanout_events,
        send_entries: e.send_entries,
        applies: e.applies,
        wal_appends: e.wal_appends,
        wal_bytes: e.wal_bytes,
        batch_flushes: e.batch_flushes,
        max_batch: e.max_batch,
    }
}

/// Runs `DEFAULT_REPS` repetitions, asserting the structural counters
/// replay identically, and returns the repetition with the smallest wall
/// time (host-noise floor).
fn best_of(seed: u64, writers: usize, rounds: usize) -> RunOutcome {
    let mut best: Option<RunOutcome> = None;
    for _ in 0..DEFAULT_REPS {
        let rep = run_workload(seed, writers, rounds);
        if let Some(prev) = &best {
            assert_eq!(
                prev.engine, rep.engine,
                "same-seed repetitions must replay the same counters"
            );
            if rep.elapsed < prev.elapsed {
                best = Some(rep);
            }
        } else {
            best = Some(rep);
        }
    }
    best.expect("at least one repetition runs")
}

/// Measures the per-commit checksum cost of the self-validating WAL
/// framing: CRC32C over a body sized to the workload's own average append
/// (`wal_bytes / wal_appends` minus the 8-byte frame header), scaled by
/// the appends each commit produces. Min-of-reps like the hop timings, so
/// the number is the host-noise floor, not an average.
fn measure_crc_ns_per_commit(m: &EngineDeterministicMetrics) -> f64 {
    use antipode_lineage::crc32c::crc32c;
    let body_len = (m.wal_bytes / m.wal_appends).saturating_sub(8) as usize;
    let body: Vec<u8> = (0..body_len).map(|i| i as u8).collect();
    const ITERS: u32 = 100_000;
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = 0u32;
        for _ in 0..ITERS {
            acc ^= crc32c(std::hint::black_box(&body));
        }
        let elapsed = start.elapsed();
        std::hint::black_box(acc);
        best = best.min(elapsed);
    }
    let per_append = best.as_nanos() as f64 / ITERS as f64;
    per_append * (m.wal_appends as f64 / m.commits as f64)
}

/// Runs the full baseline (deterministic counters + wall-clock timings).
pub fn run(seed: u64) -> EngineBaseline {
    let best = best_of(seed, DEFAULT_WRITERS, DEFAULT_ROUNDS);
    let deterministic = metrics_of(DEFAULT_WRITERS, DEFAULT_ROUNDS, &best.engine);

    let hop_ns = best.elapsed.as_nanos() as f64 / deterministic.writes as f64;
    let secs = best.elapsed.as_secs_f64();
    let timing = EngineTimingMetrics {
        hop_ns,
        hop_ops_per_sec: 1e9 / hop_ns,
        commits_per_sec: deterministic.commits as f64 / secs,
        fanout_events_per_sec: deterministic.fanout_events as f64 / secs,
        wal_bytes_per_commit: deterministic.wal_bytes as f64 / deterministic.commits as f64,
        crc_ns_per_commit: measure_crc_ns_per_commit(&deterministic),
        avg_batch: deterministic.send_entries as f64 / deterministic.fanout_events as f64,
    };
    EngineBaseline {
        bench: "engine_plane".to_string(),
        seed,
        writers: DEFAULT_WRITERS,
        rounds: DEFAULT_ROUNDS,
        deterministic,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WRITERS: usize = 24;
    const ROUNDS: usize = 3;

    #[test]
    fn workload_is_deterministic() {
        let a = deterministic_workload(11, WRITERS, ROUNDS);
        let b = deterministic_workload(11, WRITERS, ROUNDS);
        assert_eq!(a, b);
    }

    #[test]
    fn every_write_commits_and_replicates() {
        let m = deterministic_workload(5, WRITERS, ROUNDS);
        assert_eq!(m.commits, m.writes);
        // Two replication destinations per write, each reaching a
        // terminal step; applies add the origin's local apply.
        assert_eq!(m.send_entries, m.writes * 2);
        assert_eq!(m.applies, m.writes * 3);
        assert_eq!(m.wal_appends, m.writes * 3);
        assert!(m.wal_bytes > m.wal_appends, "entries have a real footprint");
    }

    #[test]
    fn same_instant_sends_share_a_wake() {
        let m = deterministic_workload(5, WRITERS, ROUNDS);
        assert!(
            m.fanout_events * 4 <= m.send_entries,
            "a constant-latency fleet must share wakes: {} wakes for {} sends",
            m.fanout_events,
            m.send_entries,
        );
        assert!(m.max_batch > 1, "a wake must deliver more than one entry");
    }
}
