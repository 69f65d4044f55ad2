//! Batching determinism: the engine's batched fan-out (per-(origin, dest)
//! pair queues, coalesced flushes) is a pure mechanical optimization — it
//! must be *trace-invariant*. For any seed and any bounded fault plan, the
//! batched engine and the unbatched ablation (`set_batching(false)`) must
//! produce byte-identical visibility-probe streams and identical checker
//! verdicts. This is the externally-observable form of the argument in
//! `crates/datastores/src/batch.rs`: phase 1 of every send is sampled
//! synchronously at commit in destination order, so the RNG draw sequence —
//! and therefore every apply instant — is independent of how sends are
//! ferried to their destination.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::probe::{VisibilityEvent, VisibilityProbe};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use antipode_store::{profiles, QueueProfile, QueueStore};
use bytes::Bytes;
use proptest::prelude::*;

const REGIONS: [antipode_sim::Region; 3] = [EU, US, SG];

fn fast_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

/// S3's heavy-tailed replication (tens of seconds: everything the fleet
/// writes is in flight at once) with a *zero* retry backoff, so a dropped
/// send re-samples at the instant it was dropped. Constant commit latency
/// keeps the fleet's commits on shared instants.
fn deep_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(30.0),
        retry_interval: Dist::Constant(0.0),
        ..profiles::s3()
    }
}

/// Sends the deep scenarios must hold in flight at once.
const DEEP_INFLIGHT: usize = 4096;

/// Records every probe event as a fully-rendered line (store, region, key,
/// watermark, *and* virtual instant), so any divergence — reordering, a
/// shifted apply time, a dropped event — fails the byte-equality assert.
fn recording_probe(log: &Rc<RefCell<Vec<String>>>) -> VisibilityProbe {
    let log = log.clone();
    Rc::new(move |e: &VisibilityEvent| {
        let line = match e {
            VisibilityEvent::KvApplied {
                store,
                region,
                key,
                watermark,
                at,
            } => format!("kv:{store}/{region:?}/{key}@{watermark}:{}", at.as_nanos()),
            VisibilityEvent::QueueDelivered {
                store,
                region,
                id,
                at,
            } => {
                format!("qd:{store}/{region:?}/{id}:{}", at.as_nanos())
            }
            VisibilityEvent::QueueAcked {
                store,
                region,
                id,
                at,
            } => {
                format!("qa:{store}/{region:?}/{id}:{}", at.as_nanos())
            }
        };
        log.borrow_mut().push(line);
    })
}

/// One randomized scenario: concurrent writer fleet (the shape that actually
/// forms batches — same-instant commits into the same pair queues) under an
/// optional bounded fault plan, followed by per-lineage barriers and a
/// checker checkpoint at the read region.
#[derive(Clone, Debug)]
struct Params {
    seed: u64,
    writers: usize,
    /// `(start_ms, len_ms)` of a US region outage (len 0 = no outage).
    outage: (u64, u64),
    /// `(start_ms, len_ms)` of a US↔EU partition (len 0 = no partition).
    partition: (u64, u64),
    /// Replication drop probability for the first 3 s.
    drop: f64,
    /// Replication stall into US, `[0, len_ms)`.
    stall_ms: u64,
    /// Run on [`deep_profile`] and require [`DEEP_INFLIGHT`] queued sends.
    deep: bool,
}

/// Runs the scenario with batching on or off and returns the probe trace
/// plus the checker verdict (unmet dependencies after barriers — always 0).
fn run(p: &Params, batched: bool) -> (Vec<String>, usize) {
    let sim = Sim::new(p.seed);
    let net = Rc::new(Network::global_triangle());
    let faults = sim.faults();
    if p.outage.1 > 0 {
        faults.schedule(
            SimTime::from_millis(p.outage.0),
            SimTime::from_millis(p.outage.0 + p.outage.1),
            FaultKind::RegionOutage { region: US },
        );
    }
    if p.partition.1 > 0 {
        faults.schedule(
            SimTime::from_millis(p.partition.0),
            SimTime::from_millis(p.partition.0 + p.partition.1),
            FaultKind::Partition { a: EU, b: US },
        );
    }
    if p.drop > 0.0 {
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_secs(3),
            FaultKind::ReplicationDrop {
                store: "db".into(),
                probability: p.drop,
            },
        );
    }
    if p.stall_ms > 0 {
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_millis(p.stall_ms),
            FaultKind::ReplicationStall {
                store: "db".into(),
                region: US,
            },
        );
    }
    let profile = if p.deep {
        deep_profile()
    } else {
        fast_profile()
    };
    let store = KvStore::new(&sim, net, "db", &REGIONS, profile);
    store.set_batching(batched);
    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    store.set_probe(Some(recording_probe(&log)));
    let shim = KvShim::new(store.clone());
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(shim.clone()));
    let checker = ConsistencyChecker::new(ap.clone());

    let writers = p.writers;
    let sim2 = sim.clone();
    let p = p.clone();
    let violations = sim.block_on(async move {
        let sim = sim2;
        let lineages: Rc<RefCell<Vec<Lineage>>> = Rc::new(RefCell::new(Vec::new()));
        // Concurrent fleet: every writer commits its first put at the same
        // virtual instant (constant local-write latency), so the batched run
        // coalesces `writers` sends per pair queue while the unbatched run
        // ferries them one by one. Writers rotate origins across regions so
        // every (origin, dest) pair sees traffic.
        for w in 0..writers {
            let shim = shim.clone();
            let lineages = lineages.clone();
            sim.spawn_detached(async move {
                let mut lin = Lineage::new(LineageId(w as u64 + 1));
                let origin = REGIONS[w % REGIONS.len()];
                let key = format!("k-{w}");
                for _ in 0..3 {
                    shim.write(origin, &key, Bytes::from_static(b"v"), &mut lin)
                        .await
                        .expect("writer regions are configured");
                }
                lineages.borrow_mut().push(lin);
            });
        }
        if p.deep {
            // All three writes of every writer are committed; S3's lag has
            // delivered next to none of their sends.
            sim.sleep(Duration::from_millis(150)).await;
            assert!(
                store.pending_sends() >= DEEP_INFLIGHT,
                "only {} sends in flight",
                store.pending_sends()
            );
        }
        // Long enough for every write plus any scheduled fault window.
        sim.sleep(Duration::from_secs(20)).await;
        let lineages = lineages.borrow().clone();
        assert_eq!(lineages.len(), writers, "every writer must finish");
        let mut violations = 0usize;
        for lin in &lineages {
            ap.barrier(lin, US)
                .await
                .expect("bounded chaos is retried, not surfaced");
            violations += checker.checkpoint("post-barrier", lin, US).unmet.len();
        }
        violations
    });
    let trace = log.borrow().clone();
    (trace, violations)
}

/// Quiet-plan equivalence at a size that exercises real coalescing: 24
/// same-instant writers × 3 regions form 24-entry batches per pair queue.
#[test]
fn batched_and_unbatched_traces_match_on_quiet_plan() {
    let p = Params {
        seed: 0xA57,
        writers: 24,
        outage: (0, 0),
        partition: (0, 0),
        drop: 0.0,
        stall_ms: 0,
        deep: false,
    };
    assert_trace_invariant(&p);
}

fn assert_trace_invariant(p: &Params) {
    let (batched, v1) = run(p, true);
    let (unbatched, v2) = run(p, false);
    assert!(
        batched.len() >= p.writers * REGIONS.len(),
        "every write must apply in every region"
    );
    assert_eq!(
        batched, unbatched,
        "fan-out batching must be trace-invariant under {p:?}"
    );
    assert_eq!((v1, v2), (0, 0), "barrier-gated checkpoints must be clean");
}

/// Deep queues: 700 writers × 3 writes × 2 remote replicas hold 4 200 sends
/// in flight behind S3's tail, on a quiet plan and under chaos whose drops
/// retry with zero backoff. The heap-ordered pair queue must ferry them to
/// the same instants, in the same order, one entry or one batch at a time.
#[test]
fn deep_s3_queues_with_zero_backoff_are_trace_invariant() {
    let quiet = Params {
        seed: 0x53,
        writers: 700,
        outage: (0, 0),
        partition: (0, 0),
        drop: 0.0,
        stall_ms: 0,
        deep: true,
    };
    assert_trace_invariant(&quiet);
    // Faults open after the write phase (≈ 90 ms) so every writer finishes.
    let chaos = Params {
        outage: (500, 2000),
        partition: (300, 3000),
        drop: 0.5,
        stall_ms: 1500,
        ..quiet
    };
    assert_trace_invariant(&chaos);
}

/// Queue family: publishes fan out through the same pair queues; the
/// delivery/ack probe stream must be identical with batching on or off.
#[test]
fn queue_delivery_trace_is_batching_invariant() {
    let batched = run_queue(true, false);
    let unbatched = run_queue(false, false);
    assert!(!batched.is_empty(), "publishes must deliver");
    assert_eq!(
        batched, unbatched,
        "broker batching must be trace-invariant"
    );
}

/// The zero-backoff corner: constant lags land each round's four publishes
/// on one instant, half of them drop on arrival, and a zero redelivery
/// interval makes each dropped entry due again *at that same instant*. It
/// must still wait for the rest of its round — in both modes — or the
/// unbatched flusher would re-draw for it before its round-mates drew once.
#[test]
fn zero_backoff_redelivery_rounds_are_batching_invariant() {
    let batched = run_queue(true, true);
    let unbatched = run_queue(false, true);
    assert!(!batched.is_empty(), "publishes must deliver");
    assert_eq!(
        batched, unbatched,
        "a re-sampled entry must sit out the rest of its round"
    );
}

fn run_queue(batched: bool, zero_backoff: bool) -> Vec<String> {
    let sim = Sim::new(77);
    let (net, profile) = if zero_backoff {
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(3),
            FaultKind::DeliveryDrop {
                broker: "amq".into(),
                probability: 0.5,
            },
        );
        (
            Network::new(Dist::Constant(0.000_25), Dist::Constant(0.080)),
            QueueProfile {
                delivery: Dist::constant_ms(100.0),
                ..QueueProfile::default()
            },
        )
    } else {
        (Network::global_triangle(), QueueProfile::default())
    };
    let q = QueueStore::new(&sim, Rc::new(net), "amq", &[EU, US, SG], profile);
    if zero_backoff {
        q.set_redelivery_interval(Dist::Constant(0.0));
    }
    q.set_batching(batched);
    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    q.set_probe(Some(recording_probe(&log)));
    let q2 = q.clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        for _ in 0..4 {
            // Four concurrent publishers per round: same-instant commits
            // into the EU→US and EU→SG pair queues.
            for _ in 0..4 {
                let q = q2.clone();
                sim2.spawn_detached(async move {
                    q.publish(EU, Bytes::from_static(b"m"))
                        .await
                        .expect("EU is configured");
                });
            }
            sim2.sleep(Duration::from_millis(250)).await;
        }
        sim2.sleep(Duration::from_secs(5)).await;
    });
    let out = log.borrow().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence, under chaos: any seed, any bounded fault
    /// plan (US outage, US↔EU partition, replication drops, a stall into
    /// US) — the batched and unbatched engines emit the same probe stream
    /// and the checker returns the same (zero) verdict. Faults interleave
    /// with in-flight batches: drops hit phase-1 samples taken at commit,
    /// outages crash-restart replicas mid-flush, partitions park sends —
    /// none of which may depend on the ferrying strategy.
    #[test]
    fn batched_fanout_is_trace_invariant_under_chaos(
        seed in any::<u64>(),
        writers in 3usize..16,
        outage in (0u64..2000, 0u64..4000),
        partition in (0u64..2000, 0u64..4000),
        drop in 0.0f64..0.8,
        stall_ms in 0u64..3000,
    ) {
        let p = Params { seed, writers, outage, partition, drop, stall_ms, deep: false };
        let (batched, v1) = run(&p, true);
        let (unbatched, v2) = run(&p, false);
        prop_assert_eq!(
            batched, unbatched,
            "batching changed the trace under plan {:?}", p
        );
        prop_assert_eq!(v1, 0, "batched run violated XCY under plan {:?}", p);
        prop_assert_eq!(v2, 0, "unbatched run violated XCY under plan {:?}", p);
    }
}
