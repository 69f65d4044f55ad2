//! The replication fan-out's contract (`crates/datastores/src/fanout.rs`,
//! DESIGN.md §14.1), asserted on visibility-probe traces and engine
//! counters. Nothing here depends on what the RNG draws: constant networks
//! and profiles where an exact instant is asserted, bounds and same-seed
//! repetition where chaos draws — so the suite holds under the real `rand`
//! and under `dev/offline-stubs` alike.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::{FaultKind, Network, Region, Sim, SimTime};
use antipode_store::probe::{VisibilityEvent, VisibilityProbe};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use antipode_store::{profiles, stats, QueueProfile, QueueStore};
use bytes::Bytes;
use proptest::prelude::*;

const REGIONS: [Region; 3] = [EU, US, SG];

fn fast_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

/// Constant link delays: sends of one pair committed at one instant fall
/// due at one instant, which the triangle's jitter never lets happen.
fn constant_network() -> Network {
    Network::new(Dist::Constant(0.000_25), Dist::Constant(0.080))
}

/// One inter-region hop of [`constant_network`] plus the constant 100 ms
/// the profiles here add.
const REMOTE_LAG: Duration = Duration::from_millis(180);

type Trace = Rc<RefCell<Vec<VisibilityEvent>>>;

/// Records every probe event whole — store, region, key, watermark *and*
/// virtual instant — so any divergence (reordering, a shifted apply time, a
/// dropped event) fails an equality assert.
fn recording_probe() -> (Trace, VisibilityProbe) {
    let trace = Trace::default();
    let log = trace.clone();
    let probe = Rc::new(move |e: &VisibilityEvent| log.borrow_mut().push(e.clone()));
    (trace, probe)
}

/// Order inside a multi-entry wake: 24 writers over three regions commit
/// on shared instants, so every pair's wake carries eight entries. Every
/// write must apply in every region, and within each `(origin, dest)` pair
/// the applies must come in commit order at exactly `commit + lag`.
#[test]
fn a_wake_delivers_its_entries_in_commit_order() {
    const WRITERS: usize = 24;
    const WRITES: usize = 3;
    let sim = Sim::new(0xA57);
    let net = Rc::new(constant_network());
    let store = KvStore::new(&sim, net, "db", &REGIONS, fast_profile());
    let (trace, probe) = recording_probe();
    store.set_probe(Some(probe));
    // (origin, key, version, commit instant), pushed in commit order — which
    // is each pair's enqueue order.
    struct Commit(Region, String, u64, SimTime);
    let commits: Rc<RefCell<Vec<Commit>>> = Rc::default();
    stats::reset();
    for w in 0..WRITERS {
        let (sim2, store, commits) = (sim.clone(), store.clone(), commits.clone());
        sim.spawn_detached(async move {
            let origin = REGIONS[w % REGIONS.len()];
            let key = format!("{origin:?}-{w}");
            for _ in 0..WRITES {
                let version = store
                    .put(origin, &key, Bytes::from_static(b"v"))
                    .await
                    .expect("writer regions are configured");
                let commit = Commit(origin, key.clone(), version, sim2.now());
                commits.borrow_mut().push(commit);
            }
        });
    }
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(store.pending_sends(), 0);
    let (commits, trace) = (commits.take(), trace.take());
    assert_eq!(commits.len(), WRITERS * WRITES);
    assert_eq!(
        trace.len(),
        commits.len() * REGIONS.len(),
        "every write must apply in every region"
    );
    for origin in REGIONS {
        for dest in REGIONS {
            let expected = commits.iter().filter(|c| c.0 == origin).map(|c| {
                let lag = if dest == origin {
                    Duration::ZERO
                } else {
                    REMOTE_LAG
                };
                VisibilityEvent::KvApplied {
                    store: "db".into(),
                    region: dest,
                    key: c.1.clone(),
                    watermark: c.2,
                    at: c.3 + lag,
                }
            });
            let from_origin = format!("{origin:?}-");
            let seen = trace.iter().filter(|e| {
                matches!(e, VisibilityEvent::KvApplied { region, key, .. }
                    if *region == dest && key.starts_with(&from_origin))
            });
            assert!(
                seen.eq(expected.collect::<Vec<_>>().iter()),
                "{origin:?}→{dest:?}"
            );
        }
    }
    assert_eq!(
        stats::snapshot().max_batch,
        (WRITERS / REGIONS.len()) as u64,
        "each origin's same-instant sends must have shared their wakes"
    );
}

/// The zero-backoff corner: four rounds of four same-instant publishes at
/// EU, constant lags, half of all arrivals dropped, and a zero redelivery
/// interval — so a dropped entry is due again *at the instant it was
/// dropped*. It must sit out the rest of its round: a wake pops each entry
/// of its pair at most once, whatever the lottery draws, and every publish
/// is still delivered everywhere on its arrival instant.
#[test]
fn a_resampled_entry_sits_out_its_round() {
    const ROUNDS: u64 = 4;
    const PER_ROUND: u64 = 4;
    let sim = Sim::new(77);
    sim.faults().schedule(
        SimTime::ZERO,
        SimTime::from_secs(3),
        FaultKind::DeliveryDrop {
            broker: "amq".into(),
            probability: 0.5,
        },
    );
    let profile = QueueProfile {
        local_publish: Dist::constant_ms(1.0),
        delivery: Dist::constant_ms(100.0),
        local_delivery: Dist::constant_ms(2.0),
        rtt_hops: 1.0,
    };
    let net = Rc::new(constant_network());
    let q = QueueStore::new(&sim, net, "amq", &REGIONS, profile);
    q.set_redelivery_interval(Dist::Constant(0.0));
    let (trace, probe) = recording_probe();
    q.set_probe(Some(probe));
    let (q2, sim2) = (q.clone(), sim.clone());
    sim.spawn_detached(async move {
        for _ in 0..ROUNDS {
            for _ in 0..PER_ROUND {
                let q = q2.clone();
                sim2.spawn_detached(async move {
                    q.publish(EU, Bytes::from_static(b"m"))
                        .await
                        .expect("EU is configured");
                });
            }
            sim2.sleep(Duration::from_millis(250)).await;
        }
    });

    // All publishes commit at EU, so the (EU, dest) queue holds what was
    // committed and not yet delivered at `dest`.
    let deepest_pair = |commits: u64| {
        let delivered = |dest| {
            let at_dest = |e: &&VisibilityEvent| matches!(e, VisibilityEvent::QueueDelivered { region, .. } if *region == dest);
            trace.borrow().iter().filter(at_dest).count() as u64
        };
        REGIONS
            .map(|dest| commits - delivered(dest))
            .into_iter()
            .max()
    };
    stats::reset();
    let mut before = stats::snapshot();
    let mut depth = deepest_pair(before.commits);
    while sim.step() {
        let after = stats::snapshot();
        if after.fanout_events > before.fanout_events {
            // What a wake visits: each entry it popped, plus the one
            // not-yet-due entry that may have ended it.
            let visited = after.pair_entries_visited - before.pair_entries_visited;
            assert!(
                Some(visited) <= depth.map(|d| d + 1),
                "a wake popped an entry twice: visited {visited} of {depth:?} queued"
            );
        }
        depth = deepest_pair(after.commits);
        before = after;
    }
    assert_eq!(q.pending_sends(), 0);

    // Message `id` is committed 1 ms into its round; rounds start 250 ms
    // apart; the local delivery takes 2 ms.
    let expected = REGIONS.iter().flat_map(|&region| {
        (1..=ROUNDS * PER_ROUND).map(move |id| VisibilityEvent::QueueDelivered {
            store: "amq".into(),
            region,
            id,
            at: SimTime::from_millis(250 * ((id - 1) / PER_ROUND) + 1)
                + if region == EU {
                    Duration::from_millis(2)
                } else {
                    REMOTE_LAG
                },
        })
    });
    let mut seen = trace.take();
    seen.sort_by_key(|e| match e {
        VisibilityEvent::QueueDelivered { region, id, .. } => {
            (REGIONS.iter().position(|r| r == region), *id)
        }
        other => panic!("nobody acks, and a broker applies no KV write: {other:?}"),
    });
    assert_eq!(
        seen,
        expected.collect::<Vec<_>>(),
        "every publish is delivered once per region, on its arrival instant"
    );
}

/// A concurrent writer fleet (every writer's n-th commit shares an instant)
/// under an optional bounded fault plan, followed by per-lineage barriers
/// and a checker checkpoint at the read region.
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

/// Sends the deep scenario must hold in flight at once.
const DEEP_INFLIGHT: usize = 4096;

/// Runs the scenario and returns the probe trace plus the checker verdict
/// (unmet dependencies after barriers — always 0).
fn run(p: &Params) -> (Vec<VisibilityEvent>, usize) {
    let sim = Sim::new(p.seed);
    let net = Rc::new(Network::global_triangle());
    let window = |(start_ms, len_ms): (u64, u64), kind| {
        if len_ms > 0 {
            let (start, end) = (start_ms, start_ms + len_ms);
            sim.faults()
                .schedule(SimTime::from_millis(start), SimTime::from_millis(end), kind);
        }
    };
    window(p.outage, FaultKind::RegionOutage { region: US });
    window(p.partition, FaultKind::Partition { a: EU, b: US });
    if p.drop > 0.0 {
        let (store, probability) = ("db".into(), p.drop);
        window((0, 3000), FaultKind::ReplicationDrop { store, probability });
    }
    let (store, region) = ("db".into(), US);
    window(
        (0, p.stall_ms),
        FaultKind::ReplicationStall { store, region },
    );
    let profile = if p.deep {
        deep_profile()
    } else {
        fast_profile()
    };
    let store = KvStore::new(&sim, net, "db", &REGIONS, profile);
    let (trace, probe) = recording_probe();
    store.set_probe(Some(probe));
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
        // Writers rotate origins across regions so every (origin, dest)
        // pair sees traffic.
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
    (trace.take(), violations)
}

/// Deep queues under chaos: 700 writers × 3 writes × 2 remote replicas hold
/// 4 200 sends in flight behind S3's tail while an outage, a partition,
/// 50 % drops retried with zero backoff and a stall work on them. Faults
/// open after the write phase (≈ 90 ms) so every writer finishes.
#[test]
fn deep_s3_queues_under_chaos_repeat_exactly() {
    let p = Params {
        seed: 0x53,
        writers: 700,
        outage: (500, 2000),
        partition: (300, 3000),
        drop: 0.5,
        stall_ms: 1500,
        deep: true,
    };
    let (trace, violations) = run(&p);
    assert!(
        trace.len() >= p.writers * REGIONS.len(),
        "every write must apply in every region"
    );
    assert_eq!(violations, 0, "barrier-gated checkpoints must be clean");
    assert_eq!(run(&p).0, trace, "same seed and plan, same trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seed, any bounded fault plan (US outage, US↔EU partition,
    /// replication drops, a stall into US): the run repeats byte for byte
    /// and the checker finds nothing after the barriers. Faults interleave
    /// with in-flight sends: drops hit phase-1 samples taken at commit,
    /// outages crash-restart replicas mid-wake, partitions park sends.
    #[test]
    fn same_seed_and_plan_repeat_exactly_with_no_violations(
        seed in any::<u64>(),
        writers in 3usize..16,
        outage in (0u64..2000, 0u64..4000),
        partition in (0u64..2000, 0u64..4000),
        drop in 0.0f64..0.8,
        stall_ms in 0u64..3000,
    ) {
        let p = Params { seed, writers, outage, partition, drop, stall_ms, deep: false };
        let (first, violations) = run(&p);
        prop_assert_eq!(violations, 0, "XCY violated under plan {:?}", p);
        prop_assert_eq!(run(&p).0, first, "the trace did not repeat under plan {:?}", p);
    }
}

/// The traffic the fan-out is sized for, as a tripwire: under every
/// catalogue profile on the evaluation topology, even 1 000 commits issued
/// at one origin at one instant give (all but) every send a wake of its own.
#[test]
fn catalogue_profiles_form_no_batches() {
    const COMMITS: u64 = 1000;
    // `dests`: the replicas a commit sends to (a KV origin applies its own
    // copy at commit; a broker delivers to its own region like any other).
    fn check(sim: &Sim, name: &str, dests: u64) {
        sim.run_until(SimTime::from_secs(3600));
        let s = stats::snapshot();
        assert_eq!(
            (s.commits, s.send_entries),
            (COMMITS, dests * COMMITS),
            "{name}: every send must have been delivered"
        );
        assert!(
            s.send_entries as f64 <= 1.01 * s.fanout_events as f64,
            "a catalogue profile now forms batches: revisit DESIGN §14.1's decision record \
             ({name}: {} sends in {} wakes, max {})",
            s.send_entries,
            s.fanout_events,
            s.max_batch
        );
    }
    for (name, profile) in [
        ("mysql", profiles::mysql()),
        ("dynamodb", profiles::dynamodb()),
        ("redis", profiles::redis()),
        ("s3", profiles::s3()),
        ("mongodb", profiles::mongodb()),
        ("mongodb_wan_stressed", profiles::mongodb_wan_stressed()),
    ] {
        let sim = Sim::new(1);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(&sim, net, name, &REGIONS, profile);
        stats::reset();
        for i in 0..COMMITS {
            let store = store.clone();
            sim.spawn_detached(async move {
                store
                    .put(EU, &format!("k-{i}"), Bytes::from_static(b"v"))
                    .await
                    .expect("EU is configured");
            });
        }
        check(&sim, name, 2);
    }
    for (name, profile) in [
        ("sns", profiles::sns()),
        ("amq", profiles::amq()),
        ("dynamodb_stream", profiles::dynamodb_stream()),
        ("rabbitmq", profiles::rabbitmq()),
    ] {
        let sim = Sim::new(1);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, name, &REGIONS, profile);
        stats::reset();
        for _ in 0..COMMITS {
            let q = q.clone();
            sim.spawn_detached(async move {
                q.publish(EU, Bytes::from_static(b"m"))
                    .await
                    .expect("EU is configured");
            });
        }
        check(&sim, name, 3);
    }
}
