//! Statistical cross-validation of the formal XCY checker against the
//! operational system: replay many post-notification requests against the
//! simulated stores, record each as a formal execution, and verify that the
//! checker's verdict matches the application-level observation **per
//! request** — not just in aggregate.
//!
//! The second half cross-validates the [`antipode::ConsistencyChecker`]
//! against the happens-before race detector ([`antipode::RaceDetector`]):
//! the checker replays the *lineage*, the detector reconstructs causality
//! from message edges alone — under randomized chaos the two independent
//! analyses must report exactly the same unmet dependencies at every
//! checkpoint.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, RaceDetector, TraceEvent};
use antipode_lineage::model::{Causality, Execution, ProcId};
use antipode_lineage::{Lineage, LineageId, WriteId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::probe::{VisibilityEvent, VisibilityProbe};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{Redis, Sns};
use bytes::Bytes;

/// Runs `n` requests; for each, returns (checker saw violation, app saw
/// not-found).
fn replay(n: usize, with_barrier: bool, seed: u64) -> Vec<(bool, bool)> {
    let sim = Sim::new(seed);
    let net = Rc::new(Network::global_triangle());
    // Redis vs SNS: a close race (Table 1: 88%), so both outcomes appear.
    let posts = Redis::new(&sim, net.clone(), "post-storage", &[EU, US]);
    let notifier = Sns::new(&sim, net, "notifier", &[EU, US]);
    let post_shim = KvShim::new(posts.store().clone());
    let notif_shim = QueueShim::new(notifier.queue().clone());

    let outcomes: Rc<RefCell<Vec<(bool, bool)>>> = Rc::new(RefCell::new(Vec::new()));

    for i in 0..n {
        let sim2 = sim.clone();
        let post_shim = post_shim.clone();
        let notif_shim = notif_shim.clone();
        let posts_store = posts.store().clone();
        let outcomes = outcomes.clone();
        sim.spawn(async move {
            sim2.sleep(Duration::from_millis(300 * i as u64)).await;
            let mut exec = Execution::new();
            let l_write = LineageId(i as u64 * 2);
            let l_read = LineageId(i as u64 * 2 + 1);
            let post_svc = ProcId(1);
            let notif_svc = ProcId(2);
            let reader = ProcId(3);

            let mut sub = notif_shim.subscribe(US).expect("US configured");

            // Writer request.
            let key = format!("post-{i}");
            let mut lin = Lineage::new(l_write);
            let post_wid = post_shim
                .write(EU, &key, Bytes::from_static(b"body"), &mut lin)
                .await
                .expect("EU configured");
            exec.write(post_svc, l_write, post_wid.clone());
            let notif_wid = notif_shim
                .publish(EU, Bytes::from(key.clone()), &mut lin)
                .await
                .expect("EU configured");
            exec.write(notif_svc, l_write, notif_wid.clone());

            // Reader request.
            let msg = sub
                .recv()
                .await
                .expect("delivered")
                .expect("valid envelope");
            exec.read(
                reader,
                l_read,
                notif_wid.datastore().to_string(),
                notif_wid.key().to_string(),
                Some(notif_wid.clone()),
            );
            if with_barrier {
                posts_store
                    .wait_visible(US, &key, post_wid.version())
                    .await
                    .expect("US configured");
            }
            let got = post_shim.read(US, &key).await.expect("US configured");
            let found = got.is_some();
            exec.read(
                reader,
                l_read,
                post_wid.datastore().to_string(),
                key,
                found.then(|| post_wid.clone()),
            );
            let _ = msg;

            let checker_flags = !exec.is_consistent(Causality::Xcy);
            outcomes.borrow_mut().push((checker_flags, !found));
        });
    }
    sim.run();
    let out = outcomes.borrow().clone();
    out
}

#[test]
fn checker_agrees_with_system_per_request() {
    let outcomes = replay(120, false, 0xC0DE);
    assert_eq!(outcomes.len(), 120);
    let violations = outcomes.iter().filter(|(_, app)| *app).count();
    // Redis × SNS is a real race: both outcomes must occur in the sample.
    assert!(
        violations > 10,
        "only {violations} violations — race did not exercise both sides"
    );
    assert!(
        violations < 120,
        "every request violated — race did not exercise both sides"
    );
    for (i, (checker, app)) in outcomes.iter().enumerate() {
        assert_eq!(checker, app, "request {i}: checker={checker} app={app}");
    }
}

#[test]
fn with_barrier_both_views_are_clean() {
    let outcomes = replay(60, true, 0xC0DF);
    for (i, (checker, app)) in outcomes.iter().enumerate() {
        assert!(!checker && !app, "request {i} still violated");
    }
}

// ---------------------------------------------------------------------------
// Race detector ⇄ ConsistencyChecker cross-validation under chaos.
// ---------------------------------------------------------------------------

const KV_STORES: [&str; 3] = ["db-a", "db-b", "db-c"];

fn fast_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

/// Deterministic parameter derivation (splitmix64) so each seed names one
/// replayable chaos scenario without pulling in a generator dependency.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A probe that appends every store visibility transition to the trace.
fn probe_into(trace: Rc<RefCell<Vec<TraceEvent>>>) -> VisibilityProbe {
    Rc::new(move |e: &VisibilityEvent| {
        trace.borrow_mut().push(TraceEvent::Visibility(e.clone()));
    })
}

/// One chaos scenario: a writer in EU touches three KV stores and publishes
/// a notification under one lineage; a reader in US checkpoints immediately
/// on receipt (the racy read) and again after a barrier (the gated read).
/// Returns, per checkpoint, the location plus the checker's and the
/// detector's sorted unmet sets.
#[allow(clippy::type_complexity)]
fn run_race_cross_validation(seed: u64) -> Vec<(String, Vec<WriteId>, Vec<WriteId>)> {
    let mut s = seed;
    let outage = (mix(&mut s) % 4000, 500 + mix(&mut s) % 7500);
    let partition = (mix(&mut s) % 4000, 500 + mix(&mut s) % 7500);

    let sim = Sim::new(seed);
    let net = Rc::new(Network::global_triangle());
    let faults = sim.faults();
    faults.schedule(
        SimTime::from_millis(outage.0),
        SimTime::from_millis(outage.0 + outage.1),
        FaultKind::RegionOutage { region: US },
    );
    faults.schedule(
        SimTime::from_millis(partition.0),
        SimTime::from_millis(partition.0 + partition.1),
        FaultKind::Partition { a: EU, b: US },
    );

    let trace: Rc<RefCell<Vec<TraceEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let mut ap = Antipode::new(sim.clone());
    let mut kv_shims = Vec::new();
    for name in KV_STORES {
        let drop_p = (mix(&mut s) % 90) as f64 / 100.0;
        let stall = mix(&mut s) % 6000;
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_secs(5),
            FaultKind::ReplicationDrop {
                store: name.to_string(),
                probability: drop_p,
            },
        );
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_millis(stall),
            FaultKind::ReplicationStall {
                store: name.to_string(),
                region: US,
            },
        );
        let store = KvStore::new(&sim, net.clone(), name, &[EU, US], fast_profile());
        store.set_probe(Some(probe_into(trace.clone())));
        let shim = KvShim::new(store);
        ap.register(Rc::new(shim.clone()));
        kv_shims.push(shim);
    }
    let notifier = Sns::new(&sim, net, "notifier", &[EU, US]);
    notifier.queue().set_probe(Some(probe_into(trace.clone())));
    let notif_shim = QueueShim::new(notifier.queue().clone());
    ap.register(Rc::new(notif_shim.clone()));
    let checker = ConsistencyChecker::new(ap.clone());

    // Subscribe before any publish can race the subscription.
    let mut sub = notif_shim.subscribe(US).expect("US configured");

    // Writer in EU.
    {
        let sim2 = sim.clone();
        let trace = trace.clone();
        let kv_shims = kv_shims.clone();
        let notif_shim = notif_shim.clone();
        sim.spawn(async move {
            let mut lin = Lineage::new(LineageId(1));
            for shim in &kv_shims {
                let wid = shim
                    .write(EU, "k", Bytes::from_static(b"v"), &mut lin)
                    .await
                    .expect("EU configured");
                trace.borrow_mut().push(TraceEvent::Write {
                    proc: "writer".into(),
                    write: wid,
                    at: sim2.now(),
                });
            }
            let notif_wid = notif_shim
                .publish(EU, Bytes::from_static(b"posted"), &mut lin)
                .await
                .expect("EU configured");
            let msg_id = notif_wid.version();
            trace.borrow_mut().push(TraceEvent::Write {
                proc: "writer".into(),
                write: notif_wid,
                at: sim2.now(),
            });
            trace.borrow_mut().push(TraceEvent::Send {
                proc: "writer".into(),
                channel: "notifier".into(),
                msg: msg_id,
                at: sim2.now(),
            });
        });
    }

    // Reader in US: checkpoint on receipt (racy), then after a barrier.
    let checker_sets: Rc<RefCell<Vec<(String, Vec<WriteId>)>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let sim2 = sim.clone();
        let trace = trace.clone();
        let checker = checker.clone();
        let checker_sets = checker_sets.clone();
        let ap = ap.clone();
        sim.spawn(async move {
            let msg = sub.recv().await.expect("delivered").expect("envelope");
            trace.borrow_mut().push(TraceEvent::Recv {
                proc: "reader".into(),
                channel: "notifier".into(),
                msg: msg.raw.id,
                at: sim2.now(),
            });
            // Reconstruct the full lineage: the carried one plus the publish
            // identifier itself (serialized before the append, §6.1).
            let mut lin = msg.lineage.clone().expect("shim-published");
            lin.append(WriteId::new(
                "notifier",
                format!("msg-{}", msg.raw.id),
                msg.raw.id,
            ));
            for location in ["reader:recv", "reader:post-barrier"] {
                if location == "reader:post-barrier" {
                    ap.barrier(&lin, US)
                        .await
                        .expect("bounded faults are retried, not surfaced");
                }
                let report = checker.checkpoint(location, &lin, US);
                trace.borrow_mut().push(TraceEvent::Checkpoint {
                    proc: "reader".into(),
                    location: location.into(),
                    region: US,
                    at: sim2.now(),
                });
                let mut unmet = report.unmet.clone();
                unmet.sort();
                checker_sets.borrow_mut().push((location.into(), unmet));
            }
        });
    }
    sim.run();

    let detector = RaceDetector::analyze(&trace.borrow());
    let checker_sets = checker_sets.borrow();
    assert_eq!(
        detector.findings().len(),
        checker_sets.len(),
        "seed {seed}: checkpoint counts diverge"
    );
    checker_sets
        .iter()
        .zip(detector.findings())
        .map(|((loc, checker_unmet), finding)| {
            assert_eq!(loc, &finding.location, "seed {seed}: checkpoint order");
            let mut detector_unmet = finding.unmet.clone();
            detector_unmet.sort();
            (loc.clone(), checker_unmet.clone(), detector_unmet)
        })
        .collect()
}

/// Tentpole cross-validation: on ≥ 50 randomized chaos seeds the
/// happens-before race detector and the lineage-replaying checker must
/// flag exactly the same unmet dependencies at exactly the same
/// checkpoints — and the chaos must exercise both racy and clean runs.
#[test]
fn race_detector_agrees_with_checker_on_chaos_seeds() {
    let mut racy = 0usize;
    let mut clean = 0usize;
    for seed in 0..60u64 {
        let per_checkpoint = run_race_cross_validation(seed);
        assert_eq!(per_checkpoint.len(), 2, "seed {seed}");
        for (location, checker_unmet, detector_unmet) in &per_checkpoint {
            assert_eq!(
                checker_unmet, detector_unmet,
                "seed {seed} @ {location}: checker and race detector diverge"
            );
            if location == "reader:post-barrier" {
                assert!(
                    checker_unmet.is_empty(),
                    "seed {seed}: barrier-gated checkpoint must be clean"
                );
            }
        }
        if per_checkpoint[0].1.is_empty() {
            clean += 1;
        } else {
            racy += 1;
        }
    }
    assert!(racy > 0, "no seed produced a race — chaos too weak");
    assert!(clean > 0, "every seed raced — agreement is vacuous");
}
