//! The speculation plane, end to end on the Table-1 worst case (S3 post
//! storage with its heavy-tailed cross-region replication):
//!
//! 1. **Speculate → confirm.** A Reader's budgeted barrier gives up after
//!    500 ms with the post still unmet. The `Speculator` re-arms the
//!    remainder in the background and runs the handler immediately — its
//!    feed write parked in a `ConfinementBuffer` — and when S3's ≈ 15 s
//!    replication finally lands, the re-armed barrier completes and the
//!    buffer commits.
//! 2. **Speculate → violate → rollback → redeliver.** The reader-side S3
//!    replica crashes for 60 s. The next speculation's confirmation budget
//!    (20 s) expires first: the speculation is *violated*, the confined
//!    write is discarded (nothing ever reached the store), and the handler
//!    is redelivered behind an unbounded blocking barrier that rides out
//!    the crash via the recovery plane.
//!
//! Throughout, the `ConsistencyChecker` sees only *speculative* unsatisfied
//! checkpoints — zero observed XCY violations, the relaxed invariant the
//! speculation plane enforces.
//!
//! Run with `cargo run --release --example speculative_s3`.

use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, Lineage, LineageId};
use antipode_runtime::{SpecOutcome, SpeculationPolicy, Speculator};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::shim::KvShim;
use antipode_store::speculation::ConfinementBuffer;
use antipode_store::{Redis, S3};
use bytes::Bytes;

fn main() {
    let sim = Sim::new(7);
    let net = Rc::new(Network::global_triangle());
    // Writer-side S3 post storage (LogNormal replication, ≈ 15 s median)
    // and a reader-side Redis feed store the handler renders into.
    let post = S3::new(&sim, net.clone(), "post-storage-s3", &[EU, US]);
    let feed = Redis::new(&sim, net, "feed-redis", &[US]);
    let post_shim = KvShim::new(post.store().clone());
    let feed_shim = KvShim::new(feed.store().clone());
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(post_shim.clone()));
    ap.register(Rc::new(feed_shim.clone()));
    let checker = ConsistencyChecker::new(ap.clone());

    // Per-endpoint policies: a patient Reader (60 s confirmation budget)
    // and an impatient one (20 s) that the crash will push into violation.
    let patient = Speculator::new(
        ap.clone(),
        SpeculationPolicy {
            confirm_budget: Duration::from_secs(60),
            ..SpeculationPolicy::default()
        },
    );
    let impatient = Speculator::new(
        ap.clone(),
        SpeculationPolicy {
            confirm_budget: Duration::from_secs(20),
            ..SpeculationPolicy::default()
        },
    );

    // The reader-side S3 replica crashes t=100s..160s — squarely on top of
    // the second request's confirmation window.
    sim.faults().schedule(
        SimTime::from_secs(100),
        SimTime::from_secs(160),
        FaultKind::ReplicaCrash {
            store: "post-storage-s3".into(),
            region: US,
        },
    );
    println!("[plan]      US replica of post-storage-s3 crashes t=100s..160s");

    let sim2 = sim.clone();
    sim.block_on(async move {
        let sim = sim2;

        // ---- Request 1: speculate → confirm → commit. ----
        let mut lineage = Lineage::new(LineageId(1));
        post_shim
            .write(EU, "post-1", Bytes::from_static(b"hello"), &mut lineage)
            .await
            .expect("EU healthy");
        println!("[writer]    t={} post-1 written in the EU", sim.now());
        let snapshot = lineage.clone();
        let t0 = sim.now();
        let out = {
            let feed_shim = feed_shim.clone();
            let checker = checker.clone();
            let sim3 = sim.clone();
            patient
                .run(&mut lineage, US, move |attempt| {
                    let feed_shim = feed_shim.clone();
                    let checker = checker.clone();
                    let lineage = snapshot.clone();
                    let sim = sim3.clone();
                    async move {
                        // Unmet dependencies here are *speculative*, not
                        // observed — the write below stays confined.
                        checker.checkpoint_speculative("reader:feed", &lineage, US);
                        println!(
                            "[handler]   t={} post-1 attempt {attempt}: rendered, feed write confined",
                            sim.now()
                        );
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed_shim, US, "feed-post-1", Bytes::from_static(b"1"));
                        ((), buf)
                    }
                })
                .await
                .expect("stores registered")
        };
        match &out {
            SpecOutcome::Confirmed { committed, .. } => println!(
                "[speculate] t={} post-1 frontier confirmed: {} confined write(s) committed \
                 ({:.1}s after the 0.5s-budget handler ran)",
                sim.now(),
                committed.len(),
                sim.now().since(t0).as_secs_f64()
            ),
            other => panic!("S3's 15s-median tail must out-wait the budget, got {other:?}"),
        }

        // ---- Request 2: speculate → violate → rollback → redeliver. ----
        sim.sleep_until(SimTime::from_secs(101)).await;
        let mut lineage = Lineage::new(LineageId(2));
        post_shim
            .write(EU, "post-2", Bytes::from_static(b"again"), &mut lineage)
            .await
            .expect("EU healthy");
        println!(
            "[writer]    t={} post-2 written in the EU (US replica down)",
            sim.now()
        );
        let snapshot = lineage.clone();
        let out = {
            let feed_shim = feed_shim.clone();
            let checker = checker.clone();
            let sim3 = sim.clone();
            let snapshot = snapshot.clone();
            impatient
                .run(&mut lineage, US, move |attempt| {
                    let feed_shim = feed_shim.clone();
                    let checker = checker.clone();
                    let lineage = snapshot.clone();
                    let sim = sim3.clone();
                    async move {
                        checker.checkpoint_speculative("reader:feed", &lineage, US);
                        let phase = if attempt == 0 {
                            "feed write confined"
                        } else {
                            "redelivery, deps landed"
                        };
                        println!("[handler]   t={} post-2 attempt {attempt}: {phase}", sim.now());
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed_shim, US, "feed-post-2", Bytes::from_static(b"2"));
                        ((), buf)
                    }
                })
                .await
                .expect("crash heals before the barrier retry policy gives up")
        };
        match &out {
            SpecOutcome::RolledBack {
                committed,
                discarded,
                ..
            } => println!(
                "[speculate] t={} post-2 violated: {} confined write(s) discarded (never visible), \
                 handler redelivered behind a blocking barrier, {} write(s) committed",
                sim.now(),
                discarded,
                committed.len()
            ),
            other => panic!("60s crash vs 20s confirmation budget must violate, got {other:?}"),
        }
        assert!(
            sim.now() >= SimTime::from_secs(160),
            "redelivery had to wait out the crash"
        );

        // ---- The relaxed invariant held. ----
        for key in ["feed-post-1", "feed-post-2"] {
            assert!(feed_shim.store().get_sync(US, key).is_some(), "{key} committed");
        }
        // The single-region feed store's WAL counts every put that ever hit
        // it: exactly one per request — the discarded attempt never landed.
        assert_eq!(
            feed_shim.store().wal_len(US),
            2,
            "the discarded confined write must not leak"
        );
        let dry = checker.checkpoint("reader:post-commit", &snapshot, US);
        assert!(dry.is_satisfied(), "post-commit dependencies are visible");
        assert_eq!(checker.observed_violations(), 0);
        let (p, i) = (patient.stats(), impatient.stats());
        println!(
            "[checker]   t={} observed XCY violations: {} ({} speculative evaluations ran ahead)",
            sim.now(),
            checker.observed_violations(),
            p.speculated + i.speculated
        );
        println!(
            "[stats]     patient: {} speculated / {} confirmed; impatient: {} violated / {} redelivered / {} write(s) rolled back",
            p.speculated, p.confirmed, i.violated, i.redelivered, i.rolled_back_writes
        );
    });
    sim.run();
}
