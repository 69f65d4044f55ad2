//! Failure injection: what happens to Antipode when replication misbehaves.
//!
//! Two scenarios:
//!
//! 1. A replication stall hits the US replica of the post store just before
//!    a post is written. Without Antipode, every read during the stall is a
//!    violation. With Antipode, barriers simply wait the fault out (or time
//!    out with an actionable report), and no inconsistent read ever happens.
//! 2. A scheduled US↔EU network partition, declared up front on the
//!    simulation's [`FaultPlan`](antipode_sim::FaultPlan): the partition
//!    severs replication for a fixed window and heals on schedule, and the
//!    barrier-gated reader rides it out.
//!
//! Run with `cargo run --release --example failure_injection`.

use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, BarrierOutcome, DegradedBarrier, Lineage, LineageId};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::shim::KvShim;
use antipode_store::MySql;
use bytes::Bytes;

fn main() {
    replication_stall();
    println!();
    scheduled_partition();
}

fn replication_stall() {
    println!("=== scenario 1: US replica stall, imperative fault toggles ===");
    let sim = Sim::new(3);
    let net = Rc::new(Network::global_triangle());
    let posts = MySql::new(&sim, net, "post-storage", &[EU, US]);
    let shim = KvShim::new(posts.store().clone());
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(shim.clone()));

    // Fault: the US replica stalls for 90 seconds, starting at t=1s.
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(Duration::from_secs(1)).await;
        println!(
            "[fault]    t={} US replica stalls (e.g. network partition)",
            sim2.now()
        );
        sim2.faults().stall_replication("post-storage", US);
        sim2.sleep(Duration::from_secs(90)).await;
        sim2.faults().unstall_replication("post-storage", US);
        println!("[fault]    t={} US replica recovers", sim2.now());
    });

    let sim3 = sim.clone();
    sim.block_on(async move {
        // A write lands just as the stall begins.
        sim3.sleep(Duration::from_secs(4)).await;
        let mut lineage = Lineage::new(LineageId(1));
        shim.write(EU, "post-1", Bytes::from_static(b"body"), &mut lineage)
            .await
            .expect("EU configured");
        println!("[writer]   t={} post written in the EU", sim3.now());
        sim3.sleep(Duration::from_secs(2)).await;

        // A naive reader in the US would now read 'not found':
        let naive = shim.read(US, "post-1").await.expect("US configured");
        println!(
            "[baseline] t={} naive US read: {}",
            sim3.now(),
            if naive.is_some() {
                "found"
            } else {
                "POST NOT FOUND (violation)"
            }
        );

        // An Antipode reader first tries a bounded barrier…
        match ap
            .barrier_budget(&lineage, US, Duration::from_secs(10))
            .await
        {
            Ok(BarrierOutcome::Degraded(DegradedBarrier { unmet, .. })) => {
                println!(
                    "[antipode] t={} barrier timed out; {} dependency still unmet: {}",
                    sim3.now(),
                    unmet.len(),
                    unmet[0]
                );
                println!("[antipode] falling back to an unbounded barrier (ride out the fault)…");
            }
            Ok(_) => println!("[antipode] barrier passed within 10s"),
            Err(e) => panic!("unexpected error: {e}"),
        }
        let report = ap.barrier(&lineage, US).await.expect("registered");
        println!(
            "[antipode] t={} barrier returned after blocking {:.1}s",
            sim3.now(),
            report.blocked.as_secs_f64()
        );
        let got = shim.read(US, "post-1").await.expect("US configured");
        assert!(got.is_some());
        println!(
            "[antipode] t={} read after barrier: found — no violation, ever",
            sim3.now()
        );
    });
}

/// Scenario 2: the whole fault is declared up front as a window on the
/// simulation's fault plan — a US↔EU partition from t=2s to t=60s. Every
/// layer (replication streams, RPC hops, queue deliveries) consults the same
/// plan, so nothing crosses the partition until it heals, deterministically.
fn scheduled_partition() {
    println!("=== scenario 2: scheduled US↔EU partition on the fault plan ===");
    let sim = Sim::new(4);
    let net = Rc::new(Network::global_triangle());
    let posts = MySql::new(&sim, net, "post-storage", &[EU, US]);
    let shim = KvShim::new(posts.store().clone());
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(shim.clone()));

    sim.faults().schedule(
        SimTime::from_secs(2),
        SimTime::from_secs(60),
        FaultKind::Partition { a: US, b: EU },
    );
    println!("[plan]     US↔EU partition scheduled for t=2s..60s");

    let sim2 = sim.clone();
    sim.block_on(async move {
        // The write lands just after the partition begins: its replication
        // to the US is caught behind the partition.
        sim2.sleep(Duration::from_secs(3)).await;
        let mut lineage = Lineage::new(LineageId(2));
        shim.write(EU, "post-2", Bytes::from_static(b"body"), &mut lineage)
            .await
            .expect("EU configured");
        println!(
            "[writer]   t={} post written in the EU (partition active)",
            sim2.now()
        );

        let naive = shim.read(US, "post-2").await.expect("US configured");
        println!(
            "[baseline] t={} naive US read: {}",
            sim2.now(),
            if naive.is_some() {
                "found"
            } else {
                "POST NOT FOUND (violation)"
            }
        );

        // The barrier-gated reader blocks until the partition heals at
        // t=60s and replication catches up.
        let report = ap.barrier(&lineage, US).await.expect("registered");
        println!(
            "[antipode] t={} barrier returned after blocking {:.1}s (store wait: {:?})",
            sim2.now(),
            report.blocked.as_secs_f64(),
            report
                .waits
                .iter()
                .map(|w| format!("{}: {:.1}s", w.datastore, w.blocked.as_secs_f64()))
                .collect::<Vec<_>>(),
        );
        assert!(sim2.now() >= SimTime::from_secs(60), "partition waited out");
        let got = shim.read(US, "post-2").await.expect("US configured");
        assert!(got.is_some());
        println!(
            "[antipode] t={} read after barrier: found — the partition was ridden out",
            sim2.now()
        );
    });
}
