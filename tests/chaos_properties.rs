//! Chaos properties: randomized deterministic fault schedules must never
//! produce an XCY violation on a barrier-gated read, bounded barriers must
//! report exactly the dependencies a fault is holding back, and the same
//! seed plus the same [`antipode_sim::FaultPlan`] must reproduce the run
//! byte for byte.

use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker};
use antipode_lineage::{Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::queue::{QueueProfile, QueueStore};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use bytes::Bytes;
use proptest::prelude::*;

const STORES: [&str; 3] = ["db-a", "db-b", "db-c"];

fn fast_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

/// Parameters of one randomized chaos scenario. Everything that can vary is
/// in here, so a scenario is replayable from its parameters alone.
#[derive(Clone, Debug)]
struct ChaosParams {
    seed: u64,
    /// `(start_ms, len_ms)` of a US region outage.
    outage: (u64, u64),
    /// `(start_ms, len_ms)` of a US↔EU partition.
    partition: (u64, u64),
    /// Per-store replication drop probability (active for the first 5 s).
    drops: (f64, f64, f64),
    /// Per-store replication stall into US, `[0, len_ms)`.
    stalls: (u64, u64, u64),
}

/// Runs the scenario: three stores, a writer in EU touching each store under
/// one lineage, then a barrier-gated reader in US. Returns the recorded
/// event trace and the number of XCY violations the checker observed after
/// the barrier (which must always be zero).
fn run_chaos(p: &ChaosParams) -> (Vec<(String, u64)>, usize) {
    let sim = Sim::new(p.seed);
    let net = Rc::new(Network::global_triangle());
    let faults = sim.faults();
    faults.schedule(
        SimTime::from_millis(p.outage.0),
        SimTime::from_millis(p.outage.0 + p.outage.1),
        FaultKind::RegionOutage { region: US },
    );
    faults.schedule(
        SimTime::from_millis(p.partition.0),
        SimTime::from_millis(p.partition.0 + p.partition.1),
        FaultKind::Partition { a: EU, b: US },
    );
    let drops = [p.drops.0, p.drops.1, p.drops.2];
    let stalls = [p.stalls.0, p.stalls.1, p.stalls.2];
    let mut shims = Vec::new();
    let mut ap = Antipode::new(sim.clone());
    for (i, name) in STORES.iter().enumerate() {
        let store = KvStore::new(&sim, net.clone(), *name, &[EU, US], fast_profile());
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_secs(5),
            FaultKind::ReplicationDrop {
                store: name.to_string(),
                probability: drops[i],
            },
        );
        faults.schedule(
            SimTime::ZERO,
            SimTime::from_millis(stalls[i]),
            FaultKind::ReplicationStall {
                store: name.to_string(),
                region: US,
            },
        );
        let shim = KvShim::new(store);
        ap.register(Rc::new(shim.clone()));
        shims.push(shim);
    }
    let checker = ConsistencyChecker::new(ap.clone());
    let sim2 = sim.clone();
    sim.block_on(async move {
        let sim = sim2;
        let mut trace: Vec<(String, u64)> = Vec::new();
        let mut lineage = Lineage::new(LineageId(1));
        for (i, shim) in shims.iter().enumerate() {
            shim.write(EU, "k", Bytes::from_static(b"v"), &mut lineage)
                .await
                .expect("EU is configured and never down in this scenario");
            trace.push((format!("write:{}", STORES[i]), sim.now().as_nanos()));
        }
        let report = ap
            .barrier(&lineage, US)
            .await
            .expect("transient outages are retried, not surfaced");
        trace.push(("barrier".into(), sim.now().as_nanos()));
        for w in &report.waits {
            trace.push((
                format!("wait:{}:retries={}", w.datastore, w.retries),
                w.blocked.as_nanos() as u64,
            ));
        }
        // The checker re-evaluates the same lineage at the read location:
        // after a barrier, nothing may be unmet.
        let dry = checker.checkpoint("reader:post-barrier", &lineage, US);
        let mut violations = dry.unmet.len();
        // Reads are gated only on the region being up (a down region is an
        // availability fault, not a consistency one) — every dependency the
        // barrier enforced must then be readable.
        let gate = faults.clone();
        faults
            .until_clear(&sim, move |at| gate.region_down(at, US))
            .await;
        for (i, shim) in shims.iter().enumerate() {
            let found = shim
                .read(US, "k")
                .await
                .expect("US is up past the gate")
                .is_some();
            if !found {
                violations += 1;
            }
            trace.push((format!("read:{}:{found}", STORES[i]), sim.now().as_nanos()));
        }
        (trace, violations)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole property: whatever bounded chaos the plan throws at the
    /// stack — a US outage, a US↔EU partition, replication drops and stalls
    /// on three independent stores — a barrier-gated read never observes an
    /// XCY violation, and the passive checker agrees.
    #[test]
    fn randomized_fault_plans_never_violate_barrier_gated_reads(
        seed in any::<u64>(),
        outage in (0u64..4000, 500u64..8000),
        partition in (0u64..4000, 500u64..8000),
        drops in (0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.9),
        stalls in (0u64..6000, 0u64..6000, 0u64..6000),
    ) {
        let p = ChaosParams { seed, outage, partition, drops, stalls };
        let (_trace, violations) = run_chaos(&p);
        prop_assert_eq!(violations, 0, "chaos scenario {:?} violated XCY", p);
    }

    /// A bounded barrier under a *permanent* fault reports exactly the
    /// dependencies the fault holds back — no more, no less.
    #[test]
    fn bounded_barrier_reports_exactly_the_stalled_store(
        seed in any::<u64>(),
        timeout_ms in 500u64..3000,
    ) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let stalled = KvStore::new(&sim, net.clone(), "db-a", &[EU, US], fast_profile());
        let healthy = KvStore::new(&sim, net, "db-b", &[EU, US], fast_profile());
        // Permanent imperative stall on db-a only.
        sim.faults().stall_replication("db-a", US);
        let a = KvShim::new(stalled);
        let b = KvShim::new(healthy);
        let mut ap = Antipode::new(sim.clone());
        ap.register(Rc::new(a.clone()));
        ap.register(Rc::new(b.clone()));
        let unmet = sim.clone().block_on(async move {
            let mut l = Lineage::new(LineageId(1));
            a.write(EU, "k", Bytes::from_static(b"v"), &mut l).await.unwrap();
            b.write(EU, "k", Bytes::from_static(b"v"), &mut l).await.unwrap();
            match ap
                .barrier_budget(&l, US, Duration::from_millis(timeout_ms))
                .await
            {
                Ok(antipode::BarrierOutcome::Degraded(d)) => d.unmet,
                other => panic!("expected to degrade under a permanent stall, got {other:?}"),
            }
        });
        prop_assert_eq!(unmet.len(), 1, "only db-a is held back");
        prop_assert_eq!(&*unmet[0].datastore(), "db-a");
    }

    /// Determinism: the same seed and the same fault plan reproduce the
    /// exact same event trace and experiment outcome.
    #[test]
    fn same_seed_and_plan_reproduce_the_run_exactly(
        seed in any::<u64>(),
        outage in (0u64..4000, 500u64..8000),
        partition in (0u64..4000, 500u64..8000),
        drops in (0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.9),
        stalls in (0u64..6000, 0u64..6000, 0u64..6000),
    ) {
        let p = ChaosParams { seed, outage, partition, drops, stalls };
        let (trace1, v1) = run_chaos(&p);
        let (trace2, v2) = run_chaos(&p);
        prop_assert_eq!(trace1, trace2, "same seed + plan must replay identically");
        prop_assert_eq!(v1, v2);
    }
}

/// A broker crash-restart must not duplicate-deliver a message whose ack
/// raced the outage. The visibility timer fires *inside* the outage window
/// (take ≈ 0s + 4s timeout, outage [3s, 8s)); the consumer's ack lands at
/// 5s, also inside the window. The restarted broker must read the current
/// ack state before deciding to redeliver — deciding mid-crash would requeue
/// a message the group already processed.
#[test]
fn broker_restart_does_not_duplicate_acked_messages() {
    let sim = Sim::new(42);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(
        &sim,
        net,
        "amq",
        &[EU, US],
        QueueProfile {
            local_publish: Dist::constant_ms(1.0),
            delivery: Dist::constant_ms(80.0),
            local_delivery: Dist::constant_ms(2.0),
            rtt_hops: 1.0,
        },
    );
    q.set_visibility_timeout(Some(Duration::from_secs(4)));
    sim.faults().schedule(
        SimTime::from_secs(3),
        SimTime::from_secs(8),
        FaultKind::QueueOutage {
            broker: "amq".into(),
        },
    );
    let consumer = q.join_group(EU, "workers").unwrap();
    let q2 = q.clone();
    let sim2 = sim.clone();
    let taken: Rc<std::cell::RefCell<Vec<u64>>> = Rc::new(std::cell::RefCell::new(Vec::new()));
    let slot = taken.clone();
    let c2 = consumer.clone();
    sim.spawn(async move {
        let id = q2.publish(EU, Bytes::from_static(b"job")).await.unwrap();
        // Take immediately (arms the 4s visibility timer), process slowly,
        // ack at t = 5s — one second after the timer fired mid-outage.
        let m = c2.take().await;
        assert_eq!(m.id, id);
        slot.borrow_mut().push(m.id);
        sim2.sleep_until(SimTime::from_secs(5)).await;
        c2.ack(&m).unwrap();
    });
    sim.run();
    assert!(
        sim.now() >= SimTime::from_secs(8),
        "the deferred redelivery decision waits for the broker restart"
    );
    assert_eq!(taken.borrow().len(), 1, "message processed exactly once");
    assert!(
        consumer.try_take().is_none(),
        "restarted broker must not redeliver the acked message"
    );
}
