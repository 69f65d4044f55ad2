//! Failure-injection tests: replication message drops, paused replicas,
//! congestion episodes, and how Antipode behaves under them. A barrier must
//! never return early — it either waits out the fault or times out with an
//! accurate report.

use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, BarrierOutcome};
use antipode_lineage::{Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{Network, Sim};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use antipode_store::QueueStore;
use bytes::Bytes;

fn fast_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

fn setup() -> (Sim, KvStore, KvShim, Antipode) {
    let sim = Sim::new(0xFA17);
    let net = Rc::new(Network::global_triangle());
    let store = KvStore::new(&sim, net, "db", &[EU, US], fast_profile());
    let shim = KvShim::new(store.clone());
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(shim.clone()));
    (sim, store, shim, ap)
}

#[test]
fn barrier_rides_out_dropped_replication() {
    let (sim, store, shim, ap) = setup();
    // Almost everything dropped, retried.
    sim.faults().set_replication_drop(store.name(), 0.95);
    let blocked = sim.clone().block_on(async move {
        let mut l = Lineage::new(LineageId(1));
        shim.write(EU, "k", Bytes::from_static(b"v"), &mut l)
            .await
            .unwrap();
        let report = ap.barrier(&l, US).await.unwrap();
        report.blocked
    });
    // Retries every 200ms: the wait is long but finite, and correct.
    assert!(blocked >= Duration::from_millis(100), "blocked {blocked:?}");
    assert!(store.get_sync(US, "k").is_some());
}

#[test]
fn barrier_waits_through_a_paused_replica_until_resume() {
    let (sim, store, shim, ap) = setup();
    sim.faults().stall_replication(store.name(), US);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(Duration::from_secs(30)).await;
        sim2.faults().unstall_replication("db", US);
    });
    let blocked = sim.clone().block_on(async move {
        let mut l = Lineage::new(LineageId(1));
        shim.write(EU, "k", Bytes::from_static(b"v"), &mut l)
            .await
            .unwrap();
        ap.barrier(&l, US).await.unwrap().blocked
    });
    assert!(
        blocked >= Duration::from_secs(29),
        "stall must be waited out: {blocked:?}"
    );
}

#[test]
fn barrier_timeout_during_stall_reports_unmet_then_recovers() {
    let (sim, store, shim, ap) = setup();
    sim.faults().stall_replication(store.name(), US);
    let shim2 = shim.clone();
    let ap2 = ap.clone();
    let lineage = sim.clone().block_on(async move {
        let mut l = Lineage::new(LineageId(1));
        shim2
            .write(EU, "k", Bytes::from_static(b"v"), &mut l)
            .await
            .unwrap();
        match ap2
            .barrier_budget(&l, US, Duration::from_secs(5))
            .await
            .unwrap()
        {
            BarrierOutcome::Degraded(d) => assert_eq!(d.unmet.len(), 1),
            other => panic!("expected to degrade, got {other:?}"),
        }
        l
    });
    // After the fault clears, the same barrier succeeds.
    sim.faults().unstall_replication(store.name(), US);
    sim.clone().block_on(async move {
        ap.barrier(&lineage, US).await.unwrap();
    });
}

#[test]
fn congestion_episode_delays_but_never_corrupts() {
    let (sim, store, shim, ap) = setup();
    store.set_extra_replication_lag(Some(Dist::Constant(10.0)));
    let sim2 = sim.clone();
    let (blocked, value_ok) = sim.clone().block_on(async move {
        let mut l = Lineage::new(LineageId(1));
        shim.write(EU, "k", Bytes::from_static(b"congested"), &mut l)
            .await
            .unwrap();
        let report = ap.barrier(&l, US).await.unwrap();
        let (data, _) = shim
            .read(US, "k")
            .await
            .unwrap()
            .expect("visible after barrier");
        let _ = sim2.now();
        (report.blocked, data == Bytes::from_static(b"congested"))
    });
    assert!(blocked >= Duration::from_secs(10));
    assert!(value_ok);
}

#[test]
fn queue_pause_stalls_consumers_but_not_publishers() {
    let sim = Sim::new(0xFA18);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
    sim.faults().pause_queue_delivery(q.name(), US);
    let q2 = q.clone();
    // Publisher proceeds immediately (asynchronous delivery).
    let id = sim
        .clone()
        .block_on(async move { q2.publish(EU, Bytes::new()).await.unwrap() });
    sim.run_for(Duration::from_secs(10));
    assert!(!q.is_visible(US, id), "paused delivery must not land");
    assert!(q.is_visible(EU, id), "local delivery unaffected");
    sim.faults().resume_queue_delivery(q.name(), US);
    sim.run_for(Duration::from_secs(5));
    assert!(q.is_visible(US, id));
}

#[test]
fn broker_outage_mid_fanout_stalls_delivery_until_heal() {
    use antipode_sim::{FaultKind, SimTime};
    let sim = Sim::new(0xFA19);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
    // The broker goes down just after the publish commits and stays down
    // for 20 virtual seconds: the fan-out is caught mid-flight.
    sim.faults().schedule(
        SimTime::from_millis(1),
        SimTime::from_secs(20),
        FaultKind::QueueOutage { broker: "q".into() },
    );
    let q2 = q.clone();
    let id = sim
        .clone()
        .block_on(async move { q2.publish(EU, Bytes::from_static(b"m")).await.unwrap() });
    sim.run_for(Duration::from_secs(10));
    assert!(
        !q.is_visible(US, id) && !q.is_visible(EU, id),
        "no delivery lands during the outage"
    );
    sim.run_for(Duration::from_secs(15));
    assert!(q.is_visible(EU, id), "local delivery after heal");
    assert!(q.is_visible(US, id), "remote delivery after heal");
}

#[test]
fn dropped_deliveries_are_redelivered() {
    let sim = Sim::new(0xFA20);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
    sim.faults().set_delivery_drop(q.name(), 0.8);
    q.set_redelivery_interval(Dist::constant_ms(50.0));
    let q2 = q.clone();
    sim.clone().block_on(async move {
        let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
        // At-least-once: despite an 80% per-attempt drop rate, redelivery
        // retries until every region has the message.
        q2.wait_visible(US, id).await.unwrap();
        q2.wait_visible(EU, id).await.unwrap();
        assert!(q2.is_visible(US, id));
    });
}

#[test]
fn consumer_crash_redelivers_to_group_and_ack_wait_resolves() {
    let sim = Sim::new(0xFA21);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
    q.set_visibility_timeout(Some(Duration::from_secs(2)));
    let q2 = q.clone();
    let sim2 = sim.clone();
    sim.clone().block_on(async move {
        let sim = sim2;
        // The group must exist before delivery for the message to queue up.
        let crashed = q2.join_group(US, "workers").unwrap();
        let id = q2.publish(EU, Bytes::from_static(b"job")).await.unwrap();
        q2.wait_visible(US, id).await.unwrap();
        // Consumer 1 takes the message and crashes before acking.
        let taken = crashed.take().await;
        assert_eq!(taken.id, id);
        drop(crashed); // never acks
                       // Consumer 2 joins the same group; the visibility timeout fires and
                       // the unacked message is redelivered to it.
        let survivor = q2.join_group(US, "workers").unwrap();
        let redelivered = survivor.take().await;
        assert_eq!(redelivered.id, id, "unacked message is redelivered");
        assert!(
            sim.now().since(antipode_sim::SimTime::ZERO) >= Duration::from_secs(2),
            "redelivery waits out the visibility timeout"
        );
        survivor.ack(&redelivered).unwrap();
        // Processed-semantics waiters unblock only now.
        q2.wait_acked(US, id).await.unwrap();
    });
}

#[test]
fn supersession_satisfies_waits_during_faults() {
    // Version 1's replication is lost forever? No — but even if v1 arrives
    // after v2, waiting on v1 is satisfied by v2 (§5.2 "superseded").
    let (sim, store, shim, ap) = setup();
    let (v1_lineage, _) = sim.clone().block_on({
        let shim = shim.clone();
        async move {
            let mut l1 = Lineage::new(LineageId(1));
            shim.write(EU, "k", Bytes::from_static(b"one"), &mut l1)
                .await
                .unwrap();
            let mut l2 = Lineage::new(LineageId(2));
            shim.write(EU, "k", Bytes::from_static(b"two"), &mut l2)
                .await
                .unwrap();
            (l1, l2)
        }
    });
    sim.clone().block_on(async move {
        ap.barrier(&v1_lineage, US).await.unwrap();
    });
    let got = store.get_sync(US, "k").unwrap();
    assert!(
        got.version >= 1,
        "waiting on v1 is satisfied by v1 or any newer version"
    );
    let env = antipode_store::Envelope::decode(&got.bytes).unwrap();
    assert!(
        env.data == Bytes::from_static(b"one") || env.data == Bytes::from_static(b"two"),
        "the visible value is one of the two writes"
    );
}
