//! The waiter wake-order contract (DESIGN.md §14): an apply wakes the
//! waiters of its own key in subscription order, an ack the waiters of its
//! own message id likewise, and every bulk cancellation — outage entry,
//! replica crash, quarantine — wakes in *global* subscription order,
//! whatever keys the waiters parked on. Wake order is the order the woken
//! tasks reach the executor's ready queue, so it is part of
//! `seed + plan ⇒ identical trace`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{DiskFaultKind, FaultKind, Network, Sim, SimTime};
use antipode_store::replica::{KvProfile, KvStore, StoreError};
use antipode_store::QueueStore;
use bytes::Bytes;

fn profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

fn setup(seed: u64) -> (Sim, KvStore) {
    let sim = Sim::new(seed);
    let net = Rc::new(Network::global_triangle());
    let store = KvStore::new(&sim, net, "db", &[EU, US], profile());
    (sim, store)
}

/// `(waiter index, how its wait resolved)`, in the order the waiters ran.
type WakeLog = Rc<RefCell<Vec<(usize, Result<(), StoreError>)>>>;

/// Parks one waiter per `(key, version)` at US, subscribing in slice order
/// (tasks spawned at one instant run in spawn order).
fn park(sim: &Sim, store: &KvStore, subs: &[(&str, u64)]) -> WakeLog {
    let log: WakeLog = Rc::default();
    for (i, &(key, version)) in subs.iter().enumerate() {
        let store = store.clone();
        let log = log.clone();
        let key = key.to_string();
        sim.spawn_detached(async move {
            let outcome = store.wait_visible(US, &key, version).await;
            log.borrow_mut().push((i, outcome));
        });
    }
    log
}

fn woken(log: &WakeLog) -> Vec<usize> {
    log.borrow().iter().map(|(i, _)| *i).collect()
}

#[test]
fn same_key_waiters_wake_in_subscription_order() {
    let (sim, store) = setup(1);
    // Four waiters on `k` with a bystander between them: a swap-remove scan
    // would wake 0, 4, 3, 2.
    let log = park(
        &sim,
        &store,
        &[("k", 1), ("other", 1), ("k", 1), ("k", 1), ("k", 1)],
    );
    let s = store.clone();
    sim.spawn_detached(async move {
        s.put(EU, "k", Bytes::from_static(b"v")).await.unwrap();
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(woken(&log), vec![0, 2, 3, 4]);
    assert!(log.borrow().iter().all(|(_, outcome)| outcome.is_ok()));
    assert_eq!(store.waiter_count(US), 1, "the bystander stays parked");
}

#[test]
fn same_id_ack_waiters_wake_in_subscription_order() {
    let sim = Sim::new(5);
    let net = Rc::new(Network::global_triangle());
    let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
    // Three waiters on message 1 with a bystander between them: a
    // swap-remove scan would wake 0, 3, 2.
    let log: Rc<RefCell<Vec<usize>>> = Rc::default();
    for (i, id) in [1, 2, 1, 1].into_iter().enumerate() {
        let q = q.clone();
        let log = log.clone();
        sim.spawn_detached(async move {
            q.wait_acked(US, id).await.unwrap();
            log.borrow_mut().push(i);
        });
    }
    sim.run_until(SimTime::from_secs(1));
    assert!(log.borrow().is_empty(), "nothing is acked yet");
    q.ack(US, 1).unwrap();
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(*log.borrow(), vec![0, 2, 3]);
}

/// Subscription order that disagrees with key order, two waiters sharing a
/// key: a drain in index (key) order would wake 1, 3, 2, 0.
const SCATTERED: [(&str, u64); 4] = [("z", 1), ("a", 1), ("m", 1), ("a", 2)];

fn assert_cancelled_in_subscription_order(
    log: &WakeLog,
    is_expected: fn(&StoreError) -> bool,
    edge: &str,
) {
    assert_eq!(woken(log), vec![0, 1, 2, 3], "{edge}");
    for (i, outcome) in log.borrow().iter() {
        assert!(
            matches!(outcome, Err(e) if is_expected(e)),
            "{edge}: waiter {i} resolved {outcome:?}"
        );
    }
}

#[test]
fn outage_entry_cancels_in_global_subscription_order() {
    let (sim, store) = setup(2);
    sim.faults().schedule(
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        FaultKind::RegionOutage { region: US },
    );
    let log = park(&sim, &store, &SCATTERED);
    sim.run_until(SimTime::from_millis(1500));
    assert_cancelled_in_subscription_order(
        &log,
        |e| matches!(e, StoreError::Unavailable { .. }),
        "outage entry",
    );
    assert_eq!(store.waiter_count(US), 0);
}

#[test]
fn crash_cancels_in_global_subscription_order() {
    let (sim, store) = setup(3);
    sim.faults().schedule(
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        FaultKind::ReplicaCrash {
            store: "db".into(),
            region: US,
        },
    );
    let log = park(&sim, &store, &SCATTERED);
    sim.run_until(SimTime::from_millis(1500));
    assert_cancelled_in_subscription_order(
        &log,
        |e| matches!(e, StoreError::Unavailable { .. }),
        "replica crash",
    );
}

#[test]
fn quarantine_cancels_in_global_subscription_order() {
    let (sim, store) = setup(4);
    // Give the US log some frames to rot, then flip a bit in one of them.
    let s = store.clone();
    let sim2 = sim.clone();
    sim.block_on(async move {
        for i in 0..8 {
            let key = format!("seed-{i}");
            let v = s
                .put(EU, &key, Bytes::from_static(b"payload"))
                .await
                .unwrap();
            s.wait_visible(US, &key, v).await.unwrap();
        }
        sim2.sleep(Duration::from_millis(10)).await;
    });
    let now = sim.now();
    sim.faults().schedule(
        now + Duration::from_millis(10),
        now + Duration::from_millis(20),
        FaultKind::DiskFault {
            store: "db".into(),
            region: US,
            fault: DiskFaultKind::BitFlip { offset_seed: 3 },
        },
    );
    let log = park(&sim, &store, &SCATTERED);
    sim.run_until(now + Duration::from_millis(30));
    assert!(woken(&log).is_empty(), "latent rot wakes nobody");
    let report = store.scrub_sweep();
    assert_eq!(report.quarantined, 1, "the flip must land mid-log");
    sim.run_until(now + Duration::from_millis(40));
    assert_cancelled_in_subscription_order(
        &log,
        |e| matches!(e, StoreError::IntegrityFault { .. }),
        "quarantine",
    );
}
