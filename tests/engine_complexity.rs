//! Engine work per event is independent of how much is in flight or stored,
//! asserted by *count*, not wall-clock: `antipode_store::stats` counts the
//! pair-queue entries a flusher wake inspects, the parked waiters an apply
//! compares and the index slots a table lookup probes. The counters are
//! deterministic, so every scenario runs twice and must report identical
//! numbers.

use std::rc::Rc;
use std::time::Duration;

use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{Network, Sim, SimTime};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::{stats, EngineStats};
use bytes::Bytes;

/// Constant commit latency, so concurrent writers commit (and their sends
/// fall due) at shared instants; a replication lag far longer than the
/// write phase, so everything written is in flight at once.
fn slow_replication() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::Constant(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    }
}

fn setup() -> (Sim, KvStore) {
    let sim = Sim::new(11);
    // Constant link delays: the triangle's jitter would give every send its
    // own due instant, and a wake then never finds more than one entry due.
    let net = Rc::new(Network::new(
        Dist::Constant(0.000_25),
        Dist::Constant(0.080),
    ));
    let store = KvStore::new(&sim, net, "db", &[EU, US], slow_replication());
    (sim, store)
}

const WRITERS: usize = 64;
const ROUNDS: usize = 128;
const DEPTH: usize = WRITERS * ROUNDS;
const _: () = assert!(DEPTH >= 8192);

/// Fills the EU→US pair queue to `DEPTH`, then drains it one executor step
/// at a time, checking every flusher wake against its own due entries.
fn drain_deep_pair_queue() -> EngineStats {
    let (sim, store) = setup();
    for w in 0..WRITERS {
        let store = store.clone();
        sim.spawn_detached(async move {
            let key = format!("k-{w}");
            for _ in 0..ROUNDS {
                store
                    .put(EU, &key, Bytes::from_static(b"v"))
                    .await
                    .expect("EU is configured");
            }
        });
    }
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(store.pending_sends(), DEPTH, "every send still in flight");

    stats::reset();
    let mut before = stats::snapshot();
    let mut wakes = 0;
    while sim.step() {
        let after = stats::snapshot();
        let wake = after.fanout_events - before.fanout_events;
        assert!(wake <= 1, "one executor step runs at most one flusher wake");
        if wake == 1 {
            wakes += 1;
            let due = after.send_entries - before.send_entries;
            let visited = after.pair_entries_visited - before.pair_entries_visited;
            assert!(
                visited <= due + 1,
                "a wake with {due} due entries visited {visited} at depth {}",
                store.pending_sends() as u64 + due,
            );
        }
        before = after;
    }
    assert_eq!(store.pending_sends(), 0);
    assert_eq!(before.send_entries, DEPTH as u64);
    assert!(
        wakes < DEPTH && before.max_batch == WRITERS as u64,
        "same-instant sends must coalesce ({wakes} wakes, max batch {})",
        before.max_batch
    );
    before
}

#[test]
fn a_wake_visits_only_its_due_entries_at_depth_8192() {
    let first = drain_deep_pair_queue();
    assert!(first.pair_entries_visited <= first.send_entries + first.fanout_events);
    assert_eq!(first, drain_deep_pair_queue(), "counts must repeat exactly");
}

const BYSTANDERS: usize = 4096;
const HOT_WAITERS: u64 = 3;

/// Parks `BYSTANDERS` waiters on keys nobody writes plus `HOT_WAITERS` on
/// `hot`, then replicates `hot` and some unwatched keys into US.
fn apply_past_parked_waiters() -> EngineStats {
    let (sim, store) = setup();
    for i in 0..BYSTANDERS {
        let store = store.clone();
        sim.spawn_detached(async move {
            let _ = store.wait_visible(US, &format!("cold-{i}"), 1).await;
        });
    }
    for _ in 0..HOT_WAITERS {
        let store = store.clone();
        sim.spawn_detached(async move {
            store
                .wait_visible(US, "hot", 1)
                .await
                .expect("no fault is scheduled");
        });
    }
    sim.run_until(SimTime::from_millis(1));
    assert_eq!(store.waiter_count(US), BYSTANDERS + HOT_WAITERS as usize);

    stats::reset();
    let s = store.clone();
    let sim2 = sim.clone();
    sim.spawn_detached(async move {
        for key in ["unwatched-1", "hot", "unwatched-2"] {
            s.put(EU, key, Bytes::from_static(b"v")).await.unwrap();
            sim2.sleep(Duration::from_millis(5)).await;
        }
    });
    sim.run_until(SimTime::from_secs(200));
    assert_eq!(
        store.waiter_count(US),
        BYSTANDERS,
        "only `hot` waiters woke"
    );
    stats::snapshot()
}

#[test]
fn an_apply_probes_only_waiters_of_its_own_key() {
    let first = apply_past_parked_waiters();
    // Three origin applies at commit (EU has no waiters) and three remote
    // applies at US, of which only `hot` finds a bucket — of three waiters.
    assert_eq!(first.applies, 6);
    assert_eq!(first.waiter_probes, HOT_WAITERS);
    assert_eq!(
        first,
        apply_past_parked_waiters(),
        "counts must repeat exactly"
    );
}

const TOUCHED: usize = 1024;

/// Loads one replica with `resident` keys, then overwrites, reads and probes
/// `TOUCHED` of them, spread over the whole range, and probes one absent key
/// for each. Returns the counters of the second phase, in which the table
/// does not grow.
fn touch_a_table_holding(resident: usize) -> EngineStats {
    let sim = Sim::new(11);
    let net = Rc::new(Network::global_triangle());
    let store = KvStore::new(&sim, net, "db", &[EU], slow_replication());
    let s = store.clone();
    sim.block_on(async move {
        for i in 0..resident {
            s.put(EU, &format!("resident-{i}"), Bytes::from_static(b"v"))
                .await
                .expect("EU is configured");
        }
    });

    stats::reset();
    let s = store.clone();
    sim.block_on(async move {
        for i in 0..TOUCHED {
            let key = format!("resident-{}", i * (resident / TOUCHED));
            let version = s.put(EU, &key, Bytes::from_static(b"w")).await.unwrap();
            assert_eq!(s.get_sync(EU, &key).map(|got| got.version), Some(version));
            assert!(s.is_visible(EU, &key, version));
            assert!(!s.is_visible(EU, &format!("absent-{i}"), 1));
        }
    });
    stats::snapshot()
}

#[test]
fn a_lookup_probes_a_few_slots_whether_the_table_holds_1k_or_128k_keys() {
    let small = touch_a_table_holding(1 << 10);
    let large = touch_a_table_holding(1 << 17);
    // Four store operations per touched key (a put looks its key up twice:
    // to intern it, then to overwrite).
    let per_op = |s: &EngineStats| s.table_slots_probed as f64 / (4 * TOUCHED) as f64;
    assert!(
        per_op(&small) >= 1.0,
        "every lookup probes at least its home"
    );
    assert!(
        per_op(&small) <= 4.0 && per_op(&large) <= 4.0,
        "slots probed per operation: {:.2} at 1 K keys, {:.2} at 128 K",
        per_op(&small),
        per_op(&large),
    );
    assert!(
        (per_op(&small) - per_op(&large)).abs() <= 0.5,
        "128 times the keys, the same probes: {:.2} at 1 K, {:.2} at 128 K",
        per_op(&small),
        per_op(&large),
    );
    assert_eq!(
        small,
        touch_a_table_holding(1 << 10),
        "counts must repeat exactly"
    );
    assert_eq!(
        large,
        touch_a_table_holding(1 << 17),
        "counts must repeat exactly"
    );
}
