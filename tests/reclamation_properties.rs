//! What a replica forgets, and that forgetting it is safe: WAL checkpoints
//! and the reclamation of broker records every replica has delivered.
//!
//! Nothing here flips a switch to reach the mechanism — there is none. Every
//! test writes more than two [`CHECKPOINT_INTERVAL`]s to one replica, which
//! is the only way a checkpoint or a collection ever happens:
//!
//! - a replica crashed one step after each of its checkpoints, under
//!   partitions and disk-fault windows, still converges byte for byte with
//!   the repair loops the integrity plane already has;
//! - a collected message is answered for from the watermark and is never
//!   delivered again — not by a crash replay, a late hint flush or an
//!   anti-entropy round — while a replica that is behind (partitioned,
//!   crashed, restarted without part of its log) holds the stable frontier
//!   until it catches up;
//! - eight times the writes leave no more behind in the log and the broker
//!   than one time does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use antipode::Antipode;
use antipode_lineage::{Lineage, LineageId, WriteId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::{DiskFaultKind, FaultKind, Network, Region, Sim, SimTime};
use antipode_store::queue::{QueueProfile, QueueStore};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::QueueShim;
use antipode_store::wal::CHECKPOINT_INTERVAL;
use antipode_store::{stats, RepairConfig, ReplicaHealth};
use bytes::Bytes;
use proptest::prelude::*;

const REGIONS: [Region; 3] = [EU, US, SG];
const INTERVAL: u64 = CHECKPOINT_INTERVAL as u64;

fn kv_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(40.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(100.0),
    }
}

fn queue_profile() -> QueueProfile {
    QueueProfile {
        local_publish: Dist::constant_ms(1.0),
        delivery: Dist::constant_ms(50.0),
        local_delivery: Dist::constant_ms(2.0),
        rtt_hops: 1.0,
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// (a) Crash one step after every checkpoint.
// ---------------------------------------------------------------------

/// Few enough that every key is overwritten several times, many enough that
/// a replicated write rarely arrives superseded (those append nothing).
const KEYS: u64 = 512;

#[derive(Debug)]
struct StormOutcome {
    /// Crashes scheduled per region: one per checkpoint seen there.
    crashes: [usize; 3],
    converged_bytes: bool,
    all_healthy: bool,
    pending_hints: usize,
    /// Final records that no acknowledged write produced.
    foreign_records: usize,
}

/// Writes `3 × INTERVAL + 400` records over 512 keys to whichever replica
/// accepts them. After every write it looks at each replica's checkpointed
/// count; a replica whose count moved is crashed one nanosecond later — the
/// table it just flushed and a near-empty log are all it restarts from.
/// Around that: two partitions and three disk-fault windows from the seed.
fn run_checkpoint_storm(seed: u64) -> StormOutcome {
    let s = &mut seed.clone();
    let sim = Sim::new(seed);
    let net = Rc::new(Network::global_triangle());
    let faults = sim.faults();
    let store = KvStore::new(&sim, net, "db", &REGIONS, kv_profile());
    let loops = |period_ms| RepairConfig {
        period: Duration::from_millis(period_ms),
        horizon: Some(SimTime::from_secs(600)),
    };
    store.enable_anti_entropy(loops(1_000));
    store.enable_scrub(loops(1_500));
    for _ in 0..2 {
        let start = splitmix(s) % 2_500;
        let pair = [(EU, US), (EU, SG), (US, SG)][(splitmix(s) % 3) as usize];
        faults.schedule(
            SimTime::from_millis(start),
            SimTime::from_millis(start + 100 + splitmix(s) % 600),
            FaultKind::Partition {
                a: pair.0,
                b: pair.1,
            },
        );
    }
    for _ in 0..3 {
        let start = splitmix(s) % 2_500;
        let fault = match splitmix(s) % 3 {
            0 => DiskFaultKind::TornWrite,
            1 => DiskFaultKind::BitFlip {
                offset_seed: splitmix(s),
            },
            _ => DiskFaultKind::LostAppend,
        };
        faults.schedule(
            SimTime::from_millis(start),
            SimTime::from_millis(start + 50 + splitmix(s) % 300),
            FaultKind::DiskFault {
                store: "db".into(),
                // Never SG: a log that rots at every replica at once leaves
                // no healthy peer to repair from, with or without checkpoints.
                region: REGIONS[(splitmix(s) % 2) as usize],
                fault,
            },
        );
    }

    // Enough that a replica which loses three fault windows' worth of
    // appends still passes two checkpoints.
    let writes = 3 * CHECKPOINT_INTERVAL + 400;
    let mut rng = *s;
    let (crashes, acked) = sim.block_on({
        let sim = sim.clone();
        let store = store.clone();
        async move {
            let mut crashes = [0usize; 3];
            let mut checkpointed = [0usize; 3];
            let mut acked: BTreeMap<(String, u64), Bytes> = BTreeMap::new();
            for i in 0..writes {
                let key = format!("k{}", splitmix(&mut rng) % KEYS);
                let value = Bytes::from(splitmix(&mut rng).to_le_bytes().to_vec());
                let mut attempts = 0;
                let version = loop {
                    let origin = REGIONS[(i + attempts) % 3];
                    match store.put(origin, &key, value.clone()).await {
                        Ok(version) => break version,
                        Err(_) => {
                            attempts += 1;
                            assert!(attempts < 3_000, "no replica accepts writes any more");
                            if attempts % 3 == 0 {
                                sim.sleep(Duration::from_millis(5)).await;
                            }
                        }
                    }
                };
                acked.insert((key, version), value);
                for (ix, &region) in REGIONS.iter().enumerate() {
                    let seen = store.wal_len(region) - store.wal_resident_len(region);
                    if seen > checkpointed[ix] {
                        let at = sim.now() + Duration::from_nanos(1);
                        let down = Duration::from_millis(10 + splitmix(&mut rng) % 50);
                        sim.faults().schedule(
                            at,
                            at + down,
                            FaultKind::ReplicaCrash {
                                store: "db".into(),
                                region,
                            },
                        );
                        crashes[ix] += 1;
                    }
                    // A rejoin re-frames the log and starts the count over.
                    checkpointed[ix] = seen;
                }
            }
            (crashes, acked)
        }
    });
    sim.run();

    let mut foreign_records = 0;
    for &region in &REGIONS {
        for k in 0..KEYS {
            let key = format!("k{k}");
            if let Some(v) = store.get_sync(region, &key) {
                if acked.get(&(key, v.version)) != Some(&v.bytes) {
                    foreign_records += 1;
                }
            }
        }
    }
    StormOutcome {
        crashes,
        converged_bytes: store.converged_bytes(),
        all_healthy: REGIONS
            .iter()
            .all(|&r| store.replica_health(r) == ReplicaHealth::Healthy),
        pending_hints: store.pending_hints(),
        foreign_records,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_crash_one_step_after_every_checkpoint_still_converges(seed in any::<u64>()) {
        let out = run_checkpoint_storm(seed);
        prop_assert!(
            out.crashes.iter().all(|&n| n >= 2),
            "every replica must pass two checkpoints: {:?}", out
        );
        prop_assert!(out.converged_bytes, "no byte convergence: {:?}", out);
        prop_assert!(out.all_healthy, "stranded quarantine: {:?}", out);
        prop_assert_eq!(out.pending_hints, 0, "stranded hints: {:?}", out);
        prop_assert_eq!(out.foreign_records, 0, "served a record nobody wrote: {:?}", out);
    }
}

/// Convergence cannot tell a checkpoint that dropped too much from one
/// that did not — peers repair either. A replica without peers can: after a
/// crash it has only its flushed table and its resident log.
#[test]
fn a_lone_replica_restarts_with_everything_it_acknowledged() {
    let sim = Sim::new(40);
    let net = Rc::new(Network::global_triangle());
    let kv = KvStore::new(&sim, net.clone(), "db", &[US], kv_profile());
    let q = QueueStore::new(&sim, net, "bus", &[US], queue_profile());
    let writes = 2 * INTERVAL + 100;
    let newest = sim.block_on({
        let (kv, q, sim) = (kv.clone(), q.clone(), sim.clone());
        async move {
            let mut newest = BTreeMap::new();
            for i in 0..writes {
                if i == INTERVAL + 10 {
                    // From here on the broker acknowledges publishes it
                    // cannot deliver: their commit-time log entries are the
                    // only copy, and the next checkpoint must keep them.
                    sim.faults().pause_queue_delivery("bus", US);
                }
                let key = format!("k{}", i % KEYS);
                let value = Bytes::from(i.to_le_bytes().to_vec());
                let version = kv.put(US, &key, value.clone()).await.unwrap();
                newest.insert(key, (version, value));
                q.publish(US, Bytes::from_static(b"job")).await.unwrap();
            }
            newest
        }
    });
    for store_len in [kv.wal_len(US), q.wal_len(US)] {
        assert_eq!(store_len as u64, writes);
    }
    assert!(kv.wal_resident_len(US) < CHECKPOINT_INTERVAL);
    assert!(!q.is_visible(US, writes), "acknowledged, not delivered");
    let start = sim.now() + Duration::from_nanos(1);
    for store in ["db", "bus"] {
        sim.faults().schedule(
            start,
            start + Duration::from_millis(10),
            FaultKind::ReplicaCrash {
                store: store.into(),
                region: US,
            },
        );
    }
    sim.run_until(start + Duration::from_millis(5));
    let flushed = (0..KEYS).filter(|k| kv.get_sync(US, &format!("k{k}")).is_some());
    assert!(flushed.count() > 0, "the crash keeps the flushed table");
    assert!(kv
        .get_sync(US, &format!("k{}", (writes - 1) % KEYS))
        .is_none());
    sim.run_until(start + Duration::from_millis(11));
    for (key, (version, value)) in &newest {
        let got = kv.get_sync(US, key).expect("replayed or flushed");
        assert_eq!((got.version, &got.bytes), (*version, value));
    }
    for id in 1..=writes {
        assert!(q.is_visible(US, id), "message {id} was acknowledged");
    }
}

// ---------------------------------------------------------------------
// (b), (c) Collected messages and the frontier.
// ---------------------------------------------------------------------

/// How often each message id reached an observer.
type Deliveries = Rc<RefCell<BTreeMap<u64, usize>>>;

struct Bus {
    sim: Sim,
    q: QueueStore,
    /// Deliveries to a plain subscriber in US.
    subscribed: Deliveries,
    /// Deliveries to a consumer group in US.
    grouped: Deliveries,
}

impl Bus {
    /// A three-region broker with a subscriber and a consumer group in US.
    /// SG comes first in the region list, so anti-entropy prefers it as the
    /// source of a back-fill: that is what lets it reach US while EU↔US is
    /// partitioned and EU's hints for US are still parked.
    fn new(seed: u64) -> Bus {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "bus", &[SG, EU, US], queue_profile());
        let subscribed: Deliveries = Rc::default();
        let grouped: Deliveries = Rc::default();
        let mut sub = q.subscribe(US).unwrap();
        let seen = subscribed.clone();
        sim.spawn(async move {
            while let Some(msg) = sub.recv().await {
                *seen.borrow_mut().entry(msg.id).or_default() += 1;
            }
        });
        let consumer = q.join_group(US, "workers").unwrap();
        let seen = grouped.clone();
        sim.spawn(async move {
            loop {
                let msg = consumer.take().await;
                consumer.ack(&msg).unwrap();
                *seen.borrow_mut().entry(msg.id).or_default() += 1;
            }
        });
        Bus {
            sim,
            q,
            subscribed,
            grouped,
        }
    }

    /// Publishes `n` messages from EU, one per millisecond, then lets
    /// `settle` pass.
    fn publish(&self, n: u64, settle: Duration) {
        let (q, sim) = (self.q.clone(), self.sim.clone());
        self.sim.block_on(async move {
            for _ in 0..n {
                q.publish(EU, Bytes::from_static(b"job")).await.unwrap();
            }
            sim.sleep(settle).await;
        });
    }

    fn window(&self, len: Duration, kind: FaultKind) -> SimTime {
        let start = self.sim.now();
        self.sim.faults().schedule(start, start + len, kind);
        start + len
    }

    fn crash_us(&self, len: Duration) -> SimTime {
        self.window(
            len,
            FaultKind::ReplicaCrash {
                store: "bus".into(),
                region: US,
            },
        )
    }
}

const SETTLE: Duration = Duration::from_millis(500);

#[test]
fn a_collected_message_is_never_delivered_again_and_a_lagging_replica_holds_the_frontier() {
    stats::reset();
    let bus = Bus::new(41);
    let q = &bus.q;

    bus.publish(INTERVAL + 76, SETTLE);
    assert_eq!(q.stable_frontier(), INTERVAL + 77);
    // (A delivery that overtakes its predecessor can carry the batch a few
    // ids past the interval.)
    assert!(
        stats::snapshot().queue_records_collected >= 3 * INTERVAL,
        "the first interval of ids is gone from all three brokers"
    );
    assert!(q.converged());

    // Partitioned: EU's deliveries for US park as hints and US falls behind.
    let heal = bus.window(
        Duration::from_secs(3),
        FaultKind::Partition { a: EU, b: US },
    );
    bus.publish(INTERVAL + 76, SETTLE);
    assert_eq!(q.pending_hints() as u64, INTERVAL + 76);
    assert_eq!(q.stable_frontier(), INTERVAL + 77, "US holds the frontier");
    // Anti-entropy brings US up from SG. The frontier moves, and ids up to
    // 2 × INTERVAL are collected while EU still holds a hint for each — and
    // while the US log still holds the entries the back-fill just appended
    // (a checkpoint keeps the entries of its own instant).
    let q2 = q.clone();
    let report = bus.sim.block_on(async move { q2.repair_sweep().await });
    assert_eq!(report.backfilled as u64, INTERVAL + 76);
    assert_eq!(q.stable_frontier(), 2 * INTERVAL + 153);
    assert!(stats::snapshot().queue_records_collected >= 6 * INTERVAL);
    // The partition heals and every hint flushes into US.
    bus.sim.run_until(heal + SETTLE);
    assert_eq!(q.pending_hints(), 0);
    assert!(
        q.converged(),
        "a flushed hint re-created a collected record"
    );

    // Crashed: collected ids answer from the watermark, the rest of the
    // volatile table is gone, and the frontier waits for the restart.
    let heal = bus.crash_us(Duration::from_secs(1));
    bus.publish(10, Duration::ZERO);
    assert!(q.is_visible(US, 5) && q.is_visible(US, 2 * INTERVAL));
    assert!(
        !q.is_visible(US, 2 * INTERVAL + 100),
        "volatile until replay"
    );
    assert_eq!(
        q.stable_frontier(),
        2 * INTERVAL + 153,
        "US holds the frontier"
    );
    // The replay walks over log entries of collected ids and must not
    // bring their records back.
    bus.sim.run_until(heal + SETTLE);
    assert!(q.is_visible(US, 2 * INTERVAL + 100));
    assert_eq!(q.stable_frontier(), 2 * INTERVAL + 163);
    assert!(q.converged(), "the replay re-created collected records");

    // Quarantined: bit rot in the US log, found by the next restart. What
    // lay behind the rotted frame is lost, and the gap holds the frontier
    // until anti-entropy has back-filled it and US rejoins.
    bus.window(
        Duration::from_millis(1),
        FaultKind::DiskFault {
            store: "bus".into(),
            region: US,
            fault: DiskFaultKind::BitFlip { offset_seed: 3 },
        },
    );
    bus.sim.run_for(Duration::from_millis(2));
    let heal = bus.crash_us(Duration::from_millis(100));
    bus.sim.run_until(heal + Duration::from_millis(1));
    assert_eq!(q.replica_health(US), ReplicaHealth::Tainted);
    assert!(
        q.stable_frontier() < 2 * INTERVAL + 163,
        "US holds the frontier"
    );
    let q2 = q.clone();
    let report = bus.sim.block_on(async move { q2.repair_sweep().await });
    assert!(report.backfilled > 0);
    assert_eq!(report.rejoined, 1);
    assert_eq!(q.replica_health(US), ReplicaHealth::Healthy);
    assert_eq!(q.stable_frontier(), 2 * INTERVAL + 163);
    assert!(q.converged());

    // Every id reached both observers; a collected one exactly once. (An
    // id that was not collected yet when US lost it is delivered again by
    // the back-fill, as it always was.)
    for deliveries in [&bus.subscribed, &bus.grouped] {
        let deliveries = deliveries.borrow();
        assert_eq!(deliveries.len() as u64, 2 * INTERVAL + 162);
        for id in 1..=2 * INTERVAL {
            assert_eq!(deliveries[&id], 1, "collected id {id} was delivered again");
        }
    }
}

#[test]
fn waits_on_a_collected_id_resolve_from_the_watermark_without_parking() {
    stats::reset();
    let bus = Bus::new(42);
    bus.publish(INTERVAL + 76, SETTLE);
    assert!(stats::snapshot().queue_records_collected >= 3 * INTERVAL);
    let q = bus.q.clone();
    let mut ap = Antipode::new(bus.sim.clone());
    ap.register(Rc::new(QueueShim::new(q.clone())));
    let sim = bus.sim.clone();
    bus.sim.block_on(async move {
        let before = sim.now();
        for region in [SG, EU, US] {
            assert!(q.is_visible(region, 7));
            q.wait_visible(region, 7).await.unwrap();
            assert_eq!(q.waiter_count(region), 0);
        }
        let mut lineage = Lineage::new(LineageId(1));
        lineage.append(WriteId::new("bus", "msg-7", 7));
        lineage.append(WriteId::new("bus", format!("msg-{INTERVAL}"), INTERVAL));
        ap.barrier(&lineage, US).await.unwrap();
        assert_eq!(sim.now(), before, "nothing waited");
        // An id nobody has published is still worth waiting for.
        assert!(!q.is_visible(US, INTERVAL + 77));
    });
}

// ---------------------------------------------------------------------
// (d) Bounded growth.
// ---------------------------------------------------------------------

/// `(resident WAL records per KV replica, resident WAL records per broker
/// replica, records held per broker replica)` after `writes` puts and as
/// many publishes have settled.
fn residue(writes: u64) -> (Vec<usize>, Vec<usize>, u64) {
    stats::reset();
    let sim = Sim::new(43);
    let net = Rc::new(Network::global_triangle());
    let kv = KvStore::new(&sim, net.clone(), "db", &[EU, US], kv_profile());
    let q = QueueStore::new(&sim, net, "bus", &[EU, US], queue_profile());
    sim.block_on({
        let (kv, q, sim) = (kv.clone(), q.clone(), sim.clone());
        async move {
            for i in 0..writes {
                let key = format!("k{i}");
                kv.put(EU, &key, Bytes::from_static(b"doc")).await.unwrap();
                q.publish(EU, Bytes::from_static(b"job")).await.unwrap();
            }
            sim.sleep(SETTLE).await;
        }
    });
    assert!(kv.converged() && q.converged());
    assert_eq!(
        kv.wal_len(US) as u64,
        writes,
        "the logical length counts on"
    );
    assert_eq!(kv.stable_frontier(), writes + 1);
    let held = writes - stats::snapshot().queue_records_collected / 2;
    (
        vec![kv.wal_resident_len(EU), kv.wal_resident_len(US)],
        vec![q.wal_resident_len(EU), q.wal_resident_len(US)],
        held,
    )
}

#[test]
fn eight_times_the_writes_leave_no_more_behind() {
    let base = 2 * INTERVAL + 100;
    let (kv_1x, q_1x, held_1x) = residue(base);
    let (kv_8x, q_8x, held_8x) = residue(8 * base);
    for (one, eight) in kv_1x.iter().chain(&q_1x).zip(kv_8x.iter().chain(&q_8x)) {
        assert!(*one <= CHECKPOINT_INTERVAL + 8, "1x resident log: {one}");
        assert!(
            *eight <= CHECKPOINT_INTERVAL + 8,
            "8x resident log: {eight}"
        );
    }
    assert!(held_1x <= INTERVAL && held_8x <= INTERVAL);
    assert!(stats::snapshot().wal_resident_records_peak <= INTERVAL + 8);
    // Without reclamation each of these would be 8 × the other.
    assert!(held_8x.abs_diff(held_1x) <= INTERVAL);
}
