//! The recovery plane of the replication engine: write-ahead logs,
//! crash-restart, hinted handoff, and waiter hygiene.
//!
//! Three mechanisms, all driven off the simulation's [`FaultPlan`] by one
//! per-store monitor task (spawned in [`Engine::new`], parked on the plan's
//! change notifier between window edges — no polling). Because the monitor
//! is generic over the engine's [`Substrate`], *both* store families get it:
//! KV stores and queue brokers recover identically.
//!
//! - **Crash-restart** ([`antipode_sim::fault::FaultKind::ReplicaCrash`]):
//!   on window entry the replica's volatile state (memtable, visibility
//!   waiters, in-flight sends it originated, hints it queued) is lost; on the
//!   heal edge the replica restarts and deterministically replays its
//!   write-ahead log. With the WAL disabled the replica restarts empty and
//!   relies entirely on anti-entropy repair ([`crate::repair`]).
//! - **Hinted handoff**: a send suppressed by a partition, outage, stall,
//!   pause, or crashed destination parks as a [`Hint`] at its origin; the
//!   monitor flushes hints the moment the fault plan says the path is
//!   healthy again. Origin-crash drops that origin's queued hints — exactly
//!   the writes anti-entropy repair exists to back-fill.
//! - **Waiter hygiene**: visibility waiters subscribed at a replica that
//!   goes dark are cancelled with [`crate::StoreError::Unavailable`]
//!   (instead of leaking forever). The KV family surfaces the cancellation
//!   so barrier retry policies re-arm; the queue family silently
//!   resubscribes (queue waits never error on faults).
//!
//! A fourth mechanism closes the loop with the storage-integrity plane
//! ([`crate::wal`], [`crate::repair`]): the monitor also applies scheduled
//! **disk faults** ([`antipode_sim::fault::FaultKind::DiskFault`]) to the
//! durable log at their window edges — torn tail writes, bit flips —
//! and crash-restart replay *verifies* every record's checksum. A torn
//! tail truncates cleanly (bounded, known loss); a mid-log checksum
//! mismatch quarantines the replica ([`crate::engine::ReplicaHealth`])
//! until anti-entropy back-fills it.
//!
//! Everything is deterministic: the monitor wakes only at scheduled window
//! edges and imperative plan changes, hint queues preserve push order, and
//! WAL replay is a pure fold over the verified prefix of the log.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use antipode_sim::fault::{DiskFaultKind, FaultPlan};
use antipode_sim::{timeout, Region, SimTime};
use bytes::Bytes;

use crate::engine::{Engine, Record, ReplicaHealth};
use crate::substrate::Substrate;
use crate::waiters::fail_waiters;
use crate::wal::WalFaultKind;

/// Per-store recovery knobs. Defaults model a production store: durable WAL
/// and hinted handoff both on. [`RecoveryConfig::disabled`] is the ablation
/// in which suppressed sends are dropped outright and a crashed replica
/// restarts empty — the configuration the convergence-under-chaos property
/// tests demonstrate to be *not* eventually consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Queue suppressed sends as hints and flush them when the path heals.
    /// Off: suppressed sends are silently dropped.
    pub hinted_handoff: bool,
    /// Append every apply to a per-replica write-ahead log and replay it at
    /// crash-restart. Off: a crash loses the replica's entire dataset.
    pub wal: bool,
    /// Verify each WAL record's CRC32C during replay and scrub sweeps. Off
    /// is the integrity ablation: replay trusts the declared frame lengths
    /// and silently rehydrates bit-rotted values into the memtable — the
    /// behavior `tests/integrity_properties.rs` demonstrates the checksums
    /// to prevent.
    pub verify_checksums: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            hinted_handoff: true,
            wal: true,
            verify_checksums: true,
        }
    }
}

impl RecoveryConfig {
    /// No WAL, no handoff: the no-recovery ablation.
    pub fn disabled() -> Self {
        RecoveryConfig {
            hinted_handoff: false,
            wal: false,
            verify_checksums: false,
        }
    }
}

/// One durable write-ahead-log record: an apply that changed the memtable.
/// The key is a shared `Rc<str>` — one allocation per commit, refcount
/// bumps everywhere else (WAL, index, memtable, hints, queued sends).
#[derive(Clone, Debug)]
pub struct WalEntry {
    /// The written key.
    pub key: Rc<str>,
    /// The version applied.
    pub version: u64,
    /// The stored bytes.
    pub bytes: Bytes,
    /// When the apply originally became visible (preserved across replay so
    /// post-restart timestamps keep their happens-before ordering).
    pub visible_at: SimTime,
    /// When the write committed at its origin (preserved so replayed queue
    /// messages keep their publish timestamps).
    pub committed_at: SimTime,
}

/// A send parked at its origin because a fault suppressed the path to
/// `dest`; flushed when the fault plan says the path is healthy.
#[derive(Clone, Debug)]
pub struct Hint {
    /// The region that committed the write (where the hint is stored).
    pub origin: Region,
    /// The replica the send was addressed to.
    pub dest: Region,
    /// The written key.
    pub key: Rc<str>,
    /// The version to apply.
    pub version: u64,
    /// The stored bytes.
    pub bytes: Bytes,
    /// When the write committed at its origin.
    pub committed_at: SimTime,
}

/// Spawns the store's recovery monitor: one task that wakes at every fault
/// transition (and imperative change) to run crash/restart edges, cancel
/// waiters of dark replicas, and flush healed hints. Parks without a timer
/// when the plan has no future transitions, so simulations still quiesce.
pub(crate) fn spawn_monitor<S: Substrate>(engine: &Engine<S>) {
    let engine = engine.clone();
    let sim = engine.sim().clone();
    let faults: FaultPlan = engine.faults().clone();
    let mut dark: BTreeMap<Region, bool> = BTreeMap::new();
    let mut crashed: BTreeMap<Region, bool> = BTreeMap::new();
    // Disk-fault windows already applied to a replica's log, keyed by the
    // plan's window index — each scheduled corruption strikes exactly once.
    let mut injected: BTreeSet<(Region, usize)> = BTreeSet::new();
    for &r in engine.regions() {
        dark.insert(r, false);
        crashed.insert(r, false);
    }
    sim.clone().spawn(async move {
        loop {
            let notified = faults.on_change();
            let now = sim.now();
            engine.recovery_tick(now, &mut dark, &mut crashed, &mut injected);
            match faults.next_transition_after(now) {
                Some(t) => {
                    let _ = timeout(&sim, t.since(now), notified).await;
                }
                None => notified.await,
            }
        }
    });
}

impl<S: Substrate> Engine<S> {
    /// One monitor pass at `now`: process crash/restart and dark/lit edges
    /// per replica, then flush any hints whose paths healed.
    fn recovery_tick(
        &self,
        now: SimTime,
        dark: &mut BTreeMap<Region, bool>,
        crashed: &mut BTreeMap<Region, bool>,
        injected: &mut BTreeSet<(Region, usize)>,
    ) {
        let regions = self.regions().to_vec();
        for region in regions {
            self.inject_disk_faults(now, region, injected);
            let is_crashed = self
                .inner
                .faults
                .replica_crashed(now, &self.inner.name, region);
            let is_dark = is_crashed
                || self.inner.substrate.op_blocked(
                    &self.inner.faults,
                    now,
                    &self.inner.name,
                    region,
                );
            let was_crashed = crashed.insert(region, is_crashed).unwrap_or(false);
            let was_dark = dark.insert(region, is_dark).unwrap_or(false);
            if is_crashed && !was_crashed {
                self.crash_replica(region);
            }
            if !is_crashed && was_crashed {
                self.restart_replica(region);
            }
            if is_dark && !was_dark {
                self.cancel_waiters(region);
            }
        }
        self.flush_hints(now);
    }

    /// Applies any newly active disk-fault windows to a replica's durable
    /// log. The corruption is *latent*: memtable and reads are untouched
    /// until crash-restart replay or a scrub sweep re-reads the bytes and
    /// discovers the damage — exactly the silent-until-read failure mode of
    /// real storage. `LostAppend` windows have no edge action; they are
    /// consulted continuously at the append sites in [`crate::engine`].
    fn inject_disk_faults(
        &self,
        now: SimTime,
        region: Region,
        injected: &mut BTreeSet<(Region, usize)>,
    ) {
        for (ix, fault) in self.inner.faults.disk_faults(now, &self.inner.name, region) {
            if !injected.insert((region, ix)) {
                continue;
            }
            let mut replicas = self.inner.replicas.borrow_mut();
            let Some(state) = replicas.get_mut(&region) else {
                continue;
            };
            match fault {
                DiskFaultKind::TornWrite => {
                    state.wal.tear_tail();
                }
                DiskFaultKind::BitFlip { offset_seed } => {
                    state.wal.flip_byte(offset_seed);
                }
                DiskFaultKind::LostAppend => {}
            }
        }
    }

    /// Crash entry: volatile state dies with the process. The table loses
    /// every record the last checkpoint did not flush (all of them, before
    /// the first checkpoint); the resident WAL, being durable, survives.
    /// Pending visibility waiters are cancelled, hints queued at this
    /// origin are lost, and the epoch bump aborts in-flight sends this
    /// replica originated.
    fn crash_replica(&self, region: Region) {
        let cancelled = {
            let mut replicas = self.inner.replicas.borrow_mut();
            let Some(state) = replicas.get_mut(&region) else {
                return;
            };
            let flushed_at = state.flushed_at;
            state
                .data
                .retain(|_, record| record.visible_at < flushed_at);
            state.epoch += 1;
            state.waiters.drain_all()
        };
        fail_waiters(cancelled, self.unavailable(region));
        self.inner.hints.borrow_mut().retain(|h| h.origin != region);
    }

    /// Restart at the heal edge: *verify* the resident write-ahead log and
    /// deterministically replay its verified prefix over the table the
    /// last checkpoint flushed (an empty table before the first one; a
    /// no-op fold when the WAL is disabled — the replica restarts empty and
    /// waits for anti-entropy repair). Damage can only sit in resident
    /// bytes, and is handled as it always was.
    ///
    /// Verification gives the replay an integrity policy:
    /// - a torn tail frame ([`WalFaultKind::TornFrame`]) is an interrupted
    ///   final append — the log truncates to its verified prefix and the
    ///   replica restarts `Healthy` with a bounded, known loss;
    /// - a mid-log checksum mismatch ([`WalFaultKind::ChecksumMismatch`])
    ///   means the replica cannot bound what else rotted — the log still
    ///   truncates (so future appends extend a clean log), but the replica
    ///   restarts [`ReplicaHealth::Tainted`]: reads refuse with
    ///   [`StoreError::IntegrityFault`] until anti-entropy back-fills it and
    ///   it rejoins with a bumped epoch.
    ///
    /// Whenever the log truncates, the WAL dedupe index is rebuilt from the
    /// *surviving* records (`ReplicaState::verify_wal`, shared with the
    /// scrub sweep): a stale index entry for a truncated frame would make
    /// the deferred-apply families' dedupe append silently skip re-logging
    /// a version the log no longer holds — a second crash would then lose
    /// it permanently.
    ///
    /// Replay restores state without invoking the substrate's apply
    /// reaction: observers were already notified by the original applies.
    /// Waiters the replay satisfies *are* woken — queue waiters resubscribe
    /// during the crash window, and for a publish that was durably logged
    /// but never delivered (its in-flight sends died with the origin), the
    /// replayed record is the only apply they will ever see.
    ///
    /// The applied prefix is rebuilt from the records the restart ends up
    /// with, over the collected watermark: whatever the crash lost is a gap
    /// again, and holds the stable frontier until it is back-filled.
    fn restart_replica(&self, region: Region) {
        let verify = self.inner.recovery.get().verify_checksums;
        let unassigned = self.inner.next_version.get();
        let (woken, tainted) = {
            let mut replicas = self.inner.replicas.borrow_mut();
            let Some(state) = replicas.get_mut(&region) else {
                return;
            };
            let (scan, fault) = state.verify_wal(verify);
            let tainted = fault == Some(WalFaultKind::ChecksumMismatch);
            for entry in &scan.entries {
                if !state.holds(&entry.key, entry.version) {
                    state.data.insert(
                        Rc::clone(&entry.key),
                        Record {
                            version: entry.version,
                            bytes: entry.bytes.clone(),
                            visible_at: entry.visible_at,
                            committed_at: entry.committed_at,
                        },
                    );
                }
            }
            state.rebuild_applied(unassigned);
            if tainted {
                // Quarantine sticks until the repair plane rejoins the
                // replica — a clean-looking log after truncation must not
                // clear it.
                state.health = ReplicaHealth::Tainted;
            }
            let woken = if tainted {
                // A quarantined replica serves nothing — even waiters whose
                // versions the replayed prefix holds. Drain them all.
                state.waiters.drain_all()
            } else {
                state.waiters.drain_visible(&state.data)
            };
            (woken, tainted)
        };
        if tainted {
            fail_waiters(woken, self.integrity_fault(region));
        } else {
            for tx in woken {
                let _ = tx.send(Ok(()));
            }
        }
    }

    /// Cancels every visibility waiter at a replica that went dark. KV
    /// subscribers surface [`StoreError::Unavailable`]; queue subscribers
    /// silently resubscribe (see [`Engine::wait_visible`]).
    fn cancel_waiters(&self, region: Region) {
        let cancelled = {
            let mut replicas = self.inner.replicas.borrow_mut();
            match replicas.get_mut(&region) {
                Some(state) => state.waiters.drain_all(),
                None => return,
            }
        };
        fail_waiters(cancelled, self.unavailable(region));
    }

    /// Flushes every queued hint whose origin→dest path is healthy at `now`,
    /// in queue order. Hints whose paths are still faulted stay queued.
    fn flush_hints(&self, now: SimTime) {
        if self.inner.hints.borrow().is_empty() {
            return;
        }
        let ready: Vec<Hint> = {
            let mut hints = self.inner.hints.borrow_mut();
            let mut ready = Vec::new();
            hints.retain(|h| {
                let suppressed = self.inner.substrate.send_suppressed(
                    &self.inner.faults,
                    now,
                    &self.inner.name,
                    h.origin,
                    h.dest,
                ) || self.inner.faults.replica_crashed(
                    now,
                    &self.inner.name,
                    h.dest,
                ) || self.inner.faults.replica_crashed(
                    now,
                    &self.inner.name,
                    h.origin,
                );
                if suppressed {
                    true
                } else {
                    ready.push(h.clone());
                    false
                }
            });
            ready
        };
        for h in ready {
            self.apply(h.dest, &h.key, h.version, h.bytes, h.committed_at);
        }
    }

    /// Number of queued hinted-handoff entries (diagnostics).
    pub(crate) fn pending_hints(&self) -> usize {
        self.inner.hints.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::dist::Dist;
    use antipode_sim::fault::FaultKind;
    use antipode_sim::net::regions::{EU, SG, US};
    use antipode_sim::net::Network;
    use antipode_sim::{Sim, SimTime};

    use crate::queue::{QueueProfile, QueueStore};
    use crate::replica::{KvProfile, KvStore};
    use crate::substrate::StoreError;

    fn fast_profile() -> KvProfile {
        KvProfile {
            local_write: Dist::constant_ms(1.0),
            local_read: Dist::constant_ms(0.5),
            replication: Dist::constant_ms(100.0),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(50.0),
        }
    }

    fn setup(seed: u64) -> (Sim, KvStore) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(&sim, net, "db", &[EU, US, SG], fast_profile());
        (sim, store)
    }

    #[test]
    fn crash_wipes_volatile_state_and_wal_replay_restores_it() {
        let (sim, store) = setup(11);
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(US, "k", Bytes::from_static(b"x")).await.unwrap();
            assert!(s.is_visible(US, "k", v));
            assert_eq!(s.wal_len(US), 1);
            v
        });
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        // Mid-window: the memtable is gone, operations are rejected.
        sim.run_until(SimTime::from_secs(6));
        assert!(store.get_sync(US, "k").is_none(), "crash wipes volatile");
        let s = store.clone();
        sim.block_on(async move {
            assert!(matches!(
                s.put(US, "k2", Bytes::new()).await.unwrap_err(),
                StoreError::Unavailable { .. }
            ));
        });
        // Post-restart: WAL replay restored the data at the heal edge.
        sim.run_until(SimTime::from_secs(9));
        let got = store.get_sync(US, "k").expect("WAL replay restores");
        assert_eq!(got.bytes, Bytes::from_static(b"x"));
    }

    #[test]
    fn crash_without_wal_restarts_empty() {
        let (sim, store) = setup(12);
        store.set_recovery(RecoveryConfig {
            wal: false,
            ..RecoveryConfig::default()
        });
        let s = store.clone();
        sim.block_on(async move {
            s.put(US, "k", Bytes::from_static(b"x")).await.unwrap();
        });
        assert_eq!(store.wal_len(US), 0);
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        sim.run_until(SimTime::from_secs(9));
        assert!(
            store.get_sync(US, "k").is_none(),
            "no WAL: the replica restarts empty until repair back-fills it"
        );
    }

    #[test]
    fn torn_tail_truncates_cleanly_and_replay_restores_the_prefix() {
        let (sim, store) = setup(18);
        let s = store.clone();
        sim.block_on(async move {
            let v1 = s.put(US, "k1", Bytes::from_static(b"one")).await.unwrap();
            let v2 = s.put(US, "k2", Bytes::from_static(b"two")).await.unwrap();
            (v1, v2)
        });
        assert_eq!(store.wal_len(US), 2);
        // The torn write strikes at 4s, then the replica crash-restarts.
        sim.faults().schedule(
            SimTime::from_secs(4),
            SimTime::from_secs(5),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::TornWrite,
            },
        );
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        sim.run_until(SimTime::from_secs(9));
        // Verified replay stopped at the torn frame and truncated: the
        // prefix record survives, the torn one is a bounded, known loss,
        // and the replica is NOT quarantined.
        assert!(store.is_visible(US, "k1", 1), "prefix replays");
        assert!(!store.is_visible(US, "k2", 2), "torn record is lost");
        assert_eq!(store.wal_len(US), 1);
        assert_eq!(
            store.replica_health(US),
            crate::engine::ReplicaHealth::Healthy
        );
        // Anti-entropy back-fills the lost record from the healthy peers.
        let s = store.clone();
        sim.block_on(async move {
            s.repair_sweep().await;
        });
        assert!(store.is_visible(US, "k2", 2));
        assert!(store.engine.converged_bytes());
    }

    #[test]
    fn truncated_wal_index_is_rebuilt_so_backfills_relog() {
        // Regression for the dedupe-index/WAL divergence: the queue family
        // logs through the dedupe index, so a stale index entry for a
        // record that truncation removed would make the back-fill's append
        // a silent no-op — and a second crash would lose the record
        // permanently. Replay must rebuild the index from the records that
        // actually survived.
        let sim = Sim::new(31);
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
        let q2 = q.clone();
        let (id1, id2) = sim.block_on(async move {
            let id1 = q2.publish(EU, Bytes::from_static(b"m1")).await.unwrap();
            let id2 = q2.publish(EU, Bytes::from_static(b"m2")).await.unwrap();
            q2.wait_visible(US, id1).await.unwrap();
            q2.wait_visible(US, id2).await.unwrap();
            (id1, id2)
        });
        assert_eq!(q.wal_len(EU), 2);
        // Tear EU's tail frame (the id2 record), then crash-restart EU.
        sim.faults().schedule(
            SimTime::from_secs(4),
            SimTime::from_secs(5),
            FaultKind::DiskFault {
                store: "amq".into(),
                region: EU,
                fault: DiskFaultKind::TornWrite,
            },
        );
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "amq".into(),
                region: EU,
            },
        );
        sim.run_until(SimTime::from_secs(9));
        assert!(q.is_visible(EU, id1));
        assert!(!q.is_visible(EU, id2), "torn record lost at EU");
        assert_eq!(q.wal_len(EU), 1);
        // Anti-entropy back-fills id2 from US. With the rebuilt index the
        // dedupe append re-logs it; with a stale index it would skip.
        let q2 = q.clone();
        sim.block_on(async move {
            q2.repair_sweep().await;
        });
        assert!(q.is_visible(EU, id2));
        assert_eq!(
            q.wal_len(EU),
            2,
            "back-fill must re-log the record truncation removed"
        );
        // The proof: a second crash replays the re-logged record.
        sim.faults().schedule(
            SimTime::from_secs(20),
            SimTime::from_secs(22),
            FaultKind::ReplicaCrash {
                store: "amq".into(),
                region: EU,
            },
        );
        sim.run_until(SimTime::from_secs(23));
        assert!(
            q.is_visible(EU, id2),
            "a stale dedupe index would have lost this record for good"
        );
        assert!(q.is_visible(EU, id1));
    }

    #[test]
    fn lost_append_window_drops_durability_until_repair() {
        let (sim, store) = setup(19);
        // Appends at US silently vanish while the window is active…
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(10),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::LostAppend,
            },
        );
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(US, "k", Bytes::from_static(b"x")).await.unwrap();
            // …but the memtable and the ack are unaffected: the loss is
            // silent until something re-reads the log.
            assert!(s.is_visible(US, "k", v));
            s.wait_visible(EU, "k", v).await.unwrap();
        });
        assert_eq!(store.wal_len(US), 0, "the append never hit the log");
        assert_eq!(store.wal_len(EU), 1, "other replicas logged normally");
        sim.faults().schedule(
            SimTime::from_secs(12),
            SimTime::from_secs(15),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        sim.run_until(SimTime::from_secs(16));
        assert!(
            !store.is_visible(US, "k", 1),
            "nothing durable to replay: the crash exposes the lost append"
        );
        let s = store.clone();
        sim.block_on(async move {
            s.repair_sweep().await;
        });
        assert!(store.is_visible(US, "k", 1));
        assert_eq!(store.wal_len(US), 1, "the back-fill logs it (window over)");
    }

    #[test]
    fn suppressed_sends_queue_hints_and_flush_at_heal() {
        let (sim, store) = setup(13);
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(20),
            FaultKind::Partition { a: EU, b: US },
        );
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            // SG applies directly; the EU→US send parks as a hint.
            s.wait_visible(SG, "k", v).await.unwrap();
            assert_eq!(s.pending_hints(), 1);
            assert!(!s.is_visible(US, "k", v));
            s.wait_visible(US, "k", v).await.unwrap();
            assert!(s.engine.sim().now() >= SimTime::from_secs(20));
            assert_eq!(s.pending_hints(), 0);
        });
    }

    #[test]
    fn disabled_handoff_drops_suppressed_sends() {
        let (sim, store) = setup(14);
        store.set_recovery(RecoveryConfig::disabled());
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(5),
            FaultKind::Partition { a: EU, b: US },
        );
        let s = store.clone();
        let v = sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(SG, "k", v).await.unwrap();
            v
        });
        assert_eq!(store.pending_hints(), 0, "no hint without handoff");
        // Even long after the partition heals the write never reaches US:
        // nothing retries a dropped send.
        sim.run_until(SimTime::from_secs(60));
        assert!(!store.is_visible(US, "k", v));
    }

    #[test]
    fn origin_crash_drops_queued_hints() {
        let (sim, store) = setup(15);
        // EU→US partitioned, so the EU write parks a hint at EU…
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(30),
            FaultKind::Partition { a: EU, b: US },
        );
        // …then the EU replica crash-restarts while the hint is queued.
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: EU,
            },
        );
        let s = store.clone();
        let v = sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(SG, "k", v).await.unwrap();
            assert_eq!(s.pending_hints(), 1);
            v
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(store.pending_hints(), 0, "crash lost the hint queue");
        // The hint died with the EU process; without anti-entropy the US
        // replica never converges (the repair module closes this gap).
        assert!(!store.is_visible(US, "k", v));
        // EU itself recovered its copy from the WAL.
        assert!(store.is_visible(EU, "k", v));
    }

    #[test]
    fn waiters_in_dark_region_are_cancelled_not_leaked() {
        let (sim, store) = setup(16);
        // Subscribe a waiter at US for a write that will never arrive before
        // the outage, then let the outage start.
        sim.faults().schedule(
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            FaultKind::RegionOutage { region: US },
        );
        let s = store.clone();
        let outcome: Rc<std::cell::RefCell<Option<Result<(), StoreError>>>> =
            Rc::new(std::cell::RefCell::new(None));
        let slot = outcome.clone();
        sim.spawn(async move {
            let res = s.wait_visible(US, "never-written", 1).await;
            *slot.borrow_mut() = Some(res);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(store.waiter_count(US), 1, "waiter subscribed pre-outage");
        sim.run_until(SimTime::from_secs(3));
        // Regression (waiter leak): outage entry must cancel the waiter, not
        // strand it past the window.
        assert_eq!(store.waiter_count(US), 0, "outage entry drains waiters");
        match outcome.borrow().clone() {
            Some(Err(StoreError::Unavailable { region, .. })) => assert_eq!(region, US),
            other => panic!("waiter should surface Unavailable, got {other:?}"),
        }
        // Re-armed waits after the heal succeed normally.
        let s = store.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                sim.sleep_until(SimTime::from_secs(6)).await;
                let v = s.put(EU, "k", Bytes::new()).await.unwrap();
                s.wait_visible(US, "k", v).await.unwrap();
            }
        });
        assert_eq!(store.waiter_count(US), 0, "satisfied waiters drain too");
    }

    #[test]
    fn recovery_monitor_does_not_prevent_quiescence() {
        // A store with no faults: sim.run() must terminate even though the
        // monitor task is parked (it holds no timer while the plan is empty).
        let (sim, store) = setup(17);
        let s = store.clone();
        sim.spawn(async move {
            s.put(EU, "k", Bytes::new()).await.unwrap();
        });
        sim.run();
        assert!(store.is_visible(US, "k", 1));
        assert!(store.is_visible(SG, "k", 1));
    }
}
