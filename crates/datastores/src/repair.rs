//! Anti-entropy repair: the background convergence mechanism of the
//! recovery plane.
//!
//! Hinted handoff ([`crate::recovery`]) repairs the *common* failure — a
//! suppressed send parks at its origin and flushes at the heal edge. But a
//! hint is volatile state: when the origin replica crash-restarts, its queued
//! hints die with the process, and nothing retries those sends. Anti-entropy
//! closes exactly that gap (plus any other divergence, e.g. the no-handoff
//! ablation) by periodically diffing replica version maps and back-filling
//! stale replicas from whichever live replica holds the newest version —
//! Dynamo-style read-repair run as a sweep.
//!
//! Like the rest of the recovery plane, the sweep is generic over the
//! engine's [`Substrate`], so queue brokers converge under chaos exactly
//! like KV stores; a back-filled queue delivery notifies subscribers and
//! consumer groups like a first-time delivery (the substrate's apply
//! reaction runs).
//!
//! The repair plane also closes the storage-integrity loop (see
//! [`crate::wal`]): the **scrub sweep** re-verifies every live replica's WAL
//! checksums on a cadence, truncating torn tails in place and quarantining
//! replicas whose logs hide mid-log corruption
//! ([`crate::engine::ReplicaHealth::Tainted`]). Anti-entropy then treats
//! quarantined replicas as back-fill *destinations only* — never as repair
//! sources — and, once a tainted replica's data covers everything its
//! healthy peers hold, **rejoins** it: health flips back, the epoch bumps
//! (so anything the dead durability promised is visibly a new incarnation),
//! and the WAL is re-framed from the healed memtable.
//!
//! The sweep is deterministic: replicas are walked in region order and keys
//! in key order, gossip transit is sampled from the store's seeded RNG
//! stream, and the periodic loop *self-terminates* once the store has
//! converged, no hints are queued, and the fault plan schedules no further
//! transitions — so `sim.run()` still quiesces with anti-entropy enabled.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use antipode_sim::{Region, SimTime};
use bytes::Bytes;

use crate::engine::{Engine, Record, ReplicaHealth};
use crate::recovery::WalEntry;
use crate::stats;
use crate::substrate::Substrate;
use crate::waiters::fail_waiters;
use crate::wal::WalFaultKind;

/// Knobs for the periodic anti-entropy loop.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Virtual time between sweeps.
    pub period: Duration,
    /// Hard stop: no sweep runs at or after this instant. Safety valve for
    /// plans that can never converge (e.g. a permanent imperative stall,
    /// which schedules no heal edge the loop could wait for).
    pub horizon: Option<SimTime>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            period: Duration::from_secs(5),
            horizon: None,
        }
    }
}

/// What one repair sweep did (see [`crate::replica::KvStore::repair_sweep`]
/// and [`crate::queue::QueueStore::repair_sweep`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct keys examined across live replicas.
    pub examined: usize,
    /// Stale (replica, key) pairs brought up to the newest live version.
    pub backfilled: usize,
    /// Quarantined replicas that covered the healthy union after this sweep
    /// and rejoined with a bumped epoch.
    pub rejoined: usize,
}

/// What one scrub sweep found (see
/// [`crate::replica::KvStore::scrub_sweep`]): a re-verification of every
/// live replica's WAL checksums against latent disk damage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// WAL records whose checksums re-verified clean.
    pub verified: usize,
    /// Torn tail frames truncated in place (bounded loss, replica stays
    /// healthy — the memtable still holds the live copy).
    pub torn_tails: usize,
    /// Replicas newly quarantined for mid-log checksum mismatches.
    pub quarantined: usize,
}

impl<S: Substrate> Engine<S> {
    /// Whether every replica holds an identical key→version map. Crashed or
    /// dark replicas are compared as-is (a mid-crash replica is empty, so a
    /// store is never "converged" inside a crash window — by design).
    pub(crate) fn converged(&self) -> bool {
        self.replicas_agree(|a, b| a.version == b.version)
    }

    /// Whether every replica holds the first replica's keys and no others,
    /// each with a record `same` as the first's.
    fn replicas_agree(&self, same: impl Fn(&Record, &Record) -> bool) -> bool {
        let replicas = self.inner.replicas.borrow();
        let mut iter = replicas.values();
        let Some(first) = iter.next() else {
            return true;
        };
        iter.all(|state| {
            state.data.len() == first.data.len()
                && first
                    .data
                    .iter()
                    .all(|(key, record)| state.data.get(key).is_some_and(|r| same(r, record)))
        })
    }

    /// One anti-entropy round: diff the version maps of live replicas, pick
    /// the newest copy of every key, and back-fill each stale live replica
    /// whose path from the source is healthy. Pays one sampled gossip
    /// transit (the max over the repair paths used) before applying, and
    /// re-checks every path at apply time — a window edge may have moved
    /// while the messages were in flight.
    ///
    /// Quarantined replicas ([`ReplicaHealth::Tainted`]) are back-fill
    /// *destinations only*: their data never seeds the union (nothing a
    /// corrupt log rehydrated may propagate). Once a tainted replica covers
    /// the healthy union, the sweep rejoins it — see [`RepairReport::rejoined`].
    pub(crate) async fn repair_sweep(&self) -> RepairReport {
        let now = self.sim().now();
        let name = self.name().to_string();
        let live: Vec<Region> = self
            .regions()
            .iter()
            .copied()
            .filter(|&r| !self.substrate().op_blocked(self.faults(), now, &name, r))
            .collect();
        let healthy: Vec<Region> = live
            .iter()
            .copied()
            .filter(|&r| self.replica_health(r) == ReplicaHealth::Healthy)
            .collect();
        // key → (newest version, bytes, commit time, source replica), in
        // key order. Keys and values are shared `Rc`/`Bytes` handles,
        // so snapshotting the union is refcount bumps, not copies.
        let mut union: Vec<(Rc<str>, u64, Bytes, SimTime, Region)> = Vec::new();
        {
            let replicas = self.inner.replicas.borrow();
            let mut newest: std::collections::BTreeMap<&Rc<str>, (u64, &Bytes, SimTime, Region)> =
                std::collections::BTreeMap::new();
            for &r in &healthy {
                let Some(state) = replicas.get(&r) else {
                    continue;
                };
                for (k, v) in state.data.iter() {
                    let stale = newest.get(k).map(|(ver, _, _, _)| *ver < v.version);
                    if stale.unwrap_or(true) {
                        newest.insert(k, (v.version, &v.bytes, v.committed_at, r));
                    }
                }
            }
            for (k, (ver, bytes, committed_at, src)) in newest {
                union.push((Rc::clone(k), ver, bytes.clone(), committed_at, src));
            }
        }
        let examined = union.len();
        // Plan the back-fills against the snapshot. A pair whose path the
        // substrate reports suppressed (stall, pause, partition, outage) is
        // skipped this round; the next sweep retries it.
        let mut plan: Vec<(Region, Region, Rc<str>, u64, Bytes, SimTime)> = Vec::new();
        for &dest in &live {
            for (key, ver, bytes, committed_at, src) in &union {
                if dest == *src
                    || self
                        .substrate()
                        .send_suppressed(self.faults(), now, &name, *src, dest)
                {
                    continue;
                }
                let dest_ver = self.record(dest, key).map(|v| v.version).unwrap_or(0);
                if dest_ver < *ver {
                    plan.push((
                        *src,
                        dest,
                        Rc::clone(key),
                        *ver,
                        bytes.clone(),
                        *committed_at,
                    ));
                }
            }
        }
        if plan.is_empty() {
            let rejoined = self.try_rejoin(&union);
            return RepairReport {
                examined,
                backfilled: 0,
                rejoined,
            };
        }
        // One gossip round: the sweep completes when the slowest repair path
        // delivers. Paths are sampled in sorted order for determinism.
        let pairs: BTreeSet<(Region, Region)> =
            plan.iter().map(|(src, dest, ..)| (*src, *dest)).collect();
        let transit = {
            let mut rng = self.rng().borrow_mut();
            pairs
                .iter()
                .map(|&(src, dest)| {
                    self.net()
                        .delay_faulted(&mut *rng, src, dest, self.faults(), now)
                })
                .max()
                .unwrap_or_default()
        };
        self.sim().sleep(transit).await;
        let arrive = self.sim().now();
        let mut backfilled = 0usize;
        for (src, dest, key, ver, bytes, committed_at) in plan {
            // Re-check at delivery: a fault window may have opened (message
            // lost) and a concurrent apply may have superseded the repair.
            if self
                .substrate()
                .send_suppressed(self.faults(), arrive, &name, src, dest)
                || self.faults().replica_crashed(arrive, &name, dest)
            {
                continue;
            }
            if !self.is_visible(dest, &key, ver) {
                self.apply(dest, &key, ver, bytes, committed_at);
                backfilled += 1;
            }
        }
        let rejoined = self.try_rejoin(&union);
        RepairReport {
            examined,
            backfilled,
            rejoined,
        }
    }

    /// Rejoins every quarantined replica whose memtable now covers the
    /// healthy union snapshot: health flips back, the crash epoch bumps (the
    /// old incarnation's durability promises are dead — in-flight work keyed
    /// to them must not resume silently), and the WAL is re-framed from the
    /// healed memtable so the replica's durable truth is clean again.
    fn try_rejoin(&self, union: &[(Rc<str>, u64, Bytes, SimTime, Region)]) -> usize {
        let mut rejoined = 0usize;
        let mut replicas = self.inner.replicas.borrow_mut();
        for state in replicas.values_mut() {
            if state.health != ReplicaHealth::Tainted {
                continue;
            }
            let covered = union.iter().all(|(key, ver, ..)| {
                state
                    .data
                    .get(key)
                    .map(|r| r.version >= *ver)
                    .unwrap_or(false)
            });
            if !covered {
                continue;
            }
            state.epoch += 1;
            // The image's record order is observable (a scan, a replay, a
            // torn tail all read it front to back): key order, not the
            // table's row order.
            let entries: Vec<WalEntry> = state
                .data
                .iter_sorted()
                .into_iter()
                .map(|(k, r)| WalEntry {
                    key: Rc::clone(k),
                    version: r.version,
                    bytes: r.bytes.clone(),
                    visible_at: r.visible_at,
                    committed_at: r.committed_at,
                })
                .collect();
            state.wal.rebuild(entries.iter());
            state.rebuild_wal_index(entries.iter());
            state.health = ReplicaHealth::Healthy;
            rejoined += 1;
        }
        rejoined
    }

    /// One scrub round: re-verify every live replica's WAL checksums,
    /// truncating torn tails in place (the memtable still holds the live
    /// copy — no quarantine for a bounded, known loss) and quarantining
    /// replicas whose logs hide mid-log corruption. Crashed replicas are
    /// skipped: the process is dead, and restart replay verifies their logs
    /// at the heal edge anyway. Synchronous — scrubbing reads local disk,
    /// not the network.
    pub(crate) fn scrub_sweep(&self) -> ScrubReport {
        let now = self.sim().now();
        let name = self.name().to_string();
        let verify = self.inner.recovery.get().verify_checksums;
        let mut report = ScrubReport::default();
        let newly_tainted: Vec<Region> = {
            let mut replicas = self.inner.replicas.borrow_mut();
            let mut newly_tainted = Vec::new();
            for (&region, state) in replicas.iter_mut() {
                if self.inner.faults.replica_crashed(now, &name, region) {
                    continue;
                }
                let (scan, fault) = state.verify_wal(verify);
                report.verified += scan.entries.len();
                stats::count_scrub_records(scan.entries.len() as u64);
                match fault {
                    None => {}
                    Some(WalFaultKind::TornFrame) => report.torn_tails += 1,
                    Some(WalFaultKind::ChecksumMismatch) => {
                        if state.health != ReplicaHealth::Tainted {
                            newly_tainted.push(region);
                        }
                        state.health = ReplicaHealth::Tainted;
                        report.quarantined += 1;
                    }
                }
            }
            newly_tainted
        };
        // Waiters parked at a replica that just entered quarantine surface
        // the integrity fault (KV) or silently resubscribe (queues) — the
        // same hygiene dark-replica edges get.
        for region in newly_tainted {
            let cancelled = {
                let mut replicas = self.inner.replicas.borrow_mut();
                match replicas.get_mut(&region) {
                    Some(state) => state.waiters.drain_all(),
                    None => continue,
                }
            };
            fail_waiters(cancelled, self.integrity_fault(region));
        }
        report
    }

    /// Whether every replica is [`ReplicaHealth::Healthy`]. The periodic
    /// loops refuse to self-terminate while any replica sits in quarantine —
    /// a tainted replica at quiescence would mean the plane detected damage
    /// and then abandoned the repair.
    pub(crate) fn all_healthy(&self) -> bool {
        self.inner
            .replicas
            .borrow()
            .values()
            .all(|state| state.health == ReplicaHealth::Healthy)
    }

    /// Starts the periodic scrub loop. When a sweep quarantines a replica —
    /// or any replica is still tainted from an earlier restart replay — the
    /// loop immediately runs a repair sweep rather than waiting out the
    /// anti-entropy cadence: scrub *detects*, and detection without repair
    /// would strand the quarantine if the anti-entropy loop already
    /// self-terminated. The loop itself self-terminates once a sweep finds
    /// no new damage, every replica is healthy, and the fault plan schedules
    /// no further transitions (no window left that could inject more) — so
    /// enabling scrub never prevents the simulation from quiescing.
    pub(crate) fn enable_scrub(&self, cfg: RepairConfig) {
        let engine = self.clone();
        self.sim().clone().spawn(async move {
            loop {
                engine.sim().sleep(cfg.period).await;
                if cfg.horizon.is_some_and(|h| engine.sim().now() >= h) {
                    break;
                }
                let report = engine.scrub_sweep();
                if report.quarantined > 0 || !engine.all_healthy() {
                    engine.repair_sweep().await;
                }
                if report.torn_tails == 0
                    && report.quarantined == 0
                    && engine.all_healthy()
                    && engine
                        .faults()
                        .next_transition_after(engine.sim().now())
                        .is_none()
                {
                    break;
                }
            }
        });
    }

    /// Whether every replica holds byte-identical data: same keys, same
    /// versions, same stored bytes. Strictly stronger than
    /// [`Engine::converged`] — the integrity property tests use it to show
    /// post-storm convergence is not just version agreement but value
    /// agreement.
    pub(crate) fn converged_bytes(&self) -> bool {
        self.replicas_agree(|a, b| a.version == b.version && a.bytes == b.bytes)
    }

    /// Starts the periodic anti-entropy loop. The loop self-terminates when
    /// the store has converged, no hints are queued, and the fault plan has
    /// no scheduled transitions left — so enabling repair never prevents the
    /// simulation from quiescing. `cfg.horizon` bounds pathological plans
    /// that can never converge.
    pub(crate) fn enable_anti_entropy(&self, cfg: RepairConfig) {
        let engine = self.clone();
        self.sim().clone().spawn(async move {
            loop {
                engine.sim().sleep(cfg.period).await;
                let now = engine.sim().now();
                if cfg.horizon.is_some_and(|h| now >= h) {
                    break;
                }
                engine.repair_sweep().await;
                let after = engine.sim().now();
                if engine.converged()
                    && engine.all_healthy()
                    && engine.pending_hints() == 0
                    && engine.faults().next_transition_after(after).is_none()
                {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::dist::Dist;
    use antipode_sim::fault::FaultKind;
    use antipode_sim::net::regions::{EU, SG, US};
    use antipode_sim::net::Network;
    use antipode_sim::Sim;
    use std::rc::Rc;

    use crate::queue::{QueueProfile, QueueStore};
    use crate::recovery::RecoveryConfig;
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
    fn converged_after_normal_replication() {
        let (sim, store) = setup(21);
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(US, "k", v).await.unwrap();
            s.wait_visible(SG, "k", v).await.unwrap();
        });
        assert!(store.converged());
        assert_eq!(store.pending_hints(), 0);
    }

    #[test]
    fn single_sweep_backfills_dropped_sends() {
        let (sim, store) = setup(22);
        // No handoff: the partitioned EU→US send is dropped outright…
        store.set_recovery(RecoveryConfig {
            hinted_handoff: false,
            ..RecoveryConfig::default()
        });
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(5),
            FaultKind::Partition { a: EU, b: US },
        );
        let s = store.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
                s.wait_visible(SG, "k", v).await.unwrap();
                sim.sleep_until(SimTime::from_secs(10)).await;
                assert!(!s.is_visible(US, "k", v), "dropped send never retried");
                // …until one repair sweep diffs the replicas and back-fills.
                let report = s.repair_sweep().await;
                assert_eq!(report.examined, 1);
                assert_eq!(report.backfilled, 1);
                assert!(s.is_visible(US, "k", v));
            }
        });
        assert!(store.converged());
    }

    #[test]
    fn sweep_skips_blocked_paths_and_crashed_replicas() {
        let (sim, store) = setup(23);
        store.set_recovery(RecoveryConfig::disabled());
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::Partition { a: EU, b: US },
        );
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(100),
            FaultKind::Partition { a: SG, b: US },
        );
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(SG, "k", v).await.unwrap();
            // Every path into US is partitioned: the sweep must not repair
            // through a blocked link.
            let report = s.repair_sweep().await;
            assert_eq!(report.backfilled, 0);
            assert!(!s.is_visible(US, "k", v));
        });
    }

    #[test]
    fn anti_entropy_recovers_hints_lost_to_origin_crash() {
        let (sim, store) = setup(24);
        // EU↔US and SG↔US both partitioned, so the only copy of the write's
        // pending send to US is the hint queued at EU…
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(30),
            FaultKind::Partition { a: EU, b: US },
        );
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(30),
            FaultKind::Partition { a: SG, b: US },
        );
        // …and the EU crash at [5s, 10s) destroys that hint.
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: EU,
            },
        );
        store.enable_anti_entropy(RepairConfig {
            period: Duration::from_secs(2),
            horizon: None,
        });
        let s = store.clone();
        sim.spawn(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(SG, "k", v).await.unwrap();
        });
        // The loop self-terminates once converged, so run() quiesces.
        sim.run();
        assert_eq!(store.pending_hints(), 0, "crash destroyed the hint");
        assert!(
            store.is_visible(US, "k", 1),
            "anti-entropy back-filled the write handoff lost"
        );
        assert!(store.is_visible(EU, "k", 1), "WAL replay restored EU");
        assert!(store.converged());
    }

    async fn seed_three_keys(s: &KvStore) {
        for (k, v) in [
            ("k1", &b"value-one"[..]),
            ("k2", &b"value-two"[..]),
            ("k3", &b"value-three"[..]),
        ] {
            let ver = s.put(EU, k, Bytes::copy_from_slice(v)).await.unwrap();
            s.wait_visible(US, k, ver).await.unwrap();
            s.wait_visible(SG, k, ver).await.unwrap();
        }
    }

    #[test]
    fn bitflip_quarantines_at_restart_and_anti_entropy_rejoins() {
        use crate::engine::ReplicaHealth;
        use antipode_sim::fault::DiskFaultKind;

        let (sim, store) = setup(27);
        let s = store.clone();
        sim.block_on(async move { seed_three_keys(&s).await });
        assert_eq!(store.wal_len(US), 3);
        // Bit rot strikes the US log at 4s; the crash-restart at [5s, 8s)
        // forces replay to read the damaged bytes.
        sim.faults().schedule(
            SimTime::from_secs(4),
            SimTime::from_secs(5),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::BitFlip { offset_seed: 3 },
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
        assert_eq!(store.replica_health(US), ReplicaHealth::Tainted);
        let epoch_before = store.engine.replica_epoch(US);
        let s = store.clone();
        let report = sim.block_on(async move {
            // Quarantined reads refuse rather than serve unbounded loss.
            assert!(matches!(
                s.get(US, "k1").await.unwrap_err(),
                StoreError::IntegrityFault { .. }
            ));
            assert!(matches!(
                s.put(US, "kx", Bytes::new()).await.unwrap_err(),
                StoreError::IntegrityFault { .. }
            ));
            s.repair_sweep().await
        });
        assert_eq!(report.rejoined, 1, "back-fill covered the union: rejoin");
        assert_eq!(store.replica_health(US), ReplicaHealth::Healthy);
        assert!(
            store.engine.replica_epoch(US) > epoch_before,
            "rejoin is a new incarnation"
        );
        assert!(store.converged_bytes());
        assert_eq!(
            store.wal_len(US),
            3,
            "the WAL was re-framed from the healed memtable"
        );
        let s = store.clone();
        sim.block_on(async move {
            let got = s.get(US, "k1").await.unwrap().unwrap();
            assert_eq!(got.bytes, Bytes::from_static(b"value-one"));
        });
    }

    #[test]
    fn rejoin_reframes_the_log_in_key_order_and_a_restart_reproduces_the_table() {
        use crate::engine::ReplicaHealth;
        use antipode_sim::fault::DiskFaultKind;

        let (sim, store) = setup(30);
        // Forty keys written in an order that is neither key order nor, once
        // some are overwritten and back-filled, any replica's row order.
        let keys: Vec<String> = (0..40u32)
            .map(|i| format!("k{:02}", (i * 17) % 40))
            .collect();
        let s = store.clone();
        let ks = keys.clone();
        sim.block_on(async move {
            for k in ks.iter().chain(&ks[..7]) {
                s.put(EU, k, Bytes::from(format!("value of {k}")))
                    .await
                    .unwrap();
            }
        });
        sim.run_until(SimTime::from_secs(3));
        assert!(store.converged_bytes());
        sim.faults().schedule(
            SimTime::from_secs(4),
            SimTime::from_secs(5),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::BitFlip { offset_seed: 3 },
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
        assert_eq!(store.replica_health(US), ReplicaHealth::Tainted);
        assert!(!store.converged_bytes(), "the rotted suffix did not replay");

        let s = store.clone();
        let report = sim.block_on(async move { s.repair_sweep().await });
        assert!(report.backfilled > 0);
        assert_eq!(report.rejoined, 1);
        assert!(store.converged_bytes());
        let logged: Vec<Rc<str>> = {
            let mut replicas = store.engine.inner.replicas.borrow_mut();
            let scan = replicas.get_mut(&US).unwrap().wal.scan(true);
            assert!(scan.fault.is_none());
            scan.entries.into_iter().map(|e| e.key).collect()
        };
        assert_eq!(logged.len(), keys.len(), "one record per key of the table");
        assert!(
            logged.windows(2).all(|w| w[0] < w[1]),
            "the re-framed log is in key order: {logged:?}"
        );

        // The proof that the image is the table: wipe the table and replay.
        sim.faults().schedule(
            SimTime::from_secs(20),
            SimTime::from_secs(22),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        sim.run_until(SimTime::from_secs(21));
        assert!(store.get_sync(US, "k00").is_none(), "the crash wiped US");
        sim.run_until(SimTime::from_secs(23));
        assert_eq!(store.replica_health(US), ReplicaHealth::Healthy);
        assert!(store.converged_bytes());
    }

    #[test]
    fn scrub_detects_latent_bitrot_before_any_crash() {
        use crate::engine::ReplicaHealth;
        use antipode_sim::fault::DiskFaultKind;

        let (sim, store) = setup(28);
        let s = store.clone();
        sim.block_on(async move { seed_three_keys(&s).await });
        sim.faults().schedule(
            SimTime::from_secs(4),
            SimTime::from_secs(5),
            FaultKind::DiskFault {
                store: "db".into(),
                region: SG,
                fault: DiskFaultKind::BitFlip { offset_seed: 3 },
            },
        );
        sim.run_until(SimTime::from_secs(6));
        // The damage is latent: nothing re-read the log yet.
        assert_eq!(store.replica_health(SG), ReplicaHealth::Healthy);
        let scrub = store.scrub_sweep();
        assert_eq!(scrub.quarantined, 1, "scrub finds the rot");
        assert_eq!(store.replica_health(SG), ReplicaHealth::Tainted);
        // The memtable never crashed, so it already covers the healthy
        // union: one sweep rejoins without back-filling anything.
        let s = store.clone();
        let report = sim.block_on(async move { s.repair_sweep().await });
        assert_eq!(report.backfilled, 0);
        assert_eq!(report.rejoined, 1);
        assert_eq!(store.replica_health(SG), ReplicaHealth::Healthy);
        assert!(store.converged_bytes());
        // The rebuilt log re-verifies clean end to end (3 records at each
        // of the three replicas).
        let clean = store.scrub_sweep();
        assert_eq!(clean.verified, 9);
        assert_eq!(clean.torn_tails, 0);
        assert_eq!(clean.quarantined, 0);
    }

    #[test]
    fn scrub_loop_self_terminates_and_heals_with_anti_entropy() {
        use crate::engine::ReplicaHealth;
        use antipode_sim::fault::DiskFaultKind;

        let (sim, store) = setup(29);
        store.enable_scrub(RepairConfig {
            period: Duration::from_secs(3),
            horizon: None,
        });
        store.enable_anti_entropy(RepairConfig {
            period: Duration::from_secs(4),
            horizon: None,
        });
        sim.faults().schedule(
            SimTime::from_secs(6),
            SimTime::from_secs(7),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::BitFlip { offset_seed: 5 },
            },
        );
        let s = store.clone();
        sim.spawn(async move { seed_three_keys(&s).await });
        // Both loops self-terminate, so run() quiesces — and by then the
        // scrub has detected, anti-entropy has healed, and the store is
        // byte-identical everywhere.
        sim.run();
        assert_eq!(store.replica_health(US), ReplicaHealth::Healthy);
        assert!(store.converged_bytes());
        let clean = store.scrub_sweep();
        assert_eq!(clean.torn_tails + clean.quarantined, 0);
    }

    #[test]
    fn horizon_stops_a_plan_that_cannot_converge() {
        let (sim, store) = setup(25);
        store.set_recovery(RecoveryConfig::disabled());
        // Imperative stall: no scheduled heal edge exists, so without the
        // horizon the loop would sweep forever and run() would never return.
        sim.faults().stall_replication(store.name(), US);
        store.enable_anti_entropy(RepairConfig {
            period: Duration::from_secs(1),
            horizon: Some(SimTime::from_secs(20)),
        });
        let s = store.clone();
        sim.spawn(async move {
            s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
        });
        sim.run();
        assert!(sim.now() <= SimTime::from_secs(21));
        assert!(!store.is_visible(US, "k", 1), "stalled replica stays stale");
    }

    #[test]
    fn queue_sweep_backfills_and_notifies_consumers() {
        // Queue-family parity: a delivery lost to the no-handoff ablation is
        // back-filled by one sweep, and the back-fill notifies subscribers.
        let sim = Sim::new(26);
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
        q.set_recovery(RecoveryConfig {
            hinted_handoff: false,
            ..RecoveryConfig::default()
        });
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(5),
            FaultKind::Partition { a: EU, b: US },
        );
        let q2 = q.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let mut sub = q2.subscribe(US).unwrap();
                let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
                q2.wait_visible(EU, id).await.unwrap();
                sim.sleep_until(SimTime::from_secs(10)).await;
                assert!(!q2.is_visible(US, id), "dropped delivery never retried");
                let report = q2.repair_sweep().await;
                assert_eq!(report.backfilled, 1);
                assert!(q2.is_visible(US, id));
                // The back-fill fanned out to the subscriber like a normal
                // delivery.
                let got = sub.recv().await.unwrap();
                assert_eq!(got.id, id);
                assert_eq!(got.payload, Bytes::from_static(b"m"));
            }
        });
        assert!(q.converged());
    }
}
