//! The geo-replicated key-value family, as a facade over the shared
//! replication engine.
//!
//! A [`KvStore`] keeps one replica per region. Writes commit at the origin
//! replica, then replicate asynchronously to every other replica with a lag
//! sampled from the store's [`KvProfile`] — the racing of these per-store
//! lags against notification delivery is precisely what produces the paper's
//! Table 1 / Fig 6 / Fig 7 results. Each replica maintains visibility
//! waiters so shim `wait` implementations can subscribe instead of polling.
//!
//! All shared mechanics (replica state, fan-out, waiters, WAL, hints,
//! repair) live in [`crate::engine::Engine`]; this module contributes only
//! the KV-specific read paths (local, strong) and re-exposes the engine
//! surface under the store's historical API. Failure injection is driven by
//! the simulation's [`antipode_sim::fault::FaultPlan`] (`sim.faults()`),
//! keyed by the store's name.

use std::future::Future;
use std::rc::Rc;

use antipode_sim::dist::Dist;
use antipode_sim::net::Network;
use antipode_sim::{Region, Sim, SimTime};
use bytes::Bytes;

use crate::engine::{Engine, ReplicaHealth};
use crate::probe::VisibilityProbe;
use crate::repair::{RepairConfig, RepairReport, ScrubReport};
use crate::substrate::KvSubstrate;

pub use crate::substrate::StoreError;

/// Latency and replication model for one datastore type.
#[derive(Clone, Debug)]
pub struct KvProfile {
    /// Commit latency at the origin replica.
    pub local_write: Dist,
    /// Local read latency.
    pub local_read: Dist,
    /// Extra replication lag beyond network transit (batching, apply, …).
    pub replication: Dist,
    /// How many one-way network delays a replication message costs.
    pub rtt_hops: f64,
    /// Backoff before retrying a dropped replication message.
    pub retry_interval: Dist,
}

impl Default for KvProfile {
    fn default() -> Self {
        KvProfile {
            local_write: Dist::constant_ms(1.0),
            local_read: Dist::constant_ms(0.5),
            replication: Dist::lognormal_ms(500.0, 0.4),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(200.0),
        }
    }
}

/// A versioned value as stored at one replica.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredValue {
    /// The version the origin assigned to this write.
    pub version: u64,
    /// The stored bytes (shims store [`crate::envelope::Envelope`]s here).
    pub bytes: Bytes,
    /// Virtual time this version became visible at this replica.
    pub visible_at: SimTime,
}

/// A simulated geo-replicated key-value store.
#[derive(Clone)]
pub struct KvStore {
    pub(crate) engine: Engine<KvSubstrate>,
}

impl KvStore {
    /// Creates a store named `name` with one replica per region. The first
    /// region acts as the primary for strongly consistent reads.
    pub fn new(
        sim: &Sim,
        net: Rc<Network>,
        name: impl Into<String>,
        regions: &[Region],
        profile: KvProfile,
    ) -> Self {
        KvStore {
            engine: Engine::new(sim, net, name, regions, KvSubstrate::new(profile)),
        }
    }

    /// Replaces the store's [`crate::recovery::RecoveryConfig`] (WAL and
    /// hinted-handoff knobs). Effective for subsequent operations.
    pub fn set_recovery(&self, cfg: crate::recovery::RecoveryConfig) {
        self.engine.set_recovery(cfg);
    }

    /// The store's name (what write identifiers refer to).
    pub fn name(&self) -> &str {
        self.engine.name()
    }

    /// The regions this store is replicated across.
    pub fn regions(&self) -> &[Region] {
        self.engine.regions()
    }

    /// The primary region (first configured).
    pub fn primary(&self) -> Region {
        self.engine.primary()
    }

    /// Writes `value` under `key` at the replica in `origin`. Commits locally
    /// (after the profile's commit latency), kicks off asynchronous
    /// replication to every other replica, and returns the assigned version.
    ///
    /// Hands out the engine's commit future itself: an `async fn` forwarder
    /// would store every argument twice around it, in each write future of
    /// each request.
    pub fn put<'a>(
        &'a self,
        origin: Region,
        key: &'a str,
        value: Bytes,
    ) -> impl Future<Output = Result<u64, StoreError>> + 'a {
        self.engine.commit(origin, Some(key), value)
    }

    /// Applies a version at a replica directly, bypassing replication.
    /// Test plumbing.
    #[cfg(test)]
    pub(crate) fn apply(&self, region: Region, key: &str, version: u64, value: Bytes) {
        let committed_at = self.engine.sim().now();
        self.engine
            .apply(region, &Rc::from(key), version, value, committed_at);
    }

    /// Queued-but-undelivered replication sends (diagnostics).
    pub fn pending_sends(&self) -> usize {
        self.engine.pending_sends()
    }

    /// Logical length of a replica's write-ahead log: every record appended
    /// and not lost to damage, checkpointed or still resident (diagnostics).
    pub fn wal_len(&self, region: Region) -> usize {
        self.engine.wal_len(region)
    }

    /// Records still in a replica's write-ahead log: the part of
    /// [`KvStore::wal_len`] no checkpoint has dropped yet (diagnostics).
    pub fn wal_resident_len(&self, region: Region) -> usize {
        self.engine.wal_resident_len(region)
    }

    /// Framed bytes of the resident part of a replica's write-ahead log
    /// (diagnostics).
    pub fn wal_byte_len(&self, region: Region) -> usize {
        self.engine.wal_byte_len(region)
    }

    /// Fuzzing hook: overwrites a replica's resident log with arbitrary
    /// bytes, as no scheduled disk fault can; the next crash-restart or
    /// scrub reads them back. See [`crate::wal::WalLog::overwrite`].
    #[doc(hidden)]
    pub fn corrupt_wal(&self, region: Region, image: &[u8]) {
        self.engine.corrupt_wal(region, image);
    }

    /// Integrity standing of a replica: `Healthy`, or `Tainted` when WAL
    /// verification found mid-log corruption and quarantined it (reads
    /// refuse with [`StoreError::IntegrityFault`] until anti-entropy
    /// rejoins it). See [`crate::wal`] and [`crate::repair`].
    pub fn replica_health(&self, region: Region) -> ReplicaHealth {
        self.engine.replica_health(region)
    }

    /// Installs an observation hook invoked at every replica apply; see
    /// [`crate::probe`]. Pass `None` to remove it.
    pub fn set_probe(&self, probe: Option<VisibilityProbe>) {
        self.engine.set_probe(probe);
    }

    /// Writes like [`KvStore::put`] but *synchronously*: returns only once
    /// every replica has applied the write. This is the §3.3 strawman
    /// ("strengthening the guarantees of post-storage to make its
    /// replication synchronous... introduces undesirable delays") — kept for
    /// the ablation that quantifies exactly that delay. The write is still
    /// applied through the normal replication machinery.
    pub async fn put_sync(
        &self,
        origin: Region,
        key: &str,
        value: Bytes,
    ) -> Result<u64, StoreError> {
        let version = self.put(origin, key, value).await?;
        for &region in self.engine.regions() {
            self.wait_visible(region, key, version).await?;
        }
        Ok(version)
    }

    /// Reads the latest locally visible value (regular, possibly stale read).
    pub async fn get(&self, region: Region, key: &str) -> Result<Option<StoredValue>, StoreError> {
        self.engine.check_available(region)?;
        let lat = {
            let mut rng = self.engine.rng().borrow_mut();
            self.engine
                .substrate()
                .profile
                .local_read
                .sample_duration(&mut rng)
        };
        self.engine.sim().sleep(lat).await;
        Ok(self.get_sync(region, key))
    }

    /// Zero-latency read of the local replica, for checks and assertions.
    pub fn get_sync(&self, region: Region, key: &str) -> Option<StoredValue> {
        self.engine.record(region, key).map(|r| StoredValue {
            version: r.version,
            bytes: r.bytes,
            visible_at: r.visible_at,
        })
    }

    /// A strongly consistent read: consults the primary replica, paying a
    /// round trip when the caller is remote. This is how stores like
    /// DynamoDB expose read-after-write (§6.4).
    pub async fn get_strong(
        &self,
        from: Region,
        key: &str,
    ) -> Result<Option<StoredValue>, StoreError> {
        self.engine.check_available(from)?;
        let primary = self.primary();
        self.engine.check_available(primary)?;
        let rtt = {
            let mut rng = self.engine.rng().borrow_mut();
            let go = self.engine.net().delay(&mut *rng, from, primary);
            let back = self.engine.net().delay(&mut *rng, primary, from);
            let read = self
                .engine
                .substrate()
                .profile
                .local_read
                .sample_duration(&mut rng);
            go + back + read
        };
        self.engine.sim().sleep(rtt).await;
        Ok(self.get_sync(primary, key))
    }

    /// Whether `key` has reached at least `version` at `region`.
    pub fn is_visible(&self, region: Region, key: &str, version: u64) -> bool {
        self.engine.is_visible(region, key, version)
    }

    /// Resolves once `key` reaches at least `version` at `region` — the
    /// store-specific `wait` (paper §6.3), implemented by subscription
    /// rather than polling. A replica that goes dark mid-wait surfaces
    /// [`StoreError::Unavailable`] so barrier retry policies can re-arm.
    pub async fn wait_visible(
        &self,
        region: Region,
        key: &str,
        version: u64,
    ) -> Result<(), StoreError> {
        self.engine.wait_visible(region, key, version).await
    }

    /// Congestion injection: adds `lag` to every replication send while set
    /// (pass `None` to clear). Used to model time-correlated congestion
    /// episodes, e.g. MongoDB oplog backlog under WAN stress (§7.3). Thin
    /// wrapper over the [`antipode_sim::fault::FaultPlan`].
    pub fn set_extra_replication_lag(&self, lag: Option<Dist>) {
        self.engine
            .faults()
            .set_replication_lag(self.engine.name(), lag);
    }

    /// Number of pending visibility waiters at a replica (diagnostics).
    pub fn waiter_count(&self, region: Region) -> usize {
        self.engine.waiter_count(region)
    }

    /// Number of queued hinted-handoff entries (diagnostics).
    pub fn pending_hints(&self) -> usize {
        self.engine.pending_hints()
    }

    /// The first version not yet applied at every replica: every write
    /// below it is visible everywhere. A gauge — KV records are state, so
    /// nothing is reclaimed behind it (diagnostics).
    pub fn stable_frontier(&self) -> u64 {
        self.engine.stable_frontier()
    }

    /// Whether every replica holds an identical key→version map; see
    /// [`crate::repair`].
    pub fn converged(&self) -> bool {
        self.engine.converged()
    }

    /// Whether every replica holds byte-identical data (same keys, versions,
    /// *and* stored bytes) — strictly stronger than [`KvStore::converged`];
    /// see [`crate::repair`].
    pub fn converged_bytes(&self) -> bool {
        self.engine.converged_bytes()
    }

    /// One anti-entropy round; see [`crate::repair`].
    pub async fn repair_sweep(&self) -> RepairReport {
        self.engine.repair_sweep().await
    }

    /// One scrub round: re-verify every live replica's WAL checksums,
    /// truncating torn tails and quarantining mid-log corruption; see
    /// [`crate::repair`].
    pub fn scrub_sweep(&self) -> ScrubReport {
        self.engine.scrub_sweep()
    }

    /// Starts the periodic anti-entropy loop; see [`crate::repair`].
    pub fn enable_anti_entropy(&self, cfg: RepairConfig) {
        self.engine.enable_anti_entropy(cfg);
    }

    /// Starts the periodic scrub loop (detection only — pair with
    /// [`KvStore::enable_anti_entropy`] for back-fill and rejoin); see
    /// [`crate::repair`].
    pub fn enable_scrub(&self, cfg: RepairConfig) {
        self.engine.enable_scrub(cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::{EU, SG, US};
    use std::time::Duration;

    fn setup(profile: KvProfile) -> (Sim, KvStore) {
        let sim = Sim::new(7);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(&sim, net, "db", &[EU, US, SG], profile);
        (sim, store)
    }

    fn fast_profile() -> KvProfile {
        KvProfile {
            local_write: Dist::constant_ms(1.0),
            local_read: Dist::constant_ms(0.5),
            replication: Dist::constant_ms(100.0),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(50.0),
        }
    }

    #[test]
    fn local_write_is_immediately_visible_at_origin() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            assert_eq!(v, 1);
            let got = s.get(EU, "k").await.unwrap().unwrap();
            assert_eq!(got.bytes, Bytes::from_static(b"x"));
            assert_eq!(got.version, 1);
        });
    }

    #[test]
    fn remote_read_is_stale_until_replication() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        let sim2 = sim.clone();
        sim.block_on(async move {
            s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            // Immediately after commit: US replica does not have it yet.
            assert!(s.get_sync(US, "k").is_none());
            // After replication lag (~100ms + ~45ms transit) it appears.
            sim2.sleep(Duration::from_millis(500)).await;
            assert!(s.get_sync(US, "k").is_some());
        });
    }

    #[test]
    fn versions_are_monotone_across_keys() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v1 = s.put(EU, "a", Bytes::new()).await.unwrap();
            let v2 = s.put(EU, "b", Bytes::new()).await.unwrap();
            assert!(v2 > v1);
        });
    }

    #[test]
    fn wait_visible_blocks_until_replicated() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        let elapsed = sim.block_on(async move {
            let start = s.engine.sim().now();
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(US, "k", v).await.unwrap();
            assert!(s.is_visible(US, "k", v));
            s.engine.sim().now().since(start)
        });
        assert!(elapsed >= Duration::from_millis(100), "waited {elapsed:?}");
    }

    #[test]
    fn wait_on_already_visible_returns_immediately() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::new()).await.unwrap();
            let before = s.engine.sim().now();
            s.wait_visible(EU, "k", v).await.unwrap();
            assert_eq!(s.engine.sim().now(), before);
        });
    }

    #[test]
    fn superseding_write_satisfies_older_waits() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v1 = s.put(EU, "k", Bytes::from_static(b"one")).await.unwrap();
            let _v2 = s.put(EU, "k", Bytes::from_static(b"two")).await.unwrap();
            // US will receive both; waiting on v1 must succeed even if v2
            // arrives first (superseded, §5.2).
            s.wait_visible(US, "k", v1).await.unwrap();
            let got = s.get_sync(US, "k").unwrap();
            assert!(got.version >= v1);
        });
    }

    #[test]
    fn out_of_order_replication_does_not_clobber() {
        let (sim, store) = setup(fast_profile());
        // Directly exercise apply: newer version first, then older.
        store.apply(US, "k", 5, Bytes::from_static(b"new"));
        store.apply(US, "k", 3, Bytes::from_static(b"old"));
        let got = store.get_sync(US, "k").unwrap();
        assert_eq!(got.version, 5);
        assert_eq!(got.bytes, Bytes::from_static(b"new"));
        drop(sim);
    }

    #[test]
    fn strong_read_sees_unreplicated_write() {
        // Primary is EU (first region).
        let (sim, store) = setup(KvProfile {
            replication: Dist::Constant(60.0), // very slow async replication
            ..fast_profile()
        });
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            // Local US read misses; strong read from US sees it.
            assert!(s.get(US, "k").await.unwrap().is_none());
            let strong = s.get_strong(US, "k").await.unwrap().unwrap();
            assert_eq!(strong.version, v);
        });
    }

    #[test]
    fn unknown_region_errors() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let bogus = Region("nowhere");
            assert_eq!(
                s.put(bogus, "k", Bytes::new()).await.unwrap_err(),
                StoreError::NoSuchRegion(bogus)
            );
            assert!(s.get(bogus, "k").await.is_err());
            assert!(s.wait_visible(bogus, "k", 1).await.is_err());
        });
    }

    #[test]
    fn dropped_replication_retries_and_lands() {
        let (sim, store) = setup(fast_profile());
        // Most attempts dropped, but retried.
        sim.faults().set_replication_drop(store.name(), 0.9);
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            s.wait_visible(US, "k", v).await.unwrap();
        });
        assert!(sim.now().since(SimTime::ZERO) >= Duration::from_millis(100));
    }

    #[test]
    fn paused_replication_stalls_until_resume() {
        let (sim, store) = setup(fast_profile());
        sim.faults().stall_replication(store.name(), US);
        let s = store.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
        });
        sim.run_for(Duration::from_secs(10));
        assert!(
            store.get_sync(US, "k").is_none(),
            "paused replica must not apply"
        );
        sim.spawn(async move {
            sim2.sleep(Duration::from_secs(1)).await;
            sim2.faults().unstall_replication("db", US);
        });
        sim.run_for(Duration::from_secs(5));
        assert!(store.get_sync(US, "k").is_some());
    }

    #[test]
    fn put_sync_returns_only_when_fully_replicated() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put_sync(EU, "k", Bytes::from_static(b"x")).await.unwrap();
            for region in [EU, US, SG] {
                assert!(s.is_visible(region, "k", v), "{region} must be caught up");
            }
        });
        assert!(
            sim.now().since(SimTime::ZERO) >= Duration::from_millis(100),
            "synchronous write must pay the replication delay"
        );
    }

    #[test]
    fn extra_replication_lag_slows_then_clears() {
        let (sim, store) = setup(fast_profile());
        store.set_extra_replication_lag(Some(Dist::Constant(5.0)));
        let s = store.clone();
        let first = sim.block_on({
            let sim = sim.clone();
            async move {
                let start = sim.now();
                let v = s.put(EU, "a", Bytes::new()).await.unwrap();
                s.wait_visible(US, "a", v).await.unwrap();
                sim.now().since(start)
            }
        });
        assert!(first >= Duration::from_secs(5), "congested lag {first:?}");
        store.set_extra_replication_lag(None);
        let s = store.clone();
        let second = sim.block_on({
            let sim = sim.clone();
            async move {
                let start = sim.now();
                let v = s.put(EU, "b", Bytes::new()).await.unwrap();
                s.wait_visible(US, "b", v).await.unwrap();
                sim.now().since(start)
            }
        });
        assert!(second < Duration::from_secs(2), "cleared lag {second:?}");
    }

    #[test]
    fn region_outage_rejects_ops_then_heals() {
        use antipode_sim::fault::FaultKind;
        let (sim, store) = setup(fast_profile());
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(10),
            FaultKind::RegionOutage { region: US },
        );
        let s = store.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                // Writes at a healthy region succeed; US operations fail fast.
                let v = s.put(EU, "k", Bytes::from_static(b"x")).await.unwrap();
                assert!(matches!(
                    s.get(US, "k").await.unwrap_err(),
                    StoreError::Unavailable { .. }
                ));
                assert!(matches!(
                    s.wait_visible(US, "k", v).await.unwrap_err(),
                    StoreError::Unavailable { .. }
                ));
                // Replication into the dark region is held at the boundary…
                sim.sleep(Duration::from_secs(5)).await;
                assert!(s.get_sync(US, "k").is_none());
                // …and lands deterministically once the outage heals.
                sim.sleep_until(SimTime::from_secs(10)).await;
                s.wait_visible(US, "k", v).await.unwrap();
                assert!(s.is_visible(US, "k", v));
            }
        });
    }

    #[test]
    fn partition_window_holds_replication() {
        use antipode_sim::fault::FaultKind;
        let (sim, store) = setup(fast_profile());
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(30),
            FaultKind::Partition { a: EU, b: US },
        );
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::new()).await.unwrap();
            // SG is unaffected by the EU↔US partition.
            s.wait_visible(SG, "k", v).await.unwrap();
            assert!(!s.is_visible(US, "k", v));
            // The partitioned destination catches up right at the heal edge.
            s.wait_visible(US, "k", v).await.unwrap();
            assert!(s.engine.sim().now() >= SimTime::from_secs(30));
        });
    }

    #[test]
    fn visible_at_timestamps_order_with_replication() {
        let (sim, store) = setup(fast_profile());
        let s = store.clone();
        sim.block_on(async move {
            let v = s.put(EU, "k", Bytes::new()).await.unwrap();
            s.wait_visible(US, "k", v).await.unwrap();
            let eu = s.get_sync(EU, "k").unwrap().visible_at;
            let us = s.get_sync(US, "k").unwrap().visible_at;
            assert!(us > eu);
        });
    }
}
