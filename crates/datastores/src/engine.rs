//! The shared replication engine underlying both store families.
//!
//! One [`Engine`] owns everything [`crate::replica::KvStore`] and
//! [`crate::queue::QueueStore`] used to implement twice: per-region replica
//! state with crash epochs, the commit → fan-out → apply pipeline with
//! fault-plan consultation at every step, visibility watermarks and waiter
//! registration/cancellation, [`crate::probe::VisibilityProbe`] emission,
//! WAL append/replay, hinted-handoff queuing/flush, and the anti-entropy
//! sweep hooks ([`crate::recovery`], [`crate::repair`] extend the engine
//! with the recovery plane — generically, for both families).
//!
//! Family-specific behavior is delegated to the engine's
//! [`crate::substrate::Substrate`]: admission policy (reject vs block on
//! faults), latency sampling from the family profile, which fault predicates
//! gate a send, and the local reaction to an apply (probe emission vs
//! pub/sub fan-out).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use antipode_sim::net::Network;
use antipode_sim::rng::SimRng;
use antipode_sim::sync::oneshot;
use antipode_sim::{Region, Sim, SimTime};
use bytes::Bytes;

use crate::fanout::PairQueue;
use crate::probe::{VisibilityEvent, VisibilityProbe};
use crate::recovery::{Hint, RecoveryConfig, WalEntry};
use crate::stats;
use crate::substrate::{stream_name, Admission, ApplyCtx, StoreError, Substrate};
use crate::table::{Entry, Table};
use crate::waiters::WaiterIndex;
use crate::wal::{WalFaultKind, WalLog, WalScan, CHECKPOINT_INTERVAL};

/// A record as held by one engine replica. The KV facade re-exposes this as
/// [`crate::replica::StoredValue`]; the queue facade reads it back as a
/// [`crate::queue::QueueMessage`].
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The version the origin assigned (message id for the queue family).
    pub version: u64,
    /// The stored bytes.
    pub bytes: Bytes,
    /// Virtual time this record became visible at this replica.
    pub visible_at: SimTime,
    /// Virtual time the write committed at its origin (preserved across
    /// hint flushes, WAL replay, and anti-entropy back-fills).
    pub committed_at: SimTime,
}

/// Integrity standing of one replica, as judged by WAL verification (crash
/// replay or a scrub sweep). Exposed through
/// [`crate::replica::KvStore::replica_health`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// The replica's log verified clean (torn tails count as clean after
    /// truncation — the loss is bounded and known).
    #[default]
    Healthy,
    /// WAL verification found mid-log corruption the replica cannot bound:
    /// reads are refused with [`StoreError::IntegrityFault`] until
    /// anti-entropy back-fills the replica and it rejoins with a bumped
    /// epoch (see [`crate::repair`]).
    Tainted,
}

/// The versions one replica has applied: a contiguous prefix plus a bitmap
/// of the out-of-order arrivals above it. The bitmap is a ring of words
/// that slides with the prefix, so a mark allocates only when the window
/// of in-flight versions outgrows every window before it.
///
/// The prefix is volatile like the memtable: a restart rebuilds it from
/// what survived ([`ReplicaState::rebuild_applied`]), so a replica never
/// claims a version it lost.
pub(crate) struct AppliedPrefix {
    /// Every version below this was applied. Versions start at 1.
    below: u64,
    /// Bit `v % 64` of word `v / 64 - below / 64`: version `v` was applied.
    above: VecDeque<u64>,
}

impl Default for AppliedPrefix {
    fn default() -> Self {
        AppliedPrefix::starting_at(1)
    }
}

impl AppliedPrefix {
    fn starting_at(below: u64) -> Self {
        AppliedPrefix {
            below: below.max(1),
            above: VecDeque::new(),
        }
    }

    /// The first version not known to be applied.
    pub(crate) fn below(&self) -> u64 {
        self.below
    }

    /// Records `version` as applied. A version at or above `unassigned` is
    /// one this store never committed (test plumbing, a rotted log record
    /// replayed with verification off): it can never join the prefix and
    /// must not size the bitmap, so it is ignored.
    fn mark(&mut self, version: u64, unassigned: u64) {
        if version < self.below || version >= unassigned {
            return;
        }
        let word = (version / 64 - self.below / 64) as usize;
        if word >= self.above.len() {
            self.above.resize(word + 1, 0);
        }
        self.above[word] |= 1 << (version % 64);
        // Slide the prefix over every contiguous applied bit.
        while let Some(&front) = self.above.front() {
            let bit = self.below % 64;
            let run = u64::from((!(front >> bit)).trailing_zeros()).min(64 - bit);
            self.below += run;
            if bit + run < 64 {
                break;
            }
            self.above.pop_front();
        }
    }
}

#[derive(Default)]
pub(crate) struct ReplicaState {
    /// The table. Records that became visible before `flushed_at` are
    /// durable in it; the rest are volatile and live on in the WAL.
    pub(crate) data: Table<Record>,
    /// Parked [`Engine::wait_visible`] subscriptions; see [`crate::waiters`]
    /// for the wake-order contract.
    pub(crate) waiters: WaiterIndex,
    /// Deterministic per-replica write-ahead log: every apply that changed
    /// the memtable, in apply order — plus, for deferred-apply families
    /// (queues), the commit itself. Framed and checksummed per record (see
    /// [`crate::wal`]); crash-restart replays the verified prefix (see
    /// [`crate::recovery`]); disabled per [`RecoveryConfig`].
    pub(crate) wal: WalLog,
    /// Newest logged version per key, so the commit-time append and the
    /// local delivery's apply never double-log one publish. Rebuilt from
    /// the surviving records whenever replay truncates the log, so the
    /// index never vouches for a frame that corruption took.
    pub(crate) wal_index: Table<u64>,
    /// Bumped on every crash; in-flight sends capture the origin epoch and
    /// abort when it moved (the sending process died).
    pub(crate) epoch: u64,
    /// Quarantine flag; see [`ReplicaHealth`].
    pub(crate) health: ReplicaHealth,
    /// The instant of the last checkpoint
    /// ([`ReplicaState::checkpoint_if_due`]):
    /// a crash keeps the records that were visible before it. Zero until
    /// the first checkpoint — then a crash keeps nothing.
    pub(crate) flushed_at: SimTime,
    /// Which versions this replica has applied; the store's stable
    /// frontier is the minimum of the prefixes ([`Engine::stable_frontier`]).
    pub(crate) applied: AppliedPrefix,
    /// Reclaiming families only: every version below this was applied at
    /// every replica and its record dropped here. Durable metadata, like
    /// acks: visibility of a collected version is answered from it, and an
    /// apply or a replay of one is a no-op.
    pub(crate) collected_below: u64,
}

impl ReplicaState {
    /// Appends `entry` to the WAL unless this key is already logged at
    /// `entry.version` or newer. The index survives crashes with the WAL
    /// (both model durable storage). Keys are shared `Rc<str>`s, so the
    /// index entry is a refcount bump, not a string copy.
    pub(crate) fn wal_append(&mut self, entry: WalEntry) {
        // Before the dedupe: a checkpoint rebuilds the index.
        self.checkpoint_if_due(entry.visible_at, false);
        match self.wal_index.entry(&entry.key) {
            Entry::Occupied(logged) => {
                if *logged >= entry.version {
                    return;
                }
                *logged = entry.version;
            }
            Entry::Vacant(slot) => {
                slot.insert(entry.version);
            }
        }
        self.log(entry);
    }

    fn log(&mut self, entry: WalEntry) {
        let framed = self.wal.append(entry);
        stats::count_wal_append(framed as u64);
        stats::note_wal_resident(self.wal.resident_len() as u64);
    }

    /// The flush, once a [`CHECKPOINT_INTERVAL`] of appends has gone by: at
    /// `now`, the table as it stood before this instant becomes durable in
    /// place, and the log keeps only what that table cannot vouch for.
    ///
    /// Entries of this very instant stay (their records are not `<
    /// now`). Where every append follows its memtable insert (`fresh`)
    /// nothing else can be missing from the table, so the instant alone
    /// decides and no record is looked up. Otherwise the log also holds
    /// commits whose delivery has not landed here yet — the only durable
    /// copy of those publishes — so an entry goes only if the table holds
    /// its record from before `now`, or it was collected; the dedupe index
    /// is rebuilt over the entries that stay, which are the only keys it
    /// can still be asked about (an apply of a record the table holds is
    /// not a new insert and never reaches the index).
    ///
    /// A key overwritten since the flush whose newer record turns out not
    /// to be replayable (a lost append, a torn tail) restarts absent rather
    /// than at the flushed version: the table is flushed in place, not
    /// copied. Anti-entropy back-fills it like any other bounded loss.
    fn checkpoint_if_due(&mut self, now: SimTime, fresh: bool) {
        if !self.wal.checkpoint_due() {
            return;
        }
        let ReplicaState {
            wal,
            wal_index,
            data,
            collected_below,
            ..
        } = self;
        if fresh {
            wal.checkpoint(|e| e.visible_at >= now);
        } else {
            wal_index.clear();
            wal.checkpoint(|e| {
                let flushed = e.version < *collected_below
                    || data
                        .get(&e.key)
                        .is_some_and(|r| r.version >= e.version && r.visible_at < now);
                if !flushed {
                    wal_index.insert(Rc::clone(&e.key), e.version);
                }
                !flushed
            });
        }
        self.flushed_at = now;
        stats::count_wal_checkpoints(1);
    }

    /// Appends without consulting the dedupe index. Sound only for appends
    /// that follow a memtable advancement in a family that never pre-logs
    /// at commit (`origin_applies_at_commit()`): there every logged version
    /// tracks the data version exactly, so the index could never dedupe —
    /// its probe is pure hot-path overhead. Deferred-apply families
    /// (queues) log the commit before the delivery applies and must go
    /// through [`ReplicaState::wal_append`].
    pub(crate) fn wal_append_fresh(&mut self, entry: WalEntry) {
        self.checkpoint_if_due(entry.visible_at, true);
        self.log(entry);
    }

    /// Whether `key` is visible here at `version` or newer: the table holds
    /// it, or the version was collected (then every replica applied it).
    pub(crate) fn holds(&self, key: &str, version: u64) -> bool {
        version < self.collected_below || self.data.get(key).is_some_and(|r| r.version >= version)
    }

    /// Rebuilds the applied prefix after a restart, from the collected
    /// watermark and the records the table ended up with.
    pub(crate) fn rebuild_applied(&mut self, unassigned: u64) {
        self.applied = AppliedPrefix::starting_at(self.collected_below);
        for (_, record) in self.data.iter() {
            self.applied.mark(record.version, unassigned);
        }
    }

    /// The one way a replica verifies its log: walks the resident frames
    /// (checking checksums when `verify`) and, on a fault, truncates the log
    /// to the verified prefix and rebuilds the dedupe index over it. Returns
    /// the scan and the kind of fault it stopped at. An intact log, and the
    /// index that tracks it, are left as they were.
    pub(crate) fn verify_wal(&mut self, verify: bool) -> (WalScan, Option<WalFaultKind>) {
        let scan = self.wal.scan(verify);
        let fault = scan.fault.map(|f| f.kind);
        if fault.is_some() {
            self.wal.truncate_to(&scan);
            self.rebuild_wal_index(scan.entries.iter());
        }
        (scan, fault)
    }

    /// Rebuilds the dedupe index from an authoritative record set — called
    /// whenever the log itself was truncated or rewritten, so the index
    /// never vouches for a version the log no longer holds (a stale entry
    /// would make the dedupe append skip re-logging it, turning a bounded
    /// truncation into a permanent durability hole on the next crash).
    pub(crate) fn rebuild_wal_index<'a>(&mut self, entries: impl Iterator<Item = &'a WalEntry>) {
        self.wal_index.clear();
        for entry in entries {
            let logged = self
                .wal_index
                .entry(&entry.key)
                .or_insert_with(|| entry.version);
            if *logged < entry.version {
                *logged = entry.version;
            }
        }
    }
}

/// The minimum of the replicas' applied prefixes.
fn min_applied_prefix(replicas: &BTreeMap<Region, ReplicaState>) -> u64 {
    replicas
        .values()
        .map(|state| state.applied.below())
        .min()
        .unwrap_or(0)
}

pub(crate) struct EngineInner<S: Substrate> {
    pub(crate) name: String,
    pub(crate) sim: Sim,
    pub(crate) net: Rc<Network>,
    pub(crate) regions: Vec<Region>,
    pub(crate) substrate: S,
    pub(crate) replicas: RefCell<BTreeMap<Region, ReplicaState>>,
    pub(crate) next_version: Cell<u64>,
    pub(crate) rng: RefCell<SimRng>,
    /// The simulation-wide chaos schedule; every fault the engine observes
    /// (drops, stalls, partitions, outages, congestion, crashes) comes from
    /// here.
    pub(crate) faults: antipode_sim::fault::FaultPlan,
    /// Recovery knobs (WAL, hinted handoff); see [`crate::recovery`].
    pub(crate) recovery: Cell<RecoveryConfig>,
    /// Hinted-handoff queue: sends suppressed by a fault, parked at their
    /// origin until the path heals. Flushed by the recovery monitor.
    pub(crate) hints: RefCell<Vec<Hint>>,
    /// Optional observation hook for dynamic analysis (race detection).
    pub(crate) probe: RefCell<Option<VisibilityProbe>>,
    /// Per-(origin, dest) send queues; see [`crate::fanout`].
    pub(crate) pairs: RefCell<BTreeMap<(Region, Region), PairQueue>>,
}

/// The shared replication engine; see the module docs. Parameterized by the
/// store family's [`Substrate`].
pub struct Engine<S: Substrate> {
    pub(crate) inner: Rc<EngineInner<S>>,
}

impl<S: Substrate> Clone for Engine<S> {
    fn clone(&self) -> Self {
        Engine {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<S: Substrate> Engine<S> {
    /// Creates an engine named `name` with one replica per region (the first
    /// region acts as the primary) and spawns its recovery monitor.
    pub fn new(
        sim: &Sim,
        net: Rc<Network>,
        name: impl Into<String>,
        regions: &[Region],
        substrate: S,
    ) -> Self {
        let name = name.into();
        assert!(!regions.is_empty(), "a store needs at least one region");
        let rng = RefCell::new(sim.rng(&stream_name(&substrate, &name)));
        let replicas = regions
            .iter()
            .map(|r| (*r, ReplicaState::default()))
            .collect::<BTreeMap<_, _>>();
        let engine = Engine {
            inner: Rc::new(EngineInner {
                name,
                sim: sim.clone(),
                net,
                regions: regions.to_vec(),
                substrate,
                replicas: RefCell::new(replicas),
                next_version: Cell::new(1),
                rng,
                faults: sim.faults(),
                recovery: Cell::new(RecoveryConfig::default()),
                hints: RefCell::new(Vec::new()),
                probe: RefCell::new(None),
                pairs: RefCell::new(BTreeMap::new()),
            }),
        };
        crate::recovery::spawn_monitor(&engine);
        engine
    }

    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }

    pub(crate) fn regions(&self) -> &[Region] {
        &self.inner.regions
    }

    pub(crate) fn primary(&self) -> Region {
        self.inner.regions[0]
    }

    pub(crate) fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    pub(crate) fn net(&self) -> &Rc<Network> {
        &self.inner.net
    }

    pub(crate) fn faults(&self) -> &antipode_sim::fault::FaultPlan {
        &self.inner.faults
    }

    pub(crate) fn substrate(&self) -> &S {
        &self.inner.substrate
    }

    pub(crate) fn rng(&self) -> &RefCell<SimRng> {
        &self.inner.rng
    }

    pub(crate) fn set_recovery(&self, cfg: RecoveryConfig) {
        self.inner.recovery.set(cfg);
    }

    pub(crate) fn set_probe(&self, probe: Option<VisibilityProbe>) {
        *self.inner.probe.borrow_mut() = probe;
    }

    /// Hands the probe, if one is installed, the event `build` returns; with
    /// no probe the event (and its store-name `String`) is never built.
    pub(crate) fn emit(&self, build: impl FnOnce() -> VisibilityEvent) {
        if let Some(p) = self.inner.probe.borrow().clone() {
            p(&build());
        }
    }

    /// Reports a `(store, region, key)` touch to the schedule-exploration
    /// footprint recorder (see `antipode_sim::schedule`). Steps of two tasks
    /// touching the same replica key are *dependent* — reordering them can
    /// change visibility outcomes — so the model checker must explore both
    /// orders; disjoint keys commute and get pruned. The `is_recording`
    /// guard keeps the uncontrolled hot path at a single thread-local read.
    #[inline]
    fn note_key_access(&self, region: Region, key: &str) {
        if antipode_sim::schedule::is_recording() {
            antipode_sim::schedule::note_access(antipode_sim::schedule::resource_id(&[
                &self.inner.name,
                region.name(),
                key,
            ]));
        }
    }

    pub(crate) fn check_region(&self, region: Region) -> Result<(), StoreError> {
        if self.inner.replicas.borrow().contains_key(&region) {
            Ok(())
        } else {
            Err(StoreError::NoSuchRegion(region))
        }
    }

    /// Like [`Engine::check_region`], but also rejects regions the substrate
    /// considers gated by the fault plan at `now`.
    pub(crate) fn check_available(&self, region: Region) -> Result<(), StoreError> {
        self.check_region(region)?;
        let now = self.inner.sim.now();
        if self
            .inner
            .substrate
            .op_blocked(&self.inner.faults, now, &self.inner.name, region)
        {
            return Err(self.unavailable(region));
        }
        // A quarantined replica refuses service: its log hid corruption the
        // replica cannot bound, so nothing it serves can be trusted until
        // anti-entropy back-fills it from healthy peers.
        if self.replica_health(region) == ReplicaHealth::Tainted {
            stats::count_integrity_refusals(1);
            return Err(self.integrity_fault(region));
        }
        Ok(())
    }

    /// What a crashed, dark or gated replica answers with.
    pub(crate) fn unavailable(&self, region: Region) -> StoreError {
        StoreError::Unavailable {
            store: self.inner.name.clone(),
            region,
        }
    }

    /// What a quarantined replica answers with.
    pub(crate) fn integrity_fault(&self, region: Region) -> StoreError {
        StoreError::IntegrityFault {
            store: self.inner.name.clone(),
            region,
        }
    }

    /// Commits a write at `origin` and fans out one send per replica.
    ///
    /// `key: None` derives the key from the assigned version (queue family).
    /// Admission follows the substrate: `Reject` fails fast on a gated
    /// region; `Block` parks until the fault plan clears. A crash of the
    /// origin replica *during* the commit latency surfaces as
    /// [`StoreError::CrashedEpoch`].
    pub(crate) async fn commit(
        &self,
        origin: Region,
        key: Option<&str>,
        value: Bytes,
    ) -> Result<u64, StoreError> {
        match self.inner.substrate.admission() {
            // `check_available` re-checks region existence itself.
            Admission::Reject => self.check_available(origin)?,
            Admission::Block => {
                self.check_region(origin)?;
                let inner = &*self.inner;
                inner
                    .faults
                    .until_clear(&inner.sim, |at| {
                        inner
                            .substrate
                            .op_blocked(&inner.faults, at, &inner.name, origin)
                    })
                    .await;
            }
        }
        let epoch0 = self.replica_epoch(origin);
        let commit = {
            let mut rng = self.inner.rng.borrow_mut();
            self.inner.substrate.commit_latency(&mut rng)
        };
        self.inner.sim.sleep(commit).await;
        let epoch = self.replica_epoch(origin);
        if epoch != epoch0 {
            // The origin replica crash-restarted mid-commit: the committing
            // process died before assigning a version.
            return Err(StoreError::CrashedEpoch {
                store: self.inner.name.clone(),
                region: origin,
            });
        }
        let version = self.inner.next_version.get();
        self.inner.next_version.set(version + 1);
        let committed_at = self.inner.sim.now();
        stats::count_commits(1);
        // One shared key allocation for the whole fan-out (and `Bytes`
        // clones are refcount bumps), so a commit's per-destination cost is
        // independent of key and value size. Re-writes of a key the origin
        // already holds reuse its interned `Rc<str>` instead of allocating.
        let key: Rc<str> = match key {
            Some(k) => {
                let replicas = self.inner.replicas.borrow();
                match replicas
                    .get(&origin)
                    .and_then(|state| state.data.get_key_value(k))
                {
                    Some((interned, _)) => Rc::clone(interned),
                    None => Rc::from(k),
                }
            }
            None => self.inner.substrate.derived_key(version),
        };
        self.note_key_access(origin, &key);
        if self.inner.substrate.origin_applies_at_commit() {
            self.apply(origin, &key, version, value.clone(), committed_at);
        } else if self.inner.recovery.get().wal {
            // Deferred-apply families (queues) become *visible* only when the
            // local delivery lands, but the commit is the durability point:
            // log it at the origin now so a crash that aborts the in-flight
            // deliveries still leaves the publish recoverable — WAL replay
            // restores the origin copy and anti-entropy back-fills the rest.
            // A LostAppend disk-fault window silently swallows the append:
            // the memtable and the ack proceed, but durability is gone —
            // exactly the failure the scrub sweep exists to catch.
            if !self
                .inner
                .faults
                .append_lost(committed_at, &self.inner.name, origin)
            {
                let mut replicas = self.inner.replicas.borrow_mut();
                if let Some(state) = replicas.get_mut(&origin) {
                    state.wal_append(WalEntry {
                        key: Rc::clone(&key),
                        version,
                        bytes: value.clone(),
                        visible_at: committed_at,
                        committed_at,
                    });
                }
            }
        }
        self.enqueue_sends(origin, epoch, &key, version, &value, committed_at);
        Ok(version)
    }

    /// Applies one record at a replica: a replication delivery, a hint
    /// flush, an anti-entropy back-fill, or the origin's own copy at commit.
    /// An out-of-order (superseded) arrival still satisfies waiters but does
    /// not clobber newer data, and a record addressed to a crashed replica is
    /// dropped (the process is dead; anti-entropy repair back-fills it after
    /// restart).
    pub(crate) fn apply(
        &self,
        region: Region,
        key: &Rc<str>,
        version: u64,
        value: Bytes,
        committed_at: SimTime,
    ) {
        let now = self.inner.sim.now();
        if self
            .inner
            .faults
            .replica_crashed(now, &self.inner.name, region)
        {
            return;
        }
        // `batch_flushes`: applies that reached a live replica.
        stats::count_batch_flushes(1);
        // Inside a LostAppend window the append silently vanishes (memtable
        // and acks are unaffected — that is the point of the fault).
        let wal_enabled = self.inner.recovery.get().wal
            && !self.inner.faults.append_lost(now, &self.inner.name, region);
        let (newly_inserted, watermark) = {
            let mut replicas = self.inner.replicas.borrow_mut();
            // Sends only target configured replicas; treat a miss as a
            // dropped message rather than tearing the run down.
            let Some(state) = replicas.get_mut(&region) else {
                return;
            };
            self.note_key_access(region, key);
            let outcome = if version < state.collected_below {
                // Delivered at every replica long ago and dropped: a late
                // hint flush or back-fill must not deliver it again. Nobody
                // can be parked on it either — the collection woke them.
                (false, version)
            } else {
                state.applied.mark(version, self.inner.next_version.get());
                // One probe: the entry resolves superseded-vs-fresh,
                // performs the insert, and yields the watermark.
                let record = || Record {
                    version,
                    bytes: value.clone(),
                    visible_at: now,
                    committed_at,
                };
                let (newly_inserted, watermark) = match state.data.entry(key) {
                    Entry::Occupied(existing) if existing.version >= version => {
                        (false, existing.version)
                    }
                    Entry::Occupied(existing) => {
                        *existing = record();
                        (true, version)
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(record());
                        (true, version)
                    }
                };
                if newly_inserted && wal_enabled {
                    let entry = WalEntry {
                        key: Rc::clone(key),
                        version,
                        bytes: value.clone(),
                        visible_at: now,
                        committed_at,
                    };
                    // Families that never pre-log at commit can skip the WAL
                    // dedupe index (see `wal_append_fresh`).
                    if self.inner.substrate.origin_applies_at_commit() {
                        state.wal_append_fresh(entry);
                    } else {
                        state.wal_append(entry);
                    }
                }
                state.waiters.wake_satisfied(key, watermark);
                (newly_inserted, watermark)
            };
            if self.inner.substrate.reclaims_delivered() {
                // Versions start at 1, so the batches are whole intervals.
                let collected = state.collected_below.max(1);
                let frontier = min_applied_prefix(&replicas);
                if frontier >= collected + CHECKPOINT_INTERVAL as u64 {
                    self.collect_delivered(&mut replicas, collected, frontier);
                }
            }
            outcome
        };
        stats::count_applies(1);
        let probe = self.inner.probe.borrow().clone();
        self.inner.substrate.on_apply(&ApplyCtx {
            store: &self.inner.name,
            region,
            key,
            version,
            bytes: &value,
            committed_at,
            newly_inserted,
            watermark,
            at: now,
            probe: probe.as_ref(),
        });
    }

    /// Drops the records of versions `from..frontier` at every replica: each
    /// was applied everywhere, so no hint, back-fill or replay will ask for
    /// it again, and whoever consumes deliveries holds its own clone (see
    /// [`Substrate::reclaims_delivered`]). From here on the replicas answer
    /// for these versions from `collected_below`. A waiter parked on one —
    /// resubscribed at a replica that lost the record in a crash — is woken:
    /// no apply will come for it.
    fn collect_delivered(
        &self,
        replicas: &mut BTreeMap<Region, ReplicaState>,
        from: u64,
        frontier: u64,
    ) {
        let mut dropped = 0;
        for version in from..frontier {
            let key = self.inner.substrate.derived_key(version);
            for (&region, state) in replicas.iter_mut() {
                self.note_key_access(region, &key);
                dropped += u64::from(state.data.remove(&key).is_some());
                state.waiters.wake_satisfied(&key, version);
            }
        }
        for state in replicas.values_mut() {
            state.collected_below = frontier;
        }
        stats::count_queue_records_collected(dropped);
    }

    /// The first version not yet applied at every replica: everything below
    /// it is visible everywhere. A replica that is crashed, partitioned
    /// away, stalled or restarted without part of its log has not applied
    /// what it misses, so it holds the frontier back until hints or
    /// anti-entropy bring it up. For the KV family after a crash the
    /// frontier is conservative for good: a version that only ever arrived
    /// superseded left no record to rebuild its mark from.
    pub(crate) fn stable_frontier(&self) -> u64 {
        min_applied_prefix(&self.inner.replicas.borrow())
    }

    /// Zero-latency read of one replica record.
    pub(crate) fn record(&self, region: Region, key: &str) -> Option<Record> {
        self.note_key_access(region, key);
        self.inner
            .replicas
            .borrow()
            .get(&region)?
            .data
            .get(key)
            .cloned()
    }

    /// Whether `key` has reached at least `version` at `region`.
    pub(crate) fn is_visible(&self, region: Region, key: &str, version: u64) -> bool {
        self.note_key_access(region, key);
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .is_some_and(|state| state.holds(key, version))
    }

    /// Resolves once `key` reaches at least `version` at `region`,
    /// subscribing a waiter rather than polling.
    ///
    /// Under `Reject` admission a dark replica surfaces
    /// [`StoreError::Unavailable`] (re-checked every lap so a fresh
    /// subscription against a dark replica never parks forever). Under
    /// `Block` admission waits never error on faults: a waiter cancelled by
    /// a dark-replica edge silently resubscribes and resolves when the
    /// record eventually lands — queue consumers ride out broker windows.
    pub(crate) async fn wait_visible(
        &self,
        region: Region,
        key: &str,
        version: u64,
    ) -> Result<(), StoreError> {
        loop {
            if self.inner.substrate.admission() == Admission::Reject {
                self.check_available(region)?;
            }
            let rx = {
                self.note_key_access(region, key);
                let mut replicas = self.inner.replicas.borrow_mut();
                let state = replicas
                    .get_mut(&region)
                    .ok_or(StoreError::NoSuchRegion(region))?;
                if state.holds(key, version) {
                    return Ok(());
                }
                // A key the replica already holds (at an older version) is
                // parked under its interned `Rc<str>`: a refcount bump, not
                // a string copy per subscription.
                let key: Rc<str> = match state.data.get_key_value(key) {
                    Some((interned, _)) => Rc::clone(interned),
                    None => Rc::from(key),
                };
                let (tx, rx) = oneshot();
                state.waiters.subscribe(key, version, tx);
                rx
            };
            match rx.await {
                Ok(Ok(())) => return Ok(()),
                Ok(Err(e)) => match self.inner.substrate.admission() {
                    // The replica went dark while we were subscribed: surface
                    // the outage so barrier retry policies can re-arm.
                    Admission::Reject => return Err(e),
                    // Blocking families ride out the window: resubscribe.
                    Admission::Block => continue,
                },
                // A dropped sender (cannot happen today, but harmless)
                // retries.
                Err(_) => continue,
            }
        }
    }

    /// The crash epoch of a replica (bumped on every
    /// [`antipode_sim::fault::FaultKind::ReplicaCrash`] entry).
    pub(crate) fn replica_epoch(&self, region: Region) -> u64 {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.epoch)
            .unwrap_or(0)
    }

    /// Logical length of a replica's write-ahead log: records appended and
    /// not lost to damage, checkpointed or not (diagnostics).
    pub(crate) fn wal_len(&self, region: Region) -> usize {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.wal.len())
            .unwrap_or(0)
    }

    /// Records still in a replica's write-ahead log — what a restart would
    /// replay (diagnostics).
    pub(crate) fn wal_resident_len(&self, region: Region) -> usize {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.wal.resident_len())
            .unwrap_or(0)
    }

    /// Overwrites a replica's resident log with `image`; see
    /// [`WalLog::overwrite`].
    pub(crate) fn corrupt_wal(&self, region: Region, image: &[u8]) {
        if let Some(state) = self.inner.replicas.borrow_mut().get_mut(&region) {
            state.wal.overwrite(image);
        }
    }

    /// Framed bytes of the resident part of a replica's write-ahead log
    /// (diagnostics).
    pub(crate) fn wal_byte_len(&self, region: Region) -> usize {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.wal.byte_len())
            .unwrap_or(0)
    }

    /// Integrity standing of a replica (see [`ReplicaHealth`]). Unknown
    /// regions report `Healthy`, matching the epoch accessor's tolerance.
    pub(crate) fn replica_health(&self, region: Region) -> ReplicaHealth {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.health)
            .unwrap_or_default()
    }

    /// Number of pending visibility waiters at a replica (diagnostics).
    pub(crate) fn waiter_count(&self, region: Region) -> usize {
        self.inner
            .replicas
            .borrow()
            .get(&region)
            .map(|s| s.waiters.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::KvProfile;
    use crate::substrate::KvSubstrate;
    use antipode_sim::dist::Dist;
    use antipode_sim::fault::FaultKind;
    use antipode_sim::net::regions::{EU, US};

    fn setup() -> (Sim, Engine<KvSubstrate>) {
        let sim = Sim::new(9);
        let net = Rc::new(Network::global_triangle());
        let profile = KvProfile {
            local_write: Dist::constant_ms(1.0),
            local_read: Dist::constant_ms(0.5),
            replication: Dist::constant_ms(100.0),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(50.0),
        };
        let eng = Engine::new(&sim, net, "db", &[EU, US], KvSubstrate::new(profile));
        (sim, eng)
    }

    #[test]
    fn crash_mid_commit_surfaces_crashed_epoch() {
        let (sim, eng) = setup();
        // The commit sleeps 1ms; crash the origin inside that window. The
        // pre-commit availability check at t=0 passes (window starts later).
        sim.faults().schedule(
            SimTime::from_nanos(500_000),
            SimTime::from_secs(2),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: EU,
            },
        );
        let e = eng.clone();
        sim.block_on(async move {
            let err = e.commit(EU, Some("k"), Bytes::new()).await.unwrap_err();
            assert!(
                matches!(err, StoreError::CrashedEpoch { region, .. } if region == EU),
                "got {err:?}"
            );
        });
    }
}
