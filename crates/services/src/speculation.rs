//! The speculation plane (service half): orchestration, caps, rollback.
//!
//! [`Speculator::run`] wraps one handler execution in the full speculative
//! lifecycle: try a bounded barrier; if dependencies are still unmet,
//! proceed immediately with every side effect parked in a
//! [`ConfinementBuffer`]; commit the buffer when the frontier confirms;
//! discard it and *redeliver* the handler when the speculation is violated.
//! Redelivery runs behind an unbounded blocking barrier — by the time the
//! recovery plane heals the fault (WAL replay, hinted handoff), the
//! dependencies land and the redelivered execution commits like a plain
//! blocking one.
//!
//! Two governors keep speculation an optimization rather than a liability:
//! a per-endpoint *cap* on concurrently open frontiers (excess requests fall
//! back to blocking barriers instead of ballooning confinement memory), and
//! a *kill switch* ([`Speculator::set_enabled`]) that degrades the whole
//! endpoint to blocking barriers at runtime.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use antipode::{Antipode, BarrierError, BarrierOutcome, SpecState, SpeculationConfig};
use antipode_lineage::{Lineage, WriteId};
use antipode_sim::Region;
use antipode_store::shim::ShimError;
use antipode_store::speculation::ConfinementBuffer;

/// Errors from [`Speculator::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A barrier (blocking, speculative, or redelivery) failed hard.
    Barrier(BarrierError),
    /// Committing the confinement buffer failed at a store.
    Commit(ShimError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Barrier(e) => write!(f, "speculation barrier failed: {e}"),
            SpecError::Commit(e) => write!(f, "confinement commit failed: {e}"),
        }
    }
}
impl std::error::Error for SpecError {}

impl From<BarrierError> for SpecError {
    fn from(e: BarrierError) -> Self {
        SpecError::Barrier(e)
    }
}
impl From<ShimError> for SpecError {
    fn from(e: ShimError) -> Self {
        SpecError::Commit(e)
    }
}

/// Per-endpoint speculation tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculationPolicy {
    /// Master switch; `false` degrades every request to a blocking barrier.
    pub enabled: bool,
    /// Maximum concurrently open frontiers for this endpoint. Requests
    /// beyond the cap fall back to blocking barriers.
    pub max_open: usize,
    /// Blocking and confirmation budgets for the speculative barrier.
    pub barrier: SpeculationConfig,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            enabled: true,
            max_open: 64,
            barrier: SpeculationConfig::default(),
        }
    }
}

/// Counters of everything one [`Speculator`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Handler executions routed through [`Speculator::run`].
    pub attempts: u64,
    /// Executions that opened a speculation frontier.
    pub speculated: u64,
    /// Speculations whose frontier confirmed (buffer committed).
    pub confirmed: u64,
    /// Speculations whose frontier violated (buffer discarded).
    pub violated: u64,
    /// Executions degraded to a blocking barrier by the kill switch or the
    /// open-frontier cap.
    pub fell_back: u64,
    /// Violated executions re-run behind a blocking barrier.
    pub redelivered: u64,
    /// Confined writes discarded by violation rollbacks.
    pub rolled_back_writes: u64,
    /// Confined writes committed after confirmation (speculative path only).
    pub committed_writes: u64,
    /// Largest confinement buffer any single execution ever held.
    pub buffer_high_water: usize,
}

struct SpeculatorInner {
    ap: Antipode,
    policy: RefCell<SpeculationPolicy>,
    open: RefCell<usize>,
    stats: RefCell<SpecStats>,
}

/// Runs handler executions under the speculative-barrier lifecycle. Cheap to
/// clone; clones share the cap, the kill switch, and the stats — one
/// speculator per service endpoint.
#[derive(Clone)]
pub struct Speculator {
    inner: Rc<SpeculatorInner>,
}

/// How [`Speculator::run`] completed, carrying the handler value and the
/// identifiers of every committed (previously confined) write.
#[derive(Debug)]
pub enum SpecOutcome<T> {
    /// No speculation: the barrier completed (in budget or blocking) before
    /// the handler ran.
    Blocking {
        /// Handler result.
        value: T,
        /// Writes committed from the confinement buffer.
        committed: Vec<WriteId>,
    },
    /// The handler ran ahead of an open frontier that then confirmed; the
    /// confined effects were committed atomically afterwards.
    Confirmed {
        /// Handler result.
        value: T,
        /// Writes committed from the confinement buffer.
        committed: Vec<WriteId>,
    },
    /// The speculation was violated: the first execution's confined effects
    /// were discarded, and the handler was redelivered behind a blocking
    /// barrier. `value`/`committed` are the *redelivered* execution's.
    RolledBack {
        /// Redelivered handler result.
        value: T,
        /// Writes committed by the redelivered execution.
        committed: Vec<WriteId>,
        /// Confined writes discarded from the violated first execution.
        discarded: usize,
    },
}

impl<T> SpecOutcome<T> {
    /// The handler value (the redelivered one after a rollback).
    pub fn value(&self) -> &T {
        match self {
            SpecOutcome::Blocking { value, .. }
            | SpecOutcome::Confirmed { value, .. }
            | SpecOutcome::RolledBack { value, .. } => value,
        }
    }

    /// The committed write identifiers.
    pub fn committed(&self) -> &[WriteId] {
        match self {
            SpecOutcome::Blocking { committed, .. }
            | SpecOutcome::Confirmed { committed, .. }
            | SpecOutcome::RolledBack { committed, .. } => committed,
        }
    }

    /// Whether this execution speculated at all (confirmed or rolled back).
    pub fn speculated(&self) -> bool {
        !matches!(self, SpecOutcome::Blocking { .. })
    }
}

impl Speculator {
    /// A speculator over `ap` with the given policy.
    pub fn new(ap: Antipode, policy: SpeculationPolicy) -> Self {
        Speculator {
            inner: Rc::new(SpeculatorInner {
                ap,
                policy: RefCell::new(policy),
                open: RefCell::new(0),
                stats: RefCell::new(SpecStats::default()),
            }),
        }
    }

    /// The kill switch: `false` degrades every subsequent request to a
    /// blocking barrier (open frontiers keep resolving normally).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.policy.borrow_mut().enabled = enabled;
    }

    /// Whether speculation is currently enabled.
    pub fn enabled(&self) -> bool {
        self.inner.policy.borrow().enabled
    }

    /// Currently open frontiers started by this speculator.
    pub fn open_frontiers(&self) -> usize {
        *self.inner.open.borrow()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> SpecStats {
        self.inner.stats.borrow().clone()
    }

    /// Runs one handler execution under the speculative lifecycle.
    ///
    /// `work` is called with the attempt number (0 for the first execution,
    /// 1 for a post-violation redelivery) and must route every side effect
    /// into the [`ConfinementBuffer`] it returns — the speculator commits
    /// the buffer once it is safe (appending the fresh write identifiers to
    /// `lineage`) or discards it on violation. Requests hitting the kill
    /// switch or the open-frontier cap run behind a plain blocking barrier
    /// instead; their buffers commit immediately after the handler.
    pub async fn run<T, F, Fut>(
        &self,
        lineage: &mut Lineage,
        region: Region,
        work: F,
    ) -> Result<SpecOutcome<T>, SpecError>
    where
        F: Fn(u32) -> Fut,
        Fut: Future<Output = (T, ConfinementBuffer)>,
    {
        self.inner.stats.borrow_mut().attempts += 1;
        let (enabled, max_open, cfg) = {
            let p = self.inner.policy.borrow();
            (p.enabled, p.max_open, p.barrier.clone())
        };
        if !enabled || *self.inner.open.borrow() >= max_open {
            self.inner.stats.borrow_mut().fell_back += 1;
            return self.run_blocking(lineage, region, &work).await;
        }
        let spec = match self
            .inner
            .ap
            .barrier_speculative(lineage, region, &cfg)
            .await?
        {
            BarrierOutcome::Speculative(s) => s,
            BarrierOutcome::Complete(_) => {
                // Dependencies landed within the budget: nothing to confine.
                let (value, mut buf) = work(0).await;
                let committed = self.commit(&mut buf, lineage).await?;
                return Ok(SpecOutcome::Blocking { value, committed });
            }
            BarrierOutcome::Degraded(d) => {
                // `barrier_speculative` never degrades, but stay total:
                // finish the remainder blocking, then run eagerly.
                self.inner.ap.rearm(&d, region, None).await?;
                let (value, mut buf) = work(0).await;
                let committed = self.commit(&mut buf, lineage).await?;
                return Ok(SpecOutcome::Blocking { value, committed });
            }
        };
        // Open frontier: run the handler *now*, effects parked.
        *self.inner.open.borrow_mut() += 1;
        self.inner.stats.borrow_mut().speculated += 1;
        let (value, mut buf) = work(0).await;
        self.note_high_water(&buf);
        let state = spec.frontier.resolved().await;
        *self.inner.open.borrow_mut() -= 1;
        match state {
            SpecState::Confirmed | SpecState::Open => {
                self.inner.stats.borrow_mut().confirmed += 1;
                let committed = self.commit(&mut buf, lineage).await?;
                Ok(SpecOutcome::Confirmed { value, committed })
            }
            SpecState::Violated => {
                let discarded = buf.discard();
                {
                    let mut s = self.inner.stats.borrow_mut();
                    s.violated += 1;
                    s.rolled_back_writes += discarded as u64;
                    s.redelivered += 1;
                }
                // Redelivery: an unbounded blocking barrier rides out the
                // fault (the recovery plane replays the WAL and drains
                // hints once the store restarts), then the handler re-runs
                // and its effects commit like a plain blocking execution.
                self.inner.ap.barrier(lineage, region).await?;
                let (value, mut buf) = work(1).await;
                let committed = self.commit(&mut buf, lineage).await?;
                Ok(SpecOutcome::RolledBack {
                    value,
                    committed,
                    discarded,
                })
            }
        }
    }

    async fn run_blocking<T, F, Fut>(
        &self,
        lineage: &mut Lineage,
        region: Region,
        work: &F,
    ) -> Result<SpecOutcome<T>, SpecError>
    where
        F: Fn(u32) -> Fut,
        Fut: Future<Output = (T, ConfinementBuffer)>,
    {
        self.inner.ap.barrier(lineage, region).await?;
        let (value, mut buf) = work(0).await;
        let committed = self.commit(&mut buf, lineage).await?;
        Ok(SpecOutcome::Blocking { value, committed })
    }

    async fn commit(
        &self,
        buf: &mut ConfinementBuffer,
        lineage: &mut Lineage,
    ) -> Result<Vec<WriteId>, SpecError> {
        self.note_high_water(buf);
        let committed = buf.commit(lineage).await?;
        self.inner.stats.borrow_mut().committed_writes += committed.len() as u64;
        Ok(committed)
    }

    fn note_high_water(&self, buf: &ConfinementBuffer) {
        let mut s = self.inner.stats.borrow_mut();
        s.buffer_high_water = s.buffer_high_water.max(buf.high_water());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode::ConsistencyChecker;
    use antipode_lineage::LineageId;
    use antipode_sim::net::regions::{EU, US};
    use antipode_sim::{FaultKind, Network, Sim, SimTime};
    use antipode_store::replica::{KvProfile, KvStore};
    use antipode_store::shim::KvShim;
    use bytes::Bytes;
    use std::time::Duration;

    fn slow_profile() -> KvProfile {
        KvProfile {
            replication: antipode_sim::Dist::constant_ms(8000.0),
            ..KvProfile::default()
        }
    }

    fn fast_profile() -> KvProfile {
        KvProfile {
            replication: antipode_sim::Dist::constant_ms(50.0),
            ..KvProfile::default()
        }
    }

    struct Cell {
        sim: Sim,
        ap: Antipode,
        post: KvShim,
        feed: KvShim,
    }

    /// A writer-side post store (slow or faulty replication) plus a
    /// reader-side feed store the handler writes into under confinement.
    fn setup(seed: u64, profile: KvProfile) -> Cell {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let post = KvShim::new(KvStore::new(
            &sim,
            net.clone(),
            "post-s3",
            &[EU, US],
            profile,
        ));
        let feed = KvShim::new(KvStore::new(&sim, net, "feed-redis", &[US], fast_profile()));
        let mut ap = Antipode::new(sim.clone());
        ap.register(Rc::new(post.clone()));
        ap.register(Rc::new(feed.clone()));
        Cell {
            sim,
            ap,
            post,
            feed,
        }
    }

    fn policy(budget_ms: u64, confirm_secs: u64) -> SpeculationPolicy {
        SpeculationPolicy {
            enabled: true,
            max_open: 64,
            barrier: SpeculationConfig {
                budget: Duration::from_millis(budget_ms),
                confirm_budget: Duration::from_secs(confirm_secs),
            },
        }
    }

    #[test]
    fn confirmation_path_commits_confined_effects() {
        let cell = setup(1, slow_profile());
        let spec = Speculator::new(cell.ap.clone(), policy(200, 60));
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = Lineage::new(LineageId(1));
            cell.post
                .write(EU, "p1", Bytes::from_static(b"post"), &mut lineage)
                .await
                .unwrap();
            let t0 = cell.sim.now();
            let feed = cell.feed.clone();
            let out = spec
                .run(&mut lineage, US, |_attempt| {
                    let feed = feed.clone();
                    async move {
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed, US, "feed-p1", Bytes::from_static(b"p1"));
                        ("rendered", buf)
                    }
                })
                .await
                .unwrap();
            match &out {
                SpecOutcome::Confirmed { value, committed } => {
                    assert_eq!(*value, "rendered");
                    assert_eq!(committed.len(), 1);
                    assert!(lineage.contains(&committed[0]));
                }
                other => panic!("8s replication vs 200ms budget must speculate, got {other:?}"),
            }
            // The commit waited for the confirmation (~8s), not the budget.
            assert!(cell.sim.now().since(t0) >= Duration::from_secs(7));
            let (data, _) = cell.feed.read(US, "feed-p1").await.unwrap().unwrap();
            assert_eq!(data, Bytes::from_static(b"p1"));
            let stats = spec.stats();
            assert_eq!(stats.speculated, 1);
            assert_eq!(stats.confirmed, 1);
            assert_eq!(stats.violated, 0);
            assert_eq!(stats.committed_writes, 1);
            assert_eq!(stats.buffer_high_water, 1);
            assert_eq!(spec.open_frontiers(), 0);
        });
    }

    #[test]
    fn violation_path_discards_then_redelivers_after_heal() {
        let cell = setup(2, slow_profile());
        // Crash the US post replica for [0, 20s): the confirmation barrier
        // cannot see the dep within its 5s budget → violation; the
        // redelivery's unbounded barrier rides out the crash via retries.
        cell.sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(20),
            FaultKind::ReplicaCrash {
                store: "post-s3".into(),
                region: US,
            },
        );
        let spec = Speculator::new(cell.ap.clone(), policy(200, 5));
        let checker = ConsistencyChecker::new(cell.ap.clone());
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = Lineage::new(LineageId(1));
            cell.post
                .write(EU, "p1", Bytes::from_static(b"post"), &mut lineage)
                .await
                .unwrap();
            let feed = cell.feed.clone();
            let checker2 = checker.clone();
            let lineage_snapshot = lineage.clone();
            let out = spec
                .run(&mut lineage, US, move |attempt| {
                    let feed = feed.clone();
                    let checker = checker2.clone();
                    let lineage = lineage_snapshot.clone();
                    async move {
                        // Speculative evaluation: unmet deps here are not
                        // observed violations (effects are confined).
                        checker.checkpoint_speculative("reader:feed", &lineage, US);
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed, US, "feed-p1", Bytes::from_static(b"p1"));
                        (attempt, buf)
                    }
                })
                .await
                .unwrap();
            match &out {
                SpecOutcome::RolledBack {
                    value,
                    committed,
                    discarded,
                } => {
                    assert_eq!(*value, 1, "the committed value is the redelivery's");
                    assert_eq!(committed.len(), 1);
                    assert_eq!(*discarded, 1);
                }
                other => panic!("20s crash vs 5s confirm budget must violate, got {other:?}"),
            }
            // Redelivery completed only after the crash healed.
            assert!(cell.sim.now() >= SimTime::from_secs(20));
            // Exactly one feed entry: the discarded attempt never hit the
            // store (version would be 2 on a leak).
            let stored = cell.feed.store().get_sync(US, "feed-p1").unwrap();
            assert_eq!(stored.version, 1, "discarded confined write must not leak");
            // Post-commit the dependency is visible: zero observed XCY.
            let dry = checker.checkpoint("reader:post-commit", &lineage, US);
            assert!(dry.is_satisfied());
            assert_eq!(checker.observed_violations(), 0);
            let stats = spec.stats();
            assert_eq!(stats.violated, 1);
            assert_eq!(stats.redelivered, 1);
            assert_eq!(stats.rolled_back_writes, 1);
        });
    }

    #[test]
    fn kill_switch_degrades_to_blocking_barriers() {
        let cell = setup(3, slow_profile());
        let spec = Speculator::new(cell.ap.clone(), policy(200, 60));
        spec.set_enabled(false);
        assert!(!spec.enabled());
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = Lineage::new(LineageId(1));
            cell.post
                .write(EU, "p1", Bytes::from_static(b"post"), &mut lineage)
                .await
                .unwrap();
            let t0 = cell.sim.now();
            let feed = cell.feed.clone();
            let out = spec
                .run(&mut lineage, US, |_| {
                    let feed = feed.clone();
                    async move {
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed, US, "feed-p1", Bytes::new());
                        ((), buf)
                    }
                })
                .await
                .unwrap();
            assert!(matches!(out, SpecOutcome::Blocking { .. }));
            assert!(!out.speculated());
            // Blocking: the handler waited out the full 8s replication.
            assert!(cell.sim.now().since(t0) >= Duration::from_secs(7));
            let stats = spec.stats();
            assert_eq!(stats.fell_back, 1);
            assert_eq!(stats.speculated, 0);
        });
    }

    #[test]
    fn open_frontier_cap_falls_back_to_blocking() {
        let cell = setup(4, slow_profile());
        let spec = Speculator::new(
            cell.ap.clone(),
            SpeculationPolicy {
                max_open: 1,
                ..policy(100, 60)
            },
        );
        let sim = cell.sim.clone();
        let post = cell.post.clone();
        let feed = cell.feed.clone();
        let ap = cell.ap.clone();
        sim.block_on(async move {
            let mut shared = Lineage::new(LineageId(1));
            post.write(EU, "p1", Bytes::from_static(b"post"), &mut shared)
                .await
                .unwrap();
            // First request opens the single allowed frontier.
            let s1 = spec.clone();
            let f1 = feed.clone();
            let l1 = shared.clone();
            let sim2 = ap.sim().clone();
            sim2.spawn(async move {
                let mut l = l1;
                let out = s1
                    .run(&mut l, US, |_| {
                        let f1 = f1.clone();
                        async move {
                            let mut buf = ConfinementBuffer::new();
                            buf.confine_write(&f1, US, "feed-a", Bytes::new());
                            ((), buf)
                        }
                    })
                    .await
                    .unwrap();
                assert!(out.speculated());
            });
            // Give the first request time to open its frontier.
            ap.sim().sleep(Duration::from_millis(500)).await;
            assert_eq!(spec.open_frontiers(), 1);
            // Second request hits the cap: blocking fallback.
            let out = spec
                .run(&mut shared, US, |_| {
                    let feed = feed.clone();
                    async move {
                        let mut buf = ConfinementBuffer::new();
                        buf.confine_write(&feed, US, "feed-b", Bytes::new());
                        ((), buf)
                    }
                })
                .await
                .unwrap();
            assert!(matches!(out, SpecOutcome::Blocking { .. }));
            assert_eq!(spec.stats().fell_back, 1);
        });
        sim.run();
    }
}
