//! The speculation plane (service half): orchestration, caps, rollback.
//!
//! [`Speculator::run`] is the whole speculative lifecycle, top to bottom, as
//! a composition of the core's ordinary enforcement calls — there is no
//! speculative barrier. It tries [`Antipode::barrier_budget`]; if
//! dependencies are still unmet it spawns the *confirmation* — the degraded
//! barrier re-armed ([`Antipode::rearm`]) under a `timeout` — and proceeds
//! immediately with every side effect parked in a [`ConfinementBuffer`]; it
//! commits the buffer when the confirmation succeeds, and discards it and
//! *redelivers* the handler when it does not. Redelivery runs behind an
//! unbounded blocking barrier — by the time the recovery plane heals the
//! fault (WAL replay, hinted handoff), the dependencies land and the
//! redelivered execution commits like a plain blocking one.
//!
//! Two governors keep speculation an optimization rather than a liability:
//! a per-endpoint *cap* on concurrently open speculations (excess requests
//! fall back to blocking barriers instead of ballooning confinement memory),
//! and a *kill switch* ([`SpeculationPolicy::enabled`]) that builds the
//! endpoint with blocking barriers only.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, BarrierError, BarrierOutcome};
use antipode_lineage::{Lineage, WriteId};
use antipode_sim::Region;
use antipode_store::shim::ShimError;
use antipode_store::speculation::ConfinementBuffer;

/// Errors from [`Speculator::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A barrier (blocking, budgeted, or redelivery) failed hard.
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
    /// Maximum concurrently open speculations for this endpoint. Requests
    /// beyond the cap fall back to blocking barriers.
    pub max_open: usize,
    /// How long the barrier blocks before giving up and speculating — the
    /// budget handed to [`Antipode::barrier_budget`].
    pub budget: Duration,
    /// How long the confirmation keeps enforcing the unmet remainder before
    /// the speculation is declared violated. Counts from the instant
    /// `budget` elapsed, not from the end of the handler.
    pub confirm_budget: Duration,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            enabled: true,
            max_open: 64,
            budget: Duration::from_millis(500),
            confirm_budget: Duration::from_secs(30),
        }
    }
}

/// Counters of everything one [`Speculator`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Handler executions routed through [`Speculator::run`].
    pub attempts: u64,
    /// Executions that ran ahead of unmet dependencies.
    pub speculated: u64,
    /// Speculations whose confirmation succeeded (buffer committed).
    pub confirmed: u64,
    /// Speculations whose confirmation failed or ran out of budget (buffer
    /// discarded).
    pub violated: u64,
    /// Executions degraded to a blocking barrier by the kill switch or the
    /// open-speculation cap.
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
    policy: SpeculationPolicy,
    open: RefCell<usize>,
    stats: RefCell<SpecStats>,
}

/// Runs handler executions under the speculative lifecycle. Cheap to clone;
/// clones share the policy, the open count, and the stats — one speculator
/// per service endpoint.
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
    /// The handler ran ahead of unmet dependencies that then landed within
    /// the confirmation budget; the confined effects were committed
    /// afterwards.
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
                policy,
                open: RefCell::new(0),
                stats: RefCell::new(SpecStats::default()),
            }),
        }
    }

    /// Speculations started by this speculator and not yet resolved.
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
    /// switch or the open-speculation cap run behind a plain blocking
    /// barrier instead; their buffers commit immediately after the handler.
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
        let SpeculatorInner {
            ap,
            policy,
            open,
            stats,
        } = &*self.inner;
        stats.borrow_mut().attempts += 1;
        if !policy.enabled || *open.borrow() >= policy.max_open {
            stats.borrow_mut().fell_back += 1;
            ap.barrier(lineage, region).await?;
            let (value, committed) = self.run_eager(lineage, &work, 0).await?;
            return Ok(SpecOutcome::Blocking { value, committed });
        }
        let degraded = match ap.barrier_budget(lineage, region, policy.budget).await? {
            BarrierOutcome::Complete(_) => {
                // Dependencies landed within the budget: nothing to confine.
                let (value, committed) = self.run_eager(lineage, &work, 0).await?;
                return Ok(SpecOutcome::Blocking { value, committed });
            }
            BarrierOutcome::Degraded(d) => d,
        };
        // The confirmation is the degraded barrier re-armed under a timeout.
        // Spawned *before* the handler runs: the confirmation budget counts
        // from the instant the blocking budget elapsed, and the remainder is
        // enforced while the handler executes, not after it. A hard barrier
        // error is a violation like an elapsed budget — the redelivery below
        // is what surfaces an error that persists.
        let confirmation = ap.sim().spawn({
            let ap = ap.clone();
            let confirm_budget = policy.confirm_budget;
            async move {
                let rearmed = ap.rearm(&degraded, region, None);
                matches!(
                    antipode_sim::timeout(ap.sim(), confirm_budget, rearmed).await,
                    Ok(Ok(_))
                )
            }
        });
        // Run the handler *now*, effects parked.
        *open.borrow_mut() += 1;
        stats.borrow_mut().speculated += 1;
        let (value, mut buf) = work(0).await;
        self.note_high_water(&buf);
        let confirmed = confirmation.await;
        *open.borrow_mut() -= 1;
        if confirmed {
            stats.borrow_mut().confirmed += 1;
            let committed = self.commit(&mut buf, lineage).await?;
            return Ok(SpecOutcome::Confirmed { value, committed });
        }
        let discarded = buf.discard();
        {
            let mut s = stats.borrow_mut();
            s.violated += 1;
            s.rolled_back_writes += discarded as u64;
            s.redelivered += 1;
        }
        // Redelivery: an unbounded blocking barrier rides out the fault (the
        // recovery plane replays the WAL and drains hints once the store
        // restarts), then the handler re-runs and its effects commit like a
        // plain blocking execution.
        ap.barrier(lineage, region).await?;
        let (value, committed) = self.run_eager(lineage, &work, 1).await?;
        Ok(SpecOutcome::RolledBack {
            value,
            committed,
            discarded,
        })
    }

    /// Runs the handler with its dependencies enforced and commits its
    /// buffer straight after.
    async fn run_eager<T, F, Fut>(
        &self,
        lineage: &mut Lineage,
        work: &F,
        attempt: u32,
    ) -> Result<(T, Vec<WriteId>), SpecError>
    where
        F: Fn(u32) -> Fut,
        Fut: Future<Output = (T, ConfinementBuffer)>,
    {
        let (value, mut buf) = work(attempt).await;
        let committed = self.commit(&mut buf, lineage).await?;
        Ok((value, committed))
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
            budget: Duration::from_millis(budget_ms),
            confirm_budget: Duration::from_secs(confirm_secs),
        }
    }

    /// Writes the post in the EU and returns the lineage carrying it.
    async fn write_post(cell: &Cell) -> Lineage {
        let mut lineage = Lineage::new(LineageId(1));
        cell.post
            .write(EU, "p1", Bytes::from_static(b"post"), &mut lineage)
            .await
            .unwrap();
        lineage
    }

    /// A handler that confines one feed write and returns its attempt number.
    async fn render(feed: KvShim, key: &str, attempt: u32) -> (u32, ConfinementBuffer) {
        let mut buf = ConfinementBuffer::new();
        buf.confine_write(&feed, US, key, Bytes::from_static(b"p1"));
        (attempt, buf)
    }

    #[test]
    fn confirmation_path_commits_confined_effects() {
        let cell = setup(1, slow_profile());
        let spec = Speculator::new(cell.ap.clone(), policy(200, 60));
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = write_post(&cell).await;
            let t0 = cell.sim.now();
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    render(cell.feed.clone(), "feed-p1", attempt)
                })
                .await
                .unwrap();
            match &out {
                SpecOutcome::Confirmed { value, committed } => {
                    assert_eq!(*value, 0);
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
            let mut lineage = write_post(&cell).await;
            let snapshot = lineage.clone();
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    // Speculative evaluation: unmet deps here are not
                    // observed violations (effects are confined).
                    checker.checkpoint_speculative("reader:feed", &snapshot, US);
                    render(cell.feed.clone(), "feed-p1", attempt)
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

    /// The confirmation budget counts from the instant the blocking budget
    /// elapsed, and the remainder is enforced *while* the handler runs: with
    /// 8 s replication, a 200 ms budget and a 6 s confirmation budget, the
    /// confirmation gives up at ≈ 6.2 s whatever the handler does. Awaiting
    /// the re-armed barrier only after a 3 s handler would stretch the
    /// window to ≈ 9.2 s and confirm instead.
    #[test]
    fn confirmation_budget_counts_from_budget_expiry_not_handler_end() {
        let cell = setup(5, slow_profile());
        let spec = Speculator::new(cell.ap.clone(), policy(200, 6));
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = write_post(&cell).await;
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    let feed = cell.feed.clone();
                    let sim = cell.sim.clone();
                    async move {
                        sim.sleep(Duration::from_secs(3)).await;
                        render(feed, "feed-p1", attempt).await
                    }
                })
                .await
                .unwrap();
            assert!(
                matches!(
                    out,
                    SpecOutcome::RolledBack {
                        value: 1,
                        discarded: 1,
                        ..
                    }
                ),
                "6 s of confirmation from t ≈ 0.2 s cannot see an 8 s write, got {out:?}"
            );
        });
    }

    #[test]
    fn fast_dependencies_complete_without_speculating() {
        let cell = setup(6, fast_profile());
        let spec = Speculator::new(cell.ap.clone(), policy(500, 30));
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = write_post(&cell).await;
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    render(cell.feed.clone(), "feed-p1", attempt)
                })
                .await
                .unwrap();
            assert!(matches!(out, SpecOutcome::Blocking { value: 0, .. }));
            let stats = spec.stats();
            assert_eq!(stats.speculated, 0);
            assert_eq!(stats.fell_back, 0);
        });
    }

    /// Runs one request with two barrier attempts per dependency against a
    /// reader-side replica crash over `[1 s, crash_until)`. The crash fails
    /// the confirmation's parked wait at 1 s and its one retry at 1.1 s — a
    /// hard barrier error, which is a violation, not an error of `run`. The
    /// redelivery barrier then fails at 1.1 s and retries once, at 1.2 s.
    fn run_through_crash(
        seed: u64,
        crash_until: SimTime,
    ) -> (Cell, Result<SpecOutcome<u32>, SpecError>) {
        let cell = setup(seed, slow_profile());
        cell.sim.faults().schedule(
            SimTime::from_secs(1),
            crash_until,
            FaultKind::ReplicaCrash {
                store: "post-s3".into(),
                region: US,
            },
        );
        let ap = cell.ap.clone().with_retry(antipode::BarrierRetry {
            max_attempts: 2,
            ..antipode::BarrierRetry::default()
        });
        let spec = Speculator::new(ap, policy(200, 60));
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = write_post(&cell).await;
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    render(cell.feed.clone(), "feed-p1", attempt)
                })
                .await;
            (cell, out)
        })
    }

    #[test]
    fn hard_confirmation_failure_is_a_violation_not_an_error() {
        // The crash heals at 1.15 s: the redelivery's retry rides it out.
        let (cell, out) = run_through_crash(7, SimTime::from_millis(1150));
        assert!(
            matches!(
                out,
                Ok(SpecOutcome::RolledBack {
                    value: 1,
                    discarded: 1,
                    ..
                })
            ),
            "an exhausted confirmation must roll back and redeliver, got {out:?}"
        );
        let stored = cell.feed.store().get_sync(US, "feed-p1").unwrap();
        assert_eq!(stored.version, 1, "only the redelivery's write landed");
    }

    #[test]
    fn redelivery_exhausting_its_retries_surfaces_the_barrier_error() {
        // The crash outlasts the redelivery's retry too.
        let (cell, out) = run_through_crash(8, SimTime::from_secs(20));
        assert!(matches!(out, Err(SpecError::Barrier(_))), "got {out:?}");
        assert!(cell.feed.store().get_sync(US, "feed-p1").is_none());
        assert_eq!(cell.feed.store().wal_len(US), 0, "nothing was committed");
    }

    #[test]
    fn kill_switch_degrades_to_blocking_barriers() {
        let cell = setup(3, slow_profile());
        let spec = Speculator::new(
            cell.ap.clone(),
            SpeculationPolicy {
                enabled: false,
                ..policy(200, 60)
            },
        );
        let sim = cell.sim.clone();
        sim.block_on(async move {
            let mut lineage = write_post(&cell).await;
            let t0 = cell.sim.now();
            let out = spec
                .run(&mut lineage, US, |attempt| {
                    render(cell.feed.clone(), "feed-p1", attempt)
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
        let feed = cell.feed.clone();
        sim.block_on(async move {
            let mut shared = write_post(&cell).await;
            // First request opens the single allowed speculation.
            let s1 = spec.clone();
            let f1 = feed.clone();
            let mut l1 = shared.clone();
            let first = cell.sim.spawn(async move {
                s1.run(&mut l1, US, |attempt| render(f1.clone(), "feed-a", attempt))
                    .await
                    .unwrap()
                    .speculated()
            });
            // Give the first request time to start speculating.
            cell.sim.sleep(Duration::from_millis(500)).await;
            assert_eq!(spec.open_frontiers(), 1);
            // Second request hits the cap: blocking fallback.
            let out = spec
                .run(&mut shared, US, |attempt| {
                    render(feed.clone(), "feed-b", attempt)
                })
                .await
                .unwrap();
            assert!(matches!(out, SpecOutcome::Blocking { .. }));
            assert_eq!(spec.stats().fell_back, 1);
            assert!(first.await, "the request under the cap speculated");
        });
    }
}
