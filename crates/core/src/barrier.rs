//! The Core API: `barrier(ℒ)` and its variants (paper §6.3).
//!
//! `barrier` unpacks the write identifiers carried by a lineage, groups them
//! by datastore, and calls each store's `wait` against the replica co-located
//! with the caller. It returns once every dependency is visible (or
//! superseded). Variants: a budgeted form and a **dry-run** mode that only
//! reports which dependencies are not yet visible — the passive consistency
//! checker developers use to find barrier placements.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use antipode_lineage::{Lineage, LineageId, StoreId, WriteId};
use antipode_sim::{Region, Sim};

use crate::registry::{ShimRegistry, UnknownStorePolicy};
use crate::wait::{WaitError, WaitTarget};

/// Errors from [`Antipode::barrier`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierError {
    /// A lineage dependency names a datastore with no registered shim and
    /// the policy is [`UnknownStorePolicy::Fail`].
    UnknownStore(String),
    /// A datastore-specific wait failed.
    Wait(WaitError),
}

impl fmt::Display for BarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierError::UnknownStore(s) => write!(f, "no shim registered for datastore {s}"),
            BarrierError::Wait(e) => write!(f, "wait failed: {e}"),
        }
    }
}
impl std::error::Error for BarrierError {}

impl From<WaitError> for BarrierError {
    fn from(e: WaitError) -> Self {
        BarrierError::Wait(e)
    }
}

/// Retry policy for transient store unavailability inside a barrier.
///
/// A store-specific `wait` can fail with
/// [`WaitError::StoreUnavailable`] while the chaos plane has the replica's
/// region down. Rather than surfacing every transient outage to the
/// application, the barrier re-polls the store with exponential backoff —
/// dependencies are immutable facts, so retrying is always safe.
#[derive(Clone, Debug)]
pub struct BarrierRetry {
    /// Total attempts per dependency (first try included). Clamped ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Backoff ceiling.
    pub max: Duration,
}

impl Default for BarrierRetry {
    fn default() -> Self {
        BarrierRetry {
            max_attempts: 32,
            base: Duration::from_millis(100),
            multiplier: 2.0,
            max: Duration::from_secs(5),
        }
    }
}

impl BarrierRetry {
    /// A policy that surfaces the first unavailability error unretried.
    pub fn none() -> Self {
        BarrierRetry {
            max_attempts: 1,
            ..BarrierRetry::default()
        }
    }

    /// The sleep after (0-based) failed attempt `attempt`. Deterministic —
    /// barrier schedules reproduce exactly from the simulation seed.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.as_secs_f64() * self.multiplier.max(1.0).powi(attempt as i32);
        Duration::from_secs_f64(exp.min(self.max.as_secs_f64()))
    }
}

/// Per-datastore wait telemetry from one barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreWait {
    /// Interned datastore id; grouping compares this, not the name.
    pub store: StoreId,
    /// Datastore name: the interner's own string, shared, not a copy.
    pub datastore: Rc<str>,
    /// Dependencies on this store the barrier *resolved* (already visible
    /// or waited through). Counting resolutions rather than examinations
    /// keeps the sum stable across degraded re-arms: a dependency that stays
    /// unmet through several budget windows contributes exactly once, when
    /// it finally lands.
    pub deps: usize,
    /// Virtual time spent blocked on this store (waits + retry backoff).
    pub blocked: Duration,
    /// Waits retried after transient [`WaitError::StoreUnavailable`].
    pub retries: u32,
}

/// What a completed barrier did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BarrierReport {
    /// Dependencies that were already visible when the barrier started.
    pub already_visible: usize,
    /// Dependencies the barrier had to wait for.
    pub waited_for: usize,
    /// Dependencies skipped under [`UnknownStorePolicy::Skip`].
    pub skipped: usize,
    /// Virtual time spent blocked in the barrier.
    pub blocked: Duration,
    /// Per-datastore breakdown: time blocked and outage retries per store.
    pub waits: Vec<StoreWait>,
}

impl BarrierReport {
    /// Folds `other` into this report: counters add, per-store wait entries
    /// merge by interned store id. Used when a barrier resumes across
    /// attempts (degraded re-arm) — the merged telemetry is the sum of
    /// everything every attempt did.
    pub fn merge(&mut self, other: &BarrierReport) {
        self.already_visible += other.already_visible;
        self.waited_for += other.waited_for;
        self.skipped += other.skipped;
        self.blocked += other.blocked;
        for w in &other.waits {
            let entry = self.store_entry(w.store);
            entry.deps += w.deps;
            entry.retries += w.retries;
            entry.blocked += w.blocked;
        }
    }

    fn store_entry(&mut self, store: StoreId) -> &mut StoreWait {
        // Integer compare per entry — the per-store grouping of a barrier
        // never re-hashes or re-compares datastore name strings.
        if let Some(i) = self.waits.iter().position(|w| w.store == store) {
            return &mut self.waits[i];
        }
        self.waits.push(StoreWait {
            store,
            datastore: store.name(),
            deps: 0,
            blocked: Duration::ZERO,
            retries: 0,
        });
        self.waits.last_mut().expect("just pushed")
    }
}

/// Result of a dry-run barrier: the passive consistency checker of §6.3.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DryRunReport {
    /// Dependencies visible at the caller's region right now.
    pub visible: Vec<WriteId>,
    /// Dependencies **not** visible — each one is a potential XCY violation
    /// were the execution to proceed without a barrier here.
    pub unmet: Vec<WriteId>,
    /// Dependencies on datastores this service has no shim for.
    pub unknown: Vec<WriteId>,
}

impl DryRunReport {
    /// Whether proceeding without a barrier would be safe right now.
    pub fn is_satisfied(&self) -> bool {
        self.unmet.is_empty()
    }
}

/// What a budgeted barrier ([`Antipode::barrier_budget`]) produced.
///
/// A budgeted barrier treats running out of time as a structured, expected
/// outcome, not an error: the caller gets the exact dependencies still unmet
/// plus the telemetry of everything the barrier did enforce, and can re-arm
/// the remainder later.
#[derive(Clone, Debug, PartialEq)]
pub enum BarrierOutcome {
    /// Every dependency became visible within the budget.
    Complete(BarrierReport),
    /// The budget elapsed with dependencies still unmet. The application can
    /// degrade (serve partial data, mark the response stale) and re-arm the
    /// remainder via [`Antipode::rearm`].
    Degraded(DegradedBarrier),
}

impl BarrierOutcome {
    /// The telemetry of this outcome: complete, or the partial telemetry of
    /// a degraded barrier.
    pub fn report(&self) -> &BarrierReport {
        match self {
            BarrierOutcome::Complete(r) => r,
            BarrierOutcome::Degraded(d) => &d.report,
        }
    }
}

/// A barrier that ran out of budget: the unmet remainder plus the partial
/// telemetry, re-armable via [`Antipode::rearm`].
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedBarrier {
    /// The lineage the barrier was enforcing (re-arm rebuilds from this).
    pub lineage: LineageId,
    /// Dependencies still not visible when the budget elapsed.
    pub unmet: Vec<WriteId>,
    /// Telemetry of the partial enforcement — per-store waits and retries
    /// accumulated up to the moment the budget ran out.
    pub report: BarrierReport,
}

/// The Antipode client of one service: a shim registry plus the simulation
/// handle. Cheap to clone.
#[derive(Clone)]
pub struct Antipode {
    sim: Sim,
    registry: ShimRegistry,
    policy: UnknownStorePolicy,
    retry: BarrierRetry,
}

impl Antipode {
    /// Creates a client with the default [`UnknownStorePolicy::Fail`] and
    /// the default [`BarrierRetry`].
    pub fn new(sim: Sim) -> Self {
        Antipode {
            sim,
            registry: ShimRegistry::new(),
            policy: UnknownStorePolicy::default(),
            retry: BarrierRetry::default(),
        }
    }

    /// Sets the unknown-store policy.
    pub fn with_policy(mut self, policy: UnknownStorePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the retry policy applied when a store is transiently
    /// unavailable during a barrier.
    pub fn with_retry(mut self, retry: BarrierRetry) -> Self {
        self.retry = retry;
        self
    }

    /// Registers a datastore shim.
    pub fn register(&mut self, shim: Rc<dyn WaitTarget>) {
        self.registry.register(shim);
    }

    /// The shim registry.
    pub fn registry(&self) -> &ShimRegistry {
        &self.registry
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Enforces the lineage's dependencies: blocks until every write in the
    /// lineage is visible at `region` (paper §6.3). Transient
    /// [`WaitError::StoreUnavailable`] failures (a chaos-plane region
    /// outage, say) are retried per the configured [`BarrierRetry`]; other
    /// wait errors surface immediately. Returns a report of what was
    /// enforced, including a per-store wait/retry breakdown.
    pub async fn barrier(
        &self,
        lineage: &Lineage,
        region: Region,
    ) -> Result<BarrierReport, BarrierError> {
        let start = self.sim.now();
        let acc = RefCell::new(BarrierReport::default());
        self.enforce_deps(lineage, region, &acc).await?;
        let mut report = acc.into_inner();
        report.blocked = self.sim.now().since(start);
        Ok(report)
    }

    /// The enforcement core shared by every barrier variant. Telemetry is
    /// written into `acc` *incrementally* — after every wait attempt and
    /// every backoff, not once per dependency — so a caller that cancels
    /// this future mid-flight (a budgeted barrier whose budget elapsed)
    /// still observes the per-store waits and retries accumulated so far,
    /// and retries against the same store add up instead of overwriting.
    async fn enforce_deps(
        &self,
        lineage: &Lineage,
        region: Region,
        acc: &RefCell<BarrierReport>,
    ) -> Result<(), BarrierError> {
        for dep in lineage.deps() {
            let Some(shim) = self.registry.get_id(dep.store()) else {
                match self.policy {
                    UnknownStorePolicy::Fail => {
                        return Err(BarrierError::UnknownStore(dep.datastore().to_string()))
                    }
                    UnknownStorePolicy::Skip => {
                        acc.borrow_mut().skipped += 1;
                        continue;
                    }
                }
            };
            // `deps` counts *resolved* dependencies, incremented only once a
            // dependency is visible (here) or waited through (below). A
            // dependency merely examined must not bump the counter: a
            // degraded barrier re-arms the unmet remainder, and counting at
            // examination time would tally the same dependency once per
            // attempt — after two re-arms a single dep would read as three.
            if shim.is_visible(dep, region) {
                let mut r = acc.borrow_mut();
                r.store_entry(dep.store()).deps += 1;
                r.already_visible += 1;
                continue;
            }
            let max_attempts = self.retry.max_attempts.max(1);
            let mut retries = 0u32;
            loop {
                let attempt_start = self.sim.now();
                let res = shim.wait(dep, region).await;
                let attempt = self.sim.now().since(attempt_start);
                acc.borrow_mut().store_entry(dep.store()).blocked += attempt;
                match res {
                    Ok(()) => break,
                    Err(WaitError::StoreUnavailable(_)) if retries + 1 < max_attempts => {
                        let backoff = self.retry.backoff(retries);
                        retries += 1;
                        {
                            let mut r = acc.borrow_mut();
                            let entry = r.store_entry(dep.store());
                            entry.retries += 1;
                            entry.blocked += backoff;
                        }
                        self.sim.sleep(backoff).await;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            {
                let mut r = acc.borrow_mut();
                r.store_entry(dep.store()).deps += 1;
                r.waited_for += 1;
            }
        }
        Ok(())
    }

    /// Degradation-aware barrier: enforce as much of the lineage as `budget`
    /// allows. Completes like [`Antipode::barrier`] when everything lands in
    /// time; otherwise returns [`BarrierOutcome::Degraded`] carrying the
    /// unmet remainder and the partial telemetry — a structured outcome, not
    /// an error, so services can serve degraded responses during a fault and
    /// [`Antipode::rearm`] the remainder once the storm passes.
    pub async fn barrier_budget(
        &self,
        lineage: &Lineage,
        region: Region,
        budget: Duration,
    ) -> Result<BarrierOutcome, BarrierError> {
        let start = self.sim.now();
        let acc = RefCell::new(BarrierReport::default());
        let enforced = {
            let fut = self.enforce_deps(lineage, region, &acc);
            antipode_sim::timeout(&self.sim, budget, fut).await
        };
        let unmet = match enforced {
            Ok(Ok(())) => None,
            Ok(Err(e)) => return Err(e),
            Err(_elapsed) => Some(self.dry_run(lineage, region).unmet),
        };
        let mut report = acc.into_inner();
        report.blocked = self.sim.now().since(start);
        Ok(match unmet {
            None => BarrierOutcome::Complete(report),
            Some(unmet) => BarrierOutcome::Degraded(DegradedBarrier {
                lineage: lineage.id(),
                unmet,
                report,
            }),
        })
    }

    /// Re-arms a degraded barrier: enforces only the unmet remainder (with a
    /// fresh budget, or unbounded when `budget` is `None`) and merges the
    /// prior partial telemetry into the new outcome's report — the total
    /// telemetry of a degraded-then-rearmed barrier equals one uninterrupted
    /// barrier's. Dependencies are immutable facts, so re-arming is always
    /// safe, any number of times.
    pub async fn rearm(
        &self,
        degraded: &DegradedBarrier,
        region: Region,
        budget: Option<Duration>,
    ) -> Result<BarrierOutcome, BarrierError> {
        let mut remainder = Lineage::new(degraded.lineage);
        for w in &degraded.unmet {
            remainder.append(w.clone());
        }
        let mut outcome = match budget {
            None => BarrierOutcome::Complete(self.barrier(&remainder, region).await?),
            Some(budget) => self.barrier_budget(&remainder, region, budget).await?,
        };
        let report = match &mut outcome {
            BarrierOutcome::Complete(r) => r,
            BarrierOutcome::Degraded(d) => &mut d.report,
        };
        let mut merged = degraded.report.clone();
        merged.merge(report);
        *report = merged;
        Ok(outcome)
    }

    /// Dry-run mode (§6.3): simulates enforcement without blocking,
    /// reporting which dependencies would have stalled the barrier. Unknown
    /// stores are reported rather than failing, regardless of policy.
    pub fn dry_run(&self, lineage: &Lineage, region: Region) -> DryRunReport {
        let mut report = DryRunReport::default();
        for dep in lineage.deps() {
            match self.registry.get_id(dep.store()) {
                None => report.unknown.push(dep.clone()),
                Some(shim) => {
                    if shim.is_visible(dep, region) {
                        report.visible.push(dep.clone());
                    } else {
                        report.unmet.push(dep.clone());
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::LocalBoxFuture;
    use antipode_lineage::LineageId;
    use std::cell::RefCell;
    use std::collections::HashSet;

    const HERE: Region = Region("test-region");

    /// A WaitTarget whose visibility is flipped externally at a given time.
    struct TestStore {
        name: String,
        sim: Sim,
        visible: Rc<RefCell<HashSet<(String, u64)>>>,
    }

    impl TestStore {
        fn new(sim: &Sim, name: &str) -> Rc<Self> {
            Rc::new(TestStore {
                name: name.to_string(),
                sim: sim.clone(),
                visible: Rc::new(RefCell::new(HashSet::new())),
            })
        }

        /// Make (key, version) visible after `d`.
        fn visible_after(&self, key: &str, version: u64, d: Duration) {
            let visible = self.visible.clone();
            let key = key.to_string();
            let sim = self.sim.clone();
            self.sim.spawn(async move {
                sim.sleep(d).await;
                visible.borrow_mut().insert((key, version));
            });
        }
    }

    impl WaitTarget for TestStore {
        fn datastore_name(&self) -> &str {
            &self.name
        }
        fn wait<'a>(
            &'a self,
            write: &'a WriteId,
            region: Region,
        ) -> LocalBoxFuture<'a, Result<(), WaitError>> {
            Box::pin(async move {
                // Poll-based wait; production shims subscribe instead, but
                // for tests 1ms polling is fine.
                while !self.is_visible(write, region) {
                    self.sim.sleep(Duration::from_millis(1)).await;
                }
                Ok(())
            })
        }
        fn is_visible(&self, write: &WriteId, _region: Region) -> bool {
            self.visible
                .borrow()
                .contains(&(write.key().to_string(), write.version()))
        }
    }

    fn lineage_with(deps: &[(&str, &str, u64)]) -> Lineage {
        let mut l = Lineage::new(LineageId(1));
        for (s, k, v) in deps {
            l.append(WriteId::new(*s, *k, *v));
        }
        l
    }

    #[test]
    fn barrier_blocks_until_visible() {
        let sim = Sim::new(0);
        let store = TestStore::new(&sim, "db");
        store.visible_after("k", 1, Duration::from_millis(500));
        let mut ap = Antipode::new(sim.clone());
        ap.register(store);
        let l = lineage_with(&[("db", "k", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.waited_for, 1);
        assert_eq!(report.already_visible, 0);
        assert!(report.blocked >= Duration::from_millis(500));
        assert!(sim.now().since(antipode_sim::SimTime::ZERO) >= Duration::from_millis(500));
    }

    #[test]
    fn barrier_fast_path_when_already_visible() {
        let sim = Sim::new(0);
        let store = TestStore::new(&sim, "db");
        store.visible_after("k", 1, Duration::ZERO);
        sim.run(); // let visibility land
        let mut ap = Antipode::new(sim.clone());
        ap.register(store);
        let l = lineage_with(&[("db", "k", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.already_visible, 1);
        assert_eq!(report.blocked, Duration::ZERO);
    }

    #[test]
    fn barrier_spans_multiple_stores() {
        let sim = Sim::new(0);
        let a = TestStore::new(&sim, "a");
        let b = TestStore::new(&sim, "b");
        a.visible_after("x", 1, Duration::from_millis(100));
        b.visible_after("y", 2, Duration::from_millis(300));
        let mut ap = Antipode::new(sim.clone());
        ap.register(a);
        ap.register(b);
        let l = lineage_with(&[("a", "x", 1), ("b", "y", 2)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.already_visible + report.waited_for, 2);
        assert!(report.blocked >= Duration::from_millis(300));
    }

    #[test]
    fn unknown_store_fails_by_default() {
        let sim = Sim::new(0);
        let ap = Antipode::new(sim.clone());
        let l = lineage_with(&[("ghost", "k", 1)]);
        let err = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap_err() });
        assert_eq!(err, BarrierError::UnknownStore("ghost".into()));
    }

    #[test]
    fn unknown_store_skipped_under_policy() {
        let sim = Sim::new(0);
        let ap = Antipode::new(sim.clone()).with_policy(UnknownStorePolicy::Skip);
        let l = lineage_with(&[("ghost", "k", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.skipped, 1);
    }

    /// A WaitTarget that reports `StoreUnavailable` for the first
    /// `failures` wait calls, then behaves like [`TestStore`].
    struct FlakyStore {
        base: Rc<TestStore>,
        remaining_failures: std::cell::Cell<u32>,
    }

    impl WaitTarget for FlakyStore {
        fn datastore_name(&self) -> &str {
            self.base.datastore_name()
        }
        fn wait<'a>(
            &'a self,
            write: &'a WriteId,
            region: Region,
        ) -> LocalBoxFuture<'a, Result<(), WaitError>> {
            Box::pin(async move {
                let left = self.remaining_failures.get();
                if left > 0 {
                    self.remaining_failures.set(left - 1);
                    return Err(WaitError::StoreUnavailable("db@outage".into()));
                }
                self.base.wait(write, region).await
            })
        }
        fn is_visible(&self, write: &WriteId, region: Region) -> bool {
            self.base.is_visible(write, region)
        }
    }

    #[test]
    fn barrier_retries_through_transient_unavailability() {
        let sim = Sim::new(0);
        let base = TestStore::new(&sim, "db");
        base.visible_after("k", 1, Duration::from_millis(5));
        let flaky = Rc::new(FlakyStore {
            base,
            remaining_failures: std::cell::Cell::new(3),
        });
        let mut ap = Antipode::new(sim.clone());
        ap.register(flaky);
        let l = lineage_with(&[("db", "k", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.waited_for, 1);
        assert_eq!(report.waits.len(), 1);
        let w = &report.waits[0];
        assert_eq!(&*w.datastore, "db");
        assert_eq!(w.retries, 3);
        // Backoff 100 + 200 + 400 ms at minimum.
        assert!(w.blocked >= Duration::from_millis(700), "blocked {w:?}");
    }

    /// Satellite regression: per-store telemetry must *accumulate* across
    /// `StoreUnavailable` retries, not be overwritten by the last attempt.
    /// With 3 transient failures and the default policy the store entry must
    /// hold exactly retries = 3 and blocked ≥ the pinned backoff sum
    /// 100 + 200 + 400 ms — a single-attempt overwrite would report
    /// retries ≤ 1 and only the final attempt's wait.
    #[test]
    fn retry_telemetry_accumulates_across_attempts() {
        let sim = Sim::new(0);
        let base = TestStore::new(&sim, "db");
        base.visible_after("k", 1, Duration::from_millis(5));
        let flaky = Rc::new(FlakyStore {
            base,
            remaining_failures: std::cell::Cell::new(3),
        });
        let mut ap = Antipode::new(sim.clone());
        ap.register(flaky);
        let l = lineage_with(&[("db", "k", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        let w = &report.waits[0];
        assert_eq!(w.retries, 3, "each retry must add to the entry");
        assert_eq!(w.deps, 1);
        let backoff_sum = Duration::from_millis(100 + 200 + 400);
        assert!(
            w.blocked >= backoff_sum,
            "blocked {:?} must include every backoff (≥ {backoff_sum:?})",
            w.blocked
        );
        assert!(report.blocked >= w.blocked);
    }

    #[test]
    fn budget_barrier_completes_within_budget() {
        let sim = Sim::new(0);
        let store = TestStore::new(&sim, "db");
        store.visible_after("k", 1, Duration::from_millis(50));
        let mut ap = Antipode::new(sim.clone());
        ap.register(store);
        let l = lineage_with(&[("db", "k", 1)]);
        let outcome = sim.block_on(async move {
            ap.barrier_budget(&l, HERE, Duration::from_secs(1))
                .await
                .unwrap()
        });
        assert!(matches!(outcome, BarrierOutcome::Complete(_)));
        assert_eq!(outcome.report().waited_for, 1);
    }

    #[test]
    fn budget_barrier_degrades_with_partial_telemetry_then_rearms() {
        let sim = Sim::new(0);
        let fast = TestStore::new(&sim, "fast");
        let slow = TestStore::new(&sim, "slow");
        fast.visible_after("a", 1, Duration::from_millis(100));
        slow.visible_after("b", 1, Duration::from_secs(10));
        let mut ap = Antipode::new(sim.clone());
        ap.register(fast);
        ap.register(slow);
        let l = lineage_with(&[("fast", "a", 1), ("slow", "b", 1)]);
        let ap2 = ap.clone();
        sim.block_on(async move {
            let outcome = ap2
                .barrier_budget(&l, HERE, Duration::from_secs(1))
                .await
                .unwrap();
            let degraded = match outcome {
                BarrierOutcome::Degraded(d) => d,
                other => panic!("10s dep cannot meet a 1s budget, got {other:?}"),
            };
            // Structured outcome: exactly the slow dep is unmet, and the
            // partial telemetry still shows the fast store's enforced wait.
            assert_eq!(degraded.unmet, vec![WriteId::new("slow", "b", 1)]);
            let fast_wait = degraded
                .report
                .waits
                .iter()
                .find(|w| &*w.datastore == "fast")
                .expect("cancelled barrier keeps partial telemetry");
            assert!(fast_wait.blocked >= Duration::from_millis(100));
            // Re-arm the remainder unbounded: it completes, and the merged
            // report covers both phases.
            let rearmed = ap2.rearm(&degraded, HERE, None).await.unwrap();
            let report = match rearmed {
                BarrierOutcome::Complete(r) => r,
                other => panic!("unbounded rearm must complete, got {other:?}"),
            };
            let get = |n: &str| report.waits.iter().find(|w| &*w.datastore == n).unwrap();
            assert!(get("fast").blocked >= Duration::from_millis(100));
            assert!(get("slow").blocked > Duration::ZERO);
            assert!(ap2.dry_run(&l, HERE).is_satisfied());
        });
        assert!(sim.now().since(antipode_sim::SimTime::ZERO) >= Duration::from_secs(10));
    }

    #[test]
    fn rearm_with_budget_can_degrade_again_and_telemetry_keeps_merging() {
        let sim = Sim::new(0);
        let slow = TestStore::new(&sim, "slow");
        slow.visible_after("b", 1, Duration::from_secs(10));
        let mut ap = Antipode::new(sim.clone());
        ap.register(slow);
        let l = lineage_with(&[("slow", "b", 1)]);
        sim.block_on(async move {
            let first = match ap
                .barrier_budget(&l, HERE, Duration::from_secs(1))
                .await
                .unwrap()
            {
                BarrierOutcome::Degraded(d) => d,
                other => panic!("expected degraded, got {other:?}"),
            };
            let second = match ap
                .rearm(&first, HERE, Some(Duration::from_secs(2)))
                .await
                .unwrap()
            {
                BarrierOutcome::Degraded(d) => d,
                other => panic!("expected degraded again, got {other:?}"),
            };
            assert_eq!(second.unmet, vec![WriteId::new("slow", "b", 1)]);
            // Merged blocked time spans both budget windows.
            assert!(second.report.blocked >= Duration::from_secs(3));
            // A final unbounded rearm drains the remainder.
            let done = ap.rearm(&second, HERE, None).await.unwrap();
            assert!(matches!(done, BarrierOutcome::Complete(_)));
            assert!(done.report().blocked >= Duration::from_secs(10) - Duration::from_secs(1));
        });
    }

    /// Satellite regression: per-store `deps` telemetry must not be
    /// double-counted when a degraded barrier is re-armed more than once.
    /// One slow dep enforced across *three* attempts (degrade → degrade →
    /// complete) must tally exactly one resolved dependency per store — the
    /// merged totals of a degraded-then-rearmed barrier equal one
    /// uninterrupted barrier's. Counting at examination time would report
    /// deps = 3 for the slow store here.
    #[test]
    fn rearm_twice_does_not_double_count_per_store_deps() {
        let sim = Sim::new(0);
        let fast = TestStore::new(&sim, "fast");
        let slow = TestStore::new(&sim, "slow");
        fast.visible_after("a", 1, Duration::from_millis(100));
        slow.visible_after("b", 1, Duration::from_secs(10));
        let mut ap = Antipode::new(sim.clone());
        ap.register(fast);
        ap.register(slow);
        let l = lineage_with(&[("fast", "a", 1), ("slow", "b", 1)]);
        sim.block_on(async move {
            let first = match ap
                .barrier_budget(&l, HERE, Duration::from_secs(1))
                .await
                .unwrap()
            {
                BarrierOutcome::Degraded(d) => d,
                other => panic!("expected degraded, got {other:?}"),
            };
            let second = match ap
                .rearm(&first, HERE, Some(Duration::from_secs(2)))
                .await
                .unwrap()
            {
                BarrierOutcome::Degraded(d) => d,
                other => panic!("expected degraded again, got {other:?}"),
            };
            let report = match ap.rearm(&second, HERE, None).await.unwrap() {
                BarrierOutcome::Complete(r) => r,
                other => panic!("unbounded rearm must complete, got {other:?}"),
            };
            let get = |n: &str| report.waits.iter().find(|w| &*w.datastore == n).unwrap();
            // Pin the sums: the lineage has exactly one dep per store, and
            // the merged telemetry must agree no matter how many times the
            // barrier was re-armed along the way.
            assert_eq!(get("fast").deps, 1, "fast dep resolved in attempt one");
            assert_eq!(
                get("slow").deps,
                1,
                "slow dep examined thrice but resolved once"
            );
            assert_eq!(
                report.already_visible + report.waited_for,
                2,
                "outcome counters match the dependency count"
            );
            let per_store: usize = report.waits.iter().map(|w| w.deps).sum();
            assert_eq!(
                per_store,
                report.already_visible + report.waited_for,
                "per-store deps sum equals the resolved total"
            );
        });
    }

    #[test]
    fn budget_barrier_with_empty_lineage_is_instantly_complete() {
        let sim = Sim::new(0);
        let ap = Antipode::new(sim.clone());
        let l = Lineage::new(LineageId(1));
        let outcome = sim.block_on(async move {
            ap.barrier_budget(&l, HERE, Duration::from_millis(1))
                .await
                .unwrap()
        });
        assert!(matches!(outcome, BarrierOutcome::Complete(_)));
        assert_eq!(outcome.report().blocked, Duration::ZERO);
    }

    #[test]
    fn barrier_exhausts_retries_and_surfaces_error() {
        let sim = Sim::new(0);
        let base = TestStore::new(&sim, "db");
        let flaky = Rc::new(FlakyStore {
            base,
            remaining_failures: std::cell::Cell::new(u32::MAX),
        });
        let mut ap = Antipode::new(sim.clone()).with_retry(BarrierRetry {
            max_attempts: 2,
            ..BarrierRetry::default()
        });
        ap.register(flaky);
        let l = lineage_with(&[("db", "k", 1)]);
        let err = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap_err() });
        assert_eq!(
            err,
            BarrierError::Wait(WaitError::StoreUnavailable("db@outage".into()))
        );
    }

    #[test]
    fn report_breaks_waits_down_by_store() {
        let sim = Sim::new(0);
        let a = TestStore::new(&sim, "a");
        let b = TestStore::new(&sim, "b");
        a.visible_after("x", 1, Duration::from_millis(100));
        b.visible_after("y", 1, Duration::from_millis(300));
        let mut ap = Antipode::new(sim.clone());
        ap.register(a);
        ap.register(b);
        let l = lineage_with(&[("a", "x", 1), ("b", "y", 1)]);
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(report.waits.len(), 2);
        let get = |n: &str| report.waits.iter().find(|w| &*w.datastore == n).unwrap();
        assert_eq!(get("a").deps, 1);
        assert_eq!(get("b").deps, 1);
        assert_eq!(get("a").retries + get("b").retries, 0);
        assert!(get("b").blocked >= Duration::from_millis(100));
    }

    #[test]
    fn dry_run_classifies_dependencies() {
        let sim = Sim::new(0);
        let store = TestStore::new(&sim, "db");
        store.visible_after("seen", 1, Duration::ZERO);
        sim.run();
        let mut ap = Antipode::new(sim.clone());
        ap.register(store);
        let l = lineage_with(&[("db", "seen", 1), ("db", "pending", 2), ("ghost", "k", 1)]);
        let report = ap.dry_run(&l, HERE);
        assert_eq!(report.visible, vec![WriteId::new("db", "seen", 1)]);
        assert_eq!(report.unmet, vec![WriteId::new("db", "pending", 2)]);
        assert_eq!(report.unknown, vec![WriteId::new("ghost", "k", 1)]);
        assert!(!report.is_satisfied());
    }

    #[test]
    fn empty_lineage_barrier_is_instant() {
        let sim = Sim::new(0);
        let ap = Antipode::new(sim.clone());
        let l = Lineage::new(LineageId(1));
        let report = sim.block_on(async move { ap.barrier(&l, HERE).await.unwrap() });
        assert_eq!(
            report.already_visible + report.waited_for + report.skipped,
            0
        );
        assert_eq!(report.blocked, Duration::ZERO);
    }
}
