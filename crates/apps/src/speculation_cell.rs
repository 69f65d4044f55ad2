//! Speculative vs blocking barriers on the S3×SNS Post-Notification cell.
//!
//! The Table 1 worst case — S3 post storage (cross-region replication with
//! a ≈ 15 s median, heavy LogNormal tail) raced by SNS notifications — is
//! exactly where blocking barriers hurt: the Reader sits behind the store's
//! tail for tens of seconds per request (§7.4 measures ≈ 18 s mean barrier
//! waits). This cell runs the same topology through the speculation plane:
//! the Reader proceeds as soon as the speculation budget elapses, renders
//! the feed entry and fans out with every side effect parked in a
//! [`ConfinementBuffer`],
//! and lets the [`Speculator`] commit on confirmation or roll back and
//! redeliver on violation.
//!
//! The invariant under test is the relaxed one: zero **observed** XCY
//! violations — speculative evaluations may see unmet dependencies (their
//! effects are confined), but nothing externally visible may ever expose
//! one, and no confined write may leak after a rollback.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, LineageIdGen, UnknownStorePolicy};
use antipode_lineage::Lineage;
use antipode_runtime::{SpecOutcome, SpecStats, SpeculationPolicy, Speculator};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::net::Network;
use antipode_sim::{FaultKind, RateCounter, Samples, Sim, SimTime};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::speculation::ConfinementBuffer;
use antipode_store::{KvStore, RabbitMq, Redis, Sns, S3};
use bytes::Bytes;

/// Configuration of one speculative-cell run.
#[derive(Clone, Debug)]
pub struct SpecCellConfig {
    /// Number of post-creation requests.
    pub requests: usize,
    /// Master seed.
    pub seed: u64,
    /// `true` runs speculative barriers; `false` throws the kill switch so
    /// every request degrades to a blocking barrier (the ablation baseline
    /// measured through the *same* code path).
    pub speculate: bool,
    /// Speculation budget: how long the barrier blocks before proceeding
    /// speculatively.
    pub budget: Duration,
    /// Confirmation budget: how long an open speculation may wait for its
    /// dependencies before it is declared violated.
    pub confirm_budget: Duration,
    /// Per-endpoint cap on concurrently open speculations.
    pub max_open: usize,
    /// Whether to crash the reader-side S3 replica for [`Self::chaos_window`].
    pub chaos: bool,
    /// The crash window (virtual time) when [`Self::chaos`] is on.
    pub chaos_window: (Duration, Duration),
    /// Gap between request arrivals.
    pub inter_arrival: Duration,
}

impl SpecCellConfig {
    /// The speculative variant: 36 requests, 500 ms budget, 45 s
    /// confirmation budget, no chaos.
    pub fn speculative() -> Self {
        SpecCellConfig {
            requests: 36,
            seed: 0xA57C,
            speculate: true,
            budget: Duration::from_millis(500),
            confirm_budget: Duration::from_secs(45),
            max_open: 64,
            chaos: false,
            chaos_window: (Duration::from_secs(10), Duration::from_secs(90)),
            inter_arrival: Duration::from_secs(2),
        }
    }

    /// The blocking ablation: identical topology and load, kill switch
    /// thrown.
    pub fn blocking() -> Self {
        SpecCellConfig {
            speculate: false,
            ..SpecCellConfig::speculative()
        }
    }

    /// Enables the reader-side S3 replica crash window.
    pub fn with_chaos(mut self) -> Self {
        self.chaos = true;
        self
    }

    /// Sets the request count.
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Measurements from one speculative-cell run.
#[derive(Clone, Debug, Default)]
pub struct SpecCellResult {
    /// End-to-end handler latency (seconds): notification receipt until the
    /// Reader's first execution produced its value. This is the user-facing
    /// response time — blocking barriers put the store's replication tail
    /// in front of it, speculative barriers only the budget.
    pub handler_latency: Samples,
    /// Notification receipt until the request's effects were durably
    /// committed (seconds). Speculation does not shorten this — effects
    /// stay confined until confirmation — it shortens [`Self::handler_latency`].
    pub commit_latency: Samples,
    /// `post not found` on the definitive post-commit read. Must be zero:
    /// every outcome path re-establishes XCY before effects go visible.
    pub violations: RateCounter,
    /// Non-speculative unsatisfied checkpoints reported by the
    /// [`ConsistencyChecker`]. The speculation-plane invariant: zero.
    pub observed_violations: usize,
    /// Feed-store writes beyond one per request — a discarded confined
    /// write that reached the store anyway. The feed store is single-region,
    /// so its WAL length counts every put that ever hit it. Must be zero.
    pub leaked_writes: usize,
    /// Speculator counters (speculated / confirmed / violated / …).
    pub stats: SpecStats,
    /// Deterministic event trace: (outcome, post index, virtual nanos).
    pub trace: Vec<(String, u64, u64)>,
}

/// Runs the S3×SNS Post-Notification cell through the speculation plane.
pub fn run_speculation(cfg: &SpecCellConfig) -> SpecCellResult {
    let sim = Sim::new(cfg.seed);
    let net = Rc::new(Network::global_triangle());
    let regions = [EU, US];
    let post = S3::new(&sim, net.clone(), "post-storage-s3", &regions);
    let notif = Sns::new(&sim, net.clone(), "notifier-sns", &regions);
    let feed = Redis::new(&sim, net.clone(), "feed-redis", &[US]);
    let fanout = RabbitMq::new(&sim, net, "feed-fanout", &[US]);
    let post_kv: KvStore = post.store().clone();
    let feed_kv: KvStore = feed.store().clone();
    let post_shim = KvShim::new(post_kv.clone());
    let notif_shim = QueueShim::new(notif.queue().clone());
    let feed_shim = KvShim::new(feed_kv.clone());
    let fanout_shim = QueueShim::new(fanout.queue().clone());

    let mut ap = Antipode::new(sim.clone()).with_policy(UnknownStorePolicy::Fail);
    ap.register(Rc::new(post_shim.clone()));
    ap.register(Rc::new(notif_shim.clone()));
    ap.register(Rc::new(feed_shim.clone()));
    ap.register(Rc::new(fanout_shim.clone()));
    let checker = ConsistencyChecker::new(ap.clone());
    let speculator = Speculator::new(
        ap,
        SpeculationPolicy {
            enabled: cfg.speculate,
            max_open: cfg.max_open,
            budget: cfg.budget,
            confirm_budget: cfg.confirm_budget,
        },
    );

    if cfg.chaos {
        let (from, until) = cfg.chaos_window;
        sim.faults().schedule(
            SimTime::ZERO.saturating_add(from),
            SimTime::ZERO.saturating_add(until),
            FaultKind::ReplicaCrash {
                store: "post-storage-s3".into(),
                region: US,
            },
        );
    }

    let result: Rc<RefCell<SpecCellResult>> = Rc::new(RefCell::new(SpecCellResult::default()));

    // --- Reader: one handler per notification, all through the speculator.
    {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let result = result.clone();
        let notif_shim = notif_shim.clone();
        let post_shim = post_shim.clone();
        let feed_shim = feed_shim.clone();
        let fanout_shim = fanout_shim.clone();
        let checker = checker.clone();
        let speculator = speculator.clone();
        let gen = Rc::new(LineageIdGen::new(1));
        sim.spawn_detached(async move {
            let mut sub = notif_shim.subscribe(US).expect("reader region configured");
            for _ in 0..cfg2.requests {
                let Some(msg) = sub.recv().await.transpose() else {
                    break;
                };
                let msg = msg.expect("writer publishes only valid envelopes");
                let sim3 = sim2.clone();
                let result = result.clone();
                let post_shim = post_shim.clone();
                let feed_shim = feed_shim.clone();
                let fanout_shim = fanout_shim.clone();
                let checker = checker.clone();
                let speculator = speculator.clone();
                let gen = gen.clone();
                sim2.spawn_detached(async move {
                    let recv_at = sim3.now();
                    let post_id =
                        String::from_utf8(msg.payload.to_vec()).expect("payload is a post id");
                    let idx: u64 = post_id
                        .strip_prefix("post-")
                        .and_then(|s| s.parse().ok())
                        .expect("writer-formatted post id");
                    let mut lineage = msg.lineage.unwrap_or_else(|| Lineage::new(gen.next_id()));
                    let snapshot = lineage.clone();
                    let out = speculator
                        .run(&mut lineage, US, |attempt| {
                            let feed_shim = feed_shim.clone();
                            let fanout_shim = fanout_shim.clone();
                            let checker = checker.clone();
                            let lineage = snapshot.clone();
                            let post_id = post_id.clone();
                            let result = result.clone();
                            let sim4 = sim3.clone();
                            async move {
                                // The evaluation may run ahead of its
                                // dependencies; its unmet checkpoints are
                                // speculative, not observed — every effect
                                // below is confined.
                                checker.checkpoint_speculative("reader:feed-render", &lineage, US);
                                if attempt == 0 {
                                    result
                                        .borrow_mut()
                                        .handler_latency
                                        .record_duration(sim4.now().since(recv_at));
                                }
                                let mut buf = ConfinementBuffer::new();
                                buf.confine_write(
                                    &feed_shim,
                                    US,
                                    format!("feed-{post_id}"),
                                    Bytes::from(post_id.clone()),
                                );
                                buf.confine_publish(&fanout_shim, US, Bytes::from(post_id.clone()));
                                ((), buf)
                            }
                        })
                        .await
                        .expect("all shims registered and faults heal");
                    let event = match &out {
                        SpecOutcome::Blocking { .. } => "blocking",
                        SpecOutcome::Confirmed { .. } => "confirmed",
                        SpecOutcome::RolledBack { .. } => "rolled-back",
                    };
                    // Post-commit, the checkpoint is definitive: the
                    // *incoming* dependencies must be visible (the handler's
                    // own just-committed writes are still propagating, which
                    // is ordinary replication lag, not an XCY violation).
                    let dry = checker.checkpoint("reader:post-commit", &snapshot, US);
                    let found = post_shim
                        .read(US, &post_id)
                        .await
                        .expect("reader region configured")
                        .is_some();
                    let mut r = result.borrow_mut();
                    r.violations.record(!found || !dry.is_satisfied());
                    r.commit_latency.record_duration(sim3.now().since(recv_at));
                    r.trace
                        .push((event.to_string(), idx, sim3.now().as_nanos()));
                });
            }
        });
    }

    // --- Writers: one post + notification per request.
    let gen_w = Rc::new(LineageIdGen::new(2));
    for i in 0..cfg.requests {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let post_shim = post_shim.clone();
        let notif_shim = notif_shim.clone();
        let gen_w = gen_w.clone();
        sim.spawn_detached(async move {
            sim2.sleep(cfg2.inter_arrival * i as u32).await;
            let post_id = format!("post-{i}");
            let mut lineage = Lineage::new(gen_w.next_id());
            post_shim
                .write(EU, &post_id, Bytes::from(vec![0u8; 4096]), &mut lineage)
                .await
                .expect("writer region configured");
            notif_shim
                .publish(EU, Bytes::from(post_id), &mut lineage)
                .await
                .expect("writer region configured");
        });
    }

    sim.run();

    let mut out = result.borrow().clone();
    out.stats = speculator.stats();
    out.observed_violations = checker.observed_violations();
    let present = (0..cfg.requests)
        .filter(|i| feed_kv.get_sync(US, &format!("feed-post-{i}")).is_some())
        .count();
    debug_assert_eq!(
        present, cfg.requests,
        "every request committed its feed entry"
    );
    // Exactly one feed put per request: anything beyond that is a discarded
    // confined write that leaked into the store.
    out.leaked_writes = feed_kv.wal_len(US).saturating_sub(present);
    debug_assert_eq!(
        out.violations.total() as usize,
        cfg.requests,
        "every request measured"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cfg: SpecCellConfig) -> SpecCellConfig {
        cfg.with_requests(24)
    }

    #[test]
    fn speculation_cuts_handler_latency_by_an_order_of_magnitude() {
        let spec = run_speculation(&small(SpecCellConfig::speculative()));
        let blocking = run_speculation(&small(SpecCellConfig::blocking()));
        let sp = spec.handler_latency.summary().unwrap();
        let bp = blocking.handler_latency.summary().unwrap();
        // Blocking handlers sit behind S3's ≈ 15 s-median replication tail;
        // speculative handlers proceed after the 500 ms budget.
        assert!(
            bp.p99 > 5.0 * sp.p99,
            "blocking p99 {} vs speculative p99 {}",
            bp.p99,
            sp.p99
        );
        assert!(
            sp.p99 < 2.0,
            "speculative p99 {} should be ≈ budget",
            sp.p99
        );
        for r in [&spec, &blocking] {
            assert_eq!(r.violations.hits(), 0);
            assert_eq!(r.observed_violations, 0);
            assert_eq!(r.leaked_writes, 0);
        }
        assert!(
            spec.stats.speculated > 0,
            "S3 tail must trigger speculation"
        );
        assert_eq!(blocking.stats.speculated, 0, "kill switch must hold");
        assert_eq!(blocking.stats.fell_back as usize, blocking.trace.len());
    }

    #[test]
    fn chaos_rollbacks_stay_confined_and_unobserved() {
        let r = run_speculation(&small(SpecCellConfig::speculative()).with_chaos());
        assert!(
            r.stats.violated > 0,
            "an 80 s replica crash against a 45 s confirmation budget must violate"
        );
        assert_eq!(r.stats.redelivered, r.stats.violated);
        assert!(r.stats.rolled_back_writes > 0);
        // The whole point: rollbacks leave nothing behind and nobody
        // observed an XCY violation.
        assert_eq!(r.leaked_writes, 0, "discarded confined writes leaked");
        assert_eq!(r.observed_violations, 0);
        assert_eq!(r.violations.hits(), 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let cfg = small(SpecCellConfig::speculative()).with_chaos();
        let a = run_speculation(&cfg);
        let b = run_speculation(&cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.handler_latency.values(), b.handler_latency.values());
        assert_eq!(a.stats, b.stats);
    }
}
