//! Typed RPC endpoints with automatic lineage propagation (paper §6.2:
//! "Services must include their lineages with all RPC requests and
//! responses").
//!
//! An [`Endpoint`] couples a [`Service`] (worker pool + service time) with a
//! handler. [`Endpoint::call`] performs the full client-side protocol:
//! inject the caller's lineage into outgoing baggage, transit the network,
//! queue for a worker, run the handler under the server-side
//! [`RequestCtx`], transit back, and absorb the (possibly extended) lineage
//! from the response — so shim writes inside handlers flow back to callers
//! without any manual bookkeeping.
//!
//! Endpoints can additionally be armed against the chaos plane: a
//! per-attempt timeout ([`Endpoint::with_timeout`]), exponential backoff
//! with deterministic jitter between retries ([`RetryPolicy`]), and a
//! [`CircuitBreaker`] that sheds load while a callee is crashed or
//! partitioned away. [`Endpoint::try_call_from`] runs the full
//! timeout/retry/breaker protocol; the plain [`Endpoint::call_from`] stays
//! fire-and-wait.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use antipode_lineage::Baggage;
use antipode_sim::rng::SimRng;
use antipode_sim::{timeout, SimTime};
use rand::Rng;

use crate::request::RequestCtx;
use crate::runtime::Runtime;
use crate::service::Service;

type BoxFut<T> = Pin<Box<dyn Future<Output = T>>>;
type Handler<Req, Resp> = dyn Fn(Req, RequestCtx) -> BoxFut<(Resp, RequestCtx)>;

/// Why a [`Endpoint::try_call_from`] gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// Every attempt hit the per-attempt timeout.
    Timeout {
        /// Number of attempts made before giving up.
        attempts: u32,
    },
    /// The circuit breaker is open: the call was shed without hitting the
    /// network.
    CircuitOpen,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout { attempts } => {
                write!(f, "rpc timed out after {attempts} attempt(s)")
            }
            RpcError::CircuitOpen => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Exponential backoff with deterministic jitter between RPC attempts.
///
/// Attempt `n` (0-based) sleeps `base * multiplier^n`, capped at `max`, then
/// scaled by a jitter factor drawn uniformly from `[1 - jitter, 1 + jitter]`
/// out of the endpoint's named RNG stream — so schedules are fully
/// reproducible from the simulation seed while still decorrelating retry
/// storms.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Backoff ceiling.
    pub max: Duration,
    /// Relative jitter amplitude in `[0, 1]`; 0 disables jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(100),
            multiplier: 2.0,
            max: Duration::from_secs(5),
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retrying after (0-based) failed attempt `attempt`.
    pub fn backoff<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> Duration {
        let exp = self.base.as_secs_f64() * self.multiplier.max(1.0).powi(attempt as i32);
        let capped = exp.min(self.max.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = if jitter > 0.0 {
            1.0 + jitter * (2.0 * rng.random::<f64>() - 1.0)
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a probe through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
        }
    }
}

/// Breaker state (classic three-state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are shed until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe class of calls is let through; success
    /// closes, failure re-opens.
    HalfOpen,
}

struct BreakerInner {
    config: BreakerConfig,
    state: Cell<BreakerState>,
    failures: Cell<u32>,
    opened_at: Cell<SimTime>,
}

/// A shared circuit breaker. Cheap to clone; clones observe the same state,
/// so several endpoints targeting the same callee can share one breaker.
#[derive(Clone)]
pub struct CircuitBreaker {
    inner: Rc<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            inner: Rc::new(BreakerInner {
                config,
                state: Cell::new(BreakerState::Closed),
                failures: Cell::new(0),
                opened_at: Cell::new(SimTime::ZERO),
            }),
        }
    }

    /// Current state (after any cooldown transition driven by `allow`).
    pub fn state(&self) -> BreakerState {
        self.inner.state.get()
    }

    /// Whether a call may proceed at virtual time `now`. An open breaker
    /// whose cooldown has elapsed transitions to half-open and admits the
    /// probe.
    pub fn allow(&self, now: SimTime) -> bool {
        match self.inner.state.get() {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.since(self.inner.opened_at.get()) >= self.inner.config.cooldown {
                    self.inner.state.set(BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: closes the breaker and resets the count.
    pub fn record_success(&self) {
        self.inner.state.set(BreakerState::Closed);
        self.inner.failures.set(0);
    }

    /// Records a failed call at virtual time `now`; trips the breaker open
    /// at the configured threshold (immediately, when half-open).
    pub fn record_failure(&self, now: SimTime) {
        match self.inner.state.get() {
            BreakerState::HalfOpen => {
                self.inner.state.set(BreakerState::Open);
                self.inner.opened_at.set(now);
            }
            BreakerState::Closed => {
                let n = self.inner.failures.get() + 1;
                self.inner.failures.set(n);
                if n >= self.inner.config.failure_threshold.max(1) {
                    self.inner.state.set(BreakerState::Open);
                    self.inner.opened_at.set(now);
                }
            }
            BreakerState::Open => {}
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

/// A callable service endpoint.
pub struct Endpoint<Req, Resp> {
    rt: Runtime,
    service: Service,
    handler: Rc<Handler<Req, Resp>>,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    breaker: Option<CircuitBreaker>,
    rng: Rc<RefCell<SimRng>>,
}

impl<Req, Resp> Clone for Endpoint<Req, Resp> {
    fn clone(&self) -> Self {
        Endpoint {
            rt: self.rt.clone(),
            service: self.service.clone(),
            handler: self.handler.clone(),
            timeout: self.timeout,
            retry: self.retry.clone(),
            breaker: self.breaker.clone(),
            rng: self.rng.clone(),
        }
    }
}

impl<Req: 'static, Resp: 'static> Endpoint<Req, Resp> {
    /// Creates an endpoint from a handler. The handler receives the request
    /// and the server-side [`RequestCtx`] (lineage extracted from the
    /// incoming baggage) and returns the response plus the (possibly
    /// updated) context.
    pub fn new<F, Fut>(rt: &Runtime, service: Service, handler: F) -> Self
    where
        F: Fn(Req, RequestCtx) -> Fut + 'static,
        Fut: Future<Output = (Resp, RequestCtx)> + 'static,
    {
        let rng = rt
            .sim()
            .rng(&format!("rpc:{}:{}", service.name(), service.region()));
        Endpoint {
            rt: rt.clone(),
            service,
            handler: Rc::new(move |req, ctx| Box::pin(handler(req, ctx)) as BoxFut<_>),
            timeout: None,
            retry: RetryPolicy::default(),
            breaker: None,
            rng: Rc::new(RefCell::new(rng)),
        }
    }

    /// Sets a per-attempt deadline for [`Endpoint::try_call_from`]. An
    /// attempt that exceeds it is abandoned (the in-flight request future is
    /// dropped) and retried per the [`RetryPolicy`].
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Sets the retry/backoff policy for [`Endpoint::try_call_from`].
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a circuit breaker. Pass a clone of a shared breaker to
    /// coordinate shedding across several endpoints of the same callee.
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Calls the endpoint from `ctx` (whose lineage rides the request and is
    /// extended by whatever the handler wrote).
    pub async fn call(&self, caller: &RequestCtx, req: Req) -> (Resp, Baggage) {
        // The call must originate somewhere; we model the caller's region as
        // the callee's for intra-deployment calls unless overridden by
        // call_from.
        self.call_from(self.service.region(), caller, req).await
    }

    /// Like [`Endpoint::call`], with an explicit caller region (pays the
    /// inter-region transit both ways).
    pub async fn call_from(
        &self,
        from: antipode_sim::Region,
        caller: &RequestCtx,
        req: Req,
    ) -> (Resp, Baggage) {
        let outgoing = caller.outgoing();
        self.rt.hop(from, self.service.region()).await;
        // Queue for a worker and execute the handler under the server ctx.
        self.service.process().await;
        let server_ctx = RequestCtx::from_baggage(outgoing);
        let (resp, server_ctx) = (self.handler)(req, server_ctx).await;
        let response_baggage = server_ctx.outgoing();
        self.rt.hop(self.service.region(), from).await;
        (resp, response_baggage)
    }
}

impl<Req: Clone + 'static, Resp: 'static> Endpoint<Req, Resp> {
    /// Calls the endpoint with the full resilience protocol: the circuit
    /// breaker is consulted first, then up to `retry.max_attempts` attempts
    /// race the per-attempt timeout, sleeping an exponential-backoff gap
    /// (deterministic jitter) between attempts. Successes and timeouts feed
    /// the breaker. Without a configured timeout this is a single plain
    /// [`Endpoint::call_from`].
    pub async fn try_call_from(
        &self,
        from: antipode_sim::Region,
        caller: &RequestCtx,
        req: Req,
    ) -> Result<(Resp, Baggage), RpcError> {
        let sim = self.rt.sim().clone();
        if let Some(b) = &self.breaker {
            if !b.allow(sim.now()) {
                return Err(RpcError::CircuitOpen);
            }
        }
        let attempts = self.retry.max_attempts.max(1);
        for attempt in 0..attempts {
            let outcome = match self.timeout {
                Some(t) => timeout(&sim, t, self.call_from(from, caller, req.clone())).await,
                None => Ok(self.call_from(from, caller, req.clone()).await),
            };
            match outcome {
                Ok(out) => {
                    if let Some(b) = &self.breaker {
                        b.record_success();
                    }
                    return Ok(out);
                }
                Err(_elapsed) => {
                    if let Some(b) = &self.breaker {
                        b.record_failure(sim.now());
                    }
                    if attempt + 1 >= attempts {
                        return Err(RpcError::Timeout { attempts });
                    }
                    let gap = {
                        let mut rng = self.rng.borrow_mut();
                        self.retry.backoff(attempt, &mut *rng)
                    };
                    sim.sleep(gap).await;
                    if let Some(b) = &self.breaker {
                        if !b.allow(sim.now()) {
                            return Err(RpcError::CircuitOpen);
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on the final attempt")
    }
}

/// Convenience: call and absorb the response lineage into the caller's
/// context in one step (the common client pattern).
pub async fn call_and_absorb<Req: 'static, Resp: 'static>(
    endpoint: &Endpoint<Req, Resp>,
    from: antipode_sim::Region,
    ctx: &mut RequestCtx,
    req: Req,
) -> Resp {
    let (resp, baggage) = endpoint.call_from(from, ctx, req).await;
    ctx.absorb_response(&baggage);
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceSpec;
    use antipode::LineageIdGen;
    use antipode_lineage::WriteId;
    use antipode_sim::net::regions::{EU, US};
    use antipode_sim::net::Network;
    use antipode_sim::Sim;
    use std::time::Duration;

    fn setup() -> (Sim, Runtime) {
        let sim = Sim::new(0x49C);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        (sim, rt)
    }

    #[test]
    fn call_round_trips_and_extends_lineage() {
        let (sim, rt) = setup();
        let svc = Service::new(&sim, ServiceSpec::new("post-storage", EU));
        // Handler performs a (simulated) shim write: appends to the lineage.
        let endpoint = Endpoint::new(&rt, svc, |post_id: u64, mut ctx: RequestCtx| async move {
            ctx.lineage
                .append(WriteId::new("posts", format!("p{post_id}"), 1));
            (format!("stored p{post_id}"), ctx)
        });
        let resp = sim.block_on(async move {
            let gen = LineageIdGen::new(1);
            let mut ctx = RequestCtx::root(&gen);
            let resp = call_and_absorb(&endpoint, US, &mut ctx, 42).await;
            // The caller's lineage now carries the server-side write.
            assert!(ctx
                .current()
                .unwrap()
                .contains(&WriteId::new("posts", "p42", 1)));
            resp
        });
        assert_eq!(resp, "stored p42");
        // Cross-region call: two hops (~45 ms each) plus a service step.
        let elapsed = sim.now().as_secs_f64();
        assert!((0.05..0.3).contains(&elapsed), "RPC took {elapsed}s");
    }

    #[test]
    fn server_sees_caller_lineage() {
        let (sim, rt) = setup();
        let svc = Service::new(&sim, ServiceSpec::new("notifier", EU));
        let endpoint = Endpoint::new(&rt, svc, |(): (), ctx: RequestCtx| async move {
            let carries = ctx
                .current()
                .map(|l| l.contains(&WriteId::new("posts", "p1", 3)))
                .unwrap_or(false);
            (carries, ctx)
        });
        let saw = sim.block_on(async move {
            let gen = LineageIdGen::new(1);
            let mut ctx = RequestCtx::root(&gen);
            ctx.lineage.append(WriteId::new("posts", "p1", 3));
            let (saw, _) = endpoint.call_from(EU, &ctx, ()).await;
            saw
        });
        assert!(saw, "the lineage must ride the request baggage");
    }

    #[test]
    fn endpoint_queues_under_load() {
        let (sim, rt) = setup();
        let svc = Service::new(
            &sim,
            ServiceSpec::new("api", EU)
                .workers(1)
                .service_time(antipode_sim::Dist::constant_ms(10.0)),
        );
        let endpoint = Endpoint::new(&rt, svc, |(): (), ctx: RequestCtx| async move { ((), ctx) });
        for _ in 0..5 {
            let e = endpoint.clone();
            sim.spawn(async move {
                let ctx = RequestCtx::default();
                e.call_from(EU, &ctx, ()).await;
            });
        }
        sim.run();
        // One worker, 10ms per call: at least 50ms of serialized service.
        assert!(sim.now().since(antipode_sim::SimTime::ZERO) >= Duration::from_millis(50));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(100),
            multiplier: 2.0,
            max: Duration::from_secs(1),
            jitter: 0.0,
        };
        let sim = Sim::new(7);
        let mut rng = sim.rng("t");
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(100));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(200));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(400));
        // 100ms * 2^6 = 6.4s, capped at 1s.
        assert_eq!(policy.backoff(6, &mut rng), Duration::from_secs(1));
    }

    #[test]
    fn jittered_backoff_stays_within_band() {
        let policy = RetryPolicy {
            jitter: 0.25,
            ..RetryPolicy::default()
        };
        let sim = Sim::new(8);
        let mut rng = sim.rng("t");
        for _ in 0..200 {
            let d = policy.backoff(0, &mut rng).as_secs_f64();
            assert!((0.075..=0.125).contains(&d), "jittered backoff {d}s");
        }
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        use antipode_sim::SimTime;
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        });
        let t0 = SimTime::ZERO;
        assert!(b.allow(t0));
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        // Still cooling down at t=4s.
        assert!(!b.allow(SimTime::from_secs(4)));
        // Cooldown elapsed: a probe is admitted (half-open).
        assert!(b.allow(SimTime::from_secs(5)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A half-open failure re-opens immediately.
        b.record_failure(SimTime::from_secs(5));
        assert_eq!(b.state(), BreakerState::Open);
        // A later successful probe closes it.
        assert!(b.allow(SimTime::from_secs(11)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn try_call_times_out_during_crash_and_recovers() {
        use antipode_sim::{FaultKind, SimTime};
        let (sim, rt) = setup();
        let svc = Service::new(
            &sim,
            ServiceSpec::new("api", EU).service_time(antipode_sim::Dist::constant_ms(1.0)),
        );
        // Crash the service for virtual seconds [0, 30).
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(30),
            FaultKind::ServiceCrash {
                service: "api".into(),
            },
        );
        let endpoint = Endpoint::new(&rt, svc, |(): (), ctx: RequestCtx| async move { ((), ctx) })
            .with_timeout(Duration::from_secs(1))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                jitter: 0.0,
                ..RetryPolicy::default()
            });
        sim.block_on({
            let sim = sim.clone();
            async move {
                let ctx = RequestCtx::default();
                let err = endpoint.try_call_from(EU, &ctx, ()).await.unwrap_err();
                assert_eq!(err, RpcError::Timeout { attempts: 3 });
                // Wait out the crash window; the same endpoint then succeeds.
                sim.sleep(Duration::from_secs(60).saturating_sub(sim.now().since(SimTime::ZERO)))
                    .await;
                endpoint
                    .try_call_from(EU, &ctx, ())
                    .await
                    .expect("healed service answers");
            }
        });
    }
}
