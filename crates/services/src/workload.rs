//! Workload drivers: open-loop (Poisson) request generation and the
//! latency/throughput bookkeeping the experiments report.
//!
//! The paper's macro-benchmarks run "for 5 minutes in open-loop" at offered
//! loads of 50–150 req/s (DeathStarBench) and up to ~400 req/s (TrainTicket);
//! [`OpenLoop`] reproduces that driver.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode_sim::{Samples, Sim, SimTime};

use crate::runtime::Runtime;

/// Shared collector for request latencies and completion counts.
#[derive(Clone, Default)]
pub struct LoadMetrics {
    inner: Rc<RefCell<LoadMetricsInner>>,
}

#[derive(Default)]
struct LoadMetricsInner {
    latencies: Samples,
    issued: u64,
    completed: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    last_completion: Option<SimTime>,
}

impl LoadMetrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        LoadMetrics::default()
    }

    /// Records a completed request and its latency.
    pub fn record(&self, latency: Duration) {
        let mut m = self.inner.borrow_mut();
        m.completed += 1;
        m.latencies.record_duration(latency);
    }

    /// Records a completed request at a known completion instant, so
    /// saturated systems (completions trailing the issue window) report
    /// reduced throughput.
    pub fn record_at(&self, latency: Duration, completed_at: SimTime) {
        let mut m = self.inner.borrow_mut();
        m.completed += 1;
        m.latencies.record_duration(latency);
        m.last_completion = Some(
            m.last_completion
                .map_or(completed_at, |t| t.max(completed_at)),
        );
    }

    fn note_issued(&self, now: SimTime) {
        let mut m = self.inner.borrow_mut();
        m.issued += 1;
        m.started_at.get_or_insert(now);
        m.finished_at = Some(now);
    }

    /// Requests issued by the driver.
    pub fn issued(&self) -> u64 {
        self.inner.borrow().issued
    }

    /// Requests that completed and reported a latency.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Achieved throughput in requests/second: completions divided by the
    /// window from the first issue to the later of the last issue and the
    /// last [`LoadMetrics::record_at`] completion.
    pub fn throughput(&self) -> f64 {
        let m = self.inner.borrow();
        let Some(a) = m.started_at else { return 0.0 };
        let mut b = m.finished_at.unwrap_or(a);
        if let Some(c) = m.last_completion {
            b = b.max(c);
        }
        if b > a {
            m.completed as f64 / b.since(a).as_secs_f64()
        } else {
            0.0
        }
    }

    /// Latency summary, if any requests completed.
    pub fn latency(&self) -> Option<antipode_sim::Summary> {
        self.inner.borrow().latencies.summary()
    }

    /// A copy of the raw latency samples.
    pub fn samples(&self) -> Samples {
        self.inner.borrow().latencies.clone()
    }
}

/// An open-loop Poisson request driver.
pub struct OpenLoop {
    /// Offered load in requests per second.
    pub rate: f64,
    /// How long to keep issuing requests (virtual time).
    pub duration: Duration,
}

impl OpenLoop {
    /// Creates a driver.
    pub fn new(rate: f64, duration: Duration) -> Self {
        OpenLoop { rate, duration }
    }

    /// Issues requests at Poisson arrivals for the configured duration. For
    /// each arrival, `spawn_request(i)` must start the request as a separate
    /// task (the driver never waits for request completion — that is the
    /// point of open loop). Returns once the last request has been issued;
    /// run the simulation to quiescence to let in-flight requests finish.
    pub async fn drive(
        &self,
        rt: &Runtime,
        metrics: &LoadMetrics,
        mut spawn_request: impl FnMut(u64),
    ) {
        let sim = rt.sim().clone();
        let end = sim.now() + self.duration;
        let mut i = 0u64;
        loop {
            let gap = rt.poisson_gap(self.rate);
            let next = sim.now() + gap;
            if next > end {
                break;
            }
            sim.sleep(gap).await;
            metrics.note_issued(sim.now());
            spawn_request(i);
            i += 1;
        }
    }
}

/// Convenience: run a full open-loop experiment to completion and return the
/// metrics. `make_request` is called per arrival and must spawn the request
/// task, reporting completions into the metrics itself.
pub fn run_open_loop(
    sim: &Sim,
    rt: &Runtime,
    rate: f64,
    duration: Duration,
    mut make_request: impl FnMut(u64, LoadMetrics) + 'static,
) -> LoadMetrics {
    let metrics = LoadMetrics::new();
    let driver = OpenLoop::new(rate, duration);
    let rt2 = rt.clone();
    let m2 = metrics.clone();
    sim.block_on(async move {
        let m3 = m2.clone();
        driver
            .drive(&rt2, &m2, move |i| make_request(i, m3.clone()))
            .await;
    });
    sim.run(); // drain in-flight requests
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::Network;
    use antipode_sim::Sim;

    #[test]
    fn open_loop_issues_at_requested_rate() {
        let sim = Sim::new(9);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        let metrics = run_open_loop(&sim, &rt, 100.0, Duration::from_secs(30), {
            let sim = sim.clone();
            move |_, m| {
                let sim = sim.clone();
                sim.clone().spawn(async move {
                    let start = sim.now();
                    sim.sleep(Duration::from_millis(5)).await;
                    m.record(sim.now().since(start));
                });
            }
        });
        let issued = metrics.issued() as f64;
        assert!(
            (2400.0..3600.0).contains(&issued),
            "issued {issued} in 30s at 100rps"
        );
        assert_eq!(metrics.issued(), metrics.completed());
        let tput = metrics.throughput();
        assert!((85.0..115.0).contains(&tput), "throughput {tput}");
        let lat = metrics.latency().unwrap();
        assert!((lat.mean - 0.005).abs() < 1e-6, "latency mean {}", lat.mean);
    }

    #[test]
    fn open_loop_does_not_wait_for_requests() {
        // Requests take 10 virtual minutes; issuing 1s of load must not take
        // 10 minutes of issue time.
        let sim = Sim::new(10);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        let metrics = run_open_loop(&sim, &rt, 50.0, Duration::from_secs(1), {
            let sim = sim.clone();
            move |_, m| {
                let sim = sim.clone();
                sim.clone().spawn(async move {
                    let start = sim.now();
                    sim.sleep(Duration::from_secs(600)).await;
                    m.record(sim.now().since(start));
                });
            }
        });
        assert!(metrics.completed() > 0);
        // All requests eventually completed after drain.
        assert_eq!(metrics.issued(), metrics.completed());
    }

    #[test]
    fn empty_metrics_are_sane() {
        let m = LoadMetrics::new();
        assert_eq!(m.throughput(), 0.0);
        assert!(m.latency().is_none());
    }
}
