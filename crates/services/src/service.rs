//! Service capacity modeling.
//!
//! A [`Service`] is a named worker pool in one region: each handler step
//! acquires a worker, holds it for a sampled service time, and releases it.
//! Bounded workers are what produce realistic throughput/latency saturation
//! curves (Figs 8 and 9): as offered load approaches capacity, queueing
//! delay dominates.

use std::cell::RefCell;
use std::rc::Rc;

use antipode_sim::dist::Dist;
use antipode_sim::rng::SimRng;
use antipode_sim::sync::Semaphore;
use antipode_sim::{FaultPlan, Region, Sim};

/// Configuration of one service instance.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service name (diagnostics).
    pub name: String,
    /// Region the instance runs in.
    pub region: Region,
    /// Concurrent workers (threads / async slots).
    pub workers: usize,
    /// Per-step CPU/service time.
    pub service_time: Dist,
}

impl ServiceSpec {
    /// A spec with the given name and region, default 8 workers and 1 ms
    /// steps.
    pub fn new(name: impl Into<String>, region: Region) -> Self {
        ServiceSpec {
            name: name.into(),
            region,
            workers: 8,
            service_time: Dist::lognormal_ms(1.0, 0.3),
        }
    }

    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the service-time distribution.
    pub fn service_time(mut self, d: Dist) -> Self {
        self.service_time = d;
        self
    }
}

struct ServiceInner {
    spec: ServiceSpec,
    sim: Sim,
    faults: FaultPlan,
    sem: Semaphore,
    rng: RefCell<SimRng>,
}

/// A running service instance.
#[derive(Clone)]
pub struct Service {
    inner: Rc<ServiceInner>,
}

impl Service {
    /// Starts a service instance.
    pub fn new(sim: &Sim, spec: ServiceSpec) -> Self {
        let sem = Semaphore::new(spec.workers.max(1));
        let rng = RefCell::new(sim.rng(&format!("service:{}:{}", spec.name, spec.region)));
        Service {
            inner: Rc::new(ServiceInner {
                spec,
                sim: sim.clone(),
                faults: sim.faults(),
                sem,
                rng,
            }),
        }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.inner.spec.name
    }

    /// The region this instance runs in.
    pub fn region(&self) -> Region {
        self.inner.spec.region
    }

    /// Parks while the simulation's fault plan has this service crashed
    /// (an active [`antipode_sim::FaultKind::ServiceCrash`] window). Returns
    /// immediately — without yielding — when the service is up, so fault-free
    /// runs are timing-identical to a build without the chaos plane.
    async fn await_alive(&self) {
        let ServiceInner {
            spec, sim, faults, ..
        } = &*self.inner;
        faults
            .until_clear(sim, |at| faults.service_down(at, &spec.name))
            .await;
    }

    /// Executes one handler step: queue for a worker, hold it for a sampled
    /// service time. This is the unit of CPU work in the apps.
    pub async fn process(&self) {
        self.await_alive().await;
        let _permit = self.inner.sem.acquire().await;
        let d = {
            let mut rng = self.inner.rng.borrow_mut();
            self.inner.spec.service_time.sample_duration(&mut rng)
        };
        self.inner.sim.sleep(d).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::US;
    use std::cell::Cell;

    #[test]
    fn process_takes_service_time() {
        let sim = Sim::new(1);
        let svc = Service::new(
            &sim,
            ServiceSpec::new("api", US).service_time(Dist::constant_ms(5.0)),
        );
        sim.block_on({
            let svc = svc.clone();
            async move { svc.process().await }
        });
        assert_eq!(sim.now().as_nanos(), 5_000_000);
    }

    #[test]
    fn saturation_queues_requests() {
        // 1 worker, 10ms per step, 10 requests arriving at once: the last
        // completes at ~100ms.
        let sim = Sim::new(2);
        let svc = Service::new(
            &sim,
            ServiceSpec::new("api", US)
                .workers(1)
                .service_time(Dist::constant_ms(10.0)),
        );
        let done = Rc::new(Cell::new(0));
        for _ in 0..10 {
            let svc = svc.clone();
            let done = done.clone();
            sim.spawn(async move {
                svc.process().await;
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 10);
        assert_eq!(sim.now().as_nanos(), 100_000_000);
    }

    #[test]
    fn parallel_workers_overlap() {
        let sim = Sim::new(3);
        let svc = Service::new(
            &sim,
            ServiceSpec::new("api", US)
                .workers(10)
                .service_time(Dist::constant_ms(10.0)),
        );
        for _ in 0..10 {
            let svc = svc.clone();
            sim.spawn(async move { svc.process().await });
        }
        sim.run();
        assert_eq!(
            sim.now().as_nanos(),
            10_000_000,
            "10 workers run 10 jobs in one step"
        );
    }
}
