//! The service runtime: network hops and the deployment-wide handle.
//!
//! Applications are async functions over shared state; the runtime supplies
//! the pieces a real deployment would: message transit between regions
//! ([`Runtime::hop`]) and a shared deterministic RNG stream for arrival
//! processes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode_sim::net::Network;
use antipode_sim::rng::SimRng;
use antipode_sim::{FaultPlan, Region, Sim};

/// Deployment-wide runtime handle. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<RuntimeInner>,
}

struct RuntimeInner {
    sim: Sim,
    faults: FaultPlan,
    net: Rc<Network>,
    rng: RefCell<SimRng>,
}

impl Runtime {
    /// Creates a runtime over the given network topology.
    pub fn new(sim: &Sim, net: Rc<Network>) -> Self {
        Runtime {
            inner: Rc::new(RuntimeInner {
                sim: sim.clone(),
                faults: sim.faults(),
                net,
                rng: RefCell::new(sim.rng("runtime")),
            }),
        }
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The network model.
    pub fn net(&self) -> &Rc<Network> {
        &self.inner.net
    }

    /// One-way message transit from `from` to `to` (an RPC request leg, a
    /// queue hand-off, …). Consults the simulation's [fault
    /// plan](antipode_sim::FaultPlan): the message parks while the link is
    /// partitioned or either region is down, and active link-degradation
    /// windows add extra sampled delay. With no active faults this costs
    /// exactly one latency sample, as before.
    pub async fn hop(&self, from: Region, to: Region) {
        let RuntimeInner {
            sim,
            faults,
            net,
            rng,
        } = &*self.inner;
        faults
            .until_clear(sim, |at| faults.link_blocked(at, from, to))
            .await;
        let d = net.delay_faulted(&mut *rng.borrow_mut(), from, to, faults, sim.now());
        sim.sleep(d).await;
    }

    /// Samples an exponential inter-arrival gap for a Poisson process with
    /// the given rate (events per second).
    pub fn poisson_gap(&self, rate: f64) -> Duration {
        use rand::Rng;
        let u: f64 = 1.0 - self.inner.rng.borrow_mut().random::<f64>();
        if rate <= 0.0 {
            return Duration::from_secs(3600);
        }
        Duration::from_secs_f64((-u.ln()) / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::{EU, US};
    use antipode_sim::SimTime;

    #[test]
    fn hop_advances_time_by_link_latency() {
        let sim = Sim::new(1);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        let t = sim.block_on({
            let sim = sim.clone();
            async move {
                rt.hop(US, EU).await;
                sim.now()
            }
        });
        let secs = t.since(SimTime::ZERO).as_secs_f64();
        assert!((0.02..0.12).contains(&secs), "US→EU hop {secs}s");
    }

    #[test]
    fn poisson_gaps_average_to_rate() {
        let sim = Sim::new(3);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rt.poisson_gap(100.0).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    fn zero_rate_does_not_panic() {
        let sim = Sim::new(4);
        let rt = Runtime::new(&sim, Rc::new(Network::global_triangle()));
        assert!(rt.poisson_gap(0.0) > Duration::from_secs(60));
    }
}
