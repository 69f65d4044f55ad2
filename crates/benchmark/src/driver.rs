//! The benchmark's own run loop: `antipode_runtime::run_open_loop` with the
//! executor stepped from here, so steps can be counted and timed.

use std::time::Duration;

use antipode_runtime::{LoadMetrics, OpenLoop, Runtime};
use antipode_sim::Sim;

use crate::host::host_ns;
use crate::trace::{Op, Tracer, NO_REQ};

/// Steps `sim` until it is quiescent. Returns the steps taken and the host
/// ns they took.
pub fn step_to_quiescence(sim: &Sim) -> (u64, u64) {
    let t0 = host_ns();
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
    }
    (steps, host_ns() - t0)
}

/// Open-loop Poisson arrivals at `rate` for `duration` of virtual time, then
/// drains in-flight requests. Makes the same calls as `run_open_loop`
/// (`OpenLoop::drive` in a task, then run to quiescence) and therefore the
/// same schedule; arrivals are Poisson in *virtual* time, so the generator
/// is never late.
pub fn drive_open_loop(
    sim: &Sim,
    rt: &Runtime,
    tracer: &Tracer,
    rate: f64,
    duration: Duration,
    mut make_request: impl FnMut(u64, LoadMetrics) + 'static,
) -> (LoadMetrics, u64, u64) {
    let metrics = LoadMetrics::new();
    let driver = OpenLoop::new(rate, duration);
    let rt2 = rt.clone();
    let m2 = metrics.clone();
    let tr = tracer.clone();
    sim.spawn(tracer.traced(Op::Drive, NO_REQ, async move {
        let m3 = m2.clone();
        driver
            .drive(&rt2, &m2, move |i| {
                tr.traced_sync(Op::Request, || make_request(i, m3.clone()))
            })
            .await;
    }));
    let (steps, loop_ns) = step_to_quiescence(sim);
    (metrics, steps, loop_ns)
}
