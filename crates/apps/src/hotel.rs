//! The DeathStarBench *hotel reservation* application — the paper's negative
//! control (§7.1, footnote 1): "hotel reservation has a very simple
//! architecture with no cross-datastore references, resulting in no XCY
//! violations being found".
//!
//! The booking flow touches a single datastore: the frontend calls search,
//! then the reservation service writes the booking to MySQL and the
//! confirmation page reads it back from the same store in the same region.
//! No second datastore ever refers to the first, so there is no cross-
//! service race to lose — the dry-run checker confirms that no barrier
//! placement is needed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, ConsistencyChecker, LineageIdGen};
use antipode_lineage::Lineage;
use antipode_runtime::{Service, ServiceSpec};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Sim};
use antipode_store::{MySql, MySqlShim};
use bytes::Bytes;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct HotelConfig {
    /// Number of booking requests.
    pub requests: usize,
    /// Master seed.
    pub seed: u64,
}

impl HotelConfig {
    /// Default: 300 bookings.
    pub fn new() -> Self {
        HotelConfig {
            requests: 300,
            seed: 0x807E1,
        }
    }

    /// Sets the request count.
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }
}

impl Default for HotelConfig {
    fn default() -> Self {
        HotelConfig::new()
    }
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct HotelResult {
    /// Bookings whose confirmation read failed (must be zero).
    pub violations: RateCounter,
    /// Dry-run checkpoints that found unmet dependencies (must be zero —
    /// the checker agrees no barrier is needed).
    pub unsatisfied_checkpoints: usize,
    /// Total checkpoints evaluated.
    pub checkpoints: usize,
}

/// Runs the booking workload with the consistency checker instrumented.
pub fn run(cfg: &HotelConfig) -> HotelResult {
    let sim = Sim::new(cfg.seed);
    let net = Rc::new(Network::global_triangle());
    // Geo-replicated for availability, but every flow is single-store,
    // single-region: bookings are written and read in the user's region.
    let reservations = MySql::new(&sim, net, "reservations-mysql", &[US, EU]);
    let shim = MySqlShim::new(&reservations);
    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(shim.clone()));
    let checker = ConsistencyChecker::new(ap);

    let frontend = Service::new(&sim, ServiceSpec::new("frontend", US).workers(16));
    let search = Service::new(&sim, ServiceSpec::new("search", US).workers(16));
    let reservation_svc = Service::new(&sim, ServiceSpec::new("reservation", US).workers(16));

    let violations = Rc::new(RefCell::new(RateCounter::new()));
    let gen = Rc::new(LineageIdGen::new(1));

    for i in 0..cfg.requests {
        let sim2 = sim.clone();
        let frontend = frontend.clone();
        let search = search.clone();
        let reservation_svc = reservation_svc.clone();
        let shim = shim.clone();
        let checker = checker.clone();
        let violations = violations.clone();
        let gen = gen.clone();
        sim.spawn_detached(async move {
            sim2.sleep(Duration::from_millis(30 * i as u64)).await;
            frontend.process().await;
            search.process().await;
            reservation_svc.process().await;
            let mut lineage = Lineage::new(gen.next_id());
            shim.insert(
                US,
                "bookings",
                &format!("{i}"),
                Bytes::from_static(b"room-42"),
                &mut lineage,
            )
            .await
            .expect("US configured");
            // Candidate barrier location: before rendering the confirmation.
            checker.checkpoint("frontend:confirmation", &lineage, US);
            // The confirmation page reads the booking back (same store,
            // same region — read-your-write at the origin replica).
            let found = shim
                .select(US, "bookings", &format!("{i}"))
                .await
                .expect("US")
                .is_some();
            violations.borrow_mut().record(!found);
        });
    }
    sim.run();

    let summary = checker.summary();
    let stats = summary
        .get("frontend:confirmation")
        .cloned()
        .unwrap_or_default();
    let out_violations = *violations.borrow();
    HotelResult {
        violations: out_violations,
        unsatisfied_checkpoints: stats.unsatisfied,
        checkpoints: stats.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violations_and_no_barriers_needed() {
        let r = run(&HotelConfig::new().with_requests(150));
        assert_eq!(
            r.violations.hits(),
            0,
            "hotel reservation must be violation-free"
        );
        assert_eq!(r.violations.total(), 150);
        assert_eq!(r.checkpoints, 150);
        assert_eq!(
            r.unsatisfied_checkpoints, 0,
            "the dry-run checker must agree that no barrier is needed"
        );
    }
}
