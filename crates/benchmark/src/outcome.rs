//! What a workload reports in virtual time, in one shape for the shipped
//! applications, their twins and the benchmark's own `trace_rpc` driver.

use std::collections::BTreeMap;

use antipode_app::social::SocialResult;
use antipode_app::train_ticket::TrainTicketResult;
use antipode_runtime::LoadMetrics;
use antipode_sim::{RateCounter, Samples};

use crate::trace::TraceSummary;

/// The virtual-time result of one run. Everything here is a function of the
/// seed alone, so two runs of the same code must agree on it bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Requests the open-loop driver issued.
    pub issued: u64,
    /// Requests that completed and reported a latency.
    pub completed: u64,
    /// Request latencies, seconds, sorted ascending.
    pub latencies: Vec<f64>,
    /// Completions per virtual second over the issue window.
    pub throughput_rps: f64,
    /// Reads that checked for an XCY violation, and how many found one.
    pub checks: u64,
    /// See `checks`.
    pub violations: u64,
    /// Mean consistency window, seconds, and the number of windows.
    pub window_mean_s: f64,
    /// See `window_mean_s`.
    pub windows: u64,
    /// Largest serialized lineage observed, bytes (0 when no lineage ran).
    pub lineage_bytes_max: u64,
}

impl Outcome {
    /// Collects the common parts from the services crate's collectors.
    pub fn new(
        load: &LoadMetrics,
        violations: RateCounter,
        windows: &Samples,
        lineage_bytes_max: usize,
    ) -> Self {
        let mut latencies = load.samples().values().to_vec();
        latencies.sort_by(f64::total_cmp);
        Outcome {
            issued: load.issued(),
            completed: load.completed(),
            latencies,
            throughput_rps: load.throughput(),
            checks: violations.total(),
            violations: violations.hits(),
            window_mean_s: windows.summary().map_or(0.0, |s| s.mean),
            windows: windows.len() as u64,
            lineage_bytes_max: lineage_bytes_max as u64,
        }
    }

    /// From `antipode_app::social::run`.
    pub fn from_social(r: &SocialResult) -> Self {
        Outcome::new(
            &r.writer,
            r.violations,
            &r.consistency_window,
            r.max_lineage_bytes,
        )
    }

    /// From `antipode_app::train_ticket::run` (which does not report lineage
    /// sizes; the traced run's sample supplies them).
    pub fn from_train_ticket(r: &TrainTicketResult) -> Self {
        Outcome::new(&r.client, r.violations, &r.consistency_window, 0)
    }

    /// Latency percentile in milliseconds (nearest rank, as
    /// `antipode_sim::Samples::summary` computes it).
    pub fn latency_ms(&self, pct: f64) -> f64 {
        let n = self.latencies.len();
        if n == 0 {
            return 0.0;
        }
        let idx = ((pct / 100.0) * (n as f64 - 1.0)).round() as usize;
        self.latencies[idx.min(n - 1)] * 1e3
    }

    /// Operations that failed: requests that never completed and, when
    /// Antipode was on and should have prevented both, violations and
    /// requests whose consumer side never ran to its consistency window.
    pub fn ops_failed(&self, antipode: bool) -> u64 {
        let unfinished = self.issued - self.completed;
        if antipode {
            unfinished + self.violations + self.completed.saturating_sub(self.windows)
        } else {
            unfinished
        }
    }

    /// Violations as a percentage of the checks made.
    pub fn violation_pct(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            100.0 * self.violations as f64 / self.checks as f64
        }
    }

    /// The virtual-time end-to-end metrics and the exact counts behind them,
    /// by name — all but the failure counts, which for a sweep cover every
    /// cell and come from [`WorkloadRun`].
    pub fn virtual_metrics(&self) -> BTreeMap<String, f64> {
        BTreeMap::from(
            [
                ("sim_latency_p50_ms", self.latency_ms(50.0)),
                ("sim_latency_p999_ms", self.latency_ms(99.9)),
                ("sim_throughput_rps", self.throughput_rps),
                ("consistency_window_ms", self.window_mean_s * 1e3),
                ("violation_pct", self.violation_pct()),
                ("xcy_consistent_pct", 100.0 - self.violation_pct()),
                ("lineage_bytes_max", self.lineage_bytes_max as f64),
                ("completed", self.completed as f64),
                ("xcy_checks", self.checks as f64),
                ("xcy_violations", self.violations as f64),
                ("windows", self.windows as f64),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        )
    }
}

/// One run of a workload: a single simulation, or every cell of a sweep.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRun {
    /// The virtual-time result (of the reference cell, for a sweep).
    pub outcome: Outcome,
    /// Requests issued, completed and failed over all cells. Completed
    /// requests are the work host time is divided by; failures in any cell
    /// fail the run.
    pub issued_total: u64,
    /// See `issued_total`.
    pub completed_total: u64,
    /// See `issued_total`.
    pub failed_total: u64,
    /// `Sim::step` calls that returned `true`; 0 when the application's own
    /// closed `run` drove the simulation.
    pub steps: u64,
    /// Host ns spent in the benchmark's step loop; 0 as for `steps`.
    pub loop_ns: u64,
    /// What the tracer saw (empty when tracing was off).
    pub trace: TraceSummary,
}

impl WorkloadRun {
    /// A run of one simulation with Antipode on or off.
    pub fn of(outcome: Outcome, antipode: bool) -> Self {
        WorkloadRun {
            issued_total: outcome.issued,
            completed_total: outcome.completed,
            failed_total: outcome.ops_failed(antipode),
            outcome,
            ..WorkloadRun::default()
        }
    }

    /// Adds the next cell of a sweep, keeping this run's outcome.
    pub fn absorb(&mut self, cell: WorkloadRun) {
        self.issued_total += cell.issued_total;
        self.completed_total += cell.completed_total;
        self.failed_total += cell.failed_total;
        self.steps += cell.steps;
        self.loop_ns += cell.loop_ns;
        self.trace.merge(cell.trace);
    }
}
