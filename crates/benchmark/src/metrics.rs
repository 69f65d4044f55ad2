//! The metric tables: every name the benchmark prints, with its unit, its
//! better direction and, for end-to-end metrics, the regression bound.
//!
//! `BENCHMARK.json` repeats the subset that has a
//! [`EndToEnd::driver_bound`] and every per-layer name; a test keeps the two
//! in step.

/// Which clock a metric is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time or host memory: noisy, reported as a median of repeats.
    Host,
    /// Virtual time or an exact count: a function of the seed alone.
    Virtual,
}

/// An end-to-end metric: something a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// between two runs **with the same seed** — what `--compare` applies.
    /// 0 means any worsening counts.
    pub bound: f64,
    /// The bound `BENCHMARK.json` declares, or `None` if the metric is not
    /// in the driver's contract. The driver's acceptance runs vary the
    /// *seed* and run on a shared VM whose speed drifts by 10–25 % for tens
    /// of seconds at a time, so these are as wide as the spread measured
    /// across ten seeds demands (see README), up to the contract's 25 % cap.
    /// Metrics that are 0 when all is well cannot carry a relative bound, and
    /// metrics whose value hinges on a seed's congestion episodes or on a
    /// handful of tail samples cannot be held steady across seeds; both are
    /// enforced by the output checks and by `--compare` instead.
    pub driver_bound: Option<f64>,
    /// Clock.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    driver_bound: Option<f64>,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        driver_bound,
        clock,
    }
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("sim_req_per_s", "1/s", true, 0.10, Some(0.25), Clock::Host),
    e2e("peak_rss_mb", "MiB", false, 0.05, Some(0.10), Clock::Host),
    e2e(
        "retained_bytes_per_req",
        "B",
        false,
        0.05,
        Some(0.10),
        Clock::Host,
    ),
    e2e("setup_s", "s", false, 0.25, Some(0.25), Clock::Host),
    e2e(
        "sim_latency_p50_ms",
        "ms",
        false,
        0.005,
        Some(0.15),
        Clock::Virtual,
    ),
    e2e(
        "sim_latency_p999_ms",
        "ms",
        false,
        0.005,
        None,
        Clock::Virtual,
    ),
    e2e(
        "sim_throughput_rps",
        "1/s",
        true,
        0.005,
        Some(0.10),
        Clock::Virtual,
    ),
    e2e(
        "consistency_window_ms",
        "ms",
        false,
        0.005,
        None,
        Clock::Virtual,
    ),
    e2e(
        "xcy_consistent_pct",
        "%",
        true,
        0.0,
        Some(0.15),
        Clock::Virtual,
    ),
    e2e("violation_pct", "%", false, 0.0, None, Clock::Virtual),
    e2e("lineage_bytes_max", "B", false, 0.0, None, Clock::Virtual),
    e2e("failed_ops_pct", "%", false, 0.0, None, Clock::Virtual),
];

/// A per-layer metric: `(name, unit, higher_is_better)`. Layers are the
/// workspace crates; `*_ns` is host ns of self time per call, `*_per_req` an
/// exact count per completed request.
pub const PER_LAYER: [(&str, &str, bool); 50] = [
    ("sim.steps_per_req", "count", false),
    ("sim.ns_per_step", "ns", false),
    ("sim.unattributed_ns_per_req", "ns", false),
    ("services.hops_per_req", "count", false),
    ("services.hop_ns", "ns", false),
    ("services.process_per_req", "count", false),
    ("services.process_ns", "ns", false),
    ("services.rpc_per_req", "count", false),
    ("services.rpc_ns", "ns", false),
    ("services.drive_ns_per_req", "ns", false),
    ("services.ns_per_req", "ns", false),
    ("lineage.deps_per_req", "count", false),
    ("lineage.wire_bytes_p50", "B", false),
    ("lineage.wire_encodes_per_req", "count", false),
    ("lineage.b64_encodes_per_req", "count", false),
    ("lineage.frame_encodes_per_req", "count", false),
    ("lineage.encode_cache_hit_ratio", "ratio", true),
    ("lineage.cow_clones_per_req", "count", false),
    ("lineage.baggage_roundtrip_ns", "ns", false),
    ("lineage.header_codec_ns", "ns", false),
    ("lineage.ns_per_req", "ns", false),
    ("datastores.write_ns", "ns", false),
    ("datastores.publish_ns", "ns", false),
    ("datastores.read_ns", "ns", false),
    ("datastores.recv_ns", "ns", false),
    ("datastores.ns_per_req", "ns", false),
    ("datastores.commits_per_req", "count", false),
    ("datastores.fanout_events_per_req", "count", false),
    ("datastores.applies_per_req", "count", false),
    ("datastores.avg_batch", "count", true),
    ("datastores.wal_bytes_per_req", "B", false),
    ("core.barriers_per_req", "count", false),
    ("core.barrier_ns", "ns", false),
    ("core.ns_per_req", "ns", false),
    ("core.barrier_waited_ratio", "ratio", false),
    ("core.barrier_blocked_sim_ms", "ms", false),
    ("apps.glue_ns_per_req", "ns", false),
    ("apps.twin_drift", "count", false),
    ("trace.gen_ns_per_graph", "ns", false),
    ("trace.calls_per_req", "count", false),
    ("trace.stateful_calls_per_req", "count", false),
    ("host.user_s", "s", false),
    ("host.sys_share", "ratio", false),
    ("host.minor_faults_per_req", "count", false),
    ("tracing.overhead_pct", "%", false),
    ("tracing.attributed_share", "ratio", true),
    ("tracing.traced_ns_per_req", "ns", false),
    ("xcy.violation_pct", "%", false),
    ("xcy.failed_ops_pct", "%", false),
    ("xcy.lineage_bytes_max", "B", false),
];

/// Median of a non-empty slice (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
