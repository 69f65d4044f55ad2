//! One (workload, repeat): runs in a fresh single-threaded process so that
//! peak RSS and the thread-local `antipode_store::stats` /
//! `antipode_lineage::stats` counters start clean, and reports what it
//! measured as one JSON object on the last line of its standard output.

use std::collections::BTreeMap;
use std::hint::black_box;

use antipode::LineageCtx;
use antipode_lineage::Baggage;

use crate::host::{host_ns, proc_stats, unix_ns};
use crate::json::Json;
use crate::metrics::median;
use crate::outcome::WorkloadRun;
use crate::trace::{Op, TraceSummary};
use crate::workloads::{Prepared, Workload};

/// What the harness asks a child to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildSpec {
    /// Workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Divides the workload's fixed size (1 in a timed run).
    pub scale_den: u64,
    /// Run the traced twin instead of the application's entry point.
    pub traced: bool,
    /// Stop after set-up (extra samples of `setup_s`).
    pub setup_only: bool,
}

/// A child's measurements, by section and name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Virtual-time metrics and the exact counts behind them.
    pub virt: BTreeMap<String, f64>,
    /// Store and lineage counters: exact, a function of the seed alone.
    pub counters: BTreeMap<String, f64>,
    /// Host time, memory and CPU accounting.
    pub host: BTreeMap<String, f64>,
    /// Per-layer metrics (traced children only).
    pub layers: BTreeMap<String, f64>,
}

impl ChildReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("virtual", Json::nums(&self.virt)),
            ("counters", Json::nums(&self.counters)),
            ("host", Json::nums(&self.host)),
            ("layers", Json::nums(&self.layers)),
        ])
    }

    /// Reads a report back.
    pub fn from_json(j: &Json) -> ChildReport {
        let section = |name: &str| j.get(name).map(Json::to_nums).unwrap_or_default();
        ChildReport {
            virt: section("virtual"),
            counters: section("counters"),
            host: section("host"),
            layers: section("layers"),
        }
    }
}

const MIB: f64 = 1_048_576.0;

/// Runs the child's work. `spawned_unix_ns` is the harness's clock just
/// before it started this process; set-up time counts from there.
pub fn run(spec: ChildSpec, spawned_unix_ns: u128, trace_path: Option<&str>) -> ChildReport {
    let w = spec.workload;
    let prepared = w.prepare(spec.seed, spec.scale_den);
    antipode_store::stats::reset();
    antipode_lineage::stats::reset();
    let mut report = ChildReport::default();
    let at_setup = proc_stats();
    report.host.insert(
        "setup_s".into(),
        unix_ns().saturating_sub(spawned_unix_ns) as f64 / 1e9,
    );
    if spec.setup_only {
        return report;
    }

    let t0 = host_ns();
    let run = w.run(&prepared, spec.seed, spec.scale_den, spec.traced);
    let run_ns = host_ns() - t0;
    let at_end = proc_stats();
    let engine = antipode_store::stats::snapshot();
    let lineage = antipode_lineage::stats::snapshot();

    let n = run.completed_total.max(1) as f64;
    report.virt = run.outcome.virtual_metrics();
    report.virt.extend(
        [
            ("ops_attempted", run.issued_total as f64),
            ("ops_failed", run.failed_total as f64),
            (
                "failed_ops_pct",
                100.0 * run.failed_total as f64 / run.issued_total.max(1) as f64,
            ),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    report.counters = BTreeMap::from(
        [
            ("completed_total", run.completed_total),
            ("store.commits", engine.commits),
            ("store.fanout_events", engine.fanout_events),
            ("store.send_entries", engine.send_entries),
            ("store.applies", engine.applies),
            ("store.wal_appends", engine.wal_appends),
            ("store.wal_bytes", engine.wal_bytes),
            ("store.batch_flushes", engine.batch_flushes),
            ("store.max_batch", engine.max_batch),
            ("lineage.cow_dep_clones", lineage.cow_dep_clones),
            ("lineage.wire_encodes", lineage.wire_encodes),
            ("lineage.wire_cache_hits", lineage.wire_cache_hits),
            ("lineage.b64_encodes", lineage.b64_encodes),
            ("lineage.b64_cache_hits", lineage.b64_cache_hits),
            ("lineage.frame_encodes", lineage.frame_encodes),
            ("lineage.frame_cache_hits", lineage.frame_cache_hits),
            ("lineage.canonical_decodes", lineage.canonical_decodes),
        ]
        .map(|(k, v)| (k.to_string(), v as f64)),
    );
    let run_s = run_ns as f64 / 1e9;
    let user_s = at_end.user_s - at_setup.user_s;
    let sys_s = at_end.sys_s - at_setup.sys_s;
    // `social::run` and `train_ticket::run` drop their simulation before
    // they return, so RSS after the call measures what the allocator chose
    // to give back, not what the run retained. Nothing is freed before
    // quiescence (the WAL is never compacted), so the peak is the retained
    // set, and it is what both numbers below use.
    let grown = at_end.peak_rss_bytes.saturating_sub(at_setup.rss_bytes) as f64;
    report.host.extend(
        [
            ("run_s", run_s),
            ("sim_req_per_s", n / run_s),
            ("peak_rss_mb", at_end.peak_rss_bytes as f64 / MIB),
            ("rss_after_setup_mb", at_setup.rss_bytes as f64 / MIB),
            ("retained_bytes_per_req", grown / n),
            ("user_s", user_s),
            ("sys_s", sys_s),
            ("sys_share", sys_s / (user_s + sys_s).max(1e-9)),
            (
                "minor_faults_per_req",
                (at_end.minor_faults - at_setup.minor_faults) as f64 / n,
            ),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    if spec.traced {
        report.layers = layer_metrics(&run, &report.counters, &prepared);
        if let Some(path) = trace_path {
            let doc = Json::obj([
                ("workload", Json::Str(w.name().into())),
                ("seed", Json::Num(spec.seed as f64)),
                (
                    "sampling",
                    Json::Str(format!(
                        "every span of 1 request in {}",
                        crate::trace::SPAN_SAMPLE_EVERY
                    )),
                ),
                ("spans", run.trace.spans_json()),
            ]);
            if let Err(e) = std::fs::write(path, doc.pretty()) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    }
    report
}

/// The per-layer metrics of a traced run, except the ones only the harness
/// can compute (`host.*`, `tracing.overhead_pct`, `apps.twin_drift`).
fn layer_metrics(
    run: &WorkloadRun,
    counters: &BTreeMap<String, f64>,
    prepared: &Prepared,
) -> BTreeMap<String, f64> {
    let t = &run.trace;
    let n = run.completed_total.max(1) as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let per_call = |op: Op| ratio(t.op(op).self_ns as f64, t.op(op).calls as f64);
    let self_ns = |ops: &[Op]| ops.iter().map(|op| t.op(*op).self_ns).sum::<u64>() as f64;
    let encodes = c("lineage.wire_encodes") + c("lineage.b64_encodes") + c("lineage.frame_encodes");
    let hits =
        c("lineage.wire_cache_hits") + c("lineage.b64_cache_hits") + c("lineage.frame_cache_hits");
    // Taken now, after the counters were read: `wire_size` is counted.
    let wire: Vec<f64> = t.lineages.iter().map(|l| l.wire_size() as f64).collect();
    let (gen_ns, calls, stateful, graphs) = match prepared {
        Prepared::Rpc(i) => (i.gen_ns, i.calls, i.stateful_calls, i.requests() as f64),
        Prepared::Nothing => (0, 0, 0, 1.0),
    };
    BTreeMap::from(
        [
            ("sim.steps_per_req", run.steps as f64 / n),
            (
                "sim.ns_per_step",
                ratio(run.loop_ns as f64, run.steps as f64),
            ),
            (
                "sim.unattributed_ns_per_req",
                run.loop_ns.saturating_sub(t.root_ns) as f64 / n,
            ),
            ("services.hops_per_req", t.op(Op::Hop).calls as f64 / n),
            ("services.hop_ns", per_call(Op::Hop)),
            (
                "services.process_per_req",
                t.op(Op::Process).calls as f64 / n,
            ),
            ("services.process_ns", per_call(Op::Process)),
            ("services.rpc_per_req", t.op(Op::Rpc).calls as f64 / n),
            ("services.rpc_ns", per_call(Op::Rpc)),
            ("services.drive_ns_per_req", self_ns(&[Op::Drive]) / n),
            (
                "services.ns_per_req",
                self_ns(&[Op::Hop, Op::Process, Op::Rpc, Op::Drive]) / n,
            ),
            (
                "lineage.deps_per_req",
                ratio(
                    t.lineage_deps.iter().map(|d| f64::from(*d)).sum(),
                    t.lineage_deps.len() as f64,
                ),
            ),
            ("lineage.wire_bytes_p50", median(&wire)),
            (
                "xcy.lineage_bytes_max",
                wire.iter()
                    .copied()
                    .fold(run.outcome.lineage_bytes_max as f64, f64::max),
            ),
            (
                "lineage.wire_encodes_per_req",
                c("lineage.wire_encodes") / n,
            ),
            ("lineage.b64_encodes_per_req", c("lineage.b64_encodes") / n),
            (
                "lineage.frame_encodes_per_req",
                c("lineage.frame_encodes") / n,
            ),
            (
                "lineage.encode_cache_hit_ratio",
                ratio(hits, hits + encodes),
            ),
            (
                "lineage.cow_clones_per_req",
                c("lineage.cow_dep_clones") / n,
            ),
            ("lineage.baggage_roundtrip_ns", baggage_roundtrip_ns(t)),
            ("lineage.header_codec_ns", per_call(Op::Baggage)),
            ("lineage.ns_per_req", self_ns(&[Op::Baggage]) / n),
            ("datastores.write_ns", per_call(Op::Write)),
            ("datastores.publish_ns", per_call(Op::Publish)),
            ("datastores.read_ns", per_call(Op::Read)),
            ("datastores.recv_ns", per_call(Op::Recv)),
            (
                "datastores.ns_per_req",
                self_ns(&[Op::Write, Op::Publish, Op::Read, Op::Recv]) / n,
            ),
            ("datastores.commits_per_req", c("store.commits") / n),
            (
                "datastores.fanout_events_per_req",
                c("store.fanout_events") / n,
            ),
            ("datastores.applies_per_req", c("store.applies") / n),
            (
                "datastores.avg_batch",
                ratio(c("store.send_entries"), c("store.fanout_events")),
            ),
            ("datastores.wal_bytes_per_req", c("store.wal_bytes") / n),
            ("core.barriers_per_req", t.barriers as f64 / n),
            ("core.barrier_ns", per_call(Op::Barrier)),
            ("core.ns_per_req", self_ns(&[Op::Barrier]) / n),
            (
                "core.barrier_waited_ratio",
                ratio(
                    t.barrier_waited_for as f64,
                    (t.barrier_waited_for + t.barrier_already_visible) as f64,
                ),
            ),
            (
                "core.barrier_blocked_sim_ms",
                ratio(t.barrier_blocked_ns as f64 / 1e6, t.barriers as f64),
            ),
            ("apps.glue_ns_per_req", self_ns(&[Op::Request]) / n),
            ("trace.gen_ns_per_graph", gen_ns as f64 / graphs),
            ("trace.calls_per_req", calls as f64 / graphs),
            ("trace.stateful_calls_per_req", stateful as f64 / graphs),
            (
                "tracing.attributed_share",
                ratio(t.root_ns as f64, run.loop_ns as f64),
            ),
            ("tracing.traced_ns_per_req", run.loop_ns as f64 / n),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    )
}

/// Mean host ns of inject → header → parse → extract over the sampled final
/// lineages: what one RPC leg pays to carry a request's lineage.
fn baggage_roundtrip_ns(t: &TraceSummary) -> f64 {
    if t.lineages.is_empty() {
        return 0.0;
    }
    let t0 = host_ns();
    for lineage in &t.lineages {
        let mut ctx = LineageCtx::new();
        ctx.adopt(lineage.clone());
        let mut outgoing = Baggage::new();
        ctx.inject(&mut outgoing);
        let header = outgoing.to_header();
        let incoming = Baggage::from_header(&header);
        let mut server = LineageCtx::new();
        server.extract(&incoming);
        black_box(server);
    }
    (host_ns() - t0) as f64 / t.lineages.len() as f64
}
