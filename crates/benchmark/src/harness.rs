//! The harness: spawns one child process per (workload, repeat), one at a
//! time, and turns their reports into medians, checks and output.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::child::{ChildReport, ChildSpec};
use crate::host::{host_ns, unix_ns};
use crate::json::Json;
use crate::metrics::{median, Clock, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// Timed repeats per workload at least; more if the time budget allows.
pub const MIN_REPEATS: usize = 5;
/// Traced repeats per workload at least: per-layer timings are host times
/// too, and a single run of them means as little as a single run of anything.
pub const TRACED_REPEATS: usize = 3;
/// Set-up is cheap next to a run, so it is sampled more often: these many
/// extra children stop right after set-up.
pub const EXTRA_SETUP_SAMPLES: usize = 10;
/// Where traces and the result file go, relative to the working directory.
pub const OUT_DIR: &str = "target/benchmark";

/// What to measure.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workloads, run round-robin (w1r1, w2r1, … w1r2, …).
    pub workloads: Vec<Workload>,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Keep adding rounds of repeats until this many seconds of measuring
    /// have passed (`None`: exactly [`MIN_REPEATS`] rounds).
    pub seconds: Option<f64>,
    /// Measure end-to-end metrics (tracing off).
    pub end_to_end: bool,
    /// Measure per-layer metrics (traced twin, paired with an untraced run).
    pub per_layer: bool,
}

/// Median, range and count of one metric over the repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// Median.
    pub median: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
    /// Repeats.
    pub n: usize,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        Stat {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// Everything measured for one workload.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Tracing-off children, in the order they ran.
    pub untraced: Vec<ChildReport>,
    /// Traced children.
    pub traced: Vec<ChildReport>,
    /// `setup_s` of the children that stopped after set-up.
    pub extra_setups: Vec<f64>,
}

impl WorkloadResult {
    fn new(workload: Workload) -> Self {
        WorkloadResult {
            workload,
            untraced: Vec::new(),
            traced: Vec::new(),
            extra_setups: Vec::new(),
        }
    }

    fn host_values(reports: &[ChildReport], name: &str) -> Vec<f64> {
        reports
            .iter()
            .filter_map(|r| r.host.get(name).copied())
            .collect()
    }

    /// The end-to-end metrics: host metrics as the median over the repeats,
    /// virtual metrics from the first repeat (all repeats agree, or
    /// [`WorkloadResult::failures`] says so).
    pub fn end_to_end(&self) -> BTreeMap<&'static str, Stat> {
        let mut out = BTreeMap::new();
        let Some(first) = self.untraced.first() else {
            return out;
        };
        for m in &END_TO_END {
            let stat = match m.clock {
                Clock::Host => {
                    let mut values = Self::host_values(&self.untraced, m.name);
                    if m.name == "setup_s" {
                        values.extend(&self.extra_setups);
                    }
                    Stat::of(&values)
                }
                Clock::Virtual => {
                    let mut v = first.virt.get(m.name).copied().unwrap_or(0.0);
                    if m.name == "lineage_bytes_max" {
                        // `train_ticket::run` does not report lineage sizes;
                        // the traced run's sample stands in. Where the
                        // application does report them the two agree.
                        let sampled = self.traced.first();
                        let sampled = sampled.and_then(|t| t.layers.get("xcy.lineage_bytes_max"));
                        v = v.max(sampled.copied().unwrap_or(0.0));
                    }
                    Stat {
                        median: v,
                        min: v,
                        max: v,
                        n: self.untraced.len(),
                    }
                }
            };
            out.insert(m.name, stat);
        }
        out
    }

    /// Whether the traced twin disagrees with the application on any
    /// virtual metric or store counter.
    pub fn twin_drift(&self) -> bool {
        let (Some(app), Some(twin)) = (self.untraced.first(), self.traced.first()) else {
            return false;
        };
        app.virt != twin.virt || app.counters != twin.counters
    }

    /// The per-layer metrics: medians over the traced children, plus the
    /// ones that need both kinds of run.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some(first) = self.traced.first() else {
            return out;
        };
        for name in first.layers.keys() {
            let values: Vec<f64> = self
                .traced
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            out.insert(name.clone(), median(&values));
        }
        let host = |name: &str| median(&Self::host_values(&self.untraced, name));
        out.insert("host.user_s".into(), host("user_s"));
        out.insert("host.sys_share".into(), host("sys_share"));
        out.insert(
            "host.minor_faults_per_req".into(),
            host("minor_faults_per_req"),
        );
        let traced_s = median(&Self::host_values(&self.traced, "run_s"));
        let untraced_s = host("run_s");
        out.insert(
            "tracing.overhead_pct".into(),
            if untraced_s > 0.0 {
                100.0 * (traced_s / untraced_s - 1.0)
            } else {
                0.0
            },
        );
        out.insert("apps.twin_drift".into(), f64::from(self.twin_drift()));
        for name in ["violation_pct", "failed_ops_pct"] {
            out.insert(
                format!("xcy.{name}"),
                first.virt.get(name).copied().unwrap_or(0.0),
            );
        }
        out
    }

    /// Output checks that failed. Empty means the outputs are correct.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let w = self.workload;
        for (kind, reports) in [("untraced", &self.untraced), ("traced", &self.traced)] {
            let Some(first) = reports.first() else {
                continue;
            };
            let v = |name: &str| first.virt.get(name).copied().unwrap_or(0.0);
            if v("ops_attempted") < 1.0 {
                out.push(format!("{kind}: no request was issued"));
            }
            if v("ops_failed") != 0.0 {
                out.push(format!(
                    "{kind}: {} of {} requests failed or never finished",
                    v("ops_failed"),
                    v("ops_attempted")
                ));
            }
            if w.antipode() {
                if v("xcy_violations") != 0.0 {
                    out.push(format!(
                        "{kind}: {} XCY violations with Antipode on",
                        v("xcy_violations")
                    ));
                }
            } else {
                if v("xcy_violations") == 0.0 {
                    out.push(format!(
                        "{kind}: no violation with Antipode off — the race has vanished"
                    ));
                }
                // The bypass row: no lineage, shim or barrier code may run.
                let touched: Vec<&String> = first
                    .counters
                    .iter()
                    .chain(&first.layers)
                    .filter(|(k, v)| {
                        (k.starts_with("lineage.") || k.starts_with("core.")) && **v != 0.0
                    })
                    .map(|(k, _)| k)
                    .collect();
                if !touched.is_empty() {
                    out.push(format!(
                        "{kind}: Antipode is off but {touched:?} are not zero"
                    ));
                }
            }
            // Determinism: same seed, same code, same virtual result.
            for (i, r) in reports.iter().enumerate().skip(1) {
                if r.virt != first.virt || r.counters != first.counters {
                    out.push(format!(
                        "{kind}: repeat {} disagrees with repeat 1 on a virtual metric or counter",
                        i + 1
                    ));
                }
            }
        }
        out
    }

    /// Conditions worth a warning but not a failure.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.twin_drift() {
            out.push(
                "apps.twin_drift = 1: the traced twin no longer matches the application; \
                 the per-layer block is STALE until crates/benchmark follows the app"
                    .to_string(),
            );
        }
        out
    }

    /// Requests issued and failed, summed over every child.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let sum = |name: &str| {
            self.untraced
                .iter()
                .chain(&self.traced)
                .filter_map(|r| r.virt.get(name))
                .sum::<f64>() as u64
        };
        (sum("ops_attempted"), sum("ops_failed"))
    }

    /// The result as JSON, for `result.json`.
    pub fn to_json(&self) -> Json {
        let e2e = self.end_to_end();
        let first = self.untraced.first();
        Json::obj([
            ("size", Json::Str(self.workload.size())),
            (
                "end_to_end",
                Json::Obj(
                    END_TO_END
                        .iter()
                        .filter_map(|m| e2e.get(m.name).map(|s| (m, s)))
                        .map(|(m, s)| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("median", Json::Num(s.median)),
                                    ("min", Json::Num(s.min)),
                                    ("max", Json::Num(s.max)),
                                    ("n", Json::Num(s.n as f64)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("virtual", first.map_or(Json::Null, |r| Json::nums(&r.virt))),
            (
                "counters",
                first.map_or(Json::Null, |r| Json::nums(&r.counters)),
            ),
            ("per_layer", Json::nums(&self.per_layer())),
            (
                "failures",
                Json::Arr(self.failures().into_iter().map(Json::Str).collect()),
            ),
            (
                "warnings",
                Json::Arr(self.warnings().into_iter().map(Json::Str).collect()),
            ),
        ])
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self, seed: u64) {
        let w = self.workload;
        println!("== {} ({}; seed {seed}) ==", w.name(), w.size());
        let e2e = self.end_to_end();
        if !e2e.is_empty() {
            println!("  end-to-end, tracing off: median [min .. max] of n repeats");
            for m in &END_TO_END {
                let Some(s) = e2e.get(m.name) else { continue };
                let clock = match m.clock {
                    Clock::Host => "host",
                    Clock::Virtual => "virtual, exact for the seed",
                };
                println!(
                    "    {:<28} {:>16.4} {:<5} [{:.4} .. {:.4}] n={} ({clock})",
                    m.name, s.median, m.unit, s.min, s.max, s.n
                );
            }
            if let Some(r) = self.untraced.first() {
                let v = |name: &str| r.virt.get(name).copied().unwrap_or(0.0);
                println!(
                    "    ops_attempted {} ops_failed {} per repeat; open loop, Poisson arrivals \
                     in virtual time: generator lateness is 0 by construction",
                    v("ops_attempted"),
                    v("ops_failed")
                );
            }
        }
        let layers = self.per_layer();
        if !layers.is_empty() {
            let stale = if self.twin_drift() { " — STALE" } else { "" };
            println!(
                "  per-layer, traced twin: median of n={}{stale}",
                self.traced.len()
            );
            for (name, unit, _) in &PER_LAYER {
                if let Some(v) = layers.get(*name) {
                    println!("    {name:<34} {v:>16.4} {unit}");
                }
            }
        }
        for f in self.failures() {
            println!("  FAILED: {f}");
        }
        for f in self.warnings() {
            println!("  warning: {f}");
        }
    }
}

/// Runs one child to completion and parses its report.
pub fn spawn_child(exe: &Path, spec: ChildSpec) -> Result<ChildReport, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--scale-den", &spec.scale_den.to_string()])
        .args(["--traced", if spec.traced { "1" } else { "0" }])
        .args(["--setup-only", if spec.setup_only { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if spec.traced && spec.scale_den == 1 {
        cmd.args([
            "--trace-path",
            &format!("{OUT_DIR}/trace-{}.json", spec.workload.name()),
        ]);
    }
    cmd.args(["--spawned-unix-ns", &unix_ns().to_string()]);
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "child {:?} ended with {}",
            spec.workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("child printed nothing".to_string())?;
    Json::parse(last).map(|j| ChildReport::from_json(&j))
}

/// Carries out a plan: a discarded warm-up child per workload at a tenth of
/// the size, then rounds of timed children, one process at a time.
pub fn measure(exe: &Path, plan: &Plan) -> Result<Vec<WorkloadResult>, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let spec = |workload, traced| ChildSpec {
        workload,
        seed: plan.seed,
        scale_den: 1,
        traced,
        setup_only: false,
    };
    let mut results: Vec<WorkloadResult> = plan
        .workloads
        .iter()
        .map(|w| WorkloadResult::new(*w))
        .collect();
    for r in &results {
        spawn_child(
            exe,
            ChildSpec {
                scale_den: 10,
                ..spec(r.workload, false)
            },
        )?;
    }
    let started = host_ns();
    let out_of_time = |rounds: usize, min: usize| {
        rounds >= min
            && plan
                .seconds
                .is_none_or(|s| (host_ns() - started) as f64 / 1e9 >= s)
    };
    if plan.end_to_end {
        let mut rounds = 0;
        while !out_of_time(rounds, MIN_REPEATS) {
            for r in &mut results {
                r.untraced.push(spawn_child(exe, spec(r.workload, false))?);
            }
            rounds += 1;
        }
        for r in &mut results {
            for _ in 0..EXTRA_SETUP_SAMPLES {
                let report = spawn_child(
                    exe,
                    ChildSpec {
                        setup_only: true,
                        ..spec(r.workload, false)
                    },
                )?;
                r.extra_setups.extend(report.host.get("setup_s"));
            }
        }
    }
    if plan.per_layer {
        // Without end-to-end runs of its own, each traced run gets an
        // untraced partner so that the overhead compares like with like.
        let partner = !plan.end_to_end;
        let mut rounds = 0;
        while !out_of_time(rounds, TRACED_REPEATS) {
            for r in &mut results {
                if partner {
                    r.untraced.push(spawn_child(exe, spec(r.workload, false))?);
                }
                r.traced.push(spawn_child(exe, spec(r.workload, true))?);
            }
            rounds += 1;
        }
    }
    Ok(results)
}
