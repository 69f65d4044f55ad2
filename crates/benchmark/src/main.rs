//! Command line of the benchmark; see `README.md` for the modes.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use antipode_benchmark::child::{self, ChildSpec};
use antipode_benchmark::compare;
use antipode_benchmark::harness::{measure, Plan, OUT_DIR};
use antipode_benchmark::json::Json;
use antipode_benchmark::metrics::{END_TO_END, PER_LAYER};
use antipode_benchmark::workloads::Workload;

const USAGE: &str = "usage:
  run.sh [--seed N]                                   all five workloads; writes target/benchmark/result.json
  run.sh --workload W --seed N --seconds S --trace 0|1  one workload; last line is one JSON object
  run.sh --compare a.json b.json                      verdict table; exit 1 if any pair is worse";

/// `--key value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn workload(flags: &BTreeMap<&str, &str>) -> Result<Workload, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run_child(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let spec = ChildSpec {
        workload: workload(&f)?,
        seed: number(&f, "seed", None)?,
        scale_den: number::<u64>(&f, "scale-den", Some(1))?.max(1),
        traced: number::<u8>(&f, "traced", Some(0))? != 0,
        setup_only: number::<u8>(&f, "setup-only", Some(0))? != 0,
    };
    let spawned = number::<u128>(&f, "spawned-unix-ns", Some(0))?;
    let report = child::run(spec, spawned, f.get("trace-path").copied());
    println!("{}", report.to_json().compact());
    Ok(())
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("--compare takes two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (rows, exact) = compare::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) pair".into());
    }
    Ok(compare::print(&rows, exact))
}

/// The one-workload mode the driver calls. Prints the metrics by name, then
/// the result object as the last line.
fn run_one(f: &BTreeMap<&str, &str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = number(f, "seed", Some(1u64))?;
    let traced = number::<u8>(f, "trace", Some(0))? != 0;
    let plan = Plan {
        workloads: vec![workload(f)?],
        seed,
        seconds: Some(number(f, "seconds", Some(10.0))?),
        end_to_end: !traced,
        per_layer: traced,
    };
    let results = measure(&exe, &plan)?;
    let r = &results[0];
    r.print(seed);
    let metrics: BTreeMap<String, Json> = if traced {
        let layers = r.per_layer();
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = layers.get(*name).copied().unwrap_or(0.0);
                (name.to_string(), metric_json(value, unit))
            })
            .collect()
    } else {
        let e2e = r.end_to_end();
        END_TO_END
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .map(|m| {
                let value = e2e.get(m.name).map_or(0.0, |s| s.median);
                (m.name.to_string(), metric_json(value, m.unit))
            })
            .collect()
    };
    let correct = r.failures().is_empty();
    let (attempted, failed) = r.attempted_failed();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The full run: five workloads, five repeats each, one traced run each.
fn run_all(f: &BTreeMap<&str, &str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = number(f, "seed", Some(1u64))?;
    let plan = Plan {
        workloads: Workload::ALL.to_vec(),
        seed,
        seconds: None,
        end_to_end: true,
        per_layer: true,
    };
    let results = measure(&exe, &plan)?;
    for r in &results {
        r.print(seed);
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.workload.name().to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let path = format!("{OUT_DIR}/result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("[result] {path}");
    let failed: usize = results.iter().map(|r| r.failures().len()).sum();
    println!(
        "{}",
        if failed == 0 {
            "all output checks passed".to_string()
        } else {
            format!("{failed} output checks FAILED")
        }
    );
    Ok(failed == 0)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => run_child(&args[1..]).map(|()| true),
        Some("--compare") => run_compare(&args[1..]).map(|worse| !worse),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let f = flags(args)?;
            if f.contains_key("workload") {
                run_one(&f)
            } else {
                run_all(&f)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("antipode-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
