//! `--compare a.json b.json`: applies the regression bounds to every
//! (end-to-end metric, workload) pair of two result files.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::workloads::Workload;

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound, and the
    /// repeats separate the two runs.
    Worse,
    /// The medians differ by more than the bound but the spread of the
    /// repeats is wider than the bound and the two ranges overlap: the runs
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(median, min, max)` of one metric in a result file.
type Range = (f64, f64, f64);

/// Judges `b` against `a` for one metric.
pub fn judge(m: &EndToEnd, bound: f64, a: Range, b: Range) -> Verdict {
    let (a_med, a_min, a_max) = a;
    let (b_med, b_min, b_max) = b;
    // How much worse b is than a, as a share of a; for a baseline of 0
    // ("any increase" metrics) any worsening at all counts.
    let worse_by = if m.higher_is_better {
        a_med - b_med
    } else {
        b_med - a_med
    };
    let limit = bound * a_med.abs();
    if worse_by <= limit {
        return Verdict::Ok;
    }
    let spread = (a_max - a_min).max(b_max - b_min);
    let overlap = a_min <= b_max && b_min <= a_max;
    if spread > limit && overlap {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn range(run: &Json, workload: &str, metric: &str) -> Option<Range> {
    let m = run
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some((
        m.get("median")?.as_f64()?,
        m.get("min")?.as_f64()?,
        m.get("max")?.as_f64()?,
    ))
}

/// One row of the verdict table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The two medians.
    pub medians: (f64, f64),
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two parsed result files. Pairs missing from either are skipped;
/// the second return value says whether the exact sections (virtual metrics
/// and counters) of every workload agree, which is only asked of runs made
/// with the same seed.
pub fn compare(a: &Json, b: &Json) -> (Vec<Row>, Option<bool>) {
    let seed = |j: &Json| j.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    let mut exact_agree = true;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (range(a, w.name(), m.name), range(b, w.name(), m.name))
            else {
                continue;
            };
            // Across seeds even exact metrics move; only the driver's wide
            // bounds mean anything then.
            let bound = if same_seed {
                m.bound
            } else {
                m.driver_bound.unwrap_or(m.bound)
            };
            rows.push(Row {
                workload: w.name(),
                metric: m.name,
                medians: (ra.0, rb.0),
                bound,
                verdict: judge(m, bound, ra, rb),
            });
        }
        for section in ["virtual", "counters"] {
            let get = |j: &Json| {
                j.get("workloads")
                    .and_then(|ws| ws.get(w.name()))
                    .and_then(|r| r.get(section))
                    .cloned()
            };
            exact_agree &= get(a) == get(b);
        }
    }
    (rows, same_seed.then_some(exact_agree))
}

/// Prints the verdict table as Markdown and returns whether any pair is
/// `worse`.
pub fn print(rows: &[Row], exact_agree: Option<bool>) -> bool {
    println!("| workload | metric | a (median) | b (median) | bound | verdict |");
    println!("|---|---|---:|---:|---:|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.1} % | {} |",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} pairs: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    match exact_agree {
        Some(true) => println!("same seed: all virtual-time metrics and counters agree exactly"),
        Some(false) => println!("same seed: virtual-time metrics or counters DIFFER"),
        None => println!("different seeds: the driver's cross-seed bounds were applied"),
    }
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let speed = end_to_end("sim_req_per_s").unwrap(); // higher is better, 10 %
        let b = speed.bound;
        // Within the bound.
        assert_eq!(
            judge(speed, b, (100.0, 99.0, 101.0), (95.0, 94.0, 96.0)),
            Verdict::Ok
        );
        // Better is always ok.
        assert_eq!(
            judge(speed, b, (100.0, 99.0, 101.0), (150.0, 149.0, 151.0)),
            Verdict::Ok
        );
        // Clearly separated and beyond the bound.
        assert_eq!(
            judge(speed, b, (100.0, 99.0, 101.0), (80.0, 79.0, 81.0)),
            Verdict::Worse
        );
        // Beyond the bound, but the repeats are all over the place.
        assert_eq!(
            judge(speed, b, (100.0, 70.0, 130.0), (85.0, 60.0, 120.0)),
            Verdict::Unresolved
        );
        // "Any increase" metrics: baseline 0, any violation is worse.
        let viol = end_to_end("violation_pct").unwrap();
        assert_eq!(
            judge(viol, viol.bound, (0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
            Verdict::Worse
        );
        assert_eq!(
            judge(viol, viol.bound, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            Verdict::Ok
        );
    }
}
