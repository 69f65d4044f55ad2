//! The benchmark checked against itself, at 1/100 of the measured size.

use std::collections::BTreeMap;
use std::time::Duration;

use antipode_app::social::{self, SocialConfig};
use antipode_app::train_ticket::{self, TrainTicketConfig};
use antipode_benchmark::child::{self, ChildReport, ChildSpec};
use antipode_benchmark::harness::WorkloadResult;
use antipode_benchmark::json::Json;
use antipode_benchmark::metrics::{END_TO_END, PER_LAYER};
use antipode_benchmark::outcome::Outcome;
use antipode_benchmark::trace::{Op, Tracer, NO_REQ};
use antipode_benchmark::workloads::Workload;
use antipode_benchmark::{social_twin, train_twin};
use antipode_sim::net::regions::SG;
use antipode_sim::Sim;

const SCALE_DEN: u64 = 100;

fn run(workload: Workload, seed: u64, traced: bool) -> ChildReport {
    let spec = ChildSpec {
        workload,
        seed,
        scale_den: SCALE_DEN,
        traced,
        setup_only: false,
    };
    child::run(spec, 0, None)
}

fn result(
    workload: Workload,
    untraced: Vec<ChildReport>,
    traced: Vec<ChildReport>,
) -> WorkloadResult {
    WorkloadResult {
        workload,
        untraced,
        traced,
        extra_setups: Vec::new(),
    }
}

#[test]
fn same_seed_runs_agree_on_every_virtual_metric_and_counter() {
    for w in Workload::ALL {
        let (a, b) = (run(w, 7, false), run(w, 7, false));
        assert_eq!(a.virt, b.virt, "{}", w.name());
        assert_eq!(a.counters, b.counters, "{}", w.name());
        assert!(a.virt["ops_attempted"] > 0.0, "{}", w.name());
        assert_eq!(
            result(w, vec![a, b], vec![]).failures(),
            Vec::<String>::new()
        );
    }
}

#[test]
fn traced_twins_match_the_applications_exactly() {
    // Through the harness's own comparison, for the workloads…
    for w in Workload::ALL {
        let r = result(w, vec![run(w, 3, false)], vec![run(w, 3, true)]);
        assert!(!r.twin_drift(), "{} drifted", w.name());
        assert_eq!(r.per_layer()["apps.twin_drift"], 0.0);
        assert_eq!(r.failures(), Vec::<String>::new(), "{}", w.name());
    }
    // …and directly, for the Antipode-off variants no workload covers.
    let cfg = TrainTicketConfig::new(300.0)
        .with_duration(Duration::from_secs(6))
        .with_seed(5);
    antipode_store::stats::reset();
    let app = Outcome::from_train_ticket(&train_ticket::run(&cfg));
    let app_stats = antipode_store::stats::snapshot();
    antipode_store::stats::reset();
    let twin = train_twin::run(&cfg, true);
    assert_eq!(twin.outcome, app);
    assert_eq!(antipode_store::stats::snapshot(), app_stats);
    assert!(
        app.violations > 0 || app.windows < app.completed,
        "the race is there"
    );

    let cfg = SocialConfig::new(SG, 125.0)
        .with_duration(Duration::from_secs(8))
        .with_seed(5);
    let app = Outcome::from_social(&social::run(&cfg));
    assert_eq!(social_twin::run(&cfg, true).outcome, app);
    assert_eq!(social_twin::run(&cfg, false).outcome, app);
}

#[test]
fn nested_spans_account_for_all_wrapped_time_exactly_once() {
    let sim = Sim::new(1);
    let tr = Tracer::enabled(&sim);
    let spin =
        |iters: u64| std::hint::black_box((0..iters).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
    for req in 0..50u64 {
        let (s, t) = (sim.clone(), tr.clone());
        sim.spawn(tr.traced(Op::Request, req, async move {
            spin(2_000);
            for _ in 0..3 {
                t.traced(Op::Hop, req, async {
                    spin(1_000);
                    s.sleep(Duration::from_millis(1)).await;
                    t.traced(Op::Write, req, async {
                        spin(500);
                        s.sleep(Duration::from_millis(1)).await;
                    })
                    .await;
                    t.traced_sync(Op::Baggage, || spin(500));
                })
                .await;
            }
        }));
    }
    let before = antipode_benchmark::host::host_ns();
    sim.run();
    let wall = antipode_benchmark::host::host_ns() - before;
    let s = tr.finish();
    // Every ns inside an outermost poll is some span's self time: 100 %, and
    // no ns is in two spans.
    assert_eq!(s.attributed_ns(), s.root_ns);
    assert!(
        s.root_ns > 0 && s.root_ns <= wall,
        "{} of {wall}",
        s.root_ns
    );
    assert_eq!(s.op(Op::Request).calls, 50);
    assert_eq!(s.op(Op::Hop).calls, 150);
    assert_eq!(s.op(Op::Write).calls, 150);
    assert_eq!(s.op(Op::Baggage).calls, 150);
    for op in [Op::Request, Op::Hop, Op::Write, Op::Baggage] {
        assert!(s.op(op).self_ns > 0, "{op:?} did work");
    }
    // Request 0 is sampled: its spans nest Request → Hop → Write, and span
    // ends are ordered in both clocks.
    let spans: Vec<_> = s.spans.iter().filter(|r| r.req == 0).collect();
    assert_eq!(spans.len(), 1 + 3 + 3);
    let root = spans.iter().find(|r| r.op == Op::Request).unwrap();
    assert_eq!(root.parent, 0);
    for hop in spans.iter().filter(|r| r.op == Op::Hop) {
        assert_eq!(hop.parent, root.id);
        assert!(hop.virt_ns.1 - hop.virt_ns.0 == 2_000_000);
        assert!(hop.host_ns.0 <= hop.host_ns.1);
    }
    assert!(s.spans.iter().all(|r| r.req % 1024 == 0 && r.req != NO_REQ));
}

#[test]
fn a_disabled_tracer_is_a_pass_through() {
    let sim = Sim::new(1);
    let tr = Tracer::disabled();
    let out = sim.block_on(tr.traced(Op::Hop, 0, async { 7 }));
    assert_eq!(out, 7);
    assert_eq!(tr.traced_sync(Op::Baggage, || 8), 8);
    assert_eq!(tr.finish().attributed_ns(), 0);
}

#[test]
fn antipode_off_runs_no_lineage_shim_or_barrier_code() {
    let w = Workload::ComposePostOriginal;
    let traced = run(w, 2, true);
    for (name, value) in &traced.counters {
        if name.starts_with("lineage.") {
            assert_eq!(*value, 0.0, "{name}");
        }
    }
    for (name, value) in &traced.layers {
        if name.starts_with("lineage.") || name.starts_with("core.") {
            assert_eq!(*value, 0.0, "{name}");
        }
    }
    assert!(traced.virt["violation_pct"] > 0.0, "the race must show");
    assert!(traced.layers["datastores.commits_per_req"] > 0.0);
    // The same run with Antipode on does touch them, so the zeros mean
    // something.
    let on = run(Workload::ComposePost, 2, true);
    assert!(on.counters["lineage.wire_encodes"] > 0.0);
    assert!(on.layers["core.barriers_per_req"] == 1.0);
}

#[test]
fn the_seed_is_wired_and_no_seed_violates() {
    for w in Workload::ALL {
        let (a, b) = (run(w, 11, false), run(w, 12, false));
        assert_ne!(a.virt, b.virt, "{}: the seed changes nothing", w.name());
        if w.antipode() {
            for r in [&a, &b] {
                assert_eq!(r.virt["xcy_violations"], 0.0, "{}", w.name());
                assert_eq!(r.virt["ops_failed"], 0.0, "{}", w.name());
            }
        }
    }
}

#[test]
fn a_child_process_reports_what_the_library_computes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_antipode-benchmark"))
        .args(["child", "--workload", "cancel_ticket", "--seed", "4"])
        .args(["--scale-den", "100", "--traced", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = ChildReport::from_json(&Json::parse(stdout.lines().last().unwrap()).unwrap());
    let here = run(Workload::CancelTicket, 4, true);
    assert_eq!(report.virt, here.virt);
    assert_eq!(report.counters, here.counters);
    assert_eq!(
        report.layers.keys().collect::<Vec<_>>(),
        here.layers.keys().collect::<Vec<_>>()
    );
}

#[test]
fn benchmark_json_lists_what_the_tables_define() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("valid JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads"),
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
    let contract: BTreeMap<&str, _> = END_TO_END
        .iter()
        .filter_map(|m| m.driver_bound.map(|b| (m.name, (m, b))))
        .collect();
    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), contract.len());
    for m in listed {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let (table, bound) = contract
            .get(name)
            .unwrap_or_else(|| panic!("{name} not in the table"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(table.unit),
            "{name}"
        );
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(*bound),
            "{name}"
        );
        let better = if table.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
        assert!(
            *bound > 0.0 && *bound <= 0.25 && *bound >= table.bound,
            "{name}"
        );
    }
    assert!(contract.contains_key("setup_s"));
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    assert_eq!(names("per_layer"), per_layer);
    // Every per-layer name the table defines is one a traced run produces.
    let r = result(
        Workload::TraceRpc,
        vec![run(Workload::TraceRpc, 1, false)],
        vec![run(Workload::TraceRpc, 1, true)],
    );
    let produced: Vec<String> = r.per_layer().into_keys().collect();
    let mut expected = per_layer.clone();
    expected.sort();
    assert_eq!(produced, expected);
    let e2e = r.end_to_end();
    for m in &END_TO_END {
        assert!(e2e.contains_key(m.name), "{}", m.name);
    }
}
