//! Fixture corpus: every rule must fire exactly once on its `*_fires.rs`
//! fixture, be silent on its `*_waived.rs` twin, and the workspace itself
//! must be clean.

use std::fs;
use std::path::Path;

use antipode_lint::{lint_source, FileContext, Finding, Rule};

fn lint_fixture(name: &str, ctx: FileContext) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_source(name, &source, &ctx)
}

fn det() -> FileContext {
    FileContext {
        deterministic: true,
        ..Default::default()
    }
}

fn fault() -> FileContext {
    FileContext {
        deterministic: true,
        fault_path: true,
        ..Default::default()
    }
}

fn app() -> FileContext {
    FileContext {
        app: true,
        ..Default::default()
    }
}

#[test]
fn every_rule_fires_exactly_once_on_its_fixture() {
    for (fixture, ctx, rule) in [
        ("d1_fires.rs", det(), Rule::NondeterministicMap),
        ("d2_fires.rs", FileContext::default(), Rule::WallClock),
        ("d3_fires.rs", fault(), Rule::FaultPathUnwrap),
        ("x1_fires.rs", app(), Rule::UncheckedXcyWrite),
        ("x2_fires.rs", app(), Rule::UnconfinedSpeculativeWrite),
        ("s1_fires.rs", det(), Rule::SchedulerBypass),
        ("w1_fires.rs", det(), Rule::UncheckedWalRead),
    ] {
        let findings = lint_fixture(fixture, ctx);
        assert_eq!(
            findings.len(),
            1,
            "{fixture}: expected exactly one finding, got {findings:#?}"
        );
        assert_eq!(findings[0].rule, rule, "{fixture}");
        assert!(findings[0].line > 0, "{fixture}: line must be 1-based");
        assert!(!findings[0].hint.is_empty(), "{fixture}: hint required");
    }
}

#[test]
fn waivers_suppress_every_rule() {
    for (fixture, ctx) in [
        ("d1_waived.rs", det()),
        ("d2_waived.rs", FileContext::default()),
        ("d3_waived.rs", fault()),
        ("x1_waived.rs", app()),
        ("x2_waived.rs", app()),
        ("s1_waived.rs", det()),
        ("w1_waived.rs", det()),
    ] {
        let findings = lint_fixture(fixture, ctx);
        assert!(findings.is_empty(), "{fixture}: {findings:#?}");
    }
}

#[test]
fn module_with_reachable_barrier_is_clean() {
    assert!(lint_fixture("x1_checked.rs", app()).is_empty());
}

#[test]
fn confined_speculating_module_is_clean() {
    assert!(lint_fixture("x2_confined.rs", app()).is_empty());
}

/// Both layers of the speculation plane (`crates/{datastores,
/// services}/src/speculation.rs`) sit on the confirmation/rollback fault
/// path, so D3 must fire there under the *real* classified contexts.
#[test]
fn d3_covers_the_speculation_modules() {
    for module in [
        "crates/datastores/src/speculation.rs",
        "crates/services/src/speculation.rs",
    ] {
        let ctx = FileContext::classify(module);
        assert!(
            ctx.deterministic && ctx.fault_path && !ctx.test_file,
            "{module} must classify as a deterministic fault-path module"
        );
        let findings = lint_fixture("d3_speculation_fires.rs", ctx);
        assert_eq!(findings.len(), 1, "{module}: {findings:#?}");
        assert_eq!(findings[0].rule, Rule::FaultPathUnwrap, "{module}");
    }
}

/// The substrate engine owns the fault/recovery paths for both store
/// families, so D3 must fire inside `engine.rs`/`substrate.rs` under their
/// *real* classified contexts — not a hand-rolled `FileContext`.
#[test]
fn d3_fires_in_engine_fault_paths() {
    for module in [
        "crates/datastores/src/engine.rs",
        "crates/datastores/src/substrate.rs",
    ] {
        let ctx = FileContext::classify(module);
        assert!(
            ctx.deterministic && ctx.fault_path && !ctx.test_file,
            "{module} must classify as a deterministic fault-path module"
        );
        let findings = lint_fixture("d3_engine_fires.rs", ctx);
        assert_eq!(findings.len(), 1, "{module}: {findings:#?}");
        assert_eq!(findings[0].rule, Rule::FaultPathUnwrap, "{module}");
    }
}

/// The fan-out module's redelivery/retry phases consult the fault plan, so
/// D1 and D3 must both fire there under its *real* classified context.
#[test]
fn fanout_module_gets_d1_and_d3_coverage() {
    let module = "crates/datastores/src/fanout.rs";
    let ctx = FileContext::classify(module);
    assert!(
        ctx.deterministic && ctx.fault_path && !ctx.test_file,
        "{module} must classify as deterministic and fault-path"
    );
    let d1 = lint_fixture("d1_fires.rs", ctx);
    assert_eq!(d1.len(), 1, "{module}: {d1:#?}");
    assert_eq!(d1[0].rule, Rule::NondeterministicMap, "{module}");
    let d3 = lint_fixture("d3_engine_fires.rs", ctx);
    assert_eq!(d3.len(), 1, "{module}: {d3:#?}");
    assert_eq!(d3[0].rule, Rule::FaultPathUnwrap, "{module}");
    // The envelope module is not fault-path: D3 does not apply.
    let ctx = FileContext::classify("crates/datastores/src/envelope.rs");
    assert!(!ctx.fault_path);
    assert!(lint_fixture("d3_engine_fires.rs", ctx).is_empty());
}

/// The WAL codec is the one module allowed to touch raw framed bytes, so
/// W1 must not fire there under its *real* classified context — while the
/// engine and recovery modules next door stay covered.
#[test]
fn w1_exempts_the_wal_codec_home() {
    let codec = FileContext::classify("crates/datastores/src/wal.rs");
    assert!(codec.deterministic && codec.wal_codec && !codec.test_file);
    assert!(lint_fixture("w1_fires.rs", codec).is_empty());
    for module in [
        "crates/datastores/src/engine.rs",
        "crates/datastores/src/recovery.rs",
        "crates/datastores/src/repair.rs",
    ] {
        let ctx = FileContext::classify(module);
        assert!(!ctx.wal_codec, "{module}");
        let findings = lint_fixture("w1_fires.rs", ctx);
        assert_eq!(findings.len(), 1, "{module}: {findings:#?}");
        assert_eq!(findings[0].rule, Rule::UncheckedWalRead, "{module}");
    }
}

/// The gate the CI job enforces, asserted here too so a plain
/// `cargo test --workspace` catches a regression without the binary.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "{}", root.display());
    let findings = antipode_lint::scan_workspace(&root).expect("scan");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
