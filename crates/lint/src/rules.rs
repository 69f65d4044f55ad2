//! The rule set: what each rule forbids, where it applies, and the fix it
//! suggests. See DESIGN.md § "Analysis plane" for the rationale table.

use crate::lexer;

/// The lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: `std::collections::HashMap`/`HashSet` in a deterministic crate.
    /// Their iteration order is seeded per-process, so any order-dependent
    /// behavior breaks the simulator's bit-determinism guarantee.
    NondeterministicMap,
    /// D2: wall-clock or OS-thread nondeterminism (`std::time::Instant`,
    /// `SystemTime`, `thread::spawn`, `thread_rng`) outside `crates/bench`.
    WallClock,
    /// D3: `unwrap()`/`expect()` in fault-path modules — injected faults
    /// must surface as errors, not panics.
    FaultPathUnwrap,
    /// X1: a cross-service write through a shim in app code with no
    /// reachable `barrier`/checkpoint in the same module.
    UncheckedXcyWrite,
    /// X2: a direct shim write in a module that speculates (runs handlers
    /// through a `Speculator`) without routing effects through a
    /// `ConfinementBuffer` — a violated speculation could not roll the
    /// write back.
    UnconfinedSpeculativeWrite,
    /// S1: a pop/reorder of a scheduler-adjacent collection (`ready*`,
    /// `runnable*`, `waiter*`, `waker*`, `task*`, `wake*`) outside the
    /// Schedule API (`crates/sim/src/{executor,schedule}.rs`). Which task
    /// runs next must flow through `Schedule::choose` — an ad-hoc pop or
    /// sort is a scheduling decision the model checker cannot enumerate,
    /// reintroducing exactly the unexplored nondeterminism `antipode-mc`
    /// exists to close.
    SchedulerBypass,
    /// W1: a byte-level read of a WAL buffer (`*wal*[…]`, `.iter()`,
    /// `.chunks…`, `.windows(…)`, `.split_at(…)`, `.first()`, `.last()`)
    /// outside the WAL codec module (`crates/datastores/src/wal.rs`).
    /// Every read of logged bytes must flow through the codec's verified
    /// scan (`WalLog::scan` / `scan_frames`), which checks each frame's
    /// CRC and reports the exact failing offset — an ad-hoc byte read
    /// skips exactly the verification the storage-integrity plane exists
    /// to enforce, and would happily rehydrate bit-rotted records.
    UncheckedWalRead,
}

impl Rule {
    /// The waiver slug: `// lint: allow(<slug>, reason)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NondeterministicMap => "nondeterministic-map",
            Rule::WallClock => "wall-clock",
            Rule::FaultPathUnwrap => "fault-path-unwrap",
            Rule::UncheckedXcyWrite => "unchecked-xcy-write",
            Rule::UnconfinedSpeculativeWrite => "unconfined-speculative-write",
            Rule::SchedulerBypass => "scheduler-bypass",
            Rule::UncheckedWalRead => "unchecked-wal-read",
        }
    }

    /// All rules, for reporting.
    pub fn all() -> [Rule; 7] {
        [
            Rule::NondeterministicMap,
            Rule::WallClock,
            Rule::FaultPathUnwrap,
            Rule::UncheckedXcyWrite,
            Rule::UnconfinedSpeculativeWrite,
            Rule::SchedulerBypass,
            Rule::UncheckedWalRead,
        ]
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    fix: {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.message,
            self.hint
        )
    }
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileContext {
    /// In a crate whose behavior must be bit-deterministic
    /// (`sim`, `datastores`, `core`, `lineage`, `services`).
    pub deterministic: bool,
    /// In `crates/bench` (wall-clock timing is its whole point).
    pub bench: bool,
    /// A fault-path module (`fault.rs`, `replica.rs`, `queue.rs`, `rpc.rs`,
    /// `engine.rs`, `substrate.rs`, `recovery.rs`, `repair.rs`,
    /// `speculation.rs`, `fanout.rs`).
    pub fault_path: bool,
    /// Application code (`crates/apps`) — subject to X1.
    pub app: bool,
    /// The Schedule API's home (`crates/sim/src/{executor,schedule}.rs`) —
    /// the one place allowed to pop ready queues and order runnable sets,
    /// so S1 does not apply.
    pub scheduler_api: bool,
    /// The WAL codec's home (`crates/datastores/src/wal.rs`) — the one
    /// place allowed to touch raw framed log bytes, so W1 does not apply.
    pub wal_codec: bool,
    /// A test/example file: determinism rules do not apply.
    pub test_file: bool,
}

impl FileContext {
    /// Classifies a workspace-relative path.
    pub fn classify(rel: &str) -> FileContext {
        let norm = rel.replace('\\', "/");
        let comps: Vec<&str> = norm.split('/').collect();
        let crate_name = (comps.first() == Some(&"crates"))
            .then(|| comps.get(1).copied())
            .flatten();
        FileContext {
            deterministic: matches!(
                crate_name,
                Some("sim" | "datastores" | "core" | "lineage" | "services")
            ),
            bench: crate_name == Some("bench"),
            fault_path: matches!(
                comps.last().copied(),
                Some(
                    "fault.rs"
                        | "replica.rs"
                        | "queue.rs"
                        | "rpc.rs"
                        | "engine.rs"
                        | "substrate.rs"
                        | "recovery.rs"
                        | "repair.rs"
                        | "speculation.rs"
                        | "fanout.rs"
                )
            ),
            app: crate_name == Some("apps"),
            scheduler_api: crate_name == Some("sim")
                && matches!(comps.last().copied(), Some("executor.rs" | "schedule.rs")),
            wal_codec: crate_name == Some("datastores") && comps.last().copied() == Some("wal.rs"),
            test_file: comps.iter().any(|c| matches!(*c, "tests" | "examples")),
        }
    }
}

const D2_IDENTS: [&str; 3] = ["Instant", "SystemTime", "thread_rng"];
const X1_CALLS: [&str; 2] = [".write(", ".publish("];
const X1_CHECKPOINTS: [&str; 4] = ["barrier", "checkpoint", "wait_visible", "wait_acked"];
const X2_SPECULATION: [&str; 1] = ["Speculator"];
const X2_CONFINEMENT: [&str; 3] = ["ConfinementBuffer", "confine_write", "confine_publish"];
const S1_MUTATIONS: [&str; 8] = [
    ".pop_front(",
    ".pop_back(",
    ".pop(",
    ".swap_remove(",
    ".sort(",
    ".sort_by",
    ".sort_unstable",
    ".shuffle(",
];
const S1_COLLECTIONS: [&str; 6] = ["ready", "runnable", "waiter", "waker", "wake", "task"];
const W1_READS: [&str; 8] = [
    "[",
    ".iter(",
    ".chunks",
    ".windows(",
    ".split_at(",
    ".first(",
    ".last(",
    ".as_bytes(",
];

/// The receiver of the first scheduler-collection mutation on a line:
/// `state.waiters.swap_remove(i)` → `("waiters", ".swap_remove(")`.
fn scheduler_mutation(code: &str) -> Option<(String, &'static str)> {
    let mut best: Option<(usize, String, &'static str)> = None;
    for pat in S1_MUTATIONS {
        for (at, _) in code.match_indices(pat) {
            let recv: String = code[..at]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let lower = recv.to_ascii_lowercase();
            if S1_COLLECTIONS.iter().any(|k| lower.contains(k))
                && best.as_ref().is_none_or(|(a, _, _)| at < *a)
            {
                best = Some((at, recv, pat));
            }
        }
    }
    best.map(|(_, recv, pat)| (recv, pat))
}

/// The first byte-level read whose receiver path names a WAL buffer:
/// `state.wal.as_bytes().first()` → `("state.wal.as_bytes()", ".first(")`.
/// The receiver capture walks whole field paths (dots included) so
/// `self.wal.bytes[off]` is caught, while WAL-adjacent bookkeeping
/// (`wal_index`, `wal_len`) stays out of scope — those hold offsets and
/// counts, not framed bytes needing verification.
fn wal_byte_read(code: &str) -> Option<(String, &'static str)> {
    let mut best: Option<(usize, String, &'static str)> = None;
    for pat in W1_READS {
        for (at, _) in code.match_indices(pat) {
            let recv: String = code[..at]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let recv = recv.trim_matches('.').to_string();
            let named_wal = recv
                .to_ascii_lowercase()
                .split('.')
                .any(|seg| seg.contains("wal") && !seg.contains("index") && !seg.contains("len"));
            if named_wal && best.as_ref().is_none_or(|(a, _, _)| at < *a) {
                best = Some((at, recv, pat));
            }
        }
    }
    best.map(|(_, recv, pat)| (recv, pat))
}

/// The `shim`-named receivers of `.write(`/`.publish(` calls on a line.
fn shim_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for pat in X1_CALLS {
        for (at, _) in code.match_indices(pat) {
            let recv: String = code[..at]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if recv.to_ascii_lowercase().contains("shim") {
                out.push(recv);
            }
        }
    }
    out
}

/// Lints one file's source under the given context.
pub fn lint_source(file: &str, source: &str, ctx: &FileContext) -> Vec<Finding> {
    let lines = lexer::split_lines(source);
    let waived = lexer::waivers(&lines);
    let in_test = lexer::test_lines(&lines);

    // X1 reachability, approximated at module granularity: the app
    // definitions are single-file, so a write is considered checked when
    // any enforcement token appears in the same file.
    let has_checkpoint = ctx.app
        && lines.iter().any(|l| {
            lexer::idents(&l.code)
                .iter()
                .any(|id| X1_CHECKPOINTS.iter().any(|c| id.contains(c)))
        });

    // X2 reachability, same module granularity: a module that runs
    // handlers through a `Speculator` must route its shim effects through a
    // confinement buffer, else a violated speculation cannot roll them
    // back.
    let speculates = (ctx.app || ctx.deterministic)
        && lines.iter().any(|l| {
            lexer::idents(&l.code)
                .iter()
                .any(|id| X2_SPECULATION.contains(id))
        });
    let has_confinement = lines.iter().any(|l| {
        lexer::idents(&l.code)
            .iter()
            .any(|id| X2_CONFINEMENT.contains(id))
    });

    let mut findings = Vec::new();
    let mut push = |rule: Rule, line_idx: usize, message: String, hint: &str| {
        if !waived[line_idx].contains(rule.slug()) {
            findings.push(Finding {
                rule,
                file: file.to_string(),
                line: line_idx + 1,
                message,
                hint: hint.to_string(),
            });
        }
    };

    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let test_ctx = ctx.test_file || in_test[idx];

        if !test_ctx {
            if ctx.deterministic {
                if let Some(tok) = lexer::idents(code)
                    .iter()
                    .find(|id| **id == "HashMap" || **id == "HashSet")
                {
                    push(
                        Rule::NondeterministicMap,
                        idx,
                        format!("`{tok}` in a deterministic crate — iteration order is seeded per-process and leaks into simulation state"),
                        "use BTreeMap/BTreeSet or a sorted Vec; if the map is \
                         never iterated, waive with `// lint: allow(nondeterministic-map, <why>)`",
                    );
                }
            }
            if !ctx.bench {
                let ident_hit = lexer::idents(code)
                    .iter()
                    .find(|id| D2_IDENTS.contains(&**id))
                    .map(|s| s.to_string());
                let hit = ident_hit.or_else(|| {
                    code.contains("thread::spawn")
                        .then(|| "thread::spawn".to_string())
                });
                if let Some(tok) = hit {
                    push(
                        Rule::WallClock,
                        idx,
                        format!("`{tok}` outside crates/bench — wall-clock time and OS threads are invisible to the deterministic scheduler"),
                        "use Sim::now()/Sim::spawn and the sim's named RNG \
                         streams; real time belongs only in the bench crate",
                    );
                }
            }
            if ctx.deterministic && !ctx.scheduler_api {
                if let Some((recv, op)) = scheduler_mutation(code) {
                    push(
                        Rule::SchedulerBypass,
                        idx,
                        format!("`{recv}{}` pops/reorders a scheduler-adjacent collection outside the Schedule API — a task-ordering decision the model checker cannot enumerate", op.trim_end_matches('(')),
                        "route run-next decisions through the executor's \
                         Schedule choice points (Sim::set_schedule); if this \
                         collection holds store waiters or permits rather \
                         than runnable tasks, waive with \
                         `// lint: allow(scheduler-bypass, <why>)`",
                    );
                }
            }
            if ctx.deterministic && !ctx.wal_codec {
                if let Some((recv, op)) = wal_byte_read(code) {
                    push(
                        Rule::UncheckedWalRead,
                        idx,
                        format!("`{recv}{}` reads raw WAL bytes outside the codec — an ad-hoc byte read skips the per-frame CRC verification the integrity plane depends on", op.trim_end_matches('(')),
                        "decode through the verified scan \
                         (`WalLog::scan(true)` / `wal::scan_frames`), which \
                         checks every frame's checksum and reports the exact \
                         failing offset; if this buffer is not framed log \
                         bytes, waive with `// lint: allow(unchecked-wal-read, <why>)`",
                    );
                }
            }
            if ctx.fault_path {
                let hit = if code.contains(".unwrap()") {
                    Some("unwrap()")
                } else if code.contains(".expect(") {
                    Some("expect(…)")
                } else {
                    None
                };
                if let Some(tok) = hit {
                    push(
                        Rule::FaultPathUnwrap,
                        idx,
                        format!("`{tok}` in a fault-path module — injected faults must surface as errors, not panics"),
                        "propagate with `?` or match on the error; fault-path \
                         modules are exercised by the chaos plane",
                    );
                }
            }
        }

        if ctx.app && !test_ctx && !has_checkpoint {
            for recv in shim_receivers(code) {
                push(
                    Rule::UncheckedXcyWrite,
                    idx,
                    format!("cross-service write through `{recv}` with no barrier/checkpoint reachable in this module"),
                    "call `Antipode::barrier(&lineage, region)` (or a \
                     `ConsistencyChecker::checkpoint`) on the consumer \
                     side before dependent reads",
                );
            }
        }

        if speculates && !has_confinement && !test_ctx {
            for recv in shim_receivers(code) {
                push(
                    Rule::UnconfinedSpeculativeWrite,
                    idx,
                    format!("direct write through `{recv}` in a module that speculates — a violated speculation cannot roll it back"),
                    "park the effect in a `ConfinementBuffer` \
                     (confine_write/confine_publish) and let the speculator \
                     commit it on confirmation or discard it on violation",
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> FileContext {
        FileContext {
            deterministic: true,
            ..Default::default()
        }
    }

    #[test]
    fn classify_paths() {
        let c = FileContext::classify("crates/sim/src/net.rs");
        assert!(c.deterministic && !c.bench && !c.app && !c.test_file);
        let c = FileContext::classify("crates/bench/src/perf.rs");
        assert!(c.bench && !c.deterministic);
        let c = FileContext::classify("crates/datastores/src/queue.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/recovery.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/repair.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/engine.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/substrate.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/fanout.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/envelope.rs");
        assert!(c.deterministic && !c.fault_path);
        let c = FileContext::classify("crates/apps/src/social.rs");
        assert!(c.app);
        let c = FileContext::classify("crates/datastores/src/speculation.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/services/src/speculation.rs");
        assert!(c.deterministic && c.fault_path);
        let c = FileContext::classify("crates/datastores/src/wal.rs");
        assert!(c.deterministic && c.wal_codec && !c.test_file);
        let c = FileContext::classify("crates/datastores/src/engine.rs");
        assert!(!c.wal_codec);
        let c = FileContext::classify("crates/sim/src/executor.rs");
        assert!(c.deterministic && c.scheduler_api);
        let c = FileContext::classify("crates/sim/src/schedule.rs");
        assert!(c.deterministic && c.scheduler_api);
        let c = FileContext::classify("crates/sim/src/sync.rs");
        assert!(c.deterministic && !c.scheduler_api);
        let c = FileContext::classify("crates/datastores/src/engine.rs");
        assert!(!c.scheduler_api);
        let c = FileContext::classify("tests/chaos_properties.rs");
        assert!(c.test_file);
        let c = FileContext::classify("crates/sim/tests/determinism.rs");
        assert!(c.test_file && c.deterministic);
    }

    #[test]
    fn d1_ignores_strings_comments_and_tests() {
        let src = "\
// a HashMap in a comment
let s = \"HashMap\";
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
}
";
        assert!(lint_source("f.rs", src, &det()).is_empty());
    }

    #[test]
    fn d1_fires_on_real_use() {
        let f = lint_source("f.rs", "use std::collections::HashSet;\n", &det());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::NondeterministicMap);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d2_distinguishes_sim_spawn_from_thread_spawn() {
        let ctx = FileContext::default();
        assert!(lint_source("f.rs", "sim.spawn(async {});\n", &ctx).is_empty());
        let f = lint_source("f.rs", "std::thread::spawn(|| {});\n", &ctx);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn x1_checked_module_is_clean() {
        let ctx = FileContext {
            app: true,
            ..Default::default()
        };
        let racy = "post_shim.write(EU, key, body, lin).await;\n";
        let f = lint_source("f.rs", racy, &ctx);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UncheckedXcyWrite);
        let checked = format!("{racy}ap.barrier(&lin, US).await;\n");
        assert!(lint_source("f.rs", &checked, &ctx).is_empty());
    }

    #[test]
    fn x2_fires_only_in_unconfined_speculating_modules() {
        let ctx = FileContext {
            app: true,
            ..Default::default()
        };
        // A speculating module with a raw shim write (the `barrier_ap`
        // identifier also satisfies X1's checkpoint reachability,
        // isolating X2).
        let racy = "let spec = Speculator::new(barrier_ap, policy);\n\
                    feed_shim.write(US, key, body, lin).await;\n";
        let f = lint_source("f.rs", racy, &ctx);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::UnconfinedSpeculativeWrite);
        assert_eq!(f[0].line, 2);
        // Same module routed through a confinement buffer: clean.
        let confined = "let spec = Speculator::new(barrier_ap, policy);\n\
                        buf.confine_write(&feed_shim, US, key, body);\n";
        assert!(lint_source("f.rs", confined, &ctx).is_empty());
        // A non-speculating module with the same write only concerns X1.
        let plain = "ap.barrier(&lin, US).await;\nfeed_shim.write(US, key, body, lin).await;\n";
        assert!(lint_source("f.rs", plain, &ctx).is_empty());
    }

    #[test]
    fn x2_applies_to_deterministic_service_code_too() {
        let f = lint_source(
            "f.rs",
            "let s = Speculator::new(ap, policy);\nnotif_shim.publish(US, payload, lin).await;\n",
            &det(),
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::UnconfinedSpeculativeWrite);
    }

    #[test]
    fn s1_fires_on_scheduler_collection_mutation_outside_the_api() {
        for src in [
            "let next = ready_queue.pop_front();\n",
            "runnable.swap_remove(i);\n",
            "self.tasks.sort_by(|a, b| a.cmp(b));\n",
            "let w = waiters.pop();\n",
        ] {
            let f = lint_source("f.rs", src, &det());
            assert_eq!(f.len(), 1, "{src:?}: {f:#?}");
            assert_eq!(f[0].rule, Rule::SchedulerBypass, "{src:?}");
        }
    }

    #[test]
    fn s1_exempts_the_schedule_api_home_and_plain_collections() {
        let exempt = FileContext {
            deterministic: true,
            scheduler_api: true,
            ..Default::default()
        };
        assert!(lint_source("f.rs", "let next = ready_queue.pop_front();\n", &exempt).is_empty());
        // Collections without a scheduler-ish name are not S1's business.
        assert!(lint_source("f.rs", "let top = stack.pop();\nitems.sort();\n", &det()).is_empty());
        // Outside deterministic crates the rule is off entirely.
        let plain = FileContext::default();
        assert!(lint_source("f.rs", "ready_queue.pop_front();\n", &plain).is_empty());
    }

    #[test]
    fn w1_fires_on_raw_wal_byte_reads_outside_the_codec() {
        for src in [
            "let b = self.wal.bytes[off];\n",
            "for b in wal_bytes.iter() {\n",
            "for frame in wal_buf.chunks(8) {\n",
            "let (head, tail) = wal_slice.split_at(mid);\n",
            "let raw = state.wal.as_bytes();\n",
            "let first = wal.first();\n",
            "let tail = replica_wal.last();\n",
        ] {
            let f = lint_source("f.rs", src, &det());
            assert_eq!(f.len(), 1, "{src:?}: {f:#?}");
            assert_eq!(f[0].rule, Rule::UncheckedWalRead, "{src:?}");
        }
    }

    #[test]
    fn w1_exempts_the_codec_bookkeeping_and_verified_scans() {
        // The codec module itself is the one place allowed to touch bytes.
        let codec = FileContext {
            deterministic: true,
            wal_codec: true,
            ..Default::default()
        };
        assert!(lint_source("f.rs", "let b = self.bytes[at];\n", &codec).is_empty());
        assert!(lint_source("f.rs", "let b = wal_bytes[at];\n", &codec).is_empty());
        // Verified scans, appends, and WAL bookkeeping are the sanctioned
        // surface — none of them read raw bytes.
        for src in [
            "let scan = state.wal.scan(verify);\n",
            "let framed = self.wal.append(&entry);\n",
            "state.wal.rebuild(entries.iter());\n",
            "assert_eq!(store.wal_len(EU), 3);\n",
            "self.wal_index.entry(key);\n",
            "let n = state.wal.len();\n",
            "queue.push(item);\n",
        ] {
            assert!(
                lint_source("f.rs", src, &det()).is_empty(),
                "{src:?} must not fire W1"
            );
        }
        // Non-WAL buffers index freely.
        assert!(lint_source("f.rs", "let b = buf[off];\n", &det()).is_empty());
        // Outside deterministic crates the rule is off entirely.
        let plain = FileContext::default();
        assert!(lint_source("f.rs", "let b = wal_bytes[off];\n", &plain).is_empty());
    }

    #[test]
    fn x1_ignores_non_shim_receivers() {
        let ctx = FileContext {
            app: true,
            ..Default::default()
        };
        assert!(lint_source("f.rs", "file.write(buf);\nqueue.publish(m);\n", &ctx).is_empty());
    }
}
