//! # antipode-lint
//!
//! A determinism/XCY static-analysis pass for this workspace, run as a CI
//! gate (`cargo run -p antipode-lint`). The rules:
//!
//! - **D1** `nondeterministic-map` — no `HashMap`/`HashSet` in the
//!   deterministic crates (`sim`, `datastores`, `core`, `lineage`,
//!   `services`): their seeded iteration order leaks into simulation state
//!   and breaks replayability.
//! - **D2** `wall-clock` — no `std::time::Instant`/`SystemTime`,
//!   `thread::spawn`, or `thread_rng` outside `crates/bench`.
//! - **D3** `fault-path-unwrap` — no `unwrap()`/`expect()` in fault-path
//!   modules (`fault.rs`, `replica.rs`, `queue.rs`, `rpc.rs`, the engine
//!   and recovery-plane modules).
//! - **X1** `unchecked-xcy-write` — app code performing a cross-service
//!   shim write with no reachable `barrier`/checkpoint in the module.
//! - **X2** `unconfined-speculative-write` — a direct shim write in a
//!   module that speculates without a `ConfinementBuffer` to roll it back.
//! - **S1** `scheduler-bypass` — a pop/reorder of a scheduler-adjacent
//!   collection outside the Schedule API in `crates/sim`.
//! - **W1** `unchecked-wal-read` — a byte-level read of a WAL buffer
//!   outside the codec (`crates/datastores/src/wal.rs`); logged bytes are
//!   only read through the verified, CRC-checked scan.
//!
//! Violations can be waived in place with
//! `// lint: allow(<rule>, <reason>)` — on the flagged line or in the
//! comment block immediately above it. The scanner is a hand-rolled lexer
//! (no `syn`), so the crate is dependency-free and builds offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, FileContext, Finding, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "dev", "fixtures", "node_modules"];

/// Scans every `.rs` file under `root` (the workspace checkout) and returns
/// all findings, sorted by file then line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&file)?;
        let ctx = FileContext::classify(&rel);
        findings.extend(lint_source(&rel, &source, &ctx));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&&*name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
