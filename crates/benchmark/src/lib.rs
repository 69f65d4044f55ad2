//! # antipode-benchmark
//!
//! The repo benchmark: what a simulated request costs in *host* seconds and
//! bytes, and what it yields in *virtual* time (latency, throughput,
//! consistency window, XCY violations), on five workloads — with a traced
//! run that attributes the host cost to the workspace's layers from outside.
//!
//! `README.md` in this directory defines every metric, says why each
//! workload exists and lists the public functions the benchmark calls.
//! `run.sh` is the one command; `BENCHMARK.json` at the repository root is
//! the contract the driver checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod compare;
pub mod driver;
pub mod harness;
pub mod host;
pub mod json;
pub mod metrics;
pub mod outcome;
pub mod social_twin;
pub mod trace;
pub mod trace_rpc;
pub mod train_twin;
pub mod workloads;
