//! Writes the engine-plane perf baseline to `BENCH_engine.json`.
//!
//! Usage: `engine_baseline [seed] [output-path]`. The default seed is fixed
//! so CI runs and the committed artifact describe the same workload; the
//! `deterministic` section of the output is identical across machines, the
//! `timing` section is not.

use antipode_bench::engine_perf;

const DEFAULT_SEED: u64 = 0xA471_90DE;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(DEFAULT_SEED);
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let baseline = engine_perf::run(seed);
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, format!("{json}\n")).expect("baseline file writes");

    let d = &baseline.deterministic;
    let t = &baseline.timing;
    println!("[artifact] {path}");
    println!(
        "deterministic: writes={} fanout_events={} send_entries={} applies={} wal={}B/{} appends max_batch={}",
        d.writes,
        d.fanout_events,
        d.send_entries,
        d.applies,
        d.wal_bytes,
        d.wal_appends,
        d.max_batch,
    );
    println!(
        "timing: hop={:.1}ns ({:.0} hops/s) commits/s={:.0} fanout_events/s={:.0} wal/commit={:.1}B crc/commit={:.1}ns avg_batch={:.1}",
        t.hop_ns,
        t.hop_ops_per_sec,
        t.commits_per_sec,
        t.fanout_events_per_sec,
        t.wal_bytes_per_commit,
        t.crc_ns_per_commit,
        t.avg_batch,
    );
}
