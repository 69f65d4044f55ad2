//! Everything that observes the host: the wall clock and `/proc/self`.
//!
//! This is the only module of the crate that names the standard library's
//! clocks, so the `antipode-lint` wall-clock waivers live here and nowhere
//! else. Memory and CPU accounting read `/proc/self/{status,stat}` instead of
//! calling `getrusage`, which keeps the crate free of `unsafe`.

use std::fs;
use std::sync::OnceLock;
// lint: allow(wall-clock, the benchmark measures host time; every other module goes through host_ns/unix_ns)
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// lint: allow(wall-clock, process-local epoch for host_ns)
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic host nanoseconds since the first call in this process.
#[inline]
pub fn host_ns() -> u64 {
    // lint: allow(wall-clock, the one monotonic clock read of the crate)
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds since the Unix epoch: comparable between the harness and the
/// children it spawns, which is how set-up time includes process start.
pub fn unix_ns() -> u128 {
    // lint: allow(wall-clock, cross-process timestamp for setup_s)
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// Memory and CPU accounting of this process, from `/proc/self`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcStats {
    /// Peak resident set (`VmHWM`), bytes.
    pub peak_rss_bytes: u64,
    /// Current resident set (`VmRSS`), bytes.
    pub rss_bytes: u64,
    /// User CPU seconds.
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s (`USER_HZ`) on
/// every architecture.
const TICKS_PER_S: f64 = 100.0;

/// Reads the accounting; fields the kernel does not expose stay zero.
pub fn proc_stats() -> ProcStats {
    let mut out = ProcStats::default();
    if let Ok(status) = fs::read_to_string("/proc/self/status") {
        let kb = |key: &str| -> u64 {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0)
        };
        out.peak_rss_bytes = kb("VmHWM:") * 1024;
        out.rss_bytes = kb("VmRSS:") * 1024;
    }
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // The command name (field 2) may hold spaces; fields are counted
        // from the closing parenthesis. minflt, utime and stime are fields
        // 10, 14 and 15 of the whole line.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            out.minor_faults = num(7);
            out.user_s = num(11) as f64 / TICKS_PER_S;
            out.sys_s = num(12) as f64 / TICKS_PER_S;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_proc_is_readable() {
        let a = host_ns();
        let v: Vec<u64> = (0..100_000).collect();
        assert!(std::hint::black_box(v).len() == 100_000);
        assert!(host_ns() > a);
        assert!(unix_ns() > 1_600_000_000_000_000_000);
        let p = proc_stats();
        assert!(p.peak_rss_bytes >= p.rss_bytes && p.rss_bytes > 0, "{p:?}");
    }
}
