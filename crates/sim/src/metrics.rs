//! Measurement utilities for experiments: exact sample sets and summary
//! statistics with percentiles.

use std::fmt;
use std::time::Duration;

/// An exact collection of latency samples (seconds). Percentiles are computed
/// by sorting; suitable for the ≤ millions of samples our experiments record.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one value (seconds).
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Records a duration.
    pub fn record_duration(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64());
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Raw access to the recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Computes the summary statistics. Returns `None` when empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let pct = |p: f64| -> f64 {
            let idx = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
            sorted[idx.min(n - 1)]
        };
        let sum: f64 = sorted.iter().sum();
        Some(Summary {
            count: n,
            mean: sum / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p50: pct(50.0),
            p90: pct(90.0),
            p95: pct(95.0),
            p99: pct(99.0),
        })
    }

    /// Empirical CDF evaluated at `x`: the fraction of samples `<= x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let c = self.values.iter().filter(|&&v| v <= x).count();
        c as f64 / self.values.len() as f64
    }
}

/// Summary statistics over a sample set (units follow the samples).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Counts successes and failures of a repeated check, e.g. XCY violations.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateCounter {
    hits: u64,
    total: u64,
}

impl RateCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of positive observations.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of positive observations (0 when empty).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Rate as a percentage.
    pub fn percent(&self) -> f64 {
        self.rate() * 100.0
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: RateCounter) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_summary_basics() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        let sum = s.summary().unwrap();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.mean, 3.0);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.p50, 3.0);
    }

    #[test]
    fn samples_empty_summary_is_none() {
        assert!(Samples::new().summary().is_none());
    }

    #[test]
    fn samples_cdf() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.cdf_at(0.5), 0.0);
        assert_eq!(s.cdf_at(2.0), 0.5);
        assert_eq!(s.cdf_at(10.0), 1.0);
    }

    #[test]
    fn samples_merge() {
        let mut a = Samples::new();
        a.record(1.0);
        let mut b = Samples::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.summary().unwrap().mean, 2.0);
    }

    #[test]
    fn rate_counter() {
        let mut r = RateCounter::new();
        for i in 0..10 {
            r.record(i < 3);
        }
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 10);
        assert!((r.percent() - 30.0).abs() < 1e-9);
        let mut r2 = RateCounter::new();
        r2.record(true);
        r.merge(r2);
        assert_eq!(r.hits(), 4);
        assert_eq!(r.total(), 11);
    }

    #[test]
    fn rate_counter_empty() {
        assert_eq!(RateCounter::new().rate(), 0.0);
    }
}
