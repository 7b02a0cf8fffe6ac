//! Latency statistics.
//!
//! [`LatencyStats`] keeps every sample (the experiments here run at most a
//! few million operations per cell, so exact percentiles are affordable and
//! simpler to reason about than a sketch). [`Summary`] is the paper's Table 3
//! row shape: mean / P25 / P50 / P75 / P99 / max.

use crate::clock::Nanos;

/// Exact-sample latency collector.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Nanos>,
    sorted: bool,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, v: Nanos) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0.0..=100.0) using nearest-rank. Returns 0 when
    /// empty.
    pub fn percentile(&mut self, p: f64) -> Nanos {
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Arithmetic mean. Returns 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> Nanos {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> Nanos {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Produce the Table 3 row shape.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.len() as u64,
            mean: self.mean(),
            p25: self.percentile(25.0),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            p99: self.percentile(99.0),
            max: self.max(),
        }
    }
}

/// Latency distribution summary: the row shape of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean: f64,
    /// 25th percentile.
    pub p25: Nanos,
    /// Median.
    pub p50: Nanos,
    /// 75th percentile.
    pub p75: Nanos,
    /// 99th percentile.
    pub p99: Nanos,
    /// Maximum.
    pub max: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::new();
        for v in 1..=100 {
            s.record(v);
        }
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(1.0), 1);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample() {
        let mut s = LatencyStats::new();
        s.record(42);
        assert_eq!(s.percentile(0.1), 42);
        assert_eq!(s.percentile(99.9), 42);
        let sum = s.summary();
        assert_eq!(sum.count, 1);
        assert_eq!(sum.p50, 42);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = LatencyStats::new();
        for v in [5u64, 1, 9, 3, 7, 2, 8, 4, 6] {
            s.record(v * 1000);
        }
        let sum = s.summary();
        assert!(sum.p25 <= sum.p50 && sum.p50 <= sum.p75 && sum.p75 <= sum.p99);
        assert!(sum.p99 <= sum.max);
    }
}
