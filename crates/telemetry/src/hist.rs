//! HDR-style log-bucketed latency histogram.
//!
//! Values are bucketed by power-of-two magnitude with [`SUB_BUCKETS`] linear
//! sub-buckets per magnitude, giving a worst-case relative quantile error of
//! `1/SUB_BUCKETS` (6.25%) while covering the full `u64` range in under a
//! thousand buckets. Values below [`SUB_BUCKETS`] are recorded exactly.

use simkit::Nanos;

use simkit::json::Writer;

/// log2 of the number of linear sub-buckets per power-of-two magnitude.
const SUB_BITS: u32 = 4;
/// Number of linear sub-buckets per power-of-two magnitude.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: values `0..16` exact, then 60 magnitudes × 16.
const NBUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + SUB_BUCKETS as usize;

/// Log-bucketed latency histogram with exact count/sum/min/max and
/// approximate (≤ 6.25% relative error) percentiles.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (exp - SUB_BITS + 1) as usize;
    let sub = ((v >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    (group << SUB_BITS) + sub
}

/// Largest value that falls into bucket `idx` (inclusive upper bound).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        return idx as u64;
    }
    let group = (idx >> SUB_BITS) as u32; // >= 1
    let exp = group - 1 + SUB_BITS;
    let sub = (idx as u64) & (SUB_BUCKETS - 1);
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + sub * width;
    low + (width - 1)
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; NBUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, v: Nanos) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: Nanos, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at percentile `p` in `[0, 100]`: the upper bound of the bucket
    /// containing the sample of that rank, clamped to the exact min/max.
    /// Monotone in `p`. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Non-empty buckets as `(index, count)` pairs.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// JSON object with summary fields plus the raw sparse bucket list, so
    /// the encoding is lossless.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.obj().key("count").num(self.count).key("sum").num(self.sum);
        w.key("min").num(self.min()).key("max").num(self.max);
        w.key("p50").num(self.p50()).key("p90").num(self.p90());
        w.key("p99").num(self.p99()).key("p999").num(self.p999());
        w.key("buckets").arr();
        for (idx, c) in self.buckets() {
            w.arr().num(idx).num(c).end();
        }
        w.end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        // Values 0..16 land in dedicated unit buckets: percentiles exact.
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.percentile(100.0), 15);
        // Rank of p50 over 16 samples is the 8th = value 7.
        assert_eq!(h.p50(), 7);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn boundary_values_zero_one_and_u64_max() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX as u128 + 1);
        // u64::MAX must land in the last bucket and come back intact.
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
        assert_eq!(bucket_high(NBUCKETS - 1), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        // Every probe value must map to a bucket whose [low, high] range
        // contains it, and bucket highs must be monotone in index.
        let probes: Vec<u64> = (0..64)
            .flat_map(|e| {
                let b = 1u64 << e;
                [b.saturating_sub(1), b, b.saturating_add(1), b.saturating_add(b / 3)]
            })
            .chain([0, 1, 2, 15, 16, 17, 100, 1000, u64::MAX])
            .collect();
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(
                bucket_high(idx) >= v,
                "value {v} above bucket {idx} high {}",
                bucket_high(idx)
            );
            if idx > 0 {
                assert!(bucket_high(idx - 1) < v, "value {v} not below bucket {}", idx - 1);
            }
        }
        for i in 1..NBUCKETS {
            assert!(bucket_high(i) > bucket_high(i - 1), "non-monotone at {i}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record((x >> 20) % (1 + i));
        }
        let mut prev = 0;
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p} = {v} < previous {prev}");
            assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        // All mass at one large value: every percentile must return a value
        // within one sub-bucket (6.25%) of it.
        let v = 123_456_789u64;
        for _ in 0..1000 {
            h.record(v);
        }
        for p in [1.0, 50.0, 99.0, 99.9] {
            let got = h.percentile(p);
            // Clamped to exact max here since all samples equal.
            assert_eq!(got, v);
        }
        // Two distinct values in the same magnitude stay distinguishable
        // when a sub-bucket apart.
        let mut h2 = Histogram::new();
        h2.record_n(1 << 20, 99);
        h2.record_n((1 << 20) + (1 << 17), 1); // one sub-bucket up
        assert!(h2.percentile(99.95) > h2.percentile(10.0));
    }
}
