//! Small statistics helpers shared by every workload: the percentile rule,
//! quartiles over the five segments, and the FNV-1a simulated fingerprint.

/// A percentile in parts per 100 000 (`P50` is 50 000), so ranks are exact
/// integers: `99.9 / 100.0 * 10_000.0` is not 9990 in floating point.
pub type Pct = u64;
/// The median.
pub const P50: Pct = 50_000;
/// p99.
pub const P99: Pct = 99_000;
/// p99.9.
pub const P999: Pct = 99_900;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: Pct) -> usize {
    (n as u64 * p).div_ceil(100_000) as usize
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: Pct) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p` among `n`.
pub fn samples_beyond(n: usize, p: Pct) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The percentile ladder the tail rule chooses from.
const TAIL_LADDER: [Pct; 5] = [99_999, 99_990, 99_900, 99_000, 90_000];

/// The percentile rule: the highest percentile of the ladder that still has
/// at least ten samples beyond its rank, with that count. `None` when even
/// p90 has fewer than ten samples beyond it (< 100 samples).
pub fn highest_supported_percentile(n: usize) -> Option<(Pct, usize)> {
    TAIL_LADDER.iter().find_map(|&p| {
        let beyond = samples_beyond(n, p);
        (beyond >= 10).then_some((p, beyond))
    })
}

/// `(q1, median, q3)` of a small sample by linear interpolation (the
/// "inclusive" method): used for the five per-segment host rates.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of a small sample (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Streaming 64-bit FNV-1a over every simulated counter and latency sample
/// of a run: two runs with the same fingerprint produced the same simulated
/// output, so a host-only change can state "simulated output identical".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Fold one 64-bit value in, byte by byte.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a slice of values in.
    pub fn add_all(&mut self, vs: &[u64]) {
        for &v in vs {
            self.add(v);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 10_000 samples: p99.9 has exactly 10 beyond, p99.99 only 1.
        assert_eq!(highest_supported_percentile(10_000), Some((P999, 10)));
        // One fewer sample drops p99.9 to 9 beyond: fall back to p99.
        assert_eq!(highest_supported_percentile(9_999), Some((99_000, 99)));
        assert_eq!(highest_supported_percentile(1_000_000), Some((99_999, 10)));
        assert_eq!(highest_supported_percentile(100), Some((90_000, 10)));
        assert_eq!(highest_supported_percentile(99), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, P50), 500);
        assert_eq!(percentile(&v, P999), 999);
        assert_eq!(samples_beyond(v.len(), 99_000), 10);
        assert_eq!(percentile(&[], P50), 0);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, m, q3) = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn fingerprint_depends_on_every_value_and_order() {
        let mut a = Fingerprint::default();
        a.add_all(&[1, 2, 3]);
        let mut b = Fingerprint::default();
        b.add_all(&[1, 3, 2]);
        let mut c = Fingerprint::default();
        c.add_all(&[1, 2, 3]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
