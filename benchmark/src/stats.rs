//! Exact-sample order statistics and the stdout digest.
//!
//! Every timing the benchmark reports is picked from the samples it
//! took — no buckets, no interpolation across bucket bounds — so a row
//! can resolve a change of a few percent.

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// `beyond` samples above its rank among `n` samples; the median when
/// none has.
pub fn highest_percentile(n: usize, beyond: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| {
            let rank = (p * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= beyond
        })
        .unwrap_or(TAIL_LADDER[0])
}

/// Five-number summary of one row's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: median_sorted(&s),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// A summary of one value (counts, ratios derived once per run).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

/// Median of an ascending slice (mean of the middle pair when even).
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// FNV-1a 64 over `bytes`: the digest two outputs are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64, for digesting a directory tree file by file.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_exact_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.50), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        // Never interpolates: the answer is always one of the samples.
        let odd = [1.0, 10.0, 100.0];
        assert_eq!(quantile(&odd, 0.5), 10.0);
        assert_eq!(quantile(&odd, 0.67), 100.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 16,000 samples: 16 beyond p99.9.
        assert_eq!(highest_percentile(16_000, 10), 0.999);
        // 5,600 samples: 5 beyond p99.9, 56 beyond p99.
        assert_eq!(highest_percentile(5_600, 10), 0.99);
        // 1,000 samples: exactly 10 beyond p99.
        assert_eq!(highest_percentile(1_000, 10), 0.99);
        assert_eq!(highest_percentile(999, 10), 0.90);
        // 100 samples: 10 beyond p90; 99 samples: 9 beyond (rank 90).
        assert_eq!(highest_percentile(100, 10), 0.90);
        assert_eq!(highest_percentile(99, 10), 0.50);
        // Too few for any tail: fall back to the median.
        assert_eq!(highest_percentile(12, 10), 0.50);
        assert_eq!(highest_percentile(0, 10), 0.50);
    }

    #[test]
    fn summary_orders_samples() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        let one = Summary::single(7.0);
        assert_eq!((one.n, one.min, one.median, one.max), (1, 7.0, 7.0, 7.0));
    }

    #[test]
    fn digest_separates_outputs_and_matches_incremental() {
        let a = b"compromised devices: 26881";
        let b = b"compromised devices: 26882";
        assert_eq!(digest(a), digest(a));
        assert_ne!(digest(a), digest(b));
        assert_ne!(digest(b""), digest(b"\0"));
        let mut h = Fnv1a::default();
        h.update(&a[..5]);
        h.update(&a[5..]);
        assert_eq!(h.finish(), digest(a));
    }
}
