//! The harness arithmetic: medians, percentiles with the
//! ten-samples-beyond rule, bound comparison, and the small deterministic
//! generators (FNV digest, splitmix64) every workload shares.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted floats.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten of
/// `n` samples beyond it — the percentile a timing may honestly report.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [(0.999, 1_000), (0.99, 100), (0.9, 10), (0.5, 2)]
        .into_iter()
        .find(|&(_, one_in)| n / one_in >= 10)
        .map(|(q, _)| q)
}

/// Share of `parent` by which `child` is worse (negative when better).
pub fn worsening(parent: f64, child: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return if child == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (child - parent) / parent.abs(),
        Better::Higher => (parent - child) / parent.abs(),
    }
}

/// Whether `child` is worse than `parent` by more than `bound` (a share
/// of the parent) **and** by more than `abs_floor` in the metric's own
/// unit. The floor keeps a few milliseconds of scheduler noise on a
/// 50 ms set-up from reading as a 10 % regression.
pub fn breaches(parent: f64, child: f64, better: Better, bound: f64, abs_floor: f64) -> bool {
    let abs = match better {
        Better::Lower => child - parent,
        Better::Higher => parent - child,
    };
    worsening(parent, child, better) > bound && abs > abs_floor
}

/// FNV-1a over 64-bit words: the digest of a workload's virtual outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always generates the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_batches_ignores_one_slow_batch() {
        // 30 equal batches, one preempted: the median does not move.
        let mut batches = vec![0.100; 30];
        batches[7] = 0.450;
        assert_eq!(median(&batches), 0.100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn bound_comparison_honours_the_absolute_floor() {
        // 50 ms -> 58 ms is +16 %, but only 8 ms: under a 20 ms floor.
        assert!(!breaches(0.050, 0.058, Better::Lower, 0.10, 0.020));
        // 500 ms -> 580 ms is +16 % and 80 ms: a breach.
        assert!(breaches(0.500, 0.580, Better::Lower, 0.10, 0.020));
        // Within the relative bound: never a breach.
        assert!(!breaches(0.500, 0.540, Better::Lower, 0.10, 0.0));
        // An exact metric (bound 0) breaches on any worsening.
        assert!(breaches(10.0, 10.000001, Better::Lower, 0.0, 0.0));
        assert!(!breaches(10.0, 10.0, Better::Lower, 0.0, 0.0));
        assert!(!breaches(10.0, 9.0, Better::Lower, 0.0, 0.0));
        assert!(breaches(100.0, 80.0, Better::Higher, 0.10, 0.0));
    }

    #[test]
    fn generators_are_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() < 1.0);
        assert!(Rng::new(1).next_u64() != Rng::new(2).next_u64());
        let mut f = Fnv::default();
        f.write(1);
        let mut g = Fnv::default();
        g.write(2);
        assert_ne!(f, g);
    }
}
