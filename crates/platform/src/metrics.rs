//! Latency percentiles for load runs: the exact nearest-rank digest
//! every run and tenant reports, its multi-seed [`Replicated`] rollup
//! with order-statistic confidence intervals, and the P² streaming
//! estimator the benchmark package still times.

use roadrunner_vkernel::Nanos;

/// Latency percentile digest over a set of observations — the
/// tail-latency view the load experiments report (p50/p95/p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Number of observations.
    pub count: usize,
    /// Mean latency.
    pub mean_ns: f64,
    /// Minimum latency.
    pub min_ns: Nanos,
    /// Median (nearest-rank).
    pub p50_ns: Nanos,
    /// 95th percentile (nearest-rank).
    pub p95_ns: Nanos,
    /// 99th percentile (nearest-rank).
    pub p99_ns: Nanos,
    /// Maximum latency.
    pub max_ns: Nanos,
}

/// Nearest-rank percentile digest of `latencies`; `None` when empty.
///
/// Nearest-rank means the reported value is always an *observed*
/// latency: the ⌈q·N/100⌉-th smallest observation. Copies and sorts.
/// The mean sums in `u128`, so no sample of `Nanos` can overflow it.
pub fn percentiles(latencies: &[Nanos]) -> Option<PercentileSummary> {
    if latencies.is_empty() {
        return None;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let count = sorted.len();
    let rank = |q: usize| sorted[(count * q).div_ceil(100).max(1) - 1];
    Some(PercentileSummary {
        count,
        mean_ns: sorted.iter().map(|&ns| u128::from(ns)).sum::<u128>() as f64 / count as f64,
        min_ns: sorted[0],
        p50_ns: rank(50),
        p95_ns: rank(95),
        p99_ns: rank(99),
        max_ns: sorted[count - 1],
    })
}

/// One statistic replicated across seeds: the across-seed mean plus a
/// nearest-rank order-statistic confidence interval.
///
/// With `K` replicas the interval spans the `⌈0.025·K⌉`-th smallest to
/// the symmetric-from-the-top order statistic — a distribution-free
/// ~95% CI for the median of the replicated statistic. For the small
/// replica counts sweeps actually use (K ≤ 40) the ranks degenerate to
/// the first and last order statistics, i.e. the interval is exactly
/// `[min, max]`, which always brackets the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicatedStat {
    /// Mean of the statistic across replicas.
    pub mean: f64,
    /// Smallest replica value.
    pub min: f64,
    /// Largest replica value.
    pub max: f64,
    /// Lower confidence bound (an observed replica value).
    pub ci_lo: f64,
    /// Upper confidence bound (an observed replica value).
    pub ci_hi: f64,
}

impl ReplicatedStat {
    /// Replicates `values` (one per seed); `None` when empty. Sorting
    /// is by `f64::total_cmp`, so the result is invariant under any
    /// permutation of the replicas.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let k = sorted.len();
        // Symmetric order-statistic ranks: lo = ⌈0.025·K⌉ clamped to
        // ≥1, hi mirrored from the top. For K ≤ 40, lo = 1 and
        // hi = K — the interval is [min, max].
        let lo_rank = ((0.025 * k as f64).ceil() as usize).max(1);
        let hi_rank = k + 1 - lo_rank;
        Some(Self {
            mean: sorted.iter().sum::<f64>() / k as f64,
            min: sorted[0],
            max: sorted[k - 1],
            ci_lo: sorted[lo_rank - 1],
            ci_hi: sorted[hi_rank - 1],
        })
    }
}

/// A multi-seed replication of a latency digest: per-seed
/// [`PercentileSummary`] runs collapsed into across-seed
/// [`ReplicatedStat`]s for the mean and each tail percentile — the
/// "N runs, mean ± CI" row the figure tables report instead of a
/// single-seed point estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Replicated {
    /// Number of seed replicas collapsed.
    pub seeds: usize,
    /// Total observations across all replicas.
    pub count: usize,
    /// Across-seed replication of the per-run mean latency.
    pub mean_ns: ReplicatedStat,
    /// Across-seed replication of the per-run p50.
    pub p50_ns: ReplicatedStat,
    /// Across-seed replication of the per-run p95.
    pub p95_ns: ReplicatedStat,
    /// Across-seed replication of the per-run p99.
    pub p99_ns: ReplicatedStat,
    /// Across-seed replication of the per-run max.
    pub max_ns: ReplicatedStat,
}

/// Collapses per-seed digests into a [`Replicated`] summary; `None`
/// when `runs` is empty.
///
/// Permutation-invariant in the order of `runs` (every statistic is
/// reduced through a sort), and a single run degenerates exactly to
/// that run's digest: mean/min/max/ci_lo/ci_hi of each statistic all
/// equal the one observed value.
pub fn replicate(runs: &[PercentileSummary]) -> Option<Replicated> {
    if runs.is_empty() {
        return None;
    }
    let stat = |pick: fn(&PercentileSummary) -> f64| {
        let values: Vec<f64> = runs.iter().map(pick).collect();
        ReplicatedStat::from_values(&values).expect("runs is non-empty")
    };
    Some(Replicated {
        seeds: runs.len(),
        count: runs.iter().map(|r| r.count).sum(),
        mean_ns: stat(|r| r.mean_ns),
        p50_ns: stat(|r| r.p50_ns as f64),
        p95_ns: stat(|r| r.p95_ns as f64),
        p99_ns: stat(|r| r.p99_ns as f64),
        max_ns: stat(|r| r.max_ns as f64),
    })
}

/// Number of observations a [`StreamingPercentiles`] digest holds
/// exactly before switching to the P² estimators: below this the
/// summary equals the nearest-rank path bit for bit.
pub const STREAMING_EXACT_MAX: usize = 64;

/// One streaming quantile estimated with the P² algorithm (Jain &
/// Chlamtac, CACM 1985): five markers track the running quantile in O(1)
/// space and O(1) time per observation, no buffer, no sort.
///
/// Estimates are exact for the first five observations (the markers
/// *are* the sorted observations) and approximate after, with the
/// classic piecewise-parabolic marker adjustment.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    count: usize,
    /// Marker heights (estimated quantile values).
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
}

impl P2Quantile {
    /// An estimator for quantile `q` (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must lie strictly between 0 and 1");
        Self {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// The quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;
        // Find the marker cell the observation falls into, clamping the
        // extremes to the observed min/max.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            (0..4)
                .rev()
                .find(|&i| self.heights[i] <= x)
                .expect("x >= heights[0] here")
        };
        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers toward their desired
        // positions, parabolically when possible.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let ahead = self.positions[i + 1] - self.positions[i];
            let behind = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && ahead > 1.0) || (d <= -1.0 && behind < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] = if self.heights[i - 1] < candidate
                    && candidate < self.heights[i + 1]
                {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.positions[i] += s;
            }
        }
    }

    /// Piecewise-parabolic (P²) prediction of marker `i` moved by `s`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (h, p) = (&self.heights, &self.positions);
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabola would leave the bracket.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate; `None` before the first observation. Exact
    /// (an observed value) while fewer than five observations exist.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let mut sorted = self.heights[..n].to_vec();
                sorted.sort_by(f64::total_cmp);
                // Nearest-rank on the partial buffer.
                let rank = ((n as f64 * self.q).ceil() as usize).clamp(1, n);
                Some(sorted[rank - 1])
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// A constant-space streaming latency digest: exact nearest-rank up to
/// [`STREAMING_EXACT_MAX`] observations, then P² estimators for
/// p50/p95/p99.
///
/// Nothing in the platform records into it: every run and tenant
/// reports [`percentiles`] over its completed sojourns. It stays only
/// because the benchmark package times it as its
/// `platform.metrics.observe_ns` row.
///
/// The reported digest is always internally consistent: `min ≤ p50 ≤
/// p95 ≤ p99 ≤ max` (estimates are clamped into the observed range and
/// made monotone).
#[derive(Debug, Clone)]
pub struct StreamingPercentiles {
    /// Exact buffer while small; drained once the estimators take over.
    small: Vec<Nanos>,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    count: usize,
    min_ns: Nanos,
    max_ns: Nanos,
    sum: u128,
}

impl StreamingPercentiles {
    /// An empty digest.
    pub fn new() -> Self {
        Self {
            small: Vec::new(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            count: 0,
            min_ns: Nanos::MAX,
            max_ns: 0,
            sum: 0,
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: Nanos) {
        self.count += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.sum += u128::from(ns);
        if self.count <= STREAMING_EXACT_MAX {
            self.small.push(ns);
        } else if !self.small.is_empty() {
            // Crossing over: replay the exact buffer into the
            // estimators, then stream.
            for &v in &self.small {
                let x = v as f64;
                self.p50.record(x);
                self.p95.record(x);
                self.p99.record(x);
            }
            self.small = Vec::new();
        }
        if self.small.is_empty() {
            let x = ns as f64;
            self.p50.record(x);
            self.p95.record(x);
            self.p99.record(x);
        }
    }

    /// The digest so far; `None` before the first observation. Equals
    /// [`percentiles`] exactly while at most [`STREAMING_EXACT_MAX`]
    /// observations have been recorded.
    pub fn summary(&self) -> Option<PercentileSummary> {
        if self.count == 0 {
            return None;
        }
        if !self.small.is_empty() {
            return percentiles(&self.small);
        }
        let clamp = |est: Option<f64>| -> Nanos {
            let v = est.unwrap_or(0.0).round();
            (v.max(0.0) as Nanos).clamp(self.min_ns, self.max_ns)
        };
        let p50 = clamp(self.p50.estimate());
        let p95 = clamp(self.p95.estimate()).max(p50);
        let p99 = clamp(self.p99.estimate()).max(p95);
        Some(PercentileSummary {
            count: self.count,
            mean_ns: (self.sum as f64) / self.count as f64,
            min_ns: self.min_ns,
            p50_ns: p50,
            p95_ns: p95,
            p99_ns: p99,
            max_ns: self.max_ns,
        })
    }
}

impl Default for StreamingPercentiles {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        // 1..=100: pXX is exactly XX.
        let latencies: Vec<Nanos> = (1..=100).collect();
        let p = percentiles(&latencies).unwrap();
        assert_eq!(p.count, 100);
        assert_eq!(p.min_ns, 1);
        assert_eq!(p.p50_ns, 50);
        assert_eq!(p.p95_ns, 95);
        assert_eq!(p.p99_ns, 99);
        assert_eq!(p.max_ns, 100);
        assert_eq!(p.mean_ns, 50.5);
    }

    #[test]
    fn percentiles_are_observed_values_for_small_counts() {
        let p = percentiles(&[400, 100]).unwrap();
        assert_eq!(p.p50_ns, 100);
        assert_eq!(p.p95_ns, 400);
        assert_eq!(p.p99_ns, 400);
        let single = percentiles(&[7]).unwrap();
        assert_eq!((single.p50_ns, single.p95_ns, single.p99_ns), (7, 7, 7));
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn percentiles_mean_does_not_overflow_at_the_end_of_virtual_time() {
        let p = percentiles(&[Nanos::MAX, Nanos::MAX]).unwrap();
        assert_eq!(p.mean_ns, Nanos::MAX as f64);
        assert_eq!((p.min_ns, p.p99_ns, p.max_ns), (Nanos::MAX, Nanos::MAX, Nanos::MAX));
        assert_eq!(percentiles(&[Nanos::MAX, 1]).unwrap().mean_ns, (Nanos::MAX as f64 + 1.0) / 2.0);
    }

    #[test]
    fn streaming_digest_is_exact_below_the_buffer_threshold() {
        let mut digest = StreamingPercentiles::new();
        let values: Vec<Nanos> = (1..=STREAMING_EXACT_MAX as u64).rev().collect();
        for &v in &values {
            digest.record(v);
        }
        let stream = digest.summary().unwrap();
        let exact = percentiles(&values).unwrap();
        assert_eq!(stream, exact, "small-n digest must equal the nearest-rank path");
        assert!(StreamingPercentiles::new().summary().is_none());
    }

    #[test]
    fn streaming_digest_tracks_large_uniform_streams() {
        // 10_000 values 1..=10_000 in a scrambled deterministic order.
        let mut digest = StreamingPercentiles::new();
        let n: u64 = 10_000;
        let mut v: Vec<Nanos> = (1..=n).collect();
        let mut state = 0xDEADBEEFu64;
        for i in (1..v.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        for &x in &v {
            digest.record(x);
        }
        let s = digest.summary().unwrap();
        assert_eq!(s.count, 10_000);
        assert_eq!((s.min_ns, s.max_ns), (1, 10_000));
        assert_eq!(s.mean_ns, 5_000.5);
        let within = |got: Nanos, want: u64, tol: u64| {
            assert!(
                got.abs_diff(want) <= tol,
                "estimate {got} strays more than {tol} from {want}"
            );
        };
        within(s.p50_ns, 5_000, 250);
        within(s.p95_ns, 9_500, 250);
        within(s.p99_ns, 9_900, 150);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn streaming_digest_survives_constant_streams() {
        let mut digest = StreamingPercentiles::new();
        for _ in 0..500 {
            digest.record(42);
        }
        let s = digest.summary().unwrap();
        assert_eq!((s.min_ns, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (42, 42, 42, 42, 42));
    }

    #[test]
    fn p2_estimator_is_exact_for_tiny_streams() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        for v in [40.0, 10.0, 30.0] {
            p.record(v);
        }
        assert_eq!(p.count(), 3);
        assert_eq!(p.quantile(), 0.5);
        // Nearest-rank median of {10, 30, 40} is 30.
        assert_eq!(p.estimate(), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn p2_rejects_degenerate_quantiles() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn replicated_stat_small_k_interval_is_min_max() {
        let s = ReplicatedStat::from_values(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!(s.mean, 20.0);
        assert_eq!((s.min, s.max), (10.0, 30.0));
        assert_eq!((s.ci_lo, s.ci_hi), (10.0, 30.0));
        assert!(ReplicatedStat::from_values(&[]).is_none());
    }

    #[test]
    fn replicated_stat_large_k_trims_symmetric_tails() {
        // K = 100: lo rank = ⌈2.5⌉ = 3, hi rank = 98.
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = ReplicatedStat::from_values(&values).unwrap();
        assert_eq!((s.ci_lo, s.ci_hi), (3.0, 98.0));
        assert_eq!((s.min, s.max), (1.0, 100.0));
        assert!(s.ci_lo <= s.mean && s.mean <= s.ci_hi);
    }

    #[test]
    fn replicate_single_run_degenerates_to_the_digest() {
        let run = percentiles(&[10, 20, 30, 40]).unwrap();
        let rep = replicate(&[run]).unwrap();
        assert_eq!(rep.seeds, 1);
        assert_eq!(rep.count, run.count);
        for (stat, want) in [
            (rep.mean_ns, run.mean_ns),
            (rep.p50_ns, run.p50_ns as f64),
            (rep.p95_ns, run.p95_ns as f64),
            (rep.p99_ns, run.p99_ns as f64),
            (rep.max_ns, run.max_ns as f64),
        ] {
            assert_eq!(stat.mean, want);
            assert_eq!(stat.min, want);
            assert_eq!(stat.max, want);
            assert_eq!(stat.ci_lo, want);
            assert_eq!(stat.ci_hi, want);
        }
        assert!(replicate(&[]).is_none());
    }

    #[test]
    fn replicate_is_seed_order_invariant() {
        let runs: Vec<PercentileSummary> = [&[5u64, 9, 40][..], &[100, 200][..], &[7][..]]
            .iter()
            .map(|obs| percentiles(obs).unwrap())
            .collect();
        let forward = replicate(&runs).unwrap();
        let mut reversed = runs.clone();
        reversed.reverse();
        assert_eq!(forward, replicate(&reversed).unwrap());
        assert_eq!(forward.seeds, 3);
        assert_eq!(forward.count, 6);
        assert!(forward.p95_ns.ci_lo <= forward.p95_ns.mean);
        assert!(forward.p95_ns.mean <= forward.p95_ns.ci_hi);
    }
}
