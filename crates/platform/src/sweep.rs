//! Parallel sweep engine: fan independent grid points out over a
//! scoped-thread worker pool, merge results in deterministic grid order.
//!
//! Every (rate × payload × policy × seed) point in a load sweep is an
//! independent virtual-time simulation: it owns its clock, its
//! [`SchedResources`](roadrunner_vkernel::SchedResources), its data
//! plane. Cores are therefore pure headroom — the only thing a worker
//! pool must preserve is *output order*. This module guarantees it
//! structurally: results land in a slot indexed by the job's grid
//! position, so the merged vector is identical whatever the completion
//! interleaving. Combined with per-worker resource construction (no
//! shared mutable simulation state), parallel output is byte-identical
//! to the serial loop — a property the test harness
//! (`tests/sweep_determinism.rs`, `crates/bench/tests/sweep_golden.rs`)
//! proves rather than assumes.
//!
//! One worker is the serial loop: the jobs run inline, in order, on the
//! calling thread.
//!
//! ```
//! use roadrunner_platform::sweep::parallel_map;
//!
//! let jobs: Vec<u64> = (0..8).collect();
//! let serial = parallel_map(&jobs, 1, |_, &j| j * j);
//! let parallel = parallel_map(&jobs, 4, |_, &j| j * j);
//! assert_eq!(serial, parallel);
//! ```

use parking_lot::Mutex;

/// Number of cores the OS reports as available to this process
/// (`std::thread::available_parallelism`), falling back to 1.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` over every job and returns the results **in job order**,
/// regardless of completion order.
///
/// `workers` is clamped to `[1, jobs.len()]`; with one worker (or one
/// job) no threads are spawned and the jobs run inline, serially. With
/// more, `std::thread::scope` workers pull job indices from a shared
/// counter and deposit each result into the slot for its index — the
/// merge is positional, so scheduling nondeterminism cannot reorder
/// output. An empty job list yields an empty vector (never panics).
///
/// Panics in `f` propagate when the scope joins, as with any scoped
/// thread.
pub fn parallel_map<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let next = Mutex::new(0usize);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = {
                    let mut guard = next.lock();
                    let i = *guard;
                    if i >= n {
                        break;
                    }
                    *guard += 1;
                    i
                };
                let r = f(i, &jobs[i]);
                results.lock()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("worker pool completed every job"))
        .collect()
}

/// A declarative sweep grid: the cross product of offered rates,
/// payload sizes, placement policies and arrival seeds.
///
/// [`SweepGrid::points`] enumerates the product in a fixed canonical
/// order — policy (outermost), then payload, then rate, then seed
/// (innermost) — so the `seeds.len()` replicas of one experimental cell
/// are consecutive and [`chunk the result
/// vector`](SweepGrid::seeds_per_cell) directly into replication
/// groups. Any empty axis makes the whole grid empty: zero points, zero
/// results, never a panic or a NaN — the same contract an empty
/// [`LoadRun`](crate::loadgen::LoadRun) honors.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Offered-rate multipliers (interpretation is the caller's; the
    /// grid only enumerates them).
    pub rates: Vec<f64>,
    /// Payload sizes in bytes.
    pub payload_bytes: Vec<usize>,
    /// Placement-policy names.
    pub policies: Vec<String>,
    /// Arrival-process seeds — the replication axis.
    pub seeds: Vec<u64>,
}

/// One point of a [`SweepGrid`]: the axis values plus both the flat
/// job index and the per-axis indices, so workers can label output
/// without recomputing positions.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Flat index in canonical grid order (also the merge slot).
    pub index: usize,
    /// Offered-rate multiplier.
    pub rate: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Placement-policy name.
    pub policy: String,
    /// Arrival seed.
    pub seed: u64,
    /// Index into [`SweepGrid::policies`].
    pub policy_index: usize,
    /// Index into [`SweepGrid::payload_bytes`].
    pub payload_index: usize,
    /// Index into [`SweepGrid::rates`].
    pub rate_index: usize,
    /// Index into [`SweepGrid::seeds`].
    pub seed_index: usize,
}

impl SweepGrid {
    /// Total number of grid points (product of axis lengths; zero if
    /// any axis is empty).
    pub fn len(&self) -> usize {
        self.policies.len() * self.payload_bytes.len() * self.rates.len() * self.seeds.len()
    }

    /// Whether the grid has no points (at least one empty axis).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of consecutive points forming one experimental cell — the
    /// seed replicas of a (policy, payload, rate) combination.
    pub fn seeds_per_cell(&self) -> usize {
        self.seeds.len()
    }

    /// All grid points in canonical order: policy → payload → rate →
    /// seed, seed varying fastest.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(self.len());
        for (policy_index, policy) in self.policies.iter().enumerate() {
            for (payload_index, &payload_bytes) in self.payload_bytes.iter().enumerate() {
                for (rate_index, &rate) in self.rates.iter().enumerate() {
                    for (seed_index, &seed) in self.seeds.iter().enumerate() {
                        out.push(SweepPoint {
                            index: out.len(),
                            rate,
                            payload_bytes,
                            policy: policy.clone(),
                            seed,
                            policy_index,
                            payload_index,
                            rate_index,
                            seed_index,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Sweeps the grid: runs `run` at every point on up to `workers`
/// threads ([`parallel_map`]), returning results in canonical grid
/// order. An empty grid returns an empty vector without invoking `run`.
pub fn sweep<R, F>(grid: &SweepGrid, workers: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(&SweepPoint) -> R + Sync,
{
    parallel_map(&grid.points(), workers, |_, point| run(point))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            rates: vec![0.5, 1.0],
            payload_bytes: vec![1024, 65536],
            policies: vec!["locality".into(), "spread".into()],
            seeds: vec![1, 2, 3],
        }
    }

    #[test]
    fn points_enumerate_in_canonical_order() {
        let g = grid();
        let pts = g.points();
        assert_eq!(pts.len(), g.len());
        assert_eq!(g.len(), 2 * 2 * 2 * 3);
        assert_eq!(g.seeds_per_cell(), 3);
        // Seed varies fastest, then rate, then payload, then policy.
        assert_eq!((pts[0].policy.as_str(), pts[0].payload_bytes, pts[0].rate, pts[0].seed),
                   ("locality", 1024, 0.5, 1));
        assert_eq!(pts[1].seed, 2);
        assert_eq!(pts[2].seed, 3);
        assert_eq!(pts[3].rate, 1.0);
        assert_eq!(pts[6].payload_bytes, 65536);
        assert_eq!(pts[12].policy, "spread");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn empty_axis_yields_empty_grid_not_a_panic() {
        for empty in 0..4 {
            let mut g = grid();
            match empty {
                0 => g.rates.clear(),
                1 => g.payload_bytes.clear(),
                2 => g.policies.clear(),
                _ => g.seeds.clear(),
            }
            assert!(g.is_empty());
            assert_eq!(g.len(), 0);
            assert!(g.points().is_empty());
            let ran = Mutex::new(0usize);
            let results = sweep(&g, 4, |_| {
                *ran.lock() += 1;
            });
            assert!(results.is_empty());
            assert_eq!(*ran.lock(), 0, "run must not be invoked on an empty grid");
        }
    }

    #[test]
    fn parallel_matches_serial_across_worker_counts() {
        let g = grid();
        let run = |p: &SweepPoint| {
            format!("{}/{}/{}/{}/{}", p.index, p.policy, p.payload_bytes, p.rate, p.seed)
        };
        let serial = sweep(&g, 1, run);
        for workers in [2, 4, 32] {
            let parallel = sweep(&g, workers, run);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_is_positional_even_when_job_zero_finishes_last() {
        // Two workers: job 0 blocks until the final job signals it, so
        // it *must* complete last; the merged output is grid order
        // regardless.
        let jobs: Vec<usize> = (0..6).collect();
        let (done, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let out = parallel_map(&jobs, 2, |i, &j| {
            assert_eq!(i, j);
            if i == 0 {
                wait.lock().recv().unwrap();
            } else if i == jobs.len() - 1 {
                done.send(()).unwrap();
            }
            j * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn worker_counts_clamp_to_job_count() {
        let jobs = [1u64, 2, 3];
        assert_eq!(parallel_map(&jobs, 0, |_, &j| j + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(&jobs, 100, |_, &j| j + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map::<u64, u64, _>(&[], 4, |_, &j| j), Vec::<u64>::new());
    }

    /// One worker runs the jobs inline on the calling thread; four run
    /// them on the pool; the results agree.
    #[test]
    fn run_jobs_serial_and_parallel_agree() {
        let jobs: Vec<u64> = (0..17).collect();
        let caller = std::thread::current().id();
        let serial = parallel_map(&jobs, 1, |_, &j| {
            assert_eq!(std::thread::current().id(), caller, "one worker runs inline");
            j.wrapping_mul(2654435761)
        });
        let parallel = parallel_map(&jobs, 4, |_, &j| j.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
