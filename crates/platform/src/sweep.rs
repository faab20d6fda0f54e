//! Parallel sweep engine: fan a figure's independent jobs out over a
//! scoped-thread worker pool, merge results in job order.
//!
//! Every job in a load sweep — say one (policy, payload, rate, seed)
//! cell — is an independent virtual-time simulation: it owns its clock,
//! its [`SchedResources`](roadrunner_vkernel::SchedResources), its data
//! plane. Cores are therefore pure headroom — the only thing a worker
//! pool must preserve is *output order*. This module guarantees it
//! structurally: results land in a slot indexed by the job's position
//! in the list, so the merged vector is identical whatever the completion
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_across_worker_counts() {
        // Policy → payload → rate → seed, seeds innermost: the order a
        // figure lists its jobs in.
        let mut jobs = Vec::new();
        for policy in ["locality", "spread"] {
            for payload in [1024usize, 65536] {
                for rate in [0.5, 1.0] {
                    for seed in [1u64, 2, 3] {
                        jobs.push((policy, payload, rate, seed));
                    }
                }
            }
        }
        let run = |i: usize, &(policy, payload, rate, seed): &(&str, usize, f64, u64)| {
            format!("{i}/{policy}/{payload}/{rate}/{seed}")
        };
        let serial = parallel_map(&jobs, 1, run);
        for workers in [2, 4, 32] {
            let parallel = parallel_map(&jobs, workers, run);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_is_positional_even_when_job_zero_finishes_last() {
        // Two workers: job 0 blocks until the final job signals it, so
        // it *must* complete last; the merged output is job order
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
