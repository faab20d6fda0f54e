//! Open-loop arrival processes: deterministic release-time generators.

use roadrunner_vkernel::costmodel::round_ns;
use roadrunner_vkernel::Nanos;

/// The inter-arrival process of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Deterministic arrivals every `interval_ns`.
    Uniform {
        /// Fixed inter-arrival gap.
        interval_ns: Nanos,
    },
    /// Poisson arrivals (exponential inter-arrival times) with the given
    /// mean, generated from a deterministic seed so runs replay
    /// identically.
    Poisson {
        /// Mean inter-arrival gap.
        mean_interval_ns: Nanos,
        /// PRNG seed.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// The first `count` arrival times (non-decreasing, starting at 0).
    /// A time past the end of virtual time saturates at [`Nanos::MAX`].
    pub fn times(&self, count: usize) -> Vec<Nanos> {
        match *self {
            ArrivalProcess::Uniform { interval_ns } => {
                (0..count as u64).map(|i| i.saturating_mul(interval_ns)).collect()
            }
            ArrivalProcess::Poisson { mean_interval_ns, seed } => {
                let mut state = seed;
                let mut at: Nanos = 0;
                (0..count)
                    .map(|_| {
                        let release = at;
                        // Inverse-transform sampling of Exp(1/mean) from a
                        // splitmix64 uniform draw.
                        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        let gap = -(1.0 - u).ln() * mean_interval_ns as f64;
                        at = at.saturating_add(round_ns(gap));
                        release
                    })
                    .collect()
            }
        }
    }

    /// The same process re-seeded — the replication seam the sweep
    /// engine uses to run one grid cell under several arrival seeds.
    /// Uniform arrivals carry no randomness and are returned unchanged.
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            ArrivalProcess::Uniform { .. } => self,
            ArrivalProcess::Poisson { mean_interval_ns, .. } => {
                ArrivalProcess::Poisson { mean_interval_ns, seed }
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let times = ArrivalProcess::Uniform { interval_ns: 250 }.times(4);
        assert_eq!(times, vec![0, 250, 500, 750]);
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_near_their_mean() {
        let process = ArrivalProcess::Poisson { mean_interval_ns: 1_000_000, seed: 7 };
        let a = process.times(400);
        let b = process.times(400);
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a[399] as f64 / 399.0;
        assert!(
            (500_000.0..2_000_000.0).contains(&mean_gap),
            "empirical mean gap {mean_gap} too far from 1e6"
        );
        let other = ArrivalProcess::Poisson { mean_interval_ns: 1_000_000, seed: 8 }.times(400);
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn extreme_intervals_saturate_at_the_end_of_virtual_time() {
        for interval in [Nanos::MAX / 2, Nanos::MAX] {
            let processes = [
                ArrivalProcess::Uniform { interval_ns: interval },
                ArrivalProcess::Poisson { mean_interval_ns: interval, seed: 7 },
            ];
            for process in processes {
                let times = process.times(64);
                assert_eq!(times[0], 0, "{process:?}");
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "{process:?}: {times:?}");
                assert_eq!(times[63], Nanos::MAX, "{process:?}");
            }
        }
    }
}
