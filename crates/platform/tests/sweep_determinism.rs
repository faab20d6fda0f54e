//! The archetype test of the parallel sweep engine: for arbitrary small
//! job lists — random forward-DAG workflow shapes, payload sizes and
//! fills, placement policies, 1–4 arrival seeds — the parallel sweep's
//! merged, serialized results must be **byte-identical** to the serial
//! loop's (one worker), at 2 and 4 workers.
//!
//! Each job runs a real `loadgen` open-loop simulation against
//! its own deterministic data plane, scheduler resources and
//! placement policy, all constructed inside the job — the same
//! isolation discipline the fig12/fig13 sweeps follow. Serialization
//! captures every outcome field (virtual times, assignments) plus the
//! run-level rates with exact f64 bit patterns, so any divergence —
//! reordering, cross-thread state bleed, nondeterministic float
//! accumulation — flips bytes.

use std::collections::HashSet;

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_platform::{
    loadgen, parallel_map, AdmissionConfig, ArrivalProcess, Cluster, Controls, DataPlane, LoadRun,
    LocalityFirst, MultiLoad, PackThenSpill, PlacementPolicy, PlatformError, SpreadLoad,
    TenantLoad, TransferTiming, WorkflowDag, WorkflowSpec,
};
use roadrunner_vkernel::SchedResources;

/// Splitmix-style generator so graph shapes derive deterministically
/// from the proptest-provided seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Builds a random *forward* DAG of `n` nodes (connected and acyclic by
/// construction), plus up to `extra` additional forward edges.
fn forward_dag(n: usize, extra: usize, seed: u64) -> WorkflowDag {
    let mut rng = Mix(seed);
    let mut dag = WorkflowDag::new();
    let name = |i: usize| format!("f{i}");
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    for j in 1..n {
        let i = rng.below(j as u64) as usize;
        dag.add_edge(name(i), name(j));
        present.insert((i, j));
    }
    for _ in 0..extra {
        let j = 1 + rng.below((n - 1) as u64) as usize;
        let i = rng.below(j as u64) as usize;
        if present.insert((i, j)) {
            dag.add_edge(name(i), name(j));
        }
    }
    dag
}

/// A deterministic plane whose per-edge costs depend on the endpoints
/// and the payload content, so distinct jobs produce distinct
/// virtual-time trajectories.
struct KeyedPlane;

impl KeyedPlane {
    fn key(from: &str, to: &str, payload: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(from.as_bytes());
        eat(to.as_bytes());
        eat(payload);
        h
    }
}

impl DataPlane for KeyedPlane {
    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, TransferTiming), PlatformError> {
        let key = Self::key(from, to, &payload);
        let timing = TransferTiming {
            prepare_ns: 100 + key % 400,
            transfer_ns: 1_000 + payload.len() as u64 + key % 1_000,
            consume_ns: 50 + key % 200,
        };
        Ok((payload, timing))
    }
}

const POLICIES: [&str; 3] = ["locality", "spread", "pack_spill"];

fn policy_of(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        "spread" => Box::new(SpreadLoad::new()),
        _ => Box::new(PackThenSpill::new(5_000)),
    }
}

/// One job of the sweep: a (policy, payload, rate, seed) cell.
struct Job {
    policy: &'static str,
    payload_bytes: usize,
    rate: f64,
    seed: u64,
}

/// The jobs in the figures' order: policy → payload → rate → seed,
/// seeds innermost.
fn jobs(policies: &[&'static str], payloads: &[usize], rates: &[f64], seeds: &[u64]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &policy in policies {
        for &payload_bytes in payloads {
            for &rate in rates {
                for &seed in seeds {
                    jobs.push(Job { policy, payload_bytes, rate, seed });
                }
            }
        }
    }
    jobs
}

/// Serializes a run with exact bit patterns: any divergence between
/// serial and parallel execution flips bytes here.
fn serialize_run(index: usize, job: &Job, run: &LoadRun) -> String {
    let outcomes: Vec<String> = run
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}:{}:{}:{}:{}:{}:{:?}",
                o.instance, o.user, o.release_ns, o.finish_ns, o.sojourn_ns, o.cold_start_ns,
                o.assignment,
            )
        })
        .collect();
    format!(
        "[{} {} {} {} seed={}] horizon={} cpu={:016x} link={:016x} {}",
        index,
        job.policy,
        job.payload_bytes,
        job.rate,
        job.seed,
        run.horizon_ns,
        run.cpu_utilization.to_bits(),
        run.link_utilization.to_bits(),
        outcomes.join(";"),
    )
}

/// One job's simulation, fully self-contained.
fn run_job(index: usize, job: &Job, dag_seed: u64, fill: u8) -> String {
    let nodes = 3 + (dag_seed % 3) as usize;
    let extra = (dag_seed % 4) as usize;
    let dag = forward_dag(nodes, extra, dag_seed);
    let spec = WorkflowSpec::from_dag("sweep-prop", "t", dag);
    let mut resources = SchedResources::new(3, 2);
    let mut policy = policy_of(job.policy);
    let arrivals = ArrivalProcess::Poisson {
        mean_interval_ns: (2_000.0 * job.rate).round() as u64,
        seed: job.seed,
    };
    let payload = Bytes::from(vec![fill; job.payload_bytes]);
    let tenant = TenantLoad::from_process("t", spec, payload, &arrivals, 5);
    let load = MultiLoad { tenants: vec![tenant], admission: AdmissionConfig::warm() };
    let cluster =
        Cluster { plane: &mut KeyedPlane, resources: &mut resources, policy: policy.as_mut() };
    let run = loadgen::run(&load, cluster, Controls::default()).expect("run");
    serialize_run(index, job, &run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel ≡ serial, byte for byte, for arbitrary small job lists
    /// at 2 and 4 workers against 1.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        dag_seed in any::<u64>(),
        fill in any::<u8>(),
        rate_picks in proptest::collection::vec(1u64..=8, 1..=2),
        payload_picks in proptest::collection::vec(6u32..=12, 1..=2),
        policy_picks in proptest::collection::vec(0usize..POLICIES.len(), 1..=2),
        seeds in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        let policies: Vec<&str> = policy_picks.iter().map(|&i| POLICIES[i]).collect();
        let payloads: Vec<usize> = payload_picks.iter().map(|&p| 1usize << p).collect();
        let rates: Vec<f64> = rate_picks.iter().map(|&r| r as f64 / 2.0).collect();
        let jobs = jobs(&policies, &payloads, &rates, &seeds);
        let run = |i: usize, job: &Job| run_job(i, job, dag_seed, fill);
        let serial = parallel_map(&jobs, 1, run);
        prop_assert_eq!(serial.len(), jobs.len());
        for workers in [2usize, 4] {
            let parallel = parallel_map(&jobs, workers, run);
            prop_assert_eq!(&serial, &parallel, "workers={}", workers);
        }
        // The merged strings carry their job index: verify order.
        for (i, s) in serial.iter().enumerate() {
            prop_assert!(s.starts_with(&format!("[{i} ")), "slot {} holds {}", i, s);
        }
    }
}

#[test]
fn empty_axes_yield_empty_results_under_every_mode() {
    for workers in [1, 4] {
        let jobs = jobs(&["locality"], &[64], &[1.0], &[]);
        assert!(jobs.is_empty());
        assert!(parallel_map(&jobs, workers, |i, job| run_job(i, job, 7, 0xAB)).is_empty());
    }
}
