//! The archetype test of the parallel sweep engine: for arbitrary small
//! grids — random forward-DAG workflow shapes, payload sizes and fills,
//! placement policies, 1–4 arrival seeds — the parallel sweep's merged,
//! serialized results must be **byte-identical** to the serial loop's
//! (one worker), at 2 and 4 workers.
//!
//! Each grid point runs a real `loadgen` open-loop simulation against
//! its own deterministic data plane, clock, scheduler resources and
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
    loadgen, sweep, AdmissionConfig, ArrivalProcess, Cluster, Controls, DataPlane, LoadRun,
    LocalityFirst, OpenLoop, PackThenSpill, PlacementPolicy, PlatformError, RoundRobin, SpreadLoad,
    SweepGrid, SweepPoint, TransferTiming, WorkflowDag, WorkflowSpec,
};
use roadrunner_vkernel::{SchedResources, VirtualClock};

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
/// and the payload content, so distinct grid points produce distinct
/// virtual-time trajectories.
struct KeyedPlane {
    clock: VirtualClock,
}

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
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let key = Self::key(from, to, &payload);
        let timing = TransferTiming {
            prepare_ns: 100 + key % 400,
            transfer_ns: 1_000 + payload.len() as u64 + key % 1_000,
            consume_ns: 50 + key % 200,
        };
        self.clock.advance(timing.total_ns());
        Ok((payload, Some(timing)))
    }
}

const POLICIES: [&str; 4] = ["locality", "spread", "round_robin", "pack_spill"];

fn policy_of(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        "spread" => Box::new(SpreadLoad::new()),
        "round_robin" => Box::new(RoundRobin::new()),
        _ => Box::new(PackThenSpill::new(5_000)),
    }
}

/// Serializes a run with exact bit patterns: any divergence between
/// serial and parallel execution flips bytes here.
fn serialize_run(point: &SweepPoint, run: &LoadRun) -> String {
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
        "[{} {} {} {} seed={}] horizon={} offered={:016x} cpu={:016x} link={:016x} {}",
        point.index,
        point.policy,
        point.payload_bytes,
        point.rate,
        point.seed,
        run.horizon_ns,
        run.offered_rps.to_bits(),
        run.cpu_utilization.to_bits(),
        run.link_utilization.to_bits(),
        outcomes.join(";"),
    )
}

/// One grid point's simulation, fully self-contained.
fn run_point(point: &SweepPoint, dag_seed: u64, fill: u8) -> String {
    let nodes = 3 + (dag_seed % 3) as usize;
    let extra = (dag_seed % 4) as usize;
    let dag = forward_dag(nodes, extra, dag_seed);
    let spec = WorkflowSpec::from_dag("sweep-prop", "t", dag);
    let clock = VirtualClock::new();
    let mut plane = KeyedPlane { clock: clock.clone() };
    let mut resources = SchedResources::new(3, 2);
    let mut policy = policy_of(&point.policy);
    let load = OpenLoop {
        spec,
        payload: Bytes::from(vec![fill; point.payload_bytes]),
        arrivals: ArrivalProcess::Poisson {
            mean_interval_ns: (2_000.0 * point.rate).round() as u64,
            seed: point.seed,
        },
        instances: 5,
        admission: AdmissionConfig::warm(),
    };
    let cluster =
        Cluster { plane: &mut plane, clock: &clock, resources: &mut resources, policy: policy.as_mut() };
    let run = loadgen::run(&load, cluster, Controls::default()).expect("run");
    serialize_run(point, &run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel ≡ serial, byte for byte, for arbitrary small grids at
    /// 2 and 4 workers against 1.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        dag_seed in any::<u64>(),
        fill in any::<u8>(),
        rate_picks in proptest::collection::vec(1u64..=8, 1..=2),
        payload_picks in proptest::collection::vec(6u32..=12, 1..=2),
        policy_picks in proptest::collection::vec(0usize..POLICIES.len(), 1..=2),
        seeds in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        let grid = SweepGrid {
            rates: rate_picks.iter().map(|&r| r as f64 / 2.0).collect(),
            payload_bytes: payload_picks.iter().map(|&p| 1usize << p).collect(),
            policies: policy_picks.iter().map(|&i| POLICIES[i].to_owned()).collect(),
            seeds,
        };
        let serial = sweep(&grid, 1, |p| run_point(p, dag_seed, fill));
        prop_assert_eq!(serial.len(), grid.len());
        for workers in [2usize, 4] {
            let parallel = sweep(&grid, workers, |p| run_point(p, dag_seed, fill));
            prop_assert_eq!(&serial, &parallel, "workers={}", workers);
        }
        // The merged strings carry their grid index: verify order.
        for (i, s) in serial.iter().enumerate() {
            prop_assert!(s.starts_with(&format!("[{i} ")), "slot {} holds {}", i, s);
        }
    }
}

#[test]
fn empty_axes_yield_empty_results_under_every_mode() {
    for workers in [1, 4] {
        let grid = SweepGrid {
            rates: vec![1.0],
            payload_bytes: vec![64],
            policies: vec!["locality".to_owned()],
            seeds: Vec::new(),
        };
        assert!(sweep(&grid, workers, |p| run_point(p, 7, 0xAB)).is_empty());
    }
}
