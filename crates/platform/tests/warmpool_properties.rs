//! Property-based tests for warm-pool admission: instance-lifecycle
//! conservation, run determinism, and the policy identities the pool
//! model promises (`KeepAlive::None` ≡ `FixedTtl { ttl_ns: 0 }`;
//! all-warm admission ignores any attached pool config).

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_platform::{
    loadgen, AdmissionConfig, ClosedLoop, Cluster, Controls, DataPlane, KeepAlive, LoadRun,
    LocalityFirst, PlatformError, TransferTiming, WarmPoolConfig, WorkflowSpec,
};
use roadrunner_vkernel::{Nanos, SchedResources, VirtualClock};

/// A pass-through plane with fixed per-edge phase costs.
struct FixedPlane {
    clock: VirtualClock,
    edge_ns: Nanos,
}

impl DataPlane for FixedPlane {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        p: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let timing =
            TransferTiming { prepare_ns: 0, transfer_ns: self.edge_ns, consume_ns: 0 };
        self.clock.advance(self.edge_ns);
        Ok((p, Some(timing)))
    }
}

const FUNCTIONS: usize = 3;

fn pipeline() -> WorkflowSpec {
    WorkflowSpec::sequence("pipe", "t", ["a".to_owned(), "b".to_owned(), "c".to_owned()])
}

/// Drives one closed loop to completion under `admission`.
#[allow(clippy::too_many_arguments)]
fn run_closed(
    admission: AdmissionConfig,
    users: usize,
    rounds: usize,
    think_ns: Nanos,
    edge_ns: Nanos,
    nodes: usize,
    cores: u32,
) -> LoadRun {
    let clock = VirtualClock::new();
    let mut plane = FixedPlane { clock: clock.clone(), edge_ns };
    let load = ClosedLoop {
        spec: pipeline(),
        payload: Bytes::new(),
        users,
        think_ns,
        ramp_ns: edge_ns / 2,
        instances: users * rounds,
        admission,
    };
    let mut res = SchedResources::new(nodes, cores);
    let mut policy = LocalityFirst::new();
    let cluster =
        Cluster { plane: &mut plane, clock: &clock, resources: &mut res, policy: &mut policy };
    loadgen::run(&load, cluster, Controls::default()).expect("closed loop runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every function admission is either a hit or a miss, the run's
    /// aggregate pool counters agree with the per-instance tallies, and
    /// idle instances are conserved: everything returned or pre-warmed
    /// is eventually reused, evicted, or still warm at the end.
    #[test]
    fn pool_lifecycle_is_conserved(
        users in 1usize..5,
        rounds in 1usize..5,
        think_ns in 0u64..40_000,
        edge_ns in 1u64..5_000,
        cold_ns in 1u64..100_000,
        restore in (any::<bool>(), 1u64..10_000).prop_map(|(s, v)| s.then_some(v)),
        ttl_ns in 0u64..80_000,
        cap in 1usize..5,
        nodes in 1usize..4,
    ) {
        let cfg = WarmPoolConfig {
            restore_ns: restore,
            keep_alive: KeepAlive::FixedTtl { ttl_ns },
            max_idle_per_slot: cap,
        };
        let run = run_closed(
            AdmissionConfig::pooled(cold_ns, cfg), users, rounds, think_ns, edge_ns, nodes, 2,
        );
        let pool = run.pool.expect("pooled admission reports stats");

        let hits: u64 = run.outcomes.iter().map(|o| u64::from(o.pool_hits)).sum();
        let misses: u64 = run.outcomes.iter().map(|o| u64::from(o.pool_misses)).sum();
        prop_assert_eq!(pool.hits, hits);
        prop_assert_eq!(pool.misses, misses);
        prop_assert_eq!(
            hits + misses,
            (FUNCTIONS * run.outcomes.len()) as u64,
            "every function admission is a hit or a miss"
        );
        prop_assert!(pool.restores <= pool.misses, "restores are a kind of miss");
        prop_assert_eq!(
            pool.returns + pool.prewarms,
            pool.hits + pool.evictions + pool.warm_at_end,
            "idle instances are conserved: created = reused + evicted + remaining"
        );
        // A hit admits for free; only misses can charge cold-start time.
        for o in &run.outcomes {
            if o.pool_misses == 0 {
                prop_assert_eq!(o.cold_start_ns, 0, "all-hit instances admit for free");
            }
        }
    }

    /// Replaying the same pooled configuration reproduces the run
    /// exactly — outcome-for-outcome and counter-for-counter.
    #[test]
    fn pooled_runs_are_deterministic(
        users in 1usize..5,
        rounds in 1usize..4,
        think_ns in 0u64..30_000,
        edge_ns in 1u64..4_000,
        cold_ns in 1u64..80_000,
        ttl_ns in 0u64..60_000,
    ) {
        let cfg = WarmPoolConfig {
            restore_ns: Some(cold_ns / 10 + 1),
            keep_alive: KeepAlive::Hybrid { min_ttl_ns: 1, max_ttl_ns: ttl_ns.max(1) },
            ..WarmPoolConfig::default()
        };
        let admission = AdmissionConfig::pooled(cold_ns, cfg);
        let a = run_closed(admission.clone(), users, rounds, think_ns, edge_ns, 2, 2);
        let b = run_closed(admission, users, rounds, think_ns, edge_ns, 2, 2);
        prop_assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
        prop_assert_eq!(a.pool, b.pool);
        prop_assert_eq!(a.horizon_ns, b.horizon_ns);
    }

    /// `KeepAlive::None` is the no-pool baseline *expressed inside the
    /// pool model*: it must behave field-for-field like a fixed TTL of
    /// zero — same outcomes, same pool counters.
    #[test]
    fn keepalive_none_is_zero_ttl_field_for_field(
        users in 1usize..5,
        rounds in 1usize..4,
        think_ns in 0u64..30_000,
        edge_ns in 1u64..4_000,
        cold_ns in 1u64..80_000,
        restore in (any::<bool>(), 1u64..8_000).prop_map(|(s, v)| s.then_some(v)),
        nodes in 1usize..4,
    ) {
        let pool_of = |keep_alive| WarmPoolConfig {
            restore_ns: restore,
            keep_alive,
            ..WarmPoolConfig::default()
        };
        let none = run_closed(
            AdmissionConfig::pooled(cold_ns, pool_of(KeepAlive::None)),
            users, rounds, think_ns, edge_ns, nodes, 2,
        );
        let zero = run_closed(
            AdmissionConfig::pooled(cold_ns, pool_of(KeepAlive::FixedTtl { ttl_ns: 0 })),
            users, rounds, think_ns, edge_ns, nodes, 2,
        );
        prop_assert_eq!(format!("{:?}", none.outcomes), format!("{:?}", zero.outcomes));
        prop_assert_eq!(none.pool, zero.pool);
        let stats = none.pool.expect("pooled run");
        prop_assert_eq!(stats.hits, 0, "TTL 0 never serves warm");
    }

    /// All-warm admission ignores any attached pool config: with no
    /// cold-start cost there is nothing to pool, and the run must be
    /// identical to the plain `AdmissionConfig::warm()` run.
    #[test]
    fn warm_admission_ignores_pool_config(
        users in 1usize..5,
        rounds in 1usize..4,
        think_ns in 0u64..30_000,
        edge_ns in 1u64..4_000,
    ) {
        let plain = run_closed(
            AdmissionConfig::warm(), users, rounds, think_ns, edge_ns, 2, 2,
        );
        let with_pool = run_closed(
            AdmissionConfig { cold_start_ns: None, pool: Some(WarmPoolConfig::default()) },
            users, rounds, think_ns, edge_ns, 2, 2,
        );
        prop_assert_eq!(
            format!("{:?}", plain.outcomes),
            format!("{:?}", with_pool.outcomes)
        );
        prop_assert!(with_pool.pool.is_none(), "all-warm runs report no pool stats");
        for o in &plain.outcomes {
            prop_assert_eq!(o.cold_start_ns, 0);
            prop_assert_eq!(o.pool_hits, 0);
            prop_assert_eq!(o.pool_misses, 0);
        }
    }
}
