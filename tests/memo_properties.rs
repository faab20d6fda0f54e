//! Property-based proof that the transfer-cost memo is observation-
//! equivalent: over arbitrary DAGs, payload kinds and placements, a
//! [`MemoizedPlane`]-wrapped plane must produce **identical**
//! `TransferTiming` attributions and payload bytes to the unmemoized
//! plane — across repeated instances, where every transfer after the
//! first is a cache replay.

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::{
    execute_concurrent_at, loadgen, AdmissionConfig, ArrivalProcess, Autoscaler, AutoscalerConfig,
    ClosedLoop, Cluster, Controls, DataPlane, Load, LoadRun, LocalityFirst, MemoizedPlane,
    OpenLoop, PackThenSpill, PlacementPolicy, PlatformError, TransferTiming, WorkflowDag,
    WorkflowRun, WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{SchedResources, Testbed, VirtualClock};

/// Splitmix-style generator so graph shapes derive deterministically from
/// the proptest-provided seed.
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

/// A deterministic plane whose timing and received bytes both depend on
/// the edge endpoints, the placement, and the payload content — so any
/// keying mistake in the memo shows up as a mismatched replay.
struct KeyedPlane {
    clock: VirtualClock,
    placements: Vec<usize>,
}

impl KeyedPlane {
    fn key(&self, from: &str, to: &str, payload: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(from.as_bytes());
        eat(to.as_bytes());
        eat(&(self.placement(from).unwrap_or(0) as u64).to_le_bytes());
        eat(&(self.placement(to).unwrap_or(0) as u64).to_le_bytes());
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
        let key = self.key(from, to, &payload);
        let timing = TransferTiming {
            prepare_ns: 100 + key % 400,
            transfer_ns: 1_000 + payload.len() as u64 + key % 1_000,
            consume_ns: 50 + key % 200,
        };
        self.clock.advance(timing.total_ns());
        let received: Vec<u8> =
            payload.iter().map(|b| b.wrapping_add((key & 0xFF) as u8)).collect();
        Ok((Bytes::from(received), Some(timing)))
    }

    fn placement(&self, function: &str) -> Option<usize> {
        // `fN` names index the placement table.
        let idx: usize = function[1..].parse().ok()?;
        self.placements.get(idx).copied()
    }
}

/// Edge-by-edge equality of what the plane produced: bytes, sizes and
/// per-phase latency attribution.
fn assert_runs_equal(plain: &WorkflowRun, memoized: &WorkflowRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(plain.edges.len(), memoized.edges.len());
    for (a, b) in plain.edges.iter().zip(&memoized.edges) {
        prop_assert_eq!(&a.from, &b.from);
        prop_assert_eq!(&a.to, &b.to);
        prop_assert_eq!(a.bytes, b.bytes);
        prop_assert_eq!(a.latency_ns, b.latency_ns);
        prop_assert_eq!(a.start_ns, b.start_ns);
        prop_assert_eq!(a.finish_ns, b.finish_ns);
        prop_assert_eq!(a.checksum(), b.checksum());
        prop_assert_eq!(&a.received[..], &b.received[..]);
    }
    prop_assert_eq!(plain.total_latency_ns, memoized.total_latency_ns);
    Ok(())
}

use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary DAGs × arbitrary placements × arbitrary payload bytes on
    /// the synthetic keyed plane: every instance of the memoized run
    /// (including the fully-replayed later ones) matches the unmemoized
    /// plane edge for edge.
    #[test]
    fn memoized_keyed_plane_matches_unmemoized(
        n in 2usize..9,
        extra in 0usize..6,
        seed in any::<u64>(),
        payload_len in 1usize..4_000,
        nodes in 1usize..4,
    ) {
        let dag = forward_dag(n, extra, seed);
        let spec = WorkflowSpec::from_dag("memo-prop", "t", dag);
        let placements: Vec<usize> =
            (0..n).map(|i| (seed as usize).wrapping_add(i * 7) % nodes).collect();
        let payload = Bytes::from(vec![(seed & 0xFF) as u8; payload_len]);

        let clock = VirtualClock::new();
        let mut plain_plane = KeyedPlane { clock: clock.clone(), placements: placements.clone() };
        let mut resources = SchedResources::new(nodes, 4);
        let plain = execute_concurrent_at(
            &mut plain_plane, &clock, &spec, payload.clone(), &mut resources, 0,
        ).unwrap();

        let clock = VirtualClock::new();
        let mut inner = KeyedPlane { clock: clock.clone(), placements };
        let mut memo = MemoizedPlane::new(&mut inner, clock.clone());
        for round in 0..3 {
            let mut resources = SchedResources::new(nodes, 4);
            let memoized = execute_concurrent_at(
                &mut memo, &clock, &spec, payload.clone(), &mut resources, 0,
            ).unwrap();
            assert_runs_equal(&plain, &memoized)?;
            if round > 0 {
                prop_assert!(memo.hits() > 0, "later instances must replay from the memo");
            }
        }
        prop_assert_eq!(memo.bypasses(), 0);
        prop_assert_eq!(memo.len() as u64, memo.misses());
    }

    /// Real baseline planes (the serialize → HTTP → deserialize paths)
    /// over every payload kind: timing attribution and received bytes are
    /// identical with the memo, instance after instance.
    #[test]
    fn memoized_baselines_match_unmemoized(
        kind_pick in 0usize..3,
        seed in any::<u64>(),
        payload_len in 64usize..40_000,
        cross_node in any::<bool>(),
        runc in any::<bool>(),
    ) {
        let kind = [PayloadKind::Text, PayloadKind::SensorRecords, PayloadKind::ImageFrame]
            [kind_pick];
        let payload = Payload::synthetic(kind, seed, payload_len);
        let flat = payload.flat().clone();
        let spec = WorkflowSpec::sequence(
            "memo-baseline",
            "t",
            ["f0".to_owned(), "f1".to_owned(), "f2".to_owned()],
        );
        let peer = usize::from(cross_node);
        let build = |bed: &Arc<Testbed>| -> Box<dyn DataPlane> {
            if runc {
                Box::new(RuncPair::establish(Arc::clone(bed), 0, peer))
            } else {
                Box::new(WasmedgePair::establish(Arc::clone(bed), 0, peer))
            }
        };

        // Unmemoized reference. The first post-establish instance pays
        // one-off effects (guest heap growth); the benches always warm a
        // plane before measuring, and the memo's soundness contract is
        // cyclicity *after* warm-up — so both sides here warm with one
        // discarded unmemoized run first.
        let bed = Arc::new(Testbed::paper());
        let mut plane = build(&bed);
        let clock = bed.clock().clone();
        let mut resources = SchedResources::new(2, 4);
        execute_concurrent_at(plane.as_mut(), &clock, &spec, flat.clone(), &mut resources, 0)
            .unwrap();
        let mut resources = SchedResources::new(2, 4);
        let plain = execute_concurrent_at(
            plane.as_mut(), &clock, &spec, flat.clone(), &mut resources, 0,
        ).unwrap();
        let mut resources = SchedResources::new(2, 4);
        let plain_again = execute_concurrent_at(
            plane.as_mut(), &clock, &spec, flat.clone(), &mut resources, 0,
        ).unwrap();
        // Warmed baselines are instance-cyclic: the property the memo
        // (and fig13's determinism assert) relies on.
        assert_runs_equal(&plain, &plain_again)?;

        let bed = Arc::new(Testbed::paper());
        let mut plane = build(&bed);
        let clock = bed.clock().clone();
        let mut resources = SchedResources::new(2, 4);
        execute_concurrent_at(plane.as_mut(), &clock, &spec, flat.clone(), &mut resources, 0)
            .unwrap();
        let mut memo = MemoizedPlane::new(plane.as_mut(), clock.clone());
        let mut resources = SchedResources::new(2, 4);
        let first = execute_concurrent_at(
            &mut memo, &clock, &spec, flat.clone(), &mut resources, 0,
        ).unwrap();
        assert_runs_equal(&plain, &first)?;
        let mut resources = SchedResources::new(2, 4);
        let replayed = execute_concurrent_at(
            &mut memo, &clock, &spec, flat.clone(), &mut resources, 0,
        ).unwrap();
        assert_runs_equal(&plain, &replayed)?;
        prop_assert!(memo.hits() >= spec.dag.edge_count() as u64);
        prop_assert_eq!(memo.bypasses(), 0);
    }
}

/// The load engine over a freshly warmed pipeline, on the plain plane or
/// through a [`MemoizedPlane`]: the run and the memo's hits.
fn run_load(
    load: Load<'_>,
    policy: &mut dyn PlacementPolicy,
    autoscaler: Option<AutoscalerConfig>,
    memo: bool,
) -> (LoadRun, u64) {
    let (mut plane, clock, _) = warmed_pipeline(4_096);
    let mut scaler = autoscaler.map(Autoscaler::new);
    let drive = |plane: &mut dyn DataPlane| {
        let mut resources = SchedResources::mesh(&[4; 2]);
        let cluster = Cluster { plane, clock: &clock, resources: &mut resources, policy };
        let controls = Controls { autoscaler: scaler.as_mut(), ..Controls::default() };
        loadgen::run(load, cluster, controls).unwrap()
    };
    let mut hits = 0;
    let run = if memo {
        let mut memo_plane = MemoizedPlane::new(&mut plane, clock.clone());
        let run = drive(&mut memo_plane);
        hits = memo_plane.hits();
        run
    } else {
        drive(&mut plane)
    };
    (run, hits)
}

/// What must match instance for instance between a plain and a memoized
/// load run.
fn signature(run: &LoadRun) -> Vec<(usize, u64, u64, u64)> {
    run.outcomes.iter().map(|o| (o.user, o.release_ns, o.finish_ns, o.cold_start_ns)).collect()
}

/// The memo on the real plane under the load engine: a closed loop with
/// the backlog autoscaler under `PackThenSpill`, and an open loop under
/// `LocalityFirst`. Both policies place whole instances, the regime the
/// memo is sound for, so the memoized run must reproduce the plain one
/// instance for instance.
#[test]
fn memo_matches_plain_under_the_load_engine() {
    let (mut plane, clock, payload) = warmed_pipeline(4_096);
    let spec = WorkflowSpec::sequence(
        "pipeline",
        "t",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    );
    let mut fresh = SchedResources::mesh(&[4; 4]);
    let solo_ns = execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut fresh, 0)
        .unwrap()
        .total_latency_ns;

    let closed = ClosedLoop {
        spec: spec.clone(),
        payload: payload.clone(),
        users: 8,
        think_ns: solo_ns / 4,
        ramp_ns: solo_ns / 4,
        instances: 24,
        admission: AdmissionConfig::warm(),
    };
    let scaler = AutoscalerConfig {
        min_nodes: 2,
        max_nodes: 4,
        node_cores: 4,
        scale_up_backlog_ns: solo_ns / 2,
        scale_down_backlog_ns: solo_ns / 16,
        window_ns: (solo_ns / 4).max(1),
    };
    let run = |memo| {
        let policy = &mut PackThenSpill::new(solo_ns);
        run_load(Load::from(&closed), policy, Some(scaler), memo)
    };
    let (plain, _) = run(false);
    let (memoized, hits) = run(true);
    assert_eq!(plain.outcomes.len(), 24);
    assert_eq!(signature(&plain), signature(&memoized), "closed loop + autoscaler");
    assert_eq!(plain.scale_events, memoized.scale_events);
    assert!(!plain.scale_events.is_empty(), "the autoscaler must act");
    assert!(hits > 0, "the memo must serve the closed loop");

    let open = OpenLoop {
        spec,
        payload,
        arrivals: ArrivalProcess::Uniform { interval_ns: (solo_ns / 2).max(1) },
        instances: 16,
        admission: AdmissionConfig::warm(),
    };
    let run = |memo| run_load(Load::from(&open), &mut LocalityFirst::new(), None, memo);
    let (plain, _) = run(false);
    let (memoized, hits) = run(true);
    assert_eq!(plain.outcomes.len(), 16);
    assert_eq!(signature(&plain), signature(&memoized), "open loop");
    assert!(hits > 0, "the memo must serve the open loop");
}

// ---------------------------------------------------------------------
// What the memo is *not* sound for: per-function placement.
//
// The load engine hands every edge its instance's placement, so one
// deployed edge is keyed (and recorded) once per distinct (src, dst)
// pair it ever runs under. Two things the real plane's outcome depends
// on are not in that key. Both tests below assert memo ≡ plain at the
// `DataPlane` level on the deployment `cluster_load` and fig12–fig14
// use, and both are red; `memo.rs`'s soundness contract names them.

/// The warmed src → relay → sink pipeline the load figures drive: all
/// three functions deployed on node 0 of a four-node cluster, one
/// discarded warm-up instance (which warms the *deployment's* modes only)
/// with a `payload_len`-byte image frame.
fn warmed_pipeline(payload_len: usize) -> (roadrunner::RoadrunnerPlane, VirtualClock, Bytes) {
    use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
    use roadrunner_platform::{execute, FunctionBundle};

    let bed = Arc::new(roadrunner_vkernel::ClusterSpec::homogeneous(4, 4, 8 << 30).build());
    let clock = bed.clock().clone();
    let mut plane = RoadrunnerPlane::new(bed, ShimConfig::default().with_load_costs(false));
    for (name, module, handler, acks) in [
        ("src", guest::producer(), "produce", false),
        ("relay", guest::relay(), "relay", false),
        ("sink", guest::consumer(), "consume", true),
    ] {
        let bundle = FunctionBundle::wasm(name, roadrunner_wasm::encode::encode(&module))
            .with_workflow("memo-placed")
            .with_tenant("t");
        plane.deploy(0, name, Arc::new(bundle), handler, acks).unwrap();
    }
    let payload = Payload::synthetic(PayloadKind::ImageFrame, 1, payload_len).flat().clone();
    let spec = WorkflowSpec::sequence(
        "pipeline",
        "t",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    );
    execute(&mut plane, &clock, &spec, payload.clone()).unwrap();
    (plane, clock, payload)
}

/// Runs one pipeline instance per `[src, relay, sink]` placement through
/// `transfer_placed`, as the load engine does, and returns every edge's
/// timing in order.
fn placed_timings(
    plane: &mut dyn DataPlane,
    payload: &Bytes,
    placements: &[[usize; 3]],
) -> Vec<TransferTiming> {
    let mut timings = Vec::new();
    for &[src, relay, sink] in placements {
        let (relayed, timing) =
            plane.transfer_placed("src", "relay", payload.clone(), Some(src), Some(relay)).unwrap();
        timings.push(timing.unwrap());
        let (_, timing) =
            plane.transfer_placed("relay", "sink", relayed, Some(relay), Some(sink)).unwrap();
        timings.push(timing.unwrap());
    }
    timings
}

/// Memo vs plain over the same placement sequence on two identically
/// warmed deployments.
fn assert_memo_matches_plain_under(placements: &[[usize; 3]]) {
    let (mut plane, _, payload) = warmed_pipeline(256_000);
    let plain = placed_timings(&mut plane, &payload, placements);
    let (mut plane, clock, payload) = warmed_pipeline(256_000);
    let mut memo = MemoizedPlane::new(&mut plane, clock);
    let memoized = placed_timings(&mut memo, &payload, placements);
    assert_eq!(memo.bypasses(), 0);
    assert_eq!(plain, memoized, "edge timings, plain vs memoized, under {placements:?}");
}

#[test]
#[ignore = "memo unsound under per-function placement: the entry recorded on a shim pair's first network edge contains the one-off connection establishment and replays it forever"]
fn memo_matches_plain_when_an_instance_crosses_nodes_twice() {
    // Two instances under one cross-node placement. Plain: the first
    // src → relay establishes the TCP connection (1 001 400 ns inside
    // `transfer_ns`), the second reuses it. Memoized: the second is a
    // replay of the first, establishment included.
    assert_memo_matches_plain_under(&[[0, 1, 1], [0, 1, 1]]);
}

#[test]
#[ignore = "memo unsound under per-function placement: a miss downstream of a hit finds no pending outbox in the wrapped plane and re-injects the payload"]
fn memo_matches_plain_when_only_the_second_edge_moves() {
    // The second instance keeps src → relay where it was (a hit: the
    // wrapped plane does not run, so `relay` holds no outbox) and moves
    // `sink` (a miss: the wrapped plane finds nothing to send, delivers
    // the payload to `relay` and runs its handler first — a `prepare_ns`
    // the plain run, whose relay really relayed, never pays).
    assert_memo_matches_plain_under(&[[0, 0, 0], [0, 0, 1]]);
}
