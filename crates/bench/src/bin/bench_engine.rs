//! Engine-throughput benchmark — the wall-clock trajectory record.
//!
//! Every other binary in this crate measures *virtual* time. This one
//! measures the **host wall-clock cost of the simulation engine itself**:
//! how many workflow instances per second of real time the stack pushes
//! through, and how many nanoseconds each engine event costs. It runs
//! five scenarios over the Roadrunner plane (three-function pipeline,
//! co-located deployment, fig12/fig13-style cluster):
//!
//! * `serial` — back-to-back [`execute`] runs (the paper-figure path);
//! * `concurrent` — [`execute_concurrent_at`] on fresh resources per
//!   instance (the uncontended DAG engine);
//! * `open_loop` — a fig12-style [`OpenLoop`] sweep onto shared
//!   resources;
//! * `closed_loop` — a fig13-style [`ClosedLoop`] with the backlog
//!   autoscaler in the loop;
//! * `parallel` — a multi-seed grid of independent open-loop jobs run
//!   serially vs on the `platform::sweep` worker pool (4 workers),
//!   recording threads, speedup and scaling efficiency. Results are
//!   asserted identical between the two orders; on a host with fewer
//!   cores than workers the row measures pool overhead, not scaling
//!   (`measures_scaling: false`).
//!
//! Each scenario is measured twice **in the same run**. For `serial`
//! and `concurrent` the baseline is the legacy per-call entry points
//! (re-validate + re-topo-sort every execution, no memo) against
//! [`CompiledWorkflow`] reuse + [`MemoizedPlane`]. For the two load
//! scenarios the baseline is the **unmemoized** engine — the
//! compiled-workflow and allocation-free-view improvements live inside
//! `loadgen` itself and apply to both sides, so those rows isolate the
//! transfer memo (the dominant factor; the engine-level rework's effect
//! shows in the serial/concurrent rows). Virtual-time outputs are
//! asserted identical between the two — the optimizations may only
//! change wall-clock. That is everything the binary asserts: both
//! wall-clock ratios (`closed_loop_speedup`, `parallel_speedup`) are
//! reported, not gated — a ratio of two host timings moves whenever
//! either side is optimized, and with the host.
//!
//! Emits `BENCH_engine.json` (written to the working directory) and the
//! same JSON on stdout.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin bench_engine [--quick]`

use std::time::Instant;

use bytes::Bytes;
use roadrunner_bench::{cluster, pipeline_spec, quick_flag, roadrunner_pipeline, uncontended, MB};
use roadrunner_platform::{
    available_workers, execute, execute_compiled, execute_compiled_at, execute_concurrent_at,
    loadgen, run_jobs, AdmissionConfig, ArrivalProcess, Autoscaler, AutoscalerConfig, ClosedLoop,
    Cluster, CompiledWorkflow, Controls, DataPlane, LoadRun, LocalityFirst, MemoizedPlane,
    OpenLoop, PackThenSpill, SweepMode,
};
use roadrunner_vkernel::{Nanos, SchedResources};

const NODES: usize = 4;
const CORES: u32 = 4;


/// One timed measurement: `instances` workflow instances comprising
/// `events` engine events, in `wall_s` seconds of host time.
struct Measured {
    instances: usize,
    events: usize,
    wall_s: f64,
}

impl Measured {
    fn instances_per_sec(&self) -> f64 {
        self.instances as f64 / self.wall_s.max(1e-9)
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"instances\": {}, \"events\": {}, \"wall_ms\": {:.3}, ",
                "\"instances_per_sec\": {:.1}, \"ns_per_event\": {:.0}}}"
            ),
            self.instances,
            self.events,
            self.wall_s * 1e3,
            self.instances_per_sec(),
            self.ns_per_event(),
        )
    }
}

fn timed(instances: usize, events_per_instance: usize, mut f: impl FnMut()) -> Measured {
    let start = Instant::now();
    f();
    Measured {
        instances,
        events: instances * events_per_instance,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Virtual-time signature of a load run: what must stay byte-identical
/// between the baseline and optimized engines.
fn signature(run: &LoadRun) -> Vec<(usize, Nanos, Nanos, Nanos)> {
    run.outcomes
        .iter()
        .map(|o| (o.user, o.release_ns, o.finish_ns, o.cold_start_ns))
        .collect()
}

struct Scenario {
    name: &'static str,
    baseline: Measured,
    optimized: Measured,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        self.optimized.instances_per_sec() / self.baseline.instances_per_sec().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"baseline\": {}, \"optimized\": {}, \"speedup\": {:.2}}}",
            self.name,
            self.baseline.json(),
            self.optimized.json(),
            self.speedup(),
        )
    }
}

fn main() {
    let quick = quick_flag();
    let payload_bytes = if quick { 2 * MB } else { 4 * MB };
    let serial_n = if quick { 24 } else { 64 };
    let open_n = if quick { 32 } else { 96 };
    let (users, rounds) = if quick { (8, 4) } else { (16, 5) };
    let payload = Bytes::from(vec![0xE1u8; payload_bytes]);
    let workflow = pipeline_spec("bench");
    let edges = workflow.dag.edge_count();

    let bed = cluster(NODES, CORES);
    let clock = bed.clock().clone();
    let mut plane = roadrunner_pipeline(&bed, "bench_engine", [0, 0, 0]);
    // Warm-up: lazy connection establishment and the solo makespan the
    // closed loop derives its think time from, all outside every timed
    // window.
    let solo_ns =
        uncontended(&mut plane, &bed, &payload, &mut SchedResources::mesh(&[CORES; NODES]));

    let mut scenarios: Vec<Scenario> = Vec::new();

    // --- serial -----------------------------------------------------
    {
        let mut check = Vec::new();
        let baseline = timed(serial_n, edges, || {
            for _ in 0..serial_n {
                let run = execute(&mut plane, &clock, &workflow, payload.clone())
                    .expect("serial baseline");
                check.push(run.total_latency_ns);
            }
        });
        let compiled = CompiledWorkflow::compile(&workflow).expect("valid spec");
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let mut check_opt = Vec::new();
        let optimized = timed(serial_n, edges, || {
            for _ in 0..serial_n {
                let run = execute_compiled(&mut memo, &clock, &compiled, payload.clone())
                    .expect("serial optimized");
                check_opt.push(run.total_latency_ns);
            }
        });
        assert_eq!(check, check_opt, "serial: virtual-time outputs must be identical");
        scenarios.push(Scenario { name: "serial", baseline, optimized });
    }

    // --- concurrent -------------------------------------------------
    {
        let mut check = Vec::new();
        let baseline = timed(serial_n, edges, || {
            for _ in 0..serial_n {
                let mut fresh = SchedResources::mesh(&[CORES; NODES]);
                // Legacy entry point: re-validates and re-sorts per call.
                let run = execute_concurrent_at(
                    &mut plane,
                    &clock,
                    &workflow,
                    payload.clone(),
                    &mut fresh,
                    0,
                )
                .expect("concurrent baseline");
                check.push(run.total_latency_ns);
            }
        });
        let compiled = CompiledWorkflow::compile(&workflow).expect("valid spec");
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let mut check_opt = Vec::new();
        let optimized = timed(serial_n, edges, || {
            for _ in 0..serial_n {
                let mut fresh = SchedResources::mesh(&[CORES; NODES]);
                let run = execute_compiled_at(
                    &mut memo,
                    &clock,
                    &compiled,
                    payload.clone(),
                    &mut fresh,
                    0,
                )
                .expect("concurrent optimized");
                check_opt.push(run.total_latency_ns);
            }
        });
        assert_eq!(check, check_opt, "concurrent: virtual-time outputs must be identical");
        scenarios.push(Scenario { name: "concurrent", baseline, optimized });
    }

    // --- open loop --------------------------------------------------
    {
        let load = OpenLoop {
            spec: pipeline_spec("bench"),
            payload: payload.clone(),
            arrivals: ArrivalProcess::Uniform { interval_ns: (solo_ns / 2).max(1) },
            instances: open_n,
            admission: AdmissionConfig::warm(),
        };
        // Baseline = the unmemoized engine: loadgen's compiled-workflow
        // and scratch-view savings apply to both sides here, so this row
        // isolates the transfer memo.
        let run_open = |plane: &mut dyn DataPlane| {
            let cluster = Cluster {
                plane,
                clock: &clock,
                resources: &mut SchedResources::mesh(&[CORES; NODES]),
                policy: &mut LocalityFirst::new(),
            };
            loadgen::run(&load, cluster, Controls::default()).expect("open-loop run")
        };
        let mut base_run = None;
        let baseline = timed(open_n, edges + 2, || {
            base_run = Some(run_open(&mut plane));
        });
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let mut opt_run = None;
        let optimized = timed(open_n, edges + 2, || {
            opt_run = Some(run_open(&mut memo));
        });
        assert_eq!(
            signature(&base_run.expect("baseline ran")),
            signature(&opt_run.expect("optimized ran")),
            "open loop: virtual-time outputs must be identical"
        );
        scenarios.push(Scenario { name: "open_loop", baseline, optimized });
    }

    // --- closed loop + autoscaler (the fig13-style sweep) -----------
    {
        let load = ClosedLoop {
            spec: pipeline_spec("bench"),
            payload: payload.clone(),
            users,
            think_ns: solo_ns / 4,
            ramp_ns: solo_ns / 4,
            instances: users * rounds,
            admission: AdmissionConfig::warm(),
        };
        let run_closed = |plane: &mut dyn DataPlane| {
            let mut scaler = Autoscaler::new(AutoscalerConfig {
                min_nodes: 2,
                max_nodes: NODES,
                node_cores: CORES,
                scale_up_backlog_ns: solo_ns / 2,
                scale_down_backlog_ns: solo_ns / 16,
                window_ns: (solo_ns / 4).max(1),
            });
            let cluster = Cluster {
                plane,
                clock: &clock,
                resources: &mut SchedResources::mesh(&[CORES; 2]),
                policy: &mut PackThenSpill::new(solo_ns),
            };
            let controls = Controls { autoscaler: Some(&mut scaler), ..Controls::default() };
            loadgen::run(&load, cluster, controls).expect("closed-loop run")
        };
        let instances = users * rounds;
        let mut base_run = None;
        let baseline = timed(instances, edges + 2, || {
            base_run = Some(run_closed(&mut plane));
        });
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let mut opt_run = None;
        let optimized = timed(instances, edges + 2, || {
            opt_run = Some(run_closed(&mut memo));
        });
        let base_run = base_run.expect("baseline ran");
        let opt_run = opt_run.expect("optimized ran");
        assert_eq!(
            signature(&base_run),
            signature(&opt_run),
            "closed loop: virtual-time outputs must be identical"
        );
        assert_eq!(base_run.scale_events, opt_run.scale_events);
        scenarios.push(Scenario { name: "closed_loop", baseline, optimized });
    }

    let closed = scenarios.last().expect("closed loop measured");
    let closed_speedup = closed.speedup();

    let mut rows: Vec<String> = scenarios.iter().map(Scenario::json).collect();

    // --- parallel sweep (independent seeded jobs over the pool) ------
    let (parallel_speedup, parallel_row) = {
        let threads = 4;
        let cores = available_workers();
        let jobs: Vec<u64> = (1..=if quick { 8 } else { 12 }).collect();
        let job_n = if quick { 16 } else { 32 };
        // Each job is fully self-contained — its own testbed, plane,
        // clock and resources — exactly the shape the fig12/fig13
        // sweeps fan out, so serial vs pooled execution of the *same*
        // job list isolates the worker pool's wall-clock effect.
        let run_one = |seed: u64| {
            let bed = cluster(NODES, CORES);
            let clock = bed.clock().clone();
            let mut plane = roadrunner_pipeline(&bed, "bench_engine", [0, 0, 0]);
            execute(&mut plane, &clock, &workflow, payload.clone()).expect("job warmup");
            let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
            let load = OpenLoop {
                spec: pipeline_spec("bench"),
                payload: payload.clone(),
                arrivals: ArrivalProcess::Poisson {
                    mean_interval_ns: (solo_ns / 2).max(1),
                    seed,
                },
                instances: job_n,
                admission: AdmissionConfig::warm(),
            };
            let cluster = Cluster {
                plane: &mut memo,
                clock: &clock,
                resources: &mut SchedResources::mesh(&[CORES; NODES]),
                policy: &mut LocalityFirst::new(),
            };
            loadgen::run(&load, cluster, Controls::default()).expect("parallel job")
        };
        let total = jobs.len() * job_n;
        let mut serial_runs = Vec::new();
        let baseline = timed(total, edges + 2, || {
            serial_runs = run_jobs(&jobs, SweepMode::Serial, |&seed| run_one(seed));
        });
        let mut pooled_runs = Vec::new();
        let optimized = timed(total, edges + 2, || {
            pooled_runs =
                run_jobs(&jobs, SweepMode::Parallel { workers: threads }, |&seed| run_one(seed));
        });
        let serial_sigs: Vec<_> = serial_runs.iter().map(signature).collect();
        let pooled_sigs: Vec<_> = pooled_runs.iter().map(signature).collect();
        assert_eq!(
            serial_sigs, pooled_sigs,
            "parallel: pooled virtual-time outputs must be identical to serial"
        );
        let scenario = Scenario { name: "parallel", baseline, optimized };
        let speedup = scenario.speedup();
        // Scaling efficiency normalizes by the workers that can actually
        // run concurrently on this host.
        let efficiency = speedup / threads.min(cores) as f64;
        // On a host with fewer cores than workers the row measures pool
        // overhead, not scaling, and a sub-1x "speedup" is expected.
        let row = format!(
            concat!(
                "    {{\"scenario\": \"parallel\", \"baseline\": {}, \"optimized\": {}, ",
                "\"speedup\": {:.2}, \"threads\": {}, \"cores_available\": {}, ",
                "\"scaling_efficiency\": {:.2}, \"measures_scaling\": {}}}"
            ),
            scenario.baseline.json(),
            scenario.optimized.json(),
            speedup,
            threads,
            cores,
            efficiency,
            cores >= threads,
        );
        (speedup, row)
    };
    rows.push(parallel_row);
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"bench_engine\",\n",
            "  \"quick\": {},\n",
            "  \"cluster\": {{\"nodes\": {}, \"cores_per_node\": {}}},\n",
            "  \"workflow\": \"src -> relay -> sink\",\n",
            "  \"payload_mb\": {:.1},\n",
            "  \"closed_loop_speedup\": {:.2},\n",
            "  \"parallel_speedup\": {:.2},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}"
        ),
        quick,
        NODES,
        CORES,
        payload_bytes as f64 / MB as f64,
        closed_speedup,
        parallel_speedup,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_engine.json", format!("{json}\n")).expect("write BENCH_engine.json");
    println!("{json}");
}
