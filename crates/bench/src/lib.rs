//! Shared harness for the figure generators.
//!
//! Every figure/table of the paper's evaluation has a binary in
//! `src/bin/` that drives the *real* systems (Roadrunner plane, RunC-like
//! and WasmEdge-like pairs) over a fresh virtual testbed and prints the
//! same series the paper plots. This module holds the common machinery:
//! system setup, single-edge measurements, the fan-out makespan model,
//! table printing, the command-line parser ([`Args`]) and the one JSON
//! writer ([`Object`]) every machine-readable document goes through.
//!
//! Latency definitions match §6.1: measurement starts "from the moment
//! the source function sends data" (for baselines that includes
//! serialization; Roadrunner has none) "until the target function has
//! successfully received it".

pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
mod json;

pub use json::{fixed, Json, Object};

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::{BaselineOutcome, RuncPair, WasmedgePair};
use roadrunner_platform::{
    available_workers, execute, execute_concurrent_at, DataPlane, FunctionBundle, MemoizedPlane,
    WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{secs, ClusterSpec, Nanos, SchedResources, Testbed, VirtualClock};
use roadrunner_wasm::encode;

/// One megabyte.
pub const MB: usize = 1_000_000;

/// The systems under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Roadrunner, both functions in one Wasm VM.
    RoadrunnerUser,
    /// Roadrunner, co-located sandboxes over a Unix socket.
    RoadrunnerKernel,
    /// Roadrunner, remote nodes over the virtual data hose.
    RoadrunnerNetwork,
    /// RunC-like containers over HTTP.
    Runc,
    /// WasmEdge-like Wasm functions over WASI HTTP.
    Wasmedge,
}

impl System {
    /// Display label used in the printed series (matches the paper's
    /// legends).
    pub fn label(&self) -> &'static str {
        match self {
            System::RoadrunnerUser => "RoadRunner (User space)",
            System::RoadrunnerKernel => "RoadRunner (Kernel space)",
            System::RoadrunnerNetwork => "RoadRunner (Network)",
            System::Runc => "RunC",
            System::Wasmedge => "Wasmedge",
        }
    }

    /// The intra-node line-up of Fig. 7/9.
    pub fn intra_node() -> [System; 4] {
        [
            System::RoadrunnerUser,
            System::RoadrunnerKernel,
            System::Runc,
            System::Wasmedge,
        ]
    }

    /// The inter-node line-up of Fig. 6/8/10.
    pub fn inter_node() -> [System; 3] {
        [System::RoadrunnerNetwork, System::Runc, System::Wasmedge]
    }
}

/// Everything a figure panel needs about one measured transfer.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// System measured.
    pub system: System,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Total latency (includes serialization where the system has any).
    pub latency_ns: Nanos,
    /// Serialization + deserialization time.
    pub serialization_ns: Nanos,
    /// Wasm VM I/O time (boundary crossings + linear-memory copies).
    pub wasm_io_ns: Nanos,
    /// User-space CPU over all sandboxes of the pair.
    pub user_cpu_ns: Nanos,
    /// Kernel-space CPU over all sandboxes of the pair.
    pub kernel_cpu_ns: Nanos,
    /// Peak RAM over all sandboxes of the pair, in bytes.
    pub ram_peak: u64,
    /// FNV checksum of the received flat payload (integrity).
    pub checksum_ok: bool,
}

impl Measurement {
    /// Requests per second if this transfer were repeated back-to-back
    /// (the paper's extrapolated throughput metric).
    pub fn throughput_rps(&self) -> f64 {
        if self.latency_ns == 0 {
            return f64::INFINITY;
        }
        1e9 / self.latency_ns as f64
    }

    /// Throughput of the serialization stage alone (Fig. 7d/8d/9d/10d).
    pub fn serialization_rps(&self) -> f64 {
        if self.serialization_ns == 0 {
            return f64::INFINITY;
        }
        1e9 / self.serialization_ns as f64
    }

    /// Transfer share excluding serialization.
    pub fn transfer_only_ns(&self) -> Nanos {
        self.latency_ns
            .saturating_sub(self.serialization_ns)
            .saturating_sub(self.wasm_io_ns)
    }

    /// Data-preparation overhead on the serialization path: the codec
    /// work plus the Wasm VM I/O. This is the quantity behind the paper's
    /// "reduces the serialization overhead by 97 % vs WasmEdge and 46 %
    /// vs RunC" — Roadrunner's residual overhead is its VM I/O.
    pub fn overhead_ns(&self) -> Nanos {
        self.serialization_ns + self.wasm_io_ns
    }

    /// CPU usage as a percentage of the whole 4-core machine over the
    /// transfer window (the paper's cgroup-derived "% CPU").
    pub fn cpu_total_pct(&self, cores: u32) -> f64 {
        pct(self.user_cpu_ns + self.kernel_cpu_ns, self.latency_ns, cores)
    }

    /// User-space CPU percentage.
    pub fn cpu_user_pct(&self, cores: u32) -> f64 {
        pct(self.user_cpu_ns, self.latency_ns, cores)
    }

    /// Kernel-space CPU percentage.
    pub fn cpu_kernel_pct(&self, cores: u32) -> f64 {
        pct(self.kernel_cpu_ns, self.latency_ns, cores)
    }
}

fn pct(cpu: Nanos, window: Nanos, cores: u32) -> f64 {
    if window == 0 {
        return 0.0;
    }
    cpu as f64 / (window as f64 * cores as f64) * 100.0
}

/// `module` as function `name`'s bundle in `workflow`, owned by tenant
/// `bench`.
pub fn rr_bundle(workflow: &str, name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow(workflow)
            .with_tenant("bench"),
    )
}

/// The `src -> relay -> sink` pipeline every load figure drives, owned
/// by `tenant`.
pub fn pipeline_spec(tenant: &str) -> WorkflowSpec {
    WorkflowSpec::sequence(
        "pipeline",
        tenant,
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    )
}

/// A homogeneous testbed: `nodes` nodes of `cores` cores and 8 GiB.
pub fn cluster(nodes: usize, cores: u32) -> Arc<Testbed> {
    Arc::new(ClusterSpec::homogeneous(nodes, cores, 8 << 30).build())
}

/// Deploys the Roadrunner pipeline with `src`, `relay` and `sink` on
/// `nodes` (all equal: kernel-space edges; distinct: network edges),
/// its bundles labelled with `workflow`.
pub fn roadrunner_pipeline(
    bed: &Arc<Testbed>,
    workflow: &str,
    nodes: [usize; 3],
) -> RoadrunnerPlane {
    let mut plane =
        RoadrunnerPlane::new(Arc::clone(bed), ShimConfig::default().with_load_costs(false));
    let bundle = |name, module| rr_bundle(workflow, name, module);
    plane
        .deploy(nodes[0], "src", bundle("src", guest::producer()), "produce", false)
        .expect("deploy src");
    plane
        .deploy(nodes[1], "relay", bundle("relay", guest::relay()), "relay", false)
        .expect("deploy relay");
    plane
        .deploy(nodes[2], "sink", bundle("sink", guest::consumer()), "consume", true)
        .expect("deploy sink");
    plane
}

/// One system's plane in a load figure, and whether its load runs go
/// through the transfer-cost memo ([`load_planes`] decides).
pub(crate) struct LoadPlane {
    plane: Box<dyn DataPlane>,
    memoized: bool,
}

impl LoadPlane {
    /// The plane itself, never memoized (warm-up and uncontended runs).
    pub(crate) fn bare(&mut self) -> &mut dyn DataPlane {
        self.plane.as_mut()
    }

    /// Calls `run` with the plane one load run drives: a fresh
    /// [`MemoizedPlane`] over the plane if it is memoized, the plane
    /// itself otherwise.
    pub(crate) fn drive<R>(
        &mut self,
        clock: &VirtualClock,
        run: impl FnOnce(&mut dyn DataPlane) -> R,
    ) -> R {
        if self.memoized {
            run(&mut MemoizedPlane::new(self.plane.as_mut(), clock.clone()))
        } else {
            run(self.plane.as_mut())
        }
    }
}

/// The three systems every load figure compares, labelled, with
/// Roadrunner's pipeline deployed on `bed` under `workflow`: colocated on
/// node 0 (kernel-space edges) or spread over nodes 0/1/2 (network
/// edges). The pairs carry every edge of the pipeline over one
/// connection, between nodes 0 and 0 or 0 and 1.
pub(crate) fn load_planes(
    bed: &Arc<Testbed>,
    workflow: &str,
    colocated: bool,
) -> [(&'static str, LoadPlane); 3] {
    let peer = usize::from(!colocated);
    let nodes = if colocated { [0, 0, 0] } else { [0, 1, 2] };
    // The memo replays only the pairs. A pair's edge does not depend on
    // earlier edges — its connection is established before the first, and
    // every edge serializes, frames and parses afresh — so its replay is
    // exact in every regime, and it skips the codec and HTTP work that is
    // most of a load figure's wall time. The Roadrunner plane's relay
    // outbox and lazily established TCP connections carry state from one
    // edge to the next, so its replay is exact only under whole-instance
    // placement without aborts: it always runs for real.
    let roadrunner = roadrunner_pipeline(bed, workflow, nodes);
    let pair = |plane: Box<dyn DataPlane>| LoadPlane { plane, memoized: true };
    [
        ("roadrunner", LoadPlane { plane: Box::new(roadrunner), memoized: false }),
        ("runc", pair(Box::new(RuncPair::establish(Arc::clone(bed), 0, peer)))),
        ("wasmedge", pair(Box::new(WasmedgePair::establish(Arc::clone(bed), 0, peer)))),
    ]
}

/// Uncontended concurrent makespan of one pipeline instance on `fresh`,
/// empty resources — the lower bound no instance under load may beat.
/// The plane is warmed first (one discarded serial run) so lazy
/// connection establishment is excluded from every measured comparison.
pub fn uncontended(
    plane: &mut dyn DataPlane,
    bed: &Testbed,
    payload: &Bytes,
    fresh: &mut SchedResources,
) -> Nanos {
    let clock = bed.clock().clone();
    let workflow = pipeline_spec("bench");
    execute(plane, &clock, &workflow, payload.clone()).expect("warmup run");
    execute_concurrent_at(plane, &clock, &workflow, payload.clone(), fresh, 0)
        .expect("uncontended run")
        .total_latency_ns
}

/// Sums CPU/RAM telemetry over every sandbox of a testbed. RAM peaks are
/// summed: the paper's panels report the memory footprint of the whole
/// deployed workflow, and the baselines pay the state + serialized-copy
/// doubling in *each* sandbox.
fn telemetry(bed: &Testbed) -> (Nanos, Nanos, u64) {
    let mut user = 0;
    let mut kernel = 0;
    let mut ram = 0u64;
    for node in bed.nodes() {
        for account in node.accounts() {
            user += account.user_ns();
            kernel += account.kernel_ns();
            ram += account.ram_peak();
        }
    }
    (user, kernel, ram)
}

/// Runs one transfer of `bytes` on `system`, the two functions on nodes
/// 0 and 1, and returns the measurement. Every run uses a fresh testbed,
/// so runs are independent and deterministic.
pub fn measure_transfer(system: System, bytes: usize) -> Measurement {
    measure(system, bytes, 1)
}

/// Intra-node variant: both functions on node 0 (baselines talk over
/// loopback).
pub fn measure_transfer_intra(system: System, bytes: usize) -> Measurement {
    measure(system, bytes, 0)
}

fn measure(system: System, bytes: usize, peer: usize) -> Measurement {
    let payload = Payload::synthetic(PayloadKind::Text, 42, bytes);
    let bed = Arc::new(Testbed::paper());
    match system {
        System::Runc | System::Wasmedge => {
            let transfer = baseline_pair(system, &bed, peer);
            measure_baseline_pair(system, &bed, &payload, transfer)
        }
        _ => measure_roadrunner(system, bed, &payload),
    }
}

/// Establishes `system`'s pair between nodes 0 and `peer` and returns
/// its one-payload transfer. `system` must be a baseline.
fn baseline_pair(system: System, bed: &Arc<Testbed>, peer: usize) -> BaselineTransfer {
    let bed = Arc::clone(bed);
    if system == System::Runc {
        let mut pair = RuncPair::establish(bed, 0, peer);
        Box::new(move |p| pair.transfer(p).expect("runc transfer succeeds"))
    } else {
        let mut pair = WasmedgePair::establish(bed, 0, peer);
        Box::new(move |p| pair.transfer(p).expect("wasmedge transfer succeeds"))
    }
}

type BaselineTransfer = Box<dyn FnMut(&Payload) -> BaselineOutcome>;

fn measure_baseline_pair(
    system: System,
    bed: &Testbed,
    payload: &Payload,
    mut run: BaselineTransfer,
) -> Measurement {
    // Exclude setup (connection establishment) from telemetry.
    bed.reset_telemetry();
    let (u0, k0, _) = telemetry(bed);
    let outcome = run(payload);
    let (u1, k1, ram) = telemetry(bed);
    let user_cpu = u1 - u0;
    // Wasm VM I/O: user time that is neither serialization nor protocol
    // head building — for the Wasm baseline this is boundary + memory
    // copies; the container baseline has no VM.
    let wasm_io_ns = match system {
        System::Wasmedge => user_cpu.saturating_sub(outcome.serialization_ns()),
        _ => 0,
    };
    Measurement {
        system,
        bytes: payload.flat().len(),
        latency_ns: outcome.latency_ns,
        serialization_ns: outcome.serialization_ns(),
        wasm_io_ns,
        user_cpu_ns: user_cpu,
        kernel_cpu_ns: k1 - k0,
        ram_peak: ram,
        checksum_ok: outcome.received_flat() == *payload.flat(),
    }
}

/// A Roadrunner plane on `bed` with the producer `a` on node 0 and a
/// consumer per name in `consumers`, each placed as `system` places the
/// target of an edge: `a`'s own VM (user space), `a`'s node (kernel
/// space) or node 1 (network).
fn deploy_edges(system: System, bed: &Arc<Testbed>, consumers: &[String]) -> RoadrunnerPlane {
    let mut plane =
        RoadrunnerPlane::new(Arc::clone(bed), ShimConfig::default().with_load_costs(false));
    plane
        .deploy(0, "a", rr_bundle("eval", "a", guest::producer()), "produce", false)
        .expect("deploy a");
    for name in consumers {
        let bundle = rr_bundle("eval", name, guest::consumer());
        match system {
            System::RoadrunnerUser => {
                plane.deploy_into_shared_vm("a", name, bundle, "consume", true)
            }
            System::RoadrunnerKernel => plane.deploy(0, name, bundle, "consume", true),
            System::RoadrunnerNetwork => plane.deploy(1, name, bundle, "consume", true),
            _ => unreachable!("the baselines deploy no plane"),
        }
        .expect("deploy a consumer");
    }
    plane
}

fn measure_roadrunner(system: System, bed: Arc<Testbed>, payload: &Payload) -> Measurement {
    let mut plane = deploy_edges(system, &bed, &["b".to_owned()]);
    // Deliver the input and run the producer *before* the measured
    // window, as §6.1 measures from "source sends".
    plane.inject("a", payload.flat()).expect("inject input");
    bed.reset_telemetry();
    let (u0, k0, _) = telemetry(&bed);
    let received = plane
        .transfer_edge("a", "b", &Bytes::new())
        .expect("roadrunner transfer succeeds");
    let (u1, k1, ram) = telemetry(&bed);
    let breakdown = plane.last_breakdown().expect("breakdown recorded");
    let cost = bed.cost();
    // Roadrunner never serializes; the only "serialization-path" work is
    // the 8-byte descriptor handoff.
    let serialization_ns = cost.wasm_boundary_ns + cost.vm_io_ns(8);
    let wasm_io_ns = cost.vm_io_ns(payload.flat().len()) * 2;
    Measurement {
        system,
        bytes: payload.flat().len(),
        latency_ns: breakdown.transfer_ns,
        serialization_ns,
        wasm_io_ns,
        user_cpu_ns: u1 - u0,
        kernel_cpu_ns: k1 - k0,
        ram_peak: ram,
        checksum_ok: received == *payload.flat(),
    }
}

/// Result of a fan-out experiment at one degree.
#[derive(Debug, Clone)]
pub struct FanoutMeasurement {
    /// System measured.
    pub system: System,
    /// Fan-out degree (number of target functions).
    pub degree: usize,
    /// Modelled makespan until every branch completed.
    pub makespan_ns: Nanos,
    /// Mean single-branch latency.
    pub branch_ns: Nanos,
    /// Serialization time per branch.
    pub serialization_ns: Nanos,
    /// Aggregate user CPU.
    pub user_cpu_ns: Nanos,
    /// Aggregate kernel CPU.
    pub kernel_cpu_ns: Nanos,
    /// Peak RAM over all sandboxes.
    pub ram_peak: u64,
}

impl FanoutMeasurement {
    /// Completed requests per second at this degree.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return f64::INFINITY;
        }
        self.degree as f64 * 1e9 / self.makespan_ns as f64
    }

    /// Serialization throughput (requests/s through the serializer).
    pub fn serialization_rps(&self) -> f64 {
        if self.serialization_ns == 0 {
            return f64::INFINITY;
        }
        1e9 / self.serialization_ns as f64
    }
}

/// Runs a fan-out of `degree` branches of `bytes` each and models the
/// parallel makespan.
///
/// Branches execute sequentially in virtual time (deterministic); the
/// makespan is then bounded by the slowest single branch, by aggregate
/// CPU over the node's cores, and by aggregate wire time on the shared
/// link:
/// `makespan = max(branch, Σcpu / cores, Σwire)` — the standard
/// saturation bound.
pub fn measure_fanout(system: System, degree: usize, bytes: usize, intra: bool) -> FanoutMeasurement {
    let payload = Payload::synthetic(PayloadKind::Text, 42, bytes);
    let bed = Arc::new(Testbed::paper());
    let cores = bed.node(0).cores();
    let mut branch_total: Nanos = 0;
    let mut serialization_ns: Nanos = 0;
    let mut wire_total: Nanos = 0;

    match system {
        System::Runc | System::Wasmedge => {
            let mut transfer = baseline_pair(system, &bed, usize::from(!intra));
            bed.reset_telemetry();
            for _ in 0..degree {
                let out = transfer(&payload);
                branch_total += out.latency_ns;
                serialization_ns = out.serialization_ns();
            }
        }
        _ => {
            let branches: Vec<String> = (0..degree).map(|i| format!("b{i}")).collect();
            let mut plane = deploy_edges(system, &bed, &branches);
            bed.reset_telemetry();
            let cost = bed.cost();
            serialization_ns = cost.wasm_boundary_ns + cost.vm_io_ns(8);
            for name in &branches {
                plane.inject("a", payload.flat()).expect("inject");
                plane
                    .transfer_edge("a", name, &Bytes::new())
                    .expect("roadrunner fanout transfer");
                let bd = plane.last_breakdown().expect("breakdown");
                branch_total += bd.transfer_ns;
                // The paper notes kernel-space fan-out pays extra async/IPC
                // coordination per branch.
                if system == System::RoadrunnerKernel {
                    branch_total += cost.ctx_switch_ns;
                }
            }
        }
    }

    if !intra {
        wire_total = bed.link_between(0, 1).wire_ns(bytes) * degree as Nanos;
    }
    let (user_cpu_ns, kernel_cpu_ns, ram_peak) = telemetry(&bed);
    let branch_ns = branch_total / degree.max(1) as Nanos;
    let cpu_bound = (user_cpu_ns + kernel_cpu_ns) / cores.max(1) as Nanos;
    let makespan_ns = branch_ns.max(cpu_bound).max(wire_total);
    FanoutMeasurement {
        system,
        degree,
        makespan_ns,
        branch_ns,
        serialization_ns,
        user_cpu_ns,
        kernel_cpu_ns,
        ram_peak,
    }
}

/// Payload sweep used by Fig. 7/8 (paper: 1 MB–500 MB).
pub fn payload_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![MB, 10 * MB, 60 * MB, 100 * MB]
    } else {
        vec![MB, 10 * MB, 60 * MB, 100 * MB, 250 * MB, 500 * MB]
    }
}

/// Fan-out degrees used by Fig. 9/10 (paper: up to 100).
pub fn fanout_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 5, 10, 25]
    } else {
        vec![1, 5, 10, 25, 50, 100]
    }
}

/// A command-line flag a figure binary may accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced, CI-sized run.
    Quick,
    /// `--workers N`: the sweep worker pool's size (`--workers 1` is the
    /// in-order serial loop).
    Workers,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::Workers => "--workers",
        }
    }
}

/// The parsed command line of a figure binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick` was passed.
    pub quick: bool,
    /// The value of `--workers`, if passed.
    pub workers: Option<usize>,
}

impl Args {
    /// Parses the process's arguments against the flags the binary
    /// `accepts`. An argument it does not accept, or a `--workers`
    /// without a number, prints the error and a usage line and exits
    /// with status 2.
    pub fn parse(accepts: &[Flag]) -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        Args::from_args(accepts, &args).unwrap_or_else(|err| {
            let program = program.rsplit('/').next().unwrap_or_default();
            let mut usage = program.to_owned();
            for &flag in accepts {
                let value = if flag == Flag::Workers { " N" } else { "" };
                usage.push_str(&format!(" [{}{value}]", flag.name()));
            }
            eprintln!("{program}: {err}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (the arguments after the program name) against the
    /// flags in `accepts`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not an accepted flag,
    /// or a `--workers` whose value is missing or not a number.
    pub(crate) fn from_args(accepts: &[Flag], args: &[impl AsRef<str>]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            let flag = accepts
                .iter()
                .find(|flag| flag.name() == arg)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            match flag {
                Flag::Quick => out.quick = true,
                Flag::Workers => {
                    let value = args.next().ok_or("`--workers` takes a number")?;
                    let workers = value
                        .parse()
                        .map_err(|_| format!("`--workers` takes a number, got `{value}`"))?;
                    out.workers = Some(workers);
                }
            }
        }
        Ok(out)
    }

    /// The sweep pool's size: `--workers N`, or one worker per
    /// available core.
    pub fn sweep_workers(&self) -> usize {
        self.workers.unwrap_or_else(available_workers)
    }
}

/// The eight panels Fig. 7–10 share after their latency panel (a):
/// title and value column.
const PANELS: [(&str, &str); 7] = [
    ("(b) total throughput (req/s)", "rps"),
    ("(c) serialization latency (s)", "serialization_s"),
    ("(d) serialization throughput (req/s)", "rps"),
    ("(e) total CPU (% of machine)", "cpu_pct"),
    ("(f) user-space CPU (%)", "cpu_pct"),
    ("(g) kernel-space CPU (%)", "cpu_pct"),
    ("(h) RAM (MB)", "ram_MB"),
];

/// Prints panel (a) titled `latency_title`, then [`PANELS`]: one line
/// per row, its system, its swept value (column `x`) and the panel's
/// formatted value.
fn print_panels(x: &str, latency_title: &str, rows: &[(System, usize, [String; 8])]) {
    let panels = std::iter::once((latency_title, "latency_s")).chain(PANELS);
    for (i, (title, column)) in panels.enumerate() {
        print_panel(title, &["series", x, column]);
        for (system, at, values) in rows {
            println!("{}\t{at}\t{}", system.label(), values[i]);
        }
    }
}

/// Prints Fig. 7/8's eight panels over a payload-size sweep.
pub fn print_transfer_panels(rows: &[Measurement]) {
    let cores = 4;
    let rows: Vec<_> = rows
        .iter()
        .map(|m| {
            let values = [
                fmt_secs(m.latency_ns),
                format!("{:.3}", m.throughput_rps()),
                fmt_secs(m.serialization_ns),
                format!("{:.3}", m.serialization_rps()),
                format!("{:.4}", m.cpu_total_pct(cores)),
                format!("{:.4}", m.cpu_user_pct(cores)),
                format!("{:.4}", m.cpu_kernel_pct(cores)),
                format!("{:.2}", m.ram_peak as f64 / 1e6),
            ];
            (m.system, m.bytes / MB, values)
        })
        .collect();
    print_panels("size_MB", "(a) total latency (s)", &rows);
}

/// Prints Fig. 9/10's eight panels over a fan-out sweep, CPU shares over
/// the makespan.
pub fn print_fanout_panels(rows: &[FanoutMeasurement]) {
    let rows: Vec<_> = rows
        .iter()
        .map(|m| {
            let cpu = |ns| format!("{:.4}", pct(ns, m.makespan_ns.max(1), 4));
            let values = [
                fmt_secs(m.branch_ns),
                format!("{:.3}", m.throughput_rps()),
                fmt_secs(m.serialization_ns),
                format!("{:.3}", m.serialization_rps()),
                cpu(m.user_cpu_ns + m.kernel_cpu_ns),
                cpu(m.user_cpu_ns),
                cpu(m.kernel_cpu_ns),
                format!("{:.2}", m.ram_peak as f64 / 1e6),
            ];
            (m.system, m.degree, values)
        })
        .collect();
    print_panels("fanout", "(a) total latency per branch (s)", &rows);
}

/// Prints a figure panel header.
pub fn print_panel(title: &str, columns: &[&str]) {
    println!();
    println!("## {title}");
    println!("{}", columns.join("\t"));
}

/// Formats seconds with enough precision for log-scale series.
pub fn fmt_secs(ns: Nanos) -> String {
    format!("{:.6}", secs(ns))
}

/// `ns` as seconds with six decimals, the way every JSON document here
/// prints a virtual time.
pub fn json_secs(ns: Nanos) -> Json {
    fixed(secs(ns), 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_node_ordering_matches_paper() {
        let size = 4 * MB;
        let user = measure_transfer_intra(System::RoadrunnerUser, size);
        let kernel = measure_transfer_intra(System::RoadrunnerKernel, size);
        let runc = measure_transfer_intra(System::Runc, size);
        let wasmedge = measure_transfer_intra(System::Wasmedge, size);
        assert!(user.checksum_ok && kernel.checksum_ok && runc.checksum_ok && wasmedge.checksum_ok);
        assert!(
            user.latency_ns < kernel.latency_ns,
            "user {} < kernel {}",
            user.latency_ns,
            kernel.latency_ns
        );
        assert!(
            kernel.latency_ns < wasmedge.latency_ns,
            "kernel {} < wasmedge {}",
            kernel.latency_ns,
            wasmedge.latency_ns
        );
        assert!(
            user.latency_ns < runc.latency_ns,
            "user {} < runc {}",
            user.latency_ns,
            runc.latency_ns
        );
        assert!(
            runc.latency_ns < wasmedge.latency_ns,
            "runc {} < wasmedge {}",
            runc.latency_ns,
            wasmedge.latency_ns
        );
    }

    #[test]
    fn inter_node_roadrunner_beats_baselines() {
        let size = 4 * MB;
        let rr = measure_transfer(System::RoadrunnerNetwork, size);
        let runc = measure_transfer(System::Runc, size);
        let wasmedge = measure_transfer(System::Wasmedge, size);
        assert!(rr.latency_ns < runc.latency_ns);
        assert!(runc.latency_ns < wasmedge.latency_ns);
        // Serialization reduction vs WasmEdge ≈ 97 % (paper abstract).
        let reduction =
            1.0 - rr.serialization_ns as f64 / wasmedge.serialization_ns as f64;
        assert!(reduction > 0.9, "serialization reduction was {reduction}");
    }

    #[test]
    fn fanout_throughput_grows_then_saturates() {
        let one = measure_fanout(System::RoadrunnerUser, 1, MB, true);
        let eight = measure_fanout(System::RoadrunnerUser, 8, MB, true);
        assert!(eight.throughput_rps() > one.throughput_rps() * 0.8);
        assert!(eight.makespan_ns >= one.makespan_ns);
    }

    #[test]
    fn args_accept_only_the_named_flags() {
        let load = [Flag::Quick, Flag::Workers];
        let none: [&str; 0] = [];
        assert_eq!(Args::from_args(&load, &none), Ok(Args::default()));
        assert_eq!(
            Args::from_args(&load, &["--quick", "--workers", "3"]),
            Ok(Args { quick: true, workers: Some(3) })
        );
        let serial = Args::from_args(&load, &["--workers", "1"]).unwrap();
        assert_eq!(serial.sweep_workers(), 1);
        assert_eq!(Args::default().sweep_workers(), available_workers());

        // A misspelt flag, or one this binary does not take, is an error.
        assert!(Args::from_args(&load, &["--quick", "--quik"]).is_err());
        // The load figures have one way to run: `--no-memo` is refused
        // like any unknown flag.
        assert!(Args::from_args(&load, &["--quick", "--no-memo"]).is_err());
        assert!(Args::from_args(&[Flag::Quick], &["--workers", "2"]).is_err());
        assert!(Args::from_args(&[], &["--quick"]).is_err());
        assert!(Args::from_args(&load, &["quick"]).is_err());
        // So is a `--workers` without a number.
        assert!(Args::from_args(&load, &["--workers", "abc"]).is_err());
        assert!(Args::from_args(&load, &["--workers", "-1"]).is_err());
        assert!(Args::from_args(&load, &["--workers"]).is_err());
    }

    #[test]
    fn quick_sweeps_are_subsets() {
        let quick = payload_sweep(true);
        let full = payload_sweep(false);
        assert!(quick.iter().all(|s| full.contains(s)));
        assert!(fanout_sweep(true).len() < fanout_sweep(false).len());
    }
}
