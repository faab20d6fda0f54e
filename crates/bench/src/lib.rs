//! Shared harness for the figure generators.
//!
//! Every figure/table of the paper's evaluation has a binary in
//! `src/bin/` that drives the *real* systems (Roadrunner plane, RunC-like
//! and WasmEdge-like pairs) over a fresh virtual testbed and prints the
//! same series the paper plots. This module holds the common machinery:
//! system setup, single-edge measurements, the fan-out makespan model and
//! table printing.
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

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::{
    available_workers, execute, execute_concurrent, DataPlane, FunctionBundle, SweepMode,
    WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{secs, ClusterSpec, Nanos, SchedResources, Testbed};
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

fn rr_bundle(workflow: &str, name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
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
    execute_concurrent(plane, &clock, &workflow, payload.clone(), fresh)
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

/// Runs one transfer of `bytes` on `system` and returns the measurement.
/// Every run uses a fresh testbed, so runs are independent and
/// deterministic.
pub fn measure_transfer(system: System, bytes: usize) -> Measurement {
    let payload = Payload::synthetic(PayloadKind::Text, 42, bytes);
    let bed = Arc::new(Testbed::paper());
    match system {
        System::RoadrunnerUser | System::RoadrunnerKernel | System::RoadrunnerNetwork => {
            measure_roadrunner(system, bed, &payload)
        }
        System::Runc => {
            let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 1);
            measure_baseline_pair(system, &bed, &payload, |p| {
                pair.transfer(p).expect("runc transfer succeeds")
            })
        }
        System::Wasmedge => {
            let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 1);
            measure_baseline_pair(system, &bed, &payload, |p| {
                pair.transfer(p).expect("wasmedge transfer succeeds")
            })
        }
    }
}

/// Intra-node variant: both functions on node 0 (baselines talk over
/// loopback).
pub fn measure_transfer_intra(system: System, bytes: usize) -> Measurement {
    let payload = Payload::synthetic(PayloadKind::Text, 42, bytes);
    let bed = Arc::new(Testbed::paper());
    match system {
        System::RoadrunnerUser | System::RoadrunnerKernel | System::RoadrunnerNetwork => {
            measure_roadrunner(system, bed, &payload)
        }
        System::Runc => {
            let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 0);
            measure_baseline_pair(system, &bed, &payload, |p| {
                pair.transfer(p).expect("runc transfer succeeds")
            })
        }
        System::Wasmedge => {
            let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
            measure_baseline_pair(system, &bed, &payload, |p| {
                pair.transfer(p).expect("wasmedge transfer succeeds")
            })
        }
    }
}

fn measure_baseline_pair(
    system: System,
    bed: &Testbed,
    payload: &Payload,
    mut run: impl FnMut(&Payload) -> roadrunner_baselines::BaselineOutcome,
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

fn measure_roadrunner(system: System, bed: Arc<Testbed>, payload: &Payload) -> Measurement {
    let mut plane = RoadrunnerPlane::new(
        Arc::clone(&bed),
        ShimConfig::default().with_load_costs(false),
    );
    plane
        .deploy(0, "a", rr_bundle("eval", "a", guest::producer()), "produce", false)
        .expect("deploy a");
    match system {
        System::RoadrunnerUser => plane
            .deploy_into_shared_vm("a", "b", rr_bundle("eval", "b", guest::consumer()), "consume", true)
            .expect("deploy b"),
        System::RoadrunnerKernel => plane
            .deploy(0, "b", rr_bundle("eval", "b", guest::consumer()), "consume", true)
            .expect("deploy b"),
        System::RoadrunnerNetwork => plane
            .deploy(1, "b", rr_bundle("eval", "b", guest::consumer()), "consume", true)
            .expect("deploy b"),
        _ => unreachable!("baseline systems handled elsewhere"),
    }
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
/// saturation bound, the same shape `vkernel::pipeline::run_fanout`
/// produces.
pub fn measure_fanout(system: System, degree: usize, bytes: usize, intra: bool) -> FanoutMeasurement {
    let payload = Payload::synthetic(PayloadKind::Text, 42, bytes);
    let bed = Arc::new(Testbed::paper());
    let cores = bed.node(0).cores();
    let mut branch_total: Nanos = 0;
    let mut serialization_ns: Nanos = 0;
    let mut wire_total: Nanos = 0;

    match system {
        System::Runc => {
            let mut pair =
                RuncPair::establish(Arc::clone(&bed), 0, if intra { 0 } else { 1 });
            bed.reset_telemetry();
            for _ in 0..degree {
                let out = pair.transfer(&payload).expect("runc fanout transfer");
                branch_total += out.latency_ns;
                serialization_ns = out.serialization_ns();
            }
        }
        System::Wasmedge => {
            let mut pair =
                WasmedgePair::establish(Arc::clone(&bed), 0, if intra { 0 } else { 1 });
            bed.reset_telemetry();
            for _ in 0..degree {
                let out = pair.transfer(&payload).expect("wasmedge fanout transfer");
                branch_total += out.latency_ns;
                serialization_ns = out.serialization_ns();
            }
        }
        _ => {
            let mut plane = RoadrunnerPlane::new(
                Arc::clone(&bed),
                ShimConfig::default().with_load_costs(false),
            );
            plane
                .deploy(0, "a", rr_bundle("eval", "a", guest::producer()), "produce", false)
                .expect("deploy a");
            for i in 0..degree {
                let name = format!("b{i}");
                let bundle = rr_bundle("eval", &name, guest::consumer());
                match system {
                    System::RoadrunnerUser => plane
                        .deploy_into_shared_vm("a", &name, bundle, "consume", true)
                        .expect("deploy branch"),
                    System::RoadrunnerKernel => plane
                        .deploy(0, &name, bundle, "consume", true)
                        .expect("deploy branch"),
                    System::RoadrunnerNetwork => plane
                        .deploy(1, &name, bundle, "consume", true)
                        .expect("deploy branch"),
                    _ => unreachable!(),
                }
            }
            bed.reset_telemetry();
            let cost = bed.cost();
            serialization_ns = cost.wasm_boundary_ns + cost.vm_io_ns(8);
            for i in 0..degree {
                let name = format!("b{i}");
                plane.inject("a", payload.flat()).expect("inject");
                plane
                    .transfer_edge("a", &name, &Bytes::new())
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
        wire_total = bed.wan().wire_ns(bytes) * degree as Nanos;
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

/// Whether `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    flag("--quick")
}

/// Whether `name` was passed on the command line. Load benches accept
/// `--no-memo` through this to produce the unmemoized reference run CI
/// diffs the (default) memoized output against.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `--workers` on the command line, if any.
pub fn workers_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--workers" {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Sweep execution mode from the command line: `--serial` forces the
/// in-order reference loop (the byte-identity baseline CI diffs
/// against), `--workers N` sizes the pool explicitly, and the default
/// is one worker per available core.
pub fn sweep_mode_flag() -> SweepMode {
    if flag("--serial") {
        SweepMode::Serial
    } else {
        SweepMode::Parallel { workers: workers_flag().unwrap_or_else(available_workers) }
    }
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
    fn quick_sweeps_are_subsets() {
        let quick = payload_sweep(true);
        let full = payload_sweep(false);
        assert!(quick.iter().all(|s| full.contains(s)));
        assert!(fanout_sweep(true).len() < fanout_sweep(false).len());
    }
}
