//! The five workloads. Each is a closed loop with one caller on one
//! thread — this is a library and a simulator, whose callers wait for
//! every reply — cut into equal batches so the harness can report the
//! median batch rather than total ÷ total.

pub mod baseline;
pub mod cluster;
pub mod edge;
pub mod hose;

use std::sync::Arc;

use roadrunner_platform::FunctionBundle;
use roadrunner_wasm::{encode, Module};

use crate::stats::Fnv;
use crate::trace::Tracer;

/// Full op counts, or 1/50 of them for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Ops a workload's virtual metrics are computed over at full scale:
/// ≥ 1 000, so the 99th percentile has ten samples beyond it.
pub(crate) const VIRT_OPS: u64 = 1_020;

impl Scale {
    /// Leading batches of `batch_ops` ops that cover [`VIRT_OPS`] (1/50
    /// of them for smoke).
    pub(crate) fn virt_batches(self, batch_ops: u64) -> u64 {
        self.ops(VIRT_OPS, 24).div_ceil(batch_ops).max(1)
    }

    /// `full` at full scale, `full / 50` (at least `floor`) for smoke.
    pub fn ops(self, full: u64, floor: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 50).max(floor),
        }
    }
}

/// What one batch reports back to the harness.
#[derive(Debug, Default)]
pub struct BatchOut {
    /// Ops started.
    pub attempted: u64,
    /// Ops that trapped, errored, or whose output did not verify.
    pub failed: u64,
    /// Payload bytes really moved by verified ops (memo replays move none).
    pub bytes: u64,
    /// Virtual latency of each verified op, in virtual nanoseconds.
    pub virt_ns: Vec<u64>,
    /// Virtual time the batch spanned (its makespan on the model's clock).
    pub virt_span_ns: u64,
    /// FNV over every op's virtual outputs, in op order.
    pub digest: Fnv,
}

impl BatchOut {
    pub fn clear(&mut self) {
        // Keep the latency buffer's capacity across batches.
        let mut virt_ns = std::mem::take(&mut self.virt_ns);
        virt_ns.clear();
        *self = BatchOut {
            virt_ns,
            ..BatchOut::default()
        };
    }

    /// Books one op: verified ops contribute their virtual latency.
    pub fn op(&mut self, verified: Option<(u64, usize)>) {
        self.attempted += 1;
        match verified {
            Some((virt_ns, bytes)) => {
                self.virt_ns.push(virt_ns);
                self.digest.write(virt_ns);
                self.bytes += bytes as u64;
            }
            None => self.failed += 1,
        }
    }
}

/// One benchmark workload after set-up: deployed, warmed, ready to run
/// equal batches.
pub trait Workload {
    /// Ops per batch (fixed for the run).
    fn batch_ops(&self) -> u64;

    /// Leading batches whose virtual outputs define the `virt_*` metrics
    /// and the digest. The harness always runs at least this many, so the
    /// virtual numbers are a function of code and seed alone, never of
    /// how many batches the host fitted into the time window.
    fn virt_batches(&self) -> u64;

    /// Runs batch `index` untraced, verifying every output.
    fn run_batch(&mut self, index: u64, out: &mut BatchOut);

    /// Runs a short traced pass: spans around the public calls that
    /// compose each op.
    fn traced_pass(&mut self, tracer: &mut Tracer, out: &mut BatchOut);

    /// Checks too slow for the timed window (run once, after it).
    fn final_check(&mut self, _out: &mut BatchOut) {}

    /// One line for the report: sizes and op shape.
    fn describe(&self) -> String;
}

/// Every workload, in report order.
pub const NAMES: [&str; 5] = [
    "hose_bulk",
    "hose_small",
    "baseline_codec",
    "edge_resize",
    "cluster_load",
];

/// Complete set-up of workload `name`: testbed, payload synthesis,
/// deployment, one warm-up op per op class (and, for the cluster,
/// saturation calibration). `None` for an unknown name.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hose_bulk" => Box::new(hose::Hose::setup(hose::Size::Bulk, seed, scale)),
        "hose_small" => Box::new(hose::Hose::setup(hose::Size::Small, seed, scale)),
        "baseline_codec" => Box::new(baseline::BaselineCodec::setup(seed, scale)),
        "edge_resize" => Box::new(edge::EdgeResize::setup(seed, scale)),
        "cluster_load" => Box::new(cluster::ClusterLoad::setup(seed, scale)),
        _ => return None,
    })
}

/// A Wasm bundle in the benchmark's workflow/tenant (one trust domain,
/// so functions may share a VM).
pub(crate) fn bundle(name: &str, module: Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("benchmark")
            .with_tenant("bench"),
    )
}

/// Virtual CPU and RAM telemetry summed over every sandbox of `bed`:
/// `(user ns, kernel ns, peak RAM bytes)` — the raw series behind the
/// paper's CPU and RAM panels.
pub(crate) fn telemetry(bed: &roadrunner_vkernel::Testbed) -> (u64, u64, u64) {
    bed.nodes()
        .iter()
        .flat_map(|node| node.accounts())
        .fold((0, 0, 0), |acc, a| {
            (
                acc.0 + a.user_ns(),
                acc.1 + a.kernel_ns(),
                acc.2 + a.ram_peak(),
            )
        })
}

/// Virtual telemetry per op of `ops` calls of `op` on `bed`:
/// `(user CPU ms, kernel CPU ms, peak RAM MB)`.
pub(crate) fn telemetry_per_op(
    bed: &roadrunner_vkernel::Testbed,
    ops: u64,
    mut op: impl FnMut(u64),
) -> (f64, f64, f64) {
    bed.reset_telemetry();
    let (user0, kernel0, _) = telemetry(bed);
    (0..ops).for_each(&mut op);
    let (user, kernel, ram) = telemetry(bed);
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops as f64;
    (
        per_op_ms(user - user0),
        per_op_ms(kernel - kernel0),
        ram as f64 / 1e6,
    )
}

/// Payload size for a seed: the nominal size moved by at most ±1/800, so
/// different seeds give different inputs (and different virtual times)
/// while host cost per op stays within a fraction of a percent.
pub(crate) fn seeded_size(nominal: usize, seed: u64) -> usize {
    let span = (nominal / 400).max(1) as u64;
    let offset = crate::stats::Rng::new(seed ^ 0x5EED_517E).below(span + 1);
    nominal - (span / 2) as usize + offset as usize
}
