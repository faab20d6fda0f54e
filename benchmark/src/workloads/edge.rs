//! `edge_resize`: cold invocations of the paper's motivating image
//! pipeline. Each op decodes and instantiates `guest::resize_image` from
//! its bundle bytes with the WASI linker, runs `_start` over a seeded
//! frame (≈ 2 M interpreted instructions, a WASI file read and a stdout
//! write), and ships the half-scale result over a network-mode edge.
//!
//! The `wasm` interpreter is ≈ 98 % of the op and the data path almost
//! nothing: this is the guard for the "one interpreter" roadmap item, and
//! the workload on which a hose optimisation must show no change.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::guest::{self, ResizeSpec, RESIZE_INPUT_PATH};
use roadrunner::{Mode, RoadrunnerPlane, ShimConfig};
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::Testbed;
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::{decode, encode, EngineLimits, Instance, Linker};

use super::{bundle, BatchOut, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{spanned, Tracer};

const EXTRACT: &str = "extract";
const INFER: &str = "infer";

/// Span names of the traced pass, one per public call of an op.
pub mod span {
    pub const OP: &str = "edge_resize.op";
    pub const DECODE: &str = "wasm.decode";
    pub const INSTANTIATE: &str = "wasm.instantiate";
    pub const START: &str = "wasm.invoke._start";
    pub const TRANSFER: &str = "core.plane.transfer_edge";
}

/// The resize function's bundle bytes, its input frame and the plane the
/// result ships over.
pub struct EdgeResize {
    bed: Arc<Testbed>,
    spec: ResizeSpec,
    binary: Vec<u8>,
    linker: Linker,
    sandbox: Sandbox,
    frame: Vec<u8>,
    expected: Bytes,
    /// `_start`'s instruction count, fixed by the spec: every op must
    /// reproduce it exactly.
    instr_count: u64,
    plane: RoadrunnerPlane,
    batch_ops: u64,
    virt_batches: u64,
    trace_ops: u64,
}

/// 2× nearest-neighbour downscale, the host-side reference for the
/// guest's output: `out[y·(w/2) + x] = in[2y·w + 2x]`.
pub fn downscale(frame: &[u8], spec: ResizeSpec) -> Vec<u8> {
    let (w, h) = (spec.width as usize, spec.height as usize);
    let mut out = Vec::with_capacity(spec.output_len() as usize);
    for y in 0..h / 2 {
        for x in 0..w / 2 {
            out.push(frame[2 * y * w + 2 * x]);
        }
    }
    out
}

/// The frame geometry for a seed: 480 rows, 640 columns moved by at most
/// ±4 so the instruction count (and the virtual latency) depends on the
/// seed while host time per op stays within ±0.6 %.
pub fn spec_for(seed: u64) -> ResizeSpec {
    let jitter = Rng::new(seed ^ 0x00F2_A3E5).below(5) as u32;
    ResizeSpec {
        width: 636 + 2 * jitter,
        height: 480,
    }
}

impl EdgeResize {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let bed = Arc::new(Testbed::paper());
        let spec = spec_for(seed);
        let mut rng = Rng::new(seed);
        let frame: Vec<u8> = (0..spec.input_len())
            .map(|_| rng.next_u64() as u8)
            .collect();
        let expected = Bytes::from(downscale(&frame, spec));
        let binary = encode::encode(&guest::resize_image(spec));
        let mut linker = Linker::new();
        roadrunner_wasi::register::<WasiCtx>(&mut linker);

        let mut plane = RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default());
        plane
            .deploy(
                0,
                EXTRACT,
                bundle(EXTRACT, guest::producer()),
                "produce",
                false,
            )
            .expect("deploy extract");
        plane
            .deploy(1, INFER, bundle(INFER, guest::consumer()), "consume", true)
            .expect("deploy infer");

        let mut this = Self {
            sandbox: bed.node(0).sandbox("resize"),
            bed,
            spec,
            binary,
            linker,
            frame,
            expected,
            instr_count: 0,
            plane,
            batch_ops: scale.ops(20, 2),
            virt_batches: scale.virt_batches(scale.ops(20, 2)),
            trace_ops: scale.ops(100, 4),
        };
        // Warm-up op: establishes the edge's connection and pins the
        // instruction count later ops are checked against.
        let (_, instrs) = this.op(0, None).expect("warm-up op verifies");
        this.instr_count = instrs;
        this
    }

    /// One cold invocation; `Some((virtual latency, instructions))` when
    /// the delivered frame verifies.
    fn op(&mut self, op: u64, mut tracer: Option<&mut Tracer>) -> Option<(u64, u64)> {
        let clock = self.bed.clock().clone();
        let cost = Arc::clone(self.bed.cost());
        let started = clock.now();

        // Cold start: decode + instantiate, charged as `Shim::load_module`
        // charges them.
        let module = spanned!(tracer, span::DECODE, op, decode::decode(&self.binary)).ok()?;
        let load_ns = (self.binary.len() as f64 / cost.wasm_load_bytes_per_ns).round() as u64
            + cost.wasm_init_ns;
        self.sandbox.charge_user(load_ns);
        let mut wasi = WasiCtx::new(self.sandbox.clone());
        wasi.put_file(RESIZE_INPUT_PATH, self.frame.clone());
        let mut instance = spanned!(
            tracer,
            span::INSTANTIATE,
            op,
            Instance::new(
                module,
                &self.linker,
                EngineLimits::default(),
                Box::new(wasi)
            )
        )
        .ok()?;

        spanned!(tracer, span::START, op, instance.invoke("_start", &[])).ok()?;
        let instrs = instance.instr_count();
        self.sandbox
            .charge_user((instrs as f64 * cost.wasm_instr_ns).round() as u64);
        let resized = Bytes::from(std::mem::take(&mut instance.data_mut::<WasiCtx>()?.stdout));

        let delivered = spanned!(
            tracer,
            span::TRANSFER,
            op,
            self.plane.transfer_edge(EXTRACT, INFER, &resized)
        )
        .ok()?;
        let network = self.plane.last_breakdown()?.mode == Mode::Network;
        let same_work = self.instr_count == 0 || instrs == self.instr_count;
        (network && same_work && delivered == self.expected)
            .then(|| (clock.now() - started, instrs))
    }
}

impl Workload for EdgeResize {
    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn virt_batches(&self) -> u64 {
        self.virt_batches
    }

    fn run_batch(&mut self, _index: u64, out: &mut BatchOut) {
        let clock = self.bed.clock().clone();
        let started = clock.now();
        let bytes = self.expected.len();
        for i in 0..self.batch_ops {
            let verified = self.op(i, None).map(|(virt_ns, _)| (virt_ns, bytes));
            out.op(verified);
        }
        out.virt_span_ns = clock.now() - started;
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, out: &mut BatchOut) {
        let bytes = self.expected.len();
        for i in 0..self.trace_ops {
            let span = tracer.begin(span::OP, i);
            let verified = self.op(i, Some(tracer));
            tracer.end(span);
            out.op(verified.map(|(virt_ns, _)| (virt_ns, bytes)));
        }
    }

    fn describe(&self) -> String {
        format!(
            "cold resize_image({}x{}) from {} bundle bytes: decode, instantiate, _start ({} instructions), {}-byte result over a network edge; {} ops per batch",
            self.spec.width,
            self.spec.height,
            self.binary.len(),
            self.instr_count,
            self.expected.len(),
            self.batch_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downscale_takes_every_other_pixel_of_every_other_row() {
        let spec = ResizeSpec {
            width: 4,
            height: 4,
        };
        let frame: Vec<u8> = (0..16).collect();
        assert_eq!(downscale(&frame, spec), vec![0, 2, 8, 10]);
    }

    #[test]
    fn seeded_geometry_stays_even_and_near_640() {
        for seed in 0..50 {
            let spec = spec_for(seed);
            assert!(spec.width.is_multiple_of(2) && (636..=644).contains(&spec.width));
        }
    }
}
