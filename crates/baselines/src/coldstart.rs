//! Cold-start and execution-latency models for Fig. 2a.
//!
//! Containers pay image unpack + runtime initialization at cold start and
//! a per-invocation platform overhead (ingress, containerized runtime
//! layers) at execution time. Wasm functions load a small binary into a
//! fresh VM; execution is interpreted (real instruction counts from our
//! engine) plus WASI overhead for host access. The constants below encode
//! the testbed description plus the paper's observed proportions:
//! Wasm cold starts far below container cold starts, Wasm execution
//! *faster* without WASI ("Hello World") and *slower* with WASI
//! ("Resize Image").

use std::sync::Arc;

use roadrunner::guest::{self, ResizeSpec, RESIZE_INPUT_PATH};
use roadrunner_vkernel::{CostModel, Nanos, Testbed};
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::{encode, EngineLimits, Instance, Linker};

/// Container image size measured by the paper (Fig. 2a): 76.9 MB.
pub const CONTAINER_IMAGE_BYTES: u64 = 76_900_000;
/// Wasm "Hello World" binary size from the paper: 3.19 MB (a realistic
/// Rust release build; our hand-assembled module is far smaller, so the
/// paper's value is used for the artifact-size series).
pub const PAPER_WASM_HELLO_BYTES: u64 = 3_190_000;
/// Per-invocation platform overhead of the warm container path (HTTP
/// ingress hop + containerized runtime layers) — why even "Hello World"
/// takes visible time in a container.
pub const CONTAINER_INVOKE_NS: Nanos = 1_000_000;
/// Per-invocation overhead of calling directly into a resident Wasm VM.
pub const WASM_INVOKE_NS: Nanos = 100_000;
/// Native instruction cost (2 GHz, superscalar) — the container runs the
/// same logical work compiled natively.
pub const NATIVE_INSTR_NS: f64 = 0.15;

/// One bar group of Fig. 2a.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartSample {
    /// Series label (`cont-hello`, `wasm-resize`, …).
    pub label: String,
    /// Cold-start latency.
    pub cold_ns: Nanos,
    /// Warm execution latency.
    pub exec_ns: Nanos,
    /// Deployable artifact size in bytes.
    pub artifact_bytes: u64,
}

/// Container cold start: pull/unpack the image from disk + runtime init.
pub fn container_cold_ns(cost: &CostModel, image_bytes: u64) -> Nanos {
    (image_bytes as f64 / cost.image_unpack_bytes_per_ns).round() as Nanos
        + cost.container_init_ns
}

/// Wasm cold start: decode + instantiate the binary.
pub fn wasm_cold_ns(cost: &CostModel, binary_bytes: u64) -> Nanos {
    (binary_bytes as f64 / cost.wasm_load_bytes_per_ns).round() as Nanos + cost.wasm_init_ns
}

/// A system's two-tier instantiation cost model: the **full** tier
/// (decode + instantiate from the artifact — today's cold start) and
/// the **restore** tier (resume a pre-built snapshot — Faasta-style
/// sub-millisecond instantiation for Wasm, CRIU-style checkpoint
/// restore for containers). A warm pool pays the full tier the first
/// time a (function, node) slot is built and the restore tier on every
/// later miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdStartTiers {
    /// Full decode + instantiate cost.
    pub full_ns: Nanos,
    /// Snapshot-restore cost (strictly below `full_ns` for any
    /// realistic artifact).
    pub restore_ns: Nanos,
}

/// Wasm snapshot-restore tier: copy the pre-instantiated VM image
/// (linear memory + globals, ≈ the binary's footprint) back into place
/// and remap its pages — no decode, no validation, no init. This is the
/// Faasta claim: restore cost is pure memory movement, which for a
/// few-MB guest lands well under 1 ms.
pub fn wasm_snapshot_restore_ns(cost: &CostModel, binary_bytes: u64) -> Nanos {
    let bytes = binary_bytes as usize;
    cost.memcpy_ns(bytes) + cost.page_map_ns_for(bytes)
}

/// Container checkpoint-restore tier: copy the checkpoint image back,
/// remap it, and re-enter the runtime (a handful of context switches
/// and syscalls for namespaces, cgroups and the supervisor hop). Far
/// cheaper than a full image unpack + init, but still orders of
/// magnitude above the Wasm restore.
pub fn container_restore_ns(cost: &CostModel, checkpoint_bytes: u64) -> Nanos {
    let bytes = checkpoint_bytes as usize;
    cost.memcpy_ns(bytes)
        + cost.page_map_ns_for(bytes)
        + 4 * cost.ctx_switch_ns
        + 16 * cost.syscall_ns
}

/// Both tiers for a container with the given image size. The checkpoint
/// a restore copies is the *resident* state, far smaller than the
/// on-disk image — modeled as a quarter of it (compressed layers,
/// shared page cache).
pub fn container_tiers(cost: &CostModel, image_bytes: u64) -> ColdStartTiers {
    ColdStartTiers {
        full_ns: container_cold_ns(cost, image_bytes),
        restore_ns: container_restore_ns(cost, image_bytes / 4),
    }
}

/// Counts the instructions a module executes for `export` (run in a
/// throwaway metering instance).
fn measure_instr_count(module: roadrunner_wasm::Module, export: &str) -> u64 {
    let mut linker = Linker::new();
    roadrunner_wasi::register::<WasiCtx>(&mut linker);
    let bed = Testbed::new(1, 4, 8 << 30, CostModel::paper_testbed());
    let sandbox = bed.node(0).sandbox("meter");
    let mut ctx = WasiCtx::new(sandbox);
    if module.imports.iter().any(|i| i.name == "path_open") {
        ctx.put_file(RESIZE_INPUT_PATH, vec![0x55; 4 << 20]);
    }
    let mut inst =
        Instance::new(module, &linker, EngineLimits::default(), Box::new(ctx)).expect("meters");
    inst.invoke(export, &[]).expect("metered run succeeds");
    inst.instr_count()
}

/// Fig. 2a, container + "Hello World".
pub fn container_hello(cost: &CostModel) -> ColdStartSample {
    let work = measure_instr_count(guest::hello_world(), "_start");
    ColdStartSample {
        label: "cont-hello".into(),
        cold_ns: container_cold_ns(cost, CONTAINER_IMAGE_BYTES),
        exec_ns: CONTAINER_INVOKE_NS + (work as f64 * NATIVE_INSTR_NS).round() as Nanos,
        artifact_bytes: CONTAINER_IMAGE_BYTES,
    }
}

/// Fig. 2a, Wasm + "Hello World" (no WASI): really runs the guest.
pub fn wasm_hello(testbed: &Arc<Testbed>) -> ColdStartSample {
    let cost = testbed.cost();
    let module = guest::hello_world();
    let binary_len = encode::encode(&module).len() as u64;
    let sandbox = testbed.node(0).sandbox("wasm-hello");
    let mut inst = Instance::new(
        module,
        &Linker::new(),
        EngineLimits::default(),
        Box::new(()),
    )
    .expect("hello instantiates");
    inst.invoke("_start", &[]).expect("hello runs");
    let exec_ns =
        WASM_INVOKE_NS + (inst.instr_count() as f64 * cost.wasm_instr_ns).round() as Nanos;
    sandbox.charge_user(exec_ns);
    ColdStartSample {
        label: "wasm-hello".into(),
        cold_ns: wasm_cold_ns(cost, PAPER_WASM_HELLO_BYTES.max(binary_len)),
        exec_ns,
        artifact_bytes: PAPER_WASM_HELLO_BYTES.max(binary_len),
    }
}

/// Fig. 2a, container + "Resize Image": native work, no WASI tax.
pub fn container_resize(cost: &CostModel, spec: ResizeSpec) -> ColdStartSample {
    let work = measure_instr_count(resize_with_input(spec).0, "_start");
    // Native file reads are cheap relative to the WASI path: charge the
    // raw copies only.
    let io_ns = cost.memcpy_ns(spec.input_len() as usize + spec.output_len() as usize);
    ColdStartSample {
        label: "cont-resize".into(),
        cold_ns: container_cold_ns(cost, CONTAINER_IMAGE_BYTES),
        exec_ns: CONTAINER_INVOKE_NS
            + (work as f64 * NATIVE_INSTR_NS).round() as Nanos
            + io_ns,
        artifact_bytes: CONTAINER_IMAGE_BYTES,
    }
}

fn resize_with_input(spec: ResizeSpec) -> (roadrunner_wasm::Module, Vec<u8>) {
    let module = guest::resize_image(spec);
    let img: Vec<u8> = (0..spec.input_len()).map(|i| (i % 256) as u8).collect();
    (module, img)
}

/// Fig. 2a, Wasm + "Resize Image" (WASI): really runs the guest through
/// `path_open`/`fd_read`/`fd_write`, paying every boundary crossing.
pub fn wasm_resize(testbed: &Arc<Testbed>, spec: ResizeSpec) -> ColdStartSample {
    let cost = testbed.cost();
    let (module, img) = resize_with_input(spec);
    let binary = encode::encode(&module);
    let binary_len = binary.len() as u64;
    let sandbox = testbed.node(0).sandbox("wasm-resize");
    let user_before = sandbox.account().user_ns();
    let mut linker = Linker::new();
    roadrunner_wasi::register::<WasiCtx>(&mut linker);
    let mut ctx = WasiCtx::new(sandbox.clone());
    ctx.put_file(RESIZE_INPUT_PATH, img);
    let mut inst =
        Instance::new(module, &linker, EngineLimits::default(), Box::new(ctx)).expect("resize");
    inst.invoke("_start", &[]).expect("resize runs");
    let wasi_ns = sandbox.account().user_ns() - user_before;
    let exec_ns = WASM_INVOKE_NS
        + (inst.instr_count() as f64 * cost.wasm_instr_ns).round() as Nanos
        + wasi_ns;
    ColdStartSample {
        label: "wasm-resize".into(),
        cold_ns: wasm_cold_ns(cost, binary_len.max(47_800)),
        exec_ns,
        artifact_bytes: binary_len.max(47_800),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bed() -> Arc<Testbed> {
        Arc::new(Testbed::paper())
    }

    #[test]
    fn wasm_cold_start_is_far_below_container() {
        let cost = CostModel::paper_testbed();
        let cont = container_cold_ns(&cost, CONTAINER_IMAGE_BYTES);
        let wasm = wasm_cold_ns(&cost, PAPER_WASM_HELLO_BYTES);
        assert!(wasm * 5 < cont, "wasm {wasm} vs container {cont}");
    }

    #[test]
    fn restore_tier_is_far_below_full_build_for_both_systems() {
        let cost = CostModel::paper_testbed();
        let wasm_full = wasm_cold_ns(&cost, PAPER_WASM_HELLO_BYTES);
        let wasm_restore = wasm_snapshot_restore_ns(&cost, PAPER_WASM_HELLO_BYTES);
        let cont = container_tiers(&cost, CONTAINER_IMAGE_BYTES);
        assert!(
            wasm_restore * 100 < wasm_full,
            "wasm restore {wasm_restore} vs full {wasm_full}"
        );
        assert!(
            cont.restore_ns * 100 < cont.full_ns,
            "container restore {} vs full {}",
            cont.restore_ns,
            cont.full_ns
        );
    }

    #[test]
    fn wasm_snapshot_restore_is_sub_millisecond() {
        // The Faasta headline: snapshot-style instantiation restores a
        // paper-sized Wasm guest in under 1 ms.
        let cost = CostModel::paper_testbed();
        let restore = wasm_snapshot_restore_ns(&cost, PAPER_WASM_HELLO_BYTES);
        assert!(restore < 1_000_000, "restore {restore} ns must be < 1 ms");
        // ... while the container restore is not (it is still far below
        // the full unpack + init).
        let cont = container_tiers(&cost, CONTAINER_IMAGE_BYTES);
        assert!(cont.restore_ns > 1_000_000);
    }

    #[test]
    fn hello_wasm_executes_faster_than_container() {
        let bed = bed();
        let cont = container_hello(bed.cost());
        let wasm = wasm_hello(&bed);
        assert!(
            wasm.exec_ns < cont.exec_ns,
            "no-WASI wasm ({}) must beat container ({})",
            wasm.exec_ns,
            cont.exec_ns
        );
    }

    #[test]
    fn resize_wasm_executes_slower_than_container() {
        let bed = bed();
        let spec = ResizeSpec { width: 512, height: 512 };
        let cont = container_resize(bed.cost(), spec);
        let wasm = wasm_resize(&bed, spec);
        assert!(
            wasm.exec_ns > cont.exec_ns,
            "WASI wasm ({}) must trail container ({})",
            wasm.exec_ns,
            cont.exec_ns
        );
    }

    #[test]
    fn artifact_sizes_match_figure() {
        let bed = bed();
        let cont = container_hello(bed.cost());
        let wasm = wasm_hello(&bed);
        assert_eq!(cont.artifact_bytes, 76_900_000);
        assert_eq!(wasm.artifact_bytes, 3_190_000);
    }
}
