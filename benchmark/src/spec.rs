//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repository root is generated from
//! these tables (`--print-spec`) and a test keeps the two identical.

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// Absolute floor under the `setup_s` bound: a worsening smaller than
/// this many seconds is scheduler noise on a ~50 ms set-up, not a
/// regression. (`--repeat` applies it; `BENCHMARK.json` cannot express
/// it, so the driver sees the relative bound alone.)
pub const SETUP_FLOOR_S: f64 = 0.020;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "hose_bulk",
        why: "16 MB transfer_edge rotating user/kernel/network mode: per-byte work (memory copies, shim, vkernel buffers) is >99.9% of an op; the paper's headline path",
    },
    WorkloadDef {
        name: "hose_small",
        why: "same deployment, 4 KiB payload: per-call fixed cost is everything and bytes nothing, so a bulk win bought with per-call work shows here as a loss",
    },
    WorkloadDef {
        name: "baseline_codec",
        why: "RunC/WasmEdge pairs over HTTP: serial codec, http framing, wasi socket loops and copying tcp do all the work, core none; a shim or hose change must not move it",
    },
    WorkloadDef {
        name: "edge_resize",
        why: "cold image-resize invocations: the wasm interpreter is ~98% of an op and the data path almost nothing; guards the one-interpreter item, hose changes must not move it",
    },
    WorkloadDef {
        name: "cluster_load",
        why: "memoized pipeline instances under open-loop burst and closed-loop autoscaled load: loadgen, scheduler, warm pool, overload control, sched timelines; data path bypassed",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
    /// Clock and meaning (end to end), or the end-to-end metric and
    /// workload this layer metric should move (per layer).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        note,
    }
}

/// The same seven on every workload. `host` = wall-clock of this
/// machine; `virt` = the model's virtual clock, which a host-only change
/// must leave bit-identical (the driver's bound tolerates seed-to-seed
/// input jitter; `--repeat` demands equality).
///
/// The host bounds are three times the spread this 2-core shared VM
/// shows between runs of the *same* code (its speed wanders by 3-7 % on
/// a ten-second scale, see README "Steadiness"); a tighter bound would
/// reject unchanged code.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25, "host: mean of the medians of two rounds of >= 3 complete set-ups, one before and one after the measured window (testbed, payload synthesis, deploy = decode/validate/compile/instantiate, one warm-up op per op class, cluster calibration)"),
    e2e("ops_per_s", "ops/s", Higher, 0.25, "host: batch ops / median batch wall time, >= 30 equal batches per run"),
    e2e("cpu_us_per_op", "us", Lower, 0.25, "host: median batch process CPU (user+sys, all threads) / batch ops; reciprocal of ops_per_s until an engine runs in parallel"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "host: VmHWM of the workload's process"),
    e2e("virt_ms_p50", "ms", Lower, 0.05, "virt: median op latency - 'source sends -> target has it' for transfers, sojourn for instances"),
    e2e("virt_ms_p99", "ms", Lower, 0.05, "virt: 99th percentile of the same (>= 1000 ops, so >= 10 samples beyond it)"),
    e2e("virt_ops_per_s", "ops/s", Higher, 0.05, "virt: completed ops / virtual makespan (the paper's extrapolated throughput; achieved rate under load)"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

/// Per-layer metrics of the traced pass, grouped by workspace module.
/// Host times are medians of isolated loops or of benchmark-side spans;
/// `exact` marks model outputs that repeat bit for bit.
pub const PER_LAYER: &[MetricDef] = &[
    // ---- wasm
    layer("wasm.decode_us", "us", Lower, "setup_s everywhere; ops_per_s on edge_resize"),
    layer("wasm.validate_us", "us", Lower, "setup_s everywhere; ops_per_s on edge_resize"),
    layer("wasm.instantiate_us", "us", Lower, "setup_s everywhere; ops_per_s on edge_resize"),
    layer("wasm.instr_ns", "ns", Lower, "ops_per_s and cpu_us_per_op on edge_resize; none on hose_*"),
    layer("wasm.invoke_fixed_ns", "ns", Lower, "ops_per_s on hose_small; none on hose_bulk"),
    layer("wasm.memory.write_ns_per_kib", "ns/KiB", Lower, "ops_per_s on hose_bulk"),
    layer("wasm.instr_count_per_op.resize", "count", Lower, "exact; virt_ms_p50 on edge_resize"),
    layer("wasm.instr_count_per_op.wasmedge", "count", Lower, "exact; virt_ms_p50 on baseline_codec"),
    // ---- wasi
    layer("wasi.send_all_us_per_mib", "us/MiB", Lower, "ops_per_s on baseline_codec"),
    layer("wasi.recv_all_us_per_mib", "us/MiB", Lower, "ops_per_s on baseline_codec"),
    // ---- serial
    layer("serial.text.encode_ns_per_kib.text", "ns/KiB", Lower, "ops_per_s on baseline_codec; none elsewhere"),
    layer("serial.text.encode_ns_per_kib.sensor", "ns/KiB", Lower, "ops_per_s on baseline_codec; none elsewhere"),
    layer("serial.text.decode_ns_per_kib.text", "ns/KiB", Lower, "ops_per_s on baseline_codec; none elsewhere"),
    layer("serial.text.decode_ns_per_kib.sensor", "ns/KiB", Lower, "ops_per_s on baseline_codec; none elsewhere"),
    layer("serial.binary.encode_ns_per_kib.sensor", "ns/KiB", Lower, "ops_per_s on baseline_codec (received_flat re-encoding)"),
    layer("serial.binary.decode_ns_per_kib.sensor", "ns/KiB", Lower, "none today: no workload decodes binary; guard for a codec swap"),
    layer("serial.payload.synth_ns_per_kib.sensor", "ns/KiB", Lower, "setup_s on baseline_codec"),
    layer("serial.text.expansion_ratio.sensor", "ratio", Lower, "exact; virt_ms_p50 on baseline_codec (bytes on the wire per flat byte)"),
    // ---- http
    layer("http.frame_ns_per_kib", "ns/KiB", Lower, "ops_per_s on baseline_codec"),
    layer("http.parse_ns_per_kib", "ns/KiB", Lower, "ops_per_s on baseline_codec"),
    layer("http.small_exchange_ns", "ns", Lower, "ops_per_s on baseline_codec (the ack)"),
    // ---- vkernel
    layer("vkernel.pipe.gift_splice_ns_per_mib", "ns/MiB", Lower, "ops_per_s on hose_bulk; must stay O(1) per chunk - the zero-copy invariant in host time"),
    layer("vkernel.pipe.copy_ns_per_mib", "ns/MiB", Lower, "none today (the hose gifts pages); the copying contrast to gift_splice"),
    layer("vkernel.tcp.spliced_ns_per_mib", "ns/MiB", Lower, "ops_per_s on hose_bulk (network third)"),
    layer("vkernel.unix.copy_ns_per_mib", "ns/MiB", Lower, "ops_per_s on hose_bulk (kernel third)"),
    layer("vkernel.tcp.copy_ns_per_mib", "ns/MiB", Lower, "ops_per_s on baseline_codec"),
    layer("vkernel.tcp.small_msg_ns", "ns", Lower, "ops_per_s on hose_small"),
    layer("vkernel.sched.reserve_ns", "ns", Lower, "ops_per_s on cluster_load"),
    layer("vkernel.sched.event_ns", "ns", Lower, "ops_per_s on cluster_load"),
    layer("vkernel.account.user_cpu_ms_per_op.hose", "ms", Lower, "exact, virtual; virt_ms_p50 on hose_bulk (the paper's CPU panel)"),
    layer("vkernel.account.kernel_cpu_ms_per_op.hose", "ms", Lower, "exact, virtual; virt_ms_p50 on hose_bulk"),
    layer("vkernel.account.ram_peak_mb.hose", "MB", Lower, "exact, virtual; the paper's RAM panel on hose_bulk"),
    layer("vkernel.account.user_cpu_ms_per_op.wasmedge", "ms", Lower, "exact, virtual; virt_ms_p50 on baseline_codec"),
    layer("vkernel.account.kernel_cpu_ms_per_op.wasmedge", "ms", Lower, "exact, virtual; virt_ms_p50 on baseline_codec"),
    layer("vkernel.account.ram_peak_mb.wasmedge", "MB", Lower, "exact, virtual; the paper's RAM panel on baseline_codec"),
    // ---- core
    layer("core.shim.load_module_us", "us", Lower, "setup_s on hose_*, edge_resize, cluster_load"),
    layer("core.shim.write_memory_host_ns_per_kib", "ns/KiB", Lower, "ops_per_s on hose_bulk"),
    layer("core.shim.read_memory_host_ns_per_kib", "ns/KiB", Lower, "ops_per_s on hose_bulk"),
    layer("core.shim.write_memory_host_fixed_ns", "ns", Lower, "ops_per_s on hose_small"),
    layer("core.shim.read_memory_host_fixed_ns", "ns", Lower, "ops_per_s on hose_small"),
    layer("core.shim.invoke_fixed_ns", "ns", Lower, "ops_per_s on hose_small"),
    layer("core.region.check_ns", "ns", Lower, "ops_per_s on hose_small"),
    layer("core.userspace.transfer_us.bulk", "us", Lower, "ops_per_s on hose_bulk (a third of the ops)"),
    layer("core.userspace.transfer_us.small", "us", Lower, "ops_per_s on hose_small (a third of the ops)"),
    layer("core.kernelspace.send_us.bulk", "us", Lower, "ops_per_s on hose_bulk (a third of the ops)"),
    layer("core.kernelspace.send_us.small", "us", Lower, "ops_per_s on hose_small (a third of the ops)"),
    layer("core.kernelspace.recv_us.bulk", "us", Lower, "ops_per_s on hose_bulk (a third of the ops)"),
    layer("core.kernelspace.recv_us.small", "us", Lower, "ops_per_s on hose_small (a third of the ops)"),
    layer("core.hose.send_us.bulk", "us", Lower, "ops_per_s on hose_bulk (a third of the ops)"),
    layer("core.hose.send_us.small", "us", Lower, "ops_per_s on hose_small (a third of the ops)"),
    layer("core.hose.recv_us.bulk", "us", Lower, "ops_per_s on hose_bulk (a third of the ops)"),
    layer("core.hose.recv_us.small", "us", Lower, "ops_per_s on hose_small (a third of the ops)"),
    layer("core.plane.transfer_edge_us.user.bulk", "us", Lower, "ops_per_s on hose_bulk: a mode-only win moves the total by at most a third of its own gain"),
    layer("core.plane.transfer_edge_us.kernel.bulk", "us", Lower, "ops_per_s on hose_bulk (as above)"),
    layer("core.plane.transfer_edge_us.network.bulk", "us", Lower, "ops_per_s on hose_bulk (as above)"),
    layer("core.plane.transfer_edge_us.user.small", "us", Lower, "ops_per_s on hose_small (as above)"),
    layer("core.plane.transfer_edge_us.kernel.small", "us", Lower, "ops_per_s on hose_small (as above)"),
    layer("core.plane.transfer_edge_us.network.small", "us", Lower, "ops_per_s on hose_small (as above)"),
    layer("core.plane.overhead_ns.bulk", "ns", Lower, "one-shot median - sum of child-span medians, mean over modes; none on hose_bulk (noise-sized)"),
    layer("core.plane.overhead_ns.small", "ns", Lower, "as above; ops_per_s on hose_small (name lookups, String clones, endpoint clones in plane)"),
    // ---- baselines
    layer("baselines.runc.transfer_us.text", "us", Lower, "ops_per_s on baseline_codec"),
    layer("baselines.runc.transfer_us.sensor", "us", Lower, "ops_per_s on baseline_codec"),
    layer("baselines.wasmedge.transfer_us.text", "us", Lower, "ops_per_s on baseline_codec"),
    layer("baselines.wasmedge.transfer_us.sensor", "us", Lower, "ops_per_s on baseline_codec"),
    layer("baselines.wasmedge.vm_overhead_us", "us", Lower, "wasmedge - runc on text: the interpreted chunk loops; ops_per_s on baseline_codec"),
    // ---- platform
    layer("platform.workflow.compile_us", "us", Lower, "setup_s on cluster_load (hoisted out of the per-instance path)"),
    layer("platform.workflow.execute_us", "us", Lower, "ops_per_s on cluster_load (one execute_compiled over a warm memo)"),
    layer("platform.memo.hit_ns", "ns", Lower, "ops_per_s on cluster_load"),
    layer("platform.memo.hit_ratio", "ratio", Higher, "exact; ops_per_s on cluster_load"),
    layer("platform.loadgen.open_ns_per_instance", "ns", Lower, "ops_per_s and cpu_us_per_op on cluster_load"),
    layer("platform.loadgen.closed_ns_per_instance", "ns", Lower, "ops_per_s and cpu_us_per_op on cluster_load"),
    layer("platform.scheduler.place_ns", "ns", Lower, "ops_per_s on cluster_load"),
    layer("platform.metrics.observe_ns", "ns", Lower, "ops_per_s on cluster_load (streaming percentile digest)"),
    layer("platform.warmpool.hit_ratio", "ratio", Higher, "exact; virt_ms_p50 and virt_ms_p99 on cluster_load"),
    layer("platform.overload.shed_share", "ratio", Lower, "exact; virt_ops_per_s on cluster_load"),
    layer("platform.overload.deadline_share", "ratio", Lower, "exact; virt_ms_p99 on cluster_load"),
    layer("platform.overload.lost_share", "ratio", Lower, "exact; (shed + deadline-exceeded + failed) / arrivals - the modelled loss, not a benchmark failure"),
    layer("platform.overload.retries_per_instance", "ratio", Lower, "exact; virt_ms_p99 on cluster_load"),
    layer("platform.autoscaler.scale_events", "count", Lower, "exact, per batch; virt_ms_p99 on cluster_load"),
    layer("platform.memo.plain_mismatch_instances", "count", Lower, "exact; must be 0 (PackThenSpill prefix): memo == plain"),
    layer("platform.memo.spread_mismatch_instances", "count", Lower, "exact, diagnostic, non-zero today: memo != plain under SpreadLoad; fixed in a later issue"),
];

/// The invocation the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef, bounded: bool| {
        let mut entries = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            entries.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(entries)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("a/b"));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(COMMAND.len() <= 32);
        assert_eq!(
            crate::workloads::NAMES.to_vec(),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with --print-spec");
        let keys: Vec<&str> = committed
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
