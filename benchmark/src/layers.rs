//! The per-layer pass: isolated loops over each layer's public functions
//! at the workloads' sizes, plus spans around the public calls that
//! compose one data-path op. Everything here is taken from the
//! benchmark's side of the API; spans inside the program are a later
//! issue.
//!
//! Every probe group gets an equal slice of the time budget and reports
//! the median (with p90 and sample count) of its rounds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use roadrunner::guest::{self, ALLOCATE, DEALLOCATE, RESIZE_INPUT_PATH};
use roadrunner::{MemoryRegion, RegionRegistry, Shim, ShimConfig};
use roadrunner_http::{read_response, send_response, MessageReader, Request, Response};
use roadrunner_platform::{
    execute_compiled, CompiledWorkflow, MemoizedPlane, PackThenSpill, PlacementPolicy,
    StreamingPercentiles, WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_serial::{binary, text};
use roadrunner_vkernel::pipe::Pipe;
use roadrunner_vkernel::tcp::TcpConn;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::{EventQueue, SchedResources, Testbed, Timeline};
use roadrunner_wasi::sock::TcpSocket;
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{decode, encode, validate, EngineLimits, Instance, Linker};

use crate::spec;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::baseline::{BaselineCodec, SENSOR_BYTES, TEXT_BYTES};
use crate::workloads::cluster::{self, ClusterLoad};
use crate::workloads::hose::{self, Hose, Replay, Size};
use crate::workloads::{bundle, edge, BatchOut, Scale};

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;
/// Timed loops sharing the time budget (each `Suite::rounds` call gets
/// an equal slice).
const TIMED_LOOPS: u32 = 35;
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 2_000;

/// One per-layer reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    pub p90: f64,
    pub n: usize,
}

/// Everything the per-layer pass produced.
pub struct LayerReport {
    pub samples: Vec<Sample>,
    /// Per size and mode: (one-shot median, Σ child-span medians), in
    /// host nanoseconds.
    pub accounting: Vec<(Size, &'static str, f64, f64)>,
}

struct Suite {
    seed: u64,
    scale: Scale,
    per_loop: Duration,
    samples: Vec<Sample>,
}

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

impl Suite {
    /// Calls `round` until the loop's time slice is spent (at least
    /// [`MIN_ROUNDS`] times; twice for smoke runs).
    fn rounds(&self, mut round: impl FnMut()) {
        let started = Instant::now();
        let (min, max) = match self.scale {
            Scale::Full => (MIN_ROUNDS, MAX_ROUNDS),
            Scale::Smoke => (2, 2),
        };
        let mut n = 0;
        while n < min || (n < max && started.elapsed() < self.per_loop) {
            round();
            n += 1;
        }
    }

    /// [`add`](Self::add) for a name assembled at run time.
    fn add_named(&mut self, name: String, ns_samples: &[f64], per: f64) {
        let def = spec::per_layer(&name).unwrap_or_else(|| panic!("{name} is not in the table"));
        self.add(def.name, ns_samples, per);
    }

    /// Books the median of `ns_samples / per` under `name`.
    fn add(&mut self, name: &'static str, ns_samples: &[f64], per: f64) {
        assert!(
            spec::per_layer(name).is_some(),
            "{name} is not in the per-layer table"
        );
        let scaled: Vec<f64> = ns_samples.iter().map(|ns| ns / per).collect();
        self.samples.push(Sample {
            name,
            value: median(&scaled),
            p90: quantile(&scaled, 0.9),
            n: scaled.len(),
        });
    }

    /// Books a model output that repeats exactly.
    fn exact(&mut self, name: &'static str, value: f64) {
        self.add(name, &[value], 1.0);
    }

    /// Times `body` once per round.
    fn time(&mut self, name: &'static str, per: f64, mut body: impl FnMut()) {
        let mut samples = Vec::new();
        self.rounds(|| {
            let started = Instant::now();
            body();
            samples.push(ns_since(started));
        });
        self.add(name, &samples, per);
    }
}

fn wasi_linker() -> Linker {
    let mut linker = Linker::new();
    roadrunner_wasi::register::<WasiCtx>(&mut linker);
    linker
}

/// `wasm`: decode / validate / instantiate / interpret, on the
/// resize guest of `edge_resize`, plus the O(1) call and the bulk copy
/// into linear memory.
fn wasm_layer(s: &mut Suite) {
    let bed = Testbed::paper();
    let sandbox = bed.node(0).sandbox("probe-wasm");
    let linker = wasi_linker();
    let resize = edge::spec_for(s.seed);
    let module = guest::resize_image(resize);
    let binary = encode::encode(&module);
    let frame = vec![0x5Au8; resize.input_len() as usize];
    const REPS: usize = 50;

    s.time("wasm.decode_us", REPS as f64 * 1e3, || {
        for _ in 0..REPS {
            black_box(decode::decode(black_box(&binary)).expect("decodes"));
        }
    });
    s.time("wasm.validate_us", REPS as f64 * 1e3, || {
        for _ in 0..REPS {
            validate::validate(black_box(&module)).expect("validates");
        }
    });

    // Instantiate and run from a fresh decode each time, as a cold
    // invocation does: a decoded module carries an empty code cache, so
    // its first call also compiles (the compile tier is private and, for
    // a guest this small, far below this loop's resolution).
    let (mut instantiate, mut start) = (Vec::new(), Vec::new());
    let mut instrs = 0;
    s.rounds(|| {
        let fresh = decode::decode(&binary).expect("decodes");
        let mut wasi = WasiCtx::new(sandbox.clone());
        wasi.put_file(RESIZE_INPUT_PATH, frame.clone());
        let started = Instant::now();
        let mut instance =
            Instance::new(fresh, &linker, EngineLimits::default(), Box::new(wasi)).expect("links");
        instantiate.push(ns_since(started));
        let started = Instant::now();
        instance.invoke("_start", &[]).expect("runs");
        start.push(ns_since(started));
        instrs = instance.instr_count();
    });
    s.add("wasm.instantiate_us", &instantiate, 1e3);
    s.add("wasm.instr_ns", &start, instrs as f64);
    s.exact("wasm.instr_count_per_op.resize", instrs as f64);

    let mut receiver = Instance::new(
        guest::wasi_receiver(),
        &linker,
        EngineLimits::default(),
        Box::new(WasiCtx::new(sandbox.clone())),
    )
    .expect("receiver links");
    const CALLS: usize = 1_000;
    s.time("wasm.invoke_fixed_ns", CALLS as f64, || {
        for _ in 0..CALLS {
            black_box(receiver.invoke("last_len", &[]).expect("O(1) export"));
        }
    });

    let mut sender = Instance::new(
        guest::wasi_sender(),
        &linker,
        EngineLimits::default(),
        Box::new(WasiCtx::new(sandbox)),
    )
    .expect("sender links");
    let bulk = hose::payload_for(Size::Bulk, s.seed);
    let addr = sender
        .invoke(ALLOCATE, &[Value::I32(bulk.len() as i32)])
        .expect("allocates")[0]
        .as_i32()
        .expect("address") as u32;
    s.time(
        "wasm.memory.write_ns_per_kib",
        bulk.len() as f64 / KIB,
        || {
            sender
                .memory_mut()
                .expect("memory")
                .write(addr, black_box(&bulk))
                .expect("in bounds");
        },
    );
}

/// `wasi`: the socket chunk loops of the WasmEdge baseline, on the
/// benchmark's own instances, built as `WasmedgePair` builds them.
fn wasi_layer(s: &mut Suite) {
    let bed = Testbed::paper();
    let (sandbox_a, sandbox_b) = (
        bed.node(0).sandbox("probe-tx"),
        bed.node(1).sandbox("probe-rx"),
    );
    let (tx, rx) = TcpConn::establish(&sandbox_a, Arc::clone(bed.link_between(0, 1)));
    let linker = wasi_linker();
    let mut ctx_a = WasiCtx::new(sandbox_a.clone());
    let fd_a = ctx_a.add_socket(Box::new(TcpSocket::new(tx))) as i32;
    let mut sender = Instance::new(
        guest::wasi_sender(),
        &linker,
        EngineLimits::default(),
        Box::new(ctx_a),
    )
    .expect("sender links");
    let mut ctx_b = WasiCtx::new(sandbox_b.clone());
    let fd_b = ctx_b.add_socket(Box::new(TcpSocket::new(rx))) as i32;
    let mut receiver = Instance::new(
        guest::wasi_receiver(),
        &linker,
        EngineLimits::default(),
        Box::new(ctx_b),
    )
    .expect("receiver links");

    // The document the WasmEdge Text op of `baseline_codec` streams.
    let payload = Payload::synthetic(PayloadKind::Text, s.seed, TEXT_BYTES);
    let document = text::to_text(payload.value()).into_bytes();
    let len = Value::I32(document.len() as i32);
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    let mut instrs = 0;
    s.rounds(|| {
        let addr = sender.invoke(ALLOCATE, &[len]).expect("allocates")[0];
        let at = addr.as_i32().expect("address") as u32;
        sender
            .memory_mut()
            .expect("memory")
            .write(at, &document)
            .expect("in bounds");
        sender.reset_instr_count();
        receiver.reset_instr_count();
        let started = Instant::now();
        let errno = sender
            .invoke("send_all", &[Value::I32(fd_a), addr, len])
            .expect("sends");
        send.push(ns_since(started));
        assert_eq!(errno[0].as_i32(), Some(0));
        let started = Instant::now();
        let out = receiver
            .invoke("recv_all", &[Value::I32(fd_b)])
            .expect("receives")[0];
        recv.push(ns_since(started));
        instrs = sender.instr_count() + receiver.instr_count();
        let got = receiver.invoke("last_len", &[]).expect("length")[0].as_i32();
        assert_eq!(got, Some(document.len() as i32));
        sender.invoke(DEALLOCATE, &[addr]).expect("frees");
        receiver.invoke(DEALLOCATE, &[out]).expect("frees");
    });
    let mib = document.len() as f64 / MIB;
    s.add("wasi.send_all_us_per_mib", &send, mib * 1e3);
    s.add("wasi.recv_all_us_per_mib", &recv, mib * 1e3);
    s.exact("wasm.instr_count_per_op.wasmedge", instrs as f64);
}

/// `serial`: both codecs and the payload generator at the sizes
/// `baseline_codec` ships.
fn serial_layer(s: &mut Suite) {
    let text_payload = Payload::synthetic(PayloadKind::Text, s.seed, TEXT_BYTES);
    let sensor = Payload::synthetic(PayloadKind::SensorRecords, s.seed, SENSOR_BYTES);
    for (payload, encode_name, decode_name) in [
        (
            &text_payload,
            "serial.text.encode_ns_per_kib.text",
            "serial.text.decode_ns_per_kib.text",
        ),
        (
            &sensor,
            "serial.text.encode_ns_per_kib.sensor",
            "serial.text.decode_ns_per_kib.sensor",
        ),
    ] {
        let kib = payload.flat().len() as f64 / KIB;
        let document = text::to_text(payload.value());
        s.time(encode_name, kib, || {
            black_box(text::to_text(black_box(payload.value())));
        });
        s.time(decode_name, kib, || {
            black_box(text::from_text(black_box(&document)).expect("decodes"));
        });
    }
    let kib = sensor.flat().len() as f64 / KIB;
    let packed = binary::to_binary(sensor.value());
    s.time("serial.binary.encode_ns_per_kib.sensor", kib, || {
        black_box(binary::to_binary(black_box(sensor.value())));
    });
    s.time("serial.binary.decode_ns_per_kib.sensor", kib, || {
        black_box(binary::from_binary(black_box(&packed)).expect("decodes"));
    });
    let seed = s.seed;
    s.time("serial.payload.synth_ns_per_kib.sensor", kib, || {
        black_box(Payload::synthetic(
            PayloadKind::SensorRecords,
            seed,
            SENSOR_BYTES,
        ));
    });
    let expansion = text::to_text(sensor.value()).len() as f64 / sensor.flat().len() as f64;
    s.exact("serial.text.expansion_ratio.sensor", expansion);
}

/// `http`: framing and parsing a document-sized POST, and the two-byte
/// ack exchange.
fn http_layer(s: &mut Suite) {
    let payload = Payload::synthetic(PayloadKind::Text, s.seed, TEXT_BYTES);
    let body = Bytes::from(text::to_text(payload.value()).into_bytes());
    let kib = body.len() as f64 / KIB;
    let request = Request::post("/invoke", body.clone());
    let raw = request.to_bytes();
    s.time("http.frame_ns_per_kib", kib, || {
        black_box(black_box(&request).to_bytes());
    });
    s.time("http.parse_ns_per_kib", kib, || {
        let mut reader = MessageReader::new();
        reader.feed(black_box(&raw));
        let parsed = reader.try_request().expect("parses").expect("complete");
        assert_eq!(parsed.body.len(), body.len());
    });

    let bed = Testbed::paper();
    let (client_box, server_box) = (
        bed.node(0).sandbox("probe-c"),
        bed.node(1).sandbox("probe-s"),
    );
    let (mut client, mut server) =
        TcpConn::establish(&client_box, Arc::clone(bed.link_between(0, 1)));
    let ack = Response::ok(Bytes::from_static(b"ok"));
    const REPS: usize = 100;
    s.time("http.small_exchange_ns", REPS as f64, || {
        for _ in 0..REPS {
            send_response(&mut server, &server_box, &ack).expect("sends");
            black_box(read_response(&mut client, &client_box).expect("reads"));
        }
    });
}

/// `vkernel`: pipes, sockets and the scheduler primitives.
fn vkernel_layer(s: &mut Suite) {
    let bed = Testbed::paper();
    let (a, b) = (
        bed.node(0).sandbox("probe-a"),
        bed.node(1).sandbox("probe-b"),
    );
    let mut rng = crate::stats::Rng::new(s.seed);
    let data = Bytes::from(
        (0..MIB as usize)
            .map(|_| rng.next_u64() as u8)
            .collect::<Vec<u8>>(),
    );
    let capacity = roadrunner::hose::HOSE_PIPE_CAPACITY;

    // One hose-sized chunk gifted in and spliced out: reference moves
    // only, so this must stay O(1) per chunk however large the chunk.
    let mut pipe = Pipe::new(capacity);
    const GIFTS: usize = 100;
    s.time("vkernel.pipe.gift_splice_ns_per_mib", GIFTS as f64, || {
        for _ in 0..GIFTS {
            pipe.vmsplice_gift(&a, data.clone()).expect("gifts");
            while pipe
                .splice_out(&a, capacity)
                .expect("splices")
                .is_some_and(|seg| !seg.is_empty())
            {}
        }
    });
    s.time("vkernel.pipe.copy_ns_per_mib", 1.0, || {
        pipe.write(&a, &data).expect("writes");
        while pipe
            .read(&a, capacity)
            .expect("reads")
            .is_some_and(|seg| !seg.is_empty())
        {}
    });

    let (tx, rx) = TcpConn::establish(&a, Arc::clone(bed.link_between(0, 1)));
    s.time("vkernel.tcp.spliced_ns_per_mib", GIFTS as f64, || {
        for _ in 0..GIFTS {
            tx.send_spliced(&a, data.clone()).expect("sends");
            black_box(rx.recv_spliced(&b).expect("receives"));
        }
    });
    s.time("vkernel.tcp.copy_ns_per_mib", 1.0, || {
        tx.send(&a, &data).expect("sends");
        while rx
            .recv(&b)
            .expect("receives")
            .is_some_and(|seg| !seg.is_empty())
        {}
    });
    const SMALL_MSGS: usize = 1_000;
    s.time("vkernel.tcp.small_msg_ns", SMALL_MSGS as f64, || {
        for i in 0..SMALL_MSGS as u64 {
            tx.send(&a, &i.to_le_bytes()).expect("sends");
            black_box(rx.recv(&b).expect("receives"));
        }
    });
    let (ua, ub) = UnixConn::pair();
    s.time("vkernel.unix.copy_ns_per_mib", 1.0, || {
        ua.send(&a, &data).expect("sends");
        while ub
            .recv(&a)
            .expect("receives")
            .is_some_and(|seg| !seg.is_empty())
        {}
    });

    const EVENTS: u64 = 10_000;
    s.time("vkernel.sched.reserve_ns", EVENTS as f64, || {
        let mut cpu = Timeline::new("probe-cpu", cluster::CORES as usize);
        for i in 0..EVENTS {
            black_box(cpu.reserve(i * 700, 1_000 + (i % 7) * 300));
        }
    });
    s.time("vkernel.sched.event_ns", EVENTS as f64, || {
        let mut queue = EventQueue::new();
        for i in 0..EVENTS {
            queue.push(i.wrapping_mul(0x9E37_79B9) % 1_000_000, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
    });
}

/// `core.shim` and `core.region`: the Table-1 host calls at both sizes.
fn shim_layer(s: &mut Suite) {
    let bed = Testbed::paper();
    let config = ShimConfig::default();
    let sink_bundle = bundle("sink", guest::consumer());
    let mut loads = Vec::new();
    s.rounds(|| {
        let mut fresh = Shim::new("probe-load", bed.node(0), config);
        let started = Instant::now();
        fresh
            .load_module("sink", Arc::clone(&sink_bundle))
            .expect("loads");
        loads.push(ns_since(started));
    });
    s.add("core.shim.load_module_us", &loads, 1e3);

    let mut shim = Shim::new("probe-shim", bed.node(0), config);
    shim.load_module("sink", sink_bundle).expect("loads");
    let bulk = hose::payload_for(Size::Bulk, s.seed);
    let small = hose::payload_for(Size::Small, s.seed);

    let (mut write, mut read) = (Vec::new(), Vec::new());
    s.rounds(|| {
        let started = Instant::now();
        let region = shim.write_memory_host("sink", &bulk).expect("writes");
        write.push(ns_since(started));
        let started = Instant::now();
        black_box(shim.read_memory_host("sink", region).expect("reads"));
        read.push(ns_since(started));
        shim.deallocate("sink", region).expect("frees");
    });
    let kib = bulk.len() as f64 / KIB;
    s.add("core.shim.write_memory_host_ns_per_kib", &write, kib);
    s.add("core.shim.read_memory_host_ns_per_kib", &read, kib);

    // Fixed costs at 4 KiB, a stack of regions at a time so the timer
    // brackets many calls (the guest allocator frees LIFO).
    const STACK: usize = 64;
    let (mut write, mut read, mut invoke) = (Vec::new(), Vec::new(), Vec::new());
    s.rounds(|| {
        let started = Instant::now();
        let regions: Vec<MemoryRegion> = (0..STACK)
            .map(|_| shim.write_memory_host("sink", &small).expect("writes"))
            .collect();
        write.push(ns_since(started));
        let started = Instant::now();
        for region in &regions {
            black_box(shim.read_memory_host("sink", *region).expect("reads"));
        }
        read.push(ns_since(started));
        let started = Instant::now();
        for r in &regions {
            let args = [Value::I32(r.addr as i32), Value::I32(r.len as i32)];
            black_box(shim.invoke("sink", "consume", &args).expect("consumes"));
        }
        invoke.push(ns_since(started));
        for region in regions.into_iter().rev() {
            shim.deallocate("sink", region).expect("frees");
        }
    });
    s.add("core.shim.write_memory_host_fixed_ns", &write, STACK as f64);
    s.add("core.shim.read_memory_host_fixed_ns", &read, STACK as f64);
    s.add("core.shim.invoke_fixed_ns", &invoke, STACK as f64);

    // The registry as a transfer leaves it: one or two live regions.
    let mut registry = RegionRegistry::new();
    registry.register(MemoryRegion::new(4_096, 65_536));
    registry.register(MemoryRegion::new(1 << 20, 16 << 20));
    const CHECKS: usize = 10_000;
    s.time("core.region.check_ns", CHECKS as f64, || {
        for i in 0..CHECKS as u32 {
            let access = MemoryRegion::new((1 << 20) + i, 4_096);
            black_box(registry.check(black_box(access), 32 << 20)).expect("registered");
        }
    });
}

/// `core` transfer calls and `core.plane`: the replayed op's spans
/// against the one-shot `transfer_edge`, per size and mode. The two are
/// interleaved op by op, so allocator state and clock drift hit both
/// sides alike.
fn data_path(s: &mut Suite, report: &mut LayerReport) {
    use hose::span;
    let empty_span_ns = Tracer::empty_span_ns();
    for size in [Size::Bulk, Size::Small] {
        let ops = match (size, s.scale) {
            (Size::Bulk, Scale::Full) => 60,
            (Size::Small, Scale::Full) => 30_000,
            (Size::Bulk, Scale::Smoke) => 6,
            (Size::Small, Scale::Smoke) => 600,
        };
        let mut plane = Hose::setup(size, s.seed, Scale::Smoke);
        let mut replay = Replay::setup(size, s.seed);
        let mut tracer = Tracer::new();
        let mut out = BatchOut::default();
        let mut one_shot: [Vec<f64>; 3] = Default::default();
        for i in 0..ops {
            one_shot[(i % 3) as usize].push(plane.time_one(i));
            replay.run(i..i + 1, Some(&mut tracer), &mut out);
        }
        assert_eq!(out.failed, 0, "replayed ops verify");

        let label = size.label();
        for (metric, spans) in [
            ("core.userspace.transfer_us", span::USER),
            ("core.kernelspace.send_us", span::KSEND),
            ("core.kernelspace.recv_us", span::KRECV),
            ("core.hose.send_us", span::HSEND),
            ("core.hose.recv_us", span::HRECV),
        ] {
            s.add_named(format!("{metric}.{label}"), &tracer.durations(spans), 1e3);
        }

        // Account for each mode's op: the parts every mode shares plus its
        // own transfer call(s), against the one-shot median. The shared
        // parts run on a different shim per mode, so each mode takes them
        // from its own ops (the replay runs op `i` in mode `i % 3`), less
        // the timer's own cost per span.
        let child_median = |name: &str, mode: usize| -> f64 {
            let durs: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|sp| sp.name == name && sp.op % 3 == mode as u64)
                .map(|sp| sp.dur_ns() as f64)
                .collect();
            median(&durs) - empty_span_ns
        };
        let shared = [
            span::WRITE,
            span::PRODUCE,
            span::CONSUME,
            span::PEEK,
            span::DEALLOC,
        ];
        let own: [&[&str]; 3] = [
            &[span::USER],
            &[span::KSEND, span::KRECV],
            &[span::HSEND, span::HRECV],
        ];
        let mut overheads = Vec::new();
        for (mode, samples) in one_shot.iter().enumerate() {
            let mode_name = hose::MODES[mode].1;
            s.add_named(
                format!("core.plane.transfer_edge_us.{mode_name}.{label}"),
                samples,
                1e3,
            );
            let one = median(samples);
            let children: f64 = shared
                .iter()
                .chain(own[mode])
                .map(|name| child_median(name, mode))
                .sum();
            overheads.push(one - children);
            report.accounting.push((size, mode_name, one, children));
        }
        let mean_overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
        s.add_named(
            format!("core.plane.overhead_ns.{label}"),
            &[mean_overhead],
            1.0,
        );
    }

    let mut bulk = Hose::setup(Size::Bulk, s.seed, Scale::Smoke);
    let (user, kernel, ram) = bulk.telemetry_per_op(6);
    s.exact("vkernel.account.user_cpu_ms_per_op.hose", user);
    s.exact("vkernel.account.kernel_cpu_ms_per_op.hose", kernel);
    s.exact("vkernel.account.ram_peak_mb.hose", ram);
}

/// `baselines`: each variant of `baseline_codec`, timed per op.
fn baselines_layer(s: &mut Suite) {
    let mut pairs = BaselineCodec::setup(s.seed, Scale::Smoke);
    let mut by_variant: [Vec<f64>; 4] = Default::default();
    s.rounds(|| {
        for (all, ns) in by_variant.iter_mut().zip(pairs.time_round()) {
            all.push(ns);
        }
    });
    let names = [
        "baselines.runc.transfer_us.text",
        "baselines.wasmedge.transfer_us.text",
        "baselines.runc.transfer_us.sensor",
        "baselines.wasmedge.transfer_us.sensor",
    ];
    for (name, samples) in names.into_iter().zip(&by_variant) {
        s.add(name, samples, 1e3);
    }
    let vm_overhead = median(&by_variant[1]) - median(&by_variant[0]);
    s.add("baselines.wasmedge.vm_overhead_us", &[vm_overhead], 1e3);
    let (user, kernel, ram) = pairs.wasmedge_telemetry_per_op(4);
    s.exact("vkernel.account.user_cpu_ms_per_op.wasmedge", user);
    s.exact("vkernel.account.kernel_cpu_ms_per_op.wasmedge", kernel);
    s.exact("vkernel.account.ram_peak_mb.wasmedge", ram);
}

/// `platform`: the engine halves of `cluster_load` per instance, the
/// memo, the scheduler, the percentile digest, and the exact model
/// counters.
fn platform_layer(s: &mut Suite) {
    let mut load = ClusterLoad::setup(s.seed, s.scale);
    let (open_n, closed_n) = load.instances_per_batch();
    let mut tracer = Tracer::new();
    let mut out = BatchOut::default();
    let mut batches = 0u64;
    s.rounds(|| {
        load.run_traced_batch(batches, &mut tracer, &mut out);
        batches += 1;
    });
    assert_eq!(out.failed, 0, "cluster batches conserve arrivals");
    s.add(
        "platform.loadgen.open_ns_per_instance",
        &tracer.durations(cluster::span::OPEN),
        open_n as f64,
    );
    s.add(
        "platform.loadgen.closed_ns_per_instance",
        &tracer.durations(cluster::span::CLOSED),
        closed_n as f64,
    );
    let c = load.counters();
    let share = |n: u64| n as f64 / c.arrivals.max(1) as f64;
    s.exact(
        "platform.memo.hit_ratio",
        c.memo_hits as f64 / (c.memo_hits + c.memo_misses).max(1) as f64,
    );
    s.exact(
        "platform.warmpool.hit_ratio",
        c.pool_hits as f64 / (c.pool_hits + c.pool_misses).max(1) as f64,
    );
    s.exact("platform.overload.shed_share", share(c.shed));
    s.exact(
        "platform.overload.deadline_share",
        share(c.deadline_exceeded),
    );
    s.exact(
        "platform.overload.lost_share",
        share(c.shed + c.deadline_exceeded + c.failed),
    );
    s.exact("platform.overload.retries_per_instance", share(c.retries));
    s.exact(
        "platform.autoscaler.scale_events",
        c.scale_events as f64 / batches as f64,
    );
    s.exact(
        "platform.memo.plain_mismatch_instances",
        load.prefix_mismatches(false) as f64,
    );
    s.exact(
        "platform.memo.spread_mismatch_instances",
        load.prefix_mismatches(true) as f64,
    );

    // Workflow engine and memo on the pipeline, outside the load loop.
    let (mut plane, clock, payload) = load.into_plane();
    let spec = WorkflowSpec::sequence(
        "pipeline",
        "bench",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    );
    const COMPILES: usize = 100;
    s.time(
        "platform.workflow.compile_us",
        COMPILES as f64 * 1e3,
        || {
            for _ in 0..COMPILES {
                black_box(CompiledWorkflow::compile(black_box(&spec)).expect("valid spec"));
            }
        },
    );
    let compiled = CompiledWorkflow::compile(&spec).expect("valid spec");
    let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
    execute_compiled(&mut memo, &clock, &compiled, payload.clone()).expect("fills the memo");
    const RUNS: usize = 200;
    s.time("platform.workflow.execute_us", RUNS as f64 * 1e3, || {
        for _ in 0..RUNS {
            black_box(
                execute_compiled(&mut memo, &clock, &compiled, payload.clone()).expect("runs"),
            );
        }
    });
    s.time("platform.memo.hit_ns", RUNS as f64, || {
        use roadrunner_platform::DataPlane;
        for _ in 0..RUNS {
            black_box(
                memo.transfer("src", "relay", payload.clone())
                    .expect("memo hit"),
            );
        }
    });

    let mut resources = SchedResources::mesh(&[cluster::CORES; cluster::NODES]);
    for node in 0..cluster::NODES {
        resources.cpu(node).reserve(0, 1_000 * (node as u64 + 1));
    }
    let view = resources.view(500);
    let mut policy = PackThenSpill::new(2_000);
    const PLACEMENTS: usize = 1_000;
    s.time("platform.scheduler.place_ns", PLACEMENTS as f64, || {
        for _ in 0..PLACEMENTS {
            black_box(policy.place(black_box(&spec), black_box(&view)));
        }
    });
    const OBSERVATIONS: u64 = 10_000;
    s.time("platform.metrics.observe_ns", OBSERVATIONS as f64, || {
        let mut digest = StreamingPercentiles::new();
        for i in 0..OBSERVATIONS {
            digest.record(1_000_000 + i.wrapping_mul(0x9E37_79B9) % 5_000_000);
        }
        black_box(digest.summary());
    });
}

/// Runs every probe group within about `budget`, returning one sample
/// per entry of [`spec::PER_LAYER`], in table order.
pub fn run(seed: u64, scale: Scale, budget: Duration) -> LayerReport {
    let mut suite = Suite {
        seed,
        scale,
        per_loop: budget / TIMED_LOOPS,
        samples: Vec::new(),
    };
    let mut report = LayerReport {
        samples: Vec::new(),
        accounting: Vec::new(),
    };
    wasm_layer(&mut suite);
    wasi_layer(&mut suite);
    serial_layer(&mut suite);
    http_layer(&mut suite);
    vkernel_layer(&mut suite);
    shim_layer(&mut suite);
    data_path(&mut suite, &mut report);
    baselines_layer(&mut suite);
    platform_layer(&mut suite);

    report.samples = spec::PER_LAYER
        .iter()
        .map(|def| {
            suite
                .samples
                .iter()
                .find(|sample| sample.name == def.name)
                .unwrap_or_else(|| panic!("no probe produced {}", def.name))
                .clone()
        })
        .collect();
    report
}
