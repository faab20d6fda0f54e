//! Criterion micro-benchmarks of the substrates: codec throughput,
//! copy vs page-gift pipes, Wasm interpreter dispatch, HTTP framing.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_serial::{binary, text};
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::pipe::Pipe;
use roadrunner_vkernel::{CostModel, VirtualClock};
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{EngineLimits, Instance, Linker};
use std::sync::Arc;

fn codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("serial");
    group.throughput(Throughput::Bytes(MB as u64));
    // The text codec has three inner loops and each payload kind lives in
    // one of them: string runs (text), number formatting and parsing
    // (sensor-records), and the `x'…'` hex form every opaque DAG edge
    // takes through a baseline.
    for kind in [PayloadKind::Text, PayloadKind::SensorRecords, PayloadKind::Opaque] {
        let payload = Payload::synthetic(kind, 3, MB);
        group.bench_function(format!("text-encode-{kind}-1MB"), |b| {
            b.iter(|| text::to_text(payload.value()))
        });
        let encoded = text::to_text(payload.value());
        group.bench_function(format!("text-decode-{kind}-1MB"), |b| {
            b.iter(|| text::from_text(&encoded).unwrap())
        });
    }
    let payload = Payload::synthetic(PayloadKind::SensorRecords, 3, MB);
    group.bench_function("binary-encode-1MB", |b| {
        b.iter(|| binary::to_binary(payload.value()))
    });
    let bin = binary::to_binary(payload.value());
    group.bench_function("binary-decode-1MB", |b| b.iter(|| binary::from_binary(&bin).unwrap()));
    group.finish();
}

const MB: usize = 1_000_000;

fn pipes(c: &mut Criterion) {
    let sandbox = Sandbox::detached(
        "bench",
        VirtualClock::new(),
        Arc::new(CostModel::paper_testbed()),
    );
    let data = vec![7u8; MB];
    let shared = Bytes::from(data.clone());
    let mut group = c.benchmark_group("pipe");
    group.throughput(Throughput::Bytes(MB as u64));
    group.bench_function("copy-write-1MB", |b| {
        b.iter(|| {
            let mut pipe = Pipe::new(1 << 20);
            pipe.write(&sandbox, &data).unwrap();
            pipe.splice_out(&sandbox, usize::MAX).unwrap()
        })
    });
    group.bench_function("vmsplice-gift-1MB", |b| {
        b.iter(|| {
            let mut pipe = Pipe::new(1 << 20);
            pipe.vmsplice_gift(&sandbox, shared.clone()).unwrap();
            pipe.splice_out(&sandbox, usize::MAX).unwrap()
        })
    });
    group.finish();
}

fn interpreter(c: &mut Criterion) {
    let module = roadrunner::guest::hello_world();
    let mut inst = Instance::new(
        module,
        &Linker::new(),
        EngineLimits::default(),
        Box::new(()),
    )
    .unwrap();
    c.bench_function("wasm/hello-10k-loop", |b| {
        b.iter(|| inst.invoke("_start", &[]).unwrap())
    });
    let producer = roadrunner::guest::producer();
    c.bench_function("wasm/decode-producer-module", |b| {
        let bytes = roadrunner_wasm::encode::encode(&producer);
        b.iter(|| roadrunner_wasm::decode::decode(&bytes).unwrap())
    });
}

fn http_framing(c: &mut Criterion) {
    let body = Bytes::from(vec![1u8; MB]);
    let mut group = c.benchmark_group("http");
    group.throughput(Throughput::Bytes(MB as u64));
    group.bench_function("frame+parse-1MB", |b| {
        b.iter(|| {
            let raw = roadrunner_http::Request::post("/f", body.clone()).to_bytes();
            let mut reader = roadrunner_http::MessageReader::new();
            reader.feed(&raw);
            reader.try_request().unwrap().unwrap()
        })
    });
    group.finish();
}

fn guest_alloc(c: &mut Criterion) {
    let mut linker = Linker::new();
    roadrunner::api::register_roadrunner_api(&mut linker);
    let mut inst = Instance::new(
        roadrunner::guest::producer(),
        &linker,
        EngineLimits::default(),
        Box::new(roadrunner::ShimState::new(roadrunner_wasi::WasiCtx::new(
            Sandbox::detached(
                "alloc",
                VirtualClock::new(),
                Arc::new(CostModel::paper_testbed()),
            ),
        ))),
    )
    .unwrap();
    c.bench_function("wasm/guest-alloc-dealloc-64KB", |b| {
        b.iter(|| {
            let addr = inst.invoke("allocate_memory", &[Value::I32(65536)]).unwrap()[0]
                .as_i32()
                .unwrap();
            inst.invoke("deallocate_memory", &[Value::I32(addr)]).unwrap();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = codecs, pipes, interpreter, http_framing, guest_alloc
}
criterion_main!(benches);
