//! `baseline_codec`: the comparison side of every paper figure. RunC-like
//! and WasmEdge-like pairs ship a Text and a SensorRecords payload from
//! node 0 to node 1 over HTTP. The `serial` text codec, `http` framing,
//! the `wasi` socket chunk loops and the *copying* `vkernel::tcp` path do
//! all the work and `core` does none — so the predicted effect of any
//! shim or hose change on this workload is zero.

use std::sync::Arc;

use roadrunner_baselines::{BaselineOutcome, RuncPair, WasmedgePair};
use roadrunner_platform::PlatformError;
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::Testbed;

use super::{seeded_size, BatchOut, Scale, Workload};
use crate::trace::Tracer;

/// Nominal flat sizes of the two payloads.
pub const TEXT_BYTES: usize = 500_000;
pub const SENSOR_BYTES: usize = 128_000;

/// The four op variants, in rotation order: (system, payload).
pub const VARIANTS: [(&str, &str); 4] = [
    ("runc", "text"),
    ("wasmedge", "text"),
    ("runc", "sensor"),
    ("wasmedge", "sensor"),
];

/// Span name of variant `v` in the traced pass.
pub const SPANS: [&str; 4] = [
    "baselines.runc.transfer.text",
    "baselines.wasmedge.transfer.text",
    "baselines.runc.transfer.sensor",
    "baselines.wasmedge.transfer.sensor",
];

/// Both pairs established node 0 → node 1, plus the two payloads.
pub struct BaselineCodec {
    bed: Arc<Testbed>,
    runc: RuncPair,
    wasmedge: WasmedgePair,
    text: Payload,
    sensor: Payload,
    batch_ops: u64,
    virt_batches: u64,
    trace_ops: u64,
}

impl BaselineCodec {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let bed = Arc::new(Testbed::paper());
        let text = Payload::synthetic(PayloadKind::Text, seed, seeded_size(TEXT_BYTES, seed));
        let sensor = Payload::synthetic(
            PayloadKind::SensorRecords,
            seed,
            seeded_size(SENSOR_BYTES, seed),
        );
        let runc = RuncPair::establish(Arc::clone(&bed), 0, 1);
        let wasmedge = WasmedgePair::establish(Arc::clone(&bed), 0, 1);
        let mut this = Self {
            bed,
            runc,
            wasmedge,
            text,
            sensor,
            batch_ops: scale.ops(8, 4),
            virt_batches: scale.virt_batches(scale.ops(8, 4)),
            trace_ops: scale.ops(40, 4),
        };
        // Warm-up: one op per variant (guest heaps grow on first use).
        for (v, variant) in VARIANTS.iter().enumerate() {
            assert!(this.op(v).is_some(), "warm-up {variant:?} verifies");
        }
        this
    }

    fn transfer(&mut self, variant: usize) -> Result<BaselineOutcome, PlatformError> {
        let payload = if variant < 2 {
            &self.text
        } else {
            &self.sensor
        };
        if variant.is_multiple_of(2) {
            self.runc.transfer(payload)
        } else {
            self.wasmedge.transfer(payload)
        }
    }

    /// One verified op: `(virtual latency, flat bytes)`.
    ///
    /// The check is `received_value == payload.value()`: for structured
    /// kinds `received_flat` is a binary *re-encoding* of the decoded
    /// value, not the source's flat bytes, and must not be compared to
    /// `flat()`.
    fn op(&mut self, variant: usize) -> Option<(u64, usize)> {
        let outcome = self.transfer(variant).ok()?;
        let payload = if variant < 2 {
            &self.text
        } else {
            &self.sensor
        };
        (outcome.received_value == *payload.value())
            .then(|| (outcome.latency_ns, payload.flat().len()))
    }

    /// Host nanoseconds of one verified op of each variant.
    pub fn time_round(&mut self) -> [f64; 4] {
        std::array::from_fn(|variant| {
            let started = std::time::Instant::now();
            let verified = self.op(variant);
            let ns = started.elapsed().as_nanos() as f64;
            assert!(verified.is_some(), "{:?} verifies", VARIANTS[variant]);
            ns
        })
    }

    /// Virtual `(user CPU ms, kernel CPU ms, peak RAM MB)` per WasmEdge
    /// Text op.
    pub fn wasmedge_telemetry_per_op(&mut self, ops: u64) -> (f64, f64, f64) {
        let bed = Arc::clone(&self.bed);
        super::telemetry_per_op(&bed, ops, |_| {
            let _ = self.transfer(1);
        })
    }
}

impl Workload for BaselineCodec {
    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn virt_batches(&self) -> u64 {
        self.virt_batches
    }

    fn run_batch(&mut self, _index: u64, out: &mut BatchOut) {
        let clock = self.bed.clock().clone();
        let started = clock.now();
        for i in 0..self.batch_ops {
            let verified = self.op((i % 4) as usize);
            out.op(verified);
        }
        out.virt_span_ns = clock.now() - started;
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, out: &mut BatchOut) {
        for i in 0..self.trace_ops {
            let variant = (i % 4) as usize;
            let span = tracer.begin(SPANS[variant], i);
            let verified = self.op(variant);
            tracer.end(span);
            out.op(verified);
        }
    }

    fn describe(&self) -> String {
        format!(
            "RuncPair/WasmedgePair::transfer node 0 -> 1, rotating Text {} B and SensorRecords {} B; {} ops per batch",
            self.text.flat().len(),
            self.sensor.flat().len(),
            self.batch_ops
        )
    }
}
