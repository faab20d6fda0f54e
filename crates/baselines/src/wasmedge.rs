//! The WasmEdge-like Wasm baseline.
//!
//! State-of-the-art Wasm serverless functions exchange data over HTTP
//! through WASI: the guest serializes *inside* the VM (single-threaded,
//! interpreted — the paper's Fig. 2b attributes up to 60 % of I/O time to
//! this), then pushes the byte stream through `sock_send` in small
//! chunks, paying a guest↔host boundary crossing plus a copy out of
//! linear memory for every chunk. The receiver mirrors this. Nothing
//! overlaps: serialization, sending and receiving run strictly one after
//! another.
//!
//! The guests are real modules from the SDK ([`roadrunner::guest::wasi_sender`]
//! / [`wasi_receiver`](roadrunner::guest::wasi_receiver)); their chunk
//! loops execute instruction by instruction. One documented substitution:
//! the serialization *bytes* are produced by the host-side codec while
//! the *cost* is charged at the calibrated in-VM rate (DESIGN.md §6) —
//! writing a full text encoder in raw Wasm instructions would change no
//! measured quantity.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::guest::{self, ALLOCATE, DEALLOCATE};
use roadrunner_platform::{DataPlane, PlatformError, TransferTiming};
use roadrunner_serial::{text, Payload};
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::tcp::TcpConn;
use roadrunner_vkernel::{Nanos, Testbed};
use roadrunner_wasi::sock::TcpSocket;
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{EngineLimits, Instance, Linker};

use crate::common::BaselineOutcome;

/// A connected pair of WasmEdge-style functions (`a` → `b`).
pub struct WasmedgePair {
    testbed: Arc<Testbed>,
    sandbox_a: Sandbox,
    sandbox_b: Sandbox,
    sender: Instance,
    receiver: Instance,
    fd_a: u32,
    fd_b: u32,
}

impl std::fmt::Debug for WasmedgePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WasmedgePair")
            .field("a", &self.sandbox_a.account().name())
            .field("b", &self.sandbox_b.account().name())
            .finish_non_exhaustive()
    }
}

fn wasi_linker() -> Linker {
    let mut linker = Linker::new();
    roadrunner_wasi::register::<WasiCtx>(&mut linker);
    linker
}

impl WasmedgePair {
    /// Deploys the pair on `node_a`/`node_b` and connects them over the
    /// appropriate link.
    ///
    /// # Panics
    ///
    /// Panics if the SDK guests fail to instantiate (a bug, not an input
    /// condition).
    pub fn establish(testbed: Arc<Testbed>, node_a: usize, node_b: usize) -> Self {
        let sandbox_a = testbed.node(node_a).sandbox("wasmedge-a");
        let sandbox_b = testbed.node(node_b).sandbox("wasmedge-b");
        let link = Arc::clone(testbed.link_between(node_a, node_b));
        let (ea, eb) = TcpConn::establish(&sandbox_a, link);
        let linker = wasi_linker();

        let mut ctx_a = WasiCtx::new(sandbox_a.clone());
        let fd_a = ctx_a.add_socket(Box::new(TcpSocket::new(ea)));
        let sender = Instance::new(
            guest::wasi_sender(),
            &linker,
            EngineLimits::default(),
            Box::new(ctx_a),
        )
        .expect("sender instantiates");

        let mut ctx_b = WasiCtx::new(sandbox_b.clone());
        let fd_b = ctx_b.add_socket(Box::new(TcpSocket::new(eb)));
        let receiver = Instance::new(
            guest::wasi_receiver(),
            &linker,
            EngineLimits::default(),
            Box::new(ctx_b),
        )
        .expect("receiver instantiates");

        Self {
            testbed,
            sandbox_a,
            sandbox_b,
            sender,
            receiver,
            fd_a,
            fd_b,
        }
    }

    /// Sandbox of the source function.
    pub fn sandbox_a(&self) -> &Sandbox {
        &self.sandbox_a
    }

    /// Sandbox of the target function.
    pub fn sandbox_b(&self) -> &Sandbox {
        &self.sandbox_b
    }

    fn invoke_charged(
        instance: &mut Instance,
        sandbox: &Sandbox,
        func: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, PlatformError> {
        let before_mem = instance.memory().map(|m| m.len()).unwrap_or(0);
        instance.reset_instr_count();
        let result = instance
            .invoke(func, args)
            .map_err(|t| PlatformError::Transfer(format!("guest `{func}` trapped: {t}")));
        let instr = instance.instr_count();
        sandbox.charge_user((instr as f64 * sandbox.cost().wasm_instr_ns).round() as Nanos);
        let after_mem = instance.memory().map(|m| m.len()).unwrap_or(0);
        if after_mem > before_mem {
            sandbox.account().alloc((after_mem - before_mem) as u64);
        }
        result
    }

    /// Transfers one payload and returns the timing breakdown.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Transfer`] if a guest traps or decoding fails.
    pub fn transfer(&mut self, payload: &Payload) -> Result<BaselineOutcome, PlatformError> {
        let clock = self.testbed.clock().clone();
        let cost = Arc::clone(self.testbed.cost());
        let started = clock.now();

        // --- Source guest: the function's working state (the raw value)
        // already lives in its linear memory; serialization creates a
        // *second*, linearized copy next to it — this doubled footprint
        // is where Roadrunner's RAM savings come from (§6.5).
        let state_addr = Self::invoke_charged(
            &mut self.sender,
            &self.sandbox_a,
            ALLOCATE,
            &[Value::I32(payload.flat().len() as i32)],
        )?[0]
            .as_i32()
            .expect("allocator returns address");
        self.sender
            .memory_mut()
            .expect("sender has memory")
            .write(state_addr as u32, payload.flat())
            .map_err(|t| PlatformError::Transfer(t.to_string()))?;

        // Serialize in-VM (single-threaded).
        let encoded = text::to_text(payload.value());
        let serialize_ns =
            cost.serialize_wasm_ns(payload.flat().len(), payload.value_nodes());
        self.sandbox_a.charge_user(serialize_ns);
        // The serialized document lives in guest memory too.
        let addr = Self::invoke_charged(
            &mut self.sender,
            &self.sandbox_a,
            ALLOCATE,
            &[Value::I32(encoded.len() as i32)],
        )?[0]
            .as_i32()
            .expect("allocator returns address");
        self.sender
            .memory_mut()
            .expect("sender has memory")
            .write(addr as u32, encoded.as_bytes())
            .map_err(|t| PlatformError::Transfer(t.to_string()))?;
        // Their HTTP client builds a request head around the body.
        self.sandbox_a.charge_user(cost.http_head_ns);

        // --- Stream through WASI sock_send, chunk by chunk.
        let errno = Self::invoke_charged(
            &mut self.sender,
            &self.sandbox_a,
            "send_all",
            &[
                Value::I32(self.fd_a as i32),
                Value::I32(addr),
                Value::I32(encoded.len() as i32),
            ],
        )?[0]
            .as_i32()
            .expect("send_all returns errno");
        if errno != 0 {
            return Err(PlatformError::Transfer(format!("send_all errno {errno}")));
        }

        // --- Target guest: drain sock_recv, then parse + deserialize.
        let out_addr = Self::invoke_charged(
            &mut self.receiver,
            &self.sandbox_b,
            "recv_all",
            &[Value::I32(self.fd_b as i32)],
        )?[0]
            .as_i32()
            .expect("recv_all returns address");
        let out_len = Self::invoke_charged(&mut self.receiver, &self.sandbox_b, "last_len", &[])?
            [0]
            .as_i32()
            .expect("last_len returns length");
        self.sandbox_b.charge_user(cost.http_head_ns);
        // Decoded where it lies in the receiver's memory; the borrow ends
        // with the decode, before the guest frees the buffer below.
        let body = self
            .receiver
            .memory()
            .expect("receiver has memory")
            .read(out_addr as u32, out_len as u32)
            .map_err(|t| PlatformError::Transfer(t.to_string()))?;
        let body = std::str::from_utf8(body)
            .map_err(|e| PlatformError::Transfer(format!("body not UTF-8: {e}")))?;
        let value = text::from_text(body)
            .map_err(|e| PlatformError::Transfer(format!("deserialize failed: {e}")))?;
        let deserialize_ns =
            cost.deserialize_wasm_ns(payload.flat().len(), payload.value_nodes());
        self.sandbox_b.charge_user(deserialize_ns);
        let latency_ns = clock.now() - started;

        // The receiver materializes the decoded value next to the raw
        // document before the document is released.
        self.sandbox_b.account().alloc(payload.flat().len() as u64);
        self.sandbox_b.account().free(payload.flat().len() as u64);

        // Release guest buffers for the next repetition (LIFO order).
        Self::invoke_charged(&mut self.sender, &self.sandbox_a, DEALLOCATE, &[Value::I32(addr)])?;
        Self::invoke_charged(
            &mut self.sender,
            &self.sandbox_a,
            DEALLOCATE,
            &[Value::I32(state_addr)],
        )?;
        Self::invoke_charged(
            &mut self.receiver,
            &self.sandbox_b,
            DEALLOCATE,
            &[Value::I32(out_addr)],
        )?;

        Ok(BaselineOutcome { latency_ns, serialize_ns, deserialize_ns, received_value: value })
    }
}

/// Workflow-engine integration: the pair carries any edge of the DAG,
/// paying the full in-VM serialize → WASI-chunk stream → deserialize
/// path on the edge's raw bytes, whatever nodes the instance was placed
/// on.
impl DataPlane for WasmedgePair {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        payload: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let outcome = WasmedgePair::transfer(self, &Payload::opaque(payload))?;
        let timing = outcome.timing();
        Ok((outcome.received_flat(), Some(timing)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_serial::payload::PayloadKind;

    fn payload(size: usize) -> Payload {
        Payload::synthetic(PayloadKind::Text, 11, size)
    }

    #[test]
    fn transfer_preserves_value_across_vms() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        let p = payload(100_000);
        let out = pair.transfer(&p).unwrap();
        assert_eq!(&out.received_value, p.value());
        assert_eq!(&out.received_flat()[..], &p.flat()[..]);
    }

    #[test]
    fn serialization_dominates_intra_node() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        let p = payload(2_000_000);
        let out = pair.transfer(&p).unwrap();
        let share = out.serialization_ns() as f64 / out.latency_ns as f64;
        assert!(share > 0.4, "wasm serialization share was {share}");
    }

    #[test]
    fn repeated_transfers_reuse_guest_heap() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        let p = payload(50_000);
        let first = pair.transfer(&p).unwrap();
        let second = pair.transfer(&p).unwrap();
        assert_eq!(first.received_value, second.received_value);
        // LIFO dealloc keeps the guest heap from growing monotonically.
        let pages = pair.sender.memory().unwrap().size_pages();
        pair.transfer(&p).unwrap();
        assert_eq!(pair.sender.memory().unwrap().size_pages(), pages);
    }

    #[test]
    fn guests_pay_many_boundary_crossings() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        pair.transfer(&payload(500_000)).unwrap();
        let tx_calls = pair.sender.data::<WasiCtx>().unwrap().call_count;
        // 500 kB serialized at 8 KiB per sock_send ≈ 62+ crossings.
        assert!(tx_calls > 50, "sender made only {tx_calls} WASI calls");
    }

    #[test]
    fn inter_node_pays_wire_time() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 1);
        let out = pair.transfer(&payload(1_000_000)).unwrap();
        assert!(out.latency_ns >= bed.link_between(0, 1).wire_ns(1_000_000));
    }

    #[test]
    fn structured_payloads_round_trip() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        let p = Payload::synthetic(PayloadKind::SensorRecords, 5, 5_000);
        let out = pair.transfer(&p).unwrap();
        assert_eq!(&out.received_value, p.value());
    }

    #[test]
    fn data_plane_transfer_pays_in_vm_serialization() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = WasmedgePair::establish(Arc::clone(&bed), 0, 0);
        let payload = Bytes::from(vec![0xCDu8; 40_000]);
        let (received, timing) =
            pair.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
        assert_eq!(&received[..], &payload[..]);
        let timing = timing.expect("baselines attribute every edge");
        // In-VM serialization dominates the prepare phase.
        assert!(timing.prepare_ns >= bed.cost().serialize_wasm_ns(40_000, 0));
    }
}
