//! `hose_bulk` and `hose_small`: the paper's headline path,
//! `RoadrunnerPlane::transfer_edge`, with the target rotating through the
//! three modes — shared VM (user space), same node (kernel space), other
//! node (virtual data hose).
//!
//! The two workloads use the same deployment the opposite way. At 16 MB,
//! per-byte work (linear-memory copies, shim read/write, `vkernel`
//! buffers) is > 99.9 % of an op; at 4 KiB, bytes are nothing and the
//! fixed cost per call (handler invoke, region check, name lookups,
//! header framing, allocation) is everything. A buffering change that
//! wins the first by adding per-call work shows as a loss on the second.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, hose, kernelspace, userspace, Mode, RoadrunnerPlane, Shim, ShimConfig};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::tcp::{TcpConn, TcpEndpoint};
use roadrunner_vkernel::unix::{UnixConn, UnixEndpoint};
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::types::Value;

use super::{bundle, seeded_size, BatchOut, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{spanned, Tracer};

/// Which of the two payload sizes a hose workload moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 16 000 000 bytes (± the seed's jitter).
    Bulk,
    /// 4 096 bytes (± the seed's jitter).
    Small,
}

impl Size {
    pub fn nominal_bytes(self) -> usize {
        match self {
            Size::Bulk => 16_000_000,
            Size::Small => 4_096,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Size::Bulk => "bulk",
            Size::Small => "small",
        }
    }
}

/// The three transfer modes, in rotation order, with the target function
/// that selects each.
pub const MODES: [(Mode, &str, &str); 3] = [
    (Mode::UserSpace, "user", "sink_user"),
    (Mode::KernelSpace, "kernel", "sink_kernel"),
    (Mode::Network, "network", "sink_net"),
];

const SOURCE: &str = "src";

/// Payloads up to this size are compared byte for byte on every op.
const FULL_CHECK_MAX: usize = 64 * 1024;
/// Width and count of the sampled windows compared on larger payloads.
const WINDOW: usize = 64;
const WINDOWS: usize = 64;
/// On larger payloads, one op in this many is also compared in full (a
/// 16 MB `memcmp` costs a fifth of the op it checks); the position
/// rotates with the batch index so every mode is covered.
const FULL_CHECK_EVERY: u64 = 10;

/// Seeded Text payload of the workload's size.
pub fn payload_for(size: Size, seed: u64) -> Bytes {
    let bytes = seeded_size(size.nominal_bytes(), seed);
    Payload::synthetic(PayloadKind::Text, seed, bytes)
        .flat()
        .clone()
}

/// Output check: length always; every byte for small payloads or when
/// `full`; otherwise head, tail and seeded windows.
pub fn bytes_match(got: &[u8], want: &[u8], windows: &[usize], full: bool) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if full || want.len() <= FULL_CHECK_MAX {
        return got == want;
    }
    windows
        .iter()
        .all(|&at| got[at..at + WINDOW] == want[at..at + WINDOW])
}

/// Head, tail and seeded interior offsets of the sampled windows.
pub fn sample_windows(len: usize, seed: u64) -> Vec<usize> {
    if len <= FULL_CHECK_MAX {
        return Vec::new();
    }
    let mut rng = Rng::new(seed ^ 0x57A3_D0E5);
    let last = len - WINDOW;
    let mut at = vec![0, last];
    at.extend((2..WINDOWS).map(|_| rng.below(last as u64) as usize));
    at
}

/// A deployed plane with one source and one sink per mode.
pub struct Hose {
    size: Size,
    bed: Arc<Testbed>,
    plane: RoadrunnerPlane,
    payload: Bytes,
    windows: Vec<usize>,
    batch_ops: u64,
    virt_batches: u64,
    trace_ops: u64,
    seed: u64,
}

fn deploy(bed: &Arc<Testbed>) -> RoadrunnerPlane {
    let mut plane = RoadrunnerPlane::new(Arc::clone(bed), ShimConfig::default());
    plane
        .deploy(
            0,
            SOURCE,
            bundle(SOURCE, guest::producer()),
            "produce",
            false,
        )
        .expect("deploy source");
    plane
        .deploy_into_shared_vm(
            SOURCE,
            MODES[0].2,
            bundle(MODES[0].2, guest::consumer()),
            "consume",
            true,
        )
        .expect("deploy shared-VM sink");
    plane
        .deploy(
            0,
            MODES[1].2,
            bundle(MODES[1].2, guest::consumer()),
            "consume",
            true,
        )
        .expect("deploy same-node sink");
    plane
        .deploy(
            1,
            MODES[2].2,
            bundle(MODES[2].2, guest::consumer()),
            "consume",
            true,
        )
        .expect("deploy remote sink");
    plane
}

impl Hose {
    pub fn setup(size: Size, seed: u64, scale: Scale) -> Self {
        let bed = Arc::new(Testbed::paper());
        let payload = payload_for(size, seed);
        let mut plane = deploy(&bed);
        // Warm-up, one op per mode: connections are established lazily
        // and guest heaps grow to the payload size on first use.
        for (mode, _, sink) in MODES {
            let got = plane
                .transfer_edge(SOURCE, sink, &payload)
                .expect("warm-up transfer");
            assert!(got == payload, "warm-up payload intact");
            assert_eq!(plane.last_breakdown().map(|b| b.mode), Some(mode));
        }
        let (batch_ops, trace_ops) = match size {
            Size::Bulk => (scale.ops(30, 3), scale.ops(90, 6)),
            // Traced: a fifth of a batch (seven spans per op add up).
            Size::Small => (scale.ops(30_000, 600), scale.ops(6_000, 600)),
        };
        let windows = sample_windows(payload.len(), seed);
        let virt_batches = scale.virt_batches(batch_ops);
        Self {
            size,
            bed,
            plane,
            payload,
            windows,
            batch_ops,
            virt_batches,
            trace_ops,
            seed,
        }
    }
}

impl Hose {
    /// Host nanoseconds of one-shot `transfer_edge` call `i` (mode
    /// `i % 3`) — the untraced side of the replay's accounting.
    pub fn time_one(&mut self, i: u64) -> f64 {
        let sink = MODES[(i % 3) as usize].2;
        let started = std::time::Instant::now();
        let got = self.plane.transfer_edge(SOURCE, sink, &self.payload);
        let ns = started.elapsed().as_nanos() as f64;
        assert!(
            got.is_ok_and(|g| g.len() == self.payload.len()),
            "one-shot transfer"
        );
        ns
    }

    /// Virtual `(user CPU ms, kernel CPU ms, peak RAM MB)` per op.
    pub fn telemetry_per_op(&mut self, ops: u64) -> (f64, f64, f64) {
        let bed = Arc::clone(&self.bed);
        super::telemetry_per_op(&bed, ops, |i| {
            let _ = self
                .plane
                .transfer_edge(SOURCE, MODES[(i % 3) as usize].2, &self.payload);
        })
    }
}

impl Workload for Hose {
    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn virt_batches(&self) -> u64 {
        self.virt_batches
    }

    fn run_batch(&mut self, index: u64, out: &mut BatchOut) {
        let clock = self.bed.clock().clone();
        let started = clock.now();
        for i in 0..self.batch_ops {
            let (mode, _, sink) = MODES[(i % 3) as usize];
            let full = i % FULL_CHECK_EVERY == index % FULL_CHECK_EVERY;
            let verified = self
                .plane
                .transfer_edge(SOURCE, sink, &self.payload)
                .ok()
                .filter(|got| bytes_match(got, &self.payload, &self.windows, full))
                .and_then(|_| self.plane.last_breakdown())
                .filter(|bd| bd.mode == mode)
                .map(|bd| (bd.transfer_ns, self.payload.len()));
            out.op(verified);
        }
        out.virt_span_ns = clock.now() - started;
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, out: &mut BatchOut) {
        let mut replay = Replay::setup(self.size, self.seed);
        replay.run(0..self.trace_ops, Some(tracer), out);
    }

    fn describe(&self) -> String {
        format!(
            "transfer_edge of a {}-byte Text payload, target rotating user/kernel/network; {} ops per batch",
            self.payload.len(),
            self.batch_ops
        )
    }
}

/// `transfer_edge` replayed as its public parts on the benchmark's own
/// shims, so each part gets a span: `Shim::write_memory_host`,
/// `Shim::invoke`, the mode's transfer call(s), `Shim::invoke` of the
/// consumer, `Shim::peek_memory`, `Shim::deallocate`.
pub struct Replay {
    payload: Bytes,
    windows: Vec<usize>,
    /// Hosts `src` and the shared-VM sink.
    vm: Shim,
    same_node: Shim,
    remote: Shim,
    unix: (UnixEndpoint, UnixEndpoint),
    tcp: (TcpEndpoint, TcpEndpoint),
}

/// Span names of the replay, one per public call.
pub mod span {
    pub const OP: [&str; 3] = [
        "core.plane.replay.user",
        "core.plane.replay.kernel",
        "core.plane.replay.network",
    ];
    pub const WRITE: &str = "core.shim.write_memory_host";
    pub const PRODUCE: &str = "core.shim.invoke.produce";
    pub const USER: &str = "core.userspace.transfer";
    pub const KSEND: &str = "core.kernelspace.send";
    pub const KRECV: &str = "core.kernelspace.recv";
    pub const HSEND: &str = "core.hose.send";
    pub const HRECV: &str = "core.hose.recv";
    pub const CONSUME: &str = "core.shim.invoke.consume";
    pub const PEEK: &str = "core.shim.peek_memory";
    pub const DEALLOC: &str = "core.shim.deallocate";
}

impl Replay {
    pub fn setup(size: Size, seed: u64) -> Self {
        let bed = Testbed::paper();
        let payload = payload_for(size, seed);
        let config = ShimConfig::default();
        let mut vm = Shim::new("replay-vm", bed.node(0), config);
        vm.load_module(SOURCE, bundle(SOURCE, guest::producer()))
            .expect("load source");
        vm.load_module(MODES[0].2, bundle(MODES[0].2, guest::consumer()))
            .expect("load sink");
        let mut same_node = Shim::new("replay-kernel", bed.node(0), config);
        same_node
            .load_module(MODES[1].2, bundle(MODES[1].2, guest::consumer()))
            .expect("load sink");
        let mut remote = Shim::new("replay-net", bed.node(1), config);
        remote
            .load_module(MODES[2].2, bundle(MODES[2].2, guest::consumer()))
            .expect("load sink");
        let tcp = TcpConn::establish(vm.sandbox(), Arc::clone(bed.link_between(0, 1)));
        let windows = sample_windows(payload.len(), seed);
        let mut replay = Self {
            payload,
            windows,
            vm,
            same_node,
            remote,
            unix: UnixConn::pair(),
            tcp,
        };
        // Same warm-up as the one-shot path: one op per mode.
        replay.run(0..3, None, &mut BatchOut::default());
        replay
    }

    /// Runs replayed ops `ops` (op `i` in mode `i % 3`), recording spans
    /// when a tracer is given and booking each op into `out`.
    pub fn run(
        &mut self,
        ops: std::ops::Range<u64>,
        mut tracer: Option<&mut Tracer>,
        out: &mut BatchOut,
    ) {
        for i in ops {
            let verified = self.op((i % 3) as usize, i, tracer.as_deref_mut());
            out.op(verified.map(|()| (0, self.payload.len())));
        }
    }

    fn op(&mut self, mode: usize, op: u64, mut tracer: Option<&mut Tracer>) -> Option<()> {
        let op_span = tracer.as_deref_mut().map(|t| t.begin(span::OP[mode], op));
        let got = self.parts(mode, op, tracer.as_deref_mut());
        if let (Some(t), Some(id)) = (tracer, op_span) {
            t.end(id);
        }
        bytes_match(
            &got?,
            &self.payload,
            &self.windows,
            op.is_multiple_of(FULL_CHECK_EVERY),
        )
        .then_some(())
    }

    /// The public calls of one op, in `transfer_edge`'s order; returns the
    /// bytes read back from the sink's memory.
    fn parts(&mut self, mode: usize, op: u64, mut tracer: Option<&mut Tracer>) -> Option<Bytes> {
        let sink = MODES[mode].2;
        let region = spanned!(
            tracer,
            span::WRITE,
            op,
            self.vm.write_memory_host(SOURCE, &self.payload)
        )
        .ok()?;
        let args = [
            Value::I32(region.addr as i32),
            Value::I32(region.len as i32),
        ];
        spanned!(
            tracer,
            span::PRODUCE,
            op,
            self.vm.invoke(SOURCE, "produce", &args)
        )
        .ok()?;

        let (target, landed) = match mode {
            0 => {
                let moved = spanned!(
                    tracer,
                    span::USER,
                    op,
                    userspace::transfer(&mut self.vm, SOURCE, sink)
                );
                (&mut self.vm, moved.ok()?.0)
            }
            1 => {
                spanned!(
                    tracer,
                    span::KSEND,
                    op,
                    kernelspace::send(&mut self.vm, SOURCE, &self.unix.0)
                )
                .ok()?;
                let landed = spanned!(
                    tracer,
                    span::KRECV,
                    op,
                    kernelspace::recv(&mut self.same_node, sink, &self.unix.1)
                );
                (&mut self.same_node, landed.ok()?)
            }
            _ => {
                spanned!(
                    tracer,
                    span::HSEND,
                    op,
                    hose::send(&mut self.vm, SOURCE, &self.tcp.0)
                )
                .ok()?;
                let landed = spanned!(
                    tracer,
                    span::HRECV,
                    op,
                    hose::recv(&mut self.remote, sink, &self.tcp.1)
                );
                (&mut self.remote, landed.ok()?)
            }
        };

        let args = [
            Value::I32(landed.addr as i32),
            Value::I32(landed.len as i32),
        ];
        spanned!(
            tracer,
            span::CONSUME,
            op,
            target.invoke(sink, "consume", &args)
        )
        .ok()?;
        let got = spanned!(tracer, span::PEEK, op, target.peek_memory(sink, landed)).ok()?;
        spanned!(tracer, span::DEALLOC, op, target.deallocate(sink, landed)).ok()?;
        Some(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_check_sees_length_head_tail_and_full_differences() {
        let want = vec![7u8; 200_000];
        let windows = sample_windows(want.len(), 3);
        assert_eq!(windows.len(), WINDOWS);
        assert!(bytes_match(&want, &want, &windows, false));
        assert!(!bytes_match(&want[1..], &want, &windows, false));
        let mut bad = want.clone();
        bad[0] ^= 1;
        assert!(!bytes_match(&bad, &want, &windows, false));
        let mut bad = want.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(!bytes_match(&bad, &want, &windows, false));
        // A flipped byte between windows is what the periodic full check is for.
        let mut bad = want.clone();
        let hole = (1..want.len()).find(|i| windows.iter().all(|w| !(*w..w + WINDOW).contains(i)));
        bad[hole.unwrap()] ^= 1;
        assert!(bytes_match(&bad, &want, &windows, false));
        assert!(!bytes_match(&bad, &want, &windows, true));
    }

    #[test]
    fn small_payloads_are_always_compared_in_full() {
        let want = vec![1u8; 4_096];
        let mut bad = want.clone();
        bad[2_000] ^= 1;
        assert!(sample_windows(want.len(), 1).is_empty());
        assert!(!bytes_match(&bad, &want, &[], false));
    }

    #[test]
    fn replay_moves_intact_payloads_in_every_mode() {
        let mut replay = Replay::setup(Size::Small, 5);
        let mut tracer = Tracer::new();
        let mut out = BatchOut::default();
        replay.run(0..6, Some(&mut tracer), &mut out);
        assert_eq!((out.attempted, out.failed), (6, 0));
        for name in span::OP {
            assert_eq!(tracer.durations(name).len(), 2, "{name}");
        }
        assert_eq!(tracer.durations(span::WRITE).len(), 6);
        assert_eq!(tracer.durations(span::HRECV).len(), 2);
    }
}
