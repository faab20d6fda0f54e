//! The near-zero-copy claim as an asserted host-side invariant.
//!
//! The cost model charges one copy per user-space edge, a user→kernel and
//! a kernel→user copy per kernel-space edge, and — page references apart —
//! only the two Wasm VM I/O passes along the hose. The copy ledger
//! (`ResourceAccount::copied_bytes`) counts the `memcpy`s the host really
//! performs, so these tests hold the one against the other: per payload
//! byte, the transfer phase copies exactly 1 / 2 / 2 times (user / kernel /
//! network), and the hose's pipe and spliced-TCP lanes contribute nothing.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner::{
    guest, hose, kernelspace, userspace, Mode, RoadrunnerPlane, Shim, ShimConfig,
};
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::tcp::TcpConn;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::encode;
use roadrunner_wasm::types::Value;

/// The framing header: copied once into the socket and once out of it.
const HEADER: u64 = 8;

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("ledger")
            .with_tenant("t"),
    )
}

fn shim(bed: &Testbed, node: usize, modules: &[(&str, roadrunner_wasm::Module)]) -> Shim {
    let mut shim =
        Shim::new(modules[0].0, bed.node(node), ShimConfig::default().with_load_costs(false));
    for (name, module) in modules {
        shim.load_module(*name, bundle(name, module.clone())).unwrap();
    }
    shim
}

/// The prepare phase, which the ledger ratios exclude: deliver `payload`
/// into `a` and let it hand the region over.
fn produce(shim: &mut Shim, payload: &[u8]) {
    let region = shim.write_memory_host("a", payload).unwrap();
    let args = [Value::I32(region.addr as i32), Value::I32(region.len as i32)];
    shim.invoke("a", "produce", &args).unwrap();
}

fn copied(shim: &Shim) -> u64 {
    shim.sandbox().account().copied_bytes()
}

#[test]
fn one_mebibyte_edge_copies_once_twice_twice() {
    const LEN: u64 = 1 << 20;
    let payload = vec![0xA5u8; LEN as usize];

    // User space: one region-to-region copy inside the VM.
    let bed = Testbed::paper();
    let mut vm = shim(&bed, 0, &[("a", guest::producer()), ("b", guest::consumer())]);
    produce(&mut vm, &payload);
    let before = copied(&vm);
    userspace::move_outbox(&mut vm, "a", "b").unwrap();
    assert_eq!(copied(&vm) - before, LEN);

    // Kernel space: user→kernel in `send`, kernel→inbox in `recv`.
    let bed = Testbed::paper();
    let mut src = shim(&bed, 0, &[("a", guest::producer())]);
    let mut dst = shim(&bed, 0, &[("b", guest::consumer())]);
    let (tx, rx) = UnixConn::pair();
    produce(&mut src, &payload);
    let before = (copied(&src), copied(&dst));
    kernelspace::send(&mut src, "a", &tx).unwrap();
    kernelspace::recv(&mut dst, "b", &rx).unwrap();
    assert_eq!(copied(&src) - before.0, LEN + HEADER);
    assert_eq!(copied(&dst) - before.1, LEN + HEADER);

    // Network: both copies sit at the VM boundary (the staging read the
    // gifted pages need, the landing write); pipe and spliced TCP add 0.
    let bed = Testbed::paper();
    let mut src = shim(&bed, 0, &[("a", guest::producer())]);
    let mut dst = shim(&bed, 1, &[("b", guest::consumer())]);
    let (tx, rx) = TcpConn::establish(src.sandbox(), Arc::clone(bed.wan()));
    produce(&mut src, &payload);
    let before = (copied(&src), copied(&dst));
    hose::send(&mut src, "a", &tx).unwrap();
    let landed = hose::recv(&mut dst, "b", &rx).unwrap();
    assert_eq!(copied(&src) - before.0, LEN + HEADER);
    assert_eq!(copied(&dst) - before.1, LEN + HEADER);
    assert_eq!(&dst.peek_memory("b", landed).unwrap()[..], &payload[..]);
}

/// Real copies per payload byte over the transfer phase of one edge, and
/// the framing bytes copied beside them.
fn transfer_copies(mode: Mode) -> (u64, u64) {
    match mode {
        Mode::UserSpace => (1, 0),
        Mode::KernelSpace | Mode::Network => (2, 2 * HEADER),
    }
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![Just(Mode::UserSpace), Just(Mode::KernelSpace), Just(Mode::Network)]
}

/// Lengths around the empty payload, around the guest's initial 64 KiB
/// memory (beyond it the target's memory must grow) and well past it.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 60_000..70_000),
        proptest::collection::vec(any::<u8>(), 0..200_000),
    ]
}

/// Deploys `to` so that the edge `from → to` runs in `mode`; returns the
/// node it landed on.
fn deploy_after(
    plane: &mut RoadrunnerPlane,
    from: (&str, usize),
    to: &str,
    (module, handler, acks): (roadrunner_wasm::Module, &str, bool),
    mode: Mode,
) -> usize {
    let node = if mode == Mode::Network { 1 - from.1 } else { from.1 };
    if mode == Mode::UserSpace {
        plane.deploy_into_shared_vm(from.0, to, bundle(to, module), handler, acks)
    } else {
        plane.deploy(node, to, bundle(to, module), handler, acks)
    }
    .unwrap();
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A relay chain a → r → b over any two modes: both read-backs are the
    /// payload byte for byte, and the whole deployment copied exactly what
    /// the phases account for — the prepare write on the first edge only
    /// (the relay's outbox is already pending on the second), each edge's
    /// transfer copies, and one read-back per edge.
    #[test]
    fn any_chain_delivers_intact_with_exact_copy_counts(
        payload in arb_payload(),
        first in arb_mode(),
        second in arb_mode(),
    ) {
        let bed = Arc::new(Testbed::paper());
        let mut plane = RoadrunnerPlane::new(
            Arc::clone(&bed),
            ShimConfig::default().with_load_costs(false),
        );
        plane.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        let relay = (guest::relay(), "relay", false);
        let relay_node = deploy_after(&mut plane, ("a", 0), "r", relay, first);
        let consumer = (guest::consumer(), "consume", true);
        deploy_after(&mut plane, ("r", relay_node), "b", consumer, second);

        let payload = Bytes::from(payload);
        let len = payload.len() as u64;
        let mut expected = 0;
        for (from, to, mode, prepared) in [("a", "r", first, 1), ("r", "b", second, 0)] {
            let received = plane.transfer_edge(from, to, &payload).unwrap();
            prop_assert_eq!(&received, &payload);
            prop_assert_eq!(plane.last_breakdown().unwrap().mode, mode);
            let (per_byte, framing) = transfer_copies(mode);
            expected += (prepared + per_byte + 1) * len + framing;
        }
        let copied: u64 = bed
            .nodes()
            .iter()
            .flat_map(|node| node.accounts())
            .map(|account| account.copied_bytes())
            .sum();
        prop_assert_eq!(copied, expected);
    }
}
