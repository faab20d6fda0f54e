//! The name route reports what it always did. Every public entry point
//! that takes a module or function name resolves it before doing anything
//! else with it: an unknown name comes back as `UnknownModule` carrying
//! the name asked for, a guest without the allocator as
//! `MissingGuestApi(ALLOCATE)`, and a handler that is not a function
//! export is refused with `Trap::BadExport` **at deploy time** — the plane
//! resolves the handler once, there, and calls it by index afterwards.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::guest::{self, ALLOCATE};
use roadrunner::{
    hose, kernelspace, userspace, MemoryRegion, RoadrunnerError, RoadrunnerPlane, Shim, ShimConfig,
};
use roadrunner_platform::{DataPlane, FunctionBundle, PlatformError};
use roadrunner_vkernel::tcp::TcpConn;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{encode, Trap};

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("wf")
            .with_tenant("t"),
    )
}

/// A shim hosting a producer `a`, a consumer `b` and `plain`, a guest
/// with no allocator.
fn shim_on(bed: &Testbed, node: usize) -> Shim {
    let mut shim = Shim::new(
        "vm",
        bed.node(node),
        ShimConfig::default().with_load_costs(false),
    );
    shim.load_module("a", bundle("a", guest::producer()))
        .unwrap();
    shim.load_module("b", bundle("b", guest::consumer()))
        .unwrap();
    shim.load_module("plain", bundle("plain", guest::hello_world()))
        .unwrap();
    shim
}

/// Leaves `payload` pending in `a`'s outbox.
fn produce(shim: &mut Shim, payload: &[u8]) {
    let region = shim.write_memory_host("a", payload).unwrap();
    let args = [
        Value::I32(region.addr as i32),
        Value::I32(region.len as i32),
    ];
    shim.invoke("a", "produce", &args).unwrap();
}

fn plane() -> RoadrunnerPlane {
    let config = ShimConfig::default().with_load_costs(false);
    let mut plane = RoadrunnerPlane::new(Arc::new(Testbed::paper()), config);
    plane
        .deploy(0, "a", bundle("a", guest::producer()), "produce", false)
        .unwrap();
    plane
        .deploy(1, "b", bundle("b", guest::consumer()), "consume", true)
        .unwrap();
    plane
        .deploy(
            0,
            "plain",
            bundle("plain", guest::hello_world()),
            "_start",
            true,
        )
        .unwrap();
    plane
}

#[track_caller]
fn assert_unknown<T: std::fmt::Debug>(entry: &str, got: Result<T, RoadrunnerError>, name: &str) {
    match got {
        Err(RoadrunnerError::UnknownModule(asked)) => assert_eq!(asked, name, "{entry}"),
        other => panic!("{entry}: expected UnknownModule({name}), got {other:?}"),
    }
}

#[track_caller]
fn assert_no_allocator<T: std::fmt::Debug>(entry: &str, got: Result<T, RoadrunnerError>) {
    match got {
        Err(RoadrunnerError::MissingGuestApi(api)) => assert_eq!(api, ALLOCATE, "{entry}"),
        other => panic!("{entry}: expected MissingGuestApi({ALLOCATE}), got {other:?}"),
    }
}

#[test]
fn an_unknown_name_comes_back_as_unknown_module_carrying_it() {
    let bed = Testbed::paper();
    let mut shim = shim_on(&bed, 0);
    let sandbox = shim.sandbox().clone();
    let region = MemoryRegion::new(0, 1);
    let live = shim.write_memory_host("b", &[1; 8]).unwrap();

    assert_unknown("Shim::memory_len", shim.memory_len("ghost"), "ghost");
    assert_unknown("Shim::invoke", shim.invoke("ghost", "f", &[]), "ghost");
    assert_unknown(
        "Shim::read_memory_host",
        shim.read_memory_host("ghost", region),
        "ghost",
    );
    assert_unknown(
        "Shim::allocate_inbox",
        shim.allocate_inbox("ghost", 8),
        "ghost",
    );
    assert_unknown(
        "Shim::write_into_inbox",
        shim.write_into_inbox("ghost", region, 0, &[1]),
        "ghost",
    );
    assert_unknown(
        "Shim::write_memory_host",
        shim.write_memory_host("ghost", &[1]),
        "ghost",
    );
    assert_unknown(
        "Shim::copy_between (from)",
        shim.copy_between("ghost", live, "b", live),
        "ghost",
    );
    assert_unknown(
        "Shim::copy_between (to)",
        shim.copy_between("b", live, "ghost", live),
        "ghost",
    );
    assert_unknown(
        "Shim::deallocate",
        shim.deallocate("ghost", region),
        "ghost",
    );
    assert_unknown("Shim::take_outbox", shim.take_outbox("ghost"), "ghost");
    assert_unknown("Shim::peek_outbox", shim.peek_outbox("ghost"), "ghost");
    assert_unknown(
        "Shim::peek_memory",
        shim.peek_memory("ghost", region),
        "ghost",
    );
    assert_unknown("Shim::wasi_mut", shim.wasi_mut("ghost").map(drop), "ghost");

    assert_unknown(
        "userspace::move_outbox (from)",
        userspace::move_outbox(&mut shim, "ghost", "b"),
        "ghost",
    );
    assert_unknown(
        "userspace::transfer (from)",
        userspace::transfer(&mut shim, "ghost", "b"),
        "ghost",
    );
    produce(&mut shim, &[2; 8]);
    assert_unknown(
        "userspace::move_outbox (to)",
        userspace::move_outbox(&mut shim, "a", "ghost"),
        "ghost",
    );
    produce(&mut shim, &[2; 8]);
    assert_unknown(
        "userspace::transfer (to)",
        userspace::transfer(&mut shim, "a", "ghost"),
        "ghost",
    );

    // The receivers read the frame header, then look for the module.
    let (ua, ub) = UnixConn::pair();
    assert_unknown(
        "kernelspace::send",
        kernelspace::send(&mut shim, "ghost", &ua),
        "ghost",
    );
    ua.send(&sandbox, &8u64.to_le_bytes()).unwrap();
    assert_unknown(
        "kernelspace::recv",
        kernelspace::recv(&mut shim, "ghost", &ub),
        "ghost",
    );
    let (ta, tb) = TcpConn::establish(&sandbox, Arc::clone(bed.wan()));
    assert_unknown("hose::send", hose::send(&mut shim, "ghost", &ta), "ghost");
    ta.send(&sandbox, &8u64.to_le_bytes()).unwrap();
    assert_unknown("hose::recv", hose::recv(&mut shim, "ghost", &tb), "ghost");

    let mut plane = plane();
    let payload = Bytes::from_static(b"payload");
    let wasm = || bundle("c", guest::consumer());
    assert_unknown(
        "RoadrunnerPlane::deploy_into_shared_vm",
        plane.deploy_into_shared_vm("ghost", "c", wasm(), "consume", true),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::mode_of (from)",
        plane.mode_of("ghost", "b"),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::mode_of (to)",
        plane.mode_of("a", "ghost"),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::mode_of_placed",
        plane.mode_of_placed("a", "ghost", Some(0), Some(1)),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::shim_of",
        plane.shim_of("ghost").map(drop),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::inject",
        plane.inject("ghost", &payload),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::transfer_edge (from)",
        plane.transfer_edge("ghost", "b", &payload),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::transfer_edge (to)",
        plane.transfer_edge("a", "ghost", &payload),
        "ghost",
    );
    assert_unknown(
        "RoadrunnerPlane::transfer_edge_placed",
        plane.transfer_edge_placed("a", "ghost", &payload, Some(0), Some(0)),
        "ghost",
    );
    // Nothing ran for the refused edges: `a` was not injected.
    assert_eq!(plane.shim_of("a").unwrap().peek_outbox("a").unwrap(), None);
    assert_eq!(plane.placement("ghost"), None);
    match plane.transfer_placed("a", "ghost", payload.clone(), None, None) {
        Err(PlatformError::Transfer(msg)) => assert!(msg.contains("`ghost`"), "{msg}"),
        other => panic!("DataPlane::transfer_placed: {other:?}"),
    }
    // …and the plane still works.
    assert_eq!(plane.transfer_edge("a", "b", &payload).unwrap(), payload);
}

#[test]
fn a_guest_without_the_allocator_is_still_reported_as_missing_it() {
    let bed = Testbed::paper();
    let mut shim = shim_on(&bed, 0);
    let sandbox = shim.sandbox().clone();
    assert_no_allocator("Shim::allocate_inbox", shim.allocate_inbox("plain", 8));
    assert_no_allocator(
        "Shim::write_memory_host",
        shim.write_memory_host("plain", &[1; 8]),
    );
    produce(&mut shim, &[2; 8]);
    assert_no_allocator(
        "userspace::move_outbox",
        userspace::move_outbox(&mut shim, "a", "plain"),
    );
    produce(&mut shim, &[2; 8]);
    assert_no_allocator(
        "userspace::transfer",
        userspace::transfer(&mut shim, "a", "plain"),
    );
    let (ua, ub) = UnixConn::pair();
    ua.send(&sandbox, &8u64.to_le_bytes()).unwrap();
    assert_no_allocator(
        "kernelspace::recv",
        kernelspace::recv(&mut shim, "plain", &ub),
    );
    let (ta, tb) = TcpConn::establish(&sandbox, Arc::clone(bed.wan()));
    ta.send(&sandbox, &8u64.to_le_bytes()).unwrap();
    assert_no_allocator("hose::recv", hose::recv(&mut shim, "plain", &tb));

    let mut plane = plane();
    let payload = Bytes::from_static(b"payload");
    assert_no_allocator("RoadrunnerPlane::inject", plane.inject("plain", &payload));
    assert_no_allocator(
        "RoadrunnerPlane::transfer_edge (from)",
        plane.transfer_edge("plain", "b", &payload),
    );
    assert_no_allocator(
        "RoadrunnerPlane::transfer_edge (to)",
        plane.transfer_edge("a", "plain", &payload),
    );
}

#[test]
fn a_handler_that_is_not_an_export_is_refused_at_deploy_time() {
    let mut plane = plane();
    for (handler, case) in [
        ("consumes", "no such export"),
        ("memory", "an export, not a function"),
    ] {
        let own = plane.deploy(0, "c", bundle("c", guest::consumer()), handler, true);
        let shared =
            plane.deploy_into_shared_vm("a", "d", bundle("d", guest::consumer()), handler, true);
        for got in [own, shared] {
            match got {
                Err(RoadrunnerError::Trap(Trap::BadExport(name))) => {
                    assert_eq!(name, handler, "{case}")
                }
                other => panic!("{case}: expected BadExport({handler}), got {other:?}"),
            }
        }
    }
    // A refused function is not deployed.
    assert!(matches!(
        plane.mode_of("a", "c"),
        Err(RoadrunnerError::UnknownModule(_))
    ));
    // `Shim::invoke` resolves per call, so it refuses at first use.
    let bed = Testbed::paper();
    let mut shim = shim_on(&bed, 0);
    assert!(matches!(
        shim.invoke("b", "consumes", &[]),
        Err(RoadrunnerError::Trap(Trap::BadExport(name))) if name == "consumes"
    ));
}
