//! Isolation and failure-injection tests: the paper's security story
//! (§3.1, §7) must hold mechanically — trust validation, pre-registered
//! regions, bounds checks, fail-stop traps.

use std::sync::Arc;

use roadrunner::{guest, MemoryRegion, RoadrunnerError, RoadrunnerPlane, Shim, ShimConfig};
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::encode;
use roadrunner_wasm::types::Value;

fn bundle_for(workflow: &str, tenant: &str, name: &str) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&guest::consumer()))
            .with_workflow(workflow)
            .with_tenant(tenant),
    )
}

#[test]
fn cross_tenant_colocation_is_rejected() {
    let bed = Arc::new(Testbed::paper());
    let mut plane = RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default());
    plane
        .deploy(0, "a", bundle_for("wf", "tenant-1", "a"), "consume", true)
        .unwrap();
    // Same workflow, different tenant: refused.
    let err = plane
        .deploy_into_shared_vm("a", "evil", bundle_for("wf", "tenant-2", "evil"), "consume", true)
        .unwrap_err();
    assert!(matches!(err, RoadrunnerError::TrustViolation(_)));
    // Different workflow, same tenant: refused.
    let err = plane
        .deploy_into_shared_vm("a", "other", bundle_for("wf2", "tenant-1", "other"), "consume", true)
        .unwrap_err();
    assert!(matches!(err, RoadrunnerError::TrustViolation(_)));
}

#[test]
fn shim_cannot_read_unregistered_memory() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    // Nothing registered: all reads refused, even in-bounds ones.
    for region in [MemoryRegion::new(0, 1), MemoryRegion::new(4096, 64)] {
        assert!(matches!(
            shim.read_memory_host("f", region),
            Err(RoadrunnerError::AccessViolation(_))
        ));
    }
}

#[test]
fn shim_access_is_bounded_to_the_registered_window() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    let region = shim.write_memory_host("f", &[9u8; 128]).unwrap();
    // Within: fine. One byte beyond: refused.
    shim.read_memory_host("f", region).unwrap();
    let beyond = MemoryRegion::new(region.addr, region.len + 1);
    assert!(matches!(
        shim.read_memory_host("f", beyond),
        Err(RoadrunnerError::AccessViolation(_))
    ));
    let before = MemoryRegion::new(region.addr - 1, 2);
    assert!(matches!(
        shim.read_memory_host("f", before),
        Err(RoadrunnerError::AccessViolation(_))
    ));
}

#[test]
fn guest_trap_is_fail_stop_not_corruption() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    let region = shim.write_memory_host("f", b"survives").unwrap();
    // Wild-pointer consume traps…
    let err = shim
        .invoke("f", "consume", &[Value::I32(i32::MAX), Value::I32(64)])
        .unwrap_err();
    assert!(matches!(err, RoadrunnerError::Trap(_)));
    // …and the module remains usable with its data intact.
    assert_eq!(&shim.peek_memory("f", region).unwrap()[..], b"survives");
    let ack = shim
        .invoke(
            "f",
            "consume",
            &[Value::I32(region.addr as i32), Value::I32(region.len as i32)],
        )
        .unwrap();
    assert!(ack[0].as_i32().is_some());
}

#[test]
fn oversized_write_is_refused_before_touching_memory() {
    let bed = Testbed::paper();
    let config = ShimConfig::default()
        .with_load_costs(false)
        .with_engine_limits(roadrunner_wasm::EngineLimits::default().with_max_memory_pages(32));
    let mut shim = Shim::new("iso", bed.node(0), config);
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    // 32 pages = 2 MiB cap; a 4 MiB inbox cannot be allocated. The guest
    // allocator traps (grow fails), which surfaces as a trap error.
    let err = shim.write_memory_host("f", &vec![0u8; 4 << 20]).unwrap_err();
    assert!(matches!(err, RoadrunnerError::Trap(_)));
}

#[test]
fn streaming_writes_cannot_escape_their_inbox() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    let inbox = shim.allocate_inbox("f", 64).unwrap();
    shim.write_into_inbox("f", inbox, 0, &[1u8; 64]).unwrap();
    let err = shim.write_into_inbox("f", inbox, 1, &[1u8; 64]).unwrap_err();
    assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
    let err = shim.write_into_inbox("f", inbox, 64, &[1]).unwrap_err();
    assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
}

#[test]
fn deallocated_regions_lose_host_access() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    let region = shim.write_memory_host("f", &[7u8; 32]).unwrap();
    shim.deallocate("f", region).unwrap();
    assert!(matches!(
        shim.read_memory_host("f", region),
        Err(RoadrunnerError::AccessViolation(_))
    ));
}

/// Every way a guest (or a confused host) can hand over a 16-byte region
/// the shim must not touch: never registered, wrapping the 32-bit address
/// space, ending exactly at its top, straddling or starting at the end of
/// linear memory, and — appended by the callers below — registered once
/// but since revoked.
fn hostile_regions(shim: &Shim, module: &str) -> Vec<MemoryRegion> {
    let memory_len = shim.memory_len(module).unwrap() as u32;
    vec![
        MemoryRegion::new(8192, 16),
        MemoryRegion::new(u32::MAX - 3, 16),
        MemoryRegion::new(u32::MAX - 15, 16),
        MemoryRegion::new(memory_len - 8, 16),
        MemoryRegion::new(memory_len, 16),
    ]
}

fn assert_refused<T: std::fmt::Debug>(result: Result<T, RoadrunnerError>, what: &str) {
    assert!(
        matches!(result, Err(RoadrunnerError::AccessViolation(_))),
        "{what}: {result:?}"
    );
}

#[test]
fn every_host_access_refuses_hostile_regions() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("f", bundle_for("wf", "t", "f")).unwrap();
    let revoked = shim.write_memory_host("f", &[5u8; 16]).unwrap();
    shim.deallocate("f", revoked).unwrap();
    let mut regions = hostile_regions(&shim, "f");
    regions.extend([revoked, MemoryRegion::new(u32::MAX, u32::MAX)]);
    for region in regions {
        assert_refused(shim.read_memory_host("f", region), "read");
        assert_refused(shim.peek_memory("f", region), "peek");
        // A streaming write is checked against the registry as well as
        // against the inbox it claims to fill.
        let data = vec![1u8; (region.len as usize).min(16)];
        assert_refused(shim.write_into_inbox("f", region, 0, &data), "write");
    }
}

#[test]
fn the_direct_move_checks_both_of_its_regions() {
    let bed = Testbed::paper();
    let mut shim = Shim::new("iso", bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module("a", bundle_for("wf", "t", "a")).unwrap();
    shim.load_module("b", bundle_for("wf", "t", "b")).unwrap();
    // Padding keeps the two guests' allocators from handing out the same
    // address, so a region of one module is recognisably not the other's.
    shim.write_memory_host("a", &[0u8; 64]).unwrap();
    let src = shim.write_memory_host("a", &[7u8; 16]).unwrap();
    let dst = shim.allocate_inbox("b", 16).unwrap();
    assert_ne!(src, dst);

    for module in ["a", "b"] {
        let revoked = shim.write_memory_host(module, &[5u8; 16]).unwrap();
        shim.deallocate(module, revoked).unwrap();
        let mut regions = hostile_regions(&shim, module);
        regions.push(revoked);
        for bad in regions {
            let result = match module {
                "a" => shim.copy_between("a", bad, "b", dst),
                _ => shim.copy_between("a", src, "b", bad),
            };
            assert_refused(result, module);
        }
    }
    // A region registered by one module means nothing in the other.
    assert_refused(shim.copy_between("b", src, "a", dst), "swapped modules");
    assert!(matches!(
        shim.copy_between("a", src, "ghost", dst),
        Err(RoadrunnerError::UnknownModule(_))
    ));
    assert!(matches!(
        shim.copy_between("ghost", src, "b", dst),
        Err(RoadrunnerError::UnknownModule(_))
    ));
    // Every refusal left the target untouched, and the honest move works.
    assert_eq!(&shim.peek_memory("b", dst).unwrap()[..], &[0u8; 16]);
    shim.copy_between("a", src, "b", dst).unwrap();
    assert_eq!(&shim.peek_memory("b", dst).unwrap()[..], &[7u8; 16]);
}
