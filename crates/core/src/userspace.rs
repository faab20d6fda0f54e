//! User-space data transfer (paper §4.1, Fig. 4a).
//!
//! Both functions live as modules inside **one** Wasm VM managed by one
//! shim, so the transfer never leaves the process: the shim copies the
//! source's registered region straight into the target's freshly
//! allocated one. No syscalls, no context switches, no serialization —
//! the two Wasm VM I/O passes the model charges are one real copy.

use bytes::Bytes;

use crate::error::RoadrunnerError;
use crate::region::MemoryRegion;
use crate::shim::Shim;

/// Moves the source module's pending outbox into the target module.
///
/// Steps (numbering from Fig. 4a): the guest already did ①
/// `locate_memory_region` + `send_to_host`; this performs ③
/// `allocate_memory` in the target and ②/④/⑤ the shim's read and write as
/// one region-to-region copy. Returns the target region.
///
/// # Errors
///
/// [`RoadrunnerError::Config`] if the source has no pending outbox or
/// `from` and `to` are the same module, plus any shim access/trap error.
pub fn move_outbox(
    shim: &mut Shim,
    from: &str,
    to: &str,
) -> Result<MemoryRegion, RoadrunnerError> {
    let region = shim.take_outbox(from)?.ok_or_else(|| {
        RoadrunnerError::Config(format!("module `{from}` has no pending outbox"))
    })?;
    let target = shim.allocate_inbox(to, region.len as usize)?;
    if let Err(e) = shim.copy_between(from, region, to, target) {
        // Best effort: the copy error is the one worth reporting.
        let _ = shim.deallocate(to, target);
        return Err(e);
    }
    shim.deallocate(from, region)?;
    Ok(target)
}

/// [`move_outbox`], then a cost-free read-back of what now rests in the
/// target: returns the target region and the transferred bytes. Callers
/// that only need the region (the plane) call [`move_outbox`] and skip
/// the read-back copy.
///
/// # Errors
///
/// Same as [`move_outbox`].
pub fn transfer(
    shim: &mut Shim,
    from: &str,
    to: &str,
) -> Result<(MemoryRegion, Bytes), RoadrunnerError> {
    let target = move_outbox(shim, from, to)?;
    Ok((target, shim.peek_memory(to, target)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShimConfig;
    use crate::guest;
    use roadrunner_platform::FunctionBundle;
    use roadrunner_vkernel::Testbed;
    use roadrunner_wasm::encode;
    use roadrunner_wasm::types::Value;
    use std::sync::Arc;

    fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("wf")
                .with_tenant("t"),
        )
    }

    fn shared_vm_shim(bed: &Testbed) -> Shim {
        let mut shim =
            Shim::new("vm", bed.node(0), ShimConfig::default().with_load_costs(false));
        shim.load_module("a", bundle("a", guest::producer())).unwrap();
        shim.load_module("b", bundle("b", guest::consumer())).unwrap();
        shim
    }

    #[test]
    fn transfers_bytes_between_modules() {
        let bed = Testbed::paper();
        let mut shim = shared_vm_shim(&bed);
        let payload = vec![0x5Au8; 100_000];
        let src = shim.write_memory_host("a", &payload).unwrap();
        shim.invoke("a", "produce", &[Value::I32(src.addr as i32), Value::I32(src.len as i32)])
            .unwrap();
        let (target, moved) = transfer(&mut shim, "a", "b").unwrap();
        assert_eq!(&moved[..], &payload[..]);
        assert_eq!(&shim.peek_memory("b", target).unwrap()[..], &payload[..]);
    }

    #[test]
    fn a_module_cannot_move_to_itself_and_leaks_nothing_trying() {
        let bed = Testbed::paper();
        let mut shim = shared_vm_shim(&bed);
        let src = shim.write_memory_host("a", &[3u8; 64]).unwrap();
        shim.invoke("a", "produce", &[Value::I32(src.addr as i32), Value::I32(src.len as i32)])
            .unwrap();
        let probe = shim.allocate_inbox("a", 64).unwrap();
        shim.deallocate("a", probe).unwrap();
        assert!(matches!(
            move_outbox(&mut shim, "a", "a"),
            Err(RoadrunnerError::Config(_))
        ));
        // The source region is untouched; the would-be inbox is revoked
        // and freed (the guest's LIFO allocator hands its address out again).
        assert_eq!(&shim.peek_memory("a", src).unwrap()[..], &[3u8; 64]);
        assert!(shim.peek_memory("a", probe).is_err());
        assert_eq!(shim.allocate_inbox("a", 64).unwrap(), probe);
    }

    #[test]
    fn transfer_without_outbox_fails() {
        let bed = Testbed::paper();
        let mut shim = shared_vm_shim(&bed);
        assert!(matches!(
            transfer(&mut shim, "a", "b"),
            Err(RoadrunnerError::Config(_))
        ));
    }

    #[test]
    fn no_kernel_time_is_spent() {
        let bed = Testbed::paper();
        let mut shim = shared_vm_shim(&bed);
        let payload = vec![1u8; 1 << 20];
        let src = shim.write_memory_host("a", &payload).unwrap();
        shim.invoke("a", "produce", &[Value::I32(src.addr as i32), Value::I32(src.len as i32)])
            .unwrap();
        let kernel_before = shim.sandbox().account().kernel_ns();
        transfer(&mut shim, "a", "b").unwrap();
        assert_eq!(
            shim.sandbox().account().kernel_ns(),
            kernel_before,
            "user-space mode must not enter the kernel"
        );
    }

    #[test]
    fn source_region_is_released_after_transfer() {
        let bed = Testbed::paper();
        let mut shim = shared_vm_shim(&bed);
        let src = shim.write_memory_host("a", &[9u8; 64]).unwrap();
        shim.invoke("a", "produce", &[Value::I32(src.addr as i32), Value::I32(src.len as i32)])
            .unwrap();
        transfer(&mut shim, "a", "b").unwrap();
        assert!(matches!(
            shim.peek_memory("a", src),
            Err(RoadrunnerError::AccessViolation(_))
        ));
    }
}
