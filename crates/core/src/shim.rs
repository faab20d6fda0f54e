//! The Roadrunner shim: sidecar lifecycle manager and memory mediator.
//!
//! One shim runs beside each function sandbox (or beside a group of
//! mutually-trusting functions sharing a Wasm VM in user-space mode). It
//! owns the VM lifecycle — "memory configuration, binary loading, and
//! runtime interaction" (paper §3.2.2) — and mediates *every* host access
//! to guest linear memory through registered regions with bounds checks.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::node::{Node, Sandbox};
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{decode, Instance, Linker};

use crate::api::{register_roadrunner_api, ShimState};
use crate::config::ShimConfig;
use crate::error::RoadrunnerError;
use crate::module::LoadedModule;
use crate::region::MemoryRegion;

/// A Roadrunner sidecar shim: one Wasm VM, one sandbox (cgroup), one or
/// more modules of the same workflow/tenant.
pub struct Shim {
    name: String,
    sandbox: Sandbox,
    config: ShimConfig,
    linker: Linker,
    /// A VM hosts a handful of modules at most, so a name is found by
    /// scanning them — cheaper than hashing it.
    modules: Vec<LoadedModule>,
}

impl std::fmt::Debug for Shim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shim")
            .field("name", &self.name)
            .field("modules", &self.modules.iter().map(|m| &m.name).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

fn unknown(module: &str) -> RoadrunnerError {
    RoadrunnerError::UnknownModule(module.to_owned())
}

/// One Wasm VM I/O pass over `bytes` bytes, as user CPU time.
fn charge_vm_io(sandbox: &Sandbox, bytes: usize) {
    sandbox.charge_user(sandbox.cost().vm_io_ns(bytes));
}

/// An inbox while it is being filled: the target module, resolved once
/// for the whole fill, and the sandbox the writes are charged to.
pub(crate) struct Inbox<'a> {
    module: &'a mut LoadedModule,
    sandbox: &'a Sandbox,
    region: MemoryRegion,
}

impl<'a> Inbox<'a> {
    /// The receiving shim's sandbox (outlives any borrow of the inbox, so
    /// a socket read can be charged to it while its sink writes here).
    pub(crate) fn sandbox(&self) -> &'a Sandbox {
        self.sandbox
    }

    /// Writes `data` at `offset`; see [`Shim::write_into_inbox`].
    pub(crate) fn write(&mut self, offset: u32, data: &[u8]) -> Result<(), RoadrunnerError> {
        let region = self.region;
        let slice = region.slice(offset, data.len()).ok_or_else(|| {
            RoadrunnerError::AccessViolation(format!(
                "write of {} bytes at offset {offset} escapes region [{}, {})",
                data.len(),
                region.addr,
                region.end()
            ))
        })?;
        self.module.bytes_mut(slice)?.copy_from_slice(data);
        charge_vm_io(self.sandbox, data.len());
        self.sandbox.account().count_copy(data.len());
        Ok(())
    }
}

impl Shim {
    /// Creates a shim on `node`, with its own sandbox named after it.
    pub fn new(name: impl Into<String>, node: &Node, config: ShimConfig) -> Self {
        let name = name.into();
        let sandbox = node.sandbox(format!("shim-{name}"));
        let mut linker = Linker::new();
        roadrunner_wasi::register::<ShimState>(&mut linker);
        register_roadrunner_api(&mut linker);
        Self { name, sandbox, config, linker, modules: Vec::new() }
    }

    /// Shim name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sandbox charged for everything this shim and its guests do.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Transfer chunk size: the cost model's I/O chunk.
    pub fn io_chunk(&self) -> usize {
        self.sandbox.cost().io_chunk_bytes.max(1)
    }

    /// Loads `bundle` into this shim's VM as `module_name`.
    ///
    /// Enforces the paper's trust rule before co-locating: every already
    /// loaded module must share workflow *and* tenant with the newcomer.
    /// Charges cold-start costs (binary decode + VM init) when
    /// [`ShimConfig::charge_load_costs`] is set, and tracks the VM's
    /// initial memory in the sandbox's RAM account.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::Config`] if `module_name` is already loaded
    /// (nothing is replaced) or the bundle is not Wasm,
    /// [`RoadrunnerError::TrustViolation`] on a workflow/tenant mismatch,
    /// decode and instantiation errors otherwise.
    pub fn load_module(
        &mut self,
        module_name: impl Into<String>,
        bundle: Arc<FunctionBundle>,
    ) -> Result<(), RoadrunnerError> {
        let loaded = self.instantiate(module_name.into(), bundle)?;
        self.keep(loaded);
        Ok(())
    }

    /// [`load_module`](Self::load_module) for a function whose `handler`
    /// export the caller will [`call`](Self::call) by index: resolves it
    /// before the module is kept, so a wrong handler name loads nothing.
    ///
    /// # Errors
    ///
    /// As `load_module`, plus [`Trap::BadExport`](roadrunner_wasm::Trap)
    /// if the module has no function export `handler`.
    pub(crate) fn load_function(
        &mut self,
        module_name: &str,
        bundle: Arc<FunctionBundle>,
        handler: &str,
    ) -> Result<u32, RoadrunnerError> {
        let loaded = self.instantiate(module_name.to_owned(), bundle)?;
        let handler = loaded.instance.exported_func(handler)?;
        self.keep(loaded);
        Ok(handler)
    }

    fn instantiate(
        &self,
        module_name: String,
        bundle: Arc<FunctionBundle>,
    ) -> Result<LoadedModule, RoadrunnerError> {
        for existing in &self.modules {
            if existing.name == module_name {
                return Err(RoadrunnerError::Config(format!(
                    "module `{module_name}` is already loaded in shim `{}`",
                    self.name
                )));
            }
            if !existing.bundle.trusts(&bundle) {
                return Err(RoadrunnerError::TrustViolation(format!(
                    "module `{module_name}` ({:?}/{:?}) may not share a VM with `{}` ({:?}/{:?})",
                    bundle.workflow(),
                    bundle.tenant(),
                    existing.name,
                    existing.bundle.workflow(),
                    existing.bundle.tenant(),
                )));
            }
        }
        let binary = bundle.binary();
        let module = decode::decode(binary).map_err(|e| {
            RoadrunnerError::Config(format!("bundle `{}`: {e}", bundle.name()))
        })?;

        if self.config.charge_load_costs {
            self.sandbox.charge_user(self.sandbox.cost().wasm_load_ns(binary.len()));
        }

        let state = ShimState::new(WasiCtx::new(self.sandbox.clone()));
        let instance =
            Instance::new(module, &self.linker, self.config.engine_limits, Box::new(state))?;
        Ok(LoadedModule::new(module_name, instance, bundle))
    }

    fn keep(&mut self, loaded: LoadedModule) {
        self.sandbox.account().alloc(loaded.memory_len() as u64);
        self.modules.push(loaded);
    }

    /// The named module for a guest call or a write, beside the sandbox
    /// either is charged to.
    fn parts(&mut self, name: &str) -> Result<(&mut LoadedModule, &Sandbox), RoadrunnerError> {
        let module = self.modules.iter_mut().find(|m| m.name == name);
        Ok((module.ok_or_else(|| unknown(name))?, &self.sandbox))
    }

    fn module_mut(&mut self, name: &str) -> Result<&mut LoadedModule, RoadrunnerError> {
        Ok(self.parts(name)?.0)
    }

    fn module_ref(&self, name: &str) -> Result<&LoadedModule, RoadrunnerError> {
        self.modules.iter().find(|m| m.name == name).ok_or_else(|| unknown(name))
    }

    /// Current linear-memory size of a module.
    pub fn memory_len(&self, module: &str) -> Result<usize, RoadrunnerError> {
        Ok(self.module_ref(module)?.memory_len())
    }

    /// Invokes an exported guest function, charging interpreted
    /// instructions as user CPU time and tracking memory growth
    /// ([`call_charged`](crate::call_charged)); the results are lent from
    /// the module's instance.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] or any guest
    /// [`Trap`](roadrunner_wasm::Trap).
    pub fn invoke(
        &mut self,
        module: &str,
        func: &str,
        args: &[Value],
    ) -> Result<&[Value], RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        let func = module.instance.exported_func(func)?;
        module.call(sandbox, func, args)
    }

    /// [`invoke`](Self::invoke) of an export already resolved by
    /// [`load_function`](Self::load_function).
    pub(crate) fn call(
        &mut self,
        module: &str,
        func: u32,
        args: &[Value],
    ) -> Result<&[Value], RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        module.call(sandbox, func, args)
    }

    /// The data plane's read of a registered region: checks it, charges
    /// the Wasm VM I/O cost and lends the bytes where they lie, so the
    /// caller's own copy (into a socket, a host buffer) is the only one.
    pub(crate) fn lend_region(
        &self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<&[u8], RoadrunnerError> {
        let data = self.module_ref(module)?.bytes(region)?;
        charge_vm_io(&self.sandbox, data.len());
        Ok(data)
    }

    /// Table 1 `read_memory_host`: copies a registered region out of the
    /// guest's linear memory into a host buffer, charging the Wasm VM I/O
    /// cost. This is the *only* copy Roadrunner pays on the source side.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::AccessViolation`] if the region was never
    /// registered (or is out of bounds).
    pub fn read_memory_host(
        &mut self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<Bytes, RoadrunnerError> {
        let data = self.lend_region(module, region)?;
        self.sandbox.account().count_copy(data.len());
        Ok(Bytes::copy_from_slice(data))
    }

    /// Allocates an inbox of `len` bytes in the guest (via its exported
    /// `allocate_memory`) and registers it for host access, without
    /// writing anything yet. Streaming transfers fill it incrementally
    /// with [`Shim::write_into_inbox`].
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::MissingGuestApi`] if the guest exports no
    /// allocator; traps and access errors otherwise.
    pub fn allocate_inbox(
        &mut self,
        module: &str,
        len: usize,
    ) -> Result<MemoryRegion, RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        module.allocate_inbox(sandbox, len)
    }

    /// [`allocate_inbox`](Self::allocate_inbox), then `fill` lands the
    /// payload in it. If `fill` fails the inbox is released again, so a
    /// failed receive leaves no region registered and no guest allocation.
    pub(crate) fn fill_inbox(
        &mut self,
        module: &str,
        len: usize,
        fill: impl FnOnce(&mut Inbox<'_>) -> Result<(), RoadrunnerError>,
    ) -> Result<MemoryRegion, RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        let region = module.allocate_inbox(sandbox, len)?;
        let mut inbox = Inbox { module, sandbox, region };
        if let Err(e) = fill(&mut inbox) {
            // Best effort: the fill error is the one worth reporting.
            let _ = inbox.module.release(sandbox, region);
            return Err(e);
        }
        Ok(region)
    }

    /// Writes `data` into a registered inbox at `offset`, charging the
    /// per-byte Wasm VM I/O cost. The write must stay inside `region`.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::AccessViolation`] if the slice would leave the
    /// registered region (or its end does not fit 32-bit addressing).
    pub fn write_into_inbox(
        &mut self,
        module: &str,
        region: MemoryRegion,
        offset: u32,
        data: &[u8],
    ) -> Result<(), RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        Inbox { module, sandbox, region }.write(offset, data)
    }

    /// Table 1 `write_memory_host`: asks the guest allocator for space
    /// (`allocate_memory`), writes `data` into it, registers the region
    /// and returns it. This is the *only* copy Roadrunner pays on the
    /// target side.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::MissingGuestApi`] if the guest exports no
    /// allocator; traps and access errors otherwise.
    pub fn write_memory_host(
        &mut self,
        module: &str,
        data: &[u8],
    ) -> Result<MemoryRegion, RoadrunnerError> {
        self.fill_inbox(module, data.len(), |inbox| inbox.write(0, data))
    }

    /// The user-space move (paper §4.1): copies region `src` of module
    /// `from` straight into region `dst` of module `to` of this one VM —
    /// the shim's read and write as a single real copy. Both regions are
    /// checked like any host access; both Wasm VM I/O passes are charged.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::Config`] if `from` and `to` name the same
    /// module or the regions differ in length;
    /// [`RoadrunnerError::AccessViolation`] if either region is refused.
    pub fn copy_between(
        &mut self,
        from: &str,
        src: MemoryRegion,
        to: &str,
        dst: MemoryRegion,
    ) -> Result<(), RoadrunnerError> {
        // One module twice or unequal lengths are refused here, where
        // `get_disjoint_mut` and `copy_from_slice` would panic.
        let refused = || {
            RoadrunnerError::Config(format!(
                "cannot move {} bytes of `{from}` into {} bytes of `{to}`",
                src.len, dst.len
            ))
        };
        if from == to || src.len != dst.len {
            return Err(refused());
        }
        let position = |name: &str| {
            self.modules.iter().position(|m| m.name == name).ok_or_else(|| unknown(name))
        };
        let pair = [position(from)?, position(to)?];
        let [source, target] = self.modules.get_disjoint_mut(pair).map_err(|_| refused())?;
        target.bytes_mut(dst)?.copy_from_slice(source.bytes(src)?);
        let len = src.len as usize;
        charge_vm_io(&self.sandbox, len);
        charge_vm_io(&self.sandbox, len);
        self.sandbox.account().count_copy(len);
        Ok(())
    }

    /// Releases a region: revokes host access, then calls the guest's
    /// `deallocate_memory` (access ends even if the guest's free traps).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Shim::invoke`].
    pub fn deallocate(
        &mut self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<(), RoadrunnerError> {
        let (module, sandbox) = self.parts(module)?;
        module.release(sandbox, region)
    }

    /// Takes the outbox region the guest last handed over via
    /// `send_to_host`.
    pub fn take_outbox(&mut self, module: &str) -> Result<Option<MemoryRegion>, RoadrunnerError> {
        Ok(self.module_mut(module)?.state_mut()?.take_outbox())
    }

    /// Looks at the pending outbox without consuming it.
    pub fn peek_outbox(&self, module: &str) -> Result<Option<MemoryRegion>, RoadrunnerError> {
        Ok(self.module_ref(module)?.state()?.peek_outbox())
    }

    /// Cost-free verification read used by tests and integrity checks —
    /// still subject to region registration and bounds checks, but does
    /// not charge the sandbox (it models offline inspection, not data
    /// plane traffic).
    pub fn peek_memory(
        &self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<Bytes, RoadrunnerError> {
        let data = self.module_ref(module)?.bytes(region)?;
        self.sandbox.account().count_copy(data.len());
        Ok(Bytes::copy_from_slice(data))
    }

    /// Direct WASI-context access for a module (installing sockets,
    /// seeding files, reading stdout).
    pub fn wasi_mut(&mut self, module: &str) -> Result<&mut WasiCtx, RoadrunnerError> {
        Ok(self.module_mut(module)?.state_mut()?.wasi_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest;
    use roadrunner_vkernel::Testbed;
    use roadrunner_wasm::encode;

    fn wasm_bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("wf")
                .with_tenant("acme"),
        )
    }

    fn shim_on(bed: &Testbed) -> Shim {
        Shim::new("test", bed.node(0), ShimConfig::default().with_load_costs(false))
    }

    #[test]
    fn load_and_invoke() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        shim.invoke("a", "produce", &[Value::I32(4096), Value::I32(16)]).unwrap();
        assert_eq!(
            shim.take_outbox("a").unwrap(),
            Some(MemoryRegion::new(4096, 16))
        );
        assert_eq!(shim.take_outbox("a").unwrap(), None);
        assert!(shim.sandbox().account().user_ns() > 0, "instructions charged");
    }

    #[test]
    fn trust_rule_blocks_foreign_modules() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        let foreign = Arc::new(
            FunctionBundle::wasm("evil", encode::encode(&guest::consumer()))
                .with_workflow("other-wf")
                .with_tenant("acme"),
        );
        let err = shim.load_module("evil", foreign).unwrap_err();
        assert!(matches!(err, RoadrunnerError::TrustViolation(_)));
        // Same workflow + tenant is allowed.
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        assert_eq!(shim.modules.len(), 2);
    }

    #[test]
    fn read_requires_registration() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        let err = shim
            .read_memory_host("a", MemoryRegion::new(4096, 8))
            .unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
        // After the guest registers via send_to_host, reads succeed.
        shim.invoke("a", "produce", &[Value::I32(4096), Value::I32(8)]).unwrap();
        shim.read_memory_host("a", MemoryRegion::new(4096, 8)).unwrap();
        // …but only inside the registered window.
        let err = shim
            .read_memory_host("a", MemoryRegion::new(4100, 8))
            .unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
    }

    #[test]
    fn write_allocates_registers_and_copies() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let region = shim.write_memory_host("b", b"roadrunner payload").unwrap();
        assert_eq!(region.len, 18);
        let back = shim.peek_memory("b", region).unwrap();
        assert_eq!(&back[..], b"roadrunner payload");
        // The consumer can now be invoked over the delivered region.
        let ack = shim
            .invoke(
                "b",
                "consume",
                &[Value::I32(region.addr as i32), Value::I32(region.len as i32)],
            )
            .unwrap();
        assert!(ack[0].as_i32().is_some());
    }

    #[test]
    fn write_grows_memory_and_tracks_ram() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let ram_before = shim.sandbox().account().ram_current();
        let payload = vec![7u8; 10 << 20];
        let region = shim.write_memory_host("b", &payload).unwrap();
        assert_eq!(region.len as usize, payload.len());
        let ram_after = shim.sandbox().account().ram_current();
        assert!(
            ram_after >= ram_before + (10 << 20),
            "RAM accounting must see the growth: {ram_before} -> {ram_after}"
        );
        assert_eq!(&shim.peek_memory("b", region).unwrap()[..], &payload[..]);
    }

    #[test]
    fn inbox_offsets_are_checked_without_wrapping() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let inbox = shim.allocate_inbox("b", 64).unwrap();
        let refused = |r: Result<(), RoadrunnerError>| {
            assert!(matches!(r, Err(RoadrunnerError::AccessViolation(_))), "{r:?}");
        };
        // `addr + offset` must not wrap back into the region (nor panic
        // under overflow checks).
        refused(shim.write_into_inbox("b", inbox, u32::MAX, &[1]));
        refused(shim.write_into_inbox("b", inbox, u32::MAX - inbox.addr + 1, &[1; 8]));
        refused(shim.write_into_inbox("b", inbox, inbox.len, &[1]));
        refused(shim.write_into_inbox("b", inbox, 60, &[1; 5]));
        // Up to the last byte, and nothing at all at the very end, is fine.
        shim.write_into_inbox("b", inbox, 60, &[7; 4]).unwrap();
        shim.write_into_inbox("b", inbox, inbox.len, &[]).unwrap();
        assert_eq!(&shim.peek_memory("b", inbox).unwrap()[60..], &[7; 4]);
    }

    #[test]
    fn copy_between_moves_one_region_into_another() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let src = shim.write_memory_host("a", b"straight across").unwrap();
        let dst = shim.allocate_inbox("b", src.len as usize).unwrap();
        let (user, copied) = (shim.sandbox().user_ns(), shim.sandbox().account().copied_bytes());
        shim.copy_between("a", src, "b", dst).unwrap();
        // Charged as the read plus the write it replaces; copied once.
        assert_eq!(shim.sandbox().user_ns() - user, 2 * bed.cost().vm_io_ns(src.len as usize));
        assert_eq!(shim.sandbox().account().copied_bytes() - copied, u64::from(src.len));
        assert_eq!(&shim.peek_memory("b", dst).unwrap()[..], b"straight across");
        // One module twice, or regions of unequal length, are typed errors
        // — not a `get_disjoint_mut` or `copy_from_slice` panic.
        let short = shim.allocate_inbox("b", 3).unwrap();
        for (to, dst) in [("a", src), ("b", short)] {
            assert!(matches!(
                shim.copy_between("a", src, to, dst),
                Err(RoadrunnerError::Config(_))
            ));
        }
    }

    #[test]
    fn a_failed_fill_releases_the_inbox() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let probe = shim.allocate_inbox("b", 1).unwrap();
        shim.deallocate("b", probe).unwrap();
        let err = shim
            .fill_inbox("b", 100, |inbox| inbox.write(0, &[0; 101]))
            .unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
        let leaked = MemoryRegion::new(probe.addr, 100);
        assert!(shim.peek_memory("b", leaked).is_err(), "the inbox is revoked");
        assert_eq!(shim.allocate_inbox("b", 1).unwrap(), probe, "and freed in the guest");
    }

    #[test]
    fn deallocate_revokes_access() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let region = shim.write_memory_host("b", &[1, 2, 3, 4]).unwrap();
        shim.deallocate("b", region).unwrap();
        assert!(matches!(
            shim.peek_memory("b", region),
            Err(RoadrunnerError::AccessViolation(_))
        ));
    }

    #[test]
    fn a_second_module_under_a_loaded_name_is_refused_and_replaces_nothing() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        let kept = shim.write_memory_host("a", b"still here").unwrap();
        let ram = shim.sandbox().account().ram_current();
        let err = shim.load_module("a", wasm_bundle("a", guest::consumer())).unwrap_err();
        assert!(matches!(&err, RoadrunnerError::Config(msg) if msg.contains("`a`")), "{err}");
        // The first instance is still the one loaded, its memory intact,
        // and no second linear memory was booked against the sandbox.
        assert_eq!(shim.modules.len(), 1);
        assert_eq!(&shim.peek_memory("a", kept).unwrap()[..], b"still here");
        assert!(shim.invoke("a", "produce", &[Value::I32(0), Value::I32(0)]).is_ok());
        assert_eq!(shim.sandbox().account().ram_current(), ram);
    }

    /// The fill path writes through an [`Inbox`] resolved once;
    /// `write_into_inbox` resolves the name and writes through the same
    /// body. Either way a revoked, unregistered or out-of-bounds region
    /// is refused with the same error, before any byte or charge moves —
    /// as are `copy_between` and `peek_memory`, which have the one route.
    #[test]
    fn revoked_and_out_of_bounds_regions_are_refused_on_every_route() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let live = shim.write_memory_host("a", &[5; 64]).unwrap();
        let revoked = shim.allocate_inbox("b", 64).unwrap();
        shim.deallocate("b", revoked).unwrap();
        let beyond = MemoryRegion::new(shim.memory_len("b").unwrap() as u32 - 8, 64);
        let never = MemoryRegion::new(revoked.addr + 4096, 64);
        let spent = |shim: &Shim| {
            let account = shim.sandbox().account();
            (account.user_ns(), account.kernel_ns(), account.copied_bytes())
        };
        let before = spent(&shim);
        for bad in [revoked, beyond, never] {
            let by_name = shim.write_into_inbox("b", bad, 0, &[1; 64]).unwrap_err();
            let (module, sandbox) = shim.parts("b").unwrap();
            let resolved = Inbox { module, sandbox, region: bad }.write(0, &[1; 64]).unwrap_err();
            assert!(matches!(by_name, RoadrunnerError::AccessViolation(_)), "{by_name}");
            assert_eq!(resolved.to_string(), by_name.to_string());
            for err in [
                shim.copy_between("a", live, "b", bad).unwrap_err(),
                shim.copy_between("b", bad, "a", live).unwrap_err(),
                shim.peek_memory("b", bad).unwrap_err(),
                shim.read_memory_host("b", bad).unwrap_err(),
            ] {
                assert!(matches!(err, RoadrunnerError::AccessViolation(_)), "{err}");
            }
        }
        assert_eq!(spent(&shim), before, "a refused access charges and copies nothing");
        assert_eq!(&shim.peek_memory("a", live).unwrap()[..], &[5; 64]);
    }

    #[test]
    fn unknown_module_errors() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        assert!(matches!(
            shim.invoke("ghost", "f", &[]),
            Err(RoadrunnerError::UnknownModule(_))
        ));
        assert!(matches!(
            shim.read_memory_host("ghost", MemoryRegion::new(0, 1)),
            Err(RoadrunnerError::UnknownModule(_))
        ));
    }

    #[test]
    fn missing_allocator_is_reported() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("plain", wasm_bundle("plain", guest::hello_world()))
            .unwrap();
        let err = shim.write_memory_host("plain", b"x").unwrap_err();
        assert!(matches!(err, RoadrunnerError::MissingGuestApi(_)));
    }

    #[test]
    fn load_costs_are_charged_when_enabled() {
        let bed = Testbed::paper();
        let mut cheap = Shim::new("cheap", bed.node(0), ShimConfig::default().with_load_costs(false));
        let mut paid = Shim::new("paid", bed.node(0), ShimConfig::default());
        let bundle = wasm_bundle("a", guest::producer());
        cheap.load_module("a", Arc::clone(&bundle)).unwrap();
        let cheap_ns = cheap.sandbox().account().user_ns();
        paid.load_module("a", bundle).unwrap();
        let paid_ns = paid.sandbox().account().user_ns();
        assert!(paid_ns > cheap_ns);
        assert!(paid_ns >= bed.cost().wasm_init_ns);
    }
}
