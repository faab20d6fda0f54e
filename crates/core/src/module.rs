//! One module loaded in a shim's VM, and the gate to its linear memory.
//!
//! Every host access — the Table 1 reads and writes, the user-space move,
//! the streaming transfer modes — borrows guest memory through
//! [`LoadedModule::bytes`] / [`LoadedModule::bytes_mut`] and nowhere else,
//! so the paper's §3.1 rule (pre-registered regions, bounds checked against
//! the memory as it is *now*) is enforced in exactly one place.

use std::sync::Arc;

use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::node::Sandbox;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{Instance, Trap};

use crate::api::ShimState;
use crate::error::RoadrunnerError;
use crate::guest::{ALLOCATE, DEALLOCATE};
use crate::region::MemoryRegion;

pub(crate) struct LoadedModule {
    pub(crate) name: String,
    pub(crate) instance: Instance,
    pub(crate) bundle: Arc<FunctionBundle>,
    /// Last observed linear-memory size, for RAM accounting.
    known_memory_len: usize,
    /// The guest allocator's two exports, resolved once at load.
    allocate: Option<u32>,
    deallocate: Option<u32>,
}

fn not_shim_state() -> RoadrunnerError {
    RoadrunnerError::Config("host state is not ShimState".into())
}

fn no_memory() -> RoadrunnerError {
    RoadrunnerError::Config("module has no memory".into())
}

impl LoadedModule {
    pub(crate) fn new(name: String, instance: Instance, bundle: Arc<FunctionBundle>) -> Self {
        let allocate = instance.exported_func(ALLOCATE).ok();
        let deallocate = instance.exported_func(DEALLOCATE).ok();
        let known_memory_len = instance.memory().map_or(0, |m| m.len());
        Self { name, instance, bundle, known_memory_len, allocate, deallocate }
    }

    /// Calls guest function `func`, charging `sandbox` the interpreted
    /// instructions as user CPU time and any memory growth as RAM.
    pub(crate) fn call(
        &mut self,
        sandbox: &Sandbox,
        func: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, RoadrunnerError> {
        self.instance.reset_instr_count();
        let result = self.instance.call_index(func, args);
        let executed = self.instance.instr_count();
        // RAM accounting: linear memory only grows, and only while the
        // guest runs (a host write cannot grow it).
        let grown = self.memory_len().saturating_sub(self.known_memory_len);
        self.known_memory_len += grown;
        sandbox.charge_user((executed as f64 * sandbox.cost().wasm_instr_ns).round() as u64);
        if grown > 0 {
            sandbox.account().alloc(grown as u64);
        }
        result.map_err(RoadrunnerError::from)
    }

    /// Asks the guest allocator for `len` bytes and registers them for
    /// host access.
    pub(crate) fn allocate_inbox(
        &mut self,
        sandbox: &Sandbox,
        len: usize,
    ) -> Result<MemoryRegion, RoadrunnerError> {
        let len = u32::try_from(len).map_err(|_| {
            RoadrunnerError::AccessViolation("payload exceeds 32-bit address space".into())
        })?;
        let allocate = self
            .allocate
            .ok_or_else(|| RoadrunnerError::MissingGuestApi(ALLOCATE.to_owned()))?;
        let values = self.call(sandbox, allocate, &[Value::I32(len as i32)])?;
        let addr = values.first().and_then(Value::as_i32).ok_or_else(|| {
            RoadrunnerError::MissingGuestApi(format!("{ALLOCATE} returned no address"))
        })? as u32;
        let region = MemoryRegion::new(addr, len);
        self.state_mut()?.regions_mut().register(region);
        Ok(region)
    }

    /// Revokes host access to `region`, then frees it in the guest
    /// (access ends even if the guest's free traps or is missing).
    pub(crate) fn release(
        &mut self,
        sandbox: &Sandbox,
        region: MemoryRegion,
    ) -> Result<(), RoadrunnerError> {
        self.state_mut()?.regions_mut().revoke(region);
        let deallocate = self.deallocate.ok_or_else(|| Trap::BadExport(DEALLOCATE.to_owned()))?;
        self.call(sandbox, deallocate, &[Value::I32(region.addr as i32)]).map(drop)
    }

    pub(crate) fn state(&self) -> Result<&ShimState, RoadrunnerError> {
        self.instance.data::<ShimState>().ok_or_else(not_shim_state)
    }

    pub(crate) fn state_mut(&mut self) -> Result<&mut ShimState, RoadrunnerError> {
        self.instance.data_mut::<ShimState>().ok_or_else(not_shim_state)
    }

    pub(crate) fn memory_len(&self) -> usize {
        self.instance.memory().map_or(0, |m| m.len())
    }

    /// The gate: `region` must be covered by a region this module
    /// registered and fit its memory as it is now.
    fn check(&self, region: MemoryRegion) -> Result<(), RoadrunnerError> {
        self.state()?.regions().check(region, self.memory_len())
    }

    /// Lends a checked region where it lies.
    pub(crate) fn bytes(&self, region: MemoryRegion) -> Result<&[u8], RoadrunnerError> {
        self.check(region)?;
        let memory = self.instance.memory().ok_or_else(no_memory)?;
        Ok(memory.read(region.addr, region.len)?)
    }

    /// Lends a checked region for writing in place.
    pub(crate) fn bytes_mut(&mut self, region: MemoryRegion) -> Result<&mut [u8], RoadrunnerError> {
        self.check(region)?;
        let memory = self.instance.memory_mut().ok_or_else(no_memory)?;
        Ok(memory.slice_mut(region.addr, region.len)?)
    }
}
