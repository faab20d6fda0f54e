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

/// Calls function `func` of `instance` with `args`, charging `sandbox`
/// the interpreted instructions as user CPU time and the growth of linear
/// memory past `memory_len` (the size last charged, updated here) as RAM,
/// and lends the results from the instance. Memory only grows while the
/// guest runs — a host write cannot grow it — so charging it here misses
/// nothing. The one body behind every metered guest call: a shim's
/// modules and the WasmEdge baseline's instances.
///
/// # Errors
///
/// Any [`Trap`] of the call, after its instructions are charged.
pub fn call_charged<'i>(
    instance: &'i mut Instance,
    sandbox: &Sandbox,
    func: u32,
    args: &[Value],
    memory_len: &mut usize,
) -> Result<&'i [Value], Trap> {
    instance.reset_instr_count();
    // The results stay in the instance while the charges read it.
    let trap = instance.call_index(func, args).err();
    let grown = instance.memory().map_or(0, |m| m.len()).saturating_sub(*memory_len);
    *memory_len += grown;
    sandbox.charge_user(sandbox.cost().wasm_instr_ns_for(instance.instr_count()));
    if grown > 0 {
        sandbox.account().alloc(grown as u64);
    }
    match trap {
        Some(trap) => Err(trap),
        None => Ok(instance.results()),
    }
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

    /// Calls guest function `func` through [`call_charged`], lending its
    /// results from the instance.
    pub(crate) fn call(
        &mut self,
        sandbox: &Sandbox,
        func: u32,
        args: &[Value],
    ) -> Result<&[Value], RoadrunnerError> {
        call_charged(&mut self.instance, sandbox, func, args, &mut self.known_memory_len)
            .map_err(RoadrunnerError::from)
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
