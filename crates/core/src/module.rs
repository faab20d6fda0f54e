//! One module loaded in a shim's VM, and the gate to its linear memory.
//!
//! Every host access — the Table 1 reads and writes, the user-space move,
//! the streaming transfer modes — borrows guest memory through
//! [`LoadedModule::bytes`] / [`LoadedModule::bytes_mut`] and nowhere else,
//! so the paper's §3.1 rule (pre-registered regions, bounds checked against
//! the memory as it is *now*) is enforced in exactly one place.

use std::sync::Arc;

use roadrunner_platform::FunctionBundle;
use roadrunner_wasm::Instance;

use crate::api::ShimState;
use crate::error::RoadrunnerError;
use crate::region::MemoryRegion;

pub(crate) struct LoadedModule {
    pub(crate) instance: Instance,
    pub(crate) bundle: Arc<FunctionBundle>,
    /// Last observed linear-memory size, for RAM accounting.
    pub(crate) known_memory_len: usize,
}

fn not_shim_state() -> RoadrunnerError {
    RoadrunnerError::Config("host state is not ShimState".into())
}

fn no_memory() -> RoadrunnerError {
    RoadrunnerError::Config("module has no memory".into())
}

impl LoadedModule {
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
