//! Shim configuration.

use roadrunner_wasm::EngineLimits;

/// Configuration applied when a shim brings up its Wasm VM (paper
/// §3.2.5: "configures the Wasm runtime, which includes setting resource
/// limits such as memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShimConfig {
    /// Engine limits for every module loaded into this shim's VM.
    pub engine_limits: EngineLimits,
    /// Whether module loading charges cold-start costs (binary decode +
    /// VM init) to the sandbox. Benchmarks measuring only steady-state
    /// transfers disable this.
    pub charge_load_costs: bool,
    /// Chunk size for kernel-space and network transfers; defaults to the
    /// cost model's I/O chunk when `None`.
    pub io_chunk_bytes: Option<usize>,
}

impl ShimConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the engine limits.
    pub fn with_engine_limits(mut self, limits: EngineLimits) -> Self {
        self.engine_limits = limits;
        self
    }

    /// Enables or disables cold-start charging.
    pub fn with_load_costs(mut self, charge: bool) -> Self {
        self.charge_load_costs = charge;
        self
    }
}

impl Default for ShimConfig {
    fn default() -> Self {
        Self {
            engine_limits: EngineLimits::default(),
            charge_load_costs: true,
            io_chunk_bytes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ShimConfig::default();
        assert!(c.charge_load_costs);
        assert!(c.io_chunk_bytes.is_none());
    }

    #[test]
    fn builder_chains() {
        let c = ShimConfig::new()
            .with_load_costs(false)
            .with_engine_limits(EngineLimits::default().with_fuel(10));
        assert!(!c.charge_load_costs);
        assert_eq!(c.engine_limits.initial_fuel, Some(10));
    }
}
