//! Engine-wide execution limits.

/// Resource limits enforced by the engine, independent of what a module
/// declares. The shim sets these per function at deployment time (paper
/// §3.2.5: "configures the Wasm runtime, which includes setting resource
/// limits such as memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLimits {
    /// Hard cap on linear memory, in 64 KiB pages. Default is 16 Ki pages
    /// = 1 GiB, enough for the paper's 500 MB payloads plus headroom.
    pub max_memory_pages: u32,
    /// Maximum nested call depth before [`crate::Trap::StackOverflow`].
    pub max_call_depth: usize,
    /// Initial fuel (instructions the instance may execute); `None`
    /// disables metering.
    pub initial_fuel: Option<u64>,
}

impl EngineLimits {
    /// Defaults: 1 GiB memory, depth 512, unmetered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the memory cap in pages.
    pub fn with_max_memory_pages(mut self, pages: u32) -> Self {
        self.max_memory_pages = pages;
        self
    }

    /// Sets the call-depth cap.
    pub fn with_max_call_depth(mut self, depth: usize) -> Self {
        self.max_call_depth = depth;
        self
    }

    /// Enables fuel metering with the given budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.initial_fuel = Some(fuel);
        self
    }
}

impl Default for EngineLimits {
    fn default() -> Self {
        Self {
            max_memory_pages: 16 * 1024,
            max_call_depth: 512,
            initial_fuel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous() {
        let l = EngineLimits::default();
        assert_eq!(l.max_memory_pages, 16 * 1024);
        assert!(l.initial_fuel.is_none());
    }

    #[test]
    fn builder_methods_chain() {
        let l = EngineLimits::new()
            .with_max_memory_pages(8)
            .with_max_call_depth(10)
            .with_fuel(1000);
        assert_eq!(l.max_memory_pages, 8);
        assert_eq!(l.max_call_depth, 10);
        assert_eq!(l.initial_fuel, Some(1000));
    }
}
