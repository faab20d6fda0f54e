//! Memory regions and the shim's access-control registry.
//!
//! The paper's §3.1: "Roadrunner restricts shim-to-Wasm access to
//! pre-registered memory regions and applies bounds checking before any
//! read or write operation." A guest registers regions by calling
//! `send_to_host` (or implicitly when the shim allocates an inbox for
//! it); any host access outside a registered region is refused.

use crate::error::RoadrunnerError;

/// A `(address, length)` window into a function's linear memory — what
/// `locate_memory_region` returns in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryRegion {
    /// Start offset in linear memory.
    pub addr: u32,
    /// Length in bytes.
    pub len: u32,
}

impl MemoryRegion {
    /// Creates a region.
    pub fn new(addr: u32, len: u32) -> Self {
        Self { addr, len }
    }

    /// Exclusive end offset.
    ///
    /// Computed in 64 bits so `addr + len` cannot wrap.
    pub fn end(&self) -> u64 {
        self.addr as u64 + self.len as u64
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &MemoryRegion) -> bool {
        other.addr >= self.addr && other.end() <= self.end()
    }

    /// The `len`-byte window starting `offset` bytes into this region, or
    /// `None` if it would leave the region or 32-bit addressing — checked
    /// arithmetic, so a hostile offset can neither wrap back inside nor
    /// panic under overflow checks.
    pub fn slice(&self, offset: u32, len: usize) -> Option<MemoryRegion> {
        let window = MemoryRegion::new(self.addr.checked_add(offset)?, u32::try_from(len).ok()?);
        self.contains(&window).then_some(window)
    }

    /// Whether the region fits inside a memory of `memory_len` bytes.
    pub fn fits(&self, memory_len: usize) -> bool {
        self.end() <= memory_len as u64
    }
}

/// Per-function registry of regions the shim may touch.
#[derive(Debug, Default)]
pub struct RegionRegistry {
    regions: Vec<MemoryRegion>,
}

impl RegionRegistry {
    /// Creates an empty registry (no host access allowed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a region for host access.
    pub fn register(&mut self, region: MemoryRegion) {
        self.regions.push(region);
    }

    /// Removes a previously registered region (all exact matches).
    pub fn revoke(&mut self, region: MemoryRegion) {
        self.regions.retain(|r| r != &region);
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Verifies `access` is covered by some registered region *and* fits
    /// the current memory size.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::AccessViolation`] when either check fails —
    /// the fail-stop behaviour the paper's security section describes.
    pub fn check(&self, access: MemoryRegion, memory_len: usize) -> Result<(), RoadrunnerError> {
        if !access.fits(memory_len) {
            return Err(RoadrunnerError::AccessViolation(format!(
                "region [{}, {}) exceeds memory of {} bytes",
                access.addr,
                access.end(),
                memory_len
            )));
        }
        if !self.regions.iter().any(|r| r.contains(&access)) {
            return Err(RoadrunnerError::AccessViolation(format!(
                "region [{}, {}) is not registered for host access",
                access.addr,
                access.end()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment() {
        let big = MemoryRegion::new(100, 100);
        assert!(big.contains(&MemoryRegion::new(100, 100)));
        assert!(big.contains(&MemoryRegion::new(150, 50)));
        assert!(!big.contains(&MemoryRegion::new(99, 2)));
        assert!(!big.contains(&MemoryRegion::new(150, 51)));
    }

    #[test]
    fn slices_stay_inside_without_wrapping() {
        let r = MemoryRegion::new(4096, 64);
        assert_eq!(r.slice(0, 64), Some(r));
        assert_eq!(r.slice(60, 4), Some(MemoryRegion::new(4156, 4)));
        assert_eq!(r.slice(64, 0), Some(MemoryRegion::new(4160, 0)));
        assert_eq!(r.slice(64, 1), None);
        assert_eq!(r.slice(60, 5), None);
        assert_eq!(r.slice(u32::MAX, 1), None);
        // `addr + offset` wrapping to exactly `addr` must not pass.
        assert_eq!(r.slice(u32::MAX - 4095, 8), None);
        assert_eq!(r.slice(0, usize::MAX), None);
    }

    #[test]
    fn end_does_not_wrap() {
        let r = MemoryRegion::new(u32::MAX, u32::MAX);
        assert_eq!(r.end(), u32::MAX as u64 * 2);
        assert!(!r.fits(1 << 20));
    }

    #[test]
    fn check_requires_registration() {
        let mut reg = RegionRegistry::new();
        let err = reg.check(MemoryRegion::new(0, 10), 1 << 16).unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
        reg.register(MemoryRegion::new(0, 100));
        reg.check(MemoryRegion::new(0, 10), 1 << 16).unwrap();
        reg.check(MemoryRegion::new(90, 10), 1 << 16).unwrap();
        assert!(reg.check(MemoryRegion::new(95, 10), 1 << 16).is_err());
    }

    #[test]
    fn check_requires_fit_in_memory() {
        let mut reg = RegionRegistry::new();
        reg.register(MemoryRegion::new(0, 1 << 20));
        assert!(reg.check(MemoryRegion::new(0, 1 << 20), 1 << 16).is_err());
    }

    #[test]
    fn revoke_removes_access() {
        let mut reg = RegionRegistry::new();
        let r = MemoryRegion::new(0, 64);
        reg.register(r);
        assert_eq!(reg.len(), 1);
        reg.revoke(r);
        assert!(reg.is_empty());
        assert!(reg.check(MemoryRegion::new(0, 1), 1 << 16).is_err());
    }
}
