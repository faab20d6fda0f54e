//! Linear memory: a contiguous, bounds-checked, growable byte array.
//!
//! This is the centrepiece of Roadrunner's data model (paper §3.1): "Within
//! the Wasm VM, linear memory is exposed as a contiguous block of memory
//! and accessible through specific offsets to the host." The host-facing
//! [`Memory::read`]/[`Memory::write`] APIs are what the shim builds its
//! Table-1 operations on; every access is bounds-checked so host-side bugs
//! surface as traps instead of corruption.

use crate::trap::Trap;
use crate::types::Limits;

/// Size of a WebAssembly page: 64 KiB.
pub const PAGE: usize = 65536;

/// A linear memory instance.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    limits: Limits,
    /// Engine-wide cap applied on top of the declared maximum.
    engine_max_pages: u32,
}

impl Memory {
    /// Allocates a memory with `limits.min` pages.
    ///
    /// # Panics
    ///
    /// Panics if `limits.min` exceeds `engine_max_pages` — instantiation
    /// validates limits before construction.
    pub fn new(limits: Limits, engine_max_pages: u32) -> Self {
        assert!(
            limits.min <= engine_max_pages,
            "initial pages {} exceed engine cap {engine_max_pages}",
            limits.min
        );
        Self { data: vec![0; limits.min as usize * PAGE], limits, engine_max_pages }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.data.len() / PAGE) as u32
    }

    /// Current size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the memory has zero pages.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Declared limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Grows by `delta` pages. Returns the previous size in pages, or
    /// `None` if growth would exceed the declared or engine maximum
    /// (mirroring `memory.grow`'s `-1` result).
    pub fn grow(&mut self, delta: u32) -> Option<u32> {
        let old = self.size_pages();
        let new = old.checked_add(delta)?;
        if let Some(max) = self.limits.max {
            if new > max {
                return None;
            }
        }
        if new > self.engine_max_pages {
            return None;
        }
        self.data.resize(new as usize * PAGE, 0);
        Some(old)
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, Trap> {
        let end = addr.checked_add(len).ok_or(Trap::MemoryOutOfBounds {
            addr,
            len,
            memory_size: self.data.len() as u64,
        })?;
        if end > self.data.len() as u64 {
            return Err(Trap::MemoryOutOfBounds {
                addr,
                len,
                memory_size: self.data.len() as u64,
            });
        }
        Ok(addr as usize)
    }

    /// Borrows `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`Trap::MemoryOutOfBounds`] if the range exceeds the memory.
    pub fn read(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = self.check(addr as u64, len as u64)?;
        Ok(&self.data[start..start + len as usize])
    }

    /// Mutably borrows `len` bytes starting at `addr`, so a host can land
    /// data in place instead of staging it for [`Memory::write`].
    ///
    /// # Errors
    ///
    /// [`Trap::MemoryOutOfBounds`] if the range exceeds the memory.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], Trap> {
        let start = self.check(addr as u64, len as u64)?;
        Ok(&mut self.data[start..start + len as usize])
    }

    /// Copies `bytes` into memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`Trap::MemoryOutOfBounds`] if the range exceeds the memory.
    pub fn write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let start = self.check(addr as u64, bytes.len() as u64)?;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Loads `N` bytes at `addr + offset` (the dynamic+static addressing
    /// of load instructions).
    pub fn load<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], Trap> {
        let ea = addr as u64 + offset as u64;
        let start = self.check(ea, N as u64)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[start..start + N]);
        Ok(out)
    }

    /// Stores `N` bytes at `addr + offset`.
    pub fn store<const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        value: [u8; N],
    ) -> Result<(), Trap> {
        let ea = addr as u64 + offset as u64;
        let start = self.check(ea, N as u64)?;
        self.data[start..start + N].copy_from_slice(&value);
        Ok(())
    }

    /// `memory.fill`: sets `len` bytes at `dst` to `byte`.
    ///
    /// # Errors
    ///
    /// [`Trap::MemoryOutOfBounds`] if the range exceeds the memory.
    pub fn fill(&mut self, dst: u32, byte: u8, len: u32) -> Result<(), Trap> {
        let start = self.check(dst as u64, len as u64)?;
        self.data[start..start + len as usize].fill(byte);
        Ok(())
    }

    /// `memory.copy`: moves `len` bytes from `src` to `dst` (overlap-safe,
    /// like `memmove`).
    ///
    /// # Errors
    ///
    /// [`Trap::MemoryOutOfBounds`] if either range exceeds the memory.
    pub fn copy_within(&mut self, dst: u32, src: u32, len: u32) -> Result<(), Trap> {
        let s = self.check(src as u64, len as u64)?;
        let d = self.check(dst as u64, len as u64)?;
        self.data.copy_within(s..s + len as usize, d);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(pages: u32) -> Memory {
        Memory::new(Limits::new(pages, Some(16)), 1024)
    }

    #[test]
    fn initial_size_matches_limits() {
        let m = mem(2);
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.len(), 2 * PAGE);
    }

    #[test]
    fn memory_is_zero_initialized() {
        let m = mem(1);
        assert!(m.read(0, PAGE as u32).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mem(1);
        m.write(100, b"roadrunner").unwrap();
        assert_eq!(m.read(100, 10).unwrap(), b"roadrunner");
    }

    #[test]
    fn out_of_bounds_read_traps() {
        let m = mem(1);
        let err = m.read(PAGE as u32 - 4, 8).unwrap_err();
        assert!(matches!(err, Trap::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn boundary_access_is_exact() {
        let mut m = mem(1);
        // The very last byte is accessible…
        m.write(PAGE as u32 - 1, &[0xFF]).unwrap();
        assert_eq!(m.read(PAGE as u32 - 1, 1).unwrap(), &[0xFF]);
        // …one past it is not.
        assert!(m.write(PAGE as u32, &[0]).is_err());
        assert!(m.read(0, PAGE as u32 + 1).is_err());
        // The mutable borrow obeys the same bounds and lands in place.
        m.slice_mut(PAGE as u32 - 2, 2).unwrap().copy_from_slice(&[1, 2]);
        assert_eq!(m.read(PAGE as u32 - 2, 2).unwrap(), &[1, 2]);
        assert!(m.slice_mut(PAGE as u32 - 1, 2).is_err());
        assert!(m.slice_mut(u32::MAX, u32::MAX).is_err());
    }

    #[test]
    fn address_overflow_traps_cleanly() {
        let m = mem(1);
        assert!(m.load::<8>(u32::MAX, u32::MAX).is_err());
    }

    #[test]
    fn grow_respects_declared_max() {
        let mut m = mem(1);
        assert_eq!(m.grow(3), Some(1));
        assert_eq!(m.size_pages(), 4);
        assert_eq!(m.grow(100), None, "declared max is 16");
        assert_eq!(m.size_pages(), 4);
    }

    #[test]
    fn grow_respects_engine_cap() {
        let mut m = Memory::new(Limits::new(1, None), 4);
        assert_eq!(m.grow(3), Some(1));
        assert_eq!(m.grow(1), None, "engine cap is 4 pages");
    }

    #[test]
    fn grown_pages_are_zeroed_and_old_data_kept() {
        let mut m = mem(1);
        m.write(0, b"keep").unwrap();
        m.grow(1).unwrap();
        assert_eq!(m.read(0, 4).unwrap(), b"keep");
        assert!(m.read(PAGE as u32, 16).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn typed_load_store() {
        let mut m = mem(1);
        m.store::<4>(8, 4, 0xDEADBEEFu32.to_le_bytes()).unwrap();
        let raw = m.load::<4>(8, 4).unwrap();
        assert_eq!(u32::from_le_bytes(raw), 0xDEADBEEF);
    }

    #[test]
    fn fill_and_copy() {
        let mut m = mem(1);
        m.fill(10, 0xAB, 20).unwrap();
        assert!(m.read(10, 20).unwrap().iter().all(|&b| b == 0xAB));
        m.copy_within(100, 10, 20).unwrap();
        assert!(m.read(100, 20).unwrap().iter().all(|&b| b == 0xAB));
        // Overlapping copy behaves like memmove.
        m.copy_within(15, 10, 20).unwrap();
        assert!(m.read(15, 20).unwrap().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn fill_out_of_bounds_traps() {
        let mut m = mem(1);
        assert!(m.fill(PAGE as u32 - 2, 0, 4).is_err());
        assert!(m.copy_within(0, PAGE as u32 - 2, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "exceed engine cap")]
    fn oversized_initial_memory_panics() {
        Memory::new(Limits::new(100, None), 10);
    }
}
