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
    ///
    /// The new pages read as zeros either way; what differs is what the
    /// host pays for them. A growth that at least doubles the memory adds
    /// more zero bytes than it keeps, so it takes a fresh zeroed
    /// allocation, which the allocator backs with pages the OS commits on
    /// first touch, and copies the old bytes in. A smaller growth
    /// zero-fills the new pages in place rather than copy the larger old
    /// part. Either way the host writes whichever side is smaller: the
    /// SDK allocator's 1 → 257-page step copies 64 KiB instead of
    /// zero-filling 16 MiB the guest may never touch.
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
        let len = new as usize * PAGE;
        let kept = self.data.len();
        if len - kept >= kept {
            let mut grown = vec![0; len];
            grown[..kept].copy_from_slice(&self.data);
            self.data = grown;
        } else {
            self.data.resize(len, 0);
        }
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

    /// Fills every byte with a pattern that is never zero.
    fn scribble(m: &mut Memory) {
        for (i, b) in m.data.iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
    }

    fn assert_scribbled_then_zero(m: &Memory, kept: usize) {
        let bytes = m.read(0, m.len() as u32).unwrap();
        assert!(bytes[..kept].iter().enumerate().all(|(i, &b)| b == (i % 251) as u8 + 1));
        assert!(bytes[kept..].iter().all(|&b| b == 0), "grown range reads zeros");
    }

    #[test]
    fn doubling_growth_keeps_old_bytes_and_zeroes_the_rest() {
        // 1 -> 2 pages (exactly double), 2 -> 5, and the SDK allocator's
        // 1 -> 257-page step.
        for (initial, delta) in [(1, 1), (2, 3), (1, 256)] {
            let mut m = Memory::new(Limits::new(initial, None), 1024);
            scribble(&mut m);
            assert_eq!(m.grow(delta), Some(initial));
            assert_eq!(m.size_pages(), initial + delta);
            assert_scribbled_then_zero(&m, initial as usize * PAGE);
            // The fresh allocation is exactly the memory, nothing spare.
            assert_eq!(m.data.capacity(), m.len());
        }
        // From zero pages nothing is kept.
        let mut m = Memory::new(Limits::new(0, None), 1024);
        assert_eq!(m.grow(3), Some(0));
        assert_scribbled_then_zero(&m, 0);
    }

    #[test]
    fn smaller_growth_keeps_old_bytes_and_zeroes_the_rest() {
        // 4 -> 5 pages and 3 -> 5: each adds less than it keeps.
        for (initial, delta) in [(4, 1), (3, 2)] {
            let mut m = Memory::new(Limits::new(initial, None), 1024);
            scribble(&mut m);
            assert_eq!(m.grow(delta), Some(initial));
            assert_eq!(m.size_pages(), initial + delta);
            assert_scribbled_then_zero(&m, initial as usize * PAGE);
        }
        // A zero-page growth changes nothing.
        let mut m = mem(2);
        scribble(&mut m);
        assert_eq!(m.grow(0), Some(2));
        assert_scribbled_then_zero(&m, 2 * PAGE);
    }

    #[test]
    fn both_growth_paths_refuse_past_the_declared_max_and_the_engine_cap() {
        // (declared max, engine cap, initial pages, refused delta): a
        // doubling and a smaller growth past each limit.
        for (max, cap, initial, delta) in [
            (Some(16), 1024, 4, 13),
            (Some(16), 1024, 12, 5),
            (None, 16, 4, 13),
            (None, 16, 12, 5),
            (None, 16, 1, u32::MAX),
        ] {
            let mut m = Memory::new(Limits::new(initial, max), cap);
            scribble(&mut m);
            assert_eq!(m.grow(delta), None, "max {max:?}, cap {cap}, {initial} + {delta}");
            assert_eq!(m.size_pages(), initial);
            assert_scribbled_then_zero(&m, initial as usize * PAGE);
            // Up to the limit both paths still grow.
            assert_eq!(m.grow(16 - initial), Some(initial));
            assert_eq!(m.grow(1), None);
        }
    }

    /// Random `grow` / `store` / `write` / `read` sequences against
    /// a plain `Vec<u8>` grown with `resize`: the same bytes, size and
    /// refusals after every step, whichever growth path ran.
    #[test]
    fn growth_matches_a_resized_vec_model() {
        const CAP: u32 = 24;
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let initial = draw(3) as u32;
            let max = (seed % 2 == 0).then_some(CAP - 4);
            let limit = max.unwrap_or(CAP);
            let mut m = Memory::new(Limits::new(initial, max), CAP);
            let mut model = vec![0u8; initial as usize * PAGE];
            for step in 0..120 {
                // Addresses reach a page past the end, so traps are compared too.
                let span = (model.len() + PAGE + 1) as u64;
                let (at, src) = (draw(span) as usize, draw(span) as usize);
                let n = draw(3 * PAGE as u64) as usize;
                match draw(4) {
                    0 => {
                        let pages = (model.len() / PAGE) as u32;
                        let delta = match draw(4) {
                            0 => draw(2) as u32,
                            1 => pages.max(1),
                            2 => draw(u64::from(CAP) + 4) as u32,
                            _ => 1,
                        };
                        let expected = (pages + delta <= limit).then_some(pages);
                        if expected.is_some() {
                            model.resize((pages + delta) as usize * PAGE, 0);
                        }
                        assert_eq!(m.grow(delta), expected, "seed {seed} step {step}");
                    }
                    1 => {
                        let value = draw(u64::MAX).to_le_bytes();
                        let fits = at + 8 <= model.len();
                        if fits {
                            model[at..at + 8].copy_from_slice(&value);
                        }
                        assert_eq!(m.store::<8>(at as u32, 0, value).is_ok(), fits);
                    }
                    2 => {
                        let bytes = vec![draw(255) as u8 + 1; n];
                        let fits = at + n <= model.len();
                        if fits {
                            model[at..at + n].copy_from_slice(&bytes);
                        }
                        assert_eq!(m.write(at as u32, &bytes).is_ok(), fits);
                    }
                    _ => match m.read(src as u32, n as u32) {
                        Ok(bytes) => assert!(bytes == &model[src..src + n]),
                        Err(_) => assert!(src + n > model.len(), "seed {seed} step {step}"),
                    },
                }
                assert_eq!(m.size_pages() as usize, model.len() / PAGE, "seed {seed} step {step}");
                assert!(m.read(0, m.len() as u32).unwrap() == model, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn typed_load_store() {
        let mut m = mem(1);
        m.store::<4>(8, 4, 0xDEADBEEFu32.to_le_bytes()).unwrap();
        let raw = m.load::<4>(8, 4).unwrap();
        assert_eq!(u32::from_le_bytes(raw), 0xDEADBEEF);
    }

    #[test]
    #[should_panic(expected = "exceed engine cap")]
    fn oversized_initial_memory_panics() {
        Memory::new(Limits::new(100, None), 10);
    }
}
