//! Word-at-a-time hashing for the load engine's hot maps.
//!
//! `std`'s default SipHash defends a map against keys an attacker
//! chose; the maps on the per-edge path are keyed by values this
//! program derived itself — `(tenant, function, node)` indices, buffer
//! addresses, the memo's own composite key — and pay for that defence
//! on every probe. [`WordHasher`] mixes one machine word per multiply;
//! [`PremixedHasher`] passes through a `u64` that [`mix`] / [`finish`]
//! already spread. Neither may key a map on bytes that arrive from
//! outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// Initial state of a [`mix`] chain.
pub(crate) const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// 2⁶⁴ / φ, odd: consecutive words land far apart after one multiply.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one word into a running hash: one rotate, one xor, one
/// multiply.
#[inline]
pub(crate) fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER)
}

/// Folds bytes in eight at a time, the tail zero-padded.
#[inline]
fn mix_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(hash, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(h, u64::from_le_bytes(word))
    })
}

/// Folds a string in, then its length — so `("ab", "c")` and
/// `("a", "bc")`, or `"a"` and `"a\0"`, leave different states.
#[inline]
pub(crate) fn mix_str(hash: u64, s: &str) -> u64 {
    mix(mix_bytes(hash, s.as_bytes()), s.len() as u64)
}

/// Final avalanche. A multiply only carries bits upwards, and the std
/// map indexes buckets with a hash's low bits and tags them with its
/// top seven: fold the high half down before either is read.
#[inline]
pub(crate) fn finish(hash: u64) -> u64 {
    let h = (hash ^ (hash >> 32)).wrapping_mul(MULTIPLIER);
    h ^ (h >> 29)
}

/// A [`Hasher`] for keys made of machine words (integers and tuples of
/// them): one [`mix`] per word, [`finish`] at the end.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Byte-slice keys are not what this hasher is for, but `Hash`
    /// impls may call it.
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finish(self.0)
    }
}

/// A [`Hasher`] for `u64` keys that already are a finished hash: the
/// map probes with the key itself.
#[derive(Default)]
pub(crate) struct PremixedHasher(u64);

impl Hasher for PremixedHasher {
    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PremixedHasher keys are u64");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap<K, V, WordBuild>`: word-tuple keys, one multiply per word.
pub(crate) type WordBuild = BuildHasherDefault<WordHasher>;

/// `HashMap<u64, V, PremixedBuild>`: pre-hashed keys, no second hash.
pub(crate) type PremixedBuild = BuildHasherDefault<PremixedHasher>;

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn strings_are_length_terminated_at_every_chunk_boundary() {
        // Lengths around the eight-byte fold: empty, a short tail, one
        // exact word, a word plus one, two words plus one.
        let base = "abcdefghijklmnopq";
        let states: HashSet<u64> =
            [0, 7, 8, 9, 17].iter().map(|&n| mix_str(SEED, &base[..n])).collect();
        assert_eq!(states.len(), 5);
        // Zero padding is not the terminator: the length is.
        assert_ne!(mix_str(SEED, "a"), mix_str(SEED, "a\0"));
        assert_ne!(mix_str(SEED, "abcdefgh"), mix_str(SEED, "abcdefgh\0"));
        assert_ne!(mix_str(SEED, ""), SEED);
        // A boundary moved between two strings moves the state.
        assert_ne!(mix_str(mix_str(SEED, "ab"), "c"), mix_str(mix_str(SEED, "a"), "bc"));
    }

    #[test]
    fn small_index_tuples_spread_over_low_and_high_bits() {
        // The std map reads the low bits (bucket) and the top seven
        // (tag); dense small tuples must not pile up in either.
        let build = WordBuild::default();
        let hashes: Vec<u64> = (0..4usize)
            .flat_map(|t| (0..8usize).flat_map(move |f| (0..8usize).map(move |n| (t, f, n))))
            .map(|key| build.hash_one(key))
            .collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let high: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 128, "256 keys hit only {} of 256 low bytes", low.len());
        assert!(high.len() > 96, "256 keys hit only {} of 128 tags", high.len());
    }

    #[test]
    fn maps_over_both_hashers_behave_like_maps() {
        let mut words: HashMap<(usize, usize, usize), u32, WordBuild> = HashMap::default();
        let mut premixed: HashMap<u64, u32, PremixedBuild> = HashMap::default();
        for i in 0..1_000u32 {
            words.insert((i as usize % 3, i as usize, 7), i);
            premixed.insert(finish(mix(SEED, u64::from(i))), i);
        }
        assert_eq!((words.len(), premixed.len()), (1_000, 1_000));
        assert_eq!(words[&(2, 5, 7)], 5);
        assert_eq!(premixed[&finish(mix(SEED, 999))], 999);
    }
}
