//! Map-key sharing for the two decoders.
//!
//! A batch of records spells the same field names once per record, and a
//! decoder that copies each spelling into its own allocation spends most
//! of its time in the allocator. [`KeyCache`] remembers, per nesting depth
//! and per position inside a map, the key the previous map had there, and
//! hands out a clone of it when the next map repeats it.

use std::sync::Arc;

/// The keys of the map decoded last at each depth, by position.
///
/// It is asked only with a key already fully decoded, and answers with a
/// string equal to it: a hit shares the earlier allocation, a miss makes
/// the allocation a decoder without a cache would have made and
/// remembers it. Which of the two happened is not observable, so no
/// decoded value, error or error offset can depend on the cache.
#[derive(Default)]
pub(crate) struct KeyCache {
    by_depth: Vec<Vec<Arc<str>>>,
}

impl KeyCache {
    /// `key` as the shared string of the map at `depth`, entry `index`.
    pub(crate) fn share(&mut self, depth: usize, index: usize, key: &str) -> Arc<str> {
        if self.by_depth.len() <= depth {
            // Decoders refuse nesting past `MAX_DEPTH`, which bounds this.
            self.by_depth.resize_with(depth + 1, Vec::new);
        }
        let slots = &mut self.by_depth[depth];
        match slots.get_mut(index) {
            Some(slot) if **slot == *key => Arc::clone(slot),
            Some(slot) => {
                *slot = Arc::from(key);
                Arc::clone(slot)
            }
            // A map visits its positions in order, so `index` is the
            // first one no map at this depth has reached yet.
            None => {
                let fresh: Arc<str> = Arc::from(key);
                slots.push(Arc::clone(&fresh));
                fresh
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_at_one_slot_share_storage() {
        let mut cache = KeyCache::default();
        let first = cache.share(1, 0, "id");
        let again = cache.share(1, 0, "id");
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn a_different_key_replaces_the_slot() {
        let mut cache = KeyCache::default();
        let id = cache.share(0, 0, "id");
        let ids = cache.share(0, 0, "ids");
        assert_eq!((&*id, &*ids), ("id", "ids"));
        // The slot now holds the newer key; the older one is a fresh copy.
        assert!(Arc::ptr_eq(&ids, &cache.share(0, 0, "ids")));
        assert!(!Arc::ptr_eq(&id, &cache.share(0, 0, "id")));
    }

    #[test]
    fn slots_are_kept_apart_by_depth_and_position() {
        let mut cache = KeyCache::default();
        let outer = cache.share(0, 0, "k");
        let inner = cache.share(3, 0, "k");
        let second = cache.share(0, 1, "k");
        assert!(!Arc::ptr_eq(&outer, &inner));
        assert!(!Arc::ptr_eq(&outer, &second));
        assert!(Arc::ptr_eq(&outer, &cache.share(0, 0, "k")));
        assert!(Arc::ptr_eq(&inner, &cache.share(3, 0, "k")));
    }
}
