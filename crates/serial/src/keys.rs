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
/// [`share`](Self::share) is asked with a key already fully decoded, and
/// answers with a string equal to it: a hit shares the earlier
/// allocation, a miss makes the allocation a decoder without a cache
/// would have made and remembers it. [`row`](Self::row) lends out the
/// remembered keys; the text decoder compares them with the document
/// before it decodes anything, and keeps one only where the document
/// spells exactly that key. Either way the decoder ends up with a string
/// equal to the one it would have decoded, so no decoded value, error or
/// error offset can depend on the cache.
#[derive(Default)]
pub(crate) struct KeyCache {
    by_depth: Vec<Row>,
}

#[derive(Default)]
struct Row {
    slots: Vec<Arc<str>>,
    /// Whether [`KeyCache::complete`] found no `"` or `\` in `slots`.
    plain: bool,
}

impl KeyCache {
    /// `key` as the shared string of the map at `depth`, entry `index`.
    pub(crate) fn share(&mut self, depth: usize, index: usize, key: &str) -> Arc<str> {
        if self.by_depth.len() <= depth {
            // Decoders refuse nesting past `MAX_DEPTH`, which bounds this.
            self.by_depth.resize_with(depth + 1, Row::default);
        }
        let slots = &mut self.by_depth[depth].slots;
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

    /// The keys of the map at `depth` last passed to
    /// [`complete`](Self::complete), in order — or none, if one of them
    /// holds a `"` or `\`: a document cannot spell such a key as it reads.
    pub(crate) fn row(&self, depth: usize) -> &[Arc<str>] {
        match self.by_depth.get(depth) {
            Some(row) if row.plain => &row.slots,
            _ => &[],
        }
    }

    /// Records that the map at `depth` whose keys went through
    /// [`share`](Self::share) completed with `len` entries: forgets the
    /// keys past them, so [`row`](Self::row) holds exactly that map's.
    pub(crate) fn complete(&mut self, depth: usize, len: usize) {
        if let Some(row) = self.by_depth.get_mut(depth) {
            row.slots.truncate(len);
            row.plain = !row.slots.iter().any(|key| key.contains(['"', '\\']));
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

    fn row_of(cache: &KeyCache, depth: usize) -> Vec<&str> {
        cache.row(depth).iter().map(|key| &**key).collect()
    }

    #[test]
    fn a_row_is_the_last_completed_map_at_its_depth() {
        let mut cache = KeyCache::default();
        for (index, key) in ["id", "ts", "lane"].into_iter().enumerate() {
            cache.share(2, index, key);
        }
        assert!(cache.row(2).is_empty(), "no map has completed yet");
        cache.complete(2, 3);
        assert_eq!(row_of(&cache, 2), ["id", "ts", "lane"]);
        let lane = Arc::clone(&cache.row(2)[2]);
        // A shorter sibling overwrites the front and drops the rest.
        cache.share(2, 0, "id");
        cache.share(2, 1, "speed");
        cache.complete(2, 2);
        assert_eq!(row_of(&cache, 2), ["id", "speed"]);
        assert!(!Arc::ptr_eq(&lane, &cache.share(2, 2, "lane")));
        // Other depths, and depths never reached, are left alone.
        cache.complete(7, 0);
        assert!(cache.row(0).is_empty() && cache.row(7).is_empty());
    }

    #[test]
    fn a_row_with_a_quote_or_backslash_is_not_lent_out() {
        let mut cache = KeyCache::default();
        for key in ["a\"b", "back\\slash"] {
            cache.share(0, 0, "id");
            cache.share(0, 1, key);
            cache.complete(0, 2);
            assert!(cache.row(0).is_empty(), "{key:?}");
            // Its keys are still shared.
            assert!(Arc::ptr_eq(&cache.share(0, 1, key), &cache.share(0, 1, key)));
        }
        cache.complete(0, 1);
        assert_eq!(row_of(&cache, 0), ["id"]);
    }
}
