//! Key-list sharing for the two decoders.
//!
//! A batch of records spells the same field names once per record, and a
//! decoder that copies each spelling into its own allocation spends most
//! of its time in the allocator. [`KeyCache`] remembers, per nesting
//! depth, the key list of the map decoded last there, and hands the next
//! map a clone of that list when it repeats the keys.

use std::sync::Arc;

use crate::{Record, Value};

/// The key list of the map decoded last at each depth.
///
/// A decoder reads a map's keys through a [`KeyRun`]: [`push`](Self::push)
/// is asked with each key already fully decoded, and
/// [`finish`](Self::finish) makes the record. A map whose keys equal the
/// cached list's gets a clone of that list; any other map gets a list of
/// its own, which replaces the cached one, and shares each key the cached
/// list held at the same position. [`row`](Self::row) lends out the cached
/// keys; the text decoder compares them with the document before it
/// decodes anything, and takes the list only where the document spells
/// exactly those keys. Either way the decoder ends up with keys equal to
/// the ones it would have decoded, so no decoded value, error or error
/// offset can depend on the cache.
#[derive(Default)]
pub(crate) struct KeyCache {
    by_depth: Vec<Row>,
}

#[derive(Default)]
struct Row {
    keys: Arc<[Arc<str>]>,
    /// Whether no key of `keys` holds a `"` or `\`.
    plain: bool,
}

/// The keys of one map, as far as a decoder has read them.
#[derive(Default)]
pub(crate) struct KeyRun {
    /// How many keys have been read.
    len: usize,
    /// Empty while every key read matches the cached list at its
    /// position; once one does not, every key read.
    fresh: Vec<Arc<str>>,
}

impl KeyCache {
    /// The cached list at `depth`, empty if no map there has completed.
    fn list(&self, depth: usize) -> &[Arc<str>] {
        self.by_depth.get(depth).map_or(&[], |row| &row.keys)
    }

    /// Adds `key` to `run`, the keys of a map at `depth`.
    pub(crate) fn push(&self, depth: usize, run: &mut KeyRun, key: &str) {
        let list = self.list(depth);
        let at = run.len;
        run.len += 1;
        match list.get(at) {
            Some(same) if **same == *key => {
                if !run.fresh.is_empty() {
                    run.fresh.push(Arc::clone(same));
                }
            }
            _ => {
                if run.fresh.is_empty() {
                    // Every key before this one matched the list.
                    run.fresh.extend(list.iter().take(at).cloned());
                }
                run.fresh.push(Arc::from(key));
            }
        }
    }

    /// The record of `values` under the keys `run` read at `depth`, one
    /// value per key.
    pub(crate) fn finish(&mut self, depth: usize, run: KeyRun, values: Vec<Value>) -> Record {
        if self.by_depth.len() <= depth {
            // Decoders refuse nesting past `MAX_DEPTH`, which bounds this.
            self.by_depth.resize_with(depth + 1, Row::default);
        }
        let row = &mut self.by_depth[depth];
        if !(run.fresh.is_empty() && run.len == row.keys.len()) {
            let keys: Arc<[Arc<str>]> = if run.fresh.is_empty() {
                // A shorter map over the front of the list.
                row.keys[..run.len].into()
            } else {
                run.fresh.into()
            };
            let plain = !keys.iter().any(|key| key.contains(['"', '\\']));
            *row = Row { keys, plain };
        }
        Record::from_parts(Arc::clone(&row.keys), values)
    }

    /// The cached list at `depth`, or none if one of its keys holds a `"`
    /// or `\`: a document cannot spell such a key as it reads.
    pub(crate) fn row(&self, depth: usize) -> &[Arc<str>] {
        match self.by_depth.get(depth) {
            Some(row) if row.plain => &row.keys,
            _ => &[],
        }
    }

    /// The record of `values` under the whole cached list at `depth`, one
    /// value per key of [`row`](Self::row).
    pub(crate) fn reuse(&self, depth: usize, values: Vec<Value>) -> Record {
        Record::from_parts(Arc::clone(&self.by_depth[depth].keys), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record a decoder makes of a map at `depth` with `keys`, each
    /// holding `null`.
    fn decode(cache: &mut KeyCache, depth: usize, keys: &[&str]) -> Record {
        let mut run = KeyRun::default();
        for key in keys {
            cache.push(depth, &mut run, key);
        }
        cache.finish(depth, run, vec![Value::Null; keys.len()])
    }

    fn row_of(cache: &KeyCache, depth: usize) -> Vec<&str> {
        cache.row(depth).iter().map(|key| &**key).collect()
    }

    #[test]
    fn equal_keys_at_one_slot_share_storage() {
        let mut cache = KeyCache::default();
        let first = decode(&mut cache, 1, &["id", "ts"]);
        let again = decode(&mut cache, 1, &["id", "ts"]);
        assert!(Arc::ptr_eq(first.keys(), again.keys()));
        // A map that differs in one key has a list of its own, and shares
        // the key the cached list holds at the same position.
        let other = decode(&mut cache, 1, &["id", "speed"]);
        assert!(!Arc::ptr_eq(first.keys(), other.keys()));
        assert!(Arc::ptr_eq(&first.keys()[0], &other.keys()[0]));
    }

    #[test]
    fn a_different_key_replaces_the_slot() {
        let mut cache = KeyCache::default();
        let id = decode(&mut cache, 0, &["id"]);
        let ids = decode(&mut cache, 0, &["ids"]);
        assert_eq!((&*id.keys()[0], &*ids.keys()[0]), ("id", "ids"));
        // The row now holds the newer list; the older one is not handed
        // out again.
        assert!(Arc::ptr_eq(ids.keys(), decode(&mut cache, 0, &["ids"]).keys()));
        assert!(!Arc::ptr_eq(id.keys(), decode(&mut cache, 0, &["id"]).keys()));
    }

    #[test]
    fn slots_are_kept_apart_by_depth_and_position() {
        let mut cache = KeyCache::default();
        let outer = decode(&mut cache, 0, &["k"]);
        let inner = decode(&mut cache, 3, &["k"]);
        assert!(!Arc::ptr_eq(outer.keys(), inner.keys()));
        assert!(Arc::ptr_eq(outer.keys(), decode(&mut cache, 0, &["k"]).keys()));
        assert!(Arc::ptr_eq(inner.keys(), decode(&mut cache, 3, &["k"]).keys()));
        // The same key one position along is a string of its own.
        let second = decode(&mut cache, 0, &["j", "k"]);
        assert!(!Arc::ptr_eq(&outer.keys()[0], &second.keys()[1]));
    }

    #[test]
    fn a_row_is_the_last_completed_map_at_its_depth() {
        let mut cache = KeyCache::default();
        let first = decode(&mut cache, 2, &["id", "ts", "lane"]);
        assert_eq!(row_of(&cache, 2), ["id", "ts", "lane"]);
        // A shorter sibling over the front of the row, and an empty one.
        let front = decode(&mut cache, 2, &["id", "ts"]);
        assert!(Arc::ptr_eq(&front.keys()[1], &first.keys()[1]));
        assert_eq!(row_of(&cache, 2), ["id", "ts"]);
        assert!(decode(&mut cache, 2, &[]).is_empty());
        assert!(cache.row(2).is_empty());
        // Other depths, and depths never reached, have no row.
        assert!(cache.row(0).is_empty() && cache.row(7).is_empty());
    }

    #[test]
    fn a_row_with_a_quote_or_backslash_is_not_lent_out() {
        let mut cache = KeyCache::default();
        for key in ["a\"b", "back\\slash"] {
            let first = decode(&mut cache, 0, &["id", key]);
            assert!(cache.row(0).is_empty(), "{key:?}");
            // Its list is still shared.
            assert!(Arc::ptr_eq(first.keys(), decode(&mut cache, 0, &["id", key]).keys()));
        }
        decode(&mut cache, 0, &["id"]);
        assert_eq!(row_of(&cache, 0), ["id"]);
    }
}
