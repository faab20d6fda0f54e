//! Structured, self-describing data model.

use std::sync::Arc;

use bytes::Bytes;

/// A structured value exchanged between serverless functions.
///
/// This is the in-memory representation that HTTP-based baselines must
/// serialize before transfer and deserialize after receipt. Roadrunner
/// instead ships the flat [`crate::raw`] representation untouched.
///
/// Maps preserve insertion order so encoding is deterministic, which keeps
/// the benchmark harness reproducible run-to-run.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// The absent value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte blob (e.g. an image frame). Cheaply cloneable.
    Bytes(Bytes),
    /// An ordered sequence of values.
    List(Vec<Value>),
    /// An ordered string-keyed map.
    ///
    /// A key is a shared immutable string: cloning one bumps a reference
    /// count, so a batch of records that all carry the same field names
    /// can hold one allocation per distinct name. The decoders hand out
    /// such clones when sibling maps repeat their keys; nothing observable
    /// through this type — equality, [`heap_size`](Self::heap_size), the
    /// bytes either codec writes — depends on which keys share storage.
    Map(Vec<(Arc<str>, Value)>),
}

impl Value {
    /// Builds a [`Value::List`] from an iterator of values.
    ///
    /// ```
    /// # use roadrunner_serial::Value;
    /// let v = Value::list([Value::from(1i64), Value::from(2i64)]);
    /// assert_eq!(v.as_list().unwrap().len(), 2);
    /// ```
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::List(items.into_iter().collect())
    }

    /// Builds a [`Value::Map`] from `(key, value)` pairs, preserving order.
    ///
    /// A `&str` or `String` key is copied into a fresh allocation; pass
    /// clones of one `Arc<str>` to build many maps over the same names
    /// without allocating per key.
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use roadrunner_serial::Value;
    /// let v = Value::map([("k", Value::Null)]);
    /// assert!(v.get("k").is_some());
    /// let name: Arc<str> = Arc::from("k");
    /// assert_eq!(Value::map([(Arc::clone(&name), Value::Null)]), v);
    /// ```
    pub fn map<K: Into<Arc<str>>, I: IntoIterator<Item = (K, Value)>>(entries: I) -> Self {
        Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns the value under `key` if `self` is a map containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| **k == *key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the element at `index` if `self` is a list that long.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::List(items) => items.get(index),
            _ => None,
        }
    }

    /// Returns the boolean if `self` is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if `self` is a [`Value::I64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the float if `self` is a [`Value::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the string slice if `self` is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte blob if `self` is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the items if `self` is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Approximate in-memory size of the value tree in bytes.
    ///
    /// Used by the evaluation harness to size synthetic payloads and by the
    /// cost model to charge serialization work proportional to data volume.
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::Bytes(b) => b.len() + 8,
            Value::List(items) => 16 + items.iter().map(Value::heap_size).sum::<usize>(),
            Value::Map(entries) => {
                16 + entries.iter().map(|(k, v)| k.len() + 8 + v.heap_size()).sum::<usize>()
            }
        }
    }

    /// Number of nodes in the value tree (each scalar, list and map counts
    /// as one node). Serialization cost has a per-node component on top of
    /// the per-byte component.
    pub fn node_count(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Map(entries) => 1 + entries.iter().map(|(_, v)| v.node_count()).sum::<usize>(),
            _ => 1,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::I64(n)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::I64(n as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value::Bytes(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_finds_key() {
        let v = Value::map([("a", Value::from(1i64)), ("b", Value::from(2i64))]);
        assert_eq!(v.get("b").and_then(Value::as_i64), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn get_on_non_map_is_none() {
        assert_eq!(Value::from(3i64).get("a"), None);
    }

    #[test]
    fn list_index_access() {
        let v = Value::list([Value::from("x"), Value::from("y")]);
        assert_eq!(v.at(1).and_then(Value::as_str), Some("y"));
        assert_eq!(v.at(2), None);
        assert_eq!(Value::Null.at(0), None);
    }

    #[test]
    fn scalar_accessors_are_type_checked() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(true).as_i64(), None);
        assert_eq!(Value::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes().map(|b| b.len()), Some(2));
    }

    #[test]
    fn heap_size_scales_with_content() {
        let small = Value::from("ab");
        let big = Value::from("a".repeat(1000));
        assert!(big.heap_size() > small.heap_size());
        assert!(big.heap_size() >= 1000);
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let v = Value::map([
            ("a", Value::list([Value::Null, Value::Null])),
            ("b", Value::from(1i64)),
        ]);
        // map + list + 2 nulls + int
        assert_eq!(v.node_count(), 5);
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
    }

    #[test]
    fn from_i32_widens() {
        assert_eq!(Value::from(7i32).as_i64(), Some(7));
    }
}
