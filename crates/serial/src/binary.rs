//! Compact tag-length-value binary codec.
//!
//! Each node is a 1-byte tag followed by a varint length (where needed) and
//! the raw content. Unlike the [`crate::text`] codec there is no escaping,
//! but the encoder still walks the whole value tree and copies every byte
//! into the output stream — this is the "serialization" cost the paper
//! measures for binary-framed baselines.

use bytes::Bytes;

use crate::keys::{KeyCache, KeyRun};
use crate::{varint, DecodeError, Value};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_F64: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_MAP: u8 = 0x08;

pub use crate::MAX_DEPTH;

/// Serializes `value` into the binary format.
///
/// ```
/// # use roadrunner_serial::{binary, Value};
/// let buf = binary::to_binary(&Value::from(5i64));
/// assert_eq!(binary::from_binary(&buf).unwrap(), Value::from(5i64));
/// ```
pub fn to_binary(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(value));
    write_value(&mut out, value);
    out
}

/// Parses a document produced by [`to_binary`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, unknown tags, invalid UTF-8 in
/// string nodes, nesting deeper than [`MAX_DEPTH`], or trailing bytes.
pub fn from_binary(input: &[u8]) -> Result<Value, DecodeError> {
    let mut pos = 0usize;
    let value = read_value(input, &mut pos, 0, &mut KeyCache::default())?;
    if pos != input.len() {
        return Err(DecodeError::new(pos, "trailing bytes after document"));
    }
    Ok(value)
}

/// Exactly how many bytes [`write_value`] emits for `value`, so the
/// output buffer is sized once, in one walk of the tree.
fn encoded_len(value: &Value) -> usize {
    let framed = |len: usize| varint::encoded_len(len as u64) + len;
    1 + match value {
        Value::Null | Value::Bool(_) => 0,
        Value::I64(_) | Value::F64(_) => 8,
        Value::Str(s) => framed(s.len()),
        Value::Bytes(b) => framed(b.len()),
        Value::List(items) => {
            varint::encoded_len(items.len() as u64) + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::Map(record) => {
            varint::encoded_len(record.len() as u64)
                + record.iter().map(|(k, v)| framed(k.len()) + encoded_len(v)).sum::<usize>()
        }
    }
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            varint::write_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            varint::write_u64(out, items.len() as u64);
            for item in items {
                write_value(out, item);
            }
        }
        Value::Map(record) => {
            out.push(TAG_MAP);
            varint::write_u64(out, record.len() as u64);
            for (k, v) in record.iter() {
                varint::write_u64(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                write_value(out, v);
            }
        }
    }
}

fn read_value(
    input: &[u8],
    pos: &mut usize,
    depth: usize,
    keys: &mut KeyCache,
) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::new(*pos, "nesting deeper than MAX_DEPTH"));
    }
    let tag = *input
        .get(*pos)
        .ok_or_else(|| DecodeError::new(*pos, "unexpected end of input"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_I64 => Ok(Value::I64(i64::from_le_bytes(take_word(input, pos)?))),
        TAG_F64 => Ok(Value::F64(f64::from_le_bytes(take_word(input, pos)?))),
        TAG_STR => {
            let len = read_len(input, pos)?;
            let raw = take(input, pos, len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| DecodeError::new(*pos - len, "invalid UTF-8 in string"))?;
            Ok(Value::Str(s.to_owned()))
        }
        TAG_BYTES => {
            let len = read_len(input, pos)?;
            let raw = take(input, pos, len)?;
            Ok(Value::Bytes(Bytes::copy_from_slice(raw)))
        }
        TAG_LIST => {
            let count = read_len(input, pos)?;
            // Each element needs at least one tag byte; bound allocation.
            if count > input.len() - *pos + 1 {
                return Err(DecodeError::new(*pos, "list count exceeds input size"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(read_value(input, pos, depth + 1, keys)?);
            }
            Ok(Value::List(items))
        }
        TAG_MAP => {
            let count = read_len(input, pos)?;
            if count > input.len() - *pos + 1 {
                return Err(DecodeError::new(*pos, "map count exceeds input size"));
            }
            let mut run = KeyRun::default();
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                let klen = read_len(input, pos)?;
                let kraw = take(input, pos, klen)?;
                let key = std::str::from_utf8(kraw)
                    .map_err(|_| DecodeError::new(*pos - klen, "invalid UTF-8 in key"))?;
                keys.push(depth, &mut run, key);
                values.push(read_value(input, pos, depth + 1, keys)?);
            }
            Ok(Value::Map(keys.finish(depth, run, values)))
        }
        other => Err(DecodeError::new(*pos - 1, format!("unknown tag 0x{other:02x}"))),
    }
}

fn read_len(input: &[u8], pos: &mut usize) -> Result<usize, DecodeError> {
    let len = varint::read_u64(input, pos)?;
    usize::try_from(len).map_err(|_| DecodeError::new(*pos, "length exceeds usize"))
}

fn take<'a>(input: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], DecodeError> {
    let end = pos
        .checked_add(len)
        .ok_or_else(|| DecodeError::new(*pos, "length overflows"))?;
    let raw = input
        .get(*pos..end)
        .ok_or_else(|| DecodeError::new(*pos, "unexpected end of input"))?;
    *pos = end;
    Ok(raw)
}

/// The eight bytes at `*pos`, as the fixed-width scalars are framed.
fn take_word(input: &[u8], pos: &mut usize) -> Result<[u8; 8], DecodeError> {
    let word = input
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<8>())
        .ok_or_else(|| DecodeError::new(*pos, "unexpected end of input"))?;
    *pos += 8;
    Ok(*word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) {
        let buf = to_binary(v);
        let back = from_binary(&buf).expect("decodes");
        match (v, &back) {
            // NaN != NaN; compare bit patterns for floats.
            (Value::F64(a), Value::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            _ => assert_eq!(&back, v),
        }
    }

    #[test]
    fn all_scalar_kinds_round_trip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::I64(i64::MIN));
        roundtrip(&Value::I64(-1));
        roundtrip(&Value::F64(f64::NAN));
        roundtrip(&Value::F64(f64::MIN_POSITIVE));
        roundtrip(&Value::from("strings ☃"));
        roundtrip(&Value::from(vec![0u8, 255, 127]));
    }

    #[test]
    fn nested_round_trip() {
        roundtrip(&Value::map([
            ("list", Value::list([Value::Null, Value::from(3i64)])),
            ("inner", Value::map([("k", Value::from("v"))])),
        ]));
    }

    #[test]
    fn empty_containers_round_trip() {
        roundtrip(&Value::list([]));
        roundtrip(&Value::map::<&str, _>([]));
        roundtrip(&Value::from(""));
        roundtrip(&Value::from(Vec::<u8>::new()));
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = to_binary(&Value::from("hello world"));
        for cut in 0..buf.len() {
            assert!(from_binary(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(from_binary(&[0x7F]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = to_binary(&Value::Null);
        buf.push(0);
        assert!(from_binary(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_in_string_rejected() {
        // TAG_STR, len=1, invalid continuation byte.
        assert!(from_binary(&[TAG_STR, 1, 0xFF]).is_err());
    }

    #[test]
    fn invalid_utf8_in_a_key_is_refused_at_the_key_warm_or_cold() {
        // `é`, and its first byte followed by `(`.
        let good = [TAG_MAP, 1, 2, 0xC3, 0xA9, TAG_NULL];
        let bad = [TAG_MAP, 1, 2, 0xC3, 0x28, TAG_NULL];
        assert_eq!(from_binary(&bad).unwrap_err().offset(), 3);
        // Behind a sibling whose key the bad one shares a prefix with.
        let batch = [&[TAG_LIST, 2][..], &good, &bad].concat();
        assert_eq!(from_binary(&batch).unwrap_err().offset(), 2 + good.len() + 3);
        let batch = [&[TAG_LIST, 3][..], &good, &good, &good].concat();
        let record = Value::map([("é", Value::Null)]);
        assert_eq!(from_binary(&batch), Ok(Value::list([record.clone(), record.clone(), record])));
    }

    #[test]
    fn absurd_list_count_rejected_without_oom() {
        let mut buf = vec![TAG_LIST];
        varint::write_u64(&mut buf, u32::MAX as u64);
        assert!(from_binary(&buf).is_err());
    }

    #[test]
    fn deep_nesting_rejected() {
        let mut v = Value::Null;
        for _ in 0..(MAX_DEPTH + 2) {
            v = Value::list([v]);
        }
        let buf = to_binary(&v);
        assert!(from_binary(&buf).is_err());
    }

    #[test]
    fn binary_is_smaller_than_text_for_blobs() {
        let v = Value::from(vec![0xABu8; 1024]);
        let bin = to_binary(&v);
        let txt = crate::text::to_text(&v);
        assert!(bin.len() < txt.len());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            // Finite floats only; NaN breaks PartialEq-based comparison.
            (-1e12f64..1e12).prop_map(Value::F64),
            "[a-zA-Z0-9 ☃]{0,16}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..64)
                .prop_map(|b| Value::Bytes(b.into())),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::List),
                proptest::collection::vec(("[a-z]{1,6}", inner), 0..8)
                    .prop_map(Value::map),
            ]
        })
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_values(v in arb_value()) {
            let buf = to_binary(&v);
            prop_assert_eq!(buf.len(), encoded_len(&v));
            prop_assert_eq!(from_binary(&buf).unwrap(), v);
        }

        #[test]
        fn text_and_binary_agree(v in arb_value()) {
            let via_text = crate::text::from_text(&crate::text::to_text(&v)).unwrap();
            let via_bin = from_binary(&to_binary(&v)).unwrap();
            prop_assert_eq!(via_text, via_bin);
        }

        #[test]
        fn random_bytes_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = from_binary(&buf);
        }

        #[test]
        fn mutated_encodings_never_panic(
            v in arb_value(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..5), 1..4),
        ) {
            // A real document keeps the decoder going past the first tag,
            // so a damaged length, count or varint is actually reached.
            let mut buf = to_binary(&v);
            for (at, byte, kind) in edits {
                let at = at % (buf.len() + 1);
                match kind {
                    0 => buf.truncate(at),
                    1 => drop(buf.splice(at..at, [byte])),
                    // A varint that never ends, and one that ends at 2^63.
                    2 => drop(buf.splice(at..at, [0xFF; 11])),
                    3 => drop(buf.splice(at..at, [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01])),
                    _ => {
                        if let Some(b) = buf.get_mut(at) {
                            *b = byte;
                        }
                    }
                }
            }
            let _ = from_binary(&buf);
        }
    }
}
