//! JSON-like text codec.
//!
//! This is the serialization format the HTTP-based baselines pay for: a
//! human-readable rendering with string escaping, number formatting and
//! recursive descent parsing. Byte blobs — which JSON cannot carry — are
//! encoded as hex strings wrapped in `x'…'`, mirroring how real systems
//! base64 binary data into JSON (and paying a comparable expansion cost).
//!
//! The work is real — every byte is inspected, escaped, validated and
//! copied — but it is done at the speed of the bytes: strings move as
//! *runs* (scan to the next `"`, `\` or control byte, copy the run in one
//! piece), numbers are written into and read out of the document without
//! temporaries, and blobs go through lookup tables into buffers sized up
//! front. What the encoder emits is wire bytes, and wire bytes feed the
//! virtual clock, so the output for a given [`Value`] is fixed: the
//! test-only `reference` child module keeps the original per-`char`
//! codec, and `differential` holds this one to it byte for byte.

use std::borrow::Cow;
use std::io::Write as _;

use bytes::Bytes;

use crate::keys::KeyCache;
use crate::{DecodeError, Value, MAX_DEPTH};

/// Serializes `value` into its text form.
///
/// ```
/// # use roadrunner_serial::{text, Value};
/// let s = text::to_text(&Value::map([("n", Value::from(3i64))]));
/// assert_eq!(s, r#"{"n":3}"#);
/// ```
pub fn to_text(value: &Value) -> String {
    let mut out = Vec::with_capacity(encoded_len_hint(value));
    write_value(&mut out, value);
    String::from_utf8(out).expect("the encoder writes ASCII and whole runs of input `str`s")
}

/// Parses a text document produced by [`to_text`].
///
/// # Errors
///
/// Returns [`DecodeError`] with the byte offset of the first syntax
/// problem: unterminated strings, bad escapes, malformed numbers,
/// nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn from_text(input: &str) -> Result<Value, DecodeError> {
    let mut parser = Parser { input, pos: 0, last_len: 0, keys: KeyCache::default() };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

/// `"00"` … `"99"`: integers are written two digits per division.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0u8; 2]; 100];
    let mut n = 0;
    while n < 100 {
        table[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    table
};

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `"00"` … `"ff"`, one entry per byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut n = 0;
    while n < 256 {
        table[n] = [HEX_DIGITS[n >> 4], HEX_DIGITS[n & 0xF]];
        n += 1;
    }
    table
};

/// Marks a byte that is not a hex digit in [`HEX_VALUES`].
const NOT_HEX: u8 = 0xFF;

/// The value of each ASCII hex digit (either case), [`NOT_HEX`] elsewhere.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut n = 0;
    while n < 16 {
        table[HEX_DIGITS[n] as usize] = n as u8;
        table[HEX_DIGITS[n].to_ascii_uppercase() as usize] = n as u8;
        n += 1;
    }
    table
};

/// `10^0` … `10^15`, each an exact double.
const POWERS_OF_TEN: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// Whether `b` ends a run of string bytes that can be copied verbatim:
/// the two characters the encoder must escape, and control bytes.
fn is_special(b: u8) -> bool {
    (b < 0x20) | (b == b'"') | (b == b'\\')
}

/// Index of the first [`is_special`] byte in `bytes`, or `bytes.len()`.
fn find_special(bytes: &[u8]) -> usize {
    // Whole blocks are tested without an early exit, which the compiler
    // turns into vector compares; only the block that holds a special
    // byte (or the tail) is searched byte by byte.
    const BLOCK: usize = 32;
    let clean = bytes
        .chunks_exact(BLOCK)
        .take_while(|block| !block.iter().fold(false, |hit, &b| hit | is_special(b)))
        .count()
        * BLOCK;
    clean + bytes[clean..].iter().position(|&b| is_special(b)).unwrap_or(bytes.len() - clean)
}

/// Roughly how many bytes `value` encodes to — exact for blobs and for
/// strings that need no escapes, a typical width for numbers — so the
/// output buffer is sized once, in one walk of the tree.
fn encoded_len_hint(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 5,
        Value::I64(_) | Value::F64(_) => 12,
        Value::Str(s) => s.len() + 2,
        Value::Bytes(b) => 2 * b.len() + 3,
        Value::List(items) => 2 + items.iter().map(|v| encoded_len_hint(v) + 1).sum::<usize>(),
        Value::Map(entries) => {
            2 + entries.iter().map(|(k, v)| k.len() + 4 + encoded_len_hint(v)).sum::<usize>()
        }
    }
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::I64(n) => {
            if *n < 0 {
                out.push(b'-');
            }
            write_u64(out, n.unsigned_abs());
        }
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Bytes(b) => write_hex(out, b),
        Value::List(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(out, item);
            }
            out.push(b']');
        }
        Value::Map(entries) => {
            out.push(b'{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_escaped(out, k);
                out.push(b':');
                write_value(out, v);
            }
            out.push(b'}');
        }
    }
}

fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 digits; fill from the right.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Writes `x` exactly as the reference's `format!` calls do: `{:.1}` for
/// whole values below `1e15` (the fractional marker tells the parser it
/// is a float), `{:e}` beyond `1e15` and below `1e-5` (`Display` never
/// uses an exponent and would print hundreds of digits), `{}` otherwise.
fn write_f64(out: &mut Vec<u8>, x: f64) {
    let mag = x.abs();
    if x.is_nan() {
        out.extend_from_slice(b"nan");
    } else if mag == f64::INFINITY {
        out.extend_from_slice(if x > 0.0 { b"inf" } else { &b"-inf"[..] });
    } else if mag >= 1e15 || (mag != 0.0 && mag < 1e-5) {
        write!(out, "{x:e}").expect("writing to a Vec cannot fail");
    } else if let Some((scaled, frac_digits)) = short_decimal(mag) {
        if x.is_sign_negative() {
            out.push(b'-');
        }
        match frac_digits {
            0 => {
                write_u64(out, scaled);
                out.extend_from_slice(b".0");
            }
            1 => {
                write_u64(out, scaled / 10);
                out.extend_from_slice(&[b'.', b'0' + (scaled % 10) as u8]);
            }
            _ => {
                write_u64(out, scaled / 100);
                out.push(b'.');
                out.extend_from_slice(&DIGIT_PAIRS[(scaled % 100) as usize]);
            }
        }
    } else {
        write!(out, "{x}").expect("writing to a Vec cannot fail");
    }
}

/// Splits `mag` (finite, zero or in `[1e-5, 1e15)`) into `(scaled,
/// frac_digits)` when it is a whole number or the double nearest to a
/// decimal with one or two fractional digits: `mag` is then what
/// `scaled / 10^frac_digits` parses to, with no shorter spelling.
///
/// That is the shortest-round-trip answer `fmt` would compute, reached
/// without its digit generation: division is correctly rounded, so
/// `scaled / scale == mag` is precisely "this decimal parses back to
/// `mag`"; below `1e12` doubles lie closer together than `0.01`, so at
/// most one such decimal exists per digit count, and fewer digits are
/// tried first. Everything else is left to `fmt`.
fn short_decimal(mag: f64) -> Option<(u64, usize)> {
    let units = mag as u64;
    if units as f64 == mag {
        return Some((units, 0));
    }
    if mag < 1e12 {
        for (frac_digits, scale) in [(1, 10.0), (2, 100.0)] {
            let scaled = (mag * scale + 0.5) as u64;
            if scaled as f64 / scale == mag {
                return Some((scaled, frac_digits));
            }
        }
    }
    None
}

fn write_escaped(out: &mut Vec<u8>, s: &str) {
    let mut rest = s.as_bytes();
    out.reserve(rest.len() + 2);
    out.push(b'"');
    loop {
        let run = find_special(rest);
        out.extend_from_slice(&rest[..run]);
        let Some(&special) = rest.get(run) else { break };
        match special {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            control => {
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&HEX_PAIRS[control as usize]);
            }
        }
        rest = &rest[run + 1..];
    }
    out.push(b'"');
}

fn write_hex(out: &mut Vec<u8>, blob: &[u8]) {
    out.reserve(2 * blob.len() + 3);
    out.extend_from_slice(b"x'");
    let start = out.len();
    out.resize(start + 2 * blob.len(), 0);
    for (pair, &byte) in out[start..].chunks_exact_mut(2).zip(blob) {
        pair.copy_from_slice(&HEX_PAIRS[byte as usize]);
    }
    out.push(b'\'');
}

/// Appends the run of ASCII digits at `*at` to the decimal number in
/// `acc` and returns how many there were. `acc` wraps silently: callers
/// use it only when the count says it cannot have.
fn read_digits(bytes: &[u8], at: &mut usize, acc: &mut u64) -> usize {
    let start = *at;
    while let Some(digit @ b'0'..=b'9') = bytes.get(*at) {
        *acc = acc.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
        *at += 1;
    }
    *at - start
}

/// Recursive-descent parser over a document. `pos` only ever rests on
/// ASCII bytes' edges, so slicing `input` there is always in bounds and
/// on a `char` boundary — which is what lets string runs and number
/// tokens be taken as `&str` without re-validating them.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Length of the container completed last: the capacity the next one
    /// starts with. Sibling records have the same shape, so all but the
    /// first are allocated once, at their final size.
    last_len: usize,
    /// Sibling records also spell the same keys: all but the first share
    /// the first's key strings.
    keys: KeyCache,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn error(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError::new(self.pos, reason)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'i') => self.keyword("inf", Value::F64(f64::INFINITY)),
            Some(b'"') => self.string().map(|s| Value::Str(s.into_owned())),
            Some(b'x') => self.hex_bytes(),
            Some(b'[') => self.list(depth),
            Some(b'{') => self.map(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, DecodeError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected keyword `{word}`")))
        }
    }

    /// Parses the quoted string at `pos`. A string without escapes — the
    /// common case — is one scan, and borrowed from the document.
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        let bytes = self.bytes();
        // `input[run..at]` is scanned literal text not yet copied out.
        let mut run = self.pos + 1;
        let mut at = run;
        let mut out = String::new();
        loop {
            at += find_special(&bytes[at..]);
            match bytes.get(at) {
                None => return Err(DecodeError::new(at, "unterminated string")),
                Some(b'"') => {
                    let tail = &self.input[run..at];
                    self.pos = at + 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(tail));
                    }
                    out.push_str(tail);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(&self.input[run..at]);
                    let unescaped = match bytes.get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            // `get` refuses a range that runs off the end
                            // or splits a multi-byte character. Like the
                            // reference, `from_str_radix` lets a `+` lead.
                            let c = self
                                .input
                                .get(at + 2..at + 6)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| DecodeError::new(at, "invalid \\u escape"))?;
                            at += 4;
                            c
                        }
                        _ => return Err(DecodeError::new(at, "invalid escape sequence")),
                    };
                    out.push(unescaped);
                    at += 2;
                    run = at;
                }
                // A raw control byte is literal text like any other.
                Some(_) => at += 1,
            }
        }
    }

    fn hex_bytes(&mut self) -> Result<Value, DecodeError> {
        let bytes = self.bytes();
        if bytes.get(self.pos + 1) != Some(&b'\'') {
            return Err(self.error("expected x'…' byte literal"));
        }
        let start = self.pos + 2;
        let close = self.input[start..].find('\'').map(|offset| start + offset);
        let digits = &bytes[start..close.unwrap_or(bytes.len())];
        // Decode every whole pair without branching on validity; `seen`
        // collects a `NOT_HEX` if any digit was bad.
        let mut seen = 0u8;
        let blob: Vec<u8> = digits
            .chunks_exact(2)
            .map(|pair| {
                let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
                seen |= hi | lo;
                hi << 4 | lo
            })
            .collect();
        if seen == NOT_HEX {
            let good = digits.iter().take_while(|&&b| HEX_VALUES[b as usize] != NOT_HEX).count();
            return Err(DecodeError::new(start + good, "bad hex digit"));
        }
        let paired = digits.len() & !1;
        match (digits.get(paired), close) {
            (None, Some(close)) => {
                self.pos = close + 1;
                Ok(Value::Bytes(Bytes::from(blob)))
            }
            // An odd digit pairs with the closing quote.
            (Some(&odd), Some(close)) => {
                let bad = if HEX_VALUES[odd as usize] == NOT_HEX { close - 1 } else { close };
                Err(DecodeError::new(bad, "bad hex digit"))
            }
            (_, None) => Err(DecodeError::new(start + paired, "unterminated byte literal")),
        }
    }

    /// Parses the number at `pos`: an integer, or — if any of `.eE+-`
    /// follows the sign — a float. The plain shapes, `d+` and `d+.d+` with
    /// few enough digits to be exact, are read off while the token is
    /// scanned; everything else goes to `str::parse`, which both shapes
    /// agree with.
    fn number(&mut self) -> Result<Value, DecodeError> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut at = start;
        let negative = bytes[at] == b'-';
        if negative {
            at += 1;
            if bytes[at..].starts_with(b"inf") {
                self.pos = at + 3;
                return Ok(Value::F64(f64::NEG_INFINITY));
            }
        }
        let mut digits = 0u64;
        let int_digits = read_digits(bytes, &mut at, &mut digits);
        let mut frac_digits = 0;
        let mut is_float = bytes.get(at) == Some(&b'.');
        if is_float {
            at += 1;
            frac_digits = read_digits(bytes, &mut at, &mut digits);
        }
        let plain_end = at;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(at) {
            is_float = true;
            at += 1;
        }
        self.pos = at;
        if at == plain_end && int_digits > 0 {
            if !is_float && int_digits <= 18 {
                // Below 10^18, so within `i64` either side of zero.
                let n = digits as i64;
                return Ok(Value::I64(if negative { -n } else { n }));
            }
            if frac_digits > 0 && int_digits + frac_digits <= 15 {
                // Both operands are exact doubles (below 2^53 and 10^15)
                // and division rounds correctly, so this is the double
                // nearest the decimal — what `str::parse` returns.
                let x = digits as f64 / POWERS_OF_TEN[frac_digits];
                return Ok(Value::F64(if negative { -x } else { x }));
            }
        }
        let token = &self.input[start..at];
        if token == "-" {
            return Err(DecodeError::new(start, "empty number"));
        }
        if is_float {
            token
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| DecodeError::new(start, format!("invalid float `{token}`")))
        } else {
            token
                .parse::<i64>()
                .map(Value::I64)
                .map_err(|_| DecodeError::new(start, format!("invalid integer `{token}`")))
        }
    }

    fn list(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(Vec::new()));
        }
        let mut items = Vec::with_capacity(self.last_len);
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.last_len = items.len();
                    return Ok(Value::List(items));
                }
                _ => return Err(self.error("expected `,` or `]` in list")),
            }
        }
    }

    fn map(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(Vec::new()));
        }
        let mut entries = Vec::with_capacity(self.last_len);
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key"));
            }
            let key = self.string()?;
            let key = self.keys.share(depth, entries.len(), &key);
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:` after key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.last_len = entries.len();
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in map")),
            }
        }
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Payload, PayloadKind};

    fn roundtrip(v: &Value) {
        let s = to_text(v);
        let back = from_text(&s).unwrap_or_else(|e| panic!("decoding {s:?}: {e}"));
        assert_eq!(&back, v, "text was {s:?}");
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::I64(0));
        roundtrip(&Value::I64(i64::MIN));
        roundtrip(&Value::I64(i64::MAX));
        roundtrip(&Value::F64(1.5));
        roundtrip(&Value::F64(-0.25));
        roundtrip(&Value::F64(1e300));
    }

    #[test]
    fn whole_floats_stay_floats() {
        let v = Value::F64(3.0);
        let s = to_text(&v);
        assert_eq!(s, "3.0");
        assert_eq!(from_text(&s).unwrap(), v);
    }

    #[test]
    fn infinities_round_trip() {
        roundtrip(&Value::F64(f64::INFINITY));
        roundtrip(&Value::F64(f64::NEG_INFINITY));
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        roundtrip(&Value::from("hello"));
        roundtrip(&Value::from("quote \" backslash \\ newline \n tab \t"));
        roundtrip(&Value::from("unicode: héllo ☃ 𝕏"));
        roundtrip(&Value::from("\u{1}\u{2}control"));
        roundtrip(&Value::from(""));
    }

    #[test]
    fn bytes_round_trip() {
        roundtrip(&Value::Bytes(Bytes::from_static(b"")));
        roundtrip(&Value::Bytes(Bytes::from_static(b"\x00\x01\xFE\xFF")));
        roundtrip(&Value::Bytes(Bytes::from((0u8..=255).collect::<Vec<_>>())));
    }

    #[test]
    fn nested_structures_round_trip() {
        roundtrip(&Value::list([]));
        roundtrip(&Value::map::<&str, _>([]));
        roundtrip(&Value::map([
            ("name", Value::from("frame-001")),
            (
                "meta",
                Value::map([("w", Value::from(1920i64)), ("h", Value::from(1080i64))]),
            ),
            ("tags", Value::list([Value::from("edge"), Value::from("cloud")])),
            ("blob", Value::Bytes(Bytes::from_static(b"\x89PNG"))),
        ]));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = from_text(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(|l| l.at(1)).and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = from_text("null x").unwrap_err();
        assert!(err.reason().contains("trailing"));
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(from_text("\"abc").is_err());
    }

    #[test]
    fn bad_escape_rejected() {
        assert!(from_text(r#""\q""#).is_err());
    }

    #[test]
    fn malformed_list_rejected() {
        assert!(from_text("[1 2]").is_err());
        assert!(from_text("[1,").is_err());
    }

    #[test]
    fn malformed_map_rejected() {
        assert!(from_text("{1: 2}").is_err());
        assert!(from_text("{\"a\" 1}").is_err());
        assert!(from_text("{\"a\": 1").is_err());
    }

    #[test]
    fn bad_hex_literal_rejected() {
        assert!(from_text("x'0g'").is_err());
        assert!(from_text("x'0").is_err());
        assert!(from_text("xx").is_err());
    }

    #[test]
    fn bad_hex_literal_offsets_point_at_the_digit() {
        // x ' 0 0 g 0 '   — the first bad digit, high or low nibble.
        assert_eq!(from_text("x'00g0'").unwrap_err().offset(), 4);
        assert_eq!(from_text("x'000g'").unwrap_err().offset(), 5);
        // An odd digit pairs with the quote: the quote is the bad digit,
        // unless the digit itself is.
        assert_eq!(from_text("x'000'").unwrap_err().offset(), 5);
        assert_eq!(from_text("x'00g'").unwrap_err().offset(), 4);
        // No closing quote: where the next pair would have started.
        assert_eq!(from_text("x'00").unwrap_err().offset(), 4);
        assert_eq!(from_text("x'000").unwrap_err().offset(), 4);
    }

    /// `depth` lists around a `null`, or `{"a":` maps around it.
    fn nested(depth: usize, open: &str, close: &str) -> String {
        format!("{}null{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_limit_round_trips() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let doc = nested(MAX_DEPTH, open, close);
            let value = from_text(&doc).unwrap_or_else(|e| panic!("{open} at the limit: {e}"));
            assert_eq!(to_text(&value), doc);
            // Both codecs draw the line in the same place.
            let packed = crate::binary::to_binary(&value);
            assert_eq!(crate::binary::from_binary(&packed).unwrap(), value);
        }
    }

    #[test]
    fn nesting_past_the_limit_is_refused_at_the_offending_value() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let err = from_text(&nested(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert_eq!(err.offset(), open.len() * (MAX_DEPTH + 1), "{open}");
            assert!(err.reason().contains("MAX_DEPTH"));
            // An unclosed run of openers fails the same way, at the
            // first one that is too deep.
            let err = from_text(&open.repeat(MAX_DEPTH + 2)).unwrap_err();
            assert_eq!(err.offset(), open.len() * (MAX_DEPTH + 1), "{open}");
        }
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        // Two million `[` used to recurse two million frames deep.
        let err = from_text(&"[".repeat(2_000_000)).unwrap_err();
        assert_eq!(err.offset(), MAX_DEPTH + 1);
        assert!(from_text(&"{\"a\":".repeat(500_000)).is_err());
    }

    #[test]
    fn sensor_expansion_ratio_is_pinned() {
        // The benchmark's `serial.text.expansion_ratio.sensor` at seed 1,
        // 265 193 / 128 000 = 2.0718203125: wire bytes per flat byte,
        // which the virtual clock is charged by.
        let sensor = Payload::synthetic(PayloadKind::SensorRecords, 1, 128_000);
        assert_eq!(sensor.flat().len(), 128_000);
        assert_eq!(to_text(sensor.value()).len(), 265_193);
    }

    #[test]
    fn error_offset_points_at_problem() {
        let err = from_text("[null, @]").unwrap_err();
        assert_eq!(err.offset(), 7);
    }

    #[test]
    fn deterministic_output() {
        let v = Value::map([("z", Value::from(1i64)), ("a", Value::from(2i64))]);
        assert_eq!(to_text(&v), to_text(&v));
        // Insertion order, not alphabetical.
        assert_eq!(to_text(&v), r#"{"z":1,"a":2}"#);
    }
}
