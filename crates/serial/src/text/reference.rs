//! The reference text codec: the per-`char` encoder and decoder this
//! crate shipped before [`super`] was rewritten around byte runs,
//! compiled only under `cfg(test)`.
//!
//! It is the oracle [`super::differential`] holds the shipping codec to,
//! and so the definition of the wire contract: `to_text` must emit these
//! bytes for every [`Value`], and `from_text` must return this `Value`,
//! or fail at this offset, for every `&str` nested no deeper than
//! [`crate::MAX_DEPTH`] (beyond it the oracle recurses without bound and
//! the shipping decoder refuses). Nothing here is tuned; it stays as
//! written so a divergence is the rewrite's.

use crate::{DecodeError, Value};

pub fn to_text(value: &Value) -> String {
    let mut out = String::with_capacity(value.heap_size() + value.node_count() * 2);
    write_value(&mut out, value);
    out
}

pub fn from_text(input: &str) -> Result<Value, DecodeError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(DecodeError::new(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => {
            out.push_str(&n.to_string());
        }
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Bytes(b) => {
            out.push_str("x'");
            for byte in b.iter() {
                out.push(hex_digit(byte >> 4));
                out.push(hex_digit(byte & 0xF));
            }
            out.push('\'');
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(record) => {
            out.push('{');
            for (i, (k, v)) in record.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("nan");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "inf" } else { "-inf" });
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep a fractional marker so the parser can tell floats from ints.
        out.push_str(&format!("{x:.1}"));
    } else if x.abs() >= 1e15 || (x != 0.0 && x.abs() < 1e-5) {
        // Rust's `Display` for floats never uses exponent notation; huge
        // magnitudes would print hundreds of digits and lose the float
        // marker. Use scientific notation instead.
        out.push_str(&format!("{x:e}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn hex_digit(n: u8) -> char {
    char::from_digit(n as u32, 16).expect("nibble is < 16")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    match bytes.get(*pos) {
        None => Err(DecodeError::new(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'i') => parse_keyword(bytes, pos, "inf", Value::F64(f64::INFINITY)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'x') => parse_hex_bytes(bytes, pos),
        Some(b'[') => parse_list(bytes, pos),
        Some(b'{') => parse_map(bytes, pos),
        Some(b'-') | Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&other) => {
            Err(DecodeError::new(*pos, format!("unexpected byte 0x{other:02x}")))
        }
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, DecodeError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(DecodeError::new(*pos, format!("expected keyword `{word}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, DecodeError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        match bytes.get(*pos) {
            None => return Err(DecodeError::new(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| DecodeError::new(start, "truncated \\u escape"))?;
                        let hex_str = std::str::from_utf8(hex)
                            .map_err(|_| DecodeError::new(start, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex_str, 16)
                            .map_err(|_| DecodeError::new(start, "invalid \\u escape"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| DecodeError::new(start, "invalid code point"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(DecodeError::new(start, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar. Find its byte length from the
                // leading byte.
                let b = bytes[*pos];
                let len = utf8_len(b).ok_or_else(|| {
                    DecodeError::new(*pos, "invalid UTF-8 leading byte in string")
                })?;
                let slice = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| DecodeError::new(*pos, "truncated UTF-8 sequence"))?;
                let s = std::str::from_utf8(slice)
                    .map_err(|_| DecodeError::new(*pos, "invalid UTF-8 sequence"))?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn utf8_len(leading: u8) -> Option<usize> {
    match leading {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

fn parse_hex_bytes(bytes: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    if bytes.get(*pos + 1) != Some(&b'\'') {
        return Err(DecodeError::new(*pos, "expected x'…' byte literal"));
    }
    *pos += 2;
    let mut out = Vec::new();
    loop {
        match (bytes.get(*pos), bytes.get(*pos + 1)) {
            (Some(b'\''), _) => {
                *pos += 1;
                return Ok(Value::Bytes(out.into()));
            }
            (Some(&hi), Some(&lo)) => {
                let hi = hex_val(hi).ok_or_else(|| DecodeError::new(*pos, "bad hex digit"))?;
                let lo =
                    hex_val(lo).ok_or_else(|| DecodeError::new(*pos + 1, "bad hex digit"))?;
                out.push(hi << 4 | lo);
                *pos += 2;
            }
            _ => return Err(DecodeError::new(*pos, "unterminated byte literal")),
        }
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
        if bytes[*pos..].starts_with(b"inf") {
            *pos += 3;
            return Ok(Value::F64(f64::NEG_INFINITY));
        }
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| DecodeError::new(start, "non-ascii number"))?;
    if token.is_empty() || token == "-" {
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

fn parse_list(bytes: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::List(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::List(items));
            }
            _ => return Err(DecodeError::new(*pos, "expected `,` or `]` in list")),
        }
    }
}

fn parse_map(bytes: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut entries: Vec<(String, Value)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::map(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(DecodeError::new(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(DecodeError::new(*pos, "expected `:` after key"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::map(entries));
            }
            _ => return Err(DecodeError::new(*pos, "expected `,` or `}` in map")),
        }
    }
}
