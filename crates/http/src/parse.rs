//! Incremental HTTP/1.1 parsing.
//!
//! [`MessageReader`] accumulates stream chunks until a full message
//! (head + content-length or chunked body) is available, then yields the
//! parsed message. Parsing walks and copies every byte — the
//! deserialization-side cost of HTTP transports.

use std::error::Error;
use std::fmt;

use bytes::{Bytes, BytesMut};

use crate::message::{Request, Response};

/// Error raised by the HTTP parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed message (bad start line, header, or chunk framing).
    Parse(String),
    /// The stream ended before a full message arrived.
    Incomplete,
    /// The underlying transport failed.
    Transport(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Parse(msg) => write!(f, "http parse error: {msg}"),
            HttpError::Incomplete => write!(f, "incomplete http message"),
            HttpError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl Error for HttpError {}

/// A parsed start line + headers, before the body is attached.
#[derive(Debug, Clone)]
struct Head {
    start_line: String,
    headers: Vec<(String, String)>,
    body_len: BodyLen,
    head_bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyLen {
    Fixed(usize),
    Chunked,
}

fn parse_head(buf: &[u8]) -> Result<Option<Head>, HttpError> {
    let Some(head_end) = find_double_crlf(buf) else {
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Parse("head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let start_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| HttpError::Parse("empty start line".into()))?
        .to_owned();
    let mut headers = Vec::new();
    let mut body_len = BodyLen::Fixed(0);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Parse(format!("bad header line `{line}`")))?;
        let name = name.trim().to_owned();
        let value = value.trim().to_owned();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::Parse(format!("bad content-length `{value}`")))?;
            body_len = BodyLen::Fixed(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && value.eq_ignore_ascii_case("chunked")
        {
            body_len = BodyLen::Chunked;
        }
        headers.push((name, value));
    }
    Ok(Some(Head { start_line, headers, body_len, head_bytes: head_end + 4 }))
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decodes a chunked body if complete; returns `(body, consumed)`.
/// A decoded message body: the bytes plus how much of the input buffer
/// they consumed (chunked framing included).
type DecodedBody = (Bytes, usize);

fn decode_chunked(buf: &[u8]) -> Result<Option<DecodedBody>, HttpError> {
    let mut body = BytesMut::new();
    let mut pos = 0usize;
    loop {
        let Some(line_end) = buf[pos..].windows(2).position(|w| w == b"\r\n") else {
            return Ok(None);
        };
        let size_line = std::str::from_utf8(&buf[pos..pos + line_end])
            .map_err(|_| HttpError::Parse("chunk size is not UTF-8".into()))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| HttpError::Parse(format!("bad chunk size `{size_line}`")))?;
        let data_start = pos + line_end + 2;
        // `size` is the peer's claim, not a length this buffer has: a
        // chunk that would end past `usize::MAX` is malformed, not
        // merely incomplete.
        let chunk_end = data_start
            .checked_add(size)
            .and_then(|data_end| data_end.checked_add(2))
            .ok_or_else(|| HttpError::Parse(format!("chunk size `{size_line}` overflows")))?;
        let data_end = chunk_end - 2;
        if buf.len() < chunk_end {
            return Ok(None);
        }
        if &buf[data_end..chunk_end] != b"\r\n" {
            return Err(HttpError::Parse("chunk not terminated by CRLF".into()));
        }
        if size == 0 {
            return Ok(Some((body.freeze(), chunk_end)));
        }
        body.extend_from_slice(&buf[data_start..data_end]);
        pos = chunk_end;
    }
}

/// Incremental reader: feed chunks, poll for complete messages.
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: BytesMut,
}

impl MessageReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk received from the transport.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn try_head(&self) -> Result<Option<(Head, Option<DecodedBody>)>, HttpError> {
        let Some(head) = parse_head(&self.buf)? else {
            return Ok(None);
        };
        let rest = &self.buf[head.head_bytes..];
        let body = match head.body_len {
            BodyLen::Fixed(n) => {
                if rest.len() < n {
                    None
                } else {
                    Some((Bytes::copy_from_slice(&rest[..n]), n))
                }
            }
            BodyLen::Chunked => decode_chunked(rest)?,
        };
        Ok(Some((head, body)))
    }

    fn consume(&mut self, head_bytes: usize, body_bytes: usize) {
        let _ = self.buf.split_to(head_bytes + body_bytes);
    }

    /// Attempts to parse a complete request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError::Parse`] on malformed input. `Ok(None)` simply means
    /// more bytes are needed.
    pub fn try_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some((head, body)) = self.try_head()? else {
            return Ok(None);
        };
        let Some((body, consumed)) = body else {
            return Ok(None);
        };
        let mut parts = head.start_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::Parse("missing method".into()))?
            .to_owned();
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Parse("missing path".into()))?
            .to_owned();
        let version = parts.next().unwrap_or_default();
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Parse(format!("unsupported version `{version}`")));
        }
        self.consume(head.head_bytes, consumed);
        Ok(Some(Request { method, path, headers: head.headers, body }))
    }

    /// Attempts to parse a complete response from the buffered bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError::Parse`] on malformed input. `Ok(None)` simply means
    /// more bytes are needed.
    pub fn try_response(&mut self) -> Result<Option<Response>, HttpError> {
        let Some((head, body)) = self.try_head()? else {
            return Ok(None);
        };
        let Some((body, consumed)) = body else {
            return Ok(None);
        };
        let mut parts = head.start_line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Parse(format!("unsupported version `{version}`")));
        }
        let status: u16 = parts
            .next()
            .ok_or_else(|| HttpError::Parse("missing status".into()))?
            .parse()
            .map_err(|_| HttpError::Parse("bad status code".into()))?;
        let reason = parts.next().unwrap_or_default().to_owned();
        self.consume(head.head_bytes, consumed);
        Ok(Some(Response { status, reason, headers: head.headers, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::post("/invoke", b"hello".as_slice()).with_header("x-k", "v");
        let mut reader = MessageReader::new();
        reader.feed(&req.to_bytes());
        let parsed = reader.try_request().unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/invoke");
        assert_eq!(parsed.header("x-k"), Some("v"));
        assert_eq!(&parsed.body[..], b"hello");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok(b"result".as_slice());
        let mut reader = MessageReader::new();
        reader.feed(&resp.to_bytes());
        let parsed = reader.try_response().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(&parsed.body[..], b"result");
    }

    #[test]
    fn partial_feeds_return_none_until_complete() {
        let raw = Request::post("/f", vec![7u8; 100]).to_bytes();
        let mut reader = MessageReader::new();
        for chunk in raw.chunks(9) {
            reader.feed(chunk);
        }
        // All fed now; but verify None mid-way with a fresh reader.
        let mut partial = MessageReader::new();
        partial.feed(&raw[..raw.len() - 1]);
        assert!(partial.try_request().unwrap().is_none());
        assert!(reader.try_request().unwrap().is_some());
    }

    #[test]
    fn pipelined_messages_parse_in_order() {
        let mut reader = MessageReader::new();
        reader.feed(&Request::post("/a", b"1".as_slice()).to_bytes());
        reader.feed(&Request::post("/b", b"2".as_slice()).to_bytes());
        assert_eq!(reader.try_request().unwrap().unwrap().path, "/a");
        assert_eq!(reader.try_request().unwrap().unwrap().path, "/b");
        assert!(reader.try_request().unwrap().is_none());
    }

    #[test]
    fn chunked_body_decodes() {
        let raw = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let mut reader = MessageReader::new();
        reader.feed(raw);
        let req = reader.try_request().unwrap().unwrap();
        assert_eq!(&req.body[..], b"wikipedia");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn incomplete_chunked_waits() {
        let raw = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwi";
        let mut reader = MessageReader::new();
        reader.feed(raw);
        assert!(reader.try_request().unwrap().is_none());
        reader.feed(b"ki\r\n0\r\n\r\n");
        assert_eq!(&reader.try_request().unwrap().unwrap().body[..], b"wiki");
    }

    #[test]
    fn malformed_inputs_error() {
        let mut reader = MessageReader::new();
        reader.feed(b"NOT-HTTP\r\n\r\n");
        assert!(reader.try_request().is_err());

        let mut reader = MessageReader::new();
        reader.feed(b"POST /f HTTP/1.1\r\ncontent-length: abc\r\n\r\n");
        assert!(reader.try_request().is_err());

        let mut reader = MessageReader::new();
        reader.feed(b"POST /f FTP/9\r\ncontent-length: 0\r\n\r\n");
        assert!(reader.try_request().is_err());

        let mut reader = MessageReader::new();
        reader.feed(b"HTTP/1.1 abc OK\r\ncontent-length: 0\r\n\r\n");
        assert!(reader.try_response().is_err());
    }

    #[test]
    fn bad_chunk_framing_errors() {
        let raw = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwikiXX0\r\n\r\n";
        let mut reader = MessageReader::new();
        reader.feed(raw);
        assert!(reader.try_request().is_err());
    }

    #[test]
    fn overflowing_chunk_size_is_a_parse_error() {
        // `data_start + size` used to wrap (release) or panic (debug and
        // the overflow-checks pass). The size line ends at byte 18, so
        // the last size overflows only when the trailing CRLF is added.
        for size in ["ffffffffffffffff", "fffffffffffffffe", "ffffffffffffffed"] {
            let mut reader = MessageReader::new();
            reader.feed(b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
            reader.feed(format!("{size}\r\nab\r\n").as_bytes());
            assert!(matches!(reader.try_request(), Err(HttpError::Parse(_))), "size {size}");
        }
    }

    #[test]
    fn large_binary_bodies_survive() {
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let raw = Request::post("/big", body.clone()).to_bytes();
        let mut reader = MessageReader::new();
        reader.feed(&raw);
        let parsed = reader.try_request().unwrap().unwrap();
        assert_eq!(&parsed.body[..], &body[..]);
    }
}
