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
    /// [`MAX_HEAD_BYTES`] arrived without the blank line that ends a
    /// message head.
    HeadTooLarge,
    /// A message head carried more than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// The underlying transport failed.
    Transport(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Parse(msg) => write!(f, "http parse error: {msg}"),
            HttpError::Incomplete => write!(f, "incomplete http message"),
            HttpError::HeadTooLarge => {
                write!(f, "http head longer than {MAX_HEAD_BYTES} bytes")
            }
            HttpError::TooManyHeaders => {
                write!(f, "http head with more than {MAX_HEADERS} headers")
            }
            HttpError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl Error for HttpError {}

/// The longest message head a [`MessageReader`] accepts, start line to
/// blank line inclusive. A peer that sends more without ending its head
/// is refused with [`HttpError::HeadTooLarge`], so a reader buffers and
/// searches at most this much for a head.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// The most header lines a message head may carry (hyper's default). A
/// head with more is refused with [`HttpError::TooManyHeaders`], so the
/// header list a parsed message owns stays bounded however short its
/// lines are.
pub const MAX_HEADERS: usize = 100;

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

/// Parses the head that ends at `buf[head_end..head_end + 4]`, the first
/// blank line. A body length the head states twice over — two different
/// `content-length` values, or one beside `transfer-encoding: chunked` —
/// is refused rather than picked from (RFC 9112 §6.3), and so is a head
/// with more than [`MAX_HEADERS`] headers.
fn parse_head(buf: &[u8], head_end: usize) -> Result<Head, HttpError> {
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Parse("head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let start_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| HttpError::Parse("empty start line".into()))?
        .to_owned();
    let mut headers = Vec::new();
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
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
            if content_length.is_some_and(|earlier| earlier != n) {
                return Err(HttpError::Parse("conflicting content-length values".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && value.eq_ignore_ascii_case("chunked")
        {
            chunked = true;
        }
        headers.push((name, value));
    }
    let body_len = match (content_length, chunked) {
        (Some(_), true) => {
            return Err(HttpError::Parse("content-length with chunked transfer-encoding".into()))
        }
        (None, true) => BodyLen::Chunked,
        (n, false) => BodyLen::Fixed(n.unwrap_or(0)),
    };
    Ok(Head { start_line, headers, body_len, head_bytes: head_end + 4 })
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A decoded message body: the bytes plus how much of the input buffer
/// they consumed (chunked framing included).
type DecodedBody = (Bytes, usize);

/// A chunked body decoded as far as the bytes received so far allow, so
/// the next poll resumes where this one stopped: a body that arrives in
/// N pieces is decoded once, not N times over.
#[derive(Debug, Default)]
struct ChunkedProgress {
    /// Where the next chunk-size line starts, counted from the body's
    /// first byte.
    next: usize,
    /// The data of every chunk before `next`.
    body: BytesMut,
}

impl ChunkedProgress {
    /// Decodes the chunks of `buf`, the bytes after the head, from
    /// `next` on; the body and the bytes it consumed once the last chunk
    /// is in.
    fn resume(&mut self, buf: &[u8]) -> Result<Option<DecodedBody>, HttpError> {
        loop {
            let pos = self.next;
            let line_end = buf[pos..].windows(2).position(|w| w == b"\r\n");
            #[cfg(test)]
            tests::scanned(line_end.map_or(buf.len() - pos, |end| end + 2));
            let Some(line_end) = line_end else {
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
                return Ok(Some((std::mem::take(&mut self.body).freeze(), chunk_end)));
            }
            self.body.extend_from_slice(&buf[data_start..data_end]);
            self.next = chunk_end;
        }
    }
}

/// Incremental reader: feed chunks, poll for complete messages.
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: BytesMut,
    /// How much of `buf` earlier polls searched for the end of the head
    /// without finding it, so a poll searches only what arrived since.
    searched: usize,
    /// How far earlier polls decoded a chunked body.
    chunked: ChunkedProgress,
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

    /// Where the head's terminating blank line starts, once it has
    /// arrived within [`MAX_HEAD_BYTES`].
    fn head_end(&mut self) -> Result<Option<usize>, HttpError> {
        let window = &self.buf[..self.buf.len().min(MAX_HEAD_BYTES)];
        // A terminator may straddle the end of what was searched.
        let from = self.searched.saturating_sub(3);
        if let Some(at) = find_double_crlf(&window[from..]) {
            return Ok(Some(from + at));
        }
        self.searched = window.len();
        if window.len() == MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        Ok(None)
    }

    fn try_head(&mut self) -> Result<Option<(Head, Option<DecodedBody>)>, HttpError> {
        let Some(head_end) = self.head_end()? else {
            return Ok(None);
        };
        let head = parse_head(&self.buf, head_end)?;
        let rest = &self.buf[head.head_bytes..];
        let body = match head.body_len {
            BodyLen::Fixed(n) => {
                if rest.len() < n {
                    None
                } else {
                    Some((Bytes::copy_from_slice(&rest[..n]), n))
                }
            }
            BodyLen::Chunked => self.chunked.resume(rest)?,
        };
        Ok(Some((head, body)))
    }

    fn consume(&mut self, head_bytes: usize, body_bytes: usize) {
        let _ = self.buf.split_to(head_bytes + body_bytes);
        self.searched = 0;
        self.chunked = ChunkedProgress::default();
    }

    /// Attempts to parse a complete request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError::Parse`] on malformed input, [`HttpError::HeadTooLarge`]
    /// past [`MAX_HEAD_BYTES`] of head, [`HttpError::TooManyHeaders`] past
    /// [`MAX_HEADERS`] headers. `Ok(None)` simply means more bytes are
    /// needed.
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
    /// As [`try_request`](Self::try_request).
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
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Bytes this thread's chunk decoders searched for size lines.
        static SCANNED: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn scanned(bytes: usize) {
        SCANNED.with(|total| total.set(total.get() + bytes));
    }

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
    fn a_chunked_body_fed_in_pieces_is_decoded_once() {
        let mut raw = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        let head = raw.len();
        for i in 0..10_000u32 {
            raw.extend_from_slice(format!("1\r\n{}\r\n", char::from(b'a' + (i % 26) as u8)).as_bytes());
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        let body_bytes = raw.len() - head;
        let mut reader = MessageReader::new();
        reader.feed(&raw[..head]);
        SCANNED.with(|total| total.set(0));
        // 20 000 pieces of 3 bytes, a poll after each.
        let mut parsed = None;
        for piece in raw[head..].chunks(3) {
            reader.feed(piece);
            parsed = reader.try_request().unwrap();
        }
        let body = parsed.expect("the last piece completes the body").body;
        assert_eq!(body.len(), 10_000);
        assert_eq!(&body[..3], b"abc");
        assert_eq!(reader.buffered(), 0);
        // Re-decoding from the first chunk on every poll would search
        // ~3 * 10 000 / 2 bytes per poll, 3 * 10^8 in all.
        let scanned = SCANNED.with(Cell::get);
        assert!(scanned <= 2 * body_bytes, "{scanned} bytes searched for a {body_bytes}-byte body");
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

    /// A request whose head, blank line included, is exactly `len` bytes.
    fn head_of_len(len: usize) -> Vec<u8> {
        let mut head = b"POST /h HTTP/1.1\r\nx-pad: ".to_vec();
        head.resize(len - 4, b'p');
        head.extend_from_slice(b"\r\n\r\n");
        head
    }

    #[test]
    fn a_head_is_accepted_up_to_the_limit_and_refused_past_it() {
        let mut reader = MessageReader::new();
        reader.feed(&head_of_len(MAX_HEAD_BYTES));
        assert_eq!(reader.try_request().unwrap().unwrap().path, "/h");
        // Its blank line ends one byte past the limit: refused whole, or
        // once the limit's worth has arrived.
        for split in [None, Some(MAX_HEAD_BYTES - 2), Some(MAX_HEAD_BYTES - 1)] {
            let long = head_of_len(MAX_HEAD_BYTES + 1);
            let mut reader = MessageReader::new();
            if let Some(at) = split {
                reader.feed(&long[..at]);
                assert_eq!(reader.try_request(), Ok(None), "split at {at}");
                reader.feed(&long[at..]);
            } else {
                reader.feed(&long);
            }
            assert_eq!(reader.try_request(), Err(HttpError::HeadTooLarge), "split {split:?}");
        }
    }

    #[test]
    fn a_head_that_never_ends_is_refused_once_it_reaches_the_limit() {
        let mut reader = MessageReader::new();
        reader.feed(b"POST /h HTTP/1.1\r\n");
        while reader.buffered() + 1000 < MAX_HEAD_BYTES {
            reader.feed(&[b'x'; 1000]);
            assert_eq!(reader.try_request(), Ok(None));
        }
        reader.feed(&[b'x'; 1000]);
        assert_eq!(reader.try_request(), Err(HttpError::HeadTooLarge));
        assert_eq!(reader.try_response(), Err(HttpError::HeadTooLarge));
    }

    /// A head after `start_line` carrying `count` headers.
    fn head_with_headers(start_line: &str, count: usize) -> Vec<u8> {
        let mut head = format!("{start_line}\r\n").into_bytes();
        for i in 0..count {
            head.extend_from_slice(format!("x-h{i}: {i}\r\n").as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        head
    }

    #[test]
    fn a_head_is_accepted_up_to_the_header_limit_and_refused_past_it() {
        for (count, ok) in [(MAX_HEADERS, true), (MAX_HEADERS + 1, false)] {
            let raw = head_with_headers("POST /n HTTP/1.1", count);
            // Whole, and split-fed: inside the first header, in the last
            // one, and one byte before the blank line ends.
            for split in [None, Some(20), Some(raw.len() - 6), Some(raw.len() - 1)] {
                let mut reader = MessageReader::new();
                if let Some(at) = split {
                    reader.feed(&raw[..at]);
                    assert_eq!(reader.try_request(), Ok(None), "{count} headers, split at {at}");
                    reader.feed(&raw[at..]);
                } else {
                    reader.feed(&raw);
                }
                let parsed = reader.try_request();
                if ok {
                    let req = parsed.unwrap().unwrap();
                    assert_eq!(req.headers.len(), count);
                    assert_eq!(req.header("x-h99"), Some("99"));
                } else {
                    assert_eq!(parsed, Err(HttpError::TooManyHeaders), "split {split:?}");
                }
            }
        }
        let mut reader = MessageReader::new();
        reader.feed(&head_with_headers("HTTP/1.1 200 OK", MAX_HEADERS));
        assert_eq!(reader.try_response().unwrap().unwrap().headers.len(), MAX_HEADERS);
        reader.feed(&head_with_headers("HTTP/1.1 200 OK", MAX_HEADERS + 1));
        assert_eq!(reader.try_response(), Err(HttpError::TooManyHeaders));
    }

    #[test]
    fn a_terminator_split_across_polls_is_found() {
        let raw = Request::post("/s", b"ok".as_slice()).to_bytes();
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        for at in head_end..head_end + 4 {
            let mut reader = MessageReader::new();
            reader.feed(&raw[..at]);
            assert_eq!(reader.try_request(), Ok(None));
            reader.feed(&raw[at..]);
            assert_eq!(&reader.try_request().unwrap().unwrap().body[..], b"ok", "split at {at}");
        }
    }

    #[test]
    fn two_different_content_lengths_are_refused() {
        let mut reader = MessageReader::new();
        reader.feed(b"POST /f HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 3\r\n\r\nabc");
        let err = reader.try_request().unwrap_err();
        assert!(matches!(&err, HttpError::Parse(m) if m.contains("conflicting")), "{err}");
        // The same length twice says one thing.
        let mut reader = MessageReader::new();
        reader.feed(b"POST /f HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 3\r\n\r\nabc");
        assert_eq!(&reader.try_request().unwrap().unwrap().body[..], b"abc");
    }

    #[test]
    fn content_length_beside_chunked_is_refused() {
        for head in [
            "POST /c HTTP/1.1\r\ncontent-length: 4\r\ntransfer-encoding: chunked\r\n\r\n",
            "POST /c HTTP/1.1\r\nTransfer-Encoding: Chunked\r\ncontent-length: 4\r\n\r\n",
        ] {
            let mut reader = MessageReader::new();
            reader.feed(head.as_bytes());
            reader.feed(b"4\r\nwiki\r\n0\r\n\r\n");
            let err = reader.try_request().unwrap_err();
            assert!(matches!(&err, HttpError::Parse(m) if m.contains("chunked")), "{err}");
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
