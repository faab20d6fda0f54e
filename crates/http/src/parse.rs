//! Incremental HTTP/1.1 parsing.
//!
//! [`MessageReader`] accumulates stream chunks until a full message — a
//! head and the body its `content-length` frames — is available, then
//! yields the parsed message. Header lines are read, counted and checked
//! but not kept. A head carrying any `transfer-encoding` is refused, so
//! every body has one framing: RFC 9112 §6.1 has a server refuse a
//! transfer coding it does not implement, and this reader implements
//! none — chunked included, which §7.1 asks every recipient to decode,
//! because both ends of every exchange here are this crate's. Parsing
//! walks every head byte; a body is handed out as a slice of the buffer
//! it was fed into, not copied again.

use std::error::Error;
use std::fmt;

use bytes::{Bytes, BytesMut};

use crate::message::{Request, Response};

/// Error raised by the HTTP parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed message: a bad start line, status code or header line,
    /// a CR, LF or NUL that does not end a head line, a number that is
    /// not all digits, conflicting `content-length`s, or any
    /// `transfer-encoding`.
    Parse(String),
    /// The stream ended before a full message arrived.
    Incomplete,
    /// [`MAX_HEAD_BYTES`] arrived without the blank line that ends a
    /// message head.
    HeadTooLarge,
    /// A message head carried more than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A message head stated a `content-length` above [`MAX_BODY_BYTES`].
    BodyTooLarge,
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
            HttpError::BodyTooLarge => {
                write!(f, "http body longer than {MAX_BODY_BYTES} bytes")
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
/// work a head costs stays bounded however short its lines are.
pub const MAX_HEADERS: usize = 100;

/// The longest message body a [`MessageReader`] accepts, 1 GiB (the
/// largest file the WASI layer holds). A `content-length` above it is
/// refused with [`HttpError::BodyTooLarge`] as soon as the head arrives,
/// so a reader never buffers towards a body it will refuse. The largest
/// body any figure sends, the text document of a 500 MB payload, fits.
pub const MAX_BODY_BYTES: usize = 1 << 30;

/// `text` as a number if it is one or more ASCII digits and fits a `T`:
/// the `1*DIGIT` of RFC 9110, where `str::parse` would also take a sign.
fn digits<T: std::str::FromStr>(text: &str) -> Option<T> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// Parses `head`, the bytes before the first blank line, into its start
/// line and body length. Lines end at CRLF, and a CR, LF or NUL anywhere
/// else in the head is refused (RFC 9110 §5.5): a peer that ends a line
/// at a bare LF would otherwise frame a body this reader does not see.
/// A field name must be non-empty and free of whitespace (RFC 9112
/// §5.1), so an obs-fold line is refused too. A body length the head
/// states twice over — two different `content-length` values — is refused
/// rather than picked from (RFC 9112 §6.3), and so is any
/// `transfer-encoding`, a head with more than [`MAX_HEADERS`] headers and
/// a `content-length` above [`MAX_BODY_BYTES`].
fn parse_head(head: &[u8]) -> Result<(&str, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::Parse("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    if let Some(line) = lines.clone().find(|line| line.contains(['\r', '\n', '\0'])) {
        return Err(HttpError::Parse(format!("bare CR, LF or NUL in head line `{line}`")));
    }
    let start_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| HttpError::Parse("empty start line".into()))?;
    let mut content_length = None;
    for (count, line) in lines.enumerate() {
        if count == MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line
            .split_once(':')
            .filter(|(name, _)| !name.is_empty() && !name.contains(char::is_whitespace))
            .ok_or_else(|| HttpError::Parse(format!("bad header line `{line}`")))?;
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Parse("transfer-encoding is not supported".into()));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let n: usize = digits(value)
                .ok_or_else(|| HttpError::Parse(format!("bad content-length `{value}`")))?;
            if content_length.is_some_and(|earlier| earlier != n) {
                return Err(HttpError::Parse("conflicting content-length values".into()));
            }
            if n > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge);
            }
            content_length = Some(n);
        }
    }
    Ok((start_line, content_length.unwrap_or(0)))
}

/// Refuses a start line's protocol version unless it is exactly
/// `HTTP/1.0` or `HTTP/1.1`.
fn check_version(version: &str) -> Result<(), HttpError> {
    if matches!(version, "HTTP/1.0" | "HTTP/1.1") {
        Ok(())
    } else {
        Err(HttpError::Parse(format!("unsupported version `{version}`")))
    }
}

/// Whether `text` is a `token` (RFC 9110 §5.6.2), as a method is.
fn is_token(text: &str) -> bool {
    !text.is_empty()
        && text.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Incremental reader: feed chunks, poll for complete messages.
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: BytesMut,
    /// How much of `buf` earlier polls searched for the end of the head
    /// without finding it, so a poll searches only what arrived since.
    searched: usize,
}

impl MessageReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk received from the transport. The buffer grows
    /// with what arrives, never ahead of it on a head's word, so a
    /// `content-length` alone allocates nothing.
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
        if let Some(at) = window[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            return Ok(Some(from + at));
        }
        self.searched = window.len();
        if window.len() == MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        Ok(None)
    }

    /// Once the next message has arrived whole, `start` parses its start
    /// line; if that succeeds, the message's bytes are consumed and its
    /// body is handed out beside what `start` made — a slice of the
    /// reader's buffer, not a copy.
    fn next_message<S>(
        &mut self,
        start: impl FnOnce(&str) -> Result<S, HttpError>,
    ) -> Result<Option<(S, Bytes)>, HttpError> {
        let Some(head_end) = self.head_end()? else {
            return Ok(None);
        };
        let (start_line, body_len) = parse_head(&self.buf[..head_end])?;
        let body_start = head_end + 4;
        let end = body_start + body_len;
        if self.buf.len() < end {
            return Ok(None);
        }
        let parsed = start(start_line)?;
        let body = self.buf.split_to(end).freeze().slice(body_start..);
        self.searched = 0;
        Ok(Some((parsed, body)))
    }

    /// Attempts to parse a complete request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError::Parse`] on malformed input, [`HttpError::HeadTooLarge`]
    /// past [`MAX_HEAD_BYTES`] of head, [`HttpError::TooManyHeaders`] past
    /// [`MAX_HEADERS`] headers, [`HttpError::BodyTooLarge`] past
    /// [`MAX_BODY_BYTES`] of body. `Ok(None)` simply means more bytes are
    /// needed.
    pub fn try_request(&mut self) -> Result<Option<Request>, HttpError> {
        let message = self.next_message(|start_line| {
            // `method SP request-target SP HTTP-version`, nothing more.
            let mut parts = start_line.split(' ');
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(method), Some(path), Some(version), None)
                    if is_token(method)
                        && !path.is_empty()
                        && path.bytes().all(|b| b.is_ascii_graphic()) =>
                {
                    check_version(version)?;
                    Ok((method.to_owned(), path.to_owned()))
                }
                _ => Err(HttpError::Parse(format!("bad request line `{start_line}`"))),
            }
        })?;
        Ok(message.map(|((method, path), body)| Request { method, path, body }))
    }

    /// Attempts to parse a complete response from the buffered bytes.
    ///
    /// # Errors
    ///
    /// As [`try_request`](Self::try_request).
    pub fn try_response(&mut self) -> Result<Option<Response>, HttpError> {
        let message = self.next_message(|start_line| {
            let mut parts = start_line.splitn(3, ' ');
            check_version(parts.next().unwrap_or_default())?;
            let status = parts
                .next()
                .ok_or_else(|| HttpError::Parse("missing status".into()))?;
            // `status-code = 3DIGIT`.
            let status: u16 = digits(status)
                .filter(|_| status.len() == 3)
                .ok_or_else(|| HttpError::Parse("bad status code".into()))?;
            let reason = parts.next().unwrap_or_default().to_owned();
            Ok((status, reason))
        })?;
        Ok(message.map(|((status, reason), body)| Response { status, reason, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::post("/invoke", b"hello".as_slice());
        let mut reader = MessageReader::new();
        reader.feed(&req.to_bytes());
        let parsed = reader.try_request().unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/invoke");
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
    fn malformed_inputs_error() {
        let requests: [&[u8]; 24] = [
            b"NOT-HTTP\r\n\r\n",
            b"POST /f HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
            b"POST /f FTP/9\r\ncontent-length: 0\r\n\r\n",
            // `content-length = 1*DIGIT`: no sign, however `str::parse` reads it.
            b"POST /f HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\ncontent-length: -0\r\n\r\n",
            b"POST /f HTTP/1.1\r\ncontent-length:\r\n\r\n",
            // A field name is a token: no whitespace before the colon, no
            // obs-fold continuation line, never empty.
            b"POST /f HTTP/1.1\r\ncontent-length : 5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\n content-length: 5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\nx-a: b\r\n\tcontent-length: 5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\n: 5\r\n\r\n",
            // Lines end at CRLF only: a bare LF would frame a 5-byte body
            // here and leave it buffered as the next message. A bare CR
            // or a NUL, in a field or in the start line, is refused too.
            b"POST /f HTTP/1.1\r\nx: a\ncontent-length: 5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\nx: a\rcontent-length: 5\r\n\r\nhello",
            b"POST /f HTTP/1.1\r\nx: a\r\r\n\r\n",
            b"POST /f HTTP/1.1\r\nx: a\0b\r\n\r\n",
            b"POST /f\r HTTP/1.1\r\n\r\n",
            // `method SP request-target SP HTTP-version`, single spaces,
            // and only the versions this reader speaks.
            b"POST\t/f\tHTTP/1.1\r\n\r\n",
            b"POST /f HTTP/1.1 junk\r\n\r\n",
            b"POST /f HTTP/1.1x\r\n\r\n",
            b"POST  /f HTTP/1.1\r\n\r\n",
            b"POST /f  HTTP/1.1\r\n\r\n",
            b"POST /f HTTP/1.1 \r\n\r\n",
            b" POST /f HTTP/1.1\r\n\r\n",
            b"POST /f HTTP/1.2\r\n\r\n",
            b"P(ST /f HTTP/1.1\r\n\r\n",
        ];
        for raw in requests {
            let mut reader = MessageReader::new();
            reader.feed(raw);
            let result = reader.try_request();
            let text = String::from_utf8_lossy(raw);
            assert!(matches!(result, Err(HttpError::Parse(_))), "{result:?} for {text:?}");
        }
        // `status-code = 3DIGIT`, after an exact version.
        for status_line in [
            "HTTP/1.1 abc OK",
            "HTTP/1.1 +200 OK",
            "HTTP/1.1 +20 OK",
            "HTTP/1.1 20 OK",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1 -200 OK",
            "HTTP/1.1  OK",
            "HTTP/1.1x 200 OK",
            "HTTP/2 200 OK",
            "HTTP/1.1\t200 OK",
            "HTTP/1.1 200 O\rK",
        ] {
            let mut reader = MessageReader::new();
            reader.feed(format!("{status_line}\r\ncontent-length: 0\r\n\r\n").as_bytes());
            let result = reader.try_response();
            assert!(matches!(result, Err(HttpError::Parse(_))), "{result:?} for {status_line:?}");
        }
    }

    #[test]
    fn both_versions_and_any_token_method_parse() {
        for (start_line, method, path) in [
            ("GET /f HTTP/1.0", "GET", "/f"),
            ("PUT /a/b?c=d HTTP/1.1", "PUT", "/a/b?c=d"),
            ("X-M!#$%&'*+.^_`|~9 * HTTP/1.1", "X-M!#$%&'*+.^_`|~9", "*"),
        ] {
            let mut reader = MessageReader::new();
            reader.feed(format!("{start_line}\r\ncontent-length: 2\r\n\r\nok").as_bytes());
            let parsed = reader.try_request().unwrap().unwrap();
            assert_eq!(
                (&parsed.method[..], &parsed.path[..], &parsed.body[..]),
                (method, path, &b"ok"[..])
            );
        }
        // A status line may end after its code.
        let mut reader = MessageReader::new();
        reader.feed(b"HTTP/1.0 200\r\n\r\n");
        assert_eq!(reader.try_response().unwrap().unwrap().status, 200);
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
                    assert_eq!(parsed.unwrap().unwrap().path, "/n");
                } else {
                    assert_eq!(parsed, Err(HttpError::TooManyHeaders), "split {split:?}");
                }
            }
        }
        let mut reader = MessageReader::new();
        reader.feed(&head_with_headers("HTTP/1.1 200 OK", MAX_HEADERS));
        assert_eq!(reader.try_response().unwrap().unwrap().status, 200);
        reader.feed(&head_with_headers("HTTP/1.1 200 OK", MAX_HEADERS + 1));
        assert_eq!(reader.try_response(), Err(HttpError::TooManyHeaders));
    }

    /// Feeds `raw` to a fresh reader whole, or split at `at` with a poll
    /// in between that must ask for more, and returns the last poll.
    fn poll_split<M: PartialEq + fmt::Debug>(
        raw: &[u8],
        split: Option<usize>,
        poll: fn(&mut MessageReader) -> Result<Option<M>, HttpError>,
    ) -> Result<Option<M>, HttpError> {
        let mut reader = MessageReader::new();
        if let Some(at) = split {
            reader.feed(&raw[..at]);
            assert_eq!(poll(&mut reader), Ok(None), "split at {at}");
            reader.feed(&raw[at..]);
        } else {
            reader.feed(raw);
        }
        poll(&mut reader)
    }

    #[test]
    fn a_content_length_is_accepted_up_to_the_body_limit_and_refused_past_it() {
        for (len, refused) in [(MAX_BODY_BYTES, false), (MAX_BODY_BYTES + 1, true)] {
            let raw = format!("POST /b HTTP/1.1\r\ncontent-length: {len}\r\n\r\n").into_bytes();
            // At the limit the head alone waits for its body; past it the
            // head alone is refused.
            let expected = if refused { Err(HttpError::BodyTooLarge) } else { Ok(None) };
            for split in [None, Some(30), Some(raw.len() - 1)] {
                let parsed = poll_split(&raw, split, MessageReader::try_request);
                assert_eq!(parsed, expected, "{len} bytes, split {split:?}");
            }
        }
        let mut reader = MessageReader::new();
        let too_long = MAX_BODY_BYTES + 1;
        reader.feed(format!("HTTP/1.1 200 OK\r\ncontent-length: {too_long}\r\n\r\n").as_bytes());
        assert_eq!(reader.try_response(), Err(HttpError::BodyTooLarge));
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
    fn a_transfer_encoding_is_refused_whatever_it_says() {
        let fields = [
            "transfer-encoding: chunked",
            "transfer-encoding: gzip, chunked",
            "transfer-encoding: gzip",
            "transfer-encoding:",
            "Transfer-Encoding: Chunked",
            "TRANSFER-ENCODING: chunked",
            "transfer-encoding: gzip\r\ntransfer-encoding: chunked",
            "content-length: 4\r\ntransfer-encoding: chunked",
            "Transfer-Encoding: gzip\r\ncontent-length: 4",
        ];
        for field in fields {
            for start_line in ["POST /c HTTP/1.1", "HTTP/1.1 200 OK"] {
                let head = format!("{start_line}\r\n{field}\r\n\r\n").into_bytes();
                // Refused as soon as the head is in, before any body: fed
                // whole with a body behind it, or the head alone split in
                // the field, and one byte before its blank line ends.
                let whole = [&head[..], b"4\r\nwiki\r\n0\r\n\r\n"].concat();
                let in_field = start_line.len() + 12;
                for (raw, split) in
                    [(&whole, None), (&head, Some(in_field)), (&head, Some(head.len() - 1))]
                {
                    let result = if start_line.starts_with("POST") {
                        poll_split(raw, split, MessageReader::try_request).map(|_| ())
                    } else {
                        poll_split(raw, split, MessageReader::try_response).map(|_| ())
                    };
                    let refused = matches!(&result,
                        Err(HttpError::Parse(m)) if m.contains("transfer-encoding"));
                    assert!(refused, "{result:?}: {field:?}, `{start_line}`, split {split:?}");
                }
            }
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
