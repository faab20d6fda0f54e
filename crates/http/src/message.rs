//! HTTP/1.1 message types and serialization.

use bytes::{Bytes, BytesMut};

/// An HTTP request.
///
/// ```
/// # use roadrunner_http::Request;
/// let req = Request::post("/invoke", b"payload".as_slice())
///     .with_header("x-function", "fn-b");
/// assert_eq!(req.header("X-FUNCTION"), Some("fn-b"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request target path.
    pub path: String,
    /// Header list in insertion order.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Bytes,
}

impl Request {
    /// Builds a POST request carrying `body`.
    pub fn post(path: impl Into<String>, body: impl Into<Bytes>) -> Self {
        Self {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Builds a bodyless GET request.
    pub fn get(path: impl Into<String>) -> Self {
        Self { method: "GET".into(), path: path.into(), headers: Vec::new(), body: Bytes::new() }
    }

    /// Adds a header (chainable).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Serializes head + body into one buffer — the copy HTTP-based
    /// transports pay to assemble a message.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.body.len() + 128);
        out.extend_from_slice(self.method.as_bytes());
        out.extend_from_slice(b" ");
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        let mut has_len = false;
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !has_len {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out.freeze()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header list in insertion order.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Bytes,
}

impl Response {
    /// A `200 OK` response carrying `body`.
    pub fn ok(body: impl Into<Bytes>) -> Self {
        Self { status: 200, reason: "OK".into(), headers: Vec::new(), body: body.into() }
    }

    /// Adds a header (chainable).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Serializes head + body into one buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.body.len() + 128);
        out.extend_from_slice(b"HTTP/1.1 ");
        out.extend_from_slice(self.status.to_string().as_bytes());
        out.extend_from_slice(b" ");
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\n");
        let mut has_len = false;
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !has_len {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out.freeze()
    }
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_serialization_shape() {
        let req = Request::post("/f", b"body".as_slice()).with_header("Host", "edge-0");
        let raw = req.to_bytes();
        let text = std::str::from_utf8(&raw).unwrap();
        assert!(text.starts_with("POST /f HTTP/1.1\r\n"));
        assert!(text.contains("Host: edge-0\r\n"));
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nbody"));
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let req = Request::post("/f", b"xy".as_slice()).with_header("Content-Length", "2");
        let raw = req.to_bytes();
        let text = std::str::from_utf8(&raw).unwrap();
        assert_eq!(text.matches("ontent-").count(), 1);
    }

    #[test]
    fn response_serialization_shape() {
        let resp = Response { status: 404, reason: "Not Found".into(), ..Response::ok(Bytes::new()) };
        let text = resp.to_bytes();
        let text = std::str::from_utf8(&text).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 0\r\n"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let resp = Response::ok(Bytes::new()).with_header("X-Trace", "abc");
        assert_eq!(resp.header("x-trace"), Some("abc"));
        assert_eq!(resp.header("missing"), None);
    }

    #[test]
    fn get_has_empty_body() {
        assert!(Request::get("/health").body.is_empty());
    }
}
