//! HTTP/1.1 message types and serialization.

use bytes::{Bytes, BytesMut};

/// An HTTP request: its start line and body. A serialized request carries
/// one header, the body's `content-length`.
///
/// ```
/// # use roadrunner_http::Request;
/// let req = Request::post("/invoke", b"payload".as_slice());
/// assert_eq!(req.method, "POST");
/// assert_eq!(&req.to_bytes()[..], b"POST /invoke HTTP/1.1\r\ncontent-length: 7\r\n\r\npayload");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method (`POST`, …).
    pub method: String,
    /// Request target path.
    pub path: String,
    /// Message body.
    pub body: Bytes,
}

impl Request {
    /// Builds a POST request carrying `body`.
    pub fn post(path: impl Into<String>, body: impl Into<Bytes>) -> Self {
        Self { method: "POST".into(), path: path.into(), body: body.into() }
    }

    /// Serializes head + body into one buffer — the copy HTTP-based
    /// transports pay to assemble a message.
    pub fn to_bytes(&self) -> Bytes {
        frame(&[&self.method, " ", &self.path, " HTTP/1.1"], &self.body)
    }
}

/// An HTTP response: its status line and body, serialized like a
/// [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Message body.
    pub body: Bytes,
}

impl Response {
    /// A `200 OK` response carrying `body`.
    pub fn ok(body: impl Into<Bytes>) -> Self {
        Self { status: 200, reason: "OK".into(), body: body.into() }
    }

    /// Serializes head + body into one buffer.
    pub fn to_bytes(&self) -> Bytes {
        frame(&["HTTP/1.1 ", &self.status.to_string(), " ", &self.reason], &self.body)
    }
}

/// The start line spelled by `start`, exactly one `content-length`
/// header, the blank line and `body`, in one buffer.
fn frame(start: &[&str], body: &Bytes) -> Bytes {
    let mut out = BytesMut::with_capacity(body.len() + 128);
    for part in start {
        out.extend_from_slice(part.as_bytes());
    }
    out.extend_from_slice(format!("\r\ncontent-length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_serialization_shape() {
        let raw = Request::post("/f", b"body".as_slice()).to_bytes();
        assert_eq!(&raw[..], b"POST /f HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody");
    }

    #[test]
    fn response_serialization_shape() {
        let resp = Response { status: 404, reason: "Not Found".into(), ..Response::ok(Bytes::new()) };
        let raw = resp.to_bytes();
        assert_eq!(&raw[..], b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n");
    }
}
