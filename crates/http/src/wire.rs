//! Hand-rolled HTTP/1.1 wire handling: request parsing and response
//! serialization over `std::io` streams only.
//!
//! The parser implements the subset the front end needs — request line,
//! headers, `Content-Length` bodies, keep-alive — and rejects the rest
//! with typed errors that map onto specific status codes (chunked
//! transfer encoding is `501`, a missing length on a body-carrying
//! method is `411`, oversized heads/bodies are `431`/`413`). This file
//! reads untrusted network bytes and sits on the workspace's panic-free
//! lint path: every malformed input is a typed error, never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::io::{Read, Write};

/// Parser limits, from [`HttpConfig`](crate::HttpConfig). Together with
/// the server's connection bound these cap in-flight request memory.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (including CRLFs).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

/// A parsed request. Header names are lowercased; values are trimmed.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Decoded query parameters, in wire order.
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, trimmed-value)` pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection must close after the response
    /// (`Connection: close` or an HTTP/1.0 client without keep-alive).
    pub close: bool,
}

impl Request {
    /// First header with the given lowercased name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps onto one response
/// (or, for [`WireError::Closed`]/[`WireError::Timeout`], a silent close).
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection before sending a request.
    Closed,
    /// The socket read timed out mid-request.
    Timeout,
    /// Malformed request line, header, or framing → `400`.
    BadRequest(&'static str),
    /// Head exceeded [`Limits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// `Content-Length` exceeded [`Limits::max_body_bytes`] → `413`.
    BodyTooLarge,
    /// Body-carrying method without `Content-Length` → `411`.
    LengthRequired,
    /// A protocol feature the server does not implement → `501`.
    Unsupported(&'static str),
    /// The transport failed mid-read.
    Io(std::io::Error),
}

fn map_io(e: std::io::Error, read_any: bool) -> WireError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
        std::io::ErrorKind::UnexpectedEof if !read_any => WireError::Closed,
        _ => WireError::Io(e),
    }
}

/// Reads one request from `stream`.
///
/// Blocks until a full head (terminated by `\r\n\r\n`) and, when
/// `Content-Length` is present, a full body have arrived — or a limit or
/// the socket's read timeout trips. A clean EOF before the first byte is
/// [`WireError::Closed`] (the keep-alive loop's normal exit).
pub fn read_request<R: Read>(stream: &mut R, limits: &Limits) -> Result<Request, WireError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Err(WireError::Closed);
                }
                return Err(WireError::BadRequest("truncated request head"));
            }
            Ok(_) => {
                head.extend_from_slice(&byte);
                if head.len() > limits.max_head_bytes {
                    return Err(WireError::HeadTooLarge);
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) => return Err(map_io(e, !head.is_empty())),
        }
    }

    let head_str = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => return Err(WireError::BadRequest("request head is not valid utf-8")),
    };
    let mut lines = head_str.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(WireError::BadRequest("empty request line"))?;
    let target = parts
        .next()
        .ok_or(WireError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(WireError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(WireError::BadRequest("malformed request line"));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(WireError::Unsupported("unsupported HTTP version")),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(WireError::BadRequest("malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(WireError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |n: &str| {
        headers
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(WireError::Unsupported("transfer-encoding is not supported"));
    }
    let connection = find("connection").map(str::to_ascii_lowercase);
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => http10,
    };

    let content_length = match find("content-length") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| WireError::BadRequest("malformed content-length"))?,
        ),
        None => None,
    };
    let body = match content_length {
        Some(n) if n > limits.max_body_bytes => return Err(WireError::BodyTooLarge),
        Some(n) => {
            let mut body = vec![0u8; n];
            stream.read_exact(&mut body).map_err(|e| map_io(e, true))?;
            body
        }
        None if method == "POST" || method == "PUT" => return Err(WireError::LengthRequired),
        None => Vec::new(),
    };

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((k.to_string(), v.to_string()));
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body,
        close,
    })
}

/// A response about to be serialized. `Content-Length` and `Connection`
/// are emitted by [`Response::write_to`]; everything else is explicit.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type` etc.), in emission order.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    /// A response with a plain-text body.
    pub fn text(status: u16, content_type: &str, body: String) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", content_type.to_string())],
            body: body.into_bytes(),
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Serializes the status line, headers, framing, and body. `close`
    /// controls the `Connection` header the peer sees.
    pub fn write_to<W: Write>(&self, stream: &mut W, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The reason phrase for every status the front end emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LIMITS: Limits = Limits {
        max_head_bytes: 1024,
        max_body_bytes: 4096,
    };

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /v1/alarms?cursor=7&max=10 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut Cursor::new(&raw[..]), &LIMITS).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/alarms");
        assert_eq!(req.query_param("cursor"), Some("7"));
        assert_eq!(req.query_param("max"), Some("10"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.close);
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/score HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(&raw[..]), &LIMITS).unwrap();
        assert_eq!(req.body, b"hello");
        assert!(req.close);
    }

    type ErrCheck = fn(&WireError) -> bool;

    #[test]
    fn typed_errors() {
        let cases: [(&[u8], ErrCheck); 6] = [
            (b"", |e| matches!(e, WireError::Closed)),
            (b"GET /x HTTP/1.1\r\nHost", |e| {
                matches!(e, WireError::BadRequest(_))
            }),
            (b"POST /x HTTP/1.1\r\n\r\n", |e| {
                matches!(e, WireError::LengthRequired)
            }),
            (b"POST /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", |e| {
                matches!(e, WireError::BodyTooLarge)
            }),
            (b"GET /x HTTP/2\r\n\r\n", |e| {
                matches!(e, WireError::Unsupported(_))
            }),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                |e| matches!(e, WireError::Unsupported(_)),
            ),
        ];
        for (raw, check) in cases {
            let err = read_request(&mut Cursor::new(raw), &LIMITS).unwrap_err();
            assert!(check(&err), "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn head_limit() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2000));
        let err = read_request(&mut Cursor::new(raw.as_bytes()), &LIMITS).unwrap_err();
        assert!(matches!(err, WireError::HeadTooLarge));
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        Response::json(429, "{}".to_string())
            .with_header("Retry-After", "1".to_string())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
