//! Minimal HTTP/1.1 message framing over blocking [`TcpStream`]s.
//!
//! This is deliberately a subset: one request per connection
//! (`Connection: close` on every response), `Content-Length` bodies
//! only (no chunked transfer), and a bounded header block. That subset
//! is exactly what the daemon's clients (curl, the in-crate client, CI
//! smoke tests) speak, and keeping the framing this small makes the
//! failure modes enumerable: every malformed input maps to a
//! [`HttpError`] and from there to a 4xx, never to a hung worker.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum size of the request line + headers block.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client ("GET", "POST", …).
    pub method: String,
    /// Request target path (query strings are not used by this API).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Raw W3C `traceparent` header value, if the client sent one.
    /// Validation happens at trace creation — a malformed value falls
    /// back to fresh ids, never to a 4xx.
    pub traceparent: Option<String>,
}

/// Why a request could not be read. Each variant maps onto one HTTP
/// status so the caller can respond precisely.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    Malformed(String),
    /// Declared body exceeds the configured limit → 413.
    TooLarge {
        /// The request's `Content-Length`.
        declared: usize,
        /// The configured body-size limit.
        limit: usize,
    },
    /// Connection closed or timed out mid-request → 408.
    Truncated,
    /// Socket-level failure (reset, timeout before any byte) — no
    /// response is possible.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit of {limit}")
            }
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::Io(k) => write!(f, "socket error: {k:?}"),
        }
    }
}

/// Read one request from `stream`, honoring the stream's read timeout
/// and capping the body at `max_body_bytes`.
pub fn read_request(stream: &mut TcpStream, max_body_bytes: usize) -> Result<Request, HttpError> {
    let (head, mut leftover) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    // An RFC 9110 token: the method lands in trace names and logs.
    let method = parts.next().unwrap_or("");
    let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    if method.is_empty() || !method.bytes().all(tchar) {
        return Err(HttpError::Malformed(format!("invalid method {method:?}")));
    }
    let method = method.to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length = 0usize;
    let mut traceparent = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
        } else if name.trim().eq_ignore_ascii_case("traceparent") {
            traceparent = Some(value.trim().to_string());
        }
    }
    if content_length > max_body_bytes {
        return Err(HttpError::TooLarge {
            declared: content_length,
            limit: max_body_bytes,
        });
    }

    let mut body = std::mem::take(&mut leftover);
    if body.len() > content_length {
        return Err(HttpError::Malformed(
            "body longer than Content-Length".into(),
        ));
    }
    while body.len() < content_length {
        let mut buf = [0u8; 4096];
        let want = (content_length - body.len()).min(buf.len());
        match stream.read(&mut buf[..want]) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Truncated),
            Err(e) => return Err(HttpError::Io(e.kind())),
        }
    }
    Ok(Request {
        method,
        path,
        body,
        traceparent,
    })
}

/// Read up to the end of the header block (`\r\n\r\n`), returning the
/// head text and any body bytes read past it.
fn read_head(stream: &mut TcpStream) -> Result<(String, Vec<u8>), HttpError> {
    let mut buf = Vec::with_capacity(512);
    loop {
        if let Some(end) = find_head_end(&buf) {
            let head = String::from_utf8(buf[..end].to_vec())
                .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
            return Ok((head, buf[end + 4..].to_vec()));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed(format!(
                "header block exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(HttpError::Io(std::io::ErrorKind::UnexpectedEof))
                } else {
                    Err(HttpError::Truncated)
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Truncated),
            Err(e) => return Err(HttpError::Io(e.kind())),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// An outgoing response, rendered by [`write_response`].
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After` on 429.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Self {
        let mut body = String::from("{\"error\":");
        cesim_json::write_escaped(msg, &mut body);
        body.push('}');
        Response::json(status, body)
    }
}

/// The standard reason phrase for the status codes this daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto `stream`. Every response carries
/// `Connection: close`; errors are returned (not panicked) so a dead
/// client can never take a worker down.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut out = String::with_capacity(resp.body.len() + 128);
    out.push_str(&format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    ));
    for (name, value) in &resp.extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Run `read_request` against raw bytes pushed through a real socket
    /// pair, mirroring production framing exactly.
    fn parse_bytes(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = bytes.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&payload).unwrap();
            // Close the write half so truncated requests hit EOF.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            s
        });
        let (mut conn, _) = listener.accept().unwrap();
        let r = read_request(&mut conn, max_body);
        drop(writer.join().unwrap());
        r
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_bytes(
            b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/simulate");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(req.traceparent, None);
    }

    #[test]
    fn captures_traceparent_header_case_insensitively() {
        let req = parse_bytes(
            b"GET /healthz HTTP/1.1\r\nTraceParent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(
            req.traceparent.as_deref(),
            Some("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
        );
        // Garbage values are captured verbatim — rejection happens at
        // trace creation, where they fall back to fresh ids.
        let junk = parse_bytes(b"GET / HTTP/1.1\r\ntraceparent: nope\r\n\r\n", 1024).unwrap();
        assert_eq!(junk.traceparent.as_deref(), Some("nope"));
    }

    #[test]
    fn rejects_oversized_body_by_declared_length() {
        let err =
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(
            err,
            HttpError::TooLarge {
                declared: 99999,
                ..
            }
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let err =
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024).unwrap_err();
        assert_eq!(err, HttpError::Truncated);
    }

    #[test]
    fn rejects_garbage() {
        for bytes in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GE\x01T /x HTTP/1.1\r\n\r\n"[..],
            &b" /x HTTP/1.1\r\n\r\n"[..],
            &b"GET /x SPDY/9\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse_bytes(bytes, 1024), Err(HttpError::Malformed(_))),
                "{bytes:?} must be malformed"
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            text
        });
        let (mut conn, _) = listener.accept().unwrap();
        let mut resp = Response::json(429, "{\"error\":\"queue full\"}");
        resp.extra_headers.push(("retry-after", "1".into()));
        write_response(&mut conn, &resp).unwrap();
        drop(conn);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn error_body_escapes_message() {
        let r = Response::error(400, "bad \"field\"");
        assert_eq!(r.body, "{\"error\":\"bad \\\"field\\\"\"}");
    }
}
