//! A tiny blocking HTTP/1.1 client for the same subset the daemon
//! speaks: one request per connection, `Content-Length` bodies.
//!
//! Exists so the integration tests and the `serve` workload of
//! `examples/benchmark` can drive the daemon without external tooling;
//! it is not a general HTTP client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers as `(lowercased-name, value)` pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response. `timeout` bounds both
/// the connect and each read/write.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, body, timeout, &[])
}

/// [`request`] with extra request headers (e.g. a `traceparent` to join
/// an existing distributed trace).
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON body.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body), timeout)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let body =
        String::from_utf8(raw[head_end + 4..].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_bytes() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(r.body, "{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }
}
