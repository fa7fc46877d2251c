//! A minimal HTTP/1.0 implementation: enough to carry the Gage evaluation
//! traffic (GET with Host and size hints, fixed-length responses).

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};

/// Maximum accepted request-head size.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Response size, in bytes, for a request without an `X-Size` hint, and
/// the size the load client asks for unless told otherwise.
pub const DEFAULT_RESPONSE_SIZE: u64 = 6 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Method (`GET`, …).
    pub method: String,
    /// Path (`/dir00001/class1_3`).
    pub path: String,
    /// Headers, lower-cased names.
    pub headers: HashMap<String, String>,
}

impl RequestHead {
    /// The `X-Size` response-size hint, if present.
    pub fn size_hint(&self) -> Option<u64> {
        self.headers.get("x-size")?.trim().parse().ok()
    }

    /// Serializes the head back to wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.0\r\n", self.method, self.path).into_bytes();
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    /// Builds a GET with a Host and optional size hint.
    pub fn get(path: &str, host: &str, size_hint: Option<u64>) -> Self {
        let mut headers = HashMap::new();
        headers.insert("host".to_string(), host.to_string());
        if let Some(s) = size_hint {
            headers.insert("x-size".to_string(), s.to_string());
        }
        RequestHead {
            method: "GET".to_string(),
            path: path.to_string(),
            headers,
        }
    }
}

/// Errors from [`read_request_head`].
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure.
    Io(std::io::Error),
    /// The head exceeded [`MAX_HEAD_BYTES`] or the peer closed early.
    Truncated,
    /// The bytes were not a valid HTTP/1.x request head.
    Malformed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Truncated => f.write_str("request head truncated"),
            HttpError::Malformed => f.write_str("malformed request head"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Parses a request head from a byte buffer ending in `\r\n\r\n`.
///
/// # Errors
///
/// Fails if the bytes are not a well-formed HTTP/1.x request head.
pub fn parse_request_head(buf: &[u8]) -> Result<RequestHead, HttpError> {
    let text = std::str::from_utf8(buf).map_err(|_| HttpError::Malformed)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed)?.to_string();
    let path = parts.next().ok_or(HttpError::Malformed)?.to_string();
    let version = parts.next().ok_or(HttpError::Malformed)?;
    if !version.starts_with("HTTP/") {
        return Err(HttpError::Malformed);
    }
    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(RequestHead {
        method,
        path,
        headers,
    })
}

/// Reads a request head (through the blank line) from `stream`, returning
/// the head and any body bytes that were already read past it.
///
/// # Errors
///
/// Fails on transport errors, oversized heads, or malformed requests.
pub fn read_request_head<S>(stream: &mut S) -> Result<(RequestHead, Vec<u8>), HttpError>
where
    S: Read,
{
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            let rest = buf.split_off(pos);
            return parse_request_head(&buf).map(|h| (h, rest));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Truncated);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Writes a `200 OK` response with a body of `size` filler bytes.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_ok_response<S>(stream: &mut S, size: usize) -> Result<(), std::io::Error>
where
    S: Write,
{
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {size}\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    // Stream the body in chunks to avoid one huge allocation.
    const CHUNK: usize = 16 * 1024;
    let filler = [b'g'; CHUNK];
    let mut remaining = size;
    while remaining > 0 {
        let n = remaining.min(CHUNK);
        stream.write_all(&filler[..n])?;
        remaining -= n;
    }
    stream.flush()?;
    Ok(())
}

/// Writes an error response with the given status line (e.g.
/// `"503 Service Unavailable"`).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_error_response<S>(stream: &mut S, status: &str) -> Result<(), std::io::Error>
where
    S: Write,
{
    let head = format!("HTTP/1.0 {status}\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Reads a full response (head + body) and returns the status code and body
/// length.
///
/// # Errors
///
/// Fails on transport errors or a malformed status line.
pub fn read_response<S>(stream: &mut S) -> Result<(u16, u64), HttpError>
where
    S: Read,
{
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    // Read everything until EOF (HTTP/1.0 close-delimited).
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head_end = find_head_end(&buf).ok_or(HttpError::Malformed)?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpError::Malformed)?;
    let status_line = head.split("\r\n").next().ok_or(HttpError::Malformed)?;
    let code: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or(HttpError::Malformed)?;
    Ok((code, (buf.len() - head_end) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected loopback TCP pair for streaming tests.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn parse_basic_request() {
        let head =
            parse_request_head(b"GET /x HTTP/1.0\r\nHost: Gold.Local:8080\r\nX-Size: 4096\r\n\r\n")
                .expect("parses");
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/x");
        assert_eq!(head.headers["host"], "Gold.Local:8080");
        assert_eq!(head.size_hint(), Some(4096));
    }

    #[test]
    fn head_round_trip() {
        let h = RequestHead::get("/abc", "site.local", Some(100));
        let parsed = parse_request_head(&h.to_bytes()).expect("parses");
        assert_eq!(parsed.path, "/abc");
        assert_eq!(parsed.headers["host"], "site.local");
        assert_eq!(parsed.size_hint(), Some(100));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_request_head(b"NOT HTTP").is_err());
        assert!(parse_request_head(b"GET /x\r\n\r\n").is_err());
        assert!(parse_request_head(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn head_reader_handles_split_arrival() {
        let (mut a, mut b) = tcp_pair();
        let writer = std::thread::spawn(move || {
            a.write_all(b"GET /y HTTP/1.0\r\nHo").expect("write");
            a.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_millis(20));
            a.write_all(b"st: s.local\r\n\r\nBODY").expect("write");
        });
        let (head, rest) = read_request_head(&mut b).expect("reads");
        writer.join().expect("writer");
        assert_eq!(head.path, "/y");
        assert_eq!(head.headers["host"], "s.local");
        assert_eq!(rest, b"BODY");
    }

    #[test]
    fn response_round_trip() {
        let (mut a, mut b) = tcp_pair();
        let server = std::thread::spawn(move || {
            write_ok_response(&mut a, 10_000).expect("writes");
            // Dropping `a` closes the stream (HTTP/1.0 semantics).
        });
        let (code, body) = read_response(&mut b).expect("reads");
        server.join().expect("server");
        assert_eq!(code, 200);
        assert_eq!(body, 10_000);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let (mut a, mut b) = tcp_pair();
        let writer = std::thread::spawn(move || {
            if a.write_all(b"GET / HTTP/1.0\r\n").is_err() {
                return;
            }
            // Pour header bytes well past MAX_HEAD_BYTES without ever
            // closing the head.
            let filler = vec![b'x'; 1024];
            for _ in 0..12 {
                if a.write_all(b"X-Junk: ").is_err()
                    || a.write_all(&filler).is_err()
                    || a.write_all(b"\r\n").is_err()
                {
                    return;
                }
            }
        });
        let err = read_request_head(&mut b).expect_err("must reject");
        assert!(matches!(err, HttpError::Truncated), "got {err}");
        drop(b);
        let _ = writer.join();
    }

    #[test]
    fn early_close_is_truncated() {
        let (mut a, mut b) = tcp_pair();
        a.write_all(b"GET / HT").expect("write");
        drop(a);
        let err = read_request_head(&mut b).expect_err("must reject");
        assert!(matches!(err, HttpError::Truncated));
    }

    #[test]
    fn error_response_parses() {
        let (mut a, mut b) = tcp_pair();
        let server = std::thread::spawn(move || {
            write_error_response(&mut a, "503 Service Unavailable").expect("writes");
        });
        let (code, body) = read_response(&mut b).expect("reads");
        server.join().expect("server");
        assert_eq!(code, 503);
        assert_eq!(body, 0);
    }
}
