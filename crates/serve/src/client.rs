//! A minimal loopback HTTP/1.1 client for tests, the smoke mode, and the
//! load benchmark. Speaks exactly the dialect the server emits: explicit
//! `Content-Length`, `Connection: keep-alive`/`close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed client-side response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A keep-alive connection to one server.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with a read/write timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    /// `GET path` over this connection.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a body over this connection.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, body)
    }

    /// Send one request and read one response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            if !self.read_more()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof before response head",
                ));
            }
        };
        let rest = self.buf.split_off(head_end);
        let head = std::mem::replace(&mut self.buf, rest);
        let head = String::from_utf8_lossy(&head);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status =
            status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        let length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        while self.buf.len() < length {
            if !self.read_more()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside response body",
                ));
            }
        }
        let rest = self.buf.split_off(length);
        let body = std::mem::replace(&mut self.buf, rest);
        Ok(ClientResponse { status, headers, body })
    }

    fn read_more(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    let filled = chunk
                        .get(..n)
                        .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidData))?;
                    self.buf.extend_from_slice(filled);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<ClientResponse> {
    Conn::connect(addr, timeout)?.get(path)
}

/// One-shot `POST` on a fresh connection.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    Conn::connect(addr, timeout)?.post(path, body)
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
