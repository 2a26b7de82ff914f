//! A deliberately small HTTP/1.1 implementation: incremental request
//! parsing with hard budgets, and response serialization.
//!
//! The parser's contract is the one the fuzz tests assert: **any** byte
//! stream — malformed request lines, oversized headers, truncated bodies,
//! bytes arriving one at a time — produces either a well-formed
//! [`Request`] or a typed [`HttpError`]; it never panics and never reads
//! more than its configured budgets.

use std::io::{self, Read, Write};

/// Hard budgets on a single request. Both the header block and the body
/// are bounded so one client cannot balloon server memory.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (including the blank line).
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length` above this is
    /// rejected before any body byte is read).
    pub max_body_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_head_bytes: 16 * 1024, max_body_bytes: 1024 * 1024, max_headers: 64 }
    }
}

/// Typed request-parsing failure. [`HttpError::status`] maps each variant
/// to the response the connection handler writes before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Clean EOF before the first byte of a request — the peer ended a
    /// keep-alive session; not an error to report.
    ConnectionClosed,
    /// EOF in the middle of a request head or declared body.
    Truncated,
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// An HTTP version this server does not speak.
    UnsupportedVersion,
    /// A header line without a colon, an empty name, or control bytes.
    BadHeader,
    /// The header block exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// More than [`Limits::max_headers`] header fields.
    TooManyHeaders,
    /// `Content-Length` was present but unparsable (or conflicting).
    BadContentLength,
    /// The declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// `Transfer-Encoding` the server does not implement (e.g. chunked).
    UnsupportedTransferEncoding,
    /// An I/O error (read timeouts surface here as `TimedOut`/`WouldBlock`).
    Io(io::ErrorKind),
}

impl HttpError {
    /// The HTTP status to answer with, or `None` when no response should
    /// be written (peer already gone).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::ConnectionClosed | HttpError::Truncated | HttpError::Io(_) => None,
            HttpError::BadRequestLine | HttpError::BadHeader | HttpError::BadContentLength => {
                Some(400)
            }
            HttpError::UnsupportedVersion => Some(505),
            HttpError::HeadTooLarge | HttpError::TooManyHeaders => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::UnsupportedTransferEncoding => Some(501),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Truncated => write!(f, "truncated request"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::TooManyHeaders => write!(f, "too many headers"),
            HttpError::BadContentLength => write!(f, "bad Content-Length"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "unsupported transfer encoding")
            }
            HttpError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Header fields in order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Query parameter parsed as `T`, or `default` when absent/unparsable.
    pub fn param_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.param(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// True when the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Incremental request reader over any byte stream. Owns the carry-over
/// buffer, so pipelined requests and arbitrary read fragmentation (one
/// byte per `read` call in the tests) parse identically to a single
/// contiguous buffer.
pub struct RequestReader<R> {
    inner: R,
    buf: Vec<u8>,
    limits: Limits,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R, limits: Limits) -> RequestReader<R> {
        RequestReader { inner, buf: Vec::new(), limits }
    }

    /// Read and parse the next request.
    pub fn next_request(&mut self) -> Result<Request, HttpError> {
        let head_end = self.fill_until_head_end()?;
        // Split off the head; keep everything after it buffered.
        let rest = self.buf.split_off(head_end.total);
        let head = std::mem::replace(&mut self.buf, rest);
        let head_bytes = head.get(..head_end.head).ok_or(HttpError::BadHeader)?;
        let head_text = std::str::from_utf8(head_bytes).map_err(|_| HttpError::BadHeader)?;
        let mut parsed = parse_head(head_text, &self.limits)?;
        let body_len = content_length(&parsed)?;
        if body_len > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        parsed.body = self.fill_body(body_len)?;
        Ok(parsed)
    }

    /// Grow the buffer until it contains a full header block; returns the
    /// length of the head proper and of head + terminator.
    fn fill_until_head_end(&mut self) -> Result<HeadEnd, HttpError> {
        let mut scanned = 0;
        loop {
            if let Some(end) = find_head_end(&self.buf, scanned) {
                return Ok(end);
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() >= self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            let before = self.buf.len();
            self.read_some()?;
            if self.buf.len() == before {
                return if before == 0 {
                    Err(HttpError::ConnectionClosed)
                } else {
                    Err(HttpError::Truncated)
                };
            }
        }
    }

    fn fill_body(&mut self, body_len: usize) -> Result<Vec<u8>, HttpError> {
        while self.buf.len() < body_len {
            let before = self.buf.len();
            self.read_some()?;
            if self.buf.len() == before {
                return Err(HttpError::Truncated);
            }
        }
        let rest = self.buf.split_off(body_len);
        Ok(std::mem::replace(&mut self.buf, rest))
    }

    fn read_some(&mut self) -> Result<(), HttpError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    // A broken Read impl may report n > chunk.len(); treat it
                    // as a protocol error instead of panicking the worker.
                    let filled = chunk.get(..n).ok_or(HttpError::Io(io::ErrorKind::InvalidData))?;
                    self.buf.extend_from_slice(filled);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::Io(e.kind())),
            }
        }
    }
}

struct HeadEnd {
    /// Bytes of request line + headers (terminator excluded).
    head: usize,
    /// Bytes up to and including the blank-line terminator.
    total: usize,
}

/// Find the end of the header block: `\r\n\r\n`, or a bare `\n\n` (the
/// parser is lenient about line endings, like most real servers).
fn find_head_end(buf: &[u8], from: usize) -> Option<HeadEnd> {
    let start = from.min(buf.len());
    for i in start..buf.len() {
        if buf.get(i) == Some(&b'\n') {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(HeadEnd { head: i + 1, total: i + 2 });
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(HeadEnd { head: i + 1, total: i + 3 });
            }
        }
    }
    None
}

fn parse_head(head: &str, limits: &Limits) -> Result<Request, HttpError> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequestLine);
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion);
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminator's empty line
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty()
            || name.bytes().any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
            || value.bytes().any(|b| b.is_ascii_control() && b != b'\t')
        {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw);
    let query = query_raw.map(parse_query_string).unwrap_or_default();

    Ok(Request { method: method.to_owned(), path, query, headers, body: Vec::new() })
}

fn content_length(req: &Request) -> Result<usize, HttpError> {
    if req.header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let mut lengths = req.headers.iter().filter(|(n, _)| n == "content-length");
    let Some((_, first)) = lengths.next() else {
        return Ok(0);
    };
    if lengths.next().is_some() {
        return Err(HttpError::BadContentLength); // request-smuggling guard
    }
    first.parse::<usize>().map_err(|_| HttpError::BadContentLength)
}

fn parse_query_string(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Capacity hint ceiling for [`percent_decode`]: the output is never
/// longer than the input, but the pre-allocation itself must not be
/// sized by an unclamped request-derived length.
const DECODE_CAPACITY_CLAMP: usize = 8 * 1024;

/// Percent-decode (`%41` → `A`, `+` → space). Invalid escapes pass
/// through literally — decoding never fails.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len().min(DECODE_CAPACITY_CLAMP));
    // A hex digit as its nibble value; `None` for non-hex or end of input.
    let nibble = |b: Option<&u8>| {
        b.and_then(|&b| (b as char).to_digit(16)).and_then(|d| u8::try_from(d).ok())
    };
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => match (nibble(bytes.get(i + 1)), nibble(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Retry-After`, …).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn status(status: u16) -> Response {
        Response { status, headers: Vec::new(), body: Vec::new() }
    }

    /// A response with a body and content type.
    pub fn with_body(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response::status(status).header("Content-Type", content_type).body_bytes(body.into())
    }

    /// JSON body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::with_body(status, "application/json", body)
    }

    /// Plain-text body.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::with_body(status, "text/plain; charset=utf-8", body)
    }

    /// A backpressure response: JSON body plus the `Retry-After` header.
    /// The single constructor behind every `429`/`503` the server emits
    /// (ingest-queue-full and acceptor load shedding), so neither path
    /// can forget the header the other relies on.
    pub fn retry_later_json(
        status: u16,
        body: impl Into<Vec<u8>>,
        retry_after_secs: u32,
    ) -> Response {
        Response::json(status, body).header("Retry-After", &retry_after_secs.to_string())
    }

    /// Add a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Set the body.
    pub fn body_bytes(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Serialize to the wire. `keep_alive` controls the `Connection`
    /// header; `Content-Length` is always explicit.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = String::with_capacity(128);
        use std::fmt::Write as _;
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, status_reason(self.status));
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        let _ =
            write!(head, "Connection: {}\r\n\r\n", if keep_alive { "keep-alive" } else { "close" });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        RequestReader::new(bytes, Limits::default()).next_request()
    }

    #[test]
    fn parses_a_get() {
        let req = parse(b"GET /cohort.svg?w=800&h=400 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/cohort.svg");
        assert_eq!(req.param("w"), Some("800"));
        assert_eq!(req.param_or("h", 0.0f64), 400.0);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn retry_later_carries_the_header_for_both_backpressure_statuses() {
        for status in [429u16, 503] {
            let resp = Response::retry_later_json(status, "{\"error\":\"busy\"}", 7);
            assert_eq!(resp.status, status);
            assert!(
                resp.headers.iter().any(|(n, v)| n == "Retry-After" && v == "7"),
                "{:?}",
                resp.headers
            );
            assert!(resp
                .headers
                .iter()
                .any(|(n, v)| n == "Content-Type" && v == "application/json"));
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /select HTTP/1.1\r\nContent-Length: 8\r\n\r\nhas(T90)").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str(), "has(T90)");
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let bytes: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(bytes, Limits::default());
        assert_eq!(reader.next_request().unwrap().path, "/a");
        let second = reader.next_request().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert_eq!(reader.next_request().unwrap().path, "/c");
        assert_eq!(reader.next_request(), Err(HttpError::ConnectionClosed));
    }

    #[test]
    fn one_byte_reads_parse_identically() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let bytes = b"POST /select HTTP/1.1\r\nContent-Length: 8\r\n\r\nhas(T90)";
        let whole = parse(bytes).unwrap();
        let trickled =
            RequestReader::new(OneByte(bytes), Limits::default()).next_request().unwrap();
        assert_eq!(whole, trickled);
    }

    #[test]
    fn malformed_request_lines_are_typed_errors() {
        assert_eq!(parse(b"\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"GET\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"GET /a HTTP/1.1 junk\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"get /a HTTP/1.1\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"GET a HTTP/1.1\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"GET /a HTTP/2\r\n\r\n"), Err(HttpError::UnsupportedVersion));
    }

    #[test]
    fn header_budgets_are_enforced() {
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', 20 * 1024));
        assert_eq!(parse(&big), Err(HttpError::HeadTooLarge));

        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse(&many), Err(HttpError::TooManyHeaders));

        assert_eq!(parse(b"GET / HTTP/1.1\r\nno-colon\r\n\r\n"), Err(HttpError::BadHeader));
        assert_eq!(parse(b"GET / HTTP/1.1\r\n: empty\r\n\r\n"), Err(HttpError::BadHeader));
    }

    #[test]
    fn body_budgets_are_enforced_before_reading() {
        // Declared length over budget: rejected even though no body bytes
        // follow — the server never tries to buffer it.
        let req = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(parse(req), Err(HttpError::BodyTooLarge));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding)
        );
    }

    #[test]
    fn truncation_is_typed() {
        assert_eq!(parse(b"GET / HTTP/1.1\r\nHost: x"), Err(HttpError::Truncated));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Truncated)
        );
        assert_eq!(parse(b""), Err(HttpError::ConnectionClosed));
    }

    /// The reader's buffer grows by what one read brings, never by what a
    /// request declares or by what the client keeps sending: a head that
    /// declares the whole body budget and then sends ten bytes, and a
    /// ten-byte body trailed by 256 KiB more, both leave a small buffer.
    #[test]
    fn request_bytes_do_not_size_the_buffer() {
        let limits = Limits::default();
        let head = |len: usize| format!("POST /ingest HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let mut short = head(limits.max_body_bytes).into_bytes();
        short.extend_from_slice(b"0123456789");
        let mut reader = RequestReader::new(&short[..], limits);
        assert_eq!(reader.next_request(), Err(HttpError::Truncated));
        let capacity = reader.buf.capacity();
        assert!(capacity < 64 * 1024, "{capacity} bytes buffered for a declared body");

        let mut long = head(10).into_bytes();
        long.extend_from_slice(&[b'x'; 10 + 256 * 1024]);
        let mut reader = RequestReader::new(&long[..], limits);
        assert_eq!(reader.next_request().map(|r| r.body.len()), Ok(10));
        let capacity = reader.buf.capacity();
        assert!(capacity < 64 * 1024, "{capacity} bytes buffered past a 10-byte body");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%E2%9C%93"), "\u{2713}");
        assert_eq!(percent_decode("100%"), "100%", "invalid escape passes through");
        let req = parse(b"GET /x?q=has%28T90%29 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.param("q"), Some("has(T90)"));
    }

    #[test]
    fn responses_serialize_with_explicit_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        Response::status(503).header("Retry-After", "2").write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!req.wants_close());
    }
}
