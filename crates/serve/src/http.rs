//! A minimal HTTP/1.1 layer: exactly what the service needs, nothing
//! it does not.
//!
//! In the spirit of the workspace's vendored `Json`, this is a
//! dependency-free subset, not a general web server: `Content-Length`
//! framed bodies only (a `Transfer-Encoding` request gets `501`),
//! bounded head and body sizes (`431`/`413` on overflow), and
//! keep-alive per the HTTP/1.1 default.
//!
//! The server side is **incremental**: [`RequestDecoder`] accumulates
//! whatever bytes the socket had ready and yields complete requests as
//! they materialize, keeping partial parse state across readiness
//! events. That shape is what lets the reactor serve a connection
//! without a dedicated thread: a stalled client costs a few buffered
//! bytes, not a parked stack, and a pipelining client's burst decodes
//! into several requests from one readable event. The [`client`]
//! submodule implements the matching caller side for the load
//! generator and the integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request line plus headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body, bytes (a canonical query is < 1 KiB;
/// this leaves generous room without inviting memory abuse).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request head plus its fully-read body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/v1/query` (query strings are kept
    /// verbatim; the service routes on the full target).
    pub path: String,
    /// Header name/value pairs; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection must close after responding.
    pub close: bool,
}

impl HttpRequest {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a connection could not yield a request.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a request line arrived —
    /// the normal end of a keep-alive session.
    Closed,
    /// A socket error mid-request.
    Io(std::io::Error),
    /// The request was syntactically unusable; respond with the
    /// embedded status and close.
    Malformed {
        /// Status code to answer with (400, 413, 431, 501, 505).
        status: u16,
        /// Human-readable reason for the response body.
        message: String,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed { status, message } => write!(f, "{status}: {message}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn malformed(status: u16, message: impl Into<String>) -> HttpError {
    HttpError::Malformed {
        status,
        message: message.into(),
    }
}

/// An incremental request parser for one connection.
///
/// Feed it whatever the socket had ready ([`feed`](Self::feed)), then
/// pull complete requests ([`try_next`](Self::try_next)) until it
/// returns `Ok(None)` — partial heads and bodies stay buffered across
/// calls, so a slow or stalling client never corrupts the stream and a
/// pipelining client's burst yields several requests back to back.
/// The decoder enforces the same bounds the blocking parser did:
/// oversized heads are `431`, oversized bodies `413`, unsupported
/// framing `501`/`505`, and anything syntactically broken `400`.
#[derive(Debug, Default)]
pub struct RequestDecoder {
    buf: Vec<u8>,
    /// Bytes before `pos` belong to already-yielded requests.
    pos: usize,
    /// Head-terminator search resumes here (absolute index), so a
    /// byte-at-a-time client costs linear work, not quadratic.
    scanned: usize,
}

impl RequestDecoder {
    /// A decoder with nothing buffered.
    pub fn new() -> Self {
        RequestDecoder::default()
    }

    /// Append freshly-read socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a yielded request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a partially-delivered request is sitting in the buffer
    /// (drives the reactor's stall timeout).
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// What an end-of-stream means right now: a clean close between
    /// requests ([`HttpError::Closed`]) or a peer that hung up
    /// mid-request (`400`).
    pub fn on_eof(&self) -> HttpError {
        if self.buffered() == 0 {
            HttpError::Closed
        } else {
            malformed(400, "connection closed mid-request")
        }
    }

    /// Find the end of the head (the byte index just past the blank
    /// line), tolerating both `\r\n` and bare `\n` line endings.
    fn find_head_end(&mut self) -> Option<usize> {
        let buf = &self.buf;
        let mut i = self.scanned.max(self.pos);
        while i < buf.len() {
            if buf[i] == b'\n' {
                match (buf.get(i + 1), buf.get(i + 2)) {
                    (Some(b'\n'), _) => return Some(i + 2),
                    (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                    // The terminator may be straddling the feed
                    // boundary; re-scan from this newline next time.
                    (None, _) | (Some(b'\r'), None) => break,
                    _ => {}
                }
            }
            i += 1;
        }
        self.scanned = i;
        None
    }

    /// Yield the next complete request, `Ok(None)` if more bytes are
    /// needed, or a [`HttpError::Malformed`] refusal. After an error
    /// the stream position is unrecoverable — respond and close.
    pub fn try_next(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        if self.buffered() == 0 {
            self.buf.clear();
            self.pos = 0;
            self.scanned = 0;
            return Ok(None);
        }
        let Some(head_end) = self.find_head_end() else {
            if self.buffered() > MAX_HEAD_BYTES {
                return Err(malformed(431, "request head too large"));
            }
            return Ok(None);
        };
        if head_end - self.pos > MAX_HEAD_BYTES {
            return Err(malformed(431, "request head too large"));
        }
        let head = std::str::from_utf8(&self.buf[self.pos..head_end])
            .map_err(|_| malformed(400, "non-UTF-8 request head"))?;

        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(malformed(400, format!("bad request line {request_line:?}")));
        };
        if parts.next().is_some() {
            return Err(malformed(400, "bad request line"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(malformed(505, format!("unsupported version {version}"))),
        };

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(malformed(400, format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }

        let header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some() {
            return Err(malformed(501, "transfer-encoding is not supported"));
        }
        let content_length = match header("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| malformed(400, format!("bad content-length {v:?}")))?,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(malformed(413, "request body too large"));
        }
        if self.buf.len() < head_end + content_length {
            // Head parsed but the body is still in flight; keep the
            // bytes (and the scan position, which is ≤ the terminator)
            // and re-run cheaply when more data lands.
            return Ok(None);
        }

        let body = self.buf[head_end..head_end + content_length].to_vec();
        let connection = header("connection").map(str::to_ascii_lowercase);
        let close = match connection.as_deref() {
            Some("close") => true,
            Some("keep-alive") => false,
            _ => !http11, // HTTP/1.1 defaults to keep-alive, 1.0 to close
        };
        let method = method.to_owned();
        let path = path.to_owned();

        self.pos = head_end + content_length;
        self.scanned = self.pos;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.scanned = 0;
        } else if self.pos > 8 * 1024 {
            self.buf.drain(..self.pos);
            self.scanned -= self.pos;
            self.pos = 0;
        }

        Ok(Some(HttpRequest {
            method,
            path,
            headers,
            body,
            close,
        }))
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `429`, …).
    pub status: u16,
    /// Extra headers beyond the framing ones the writer adds.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response with the given status and body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            headers: vec![("Content-Type".to_owned(), "application/json".to_owned())],
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response with the given status and body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            headers: vec![("Content-Type".to_owned(), "text/plain".to_owned())],
            body: body.into().into_bytes(),
        }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
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

/// Serialize and send `response`, flushing the stream. `close` selects
/// the `Connection` header. (The reactor passes a `Vec<u8>` here to
/// build its outgoing buffer; writes to memory cannot fail.)
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &HttpResponse,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

/// The caller side: a keep-alive connection issuing requests in
/// sequence (used by the integration tests and the crate-level example).
pub mod client {
    use super::*;

    /// A response as seen by the client.
    #[derive(Debug, Clone)]
    pub struct ClientResponse {
        /// Status code.
        pub status: u16,
        /// Headers, names lower-cased.
        pub headers: Vec<(String, String)>,
        /// Body bytes (UTF-8 for every endpoint this service has).
        pub body: Vec<u8>,
    }

    impl ClientResponse {
        /// First value of header `name` (lower-case), if present.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// The body as UTF-8 (lossy).
        pub fn body_str(&self) -> String {
            String::from_utf8_lossy(&self.body).into_owned()
        }
    }

    /// A keep-alive HTTP/1.1 connection to one server address.
    #[derive(Debug)]
    pub struct Connection {
        reader: BufReader<TcpStream>,
    }

    impl Connection {
        /// Connect to `addr` (e.g. `"127.0.0.1:8459"`).
        pub fn open(addr: &str) -> std::io::Result<Connection> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            // Head and body go out as separate writes; without nodelay,
            // Nagle + delayed ACK cost ~40 ms per request.
            stream.set_nodelay(true)?;
            Ok(Connection {
                reader: BufReader::new(stream),
            })
        }

        /// Issue one request and read the full response. Extra
        /// `headers` are sent verbatim after the framing ones.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            headers: &[(&str, &str)],
            body: &[u8],
        ) -> std::io::Result<ClientResponse> {
            let mut head = format!(
                "{method} {path} HTTP/1.1\r\nHost: cachekit\r\nContent-Length: {}\r\n",
                body.len()
            );
            for (name, value) in headers {
                head.push_str(name);
                head.push_str(": ");
                head.push_str(value);
                head.push_str("\r\n");
            }
            head.push_str("\r\n");
            let stream = self.reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
            self.read_response()
        }

        /// Shorthand: `POST` a JSON body.
        pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
            self.request(
                "POST",
                path,
                &[("Content-Type", "application/json")],
                body.as_bytes(),
            )
        }

        /// Shorthand: `GET` with no body.
        pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
            self.request("GET", path, &[], &[])
        }

        /// `POST` several JSON bodies **pipelined**: all requests go
        /// out in one write, then the responses are read back in
        /// order — the HTTP/1.1 pipelining shape the reactor serves
        /// from a single readable event.
        pub fn post_json_pipelined(
            &mut self,
            path: &str,
            bodies: &[&str],
        ) -> std::io::Result<Vec<ClientResponse>> {
            let mut wire = Vec::new();
            for body in bodies {
                wire.extend_from_slice(
                    format!(
                        "POST {path} HTTP/1.1\r\nHost: cachekit\r\n\
                         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                );
                wire.extend_from_slice(body.as_bytes());
            }
            let stream = self.reader.get_mut();
            stream.write_all(&wire)?;
            stream.flush()?;
            bodies.iter().map(|_| self.read_response()).collect()
        }

        /// Read one framed response off the connection (public so
        /// pipelining callers can batch writes themselves).
        pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
            let bad =
                |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
            let mut status_line = String::new();
            if self.reader.read_line(&mut status_line)? == 0 {
                return Err(bad("server closed before responding"));
            }
            let mut parts = status_line.split_whitespace();
            let _version = parts.next().ok_or_else(|| bad("empty status line"))?;
            let status = parts
                .next()
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| bad("bad status code"))?;

            let mut headers = Vec::new();
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(bad("server closed mid-headers"));
                }
                let line = line.trim_end_matches(['\r', '\n']);
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    let value = value.trim().to_owned();
                    if name == "content-length" {
                        content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                    }
                    headers.push((name, value));
                }
            }
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
            Ok(ClientResponse {
                status,
                headers,
                body,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed the whole byte string at once and pull one request.
    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        let mut decoder = RequestDecoder::new();
        decoder.feed(raw.as_bytes());
        match decoder.try_next() {
            Ok(Some(req)) => Ok(req),
            Ok(None) => Err(decoder.on_eof()),
            Err(e) => Err(e),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn connection_close_and_http10_close() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.close);
    }

    #[test]
    fn refusals_carry_response_statuses() {
        let cases = [
            ("BROKEN\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            ("GET / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413),
            ("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        ];
        for (raw, expected) in cases {
            match parse(raw) {
                Err(HttpError::Malformed { status, .. }) => {
                    assert_eq!(status, expected, "request {raw:?}")
                }
                other => panic!("request {raw:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        let mut decoder = RequestDecoder::new();
        decoder.feed(b"GET / HT");
        assert!(matches!(decoder.try_next(), Ok(None)));
        assert!(matches!(
            decoder.on_eof(),
            HttpError::Malformed { status: 400, .. }
        ));
    }

    #[test]
    fn oversized_heads_are_refused() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        match parse(&raw) {
            Err(HttpError::Malformed { status, .. }) => assert_eq!(status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
        // A head that never terminates is refused as soon as it
        // overruns the budget, without waiting for more bytes.
        let mut decoder = RequestDecoder::new();
        decoder.feed(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        match decoder.try_next() {
            Err(HttpError::Malformed { status, .. }) => assert_eq!(status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_delivery_keeps_partial_state() {
        // The decoder equivalent of a stalling client: every readiness
        // event delivers one byte, and the parse must never reset.
        let raw = "POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let mut decoder = RequestDecoder::new();
        for (i, byte) in raw.bytes().enumerate() {
            decoder.feed(&[byte]);
            let parsed = decoder.try_next().expect("no refusal mid-delivery");
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "complete request before byte {i}");
                assert!(decoder.has_partial());
            } else {
                let req = parsed.expect("final byte completes the request");
                assert_eq!(req.method, "POST");
                assert_eq!(req.body, b"abcd");
            }
        }
        assert!(!decoder.has_partial());
    }

    #[test]
    fn pipelined_requests_decode_back_to_back() {
        let mut decoder = RequestDecoder::new();
        decoder.feed(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /healthz HTTP/1.1\r\n\r\n\
              POST /v1/query HTTP/1.1\r\nContent-Length: 3\r\n\r\nbye",
        );
        let first = decoder.try_next().unwrap().expect("first");
        assert_eq!(first.body, b"hi");
        let second = decoder.try_next().unwrap().expect("second");
        assert_eq!(second.path, "/healthz");
        let third = decoder.try_next().unwrap().expect("third");
        assert_eq!(third.body, b"bye");
        assert!(decoder.try_next().unwrap().is_none());
        assert!(!decoder.has_partial());
    }

    #[test]
    fn split_terminator_across_feeds_still_parses() {
        // The \r\n\r\n terminator straddles two reads.
        let mut decoder = RequestDecoder::new();
        decoder.feed(b"GET /healthz HTTP/1.1\r\nHost: x\r\n");
        assert!(decoder.try_next().unwrap().is_none());
        decoder.feed(b"\r");
        assert!(decoder.try_next().unwrap().is_none());
        decoder.feed(b"\n");
        let req = decoder.try_next().unwrap().expect("complete");
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn responses_round_trip_through_the_writer() {
        let response = HttpResponse::json(200, "{\"ok\":true}")
            .with_header("X-Cache", "hit")
            .with_header("Retry-After", "1");
        let mut wire = Vec::new();
        write_response(&mut wire, &response, false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "wire: {text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
