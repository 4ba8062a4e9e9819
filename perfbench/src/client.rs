//! The load generator's side of HTTP/1.1: raw request bytes out,
//! framed responses back. Kept apart from the server crate's own client
//! so a change to the program never changes how load is offered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a client waits for a response before counting a timeout.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The wire bytes of one `POST /v1/query` carrying `body`.
pub fn post_query(body: &str) -> Vec<u8> {
    let mut wire = format!(
        "POST /v1/query HTTP/1.1\r\nHost: cachekit\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// One response as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Response {
    pub status: u16,
    /// `X-Cache` header (`hit`, `miss`, `coalesced`).
    pub cache: String,
    /// `X-Service-Us` header: the server's own time for the request.
    pub service_us: u64,
    pub body: Vec<u8>,
}

/// A keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, stream),
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(wire)?;
        stream.flush()
    }

    /// Read one framed response.
    pub fn read(&mut self) -> std::io::Result<Response> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a response"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut resp = Response {
            status,
            ..Response::default()
        };
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head"));
            }
            let header = line.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                "x-cache" => resp.cache = value.to_owned(),
                "x-service-us" => resp.service_us = value.parse().unwrap_or(0),
                _ => {}
            }
        }
        resp.body = vec![0; length];
        self.reader.read_exact(&mut resp.body)?;
        Ok(resp)
    }
}
