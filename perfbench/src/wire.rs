//! Clients for the server's public wire: the line protocol (one form
//! out, one JSON line back) and the one-request-per-connection HTTP
//! endpoints (`/metrics`, `/stats`, `/ingest`). A failed request is a
//! value, never a panic: the generator counts it and carries on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits for one reply before counting a timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a request produced no usable reply.
#[derive(Debug)]
pub enum WireError {
    /// Connecting, sending or reading failed (refused, reset, timed out).
    Io(std::io::Error),
    /// The server answered `ok:false` (line protocol) or a non-200
    /// status (HTTP); the text is the reply.
    Refused(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Refused(r) => write!(f, "refused: {r:.300}"),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// A line-protocol connection bound to one tenant. After an I/O error
/// the next call reconnects (and rebinds the tenant) first.
pub struct LineClient {
    addr: SocketAddr,
    tenant: String,
    conn: Option<BufReader<TcpStream>>,
}

impl LineClient {
    pub fn new(addr: SocketAddr, tenant: &str) -> LineClient {
        LineClient {
            addr,
            tenant: tenant.to_owned(),
            conn: None,
        }
    }

    fn round_trip(conn: &mut BufReader<TcpStream>, form: &str) -> std::io::Result<String> {
        let stream = conn.get_mut();
        stream.write_all(form.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }

    fn ensure_connected(&mut self) -> Result<&mut BufReader<TcpStream>, WireError> {
        if self.conn.is_none() {
            let mut conn = BufReader::new(connect(self.addr)?);
            let reply = Self::round_trip(&mut conn, &format!("(tenant {})", self.tenant))?;
            if !is_ok(&reply) {
                return Err(WireError::Refused(reply));
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Send one form and return its `ok:true` reply line.
    pub fn call(&mut self, form: &str) -> Result<String, WireError> {
        let conn = self.ensure_connected()?;
        match Self::round_trip(conn, form) {
            Ok(line) if is_ok(&line) => Ok(line),
            Ok(line) => Err(WireError::Refused(line)),
            Err(e) => {
                self.conn = None;
                Err(WireError::Io(e))
            }
        }
    }
}

/// Whether a reply line is a success envelope.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// Send one HTTP request and return `(status, body)`. For a `POST`,
/// also returns the time from the first body byte sent to the reply
/// read in full.
pub fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, String, Duration), WireError> {
    let mut stream = connect(addr)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    let t = Instant::now();
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let elapsed = t.elapsed();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Refused(format!("malformed HTTP reply: {text:.200}")))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body, elapsed))
}

/// `GET` a path and return the body of a 200 reply.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, WireError> {
    match http(addr, "GET", path, b"")? {
        (200, body, _) => Ok(body),
        (status, body, _) => Err(WireError::Refused(format!("{status}: {body}"))),
    }
}
