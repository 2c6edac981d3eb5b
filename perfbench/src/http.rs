//! A keep-alive HTTP/1.1 client for one benchmark connection.
//!
//! Responses are delimited by their framing (`Content-Length` or chunked
//! transfer-encoding), never by reading to EOF: after the server answers
//! `Connection: close`, its disconnect watcher may hold a clone of the
//! socket for up to one poll, so waiting for EOF would time that poll
//! instead of the server. A close just drops the connection; the next
//! request reconnects and counts a reconnect.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    pub status: u16,
    /// The server closes the connection after this response.
    pub close: bool,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Client-side phase timestamps of one request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    /// Set when the request had to open a connection first.
    pub connected: Option<Instant>,
    pub sent: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    StatusLine,
    Header,
    Fixed(usize),
    ChunkSize,
    ChunkData(usize),
    ChunkEnd(usize),
    Trailer,
    Done,
}

const MAX_LINE: usize = 64 << 10;

/// Incremental response parser: feed it bytes as they arrive until
/// [`Framer::done`].
#[derive(Debug)]
pub struct Framer {
    state: State,
    line: Vec<u8>,
    content_length: Option<usize>,
    chunked: bool,
    response: Response,
}

impl Default for Framer {
    fn default() -> Self {
        Framer {
            state: State::StatusLine,
            line: Vec::new(),
            content_length: None,
            chunked: false,
            response: Response::default(),
        }
    }
}

impl Framer {
    pub fn done(&self) -> bool {
        self.state == State::Done
    }

    pub fn into_response(self) -> Response {
        self.response
    }

    /// Consume bytes from `data`; returns how many were used (fewer than
    /// `data.len()` only once the response is complete).
    pub fn feed(&mut self, data: &[u8]) -> Result<usize, String> {
        let mut i = 0;
        while i < data.len() && self.state != State::Done {
            match self.state {
                State::StatusLine | State::Header | State::ChunkSize | State::Trailer => {
                    match data[i..].iter().position(|&b| b == b'\n') {
                        None => {
                            self.line.extend_from_slice(&data[i..]);
                            i = data.len();
                            if self.line.len() > MAX_LINE {
                                return Err("response line too long".to_owned());
                            }
                        }
                        Some(k) => {
                            self.line.extend_from_slice(&data[i..i + k]);
                            i += k + 1;
                            let mut line = std::mem::take(&mut self.line);
                            if line.last() == Some(&b'\r') {
                                line.pop();
                            }
                            self.on_line(&String::from_utf8_lossy(&line))?;
                        }
                    }
                }
                State::Fixed(n) | State::ChunkData(n) => {
                    let take = n.min(data.len() - i);
                    self.response.body.extend_from_slice(&data[i..i + take]);
                    i += take;
                    let left = n - take;
                    self.state = match (self.state, left) {
                        (State::Fixed(_), 0) => State::Done,
                        (State::Fixed(_), _) => State::Fixed(left),
                        (_, 0) => State::ChunkEnd(2),
                        _ => State::ChunkData(left),
                    };
                }
                State::ChunkEnd(n) => {
                    let take = n.min(data.len() - i);
                    let expect = &b"\r\n"[2 - n..2 - n + take];
                    if &data[i..i + take] != expect {
                        return Err("chunk not terminated by CRLF".to_owned());
                    }
                    i += take;
                    self.state = if n == take {
                        State::ChunkSize
                    } else {
                        State::ChunkEnd(n - take)
                    };
                }
                State::Done => unreachable!("loop exits on Done"),
            }
        }
        Ok(i)
    }

    fn on_line(&mut self, line: &str) -> Result<(), String> {
        match self.state {
            State::StatusLine => {
                let mut parts = line.splitn(3, ' ');
                let version = parts.next().unwrap_or("");
                if !version.starts_with("HTTP/1.") {
                    return Err(format!("bad status line: {line:?}"));
                }
                self.response.status = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status code: {line:?}"))?;
                self.response.close = version == "HTTP/1.0";
                self.state = State::Header;
            }
            State::Header if line.is_empty() => {
                self.state = if self.chunked {
                    State::ChunkSize
                } else {
                    match self.content_length {
                        Some(0) => State::Done,
                        Some(n) => State::Fixed(n),
                        None => return Err("response has no length framing".to_owned()),
                    }
                };
            }
            State::Header => {
                let (name, value) = line
                    .split_once(':')
                    .ok_or_else(|| format!("bad header: {line:?}"))?;
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => {
                        self.content_length = Some(
                            value
                                .parse()
                                .map_err(|_| format!("bad Content-Length: {value:?}"))?,
                        )
                    }
                    "transfer-encoding" => {
                        self.chunked = value.to_ascii_lowercase().contains("chunked")
                    }
                    "connection" => {
                        self.response.close = value.eq_ignore_ascii_case("close");
                    }
                    _ => {}
                }
                self.response
                    .headers
                    .push((name.trim().to_owned(), value.to_owned()));
            }
            State::ChunkSize => {
                let hex = line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad chunk size: {line:?}"))?;
                self.state = if size == 0 {
                    State::Trailer
                } else {
                    State::ChunkData(size)
                };
            }
            State::Trailer => {
                if line.is_empty() {
                    self.state = State::Done;
                }
            }
            _ => unreachable!("lines are only read in line states"),
        }
        Ok(())
    }
}

/// One keep-alive connection's worth of client.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first (forced by a server close).
    pub reconnects: u64,
    opened: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: vec![0u8; 64 << 10],
            reconnects: 0,
            opened: 0,
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        if self.opened > 0 {
            self.reconnects += 1;
        }
        self.opened += 1;
        self.conn = Some(stream);
        Ok(())
    }

    /// Send one request and read its response. A request on a reused
    /// connection that the server had already closed (no response byte
    /// arrived) is retried once on a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(Response, Timing), String> {
        let start = Instant::now();
        let reused = self.conn.is_some();
        match self.attempt(start, method, path, body) {
            Err(Attempt::NothingReceived(_)) if reused => {
                self.conn = None;
                self.attempt(Instant::now(), method, path, body)
                    .map_err(Attempt::message)
            }
            other => other.map_err(Attempt::message),
        }
    }

    fn attempt(
        &mut self,
        start: Instant,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(Response, Timing), Attempt> {
        let connected = if self.conn.is_none() {
            self.connect().map_err(Attempt::Failed)?;
            Some(Instant::now())
        } else {
            None
        };
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        // the stream goes back into `self.conn` only if it stays usable
        let mut stream = self.conn.take().expect("connected above");
        if let Err(e) = stream.write_all(&request) {
            return Err(Attempt::NothingReceived(format!("write: {e}")));
        }
        let sent = Instant::now();
        let mut framer = Framer::default();
        let mut first_byte = None;
        let lost = |first_byte: Option<Instant>, msg: String| {
            if first_byte.is_none() {
                Attempt::NothingReceived(msg)
            } else {
                Attempt::Failed(msg)
            }
        };
        while !framer.done() {
            let n = stream
                .read(&mut self.buf)
                .map_err(|e| lost(first_byte, format!("read: {e}")))?;
            if n == 0 {
                return Err(lost(
                    first_byte,
                    "connection closed mid-response".to_owned(),
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            framer.feed(&self.buf[..n]).map_err(Attempt::Failed)?;
        }
        let last_byte = Instant::now();
        let response = framer.into_response();
        if !response.close {
            self.conn = Some(stream);
        }
        let timing = Timing {
            start,
            connected,
            sent,
            first_byte: first_byte.expect("a complete response has a first byte"),
            last_byte,
        };
        Ok((response, timing))
    }
}

enum Attempt {
    /// Failed before any response byte arrived.
    NothingReceived(String),
    Failed(String),
}

impl Attempt {
    fn message(self) -> String {
        match self {
            Attempt::NothingReceived(m) | Attempt::Failed(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8], step: usize) -> Result<(Response, usize), String> {
        let mut f = Framer::default();
        let mut used = 0;
        for piece in bytes.chunks(step) {
            used += f.feed(piece)?;
            if f.done() {
                break;
            }
        }
        if !f.done() {
            return Err("incomplete".to_owned());
        }
        Ok((f.into_response(), used))
    }

    #[test]
    fn content_length_framing_stops_at_the_body_end() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloEXTRA";
        for step in [1, 3, raw.len()] {
            let (r, used) = parse_all(raw, step).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, b"hello");
            assert!(!r.close);
            assert_eq!(used, raw.len() - "EXTRA".len());
            assert_eq!(
                r.headers[0],
                ("Content-Type".to_owned(), "text/plain".to_owned())
            );
        }
    }

    #[test]
    fn chunked_framing_reassembles_the_body() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n4\r\nWiki\r\n6;ext=1\r\npedia \r\nE\r\nin \r\n\r\nchunks.\r\n0\r\n\r\n";
        for step in [1, 2, 7, raw.len()] {
            let (r, used) = parse_all(raw, step).unwrap();
            assert_eq!(r.body, b"Wikipedia in \r\n\r\nchunks.");
            assert!(r.close);
            assert_eq!(used, raw.len());
        }
    }

    #[test]
    fn zero_length_and_error_statuses_parse() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\nRetry-After: 2\r\n\r\n";
        let (r, _) = parse_all(raw, 4).unwrap();
        assert_eq!(r.status, 503);
        assert!(r.close);
        assert!(r.body.is_empty());
        assert_eq!(
            r.headers.last(),
            Some(&("Retry-After".to_owned(), "2".to_owned()))
        );
    }

    #[test]
    fn malformed_framing_is_an_error() {
        assert!(
            parse_all(b"HTTP/1.1 200 OK\r\n\r\n", 100).is_err(),
            "no length framing"
        );
        assert!(parse_all(b"SPDY 200 OK\r\n\r\n", 100).is_err());
        assert!(parse_all(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n", 100).is_err());
        assert!(parse_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            100
        )
        .is_err());
        assert!(parse_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY0\r\n\r\n",
            100
        )
        .is_err());
    }

    #[test]
    fn http10_responses_close() {
        let (r, _) = parse_all(b"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx", 100).unwrap();
        assert!(r.close);
    }
}
