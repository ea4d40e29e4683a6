//! Per-connection state for the event loop.
//!
//! A [`Conn`] owns one non-blocking socket plus its receive buffer and
//! (while responding) a [`ResponseWriter`]. Connections move through a
//! strict sequential state machine — `Reading → Dispatched → Writing →
//! Reading` — so pipelined requests on one socket are answered in order
//! (bytes for later requests simply wait in the buffer). Every body is
//! complete before its head is encoded, so each response is framed by
//! `content-length` and written straight from its shared `Arc` body:
//! serving a cached graph never copies it.

use crate::http::{encode_head, Response};
use cpgan_obs::Stopwatch;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// A complete request was handed to the worker queue; the poller
    /// ignores this socket until the completion arrives.
    Dispatched,
    /// A response is being written (possibly across many `POLLOUT`s).
    Writing,
}

/// One client connection owned by the event loop.
pub struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Bytes received but not yet consumed by the parser. Pipelined
    /// requests accumulate here and are drained one at a time.
    pub buf: Vec<u8>,
    /// State-machine position.
    pub state: ConnState,
    /// The in-flight response writer (`Writing` state).
    pub writer: Option<ResponseWriter>,
    /// Started when the first byte of the current request arrives;
    /// cleared after the response is fully written. Drives the
    /// per-request deadline (slow headers/bodies → `408`).
    pub request_sw: Option<Stopwatch>,
    /// Reset on every read/write; drives the idle keep-alive deadline.
    pub idle_sw: Stopwatch,
    /// Close after the current response finishes (client asked, error
    /// made framing unrecoverable, or the server is draining).
    pub close_after_write: bool,
    /// The peer half-closed its read side.
    pub eof: bool,
}

impl Conn {
    /// Wraps an accepted socket (already set non-blocking).
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            state: ConnState::Reading,
            writer: None,
            request_sw: None,
            idle_sw: Stopwatch::start(),
            close_after_write: false,
            eof: false,
        }
    }

    /// Drains everything currently readable into `buf` (until
    /// `WouldBlock`). Returns the number of bytes read; sets `eof` when
    /// the peer closed. `Err` means the connection is broken.
    pub fn read_available(&mut self) -> io::Result<usize> {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if self.request_sw.is_none() {
                        self.request_sw = Some(Stopwatch::start());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.idle_sw = Stopwatch::start();
        }
        Ok(total)
    }

    /// Begins writing `response`.
    pub fn begin_response(&mut self, response: Response) {
        // An error status makes request framing unrecoverable for
        // 400/408/413, and 429/503 answers are close-mode too: the
        // client should back off and reconnect.
        if response.status != 200 {
            self.close_after_write = true;
        }
        self.writer = Some(ResponseWriter::new(response, !self.close_after_write));
        self.state = ConnState::Writing;
    }

    /// Pushes pending response bytes to the socket. Returns `Ok(true)`
    /// when the response is complete (the caller rotates the state
    /// machine), `Ok(false)` when the socket is full (`WouldBlock` —
    /// wait for `POLLOUT`).
    pub fn write_pending(&mut self) -> io::Result<bool> {
        let Some(writer) = self.writer.as_mut() else {
            return Ok(true);
        };
        let done = writer.write_to(&mut self.stream)?;
        if done {
            self.writer = None;
            self.request_sw = None;
            self.idle_sw = Stopwatch::start();
            self.state = ConnState::Reading;
        }
        Ok(done)
    }
}

/// Incremental, non-blocking response serialization: the head is
/// rendered once, then the body is written from its shared buffer
/// without intermediate copies.
pub struct ResponseWriter {
    head: Vec<u8>,
    body: Arc<Vec<u8>>,
    /// Bytes written so far, head first, then body.
    written: usize,
    status: u16,
}

impl ResponseWriter {
    /// Prepares a writer for `response`, framed by `content-length`.
    pub fn new(response: Response, keep_alive: bool) -> ResponseWriter {
        ResponseWriter {
            head: encode_head(&response, keep_alive, false),
            body: response.body,
            written: 0,
            status: response.status,
        }
    }

    /// The response's status code (for logging/counters at completion).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Writes as much as the sink accepts. `Ok(true)` = response fully
    /// written; `Ok(false)` = sink is full (`WouldBlock`).
    pub fn write_to(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        loop {
            let pending = match self.head.get(self.written..) {
                Some(rest) if !rest.is_empty() => rest,
                _ => self
                    .body
                    .get(self.written - self.head.len()..)
                    .unwrap_or_default(),
            };
            if pending.is_empty() {
                return Ok(true);
            }
            match sink.write(pending) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_reply;

    fn body_of(len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn bodies_round_trip_with_content_length() {
        for len in [0, 5, 3 * 64 * 1024 + 17] {
            let body = body_of(len);
            let mut w = ResponseWriter::new(Response::shared(200, Arc::clone(&body)), true);
            let mut wire = Vec::new();
            assert!(w.write_to(&mut wire).unwrap());
            let head = String::from_utf8_lossy(&wire[..wire.len() - len]).into_owned();
            assert!(
                head.contains(&format!("content-length: {len}\r\n")),
                "{head}"
            );
            assert!(!head.contains("transfer-encoding"), "{head}");
            let (reply, used) = parse_reply(&wire).unwrap().unwrap();
            assert_eq!(reply.body, *body);
            assert_eq!(used, wire.len());
        }
    }

    /// A sink that accepts at most N bytes per write and interleaves
    /// WouldBlock, exercising every resume point in the writer.
    struct Trickle {
        out: Vec<u8>,
        budget: usize,
        starve: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = data.len().min(self.budget);
            self.out.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_and_wouldblock_resume_cleanly() {
        let body = body_of(64 * 1024 + 999);
        let mut w = ResponseWriter::new(Response::shared(200, Arc::clone(&body)), true);
        let mut sink = Trickle {
            out: Vec::new(),
            budget: 37,
            starve: false,
        };
        let mut rounds = 0;
        while !w.write_to(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 10_000, "writer failed to make progress");
        }
        let (reply, used) = parse_reply(&sink.out).unwrap().unwrap();
        assert_eq!(reply.body, *body);
        assert_eq!(used, sink.out.len());
        assert!(rounds > 1, "trickle sink must actually fragment writes");
    }

    #[test]
    fn conn_error_responses_force_close_mode() {
        // begin_response on a non-200 flips close_after_write, and the
        // encoded head advertises `connection: close`.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        drop(client);
        let mut conn = Conn::new(server_side);
        conn.begin_response(Response::json(400, "{}".to_string()));
        assert!(conn.close_after_write);
        assert_eq!(conn.state, ConnState::Writing);
        let head = &conn.writer.as_ref().unwrap().head;
        assert!(String::from_utf8_lossy(head).contains("connection: close\r\n"));
    }
}
