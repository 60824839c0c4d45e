//! A zero-dependency HTTP/1.1 listener over [`TelescopeService`].
//!
//! `std::net::TcpListener` + a thread per connection with keep-alive:
//! no async runtime, no external crates, same discipline as
//! `iotscope-obs`'s exporters. Handlers only ever clone the current
//! snapshot `Arc`, so slow clients never block ingest. What peers can
//! make the server hold is bounded: at most [`MAX_CONNECTIONS`] live
//! connections (one more is answered `503`), each buffering at most 100
//! header lines of at most 8 KiB, which must all arrive within
//! [`READ_TIMEOUT`] of the request's first byte (or it is answered
//! `408`). A handler that panics answers `500` and closes its
//! connection; the counter `serve.handler_panics` counts them.

use crate::{error_body, TelescopeService};
use iotscope_obs::Counter;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Most connections served at once. The next one is answered `503`
/// with `Connection: close` on the accept thread, before its request is
/// read, and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent
/// error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long an idle keep-alive connection may sit between requests
/// before the handler thread gives up on it, and how long a request's
/// line and headers may take to arrive, counted from its first byte.
/// A request that runs out of it is answered `408` and closed, so a
/// peer trickling bytes cannot hold a connection slot for longer.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request or header line read, line terminator included; a
/// longer request line is answered `400`, a longer header `431`.
const MAX_LINE: u64 = 8 * 1024;

/// Most header lines one request may carry; one more is answered `431`.
const MAX_HEADERS: usize = 100;

/// One line read through [`read_line`].
enum Line {
    /// The peer closed the connection before sending anything.
    Closed,
    /// A line (or the peer's last, unterminated bytes) within
    /// [`MAX_LINE`].
    Read,
    /// [`MAX_LINE`] bytes and no line end.
    TooLong,
    /// The request ran past its [`Deadline`].
    TimedOut,
}

/// Read one line into `line` (cleared first), never buffering more than
/// [`MAX_LINE`] bytes of it.
fn read_line(reader: &mut BufReader<Deadline>, line: &mut String) -> io::Result<Line> {
    use io::ErrorKind::{TimedOut, WouldBlock};
    line.clear();
    let n = match reader.by_ref().take(MAX_LINE).read_line(line) {
        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return Ok(Line::TimedOut),
        n => n?,
    };
    Ok(if n == 0 {
        Line::Closed
    } else if n as u64 == MAX_LINE && !line.ends_with('\n') {
        Line::TooLong
    } else {
        Line::Read
    })
}

/// A connection's read half. While a request is being read, every read
/// waits only until that request's deadline; between requests, up to
/// [`READ_TIMEOUT`].
struct Deadline {
    stream: TcpStream,
    /// When the request being read runs out of time; `None` between
    /// requests.
    deadline: Option<Instant>,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            None => READ_TIMEOUT,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                left
            }
        };
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.read(buf)
    }
}

/// The socket under a connection's reader, to answer on.
fn socket(reader: &mut BufReader<Deadline>) -> &mut TcpStream {
    &mut reader.get_mut().stream
}

/// One live connection's place under [`MAX_CONNECTIONS`]; given back
/// when the handler ends, or when its thread could not be spawned.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The listener: an accept-loop thread spawning one handler thread per
/// connection, at most [`MAX_CONNECTIONS`] at once. Dropping (or
/// [`shutdown`](Self::shutdown)) stops the accept loop and refuses
/// further connections; in-flight handlers drain on their own read
/// timeouts.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission) and a refused
    /// accept thread.
    pub fn bind(addr: &str, service: Arc<TelescopeService>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let live = Arc::new(AtomicUsize::new(0));
        let accept = thread::Builder::new().spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::Acquire) {
                    break;
                }
                let mut stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => {
                        thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                // Only this thread takes slots, so the check cannot race.
                if live.load(Ordering::Acquire) >= MAX_CONNECTIONS {
                    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
                    let _ = refuse(&mut stream, 503, "too many connections");
                    continue;
                }
                live.fetch_add(1, Ordering::AcqRel);
                let slot = Slot(Arc::clone(&live));
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop_accept);
                // A refused spawn drops the closure, and with it the
                // connection and its slot.
                let _ = thread::Builder::new().spawn(move || {
                    let _slot = slot;
                    let _ = handle_connection(stream, &service, &stop);
                });
            }
        })?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one keep-alive connection until the peer closes, a request
/// times out, or the server stops.
fn handle_connection(
    stream: TcpStream,
    service: &TelescopeService,
    stop: &AtomicBool,
) -> io::Result<()> {
    serve_connection(
        stream,
        stop,
        &|path| service.respond(path),
        service.handler_panics(),
    )
}

/// [`handle_connection`] over any responder. A request whose responder
/// panics is answered `500` with `Connection: close`, counted in
/// `panics`, and ends the connection; the server and its other
/// connections carry on. Readers only ever load immutable snapshots, so
/// a panicking handler leaves nothing half-written behind.
fn serve_connection(
    stream: TcpStream,
    stop: &AtomicBool,
    respond: &dyn Fn(&str) -> (u16, String),
    panics: &Counter,
) -> io::Result<()> {
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(Deadline {
        stream,
        deadline: None,
    });
    let mut request_line = String::new();
    let mut header = String::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // Wait for the next request's first byte; its line and headers
        // then have until the deadline.
        if reader.fill_buf()?.is_empty() {
            return Ok(());
        }
        reader.get_mut().deadline = Some(Instant::now() + READ_TIMEOUT);
        match read_line(&mut reader, &mut request_line)? {
            Line::Closed => return Ok(()),
            Line::TooLong => return refuse(socket(&mut reader), 400, "request line too long"),
            Line::TimedOut => return refuse(socket(&mut reader), 408, "request timed out"),
            Line::Read => {}
        }
        let mut parts = request_line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), v) => (m.to_owned(), t.to_owned(), v.unwrap_or("").to_owned()),
            _ => return Ok(()), // malformed; drop the connection
        };
        // The request target may carry a query string; routing is on
        // the path alone.
        let path = target.split('?').next().unwrap_or(&target).to_owned();
        // Drain headers. Persistence defaults per protocol version —
        // HTTP/1.1 keeps alive, HTTP/1.0 (and anything unrecognized)
        // closes — and an explicit `Connection` header overrides either
        // way. No handler reads a body, so a request that declares one
        // is answered and the connection closed: left on the wire, the
        // body would be read as the next request.
        let mut keep_alive = version == "HTTP/1.1";
        let mut has_body = false;
        let mut headers = 0usize;
        loop {
            match read_line(&mut reader, &mut header)? {
                Line::Closed => return Ok(()),
                Line::TooLong => return refuse(socket(&mut reader), 431, "header line too long"),
                Line::TimedOut => return refuse(socket(&mut reader), 408, "request timed out"),
                Line::Read => {}
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            headers += 1;
            if headers > MAX_HEADERS {
                return refuse(socket(&mut reader), 431, "too many header lines");
            }
            let header = header.to_ascii_lowercase();
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            match (name, value.trim()) {
                ("connection", "close") => keep_alive = false,
                ("connection", "keep-alive") => keep_alive = true,
                ("content-length", length) => has_body |= length.parse::<u64>() != Ok(0),
                ("transfer-encoding", _) => has_body = true,
                _ => {}
            }
        }
        reader.get_mut().deadline = None;
        keep_alive &= !has_body;
        let answered = if method == "GET" {
            panic::catch_unwind(AssertUnwindSafe(|| respond(&path)))
        } else {
            Ok((405, error_body("only GET is served")))
        };
        let Ok((status, body)) = answered else {
            panics.inc();
            return refuse(socket(&mut reader), 500, "internal error");
        };
        write_response(socket(&mut reader), status, &body, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Answer `status` with an error body and close the connection.
fn refuse(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    write_response(stream, status, &error_body(message), false)
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_obs::Registry;

    /// A responder that panics on `/boom`: its request reads `500` with
    /// `Connection: close` and is counted, and the connection closes;
    /// a request before it on the same connection is answered as usual.
    #[test]
    fn a_panicking_handler_answers_500_and_is_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = Registry::new();
        let panics = registry.counter_variant("serve.handler_panics");
        let stop = AtomicBool::new(false);
        let respond = |path: &str| -> (u16, String) {
            assert_ne!(path, "/boom", "handler bug");
            (200, "{}".to_owned())
        };
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        thread::scope(|s| {
            let served = s.spawn(|| serve_connection(server, &stop, &respond, &panics));
            client
                .write_all(b"GET /ok HTTP/1.1\r\n\r\nGET /boom HTTP/1.1\r\n\r\n")
                .unwrap();
            let mut answer = String::new();
            client.read_to_string(&mut answer).unwrap();
            served.join().unwrap().unwrap();
            let (ok, boom) = answer.split_once("}").unwrap();
            assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
            assert!(ok.contains("Connection: keep-alive\r\n"), "{answer}");
            assert!(
                boom.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
                "{answer}"
            );
            assert!(boom.contains("Connection: close\r\n"), "{answer}");
            assert!(boom.ends_with("{\"error\":\"internal error\"}"), "{answer}");
        });
        assert_eq!(registry.snapshot().counter("serve.handler_panics"), Some(1));
    }
}
