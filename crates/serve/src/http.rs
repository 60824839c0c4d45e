//! A zero-dependency HTTP/1.1 listener over [`TelescopeService`].
//!
//! `std::net::TcpListener` + a thread per connection with keep-alive:
//! no async runtime, no external crates, same discipline as
//! `iotscope-obs`'s exporters. Handlers only ever clone the current
//! snapshot `Arc`, so slow clients never block ingest. What a peer can
//! make a handler buffer is bounded: at most 100 header lines of at
//! most 8 KiB each.

use crate::{error_body, TelescopeService};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle keep-alive connection may sit between requests
/// before the handler thread gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

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
}

/// Read one line into `line` (cleared first), never buffering more than
/// [`MAX_LINE`] bytes of it.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<Line> {
    line.clear();
    let n = reader.by_ref().take(MAX_LINE).read_line(line)?;
    Ok(if n == 0 {
        Line::Closed
    } else if n as u64 == MAX_LINE && !line.ends_with('\n') {
        Line::TooLong
    } else {
        Line::Read
    })
}

/// The listener: an accept-loop thread spawning one handler thread per
/// connection. Dropping (or [`shutdown`](Self::shutdown)) stops the
/// accept loop and refuses further connections; in-flight handlers
/// drain on their own read timeouts.
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
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: &str, service: Arc<TelescopeService>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop_accept);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &stop);
                });
            }
        });
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
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    let mut header = String::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match read_line(&mut reader, &mut request_line)? {
            Line::Closed => return Ok(()),
            Line::TooLong => return refuse(reader.get_mut(), 400, "request line too long"),
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
                Line::TooLong => return refuse(reader.get_mut(), 431, "header line too long"),
                Line::Read => {}
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            headers += 1;
            if headers > MAX_HEADERS {
                return refuse(reader.get_mut(), 431, "too many header lines");
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
        keep_alive &= !has_body;
        let (status, body) = if method == "GET" {
            service.respond(&path)
        } else {
            (405, error_body("only GET is served"))
        };
        write_response(reader.get_mut(), status, &body, keep_alive)?;
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
        431 => "Request Header Fields Too Large",
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
