//! The open-loop load generator for `serve_live`.
//!
//! Each connection's whole schedule — Poisson due times and the path of
//! every request — is drawn from the seeded RNG *before* the window
//! opens, so nothing the daemon does can move a due time. A sender
//! thread per connection writes each request when it falls due without
//! waiting for earlier replies (HTTP/1.1 pipelining on a keep-alive
//! connection); a collector thread reads the replies back in order.
//! Latency runs from the time a request was **due**, so a stalled
//! daemon is charged for every request that queued behind the stall.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Request mix: `(weight, path)`; `{device}` and `{score}` draw an id
/// from the matching pool.
pub const MIX: [(u32, &str); 10] = [
    (20, "/summary"),
    (25, "/device/{device}"),
    (15, "/score/{score}"),
    (10, "/score/top"),
    (10, "/alerts"),
    (5, "/healthz"),
    (5, "/realms"),
    (4, "/countries"),
    (4, "/isps"),
    (2, "/metrics"),
];

/// Device ids known (from the probe lifetime) to answer 200 once ingest
/// is complete.
#[derive(Debug, Clone, Default)]
pub struct Pools {
    pub device: Vec<u32>,
    pub score: Vec<u32>,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Offset from the window start at which the request is due.
    pub due: Duration,
    pub path: String,
    /// A `/device/{id}` or `/score/{id}` request: 404 is the correct
    /// answer until the daemon has observed the device.
    pub by_id: bool,
}

/// The schedule of connection `conn`: Poisson arrivals at `rate`
/// requests per second over `window`, paths drawn from [`MIX`]. A pure
/// function of its arguments.
pub fn schedule(
    seed: u64,
    conn: usize,
    rate: f64,
    window: Duration,
    pools: &Pools,
) -> Vec<Planned> {
    assert!(rate > 0.0, "rate must be positive");
    assert!(
        !pools.device.is_empty() && !pools.score.is_empty(),
        "id pools must not be empty"
    );
    let mut rng =
        StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let total: u32 = MIX.iter().map(|(w, _)| w).sum();
    let mut plan = Vec::with_capacity((rate * window.as_secs_f64() * 1.1) as usize + 8);
    let mut at = 0.0f64;
    loop {
        // Exponential inter-arrival; 1-u is in (0, 1] so ln is finite.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= window.as_secs_f64() {
            return plan;
        }
        let mut pick = rng.gen_range(0..total);
        let template = MIX
            .iter()
            .find(|(w, _)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick is below the total weight")
            .1;
        let (path, by_id) = if template.ends_with("{device}") {
            let id = pools.device[rng.gen_range(0..pools.device.len())];
            (format!("/device/{id}"), true)
        } else if template.ends_with("{score}") {
            let id = pools.score[rng.gen_range(0..pools.score.len())];
            (format!("/score/{id}"), true)
        } else {
            (template.to_owned(), false)
        };
        plan.push(Planned {
            due: Duration::from_secs_f64(at),
            path,
            by_id,
        });
    }
}

/// What became of one scheduled request. Offsets are from the window
/// start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: Duration,
    /// When the request was fully written; `None` if the write failed or
    /// never happened.
    pub sent: Option<Duration>,
    /// When the full reply had been read, and its status.
    pub done: Option<(Duration, u16)>,
    pub by_id: bool,
}

impl Sample {
    /// Latency from the due time, if a reply arrived.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|(at, _)| at.saturating_sub(self.due))
    }
}

/// Drive every connection's plan against `addr`. The window opens once
/// all connections are up; its start is returned with the samples (in
/// plan order, connections concatenated). Replies are awaited for at
/// most `drain` past the end of `window`.
///
/// Setting `stop` cuts the schedule short: requests not yet due are
/// never attempted and have no sample. It moves no due time, so the load
/// up to the cut is the load an uncut window would have offered.
///
/// # Errors
///
/// Only connection set-up fails the drive; per-request failures are in
/// the samples.
pub fn drive(
    addr: SocketAddr,
    plans: &[Vec<Planned>],
    window: Duration,
    drain: Duration,
    stop: &AtomicBool,
) -> io::Result<(Instant, Vec<Sample>)> {
    let streams = plans
        .iter()
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let deadline = t0 + window + drain;
    let mut samples = Vec::with_capacity(plans.iter().map(Vec::len).sum());
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(&streams)
            .map(|(plan, stream)| {
                let sender = scope.spawn(move || send_all(stream, plan, t0, stop));
                let collector = scope.spawn(move || collect_all(stream, plan.len(), t0, deadline));
                (plan, sender, collector)
            })
            .collect();
        for (plan, sender, collector) in handles {
            let (sent, attempted) = sender.join().expect("sender thread does not panic");
            let done = collector.join().expect("collector thread does not panic");
            for (i, p) in plan[..attempted].iter().enumerate() {
                samples.push(Sample {
                    due: p.due,
                    sent: sent.get(i).copied(),
                    done: done.get(i).copied(),
                    by_id: p.by_id,
                });
            }
        }
    });
    Ok((t0, samples))
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Write each request at its due time. Returns the send times of the
/// requests written (a prefix of the plan if the connection broke) and
/// how many requests were attempted: the whole plan, or the part of it
/// that fell due before `stop` was set.
fn send_all(
    mut stream: &TcpStream,
    plan: &[Planned],
    t0: Instant,
    stop: &AtomicBool,
) -> (Vec<Duration>, usize) {
    let mut sent = Vec::with_capacity(plan.len());
    let mut attempted = plan.len();
    for (i, p) in plan.iter().enumerate() {
        let due = t0 + p.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            attempted = i;
            break;
        }
        let request = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", p.path);
        if stream.write_all(request.as_bytes()).is_err() {
            break;
        }
        sent.push(t0.elapsed());
    }
    // Nothing more will be asked: the daemon answers what is queued and
    // closes, which ends the collector without waiting for the deadline.
    let _ = stream.shutdown(Shutdown::Write);
    (sent, attempted)
}

/// Read up to `expect` replies in order; returns `(done, status)` for
/// the replies fully read before `deadline` (a prefix).
fn collect_all(
    stream: &TcpStream,
    expect: usize,
    t0: Instant,
    deadline: Instant,
) -> Vec<(Duration, u16)> {
    let mut reader = BufReader::new(stream);
    let mut body = Vec::new();
    let mut done = Vec::with_capacity(expect);
    while done.len() < expect {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match read_response(&mut reader, &mut body) {
            Ok(status) => done.push((t0.elapsed(), status)),
            Err(_) => break,
        }
    }
    done
}

/// Read one HTTP/1.1 response with a `Content-Length` body into `body`;
/// returns the status code.
pub fn read_response<R: BufRead>(reader: &mut R, body: &mut Vec<u8>) -> io::Result<u16> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    // The daemon is local and trusted, but a length is still a length
    // read from a socket.
    if content_length > 64 << 20 {
        return Err(bad("content-length over 64 MiB"));
    }
    body.resize(content_length, 0);
    reader.read_exact(body)?;
    Ok(status)
}

/// A closed-loop keep-alive client, for probes and output checks (never
/// for timed load).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// `GET path` → `(status, body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.reader.get_mut().write_all(request.as_bytes())?;
        let mut body = Vec::new();
        let status = read_response(&mut self.reader, &mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn pools() -> Pools {
        Pools {
            device: vec![3, 5, 8],
            score: vec![13, 21],
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_connection() {
        let w = Duration::from_secs(2);
        let a = schedule(7, 0, 400.0, w, &pools());
        assert_eq!(a, schedule(7, 0, 400.0, w, &pools()));
        assert_ne!(a, schedule(8, 0, 400.0, w, &pools()));
        assert_ne!(a, schedule(7, 1, 400.0, w, &pools()));
        // Poisson at 400/s over 2 s: 800 expected, sd ≈ 28.
        assert!((650..950).contains(&a.len()), "{} requests", a.len());
        assert!(a.windows(2).all(|p| p[0].due < p[1].due));
        assert!(a.iter().all(|p| p.due < w));
        // Every template of the mix is drawn, ids only from the pools.
        for (_, template) in MIX {
            let prefix = template.split('{').next().unwrap();
            assert!(a.iter().any(|p| p.path.starts_with(prefix)), "{template}");
        }
        for p in a.iter().filter(|p| p.by_id) {
            let id: u32 = p.path.rsplit('/').next().unwrap().parse().unwrap();
            let pool = if p.path.starts_with("/device/") {
                &pools().device
            } else {
                &pools().score
            };
            assert!(pool.contains(&id));
        }
    }

    /// The open-loop property: against a peer that accepts and reads but
    /// never replies, every request is still written at its due time.
    #[test]
    fn sender_never_waits_on_a_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            while conn.read(&mut buf).is_ok_and(|n| n > 0) {}
        });
        let window = Duration::from_millis(300);
        let plan = schedule(1, 0, 200.0, window, &pools());
        assert!(plan.len() > 20);
        let (_, samples) = drive(
            addr,
            std::slice::from_ref(&plan),
            window,
            Duration::from_millis(50),
            &AtomicBool::new(false),
        )
        .unwrap();
        assert_eq!(samples.len(), plan.len());
        for s in &samples {
            let sent = s.sent.expect("written although no reply ever came");
            assert!(sent >= s.due);
            assert!(
                sent - s.due < Duration::from_millis(100),
                "late by {:?}",
                sent - s.due
            );
            assert!(s.done.is_none());
        }
        sink.join().unwrap();
    }

    /// Accept one connection and answer every request on it: 404 to the
    /// third, 200 to the rest. Ends when the peer stops writing.
    fn reply_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&conn);
            let mut n = 0;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line == "\r\n" {
                    n += 1;
                    let (status, body) = if n == 3 {
                        (404, "{}")
                    } else {
                        (200, "{\"ok\":1}")
                    };
                    let reply = format!(
                        "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    (&conn).write_all(reply.as_bytes()).unwrap();
                }
            }
        })
    }

    #[test]
    fn pipelined_replies_match_requests_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = reply_server(listener);
        let window = Duration::from_millis(100);
        let plan = schedule(2, 0, 100.0, window, &pools());
        assert!(plan.len() >= 3);
        let (_, samples) = drive(
            addr,
            std::slice::from_ref(&plan),
            window,
            Duration::from_secs(2),
            &AtomicBool::new(false),
        )
        .unwrap();
        for (i, s) in samples.iter().enumerate() {
            let (done, status) = s.done.expect("answered");
            assert_eq!(status, if i == 2 { 404 } else { 200 });
            // (`sent` is stamped after the write returns, so a fast peer's
            // reply can be in before it; the due time is the fixed point.)
            assert!(s.sent.is_some());
            assert!(done >= s.due);
            assert_eq!(s.latency(), Some(done - s.due));
        }
        drop(samples);
        server.join().unwrap();
    }

    /// Setting `stop` ends the schedule at once — long before the window
    /// and the drain are over — and what was due before it is a prefix of
    /// the plan with its due times untouched, every request answered.
    #[test]
    fn stop_cuts_the_schedule_and_moves_no_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = reply_server(listener);
        let window = Duration::from_secs(20);
        let plan = schedule(3, 0, 200.0, window, &pools());
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let (_, samples) = std::thread::scope(|scope| {
            let load = scope.spawn(|| {
                drive(
                    addr,
                    std::slice::from_ref(&plan),
                    window,
                    Duration::from_secs(2),
                    &stop,
                )
            });
            std::thread::sleep(Duration::from_millis(200));
            stop.store(true, Ordering::Relaxed);
            load.join().unwrap().unwrap()
        });
        assert!(started.elapsed() < Duration::from_secs(5), "did not stop");
        assert!(samples.len() > 10 && samples.len() < plan.len() / 10);
        for (s, p) in samples.iter().zip(&plan) {
            assert_eq!(s.due, p.due);
            assert!(s.sent.is_some() && s.done.is_some());
        }
        server.join().unwrap();
    }
}
