//! The daemon's epoch-snapshot contract, under concurrency and over
//! the wire.
//!
//! The epoch contract: while `TelescopeService::ingest` replays hours,
//! any reader at any moment loads a snapshot whose epoch `k` is
//! *exactly* the query state of the first `k` ingested hours — the
//! naive reference's analysis of that prefix, projected onto what the
//! endpoints read (`oracle::Served`), not merely consistent with one.
//! Readers never observe a torn or partially-ingested state, and
//! epochs only move forward; every endpoint at epoch `k` answers as a
//! service that ingested only those `k` hours. The HTTP listener must
//! round-trip the same snapshots over a real socket.

use iotscope_core::pipeline::{route_ahead, HourSource};
use iotscope_core::stream::StreamConfig;
use iotscope_core::QueryApi;
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig, SynthOutput};
use iotscope_devicedb::{DeviceDb, DeviceId};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::IntelContext;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{FlowStore, StoreOptions};
use iotscope_net::time::UnixHour;
use iotscope_net::NetError;
use iotscope_serve::http::{HttpServer, MAX_CONNECTIONS, READ_TIMEOUT};
use iotscope_serve::{Snapshot, TelescopeService, ENDPOINTS};
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive, Served};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

const WINDOW_HOURS: u32 = 8;

fn inventory() -> &'static SynthOutput {
    static INV: OnceLock<SynthOutput> = OnceLock::new();
    INV.get_or_init(|| InventoryBuilder::new(SynthConfig::small(9)).build())
}

/// Deterministic, cheap flow generator: proptest shrinks the
/// `(seed, n)` pair instead of thousands of tuples. Half the sources hit
/// the inventory so both the matched and unmatched paths run.
fn synth_flows(db: &DeviceDb, seed: u64, n: usize) -> Vec<FlowTuple> {
    let ips: Vec<std::net::Ipv4Addr> = db.iter().map(|d| d.ip).collect();
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    (0..n)
        .map(|_| {
            let src = if next() % 2 == 0 {
                ips[next() as usize % ips.len()]
            } else {
                std::net::Ipv4Addr::from(next() as u32)
            };
            let dst = std::net::Ipv4Addr::from(next() as u32);
            let flow = match next() % 4 {
                0 => FlowTuple::tcp(src, dst, 1024 + (next() % 60000) as u16, 23, TcpFlags::SYN),
                1 => FlowTuple::tcp(
                    src,
                    dst,
                    80,
                    1024 + (next() % 60000) as u16,
                    TcpFlags::SYN | TcpFlags::ACK,
                ),
                2 => FlowTuple::udp(src, dst, 1024 + (next() % 60000) as u16, 53),
                _ => FlowTuple::icmp(src, dst, IcmpType::EchoReply),
            };
            flow.with_packets(1 + (next() % 9) as u32)
        })
        .collect()
}

fn synth_traffic(db: &DeviceDb, seed: u64, num_hours: u32) -> Vec<HourTraffic> {
    (1..=num_hours)
        .map(|i| HourTraffic {
            interval: i,
            hour: UnixHour::new(700_000 + u64::from(i)),
            flows: synth_flows(db, seed ^ (u64::from(i) << 32), 600),
        })
        .collect()
}

/// The naive reference's analysis of the first `k` hours, projected
/// onto what a published epoch holds.
fn prefix_state(db: &DeviceDb, traffic: &[HourTraffic], k: usize) -> Served {
    oracle::analyze(db, WINDOW_HOURS, &traffic[..k]).served()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Readers hammering `snapshot()` while ingest replays hours only
    /// ever observe exact hour prefixes, in monotone epoch order.
    #[test]
    fn concurrent_readers_observe_exact_hour_prefixes(
        seed in any::<u64>(),
        num_hours in 2u32..=WINDOW_HOURS,
        readers in 1usize..=3,
    ) {
        let inv = inventory();
        let traffic = synth_traffic(&inv.db, seed, num_hours);
        let service = Arc::new(TelescopeService::new(
            inv.db.clone(),
            inv.isps.clone(),
            WINDOW_HOURS,
        ));
        let stop = AtomicBool::new(false);

        let observed: Vec<Vec<(u64, Arc<Snapshot>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let svc = Arc::clone(&service);
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut seen: Vec<(u64, Arc<Snapshot>)> = Vec::new();
                        while !stop.load(Ordering::Acquire) {
                            let snap = svc.snapshot();
                            if seen.last().is_none_or(|(e, _)| *e != snap.epoch) {
                                seen.push((snap.epoch, snap));
                            }
                            std::thread::yield_now();
                        }
                        seen
                    })
                })
                .collect();
            service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
            stop.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });

        // The settled state is the full window's.
        let last = service.snapshot();
        prop_assert_eq!(last.epoch, u64::from(num_hours));
        let full = prefix_state(&inv.db, &traffic, num_hours as usize);
        prop_assert_eq!(Served::from(&*last.analysis), full);

        // Every snapshot any reader caught mid-ingest — its device table
        // as published, in first-seen order — is the reference state of
        // its epoch's hour prefix.
        let mut references: BTreeMap<u64, Served> = BTreeMap::new();
        for seen in observed {
            for window in seen.windows(2) {
                prop_assert!(
                    window[0].0 < window[1].0,
                    "reader observed epochs out of order: {} then {}",
                    window[0].0,
                    window[1].0
                );
            }
            for (epoch, snap) in seen {
                prop_assert!(epoch <= u64::from(num_hours));
                let reference = references.entry(epoch).or_insert_with(|| {
                    prefix_state(&inv.db, &traffic, epoch as usize)
                });
                prop_assert_eq!(
                    &Served::from(&*snap.analysis),
                    &*reference,
                    "epoch {} snapshot is not the analysis of its first {} hours",
                    epoch,
                    epoch
                );
            }
        }
    }
}

/// A reader may hold a snapshot for as long as it likes: ten further
/// hours of ingest leave it exactly as published, the reference state
/// of its two hours, and its answers with it.
#[test]
fn a_held_snapshot_is_unchanged_by_later_hours() {
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 99, 12);
    let service = TelescopeService::new(inv.db.clone(), inv.isps.clone(), 12);
    service.ingest(&traffic[..2], StreamConfig::default(), &mut |_| {});
    let held = service.snapshot();
    let reference = oracle::analyze(&inv.db, 12, &traffic[..2]).served();
    assert_eq!(Served::from(&*held.analysis), reference);
    let countries = held.query(service.db(), service.isps()).countries();
    assert!(
        !countries.is_empty(),
        "the synthetic hours reach the inventory"
    );

    service.ingest(&traffic[2..], StreamConfig::default(), &mut |_| {});
    assert_eq!(service.snapshot().epoch, 12);
    assert_eq!(held.epoch, 2);
    assert_eq!(Served::from(&*held.analysis), reference);
    assert_eq!(
        held.query(service.db(), service.isps()).countries(),
        countries
    );
    assert_ne!(*held.analysis, *service.snapshot().analysis);
}

/// What a service answers on every endpoint, in `ENDPOINTS` order, but
/// `/metrics`: that one reports the process's own request counts and
/// wall times, which no two services share.
fn answers(service: &TelescopeService, device: DeviceId, score: DeviceId) -> Vec<(u16, String)> {
    ENDPOINTS
        .iter()
        .filter(|e| **e != "metrics")
        .map(|e| match *e {
            "device" => format!("/device/{}", device.0),
            "score" => format!("/score/{}", score.0),
            "score_top" => "/score/top".to_owned(),
            other => format!("/{other}"),
        })
        .map(|path| service.respond(&path))
        .collect()
}

/// Epoch `k` of a long-running service is what a service that ingested
/// only hours 1..=k serves: every endpoint answers byte-identically, at
/// every `k` of a short window, with intel attached so the score
/// endpoints answer from a table.
#[test]
fn every_endpoint_at_epoch_k_answers_as_a_service_fed_only_k_hours() {
    const HOURS: u32 = 6;
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 2024, HOURS);
    let observed: Vec<DeviceId> = oracle::analyze(&inv.db, HOURS, &traffic)
        .devices
        .into_keys()
        .collect();
    let synth = IntelBuilder::new(IntelSynthConfig::paper(2024)).build(&inv.db, &observed);
    // One device the intel flags; one the first hour observes.
    let score = synth.flagged_devices[0];
    let intel = IntelContext::from_synth(synth);
    let service =
        || TelescopeService::new(inv.db.clone(), inv.isps.clone(), HOURS).with_intel(intel.clone());
    let device = oracle::analyze(&inv.db, HOURS, &traffic[..1])
        .devices
        .into_keys()
        .next()
        .expect("hour 1 reaches the inventory");

    let long_running = service();
    let source = HourSource::Memory(&traffic);
    let mut at_epoch = Vec::new();
    let ingested = long_running.ingest_with(
        0..source.len(),
        StreamConfig::default(),
        &mut |_| {},
        |stream, k| {
            // Hour k + 1 is not pushed yet: epoch k is published.
            at_epoch.push(answers(&long_running, device, score));
            stream.push_from(&source, k)
        },
    );
    ingested.expect("memory hours");
    at_epoch.push(answers(&long_running, device, score));

    for (k, expected) in at_epoch.iter().enumerate() {
        let fresh = service();
        fresh.ingest(&traffic[..k], StreamConfig::default(), &mut |_| {});
        assert_eq!(fresh.snapshot().epoch, k as u64);
        assert_eq!(&answers(&fresh, device, score), expected, "epoch {k}");
    }
    let last = at_epoch.last().expect("the final epoch");
    assert!(
        last.iter().all(|(status, _)| *status == 200),
        "every endpoint answers 200 on the whole window: {last:?}"
    );
}

/// Ingest fed straight from a store, routed ahead as `serve` and
/// `watch` feed it (a router thread and the publisher), returns the
/// reference analysis, publishes its query state and raises the same
/// alerts as ingest fed from memory.
/// Two corrupt hours stop it at the first, whichever worker routed
/// either: the error names interval 5, the last published epoch is 4,
/// and the router thread has exited (`route_ahead` joins it before it
/// returns, so a router left waiting would hang the run past its
/// minute).
#[test]
fn store_fed_ingest_matches_memory_and_stops_at_a_corrupt_hour() {
    // Long enough for a corrupt hour at interval 9.
    const HOURS: u32 = 12;
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 1234, HOURS);
    let dir = std::env::temp_dir().join(format!("iotscope-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create store");
    for h in &traffic {
        store.write_hour(h.hour, &h.flows).expect("write hour");
    }
    let work: Vec<(u32, UnixHour)> = traffic.iter().map(|h| (h.interval, h.hour)).collect();
    // A fresh service fed the store through the routed feed, on its own
    // thread: the ingest result and the last published snapshot.
    let feed = || {
        let (store, work) = (store.clone(), work.clone());
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let service = TelescopeService::new(inv.db.clone(), inv.isps.clone(), HOURS);
            let source = HourSource::Store {
                store: &store,
                work: &work,
            };
            let ingested = route_ahead(service.db(), HOURS, source, |hours| {
                service.ingest_with(
                    hours,
                    StreamConfig::default(),
                    &mut |_| {},
                    |stream, hour| Ok::<_, NetError>(stream.push_routed(&hour?)),
                )
            });
            let _ = done.send((ingested, service.snapshot()));
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("ingest ends and its router thread exits within a minute")
    };

    let memory = TelescopeService::new(inv.db.clone(), inv.isps.clone(), HOURS);
    let (_, memory_alerts) = memory.ingest(&traffic, StreamConfig::default(), &mut |_| {});
    let reference = oracle::analyze(&inv.db, HOURS, &traffic);
    let (ingested, last) = feed();
    let (analysis, alerts) = ingested.expect("clean store");
    assert_eq!(Naive::from(&analysis), reference);
    assert_eq!(Served::from(&*last.analysis), reference.served());
    assert_eq!(alerts, memory_alerts);

    // Flip the last byte of hours 5 and 9: hours 1..=4 publish, nothing
    // after, on every run whichever worker reaches either hour first.
    for k in [4, 8] {
        let path = store.hour_path(traffic[k].hour);
        let mut bytes = std::fs::read(&path).expect("read hour file");
        *bytes.last_mut().expect("non-empty hour file") ^= 0xff;
        std::fs::write(&path, bytes).expect("rewrite hour file");
    }
    let named = format!("{} (interval 5): ", traffic[4].hour);
    let prefix = oracle::analyze(&inv.db, HOURS, &traffic[..4]).served();
    for _ in 0..8 {
        let (ingested, last) = feed();
        let err = ingested.expect_err("corrupt hour must fail ingest");
        assert!(err.is_checksum_mismatch(), "{err}");
        assert!(err.to_string().starts_with(&named), "{err}");
        assert_eq!(last.epoch, 4);
        assert_eq!(last.last_interval, Some(4));
        assert_eq!(Served::from(&*last.analysis), prefix);
    }
    std::fs::remove_dir_all(&dir).expect("remove store");
}

/// One GET over a real socket; returns `(status, body)`.
fn get(conn: &mut BufReader<TcpStream>, path: &str) -> (u16, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n\r\n");
    conn.get_mut().write_all(req.as_bytes()).expect("write");
    read_response(conn)
}

fn read_response(conn: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    conn.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        conn.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// The HTTP listener on an ephemeral port serves the same snapshot the
/// in-process API holds, across a keep-alive connection, with correct
/// error statuses.
#[test]
fn http_round_trip_on_ephemeral_port() {
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 4242, WINDOW_HOURS);
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
    let snap = service.snapshot();
    let api = snap.query(service.db(), service.isps());
    let summary = api.summary();

    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut conn = BufReader::new(stream);

    // Three requests over one keep-alive connection.
    let (status, body) = get(&mut conn, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = get(&mut conn, "/summary");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"epoch\":{}", summary.epoch)),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"devices\":{}", summary.devices)),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"total_packets\":{}", summary.total_packets)),
        "{body}"
    );

    let dev = snap.analysis.view().compromised()[0];
    let (status, body) = get(&mut conn, &format!("/device/{}", dev.0));
    assert_eq!(status, 200);
    assert!(body.contains("\"ip\":"), "{body}");

    // Error statuses over the same connection.
    let (status, _) = get(&mut conn, "/device/not-a-number");
    assert_eq!(status, 400);
    let (status, body) = get(&mut conn, "/no-such-endpoint");
    assert_eq!(status, 404);
    assert!(body.contains("error"), "{body}");

    // Non-GET methods are refused with 405.
    conn.get_mut()
        .write_all(b"POST /summary HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("write POST");
    let (status, _) = read_response(&mut conn);
    assert_eq!(status, 405);

    // A query string is routing noise: `/summary?probe=1` must hit the
    // `/summary` handler and return the identical body.
    let (plain_status, plain_body) = get(&mut conn, "/summary");
    let (status, body) = get(&mut conn, "/summary?probe=1&verbose=true");
    assert_eq!(status, 200);
    assert_eq!((status, body), (plain_status, plain_body));
}

/// HTTP/1.0 semantics: without a `Connection` header the server must
/// answer and then close (1.0 defaults to close, not keep-alive), while
/// an explicit `Connection: keep-alive` opts the connection back in.
#[test]
fn http_1_0_connection_defaults_per_protocol() {
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 777, 3);
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");

    // Bare HTTP/1.0 request: served, then the server closes promptly —
    // a 1.0 client that waits for EOF to delimit the response must not
    // hang until the 5 s idle timeout.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: test\r\n\r\n")
        .expect("write 1.0 GET");
    let (status, body) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let mut rest = Vec::new();
    match conn.read_to_end(&mut rest) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} trailing bytes after a 1.0 response"),
        Err(e) => panic!("server held a 1.0 connection open ({e})"),
    }

    // Explicit `Connection: keep-alive` overrides the 1.0 default: a
    // second request on the same connection still works.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    for _ in 0..2 {
        conn.get_mut()
            .write_all(b"GET /healthz HTTP/1.0\r\nHost: test\r\nConnection: keep-alive\r\n\r\n")
            .expect("write 1.0 keep-alive GET");
        let (status, _) = read_response(&mut conn);
        assert_eq!(status, 200);
    }
}

/// A request body is never read as a request: a `POST` declaring
/// `Content-Length: 5` followed by a pipelined `GET` gets one `405`,
/// with `Connection: close`, and then the end of the stream.
#[test]
fn http_request_with_a_body_closes_the_connection() {
    let inv = inventory();
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    stream
        .write_all(
            b"POST /summary HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\n\r\nhello\
              GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
        )
        .expect("write");
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .expect("the server closes the connection");
    assert_eq!(answer.matches("HTTP/1.1 ").count(), 1, "{answer}");
    assert!(answer.starts_with("HTTP/1.1 405 "), "{answer}");
    assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");
}

/// Send `request` on a fresh connection from a writer thread (the
/// server may stop reading and close mid-request), then read the
/// answer: `(status, closed afterwards)`.
fn oversized_request(server: &HttpServer, request: Vec<u8>) -> (u16, bool) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        // The server answers before it has read everything; a reset
        // mid-write is expected.
        let _ = writer.write_all(&request);
    });
    let mut conn = BufReader::new(stream);
    let (status, _) = read_response(&mut conn);
    // Closed: end of stream, or a reset for the unread request bytes.
    let closed = match conn.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    sender.join().expect("writer thread");
    (status, closed)
}

/// A peer cannot make a handler buffer without bound: a 1 MiB request
/// line is refused with 400 and a 101-header request with 431, each on
/// a closed connection, and the server keeps serving fresh ones.
#[test]
fn http_bounds_request_line_and_header_count() {
    let inv = inventory();
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");

    let mut long_line = b"GET /".to_vec();
    long_line.resize(1 << 20, b'a');
    long_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(oversized_request(&server, long_line), (400, true));

    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..101 {
        many_headers.extend_from_slice(format!("X-Filler-{i}: x\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    assert_eq!(oversized_request(&server, many_headers), (431, true));

    // One header fewer is still served.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut conn = BufReader::new(stream);
    let mut hundred = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..100 {
        hundred.extend_from_slice(format!("X-Filler-{i}: x\r\n").as_bytes());
    }
    hundred.extend_from_slice(b"\r\n");
    conn.get_mut().write_all(&hundred).expect("write");
    assert_eq!(read_response(&mut conn).0, 200);

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut conn = BufReader::new(stream);
    let (status, body) = get(&mut conn, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
}

/// A connection flood cannot stop the daemon accepting: with
/// `MAX_CONNECTIONS` connections held open the next one reads `503`
/// with `Connection: close`, and once one of them closes a fresh
/// connection is served again.
#[test]
fn http_connections_past_the_cap_get_503_until_one_closes() {
    let inv = inventory();
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");
    // Each held connection has been answered once, so a handler holds
    // its slot.
    let mut held: Vec<BufReader<TcpStream>> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut conn =
                BufReader::new(TcpStream::connect(server.local_addr()).expect("connect"));
            assert_eq!(get(&mut conn, "/healthz").0, 200);
            conn
        })
        .collect();

    // The refusal comes before the request is read: send nothing.
    let mut over = TcpStream::connect(server.local_addr()).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut answer = String::new();
    over.read_to_string(&mut answer)
        .expect("the server answers and closes");
    assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
    assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");

    // Closing one held connection frees its slot once its handler reads
    // the end of the stream; until then a new one may still read 503.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    let served = loop {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut answer = String::new();
        let sent = stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        if sent.is_ok() && stream.read_to_string(&mut answer).is_ok() {
            if answer.starts_with("HTTP/1.1 200 ") {
                break answer;
            }
            assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
        }
        assert!(Instant::now() < deadline, "no slot came free");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(served.contains("\"status\":\"ok\""), "{served}");
    // The connections still held are still served.
    assert_eq!(get(&mut held[0], "/healthz").0, 200);
}

/// Slow-loris: a request's line and headers must all arrive within
/// `READ_TIMEOUT` of its first byte. Clients holding every slot by
/// trickling one byte every 4 s are answered `408` and closed when it
/// runs out, so a fresh client is served within `READ_TIMEOUT` + 1 s.
#[test]
fn http_trickling_clients_cannot_hold_every_slot() {
    let inv = inventory();
    let service = Arc::new(TelescopeService::new(
        inv.db.clone(),
        inv.isps.clone(),
        WINDOW_HOURS,
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");
    let request = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    let mut tricklers: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
            conn.write_all(&request[..1]).expect("first byte");
            conn
        })
        .collect();
    // Every slot is held: the next connection reads 503.
    let mut over = TcpStream::connect(server.local_addr()).expect("connect");
    over.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut answer = String::new();
    over.read_to_string(&mut answer)
        .expect("the server answers and closes");
    assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
    let held = Instant::now();

    let mut watched = tricklers[0].try_clone().expect("clone stream");
    let stop = Arc::new(AtomicBool::new(false));
    let trickle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for &byte in &request[1..] {
                let next = Instant::now() + Duration::from_secs(4);
                while Instant::now() < next {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                for conn in &mut tricklers {
                    let _ = conn.write_all(&[byte]);
                }
            }
        })
    };
    let served = loop {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut answer = String::new();
        let sent = stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        if sent.is_ok() && stream.read_to_string(&mut answer).is_ok() {
            if answer.starts_with("HTTP/1.1 200 ") {
                break held.elapsed();
            }
            assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
        }
        assert!(
            held.elapsed() < 2 * READ_TIMEOUT,
            "trickling clients still hold every slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    stop.store(true, Ordering::Release);
    trickle.join().expect("trickle thread");
    assert!(
        served <= READ_TIMEOUT + Duration::from_secs(1),
        "a fresh client waited {served:?}"
    );
    // The trickler was answered 408 and closed.
    watched.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let mut answer = String::new();
    let _ = watched.read_to_string(&mut answer);
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
    assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");
}
