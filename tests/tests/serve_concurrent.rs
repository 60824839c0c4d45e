//! The daemon's epoch-snapshot contract, under concurrency and over
//! the wire.
//!
//! The PR-7 contract: while `TelescopeService::ingest` replays hours,
//! any reader at any moment loads a snapshot whose epoch `k` is
//! *exactly* the analysis of the first `k` ingested hours — equal to a
//! from-scratch batch run over that prefix, not merely consistent with
//! one. Readers never observe a torn or partially-ingested state, and
//! epochs only move forward. The HTTP listener must round-trip the
//! same snapshots over a real socket.

use iotscope_core::stream::StreamConfig;
use iotscope_core::{udp, Analysis, Analyzer, QueryApi};
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig, SynthOutput};
use iotscope_devicedb::DeviceDb;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ServiceRegistry;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{FlowStore, StoreOptions};
use iotscope_net::time::UnixHour;
use iotscope_serve::http::HttpServer;
use iotscope_serve::{Snapshot, TelescopeService};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

const WINDOW_HOURS: u32 = 8;

fn inventory() -> &'static SynthOutput {
    static INV: OnceLock<SynthOutput> = OnceLock::new();
    INV.get_or_init(|| InventoryBuilder::new(SynthConfig::small(9)).build())
}

/// Deterministic, cheap flow generator (same idiom as
/// `fused_streaming`): proptest shrinks the `(seed, n)` pair instead of
/// thousands of tuples. Half the sources hit the inventory so both the
/// matched and unmatched paths run.
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

/// Batch reference: a from-scratch analysis of the first `k` hours.
fn prefix_analysis(db: &DeviceDb, traffic: &[HourTraffic], k: usize) -> Analysis {
    let mut an = Analyzer::new(db, WINDOW_HOURS);
    for h in &traffic[..k] {
        an.ingest_hour(h);
    }
    an.finish()
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

        // The settled state is the full window's batch analysis.
        let last = service.snapshot();
        prop_assert_eq!(last.epoch, u64::from(num_hours));
        prop_assert_eq!(last.hours_ingested, num_hours);
        let full = prefix_analysis(&inv.db, &traffic, num_hours as usize);
        prop_assert_eq!(&*last.analysis, &full);

        // Every snapshot any reader caught mid-ingest is bit-identical
        // (up to device-row order, which Analysis equality ignores) to
        // the batch analysis of its epoch's hour prefix.
        let mut references: BTreeMap<u64, Analysis> = BTreeMap::new();
        let services = ServiceRegistry::standard();
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
                prop_assert_eq!(u64::from(snap.hours_ingested), epoch);
                let reference = references.entry(epoch).or_insert_with(|| {
                    prefix_analysis(&inv.db, &traffic, epoch as usize)
                });
                prop_assert_eq!(
                    &*snap.analysis,
                    &*reference,
                    "epoch {} snapshot is not the analysis of its first {} hours",
                    epoch,
                    epoch
                );
                // Table IV read off the published (un-normalized) port
                // table is the batch prefix's Table IV.
                prop_assert_eq!(
                    udp::top_ports(&snap.analysis, &services, 10),
                    udp::top_ports(reference, &services, 10)
                );
            }
        }
    }
}

/// A reader may hold a snapshot for as long as it likes: ten further
/// hours of ingest leave it exactly as published.
#[test]
fn a_held_snapshot_is_unchanged_by_later_hours() {
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 99, 12);
    let service = TelescopeService::new(inv.db.clone(), inv.isps.clone(), 12);
    service.ingest(&traffic[..2], StreamConfig::default(), &mut |_| {});
    let held = service.snapshot();
    let as_published = (*held.analysis).clone();
    let services = ServiceRegistry::standard();
    let table_iv = udp::top_ports(&held.analysis, &services, 10);
    assert!(!table_iv.is_empty(), "the synthetic hours carry UDP");

    service.ingest(&traffic[2..], StreamConfig::default(), &mut |_| {});
    assert_eq!(service.snapshot().epoch, 12);
    assert_eq!(held.epoch, 2);
    assert_eq!(*held.analysis, as_published);
    assert_eq!(udp::top_ports(&held.analysis, &services, 10), table_iv);
    assert_ne!(*held.analysis, *service.snapshot().analysis);
}

/// Ingest fed straight from a store publishes the same epochs as ingest
/// fed from memory, and a corrupt hour stops it: the error comes back,
/// and the last published epoch is the hour before.
#[test]
fn store_fed_ingest_matches_memory_and_stops_at_a_corrupt_hour() {
    let inv = inventory();
    let traffic = synth_traffic(&inv.db, 1234, WINDOW_HOURS);
    let dir = std::env::temp_dir().join(format!("iotscope-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create store");
    for h in &traffic {
        store.write_hour(h.hour, &h.flows).expect("write hour");
    }
    let hours: Vec<(u32, UnixHour)> = traffic.iter().map(|h| (h.interval, h.hour)).collect();
    let new_service = || TelescopeService::new(inv.db.clone(), inv.isps.clone(), WINDOW_HOURS);
    let feed = |service: &TelescopeService| {
        service.ingest_with(
            &hours,
            StreamConfig::default(),
            &mut |_| {},
            |stream, &(interval, hour)| stream.push_store_hour(&store, interval, hour),
        )
    };

    let from_memory = new_service();
    let expected = from_memory.ingest(&traffic, StreamConfig::default(), &mut |_| {});
    let from_store = new_service();
    assert_eq!(feed(&from_store).expect("clean store"), expected);
    assert_eq!(
        *from_store.snapshot().analysis,
        *from_memory.snapshot().analysis
    );

    // Flip the last byte of hour 5: hours 1..=4 publish, nothing after.
    let path = store.hour_path(traffic[4].hour);
    let mut bytes = std::fs::read(&path).expect("read hour file");
    *bytes.last_mut().expect("non-empty hour file") ^= 0xff;
    std::fs::write(&path, bytes).expect("rewrite hour file");
    let stopped = new_service();
    let err = feed(&stopped).expect_err("corrupt hour must fail ingest");
    assert!(err.is_checksum_mismatch(), "{err}");
    let last = stopped.snapshot();
    assert_eq!((last.epoch, last.hours_ingested), (4, 4));
    assert_eq!(last.last_interval, Some(4));
    assert_eq!(*last.analysis, prefix_analysis(&inv.db, &traffic, 4));
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

    let dev = snap.analysis.compromised_devices()[0];
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
