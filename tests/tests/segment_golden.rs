//! Golden-file compatibility for the IOTSG01 segment container.
//!
//! A fixed three-hour segment is checked into `fixtures/golden/`; the
//! encoder must keep reproducing it byte for byte, and the reader must
//! keep decoding it to the same records — so a container or codec
//! change that would orphan compacted telescope archives fails here,
//! exactly as `store_golden` does for the per-hour formats.
//!
//! To regenerate after an *intentional* format change:
//! `cargo test -p iotscope-tests --test segment_golden -- --ignored regenerate`

use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::segment::{encode_segment, Segment};
use iotscope_net::store::{
    decode_hour_visit, encode_hour, CollectSink, DecodeOptions, StoreFormat, StoreOptions,
};
use iotscope_net::time::UnixHour;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// The fixture hours: the first three of the paper window's first day.
/// Sizes straddle one v3 block (4096 records): two blocks, one partial
/// block, and a tiny hour.
const HOURS: [(u64, usize); 3] = [(414_456, 5_000), (414_457, 1_200), (414_458, 17)];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden/segment-v1.seg")
}

/// Deterministic per-hour records (xorshift, seeded by the hour).
/// MUST NOT change — the committed fixture is derived from it.
fn golden_hour(hour: u64, n: usize) -> Vec<FlowTuple> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (hour << 17);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n as u32)
        .map(|i| {
            let r = next();
            let src = Ipv4Addr::from(0x0a00_0000 | (i % 47));
            let dst = Ipv4Addr::from(0x2c00_0000 | (r as u32 & 0x00ff_ffff));
            match i % 8 {
                0 => FlowTuple::udp(src, dst, 1024 + (r >> 24) as u16 % 50_000, 5060)
                    .with_packets(1 + (r >> 32) as u32 % 6),
                1 => FlowTuple::icmp(src, dst, IcmpType::EchoRequest).with_ttl((r >> 40) as u8),
                _ => FlowTuple::tcp(
                    src,
                    dst,
                    1024 + (r >> 24) as u16 % 50_000,
                    if i % 3 == 0 { 23 } else { 81 },
                    TcpFlags::SYN,
                )
                .with_packets(1 + (r >> 32) as u32 % 3)
                .with_ttl(32 + ((r >> 40) as u8 % 4) * 32),
            }
        })
        .collect()
}

/// The segment payloads: each golden hour encoded v3 (the only format
/// compaction writes).
fn golden_payloads() -> Vec<(UnixHour, Vec<u8>)> {
    HOURS
        .iter()
        .map(|&(hour, n)| {
            (
                UnixHour::new(hour),
                encode_hour(
                    UnixHour::new(hour),
                    &golden_hour(hour, n),
                    StoreOptions {
                        format: StoreFormat::V3,
                    },
                ),
            )
        })
        .collect()
}

#[test]
fn golden_segment_decodes_and_encoder_has_not_drifted() {
    let path = fixture_path();
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));

    // The archived segment still opens, routes, and decodes.
    let segment = Segment::open(&path).unwrap();
    assert_eq!(segment.len(), HOURS.len());
    assert_eq!(
        segment.hours().collect::<Vec<_>>(),
        HOURS.map(|(h, _)| UnixHour::new(h)).to_vec()
    );
    for (hour, n) in HOURS {
        let payload = segment
            .hour_bytes(UnixHour::new(hour))
            .expect("hour routed");
        let mut sink = CollectSink::default();
        let visited = decode_hour_visit(payload, DecodeOptions::default(), &mut sink)
            .unwrap_or_else(|e| panic!("hour {hour}: {e}"));
        assert_eq!(visited.hour, UnixHour::new(hour));
        assert!(visited.quarantined.is_empty());
        let flows = sink.into_flows();
        assert_eq!(flows.len(), n, "hour {hour}");
        let mut expected = golden_hour(hour, n);
        expected.sort_by_key(|f| (f.src_ip, f.dst_ip, f.dst_port));
        assert_eq!(flows, expected, "hour {hour} decoded differently");
    }
    assert!(segment.locate(UnixHour::new(414_459)).is_none());

    // And the current encoder still reproduces the archive exactly.
    let reencoded = encode_segment(&golden_payloads()).unwrap();
    assert_eq!(reencoded, bytes, "segment encoder output drifted");
}

/// Writes the fixture. Run only after an intentional format change, and
/// commit the result: `cargo test -p iotscope-tests --test
/// segment_golden -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, encode_segment(&golden_payloads()).unwrap()).unwrap();
}
