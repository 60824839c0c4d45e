//! Golden-file compatibility for the IOTSG01 segment container.
//!
//! A fixed three-hour segment is checked into `fixtures/golden/` twice:
//! `segment-v1.seg`, archived when every v3 column was RLE varint
//! deltas (header flag `FLAG_PACKED` clear), and `segment-v1-packed.seg`,
//! whose hours carry bit-packed columns where those are smaller. The
//! reader must keep decoding both to the same records, and the encoder
//! must keep reproducing the packed one byte for byte — so a container
//! or codec change that would orphan compacted telescope archives fails
//! here, exactly as `store_golden` does for the per-hour formats.
//!
//! To regenerate `segment-v1-packed.seg` after an *intentional* format
//! change (the flag-clear segment is an archive):
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

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/golden")
        .join(name)
}

/// The archived flag-clear segment, then the one the encoder writes.
const FIXTURES: [&str; 2] = ["segment-v1.seg", "segment-v1-packed.seg"];

/// v3 header flag bit 1: every block column carries a mode byte.
const FLAG_PACKED: u8 = 0b10;

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
    for (name, packed) in FIXTURES.into_iter().zip([false, true]) {
        let path = fixture_path(name);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see module docs", path.display())
        });

        // The segment still opens, routes, and decodes.
        let segment = Segment::open(&path).unwrap();
        assert_eq!(segment.len(), HOURS.len(), "{name}");
        assert_eq!(
            segment.hours().collect::<Vec<_>>(),
            HOURS.map(|(h, _)| UnixHour::new(h)).to_vec()
        );
        for (hour, n) in HOURS {
            let payload = segment
                .hour_bytes(UnixHour::new(hour))
                .unwrap()
                .expect("hour routed");
            assert_eq!(payload[7] & FLAG_PACKED != 0, packed, "{name} hour {hour}");
            let mut sink = CollectSink::default();
            let visited = decode_hour_visit(&payload, DecodeOptions::default(), &mut sink)
                .unwrap_or_else(|e| panic!("{name} hour {hour}: {e}"));
            assert_eq!(visited.hour, UnixHour::new(hour));
            assert!(visited.quarantined.is_empty());
            let flows = sink.into_flows();
            assert_eq!(flows.len(), n, "{name} hour {hour}");
            let mut expected = golden_hour(hour, n);
            expected.sort_by_key(|f| (f.src_ip, f.dst_ip, f.dst_port));
            assert_eq!(flows, expected, "{name} hour {hour} decoded differently");
        }
        assert!(segment.locate(UnixHour::new(414_459)).is_none());

        if packed {
            // The current encoder reproduces the packed segment exactly,
            // and it is smaller than the archive.
            let reencoded = encode_segment(&golden_payloads()).unwrap();
            assert_eq!(reencoded, bytes, "segment encoder output drifted");
            let archived = std::fs::metadata(fixture_path(FIXTURES[0])).unwrap();
            assert!((bytes.len() as u64) < archived.len());
        }
    }
}

/// Writes the packed fixture. Run only after an intentional format
/// change, and commit the result: `cargo test -p iotscope-tests --test
/// segment_golden -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    let path = fixture_path(FIXTURES[1]);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, encode_segment(&golden_payloads()).unwrap()).unwrap();
}
