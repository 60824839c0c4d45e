//! Golden-file compatibility for the flowtuple store formats.
//!
//! One fixed set of flows is checked into `fixtures/golden/` encoded in
//! every format the store has ever written (v1, v2, v3). Each file must
//! keep decoding to exactly the same records, and each encoder must
//! keep reproducing its fixture byte for byte — so a codec change that
//! would orphan archived telescope data fails here instead of in the
//! field.
//!
//! To regenerate after an *intentional* format change:
//! `cargo test -p iotscope-tests --test store_golden -- --ignored regenerate`

use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{
    decode_hour_with, encode_hour, encode_hour_v1, DecodeOptions, StoreFormat, StoreOptions,
};
use iotscope_net::time::UnixHour;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// The fixture hour (2017-04-12 00:00 UTC, the paper window's first day).
const HOUR: u64 = 414_456;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden")
}

/// The golden record set: deterministic (xorshift, fixed seed), shaped
/// like telescope traffic (a few sources scanning many dark addresses),
/// and large enough to exercise several v3 blocks (> 2 × 4096 records).
/// MUST NOT change — the committed fixtures are derived from it.
fn golden_flows() -> Vec<FlowTuple> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..10_000u32)
        .map(|i| {
            let r = next();
            let src = Ipv4Addr::from(0x0a00_0000 | (i % 61));
            let dst = Ipv4Addr::from(0x2c00_0000 | (r as u32 & 0x00ff_ffff));
            match i % 10 {
                0 => FlowTuple::udp(
                    src,
                    dst,
                    1024 + (r >> 24) as u16 % 50_000,
                    53 + (i % 7) as u16,
                )
                .with_packets(1 + (r >> 32) as u32 % 9),
                1 => FlowTuple::icmp(src, dst, IcmpType::EchoRequest).with_ttl((r >> 40) as u8),
                _ => FlowTuple::tcp(
                    src,
                    dst,
                    1024 + (r >> 24) as u16 % 50_000,
                    if i % 3 == 0 { 23 } else { 2323 },
                    TcpFlags::SYN,
                )
                .with_packets(1 + (r >> 32) as u32 % 4)
                .with_ttl(32 + ((r >> 40) as u8 % 4) * 32),
            }
        })
        .collect()
}

/// What every fixture must decode to: delta encoding sorts records by
/// (src, dst, dst_port), identically in all three formats.
fn expected_flows() -> Vec<FlowTuple> {
    let mut flows = golden_flows();
    flows.sort_by_key(|f| (f.src_ip, f.dst_ip, f.dst_port));
    flows
}

type Encoder = fn(UnixHour, &[FlowTuple]) -> Vec<u8>;

fn encoders() -> [(&'static str, Encoder); 3] {
    [
        ("hour-v1.ft", |h, f| {
            encode_hour_v1(h, f, StoreOptions::default())
        }),
        ("hour-v2.ft", |h, f| {
            encode_hour(
                h,
                f,
                StoreOptions {
                    format: StoreFormat::V2,
                    ..StoreOptions::default()
                },
            )
        }),
        ("hour-v3.ft", |h, f| {
            encode_hour(
                h,
                f,
                StoreOptions {
                    format: StoreFormat::V3,
                    ..StoreOptions::default()
                },
            )
        }),
    ]
}

#[test]
fn golden_files_decode_identically_across_formats() {
    let expected = expected_flows();
    for (name, encode) in encoders() {
        let path = fixture_dir().join(name);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see module docs", path.display())
        });

        // Every archived format decodes to exactly the same records.
        let decoded = decode_hour_with(&bytes, DecodeOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded.hour, UnixHour::new(HOUR), "{name}");
        assert!(decoded.quarantined.is_empty(), "{name}");
        assert_eq!(decoded.flows, expected, "{name} decoded differently");

        // And the current encoder still reproduces the archive exactly.
        let reencoded = encode(UnixHour::new(HOUR), &golden_flows());
        assert_eq!(reencoded, bytes, "{name}: encoder output drifted");
    }
}

#[test]
fn golden_v3_has_multiple_independent_blocks() {
    let bytes = std::fs::read(fixture_dir().join("hour-v3.ft")).expect("v3 fixture");
    let decoded = decode_hour_with(&bytes, DecodeOptions { quarantine: true }).unwrap();
    assert_eq!(decoded.blocks, 3, "10_000 records at 4096/block");
    assert_eq!(decoded.flows, expected_flows());
}

/// Writes the fixtures. Run only after an intentional format change,
/// and commit the result: `cargo test -p iotscope-tests --test
/// store_golden -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, encode) in encoders() {
        std::fs::write(dir.join(name), encode(UnixHour::new(HOUR), &golden_flows())).unwrap();
    }
}
