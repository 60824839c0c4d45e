//! Golden-file compatibility for the flowtuple store formats.
//!
//! One fixed set of flows is checked into `fixtures/golden/` encoded in
//! every layout the store has ever written: v1, v2, v3 with every column
//! RLE varint deltas (`hour-v3.ft`, header flag `FLAG_PACKED` clear),
//! and v3 with each column in the smaller of RLE and bit-packing
//! (`hour-v3-packed.ft`). Each file must keep decoding to exactly the
//! same records — archived telescope hours stay readable forever,
//! through the decoder and through the pipeline — and the v3 encoder,
//! the only one left, must keep reproducing the packed fixture byte for
//! byte, so a codec change that would orphan archived data fails here
//! instead of in the field.
//!
//! To regenerate `hour-v3-packed.ft` after an *intentional* format
//! change:
//! `cargo test -p iotscope-tests --test store_golden -- --ignored regenerate`
//! (the v1/v2 and flag-clear v3 fixtures are archives; nothing writes
//! them any more).

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_devicedb::{
    ConsumerKind, CountryCode, CpsService, DeviceDb, DeviceId, DeviceProfile, IotDevice, IspId,
};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{
    decode_hour, decode_hour_visit, encode_hour, restamp_hour, CollectSink, DecodeOptions,
    FlowStore, StoreFormat, StoreOptions,
};
use iotscope_net::time::{AnalysisWindow, UnixHour};
use iotscope_telescope::HourTraffic;
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

/// Every fixture, oldest first; the last is the one the encoder writes.
const FIXTURES: [&str; 4] = [
    "hour-v1.ft",
    "hour-v2.ft",
    "hour-v3.ft",
    "hour-v3-packed.ft",
];

/// v3 header flag bit 1: every block column carries a mode byte.
const FLAG_PACKED: u8 = 0b10;

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()))
}

fn encode_v3(hour: UnixHour, flows: &[FlowTuple]) -> Vec<u8> {
    encode_hour(
        hour,
        flows,
        StoreOptions {
            format: StoreFormat::V3,
        },
    )
}

#[test]
fn golden_files_decode_identically_across_formats() {
    let expected = expected_flows();
    for name in FIXTURES {
        // Every archived format decodes to exactly the same records.
        let (hour, flows) = decode_hour(&fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(hour, UnixHour::new(HOUR), "{name}");
        assert_eq!(flows, expected, "{name} decoded differently");
    }
    // The archived v3 hour predates bit-packing; the packed one is
    // smaller.
    let (archived, packed) = (fixture("hour-v3.ft"), fixture("hour-v3-packed.ft"));
    assert_eq!(archived[7] & FLAG_PACKED, 0, "hour-v3.ft is flag-clear");
    assert_ne!(packed[7] & FLAG_PACKED, 0, "hour-v3-packed.ft is packed");
    assert!(packed.len() < archived.len());
    // And the one encoder still reproduces its fixture exactly.
    let reencoded = encode_v3(UnixHour::new(HOUR), &golden_flows());
    assert_eq!(reencoded, packed, "v3 encoder output drifted");
}

#[test]
fn golden_v3_has_multiple_independent_blocks() {
    for name in ["hour-v3.ft", "hour-v3-packed.ft"] {
        let mut sink = CollectSink::default();
        let visited = decode_hour_visit(
            &fixture(name),
            DecodeOptions { quarantine: true },
            &mut sink,
        )
        .unwrap();
        assert_eq!(visited.blocks, 3, "{name}: 10_000 records at 4096/block");
        assert!(visited.quarantined.is_empty(), "{name}");
        assert_eq!(sink.into_flows(), expected_flows(), "{name}");
    }
}

/// Every other golden source (61 in total) is an inventory device,
/// consumer and CPS alternating, so the analysis has matched and
/// unmatched traffic in both realms.
fn golden_inventory() -> DeviceDb {
    DeviceDb::from_devices((0..61u32).step_by(2).enumerate().map(|(id, i)| IotDevice {
        id: DeviceId(id as u32),
        ip: Ipv4Addr::from(0x0a00_0000 | i),
        profile: if id % 2 == 0 {
            DeviceProfile::Consumer(ConsumerKind::Router)
        } else {
            DeviceProfile::Cps(vec![CpsService::TelventOasysDna])
        },
        country: CountryCode::from_code("US").unwrap(),
        isp: IspId(0),
    }))
}

#[test]
fn golden_hours_of_every_format_analyze_identically_through_the_pipeline() {
    // One store holding every fixture at consecutive hours. The v1
    // header is outside its checksum, so its hour is patched in place;
    // the v3 hours are restamped; v2 keeps the hour it was archived at.
    let dir = std::env::temp_dir().join(format!("iotscope-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let hours = [HOUR + 1, HOUR, HOUR + 2, HOUR + 3].map(UnixHour::new);
    for (name, hour) in FIXTURES.into_iter().zip(hours) {
        let mut bytes = fixture(name);
        match name {
            "hour-v1.ft" => bytes[8..16].copy_from_slice(&hour.get().to_be_bytes()),
            "hour-v2.ft" => assert_eq!(hour, UnixHour::new(HOUR)),
            _ => restamp_hour(&mut bytes, hour).unwrap(),
        }
        let path = store.hour_path(hour);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }

    let db = golden_inventory();
    let pipeline = AnalysisPipeline::new(&db, 4);
    let window = AnalysisWindow::new(UnixHour::new(HOUR), 4).unwrap();
    let traffic: Vec<HourTraffic> = window
        .iter_intervals()
        .map(|(interval, hour)| HourTraffic {
            interval,
            hour,
            flows: expected_flows(),
        })
        .collect();
    let reference = pipeline
        .run(&traffic, &AnalyzeOptions::new())
        .unwrap()
        .analysis;
    assert!(reference.device_count() > 0, "the inventory matches");
    for threads in [1, 4] {
        let options = AnalyzeOptions::new().window(window).threads(threads);
        let stored = pipeline.run(&store, &options).unwrap().analysis;
        assert_eq!(stored, reference, "threads {threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes the packed v3 fixture. Run only after an intentional format
/// change, and commit the result: `cargo test -p iotscope-tests --test
/// store_golden -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("hour-v3-packed.ft"),
        encode_v3(UnixHour::new(HOUR), &golden_flows()),
    )
    .unwrap();
}
