//! Fused streaming ingest vs the materialized path.
//!
//! The PR-5 contract: streaming an hour file block-by-block into the
//! analyzer ([`decode_hour_visit`] + [`Analyzer::begin_hour`]) must be
//! *bit-identical* to materializing the hour and calling
//! [`Analyzer::ingest_hour`] — same [`Analysis`], same stable metric
//! snapshot — for random v3 hours, including hours where corrupt blocks
//! are quarantined.

use iotscope_core::{Analysis, Analyzer};
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
use iotscope_devicedb::DeviceDb;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{
    decode_hour, decode_hour_visit, encode_hour, CollectSink, DecodeOptions, QuarantinedBlock,
    StoreOptions, BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_obs::{Registry, Snapshot};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// IOTFT03 layout mirrors for targeting corruption at block payloads.
/// Kept in sync with `iotscope-net`'s (private) constants; the
/// `index_end` assertion below fails loudly if the format drifts.
const HEADER: usize = 7 + 1 + 8 + 4 + 8;
const INDEX_ENTRY: usize = 4 + 4 + 8;

const WINDOW_HOURS: u32 = 4;

fn inventory() -> &'static DeviceDb {
    static DB: OnceLock<DeviceDb> = OnceLock::new();
    DB.get_or_init(|| InventoryBuilder::new(SynthConfig::small(5)).build().db)
}

/// Deterministic, cheap flow generator: proptest shrinks the (seed, n)
/// pair instead of 10k+ individual tuples. Roughly half the sources hit
/// the inventory so both the matched and unmatched analyzer paths run.
fn synth_flows(db: &DeviceDb, seed: u64, n: usize) -> Vec<FlowTuple> {
    let ips: Vec<Ipv4Addr> = db.iter().map(|d| d.ip).collect();
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
                Ipv4Addr::from(next() as u32)
            };
            let dst = Ipv4Addr::from(next() as u32);
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

/// Materialized reference: decode the whole hour, then one
/// `ingest_hour` call.
fn materialized(
    db: &DeviceDb,
    bytes: &[u8],
    hour: UnixHour,
    opts: DecodeOptions,
) -> (Analysis, Vec<QuarantinedBlock>, Snapshot) {
    let registry = Registry::new();
    let mut sink = CollectSink::default();
    let decoded = decode_hour_visit(bytes, opts, &mut sink).expect("materialized decode succeeds");
    let mut an = Analyzer::with_metrics(db, WINDOW_HOURS, &registry);
    an.ingest_hour(&HourTraffic {
        interval: 1,
        hour,
        flows: sink.into_flows(),
    });
    (an.finish(), decoded.quarantined, registry.snapshot())
}

/// Fused path: stream blocks straight into the analyzer, no
/// intermediate `Vec<FlowTuple>`.
fn streamed(
    db: &DeviceDb,
    bytes: &[u8],
    opts: DecodeOptions,
) -> (Analysis, Vec<QuarantinedBlock>, Snapshot) {
    let registry = Registry::new();
    let mut an = Analyzer::with_metrics(db, WINDOW_HOURS, &registry);
    let mut ingest = an.begin_hour(1);
    let visited = decode_hour_visit(bytes, opts, &mut ingest).expect("streaming decode succeeds");
    ingest.finish();
    (an.finish(), visited.quarantined, registry.snapshot())
}

fn assert_paths_agree(db: &DeviceDb, bytes: &[u8], hour: UnixHour, opts: DecodeOptions) {
    let (reference, ref_quarantined, ref_snapshot) = materialized(db, bytes, hour, opts);
    let (analysis, quarantined, snapshot) = streamed(db, bytes, opts);
    assert_eq!(analysis, reference, "analysis drift");
    assert_eq!(quarantined, ref_quarantined, "quarantine drift");
    assert_eq!(
        snapshot.stable_only(),
        ref_snapshot.stable_only(),
        "stable metric drift"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean random v3 hours, from empty through several blocks plus a
    /// ragged tail: streaming equals materializing.
    #[test]
    fn streaming_matches_materialized_on_clean_hours(
        seed in any::<u64>(),
        blocks in 0usize..3,
        tail in 0usize..64,
    ) {
        let db = inventory();
        let n = blocks * BLOCK_RECORDS + tail;
        let flows = synth_flows(db, seed, n);
        let hour = UnixHour::new(500_000 + (seed % 1000));
        let bytes = encode_hour(hour, &flows, StoreOptions::default());
        assert_paths_agree(db, &bytes, hour, DecodeOptions::default());
    }

    /// Hours with corrupt blocks: a quarantining streaming decode skips
    /// exactly the blocks the materialized quarantining decode drops,
    /// and a strict decode fails on both paths.
    #[test]
    fn streaming_quarantines_like_materialized(
        seed in any::<u64>(),
        extra_blocks in 1usize..3,
        tail in 1usize..64,
        corrupt in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let db = inventory();
        let n = extra_blocks * BLOCK_RECORDS + tail;
        let flows = synth_flows(db, seed, n);
        let hour = UnixHour::new(600_000 + (seed % 1000));
        let mut bytes = encode_hour(hour, &flows, StoreOptions::default());

        let total_blocks = n.div_ceil(BLOCK_RECORDS);
        let index_end = HEADER + 4 + total_blocks * INDEX_ENTRY;
        assert!(
            index_end < bytes.len(),
            "layout mirror out of sync with IOTFT03"
        );
        // Flip payload bytes (never header/index): always lands inside
        // some block, always changes its FNV-1a checksum.
        let payload = bytes.len() - index_end;
        for &(pos, mask) in &corrupt {
            bytes[index_end + pos as usize % payload] ^= mask | 1;
        }

        let strict = DecodeOptions::default();
        prop_assert!(decode_hour(&bytes).is_err());
        let registry = Registry::new();
        let mut an = Analyzer::with_metrics(db, WINDOW_HOURS, &registry);
        {
            // On error the sink holds a prefix; it dies with the ingest.
            let mut ingest = an.begin_hour(1);
            prop_assert!(decode_hour_visit(&bytes, strict, &mut ingest).is_err());
        }

        let quarantine = DecodeOptions { quarantine: true };
        let decoded = decode_hour_visit(&bytes, quarantine, &mut CollectSink::default())
            .expect("quarantine decode succeeds");
        prop_assert!(!decoded.quarantined.is_empty());
        prop_assert!(decoded.quarantined.len() <= total_blocks);
        assert_paths_agree(db, &bytes, hour, quarantine);
    }
}
