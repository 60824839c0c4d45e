//! Fused streaming ingest of hours with corrupt blocks.
//!
//! Streaming an hour file block by block into the analyzer
//! ([`decode_hour_visit`] + [`Analyzer::begin_hour`]) under a
//! quarantining decode skips exactly the blocks a quarantining
//! materialised read drops, and folds what that read keeps: the same
//! analysis and stable counters as the naive reference
//! (`iotscope_tests::oracle`) over the kept flows. A strict decode
//! fails on both paths. (`oracle.rs` runs clean hours through every
//! sink.)

use iotscope_core::Analyzer;
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
use iotscope_devicedb::DeviceDb;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::{IcmpType, TcpFlags};
use iotscope_net::store::{
    decode_hour, decode_hour_visit, encode_hour, CollectSink, DecodeOptions, StoreOptions,
    BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_obs::Registry;
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hours with corrupt blocks: a quarantining streaming decode skips
    /// exactly the blocks the materialised quarantining decode drops and
    /// folds the flows it keeps, and a strict decode fails on both
    /// paths.
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
        let mut an = Analyzer::new(db, WINDOW_HOURS);
        {
            // On error the sink holds a prefix; it dies with the ingest.
            let mut ingest = an.begin_hour(1);
            prop_assert!(decode_hour_visit(&bytes, strict, &mut ingest).is_err());
        }

        let quarantine = DecodeOptions { quarantine: true };
        let mut sink = CollectSink::default();
        let decoded = decode_hour_visit(&bytes, quarantine, &mut sink)
            .expect("quarantine decode succeeds");
        prop_assert!(!decoded.quarantined.is_empty());
        prop_assert!(decoded.quarantined.len() <= total_blocks);
        let kept = HourTraffic { interval: 1, hour, flows: sink.into_flows() };
        let want = oracle::analyze(db, WINDOW_HOURS, std::slice::from_ref(&kept));

        let registry = Registry::new();
        let mut an = Analyzer::with_metrics(db, WINDOW_HOURS, &registry);
        let mut ingest = an.begin_hour(1);
        let visited = decode_hour_visit(&bytes, quarantine, &mut ingest)
            .expect("streaming decode succeeds");
        ingest.finish();
        prop_assert_eq!(&visited.quarantined, &decoded.quarantined, "quarantine drift");
        prop_assert_eq!(visited.records, kept.flows.len());
        prop_assert_eq!(&Naive::from(&an.finish()), &want, "analysis drift");
        let snapshot = registry.snapshot();
        for (name, value) in want.counters(None) {
            prop_assert_eq!(snapshot.counter(&name), Some(value), "stable metric drift: {}", name);
        }
    }
}
