//! Property tests for the columnar analysis model: every memoized
//! [`AnalysisView`] query must equal a brute-force recomputation from
//! the raw per-device rows, and the device-sharded analysis must be
//! bit-identical to the sequential pass for any assignment of hours to
//! routers.

use iotscope_core::analysis::{Analysis, Analyzer};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::shard::{assemble, ShardAccumulator, ShardRouter};
use iotscope_core::TrafficClass;
use iotscope_devicedb::{DeviceId, Realm, ShardMap};
use iotscope_net::store::{decode_hour_visit, encode_hour, DecodeOptions, StoreOptions};
use iotscope_net::time::UnixHour;
use iotscope_obs::Registry;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared 143-hour scenario (generated once; the property tests
/// below only re-partition its hours, never regenerate traffic).
fn shared() -> &'static (BuiltScenario, Vec<HourTraffic>) {
    static SHARED: OnceLock<(BuiltScenario, Vec<HourTraffic>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(21));
        let traffic = built.scenario.generate();
        (built, traffic)
    })
}

fn num_hours() -> u32 {
    let (built, _) = shared();
    built.scenario.telescope().window.num_hours()
}

/// Analyze one slice of hours.
fn partial(hour_indices: &[usize]) -> Analysis {
    let (built, traffic) = shared();
    let mut an = Analyzer::new(&built.inventory.db, num_hours());
    for &i in hour_indices {
        an.ingest_hour(&traffic[i]);
    }
    an.finish()
}

/// Strategy: a random partition of `0..n` hours into `k` disjoint
/// groups (some possibly empty), as the group index of each hour.
fn partition_strategy(n: usize, k: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(0..k, n).prop_map(move |assignment| {
        let mut groups = vec![Vec::new(); k];
        for (hour, &g) in assignment.iter().enumerate() {
            groups[g].push(hour);
        }
        groups
    })
}

/// The sequential reference over all 143 hours, computed once.
fn sequential_full() -> &'static Analysis {
    static SEQ: OnceLock<Analysis> = OnceLock::new();
    SEQ.get_or_init(|| {
        let all: Vec<usize> = (0..143).collect();
        partial(&all)
    })
}

/// The stable metric snapshot of a single-threaded pipeline run over
/// the full traffic, computed once — the reference every sharded run's
/// stable counters must reproduce.
fn sequential_stable() -> &'static iotscope_obs::Snapshot {
    static SNAP: OnceLock<iotscope_obs::Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let (built, traffic) = shared();
        let registry = Registry::new();
        AnalysisPipeline::new(&built.inventory.db, num_hours())
            .run(traffic, &AnalyzeOptions::new().metrics(&registry))
            .unwrap();
        registry.snapshot().stable_only()
    })
}

/// Route the shared traffic through `groups.len()` routers (each owning
/// the hour indices of its group) into `shards` shard accumulators, and
/// assemble the final analysis — the hand-driven equivalent of the
/// pipeline's sharded mode.
fn sharded_by_hand(groups: &[Vec<usize>], shards: usize) -> Analysis {
    let (built, traffic) = shared();
    let db = &built.inventory.db;
    let hours = num_hours();
    let map = ShardMap::new(db.len(), shards);
    let mut accs: Vec<ShardAccumulator> = (0..shards)
        .map(|s| ShardAccumulator::new(hours, map.range(s)))
        .collect();
    let mut parts = Vec::new();
    for group in groups {
        let mut router = ShardRouter::new(db, hours, map);
        for &i in group {
            let hour = &traffic[i];
            router.begin_hour(hour.interval);
            router.route(&hour.flows);
            for (s, flows) in router.finish_hour().into_iter().enumerate() {
                accs[s].apply_hour(hour.interval, &flows);
            }
        }
        parts.push(router.into_partial());
    }
    assemble(hours, parts, accs.into_iter().map(|a| a.finish()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every memoized view query equals a brute-force recomputation
    /// from the raw device rows, on an arbitrary subset of hours.
    #[test]
    fn prop_views_equal_brute_force(groups in partition_strategy(143, 2)) {
        let analysis = partial(&groups[0]);
        let view = analysis.view();

        // compromised == all row ids, sorted.
        let mut ids: Vec<DeviceId> =
            analysis.devices.rows().map(|o| o.device).collect();
        ids.sort_unstable();
        prop_assert_eq!(view.compromised(), &ids[..]);

        // Per-class cohorts.
        for class in TrafficClass::ALL {
            let mut brute: Vec<DeviceId> = analysis
                .devices
                .rows()
                .filter(|o| o.packets(class) > 0)
                .map(|o| o.device)
                .collect();
            brute.sort_unstable();
            prop_assert_eq!(view.cohort(class), &brute[..], "class={:?}", class);
        }
        prop_assert_eq!(view.dos_victims(), view.cohort(TrafficClass::Backscatter));
        prop_assert_eq!(view.tcp_scanners(), view.cohort(TrafficClass::TcpScan));
        prop_assert_eq!(view.udp_devices(), view.cohort(TrafficClass::Udp));

        // Scanners: TCP SYN or ICMP echo.
        let mut scanners: Vec<DeviceId> = analysis
            .devices
            .rows()
            .filter(|o| o.scan_packets() > 0)
            .map(|o| o.device)
            .collect();
        scanners.sort_unstable();
        prop_assert_eq!(view.scanners(), &scanners[..]);

        // Realm partitions + counts.
        for realm in [Realm::Consumer, Realm::Cps] {
            let mut brute: Vec<DeviceId> = analysis
                .devices
                .rows()
                .filter(|o| o.realm == realm)
                .map(|o| o.device)
                .collect();
            brute.sort_unstable();
            prop_assert_eq!(view.realm_devices(realm), &brute[..], "realm={:?}", realm);
        }
        let consumer = analysis
            .devices
            .rows()
            .filter(|o| o.realm == Realm::Consumer)
            .count();
        prop_assert_eq!(
            view.realm_counts(),
            (consumer, analysis.device_count() - consumer)
        );

        // Total packets.
        let total: u64 = analysis.devices.rows().map(|o| o.total_packets()).sum();
        prop_assert_eq!(view.total_packets(), total);

        // The legacy accessor shims route through the same cache.
        prop_assert_eq!(&analysis.compromised_devices()[..], view.compromised());
        prop_assert_eq!(&analysis.dos_victims()[..], view.dos_victims());
        prop_assert_eq!(&analysis.tcp_scanners()[..], view.tcp_scanners());
        prop_assert_eq!(&analysis.udp_devices()[..], view.udp_devices());
        prop_assert_eq!(analysis.compromised_counts(), view.realm_counts());
        prop_assert_eq!(analysis.total_packets(), view.total_packets());
    }

    /// Device-sharded analysis is *bit-identical* to the sequential
    /// pass: full structural equality of the assembled [`Analysis`]
    /// (including the concatenated device-table row order) for any
    /// assignment of hours to routers and any shard count 1..=8, and
    /// the pipeline's sharded mode reproduces the sequential stable
    /// metric snapshot exactly.
    #[test]
    fn prop_sharded_is_bit_identical_to_sequential(
        shards in 1usize..=8,
        routers in 1usize..=4,
        assignment in partition_strategy(143, 4),
    ) {
        // Fold the fixed-width partition down to `routers` groups, so
        // the router count varies without a dependent strategy.
        let mut groups = vec![Vec::new(); routers];
        for (g, hours) in assignment.into_iter().enumerate() {
            groups[g % routers].extend(hours);
        }
        let sequential = sequential_full();
        let sharded = sharded_by_hand(&groups, shards);
        prop_assert_eq!(&sharded, sequential, "shards={} routers={}", shards, groups.len());
        // PartialEq on DeviceTable ignores row order; pin it down too —
        // ascending-shard concatenation must yield the sorted table.
        prop_assert_eq!(sharded.devices.ids(), sequential.devices.ids());

        let (built, traffic) = shared();
        let registry = Registry::new();
        AnalysisPipeline::new(&built.inventory.db, num_hours())
            .run(
                traffic,
                &AnalyzeOptions::new().threads(shards.max(2)).metrics(&registry),
            )
            .unwrap();
        prop_assert_eq!(
            &registry.snapshot().stable_only(),
            sequential_stable(),
            "stable metrics drift in sharded mode at threads={}",
            shards.max(2)
        );
    }

    /// Sharded and sequential sinks quarantine identically: when corrupt
    /// blocks are dropped by a quarantining decode, both paths see the
    /// same surviving flows and still produce bit-identical analyses.
    #[test]
    fn prop_sharded_quarantine_matches_sequential(
        hour_seed in 0u64..1_000,
        corrupt in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        shards in 1usize..=8,
    ) {
        let (built, traffic) = shared();
        let db = &built.inventory.db;
        let hours = num_hours();
        // Encode two real hours, then corrupt payload bytes of the
        // second so a quarantining decode drops some blocks.
        let clean = &traffic[(hour_seed % 143) as usize];
        let victim = &traffic[((hour_seed + 71) % 143) as usize];
        let clean_bytes =
            encode_hour(UnixHour::new(900_000), &clean.flows, StoreOptions::default());
        let mut victim_bytes =
            encode_hour(UnixHour::new(900_001), &victim.flows, StoreOptions::default());
        // IOTFT03 layout mirror (see fused_streaming.rs): flip only
        // payload bytes so the header and block index stay intact.
        const HEADER: usize = 7 + 1 + 8 + 4 + 8;
        const INDEX_ENTRY: usize = 4 + 4 + 8;
        let total_blocks = victim.flows.len().div_ceil(iotscope_net::store::BLOCK_RECORDS);
        let index_end = HEADER + 4 + total_blocks * INDEX_ENTRY;
        prop_assume!(index_end < victim_bytes.len());
        let payload = victim_bytes.len() - index_end;
        for &(pos, mask) in &corrupt {
            victim_bytes[index_end + pos as usize % payload] ^= mask | 1;
        }
        let opts = DecodeOptions { quarantine: true };

        let mut seq = Analyzer::new(db, hours);
        for (interval, bytes) in [(clean.interval, &clean_bytes), (victim.interval, &victim_bytes)] {
            let mut ingest = seq.begin_hour(interval);
            decode_hour_visit(bytes, opts, &mut ingest).expect("quarantining decode succeeds");
            ingest.finish();
        }
        let sequential = seq.finish();

        let map = ShardMap::new(db.len(), shards);
        let mut accs: Vec<ShardAccumulator> = (0..shards)
            .map(|s| ShardAccumulator::new(hours, map.range(s)))
            .collect();
        let mut router = ShardRouter::new(db, hours, map);
        for (interval, bytes) in [(clean.interval, &clean_bytes), (victim.interval, &victim_bytes)] {
            router.begin_hour(interval);
            decode_hour_visit(bytes, opts, &mut router).expect("quarantining decode succeeds");
            for (s, flows) in router.finish_hour().into_iter().enumerate() {
                accs[s].apply_hour(interval, &flows);
            }
        }
        let sharded = assemble(
            hours,
            vec![router.into_partial()],
            accs.into_iter().map(|a| a.finish()).collect(),
        );
        prop_assert_eq!(sharded, sequential, "shards={}", shards);
    }
}

/// A cloned analysis starts with a cold cache but answers identically.
#[test]
fn cloned_analysis_recomputes_identical_views() {
    let all: Vec<usize> = (0..143).collect();
    let analysis = partial(&all);
    // Warm the original's cache first.
    let warm = analysis.view().compromised().to_vec();
    let clone = analysis.clone();
    assert_eq!(clone.view().compromised(), &warm[..]);
    assert_eq!(clone.view().realm_counts(), analysis.view().realm_counts());
    assert_eq!(clone, analysis);
}
