//! Property tests for the columnar analysis model on the paper
//! scenario: every memoized [`AnalysisView`] query must equal a
//! brute-force recomputation from the raw per-device rows, and the
//! routed analysis — any assignment of hours to routers, folded by one
//! analyzer in any order, clean or quarantining — must equal the naive
//! reference
//! (`iotscope_tests::oracle`; `oracle.rs` runs every ingest path
//! against it on generated hours).

use iotscope_core::analysis::{Analysis, Analyzer};
use iotscope_core::fold::{RoutedHour, Router};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::TrafficClass;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_net::store::{
    decode_hour_visit, encode_hour, CollectSink, DecodeOptions, FlowSink, StoreOptions,
    BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_obs::Registry;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared 143-hour scenario (generated once; the property test
/// below only picks subsets of its hours, never regenerates traffic).
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

/// The naive reference over all 143 hours, computed once.
fn reference_full() -> &'static Naive {
    static REFERENCE: OnceLock<Naive> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (built, traffic) = shared();
        oracle::analyze(&built.inventory.db, num_hours(), traffic)
    })
}

/// Fold `routed` hours into one analyzer in the order of `keys` (the
/// indices sorted by key: a random permutation for random keys), as the
/// parallel pipeline's fold owner takes them in whatever order its
/// routers finish.
fn fold_in_key_order(db: &DeviceDb, routed: Vec<RoutedHour>, keys: &[u64]) -> Analysis {
    let mut order: Vec<usize> = (0..routed.len()).collect();
    order.sort_by_key(|&k| keys[k]);
    let mut routed: Vec<Option<RoutedHour>> = routed.into_iter().map(Some).collect();
    let mut an = Analyzer::new(db, num_hours());
    for k in order {
        an.apply_routed(&routed[k].take().expect("each hour folds once"));
    }
    an.finish()
}

/// Route the shared traffic through `groups.len()` routers (each owning
/// the hour indices of its group) and fold the routed hours in the
/// order of `keys` — the hand-driven equivalent of the pipeline's
/// parallel driver.
fn routed_by_hand(groups: &[Vec<usize>], keys: &[u64]) -> Analysis {
    let (built, traffic) = shared();
    let db = &built.inventory.db;
    let mut routed = Vec::new();
    for group in groups {
        let mut router = Router::new(db, num_hours());
        for &i in group {
            let hour = &traffic[i];
            router.begin_hour(hour.interval);
            router.on_flows(&hour.flows);
            routed.push(router.finish_hour());
        }
    }
    fold_in_key_order(db, routed, keys)
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
    }

    /// Routed analysis is the sequential per-record reference, for any
    /// assignment of the 143 hours to 1–4 routers and any order of the
    /// routed hours into the fold, with the finished device rows
    /// ascending; and the pipeline's parallel driver publishes the
    /// reference's stable counters.
    #[test]
    fn prop_sharded_is_bit_identical_to_sequential(
        routers in 1usize..=4,
        assignment in partition_strategy(143, 4),
        order in proptest::collection::vec(any::<u64>(), 143),
    ) {
        // Fold the fixed-width partition down to `routers` groups, so
        // the router count varies without a dependent strategy.
        let mut groups = vec![Vec::new(); routers];
        for (g, hours) in assignment.into_iter().enumerate() {
            groups[g % routers].extend(hours);
        }
        let want = reference_full();
        let routed = routed_by_hand(&groups, &order);
        prop_assert_eq!(&Naive::from(&routed), want, "routers={}", routers);
        let ids = routed.devices.ids();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "device rows ascending");

        let (built, traffic) = shared();
        let threads = routers.max(2);
        let registry = Registry::new();
        AnalysisPipeline::new(&built.inventory.db, num_hours())
            .run(traffic, &AnalyzeOptions::new().threads(threads).metrics(&registry))
            .unwrap();
        let snapshot = registry.snapshot();
        for (name, value) in want.counters(Some(143)) {
            prop_assert_eq!(snapshot.counter(&name), Some(value), "{} at threads={}", name, threads);
        }
    }

    /// Routed and sequential sinks quarantine like the reference: when
    /// a quarantining decode drops corrupt blocks of a real hour, both
    /// fold exactly the flows a quarantining `CollectSink` keeps, the two
    /// hours routed round robin on 1–4 routers and folded in either
    /// order.
    #[test]
    fn prop_sharded_quarantine_matches_sequential(
        hour_seed in 0u64..1_000,
        corrupt in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        routers in 1usize..=4,
        order in proptest::collection::vec(any::<u64>(), 2),
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
        // IOTFT03 layout mirror (see oracle.rs): flip only payload bytes
        // so the header and block index stay intact.
        const HEADER: usize = 7 + 1 + 8 + 4 + 8;
        const INDEX_ENTRY: usize = 4 + 4 + 8;
        let total_blocks = victim.flows.len().div_ceil(BLOCK_RECORDS);
        let index_end = HEADER + 4 + total_blocks * INDEX_ENTRY;
        prop_assume!(index_end < victim_bytes.len());
        let payload = victim_bytes.len() - index_end;
        for &(pos, mask) in &corrupt {
            victim_bytes[index_end + pos as usize % payload] ^= mask | 1;
        }
        let opts = DecodeOptions { quarantine: true };
        let files = [(clean, &clean_bytes), (victim, &victim_bytes)];

        let kept: Vec<HourTraffic> = files
            .iter()
            .map(|&(hour, bytes)| {
                let mut sink = CollectSink::default();
                decode_hour_visit(bytes, opts, &mut sink).expect("quarantining decode succeeds");
                HourTraffic { flows: sink.into_flows(), ..hour.clone() }
            })
            .collect();
        let want = oracle::analyze(db, hours, &kept);

        let mut seq = Analyzer::new(db, hours);
        for &(hour, bytes) in &files {
            let mut ingest = seq.begin_hour(hour.interval);
            decode_hour_visit(bytes, opts, &mut ingest).expect("quarantining decode succeeds");
            ingest.finish();
        }
        prop_assert_eq!(&Naive::from(&seq.finish()), &want, "sequential");

        let mut pool: Vec<Router> = (0..routers).map(|_| Router::new(db, hours)).collect();
        let mut routed = Vec::new();
        for (k, &(hour, bytes)) in files.iter().enumerate() {
            let router = &mut pool[k % routers];
            router.begin_hour(hour.interval);
            decode_hour_visit(bytes, opts, &mut *router).expect("quarantining decode succeeds");
            routed.push(router.finish_hour());
        }
        let folded = fold_in_key_order(db, routed, &order);
        prop_assert_eq!(&Naive::from(&folded), &want, "routers={}", routers);
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
