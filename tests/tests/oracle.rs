//! One matrix: every optimised ingest path against the naive reference
//! analyzer (`iotscope_tests::oracle`).
//!
//! Each arm feeds one path generated hours — unsorted, with zero-packet
//! flows, every protocol × flag byte, ICMP types past 255, sources
//! outside the inventory and a device run across the 4,096-record block
//! boundary — and compares what it built, through the projection
//! `Naive::from(&Analysis)`, with `oracle::analyze` over the same hours;
//! the behavior fold's vectors are compared with `oracle::behavior`.
//! Metered arms compare their stable counters too. No arm compares two
//! optimised paths with each other.

use iotscope_core::behavior::{self, BehaviorFold, BehaviorVector};
use iotscope_core::fold::{RoutedHour, Router};
use iotscope_core::pipeline::{
    route_ahead, AnalysisPipeline, AnalyzeOptions, HourSource, StoredWindow,
};
use iotscope_core::stream::{StreamConfig, StreamingAnalyzer};
use iotscope_core::{Analysis, Analyzer};
use iotscope_devicedb::isp::IspRegistry;
use iotscope_devicedb::DeviceDb;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{
    decode_hour, decode_hour_visit, encode_hour, CollectSink, DecodeOptions, FlowSink, FlowStore,
    StoreOptions, BLOCK_RECORDS,
};
use iotscope_net::time::{AnalysisWindow, UnixHour};
use iotscope_obs::Registry;
use iotscope_serve::TelescopeService;
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive, Served};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Window length: the generator's 1–4 hours sit at intervals 1, 3, 5, 7.
const HOURS: u32 = 8;

/// IOTFT03 layout mirrors, for corrupting block payloads only: the
/// header, and one block-index entry.
const HEADER: usize = 7 + 1 + 8 + 4 + 8;
const INDEX_ENTRY: usize = 4 + 4 + 8;

/// `analysis`, a finished result, is `want`, with device and port rows
/// in ascending order.
fn assert_finished(want: &Naive, analysis: &Analysis, path: &str) {
    assert_eq!(&Naive::from(analysis), want, "{path}");
    let ids = analysis.devices.ids();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{path}: device rows");
    let ports: Vec<u16> = analysis.udp_ports.rows().map(|r| r.port).collect();
    assert!(ports.windows(2).all(|w| w[0] < w[1]), "{path}: port rows");
}

/// Every interval from the first generated hour's to the last, the
/// gaps filled with empty hours: what a store holds so that the
/// day-completeness rule keeps every hour.
fn window_hours(traffic: &[HourTraffic]) -> Vec<HourTraffic> {
    let (first, last) = (&traffic[0], &traffic[traffic.len() - 1]);
    (first.interval..=last.interval)
        .map(|interval| {
            let given = traffic.iter().find(|h| h.interval == interval);
            given.cloned().unwrap_or_else(|| HourTraffic {
                interval,
                hour: UnixHour::new(first.hour.get() + u64::from(interval - first.interval)),
                flows: Vec::new(),
            })
        })
        .collect()
}

/// `registry` holds the counters a metered ingest of `want`'s hours
/// publishes (`pipeline.hours_ingested` too, for `hours` pipeline hours).
fn assert_counters(want: &Naive, registry: &Registry, hours: Option<u64>, path: &str) {
    let snapshot = registry.snapshot();
    for (name, value) in want.counters(hours) {
        assert_eq!(snapshot.counter(&name), Some(value), "{path}: {name}");
    }
}

/// A fresh per-hour store under `name` holding `hours`, and the window
/// they fill.
fn write_store(name: &str, hours: &[HourTraffic]) -> (PathBuf, FlowStore, AnalysisWindow) {
    let dir = std::env::temp_dir().join(format!("iotscope-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    for hour in hours {
        store.write_hour(hour.hour, &hour.flows).unwrap();
    }
    let window = AnalysisWindow::new(hours[0].hour, hours.len() as u32).unwrap();
    (dir, store, window)
}

/// Run `store` through the pipeline over `window` at each of `threads`,
/// comparing result and counters with `want`.
fn assert_store_runs(
    db: &DeviceDb,
    store: &FlowStore,
    window: AnalysisWindow,
    threads: &[usize],
    want: &Naive,
    path: &str,
) {
    for &threads in threads {
        let registry = Registry::new();
        let options = AnalyzeOptions::new()
            .window(window)
            .threads(threads)
            .metrics(&registry);
        let out = AnalysisPipeline::new(db, HOURS)
            .run(store, &options)
            .unwrap();
        let path = format!("{path}, threads={threads}");
        assert_finished(want, &out.analysis, &path);
        assert_counters(want, &registry, Some(u64::from(window.num_hours())), &path);
    }
}

/// Encode `hour` as the store writes it.
fn encoded(hour: &HourTraffic) -> Vec<u8> {
    encode_hour(hour.hour, &hour.flows, StoreOptions::default())
}

/// Split `flows` into slices whose lengths cycle through `cuts`.
fn sliced<'f>(flows: &'f [FlowTuple], cuts: &[usize]) -> Vec<&'f [FlowTuple]> {
    let mut rest = flows;
    let mut slices = Vec::new();
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (slice, tail) = rest.split_at(cut.min(rest.len()));
        slices.push(slice);
        rest = tail;
    }
    slices
}

/// The indices `0..keys.len()` ordered by `keys`: a random permutation
/// for random keys.
fn permutation(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&k| keys[k]);
    order
}

/// Fold `routed` hours into a metered analyzer in the order of `keys`
/// ([`permutation`]), as the parallel pipeline's fold owner takes them
/// in whatever order its routers finish; check the result and the
/// counters against `want`.
fn fold_in_any_order(
    db: &DeviceDb,
    routed: Vec<RoutedHour>,
    keys: &[u64],
    want: &Naive,
    path: &str,
) {
    let mut routed: Vec<Option<RoutedHour>> = routed.into_iter().map(Some).collect();
    let registry = Registry::new();
    let mut an = Analyzer::with_metrics(db, HOURS, &registry);
    for k in permutation(&keys[..routed.len()]) {
        an.apply_routed(&routed[k].take().expect("each hour folds once"));
    }
    assert_finished(want, &an.finish(), path);
    assert_counters(want, &registry, None, path);
}

/// Fold `store`'s hours of `window` as `investigate --intel` does: each
/// hour fetched and decoded once into the pair of the analyzer's and the
/// behavior fold's sinks.
fn fold_store(
    db: &DeviceDb,
    store: &FlowStore,
    window: AnalysisWindow,
) -> (HashMap<Ipv4Addr, BehaviorVector>, Analysis) {
    let mut an = Analyzer::new(db, HOURS);
    let mut fold = BehaviorFold::new(db, HOURS);
    let stored = StoredWindow::of(store, window);
    let source = HourSource::stored(store, &stored);
    for k in 0..source.len() {
        let interval = source.interval(k);
        let mut both = (an.begin_hour(interval), fold.begin_hour(interval));
        source.visit(k, &mut both).unwrap();
        both.0.finish();
    }
    (fold.finish(), an.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `AnalysisPipeline::run` from memory at 0, 1, 2 and 3..=8 threads
    /// — more workers than hours — with its stable counters.
    #[test]
    fn memory_pipeline(seed: u64, hours in 1u32..=4, big: bool, many in 3usize..=8) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let want = oracle::analyze(&db, HOURS, &traffic);
        for threads in [0, 1, 2, many] {
            let registry = Registry::new();
            let options = AnalyzeOptions::new().threads(threads).metrics(&registry);
            let out = AnalysisPipeline::new(&db, HOURS).run(&traffic, &options).unwrap();
            let path = format!("memory, threads={threads}");
            assert_finished(&want, &out.analysis, &path);
            assert_counters(&want, &registry, Some(u64::from(hours)), &path);
        }
    }

    /// The pipeline over a per-hour store, at the same thread counts.
    #[test]
    fn per_hour_store(seed: u64, hours in 1u32..=4, big: bool, many in 3usize..=8) {
        let db = oracle::inventory();
        let stored = window_hours(&oracle::random_traffic(&db, seed, hours, big));
        let want = oracle::analyze(&db, HOURS, &stored);
        let (dir, store, window) = write_store("per-hour", &stored);
        assert_store_runs(&db, &store, window, &[0, 1, 2, many], &want, "per-hour store");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The pipeline over a segmented store, at one and three threads, on
    /// the handle that compacted it and on a reopened one; compaction
    /// leaves the window's hours as they were.
    #[test]
    fn segmented_store(seed: u64, hours in 1u32..=4, big: bool, hours_per_segment in 1usize..=4) {
        let db = oracle::inventory();
        let stored = window_hours(&oracle::random_traffic(&db, seed, hours, big));
        let want = oracle::analyze(&db, HOURS, &stored);
        let (dir, store, window) = write_store("segmented", &stored);
        let before = StoredWindow::of(&store, window);
        let report = store.compact_to_segments(hours_per_segment).unwrap();
        prop_assert_eq!(report.hours_compacted, stored.len());
        prop_assert_eq!(report.segments_written, stored.len().div_ceil(hours_per_segment));
        let reopened = FlowStore::open(&dir).unwrap();
        for (handle, store) in [("compacting", &store), ("reopened", &reopened)] {
            prop_assert_eq!(&StoredWindow::of(store, window), &before, "{}", handle);
            let path = format!("segmented, {handle}");
            assert_store_runs(&db, store, window, &[1, 3], &want, &path);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `Analyzer::begin_hour` fed by `decode_hour_visit` block by block,
    /// and by `on_flows` in slices of random lengths.
    #[test]
    fn analyzer_sinks(
        seed: u64,
        hours in 1u32..=4,
        big: bool,
        cuts in proptest::collection::vec(1usize..=2 * BLOCK_RECORDS, 1..8),
    ) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let want = oracle::analyze(&db, HOURS, &traffic);
        for path in ["decode_hour_visit", "sliced on_flows"] {
            let registry = Registry::new();
            let mut an = Analyzer::with_metrics(&db, HOURS, &registry);
            for hour in &traffic {
                let mut ingest = an.begin_hour(hour.interval);
                if path == "decode_hour_visit" {
                    let visited =
                        decode_hour_visit(&encoded(hour), DecodeOptions::default(), &mut ingest)
                            .unwrap();
                    prop_assert_eq!(visited.records, hour.flows.len());
                } else {
                    for slice in sliced(&hour.flows, &cuts) {
                        ingest.on_flows(slice);
                    }
                }
                ingest.finish();
            }
            assert_finished(&want, &an.finish(), path);
            assert_counters(&want, &registry, None, path);
        }
    }

    /// The behavior fold against `oracle::behavior`: memory `extract`,
    /// `on_flows` in slices of random lengths, and a per-hour and a
    /// segmented store decoded once per hour into the fold and the
    /// analyzer side by side (the analysis checked too).
    #[test]
    fn behavior_vectors(
        seed: u64,
        hours in 1u32..=4,
        big: bool,
        cuts in proptest::collection::vec(1usize..=2 * BLOCK_RECORDS, 1..8),
        hours_per_segment in 1usize..=4,
    ) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let want = oracle::behavior(&db, HOURS, &traffic);
        prop_assert_eq!(&behavior::extract(&traffic, &db, HOURS), &want, "extract");
        let mut fold = BehaviorFold::new(&db, HOURS);
        for hour in &traffic {
            let mut sink = fold.begin_hour(hour.interval);
            for slice in sliced(&hour.flows, &cuts) {
                sink.on_flows(slice);
            }
        }
        prop_assert_eq!(&fold.finish(), &want, "sliced on_flows");

        let stored = window_hours(&traffic);
        let want_analysis = oracle::analyze(&db, HOURS, &stored);
        let (dir, store, window) = write_store("behavior", &stored);
        let (vectors, analysis) = fold_store(&db, &store, window);
        prop_assert_eq!(&vectors, &want, "per-hour store");
        assert_finished(&want_analysis, &analysis, "per-hour store");
        store.compact_to_segments(hours_per_segment).unwrap();
        let (vectors, analysis) = fold_store(&db, &store, window);
        prop_assert_eq!(&vectors, &want, "segmented store");
        assert_finished(&want_analysis, &analysis, "segmented store");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `StreamingAnalyzer` through `push_hour` (the generated hours, gaps
    /// and all) and through `push_from` a store's hour source (a store's
    /// window): every epoch is the reference of the hours pushed so far.
    #[test]
    fn streaming(seed: u64, hours in 1u32..=4, big: bool) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let stored = window_hours(&traffic);
        let (dir, store, _) = write_store("streaming", &stored);
        let work: Vec<(u32, UnixHour)> = stored.iter().map(|h| (h.interval, h.hour)).collect();
        let source = HourSource::Store { store: &store, work: &work };
        for (path, pushed) in [("push_hour", &traffic), ("push_from store", &stored)] {
            let registry = Registry::new();
            let config = StreamConfig::default();
            let mut stream = StreamingAnalyzer::with_metrics(&db, HOURS, config, &registry);
            for (k, hour) in pushed.iter().enumerate() {
                if path == "push_hour" {
                    stream.push_hour(hour);
                } else {
                    stream.push_from(&source, k).unwrap();
                }
                let epoch = oracle::analyze(&db, HOURS, &pushed[..=k]);
                prop_assert_eq!(&Naive::from(&stream.snapshot()), &epoch, "{} epoch {}", path, k + 1);
            }
            let (analysis, _) = stream.finish();
            let want = oracle::analyze(&db, HOURS, pushed);
            assert_finished(&want, &analysis, path);
            assert_counters(&want, &registry, None, path);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The daemon's data path: `route_ahead` over a store's hour source,
    /// each routed hour folded in order by `push_routed`. Every epoch is
    /// the reference of the hours pushed so far and the counters match;
    /// the alert log, which the reference does not model, is inline
    /// `push_from`'s.
    #[test]
    fn routed_feed(seed: u64, hours in 1u32..=4, big: bool) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let stored = window_hours(&traffic);
        let (dir, store, _) = write_store("routed-feed", &stored);
        let work: Vec<(u32, UnixHour)> = stored.iter().map(|h| (h.interval, h.hour)).collect();
        let source = HourSource::Store { store: &store, work: &work };
        let config = StreamConfig::default();
        let mut inline = StreamingAnalyzer::new(&db, HOURS, config);
        for k in 0..source.len() {
            inline.push_from(&source, k).unwrap();
        }
        let (_, inline_alerts) = inline.finish();
        let want = oracle::analyze(&db, HOURS, &stored);
        let path = "routed feed";
        let registry = Registry::new();
        let mut stream = StreamingAnalyzer::with_metrics(&db, HOURS, config, &registry);
        let pushed = route_ahead(&db, HOURS, source, |feed| {
            let mut pushed = 0;
            for (k, hour) in feed.enumerate() {
                stream.push_routed(&hour.unwrap());
                let epoch = oracle::analyze(&db, HOURS, &stored[..=k]);
                prop_assert_eq!(&Naive::from(&stream.snapshot()), &epoch, "{} epoch {}", path, k + 1);
                pushed += 1;
            }
            Ok(pushed)
        })?;
        prop_assert_eq!(pushed, stored.len(), "{}", path);
        let (analysis, alerts) = stream.finish();
        assert_finished(&want, &analysis, path);
        assert_counters(&want, &registry, None, path);
        prop_assert_eq!(&alerts, &inline_alerts, "{}", path);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `Router`s and one `Analyzer` driven by hand: each hour to a
    /// random one of 1–4 routers, fed decoded blocks or records, and the
    /// routed hours folded by `apply_routed` in a random order.
    #[test]
    fn hand_driven_shards(
        seed: u64,
        hours in 1u32..=4,
        big: bool,
        routers in 1usize..=4,
        plan in proptest::collection::vec((0usize..4, any::<bool>()), 4),
        order in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let mut pool: Vec<Router> = (0..routers).map(|_| Router::new(&db, HOURS)).collect();
        let mut routed = Vec::new();
        for (hour, &(r, decode)) in traffic.iter().zip(&plan) {
            let router = &mut pool[r % routers];
            router.begin_hour(hour.interval);
            if decode {
                decode_hour_visit(&encoded(hour), DecodeOptions::default(), &mut *router).unwrap();
            } else {
                router.on_flows(&hour.flows);
            }
            routed.push(router.finish_hour());
        }
        let want = oracle::analyze(&db, HOURS, &traffic);
        fold_in_any_order(&db, routed, &order, &want, &format!("{routers} routers"));
    }

    /// A corrupt hour next to clean ones under a quarantining decode,
    /// into the sequential analyzer and into 1–4 routers whose hours are
    /// folded in a random order: both fold exactly the flows a
    /// quarantining `CollectSink` keeps, and count only those as
    /// decoded. A strict decode of the corrupt hour fails.
    #[test]
    fn quarantined_blocks(
        seed: u64,
        hours in 1u32..=4,
        routers in 1usize..=4,
        order in proptest::collection::vec(any::<u64>(), 4),
        corrupt in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let db = oracle::inventory();
        // The first hour spans two blocks: a corrupt one may leave the
        // other.
        let traffic = oracle::random_traffic(&db, seed, hours, true);
        let quarantine = DecodeOptions { quarantine: true };
        let mut files = Vec::new();
        let mut kept = Vec::new();
        for (k, hour) in traffic.iter().enumerate() {
            let mut bytes = encoded(hour);
            if k == 0 {
                // Flip payload bytes only: each lands in some block and
                // changes its checksum, leaving header and index intact.
                let blocks = hour.flows.len().div_ceil(BLOCK_RECORDS);
                let index_end = HEADER + 4 + blocks * INDEX_ENTRY;
                prop_assert!(index_end < bytes.len(), "layout mirror out of sync with IOTFT03");
                let payload = bytes.len() - index_end;
                for &(pos, mask) in &corrupt {
                    bytes[index_end + usize::from(pos) % payload] ^= mask | 1;
                }
                prop_assert!(decode_hour(&bytes).is_err(), "a strict decode fails");
            }
            let mut sink = CollectSink::default();
            let visited = decode_hour_visit(&bytes, quarantine, &mut sink).unwrap();
            prop_assert_eq!(visited.quarantined.is_empty(), k > 0);
            let lost: usize = visited.quarantined.iter().map(|q| q.records as usize).sum();
            prop_assert_eq!(visited.records + lost, hour.flows.len());
            let flows = sink.into_flows();
            prop_assert_eq!(visited.records, flows.len());
            kept.push(HourTraffic { flows, ..hour.clone() });
            files.push(bytes);
        }
        let want = oracle::analyze(&db, HOURS, &kept);

        let mut an = Analyzer::new(&db, HOURS);
        for (hour, bytes) in kept.iter().zip(&files) {
            let mut ingest = an.begin_hour(hour.interval);
            let visited = decode_hour_visit(bytes, quarantine, &mut ingest).unwrap();
            ingest.finish();
            prop_assert_eq!(visited.records, hour.flows.len(), "sequential");
        }
        assert_finished(&want, &an.finish(), "quarantined, sequential");

        let mut pool: Vec<Router> = (0..routers).map(|_| Router::new(&db, HOURS)).collect();
        let mut routed = Vec::new();
        for (k, (hour, bytes)) in kept.iter().zip(&files).enumerate() {
            let router = &mut pool[k % routers];
            router.begin_hour(hour.interval);
            let visited = decode_hour_visit(bytes, quarantine, &mut *router).unwrap();
            prop_assert_eq!(visited.records, hour.flows.len(), "routed");
            routed.push(router.finish_hour());
        }
        fold_in_any_order(&db, routed, &order, &want, &format!("quarantined, {routers} routers"));
    }

    /// `TelescopeService::ingest`: the final epoch and the returned
    /// analysis.
    #[test]
    fn telescope_service(seed: u64, hours in 1u32..=4, big: bool) {
        let db = oracle::inventory();
        let traffic = oracle::random_traffic(&db, seed, hours, big);
        let want = oracle::analyze(&db, HOURS, &traffic);
        let isps = IspRegistry::bootstrap("44.0.0.0/8".parse().unwrap());
        let service = TelescopeService::new(db, isps, HOURS);
        let (analysis, _) = service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
        let last = service.snapshot();
        prop_assert_eq!(last.epoch, u64::from(hours));
        prop_assert_eq!(&Served::from(&*last.analysis), &want.served(), "final epoch");
        assert_finished(&want, &analysis, "service");
    }
}
