//! Cross-crate store/pipeline integration on the paper scenario: every
//! thread count, fed from the store or from memory, reproduces the
//! naive reference (`iotscope_tests::oracle`); the on-disk path renders
//! the same report as the in-memory path, accounts for every byte it
//! reads, survives the paper's data-quality rules, and fails loudly on
//! corruption.

use iotscope_core::pipeline::{AnalysisPipeline, AnalysisSource, AnalyzeOptions, StoredWindow};
use iotscope_core::report::{Report, ReportContext};
use iotscope_core::Analysis;
use iotscope_net::store::{FlowStore, StoreOptions};
use iotscope_net::time::AnalysisWindow;
use iotscope_obs::Registry;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shared 143-hour scenario written to disk, and the naive
/// reference's analysis of its hours, so the thread-count tests below
/// build neither per case.
struct SharedStore {
    built: BuiltScenario,
    window: AnalysisWindow,
    store: FlowStore,
    traffic: Vec<HourTraffic>,
    reference: Naive,
}

fn shared_store() -> &'static SharedStore {
    static SHARED: OnceLock<SharedStore> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(12));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("shared-prop");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        let traffic = built.scenario.generate();
        let reference = oracle::analyze(&built.inventory.db, window.num_hours(), &traffic);
        SharedStore {
            built,
            window,
            store,
            traffic,
            reference,
        }
    })
}

/// Run `source` over `window` at `threads`, and check the analysis and
/// the stable `analysis.*` and `pipeline.hours_ingested` counters
/// against `want`.
fn assert_run_matches(
    source: AnalysisSource<'_>,
    window: AnalysisWindow,
    threads: usize,
    want: &Naive,
    path: &str,
) {
    let shared = shared_store();
    let registry = Registry::new();
    let options = AnalyzeOptions::new()
        .window(window)
        .threads(threads)
        .stats(true)
        .metrics(&registry);
    let outcome = AnalysisPipeline::new(&shared.built.inventory.db, shared.window.num_hours())
        .run(source, &options)
        .unwrap();
    let analysis = outcome.analysis;
    assert_eq!(&Naive::from(&analysis), want, "{path}, threads={threads}");
    // One worker per hour at most: a worker beyond the hours would
    // route nothing.
    let stats = outcome.stats.expect("stats were requested");
    let hours = stats.hours_ingested as usize;
    assert_eq!(
        stats.threads,
        threads.clamp(1, 64).min(hours),
        "{path}, threads={threads}"
    );
    let ids = analysis.devices.ids();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{path}: device rows");
    let snapshot = registry.snapshot();
    for (name, value) in want.counters(Some(u64::from(window.num_hours()))) {
        assert_eq!(
            snapshot.counter(&name),
            Some(value),
            "{path}, threads={threads}: {name}"
        );
    }
}

/// Any thread count reproduces the reference, fed from the store or
/// from memory, on the full window and on a 3-hour slice (fewer hours
/// than the request: the driver runs one worker per hour).
fn assert_thread_count_matches_sequential(threads: usize) {
    let shared = shared_store();
    let full = shared.window;
    // The store's first three hours fill a three-hour window.
    let slice = &shared.traffic[..3];
    let window = AnalysisWindow::new(full.start(), 3).unwrap();
    let want = oracle::analyze(&shared.built.inventory.db, full.num_hours(), slice);
    for (path, source, window, want) in [
        (
            "store-fed",
            AnalysisSource::from(&shared.store),
            full,
            &shared.reference,
        ),
        (
            "memory-fed",
            AnalysisSource::from(&shared.traffic),
            full,
            &shared.reference,
        ),
        (
            "memory-fed slice",
            AnalysisSource::from(slice),
            window,
            &want,
        ),
        (
            "store-fed slice",
            AnalysisSource::from(&shared.store),
            window,
            &want,
        ),
    ] {
        assert_run_matches(source, window, threads, want, path);
    }
}

/// Zero, the inline driver, small pools, more workers than the 3-hour
/// slice has hours (3 run), and more than the window has (clamped to
/// 64).
#[test]
fn named_thread_counts_match_sequential() {
    for threads in [0, 1, 2, 3, 8, 200] {
        assert_thread_count_matches_sequential(threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_any_thread_count_matches_sequential(threads in 0usize..200) {
        assert_thread_count_matches_sequential(threads);
    }
}

/// A second scenario from memory, sequential and at 2, 3, 8 and 64
/// threads, end to end: every run is the reference.
#[test]
fn sequential_and_parallel_analysis_agree_end_to_end() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(10));
    let traffic = built.scenario.generate();
    let want = oracle::analyze(&built.inventory.db, 143, &traffic);
    let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
    for threads in [1usize, 2, 3, 8, 64] {
        let analysis = pipeline
            .run(&traffic, &AnalyzeOptions::new().threads(threads))
            .unwrap()
            .analysis;
        assert_eq!(Naive::from(&analysis), want, "threads={threads}");
    }
}

/// Asking for read statistics leaves the store-fed analysis the
/// reference at every pool size.
#[test]
fn parallel_store_analysis_matches_sequential_on_full_window() {
    let shared = shared_store();
    let pipeline = AnalysisPipeline::new(&shared.built.inventory.db, shared.window.num_hours());
    for threads in [2usize, 4, 7] {
        let options = AnalyzeOptions::new()
            .window(shared.window)
            .threads(threads)
            .stats(true);
        let result = pipeline.run(&shared.store, &options).unwrap();
        assert_eq!(
            Naive::from(&result.analysis),
            shared.reference,
            "threads={threads}"
        );
        let stats = result.stats.expect("stats were requested");
        assert_eq!(stats.threads, threads);
        assert_eq!(stats.hours_ingested, u64::from(shared.window.num_hours()));
    }
}

#[test]
fn disk_roundtrip_preserves_the_full_report() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(7));
    let window = built.scenario.telescope().window;
    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());

    let traffic = built.scenario.generate();
    let mem = pipeline
        .run(&traffic, &AnalyzeOptions::new())
        .unwrap()
        .analysis;

    let dir = tmpdir("roundtrip");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    built.scenario.write_to_store(&store).unwrap();
    let disk = pipeline
        .run(&store, &AnalyzeOptions::new().window(window))
        .unwrap()
        .analysis;

    let report = |analysis: &Analysis| {
        Report::build(&ReportContext {
            analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: None,
        })
        .render()
    };
    assert_eq!(report(&mem), report(&disk));

    std::fs::remove_dir_all(&dir).unwrap();
}

fn walkdir_size(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    total
}

#[test]
fn missing_day_is_dropped_and_reported() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(9));
    let window = built.scenario.telescope().window;
    let dir = tmpdir("dropday");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    built.scenario.write_to_store(&store).unwrap();
    // Delete 10 hours of day 4 (the April-18-style outage).
    for (interval, hour) in window.iter_intervals() {
        if window.day_of_interval(interval).unwrap() == 4 && interval % 2 == 0 {
            std::fs::remove_file(store.hour_path(hour)).unwrap();
        }
    }
    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
    assert_eq!(StoredWindow::of(&store, window).dropped_days, vec![4]);
    let analysis = pipeline
        .run(&store, &AnalyzeOptions::new().window(window))
        .unwrap()
        .analysis;
    // Day-4 intervals (97..=120) contribute nothing.
    for i in 96..120usize {
        assert_eq!(analysis.tcp_scan[0].packets[i], 0);
        assert_eq!(analysis.udp[1].packets[i], 0);
        assert_eq!(analysis.backscatter_hourly[0][i], 0);
    }
    // Other days still analyzed.
    assert!(analysis.view().total_packets() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_stats_account_for_every_byte_on_disk() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(12));
    let window = built.scenario.telescope().window;
    let dir = tmpdir("stats");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    built.scenario.write_to_store(&store).unwrap();
    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
    let records: u64 = window
        .iter_hours()
        .map(|h| store.read_hour(h).unwrap().len() as u64)
        .sum();
    for threads in [1, 4, 7] {
        let options = AnalyzeOptions::new()
            .window(window)
            .threads(threads)
            .stats(true);
        let stats = pipeline.run(&store, &options).unwrap().stats;
        let stats = stats.expect("stats were requested");
        assert_eq!(stats.threads, threads);
        assert_eq!(stats.hours_ingested, u64::from(window.num_hours()));
        assert_eq!((stats.hours_missing, stats.hours_skipped), (0, 0));
        assert_eq!(stats.bytes_read, walkdir_size(store.root()));
        assert_eq!(stats.records_decoded, records, "threads={threads}");
        assert!(stats.wall_time > std::time::Duration::ZERO);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two corrupt hours: every thread count reports the earlier one, as a
/// sequential read would hit it first.
#[test]
fn corrupt_hour_surfaces_codec_error_from_parallel_path() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(13));
    let window = built.scenario.telescope().window;
    let dir = tmpdir("par-corrupt");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    built.scenario.write_to_store(&store).unwrap();
    // Corrupt an hour in the middle of the window so workers are busy
    // on both sides of it when the failure hits, and a later one.
    let victim_interval = window.num_hours() / 2;
    let hour_of = |interval: u32| {
        window
            .iter_intervals()
            .find(|(i, _)| *i == interval)
            .map(|(_, h)| h)
            .unwrap()
    };
    for interval in [victim_interval, victim_interval + 30] {
        let path = store.hour_path(hour_of(interval));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
    }
    let victim = hour_of(victim_interval);

    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
    for threads in [1usize, 2, 4, 16] {
        let err = pipeline
            .run(
                &store,
                &AnalyzeOptions::new().window(window).threads(threads),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("checksum"),
            "threads={threads} got: {err}"
        );
        assert!(
            format!("{err}").starts_with(&format!("{victim} (interval {victim_interval}): ")),
            "threads={threads} got: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_device_db_correlates_nothing() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(11));
    let traffic = built.scenario.generate();
    let empty = iotscope_devicedb::DeviceDb::new();
    let pipeline = AnalysisPipeline::new(&empty, 143);
    let analysis = pipeline
        .run(&traffic, &AnalyzeOptions::new())
        .unwrap()
        .analysis;
    assert!(analysis.devices.is_empty());
    assert!(analysis.unmatched_flows > 0);
    let flows: u64 = traffic.iter().map(|h| h.flows.len() as u64).sum();
    assert_eq!(analysis.unmatched_flows, flows);
}
