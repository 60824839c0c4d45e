//! Cross-crate store/pipeline integration: the on-disk path must produce
//! the same analysis as the in-memory path, survive the paper's
//! data-quality rules, and fail loudly on corruption.

use iotscope_core::pipeline::{AnalysisPipeline, AnalysisSource, AnalyzeOptions, StoredWindow};
use iotscope_core::report::{Report, ReportContext};
use iotscope_core::Analysis;
use iotscope_net::store::{FlowStore, StoreOptions};
use iotscope_net::time::AnalysisWindow;
use iotscope_obs::{Registry, Snapshot, SnapshotEntry};
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shared 143-hour scenario written to disk, so the property tests
/// below don't rebuild it per case. The sequential store analysis is
/// the reference every parallel configuration must reproduce.
struct SharedStore {
    built: BuiltScenario,
    window: AnalysisWindow,
    store: FlowStore,
    traffic: Vec<iotscope_telescope::HourTraffic>,
    sequential: Analysis,
}

fn shared_store() -> &'static SharedStore {
    static SHARED: OnceLock<SharedStore> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(12));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("shared-prop");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
        let sequential = pipeline
            .run(&store, &AnalyzeOptions::new().window(window))
            .unwrap()
            .analysis;
        let traffic = built.scenario.generate();
        SharedStore {
            built,
            window,
            store,
            traffic,
            sequential,
        }
    })
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

    // The two paths agree on every aggregate the report uses.
    assert_eq!(mem.devices, disk.devices);
    assert_eq!(mem.protocol_packets, disk.protocol_packets);
    assert_eq!(mem.scan_services, disk.scan_services);
    assert_eq!(mem.udp_ports, disk.udp_ports);
    assert_eq!(mem.backscatter_intervals, disk.backscatter_intervals);
    assert_eq!(mem.top5_series, disk.top5_series);

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
fn sequential_and_parallel_analysis_agree_end_to_end() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(10));
    let traffic = built.scenario.generate();
    let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
    let seq = pipeline
        .run(&traffic, &AnalyzeOptions::new())
        .unwrap()
        .analysis;
    for threads in [2usize, 3, 8, 64] {
        let par = pipeline
            .run(&traffic, &AnalyzeOptions::new().threads(threads))
            .unwrap()
            .analysis;
        assert_eq!(seq.devices, par.devices, "threads={threads}");
        assert_eq!(seq.scan_services, par.scan_services);
        assert_eq!(seq.backscatter_intervals, par.backscatter_intervals);
    }
}

#[test]
fn parallel_store_analysis_matches_sequential_on_full_window() {
    let shared = shared_store();
    let pipeline = AnalysisPipeline::new(&shared.built.inventory.db, shared.window.num_hours());
    for threads in [2usize, 4, 7] {
        let result = pipeline
            .run(
                &shared.store,
                &AnalyzeOptions::new()
                    .window(shared.window)
                    .threads(threads)
                    .stats(true),
            )
            .unwrap();
        let par = result.analysis;
        assert_eq!(shared.sequential.devices, par.devices, "threads={threads}");
        assert_eq!(shared.sequential.protocol_packets, par.protocol_packets);
        assert_eq!(shared.sequential.scan_services, par.scan_services);
        assert_eq!(shared.sequential.udp_ports, par.udp_ports);
        assert_eq!(
            shared.sequential.backscatter_intervals,
            par.backscatter_intervals
        );
        assert_eq!(shared.sequential.top5_series, par.top5_series);
        assert_eq!(shared.sequential.unmatched_flows, par.unmatched_flows);

        let stats = result.stats.expect("stats were requested");
        assert_eq!(stats.threads, threads);
        assert_eq!(stats.hours_ingested, u64::from(shared.window.num_hours()));
        assert_eq!(stats.hours_missing, 0);
        assert_eq!(stats.hours_skipped, 0);
        assert!(stats.bytes_read > 0);
        assert!(stats.records_decoded > 0);
        assert!(stats.wall_time > std::time::Duration::ZERO);
    }
}

#[test]
fn store_stats_account_for_every_byte_on_disk() {
    let shared = shared_store();
    let pipeline = AnalysisPipeline::new(&shared.built.inventory.db, shared.window.num_hours());
    let result = pipeline
        .run(
            &shared.store,
            &AnalyzeOptions::new()
                .window(shared.window)
                .threads(4)
                .stats(true),
        )
        .unwrap();
    let stats = result.stats.expect("stats were requested");
    assert_eq!(stats.bytes_read, walkdir_size(shared.store.root()));
    let records: u64 = shared
        .window
        .iter_hours()
        .map(|h| shared.store.read_hour(h).unwrap().len() as u64)
        .sum();
    assert_eq!(stats.records_decoded, records);
}

/// The stable entries of `snapshot` a memory-fed run can have too:
/// everything but the store's own read counters.
fn stable_sans_store(snapshot: &Snapshot) -> Vec<SnapshotEntry> {
    let stable = snapshot.stable_only();
    let entries = stable.entries().iter();
    entries
        .filter(|e| !e.name.starts_with("store."))
        .cloned()
        .collect()
}

/// Any thread count must reproduce the sequential result exactly, fed
/// from the store or from memory — the same `Analysis` and the same
/// stable (non-timing) metrics as a single-threaded run — on the full
/// window and on a 3-hour slice (fewer hours than workers: the sharded
/// driver runs with idle routers).
fn assert_thread_count_matches_sequential(threads: usize) {
    let shared = shared_store();
    let pipeline = AnalysisPipeline::new(&shared.built.inventory.db, shared.window.num_hours());
    let run = |source: AnalysisSource<'_>, window: AnalysisWindow, threads: usize| {
        let registry = Registry::new();
        let options = AnalyzeOptions::new()
            .window(window)
            .threads(threads)
            .metrics(&registry);
        let outcome = pipeline.run(source, &options).unwrap();
        (outcome.analysis, registry.snapshot())
    };

    let (base, base_metrics) = run((&shared.store).into(), shared.window, 1);
    assert_eq!(base, shared.sequential);
    let (stored, stored_metrics) = run((&shared.store).into(), shared.window, threads);
    assert_eq!(stored, shared.sequential, "store-fed, threads={threads}");
    // Work counters — store bytes/records, hours ingested, analysis
    // class totals — are deterministic; only timings/gauges vary.
    assert_eq!(
        stored_metrics.stable_only(),
        base_metrics.stable_only(),
        "store-fed stable metrics, threads={threads}"
    );
    let (mem, mem_metrics) = run((&shared.traffic).into(), shared.window, threads);
    assert_eq!(mem, shared.sequential, "memory-fed, threads={threads}");
    assert_eq!(
        stable_sans_store(&mem_metrics),
        stable_sans_store(&base_metrics),
        "memory-fed stable metrics, threads={threads}"
    );

    // The store's first three hours fill a three-hour window.
    let window = AnalysisWindow::new(shared.window.start(), 3).unwrap();
    let (seq_slice, seq_slice_metrics) = run((&shared.traffic[..3]).into(), window, 1);
    for (fed, source) in [
        ("memory", AnalysisSource::from(&shared.traffic[..3])),
        ("store", AnalysisSource::from(&shared.store)),
    ] {
        let (slice, slice_metrics) = run(source, window, threads);
        assert_eq!(slice, seq_slice, "{fed}-fed slice, threads={threads}");
        assert_eq!(
            stable_sans_store(&slice_metrics),
            stable_sans_store(&seq_slice_metrics),
            "{fed}-fed slice stable metrics, threads={threads}"
        );
    }
}

/// Zero, the inline driver, small pools, more workers than the 3-hour
/// slice has hours, and more than the window has (clamped to 64).
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

#[test]
fn corrupt_hour_surfaces_codec_error_from_parallel_path() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(13));
    let window = built.scenario.telescope().window;
    let dir = tmpdir("par-corrupt");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    built.scenario.write_to_store(&store).unwrap();
    // Corrupt an hour in the middle of the window so workers are busy
    // on both sides of it when the failure hits.
    let victim_interval = window.num_hours() / 2;
    let victim = window
        .iter_intervals()
        .find(|(i, _)| *i == victim_interval)
        .map(|(_, h)| h)
        .unwrap();
    let path = store.hour_path(victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
    for threads in [1usize, 4, 16] {
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
