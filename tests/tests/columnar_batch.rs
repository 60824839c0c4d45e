//! The columnar batched path (block-at-a-time decode, sorted-column
//! merge-join correlation, `FlowSink::visit_block`) on the paper
//! scenario, against the per-record naive reference
//! (`iotscope_tests::oracle`): sequentially and routed in parallel, over per-hour
//! and segmented stores, with quarantined corrupt blocks included.
//! (`oracle.rs` runs the same paths on generated hours; legacy v1/v2
//! hours through the pipeline are pinned by `store_golden.rs`.)

use iotscope_core::analysis::Analyzer;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{
    encode_hour, CollectSink, DecodeOptions, FlowSink, FlowStore, StoreOptions, BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_obs::Registry;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use iotscope_tests::oracle::{self, Naive};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-colb-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shared scenario and the reference analysis of its hours, which
/// every store-backed batched run must reproduce.
struct Shared {
    built: BuiltScenario,
    traffic: Vec<HourTraffic>,
    reference: Naive,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(21));
        let traffic = built.scenario.generate();
        let hours = built.scenario.telescope().window.num_hours();
        let reference = oracle::analyze(&built.inventory.db, hours, &traffic);
        Shared {
            built,
            traffic,
            reference,
        }
    })
}

/// Write the shared scenario into a fresh store and return it
/// (`segment_hours` folds the per-hour files into segments).
fn build_store(name: &str, segment_hours: Option<usize>) -> FlowStore {
    let sh = shared();
    let dir = tmpdir(name);
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    sh.built.scenario.write_to_store(&store).unwrap();
    if let Some(h) = segment_hours {
        store.compact_to_segments(h).unwrap();
    }
    store
}

#[test]
fn batched_paths_match_per_record_reference_across_formats() {
    let sh = shared();
    let window = sh.built.scenario.telescope().window;
    let pipeline = AnalysisPipeline::new(&sh.built.inventory.db, window.num_hours());
    let counters = sh.reference.counters(Some(u64::from(window.num_hours())));

    for (name, store) in [
        ("per-hour", build_store("v3", None)),
        ("segmented", build_store("seg", Some(7))),
    ] {
        // Sequential (the analyzer's columnar visit) and parallel
        // (routers over the batched visit_block, one fold).
        for threads in [1, 4] {
            let registry = Registry::new();
            let options = AnalyzeOptions::new()
                .window(window)
                .threads(threads)
                .metrics(&registry);
            let analysis = pipeline.run(&store, &options).unwrap().analysis;
            assert_eq!(
                Naive::from(&analysis),
                sh.reference,
                "{name}, threads={threads}"
            );
            let snapshot = registry.snapshot();
            for (counter, value) in &counters {
                assert_eq!(
                    snapshot.counter(counter),
                    Some(*value),
                    "{name}, threads={threads}: {counter}"
                );
            }
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}

/// A busy hour inflated past two v3 blocks, so block-level behaviour
/// (and quarantine) is observable.
fn multi_block_hour() -> (u32, UnixHour, Vec<FlowTuple>) {
    let sh = shared();
    let busy = sh
        .traffic
        .iter()
        .max_by_key(|h| h.flows.len())
        .expect("scenario has hours");
    let mut flows = Vec::new();
    while flows.len() < 2 * BLOCK_RECORDS + 100 {
        flows.extend_from_slice(&busy.flows);
    }
    (busy.interval, busy.hour, flows)
}

#[test]
fn quarantined_corrupt_blocks_fold_identically_batched_and_per_record() {
    let sh = shared();
    let db = &sh.built.inventory.db;
    let (interval, hour, flows) = multi_block_hour();
    let mut bytes = encode_hour(hour, &flows, StoreOptions::default());
    // The file tail is inside the last block's payload: flipping it
    // corrupts exactly one block, leaving header and index intact.
    let last = bytes.len() - 2;
    bytes[last] ^= 0xff;

    let dir = tmpdir("quarantine");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let path = store.hour_path(hour);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, &bytes).unwrap();
    let quarantine = DecodeOptions { quarantine: true };

    // The reference folds what a quarantining materialised read keeps.
    let mut collected = CollectSink::default();
    let decoded = store
        .visit_hour_for(hour, &bytes, quarantine, &mut collected)
        .unwrap();
    assert_eq!(decoded.quarantined.len(), 1, "exactly one block corrupt");
    let kept = HourTraffic {
        interval,
        hour,
        flows: collected.into_flows(),
    };
    let want = oracle::analyze(db, 143, std::slice::from_ref(&kept));

    // The batched columnar visit with quarantine…
    let mut analyzer = Analyzer::new(db, 143);
    let mut ingest = analyzer.begin_hour(interval);
    let visited = store
        .visit_hour_for(hour, &bytes, quarantine, &mut ingest)
        .unwrap();
    ingest.finish();
    assert_eq!(visited.quarantined, decoded.quarantined);
    assert_eq!(Naive::from(&analyzer.finish()), want, "batched");

    // …and the kept records, ingested one slice at a time.
    let mut analyzer = Analyzer::new(db, 143);
    let mut ingest = analyzer.begin_hour(interval);
    for slice in kept.flows.chunks(1_000) {
        ingest.on_flows(slice);
    }
    ingest.finish();
    assert_eq!(Naive::from(&analyzer.finish()), want, "per-record slices");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any thread count over any store shape reproduces the reference
    /// through the batched visit path.
    #[test]
    fn prop_batched_store_analysis_matches_reference(
        threads in 0usize..48,
        segmented in any::<bool>(),
        seg_hours in 2usize..12,
    ) {
        let sh = shared();
        let window = sh.built.scenario.telescope().window;
        let pipeline = AnalysisPipeline::new(&sh.built.inventory.db, window.num_hours());
        let store = build_store(
            &format!("prop-{threads}-{segmented}-{seg_hours}"),
            segmented.then_some(seg_hours),
        );
        let outcome = pipeline
            .run(&store, &AnalyzeOptions::new().window(window).threads(threads))
            .unwrap();
        prop_assert_eq!(&Naive::from(&outcome.analysis), &sh.reference);
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
