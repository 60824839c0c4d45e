//! The columnar batched path (block-at-a-time decode + sorted-column
//! merge-join correlation + `FlowSink::visit_block`) must be
//! bit-identical to the per-record reference: full `Analysis` equality
//! and `stable_only()` metric snapshots, sequentially and sharded, over
//! per-hour and segmented stores, with quarantined corrupt blocks
//! included. (Legacy v1/v2 hours through the pipeline are pinned by
//! `store_golden.rs`.)

use iotscope_core::analysis::{Analysis, Analyzer};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_net::store::{encode_hour, CollectSink, DecodeOptions, FlowStore, StoreOptions};
use iotscope_net::time::UnixHour;
use iotscope_obs::Registry;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-colb-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shared scenario plus the per-record in-memory reference analysis
/// every store-backed batched run must reproduce exactly.
struct Shared {
    built: BuiltScenario,
    traffic: Vec<HourTraffic>,
    reference: Analysis,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(21));
        let traffic = built.scenario.generate();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        // In-memory ingest correlates per record — the reference the
        // columnar merge-join paths are pinned to.
        let reference = pipeline
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
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

    let stores: Vec<(&str, FlowStore)> = vec![
        ("per-hour", build_store("v3", None)),
        ("segmented", build_store("seg", Some(7))),
    ];

    for (name, store) in &stores {
        // Sequential (columnar visit path) and sharded (routers with the
        // batched visit_block) both reproduce the per-record reference —
        // full-struct equality, not per-field spot checks.
        let seq_registry = Registry::new();
        let seq = pipeline
            .run(
                store,
                &AnalyzeOptions::new().window(window).metrics(&seq_registry),
            )
            .unwrap();
        assert_eq!(seq.analysis, sh.reference, "{name} sequential");

        let shard_registry = Registry::new();
        let sharded = pipeline
            .run(
                store,
                &AnalyzeOptions::new()
                    .window(window)
                    .threads(4)
                    .metrics(&shard_registry),
            )
            .unwrap();
        assert_eq!(sharded.analysis, sh.reference, "{name} sharded");
        assert_eq!(
            seq_registry.snapshot().stable_only(),
            shard_registry.snapshot().stable_only(),
            "{name} stable metrics"
        );
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}

/// Pick a busy hour and inflate it past two v3 blocks so block-level
/// behavior (and quarantine) is observable.
fn multi_block_hour() -> (u32, UnixHour, Vec<iotscope_net::flowtuple::FlowTuple>) {
    let sh = shared();
    let busy = sh
        .traffic
        .iter()
        .max_by_key(|h| h.flows.len())
        .expect("scenario has hours");
    let mut flows = Vec::new();
    while flows.len() < 2 * 4096 + 100 {
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

    // Per-record reference: quarantining materialized read, then the
    // record-at-a-time ingest.
    let mut collected = CollectSink::default();
    let decoded = store
        .visit_hour_for(
            hour,
            &bytes,
            DecodeOptions { quarantine: true },
            &mut collected,
        )
        .unwrap();
    assert_eq!(decoded.quarantined.len(), 1, "exactly one block corrupt");
    let mut reference = Analyzer::new(db, 143);
    reference.ingest_hour(&HourTraffic {
        interval,
        hour,
        flows: collected.into_flows(),
    });
    let reference = reference.finish();

    // The batched columnar visit with quarantine must match.
    let mut analyzer = Analyzer::new(db, 143);
    let mut ingest = analyzer.begin_hour(interval);
    let visited = store
        .visit_hour_for(
            hour,
            &bytes,
            DecodeOptions { quarantine: true },
            &mut ingest,
        )
        .unwrap();
    ingest.finish();
    assert_eq!(visited.quarantined, decoded.quarantined);
    assert_eq!(analyzer.finish(), reference);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any thread count over any store shape reproduces the per-record
    /// reference analysis through the batched visit path.
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
        prop_assert_eq!(&outcome.analysis, &sh.reference);
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
