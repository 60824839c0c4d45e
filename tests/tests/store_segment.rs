//! Segmented-store parity: compacting per-hour flowtuple files into
//! IOTSG01 segments must be invisible to every reader. Analysis output,
//! quarantine behavior, and raw hour bytes all have to be bit-identical
//! before and after `compact_to_segments`, sequentially and in
//! sharded-parallel mode, on arbitrary subsets of the paper window.

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions, StoredWindow};
use iotscope_core::Analysis;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::TcpFlags;
use iotscope_net::segment::{Manifest, SegmentStoreBuilder};
use iotscope_net::store::{
    encode_hour, CollectSink, DecodeOptions, FlowStore, QuarantinedBlock, StoreOptions,
    BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-seg-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shared tiny scenario, generated once; every case writes its own
/// store from slices of this traffic.
struct Shared {
    built: BuiltScenario,
    traffic: Vec<HourTraffic>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(21));
        let traffic = built.scenario.generate();
        Shared { built, traffic }
    })
}

/// The aggregates the report is built from; if these agree, the two
/// stores are indistinguishable to everything downstream.
fn assert_same_analysis(a: &Analysis, b: &Analysis, what: &str) {
    assert_eq!(a.devices, b.devices, "{what}: devices");
    assert_eq!(a.protocol_packets, b.protocol_packets, "{what}: protocol");
    assert_eq!(a.scan_services, b.scan_services, "{what}: scans");
    assert_eq!(a.udp_ports, b.udp_ports, "{what}: udp ports");
    assert_eq!(
        a.backscatter_intervals, b.backscatter_intervals,
        "{what}: backscatter"
    );
    assert_eq!(a.top5_series, b.top5_series, "{what}: top5");
    assert_eq!(a.unmatched_flows, b.unmatched_flows, "{what}: unmatched");
}

/// Deterministic synthetic hour with exactly `n` records, so block
/// boundary cases (`n % BLOCK_RECORDS == 0`) can be pinned.
fn synth_hour(hour: u64, n: usize) -> Vec<FlowTuple> {
    let mut state = hour | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let r = next();
            FlowTuple::tcp(
                Ipv4Addr::from(0x0a00_0000 | (i as u32 % 251)),
                Ipv4Addr::from(0x2c00_0000 | (r as u32 & 0x00ff_ffff)),
                1024 + (r >> 24) as u16 % 50_000,
                if i % 2 == 0 { 23 } else { 2323 },
                TcpFlags::SYN,
            )
            .with_packets(1 + (r >> 32) as u32 % 4)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any subset of the window's hours, compacted at any segment
    /// granularity, analyzes bit-identically to the per-hour layout —
    /// sequentially and sharded-parallel.
    #[test]
    fn prop_segmented_analysis_matches_per_hour(
        keep in proptest::collection::vec(any::<bool>(), 143),
        hours_per_segment in 1usize..9,
    ) {
        let shared = shared();
        let window = shared.built.scenario.telescope().window;
        let dir = tmpdir("prop");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        let mut kept = 0usize;
        for (i, t) in shared.traffic.iter().enumerate() {
            // Always keep at least one hour so there is something to
            // compact and analyze.
            if keep[i % keep.len()] || kept == 0 && i == shared.traffic.len() - 1 {
                store.write_hour(t.hour, &t.flows).unwrap();
                kept += 1;
            }
        }
        let pipeline =
            AnalysisPipeline::new(&shared.built.inventory.db, window.num_hours());
        let options = AnalyzeOptions::new().window(window);
        let sharded = AnalyzeOptions::new().window(window).threads(3);
        let stored = StoredWindow::of(&store, window);
        let before = pipeline.run(&store, &options).unwrap();
        let before_sharded = pipeline.run(&store, &sharded).unwrap();

        let report = store.compact_to_segments(hours_per_segment).unwrap();
        prop_assert_eq!(report.hours_compacted, kept);
        prop_assert_eq!(report.segments_written, kept.div_ceil(hours_per_segment));
        prop_assert!(store.manifest_path().is_file());

        // Same store handle and a freshly opened one must both agree.
        let reopened = FlowStore::open(&dir).unwrap();
        for (who, s) in [("cached", &store), ("reopened", &reopened)] {
            let after = pipeline.run(s, &options).unwrap();
            prop_assert_eq!(&StoredWindow::of(s, window), &stored);
            assert_same_analysis(&before.analysis, &after.analysis, who);
            let after_sharded = pipeline.run(s, &sharded).unwrap();
            assert_same_analysis(
                &before_sharded.analysis,
                &after_sharded.analysis,
                &format!("{who} sharded"),
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A quarantining materialised read of `hour`: the salvaged flows and
/// the blocks dropped.
fn read_quarantined(store: &FlowStore, hour: UnixHour) -> (Vec<FlowTuple>, Vec<QuarantinedBlock>) {
    let bytes = store.fetch_hour_bytes(hour).unwrap();
    let mut sink = CollectSink::default();
    let visited = store
        .visit_hour_for(hour, &bytes, DecodeOptions { quarantine: true }, &mut sink)
        .unwrap();
    (sink.into_flows(), visited.quarantined)
}

#[test]
fn quarantine_parity_survives_compaction() {
    let shared = shared();
    let dir = tmpdir("quarantine");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    for t in &shared.traffic[..24] {
        store.write_hour(t.hour, &t.flows).unwrap();
    }
    let healthy_before: Vec<Vec<FlowTuple>> = shared.traffic[..24]
        .iter()
        .filter(|t| t.hour != shared.traffic[11].hour)
        .map(|t| store.read_hour(t.hour).unwrap())
        .collect();
    // Corrupt the final block payload of a mid-window v3 hour: tolerant
    // reads quarantine it, strict reads fail it.
    let victim = shared.traffic[11].hour;
    let path = store.hour_path(victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    let before = read_quarantined(&store, victim);
    assert!(
        !before.1.is_empty(),
        "corruption must land in a quarantinable block"
    );
    let strict_before = store.read_hour(victim).unwrap_err().to_string();
    assert!(strict_before.contains("checksum"), "{strict_before}");

    // Compaction copies v3 files verbatim — the corruption rides along
    // instead of being silently healed or escalated.
    store.compact_to_segments(7).unwrap();
    assert!(!store.hour_path(victim).is_file(), "per-hour file removed");
    let after = read_quarantined(&store, victim);
    assert_eq!(before.0, after.0, "salvaged flows must match");
    assert_eq!(before.1, after.1);
    let strict_after = store.read_hour(victim).unwrap_err().to_string();
    assert_eq!(strict_before, strict_after);

    // And the healthy hours read back identically through the mapped
    // path.
    let healthy_after: Vec<Vec<FlowTuple>> = shared.traffic[..24]
        .iter()
        .filter(|t| t.hour != victim)
        .map(|t| store.read_hour(t.hour).unwrap())
        .collect();
    assert_eq!(healthy_before, healthy_after);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exact_block_multiple_hours_roundtrip_through_segments() {
    let dir = tmpdir("blockmult");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    // One block exactly, two blocks exactly, and one record over — the
    // boundary cases for the v3 index math, per-hour and mapped.
    let sizes = [BLOCK_RECORDS, 2 * BLOCK_RECORDS, 2 * BLOCK_RECORDS + 1];
    let hours: Vec<UnixHour> = (0..sizes.len() as u64)
        .map(|i| UnixHour::new(500_000 + i))
        .collect();
    for (hour, n) in hours.iter().zip(sizes) {
        store.write_hour(*hour, &synth_hour(hour.get(), n)).unwrap();
    }
    let per_hour: Vec<(Vec<u8>, Vec<FlowTuple>)> = hours
        .iter()
        .map(|h| {
            (
                store.fetch_hour_bytes(*h).unwrap().to_vec(),
                store.read_hour(*h).unwrap(),
            )
        })
        .collect();
    store.compact_to_segments(2).unwrap();
    for ((hour, n), (bytes, flows)) in hours.iter().zip(sizes).zip(&per_hour) {
        let fetched = store.fetch_hour_bytes(*hour).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(fetched.is_mapped(), "hour {hour} should be mmap-backed");
        assert_eq!(&*fetched, &bytes[..], "hour {hour} bytes drifted");
        let decoded = store.read_hour(*hour).unwrap();
        assert_eq!(decoded.len(), n);
        assert_eq!(&decoded, flows, "hour {hour} flows drifted");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_final_block_fails_loud_per_hour_and_in_segment() {
    let hour = UnixHour::new(510_000);
    let flows = synth_hour(hour.get(), BLOCK_RECORDS + 77);
    let full = encode_hour(hour, &flows, StoreOptions::default());
    // Chop bytes off the final block's payload; the index still claims
    // the full length, so the decoder must refuse rather than read past
    // the end.
    let truncated = &full[..full.len() - 64];

    let dir = tmpdir("truncated");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let path = store.hour_path(hour);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, truncated).unwrap();
    let per_hour_err = store.read_hour(hour).unwrap_err().to_string();
    assert!(
        per_hour_err.contains("implausible payload length"),
        "{per_hour_err}"
    );

    // The same truncated hour inside a segment fails with the same
    // error through the mapped read path.
    std::fs::remove_file(&path).unwrap();
    let mut builder =
        SegmentStoreBuilder::new(&store.segments_dir(), 4, Manifest::default()).unwrap();
    builder.push(hour, truncated.to_vec()).unwrap();
    builder.finish().unwrap();
    let reopened = FlowStore::open(&dir).unwrap();
    assert!(reopened.has_hour(hour));
    let mapped_err = reopened.read_hour(hour).unwrap_err().to_string();
    assert_eq!(per_hour_err, mapped_err);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn write_hour_shadows_the_segment_copy() {
    let dir = tmpdir("shadow");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let hour = UnixHour::new(520_000);
    let original = synth_hour(hour.get(), 700);
    store.write_hour(hour, &original).unwrap();
    let original_sorted = store.read_hour(hour).unwrap();
    store.compact_to_segments(4).unwrap();
    assert!(!store.hour_path(hour).is_file());
    assert_eq!(store.read_hour(hour).unwrap(), original_sorted);

    // A rewrite lands as a per-hour file that shadows the segment copy…
    let replacement = synth_hour(hour.get() + 99, 300);
    store.write_hour(hour, &replacement).unwrap();
    let fetched = store.fetch_hour_bytes(hour).unwrap();
    assert!(!fetched.is_mapped(), "per-hour file must win");
    let read_back = store.read_hour(hour).unwrap();
    assert_eq!(read_back.len(), replacement.len());
    assert_ne!(read_back, original_sorted);

    // …and deleting the shadow falls back to the untouched segment.
    std::fs::remove_file(store.hour_path(hour)).unwrap();
    assert_eq!(store.read_hour(hour).unwrap(), original_sorted);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn presence_checks_see_segment_resident_hours() {
    let shared = shared();
    let window = shared.built.scenario.telescope().window;
    let dir = tmpdir("presence");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    for t in &shared.traffic {
        store.write_hour(t.hour, &t.flows).unwrap();
    }
    let present_before = StoredWindow::of(&store, window);
    assert_eq!(present_before.work.len() as u32, window.num_hours());
    store.compact_to_segments(50).unwrap();
    assert!(
        store.hours_on_disk().unwrap().is_empty(),
        "no per-hour files left"
    );

    let reopened = FlowStore::open(&dir).unwrap();
    assert_eq!(StoredWindow::of(&reopened, window), present_before);
    assert!(reopened.has_hour(shared.traffic[0].hour));
    assert!(!reopened.has_hour(UnixHour::new(1)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_fails_reads_but_not_presence_checks() {
    let dir = tmpdir("badmanifest");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let hour = UnixHour::new(530_000);
    store
        .write_hour(hour, &synth_hour(hour.get(), 200))
        .unwrap();
    store.compact_to_segments(4).unwrap();

    let manifest = store.manifest_path();
    let mut bytes = std::fs::read(&manifest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&manifest, bytes).unwrap();

    // A fresh handle (no cached manifest) must fail reads loudly but
    // degrade presence checks to "absent" instead of panicking.
    let reopened = FlowStore::open(&dir).unwrap();
    let err = reopened.read_hour(hour).unwrap_err().to_string();
    assert!(err.contains("manifest"), "{err}");
    assert!(!reopened.has_hour(hour));
    std::fs::remove_dir_all(&dir).unwrap();
}
