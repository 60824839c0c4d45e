//! Segmented-store parity: compacting per-hour flowtuple files into
//! IOTSG01 segments must be invisible to every reader. Quarantine
//! behavior, presence checks and raw hour bytes all have to be
//! bit-identical before and after `compact_to_segments`. (Analysis
//! from a segmented store is checked against the naive reference in
//! `oracle.rs`.)

use iotscope_core::pipeline::StoredWindow;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::mmap::RELEASE_GRANULE;
use iotscope_net::protocol::TcpFlags;
use iotscope_net::segment::{Manifest, SegmentStoreBuilder};
use iotscope_net::store::{
    encode_hour, CollectSink, DecodeOptions, FlowStore, QuarantinedBlock, StoreOptions,
    BLOCK_RECORDS,
};
use iotscope_net::time::UnixHour;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
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

    // A dropped hour releases its pages, and the first two hours share
    // the first segment and its first release granule: whichever of the
    // two drops first, the one still held (and a re-fetch of the one
    // dropped) reads its pre-compaction bytes.
    assert!(
        per_hour[0].0.len() + per_hour[1].0.len() > RELEASE_GRANULE,
        "hour 1 must end past the first granule, so dropping it releases hour 0's pages"
    );
    for (dropped, held) in [(0, 1), (1, 0)] {
        let kept = store.fetch_hour_bytes(hours[held]).unwrap();
        let gone = store.fetch_hour_bytes(hours[dropped]).unwrap();
        assert_eq!(&*gone, &per_hour[dropped].0[..]);
        assert_eq!(&*kept, &per_hour[held].0[..]);
        drop(gone);
        assert_eq!(
            &*kept,
            &per_hour[held].0[..],
            "hour {held} changed under a release"
        );
        let again = store.fetch_hour_bytes(hours[dropped]).unwrap();
        assert_eq!(
            &*again,
            &per_hour[dropped].0[..],
            "hour {dropped} re-fetch drifted"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resident size of this process's mapping of a file under `dir` that
/// contains `addr`, from `/proc/self/smaps`, or `None` once that file
/// is unmapped (the address may since have been reused).
#[cfg(target_os = "linux")]
fn mapping_rss_bytes(addr: usize, dir: &std::path::Path) -> Option<usize> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
    let dir = std::fs::canonicalize(dir).unwrap();
    let dir = dir.to_str().unwrap();
    let mut inside = false;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = first.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = (lo..hi).contains(&addr) && line.contains(dir);
                continue;
            }
        }
        if inside {
            if let Some(kb) = line.strip_prefix("Rss:") {
                let kb = kb.trim().trim_end_matches("kB").trim();
                return Some(kb.parse::<usize>().unwrap() * 1024);
            }
        }
    }
    None
}

/// A walk over a segmented store holds the hour it is on, not the
/// segment: once every hour has been fetched, decoded and dropped, each
/// segment mapping still open keeps at most one release granule
/// resident, not the bytes it served.
#[cfg(target_os = "linux")]
#[test]
fn a_segment_walk_keeps_no_dropped_hour_resident() {
    let shared = shared();
    let dir = tmpdir("residency");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let traffic = &shared.traffic[..48];
    for t in traffic {
        store.write_hour(t.hour, &t.flows).unwrap();
    }
    assert_eq!(store.compact_to_segments(16).unwrap().segments_written, 3);
    // Per segment: an address inside its mapping and the bytes decoded
    // out of it.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    for (i, t) in traffic.iter().enumerate() {
        let bytes = store.fetch_hour_bytes(t.hour).unwrap();
        assert!(bytes.is_mapped(), "hour {} should be mmap-backed", t.hour);
        let mut sink = CollectSink::default();
        store
            .visit_hour_for(t.hour, &bytes, DecodeOptions::default(), &mut sink)
            .unwrap();
        assert_eq!(sink.into_flows().len(), t.flows.len());
        if i % 16 == 0 {
            segments.push((bytes.as_ptr() as usize, 0));
        }
        segments.last_mut().unwrap().1 += bytes.len();
    }
    let mut checked = 0;
    for (addr, decoded) in segments {
        let Some(rss) = mapping_rss_bytes(addr, &store.segments_dir()) else {
            continue; // evicted from the open-segment cache: unmapped
        };
        assert!(
            decoded > 4 * RELEASE_GRANULE,
            "{decoded} decoded bytes cannot tell a released segment from a resident one"
        );
        assert!(
            rss <= RELEASE_GRANULE,
            "{rss} bytes of a segment stay resident after its {decoded} bytes were walked"
        );
        checked += 1;
    }
    assert!(
        checked >= 1,
        "the open-segment cache keeps the last segment mapped"
    );
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
