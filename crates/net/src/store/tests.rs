//! Unit tests for every store layer: `FlowStore`, the v3 format and
//! decode surface, the block kernels (against their test-only
//! references), and the legacy decoder (against bytes fabricated by its
//! test-only encoders).

use super::block::{
    decode_block_columnar_into, decode_block_into, encode_block, encode_block_per_record,
    first_where, fnv1a, fnv1a_lockstep, get_packed_column_into, get_rle_column_into,
    prefix_sum_wrapping, put_packed_column, put_packed_column_per_bit, put_rle_column,
    put_varint_wide, swar_varint, take_varint, unzigzag, unzigzag_prefix_sum, zigzag, BlockScratch,
    CHECKSUM_LANES, COLUMNS, MODE_PACKED, MODE_RLE,
};
use super::format::{encode_v3, encode_v3_with, FLAG_PACKED, HEADER_HASHED, INDEX_ENTRY};
use super::legacy::{Legacy, MIN_RECORD_BYTES};
use super::*;
use crate::flowtuple::{get_varint, put_varint};
use crate::protocol::{IcmpType, TcpFlags};
use crate::time::AnalysisWindow;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn flows() -> Vec<FlowTuple> {
    vec![
        FlowTuple::tcp(
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(44, 1, 1, 1),
            40000,
            23,
            TcpFlags::SYN,
        ),
        FlowTuple::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(44, 5, 5, 5),
            53,
            37547,
        )
        .with_packets(7),
        FlowTuple::icmp(
            Ipv4Addr::new(5, 5, 5, 5),
            Ipv4Addr::new(44, 7, 7, 7),
            IcmpType::EchoRequest,
        ),
    ]
}

/// Deterministic xorshift flow generator for tests that need more than a
/// handful of records (e.g. multi-block v3 payloads).
fn sample_flows(n: usize) -> Vec<FlowTuple> {
    let mut state = 0x1234_5678_9abc_def0u64 ^ (n as u64);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            let src = Ipv4Addr::from((r >> 32) as u32 | 1);
            let dst = Ipv4Addr::from(0x2c00_0000 | (r as u32 & 0x00ff_ffff));
            match r % 3 {
                0 => FlowTuple::tcp(src, dst, (r >> 16) as u16 | 1024, 23, TcpFlags::SYN)
                    .with_packets((r % 13) as u32 + 1),
                1 => FlowTuple::udp(src, dst, (r >> 24) as u16 | 1024, 5060),
                _ => FlowTuple::icmp(src, dst, IcmpType::EchoRequest),
            }
        })
        .collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotscope-store-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sorted(mut v: Vec<FlowTuple>) -> Vec<FlowTuple> {
    v.sort_by_key(|f| (u32::from(f.src_ip), u32::from(f.dst_ip), f.dst_port));
    v
}

/// A v3 hour in the layout archived before bit-packing — header flag
/// clear, no mode bytes, every column RLE varint deltas — built by the
/// per-record oracle.
fn encode_v3_flag_clear(hour: UnixHour, flows: &[FlowTuple], sorted: bool) -> Vec<u8> {
    encode_v3_with(hour, flows, sorted, 0, |chunk, out| {
        out.extend_from_slice(&encode_block_per_record(chunk, false))
    })
}

#[test]
fn roundtrip_delta_and_plain() {
    for delta in [true, false] {
        let hour = UnixHour::new(414_432);
        let bytes = encode_v3(hour, &flows(), delta);
        let (h, back) = decode_hour(&bytes).unwrap();
        assert_eq!(h, hour);
        assert_eq!(sorted(back), sorted(flows()), "delta={delta}");
    }
}

#[test]
fn plain_mode_preserves_order() {
    let bytes = encode_v3(UnixHour::new(1), &flows(), false);
    let (_, back) = decode_hour(&bytes).unwrap();
    assert_eq!(back, flows());
}

#[test]
fn delta_mode_is_smaller_for_clustered_sources() {
    // Sources in one /24, in scrambled order. Unsorted, the source
    // column bit-packs at 8 bits a record, which sorting into 0/1 delta
    // steps cannot beat by much; it must not lose, though.
    let scrambled: Vec<FlowTuple> = (0..500u32)
        .map(|i| {
            FlowTuple::tcp(
                Ipv4Addr::from(0xC000_0200 + (i.wrapping_mul(2_654_435_761) >> 24)),
                Ipv4Addr::new(44, 0, 0, 1),
                40000,
                23,
                TcpFlags::SYN,
            )
        })
        .collect();
    let d = encode_v3(UnixHour::new(1), &scrambled, true);
    let p = encode_v3(UnixHour::new(1), &scrambled, false);
    assert!(d.len() <= p.len(), "delta {} vs plain {}", d.len(), p.len());
    // Long per-source runs across a /16, interleaved: unsorted, the
    // source column needs 16 bits a record however it is stored;
    // sorted, each source is one delta and one zero run.
    let runs: Vec<FlowTuple> = (0..4096u32)
        .map(|i| {
            FlowTuple::tcp(
                Ipv4Addr::from(0xC0A8_0000 + (i % 64) * 1021),
                Ipv4Addr::new(44, 0, 0, 1),
                40000,
                23,
                TcpFlags::SYN,
            )
        })
        .collect();
    let d = encode_v3(UnixHour::new(1), &runs, true);
    let p = encode_v3(UnixHour::new(1), &runs, false);
    assert!(d.len() < p.len(), "delta {} vs plain {}", d.len(), p.len());
}

#[test]
fn only_v3_is_writable() {
    assert_eq!("v3".parse::<StoreFormat>(), Ok(StoreFormat::V3));
    for old in ["v2", "v1", "2"] {
        let err = old.parse::<StoreFormat>().unwrap_err();
        assert!(err.contains("v3 is the only writable format"), "{err}");
    }
}

#[test]
fn empty_hour_roundtrips() {
    let bytes = encode_hour(UnixHour::new(7), &[], StoreOptions::default());
    let (h, back) = decode_hour(&bytes).unwrap();
    assert_eq!(h, UnixHour::new(7));
    assert!(back.is_empty());
}

#[test]
fn bad_magic_rejected() {
    let mut bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
    bytes[0] = b'X';
    assert!(matches!(decode_hour(&bytes), Err(NetError::Codec(_))));
}

#[test]
fn corruption_detected_by_checksum() {
    let mut bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    let err = decode_hour(&bytes).unwrap_err();
    assert!(format!("{err}").contains("checksum"));
}

#[test]
fn truncation_detected() {
    let bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
    for cut in [0, 5, 20, bytes.len() - 1] {
        assert!(decode_hour(&bytes[..cut]).is_err(), "cut={cut}");
    }
}

#[test]
fn trailing_garbage_detected() {
    let mut bytes = encode_v3(UnixHour::new(1), &flows(), false);
    // Appending bytes breaks the checksum; to test the trailing-byte
    // check specifically, rebuild with a forged checksum.
    let extra = [0u8; 3];
    bytes.extend_from_slice(&extra);
    assert!(decode_hour(&bytes).is_err());
}

#[test]
fn store_write_read_cycle() {
    let dir = tmpdir("cycle");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let hour = UnixHour::from_unix_secs(AnalysisWindow::PAPER_START_SECS);
    store.write_hour(hour, &flows()).unwrap();
    assert!(store.has_hour(hour));
    assert!(!store.has_hour(hour.next()));
    let back = store.read_hour(hour).unwrap();
    assert_eq!(sorted(back), sorted(flows()));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_missing_hour_is_io_error() {
    let dir = tmpdir("missing");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let err = store.read_hour(UnixHour::new(42)).unwrap_err();
    assert!(matches!(err, NetError::Io(_)));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_detects_renamed_hour_file() {
    let dir = tmpdir("renamed");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let h1 = UnixHour::new(100);
    let h2 = UnixHour::new(101);
    store.write_hour(h1, &flows()).unwrap();
    fs::create_dir_all(store.hour_path(h2).parent().unwrap()).unwrap();
    fs::rename(store.hour_path(h1), store.hour_path(h2)).unwrap();
    let err = store.read_hour(h2).unwrap_err();
    assert!(format!("{err}").contains("claims hour"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hours_present_and_missing_partition_window() {
    let dir = tmpdir("present");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let window = AnalysisWindow::short(5);
    let hours: Vec<UnixHour> = window.iter_hours().collect();
    store.write_hour(hours[0], &flows()).unwrap();
    store.write_hour(hours[3], &[]).unwrap();
    // An empty hour file is present.
    let (present, missing): (Vec<UnixHour>, Vec<UnixHour>) =
        window.iter_hours().partition(|h| store.has_hour(*h));
    assert_eq!(present, [hours[0], hours[3]]);
    assert_eq!(missing.len(), 3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_rejects_missing_root() {
    assert!(FlowStore::open("/definitely/not/here-iotscope").is_err());
}

#[test]
fn files_group_by_day_directory() {
    let store = FlowStore::at(PathBuf::from("/data"));
    let p = store.hour_path(UnixHour::new(49));
    assert_eq!(p, PathBuf::from("/data/day-2/hour-49.ft"));
}

#[test]
fn v1_files_still_decode() {
    for delta in [true, false] {
        let hour = UnixHour::new(414_432);
        let bytes = Legacy::V1.encode(hour, &flows(), delta);
        assert_eq!(&bytes[..7], b"IOTFT01");
        let (h, back) = decode_hour(&bytes).unwrap();
        assert_eq!(h, hour);
        assert_eq!(sorted(back), sorted(flows()), "delta={delta}");
    }
}

#[test]
fn new_files_are_v3() {
    let bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
    assert_eq!(&bytes[..7], b"IOTFT03");
}

#[test]
fn header_corruption_detected_in_v2_and_v3() {
    // Any header byte flip — flags, hour, or count — must fail the
    // checksum (v1's payload-only hash missed all of these). In v3
    // the header hash additionally covers the block index.
    let hour = UnixHour::new(414_432);
    for clean in [
        Legacy::V2.encode(hour, &flows(), true),
        encode_hour(hour, &flows(), StoreOptions::default()),
    ] {
        let magic = String::from_utf8_lossy(&clean[..7]).into_owned();
        for idx in 7..HEADER_HASHED {
            let mut bytes = clean.clone();
            bytes[idx] ^= 0x01;
            let err = decode_hour(&bytes).unwrap_err();
            assert!(
                format!("{err}").contains("checksum") || format!("{err}").contains("implausible"),
                "{magic} byte {idx} flip gave: {err}"
            );
        }
    }
}

#[test]
fn v3_index_corruption_fails_even_with_quarantine() {
    let clean = encode_hour(UnixHour::new(9), &flows(), StoreOptions::default());
    // Flip a byte inside the block index (just past the header).
    let mut bytes = clean.clone();
    bytes[HEADER + 2] ^= 0x40;
    let opts = DecodeOptions { quarantine: true };
    let err = decode_hour_visit(&bytes, opts, &mut CollectSink::default()).unwrap_err();
    assert!(
        format!("{err}").contains("checksum") || format!("{err}").contains("implausible"),
        "got: {err}"
    );
}

#[test]
fn forged_count_rejected_without_huge_alloc() {
    // Fabricate a v1 file whose count claims ~4 billion records but
    // whose payload is tiny. Before the plausibility clamp this
    // preallocated count * sizeof(FlowTuple) bytes up front.
    let mut bytes = Legacy::V1.encode(UnixHour::new(1), &flows(), true);
    let count_off = 7 + 1 + 8;
    bytes[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    let err = decode_hour(&bytes).unwrap_err();
    assert!(
        format!("{err}").contains("implausible record count"),
        "got: {err}"
    );
}

#[test]
fn count_plausibility_bound_is_tight() {
    // count == payload/MIN_RECORD_BYTES must pass (minimal delta
    // records really are MIN_RECORD_BYTES long), one more must not.
    let tiny: Vec<FlowTuple> = (0..4u32)
        .map(|i| {
            FlowTuple::tcp(
                Ipv4Addr::from(i + 1),
                Ipv4Addr::from(0u32),
                0,
                0,
                TcpFlags::from_bits(0),
            )
        })
        .map(|f| FlowTuple {
            ip_len: 0,
            ttl: 0,
            ..f
        })
        .collect();
    let bytes = Legacy::V2.encode(UnixHour::new(1), &tiny, true);
    let payload_len = bytes.len() - HEADER;
    assert_eq!(
        payload_len,
        tiny.len() * MIN_RECORD_BYTES,
        "minimal records should hit the MIN_RECORD_BYTES floor"
    );
    assert!(decode_hour(&bytes).is_ok());
}

#[test]
fn write_goes_through_tmp_and_renames() {
    let dir = tmpdir("atomic");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let hour = UnixHour::new(100);
    store.write_hour(hour, &flows()).unwrap();
    let tmp = store.hour_path(hour).with_extension("ft.tmp");
    assert!(!tmp.exists(), "temp file must not survive a clean write");
    assert!(store.has_hour(hour));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn leftover_tmp_file_is_not_an_hour() {
    // An interrupted writer dies between create and rename; the
    // half-written temp file must be invisible to readers.
    let dir = tmpdir("tmpfile");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let window = AnalysisWindow::short(3);
    let hours: Vec<UnixHour> = window.iter_hours().collect();
    store.write_hour(hours[0], &flows()).unwrap();
    let tmp = store.hour_path(hours[1]).with_extension("ft.tmp");
    fs::create_dir_all(tmp.parent().unwrap()).unwrap();
    let full = encode_hour(hours[1], &flows(), StoreOptions::default());
    fs::write(&tmp, &full[..full.len() / 2]).unwrap();
    assert!(!store.has_hour(hours[1]));
    assert!(store.has_hour(hours[0]));
    assert!(matches!(store.read_hour(hours[1]), Err(NetError::Io(_))));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn instrumented_store_counts_reads_writes_and_corruption() {
    let registry = iotscope_obs::Registry::new();
    let dir = tmpdir("metrics");
    let store = FlowStore::create(&dir, StoreOptions::default())
        .unwrap()
        .instrumented(&registry);
    let hours = [UnixHour::new(40), UnixHour::new(41)];
    for h in hours {
        store.write_hour(h, &flows()).unwrap();
    }
    for h in hours {
        store.read_hour(h).unwrap();
    }
    let on_disk: u64 = hours
        .iter()
        .map(|h| std::fs::metadata(store.hour_path(*h)).unwrap().len())
        .sum();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.hours_written"), Some(2));
    assert_eq!(snap.counter("store.hours_read"), Some(2));
    assert_eq!(snap.counter("store.bytes_written"), Some(on_disk));
    assert_eq!(snap.counter("store.bytes_read"), Some(on_disk));
    assert_eq!(
        snap.counter("store.records_written"),
        Some(2 * flows().len() as u64)
    );
    assert_eq!(
        snap.counter("store.records_decoded"),
        Some(2 * flows().len() as u64)
    );
    assert_eq!(snap.counter("store.checksum_failures"), Some(0));

    // Corrupt one file: the failed decode is counted, the partial
    // read still adds its bytes.
    let victim = store.hour_path(hours[0]);
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();
    assert!(store.read_hour(hours[0]).is_err());
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.checksum_failures"), Some(1));
    assert_eq!(snap.counter("store.hours_read"), Some(3));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn detached_store_still_works_without_registry() {
    let dir = tmpdir("detached");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    store.write_hour(UnixHour::new(7), &flows()).unwrap();
    assert_eq!(store.metrics().hours_written.get(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

/// Paper-shaped traffic: scanners in a handful of prefixes, each
/// sweeping dark space on one service port with ephemeral source
/// ports — the workload the v3 columns are designed around.
fn scan_like_flows(n: u32) -> Vec<FlowTuple> {
    (0..n)
        .map(|i| {
            let src = 0x0A00_0000 + (i % 97) * 1021;
            let dst = 0x2C00_0000 + i.wrapping_mul(2_654_435_761) % (1 << 24);
            FlowTuple::tcp(
                Ipv4Addr::from(src),
                Ipv4Addr::from(dst),
                1025 + ((i.wrapping_mul(48_271)) % 64_000) as u16,
                if i % 7 == 0 { 2323 } else { 23 },
                TcpFlags::SYN,
            )
        })
        .collect()
}

#[test]
fn v3_multi_block_roundtrip() {
    let many = scan_like_flows(BLOCK_RECORDS as u32 * 2 + 500);
    let hour = UnixHour::new(77);
    let bytes = encode_hour(hour, &many, StoreOptions::default());
    let mut sink = CollectSink::default();
    let visited = decode_hour_visit(&bytes, DecodeOptions::default(), &mut sink).unwrap();
    assert_eq!(visited.hour, hour);
    assert_eq!(visited.blocks, 3);
    assert!(visited.quarantined.is_empty());
    assert_eq!(sorted(sink.into_flows()), sorted(many));
}

#[test]
fn v3_decodes_identically_to_v2() {
    // Both formats sort delta files the same way, so the decoded
    // record sequence must match exactly, not just as multisets.
    let many = scan_like_flows(6000);
    let hour = UnixHour::new(12);
    let v2 = Legacy::V2.encode(hour, &many, true);
    let v3 = encode_hour(hour, &many, StoreOptions::default());
    assert_eq!(decode_hour(&v2).unwrap().1, decode_hour(&v3).unwrap().1);
}

#[test]
fn v3_is_much_smaller_than_v2_on_scan_traffic() {
    let many = scan_like_flows(20_000);
    let v2 = Legacy::V2.encode(UnixHour::new(1), &many, true);
    let v3 = encode_hour(UnixHour::new(1), &many, StoreOptions::default());
    let (v2_bpr, v3_bpr) = (
        v2.len() as f64 / many.len() as f64,
        v3.len() as f64 / many.len() as f64,
    );
    assert!(
        v3_bpr <= 0.8 * v2_bpr,
        "v3 {v3_bpr:.2} B/record vs v2 {v2_bpr:.2} B/record"
    );
}

#[test]
fn corrupt_block_quarantined_keeps_hour_and_counts_metric() {
    let registry = iotscope_obs::Registry::new();
    let dir = tmpdir("quarantine");
    let store = FlowStore::create(&dir, StoreOptions::default())
        .unwrap()
        .instrumented(&registry);
    let many = scan_like_flows(BLOCK_RECORDS as u32 * 2 + 100);
    let hour = UnixHour::new(50);
    store.write_hour(hour, &many).unwrap();

    // Flip one byte inside the *second* block's payload.
    let path = store.hour_path(hour);
    let mut bytes = fs::read(&path).unwrap();
    let index_end = HEADER + 4 + 3 * INDEX_ENTRY;
    let first_len = u32::from_be_bytes(bytes[HEADER + 8..HEADER + 12].try_into().unwrap()) as usize;
    let target = index_end + first_len + 10;
    bytes[target] ^= 0xff;
    fs::write(&path, &bytes).unwrap();

    // Strict read fails the whole hour.
    assert!(store.read_hour(hour).is_err());
    // A quarantining read keeps the other two blocks.
    let bytes = store.fetch_hour_bytes(hour).unwrap();
    let mut sink = CollectSink::default();
    let visited = store
        .visit_hour_for(hour, &bytes, DecodeOptions { quarantine: true }, &mut sink)
        .unwrap();
    assert_eq!(visited.blocks, 3);
    assert_eq!(visited.quarantined.len(), 1);
    assert_eq!(visited.quarantined[0].index, 1);
    assert_eq!(visited.quarantined[0].records, BLOCK_RECORDS as u32);
    assert!(visited.quarantined[0].reason.contains("checksum"));
    assert_eq!(
        sink.into_flows().len(),
        many.len() - BLOCK_RECORDS,
        "hour survives minus the quarantined block"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.block_checksum_failures"), Some(1));
    assert_eq!(snap.counter("store.blocks_read"), Some(2));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_forged_block_count_rejected() {
    let bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
    // Forge num_blocks to a huge value; the index can't fit.
    let mut forged = bytes.clone();
    forged[HEADER..HEADER + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    let err = decode_hour(&forged).unwrap_err();
    assert!(
        format!("{err}").contains("implausible block count"),
        "got: {err}"
    );
}

#[test]
fn rle_column_roundtrips_and_rejects_overflow() {
    let vals = [5u32, 0, 0, 0, 7, 0, 1, 0, 0];
    let mut buf = Vec::new();
    put_rle_column(&mut buf, &vals);
    let mut slice = buf.as_slice();
    // Pre-populate the reuse buffer to prove it is fully replaced.
    let mut out = vec![99u32; 4];
    get_rle_column_into(&mut slice, vals.len(), &mut out).unwrap();
    assert_eq!(out, vals);
    assert!(slice.is_empty());
    // A zero run claiming more records than the column holds.
    let mut bad = Vec::new();
    put_varint(&mut bad, 0);
    put_varint(&mut bad, 100);
    let err = get_rle_column_into(&mut bad.as_slice(), 3, &mut out).unwrap_err();
    assert!(format!("{err}").contains("zero run"));
}

#[test]
fn put_varint_wide_matches_put_varint_at_every_7_bit_edge() {
    let mut edges = vec![0u32, u32::MAX];
    for k in 1..=4 {
        let p = 1u32 << (7 * k);
        edges.extend([p - 1, p]);
    }
    for v in edges {
        let mut want = Vec::new();
        put_varint(&mut want, v);
        // At the very end of a buffer, behind bytes it must not touch.
        let mut buf = vec![0xee_u8; 3 + 8];
        let len = put_varint_wide(&mut buf, 3, v);
        assert_eq!(len, want.len(), "length of {v:#x}");
        assert_eq!(&buf[3..3 + len], &want[..], "bytes of {v:#x}");
        assert_eq!(&buf[..3], &[0xee; 3], "{v:#x} wrote before its position");
        assert!(buf[3 + len..].iter().all(|&b| b == 0), "{v:#x} overhang");
    }
}

/// [`encode_block`] run the way [`encode_v3`] runs it — appending to
/// bytes already in the output, with a reused scratch — returning only
/// the block's payload.
fn kernel_payload(records: &[&FlowTuple], scratch: &mut ColumnBlock) -> Vec<u8> {
    let mut out = vec![0xa5_u8; 3];
    encode_block(records, scratch, &mut out);
    assert_eq!(&out[..3], &[0xa5; 3], "the kernel must only append");
    out.split_off(3)
}

/// The kernel and the per-record oracle produce the same bytes for
/// `flows` in its given order and reversed (descending sources: every
/// delta wraps), through one scratch; the bytes decode back to `flows`,
/// and so do the oracle's flag-clear bytes. Returns the kernel's
/// payload.
fn assert_kernel_matches_oracle(flows: &[FlowTuple]) -> Vec<u8> {
    let mut scratch = ColumnBlock::default();
    let forward: Vec<&FlowTuple> = flows.iter().collect();
    let reversed: Vec<&FlowTuple> = flows.iter().rev().collect();
    let payload = kernel_payload(&forward, &mut scratch);
    assert_eq!(payload, encode_block_per_record(&forward, true));
    assert_eq!(
        kernel_payload(&reversed, &mut scratch),
        encode_block_per_record(&reversed, true)
    );
    let mut block = ColumnBlock::default();
    decode_block_columnar_into(&payload, flows.len(), true, &mut block).unwrap();
    assert_eq!(block.flows().collect::<Vec<_>>(), flows);
    let flag_clear = encode_block_per_record(&forward, false);
    decode_block_columnar_into(&flag_clear, flows.len(), false, &mut block).unwrap();
    assert_eq!(block.flows().collect::<Vec<_>>(), flows);
    payload
}

/// Each column's `(mode, packed width)` in a packed block payload of
/// `n` records (width `None` for mode 0).
fn column_modes(payload: &[u8], n: usize) -> Vec<(u8, Option<u8>)> {
    let mut buf = payload;
    let mut vals = Vec::new();
    (0..COLUMNS)
        .map(|_| {
            let mode = buf[0];
            buf = &buf[1..];
            if mode == MODE_PACKED {
                let mut head = buf;
                get_varint(&mut head).unwrap();
                let width = head[0];
                get_packed_column_into(&mut buf, n, &mut vals).unwrap();
                (mode, Some(width))
            } else {
                get_rle_column_into(&mut buf, n, &mut vals).unwrap();
                (mode, None)
            }
        })
        .collect()
}

/// A block of `n` records whose every column holds `base + noise`, the
/// noise exactly `width` bits wide (record 0 at the base, record 1 at
/// the top), each narrow field capped to its own width. With `high`,
/// the base is the highest one that fits (`u32::MAX - (2^width - 1)` in
/// the 32-bit columns); otherwise it is small. Protocols stay valid.
fn packed_shape(n: usize, width: u32, high: bool) -> Vec<FlowTuple> {
    use crate::protocol::TransportProtocol;
    let mut state = 0x2545_f491_4f6c_dd1du64 ^ u64::from(width);
    let field = |bits: u32, i: usize, r: u64| {
        let w = width.min(bits);
        let mask = ((1u64 << w) - 1) as u32;
        let noise = match i {
            0 => 0,
            1 => mask,
            _ => r as u32 & mask,
        };
        let top = ((1u64 << bits) - 1) as u32;
        let base = if high { top - mask } else { 3.min(top - mask) };
        base + noise
    };
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = state;
            FlowTuple {
                src_ip: Ipv4Addr::from(field(32, i, r)),
                dst_ip: Ipv4Addr::from(field(32, i, r >> 3)),
                src_port: field(16, i, r >> 5) as u16,
                dst_port: field(16, i, r >> 7) as u16,
                protocol: TransportProtocol::ALL[i % 3],
                ttl: field(8, i, r >> 11) as u8,
                tcp_flags: TcpFlags::from_bits(field(8, i, r >> 13) as u8),
                ip_len: field(16, i, r >> 17) as u16,
                packets: field(32, i, r >> 19),
            }
        })
        .collect()
}

#[test]
fn packed_column_matches_per_bit_reference_at_every_width() {
    for width in 0..=32u32 {
        let top = ((1u64 << width) - 1) as u32;
        for base in [0, 1.min(u32::MAX - top), u32::MAX - top] {
            for n in [1usize, 2, 7, 8, 9, 63, 64, 65, BLOCK_RECORDS] {
                let vals: Vec<u32> = (0..n)
                    .map(|i| match i {
                        0 => base,
                        1 => base + top,
                        _ => base + ((i as u32).wrapping_mul(0x9e37_79b9) & top),
                    })
                    .collect();
                let mut want = Vec::new();
                put_packed_column_per_bit(&mut want, &vals);
                let mut got = vec![0x5a_u8; 2];
                put_packed_column(&mut got, &vals, vals.iter().copied().min().unwrap(), {
                    let max = vals.iter().copied().max().unwrap();
                    32 - (max - base).leading_zeros()
                });
                assert_eq!(&got[..2], &[0x5a; 2], "width {width}: must only append");
                assert_eq!(&got[2..], &want[..], "width {width} base {base:#x} n {n}");
                // At the payload's very end (tail loads) and followed by
                // unrelated bytes (windows past the column).
                for trailer in [&[][..], &[0xff; 9][..]] {
                    let mut bytes = want.clone();
                    bytes.extend_from_slice(trailer);
                    let mut buf = bytes.as_slice();
                    let mut out = vec![7u32; 3];
                    let or = get_packed_column_into(&mut buf, n, &mut out).unwrap();
                    assert_eq!(out, vals, "width {width} base {base:#x} n {n}");
                    assert_eq!(or, vals.iter().fold(0, |a, v| a | v));
                    assert_eq!(buf, trailer);
                }
            }
        }
    }
}

/// A block of `n` records whose fields are laid out column by column as
/// runs of `(kind, value, length)`, repeated to fill the block: kind 0
/// is zero, 1 the field's maximum (5-byte varints, and `u32::MAX`
/// deltas in the 32-bit columns next to a zero), 2 `value` held for the
/// run (zero deltas after its first record), 3 fresh noise every
/// record. Column `zero_column`, if in range, is zero throughout — an
/// all-zero delta column.
fn run_shaped_block(
    n: usize,
    columns: &[Vec<(u8, u32, usize)>],
    zero_column: usize,
) -> Vec<FlowTuple> {
    use crate::protocol::TransportProtocol;
    let cols: Vec<Vec<u32>> = columns
        .iter()
        .enumerate()
        .map(|(c, runs)| {
            let mut vals = Vec::with_capacity(n);
            for &(kind, value, len) in runs.iter().cycle() {
                for i in 0..len {
                    vals.push(match kind {
                        _ if c == zero_column => 0,
                        0 => 0,
                        1 => u32::MAX,
                        2 => value,
                        _ => value.wrapping_mul(0x9e37_79b9).rotate_left(i as u32 % 32) ^ i as u32,
                    });
                }
                if vals.len() >= n {
                    break;
                }
            }
            vals.truncate(n);
            vals
        })
        .collect();
    (0..n)
        .map(|i| FlowTuple {
            src_ip: Ipv4Addr::from(cols[0][i]),
            dst_ip: Ipv4Addr::from(cols[1][i]),
            src_port: cols[2][i] as u16,
            dst_port: cols[3][i] as u16,
            protocol: TransportProtocol::ALL[cols[4][i] as usize % 3],
            ttl: cols[5][i] as u8,
            tcp_flags: TcpFlags::from_bits(cols[6][i] as u8),
            ip_len: cols[7][i] as u16,
            packets: cols[8][i],
        })
        .collect()
}

#[test]
fn encode_block_matches_oracle_on_edge_shapes() {
    let zero = FlowTuple {
        src_ip: Ipv4Addr::from(0),
        dst_ip: Ipv4Addr::from(0),
        src_port: 0,
        dst_port: 0,
        protocol: crate::protocol::TransportProtocol::ALL[0],
        ttl: 0,
        tcp_flags: TcpFlags::from_bits(0),
        ip_len: 0,
        packets: 0,
    };
    let max = FlowTuple {
        src_ip: Ipv4Addr::from(u32::MAX),
        dst_ip: Ipv4Addr::from(0x8000_0000),
        src_port: u16::MAX,
        dst_port: u16::MAX,
        protocol: crate::protocol::TransportProtocol::ALL[2],
        ttl: u8::MAX,
        tcp_flags: TcpFlags::from_bits(u8::MAX),
        ip_len: u16::MAX,
        packets: 0x8000_0000,
    };
    for block in [
        vec![zero],                             // every column all-zero
        vec![max],                              // 5-byte varints, u32::MAX zigzags
        vec![zero, max, zero],                  // u32::MAX deltas both ways
        vec![max; BLOCK_RECORDS],               // one value, then a 4,095-zero run
        vec![zero; BLOCK_RECORDS],              // one run the whole block long
        [vec![zero; 9], vec![max; 9]].concat(), // runs at both ends
    ] {
        assert_kernel_matches_oracle(&block);
    }
    // Packed columns at the widths that matter — 0 (constant), 1, a
    // byte either side of 8, 16, 31 and 32 — over small bases and bases
    // near `u32::MAX`, in full blocks and in blocks short enough that
    // the last column unpacks through the tail load.
    for width in [0, 1, 7, 8, 16, 31, 32] {
        for high in [false, true] {
            for n in [3, BLOCK_RECORDS] {
                let block = packed_shape(n, width, high);
                let payload = assert_kernel_matches_oracle(&block);
                if n < BLOCK_RECORDS {
                    continue; // three records: RLE often wins
                }
                let modes = column_modes(&payload, n);
                // The destination column, noise of exactly `width` bits.
                // A constant near `u32::MAX` is a 5-byte base, which
                // loses to one zigzag delta and a zero run.
                if width > 0 || !high {
                    assert_eq!(
                        modes[1],
                        (MODE_PACKED, Some(width as u8)),
                        "width {width} high {high} n {n}"
                    );
                }
                // Ports and the packet count pack too once noise is
                // wider than a byte.
                if width >= 8 {
                    for c in [2, 3, 8] {
                        assert_eq!(modes[c].0, MODE_PACKED, "column {c} width {width}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The column kernel writes exactly the oracle's bytes on blocks of
    /// 1…4,096 records: zero runs anywhere in a column (both ends
    /// included), all-zero columns, 5-byte varints and `u32::MAX`
    /// deltas, and input in any order (shuffled, sorted, or descending).
    #[test]
    fn prop_encode_block_matches_per_record_oracle(
        n in 1usize..=BLOCK_RECORDS,
        columns in proptest::collection::vec(
            proptest::collection::vec((0u8..4, any::<u32>(), 1usize..700), 1..10),
            COLUMNS,
        ),
        zero_column in 0usize..2 * COLUMNS,
        sort: bool,
    ) {
        let flows = run_shaped_block(n, &columns, zero_column);
        assert_kernel_matches_oracle(&if sort { sorted(flows) } else { flows });
    }
}

/// A sink that also records slice boundaries, to prove streaming
/// really delivers per-block (and that order is preserved).
#[derive(Default)]
struct ChunkSink {
    flows: Vec<FlowTuple>,
    chunks: Vec<usize>,
}

impl FlowSink for ChunkSink {
    fn visit_block(&mut self, block: &ColumnBlock) {
        self.flows.extend(block.flows());
        self.chunks.push(block.len());
    }

    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.flows.extend_from_slice(flows);
        self.chunks.push(flows.len());
    }
}

#[test]
fn visit_matches_materialized_across_formats() {
    let many = scan_like_flows(BLOCK_RECORDS as u32 * 2 + 500);
    let hour = UnixHour::new(33);
    for bytes in [
        encode_hour(hour, &many, StoreOptions::default()),
        encode_v3(hour, &many, false),
        Legacy::V2.encode(hour, &many, true),
        Legacy::V1.encode(hour, &many, true),
    ] {
        let magic = String::from_utf8_lossy(&bytes[..7]).into_owned();
        assert_eq!(claimed_hour(&bytes).unwrap(), hour);
        let (materialized_hour, materialized) = decode_hour(&bytes).unwrap();
        let mut sink = ChunkSink::default();
        let visited = decode_hour_visit(&bytes, DecodeOptions::default(), &mut sink).unwrap();
        assert_eq!(visited.hour, materialized_hour);
        assert_eq!(visited.records, materialized.len());
        assert_eq!(sink.flows, materialized, "{magic}");
        if magic == "IOTFT03" {
            // One slice per block, in order.
            assert_eq!(visited.blocks, 3);
            assert_eq!(sink.chunks.len(), visited.blocks);
            assert_eq!(sink.chunks[0], BLOCK_RECORDS);
        } else {
            assert_eq!(visited.blocks, 1);
            assert_eq!(sink.chunks, vec![many.len()]);
        }
    }
}

#[test]
fn visit_quarantines_like_materialized_decode() {
    let many = scan_like_flows(BLOCK_RECORDS as u32 * 2 + 100);
    let hour = UnixHour::new(60);
    let mut bytes = encode_hour(hour, &many, StoreOptions::default());
    // Flip one byte inside the second block's payload.
    let index_end = HEADER + 4 + 3 * INDEX_ENTRY;
    let first_len = u32::from_be_bytes(bytes[HEADER + 8..HEADER + 12].try_into().unwrap()) as usize;
    bytes[index_end + first_len + 10] ^= 0xff;

    // Strict decodes fail, streaming or materialised.
    let mut sink = ChunkSink::default();
    assert!(decode_hour_visit(&bytes, DecodeOptions::default(), &mut sink).is_err());
    assert!(decode_hour(&bytes).is_err());

    let opts = DecodeOptions { quarantine: true };
    let mut collect = CollectSink::default();
    let materialized = decode_hour_visit(&bytes, opts, &mut collect).unwrap();
    let mut sink = ChunkSink::default();
    let visited = decode_hour_visit(&bytes, opts, &mut sink).unwrap();
    assert_eq!(sink.flows, collect.into_flows());
    assert_eq!(visited.quarantined, materialized.quarantined);
    assert_eq!(visited.quarantined.len(), 1);
    assert_eq!(visited.quarantined[0].index, 1);
    // The corrupt block never reached the sink.
    assert_eq!(sink.chunks.len(), 2);
}

#[test]
fn visit_hour_for_checks_hour_before_feeding_sink() {
    let dir = tmpdir("visit-renamed");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let h1 = UnixHour::new(100);
    let h2 = UnixHour::new(101);
    store.write_hour(h1, &flows()).unwrap();
    fs::create_dir_all(store.hour_path(h2).parent().unwrap()).unwrap();
    fs::rename(store.hour_path(h1), store.hour_path(h2)).unwrap();
    let bytes = store.fetch_hour_bytes(h2).unwrap();
    let mut sink = ChunkSink::default();
    let err = store
        .visit_hour_for(h2, &bytes, DecodeOptions::default(), &mut sink)
        .unwrap_err();
    assert!(format!("{err}").contains("claims hour"));
    assert!(
        sink.flows.is_empty(),
        "misnamed hour must not reach the sink"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_transcodes_legacy_hours_keeping_their_order() {
    let dir = tmpdir("legacy-compact");
    let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
    let many = sample_flows(BLOCK_RECORDS + 300);
    assert_ne!(many, sorted(many.clone()), "input order must be visible");
    let cases = [
        (Legacy::V1, true),
        (Legacy::V1, false),
        (Legacy::V2, true),
        (Legacy::V2, false),
    ];
    let hours: Vec<UnixHour> = (0..cases.len() as u64)
        .map(|i| UnixHour::new(414_456 + i))
        .collect();
    for (hour, (legacy, delta)) in hours.iter().zip(cases) {
        let path = store.hour_path(*hour);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, legacy.encode(*hour, &many, delta)).unwrap();
    }
    let before: Vec<Vec<FlowTuple>> = hours.iter().map(|h| store.read_hour(*h).unwrap()).collect();
    for (flows, (legacy, delta)) in before.iter().zip(cases) {
        let want = if delta {
            sorted(many.clone())
        } else {
            many.clone()
        };
        assert_eq!(flows, &want, "{legacy:?} delta={delta} before compaction");
    }

    let report = store.compact_to_segments(3).unwrap();
    assert_eq!(report.hours_compacted, cases.len());
    for ((hour, flows), (legacy, delta)) in hours.iter().zip(&before).zip(cases) {
        assert!(!store.hour_path(*hour).is_file(), "per-hour file removed");
        let bytes = store.fetch_hour_bytes(*hour).unwrap();
        assert_eq!(&bytes[..7], b"IOTFT03", "{legacy:?} transcoded to v3");
        assert_eq!(bytes[7] & 1 != 0, delta, "{legacy:?} delta flag preserved");
        assert_eq!(
            &store.read_hour(*hour).unwrap(),
            flows,
            "{legacy:?} delta={delta} reads back bit-identically"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zigzag_roundtrips_extremes() {
    for v in [0, 1, -1, i32::MAX, i32::MIN, 65_535, -65_535] {
        assert_eq!(unzigzag(zigzag(v)), v);
    }
}

#[test]
fn restamp_hour_matches_a_fresh_encode_in_every_format() {
    let flows = sample_flows(900);
    let from = UnixHour::new(414_456);
    let to = UnixHour::new(700_123);
    for delta in [true, false] {
        let mut bytes = encode_v3(from, &flows, delta);
        restamp_hour(&mut bytes, to).unwrap();
        assert_eq!(
            bytes,
            encode_v3(to, &flows, delta),
            "restamp must be bit-identical to re-encoding at the new hour"
        );
        let (hour, back) = decode_hour(&bytes).unwrap();
        assert_eq!(hour, to);
        assert_eq!(back.len(), flows.len());
    }
    // Legacy hours are read-only: restamp refuses them, untouched.
    for legacy in [Legacy::V1, Legacy::V2] {
        let mut bytes = legacy.encode(from, &flows, true);
        let before = bytes.clone();
        let err = restamp_hour(&mut bytes, to).unwrap_err().to_string();
        assert!(err.contains("read-only"), "{legacy:?}: {err}");
        assert_eq!(bytes, before, "{legacy:?} bytes must be untouched");
    }
}

#[test]
fn restamp_hour_rejects_garbage_without_touching_it() {
    let to = UnixHour::new(1);
    let mut short = vec![0u8; HEADER - 1];
    assert!(restamp_hour(&mut short, to).is_err());

    let mut bad_magic = encode_hour(UnixHour::new(5), &sample_flows(10), StoreOptions::default());
    bad_magic[0] ^= 0xff;
    let before = bad_magic.clone();
    let err = restamp_hour(&mut bad_magic, to).unwrap_err().to_string();
    assert!(err.contains("bad magic"), "{err}");
    assert_eq!(bad_magic, before, "bytes must be untouched on error");

    // A v3 header whose index is cut off cannot be re-checksummed.
    let full = encode_hour(UnixHour::new(5), &sample_flows(10), StoreOptions::default());
    let mut truncated = full[..HEADER + 2].to_vec();
    let err = restamp_hour(&mut truncated, to).unwrap_err().to_string();
    assert!(err.contains("truncated v3 block index"), "{err}");
}

/// Decode one varint with the scalar reference decoder, returning
/// the value and consumed length (mirrors [`swar_varint`]'s shape).
fn scalar_varint(bytes: &[u8]) -> Result<(u32, usize), NetError> {
    let mut buf = bytes;
    let v = get_varint(&mut buf)?;
    Ok((v, bytes.len() - buf.len()))
}

#[test]
fn swar_varint_matches_scalar_on_known_encodings() {
    for v in [
        0u32,
        1,
        127,
        128,
        300,
        16_383,
        16_384,
        0x0fff_ffff,
        0x1000_0000,
        u32::MAX,
    ] {
        let mut enc = Vec::new();
        put_varint(&mut enc, v);
        enc.resize(8, 0xa5); // arbitrary successor bytes
        let (got, len) = swar_varint(u64::from_le_bytes(enc[..8].try_into().unwrap())).unwrap();
        assert_eq!((got, len), scalar_varint(&enc).unwrap(), "value {v}");
    }
}

#[test]
fn swar_varint_overflow_cases_match_scalar() {
    // 6+ byte varint: both decoders reject at the 6th byte.
    let six = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0];
    // No terminator in sight: the worst case for the SWAR scan.
    let none = [0xffu8; 8];
    // 5-byte varint carrying 35 significant bits (top byte 0x1f > 0x0f).
    let wide = [0xffu8, 0xff, 0xff, 0xff, 0x1f, 0, 0, 0];
    for bytes in [six, none, wide] {
        let swar = swar_varint(u64::from_le_bytes(bytes)).unwrap_err();
        let scalar = scalar_varint(&bytes).unwrap_err();
        assert_eq!(format!("{swar}"), format!("{scalar}"), "{bytes:02x?}");
        assert!(format!("{swar}").contains("varint overflows u32"));
    }
    // 5-byte varint at exactly u32::MAX still decodes.
    let max = [0xffu8, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0];
    assert_eq!(swar_varint(u64::from_le_bytes(max)).unwrap(), (u32::MAX, 5));
}

#[test]
fn take_varint_scalar_tail_preserves_truncation_errors() {
    // Fewer than 8 bytes and no terminator: must report truncation,
    // exactly like the scalar decoder.
    let mut buf: &[u8] = &[0x80, 0x80];
    let err = take_varint(&mut buf).unwrap_err();
    assert!(format!("{err}").contains("truncated varint"), "{err}");
    let mut empty: &[u8] = &[];
    assert!(take_varint(&mut empty).is_err());
    // A short but complete varint decodes on the tail path too.
    let mut short: &[u8] = &[0xac, 0x02];
    assert_eq!(take_varint(&mut short).unwrap(), 300);
    assert!(short.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The SWAR decoder and the scalar decoder agree on *arbitrary*
    /// 8-byte windows — same value, same consumed length, or the
    /// same error.
    #[test]
    fn prop_swar_varint_matches_scalar(word in any::<u64>()) {
        let bytes = word.to_le_bytes();
        let swar = swar_varint(word);
        let scalar = scalar_varint(&bytes);
        match (swar, scalar) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => prop_assert!(false, "disagreement: swar {a:?}, scalar {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// v3 (sorted or plain) and legacy v2 bytes decode back to the
    /// records encoded.
    #[test]
    fn prop_encode_decode_roundtrip(
        raw in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
            0..50,
        ),
        delta: bool,
        hour: u64,
    ) {
        let flows = tuples_to_flows(raw);
        for bytes in [
            encode_v3(UnixHour::new(hour), &flows, delta),
            Legacy::V2.encode(UnixHour::new(hour), &flows, delta),
        ] {
            let (h, back) = decode_hour(&bytes).unwrap();
            prop_assert_eq!(h, UnixHour::new(hour));
            prop_assert_eq!(sorted(back), sorted(flows.clone()));
        }
    }
}

/// One record of the inline tuple strategy the decoder-equivalence
/// proptests generate: every `FlowTuple` field as a plain integer.
type RawFlow = (u32, u32, u16, u16, usize, u8, u8, u16, u32);

/// Materialize the inline tuple strategy used by the proptests into
/// flows.
fn tuples_to_flows(raw: Vec<RawFlow>) -> Vec<FlowTuple> {
    use crate::protocol::TransportProtocol;
    raw.into_iter()
        .map(|(s, d, sp, dp, pi, ttl, fl, len, pk)| FlowTuple {
            src_ip: Ipv4Addr::from(s),
            dst_ip: Ipv4Addr::from(d),
            src_port: sp,
            dst_port: dp,
            protocol: TransportProtocol::ALL[pi],
            ttl,
            tcp_flags: TcpFlags::from_bits(fl),
            ip_len: len,
            packets: pk,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The columnar decoder is bit-identical to the record-at-a-time
    /// decoder, in both layouts (packed: mode bytes, each column RLE or
    /// bit-packed; flag-clear: RLE only): same flows on valid payloads
    /// (mutations included when they happen to stay decodable), and
    /// byte-identical error strings on corrupt ones — mode bytes,
    /// widths, bases and packed bits included.
    #[test]
    fn prop_columnar_decode_matches_record_decoder(
        raw in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
            0..60,
        ),
        mutations in proptest::collection::vec(
            (any::<usize>(), 1u8..=255), 0..3),
        packed: bool,
    ) {
        let flows = tuples_to_flows(raw);
        let refs: Vec<&FlowTuple> = flows.iter().collect();
        let mut payload = encode_block_per_record(&refs, packed);
        let pristine = mutations.is_empty() || payload.is_empty();
        for (idx, x) in mutations {
            if !payload.is_empty() {
                let i = idx % payload.len();
                payload[i] ^= x;
            }
        }
        let mut scratch = BlockScratch::default();
        let record = decode_block_into(&payload, flows.len(), packed, &mut scratch);
        let mut block = ColumnBlock::default();
        let columnar = decode_block_columnar_into(&payload, flows.len(), packed, &mut block);
        match (record, columnar) {
            (Ok(()), Ok(())) => {
                let got: Vec<FlowTuple> = block.flows().collect();
                prop_assert_eq!(&scratch.flows, &got);
                // The exposed columns are the decoded fields.
                for (i, f) in got.iter().enumerate() {
                    prop_assert_eq!(u32::from(f.src_ip), block.src_ip()[i]);
                    prop_assert_eq!(u32::from(f.dst_ip), block.dst_ip()[i]);
                    prop_assert_eq!(u32::from(f.src_port), block.src_port()[i]);
                    prop_assert_eq!(u32::from(f.dst_port), block.dst_port()[i]);
                    prop_assert_eq!(u32::from(f.protocol.number()), block.protocol()[i]);
                    prop_assert_eq!(u32::from(f.tcp_flags.bits()), block.tcp_flags()[i]);
                    prop_assert_eq!(f.packets, block.packets()[i]);
                }
                // `fill` is the inverse of the transpose.
                let mut refilled = ColumnBlock::default();
                refilled.fill(&got);
                prop_assert_eq!(refilled.flows().collect::<Vec<_>>(), got.clone());
                if pristine {
                    prop_assert_eq!(&got, &flows);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => prop_assert!(
                false, "decoder disagreement: record {:?}, columnar {:?}", a, b),
        }
    }

    /// Satellite: the varint scalar-tail and packed tail-load windows.
    /// Every block payload ends exactly at the buffer boundary, so its
    /// final columns decode through the < 8-byte scalar fallback (mode
    /// 0) or the zero-padded tail load (mode 1); both decoders must
    /// agree with the encoder at the exact boundary, in both layouts,
    /// and must reject bytes past it with the same error.
    #[test]
    fn prop_varint_tail_and_block_boundary(
        raw in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
            1..8,
        ),
        pad in 1usize..8,
        packed: bool,
    ) {
        let flows = tuples_to_flows(raw);
        let refs: Vec<&FlowTuple> = flows.iter().collect();
        let payload = encode_block_per_record(&refs, packed);
        // Exact boundary: both decoders consume the whole payload.
        let mut scratch = BlockScratch::default();
        decode_block_into(&payload, flows.len(), packed, &mut scratch).unwrap();
        prop_assert_eq!(&scratch.flows, &flows);
        let mut block = ColumnBlock::default();
        decode_block_columnar_into(&payload, flows.len(), packed, &mut block).unwrap();
        prop_assert_eq!(block.flows().collect::<Vec<_>>(), flows);
        // Bytes past the boundary: identical trailing-bytes errors.
        let mut padded = payload.clone();
        padded.extend(vec![0u8; pad]);
        let a = decode_block_into(&padded, flows.len(), packed, &mut scratch)
            .unwrap_err();
        let b =
            decode_block_columnar_into(&padded, flows.len(), packed, &mut block)
                .unwrap_err();
        prop_assert_eq!(format!("{a}"), format!("{b}"));
        let msg = format!("{a}");
        prop_assert!(msg.contains("trailing bytes"), "got: {}", msg);
    }

    /// The whole-column un-delta passes match a one-at-a-time
    /// scalar reference on arbitrary lane-unaligned lengths.
    #[test]
    fn prop_prefix_sum_and_unzigzag_match_scalar(
        vals in proptest::collection::vec(any::<u32>(), 0..70),
    ) {
        let mut summed = vals.clone();
        prefix_sum_wrapping(&mut summed);
        let mut acc = 0u32;
        for (i, &d) in vals.iter().enumerate() {
            acc = acc.wrapping_add(d);
            prop_assert_eq!(summed[i], acc, "prefix index {}", i);
        }
        let mut unzz = vals.clone();
        unzigzag_prefix_sum(&mut unzz);
        let mut acc = 0u32;
        for (i, &v) in vals.iter().enumerate() {
            acc = acc.wrapping_add(unzigzag(v) as u32);
            prop_assert_eq!(unzz[i], acc, "zigzag index {}", i);
        }
        let bad = first_where(&vals, |v| v > 1_000_000);
        prop_assert_eq!(bad, vals.iter().position(|&v| v > 1_000_000));
    }
}

/// Build a raw block payload from per-column deltas: the src column
/// is plain wrapping deltas, the other eight are zigzag deltas in
/// encode order (dst, src_port, dst_port, proto, ttl, flags,
/// ip_len, packets).
fn payload_from_deltas(src: &[u32], zz: [&[i32]; 8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_rle_column(&mut out, src);
    for col in zz {
        let enc: Vec<u32> = col.iter().map(|&d| zigzag(d)).collect();
        put_rle_column(&mut out, &enc);
    }
    out
}

#[test]
fn columnar_error_order_matches_record_decoder() {
    // Two-record blocks with corruption planted in specific columns
    // and records: the columnar decoder must report exactly the
    // error the record-at-a-time decoder hits first.
    let good = (
        [0u32, 1],   // src deltas
        [0i32, 0],   // dst
        [80i32, 0],  // src_port
        [443i32, 0], // dst_port
        [6i32, 0],   // proto (TCP)
        [64i32, 0],  // ttl
        [2i32, 0],   // flags
        [40i32, 0],  // ip_len
        [1i32, 0],   // packets
    );
    // (name, proto deltas, src_port deltas, ttl deltas, expected error)
    type Case = (&'static str, [i32; 2], [i32; 2], [i32; 2], &'static str);
    let cases: [Case; 4] = [
        // (name, proto, src_port, ttl, expected error)
        // Bad src_port at record 0 beats bad proto at record 1.
        (
            "earlier record wins",
            [6, -10],
            [70_000, 0],
            good.5,
            "src_port delta out of range",
        ),
        // Same record: protocol (rank 0) beats ttl (rank 3).
        (
            "field order wins",
            [2, 0],
            good.2,
            [500, 0],
            "unknown protocol number 2",
        ),
        // Protocol accumulator escaping 0..=255.
        (
            "proto range",
            [-1, 0],
            good.2,
            good.5,
            "protocol delta out of range",
        ),
        // A lone late failure still surfaces.
        (
            "single bad column",
            good.4,
            good.2,
            [64, 300],
            "ttl delta out of range",
        ),
    ];
    for (name, proto, src_port, ttl, want) in cases {
        let payload = payload_from_deltas(
            &good.0,
            [
                &good.1, &src_port, &good.3, &proto, &ttl, &good.6, &good.7, &good.8,
            ],
        );
        assert_same_error(&payload, 2, false, want, name);
        // The packed layout with every column in mode 0: same errors.
        use Column::{Plain, Zigzag};
        let payload = packed_payload(&[
            Plain(&good.0),
            Zigzag(&good.1),
            Zigzag(&src_port),
            Zigzag(&good.3),
            Zigzag(&proto),
            Zigzag(&ttl),
            Zigzag(&good.6),
            Zigzag(&good.7),
            Zigzag(&good.8),
        ]);
        assert_same_error(&payload, 2, true, want, name);
    }

    // Across modes: packed columns hold values, RLE columns deltas, and
    // the first bad (record, field) still wins whichever mode each
    // column is in.
    use Column::{Bytes, Packed, Plain, Zigzag};
    let raw_good: [&[u32]; COLUMNS] = [
        &[0, 1],
        &[0, 0],
        &[80, 80],
        &[443, 443],
        &[6, 6],
        &[64, 64],
        &[2, 2],
        &[40, 40],
        &[1, 1],
    ];
    let deltas_good: [&[i32]; COLUMNS] = [
        &[0, 1],
        &[0, 0],
        &[80, 0],
        &[443, 0],
        &[6, 0],
        &[64, 0],
        &[2, 0],
        &[40, 0],
        &[1, 0],
    ];
    // (name, overrides by column, expected error)
    type Mixed<'a> = (&'static str, Vec<(usize, Column<'a>)>, &'static str);
    let mixed: Vec<Mixed> = vec![
        (
            "RLE ttl at record 0 beats a packed port at record 1",
            vec![(2, Packed(&[80, 70_000])), (5, Zigzag(&[300, 0]))],
            "ttl delta out of range",
        ),
        (
            "RLE port at record 0 beats a packed ttl at record 1",
            vec![(2, Zigzag(&[70_000, 0])), (5, Packed(&[64, 300]))],
            "src_port delta out of range",
        ),
        (
            "packed protocol beats an RLE port in the same record",
            vec![(4, Packed(&[300, 6])), (2, Zigzag(&[70_000, 0]))],
            "protocol value out of range",
        ),
        (
            "packed unknown protocol",
            vec![(4, Packed(&[6, 2]))],
            "unknown protocol number 2",
        ),
        (
            "packed dst_port alone",
            vec![(3, Packed(&[443, 65_536]))],
            "dst_port value out of range",
        ),
        (
            "packed ttl alone",
            vec![(5, Packed(&[256, 64]))],
            "ttl value out of range",
        ),
        (
            "width 33",
            vec![(1, Bytes(&[MODE_PACKED, 0, 33, 0, 0, 0, 0, 0, 0, 0, 0, 0]))],
            "packed column width 33 exceeds 32 bits",
        ),
        (
            "mode byte 2",
            vec![(3, Bytes(&[2, 0, 0]))],
            "unknown column mode 2",
        ),
        (
            "truncated packed bits",
            vec![(8, Bytes(&[MODE_PACKED, 1, 16, 0xff]))],
            "truncated packed column (4 bytes for 2 values, 1 left)",
        ),
        (
            "truncated base varint",
            vec![(8, Bytes(&[MODE_PACKED, 0x80]))],
            "truncated varint",
        ),
        (
            "missing width byte",
            vec![(8, Bytes(&[MODE_PACKED, 1]))],
            "truncated packed column header",
        ),
        (
            "missing mode byte",
            vec![(8, Bytes(&[]))],
            "truncated column mode",
        ),
    ];
    for (name, overrides, want) in mixed {
        // Every column not overridden alternates modes, so each case
        // runs with both around it.
        let mut cols: Vec<Column> = (0..COLUMNS)
            .map(|c| match c {
                0 => Plain(&[0, 1]),
                _ if c % 2 == 1 => Packed(raw_good[c]),
                _ => Zigzag(deltas_good[c]),
            })
            .collect();
        for (c, col) in overrides {
            cols[c] = col;
        }
        assert_same_error(&packed_payload(&cols), 2, true, want, name);
    }
    // A bad packed value inside a whole group of eight, which the group
    // kernel unpacks rather than the tail load.
    let zeros = [0i32; 16];
    let mut ttl = [64u32; 16];
    ttl[9] = 300;
    let cols = [
        Plain(&[0; 16]),
        Zigzag(&zeros),
        Zigzag(&zeros),
        Zigzag(&zeros),
        Packed(&[6; 16]),
        Packed(&ttl),
        Zigzag(&zeros),
        Zigzag(&zeros),
        Zigzag(&zeros),
    ];
    let payload = packed_payload(&cols);
    assert_same_error(&payload, 16, true, "ttl value out of range", "whole group");
}

/// One column of a hand-built packed-layout block: mode 0 over plain
/// (source) or zigzag deltas, mode 1 over raw values, or raw bytes.
enum Column<'a> {
    Plain(&'a [u32]),
    Zigzag(&'a [i32]),
    Packed(&'a [u32]),
    Bytes(&'a [u8]),
}

/// A packed-layout block payload: each column's mode byte and body.
fn packed_payload(cols: &[Column]) -> Vec<u8> {
    let mut out = Vec::new();
    for col in cols {
        match col {
            Column::Plain(deltas) => {
                out.push(MODE_RLE);
                put_rle_column(&mut out, deltas);
            }
            Column::Zigzag(deltas) => {
                out.push(MODE_RLE);
                let enc: Vec<u32> = deltas.iter().map(|&d| zigzag(d)).collect();
                put_rle_column(&mut out, &enc);
            }
            Column::Packed(vals) => {
                out.push(MODE_PACKED);
                put_packed_column_per_bit(&mut out, vals);
            }
            Column::Bytes(bytes) => out.extend_from_slice(bytes),
        }
    }
    out
}

/// Both block decoders reject `payload` with the same error, and it
/// says `want`.
fn assert_same_error(payload: &[u8], n: usize, packed: bool, want: &str, name: &str) {
    let mut scratch = BlockScratch::default();
    let a = decode_block_into(payload, n, packed, &mut scratch).unwrap_err();
    let mut block = ColumnBlock::default();
    let b = decode_block_columnar_into(payload, n, packed, &mut block).unwrap_err();
    assert_eq!(format!("{a}"), format!("{b}"), "{name} (packed {packed})");
    assert!(format!("{a}").contains(want), "{name}: got {a}");
}

proptest! {
    /// The lockstep pre-pass computes exactly `fnv1a` per lane, for
    /// lanes of unequal (and zero) lengths.
    #[test]
    fn prop_lockstep_checksums_equal_fnv1a(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), CHECKSUM_LANES),
    ) {
        let lanes: [&[u8]; CHECKSUM_LANES] = std::array::from_fn(|l| payloads[l].as_slice());
        let sums = fnv1a_lockstep(lanes);
        for (sum, payload) in sums.iter().zip(&payloads) {
            prop_assert_eq!(*sum, fnv1a(payload));
        }
    }
}

/// The payload byte range of every block of a v3 file, from its index.
fn block_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let be32 = |at: usize| u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let blocks = be32(HEADER);
    let mut offset = HEADER + 4 + blocks * INDEX_ENTRY;
    (0..blocks)
        .map(|i| {
            let len = be32(HEADER + 4 + i * INDEX_ENTRY + 4);
            offset += len;
            offset - len..offset
        })
        .collect()
}

/// Re-stamp block `i`'s index checksum to match its (edited) payload,
/// and the header checksum over the edited index, so only a parse can
/// find what was done to the block.
fn restamp_block(bytes: &mut [u8], i: usize) {
    let ranges = block_ranges(bytes);
    let sum = fnv1a(&bytes[ranges[i].clone()]);
    let at = HEADER + 4 + i * INDEX_ENTRY + 8;
    bytes[at..at + 8].copy_from_slice(&sum.to_be_bytes());
    let index_end = HEADER + 4 + ranges.len() * INDEX_ENTRY;
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[..HEADER_HASHED]);
    hasher.update(&bytes[HEADER..index_end]);
    bytes[HEADER_HASHED..HEADER].copy_from_slice(&hasher.finish().to_be_bytes());
}

#[test]
fn lockstep_checksums_keep_block_order_error_precedence() {
    // Six blocks: two lockstep groups, of four blocks and of two.
    let many = scan_like_flows(BLOCK_RECORDS as u32 * 5 + 100);
    let hour = UnixHour::new(70);
    assert_eq!(CHECKSUM_LANES, 4);
    let codec = |msg: &str| format!("{}", NetError::Codec(msg.to_owned()));
    // Both layouts, each with a parse error planted at a block's start:
    // a packed file's first mode byte set to 2; in a flag-clear file,
    // eight 0xff bytes, which hold no varint terminator.
    let packed = encode_hour(hour, &many, StoreOptions::default());
    assert_ne!(packed[7] & FLAG_PACKED, 0);
    // (layout, clean file, plant a parse error in a payload, its error)
    type Layout = (&'static str, Vec<u8>, fn(&mut [u8]), String);
    let layouts: [Layout; 2] = [
        (
            "packed",
            packed,
            |payload| payload[0] = 2,
            codec("unknown column mode 2"),
        ),
        (
            "flag-clear",
            encode_v3_flag_clear(hour, &many, true),
            |payload| payload[..8].fill(0xff),
            codec("varint overflows u32"),
        ),
    ];
    for (layout, clean, plant, parse) in layouts {
        let ranges = block_ranges(&clean);
        assert_eq!(ranges.len(), 6);
        let mismatch = codec("checksum mismatch (corrupt block)");
        let parse_corrupt = |bytes: &mut Vec<u8>, i: usize| {
            plant(&mut bytes[ranges[i].clone()]);
            restamp_block(bytes, i);
        };
        let checksum_corrupt = |bytes: &mut Vec<u8>, i: usize| bytes[ranges[i].start + 10] ^= 0xff;

        // (case, file, strict error, quarantined (block, reason))
        type Case = (&'static str, Vec<u8>, String, Vec<(usize, String)>);
        let mut cases: Vec<Case> = Vec::new();
        let mut bytes = clean.clone();
        parse_corrupt(&mut bytes, 1);
        checksum_corrupt(&mut bytes, 2);
        cases.push((
            "parse error before a checksum error in one group",
            bytes,
            format!("{}", NetError::Codec(format!("block 1: {parse}"))),
            vec![(1, parse.clone()), (2, mismatch.clone())],
        ));
        let mut bytes = clean.clone();
        checksum_corrupt(&mut bytes, 5);
        cases.push((
            "one checksum error in the second group",
            bytes,
            format!("{}", NetError::Codec(format!("block 5: {mismatch}"))),
            vec![(5, mismatch.clone())],
        ));
        let mut bytes = clean.clone();
        parse_corrupt(&mut bytes, 4);
        cases.push((
            "one parse error in the second group",
            bytes,
            format!("{}", NetError::Codec(format!("block 4: {parse}"))),
            vec![(4, parse.clone())],
        ));
        let mut bytes = clean.clone();
        plant(&mut bytes[ranges[3].clone()]);
        cases.push((
            "a block both unparsable and mis-checksummed reports the checksum",
            bytes,
            format!("{}", NetError::Codec(format!("block 3: {mismatch}"))),
            vec![(3, mismatch.clone())],
        ));

        for (case, bytes, strict, bad) in cases {
            let err = decode_hour(&bytes).unwrap_err();
            assert_eq!(format!("{err}"), strict, "{layout}: {case}");
            let mut sink = CollectSink::default();
            let visited =
                decode_hour_visit(&bytes, DecodeOptions { quarantine: true }, &mut sink).unwrap();
            let got: Vec<(usize, String)> = visited
                .quarantined
                .iter()
                .map(|q| (q.index, q.reason.clone()))
                .collect();
            assert_eq!(got, bad, "{layout}: {case}");
            let lost: usize = visited.quarantined.iter().map(|q| q.records as usize).sum();
            assert_eq!(visited.records, many.len() - lost, "{layout}: {case}");
            // The surviving blocks decode to exactly their records.
            let mut want = sorted(many.clone());
            for q in visited.quarantined.iter().rev() {
                let start = q.index * BLOCK_RECORDS;
                want.drain(start..start + q.records as usize);
            }
            assert_eq!(sink.into_flows(), want, "{layout}: {case}");
        }
    }
}

#[test]
fn v3_rejects_unknown_header_flags() {
    let mut bytes = encode_hour(UnixHour::new(8), &flows(), StoreOptions::default());
    assert_eq!(decode_hour(&bytes).unwrap().1, sorted(flows()));
    bytes[7] |= 0b100;
    let index_end = HEADER + 4 + INDEX_ENTRY;
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[..HEADER_HASHED]);
    hasher.update(&bytes[HEADER..index_end]);
    bytes[HEADER_HASHED..HEADER].copy_from_slice(&hasher.finish().to_be_bytes());
    let err = decode_hour(&bytes).unwrap_err();
    assert!(
        format!("{err}").contains("unknown v3 header flags 0x07"),
        "{err}"
    );
    let opts = DecodeOptions { quarantine: true };
    assert!(decode_hour_visit(&bytes, opts, &mut CollectSink::default()).is_err());
}
