//! Year-scale segment container and manifest for the flowtuple store.
//!
//! One file per hour works for the paper's 143-hour window but falls
//! over at telescope scale: a synthetic year is 8,760 files of a few
//! hundred KB each, and every read pays an open. A **segment** packs
//! many complete hour files (any `IOTFT` version; the compactor writes
//! `IOTFT03`) into one container behind an hour table, and a
//! store-level **manifest** maps each hour to its segment and byte
//! range, so a year of traffic is a few dozen files. An open
//! [`Segment`] keeps its file and validated table; each hour is one
//! positioned read into owned bytes, the same shape as a per-hour
//! file read.
//!
//! # Segment layout (`IOTSG01`)
//!
//! ```text
//! magic   7 B   "IOTSG01"
//! flags   1 B   reserved, 0 (any set bit is rejected)
//! count   4 B   u32 hour entries
//! cksum   8 B   FNV-1a over magic..count + the hour table
//! table   count × (hour u64, len u32)
//! hours   the hour payloads, concatenated in table order
//! ```
//!
//! Hours are strictly ascending and offsets are the prefix sums of the
//! lengths (the same implicit-offset idiom as the v3 block index). Each
//! payload is a complete, self-checksummed hour file, so the container
//! checksum only needs to cover its own header and table.
//!
//! # Manifest layout (`IOTMF01`)
//!
//! ```text
//! magic   7 B   "IOTMF01"
//! flags   1 B   reserved, 0 (any set bit is rejected)
//! count   4 B   u32 entries
//! cksum   8 B   FNV-1a over magic..count + the entries
//! entries count × (hour u64, segment u32, offset u64, len u32)
//! ```
//!
//! Entries are strictly ascending by hour (binary-searchable). The
//! manifest is advisory routing — reads cross-check it against the
//! segment's own table, so a stale or tampered manifest fails loudly
//! instead of serving the wrong hour.

use crate::store::{claimed_hour, Fnv1a, HEADER};
use crate::time::UnixHour;
use crate::NetError;
use bytes::{Buf, BufMut};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC_SEGMENT: &[u8; 7] = b"IOTSG01";
const MAGIC_MANIFEST: &[u8; 7] = b"IOTMF01";

/// Shared container-header layout: magic (7) + flags (1) + count (4) +
/// checksum (8). The checksum covers everything before it plus the
/// table/entries that follow it.
const CONTAINER_HEADER: usize = 7 + 1 + 4 + 8;
const CONTAINER_HASHED: usize = CONTAINER_HEADER - 8;

/// Segment hour-table entry: hour (8) + payload length (4). Offsets are
/// the prefix sums of the lengths.
const SEGMENT_ENTRY: usize = 8 + 4;

/// Manifest entry: hour (8) + segment id (4) + offset (8) + length (4).
const MANIFEST_ENTRY: usize = 8 + 4 + 8 + 4;

/// Default hours packed per segment: one week. Small enough that a
/// corrupt segment loses a bounded slice of the archive, big enough
/// that a year is ~52 files.
pub const DEFAULT_HOURS_PER_SEGMENT: usize = 168;

/// On-disk file name of segment `id` inside the store's segment
/// directory.
pub fn segment_file_name(id: u32) -> String {
    format!("seg-{id}.seg")
}

/// Encode one segment from `(hour, encoded-hour-file)` pairs. Hours
/// must be strictly ascending and each payload a plausible hour file
/// (correct magic, header claiming the labeled hour).
///
/// # Errors
///
/// Returns [`NetError::Codec`] on an empty input, out-of-order hours,
/// or a payload that is not an hour file for its labeled hour.
pub fn encode_segment<B: AsRef<[u8]>>(hours: &[(UnixHour, B)]) -> Result<Vec<u8>, NetError> {
    let (prefix, payload_len) = segment_prefix(hours)?;
    let mut out = prefix;
    out.reserve(payload_len);
    for (_, bytes) in hours {
        out.extend_from_slice(bytes.as_ref());
    }
    Ok(out)
}

/// Validate `hours` and build the segment's checksummed prefix (header
/// plus hour table); the payloads follow it verbatim. Shared by
/// [`encode_segment`] and the builder's streaming flush — which writes
/// payloads straight to the file instead of materializing the segment —
/// so both produce byte-identical segments. Returns the prefix and the
/// total payload length.
fn segment_prefix<B: AsRef<[u8]>>(hours: &[(UnixHour, B)]) -> Result<(Vec<u8>, usize), NetError> {
    if hours.is_empty() {
        return Err(NetError::Codec(
            "segment must hold at least one hour".to_owned(),
        ));
    }
    let mut table = Vec::with_capacity(hours.len() * SEGMENT_ENTRY);
    let mut payload_len = 0usize;
    let mut prev: Option<UnixHour> = None;
    for (hour, bytes) in hours {
        let bytes = bytes.as_ref();
        if prev.is_some_and(|p| p >= *hour) {
            return Err(NetError::Codec(format!(
                "segment hours must be strictly ascending (saw {hour} after {})",
                prev.expect("checked")
            )));
        }
        prev = Some(*hour);
        let claimed = claimed_hour(bytes)
            .map_err(|e| NetError::Codec(format!("segment payload for {hour}: {e}")))?;
        if claimed != *hour {
            return Err(NetError::Codec(format!(
                "segment payload claims hour {claimed}, labeled {hour}"
            )));
        }
        let len = u32::try_from(bytes.len())
            .map_err(|_| NetError::Codec(format!("hour {hour} payload too large for segment")))?;
        table.put_u64(hour.get());
        table.put_u32(len);
        payload_len += bytes.len();
    }
    let mut out = Vec::with_capacity(CONTAINER_HEADER + table.len());
    out.extend_from_slice(MAGIC_SEGMENT);
    out.put_u8(0);
    out.put_u32(hours.len() as u32);
    let mut hasher = Fnv1a::new();
    hasher.update(&out[..CONTAINER_HASHED]);
    hasher.update(&table);
    out.put_u64(hasher.finish());
    out.extend_from_slice(&table);
    Ok((out, payload_len))
}

/// The container flag byte is reserved: a set bit means a layout this
/// reader does not know, so it fails rather than misread the file.
fn reserved_flags(flags: u8, container: &str) -> Result<(), NetError> {
    if flags == 0 {
        Ok(())
    } else {
        Err(NetError::Codec(format!(
            "unknown {container} header flags {flags:#04x} (reserved, must be 0)"
        )))
    }
}

/// An open segment: its file and the hour table [`Segment::open`]
/// validated against the file's length. An hour is read on demand, by
/// a seek and an exact read under the file's lock, into owned bytes.
#[derive(Debug)]
pub struct Segment {
    file: Mutex<fs::File>,
    /// `(hour, offset, len)`, ascending by hour.
    table: Vec<(UnixHour, usize, usize)>,
}

impl Segment {
    /// Open a segment file and validate its header and hour table.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file cannot be opened or read and
    /// [`NetError::Codec`] if the header, checksum, or hour table is
    /// malformed.
    pub fn open(path: &Path) -> Result<Segment, NetError> {
        let mut file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        let table = Segment::parse(&mut file, len)?;
        Ok(Segment {
            file: Mutex::new(file),
            table,
        })
    }

    /// Read header + hour table from the start of `reader`, a segment
    /// of `file_len` bytes, validate them against that length, and compute
    /// payload offsets. The payloads themselves are not read.
    fn parse(
        reader: &mut impl Read,
        file_len: u64,
    ) -> Result<Vec<(UnixHour, usize, usize)>, NetError> {
        let file_len = usize::try_from(file_len)
            .map_err(|_| NetError::Codec(format!("{file_len}-byte segment too large to read")))?;
        if file_len < CONTAINER_HEADER {
            return Err(NetError::Codec("segment shorter than header".to_owned()));
        }
        let mut header = [0u8; CONTAINER_HEADER];
        reader.read_exact(&mut header)?;
        if &header[..7] != MAGIC_SEGMENT {
            return Err(NetError::Codec("bad magic (not a segment file)".to_owned()));
        }
        let mut hdr = &header[7..];
        let flags = hdr.get_u8();
        let count = hdr.get_u32() as usize;
        let checksum = hdr.get_u64();
        let table_end = count
            .checked_mul(SEGMENT_ENTRY)
            .and_then(|n| n.checked_add(CONTAINER_HEADER))
            .filter(|end| *end <= file_len)
            .ok_or_else(|| {
                NetError::Codec(format!(
                    "implausible hour count {count} for {file_len}-byte segment"
                ))
            })?;
        let mut entries = vec![0u8; table_end - CONTAINER_HEADER];
        reader.read_exact(&mut entries)?;
        let mut hasher = Fnv1a::new();
        hasher.update(&header[..CONTAINER_HASHED]);
        hasher.update(&entries);
        if hasher.finish() != checksum {
            return Err(NetError::Codec(
                "checksum mismatch (corrupt segment header or hour table)".to_owned(),
            ));
        }
        reserved_flags(flags, "segment")?;
        let mut table = Vec::with_capacity(count);
        let mut entries = &entries[..];
        let mut offset = table_end;
        let mut prev: Option<UnixHour> = None;
        for i in 0..count {
            let hour = UnixHour::new(entries.get_u64());
            let len = entries.get_u32() as usize;
            if prev.is_some_and(|p| p >= hour) {
                return Err(NetError::Codec(format!(
                    "segment hour table not strictly ascending at entry {i}"
                )));
            }
            prev = Some(hour);
            if len < HEADER || offset + len > file_len {
                return Err(NetError::Codec(format!(
                    "segment entry {i} ({hour}): implausible payload length {len}"
                )));
            }
            table.push((hour, offset, len));
            offset += len;
        }
        if offset != file_len {
            return Err(NetError::Codec(format!(
                "{} trailing bytes after {count} segment hours",
                file_len - offset
            )));
        }
        Ok(table)
    }

    /// Hours in this segment, ascending.
    pub fn hours(&self) -> impl Iterator<Item = UnixHour> + '_ {
        self.table.iter().map(|(h, _, _)| *h)
    }

    /// Number of hours in this segment.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the segment holds no hours (an encoder never writes one,
    /// but the reader tolerates it).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The byte range of `hour`'s payload, if present.
    pub fn locate(&self, hour: UnixHour) -> Option<(usize, usize)> {
        self.table
            .binary_search_by_key(&hour, |(h, _, _)| *h)
            .ok()
            .map(|i| (self.table[i].1, self.table[i].2))
    }

    /// Read `hour`'s complete hour-file payload into owned bytes, or
    /// `None` if the segment does not hold the hour.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the read fails — among others when
    /// the file has been truncated since [`Segment::open`] validated it.
    pub fn hour_bytes(&self, hour: UnixHour) -> Result<Option<Vec<u8>>, NetError> {
        let Some((offset, len)) = self.locate(hour) else {
            return Ok(None);
        };
        let mut bytes = vec![0u8; len];
        let mut file = self.file.lock().expect("segment file lock poisoned");
        file.seek(SeekFrom::Start(offset as u64))?;
        file.read_exact(&mut bytes)?;
        Ok(Some(bytes))
    }
}

/// One manifest row: where an hour lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The hour this entry routes.
    pub hour: UnixHour,
    /// Segment id (file `seg-{id}.seg`).
    pub segment: u32,
    /// Byte offset of the hour payload inside the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// The store-level hour → segment index. Entries are kept sorted by
/// hour; lookups are binary searches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Build a manifest from `entries`; sorts by hour.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] if two entries route the same hour.
    pub fn from_entries(mut entries: Vec<ManifestEntry>) -> Result<Manifest, NetError> {
        entries.sort_by_key(|e| e.hour);
        for pair in entries.windows(2) {
            if pair[0].hour == pair[1].hour {
                return Err(NetError::Codec(format!(
                    "duplicate manifest entry for {}",
                    pair[0].hour
                )));
            }
        }
        Ok(Manifest { entries })
    }

    /// All entries, ascending by hour.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Number of routed hours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the manifest routes no hours.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `hour` lives, if routed.
    pub fn lookup(&self, hour: UnixHour) -> Option<&ManifestEntry> {
        self.entries
            .binary_search_by_key(&hour, |e| e.hour)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Serialize to the `IOTMF01` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.entries.len() * MANIFEST_ENTRY);
        for e in &self.entries {
            body.put_u64(e.hour.get());
            body.put_u32(e.segment);
            body.put_u64(e.offset);
            body.put_u32(e.len);
        }
        let mut out = Vec::with_capacity(CONTAINER_HEADER + body.len());
        out.extend_from_slice(MAGIC_MANIFEST);
        out.put_u8(0);
        out.put_u32(self.entries.len() as u32);
        let mut hasher = Fnv1a::new();
        hasher.update(&out[..CONTAINER_HASHED]);
        hasher.update(&body);
        out.put_u64(hasher.finish());
        out.extend_from_slice(&body);
        out
    }

    /// Parse the `IOTMF01` byte layout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] for bad magic, checksum mismatch,
    /// truncation, trailing bytes, or out-of-order entries.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, NetError> {
        if bytes.len() < CONTAINER_HEADER {
            return Err(NetError::Codec("manifest shorter than header".to_owned()));
        }
        if &bytes[..7] != MAGIC_MANIFEST {
            return Err(NetError::Codec(
                "bad magic (not a manifest file)".to_owned(),
            ));
        }
        let mut hdr = &bytes[7..CONTAINER_HEADER];
        let flags = hdr.get_u8();
        let count = hdr.get_u32() as usize;
        let checksum = hdr.get_u64();
        let end = count
            .checked_mul(MANIFEST_ENTRY)
            .and_then(|n| n.checked_add(CONTAINER_HEADER))
            .filter(|end| *end == bytes.len())
            .ok_or_else(|| {
                NetError::Codec(format!(
                    "manifest length {} does not fit {count} entries",
                    bytes.len()
                ))
            })?;
        let mut hasher = Fnv1a::new();
        hasher.update(&bytes[..CONTAINER_HASHED]);
        hasher.update(&bytes[CONTAINER_HEADER..end]);
        if hasher.finish() != checksum {
            return Err(NetError::Codec(
                "checksum mismatch (corrupt manifest)".to_owned(),
            ));
        }
        reserved_flags(flags, "manifest")?;
        let mut entries = Vec::with_capacity(count);
        let mut body = &bytes[CONTAINER_HEADER..end];
        let mut prev: Option<UnixHour> = None;
        for i in 0..count {
            let hour = UnixHour::new(body.get_u64());
            let segment = body.get_u32();
            let offset = body.get_u64();
            let len = body.get_u32();
            if prev.is_some_and(|p| p >= hour) {
                return Err(NetError::Codec(format!(
                    "manifest not strictly ascending at entry {i}"
                )));
            }
            prev = Some(hour);
            entries.push(ManifestEntry {
                hour,
                segment,
                offset,
                len,
            });
        }
        Ok(Manifest { entries })
    }

    /// Read and parse a manifest file.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if unreadable, [`NetError::Codec`] if malformed.
    pub fn load(path: &Path) -> Result<Manifest, NetError> {
        Manifest::decode(&fs::read(path)?)
    }

    /// Write the manifest atomically (`.tmp` sibling + rename), the
    /// same durability discipline as hour files.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the temporary file is removed on error.
    pub fn write(&self, path: &Path) -> Result<(), NetError> {
        write_atomic(path, &self.encode())
    }
}

/// Write `bytes` to `path` via a `.tmp` sibling and an atomic rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), NetError> {
    write_atomic_with(path, |f| f.write_all(bytes))
}

/// Atomic-rename write with a caller-streamed body: `fill` writes into
/// the `.tmp` sibling (so large segments never need to be materialized
/// in memory), then the file is synced and renamed into place. The
/// temporary file is removed on any failure.
fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
) -> Result<(), NetError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = (|| -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(NetError::Io(e));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(NetError::Io(e));
    }
    Ok(())
}

/// What a [`SegmentStoreBuilder::finish`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentBuildReport {
    /// The manifest now on disk (old entries merged, new hours win).
    pub manifest: Manifest,
    /// Segments written by this builder.
    pub segments_written: usize,
    /// Total segment bytes written by this builder.
    pub bytes_written: u64,
}

/// Incremental writer for a store's segment directory: feed encoded
/// hours in ascending order, and it emits `seg-{id}.seg` files of
/// `hours_per_segment` hours each plus the merged `manifest.idx` — the
/// shared machinery behind `FlowStore::compact_to_segments` and the
/// perf bin's synthetic year.
#[derive(Debug)]
pub struct SegmentStoreBuilder {
    dir: PathBuf,
    hours_per_segment: usize,
    pending: Vec<(UnixHour, Vec<u8>)>,
    entries: Vec<ManifestEntry>,
    next_id: u32,
    last_hour: Option<UnixHour>,
    segments_written: usize,
    bytes_written: u64,
}

impl SegmentStoreBuilder {
    /// Start building into `segments_dir` (created if missing), merging
    /// on top of `existing` manifest entries. New segment ids continue
    /// after the highest existing id.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] for a zero `hours_per_segment`,
    /// [`NetError::Io`] if the directory cannot be created.
    pub fn new(
        segments_dir: &Path,
        hours_per_segment: usize,
        existing: Manifest,
    ) -> Result<SegmentStoreBuilder, NetError> {
        if hours_per_segment == 0 {
            return Err(NetError::Codec(
                "hours_per_segment must be at least 1".to_owned(),
            ));
        }
        fs::create_dir_all(segments_dir)?;
        let next_id = existing
            .entries()
            .iter()
            .map(|e| e.segment + 1)
            .max()
            .unwrap_or(0);
        Ok(SegmentStoreBuilder {
            dir: segments_dir.to_path_buf(),
            hours_per_segment,
            pending: Vec::new(),
            entries: existing.entries.clone(),
            next_id,
            last_hour: None,
            segments_written: 0,
            bytes_written: 0,
        })
    }

    /// Queue one encoded hour file; flushes a segment whenever
    /// `hours_per_segment` hours are pending.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] if `hour` is not strictly after the
    /// previously pushed hour (or if the payload fails the segment
    /// encoder's validation when a flush triggers), [`NetError::Io`] on
    /// write failures.
    pub fn push(&mut self, hour: UnixHour, bytes: Vec<u8>) -> Result<(), NetError> {
        if self.last_hour.is_some_and(|p| p >= hour) {
            return Err(NetError::Codec(format!(
                "segment builder hours must ascend (saw {hour} after {})",
                self.last_hour.expect("checked")
            )));
        }
        self.last_hour = Some(hour);
        self.pending.push((hour, bytes));
        if self.pending.len() >= self.hours_per_segment {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let id = self.next_id;
        self.next_id += 1;
        // Stream the payloads straight into the tmp file: only the
        // checksummed prefix is materialized, so flushing a segment
        // costs O(table), not O(segment) — byte-identical to
        // `encode_segment` (the checksum covers header + table only).
        let (prefix, payload_len) = segment_prefix(&self.pending)?;
        let pending = &self.pending;
        write_atomic_with(&self.dir.join(segment_file_name(id)), |f| {
            f.write_all(&prefix)?;
            for (_, bytes) in pending {
                f.write_all(bytes)?;
            }
            Ok(())
        })?;
        let mut offset = prefix.len();
        for (hour, bytes) in self.pending.drain(..) {
            self.entries.push(ManifestEntry {
                hour,
                segment: id,
                offset: offset as u64,
                len: bytes.len() as u32,
            });
            offset += bytes.len();
        }
        self.segments_written += 1;
        self.bytes_written += (prefix.len() + payload_len) as u64;
        Ok(())
    }

    /// Flush the remainder and write the merged manifest. Where an hour
    /// appears both in the pre-existing manifest and in this build, the
    /// new entry wins (re-compaction refreshes the routing).
    ///
    /// # Errors
    ///
    /// As [`SegmentStoreBuilder::push`], plus manifest write failures.
    pub fn finish(mut self) -> Result<SegmentBuildReport, NetError> {
        self.flush()?;
        // Later entries override earlier ones per hour: `entries` holds
        // the old manifest first, then this build's pushes in order.
        let mut merged: std::collections::BTreeMap<u64, ManifestEntry> =
            std::collections::BTreeMap::new();
        for e in self.entries.drain(..) {
            merged.insert(e.hour.get(), e);
        }
        let manifest = Manifest {
            entries: merged.into_values().collect(),
        };
        manifest.write(&self.dir.join(MANIFEST_FILE))?;
        Ok(SegmentBuildReport {
            manifest,
            segments_written: self.segments_written,
            bytes_written: self.bytes_written,
        })
    }
}

/// File name of the manifest inside a store's segment directory.
pub const MANIFEST_FILE: &str = "manifest.idx";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtuple::FlowTuple;
    use crate::protocol::TcpFlags;
    use crate::store::{encode_hour, StoreOptions};
    use std::net::Ipv4Addr;

    fn hour_file(hour: u64, n: u32) -> (UnixHour, Vec<u8>) {
        let flows: Vec<FlowTuple> = (0..n)
            .map(|i| {
                FlowTuple::tcp(
                    Ipv4Addr::from(0x0a00_0100 + i),
                    Ipv4Addr::from(0x2c00_0000 + i * 7),
                    40_000 + (i % 1000) as u16,
                    23,
                    TcpFlags::SYN,
                )
            })
            .collect();
        let h = UnixHour::new(hour);
        (h, encode_hour(h, &flows, StoreOptions::default()))
    }

    fn sample_segment() -> (Vec<(UnixHour, Vec<u8>)>, Vec<u8>) {
        let hours = vec![hour_file(100, 10), hour_file(101, 0), hour_file(104, 25)];
        let bytes = encode_segment(&hours).unwrap();
        (hours, bytes)
    }

    #[test]
    fn segment_roundtrips_hour_payloads() {
        let (hours, bytes) = sample_segment();
        let dir = std::env::temp_dir().join(format!("iotscope-seg-rt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(0));
        fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.len(), 3);
        assert_eq!(
            seg.hours().collect::<Vec<_>>(),
            hours.iter().map(|(h, _)| *h).collect::<Vec<_>>()
        );
        for (h, payload) in &hours {
            assert_eq!(seg.hour_bytes(*h).unwrap().unwrap(), payload[..]);
        }
        assert!(seg.hour_bytes(UnixHour::new(102)).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hour_bytes_read_file_ranges_exactly() {
        // Hours larger than a page, read out of order and twice over one
        // open file: each read seeks to its own range.
        let hours = vec![hour_file(200, 3_000), hour_file(201, 1), hour_file(202, 4_000)];
        let bytes = encode_segment(&hours).unwrap();
        let dir = std::env::temp_dir().join(format!("iotscope-seg-exact-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(0));
        fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).unwrap();
        for i in [2, 0, 1, 2, 1, 0] {
            let (h, payload) = &hours[i];
            let (offset, len) = seg.locate(*h).unwrap();
            let read = seg.hour_bytes(*h).unwrap().unwrap();
            assert_eq!(read, payload[..]);
            assert_eq!(read, bytes[offset..offset + len]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_file_is_an_io_error() {
        let path = std::env::temp_dir().join("iotscope-seg-definitely-missing.seg");
        let err = Segment::open(&path).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{err}");
    }

    #[test]
    fn empty_segment_file_fails_open() {
        let dir = std::env::temp_dir().join(format!("iotscope-seg-empty-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.seg");
        fs::write(&path, b"").unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(format!("{err}").contains("shorter than header"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rejects_disorder_and_mislabels() {
        let (a, ab) = hour_file(10, 3);
        let (b, bb) = hour_file(9, 3);
        let err = encode_segment(&[(a, ab.clone()), (b, bb)]).unwrap_err();
        assert!(format!("{err}").contains("ascending"), "{err}");
        let err = encode_segment(&[(UnixHour::new(11), ab)]).unwrap_err();
        assert!(format!("{err}").contains("claims hour"), "{err}");
        let err = encode_segment::<Vec<u8>>(&[]).unwrap_err();
        assert!(format!("{err}").contains("at least one hour"), "{err}");
    }

    #[test]
    fn segment_detects_table_corruption_and_truncation() {
        let (_, bytes) = sample_segment();
        let dir = std::env::temp_dir().join(format!("iotscope-seg-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Flip a byte inside the hour table.
        let mut corrupt = bytes.clone();
        corrupt[CONTAINER_HEADER + 2] ^= 0xff;
        let path = dir.join("corrupt.seg");
        fs::write(&path, &corrupt).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(err.is_checksum_mismatch(), "{err}");
        // Truncate into the final hour payload.
        let path = dir.join("truncated.seg");
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(
            format!("{err}").contains("implausible payload length"),
            "{err}"
        );
        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"zzz");
        let path = dir.join("trailing.seg");
        fs::write(&path, &trailing).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(format!("{err}").contains("trailing bytes"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let manifest = Manifest::from_entries(vec![
            ManifestEntry {
                hour: UnixHour::new(7),
                segment: 1,
                offset: 64,
                len: 100,
            },
            ManifestEntry {
                hour: UnixHour::new(3),
                segment: 0,
                offset: 32,
                len: 50,
            },
        ])
        .unwrap();
        let bytes = manifest.encode();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.lookup(UnixHour::new(3)).unwrap().segment, 0);
        assert_eq!(back.lookup(UnixHour::new(7)).unwrap().offset, 64);
        assert!(back.lookup(UnixHour::new(5)).is_none());

        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x55;
        assert!(Manifest::decode(&corrupt)
            .unwrap_err()
            .is_checksum_mismatch());
        assert!(Manifest::decode(&bytes[..bytes.len() - 1]).is_err());
        let dup = Manifest::from_entries(vec![
            ManifestEntry {
                hour: UnixHour::new(3),
                segment: 0,
                offset: 0,
                len: 1,
            },
            ManifestEntry {
                hour: UnixHour::new(3),
                segment: 1,
                offset: 0,
                len: 1,
            },
        ]);
        assert!(dup.is_err());
    }

    /// `bytes` with a reserved header flag bit set and the container
    /// checksum re-stamped over the header and the first `hashed_end`
    /// bytes, so only the flag check can object.
    fn with_reserved_flag(bytes: &[u8], hashed_end: usize) -> Vec<u8> {
        let mut flagged = bytes.to_vec();
        flagged[7] |= 0b10;
        let mut hasher = Fnv1a::new();
        hasher.update(&flagged[..CONTAINER_HASHED]);
        hasher.update(&flagged[CONTAINER_HEADER..hashed_end]);
        flagged[CONTAINER_HASHED..CONTAINER_HEADER].copy_from_slice(&hasher.finish().to_be_bytes());
        flagged
    }

    #[test]
    fn segment_rejects_reserved_flag_bits() {
        let (hours, bytes) = sample_segment();
        let flagged = with_reserved_flag(&bytes, CONTAINER_HEADER + hours.len() * SEGMENT_ENTRY);
        let err = Segment::parse(&mut &flagged[..], flagged.len() as u64).unwrap_err();
        assert!(
            format!("{err}").contains("unknown segment header flags 0x02"),
            "{err}"
        );
    }

    #[test]
    fn manifest_rejects_reserved_flag_bits() {
        let bytes = Manifest::from_entries(vec![ManifestEntry {
            hour: UnixHour::new(3),
            segment: 0,
            offset: 32,
            len: 50,
        }])
        .unwrap()
        .encode();
        let err = Manifest::decode(&with_reserved_flag(&bytes, bytes.len())).unwrap_err();
        assert!(
            format!("{err}").contains("unknown manifest header flags 0x02"),
            "{err}"
        );
    }

    #[test]
    fn builder_splits_segments_and_merges_manifests() {
        let dir = std::env::temp_dir().join(format!("iotscope-seg-bld-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut builder = SegmentStoreBuilder::new(&dir, 2, Manifest::default()).unwrap();
        for h in [200u64, 201, 202, 203, 204] {
            let (hour, bytes) = hour_file(h, 4);
            builder.push(hour, bytes).unwrap();
        }
        let report = builder.finish().unwrap();
        assert_eq!(report.segments_written, 3, "5 hours at 2/segment");
        assert_eq!(report.manifest.len(), 5);
        // Reads resolve through the written files.
        for e in report.manifest.entries() {
            let seg = Segment::open(&dir.join(segment_file_name(e.segment))).unwrap();
            assert_eq!(
                seg.locate(e.hour),
                Some((e.offset as usize, e.len as usize)),
                "manifest and segment table agree for {}",
                e.hour
            );
        }
        // A second build on top re-routes an overlapping hour.
        let existing = Manifest::load(&dir.join(MANIFEST_FILE)).unwrap();
        let mut builder = SegmentStoreBuilder::new(&dir, 2, existing).unwrap();
        let (hour, bytes) = hour_file(204, 9);
        builder.push(hour, bytes).unwrap();
        let report = builder.finish().unwrap();
        assert_eq!(
            report.manifest.len(),
            5,
            "hour 204 replaced, not duplicated"
        );
        let e = report.manifest.lookup(UnixHour::new(204)).unwrap();
        assert_eq!(e.segment, 3, "ids continue past the existing maximum");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_streamed_flush_matches_encode_segment() {
        let dir = std::env::temp_dir().join(format!("iotscope-seg-stream-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let hours: Vec<(UnixHour, Vec<u8>)> = [300u64, 301, 302]
            .iter()
            .map(|&h| hour_file(h, 50))
            .collect();
        let mut builder = SegmentStoreBuilder::new(&dir, 3, Manifest::default()).unwrap();
        for (hour, bytes) in &hours {
            builder.push(*hour, bytes.clone()).unwrap();
        }
        let report = builder.finish().unwrap();
        assert_eq!(report.segments_written, 1);
        let written = fs::read(dir.join(segment_file_name(0))).unwrap();
        let reference = encode_segment(&hours).unwrap();
        assert_eq!(
            written, reference,
            "streamed flush drifted from encode_segment"
        );
        assert_eq!(report.bytes_written, reference.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}
