//! Hourly flowtuple file store.
//!
//! Mirrors the UCSD telescope data layout the paper consumed: one file per
//! hour, grouped in per-day directories. Files carry a magic header, the
//! hour they cover, a record count, an optional sorted+delta-encoded
//! payload (source addresses are ascending, stored as varint deltas — the
//! same trick corsaro uses to shrink flowtuple files), and an FNV-1a
//! checksum so corruption is detected rather than silently analyzed.
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> Result<(), iotscope_net::NetError> {
//! use iotscope_net::store::{FlowStore, StoreOptions};
//! use iotscope_net::time::UnixHour;
//! use iotscope_net::flowtuple::FlowTuple;
//! use iotscope_net::protocol::TcpFlags;
//! use std::net::Ipv4Addr;
//!
//! let store = FlowStore::create("/tmp/darknet", StoreOptions::default())?;
//! let hour = UnixHour::from_unix_secs(1_491_955_200);
//! let flows = vec![FlowTuple::tcp(
//!     Ipv4Addr::new(203, 0, 113, 1), Ipv4Addr::new(44, 0, 0, 1),
//!     40000, 23, TcpFlags::SYN,
//! )];
//! store.write_hour(hour, &flows)?;
//! let back = store.read_hour(hour)?;
//! assert_eq!(back, flows);
//! # Ok(())
//! # }
//! ```

use crate::flowtuple::{get_varint, put_varint, FlowTuple};
use crate::segment::{segment_file_name, Manifest, Segment, SegmentStoreBuilder, MANIFEST_FILE};
use crate::time::{AnalysisWindow, UnixHour, HOURS_PER_DAY};
use crate::NetError;
use bytes::{Buf, BufMut};
use iotscope_obs::{Counter, Histogram, Registry, BYTE_SIZE_BOUNDS};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Legacy format: the checksum covers only the payload, so header
/// corruption (flags, hour, count) went undetected. Read-only.
const MAGIC_V1: &[u8; 7] = b"IOTFT01";
/// Row format: the checksum covers the header prefix (magic, flags,
/// hour, count) *and* the payload. Still writable via
/// [`StoreFormat::V2`]; new files default to v3.
const MAGIC_V2: &[u8; 7] = b"IOTFT02";
/// Block format: the hour is split into fixed-size record blocks, each
/// independently checksummed and fully delta+varint encoded (every
/// field, column-wise), behind a block index the header checksum covers.
const MAGIC_V3: &[u8; 7] = b"IOTFT03";
const FLAG_DELTA: u8 = 0b0000_0001;

/// Header layout: magic (7) + flags (1) + hour (8) + count (4) +
/// checksum (8). The checksum field itself is never hashed; in v2 the
/// hash covers everything before it plus the payload, in v3 everything
/// before it plus the block index (block payloads carry their own
/// checksums in the index).
pub(crate) const HEADER: usize = 7 + 1 + 8 + 4 + 8;
/// Bytes of header covered by the v2/v3 checksum (everything before it).
const HEADER_HASHED: usize = HEADER - 8;

/// The smallest possible encoded v1/v2 record: a delta record is a
/// 1-byte source varint + 13 fixed bytes + a 1-byte packets varint
/// (plain records are larger). Used to bound the record-count
/// preallocation so a forged count can never allocate more than the
/// file could hold.
const MIN_RECORD_BYTES: usize = 15;

/// Records per v3 block. Blocks are the unit of parallel decode and of
/// corruption quarantine; each resets the delta predictors, so a bigger
/// block compresses marginally better but recovers less on corruption.
pub const BLOCK_RECORDS: usize = 4096;
/// v3 block-index entry: record count (4) + payload length (4) +
/// FNV-1a checksum (8). Byte offsets are the prefix sums of the
/// lengths, so they are implicit.
const INDEX_ENTRY: usize = 4 + 4 + 8;
/// Number of per-record columns in a v3 block (src, dst, src_port,
/// dst_port, protocol, ttl, tcp_flags, ip_len, packets).
const COLUMNS: usize = 9;
/// The v3 analogue of [`MIN_RECORD_BYTES`]: every column of a non-empty
/// block emits at least one byte, so a block payload shorter than this
/// cannot hold any records. Zero-run RLE means a *full* block can
/// legally be as small as `COLUMNS * 3` bytes; the preallocation clamp
/// for v3 is therefore structural — per-block counts are capped at
/// [`BLOCK_RECORDS`] and decoded incrementally — rather than a
/// bytes-per-record ratio.
const MIN_BLOCK_BYTES: usize = COLUMNS;

/// On-disk format version to write. Reads auto-detect from the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// `IOTFT02`: row-encoded payload, whole-file checksum.
    V2,
    /// `IOTFT03`: block-indexed columnar payload, per-block checksums.
    #[default]
    V3,
}

impl std::str::FromStr for StoreFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "v2" | "V2" | "2" => Ok(StoreFormat::V2),
            "v3" | "V3" | "3" => Ok(StoreFormat::V3),
            other => Err(format!("unknown store format {other:?} (want v2 or v3)")),
        }
    }
}

/// Options controlling on-disk encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Sort records by source address and delta-encode the addresses.
    /// Smaller files; record order inside an hour is not preserved.
    pub delta_encode: bool,
    /// Which format [`FlowStore::write_hour`] emits. Defaults to
    /// [`StoreFormat::V3`]; v1/v2 files remain readable either way.
    pub format: StoreFormat,
    /// How many mapped segments the store keeps open at once (LRU,
    /// clamped to at least 1). Reads are hour-sequential, so the
    /// default of two — the current segment plus its
    /// successor during the boundary crossing — keeps a year-scale
    /// scan from re-opening files; raise it for random-access
    /// workloads that hop between many segments.
    pub segment_cache: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            delta_encode: true,
            format: StoreFormat::V3,
            segment_cache: OPEN_SEGMENTS,
        }
    }
}

/// The store-layer metric handles, all under the `store.` prefix.
///
/// Every [`FlowStore`] carries one of these; by default the counters are
/// detached (they count, but no registry ever snapshots them), and
/// [`FlowStore::instrumented`] rebinds them to a shared
/// [`iotscope_obs::Registry`]. All `store.` metrics are
/// [stable](iotscope_obs::Stability::Stable): a successful run reads and
/// writes the same hours whichever thread performs the I/O.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// On-disk bytes read (`store.bytes_read`).
    pub bytes_read: Counter,
    /// Hour files read (`store.hours_read`).
    pub hours_read: Counter,
    /// Flowtuple records decoded (`store.records_decoded`).
    pub records_decoded: Counter,
    /// Decodes rejected by the FNV checksum (`store.checksum_failures`).
    pub checksum_failures: Counter,
    /// On-disk bytes written (`store.bytes_written`).
    pub bytes_written: Counter,
    /// Hour files written (`store.hours_written`).
    pub hours_written: Counter,
    /// Flowtuple records written (`store.records_written`).
    pub records_written: Counter,
    /// Distribution of hour-file sizes in bytes (`store.hour_bytes`).
    pub hour_bytes: Histogram,
    /// v3 blocks decoded successfully (`store.blocks_read`). v1/v2
    /// files count as one block.
    pub blocks_read: Counter,
    /// v3 blocks rejected by their per-block checksum
    /// (`store.block_checksum_failures`) — quarantined in tolerant
    /// decodes, fatal in strict ones.
    pub block_checksum_failures: Counter,
    /// Distribution of per-hour *decoded* (in-memory) sizes in bytes
    /// (`store.hour_decoded_bytes`); read next to `store.hour_bytes`
    /// (compressed on-disk sizes) it shows the compression ratio.
    pub hour_decoded_bytes: Histogram,
    /// Segment opens served from the LRU handle cache
    /// (`store.segment_cache.hits`).
    pub segment_cache_hits: Counter,
    /// Segment opens that had to map a file
    /// (`store.segment_cache.misses`). A high miss rate on a
    /// sequential scan means [`StoreOptions::segment_cache`] is too
    /// small for the access pattern.
    pub segment_cache_misses: Counter,
}

impl StoreMetrics {
    /// Handles not attached to any registry (counts are discarded).
    pub fn detached() -> Self {
        StoreMetrics {
            bytes_read: Counter::detached(),
            hours_read: Counter::detached(),
            records_decoded: Counter::detached(),
            checksum_failures: Counter::detached(),
            bytes_written: Counter::detached(),
            hours_written: Counter::detached(),
            records_written: Counter::detached(),
            hour_bytes: Histogram::detached(&BYTE_SIZE_BOUNDS),
            blocks_read: Counter::detached(),
            block_checksum_failures: Counter::detached(),
            hour_decoded_bytes: Histogram::detached(&BYTE_SIZE_BOUNDS),
            segment_cache_hits: Counter::detached(),
            segment_cache_misses: Counter::detached(),
        }
    }

    /// Handles registered in (or fetched from) `registry`.
    pub fn register(registry: &Registry) -> Self {
        StoreMetrics {
            bytes_read: registry.counter("store.bytes_read"),
            hours_read: registry.counter("store.hours_read"),
            records_decoded: registry.counter("store.records_decoded"),
            checksum_failures: registry.counter("store.checksum_failures"),
            bytes_written: registry.counter("store.bytes_written"),
            hours_written: registry.counter("store.hours_written"),
            records_written: registry.counter("store.records_written"),
            hour_bytes: registry.histogram("store.hour_bytes", &BYTE_SIZE_BOUNDS),
            blocks_read: registry.counter("store.blocks_read"),
            block_checksum_failures: registry.counter("store.block_checksum_failures"),
            hour_decoded_bytes: registry.histogram("store.hour_decoded_bytes", &BYTE_SIZE_BOUNDS),
            segment_cache_hits: registry.counter("store.segment_cache.hits"),
            segment_cache_misses: registry.counter("store.segment_cache.misses"),
        }
    }
}

/// Default capacity of the segment LRU ([`StoreOptions::segment_cache`]).
/// Reads are hour-sequential, so two (the current segment plus its
/// successor during the boundary crossing) keep a year-scale scan from
/// ever re-opening files while bounding resident mappings.
const OPEN_SEGMENTS: usize = 2;

/// Lazily loaded segment-routing state shared by clones of a store:
/// the parsed manifest and a small LRU of open (mapped) segments.
#[derive(Debug, Default)]
struct SegmentCache {
    /// `None` until first use; reset when compaction rewrites routing.
    manifest: Mutex<Option<Arc<Manifest>>>,
    /// LRU-ordered open segments (most recent first), at most
    /// [`StoreOptions::segment_cache`] entries.
    open: Mutex<Vec<(u32, Arc<Segment>)>>,
}

/// A directory-backed store of hourly flowtuple files.
#[derive(Debug, Clone)]
pub struct FlowStore {
    root: PathBuf,
    options: StoreOptions,
    metrics: StoreMetrics,
    segments: Arc<SegmentCache>,
}

impl FlowStore {
    /// Open an existing store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if `root` does not exist or is not a directory.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self, NetError> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("store root {} is not a directory", root.display()),
            )));
        }
        Ok(FlowStore {
            root,
            options: StoreOptions::default(),
            metrics: StoreMetrics::detached(),
            segments: Arc::default(),
        })
    }

    /// Create (or open) a store rooted at `root`, creating directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create<P: AsRef<Path>>(root: P, options: StoreOptions) -> Result<Self, NetError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(FlowStore {
            root,
            options,
            metrics: StoreMetrics::detached(),
            segments: Arc::default(),
        })
    }

    /// Rebind this store's metric handles to `registry`, so reads and
    /// writes show up in its snapshots (under the `store.` prefix).
    /// Consuming builder style: `FlowStore::open(dir)?.instrumented(&r)`.
    #[must_use]
    pub fn instrumented(mut self, registry: &Registry) -> Self {
        self.metrics = StoreMetrics::register(registry);
        self
    }

    /// The store's current metric handles.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the file covering `hour`.
    pub fn hour_path(&self, hour: UnixHour) -> PathBuf {
        let day = hour.get() / u64::from(HOURS_PER_DAY);
        self.root
            .join(format!("day-{day}"))
            .join(format!("hour-{}.ft", hour.get()))
    }

    /// Serialize `flows` into the file for `hour`, replacing any previous
    /// contents.
    ///
    /// The bytes go to a `.ft.tmp` sibling first and are renamed into
    /// place only once fully written, so an interrupted write never
    /// leaves a truncated file where [`FlowStore::read_hour`] (or
    /// [`FlowStore::has_hour`]) would find it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure the temporary file is removed.
    pub fn write_hour(&self, hour: UnixHour, flows: &[FlowTuple]) -> Result<(), NetError> {
        let path = self.hour_path(hour);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("ft.tmp");
        let bytes = encode_hour(hour, flows, self.options);
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(NetError::Io(e));
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(NetError::Io(e));
        }
        self.metrics.bytes_written.add(bytes.len() as u64);
        self.metrics.records_written.add(flows.len() as u64);
        self.metrics.hours_written.inc();
        self.metrics.hour_bytes.observe(bytes.len() as u64);
        Ok(())
    }

    /// Read back the flows for `hour`.
    ///
    /// Delta-encoded files return records sorted by source address.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file is missing and
    /// [`NetError::Codec`] if it is corrupt, truncated, or covers a
    /// different hour than its name claims.
    pub fn read_hour(&self, hour: UnixHour) -> Result<Vec<FlowTuple>, NetError> {
        let bytes = self.read_hour_bytes(hour)?;
        self.decode_hour_for(hour, &bytes)
    }

    /// Read the raw on-disk bytes for `hour` without decoding them,
    /// always as an owned `Vec<u8>` (copying out of a segment when the
    /// hour lives there). Prefer [`FlowStore::fetch_hour_bytes`], which
    /// borrows segment-resident hours zero-copy.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the hour is in neither a per-hour
    /// file nor a segment, or a file is unreadable.
    pub fn read_hour_bytes(&self, hour: UnixHour) -> Result<Vec<u8>, NetError> {
        Ok(self.fetch_hour_bytes(hour)?.into_vec())
    }

    /// Fetch the raw on-disk bytes for `hour` without decoding them:
    /// an owned read of the per-hour file when one exists, otherwise a
    /// zero-copy borrow out of the mapped segment the manifest routes
    /// the hour to. A per-hour file *shadows* a segment copy, so
    /// [`FlowStore::write_hour`] after compaction behaves as an
    /// overwrite without rewriting the segment.
    ///
    /// Lets callers separate I/O from decoding — the pipeline uses
    /// this to time the two stages independently.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the hour is in neither a per-hour
    /// file nor a segment (kind `NotFound`, like the pre-segment API),
    /// and [`NetError::Codec`] if the manifest or segment routing the
    /// hour is corrupt.
    pub fn fetch_hour_bytes(&self, hour: UnixHour) -> Result<HourBytes, NetError> {
        let path = self.hour_path(hour);
        match fs::File::open(&path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                self.metrics.bytes_read.add(bytes.len() as u64);
                self.metrics.hours_read.inc();
                Ok(HourBytes {
                    inner: HourBytesInner::Owned(bytes),
                })
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                match self.segment_lookup(hour)? {
                    Some((segment, offset, len)) => {
                        self.metrics.bytes_read.add(len as u64);
                        self.metrics.hours_read.inc();
                        Ok(HourBytes {
                            inner: HourBytesInner::Mapped {
                                segment,
                                offset,
                                len,
                            },
                        })
                    }
                    None => Err(NetError::Io(e)),
                }
            }
            Err(e) => Err(NetError::Io(e)),
        }
    }

    /// Decode bytes previously read for `hour` (the counterpart of
    /// [`FlowStore::read_hour_bytes`]), enforcing that the file really
    /// covers `hour`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] if the bytes are corrupt, truncated,
    /// or cover a different hour than the file name claims.
    pub fn decode_hour_for(
        &self,
        hour: UnixHour,
        bytes: &[u8],
    ) -> Result<Vec<FlowTuple>, NetError> {
        self.decode_hour_for_with(hour, bytes, DecodeOptions::default())
            .map(|d| d.flows)
    }

    /// As [`FlowStore::decode_hour_for`], with explicit decode options:
    /// `opts.quarantine` salvages an hour with corrupt v3 blocks instead
    /// of failing it (quarantined blocks are reported in the result and
    /// counted in `store.block_checksum_failures`).
    ///
    /// # Errors
    ///
    /// As [`FlowStore::decode_hour_for`]; with `opts.quarantine`, v3
    /// block corruption is downgraded from an error to a quarantine
    /// entry (header/index corruption still fails the hour).
    pub fn decode_hour_for_with(
        &self,
        hour: UnixHour,
        bytes: &[u8],
        opts: DecodeOptions,
    ) -> Result<DecodedHour, NetError> {
        let decoded = match decode_hour_with(bytes, opts) {
            Ok(d) => d,
            Err(e) => {
                if e.is_checksum_mismatch() {
                    self.metrics.checksum_failures.inc();
                }
                return Err(e);
            }
        };
        if decoded.hour != hour {
            return Err(NetError::Codec(format!(
                "file {} claims hour {}, expected {hour}",
                self.hour_path(hour).display(),
                decoded.hour
            )));
        }
        self.metrics
            .blocks_read
            .add((decoded.blocks - decoded.quarantined.len()) as u64);
        self.metrics
            .block_checksum_failures
            .add(decoded.quarantined.len() as u64);
        self.metrics.records_decoded.add(decoded.flows.len() as u64);
        self.metrics
            .hour_decoded_bytes
            .observe((decoded.flows.len() * std::mem::size_of::<FlowTuple>()) as u64);
        Ok(decoded)
    }

    /// Stream the flows for `hour` out of previously read bytes into
    /// `sink`, block by block, without materializing the hour — the
    /// fused decode→ingest path. See [`decode_hour_visit`] for the
    /// streaming contract; on success this records the same `store.*`
    /// metrics as [`FlowStore::decode_hour_for_with`].
    ///
    /// The claimed-hour check runs *before* anything reaches the sink:
    /// the materialized path can verify the hour after decoding because
    /// nothing has been consumed yet, but a sink may already have folded
    /// flows into long-lived state.
    ///
    /// # Errors
    ///
    /// As [`FlowStore::decode_hour_for_with`]. On error the sink may
    /// have received a prefix of the hour; callers must discard
    /// whatever it accumulated.
    pub fn visit_hour_for(
        &self,
        hour: UnixHour,
        bytes: &[u8],
        opts: DecodeOptions,
        sink: &mut dyn FlowSink,
    ) -> Result<VisitedHour, NetError> {
        let claimed = claimed_hour(bytes)?;
        if claimed != hour {
            return Err(NetError::Codec(format!(
                "file {} claims hour {claimed}, expected {hour}",
                self.hour_path(hour).display()
            )));
        }
        let visited = match decode_hour_visit(bytes, opts, sink) {
            Ok(v) => v,
            Err(e) => {
                if e.is_checksum_mismatch() {
                    self.metrics.checksum_failures.inc();
                }
                return Err(e);
            }
        };
        self.metrics
            .blocks_read
            .add((visited.blocks - visited.quarantined.len()) as u64);
        self.metrics
            .block_checksum_failures
            .add(visited.quarantined.len() as u64);
        self.metrics.records_decoded.add(visited.records as u64);
        self.metrics
            .hour_decoded_bytes
            .observe((visited.records * std::mem::size_of::<FlowTuple>()) as u64);
        Ok(visited)
    }

    /// Read the flows for `hour`, quarantining corrupt v3 blocks
    /// instead of failing the whole hour.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file is missing and
    /// [`NetError::Codec`] for corruption that quarantine cannot
    /// contain (bad magic, header/index corruption, or any corruption
    /// in a block-less v1/v2 file).
    pub fn read_hour_tolerant(&self, hour: UnixHour) -> Result<DecodedHour, NetError> {
        let bytes = self.read_hour_bytes(hour)?;
        self.decode_hour_for_with(hour, &bytes, DecodeOptions { quarantine: true })
    }

    /// Whether `hour` is readable — from a per-hour file or a segment.
    /// The segment check only consults the (cached) manifest; no
    /// segment file is opened.
    pub fn has_hour(&self, hour: UnixHour) -> bool {
        self.hour_path(hour).is_file()
            || self
                .load_manifest()
                .map(|m| m.lookup(hour).is_some())
                .unwrap_or(false)
    }

    /// The hours of `window` that have files, in order.
    pub fn hours_present(&self, window: &AnalysisWindow) -> Vec<UnixHour> {
        window.iter_hours().filter(|h| self.has_hour(*h)).collect()
    }

    /// The hours of `window` with **no** file — the paper's data-quality
    /// check that led to dropping April 18.
    pub fn hours_missing(&self, window: &AnalysisWindow) -> Vec<UnixHour> {
        window.iter_hours().filter(|h| !self.has_hour(*h)).collect()
    }

    /// The directory segments and their manifest live in.
    pub fn segments_dir(&self) -> PathBuf {
        self.root.join("segments")
    }

    /// Path of the segment manifest (`segments/manifest.idx`).
    pub fn manifest_path(&self) -> PathBuf {
        self.segments_dir().join(MANIFEST_FILE)
    }

    /// Every hour with a per-hour file under the store root, ascending.
    /// Does **not** include segment-resident hours — this is the
    /// compaction work list (and the CLI migrate walk).
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn hours_on_disk(&self) -> Result<Vec<UnixHour>, NetError> {
        let mut hours = Vec::new();
        for day in fs::read_dir(&self.root)? {
            let day = day?;
            if !day
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("day-"))
                || !day.path().is_dir()
            {
                continue;
            }
            for entry in fs::read_dir(day.path())? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(hour) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("hour-"))
                    .and_then(|n| n.strip_suffix(".ft"))
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                hours.push(UnixHour::new(hour));
            }
        }
        hours.sort();
        hours.dedup();
        Ok(hours)
    }

    /// Compact every per-hour file into the segment layout: hours are
    /// packed (ascending) into segments of `hours_per_segment`, the
    /// manifest is written (merged over any previous compaction), and
    /// only then are the per-hour files removed — an interrupted
    /// compaction leaves the hour readable from wherever it still is.
    ///
    /// v3 files are copied into segments byte-for-byte, so segment
    /// reads stay bit-identical to per-hour reads — including corrupt
    /// blocks, which quarantine exactly as before. v1/v2 files are
    /// strictly decoded and re-encoded as v3 (preserving their delta
    /// flag, hence their record order).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] for `hours_per_segment == 0`, an
    /// existing-but-corrupt manifest, a misnamed hour file, or a
    /// v1/v2 file that fails strict decode; I/O failures propagate.
    /// On error the store is never left with an hour routed nowhere.
    pub fn compact_to_segments(
        &self,
        hours_per_segment: usize,
    ) -> Result<CompactionReport, NetError> {
        let hours = self.hours_on_disk()?;
        if hours.is_empty() {
            return Ok(CompactionReport::default());
        }
        let manifest_path = self.manifest_path();
        let existing = if manifest_path.is_file() {
            Manifest::load(&manifest_path)?
        } else {
            Manifest::default()
        };
        let mut builder =
            SegmentStoreBuilder::new(&self.segments_dir(), hours_per_segment, existing)?;
        let mut bytes_before = 0u64;
        for hour in &hours {
            let path = self.hour_path(*hour);
            let mut bytes = Vec::new();
            fs::File::open(&path)?.read_to_end(&mut bytes)?;
            bytes_before += bytes.len() as u64;
            let claimed = claimed_hour(&bytes)
                .map_err(|e| NetError::Codec(format!("{}: {e}", path.display())))?;
            if claimed != *hour {
                return Err(NetError::Codec(format!(
                    "file {} claims hour {claimed}, expected {hour}",
                    path.display()
                )));
            }
            let payload = if bytes.starts_with(MAGIC_V3) {
                bytes
            } else {
                let delta = bytes[7] & FLAG_DELTA != 0;
                let decoded = decode_hour_with(&bytes, DecodeOptions::default())
                    .map_err(|e| NetError::Codec(format!("{}: {e}", path.display())))?;
                encode_hour_v3(
                    *hour,
                    &decoded.flows,
                    StoreOptions {
                        delta_encode: delta,
                        format: StoreFormat::V3,
                        ..self.options
                    },
                )
            };
            builder.push(*hour, payload)?;
        }
        let report = builder.finish()?;
        // The manifest is durable; the per-hour copies are now redundant.
        for hour in &hours {
            let _ = fs::remove_file(self.hour_path(*hour));
        }
        for day in fs::read_dir(&self.root)? {
            let day = day?;
            if day
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("day-"))
            {
                // Only succeeds when empty; a day holding files written
                // mid-compaction survives.
                let _ = fs::remove_dir(day.path());
            }
        }
        self.invalidate_segment_caches();
        Ok(CompactionReport {
            segments_written: report.segments_written,
            hours_compacted: hours.len(),
            bytes_before,
            bytes_after: report.bytes_written,
        })
    }

    /// The cached manifest, loading (or defaulting to empty, when no
    /// compaction ever ran) on first use.
    fn load_manifest(&self) -> Result<Arc<Manifest>, NetError> {
        let mut cached = self
            .segments
            .manifest
            .lock()
            .expect("manifest cache poisoned");
        if let Some(m) = cached.as_ref() {
            return Ok(Arc::clone(m));
        }
        let path = self.manifest_path();
        let manifest = Arc::new(if path.is_file() {
            Manifest::load(&path)?
        } else {
            Manifest::default()
        });
        *cached = Some(Arc::clone(&manifest));
        Ok(manifest)
    }

    /// Resolve `hour` through the manifest to its mapped segment and
    /// byte range, cross-checking the manifest's routing against the
    /// segment's own hour table so a stale manifest fails loudly.
    fn segment_lookup(
        &self,
        hour: UnixHour,
    ) -> Result<Option<(Arc<Segment>, usize, usize)>, NetError> {
        let manifest = self.load_manifest()?;
        let Some(entry) = manifest.lookup(hour) else {
            return Ok(None);
        };
        let segment = self.open_segment(entry.segment)?;
        let range = (entry.offset as usize, entry.len as usize);
        if segment.locate(hour) != Some(range) {
            return Err(NetError::Codec(format!(
                "manifest routes {hour} to segment {} at {}+{}, but the segment disagrees",
                entry.segment, entry.offset, entry.len
            )));
        }
        Ok(Some((segment, range.0, range.1)))
    }

    /// Open (and validate) segment `id`, through the LRU handle cache
    /// sized by [`StoreOptions::segment_cache`]. A hit moves the
    /// segment to the front; a miss maps the file, inserts it at the
    /// front, and evicts the least-recently-used handle past capacity.
    fn open_segment(&self, id: u32) -> Result<Arc<Segment>, NetError> {
        let mut open = self.segments.open.lock().expect("segment cache poisoned");
        if let Some(pos) = open.iter().position(|(i, _)| *i == id) {
            let entry = open.remove(pos);
            let segment = Arc::clone(&entry.1);
            open.insert(0, entry);
            self.metrics.segment_cache_hits.inc();
            return Ok(segment);
        }
        let segment = Arc::new(Segment::open(
            &self.segments_dir().join(segment_file_name(id)),
        )?);
        open.insert(0, (id, Arc::clone(&segment)));
        open.truncate(self.options.segment_cache.max(1));
        self.metrics.segment_cache_misses.inc();
        Ok(segment)
    }

    /// Drop the cached manifest and open segments (routing changed).
    fn invalidate_segment_caches(&self) {
        *self
            .segments
            .manifest
            .lock()
            .expect("manifest cache poisoned") = None;
        self.segments
            .open
            .lock()
            .expect("segment cache poisoned")
            .clear();
    }
}

/// What [`FlowStore::compact_to_segments`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segment files written.
    pub segments_written: usize,
    /// Per-hour files folded into segments (and removed).
    pub hours_compacted: usize,
    /// Total bytes of the per-hour files before compaction.
    pub bytes_before: u64,
    /// Total bytes of the segment files written.
    pub bytes_after: u64,
}

/// Raw bytes of one hour as fetched by [`FlowStore::fetch_hour_bytes`]:
/// either an owned read of a per-hour file or a zero-copy borrow out of
/// a mapped segment (the `Arc` keeps the mapping alive for as long as
/// any fetched hour is). Dereferences to `&[u8]` either way.
#[derive(Debug)]
pub struct HourBytes {
    inner: HourBytesInner,
}

#[derive(Debug)]
enum HourBytesInner {
    Owned(Vec<u8>),
    Mapped {
        segment: Arc<Segment>,
        offset: usize,
        len: usize,
    },
}

impl HourBytes {
    /// Whether these bytes borrow a mapped segment (false for per-hour
    /// file reads and for segment reads on the non-mmap fallback —
    /// see [`crate::mmap::Mmap::is_mapped`]; the slice behaves
    /// identically either way, this is observability for tests and
    /// benchmarks).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            HourBytesInner::Owned(_) => false,
            HourBytesInner::Mapped { segment, .. } => segment.is_mapped(),
        }
    }

    /// The bytes as a slice.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            HourBytesInner::Owned(bytes) => bytes,
            HourBytesInner::Mapped {
                segment,
                offset,
                len,
            } => &segment.bytes()[*offset..*offset + *len],
        }
    }

    /// Materialize into an owned `Vec<u8>` (free for owned reads).
    pub fn into_vec(self) -> Vec<u8> {
        match self.inner {
            HourBytesInner::Owned(bytes) => bytes,
            HourBytesInner::Mapped {
                segment,
                offset,
                len,
            } => segment.bytes()[offset..offset + len].to_vec(),
        }
    }
}

impl std::ops::Deref for HourBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl AsRef<[u8]> for HourBytes {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl From<Vec<u8>> for HourBytes {
    fn from(bytes: Vec<u8>) -> Self {
        HourBytes {
            inner: HourBytesInner::Owned(bytes),
        }
    }
}

/// Encode one hour's flows into the on-disk format selected by
/// `options.format` (v3 by default).
pub fn encode_hour(hour: UnixHour, flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    match options.format {
        StoreFormat::V2 => encode_hour_v2(hour, flows, options),
        StoreFormat::V3 => encode_hour_v3(hour, flows, options),
    }
}

/// Encode one hour's flows into the v2 row format, whose checksum
/// covers the header as well as the payload.
pub fn encode_hour_v2(hour: UnixHour, flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    let payload = encode_payload(flows, options);
    let mut out = Vec::with_capacity(payload.len() + HEADER);
    out.extend_from_slice(MAGIC_V2);
    out.put_u8(if options.delta_encode { FLAG_DELTA } else { 0 });
    out.put_u64(hour.get());
    out.put_u32(flows.len() as u32);
    let mut hasher = Fnv1a::new();
    hasher.update(&out[..HEADER_HASHED]);
    hasher.update(&payload);
    out.put_u64(hasher.finish());
    out.extend_from_slice(&payload);
    out
}

/// Encode one hour's flows into the v3 block format: records are split
/// into [`BLOCK_RECORDS`]-sized blocks, each block stores every field
/// as a delta+varint column (zero runs collapsed), and the header is
/// followed by a block index of `(record count, payload length,
/// checksum)` entries that the header checksum covers.
pub fn encode_hour_v3(hour: UnixHour, flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    let mut ordered: Vec<&FlowTuple> = flows.iter().collect();
    if options.delta_encode {
        // Same ordering as v2 delta files, so both formats decode an
        // hour to the identical record sequence.
        ordered.sort_by_key(|f| (u32::from(f.src_ip), u32::from(f.dst_ip), f.dst_port));
    }
    let blocks: Vec<(u32, Vec<u8>)> = ordered
        .chunks(BLOCK_RECORDS)
        .map(|chunk| (chunk.len() as u32, encode_block(chunk)))
        .collect();
    let index_len = 4 + blocks.len() * INDEX_ENTRY;
    let payload_len: usize = blocks.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(HEADER + index_len + payload_len);
    out.extend_from_slice(MAGIC_V3);
    out.put_u8(if options.delta_encode { FLAG_DELTA } else { 0 });
    out.put_u64(hour.get());
    out.put_u32(flows.len() as u32);
    let mut index = Vec::with_capacity(index_len);
    index.put_u32(blocks.len() as u32);
    for (count, payload) in &blocks {
        index.put_u32(*count);
        index.put_u32(payload.len() as u32);
        index.put_u64(fnv1a(payload));
    }
    let mut hasher = Fnv1a::new();
    hasher.update(&out[..HEADER_HASHED]);
    hasher.update(&index);
    out.put_u64(hasher.finish());
    out.extend_from_slice(&index);
    for (_, payload) in &blocks {
        out.extend_from_slice(payload);
    }
    out
}

/// Rewrite the hour an encoded file claims, in place, and fix up
/// whatever checksum covers the header: v2 hashes header + payload, v3
/// hashes header + block index, and v1's checksum never covered the
/// header at all. No payload encoding depends on the hour, so the
/// result is bit-identical to re-encoding the same records at the new
/// hour — synthetic replays (the perf bin's `--year`) lean on this to
/// reuse one encoded hour at thousands of timestamps without paying
/// for re-encoding, and archive tooling can use it to re-date hours.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for an unrecognized magic or a file too
/// short to hold the header (plus, for v3, its block index). The bytes
/// are untouched on error.
pub fn restamp_hour(bytes: &mut [u8], hour: UnixHour) -> Result<(), NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Codec("file shorter than header".to_owned()));
    }
    let mut hasher = Fnv1a::new();
    let hashed_tail = match &bytes[..7] {
        m if m == MAGIC_V1 => None, // v1 hashes the payload alone
        m if m == MAGIC_V2 => Some(HEADER..bytes.len()),
        m if m == MAGIC_V3 => {
            if bytes.len() < HEADER + 4 {
                return Err(NetError::Codec("truncated v3 block index".to_owned()));
            }
            let num_blocks =
                u32::from_be_bytes(bytes[HEADER..HEADER + 4].try_into().expect("4 bytes"));
            let index_end = (num_blocks as usize)
                .checked_mul(INDEX_ENTRY)
                .and_then(|n| n.checked_add(HEADER + 4))
                .filter(|end| *end <= bytes.len())
                .ok_or_else(|| NetError::Codec("truncated v3 block index".to_owned()))?;
            Some(HEADER..index_end)
        }
        _ => {
            return Err(NetError::Codec(
                "bad magic (not a flowtuple hour file)".to_owned(),
            ))
        }
    };
    bytes[8..16].copy_from_slice(&hour.get().to_be_bytes());
    if let Some(tail) = hashed_tail {
        hasher.update(&bytes[..HEADER_HASHED]);
        hasher.update(&bytes[tail]);
        bytes[HEADER_HASHED..HEADER].copy_from_slice(&hasher.finish().to_be_bytes());
    }
    Ok(())
}

/// Encode one hour's flows in the legacy v1 format (payload-only
/// checksum). Kept so compatibility tests can fabricate old files;
/// nothing in the workspace writes v1 anymore.
pub fn encode_hour_v1(hour: UnixHour, flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    let payload = encode_payload(flows, options);
    let mut out = Vec::with_capacity(payload.len() + HEADER);
    out.extend_from_slice(MAGIC_V1);
    out.put_u8(if options.delta_encode { FLAG_DELTA } else { 0 });
    out.put_u64(hour.get());
    out.put_u32(flows.len() as u32);
    out.put_u64(fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

fn encode_payload(flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    let mut payload = Vec::with_capacity(flows.len() * 16);
    if options.delta_encode {
        let mut sorted: Vec<&FlowTuple> = flows.iter().collect();
        sorted.sort_by_key(|f| (u32::from(f.src_ip), u32::from(f.dst_ip), f.dst_port));
        let mut prev: u32 = 0;
        for f in sorted {
            let ip = u32::from(f.src_ip);
            put_varint(&mut payload, ip.wrapping_sub(prev));
            prev = ip;
            encode_rest(&mut payload, f);
        }
    } else {
        for f in flows {
            f.encode_into(&mut payload);
        }
    }
    payload
}

/// How [`decode_hour_with`] should treat a decodable file; the default
/// is a strict decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Quarantine corrupt v3 blocks (keep the hour, report the blocks)
    /// instead of failing the whole hour. Header or index corruption —
    /// and any corruption in block-less v1/v2 files — still fails.
    pub quarantine: bool,
}

/// A v3 block rejected during a quarantining decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedBlock {
    /// Zero-based block position within the hour.
    pub index: usize,
    /// Records the index claimed for the block (lost with it).
    pub records: u32,
    /// Why the block was rejected.
    pub reason: String,
}

/// The outcome of decoding one hour file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedHour {
    /// The hour the file header claims.
    pub hour: UnixHour,
    /// Successfully decoded records, in on-disk order.
    pub flows: Vec<FlowTuple>,
    /// Total blocks in the file (1 for v1/v2).
    pub blocks: usize,
    /// Blocks dropped by a quarantining decode (empty on strict
    /// decodes, which fail instead).
    pub quarantined: Vec<QuarantinedBlock>,
}

/// A consumer of decoded flow slices — the receiving end of the fused
/// decode→ingest streaming path ([`decode_hour_visit`]).
///
/// # Contract
///
/// * Slices arrive in on-disk order (v3 block order; one slice for a
///   whole v1/v2 hour), so feeding a sink is observably identical to
///   feeding it the materialized `Vec<FlowTuple>` in one call — the
///   slice boundaries carry no information.
/// * Slices borrow a reusable scratch buffer: they are only valid for
///   the duration of the call and must be folded, not stashed.
/// * A quarantined block is silently skipped (it is reported in
///   [`VisitedHour::quarantined`], exactly as the materialized path
///   drops it from [`DecodedHour::flows`]).
/// * On a decode **error** the sink may already have received a prefix
///   of the hour; callers must throw away whatever state it built.
/// * A v3 decode delivers whole blocks through
///   [`FlowSink::visit_block`]; its default implementation falls back
///   to [`FlowSink::on_flows`] over the block's materialized records,
///   so a sink that only implements `on_flows` observes the exact
///   per-record stream it always did. Sinks that override
///   `visit_block` (batched correlation, column folds) must remain
///   observably identical to the fallback — the slice and the block
///   describe the same records in the same order.
pub trait FlowSink {
    /// Fold one in-order slice of decoded records.
    fn on_flows(&mut self, flows: &[FlowTuple]);

    /// Fold one decoded v3 block, column-at-a-time. The default
    /// forwards the block's record view to [`FlowSink::on_flows`];
    /// batched sinks override this to run whole-column passes (e.g.
    /// merge-join correlation over the ascending `src_ip` column).
    fn visit_block(&mut self, block: &ColumnBlock) {
        self.on_flows(block.flows());
    }
}

/// A [`FlowSink`] that materializes the stream — the adapter that lets
/// the materialized decode share the streaming code path (which is what
/// makes the two paths bit-identical by construction).
#[derive(Debug, Default)]
pub struct CollectSink(Vec<FlowTuple>);

impl CollectSink {
    /// A sink pre-sized for `n` records, so per-block appends of a
    /// known-size hour never reallocate.
    pub fn with_capacity(n: usize) -> Self {
        CollectSink(Vec::with_capacity(n))
    }

    /// The collected records, in on-disk order.
    pub fn into_flows(self) -> Vec<FlowTuple> {
        self.0
    }
}

impl FlowSink for CollectSink {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.0.extend_from_slice(flows);
    }
}

/// The outcome of streaming one hour file through a [`FlowSink`]:
/// [`DecodedHour`] minus the materialized records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitedHour {
    /// The hour the file header claims.
    pub hour: UnixHour,
    /// Records handed to the sink.
    pub records: usize,
    /// Total blocks in the file (1 for v1/v2).
    pub blocks: usize,
    /// Blocks dropped by a quarantining decode (empty on strict
    /// decodes, which fail instead).
    pub quarantined: Vec<QuarantinedBlock>,
}

/// Peek at the hour an on-disk file claims to cover, without decoding
/// any payload. Lets streaming callers reject a misnamed file *before*
/// feeding its records to a sink.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for a short header or bad magic.
pub fn claimed_hour(bytes: &[u8]) -> Result<UnixHour, NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Codec("file shorter than header".to_owned()));
    }
    match &bytes[..7] {
        m if m == MAGIC_V1 || m == MAGIC_V2 || m == MAGIC_V3 => {
            Ok(UnixHour::new((&bytes[8..16]).get_u64()))
        }
        _ => Err(NetError::Codec(
            "bad magic (not a flowtuple file)".to_owned(),
        )),
    }
}

/// Decode an on-disk hour file back into `(hour, flows)`.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for bad magic, checksum mismatch,
/// truncation, or trailing garbage.
pub fn decode_hour(bytes: &[u8]) -> Result<(UnixHour, Vec<FlowTuple>), NetError> {
    decode_hour_with(bytes, DecodeOptions::default()).map(|d| (d.hour, d.flows))
}

/// Stream an on-disk hour file through `sink` without materializing it:
/// v3 blocks are decoded one at a time into a reusable scratch buffer
/// and handed to the sink block by block; block-less v1/v2 files decode
/// whole and arrive as a single slice.
///
/// # Errors
///
/// As [`decode_hour_with`]. On error the sink may hold a prefix of the
/// hour (see the [`FlowSink`] contract).
pub fn decode_hour_visit(
    bytes: &[u8],
    opts: DecodeOptions,
    sink: &mut dyn FlowSink,
) -> Result<VisitedHour, NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Codec("file shorter than header".to_owned()));
    }
    match &bytes[..7] {
        m if m == MAGIC_V3 => visit_hour_v3(bytes, opts, sink),
        m if m == MAGIC_V2 || m == MAGIC_V1 => {
            // Row formats have no block structure to stream over; decode
            // whole and deliver as one slice.
            let decoded = decode_hour_v12(bytes, m == MAGIC_V2)?;
            sink.on_flows(&decoded.flows);
            Ok(VisitedHour {
                hour: decoded.hour,
                records: decoded.flows.len(),
                blocks: decoded.blocks,
                quarantined: decoded.quarantined,
            })
        }
        _ => Err(NetError::Codec(
            "bad magic (not a flowtuple file)".to_owned(),
        )),
    }
}

/// Decode an hour file with explicit [`DecodeOptions`] (per-block
/// corruption quarantine).
///
/// # Errors
///
/// As [`decode_hour`]; with `opts.quarantine`, corrupt v3 blocks are
/// reported in [`DecodedHour::quarantined`] instead of erroring.
pub fn decode_hour_with(bytes: &[u8], opts: DecodeOptions) -> Result<DecodedHour, NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Codec("file shorter than header".to_owned()));
    }
    match &bytes[..7] {
        m if m == MAGIC_V3 => decode_hour_v3(bytes, opts),
        m if m == MAGIC_V2 => decode_hour_v12(bytes, true),
        m if m == MAGIC_V1 => decode_hour_v12(bytes, false),
        _ => Err(NetError::Codec(
            "bad magic (not a flowtuple file)".to_owned(),
        )),
    }
}

/// The shared v1/v2 row-format decoder.
fn decode_hour_v12(bytes: &[u8], v2: bool) -> Result<DecodedHour, NetError> {
    let mut hdr = &bytes[7..HEADER];
    let flags = hdr.get_u8();
    let hour = UnixHour::new(hdr.get_u64());
    let count = hdr.get_u32() as usize;
    let checksum = hdr.get_u64();
    let payload = &bytes[HEADER..];
    let computed = if v2 {
        let mut hasher = Fnv1a::new();
        hasher.update(&bytes[..HEADER_HASHED]);
        hasher.update(payload);
        hasher.finish()
    } else {
        // v1 files only covered the payload; header corruption there is
        // caught by the plausibility checks below as far as possible.
        fnv1a(payload)
    };
    if computed != checksum {
        return Err(NetError::Codec(
            "checksum mismatch (corrupt file)".to_owned(),
        ));
    }
    // A forged count must never drive the preallocation past what the
    // payload could actually hold (records are >= MIN_RECORD_BYTES).
    if count > payload.len() / MIN_RECORD_BYTES {
        return Err(NetError::Codec(format!(
            "implausible record count {count} for {}-byte payload",
            payload.len()
        )));
    }
    let delta = flags & FLAG_DELTA != 0;
    let mut flows = Vec::with_capacity(count);
    let mut buf = payload;
    let mut prev: u32 = 0;
    for _ in 0..count {
        if delta {
            let d = get_varint(&mut buf)?;
            prev = prev.wrapping_add(d);
            let mut f = decode_rest(&mut buf)?;
            f.src_ip = std::net::Ipv4Addr::from(prev);
            flows.push(f);
        } else {
            flows.push(FlowTuple::decode_from(&mut buf)?);
        }
    }
    if buf.has_remaining() {
        return Err(NetError::Codec(format!(
            "{} trailing bytes after {count} records",
            buf.remaining()
        )));
    }
    Ok(DecodedHour {
        hour,
        flows,
        blocks: 1,
        quarantined: Vec::new(),
    })
}

/// One parsed v3 block-index entry plus its payload slice.
struct V3Block<'a> {
    count: u32,
    checksum: u64,
    payload: &'a [u8],
}

/// The v3 block-format decoder: the materialized façade over the
/// streaming path ([`visit_hour_v3`] + [`CollectSink`]), so both decode
/// an hour through the identical code and can never drift apart.
fn decode_hour_v3(bytes: &[u8], opts: DecodeOptions) -> Result<DecodedHour, NetError> {
    // Pre-size the collection to the header's record count so block
    // appends never reallocate. The count is clamped by what the block
    // index could actually address, so a corrupt header cannot drive
    // the allocation (header and index are checksummed, but the clamp
    // keeps even a colliding forgery bounded).
    let count = (&bytes[16..20]).get_u32() as usize;
    let num_blocks = if bytes.len() >= HEADER + 4 {
        (&bytes[HEADER..HEADER + 4]).get_u32() as usize
    } else {
        0
    };
    let mut sink = CollectSink::with_capacity(count.min(num_blocks.saturating_mul(BLOCK_RECORDS)));
    let visited = visit_hour_v3(bytes, opts, &mut sink)?;
    Ok(DecodedHour {
        hour: visited.hour,
        flows: sink.into_flows(),
        blocks: visited.blocks,
        quarantined: visited.quarantined,
    })
}

/// Validate a v3 header + block index and slice out the block payloads.
/// Everything past this point can trust counts and bounds.
fn parse_v3(bytes: &[u8]) -> Result<(UnixHour, Vec<V3Block<'_>>), NetError> {
    let mut hdr = &bytes[7..HEADER];
    let _flags = hdr.get_u8();
    let hour = UnixHour::new(hdr.get_u64());
    let count = hdr.get_u32() as usize;
    let checksum = hdr.get_u64();
    if bytes.len() < HEADER + 4 {
        return Err(NetError::Codec(
            "v3 file shorter than block index".to_owned(),
        ));
    }
    let num_blocks = (&bytes[HEADER..HEADER + 4]).get_u32() as usize;
    let index_end = num_blocks
        .checked_mul(INDEX_ENTRY)
        .and_then(|n| n.checked_add(HEADER + 4))
        .filter(|end| *end <= bytes.len())
        .ok_or_else(|| {
            NetError::Codec(format!(
                "implausible block count {num_blocks} for {}-byte file",
                bytes.len()
            ))
        })?;
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[..HEADER_HASHED]);
    hasher.update(&bytes[HEADER..index_end]);
    if hasher.finish() != checksum {
        return Err(NetError::Codec(
            "checksum mismatch (corrupt v3 header or block index)".to_owned(),
        ));
    }
    // Walk the (now trusted) index, slicing each block's payload.
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut idx = &bytes[HEADER + 4..index_end];
    let mut offset = index_end;
    let mut total_records = 0usize;
    for b in 0..num_blocks {
        let block_count = idx.get_u32();
        let len = idx.get_u32() as usize;
        let block_checksum = idx.get_u64();
        if block_count == 0 || block_count as usize > BLOCK_RECORDS {
            return Err(NetError::Codec(format!(
                "block {b}: implausible record count {block_count}"
            )));
        }
        if len < MIN_BLOCK_BYTES || offset + len > bytes.len() {
            return Err(NetError::Codec(format!(
                "block {b}: implausible payload length {len}"
            )));
        }
        total_records += block_count as usize;
        blocks.push(V3Block {
            count: block_count,
            checksum: block_checksum,
            payload: &bytes[offset..offset + len],
        });
        offset += len;
    }
    if offset != bytes.len() {
        return Err(NetError::Codec(format!(
            "{} trailing bytes after {num_blocks} blocks",
            bytes.len() - offset
        )));
    }
    if total_records != count {
        return Err(NetError::Codec(format!(
            "header claims {count} records but blocks hold {total_records}"
        )));
    }
    Ok((hour, blocks))
}

/// The streaming v3 decode: feed `sink` one block at a time through
/// [`FlowSink::visit_block`] (whose default falls back to the
/// per-record `on_flows`, so non-batched sinks observe the identical
/// stream), reusing one [`ColumnBlock`] across blocks — zero per-block
/// allocation, whole-column un-delta passes.
fn visit_hour_v3(
    bytes: &[u8],
    opts: DecodeOptions,
    sink: &mut dyn FlowSink,
) -> Result<VisitedHour, NetError> {
    let (hour, blocks) = parse_v3(bytes)?;
    let mut records = 0usize;
    let mut quarantined = Vec::new();
    let mut scratch = ColumnBlock::default();
    for (i, block) in blocks.iter().enumerate() {
        match decode_block_checked_columnar_into(block, &mut scratch) {
            Ok(()) => {
                records += scratch.len();
                sink.visit_block(&scratch);
            }
            Err(e) if opts.quarantine => quarantined.push(QuarantinedBlock {
                index: i,
                records: block.count,
                reason: format!("{e}"),
            }),
            Err(e) => return Err(NetError::Codec(format!("block {i}: {e}"))),
        }
    }
    Ok(VisitedHour {
        hour,
        records,
        blocks: blocks.len(),
        quarantined,
    })
}

/// Decode buffers of the test-only record-at-a-time reference decoder
/// ([`decode_block_into`]): one `Vec<u32>` per column plus the decoded
/// records.
#[cfg(test)]
#[derive(Debug, Default)]
struct BlockScratch {
    cols: [Vec<u32>; COLUMNS],
    flows: Vec<FlowTuple>,
}

/// Resolve an interleaved decode-plus-hash against the block checksum
/// with checksum-first error precedence: a block that fails its
/// checksum reports "checksum mismatch (corrupt block)" even when the
/// payload also fails to parse, exactly as when the hash was a
/// separate up-front pass. A decode error leaves `hasher` mid-stream,
/// so that cold path re-hashes the payload from scratch to make the
/// call.
fn resolve_block_checksum(
    decoded: Result<(), NetError>,
    hasher: &Fnv1a,
    block: &V3Block<'_>,
) -> Result<(), NetError> {
    let mismatch = || NetError::Codec("checksum mismatch (corrupt block)".to_owned());
    match decoded {
        Ok(()) if hasher.finish() == block.checksum => Ok(()),
        Ok(()) => Err(mismatch()),
        Err(_) if fnv1a(block.payload) != block.checksum => Err(mismatch()),
        Err(e) => Err(e),
    }
}

/// Encode every field of `f` except `src_ip` (already delta-encoded).
fn encode_rest<B: BufMut>(buf: &mut B, f: &FlowTuple) {
    buf.put_u32(u32::from(f.dst_ip));
    buf.put_u16(f.src_port);
    buf.put_u16(f.dst_port);
    buf.put_u8(f.protocol.number());
    buf.put_u8(f.ttl);
    buf.put_u8(f.tcp_flags.bits());
    buf.put_u16(f.ip_len);
    put_varint(buf, f.packets);
}

fn decode_rest<B: Buf>(buf: &mut B) -> Result<FlowTuple, NetError> {
    use crate::protocol::{TcpFlags, TransportProtocol};
    const FIXED: usize = 4 + 2 + 2 + 1 + 1 + 1 + 2;
    if buf.remaining() < FIXED {
        return Err(NetError::Codec("truncated delta record".to_owned()));
    }
    let dst_ip = std::net::Ipv4Addr::from(buf.get_u32());
    let src_port = buf.get_u16();
    let dst_port = buf.get_u16();
    let proto_num = buf.get_u8();
    let protocol = TransportProtocol::from_number(proto_num)
        .ok_or_else(|| NetError::Codec(format!("unknown protocol number {proto_num}")))?;
    let ttl = buf.get_u8();
    let tcp_flags = TcpFlags::from_bits(buf.get_u8());
    let ip_len = buf.get_u16();
    let packets = get_varint(buf)?;
    Ok(FlowTuple {
        src_ip: std::net::Ipv4Addr::UNSPECIFIED,
        dst_ip,
        src_port,
        dst_port,
        protocol,
        ttl,
        tcp_flags,
        ip_len,
        packets,
    })
}

/// ZigZag-map a signed delta into an unsigned varint-friendly value.
fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`]; production decodes un-zigzag whole columns in
/// [`unzigzag_prefix_sum`], so this per-value form serves the tests.
#[cfg(test)]
fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Append one column of per-record values as varints, collapsing runs
/// of zeros: a zero value is followed by a varint count of *additional*
/// zeros it stands for. Near-constant columns (ports, protocol, flags,
/// packet counts — zero deltas) collapse to a few bytes per run.
fn put_rle_column(out: &mut Vec<u8>, vals: &[u32]) {
    let mut i = 0;
    while i < vals.len() {
        let v = vals[i];
        put_varint(out, v);
        i += 1;
        if v == 0 {
            let start = i;
            while i < vals.len() && vals[i] == 0 {
                i += 1;
            }
            put_varint(out, (i - start) as u32);
        }
    }
}

/// Branchless multi-byte LEB128 decode of the varint starting at the
/// low byte of `word` (a little-endian load, so byte `i` of the input
/// is bits `8i..8i+8`). Returns the decoded value and its encoded
/// length in bytes.
///
/// SWAR: one load replaces the per-byte loop. `!word & 0x8080…` sets
/// bit 7 of every *stop* byte (continuation bit clear); the first stop
/// byte's position — `trailing_zeros / 8` — is the varint's last byte.
/// Masking to that length, clearing the continuation bits, and
/// compacting the up-to-five 7-bit groups yields the value with no
/// data-dependent branches on the hot path.
///
/// Matches [`get_varint`] bit-for-bit on every input of ≥ 8 available
/// bytes, including the error cases: a varint of 6+ bytes overflows
/// (scalar errors at `shift >= 32`, i.e. the 6th byte), and a 5-byte
/// varint carrying more than 4 high bits overflows (scalar's
/// `shift == 28 && low > 0x0f` check becomes a `> u32::MAX` compare on
/// the compacted 35-bit value). Callers fall back to the scalar decoder
/// near the end of the buffer, where truncation must be diagnosed
/// byte-by-byte.
///
/// # Errors
///
/// Returns [`NetError::Codec`] ("varint overflows u32") exactly where
/// the scalar decoder would.
///
/// Test-only reference: the hot loop ([`get_rle_column_into`]) inlines
/// these bit tricks per window; the proptests pin this one-varint form
/// to the scalar decoder, and the windowed loop to the whole-block
/// record decoder built on it.
#[cfg(test)]
#[inline]
fn swar_varint(word: u64) -> Result<(u32, usize), NetError> {
    let stops = !word & 0x8080_8080_8080_8080;
    // stops == 0 → no terminator in 8 bytes → at least 9 encoded bytes,
    // far past the 5-byte u32 maximum; trailing_zeros()=64 maps to
    // len 9 and falls into the same overflow arm.
    let len = (stops.trailing_zeros() >> 3) as usize + 1;
    if len > 5 {
        return Err(NetError::Codec("varint overflows u32".to_owned()));
    }
    // len <= 5, so the shift is >= 24 and in range.
    let kept = word & (u64::MAX >> (64 - 8 * len));
    let data = kept & 0x7f7f_7f7f_7f7f_7f7f;
    let v = (data & 0x7f)
        | (data >> 8 & 0x7f) << 7
        | (data >> 16 & 0x7f) << 14
        | (data >> 24 & 0x7f) << 21
        | (data >> 32 & 0x7f) << 28;
    if v > u64::from(u32::MAX) {
        return Err(NetError::Codec("varint overflows u32".to_owned()));
    }
    Ok((v as u32, len))
}

/// Decode one varint from the front of `buf`, advancing it: the SWAR
/// fast path when 8 bytes are available, the scalar [`get_varint`]
/// tail path otherwise (so truncation errors are identical to the
/// byte-at-a-time decoder).
///
/// # Errors
///
/// As [`get_varint`].
///
/// Test-only reference, like [`swar_varint`].
#[cfg(test)]
#[inline]
fn take_varint(buf: &mut &[u8]) -> Result<u32, NetError> {
    if let Some(window) = buf.first_chunk::<8>() {
        let (v, len) = swar_varint(u64::from_le_bytes(*window))?;
        *buf = &buf[len..];
        Ok(v)
    } else {
        get_varint(buf)
    }
}

/// Feed one decoded varint to the RLE state machine: a zero value arms
/// `pending_run` so the *next* varint is consumed as its run length.
/// `out` is pre-zeroed, so a run (and the zero value itself) is just an
/// index bump — only nonzero values are stored. Shared by the windowed
/// and scalar-tail loops of [`get_rle_column_into`].
#[inline]
fn rle_apply(
    out: &mut [u32],
    idx: &mut usize,
    pending_run: &mut bool,
    v: u32,
) -> Result<(), NetError> {
    let n = out.len();
    if *pending_run {
        let run = v as usize;
        if run > n - *idx {
            return Err(NetError::Codec(format!(
                "zero run of {run} overflows {n}-record column"
            )));
        }
        *idx += run;
        *pending_run = false;
    } else if v == 0 {
        *idx += 1;
        *pending_run = true;
    } else {
        out[*idx] = v;
        *idx += 1;
    }
    Ok(())
}

/// Read back `n` column values written by [`put_rle_column`] into a
/// reusable buffer (previous contents are replaced). This is the block
/// decoder's hot loop: the buffer is zero-filled once up front (so RLE
/// runs never write), then each 8-byte little-endian window is loaded
/// *once* and every varint that terminates inside it decodes from the
/// shifted word — the `swar_varint` bit tricks without the per-varint
/// reload, slice narrowing, and `Vec` growth checks. A varint that
/// straddles the window end re-anchors the window at its first byte;
/// under 8 remaining bytes fall back to the scalar [`get_varint`] so
/// truncation errors stay byte-exact.
///
/// Every byte consumed from `buf` is also fed to `hasher`, exactly
/// once and in order, so the caller can verify the block checksum as a
/// side effect of decoding instead of a separate pass over the payload
/// — the FNV-1a multiply chain is pure latency, and the decode work
/// executes under it for free (see
/// [`decode_block_checked_columnar_into`]). On an `Err` return the
/// hasher is left mid-stream and must not be trusted; the checked
/// wrappers re-hash from scratch on that cold path.
fn get_rle_column_into(
    buf: &mut &[u8],
    n: usize,
    vals: &mut Vec<u32>,
    hasher: &mut Fnv1a,
) -> Result<(), NetError> {
    let overflow = || NetError::Codec("varint overflows u32".to_owned());
    vals.clear();
    vals.resize(n, 0);
    let out = &mut vals[..];
    let mut idx = 0usize;
    let mut pending_run = false;
    while idx < n || pending_run {
        let Some(window) = buf.first_chunk::<8>() else {
            break;
        };
        const MSB: u64 = 0x8080_8080_8080_8080;
        let word = u64::from_le_bytes(*window);
        let stops = !word & MSB;
        if stops == 0 {
            // No terminator in 8 bytes → at least 9 encoded bytes,
            // far past the 5-byte u32 maximum.
            return Err(overflow());
        }
        // Burst path: all eight bytes are 1-byte varints with no zero
        // among them (near-constant columns decay to this shape), so
        // the window is eight column values verbatim.
        if stops == MSB && idx + 8 <= n && !pending_run {
            let zeros = word.wrapping_sub(0x0101_0101_0101_0101) & !word & MSB;
            if zeros == 0 {
                for k in 0..8 {
                    out[idx + k] = ((word >> (8 * k)) & 0x7f) as u32;
                }
                idx += 8;
                hasher.update(&buf[..8]);
                *buf = &buf[8..];
                continue;
            }
        }
        // Walk the stop bytes via clear-lowest-set-bit: the only
        // loop-carried chain is `s &= s - 1` (one cycle), so the
        // extraction of varint j+1 overlaps the extraction of varint j
        // instead of waiting on a reloaded window address.
        let mut s = stops;
        let mut consumed = 0usize;
        while s != 0 {
            let end = (s.trailing_zeros() >> 3) as usize;
            let len = end + 1 - consumed;
            let piece = word >> (8 * consumed);
            let v = if len <= 4 {
                // ≤ 28 data bits: no overflow is possible, and the
                // 7-bit groups compact with constant shifts (group k
                // is `(q >> k) & (0x7f << 7k)`).
                let q = piece & (u64::MAX >> (64 - 8 * len));
                (q & 0x7f) | (q >> 1 & 0x3f80) | (q >> 2 & 0x1f_c000) | (q >> 3 & 0x0fe0_0000)
            } else {
                if len > 5 {
                    return Err(overflow());
                }
                let data = piece & 0x7f_7f7f_7f7f;
                let v = (data & 0x7f)
                    | (data >> 8 & 0x7f) << 7
                    | (data >> 16 & 0x7f) << 14
                    | (data >> 24 & 0x7f) << 21
                    | (data >> 32 & 0x7f) << 28;
                if v > u64::from(u32::MAX) {
                    return Err(overflow());
                }
                v
            };
            s &= s - 1;
            consumed = end + 1;
            rle_apply(out, &mut idx, &mut pending_run, v as u32)?;
            if !(idx < n || pending_run) {
                hasher.update(&buf[..consumed]);
                *buf = &buf[consumed..];
                return Ok(());
            }
        }
        // A varint straddling the window end re-anchors at its first
        // byte; the next load decodes it whole (or the scalar tail
        // diagnoses truncation).
        hasher.update(&buf[..consumed]);
        *buf = &buf[consumed..];
    }
    // Fewer than 8 bytes left: scalar decode, so a buffer that ends
    // mid-varint reports "truncated varint" exactly like the
    // byte-at-a-time decoder.
    while idx < n || pending_run {
        let before = *buf;
        let v = get_varint(buf)?;
        hasher.update(&before[..before.len() - buf.len()]);
        rle_apply(out, &mut idx, &mut pending_run, v)?;
    }
    Ok(())
}

/// Encode one v3 block: each field becomes a delta column (predictors
/// start at zero, so blocks decode independently). Source addresses are
/// ascending in delta files, so they use plain wrapping deltas; every
/// other field uses zigzag deltas so small oscillations stay small.
fn encode_block(records: &[&FlowTuple]) -> Vec<u8> {
    let n = records.len();
    let mut out = Vec::with_capacity(n * 8);
    let mut col = Vec::with_capacity(n);
    let fill = |vals: &mut Vec<u32>, f: &mut dyn FnMut(&FlowTuple) -> u32| {
        vals.clear();
        vals.extend(records.iter().map(|r| f(r)));
    };
    let mut prev = 0u32;
    fill(&mut col, &mut |r| {
        let ip = u32::from(r.src_ip);
        let d = ip.wrapping_sub(prev);
        prev = ip;
        d
    });
    put_rle_column(&mut out, &col);
    let mut prev = 0u32;
    fill(&mut col, &mut |r| {
        let ip = u32::from(r.dst_ip);
        let d = zigzag(ip.wrapping_sub(prev) as i32);
        prev = ip;
        d
    });
    put_rle_column(&mut out, &col);
    for field in [
        (&|r: &FlowTuple| i32::from(r.src_port)) as &dyn Fn(&FlowTuple) -> i32,
        &|r| i32::from(r.dst_port),
        &|r| i32::from(r.protocol.number()),
        &|r| i32::from(r.ttl),
        &|r| i32::from(r.tcp_flags.bits()),
        &|r| i32::from(r.ip_len),
    ] {
        let mut prev = 0i32;
        fill(&mut col, &mut |r| {
            let v = field(r);
            let d = zigzag(v - prev);
            prev = v;
            d
        });
        put_rle_column(&mut out, &col);
    }
    let mut prev = 0u32;
    fill(&mut col, &mut |r| {
        let d = zigzag(r.packets.wrapping_sub(prev) as i32);
        prev = r.packets;
        d
    });
    put_rle_column(&mut out, &col);
    out
}

/// Decode one v3 block of `count` records (inverse of [`encode_block`])
/// into `scratch.flows`, one record at a time with checked
/// accumulators. `hasher` receives the payload bytes as they are
/// consumed (see [`get_rle_column_into`]); after an `Ok` return it has
/// covered the whole payload.
///
/// Test-only reference: this was the production block decoder until
/// the columnar one ([`decode_block_columnar_into`]) replaced it; the
/// proptests pin the two to the same flows and the same error strings.
#[cfg(test)]
fn decode_block_into(
    payload: &[u8],
    count: usize,
    scratch: &mut BlockScratch,
    hasher: &mut Fnv1a,
) -> Result<(), NetError> {
    use crate::protocol::{TcpFlags, TransportProtocol};
    let mut buf = payload;
    for col in scratch.cols.iter_mut() {
        get_rle_column_into(&mut buf, count, col, hasher)?;
    }
    if !buf.is_empty() {
        return Err(NetError::Codec(format!(
            "{} trailing bytes after {count}-record block",
            buf.len()
        )));
    }
    let [src, dst, src_port, dst_port, proto, ttl, flags, ip_len, packets] = &scratch.cols;
    // Checked accumulators: bounded fields must land back in range, or
    // the block is structurally corrupt.
    fn bounded(prev: &mut i32, delta: u32, max: i32, field: &str) -> Result<i32, NetError> {
        let v = prev
            .checked_add(unzigzag(delta))
            .filter(|v| (0..=max).contains(v))
            .ok_or_else(|| NetError::Codec(format!("{field} delta out of range")))?;
        *prev = v;
        Ok(v)
    }
    let flows = &mut scratch.flows;
    flows.clear();
    flows.reserve(count);
    let (mut p_src, mut p_dst, mut p_pk) = (0u32, 0u32, 0u32);
    let (mut p_sp, mut p_dp, mut p_proto, mut p_ttl, mut p_fl, mut p_len) =
        (0i32, 0i32, 0i32, 0i32, 0i32, 0i32);
    for i in 0..count {
        p_src = p_src.wrapping_add(src[i]);
        p_dst = p_dst.wrapping_add(unzigzag(dst[i]) as u32);
        p_pk = p_pk.wrapping_add(unzigzag(packets[i]) as u32);
        let proto_num = bounded(&mut p_proto, proto[i], 255, "protocol")? as u8;
        let protocol = TransportProtocol::from_number(proto_num)
            .ok_or_else(|| NetError::Codec(format!("unknown protocol number {proto_num}")))?;
        flows.push(FlowTuple {
            src_ip: std::net::Ipv4Addr::from(p_src),
            dst_ip: std::net::Ipv4Addr::from(p_dst),
            src_port: bounded(&mut p_sp, src_port[i], 65_535, "src_port")? as u16,
            dst_port: bounded(&mut p_dp, dst_port[i], 65_535, "dst_port")? as u16,
            protocol,
            ttl: bounded(&mut p_ttl, ttl[i], 255, "ttl")? as u8,
            tcp_flags: TcpFlags::from_bits(bounded(&mut p_fl, flags[i], 255, "tcp_flags")? as u8),
            ip_len: bounded(&mut p_len, ip_len[i], 65_535, "ip_len")? as u16,
            packets: p_pk,
        });
    }
    Ok(())
}

/// One decoded v3 block in struct-of-arrays form: every column fully
/// un-delta'd back to record values, plus the same records materialized
/// as [`FlowTuple`]s for per-record consumers. The column buffers and
/// the record buffer are capacity-reused across blocks (and across
/// hours, if the caller keeps the scratch) — a decode's steady state
/// allocates nothing.
///
/// In a delta-encoded file (the default; see
/// [`StoreOptions::delta_encode`]) records are sorted by
/// `(src_ip, dst_ip, dst_port)` before blocking, so
/// [`ColumnBlock::src_ip`] is **ascending within the block** — the
/// invariant the merge-join correlation passes
/// (`CorrelationIndex::correlate_sorted_block`,
/// `IntelIndex::lookup_sorted_block` downstream) exploit to replace
/// per-record binary searches with a forward gallop. Non-delta files
/// carry no such guarantee; batched consumers must stay correct (if
/// slower) on arbitrary column order.
#[derive(Debug, Default)]
pub struct ColumnBlock {
    /// Per-column buffers in on-disk column order (src, dst, src_port,
    /// dst_port, protocol, ttl, tcp_flags, ip_len, packets). Filled
    /// with raw deltas by the RLE pass, then rewritten in place to
    /// reconstructed record values by the un-delta passes.
    cols: [Vec<u32>; COLUMNS],
    /// The block's records, assembled from the reconstructed columns.
    flows: Vec<FlowTuple>,
}

impl ColumnBlock {
    /// Records in this block.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Source addresses as big-endian `u32`s, ascending when the file
    /// was delta-encoded (see the type-level invariant).
    pub fn src_ip(&self) -> &[u32] {
        &self.cols[0]
    }

    /// Destination addresses as big-endian `u32`s.
    pub fn dst_ip(&self) -> &[u32] {
        &self.cols[1]
    }

    /// Source ports (each value fits `u16`).
    pub fn src_port(&self) -> &[u32] {
        &self.cols[2]
    }

    /// Destination ports (each value fits `u16`).
    pub fn dst_port(&self) -> &[u32] {
        &self.cols[3]
    }

    /// Transport protocol numbers (each a valid
    /// [`crate::protocol::TransportProtocol`] number).
    pub fn protocol(&self) -> &[u32] {
        &self.cols[4]
    }

    /// TCP flag bytes (each value fits `u8`).
    pub fn tcp_flags(&self) -> &[u32] {
        &self.cols[6]
    }

    /// Per-record packet counts.
    pub fn packets(&self) -> &[u32] {
        &self.cols[8]
    }

    /// The same records row-wise, for per-record consumers and the
    /// [`FlowSink::visit_block`] fallback. `flows()[i]` is the record
    /// whose fields the column slices hold at index `i`.
    pub fn flows(&self) -> &[FlowTuple] {
        &self.flows
    }
}

/// Width of the fixed-size lanes the un-delta passes operate on. Eight
/// `u32`s fill a 256-bit vector register; the passes are written as
/// plain array arithmetic over `[u32; 8]` chunks (no `std::arch`) so
/// the autovectorizer can pick whatever width the target has.
const LANES: usize = 8;

/// In-place wrapping prefix sum: `vals[i] = vals[0] + … + vals[i]`
/// (mod 2³²). This is the batched inverse of per-record
/// `prev = prev.wrapping_add(delta)` with the predictor starting at 0.
///
/// The serial dependency is broken into `[u32; 8]` lanes: each chunk
/// runs a log-step inclusive scan (offsets 1, 2, 4 — lane-local shifts
/// and adds with no cross-iteration dependency, which autovectorizes),
/// then the running carry of all prior chunks is added to every lane.
/// The tail shorter than a chunk falls back to the scalar recurrence.
fn prefix_sum_wrapping(vals: &mut [u32]) {
    let mut carry = 0u32;
    let mut chunks = vals.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let lane: &mut [u32; LANES] = chunk.try_into().expect("LANES-wide chunk");
        for shift in [1, 2, 4] {
            let prev = *lane;
            for i in shift..LANES {
                lane[i] = lane[i].wrapping_add(prev[i - shift]);
            }
        }
        for v in lane.iter_mut() {
            *v = v.wrapping_add(carry);
        }
        carry = lane[LANES - 1];
    }
    for v in chunks.into_remainder() {
        carry = carry.wrapping_add(*v);
        *v = carry;
    }
}

/// Fused un-zigzag + wrapping prefix sum over a whole column: the
/// batched inverse of `prev = prev.wrapping_add(unzigzag(delta))` with
/// the predictor starting at 0. Same [`LANES`]-wide log-step scan as
/// [`prefix_sum_wrapping`], with the zigzag bit transform folded into
/// the chunk load so the column is read and written exactly once.
/// Two's-complement wrapping makes the `u32` arithmetic exact for the
/// `i32`-accumulated columns as well.
///
/// Returns the bitwise OR of every reconstructed value: for a bounded
/// column whose limit is `2^k - 1`, `or & !max == 0` proves every
/// value is in range without a second pass (see the wrapping-exactness
/// argument on [`decode_block_columnar_into`]), so the per-column
/// validation scan only runs on corrupt blocks.
fn unzigzag_prefix_sum(vals: &mut [u32]) -> u32 {
    let mut carry = 0u32;
    let mut seen = 0u32;
    let mut chunks = vals.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let lane: &mut [u32; LANES] = chunk.try_into().expect("LANES-wide chunk");
        for v in lane.iter_mut() {
            *v = (*v >> 1) ^ (*v & 1).wrapping_neg();
        }
        for shift in [1, 2, 4] {
            let prev = *lane;
            for i in shift..LANES {
                lane[i] = lane[i].wrapping_add(prev[i - shift]);
            }
        }
        for v in lane.iter_mut() {
            *v = v.wrapping_add(carry);
            seen |= *v;
        }
        carry = lane[LANES - 1];
    }
    for v in chunks.into_remainder() {
        carry = carry.wrapping_add((*v >> 1) ^ (*v & 1).wrapping_neg());
        *v = carry;
        seen |= carry;
    }
    seen
}

/// Index of the first element matching `bad`, scanned [`LANES`] at a
/// time: each chunk ORs the predicate into one flag with no early exit
/// inside the chunk (so the compares vectorize), and only a matching
/// chunk is rescanned for the exact index.
fn first_where(vals: &[u32], bad: impl Fn(u32) -> bool) -> Option<usize> {
    let mut chunks = vals.chunks_exact(LANES);
    let mut base = 0;
    for chunk in &mut chunks {
        let mut any = false;
        for &v in chunk {
            any |= bad(v);
        }
        if any {
            return chunk.iter().position(|&v| bad(v)).map(|i| base + i);
        }
        base += LANES;
    }
    chunks
        .remainder()
        .iter()
        .position(|&v| bad(v))
        .map(|i| base + i)
}

/// The block decoder, column-at-a-time: same wire format, same outputs,
/// and same error strings as the record-at-a-time reference
/// (`decode_block_into`, test-only; proptest-pinned), but structured for
/// throughput — the RLE/SWAR
/// varint loop runs striding one column at a time, every column is
/// un-delta'd by a [`LANES`]-wide wrapping pass, range validation is a
/// chunked whole-column scan, and record assembly is a branch-free
/// transpose with no serial dependencies.
///
/// Wrapping un-delta is exact for the bounded columns too, not just
/// the wrapping-accumulator ones: the record decoder's checked
/// recurrence keeps its accumulator in `0..=max` (max ≤ 65,535), so a
/// `checked_add` overflow can only be positive and always wraps the
/// small accumulator negative — and a negative `i32` is a huge `u32`.
/// Hence the first record where the checked recurrence fails (overflow
/// or out of range) is exactly the first record whose *wrapping*
/// reconstruction exceeds `max` as a `u32`. Values past a column's
/// first failure are garbage, but the block is rejected before
/// anything reads them.
///
/// Error-order contract: the record decoder fails at the *first* bad
/// record, checking fields in the order protocol → src_port → dst_port
/// → ttl → tcp_flags → ip_len within a record. Columnar validation
/// finds each column's first failure independently, then reports the
/// failure with the smallest `(record index, field order)` — the exact
/// error the record-at-a-time decoder would have raised.
///
/// `hasher` receives the payload bytes as they are consumed (see
/// [`get_rle_column_into`]); after an `Ok` return it has covered the
/// whole payload.
fn decode_block_columnar_into(
    payload: &[u8],
    count: usize,
    block: &mut ColumnBlock,
    hasher: &mut Fnv1a,
) -> Result<(), NetError> {
    use crate::protocol::{TcpFlags, TransportProtocol};
    let mut buf = payload;
    for col in block.cols.iter_mut() {
        get_rle_column_into(&mut buf, count, col, hasher)?;
    }
    if !buf.is_empty() {
        return Err(NetError::Codec(format!(
            "{} trailing bytes after {count}-record block",
            buf.len()
        )));
    }
    prefix_sum_wrapping(&mut block.cols[0]); // src: plain deltas
    let mut ors = [0u32; COLUMNS];
    for (or, col) in ors.iter_mut().zip(block.cols.iter_mut()).skip(1) {
        *or = unzigzag_prefix_sum(col); // every other column: zigzag deltas
    }
    // Validation: the OR aggregates prove the bounded columns in range
    // with no extra pass (every limit is `2^k - 1`); only a corrupt
    // column is rescanned for its first failure (see the
    // wrapping-exactness argument above — "out of range" is just
    // `u32 > max` on the reconstructed values), and multi-column
    // corruption resolves to the error the record-at-a-time decoder
    // hits first. The protocol column always scans for its second
    // per-record check (`from_number`) at the same field rank; an
    // unknown-but-in-range number only reports when no earlier record
    // failed, which the min-(record, rank) resolution guarantees.
    let mut first: Option<(usize, usize, NetError)> = None;
    let mut consider = |rank: usize, failed: Option<(usize, NetError)>| {
        if let Some((i, e)) = failed {
            if first
                .as_ref()
                .is_none_or(|(fi, fr, _)| (i, rank) < (*fi, *fr))
            {
                first = Some((i, rank, e));
            }
        }
    };
    let proto = &block.cols[4];
    consider(
        0,
        first_where(proto, |v| {
            v > 255 || TransportProtocol::from_number(v as u8).is_none()
        })
        .map(|i| {
            let v = proto[i];
            if v > 255 {
                (i, NetError::Codec("protocol delta out of range".to_owned()))
            } else {
                (
                    i,
                    NetError::Codec(format!("unknown protocol number {}", v as u8)),
                )
            }
        }),
    );
    for (rank, col, max, field) in [
        (1usize, 2usize, 65_535, "src_port"),
        (2, 3, 65_535, "dst_port"),
        (3, 5, 255, "ttl"),
        (4, 6, 255, "tcp_flags"),
        (5, 7, 65_535, "ip_len"),
    ] {
        if ors[col] & !max == 0 {
            continue;
        }
        consider(
            rank,
            first_where(&block.cols[col], |v| v > max)
                .map(|i| (i, NetError::Codec(format!("{field} delta out of range")))),
        );
    }
    if let Some((_, _, e)) = first {
        return Err(e);
    }
    // Transpose the reconstructed columns into records. Every value was
    // validated above, so this loop carries no error branches; the
    // up-front reslices let the indexing elide bounds checks, and the
    // protocol table replaces the `from_number` match, whose branches
    // mispredict on mixed TCP/UDP traffic (only validated numbers are
    // ever looked up, so the filler entries are unreachable).
    const PROTO_BY_NUMBER: [TransportProtocol; 256] = {
        let mut t = [TransportProtocol::Tcp; 256];
        t[TransportProtocol::Icmp as usize] = TransportProtocol::Icmp;
        t[TransportProtocol::Udp as usize] = TransportProtocol::Udp;
        t
    };
    let ColumnBlock { cols, flows } = block;
    let [src, dst, src_port, dst_port, proto, ttl, flags, ip_len, packets] = cols;
    let (src, dst, packets) = (&src[..count], &dst[..count], &packets[..count]);
    let (src_port, dst_port, proto) = (&src_port[..count], &dst_port[..count], &proto[..count]);
    let (ttl, flags, ip_len) = (&ttl[..count], &flags[..count], &ip_len[..count]);
    flows.clear();
    flows.reserve(count);
    for i in 0..count {
        flows.push(FlowTuple {
            src_ip: std::net::Ipv4Addr::from(src[i]),
            dst_ip: std::net::Ipv4Addr::from(dst[i]),
            src_port: src_port[i] as u16,
            dst_port: dst_port[i] as u16,
            protocol: PROTO_BY_NUMBER[(proto[i] & 0xff) as usize],
            ttl: ttl[i] as u8,
            tcp_flags: TcpFlags::from_bits(flags[i] as u8),
            ip_len: ip_len[i] as u16,
            packets: packets[i],
        });
    }
    Ok(())
}

/// Verify one block's checksum and decode its columns into `block`
/// (replacing previous contents).
///
/// The checksum is *interleaved* with the decode rather than a
/// separate pass: the RLE loop feeds every consumed byte to an FNV-1a
/// hasher as a side effect, and the comparison happens once the decode
/// finishes. FNV's multiply chain is pure latency (~3 cycles/byte with
/// nothing else to do), so the decode's independent ALU work executes
/// under it essentially for free — fusing the passes is markedly
/// cheaper than running them back to back over the same bytes.
fn decode_block_checked_columnar_into(
    v3: &V3Block<'_>,
    block: &mut ColumnBlock,
) -> Result<(), NetError> {
    let mut hasher = Fnv1a::new();
    let decoded = decode_block_columnar_into(v3.payload, v3.count as usize, block, &mut hasher);
    resolve_block_checksum(decoded, &hasher, v3)
}

/// Streaming 64-bit FNV-1a, so the checksum can cover discontiguous
/// regions (header prefix + payload) without concatenating them.
/// Shared with the segment container ([`crate::segment`]), whose
/// headers use the same hash.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    #[inline]
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `data`.
fn fnv1a(data: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.update(data);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{IcmpType, TcpFlags};
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
        let dir =
            std::env::temp_dir().join(format!("iotscope-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sorted(mut v: Vec<FlowTuple>) -> Vec<FlowTuple> {
        v.sort_by_key(|f| (u32::from(f.src_ip), u32::from(f.dst_ip), f.dst_port));
        v
    }

    #[test]
    fn roundtrip_delta_and_plain() {
        for format in [StoreFormat::V2, StoreFormat::V3] {
            for delta in [true, false] {
                let opts = StoreOptions {
                    delta_encode: delta,
                    format,
                    ..StoreOptions::default()
                };
                let hour = UnixHour::new(414_432);
                let bytes = encode_hour(hour, &flows(), opts);
                let (h, back) = decode_hour(&bytes).unwrap();
                assert_eq!(h, hour);
                assert_eq!(sorted(back), sorted(flows()), "{format:?} delta={delta}");
            }
        }
    }

    #[test]
    fn plain_mode_preserves_order() {
        for format in [StoreFormat::V2, StoreFormat::V3] {
            let opts = StoreOptions {
                delta_encode: false,
                format,
                ..StoreOptions::default()
            };
            let bytes = encode_hour(UnixHour::new(1), &flows(), opts);
            let (_, back) = decode_hour(&bytes).unwrap();
            assert_eq!(back, flows(), "{format:?}");
        }
    }

    #[test]
    fn delta_mode_is_smaller_for_clustered_sources() {
        // Sources in one /24 delta-encode to 1-2 byte deltas.
        let many: Vec<FlowTuple> = (0..500u32)
            .map(|i| {
                FlowTuple::tcp(
                    Ipv4Addr::from(0xC000_0200 + i % 256),
                    Ipv4Addr::new(44, 0, 0, 1),
                    40000,
                    23,
                    TcpFlags::SYN,
                )
            })
            .collect();
        let d = encode_hour(
            UnixHour::new(1),
            &many,
            StoreOptions {
                delta_encode: true,
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
        let p = encode_hour(
            UnixHour::new(1),
            &many,
            StoreOptions {
                delta_encode: false,
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
        assert!(d.len() < p.len(), "delta {} vs plain {}", d.len(), p.len());
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
        let mut bytes = encode_hour(
            UnixHour::new(1),
            &flows(),
            StoreOptions {
                delta_encode: false,
                ..StoreOptions::default()
            },
        );
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
        let present = store.hours_present(&window);
        let missing = store.hours_missing(&window);
        assert_eq!(present, vec![hours[0], hours[3]]);
        assert_eq!(missing.len(), 3);
        assert_eq!(present.len() + missing.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_root() {
        assert!(FlowStore::open("/definitely/not/here-iotscope").is_err());
    }

    #[test]
    fn files_group_by_day_directory() {
        let store = FlowStore {
            root: PathBuf::from("/data"),
            options: StoreOptions::default(),
            metrics: StoreMetrics::detached(),
            segments: Arc::default(),
        };
        let p = store.hour_path(UnixHour::new(49));
        assert_eq!(p, PathBuf::from("/data/day-2/hour-49.ft"));
    }

    #[test]
    fn v1_files_still_decode() {
        for delta in [true, false] {
            let opts = StoreOptions {
                delta_encode: delta,
                ..StoreOptions::default()
            };
            let hour = UnixHour::new(414_432);
            let bytes = encode_hour_v1(hour, &flows(), opts);
            assert_eq!(&bytes[..7], MAGIC_V1);
            let (h, back) = decode_hour(&bytes).unwrap();
            assert_eq!(h, hour);
            assert_eq!(sorted(back), sorted(flows()), "delta={delta}");
        }
    }

    #[test]
    fn new_files_are_v3() {
        let bytes = encode_hour(UnixHour::new(1), &flows(), StoreOptions::default());
        assert_eq!(&bytes[..7], MAGIC_V3);
    }

    #[test]
    fn v2_format_option_still_writes_v2() {
        let bytes = encode_hour(
            UnixHour::new(1),
            &flows(),
            StoreOptions {
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
        assert_eq!(&bytes[..7], MAGIC_V2);
        let (_, back) = decode_hour(&bytes).unwrap();
        assert_eq!(sorted(back), sorted(flows()));
    }

    #[test]
    fn header_corruption_detected_in_v2_and_v3() {
        // Any header byte flip — flags, hour, or count — must fail the
        // checksum (v1's payload-only hash missed all of these). In v3
        // the header hash additionally covers the block index.
        for format in [StoreFormat::V2, StoreFormat::V3] {
            let clean = encode_hour(
                UnixHour::new(414_432),
                &flows(),
                StoreOptions {
                    format,
                    ..StoreOptions::default()
                },
            );
            for idx in 7..HEADER_HASHED {
                let mut bytes = clean.clone();
                bytes[idx] ^= 0x01;
                let err = decode_hour(&bytes).unwrap_err();
                assert!(
                    format!("{err}").contains("checksum")
                        || format!("{err}").contains("implausible"),
                    "{format:?} byte {idx} flip gave: {err}"
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
        let err = decode_hour_with(&bytes, opts).unwrap_err();
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
        let mut bytes = encode_hour_v1(UnixHour::new(1), &flows(), StoreOptions::default());
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
        let bytes = encode_hour(
            UnixHour::new(1),
            &tiny,
            StoreOptions {
                delta_encode: true,
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
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
        assert_eq!(store.hours_present(&window), vec![hours[0]]);
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
        let decoded = decode_hour_with(&bytes, DecodeOptions::default()).unwrap();
        assert_eq!(decoded.hour, hour);
        assert_eq!(decoded.blocks, 3);
        assert!(decoded.quarantined.is_empty());
        assert_eq!(sorted(decoded.flows), sorted(many));
    }

    #[test]
    fn v3_decodes_identically_to_v2() {
        // Both formats sort delta files the same way, so the decoded
        // record sequence must match exactly, not just as multisets.
        let many = scan_like_flows(6000);
        let hour = UnixHour::new(12);
        let v2 = encode_hour(
            hour,
            &many,
            StoreOptions {
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
        let v3 = encode_hour(hour, &many, StoreOptions::default());
        assert_eq!(decode_hour(&v2).unwrap().1, decode_hour(&v3).unwrap().1);
    }

    #[test]
    fn v3_is_much_smaller_than_v2_on_scan_traffic() {
        let many = scan_like_flows(20_000);
        let v2 = encode_hour(
            UnixHour::new(1),
            &many,
            StoreOptions {
                format: StoreFormat::V2,
                ..StoreOptions::default()
            },
        );
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
        let first_len =
            u32::from_be_bytes(bytes[HEADER + 8..HEADER + 12].try_into().unwrap()) as usize;
        let target = index_end + first_len + 10;
        bytes[target] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        // Strict read fails the whole hour.
        assert!(store.read_hour(hour).is_err());
        // Tolerant read keeps the other two blocks.
        let decoded = store.read_hour_tolerant(hour).unwrap();
        assert_eq!(decoded.blocks, 3);
        assert_eq!(decoded.quarantined.len(), 1);
        assert_eq!(decoded.quarantined[0].index, 1);
        assert_eq!(decoded.quarantined[0].records, BLOCK_RECORDS as u32);
        assert!(decoded.quarantined[0].reason.contains("checksum"));
        assert_eq!(
            decoded.flows.len(),
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
        let mut hasher = Fnv1a::new();
        get_rle_column_into(&mut slice, vals.len(), &mut out, &mut hasher).unwrap();
        assert_eq!(out, vals);
        assert!(slice.is_empty());
        // The interleaved hash must cover exactly the consumed bytes.
        assert_eq!(hasher.finish(), fnv1a(&buf));
        // A zero run claiming more records than the column holds.
        let mut bad = Vec::new();
        put_varint(&mut bad, 0);
        put_varint(&mut bad, 100);
        let err =
            get_rle_column_into(&mut bad.as_slice(), 3, &mut out, &mut Fnv1a::new()).unwrap_err();
        assert!(format!("{err}").contains("zero run"));
    }

    /// A sink that also records slice boundaries, to prove streaming
    /// really delivers per-block (and that order is preserved).
    #[derive(Default)]
    struct ChunkSink {
        flows: Vec<FlowTuple>,
        chunks: Vec<usize>,
    }

    impl FlowSink for ChunkSink {
        fn on_flows(&mut self, flows: &[FlowTuple]) {
            self.flows.extend_from_slice(flows);
            self.chunks.push(flows.len());
        }
    }

    #[test]
    fn visit_matches_materialized_across_formats() {
        let many = scan_like_flows(BLOCK_RECORDS as u32 * 2 + 500);
        let hour = UnixHour::new(33);
        for (format, encode_v1) in [
            (StoreFormat::V3, false),
            (StoreFormat::V2, false),
            (StoreFormat::V2, true),
        ] {
            let opts = StoreOptions {
                format,
                ..StoreOptions::default()
            };
            let bytes = if encode_v1 {
                encode_hour_v1(hour, &many, opts)
            } else {
                encode_hour(hour, &many, opts)
            };
            assert_eq!(claimed_hour(&bytes).unwrap(), hour);
            let opts = DecodeOptions::default();
            let materialized = decode_hour_with(&bytes, opts).unwrap();
            let mut sink = ChunkSink::default();
            let visited = decode_hour_visit(&bytes, opts, &mut sink).unwrap();
            assert_eq!(visited.hour, materialized.hour);
            assert_eq!(visited.blocks, materialized.blocks);
            assert_eq!(visited.records, materialized.flows.len());
            assert_eq!(sink.flows, materialized.flows, "{format:?}");
            if format == StoreFormat::V3 {
                // One slice per block, in order.
                assert_eq!(sink.chunks.len(), materialized.blocks);
                assert_eq!(sink.chunks[0], BLOCK_RECORDS);
            } else {
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
        let first_len =
            u32::from_be_bytes(bytes[HEADER + 8..HEADER + 12].try_into().unwrap()) as usize;
        bytes[index_end + first_len + 10] ^= 0xff;

        // Strict streaming decode fails like the materialized one.
        let mut sink = ChunkSink::default();
        assert!(decode_hour_visit(&bytes, DecodeOptions::default(), &mut sink).is_err());

        let opts = DecodeOptions { quarantine: true };
        let materialized = decode_hour_with(&bytes, opts).unwrap();
        let mut sink = ChunkSink::default();
        let visited = decode_hour_visit(&bytes, opts, &mut sink).unwrap();
        assert_eq!(sink.flows, materialized.flows);
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
        let bytes = store.read_hour_bytes(h2).unwrap();
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
    fn visit_hour_for_counts_metrics_like_decode_hour_for() {
        let registry_a = iotscope_obs::Registry::new();
        let registry_b = iotscope_obs::Registry::new();
        let dir = tmpdir("visit-metrics");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        let many = scan_like_flows(BLOCK_RECORDS as u32 + 50);
        let hour = UnixHour::new(70);
        store.write_hour(hour, &many).unwrap();
        let bytes = fs::read(store.hour_path(hour)).unwrap();

        let a = store.clone().instrumented(&registry_a);
        a.decode_hour_for_with(hour, &bytes, DecodeOptions::default())
            .unwrap();
        let b = store.clone().instrumented(&registry_b);
        let mut sink = ChunkSink::default();
        b.visit_hour_for(hour, &bytes, DecodeOptions::default(), &mut sink)
            .unwrap();
        assert_eq!(registry_a.snapshot(), registry_b.snapshot());
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
        type EncoderFn = fn(UnixHour, &[FlowTuple], StoreOptions) -> Vec<u8>;
        let encoders: [EncoderFn; 3] = [encode_hour_v1, encode_hour_v2, encode_hour_v3];
        for encode in encoders {
            let mut bytes = encode(from, &flows, StoreOptions::default());
            restamp_hour(&mut bytes, to).unwrap();
            assert_eq!(
                bytes,
                encode(to, &flows, StoreOptions::default()),
                "restamp must be bit-identical to re-encoding at the new hour"
            );
            let decoded = decode_hour_with(&bytes, DecodeOptions::default()).unwrap();
            assert_eq!(decoded.hour, to);
            assert_eq!(decoded.flows.len(), flows.len());
        }
    }

    #[test]
    fn restamp_hour_rejects_garbage_without_touching_it() {
        let to = UnixHour::new(1);
        let mut short = vec![0u8; HEADER - 1];
        assert!(restamp_hour(&mut short, to).is_err());

        let mut bad_magic =
            encode_hour_v3(UnixHour::new(5), &sample_flows(10), StoreOptions::default());
        bad_magic[0] ^= 0xff;
        let before = bad_magic.clone();
        let err = restamp_hour(&mut bad_magic, to).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
        assert_eq!(bad_magic, before, "bytes must be untouched on error");

        // A v3 header whose index is cut off cannot be re-checksummed.
        let full = encode_hour_v3(UnixHour::new(5), &sample_flows(10), StoreOptions::default());
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
        #[test]
        fn prop_encode_decode_roundtrip(
            raw in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
                0..50,
            ),
            delta: bool,
            hour: u64,
        ) {
            use crate::protocol::TransportProtocol;
            let flows: Vec<FlowTuple> = raw
                .into_iter()
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
                .collect();
            for format in [StoreFormat::V2, StoreFormat::V3] {
                let opts = StoreOptions { delta_encode: delta, format, ..StoreOptions::default() };
                let bytes = encode_hour(UnixHour::new(hour), &flows, opts);
                let (h, back) = decode_hour(&bytes).unwrap();
                prop_assert_eq!(h, UnixHour::new(hour));
                prop_assert_eq!(sorted(back), sorted(flows.clone()));
            }
        }
    }

    /// One record of the inline tuple strategy the decoder-equivalence
    /// proptests generate: every `FlowTuple` field as a plain integer.
    type RawFlow = (u32, u32, u16, u16, usize, u8, u8, u16, u32);

    /// Materialize the inline tuple strategy used by the roundtrip
    /// proptest into flows.
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
        /// decoder: same flows on valid payloads (mutations included when
        /// they happen to stay decodable), and byte-identical error
        /// strings on corrupt ones.
        #[test]
        fn prop_columnar_decode_matches_record_decoder(
            raw in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
                0..60,
            ),
            mutations in proptest::collection::vec(
                (any::<usize>(), 1u8..=255), 0..3),
        ) {
            let flows = tuples_to_flows(raw);
            let refs: Vec<&FlowTuple> = flows.iter().collect();
            let mut payload = encode_block(&refs);
            let pristine = mutations.is_empty() || payload.is_empty();
            for (idx, x) in mutations {
                if !payload.is_empty() {
                    let i = idx % payload.len();
                    payload[i] ^= x;
                }
            }
            let mut scratch = BlockScratch::default();
            let mut rh = Fnv1a::new();
            let record = decode_block_into(&payload, flows.len(), &mut scratch, &mut rh);
            let mut block = ColumnBlock::default();
            let mut ch = Fnv1a::new();
            let columnar = decode_block_columnar_into(&payload, flows.len(), &mut block, &mut ch);
            match (record, columnar) {
                (Ok(()), Ok(())) => {
                    prop_assert_eq!(&scratch.flows, block.flows());
                    // The interleaved hashes covered the whole payload.
                    prop_assert_eq!(rh.finish(), fnv1a(&payload));
                    prop_assert_eq!(ch.finish(), fnv1a(&payload));
                    // The exposed src column is the decoded addresses.
                    for (f, &ip) in block.flows().iter().zip(block.src_ip()) {
                        prop_assert_eq!(u32::from(f.src_ip), ip);
                    }
                    if pristine {
                        prop_assert_eq!(block.flows(), flows.as_slice());
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
                (a, b) => prop_assert!(
                    false, "decoder disagreement: record {:?}, columnar {:?}", a, b),
            }
        }

        /// Satellite: the varint scalar-tail window. Every block payload
        /// ends exactly at the buffer boundary, so its final columns
        /// decode through the < 8-byte scalar fallback; both decoders
        /// must agree with the encoder at the exact boundary and must
        /// reject bytes past it with the same error.
        #[test]
        fn prop_varint_tail_and_block_boundary(
            raw in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), 0usize..3, any::<u8>(), any::<u8>(), any::<u16>(), 1u32..1_000_000),
                1..8,
            ),
            pad in 1usize..8,
        ) {
            let flows = tuples_to_flows(raw);
            let refs: Vec<&FlowTuple> = flows.iter().collect();
            let payload = encode_block(&refs);
            // Exact boundary: both decoders consume the whole payload.
            let mut scratch = BlockScratch::default();
            decode_block_into(&payload, flows.len(), &mut scratch, &mut Fnv1a::new()).unwrap();
            prop_assert_eq!(&scratch.flows, &flows);
            let mut block = ColumnBlock::default();
            decode_block_columnar_into(&payload, flows.len(), &mut block, &mut Fnv1a::new())
                .unwrap();
            prop_assert_eq!(block.flows(), flows.as_slice());
            // Bytes past the boundary: identical trailing-bytes errors.
            let mut padded = payload.clone();
            padded.extend(vec![0u8; pad]);
            let a = decode_block_into(&padded, flows.len(), &mut scratch, &mut Fnv1a::new())
                .unwrap_err();
            let b =
                decode_block_columnar_into(&padded, flows.len(), &mut block, &mut Fnv1a::new())
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
            let mut scratch = BlockScratch::default();
            let a = decode_block_into(&payload, 2, &mut scratch, &mut Fnv1a::new()).unwrap_err();
            let mut block = ColumnBlock::default();
            let b =
                decode_block_columnar_into(&payload, 2, &mut block, &mut Fnv1a::new()).unwrap_err();
            assert_eq!(format!("{a}"), format!("{b}"), "{name}");
            assert!(format!("{a}").contains(want), "{name}: got {a}");
        }
    }
}
