//! The store layer: [`FlowStore`], a directory of hourly flowtuple
//! files — its layout, atomic reads and writes, compaction into segments
//! and segment routing, owned [`HourBytes`] for either shape, and the
//! `store.*` metrics.
//!
//! Mirrors the UCSD telescope data layout the paper consumed: one file
//! per hour, grouped in per-day directories. Every file carries a magic
//! header, the hour it covers, a record count, a sorted and
//! delta-encoded payload (source addresses ascending, stored as deltas —
//! the same trick corsaro uses to shrink flowtuple files), and FNV-1a
//! checksums so corruption is detected rather than silently analyzed.
//! New files are always v3 (block-indexed columns); archived v1/v2
//! hours stay readable. Below this module sit three more layers: the
//! v3 format and the one decode surface, the block column kernels, and
//! read-only legacy v1/v2 support.
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

mod block;
mod format;
mod legacy;
#[cfg(test)]
mod tests;

pub use block::ColumnBlock;
pub(crate) use block::Fnv1a;
pub(crate) use format::{claimed_hour, HEADER};
pub use format::{
    decode_hour, decode_hour_visit, encode_hour, restamp_hour, CollectSink, DecodeOptions,
    FlowSink, QuarantinedBlock, StoreFormat, StoreOptions, VisitedHour, BLOCK_RECORDS,
};

use crate::flowtuple::FlowTuple;
use crate::segment::{segment_file_name, Manifest, Segment, SegmentStoreBuilder, MANIFEST_FILE};
use crate::time::{UnixHour, HOURS_PER_DAY};
use crate::NetError;
use iotscope_obs::{Counter, Histogram, Registry, BYTE_SIZE_BOUNDS};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The store-layer metric handles, all under the `store.` prefix.
///
/// Every [`FlowStore`] carries one of these; by default they live in a
/// private registry nobody snapshots, and [`FlowStore::instrumented`]
/// rebinds them to a shared [`iotscope_obs::Registry`]. All `store.` metrics are
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
    /// Segment opens that had to open and validate a file
    /// (`store.segment_cache.misses`). A high miss rate on a
    /// sequential scan means the access pattern hops between more
    /// segments than the cache holds.
    pub segment_cache_misses: Counter,
}

impl StoreMetrics {
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

/// Capacity of the segment LRU, which caches file handles and validated
/// hour tables, not bytes. Reads are hour-sequential, so two (the
/// current segment plus its successor during the boundary crossing)
/// keep a year-scale scan from ever re-opening and re-validating a
/// file.
const OPEN_SEGMENTS: usize = 2;

/// Lazily loaded segment-routing state shared by clones of a store:
/// the parsed manifest and a small LRU of open segments.
#[derive(Debug, Default)]
struct SegmentCache {
    /// `None` until first use; reset when compaction rewrites routing.
    manifest: Mutex<Option<Arc<Manifest>>>,
    /// LRU-ordered open segments (most recent first), at most
    /// [`OPEN_SEGMENTS`] entries.
    open: Mutex<Vec<(u32, Arc<Segment>)>>,
}

/// A directory-backed store of hourly flowtuple files.
#[derive(Debug, Clone)]
pub struct FlowStore {
    root: PathBuf,
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
        Ok(FlowStore::at(root))
    }

    /// Create (or open) a store rooted at `root`, creating directories as
    /// needed. `options` has one value (v3 is the only format written).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create<P: AsRef<Path>>(root: P, options: StoreOptions) -> Result<Self, NetError> {
        let StoreOptions {
            format: StoreFormat::V3,
        } = options;
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(FlowStore::at(root))
    }

    fn at(root: PathBuf) -> Self {
        FlowStore {
            root,
            metrics: StoreMetrics::register(&Registry::new()),
            segments: Arc::default(),
        }
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

    /// Serialize `flows` into the file for `hour` (v3), replacing any
    /// previous contents.
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
        let bytes = encode_hour(hour, flows, StoreOptions::default());
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

    /// Read back the flows for `hour`, materialized: the
    /// [`FlowStore::fetch_hour_bytes`] + [`FlowStore::visit_hour_for`]
    /// pair into a [`CollectSink`].
    ///
    /// Delta-encoded files return records sorted by source address.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file is missing and
    /// [`NetError::Codec`] if it covers a different hour than its name
    /// claims, or is corrupt or truncated.
    pub fn read_hour(&self, hour: UnixHour) -> Result<Vec<FlowTuple>, NetError> {
        let bytes = self.fetch_hour_bytes(hour)?;
        let (_, flows) = format::collect(&bytes, |sink| {
            self.visit_hour_for(hour, &bytes, DecodeOptions::default(), sink)
        })?;
        Ok(flows)
    }

    /// Fetch the raw on-disk bytes for `hour` without decoding them,
    /// as owned bytes: the per-hour file when one exists, otherwise one
    /// positioned read of the segment the manifest routes the hour to.
    /// A per-hour file *shadows* a segment copy, so
    /// [`FlowStore::write_hour`] after compaction behaves as an
    /// overwrite without rewriting the segment.
    ///
    /// Lets callers separate I/O from decoding — the pipeline uses
    /// this to time the two stages independently.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the hour is in neither a per-hour
    /// file nor a segment (kind `NotFound`, like the pre-segment API) or
    /// its read fails, and [`NetError::Codec`] if the manifest or
    /// segment routing the hour is corrupt.
    pub fn fetch_hour_bytes(&self, hour: UnixHour) -> Result<HourBytes, NetError> {
        let bytes = match fs::File::open(self.hour_path(hour)) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                bytes
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.segment_hour(hour)?.ok_or(NetError::Io(e))?
            }
            Err(e) => return Err(NetError::Io(e)),
        };
        self.metrics.bytes_read.add(bytes.len() as u64);
        self.metrics.hours_read.inc();
        Ok(HourBytes(bytes))
    }

    /// Stream the flows for `hour` out of previously fetched bytes into
    /// `sink`, block by block, without materializing the hour — the
    /// fused decode→ingest path, and the one place that checks the
    /// claimed hour and records the `store.*` decode metrics (every
    /// store read, materialised or not, comes through here). See
    /// [`decode_hour_visit`] for the streaming contract;
    /// `opts.quarantine` salvages an hour with corrupt v3 blocks
    /// (counted in `store.block_checksum_failures`) instead of failing
    /// it — a quarantining materialised read passes a [`CollectSink`].
    ///
    /// The claimed-hour check runs *before* anything reaches the sink
    /// (a sink may already have folded flows into long-lived state), so
    /// a misnamed file reports "claims hour" even when it is also
    /// corrupt.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] if the bytes cover a different hour
    /// than `hour`, or are corrupt or truncated; with
    /// `opts.quarantine`, v3 block corruption is downgraded to a
    /// quarantine entry (header/index corruption still fails the hour).
    /// On error the sink may have received a prefix of the hour;
    /// callers must discard whatever it accumulated.
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
    /// blocks, which quarantine exactly as before. Legacy v1/v2 files
    /// are strictly decoded and transcoded to v3, preserving their delta
    /// flag (a plain hour keeps its record order).
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
            let in_file = |e: NetError| NetError::Codec(format!("{}: {e}", path.display()));
            let claimed = claimed_hour(&bytes).map_err(in_file)?;
            if claimed != *hour {
                return Err(NetError::Codec(format!(
                    "file {} claims hour {claimed}, expected {hour}",
                    path.display()
                )));
            }
            builder.push(*hour, format::into_v3(bytes).map_err(in_file)?)?;
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

    /// Read `hour` out of the segment the manifest routes it to, if
    /// any, cross-checking the manifest's routing against the segment's
    /// own hour table so a stale manifest fails loudly.
    fn segment_hour(&self, hour: UnixHour) -> Result<Option<Vec<u8>>, NetError> {
        let manifest = self.load_manifest()?;
        let Some(entry) = manifest.lookup(hour) else {
            return Ok(None);
        };
        let segment = self.open_segment(entry.segment)?;
        if segment.locate(hour) != Some((entry.offset as usize, entry.len as usize)) {
            return Err(NetError::Codec(format!(
                "manifest routes {hour} to segment {} at {}+{}, but the segment disagrees",
                entry.segment, entry.offset, entry.len
            )));
        }
        segment.hour_bytes(hour)
    }

    /// Open (and validate) segment `id`, through the LRU handle cache
    /// of [`OPEN_SEGMENTS`] entries. A hit moves the segment to the
    /// front; a miss opens the file, inserts it at the front, and evicts
    /// the least-recently-used handle past capacity.
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
        open.truncate(OPEN_SEGMENTS);
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
/// owned, whichever store shape the hour came from. Dereferences to
/// `&[u8]`.
#[derive(Debug)]
pub struct HourBytes(Vec<u8>);

impl HourBytes {
    /// Always `false`: the bytes are owned whichever store shape they
    /// came from. Kept only because the benchmark's trace still reads
    /// it.
    pub fn is_mapped(&self) -> bool {
        false
    }
}

impl std::ops::Deref for HourBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}
