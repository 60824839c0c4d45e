//! The format layer: the IOTFT03 header and block index — the one
//! format written ([`encode_hour`], [`restamp_hour`]) — and the one
//! decode surface ([`decode_hour_visit`] dispatching on the magic, v1/v2
//! to the read-only `legacy` module) with its types: [`FlowSink`],
//! [`CollectSink`], [`VisitedHour`] and [`DecodeOptions`].

use super::block::{self, ColumnBlock, Fnv1a, COLUMNS};
use super::legacy;
use crate::flowtuple::FlowTuple;
use crate::time::UnixHour;
use crate::NetError;
use bytes::{Buf, BufMut};

/// Block format: the hour is split into fixed-size record blocks, each
/// independently checksummed and stored column-wise (every field, each
/// column as RLE varint deltas or bit-packed over a base), behind a
/// block index the header checksum covers.
const MAGIC_V3: &[u8; 7] = b"IOTFT03";
/// Header flag bit 0: records are sorted by `(src_ip, dst_ip,
/// dst_port)` and the source column is delta-encoded. Every hour this
/// crate writes sets it; legacy files may not.
pub(super) const FLAG_DELTA: u8 = 0b0000_0001;
/// Header flag bit 1: every column of every block payload starts with a
/// mode byte ([`block::MODE_RLE`] or [`block::MODE_PACKED`]). Every v3
/// hour this crate writes sets it; a v3 file without it (archived
/// before bit-packing) has no mode bytes and every column is mode 0.
pub(super) const FLAG_PACKED: u8 = 0b0000_0010;

/// Header layout, shared by every format: magic (7) + flags (1) + hour
/// (8) + count (4) + checksum (8). The checksum field itself is never
/// hashed; in v3 the hash covers everything before it plus the block
/// index (block payloads carry their own checksums in the index).
pub(crate) const HEADER: usize = 7 + 1 + 8 + 4 + 8;
/// Bytes of header covered by the header checksum (everything before it).
pub(super) const HEADER_HASHED: usize = HEADER - 8;

/// Records per v3 block. Blocks are the unit of corruption quarantine;
/// each resets the delta predictors, so a bigger block compresses
/// marginally better but recovers less on corruption.
pub const BLOCK_RECORDS: usize = 4096;
/// v3 block-index entry: record count (4) + payload length (4) +
/// FNV-1a checksum (8). Byte offsets are the prefix sums of the
/// lengths, so they are implicit.
pub(super) const INDEX_ENTRY: usize = 4 + 4 + 8;
/// Every column of a non-empty block emits at least one byte (a packed
/// file's columns at least two: the mode byte and a varint), so a
/// block payload shorter than this cannot hold any records. Zero-run
/// RLE and width-0 packing mean a *full* block can legally be as small
/// as `COLUMNS * 3` bytes; the preallocation clamp for v3 is therefore
/// structural — per-block counts are capped at [`BLOCK_RECORDS`] and
/// decoded incrementally — rather than a bytes-per-record ratio.
const MIN_BLOCK_BYTES: usize = COLUMNS;

/// The on-disk format [`super::FlowStore::write_hour`] emits: v3, the
/// only format written. Reads auto-detect from the magic, so archived
/// v1/v2 hours stay readable.
///
/// One variant, kept only because the benchmark (`benchmark/src/trace.rs`)
/// names `StoreFormat::V3`; it carries no choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// `IOTFT03`: block-indexed columnar payload, per-block checksums.
    #[default]
    V3,
}

impl std::str::FromStr for StoreFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "v3" | "V3" | "3" => Ok(StoreFormat::V3),
            other => Err(format!(
                "store format {other:?} cannot be written: v3 is the only writable format \
                 (v1/v2 hours stay readable)"
            )),
        }
    }
}

/// Options controlling on-disk encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOptions {
    /// Which format [`super::FlowStore::write_hour`] emits — always
    /// [`StoreFormat::V3`]. The field stays only because the benchmark
    /// (`benchmark/src/trace.rs`) spells out
    /// `StoreOptions { format: StoreFormat::V3, .. }`.
    pub format: StoreFormat,
}

/// Encode one hour's flows in the v3 block format, the only format
/// written: records are sorted by `(src_ip, dst_ip, dst_port)`, split
/// into [`BLOCK_RECORDS`]-sized blocks, each block stores every field as
/// a column in the smaller of two modes — delta varints with zero runs
/// collapsed, or bit-packed over the block minimum — and the header
/// (with header flag bit 1 set: every column carries a mode byte) is
/// followed by a block index of `(record count, payload length,
/// checksum)` entries that the header checksum covers.
pub fn encode_hour(hour: UnixHour, flows: &[FlowTuple], options: StoreOptions) -> Vec<u8> {
    let StoreOptions {
        format: StoreFormat::V3,
    } = options;
    encode_v3(hour, flows, true)
}

/// The v3 encoder. `sorted` is the delta flag: every hour this crate
/// writes is sorted; compaction passes `false` only to transcode a
/// plain legacy hour without reordering its records. Blocks go through
/// the column kernel ([`block::encode_block`]), so [`FLAG_PACKED`] is
/// always set.
pub(super) fn encode_v3(hour: UnixHour, flows: &[FlowTuple], sorted: bool) -> Vec<u8> {
    let mut scratch = ColumnBlock::default();
    encode_v3_with(hour, flows, sorted, FLAG_PACKED, |chunk, out| {
        block::encode_block(chunk, &mut scratch, out)
    })
}

/// The v3 container around a block encoder: sort (if `sorted`), block,
/// index and header, with `flags` (plus [`FLAG_DELTA`] if sorted) in
/// the header. `encode` appends one block's payload to the output.
/// Tests pass the flag-clear reference encoder to build archived-layout
/// hours.
///
/// The block count is known up front, so the header and index are
/// reserved at the front of the output and every block payload is
/// encoded straight into place behind them (no per-block buffer); the
/// index and header are filled in last.
pub(super) fn encode_v3_with(
    hour: UnixHour,
    flows: &[FlowTuple],
    sorted: bool,
    flags: u8,
    mut encode: impl FnMut(&[&FlowTuple], &mut Vec<u8>),
) -> Vec<u8> {
    let mut ordered: Vec<&FlowTuple> = flows.iter().collect();
    if sorted {
        // The key legacy delta files were sorted by, so a transcoded
        // hour decodes to the identical record sequence.
        ordered.sort_by_key(|f| (u32::from(f.src_ip), u32::from(f.dst_ip), f.dst_port));
    }
    let num_blocks = ordered.len().div_ceil(BLOCK_RECORDS);
    let index_end = HEADER + 4 + num_blocks * INDEX_ENTRY;
    let mut out = vec![0u8; index_end];
    let mut index = Vec::with_capacity(index_end - HEADER);
    index.put_u32(num_blocks as u32);
    for chunk in ordered.chunks(BLOCK_RECORDS) {
        let start = out.len();
        encode(chunk, &mut out);
        let payload = &out[start..];
        index.put_u32(chunk.len() as u32);
        index.put_u32(payload.len() as u32);
        index.put_u64(block::fnv1a(payload));
    }
    let mut head = Vec::with_capacity(index_end);
    head.extend_from_slice(MAGIC_V3);
    head.put_u8(if sorted { flags | FLAG_DELTA } else { flags });
    head.put_u64(hour.get());
    head.put_u32(flows.len() as u32);
    let mut hasher = Fnv1a::new();
    hasher.update(&head);
    hasher.update(&index);
    head.put_u64(hasher.finish());
    head.extend_from_slice(&index);
    out[..index_end].copy_from_slice(&head);
    out
}

/// Rewrite the hour a v3 file claims, in place, and fix up the header
/// checksum (which covers header + block index). No payload encoding
/// depends on the hour, so the result is bit-identical to re-encoding
/// the same records at the new hour — a synthetic year replay can reuse
/// one encoded hour at thousands of timestamps without re-encoding, and
/// archive tooling can use it to re-date hours.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for anything but a v3 file (legacy v1/v2
/// hours are read-only: migrate them first) and for a file too short to
/// hold its block index. The bytes are untouched on error.
pub fn restamp_hour(bytes: &mut [u8], hour: UnixHour) -> Result<(), NetError> {
    claimed_hour(bytes)?; // a whole header and a known magic
    if !bytes.starts_with(MAGIC_V3) {
        return Err(NetError::Codec(
            "legacy v1/v2 hours are read-only (migrate them to v3 first)".to_owned(),
        ));
    }
    let (_, index_end) = block_index(bytes)?;
    bytes[8..16].copy_from_slice(&hour.get().to_be_bytes());
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[..HEADER_HASHED]);
    hasher.update(&bytes[HEADER..index_end]);
    bytes[HEADER_HASHED..HEADER].copy_from_slice(&hasher.finish().to_be_bytes());
    Ok(())
}

/// How [`decode_hour_visit`] (and
/// [`super::FlowStore::visit_hour_for`]) treat a decodable file; the
/// default is a strict decode.
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

/// A consumer of decoded flows — the receiving end of every decode
/// ([`decode_hour_visit`]; the materialising reads are this plus a
/// [`CollectSink`]).
///
/// # Contract
///
/// * Every sink reads columns: [`FlowSink::visit_block`] is the one
///   required method. A v3 decode delivers each verified, validated
///   block through it.
/// * Records reach a sink through [`FlowSink::on_flows`], the one
///   records→columns adapter: it copies them into a local
///   [`ColumnBlock`] [`BLOCK_RECORDS`] at a time and visits each chunk.
///   A v1/v2 hour (no blocks) arrives whole that way, and so does an
///   in-memory hour. A sink may override `on_flows` only to stay
///   observably identical to the adapter ([`CollectSink`] appends the
///   records as they are).
/// * Blocks and chunks arrive in on-disk order, so feeding a sink is
///   observably identical to feeding it the materialized
///   `Vec<FlowTuple>` in one call — the boundaries carry no
///   information.
/// * Both borrow scratch: they are only valid for the duration of the
///   call and must be folded, not stashed.
/// * A quarantined block is silently skipped (it is reported in
///   [`VisitedHour::quarantined`]).
/// * On a decode **error** the sink may already have received a prefix
///   of the hour; callers must throw away whatever state it built.
pub trait FlowSink {
    /// Fold one block of records, column-at-a-time.
    fn visit_block(&mut self, block: &ColumnBlock);

    /// Fold one in-order slice of records: copied into columns
    /// [`BLOCK_RECORDS`] records at a time, each chunk visited like a
    /// decoded block.
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        let mut block = ColumnBlock::default();
        for chunk in flows.chunks(BLOCK_RECORDS) {
            block.fill(chunk);
            self.visit_block(&block);
        }
    }
}

/// A [`FlowSink`] that materializes the stream — the adapter through
/// which the materialising reads share the streaming code path (which is
/// what makes the two bit-identical by construction).
#[derive(Debug, Default)]
pub struct CollectSink(Vec<FlowTuple>);

impl CollectSink {
    /// The collected records, in on-disk order.
    pub fn into_flows(self) -> Vec<FlowTuple> {
        self.0
    }
}

impl FlowSink for CollectSink {
    /// Appends the block's records straight from its columns into the
    /// collected vector (whose capacity [`decode_hour`] pre-sizes).
    fn visit_block(&mut self, block: &ColumnBlock) {
        self.0.extend(block.flows());
    }

    /// Appends the records as they are: collecting them needs no trip
    /// through columns.
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.0.extend_from_slice(flows);
    }
}

/// The outcome of streaming one hour file through a [`FlowSink`] — the
/// one decode result type.
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
pub(crate) fn claimed_hour(bytes: &[u8]) -> Result<UnixHour, NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Codec("file shorter than header".to_owned()));
    }
    if bytes.starts_with(MAGIC_V3) || legacy::is_legacy(bytes) {
        Ok(UnixHour::new((&bytes[8..16]).get_u64()))
    } else {
        Err(NetError::Codec(
            "bad magic (not a flowtuple file)".to_owned(),
        ))
    }
}

/// Decode an on-disk hour file back into `(hour, flows)`.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for bad magic, checksum mismatch,
/// truncation, or trailing garbage.
pub fn decode_hour(bytes: &[u8]) -> Result<(UnixHour, Vec<FlowTuple>), NetError> {
    collect(bytes, |sink| {
        decode_hour_visit(bytes, DecodeOptions::default(), sink)
    })
}

/// Stream an on-disk hour file through `sink` without materializing it:
/// v3 blocks are decoded one at a time into a reusable [`ColumnBlock`]
/// and handed to the sink block by block; block-less v1/v2 files decode
/// whole and arrive as a single slice.
///
/// # Errors
///
/// Returns [`NetError::Codec`] for bad magic, checksum mismatch,
/// truncation, or trailing garbage; with `opts.quarantine`, corrupt v3
/// blocks are reported in [`VisitedHour::quarantined`] instead. On
/// error the sink may hold a prefix of the hour (see the [`FlowSink`]
/// contract).
pub fn decode_hour_visit(
    bytes: &[u8],
    opts: DecodeOptions,
    sink: &mut dyn FlowSink,
) -> Result<VisitedHour, NetError> {
    claimed_hour(bytes)?; // a whole header and a known magic
    if bytes.starts_with(MAGIC_V3) {
        visit_hour_v3(bytes, opts, sink)
    } else {
        legacy::visit(bytes, sink)
    }
}

/// The one materialising read, behind [`decode_hour`] and
/// [`super::FlowStore::read_hour`]: `visit` streams the hour into a
/// [`CollectSink`] pre-sized to the v3 header's record count, so block
/// appends never reallocate. The count is clamped by what the block
/// index could address, so a corrupt header cannot drive the allocation
/// (header and index are checksummed, but the clamp keeps even a
/// colliding forgery bounded). Legacy hours arrive as one slice and
/// need no hint.
pub(super) fn collect(
    bytes: &[u8],
    visit: impl FnOnce(&mut CollectSink) -> Result<VisitedHour, NetError>,
) -> Result<(UnixHour, Vec<FlowTuple>), NetError> {
    let capacity = if bytes.len() >= HEADER + 4 && bytes.starts_with(MAGIC_V3) {
        let count = (&bytes[16..20]).get_u32() as usize;
        let num_blocks = (&bytes[HEADER..HEADER + 4]).get_u32() as usize;
        count.min(num_blocks.saturating_mul(BLOCK_RECORDS))
    } else {
        0
    };
    let mut sink = CollectSink(Vec::with_capacity(capacity));
    let visited = visit(&mut sink)?;
    Ok((visited.hour, sink.into_flows()))
}

/// An hour file as the v3 bytes a segment stores: v3 verbatim (corrupt
/// blocks ride along and quarantine exactly as before), a legacy hour
/// strictly decoded and re-encoded. `bytes` must have passed
/// [`claimed_hour`].
///
/// # Errors
///
/// A legacy hour that fails its strict decode.
pub(super) fn into_v3(bytes: Vec<u8>) -> Result<Vec<u8>, NetError> {
    if bytes.starts_with(MAGIC_V3) {
        Ok(bytes)
    } else {
        legacy::to_v3(&bytes)
    }
}

/// A v3 file's block count and the end offset of its block index,
/// bounds-checked against the file (the entries are not yet trusted:
/// the header checksum covers them).
fn block_index(bytes: &[u8]) -> Result<(usize, usize), NetError> {
    if bytes.len() < HEADER + 4 {
        return Err(NetError::Codec("truncated v3 block index".to_owned()));
    }
    let num_blocks = (&bytes[HEADER..HEADER + 4]).get_u32() as usize;
    let end = num_blocks
        .checked_mul(INDEX_ENTRY)
        .and_then(|n| n.checked_add(HEADER + 4))
        .filter(|end| *end <= bytes.len())
        .ok_or_else(|| {
            NetError::Codec(format!(
                "implausible block count {num_blocks} for {}-byte file",
                bytes.len()
            ))
        })?;
    Ok((num_blocks, end))
}

/// One parsed v3 block-index entry plus its payload slice.
struct V3Block<'a> {
    count: u32,
    checksum: u64,
    payload: &'a [u8],
}

/// Validate a v3 header + block index and slice out the block payloads,
/// with whether the payloads carry mode bytes ([`FLAG_PACKED`]).
/// Everything past this point can trust counts and bounds.
fn parse_v3(bytes: &[u8]) -> Result<(UnixHour, bool, Vec<V3Block<'_>>), NetError> {
    let mut hdr = &bytes[7..HEADER];
    let flags = hdr.get_u8();
    let hour = UnixHour::new(hdr.get_u64());
    let count = hdr.get_u32() as usize;
    let checksum = hdr.get_u64();
    let (num_blocks, index_end) = block_index(bytes)?;
    let mut hasher = Fnv1a::new();
    hasher.update(&bytes[..HEADER_HASHED]);
    hasher.update(&bytes[HEADER..index_end]);
    if hasher.finish() != checksum {
        return Err(NetError::Codec(
            "checksum mismatch (corrupt v3 header or block index)".to_owned(),
        ));
    }
    // A bit this decoder does not know may change the payload layout:
    // fail rather than decode garbage.
    if flags & !(FLAG_DELTA | FLAG_PACKED) != 0 {
        return Err(NetError::Codec(format!(
            "unknown v3 header flags {flags:#04x}"
        )));
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
    Ok((hour, flags & FLAG_PACKED != 0, blocks))
}

/// The v3 decode: feed `sink` one block at a time through
/// [`FlowSink::visit_block`], reusing one [`ColumnBlock`] across blocks
/// — zero per-block allocation, whole-column un-delta passes.
///
/// Blocks go in groups of [`block::CHECKSUM_LANES`]: the group's
/// checksums are computed first, in lockstep
/// ([`block::fnv1a_lockstep`]), then its blocks decode in order. A
/// block that fails its checksum is rejected without being parsed, so
/// "checksum mismatch (corrupt block)" wins over any parse error in
/// the same block, and every failure is met (and, strictly, reported)
/// in block order — a parse error in block 1 is reported even when
/// block 2 of the same group fails its checksum.
fn visit_hour_v3(
    bytes: &[u8],
    opts: DecodeOptions,
    sink: &mut dyn FlowSink,
) -> Result<VisitedHour, NetError> {
    let (hour, packed, blocks) = parse_v3(bytes)?;
    let mut records = 0usize;
    let mut quarantined = Vec::new();
    let mut scratch = ColumnBlock::default();
    for (g, group) in blocks.chunks(block::CHECKSUM_LANES).enumerate() {
        let mut payloads: [&[u8]; block::CHECKSUM_LANES] = Default::default();
        for (lane, v3) in payloads.iter_mut().zip(group) {
            *lane = v3.payload;
        }
        let sums = block::fnv1a_lockstep(payloads);
        for (j, (v3, sum)) in group.iter().zip(sums).enumerate() {
            let i = g * block::CHECKSUM_LANES + j;
            let decoded = if sum == v3.checksum {
                block::decode_block_columnar_into(
                    v3.payload,
                    v3.count as usize,
                    packed,
                    &mut scratch,
                )
            } else {
                Err(NetError::Codec(
                    "checksum mismatch (corrupt block)".to_owned(),
                ))
            };
            match decoded {
                Ok(()) => {
                    records += scratch.len();
                    sink.visit_block(&scratch);
                }
                Err(e) if opts.quarantine => quarantined.push(QuarantinedBlock {
                    index: i,
                    records: v3.count,
                    reason: format!("{e}"),
                }),
                Err(e) => return Err(NetError::Codec(format!("block {i}: {e}"))),
            }
        }
    }
    Ok(VisitedHour {
        hour,
        records,
        blocks: blocks.len(),
        quarantined,
    })
}
