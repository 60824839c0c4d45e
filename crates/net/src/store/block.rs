//! The block layer: one v3 block's nine columns — [`ColumnBlock`] and
//! the kernels that encode and decode it (zero-run RLE, the SWAR varint
//! loop, the whole-column un-delta passes and validation) plus the
//! lockstep FNV-1a checksum pass that runs before them, kept in one
//! module so the decode hot loop is in one place.

#[cfg(test)]
use crate::flowtuple::put_varint;
use crate::flowtuple::{get_varint, FlowTuple};
use crate::protocol::{TcpFlags, TransportProtocol};
use crate::NetError;
use std::borrow::Borrow;

/// Number of per-record columns in a v3 block (src, dst, src_port,
/// dst_port, protocol, ttl, tcp_flags, ip_len, packets).
pub(super) const COLUMNS: usize = 9;

/// Transport by IANA number, for the record view of validated columns
/// (only known numbers are ever looked up, so the filler entries are
/// unreachable). A table rather than `from_number`'s match, whose
/// branches mispredict on mixed TCP/UDP traffic.
const PROTO_BY_NUMBER: [TransportProtocol; 256] = {
    let mut t = [TransportProtocol::Tcp; 256];
    t[TransportProtocol::Icmp as usize] = TransportProtocol::Icmp;
    t[TransportProtocol::Udp as usize] = TransportProtocol::Udp;
    t
};

/// One decoded v3 block in struct-of-arrays form: every column fully
/// un-delta'd back to validated record values. Nothing row-wise is
/// built: consumers scan the columns, and [`ColumnBlock::flows`]
/// transposes on demand for the few that want records. The column
/// buffers are capacity-reused across blocks (and across hours, if the
/// caller keeps the scratch) — a decode's steady state allocates
/// nothing.
///
/// Every hour this crate writes is sorted by `(src_ip, dst_ip,
/// dst_port)` before blocking, so [`ColumnBlock::src_ip`] is
/// **ascending within the block** — the invariant the merge-join
/// correlation passes (`CorrelationIndex::correlate_sorted_block`,
/// `IntelIndex::lookup_sorted_block` downstream) exploit to replace
/// per-record binary searches with a forward gallop, and that groups
/// each source's flows into one run. A plain legacy hour transcoded by
/// compaction, a file whose delta flag is clear, or a block
/// [`fill`](ColumnBlock::fill)ed from arbitrary records carries no such
/// guarantee; batched consumers must stay correct (if slower) on
/// arbitrary column order.
#[derive(Debug, Default)]
pub struct ColumnBlock {
    /// Per-column buffers in on-disk column order (src, dst, src_port,
    /// dst_port, protocol, ttl, tcp_flags, ip_len, packets). Filled
    /// with raw deltas by the RLE pass, then rewritten in place to
    /// reconstructed record values by the un-delta passes.
    cols: [Vec<u32>; COLUMNS],
}

impl ColumnBlock {
    /// Records in this block.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Source ports (the ICMP type for ICMP flows), each `<= 65_535`.
    pub fn src_port(&self) -> &[u32] {
        &self.cols[2]
    }

    /// Destination ports (the ICMP code for ICMP flows), each
    /// `<= 65_535`.
    pub fn dst_port(&self) -> &[u32] {
        &self.cols[3]
    }

    /// IANA protocol numbers, each a known [`TransportProtocol`].
    pub fn protocol(&self) -> &[u32] {
        &self.cols[4]
    }

    /// TCP flag bytes, each `<= 255`.
    pub fn tcp_flags(&self) -> &[u32] {
        &self.cols[6]
    }

    /// Packets per flow record.
    pub fn packets(&self) -> &[u32] {
        &self.cols[8]
    }

    /// The records row-wise, transposed on demand — for consumers that
    /// want [`FlowTuple`]s (materialising reads, the
    /// [`super::FlowSink::visit_block`] fallback). The `i`-th item is
    /// the record whose source address `src_ip()[i]` holds.
    pub fn flows(&self) -> impl ExactSizeIterator<Item = FlowTuple> + '_ {
        let n = self.len();
        let [src, dst, src_port, dst_port, proto, ttl, flags, ip_len, packets] = &self.cols;
        let (src, dst, packets) = (&src[..n], &dst[..n], &packets[..n]);
        let (src_port, dst_port, proto) = (&src_port[..n], &dst_port[..n], &proto[..n]);
        let (ttl, flags, ip_len) = (&ttl[..n], &flags[..n], &ip_len[..n]);
        (0..n).map(move |i| FlowTuple {
            src_ip: std::net::Ipv4Addr::from(src[i]),
            dst_ip: std::net::Ipv4Addr::from(dst[i]),
            src_port: src_port[i] as u16,
            dst_port: dst_port[i] as u16,
            protocol: PROTO_BY_NUMBER[(proto[i] & 0xff) as usize],
            ttl: ttl[i] as u8,
            tcp_flags: TcpFlags::from_bits(flags[i] as u8),
            ip_len: ip_len[i] as u16,
            packets: packets[i],
        })
    }

    /// Replace the block's contents with the columns of `flows`, in
    /// order (capacity reused) — how records that did not come out of a
    /// v3 decode (in-memory hours, legacy files) reach column consumers.
    /// The inverse of [`flows`](Self::flows).
    pub fn fill(&mut self, flows: &[FlowTuple]) {
        self.fill_from(flows);
    }

    /// [`fill`](Self::fill) over owned or borrowed records (the encoder
    /// passes its sorted references): one pass reads each record once
    /// and scatters its nine fields into the columns.
    pub(super) fn fill_from<T: Borrow<FlowTuple>>(&mut self, flows: &[T]) {
        let n = flows.len();
        // Every slot below `n` is overwritten, so old contents may stay.
        for col in &mut self.cols {
            col.resize(n, 0);
        }
        let [src, dst, src_port, dst_port, proto, ttl, tcp_flags, ip_len, packets] = &mut self.cols;
        // Slicing to `n` up front lets the compiler drop the per-store
        // bounds checks.
        let (src, dst, packets) = (&mut src[..n], &mut dst[..n], &mut packets[..n]);
        let (src_port, dst_port, proto) = (&mut src_port[..n], &mut dst_port[..n], &mut proto[..n]);
        let (ttl, tcp_flags, ip_len) = (&mut ttl[..n], &mut tcp_flags[..n], &mut ip_len[..n]);
        for (i, f) in flows.iter().enumerate() {
            let f = f.borrow();
            src[i] = u32::from(f.src_ip);
            dst[i] = u32::from(f.dst_ip);
            src_port[i] = u32::from(f.src_port);
            dst_port[i] = u32::from(f.dst_port);
            proto[i] = u32::from(f.protocol.number());
            ttl[i] = u32::from(f.ttl);
            tcp_flags[i] = u32::from(f.tcp_flags.bits());
            ip_len[i] = u32::from(f.ip_len);
            packets[i] = f.packets;
        }
    }
}

/// ZigZag-map a signed delta into an unsigned varint-friendly value.
pub(super) fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`]; production decodes un-zigzag whole columns in
/// [`unzigzag_prefix_sum`], so this per-value form serves the tests.
#[cfg(test)]
pub(super) fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Write `v` as a LEB128 varint at `buf[pos..]` with one unaligned
/// 8-byte store, returning its encoded length (1–5). The mirror image
/// of the decoder's SWAR loop: the five 7-bit groups are spread to
/// bytes 0–4 with constant shifts, the length comes from
/// `leading_zeros` (`⌈bits / 7⌉`, at least 1), and the continuation
/// bits of all but the last byte are set with one mask. The bytes past
/// the varint are zeros the next store (or the caller's truncate)
/// overwrites, so `buf` needs 8 bytes at `pos` whatever the length.
#[inline]
pub(super) fn put_varint_wide(buf: &mut [u8], pos: usize, v: u32) -> usize {
    let bits = 32 - (v | 1).leading_zeros() as usize;
    // ⌈bits / 7⌉ for bits in 1..=32, without a divide.
    let len = (bits * 9 + 63) >> 6;
    let w = u64::from(v);
    let groups = (w & 0x7f)
        | (w << 1 & 0x7f00)
        | (w << 2 & 0x7f_0000)
        | (w << 3 & 0x7f00_0000)
        | (w << 4 & 0x0f_0000_0000);
    let continuation = 0x8080_8080u64 >> (8 * (5 - len));
    buf[pos..pos + 8].copy_from_slice(&(groups | continuation).to_le_bytes());
    len
}

/// Append one column of per-record values as varints, collapsing runs
/// of zeros: a zero value is followed by a varint count of *additional*
/// zeros it stands for. Near-constant columns (ports, protocol, flags,
/// packet counts — zero deltas) collapse to a few bytes per run.
///
/// `out` grows once per column to its worst case — 5 bytes per record
/// (a 5-byte varint, or a zero plus its run length standing for at
/// least one record) plus the 8-byte store's overhang — every varint
/// goes in with [`put_varint_wide`], and the unused tail is truncated
/// at the end.
pub(super) fn put_rle_column(out: &mut Vec<u8>, vals: &[u32]) {
    let start = out.len();
    out.resize(start + 5 * vals.len() + 8, 0);
    let buf = &mut out[start..];
    let mut pos = 0;
    let mut i = 0;
    while i < vals.len() {
        let v = vals[i];
        pos += put_varint_wide(buf, pos, v);
        i += 1;
        if v == 0 {
            let run = vals[i..].iter().take_while(|&&z| z == 0).count();
            i += run;
            pos += put_varint_wide(buf, pos, run as u32);
        }
    }
    out.truncate(start + pos);
}

/// The per-byte column writer [`put_rle_column`] replaced: one
/// [`put_varint`] call per varint. Test-only reference for the
/// encoder oracle.
#[cfg(test)]
pub(super) fn put_rle_column_per_byte(out: &mut Vec<u8>, vals: &[u32]) {
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
pub(super) fn swar_varint(word: u64) -> Result<(u32, usize), NetError> {
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
pub(super) fn take_varint(buf: &mut &[u8]) -> Result<u32, NetError> {
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
/// truncation errors stay byte-exact. The block checksum is not this
/// loop's business: [`fnv1a_lockstep`] verified the payload before
/// decoding started.
pub(super) fn get_rle_column_into(
    buf: &mut &[u8],
    n: usize,
    vals: &mut Vec<u32>,
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
                *buf = &buf[consumed..];
                return Ok(());
            }
        }
        // A varint straddling the window end re-anchors at its first
        // byte; the next load decodes it whole (or the scalar tail
        // diagnoses truncation).
        *buf = &buf[consumed..];
    }
    // Fewer than 8 bytes left: scalar decode, so a buffer that ends
    // mid-varint reports "truncated varint" exactly like the
    // byte-at-a-time decoder.
    while idx < n || pending_run {
        let v = get_varint(buf)?;
        rle_apply(out, &mut idx, &mut pending_run, v)?;
    }
    Ok(())
}

/// In-place wrapping deltas, predictor starting at 0: the inverse of
/// [`prefix_sum_wrapping`]. Each output reads only two inputs, so the
/// loop vectorizes.
fn delta_wrapping(vals: &mut [u32]) {
    let mut prev = 0u32;
    for v in vals {
        let cur = *v;
        *v = cur.wrapping_sub(prev);
        prev = cur;
    }
}

/// In-place zigzag deltas, predictor starting at 0: the inverse of
/// [`unzigzag_prefix_sum`]. For the narrow columns (ports, protocol,
/// ttl, flags, length) the wrapping difference *is* the `i32`
/// difference, so one formula serves every zigzag column.
fn zigzag_delta(vals: &mut [u32]) {
    let mut prev = 0u32;
    for v in vals {
        let cur = *v;
        *v = zigzag(cur.wrapping_sub(prev) as i32);
        prev = cur;
    }
}

/// Encode one v3 block and append its payload to `out` — the column
/// kernel, the mirror image of [`decode_block_columnar_into`]. One
/// pass transposes the records into `scratch`'s nine columns
/// ([`ColumnBlock::fill_from`]), then each column is delta'd in place
/// by a whole-column pass (predictors start at zero, so blocks decode
/// independently) and written by [`put_rle_column`]. Source addresses
/// are ascending in sorted hours, so they use plain wrapping deltas;
/// every other field uses zigzag deltas so small oscillations stay
/// small. Byte-identical to the per-record reference encoder
/// (`encode_block_per_record`, test-only; proptest-pinned).
pub(super) fn encode_block(records: &[&FlowTuple], scratch: &mut ColumnBlock, out: &mut Vec<u8>) {
    scratch.fill_from(records);
    let [src, rest @ ..] = &mut scratch.cols;
    delta_wrapping(src);
    put_rle_column(out, src);
    for col in rest {
        zigzag_delta(col);
        put_rle_column(out, col);
    }
}

/// Encode one v3 block one record and one byte at a time: the encoder
/// [`encode_block`] replaced, kept as its test-only oracle.
#[cfg(test)]
pub(super) fn encode_block_per_record(records: &[&FlowTuple]) -> Vec<u8> {
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
    put_rle_column_per_byte(&mut out, &col);
    let mut prev = 0u32;
    fill(&mut col, &mut |r| {
        let ip = u32::from(r.dst_ip);
        let d = zigzag(ip.wrapping_sub(prev) as i32);
        prev = ip;
        d
    });
    put_rle_column_per_byte(&mut out, &col);
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
        put_rle_column_per_byte(&mut out, &col);
    }
    let mut prev = 0u32;
    fill(&mut col, &mut |r| {
        let d = zigzag(r.packets.wrapping_sub(prev) as i32);
        prev = r.packets;
        d
    });
    put_rle_column_per_byte(&mut out, &col);
    out
}

/// Decode buffers of the test-only record-at-a-time reference decoder
/// ([`decode_block_into`]): one `Vec<u32>` per column plus the decoded
/// records.
#[cfg(test)]
#[derive(Debug, Default)]
pub(super) struct BlockScratch {
    cols: [Vec<u32>; COLUMNS],
    pub(super) flows: Vec<FlowTuple>,
}

/// Decode one v3 block of `count` records (inverse of [`encode_block`])
/// into `scratch.flows`, one record at a time with checked
/// accumulators.
///
/// Test-only reference: this was the production block decoder until
/// the columnar one ([`decode_block_columnar_into`]) replaced it; the
/// proptests pin the two to the same flows and the same error strings.
#[cfg(test)]
pub(super) fn decode_block_into(
    payload: &[u8],
    count: usize,
    scratch: &mut BlockScratch,
) -> Result<(), NetError> {
    let mut buf = payload;
    for col in scratch.cols.iter_mut() {
        get_rle_column_into(&mut buf, count, col)?;
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
pub(super) fn prefix_sum_wrapping(vals: &mut [u32]) {
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
pub(super) fn unzigzag_prefix_sum(vals: &mut [u32]) -> u32 {
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
pub(super) fn first_where(vals: &[u32], bad: impl Fn(u32) -> bool) -> Option<usize> {
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

/// The block decoder, column-at-a-time: same wire format, same values
/// and same error strings as the record-at-a-time reference
/// (`decode_block_into`, test-only; proptest-pinned through
/// [`ColumnBlock::flows`]), but structured for throughput — the
/// RLE/SWAR varint loop runs striding one column at a time, every
/// column is un-delta'd by a [`LANES`]-wide wrapping pass, and range
/// validation is a chunked whole-column scan. It stops at validated
/// columns: no records are built.
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
pub(super) fn decode_block_columnar_into(
    payload: &[u8],
    count: usize,
    block: &mut ColumnBlock,
) -> Result<(), NetError> {
    let mut buf = payload;
    for col in block.cols.iter_mut() {
        get_rle_column_into(&mut buf, count, col)?;
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
    match first {
        Some((_, _, e)) => Err(e),
        None => Ok(()),
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// How many block payloads [`fnv1a_lockstep`] hashes at once.
pub(super) const CHECKSUM_LANES: usize = 4;

/// 64-bit FNV-1a of up to [`CHECKSUM_LANES`] payloads at once — the
/// block-checksum pre-pass that runs before a group of blocks decodes.
///
/// One FNV-1a chain is pure latency: every byte is an xor feeding a
/// multiply feeding the next xor, so a lone hash runs at the
/// multiplier's latency (~4 cycles/byte) with the multiplier mostly
/// idle. Four independent chains stepped byte by byte in lockstep keep
/// four multiplies in flight, so the group hashes in about the time one
/// payload did. The common prefix runs in lockstep and each longer
/// payload finishes alone (blocks of an hour are nearly the same size,
/// so the tails are short); unused lanes are empty slices. The values
/// are exactly [`fnv1a`]'s.
pub(super) fn fnv1a_lockstep(payloads: [&[u8]; CHECKSUM_LANES]) -> [u64; CHECKSUM_LANES] {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    let common = payloads.iter().map(|p| p.len()).min().unwrap_or(0);
    let [a, b, c, d] = payloads.map(|p| &p[..common]);
    let mut h = [FNV_OFFSET; CHECKSUM_LANES];
    for (((&xa, &xb), &xc), &xd) in a.iter().zip(b).zip(c).zip(d) {
        h = [
            step(h[0], xa),
            step(h[1], xb),
            step(h[2], xc),
            step(h[3], xd),
        ];
    }
    for (lane, payload) in h.iter_mut().zip(payloads) {
        *lane = payload[common..].iter().fold(*lane, |acc, &x| step(acc, x));
    }
    h
}

/// Streaming 64-bit FNV-1a, so the checksum can cover discontiguous
/// regions (header prefix + payload) without concatenating them.
/// Shared with the segment container ([`crate::segment`]), whose
/// headers use the same hash.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    #[inline]
    pub(crate) fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `data`.
pub(super) fn fnv1a(data: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.update(data);
    hasher.finish()
}
