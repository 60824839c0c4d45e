//! The legacy layer: read-only decode of the row formats archives
//! written before v3 still hold — `IOTFT01` (checksum over the payload
//! only) and `IOTFT02` (checksum over header and payload). The only
//! module that knows their magics; nothing writes them any more (the
//! encoders at the bottom are `#[cfg(test)]`, kept to fabricate legacy
//! bytes for the decoder's safety tests).

use super::block::{fnv1a, Fnv1a};
use super::format::{self, VisitedHour, FLAG_DELTA, HEADER, HEADER_HASHED};
use super::FlowSink;
use crate::flowtuple::{get_varint, FlowTuple};
use crate::time::UnixHour;
use crate::NetError;
use bytes::Buf;

/// Row format whose checksum covers only the payload, so header
/// corruption (flags, hour, count) went undetected.
const MAGIC_V1: &[u8; 7] = b"IOTFT01";
/// Row format whose checksum covers the header prefix (magic, flags,
/// hour, count) *and* the payload.
const MAGIC_V2: &[u8; 7] = b"IOTFT02";

/// The smallest possible encoded v1/v2 record: a delta record is a
/// 1-byte source varint + 13 fixed bytes + a 1-byte packets varint
/// (plain records are larger). Used to bound the record-count
/// preallocation so a forged count can never allocate more than the
/// file could hold.
pub(super) const MIN_RECORD_BYTES: usize = 15;

/// Whether `bytes` starts with a legacy (v1 or v2) magic.
pub(super) fn is_legacy(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC_V1) || bytes.starts_with(MAGIC_V2)
}

/// Stream a legacy hour into `sink`: row formats have no block
/// structure to stream over, so the hour decodes whole and arrives as
/// one slice through [`FlowSink::on_flows`], the records→columns
/// adapter (and counts as one block). The caller checked the header
/// length and the magic.
pub(super) fn visit(bytes: &[u8], sink: &mut dyn FlowSink) -> Result<VisitedHour, NetError> {
    let (hour, flows) = decode_hour_v12(bytes)?;
    sink.on_flows(&flows);
    Ok(VisitedHour {
        hour,
        records: flows.len(),
        blocks: 1,
        quarantined: Vec::new(),
    })
}

/// Transcode a legacy hour to v3 for compaction: strictly decoded, then
/// re-encoded with its delta flag as the v3 encoder's `sorted` argument,
/// so a plain hour keeps its record order (and a delta hour its sorted
/// one).
pub(super) fn to_v3(bytes: &[u8]) -> Result<Vec<u8>, NetError> {
    let (hour, flows) = decode_hour_v12(bytes)?;
    Ok(format::encode_v3(hour, &flows, bytes[7] & FLAG_DELTA != 0))
}

/// The shared v1/v2 row-format decoder (the caller checked the header
/// length and the magic).
fn decode_hour_v12(bytes: &[u8]) -> Result<(UnixHour, Vec<FlowTuple>), NetError> {
    let v2 = bytes.starts_with(MAGIC_V2);
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
    Ok((hour, flows))
}

/// Decode every field of a delta record except `src_ip` (the caller
/// reconstructs it from the varint delta).
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

/// A legacy row format, for fabricating archive bytes in tests — the
/// one door to the test-only encoders below.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Legacy {
    /// `IOTFT01`.
    V1,
    /// `IOTFT02`.
    V2,
}

#[cfg(test)]
impl Legacy {
    /// `flows` at `hour` in this format, sorted and delta-encoded when
    /// `delta` (the flag bit), in input order otherwise.
    pub(super) fn encode(self, hour: UnixHour, flows: &[FlowTuple], delta: bool) -> Vec<u8> {
        match self {
            Legacy::V1 => encode_hour_v1(hour, flows, delta),
            Legacy::V2 => encode_hour_v2(hour, flows, delta),
        }
    }
}

/// Encode one hour's flows into the v2 row format, whose checksum
/// covers the header as well as the payload.
#[cfg(test)]
fn encode_hour_v2(hour: UnixHour, flows: &[FlowTuple], delta: bool) -> Vec<u8> {
    use bytes::BufMut;
    let payload = encode_payload(flows, delta);
    let mut out = Vec::with_capacity(payload.len() + HEADER);
    out.extend_from_slice(MAGIC_V2);
    out.put_u8(if delta { FLAG_DELTA } else { 0 });
    out.put_u64(hour.get());
    out.put_u32(flows.len() as u32);
    let mut hasher = Fnv1a::new();
    hasher.update(&out[..HEADER_HASHED]);
    hasher.update(&payload);
    out.put_u64(hasher.finish());
    out.extend_from_slice(&payload);
    out
}

/// Encode one hour's flows in the v1 format (payload-only checksum).
#[cfg(test)]
fn encode_hour_v1(hour: UnixHour, flows: &[FlowTuple], delta: bool) -> Vec<u8> {
    use bytes::BufMut;
    let payload = encode_payload(flows, delta);
    let mut out = Vec::with_capacity(payload.len() + HEADER);
    out.extend_from_slice(MAGIC_V1);
    out.put_u8(if delta { FLAG_DELTA } else { 0 });
    out.put_u64(hour.get());
    out.put_u32(flows.len() as u32);
    out.put_u64(fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

#[cfg(test)]
fn encode_payload(flows: &[FlowTuple], delta: bool) -> Vec<u8> {
    use crate::flowtuple::put_varint;
    let mut payload = Vec::with_capacity(flows.len() * 16);
    if delta {
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

/// Encode every field of `f` except `src_ip` (already delta-encoded).
#[cfg(test)]
fn encode_rest<B: bytes::BufMut>(buf: &mut B, f: &FlowTuple) {
    buf.put_u32(u32::from(f.dst_ip));
    buf.put_u16(f.src_port);
    buf.put_u16(f.dst_port);
    buf.put_u8(f.protocol.number());
    buf.put_u8(f.ttl);
    buf.put_u8(f.tcp_flags.bits());
    buf.put_u16(f.ip_len);
    crate::flowtuple::put_varint(buf, f.packets);
}
