//! The ingest fold (DESIGN.md §3d), written once.
//!
//! Every decoded block passes through two halves:
//!
//! * the **front half** ([`classify_flows`]) scans a [`ColumnBlock`]'s
//!   columns next to the block's correlation column, classifies each
//!   correlated flow by table lookup and counts the hour's distinct
//!   destinations ([`DstDistinct`]) — state keyed by *destination*,
//!   which needs the whole hour in one place. It emits one
//!   [`RoutedFlow`] per correlated flow;
//! * the **device half** ([`DeviceFold::fold`]) takes those routed
//!   flows one source-device run at a time and writes everything keyed
//!   by the *source device* into an [`Analysis`].
//!
//! The sequential [`Analyzer`](crate::analysis::Analyzer) runs the two
//! back to back per block. The sharded pipeline splits them across
//! threads: a [`ShardRouter`](crate::shard::ShardRouter) runs the front
//! half and ships the routed flows to the
//! [`ShardAccumulator`](crate::shard::ShardAccumulator) owning the
//! device, which runs the device half. Same functions, same state
//! types, so sequential ≡ sharded ≡ streaming by construction; the
//! per-record fold they replaced is kept as a test oracle
//! (`reference`).

use crate::analysis::{class_idx, merge_top_victim, realm_idx, Analysis};
use crate::classify::classify;
use crate::distinct::{PortScratch, U32Set};
use crate::table::{DeviceSet, NUM_CLASSES};
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::protocol::{TcpFlags, TransportProtocol};
use iotscope_net::store::ColumnBlock;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::LazyLock;

/// Realm lookup by [`realm_idx`] value.
const REALMS: [Realm; 2] = [Realm::Consumer, Realm::Cps];

/// `class_idx` values the fold branches on (asserted against
/// [`class_idx`] in tests).
const CLASS_TCP_SCAN: u8 = 0;
const CLASS_BACKSCATTER: u8 = 2;
const CLASS_UDP: u8 = 3;

/// Transport lane by IANA protocol number, in Fig 4 order: ICMP 0,
/// TCP 1, UDP 2 (the order of [`TransportProtocol::ALL`]). Decoded
/// columns hold only known numbers, so the other entries are never
/// read.
const LANE_BY_PROTOCOL: [u8; 256] = {
    let mut t = [0u8; 256];
    t[TransportProtocol::Tcp as usize] = 1;
    t[TransportProtocol::Udp as usize] = 2;
    t
};
const LANE_TCP: u8 = 1;

/// Class code ([`class_idx`]) by transport lane and key byte, built
/// once from [`classify`] so the column scan and the per-flow
/// classifier cannot disagree. The TCP row is keyed by the flag byte;
/// the ICMP row by the ICMP type, i.e. `src_port` clamped to 255 — an
/// unmodeled type, so every `src_port` past it reads `Other` as it does
/// for `classify`; the UDP row is constant. A fourth, unused row lets
/// `lane & 3` index without a bounds check. An exhaustive test pins
/// the lookup to `classify` for every protocol × flag byte × port.
static CLASS_TABLE: LazyLock<[[u8; 256]; 4]> = LazyLock::new(|| {
    let mut table = [[0u8; 256]; 4];
    for protocol in TransportProtocol::ALL {
        let lane = LANE_BY_PROTOCOL[usize::from(protocol.number())];
        for key in 0..=u8::MAX {
            let flow = FlowTuple {
                src_ip: Ipv4Addr::UNSPECIFIED,
                dst_ip: Ipv4Addr::UNSPECIFIED,
                src_port: u16::from(key),
                dst_port: 0,
                protocol,
                ttl: 0,
                tcp_flags: TcpFlags::from_bits(key),
                ip_len: 0,
                packets: 0,
            };
            table[usize::from(lane)][usize::from(key)] = class_idx(classify(&flow)) as u8;
        }
    }
    table
});

/// The `(lane, class code)` of one flow from its column values.
#[inline]
fn lane_and_class(table: &[[u8; 256]; 4], protocol: u32, flags: u32, src_port: u32) -> (u8, u8) {
    let lane = LANE_BY_PROTOCOL[(protocol & 0xff) as usize];
    let key = if lane == LANE_TCP {
        flags
    } else {
        src_port.min(255)
    };
    (lane, table[usize::from(lane & 3)][(key & 0xff) as usize])
}

/// One correlated, classified flow, reduced to what the device half
/// needs: 16 bytes instead of a full `FlowTuple`. The destination
/// address is deliberately absent — destination-keyed distincts belong
/// to the front half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedFlow {
    /// Dense intern index of the source device (== `DeviceId` value).
    pub dense: u32,
    /// Packets in the flow record.
    pub packets: u32,
    /// Destination port (drives per-service / per-UDP-port stats).
    pub dst_port: u16,
    /// [`class_idx`] of the classified flow.
    pub class: u8,
    /// [`realm_idx`] of the source device.
    pub realm: u8,
    /// Transport in Fig 4 order: ICMP 0, TCP 1, UDP 2.
    pub proto: u8,
}

/// Where in the window an hour falls.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HourPos {
    /// 1-based interval.
    pub(crate) interval: u32,
    /// `interval - 1`, the index into the hourly series.
    pub(crate) idx: usize,
    /// 0-based day of the window.
    pub(crate) day: u32,
}

impl HourPos {
    /// # Panics
    ///
    /// Panics if `interval` is outside `1..=hours`.
    pub(crate) fn new(interval: u32, hours: u32) -> Self {
        assert!(
            interval >= 1 && interval <= hours,
            "interval {interval} outside 1..={hours}"
        );
        HourPos {
            interval,
            idx: (interval - 1) as usize,
            day: (interval - 1) / 24,
        }
    }
}

/// One hour's destination-keyed distinct state, per realm.
#[derive(Debug)]
pub(crate) struct DstDistinct {
    udp_ips: [U32Set; 2],
    scan_ips: [U32Set; 2],
    udp_ports: [PortScratch; 2],
    scan_ports: [PortScratch; 2],
}

impl DstDistinct {
    pub(crate) fn new() -> Self {
        DstDistinct {
            udp_ips: [U32Set::new(), U32Set::new()],
            scan_ips: [U32Set::new(), U32Set::new()],
            udp_ports: [PortScratch::new(), PortScratch::new()],
            scan_ports: [PortScratch::new(), PortScratch::new()],
        }
    }

    /// Start a new hour.
    pub(crate) fn clear(&mut self) {
        for r in 0..2 {
            self.udp_ips[r].clear();
            self.scan_ips[r].clear();
            self.udp_ports[r].clear();
            self.scan_ports[r].clear();
        }
    }

    /// Count one flow of class code `class` from realm index `r`.
    #[inline]
    fn observe(&mut self, class: u8, r: usize, dst_ip: u32, dst_port: u16) {
        match class {
            CLASS_UDP => {
                self.udp_ips[r].insert(dst_ip);
                self.udp_ports[r].insert(dst_port);
            }
            CLASS_TCP_SCAN => {
                self.scan_ips[r].insert(dst_ip);
                self.scan_ports[r].insert(dst_port);
            }
            _ => {}
        }
    }

    /// Add the hour's distinct destination counts to `result`.
    pub(crate) fn commit(&mut self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].dst_ips[idx] += self.udp_ips[r].len() as u64;
            result.udp[r].dst_ports[idx] += self.udp_ports[r].len() as u64;
            result.tcp_scan[r].dst_ips[idx] += self.scan_ips[r].len() as u64;
            result.tcp_scan[r].dst_ports[idx] += self.scan_ports[r].len() as u64;
        }
    }
}

/// The front half of the fold over one block of an hour: a scan of the
/// block's columns, with `corr[i]` the device correlation of record
/// `i` (the block's merge-join column). Correlated flows are classified
/// through the class table, counted into `dst` and handed to `sink` in
/// record order. Returns the `(flows, packets)` of the sources outside
/// the inventory.
///
/// # Panics
///
/// Panics if `corr` is shorter than the block.
#[inline]
pub(crate) fn classify_flows(
    block: &ColumnBlock,
    corr: &[Option<(u32, Realm)>],
    dst: &mut DstDistinct,
    mut sink: impl FnMut(RoutedFlow),
) -> (u64, u64) {
    let n = block.len();
    let corr = &corr[..n];
    let (dst_ip, src_port, dst_port) = (
        &block.dst_ip()[..n],
        &block.src_port()[..n],
        &block.dst_port()[..n],
    );
    let (protocol, flags, packets) = (
        &block.protocol()[..n],
        &block.tcp_flags()[..n],
        &block.packets()[..n],
    );
    let table = &*CLASS_TABLE;
    let mut unmatched = (0u64, 0u64);
    for i in 0..n {
        let Some((dense, realm)) = corr[i] else {
            unmatched.0 += 1;
            unmatched.1 += u64::from(packets[i]);
            continue;
        };
        let (lane, class) = lane_and_class(table, protocol[i], flags[i], src_port[i]);
        let r = realm_idx(realm);
        let port = dst_port[i] as u16;
        dst.observe(class, r, dst_ip[i], port);
        sink(RoutedFlow {
            dense,
            packets: packets[i],
            dst_port: port,
            class,
            realm: r as u8,
            proto: lane,
        });
    }
    unmatched
}

/// The device half of the fold: per-hour scratch for the devices of one
/// dense-index range, plus the run-at-a-time write into an
/// [`Analysis`].
#[derive(Debug)]
pub(crate) struct DeviceFold {
    /// Distinct UDP-emitting / scanning devices this hour, per realm.
    udp_devs: [DeviceSet; 2],
    scan_devs: [DeviceSet; 2],
    /// Backscatter packets this hour, indexed by `dense - base` (zeroed
    /// between hours via `bs_touched`).
    bs_counts: Vec<u64>,
    /// Whether the device at `dense - base` is already in `bs_touched`.
    /// A flag of its own because a zero-packet flow leaves `bs_counts`
    /// at zero, so the count cannot tell; a device listed twice would
    /// have its packets added twice by `commit`.
    bs_listed: Vec<bool>,
    /// This hour's backscatter emitters, each once, as `dense - base`.
    bs_touched: Vec<u32>,
    base: u32,
    /// Packets folded this hour per `[realm][class]` (the analyzer's
    /// metric flush).
    hour_packets: [[u64; NUM_CLASSES]; 2],
}

impl DeviceFold {
    /// Scratch for devices whose dense index lies in `range`.
    pub(crate) fn new(range: Range<u32>) -> Self {
        let set = || DeviceSet::with_capacity(range.end as usize);
        DeviceFold {
            udp_devs: [set(), set()],
            scan_devs: [set(), set()],
            bs_counts: vec![0; range.len()],
            bs_listed: vec![false; range.len()],
            bs_touched: Vec::new(),
            base: range.start,
            hour_packets: [[0; NUM_CLASSES]; 2],
        }
    }

    /// Start a new hour.
    pub(crate) fn clear(&mut self) {
        for r in 0..2 {
            self.udp_devs[r].clear();
            self.scan_devs[r].clear();
        }
        for &off in &self.bs_touched {
            self.bs_counts[off as usize] = 0;
            self.bs_listed[off as usize] = false;
        }
        self.bs_touched.clear();
        self.hour_packets = [[0; NUM_CLASSES]; 2];
    }

    /// Packets folded since the last [`clear`](Self::clear), per
    /// `[realm][class]`.
    pub(crate) fn hour_packets(&self) -> &[[u64; NUM_CLASSES]; 2] {
        &self.hour_packets
    }

    /// Fold an in-order slice of the hour at `at`'s routed flows into
    /// `result`, one run of consecutive flows from the same device at a
    /// time. A sorted hour is one run per device per block; any order
    /// folds to the same result, since a device's runs only add up.
    pub(crate) fn fold(&mut self, result: &mut Analysis, at: HourPos, flows: &[RoutedFlow]) {
        let mut rest = flows;
        while let Some(first) = rest.first() {
            let len = rest
                .iter()
                .position(|f| f.dense != first.dense)
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            self.fold_run(result, at, run);
            rest = tail;
        }
    }

    /// Fold one non-empty run of one device's flows. The port-keyed
    /// tables (Table IV, Table V, the Fig 10 series) take every flow;
    /// everything keyed by the device alone — its table row, the
    /// protocol and per-class series, the hour's device sets and
    /// backscatter scratch — is written once, from the run's sums.
    fn fold_run(&mut self, result: &mut Analysis, at: HourPos, run: &[RoutedFlow]) {
        // Dense-id contract: the intern index *is* the device id.
        let id = DeviceId(run[0].dense);
        let r = usize::from(run[0].realm);
        let mut class_packets = [0u64; NUM_CLASSES];
        let mut proto_packets = [0u64; 3];
        let mut seen = 0u8;
        for f in run {
            let pkts = u64::from(f.packets);
            class_packets[usize::from(f.class)] += pkts;
            proto_packets[usize::from(f.proto)] += pkts;
            seen |= 1 << f.class;
            match f.class {
                CLASS_UDP => result.udp_ports.observe(f.dst_port, pkts, id),
                CLASS_TCP_SCAN => {
                    let slot = ScanService::group_of_port(f.dst_port);
                    result.scan_services.observe(slot, r, pkts, id);
                    // TOP5_SERVICES are the first five Table V groups.
                    if let Some(series) = result.top5_series[at.idx].get_mut(slot) {
                        *series += pkts;
                    }
                }
                _ => {}
            }
        }
        result.devices.observe_run(
            id,
            REALMS[r],
            &class_packets,
            run.len() as u64,
            at.interval,
            at.day,
        );
        for (total, pkts) in result.protocol_packets[r].iter_mut().zip(proto_packets) {
            *total += pkts;
        }
        for (total, pkts) in self.hour_packets[r].iter_mut().zip(class_packets) {
            *total += pkts;
        }
        if seen & (1 << CLASS_UDP) != 0 {
            result.udp[r].packets[at.idx] += class_packets[usize::from(CLASS_UDP)];
            self.udp_devs[r].insert(id);
        }
        if seen & (1 << CLASS_TCP_SCAN) != 0 {
            result.tcp_scan[r].packets[at.idx] += class_packets[usize::from(CLASS_TCP_SCAN)];
            self.scan_devs[r].insert(id);
        }
        if seen & (1 << CLASS_BACKSCATTER) != 0 {
            let pkts = class_packets[usize::from(CLASS_BACKSCATTER)];
            result.backscatter_hourly[r][at.idx] += pkts;
            let off = (id.0 - self.base) as usize;
            if !self.bs_listed[off] {
                self.bs_listed[off] = true;
                self.bs_touched.push(off as u32);
            }
            self.bs_counts[off] += pkts;
        }
    }

    /// Commit the hour: add the distinct-device counts and attribute
    /// the hour's backscatter to its dominant victim among this fold's
    /// devices. Ties break toward the smaller device id, so the result
    /// depends neither on accumulation order nor on how devices are
    /// split across folds.
    pub(crate) fn commit(&self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].devices[idx] += self.udp_devs[r].len() as u64;
            result.tcp_scan[r].devices[idx] += self.scan_devs[r].len() as u64;
        }
        let mut top: Option<(DeviceId, u64)> = None;
        let mut total = 0u64;
        for &off in &self.bs_touched {
            let cnt = self.bs_counts[off as usize];
            let id = DeviceId(self.base + off);
            total += cnt;
            if top.is_none_or(|(bd, bc)| cnt > bc || (cnt == bc && id < bd)) {
                top = Some((id, cnt));
            }
        }
        let slot = &mut result.backscatter_intervals[idx];
        slot.total += total;
        merge_top_victim(&mut slot.top_victim, top);
    }
}

/// The per-record fold the column scan and the run fold replaced, kept
/// as the oracle every optimised path is compared to: per-flow
/// correlation (`CorrelationIndex::correlate`), per-flow [`classify`],
/// and a per-flow device write, with plain ordered sets and maps for
/// the hour's device-keyed scratch.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::analysis::AnalyzerMetrics;
    use iotscope_devicedb::DeviceDb;
    use iotscope_obs::{Registry, Snapshot};
    use iotscope_telescope::HourTraffic;
    use std::collections::{BTreeMap, BTreeSet};

    /// One hour's device-keyed scratch.
    #[derive(Default)]
    struct HourDevices {
        udp: [BTreeSet<DeviceId>; 2],
        scan: [BTreeSet<DeviceId>; 2],
        /// Backscatter packets per emitting device.
        backscatter: BTreeMap<DeviceId, u64>,
    }

    /// Fold one classified flow of the hour at `at` into `result`.
    fn observe(
        result: &mut Analysis,
        hour: &mut HourDevices,
        at: HourPos,
        id: DeviceId,
        r: usize,
        class: u8,
        flow: &FlowTuple,
    ) {
        let pkts = u64::from(flow.packets);
        result
            .devices
            .observe(id, REALMS[r], usize::from(class), pkts, at.interval, at.day);
        let proto = match flow.protocol {
            TransportProtocol::Icmp => 0,
            TransportProtocol::Tcp => 1,
            TransportProtocol::Udp => 2,
        };
        result.protocol_packets[r][proto] += pkts;
        match class {
            CLASS_UDP => {
                result.udp[r].packets[at.idx] += pkts;
                hour.udp[r].insert(id);
                result.udp_ports.observe(flow.dst_port, pkts, id);
            }
            CLASS_TCP_SCAN => {
                result.tcp_scan[r].packets[at.idx] += pkts;
                hour.scan[r].insert(id);
                let slot = ScanService::group_of_port(flow.dst_port);
                result.scan_services.observe(slot, r, pkts, id);
                if let Some(series) = result.top5_series[at.idx].get_mut(slot) {
                    *series += pkts;
                }
            }
            CLASS_BACKSCATTER => {
                result.backscatter_hourly[r][at.idx] += pkts;
                *hour.backscatter.entry(id).or_insert(0) += pkts;
            }
            _ => {}
        }
    }

    /// The per-record analysis of `traffic` over `db` in a window of
    /// `hours`, and the stable metric snapshot a memory-fed pipeline
    /// run over the same hours must publish.
    pub(crate) fn analyze(
        db: &DeviceDb,
        hours: u32,
        traffic: &[HourTraffic],
    ) -> (Analysis, Snapshot) {
        let index = db.correlation_index();
        let mut result = Analysis::empty(hours);
        let mut dst = DstDistinct::new();
        let mut packets = [[0u64; NUM_CLASSES]; 2];
        for hour in traffic {
            let at = HourPos::new(hour.interval, hours);
            dst.clear();
            let mut devices = HourDevices::default();
            for flow in &hour.flows {
                let Some((dense, realm)) = index.correlate(flow.src_ip) else {
                    result.unmatched_flows += 1;
                    result.unmatched_packets += u64::from(flow.packets);
                    continue;
                };
                let class = class_idx(classify(flow)) as u8;
                let r = realm_idx(realm);
                dst.observe(class, r, u32::from(flow.dst_ip), flow.dst_port);
                packets[r][usize::from(class)] += u64::from(flow.packets);
                observe(
                    &mut result,
                    &mut devices,
                    at,
                    DeviceId(dense),
                    r,
                    class,
                    flow,
                );
            }
            dst.commit(&mut result, at.idx);
            for r in 0..2 {
                result.udp[r].devices[at.idx] += devices.udp[r].len() as u64;
                result.tcp_scan[r].devices[at.idx] += devices.scan[r].len() as u64;
            }
            // Ascending ids with a strict `>`: ties go to the smaller id.
            let mut top: Option<(DeviceId, u64)> = None;
            for (&id, &cnt) in &devices.backscatter {
                if top.is_none_or(|(_, best)| cnt > best) {
                    top = Some((id, cnt));
                }
            }
            let slot = &mut result.backscatter_intervals[at.idx];
            slot.total += devices.backscatter.values().sum::<u64>();
            merge_top_victim(&mut slot.top_victim, top);
        }
        result.normalize();

        let registry = Registry::new();
        registry
            .counter("pipeline.hours_ingested")
            .add(traffic.len() as u64);
        registry.counter("pipeline.hours_missing");
        registry.counter("pipeline.hours_skipped");
        let m = AnalyzerMetrics::register(&registry);
        for (counters, totals) in m.packets.iter().zip(packets) {
            for (counter, pkts) in counters.iter().zip(totals) {
                counter.add(pkts);
            }
        }
        m.unmatched_flows.add(result.unmatched_flows);
        m.unmatched_packets.add(result.unmatched_packets);
        (result, registry.snapshot().stable_only())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, TOP5_SERVICES};
    use crate::classify::TrafficClass;
    use crate::pipeline::{AnalysisPipeline, AnalyzeOptions};
    use crate::stream::{StreamConfig, StreamingAnalyzer};
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceDb, IotDevice, IspId};
    use iotscope_net::store::{FlowStore, StoreOptions, BLOCK_RECORDS};
    use iotscope_net::time::{AnalysisWindow, UnixHour};
    use iotscope_obs::Registry;
    use iotscope_telescope::HourTraffic;
    use proptest::prelude::*;

    /// Window length of the test hours.
    const HOURS: u32 = 8;

    #[test]
    fn class_codes_match_class_idx() {
        assert_eq!(CLASS_TCP_SCAN as usize, class_idx(TrafficClass::TcpScan));
        assert_eq!(
            CLASS_BACKSCATTER as usize,
            class_idx(TrafficClass::Backscatter)
        );
        assert_eq!(CLASS_UDP as usize, class_idx(TrafficClass::Udp));
        for (r, realm) in REALMS.into_iter().enumerate() {
            assert_eq!(realm_idx(realm), r);
        }
        for (lane, protocol) in TransportProtocol::ALL.into_iter().enumerate() {
            assert_eq!(
                usize::from(LANE_BY_PROTOCOL[usize::from(protocol.number())]),
                lane
            );
        }
        assert_eq!(LANE_BY_PROTOCOL[TransportProtocol::Tcp as usize], LANE_TCP);
    }

    #[test]
    fn top5_services_are_the_first_five_table_v_groups() {
        assert_eq!(TOP5_SERVICES, ScanService::ALL[..5]);
    }

    /// The class table is `classify`, for every protocol × flag byte ×
    /// `src_port`.
    #[test]
    fn class_table_equals_classify_exhaustively() {
        let table = &*CLASS_TABLE;
        for (lane, protocol) in TransportProtocol::ALL.into_iter().enumerate() {
            for flags in 0..=u8::MAX {
                for src_port in 0..=u16::MAX {
                    let flow = FlowTuple {
                        src_port,
                        protocol,
                        tcp_flags: TcpFlags::from_bits(flags),
                        ..FlowTuple::udp(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 0, 0)
                    };
                    let want = (lane as u8, class_idx(classify(&flow)) as u8);
                    let got = lane_and_class(
                        table,
                        u32::from(protocol.number()),
                        u32::from(flags),
                        u32::from(src_port),
                    );
                    assert_eq!(got, want, "{protocol} flags={flags} src_port={src_port}");
                }
            }
        }
    }

    /// 48 devices in 10.0.0.0/16, alternating consumer and CPS.
    fn inventory() -> DeviceDb {
        DeviceDb::from_devices((0..48u32).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(0x0a00_0001 + i * 3),
            profile: if i % 2 == 0 {
                DeviceProfile::Consumer(ConsumerKind::Router)
            } else {
                DeviceProfile::Cps(vec![CpsService::ModbusTcp])
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    /// A flow from `src` with every other field drawn from `r`: all
    /// three protocols, any flag byte, ICMP types in and past 0..=255,
    /// destinations and ports that repeat within an hour, and one flow
    /// in seven carrying zero packets.
    fn random_flow(src: Ipv4Addr, r: u64) -> FlowTuple {
        FlowTuple {
            src_ip: src,
            dst_ip: Ipv4Addr::from(0x2c00_0000 | ((r >> 24) % 500) as u32),
            src_port: match (r >> 2) % 3 {
                0 => ((r >> 8) & 0xff) as u16,
                1 => 256 + ((r >> 8) % 1_000) as u16,
                _ => (r >> 8) as u16,
            },
            dst_port: ((r >> 34) % 2_000) as u16,
            protocol: TransportProtocol::ALL[(r % 3) as usize],
            ttl: (r >> 44) as u8,
            tcp_flags: TcpFlags::from_bits((r >> 52) as u8),
            ip_len: (r >> 20) as u16,
            packets: if r.is_multiple_of(7) {
                0
            } else {
                (r >> 60) as u32 + 1
            },
        }
    }

    /// `hours` hours of unsorted traffic from `seed`: runs of one to
    /// five flows per source, a quarter of them from sources outside
    /// the inventory. The first hour opens with every protocol × flag
    /// byte; with `big` it also crosses the 4,096-record chunk boundary
    /// inside one device's run.
    fn random_traffic(db: &DeviceDb, seed: u64, hours: u32, big: bool) -> Vec<HourTraffic> {
        let ips: Vec<Ipv4Addr> = db.iter().map(|d| d.ip).collect();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..hours)
            .map(|h| {
                let mut flows = Vec::new();
                let mut n = 200 + (next() % 600) as usize;
                if h == 0 {
                    for protocol in TransportProtocol::ALL {
                        for flags in 0..=u8::MAX {
                            let src = ips[usize::from(flags) % ips.len()];
                            flows.push(FlowTuple {
                                protocol,
                                tcp_flags: TcpFlags::from_bits(flags),
                                ..random_flow(src, next())
                            });
                        }
                    }
                    if big {
                        n = BLOCK_RECORDS + 300;
                    }
                }
                while flows.len() < n {
                    let r = next();
                    let src = if r.is_multiple_of(4) {
                        Ipv4Addr::from(0xc0a8_0000 | ((r >> 40) & 0xff) as u32)
                    } else {
                        ips[(r >> 8) as usize % ips.len()]
                    };
                    for _ in 0..=(r >> 16) % 5 {
                        flows.push(random_flow(src, next()));
                    }
                }
                if big && h == 0 {
                    for flow in &mut flows[BLOCK_RECORDS - 6..BLOCK_RECORDS + 6] {
                        *flow = random_flow(ips[5], next());
                    }
                }
                let interval = 1 + 2 * h;
                HourTraffic {
                    interval,
                    hour: UnixHour::new(2_000 + u64::from(interval)),
                    flows,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The column scan and the run fold reproduce the per-record
        /// reference: the whole `Analysis` and the stable metric
        /// snapshot, at one and two threads, from memory (unsorted
        /// hours) and through the store (sorted, decoded block by
        /// block).
        #[test]
        fn prop_column_fold_matches_per_record_reference(
            seed: u64,
            hours in 1u32..4,
            big: bool,
        ) {
            let db = inventory();
            let traffic = random_traffic(&db, seed, hours, big);
            let (reference, stable) = reference::analyze(&db, HOURS, &traffic);
            let pipeline = AnalysisPipeline::new(&db, HOURS);
            for threads in [1, 2] {
                let registry = Registry::new();
                let out = pipeline
                    .run(&traffic, &AnalyzeOptions::new().threads(threads).metrics(&registry))
                    .unwrap();
                prop_assert_eq!(&out.analysis, &reference, "memory, threads={}", threads);
                prop_assert_eq!(
                    &registry.snapshot().stable_only(),
                    &stable,
                    "memory metrics, threads={}",
                    threads
                );
            }

            let dir = std::env::temp_dir().join(format!(
                "iotscope-fold-{seed}-{hours}-{big}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // The window the odd intervals span, its even hours stored
            // empty, so the day-completeness rule keeps every hour.
            let window = AnalysisWindow::new(traffic[0].hour, 2 * hours - 1).unwrap();
            let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
            for (_, hour) in window.iter_intervals() {
                store.write_hour(hour, &[]).unwrap();
            }
            for hour in &traffic {
                store.write_hour(hour.hour, &hour.flows).unwrap();
            }
            for threads in [1, 2] {
                let options = AnalyzeOptions::new().window(window).threads(threads);
                let out = pipeline.run(&store, &options).unwrap();
                prop_assert_eq!(&out.analysis, &reference, "store, threads={}", threads);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Regression: a zero-packet backscatter flow followed by another
    /// from the same device listed the device twice, doubling its
    /// packets in the hour's backscatter total (the top victim was
    /// right). Checked sequentially, across two shards and streaming,
    /// with the two flows adjacent and apart.
    #[test]
    fn zero_packet_backscatter_is_counted_once() {
        let db = inventory();
        let (victim, other) = (db.iter().next().unwrap().ip, db.iter().nth(1).unwrap().ip);
        let synack = |src, pkts| {
            FlowTuple::tcp(
                src,
                Ipv4Addr::new(44, 0, 0, 1),
                80,
                40_000,
                TcpFlags::SYN | TcpFlags::ACK,
            )
            .with_packets(pkts)
        };
        let scan = FlowTuple::tcp(other, Ipv4Addr::new(44, 0, 0, 2), 40_000, 23, TcpFlags::SYN);
        for flows in [
            vec![synack(victim, 0), synack(victim, 5)],
            vec![synack(victim, 0), scan, synack(victim, 5)],
        ] {
            let traffic = vec![HourTraffic {
                interval: 1,
                hour: UnixHour::new(2_001),
                flows,
            }];
            let mut sequential = Analyzer::new(&db, HOURS);
            sequential.ingest_hour(&traffic[0]);
            let sharded = AnalysisPipeline::new(&db, HOURS)
                .run(&traffic, &AnalyzeOptions::new().threads(2))
                .unwrap()
                .analysis;
            let mut streaming = StreamingAnalyzer::new(&db, HOURS, StreamConfig::default());
            streaming.push_hour(&traffic[0]);
            for (path, analysis) in [
                ("sequential", sequential.finish()),
                ("sharded", sharded),
                ("streaming", streaming.snapshot()),
            ] {
                let slot = &analysis.backscatter_intervals[0];
                assert_eq!(slot.total, 5, "{path}");
                assert_eq!(slot.top_victim, Some((DeviceId(0), 5)), "{path}");
            }
        }
    }
}
