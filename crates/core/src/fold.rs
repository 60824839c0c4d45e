//! The ingest fold (DESIGN.md §3d), written once.
//!
//! A [`Router`] turns an hour into a [`RoutedHour`], and
//! [`Analyzer::apply_routed`](crate::analysis::Analyzer::apply_routed)
//! folds it. Every driver takes that one path: the pipeline at one
//! thread or N (the routed feed: N workers route, one fold takes the
//! hours in source order, DESIGN.md §3e), the stream's inline push and
//! the daemon's routed feed
//! ([`StreamingAnalyzer::push_routed`](crate::stream::StreamingAnalyzer::push_routed)),
//! and the analyzer's own [`begin_hour`](crate::analysis::Analyzer::begin_hour)
//! sink, which routes with a router of its own and folds at
//! [`HourIngest::finish`](crate::analysis::HourIngest::finish).
//!
//! * The **front half** (`classify_flows`, in the router) scans each
//!   decoded [`ColumnBlock`]'s columns next to the block's correlation
//!   column, classifies each correlated flow by table lookup and counts
//!   the hour's distinct destinations (`DstDistinct`) — state keyed by
//!   *destination*, which needs the whole hour in one place. It appends
//!   one 8-byte `RoutedFlow` per correlated flow to the hour, grouped
//!   into `DeviceRun`s of consecutive flows from one source device.
//! * The **device half** (`DeviceFold::fold`) takes the hour one device
//!   run at a time and writes everything keyed by the *source device*
//!   into an [`Analysis`].
//!
//! A folded hour's buffers go back to a router (`Router::recycle`),
//! so routing an hour reuses the last one's capacity instead of growing
//! new buffers. Each driver is checked against the naive per-record
//! analyzer in the `iotscope-tests` crate (`oracle`).

use crate::analysis::{class_idx, merge_top_victim, realm_idx, Analysis};
use crate::classify::classify;
use crate::distinct::{PortScratch, U32Set};
use crate::table::NUM_CLASSES;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::protocol::{TcpFlags, TransportProtocol};
use iotscope_net::store::{ColumnBlock, FlowSink};
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// Realm lookup by [`realm_idx`] value.
const REALMS: [Realm; 2] = [Realm::Consumer, Realm::Cps];

/// `class_idx` values the fold branches on (asserted against
/// [`class_idx`] in tests).
pub(crate) const CLASS_TCP_SCAN: u8 = 0;
const CLASS_BACKSCATTER: u8 = 2;
const CLASS_UDP: u8 = 3;

/// The classes whose devices the hour's scratch tracks, as `1 << class`
/// bits: UDP and TCP-scan emitters are counted per hour, backscatter
/// emitters compete for the hour's top victim.
const HOUR_TRACKED: u8 = (1 << CLASS_UDP) | (1 << CLASS_TCP_SCAN) | (1 << CLASS_BACKSCATTER);

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
/// The behavior fold ([`crate::behavior`]) reads flows through the same
/// table.
pub(crate) static CLASS_TABLE: LazyLock<[[u8; 256]; 4]> = LazyLock::new(|| {
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
pub(crate) fn lane_and_class(
    table: &[[u8; 256]; 4],
    protocol: u32,
    flags: u32,
    src_port: u32,
) -> (u8, u8) {
    let lane = LANE_BY_PROTOCOL[(protocol & 0xff) as usize];
    let key = if lane == LANE_TCP {
        flags
    } else {
        src_port.min(255)
    };
    (lane, table[usize::from(lane & 3)][(key & 0xff) as usize])
}

/// One correlated, classified flow, reduced to what the device half
/// needs: 8 bytes instead of a full `FlowTuple`. Its source device is
/// its run's ([`DeviceRun`]); the destination address is deliberately
/// absent — destination-keyed distincts belong to the front half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoutedFlow {
    /// Packets in the flow record.
    pub packets: u32,
    /// Destination port (drives per-service / per-UDP-port stats).
    pub dst_port: u16,
    /// [`class_idx`] of the classified flow.
    pub class: u8,
    /// Transport in Fig 4 order: ICMP 0, TCP 1, UDP 2.
    pub proto: u8,
}

/// A maximal run of consecutive routed flows from one source device.
/// A stored hour is sorted by source, so it routes as one run per
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeviceRun {
    /// Dense intern index of the source device (== `DeviceId` value).
    pub dense: u32,
    /// The run's flows: the next `len` of the hour's routed flows.
    pub len: u32,
    /// [`realm_idx`] of the source device.
    pub realm: u8,
}

/// One hour through the front half, as one value: its routed flows (in
/// record order, as device runs), its destination-distinct counts and
/// its unmatched totals. It is everything the device half and the
/// hour-keyed series need, so an hour can be routed on one thread and
/// folded on another. A [`Router`] produces it.
#[derive(Debug)]
pub struct RoutedHour {
    pub(crate) at: HourPos,
    pub(crate) runs: Vec<DeviceRun>,
    pub(crate) flows: Vec<RoutedFlow>,
    pub(crate) dst: DstCounts,
    /// Flows and packets from sources outside the inventory.
    pub(crate) unmatched: (u64, u64),
}

impl RoutedHour {
    /// The hour's 1-based interval.
    pub fn interval(&self) -> u32 {
        self.at.interval
    }

    /// Add the hour-keyed aggregates — the destination distincts and
    /// the unmatched totals — to `result`.
    pub(crate) fn commit_hour_keyed(&self, result: &mut Analysis) {
        self.dst.add_to(result, self.at.idx);
        result.unmatched_flows += self.unmatched.0;
        result.unmatched_packets += self.unmatched.1;
    }
}

/// Correlates and classifies one hour of flows into a [`RoutedHour`]:
/// the fold's front half, on whichever thread reads the hour.
///
/// Call [`begin_hour`](Self::begin_hour), feed it as a `FlowSink`
/// (decoded blocks from a fused store decode, or flow slices), then
/// [`finish_hour`](Self::finish_hour) to take the hour; the crate's
/// drivers hand a folded hour back (`recycle`) so the next one reuses
/// its buffers. Skipping
/// `finish_hour` (after a decode error) abandons the hour: nothing of
/// it leaves the router, and the next `begin_hour` discards it.
#[derive(Debug)]
pub struct Router<'a> {
    db: &'a DeviceDb,
    hours: u32,
    /// The hour being routed, between `begin_hour` and `finish_hour`.
    hour: Option<RoutedHour>,
    /// A recycled hour, emptied, whose buffers the next `begin_hour`
    /// routes into.
    spare: Option<RoutedHour>,
    /// Per-hour destination-distinct state.
    dst: DstDistinct,
    /// The block's merge-join correlation column, capacity reused
    /// across blocks.
    corr: Vec<Option<(u32, Realm)>>,
}

impl<'a> Router<'a> {
    /// A router over `db` for a window of `hours`.
    pub fn new(db: &'a DeviceDb, hours: u32) -> Self {
        Router {
            db,
            hours,
            hour: None,
            spare: None,
            dst: DstDistinct::new(),
            corr: Vec::new(),
        }
    }

    /// Start routing the hour at `interval` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn begin_hour(&mut self, interval: u32) {
        let at = HourPos::new(interval, self.hours);
        if let Some(abandoned) = self.hour.take() {
            self.recycle(abandoned);
        }
        self.dst.clear();
        let (runs, flows) = self
            .spare
            .take()
            .map_or_else(Default::default, |spare| (spare.runs, spare.flows));
        self.hour = Some(RoutedHour {
            at,
            runs,
            flows,
            dst: DstCounts::default(),
            unmatched: (0, 0),
        });
    }

    /// Take the hour: its routed flows, destination distincts and
    /// unmatched totals.
    ///
    /// # Panics
    ///
    /// Panics without a preceding [`begin_hour`](Self::begin_hour).
    pub fn finish_hour(&mut self) -> RoutedHour {
        let mut hour = self.hour.take().expect("finish_hour without begin_hour");
        hour.dst = self.dst.counts();
        hour
    }

    /// Hand back a folded hour (routed here or by any router), so the
    /// next [`begin_hour`](Self::begin_hour) routes into its emptied
    /// buffers.
    pub(crate) fn recycle(&mut self, mut hour: RoutedHour) {
        hour.runs.clear();
        hour.flows.clear();
        self.spare = Some(hour);
    }
}

impl FlowSink for Router<'_> {
    /// The front half of the fold over one block: one merge-join pass
    /// over the block's `src_ip` column, then the column scan appends
    /// each correlated flow to the hour.
    fn visit_block(&mut self, block: &ColumnBlock) {
        let hour = self
            .hour
            .as_mut()
            .expect("routing outside begin_hour/finish_hour");
        self.db
            .correlation_index()
            .correlate_sorted_block(block.src_ip(), &mut self.corr);
        let (unmatched, packets) = classify_flows(
            block,
            &self.corr,
            &mut self.dst,
            &mut hour.runs,
            &mut hour.flows,
        );
        hour.unmatched.0 += unmatched;
        hour.unmatched.1 += packets;
    }
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
struct DstDistinct {
    udp_ips: [U32Set; 2],
    scan_ips: [U32Set; 2],
    udp_ports: [PortScratch; 2],
    scan_ports: [PortScratch; 2],
}

impl DstDistinct {
    fn new() -> Self {
        DstDistinct {
            udp_ips: [U32Set::new(), U32Set::new()],
            scan_ips: [U32Set::new(), U32Set::new()],
            udp_ports: [PortScratch::new(), PortScratch::new()],
            scan_ports: [PortScratch::new(), PortScratch::new()],
        }
    }

    /// Start a new hour.
    fn clear(&mut self) {
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

    /// The hour's distinct destination counts.
    fn counts(&mut self) -> DstCounts {
        DstCounts {
            udp_ips: self.udp_ips.each_mut().map(|s| s.len() as u64),
            udp_ports: self.udp_ports.each_ref().map(|s| s.len() as u64),
            scan_ips: self.scan_ips.each_mut().map(|s| s.len() as u64),
            scan_ports: self.scan_ports.each_ref().map(|s| s.len() as u64),
        }
    }
}

/// One hour's distinct destination addresses and ports per realm, as
/// [`DstDistinct`] counted them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DstCounts {
    udp_ips: [u64; 2],
    udp_ports: [u64; 2],
    scan_ips: [u64; 2],
    scan_ports: [u64; 2],
}

impl DstCounts {
    /// Add the counts to `result`'s hourly series at `idx`.
    fn add_to(&self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].dst_ips[idx] += self.udp_ips[r];
            result.udp[r].dst_ports[idx] += self.udp_ports[r];
            result.tcp_scan[r].dst_ips[idx] += self.scan_ips[r];
            result.tcp_scan[r].dst_ports[idx] += self.scan_ports[r];
        }
    }
}

/// The front half of the fold over one block of an hour: a scan of the
/// block's columns, with `corr[i]` the device correlation of record
/// `i` (the block's merge-join column). Correlated flows are classified
/// through the class table, counted into `dst` and appended to `flows`
/// in record order, each extending the last of `runs` when it comes
/// from the same device (across the block boundary too) and opening a
/// run otherwise. Returns the `(flows, packets)` of the sources outside
/// the inventory.
///
/// # Panics
///
/// Panics if `corr` is shorter than the block.
#[inline]
fn classify_flows(
    block: &ColumnBlock,
    corr: &[Option<(u32, Realm)>],
    dst: &mut DstDistinct,
    runs: &mut Vec<DeviceRun>,
    flows: &mut Vec<RoutedFlow>,
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
        flows.push(RoutedFlow {
            packets: packets[i],
            dst_port: port,
            class,
            proto: lane,
        });
        match runs.last_mut() {
            Some(run) if run.dense == dense => run.len += 1,
            _ => runs.push(DeviceRun {
                dense,
                len: 1,
                realm: r as u8,
            }),
        }
    }
    unmatched
}

/// The device half of the fold: per-hour scratch for every device of
/// the inventory, plus the run-at-a-time write into an [`Analysis`].
#[derive(Debug)]
pub(crate) struct DeviceFold {
    /// The [`HOUR_TRACKED`] classes each device emitted this hour, as
    /// `1 << class` bits, indexed by dense index (zeroed between hours
    /// via `touched`).
    flags: Vec<u8>,
    /// Backscatter packets this hour, indexed by dense index (zeroed
    /// like `flags`).
    bs_counts: Vec<u64>,
    /// This hour's devices with any flag set, each once, by dense index.
    /// A device is listed when its flags leave zero, not by its counts:
    /// a zero-packet flow leaves `bs_counts` at zero, and a device
    /// listed twice would have its packets added twice by `commit`.
    touched: Vec<u32>,
    /// Distinct UDP-emitting / scanning devices this hour, per realm.
    udp_devices: [u64; 2],
    scan_devices: [u64; 2],
    /// Packets folded this hour per `[realm][class]` (the analyzer's
    /// metric flush).
    hour_packets: [[u64; NUM_CLASSES]; 2],
}

impl DeviceFold {
    /// Scratch for an inventory of `devices` devices.
    pub(crate) fn new(devices: usize) -> Self {
        DeviceFold {
            flags: vec![0; devices],
            bs_counts: vec![0; devices],
            touched: Vec::new(),
            udp_devices: [0; 2],
            scan_devices: [0; 2],
            hour_packets: [[0; NUM_CLASSES]; 2],
        }
    }

    /// Start a new hour.
    pub(crate) fn clear(&mut self) {
        for &dense in &self.touched {
            self.flags[dense as usize] = 0;
            self.bs_counts[dense as usize] = 0;
        }
        self.touched.clear();
        self.udp_devices = [0; 2];
        self.scan_devices = [0; 2];
        self.hour_packets = [[0; NUM_CLASSES]; 2];
    }

    /// Packets folded since the last [`clear`](Self::clear), per
    /// `[realm][class]`.
    pub(crate) fn hour_packets(&self) -> &[[u64; NUM_CLASSES]; 2] {
        &self.hour_packets
    }

    /// Fold the hour at `at`'s routed flows into `result`, one device
    /// run at a time. A sorted hour is one run per device; any order
    /// folds to the same result, since a device's runs only add up.
    ///
    /// # Panics
    ///
    /// Panics if the runs cover more than `flows`.
    pub(crate) fn fold(
        &mut self,
        result: &mut Analysis,
        at: HourPos,
        runs: &[DeviceRun],
        flows: &[RoutedFlow],
    ) {
        let mut rest = flows;
        for run in runs {
            let (head, tail) = rest.split_at(run.len as usize);
            self.fold_run(result, at, run, head);
            rest = tail;
        }
    }

    /// Fold one non-empty run of one device's flows. The port-keyed
    /// tables (Table IV, Table V's packets, the Fig 10 series) take
    /// every flow; everything keyed by the device alone — its table row
    /// and scanned-group mask, the protocol and per-class series, the
    /// hour's device flags — is written once, from the run's sums.
    fn fold_run(
        &mut self,
        result: &mut Analysis,
        at: HourPos,
        device: &DeviceRun,
        run: &[RoutedFlow],
    ) {
        // Dense-id contract: the intern index *is* the device id.
        let id = DeviceId(device.dense);
        let r = usize::from(device.realm);
        let mut class_packets = [0u64; NUM_CLASSES];
        let mut proto_packets = [0u64; 3];
        let mut seen = 0u8;
        let mut services = 0u16;
        for f in run {
            let pkts = u64::from(f.packets);
            class_packets[usize::from(f.class)] += pkts;
            proto_packets[usize::from(f.proto)] += pkts;
            seen |= 1 << f.class;
            match f.class {
                CLASS_UDP => result.udp_ports.observe(f.dst_port, pkts, id),
                CLASS_TCP_SCAN => {
                    let slot = ScanService::group_of_port(f.dst_port);
                    result.scan_services.observe(slot, r, pkts);
                    services |= 1 << slot;
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
            at,
            run.len() as u64,
            &class_packets,
            services,
        );
        for (total, pkts) in result.protocol_packets[r].iter_mut().zip(proto_packets) {
            *total += pkts;
        }
        for (total, pkts) in self.hour_packets[r].iter_mut().zip(class_packets) {
            *total += pkts;
        }
        if seen & (1 << CLASS_UDP) != 0 {
            result.udp[r].packets[at.idx] += class_packets[usize::from(CLASS_UDP)];
        }
        if seen & (1 << CLASS_TCP_SCAN) != 0 {
            result.tcp_scan[r].packets[at.idx] += class_packets[usize::from(CLASS_TCP_SCAN)];
        }
        let tracked = seen & HOUR_TRACKED;
        if tracked == 0 {
            return;
        }
        let dense = id.0 as usize;
        let flags = &mut self.flags[dense];
        if *flags == 0 {
            self.touched.push(id.0);
        }
        let new = tracked & !*flags;
        *flags |= tracked;
        self.udp_devices[r] += u64::from((new >> CLASS_UDP) & 1);
        self.scan_devices[r] += u64::from((new >> CLASS_TCP_SCAN) & 1);
        if seen & (1 << CLASS_BACKSCATTER) != 0 {
            let pkts = class_packets[usize::from(CLASS_BACKSCATTER)];
            result.backscatter_hourly[r][at.idx] += pkts;
            self.bs_counts[dense] += pkts;
        }
    }

    /// Commit the hour: add the distinct-device counts and attribute
    /// the hour's backscatter to its dominant victim. Ties break toward
    /// the smaller device id, so the result does not depend on
    /// accumulation order.
    pub(crate) fn commit(&self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].devices[idx] += self.udp_devices[r];
            result.tcp_scan[r].devices[idx] += self.scan_devices[r];
        }
        let mut top: Option<(DeviceId, u64)> = None;
        let mut total = 0u64;
        for &dense in &self.touched {
            if self.flags[dense as usize] & (1 << CLASS_BACKSCATTER) == 0 {
                continue;
            }
            let cnt = self.bs_counts[dense as usize];
            let id = DeviceId(dense);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, TOP5_SERVICES};
    use crate::classify::TrafficClass;
    use crate::pipeline::{AnalysisPipeline, AnalyzeOptions};
    use crate::stream::{StreamConfig, StreamingAnalyzer};
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceDb, IotDevice, IspId};
    use iotscope_net::store::BLOCK_RECORDS;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

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

    /// An hour is held whole between router and fold: its flows stay at
    /// 8 bytes (DESIGN.md §3d, "The hour buffer").
    #[test]
    fn routed_flow_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<RoutedFlow>(), 8);
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

    /// `n` unsorted flows from `seed`: a quarter from sources outside
    /// the inventory, all three protocols, any flag byte, ICMP types in
    /// and past 0..=255, and one flow in seven carrying zero packets.
    fn random_flows(db: &DeviceDb, seed: u64, n: usize) -> Vec<FlowTuple> {
        let ips: Vec<Ipv4Addr> = db.iter().map(|d| d.ip).collect();
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = state;
                let src_ip = if r.is_multiple_of(4) {
                    Ipv4Addr::from(0xc0a8_0000 | ((r >> 40) & 0xff) as u32)
                } else {
                    ips[(r >> 8) as usize % ips.len()]
                };
                FlowTuple {
                    src_ip,
                    dst_ip: Ipv4Addr::from(0x2c00_0000 | ((r >> 24) % 500) as u32),
                    src_port: (r >> 44) as u16 % 600,
                    dst_port: ((r >> 34) % 2_000) as u16,
                    protocol: TransportProtocol::ALL[(r % 3) as usize],
                    ttl: 0,
                    tcp_flags: TcpFlags::from_bits((r >> 52) as u8),
                    ip_len: 0,
                    packets: if r.is_multiple_of(7) {
                        0
                    } else {
                        (r >> 60) as u32 + 1
                    },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The column scan and the run fold agree with a per-record count
        /// of what they fold per device (realm, first interval, flows,
        /// packets per class) and of the unmatched and per-transport
        /// totals, at one and two threads, on unsorted hours — with
        /// `big`, one crossing the 4,096-record block boundary. The whole
        /// analysis is checked against the naive reference of the
        /// `iotscope-tests` crate; this keeps a fold failure local.
        #[test]
        fn prop_column_fold_matches_per_record_reference(
            seed: u64,
            hours in 1u32..4,
            big: bool,
        ) {
            let db = inventory();
            let traffic: Vec<HourTraffic> = (0..hours)
                .map(|h| {
                    let interval = 1 + 2 * h;
                    let n = if big && h == 0 {
                        BLOCK_RECORDS + 300
                    } else {
                        200 + (seed >> (8 * h)) as usize % 600
                    };
                    HourTraffic {
                        interval,
                        hour: UnixHour::new(2_000 + u64::from(interval)),
                        flows: random_flows(&db, seed ^ u64::from(h), n),
                    }
                })
                .collect();

            type Row = (Realm, u32, u64, [u64; NUM_CLASSES]);
            let inventory: HashMap<Ipv4Addr, (DeviceId, Realm)> =
                db.iter().map(|d| (d.ip, (d.id, d.realm()))).collect();
            let mut want: BTreeMap<DeviceId, Row> = BTreeMap::new();
            let mut unmatched = (0u64, 0u64);
            let mut protocol_packets = [[0u64; 3]; 2];
            for hour in &traffic {
                for flow in &hour.flows {
                    let pkts = u64::from(flow.packets);
                    let Some(&(id, realm)) = inventory.get(&flow.src_ip) else {
                        unmatched.0 += 1;
                        unmatched.1 += pkts;
                        continue;
                    };
                    let row = want
                        .entry(id)
                        .or_insert((realm, hour.interval, 0, [0; NUM_CLASSES]));
                    row.1 = row.1.min(hour.interval);
                    row.2 += 1;
                    row.3[class_idx(classify(flow))] += pkts;
                    let lane = TransportProtocol::ALL
                        .iter()
                        .position(|p| *p == flow.protocol)
                        .unwrap();
                    protocol_packets[realm_idx(realm)][lane] += pkts;
                }
            }

            for threads in [1, 2] {
                let analysis = AnalysisPipeline::new(&db, HOURS)
                    .run(&traffic, &AnalyzeOptions::new().threads(threads))
                    .unwrap()
                    .analysis;
                let got: BTreeMap<DeviceId, Row> = analysis
                    .devices
                    .rows()
                    .map(|o| {
                        let mut packets = [0; NUM_CLASSES];
                        for class in TrafficClass::ALL {
                            packets[class_idx(class)] = o.packets(class);
                        }
                        (o.device, (o.realm, o.first_interval, o.flows, packets))
                    })
                    .collect();
                prop_assert_eq!(&got, &want, "threads={}", threads);
                prop_assert_eq!(
                    (analysis.unmatched_flows, analysis.unmatched_packets),
                    unmatched
                );
                prop_assert_eq!(analysis.protocol_packets, protocol_packets);
            }
        }
    }

    /// Regression: a zero-packet backscatter flow followed by another
    /// from the same device listed the device twice, doubling its
    /// packets in the hour's backscatter total (the top victim was
    /// right). Checked sequentially, at two threads and streaming, with
    /// the two flows adjacent and apart.
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
            let parallel = AnalysisPipeline::new(&db, HOURS)
                .run(&traffic, &AnalyzeOptions::new().threads(2))
                .unwrap()
                .analysis;
            let mut streaming = StreamingAnalyzer::new(&db, HOURS, StreamConfig::default());
            streaming.push_hour(&traffic[0]);
            for (path, analysis) in [
                ("sequential", sequential.finish()),
                ("parallel", parallel),
                ("streaming", streaming.snapshot()),
            ] {
                let slot = &analysis.backscatter_intervals[0];
                assert_eq!(slot.total, 5, "{path}");
                assert_eq!(slot.top_victim, Some((DeviceId(0), 5)), "{path}");
            }
        }
    }

    /// `hours` hours of `random_flows` at intervals 1..=hours, from
    /// `seed`.
    fn random_hours(db: &DeviceDb, seed: u64, hours: u32) -> Vec<HourTraffic> {
        (1..=hours)
            .map(|interval| HourTraffic {
                interval,
                hour: UnixHour::new(2_000 + u64::from(interval)),
                flows: random_flows(db, seed ^ u64::from(interval), 300),
            })
            .collect()
    }

    /// Fold the hours of `traffic` into one analyzer in the order of
    /// `order`, a permutation of the hour indices, routing hour `i` on
    /// router `i % routers` just before it is folded; every folded hour
    /// goes back to the router that routed it, whose next hour reuses
    /// its buffer.
    fn routed(db: &DeviceDb, traffic: &[HourTraffic], routers: usize, order: &[usize]) -> Analysis {
        let mut pool: Vec<Router> = (0..routers).map(|_| Router::new(db, HOURS)).collect();
        let mut an = Analyzer::new(db, HOURS);
        for &i in order {
            let router = &mut pool[i % routers];
            router.begin_hour(traffic[i].interval);
            router.on_flows(&traffic[i].flows);
            let hour = router.finish_hour();
            an.apply_routed(&hour);
            router.recycle(hour);
        }
        an.finish()
    }

    /// The sequential analysis of `traffic`.
    fn sequential(db: &DeviceDb, traffic: &[HourTraffic]) -> Analysis {
        let mut seq = Analyzer::new(db, HOURS);
        for h in traffic {
            seq.ingest_hour(h);
        }
        seq.finish()
    }

    #[test]
    fn sharded_matches_sequential_across_shapes() {
        let db = inventory();
        let traffic = random_hours(&db, 40, 6);
        let seq = sequential(&db, &traffic);
        let orders: [[usize; 6]; 3] = [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]];
        for routers in 1..=4 {
            for order in &orders {
                let par = routed(&db, &traffic, routers, order);
                assert_eq!(par, seq, "routers={routers} order={order:?}");
                assert_eq!(
                    par.devices.ids(),
                    seq.devices.ids(),
                    "finished table must be sorted: routers={routers} order={order:?}"
                );
            }
        }
    }

    #[test]
    fn port_table_is_the_same_via_routed_fold_and_one_pass() {
        let db = inventory();
        let traffic = random_hours(&db, 70, 6);
        let seq = sequential(&db, &traffic);
        // Two routers, hours folded last first: the fold meets ports in
        // another order than the sequential pass.
        let par = routed(&db, &traffic, 2, &[5, 4, 3, 2, 1, 0]);
        let ports = |a: &Analysis| a.udp_ports.rows().map(|r| r.port).collect::<Vec<_>>();
        assert!(seq.udp_ports.len() > 100, "{} ports", seq.udp_ports.len());
        assert!(ports(&seq).windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(par.udp_ports, seq.udp_ports);
        assert_eq!(ports(&par), ports(&seq), "row order");
        assert_eq!(par.scan_services, seq.scan_services);
    }

    #[test]
    fn abandoned_hour_leaves_no_distincts_or_batches() {
        // An hour abandoned mid-decode (no finish_hour) never leaves the
        // router: none of its flows are folded, and neither its per-hour
        // distincts nor its unmatched totals are committed.
        let db = inventory();
        let h1 = &random_hours(&db, 99, 1)[0];
        let mut router = Router::new(&db, HOURS);
        router.begin_hour(2);
        router.on_flows(&h1.flows);
        // …then route a clean hour.
        router.begin_hour(1);
        router.on_flows(&h1.flows);
        let routed = router.finish_hour();
        assert_eq!(routed.interval(), 1);
        let mut an = Analyzer::new(&db, HOURS);
        an.apply_routed(&routed);
        let got = an.finish();

        let seq = sequential(&db, std::slice::from_ref(h1));
        assert_eq!(got.devices, seq.devices, "abandoned flows never applied");
        assert_eq!(got.udp, seq.udp, "no distincts committed for hour 2");
        assert_eq!(got.tcp_scan, seq.tcp_scan);
        assert_eq!(got.backscatter_intervals, seq.backscatter_intervals);
        assert_eq!(got.udp[0].dst_ips[1], 0);
        assert!(seq.unmatched_flows > 0, "the hour carries noise");
        assert_eq!(got.unmatched_flows, seq.unmatched_flows);
        assert_eq!(got.unmatched_packets, seq.unmatched_packets);
    }
}
