//! The correlation + aggregation engine.
//!
//! [`Analyzer`] makes a single pass over hourly flowtuples, joining source
//! addresses against the IoT inventory (§III-B's correlation algorithm)
//! and accumulating every aggregate the paper's figures and tables need.
//! Hours may be ingested in any order; every aggregate is a sum, a set
//! union or an order-free maximum, so partial analyses over disjoint
//! hours or disjoint devices add up to the same result — which is what
//! makes the sharded parallel analysis ([`crate::shard`]) exact rather
//! than approximate.
//!
//! Per-device state lives in a columnar [`DeviceTable`] (one row per
//! correlated device), Table IV in a [`PortTable`] (per-port device
//! runs in one shared arena), Table V in a [`ServiceTable`] of
//! [`DeviceSet`] bitmaps, so assembling partials is column
//! concatenation plus sorted run merges and word-wise ORs, and the
//! column fold (`fold.rs`, shared with the sharded pipeline) reaches
//! every aggregate by array index. Derived queries (sorted device lists,
//! cohorts, totals) are served memoized through [`Analysis::view`].

use crate::classify::TrafficClass;
use crate::fold::{classify_flows, DeviceFold, DstDistinct, HourPos, RoutedFlow};
pub use crate::table::{
    DeviceObservation, DeviceSet, DeviceTable, PortRow, PortTable, ServiceKey, ServiceStat,
    ServiceTable,
};
use crate::view::{AnalysisView, ViewCache};
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::store::{ColumnBlock, FlowSink, BLOCK_RECORDS};
use iotscope_obs::{Counter, Registry};
use iotscope_telescope::HourTraffic;

/// Metric-name suffixes for the five traffic classes, indexed by
/// [`class_idx`].
const CLASS_NAMES: [&str; 5] = ["tcp_scan", "icmp_scan", "backscatter", "udp", "other"];
/// Metric-name suffixes for the two realms, indexed by [`realm_idx`].
const REALM_NAMES: [&str; 2] = ["consumer", "cps"];

/// Analyzer-layer metric handles (`analysis.` prefix), all
/// [stable](iotscope_obs::Stability::Stable): packet totals are sums
/// over ingested hours and commute across workers.
#[derive(Debug, Clone)]
pub(crate) struct AnalyzerMetrics {
    /// `analysis.packets.<realm>.<class>`, indexed `[realm][class]`.
    pub(crate) packets: [[Counter; 5]; 2],
    /// `analysis.flows_unmatched`: flows from sources outside the inventory.
    pub(crate) unmatched_flows: Counter,
    /// `analysis.packets_unmatched`: packets from unmatched sources.
    pub(crate) unmatched_packets: Counter,
}

impl AnalyzerMetrics {
    pub(crate) fn register(registry: &Registry) -> Self {
        AnalyzerMetrics {
            packets: std::array::from_fn(|r| {
                std::array::from_fn(|c| {
                    registry.counter(&format!(
                        "analysis.packets.{}.{}",
                        REALM_NAMES[r], CLASS_NAMES[c]
                    ))
                })
            }),
            unmatched_flows: registry.counter("analysis.flows_unmatched"),
            unmatched_packets: registry.counter("analysis.packets_unmatched"),
        }
    }
}

/// The Fig 10 service set: the five most-scanned protocol groups — the
/// first five of [`ScanService::ALL`], so a Table V slot below 5 is
/// also the Fig 10 column.
pub const TOP5_SERVICES: [ScanService; 5] = [
    ScanService::Telnet,
    ScanService::Http,
    ScanService::Ssh,
    ScanService::BackroomNet,
    ScanService::Cwmp,
];

/// Dense index for a realm.
#[inline]
pub fn realm_idx(realm: Realm) -> usize {
    match realm {
        Realm::Consumer => 0,
        Realm::Cps => 1,
    }
}

/// Dense index for a traffic class.
#[inline]
pub fn class_idx(class: TrafficClass) -> usize {
    match class {
        TrafficClass::TcpScan => 0,
        TrafficClass::IcmpScan => 1,
        TrafficClass::Backscatter => 2,
        TrafficClass::Udp => 3,
        TrafficClass::Other => 4,
    }
}

/// Hourly `(packets, distinct dst IPs, distinct dst ports, active devices)`
/// series for one realm and one traffic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealmSeries {
    /// Packets per interval.
    pub packets: Vec<u64>,
    /// Distinct destination addresses per interval.
    pub dst_ips: Vec<u64>,
    /// Distinct destination ports per interval.
    pub dst_ports: Vec<u64>,
    /// Distinct emitting devices per interval.
    pub devices: Vec<u64>,
}

impl RealmSeries {
    pub(crate) fn new(hours: usize) -> Self {
        RealmSeries {
            packets: vec![0; hours],
            dst_ips: vec![0; hours],
            dst_ports: vec![0; hours],
            devices: vec![0; hours],
        }
    }

    fn add(&mut self, o: &RealmSeries) {
        add_columns(&mut self.packets, &o.packets);
        add_columns(&mut self.dst_ips, &o.dst_ips);
        add_columns(&mut self.dst_ports, &o.dst_ports);
        add_columns(&mut self.devices, &o.devices);
    }
}

fn add_columns(cur: &mut [u64], add: &[u64]) {
    for (c, a) in cur.iter_mut().zip(add) {
        *c += a;
    }
}

/// Per-interval backscatter attribution (who dominated a DoS episode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackscatterInterval {
    /// Total backscatter packets in the interval.
    pub total: u64,
    /// The victim emitting the most backscatter and its packet count.
    pub top_victim: Option<(DeviceId, u64)>,
}

/// The complete aggregation result.
///
/// Equality is structural on the aggregates and insensitive to row order
/// in [`devices`](Self::devices) and to which [view](Self::view) queries
/// have been memoized — the sequential-vs-parallel determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Window length in hours.
    pub hours: u32,
    /// Columnar per-device observations (one row per correlated device;
    /// sorted by id once [`Analyzer::finish`] has run).
    pub devices: DeviceTable,
    /// Packets per `[realm][transport]` with transports ordered
    /// `[ICMP, TCP, UDP]` (Fig 4).
    pub protocol_packets: [[u64; 3]; 2],
    /// Hourly UDP series per realm (Fig 5).
    pub udp: [RealmSeries; 2],
    /// Hourly TCP-scan series per realm (Fig 9).
    pub tcp_scan: [RealmSeries; 2],
    /// Hourly backscatter packets per realm (Fig 7).
    pub backscatter_hourly: [Vec<u64>; 2],
    /// Per-interval backscatter attribution (§IV-B1).
    pub backscatter_intervals: Vec<BackscatterInterval>,
    /// Table V statistics per service group.
    pub scan_services: ServiceTable,
    /// Hourly scan packets for the five Fig 10 services.
    pub top5_series: Vec<[u64; 5]>,
    /// Table IV statistics per UDP destination port (rows ascending by
    /// port once [`Analyzer::finish`] has run).
    pub udp_ports: PortTable,
    /// Flows from sources not in the inventory (noise filtered out by
    /// correlation).
    pub unmatched_flows: u64,
    /// Packets from unmatched sources.
    pub unmatched_packets: u64,
    /// Memoized derived-query results (see [`view`](Self::view)); never
    /// part of equality, cloned cold.
    pub(crate) cache: ViewCache,
}

impl Analysis {
    /// The all-zero analysis of a window of `hours` intervals.
    pub(crate) fn empty(hours: u32) -> Self {
        let h = hours as usize;
        Analysis {
            hours,
            devices: DeviceTable::new(),
            protocol_packets: [[0; 3]; 2],
            udp: [RealmSeries::new(h), RealmSeries::new(h)],
            tcp_scan: [RealmSeries::new(h), RealmSeries::new(h)],
            backscatter_hourly: [vec![0; h], vec![0; h]],
            backscatter_intervals: vec![BackscatterInterval::default(); h],
            scan_services: ServiceTable::default(),
            top5_series: vec![[0; 5]; h],
            udp_ports: PortTable::new(),
            unmatched_flows: 0,
            unmatched_packets: 0,
            cache: ViewCache::default(),
        }
    }

    /// Add `o`, a partial analysis of the same window built over
    /// observations disjoint from this one's — other hours with no
    /// device rows (a router partial) or other devices of the same
    /// hours (a shard partial), so no device is in both tables: every
    /// aggregate is a sum, a set union or an order-free maximum, and
    /// device rows concatenate ([`DeviceTable::concat_from`]).
    ///
    /// # Panics
    ///
    /// Panics if the window lengths differ.
    pub(crate) fn absorb(&mut self, o: Analysis) {
        assert_eq!(self.hours, o.hours, "mismatched windows");
        self.cache.reset();
        self.devices.concat_from(o.devices);
        for r in 0..2 {
            for (cur, add) in self.protocol_packets[r]
                .iter_mut()
                .zip(o.protocol_packets[r])
            {
                *cur += add;
            }
            self.udp[r].add(&o.udp[r]);
            self.tcp_scan[r].add(&o.tcp_scan[r]);
            add_columns(&mut self.backscatter_hourly[r], &o.backscatter_hourly[r]);
        }
        for (cur, slot) in self
            .backscatter_intervals
            .iter_mut()
            .zip(o.backscatter_intervals)
        {
            cur.total += slot.total;
            merge_top_victim(&mut cur.top_victim, slot.top_victim);
        }
        self.scan_services.merge_from(o.scan_services);
        for (cur, row) in self.top5_series.iter_mut().zip(o.top5_series) {
            for (c, v) in cur.iter_mut().zip(row) {
                *c += v;
            }
        }
        self.udp_ports.merge_from(o.udp_ports);
        self.unmatched_flows += o.unmatched_flows;
        self.unmatched_packets += o.unmatched_packets;
    }

    /// Sort device rows by id and port rows by port, so a finished
    /// result iterates identically regardless of ingest/merge order.
    pub(crate) fn normalize(&mut self) {
        self.devices.normalize();
        self.udp_ports.normalize();
        self.cache.reset();
    }

    /// The memoizing derived-query interface: sorted device lists,
    /// per-realm partitions, per-class cohorts and totals, each computed
    /// once and cached.
    pub fn view(&self) -> AnalysisView<'_> {
        AnalysisView::new(self)
    }

    /// Drop every memoized view result. Only needed if you mutate the
    /// public aggregate fields directly after having used
    /// [`view`](Self::view); [`Analyzer`] invalidates automatically.
    pub fn invalidate_views(&mut self) {
        self.cache.reset();
    }

    /// Number of correlated (compromised) devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// All correlated (compromised) devices, sorted by id.
    ///
    /// Thin shim over [`view().compromised()`](AnalysisView::compromised);
    /// prefer the view to avoid the copy.
    pub fn compromised_devices(&self) -> Vec<DeviceId> {
        self.view().compromised().to_vec()
    }

    /// Count of correlated devices per realm `(consumer, cps)`.
    pub fn compromised_counts(&self) -> (usize, usize) {
        self.view().realm_counts()
    }

    /// Total packets attributed to correlated devices.
    pub fn total_packets(&self) -> u64 {
        self.view().total_packets()
    }

    /// Devices that emitted any backscatter — the inferred DoS victims.
    ///
    /// Thin shim over [`view().dos_victims()`](AnalysisView::dos_victims);
    /// prefer the view to avoid the copy.
    pub fn dos_victims(&self) -> Vec<DeviceId> {
        self.view().dos_victims().to_vec()
    }

    /// Devices that emitted TCP scanning traffic.
    ///
    /// Thin shim over [`view().tcp_scanners()`](AnalysisView::tcp_scanners);
    /// prefer the view to avoid the copy.
    pub fn tcp_scanners(&self) -> Vec<DeviceId> {
        self.view().tcp_scanners().to_vec()
    }

    /// Devices that emitted UDP traffic.
    ///
    /// Thin shim over [`view().udp_devices()`](AnalysisView::udp_devices);
    /// prefer the view to avoid the copy.
    pub fn udp_devices(&self) -> Vec<DeviceId> {
        self.view().udp_devices().to_vec()
    }

    /// Cumulative number of devices discovered by the end of each day
    /// (Fig 2), overall and per realm: `(all, consumer, cps)` per day.
    pub fn discovery_curve(&self) -> Vec<(usize, usize, usize)> {
        let num_days = self.hours.div_ceil(24) as usize;
        let mut per_day = vec![(0usize, 0usize, 0usize); num_days];
        for o in self.devices.rows() {
            let day = ((o.first_interval - 1) / 24) as usize;
            let slot = &mut per_day[day.min(num_days - 1)];
            slot.0 += 1;
            match o.realm {
                Realm::Consumer => slot.1 += 1,
                Realm::Cps => slot.2 += 1,
            }
        }
        // Make cumulative.
        for i in 1..per_day.len() {
            per_day[i].0 += per_day[i - 1].0;
            per_day[i].1 += per_day[i - 1].1;
            per_day[i].2 += per_day[i - 1].2;
        }
        per_day
    }

    /// Daily packet totals for one realm (`None` = both), summed from the
    /// hourly series over complete 24-hour blocks — §IV's "daily mean =
    /// 23.5M and σ = 0.92M packets" statistics.
    pub fn daily_packet_totals(&self, realm: Option<Realm>) -> Vec<u64> {
        let realms: &[usize] = match realm {
            None => &[0, 1],
            Some(Realm::Consumer) => &[0],
            Some(Realm::Cps) => &[1],
        };
        let num_days = self.hours.div_ceil(24) as usize;
        let mut days = vec![0u64; num_days];
        for i in 0..self.hours as usize {
            let day = i / 24;
            for r in realms {
                days[day] += self.tcp_scan[*r].packets[i]
                    + self.udp[*r].packets[i]
                    + self.backscatter_hourly[*r][i];
            }
        }
        days
    }

    /// Publish the analyzer-layer stable counters
    /// (`analysis.packets.<realm>.<class>`, `analysis.flows_unmatched`,
    /// `analysis.packets_unmatched`) for a finished analysis into
    /// `registry`.
    ///
    /// The per-`[realm][class]` packet totals are recovered from the
    /// device table columns, which accumulate exactly what the per-hour
    /// metric flush of [`HourIngest::finish`] adds up — so the sharded
    /// pipeline, which has no per-worker `Analyzer`, publishes values
    /// bit-identical to the sequential path.
    pub(crate) fn publish_packet_counters(&self, registry: &Registry) {
        let m = AnalyzerMetrics::register(registry);
        let mut totals = [[0u64; 5]; 2];
        for o in self.devices.rows() {
            let r = realm_idx(o.realm);
            for (c, &pkts) in o.packets_by_class.iter().enumerate() {
                totals[r][c] += pkts;
            }
        }
        for (r, row) in totals.iter().enumerate() {
            for (c, &pkts) in row.iter().enumerate() {
                if pkts > 0 {
                    m.packets[r][c].add(pkts);
                }
            }
        }
        m.unmatched_flows.add(self.unmatched_flows);
        m.unmatched_packets.add(self.unmatched_packets);
    }

    /// Average number of distinct devices active per day `(all, consumer)`.
    pub fn daily_active_devices(&self) -> (f64, f64) {
        let num_days = self.hours.div_ceil(24).max(1);
        let mut all = 0u64;
        let mut consumer = 0u64;
        for o in self.devices.rows() {
            let days = o.days_active.count_ones() as u64;
            all += days;
            if o.realm == Realm::Consumer {
                consumer += days;
            }
        }
        (
            all as f64 / f64::from(num_days),
            consumer as f64 / f64::from(num_days),
        )
    }
}

/// Single-pass aggregator. Feed it hours, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct Analyzer<'a> {
    db: &'a DeviceDb,
    hours: u32,
    metrics: Option<AnalyzerMetrics>,
    /// The hour's destination-keyed distinct state (front half).
    dst: DstDistinct,
    /// The hour's device-keyed scratch (device half).
    dev: DeviceFold,
    /// Per-block scratch, capacity reused across blocks: the block's
    /// merge-join correlation column and its routed flows, and the
    /// columns in-memory records are copied into.
    corr: Vec<Option<(u32, Realm)>>,
    routed: Vec<RoutedFlow>,
    block: ColumnBlock,
    result: Analysis,
}

impl<'a> Analyzer<'a> {
    /// Create an analyzer over `db` for a window of `hours` intervals.
    pub fn new(db: &'a DeviceDb, hours: u32) -> Self {
        Self::resume(db, Analysis::empty(hours))
    }

    /// Like [`new`](Self::new), but publishing per-class packet counters
    /// (`analysis.packets.<realm>.<class>`) and unmatched-traffic counters
    /// into `registry`. Counters are accumulated locally per hour and
    /// flushed with one atomic add each at the end of
    /// [`ingest_hour`](Self::ingest_hour), so the hot per-flow path pays
    /// nothing for instrumentation.
    pub fn with_metrics(db: &'a DeviceDb, hours: u32, registry: &Registry) -> Self {
        let mut a = Self::new(db, hours);
        a.metrics = Some(AnalyzerMetrics::register(registry));
        a
    }

    /// Rehydrate an analyzer from a previously finished [`Analysis`] so
    /// more hours can be ingested into it (incremental re-aggregation,
    /// checkpoint/resume).
    pub fn resume(db: &'a DeviceDb, analysis: Analysis) -> Self {
        Analyzer {
            db,
            hours: analysis.hours,
            metrics: None,
            dst: DstDistinct::new(),
            dev: DeviceFold::new(0..db.len() as u32),
            corr: Vec::new(),
            routed: Vec::new(),
            block: ColumnBlock::default(),
            result: analysis,
        }
    }

    /// Ingest one hour of traffic.
    ///
    /// Thin wrapper over the block-streaming path: one
    /// [`begin_hour`](Self::begin_hour), one slice, one finish — so the
    /// materialized and streaming ingests share every line of per-flow
    /// code and are bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if the hour's interval is outside the window.
    pub fn ingest_hour(&mut self, hour: &HourTraffic) {
        let mut ingest = self.begin_hour(hour.interval);
        ingest.ingest(&hour.flows);
        ingest.finish();
    }

    /// Start ingesting the hour at `interval`, flow slice by flow slice —
    /// the receiving end of the fused decode→ingest path. The returned
    /// [`HourIngest`] implements
    /// [`FlowSink`], so it plugs straight
    /// into [`decode_hour_visit`](iotscope_net::store::decode_hour_visit);
    /// call [`HourIngest::finish`] to fold the hour's per-hour scratch
    /// (distinct counts, top backscatter victim, metric flush) into the
    /// result. Dropping it without finishing discards the hour's
    /// contribution to those per-hour aggregates — which is what a caller
    /// wants after a mid-hour decode error.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn begin_hour(&mut self, interval: u32) -> HourIngest<'_, 'a> {
        let at = HourPos::new(interval, self.hours);
        self.result.cache.reset();
        self.dst.clear();
        self.dev.clear();
        HourIngest {
            at,
            hour_unmatched: (0, 0),
            an: self,
        }
    }

    /// Inspect the aggregation state accumulated so far (used by the
    /// streaming analyzer to evaluate alerts after each hour). Device
    /// rows are in first-seen order until [`finish`](Self::finish)
    /// normalizes them.
    pub fn peek(&self) -> &Analysis {
        &self.result
    }

    /// Finish and return the aggregation result, with device rows
    /// normalized to id order and port rows to port order — so finished
    /// results are reproducible regardless of ingest order.
    pub fn finish(mut self) -> Analysis {
        self.result.normalize();
        self.result
    }
}

/// One hour's streaming ingest, produced by [`Analyzer::begin_hour`].
///
/// Feed it decoded blocks ([`FlowSink::visit_block`]) or in-order flow
/// slices (any slicing — per v3 block, per whole hour, per record —
/// folds identically) and then [`finish`](Self::finish) to commit the
/// hour's per-hour aggregates.
#[derive(Debug)]
pub struct HourIngest<'h, 'a> {
    an: &'h mut Analyzer<'a>,
    at: HourPos,
    /// Local metric accumulator, flushed once at finish so the hot
    /// path pays nothing for instrumentation (the per-class packets
    /// are the device fold's hour totals).
    hour_unmatched: (u64, u64),
}

impl HourIngest<'_, '_> {
    /// Fold one slice of the hour's flows: copied into columns
    /// [`BLOCK_RECORDS`] records at a time, each chunk folded like a
    /// decoded block.
    pub fn ingest(&mut self, flows: &[FlowTuple]) {
        let mut block = std::mem::take(&mut self.an.block);
        for chunk in flows.chunks(BLOCK_RECORDS) {
            block.fill(chunk);
            self.visit_block(&block);
        }
        self.an.block = block;
    }

    /// Commit the hour: fold the per-hour scratch (distinct dst-IP /
    /// port / device counts, dominant backscatter victim) into the
    /// result and flush the hour's metric accumulators.
    pub fn finish(self) {
        let an = self.an;
        an.dst.commit(&mut an.result, self.at.idx);
        an.dev.commit(&mut an.result, self.at.idx);

        if let Some(m) = &an.metrics {
            for (r, row) in an.dev.hour_packets().iter().enumerate() {
                for (c, &pkts) in row.iter().enumerate() {
                    if pkts > 0 {
                        m.packets[r][c].add(pkts);
                    }
                }
            }
            m.unmatched_flows.add(self.hour_unmatched.0);
            m.unmatched_packets.add(self.hour_unmatched.1);
        }
    }
}

impl FlowSink for HourIngest<'_, '_> {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.ingest(flows);
    }

    /// The one fold every ingest takes: correlate the block's `src_ip`
    /// column in one merge-join pass, scan the columns into routed
    /// flows (front half), then fold those one device run at a time
    /// (device half).
    fn visit_block(&mut self, block: &ColumnBlock) {
        let Analyzer {
            db,
            dst,
            dev,
            corr,
            routed,
            result,
            ..
        } = &mut *self.an;
        db.correlation_index()
            .correlate_sorted_block(block.src_ip(), corr);
        routed.clear();
        let (flows_unmatched, packets_unmatched) =
            classify_flows(block, corr, dst, |f| routed.push(f));
        dev.fold(result, self.at, routed);
        result.unmatched_flows += flows_unmatched;
        result.unmatched_packets += packets_unmatched;
        self.hour_unmatched.0 += flows_unmatched;
        self.hour_unmatched.1 += packets_unmatched;
    }
}

/// Keep the dominant `(victim, packets)` pair; ties break toward the
/// smaller device id (determinism across merge orders).
pub(crate) fn merge_top_victim(
    current: &mut Option<(DeviceId, u64)>,
    candidate: Option<(DeviceId, u64)>,
) {
    match (*current, candidate) {
        (None, t) => *current = t,
        (Some((cd, cp)), Some((d, p))) if p > cp || (p == cp && d < cd) => {
            *current = Some((d, p));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, IotDevice, IspId};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::{IcmpType, TcpFlags};
    use iotscope_net::time::UnixHour;
    use std::net::Ipv4Addr;

    fn db() -> DeviceDb {
        DeviceDb::from_devices([
            IotDevice {
                id: DeviceId(0),
                ip: Ipv4Addr::new(1, 0, 0, 1),
                profile: DeviceProfile::Consumer(ConsumerKind::Router),
                country: CountryCode::from_code("RU").unwrap(),
                isp: IspId(0),
            },
            IotDevice {
                id: DeviceId(0),
                ip: Ipv4Addr::new(2, 0, 0, 1),
                profile: DeviceProfile::Cps(vec![CpsService::EthernetIp]),
                country: CountryCode::from_code("CN").unwrap(),
                isp: IspId(1),
            },
        ])
    }

    fn hour(interval: u32, flows: Vec<FlowTuple>) -> HourTraffic {
        HourTraffic {
            interval,
            hour: UnixHour::new(1000 + u64::from(interval)),
            flows,
        }
    }

    fn syn(src: [u8; 4], dport: u16) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 1),
            40000,
            dport,
            TcpFlags::SYN,
        )
    }

    #[test]
    fn correlation_matches_only_inventory_sources() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&hour(
            1,
            vec![
                syn([1, 0, 0, 1], 23),
                syn([9, 9, 9, 9], 23), // noise, not in db
            ],
        ));
        let a = an.finish();
        assert_eq!(a.device_count(), 1);
        assert_eq!(a.unmatched_flows, 1);
        assert_eq!(a.unmatched_packets, 1);
        assert_eq!(a.compromised_devices(), vec![DeviceId(0)]);
    }

    #[test]
    fn sliced_ingest_matches_whole_hour_ingest() {
        // begin_hour + arbitrary slicing must equal ingest_hour exactly —
        // the contract the fused block-streaming path rides on.
        let db = db();
        let mixed = vec![
            syn([1, 0, 0, 1], 23),
            syn([9, 9, 9, 9], 23), // unmatched
            FlowTuple::udp(
                Ipv4Addr::new(1, 0, 0, 1),
                Ipv4Addr::new(44, 1, 1, 2),
                5000,
                37547,
            )
            .with_packets(3),
            FlowTuple::tcp(
                Ipv4Addr::new(2, 0, 0, 1),
                Ipv4Addr::new(44, 1, 1, 1),
                44818,
                50000,
                TcpFlags::SYN | TcpFlags::ACK,
            )
            .with_packets(5),
            syn([2, 0, 0, 1], 2323),
        ];
        let mut whole = Analyzer::new(&db, 4);
        whole.ingest_hour(&hour(2, mixed.clone()));
        let whole = whole.finish();
        for chunk in [1, 2, mixed.len()] {
            let mut sliced = Analyzer::new(&db, 4);
            let mut ingest = sliced.begin_hour(2);
            for part in mixed.chunks(chunk) {
                ingest.ingest(part);
            }
            ingest.finish();
            assert_eq!(sliced.finish(), whole, "chunk={chunk}");
        }
        // An unfinished hour contributes flows but no per-hour distinct
        // counts; dropping the ingest must not poison a later hour.
        let mut dropped = Analyzer::new(&db, 4);
        {
            let mut ingest = dropped.begin_hour(1);
            ingest.ingest(&mixed);
        }
        let mut redo = dropped.begin_hour(2);
        redo.ingest(&mixed);
        redo.finish();
        let redone = dropped.finish();
        assert_eq!(
            redone.udp[0].devices[0], 0,
            "dropped hour left no distincts"
        );
        assert_eq!(redone.udp[0].devices[1], 1);
    }

    #[test]
    fn per_class_accounting() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        let synack = FlowTuple::tcp(
            Ipv4Addr::new(2, 0, 0, 1),
            Ipv4Addr::new(44, 1, 1, 1),
            44818,
            50000,
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .with_packets(5);
        let udp = FlowTuple::udp(
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(44, 1, 1, 2),
            5000,
            37547,
        )
        .with_packets(3);
        let ping = FlowTuple::icmp(
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(44, 1, 1, 3),
            IcmpType::EchoRequest,
        );
        an.ingest_hour(&hour(2, vec![syn([1, 0, 0, 1], 23), synack, udp, ping]));
        let a = an.finish();
        let consumer = a.devices.get(DeviceId(0)).unwrap();
        assert_eq!(consumer.packets(TrafficClass::TcpScan), 1);
        assert_eq!(consumer.packets(TrafficClass::Udp), 3);
        assert_eq!(consumer.packets(TrafficClass::IcmpScan), 1);
        assert_eq!(consumer.scan_packets(), 2);
        assert_eq!(consumer.total_packets(), 5);
        let cps = a.devices.get(DeviceId(1)).unwrap();
        assert_eq!(cps.packets(TrafficClass::Backscatter), 5);
        assert_eq!(a.dos_victims(), vec![DeviceId(1)]);
        assert_eq!(a.tcp_scanners(), vec![DeviceId(0)]);
        assert_eq!(a.udp_devices(), vec![DeviceId(0)]);
        assert_eq!(a.total_packets(), 10);
        // Fig 4 accounting: consumer r=0: icmp 1, tcp 1, udp 3.
        assert_eq!(a.protocol_packets[0], [1, 1, 3]);
        assert_eq!(a.protocol_packets[1], [0, 5, 0]);
    }

    #[test]
    fn hourly_series_and_distinct_counts() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&hour(
            3,
            vec![
                syn([1, 0, 0, 1], 23),
                syn([1, 0, 0, 1], 23),
                syn([1, 0, 0, 1], 80),
            ],
        ));
        let a = an.finish();
        let s = &a.tcp_scan[0];
        assert_eq!(s.packets[2], 3);
        assert_eq!(s.dst_ports[2], 2); // 23, 80
        assert_eq!(s.devices[2], 1);
        assert_eq!(s.packets[0], 0);
    }

    #[test]
    fn service_table_accumulates() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&hour(
            1,
            vec![
                syn([1, 0, 0, 1], 23),
                syn([1, 0, 0, 1], 2323),
                syn([2, 0, 0, 1], 22),
                syn([2, 0, 0, 1], 12345), // unnamed port → Other
            ],
        ));
        let a = an.finish();
        let telnet = a.scan_services.get(ServiceKey::Named(ScanService::Telnet));
        assert_eq!(telnet.packets, [2, 0]);
        assert_eq!(telnet.devices[0].len(), 1);
        let ssh = a.scan_services.get(ServiceKey::Named(ScanService::Ssh));
        assert_eq!(ssh.packets, [0, 1]);
        let other = a.scan_services.get(ServiceKey::Other);
        assert_eq!(other.packets, [0, 1]);
        // Only scanned groups are listed, in Table V order, tail last.
        let listed: Vec<ServiceKey> = a.scan_services.iter().map(|(k, _)| k).collect();
        assert_eq!(
            listed,
            [
                ServiceKey::Named(ScanService::Telnet),
                ServiceKey::Named(ScanService::Ssh),
                ServiceKey::Other
            ]
        );
        // Fig 10 series: Telnet idx 0, SSH idx 2.
        assert_eq!(a.top5_series[0][0], 2);
        assert_eq!(a.top5_series[0][2], 1);
    }

    #[test]
    fn backscatter_attribution_tracks_dominant_victim() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        let bs = |src: [u8; 4], pkts: u32| {
            FlowTuple::tcp(
                Ipv4Addr::from(src),
                Ipv4Addr::new(44, 2, 2, 2),
                80,
                40000,
                TcpFlags::SYN | TcpFlags::ACK,
            )
            .with_packets(pkts)
        };
        an.ingest_hour(&hour(2, vec![bs([1, 0, 0, 1], 10), bs([2, 0, 0, 1], 90)]));
        let a = an.finish();
        let slot = &a.backscatter_intervals[1];
        assert_eq!(slot.total, 100);
        assert_eq!(slot.top_victim, Some((DeviceId(1), 90)));
        assert_eq!(a.backscatter_hourly[0][1], 10);
        assert_eq!(a.backscatter_hourly[1][1], 90);
    }

    #[test]
    fn discovery_curve_cumulates_by_day() {
        let db = db();
        let mut an = Analyzer::new(&db, 48);
        an.ingest_hour(&hour(2, vec![syn([1, 0, 0, 1], 23)]));
        an.ingest_hour(&hour(30, vec![syn([2, 0, 0, 1], 23)]));
        let a = an.finish();
        let curve = a.discovery_curve();
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0], (1, 1, 0));
        assert_eq!(curve[1], (2, 1, 1));
    }

    #[test]
    fn first_interval_takes_minimum_across_order() {
        let db = db();
        let mut an = Analyzer::new(&db, 48);
        an.ingest_hour(&hour(30, vec![syn([1, 0, 0, 1], 23)]));
        an.ingest_hour(&hour(2, vec![syn([1, 0, 0, 1], 23)]));
        let a = an.finish();
        assert_eq!(a.devices.get(DeviceId(0)).unwrap().first_interval, 2);
        let (avg_all, avg_consumer) = a.daily_active_devices();
        assert!((avg_all - 1.0).abs() < 1e-9);
        assert!((avg_consumer - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resume_continues_aggregation() {
        let db = db();
        let h1 = hour(1, vec![syn([1, 0, 0, 1], 23)]);
        let h2 = hour(2, vec![syn([1, 0, 0, 1], 80), syn([2, 0, 0, 1], 22)]);
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&h1);
        let checkpoint = an.finish();
        let mut resumed = Analyzer::resume(&db, checkpoint);
        resumed.ingest_hour(&h2);
        let a = resumed.finish();

        let mut seq = Analyzer::new(&db, 4);
        seq.ingest_hour(&h1);
        seq.ingest_hour(&h2);
        assert_eq!(a, seq.finish());
    }

    #[test]
    fn views_are_invalidated_by_ingest() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&hour(1, vec![syn([1, 0, 0, 1], 23)]));
        // Populate the memoized views from a peek snapshot…
        assert_eq!(an.peek().view().compromised(), &[DeviceId(0)]);
        assert_eq!(an.peek().view().realm_counts(), (1, 0));
        // …then ingest more; the views must reflect the new state.
        an.ingest_hour(&hour(2, vec![syn([2, 0, 0, 1], 22)]));
        assert_eq!(an.peek().view().compromised(), &[DeviceId(0), DeviceId(1)]);
        assert_eq!(an.peek().view().realm_counts(), (1, 1));
        let a = an.finish();
        assert_eq!(a.view().tcp_scanners(), &[DeviceId(0), DeviceId(1)]);
        // Clones start with a cold cache but equal analyses stay equal.
        let cloned = a.clone();
        assert_eq!(cloned, a);
        assert_eq!(cloned.view().compromised(), a.view().compromised());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_window_hour_panics() {
        let db = db();
        let mut an = Analyzer::new(&db, 4);
        an.ingest_hour(&hour(5, vec![]));
    }

    #[test]
    fn daily_packet_totals_sum_series_by_day() {
        let db = db();
        let mut an = Analyzer::new(&db, 48);
        an.ingest_hour(&hour(2, vec![syn([1, 0, 0, 1], 23).with_packets(5)]));
        an.ingest_hour(&hour(
            30,
            vec![
                syn([2, 0, 0, 1], 22).with_packets(7),
                FlowTuple::udp(
                    Ipv4Addr::new(1, 0, 0, 1),
                    Ipv4Addr::new(44, 0, 0, 3),
                    1,
                    137,
                )
                .with_packets(3),
            ],
        ));
        let a = an.finish();
        assert_eq!(a.daily_packet_totals(None), vec![5, 10]);
        assert_eq!(a.daily_packet_totals(Some(Realm::Consumer)), vec![5, 3]);
        assert_eq!(a.daily_packet_totals(Some(Realm::Cps)), vec![0, 7]);
    }

    #[test]
    fn with_metrics_publishes_class_and_unmatched_counters() {
        let db = db();
        let registry = Registry::new();
        let mut an = Analyzer::with_metrics(&db, 4, &registry);
        an.ingest_hour(&hour(
            1,
            vec![
                syn([1, 0, 0, 1], 23).with_packets(4),
                syn([9, 9, 9, 9], 23).with_packets(2), // unmatched noise
                FlowTuple::udp(
                    Ipv4Addr::new(2, 0, 0, 1),
                    Ipv4Addr::new(44, 0, 0, 9),
                    1,
                    137,
                )
                .with_packets(7),
            ],
        ));
        let a = an.finish();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("analysis.packets.consumer.tcp_scan"), Some(4));
        assert_eq!(snap.counter("analysis.packets.cps.udp"), Some(7));
        assert_eq!(snap.counter("analysis.packets.consumer.udp"), Some(0));
        assert_eq!(snap.counter("analysis.flows_unmatched"), Some(1));
        assert_eq!(snap.counter("analysis.packets_unmatched"), Some(2));
        // The registry view agrees with the analysis itself.
        assert_eq!(a.unmatched_packets, 2);
    }

    #[test]
    fn empty_analysis_is_sane() {
        let db = db();
        let a = Analyzer::new(&db, 4).finish();
        assert!(a.compromised_devices().is_empty());
        assert_eq!(a.compromised_counts(), (0, 0));
        assert_eq!(a.total_packets(), 0);
        assert!(a.dos_victims().is_empty());
        let curve = a.discovery_curve();
        assert_eq!(curve, vec![(0, 0, 0)]);
    }
}
