//! The correlation + aggregation engine.
//!
//! [`Analyzer`] makes a single pass over hourly flowtuples, joining source
//! addresses against the IoT inventory (§III-B's correlation algorithm)
//! and accumulating every aggregate the paper's figures and tables need.
//! Every hour takes one path: a [`Router`] correlates and classifies it
//! into a [`RoutedHour`], and [`Analyzer::apply_routed`] folds it
//! ([`crate::fold`]). [`Analyzer::begin_hour`] is that path as a
//! [`FlowSink`], with a router of the analyzer's own. Hours may be
//! ingested in any order; every aggregate is a sum, a set union or an
//! order-free maximum, so one analyzer folding routed hours in whatever
//! order N routers finish them (DESIGN.md §3e) is exact, not
//! approximate.
//!
//! Per-device state lives in a columnar [`DeviceTable`] (one row per
//! correlated device, Table V's scanned groups among its columns),
//! Table IV in a [`PortTable`] (per-port device runs in one shared
//! arena), Table V's packets in a [`ServiceTable`], so the column fold
//! ([`crate::fold`], shared with the parallel pipeline and the daemon)
//! reaches every aggregate by array index. Derived queries (sorted
//! device lists, cohorts, totals) are served memoized through
//! [`Analysis::view`] — the one way to ask them.

use crate::classify::TrafficClass;
use crate::fold::{DeviceFold, HourPos, RoutedHour, Router};
pub use crate::table::{
    DeviceObservation, DeviceTable, PortRow, PortTable, ServiceKey, ServiceTable,
};
use crate::view::{AnalysisView, ViewCache};
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_net::ports::ScanService;
use iotscope_net::store::{ColumnBlock, FlowSink};
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

    /// Sort device rows by id and port rows by port, so a finished
    /// result iterates identically regardless of ingest order.
    pub(crate) fn normalize(&mut self) {
        self.devices.normalize();
        self.udp_ports.normalize();
        self.cache.reset();
    }

    /// The memoizing derived-query interface: sorted device lists,
    /// per-realm partitions, per-class cohorts and totals, each computed
    /// once and cached.
    pub fn view(&self) -> AnalysisView<'_> {
        AnalysisView::new(
            self.hours,
            &self.devices,
            self.protocol_packets,
            (self.unmatched_flows, self.unmatched_packets),
            &self.cache,
        )
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
    /// The front half for hours ingested through
    /// [`begin_hour`](Self::begin_hour) or pushed by a
    /// [`StreamingAnalyzer`](crate::stream::StreamingAnalyzer), built by
    /// the first of them (an analyzer fed only routed hours never needs
    /// it).
    router: Option<Router<'a>>,
    /// The hour's device-keyed scratch (device half).
    dev: DeviceFold,
    result: Analysis,
}

impl<'a> Analyzer<'a> {
    /// Create an analyzer over `db` for a window of `hours` intervals.
    pub fn new(db: &'a DeviceDb, hours: u32) -> Self {
        Analyzer {
            db,
            hours,
            metrics: None,
            router: None,
            dev: DeviceFold::new(db.len()),
            result: Analysis::empty(hours),
        }
    }

    /// Like [`new`](Self::new), but publishing per-class packet counters
    /// (`analysis.packets.<realm>.<class>`) and unmatched-traffic counters
    /// into `registry`. Counters are accumulated locally per hour and
    /// flushed with one atomic add each when the hour is folded, so the
    /// hot per-flow path pays nothing for instrumentation.
    pub fn with_metrics(db: &'a DeviceDb, hours: u32, registry: &Registry) -> Self {
        let mut a = Self::new(db, hours);
        a.metrics = Some(AnalyzerMetrics::register(registry));
        a
    }

    /// Ingest one hour of traffic: one
    /// [`begin_hour`](Self::begin_hour), the hour's records through
    /// [`FlowSink::on_flows`], one [`HourIngest::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the hour's interval is outside the window.
    pub fn ingest_hour(&mut self, hour: &HourTraffic) {
        let mut ingest = self.begin_hour(hour.interval);
        ingest.on_flows(&hour.flows);
        ingest.finish();
    }

    /// Start ingesting the hour at `interval`, flow slice by flow slice:
    /// the analyzer's router starts routing the hour. The returned
    /// [`HourIngest`] implements [`FlowSink`], so it plugs straight into
    /// [`decode_hour_visit`](iotscope_net::store::decode_hour_visit);
    /// [`HourIngest::finish`] folds the routed hour into the result.
    /// Until then nothing of the hour reaches the result, so dropping the
    /// ingest unfinished (after a mid-hour decode error) leaves no trace
    /// of the hour: no device rows, packets, unmatched totals or
    /// distincts.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn begin_hour(&mut self, interval: u32) -> HourIngest<'_, 'a> {
        self.router().begin_hour(interval);
        HourIngest { an: self }
    }

    /// The analyzer's own router, built on first use.
    pub(crate) fn router(&mut self) -> &mut Router<'a> {
        let (db, hours) = (self.db, self.hours);
        self.router.get_or_insert_with(|| Router::new(db, hours))
    }

    /// Fold one routed hour — the device half over its flows, then its
    /// destination distincts, unmatched totals and metric flush: the
    /// back half of the fold, for an hour routed by any
    /// [`Router`]. Hours may arrive in any order.
    ///
    /// # Panics
    ///
    /// Panics if the hour's interval is outside the window.
    pub fn apply_routed(&mut self, hour: &RoutedHour) {
        let at = HourPos::new(hour.interval(), self.hours);
        self.result.cache.reset();
        self.dev.clear();
        self.dev.fold(&mut self.result, at, &hour.runs, &hour.flows);
        self.dev.commit(&mut self.result, at.idx);
        hour.commit_hour_keyed(&mut self.result);
        self.flush_hour_metrics(hour.unmatched);
    }

    /// Publish the hour's per-class packets (the device fold's hour
    /// totals) and its `(flows, packets)` from unmatched sources.
    fn flush_hour_metrics(&self, unmatched: (u64, u64)) {
        let Some(m) = &self.metrics else {
            return;
        };
        for (r, row) in self.dev.hour_packets().iter().enumerate() {
            for (c, &pkts) in row.iter().enumerate() {
                if pkts > 0 {
                    m.packets[r][c].add(pkts);
                }
            }
        }
        m.unmatched_flows.add(unmatched.0);
        m.unmatched_packets.add(unmatched.1);
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
/// slices ([`FlowSink::on_flows`]: any slicing folds identically), which
/// go to the analyzer's router, then [`finish`](Self::finish) to fold the
/// hour.
#[derive(Debug)]
pub struct HourIngest<'h, 'a> {
    an: &'h mut Analyzer<'a>,
}

impl HourIngest<'_, '_> {
    /// Fold the hour: take it from the router, fold it
    /// ([`Analyzer::apply_routed`]) and hand its buffers back to the
    /// router for the next hour.
    pub fn finish(self) {
        let an = self.an;
        let hour = an.router().finish_hour();
        an.apply_routed(&hour);
        an.router().recycle(hour);
    }
}

impl FlowSink for HourIngest<'_, '_> {
    /// Route the block: the analyzer's router correlates and classifies
    /// it into the hour.
    fn visit_block(&mut self, block: &ColumnBlock) {
        self.an.router().visit_block(block);
    }
}

/// Keep the dominant `(victim, packets)` pair; ties break toward the
/// smaller device id (determinism across accumulation orders).
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
        assert_eq!(a.view().compromised(), &[DeviceId(0)]);
    }

    #[test]
    fn dropped_hour_ingest_leaves_no_distincts() {
        // An hour whose ingest is dropped unfinished leaves nothing of
        // itself — no device rows, packets, unmatched totals, distincts
        // or counters — and does not poison a later hour.
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
        let registry = Registry::new();
        let mut dropped = Analyzer::with_metrics(&db, 4, &registry);
        {
            let mut ingest = dropped.begin_hour(1);
            ingest.on_flows(&mixed);
        }
        assert_eq!(
            dropped.peek(),
            &Analysis::empty(4),
            "dropped hour left nothing"
        );
        assert_eq!(dropped.peek().devices.len(), 0, "no device rows");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("analysis.packets.consumer.udp"), Some(0));
        assert_eq!(snap.counter("analysis.flows_unmatched"), Some(0));

        let mut redo = dropped.begin_hour(2);
        redo.on_flows(&mixed);
        redo.finish();
        let mut clean = Analyzer::new(&db, 4);
        clean.ingest_hour(&hour(2, mixed));
        let (redone, clean) = (dropped.finish(), clean.finish());
        assert_eq!(redone, clean, "the later hour folds as on a fresh analyzer");
        assert_eq!(redone.udp[0].devices[..2], [0, 1]);
        assert_eq!((redone.unmatched_flows, redone.unmatched_packets), (1, 1));
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
        let view = a.view();
        assert_eq!(view.dos_victims(), &[DeviceId(1)]);
        assert_eq!(view.tcp_scanners(), &[DeviceId(0)]);
        assert_eq!(view.udp_devices(), &[DeviceId(0)]);
        assert_eq!(view.total_packets(), 10);
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
        let telnet = ServiceKey::Named(ScanService::Telnet);
        assert_eq!(a.scan_services.get(telnet), [2, 0]);
        let ssh = ServiceKey::Named(ScanService::Ssh);
        assert_eq!(a.scan_services.get(ssh), [0, 1]);
        assert_eq!(a.scan_services.get(ServiceKey::Other), [0, 1]);
        // Each device's scanned groups, one bit per group slot.
        let groups = |id| a.devices.services_at(a.devices.row(id).unwrap());
        assert_eq!(groups(DeviceId(0)), 1 << telnet.slot());
        assert_eq!(
            groups(DeviceId(1)),
            1 << ssh.slot() | 1 << ScanService::OTHER_GROUP
        );
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
        let view = a.view();
        assert!(view.compromised().is_empty());
        assert_eq!(view.realm_counts(), (0, 0));
        assert_eq!(view.total_packets(), 0);
        assert!(view.dos_victims().is_empty());
        let curve = a.discovery_curve();
        assert_eq!(curve, vec![(0, 0, 0)]);
    }
}
