//! The naive reference analyzer: the paper's two inference rules —
//! join each darknet source address against the inventory (§III-B),
//! classify its flows (§IV) — stated once, per record, with plain maps
//! and sets.
//!
//! Every optimised ingest path (memory- or store-fed, per-hour or
//! segmented, sequential, sharded or streamed, quarantining or strict)
//! is compared to [`analyze`] in `tests/oracle.rs`, through the
//! projection `Naive::from(&Analysis)`, and the behavior fold behind
//! the §VI/§VII follow-ups to [`behavior`]. Neither reference shares
//! machinery with the code it checks: no column blocks, correlation
//! index, aggregate tables or distinct sets — only [`classify()`], the
//! per-flow rule itself. The projection reads an [`Analysis`] through
//! its public getters alone.

use iotscope_core::analysis::{RealmSeries, ServiceKey};
use iotscope_core::behavior::BehaviorVector;
use iotscope_core::scan::protocol_table;
use iotscope_core::{classify, Analysis, TrafficClass};
use iotscope_devicedb::device::DeviceProfile;
use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceDb, DeviceId, IotDevice};
use iotscope_devicedb::{IspId, Realm};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::protocol::{TcpFlags, TransportProtocol};
use iotscope_net::store::BLOCK_RECORDS;
use iotscope_net::time::UnixHour;
use iotscope_telescope::HourTraffic;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// A Table V service group: a named group, or `None` for the tail of
/// unnamed ports.
pub type Group = Option<ScanService>;

/// The five Fig 10 services, in the column order of
/// [`Naive::top5_series`].
const FIG_10: [ScanService; 5] = [
    ScanService::Telnet,
    ScanService::Http,
    ScanService::Ssh,
    ScanService::BackroomNet,
    ScanService::Cwmp,
];

/// Everything observed about one correlated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// The realm the inventory gives it.
    pub realm: Realm,
    /// The smallest interval it was seen in.
    pub first_interval: u32,
    /// Flow records from it.
    pub flows: u64,
    /// Packets per class, in [`TrafficClass::ALL`] order.
    pub packets: [u64; 5],
    /// Bit `d` set when it was seen on day `d` of the window (days past
    /// 63 share bit 63).
    pub days_active: u64,
}

/// One realm's hourly series for one traffic class, indexed by
/// `interval - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Packets.
    pub packets: Vec<u64>,
    /// Distinct destination addresses.
    pub dst_ips: Vec<u64>,
    /// Distinct destination ports.
    pub dst_ports: Vec<u64>,
    /// Distinct emitting devices.
    pub devices: Vec<u64>,
}

impl Series {
    fn new(hours: usize) -> Self {
        Series {
            packets: vec![0; hours],
            dst_ips: vec![0; hours],
            dst_ports: vec![0; hours],
            devices: vec![0; hours],
        }
    }
}

/// One Table V row: packets and scanning devices per realm
/// (`[consumer, cps]`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// TCP-scan packets to the group.
    pub packets: [u64; 2],
    /// Devices that scanned the group.
    pub devices: [usize; 2],
}

/// A whole analysis as plain values; realm-indexed arrays are
/// `[consumer, cps]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Naive {
    /// Window length in hours.
    pub hours: u32,
    /// Every correlated device.
    pub devices: BTreeMap<DeviceId, Device>,
    /// Packets per realm and transport, transports `[ICMP, TCP, UDP]`.
    pub protocol_packets: [[u64; 3]; 2],
    /// The UDP series per realm.
    pub udp: [Series; 2],
    /// The TCP-scan series per realm.
    pub tcp_scan: [Series; 2],
    /// Backscatter packets per realm and hour.
    pub backscatter_hourly: [Vec<u64>; 2],
    /// Per hour: all backscatter packets, and the top victim with its
    /// packets.
    pub backscatter_intervals: Vec<(u64, Option<(DeviceId, u64)>)>,
    /// Table V: every group some TCP-scan flow hit.
    pub table_v: BTreeMap<Group, ServiceStats>,
    /// Hourly TCP-scan packets to the Fig 10 services.
    pub top5_series: Vec<[u64; 5]>,
    /// Table IV: packets and sending devices per UDP destination port.
    pub udp_ports: BTreeMap<u16, (u64, BTreeSet<DeviceId>)>,
    /// Flows from sources outside the inventory.
    pub unmatched_flows: u64,
    /// Their packets.
    pub unmatched_packets: u64,
}

fn realm_index(realm: Realm) -> usize {
    match realm {
        Realm::Consumer => 0,
        Realm::Cps => 1,
    }
}

fn class_index(class: TrafficClass) -> usize {
    TrafficClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("ALL lists every class")
}

/// The Fig 4 transport lane: ICMP 0, TCP 1, UDP 2.
fn transport_index(protocol: TransportProtocol) -> usize {
    match protocol {
        TransportProtocol::Icmp => 0,
        TransportProtocol::Tcp => 1,
        TransportProtocol::Udp => 2,
    }
}

/// The metric-name segment of a class.
fn class_name(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::TcpScan => "tcp_scan",
        TrafficClass::IcmpScan => "icmp_scan",
        TrafficClass::Backscatter => "backscatter",
        TrafficClass::Udp => "udp",
        TrafficClass::Other => "other",
    }
}

/// The hour's destination- and device-keyed distinct sets for one
/// class, per realm.
#[derive(Default)]
struct HourSets {
    ips: [BTreeSet<Ipv4Addr>; 2],
    ports: [BTreeSet<u16>; 2],
    devices: [BTreeSet<DeviceId>; 2],
}

impl HourSets {
    fn insert(&mut self, r: usize, flow: &FlowTuple, id: DeviceId) {
        self.ips[r].insert(flow.dst_ip);
        self.ports[r].insert(flow.dst_port);
        self.devices[r].insert(id);
    }

    fn commit(&self, series: &mut [Series; 2], i: usize) {
        for (r, s) in series.iter_mut().enumerate() {
            s.dst_ips[i] += self.ips[r].len() as u64;
            s.dst_ports[i] += self.ports[r].len() as u64;
            s.devices[i] += self.devices[r].len() as u64;
        }
    }
}

/// Analyze `traffic` over `db` in a window of `hours` intervals, one
/// record at a time.
///
/// # Panics
///
/// Panics if an hour's interval is outside `1..=hours` or appears twice.
pub fn analyze(db: &DeviceDb, hours: u32, traffic: &[HourTraffic]) -> Naive {
    let inventory: HashMap<Ipv4Addr, (DeviceId, Realm)> =
        db.iter().map(|d| (d.ip, (d.id, d.realm()))).collect();
    let h = hours as usize;
    let mut out = Naive {
        hours,
        devices: BTreeMap::new(),
        protocol_packets: [[0; 3]; 2],
        udp: [Series::new(h), Series::new(h)],
        tcp_scan: [Series::new(h), Series::new(h)],
        backscatter_hourly: [vec![0; h], vec![0; h]],
        backscatter_intervals: vec![(0, None); h],
        table_v: BTreeMap::new(),
        top5_series: vec![[0; 5]; h],
        udp_ports: BTreeMap::new(),
        unmatched_flows: 0,
        unmatched_packets: 0,
    };
    let mut scanners: BTreeMap<Group, [BTreeSet<DeviceId>; 2]> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for hour in traffic {
        assert!(
            (1..=hours).contains(&hour.interval) && seen.insert(hour.interval),
            "interval {} outside 1..={hours} or repeated",
            hour.interval
        );
        let i = hour.interval as usize - 1;
        let day = (hour.interval - 1) / 24;
        let (mut udp, mut scan) = (HourSets::default(), HourSets::default());
        let mut victims: BTreeMap<DeviceId, u64> = BTreeMap::new();
        for flow in &hour.flows {
            let pkts = u64::from(flow.packets);
            let Some(&(id, realm)) = inventory.get(&flow.src_ip) else {
                out.unmatched_flows += 1;
                out.unmatched_packets += pkts;
                continue;
            };
            let r = realm_index(realm);
            let class = classify(flow);
            // Every correlated flow counts, a zero-packet one included:
            // it creates its device's row here, and below its Table IV
            // port row or Table V group.
            let device = out.devices.entry(id).or_insert(Device {
                realm,
                first_interval: hour.interval,
                flows: 0,
                packets: [0; 5],
                days_active: 0,
            });
            device.first_interval = device.first_interval.min(hour.interval);
            device.flows += 1;
            device.packets[class_index(class)] += pkts;
            device.days_active |= 1 << day.min(63);
            out.protocol_packets[r][transport_index(flow.protocol)] += pkts;
            match class {
                TrafficClass::Udp => {
                    out.udp[r].packets[i] += pkts;
                    udp.insert(r, flow, id);
                    let port = out.udp_ports.entry(flow.dst_port).or_default();
                    port.0 += pkts;
                    port.1.insert(id);
                }
                TrafficClass::TcpScan => {
                    out.tcp_scan[r].packets[i] += pkts;
                    scan.insert(r, flow, id);
                    let group = ScanService::from_port(flow.dst_port);
                    out.table_v.entry(group).or_default().packets[r] += pkts;
                    scanners.entry(group).or_default()[r].insert(id);
                    if let Some(col) = FIG_10.iter().position(|s| Some(*s) == group) {
                        out.top5_series[i][col] += pkts;
                    }
                }
                TrafficClass::Backscatter => {
                    out.backscatter_hourly[r][i] += pkts;
                    *victims.entry(id).or_default() += pkts;
                }
                TrafficClass::IcmpScan | TrafficClass::Other => {}
            }
        }
        udp.commit(&mut out.udp, i);
        scan.commit(&mut out.tcp_scan, i);
        // The top victim sent the most backscatter; a tie goes to the
        // smaller id (ascending ids, strictly more to take over). A
        // device whose only backscatter flows carry zero packets still
        // competes, at zero.
        let mut top: Option<(DeviceId, u64)> = None;
        for (&id, &pkts) in &victims {
            if top.is_none_or(|(_, best)| pkts > best) {
                top = Some((id, pkts));
            }
        }
        out.backscatter_intervals[i] = (victims.values().sum(), top);
    }
    for (group, devices) in scanners {
        let stats = out.table_v.get_mut(&group).expect("a scanned group");
        stats.devices = [devices[0].len(), devices[1].len()];
    }
    out
}

/// The §VI/§VII behavior vector of every source in `traffic`, inventory
/// or not, one record at a time: [`classify()`] per flow, the device
/// from a map of the inventory, a source's vector opened by its first
/// flow (a zero-packet one included, as is a zero-packet scan's port).
///
/// # Panics
///
/// Panics if an hour's interval is outside `1..=hours`.
pub fn behavior(
    db: &DeviceDb,
    hours: u32,
    traffic: &[HourTraffic],
) -> HashMap<Ipv4Addr, BehaviorVector> {
    let inventory: HashMap<Ipv4Addr, DeviceId> = db.iter().map(|d| (d.ip, d.id)).collect();
    let mut vectors = HashMap::new();
    for hour in traffic {
        assert!(
            (1..=hours).contains(&hour.interval),
            "interval {} outside 1..={hours}",
            hour.interval
        );
        let i = hour.interval as usize - 1;
        for flow in &hour.flows {
            let v = vectors
                .entry(flow.src_ip)
                .or_insert_with(|| BehaviorVector {
                    ip: flow.src_ip,
                    device: inventory.get(&flow.src_ip).copied(),
                    scan_ports: BTreeMap::new(),
                    hourly: vec![0; hours as usize],
                    protocol: [0; 3],
                    class: [0; 5],
                });
            let pkts = u64::from(flow.packets);
            let class = classify(flow);
            v.hourly[i] += pkts;
            v.protocol[transport_index(flow.protocol)] += pkts;
            v.class[class_index(class)] += pkts;
            if class == TrafficClass::TcpScan {
                *v.scan_ports.entry(flow.dst_port).or_insert(0) += pkts;
            }
        }
    }
    vectors
}

impl Naive {
    /// The stable counters a metered ingest of these hours publishes:
    /// `analysis.packets.<realm>.<class>` (the per-device packets summed
    /// per realm and class), `analysis.flows_unmatched`,
    /// `analysis.packets_unmatched` and, for a pipeline run of
    /// `hours_ingested` hours, `pipeline.hours_ingested`.
    pub fn counters(&self, hours_ingested: Option<u64>) -> BTreeMap<String, u64> {
        let mut packets = [[0u64; 5]; 2];
        for device in self.devices.values() {
            for (total, pkts) in packets[realm_index(device.realm)]
                .iter_mut()
                .zip(device.packets)
            {
                *total += pkts;
            }
        }
        let mut counters = BTreeMap::new();
        for (realm, totals) in ["consumer", "cps"].into_iter().zip(packets) {
            for (class, pkts) in TrafficClass::ALL.into_iter().zip(totals) {
                let name = format!("analysis.packets.{realm}.{}", class_name(class));
                counters.insert(name, pkts);
            }
        }
        counters.insert("analysis.flows_unmatched".to_owned(), self.unmatched_flows);
        counters.insert(
            "analysis.packets_unmatched".to_owned(),
            self.unmatched_packets,
        );
        if let Some(n) = hours_ingested {
            counters.insert("pipeline.hours_ingested".to_owned(), n);
        }
        counters
    }
}

/// The projection of an analysis, read through its public getters.
impl From<&Analysis> for Naive {
    fn from(a: &Analysis) -> Naive {
        let devices = a
            .devices
            .rows()
            .map(|o| {
                let device = Device {
                    realm: o.realm,
                    first_interval: o.first_interval,
                    flows: o.flows,
                    packets: TrafficClass::ALL.map(|c| o.packets(c)),
                    days_active: o.days_active,
                };
                (o.device, device)
            })
            .collect();
        let series = |s: &[RealmSeries; 2]| {
            s.clone().map(|s| Series {
                packets: s.packets,
                dst_ips: s.dst_ips,
                dst_ports: s.dst_ports,
                devices: s.devices,
            })
        };
        let mut table_v: BTreeMap<Group, ServiceStats> = a
            .scan_services
            .iter()
            .map(|(key, packets)| {
                let group = match key {
                    ServiceKey::Named(service) => Some(service),
                    ServiceKey::Other => None,
                };
                let stats = ServiceStats {
                    packets,
                    devices: [0; 2],
                };
                (group, stats)
            })
            .collect();
        for row in protocol_table(a) {
            table_v.entry(row.service).or_default().devices =
                [row.consumer_devices, row.cps_devices];
        }
        Naive {
            hours: a.hours,
            devices,
            protocol_packets: a.protocol_packets,
            udp: series(&a.udp),
            tcp_scan: series(&a.tcp_scan),
            backscatter_hourly: a.backscatter_hourly.clone(),
            backscatter_intervals: a
                .backscatter_intervals
                .iter()
                .map(|b| (b.total, b.top_victim))
                .collect(),
            table_v,
            top5_series: a.top5_series.clone(),
            udp_ports: a
                .udp_ports
                .rows()
                .map(|row| {
                    (
                        row.port,
                        (row.packets, row.devices.iter().copied().collect()),
                    )
                })
                .collect(),
            unmatched_flows: a.unmatched_flows,
            unmatched_packets: a.unmatched_packets,
        }
    }
}

/// 48 devices in 10.0.0.0/16, alternating consumer and CPS.
pub fn inventory() -> DeviceDb {
    DeviceDb::from_devices((0..48u32).map(|i| IotDevice {
        id: DeviceId(0),
        ip: Ipv4Addr::from(0x0a00_0001 + i * 3),
        profile: if i % 2 == 0 {
            DeviceProfile::Consumer(ConsumerKind::Router)
        } else {
            DeviceProfile::Cps(vec![CpsService::ModbusTcp])
        },
        country: CountryCode::from_code("US").expect("a known country"),
        isp: IspId(0),
    }))
}

/// A flow from `src` with every other field drawn from `r`: all three
/// protocols, any flag byte, ICMP types in and past 0..=255,
/// destinations and ports that repeat within an hour, and one flow in
/// seven carrying zero packets.
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

/// `hours` hours of unsorted traffic from `seed`, at the odd intervals
/// 1, 3, 5, … (hour `2000 + interval`): runs of one to five flows per
/// source, a quarter of them from sources outside the inventory. The
/// first hour opens with every protocol × flag byte; with `big` it also
/// crosses the 4,096-record block boundary inside one device's run.
pub fn random_traffic(db: &DeviceDb, seed: u64, hours: u32, big: bool) -> Vec<HourTraffic> {
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
