//! Per-source behavioral feature extraction.
//!
//! §VI and §VII of the paper sketch three follow-ups that all need richer
//! per-source features than the aggregate analysis keeps: fuzzy
//! fingerprinting of unindexed IoT devices, malware attribution, and
//! botnet clustering. This module produces a [`BehaviorVector`] per
//! source — scanned-port histogram, hourly activity series, protocol
//! and class mix — for both inventory devices and unmatched sources.
//!
//! [`BehaviorFold`] builds them an hour at a time through a
//! [`FlowSink`], so a store hour can be decoded once into this sink and
//! the analysis side by side; [`extract`] is the same fold over hours
//! held in memory.

use crate::fold::{lane_and_class, HourPos, CLASS_TABLE, CLASS_TCP_SCAN};
use iotscope_devicedb::{DeviceDb, DeviceId};
use iotscope_net::store::{ColumnBlock, FlowSink};
use iotscope_telescope::HourTraffic;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Behavioral features of one traffic source.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorVector {
    /// Source address.
    pub ip: Ipv4Addr,
    /// Matched inventory device, if any.
    pub device: Option<DeviceId>,
    /// Packets per scanned TCP destination port (scan class only).
    pub scan_ports: BTreeMap<u16, u64>,
    /// Packets per hourly interval (1-based index − 1), all classes.
    pub hourly: Vec<u64>,
    /// Packets per transport `[ICMP, TCP, UDP]`.
    pub protocol: [u64; 3],
    /// Packets per traffic class (indexed by [`crate::analysis::class_idx`]).
    pub class: [u64; 5],
}

impl BehaviorVector {
    fn new(ip: Ipv4Addr, device: Option<DeviceId>, hours: usize) -> Self {
        BehaviorVector {
            ip,
            device,
            scan_ports: BTreeMap::new(),
            hourly: vec![0; hours],
            protocol: [0; 3],
            class: [0; 5],
        }
    }

    /// Total packets from the source.
    pub fn total_packets(&self) -> u64 {
        self.protocol.iter().sum()
    }

    /// The scanned ports sorted by descending packet count.
    pub fn top_ports(&self, n: usize) -> Vec<u16> {
        let mut v: Vec<(u16, u64)> = self.scan_ports.iter().map(|(p, c)| (*p, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v.into_iter().map(|(p, _)| p).collect()
    }

    /// Jaccard similarity of the scanned-port *sets*.
    pub fn port_jaccard(&self, other: &BehaviorVector) -> f64 {
        if self.scan_ports.is_empty() && other.scan_ports.is_empty() {
            return 0.0;
        }
        let inter = self
            .scan_ports
            .keys()
            .filter(|p| other.scan_ports.contains_key(*p))
            .count();
        let union = self.scan_ports.len() + other.scan_ports.len() - inter;
        inter as f64 / union as f64
    }

    /// Pearson correlation of the hourly activity series; `None` when
    /// either series is constant (e.g. perfectly steady scanners).
    pub fn activity_correlation(&self, other: &BehaviorVector) -> Option<f64> {
        let xs: Vec<f64> = self.hourly.iter().map(|v| *v as f64).collect();
        let ys: Vec<f64> = other.hourly.iter().map(|v| *v as f64).collect();
        crate::stats::pearson(&xs, &ys).map(|c| c.r)
    }
}

/// Cosine similarity over sparse `port → count` histograms.
pub fn cosine(a: &BTreeMap<u16, u64>, b: &BTreeMap<u16, u64>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0;
    for (p, ca) in a {
        if let Some(cb) = b.get(p) {
            dot += *ca as f64 * *cb as f64;
        }
    }
    let na: f64 = a.values().map(|c| (*c as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|c| (*c as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Behavior vectors for every source of a window of `hours` intervals,
/// folded one hour at a time: [`begin_hour`](Self::begin_hour) returns
/// the hour's [`FlowSink`], [`finish`](Self::finish) the vectors keyed
/// by source address (matched devices carry their [`DeviceId`]).
#[derive(Debug)]
pub struct BehaviorFold<'a> {
    db: &'a DeviceDb,
    hours: u32,
    vectors: HashMap<Ipv4Addr, BehaviorVector>,
}

impl<'a> BehaviorFold<'a> {
    /// An empty fold over `db` for a window of `hours` intervals.
    pub fn new(db: &'a DeviceDb, hours: u32) -> Self {
        BehaviorFold {
            db,
            hours,
            vectors: HashMap::new(),
        }
    }

    /// The sink for the hour at 1-based `interval`.
    ///
    /// # Panics
    ///
    /// If `interval` is outside `1..=hours`.
    pub fn begin_hour(&mut self, interval: u32) -> HourBehavior<'_, 'a> {
        let idx = HourPos::new(interval, self.hours).idx;
        HourBehavior { fold: self, idx }
    }

    /// The vectors folded so far.
    pub fn finish(self) -> HashMap<Ipv4Addr, BehaviorVector> {
        self.vectors
    }
}

/// One hour's behavior fold, produced by [`BehaviorFold::begin_hour`].
/// It reads columns only: each flow is classified, and its transport
/// lane taken, by the analysis fold's class table, and each run of
/// equal source addresses costs one map lookup. Decoded blocks are
/// sorted by source, so a run is all of a source's flows in the block;
/// unsorted input only makes runs shorter.
#[derive(Debug)]
pub struct HourBehavior<'h, 'a> {
    fold: &'h mut BehaviorFold<'a>,
    /// `interval - 1`, the index into the hourly series.
    idx: usize,
}

impl FlowSink for HourBehavior<'_, '_> {
    fn visit_block(&mut self, block: &ColumnBlock) {
        let n = block.len();
        let (src_ip, src_port, dst_port) = (
            &block.src_ip()[..n],
            &block.src_port()[..n],
            &block.dst_port()[..n],
        );
        let (protocol, flags, packets) = (
            &block.protocol()[..n],
            &block.tcp_flags()[..n],
            &block.packets()[..n],
        );
        let table = &*CLASS_TABLE;
        let BehaviorFold { db, hours, vectors } = &mut *self.fold;
        let mut start = 0;
        while start < n {
            let src = src_ip[start];
            let end = src_ip[start..]
                .iter()
                .position(|&s| s != src)
                .map_or(n, |len| start + len);
            let ip = Ipv4Addr::from(src);
            let v = vectors.entry(ip).or_insert_with(|| {
                let device = db.correlate(ip).map(|(i, _)| DeviceId(i));
                BehaviorVector::new(ip, device, *hours as usize)
            });
            let mut run_packets = 0;
            for i in start..end {
                let (lane, class) = lane_and_class(table, protocol[i], flags[i], src_port[i]);
                let pkts = u64::from(packets[i]);
                run_packets += pkts;
                v.protocol[usize::from(lane)] += pkts;
                v.class[usize::from(class)] += pkts;
                if class == CLASS_TCP_SCAN {
                    *v.scan_ports.entry(dst_port[i] as u16).or_insert(0) += pkts;
                }
            }
            v.hourly[self.idx] += run_packets;
            start = end;
        }
    }
}

/// Extract behavior vectors for every source in `traffic`: a
/// [`BehaviorFold`] fed each hour's records through
/// [`FlowSink::on_flows`]. `hours` is the window length (1-based
/// interval indices must fit).
///
/// # Panics
///
/// If an hour's interval is outside `1..=hours`.
pub fn extract(
    traffic: &[HourTraffic],
    db: &DeviceDb,
    hours: u32,
) -> HashMap<Ipv4Addr, BehaviorVector> {
    let mut fold = BehaviorFold::new(db, hours);
    for hour in traffic {
        fold.begin_hour(hour.interval).on_flows(&hour.flows);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::TrafficClass;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, IotDevice, IspId};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;

    fn db() -> DeviceDb {
        DeviceDb::from_devices([IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::new(1, 0, 0, 1),
            profile: DeviceProfile::Consumer(ConsumerKind::Router),
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }])
    }

    fn syn(src: [u8; 4], port: u16, pkts: u32) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 1),
            40000,
            port,
            TcpFlags::SYN,
        )
        .with_packets(pkts)
    }

    fn hour(interval: u32, flows: Vec<FlowTuple>) -> HourTraffic {
        HourTraffic {
            interval,
            hour: UnixHour::new(u64::from(interval)),
            flows,
        }
    }

    #[test]
    fn extract_builds_port_histograms_and_series() {
        let db = db();
        let traffic = vec![
            hour(1, vec![syn([1, 0, 0, 1], 23, 3), syn([1, 0, 0, 1], 80, 1)]),
            hour(3, vec![syn([1, 0, 0, 1], 23, 2), syn([9, 9, 9, 9], 445, 5)]),
        ];
        let vecs = extract(&traffic, &db, 4);
        assert_eq!(vecs.len(), 2);
        let dev = &vecs[&Ipv4Addr::new(1, 0, 0, 1)];
        assert_eq!(dev.device, Some(DeviceId(0)));
        assert_eq!(dev.scan_ports[&23], 5);
        assert_eq!(dev.scan_ports[&80], 1);
        assert_eq!(dev.hourly, vec![4, 0, 2, 0]);
        assert_eq!(dev.protocol, [0, 6, 0]);
        assert_eq!(dev.total_packets(), 6);
        assert_eq!(dev.top_ports(1), vec![23]);
        assert_eq!(dev.class, [6, 0, 0, 0, 0]);
        let noise = &vecs[&Ipv4Addr::new(9, 9, 9, 9)];
        assert_eq!(noise.device, None);
        assert_eq!(noise.scan_ports[&445], 5);
    }

    #[test]
    fn backscatter_does_not_pollute_scan_ports() {
        let db = db();
        let bs = FlowTuple::tcp(
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(44, 0, 0, 2),
            80,
            50000,
            TcpFlags::SYN | TcpFlags::ACK,
        );
        let vecs = extract(&[hour(1, vec![bs])], &db, 4);
        let dev = &vecs[&Ipv4Addr::new(1, 0, 0, 1)];
        assert!(dev.scan_ports.is_empty());
        assert_eq!(
            dev.class[crate::analysis::class_idx(TrafficClass::Backscatter)],
            1
        );
    }

    #[test]
    fn similarity_measures() {
        let db = db();
        let traffic = vec![hour(
            1,
            vec![
                syn([1, 0, 0, 1], 23, 4),
                syn([1, 0, 0, 1], 2323, 4),
                syn([9, 9, 9, 9], 23, 4),
                syn([9, 9, 9, 9], 2323, 4),
                syn([8, 8, 8, 8], 445, 9),
            ],
        )];
        let vecs = extract(&traffic, &db, 4);
        let a = &vecs[&Ipv4Addr::new(1, 0, 0, 1)];
        let b = &vecs[&Ipv4Addr::new(9, 9, 9, 9)];
        let c = &vecs[&Ipv4Addr::new(8, 8, 8, 8)];
        assert!((cosine(&a.scan_ports, &b.scan_ports) - 1.0).abs() < 1e-9);
        assert!((a.port_jaccard(b) - 1.0).abs() < 1e-9);
        assert_eq!(cosine(&a.scan_ports, &c.scan_ports), 0.0);
        assert_eq!(a.port_jaccard(c), 0.0);
    }

    #[test]
    fn activity_correlation_requires_variance() {
        let db = db();
        // Two sources active in the same two hours correlate; a constant
        // one yields None.
        let traffic = vec![
            hour(
                1,
                vec![syn([1, 0, 0, 1], 23, 10), syn([9, 9, 9, 9], 23, 20)],
            ),
            hour(2, vec![syn([8, 8, 8, 8], 445, 1)]),
            hour(
                3,
                vec![syn([1, 0, 0, 1], 23, 10), syn([9, 9, 9, 9], 23, 20)],
            ),
        ];
        let vecs = extract(&traffic, &db, 4);
        let a = &vecs[&Ipv4Addr::new(1, 0, 0, 1)];
        let b = &vecs[&Ipv4Addr::new(9, 9, 9, 9)];
        let r = a.activity_correlation(b).unwrap();
        assert!(r > 0.99, "r = {r}");
    }

    #[test]
    fn cosine_edge_cases() {
        let empty = BTreeMap::new();
        let mut one = BTreeMap::new();
        one.insert(23u16, 5u64);
        assert_eq!(cosine(&empty, &one), 0.0);
        assert_eq!(cosine(&empty, &empty), 0.0);
        assert!((cosine(&one, &one) - 1.0).abs() < 1e-9);
    }
}
