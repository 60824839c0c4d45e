//! Per-device behavioral feature extraction.
//!
//! §VI and §VII of the paper sketch three follow-ups that all need richer
//! per-source features than the aggregate analysis keeps: fuzzy
//! fingerprinting of unindexed IoT devices, malware attribution, and
//! botnet clustering. This module makes one extra pass over the traffic
//! and produces a [`BehaviorVector`] per source — scanned-port histogram,
//! hourly activity series, protocol mix, and TTL profile — for both
//! inventory devices and unmatched sources.

use crate::classify::{classify, TrafficClass};
use iotscope_devicedb::{DeviceDb, DeviceId};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::protocol::TransportProtocol;
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
    /// Sum and count of observed TTLs (for the mean TTL fingerprint).
    ttl_sum: u64,
    /// Number of flows.
    pub flows: u64,
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
            ttl_sum: 0,
            flows: 0,
        }
    }

    /// Total packets from the source.
    pub fn total_packets(&self) -> u64 {
        self.protocol.iter().sum()
    }

    /// Mean observed TTL (0 when no flows).
    pub fn mean_ttl(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.ttl_sum as f64 / self.flows as f64
        }
    }

    /// The scanned ports sorted by descending packet count.
    pub fn top_ports(&self, n: usize) -> Vec<u16> {
        let mut v: Vec<(u16, u64)> = self.scan_ports.iter().map(|(p, c)| (*p, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v.into_iter().map(|(p, _)| p).collect()
    }

    /// Cosine similarity of two scanned-port histograms (0 when either is
    /// empty).
    pub fn port_cosine(&self, other: &BehaviorVector) -> f64 {
        cosine(&self.scan_ports, &other.scan_ports)
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

/// Extract behavior vectors for every source in `traffic`.
///
/// Sources are keyed by address; matched devices carry their
/// [`DeviceId`]. `hours` is the window length (1-based interval indices
/// must fit).
pub fn extract(
    traffic: &[HourTraffic],
    db: &DeviceDb,
    hours: u32,
) -> HashMap<Ipv4Addr, BehaviorVector> {
    let mut vectors = HashMap::new();
    for hour in traffic {
        extract_hour(&mut vectors, db, hours, hour.interval, &hour.flows);
    }
    vectors
}

/// [`extract`], one hour at a time: fold the flows of the hour at
/// 1-based `interval` into `vectors`, so a caller reading hours off a
/// store holds one hour's flows, not the window's.
///
/// # Panics
///
/// If `interval` is outside `1..=hours`.
pub fn extract_hour(
    vectors: &mut HashMap<Ipv4Addr, BehaviorVector>,
    db: &DeviceDb,
    hours: u32,
    interval: u32,
    flows: &[FlowTuple],
) {
    assert!(
        interval >= 1 && interval <= hours,
        "interval {interval} outside 1..={hours}"
    );
    let idx = (interval - 1) as usize;
    for flow in flows {
        let entry = vectors.entry(flow.src_ip).or_insert_with(|| {
            BehaviorVector::new(
                flow.src_ip,
                db.correlate(flow.src_ip).map(|(i, _)| DeviceId(i)),
                hours as usize,
            )
        });
        let pkts = u64::from(flow.packets);
        entry.hourly[idx] += pkts;
        entry.flows += 1;
        entry.ttl_sum += u64::from(flow.ttl);
        let proto_i = match flow.protocol {
            TransportProtocol::Icmp => 0,
            TransportProtocol::Tcp => 1,
            TransportProtocol::Udp => 2,
        };
        entry.protocol[proto_i] += pkts;
        let class = classify(flow);
        entry.class[crate::analysis::class_idx(class)] += pkts;
        if class == TrafficClass::TcpScan {
            *entry.scan_ports.entry(flow.dst_port).or_insert(0) += pkts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, IotDevice, IspId};
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
        .with_ttl(60)
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
        assert!((dev.mean_ttl() - 60.0).abs() < 1e-9);
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
        assert!((a.port_cosine(b) - 1.0).abs() < 1e-9);
        assert!((a.port_jaccard(b) - 1.0).abs() < 1e-9);
        assert_eq!(a.port_cosine(c), 0.0);
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
