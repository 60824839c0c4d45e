//! Scanning analysis (§IV-C): Table V, the hourly series of Fig 9, the
//! top-5 protocol series of Fig 10, and the §IV-C statistics.

use crate::analysis::{realm_idx, Analysis, RealmSeries, ServiceKey, TOP5_SERVICES};
use crate::stats::{pearson, Correlation};
use iotscope_devicedb::Realm;
use iotscope_net::ports::ScanService;

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRow {
    /// The service group (`None` = the unnamed-port tail).
    pub service: Option<ScanService>,
    /// Row label as in the paper (e.g. `"Telnet /23/2323/23231"`).
    pub label: String,
    /// Total scan packets to the group.
    pub packets: u64,
    /// Percentage of all TCP scanning packets.
    pub pct: f64,
    /// Consumer share of the group's packets (%).
    pub consumer_pct: f64,
    /// Consumer devices scanning the group.
    pub consumer_devices: usize,
    /// CPS share of the group's packets (%).
    pub cps_pct: f64,
    /// CPS devices scanning the group.
    pub cps_devices: usize,
}

/// Table V: per-service scanning statistics, named groups sorted by
/// packets descending, with the unnamed tail last.
pub fn protocol_table(analysis: &Analysis) -> Vec<ServiceRow> {
    let total: u64 = analysis
        .scan_services
        .iter()
        .map(|(_, s)| s.packets[0] + s.packets[1])
        .sum();
    let mut named: Vec<ServiceRow> = Vec::new();
    let mut tail: Option<ServiceRow> = None;
    for (key, stat) in analysis.scan_services.iter() {
        let pkts = stat.packets[0] + stat.packets[1];
        let row = ServiceRow {
            service: match key {
                ServiceKey::Named(s) => Some(s),
                ServiceKey::Other => None,
            },
            label: match key {
                ServiceKey::Named(s) => s.table_label(),
                ServiceKey::Other => "Other ports".to_owned(),
            },
            packets: pkts,
            pct: pct(pkts, total),
            consumer_pct: pct(stat.packets[0], pkts),
            consumer_devices: stat.devices[0].len(),
            cps_pct: pct(stat.packets[1], pkts),
            cps_devices: stat.devices[1].len(),
        };
        match key {
            ServiceKey::Named(_) => named.push(row),
            ServiceKey::Other => tail = Some(row),
        }
    }
    named.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.label.cmp(&b.label)));
    if let Some(t) = tail {
        named.push(t);
    }
    named
}

/// Cumulative percentage of scan packets covered by the named Table V
/// groups (the paper's CP = 93.3%).
pub fn named_coverage(analysis: &Analysis) -> f64 {
    let mut named = 0u64;
    let mut total = 0u64;
    for (key, stat) in analysis.scan_services.iter() {
        let pkts = stat.packets[0] + stat.packets[1];
        total += pkts;
        if matches!(key, ServiceKey::Named(_)) {
            named += pkts;
        }
    }
    pct(named, total)
}

/// The hourly TCP-scan series of one realm (Fig 9a/9b).
pub fn hourly(analysis: &Analysis, realm: Realm) -> &RealmSeries {
    &analysis.tcp_scan[realm_idx(realm)]
}

/// Fig 10: per-interval packets for the five top services, in
/// [`TOP5_SERVICES`] order.
pub fn top5_series(analysis: &Analysis) -> &[[u64; 5]] {
    &analysis.top5_series
}

/// §IV-C: correlation between the hourly number of scanning devices and
/// the hourly scan packets (the paper finds r ≈ 0: heavy hitters decouple
/// the two).
pub fn scanners_vs_packets_correlation(analysis: &Analysis) -> Option<Correlation> {
    let mut devices = vec![0f64; analysis.hours as usize];
    let mut packets = vec![0f64; analysis.hours as usize];
    for r in 0..2 {
        for i in 0..analysis.hours as usize {
            devices[i] += analysis.tcp_scan[r].devices[i] as f64;
            packets[i] += analysis.tcp_scan[r].packets[i] as f64;
        }
    }
    pearson(&devices, &packets)
}

/// Intervals whose distinct-port count for `realm` exceeds
/// `factor` × the realm's median — the Fig 9b interval-119 detector.
pub fn port_spike_intervals(analysis: &Analysis, realm: Realm, factor: f64) -> Vec<u32> {
    let ports = &analysis.tcp_scan[realm_idx(realm)].dst_ports;
    let mut sorted: Vec<u64> = ports.to_vec();
    sorted.sort_unstable();
    // Standard median: mean of the two middle elements for even-length
    // series. The window has 144 intervals, so `sorted[len / 2]` alone
    // would systematically pick the upper-middle value and bias the
    // spike threshold high.
    let median = match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2] as f64,
        n => (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0,
    };
    ports
        .iter()
        .enumerate()
        .filter(|(_, p)| **p as f64 > factor * median.max(1.0))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

/// Aggregate scanning facts (§IV-C's headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanSummary {
    /// Total TCP scanning packets.
    pub tcp_packets: u64,
    /// Devices that emitted TCP scans.
    pub tcp_devices: usize,
    /// Consumer share of TCP scanning devices.
    pub consumer_device_share: f64,
    /// Mean hourly TCP scan packets, consumer.
    pub consumer_mean_packets: f64,
    /// Mean hourly TCP scan packets, CPS.
    pub cps_mean_packets: f64,
    /// Mean hourly distinct destinations, consumer.
    pub consumer_mean_dsts: f64,
    /// Mean hourly distinct destinations, CPS.
    pub cps_mean_dsts: f64,
    /// Mean hourly distinct ports, consumer.
    pub consumer_mean_ports: f64,
    /// Mean hourly distinct ports, CPS.
    pub cps_mean_ports: f64,
    /// ICMP scanning packets.
    pub icmp_packets: u64,
    /// Devices that emitted ICMP scans.
    pub icmp_devices: usize,
    /// Consumer share of ICMP scanning packets.
    pub icmp_consumer_packet_share: f64,
}

/// Compute the scanning summary.
pub fn summary(analysis: &Analysis) -> ScanSummary {
    use crate::classify::TrafficClass;
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    let mut tcp_devices = 0usize;
    let mut c_tcp_devices = 0usize;
    let mut icmp_devices = 0usize;
    let mut icmp_packets = 0u64;
    let mut icmp_consumer = 0u64;
    for obs in analysis.devices.rows() {
        if obs.packets(TrafficClass::TcpScan) > 0 {
            tcp_devices += 1;
            if obs.realm == Realm::Consumer {
                c_tcp_devices += 1;
            }
        }
        let ip = obs.packets(TrafficClass::IcmpScan);
        if ip > 0 {
            icmp_devices += 1;
            icmp_packets += ip;
            if obs.realm == Realm::Consumer {
                icmp_consumer += ip;
            }
        }
    }
    let consumer = &analysis.tcp_scan[0];
    let cps = &analysis.tcp_scan[1];
    ScanSummary {
        tcp_packets: consumer.packets.iter().sum::<u64>() + cps.packets.iter().sum::<u64>(),
        tcp_devices,
        consumer_device_share: if tcp_devices == 0 {
            0.0
        } else {
            c_tcp_devices as f64 / tcp_devices as f64
        },
        consumer_mean_packets: mean(&consumer.packets),
        cps_mean_packets: mean(&cps.packets),
        consumer_mean_dsts: mean(&consumer.dst_ips),
        cps_mean_dsts: mean(&cps.dst_ips),
        consumer_mean_ports: mean(&consumer.dst_ports),
        cps_mean_ports: mean(&cps.dst_ports),
        icmp_packets,
        icmp_devices,
        icmp_consumer_packet_share: if icmp_packets == 0 {
            0.0
        } else {
            icmp_consumer as f64 / icmp_packets as f64
        },
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Index of a service in [`TOP5_SERVICES`], if present.
pub fn top5_index(service: ScanService) -> Option<usize> {
    TOP5_SERVICES.iter().position(|s| *s == service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{
        ConsumerKind, CountryCode, CpsService, DeviceDb, DeviceId, IotDevice, IspId,
    };
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::{IcmpType, TcpFlags};
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
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
                profile: DeviceProfile::Cps(vec![CpsService::NiagaraFox]),
                country: CountryCode::from_code("CA").unwrap(),
                isp: IspId(1),
            },
        ])
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

    fn analysis() -> Analysis {
        let db = Box::leak(Box::new(db()));
        let mut an = Analyzer::new(db, 4);
        an.ingest_hour(&HourTraffic {
            interval: 1,
            hour: UnixHour::new(0),
            flows: vec![
                syn([1, 0, 0, 1], 23, 10),
                syn([1, 0, 0, 1], 80, 3),
                syn([2, 0, 0, 1], 3387, 6),
                syn([2, 0, 0, 1], 4444, 1),
                FlowTuple::icmp(
                    Ipv4Addr::new(1, 0, 0, 1),
                    Ipv4Addr::new(44, 9, 9, 9),
                    IcmpType::EchoRequest,
                ),
            ],
        });
        an.finish()
    }

    #[test]
    fn table_v_rows_sorted_with_tail_last() {
        let a = analysis();
        let rows = protocol_table(&a);
        assert_eq!(rows[0].service, Some(ScanService::Telnet));
        assert_eq!(rows[0].packets, 10);
        assert!((rows[0].pct - 50.0).abs() < 1e-9);
        assert!((rows[0].consumer_pct - 100.0).abs() < 1e-9);
        assert_eq!(rows[0].consumer_devices, 1);
        assert_eq!(rows[0].cps_devices, 0);
        let last = rows.last().unwrap();
        assert_eq!(last.service, None);
        assert_eq!(last.packets, 1);
        // Coverage: 19 of 20 packets named.
        assert!((named_coverage(&a) - 95.0).abs() < 1e-9);
    }

    #[test]
    fn top5_series_tracks_named_services() {
        let a = analysis();
        let s = top5_series(&a);
        assert_eq!(s[0][0], 10); // Telnet
        assert_eq!(s[0][1], 3); // HTTP
        assert_eq!(s[0][3], 6); // BackroomNet
        assert_eq!(top5_index(ScanService::Telnet), Some(0));
        assert_eq!(top5_index(ScanService::Cwmp), Some(4));
        assert_eq!(top5_index(ScanService::Ftp), None);
    }

    #[test]
    fn summary_counts() {
        let a = analysis();
        let s = summary(&a);
        assert_eq!(s.tcp_packets, 20);
        assert_eq!(s.tcp_devices, 2);
        assert!((s.consumer_device_share - 0.5).abs() < 1e-9);
        assert_eq!(s.icmp_packets, 1);
        assert_eq!(s.icmp_devices, 1);
        assert!((s.icmp_consumer_packet_share - 1.0).abs() < 1e-9);
        assert!(s.consumer_mean_packets > 0.0);
    }

    #[test]
    fn hourly_series_shape() {
        let a = analysis();
        let c = hourly(&a, Realm::Consumer);
        assert_eq!(c.packets[0], 13);
        assert_eq!(c.dst_ports[0], 2);
        let x = hourly(&a, Realm::Cps);
        assert_eq!(x.packets[0], 7);
        assert_eq!(x.dst_ports[0], 2);
    }

    #[test]
    fn port_spike_detector_finds_outlier() {
        let dbv = db();
        let mut an = Analyzer::new(&dbv, 8);
        // Baseline hours with 2 ports, one hour with 60 distinct ports.
        for i in 1..=8u32 {
            let flows: Vec<FlowTuple> = if i == 5 {
                (0..60u16).map(|p| syn([1, 0, 0, 1], 1000 + p, 1)).collect()
            } else {
                vec![syn([1, 0, 0, 1], 23, 1), syn([1, 0, 0, 1], 80, 1)]
            };
            an.ingest_hour(&HourTraffic {
                interval: i,
                hour: UnixHour::new(u64::from(i)),
                flows,
            });
        }
        let a = an.finish();
        let spikes = port_spike_intervals(&a, Realm::Consumer, 5.0);
        assert_eq!(spikes, vec![5]);
    }

    #[test]
    fn port_spike_median_is_standard_for_even_length_series() {
        // Regression: with an even number of intervals (the paper window
        // has 144) the detector used the upper-middle element as the
        // median, inflating the threshold and hiding spikes like the
        // Fig 9b interval-119 sweep. Eight hours whose port counts sort
        // to [1,1,1,1,3,3,3,30]: true median 2, upper-middle 3.
        let dbv = db();
        let mut an = Analyzer::new(&dbv, 8);
        for i in 1..=8u32 {
            let ports: u16 = match i {
                1..=4 => 1,
                5..=7 => 3,
                _ => 30,
            };
            let flows: Vec<FlowTuple> =
                (0..ports).map(|p| syn([1, 0, 0, 1], 1000 + p, 1)).collect();
            an.ingest_hour(&HourTraffic {
                interval: i,
                hour: UnixHour::new(u64::from(i)),
                flows,
            });
        }
        let a = an.finish();
        // 30 > 12 * 2 but not > 12 * 3: the biased median missed this.
        assert_eq!(port_spike_intervals(&a, Realm::Consumer, 12.0), vec![8]);
    }

    #[test]
    fn correlation_none_when_constant() {
        let dbv = db();
        let a = Analyzer::new(&dbv, 4).finish();
        assert!(scanners_vs_packets_correlation(&a).is_none());
    }
}
