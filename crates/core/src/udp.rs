//! UDP traffic analysis (§IV-A): the hourly series of Fig 5, the top-port
//! table of Table IV, and the ports↔destinations correlation.

use crate::analysis::{realm_idx, Analysis, RealmSeries};
use crate::stats::{pearson, Correlation};
use iotscope_devicedb::Realm;
use iotscope_net::ports::ServiceRegistry;
use iotscope_net::protocol::TransportProtocol;

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct UdpPortRow {
    /// Destination port.
    pub port: u16,
    /// Service label (`"Not Assigned"` for unregistered ports).
    pub label: &'static str,
    /// UDP packets to the port.
    pub packets: u64,
    /// Percentage of all UDP packets.
    pub pct: f64,
    /// Number of devices that targeted the port.
    pub devices: usize,
}

/// Table IV: the top-`n` UDP destination ports by packets.
pub fn top_ports(analysis: &Analysis, registry: &ServiceRegistry, n: usize) -> Vec<UdpPortRow> {
    let total = analysis.udp_ports.total_packets();
    let mut rows: Vec<UdpPortRow> = analysis
        .udp_ports
        .rows()
        .map(|row| UdpPortRow {
            port: row.port,
            label: registry.label(TransportProtocol::Udp, row.port),
            packets: row.packets,
            pct: if total == 0 {
                0.0
            } else {
                100.0 * row.packets as f64 / total as f64
            },
            devices: row.devices.len(),
        })
        .collect();
    rows.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.port.cmp(&b.port)));
    rows.truncate(n);
    rows
}

/// Number of distinct UDP destination ports observed.
pub fn distinct_ports(analysis: &Analysis) -> usize {
    analysis.udp_ports.len()
}

/// The hourly UDP series of one realm (Fig 5a/5b).
pub fn hourly(analysis: &Analysis, realm: Realm) -> &RealmSeries {
    &analysis.udp[realm_idx(realm)]
}

/// §IV-A1's Pearson correlation between hourly targeted ports and hourly
/// targeted destination addresses for one realm (consumer: r = 0.95).
pub fn ports_ips_correlation(analysis: &Analysis, realm: Realm) -> Option<Correlation> {
    let s = hourly(analysis, realm);
    let ports: Vec<f64> = s.dst_ports.iter().map(|v| *v as f64).collect();
    let ips: Vec<f64> = s.dst_ips.iter().map(|v| *v as f64).collect();
    pearson(&ports, &ips)
}

/// Aggregate UDP facts (§IV-A1's headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpSummary {
    /// Total UDP packets from correlated devices.
    pub total_packets: u64,
    /// Devices that emitted UDP.
    pub devices: usize,
    /// Consumer share of UDP packets.
    pub consumer_packet_share: f64,
    /// Consumer share of UDP devices.
    pub consumer_device_share: f64,
    /// Hourly mean distinct destinations, consumer.
    pub consumer_mean_dsts: f64,
    /// Hourly mean distinct destinations, CPS.
    pub cps_mean_dsts: f64,
    /// Hourly mean distinct ports, consumer.
    pub consumer_mean_ports: f64,
    /// Hourly mean distinct ports, CPS.
    pub cps_mean_ports: f64,
}

/// Compute the UDP summary.
pub fn summary(analysis: &Analysis) -> UdpSummary {
    let consumer = &analysis.udp[0];
    let cps = &analysis.udp[1];
    let c_pkts: u64 = consumer.packets.iter().sum();
    let x_pkts: u64 = cps.packets.iter().sum();
    let total = c_pkts + x_pkts;
    let mut c_devs = 0usize;
    let mut devices = 0usize;
    for obs in analysis.devices.rows() {
        if obs.packets(crate::classify::TrafficClass::Udp) > 0 {
            devices += 1;
            if obs.realm == Realm::Consumer {
                c_devs += 1;
            }
        }
    }
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    UdpSummary {
        total_packets: total,
        devices,
        consumer_packet_share: if total == 0 {
            0.0
        } else {
            c_pkts as f64 / total as f64
        },
        consumer_device_share: if devices == 0 {
            0.0
        } else {
            c_devs as f64 / devices as f64
        },
        consumer_mean_dsts: mean(&consumer.dst_ips),
        cps_mean_dsts: mean(&cps.dst_ips),
        consumer_mean_ports: mean(&consumer.dst_ports),
        cps_mean_ports: mean(&cps.dst_ports),
    }
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
                profile: DeviceProfile::Cps(vec![CpsService::Mqtt]),
                country: CountryCode::from_code("CN").unwrap(),
                isp: IspId(1),
            },
        ])
    }

    fn udp(src: [u8; 4], dst_last: u8, port: u16, pkts: u32) -> FlowTuple {
        FlowTuple::udp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, dst_last),
            5000,
            port,
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
                udp([1, 0, 0, 1], 1, 37547, 5),
                udp([1, 0, 0, 1], 2, 137, 2),
                udp([2, 0, 0, 1], 3, 37547, 3),
            ],
        });
        an.ingest_hour(&HourTraffic {
            interval: 3,
            hour: UnixHour::new(2),
            flows: vec![udp([1, 0, 0, 1], 4, 53, 1)],
        });
        an.finish()
    }

    #[test]
    fn top_ports_table_iv_shape() {
        let a = analysis();
        let reg = ServiceRegistry::standard();
        let rows = top_ports(&a, &reg, 10);
        assert_eq!(rows[0].port, 37547);
        assert_eq!(rows[0].packets, 8);
        assert_eq!(rows[0].devices, 2);
        assert_eq!(rows[0].label, "Not Assigned");
        assert!((rows[0].pct - 8.0 / 11.0 * 100.0).abs() < 1e-9);
        let netbios = rows.iter().find(|r| r.port == 137).unwrap();
        assert_eq!(netbios.label, "NetBIOS");
        assert_eq!(distinct_ports(&a), 3);
    }

    #[test]
    fn hourly_series_per_realm() {
        let a = analysis();
        let c = hourly(&a, Realm::Consumer);
        assert_eq!(c.packets, vec![7, 0, 1, 0]);
        assert_eq!(c.dst_ips, vec![2, 0, 1, 0]);
        assert_eq!(c.dst_ports, vec![2, 0, 1, 0]);
        let x = hourly(&a, Realm::Cps);
        assert_eq!(x.packets, vec![3, 0, 0, 0]);
    }

    #[test]
    fn summary_shares() {
        let a = analysis();
        let s = summary(&a);
        assert_eq!(s.total_packets, 11);
        assert_eq!(s.devices, 2);
        assert!((s.consumer_packet_share - 8.0 / 11.0).abs() < 1e-9);
        assert!((s.consumer_device_share - 0.5).abs() < 1e-9);
        assert!(s.consumer_mean_dsts > s.cps_mean_dsts);
    }

    #[test]
    fn correlation_requires_variation() {
        let a = analysis();
        // 4 intervals with variation → correlation defined.
        let c = ports_ips_correlation(&a, Realm::Consumer).unwrap();
        assert!(c.r > 0.9, "r = {}", c.r);
        // CPS has activity in one hour only; ports/ips vary identically.
        let x = ports_ips_correlation(&a, Realm::Cps);
        assert!(x.is_some());
    }

    #[test]
    fn empty_analysis_summary_is_zero() {
        let dbv = db();
        let a = Analyzer::new(&dbv, 4).finish();
        let s = summary(&a);
        assert_eq!(s.total_packets, 0);
        assert_eq!(s.devices, 0);
        assert_eq!(s.consumer_packet_share, 0.0);
        let reg = ServiceRegistry::standard();
        assert!(top_ports(&a, &reg, 10).is_empty());
    }
}
