//! DoS / backscatter analysis (§IV-B): the Fig 7 hourly series and spike
//! attribution, the Fig 8 country rankings, and the realm comparison.

use crate::analysis::{realm_idx, Analysis};
use crate::classify::TrafficClass;
use crate::stats::{mann_whitney_u, MannWhitney};
use iotscope_devicedb::{CountryCode, DeviceDb, DeviceId, Realm};
use std::collections::HashMap;

/// A detected DoS episode: an interval dominated by one victim.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeEvent {
    /// 1-based interval index.
    pub interval: u32,
    /// Total backscatter packets in the interval.
    pub total: u64,
    /// The dominant victim.
    pub victim: DeviceId,
    /// The dominant victim's share of the interval's backscatter (0..=1).
    pub victim_share: f64,
}

/// Detect spike intervals: backscatter above `factor` × the hourly median,
/// attributed to the interval's dominant victim (§IV-B1's methodology).
pub fn detect_spikes(analysis: &Analysis, factor: f64) -> Vec<SpikeEvent> {
    let totals: Vec<u64> = analysis
        .backscatter_intervals
        .iter()
        .map(|b| b.total)
        .collect();
    let mut sorted = totals.clone();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2] as f64;
    let mut out = Vec::new();
    for (i, slot) in analysis.backscatter_intervals.iter().enumerate() {
        if slot.total as f64 > factor * median.max(1.0) {
            if let Some((victim, pkts)) = slot.top_victim {
                out.push(SpikeEvent {
                    interval: i as u32 + 1,
                    total: slot.total,
                    victim,
                    victim_share: pkts as f64 / slot.total as f64,
                });
            }
        }
    }
    out
}

/// Hourly backscatter packets for one realm (Fig 7).
pub fn hourly(analysis: &Analysis, realm: Realm) -> &[u64] {
    &analysis.backscatter_hourly[realm_idx(realm)]
}

/// §IV-B1's Mann–Whitney comparison of hourly backscatter, CPS vs
/// consumer (the paper reports p < 0.0001, Z = −5.95 with consumer as the
/// first sample).
pub fn backscatter_realm_test(analysis: &Analysis) -> Option<MannWhitney> {
    let consumer: Vec<f64> = analysis.backscatter_hourly[0]
        .iter()
        .map(|v| *v as f64)
        .collect();
    let cps: Vec<f64> = analysis.backscatter_hourly[1]
        .iter()
        .map(|v| *v as f64)
        .collect();
    mann_whitney_u(&consumer, &cps)
}

/// One row of the Fig 8 country rankings.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimCountryRow {
    /// The country.
    pub country: CountryCode,
    /// Consumer victims hosted.
    pub consumer_victims: usize,
    /// CPS victims hosted.
    pub cps_victims: usize,
    /// Backscatter packets generated from this country.
    pub packets: u64,
}

impl VictimCountryRow {
    /// Total victims.
    pub fn victims(&self) -> usize {
        self.consumer_victims + self.cps_victims
    }
}

/// Fig 8: per-country victim counts and backscatter packets. Sort by
/// `victims()` for Fig 8a or by `packets` for Fig 8b.
pub fn victim_countries(analysis: &Analysis, db: &DeviceDb) -> Vec<VictimCountryRow> {
    let mut map: HashMap<CountryCode, VictimCountryRow> = HashMap::new();
    for obs in analysis.devices.rows() {
        let bs = obs.packets(TrafficClass::Backscatter);
        if bs == 0 {
            continue;
        }
        let dev = db.device(obs.device);
        let row = map.entry(dev.country).or_insert_with(|| VictimCountryRow {
            country: dev.country,
            consumer_victims: 0,
            cps_victims: 0,
            packets: 0,
        });
        match obs.realm {
            Realm::Consumer => row.consumer_victims += 1,
            Realm::Cps => row.cps_victims += 1,
        }
        row.packets += bs;
    }
    let mut rows: Vec<VictimCountryRow> = map.into_values().collect();
    rows.sort_by(|a, b| {
        b.victims()
            .cmp(&a.victims())
            .then(a.country.cmp(&b.country))
    });
    rows
}

/// Aggregate backscatter facts (§IV-B's headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DosSummary {
    /// Inferred DoS victims.
    pub victims: usize,
    /// CPS share of the victims.
    pub cps_victim_share: f64,
    /// Total backscatter packets.
    pub packets: u64,
    /// CPS share of backscatter packets.
    pub cps_packet_share: f64,
    /// Backscatter share of all device traffic.
    pub backscatter_traffic_share: f64,
    /// Victims that generated ≥ 100k (scale-adjusted) of the heaviest
    /// packet counts — computed as victims above `heavy_threshold`.
    pub heavy_victims: usize,
    /// The threshold used for `heavy_victims`.
    pub heavy_threshold: u64,
}

/// Compute the DoS summary. `heavy_threshold` is the packet count above
/// which a victim counts as heavy (paper: 100,000 at full scale).
pub fn summary(analysis: &Analysis, heavy_threshold: u64) -> DosSummary {
    let mut victims = 0usize;
    let mut cps_victims = 0usize;
    let mut packets = 0u64;
    let mut cps_packets = 0u64;
    let mut heavy = 0usize;
    for obs in analysis.devices.rows() {
        let bs = obs.packets(TrafficClass::Backscatter);
        if bs == 0 {
            continue;
        }
        victims += 1;
        packets += bs;
        if obs.realm == Realm::Cps {
            cps_victims += 1;
            cps_packets += bs;
        }
        if bs >= heavy_threshold {
            heavy += 1;
        }
    }
    let total_traffic = analysis.view().total_packets();
    DosSummary {
        victims,
        cps_victim_share: if victims == 0 {
            0.0
        } else {
            cps_victims as f64 / victims as f64
        },
        packets,
        cps_packet_share: if packets == 0 {
            0.0
        } else {
            cps_packets as f64 / packets as f64
        },
        backscatter_traffic_share: if total_traffic == 0 {
            0.0
        } else {
            packets as f64 / total_traffic as f64
        },
        heavy_victims: heavy,
        heavy_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CpsService, IotDevice, IspId};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    fn db() -> DeviceDb {
        DeviceDb::from_devices([
            IotDevice {
                id: DeviceId(0),
                ip: Ipv4Addr::new(1, 0, 0, 1),
                profile: DeviceProfile::Consumer(ConsumerKind::Printer),
                country: CountryCode::from_code("NL").unwrap(),
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

    fn bs(src: [u8; 4], pkts: u32) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 3, 3, 3),
            44818,
            41000,
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .with_packets(pkts)
    }

    fn analysis() -> Analysis {
        let dbv = Box::leak(Box::new(db()));
        let mut an = Analyzer::new(dbv, 10);
        // Baseline hours.
        for i in 1..=10u32 {
            let mut flows = vec![bs([1, 0, 0, 1], 2)];
            if i == 6 {
                flows.push(bs([2, 0, 0, 1], 500)); // the attack episode
            }
            an.ingest_hour(&HourTraffic {
                interval: i,
                hour: UnixHour::new(u64::from(i)),
                flows,
            });
        }
        an.finish()
    }

    #[test]
    fn spikes_detected_and_attributed() {
        let a = analysis();
        let spikes = detect_spikes(&a, 10.0);
        assert_eq!(spikes.len(), 1);
        let s = &spikes[0];
        assert_eq!(s.interval, 6);
        assert_eq!(s.total, 502);
        assert_eq!(s.victim, DeviceId(1));
        assert!(s.victim_share > 0.99, "share {}", s.victim_share);
    }

    #[test]
    fn hourly_split_by_realm() {
        let a = analysis();
        assert_eq!(hourly(&a, Realm::Consumer), &[2; 10]);
        let cps = hourly(&a, Realm::Cps);
        assert_eq!(cps[5], 500);
        assert_eq!(cps[0], 0);
    }

    #[test]
    fn country_rows_rank_and_count() {
        let a = analysis();
        let rows = victim_countries(&a, &db());
        assert_eq!(rows.len(), 2);
        let cn = rows.iter().find(|r| r.country.code() == "CN").unwrap();
        assert_eq!(cn.cps_victims, 1);
        assert_eq!(cn.consumer_victims, 0);
        assert_eq!(cn.packets, 500);
        let nl = rows.iter().find(|r| r.country.code() == "NL").unwrap();
        assert_eq!(nl.consumer_victims, 1);
        assert_eq!(nl.packets, 20);
    }

    #[test]
    fn summary_shares() {
        let a = analysis();
        let s = summary(&a, 100);
        assert_eq!(s.victims, 2);
        assert!((s.cps_victim_share - 0.5).abs() < 1e-9);
        assert_eq!(s.packets, 520);
        assert!((s.cps_packet_share - 500.0 / 520.0).abs() < 1e-9);
        assert!((s.backscatter_traffic_share - 1.0).abs() < 1e-9);
        assert_eq!(s.heavy_victims, 1);
    }

    #[test]
    fn realm_test_runs() {
        let a = analysis();
        let mw = backscatter_realm_test(&a).unwrap();
        assert_eq!(mw.n1, 10);
        assert_eq!(mw.n2, 10);
    }

    #[test]
    fn empty_analysis() {
        let dbv = db();
        let a = Analyzer::new(&dbv, 4).finish();
        assert!(detect_spikes(&a, 5.0).is_empty());
        assert!(victim_countries(&a, &dbv).is_empty());
        let s = summary(&a, 100);
        assert_eq!(s.victims, 0);
        assert_eq!(s.packets, 0);
    }
}
