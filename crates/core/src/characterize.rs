//! Characterization aggregates: the inventory- and device-level tables and
//! figures of §III (Figs 1–3, Tables I–III) plus the traffic mix of Fig 4
//! and the CDFs of Fig 6.

use crate::analysis::{realm_idx, Analysis};
use crate::classify::TrafficClass;
use crate::stats::Ecdf;
use crate::view::AnalysisView;
use iotscope_devicedb::isp::IspRegistry;
use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceDb, IspId, Realm};
use std::collections::HashMap;

/// One row of a per-country ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryRow {
    /// The country.
    pub country: CountryCode,
    /// Consumer devices counted.
    pub consumer: usize,
    /// CPS devices counted.
    pub cps: usize,
    /// Percentage of compromised among this country's deployed devices
    /// (only set for compromised rankings; the Fig 1b line).
    pub pct_compromised: Option<f64>,
}

impl CountryRow {
    /// Consumer + CPS.
    pub fn total(&self) -> usize {
        self.consumer + self.cps
    }
}

/// Fig 1a: deployed devices per country, descending.
pub fn country_deployment(db: &DeviceDb) -> Vec<CountryRow> {
    let mut map: HashMap<CountryCode, (usize, usize)> = HashMap::new();
    for d in db.iter() {
        let e = map.entry(d.country).or_default();
        match d.realm() {
            Realm::Consumer => e.0 += 1,
            Realm::Cps => e.1 += 1,
        }
    }
    let mut rows: Vec<CountryRow> = map
        .into_iter()
        .map(|(country, (consumer, cps))| CountryRow {
            country,
            consumer,
            cps,
            pct_compromised: None,
        })
        .collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.country.cmp(&b.country)));
    rows
}

/// Fig 1b: compromised devices per country, descending, with the
/// percent-compromised line (compromised / deployed in that country).
pub fn compromised_by_country(view: AnalysisView<'_>, db: &DeviceDb) -> Vec<CountryRow> {
    let deployed = db.count_by_country(None);
    let mut map: HashMap<CountryCode, (usize, usize)> = HashMap::new();
    for obs in view.devices().rows() {
        let d = db.device(obs.device);
        let e = map.entry(d.country).or_default();
        match obs.realm {
            Realm::Consumer => e.0 += 1,
            Realm::Cps => e.1 += 1,
        }
    }
    let mut rows: Vec<CountryRow> = map
        .into_iter()
        .map(|(country, (consumer, cps))| {
            let total = consumer + cps;
            let pct = deployed
                .get(&country)
                .filter(|d| **d > 0)
                .map(|d| 100.0 * total as f64 / *d as f64);
            CountryRow {
                country,
                consumer,
                cps,
                pct_compromised: pct,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.country.cmp(&b.country)));
    rows
}

/// Number of countries hosting at least one compromised device.
pub fn compromised_country_count(analysis: &Analysis, db: &DeviceDb) -> usize {
    analysis
        .devices
        .rows()
        .map(|o| db.device(o.device).country)
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// Fig 3: compromised consumer devices by kind with percentages,
/// descending.
pub fn consumer_kind_breakdown(
    analysis: &Analysis,
    db: &DeviceDb,
) -> Vec<(ConsumerKind, usize, f64)> {
    let mut counts: HashMap<ConsumerKind, usize> = HashMap::new();
    let mut total = 0usize;
    for obs in analysis.devices.rows() {
        if obs.realm != Realm::Consumer {
            continue;
        }
        if let Some(kind) = db.device(obs.device).profile.consumer_kind() {
            *counts.entry(kind).or_default() += 1;
            total += 1;
        }
    }
    let mut rows: Vec<(ConsumerKind, usize, f64)> = ConsumerKind::ALL
        .into_iter()
        .map(|k| {
            let c = counts.get(&k).copied().unwrap_or(0);
            (k, c, percentage(c, total))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    rows
}

/// Table III: compromised CPS devices per service (non-exclusive),
/// descending with percentages of the compromised CPS population.
pub fn cps_service_breakdown(analysis: &Analysis, db: &DeviceDb) -> Vec<(CpsService, usize, f64)> {
    let mut counts: HashMap<CpsService, usize> = HashMap::new();
    let mut cps_total = 0usize;
    for obs in analysis.devices.rows() {
        if obs.realm != Realm::Cps {
            continue;
        }
        cps_total += 1;
        if let Some(services) = db.device(obs.device).profile.cps_services() {
            for s in services {
                *counts.entry(*s).or_default() += 1;
            }
        }
    }
    let mut rows: Vec<(CpsService, usize, f64)> = counts
        .into_iter()
        .map(|(s, c)| (s, c, percentage(c, cps_total)))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// One row of an ISP ranking (Tables I and II).
#[derive(Debug, Clone, PartialEq)]
pub struct IspRow {
    /// The ISP.
    pub isp: IspId,
    /// Its display name.
    pub name: String,
    /// Its country name.
    pub country: String,
    /// Compromised devices hosted.
    pub devices: usize,
    /// Percentage of the realm's compromised population.
    pub pct: f64,
}

/// Tables I / II: the top-`n` ISPs hosting compromised devices of `realm`.
pub fn top_isps(
    view: AnalysisView<'_>,
    db: &DeviceDb,
    isps: &IspRegistry,
    realm: Realm,
    n: usize,
) -> Vec<IspRow> {
    let mut counts: HashMap<IspId, usize> = HashMap::new();
    let mut total = 0usize;
    for obs in view.devices().rows() {
        if obs.realm != realm {
            continue;
        }
        total += 1;
        *counts.entry(db.device(obs.device).isp).or_default() += 1;
    }
    let mut rows: Vec<IspRow> = counts
        .into_iter()
        .map(|(isp, devices)| {
            let rec = isps.isp(isp);
            IspRow {
                isp,
                name: rec.name().to_owned(),
                country: rec.country().name().to_owned(),
                devices,
                pct: percentage(devices, total),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.devices.cmp(&a.devices).then(a.name.cmp(&b.name)));
    rows.truncate(n);
    rows
}

/// Number of distinct ISPs hosting compromised devices of `realm`.
pub fn isp_count(analysis: &Analysis, db: &DeviceDb, realm: Realm) -> usize {
    analysis
        .devices
        .rows()
        .filter(|o| o.realm == realm)
        .map(|o| db.device(o.device).isp)
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// Fig 4: percentage of total device traffic per `[realm][transport]`,
/// transports ordered `[TCP, UDP, ICMP]` as in the figure.
pub fn protocol_mix(analysis: &Analysis) -> [[f64; 3]; 2] {
    let total: u64 = analysis
        .protocol_packets
        .iter()
        .flat_map(|r| r.iter())
        .sum();
    let mut out = [[0.0; 3]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        // protocol_packets is [ICMP, TCP, UDP]; Fig 4 orders TCP, UDP, ICMP.
        row[0] = percentage_u64(analysis.protocol_packets[r][1], total);
        row[1] = percentage_u64(analysis.protocol_packets[r][2], total);
        row[2] = percentage_u64(analysis.protocol_packets[r][0], total);
    }
    out
}

/// Fig 6: CDFs of per-device scanning packets (over scanning devices) and
/// per-victim backscatter packets (over DoS victims).
pub fn packet_cdfs(analysis: &Analysis) -> (Ecdf, Ecdf) {
    let scans: Vec<f64> = analysis
        .devices
        .rows()
        .filter(|o| o.scan_packets() > 0)
        .map(|o| o.scan_packets() as f64)
        .collect();
    let backscatter: Vec<f64> = analysis
        .devices
        .rows()
        .filter(|o| o.packets(TrafficClass::Backscatter) > 0)
        .map(|o| o.packets(TrafficClass::Backscatter) as f64)
        .collect();
    (Ecdf::new(scans), Ecdf::new(backscatter))
}

/// §IV's per-device packet comparison: Mann–Whitney U of total packets,
/// CPS sample vs consumer sample.
pub fn realm_packet_test(analysis: &Analysis) -> Option<crate::stats::MannWhitney> {
    let mut samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for obs in analysis.devices.rows() {
        samples[realm_idx(obs.realm)].push(obs.total_packets() as f64);
    }
    let [consumer, cps] = samples;
    crate::stats::mann_whitney_u(&cps, &consumer)
}

fn percentage(part: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

fn percentage_u64(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{DeviceId, IotDevice};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    fn cc(code: &str) -> CountryCode {
        CountryCode::from_code(code).unwrap()
    }

    fn device(ip: [u8; 4], code: &str, profile: DeviceProfile, isp: u32) -> IotDevice {
        IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(ip),
            profile,
            country: cc(code),
            isp: IspId(isp),
        }
    }

    fn test_db() -> DeviceDb {
        DeviceDb::from_devices([
            device(
                [1, 0, 0, 1],
                "RU",
                DeviceProfile::Consumer(ConsumerKind::Router),
                0,
            ),
            device(
                [1, 0, 0, 2],
                "RU",
                DeviceProfile::Consumer(ConsumerKind::IpCamera),
                0,
            ),
            device(
                [1, 0, 0, 3],
                "US",
                DeviceProfile::Consumer(ConsumerKind::Printer),
                1,
            ),
            device(
                [1, 0, 0, 4],
                "CN",
                DeviceProfile::Cps(vec![CpsService::EthernetIp, CpsService::ModbusTcp]),
                2,
            ),
            device(
                [1, 0, 0, 5],
                "CN",
                DeviceProfile::Cps(vec![CpsService::EthernetIp]),
                2,
            ),
            device(
                [1, 0, 0, 6],
                "US",
                DeviceProfile::Consumer(ConsumerKind::Router),
                1,
            ),
        ])
    }

    fn syn(src: [u8; 4]) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 1),
            40000,
            23,
            TcpFlags::SYN,
        )
    }

    /// Everyone except 1.0.0.6 contacts the darknet.
    fn analysis(db: &DeviceDb) -> Analysis {
        let mut an = Analyzer::new(db, 24);
        let flows: Vec<FlowTuple> = (1..=5u8).map(|i| syn([1, 0, 0, i])).collect();
        an.ingest_hour(&HourTraffic {
            interval: 1,
            hour: UnixHour::new(0),
            flows,
        });
        an.finish()
    }

    #[test]
    fn deployment_ranking_counts_realms() {
        let db = test_db();
        let rows = country_deployment(&db);
        assert_eq!(rows.len(), 3); // RU, US, CN each host 2 devices.
        assert!(rows.iter().all(|r| r.total() == 2));
        let ru = rows.iter().find(|r| r.country == cc("RU")).unwrap();
        assert_eq!(ru.consumer, 2);
        assert_eq!(ru.cps, 0);
        let cn = rows.iter().find(|r| r.country == cc("CN")).unwrap();
        assert_eq!(cn.cps, 2);
    }

    #[test]
    fn compromised_ranking_and_pct() {
        let db = test_db();
        let a = analysis(&db);
        let rows = compromised_by_country(a.view(), &db);
        let ru = rows.iter().find(|r| r.country == cc("RU")).unwrap();
        assert_eq!(ru.total(), 2);
        assert_eq!(ru.pct_compromised, Some(100.0));
        let us = rows.iter().find(|r| r.country == cc("US")).unwrap();
        assert_eq!(us.total(), 1);
        assert_eq!(us.pct_compromised, Some(50.0));
        assert_eq!(compromised_country_count(&a, &db), 3);
    }

    #[test]
    fn kind_breakdown_percentages() {
        let db = test_db();
        let a = analysis(&db);
        let rows = consumer_kind_breakdown(&a, &db);
        let total: usize = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, 3);
        let pct_sum: f64 = rows.iter().map(|r| r.2).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
        assert_eq!(rows[0].1, 1); // all kinds have 1 here except zeros at end
        assert_eq!(rows.last().unwrap().1, 0);
    }

    #[test]
    fn cps_services_non_exclusive() {
        let db = test_db();
        let a = analysis(&db);
        let rows = cps_service_breakdown(&a, &db);
        let enip = rows.iter().find(|r| r.0 == CpsService::EthernetIp).unwrap();
        assert_eq!(enip.1, 2);
        assert!((enip.2 - 100.0).abs() < 1e-9); // 2 of 2 CPS devices
        let modbus = rows.iter().find(|r| r.0 == CpsService::ModbusTcp).unwrap();
        assert_eq!(modbus.1, 1);
        // Sorted descending.
        assert!(rows[0].1 >= rows[1].1);
    }

    #[test]
    fn top_isps_ranks_and_percentages() {
        let db = test_db();
        let a = analysis(&db);
        let isps = IspRegistry::bootstrap("44.0.0.0/8".parse().unwrap());
        let rows = top_isps(a.view(), &db, &isps, Realm::Consumer, 5);
        assert!(!rows.is_empty());
        assert_eq!(rows[0].devices, 2); // IspId(0) hosts both RU consumer devices
        assert!((rows[0].pct - 66.6667).abs() < 0.01);
        assert_eq!(isp_count(&a, &db, Realm::Consumer), 2);
        assert_eq!(isp_count(&a, &db, Realm::Cps), 1);
    }

    #[test]
    fn protocol_mix_sums_to_100() {
        let db = test_db();
        let a = analysis(&db);
        let mix = protocol_mix(&a);
        let sum: f64 = mix.iter().flat_map(|r| r.iter()).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        // All traffic here is consumer+cps TCP.
        assert!(mix[0][0] > 0.0);
        assert_eq!(mix[0][1], 0.0);
    }

    #[test]
    fn packet_cdfs_cover_scanners_and_victims() {
        let db = test_db();
        let a = analysis(&db);
        let (scan, bs) = packet_cdfs(&a);
        assert_eq!(scan.len(), 5);
        assert!(bs.is_empty()); // no backscatter in this toy analysis
    }

    #[test]
    fn realm_test_needs_both_samples() {
        let db = test_db();
        let a = analysis(&db);
        let mw = realm_packet_test(&a).unwrap();
        assert_eq!(mw.n1, 2); // cps
        assert_eq!(mw.n2, 3); // consumer
    }

    #[test]
    fn empty_analysis_yields_empty_tables() {
        let db = test_db();
        let a = Analyzer::new(&db, 4).finish();
        assert!(compromised_by_country(a.view(), &db).is_empty());
        assert!(cps_service_breakdown(&a, &db).is_empty());
        assert!(realm_packet_test(&a).is_none());
        let mix = protocol_mix(&a);
        assert_eq!(mix, [[0.0; 3]; 2]);
    }
}
