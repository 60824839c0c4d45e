//! Maliciousness analysis (Section V): the threat-repository join behind
//! Table VI and Fig 11, and the malware-database correlation behind
//! Table VII.
//!
//! Since the streaming refactor these are *thin reads* of a finished
//! [`ScoreTable`]: the actual join — intel
//! lookup per device, evidence accumulation — happens in
//! [`core::score`](crate::score), identically for batch and streaming
//! runs. The outputs here are bit-identical to the pre-refactor direct
//! joins (proptested in `tests/score_streaming.rs`).
//!
//! [`ScoreTable`]: crate::score::ScoreTable

use crate::classify::TrafficClass;
use crate::score::ScoreTable;
use crate::stats::Ecdf;
use crate::view::AnalysisView;
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_intel::family::FamilyResolver;
use iotscope_intel::{MalwareDb, MalwareFamily, MalwareHash, ThreatCategory};
use std::collections::BTreeSet;

/// §V-A's exploration set: every DoS victim plus the top-`n` devices per
/// realm by generated scanning+UDP packets (the paper used n = 4,000 on
/// top of the 839 victims, totaling 8,839).
pub fn select_candidates(view: AnalysisView<'_>, top_n_per_realm: usize) -> Vec<DeviceId> {
    let mut set: BTreeSet<DeviceId> = view.dos_victims().iter().copied().collect();
    for realm in [Realm::Consumer, Realm::Cps] {
        let mut devices: Vec<(u64, DeviceId)> = view
            .devices()
            .rows()
            .filter(|o| o.realm == realm)
            .map(|o| (o.scan_packets() + o.packets(TrafficClass::Udp), o.device))
            .filter(|(pkts, _)| *pkts > 0)
            .collect();
        devices.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, id) in devices.into_iter().take(top_n_per_realm) {
            set.insert(id);
        }
    }
    set.into_iter().collect()
}

/// One row of Table VI.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatRow {
    /// The category.
    pub category: ThreatCategory,
    /// Flagged devices carrying the category.
    pub devices: usize,
    /// Percentage of all flagged devices (categories overlap).
    pub pct: f64,
}

/// The Table VI join result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatSummary {
    /// Devices explored against the repository.
    pub explored: usize,
    /// Devices with at least one event.
    pub flagged: Vec<DeviceId>,
    /// Per-category rows, Table VI order.
    pub rows: Vec<ThreatRow>,
    /// Flagged devices in CPS realms linked to malware (§V-A: 91).
    pub cps_malware_devices: usize,
    /// Flagged consumer devices linked to malware (§V-A: 26).
    pub consumer_malware_devices: usize,
}

/// Read the Table VI summary for `candidates` off a finished score
/// table. The category mask per device was resolved from the threat
/// repository when the device was first scored. Candidates come from
/// [`select_candidates`] on the analysis the table scored, so every one
/// has a row; one without a row would count as unflagged.
pub fn threat_summary(score: &ScoreTable, candidates: &[DeviceId]) -> ThreatSummary {
    let mut flagged = Vec::new();
    let mut counts = [0usize; 6];
    let mut cps_malware = 0usize;
    let mut consumer_malware = 0usize;
    for id in candidates {
        let Some(row) = score.get(*id).filter(|row| row.cat_mask != 0) else {
            continue;
        };
        flagged.push(*id);
        for (i, cat) in ThreatCategory::ALL.iter().enumerate() {
            if row.cat_mask & cat.bit() != 0 {
                counts[i] += 1;
            }
        }
        if row.cat_mask & ThreatCategory::Malware.bit() != 0 {
            match row.realm {
                Realm::Cps => cps_malware += 1,
                Realm::Consumer => consumer_malware += 1,
            }
        }
    }
    let n = flagged.len();
    let rows = ThreatCategory::ALL
        .iter()
        .enumerate()
        .map(|(i, cat)| ThreatRow {
            category: *cat,
            devices: counts[i],
            pct: if n == 0 {
                0.0
            } else {
                100.0 * counts[i] as f64 / n as f64
            },
        })
        .collect();
    ThreatSummary {
        explored: candidates.len(),
        flagged,
        rows,
        cps_malware_devices: cps_malware,
        consumer_malware_devices: consumer_malware,
    }
}

/// Fig 11: CDFs of total generated packets for (a) all explored devices
/// and (b) the repository-flagged subset, read off the score table.
pub fn packet_cdfs(score: &ScoreTable, candidates: &[DeviceId]) -> (Ecdf, Ecdf) {
    let mut all = Vec::with_capacity(candidates.len());
    let mut flagged = Vec::new();
    for id in candidates {
        let Some(row) = score.get(*id) else {
            continue;
        };
        let pkts = row.total_packets as f64;
        all.push(pkts);
        if row.cat_mask != 0 {
            flagged.push(pkts);
        }
    }
    (Ecdf::new(all), Ecdf::new(flagged))
}

/// The Table VII correlation result.
#[derive(Debug, Clone, PartialEq)]
pub struct MalwareFindings {
    /// Inferred devices contacted by at least one instrumented sample.
    pub devices: Vec<DeviceId>,
    /// Distinct sample hashes involved.
    pub hashes: Vec<MalwareHash>,
    /// Distinct domains associated with those samples.
    pub domains: Vec<String>,
    /// Families resolved from the hashes, Table VII's list.
    pub families: Vec<MalwareFamily>,
}

/// §V-B: read the malware correlation for **all** inferred devices off
/// a finished score table, then resolve the hashes to families.
///
/// Expects a [`normalize`](ScoreTable::normalize)d table so the device
/// list comes out in ascending id order (the pre-refactor iteration
/// order over `Analysis::compromised_devices`).
pub fn malware_correlation(
    score: &ScoreTable,
    malware: &MalwareDb,
    resolver: &FamilyResolver,
) -> MalwareFindings {
    let mut devices = Vec::new();
    let mut hashes: BTreeSet<MalwareHash> = BTreeSet::new();
    let mut domains: BTreeSet<String> = BTreeSet::new();
    for row in 0..score.len() {
        let samples = score.samples_at(row);
        if samples.is_empty() {
            continue;
        }
        devices.push(score.ids()[row]);
        for &r in samples {
            let report = &malware.reports()[r as usize];
            hashes.insert(report.sha256.clone());
            domains.extend(report.network.domains.iter().cloned());
        }
    }
    let families: BTreeSet<MalwareFamily> =
        hashes.iter().filter_map(|h| resolver.resolve(h)).collect();
    MalwareFindings {
        devices,
        hashes: hashes.into_iter().collect(),
        domains: domains.into_iter().collect(),
        families: families.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, Analyzer};
    use crate::score::ScoreConfig;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceDb, IotDevice, IspId};
    use iotscope_intel::sandbox::{NetworkActivity, SandboxReport, SystemActivity};
    use iotscope_intel::{IntelIndex, ThreatEvent, ThreatRepo};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    fn db() -> DeviceDb {
        DeviceDb::from_devices((1..=4u8).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::new(i, 0, 0, 1),
            profile: if i % 2 == 0 {
                DeviceProfile::Cps(vec![CpsService::ModbusTcp])
            } else {
                DeviceProfile::Consumer(ConsumerKind::Router)
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    fn syn(src: [u8; 4], pkts: u32) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 1),
            40000,
            23,
            TcpFlags::SYN,
        )
        .with_packets(pkts)
    }

    fn bs(src: [u8; 4], pkts: u32) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 2),
            80,
            40000,
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .with_packets(pkts)
    }

    fn analysis(dbv: &DeviceDb) -> Analysis {
        let mut an = Analyzer::new(dbv, 4);
        an.ingest_hour(&HourTraffic {
            interval: 1,
            hour: UnixHour::new(0),
            flows: vec![
                syn([1, 0, 0, 1], 100),
                syn([3, 0, 0, 1], 5),
                bs([2, 0, 0, 1], 50),
                syn([4, 0, 0, 1], 30),
            ],
        });
        an.finish()
    }

    fn score(a: &Analysis, dbv: &DeviceDb, index: &IntelIndex) -> ScoreTable {
        ScoreTable::from_batch(a, dbv, index, ScoreConfig::default())
    }

    #[test]
    fn candidates_include_victims_and_top_scanners() {
        let dbv = db();
        let a = analysis(&dbv);
        // top 1 per realm + victims.
        let c = select_candidates(a.view(), 1);
        // Victim = device 2.0.0.1 (id 1). Top consumer = id 0 (100 pkts),
        // top CPS = id 3 (30 pkts).
        assert_eq!(c.len(), 3);
        assert!(c.contains(&DeviceId(1)));
        assert!(c.contains(&DeviceId(0)));
        assert!(c.contains(&DeviceId(3)));
        // Larger n brings in the small scanner too.
        assert_eq!(select_candidates(a.view(), 10).len(), 4);
    }

    #[test]
    fn threat_summary_counts_overlapping_categories() {
        let dbv = db();
        let a = analysis(&dbv);
        let mut repo = ThreatRepo::new();
        for (ip, cat) in [
            ([1u8, 0, 0, 1], ThreatCategory::Scanning),
            ([1, 0, 0, 1], ThreatCategory::Malware),
            ([2, 0, 0, 1], ThreatCategory::Scanning),
        ] {
            repo.add(ThreatEvent {
                ip: Ipv4Addr::from(ip),
                category: cat,
                source: "t".into(),
                reported_at: 0,
            });
        }
        let index = IntelIndex::build(&repo, &MalwareDb::new());
        let table = score(&a, &dbv, &index);
        let candidates = select_candidates(a.view(), 10);
        let s = threat_summary(&table, &candidates);
        assert_eq!(s.explored, 4);
        assert_eq!(s.flagged.len(), 2);
        let scanning = s
            .rows
            .iter()
            .find(|r| r.category == ThreatCategory::Scanning)
            .unwrap();
        assert_eq!(scanning.devices, 2);
        assert!((scanning.pct - 100.0).abs() < 1e-9);
        let malware = s
            .rows
            .iter()
            .find(|r| r.category == ThreatCategory::Malware)
            .unwrap();
        assert_eq!(malware.devices, 1);
        assert_eq!(s.consumer_malware_devices, 1);
        assert_eq!(s.cps_malware_devices, 0);
    }

    #[test]
    fn fig_11_cdfs() {
        let dbv = db();
        let a = analysis(&dbv);
        let mut repo = ThreatRepo::new();
        repo.add(ThreatEvent {
            ip: Ipv4Addr::new(1, 0, 0, 1),
            category: ThreatCategory::Scanning,
            source: "t".into(),
            reported_at: 0,
        });
        let index = IntelIndex::build(&repo, &MalwareDb::new());
        let table = score(&a, &dbv, &index);
        let candidates = select_candidates(a.view(), 10);
        let (all, flagged) = packet_cdfs(&table, &candidates);
        assert_eq!(all.len(), 4);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged.quantile(1.0), Some(100.0));
    }

    #[test]
    fn malware_correlation_resolves_families() {
        let dbv = db();
        let a = analysis(&dbv);
        let mut malware = MalwareDb::new();
        let h = MalwareHash::from_hex("cafe");
        malware.ingest(SandboxReport {
            sha256: h.clone(),
            network: NetworkActivity {
                contacted_ips: vec![Ipv4Addr::new(3, 0, 0, 1), Ipv4Addr::new(99, 9, 9, 9)],
                contacted_ports: vec![23],
                domains: vec!["c2.example".into()],
                payload_bytes: 10,
            },
            system: SystemActivity::default(),
        });
        let mut resolver = FamilyResolver::new();
        resolver.register(h, MalwareFamily::Ramnit);
        let index = IntelIndex::build(&ThreatRepo::new(), &malware);
        let table = score(&a, &dbv, &index);
        let f = malware_correlation(&table, &malware, &resolver);
        assert_eq!(f.devices, vec![DeviceId(2)]);
        assert_eq!(f.hashes.len(), 1);
        assert_eq!(f.domains, vec!["c2.example".to_string()]);
        assert_eq!(f.families, vec![MalwareFamily::Ramnit]);
    }

    #[test]
    fn empty_intel_yields_empty_findings() {
        let dbv = db();
        let a = analysis(&dbv);
        let index = IntelIndex::empty();
        let table = score(&a, &dbv, &index);
        let candidates = select_candidates(a.view(), 10);
        let s = threat_summary(&table, &candidates);
        assert!(s.flagged.is_empty());
        assert!(s.rows.iter().all(|r| r.devices == 0));
        let f = malware_correlation(&table, &MalwareDb::new(), &FamilyResolver::new());
        assert!(f.devices.is_empty());
        assert!(f.families.is_empty());
    }
}
