//! End-to-end shape validation against the paper's published results.
//!
//! One full-population run (331k-device inventory, 26,881 designated
//! compromised devices) at a reduced packet scale; every assertion checks
//! a *shape* the paper reports — who wins, by roughly what factor, where
//! events fall — not absolute packet counts.

use iotscope_core::analysis::Analysis;
use iotscope_core::classify::TrafficClass;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::{characterize, dos, malicious, scan, udp};
use iotscope_devicedb::{ConsumerKind, CpsService, Realm};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::ThreatCategory;
use iotscope_net::ports::{ScanService, ServiceRegistry};
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use std::sync::OnceLock;

const SEED: u64 = 20170412;
const SCALE: f64 = 0.004;

struct Fixture {
    built: BuiltScenario,
    analysis: Analysis,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::paper(SEED, SCALE));
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new().threads(8))
            .unwrap()
            .analysis;
        Fixture { built, analysis }
    })
}

#[test]
fn headline_population_counts() {
    let f = fixture();
    // §III-B: 26,881 compromised devices, 57% consumer.
    let (consumer, cps) = f.analysis.view().realm_counts();
    assert_eq!(consumer + cps, 26_881);
    assert_eq!(consumer, 15_299);
    assert_eq!(cps, 11_582);
    let consumer_share = consumer as f64 / 26_881.0;
    assert!((0.55..=0.59).contains(&consumer_share));
}

#[test]
fn fig_1b_compromised_country_ranking() {
    let f = fixture();
    let rows = characterize::compromised_by_country(f.analysis.view(), &f.built.inventory.db);
    // Russia #1 (24.5%), China #2 (8.6%), U.S. #3 (8.1%).
    assert_eq!(rows[0].country.code(), "RU");
    let ru_share = rows[0].total() as f64 / 26_881.0;
    assert!((0.20..=0.30).contains(&ru_share), "RU share {ru_share}");
    let top3: Vec<&str> = rows[..3].iter().map(|r| r.country.code()).collect();
    assert!(top3.contains(&"CN"));
    assert!(top3.contains(&"US"));
    // Percent-compromised contrast: Russia ≈31% vs U.S. ≈2.4%.
    let ru_pct = rows[0].pct_compromised.unwrap();
    let us_pct = rows
        .iter()
        .find(|r| r.country.code() == "US")
        .unwrap()
        .pct_compromised
        .unwrap();
    assert!(ru_pct > 20.0, "RU pct {ru_pct}");
    assert!(us_pct < 6.0, "US pct {us_pct}");
    assert!(ru_pct > 5.0 * us_pct);
}

#[test]
fn fig_1a_deployment_ranking() {
    let f = fixture();
    let rows = characterize::country_deployment(&f.built.inventory.db);
    // U.S. hosts the most devices (25%), well ahead of #2.
    assert_eq!(rows[0].country.code(), "US");
    let us_share = rows[0].total() as f64 / f.built.inventory.db.len() as f64;
    assert!((0.20..=0.28).contains(&us_share), "US share {us_share}");
    assert!(rows[0].total() > 2 * rows[1].total());
    // CPS-heavier countries per Fig 1a.
    for code in ["CN", "FR", "CA", "VN", "TW", "ES"] {
        let row = rows.iter().find(|r| r.country.code() == code).unwrap();
        assert!(row.cps > row.consumer, "{code} should be CPS-heavy");
    }
}

#[test]
fn fig_2_discovery_curve() {
    let f = fixture();
    let curve = f.analysis.discovery_curve();
    assert_eq!(curve.len(), 6);
    // ≈46% discovered on day one.
    let day0 = curve[0].0 as f64 / 26_881.0;
    assert!((0.40..=0.53).contains(&day0), "day-0 fraction {day0}");
    // ≈2,900 new devices per following day.
    for d in 1..6 {
        let new = curve[d].0 - curve[d - 1].0;
        assert!((1_800..=4_200).contains(&new), "day {d} discovered {new}");
    }
    assert_eq!(curve[5].0, 26_881);
}

#[test]
fn fig_3_consumer_kind_mix() {
    let f = fixture();
    let rows = characterize::consumer_kind_breakdown(&f.analysis, &f.built.inventory.db);
    // Routers 52.4% > cameras 25.2% > printers 18% > storage 3.6%.
    assert_eq!(rows[0].0, ConsumerKind::Router);
    assert!(
        (48.0..=57.0).contains(&rows[0].2),
        "router pct {}",
        rows[0].2
    );
    assert_eq!(rows[1].0, ConsumerKind::IpCamera);
    assert!((21.0..=29.0).contains(&rows[1].2));
    assert_eq!(rows[2].0, ConsumerKind::Printer);
    assert!((14.0..=22.0).contains(&rows[2].2));
    assert_eq!(rows[3].0, ConsumerKind::NetworkStorage);
}

#[test]
fn table_i_consumer_isps() {
    let f = fixture();
    let rows = characterize::top_isps(
        f.analysis.view(),
        &f.built.inventory.db,
        &f.built.inventory.isps,
        Realm::Consumer,
        5,
    );
    // JSC ER-Telecom dominates with ≈27.6%.
    assert_eq!(rows[0].name, "JSC ER-Telecom");
    assert!((22.0..=34.0).contains(&rows[0].pct), "{}", rows[0].pct);
    // The rest of the table is long-tailed (#2 ≲ 5%).
    assert!(rows[1].pct < 6.0);
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&"PT Telkom"));
}

#[test]
fn table_ii_cps_isps() {
    let f = fixture();
    let rows = characterize::top_isps(
        f.analysis.view(),
        &f.built.inventory.db,
        &f.built.inventory.isps,
        Realm::Cps,
        5,
    );
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    for expected in ["Rostelecom", "Korea Telecom", "Turk Telekom"] {
        assert!(
            names.contains(&expected),
            "{expected} missing from {names:?}"
        );
    }
    // Unlike Table I, no CPS ISP dominates (top ≈4.5%).
    assert!(rows[0].pct < 8.0, "top CPS ISP pct {}", rows[0].pct);
}

#[test]
fn table_iii_cps_services() {
    let f = fixture();
    let rows = characterize::cps_service_breakdown(&f.analysis, &f.built.inventory.db);
    assert_eq!(rows[0].0, CpsService::TelventOasysDna);
    assert!(
        (16.0..=23.0).contains(&rows[0].2),
        "Telvent pct {}",
        rows[0].2
    );
    assert_eq!(rows[1].0, CpsService::SncGene);
    let top10: Vec<CpsService> = rows[..10].iter().map(|r| r.0).collect();
    assert!(top10.contains(&CpsService::NiagaraFox));
    assert!(top10.contains(&CpsService::Mqtt));
    assert!(top10.contains(&CpsService::ModbusTcp));
    // Niagara Fox above MQTT, as in Table III.
    let pos = |s: CpsService| top10.iter().position(|x| *x == s).unwrap();
    assert!(pos(CpsService::NiagaraFox) < pos(CpsService::Mqtt));
}

#[test]
fn fig_4_protocol_mix() {
    let f = fixture();
    let mix = characterize::protocol_mix(&f.analysis);
    let total: f64 = mix.iter().flat_map(|r| r.iter()).sum();
    assert!((total - 100.0).abs() < 1e-6);
    // TCP dominates both realms; consumer TCP ≈46.8% > CPS TCP ≈38.8%.
    assert!(
        mix[0][0] > 40.0 && mix[0][0] < 55.0,
        "consumer TCP {}",
        mix[0][0]
    );
    assert!(
        mix[1][0] > 32.0 && mix[1][0] < 48.0,
        "cps TCP {}",
        mix[1][0]
    );
    assert!(mix[0][0] > mix[1][0]);
    // UDP: consumer ≈6.5% > CPS ≈3.9%.
    assert!(mix[0][1] > mix[1][1]);
    // ICMP is the smallest class in both realms.
    assert!(mix[0][2] < mix[0][1]);
    assert!(mix[1][2] < mix[1][0]);
}

#[test]
fn section_iv_per_device_packets_mann_whitney() {
    let f = fixture();
    // §IV: packets per device significantly greater for CPS (p < 0.0001).
    let mw = characterize::realm_packet_test(&f.analysis).unwrap();
    assert!(mw.z > 3.0, "z = {}", mw.z);
    assert!(mw.p_value < 1e-3, "p = {}", mw.p_value);
}

#[test]
fn udp_summary_and_correlation() {
    let f = fixture();
    let s = udp::summary(&f.analysis);
    // §IV-A1: 25,242 devices, 60% consumer, 63% of packets from consumer.
    assert!((24_000..=25_500).contains(&s.devices), "{}", s.devices);
    assert!((0.57..=0.68).contains(&s.consumer_packet_share));
    assert!((0.56..=0.64).contains(&s.consumer_device_share));
    // Consumer targets far more destinations and ports per hour than CPS.
    assert!(s.consumer_mean_dsts > 1.5 * s.cps_mean_dsts);
    assert!(s.consumer_mean_ports > 1.5 * s.cps_mean_ports);
    // §IV-A1: strong positive ports↔destinations correlation (r = 0.95).
    let c = udp::ports_ips_correlation(&f.analysis, Realm::Consumer).unwrap();
    assert!(c.r > 0.9, "r = {}", c.r);
    assert!(c.p_value < 1e-4);
}

#[test]
fn table_iv_udp_ports() {
    let f = fixture();
    let rows = udp::top_ports(&f.analysis, &ServiceRegistry::standard(), 10);
    assert_eq!(rows.len(), 10);
    // Port 37547 (Netcore backdoor) leads with ≈2.5% of UDP packets.
    assert_eq!(rows[0].port, 37547);
    assert!(
        (1.5..=3.5).contains(&rows[0].pct),
        "37547 pct {}",
        rows[0].pct
    );
    let ports: Vec<u16> = rows.iter().map(|r| r.port).collect();
    for expected in [137u16, 53413, 32124, 28183, 5353, 53, 3544, 1194] {
        assert!(
            ports.contains(&expected),
            "port {expected} missing: {ports:?}"
        );
    }
    // Top 10 take ≈10.7% of UDP packets; the rest spreads over 60k+ ports.
    let top10_pct: f64 = rows.iter().map(|r| r.pct).sum();
    assert!((6.0..=16.0).contains(&top10_pct), "top-10 pct {top10_pct}");
    assert!(udp::distinct_ports(&f.analysis) > 30_000);
    // The broad-spray ports are hit by far more devices than the
    // dedicated-scanner ports.
    let dev = |p: u16| rows.iter().find(|r| r.port == p).unwrap().devices;
    assert!(dev(37547) > 4 * dev(137));
}

#[test]
fn backscatter_shapes() {
    let f = fixture();
    let s = dos::summary(&f.analysis, 400);
    // §IV-B: 839 victims, 53% CPS, ≈8.2% of traffic, 73% of packets CPS.
    assert_eq!(s.victims, 839);
    assert!((0.49..=0.58).contains(&s.cps_victim_share));
    assert!((0.05..=0.13).contains(&s.backscatter_traffic_share));
    assert!((0.62..=0.88).contains(&s.cps_packet_share));
    // Hourly backscatter significantly larger for CPS (Z = −5.95).
    let mw = dos::backscatter_realm_test(&f.analysis).unwrap();
    assert!(mw.z < -3.0, "z = {}", mw.z);
    assert!(mw.p_value < 1e-3);
}

#[test]
fn fig_7_dos_spike_schedule() {
    let f = fixture();
    let spikes = dos::detect_spikes(&f.analysis, 6.0);
    let intervals: Vec<u32> = spikes.iter().map(|e| e.interval).collect();
    // The planted episode intervals (§IV-B1).
    for expected in [6u32, 7, 8, 53, 54, 55, 99, 127] {
        assert!(
            intervals.contains(&expected),
            "interval {expected} missing: {intervals:?}"
        );
    }
    // Each episode dominated by a single victim.
    for e in &spikes {
        if [6, 7, 8, 53, 54, 55, 99, 127].contains(&e.interval) {
            assert!(
                e.victim_share > 0.6,
                "interval {} share {}",
                e.interval,
                e.victim_share
            );
        }
    }
    // Intervals 6-8 and 53-55 share one victim; 99/127 share another.
    let victim_at = |i: u32| spikes.iter().find(|e| e.interval == i).unwrap().victim;
    assert_eq!(victim_at(6), victim_at(53));
    assert_eq!(victim_at(99), victim_at(127));
    assert_ne!(victim_at(6), victim_at(99));
}

#[test]
fn fig_8_victim_geography() {
    let f = fixture();
    let rows = dos::victim_countries(&f.analysis, &f.built.inventory.db);
    // China hosts the most victims and generates ≈52% of backscatter.
    assert_eq!(rows[0].country.code(), "CN");
    let total_pkts: u64 = rows.iter().map(|r| r.packets).sum();
    let cn_share = rows[0].packets as f64 / total_pkts as f64;
    assert!((0.35..=0.65).contains(&cn_share), "CN pkt share {cn_share}");
    // Singapore and Indonesia lead consumer victims.
    let mut by_consumer: Vec<_> = rows.iter().collect();
    by_consumer.sort_by_key(|r| std::cmp::Reverse(r.consumer_victims));
    let top_consumer: Vec<&str> = by_consumer[..3].iter().map(|r| r.country.code()).collect();
    assert!(top_consumer.contains(&"SG"), "{top_consumer:?}");
    assert!(top_consumer.contains(&"ID"), "{top_consumer:?}");
    // China and the U.S. lead CPS victims.
    let mut by_cps: Vec<_> = rows.iter().collect();
    by_cps.sort_by_key(|r| std::cmp::Reverse(r.cps_victims));
    assert_eq!(by_cps[0].country.code(), "CN");
    let top_cps: Vec<&str> = by_cps[..3].iter().map(|r| r.country.code()).collect();
    assert!(top_cps.contains(&"US"), "{top_cps:?}");
}

#[test]
fn table_v_scan_services() {
    let f = fixture();
    let rows = scan::protocol_table(&f.analysis);
    // Telnet ≈50.2% of scan packets, ≥4× HTTP (9.4%), then SSH (7.7%).
    assert_eq!(rows[0].service, Some(ScanService::Telnet));
    assert!(
        (45.0..=56.0).contains(&rows[0].pct),
        "telnet pct {}",
        rows[0].pct
    );
    assert_eq!(rows[1].service, Some(ScanService::Http));
    assert!(rows[0].packets > 4 * rows[1].packets);
    assert_eq!(rows[2].service, Some(ScanService::Ssh));
    // Realm splits per Table V.
    let row = |s: ScanService| rows.iter().find(|r| r.service == Some(s)).unwrap();
    assert!((55.0..=72.0).contains(&row(ScanService::Telnet).consumer_pct));
    assert!(row(ScanService::Http).consumer_pct > 88.0);
    assert!(row(ScanService::Ssh).cps_pct > 55.0);
    assert!(row(ScanService::Kerberos).consumer_pct > 90.0);
    assert!(row(ScanService::Irdmi).consumer_pct > 90.0);
    assert!(row(ScanService::BackroomNet).cps_pct > 99.0);
    // Device counts: HTTP/Kerberos/iRDMI scanned by the most devices.
    assert!(row(ScanService::Http).consumer_devices > 1_000);
    assert!(row(ScanService::Kerberos).consumer_devices > 800);
    assert!(row(ScanService::Irdmi).consumer_devices > 800);
    assert!(row(ScanService::BackroomNet).cps_devices <= 3);
    // Named coverage ≈93.3%.
    let cov = scan::named_coverage(&f.analysis);
    assert!((90.0..=96.5).contains(&cov), "coverage {cov}");
}

#[test]
fn scan_summary_shapes() {
    let f = fixture();
    let s = scan::summary(&f.analysis);
    // §IV-C: 12,363 TCP scanners, 55% consumer.
    assert!(
        (12_000..=12_700).contains(&s.tcp_devices),
        "{}",
        s.tcp_devices
    );
    assert!((0.52..=0.58).contains(&s.consumer_device_share));
    // Consumer generates more scan packets per hour (382k vs 318k scaled).
    assert!(s.consumer_mean_packets > s.cps_mean_packets);
    assert!(s.consumer_mean_packets < 2.0 * s.cps_mean_packets);
    // ICMP scanning: tiny share, 56 devices, consumer-dominated (93%).
    assert_eq!(s.icmp_devices, 56);
    assert!(s.icmp_consumer_packet_share > 0.80);
    let icmp_share = s.icmp_packets as f64 / f.analysis.view().total_packets() as f64;
    assert!(icmp_share < 0.01, "icmp share {icmp_share}");
    // §IV-C: no strong correlation between hourly scanners and packets.
    let c = scan::scanners_vs_packets_correlation(&f.analysis).unwrap();
    assert!(c.r.abs() < 0.45, "r = {}", c.r);
}

#[test]
fn fig_9_port_diversity_and_interval_119() {
    let f = fixture();
    // The Dominican-Republic camera sweep: a huge port spike at 119.
    let spikes = scan::port_spike_intervals(&f.analysis, Realm::Consumer, 8.0);
    assert!(spikes.contains(&119), "spikes {spikes:?}");
    let consumer_ports = &scan::hourly(&f.analysis, Realm::Consumer).dst_ports;
    assert!(
        consumer_ports[118] > 9_000,
        "interval-119 ports {}",
        consumer_ports[118]
    );
    // Outside the sweep, CPS sweeps more ports per hour than consumer.
    let cps_ports = &scan::hourly(&f.analysis, Realm::Cps).dst_ports;
    let mid = |v: &[u64]| {
        let mut s: Vec<u64> = v.to_vec();
        s.sort_unstable();
        s[s.len() / 2]
    };
    assert!(
        mid(cps_ports) as f64 > 1.3 * mid(consumer_ports) as f64,
        "cps median {} consumer median {}",
        mid(cps_ports),
        mid(consumer_ports)
    );
}

#[test]
fn fig_10_service_time_series() {
    let f = fixture();
    let series = scan::top5_series(&f.analysis);
    // BackroomNet essentially silent before 113 (only stray random-port
    // probes), intensive 113..=142.
    let backroom: Vec<u64> = series.iter().map(|r| r[3]).collect();
    let before: u64 = backroom[..112].iter().sum();
    let after: u64 = backroom[112..142].iter().sum();
    assert!(after > 0);
    assert!(
        (before as f64) < 0.02 * after as f64,
        "before {before} after {after}"
    );
    assert!(backroom[115] > 0);
    assert!(backroom[130] > 0);
    // SSH bursts at 32 and 69 dominate its series.
    let ssh: Vec<u64> = series.iter().map(|r| r[2]).collect();
    let mut sorted = ssh.clone();
    sorted.sort_unstable();
    let median = sorted[71];
    assert!(
        ssh[31] as f64 > 3.0 * median as f64,
        "ssh[32] {} median {median}",
        ssh[31]
    );
    assert!(ssh[68] as f64 > 3.0 * median as f64);
    // Telnet leads every sampled interval.
    for i in [10usize, 50, 90, 130] {
        assert!(series[i][0] > series[i][1], "telnet < http at {}", i + 1);
    }
    // HTTP grows after interval 92 (the Fig 10 ramp).
    let http: Vec<u64> = series.iter().map(|r| r[1]).collect();
    let early: u64 = http[20..44].iter().sum();
    let late: u64 = http[115..139].iter().sum();
    assert!(
        late as f64 > 1.2 * early as f64,
        "early {early} late {late}"
    );
}

#[test]
fn section_v_intel_results() {
    let f = fixture();
    let candidates = malicious::select_candidates(f.analysis.view(), 4_000);
    assert!(
        (8_500..=8_900).contains(&candidates.len()),
        "{}",
        candidates.len()
    );
    let intel =
        IntelBuilder::new(IntelSynthConfig::paper(SEED)).build(&f.built.inventory.db, &candidates);
    let index = iotscope_intel::IntelIndex::build(&intel.threats, &intel.malware);
    let scores = iotscope_core::ScoreTable::from_batch(
        &f.analysis,
        &f.built.inventory.db,
        &index,
        Default::default(),
    );
    let summary = malicious::threat_summary(&scores, &candidates);
    // §V-A: 816 devices (9.2%) flagged.
    let flag_rate = summary.flagged.len() as f64 / summary.explored as f64;
    assert!((0.07..=0.12).contains(&flag_rate), "flag rate {flag_rate}");
    // Table VI ordering.
    let pct = |cat: ThreatCategory| summary.rows.iter().find(|r| r.category == cat).unwrap().pct;
    assert!(pct(ThreatCategory::Scanning) > 90.0);
    assert!(pct(ThreatCategory::Miscellaneous) > pct(ThreatCategory::BruteForce));
    assert!(pct(ThreatCategory::BruteForce) > pct(ThreatCategory::Malware));
    assert!(pct(ThreatCategory::Phishing) < 3.0);
    // §V-A: malware links skew CPS (91 vs 26).
    assert!(summary.cps_malware_devices > summary.consumer_malware_devices);

    // Fig 11: flagged devices' packet CDF is a subset with similar shape.
    let (all, flagged) = malicious::packet_cdfs(&scores, &candidates);
    assert_eq!(all.len(), candidates.len());
    assert_eq!(flagged.len(), summary.flagged.len());
    assert!(flagged.quantile(0.5).unwrap() > 0.0);

    // Table VII: the malware correlation surfaces all 11 families.
    let findings = malicious::malware_correlation(&scores, &intel.malware, &intel.resolver);
    assert_eq!(findings.families.len(), 11);
    assert_eq!(findings.hashes.len(), 24);
    assert!(findings.domains.len() <= 33 && findings.domains.len() > 20);
    assert!(
        (80..=150).contains(&findings.devices.len()),
        "{}",
        findings.devices.len()
    );
}

#[test]
fn traffic_class_totals_are_consistent() {
    let f = fixture();
    // Per-class sums over devices match the series sums.
    let scan_from_obs: u64 = f
        .analysis
        .devices
        .rows()
        .map(|o| o.packets(TrafficClass::TcpScan))
        .sum();
    let scan_from_series: u64 = f.analysis.tcp_scan[0].packets.iter().sum::<u64>()
        + f.analysis.tcp_scan[1].packets.iter().sum::<u64>();
    assert_eq!(scan_from_obs, scan_from_series);
    let bs_from_obs: u64 = f
        .analysis
        .devices
        .rows()
        .map(|o| o.packets(TrafficClass::Backscatter))
        .sum();
    let bs_from_series: u64 = f.analysis.backscatter_hourly[0].iter().sum::<u64>()
        + f.analysis.backscatter_hourly[1].iter().sum::<u64>();
    assert_eq!(bs_from_obs, bs_from_series);
    // Noise exists and was excluded.
    assert!(f.analysis.unmatched_flows > 0);
}
