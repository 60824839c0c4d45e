//! The full paper report: every table and figure computed into one struct,
//! with a text renderer used by the `repro` binary and the examples.

use crate::analysis::Analysis;
use crate::characterize::{self, CountryRow, IspRow};
use crate::dos::{self, DosSummary, SpikeEvent, VictimCountryRow};
use crate::malicious::{self, MalwareFindings, ThreatSummary};
use crate::query::{QueryApi, QueryContext};
use crate::scan::{self, ScanSummary, ServiceRow};
use crate::stats::{Correlation, MannWhitney};
use crate::udp::{self, UdpPortRow, UdpSummary};
use iotscope_devicedb::isp::IspRegistry;
use iotscope_devicedb::{ConsumerKind, CpsService, DeviceDb, Realm};
use iotscope_intel::family::FamilyResolver;
use iotscope_intel::{IntelIndex, MalwareDb, ThreatRepo};
use iotscope_net::ports::ServiceRegistry;
use std::fmt::Write as _;

/// Intelligence inputs for the Section V parts of the report.
#[derive(Debug, Clone, Copy)]
pub struct ReportIntel<'a> {
    /// The threat repository.
    pub threats: &'a ThreatRepo,
    /// The malware database.
    pub malware: &'a MalwareDb,
    /// The hash→family resolver.
    pub resolver: &'a FamilyResolver,
    /// Top devices per realm to explore (paper: 4,000).
    pub top_n_per_realm: usize,
}

/// Everything [`Report::build`] reads, as one borrowed context — so the
/// signature stays put as inputs grow, and call sites name what they
/// pass.
#[derive(Debug, Clone, Copy)]
pub struct ReportContext<'a> {
    /// The aggregation to report on.
    pub analysis: &'a Analysis,
    /// The device inventory it was correlated against.
    pub db: &'a DeviceDb,
    /// ISP metadata for Tables I–II.
    pub isps: &'a IspRegistry,
    /// Section V intelligence inputs, if available.
    pub intel: Option<ReportIntel<'a>>,
}

/// Everything the paper reports, computed.
#[derive(Debug, Clone)]
pub struct Report {
    /// Compromised device counts `(consumer, cps)`.
    pub compromised: (usize, usize),
    /// Daily packet totals `(mean, std dev)` per realm
    /// `[all, consumer, cps]` (§IV's daily mean/σ statistics).
    pub daily_packets: [(f64, f64); 3],
    /// Flows and packets from sources outside the inventory, filtered out
    /// by correlation.
    pub unmatched: (u64, u64),
    /// Total packets from compromised devices.
    pub total_packets: u64,
    /// Countries hosting compromised devices.
    pub countries: usize,
    /// Fig 1a rows (top deployment countries).
    pub fig1a: Vec<CountryRow>,
    /// Fig 1b rows (top compromised countries).
    pub fig1b: Vec<CountryRow>,
    /// Fig 2: cumulative discovered devices per day `(all, consumer, cps)`.
    pub fig2: Vec<(usize, usize, usize)>,
    /// Fig 3: compromised consumer kinds.
    pub fig3: Vec<(ConsumerKind, usize, f64)>,
    /// Table I: top consumer ISPs.
    pub table1: Vec<IspRow>,
    /// Table II: top CPS ISPs.
    pub table2: Vec<IspRow>,
    /// Table III: top CPS services.
    pub table3: Vec<(CpsService, usize, f64)>,
    /// Fig 4: `[realm][TCP,UDP,ICMP]` percentages.
    pub fig4: [[f64; 3]; 2],
    /// §IV Mann–Whitney: per-device packets, CPS vs consumer.
    pub realm_packet_test: Option<MannWhitney>,
    /// UDP summary (§IV-A).
    pub udp_summary: UdpSummary,
    /// Table IV rows.
    pub table4: Vec<UdpPortRow>,
    /// Fig 5 Pearson (consumer ports↔destinations).
    pub udp_correlation: Option<Correlation>,
    /// DoS summary (§IV-B).
    pub dos_summary: DosSummary,
    /// Fig 7 spike events.
    pub dos_spikes: Vec<SpikeEvent>,
    /// §IV-B1 Mann–Whitney: hourly backscatter, consumer vs CPS.
    pub backscatter_test: Option<MannWhitney>,
    /// Fig 8 rows.
    pub fig8: Vec<VictimCountryRow>,
    /// Scan summary (§IV-C).
    pub scan_summary: ScanSummary,
    /// Table V rows.
    pub table5: Vec<ServiceRow>,
    /// Table V named-group coverage (paper: 93.3%).
    pub table5_coverage: f64,
    /// §IV-C Pearson: hourly scanners vs scan packets (≈ 0).
    pub scanners_correlation: Option<Correlation>,
    /// Section V results, when intel inputs were provided.
    pub threat_summary: Option<ThreatSummary>,
    /// Table VII results, when intel inputs were provided.
    pub malware_findings: Option<MalwareFindings>,
}

impl Report {
    /// Compute the full report from one borrowed [`ReportContext`].
    pub fn build(ctx: &ReportContext<'_>) -> Report {
        let ReportContext {
            analysis,
            db,
            isps,
            intel,
        } = *ctx;
        let registry = ServiceRegistry::standard();
        // Every aggregate the query surface serves is read through it, so
        // the daemon's endpoints and this report can never disagree.
        let api = QueryContext::batch(analysis, db, isps);
        let summary = api.summary();
        let (threat_summary, malware_findings) = match intel {
            Some(i) => {
                // The §V join now runs through the scoring engine: build
                // the streaming-lookup index, fold the finished analysis
                // once, and read both tables off the score table —
                // bit-identical to the old direct joins.
                let candidates = api.candidates(i.top_n_per_realm);
                let index = IntelIndex::build(i.threats, i.malware);
                let scores =
                    crate::score::ScoreTable::from_batch(analysis, db, &index, Default::default());
                (
                    Some(malicious::threat_summary(&scores, &candidates)),
                    Some(malicious::malware_correlation(
                        &scores, i.malware, i.resolver,
                    )),
                )
            }
            None => (None, None),
        };
        let daily = |realm| {
            let days: Vec<f64> = analysis
                .daily_packet_totals(realm)
                .into_iter()
                .map(|d| d as f64)
                .collect();
            (crate::stats::mean(&days), crate::stats::std_dev(&days))
        };
        Report {
            compromised: (summary.consumer, summary.cps),
            daily_packets: [
                daily(None),
                daily(Some(Realm::Consumer)),
                daily(Some(Realm::Cps)),
            ],
            unmatched: (summary.unmatched_flows, summary.unmatched_packets),
            total_packets: summary.total_packets,
            countries: summary.countries,
            fig1a: characterize::country_deployment(db)
                .into_iter()
                .take(15)
                .collect(),
            fig1b: api.countries().into_iter().take(15).collect(),
            fig2: analysis.discovery_curve(),
            fig3: characterize::consumer_kind_breakdown(analysis, db),
            table1: api.isps(Realm::Consumer, 5),
            table2: api.isps(Realm::Cps, 5),
            table3: characterize::cps_service_breakdown(analysis, db)
                .into_iter()
                .take(10)
                .collect(),
            fig4: characterize::protocol_mix(analysis),
            realm_packet_test: characterize::realm_packet_test(analysis),
            udp_summary: udp::summary(analysis),
            table4: udp::top_ports(analysis, &registry, 10),
            udp_correlation: udp::ports_ips_correlation(analysis, Realm::Consumer),
            dos_summary: dos::summary(analysis, 1000),
            dos_spikes: dos::detect_spikes(analysis, 6.0),
            backscatter_test: dos::backscatter_realm_test(analysis),
            fig8: dos::victim_countries(analysis, db)
                .into_iter()
                .take(15)
                .collect(),
            scan_summary: scan::summary(analysis),
            table5: scan::protocol_table(analysis),
            table5_coverage: scan::named_coverage(analysis),
            scanners_correlation: scan::scanners_vs_packets_correlation(analysis),
            threat_summary,
            malware_findings,
        }
    }

    /// Render the report as readable text, one section per paper artifact.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "==== iotscope report ====");
        let _ = writeln!(
            s,
            "compromised devices: {} ({} consumer / {} CPS), {} countries, {} packets",
            self.compromised.0 + self.compromised.1,
            self.compromised.0,
            self.compromised.1,
            self.countries,
            self.total_packets,
        );
        let _ = writeln!(
            s,
            "daily packets: mean={:.0} sd={:.0} (consumer {:.0}/{:.0}, cps {:.0}/{:.0}); {} noise flows filtered",
            self.daily_packets[0].0,
            self.daily_packets[0].1,
            self.daily_packets[1].0,
            self.daily_packets[1].1,
            self.daily_packets[2].0,
            self.daily_packets[2].1,
            self.unmatched.0,
        );

        let _ = writeln!(s, "\n-- Fig 1a: top countries by deployed IoT devices --");
        for r in &self.fig1a {
            let _ = writeln!(
                s,
                "{:<16} consumer={:<8} cps={:<8}",
                r.country.name(),
                r.consumer,
                r.cps
            );
        }
        let _ = writeln!(
            s,
            "\n-- Fig 1b: top countries by compromised IoT devices --"
        );
        for r in &self.fig1b {
            let pct = r.pct_compromised.unwrap_or(0.0);
            let _ = writeln!(
                s,
                "{:<16} consumer={:<7} cps={:<7} compromised={:.1}%",
                r.country.name(),
                r.consumer,
                r.cps,
                pct
            );
        }
        let _ = writeln!(s, "\n-- Fig 2: cumulative discovered devices per day --");
        let window = iotscope_net::time::AnalysisWindow::paper();
        for (d, (all, c, x)) in self.fig2.iter().enumerate() {
            let (y, mo, day, _) = window.start().plus(d as u64 * 24).civil();
            let _ = writeln!(
                s,
                "day {d} ({y:04}-{mo:02}-{day:02}): all={all} consumer={c} cps={x}"
            );
        }
        let _ = writeln!(s, "\n-- Fig 3: compromised consumer devices by type --");
        for (kind, n, pct) in &self.fig3 {
            let _ = writeln!(s, "{kind:<26} {n:>7} ({pct:.1}%)");
        }
        let _ = writeln!(s, "\n-- Table I: top ISPs, compromised consumer devices --");
        for r in &self.table1 {
            let _ = writeln!(
                s,
                "{:<20} {:<14} {:>6} ({:.1}%)",
                r.name, r.country, r.devices, r.pct
            );
        }
        let _ = writeln!(s, "\n-- Table II: top ISPs, compromised CPS devices --");
        for r in &self.table2 {
            let _ = writeln!(
                s,
                "{:<20} {:<14} {:>6} ({:.1}%)",
                r.name, r.country, r.devices, r.pct
            );
        }
        let _ = writeln!(
            s,
            "\n-- Table III: top CPS services among compromised devices --"
        );
        for (svc, n, pct) in &self.table3 {
            let _ = writeln!(s, "{:<28} {:>6} ({:.1}%)", svc.to_string(), n, pct);
        }
        let _ = writeln!(s, "\n-- Fig 4: protocol mix (% of all device traffic) --");
        for (r, name) in [(0usize, "Consumer"), (1, "CPS")] {
            let _ = writeln!(
                s,
                "{name:<9} TCP={:.1}% UDP={:.1}% ICMP={:.1}%",
                self.fig4[r][0], self.fig4[r][1], self.fig4[r][2]
            );
        }
        if let Some(mw) = &self.realm_packet_test {
            let _ = writeln!(
                s,
                "per-device packets CPS vs consumer: U={:.0} Z={:.2} p={:.2e}",
                mw.u, mw.z, mw.p_value
            );
        }

        let u = &self.udp_summary;
        let _ = writeln!(s, "\n-- §IV-A / Fig 5 / Table IV: UDP --");
        let _ = writeln!(
            s,
            "udp packets={} devices={} consumer pkt share={:.0}% device share={:.0}%",
            u.total_packets,
            u.devices,
            100.0 * u.consumer_packet_share,
            100.0 * u.consumer_device_share
        );
        let _ = writeln!(
            s,
            "hourly mean dsts: consumer={:.0} cps={:.0}; mean ports: consumer={:.0} cps={:.0}",
            u.consumer_mean_dsts, u.cps_mean_dsts, u.consumer_mean_ports, u.cps_mean_ports
        );
        if let Some(c) = &self.udp_correlation {
            let _ = writeln!(
                s,
                "consumer ports~destinations Pearson r={:.2} p={:.1e}",
                c.r, c.p_value
            );
        }
        for r in &self.table4 {
            let _ = writeln!(
                s,
                "{:<14}/{:<6} pkts={:<9} ({:.2}%) devices={}",
                r.label, r.port, r.packets, r.pct, r.devices
            );
        }

        let d = &self.dos_summary;
        let _ = writeln!(s, "\n-- §IV-B / Figs 6-8: backscatter --");
        let _ = writeln!(
            s,
            "victims={} (CPS {:.0}%), backscatter pkts={} (CPS {:.0}%), {:.1}% of traffic, heavy(>{})={}",
            d.victims,
            100.0 * d.cps_victim_share,
            d.packets,
            100.0 * d.cps_packet_share,
            100.0 * d.backscatter_traffic_share,
            d.heavy_threshold,
            d.heavy_victims
        );
        if let Some(mw) = &self.backscatter_test {
            let _ = writeln!(
                s,
                "hourly backscatter consumer vs CPS: U={:.0} Z={:.2} p={:.2e}",
                mw.u, mw.z, mw.p_value
            );
        }
        let _ = writeln!(s, "DoS spike intervals (dominant victim share):");
        for e in &self.dos_spikes {
            let _ = writeln!(
                s,
                "  interval {:<4} pkts={:<8} victim dev#{} share={:.0}%",
                e.interval,
                e.total,
                e.victim.0,
                100.0 * e.victim_share
            );
        }
        let _ = writeln!(
            s,
            "Fig 8: top countries by DoS victims / backscatter packets:"
        );
        for r in &self.fig8 {
            let _ = writeln!(
                s,
                "  {:<16} victims={:<4} (consumer {} / cps {}) pkts={}",
                r.country.name(),
                r.victims(),
                r.consumer_victims,
                r.cps_victims,
                r.packets
            );
        }

        let sc = &self.scan_summary;
        let _ = writeln!(s, "\n-- §IV-C / Fig 9 / Table V / Fig 10: scanning --");
        let _ = writeln!(
            s,
            "tcp scan pkts={} devices={} (consumer {:.0}%), hourly mean pkts consumer={:.0} cps={:.0}",
            sc.tcp_packets,
            sc.tcp_devices,
            100.0 * sc.consumer_device_share,
            sc.consumer_mean_packets,
            sc.cps_mean_packets
        );
        let _ = writeln!(
            s,
            "hourly mean ports consumer={:.0} cps={:.0}; icmp scan pkts={} from {} devices (consumer {:.0}%)",
            sc.consumer_mean_ports,
            sc.cps_mean_ports,
            sc.icmp_packets,
            sc.icmp_devices,
            100.0 * sc.icmp_consumer_packet_share
        );
        if let Some(c) = &self.scanners_correlation {
            let _ = writeln!(
                s,
                "scanners~packets Pearson r={:.2} p={:.2}",
                c.r, c.p_value
            );
        }
        let _ = writeln!(
            s,
            "Table V (named-group coverage {:.1}%):",
            self.table5_coverage
        );
        for r in &self.table5 {
            let _ = writeln!(
                s,
                "  {:<26} pkts={:<9} ({:>5.1}%) consumer={:>5.1}%/{:<5} cps={:>5.1}%/{}",
                r.label,
                r.packets,
                r.pct,
                r.consumer_pct,
                r.consumer_devices,
                r.cps_pct,
                r.cps_devices
            );
        }

        if let Some(t) = &self.threat_summary {
            let _ = writeln!(s, "\n-- §V-A / Table VI / Fig 11: threat repository --");
            let _ = writeln!(
                s,
                "explored={} flagged={} ({:.1}%), malware-linked: {} CPS / {} consumer",
                t.explored,
                t.flagged.len(),
                if t.explored == 0 {
                    0.0
                } else {
                    100.0 * t.flagged.len() as f64 / t.explored as f64
                },
                t.cps_malware_devices,
                t.consumer_malware_devices
            );
            for r in &t.rows {
                let _ = writeln!(
                    s,
                    "  {:<55} {:>5} ({:.1}%)",
                    r.category.to_string(),
                    r.devices,
                    r.pct
                );
            }
        }
        if let Some(m) = &self.malware_findings {
            let _ = writeln!(s, "\n-- §V-B / Table VII: malware families --");
            let _ = writeln!(
                s,
                "devices={} hashes={} domains={}",
                m.devices.len(),
                m.hashes.len(),
                m.domains.len()
            );
            for f in &m.families {
                let _ = writeln!(s, "  {f}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AnalysisPipeline, AnalyzeOptions};
    use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
    use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

    #[test]
    fn full_report_builds_and_renders() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(31));
        let traffic = built.scenario.generate();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let analysis = pipeline
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let candidates = analysis.view().compromised();
        let intel =
            IntelBuilder::new(IntelSynthConfig::paper(31)).build(&built.inventory.db, candidates);
        let report = Report::build(&ReportContext {
            analysis: &analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: Some(ReportIntel {
                threats: &intel.threats,
                malware: &intel.malware,
                resolver: &intel.resolver,
                top_n_per_realm: 400,
            }),
        });
        assert!(report.compromised.0 > 0);
        assert!(report.compromised.1 > 0);
        assert!(!report.fig1b.is_empty());
        assert!(!report.table5.is_empty());
        assert!(report.threat_summary.is_some());
        assert!(report.malware_findings.is_some());

        let text = report.render();
        for needle in [
            "Fig 1a",
            "Fig 1b",
            "Fig 2",
            "Fig 3",
            "Table I:",
            "Table II:",
            "Table III:",
            "Fig 4",
            "Table IV",
            "Figs 6-8",
            "Table V",
            "Table VI",
            "Table VII",
        ] {
            assert!(text.contains(needle), "render missing {needle}");
        }
    }

    #[test]
    fn daily_stats_and_unmatched_are_populated() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(33));
        let traffic = built.scenario.generate();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let analysis = pipeline
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let report = Report::build(&ReportContext {
            analysis: &analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: None,
        });
        // Six days of traffic → positive daily means; consumer + cps means
        // roughly compose the overall mean.
        assert!(report.daily_packets[0].0 > 0.0);
        let composed = report.daily_packets[1].0 + report.daily_packets[2].0;
        let rel = (composed - report.daily_packets[0].0).abs() / report.daily_packets[0].0;
        assert!(rel < 1e-9, "consumer+cps should equal all: {rel}");
        // Noise was filtered.
        assert!(report.unmatched.0 > 0);
        let text = report.render();
        assert!(text.contains("daily packets: mean="));
        assert!(text.contains("noise flows filtered"));
    }

    #[test]
    fn report_without_intel_omits_section_v() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(32));
        let traffic: Vec<_> = (1..=12).map(|i| built.scenario.generate_hour(i)).collect();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let analysis = pipeline
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let report = Report::build(&ReportContext {
            analysis: &analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: None,
        });
        assert!(report.threat_summary.is_none());
        assert!(report.malware_findings.is_none());
        let text = report.render();
        assert!(!text.contains("Table VI"));
    }
}
