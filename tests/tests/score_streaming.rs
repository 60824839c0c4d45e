//! Streaming threat-intel scoring acceptance: the incremental
//! per-device [`ScoreEngine`] folded hour by hour is bit-identical to
//! the batch §V join, escalation alerts dedup by severity tier, and the
//! refactored thin-read consumers (`threat_summary`, `packet_cdfs`,
//! `malware_correlation`, `Report::build`) reproduce the pre-refactor
//! implementations exactly.
//!
//! The reference implementations below are verbatim ports of the
//! pre-refactor `core::malicious` join logic — per-call
//! `ThreatRepo`/`MalwareDb` scans over `Analysis` — kept here as the
//! golden the columnar `ScoreTable` reads must match.

use iotscope_core::malicious::{
    self, select_candidates, MalwareFindings, ThreatRow, ThreatSummary,
};
use iotscope_core::query::QueryContext;
use iotscope_core::score::{ScoreConfig, ScoreEngine, ScoreTable, Severity};
use iotscope_core::stats::Ecdf;
use iotscope_core::stream::{Alert, StreamConfig, StreamingAnalyzer};
use iotscope_core::{Analysis, Analyzer, Report, ReportContext, ReportIntel};
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_intel::family::FamilyResolver;
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::{
    IntelIndex, MalwareDb, MalwareFamily, MalwareHash, ThreatCategory, ThreatRepo,
};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// Pre-refactor reference implementations (the batch §V join as it
// existed before the ScoreTable refactor).
// ---------------------------------------------------------------------

fn reference_threat_summary(
    analysis: &Analysis,
    db: &DeviceDb,
    repo: &ThreatRepo,
    candidates: &[DeviceId],
) -> ThreatSummary {
    let mut flagged = Vec::new();
    let mut counts = [0usize; 6];
    let mut cps_malware = 0usize;
    let mut consumer_malware = 0usize;
    for id in candidates {
        let ip = db.device(*id).ip;
        let cats = repo.categories_for(ip);
        if cats.is_empty() {
            continue;
        }
        flagged.push(*id);
        for (i, cat) in ThreatCategory::ALL.iter().enumerate() {
            if cats.contains(cat) {
                counts[i] += 1;
            }
        }
        if cats.contains(&ThreatCategory::Malware) {
            match analysis
                .devices
                .get(*id)
                .map(|o| o.realm)
                .unwrap_or(Realm::Consumer)
            {
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

fn reference_packet_cdfs(
    analysis: &Analysis,
    db: &DeviceDb,
    repo: &ThreatRepo,
    candidates: &[DeviceId],
) -> (Ecdf, Ecdf) {
    let mut all = Vec::with_capacity(candidates.len());
    let mut flagged = Vec::new();
    for id in candidates {
        let Some(obs) = analysis.devices.get(*id) else {
            continue;
        };
        let pkts = obs.total_packets() as f64;
        all.push(pkts);
        if repo.is_flagged(db.device(*id).ip) {
            flagged.push(pkts);
        }
    }
    (Ecdf::new(all), Ecdf::new(flagged))
}

fn reference_malware_correlation(
    analysis: &Analysis,
    db: &DeviceDb,
    malware: &MalwareDb,
    resolver: &FamilyResolver,
) -> MalwareFindings {
    let mut devices = Vec::new();
    let mut hashes: BTreeSet<MalwareHash> = BTreeSet::new();
    let mut domains: BTreeSet<String> = BTreeSet::new();
    for &id in analysis.view().compromised() {
        let ip = db.device(id).ip;
        let sample_hashes = malware.hashes_contacting(ip);
        if sample_hashes.is_empty() {
            continue;
        }
        devices.push(id);
        hashes.extend(sample_hashes);
        domains.extend(malware.domains_contacting(ip));
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

// ---------------------------------------------------------------------
// Shared fixture: a tiny scenario prefix with intel synthesized from
// its own batch candidates.
// ---------------------------------------------------------------------

struct Fixture {
    built: iotscope_telescope::paper::BuiltScenario,
    traffic: Vec<iotscope_telescope::HourTraffic>,
    analysis: Analysis,
    candidates: Vec<DeviceId>,
    intel: iotscope_intel::synth::IntelOutput,
    index: IntelIndex,
}

fn fixture(seed: u64, hours: u32) -> Fixture {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(seed));
    let traffic: Vec<_> = (1..=hours)
        .map(|i| built.scenario.generate_hour(i))
        .collect();
    let mut an = Analyzer::new(&built.inventory.db, 143);
    for h in &traffic {
        an.ingest_hour(h);
    }
    let analysis = an.finish();
    let candidates = select_candidates(analysis.view(), 200);
    let intel =
        IntelBuilder::new(IntelSynthConfig::paper(seed)).build(&built.inventory.db, &candidates);
    let index = IntelIndex::build(&intel.threats, &intel.malware);
    Fixture {
        built,
        traffic,
        analysis,
        candidates,
        intel,
        index,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence: folding random hour prefixes through
    /// the streaming engine yields a ScoreTable bit-identical to the
    /// batch join of the same prefix, escalation alerts never repeat a
    /// tier per device, and the streamed alert set is exactly the batch
    /// table's above-threshold rows.
    #[test]
    fn streaming_scores_match_batch_on_random_prefixes(
        seed in 0u64..10_000,
        hours in 6u32..40,
    ) {
        let f = fixture(seed, hours);
        let cfg = ScoreConfig::default();
        let batch =
            ScoreTable::from_batch(&f.analysis, &f.built.inventory.db, &f.index, cfg);

        let mut stream =
            StreamingAnalyzer::new(&f.built.inventory.db, 143, StreamConfig::default())
                .with_intel(&f.index, cfg);
        for h in &f.traffic {
            stream.push_hour(h);
        }
        let (_, alerts, scores) = stream.finish_with_scores();
        let streamed = scores.expect("intel stage attached");
        prop_assert_eq!(&streamed, &batch, "streamed table != batch join");

        // Dedup: per device, escalation tiers are strictly increasing,
        // and the last one matches the final table tier.
        let mut last: HashMap<DeviceId, Severity> = HashMap::new();
        for a in &alerts {
            if let Alert::ScoreEscalation { device, tier, .. } = a {
                if let Some(prev) = last.get(device) {
                    prop_assert!(tier > prev, "repeated or regressed tier for {device:?}");
                }
                prop_assert!(*tier >= cfg.alert_min_tier);
                last.insert(*device, *tier);
            }
        }
        for (device, tier) in &last {
            let row = streamed.get(*device).expect("alerted device is scored");
            prop_assert_eq!(row.tier, *tier, "final escalation disagrees with table");
        }
        // Completeness: exactly the batch rows at or above the alert
        // floor escalated at some point during the run.
        let expected: BTreeSet<DeviceId> = batch
            .rows()
            .filter(|r| r.tier >= cfg.alert_min_tier)
            .map(|r| r.device)
            .collect();
        let alerted: BTreeSet<DeviceId> = last.keys().copied().collect();
        prop_assert_eq!(alerted, expected, "streamed alert set != batch tier set");
    }

    /// After every hour, the stream's score fold — which rescores only
    /// the devices the hour touched — leaves the same table as an
    /// engine rescanning every row of the same analysis, and raises the
    /// same escalations in the same (analysis row) order.
    #[test]
    fn touched_row_fold_matches_rescanning_every_row(
        seed in 0u64..10_000,
        hours in 6u32..40,
    ) {
        let f = fixture(seed, hours);
        let db = &f.built.inventory.db;
        let cfg = ScoreConfig::default();
        let mut stream =
            StreamingAnalyzer::new(db, 143, StreamConfig::default()).with_intel(&f.index, cfg);
        let mut rescan = ScoreEngine::new(db, &f.index, cfg);
        for h in &f.traffic {
            let touched: Vec<(DeviceId, Severity, u32)> = stream
                .push_hour(h)
                .into_iter()
                .filter_map(|a| match a {
                    Alert::ScoreEscalation { device, tier, points, .. } => {
                        Some((device, tier, points))
                    }
                    _ => None,
                })
                .collect();
            let every: Vec<(DeviceId, Severity, u32)> = rescan
                .fold(&stream.snapshot())
                .into_iter()
                .map(|e| (e.device, e.tier, e.points))
                .collect();
            prop_assert_eq!(&touched, &every, "escalations at interval {}", h.interval);
            let table = stream.scores().expect("intel stage attached");
            prop_assert_eq!(table, rescan.table(), "table at interval {}", h.interval);
            prop_assert_eq!(table.ids(), rescan.table().ids(), "row order at {}", h.interval);
        }
    }

    /// The refactored thin-read consumers reproduce the pre-refactor
    /// per-call-scan implementations bit for bit, including the
    /// Report::build intel section.
    #[test]
    fn thin_reads_match_prerefactor_references(seed in 0u64..10_000, hours in 6u32..30) {
        let f = fixture(seed, hours);
        let db = &f.built.inventory.db;
        let scores = ScoreTable::from_batch(&f.analysis, db, &f.index, ScoreConfig::default());

        let summary = malicious::threat_summary(&scores, &f.candidates);
        let reference = reference_threat_summary(&f.analysis, db, &f.intel.threats, &f.candidates);
        prop_assert_eq!(&summary, &reference);

        let cdfs = malicious::packet_cdfs(&scores, &f.candidates);
        let ref_cdfs = reference_packet_cdfs(&f.analysis, db, &f.intel.threats, &f.candidates);
        prop_assert_eq!(cdfs, ref_cdfs);

        let findings =
            malicious::malware_correlation(&scores, &f.intel.malware, &f.intel.resolver);
        let ref_findings =
            reference_malware_correlation(&f.analysis, db, &f.intel.malware, &f.intel.resolver);
        prop_assert_eq!(&findings, &ref_findings);

        // Report::build drives the same join through QueryApi-selected
        // candidates; its intel sections must equal the references
        // computed from the identical candidate list.
        let report = Report::build(&ReportContext {
            analysis: &f.analysis,
            db,
            isps: &f.built.inventory.isps,
            intel: Some(ReportIntel {
                threats: &f.intel.threats,
                malware: &f.intel.malware,
                resolver: &f.intel.resolver,
                top_n_per_realm: 200,
            }),
        });
        let api = QueryContext::batch(&f.analysis, db, &f.built.inventory.isps);
        let report_candidates = iotscope_core::query::QueryApi::candidates(&api, 200);
        let expected_summary =
            reference_threat_summary(&f.analysis, db, &f.intel.threats, &report_candidates);
        prop_assert_eq!(report.threat_summary, Some(expected_summary));
        prop_assert_eq!(report.malware_findings, Some(ref_findings));
    }
}

/// Escalations interleave with behavioral alerts in interval order, and
/// a device crossing several tiers in one hour raises exactly one
/// escalation for the highest tier reached.
#[test]
fn escalations_stream_in_interval_order() {
    let f = fixture(321, 48);
    let mut stream = StreamingAnalyzer::new(&f.built.inventory.db, 143, StreamConfig::default())
        .with_intel(&f.index, ScoreConfig::default());
    let mut intervals = Vec::new();
    for h in &f.traffic {
        for a in stream.push_hour(h) {
            if let Alert::ScoreEscalation { interval, .. } = a {
                intervals.push(interval);
            }
        }
    }
    assert!(!intervals.is_empty(), "tiny scenario plants intel hits");
    assert!(
        intervals.windows(2).all(|w| w[0] <= w[1]),
        "escalations out of interval order"
    );
}
