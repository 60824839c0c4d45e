//! End-to-end validation of the §VI/§VII follow-up features: fuzzy
//! fingerprinting of unindexed devices, malware attribution, botnet
//! clustering, and near-real-time streaming — all over the calibrated
//! paper scenario.

use iotscope_core::behavior;
use iotscope_core::botnet::{self, BotnetConfig};
use iotscope_core::fingerprint::{candidate_iot_devices, FingerprintModel};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::stream::{Alert, StreamConfig, StreamingAnalyzer};
use iotscope_core::{attribution, malicious};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

fn fixture() -> &'static (BuiltScenario, Vec<HourTraffic>) {
    static FIXTURE: OnceLock<(BuiltScenario, Vec<HourTraffic>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(404));
        let traffic = built.scenario.generate();
        (built, traffic)
    })
}

#[test]
fn fingerprinting_finds_planted_shadow_iot() {
    let (built, traffic) = fixture();
    let vectors = behavior::extract(traffic, &built.inventory.db, 143);
    let model = FingerprintModel::train(&vectors).expect("matched devices exist");
    assert!(model.trained_on() > 500);

    let candidates = candidate_iot_devices(&model, &vectors, 0.55, 20);
    let flagged: HashSet<Ipv4Addr> = candidates.iter().map(|c| c.ip).collect();
    let shadow: HashSet<Ipv4Addr> = built.truth.shadow_iot.iter().copied().collect();

    // Recall: most planted shadow IoT devices are flagged.
    let recovered = shadow.intersection(&flagged).count();
    assert!(
        recovered as f64 >= 0.7 * shadow.len() as f64,
        "recovered {recovered} of {} shadow devices; flagged {:?}",
        shadow.len(),
        flagged
    );
    // Precision: flagged non-shadow sources are rare (noise scans
    // enterprise ports, which the model scores low).
    let false_positives = flagged.difference(&shadow).count();
    assert!(
        false_positives <= flagged.len() / 3,
        "{false_positives} false positives of {} flagged",
        flagged.len()
    );
}

#[test]
fn botnet_clustering_recovers_planted_crews() {
    let (built, traffic) = fixture();
    let vectors = behavior::extract(traffic, &built.inventory.db, 143);
    let clusters = botnet::cluster(&vectors, &BotnetConfig::default());
    assert!(
        clusters.len() >= built.truth.botnets.len(),
        "found {} clusters, planted {}",
        clusters.len(),
        built.truth.botnets.len()
    );
    // Every planted crew maps to one discovered cluster containing most
    // of its members.
    for planted in &built.truth.botnets {
        let planted_set: HashSet<_> = planted.iter().copied().collect();
        let best = clusters
            .iter()
            .map(|c| c.devices.iter().filter(|d| planted_set.contains(d)).count())
            .max()
            .unwrap_or(0);
        assert!(
            best as f64 >= 0.8 * planted.len() as f64,
            "crew of {} only matched {best}",
            planted.len()
        );
    }
}

#[test]
fn attribution_scores_direct_contacts_highest() {
    let (built, traffic) = fixture();
    let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
        .run(traffic, &AnalyzeOptions::new())
        .unwrap()
        .analysis;
    let candidates = malicious::select_candidates(analysis.view(), 400);
    let intel =
        IntelBuilder::new(IntelSynthConfig::paper(404)).build(&built.inventory.db, &candidates);
    let vectors = behavior::extract(traffic, &built.inventory.db, 143);
    let findings = attribution::attribute(
        &vectors,
        &built.inventory.db,
        &intel.malware,
        &intel.resolver,
        attribution::DEFAULT_MIN_SCORE,
    );
    assert!(!findings.is_empty());
    // Every direct-contact device from the §V-B join is attributed.
    let attributed: HashSet<_> = findings.iter().map(|f| f.device).collect();
    let index = iotscope_intel::IntelIndex::build(&intel.threats, &intel.malware);
    let scores = iotscope_core::ScoreTable::from_batch(
        &analysis,
        &built.inventory.db,
        &index,
        Default::default(),
    );
    let direct = malicious::malware_correlation(&scores, &intel.malware, &intel.resolver);
    for d in &direct.devices {
        assert!(
            attributed.contains(d),
            "direct-contact device {d} unattributed"
        );
    }
    // Direct-contact findings outrank behavioral-only ones.
    let min_direct = findings
        .iter()
        .filter(|f| f.evidence.direct_contact)
        .map(|f| f.score)
        .fold(f64::INFINITY, f64::min);
    let max_indirect = findings
        .iter()
        .filter(|f| !f.evidence.direct_contact)
        .map(|f| f.score)
        .fold(0.0, f64::max);
    assert!(min_direct >= 0.6);
    assert!(max_indirect <= 0.4 + 1e-9);
    // Findings are sorted descending.
    for pair in findings.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
}

#[test]
fn streaming_alerts_reconstruct_the_event_timeline() {
    let (built, traffic) = fixture();
    let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
    let mut live_alerts: Vec<Alert> = Vec::new();
    for hour in traffic {
        live_alerts.extend(stream.push_hour(hour));
    }
    let (analysis, logged) = stream.finish();
    assert_eq!(live_alerts, logged);

    // Discovery totals equal the batch analysis.
    let discovered: usize = logged
        .iter()
        .filter_map(|a| match a {
            Alert::NewDevices { count, .. } => Some(*count),
            _ => None,
        })
        .sum();
    assert_eq!(discovered, analysis.device_count());

    // The big planted DoS episodes raise spike alerts outside warmup.
    let spikes: Vec<u32> = logged
        .iter()
        .filter_map(|a| match a {
            Alert::DosSpike { interval, .. } => Some(*interval),
            _ => None,
        })
        .collect();
    assert!(
        spikes.iter().any(|i| (53..=56).contains(i))
            || spikes.iter().any(|i| [99, 127].contains(i)),
        "spikes {spikes:?}"
    );

    // The interval-119 sweep raises a consumer port-sweep alert.
    assert!(logged.iter().any(|a| matches!(
        a,
        Alert::PortSweep {
            interval: 119,
            realm: iotscope_devicedb::Realm::Consumer,
            ..
        }
    )));
}
