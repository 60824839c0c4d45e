//! Inference-vs-ground-truth validation: whatever the simulator plants,
//! the analysis pipeline must recover — and nothing else.

use iotscope_core::classify::TrafficClass;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_telescope::ground_truth::Role;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use std::collections::HashSet;
use std::sync::OnceLock;

fn fixture() -> &'static (BuiltScenario, iotscope_core::Analysis) {
    static FIXTURE: OnceLock<(BuiltScenario, iotscope_core::Analysis)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(99));
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        (built, analysis)
    })
}

#[test]
fn every_designated_device_is_inferred() {
    let (built, analysis) = fixture();
    let designated: HashSet<_> = built
        .inventory
        .designated_consumer
        .iter()
        .chain(built.inventory.designated_cps.iter())
        .copied()
        .collect();
    let inferred: HashSet<_> = analysis.view().compromised().iter().copied().collect();
    assert_eq!(
        inferred, designated,
        "inference must recover exactly the planted set"
    );
}

#[test]
fn no_benign_device_is_inferred() {
    let (built, analysis) = fixture();
    let designated: HashSet<_> = built
        .inventory
        .designated_consumer
        .iter()
        .chain(built.inventory.designated_cps.iter())
        .copied()
        .collect();
    for id in analysis.devices.ids() {
        assert!(
            designated.contains(id),
            "benign device {id} falsely inferred"
        );
    }
}

#[test]
fn noise_sources_are_filtered_not_correlated() {
    let (built, analysis) = fixture();
    assert!(
        analysis.unmatched_flows > 0,
        "noise must reach the telescope"
    );
    // Noise sources live outside the inventory; every observation maps to
    // a real device (guaranteed by construction of lookup, asserted via
    // the device-id space).
    for id in analysis.devices.ids() {
        assert!((id.0 as usize) < built.inventory.db.len());
    }
}

#[test]
fn planted_victims_are_inferred_as_victims() {
    let (built, analysis) = fixture();
    let truth_victims: HashSet<_> = built
        .truth
        .devices_with_role(Role::DosVictim)
        .into_iter()
        .collect();
    let inferred_victims: HashSet<_> = analysis.view().dos_victims().iter().copied().collect();
    // Every planted victim emitted backscatter and was classified as such.
    for v in &truth_victims {
        assert!(inferred_victims.contains(v), "victim {v} not inferred");
    }
    // No scanner-only device is classified as a victim.
    for v in &inferred_victims {
        assert!(
            truth_victims.contains(v),
            "device {v} inferred as victim but never planted as one"
        );
    }
}

#[test]
fn planted_tcp_scanners_emit_tcp_scans() {
    let (built, analysis) = fixture();
    let truth_scanners: HashSet<_> = built
        .truth
        .devices_with_role(Role::TcpScanner)
        .into_iter()
        .collect();
    let inferred: HashSet<_> = analysis.view().tcp_scanners().iter().copied().collect();
    let recovered = truth_scanners.intersection(&inferred).count();
    // Nearly all planted scanners are observed scanning (tiny budgets may
    // emit only their guaranteed UDP-free discovery flow).
    assert!(
        recovered as f64 > 0.95 * truth_scanners.len() as f64,
        "recovered {recovered} of {}",
        truth_scanners.len()
    );
    // And no victim shows up as a TCP scanner.
    for v in built.truth.devices_with_role(Role::DosVictim) {
        assert!(!inferred.contains(&v));
    }
}

#[test]
fn planted_udp_actors_emit_udp() {
    let (built, analysis) = fixture();
    let truth_udp: HashSet<_> = built
        .truth
        .devices_with_role(Role::UdpActor)
        .into_iter()
        .collect();
    let inferred: HashSet<_> = analysis.view().udp_devices().iter().copied().collect();
    let recovered = truth_udp.intersection(&inferred).count();
    assert!(
        recovered as f64 > 0.95 * truth_udp.len() as f64,
        "recovered {recovered} of {}",
        truth_udp.len()
    );
}

#[test]
fn discovery_respects_truth_onsets() {
    let (built, analysis) = fixture();
    for obs in analysis.devices.rows() {
        let id = &obs.device;
        if let Some(onset) = built.truth.onset.get(id) {
            assert!(
                obs.first_interval >= *onset,
                "{id} observed at {} before onset {onset}",
                obs.first_interval
            );
        }
    }
}

#[test]
fn dos_spike_intervals_carry_planted_spikes() {
    let (built, analysis) = fixture();
    for interval in &built.truth.dos_spike_intervals {
        let idx = (*interval - 1) as usize;
        let slot = &analysis.backscatter_intervals[idx];
        assert!(
            slot.total > 0,
            "planted spike at {interval} produced no backscatter"
        );
        let victim = slot.top_victim.expect("spike interval has a top victim").0;
        assert!(
            built.truth.has_role(victim, Role::DosVictim),
            "top victim {victim} at {interval} is not a planted victim"
        );
    }
}

#[test]
fn victims_emit_only_backscatter_like_traffic() {
    let (built, analysis) = fixture();
    for v in built.truth.devices_with_role(Role::DosVictim) {
        let obs = analysis.devices.get(v).expect("planted victim correlated");
        assert!(obs.packets(TrafficClass::Backscatter) > 0);
        assert_eq!(obs.packets(TrafficClass::TcpScan), 0, "victim {v} scanned");
        assert_eq!(obs.packets(TrafficClass::Udp), 0, "victim {v} sent UDP");
    }
}

#[test]
fn icmp_scanners_recovered() {
    let (built, analysis) = fixture();
    for id in built.truth.devices_with_role(Role::IcmpScanner) {
        let obs = analysis
            .devices
            .get(id)
            .expect("planted scanner correlated");
        assert!(
            obs.packets(TrafficClass::IcmpScan) > 0,
            "planted ICMP scanner {id} emitted none"
        );
    }
}
