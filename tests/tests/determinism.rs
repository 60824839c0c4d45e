//! Determinism and scaling properties of the whole stack.

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::report::{Report, ReportContext};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

#[test]
fn same_seed_produces_identical_reports() {
    let render = |seed: u64| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(seed));
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new().threads(4))
            .unwrap()
            .analysis;
        Report::build(&ReportContext {
            analysis: &analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: None,
        })
        .render()
    };
    assert_eq!(render(123), render(123));
    assert_ne!(render(123), render(124));
}

#[test]
fn intel_population_is_deterministic_per_seed() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(5));
    let candidates = built.inventory.designated_consumer.clone();
    let a = IntelBuilder::new(IntelSynthConfig::paper(5)).build(&built.inventory.db, &candidates);
    let b = IntelBuilder::new(IntelSynthConfig::paper(5)).build(&built.inventory.db, &candidates);
    assert_eq!(a.flagged_devices, b.flagged_devices);
    assert_eq!(a.malware_devices, b.malware_devices);
    assert_eq!(a.threats.num_events(), b.threats.num_events());
    assert_eq!(a.malware.len(), b.malware.len());
}

#[test]
fn packet_budgets_scale_linearly() {
    let total = |scale: f64| {
        let mut cfg = PaperScenarioConfig::tiny(42);
        cfg.scale = scale;
        let built = PaperScenario::build(cfg);
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        analysis.view().total_packets() as f64
    };
    let t1 = total(0.01);
    let t3 = total(0.03);
    let ratio = t3 / t1;
    // The fixed-size events (port sweep, guaranteed discovery flows) damp
    // the ratio slightly below 3.
    assert!((2.2..=3.2).contains(&ratio), "ratio {ratio}");
}

#[test]
fn device_counts_do_not_scale_with_packet_scale() {
    let devices = |scale: f64| {
        let mut cfg = PaperScenarioConfig::tiny(42);
        cfg.scale = scale;
        let built = PaperScenario::build(cfg);
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        analysis.device_count()
    };
    // The inferred population is the designated population at any scale —
    // guaranteed discovery flows make low scales lossless.
    assert_eq!(devices(0.002), devices(0.05));
}

#[test]
fn telnet_dominates_at_every_scale() {
    for scale in [0.005, 0.05] {
        let mut cfg = PaperScenarioConfig::tiny(77);
        cfg.scale = scale;
        let built = PaperScenario::build(cfg);
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let rows = iotscope_core::scan::protocol_table(&analysis);
        assert_eq!(
            rows[0].service,
            Some(iotscope_net::ports::ScanService::Telnet),
            "scale {scale}"
        );
        assert!(
            rows[0].pct > 35.0,
            "scale {scale}: telnet pct {}",
            rows[0].pct
        );
    }
}
