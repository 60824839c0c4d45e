//! Threat hunting with external intelligence (Section V).
//!
//! Runs the full pipeline, then joins the inferred devices against the
//! threat repository and the malware sandbox database: Table VI's category
//! summary, Table VII's family list, and a per-device drill-down of the
//! strongest finding — from darknet flows to malware family attribution.
//!
//! ```text
//! cargo run -p iotscope-examples --bin threat_hunting
//! ```

use iotscope_core::malicious;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::score::ScoreTable;
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::IntelIndex;
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

fn main() {
    // Simulate + infer.
    let built = PaperScenario::build(PaperScenarioConfig::tiny(1337));
    let traffic = built.scenario.generate();
    let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
        .run(&traffic, &AnalyzeOptions::new().threads(4))
        .expect("in-memory analysis")
        .analysis;
    println!("inferred {} compromised devices", analysis.device_count());

    // Stand up the intel substrates (Cymon-like repo + malware DB).
    let candidates = malicious::select_candidates(analysis.view(), 400);
    let intel =
        IntelBuilder::new(IntelSynthConfig::paper(1337)).build(&built.inventory.db, &candidates);
    println!(
        "exploring {} devices against {} indexed threat events and {} sandbox reports\n",
        candidates.len(),
        intel.threats.num_events(),
        intel.malware.len()
    );

    // Build the streaming lookup index and fold the analysis into the
    // per-device score table — Tables VI/VII are thin reads of it.
    let index = IntelIndex::build(&intel.threats, &intel.malware);
    let scores = ScoreTable::from_batch(&analysis, &built.inventory.db, &index, Default::default());

    // Table VI.
    let summary = malicious::threat_summary(&scores, &candidates);
    println!(
        "== Table VI: {} of {} explored devices flagged ({:.1}%) ==",
        summary.flagged.len(),
        summary.explored,
        100.0 * summary.flagged.len() as f64 / summary.explored as f64
    );
    for row in &summary.rows {
        println!(
            "  {:<55} {:>4} ({:.1}%)",
            row.category.to_string(),
            row.devices,
            row.pct
        );
    }

    // Table VII.
    let findings = malicious::malware_correlation(&scores, &intel.malware, &intel.resolver);
    println!(
        "\n== Table VII: {} devices touched by {} samples across {} domains ==",
        findings.devices.len(),
        findings.hashes.len(),
        findings.domains.len()
    );
    for family in &findings.families {
        println!("  {family}");
    }

    // Drill into the malware-linked device with the most traffic.
    let Some(worst) = findings
        .devices
        .iter()
        .max_by_key(|id| analysis.devices.get(**id).map_or(0, |o| o.total_packets()))
    else {
        println!("\nno malware-linked device found at this scale");
        return;
    };
    let dev = built.inventory.db.device(*worst);
    let obs = analysis
        .devices
        .get(*worst)
        .expect("malware-linked device was correlated");
    println!("\n== drill-down: {} ==", dev.ip);
    println!("  profile:  {:?}", dev.profile);
    println!(
        "  location: {} via {}",
        dev.country.name(),
        built.inventory.isps.isp(dev.isp).name()
    );
    println!(
        "  darknet:  {} packets ({} scan / {} udp / {} backscatter), first seen interval {}",
        obs.total_packets(),
        obs.scan_packets(),
        obs.packets(iotscope_core::TrafficClass::Udp),
        obs.packets(iotscope_core::TrafficClass::Backscatter),
        obs.first_interval
    );
    println!("  threat events:");
    for e in intel.threats.events_for(dev.ip).iter().take(5) {
        println!("    [{}] {}", e.source, e.category);
    }
    println!("  sandbox samples contacting it:");
    for report in intel.malware.samples_contacting(dev.ip).iter().take(3) {
        let family = intel
            .resolver
            .resolve(&report.sha256)
            .map(|f| f.to_string())
            .unwrap_or_else(|| "unknown".to_owned());
        println!(
            "    {}… → {} (domains: {})",
            &report.sha256.as_hex()[..12],
            family,
            report.network.domains.join(", ")
        );
    }
}
