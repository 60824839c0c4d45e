//! A live telescope operations console (§VI/§VII follow-ups combined).
//!
//! Streams the 143-hour window hour-by-hour through the near-real-time
//! analyzer, printing alerts as they fire, and folds each hour into the
//! per-source behavior vectors as it passes; afterwards it runs the
//! three investigation follow-ups over those vectors:
//!
//! 1. fuzzy fingerprinting — unindexed sources that behave like IoT;
//! 2. botnet clustering — synchronized scanning crews;
//! 3. malware attribution — family attribution with evidence.
//!
//! ```text
//! cargo run -p iotscope-examples --release --bin live_telescope
//! ```

use iotscope_core::behavior::BehaviorFold;
use iotscope_core::botnet::{self, BotnetConfig};
use iotscope_core::fingerprint::{candidate_iot_devices, FingerprintModel};
use iotscope_core::stream::{Alert, StreamConfig, StreamingAnalyzer};
use iotscope_core::{attribution, malicious};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_net::store::FlowSink;
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

fn main() {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(31415));
    println!(
        "telescope online: {} inventory devices, {} planted shadow devices, {} planted botnets\n",
        built.inventory.db.len(),
        built.truth.shadow_iot.len(),
        built.truth.botnets.len()
    );

    // ---- phase 1: streaming watch ---------------------------------------
    println!("== streaming watch (alerts as hours arrive) ==");
    let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
    let mut behavior = BehaviorFold::new(&built.inventory.db, 143);
    let mut printed = 0usize;
    for i in 1..=143u32 {
        let hour = built.scenario.generate_hour(i);
        behavior.begin_hour(i).on_flows(&hour.flows);
        for alert in stream.push_hour(&hour) {
            match alert {
                Alert::NewDevices { .. } => {} // too chatty for a console
                Alert::DosSpike {
                    interval,
                    packets,
                    factor,
                    victim,
                } => {
                    let who = victim
                        .map(|(d, share)| format!("dev#{} ({:.0}%)", d.0, 100.0 * share))
                        .unwrap_or_else(|| "unknown".into());
                    println!("  [h{interval:>3}] DoS spike: {packets} pkts ({factor:.1}x baseline) victim {who}");
                    printed += 1;
                }
                Alert::ScanSurge {
                    interval,
                    service,
                    packets,
                    factor,
                } => {
                    println!(
                        "  [h{interval:>3}] scan surge: {service} {packets} pkts ({factor:.1}x)"
                    );
                    printed += 1;
                }
                Alert::PortSweep {
                    interval,
                    realm,
                    ports,
                    factor,
                } => {
                    println!("  [h{interval:>3}] port sweep: {realm} hit {ports} distinct ports ({factor:.1}x)");
                    printed += 1;
                }
                Alert::ScoreEscalation {
                    interval,
                    device,
                    tier,
                    points,
                } => {
                    // Only fires when an intel index is attached via
                    // `with_intel`; this example streams without one.
                    println!(
                        "  [h{interval:>3}] score escalation: dev#{} now {tier} ({points} pts)",
                        device.0
                    );
                    printed += 1;
                }
            }
        }
    }
    let (analysis, alerts) = stream.finish();
    println!(
        "  … {printed} operational alerts shown, {} total (incl. discovery); {} devices indexed\n",
        alerts.len(),
        analysis.device_count()
    );

    // ---- phase 2: fingerprint unindexed IoT ------------------------------
    println!("== fingerprinting unindexed IoT devices ==");
    let vectors = behavior.finish();
    let model = FingerprintModel::train(&vectors).expect("matched devices exist");
    let candidates = candidate_iot_devices(&model, &vectors, 0.55, 20);
    println!(
        "  model: {} reference groups from {} devices",
        model.num_groups(),
        model.trained_on()
    );
    let planted: std::collections::HashSet<_> = built.truth.shadow_iot.iter().collect();
    for c in candidates.iter().take(8) {
        let verdict = if planted.contains(&c.ip) {
            "planted shadow device ✔"
        } else {
            "(other)"
        };
        println!(
            "  {:<16} score {:.2} {:>8} pkts  {verdict}",
            c.ip, c.score, c.packets
        );
    }
    println!(
        "  flagged {} candidates; {} of {} planted shadow devices recovered\n",
        candidates.len(),
        candidates
            .iter()
            .filter(|c| planted.contains(&c.ip))
            .count(),
        planted.len()
    );

    // ---- phase 3: botnet clustering --------------------------------------
    println!("== botnet clustering ==");
    let clusters = botnet::cluster(&vectors, &BotnetConfig::default());
    for (i, c) in clusters.iter().enumerate() {
        println!(
            "  cluster {}: {} members, signature ports {:?}, peak at hour {}, {} pkts",
            i + 1,
            c.size(),
            c.signature_ports,
            c.peak_interval,
            c.total_packets
        );
    }
    println!(
        "  (planted: {} coordinated crews)\n",
        built.truth.botnets.len()
    );

    // ---- phase 4: malware attribution ------------------------------------
    println!("== malware attribution ==");
    let candidates = malicious::select_candidates(analysis.view(), 400);
    let intel =
        IntelBuilder::new(IntelSynthConfig::paper(31415)).build(&built.inventory.db, &candidates);
    let findings = attribution::attribute(
        &vectors,
        &built.inventory.db,
        &intel.malware,
        &intel.resolver,
        attribution::DEFAULT_MIN_SCORE,
    );
    for f in findings.iter().take(8) {
        println!(
            "  dev#{:<6} → {:<10} score {:.2}  direct={} port-overlap={:?}",
            f.device.0,
            f.family.to_string(),
            f.score,
            f.evidence.direct_contact,
            f.evidence.port_overlap
        );
    }
    println!("  {} attributions total", findings.len());
}
