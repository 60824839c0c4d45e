//! Watching a Mirai-style Telnet worm spread through a telescope.
//!
//! Instead of the paper-calibrated scenario, this example composes actors
//! by hand: an exponential wave of infected consumer devices that scan
//! Telnet (23/2323) the way Mirai did, on top of light background noise —
//! then shows how the analysis pipeline surfaces the outbreak: the
//! discovery curve bends upward, Telnet share explodes, and the infected
//! population is recovered device-for-device.
//!
//! ```text
//! cargo run -p iotscope-examples --bin mirai_outbreak
//! ```

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::scan;
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
use iotscope_devicedb::{ConsumerKind, Realm};
use iotscope_net::ports::ScanService;
use iotscope_telescope::behavior::{Actor, ActorBehavior};
use iotscope_telescope::pattern::ActivityPattern;
use iotscope_telescope::{Scenario, TelescopeConfig};

fn main() {
    let seed = 0x4D31;
    let inventory = InventoryBuilder::new(SynthConfig::small(4242)).build();

    // Infect consumer routers and cameras in exponential waves: 40 on day
    // one, doubling each day (Mirai grew from hundreds to tens of
    // thousands of bots in days).
    let bots: Vec<_> = inventory
        .db
        .iter()
        .filter(|d| {
            matches!(
                d.profile.consumer_kind(),
                Some(ConsumerKind::Router | ConsumerKind::IpCamera)
            )
        })
        .take(40 + 80 + 160 + 320 + 640)
        .collect();

    let mut actors = Vec::new();
    let mut cursor = 0usize;
    for (day, wave) in [40usize, 80, 160, 320, 640].into_iter().enumerate() {
        for i in 0..wave {
            let dev = bots[cursor + i];
            actors.push(Actor {
                device: Some(dev.id),
                src_ip: dev.ip,
                behavior: ActorBehavior::TcpScan {
                    ports: ScanService::Telnet.ports().to_vec(),
                    random_port_prob: 0.0,
                },
                pattern: ActivityPattern::Steady,
                // Each bot probes ~30 addresses/hour once infected.
                budget: 30.0 * (143.0 - (day as f64) * 24.0),
                onset: day as u32 * 24 + 1,
                retire: u32::MAX,
                guarantee_onset_flow: true,
            });
        }
        cursor += wave;
    }

    // Light pre-existing background: a handful of HTTP scanners.
    for dev in inventory
        .db
        .iter()
        .filter(|d| d.realm() == Realm::Cps)
        .take(25)
    {
        actors.push(Actor {
            device: Some(dev.id),
            src_ip: dev.ip,
            behavior: ActorBehavior::TcpScan {
                ports: ScanService::Http.ports().to_vec(),
                random_port_prob: 0.0,
            },
            pattern: ActivityPattern::Steady,
            budget: 2_000.0,
            onset: 1,
            retire: u32::MAX,
            guarantee_onset_flow: true,
        });
    }

    let scenario = Scenario::new(TelescopeConfig::paper(), seed, actors);
    let traffic = scenario.generate();

    let pipeline = AnalysisPipeline::new(&inventory.db, 143);
    let analysis = pipeline
        .run(&traffic, &AnalyzeOptions::new())
        .expect("in-memory analysis")
        .analysis;

    println!("== Mirai-style outbreak, as seen from the telescope ==\n");
    println!("day | new bots discovered | telnet pkts/day | telnet share");
    let curve = analysis.discovery_curve();
    let series = scan::top5_series(&analysis);
    let mut prev = 0usize;
    #[allow(clippy::needless_range_loop)]
    for day in 0..6usize {
        let lo = day * 24;
        let hi = ((day + 1) * 24).min(143);
        let telnet: u64 = series[lo..hi].iter().map(|r| r[0]).sum();
        let all: u64 = (lo..hi)
            .map(|i| analysis.tcp_scan[0].packets[i] + analysis.tcp_scan[1].packets[i])
            .sum();
        let share = if all == 0 {
            0.0
        } else {
            100.0 * telnet as f64 / all as f64
        };
        println!(
            "{day:>3} | {:>19} | {telnet:>15} | {share:>11.1}%",
            curve[day].0 - prev,
        );
        prev = curve[day].0;
    }

    let table = scan::protocol_table(&analysis);
    println!(
        "\ntop scanned service: {} ({:.1}% of scan packets)",
        table[0].label, table[0].pct
    );
    println!(
        "inferred scanners: {} (planted: {} bots + 25 background)",
        analysis.view().tcp_scanners().len(),
        bots.len()
    );
    assert_eq!(analysis.view().tcp_scanners().len(), bots.len() + 25);
    println!("every infected device was recovered from darknet traffic alone ✔");
}
