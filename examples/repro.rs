//! `repro` — regenerate every table and figure of the paper.
//!
//! Runs the full pipeline: synthetic inventory → calibrated darknet
//! scenario → correlation/classification/characterization → intel joins,
//! then prints each artifact (Figs 1–11, Tables I–VII) plus the headline
//! scalar comparisons. See EXPERIMENTS.md for paper-vs-measured.
//!
//! ```text
//! cargo run -p iotscope-examples --release --bin repro -- [--seed N] [--scale F] [--tiny] [--csv DIR]
//! ```
//!
//! `--scale` multiplies packet budgets relative to the paper's magnitudes
//! (default 0.01 ⇒ ≈1.2M packets; a finite number > 0, anything else is a
//! usage error). `--tiny` uses the small inventory for a fast smoke run.
//! `--csv DIR` additionally dumps the figure series as CSV.

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::report::{Report, ReportContext, ReportIntel};
use iotscope_core::{scan, udp};
use iotscope_devicedb::Realm;
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use std::io::Write as _;
use std::time::Instant;

struct Args {
    seed: u64,
    scale: f64,
    tiny: bool,
    csv: Option<String>,
}

const USAGE: &str = "usage: repro [--seed N] [--scale F] [--tiny] [--csv DIR]";

/// Print an argument error plus usage and exit 2: a typo'd `--seed`
/// must not silently reproduce a different scenario.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`; missing is a usage error.
fn value_of(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// Parse the arguments after the program name; `Err` is a usage error.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        scale: 0.01,
        tiny: false,
        csv: None,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = value_of("--seed", &mut it)?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("bad value for --seed: {v:?}"))?;
            }
            "--scale" => {
                args.scale = PaperScenarioConfig::parse_scale(&value_of("--scale", &mut it)?)?;
            }
            "--tiny" => args.tiny = true,
            "--csv" => args.csv = Some(value_of("--csv", &mut it)?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| usage_error(&msg));
    let t0 = Instant::now();

    let config = if args.tiny {
        let mut c = PaperScenarioConfig::tiny(args.seed);
        c.scale = args.scale;
        c
    } else {
        PaperScenarioConfig::paper(args.seed, args.scale)
    };
    eprintln!(
        "[1/4] building inventory ({} devices) and scenario (scale {}) ...",
        config.synth.total_devices(),
        config.scale
    );
    let built = PaperScenario::build(config);
    eprintln!(
        "      {} actors, expected ~{:.0} packets ({:.1}s)",
        built.scenario.actors().len(),
        built.scenario.expected_total_packets(),
        t0.elapsed().as_secs_f64()
    );

    eprintln!("[2/4] generating 143 hours of telescope traffic ...");
    let t = Instant::now();
    let traffic = built.scenario.generate();
    let flows: usize = traffic.iter().map(|h| h.flows.len()).sum();
    eprintln!("      {} flows ({:.1}s)", flows, t.elapsed().as_secs_f64());

    eprintln!("[3/4] correlating + characterizing ...");
    let t = Instant::now();
    let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
    let analysis = pipeline
        .run(&traffic, &AnalyzeOptions::new().threads(8))
        .expect("in-memory analysis")
        .analysis;
    eprintln!(
        "      {} compromised devices ({:.1}s)",
        analysis.device_count(),
        t.elapsed().as_secs_f64()
    );

    eprintln!("[4/4] intel correlation (Section V) ...");
    let candidates = iotscope_core::malicious::select_candidates(&analysis, 4000);
    let intel = IntelBuilder::new(IntelSynthConfig::paper(args.seed))
        .build(&built.inventory.db, &candidates);
    let report = Report::build(&ReportContext {
        analysis: &analysis,
        db: &built.inventory.db,
        isps: &built.inventory.isps,
        intel: Some(ReportIntel {
            threats: &intel.threats,
            malware: &intel.malware,
            resolver: &intel.resolver,
            top_n_per_realm: 4000,
        }),
    });
    println!("{}", report.render());

    // Source taxonomy over everything the telescope saw (the paper's
    // scanning / backscatter / misconfiguration trichotomy, per source).
    {
        use iotscope_core::taxonomy::{classify_sources, SourceKind};
        let vectors = iotscope_core::behavior::extract(&traffic, &built.inventory.db, 143);
        let tax = classify_sources(&traffic, &vectors);
        println!("-- source taxonomy (all sources incl. non-inventory) --");
        for kind in [
            SourceKind::Scanner,
            SourceKind::UdpScanner,
            SourceKind::DosVictim,
            SourceKind::Misconfiguration,
            SourceKind::Mixed,
        ] {
            println!("  {:<17} {:>7}", kind.to_string(), tax.count(kind));
        }
        println!();
    }

    // Extra per-figure series excerpts (full series go to --csv).
    println!("-- Fig 10 excerpt: hourly Telnet/HTTP/SSH/BackroomNet/CWMP scan packets --");
    for i in [1usize, 32, 69, 92, 113, 119, 130, 143] {
        let row = scan::top5_series(&analysis)[i - 1];
        println!(
            "interval {i:>3}: telnet={} http={} ssh={} backroomnet={} cwmp={}",
            row[0], row[1], row[2], row[3], row[4]
        );
    }

    if let Some(dir) = &args.csv {
        dump_csv(dir, &analysis).expect("csv dump failed");
        println!("(csv series written to {dir})");
    }
    eprintln!("total {:.1}s", t0.elapsed().as_secs_f64());
}

fn dump_csv(dir: &str, analysis: &iotscope_core::Analysis) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = |name: &str| format!("{dir}/{name}.csv");

    let mut f = std::fs::File::create(path("fig5_udp_hourly"))?;
    writeln!(f, "interval,realm,packets,dst_ips,dst_ports")?;
    for (r, name) in [(Realm::Consumer, "consumer"), (Realm::Cps, "cps")] {
        let s = udp::hourly(analysis, r);
        for i in 0..s.packets.len() {
            writeln!(
                f,
                "{},{},{},{},{}",
                i + 1,
                name,
                s.packets[i],
                s.dst_ips[i],
                s.dst_ports[i]
            )?;
        }
    }

    let mut f = std::fs::File::create(path("fig7_backscatter_hourly"))?;
    writeln!(f, "interval,consumer,cps")?;
    for i in 0..analysis.hours as usize {
        writeln!(
            f,
            "{},{},{}",
            i + 1,
            analysis.backscatter_hourly[0][i],
            analysis.backscatter_hourly[1][i]
        )?;
    }

    let mut f = std::fs::File::create(path("fig9_scan_hourly"))?;
    writeln!(f, "interval,realm,packets,dst_ips,dst_ports")?;
    for (r, name) in [(Realm::Consumer, "consumer"), (Realm::Cps, "cps")] {
        let s = scan::hourly(analysis, r);
        for i in 0..s.packets.len() {
            writeln!(
                f,
                "{},{},{},{},{}",
                i + 1,
                name,
                s.packets[i],
                s.dst_ips[i],
                s.dst_ports[i]
            )?;
        }
    }

    let mut f = std::fs::File::create(path("fig10_top5_hourly"))?;
    writeln!(f, "interval,telnet,http,ssh,backroomnet,cwmp")?;
    for (i, row) in scan::top5_series(analysis).iter().enumerate() {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            i + 1,
            row[0],
            row[1],
            row[2],
            row[3],
            row[4]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn scale_must_be_finite_and_positive() {
        assert_eq!(
            parse(&["--tiny", "--scale", "0.0005"]).unwrap().scale,
            0.0005
        );
        for bad in ["-1", "0", "NaN", "inf"] {
            let err = parse(&["--tiny", "--scale", bad])
                .err()
                .expect("a usage error");
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }
}
