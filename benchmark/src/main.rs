//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark run [--seed N] [--seconds S] [--out PATH] [--quick]
//! benchmark run --workload NAME --seed N --seconds S --trace 0|1
//! benchmark compare OLD.json NEW.json
//! ```
//!
//! Run from the repository root. The first form runs all five workloads
//! untraced and traced and writes the results file; the second is what
//! the PR driver calls, one workload and one mode per process, ending
//! with one JSON line on stdout.

mod json;
mod loadgen;
mod metrics;
mod proc;
mod results;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use results::Meta;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Env, Outcome, Workload};

const USAGE: &str = "\
usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--quick]
       benchmark compare OLD.json NEW.json
run from the repository root";

/// Default length of a run's timed phase; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

/// Removes the run's scratch directory when dropped — on success, on
/// error and on panic alike — and `benchmark/scratch` itself once no
/// other run is using it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, as it should, while another run's directory is there.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(parsed)
}

/// Build the CLI from source, so a stale binary is never measured, and
/// return its path. The workspace is the current directory.
fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (no crates/cli here)".to_owned());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "-p", "iotscope-cli"])
        // Cargo reports on stderr; keep stdout for the result line.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err("cargo build -p iotscope-cli failed".to_owned());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = std::env::current_dir()
        .map_err(|e| format!("current dir: {e}"))?
        .join(target)
        .join("release/iotscope");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built, but {} is missing", bin.display()))
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn meta(args: &RunArgs) -> Meta {
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Meta {
        git_rev,
        seed: args.seed,
        seconds: args.seconds,
        nproc: nproc(),
        cpu_model,
        quick: args.quick,
    }
}

/// Print every metric of `outcome` by name, value and unit.
fn print_metrics(workload: &str, outcome: &Outcome, traced: bool) {
    for (name, s) in &outcome.metrics {
        let (unit, better, moves) =
            metrics::describe(name).expect("every reported metric is listed");
        let note = if traced {
            format!("-> {moves}")
        } else if s.n > 1 {
            format!(
                "(n={} min={:.4} q1={:.4} q3={:.4} max={:.4})",
                s.n, s.min, s.q1, s.q3, s.max
            )
        } else {
            String::new()
        };
        println!(
            "{workload:<16} {name:<30} {:>14.4} {unit:<8} {:<6} {note}",
            s.median,
            better.as_str()
        );
    }
    println!(
        "{workload:<16} {:<30} {:>14} {:<8}  ({} failed)",
        if traced {
            "traced_operations"
        } else {
            "operations"
        },
        outcome.attempted,
        "count",
        outcome.failed
    );
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end metric (untraced)
/// or every per-layer metric (traced; a layer the workload does not run
/// reads 0).
fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = std::collections::BTreeMap::new();
    for (name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(s) => s.median,
            None if traced => 0.0,
            None => return Err(format!("the run did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a number"));
        }
        metrics.insert(
            name.to_owned(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_owned())),
            ]),
        );
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let scratch = Scratch(
        root.join("benchmark/scratch")
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    match args.workload {
        Some(workload) => run_one(args, workload, &scratch.0),
        None => run_all(args, &scratch.0),
    }
}

/// One workload in one mode: what the driver calls.
fn run_one(args: &RunArgs, workload: Workload, scratch: &Path) -> Result<bool, String> {
    let env = Env {
        bin: build_cli()?,
        scratch: scratch.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        par: nproc().min(4),
    };
    let outcome = workloads::run(&env, workload, args.traced)?;
    print_metrics(workload.name(), &outcome, args.traced);
    let line = result_line(&outcome, args.traced)?;
    if let Some(path) = &args.out {
        let doc = results::document(&meta(args), workload.name(), &outcome, args.traced);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // Failed operations are in the line (`correct`, `failed`); the exit
    // status stays 0 so the driver reads it.
    println!("{line}");
    Ok(true)
}

/// Every workload, untraced then traced, each in a process of its own —
/// the very invocation the driver makes — merged into one results file.
/// (A child's `ru_maxrss` starts from its parent's peak: the spawning
/// process must never have been bigger than the program it measures, so
/// an untraced run may not share a process with a traced one.)
fn run_all(args: &RunArgs, scratch: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut doc = Json::obj([]);
    for workload in Workload::ALL {
        println!("# {}: {}", workload.name(), workload.why());
        for traced in [false, true] {
            let part = scratch.join("part.json");
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) had no result",
                    workload.name(),
                    u8::from(traced)
                ));
            }
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("read {}: {e}", part.display()))?;
            results::merge(&mut doc, Json::parse(&text)?);
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/results.json"));
    std::fs::write(&out, doc.render_pretty())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("benchmark: wrote {}", out.display());
    Ok(!results::any_failed(&doc))
}

fn compare(old: &str, new: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, regressed) = results::compare(&read(old)?, &read(new)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, [old, new])) if cmd == "compare" => compare(old, new),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Operations failed, or a row regressed: the numbers were
        // printed, and the exit status says they are not clean.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
