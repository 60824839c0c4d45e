//! The five workloads: how each builds its input, what its timed
//! operation is, and how every operation's output is checked. All of it
//! through the `iotscope` binary — the CLI verbs and flags used here
//! (with `trace.rs` for the library side) are the pinned API surface.

use crate::json::Json;
use crate::loadgen::{self, Client, Pools, Sample};
use crate::metrics::{WINDOW_HOURS, WORKLOADS};
use crate::proc::{self, Daemon, Ran};
use crate::stats::{self, digest, Fnv1a, Summary};
use crate::trace::{self, Span, Traced};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchPaper,
    BatchPaperPar,
    BatchDenseSeg,
    StoreWrite,
    ServeLive,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BatchPaper,
        Workload::BatchPaperPar,
        Workload::BatchDenseSeg,
        Workload::StoreWrite,
        Workload::ServeLive,
    ];

    /// The name, as `metrics::WORKLOADS` (and so `BENCHMARK.json`) lists
    /// it: the table and `ALL` are in the same order.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    /// The one-line reason the workload exists.
    pub fn why(self) -> &'static str {
        WORKLOADS[self as usize].1
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Open-loop load on `serve_live`: total request rate. Half the issue's
/// 800 req/s, and half its connections (see `serve_conns`): 800 over
/// `min(nproc,4)` connections is seven threads (ingest, two handlers,
/// two senders, two collectors) on the reference box's two cores, and
/// ingest then takes 1.5 s or 2.2 s depending on where the scheduler
/// puts them.
const SERVE_RATE_PER_S: f64 = 400.0;
/// Length of the schedule of a traced lifetime: 143 hours ingest in
/// 1.5–2 s under this load, so every such lifetime has a second or more
/// of steady state for the per-regime latency rows.
const SERVE_WINDOW: Duration = Duration::from_millis(3_500);
/// Length of the schedule of an untraced lifetime, whose timed part ends
/// at `ingest complete`: the schedule is cut there, and is only this
/// long so that a slow host's ingest never outlasts the load.
const SERVE_CUT_WINDOW: Duration = Duration::from_secs(10);
/// How long past the window replies are still awaited; a request
/// outstanding after that has failed.
const SERVE_DRAIN: Duration = Duration::from_millis(500);
/// Ids per pool drawn from the probe lifetime.
const POOL_IDS: usize = 64;

/// Set-up passes per run: the input is built from nothing this many
/// times and `setup_s` is the median, so one slow `fsync` does not
/// decide it.
const SETUP_PASSES: usize = 3;
/// Timed operations a run makes at the very least, whatever `--seconds`.
const MIN_REPS: usize = 3;
/// CLI operations a traced run times for `cli.process_overhead_s`.
const TRACED_CLI_REPS: usize = 3;

/// Everything a workload run needs from its caller.
#[derive(Debug, Clone)]
pub struct Env {
    /// The freshly built `iotscope` binary.
    pub bin: PathBuf,
    /// Private directory for generated data; the caller removes it.
    pub scratch: PathBuf,
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Tiny data, two operations, one lifetime: a smoke run whose
    /// numbers are never comparable with a full run's.
    pub quick: bool,
    /// `min(nproc, 4)`: threads of `batch_paper_par`, and generator
    /// threads of `serve_live`.
    pub par: usize,
}

impl Env {
    /// Connections of `serve_live`. Each costs the generator a sender
    /// and a collector thread, so `par / 2` of them keep the generator
    /// at `par` threads, no more than the box has cores.
    fn serve_conns(&self) -> usize {
        (self.par / 2).max(1)
    }

    fn passes(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_PASSES
        }
    }

    /// Run the CLI to completion; a non-zero exit is an error naming the
    /// command (set-up and check commands must succeed).
    fn cli(&self, args: &[&str]) -> Result<Ran, String> {
        let ran = proc::spawn(&self.bin, args).map_err(|e| format!("spawn iotscope: {e}"))?;
        if ran.ok {
            Ok(ran)
        } else {
            Err(format!("`iotscope {}` exited non-zero", args.join(" ")))
        }
    }

    /// Keep timing operations? At least `MIN_REPS`, then until the
    /// clock runs out; quick mode stops at two.
    fn more(&self, done: usize, started: Instant) -> bool {
        if self.quick {
            done < 2
        } else {
            done < MIN_REPS || started.elapsed().as_secs_f64() < self.seconds
        }
    }
}

/// Size of the input a workload ran on, for `_meta`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InputSize {
    pub devices: u64,
    pub flows: u64,
    /// Bytes under `darknet/`.
    pub bytes: u64,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub metrics: BTreeMap<String, Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub input: InputSize,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn set(&mut self, name: &str, summary: Summary) {
        self.metrics.insert(name.to_owned(), summary);
    }

    fn fail(&mut self, what: &str) {
        eprintln!("benchmark: FAILED operation: {what}");
        self.failed += 1;
    }

    /// Fold the per-repetition per-layer values into medians.
    fn set_traced(&mut self, reps: Vec<Traced>) {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in &reps {
            for (name, value) in &rep.metrics {
                by_name.entry(name.clone()).or_default().push(*value);
            }
        }
        for (name, values) in by_name {
            self.set(&name, Summary::of(&values));
        }
        if let Some(last) = reps.into_iter().last() {
            self.spans = last.spans;
        }
    }
}

// --- data-dir helpers -----------------------------------------------------

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn io_err(what: &str, path: &Path) -> impl Fn(std::io::Error) -> String {
    let (what, path) = (what.to_owned(), path.display().to_string());
    move |e| format!("{what} {path}: {e}")
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err("remove", dir)(e)),
    }
}

/// Files under `dir`, as sorted relative paths.
fn files_under(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                walk(root, &path, out)?;
            } else {
                out.push(path.strip_prefix(root).expect("under root").to_path_buf());
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out).map_err(io_err("list", dir))?;
    out.sort();
    Ok(out)
}

/// Total bytes and a digest (names + contents) of the tree under `dir`.
fn tree_stats(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = 0u64;
    let mut hash = Fnv1a::default();
    // Streamed: a compacted store is one 50–80 MB segment, and the
    // harness must stay smaller than the children it measures (see
    // `proc::harness_peak_kb`).
    let mut chunk = vec![0u8; 1 << 16];
    for rel in files_under(dir)? {
        hash.update(path_str(&rel).as_bytes());
        hash.update(&[0]);
        let mut file = std::fs::File::open(dir.join(&rel)).map_err(io_err("open", &rel))?;
        loop {
            let n = file.read(&mut chunk).map_err(io_err("read", &rel))?;
            if n == 0 {
                break;
            }
            bytes += n as u64;
            hash.update(&chunk[..n]);
        }
    }
    Ok((bytes, hash.finish()))
}

fn copy_tree(src: &Path, dst: &Path) -> Result<(), String> {
    for rel in files_under(src)? {
        let to = dst.join(&rel);
        std::fs::create_dir_all(to.parent().expect("file has a parent"))
            .map_err(io_err("create", &to))?;
        std::fs::copy(src.join(&rel), &to).map_err(io_err("copy", &to))?;
    }
    Ok(())
}

/// The number before `word` in `text` ("… 5305062 flows over …").
fn number_before(text: &str, word: &str) -> Option<u64> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| w.trim_matches(|c: char| !c.is_alphanumeric()) == word)?;
    words[at.checked_sub(1)?]
        .trim_matches(|c: char| !c.is_ascii_digit())
        .parse()
        .ok()
}

/// The number after `prefix` in `text` ("compromised devices: 26881 …").
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One `simulate` into `dir`.
struct Simulated {
    wall: Duration,
    devices: u64,
    flows: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `--scale 0.05`: 331,000 devices, ≈5.3 M flows.
    Paper,
    /// `--tiny --scale 0.1`: 5,500 devices, ≈9.8 M flows.
    Dense,
}

fn simulate(env: &Env, dir: &Path, shape: Shape) -> Result<Simulated, String> {
    remove_dir(dir)?;
    let seed = env.seed.to_string();
    let mut args = vec!["simulate", "--out", path_str(dir), "--seed", &seed];
    match (env.quick, shape) {
        (true, _) => args.push("--tiny"),
        (false, Shape::Paper) => args.extend(["--scale", "0.05"]),
        (false, Shape::Dense) => args.extend(["--tiny", "--scale", "0.1"]),
    }
    let ran = env.cli(&args)?;
    let text = ran.stdout_text();
    let parsed = |word| {
        number_before(&text, word).ok_or_else(|| format!("no `{word}` count in simulate's output"))
    };
    Ok(Simulated {
        wall: ran.wall,
        devices: parsed("devices")?,
        flows: parsed("flows")?,
    })
}

fn analyze(env: &Env, dir: &Path, threads: usize) -> Result<Ran, String> {
    let threads = threads.to_string();
    env.cli(&[
        "analyze",
        "--data",
        path_str(dir),
        "--intel",
        "--threads",
        &threads,
    ])
}

/// `validate` must say PASS, or the whole run is void.
fn validate(env: &Env, dir: &Path) -> Result<(), String> {
    let out = env
        .cli(&["validate", "--data", path_str(dir)])?
        .stdout_text();
    if out.lines().any(|l| l.trim() == "verdict: PASS") {
        Ok(())
    } else {
        Err(format!("validate --data {} is not PASS", dir.display()))
    }
}

fn input_size(sim: &Simulated, dir: &Path) -> Result<InputSize, String> {
    Ok(InputSize {
        devices: sim.devices,
        flows: sim.flows,
        bytes: tree_stats(&dir.join("darknet"))?.0,
    })
}

/// The end-to-end metrics, derived the same way on every workload from
/// its timed operations. `fastest_window_s` is the shortest time in
/// which the 143 window hours were consumed: the fastest operation on
/// the process workloads, the fastest ingest on `serve_live`.
///
/// Both the fastest and the median operation are reported. On a shared
/// host interference only ever slows a run, so the fastest of a run's
/// operations repeats from run to run several times more closely than
/// their median does; the median is what a user typically waits.
fn set_end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    ops_ms: &[f64],
    fastest_window_s: f64,
    maxrss_kb: u64,
    stored_bytes: u64,
    flows: u64,
) -> Result<(), String> {
    let harness_kb = proc::harness_peak_kb();
    if maxrss_kb <= harness_kb {
        return Err(format!(
            "peak_rss_mb is void: the children peaked at {maxrss_kb} KiB, not above the harness's own {harness_kb} KiB"
        ));
    }
    let ops = Summary::of(ops_ms);
    out.set("setup_s", Summary::of(setups));
    out.set("op_best_ms", Summary::single(ops.min));
    out.set("op_p50_ms", ops);
    out.set(
        "hours_per_s",
        Summary::single(WINDOW_HOURS / fastest_window_s),
    );
    out.set("peak_rss_mb", Summary::single(maxrss_kb as f64 / 1024.0));
    out.set(
        "stored_bytes_per_flow",
        Summary::single(stored_bytes as f64 / flows as f64),
    );
    Ok(())
}

/// Fastest of the process operations, in seconds.
fn fastest_s(walls_ms: &[f64]) -> f64 {
    walls_ms.iter().copied().fold(f64::INFINITY, f64::min) / 1e3
}

// --- batch workloads -------------------------------------------------------

/// A batch data dir, set up and checked.
struct BatchReady {
    dir: PathBuf,
    threads: usize,
    setups: Vec<f64>,
    input: InputSize,
    /// Digest of the warm-up `analyze` stdout: what every rep must print.
    reference: u64,
}

fn setup_batch(env: &Env, workload: Workload, passes: usize) -> Result<BatchReady, String> {
    let (shape, threads) = match workload {
        Workload::BatchPaper => (Shape::Paper, 1),
        Workload::BatchPaperPar => (Shape::Paper, env.par),
        Workload::BatchDenseSeg => (Shape::Dense, 1),
        _ => unreachable!("not a batch workload"),
    };
    let dir = env.scratch.join("data");
    let mut setups = Vec::new();
    let mut last = None;
    for pass in 0..passes {
        let sim = simulate(env, &dir, shape)?;
        let mut setup = sim.wall;
        let mut before_compaction = None;
        if workload == Workload::BatchDenseSeg {
            if pass + 1 == passes {
                // Untimed: the report the compacted store must reproduce.
                before_compaction = Some(digest(&analyze(env, &dir, threads)?.stdout));
            }
            setup += env
                .cli(&["migrate", "--data", path_str(&dir), "--segmented"])?
                .wall;
        }
        let warm = analyze(env, &dir, threads)?;
        setup += warm.wall;
        setups.push(setup.as_secs_f64());
        last = Some((sim, digest(&warm.stdout), before_compaction));
    }
    let (sim, reference, before_compaction) = last.expect("at least one set-up pass");

    validate(env, &dir)?;
    match workload {
        Workload::BatchDenseSeg => {
            if before_compaction != Some(reference) {
                return Err("analyze differs before and after migrate --segmented".to_owned());
            }
        }
        _ => {
            // Thread-count invariance: the sibling workload's command
            // must print the very same report.
            let other = if threads == 1 { env.par.max(2) } else { 1 };
            if digest(&analyze(env, &dir, other)?.stdout) != reference {
                return Err(format!(
                    "analyze --threads {other} and --threads {threads} print different reports"
                ));
            }
        }
    }
    Ok(BatchReady {
        input: input_size(&sim, &dir)?,
        dir,
        threads,
        setups,
        reference,
    })
}

fn run_batch(env: &Env, workload: Workload) -> Result<Outcome, String> {
    let ready = setup_batch(env, workload, env.passes())?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    let threads = ready.threads.to_string();
    let args = [
        "analyze",
        "--data",
        path_str(&ready.dir),
        "--intel",
        "--threads",
        &threads,
    ];
    let (mut walls_ms, mut maxrss) = (Vec::new(), 0);
    let started = Instant::now();
    while env.more(walls_ms.len(), started) {
        let ran = proc::spawn(&env.bin, &args).map_err(|e| format!("spawn iotscope: {e}"))?;
        out.attempted += 1;
        if !ran.ok {
            out.fail("analyze exited non-zero");
        } else if digest(&ran.stdout) != ready.reference {
            out.fail("analyze printed a different report than the warm-up");
        }
        walls_ms.push(ran.wall.as_secs_f64() * 1e3);
        maxrss = maxrss.max(ran.maxrss_kb);
    }
    set_end_to_end(
        &mut out,
        &ready.setups,
        &walls_ms,
        fastest_s(&walls_ms),
        maxrss,
        ready.input.bytes,
        ready.input.flows,
    )?;
    Ok(out)
}

/// Median wall of a few untraced CLI operations, for
/// `cli.process_overhead_s`.
fn cli_median_s(mut op: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let walls = (0..TRACED_CLI_REPS)
        .map(|_| op())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&walls))
}

fn trace_batch(env: &Env, workload: Workload) -> Result<Outcome, String> {
    let ready = setup_batch(env, workload, 1)?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    let cli_s = cli_median_s(|| Ok(analyze(env, &ready.dir, ready.threads)?.wall.as_secs_f64()))?;
    let mut reps = Vec::new();
    let started = Instant::now();
    while env.more(reps.len(), started) {
        out.attempted += 1;
        reps.push(trace::batch(&ready.dir, ready.threads, ready.reference)?);
    }
    out.set_traced(reps);
    let root_s = out.metrics["trace.root_s"].median;
    out.set("cli.process_overhead_s", Summary::single(cli_s - root_s));
    Ok(out)
}

// --- store_write -------------------------------------------------------------

struct WriteReady {
    /// The per-hour v3 source dir every rep copies.
    src: PathBuf,
    setups: Vec<f64>,
    input: InputSize,
    /// Bytes and digest of `darknet/` after the warm-up's two migrates:
    /// what every rep must leave behind.
    compacted: (u64, u64),
}

/// The timed operation: `migrate --format v3` then `migrate
/// --segmented` over `dir`. Returns the two runs and the record count
/// the first reported.
fn migrate_pair(env: &Env, dir: &Path) -> Result<(Ran, Ran, Option<u64>), String> {
    let spawn =
        |args: &[&str]| proc::spawn(&env.bin, args).map_err(|e| format!("spawn iotscope: {e}"));
    let rewrite = spawn(&["migrate", "--data", path_str(dir), "--format", "v3"])?;
    let compact = spawn(&["migrate", "--data", path_str(dir), "--segmented"])?;
    let records = number_before(&rewrite.stdout_text(), "records");
    Ok((rewrite, compact, records))
}

fn setup_write(env: &Env, passes: usize) -> Result<WriteReady, String> {
    let src = env.scratch.join("data");
    let warm = env.scratch.join("warm");
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..passes {
        let sim = simulate(env, &src, Shape::Paper)?;
        remove_dir(&warm)?;
        copy_tree(&src, &warm)?;
        let (rewrite, compact, records) = migrate_pair(env, &warm)?;
        if !(rewrite.ok && compact.ok) {
            return Err("warm-up migrate exited non-zero".to_owned());
        }
        setups.push((sim.wall + rewrite.wall + compact.wall).as_secs_f64());
        last = Some((sim, records));
    }
    let (sim, records) = last.expect("at least one set-up pass");
    validate(env, &src)?;
    if records != Some(sim.flows) {
        return Err(format!(
            "migrate reported {records:?} records, simulate wrote {}",
            sim.flows
        ));
    }
    // The rewritten, compacted store must analyze to the source's report.
    let want = digest(&analyze(env, &src, env.par)?.stdout);
    if digest(&analyze(env, &warm, env.par)?.stdout) != want {
        return Err("the migrated store analyzes to a different report".to_owned());
    }
    let compacted = tree_stats(&warm.join("darknet"))?;
    remove_dir(&warm)?;
    Ok(WriteReady {
        input: InputSize {
            devices: sim.devices,
            flows: sim.flows,
            bytes: compacted.0,
        },
        src,
        setups,
        compacted,
    })
}

fn run_write(env: &Env) -> Result<Outcome, String> {
    let ready = setup_write(env, env.passes())?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    let copy = env.scratch.join("copy");
    let (mut walls_ms, mut maxrss) = (Vec::new(), 0);
    let started = Instant::now();
    while env.more(walls_ms.len(), started) {
        remove_dir(&copy)?;
        copy_tree(&ready.src.join("darknet"), &copy.join("darknet"))?;
        let (rewrite, compact, records) = migrate_pair(env, &copy)?;
        out.attempted += 1;
        if !(rewrite.ok && compact.ok) {
            out.fail("migrate exited non-zero");
        } else if records != Some(ready.input.flows) {
            out.fail("migrate reported a different record count than it was given");
        } else if tree_stats(&copy.join("darknet"))? != ready.compacted {
            out.fail("migrate left different bytes than the checked warm-up");
        }
        walls_ms.push((rewrite.wall + compact.wall).as_secs_f64() * 1e3);
        maxrss = maxrss.max(rewrite.maxrss_kb).max(compact.maxrss_kb);
    }
    remove_dir(&copy)?;
    set_end_to_end(
        &mut out,
        &ready.setups,
        &walls_ms,
        fastest_s(&walls_ms),
        maxrss,
        ready.compacted.0,
        ready.input.flows,
    )?;
    Ok(out)
}

fn trace_write(env: &Env) -> Result<Outcome, String> {
    let ready = setup_write(env, 1)?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    let copy = env.scratch.join("copy");
    let fresh_copy = || -> Result<(), String> {
        remove_dir(&copy)?;
        copy_tree(&ready.src.join("darknet"), &copy.join("darknet"))
    };
    let cli_s = cli_median_s(|| {
        fresh_copy()?;
        let (rewrite, compact, _) = migrate_pair(env, &copy)?;
        Ok((rewrite.wall + compact.wall).as_secs_f64())
    })?;
    let mut reps = Vec::new();
    let started = Instant::now();
    while env.more(reps.len(), started) {
        fresh_copy()?;
        out.attempted += 1;
        let rep = trace::write(&copy)?;
        if tree_stats(&copy.join("darknet"))? != ready.compacted {
            out.fail("the traced migrate left different bytes than the CLI's");
        }
        reps.push(rep);
    }
    remove_dir(&copy)?;
    out.set_traced(reps);
    // Two processes per operation, so two process floors.
    let root_s = out.metrics["trace.root_s"].median;
    out.set("cli.process_overhead_s", Summary::single(cli_s - root_s));
    Ok(out)
}

// --- serve_live ----------------------------------------------------------------

struct ServeReady {
    dir: PathBuf,
    setups: Vec<f64>,
    input: InputSize,
    pools: Pools,
    /// "compromised devices: N" of the batch report: what `/summary`
    /// must carry once ingest is complete.
    devices_observed: u64,
}

const SERVE_LINE_TIMEOUT: Duration = Duration::from_secs(120);

fn serve_args(dir: &Path) -> [&str; 6] {
    ["serve", "--data", path_str(dir), "--port", "0", "--intel"]
}

fn addr_of(serving_line: &str) -> Result<SocketAddr, String> {
    serving_line
        .rsplit("http://")
        .next()
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("no address in {serving_line:?}"))
}

/// Ids that answer 200 on `prefix{id}`, found by probing seeded random
/// ids of the inventory.
fn probe_pool(
    client: &mut Client,
    rng: &mut StdRng,
    prefix: &str,
    devices: u64,
) -> Result<Vec<u32>, String> {
    let mut pool = Vec::with_capacity(POOL_IDS);
    for _ in 0..100_000 {
        let id = rng.gen_range(0..u32::try_from(devices).unwrap_or(u32::MAX));
        let (status, _) = client
            .get(&format!("{prefix}{id}"))
            .map_err(|e| format!("probe {prefix}{id}: {e}"))?;
        if status == 200 && !pool.contains(&id) {
            pool.push(id);
            if pool.len() == POOL_IDS {
                return Ok(pool);
            }
        }
    }
    Err(format!(
        "fewer than {POOL_IDS} ids answer 200 on {prefix}{{id}}"
    ))
}

fn setup_serve(env: &Env, passes: usize) -> Result<ServeReady, String> {
    let dir = env.scratch.join("data");
    let mut setups = Vec::new();
    let mut last = None;
    for pass in 0..passes {
        let sim = simulate(env, &dir, Shape::Paper)?;
        // The probe lifetime doubles as the warm-up: one unloaded
        // daemon, spawn to `ingest complete`.
        let daemon =
            Daemon::spawn(&env.bin, &serve_args(&dir)).map_err(|e| format!("spawn serve: {e}"))?;
        let serving = daemon
            .next_marker(SERVE_LINE_TIMEOUT)
            .map_err(|e| e.to_string())?;
        let ingested = daemon
            .next_marker(SERVE_LINE_TIMEOUT)
            .map_err(|e| e.to_string())?;
        setups.push((sim.wall + (ingested.at - daemon.spawned)).as_secs_f64());
        if pass + 1 == passes {
            let mut client =
                Client::connect(addr_of(&serving.line)?).map_err(|e| format!("connect: {e}"))?;
            let mut rng = StdRng::seed_from_u64(env.seed);
            let pools = Pools {
                device: probe_pool(&mut client, &mut rng, "/device/", sim.devices)?,
                score: probe_pool(&mut client, &mut rng, "/score/", sim.devices)?,
            };
            last = Some((sim, pools));
        }
        daemon.stop().map_err(|e| format!("stop serve: {e}"))?;
    }
    let (sim, pools) = last.expect("at least one set-up pass");
    validate(env, &dir)?;
    let report = analyze(env, &dir, env.par)?.stdout_text();
    let devices_observed = number_after(&report, "compromised devices:")
        .ok_or("no `compromised devices:` line in the batch report")?;
    Ok(ServeReady {
        input: input_size(&sim, &dir)?,
        dir,
        setups,
        pools,
        devices_observed,
    })
}

/// One timed daemon lifetime under load.
struct Lifetime {
    startup_s: f64,
    ingest_s: f64,
    /// `ingest complete` as an offset into the load window.
    ingest_done: Duration,
    samples: Vec<Sample>,
    maxrss_kb: u64,
    /// Σ `serve.requests.*` scraped from `/metrics` after the window.
    requests_counted: u64,
    summary_devices: Option<u64>,
}

/// `cut`: end the load at `ingest complete` instead of running the
/// whole window (an untraced lifetime, whose timed part ends there).
fn lifetime(env: &Env, ready: &ServeReady, index: usize, cut: bool) -> Result<Lifetime, String> {
    let conns = env.serve_conns();
    let window = match (cut, env.quick) {
        (true, _) => SERVE_CUT_WINDOW,
        (false, true) => Duration::from_millis(1_500),
        (false, false) => SERVE_WINDOW,
    };
    // The whole schedule exists before the daemon does.
    let seed = env.seed.wrapping_mul(1_000).wrapping_add(index as u64);
    let plans: Vec<_> = (0..conns)
        .map(|c| {
            loadgen::schedule(
                seed,
                c,
                SERVE_RATE_PER_S / conns as f64,
                window,
                &ready.pools,
            )
        })
        .collect();

    let daemon = Daemon::spawn(&env.bin, &serve_args(&ready.dir))
        .map_err(|e| format!("spawn serve: {e}"))?;
    let spawned = daemon.spawned;
    let serving = daemon
        .next_marker(SERVE_LINE_TIMEOUT)
        .map_err(|e| e.to_string())?;
    let addr = addr_of(&serving.line)?;
    let stop = AtomicBool::new(false);
    let (driven, ingested) = std::thread::scope(|scope| {
        let load = scope.spawn(|| loadgen::drive(addr, &plans, window, SERVE_DRAIN, &stop));
        let ingested = daemon.next_marker(SERVE_LINE_TIMEOUT);
        if cut || ingested.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        let driven = load.join().expect("the load generator does not panic");
        (driven, ingested)
    });
    let (t0, samples) = driven.map_err(|e| format!("load: {e}"))?;
    let ingested = ingested.map_err(|e| e.to_string())?;

    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (_, metrics) = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let requests_counted = Json::parse(&metrics)
        .ok()
        .and_then(|m| {
            m.as_obj().map(|entries| {
                entries
                    .iter()
                    .filter(|(name, _)| name.starts_with("serve.requests."))
                    .filter_map(|(_, e)| e.get("value").and_then(Json::as_f64))
                    .sum::<f64>() as u64
            })
        })
        .ok_or("unreadable /metrics body")?;
    let (_, summary) = client
        .get("/summary")
        .map_err(|e| format!("GET /summary: {e}"))?;
    let summary_devices = number_after(&summary, "\"devices\":");
    drop(client);
    let reaped = daemon.stop().map_err(|e| format!("stop serve: {e}"))?;
    Ok(Lifetime {
        startup_s: (serving.at - spawned).as_secs_f64(),
        ingest_s: (ingested.at - serving.at).as_secs_f64(),
        ingest_done: ingested.at.saturating_duration_since(t0),
        samples,
        maxrss_kb: reaped.maxrss_kb,
        requests_counted,
        summary_devices,
    })
}

/// Did this request fail? No reply, or a non-2xx one — except 404 on a
/// by-id path that was due before this lifetime's `ingest complete`,
/// which is the correct "not yet observed" answer.
fn request_failed(sample: &Sample, ingest_done: Duration) -> bool {
    match sample.done {
        None => true,
        Some((_, status)) if (200..300).contains(&status) => false,
        Some((_, 404)) => !(sample.by_id && sample.due < ingest_done),
        Some(_) => true,
    }
}

/// Quantile of an ascending slice; 0 when a regime had no samples (a
/// per-layer row, where 0 reads "not measured").
fn quantile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::quantile(sorted, q)
    }
}

fn ascending(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Run `count` daemon lifetimes under load (`cut` as in [`lifetime`]);
/// counts attempted/failed requests into `out`.
fn run_lifetimes(
    env: &Env,
    ready: &ServeReady,
    out: &mut Outcome,
    count: usize,
    cut: bool,
) -> Result<Vec<Lifetime>, String> {
    let mut lifetimes = Vec::new();
    for done in 0..count {
        let life = lifetime(env, ready, done, cut)?;
        out.attempted += life.samples.len() as u64;
        let failed = life
            .samples
            .iter()
            .filter(|s| request_failed(s, life.ingest_done))
            .count();
        eprintln!(
            "benchmark: lifetime {done}: startup {:.3} s, ingest {:.3} s, {} requests, {failed} failed",
            life.startup_s,
            life.ingest_s,
            life.samples.len()
        );
        out.failed += failed as u64;
        if life.summary_devices != Some(ready.devices_observed) {
            out.fail(
                "/summary after `ingest complete` disagrees with the batch report's device count",
            );
        }
        lifetimes.push(life);
    }
    Ok(lifetimes)
}

/// Ascending due-time latencies (ms) of the answered requests of `life`
/// that `keep` selects.
fn latencies_ms(life: &Lifetime, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    ascending(
        life.samples
            .iter()
            .filter(|s| keep(s))
            .filter_map(Sample::latency)
            .map(|l| l.as_secs_f64() * 1e3)
            .collect(),
    )
}

fn run_serve(env: &Env) -> Result<Outcome, String> {
    let ready = setup_serve(env, env.passes())?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    // A lifetime is never cut short of `ingest complete`, and on this
    // shared host one takes 2.3 s or 2.9 s with nothing changed: eight
    // of them for the default ten seconds, whatever they take, is what
    // it takes for their fastest and their median to repeat.
    let count = if env.quick {
        1
    } else {
        ((env.seconds / 1.25).ceil() as usize).max(1)
    };
    let lifetimes = run_lifetimes(env, &ready, &mut out, count, true)?;
    // The operation is a daemon lifetime up to the point where all 143
    // hours are queryable: spawn → `ingest complete`, under the query
    // load. (Query latency itself is in the traced run's per-layer
    // rows, ungated: see README, "Why query latency carries no bound".)
    let ops_ms: Vec<f64> = lifetimes
        .iter()
        .map(|l| (l.startup_s + l.ingest_s) * 1e3)
        .collect();
    let fastest_ingest_s = lifetimes
        .iter()
        .map(|l| l.ingest_s)
        .fold(f64::INFINITY, f64::min);
    let maxrss = lifetimes.iter().map(|l| l.maxrss_kb).max().unwrap_or(0);
    set_end_to_end(
        &mut out,
        &ready.setups,
        &ops_ms,
        fastest_ingest_s,
        maxrss,
        ready.input.bytes,
        ready.input.flows,
    )?;
    Ok(out)
}

fn trace_serve(env: &Env) -> Result<Outcome, String> {
    let ready = setup_serve(env, 1)?;
    let mut out = Outcome {
        input: ready.input,
        ..Outcome::default()
    };
    // The live half: one lifetime under load, split by regime.
    let lifetimes = run_lifetimes(env, &ready, &mut out, 1, false)?;
    let life = &lifetimes[0];
    let all = latencies_ms(life, |_| true);
    let ingesting = latencies_ms(life, |s| s.due < life.ingest_done);
    let steady = latencies_ms(life, |s| s.due >= life.ingest_done);
    let late = ascending(
        life.samples
            .iter()
            .filter_map(|s| s.sent.map(|sent| sent.saturating_sub(s.due)))
            .map(|late| late.as_secs_f64() * 1e3)
            .collect(),
    );
    let answered = life.samples.iter().filter(|s| s.done.is_some()).count();
    if life.requests_counted != answered as u64 {
        out.fail("the daemon's request counters disagree with the answered requests");
    }
    let tail = stats::highest_percentile(all.len(), 10).min(0.99);

    // The in-process half.
    let mut reps = Vec::new();
    let started = Instant::now();
    loop {
        reps.push(trace::serve(
            &ready.dir,
            ready.pools.device[0],
            ready.pools.score[0],
        )?);
        if env.quick || started.elapsed().as_secs_f64() + 2.5 >= env.seconds {
            break;
        }
    }
    out.set_traced(reps);
    out.set("serve.startup_s", Summary::single(life.startup_s));
    for (name, sorted, q) in [
        ("serve.query_p50_ms", &all, 0.50),
        ("serve.query_p99_ms", &all, tail),
        ("serve.ingest_phase_p50_ms", &ingesting, 0.50),
        ("serve.ingest_phase_p99_ms", &ingesting, 0.99),
        ("serve.steady_p50_ms", &steady, 0.50),
        ("serve.steady_p99_ms", &steady, 0.99),
        ("loadgen.late_p99_ms", &late, 0.99),
    ] {
        out.set(name, Summary::single(quantile_or_zero(sorted, q)));
    }
    out.set("loadgen.sent", Summary::single(late.len() as f64));
    out.set(
        "serve.requests_counted",
        Summary::single(life.requests_counted as f64),
    );
    out.set("serve.query_samples", Summary::single(all.len() as f64));
    Ok(out)
}

// --- entry points ----------------------------------------------------------------

/// Run `workload` untraced (end-to-end metrics) or traced (per-layer).
///
/// # Errors
///
/// Set-up, spawn and check-of-the-input failures: the run has no result.
/// A failed *operation* is not an error; it is counted in the outcome.
pub fn run(env: &Env, workload: Workload, traced: bool) -> Result<Outcome, String> {
    match (workload, traced) {
        (Workload::StoreWrite, false) => run_write(env),
        (Workload::StoreWrite, true) => trace_write(env),
        (Workload::ServeLive, false) => run_serve(env),
        (Workload::ServeLive, true) => trace_serve(env),
        (batch, false) => run_batch(env, batch),
        (batch, true) => trace_batch(env, batch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_follow_the_metrics_table() {
        let names: Vec<&str> = Workload::ALL.into_iter().map(Workload::name).collect();
        assert_eq!(
            names,
            [
                "batch_paper",
                "batch_paper_par",
                "batch_dense_seg",
                "store_write",
                "serve_live"
            ]
        );
        assert_eq!(
            Workload::from_name("store_write"),
            Some(Workload::StoreWrite)
        );
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn parses_the_cli_lines_the_checks_read() {
        let sim = "simulated 331000 devices, 26881 designated compromised, 5305062 flows over 143 hours\nwrote x";
        assert_eq!(number_before(sim, "devices"), Some(331_000));
        assert_eq!(number_before(sim, "flows"), Some(5_305_062));
        let mig = "migrated 143 hours (5305062 records) to V3: 52659330 -> 52659330 bytes (+0.0%)";
        assert_eq!(number_before(mig, "records"), Some(5_305_062));
        assert_eq!(number_before(mig, "absent"), None);
        let report =
            "==== iotscope report ====\ncompromised devices: 26881 (15299 consumer / 11582 CPS)";
        assert_eq!(number_after(report, "compromised devices:"), Some(26_881));
        let summary =
            r#"{"epoch":143,"hours_window":143,"hours_ingested":143,"devices":26881,"consumer":1}"#;
        assert_eq!(number_after(summary, "\"devices\":"), Some(26_881));
        assert_eq!(
            addr_of("serving on http://127.0.0.1:36559").unwrap(),
            "127.0.0.1:36559".parse().unwrap()
        );
    }

    /// The stdout-digest comparison every rep is checked by: one changed
    /// byte is a failed operation.
    #[test]
    fn stdout_digest_comparison_flags_any_difference() {
        let reference = digest(b"compromised devices: 26881\n");
        assert_eq!(digest(b"compromised devices: 26881\n"), reference);
        assert_ne!(digest(b"compromised devices: 26880\n"), reference);
        assert_ne!(digest(b"compromised devices: 26881"), reference);
    }

    #[test]
    fn not_yet_observed_is_only_correct_before_ingest_completes() {
        let done = Duration::from_millis(1_500);
        let sample = |due_ms: u64, status: Option<u16>, by_id: bool| Sample {
            due: Duration::from_millis(due_ms),
            sent: Some(Duration::from_millis(due_ms)),
            done: status.map(|s| (Duration::from_millis(due_ms + 1), s)),
            by_id,
        };
        assert!(!request_failed(&sample(100, Some(200), false), done));
        assert!(!request_failed(&sample(100, Some(404), true), done));
        assert!(request_failed(&sample(1_600, Some(404), true), done));
        assert!(request_failed(&sample(100, Some(404), false), done));
        assert!(request_failed(&sample(100, Some(500), true), done));
        assert!(request_failed(&sample(100, None, true), done));
    }

    #[test]
    fn tree_stats_see_names_and_contents() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scratch")
            .join(format!("test-tree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("a/day-1")).unwrap();
        std::fs::write(dir.join("a/day-1/hour-1.ft"), b"abc").unwrap();
        std::fs::write(dir.join("a/x"), b"de").unwrap();
        copy_tree(&dir.join("a"), &dir.join("b")).unwrap();
        let a = tree_stats(&dir.join("a")).unwrap();
        assert_eq!(a.0, 5);
        assert_eq!(a, tree_stats(&dir.join("b")).unwrap());
        std::fs::write(dir.join("b/x"), b"df").unwrap();
        assert_ne!(a, tree_stats(&dir.join("b")).unwrap());
        std::fs::rename(dir.join("b/x"), dir.join("b/y")).unwrap();
        std::fs::write(dir.join("b/y"), b"de").unwrap();
        assert_ne!(a.1, tree_stats(&dir.join("b")).unwrap().1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
