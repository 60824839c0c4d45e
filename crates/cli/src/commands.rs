//! CLI command implementations.

use crate::{ArgParser, CliError, ParsedArgs};
use iotscope_core::behavior::{BehaviorFold, BehaviorVector};
use iotscope_core::botnet::{self, BotnetConfig};
use iotscope_core::fingerprint::{candidate_iot_devices, FingerprintModel};
use iotscope_core::pipeline::{
    route_ahead, AnalysisOutcome, AnalysisPipeline, AnalyzeOptions, HourSource, StoreReadStats,
    StoredWindow,
};
use iotscope_core::query::{QueryApi, QueryContext};
use iotscope_core::report::{Report, ReportContext, ReportIntel};
use iotscope_core::stream::{Alert, StreamConfig};
use iotscope_core::{attribution, Analysis, Analyzer};
use iotscope_devicedb::inventory_io::{self, LoadedInventory};
use iotscope_intel::synth::{IntelBuilder, IntelOutput, IntelSynthConfig};
use iotscope_intel::IntelContext;
use iotscope_net::segment::Manifest;
use iotscope_net::store::{CollectSink, FlowStore, StoreFormat, StoreOptions};
use iotscope_net::time::{AnalysisWindow, UnixHour};
use iotscope_net::NetError;
use iotscope_obs::{Registry, Snapshot};
use iotscope_serve::http::HttpServer;
use iotscope_serve::TelescopeService;
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The `--metrics[=json|text]` output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Json,
}

/// Interpret `--metrics[=FMT]` the same way on every command: absent →
/// `None`, bare or `=text` → text, `=json` → JSON.
fn metrics_format(opts: &ParsedArgs) -> Result<Option<MetricsFormat>, CliError> {
    match opts.get("--metrics") {
        None => Ok(None),
        Some("" | "text") => Ok(Some(MetricsFormat::Text)),
        Some("json") => Ok(Some(MetricsFormat::Json)),
        Some(other) => Err(CliError::Usage(format!(
            "bad value for --metrics: {other:?} (expected json or text)"
        ))),
    }
}

/// Render the metrics section appended when `--metrics` was given.
fn render_metrics(snapshot: &Snapshot, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Text => format!("\n== metrics ==\n{}", snapshot.to_text()),
        MetricsFormat::Json => format!("\n{}\n", snapshot.to_json()),
    }
}

/// Run `work` once per item of `hours` on `workers` scoped threads and
/// return the results in item order — the fan-out behind the write
/// verbs (`simulate`, `migrate --format v3`), where each hour is an
/// independent generate or read, then encode + tmp + fsync + rename.
///
/// Items are handed out in ascending order from one atomic cursor, and
/// a worker that has taken an item always runs it; once any item fails,
/// no worker takes another. The error returned is the failing item's
/// with the smallest index — exactly the error a sequential loop would
/// stop at, because every item below a taken one was taken earlier and
/// ran to completion. Items past the first failure that were already
/// running still finish, so a failed run may leave some later hours
/// rewritten; each hour is written atomically, so the store stays
/// readable either way.
///
/// `workers` is clamped to `1..=hours.len()`; callers pass
/// [`available_parallelism`](std::thread::available_parallelism) (tests
/// pin it).
fn for_each_hour<T, R, F>(hours: &[T], workers: usize, work: F) -> Result<Vec<R>, CliError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, CliError> + Sync,
{
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let workers = workers.clamp(1, hours.len().max(1));
    let mut done: Vec<(usize, Result<R, CliError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // Check before taking: an item once taken always runs,
                    // so the taken items are a prefix of `hours`.
                    while !failed.load(Ordering::SeqCst) {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(hour) = hours.get(i) else { break };
                        let result = work(hour);
                        if result.is_err() {
                            failed.store(true, Ordering::SeqCst);
                        }
                        done.push((i, result));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("hour worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Every core: the worker count of the write verbs' hour fan-out and of
/// the daemon's start-up analysis. The daemon's replay takes two
/// threads on any box ([`route_ahead`]): a router thread, and the
/// publisher, which folds and publishes hours in order and routes the
/// next ones itself whenever the hour it needs has not arrived.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `iotscope simulate --out DIR [--seed N] [--scale F] [--tiny] [--metrics[=FMT]]`
///
/// Writes the scenario's inventory, ground truth and 143 hours of
/// traffic (in the store's one format, v3), the hours written on every
/// core. `--scale` must be a finite number above zero.
pub fn simulate(args: &[String]) -> Result<String, CliError> {
    let opts = ArgParser::new()
        .value("--out")
        .value("--seed")
        .value("--scale")
        .boolean("--tiny")
        .optional_value("--metrics")
        .parse(args)?;
    let out: PathBuf = opts.require("--out", "simulate")?.into();
    let seed: u64 = opts.parse_or("--seed", 42)?;
    let tiny = opts.has("--tiny");
    let scale = match opts.get("--scale") {
        Some(v) => PaperScenarioConfig::parse_scale(v).map_err(CliError::Usage)?,
        None if tiny => 0.008,
        None => 0.01,
    };
    let format = metrics_format(&opts)?;
    let registry = Registry::new();

    let config = if tiny {
        let mut c = PaperScenarioConfig::tiny(seed);
        c.scale = scale;
        c
    } else {
        PaperScenarioConfig::paper(seed, scale)
    };
    let built = PaperScenario::build(config);

    std::fs::create_dir_all(&out)?;
    let store =
        FlowStore::create(out.join("darknet"), StoreOptions::default())?.instrumented(&registry);
    // Each hour is generated by the worker that writes it, so no more of
    // the window is resident than the hours being written.
    let intervals: Vec<u32> = (1..=built.scenario.telescope().window.num_hours()).collect();
    let written = for_each_hour(&intervals, all_cores(), |&interval| {
        let ht = built.scenario.generate_hour(interval);
        store.write_hour(ht.hour, &ht.flows)?;
        Ok(ht.flows.len())
    })?;
    let flows: usize = written.iter().sum();

    let mut meta = BTreeMap::new();
    meta.insert("seed".to_owned(), seed.to_string());
    meta.insert("scale".to_owned(), scale.to_string());
    meta.insert(
        "size".to_owned(),
        if tiny { "tiny" } else { "paper" }.to_owned(),
    );
    inventory_io::save(
        out.join("inventory.tsv"),
        &built.inventory.db,
        &built.inventory.isps,
        &meta,
    )?;
    built.truth.save(out.join("truth.tsv"))?;

    let mut text = format!(
        "simulated {} devices, {} designated compromised, {} flows over 143 hours\nwrote {}/{{inventory.tsv, truth.tsv, darknet/}}",
        built.inventory.db.len(),
        built.truth.num_designated(),
        flows,
        out.display()
    );
    if let Some(format) = format {
        text.push('\n');
        text.push_str(&render_metrics(&registry.snapshot(), format));
    }
    Ok(text)
}

/// The timer `analyze`, `serve` and `watch` record the inventory load
/// under: the start-up cost every verb pays before it touches a flow.
const INVENTORY_LOAD_TIME: &str = "inventory.load_time";

/// Open a data directory's store and apply the paper's window rule to
/// it: every verb reads the hours of the returned [`StoredWindow`], so
/// every verb drops the days `analyze` drops. A store that keeps no
/// hour of the window is an error.
fn open_window(dir: &Path) -> Result<(FlowStore, StoredWindow), CliError> {
    let store = FlowStore::open(dir.join("darknet"))?;
    let stored = StoredWindow::of(&store, AnalysisWindow::paper());
    if stored.work.is_empty() {
        return Err(CliError::Run(format!(
            "no hourly flowtuple files under {}/darknet",
            dir.display()
        )));
    }
    Ok((store, stored))
}

/// The line every verb prints first when the window rule dropped days,
/// in one format; empty on a store with no short day, so output there
/// is unchanged.
fn dropped_days_note(label: &str, w: &StoredWindow) -> String {
    if w.dropped_days.is_empty() {
        return String::new();
    }
    let (kept, skipped, missing) = (w.work.len(), w.hours_skipped, w.hours_missing);
    format!(
        "{label}: dropped incomplete days {:?} ({kept} hours kept, {skipped} skipped, {missing} missing)\n",
        w.dropped_days
    )
}

/// Batch-analyze a data directory's stored window straight from the
/// store (no hour is materialized): the one analysis behind every verb.
/// A store error names the earliest window hour that failed.
fn analyze_window(
    inventory: &LoadedInventory,
    store: &FlowStore,
    stored: &StoredWindow,
    options: AnalyzeOptions,
) -> Result<AnalysisOutcome, CliError> {
    let pipeline = AnalysisPipeline::new(&inventory.db, stored.window.num_hours());
    Ok(pipeline.run(store, &options.window(stored.window))?)
}

/// Load a data directory's inventory and [`analyze_window`] its stored
/// window with `threads` workers: what `validate` and each side of
/// `diff` certify or compare.
fn analyze_dir(
    dir: &Path,
    threads: usize,
) -> Result<(LoadedInventory, StoredWindow, Analysis), CliError> {
    let inventory = inventory_io::load(dir.join("inventory.tsv"))?;
    let (store, stored) = open_window(dir)?;
    let options = AnalyzeOptions::new().threads(threads);
    let analysis = analyze_window(&inventory, &store, &stored, options)?.analysis;
    Ok((inventory, stored, analysis))
}

fn data_dir(opts: &ParsedArgs) -> Result<PathBuf, CliError> {
    Ok(opts
        .get("--data")
        .ok_or_else(|| CliError::Usage("command requires --data DIR".to_owned()))?
        .into())
}

/// The synthetic threat intel for an analysis, built the same way by
/// every `--intel` verb: the batch query surface picks the candidates,
/// and the stores are seeded from the inventory metadata, so every
/// command over one data directory sees identical intel.
fn synth_intel(inventory: &LoadedInventory, analysis: &Analysis) -> IntelOutput {
    let candidates =
        QueryContext::batch(analysis, &inventory.db, &inventory.isps).candidates(4_000);
    let seed = inventory
        .meta
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    IntelBuilder::new(IntelSynthConfig::paper(seed)).build(&inventory.db, &candidates)
}

/// Start a [`TelescopeService`] over a data directory for `watch` and
/// `serve`: load the inventory, open the stored window and, with
/// `intel`, synthesize the intel from one batch analysis of it on every
/// core (the routed feed at [`all_cores`] workers) — everything the
/// daemon does before it is ready to ingest (the replay's feed starts
/// with [`replay`], not here), timed as one span of
/// `serve.startup_time` in the service's registry (with
/// `inventory.load_time` inside it), so `/metrics` can say what a
/// restart costs.
fn start_service(
    dir: &Path,
    intel: bool,
) -> Result<(TelescopeService, FlowStore, StoredWindow), CliError> {
    let started = Instant::now();
    let inventory = inventory_io::load(dir.join("inventory.tsv"))?;
    let load_time = started.elapsed();
    let (store, stored) = open_window(dir)?;
    let intel = if intel {
        let options = AnalyzeOptions::new().threads(all_cores());
        let analysis = analyze_window(&inventory, &store, &stored, options)?.analysis;
        Some(IntelContext::from_synth(synth_intel(&inventory, &analysis)))
    } else {
        None
    };
    let mut service =
        TelescopeService::new(inventory.db, inventory.isps, stored.window.num_hours());
    if let Some(ctx) = intel {
        service = service.with_intel(ctx);
    }
    let registry = service.registry();
    registry.timer(INVENTORY_LOAD_TIME).record(load_time);
    registry
        .timer("serve.startup_time")
        .record(started.elapsed());
    Ok((service, store, stored))
}

/// Replay the stored window into `service` for `watch` and `serve`:
/// hours are read, decoded and routed ahead on one router thread
/// ([`route_ahead`]) while this thread folds and publishes them in
/// window order, one epoch per hour, and routes the next hours itself
/// whenever the one it must publish has not arrived. Print the
/// dropped-days line, then stream every alert but device discovery to
/// `out` as it fires. Returns the final analysis, the alert log and the
/// number of devices discovered; a bad hour ends the replay with its
/// named error, after every earlier hour is published.
fn replay(
    service: &TelescopeService,
    store: &FlowStore,
    stored: &StoredWindow,
    out: &mut dyn io::Write,
) -> Result<(Analysis, Vec<Alert>, usize), CliError> {
    write!(out, "{}", dropped_days_note("window", stored))?;
    out.flush()?;
    let mut discovered = 0usize;
    let mut write_err: Option<std::io::Error> = None;
    let mut on_alert = |alert: &Alert| {
        if let Alert::NewDevices { count, .. } = alert {
            discovered += count;
        } else if write_err.is_none() {
            write_err = writeln!(out, "{alert}").and_then(|()| out.flush()).err();
        }
    };
    let source = HourSource::stored(store, stored);
    let hours = stored.window.num_hours();
    let ingested = route_ahead(service.db(), hours, source, |feed| {
        service.ingest_with(
            feed,
            StreamConfig::default(),
            &mut on_alert,
            |stream, hour| Ok::<_, NetError>(stream.push_routed(&hour?)),
        )
    });
    if let Some(e) = write_err {
        return Err(e.into());
    }
    let (analysis, alerts) = ingested?;
    Ok((analysis, alerts, discovered))
}

/// What `watch` and `serve` print after their summary line: the count
/// of devices the intel stage scored and, with `--metrics`, the
/// service's registry.
fn replay_footer(
    service: &TelescopeService,
    format: Option<MetricsFormat>,
    out: &mut dyn io::Write,
) -> Result<(), CliError> {
    if let Some(scores) = &service.snapshot().scores {
        writeln!(out, "{} devices scored by threat intel", scores.len())?;
    }
    if let Some(format) = format {
        let snapshot = service.registry().snapshot();
        write!(out, "{}", render_metrics(&snapshot, format))?;
    }
    out.flush()?;
    Ok(())
}

/// `iotscope analyze --data DIR [--intel] [--threads N] [--stats] [--metrics[=FMT]]`
///
/// Runs the store-backed pipeline over the stored window: hour files
/// are read, decoded, and aggregated by a pool of `--threads` workers
/// (default 8) directly from `DIR/darknet`. `--stats` appends per-stage
/// accounting, `--metrics` the full observability snapshot. `--store`
/// is accepted as an alias for `--data`.
pub fn analyze(args: &[String]) -> Result<String, CliError> {
    let opts = ArgParser::new()
        .value("--data")
        .alias("--store", "--data")
        .boolean("--intel")
        .analysis_flags()
        .parse(args)?;
    let dir = data_dir(&opts)?;
    let threads: usize = opts.parse_or("--threads", 8)?;
    let format = metrics_format(&opts)?;
    let registry = Registry::new();
    let inventory = {
        let _load = registry.timer(INVENTORY_LOAD_TIME).span();
        inventory_io::load(dir.join("inventory.tsv"))?
    };
    let (store, stored) = open_window(&dir)?;
    let mut options = AnalyzeOptions::new().threads(threads).stats(true);
    if format.is_some() {
        options = options.metrics(&registry);
    }
    let outcome = analyze_window(&inventory, &store, &stored, options)?;
    let stats = outcome.stats.as_ref().expect("stats were requested");
    let analysis = outcome.analysis;

    let intel_out;
    let intel = if opts.has("--intel") {
        intel_out = synth_intel(&inventory, &analysis);
        Some(ReportIntel {
            threats: &intel_out.threats,
            malware: &intel_out.malware,
            resolver: &intel_out.resolver,
            top_n_per_realm: 4_000,
        })
    } else {
        None
    };
    let report = Report::build(&ReportContext {
        analysis: &analysis,
        db: &inventory.db,
        isps: &inventory.isps,
        intel,
    });
    let mut text = dropped_days_note("window", &stored);
    text.push_str(&report.render());
    if opts.has("--stats") {
        text.push_str(&render_store_stats(stats, &stored.dropped_days));
    }
    if let Some(format) = format {
        let snapshot = outcome.metrics.expect("metrics were requested");
        text.push_str(&render_metrics(&snapshot, format));
    }
    Ok(text)
}

/// Render the `--stats` section appended to the analyze report.
fn render_store_stats(stats: &StoreReadStats, dropped_days: &[u32]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== store read stats ==");
    let _ = writeln!(out, "threads:         {}", stats.threads);
    let _ = writeln!(
        out,
        "hours ingested:  {} ({} missing, {} skipped; dropped days {dropped_days:?})",
        stats.hours_ingested, stats.hours_missing, stats.hours_skipped
    );
    let _ = writeln!(out, "bytes read:      {}", stats.bytes_read);
    let _ = writeln!(
        out,
        "records decoded: {} ({} blocks)",
        stats.records_decoded, stats.blocks_read
    );
    let _ = writeln!(
        out,
        "stage times:     read {:.1?}, ingest {:.1?}, merge {:.1?} (summed across workers)",
        stats.read_time, stats.ingest_time, stats.merge_time
    );
    let _ = writeln!(out, "wall time:       {:.1?}", stats.wall_time);
    out
}

/// `iotscope watch --data DIR [--intel] [--metrics[=FMT]]`, streaming:
/// alert lines reach `out` as each hour's ingest raises them, not in
/// one buffered block at exit — the same live loop, over the same
/// stored window, as the serve daemon. `--intel` attaches the
/// incremental score stage, so severity escalations stream interleaved
/// with the behavioral alerts.
pub fn watch_to(args: &[String], out: &mut dyn io::Write) -> Result<(), CliError> {
    let opts = ArgParser::new()
        .value("--data")
        .boolean("--intel")
        .optional_value("--metrics")
        .parse(args)?;
    let format = metrics_format(&opts)?;
    let (service, store, stored) = start_service(&data_dir(&opts)?, opts.has("--intel"))?;
    let (analysis, alerts, discovered) = replay(&service, &store, &stored, out)?;
    writeln!(
        out,
        "---\n{} hours replayed, {} devices discovered, {} alerts total, {} compromised devices indexed",
        stored.work.len(),
        discovered,
        alerts.len(),
        analysis.device_count()
    )?;
    replay_footer(&service, format, out)
}

/// Buffered [`watch_to`] (tests and the non-streaming `run` entry).
pub fn watch(args: &[String]) -> Result<String, CliError> {
    let mut buf = Vec::new();
    watch_to(args, &mut buf)?;
    Ok(String::from_utf8(buf).expect("watch output is utf-8"))
}

/// `iotscope serve --data DIR [--port N] [--once] [--intel] [--metrics[=FMT]]`
///
/// The resident daemon, in this order:
///
/// 1. **start-up**, nothing listening: load the inventory, open the
///    stored window — the hours `analyze` reads, after the paper's
///    day-completeness rule — and, with `--intel`, analyze them once
///    through the store-backed pipeline on every core to synthesize the
///    intel context;
/// 2. bind the HTTP endpoint and print `serving on http://ADDR` —
///    readers see the empty epoch-0 snapshot from here — then the
///    dropped-days line, if the rule dropped any;
/// 3. **ingest**: read, decode and fold the window's hours one at a
///    time through the shared streaming loop (no hour is materialized,
///    let alone the window), publishing a snapshot per hour and
///    streaming non-discovery alerts to `out` as they fire;
/// 4. print `ingest complete: …`; the final epoch is `analyze`'s
///    analysis of the same directory.
///
/// The order is a contract: `serving on` means *ready to ingest* —
/// everything before it is start-up cost, every hour is decoded after
/// it — which is what lets an operator (and the benchmark) read
/// start-up and ingest rate off the two lines. A read or decode error
/// fails the command; no epoch is published for the failed hour or any
/// after it.
///
/// With `--once` the process exits after ingest (the mode CI and tests
/// drive); otherwise it keeps serving until killed. `--intel` attaches
/// the threat-intel score stage: snapshots carry the live
/// [`iotscope_core::ScoreTable`] and `/score/top` + `/score/{id}`
/// serve it.
pub fn serve(args: &[String], out: &mut dyn io::Write) -> Result<(), CliError> {
    let opts = ArgParser::new()
        .value("--data")
        .value("--port")
        .boolean("--once")
        .boolean("--intel")
        .optional_value("--metrics")
        .parse(args)?;
    let format = metrics_format(&opts)?;
    let port: u16 = opts.parse_or("--port", 0)?;
    let (service, store, stored) = start_service(&data_dir(&opts)?, opts.has("--intel"))?;
    let service = Arc::new(service);
    let server = HttpServer::bind(&format!("127.0.0.1:{port}"), Arc::clone(&service))
        .map_err(|e| CliError::Run(format!("bind failed: {e}")))?;
    writeln!(out, "serving on http://{}", server.local_addr())?;
    out.flush()?;
    // Only the counts outlive the replay: the finished analysis and its
    // alert log drop here, so the resident daemon holds the published
    // epoch and nothing more.
    let (devices, alerts) = {
        let (analysis, alerts, _) = replay(&service, &store, &stored, out)?;
        (analysis.device_count(), alerts.len())
    };
    writeln!(
        out,
        "ingest complete: {} hours, {devices} compromised devices indexed, {alerts} alerts",
        stored.work.len(),
    )?;
    replay_footer(&service, format, out)?;
    if opts.has("--once") {
        return Ok(());
    }
    writeln!(out, "serving until killed (ctrl-c to stop)")?;
    out.flush()?;
    loop {
        std::thread::park();
    }
}

/// Fold the stored window for `investigate` in one pass: each hour of
/// `stored` is fetched and decoded once, into the behavior fold and —
/// with `analyze`, which `--intel` needs for its candidates — into an
/// analyzer's hour sink beside it, which routes the hour and folds it
/// at `finish`.
fn fold_window(
    inventory: &LoadedInventory,
    store: &FlowStore,
    stored: &StoredWindow,
    analyze: bool,
) -> Result<(HashMap<Ipv4Addr, BehaviorVector>, Option<Analysis>), CliError> {
    let hours = stored.window.num_hours();
    let mut behavior = BehaviorFold::new(&inventory.db, hours);
    let mut analyzer = analyze.then(|| Analyzer::new(&inventory.db, hours));
    let source = HourSource::stored(store, stored);
    for k in 0..source.len() {
        let interval = source.interval(k);
        match &mut analyzer {
            Some(an) => {
                let mut both = (an.begin_hour(interval), behavior.begin_hour(interval));
                source.visit(k, &mut both)?;
                both.0.finish();
            }
            None => source.visit(k, &mut behavior.begin_hour(interval))?,
        }
    }
    Ok((behavior.finish(), analyzer.map(Analyzer::finish)))
}

/// `iotscope investigate --data DIR [--intel]`
///
/// The §VI/§VII follow-ups over the stored window: each stored hour is
/// read and decoded once (the window is never held in memory) into the
/// behavior vectors, which are then fingerprinted and clustered.
/// `--intel` adds malware attribution; its intel is synthesized from
/// the analysis the same pass folds beside the vectors.
pub fn investigate(args: &[String]) -> Result<String, CliError> {
    let opts = ArgParser::new()
        .value("--data")
        .boolean("--intel")
        .parse(args)?;
    let dir = data_dir(&opts)?;
    let inventory = inventory_io::load(dir.join("inventory.tsv"))?;
    let (store, stored) = open_window(&dir)?;
    let (vectors, analysis) = fold_window(&inventory, &store, &stored, opts.has("--intel"))?;
    let intel = analysis.map(|analysis| synth_intel(&inventory, &analysis));
    let mut out = dropped_days_note("window", &stored);

    let _ = writeln!(out, "== unindexed IoT candidates (fuzzy fingerprinting) ==");
    match FingerprintModel::train(&vectors) {
        Some(model) => {
            let candidates = candidate_iot_devices(&model, &vectors, 0.55, 20);
            let _ = writeln!(
                out,
                "model: {} reference groups from {} matched devices; {} candidates:",
                model.num_groups(),
                model.trained_on(),
                candidates.len()
            );
            for c in candidates.iter().take(20) {
                let _ = writeln!(
                    out,
                    "  {:<16} score {:.2}  {:>8} pkts",
                    c.ip, c.score, c.packets
                );
            }
        }
        None => {
            let _ = writeln!(out, "no matched devices to train on");
        }
    }

    let _ = writeln!(
        out,
        "\n== coordinated scanning crews (botnet clustering) =="
    );
    let clusters = botnet::cluster(&vectors, &BotnetConfig::default());
    if clusters.is_empty() {
        let _ = writeln!(out, "no coordinated clusters found");
    }
    for (i, c) in clusters.iter().enumerate() {
        let _ = writeln!(
            out,
            "cluster {}: {} members, signature ports {:?}, peak hour {}, {} pkts",
            i + 1,
            c.size(),
            c.signature_ports,
            c.peak_interval,
            c.total_packets
        );
    }

    if let Some(intel) = intel {
        let _ = writeln!(out, "\n== malware attribution ==");
        let findings = attribution::attribute(
            &vectors,
            &inventory.db,
            &intel.malware,
            &intel.resolver,
            attribution::DEFAULT_MIN_SCORE,
        );
        for f in findings.iter().take(20) {
            let _ = writeln!(
                out,
                "dev#{:<7} {:<10} score {:.2}  direct={}  ports {:?}",
                f.device.0,
                f.family.to_string(),
                f.score,
                f.evidence.direct_contact,
                f.evidence.port_overlap
            );
        }
        let _ = writeln!(out, "{} attributions total", findings.len());
    }
    Ok(out)
}

/// `iotscope migrate --data DIR (--format v3 | --segmented [--hours-per-segment N])`
///
/// With `--format v3`, upgrade legacy hours to v3: every hour file under
/// `DIR/darknet` is read (v1, v2 or v3 — reads auto-detect the format
/// from each file's magic) and rewritten as v3, the only format
/// written, on every core. Each hour is rewritten atomically;
/// interrupting midway leaves a mixed-format but fully readable store,
/// and a failing hour reports the same error a one-hour-at-a-time
/// rewrite would (see `for_each_hour`). A store whose hours all live
/// in segments has nothing to upgrade — compaction transcodes legacy
/// hours, so segments hold only v3. Any other `--format` value is a
/// usage error.
///
/// With `--segmented`, compact every per-hour file into the year-scale
/// segment layout (`segments/seg-N.seg` behind `segments/manifest.idx`)
/// and remove the per-hour copies once the manifest is durable. Reads
/// through `FlowStore` are unchanged — segment-resident hours resolve
/// through the manifest, and later `write_hour` calls shadow the
/// segment copy with a fresh per-hour file. `--hours-per-segment` must
/// be at least 1.
pub fn migrate(args: &[String]) -> Result<String, CliError> {
    migrate_on(args, all_cores())
}

/// [`migrate`] with the `--format v3` rewrite spread over `workers`
/// threads.
fn migrate_on(args: &[String], workers: usize) -> Result<String, CliError> {
    let opts = ArgParser::new()
        .value("--data")
        .alias("--store", "--data")
        .value("--format")
        .boolean("--segmented")
        .value("--hours-per-segment")
        .parse(args)?;
    let dir = data_dir(&opts)?;
    let root = dir.join("darknet");
    if opts.get("--segmented").is_some() {
        if opts.get("--format").is_some() {
            return Err(CliError::Usage(
                "migrate takes --format or --segmented, not both".to_owned(),
            ));
        }
        let hours_per_segment = match opts.get("--hours-per-segment") {
            Some(v) => v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                CliError::Usage(format!(
                    "bad value for --hours-per-segment: {v:?} (want a count of at least 1)"
                ))
            })?,
            None => iotscope_net::segment::DEFAULT_HOURS_PER_SEGMENT,
        };
        let store = FlowStore::open(&root)?;
        let report = store.compact_to_segments(hours_per_segment)?;
        if report.hours_compacted == 0 {
            return Err(CliError::Run(format!(
                "no hourly flowtuple files under {}",
                root.display()
            )));
        }
        return Ok(format!(
            "compacted {} hours into {} segments: {} -> {} bytes ({:+.1}%)",
            report.hours_compacted,
            report.segments_written,
            report.bytes_before,
            report.bytes_after,
            100.0 * (report.bytes_after as f64 / report.bytes_before as f64 - 1.0)
        ));
    }
    let format: StoreFormat = opts
        .require("--format", "migrate")?
        .parse()
        .map_err(CliError::Usage)?;
    let store = FlowStore::open(&root)?;

    // Walk day-N/hour-M.ft rather than assuming the paper window, so
    // partial and non-standard stores migrate completely.
    let hours = store.hours_on_disk()?;
    if hours.is_empty() {
        let manifest = store.manifest_path();
        let resident = if manifest.is_file() {
            Manifest::load(&manifest)?.len()
        } else {
            0
        };
        if resident == 0 {
            return Err(CliError::Run(format!(
                "no hourly flowtuple files under {}",
                root.display()
            )));
        }
        return Ok(format!(
            "nothing to upgrade: all {resident} hours are segment-resident, and segments hold only v3"
        ));
    }

    let rewritten = for_each_hour(&hours, workers, |&hour| {
        let path = store.hour_path(hour);
        let before = std::fs::metadata(&path)?.len();
        let flows = store.read_hour(hour)?;
        store.write_hour(hour, &flows)?;
        Ok((before, flows.len(), std::fs::metadata(&path)?.len()))
    })?;
    let (mut bytes_before, mut records, mut bytes_after) = (0u64, 0usize, 0u64);
    for (before, flows, after) in rewritten {
        bytes_before += before;
        records += flows;
        bytes_after += after;
    }
    Ok(format!(
        "migrated {} hours ({records} records) to {format:?}: {bytes_before} -> {bytes_after} bytes ({:+.1}%)",
        hours.len(),
        100.0 * (bytes_after as f64 / bytes_before as f64 - 1.0)
    ))
}

/// `iotscope export --data DIR --out DIR [--key K]`
///
/// Writes a shareable copy of the darknet traffic with prefix-preserving
/// source/destination anonymization — the §VI "share IoT-relevant
/// malicious empirical data with the research community" path. The
/// inventory is *not* copied (it is the sensitive part).
///
/// Export is a data copy, not an analysis, so it copies *every* stored
/// hour of the window — the hours of a day the analysis rule drops
/// too: the recipient applies the rule to the copy and drops the same
/// days, and no hour is lost on the way.
pub fn export(args: &[String]) -> Result<String, CliError> {
    use iotscope_net::anon::Anonymizer;
    let opts = ArgParser::new()
        .value("--data")
        .value("--out")
        .value("--key")
        .parse(args)?;
    let data = data_dir(&opts)?;
    let out: PathBuf = opts.require("--out", "export")?.into();
    let key: u64 = opts.parse_or("--key", 0x1077_5C09)?;

    let (src, stored) = open_window(&data)?;
    let present: Vec<(u32, UnixHour)> = stored
        .window
        .iter_intervals()
        .filter(|(_, hour)| src.has_hour(*hour))
        .collect();
    let source = HourSource::Store {
        store: &src,
        work: &present,
    };
    let dst = FlowStore::create(out.join("darknet"), StoreOptions::default())?;
    let anonymizer = Anonymizer::new(key);
    let mut flows = 0usize;
    for (k, &(_, hour)) in present.iter().enumerate() {
        let mut read = CollectSink::default();
        source.visit(k, &mut read)?;
        let anonymized: Vec<_> = read
            .into_flows()
            .iter()
            .map(|f| anonymizer.anonymize_flow(f))
            .collect();
        flows += anonymized.len();
        dst.write_hour(hour, &anonymized)?;
    }
    Ok(format!(
        "exported {} anonymized hours ({flows} flows) to {}/darknet/\nprefix structure preserved; identities keyed to --key",
        present.len(),
        out.display()
    ))
}

/// `iotscope diff --baseline DIR --data DIR [--threads N]`
pub fn diff(args: &[String]) -> Result<String, CliError> {
    let opts = ArgParser::new()
        .value("--baseline")
        .value("--data")
        .value("--threads")
        .parse(args)?;
    let baseline: PathBuf = opts.require("--baseline", "diff")?.into();
    let threads: usize = opts.parse_or("--threads", 8)?;
    let (inv_a, window_a, before) = analyze_dir(&baseline, threads)?;
    let (inv_b, window_b, after) = analyze_dir(&data_dir(&opts)?, threads)?;
    let d = iotscope_core::diff::diff(&before, &after);

    let mut out = dropped_days_note("baseline", &window_a);
    out.push_str(&dropped_days_note("current ", &window_b));
    // Head the diff with each side's headline aggregates, read through
    // the same QueryApi surface the daemon serves.
    for (label, analysis, inv) in [("baseline", &before, &inv_a), ("current ", &after, &inv_b)] {
        let s = QueryContext::batch(analysis, &inv.db, &inv.isps).summary();
        let _ = writeln!(
            out,
            "{label}: {} compromised ({} consumer, {} CPS) across {} countries, {} pkts",
            s.devices, s.consumer, s.cps, s.countries, s.total_packets
        );
    }
    let _ = writeln!(
        out,
        "devices: {} persisted, {} appeared, {} disappeared (churn {:.1}%)",
        d.persisted,
        d.appeared.len(),
        d.disappeared.len(),
        100.0 * d.churn()
    );
    let _ = writeln!(
        out,
        "newly attacked (victims): {}; newly exploited (scanners): {}",
        d.new_victims.len(),
        d.new_scanners.len()
    );
    let _ = writeln!(out, "per-class packet drift:");
    for c in &d.class_deltas {
        let rel = c
            .relative()
            .map(|r| format!("{:+.1}%", 100.0 * r))
            .unwrap_or_else(|| "n/a".to_owned());
        let _ = writeln!(
            out,
            "  {:<12} {:>10} -> {:>10}  ({rel})",
            c.class.to_string(),
            c.before,
            c.after
        );
    }
    Ok(out)
}

/// `iotscope validate --data DIR [--threads N]`
///
/// Compares what the pipeline infers from DIR's traffic — the analysis
/// `analyze` prints — against the ground-truth ledger the simulator
/// wrote (`truth.tsv`): exact recovery of the planted population, victim
/// precision/recall, and spike-interval coverage. The command an
/// operator runs to certify an analysis build against a known scenario.
pub fn validate(args: &[String]) -> Result<String, CliError> {
    use iotscope_telescope::ground_truth::{GroundTruth, Role};
    let opts = ArgParser::new()
        .value("--data")
        .value("--threads")
        .parse(args)?;
    let threads: usize = opts.parse_or("--threads", 8)?;
    let dir = data_dir(&opts)?;
    let truth = GroundTruth::load(dir.join("truth.tsv"))
        .map_err(|e| CliError::Run(format!("truth ledger: {e}")))?;
    let (_, stored, analysis) = analyze_dir(&dir, threads)?;

    let inferred: std::collections::HashSet<_> =
        analysis.view().compromised().iter().copied().collect();
    let designated: std::collections::HashSet<_> = truth.roles.keys().copied().collect();
    let recovered = designated.intersection(&inferred).count();
    let false_pos = inferred.difference(&designated).count();

    let truth_victims: std::collections::HashSet<_> = truth
        .devices_with_role(Role::DosVictim)
        .into_iter()
        .collect();
    let inferred_victims: std::collections::HashSet<_> =
        analysis.view().dos_victims().iter().copied().collect();
    let victim_hits = truth_victims.intersection(&inferred_victims).count();

    let mut spikes_found = 0usize;
    for &i in &truth.dos_spike_intervals {
        let spike = (i as usize)
            .checked_sub(1)
            .and_then(|k| analysis.backscatter_intervals.get(k))
            .ok_or_else(|| {
                CliError::Run(format!(
                    "truth ledger: spike interval {i} is outside the {}-hour window",
                    stored.window.num_hours()
                ))
            })?;
        if spike.total > 0 {
            spikes_found += 1;
        }
    }

    let pass = recovered == designated.len()
        && false_pos == 0
        && victim_hits == truth_victims.len()
        && spikes_found == truth.dos_spike_intervals.len();
    let mut out = dropped_days_note("window", &stored);
    let _ = writeln!(
        out,
        "designated devices recovered: {recovered}/{} (false positives: {false_pos})",
        designated.len()
    );
    let _ = writeln!(
        out,
        "DoS victims recovered:        {victim_hits}/{} (inferred {})",
        truth_victims.len(),
        inferred_victims.len()
    );
    let _ = writeln!(
        out,
        "planted spike intervals seen: {spikes_found}/{}",
        truth.dos_spike_intervals.len()
    );
    let _ = writeln!(out, "verdict: {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        return Err(CliError::Run(out));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotscope-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The span count of timer `name` in a `--metrics=json` section.
    fn timer_spans(output: &str, name: &str) -> Option<u64> {
        let entry = output.split_once(&format!("\"{name}\":{{"))?.1;
        let entry = entry.split_once('}')?.0;
        assert!(entry.contains("\"stability\":\"variant\",\"kind\":\"timer\""));
        entry.split_once("\"spans\":")?.1.parse().ok()
    }

    #[test]
    fn simulate_then_analyze_watch_investigate() {
        let dir = tmpdir("full");
        let dir_s = dir.to_str().unwrap();

        let out = simulate(&args(&["--out", dir_s, "--tiny", "--seed", "5"])).unwrap();
        assert!(out.contains("designated compromised"));
        assert!(dir.join("inventory.tsv").is_file());
        assert!(dir.join("darknet").is_dir());

        let report = analyze(&args(&["--data", dir_s, "--intel"])).unwrap();
        assert!(report.contains("Fig 1b"));
        assert!(report.contains("Table V"));
        assert!(report.contains("Table VII"));
        assert!(report.contains("compromised devices: 1050"));

        // Thread count must not change the report; --stats appends a
        // section with the run's accounting.
        let with_stats = analyze(&args(&[
            "--data",
            dir_s,
            "--intel",
            "--threads",
            "3",
            "--stats",
        ]))
        .unwrap();
        assert!(
            with_stats.starts_with(&report),
            "report differs across thread counts"
        );
        assert!(with_stats.contains("== store read stats =="));
        assert!(with_stats.contains("threads:         3"));
        assert!(with_stats.contains("hours ingested:  143"));
        assert!(with_stats.contains("stage times:     read "));

        // The acceptance command: `--store` aliases `--data`, and
        // `--metrics=json` appends a snapshot covering store reads,
        // per-stage timings, and analysis class counters.
        let with_metrics =
            analyze(&args(&["--store", dir_s, "--intel", "--metrics=json"])).unwrap();
        assert!(
            with_metrics.starts_with(&report),
            "metrics must append, not alter, the report"
        );
        assert!(with_metrics.contains("\"store.bytes_read\""));
        assert!(with_metrics.contains("\"pipeline.ingest_time\""));
        assert!(with_metrics.contains("\"pipeline.wall_time\""));
        assert!(with_metrics.contains("\"analysis.packets.consumer.tcp_scan\""));
        assert_eq!(timer_spans(&with_metrics, "inventory.load_time"), Some(1));
        assert_eq!(timer_spans(&with_metrics, "serve.startup_time"), None);

        let watch_out = watch(&args(&["--data", dir_s, "--metrics=json"])).unwrap();
        // Start-up is one span, the inventory load one span inside it.
        assert_eq!(timer_spans(&watch_out, "inventory.load_time"), Some(1));
        assert_eq!(timer_spans(&watch_out, "serve.startup_time"), Some(1));
        assert!(watch_out.contains("devices discovered"));
        assert!(watch_out.contains("1050 compromised devices indexed"));
        assert!(watch_out.contains("SWEEP"));
        assert!(!watch_out.contains("devices scored"), "no intel by default");

        // --intel interleaves score-escalation alerts with the
        // behavioral ones and reports the scored-device count.
        let watch_intel = watch(&args(&["--data", dir_s, "--intel"])).unwrap();
        assert!(watch_intel.contains("1050 compromised devices indexed"));
        assert!(watch_intel.contains("devices scored by threat intel"));
        assert!(watch_intel.contains("SCORE"), "{watch_intel}");

        let mut serve_buf = Vec::new();
        serve(
            &args(&["--data", dir_s, "--once", "--intel", "--metrics=json"]),
            &mut serve_buf,
        )
        .unwrap();
        let serve_out = String::from_utf8(serve_buf).unwrap();
        assert!(serve_out.contains("serving on http://"));
        assert!(serve_out.contains("ingest complete: 143 hours"));
        assert!(serve_out.contains("devices scored by threat intel"));
        // The registry `/metrics` serves, start-up included.
        assert_eq!(timer_spans(&serve_out, "inventory.load_time"), Some(1));
        assert_eq!(timer_spans(&serve_out, "serve.startup_time"), Some(1));

        let inv = investigate(&args(&["--data", dir_s, "--intel"])).unwrap();
        assert!(inv.contains("reference groups"));
        assert!(inv.contains("cluster 1:"));
        assert!(inv.contains("attributions total"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `investigate --intel` reads the window once: its one pass
    /// fetches each stored hour a single time for both the behavior
    /// fold and the analysis, and that analysis is the pipeline's.
    #[test]
    fn investigate_reads_each_stored_hour_once() {
        let dir = tmpdir("investigate-once");
        simulate(&args(&[
            "--out",
            dir.to_str().unwrap(),
            "--tiny",
            "--seed",
            "3",
        ]))
        .unwrap();
        let inventory = inventory_io::load(dir.join("inventory.tsv")).unwrap();
        let (store, stored) = open_window(&dir).unwrap();
        let registry = Registry::new();
        let instrumented = store.clone().instrumented(&registry);
        let (vectors, analysis) = fold_window(&inventory, &instrumented, &stored, true).unwrap();
        let hours_read = registry.snapshot().counter("store.hours_read");
        assert_eq!(hours_read, Some(stored.work.len() as u64));
        assert!(!vectors.is_empty());
        let pipeline = analyze_window(&inventory, &store, &stored, AnalyzeOptions::new());
        assert_eq!(analysis, Some(pipeline.unwrap().analysis));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupt hour fails `analyze_window` with the hour named, and no
    /// hour is read twice on the way: one sequential pass stops at the
    /// bad hour, interval 59.
    #[test]
    fn analyze_window_reads_each_hour_once_when_one_is_corrupt() {
        let dir = tmpdir("analyze-corrupt-once");
        simulate(&args(&[
            "--out",
            dir.to_str().unwrap(),
            "--tiny",
            "--seed",
            "4",
        ]))
        .unwrap();
        let inventory = inventory_io::load(dir.join("inventory.tsv")).unwrap();
        let (store, stored) = open_window(&dir).unwrap();
        let hour = stored.window.hour_of_interval(59).unwrap();
        let path = store.hour_path(hour);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let registry = Registry::new();
        let instrumented = store.clone().instrumented(&registry);
        let options = AnalyzeOptions::new().threads(1).metrics(&registry);
        let err = analyze_window(&inventory, &instrumented, &stored, options).unwrap_err();
        assert!(
            err.to_string()
                .starts_with(&format!("store error: {hour} (interval 59): ")),
            "{err}"
        );
        assert_eq!(registry.snapshot().counter("store.hours_read"), Some(59));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_upgrades_legacy_hours_to_v3() {
        // The committed golden hours (one per format, all at the same
        // hour), each upgraded in a store of its own.
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden");
        let hour = UnixHour::new(414_456);
        for (name, magic) in [
            ("hour-v1.ft", b"IOTFT01"),
            ("hour-v2.ft", b"IOTFT02"),
            ("hour-v3.ft", b"IOTFT03"),
        ] {
            let dir = tmpdir(&format!("migrate-{name}"));
            let store = FlowStore::create(dir.join("darknet"), StoreOptions::default()).unwrap();
            let path = store.hour_path(hour);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::copy(fixtures.join(name), &path).unwrap();
            assert_eq!(&std::fs::read(&path).unwrap()[..7], magic);
            let before = store.read_hour(hour).unwrap();

            let dir_s = dir.to_str().unwrap();
            let msg = migrate(&args(&["--data", dir_s, "--format", "v3"])).unwrap();
            assert!(
                msg.contains("migrated 1 hours (10000 records) to V3"),
                "{msg}"
            );
            let rewritten = std::fs::read(&path).unwrap();
            assert_eq!(&rewritten[..7], b"IOTFT03", "{name}");
            // Header flag bit 1: the columns are bit-packed where that
            // is smaller, so even the flag-clear v3 archive shrinks.
            assert_ne!(rewritten[7] & 0b10, 0, "{name}");
            let archived = std::fs::metadata(fixtures.join("hour-v3.ft")).unwrap();
            assert!((rewritten.len() as u64) < archived.len(), "{name}");
            assert_eq!(store.read_hour(hour).unwrap(), before, "{name}");

            // v3 is the only format migrate writes.
            for format in ["v2", "v1", "v9"] {
                match migrate(&args(&["--data", dir_s, "--format", format])) {
                    Err(CliError::Usage(msg)) => assert!(msg.contains("v3"), "{msg}"),
                    other => panic!("--format {format}: expected a usage error, got {other:?}"),
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn migrate_segmented_compacts_and_preserves_reads() {
        let dir = tmpdir("migrate-seg");
        let root = dir.join("darknet");
        let store = FlowStore::create(&root, StoreOptions::default()).unwrap();
        let built = PaperScenario::build(PaperScenarioConfig::tiny(11));
        let hours: Vec<_> = (1..=5).map(|i| built.scenario.generate_hour(i)).collect();
        for h in &hours {
            store.write_hour(h.hour, &h.flows).unwrap();
        }
        let before: Vec<_> = hours
            .iter()
            .map(|h| store.read_hour(h.hour).unwrap())
            .collect();

        let dir_s = dir.to_str().unwrap();
        assert!(matches!(
            migrate(&args(&["--data", dir_s, "--format", "v3", "--segmented"])),
            Err(CliError::Usage(_))
        ));
        // Zero hours per segment is refused while parsing, not by the
        // segment builder: a usage error (exit 2) that touches nothing.
        match migrate(&args(&[
            "--data",
            dir_s,
            "--segmented",
            "--hours-per-segment",
            "0",
        ])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--hours-per-segment"), "{msg}"),
            other => panic!("--hours-per-segment 0: expected a usage error, got {other:?}"),
        }
        assert!(!root.join("segments").exists());
        let msg = migrate(&args(&[
            "--data",
            dir_s,
            "--segmented",
            "--hours-per-segment",
            "2",
        ]))
        .unwrap();
        assert!(msg.contains("compacted 5 hours into 3 segments"), "{msg}");
        assert!(root.join("segments").join("manifest.idx").is_file());

        // Per-hour files are gone, reads resolve through the segments,
        // bit-identical to the pre-compaction store.
        let fresh = FlowStore::open(&root).unwrap();
        for (h, flows) in hours.iter().zip(&before) {
            assert!(!fresh.hour_path(h.hour).is_file());
            assert!(fresh.has_hour(h.hour));
            assert_eq!(&fresh.read_hour(h.hour).unwrap(), flows);
        }
        // Nothing left to compact a second time.
        assert!(matches!(
            migrate(&args(&["--data", dir_s, "--segmented"])),
            Err(CliError::Run(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_v3_on_a_compacted_store_has_nothing_to_upgrade() {
        let dir = tmpdir("migrate-v3-compacted");
        let store = FlowStore::create(dir.join("darknet"), StoreOptions::default()).unwrap();
        let built = PaperScenario::build(PaperScenarioConfig::tiny(12));
        for h in (1..=3).map(|i| built.scenario.generate_hour(i)) {
            store.write_hour(h.hour, &h.flows).unwrap();
        }
        let dir_s = dir.to_str().unwrap();
        migrate(&args(&["--data", dir_s, "--segmented"])).unwrap();
        let msg = migrate(&args(&["--data", dir_s, "--format", "v3"])).unwrap();
        assert_eq!(
            msg,
            "nothing to upgrade: all 3 hours are segment-resident, and segments hold only v3"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_v3_on_a_store_without_hours_fails() {
        let dir = tmpdir("migrate-v3-empty");
        FlowStore::create(dir.join("darknet"), StoreOptions::default()).unwrap();
        match migrate(&args(&["--data", dir.to_str().unwrap(), "--format", "v3"])) {
            Err(CliError::Run(msg)) => assert!(msg.contains("no hourly flowtuple files"), "{msg}"),
            other => panic!("expected a run error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The worker counts the fan-out is pinned to: one (the sequential
    /// loop), two, and seven (more than a CI runner has cores).
    const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

    #[test]
    fn for_each_hour_runs_every_item_once_and_keeps_order() {
        for workers in WORKER_COUNTS {
            let runs = AtomicUsize::new(0);
            let squares = for_each_hour(&(0..50u64).collect::<Vec<_>>(), workers, |&i| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(i * i)
            })
            .unwrap();
            assert_eq!(squares, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(runs.into_inner(), 50, "{workers} workers");
            let none: Vec<()> = for_each_hour(&[] as &[u8], workers, |_| Ok(())).unwrap();
            assert!(none.is_empty());
        }
    }

    #[test]
    fn for_each_hour_reports_the_smallest_failing_item_and_stops() {
        // Item 1 fails first in time: item 0 cannot finish until item 1
        // has sent. Item 0 then fails too, and its error must win —
        // the one a sequential loop stops at. With two workers both are
        // busy until both have failed, so no later item may start; with
        // more, the others may legitimately run ahead before item 1's
        // failure lands.
        for workers in [2, 7] {
            let (tx, rx) = std::sync::mpsc::channel();
            let rx = std::sync::Mutex::new(rx);
            let started = AtomicUsize::new(0);
            let err = for_each_hour(&(0..20usize).collect::<Vec<_>>(), workers, |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                match i {
                    0 => {
                        rx.lock().unwrap().recv().unwrap();
                        Err(CliError::Run("item 0".to_owned()))
                    }
                    1 => {
                        tx.send(()).unwrap();
                        Err(CliError::Run("item 1".to_owned()))
                    }
                    _ => Ok(()),
                }
            })
            .unwrap_err();
            assert_eq!(err.to_string(), "item 0", "{workers} workers");
            if workers == 2 {
                assert_eq!(
                    started.into_inner(),
                    2,
                    "an item started after the failures"
                );
            }
        }
    }

    #[test]
    fn parallel_migrate_reports_the_earliest_corrupt_hour() {
        let dir = tmpdir("migrate-corrupt");
        let store = FlowStore::create(dir.join("darknet"), StoreOptions::default()).unwrap();
        let built = PaperScenario::build(PaperScenarioConfig::tiny(13));
        let hours: Vec<_> = (1..=9).map(|i| built.scenario.generate_hour(i)).collect();
        for h in &hours {
            store.write_hour(h.hour, &h.flows).unwrap();
        }
        let originals: Vec<_> = hours
            .iter()
            .map(|h| store.read_hour(h.hour).unwrap())
            .collect();
        // Two corrupt hours with different errors: a bad block checksum
        // (hour 3) and a file cut short of its header (hour 6).
        let (early, late) = (hours[2].hour, hours[5].hour);
        let mut bytes = std::fs::read(store.hour_path(early)).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(store.hour_path(early), bytes).unwrap();
        std::fs::write(store.hour_path(late), b"IOTFT03").unwrap();
        let error_of = |hour| CliError::from(store.read_hour(hour).unwrap_err()).to_string();
        let want = error_of(early);
        assert_ne!(want, error_of(late));

        let dir_s = dir.to_str().unwrap();
        for workers in WORKER_COUNTS {
            let err = migrate_on(&args(&["--data", dir_s, "--format", "v3"]), workers).unwrap_err();
            assert_eq!(err.to_string(), want, "{workers} workers");
            for (h, flows) in hours.iter().zip(&originals) {
                if h.hour != early && h.hour != late {
                    assert_eq!(
                        &store.read_hour(h.hour).unwrap(),
                        flows,
                        "{workers} workers"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_migrate_of_a_simulated_store_rewrites_identical_bytes() {
        let dir = tmpdir("migrate-identical");
        let dir_s = dir.to_str().unwrap();
        simulate(&args(&["--out", dir_s, "--tiny", "--seed", "14"])).unwrap();
        let store = FlowStore::open(dir.join("darknet")).unwrap();
        let files = |store: &FlowStore| -> Vec<Vec<u8>> {
            let hours = store.hours_on_disk().unwrap();
            assert_eq!(hours.len(), 143);
            hours
                .iter()
                .map(|h| std::fs::read(store.hour_path(*h)).unwrap())
                .collect()
        };
        let written = files(&store);
        for workers in WORKER_COUNTS {
            let msg = migrate_on(&args(&["--data", dir_s, "--format", "v3"]), workers).unwrap();
            assert!(msg.starts_with("migrated 143 hours"), "{msg}");
            assert!(files(&store) == written, "{workers} workers changed a byte");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_rejects_scales_that_build_no_dataset() {
        let dir = tmpdir("bad-scale");
        let dir_s = dir.to_str().unwrap();
        for scale in ["-1", "0", "NaN", "inf", "abc"] {
            match simulate(&args(&["--out", dir_s, "--tiny", "--scale", scale])) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--scale"), "{scale}: {msg}"),
                other => panic!("--scale {scale}: expected a usage error, got {other:?}"),
            }
        }
        // `--format` is gone: v3 is the only format written.
        assert!(matches!(
            simulate(&args(&["--out", dir_s, "--tiny", "--format", "v3"])),
            Err(CliError::Usage(_))
        ));
        assert!(!dir.exists(), "a usage error writes nothing");
    }

    #[test]
    fn export_anonymizes_but_preserves_structure() {
        let dir = tmpdir("export-src");
        let dir_s = dir.to_str().unwrap();
        simulate(&args(&["--out", dir_s, "--tiny", "--seed", "6"])).unwrap();

        let out = tmpdir("export-dst");
        let out_s = out.to_str().unwrap();
        let msg = export(&args(&["--data", dir_s, "--out", out_s, "--key", "99"])).unwrap();
        assert!(msg.contains("exported 143 anonymized hours"));

        // Same flow counts per hour, but addresses differ.
        let src = FlowStore::open(dir.join("darknet")).unwrap();
        let dst = FlowStore::open(out.join("darknet")).unwrap();
        let window = AnalysisWindow::paper();
        let hour = window.start();
        let a = src.read_hour(hour).unwrap();
        let b = dst.read_hour(hour).unwrap();
        assert_eq!(a.len(), b.len());
        let src_ips: std::collections::HashSet<_> = a.iter().map(|f| f.src_ip).collect();
        let dst_ips: std::collections::HashSet<_> = b.iter().map(|f| f.src_ip).collect();
        assert_eq!(src_ips.len(), dst_ips.len()); // injective
        assert!(src_ips.intersection(&dst_ips).count() < src_ips.len() / 10);
        // The exported directory has no inventory (that is the point).
        assert!(!out.join("inventory.tsv").exists());

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn diff_between_two_seeds_reports_churn() {
        let a = tmpdir("diff-a");
        let b = tmpdir("diff-b");
        simulate(&args(&[
            "--out",
            a.to_str().unwrap(),
            "--tiny",
            "--seed",
            "21",
        ]))
        .unwrap();
        simulate(&args(&[
            "--out",
            b.to_str().unwrap(),
            "--tiny",
            "--seed",
            "21",
        ]))
        .unwrap();
        // Identical seeds: zero churn.
        let same = diff(&args(&[
            "--baseline",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            same.contains("0 appeared, 0 disappeared (churn 0.0%)"),
            "{same}"
        );
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn validate_passes_on_fresh_simulation() {
        let dir = tmpdir("validate");
        let dir_s = dir.to_str().unwrap();
        simulate(&args(&["--out", dir_s, "--tiny", "--seed", "33"])).unwrap();
        let out = validate(&args(&["--data", dir_s])).unwrap();
        assert!(out.contains("verdict: PASS"), "{out}");
        // Corrupt the truth: claim a bogus extra victim device id, then
        // validation must fail.
        let truth_path = dir.join("truth.tsv");
        let mut text = std::fs::read_to_string(&truth_path).unwrap();
        text.push_str("role|999999|1|DosVictim\n");
        std::fs::write(&truth_path, &text).unwrap();
        assert!(validate(&args(&["--data", dir_s])).is_err());
        // A spike interval outside the window is a run error naming it.
        for interval in [0, 500] {
            let mut bad = text.clone();
            bad.push_str(&format!("spike|{interval}\n"));
            std::fs::write(&truth_path, bad).unwrap();
            match validate(&args(&["--data", dir_s])) {
                Err(CliError::Run(msg)) => assert_eq!(
                    msg,
                    format!(
                        "truth ledger: spike interval {interval} is outside the 143-hour window"
                    )
                ),
                other => panic!("spike|{interval}: expected a run error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_missing_data_dir_fails_cleanly() {
        let err = analyze(&args(&["--data", "/definitely/not/here"])).unwrap_err();
        assert!(format!("{err}").contains("inventory error"));
    }

    #[test]
    fn simulate_requires_out() {
        assert!(matches!(
            simulate(&args(&["--tiny"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_format_parses_the_three_spellings() {
        let parse = |argv: &[&str]| {
            let opts = ArgParser::new()
                .analysis_flags()
                .parse(&args(argv))
                .unwrap();
            metrics_format(&opts)
        };
        assert!(parse(&[]).unwrap().is_none());
        assert!(matches!(
            parse(&["--metrics"]).unwrap(),
            Some(MetricsFormat::Text)
        ));
        assert!(matches!(
            parse(&["--metrics=text"]).unwrap(),
            Some(MetricsFormat::Text)
        ));
        assert!(matches!(
            parse(&["--metrics=json"]).unwrap(),
            Some(MetricsFormat::Json)
        ));
        assert!(matches!(
            parse(&["--metrics=yaml"]),
            Err(CliError::Usage(_))
        ));
    }
}
