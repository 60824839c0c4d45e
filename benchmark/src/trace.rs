//! The traced run: spans around calls into each layer's public
//! functions, kept in memory and handed back to be written out.
//!
//! **This file is the pinned library API list.** Every `iotscope-*`
//! function the benchmark links is called from here and nowhere else,
//! so a refactor of the libraries breaks the benchmark in one place.
//! Deliberately absent: `ParallelMode`, `PrefixTrie`,
//! `encode_hour_v1/v2`, `decode_hour_with` and per-record sinks.
//!
//! The end-to-end numbers never pass through this file: they come from
//! spawning the real CLI with tracing off (`proc.rs`). What is here
//! replays in-process what the CLI verbs do, one span per call, so the
//! per-layer table can say where an end-to-end move came from.

use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::query::{QueryApi, QueryContext};
use iotscope_core::report::{Report, ReportContext, ReportIntel};
use iotscope_core::score::{ScoreConfig, ScoreEngine};
use iotscope_core::stream::{StreamConfig, StreamingAnalyzer};
use iotscope_core::{Analysis, Analyzer};
use iotscope_devicedb::inventory_io::{self, LoadedInventory};
use iotscope_devicedb::{CorrelationIndex, Realm};
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::{IntelContext, IntelIndex};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::segment::DEFAULT_HOURS_PER_SEGMENT;
use iotscope_net::store::{
    decode_hour, decode_hour_visit, encode_hour, ColumnBlock, DecodeOptions, FlowSink, FlowStore,
    StoreFormat, StoreOptions,
};
use iotscope_net::time::{AnalysisWindow, UnixHour};
use iotscope_obs::Registry;
use iotscope_serve::http::HttpServer;
use iotscope_serve::{TelescopeService, ENDPOINTS};
use iotscope_telescope::HourTraffic;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::loadgen::Client;
use crate::stats::{self, digest};

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Work done inside the span (bytes, records, …; 0 if uncounted).
    pub count: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// An in-memory span recorder. Disabled, every call is a no-op that
/// takes no timestamp — the untraced replay the overhead is measured
/// against runs the very same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].count = count;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ (span duration − the part of it its child spans cover).
    pub self_ns: u64,
    pub count: u64,
}

impl Layer {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Fold spans into per-name layers. A span's self time is its duration
/// minus its direct children's durations (children never overlap: the
/// tracer is single-threaded and strictly nested).
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(children);
        layer.count += s.count;
    }
    out
}

/// What one traced repetition produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values of this repetition, by name.
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl Traced {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The `(interval, hour)` work list `analyze` walks: every window hour
/// the store holds. (The simulated windows have no incomplete days, so
/// the day-completeness rule drops nothing.)
fn work_list(store: &FlowStore) -> Vec<(u32, UnixHour)> {
    AnalysisWindow::paper()
        .iter_intervals()
        .filter(|(_, hour)| store.has_hour(*hour))
        .collect()
}

fn seed_of(inventory: &LoadedInventory) -> u64 {
    inventory
        .meta
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Counts taken while ingesting sequentially.
#[derive(Debug, Default, Clone, Copy)]
struct IngestCounts {
    hours: u64,
    mapped_hours: u64,
    bytes: u64,
    records: u64,
}

/// The sequential store path of `analyze --threads 1`, call for call:
/// build the correlation index, then per hour `fetch_hour_bytes` and
/// the fused `visit_hour_for` into `Analyzer::begin_hour`.
fn ingest_sequential(
    t: &mut Tracer,
    inventory: &LoadedInventory,
    store: &FlowStore,
) -> Result<(Analysis, IngestCounts), String> {
    let hours = AnalysisWindow::paper().num_hours();
    let s = t.enter("devicedb.index_build");
    let devices = black_box(inventory.db.correlation_index()).len();
    t.exit(s, devices as u64);

    let mut counts = IngestCounts::default();
    let mut an = Analyzer::new(&inventory.db, hours);
    for (interval, hour) in work_list(store) {
        let s = t.enter("net.read");
        let bytes = store
            .fetch_hour_bytes(hour)
            .map_err(err("fetch_hour_bytes"))?;
        t.exit(s, bytes.len() as u64);
        counts.hours += 1;
        counts.mapped_hours += u64::from(bytes.is_mapped());
        counts.bytes += bytes.len() as u64;

        let s = t.enter("core.ingest_fused");
        let mut ingest = an.begin_hour(interval);
        let visited = store
            .visit_hour_for(hour, &bytes, DecodeOptions::default(), &mut ingest)
            .map_err(err("visit_hour_for"))?;
        ingest.finish();
        t.exit(s, visited.records as u64);
        counts.records += visited.records as u64;
    }
    let s = t.enter("core.finish");
    let analysis = an.finish();
    t.exit(s, analysis.device_count() as u64);
    Ok((analysis, counts))
}

/// One store-backed `AnalysisPipeline::run`, as `analyze` configures it.
fn pipeline_run(
    inventory: &LoadedInventory,
    store: &FlowStore,
    threads: usize,
    registry: Option<&Registry>,
) -> Result<iotscope_core::pipeline::AnalysisOutcome, String> {
    let window = AnalysisWindow::paper();
    let mut options = AnalyzeOptions::new()
        .window(window)
        .threads(threads)
        .stats(true);
    if let Some(r) = registry {
        options = options.metrics(r);
    }
    AnalysisPipeline::new(&inventory.db, window.num_hours())
        .run(store, &options)
        .map_err(err("AnalysisPipeline::run"))
}

/// What one replay of `analyze` leaves behind.
struct Replayed {
    /// The rendered report (the CLI prints it plus a newline).
    text: String,
    analysis: Analysis,
    /// Present when the ingest stage ran span per call (one thread).
    counts: Option<IngestCounts>,
}

/// What `analyze --data D --intel --threads N` does, in its order. At
/// one thread the ingest stage is [`ingest_sequential`], span per call;
/// above one thread the sharded driver is a single `core.pipeline` span
/// (it cannot be replayed from outside).
fn replay_analyze(t: &mut Tracer, data: &Path, threads: usize) -> Result<Replayed, String> {
    let root = t.enter("analyze");

    let s = t.enter("devicedb.inventory_load");
    let inventory =
        inventory_io::load(data.join("inventory.tsv")).map_err(err("inventory load"))?;
    t.exit(s, inventory.db.len() as u64);

    let s = t.enter("net.store_open");
    let store = FlowStore::open(data.join("darknet")).map_err(err("FlowStore::open"))?;
    // `analyze` resolves its coverage before reading: on a segmented
    // store this is where the manifest loads.
    let present = work_list(&store).len();
    t.exit(s, present as u64);

    let (analysis, counts) = if threads <= 1 {
        let (analysis, counts) = ingest_sequential(t, &inventory, &store)?;
        (analysis, Some(counts))
    } else {
        let s = t.enter("core.pipeline");
        let outcome = pipeline_run(&inventory, &store, threads, None)?;
        t.exit(s, outcome.stats.map_or(0, |st| st.records_decoded));
        (outcome.analysis, None)
    };

    let s = t.enter("core.candidates");
    let candidates =
        QueryContext::batch(&analysis, &inventory.db, &inventory.isps).candidates(4_000);
    t.exit(s, candidates.len() as u64);

    let s = t.enter("intel.synth");
    let intel = IntelBuilder::new(IntelSynthConfig::paper(seed_of(&inventory)))
        .build(&inventory.db, &candidates);
    t.exit(s, candidates.len() as u64);

    let s = t.enter("core.report_build");
    let report = Report::build(&ReportContext {
        analysis: &analysis,
        db: &inventory.db,
        isps: &inventory.isps,
        intel: Some(ReportIntel {
            threats: &intel.threats,
            malware: &intel.malware,
            resolver: &intel.resolver,
            top_n_per_realm: 4_000,
        }),
    });
    t.exit(s, 0);

    let s = t.enter("core.report_render");
    let text = report.render();
    t.exit(s, text.len() as u64);

    t.exit(root, 0);
    Ok(Replayed {
        text,
        analysis,
        counts,
    })
}

/// Block-counting sink for the decode-only pass: correlates each
/// block's `src_ip` column under a child span, so `net.decode`'s self
/// time is decode alone and `devicedb.correlate` is the merge-join alone.
struct DecodeProbe<'a> {
    tracer: &'a mut Tracer,
    index: &'a CorrelationIndex,
    correlated: Vec<Option<(u32, Realm)>>,
    blocks: u64,
}

impl FlowSink for DecodeProbe<'_> {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        // Only block-less v1/v2 files arrive here; the simulated stores
        // are v3, so there is nothing to correlate block-wise.
        black_box(flows);
    }

    fn visit_block(&mut self, block: &ColumnBlock) {
        self.blocks += 1;
        let s = self.tracer.enter("devicedb.correlate");
        self.index
            .correlate_sorted_block(block.src_ip(), &mut self.correlated);
        black_box(&self.correlated);
        self.tracer.exit(s, block.len() as u64);
    }
}

/// One traced repetition of a batch workload. `expect_digest` is the
/// digest of the CLI's stdout for the same command: the replay must
/// render the very same report, or it no longer replays `analyze`.
pub fn batch(data: &Path, threads: usize, expect_digest: u64) -> Result<Traced, String> {
    let mut out = Traced::default();

    // Untraced first (it also warms what the traced replay then finds
    // warm), then traced: the ratio is the tracing overhead.
    let start = Instant::now();
    replay_analyze(&mut Tracer::new(false), data, threads)?;
    let untraced_s = start.elapsed().as_secs_f64();

    let mut t = Tracer::new(true);
    let replayed = replay_analyze(&mut t, data, threads)?;
    if digest(format!("{}\n", replayed.text).as_bytes()) != expect_digest {
        return Err("the traced replay's report differs from the CLI's stdout".to_owned());
    }

    // Measurement passes outside the replayed path (own root spans).
    let probes = t.enter("probes");
    let inventory =
        inventory_io::load(data.join("inventory.tsv")).map_err(err("inventory load"))?;
    let store = FlowStore::open(data.join("darknet")).map_err(err("FlowStore::open"))?;

    // The sequential ingest, when the replay above could not show it
    // (first, so that its index build is a real one).
    let analysis = replayed.analysis;
    let counts = match replayed.counts {
        Some(counts) => counts,
        None => ingest_sequential(&mut t, &inventory, &store)?.1,
    };

    // Decode-only pass.
    let index = inventory.db.correlation_index();
    let mut decoded_records = 0u64;
    let mut decoded_blocks = 0u64;
    for (_, hour) in work_list(&store) {
        let bytes = store
            .fetch_hour_bytes(hour)
            .map_err(err("fetch_hour_bytes"))?;
        let s = t.enter("net.decode");
        let mut sink = DecodeProbe {
            tracer: &mut t,
            index,
            correlated: Vec::new(),
            blocks: 0,
        };
        let visited = decode_hour_visit(&bytes, DecodeOptions::default(), &mut sink)
            .map_err(err("decode_hour_visit"))?;
        decoded_blocks += sink.blocks;
        t.exit(s, visited.records as u64);
        decoded_records += visited.records as u64;
    }

    // The pipeline's own accounting, at the workload's thread count and
    // (for the efficiency ratio) at one thread.
    let registry = Registry::new();
    let s = t.enter("core.pipeline.probe");
    let outcome = pipeline_run(&inventory, &store, threads, Some(&registry))?;
    t.exit(s, 0);
    let par_stats = outcome.stats.expect("stats were requested");
    let seq_wall_s = if threads > 1 {
        let seq = pipeline_run(&inventory, &store, 1, None)?;
        seq.stats
            .expect("stats were requested")
            .wall_time
            .as_secs_f64()
    } else {
        par_stats.wall_time.as_secs_f64()
    };
    let shard_devices: Vec<f64> = (0..par_stats.threads)
        .filter_map(|i| {
            outcome
                .metrics
                .as_ref()
                .and_then(|m| m.gauge(&format!("pipeline.shard.{i}.devices")))
        })
        .map(|d| d as f64)
        .collect();

    // Intel index build and the batch score fold, which `Report::build`
    // runs internally.
    let candidates =
        QueryContext::batch(&analysis, &inventory.db, &inventory.isps).candidates(4_000);
    let intel = IntelBuilder::new(IntelSynthConfig::paper(seed_of(&inventory)))
        .build(&inventory.db, &candidates);
    let s = t.enter("intel.index_build");
    let intel_index = IntelIndex::build(&intel.threats, &intel.malware);
    t.exit(s, intel_index.len() as u64);
    let mut engine = ScoreEngine::new(&inventory.db, &intel_index, ScoreConfig::default());
    let s = t.enter("core.score");
    let escalations = engine.fold(&analysis).len();
    t.exit(s, escalations as u64);
    t.exit(probes, 0);

    let spans = t.into_spans();
    let by = layers(&spans);
    let total = |name: &str| by.get(name).map_or(0.0, Layer::total_s);
    let self_s = |name: &str| by.get(name).map_or(0.0, Layer::self_s);
    let root_s = total("analyze");

    out.set(
        "devicedb.inventory_load_s",
        total("devicedb.inventory_load"),
    );
    out.set("devicedb.devices", inventory.db.len() as f64);
    out.set("devicedb.index_build_s", total("devicedb.index_build"));
    out.set("net.store_open_s", total("net.store_open"));
    out.set("net.read_s", total("net.read"));
    out.set("net.bytes_read", counts.bytes as f64);
    out.set(
        "net.mapped_share",
        counts.mapped_hours as f64 / counts.hours.max(1) as f64,
    );
    let decode_s = self_s("net.decode");
    let correlate_s = total("devicedb.correlate");
    out.set("net.decode_s", decode_s);
    out.set("net.records_decoded", decoded_records as f64);
    out.set("net.blocks_decoded", decoded_blocks as f64);
    out.set("net.decode_mb_per_s", counts.bytes as f64 / 1e6 / decode_s);
    out.set("devicedb.correlate_s", correlate_s);
    out.set(
        "devicedb.correlate_hit_ratio",
        1.0 - analysis.unmatched_flows as f64 / counts.records.max(1) as f64,
    );
    let fused_s = total("core.ingest_fused");
    out.set("core.ingest_fused_s", fused_s);
    out.set("core.classify_self_s", fused_s - decode_s - correlate_s);
    out.set("core.finish_s", total("core.finish"));
    out.set("core.pipeline_s", par_stats.wall_time.as_secs_f64());
    out.set("core.pipeline.read_s", par_stats.read_time.as_secs_f64());
    out.set(
        "core.pipeline.ingest_s",
        par_stats.ingest_time.as_secs_f64(),
    );
    out.set("core.pipeline.merge_s", par_stats.merge_time.as_secs_f64());
    out.set(
        "core.par_efficiency",
        seq_wall_s / (par_stats.threads as f64 * par_stats.wall_time.as_secs_f64()),
    );
    let skew = if shard_devices.is_empty() {
        1.0
    } else {
        let mean = shard_devices.iter().sum::<f64>() / shard_devices.len() as f64;
        shard_devices.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
    };
    out.set("core.shard_skew", skew);
    out.set("core.candidates_s", total("core.candidates"));
    out.set("intel.synth_s", total("intel.synth"));
    out.set("intel.index_build_s", total("intel.index_build"));
    out.set("core.score_s", total("core.score"));
    out.set("core.report_build_s", total("core.report_build"));
    out.set("core.report_render_s", total("core.report_render"));
    out.set("trace.root_s", root_s);
    // Share of the replayed wall that some named layer span accounts
    // for: every span under the root except the root's own glue.
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.set("trace.coverage", covered as f64 / 1e9 / root_s);
    out.set("trace.overhead", root_s / untraced_s);
    out.spans = spans;
    Ok(out)
}

/// One traced repetition of `store_write` over `copy` (a private copy
/// of the per-hour v3 data dir, consumed): what `migrate --format v3`
/// then `migrate --segmented` do, span per call.
pub fn write(copy: &Path) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut t = Tracer::new(true);
    let root_dir = copy.join("darknet");
    let root = t.enter("migrate");
    let options = StoreOptions {
        format: StoreFormat::V3,
        ..StoreOptions::default()
    };
    let src = FlowStore::open(&root_dir).map_err(err("FlowStore::open"))?;
    let dst = FlowStore::create(&root_dir, options).map_err(err("FlowStore::create"))?;
    let hours = src.hours_on_disk().map_err(err("hours_on_disk"))?;
    let mut hour_bytes = 0u64;
    let mut records = 0u64;
    for &hour in &hours {
        let s = t.enter("net.read");
        let bytes = src
            .fetch_hour_bytes(hour)
            .map_err(err("fetch_hour_bytes"))?;
        t.exit(s, bytes.len() as u64);

        let s = t.enter("net.decode");
        let (_, flows) = decode_hour(&bytes).map_err(err("decode_hour"))?;
        t.exit(s, flows.len() as u64);
        records += flows.len() as u64;

        // `write_hour` encodes internally; encoding once more on its own
        // splits its wall into encode and tmp+fsync+rename.
        let s = t.enter("net.encode");
        let encoded = black_box(encode_hour(hour, &flows, options)).len();
        t.exit(s, encoded as u64);
        hour_bytes += encoded as u64;

        let s = t.enter("net.write_hour");
        dst.write_hour(hour, &flows).map_err(err("write_hour"))?;
        t.exit(s, encoded as u64);
    }
    let s = t.enter("net.compact");
    let store = FlowStore::open(&root_dir).map_err(err("FlowStore::open"))?;
    let report = store
        .compact_to_segments(DEFAULT_HOURS_PER_SEGMENT)
        .map_err(err("compact_to_segments"))?;
    t.exit(s, report.bytes_after);
    t.exit(root, records);

    let spans = t.into_spans();
    let by = layers(&spans);
    let total = |name: &str| by.get(name).map_or(0.0, Layer::total_s);
    let encode_s = total("net.encode");
    out.set("net.read_s", total("net.read"));
    out.set(
        "net.bytes_read",
        by.get("net.read").map_or(0, |l| l.count) as f64,
    );
    out.set("net.decode_s", total("net.decode"));
    out.set("net.records_decoded", records as f64);
    out.set(
        "net.decode_mb_per_s",
        hour_bytes as f64 / 1e6 / total("net.decode"),
    );
    out.set("net.encode_s", encode_s);
    out.set("net.encode_mb_per_s", hour_bytes as f64 / 1e6 / encode_s);
    out.set("net.write_s", total("net.write_hour") - encode_s);
    out.set("net.compact_s", total("net.compact"));
    out.set(
        "net.bytes_written",
        (hour_bytes + report.bytes_after) as f64,
    );
    out.set(
        "net.write_amp",
        (hour_bytes + report.bytes_after) as f64 / report.bytes_after.max(1) as f64,
    );
    // The stand-alone encode is measurement, not something `migrate`
    // does: leave it out of the replayed wall.
    let root_s = total("migrate") - encode_s;
    out.set("trace.root_s", root_s);
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.set("trace.coverage", (covered as f64 / 1e9 - encode_s) / root_s);
    out.spans = spans;
    Ok(out)
}

/// What `serve --intel` loads before it binds: inventory, every hour in
/// memory, and the intel context built from a batch pass.
fn load_for_serve(
    data: &Path,
) -> Result<(LoadedInventory, Vec<HourTraffic>, IntelContext), String> {
    let inventory =
        inventory_io::load(data.join("inventory.tsv")).map_err(err("inventory load"))?;
    let store = FlowStore::open(data.join("darknet")).map_err(err("FlowStore::open"))?;
    let mut traffic = Vec::new();
    for (interval, hour) in work_list(&store) {
        traffic.push(HourTraffic {
            interval,
            hour,
            flows: store.read_hour(hour).map_err(err("read_hour"))?,
        });
    }
    let hours = AnalysisWindow::paper().num_hours();
    let analysis = AnalysisPipeline::new(&inventory.db, hours)
        .run(&traffic, &AnalyzeOptions::new())
        .map_err(err("AnalysisPipeline::run"))?
        .analysis;
    let candidates =
        QueryContext::batch(&analysis, &inventory.db, &inventory.isps).candidates(4_000);
    let intel = IntelBuilder::new(IntelSynthConfig::paper(seed_of(&inventory)))
        .build(&inventory.db, &candidates);
    Ok((inventory, traffic, IntelContext::from_synth(intel)))
}

/// Request paths for the ten `ENDPOINTS`, in their order, with ids that
/// answer 200 on a fully ingested daemon.
fn endpoint_paths(device_id: u32, score_id: u32) -> [(&'static str, String); 10] {
    let path = |endpoint: &'static str| match endpoint {
        "device" => format!("/device/{device_id}"),
        "score" => format!("/score/{score_id}"),
        "score_top" => "/score/top".to_owned(),
        other => format!("/{other}"),
    };
    ENDPOINTS.map(|e| (e, path(e)))
}

/// One traced repetition of `serve_live`'s in-process half: the ingest
/// loop decomposed hour by hour, the real `TelescopeService::ingest`
/// for the publish share, then every endpoint answered directly and
/// `/healthz` through a real `HttpServer` socket.
pub fn serve(data: &Path, device_id: u32, score_id: u32) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut t = Tracer::new(true);
    let (inventory, traffic, intel) = load_for_serve(data)?;
    let hours = AnalysisWindow::paper().num_hours();

    // The daemon's per-hour loop, one span per step: push the hour, fold
    // scores, clone the analysis and the score table for publication.
    let root = t.enter("ingest_loop");
    let mut stream = StreamingAnalyzer::new(&inventory.db, hours, StreamConfig::default());
    let mut engine = ScoreEngine::new(&inventory.db, &intel.index, ScoreConfig::default());
    let mut push_ms = Vec::with_capacity(traffic.len());
    let mut snapshot_ms = Vec::with_capacity(traffic.len());
    let mut fold_ms = Vec::with_capacity(traffic.len());
    for hour in &traffic {
        let start = Instant::now();
        let s = t.enter("core.stream.push_hour");
        let alerts = stream.push_hour(hour).len();
        t.exit(s, alerts as u64);
        push_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let s = t.enter("core.stream.snapshot");
        let snapshot = stream.snapshot();
        t.exit(s, snapshot.device_count() as u64);
        snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let s = t.enter("core.score.fold");
        let escalations = engine.fold(&snapshot).len();
        t.exit(s, escalations as u64);
        fold_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let s = t.enter("core.score.table_clone");
        black_box(engine.table().clone());
        t.exit(s, 0);
    }
    t.exit(root, traffic.len() as u64);

    // The real service ingest (push + fold + clones + publication).
    let LoadedInventory { db, isps, .. } = inventory;
    let service = Arc::new(TelescopeService::new(db, isps, hours).with_intel(intel));
    let s = t.enter("serve.ingest");
    service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
    t.exit(s, traffic.len() as u64);
    drop(traffic);

    // Every endpoint on the final snapshot, answered directly.
    let paths = endpoint_paths(device_id, score_id);
    let mut healthz_respond_us = 0.0;
    for (endpoint, path) in &paths {
        let mut us = Vec::with_capacity(200);
        for _ in 0..200 {
            let start = Instant::now();
            let (status, body) = service.respond(path);
            us.push(start.elapsed().as_secs_f64() * 1e6);
            if status != 200 {
                return Err(format!("{path} answered {status} on the final snapshot"));
            }
            black_box(body);
        }
        let median = stats::median(&us);
        if *endpoint == "healthz" {
            healthz_respond_us = median;
        }
        out.set(&format!("serve.respond.{endpoint}_us"), median);
    }

    // The cheapest endpoint over a real socket, closed loop, one
    // connection: what HTTP parsing, the syscalls and loopback add.
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(err("bind"))?;
    let mut client = Client::connect(server.local_addr()).map_err(err("connect"))?;
    let mut us = Vec::with_capacity(500);
    for _ in 0..500 {
        let start = Instant::now();
        let (status, _) = client.get("/healthz").map_err(err("GET /healthz"))?;
        us.push(start.elapsed().as_secs_f64() * 1e6);
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
    }
    drop(client);
    drop(server);
    out.set(
        "serve.http_overhead_us",
        stats::median(&us) - healthz_respond_us,
    );

    let spans = t.into_spans();
    let by = layers(&spans);
    let total = |name: &str| by.get(name).map_or(0.0, Layer::total_s);
    let mut sorted = push_ms.clone();
    sorted.sort_by(f64::total_cmp);
    out.set("core.stream.push_hour_ms", stats::median(&push_ms));
    out.set(
        "core.stream.push_hour_p99_ms",
        stats::quantile(&sorted, 0.99),
    );
    out.set("core.stream.snapshot_ms", stats::median(&snapshot_ms));
    out.set("core.score.fold_ms", stats::median(&fold_ms));
    let ingest_s = total("serve.ingest");
    out.set("serve.ingest_s", ingest_s);
    out.set(
        "serve.publish_share",
        (ingest_s - total("core.stream.push_hour") - total("core.score.fold")) / ingest_s,
    );
    out.spans = spans;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, count: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            count,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ decode [10,70) ⊃ correlate [20,30) + [40,55);
        // root also ⊃ render [80,90).
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("decode", 10, 70, Some(0), 4096),
            span("correlate", 20, 30, Some(1), 100),
            span("correlate", 40, 55, Some(1), 150),
            span("render", 80, 90, Some(0), 0),
        ];
        let by = layers(&spans);
        assert_eq!(
            by["root"],
            Layer {
                calls: 1,
                total_ns: 100,
                self_ns: 30,
                count: 0
            }
        );
        // decode's self time excludes both correlate calls…
        assert_eq!(by["decode"].self_ns, 60 - 25);
        // …and the grandchildren are not subtracted from the root twice.
        assert_eq!(
            by["correlate"],
            Layer {
                calls: 2,
                total_ns: 25,
                self_ns: 25,
                count: 250
            }
        );
        let self_sum: u64 = by.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root exactly");
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b, 7);
        let c = t.enter("c");
        t.exit(c, 0);
        t.exit(a, 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].count, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let a = off.enter("a");
        off.exit(a, 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn endpoint_paths_cover_every_served_endpoint() {
        let paths = endpoint_paths(5, 9);
        assert_eq!(paths.len(), ENDPOINTS.len());
        assert!(paths
            .iter()
            .any(|(e, p)| *e == "device" && p == "/device/5"));
        assert!(paths.iter().any(|(e, p)| *e == "score" && p == "/score/9"));
        assert!(paths
            .iter()
            .any(|(e, p)| *e == "score_top" && p == "/score/top"));
        assert!(paths
            .iter()
            .any(|(e, p)| *e == "healthz" && p == "/healthz"));
    }
}
