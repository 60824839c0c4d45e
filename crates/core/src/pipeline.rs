//! End-to-end analysis orchestration: one [`run`](AnalysisPipeline::run)
//! entry point over in-memory or store-backed sources, with optional
//! per-run accounting and a metrics registry threaded through every
//! layer (store reads, decode, per-stage timings, per-class packet
//! counters).

use crate::analysis::{Analysis, Analyzer};
use crate::shard::{self, RoutedFlow, RouterPartial, ShardAccumulator, ShardPartial, ShardRouter};
use iotscope_devicedb::{DeviceDb, ShardMap};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{DecodeOptions, FlowSink, FlowStore, HourBytes};
use iotscope_net::time::{AnalysisWindow, UnixHour, HOURS_PER_DAY};
use iotscope_net::NetError;
use iotscope_obs::{Counter, Gauge, Registry, Snapshot, Timer};
use iotscope_telescope::HourTraffic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accounting for one analysis run, materialized as a *view over the
/// run's private metrics registry*: the pipeline instruments every run
/// through its own throwaway [`iotscope_obs`] registry (absorbed into
/// the caller's registry at the end), and this struct is the diff of
/// two snapshots of that private registry. Because no two runs ever
/// share live handles, stats can never attribute one run's reads to a
/// concurrent run — even when both were handed the same caller
/// registry.
///
/// Stage times are summed across workers, so with N threads they can
/// add up to roughly N× the wall time — compare them to each other (is
/// this run I/O-bound or ingest-bound?) rather than to `wall_time`.
#[derive(Debug, Clone, Default)]
pub struct StoreReadStats {
    /// Worker threads actually used: the request clamped to `1..=64`,
    /// or 1 when there was nothing to read.
    pub threads: usize,
    /// Hour files read, decoded, and ingested.
    pub hours_ingested: u64,
    /// Window hours with no file on disk.
    pub hours_missing: u64,
    /// Hour files present but skipped by the day-completeness rule.
    pub hours_skipped: u64,
    /// Total on-disk bytes read.
    pub bytes_read: u64,
    /// Total flowtuple records decoded.
    pub records_decoded: u64,
    /// v3 blocks decoded (v1/v2 hours count as one block each).
    pub blocks_read: u64,
    /// Time spent reading files (summed across workers).
    pub read_time: Duration,
    /// Time spent decoding and aggregating hours (summed across
    /// workers): store hours stream block by block straight into the
    /// analyzer, so decode is part of this fused stage.
    pub ingest_time: Duration,
    /// Time spent assembling worker partials (single-threaded): a
    /// concatenation of disjoint device ranges, so this stays ~0.
    pub merge_time: Duration,
    /// End-to-end elapsed time for the whole run.
    pub wall_time: Duration,
}

impl StoreReadStats {
    /// Build per-run accounting from the change between two registry
    /// snapshots (the registry is cumulative across runs, so per-run
    /// numbers are deltas). Metric names are the `pipeline.*` and
    /// `store.*` families published by [`AnalysisPipeline::run`].
    pub fn from_snapshots(threads: usize, before: &Snapshot, after: &Snapshot) -> Self {
        StoreReadStats {
            threads,
            hours_ingested: after.counter_since(before, "pipeline.hours_ingested"),
            hours_missing: after.counter_since(before, "pipeline.hours_missing"),
            hours_skipped: after.counter_since(before, "pipeline.hours_skipped"),
            bytes_read: after.counter_since(before, "store.bytes_read"),
            records_decoded: after.counter_since(before, "store.records_decoded"),
            blocks_read: after.counter_since(before, "store.blocks_read"),
            read_time: after.duration_since(before, "pipeline.read_time"),
            ingest_time: after.duration_since(before, "pipeline.ingest_time"),
            merge_time: after.duration_since(before, "pipeline.merge_time"),
            wall_time: after.duration_since(before, "pipeline.wall_time"),
        }
    }
}

/// What to analyze: hours already in memory, or a [`FlowStore`]
/// directory (which additionally needs [`AnalyzeOptions::window`]).
///
/// Both are constructed via `From`/`Into`, so call sites pass `&hours`
/// or `&store` directly to [`AnalysisPipeline::run`].
#[derive(Debug, Clone, Copy)]
pub enum AnalysisSource<'s> {
    /// Hourly traffic already decoded in memory.
    Memory(&'s [HourTraffic]),
    /// An on-disk hourly flowtuple store: the hours of
    /// [`AnalyzeOptions::window`] its [`StoredWindow`] keeps.
    Store(&'s FlowStore),
}

impl<'s> From<&'s [HourTraffic]> for AnalysisSource<'s> {
    fn from(hours: &'s [HourTraffic]) -> Self {
        AnalysisSource::Memory(hours)
    }
}

impl<'s> From<&'s Vec<HourTraffic>> for AnalysisSource<'s> {
    fn from(hours: &'s Vec<HourTraffic>) -> Self {
        AnalysisSource::Memory(hours)
    }
}

impl<'s> From<&'s FlowStore> for AnalysisSource<'s> {
    fn from(store: &'s FlowStore) -> Self {
        AnalysisSource::Store(store)
    }
}

/// Options for one [`AnalysisPipeline::run`] call.
///
/// A consuming builder with defaults of one thread, no stats, no
/// metrics, no window:
///
/// ```
/// use iotscope_core::pipeline::AnalyzeOptions;
///
/// let options = AnalyzeOptions::new().threads(4).stats(true);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    threads: usize,
    stats: bool,
    metrics: Option<Registry>,
    window: Option<AnalysisWindow>,
}

impl AnalyzeOptions {
    /// Defaults: single-threaded, no stats, no metrics, no window.
    pub fn new() -> Self {
        AnalyzeOptions::default()
    }

    /// Worker threads: `0` means 1, more than 64 means 64. One thread
    /// runs every hour on the caller's thread; `n > 1` spawns `n`
    /// workers that each route hours *and* own one shard of the device
    /// space (see [`crate::shard`]) — all `n` even when the source has
    /// fewer hours, since one hour still fans out to every shard. The
    /// analysis result and every
    /// [stable](iotscope_obs::Stability::Stable) metric are identical
    /// whatever the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Request per-run accounting in
    /// [`AnalysisOutcome::stats`].
    pub fn stats(mut self, enabled: bool) -> Self {
        self.stats = enabled;
        self
    }

    /// Publish metrics into `registry` and return its snapshot in
    /// [`AnalysisOutcome::metrics`]. The registry is shared (cheap
    /// clone), so callers can keep their own handle and accumulate
    /// across runs.
    pub fn metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// The analysis window — required for store-backed sources, ignored
    /// for in-memory ones (in-memory hours carry their own intervals).
    pub fn window(mut self, window: AnalysisWindow) -> Self {
        self.window = Some(window);
        self
    }
}

/// Result of one [`AnalysisPipeline::run`] call.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The aggregation, identical for every thread count.
    pub analysis: Analysis,
    /// Per-run accounting, present iff [`AnalyzeOptions::stats`] was
    /// requested.
    pub stats: Option<StoreReadStats>,
    /// End-of-run registry snapshot, present iff
    /// [`AnalyzeOptions::metrics`] was requested.
    pub metrics: Option<Snapshot>,
}

/// Pipeline-layer metric handles (`pipeline.` prefix). Work counters
/// are [stable](iotscope_obs::Stability::Stable); timings, thread
/// counts and per-worker counts are variant.
struct PipelineMetrics {
    hours_ingested: Counter,
    hours_missing: Counter,
    hours_skipped: Counter,
    threads: Gauge,
    read_time: Timer,
    ingest_time: Timer,
    merge_time: Timer,
    wall_time: Timer,
}

impl PipelineMetrics {
    /// There is no decode timer: the fused store path decodes inside
    /// the ingest stage, so `pipeline.ingest_time` covers both.
    fn register(registry: &Registry) -> Self {
        PipelineMetrics {
            hours_ingested: registry.counter("pipeline.hours_ingested"),
            hours_missing: registry.counter("pipeline.hours_missing"),
            hours_skipped: registry.counter("pipeline.hours_skipped"),
            threads: registry.gauge("pipeline.threads"),
            read_time: registry.timer("pipeline.read_time"),
            ingest_time: registry.timer("pipeline.ingest_time"),
            merge_time: registry.timer("pipeline.merge_time"),
            wall_time: registry.timer("pipeline.wall_time"),
        }
    }

    /// The per-worker hour counter (variant: which worker got which
    /// hour depends on scheduling).
    fn worker_hours(registry: &Registry, worker: usize) -> Counter {
        registry.counter_variant(&format!("pipeline.worker.{worker}.hours"))
    }

    /// The per-shard device-count gauge for sharded runs (variant: the
    /// shard layout depends on the thread count).
    fn shard_devices(registry: &Registry, shard: usize) -> Gauge {
        registry.gauge(&format!("pipeline.shard.{shard}.devices"))
    }
}

/// Inter-worker message of the sharded drivers: one whole hour's routed
/// flows for one shard, or a router's end-of-work marker.
enum ShardMsg {
    Batch {
        interval: u32,
        flows: Vec<RoutedFlow>,
    },
    Done,
}

/// A store's hours under an analysis window, after the paper's
/// day-completeness rule: the one list of hours every store-fed
/// analysis, replay and investigation walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredWindow {
    /// The window the rule was applied to.
    pub window: AnalysisWindow,
    /// The `(interval, hour)` pairs to read, in interval order: every
    /// stored hour of every kept day.
    pub work: Vec<(u32, UnixHour)>,
    /// 0-based indices of the days the rule dropped.
    pub dropped_days: Vec<u32>,
    /// Window hours the store does not hold.
    pub hours_missing: u64,
    /// Stored hours skipped because their day was dropped.
    pub hours_skipped: u64,
}

impl StoredWindow {
    /// Apply the paper's day-completeness rule (§III-A2) to `store`'s
    /// hours of `window`: a day with fewer than `hours_in_day - 1`
    /// stored hours is dropped whole, the way the paper dropped April 18
    /// with 15 of its 24 hours. The paper kept its final day, which has
    /// 23 hours, so a day may miss one hour: the bar for a full day is
    /// 23, not 24. Each hour is probed once.
    pub fn of(store: &FlowStore, window: AnalysisWindow) -> StoredWindow {
        let mut stored = StoredWindow {
            window,
            work: Vec::with_capacity(window.num_hours() as usize),
            dropped_days: Vec::new(),
            hours_missing: 0,
            hours_skipped: 0,
        };
        let intervals: Vec<(u32, UnixHour)> = window.iter_intervals().collect();
        // Day `d` of the window is its `d`-th run of 24 intervals.
        for (day, hours) in (0..).zip(intervals.chunks(HOURS_PER_DAY as usize)) {
            let present: Vec<_> = hours.iter().filter(|(_, h)| store.has_hour(*h)).collect();
            stored.hours_missing += (hours.len() - present.len()) as u64;
            if present.len() < (hours.len() - 1).max(1) {
                stored.dropped_days.push(day);
                stored.hours_skipped += present.len() as u64;
            } else {
                stored.work.extend(present);
            }
        }
        stored
    }
}

/// Analysis entry points bound to a device inventory and window length.
///
/// # Example
///
/// ```
/// use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
/// use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
///
/// let built = PaperScenario::build(PaperScenarioConfig::tiny(1));
/// let hours = built.scenario.generate();
/// let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
/// let outcome = pipeline.run(&hours, &AnalyzeOptions::new()).unwrap();
/// assert!(outcome.analysis.device_count() > 100);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AnalysisPipeline<'a> {
    db: &'a DeviceDb,
    hours: u32,
}

impl<'a> AnalysisPipeline<'a> {
    /// Bind to a device database and a window of `hours` intervals.
    pub fn new(db: &'a DeviceDb, hours: u32) -> Self {
        AnalysisPipeline { db, hours }
    }

    /// Analyze `source` under `options` — the single entry point behind
    /// every analysis mode (sequential/parallel × memory/store, with or
    /// without stats and metrics).
    ///
    /// The aggregation result and every
    /// [stable](iotscope_obs::Stability::Stable) metric are identical
    /// for every `threads` setting; only timings, the thread gauge and
    /// per-worker counts vary.
    ///
    /// # Errors
    ///
    /// Store-backed runs require [`AnalyzeOptions::window`] and
    /// propagate read failures: corrupt files fail loudly, missing
    /// hours are handled by the day-completeness rule of
    /// [`StoredWindow::of`]. When several hours are corrupt, the error
    /// for the earliest interval is reported, matching what a
    /// sequential read would hit first. In-memory runs cannot fail.
    pub fn run<'s>(
        &self,
        source: impl Into<AnalysisSource<'s>>,
        options: &AnalyzeOptions,
    ) -> Result<AnalysisOutcome, NetError> {
        let source = source.into();
        // Every run instruments through its own private registry, then
        // absorbs the totals into the caller's registry (if any) at the
        // end. Stats are a snapshot diff of the private registry, so
        // concurrent runs sharing a caller registry can never attribute
        // each other's reads to themselves.
        let registry = Registry::new();
        let pm = PipelineMetrics::register(&registry);
        let before = registry.snapshot();

        let budget = options.threads.clamp(1, 64);

        let wall = pm.wall_time.span();
        let result: Result<(Analysis, usize), NetError> = (|| {
            // A store source is rebound to this run's registry, so its
            // reads are accounted here (and only here).
            let instrumented;
            let stored;
            let hours = match source {
                AnalysisSource::Memory(traffic) => HourSource::Memory(traffic),
                AnalysisSource::Store(store) => {
                    let window = options.window.ok_or_else(|| {
                        NetError::InvalidInterval(
                            "store-backed analysis requires AnalyzeOptions::window".into(),
                        )
                    })?;
                    instrumented = store.clone().instrumented(&registry);
                    stored = StoredWindow::of(&instrumented, window);
                    pm.hours_missing.add(stored.hours_missing);
                    pm.hours_skipped.add(stored.hours_skipped);
                    HourSource::Store {
                        store: &instrumented,
                        work: &stored.work,
                    }
                }
            };
            // Sharding is over the device space, so it is worth its
            // fan-out even for a single huge hour; only an empty source
            // stays on the caller's thread.
            let threads = if hours.len() == 0 { 1 } else { budget };
            pm.threads.set(threads as i64);
            let analysis = if threads <= 1 {
                self.run_inline(hours, &registry, &pm)?
            } else {
                self.run_sharded(hours, threads, &registry, &pm)?
            };
            Ok((analysis, threads))
        })();
        drop(wall);

        // Absorb even on failure, so the caller's registry still sees
        // what was counted before the error (e.g. checksum failures).
        let after = registry.snapshot();
        let metrics = options.metrics.as_ref().map(|caller| {
            caller.absorb(&after);
            caller.snapshot()
        });
        let (analysis, threads) = result?;
        let stats = options
            .stats
            .then(|| StoreReadStats::from_snapshots(threads, &before, &after));
        Ok(AnalysisOutcome {
            analysis,
            stats,
            metrics,
        })
    }

    /// Sequential driver: every hour is read, then folded into one
    /// analyzer on the caller's thread; no partials, no merge. A store
    /// hour is decoded and ingested in one fused pass — v3 blocks stream
    /// straight into the analyzer, so the hour is never materialized as
    /// a `Vec<FlowTuple>` (v1/v2 files materialize inside the visit and
    /// arrive as a single slice).
    fn run_inline(
        &self,
        hours: HourSource<'_>,
        registry: &Registry,
        pm: &PipelineMetrics,
    ) -> Result<Analysis, NetError> {
        let worker = PipelineMetrics::worker_hours(registry, 0);
        let mut an = Analyzer::with_metrics(self.db, self.hours, registry);
        for k in 0..hours.len() {
            let interval = hours.interval(k);
            let t0 = Instant::now();
            let data = hours.read(k)?;
            let t1 = Instant::now();
            let mut ingest = an.begin_hour(interval);
            data.visit(&mut ingest)?;
            ingest.finish();
            let t2 = Instant::now();
            pm.read_time.record(t1 - t0);
            pm.ingest_time.record(t2 - t1);
            pm.hours_ingested.inc();
            worker.inc();
        }
        Ok(an.finish())
    }

    /// Device-sharded driver: every worker routes hours off a shared
    /// work-stealing cursor *and* owns one dense-index shard of
    /// per-device state, fed through per-worker inboxes (see
    /// [`crate::shard`]). A routed hour is read and streamed straight
    /// into the router (a store hour is never materialized). The
    /// end-of-run merge is a concatenation of disjoint ranges, so
    /// `pipeline.merge_time` stays ~0 at any scale.
    ///
    /// On the first error a stop flag halts further routing; the
    /// in-flight hour protocol still runs to completion (stopped
    /// workers keep draining their inboxes without applying), and the
    /// error with the smallest interval wins, so the reported failure
    /// is deterministic.
    fn run_sharded(
        &self,
        hours: HourSource<'_>,
        threads: usize,
        registry: &Registry,
        pm: &PipelineMetrics,
    ) -> Result<Analysis, NetError> {
        let stop = AtomicBool::new(false);
        let first_err: Mutex<Option<(u32, NetError)>> = Mutex::new(None);
        let fail = |interval: u32, err: NetError| {
            let mut slot = first_err.lock().expect("error slot not poisoned");
            match &*slot {
                Some((seen, _)) if *seen <= interval => {}
                _ => *slot = Some((interval, err)),
            }
            stop.store(true, Ordering::Relaxed);
        };

        let map = ShardMap::new(self.db.len(), threads);
        let next = AtomicUsize::new(0);
        let partials: Vec<(RouterPartial, ShardPartial)> = crossbeam::scope(|scope| {
            let channels: Vec<_> = (0..threads)
                .map(|_| crossbeam::channel::unbounded::<ShardMsg>())
                .collect();
            let senders: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let rx = channels[i].1.clone();
                    let senders = senders.clone();
                    let next = &next;
                    let stop = &stop;
                    let fail = &fail;
                    scope.spawn(move |_| {
                        let worker = PipelineMetrics::worker_hours(registry, i);
                        let mut router = ShardRouter::new(self.db, self.hours, map);
                        let mut acc = ShardAccumulator::new(self.hours, map.range(i));
                        let mut dones = 0usize;
                        loop {
                            // Apply whatever other routers have sent so
                            // far, so inboxes stay short.
                            while let Ok(msg) = rx.try_recv() {
                                match msg {
                                    ShardMsg::Batch { interval, flows } => {
                                        if !stop.load(Ordering::Relaxed) {
                                            let t = Instant::now();
                                            acc.apply_hour(interval, &flows);
                                            pm.ingest_time.record(t.elapsed());
                                        }
                                    }
                                    ShardMsg::Done => dones += 1,
                                }
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= hours.len() {
                                break;
                            }
                            let interval = hours.interval(k);
                            let t0 = Instant::now();
                            let data = match hours.read(k) {
                                Ok(d) => d,
                                Err(e) => {
                                    fail(interval, e);
                                    continue;
                                }
                            };
                            let t1 = Instant::now();
                            // On error the hour is abandoned
                            // unfinished: nothing was committed or
                            // sent, and the next begin_hour clears the
                            // buffers.
                            router.begin_hour(interval);
                            if let Err(e) = data.visit(&mut router) {
                                fail(interval, e);
                                continue;
                            }
                            for (s, flows) in router.finish_hour().into_iter().enumerate() {
                                if flows.is_empty() {
                                    continue;
                                }
                                if s == i {
                                    acc.apply_hour(interval, &flows);
                                } else {
                                    let batch = ShardMsg::Batch { interval, flows };
                                    senders[s]
                                        .send(batch)
                                        .expect("shard inbox outlives workers");
                                }
                            }
                            let t2 = Instant::now();
                            pm.read_time.record(t1 - t0);
                            pm.ingest_time.record(t2 - t1);
                            pm.hours_ingested.inc();
                            worker.inc();
                        }
                        // No more hours to route: tell every shard owner
                        // this router is done, then apply stragglers
                        // until every router has said so (per-sender
                        // FIFO puts all batches before the Done).
                        for tx in &senders {
                            tx.send(ShardMsg::Done)
                                .expect("shard inbox outlives workers");
                        }
                        drop(senders);
                        while dones < threads {
                            match rx.recv() {
                                Ok(ShardMsg::Batch { interval, flows }) => {
                                    if !stop.load(Ordering::Relaxed) {
                                        acc.apply_hour(interval, &flows);
                                    }
                                }
                                Ok(ShardMsg::Done) => dones += 1,
                                Err(_) => break,
                            }
                        }
                        (router.into_partial(), acc.finish())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sharded worker does not panic"))
                .collect()
        })
        .expect("sharded analysis scope does not panic");

        if let Some((_, err)) = first_err.into_inner().expect("error slot not poisoned") {
            return Err(err);
        }

        // Fold worker partials (in worker == ascending shard order) into
        // the final analysis, publishing per-shard gauges on the way.
        let mut routers = Vec::with_capacity(partials.len());
        let mut shards = Vec::with_capacity(partials.len());
        for (i, (rp, sp)) in partials.into_iter().enumerate() {
            PipelineMetrics::shard_devices(registry, i).set(sp.device_count() as i64);
            routers.push(rp);
            shards.push(sp);
        }
        let merge_span = pm.merge_time.span();
        let analysis = shard::assemble(self.hours, routers, shards);
        drop(merge_span);
        // The sharded path has no live per-hour analyzer metrics;
        // recover the stable `analysis.*` totals from the result (they
        // are exact column sums, identical to the sequential flushes).
        analysis.publish_packet_counters(registry);
        Ok(analysis)
    }
}

/// Where a driver's hours come from. Both drivers index it by position
/// and run the same two steps per hour — [`read`](Self::read), then
/// [`HourData::visit`] — so memory-fed and store-fed runs share every
/// line of driver code.
#[derive(Clone, Copy)]
enum HourSource<'s> {
    /// Hours already decoded in memory.
    Memory(&'s [HourTraffic]),
    /// These `(interval, hour)` files of an on-disk store.
    Store {
        store: &'s FlowStore,
        work: &'s [(u32, UnixHour)],
    },
}

/// One hour as [`HourSource::read`] hands it over: decoded flows, or a
/// store hour's still-encoded bytes.
enum HourData<'s> {
    Flows(&'s [FlowTuple]),
    Bytes {
        store: &'s FlowStore,
        hour: UnixHour,
        bytes: HourBytes,
    },
}

impl<'s> HourSource<'s> {
    fn len(&self) -> usize {
        match self {
            HourSource::Memory(traffic) => traffic.len(),
            HourSource::Store { work, .. } => work.len(),
        }
    }

    /// The 1-based window interval of hour `k`.
    fn interval(&self, k: usize) -> u32 {
        match self {
            HourSource::Memory(traffic) => traffic[k].interval,
            HourSource::Store { work, .. } => work[k].0,
        }
    }

    /// The timed "read" stage: nothing to do for memory; for a store,
    /// the hour's bytes — segment-resident hours arrive as zero-copy
    /// borrows of the mapped segment.
    fn read(&self, k: usize) -> Result<HourData<'s>, NetError> {
        match *self {
            HourSource::Memory(traffic) => Ok(HourData::Flows(&traffic[k].flows)),
            HourSource::Store { store, work } => {
                let hour = work[k].1;
                let bytes = store.fetch_hour_bytes(hour)?;
                Ok(HourData::Bytes { store, hour, bytes })
            }
        }
    }
}

impl HourData<'_> {
    /// Stream the hour into `sink`: one slice for memory (infallible),
    /// the fused block-by-block decode for store bytes. On error the
    /// sink may hold a prefix of the hour.
    fn visit(&self, sink: &mut dyn FlowSink) -> Result<(), NetError> {
        match self {
            HourData::Flows(flows) => sink.on_flows(flows),
            HourData::Bytes { store, hour, bytes } => {
                store.visit_hour_for(*hour, bytes, DecodeOptions::default(), sink)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_net::store::StoreOptions;
    use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotscope-pipe-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_equals_sequential() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(21));
        let traffic: Vec<HourTraffic> = (1..=24).map(|i| built.scenario.generate_hour(i)).collect();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let seq = pipeline
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let par = pipeline
            .run(&traffic, &AnalyzeOptions::new().threads(4))
            .unwrap()
            .analysis;
        assert_eq!(seq.devices, par.devices);
        assert_eq!(seq.protocol_packets, par.protocol_packets);
        assert_eq!(seq.scan_services, par.scan_services);
        assert_eq!(seq.udp_ports, par.udp_ports);
        assert_eq!(seq.unmatched_flows, par.unmatched_flows);
    }

    #[test]
    fn stable_metrics_identical_across_thread_counts() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(25));
        let traffic: Vec<HourTraffic> = (1..=24).map(|i| built.scenario.generate_hour(i)).collect();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let r1 = Registry::new();
        let r4 = Registry::new();
        pipeline
            .run(&traffic, &AnalyzeOptions::new().metrics(&r1))
            .unwrap();
        pipeline
            .run(&traffic, &AnalyzeOptions::new().threads(4).metrics(&r4))
            .unwrap();
        assert_eq!(
            r1.snapshot().stable_only(),
            r4.snapshot().stable_only(),
            "stable counters must not depend on thread count"
        );
    }

    #[test]
    fn outcome_carries_stats_and_metrics_only_when_requested() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(26));
        let traffic: Vec<HourTraffic> = (1..=4).map(|i| built.scenario.generate_hour(i)).collect();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
        let bare = pipeline.run(&traffic, &AnalyzeOptions::new()).unwrap();
        assert!(bare.stats.is_none());
        assert!(bare.metrics.is_none());
        let registry = Registry::new();
        let full = pipeline
            .run(
                &traffic,
                &AnalyzeOptions::new().stats(true).metrics(&registry),
            )
            .unwrap();
        let stats = full.stats.unwrap();
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.hours_ingested, 4);
        let snap = full.metrics.unwrap();
        assert_eq!(snap.counter("pipeline.hours_ingested"), Some(4));
        assert!(snap.get("analysis.packets.consumer.tcp_scan").is_some());
    }

    #[test]
    fn store_run_without_window_errors() {
        let dir = tmpdir("no-window");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        let db =
            iotscope_devicedb::DeviceDb::from_devices(Vec::<iotscope_devicedb::IotDevice>::new());
        let pipeline = AnalysisPipeline::new(&db, 4);
        let err = pipeline.run(&store, &AnalyzeOptions::new()).unwrap_err();
        assert!(format!("{err}").contains("window"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_roundtrip_with_complete_days() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(22));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("complete");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
        let registry = Registry::new();
        let out = pipeline
            .run(
                &store,
                &AnalyzeOptions::new().window(window).metrics(&registry),
            )
            .unwrap();
        let in_memory = pipeline
            .run(&built.scenario.generate(), &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        assert_eq!(out.analysis.device_count(), in_memory.device_count());
        assert_eq!(out.analysis.total_packets(), in_memory.total_packets());
        // The store's own metrics flowed into the run registry.
        let snap = out.metrics.unwrap();
        assert_eq!(
            snap.counter("store.hours_read"),
            Some(u64::from(window.num_hours()))
        );
        assert!(snap.counter("store.bytes_read").unwrap() > 0);
        assert_eq!(snap.counter("store.checksum_failures"), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_day_is_dropped_like_april_18() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(23));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("partial");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        // Simulate the telescope outage: delete 9 hours of day 2.
        for (interval, hour) in window.iter_intervals() {
            let day = window.day_of_interval(interval).unwrap();
            if day == 2 && (interval - 1) % 24 >= 15 {
                std::fs::remove_file(store.hour_path(hour)).unwrap();
            }
        }
        let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
        let out = pipeline
            .run(&store, &AnalyzeOptions::new().window(window))
            .unwrap();
        assert_eq!(StoredWindow::of(&store, window).dropped_days, vec![2]);
        // No traffic attributed to day-2 intervals (49..=72).
        for i in 48..72usize {
            assert_eq!(out.analysis.tcp_scan[0].packets[i], 0, "interval {}", i + 1);
            assert_eq!(out.analysis.tcp_scan[1].packets[i], 0);
            assert_eq!(out.analysis.udp[0].packets[i], 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store holding every hour of `window` except those of `missing`.
    fn store_without(name: &str, window: AnalysisWindow, missing: &[u32]) -> FlowStore {
        let store = FlowStore::create(tmpdir(name), StoreOptions::default()).unwrap();
        for (interval, hour) in window.iter_intervals() {
            if !missing.contains(&interval) {
                store.write_hour(hour, &[]).unwrap();
            }
        }
        store
    }

    #[test]
    fn stored_window_keeps_a_23_hour_trailing_day() {
        // One full day, then a trailing day of 23 hours like the paper's
        // last: each misses one hour, and each is kept.
        let window = AnalysisWindow::new(AnalysisWindow::paper().start(), 24 + 23).unwrap();
        let store = store_without("sw-trailing", window, &[3, 40]);
        let stored = StoredWindow::of(&store, window);
        assert_eq!(stored.window, window);
        assert!(stored.dropped_days.is_empty());
        let kept = window
            .iter_intervals()
            .filter(|(i, _)| ![3, 40].contains(i));
        assert_eq!(stored.work, kept.collect::<Vec<_>>());
        assert_eq!((stored.hours_missing, stored.hours_skipped), (2, 0));
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn stored_window_drops_a_day_with_15_of_24_hours() {
        // Day 1 stores 15 of its 24 hours (April 18) and day 2 22 of 24:
        // both are dropped whole, and their stored hours skipped.
        let window = AnalysisWindow::new(AnalysisWindow::paper().start(), 72).unwrap();
        let missing: Vec<u32> = (25 + 15..=48).chain([49, 50]).collect();
        let store = store_without("sw-april-18", window, &missing);
        let stored = StoredWindow::of(&store, window);
        assert_eq!(stored.dropped_days, vec![1, 2]);
        assert_eq!(
            stored.work,
            window.iter_intervals().take(24).collect::<Vec<_>>()
        );
        assert_eq!(stored.hours_missing, 9 + 2);
        assert_eq!(stored.hours_skipped, 15 + 22);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn stored_window_of_an_empty_store_has_no_work() {
        let window = AnalysisWindow::paper();
        let store = store_without("sw-empty", window, &(1..=143).collect::<Vec<_>>());
        let stored = StoredWindow::of(&store, window);
        assert!(stored.work.is_empty());
        assert_eq!(stored.dropped_days, (0..6).collect::<Vec<_>>());
        assert_eq!((stored.hours_missing, stored.hours_skipped), (143, 0));
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_hour_fails_loudly_and_counts_checksum_failures() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(24));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("corrupt");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        // Corrupt one file.
        let victim = store.hour_path(window.start());
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&victim, bytes).unwrap();
        let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());
        let registry = Registry::new();
        let err = pipeline
            .run(
                &store,
                &AnalyzeOptions::new().window(window).metrics(&registry),
            )
            .unwrap_err();
        assert!(format!("{err}").contains("checksum"));
        assert_eq!(
            registry.snapshot().counter("store.checksum_failures"),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_runs_sharing_a_registry_keep_stats_separate() {
        // Regression: stats used to be a diff of the *shared* registry,
        // so two overlapping runs would count each other's reads. Each
        // run now accounts privately and absorbs into the caller's
        // registry at the end.
        let small = PaperScenario::build(PaperScenarioConfig::tiny(31));
        let big = PaperScenario::build(PaperScenarioConfig::tiny(32));
        let small_window = small.scenario.telescope().window;
        let big_window = big.scenario.telescope().window;
        let small_dir = tmpdir("concurrent-small");
        let big_dir = tmpdir("concurrent-big");
        let small_store = FlowStore::create(&small_dir, StoreOptions::default()).unwrap();
        let big_store = FlowStore::create(&big_dir, StoreOptions::default()).unwrap();
        small.scenario.write_to_store(&small_store).unwrap();
        big.scenario.write_to_store(&big_store).unwrap();
        // Thin out the small store to 1 complete day so the two runs
        // ingest different hour counts.
        for (interval, hour) in small_window.iter_intervals() {
            if small_window.day_of_interval(interval).unwrap() != 0 {
                std::fs::remove_file(small_store.hour_path(hour)).unwrap();
            }
        }
        let shared = Registry::new();
        let (small_stats, big_stats) = std::thread::scope(|s| {
            let h_small = s.spawn(|| {
                let pipeline = AnalysisPipeline::new(&small.inventory.db, small_window.num_hours());
                pipeline
                    .run(
                        &small_store,
                        &AnalyzeOptions::new()
                            .window(small_window)
                            .stats(true)
                            .metrics(&shared),
                    )
                    .unwrap()
                    .stats
                    .unwrap()
            });
            let h_big = s.spawn(|| {
                let pipeline = AnalysisPipeline::new(&big.inventory.db, big_window.num_hours());
                pipeline
                    .run(
                        &big_store,
                        &AnalyzeOptions::new()
                            .window(big_window)
                            .threads(2)
                            .stats(true)
                            .metrics(&shared),
                    )
                    .unwrap()
                    .stats
                    .unwrap()
            });
            (h_small.join().unwrap(), h_big.join().unwrap())
        });
        assert_eq!(small_stats.hours_ingested, 24);
        assert_eq!(
            big_stats.hours_ingested,
            u64::from(big_window.num_hours()),
            "each run's stats must count only its own reads"
        );
        // The shared registry still holds the cumulative totals.
        assert_eq!(
            shared.snapshot().counter("pipeline.hours_ingested"),
            Some(small_stats.hours_ingested + big_stats.hours_ingested)
        );
        std::fs::remove_dir_all(&small_dir).unwrap();
        std::fs::remove_dir_all(&big_dir).unwrap();
    }
}
