//! End-to-end analysis orchestration: one [`run`](AnalysisPipeline::run)
//! entry point over in-memory or store-backed sources, with optional
//! per-run accounting and a metrics registry threaded through every
//! layer (store reads, decode, per-stage timings, per-class packet
//! counters).
//!
//! Every hour is routed — read, decode, correlate, classify, count
//! destinations ([`Router`]) — and folded into one analyzer on the
//! calling thread. Both drivers read their hours from one
//! [`RoutedFeed`], which yields them in source order: the calling
//! thread routes hours of its own whenever the one it needs next has
//! not arrived, and more threads add routers (DESIGN.md §3e). The batch
//! pipeline runs the feed at its thread count, the daemon at two
//! ([`route_ahead`]). [`HourSource`] is the one way any walker reads a
//! window's hours.

use crate::analysis::{Analysis, Analyzer};
use crate::fold::{RoutedHour, Router};
use iotscope_devicedb::DeviceDb;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{DecodeOptions, FlowSink, FlowStore, HourBytes};
use iotscope_net::time::{AnalysisWindow, UnixHour, HOURS_PER_DAY};
use iotscope_net::NetError;
use iotscope_obs::{Counter, Gauge, Registry, Snapshot, Timer};
use iotscope_telescope::HourTraffic;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Worker threads actually used: the request clamped to `1..=64`
    /// and to the number of hours to read (1 when there was nothing to
    /// read).
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
    /// Time spent decoding, routing and folding hours (summed across
    /// workers): store hours stream block by block straight into a
    /// router, so decode is part of this stage.
    pub ingest_time: Duration,
    /// Time spent finishing the fold (sorting the device and port rows).
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

    /// Worker threads: `0` means 1, more than 64 means 64, and never
    /// more than the source has hours. `n` threads route hours on the
    /// caller's thread and `n − 1` more, and fold them all on the
    /// caller's thread (DESIGN.md §3e); one thread routes and folds each
    /// hour in turn. The analysis result and every
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
    /// every analysis mode (any thread count × memory/store, with or
    /// without stats and metrics). At every thread count the calling
    /// thread routes hours and folds every routed hour; each thread past
    /// the first adds one router thread.
    ///
    /// The aggregation result and every
    /// [stable](iotscope_obs::Stability::Stable) metric are identical
    /// for every `threads` setting; only timings, the thread gauge and
    /// per-worker counts vary.
    ///
    /// # Errors
    ///
    /// Store-backed runs require [`AnalyzeOptions::window`] and
    /// propagate read failures, each naming its hour
    /// ([`NetError::Hour`]): corrupt files fail loudly, missing hours
    /// are handled by the day-completeness rule of
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
                    HourSource::stored(&instrumented, &stored)
                }
            };
            // A worker beyond the hours would route nothing.
            let threads = budget.min(hours.len()).max(1);
            pm.threads.set(threads as i64);
            let analysis = self.run_parallel(hours, threads, &registry, &pm)?;
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

    /// The one driver: the routed feed at `threads` workers
    /// ([`RoutedFeed`]: the calling thread and `threads − 1` router
    /// threads), each hour folded into one analyzer on the calling
    /// thread as the feed yields it, in source order, then the final
    /// [`Analyzer::finish`] timed as `pipeline.merge_time`. At one
    /// thread there is no router thread: the caller routes and folds
    /// each hour in turn. A folded hour's buffers go back to the feed,
    /// so the next hour is routed into them.
    ///
    /// The feed yields a read or decode failure at its hour's place, so
    /// the run fails with the earliest failing hour of the source.
    fn run_parallel(
        &self,
        hours: HourSource<'_>,
        threads: usize,
        registry: &Registry,
        pm: &PipelineMetrics,
    ) -> Result<Analysis, NetError> {
        let mut an = Analyzer::with_metrics(self.db, self.hours, registry);
        let metrics = Some((registry, pm));
        feed(self.db, self.hours, hours, threads, metrics, |mut feed| {
            while let Some(hour) = feed.next() {
                let hour = hour?;
                let t = Instant::now();
                an.apply_routed(&hour);
                pm.ingest_time.record(t.elapsed());
                feed.recycle(hour);
            }
            Ok::<_, NetError>(())
        })?;
        let merge_span = pm.merge_time.span();
        let analysis = an.finish();
        drop(merge_span);
        Ok(analysis)
    }
}

/// Where a window's hours come from: the one way every walker reads
/// them — the pipeline, the streaming analyzer, the daemon's
/// routed feed ([`route_ahead`]), `investigate` and `export`. A walker indexes
/// the source by position and takes one hour at a time, so it never
/// holds more of the window than the hour it is on.
///
/// A store hour that fails to read or decode fails as
/// [`NetError::Hour`], which names the hour and its interval; this is
/// the one place a failure is given its hour. Memory hours cannot fail.
#[derive(Debug, Clone, Copy)]
pub enum HourSource<'s> {
    /// Hours already decoded in memory.
    Memory(&'s [HourTraffic]),
    /// These `(interval, hour)` hours of an on-disk store.
    Store {
        /// The store the hours are read from.
        store: &'s FlowStore,
        /// The hours to read, in walk order.
        work: &'s [(u32, UnixHour)],
    },
}

/// One hour as [`HourSource::read`] hands it over: decoded flows, or a
/// store hour's still-encoded bytes.
enum HourData<'s> {
    Flows(&'s [FlowTuple]),
    Bytes {
        store: &'s FlowStore,
        interval: u32,
        hour: UnixHour,
        bytes: HourBytes,
    },
}

/// Wrap a read or decode failure of `hour` with its name and interval.
fn hour_failed(interval: u32, hour: UnixHour) -> impl FnOnce(NetError) -> NetError {
    move |cause| NetError::Hour {
        hour,
        interval,
        cause: Box::new(cause),
    }
}

impl<'s> HourSource<'s> {
    /// The hours of `stored`'s work list in `store`.
    pub fn stored(store: &'s FlowStore, stored: &'s StoredWindow) -> Self {
        HourSource::Store {
            store,
            work: &stored.work,
        }
    }

    /// How many hours the source holds.
    pub fn len(&self) -> usize {
        match self {
            HourSource::Memory(traffic) => traffic.len(),
            HourSource::Store { work, .. } => work.len(),
        }
    }

    /// Whether the source holds no hour.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 1-based window interval of hour `k`.
    pub fn interval(&self, k: usize) -> u32 {
        match self {
            HourSource::Memory(traffic) => traffic[k].interval,
            HourSource::Store { work, .. } => work[k].0,
        }
    }

    /// Stream hour `k` into `sink`: one slice for memory, the fused
    /// block-by-block decode for a store hour, which is never
    /// materialized. On error the sink may hold a prefix of the hour.
    ///
    /// # Errors
    ///
    /// A store hour's read or decode failure, as [`NetError::Hour`].
    pub fn visit(&self, k: usize, sink: &mut dyn FlowSink) -> Result<(), NetError> {
        self.read(k)?.visit(sink)
    }

    /// Route hour `k` through `router`'s front half — read, decode,
    /// correlate, classify and count its destinations — and take it as
    /// one [`RoutedHour`], ready to fold on any thread.
    ///
    /// # Errors
    ///
    /// A store hour's read or decode failure, as [`NetError::Hour`];
    /// nothing of the hour leaves the router.
    pub fn route(&self, k: usize, router: &mut Router<'_>) -> Result<RoutedHour, NetError> {
        router.begin_hour(self.interval(k));
        self.visit(k, router)?;
        Ok(router.finish_hour())
    }

    /// The drivers' timed "read" stage: nothing to do for memory; for a
    /// store, the hour's bytes, read into owned memory from its
    /// per-hour file or its segment alike.
    fn read(&self, k: usize) -> Result<HourData<'s>, NetError> {
        match *self {
            HourSource::Memory(traffic) => Ok(HourData::Flows(&traffic[k].flows)),
            HourSource::Store { store, work } => {
                let (interval, hour) = work[k];
                let bytes = store
                    .fetch_hour_bytes(hour)
                    .map_err(hour_failed(interval, hour))?;
                Ok(HourData::Bytes {
                    store,
                    interval,
                    hour,
                    bytes,
                })
            }
        }
    }
}

/// Route `source`'s hours ahead of `consume`, which runs on the calling
/// thread and receives them in source order as a [`RoutedFeed`]: the
/// feed at two workers, one router thread and the consumer. Whenever
/// the hour the consumer takes next has not arrived, the consumer
/// routes the next unclaimed hour itself instead of waiting, so the
/// daemon's publisher routes while it would otherwise idle.
///
/// The router thread has exited when this returns, however `consume`
/// ends — having read the whole feed, stopped at an error, or panicked
/// (dropping the feed hangs up on the router).
///
/// # Panics
///
/// Re-raises a panic of `consume` or of the router (an interval outside
/// the window of `hours`), once the router has exited.
pub fn route_ahead<T>(
    db: &DeviceDb,
    hours: u32,
    source: HourSource<'_>,
    consume: impl FnOnce(RoutedFeed<'_>) -> T,
) -> T {
    feed(db, hours, source, 2, None, consume)
}

/// How many hours a feed may claim past the one its consumer takes
/// next, per worker: the routed hours in flight — being routed, or
/// waiting in the stash — are at most twice the worker count.
const AHEAD_PER_WORKER: usize = 2;

/// Run the routed feed of `source` at `workers` workers (the calling
/// thread and `workers − 1` scoped router threads) and hand it to
/// `consume` on the calling thread. With `metrics`, every routed hour
/// is timed into the pipeline's read and ingest stages and counted,
/// per worker, as `pipeline.worker.N.hours` (the consumer is worker 0).
fn feed<'a, T>(
    db: &'a DeviceDb,
    hours: u32,
    source: HourSource<'a>,
    workers: usize,
    metrics: Option<(&'a Registry, &'a PipelineMetrics)>,
    consume: impl FnOnce(RoutedFeed<'_>) -> T,
) -> T {
    let workers = workers.max(1);
    let shared = Feed {
        source,
        workers,
        metrics,
        state: Mutex::new(FeedState {
            cursor: 0,
            next: 0,
            stash: BTreeMap::new(),
            spares: Vec::new(),
            routers: workers - 1,
            closed: false,
        }),
        arrived: Condvar::new(),
        room: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let shared = &shared;
            scope.spawn(move || shared.run_router(Router::new(db, hours), worker));
        }
        consume(RoutedFeed {
            feed: &shared,
            router: Router::new(db, hours),
            worker: shared.worker_hours(0),
            done: false,
        })
    })
}

/// What a feed's workers share: the source, and behind one lock the
/// cursor every worker claims hours off, the reorder stash and the
/// recycled hour buffers.
struct Feed<'a> {
    source: HourSource<'a>,
    /// The consumer and the router threads; the shelf keeps one spare
    /// hour per worker.
    workers: usize,
    metrics: Option<(&'a Registry, &'a PipelineMetrics)>,
    state: Mutex<FeedState>,
    /// Signalled when an hour reaches the stash or a router exits.
    arrived: Condvar,
    /// Signalled when the consumer takes an hour or hangs up.
    room: Condvar,
}

impl std::fmt::Debug for Feed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Feed")
            .field("workers", &self.workers)
            .finish()
    }
}

struct FeedState {
    /// The next unclaimed hour; past the end after a failed hour.
    cursor: usize,
    /// The hour the consumer takes next; every earlier one is yielded.
    next: usize,
    /// Hours routed before their turn (or their failure), by position.
    stash: BTreeMap<usize, Result<RoutedHour, NetError>>,
    /// Folded hours, emptied, for the next routes to fill.
    spares: Vec<RoutedHour>,
    /// Router threads still running.
    routers: usize,
    /// Routing is over: the consumer hung up, or a router panicked.
    closed: bool,
}

impl Feed<'_> {
    fn lock(&self) -> MutexGuard<'_, FeedState> {
        // The lock is never held across routing or folding, so a panic
        // cannot leave the state half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_hours(&self, worker: usize) -> Option<Counter> {
        self.metrics
            .map(|(registry, _)| PipelineMetrics::worker_hours(registry, worker))
    }

    /// Claim the next hour for `router` if the window has room, giving
    /// the router a spare hour's buffers to route it into.
    fn claim(&self, st: &mut FeedState, router: &mut Router<'_>) -> Option<usize> {
        let len = self.source.len();
        let window = AHEAD_PER_WORKER * self.workers;
        if st.closed || st.cursor >= len.min(st.next + window) {
            return None;
        }
        let k = st.cursor;
        st.cursor += 1;
        if let Some(spare) = st.spares.pop() {
            router.recycle(spare);
        }
        Some(k)
    }

    /// Route hour `k`, timed and counted when the feed has metrics.
    fn route(
        &self,
        k: usize,
        router: &mut Router<'_>,
        worker: Option<&Counter>,
    ) -> Result<RoutedHour, NetError> {
        let Some((_, pm)) = self.metrics else {
            return self.source.route(k, router);
        };
        let t0 = Instant::now();
        let data = self.source.read(k)?;
        let t1 = Instant::now();
        router.begin_hour(self.source.interval(k));
        data.visit(router)?;
        pm.read_time.record(t1 - t0);
        pm.ingest_time.record(t1.elapsed());
        pm.hours_ingested.inc();
        if let Some(worker) = worker {
            worker.inc();
        }
        Ok(router.finish_hour())
    }

    /// Put routed hour `k` where the consumer finds it. No hour after a
    /// failed one is claimed: the feed ends at the failure.
    fn stash(&self, st: &mut FeedState, k: usize, routed: Result<RoutedHour, NetError>) {
        if routed.is_err() {
            st.cursor = usize::MAX;
        }
        st.stash.insert(k, routed);
        self.arrived.notify_one();
    }

    /// A router thread: claim, route and stash hours until the cursor is
    /// spent or the feed is closed, waiting while the window is full.
    fn run_router(&self, mut router: Router<'_>, worker: usize) {
        // Counts the router out however it ends; a panicking one closes
        // the feed, so the consumer stops waiting for the hour it held.
        struct Exit<'f, 'a>(&'f Feed<'a>);
        impl Drop for Exit<'_, '_> {
            fn drop(&mut self) {
                let mut st = self.0.lock();
                st.routers -= 1;
                if std::thread::panicking() {
                    st.closed = true;
                    self.0.room.notify_all();
                }
                self.0.arrived.notify_one();
            }
        }
        let _exit = Exit(self);
        let counter = self.worker_hours(worker);
        let mut st = self.lock();
        loop {
            let Some(k) = self.claim(&mut st, &mut router) else {
                if st.closed || st.cursor >= self.source.len() {
                    return;
                }
                st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(st);
            let routed = self.route(k, &mut router, counter.as_ref());
            st = self.lock();
            self.stash(&mut st, k, routed);
        }
    }
}

/// A source's hours, routed by the feed's workers and yielded in source
/// order: hour `k`'s [`RoutedHour`], or the read or
/// decode failure of hour `k` ([`NetError::Hour`]) after every earlier
/// hour, which ends the feed.
///
/// Every worker — the consumer and the router threads — claims the next
/// hour off one cursor, at most `2 × workers` hours past the one the
/// consumer takes next. Hours that arrive before their turn wait in a
/// reorder stash. When the consumer asks for an hour that has not
/// arrived, it routes the next unclaimed hour itself, and waits only
/// when none is left to claim. A consumer that hands its hours back
/// ([`recycle`](Self::recycle)) has later hours routed into their
/// buffers. Dropping the feed hangs up on the router threads.
#[derive(Debug)]
pub struct RoutedFeed<'f> {
    feed: &'f Feed<'f>,
    router: Router<'f>,
    worker: Option<Counter>,
    done: bool,
}

impl RoutedFeed<'_> {
    /// Yield `routed` as the consumer's next hour.
    fn take(
        &mut self,
        mut st: MutexGuard<'_, FeedState>,
        routed: Result<RoutedHour, NetError>,
    ) -> Result<RoutedHour, NetError> {
        st.next += 1;
        self.feed.room.notify_all();
        self.done = routed.is_err();
        routed
    }

    /// Hand back a consumed hour, so a later hour is routed into its
    /// buffers instead of into fresh ones.
    pub fn recycle(&mut self, hour: RoutedHour) {
        let mut st = self.feed.lock();
        if st.spares.len() < self.feed.workers {
            st.spares.push(hour);
        }
    }
}

impl Iterator for RoutedFeed<'_> {
    type Item = Result<RoutedHour, NetError>;

    fn next(&mut self) -> Option<Self::Item> {
        let feed = self.feed;
        let mut st = feed.lock();
        while !self.done {
            let next = st.next;
            if let Some(routed) = st.stash.remove(&next) {
                return Some(self.take(st, routed));
            }
            if let Some(k) = feed.claim(&mut st, &mut self.router) {
                drop(st);
                let routed = feed.route(k, &mut self.router, self.worker.as_ref());
                st = feed.lock();
                feed.stash(&mut st, k, routed);
            } else if st.next >= feed.source.len() || st.closed || st.routers == 0 {
                // Nothing to claim, and no hour left to wait for: every
                // hour is yielded, or a router panicked holding the next
                // one (the scope re-raises it).
                self.done = true;
            } else {
                st = feed
                    .arrived
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        None
    }
}

impl Drop for RoutedFeed<'_> {
    fn drop(&mut self) {
        self.feed.lock().closed = true;
        self.feed.room.notify_all();
    }
}

impl HourData<'_> {
    /// The drivers' "ingest" stage: stream the hour into `sink`.
    fn visit(&self, sink: &mut dyn FlowSink) -> Result<(), NetError> {
        match self {
            HourData::Flows(flows) => sink.on_flows(flows),
            HourData::Bytes {
                store,
                interval,
                hour,
                bytes,
            } => {
                store
                    .visit_hour_for(*hour, bytes, DecodeOptions::default(), sink)
                    .map_err(hour_failed(*interval, *hour))?;
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
        assert_eq!(seq, par);
        assert_eq!(seq.devices.ids(), par.devices.ids(), "device row order");
    }

    /// The routed feed at 1–4 workers over a store: every hour arrives
    /// once, in source order, and the workers' hour counts add up to
    /// the hours, however the routing was shared out.
    #[test]
    fn feed_yields_each_hour_once_in_source_order_at_any_worker_count() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(27));
        let window = built.scenario.telescope().window;
        let dir = tmpdir("feed");
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        built.scenario.write_to_store(&store).unwrap();
        let stored = StoredWindow::of(&store, window);
        let source = HourSource::stored(&store, &stored);
        let want: Vec<u32> = stored.work.iter().map(|(interval, _)| *interval).collect();
        let db = &built.inventory.db;
        for workers in 1..=4 {
            let registry = Registry::new();
            let pm = PipelineMetrics::register(&registry);
            let metrics = Some((&registry, &pm));
            let got = feed(
                db,
                window.num_hours(),
                source,
                workers,
                metrics,
                |mut feed| {
                    let mut got = Vec::new();
                    while let Some(hour) = feed.next() {
                        let hour = hour.unwrap();
                        got.push(hour.interval());
                        // Every other hour goes back, so routers take spares.
                        if got.len() % 2 == 0 {
                            feed.recycle(hour);
                        }
                    }
                    got
                },
            );
            assert_eq!(got, want, "{workers} workers");
            let snap = registry.snapshot();
            let routed: u64 = (0..workers)
                .map(|w| snap.counter(&format!("pipeline.worker.{w}.hours")).unwrap())
                .sum();
            assert_eq!(routed, want.len() as u64, "{workers} workers");
            assert_eq!(snap.counter("pipeline.hours_ingested"), Some(routed));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An hour outside the window panics whichever worker routes it;
    /// the feed ends rather than waiting for it while the other routers
    /// wait for room, and the panic reaches the caller once every
    /// router has exited.
    #[test]
    fn feed_reraises_a_routing_panic_without_hanging() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(28));
        let mut traffic: Vec<HourTraffic> =
            (1..=24).map(|i| built.scenario.generate_hour(i)).collect();
        traffic[6].interval = 99;
        let db = &built.inventory.db;
        for workers in (1..=4).cycle().take(16) {
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                feed(
                    db,
                    24,
                    HourSource::Memory(&traffic),
                    workers,
                    None,
                    |feed| feed.count(),
                )
            }));
            assert!(routed.is_err(), "{workers} workers");
        }
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
        assert_eq!(
            out.analysis.view().total_packets(),
            in_memory.view().total_packets()
        );
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
