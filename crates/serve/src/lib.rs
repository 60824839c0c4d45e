//! Telescope-as-a-service: the resident daemon behind `iotscope serve`.
//!
//! The batch pipeline answers one question per process. This crate
//! keeps the telescope *resident*: hours ingest incrementally through
//! [`StreamingAnalyzer`] — from memory or straight from a store, one
//! loop either way ([`TelescopeService::ingest_with`]) — and after
//! every hour the service publishes an
//! immutable [`Snapshot`] by swapping an `Arc` in a [`SnapshotCell`] —
//! readers clone the current `Arc` and query it for as long as they
//! like while ingest races ahead. A snapshot is never mutated after
//! publication, so there are no torn reads by construction; the
//! concurrent-reader property test in `iotscope-tests` further pins
//! every published epoch to a from-scratch batch analysis of exactly
//! that epoch's hour prefix.
//!
//! Queries go through the unified [`QueryApi`] surface from
//! `iotscope-core` — the same trait the CLI `report`/`investigate`
//! commands consume — so an HTTP response and a batch report can never
//! disagree about an aggregate. [`http::HttpServer`] exposes the
//! endpoints over a zero-dependency HTTP/1.1 listener.

#![forbid(unsafe_code)]

pub mod http;
pub mod json;

use iotscope_core::query::{QueryApi, QueryContext};
use iotscope_core::stream::{Alert, StreamConfig, StreamingAnalyzer};
use iotscope_core::{Analysis, Analyzer, ScoreConfig, ScoreRow, ScoreTable};
use iotscope_devicedb::isp::IspRegistry;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_intel::IntelContext;
use iotscope_obs::{Counter, Histogram, Registry, Timer};
use iotscope_telescope::HourTraffic;
use std::convert::Infallible;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Traffic-class labels in [`class_idx`](iotscope_core::analysis::class_idx)
/// order, for the `/device/{id}` payload.
const CLASS_NAMES: [&str; 5] = ["tcp_scan", "icmp_scan", "backscatter", "udp", "other"];

/// The served endpoints, in routing order. Metric names derive from
/// these (`serve.requests.<endpoint>`, `serve.latency.<endpoint>`), and
/// the benchmark's traced run iterates the same list.
pub const ENDPOINTS: [&str; 10] = [
    "healthz",
    "summary",
    "device",
    "realms",
    "countries",
    "isps",
    "alerts",
    "score_top",
    "score",
    "metrics",
];

/// Inclusive latency-histogram upper bounds: a 1-2-5 ladder from 1µs
/// to 1s, in nanoseconds.
pub fn latency_bounds_ns() -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut decade: u64 = 1_000;
    while decade <= 1_000_000_000 {
        for m in [1, 2, 5] {
            bounds.push(decade * m);
        }
        decade *= 10;
    }
    bounds
}

/// One immutable published analysis state. Readers hold it by `Arc`;
/// nothing mutates it after publication.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Publication sequence number: the number of hours ingested when
    /// this snapshot was published (0 = the empty pre-ingest state).
    /// Structurally-equal republications (the normalized final state)
    /// keep their epoch, so each epoch maps to exactly one hour prefix.
    pub epoch: u64,
    /// Hours ingested so far.
    pub hours_ingested: u32,
    /// Interval of the most recently ingested hour.
    pub last_interval: Option<u32>,
    /// The analysis over exactly the first `epoch` ingested hours.
    pub analysis: Arc<Analysis>,
    /// Alerts raised up to and including the last ingested hour.
    pub alerts: Arc<Vec<Alert>>,
    /// Per-device maliciousness scores over exactly the same hour
    /// prefix, when the service runs with intel attached. `None` when
    /// the service has no intel context.
    pub scores: Option<Arc<ScoreTable>>,
}

impl Snapshot {
    /// The empty pre-ingest snapshot for a window of `hours`.
    pub fn empty(db: &DeviceDb, hours: u32) -> Snapshot {
        Snapshot {
            epoch: 0,
            hours_ingested: 0,
            last_interval: None,
            analysis: Arc::new(Analyzer::new(db, hours).finish()),
            alerts: Arc::new(Vec::new()),
            scores: None,
        }
    }

    /// A [`QueryApi`] view over this snapshot.
    pub fn query<'a>(&'a self, db: &'a DeviceDb, isps: &'a IspRegistry) -> QueryContext<'a> {
        QueryContext::new(
            &self.analysis,
            db,
            isps,
            &self.alerts,
            self.epoch,
            self.hours_ingested,
        )
        .with_scores(self.scores.as_deref())
    }
}

/// The publication point: readers [`load`](Self::load) the current
/// `Arc<Snapshot>` without ever blocking ingest for longer than the
/// pointer swap itself.
///
/// A `RwLock<Arc<_>>` rather than a lock-free `ArcSwap`: the critical
/// sections are a clone (read) and a pointer store (write), both
/// nanoseconds, and std is the only dependency allowed here. Readers
/// never hold the lock while querying — they clone the `Arc` and
/// release.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell holding `initial`.
    pub fn new(initial: Snapshot) -> Self {
        SnapshotCell {
            inner: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone); the returned
    /// snapshot stays valid and immutable regardless of later
    /// publications.
    pub fn load(&self) -> Arc<Snapshot> {
        self.inner
            .read()
            .expect("snapshot cell not poisoned")
            .clone()
    }

    /// Atomically replace the current snapshot.
    pub fn publish(&self, snapshot: Snapshot) {
        *self.inner.write().expect("snapshot cell not poisoned") = Arc::new(snapshot);
    }
}

/// Per-endpoint request counters and latency histograms
/// (`serve.requests.*`, `serve.latency.*`) and the per-hour publication
/// timer (`serve.publish_time`: building the epoch's snapshot, swapping
/// it in, dropping the one it replaced); all
/// [variant](iotscope_obs::Stability::Variant) — request mixes and wall
/// time are never reproducible.
#[derive(Debug)]
struct ServeMetrics {
    requests: [Counter; ENDPOINTS.len()],
    latency: [Histogram; ENDPOINTS.len()],
    not_found: Counter,
    publish_time: Timer,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> Self {
        let bounds = latency_bounds_ns();
        ServeMetrics {
            requests: std::array::from_fn(|i| {
                registry.counter_variant(&format!("serve.requests.{}", ENDPOINTS[i]))
            }),
            latency: std::array::from_fn(|i| {
                registry.histogram_variant(&format!("serve.latency.{}", ENDPOINTS[i]), &bounds)
            }),
            not_found: registry.counter_variant("serve.requests.not_found"),
            publish_time: registry.timer("serve.publish_time"),
        }
    }
}

/// The resident telescope: owns the inventory, ingests hours through
/// the streaming analyzer, publishes epoch snapshots, and answers
/// [`QueryApi`] queries — the one implementation behind both the HTTP
/// endpoints and the CLI.
#[derive(Debug)]
pub struct TelescopeService {
    db: DeviceDb,
    isps: IspRegistry,
    hours: u32,
    intel: Option<IntelContext>,
    cell: SnapshotCell,
    registry: Registry,
    metrics: ServeMetrics,
}

impl TelescopeService {
    /// A service over `db`/`isps` for a window of `hours`, holding the
    /// empty epoch-0 snapshot until ingest begins.
    pub fn new(db: DeviceDb, isps: IspRegistry, hours: u32) -> Self {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let cell = SnapshotCell::new(Snapshot::empty(&db, hours));
        TelescopeService {
            db,
            isps,
            hours,
            intel: None,
            cell,
            registry,
            metrics,
        }
    }

    /// Attach a threat-intel context: ingest runs the streaming score
    /// stage, snapshots carry the [`ScoreTable`], and the `/score/*`
    /// endpoints serve it. Without intel they answer empty/404.
    pub fn with_intel(mut self, intel: IntelContext) -> Self {
        self.intel = Some(intel);
        self
    }

    /// The attached intel context, if any.
    pub fn intel(&self) -> Option<&IntelContext> {
        self.intel.as_ref()
    }

    /// The inventory the service analyzes against.
    pub fn db(&self) -> &DeviceDb {
        &self.db
    }

    /// ISP metadata.
    pub fn isps(&self) -> &IspRegistry {
        &self.isps
    }

    /// The service's metric registry (stream + analysis + serve
    /// metrics all land here; `/metrics` serves its snapshot).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Ingest `traffic` hour by hour, publishing a new epoch snapshot
    /// after every hour and invoking `on_alert` for each alert as it
    /// fires: [`ingest_with`](Self::ingest_with) over hours already in
    /// memory, which cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if hours arrive out of order (same contract as
    /// [`StreamingAnalyzer::push_hour`]).
    pub fn ingest(
        &self,
        traffic: &[HourTraffic],
        config: StreamConfig,
        on_alert: &mut dyn FnMut(&Alert),
    ) -> (Analysis, Vec<Alert>) {
        let Ok(done) = self.ingest_with(traffic, config, on_alert, |stream, hour| {
            Ok::<_, Infallible>(stream.push_hour(hour))
        });
        done
    }

    /// The daemon's ingest loop. For each item of `hours`, `push` feeds
    /// that hour into the streaming analyzer (from memory with
    /// [`StreamingAnalyzer::push_hour`], from a store with
    /// [`StreamingAnalyzer::push_store_hour`]); the loop then invokes
    /// `on_alert` for each alert the hour raised (the live alert log —
    /// the CLI streams these to stdout) and publishes a new epoch
    /// snapshot.
    ///
    /// Readers querying concurrently observe each epoch `k` as exactly
    /// the analysis of the first `k` ingested hours: the published
    /// clone differs from a batch run only in device-row order, which
    /// [`Analysis`] equality ignores. Returns the final normalized
    /// analysis and the full alert log, after republishing them at the
    /// final epoch.
    ///
    /// # Errors
    ///
    /// Stops at the first hour `push` fails on and returns its error.
    /// Nothing of that hour is published: the service keeps serving the
    /// snapshot of the hours before it.
    ///
    /// # Panics
    ///
    /// Panics if hours arrive out of order (same contract as
    /// [`StreamingAnalyzer::push_hour`]).
    pub fn ingest_with<H, E>(
        &self,
        hours: impl IntoIterator<Item = H>,
        config: StreamConfig,
        on_alert: &mut dyn FnMut(&Alert),
        mut push: impl FnMut(&mut StreamingAnalyzer<'_>, H) -> Result<Vec<Alert>, E>,
    ) -> Result<(Analysis, Vec<Alert>), E> {
        let base = self.cell.load();
        let (base_epoch, base_hours) = (base.epoch, base.hours_ingested);
        drop(base);
        let mut stream =
            StreamingAnalyzer::with_metrics(&self.db, self.hours, config, &self.registry);
        if let Some(intel) = &self.intel {
            stream = stream.with_intel(&intel.index, ScoreConfig::default());
        }
        let mut pushed = 0u32;
        let mut alert_log: Arc<Vec<Alert>> = Arc::new(Vec::new());
        for hour in hours {
            let raised = push(&mut stream, hour)?;
            for alert in &raised {
                on_alert(alert);
            }
            let publishing = self.metrics.publish_time.span();
            // A quiet hour publishes the previous log again instead of
            // copying it.
            if !raised.is_empty() {
                alert_log = Arc::new(stream.alerts().to_vec());
            }
            pushed += 1;
            self.cell.publish(Snapshot {
                epoch: base_epoch + u64::from(pushed),
                hours_ingested: base_hours + pushed,
                last_interval: stream.last_interval(),
                analysis: Arc::new(stream.snapshot()),
                alerts: Arc::clone(&alert_log),
                scores: stream.scores().map(|t| Arc::new(t.clone())),
            });
            drop(publishing);
        }
        let last_interval = stream.last_interval();
        let (analysis, alerts, scores) = stream.finish_with_scores();
        // Republish the normalized final state at the same epoch — it
        // is structurally equal to the last per-hour publication, just
        // with device rows in id order, so readers keep their
        // epoch↔prefix mapping.
        self.cell.publish(Snapshot {
            epoch: base_epoch + u64::from(pushed),
            hours_ingested: base_hours + pushed,
            last_interval,
            analysis: Arc::new(analysis.clone()),
            alerts: alert_log,
            scores: scores.map(Arc::new),
        });
        Ok((analysis, alerts))
    }

    /// Answer one request: route `path`, execute it against the current
    /// snapshot through [`QueryApi`], and return `(status, json body)`.
    /// Counts the request and records its latency per endpoint.
    pub fn respond(&self, path: &str) -> (u16, String) {
        let start = Instant::now();
        let (endpoint, status, body) = self.route(path);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match ENDPOINTS.iter().position(|e| Some(*e) == endpoint) {
            Some(i) => {
                self.metrics.requests[i].inc();
                self.metrics.latency[i].observe(elapsed);
            }
            None => self.metrics.not_found.inc(),
        }
        (status, body)
    }

    fn route(&self, path: &str) -> (Option<&'static str>, u16, String) {
        let path = path.split('?').next().unwrap_or(path);
        let snap = self.cell.load();
        let api = snap.query(&self.db, &self.isps);
        match path {
            "/healthz" => (Some("healthz"), 200, self.render_healthz(&snap)),
            "/summary" => (Some("summary"), 200, render_summary(&api.summary())),
            "/realms" => (Some("realms"), 200, render_realms(&api.realms())),
            "/countries" => (Some("countries"), 200, render_countries(&api.countries())),
            "/isps" => (Some("isps"), 200, render_isps(&api)),
            "/alerts" => (Some("alerts"), 200, render_alerts(api.alerts())),
            "/score/top" => (
                Some("score_top"),
                200,
                render_score_top(&api.top_scores(20)),
            ),
            "/metrics" => (Some("metrics"), 200, self.registry.snapshot().to_json()),
            _ => {
                if let Some(rest) = path.strip_prefix("/device/") {
                    match rest.parse::<u32>() {
                        Ok(raw) => match api.device(DeviceId(raw)) {
                            Some(d) => (Some("device"), 200, render_device(&d)),
                            None => (Some("device"), 404, error_body("device not observed")),
                        },
                        Err(_) => (Some("device"), 400, error_body("invalid device id")),
                    }
                } else if let Some(rest) = path.strip_prefix("/score/") {
                    match rest.parse::<u32>() {
                        Ok(raw) => match api.score(DeviceId(raw)) {
                            Some(r) => (Some("score"), 200, render_score(&r)),
                            None => (Some("score"), 404, error_body("no score for device")),
                        },
                        Err(_) => (Some("score"), 400, error_body("invalid device id")),
                    }
                } else {
                    (None, 404, error_body("not found"))
                }
            }
        }
    }

    fn render_healthz(&self, snap: &Snapshot) -> String {
        format!(
            "{{\"status\":\"ok\",\"epoch\":{},\"hours_ingested\":{},\"last_interval\":{}}}",
            snap.epoch,
            snap.hours_ingested,
            match snap.last_interval {
                Some(i) => i.to_string(),
                None => "null".to_owned(),
            }
        )
    }
}

/// A JSON error payload.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json::string(message))
}

fn render_summary(s: &iotscope_core::query::Summary) -> String {
    format!(
        "{{\"epoch\":{},\"hours_window\":{},\"hours_ingested\":{},\"devices\":{},\
         \"consumer\":{},\"cps\":{},\"countries\":{},\"total_packets\":{},\
         \"unmatched_flows\":{},\"unmatched_packets\":{},\"alerts\":{}}}",
        s.epoch,
        s.hours_window,
        s.hours_ingested,
        s.devices,
        s.consumer,
        s.cps,
        s.countries,
        s.total_packets,
        s.unmatched_flows,
        s.unmatched_packets,
        s.alerts,
    )
}

fn render_realms(realms: &[iotscope_core::query::RealmStats; 2]) -> String {
    let rows = realms.iter().map(|r| {
        format!(
            "{{\"realm\":{},\"deployed\":{},\"compromised\":{},\"packets\":{}}}",
            json::string(&r.realm.to_string()),
            r.deployed,
            r.compromised,
            r.packets,
        )
    });
    format!("{{\"realms\":{}}}", json::array(rows))
}

fn render_countries(rows: &[iotscope_core::characterize::CountryRow]) -> String {
    let top = rows.iter().take(15).map(|r| {
        format!(
            "{{\"country\":{},\"consumer\":{},\"cps\":{},\"pct_compromised\":{}}}",
            json::string(r.country.name()),
            r.consumer,
            r.cps,
            match r.pct_compromised {
                Some(p) => json::number(p),
                None => "null".to_owned(),
            },
        )
    });
    format!("{{\"count\":{},\"rows\":{}}}", rows.len(), json::array(top))
}

fn render_isps(api: &dyn QueryApi) -> String {
    let render = |realm| {
        json::array(api.isps(realm, 5).into_iter().map(|r| {
            format!(
                "{{\"name\":{},\"country\":{},\"devices\":{},\"pct\":{}}}",
                json::string(&r.name),
                json::string(&r.country),
                r.devices,
                json::number(r.pct),
            )
        }))
    };
    format!(
        "{{\"consumer\":{},\"cps\":{}}}",
        render(Realm::Consumer),
        render(Realm::Cps)
    )
}

fn render_alerts(alerts: &[Alert]) -> String {
    let recent = alerts
        .iter()
        .rev()
        .take(50)
        .rev()
        .map(|a| json::string(&a.to_string()));
    format!(
        "{{\"count\":{},\"recent\":{}}}",
        alerts.len(),
        json::array(recent)
    )
}

fn render_score(r: &ScoreRow) -> String {
    let categories = json::array(r.categories().iter().map(|c| json::string(&c.to_string())));
    format!(
        "{{\"id\":{},\"realm\":{},\"tier\":{},\"points\":{},\"categories\":{categories},\
         \"samples\":{},\"scan_packets\":{},\"backscatter_packets\":{},\"total_packets\":{}}}",
        r.device.0,
        json::string(&r.realm.to_string()),
        json::string(&r.tier.to_string()),
        r.points,
        r.samples,
        r.scan_packets,
        r.backscatter_packets,
        r.total_packets,
    )
}

fn render_score_top(rows: &[ScoreRow]) -> String {
    format!(
        "{{\"count\":{},\"rows\":{}}}",
        rows.len(),
        json::array(rows.iter().map(render_score))
    )
}

fn render_device(d: &iotscope_core::query::DeviceDetail) -> String {
    let packets = CLASS_NAMES
        .iter()
        .zip(d.packets_by_class)
        .map(|(name, n)| format!("{}:{n}", json::string(name)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"id\":{},\"ip\":{},\"realm\":{},\"country\":{},\"isp\":{},\
         \"first_interval\":{},\"days_active\":{},\"flows\":{},\
         \"total_packets\":{},\"packets\":{{{packets}}}}}",
        d.id.0,
        json::string(&d.ip.to_string()),
        json::string(&d.realm.to_string()),
        json::string(&d.country),
        json::string(&d.isp),
        d.first_interval,
        d.days_active,
        d.flows,
        d.total_packets(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

    fn service_with_traffic(seed: u64) -> (TelescopeService, Vec<HourTraffic>) {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(seed));
        let traffic = built.scenario.generate();
        let service = TelescopeService::new(built.inventory.db, built.inventory.isps, 143);
        (service, traffic)
    }

    #[test]
    fn epoch_zero_serves_the_empty_state() {
        let (service, _) = service_with_traffic(71);
        let snap = service.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.analysis.device_count(), 0);
        let (code, body) = service.respond("/summary");
        assert_eq!(code, 200);
        assert!(body.contains("\"epoch\":0"));
        assert!(body.contains("\"devices\":0"));
    }

    #[test]
    fn ingest_publishes_monotone_epochs_and_final_state() {
        let (service, traffic) = service_with_traffic(72);
        let mut alert_count = 0usize;
        let (analysis, alerts) =
            service.ingest(&traffic[..48], StreamConfig::default(), &mut |_| {
                alert_count += 1;
            });
        assert_eq!(alert_count, alerts.len());
        let snap = service.snapshot();
        assert_eq!(snap.epoch, 48);
        assert_eq!(snap.hours_ingested, 48);
        assert_eq!(snap.last_interval, Some(48));
        assert_eq!(*snap.analysis, analysis);
        assert_eq!(*snap.alerts, alerts);
    }

    #[test]
    fn publish_timer_counts_one_span_per_ingested_hour() {
        let (service, traffic) = service_with_traffic(77);
        service.ingest(&traffic[..36], StreamConfig::default(), &mut |_| {});
        let snap = service.registry().snapshot();
        match &snap.get("serve.publish_time").unwrap().value {
            iotscope_obs::SnapshotValue::Duration { spans, total_ns } => {
                assert_eq!(*spans, 36);
                assert!(*total_ns > 0);
            }
            other => panic!("publish time must be a timer, got {other:?}"),
        }
        assert!(snap.gauge("stream.state_bytes").unwrap() > 0);
        let (_, body) = service.respond("/metrics");
        assert!(body.contains("\"serve.publish_time\""), "{body}");
        assert!(body.contains("\"stream.state_bytes\""), "{body}");
    }

    #[test]
    fn a_failed_hour_ends_ingest_and_publishes_nothing() {
        let (service, traffic) = service_with_traffic(78);
        let failed = service.ingest_with(
            &traffic[..10],
            StreamConfig::default(),
            &mut |_| {},
            |stream, hour| {
                if hour.interval == 7 {
                    Err("unreadable")
                } else {
                    Ok(stream.push_hour(hour))
                }
            },
        );
        assert_eq!(failed.unwrap_err(), "unreadable");
        let snap = service.snapshot();
        assert_eq!((snap.epoch, snap.last_interval), (6, Some(6)));
        let mut reference = Analyzer::new(service.db(), 143);
        for hour in &traffic[..6] {
            reference.ingest_hour(hour);
        }
        assert_eq!(*snap.analysis, reference.finish());
    }

    #[test]
    fn endpoints_serve_query_api_results() {
        let (service, traffic) = service_with_traffic(73);
        service.ingest(&traffic[..24], StreamConfig::default(), &mut |_| {});
        let snap = service.snapshot();
        let api = snap.query(service.db(), service.isps());

        let (code, body) = service.respond("/summary");
        assert_eq!(code, 200);
        assert_eq!(body, render_summary(&api.summary()));

        let (code, body) = service.respond("/realms");
        assert_eq!(code, 200);
        assert!(body.contains("\"realm\":\"Consumer\""));

        let (code, body) = service.respond("/countries");
        assert_eq!(code, 200);
        assert!(body.contains("\"count\":"));

        let (code, body) = service.respond("/isps");
        assert_eq!(code, 200);
        assert!(body.contains("\"consumer\":["));

        let id = api.summary();
        assert!(id.devices > 0);
        let first = snap.analysis.view().compromised()[0];
        let (code, body) = service.respond(&format!("/device/{}", first.0));
        assert_eq!(code, 200);
        assert!(body.contains("\"ip\":"));

        let (code, _) = service.respond("/device/4294967295");
        assert_eq!(code, 404);
        let (code, _) = service.respond("/device/bogus");
        assert_eq!(code, 400);
        let (code, _) = service.respond("/nope");
        assert_eq!(code, 404);

        // Without intel attached, the score surface is empty but routed.
        let (code, body) = service.respond("/score/top");
        assert_eq!(code, 200);
        assert!(body.contains("\"count\":0"), "{body}");
        let (code, _) = service.respond(&format!("/score/{}", first.0));
        assert_eq!(code, 404);
        let (code, _) = service.respond("/score/bogus");
        assert_eq!(code, 400);

        let (code, body) = service.respond("/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("serve.requests.summary"));
        assert!(body.contains("stream.hours_pushed"));
    }

    #[test]
    fn request_metrics_count_and_time() {
        let (service, _) = service_with_traffic(74);
        for _ in 0..3 {
            service.respond("/healthz");
        }
        service.respond("/missing");
        let snap = service.registry().snapshot();
        assert_eq!(snap.counter("serve.requests.healthz"), Some(3));
        assert_eq!(snap.counter("serve.requests.not_found"), Some(1));
        match &snap.get("serve.latency.healthz").unwrap().value {
            iotscope_obs::SnapshotValue::Histogram { count, .. } => assert_eq!(*count, 3),
            other => panic!("latency must be a histogram, got {other:?}"),
        }
    }

    #[test]
    fn score_endpoints_serve_the_streamed_table() {
        use iotscope_core::malicious::select_candidates;
        use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
        use iotscope_core::ScoreTable;
        use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};

        let built = PaperScenario::build(PaperScenarioConfig::tiny(76));
        let traffic = built.scenario.generate();
        // Synthesize intel correlated with the scenario's ground truth,
        // exactly as the CLI `serve --intel` wiring does.
        let batch = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let candidates = select_candidates(&batch, 200);
        let intel =
            IntelBuilder::new(IntelSynthConfig::paper(76)).build(&built.inventory.db, &candidates);
        let service = TelescopeService::new(built.inventory.db, built.inventory.isps, 143)
            .with_intel(IntelContext::from_synth(intel));
        service.ingest(&traffic, StreamConfig::default(), &mut |_| {});

        let snap = service.snapshot();
        let scores = snap.scores.as_deref().expect("intel run publishes scores");
        let expected = ScoreTable::from_batch(
            &snap.analysis,
            service.db(),
            &service.intel().unwrap().index,
            Default::default(),
        );
        assert_eq!(*scores, expected, "published table matches batch join");

        let top = snap.query(service.db(), service.isps()).top_scores(20);
        assert!(!top.is_empty(), "scenario plants scored devices");
        let (code, body) = service.respond("/score/top");
        assert_eq!(code, 200);
        assert_eq!(body, render_score_top(&top));
        assert!(body.contains("\"tier\":"), "{body}");

        let first = top[0].device;
        let (code, body) = service.respond(&format!("/score/{}", first.0));
        assert_eq!(code, 200);
        assert_eq!(body, render_score(&top[0]));

        let (code, _) = service.respond("/score/4294967295");
        assert_eq!(code, 404);
        let (code, body) = service.respond("/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("serve.requests.score_top"));
    }

    #[test]
    fn alerts_endpoint_renders_display_lines() {
        let (service, traffic) = service_with_traffic(75);
        service.ingest(&traffic, StreamConfig::default(), &mut |_| {});
        let (code, body) = service.respond("/alerts");
        assert_eq!(code, 200);
        assert!(body.contains("\"count\":"));
        // The planted interval-119 port sweep renders via Alert's
        // Display, same line the CLI watch streams.
        assert!(body.contains("SWEEP"), "{body}");
    }
}
