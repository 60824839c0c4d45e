//! Near-real-time streaming analysis (§VI).
//!
//! The paper's operational follow-up: "we are currently working to
//! automate the devised methodologies in this work to index, in near
//! real-time, unsolicited Internet-scale IoT devices." This module wraps
//! the batch [`Analyzer`] in an hour-by-hour streaming interface that
//! emits **alerts** as each hour arrives:
//!
//! * [`Alert::NewDevices`] — previously-unseen IoT devices contacted the
//!   telescope (the live version of Fig 2's discovery curve);
//! * [`Alert::DosSpike`] — backscatter jumped above its trailing
//!   baseline, attributed to the dominant victim (live Fig 7 / §IV-B1);
//! * [`Alert::ScanSurge`] — one of the Fig 10 service groups surged
//!   (live SSH-burst / BackroomNet detection);
//! * [`Alert::PortSweep`] — a realm's hourly distinct-port count jumped
//!   (the live interval-119 camera detector).
//!
//! Baselines are trailing windows over past hours only, so detection is
//! causal: an alert at hour *t* uses nothing later than *t*.

use crate::analysis::{Analysis, Analyzer, TOP5_SERVICES};
use crate::fold::RoutedHour;
use crate::pipeline::HourSource;
use crate::query::QueryState;
use crate::score::{ScoreConfig, ScoreEngine, ScoreTable, Severity};
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_intel::IntelIndex;
use iotscope_net::ports::ScanService;
use iotscope_net::NetError;
use iotscope_obs::{Counter, Gauge, Registry};
use iotscope_telescope::HourTraffic;

/// Stream-layer metric handles (`stream.` prefix). Streaming is
/// single-threaded and causal, so every counter is
/// [stable](iotscope_obs::Stability::Stable); the `stream.state_bytes`
/// gauge (heap held by the device and port tables after the last
/// pushed hour) reads capacities and is variant like every gauge.
#[derive(Debug, Clone)]
struct StreamMetrics {
    hours_pushed: Counter,
    state_bytes: Gauge,
    alerts_new_devices: Counter,
    alerts_dos_spike: Counter,
    alerts_scan_surge: Counter,
    alerts_port_sweep: Counter,
    alerts_score_escalation: Counter,
}

impl StreamMetrics {
    fn register(registry: &Registry) -> Self {
        StreamMetrics {
            hours_pushed: registry.counter("stream.hours_pushed"),
            state_bytes: registry.gauge("stream.state_bytes"),
            alerts_new_devices: registry.counter("stream.alerts.new_devices"),
            alerts_dos_spike: registry.counter("stream.alerts.dos_spike"),
            alerts_scan_surge: registry.counter("stream.alerts.scan_surge"),
            alerts_port_sweep: registry.counter("stream.alerts.port_sweep"),
            alerts_score_escalation: registry.counter("stream.alerts.score_escalation"),
        }
    }

    fn count(&self, alert: &Alert) {
        match alert {
            Alert::NewDevices { .. } => self.alerts_new_devices.inc(),
            Alert::DosSpike { .. } => self.alerts_dos_spike.inc(),
            Alert::ScanSurge { .. } => self.alerts_scan_surge.inc(),
            Alert::PortSweep { .. } => self.alerts_port_sweep.inc(),
            Alert::ScoreEscalation { .. } => self.alerts_score_escalation.inc(),
        }
    }
}

/// Streaming alert kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// Previously-unseen devices appeared this hour.
    NewDevices {
        /// The hour's 1-based interval.
        interval: u32,
        /// How many devices were discovered.
        count: usize,
    },
    /// Backscatter spiked above baseline.
    DosSpike {
        /// The hour's interval.
        interval: u32,
        /// Total backscatter packets this hour.
        packets: u64,
        /// Spike factor over the trailing baseline.
        factor: f64,
        /// Dominant victim and its share of the hour's backscatter.
        victim: Option<(DeviceId, f64)>,
    },
    /// A Fig 10 service group surged above baseline.
    ScanSurge {
        /// The hour's interval.
        interval: u32,
        /// The surging service.
        service: ScanService,
        /// Scan packets to the service this hour.
        packets: u64,
        /// Surge factor over the trailing baseline.
        factor: f64,
    },
    /// A realm's distinct-port count jumped (wide port sweep).
    PortSweep {
        /// The hour's interval.
        interval: u32,
        /// The sweeping realm.
        realm: Realm,
        /// Distinct destination ports this hour.
        ports: u64,
        /// Jump factor over the trailing baseline.
        factor: f64,
    },
    /// A device's maliciousness score crossed into a new severity tier
    /// (the streaming §V join; requires
    /// [`with_intel`](StreamingAnalyzer::with_intel)). Deduplicated: a
    /// device re-alerts only when it crosses its *next* tier.
    ScoreEscalation {
        /// The hour's interval.
        interval: u32,
        /// The escalating device.
        device: DeviceId,
        /// The tier it reached.
        tier: Severity,
        /// Its point total at escalation.
        points: u32,
    },
}

impl Alert {
    /// The interval the alert fired at.
    pub fn interval(&self) -> u32 {
        match self {
            Alert::NewDevices { interval, .. }
            | Alert::DosSpike { interval, .. }
            | Alert::ScanSurge { interval, .. }
            | Alert::PortSweep { interval, .. }
            | Alert::ScoreEscalation { interval, .. } => *interval,
        }
    }
}

/// One alert as one log line — the format the CLI `watch` command
/// streams and the daemon's `/alerts` endpoint serves, so both logs
/// read identically.
impl std::fmt::Display for Alert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alert::NewDevices { interval, count } => {
                write!(f, "[h{interval:>3}] NEW   {count:>8} devices")
            }
            Alert::DosSpike {
                interval,
                packets,
                factor,
                victim,
            } => {
                let who = victim
                    .map(|(d, s)| format!("dev#{} ({:.0}%)", d.0, 100.0 * s))
                    .unwrap_or_default();
                write!(
                    f,
                    "[h{interval:>3}] DOS   {packets:>8} pkts  {factor:>6.1}x  {who}"
                )
            }
            Alert::ScanSurge {
                interval,
                service,
                packets,
                factor,
            } => {
                write!(
                    f,
                    "[h{interval:>3}] SURGE {packets:>8} pkts  {factor:>6.1}x  {service}"
                )
            }
            Alert::PortSweep {
                interval,
                realm,
                ports,
                factor,
            } => {
                write!(
                    f,
                    "[h{interval:>3}] SWEEP {ports:>8} ports {factor:>6.1}x  {realm}"
                )
            }
            Alert::ScoreEscalation {
                interval,
                device,
                tier,
                points,
            } => {
                write!(
                    f,
                    "[h{interval:>3}] SCORE {points:>8} pts   {:>8}  dev#{}",
                    tier.to_string(),
                    device.0
                )
            }
        }
    }
}

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Trailing-window length (hours) for baselines.
    pub window: usize,
    /// Hours of history required before spike alerts may fire.
    pub warmup: usize,
    /// Backscatter spike factor.
    pub dos_factor: f64,
    /// Service surge factor.
    pub surge_factor: f64,
    /// Distinct-port jump factor.
    pub sweep_factor: f64,
    /// Minimum packets for a DoS/scan alert (suppresses noise at tiny
    /// scales).
    pub min_packets: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 24,
            warmup: 6,
            dos_factor: 5.0,
            surge_factor: 4.0,
            sweep_factor: 6.0,
            min_packets: 50,
        }
    }
}

/// Trailing mean over at most the last `window` pushed values.
#[derive(Debug, Clone)]
struct Trailing {
    window: usize,
    values: std::collections::VecDeque<f64>,
}

impl Trailing {
    fn new(window: usize) -> Self {
        Trailing {
            window: window.max(1),
            values: std::collections::VecDeque::new(),
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn push(&mut self, v: f64) {
        self.values.push_back(v);
        if self.values.len() > self.window {
            self.values.pop_front();
        }
    }
}

/// Hour-by-hour streaming analyzer. Feed hours in arrival order with
/// [`push_hour`](Self::push_hour), [`push_from`](Self::push_from) or,
/// routed elsewhere, [`push_routed`](Self::push_routed); call
/// [`finish`](Self::finish) for the final batch-equivalent [`Analysis`]
/// plus the full alert log.
#[derive(Debug)]
pub struct StreamingAnalyzer<'a> {
    analyzer: Analyzer<'a>,
    db: &'a DeviceDb,
    config: StreamConfig,
    backscatter: Trailing,
    services: [Trailing; 5],
    ports: [Trailing; 2],
    score: Option<ScoreEngine<'a>>,
    alerts: Vec<Alert>,
    last_interval: Option<u32>,
    metrics: Option<StreamMetrics>,
}

impl<'a> StreamingAnalyzer<'a> {
    /// Create a streaming analyzer over `db` for a window of `hours`.
    pub fn new(db: &'a DeviceDb, hours: u32, config: StreamConfig) -> Self {
        StreamingAnalyzer {
            analyzer: Analyzer::new(db, hours),
            db,
            config,
            backscatter: Trailing::new(config.window),
            services: std::array::from_fn(|_| Trailing::new(config.window)),
            ports: [Trailing::new(config.window), Trailing::new(config.window)],
            score: None,
            alerts: Vec::new(),
            last_interval: None,
            metrics: None,
        }
    }

    /// Attach the intel scoring stage: every pushed hour also folds the
    /// cumulative analysis into a [`ScoreEngine`] over `index`, and tier
    /// crossings surface as [`Alert::ScoreEscalation`]s. A push rescores
    /// only the devices its hour touched — no other device's evidence
    /// moved — except the first push after a late attach, which scores
    /// every device the earlier hours observed.
    pub fn with_intel(mut self, index: &'a IntelIndex, config: ScoreConfig) -> Self {
        self.score = Some(ScoreEngine::new(self.db, index, config));
        self
    }

    /// Like [`new`](Self::new), but publishing `stream.hours_pushed`,
    /// per-kind `stream.alerts.*` counters and the `stream.state_bytes`
    /// gauge into `registry` (and the inner analyzer's `analysis.*`
    /// counters with them).
    pub fn with_metrics(
        db: &'a DeviceDb,
        hours: u32,
        config: StreamConfig,
        registry: &Registry,
    ) -> Self {
        let mut s = Self::new(db, hours, config);
        s.analyzer = Analyzer::with_metrics(db, hours, registry);
        s.metrics = Some(StreamMetrics::register(registry));
        s
    }

    /// Ingest the next hour and return the alerts it raised: routed on
    /// this thread, then [`push_routed`](Self::push_routed).
    ///
    /// # Panics
    ///
    /// Panics if hours arrive out of order or outside the window.
    pub fn push_hour(&mut self, hour: &HourTraffic) -> Vec<Alert> {
        self.push_from(&HourSource::Memory(std::slice::from_ref(hour)), 0)
            .expect("an in-memory hour cannot fail")
    }

    /// Ingest hour `k` of `hours` as the next hour and return the
    /// alerts it raised: the hour is routed on this thread by the
    /// analyzer's router ([`HourSource::route`]; a store hour is read
    /// and decoded block by block, never materialized), then
    /// [`push_routed`](Self::push_routed), and its buffers go back to
    /// the router. It raises the same alerts, from the same state, as
    /// [`push_hour`](Self::push_hour) on the decoded hour.
    ///
    /// # Errors
    ///
    /// The hour's read or decode failure, naming the hour
    /// ([`NetError::Hour`]). Nothing of the failed hour is folded.
    ///
    /// # Panics
    ///
    /// As [`push_hour`](Self::push_hour).
    pub fn push_from(&mut self, hours: &HourSource<'_>, k: usize) -> Result<Vec<Alert>, NetError> {
        let routed = hours.route(k, self.analyzer.router())?;
        let alerts = self.push_routed(&routed);
        self.analyzer.router().recycle(routed);
        Ok(alerts)
    }

    /// Fold `hour`, routed on any thread by a
    /// [`Router`](crate::fold::Router) (a
    /// [`RoutedFeed`](crate::pipeline::RoutedFeed) item), as the next
    /// hour and return the alerts it raised: the one fold every push
    /// takes. The device fold, the `analysis.*` counter
    /// flush, alert detection and the score fold all run here, in hour
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if hours arrive out of order or outside the window.
    pub fn push_routed(&mut self, hour: &RoutedHour) -> Vec<Alert> {
        let interval = hour.interval();
        if let Some(last) = self.last_interval {
            assert!(
                interval > last,
                "hours must arrive in order ({last} then {interval})"
            );
        }
        self.last_interval = Some(interval);
        let known = self.analyzer.peek().device_count();
        self.analyzer.apply_routed(hour);
        let snapshot = self.analyzer.peek();
        let idx = (interval - 1) as usize;
        let mut new_alerts = Vec::new();

        // --- new-device discovery -----------------------------------------
        // Device rows are only ever appended, so the hour's discoveries
        // are the rows it added.
        let discovered = snapshot.device_count() - known;
        if discovered > 0 {
            new_alerts.push(Alert::NewDevices {
                interval,
                count: discovered,
            });
        }

        // --- DoS spike ------------------------------------------------------
        let bs = snapshot.backscatter_intervals[idx].total;
        if let Some(mean) = self.backscatter.mean() {
            if self.backscatter.len() >= self.config.warmup
                && bs >= self.config.min_packets
                && bs as f64 > self.config.dos_factor * mean.max(1.0)
            {
                let victim = snapshot.backscatter_intervals[idx]
                    .top_victim
                    .map(|(d, p)| (d, p as f64 / bs as f64));
                new_alerts.push(Alert::DosSpike {
                    interval,
                    packets: bs,
                    factor: bs as f64 / mean.max(1.0),
                    victim,
                });
            }
        }
        self.backscatter.push(bs as f64);

        // --- service surges ---------------------------------------------------
        let row = snapshot.top5_series[idx];
        for (s, service) in TOP5_SERVICES.into_iter().enumerate() {
            let pkts = row[s];
            if let Some(mean) = self.services[s].mean() {
                if self.services[s].len() >= self.config.warmup
                    && pkts >= self.config.min_packets
                    && pkts as f64 > self.config.surge_factor * mean.max(1.0)
                {
                    new_alerts.push(Alert::ScanSurge {
                        interval,
                        service,
                        packets: pkts,
                        factor: pkts as f64 / mean.max(1.0),
                    });
                }
            }
            self.services[s].push(pkts as f64);
        }

        // --- port sweeps ------------------------------------------------------
        for (r, realm) in [(0usize, Realm::Consumer), (1, Realm::Cps)] {
            let ports = snapshot.tcp_scan[r].dst_ports[idx];
            if let Some(mean) = self.ports[r].mean() {
                if self.ports[r].len() >= self.config.warmup
                    && ports > 20
                    && ports as f64 > self.config.sweep_factor * mean.max(1.0)
                {
                    new_alerts.push(Alert::PortSweep {
                        interval,
                        realm,
                        ports,
                        factor: ports as f64 / mean.max(1.0),
                    });
                }
            }
            self.ports[r].push(ports as f64);
        }

        // --- intel scoring ----------------------------------------------------
        if let Some(engine) = &mut self.score {
            // Every device of an earlier hour is scored already, unless
            // the engine was attached after that hour: then score all.
            let escalations = if engine.table().len() == known {
                engine.fold_hour(snapshot, hour)
            } else {
                engine.fold(snapshot)
            };
            for esc in escalations {
                new_alerts.push(Alert::ScoreEscalation {
                    interval,
                    device: esc.device,
                    tier: esc.tier,
                    points: esc.points,
                });
            }
        }

        if let Some(m) = &self.metrics {
            m.hours_pushed.inc();
            let state = snapshot.devices.heap_bytes() + snapshot.udp_ports.heap_bytes();
            m.state_bytes.set(i64::try_from(state).unwrap_or(i64::MAX));
            for a in &new_alerts {
                m.count(a);
            }
        }
        self.alerts.extend(new_alerts.iter().cloned());
        new_alerts
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The interval of the most recently pushed hour, if any.
    pub fn last_interval(&self) -> Option<u32> {
        self.last_interval
    }

    /// A structural clone of the whole analysis as of the last pushed
    /// hour, the hourly series and Table IV's port table included.
    /// The serve daemon does not publish this: its epochs hold
    /// [`query_state`](Self::query_state), all that its endpoints read.
    ///
    /// [`finish`](Self::finish) only normalizes device-row order and
    /// resets the memo cache, and [`Analysis`] equality is
    /// row-order-insensitive, so this clone compares equal to a
    /// from-scratch batch analysis of exactly the hours pushed so far.
    pub fn snapshot(&self) -> Analysis {
        self.analyzer.peek().clone()
    }

    /// The query state as of the last pushed hour — what the serve
    /// daemon publishes as one epoch: one clone of the device table and
    /// four scalars ([`QueryState::of`]). It equals the query state of
    /// a from-scratch batch analysis of exactly the hours pushed so far,
    /// for the reason [`snapshot`](Self::snapshot) gives (the
    /// concurrent-reader tests hold the daemon to that).
    pub fn query_state(&self) -> QueryState {
        QueryState::of(self.analyzer.peek())
    }

    /// The in-progress score table, if the intel stage is attached
    /// (first-seen row order until the run finishes).
    pub fn scores(&self) -> Option<&ScoreTable> {
        self.score.as_ref().map(|e| e.table())
    }

    /// Finish, returning the batch-equivalent analysis and the alert log.
    pub fn finish(self) -> (Analysis, Vec<Alert>) {
        let (analysis, alerts, _) = self.finish_with_scores();
        (analysis, alerts)
    }

    /// Finish, additionally handing over the normalized score table when
    /// the intel stage was attached. The table is bit-identical to
    /// [`ScoreTable::from_batch`] over the same hours (the streaming ≡
    /// batch contract, proptested in `tests/score_streaming.rs`).
    pub fn finish_with_scores(self) -> (Analysis, Vec<Alert>, Option<ScoreTable>) {
        (
            self.analyzer.finish(),
            self.alerts,
            self.score.map(ScoreEngine::finish),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_telescope::ground_truth::Role;
    use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

    fn run() -> (
        iotscope_telescope::paper::BuiltScenario,
        Analysis,
        Vec<Alert>,
    ) {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(55));
        let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
        for i in 1..=143 {
            let hour = built.scenario.generate_hour(i);
            stream.push_hour(&hour);
        }
        let (analysis, alerts) = stream.finish();
        (built, analysis, alerts)
    }

    #[test]
    fn new_device_alerts_cover_every_device_once() {
        let (_, analysis, alerts) = run();
        // Per-day sums of the alert counts, made cumulative, are Fig 2's
        // discovery curve; their total is every device, once.
        let mut per_day = vec![0usize; analysis.discovery_curve().len()];
        for a in &alerts {
            if let Alert::NewDevices { interval, count } = a {
                per_day[((interval - 1) / 24) as usize] += count;
            }
        }
        let mut cumulative = 0usize;
        for (day, (all, _, _)) in analysis.discovery_curve().into_iter().enumerate() {
            cumulative += per_day[day];
            assert_eq!(cumulative, all, "day {day}");
        }
        assert_eq!(cumulative, analysis.device_count());
    }

    #[test]
    fn dos_spikes_fire_on_planted_episodes() {
        let (built, _, alerts) = run();
        let spike_intervals: Vec<u32> = alerts
            .iter()
            .filter_map(|a| match a {
                Alert::DosSpike { interval, .. } => Some(*interval),
                _ => None,
            })
            .collect();
        // The second big planted episode block (53..=56) must alert (the
        // 6..=8 block falls inside the warmup).
        assert!(
            spike_intervals.iter().any(|i| (53..=56).contains(i)),
            "spikes {spike_intervals:?}"
        );
        // Every alerted dominant victim is a planted victim.
        for a in &alerts {
            if let Alert::DosSpike {
                victim: Some((d, share)),
                ..
            } = a
            {
                assert!(built.truth.has_role(*d, Role::DosVictim));
                assert!(*share > 0.3);
            }
        }
    }

    #[test]
    fn ssh_bursts_raise_scan_surges() {
        let (_, _, alerts) = run();
        let ssh: Vec<u32> = alerts
            .iter()
            .filter_map(|a| match a {
                Alert::ScanSurge {
                    interval,
                    service: ScanService::Ssh,
                    ..
                } => Some(*interval),
                _ => None,
            })
            .collect();
        assert!(
            ssh.contains(&32) || ssh.contains(&69),
            "ssh surges at {ssh:?}"
        );
    }

    #[test]
    fn port_sweep_alert_at_interval_119() {
        let (_, _, alerts) = run();
        let sweeps: Vec<(u32, Realm)> = alerts
            .iter()
            .filter_map(|a| match a {
                Alert::PortSweep {
                    interval, realm, ..
                } => Some((*interval, *realm)),
                _ => None,
            })
            .collect();
        assert!(
            sweeps.contains(&(119, Realm::Consumer)),
            "sweeps {sweeps:?}"
        );
    }

    #[test]
    fn alerts_are_causal_and_ordered() {
        let (_, _, alerts) = run();
        let mut last = 0;
        for a in &alerts {
            assert!(a.interval() >= last);
            last = a.interval();
        }
    }

    #[test]
    fn gaps_in_the_hour_stream_are_tolerated() {
        // A telescope outage: hours 20..40 never arrive. Streaming keeps
        // working and later alerts still fire.
        let built = PaperScenario::build(PaperScenarioConfig::tiny(58));
        let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
        for i in (1..=143u32).filter(|i| !(20..40).contains(i)) {
            stream.push_hour(&built.scenario.generate_hour(i));
        }
        let (analysis, alerts) = stream.finish();
        assert!(analysis.device_count() > 500);
        // The interval-119 port sweep still alerts after the gap.
        assert!(alerts
            .iter()
            .any(|a| matches!(a, Alert::PortSweep { interval: 119, .. })));
        // Nothing attributed to the missing hours.
        for i in 19..39usize {
            assert_eq!(analysis.tcp_scan[0].packets[i], 0);
        }
    }

    #[test]
    fn metrics_count_hours_and_alerts() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(59));
        let registry = Registry::new();
        let mut stream = StreamingAnalyzer::with_metrics(
            &built.inventory.db,
            143,
            StreamConfig::default(),
            &registry,
        );
        for i in 1..=48 {
            stream.push_hour(&built.scenario.generate_hour(i));
        }
        let (_, alerts) = stream.finish();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stream.hours_pushed"), Some(48));
        let counted = snap.counter("stream.alerts.new_devices").unwrap()
            + snap.counter("stream.alerts.dos_spike").unwrap()
            + snap.counter("stream.alerts.scan_surge").unwrap()
            + snap.counter("stream.alerts.port_sweep").unwrap()
            + snap.counter("stream.alerts.score_escalation").unwrap();
        assert_eq!(counted, alerts.len() as u64);
        // The inner analyzer's counters ride along.
        assert!(snap.counter("analysis.packets.consumer.tcp_scan").unwrap() > 0);
    }

    #[test]
    fn intel_stage_emits_deduped_escalations_and_batch_identical_scores() {
        use crate::score::{ScoreConfig, ScoreTable};
        use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
        use iotscope_intel::IntelIndex;

        let built = PaperScenario::build(PaperScenarioConfig::tiny(60));
        // Batch run first, to select candidates and synthesize intel
        // correlated with the scenario's ground truth.
        let traffic = built.scenario.generate();
        let batch = crate::pipeline::AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &crate::pipeline::AnalyzeOptions::new())
            .unwrap()
            .analysis;
        let candidates = crate::malicious::select_candidates(batch.view(), 200);
        let intel =
            IntelBuilder::new(IntelSynthConfig::paper(60)).build(&built.inventory.db, &candidates);
        let index = IntelIndex::build(&intel.threats, &intel.malware);
        let cfg = ScoreConfig::default();

        let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default())
            .with_intel(&index, cfg);
        let mut mid_scores = 0usize;
        for hour in &traffic {
            stream.push_hour(hour);
            mid_scores = stream.scores().unwrap().len();
        }
        assert!(mid_scores > 0, "scores accumulate during the run");
        let (_, alerts, scores) = stream.finish_with_scores();
        let scores = scores.unwrap();

        // Escalations fired and never repeat a tier per device.
        let mut highest: std::collections::HashMap<DeviceId, Severity> =
            std::collections::HashMap::new();
        let mut escalations = 0usize;
        for a in &alerts {
            if let Alert::ScoreEscalation {
                device,
                tier,
                points,
                ..
            } = a
            {
                escalations += 1;
                let prev = highest.insert(*device, *tier);
                assert!(
                    prev.is_none_or(|p| *tier > p),
                    "dev#{} re-alerted at tier {tier} after {prev:?}",
                    device.0
                );
                assert_eq!(Severity::from_points(*points), *tier);
            }
        }
        assert!(escalations > 0, "flagged scenario must escalate someone");
        // Every alerted device's final tier matches its last escalation.
        for (device, tier) in &highest {
            assert_eq!(scores.get(*device).unwrap().tier, *tier);
        }

        // Streaming table ≡ one batch fold of the full analysis.
        let from_batch = ScoreTable::from_batch(&batch, &built.inventory.db, &index, cfg);
        assert_eq!(scores, from_batch);
    }

    #[test]
    fn intel_stage_attached_mid_stream_scores_every_device() {
        use crate::score::{ScoreConfig, ScoreTable};
        use iotscope_intel::IntelIndex;

        let built = PaperScenario::build(PaperScenarioConfig::tiny(61));
        let db = &built.inventory.db;
        let index = IntelIndex::empty();
        let cfg = ScoreConfig::default();
        let mut stream = StreamingAnalyzer::new(db, 143, StreamConfig::default());
        for i in 1..=12 {
            stream.push_hour(&built.scenario.generate_hour(i));
        }
        let mut stream = stream.with_intel(&index, cfg);
        for i in 13..=24 {
            stream.push_hour(&built.scenario.generate_hour(i));
        }
        let (analysis, _, scores) = stream.finish_with_scores();
        let scores = scores.unwrap();
        assert_eq!(scores.len(), analysis.device_count());
        assert_eq!(scores, ScoreTable::from_batch(&analysis, db, &index, cfg));
    }

    #[test]
    fn score_escalation_alert_renders_and_orders() {
        let a = Alert::ScoreEscalation {
            interval: 7,
            device: DeviceId(42),
            tier: Severity::High,
            points: 5,
        };
        assert_eq!(a.interval(), 7);
        let line = a.to_string();
        assert!(line.contains("SCORE"), "{line}");
        assert!(line.contains("high"), "{line}");
        assert!(line.contains("dev#42"), "{line}");
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_hours_rejected() {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(57));
        let mut stream = StreamingAnalyzer::new(&built.inventory.db, 143, StreamConfig::default());
        stream.push_hour(&built.scenario.generate_hour(5));
        stream.push_hour(&built.scenario.generate_hour(4));
    }
}
