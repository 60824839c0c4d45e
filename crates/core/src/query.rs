//! The unified query surface over an analysis: one [`QueryApi`] trait
//! implemented once against a published snapshot and consumed by every
//! front end — the HTTP daemon's endpoint handlers, `Report::build`,
//! and the CLI `investigate`/`diff`/`watch` commands.
//!
//! Before this layer, each consumer re-derived its aggregates ad hoc
//! from `ReportContext` (one scanned the device table for country
//! counts, another for ISP rankings, a third re-sorted candidates), so
//! the same question had several slightly different answers scattered
//! across the tree. [`QueryContext`] is the single implementation:
//! realm counts come from the memoized [`AnalysisView`], deployment
//! counts from the [`DeviceDb`]'s own memos (`DbCache` is an
//! implementation detail behind this trait), and rankings from one scan
//! each.
//!
//! The trait is object-safe, so the HTTP layer can hold a
//! `&dyn QueryApi` without knowing whether it queries a live epoch
//! snapshot or a finished batch run.
//!
//! [`QueryContext`] reads an analysis through one borrowed
//! [`AnalysisView`], which a whole [`Analysis`] provides (the batch
//! path, no copy) and so does a [`QueryState`]: the window length, the
//! device table, the per-realm transport packets and the unmatched
//! totals, owned — exactly what the queries read, and what the serve
//! daemon publishes as one epoch instead of a clone of the whole
//! analysis.

use crate::analysis::{realm_idx, Analysis};
use crate::characterize::{self, CountryRow, IspRow};
use crate::malicious;
use crate::score::{ScoreRow, ScoreTable};
use crate::stream::Alert;
use crate::table::DeviceTable;
use crate::view::{AnalysisView, ViewCache};
use iotscope_devicedb::isp::IspRegistry;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Top-line aggregates for one epoch — the `/summary` endpoint and the
/// header of every report.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Publication epoch: the hours ingested so far (0 = nothing
    /// ingested; a batch run has ingested its whole window).
    pub epoch: u64,
    /// Window length in hours.
    pub hours_window: u32,
    /// Correlated (compromised) devices.
    pub devices: usize,
    /// Compromised consumer devices.
    pub consumer: usize,
    /// Compromised CPS devices.
    pub cps: usize,
    /// Countries hosting at least one compromised device.
    pub countries: usize,
    /// Total packets attributed to compromised devices.
    pub total_packets: u64,
    /// Flows from sources outside the inventory.
    pub unmatched_flows: u64,
    /// Packets from unmatched sources.
    pub unmatched_packets: u64,
    /// Alerts raised so far.
    pub alerts: usize,
}

/// Everything known about one device: inventory identity joined with
/// its observed telescope activity — the `/device/{id}` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDetail {
    /// The device.
    pub id: DeviceId,
    /// Its public address.
    pub ip: Ipv4Addr,
    /// Its realm.
    pub realm: Realm,
    /// Hosting country name.
    pub country: String,
    /// Hosting ISP name.
    pub isp: String,
    /// First interval (1-based) seen at the telescope.
    pub first_interval: u32,
    /// Days with at least one observed flow.
    pub days_active: u32,
    /// Flow records observed.
    pub flows: u64,
    /// Packets per traffic class (indexed by
    /// [`class_idx`](crate::analysis::class_idx)).
    pub packets_by_class: [u64; 5],
}

impl DeviceDetail {
    /// Total packets across classes.
    pub fn total_packets(&self) -> u64 {
        self.packets_by_class.iter().sum()
    }
}

/// Deployment vs compromise for one realm — the `/realms` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealmStats {
    /// The realm.
    pub realm: Realm,
    /// Devices in the inventory.
    pub deployed: usize,
    /// Devices observed at the telescope.
    pub compromised: usize,
    /// Packets attributed to the realm (all transports).
    pub packets: u64,
}

/// What [`QueryContext`] reads of an analysis, owned: the window
/// length, the device table, the per-realm transport packets and the
/// unmatched totals, with a memo of its own for the
/// [`AnalysisView`] over them. No query reads an analysis's hourly
/// series, Table IV's port table, Table V or the backscatter
/// attribution, so this is all a published epoch needs to hold.
///
/// Equality is an [`Analysis`]'s restricted to these fields:
/// insensitive to device-row order and to which view queries have been
/// memoized.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryState {
    hours: u32,
    devices: DeviceTable,
    protocol_packets: [[u64; 3]; 2],
    unmatched_flows: u64,
    unmatched_packets: u64,
    cache: ViewCache,
}

impl QueryState {
    /// The state of a window of `hours` before anything is ingested.
    pub fn empty(hours: u32) -> Self {
        QueryState {
            hours,
            devices: DeviceTable::new(),
            protocol_packets: [[0; 3]; 2],
            unmatched_flows: 0,
            unmatched_packets: 0,
            cache: ViewCache::default(),
        }
    }

    /// The query state of `analysis`: one clone of its device table and
    /// four scalars.
    pub fn of(analysis: &Analysis) -> Self {
        QueryState {
            hours: analysis.hours,
            devices: analysis.devices.clone(),
            protocol_packets: analysis.protocol_packets,
            unmatched_flows: analysis.unmatched_flows,
            unmatched_packets: analysis.unmatched_packets,
            cache: ViewCache::default(),
        }
    }

    /// The memoizing view the queries read.
    pub fn view(&self) -> AnalysisView<'_> {
        AnalysisView::new(
            self.hours,
            &self.devices,
            self.protocol_packets,
            (self.unmatched_flows, self.unmatched_packets),
            &self.cache,
        )
    }

    /// Heap bytes held by the state: its device table (the memo is
    /// filled by readers, after publication, and not counted).
    pub fn heap_bytes(&self) -> usize {
        self.devices.heap_bytes()
    }
}

/// The query surface every consumer reads through.
///
/// Implemented by [`QueryContext`] over `(analysis, inventory, alerts)`;
/// the serve daemon wraps each published snapshot in one, and
/// [`Report::build`](crate::report::Report::build) constructs one
/// internally for batch runs.
pub trait QueryApi {
    /// The snapshot's publication epoch.
    fn epoch(&self) -> u64;

    /// Top-line aggregates (O(devices): realm counts and packet totals
    /// are memoized, countries cost one scan).
    fn summary(&self) -> Summary;

    /// Inventory identity joined with observed activity, `None` if the
    /// device was never observed (or is not in the inventory).
    fn device(&self, id: DeviceId) -> Option<DeviceDetail>;

    /// Deployment vs compromise per realm, `[consumer, cps]`.
    fn realms(&self) -> [RealmStats; 2];

    /// Countries ranked by compromised devices, descending, with the
    /// percent-compromised-of-deployed line (all rows; take what you
    /// need — the count of rows is the compromised-country count).
    fn countries(&self) -> Vec<CountryRow>;

    /// The top-`n` ISPs hosting compromised devices of `realm`.
    fn isps(&self, realm: Realm, n: usize) -> Vec<IspRow>;

    /// Alerts raised so far (empty for batch runs).
    fn alerts(&self) -> &[Alert];

    /// §V-A's exploration set: every DoS victim plus the top-`n`
    /// devices per realm by scanning+UDP packets.
    fn candidates(&self, top_n_per_realm: usize) -> Vec<DeviceId>;

    /// The `n` highest-scoring devices (points > 0, points descending
    /// then id ascending) — the `/score/top` endpoint. Empty when no
    /// score table is attached (intel disabled).
    fn top_scores(&self, n: usize) -> Vec<ScoreRow>;

    /// One device's maliciousness score — the `/score/{id}` endpoint.
    /// `None` when the device is unscored or intel is disabled.
    fn score(&self, id: DeviceId) -> Option<ScoreRow>;
}

/// The one [`QueryApi`] implementation: borrowed views over an
/// analysis, the inventory it was correlated against, and the alert log.
#[derive(Debug, Clone, Copy)]
pub struct QueryContext<'a> {
    view: AnalysisView<'a>,
    db: &'a DeviceDb,
    isps: &'a IspRegistry,
    alerts: &'a [Alert],
    scores: Option<&'a ScoreTable>,
    epoch: u64,
}

impl<'a> QueryContext<'a> {
    /// A context over a live snapshot's `view`: `epoch` hours ingested
    /// so far, `alerts` raised so far.
    pub fn new(
        view: AnalysisView<'a>,
        db: &'a DeviceDb,
        isps: &'a IspRegistry,
        alerts: &'a [Alert],
        epoch: u64,
    ) -> Self {
        QueryContext {
            view,
            db,
            isps,
            alerts,
            scores: None,
            epoch,
        }
    }

    /// Attach a score table, enabling [`QueryApi::top_scores`] and
    /// [`QueryApi::score`].
    pub fn with_scores(mut self, scores: Option<&'a ScoreTable>) -> Self {
        self.scores = scores;
        self
    }

    /// A context over a finished batch run: no alerts, epoch = window
    /// hours (everything ingested).
    pub fn batch(analysis: &'a Analysis, db: &'a DeviceDb, isps: &'a IspRegistry) -> Self {
        QueryContext {
            view: analysis.view(),
            db,
            isps,
            alerts: &[],
            scores: None,
            epoch: u64::from(analysis.hours),
        }
    }
}

impl QueryApi for QueryContext<'_> {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn summary(&self) -> Summary {
        let view = self.view;
        let (consumer, cps) = view.realm_counts();
        let countries = view
            .devices()
            .rows()
            .map(|o| self.db.device(o.device).country)
            .collect::<HashSet<_>>()
            .len();
        Summary {
            epoch: self.epoch,
            hours_window: view.hours(),
            devices: view.device_count(),
            consumer,
            cps,
            countries,
            total_packets: view.total_packets(),
            unmatched_flows: view.unmatched_flows(),
            unmatched_packets: view.unmatched_packets(),
            alerts: self.alerts.len(),
        }
    }

    fn device(&self, id: DeviceId) -> Option<DeviceDetail> {
        if id.0 as usize >= self.db.len() {
            return None;
        }
        let obs = self.view.devices().get(id)?;
        let dev = self.db.device(id);
        Some(DeviceDetail {
            id,
            ip: dev.ip,
            realm: obs.realm,
            country: dev.country.name().to_owned(),
            isp: self.isps.isp(dev.isp).name().to_owned(),
            first_interval: obs.first_interval,
            days_active: obs.days_active.count_ones(),
            flows: obs.flows,
            packets_by_class: obs.packets_by_class,
        })
    }

    fn realms(&self) -> [RealmStats; 2] {
        let (dep_consumer, dep_cps) = self.db.realm_counts();
        let (consumer, cps) = self.view.realm_counts();
        let protocol_packets = self.view.protocol_packets();
        let packets = |r: usize| -> u64 { protocol_packets[r].iter().sum() };
        [
            RealmStats {
                realm: Realm::Consumer,
                deployed: dep_consumer,
                compromised: consumer,
                packets: packets(realm_idx(Realm::Consumer)),
            },
            RealmStats {
                realm: Realm::Cps,
                deployed: dep_cps,
                compromised: cps,
                packets: packets(realm_idx(Realm::Cps)),
            },
        ]
    }

    fn countries(&self) -> Vec<CountryRow> {
        characterize::compromised_by_country(self.view, self.db)
    }

    fn isps(&self, realm: Realm, n: usize) -> Vec<IspRow> {
        characterize::top_isps(self.view, self.db, self.isps, realm, n)
    }

    fn alerts(&self) -> &[Alert] {
        self.alerts
    }

    fn candidates(&self, top_n_per_realm: usize) -> Vec<DeviceId> {
        malicious::select_candidates(self.view, top_n_per_realm)
    }

    fn top_scores(&self, n: usize) -> Vec<ScoreRow> {
        self.scores.map(|t| t.top(n)).unwrap_or_default()
    }

    fn score(&self, id: DeviceId) -> Option<ScoreRow> {
        self.scores.and_then(|t| t.get(id))
    }
}

/// Ensure the trait stays object-safe (the HTTP layer holds `&dyn`).
fn _assert_object_safe(api: &dyn QueryApi) -> u64 {
    api.epoch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::class_idx;
    use crate::classify::TrafficClass;
    use crate::pipeline::{AnalysisPipeline, AnalyzeOptions};
    use crate::report::{Report, ReportContext};
    use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

    fn built_and_analysis() -> (iotscope_telescope::paper::BuiltScenario, Analysis) {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(61));
        let traffic = built.scenario.generate();
        let analysis = AnalysisPipeline::new(&built.inventory.db, 143)
            .run(&traffic, &AnalyzeOptions::new())
            .unwrap()
            .analysis;
        (built, analysis)
    }

    #[test]
    fn summary_matches_view_and_db() {
        let (built, analysis) = built_and_analysis();
        let api = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps);
        let s = api.summary();
        assert_eq!(s.devices, analysis.device_count());
        assert_eq!((s.consumer, s.cps), analysis.view().realm_counts());
        assert_eq!(s.consumer + s.cps, s.devices);
        assert_eq!(s.total_packets, analysis.view().total_packets());
        assert_eq!(
            s.countries,
            characterize::compromised_country_count(&analysis, &built.inventory.db)
        );
        assert_eq!(s.epoch, 143);
        assert_eq!(s.alerts, 0);
    }

    #[test]
    fn device_detail_joins_inventory_and_observation() {
        let (built, analysis) = built_and_analysis();
        let api = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps);
        let id = analysis.view().compromised()[0];
        let d = api.device(id).expect("observed device has detail");
        let dev = built.inventory.db.device(id);
        assert_eq!(d.ip, dev.ip);
        assert_eq!(d.realm, dev.realm());
        assert_eq!(d.country, dev.country.name());
        assert!(d.total_packets() > 0);
        assert!(d.first_interval >= 1);
        // Out-of-inventory ids resolve to None instead of panicking.
        assert!(api.device(DeviceId(u32::MAX)).is_none());
    }

    #[test]
    fn realms_and_countries_agree_with_characterize() {
        let (built, analysis) = built_and_analysis();
        let api = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps);
        let realms = api.realms();
        assert_eq!(
            (realms[0].deployed, realms[1].deployed),
            built.inventory.db.realm_counts()
        );
        assert_eq!(
            (realms[0].compromised, realms[1].compromised),
            analysis.view().realm_counts()
        );
        assert!(realms[0].packets > 0);
        let rows = api.countries();
        assert_eq!(
            rows,
            characterize::compromised_by_country(analysis.view(), &built.inventory.db)
        );
        assert_eq!(rows.len(), api.summary().countries);
        assert_eq!(
            api.isps(Realm::Consumer, 5),
            characterize::top_isps(
                analysis.view(),
                &built.inventory.db,
                &built.inventory.isps,
                Realm::Consumer,
                5
            )
        );
        assert_eq!(
            api.candidates(100),
            malicious::select_candidates(analysis.view(), 100)
        );
    }

    #[test]
    fn report_built_on_the_api_is_unchanged() {
        // Report::build routes through QueryContext internally; its
        // fields must equal the direct characterize computations.
        let (built, analysis) = built_and_analysis();
        let report = Report::build(&ReportContext {
            analysis: &analysis,
            db: &built.inventory.db,
            isps: &built.inventory.isps,
            intel: None,
        });
        assert_eq!(report.compromised, analysis.view().realm_counts());
        assert_eq!(
            report.countries,
            characterize::compromised_country_count(&analysis, &built.inventory.db)
        );
        let fig1b: Vec<_> =
            characterize::compromised_by_country(analysis.view(), &built.inventory.db)
                .into_iter()
                .take(15)
                .collect();
        assert_eq!(report.fig1b, fig1b);
    }

    #[test]
    fn score_queries_require_an_attached_table() {
        use crate::score::{ScoreConfig, ScoreTable};
        use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
        use iotscope_intel::IntelIndex;

        let (built, analysis) = built_and_analysis();
        let bare = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps);
        assert!(bare.top_scores(5).is_empty());
        assert!(bare.score(DeviceId(0)).is_none());

        let candidates = bare.candidates(100);
        let intel =
            IntelBuilder::new(IntelSynthConfig::paper(61)).build(&built.inventory.db, &candidates);
        let index = IntelIndex::build(&intel.threats, &intel.malware);
        let table = ScoreTable::from_batch(
            &analysis,
            &built.inventory.db,
            &index,
            ScoreConfig::default(),
        );
        let api = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps)
            .with_scores(Some(&table));
        let top = api.top_scores(5);
        assert!(!top.is_empty());
        assert!(top.len() <= 5);
        // Ordering: points descending, then id ascending.
        for w in top.windows(2) {
            assert!(
                w[0].points > w[1].points
                    || (w[0].points == w[1].points && w[0].device < w[1].device)
            );
        }
        assert_eq!(api.score(top[0].device), Some(top[0].clone()));
        // Trait stays object-safe with the new methods.
        let dyn_api: &dyn QueryApi = &api;
        assert_eq!(dyn_api.top_scores(1).len(), 1);
    }

    #[test]
    fn a_query_state_answers_as_its_analysis() {
        let (built, analysis) = built_and_analysis();
        let (db, isps) = (&built.inventory.db, &built.inventory.isps);
        let state = QueryState::of(&analysis);
        // A clone allocates its columns at their length, without the
        // growth slack the analysis's own table carries.
        assert!(state.heap_bytes() > 0);
        assert!(state.heap_bytes() <= analysis.devices.heap_bytes());
        let batch = QueryContext::batch(&analysis, db, isps);
        let published = QueryContext::new(state.view(), db, isps, &[], 143);
        assert_eq!(published.summary(), batch.summary());
        assert_eq!(published.realms(), batch.realms());
        assert_eq!(published.countries(), batch.countries());
        assert_eq!(published.isps(Realm::Cps, 5), batch.isps(Realm::Cps, 5));
        assert_eq!(published.candidates(100), batch.candidates(100));
        let id = analysis.view().compromised()[0];
        assert_eq!(published.device(id), batch.device(id));

        let empty = QueryState::empty(143);
        assert_eq!(empty.heap_bytes(), 0);
        let summary = QueryContext::new(empty.view(), db, isps, &[], 0).summary();
        assert_eq!((summary.devices, summary.hours_window), (0, 143));
    }

    #[test]
    fn detail_packets_use_class_indexing() {
        let (built, analysis) = built_and_analysis();
        let api = QueryContext::batch(&analysis, &built.inventory.db, &built.inventory.isps);
        let scanner = analysis.view().tcp_scanners()[0];
        let d = api.device(scanner).unwrap();
        assert!(d.packets_by_class[class_idx(TrafficClass::TcpScan)] > 0);
    }
}
