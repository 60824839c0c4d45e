//! Memoized derived queries over a finished [`Analysis`].
//!
//! Downstream consumers (characterization, DoS/scan/UDP summaries,
//! reporting, the CLI) repeatedly ask the same questions of an analysis:
//! "all compromised devices, sorted", "the DoS victims", "the consumer
//! cohort". Before this layer each such call re-scanned and re-sorted
//! the per-device state; [`AnalysisView`] computes each answer once,
//! caches it inside the `Analysis` (a [`OnceLock`] per query), and hands
//! out borrowed slices.
//!
//! # Memoization contract
//!
//! Caches are reset wherever the analysis is mutated: every hour's
//! [`Analyzer::apply_routed`] (which every ingest ends in), and
//! `normalize` (how finished results are sorted), so streaming `peek()`
//! snapshots stay correct. Cached values never
//! participate in `Clone` (a clone starts cold) or `PartialEq`/`Debug`
//! (two analyses with the same aggregates are equal regardless of which
//! queries have been memoized) — so equality is unaffected by *when*
//! views are consulted. If you mutate an `Analysis`'s public fields by
//! hand, call [`Analysis::invalidate_views`] afterwards.
//!
//! [`Analyzer::apply_routed`]: crate::analysis::Analyzer::apply_routed

use crate::analysis::{class_idx, realm_idx, Analysis};
use crate::classify::TrafficClass;
use iotscope_devicedb::{DeviceId, Realm};
use std::sync::OnceLock;

/// Lazily-computed query results stored inside [`Analysis`].
///
/// Always equal to any other cache and clones as a cold cache, so the
/// containing `Analysis` can keep deriving `Clone`/`PartialEq`.
#[derive(Default)]
pub(crate) struct ViewCache {
    /// All correlated devices, sorted by id.
    compromised: OnceLock<Vec<DeviceId>>,
    /// Per-realm partitions of the compromised set, sorted by id.
    realms: OnceLock<[Vec<DeviceId>; 2]>,
    /// Per-class cohorts (devices with >0 packets of the class), sorted.
    cohorts: OnceLock<[Vec<DeviceId>; 5]>,
    /// Devices with any scanning traffic (TCP SYN or ICMP echo), sorted.
    scanners: OnceLock<Vec<DeviceId>>,
    /// `(consumer, cps)` compromised counts.
    realm_counts: OnceLock<(usize, usize)>,
    /// Total packets over all correlated devices.
    total_packets: OnceLock<u64>,
}

impl ViewCache {
    /// Drop every memoized result (the `OnceLock`s become unset again).
    pub(crate) fn reset(&mut self) {
        *self = ViewCache::default();
    }
}

impl Clone for ViewCache {
    fn clone(&self) -> Self {
        ViewCache::default()
    }
}

impl PartialEq for ViewCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ViewCache {}

impl std::fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ViewCache { .. }")
    }
}

/// Borrowed, memoizing query interface over an [`Analysis`] — obtain
/// one with [`Analysis::view`].
///
/// Every method is O(devices) the first time and O(1) afterwards, and
/// returns borrowed data; convert with `.to_vec()` only if you need
/// ownership.
///
/// # Example
///
/// ```
/// use iotscope_core::analysis::Analyzer;
/// use iotscope_devicedb::DeviceDb;
///
/// let db = DeviceDb::new();
/// let analysis = Analyzer::new(&db, 4).finish();
/// let view = analysis.view();
/// assert!(view.compromised().is_empty());
/// assert_eq!(view.realm_counts(), (0, 0));
/// ```
#[derive(Clone, Copy)]
pub struct AnalysisView<'a> {
    analysis: &'a Analysis,
}

impl<'a> AnalysisView<'a> {
    pub(crate) fn new(analysis: &'a Analysis) -> Self {
        AnalysisView { analysis }
    }

    /// All correlated (compromised) devices, sorted by id.
    pub fn compromised(&self) -> &'a [DeviceId] {
        self.cache().compromised.get_or_init(|| {
            let mut v = self.analysis.devices.ids().to_vec();
            v.sort_unstable();
            v
        })
    }

    /// The compromised devices of one realm, sorted by id.
    pub fn realm_devices(&self, realm: Realm) -> &'a [DeviceId] {
        let parts = self.cache().realms.get_or_init(|| {
            let mut parts: [Vec<DeviceId>; 2] = [Vec::new(), Vec::new()];
            for obs in self.analysis.devices.rows() {
                parts[realm_idx(obs.realm)].push(obs.device);
            }
            for p in &mut parts {
                p.sort_unstable();
            }
            parts
        });
        &parts[realm_idx(realm)]
    }

    /// Devices with at least one packet of `class`, sorted by id.
    pub fn cohort(&self, class: TrafficClass) -> &'a [DeviceId] {
        let cohorts = self.cache().cohorts.get_or_init(|| {
            let mut cohorts: [Vec<DeviceId>; 5] = Default::default();
            for obs in self.analysis.devices.rows() {
                for (c, cohort) in cohorts.iter_mut().enumerate() {
                    if obs.packets_by_class[c] > 0 {
                        cohort.push(obs.device);
                    }
                }
            }
            for c in &mut cohorts {
                c.sort_unstable();
            }
            cohorts
        });
        &cohorts[class_idx(class)]
    }

    /// Devices that emitted any backscatter — the inferred DoS victims,
    /// sorted by id.
    pub fn dos_victims(&self) -> &'a [DeviceId] {
        self.cohort(TrafficClass::Backscatter)
    }

    /// Devices that emitted TCP scanning traffic, sorted by id.
    pub fn tcp_scanners(&self) -> &'a [DeviceId] {
        self.cohort(TrafficClass::TcpScan)
    }

    /// Devices that emitted UDP traffic, sorted by id.
    pub fn udp_devices(&self) -> &'a [DeviceId] {
        self.cohort(TrafficClass::Udp)
    }

    /// Devices with any scanning traffic (TCP SYN *or* ICMP echo),
    /// sorted by id.
    pub fn scanners(&self) -> &'a [DeviceId] {
        self.cache().scanners.get_or_init(|| {
            let mut v: Vec<DeviceId> = self
                .analysis
                .devices
                .rows()
                .filter(|o| o.scan_packets() > 0)
                .map(|o| o.device)
                .collect();
            v.sort_unstable();
            v
        })
    }

    /// Count of correlated devices per realm `(consumer, cps)`.
    pub fn realm_counts(&self) -> (usize, usize) {
        *self.cache().realm_counts.get_or_init(|| {
            let consumer = self
                .analysis
                .devices
                .rows()
                .filter(|o| o.realm == Realm::Consumer)
                .count();
            (consumer, self.analysis.devices.len() - consumer)
        })
    }

    /// Total packets attributed to correlated devices.
    pub fn total_packets(&self) -> u64 {
        *self.cache().total_packets.get_or_init(|| {
            self.analysis
                .devices
                .rows()
                .map(|o| o.total_packets())
                .sum()
        })
    }

    fn cache(&self) -> &'a ViewCache {
        &self.analysis.cache
    }
}

impl std::fmt::Debug for AnalysisView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisView")
            .field("devices", &self.analysis.devices.len())
            .finish()
    }
}
