//! Memoized derived queries over an analysis's device table.
//!
//! Downstream consumers (characterization, DoS/scan/UDP summaries,
//! reporting, the query surface) repeatedly ask the same questions of
//! an analysis: "all compromised devices, sorted", "the DoS victims",
//! "the consumer cohort". Before this layer each such call re-scanned
//! and re-sorted the per-device state; [`AnalysisView`] computes each
//! answer once, caches it beside the table it reads (a [`OnceLock`]
//! per query), and hands out borrowed slices. Two owners provide the
//! view: a whole [`Analysis`] ([`Analysis::view`]) and the
//! [`QueryState`] the serve daemon publishes ([`QueryState::view`]),
//! each with a memo of its own.
//!
//! # Memoization contract
//!
//! Caches are reset wherever the analysis is mutated: every hour's
//! [`Analyzer::apply_routed`] (which every ingest ends in), and
//! `normalize` (how finished results are sorted), so streaming `peek()`
//! snapshots stay correct; a [`QueryState`] is never mutated after it
//! is built. Cached values never
//! participate in `Clone` (a clone starts cold) or `PartialEq`/`Debug`
//! (two analyses with the same aggregates are equal regardless of which
//! queries have been memoized) — so equality is unaffected by *when*
//! views are consulted. If you mutate an `Analysis`'s public fields by
//! hand, call [`Analysis::invalidate_views`] afterwards.
//!
//! [`Analysis`]: crate::analysis::Analysis
//! [`Analysis::view`]: crate::analysis::Analysis::view
//! [`Analysis::invalidate_views`]: crate::analysis::Analysis::invalidate_views
//! [`Analyzer::apply_routed`]: crate::analysis::Analyzer::apply_routed
//! [`QueryState`]: crate::query::QueryState
//! [`QueryState::view`]: crate::query::QueryState::view

use crate::analysis::{class_idx, realm_idx};
use crate::classify::TrafficClass;
use crate::table::DeviceTable;
use iotscope_devicedb::{DeviceId, Realm};
use std::sync::OnceLock;

/// Lazily-computed query results stored beside a device table (inside
/// an [`Analysis`](crate::analysis::Analysis) or a
/// [`QueryState`](crate::query::QueryState)).
///
/// Always equal to any other cache and clones as a cold cache, so its
/// owner can keep deriving `Clone`/`PartialEq`.
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

/// Borrowed, memoizing query interface over what the query surface
/// reads of an analysis: the device table, the window length, the
/// per-realm transport packets and the unmatched totals. Obtain one
/// with [`Analysis::view`](crate::analysis::Analysis::view) or
/// [`QueryState::view`](crate::query::QueryState::view).
///
/// Every derived list is O(devices) the first time and O(1)
/// afterwards, and returns borrowed data; convert with `.to_vec()` only
/// if you need ownership.
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
/// assert_eq!(view.hours(), 4);
/// ```
#[derive(Clone, Copy)]
pub struct AnalysisView<'a> {
    hours: u32,
    devices: &'a DeviceTable,
    protocol_packets: [[u64; 3]; 2],
    unmatched_flows: u64,
    unmatched_packets: u64,
    cache: &'a ViewCache,
}

impl<'a> AnalysisView<'a> {
    pub(crate) fn new(
        hours: u32,
        devices: &'a DeviceTable,
        protocol_packets: [[u64; 3]; 2],
        unmatched: (u64, u64),
        cache: &'a ViewCache,
    ) -> Self {
        AnalysisView {
            hours,
            devices,
            protocol_packets,
            unmatched_flows: unmatched.0,
            unmatched_packets: unmatched.1,
            cache,
        }
    }

    /// Window length in hours.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// The per-device observations (one row per correlated device).
    pub fn devices(&self) -> &'a DeviceTable {
        self.devices
    }

    /// Number of correlated (compromised) devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Packets per `[realm][transport]`, transports ordered
    /// `[ICMP, TCP, UDP]` (Fig 4).
    pub fn protocol_packets(&self) -> [[u64; 3]; 2] {
        self.protocol_packets
    }

    /// Flows from sources outside the inventory.
    pub fn unmatched_flows(&self) -> u64 {
        self.unmatched_flows
    }

    /// Packets from unmatched sources.
    pub fn unmatched_packets(&self) -> u64 {
        self.unmatched_packets
    }

    /// All correlated (compromised) devices, sorted by id.
    pub fn compromised(&self) -> &'a [DeviceId] {
        self.cache.compromised.get_or_init(|| {
            let mut v = self.devices.ids().to_vec();
            v.sort_unstable();
            v
        })
    }

    /// The compromised devices of one realm, sorted by id.
    pub fn realm_devices(&self, realm: Realm) -> &'a [DeviceId] {
        let parts = self.cache.realms.get_or_init(|| {
            let mut parts: [Vec<DeviceId>; 2] = [Vec::new(), Vec::new()];
            for obs in self.devices.rows() {
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
        let cohorts = self.cache.cohorts.get_or_init(|| {
            let mut cohorts: [Vec<DeviceId>; 5] = Default::default();
            for obs in self.devices.rows() {
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
        self.cache.scanners.get_or_init(|| {
            let mut v: Vec<DeviceId> = self
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
        *self.cache.realm_counts.get_or_init(|| {
            let consumer = self
                .devices
                .rows()
                .filter(|o| o.realm == Realm::Consumer)
                .count();
            (consumer, self.devices.len() - consumer)
        })
    }

    /// Total packets attributed to correlated devices.
    pub fn total_packets(&self) -> u64 {
        *self
            .cache
            .total_packets
            .get_or_init(|| self.devices.rows().map(|o| o.total_packets()).sum())
    }
}

impl std::fmt::Debug for AnalysisView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisView")
            .field("hours", &self.hours)
            .field("devices", &self.devices.len())
            .finish()
    }
}
