//! The IP-indexed device database.
//!
//! Correlation (§III-B) is a join between darknet source addresses and this
//! inventory, so the primary query is exact-IP lookup. Aggregation queries
//! (by realm, country, ISP, kind) back the characterization tables.

use crate::correlate::{self, CorrelationIndex};
use crate::device::{DeviceId, IotDevice};
use crate::geo::CountryCode;
use crate::isp::IspId;
use crate::taxonomy::Realm;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Lazily-built derived structures over the inventory: the correlation
/// index and the per-report aggregate counts. All are pure functions of
/// the device list, built on first use — the index already by
/// [`DeviceDb::from_devices`], whose sort it shares — and dropped
/// whenever the list changes ([`DeviceDb::push`] resets the whole
/// cache), so they never affect observable `DeviceDb` semantics. Cloning
/// a `DeviceDb` starts with a cold cache.
#[derive(Default)]
struct DbCache {
    index: OnceLock<CorrelationIndex>,
    realm_counts: OnceLock<(usize, usize)>,
    /// Indexed by realm filter slot: 0 = all, 1 = consumer, 2 = CPS.
    by_country: OnceLock<[HashMap<CountryCode, usize>; 3]>,
    by_isp: OnceLock<[HashMap<IspId, usize>; 3]>,
}

impl Clone for DbCache {
    fn clone(&self) -> Self {
        DbCache::default()
    }
}

impl std::fmt::Debug for DbCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbCache")
            .field("index", &self.index.get().is_some())
            .field("aggregates", &self.realm_counts.get().is_some())
            .finish()
    }
}

/// Slot in the cached aggregate arrays for a realm filter.
#[inline]
fn realm_slot(realm: Option<Realm>) -> usize {
    match realm {
        None => 0,
        Some(Realm::Consumer) => 1,
        Some(Realm::Cps) => 2,
    }
}

/// An immutable inventory of IoT devices with an exact-IP index.
///
/// # Example
///
/// ```
/// use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
///
/// let out = InventoryBuilder::new(SynthConfig::small(1)).build();
/// let dev = out.db.iter().next().unwrap();
/// let (index, realm) = out.db.correlate(dev.ip).unwrap();
/// assert_eq!((out.db.id_at(index as usize), realm), (dev.id, dev.realm()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceDb {
    devices: Vec<IotDevice>,
    /// The addresses in `devices`, for [`push`](Self::push) to reject a
    /// duplicate in O(1). `None` until the first `push`: a bulk build
    /// ([`from_devices`](Self::from_devices)) finds duplicates in the
    /// index's sort instead, so a loaded inventory never builds — or
    /// holds — a hash map, and a database that is pushed to pays for one
    /// pass over its devices, once. The keys can come from outside the
    /// program, so the hasher stays the keyed default.
    seen: Option<HashSet<Ipv4Addr>>,
    cache: DbCache,
}

impl DeviceDb {
    /// An empty database.
    pub fn new() -> Self {
        DeviceDb::default()
    }

    /// Build from a device list.
    ///
    /// Devices are re-assigned dense ids in input order. If two devices
    /// share an address, the **first** one wins the IP index (mirroring a
    /// first-seen Shodan snapshot) and the duplicate is dropped.
    ///
    /// One sort of the addresses both finds the duplicates and becomes
    /// the [`CorrelationIndex`], so
    /// [`correlation_index`](Self::correlation_index) is free afterwards.
    pub fn from_devices<I: IntoIterator<Item = IotDevice>>(devices: I) -> Self {
        let mut devices: Vec<IotDevice> = devices.into_iter().collect();
        let mut rows = correlate::sorted_rows(&devices);
        if rows.windows(2).any(|w| w[0].0 == w[1].0) {
            drop_later_duplicates(&mut devices, &mut rows);
        }
        for (i, d) in devices.iter_mut().enumerate() {
            d.id = DeviceId(i as u32);
        }
        let index = CorrelationIndex::from_sorted_rows(rows, &devices);
        DeviceDb {
            devices,
            seen: None,
            cache: DbCache {
                index: index.into(),
                ..DbCache::default()
            },
        }
    }

    /// Append a device, re-assigning its id; returns the id, or `None` if
    /// the address is already taken.
    pub fn push(&mut self, mut device: IotDevice) -> Option<DeviceId> {
        let seen = self
            .seen
            .get_or_insert_with(|| self.devices.iter().map(|d| d.ip).collect());
        if !seen.insert(device.ip) {
            return None;
        }
        let id = DeviceId(self.devices.len() as u32);
        device.id = id;
        self.devices.push(device);
        self.cache = DbCache::default();
        Some(id)
    }

    /// All devices in dense id order.
    pub fn as_slice(&self) -> &[IotDevice] {
        &self.devices
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this database.
    pub fn device(&self, id: DeviceId) -> &IotDevice {
        &self.devices[id.0 as usize]
    }

    /// The dense intern index of `id`.
    ///
    /// Ids issued by [`push`](Self::push) are dense: the n-th accepted
    /// device gets `DeviceId(n)`, so ids double as array indices. The
    /// columnar analysis structures (`DeviceTable`, the fold's scratch)
    /// rely on this contract; `index_of`/[`id_at`](Self::id_at) make it
    /// explicit at call sites instead of scattering `id.0 as usize` casts.
    #[inline]
    pub fn index_of(&self, id: DeviceId) -> usize {
        debug_assert!(
            (id.0 as usize) < self.devices.len(),
            "id {} not issued by this database",
            id.0
        );
        id.0 as usize
    }

    /// The id at dense intern index `index` — the inverse of
    /// [`index_of`](Self::index_of).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn id_at(&self, index: usize) -> DeviceId {
        assert!(index < self.devices.len(), "index {index} out of range");
        DeviceId(index as u32)
    }

    /// The two-level correlation index over this inventory: built with
    /// the database by [`from_devices`](Self::from_devices), otherwise on
    /// first use, and reused until the next [`push`](Self::push).
    pub fn correlation_index(&self) -> &CorrelationIndex {
        self.cache
            .index
            .get_or_init(|| CorrelationIndex::build(&self.devices))
    }

    /// Resolve `ip` to `(dense intern index, realm)` — the correlation
    /// hot path. See [`CorrelationIndex::correlate`].
    #[inline]
    pub fn correlate(&self, ip: Ipv4Addr) -> Option<(u32, Realm)> {
        self.correlation_index().correlate(ip)
    }

    /// Iterate over all devices in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, IotDevice> {
        self.devices.iter()
    }

    /// Count devices per realm as `(consumer, cps)`; cached after the
    /// first call.
    pub fn realm_counts(&self) -> (usize, usize) {
        *self.cache.realm_counts.get_or_init(|| {
            let consumer = self
                .devices
                .iter()
                .filter(|d| d.realm() == Realm::Consumer)
                .count();
            (consumer, self.devices.len() - consumer)
        })
    }

    /// Count devices per country, optionally restricted to one realm.
    ///
    /// All three filter variants are materialized in one inventory pass
    /// on first use and served as cached views afterwards — these back
    /// the characterization tables and used to re-scan per report.
    pub fn count_by_country(&self, realm: Option<Realm>) -> &HashMap<CountryCode, usize> {
        let maps = self.cache.by_country.get_or_init(|| {
            count_by(&self.devices, CountryCode::count(), |d| {
                (d.country, d.country.index())
            })
        });
        &maps[realm_slot(realm)]
    }

    /// Count devices per ISP, optionally restricted to one realm; cached
    /// like [`count_by_country`](Self::count_by_country). ISP ids are
    /// dense in a loaded or generated inventory, so there are at most as
    /// many as devices.
    pub fn count_by_isp(&self, realm: Option<Realm>) -> &HashMap<IspId, usize> {
        let maps = self.cache.by_isp.get_or_init(|| {
            count_by(&self.devices, self.devices.len(), |d| {
                (d.isp, d.isp.0 as usize)
            })
        });
        &maps[realm_slot(realm)]
    }
}

/// Count `devices` per key under each realm filter (`[realm_slot]`)
/// without hashing per device. `key` gives a device's key and that key's
/// index; counts go into an array over the indices, grown as they are
/// met but never past `dense_limit` entries, and the maps are filled
/// from it at the end. A key whose index is at or beyond the limit is
/// counted in the maps directly, so memory stays bounded whatever the
/// ids are.
fn count_by<K: Copy + Eq + std::hash::Hash>(
    devices: &[IotDevice],
    dense_limit: usize,
    key: impl Fn(&IotDevice) -> (K, usize),
) -> [HashMap<K, usize>; 3] {
    let mut dense: Vec<Option<(K, [usize; 3])>> = Vec::new();
    let mut maps: [HashMap<K, usize>; 3] = Default::default();
    for d in devices {
        let slot = realm_slot(Some(d.realm()));
        let (key, index) = key(d);
        if index >= dense.len() && index < dense_limit {
            dense.resize(index + 1, None);
        }
        match dense.get_mut(index) {
            Some(entry) => {
                let (_, row) = entry.get_or_insert((key, [0; 3]));
                row[0] += 1;
                row[slot] += 1;
            }
            None => {
                *maps[0].entry(key).or_insert(0) += 1;
                *maps[slot].entry(key).or_insert(0) += 1;
            }
        }
    }
    for (key, row) in dense.into_iter().flatten() {
        for (map, n) in maps.iter_mut().zip(row) {
            if n > 0 {
                map.insert(key, n);
            }
        }
    }
    maps
}

/// Drop every device whose address an earlier one already holds, given
/// the [`correlate::sorted_rows`] of `devices`; the rows lose the same
/// entries and are renumbered to the surviving devices' positions.
fn drop_later_duplicates(devices: &mut Vec<IotDevice>, rows: &mut Vec<(u32, u32)>) {
    let mut dropped = vec![false; devices.len()];
    for w in rows.windows(2) {
        if w[0].0 == w[1].0 {
            dropped[w[1].1 as usize] = true;
        }
    }
    let mut kept = 0u32;
    let new_position: Vec<u32> = dropped
        .iter()
        .map(|&d| {
            let position = kept;
            kept += u32::from(!d);
            position
        })
        .collect();
    rows.retain_mut(|(_, position)| {
        let keep = !dropped[*position as usize];
        *position = new_position[*position as usize];
        keep
    });
    let mut dropped = dropped.into_iter();
    devices.retain(|_| !dropped.next().expect("one flag per device"));
}

impl DeviceDb {
    /// Start a fluent query over the inventory.
    ///
    /// # Example
    ///
    /// ```
    /// use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
    /// use iotscope_devicedb::{ConsumerKind, Realm};
    ///
    /// let out = InventoryBuilder::new(SynthConfig::small(1)).build();
    /// let routers = out.db.query().kind(ConsumerKind::Router).count();
    /// let consumer = out.db.query().realm(Realm::Consumer).count();
    /// assert!(routers <= consumer);
    /// ```
    pub fn query(&self) -> DeviceQuery<'_> {
        DeviceQuery {
            db: self,
            realm: None,
            country: None,
            kind: None,
            service: None,
            isp: None,
        }
    }
}

/// A fluent inventory filter produced by [`DeviceDb::query`]. All set
/// criteria must match (conjunction).
#[derive(Debug, Clone, Copy)]
pub struct DeviceQuery<'a> {
    db: &'a DeviceDb,
    realm: Option<Realm>,
    country: Option<CountryCode>,
    kind: Option<crate::taxonomy::ConsumerKind>,
    service: Option<crate::taxonomy::CpsService>,
    isp: Option<IspId>,
}

impl<'a> DeviceQuery<'a> {
    /// Restrict to one realm.
    pub fn realm(mut self, realm: Realm) -> Self {
        self.realm = Some(realm);
        self
    }

    /// Restrict to one country.
    pub fn country(mut self, country: CountryCode) -> Self {
        self.country = Some(country);
        self
    }

    /// Restrict to one consumer kind (implies the consumer realm).
    pub fn kind(mut self, kind: crate::taxonomy::ConsumerKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restrict to devices exposing one CPS service (implies CPS).
    pub fn service(mut self, service: crate::taxonomy::CpsService) -> Self {
        self.service = Some(service);
        self
    }

    /// Restrict to one ISP.
    pub fn isp(mut self, isp: IspId) -> Self {
        self.isp = Some(isp);
        self
    }

    /// Iterate over the matching devices in id order.
    pub fn iter(self) -> impl Iterator<Item = &'a IotDevice> {
        self.db.iter().filter(move |d| self.matches(d))
    }

    /// Count the matching devices.
    pub fn count(self) -> usize {
        self.iter().count()
    }

    fn matches(&self, d: &IotDevice) -> bool {
        if let Some(r) = self.realm {
            if d.realm() != r {
                return false;
            }
        }
        if let Some(c) = self.country {
            if d.country != c {
                return false;
            }
        }
        if let Some(k) = self.kind {
            if d.profile.consumer_kind() != Some(k) {
                return false;
            }
        }
        if let Some(s) = self.service {
            if !d
                .profile
                .cps_services()
                .is_some_and(|list| list.contains(&s))
            {
                return false;
            }
        }
        if let Some(i) = self.isp {
            if d.isp != i {
                return false;
            }
        }
        true
    }
}

impl FromIterator<IotDevice> for DeviceDb {
    fn from_iter<I: IntoIterator<Item = IotDevice>>(iter: I) -> Self {
        DeviceDb::from_devices(iter)
    }
}

impl Extend<IotDevice> for DeviceDb {
    fn extend<I: IntoIterator<Item = IotDevice>>(&mut self, iter: I) {
        for d in iter {
            self.push(d);
        }
    }
}

impl<'a> IntoIterator for &'a DeviceDb {
    type Item = &'a IotDevice;
    type IntoIter = std::slice::Iter<'a, IotDevice>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::taxonomy::ConsumerKind;
    use proptest::prelude::*;

    fn dev(ip: [u8; 4], code: &str, realm: Realm) -> IotDevice {
        IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(ip),
            profile: match realm {
                Realm::Consumer => DeviceProfile::Consumer(ConsumerKind::Router),
                Realm::Cps => DeviceProfile::Cps(vec![crate::taxonomy::CpsService::ModbusTcp]),
            },
            country: CountryCode::from_code(code).unwrap(),
            isp: IspId(0),
        }
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut db = DeviceDb::new();
        let a = db.push(dev([1, 1, 1, 1], "US", Realm::Consumer)).unwrap();
        let b = db.push(dev([1, 1, 1, 2], "RU", Realm::Cps)).unwrap();
        assert_eq!(a, DeviceId(0));
        assert_eq!(b, DeviceId(1));
        assert_eq!(db.device(b).country.code(), "RU");
    }

    #[test]
    fn intern_index_round_trips() {
        let db = DeviceDb::from_devices([
            dev([1, 1, 1, 1], "US", Realm::Consumer),
            dev([1, 1, 1, 2], "RU", Realm::Cps),
        ]);
        for (i, d) in db.iter().enumerate() {
            assert_eq!(db.index_of(d.id), i);
            assert_eq!(db.id_at(i), d.id);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_at_out_of_range_panics() {
        let db = DeviceDb::from_devices([dev([1, 1, 1, 1], "US", Realm::Consumer)]);
        let _ = db.id_at(1);
    }

    #[test]
    fn duplicate_ip_is_rejected_first_wins() {
        let mut db = DeviceDb::new();
        db.push(dev([9, 9, 9, 9], "US", Realm::Consumer)).unwrap();
        assert_eq!(db.push(dev([9, 9, 9, 9], "RU", Realm::Cps)), None);
        assert_eq!(db.len(), 1);
        let (index, _) = db.correlate(Ipv4Addr::new(9, 9, 9, 9)).unwrap();
        assert_eq!(db.as_slice()[index as usize].country.code(), "US");
    }

    #[test]
    fn lookup_miss_returns_none() {
        let db = DeviceDb::from_devices([dev([1, 2, 3, 4], "US", Realm::Consumer)]);
        assert!(db.correlate(Ipv4Addr::new(4, 3, 2, 1)).is_none());
    }

    #[test]
    fn realm_counts_split() {
        let db = DeviceDb::from_devices([
            dev([1, 0, 0, 1], "US", Realm::Consumer),
            dev([1, 0, 0, 2], "US", Realm::Consumer),
            dev([1, 0, 0, 3], "CN", Realm::Cps),
        ]);
        assert_eq!(db.realm_counts(), (2, 1));
    }

    #[test]
    fn count_by_country_with_realm_filter() {
        let db = DeviceDb::from_devices([
            dev([1, 0, 0, 1], "US", Realm::Consumer),
            dev([1, 0, 0, 2], "RU", Realm::Cps),
            dev([1, 0, 0, 3], "RU", Realm::Consumer),
        ]);
        let all = db.count_by_country(None);
        assert_eq!(all[&CountryCode::from_code("RU").unwrap()], 2);
        let cps = db.count_by_country(Some(Realm::Cps));
        assert_eq!(cps[&CountryCode::from_code("RU").unwrap()], 1);
        assert!(!cps.contains_key(&CountryCode::from_code("US").unwrap()));
    }

    #[test]
    fn collect_and_extend() {
        let mut db: DeviceDb = vec![dev([1, 0, 0, 1], "US", Realm::Consumer)]
            .into_iter()
            .collect();
        db.extend([dev([1, 0, 0, 2], "CN", Realm::Cps)]);
        assert_eq!(db.len(), 2);
        assert_eq!((&db).into_iter().count(), 2);
    }

    #[test]
    fn query_builder_filters_conjunctively() {
        use crate::taxonomy::{ConsumerKind, CpsService};
        let db = DeviceDb::from_devices([
            dev([1, 0, 0, 1], "US", Realm::Consumer),
            dev([1, 0, 0, 2], "RU", Realm::Consumer),
            dev([1, 0, 0, 3], "RU", Realm::Cps),
        ]);
        assert_eq!(db.query().count(), 3);
        assert_eq!(db.query().realm(Realm::Consumer).count(), 2);
        assert_eq!(
            db.query()
                .realm(Realm::Consumer)
                .country(CountryCode::from_code("RU").unwrap())
                .count(),
            1
        );
        assert_eq!(db.query().kind(ConsumerKind::Router).count(), 2);
        assert_eq!(db.query().kind(ConsumerKind::Printer).count(), 0);
        assert_eq!(db.query().service(CpsService::ModbusTcp).count(), 1);
        assert_eq!(db.query().service(CpsService::Dnp3).count(), 0);
        assert_eq!(db.query().isp(IspId(0)).count(), 3);
        assert_eq!(db.query().isp(IspId(9)).count(), 0);
        // Iteration yields actual devices.
        let ru_consumer: Vec<_> = db
            .query()
            .realm(Realm::Consumer)
            .country(CountryCode::from_code("RU").unwrap())
            .iter()
            .collect();
        assert_eq!(ru_consumer.len(), 1);
        assert_eq!(ru_consumer[0].ip, Ipv4Addr::new(1, 0, 0, 2));
    }

    #[test]
    fn empty_db_behaves() {
        let db = DeviceDb::new();
        assert!(db.is_empty());
        assert_eq!(db.realm_counts(), (0, 0));
        assert!(db.count_by_country(None).is_empty());
        assert!(db.count_by_isp(None).is_empty());
        assert!(db.correlate(Ipv4Addr::new(1, 2, 3, 4)).is_none());
    }

    #[test]
    fn push_invalidates_cached_views() {
        let mut db = DeviceDb::new();
        db.push(dev([1, 0, 0, 1], "US", Realm::Consumer)).unwrap();
        // Warm every cache, then mutate.
        assert_eq!(db.realm_counts(), (1, 0));
        assert_eq!(db.count_by_country(None).len(), 1);
        assert_eq!(db.count_by_isp(Some(Realm::Cps)).len(), 0);
        assert!(db.correlate(Ipv4Addr::new(1, 0, 0, 1)).is_some());
        db.push(dev([1, 0, 0, 2], "RU", Realm::Cps)).unwrap();
        assert_eq!(db.realm_counts(), (1, 1));
        assert_eq!(db.count_by_country(None).len(), 2);
        assert_eq!(db.count_by_isp(Some(Realm::Cps)).len(), 1);
        assert_eq!(
            db.correlate(Ipv4Addr::new(1, 0, 0, 2)),
            Some((1, Realm::Cps))
        );
    }

    #[test]
    fn push_after_a_bulk_build_rejects_a_present_address_and_accepts_a_new_one() {
        // `from_devices` builds no address set; the first `push` does,
        // from the devices already there.
        let mut db = DeviceDb::from_devices([
            dev([1, 0, 0, 1], "US", Realm::Consumer),
            dev([1, 0, 0, 2], "RU", Realm::Cps),
            dev([1, 0, 0, 1], "CN", Realm::Cps),
        ]);
        assert_eq!(db.len(), 2);
        assert!(db.seen.is_none());
        assert_eq!(db.push(dev([1, 0, 0, 2], "CN", Realm::Consumer)), None);
        assert_eq!(db.seen.as_ref().map(HashSet::len), Some(2));
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.correlate(Ipv4Addr::new(1, 0, 0, 2)),
            Some((1, Realm::Cps))
        );
        assert_eq!(
            db.push(dev([1, 0, 0, 3], "CN", Realm::Consumer)),
            Some(DeviceId(2))
        );
        assert_eq!(db.push(dev([1, 0, 0, 3], "CN", Realm::Consumer)), None);
        // The index the bulk build left behind does not outlive a push.
        assert_eq!(
            db.correlate(Ipv4Addr::new(1, 0, 0, 3)),
            Some((2, Realm::Consumer))
        );
        assert_eq!(db.device(DeviceId(2)).country.code(), "CN");
    }

    /// Devices over a handful of addresses, countries and ISP ids — some
    /// of the ids far past the device count — so that lists repeat
    /// addresses and every counting path is met.
    fn device_list() -> impl Strategy<Value = Vec<IotDevice>> {
        let isp = prop_oneof![0u32..6, 20u32..24, Just(u32::MAX)];
        proptest::collection::vec((0u32..40, 0usize..5, isp, any::<bool>()), 0..60).prop_map(
            |rows| {
                rows.into_iter()
                    .map(|(ip, country, isp, cps)| IotDevice {
                        isp: IspId(isp),
                        ..dev(
                            (0x0a00_ff00 + ip * 0x101).to_be_bytes(),
                            ["US", "RU", "CN", "PR", "GB"][country],
                            if cps { Realm::Cps } else { Realm::Consumer },
                        )
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bulk build is the push loop: the same devices under the
        /// same ids, the first of each address kept, and an index —
        /// made from the sort that found the duplicates — equal to the
        /// one built from the finished slice.
        #[test]
        fn prop_from_devices_is_the_push_loop(list in device_list()) {
            let bulk = DeviceDb::from_devices(list.clone());
            let mut pushed = DeviceDb::new();
            let mut accepted = 0;
            for d in list.clone() {
                let taken = pushed.as_slice().iter().any(|p| p.ip == d.ip);
                let id = pushed.push(d);
                prop_assert_eq!(id, (!taken).then_some(DeviceId(accepted)));
                accepted += u32::from(!taken);
            }
            prop_assert_eq!(bulk.as_slice(), pushed.as_slice());
            prop_assert!(bulk.cache.index.get().is_some(), "index not built with the db");
            prop_assert_eq!(
                bulk.correlation_index(),
                &CorrelationIndex::build(bulk.as_slice())
            );
            prop_assert_eq!(bulk.correlation_index(), pushed.correlation_index());
            // Every address a list can hold, and the ones either side.
            for probe in (0..40).flat_map(|ip| (0x0a00_feffu32 + ip * 0x101..).take(3)) {
                let ip = Ipv4Addr::from(probe);
                let first = list.iter().find(|d| d.ip == ip);
                prop_assert_eq!(
                    bulk.correlate(ip).map(|(i, realm)| (&bulk.as_slice()[i as usize].country, realm)),
                    first.map(|d| (&d.country, d.realm()))
                );
            }
        }

        /// The cached per-country and per-ISP counts are what counting
        /// the matching devices one key at a time gives, for each of the
        /// three realm filters.
        #[test]
        fn prop_counts_match_a_brute_force_count(list in device_list()) {
            let db = DeviceDb::from_devices(list);
            for realm in [None, Some(Realm::Consumer), Some(Realm::Cps)] {
                let matching = || db.iter().filter(|d| realm.is_none_or(|r| d.realm() == r));
                let by_country: HashMap<CountryCode, usize> = matching()
                    .map(|d| (d.country, matching().filter(|o| o.country == d.country).count()))
                    .collect();
                prop_assert_eq!(db.count_by_country(realm), &by_country);
                let by_isp: HashMap<IspId, usize> = matching()
                    .map(|d| (d.isp, matching().filter(|o| o.isp == d.isp).count()))
                    .collect();
                prop_assert_eq!(db.count_by_isp(realm), &by_isp);
            }
        }
    }

    #[test]
    fn clone_starts_cold_but_answers_identically() {
        let db = DeviceDb::from_devices([
            dev([1, 0, 0, 1], "US", Realm::Consumer),
            dev([1, 0, 0, 2], "RU", Realm::Cps),
        ]);
        db.realm_counts(); // warm the original
        let cloned = db.clone();
        assert_eq!(cloned.realm_counts(), db.realm_counts());
        assert_eq!(cloned.count_by_country(None), db.count_by_country(None));
        assert_eq!(
            cloned.correlate(Ipv4Addr::new(1, 0, 0, 2)),
            db.correlate(Ipv4Addr::new(1, 0, 0, 2))
        );
    }
}
