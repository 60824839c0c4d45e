//! The /16 address index behind both IP-keyed joins.
//!
//! The paper's pipeline joins addresses twice: darknet sources against
//! the ~331k-device inventory (§III-B), then inferred devices against
//! the threat repository and malware database (§V). Both are exact-IP
//! lookups into a static set, and both go through one structure,
//! [`AddrIndex`], generic over what a hit returns:
//!
//! * **Level 1**: 65,536 `/16` buckets, stored as 65,537 prefix-sum
//!   offsets (`bucket_starts`) into the slot array. Indexing it is one
//!   shift and one array load; the whole level is 256 KiB and mostly
//!   cache-resident under real traffic (darknet sources cluster heavily
//!   by prefix).
//! * **Level 2**: one slot per address — the low 16 bits of the address
//!   (sorted within its bucket) next to the payload. A bucket binary
//!   search touches at most a few cache lines even for a fully dense
//!   `/16`, and the payload rides in the slot the search already
//!   loaded, so resolving a hit costs no further memory access.
//!
//! [`CorrelationIndex`] is the inventory join: its payload packs the
//! dense intern index (== `DeviceId` value, see
//! [`DeviceDb::index_of`](crate::db::DeviceDb::index_of)) and the realm
//! into 32 bits, so a slot is 8 bytes and ingest never touches an
//! [`IotDevice`]. The intel crate's `IntelIndex` is the §V join over
//! the same type. Total size is one slot per address plus the fixed
//! 256 KiB bucket table, versus ~50 bytes per `HashMap` entry plus a
//! pointer chase.

use crate::device::IotDevice;
use crate::taxonomy::Realm;
use std::net::Ipv4Addr;

/// Number of `/16` buckets.
const BUCKETS: usize = 1 << 16;

/// One indexed address: the low 16 bits of the address (the bucket
/// sort key) and what a hit on it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot<P> {
    suffix: u16,
    payload: P,
}

/// A /16-bucketed two-level exact-IP index over a static address set,
/// resolving an address to the payload `P` stored with it.
///
/// Built once from addresses in ascending order and immutable
/// afterwards.
///
/// # Example
///
/// ```
/// use iotscope_devicedb::AddrIndex;
/// use std::net::Ipv4Addr;
///
/// let index = AddrIndex::from_sorted([(0x0a00_0001, 'a'), (0x0a00_0102, 'b')]);
/// assert_eq!(index.get(Ipv4Addr::new(10, 0, 1, 2)), Some('b'));
/// assert_eq!(index.get(Ipv4Addr::new(10, 0, 0, 2)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrIndex<P> {
    /// `bucket_starts[b]..bucket_starts[b+1]` is the slot range of
    /// /16 bucket `b` (65,537 prefix-sum entries).
    bucket_starts: Box<[u32]>,
    /// One entry per indexed address, suffix-sorted within each bucket.
    slots: Box<[Slot<P>]>,
}

impl<P: Copy> AddrIndex<P> {
    /// Build the index over `(address, payload)` pairs given in
    /// strictly ascending address order (a full-address sort leaves
    /// every bucket's suffixes sorted as well).
    pub fn from_sorted(entries: impl IntoIterator<Item = (u32, P)>) -> Self {
        let mut bucket_starts = vec![0u32; BUCKETS + 1];
        let mut last: Option<u32> = None;
        // Out of a `Vec` of rows as large as a slot (the inventory's
        // `(address, position)` pairs) this collects in place.
        let slots: Vec<Slot<P>> = entries
            .into_iter()
            .map(|(ip, payload)| {
                debug_assert!(last < Some(ip), "addresses must be strictly ascending");
                last = Some(ip);
                bucket_starts[(ip >> 16) as usize + 1] += 1;
                Slot {
                    suffix: ip as u16,
                    payload,
                }
            })
            .collect();
        for b in 0..BUCKETS {
            bucket_starts[b + 1] += bucket_starts[b];
        }
        AddrIndex {
            bucket_starts: bucket_starts.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of indexed addresses.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no address is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.bucket_starts) + std::mem::size_of_val(&*self.slots)
    }

    /// The payload stored with `ip`, if indexed: a bucket slice and a
    /// binary search.
    #[inline]
    pub fn get(&self, ip: Ipv4Addr) -> Option<P> {
        let ip = u32::from(ip);
        let bucket = (ip >> 16) as usize;
        let lo = self.bucket_starts[bucket] as usize;
        let hi = self.bucket_starts[bucket + 1] as usize;
        let run = &self.slots[lo..hi];
        let i = run.binary_search_by_key(&(ip as u16), |s| s.suffix).ok()?;
        Some(run[i].payload)
    }

    /// Resolve a whole block of addresses (big-endian `u32` form) in one
    /// streaming merge-join pass, handing `emit` one result per input in
    /// order, element-for-element identical to [`get`](Self::get) on
    /// each address.
    ///
    /// Written for the v3 store's decoded `src_ip` column, which is
    /// **ascending within a block** in delta-encoded files: ascending
    /// inputs visit /16 buckets monotonically, so the bucket bounds are
    /// recomputed only when the prefix changes (once per distinct /16
    /// per block, not once per record), and within a bucket the slot
    /// cursor only moves forward — a gallop (exponential probe + binary
    /// search) bounded by the distance actually advanced, instead of a
    /// full `log₂(bucket)` search per record. Runs of equal addresses
    /// (the common case: one scanner emits many flows, and the sort
    /// groups them) resolve by reusing the previous answer outright.
    ///
    /// Unsorted input stays **correct** — a descending step simply
    /// resets the bucket state and restarts the gallop from the bucket
    /// start — it just loses the monotonicity savings.
    #[inline]
    pub fn join_sorted(&self, ips: &[u32], mut emit: impl FnMut(Option<P>)) {
        let mut prev: Option<(u32, Option<P>)> = None;
        // Current bucket's slot window: `cursor` never moves backwards
        // while the input ascends within the bucket.
        let mut bucket = usize::MAX;
        let mut cursor = 0usize;
        let mut hi = 0usize;
        for &ip in ips {
            if let Some((prev_ip, prev_hit)) = prev {
                if ip == prev_ip {
                    emit(prev_hit);
                    continue;
                }
                if ip < prev_ip {
                    // Non-ascending input (non-delta file): restart the
                    // gallop; correctness over speed.
                    bucket = usize::MAX;
                }
            }
            let b = (ip >> 16) as usize;
            if b != bucket {
                bucket = b;
                cursor = self.bucket_starts[b] as usize;
                hi = self.bucket_starts[b + 1] as usize;
            }
            let suffix = ip as u16;
            cursor += gallop_lower_bound(&self.slots[cursor..hi], suffix);
            let hit = (cursor < hi && self.slots[cursor].suffix == suffix)
                .then(|| self.slots[cursor].payload);
            prev = Some((ip, hit));
            emit(hit);
        }
    }
}

/// Index of the first slot whose suffix is `>= suffix` (`slots.len()`
/// when none is): an exponential probe followed by a binary search over
/// the probed window, so the cost is `O(log d)` in the distance `d`
/// from the front — the gallop step of the sorted-block merge-join,
/// where `d` is how far this record's suffix sits past the previous
/// record's slot.
#[inline]
fn gallop_lower_bound<P>(slots: &[Slot<P>], suffix: u16) -> usize {
    let n = slots.len();
    if n == 0 || slots[0].suffix >= suffix {
        return 0;
    }
    // Invariant: slots[lo].suffix < suffix.
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < n && slots[lo + step].suffix < suffix {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(n);
    // The answer is in (lo, hi]: binary-search the remainder.
    lo + 1 + slots[lo + 1..hi].partition_point(|s| s.suffix < suffix)
}

/// A correlation hit packed into 32 bits: the dense intern index in the
/// low 31, the realm in the top bit — so a correlation slot is 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeviceRef(u32);

/// The [`DeviceRef`] bit set for CPS devices.
const CPS_BIT: u32 = 1 << 31;

impl DeviceRef {
    /// # Panics
    ///
    /// Panics if `dense` needs the top bit (2^31 devices or more).
    fn new(dense: u32, realm: Realm) -> Self {
        assert!(dense < CPS_BIT, "dense index {dense} past 2^31");
        DeviceRef(match realm {
            Realm::Consumer => dense,
            Realm::Cps => dense | CPS_BIT,
        })
    }

    #[inline]
    fn get(self) -> (u32, Realm) {
        let realm = if self.0 & CPS_BIT == 0 {
            Realm::Consumer
        } else {
            Realm::Cps
        };
        (self.0 & !CPS_BIT, realm)
    }
}

/// The inventory's [`AddrIndex`], resolving an address directly to
/// `(dense intern index, Realm)`.
///
/// Built once per inventory (see
/// [`DeviceDb::correlation_index`](crate::db::DeviceDb::correlation_index))
/// and immutable afterwards. Addresses are assumed unique — which
/// [`DeviceDb::push`](crate::db::DeviceDb::push) guarantees by rejecting
/// duplicates; if a raw device slice contains duplicate addresses, the
/// one sorting first wins.
///
/// # Example
///
/// ```
/// use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
///
/// let out = InventoryBuilder::new(SynthConfig::small(1)).build();
/// let dev = out.db.iter().next().unwrap();
/// let (dense, realm) = out.db.correlate(dev.ip).unwrap();
/// assert_eq!(out.db.id_at(dense as usize), dev.id);
/// assert_eq!(realm, dev.realm());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationIndex(AddrIndex<DeviceRef>);

/// The `(address, position)` pair of every device, sorted — by address
/// and, among devices sharing one, by position, so the first of them in
/// slice order sorts first.
pub(crate) fn sorted_rows(devices: &[IotDevice]) -> Vec<(u32, u32)> {
    let mut rows: Vec<(u32, u32)> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (u32::from(d.ip), i as u32))
        .collect();
    rows.sort_unstable();
    rows
}

impl CorrelationIndex {
    /// Build the index over `devices`, where position in the slice is
    /// the dense intern index (the [`DeviceDb`](crate::db::DeviceDb)
    /// id contract).
    pub fn build(devices: &[IotDevice]) -> Self {
        let mut rows = sorted_rows(devices);
        rows.dedup_by_key(|&mut (ip, _)| ip);
        Self::from_sorted_rows(rows, devices)
    }

    /// Build the index from [`sorted_rows`] of `devices` with every
    /// address already unique — the half of [`build`](Self::build)
    /// after the sort, for a caller that needed the sorted rows itself
    /// ([`DeviceDb::from_devices`](crate::db::DeviceDb::from_devices)
    /// finds duplicate addresses in them).
    pub(crate) fn from_sorted_rows(rows: Vec<(u32, u32)>, devices: &[IotDevice]) -> Self {
        CorrelationIndex(AddrIndex::from_sorted(
            rows.into_iter()
                .map(|(ip, di)| (ip, DeviceRef::new(di, devices[di as usize].realm()))),
        ))
    }

    /// Number of indexed addresses.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Resolve `ip` to `(dense intern index, realm)` — the correlation
    /// hot path.
    #[inline]
    pub fn correlate(&self, ip: Ipv4Addr) -> Option<(u32, Realm)> {
        self.0.get(ip).map(DeviceRef::get)
    }

    /// Resolve a whole block of source addresses (big-endian `u32`
    /// form) through [`AddrIndex::join_sorted`], appending one result
    /// per input to `out` (cleared first), element-for-element
    /// identical to calling [`correlate`](Self::correlate) on each
    /// address.
    pub fn correlate_sorted_block(&self, ips: &[u32], out: &mut Vec<Option<(u32, Realm)>>) {
        out.clear();
        out.reserve(ips.len());
        self.0
            .join_sorted(ips, |hit| out.push(hit.map(DeviceRef::get)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DeviceDb;
    use crate::device::{DeviceId, DeviceProfile};
    use crate::geo::CountryCode;
    use crate::isp::IspId;
    use crate::taxonomy::{ConsumerKind, CpsService};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn dev(ip: u32, realm: Realm) -> IotDevice {
        IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(ip),
            profile: match realm {
                Realm::Consumer => DeviceProfile::Consumer(ConsumerKind::Router),
                Realm::Cps => DeviceProfile::Cps(vec![CpsService::ModbusTcp]),
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }
    }

    /// Reference model: the pre-index `HashMap<Ipv4Addr, DeviceId>`.
    fn reference(db: &DeviceDb) -> HashMap<Ipv4Addr, (u32, Realm)> {
        db.iter().map(|d| (d.ip, (d.id.0, d.realm()))).collect()
    }

    #[test]
    fn empty_index_misses_everything() {
        let idx = CorrelationIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(idx.correlate(Ipv4Addr::new(1, 2, 3, 4)).is_none());
        assert!(idx.correlate(Ipv4Addr::new(0, 0, 0, 0)).is_none());
        assert!(idx.correlate(Ipv4Addr::new(255, 255, 255, 255)).is_none());
    }

    #[test]
    fn singleton_and_dense_buckets_resolve() {
        // Bucket 0x0101 is a singleton; bucket 0x0a0a is fully dense
        // over 512 consecutive suffixes; everything else is empty.
        let mut devices = vec![dev(0x0101_0001, Realm::Consumer)];
        for s in 0..512u32 {
            devices.push(dev(
                0x0a0a_0000 + s,
                if s % 3 == 0 {
                    Realm::Cps
                } else {
                    Realm::Consumer
                },
            ));
        }
        let db = DeviceDb::from_devices(devices);
        let idx = CorrelationIndex::build(db.as_slice());
        for d in db.iter() {
            assert_eq!(idx.correlate(d.ip), Some((d.id.0, d.realm())), "{}", d.ip);
        }
        // Misses: same bucket wrong suffix, neighbouring empty buckets.
        assert!(idx.correlate(Ipv4Addr::from(0x0101_0002u32)).is_none());
        assert!(idx.correlate(Ipv4Addr::from(0x0a0a_0200u32)).is_none());
        assert!(idx.correlate(Ipv4Addr::from(0x0a0b_0000u32)).is_none());
        assert!(idx.correlate(Ipv4Addr::from(0x0a09_ffffu32)).is_none());
    }

    #[test]
    fn bucket_edge_suffixes_resolve() {
        // Suffixes 0x0000 and 0xffff are the binary-search extremes.
        let db = DeviceDb::from_devices([
            dev(0x7f00_0000, Realm::Consumer),
            dev(0x7f00_ffff, Realm::Cps),
        ]);
        let idx = CorrelationIndex::build(db.as_slice());
        assert_eq!(
            idx.correlate(Ipv4Addr::from(0x7f00_0000u32)),
            Some((0, Realm::Consumer))
        );
        assert_eq!(
            idx.correlate(Ipv4Addr::from(0x7f00_ffffu32)),
            Some((1, Realm::Cps))
        );
        assert!(idx.correlate(Ipv4Addr::from(0x7f00_8000u32)).is_none());
    }

    /// The per-flow hot path loads one 8-byte slot per probe.
    #[test]
    fn correlation_slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Slot<DeviceRef>>(), 8);
    }

    /// Addresses engineered to cover empty, singleton, and dense /16
    /// buckets: a handful of fixed prefixes (so collisions into shared
    /// buckets are common) crossed with arbitrary suffixes, plus fully
    /// arbitrary addresses for bucket diversity.
    fn addr_strategy() -> impl Strategy<Value = u32> {
        prop_oneof![
            // Dense shared buckets.
            (0u32..3, any::<u16>()).prop_map(|(p, s)| ((0x0a0a + p) << 16) | u32::from(s)),
            // Nearly-singleton buckets.
            (0u32..64, 0u16..4).prop_map(|(p, s)| ((0xc0a8 + p) << 16) | u32::from(s)),
            // Anywhere.
            any::<u32>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every inventory address resolves to the same device the old
        /// HashMap found; every non-inventory address misses.
        #[test]
        fn prop_index_matches_hashmap(
            addrs in proptest::collection::vec(addr_strategy(), 0..400),
            probes in proptest::collection::vec(any::<u32>(), 0..64),
        ) {
            let db: DeviceDb = addrs
                .iter()
                .enumerate()
                .map(|(i, &ip)| dev(ip, if i % 2 == 0 { Realm::Consumer } else { Realm::Cps }))
                .collect();
            let model = reference(&db);
            let idx = CorrelationIndex::build(db.as_slice());
            prop_assert_eq!(idx.len(), db.len());

            // Hits: every device, via both the raw index and the db API.
            for d in db.iter() {
                let want = Some(model[&d.ip]);
                prop_assert_eq!(idx.correlate(d.ip), want);
                prop_assert_eq!(db.correlate(d.ip), want);
                prop_assert_eq!(db.correlate(d.ip).map(|(i, _)| db.id_at(i as usize)), Some(d.id));
            }
            // Probes: agree with the model in both directions.
            for &p in &probes {
                let ip = Ipv4Addr::from(p);
                prop_assert_eq!(idx.correlate(ip), model.get(&ip).copied());
            }
            // Near-misses around every member (same bucket, suffix ±1).
            for d in db.iter() {
                for delta in [1u32, u32::MAX] {
                    let near = Ipv4Addr::from(u32::from(d.ip).wrapping_add(delta));
                    prop_assert_eq!(idx.correlate(near), model.get(&near).copied());
                }
            }
        }

        /// The sorted-block merge-join is element-for-element identical
        /// to per-record `correlate`, on ascending blocks (the
        /// delta-store invariant), on unsorted blocks (the non-delta
        /// fallback), and on blocks dense with duplicates.
        #[test]
        fn prop_sorted_block_matches_per_record(
            addrs in proptest::collection::vec(addr_strategy(), 0..300),
            probes in proptest::collection::vec(addr_strategy(), 0..600),
            sort_block in any::<bool>(),
        ) {
            let db: DeviceDb = addrs
                .iter()
                .enumerate()
                .map(|(i, &ip)| dev(ip, if i % 2 == 0 { Realm::Consumer } else { Realm::Cps }))
                .collect();
            let idx = CorrelationIndex::build(db.as_slice());
            // Mix guaranteed hits in with the probes so blocks exercise
            // hit runs, miss runs, and bucket transitions.
            let mut block: Vec<u32> = probes;
            block.extend(db.iter().map(|d| u32::from(d.ip)));
            if sort_block {
                block.sort_unstable();
            }
            let mut out = Vec::new();
            idx.correlate_sorted_block(&block, &mut out);
            prop_assert_eq!(out.len(), block.len());
            for (i, &ip) in block.iter().enumerate() {
                prop_assert_eq!(out[i], idx.correlate(Ipv4Addr::from(ip)));
            }
            // The output buffer is reusable: a second pass over a
            // different block fully replaces the first.
            let rev: Vec<u32> = block.iter().rev().copied().collect();
            idx.correlate_sorted_block(&rev, &mut out);
            prop_assert_eq!(out.len(), rev.len());
            for (i, &ip) in rev.iter().enumerate() {
                prop_assert_eq!(out[i], idx.correlate(Ipv4Addr::from(ip)));
            }
        }
    }
}
