//! Cache-friendly exact-IP correlation index.
//!
//! Correlating every darknet flow's source address against the ~331k
//! device inventory (§III-B) is the per-packet hot path of the whole
//! system, and a `HashMap<Ipv4Addr, DeviceId>` probe pays a hash, a
//! bucket walk over 16-byte entries scattered across the heap, and —
//! for the realm — a further `&IotDevice` pointer chase. The
//! [`CorrelationIndex`] replaces all of that with a two-level table:
//!
//! * **Level 1**: 65,536 `/16` buckets, stored as 65,537 prefix-sum
//!   offsets (`bucket_starts`) into the suffix array. Indexing it is one
//!   shift and one array load; the whole level is 256 KiB and mostly
//!   cache-resident under real traffic (darknet sources cluster heavily
//!   by prefix).
//! * **Level 2**: one packed 8-byte `Slot` per device — the low 16
//!   bits of the address (sorted within its bucket), a one-byte realm
//!   tag, and the dense intern index (== `DeviceId` value, see
//!   [`DeviceDb::index_of`](crate::db::DeviceDb::index_of)). A bucket
//!   binary search touches at most a few cache lines even for a fully
//!   dense `/16`, and because the realm and dense index ride in the
//!   same slot the search already loaded, resolving a hit costs no
//!   further memory access — ingest never touches an [`IotDevice`].
//!
//! Total size is 8 bytes per device plus the fixed 256 KiB bucket
//! table, versus ~50 bytes per `HashMap` entry plus the device deref.

use crate::device::IotDevice;
use crate::taxonomy::Realm;
use std::net::Ipv4Addr;

/// Number of `/16` buckets.
const BUCKETS: usize = 1 << 16;

/// Packed one-byte realm tags, so a lookup never dereferences a device.
const REALM_CONSUMER: u8 = 0;
const REALM_CPS: u8 = 1;

#[inline]
fn realm_tag(realm: Realm) -> u8 {
    match realm {
        Realm::Consumer => REALM_CONSUMER,
        Realm::Cps => REALM_CPS,
    }
}

#[inline]
fn tag_realm(tag: u8) -> Realm {
    if tag == REALM_CONSUMER {
        Realm::Consumer
    } else {
        Realm::Cps
    }
}

/// A /16-bucketed two-level exact-IP index over a device inventory,
/// resolving an address directly to `(dense intern index, Realm)`.
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
pub struct CorrelationIndex {
    /// `bucket_starts[b]..bucket_starts[b+1]` is the slot range of
    /// /16 bucket `b` (65,537 prefix-sum entries).
    bucket_starts: Box<[u32]>,
    /// One packed entry per indexed address, suffix-sorted within each
    /// bucket.
    slots: Box<[Slot]>,
}

/// One indexed address: everything a correlation hit needs, packed into
/// the 8 bytes the binary search loads anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Low 16 bits of the address (the bucket sort key).
    suffix: u16,
    /// Packed realm tag ([`REALM_CONSUMER`]/[`REALM_CPS`]).
    realm: u8,
    /// Dense intern index of the owning device.
    dense: u32,
}

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
        // A full-address sort leaves every bucket's suffixes sorted as
        // well.
        let mut bucket_starts = vec![0u32; BUCKETS + 1];
        for &(ip, _) in &rows {
            bucket_starts[(ip >> 16) as usize + 1] += 1;
        }
        for b in 0..BUCKETS {
            bucket_starts[b + 1] += bucket_starts[b];
        }

        // A slot is as large as a row, so this collects in place.
        let slots: Vec<Slot> = rows
            .into_iter()
            .map(|(ip, di)| Slot {
                suffix: (ip & 0xffff) as u16,
                realm: realm_tag(devices[di as usize].realm()),
                dense: di,
            })
            .collect();
        CorrelationIndex {
            bucket_starts: bucket_starts.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of indexed addresses.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resolve `ip` to `(dense intern index, realm)` — the correlation
    /// hot path.
    #[inline]
    pub fn correlate(&self, ip: Ipv4Addr) -> Option<(u32, Realm)> {
        let ip = u32::from(ip);
        let bucket = (ip >> 16) as usize;
        let lo = self.bucket_starts[bucket] as usize;
        let hi = self.bucket_starts[bucket + 1] as usize;
        let run = &self.slots[lo..hi];
        let suffix = (ip & 0xffff) as u16;
        let i = run.binary_search_by_key(&suffix, |s| s.suffix).ok()?;
        let slot = run[i];
        Some((slot.dense, tag_realm(slot.realm)))
    }

    /// Resolve a whole block of source addresses (big-endian `u32`
    /// form) in one streaming merge-join pass, appending one result per
    /// input to `out` (cleared first), element-for-element identical to
    /// calling [`CorrelationIndex::correlate`] on each address.
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
    /// start — it just loses the monotonicity savings. Batched sinks
    /// can therefore feed every block through this path, delta-encoded
    /// or not.
    pub fn correlate_sorted_block(&self, ips: &[u32], out: &mut Vec<Option<(u32, Realm)>>) {
        out.clear();
        out.reserve(ips.len());
        let mut prev_ip = 0u32;
        let mut prev_res: Option<(u32, Realm)> = None;
        let mut have_prev = false;
        // Current bucket's slot window: `cursor` never moves backwards
        // while the input ascends within the bucket.
        let mut bucket = usize::MAX;
        let mut cursor = 0usize;
        let mut hi = 0usize;
        for &ip in ips {
            if have_prev && ip == prev_ip {
                out.push(prev_res);
                continue;
            }
            if have_prev && ip < prev_ip {
                // Non-ascending input (non-delta file): restart the
                // gallop; correctness over speed.
                bucket = usize::MAX;
            }
            let b = (ip >> 16) as usize;
            if b != bucket {
                bucket = b;
                cursor = self.bucket_starts[b] as usize;
                hi = self.bucket_starts[b + 1] as usize;
            }
            let suffix = (ip & 0xffff) as u16;
            cursor += gallop_lower_bound(&self.slots[cursor..hi], suffix);
            let res = if cursor < hi && self.slots[cursor].suffix == suffix {
                let slot = self.slots[cursor];
                Some((slot.dense, tag_realm(slot.realm)))
            } else {
                None
            };
            prev_ip = ip;
            prev_res = res;
            have_prev = true;
            out.push(res);
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
fn gallop_lower_bound(slots: &[Slot], suffix: u16) -> usize {
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

/// Maps a dense intern index to a contiguous device-space shard.
///
/// The parallel analysis pipeline partitions *device state* (not hours)
/// across workers: worker `s` owns every device whose dense index falls
/// in `range(s)`. Shard width is rounded up to a power of two so the
/// hot-path lookup is a single shift — no division, no modulo — which
/// keeps routing cost negligible next to the correlation probe that
/// produced the dense index in the first place.
///
/// Ranges are contiguous and ascending in shard order, which is the
/// contract that lets per-shard device tables be *concatenated* (not
/// columnar-added) into the final sorted table. See `DESIGN.md` §3e.
///
/// # Example
///
/// ```
/// use iotscope_devicedb::ShardMap;
///
/// let map = ShardMap::new(331_000, 4);
/// assert_eq!(map.shards(), 4);
/// let mut seen = 0u32;
/// for s in 0..map.shards() {
///     let r = map.range(s);
///     assert_eq!(r.start, seen);
///     seen = r.end;
/// }
/// assert_eq!(seen, 331_000);
/// assert_eq!(map.shard_of(0), 0);
/// // Power-of-two widths (here 131 072) can leave trailing shards
/// // empty: the last device lands in shard 2 and shard 3 is empty.
/// assert_eq!(map.shard_of(330_999), 2);
/// assert!(map.range(3).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// `dense >> shift` is the owning shard.
    shift: u32,
    /// Number of shards (≥ 1).
    shards: u32,
    /// Number of devices covered (exclusive upper bound on dense).
    len: u32,
}

impl ShardMap {
    /// Partition `num_devices` dense indices into `shards` contiguous
    /// ranges. `shards` is clamped to at least 1; a shard count larger
    /// than the device count simply leaves trailing shards empty.
    pub fn new(num_devices: usize, shards: usize) -> Self {
        let shards = shards.max(1) as u32;
        let len = u32::try_from(num_devices).expect("device count fits u32");
        // Power-of-two width >= ceil(len / shards), so every dense
        // index lands in 0..shards after the shift.
        let width = (len.div_ceil(shards)).next_power_of_two().max(1);
        ShardMap {
            shift: width.trailing_zeros(),
            shards,
            len,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The owning shard of a dense intern index — the hot path: one
    /// shift, no branch.
    #[inline]
    pub fn shard_of(&self, dense: u32) -> usize {
        debug_assert!(dense < self.len, "dense {dense} out of inventory");
        (dense >> self.shift) as usize
    }

    /// The contiguous dense-index range owned by `shard` (possibly
    /// empty for trailing shards of a small inventory).
    pub fn range(&self, shard: usize) -> std::ops::Range<u32> {
        let width = 1u64 << self.shift;
        let start = (shard as u64 * width).min(u64::from(self.len)) as u32;
        let end = ((shard as u64 + 1) * width).min(u64::from(self.len)) as u32;
        start..end
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
                prop_assert_eq!(db.lookup_ip(d.ip).map(|x| x.id), Some(d.id));
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

        /// Shard ranges tile the device space exactly: contiguous,
        /// ascending, disjoint, and `shard_of` agrees with `range`.
        #[test]
        fn prop_shard_ranges_tile_device_space(
            num_devices in 0usize..500_000,
            shards in 1usize..64,
        ) {
            let map = ShardMap::new(num_devices, shards);
            prop_assert_eq!(map.shards(), shards);
            let mut cursor = 0u32;
            for s in 0..map.shards() {
                let r = map.range(s);
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end >= r.start);
                cursor = r.end;
            }
            prop_assert_eq!(cursor as usize, num_devices);
            // Spot-check membership at range boundaries.
            for s in 0..map.shards() {
                let r = map.range(s);
                if r.start < r.end {
                    prop_assert_eq!(map.shard_of(r.start), s);
                    prop_assert_eq!(map.shard_of(r.end - 1), s);
                }
            }
        }
    }

    #[test]
    fn shard_map_degenerate_shapes() {
        // Empty inventory: every shard range is empty.
        let empty = ShardMap::new(0, 4);
        for s in 0..4 {
            assert!(empty.range(s).is_empty());
        }
        // More shards than devices: trailing shards are empty.
        let tiny = ShardMap::new(3, 8);
        let owned: usize = (0..8).map(|s| tiny.range(s).len()).sum();
        assert_eq!(owned, 3);
        // Single shard owns everything.
        let one = ShardMap::new(123, 1);
        assert_eq!(one.range(0), 0..123);
        assert_eq!(one.shard_of(122), 0);
    }
}
