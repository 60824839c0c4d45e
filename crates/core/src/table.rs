//! Columnar per-device aggregation storage.
//!
//! The correlation join (§III-B) produces one aggregate row per
//! compromised device; at paper scale that is tens of thousands of rows
//! out of a ~331k-device inventory, and at the ROADMAP's target scale it
//! is millions. [`DeviceTable`] keeps those rows as a struct-of-arrays
//! keyed by the inventory's dense intern index (see
//! [`DeviceDb::index_of`](iotscope_devicedb::DeviceDb::index_of)), so
//! merging two partial aggregations is columnar addition instead of
//! per-key hash-map rehashing, and [`DeviceSet`] packs "which devices"
//! sets over the same index — a sorted vec of 4-byte indexes while
//! small, one bit per device once large, instead of a ~48-byte hash-set
//! entry either way.
//!
//! Row order is *first-seen* while ingesting and *sorted by id* after
//! [`DeviceTable::normalize`] (which [`Analyzer::finish`] calls), so a
//! finished [`Analysis`] is bit-identical between sequential and
//! parallel runs. Equality on both types is order- and
//! capacity-insensitive, preserving the determinism contract even on
//! un-normalized snapshots.
//!
//! The two port-keyed aggregates follow the same model: [`PortTable`]
//! (Table IV, one row per UDP destination port behind a 65,536-entry
//! port → row index, every row's devices an ascending run in one
//! shared arena) and [`ServiceTable`] (Table V, one fixed slot per
//! service group), so the per-flow fold reaches either with an array
//! index and merging is columnar addition plus device-set unions.
//!
//! [`Analyzer::finish`]: crate::analysis::Analyzer::finish
//! [`Analysis`]: crate::analysis::Analysis

use crate::classify::TrafficClass;
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_net::ports::ScanService;

/// Number of traffic classes (see [`crate::analysis::class_idx`]).
pub(crate) const NUM_CLASSES: usize = 5;

/// Sets at or below this many members stay in the sorted-vec
/// representation; above it they promote to a bitmap. 128 × 4 bytes =
/// 512 B, well under the bitmap cost for any realistic inventory, and
/// small enough that insertion's memmove is cache-resident.
const SPARSE_MAX: usize = 128;

#[derive(Debug, Clone)]
enum SetRepr {
    /// Sorted, deduplicated device indexes — the common case: most
    /// per-port / per-service sets hold a handful of devices.
    Sparse(Vec<u32>),
    /// Bitmap over the dense device index, for large cohorts.
    Dense(Vec<u64>),
}

/// A compact set of devices keyed by the dense device index.
///
/// Adaptive representation: a sorted `Vec<u32>` while the set is small
/// (≤ 128 members, the overwhelming majority of the
/// per-port/per-service sets), promoted to a bitmap once it grows (a
/// 331k-device inventory fits in ~41 KiB). This keeps the union used
/// when partial analyses are assembled ([`crate::shard::assemble`])
/// proportional to the *members* of small sets rather than the
/// inventory size, while large cohorts still merge as word-wise ORs.
/// Equality is
/// representation- and capacity-insensitive: two sets with the same
/// members always compare equal.
#[derive(Debug, Clone)]
pub struct DeviceSet {
    repr: SetRepr,
    len: usize,
}

impl Default for DeviceSet {
    fn default() -> Self {
        DeviceSet {
            repr: SetRepr::Sparse(Vec::new()),
            len: 0,
        }
    }
}

impl DeviceSet {
    /// An empty set.
    pub fn new() -> Self {
        DeviceSet::default()
    }

    /// An empty *dense* set pre-sized for device indexes `< capacity`.
    ///
    /// Use for reusable scratch sets that are repeatedly filled and
    /// [`clear`](Self::clear)ed: the bitmap allocation is made once and
    /// no sparse→dense promotions happen on the hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        DeviceSet {
            repr: SetRepr::Dense(vec![0; capacity.div_ceil(64)]),
            len: 0,
        }
    }

    /// Number of devices in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Switch to the bitmap representation.
    fn promote(&mut self) {
        if let SetRepr::Sparse(v) = &self.repr {
            let cap = v.last().map_or(0, |&max| max as usize + 1);
            let mut words = vec![0u64; cap.div_ceil(64)];
            for &i in v {
                words[i as usize / 64] |= 1 << (i % 64);
            }
            self.repr = SetRepr::Dense(words);
        }
    }

    /// Insert a device; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, id: DeviceId) -> bool {
        match &mut self.repr {
            SetRepr::Sparse(v) => match v.binary_search(&id.0) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() == SPARSE_MAX {
                        self.promote();
                        return self.insert(id);
                    }
                    v.insert(pos, id.0);
                    self.len += 1;
                    true
                }
            },
            SetRepr::Dense(words) => {
                let (word, bit) = (id.0 as usize / 64, id.0 % 64);
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let mask = 1u64 << bit;
                let newly = words[word] & mask == 0;
                words[word] |= mask;
                self.len += usize::from(newly);
                newly
            }
        }
    }

    /// Whether the set contains `id`.
    #[inline]
    pub fn contains(&self, id: DeviceId) -> bool {
        match &self.repr {
            SetRepr::Sparse(v) => v.binary_search(&id.0).is_ok(),
            SetRepr::Dense(words) => {
                let (word, bit) = (id.0 as usize / 64, id.0 % 64);
                words.get(word).is_some_and(|w| w & (1 << bit) != 0)
            }
        }
    }

    /// Add every member of `other`.
    ///
    /// Cost is O(|other|) when `other` is sparse and a word-wise OR when
    /// both sides are bitmaps — never O(inventory) for small sets.
    pub fn union_with(&mut self, other: &DeviceSet) {
        match &other.repr {
            SetRepr::Sparse(o) => {
                for &i in o {
                    self.insert(DeviceId(i));
                }
            }
            SetRepr::Dense(o) => {
                self.promote();
                let SetRepr::Dense(words) = &mut self.repr else {
                    unreachable!("just promoted");
                };
                if o.len() > words.len() {
                    words.resize(o.len(), 0);
                }
                let mut len = 0usize;
                for (w, &ow) in words.iter_mut().zip(o.iter()) {
                    *w |= ow;
                    len += w.count_ones() as usize;
                }
                for w in &words[o.len()..] {
                    len += w.count_ones() as usize;
                }
                self.len = len;
            }
        }
    }

    /// Remove all members, keeping the allocation (and, for dense sets,
    /// the representation — scratch sets stay bitmaps across hours).
    pub fn clear(&mut self) {
        match &mut self.repr {
            SetRepr::Sparse(v) => v.clear(),
            SetRepr::Dense(words) => words.fill(0),
        }
        self.len = 0;
    }

    /// Iterate over members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = DeviceId> + '_ {
        let (sparse, dense): (&[u32], &[u64]) = match &self.repr {
            SetRepr::Sparse(v) => (v, &[]),
            SetRepr::Dense(words) => (&[], words),
        };
        sparse
            .iter()
            .map(|&i| DeviceId(i))
            .chain(dense.iter().enumerate().flat_map(|(wi, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    Some(DeviceId((wi * 64) as u32 + bit))
                })
            }))
    }
}

impl PartialEq for DeviceSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for DeviceSet {}

impl FromIterator<DeviceId> for DeviceSet {
    fn from_iter<I: IntoIterator<Item = DeviceId>>(iter: I) -> Self {
        let mut set = DeviceSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl Extend<DeviceId> for DeviceSet {
    fn extend<I: IntoIterator<Item = DeviceId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a DeviceSet {
    type Item = DeviceId;
    type IntoIter = Box<dyn Iterator<Item = DeviceId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Everything observed about one correlated device — the row type
/// materialized from a [`DeviceTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceObservation {
    /// The device.
    pub device: DeviceId,
    /// Its realm (denormalized for hot paths).
    pub realm: Realm,
    /// First interval (1-based) the device was seen at the telescope.
    pub first_interval: u32,
    /// Flow records observed.
    pub flows: u64,
    /// Packets per traffic class (indexed by
    /// [`class_idx`](crate::analysis::class_idx)).
    pub packets_by_class: [u64; NUM_CLASSES],
    /// Bitmask of active days (bit d = day d).
    pub days_active: u64,
}

impl DeviceObservation {
    /// Total packets across classes.
    pub fn total_packets(&self) -> u64 {
        self.packets_by_class.iter().sum()
    }

    /// Packets of one class.
    pub fn packets(&self, class: TrafficClass) -> u64 {
        self.packets_by_class[crate::analysis::class_idx(class)]
    }

    /// Combined scanning packets (TCP SYN + ICMP echo).
    pub fn scan_packets(&self) -> u64 {
        self.packets(TrafficClass::TcpScan) + self.packets(TrafficClass::IcmpScan)
    }
}

/// Columnar per-device aggregates: one row per correlated device,
/// struct-of-arrays.
///
/// Rows are addressed two ways: by *row number* (dense, iteration order)
/// and by [`DeviceId`] through a sparse `device index → row` table that
/// exploits the inventory's dense id interning. While ingesting, rows
/// are appended in first-seen order; [`normalize`](Self::normalize)
/// sorts them by id so finished results are reproducible bit-for-bit
/// regardless of ingest or merge order.
#[derive(Debug, Clone, Default)]
pub struct DeviceTable {
    /// Device id per row.
    ids: Vec<DeviceId>,
    /// Realm per row.
    realms: Vec<Realm>,
    /// First interval seen per row.
    first_interval: Vec<u32>,
    /// Flow count per row.
    flows: Vec<u64>,
    /// Packet counts per class, class-major: `packets[class][row]`.
    packets: [Vec<u64>; NUM_CLASSES],
    /// Active-day bitmask per row.
    days_active: Vec<u64>,
    /// Sparse index: device index → row + 1 (0 = absent).
    row_of: Vec<u32>,
    /// Whether rows are currently sorted by id.
    sorted: bool,
}

impl DeviceTable {
    /// An empty table.
    pub fn new() -> Self {
        DeviceTable {
            sorted: true,
            ..DeviceTable::default()
        }
    }

    /// Number of rows (correlated devices).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row holding `id`, if the device has been observed.
    #[inline]
    pub fn row(&self, id: DeviceId) -> Option<usize> {
        match self.row_of.get(id.0 as usize) {
            Some(&r) if r != 0 => Some(r as usize - 1),
            _ => None,
        }
    }

    /// Whether the device has been observed.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.row(id).is_some()
    }

    /// Device ids in row order (sorted ascending iff the table is
    /// [`normalize`](Self::normalize)d).
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Get-or-create the row for `id`, recording `realm` and the
    /// candidate `first_interval` on creation.
    #[inline]
    pub fn upsert(&mut self, id: DeviceId, realm: Realm, first_interval: u32) -> usize {
        let idx = id.0 as usize;
        if idx >= self.row_of.len() {
            self.row_of.resize(idx + 1, 0);
        }
        let slot = self.row_of[idx];
        if slot != 0 {
            return slot as usize - 1;
        }
        let row = self.ids.len();
        if self.sorted && self.ids.last().is_some_and(|last| *last > id) {
            self.sorted = false;
        }
        self.ids.push(id);
        self.realms.push(realm);
        self.first_interval.push(first_interval);
        self.flows.push(0);
        for col in &mut self.packets {
            col.push(0);
        }
        self.days_active.push(0);
        self.row_of[idx] = (row + 1) as u32;
        row
    }

    /// Record one run of `flows` flows from `id`, observed at `interval`
    /// on day `day`, carrying `packets[class]` packets of each class —
    /// one row update however long the run. The hot path of every
    /// ingest (the device fold calls it once per source-device run).
    #[inline]
    pub fn observe_run(
        &mut self,
        id: DeviceId,
        realm: Realm,
        packets: &[u64; NUM_CLASSES],
        flows: u64,
        interval: u32,
        day: u32,
    ) {
        let row = self.upsert(id, realm, interval);
        let fi = &mut self.first_interval[row];
        *fi = (*fi).min(interval);
        self.flows[row] += flows;
        for (col, &pkts) in self.packets.iter_mut().zip(packets) {
            col[row] += pkts;
        }
        self.days_active[row] |= 1 << day.min(63);
    }

    /// Record one flow for `id`: `pkts` packets of class `class`
    /// observed at `interval` on day `day` — the per-record write the
    /// run fold replaced, kept for the test oracle.
    #[cfg(test)]
    pub(crate) fn observe(
        &mut self,
        id: DeviceId,
        realm: Realm,
        class: usize,
        pkts: u64,
        interval: u32,
        day: u32,
    ) {
        let row = self.upsert(id, realm, interval);
        let fi = &mut self.first_interval[row];
        *fi = (*fi).min(interval);
        self.flows[row] += 1;
        self.packets[class][row] += pkts;
        self.days_active[row] |= 1 << day.min(63);
    }

    /// Materialize the observation at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn observation_at(&self, row: usize) -> DeviceObservation {
        DeviceObservation {
            device: self.ids[row],
            realm: self.realms[row],
            first_interval: self.first_interval[row],
            flows: self.flows[row],
            packets_by_class: std::array::from_fn(|c| self.packets[c][row]),
            days_active: self.days_active[row],
        }
    }

    /// Materialize the observation for `id`, if observed.
    pub fn get(&self, id: DeviceId) -> Option<DeviceObservation> {
        self.row(id).map(|r| self.observation_at(r))
    }

    /// Iterate over rows as materialized observations, in row order.
    pub fn rows(&self) -> impl Iterator<Item = DeviceObservation> + '_ {
        (0..self.len()).map(|r| self.observation_at(r))
    }

    /// Packets of `class` accumulated in `row` — column access without
    /// materializing the row.
    #[inline]
    pub fn class_packets_at(&self, row: usize, class: TrafficClass) -> u64 {
        self.packets[crate::analysis::class_idx(class)][row]
    }

    /// Realm of the device in `row`.
    #[inline]
    pub fn realm_at(&self, row: usize) -> Realm {
        self.realms[row]
    }

    /// Append another table's rows wholesale — the merge path for
    /// *shard-disjoint* partials, where each table covers its own range
    /// of the dense device index and no id can appear in both.
    ///
    /// A straight `extend_from_slice` per column plus a sparse-index
    /// fix-up: O(rows) with no per-row branch on existing state. When
    /// partials arrive in ascending shard order and each is already
    /// [`normalize`](Self::normalize)d, the concatenated table is
    /// globally sorted, so the final `normalize()` is a no-op and the
    /// result is bit-identical to a sequential build.
    ///
    /// # Panics
    ///
    /// Debug builds assert that no id of `other` is already present.
    pub fn concat_from(&mut self, other: DeviceTable) {
        if self.is_empty() {
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        self.sorted =
            self.sorted && other.sorted && self.ids.last().unwrap() < other.ids.first().unwrap();
        let base = self.ids.len() as u32;
        if other.row_of.len() > self.row_of.len() {
            self.row_of.resize(other.row_of.len(), 0);
        }
        for (orow, id) in other.ids.iter().enumerate() {
            let idx = id.0 as usize;
            if idx >= self.row_of.len() {
                self.row_of.resize(idx + 1, 0);
            }
            debug_assert_eq!(self.row_of[idx], 0, "concat_from rows must be disjoint");
            self.row_of[idx] = base + orow as u32 + 1;
        }
        self.ids.extend_from_slice(&other.ids);
        self.realms.extend_from_slice(&other.realms);
        self.first_interval.extend_from_slice(&other.first_interval);
        self.flows.extend_from_slice(&other.flows);
        for (col, ocol) in self.packets.iter_mut().zip(&other.packets) {
            col.extend_from_slice(ocol);
        }
        self.days_active.extend_from_slice(&other.days_active);
    }

    /// Sort rows by device id and rebuild the sparse index, making row
    /// order (and therefore serialization and iteration) independent of
    /// ingest/merge order. O(n log n); no-op when already sorted.
    pub fn normalize(&mut self) {
        if self.sorted {
            return;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| self.ids[r as usize]);
        self.ids = permute(&self.ids, &perm);
        self.realms = permute(&self.realms, &perm);
        self.first_interval = permute(&self.first_interval, &perm);
        self.flows = permute(&self.flows, &perm);
        for col in &mut self.packets {
            *col = permute(col, &perm);
        }
        self.days_active = permute(&self.days_active, &perm);
        for (row, id) in self.ids.iter().enumerate() {
            self.row_of[id.0 as usize] = (row + 1) as u32;
        }
        self.sorted = true;
    }

    /// Approximate heap footprint in bytes (columns + sparse index).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<DeviceId>()
            + self.realms.capacity() * size_of::<Realm>()
            + self.first_interval.capacity() * size_of::<u32>()
            + self.flows.capacity() * size_of::<u64>()
            + self
                .packets
                .iter()
                .map(|c| c.capacity() * size_of::<u64>())
                .sum::<usize>()
            + self.days_active.capacity() * size_of::<u64>()
            + self.row_of.capacity() * size_of::<u32>()
    }
}

/// Gather `src` through the permutation `perm` (new row `i` = old row
/// `perm[i]`).
fn permute<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&r| src[r as usize]).collect()
}

/// Row-set equality, insensitive to row order and index capacity — two
/// tables describing the same devices compare equal even if one was
/// built by a differently-ordered merge and not yet normalized.
impl PartialEq for DeviceTable {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|row| {
            let id = self.ids[row];
            match other.row(id) {
                Some(orow) => {
                    self.realms[row] == other.realms[orow]
                        && self.first_interval[row] == other.first_interval[orow]
                        && self.flows[row] == other.flows[orow]
                        && (0..NUM_CLASSES).all(|c| self.packets[c][row] == other.packets[c][orow])
                        && self.days_active[row] == other.days_active[orow]
                }
                None => false,
            }
        })
    }
}

impl Eq for DeviceTable {}

/// One row of a [`PortTable`]: a UDP destination port, the packets sent
/// to it and the devices that sent them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRow<'a> {
    /// The destination port.
    pub port: u16,
    /// UDP packets to the port.
    pub packets: u64,
    /// Devices that sent them, ascending by id.
    pub devices: &'a [DeviceId],
}

/// Where one row's device run lives in the [`PortTable`] arena:
/// `arena[offset..offset + len]` holds the devices, ascending, and the
/// run may grow in place up to `cap` entries.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    offset: u32,
    len: u32,
    cap: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// An arena position as a [`Run`] field.
///
/// # Panics
///
/// Panics past 2^32 entries (16 GiB of device ids).
fn arena_index(position: usize) -> u32 {
    u32::try_from(position).expect("port arena within 2^32 entries")
}

/// Capacity of a port's first run.
const FIRST_RUN_CAP: u32 = 4;

/// Columnar per-UDP-port aggregates (Table IV): one row per observed
/// destination port, struct-of-arrays, addressed through a dense
/// `port → row` index over the whole 2^16 port space.
///
/// The sending devices of *all* rows live in one shared arena, each
/// row's as an ascending run (`Run`), so the table is five
/// allocations whatever the number of ports: cloning or dropping it is
/// a handful of `memcpy`s/`free`s rather than one per port. A full run
/// moves to the arena's end at twice its capacity, leaving its old
/// slots dead; [`normalize`](Self::normalize) rewrites the arena
/// without dead slots.
///
/// Rows are appended in first-seen order while ingesting;
/// [`normalize`](Self::normalize) sorts them ascending by port, so
/// finished results iterate identically regardless of ingest or merge
/// order. Equality is insensitive to row order and arena layout.
#[derive(Debug, Clone)]
pub struct PortTable {
    /// Port per row.
    ports: Vec<u16>,
    /// Packets per row.
    packets: Vec<u64>,
    /// Device run per row.
    runs: Vec<Run>,
    /// Every row's devices; only the ranges `runs` points at are live.
    arena: Vec<DeviceId>,
    /// Arena slots no run covers any more (abandoned by relocation).
    dead: usize,
    /// Dense index: port → row + 1 (0 = absent), 65,536 entries.
    row_of: Vec<u32>,
    /// Whether rows are sorted by port and the arena is laid out in row
    /// order with no dead or spare slots.
    normalized: bool,
}

impl Default for PortTable {
    fn default() -> Self {
        PortTable::new()
    }
}

impl PortTable {
    /// An empty table.
    pub fn new() -> Self {
        PortTable {
            ports: Vec::new(),
            packets: Vec::new(),
            runs: Vec::new(),
            arena: Vec::new(),
            dead: 0,
            row_of: vec![0; usize::from(u16::MAX) + 1],
            normalized: true,
        }
    }

    /// Number of rows (distinct ports observed).
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether no port has been observed.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Get-or-create the row for `port`.
    #[inline]
    fn upsert(&mut self, port: u16) -> usize {
        let slot = self.row_of[usize::from(port)];
        if slot != 0 {
            return slot as usize - 1;
        }
        let row = self.ports.len();
        if self.ports.last().is_some_and(|last| *last > port) {
            self.normalized = false;
        }
        self.ports.push(port);
        self.packets.push(0);
        self.runs.push(Run::default());
        self.row_of[usize::from(port)] = (row + 1) as u32;
        row
    }

    /// Move `row`'s run to the arena's end with room for `cap` devices.
    fn relocate(&mut self, row: usize, cap: u32) {
        let run = self.runs[row];
        debug_assert!(cap >= run.len);
        let offset = self.arena.len();
        let end = arena_index(offset + cap as usize);
        self.arena.resize(end as usize, DeviceId(0));
        self.arena.copy_within(run.range(), offset);
        self.dead += run.cap as usize;
        self.runs[row] = Run {
            offset: offset as u32,
            len: run.len,
            cap,
        };
        self.normalized = false;
    }

    /// Add `id` to `row`'s run, keeping it ascending and duplicate-free.
    #[inline]
    fn insert(&mut self, row: usize, id: DeviceId) {
        let run = self.runs[row];
        let devices = &self.arena[run.range()];
        let pos = devices.partition_point(|d| *d < id);
        if devices.get(pos) == Some(&id) {
            return;
        }
        if run.len == run.cap {
            self.relocate(row, (run.cap * 2).max(FIRST_RUN_CAP));
        }
        let run = &mut self.runs[row];
        let at = run.offset as usize + pos;
        let end = run.range().end;
        self.arena.copy_within(at..end, at + 1);
        self.arena[at] = id;
        run.len += 1;
    }

    /// Record `pkts` UDP packets from device `id` to `port`.
    #[inline]
    pub fn observe(&mut self, port: u16, pkts: u64, id: DeviceId) {
        let row = self.upsert(port);
        self.packets[row] += pkts;
        self.insert(row, id);
    }

    fn row_at(&self, row: usize) -> PortRow<'_> {
        PortRow {
            port: self.ports[row],
            packets: self.packets[row],
            devices: &self.arena[self.runs[row].range()],
        }
    }

    /// The row for `port`, if any packet was sent to it.
    pub fn get(&self, port: u16) -> Option<PortRow<'_>> {
        match self.row_of[usize::from(port)] {
            0 => None,
            slot => Some(self.row_at(slot as usize - 1)),
        }
    }

    /// Iterate over rows in row order (ascending by port iff the table
    /// is [`normalize`](Self::normalize)d).
    pub fn rows(&self) -> impl Iterator<Item = PortRow<'_>> + '_ {
        (0..self.len()).map(|row| self.row_at(row))
    }

    /// Total packets over all ports.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Merge another table built over disjoint observations: matching
    /// rows add packets and union device runs, new rows are appended.
    pub fn merge_from(&mut self, other: PortTable) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for theirs in other.rows() {
            let row = self.upsert(theirs.port);
            self.packets[row] += theirs.packets;
            self.union_into(row, theirs.devices);
        }
        // Every union abandons the run it replaced; keep the arena
        // within twice its live size however many partials are merged.
        if self.dead * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Replace `row`'s run by its union with the ascending `theirs`,
    /// written in one merge pass at the arena's end.
    fn union_into(&mut self, row: usize, theirs: &[DeviceId]) {
        if theirs.is_empty() {
            return;
        }
        let old = self.runs[row];
        let offset = self.arena.len();
        self.arena.reserve(old.len as usize + theirs.len());
        let (mut a, a_end) = (old.range().start, old.range().end);
        let mut b = 0;
        while a < a_end && b < theirs.len() {
            let (x, y) = (self.arena[a], theirs[b]);
            self.arena.push(x.min(y));
            a += usize::from(x <= y);
            b += usize::from(y <= x);
        }
        self.arena.extend_from_within(a..a_end);
        self.arena.extend_from_slice(&theirs[b..]);
        let len = arena_index(self.arena.len()) - offset as u32;
        self.dead += old.cap as usize;
        self.runs[row] = Run {
            offset: offset as u32,
            len,
            cap: len,
        };
        self.normalized = false;
    }

    /// Rewrite the arena in row order with no dead or spare slots.
    fn compact(&mut self) {
        let live = self.runs.iter().map(|run| run.len as usize).sum();
        let mut arena = Vec::with_capacity(live);
        for run in &mut self.runs {
            let offset = arena.len() as u32;
            arena.extend_from_slice(&self.arena[run.range()]);
            *run = Run {
                offset,
                len: run.len,
                cap: run.len,
            };
        }
        self.arena = arena;
        self.dead = 0;
    }

    /// Sort rows ascending by port, rebuild the index and rewrite the
    /// arena compactly in port order. No-op when already so.
    pub fn normalize(&mut self) {
        if self.normalized {
            return;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| self.ports[r as usize]);
        self.ports = permute(&self.ports, &perm);
        self.packets = permute(&self.packets, &perm);
        self.runs = permute(&self.runs, &perm);
        for (row, port) in self.ports.iter().enumerate() {
            self.row_of[usize::from(*port)] = (row + 1) as u32;
        }
        self.compact();
        self.normalized = true;
    }

    /// Approximate heap footprint in bytes (columns, arena and index).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ports.capacity() * size_of::<u16>()
            + self.packets.capacity() * size_of::<u64>()
            + self.runs.capacity() * size_of::<Run>()
            + self.arena.capacity() * size_of::<DeviceId>()
            + self.row_of.capacity() * size_of::<u32>()
    }
}

/// Row-set equality, insensitive to row order and arena layout.
impl PartialEq for PortTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows().all(|row| other.get(row.port) == Some(row))
    }
}

impl Eq for PortTable {}

/// Key for Table V rows: a named service group or the long tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKey {
    /// One of the 14 named groups.
    Named(ScanService),
    /// Every other scanned port.
    Other,
}

impl ServiceKey {
    /// The key's [`ServiceTable`] slot — the value
    /// [`ScanService::group_of_port`] gives the group's ports.
    fn slot(self) -> usize {
        match self {
            ServiceKey::Named(service) => service.ordinal(),
            ServiceKey::Other => ScanService::OTHER_GROUP,
        }
    }

    fn from_slot(slot: usize) -> ServiceKey {
        ScanService::ALL
            .get(slot)
            .map_or(ServiceKey::Other, |s| ServiceKey::Named(*s))
    }
}

/// Per-service scanning statistics, split by realm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStat {
    /// Packets per realm (`[consumer, cps]`).
    pub packets: [u64; 2],
    /// Scanning devices per realm.
    pub devices: [DeviceSet; 2],
}

/// Table V statistics: one fixed slot per service group, in Table V
/// order with the unnamed tail last, indexed by
/// [`ScanService::group_of_port`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceTable {
    slots: [ServiceStat; ScanService::GROUPS],
}

impl ServiceTable {
    /// Record `pkts` scan packets from device `id` of realm index `r`
    /// to a port of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= ScanService::GROUPS` or `r >= 2`.
    #[inline]
    pub fn observe(&mut self, slot: usize, r: usize, pkts: u64, id: DeviceId) {
        let stat = &mut self.slots[slot];
        stat.packets[r] += pkts;
        stat.devices[r].insert(id);
    }

    /// The statistics for `key` (all zero if it was never scanned).
    pub fn get(&self, key: ServiceKey) -> &ServiceStat {
        &self.slots[key.slot()]
    }

    /// The groups that were scanned by at least one device, in Table V
    /// order with [`ServiceKey::Other`] last.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceKey, &ServiceStat)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, stat)| stat.devices.iter().any(|d| !d.is_empty()))
            .map(|(slot, stat)| (ServiceKey::from_slot(slot), stat))
    }

    /// Merge another table built over disjoint observations.
    pub fn merge_from(&mut self, other: ServiceTable) {
        for (cur, stat) in self.slots.iter_mut().zip(other.slots) {
            for r in 0..2 {
                cur.packets[r] += stat.packets[r];
                cur.devices[r].union_with(&stat.devices[r]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn device_set_insert_contains_len() {
        let mut s = DeviceSet::new();
        assert!(s.is_empty());
        assert!(s.insert(DeviceId(3)));
        assert!(!s.insert(DeviceId(3)));
        assert!(s.insert(DeviceId(200)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(DeviceId(3)));
        assert!(!s.contains(DeviceId(4)));
        assert!(!s.contains(DeviceId(100_000)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![DeviceId(3), DeviceId(200)]
        );
    }

    #[test]
    fn device_set_union_counts_and_capacity_equality() {
        let a: DeviceSet = [DeviceId(1), DeviceId(64), DeviceId(65)]
            .into_iter()
            .collect();
        let mut b: DeviceSet = [DeviceId(1), DeviceId(500)].into_iter().collect();
        b.union_with(&a);
        assert_eq!(b.len(), 4);
        assert!(b.contains(DeviceId(64)));
        // Equality ignores trailing capacity.
        let mut big = DeviceSet::with_capacity(10_000);
        for id in b.iter() {
            big.insert(id);
        }
        assert_eq!(big, b);
        big.insert(DeviceId(9_999));
        assert_ne!(big, b);
        // Clear keeps capacity but empties membership.
        big.clear();
        assert!(big.is_empty());
        assert_eq!(big, DeviceSet::new());
    }

    #[test]
    fn device_set_promotes_past_sparse_max() {
        // Insert descending so the sparse path exercises its memmove,
        // then cross the promotion threshold.
        let mut s = DeviceSet::new();
        for i in (0..300u32).rev() {
            assert!(s.insert(DeviceId(i * 3)));
        }
        assert!(!s.insert(DeviceId(0)));
        assert_eq!(s.len(), 300);
        assert!(s.contains(DeviceId(297 * 3)));
        assert!(!s.contains(DeviceId(1)));
        // Iteration stays ascending across the promotion.
        let ids: Vec<u32> = s.iter().map(|d| d.0).collect();
        assert_eq!(ids, (0..300u32).map(|i| i * 3).collect::<Vec<_>>());
        // A promoted set equals a never-promoted dense set with the
        // same members, and unions with a sparse set stay correct.
        let mut dense = DeviceSet::with_capacity(1024);
        dense.extend(s.iter());
        assert_eq!(dense, s);
        let sparse: DeviceSet = [DeviceId(1), DeviceId(898)].into_iter().collect();
        s.union_with(&sparse);
        assert_eq!(s.len(), 302);
        assert!(s.contains(DeviceId(1)));
    }

    #[test]
    fn table_upsert_observe_get() {
        let mut t = DeviceTable::new();
        t.observe(DeviceId(7), Realm::Cps, 0, 5, 10, 0);
        t.observe(DeviceId(7), Realm::Cps, 3, 2, 4, 1);
        t.observe(DeviceId(2), Realm::Consumer, 3, 1, 8, 0);
        assert_eq!(t.len(), 2);
        let obs = t.get(DeviceId(7)).unwrap();
        assert_eq!(obs.first_interval, 4);
        assert_eq!(obs.flows, 2);
        assert_eq!(obs.packets_by_class, [5, 0, 0, 2, 0]);
        assert_eq!(obs.days_active, 0b11);
        assert!(t.get(DeviceId(3)).is_none());
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    fn normalize_sorts_rows_and_preserves_lookup() {
        let mut t = DeviceTable::new();
        for id in [9u32, 3, 7, 1] {
            t.observe(DeviceId(id), Realm::Consumer, 0, 1, 1, 0);
        }
        assert_eq!(t.ids()[0], DeviceId(9));
        t.normalize();
        assert_eq!(
            t.ids(),
            &[DeviceId(1), DeviceId(3), DeviceId(7), DeviceId(9)]
        );
        for id in [9u32, 3, 7, 1] {
            assert_eq!(t.get(DeviceId(id)).unwrap().device, DeviceId(id));
        }
        // Already-sorted append keeps the sorted flag (normalize no-ops).
        t.observe(DeviceId(12), Realm::Cps, 1, 1, 2, 0);
        t.normalize();
        assert_eq!(t.ids().last(), Some(&DeviceId(12)));
    }

    #[test]
    fn concat_preserves_sort_for_ascending_shards() {
        // Two sorted shard partials over disjoint dense ranges.
        let mut lo = DeviceTable::new();
        lo.observe(DeviceId(1), Realm::Consumer, 0, 3, 2, 0);
        lo.observe(DeviceId(4), Realm::Cps, 2, 5, 1, 1);
        let mut hi = DeviceTable::new();
        hi.observe(DeviceId(9), Realm::Consumer, 3, 7, 4, 2);
        hi.observe(DeviceId(12), Realm::Cps, 1, 1, 6, 0);

        // Reference: the same rows observed into one table.
        let mut reference = lo.clone();
        reference.observe(DeviceId(9), Realm::Consumer, 3, 7, 4, 2);
        reference.observe(DeviceId(12), Realm::Cps, 1, 1, 6, 0);

        let mut cat = lo.clone();
        cat.concat_from(hi.clone());
        assert!(cat.sorted, "ascending concat must keep the sorted flag");
        assert_eq!(cat, reference);
        assert_eq!(
            cat.ids(),
            &[DeviceId(1), DeviceId(4), DeviceId(9), DeviceId(12)]
        );
        // Lookups work through the rebuilt sparse index.
        assert_eq!(cat.get(DeviceId(9)).unwrap().packets_by_class[3], 7);
        assert_eq!(cat.get(DeviceId(4)).unwrap().first_interval, 1);

        // Concatenating onto an empty table moves rows wholesale.
        let mut empty = DeviceTable::new();
        empty.concat_from(cat.clone());
        assert_eq!(empty, cat);

        // Out-of-order concat drops the flag; normalize restores order.
        let mut rev = hi;
        rev.concat_from(lo);
        assert!(!rev.sorted);
        rev.normalize();
        assert_eq!(rev.ids(), cat.ids());
        assert_eq!(rev, cat);
    }

    #[test]
    fn port_table_equality_ignores_fill_order_and_normalisation() {
        let sends = [
            (53u16, 4u64, 7u32),
            (137, 1, 2),
            (53, 2, 9),
            (0, 3, 7),
            (u16::MAX, 5, 1),
        ];
        let mut fwd = PortTable::new();
        let mut rev = PortTable::new();
        for &(port, pkts, dev) in &sends {
            fwd.observe(port, pkts, DeviceId(dev));
        }
        for &(port, pkts, dev) in sends.iter().rev() {
            rev.observe(port, pkts, DeviceId(dev));
        }
        let ports = |t: &PortTable| t.rows().map(|r| r.port).collect::<Vec<_>>();
        assert_ne!(ports(&fwd), ports(&rev), "row order is first-seen");
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 4);
        assert_eq!(fwd.total_packets(), 15);
        let dns = fwd.get(53).unwrap();
        assert_eq!((dns.packets, dns.devices.len()), (6, 2));
        assert!(fwd.get(54).is_none());

        // Normalising one side, then both, keeps them equal and sorts.
        fwd.normalize();
        assert_eq!(fwd, rev);
        rev.normalize();
        assert_eq!(fwd, rev);
        assert_eq!(ports(&fwd), [0, 53, 137, u16::MAX]);
        assert_eq!(ports(&rev), ports(&fwd));
        assert_eq!(rev.get(53).unwrap().packets, 6, "index rebuilt");

        // Any difference in packets, devices or rows breaks equality.
        let mut more = rev.clone();
        more.observe(53, 1, DeviceId(7));
        assert_ne!(more, fwd);
        let mut wider = rev.clone();
        wider.observe(137, 0, DeviceId(3));
        assert_ne!(wider, fwd);
        let mut longer = rev.clone();
        longer.observe(1, 0, DeviceId(3));
        assert_ne!(longer, fwd);

        // Merging splits of the sends reproduces the whole.
        let mut left = PortTable::new();
        let mut right = PortTable::new();
        for (i, &(port, pkts, dev)) in sends.iter().enumerate() {
            let half = if i % 2 == 0 { &mut left } else { &mut right };
            half.observe(port, pkts, DeviceId(dev));
        }
        right.merge_from(left);
        assert_eq!(right, fwd);
    }

    /// The rows of `t` as plain data, in row order.
    fn port_rows(t: &PortTable) -> Vec<(u16, u64, Vec<u32>)> {
        t.rows()
            .map(|r| (r.port, r.packets, r.devices.iter().map(|d| d.0).collect()))
            .collect()
    }

    type PortModel = BTreeMap<u16, (u64, BTreeSet<u32>)>;

    /// The same rows from the reference model: ascending by port, each
    /// run ascending.
    fn model_rows(model: &PortModel) -> Vec<(u16, u64, Vec<u32>)> {
        model
            .iter()
            .map(|(port, (pkts, devs))| (*port, *pkts, devs.iter().copied().collect()))
            .collect()
    }

    /// A few hot ports (long runs, many relocations), the two ends of
    /// the port space, and the whole space.
    fn port() -> impl Strategy<Value = u16> {
        prop_oneof![
            Just(0u16),
            Just(u16::MAX),
            Just(53u16),
            0u16..8,
            any::<u16>()
        ]
    }

    /// Device 0, a small id space (duplicates within a run), a wide one.
    fn device() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), 0u32..40, 0u32..5_000, any::<u32>()]
    }

    proptest! {
        #[test]
        fn port_table_equals_btree_model(
            sends in proptest::collection::vec((port(), 0u64..1_000, device()), 0..2_500),
            split in any::<u64>(),
        ) {
            let mut model = PortModel::new();
            let mut whole = PortTable::new();
            let (mut left, mut right) = (PortTable::new(), PortTable::new());
            for (i, &(port, pkts, dev)) in sends.iter().enumerate() {
                let entry = model.entry(port).or_default();
                entry.0 += pkts;
                entry.1.insert(dev);
                whole.observe(port, pkts, DeviceId(dev));
                let half = if (split >> (i % 64)) & 1 == 0 { &mut left } else { &mut right };
                half.observe(port, pkts, DeviceId(dev));
            }
            let expected = model_rows(&model);
            prop_assert_eq!(whole.len(), model.len());
            prop_assert_eq!(whole.total_packets(), model.values().map(|(p, _)| p).sum::<u64>());
            for (port, pkts, devs) in &expected {
                let row = whole.get(*port).unwrap();
                prop_assert_eq!(row.packets, *pkts);
                let ids: Vec<u32> = row.devices.iter().map(|d| d.0).collect();
                prop_assert_eq!(&ids, devs);
            }

            // Both merge orders of the split reproduce the whole, before
            // and after either side is normalized.
            let mut lr = left.clone();
            lr.merge_from(right.clone());
            let mut rl = right.clone();
            rl.merge_from(left.clone());
            prop_assert_eq!(&lr, &whole);
            prop_assert_eq!(&rl, &whole);
            prop_assert_eq!(&lr, &rl);
            lr.normalize();
            prop_assert_eq!(&lr, &whole);
            prop_assert_eq!(&lr, &rl);
            rl.normalize();
            prop_assert_eq!(port_rows(&lr), expected.clone());
            prop_assert_eq!(port_rows(&rl), expected.clone());

            // A clone is the same table, and later observes on the
            // original do not reach it.
            let copy = whole.clone();
            prop_assert_eq!(&copy, &whole);
            whole.observe(7, 1, DeviceId(u32::MAX - 1));
            whole.observe(u16::MAX, 1, DeviceId(3));
            prop_assert_ne!(&copy, &whole);
            let mut copy = copy;
            copy.normalize();
            prop_assert_eq!(port_rows(&copy), expected);
            // Normalizing is idempotent and leaves a compact arena.
            let bytes = copy.heap_bytes();
            copy.normalize();
            prop_assert_eq!(copy.heap_bytes(), bytes);
            prop_assert_eq!(copy.dead, 0);
            prop_assert_eq!(copy.arena.len(), model.values().map(|(_, d)| d.len()).sum::<usize>());
        }
    }

    #[test]
    fn port_table_runs_relocate_and_grow_past_4096_devices() {
        // One hot port filled descending (every insert shifts the whole
        // run) interleaved with 300 cold ports, so the hot run relocates
        // a dozen times with other runs allocated in between.
        let mut t = PortTable::new();
        for i in (0..5_000u32).rev() {
            t.observe(1900, 2, DeviceId(i * 3));
            t.observe((i % 300) as u16 + 2_000, 1, DeviceId(i));
        }
        t.observe(1900, 0, DeviceId(0)); // already present
        let hot = t.get(1900).unwrap();
        assert_eq!(hot.packets, 10_000);
        assert_eq!(hot.devices.len(), 5_000);
        assert!(hot.devices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(hot.devices[4_999], DeviceId(14_997));
        assert!(t.dead > 0, "relocation leaves dead slots behind");
        for cold in 2_000..2_300u16 {
            let row = t.get(cold).unwrap();
            assert!(row.devices.windows(2).all(|w| w[0] < w[1]));
            assert!(row.devices.len() >= 16);
        }

        // Normalizing keeps every run and drops the dead slots.
        let before = port_rows(&t);
        let copy = t.clone();
        t.normalize();
        assert_eq!(t, copy);
        assert_eq!(t.dead, 0);
        assert_eq!(t.arena.len(), 5_000 + 5_000);
        let mut sorted = before;
        sorted.sort();
        assert_eq!(port_rows(&t), sorted);

        // Merging a table into itself changes packets, not devices, and
        // keeps the arena within twice its live size.
        let mut twice = t.clone();
        for _ in 0..5 {
            twice.merge_from(t.clone());
        }
        assert_eq!(twice.get(1900).unwrap().packets, 60_000);
        assert_eq!(
            twice.get(1900).unwrap().devices,
            t.get(1900).unwrap().devices
        );
        assert!(twice.arena.len() <= 2 * 10_000, "{}", twice.arena.len());
    }

    #[test]
    fn service_table_lists_scanned_groups_in_table_v_order() {
        let mut t = ServiceTable::default();
        assert_eq!(t.iter().count(), 0);
        t.observe(ScanService::OTHER_GROUP, 1, 3, DeviceId(4));
        t.observe(ScanService::group_of_port(22), 0, 2, DeviceId(1));
        t.observe(ScanService::group_of_port(2323), 0, 0, DeviceId(1));
        let keys: Vec<ServiceKey> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                ServiceKey::Named(ScanService::Telnet),
                ServiceKey::Named(ScanService::Ssh),
                ServiceKey::Other
            ]
        );
        assert_eq!(t.get(ServiceKey::Other).packets, [0, 3]);
        assert_eq!(t.get(ServiceKey::Named(ScanService::Ftp)).packets, [0, 0]);
        for slot in 0..ScanService::GROUPS {
            assert_eq!(ServiceKey::from_slot(slot).slot(), slot);
        }
        let mut sum = ServiceTable::default();
        sum.merge_from(t.clone());
        sum.merge_from(t.clone());
        assert_eq!(sum.get(ServiceKey::Other).packets, [0, 6]);
        assert_eq!(
            sum.get(ServiceKey::Other).devices,
            t.get(ServiceKey::Other).devices
        );
    }

    #[test]
    fn equality_is_row_order_insensitive() {
        let mut a = DeviceTable::new();
        a.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        a.observe(DeviceId(2), Realm::Cps, 1, 2, 2, 0);
        let mut b = DeviceTable::new();
        b.observe(DeviceId(2), Realm::Cps, 1, 2, 2, 0);
        b.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        assert_eq!(a, b);
        // Normalizing one side must not break equality with the other.
        a.normalize();
        assert_eq!(a, b);
        b.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        assert_ne!(a, b);
    }
}
