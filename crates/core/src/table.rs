//! Columnar per-device aggregation storage.
//!
//! The correlation join (§III-B) produces one aggregate row per
//! compromised device; at paper scale that is tens of thousands of rows
//! out of a ~331k-device inventory, and at the ROADMAP's target scale it
//! is millions. [`DeviceTable`] keeps those rows as a struct-of-arrays
//! keyed by the inventory's dense intern index (see
//! [`DeviceDb::index_of`](iotscope_devicedb::DeviceDb::index_of)), so
//! the fold reaches a device's row by array index instead of by
//! per-key hashing.
//!
//! Every aggregate table stands on one `RowIndex`: the key column, a
//! dense `key → row` map, and the argsort that puts rows in key order.
//! Row order is *first-seen* while ingesting and *sorted by key* after
//! `normalize` (which [`Analyzer::finish`] calls), so a finished
//! [`Analysis`] is bit-identical between sequential and parallel runs.
//! Equality is row-order- and capacity-insensitive, preserving the
//! determinism contract even on un-normalized snapshots.
//!
//! The two port-keyed aggregates follow the same model: [`PortTable`]
//! (Table IV, one row per UDP destination port behind a 65,536-entry
//! port → row index, every row's devices an ascending run in one
//! shared arena) and [`ServiceTable`] (Table V's packets, one fixed slot
//! per service group; which devices scanned a group is a `DeviceTable`
//! column), so the per-flow fold reaches either with an array index.
//!
//! [`Analyzer::finish`]: crate::analysis::Analyzer::finish
//! [`Analysis`]: crate::analysis::Analysis

use crate::classify::TrafficClass;
use crate::fold::HourPos;
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_net::ports::ScanService;

/// Number of traffic classes (see [`crate::analysis::class_idx`]).
pub(crate) const NUM_CLASSES: usize = 5;

/// A key that is its own dense index: a device's intern index, a port.
pub(crate) trait DenseKey: Copy + Ord {
    /// The key's position in the `key → row` map.
    fn index(self) -> usize;
}

impl DenseKey for DeviceId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl DenseKey for u16 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
}

/// The row index under every aggregate table: the key column, a dense
/// `key → row + 1` map (0 = absent), and whether rows are in key order.
///
/// A table keeps its own columns beside it, appends to them when
/// [`upsert`](Self::upsert) reports a new row, and gathers them through
/// the permutation [`sort`](Self::sort) returns.
#[derive(Debug, Clone)]
pub(crate) struct RowIndex<K> {
    keys: Vec<K>,
    row_of: Vec<u32>,
    sorted: bool,
}

impl<K> Default for RowIndex<K> {
    fn default() -> Self {
        RowIndex {
            keys: Vec::new(),
            row_of: Vec::new(),
            sorted: true,
        }
    }
}

impl<K: DenseKey> RowIndex<K> {
    /// An empty index whose map already spans the keys below `span`.
    fn with_span(span: usize) -> Self {
        RowIndex {
            row_of: vec![0; span],
            ..RowIndex::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The keys in row order.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The row holding `key`, if any.
    #[inline]
    pub(crate) fn row(&self, key: K) -> Option<usize> {
        match self.row_of.get(key.index()) {
            Some(&r) if r != 0 => Some(r as usize - 1),
            _ => None,
        }
    }

    /// The row holding `key`, appending one if there is none; the flag
    /// says whether it was appended (and the table's columns must grow).
    #[inline]
    pub(crate) fn upsert(&mut self, key: K) -> (usize, bool) {
        let idx = key.index();
        if idx >= self.row_of.len() {
            self.row_of.resize(idx + 1, 0);
        }
        let slot = self.row_of[idx];
        if slot != 0 {
            return (slot as usize - 1, false);
        }
        let row = self.keys.len();
        if self.sorted && self.keys.last().is_some_and(|last| *last > key) {
            self.sorted = false;
        }
        self.keys.push(key);
        self.row_of[idx] = (row + 1) as u32;
        (row, true)
    }

    /// Sort rows by key and rebuild the map. Returns the permutation the
    /// table's columns must follow (see [`permute`]), or `None` when the
    /// rows were already sorted. O(n log n).
    pub(crate) fn sort(&mut self) -> Option<Vec<u32>> {
        if self.sorted {
            return None;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| self.keys[r as usize]);
        self.keys = permute(&self.keys, &perm);
        for (row, key) in self.keys.iter().enumerate() {
            self.row_of[key.index()] = (row + 1) as u32;
        }
        self.sorted = true;
        Some(perm)
    }

    /// Row-set equality whatever the row order: the same keys, and
    /// `same(row, other_row)` for the two rows of every key.
    pub(crate) fn rows_match(&self, other: &Self, same: impl Fn(usize, usize) -> bool) -> bool {
        self.len() == other.len()
            && self
                .keys
                .iter()
                .enumerate()
                .all(|(row, &key)| other.row(key).is_some_and(|orow| same(row, orow)))
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<K>()
            + self.row_of.capacity() * std::mem::size_of::<u32>()
    }
}

/// Gather `src` through the permutation `perm` (new row `i` = old row
/// `perm[i]`).
pub(crate) fn permute<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&r| src[r as usize]).collect()
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
/// and by [`DeviceId`] through a dense `device index → row` map that
/// exploits the inventory's id interning. While ingesting, rows are
/// appended in first-seen order; [`normalize`](Self::normalize) sorts
/// them by id so finished results are reproducible bit-for-bit
/// regardless of ingest order.
#[derive(Debug, Clone, Default)]
pub struct DeviceTable {
    /// Device id per row, and the id → row map.
    index: RowIndex<DeviceId>,
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
    /// Table V service groups scanned per row: bit `slot` for a TCP-scan
    /// flow to a port of [`ScanService::group_of_port`] `slot`,
    /// zero-packet flows included.
    services: Vec<u16>,
}

// One bit per Table V group.
const _: () = assert!(ScanService::GROUPS <= u16::BITS as usize);

impl DeviceTable {
    /// An empty table.
    pub fn new() -> Self {
        DeviceTable::default()
    }

    /// Number of rows (correlated devices).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row holding `id`, if the device has been observed.
    #[inline]
    pub fn row(&self, id: DeviceId) -> Option<usize> {
        self.index.row(id)
    }

    /// Whether the device has been observed.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.row(id).is_some()
    }

    /// Device ids in row order (sorted ascending iff the table is
    /// [`normalize`](Self::normalize)d).
    pub fn ids(&self) -> &[DeviceId] {
        self.index.keys()
    }

    /// Get-or-create the row for `id`, recording `realm` and the
    /// candidate `first_interval` on creation.
    #[inline]
    pub fn upsert(&mut self, id: DeviceId, realm: Realm, first_interval: u32) -> usize {
        let (row, appended) = self.index.upsert(id);
        if appended {
            self.realms.push(realm);
            self.first_interval.push(first_interval);
            self.flows.push(0);
            for col in &mut self.packets {
                col.push(0);
            }
            self.days_active.push(0);
            self.services.push(0);
        }
        row
    }

    /// Record one run of `flows` flows from `id` in the hour `at`,
    /// carrying `packets[class]` packets of each class and scanning the
    /// Table V groups in the `services` mask — one row update however
    /// long the run. The hot path of every ingest (the device fold calls
    /// it once per source-device run).
    #[inline]
    pub(crate) fn observe_run(
        &mut self,
        id: DeviceId,
        realm: Realm,
        at: HourPos,
        flows: u64,
        packets: &[u64; NUM_CLASSES],
        services: u16,
    ) {
        let row = self.upsert(id, realm, at.interval);
        let fi = &mut self.first_interval[row];
        *fi = (*fi).min(at.interval);
        self.flows[row] += flows;
        for (col, &pkts) in self.packets.iter_mut().zip(packets) {
            col[row] += pkts;
        }
        self.days_active[row] |= 1 << at.day.min(63);
        self.services[row] |= services;
    }

    /// Materialize the observation at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn observation_at(&self, row: usize) -> DeviceObservation {
        DeviceObservation {
            device: self.ids()[row],
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

    /// The Table V groups the device in `row` scanned: bit `slot` for
    /// [`ScanService::group_of_port`] `slot`.
    #[inline]
    pub(crate) fn services_at(&self, row: usize) -> u16 {
        self.services[row]
    }

    /// Sort rows by device id, making row order (and therefore
    /// serialization and iteration) independent of ingest order.
    /// O(n log n); no-op when already sorted.
    pub fn normalize(&mut self) {
        let Some(perm) = self.index.sort() else {
            return;
        };
        self.realms = permute(&self.realms, &perm);
        self.first_interval = permute(&self.first_interval, &perm);
        self.flows = permute(&self.flows, &perm);
        for col in &mut self.packets {
            *col = permute(col, &perm);
        }
        self.days_active = permute(&self.days_active, &perm);
        self.services = permute(&self.services, &perm);
    }

    /// Approximate heap footprint in bytes (columns + row index).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.heap_bytes()
            + self.realms.capacity() * size_of::<Realm>()
            + self.first_interval.capacity() * size_of::<u32>()
            + self.flows.capacity() * size_of::<u64>()
            + self
                .packets
                .iter()
                .map(|c| c.capacity() * size_of::<u64>())
                .sum::<usize>()
            + self.days_active.capacity() * size_of::<u64>()
            + self.services.capacity() * size_of::<u16>()
    }
}

/// Row-set equality, insensitive to row order and index capacity — two
/// tables describing the same devices compare equal even if one was
/// built in another order and not yet normalized.
impl PartialEq for DeviceTable {
    fn eq(&self, other: &Self) -> bool {
        self.index.rows_match(&other.index, |row, orow| {
            self.realms[row] == other.realms[orow]
                && self.first_interval[row] == other.first_interval[orow]
                && self.flows[row] == other.flows[orow]
                && (0..NUM_CLASSES).all(|c| self.packets[c][row] == other.packets[c][orow])
                && self.days_active[row] == other.days_active[orow]
                && self.services[row] == other.services[orow]
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
/// `port → row` map over the whole 2^16 port space.
///
/// The sending devices of *all* rows live in one shared arena, each
/// row's as an ascending run (`Run`), so the table is five
/// allocations whatever the number of ports: cloning or dropping it is
/// a handful of `memcpy`s/`free`s rather than one per port. A full run
/// moves to the arena's end at twice its capacity, leaving its old
/// slots dead; where that would make the dead slots more than a quarter
/// of the arena, the move also closes every gap in place, so a clone
/// taken mid-ingest copies few dead slots.
/// [`normalize`](Self::normalize) rewrites the arena without dead or
/// spare slots.
///
/// Rows are appended in first-seen order while ingesting;
/// [`normalize`](Self::normalize) sorts them ascending by port, so
/// finished results iterate identically regardless of ingest order.
/// Equality is insensitive to row order and arena layout.
#[derive(Debug, Clone)]
pub struct PortTable {
    /// Port per row, and the port → row map.
    index: RowIndex<u16>,
    /// Packets per row.
    packets: Vec<u64>,
    /// Device run per row.
    runs: Vec<Run>,
    /// Every row's devices; only the ranges `runs` points at are live.
    arena: Vec<DeviceId>,
    /// Arena slots no run covers any more (abandoned by relocation).
    dead: usize,
    /// Whether the arena is laid out in row order with no dead or spare
    /// slots.
    compacted: bool,
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
            index: RowIndex::with_span(usize::from(u16::MAX) + 1),
            packets: Vec::new(),
            runs: Vec::new(),
            arena: Vec::new(),
            dead: 0,
            compacted: true,
        }
    }

    /// Number of rows (distinct ports observed).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no port has been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get-or-create the row for `port`.
    #[inline]
    fn upsert(&mut self, port: u16) -> usize {
        let (row, appended) = self.index.upsert(port);
        if appended {
            self.packets.push(0);
            self.runs.push(Run::default());
        }
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
        self.compacted = false;
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
            let cap = (run.cap * 2).max(FIRST_RUN_CAP);
            // Moving the run leaves its old slots dead. Where that would
            // make the dead slots more than a quarter of the arena, the
            // move also closes every gap. (Moves alone keep them just
            // under half: each leaves `cap / 2` dead behind `cap` new
            // slots.)
            if 4 * (self.dead + run.cap as usize) > self.arena.len() + cap as usize {
                self.relocate_reclaiming(row, cap);
            } else {
                self.relocate(row, cap);
            }
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
            port: self.index.keys()[row],
            packets: self.packets[row],
            devices: &self.arena[self.runs[row].range()],
        }
    }

    /// The row for `port`, if any packet was sent to it.
    pub fn get(&self, port: u16) -> Option<PortRow<'_>> {
        self.index.row(port).map(|row| self.row_at(row))
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

    /// Move `row`'s run to the arena's end with room for `cap` devices,
    /// then close every gap in place: each run moves down over the dead
    /// slots before it (keeping their arena order) and loses its spare
    /// ones, all but `row`, which is last. The arena keeps its
    /// capacity, so the moves that follow fill it instead of growing it.
    fn relocate_reclaiming(&mut self, row: usize, cap: u32) {
        self.relocate(row, cap);
        // Rows in arena order, as `offset << 32 | row` keys.
        let mut order: Vec<u64> = (self.runs.iter().enumerate())
            .map(|(r, run)| u64::from(run.offset) << 32 | r as u64)
            .collect();
        order.sort_unstable();
        let mut end = 0;
        for key in order {
            let r = key as u32 as usize;
            let run = &mut self.runs[r];
            self.arena.copy_within(run.range(), end);
            if r != row {
                run.cap = run.len;
            }
            run.offset = arena_index(end);
            end += run.cap as usize;
        }
        self.arena.truncate(end);
        self.dead = 0;
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
        self.compacted = true;
    }

    /// Sort rows ascending by port and rewrite the arena compactly in
    /// port order. No-op when already so.
    pub fn normalize(&mut self) {
        if let Some(perm) = self.index.sort() {
            self.packets = permute(&self.packets, &perm);
            self.runs = permute(&self.runs, &perm);
        } else if self.compacted {
            return;
        }
        self.compact();
    }

    /// Approximate heap footprint in bytes (columns, arena and index).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.heap_bytes()
            + self.packets.capacity() * size_of::<u64>()
            + self.runs.capacity() * size_of::<Run>()
            + self.arena.capacity() * size_of::<DeviceId>()
    }
}

/// Row-set equality, insensitive to row order and arena layout.
impl PartialEq for PortTable {
    fn eq(&self, other: &Self) -> bool {
        self.index.rows_match(&other.index, |row, orow| {
            self.row_at(row) == other.row_at(orow)
        })
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
    /// [`ScanService::group_of_port`] gives the group's ports, and its
    /// bit in the `DeviceTable` scanned-group column.
    pub(crate) fn slot(self) -> usize {
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

/// Table V packet statistics: one fixed slot per service group, in
/// Table V order with the unnamed tail last, indexed by
/// [`ScanService::group_of_port`]. Which devices scanned a group is a
/// [`DeviceTable`] column, counted by
/// [`scan::protocol_table`](crate::scan::protocol_table).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceTable {
    /// Scan packets per slot and realm (`[consumer, cps]`).
    packets: [[u64; 2]; ScanService::GROUPS],
    /// Bit `slot` set once any flow scanned the slot's group, zero-packet
    /// flows included.
    scanned: u16,
}

impl ServiceTable {
    /// Record `pkts` scan packets from a device of realm index `r` to a
    /// port of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= ScanService::GROUPS` or `r >= 2`.
    #[inline]
    pub fn observe(&mut self, slot: usize, r: usize, pkts: u64) {
        self.packets[slot][r] += pkts;
        self.scanned |= 1 << slot;
    }

    /// The packets per realm (`[consumer, cps]`) sent to `key`'s group
    /// (zero if it was never scanned).
    pub fn get(&self, key: ServiceKey) -> [u64; 2] {
        self.packets[key.slot()]
    }

    /// The groups that were scanned by at least one flow, with their
    /// packets per realm, in Table V order with [`ServiceKey::Other`]
    /// last.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceKey, [u64; 2])> + '_ {
        (0..ScanService::GROUPS)
            .filter(|slot| self.scanned & (1 << slot) != 0)
            .map(|slot| (ServiceKey::from_slot(slot), self.packets[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The hour of `interval` on day `day`.
    fn at(interval: u32, day: u32) -> HourPos {
        HourPos {
            interval,
            idx: interval as usize - 1,
            day,
        }
    }

    /// Record one flow for `id` in `t`: `pkts` packets of class `class`
    /// in the hour `at`.
    fn observe(
        t: &mut DeviceTable,
        id: DeviceId,
        realm: Realm,
        class: usize,
        pkts: u64,
        at: HourPos,
    ) {
        let mut packets = [0; NUM_CLASSES];
        packets[class] = pkts;
        t.observe_run(id, realm, at, 1, &packets, 0);
    }

    #[test]
    fn table_upsert_observe_get() {
        let mut t = DeviceTable::new();
        observe(&mut t, DeviceId(7), Realm::Cps, 0, 5, at(10, 0));
        observe(&mut t, DeviceId(7), Realm::Cps, 3, 2, at(4, 1));
        observe(&mut t, DeviceId(2), Realm::Consumer, 3, 1, at(8, 0));
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
            observe(&mut t, DeviceId(id), Realm::Consumer, 0, 1, at(1, 0));
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
        observe(&mut t, DeviceId(12), Realm::Cps, 1, 1, at(2, 0));
        t.normalize();
        assert_eq!(t.ids().last(), Some(&DeviceId(12)));
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

        // One table fed the odd sends, then the even ones, is the whole.
        let mut split = PortTable::new();
        for parity in [1, 0] {
            for (_, &(port, pkts, dev)) in sends.iter().enumerate().filter(|(i, _)| i % 2 == parity)
            {
                split.observe(port, pkts, DeviceId(dev));
            }
        }
        assert_eq!(split, fwd);
    }

    /// The rows of `t` as plain data, in row order.
    fn port_rows(t: &PortTable) -> Vec<(u16, u64, Vec<u32>)> {
        t.rows()
            .map(|r| (r.port, r.packets, r.devices.iter().map(|d| d.0).collect()))
            .collect()
    }

    /// The row of `port` as plain data.
    fn port_row(t: &PortTable, port: u16) -> (u16, u64, Vec<u32>) {
        let row = t.get(port).expect("observed port has a row");
        (port, row.packets, row.devices.iter().map(|d| d.0).collect())
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
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (i, &(port, pkts, dev)) in sends.iter().enumerate() {
                let entry = model.entry(port).or_default();
                entry.0 += pkts;
                entry.1.insert(dev);
                let dead = whole.dead;
                whole.observe(port, pkts, DeviceId(dev));
                // The dead slots stay at most a quarter of the arena, and
                // the arena rewrite that keeps them there loses no device.
                prop_assert!(4 * whole.dead <= whole.arena.len());
                let rows = if whole.dead < dead {
                    port_rows(&whole)
                } else {
                    vec![port_row(&whole, port)]
                };
                for (port, pkts, devs) in rows {
                    let (want_pkts, want_devs) = &model[&port];
                    prop_assert_eq!(pkts, *want_pkts);
                    prop_assert!(devs.iter().eq(want_devs.iter()));
                }
                let half = if (split >> (i % 64)) & 1 == 0 { &mut left } else { &mut right };
                half.push((port, pkts, dev));
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

            // One table fed either half of the split first is the whole,
            // before and after either side is normalized.
            let fed = |first: &[(u16, u64, u32)], second: &[(u16, u64, u32)]| {
                let mut t = PortTable::new();
                for &(port, pkts, dev) in first.iter().chain(second) {
                    t.observe(port, pkts, DeviceId(dev));
                }
                t
            };
            let mut lr = fed(&left, &right);
            let mut rl = fed(&right, &left);
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
        // run) interleaved with 300 cold ports, so the hot run grows a
        // dozen times with other runs allocated in between. Runs move
        // (leaving dead slots) and the arena is rewritten (dropping
        // them), keeping the dead slots to a quarter of it.
        let mut t = PortTable::new();
        let (mut moved, mut rewritten) = (false, false);
        for i in (0..5_000u32).rev() {
            for (port, id) in [(1900, i * 3), ((i % 300) as u16 + 2_000, i)] {
                let dead = t.dead;
                t.observe(port, u64::from(port == 1900) + 1, DeviceId(id));
                moved |= t.dead > dead;
                rewritten |= t.dead < dead;
                assert!(
                    4 * t.dead <= t.arena.len(),
                    "{} of {}",
                    t.dead,
                    t.arena.len()
                );
            }
        }
        assert!(moved && rewritten);
        assert!(t.arena.len() <= 2 * 10_000, "arena {}", t.arena.len());
        t.observe(1900, 0, DeviceId(0)); // already present
        let hot = t.get(1900).unwrap();
        assert_eq!(hot.packets, 10_000);
        assert_eq!(hot.devices.len(), 5_000);
        assert!(hot.devices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(hot.devices[4_999], DeviceId(14_997));
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

        // Observing every row's sends five times more changes packets,
        // not devices, and grows no run.
        let mut again = t.clone();
        for _ in 0..5 {
            for (port, pkts, devices) in port_rows(&t) {
                again.observe(port, pkts, DeviceId(devices[0]));
                for dev in devices {
                    again.observe(port, 0, DeviceId(dev));
                }
            }
        }
        assert_eq!(again.get(1900).unwrap().packets, 60_000);
        assert_eq!(
            again.get(1900).unwrap().devices,
            t.get(1900).unwrap().devices
        );
        assert_eq!(again.arena.len(), 10_000);
    }

    #[test]
    fn service_table_lists_scanned_groups_in_table_v_order() {
        let mut t = ServiceTable::default();
        assert_eq!(t.iter().count(), 0);
        t.observe(ScanService::OTHER_GROUP, 1, 3);
        t.observe(ScanService::group_of_port(22), 0, 2);
        // A zero-packet flow still lists its group.
        t.observe(ScanService::group_of_port(2323), 0, 0);
        let keys: Vec<ServiceKey> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                ServiceKey::Named(ScanService::Telnet),
                ServiceKey::Named(ScanService::Ssh),
                ServiceKey::Other
            ]
        );
        assert_eq!(t.get(ServiceKey::Other), [0, 3]);
        assert_eq!(t.get(ServiceKey::Named(ScanService::Ftp)), [0, 0]);
        for slot in 0..ScanService::GROUPS {
            assert_eq!(ServiceKey::from_slot(slot).slot(), slot);
        }
        // The same observations twice double the packets and list the
        // same groups.
        let mut twice = ServiceTable::default();
        for _ in 0..2 {
            twice.observe(ScanService::OTHER_GROUP, 1, 3);
            twice.observe(ScanService::group_of_port(22), 0, 2);
            twice.observe(ScanService::group_of_port(2323), 0, 0);
        }
        assert_eq!(twice.get(ServiceKey::Other), [0, 6]);
        assert!(twice.iter().map(|(k, _)| k).eq(t.iter().map(|(k, _)| k)));
    }

    #[test]
    fn equality_is_row_order_insensitive() {
        let mut a = DeviceTable::new();
        observe(&mut a, DeviceId(5), Realm::Consumer, 0, 1, at(1, 0));
        observe(&mut a, DeviceId(2), Realm::Cps, 1, 2, at(2, 0));
        let mut b = DeviceTable::new();
        observe(&mut b, DeviceId(2), Realm::Cps, 1, 2, at(2, 0));
        observe(&mut b, DeviceId(5), Realm::Consumer, 0, 1, at(1, 0));
        assert_eq!(a, b);
        // Normalizing one side must not break equality with the other.
        a.normalize();
        assert_eq!(a, b);
        observe(&mut b, DeviceId(5), Realm::Consumer, 0, 1, at(1, 0));
        assert_ne!(a, b);
    }
}
