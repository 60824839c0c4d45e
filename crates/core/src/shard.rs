//! Device-space sharded parallel analysis (DESIGN.md §3e).
//!
//! Partitioning the *hours* across workers would carry one full-width
//! [`Analyzer`] per worker, and at paper scale the single-threaded
//! merge of N 331k-row device tables loses to a sequential run (it was
//! tried and removed). This module partitions the *device space*: a
//! [`ShardMap`] assigns every dense intern index to one contiguous
//! shard, each worker owns one shard's aggregates, and the final merge
//! is a concatenation of disjoint dense-index ranges
//! ([`DeviceTable::concat_from`]) plus a cheap scalar reduction.
//!
//! Two roles cooperate, and every pool worker plays both:
//!
//! * a **router** ([`ShardRouter`]) decodes whole hours (it is the
//!   [`FlowSink`] on the fused decode path), runs the fold's front half
//!   over each block's columns — merge-join correlation to dense
//!   indexes, classification — and hands each hour over as one
//!   [`RoutedHour`]: compact [`RoutedFlow`] records batched per shard
//!   owner, plus the hour's destination-keyed distincts (dst IPs / dst
//!   ports) and unmatched totals. Those cannot be split by source
//!   device — the same destination shows up in several shards — so the
//!   worker that routed the hour adds them to its own [`RouterPartial`].
//!   Hours are disjoint across routers, so summing router partials is
//!   exact.
//! * a **shard owner** ([`ShardAccumulator`]) applies whole-hour
//!   batches of routed flows for its dense-index range through the
//!   fold's device half, one device run at a time. Everything
//!   keyed by source device — the device table, per-hour distinct
//!   device counts, per-service/per-port device sets, backscatter
//!   attribution — is shard-disjoint, so per-shard results sum or
//!   concatenate exactly.
//!
//! [`assemble`] folds router and shard partials into an [`Analysis`]
//! bit-identical to the sequential pass: per-shard tables are
//! normalized on their worker and concatenated in ascending shard
//! order, so the assembled table is already globally sorted and the
//! final [`DeviceTable::normalize`] is a no-op.
//!
//! [`Analyzer`]: crate::analysis::Analyzer
//! [`DeviceTable::concat_from`]: crate::table::DeviceTable::concat_from
//! [`DeviceTable::normalize`]: crate::table::DeviceTable::normalize
//! [`FlowSink`]: iotscope_net::store::FlowSink

use crate::analysis::Analysis;
use crate::fold::{classify_flows, DeviceFold, DstCounts, DstDistinct, HourPos};
pub use crate::fold::{RoutedFlow, RoutedHour};
use iotscope_devicedb::{DeviceDb, Realm, ShardMap};
use iotscope_net::store::{ColumnBlock, FlowSink};
use std::ops::Range;

/// The hour-keyed aggregates of the hours one worker routed:
/// destination-keyed per-hour distinct counts and unmatched-traffic
/// totals, as an otherwise-zero [`Analysis`]. Summing the partials of
/// all workers is exact because each hour is routed by exactly one.
#[derive(Debug)]
pub struct RouterPartial(Analysis);

impl RouterPartial {
    /// The zero partial of a window of `hours`.
    pub fn new(hours: u32) -> Self {
        RouterPartial(Analysis::empty(hours))
    }

    /// Add `hour`'s destination distincts and unmatched totals; its
    /// flows go to the shards separately
    /// ([`RoutedHour::into_batches`]).
    pub fn add(&mut self, hour: &RoutedHour) {
        hour.commit_hour_keyed(&mut self.0);
    }
}

/// Correlates, classifies, and fans one hour of flows out to device
/// shards: the fold's front half, on whichever thread reads the hour.
///
/// Call [`begin_hour`](Self::begin_hour), feed it as a `FlowSink`
/// (decoded blocks from a fused store decode, or flow slices), then
/// [`finish_hour`](Self::finish_hour) to take the hour as one
/// [`RoutedHour`]. Skipping `finish_hour` (after a decode error)
/// abandons the hour: nothing of it leaves the router, and the next
/// `begin_hour` discards it.
#[derive(Debug)]
pub struct ShardRouter<'a> {
    db: &'a DeviceDb,
    hours: u32,
    map: ShardMap,
    /// The hour being routed, between `begin_hour` and `finish_hour`.
    hour: Option<RoutedHour>,
    /// Per-hour destination-distinct state — the same front half of the
    /// fold the sequential analyzer runs.
    dst: DstDistinct,
    /// The block's merge-join correlation column, capacity reused
    /// across blocks.
    corr: Vec<Option<(u32, Realm)>>,
}

impl<'a> ShardRouter<'a> {
    /// A router over `db` for a window of `hours`, fanning out to
    /// `map.shards()` shards.
    pub fn new(db: &'a DeviceDb, hours: u32, map: ShardMap) -> Self {
        ShardRouter {
            db,
            hours,
            map,
            hour: None,
            dst: DstDistinct::new(),
            corr: Vec::new(),
        }
    }

    /// Start routing the hour at `interval` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn begin_hour(&mut self, interval: u32) {
        self.dst.clear();
        self.hour = Some(RoutedHour {
            at: HourPos::new(interval, self.hours),
            batches: (0..self.map.shards()).map(|_| Vec::new()).collect(),
            dst: DstCounts::default(),
            unmatched: (0, 0),
        });
    }

    /// Take the hour: its per-shard batches, destination distincts and
    /// unmatched totals.
    ///
    /// # Panics
    ///
    /// Panics without a preceding [`begin_hour`](Self::begin_hour).
    pub fn finish_hour(&mut self) -> RoutedHour {
        let mut hour = self.hour.take().expect("finish_hour without begin_hour");
        hour.dst = self.dst.counts();
        hour
    }
}

impl FlowSink for ShardRouter<'_> {
    /// The front half of the fold over one block: one merge-join pass
    /// over the block's `src_ip` column, then the column scan routes
    /// each correlated flow to its shard's batch.
    fn visit_block(&mut self, block: &ColumnBlock) {
        let hour = self
            .hour
            .as_mut()
            .expect("routing outside begin_hour/finish_hour");
        self.db
            .correlation_index()
            .correlate_sorted_block(block.src_ip(), &mut self.corr);
        let (map, batches) = (self.map, &mut hour.batches);
        let (flows, packets) = classify_flows(block, &self.corr, &mut self.dst, |f| {
            batches[map.shard_of(f.dense)].push(f);
        });
        hour.unmatched.0 += flows;
        hour.unmatched.1 += packets;
    }
}

/// The device-keyed aggregates for one contiguous dense-index shard.
///
/// Apply whole-hour [`RoutedFlow`] batches with
/// [`apply_hour`](Self::apply_hour); each batch must contain *all* of
/// an hour's flows for this shard (the per-batch distinct-device and
/// backscatter-attribution scratch folds once per batch, exactly like
/// the sequential per-hour fold).
#[derive(Debug)]
pub struct ShardAccumulator {
    range: Range<u32>,
    /// The device half of the fold, over this shard's dense range.
    dev: DeviceFold,
    out: Analysis,
}

impl ShardAccumulator {
    /// An empty accumulator for the dense-index `range` of a window of
    /// `hours`.
    pub fn new(hours: u32, range: Range<u32>) -> Self {
        ShardAccumulator {
            dev: DeviceFold::new(range.clone()),
            out: Analysis::empty(hours),
            range,
        }
    }

    /// Number of devices observed in this shard so far.
    pub fn device_count(&self) -> usize {
        self.out.devices.len()
    }

    /// Apply one whole-hour batch of routed flows for this shard.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window; debug builds also
    /// assert every flow is within the shard's dense range.
    pub fn apply_hour(&mut self, interval: u32, flows: &[RoutedFlow]) {
        let at = HourPos::new(interval, self.out.hours);
        debug_assert!(
            flows.iter().all(|f| self.range.contains(&f.dense)),
            "flow outside shard range"
        );
        self.dev.clear();
        self.dev.fold(&mut self.out, at, flows);
        // The shard's dominant backscatter victim for the hour; the
        // global per-hour victim is the merge of shard maxima.
        self.dev.commit(&mut self.out, at.idx);
    }

    /// Finish the shard: normalize the device table (on the worker, so
    /// the sort itself parallelizes across shards) and surrender the
    /// aggregates.
    pub fn finish(mut self) -> ShardPartial {
        self.out.devices.normalize();
        ShardPartial(self.out)
    }
}

/// One shard's finished device-keyed aggregates, ready for
/// [`assemble`]: an [`Analysis`] restricted to the shard's devices
/// (rows sorted by id), with no destination distincts.
#[derive(Debug)]
pub struct ShardPartial(Analysis);

impl ShardPartial {
    /// Number of devices observed in the shard.
    pub fn device_count(&self) -> usize {
        self.0.devices.len()
    }
}

/// Fold router and shard partials into the final [`Analysis`].
///
/// `shards` must be in ascending shard order so the per-shard device
/// tables — each covering its own dense-index range and already sorted
/// — concatenate into a globally sorted table, making the final
/// normalize a no-op and the result bit-identical to a sequential run.
pub fn assemble(hours: u32, routers: Vec<RouterPartial>, shards: Vec<ShardPartial>) -> Analysis {
    let mut out = Analysis::empty(hours);
    let partials = routers
        .into_iter()
        .map(|rp| rp.0)
        .chain(shards.into_iter().map(|sp| sp.0));
    for partial in partials {
        // Router partials hold no device rows and shards are disjoint.
        out.absorb(partial);
    }
    // Ascending sorted shards concatenate already-sorted; the device
    // sort is a no-op then, and a safety net for out-of-order callers
    // otherwise.
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, DeviceId, IotDevice, IspId};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    fn db(n: u32) -> DeviceDb {
        DeviceDb::from_devices((0..n).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(0x0a00_0001u32 + i * 7),
            profile: if i % 2 == 0 {
                DeviceProfile::Consumer(ConsumerKind::Router)
            } else {
                DeviceProfile::Cps(vec![CpsService::ModbusTcp])
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    /// A deterministic mixed-traffic hour touching every class.
    fn hour(db: &DeviceDb, interval: u32, seed: u64) -> HourTraffic {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let devices: Vec<_> = db.iter().collect();
        let mut flows = Vec::new();
        for _ in 0..200 {
            let r = next();
            let src = if r % 5 == 0 {
                Ipv4Addr::from(0xc0a8_0001u32 + (r % 50) as u32) // noise
            } else {
                devices[(r % devices.len() as u64) as usize].ip
            };
            let dst = Ipv4Addr::from(0x2c00_0000u32 + (next() % 300) as u32);
            let dport = (next() % 4000) as u16;
            let pkts = (next() % 9 + 1) as u32;
            let flow = match next() % 4 {
                0 => FlowTuple::tcp(src, dst, 40000, dport, TcpFlags::SYN),
                1 => FlowTuple::tcp(src, dst, 80, dport, TcpFlags::SYN | TcpFlags::ACK),
                2 => FlowTuple::udp(src, dst, 5000, dport),
                _ => FlowTuple::icmp(src, dst, iotscope_net::protocol::IcmpType::EchoRequest),
            };
            flows.push(flow.with_packets(pkts));
        }
        HourTraffic {
            interval,
            hour: UnixHour::new(7000 + u64::from(interval)),
            flows,
        }
    }

    /// Route hours through `routers` routers (round robin) and `shards`
    /// shards, apply the batches, and assemble.
    fn sharded(
        db: &DeviceDb,
        hours: u32,
        traffic: &[HourTraffic],
        routers: usize,
        shards: usize,
    ) -> Analysis {
        let map = ShardMap::new(db.len(), shards);
        let mut accs: Vec<ShardAccumulator> = (0..shards)
            .map(|s| ShardAccumulator::new(hours, map.range(s)))
            .collect();
        let mut parts = Vec::new();
        for w in 0..routers {
            let mut router = ShardRouter::new(db, hours, map);
            let mut part = RouterPartial::new(hours);
            for h in traffic.iter().skip(w).step_by(routers) {
                router.begin_hour(h.interval);
                router.on_flows(&h.flows);
                let routed = router.finish_hour();
                part.add(&routed);
                for (s, batch) in routed.into_batches().into_iter().enumerate() {
                    accs[s].apply_hour(h.interval, &batch);
                }
            }
            parts.push(part);
        }
        assemble(hours, parts, accs.into_iter().map(|a| a.finish()).collect())
    }

    /// The sequential analysis of `traffic`.
    fn sequential(db: &DeviceDb, hours: u32, traffic: &[HourTraffic]) -> Analysis {
        let mut seq = Analyzer::new(db, hours);
        for h in traffic {
            seq.ingest_hour(h);
        }
        seq.finish()
    }

    #[test]
    fn sharded_matches_sequential_across_shapes() {
        let db = db(37);
        let traffic: Vec<HourTraffic> = (1..=6).map(|i| hour(&db, i, 40 + u64::from(i))).collect();
        let seq = sequential(&db, 8, &traffic);
        for (routers, shards) in [(1, 1), (1, 4), (2, 3), (3, 8), (2, 64)] {
            let par = sharded(&db, 8, &traffic, routers, shards);
            assert_eq!(par, seq, "routers={routers} shards={shards}");
            assert_eq!(
                par.devices.ids(),
                seq.devices.ids(),
                "concatenated table must be sorted: routers={routers} shards={shards}"
            );
        }
    }

    #[test]
    fn port_table_is_the_same_via_assemble_and_one_pass() {
        let db = db(37);
        let traffic: Vec<HourTraffic> = (1..=6).map(|i| hour(&db, i, 70 + u64::from(i))).collect();
        let seq = sequential(&db, 8, &traffic);
        // Two routers over three shards: the assembled table meets
        // ports in another order than the sequential pass.
        let par = sharded(&db, 8, &traffic, 2, 3);
        let ports = |a: &Analysis| a.udp_ports.rows().map(|r| r.port).collect::<Vec<_>>();
        assert!(seq.udp_ports.len() > 100, "{} ports", seq.udp_ports.len());
        assert!(ports(&seq).windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(par.udp_ports, seq.udp_ports);
        assert_eq!(ports(&par), ports(&seq), "row order");
        assert_eq!(par.scan_services, seq.scan_services);
    }

    #[test]
    fn abandoned_hour_leaves_no_distincts_or_batches() {
        // An hour abandoned mid-decode (no finish_hour) never leaves the
        // router: no batches reach the shards, and neither its
        // per-hour distincts nor its unmatched totals are committed.
        let db = db(9);
        let h1 = hour(&db, 1, 99);
        let map = ShardMap::new(db.len(), 2);
        let mut router = ShardRouter::new(&db, 4, map);
        router.begin_hour(2);
        router.on_flows(&h1.flows);
        // …then route a clean hour.
        router.begin_hour(1);
        router.on_flows(&h1.flows);
        let routed = router.finish_hour();
        assert_eq!(routed.interval(), 1);
        let mut part = RouterPartial::new(4);
        part.add(&routed);
        let mut accs: Vec<ShardAccumulator> = (0..2)
            .map(|s| ShardAccumulator::new(4, map.range(s)))
            .collect();
        for (s, batch) in routed.into_batches().into_iter().enumerate() {
            accs[s].apply_hour(1, &batch);
        }
        let got = assemble(
            4,
            vec![part],
            accs.into_iter().map(|a| a.finish()).collect(),
        );

        let mut seq = Analyzer::new(&db, 4);
        seq.ingest_hour(&HourTraffic {
            interval: 1,
            ..h1.clone()
        });
        let seq = seq.finish();
        assert_eq!(got.devices, seq.devices, "abandoned flows never applied");
        assert_eq!(got.udp, seq.udp, "no distincts committed for hour 2");
        assert_eq!(got.tcp_scan, seq.tcp_scan);
        assert_eq!(got.backscatter_intervals, seq.backscatter_intervals);
        assert_eq!(got.udp[0].dst_ips[1], 0);
        assert!(seq.unmatched_flows > 0, "the hour carries noise");
        assert_eq!(got.unmatched_flows, seq.unmatched_flows);
        assert_eq!(got.unmatched_packets, seq.unmatched_packets);
    }
}
