//! The per-flow ingest fold (DESIGN.md §3d), written once.
//!
//! Every flowtuple passes through two halves:
//!
//! * the **front half** ([`classify_flows`]) correlates the source to a
//!   device, classifies the flow and counts the hour's distinct
//!   destinations ([`DstDistinct`]) — state keyed by *destination*,
//!   which needs the whole hour in one place;
//! * the **device half** ([`DeviceFold::observe`]) writes everything
//!   keyed by the *source device* into an [`Analysis`].
//!
//! The sequential [`Analyzer`](crate::analysis::Analyzer) runs the two
//! back to back per flow. The sharded pipeline splits them across
//! threads: a [`ShardRouter`](crate::shard::ShardRouter) runs the front
//! half and ships [`RoutedFlow`]s to the
//! [`ShardAccumulator`](crate::shard::ShardAccumulator) owning the
//! device, which runs the device half. Same functions, same state
//! types, so sequential ≡ sharded ≡ streaming by construction.

use crate::analysis::{class_idx, merge_top_victim, realm_idx, Analysis};
use crate::classify::{classify, TrafficClass};
use crate::distinct::{PortScratch, U32Set};
use crate::table::DeviceSet;
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::protocol::TransportProtocol;
use std::ops::Range;

/// Realm lookup by [`realm_idx`] value.
const REALMS: [Realm; 2] = [Realm::Consumer, Realm::Cps];

/// `class_idx` values the device half branches on (asserted against
/// [`class_idx`] in tests).
const CLASS_TCP_SCAN: u8 = 0;
const CLASS_BACKSCATTER: u8 = 2;
const CLASS_UDP: u8 = 3;

/// One correlated, classified flow, reduced to what the device half
/// needs: 16 bytes instead of a full `FlowTuple`. The destination
/// address is deliberately absent — destination-keyed distincts belong
/// to the front half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedFlow {
    /// Dense intern index of the source device (== `DeviceId` value).
    pub dense: u32,
    /// Packets in the flow record.
    pub packets: u32,
    /// Destination port (drives per-service / per-UDP-port stats).
    pub dst_port: u16,
    /// [`class_idx`] of the classified flow.
    pub class: u8,
    /// [`realm_idx`] of the source device.
    pub realm: u8,
    /// Transport in Fig 4 order: ICMP 0, TCP 1, UDP 2.
    pub proto: u8,
}

/// Where in the window an hour falls.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HourPos {
    /// 1-based interval.
    pub(crate) interval: u32,
    /// `interval - 1`, the index into the hourly series.
    pub(crate) idx: usize,
    /// 0-based day of the window.
    pub(crate) day: u32,
}

impl HourPos {
    /// # Panics
    ///
    /// Panics if `interval` is outside `1..=hours`.
    pub(crate) fn new(interval: u32, hours: u32) -> Self {
        assert!(
            interval >= 1 && interval <= hours,
            "interval {interval} outside 1..={hours}"
        );
        HourPos {
            interval,
            idx: (interval - 1) as usize,
            day: (interval - 1) / 24,
        }
    }
}

/// One hour's destination-keyed distinct state, per realm.
#[derive(Debug)]
pub(crate) struct DstDistinct {
    udp_ips: [U32Set; 2],
    scan_ips: [U32Set; 2],
    udp_ports: [PortScratch; 2],
    scan_ports: [PortScratch; 2],
}

impl DstDistinct {
    pub(crate) fn new() -> Self {
        DstDistinct {
            udp_ips: [U32Set::new(), U32Set::new()],
            scan_ips: [U32Set::new(), U32Set::new()],
            udp_ports: [PortScratch::new(), PortScratch::new()],
            scan_ports: [PortScratch::new(), PortScratch::new()],
        }
    }

    /// Start a new hour.
    pub(crate) fn clear(&mut self) {
        for r in 0..2 {
            self.udp_ips[r].clear();
            self.scan_ips[r].clear();
            self.udp_ports[r].clear();
            self.scan_ports[r].clear();
        }
    }

    #[inline]
    fn observe(&mut self, class: TrafficClass, r: usize, flow: &FlowTuple) {
        match class {
            TrafficClass::Udp => {
                self.udp_ips[r].insert(u32::from(flow.dst_ip));
                self.udp_ports[r].insert(flow.dst_port);
            }
            TrafficClass::TcpScan => {
                self.scan_ips[r].insert(u32::from(flow.dst_ip));
                self.scan_ports[r].insert(flow.dst_port);
            }
            _ => {}
        }
    }

    /// Add the hour's distinct destination counts to `result`.
    pub(crate) fn commit(&mut self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].dst_ips[idx] += self.udp_ips[r].len() as u64;
            result.udp[r].dst_ports[idx] += self.udp_ports[r].len() as u64;
            result.tcp_scan[r].dst_ips[idx] += self.scan_ips[r].len() as u64;
            result.tcp_scan[r].dst_ports[idx] += self.scan_ports[r].len() as u64;
        }
    }
}

/// The front half of the fold over one slice of an hour's flows:
/// `correlated` supplies each flow's device correlation (a per-record
/// index probe, or a precomputed merge-join column); correlated flows
/// are classified, counted into `dst` and handed to `sink`. Returns the
/// `(flows, packets)` of the sources outside the inventory.
#[inline]
pub(crate) fn classify_flows(
    flows: &[FlowTuple],
    mut correlated: impl FnMut(usize, &FlowTuple) -> Option<(u32, Realm)>,
    dst: &mut DstDistinct,
    mut sink: impl FnMut(RoutedFlow),
) -> (u64, u64) {
    let mut unmatched = (0u64, 0u64);
    for (flow_i, flow) in flows.iter().enumerate() {
        let Some((dense, realm)) = correlated(flow_i, flow) else {
            unmatched.0 += 1;
            unmatched.1 += u64::from(flow.packets);
            continue;
        };
        let class = classify(flow);
        let r = realm_idx(realm);
        dst.observe(class, r, flow);
        sink(RoutedFlow {
            dense,
            packets: flow.packets,
            dst_port: flow.dst_port,
            class: class_idx(class) as u8,
            realm: r as u8,
            proto: match flow.protocol {
                TransportProtocol::Icmp => 0,
                TransportProtocol::Tcp => 1,
                TransportProtocol::Udp => 2,
            },
        });
    }
    unmatched
}

/// The device half of the fold: per-hour scratch for the devices of one
/// dense-index range, plus the per-flow write into an [`Analysis`].
#[derive(Debug)]
pub(crate) struct DeviceFold {
    /// Distinct UDP-emitting / scanning devices this hour, per realm.
    udp_devs: [DeviceSet; 2],
    scan_devs: [DeviceSet; 2],
    /// Backscatter packets this hour, indexed by `dense - base` (zeroed
    /// between hours via `bs_touched`).
    bs_counts: Vec<u64>,
    bs_touched: Vec<u32>,
    base: u32,
}

impl DeviceFold {
    /// Scratch for devices whose dense index lies in `range`.
    pub(crate) fn new(range: Range<u32>) -> Self {
        let set = || DeviceSet::with_capacity(range.end as usize);
        DeviceFold {
            udp_devs: [set(), set()],
            scan_devs: [set(), set()],
            bs_counts: vec![0; range.len()],
            bs_touched: Vec::new(),
            base: range.start,
        }
    }

    /// Start a new hour.
    pub(crate) fn clear(&mut self) {
        for r in 0..2 {
            self.udp_devs[r].clear();
            self.scan_devs[r].clear();
        }
        for &off in &self.bs_touched {
            self.bs_counts[off as usize] = 0;
        }
        self.bs_touched.clear();
    }

    /// Fold one classified flow of the hour at `at` into `result`.
    #[inline]
    pub(crate) fn observe(&mut self, result: &mut Analysis, at: HourPos, f: RoutedFlow) {
        // Dense-id contract: the intern index *is* the device id.
        let id = DeviceId(f.dense);
        let r = usize::from(f.realm);
        let pkts = u64::from(f.packets);
        result.devices.observe(
            id,
            REALMS[r],
            usize::from(f.class),
            pkts,
            at.interval,
            at.day,
        );
        result.protocol_packets[r][usize::from(f.proto)] += pkts;
        match f.class {
            CLASS_UDP => {
                result.udp[r].packets[at.idx] += pkts;
                self.udp_devs[r].insert(id);
                result.udp_ports.observe(f.dst_port, pkts, id);
            }
            CLASS_TCP_SCAN => {
                result.tcp_scan[r].packets[at.idx] += pkts;
                self.scan_devs[r].insert(id);
                let slot = ScanService::group_of_port(f.dst_port);
                result.scan_services.observe(slot, r, pkts, id);
                // TOP5_SERVICES are the first five Table V groups.
                if let Some(series) = result.top5_series[at.idx].get_mut(slot) {
                    *series += pkts;
                }
            }
            CLASS_BACKSCATTER => {
                result.backscatter_hourly[r][at.idx] += pkts;
                let off = (f.dense - self.base) as usize;
                if self.bs_counts[off] == 0 {
                    self.bs_touched.push(off as u32);
                }
                self.bs_counts[off] += pkts;
            }
            _ => {}
        }
    }

    /// Commit the hour: add the distinct-device counts and attribute
    /// the hour's backscatter to its dominant victim among this fold's
    /// devices. Ties break toward the smaller device id, so the result
    /// depends neither on accumulation order nor on how devices are
    /// split across folds.
    pub(crate) fn commit(&self, result: &mut Analysis, idx: usize) {
        for r in 0..2 {
            result.udp[r].devices[idx] += self.udp_devs[r].len() as u64;
            result.tcp_scan[r].devices[idx] += self.scan_devs[r].len() as u64;
        }
        let mut top: Option<(DeviceId, u64)> = None;
        let mut total = 0u64;
        for &off in &self.bs_touched {
            let cnt = self.bs_counts[off as usize];
            let id = DeviceId(self.base + off);
            total += cnt;
            if top.is_none_or(|(bd, bc)| cnt > bc || (cnt == bc && id < bd)) {
                top = Some((id, cnt));
            }
        }
        let slot = &mut result.backscatter_intervals[idx];
        slot.total += total;
        merge_top_victim(&mut slot.top_victim, top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TOP5_SERVICES;

    #[test]
    fn class_codes_match_class_idx() {
        assert_eq!(CLASS_TCP_SCAN as usize, class_idx(TrafficClass::TcpScan));
        assert_eq!(
            CLASS_BACKSCATTER as usize,
            class_idx(TrafficClass::Backscatter)
        );
        assert_eq!(CLASS_UDP as usize, class_idx(TrafficClass::Udp));
        for (r, realm) in REALMS.into_iter().enumerate() {
            assert_eq!(realm_idx(realm), r);
        }
    }

    #[test]
    fn top5_services_are_the_first_five_table_v_groups() {
        assert_eq!(TOP5_SERVICES, ScanService::ALL[..5]);
    }
}
