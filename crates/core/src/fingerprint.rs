//! Fuzzy fingerprinting of unindexed IoT devices (§VI).
//!
//! The paper's first follow-up: "exploring fuzzy matching algorithms …
//! to identify a broader range of IoT devices (previously not indexed by
//! Shodan) as perceived by the network telescope by leveraging
//! IoT-relevant darknet traffic (from previously inferred IoT devices)."
//!
//! [`FingerprintModel::train`] learns reference profiles from the traffic
//! of *matched* (inventory-correlated) IoT devices — scanned-port
//! histogram, protocol mix, and traffic-class mix.
//! [`FingerprintModel::score`] then rates any unmatched source's
//! similarity to that learned behavior, and
//! [`candidate_iot_devices`] returns the unmatched sources that look like
//! IoT devices even though no inventory lists them.

use crate::behavior::{cosine, BehaviorVector};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Minimum devices sharing a dominant port before the group becomes a
/// reference profile (a single odd device must not define "IoT behavior").
pub const MIN_GROUP_SIZE: usize = 3;

/// A trained reference profile of IoT darknet behavior.
///
/// IoT scanners specialize (a CWMP-only scanner looks nothing like a
/// Telnet worm), so one aggregate histogram would reject most of them.
/// The model instead learns one reference histogram per *dominant port
/// group* — all matched devices whose most-scanned port agrees — and
/// scores a candidate against its best-matching group.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintModel {
    /// Per-dominant-port reference histograms (groups with at least
    /// [`MIN_GROUP_SIZE`] members).
    groups: Vec<(u16, BTreeMap<u16, u64>)>,
    /// Aggregated protocol mix `[ICMP, TCP, UDP]`, normalized.
    protocol_profile: [f64; 3],
    /// Aggregated traffic-class mix, normalized.
    class_profile: [f64; 5],
    /// Number of devices trained on.
    trained_on: usize,
}

/// A source flagged as a likely unindexed IoT device.
#[derive(Debug, Clone, PartialEq)]
pub struct IotCandidate {
    /// The unmatched source address.
    pub ip: Ipv4Addr,
    /// Similarity score in `0.0..=1.0`.
    pub score: f64,
    /// Total packets observed from the source.
    pub packets: u64,
}

impl FingerprintModel {
    /// Train on the matched IoT devices among `vectors`.
    ///
    /// Returns `None` when no matched device is present (nothing to learn
    /// from).
    pub fn train(vectors: &HashMap<Ipv4Addr, BehaviorVector>) -> Option<FingerprintModel> {
        let mut group_hists: BTreeMap<u16, (usize, BTreeMap<u16, u64>)> = BTreeMap::new();
        let mut protocol = [0u64; 3];
        let mut class = [0u64; 5];
        let mut trained_on = 0usize;
        for v in vectors.values() {
            if v.device.is_none() {
                continue;
            }
            trained_on += 1;
            if let Some(dominant) = v.top_ports(1).first().copied() {
                let entry = group_hists.entry(dominant).or_default();
                entry.0 += 1;
                for (p, c) in &v.scan_ports {
                    *entry.1.entry(*p).or_insert(0) += c;
                }
            }
            for (acc, obs) in protocol.iter_mut().zip(v.protocol.iter()) {
                *acc += obs;
            }
            for (acc, obs) in class.iter_mut().zip(v.class.iter()) {
                *acc += obs;
            }
        }
        if trained_on == 0 {
            return None;
        }
        let groups: Vec<(u16, BTreeMap<u16, u64>)> = group_hists
            .into_iter()
            .filter(|(_, (members, _))| *members >= MIN_GROUP_SIZE)
            .map(|(port, (_, hist))| (port, hist))
            .collect();
        Some(FingerprintModel {
            groups,
            protocol_profile: normalize3(protocol),
            class_profile: normalize5(class),
            trained_on,
        })
    }

    /// Number of dominant-port reference groups the model holds.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of devices the model was trained on.
    pub fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// Score a source's similarity to the learned IoT behavior
    /// (`0.0..=1.0`). The score blends the best group's scanned-port
    /// cosine similarity (weight 0.6), protocol-mix similarity (0.2) and
    /// traffic-class-mix similarity (0.2); a source that scans none of
    /// the IoT-associated ports scores near zero.
    pub fn score(&self, v: &BehaviorVector) -> f64 {
        let port_sim = self
            .groups
            .iter()
            .map(|(_, hist)| cosine(hist, &v.scan_ports))
            .fold(0.0, f64::max);
        let proto_sim = mix_similarity3(self.protocol_profile, normalize3(v.protocol));
        let class_sim = mix_similarity5(self.class_profile, normalize5(v.class));
        (0.6 * port_sim + 0.2 * proto_sim + 0.2 * class_sim).clamp(0.0, 1.0)
    }
}

/// Flag unmatched sources scoring at least `threshold`, descending by
/// score. Sources with fewer than `min_packets` packets are skipped
/// (too little evidence).
pub fn candidate_iot_devices(
    model: &FingerprintModel,
    vectors: &HashMap<Ipv4Addr, BehaviorVector>,
    threshold: f64,
    min_packets: u64,
) -> Vec<IotCandidate> {
    let mut out: Vec<IotCandidate> = vectors
        .values()
        .filter(|v| v.device.is_none() && v.total_packets() >= min_packets)
        .map(|v| IotCandidate {
            ip: v.ip,
            score: model.score(v),
            packets: v.total_packets(),
        })
        .filter(|c| c.score >= threshold)
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.ip.cmp(&b.ip))
    });
    out
}

fn normalize3(v: [u64; 3]) -> [f64; 3] {
    let total: u64 = v.iter().sum();
    if total == 0 {
        return [0.0; 3];
    }
    [
        v[0] as f64 / total as f64,
        v[1] as f64 / total as f64,
        v[2] as f64 / total as f64,
    ]
}

fn normalize5(v: [u64; 5]) -> [f64; 5] {
    let total: u64 = v.iter().sum();
    if total == 0 {
        return [0.0; 5];
    }
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = v[i] as f64 / total as f64;
    }
    out
}

/// 1 − half the L1 distance between two distributions (the overlap
/// coefficient), in `0.0..=1.0`.
fn mix_similarity3(a: [f64; 3], b: [f64; 3]) -> f64 {
    1.0 - 0.5
        * a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
}

fn mix_similarity5(a: [f64; 5], b: [f64; 5]) -> f64 {
    1.0 - 0.5
        * a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::extract;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, DeviceDb, DeviceId, IotDevice, IspId};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;

    fn db() -> DeviceDb {
        DeviceDb::from_devices((1..=3u8).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::new(1, 0, 0, i),
            profile: DeviceProfile::Consumer(ConsumerKind::Router),
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    fn syn(src: Ipv4Addr, port: u16, pkts: u32) -> FlowTuple {
        FlowTuple::tcp(src, Ipv4Addr::new(44, 0, 0, 1), 40000, port, TcpFlags::SYN)
            .with_packets(pkts)
    }

    /// Known IoT devices scan Telnet/CWMP; a shadow (unindexed) IoT device
    /// does the same; an enterprise-malware host scans MSSQL/RDP/SMB.
    fn traffic() -> Vec<HourTraffic> {
        let mut flows = Vec::new();
        for i in 1..=3u8 {
            let ip = Ipv4Addr::new(1, 0, 0, i);
            flows.push(syn(ip, 23, 40));
            flows.push(syn(ip, 2323, 12));
            flows.push(syn(ip, 7547, 9));
        }
        let shadow = Ipv4Addr::new(198, 51, 7, 7);
        flows.push(syn(shadow, 23, 35));
        flows.push(syn(shadow, 2323, 10));
        flows.push(syn(shadow, 7547, 6));
        let enterprise = Ipv4Addr::new(198, 51, 9, 9);
        flows.push(syn(enterprise, 1433, 30));
        flows.push(syn(enterprise, 3389, 30));
        flows.push(syn(enterprise, 445, 30));
        vec![HourTraffic {
            interval: 1,
            hour: UnixHour::new(0),
            flows,
        }]
    }

    #[test]
    fn model_trains_on_matched_devices_only() {
        let db = db();
        let vectors = extract(&traffic(), &db, 4);
        let model = FingerprintModel::train(&vectors).unwrap();
        assert_eq!(model.trained_on(), 3);
        // All three trainers share dominant port 23 → one group whose
        // histogram concentrates on the IoT ports.
        assert_eq!(model.num_groups(), 1);
        let (dominant, hist) = &model.groups[0];
        assert_eq!(*dominant, 23);
        assert!(hist.contains_key(&7547));
        assert!(!hist.contains_key(&1433));
    }

    #[test]
    fn shadow_iot_scores_high_noise_scores_low() {
        let db = db();
        let vectors = extract(&traffic(), &db, 4);
        let model = FingerprintModel::train(&vectors).unwrap();
        let shadow = &vectors[&Ipv4Addr::new(198, 51, 7, 7)];
        let enterprise = &vectors[&Ipv4Addr::new(198, 51, 9, 9)];
        assert!(model.score(shadow) > 0.9, "shadow {}", model.score(shadow));
        assert!(
            model.score(enterprise) < 0.45,
            "enterprise {}",
            model.score(enterprise)
        );
    }

    #[test]
    fn candidates_flag_only_the_shadow_device() {
        let db = db();
        let vectors = extract(&traffic(), &db, 4);
        let model = FingerprintModel::train(&vectors).unwrap();
        let candidates = candidate_iot_devices(&model, &vectors, 0.7, 5);
        assert_eq!(candidates.len(), 1, "{candidates:#?}");
        assert_eq!(candidates[0].ip, Ipv4Addr::new(198, 51, 7, 7));
        // Matched devices are never candidates, whatever their score.
        assert!(candidates.iter().all(|c| db.correlate(c.ip).is_none()));
    }

    #[test]
    fn min_packets_gate_applies() {
        let db = db();
        let vectors = extract(&traffic(), &db, 4);
        let model = FingerprintModel::train(&vectors).unwrap();
        assert!(candidate_iot_devices(&model, &vectors, 0.7, 10_000).is_empty());
    }

    #[test]
    fn empty_training_set_returns_none() {
        let vectors = extract(&traffic(), &DeviceDb::new(), 4);
        assert!(FingerprintModel::train(&vectors).is_none());
    }

    #[test]
    fn mix_similarity_bounds() {
        assert!((mix_similarity3([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(mix_similarity3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).abs() < 1e-9);
        assert!((mix_similarity5([0.2; 5], [0.2; 5]) - 1.0).abs() < 1e-9);
    }
}
