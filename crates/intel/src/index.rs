//! Streaming-lookup index over the two §V intel stores.
//!
//! The batch §V join probes `ThreatRepo::categories_for` and
//! `MalwareDb::hashes_contacting` once per candidate, and each probe
//! allocates (a `Vec` of categories, a `HashSet` of hashes) after a
//! hash-map walk. That is tolerable for a one-shot report but not for a
//! per-hour streaming fold that re-touches every observed device. The
//! [`IntelIndex`] flattens both stores into the
//! [`AddrIndex`] the inventory correlation uses: one entry per flagged
//! or contacted address, carrying the category bitmask (six Table VI
//! categories in the low bits of a `u8`) and an `(offset, len)` window
//! into a shared flat array of sandbox-report indices.
//!
//! A lookup is a bucket slice plus a binary search and returns borrowed
//! data — no allocation, no second hash probe for the malware side.
//! Construction drains both hash maps through a `BTreeMap`, so the
//! index layout is deterministic regardless of hash iteration order.

use crate::malwaredb::MalwareDb;
use crate::synth::IntelOutput;
use crate::threat::ThreatRepo;
use crate::FamilyResolver;
use iotscope_devicedb::AddrIndex;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One flagged address: category mask plus a window into the shared
/// sample-reference array.
#[derive(Debug, Clone, Copy)]
struct IntelEntry {
    /// Packed [`ThreatCategory`](crate::ThreatCategory) bitmask
    /// (`ThreatCategory::bit` encoding).
    cat_mask: u8,
    /// Start of this address's sample references in `sample_refs`.
    samples_start: u32,
    /// Number of sample references.
    samples_len: u32,
}

/// A resolved intel hit for one address: borrowed, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntelHit<'a> {
    /// Packed category bitmask; decode with
    /// [`ThreatCategory::from_mask`](crate::ThreatCategory::from_mask).
    pub cat_mask: u8,
    /// Indices into [`MalwareDb::reports`] of samples that contacted
    /// this address, in ingestion order.
    pub samples: &'a [u32],
}

impl IntelHit<'_> {
    /// Whether the threat repository flagged this address.
    #[inline]
    pub fn is_flagged(&self) -> bool {
        self.cat_mask != 0
    }
}

/// A `/16`-bucketed read-only index over a [`ThreatRepo`] and a
/// [`MalwareDb`], replacing their per-call `HashMap` + `Vec` scans on
/// the streaming hot path.
///
/// # Example
///
/// ```
/// use iotscope_intel::index::IntelIndex;
/// use iotscope_intel::threat::{ThreatCategory, ThreatEvent, ThreatRepo};
/// use iotscope_intel::MalwareDb;
/// use std::net::Ipv4Addr;
///
/// let ip = Ipv4Addr::new(203, 0, 113, 9);
/// let mut repo = ThreatRepo::new();
/// repo.add(ThreatEvent {
///     ip,
///     category: ThreatCategory::Scanning,
///     source: "honeypot".into(),
///     reported_at: 0,
/// });
/// let index = IntelIndex::build(&repo, &MalwareDb::new());
/// let hit = index.lookup(ip).unwrap();
/// assert_eq!(hit.cat_mask, ThreatCategory::Scanning.bit());
/// assert!(index.lookup(Ipv4Addr::new(203, 0, 113, 10)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct IntelIndex {
    /// One entry per flagged/contacted address.
    addrs: AddrIndex<IntelEntry>,
    /// Flat pool of sandbox-report indices, windowed by the entries.
    sample_refs: Box<[u32]>,
}

impl IntelIndex {
    /// Build the index over both stores. An address appears if the
    /// threat repo flags it *or* a sandbox sample contacted it.
    pub fn build(threats: &ThreatRepo, malware: &MalwareDb) -> Self {
        // Merge through a BTreeMap: deterministic address order despite
        // the HashMap-backed sources.
        let mut merged: BTreeMap<u32, (u8, &[usize])> = BTreeMap::new();
        for (ip, events) in threats.iter_flagged() {
            let mut mask = 0u8;
            for e in events {
                mask |= e.category.bit();
            }
            merged.insert(u32::from(ip), (mask, &[]));
        }
        for (ip, refs) in malware.contacted_ips() {
            merged.entry(u32::from(ip)).or_insert((0, &[])).1 = refs;
        }

        let mut sample_refs = Vec::new();
        let addrs = AddrIndex::from_sorted(merged.into_iter().map(|(ip, (cat_mask, refs))| {
            let samples_start = sample_refs.len() as u32;
            sample_refs.extend(refs.iter().map(|&i| i as u32));
            let entry = IntelEntry {
                cat_mask,
                samples_start,
                samples_len: refs.len() as u32,
            };
            (ip, entry)
        }));
        IntelIndex {
            addrs,
            sample_refs: sample_refs.into_boxed_slice(),
        }
    }

    /// An index over empty stores: every lookup misses.
    pub fn empty() -> Self {
        IntelIndex::build(&ThreatRepo::new(), &MalwareDb::new())
    }

    /// Number of indexed addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no address is indexed.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.addrs.heap_bytes() + std::mem::size_of_val(&*self.sample_refs)
    }

    /// Resolve `ip` against both stores — the streaming hot path.
    #[inline]
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<IntelHit<'_>> {
        let entry = self.addrs.get(ip)?;
        let start = entry.samples_start as usize;
        Some(IntelHit {
            cat_mask: entry.cat_mask,
            samples: &self.sample_refs[start..start + entry.samples_len as usize],
        })
    }
}

/// The full §V intel surface bundled for streaming consumers: both raw
/// stores (for report paths that need events, domains, or families),
/// the resolver, and the prebuilt [`IntelIndex`] over them.
#[derive(Debug, Clone)]
pub struct IntelContext {
    /// The Cymon-like threat repository.
    pub threats: ThreatRepo,
    /// The sandbox-report database.
    pub malware: MalwareDb,
    /// Hash → family resolution (Table VII).
    pub resolver: FamilyResolver,
    /// The streaming lookup index over `threats` + `malware`.
    pub index: IntelIndex,
}

impl IntelContext {
    /// Bundle the stores and build their index.
    pub fn new(threats: ThreatRepo, malware: MalwareDb, resolver: FamilyResolver) -> Self {
        let index = IntelIndex::build(&threats, &malware);
        IntelContext {
            threats,
            malware,
            resolver,
            index,
        }
    }

    /// Bundle a synthesized [`IntelOutput`] (drops the ground-truth
    /// ledgers, which are test-only).
    pub fn from_synth(out: IntelOutput) -> Self {
        IntelContext::new(out.threats, out.malware, out.resolver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sandbox::{MalwareHash, NetworkActivity, SandboxReport, SystemActivity};
    use crate::threat::{ThreatCategory, ThreatEvent};
    use proptest::prelude::*;

    fn event(ip: u32, category: ThreatCategory) -> ThreatEvent {
        ThreatEvent {
            ip: Ipv4Addr::from(ip),
            category,
            source: "test".into(),
            reported_at: 0,
        }
    }

    fn sample(hash: &str, ips: &[u32]) -> SandboxReport {
        SandboxReport {
            sha256: MalwareHash::from_hex(hash),
            network: NetworkActivity {
                contacted_ips: ips.iter().map(|&o| Ipv4Addr::from(o)).collect(),
                ..Default::default()
            },
            system: SystemActivity::default(),
        }
    }

    #[test]
    fn empty_index_misses_everything() {
        let idx = IntelIndex::empty();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.lookup(Ipv4Addr::new(0, 0, 0, 0)).is_none());
        assert!(idx.lookup(Ipv4Addr::new(255, 255, 255, 255)).is_none());
    }

    #[test]
    fn merges_threat_and_malware_evidence_per_address() {
        let both = 0x0a00_0001u32; // flagged + contacted
        let threat_only = 0x0a00_0002u32;
        let malware_only = 0x0a00_0003u32;
        let mut repo = ThreatRepo::new();
        repo.add(event(both, ThreatCategory::Scanning));
        repo.add(event(both, ThreatCategory::Malware));
        repo.add(event(threat_only, ThreatCategory::Spam));
        let db: MalwareDb = vec![sample("aa", &[both]), sample("bb", &[both, malware_only])]
            .into_iter()
            .collect();

        let idx = IntelIndex::build(&repo, &db);
        assert_eq!(idx.len(), 3);

        let hit = idx.lookup(Ipv4Addr::from(both)).unwrap();
        assert_eq!(
            hit.cat_mask,
            ThreatCategory::Scanning.bit() | ThreatCategory::Malware.bit()
        );
        assert_eq!(hit.samples, &[0, 1]);
        assert!(hit.is_flagged());

        let hit = idx.lookup(Ipv4Addr::from(threat_only)).unwrap();
        assert_eq!(hit.cat_mask, ThreatCategory::Spam.bit());
        assert!(hit.samples.is_empty());

        let hit = idx.lookup(Ipv4Addr::from(malware_only)).unwrap();
        assert_eq!(hit.cat_mask, 0);
        assert!(!hit.is_flagged());
        assert_eq!(hit.samples, &[1]);

        assert!(idx.lookup(Ipv4Addr::from(0x0a00_0004u32)).is_none());
        assert!(idx.heap_bytes() > (1 << 16) * 4);
    }

    #[test]
    fn bucket_edge_suffixes_resolve() {
        let mut repo = ThreatRepo::new();
        repo.add(event(0x7f00_0000, ThreatCategory::Scanning));
        repo.add(event(0x7f00_ffff, ThreatCategory::Phishing));
        let idx = IntelIndex::build(&repo, &MalwareDb::new());
        assert!(idx.lookup(Ipv4Addr::from(0x7f00_0000u32)).is_some());
        assert!(idx.lookup(Ipv4Addr::from(0x7f00_ffffu32)).is_some());
        assert!(idx.lookup(Ipv4Addr::from(0x7f00_8000u32)).is_none());
        assert!(idx.lookup(Ipv4Addr::from(0x7eff_ffffu32)).is_none());
        assert!(idx.lookup(Ipv4Addr::from(0x7f01_0000u32)).is_none());
    }

    /// Reference model: the pre-index per-call scans.
    fn reference(repo: &ThreatRepo, db: &MalwareDb, ip: Ipv4Addr) -> Option<(u8, Vec<u32>)> {
        let mut mask = 0u8;
        for c in repo.categories_for(ip) {
            mask |= c.bit();
        }
        let refs: Vec<u32> = db
            .contacted_ips()
            .filter(|(i, _)| *i == ip)
            .flat_map(|(_, idx)| idx.iter().map(|&i| i as u32))
            .collect();
        if mask == 0 && refs.is_empty() {
            None
        } else {
            Some((mask, refs))
        }
    }

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
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The index agrees with the HashMap-scan reference model on
        /// hits, misses, and near-miss probes.
        #[test]
        fn prop_index_matches_hashmap_scans(
            flagged in proptest::collection::vec((addr_strategy(), 0u8..6), 0..120),
            contacted in proptest::collection::vec(
                proptest::collection::vec(addr_strategy(), 0..4), 0..40),
            probes in proptest::collection::vec(any::<u32>(), 0..48),
        ) {
            let mut repo = ThreatRepo::new();
            for &(ip, cat) in &flagged {
                repo.add(event(ip, ThreatCategory::ALL[cat as usize]));
            }
            let db: MalwareDb = contacted
                .iter()
                .enumerate()
                .map(|(i, ips)| sample(&format!("{i:02x}"), ips))
                .collect();
            let idx = IntelIndex::build(&repo, &db);

            // Address universe = every member + random probes + near misses.
            let mut universe: Vec<u32> = flagged.iter().map(|&(ip, _)| ip).collect();
            universe.extend(contacted.iter().flatten().copied());
            for &ip in universe.clone().iter() {
                universe.push(ip.wrapping_add(1));
                universe.push(ip.wrapping_sub(1));
            }
            universe.extend(probes);

            for ip_u in universe {
                let ip = Ipv4Addr::from(ip_u);
                let got = idx.lookup(ip).map(|h| (h.cat_mask, h.samples.to_vec()));
                prop_assert_eq!(got, reference(&repo, &db, ip), "address {}", ip);
            }
        }

        /// Build is deterministic: two builds from independently
        /// populated (differently ordered) stores lay out identically.
        #[test]
        fn prop_build_is_order_independent(
            mut flagged in proptest::collection::vec((addr_strategy(), 0u8..6), 1..60),
        ) {
            let forward: ThreatRepo = flagged
                .iter()
                .map(|&(ip, c)| event(ip, ThreatCategory::ALL[c as usize]))
                .collect();
            flagged.reverse();
            let backward: ThreatRepo = flagged
                .iter()
                .map(|&(ip, c)| event(ip, ThreatCategory::ALL[c as usize]))
                .collect();
            let a = IntelIndex::build(&forward, &MalwareDb::new());
            let b = IntelIndex::build(&backward, &MalwareDb::new());
            prop_assert_eq!(a.len(), b.len());
            for &(ip, _) in &flagged {
                let ip = Ipv4Addr::from(ip);
                prop_assert_eq!(a.lookup(ip), b.lookup(ip));
            }
        }
    }

    #[test]
    fn context_bundles_and_indexes() {
        let mut repo = ThreatRepo::new();
        repo.add(event(0x0101_0101, ThreatCategory::Scanning));
        let ctx = IntelContext::new(repo, MalwareDb::new(), FamilyResolver::new());
        assert_eq!(ctx.index.len(), 1);
        assert!(ctx.threats.is_flagged(Ipv4Addr::from(0x0101_0101u32)));
    }
}
