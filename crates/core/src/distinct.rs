//! Exact per-hour distinct counting for the destination-keyed half of
//! the ingest fold (DESIGN.md §3b-bis): how many distinct destination
//! addresses and ports a realm's UDP and TCP-scan traffic touched in
//! one hour (Fig 5, Fig 9).
//!
//! Both structures are allocated once per analyzer or router, filled by
//! one hour's flows, read as a count, and cleared — so neither pays for
//! a general-purpose hasher, iteration order or removal.

use std::hash::{BuildHasher, RandomState};

/// An exact set of `u32` keys: open addressing with linear probing over
/// a power-of-two slot array, multiplicative (Fibonacci) hashing, and
/// capacity that survives [`clear`](Self::clear).
///
/// Slot value 0 means "empty"; key 0 itself lives in a flag, so every
/// `u32` — `0` and `u32::MAX` included — is storable.
///
/// Inserts are staged: [`insert`](Self::insert) only appends to a small
/// buffer, and a full buffer is probed in one tight loop. A probe is a
/// dependent load into a table the decode stream keeps pushing out of
/// the near caches; inside the per-flow fold each one stalls alone,
/// back to back their misses overlap (EXPERIMENTS.md, "Hash-free ingest
/// fold": 0.46 s → 0.30 s of fold self time on the dense workload).
#[derive(Debug)]
pub(crate) struct U32Set {
    slots: Vec<u32>,
    /// `32 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Nonzero keys stored in `slots`.
    stored: usize,
    has_zero: bool,
    /// XORed into every key before hashing. The keys are destination
    /// addresses chosen by whoever sends packets at the telescope; a
    /// per-process value keeps a sender from computing offline a key
    /// sequence that piles into one probe run.
    seed: u32,
    /// Keys inserted but not yet probed.
    staged: [u32; STAGE],
    num_staged: usize,
}

/// 2³² ÷ φ, odd: consecutive keys land maximally far apart.
const GOLDEN: u32 = 0x9E37_79B9;
const MIN_SLOTS: usize = 1 << 10;
/// Staging buffer length; 16 to 128 measure alike.
const STAGE: usize = 32;

impl U32Set {
    pub(crate) fn new() -> Self {
        U32Set {
            slots: vec![0; MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
            stored: 0,
            has_zero: false,
            seed: RandomState::new().hash_one(0u32) as u32,
            staged: [0; STAGE],
            num_staged: 0,
        }
    }

    /// Number of distinct keys inserted since the last clear.
    pub(crate) fn len(&mut self) -> usize {
        self.drain();
        self.stored + usize::from(self.has_zero)
    }

    /// Add `key` to the set.
    #[inline]
    pub(crate) fn insert(&mut self, key: u32) {
        self.staged[self.num_staged] = key;
        self.num_staged += 1;
        if self.num_staged == STAGE {
            self.drain();
        }
    }

    /// Probe every staged key.
    fn drain(&mut self) {
        let staged = self.staged;
        for &key in &staged[..std::mem::take(&mut self.num_staged)] {
            self.probe(key);
        }
    }

    #[inline]
    fn probe(&mut self, key: u32) {
        if key == 0 {
            self.has_zero = true;
            return;
        }
        // Load factor stays at or below one half.
        if (self.stored + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = ((key ^ self.seed).wrapping_mul(GOLDEN) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return;
            }
            if slot == 0 {
                self.slots[i] = key;
                self.stored += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        self.stored = 0;
        for key in old.into_iter().filter(|&k| k != 0) {
            self.probe(key);
        }
    }

    /// Forget every key, keeping the slot array for the next hour.
    pub(crate) fn clear(&mut self) {
        self.num_staged = 0;
        if self.stored > 0 {
            self.slots.fill(0);
            self.stored = 0;
        }
        self.has_zero = false;
    }
}

/// A reusable bitmap over the 2^16 port space with a member count —
/// per-hour distinct-port accounting without per-hour allocation.
#[derive(Debug, Clone)]
pub(crate) struct PortScratch {
    words: Vec<u64>,
    len: usize,
}

impl PortScratch {
    pub(crate) fn new() -> Self {
        PortScratch {
            words: vec![0; (u16::MAX as usize + 1) / 64],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn insert(&mut self, port: u16) {
        let (word, bit) = (port as usize / 64, port % 64);
        let mask = 1u64 << bit;
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.len += 1;
        }
    }

    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Keys that stress the sentinel, the flag and probe wrap-around,
    /// mixed with arbitrary ones.
    fn key() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(0u32),
            Just(u32::MAX),
            Just(1u32),
            0u32..64,
            any::<u32>(),
        ]
    }

    proptest! {
        #[test]
        fn u32_set_equals_std_hash_set(
            first in proptest::collection::vec(key(), 0..6000),
            second in proptest::collection::vec(key(), 0..300),
            stride in 1usize..100,
        ) {
            // 6000 keys cross the 1024 → 2048 → … → 16384 resizes.
            let mut set = U32Set::new();
            for round in [&first, &second] {
                let mut model = HashSet::new();
                // Reading the length every `stride` inserts drains
                // partly filled and full staging buffers alike.
                for chunk in round.chunks(stride) {
                    for &k in chunk {
                        set.insert(k);
                        model.insert(k);
                    }
                    prop_assert_eq!(set.len(), model.len());
                }
                // Every key is a member: inserting it again adds nothing.
                for &k in round {
                    set.insert(k);
                }
                prop_assert_eq!(set.len(), model.len());
                // Clear, then reuse the grown slot array.
                set.clear();
                prop_assert_eq!(set.len(), 0);
            }
        }
    }

    #[test]
    fn u32_set_grows_through_many_resizes_and_keeps_capacity() {
        let mut set = U32Set::new();
        set.insert(0);
        set.insert(u32::MAX);
        for k in 1..=100_000u32 {
            // An odd multiplier permutes u32: 100,000 distinct keys.
            set.insert(k.wrapping_mul(2_654_435_761));
        }
        assert_eq!(set.len(), 100_002);
        set.insert(0);
        set.insert(u32::MAX);
        assert_eq!(set.len(), 100_002);
        let slots = set.slots.len();
        assert!(slots >= 200_004 && slots.is_power_of_two());
        // Keys staged but never counted are forgotten by clear too.
        set.insert(5);
        set.clear();
        assert_eq!(set.len(), 0);
        assert_eq!(set.slots.len(), slots, "capacity survives clear");
        for k in [0, u32::MAX, 7, 7] {
            set.insert(k);
        }
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn port_scratch_counts_distinct_ports() {
        let mut ports = PortScratch::new();
        for p in [0u16, 23, 23, u16::MAX, 0] {
            ports.insert(p);
        }
        assert_eq!(ports.len(), 3);
        ports.clear();
        assert_eq!(ports.len(), 0);
        ports.insert(23);
        assert_eq!(ports.len(), 1);
    }
}
