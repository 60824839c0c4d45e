//! Malware families and the hash→family resolver.
//!
//! Table VII lists the 11 previously-unreported families the paper found
//! communicating with IoT devices; VirusTotal resolved sample hashes to
//! family labels. [`FamilyResolver`] plays VirusTotal's role.

use crate::sandbox::MalwareHash;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The 11 families of Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MalwareFamily {
    /// Ramnit — known as a backdoor.
    Ramnit,
    /// Starman.
    Starman,
    /// Kryptik.
    Kryptik,
    /// Nivdort.
    Nivdort,
    /// Razy.
    Razy,
    /// Zusy — known for generating email spam.
    Zusy,
    /// Bayrod.
    Bayrod,
    /// Artemis.
    Artemis,
    /// MSIL.
    Msil,
    /// Vupa.
    Vupa,
    /// Allaple.
    Allaple,
}

impl MalwareFamily {
    /// All 11 families in Table VII order.
    pub const ALL: [MalwareFamily; 11] = [
        MalwareFamily::Ramnit,
        MalwareFamily::Starman,
        MalwareFamily::Kryptik,
        MalwareFamily::Nivdort,
        MalwareFamily::Razy,
        MalwareFamily::Zusy,
        MalwareFamily::Bayrod,
        MalwareFamily::Artemis,
        MalwareFamily::Msil,
        MalwareFamily::Vupa,
        MalwareFamily::Allaple,
    ];
}

impl fmt::Display for MalwareFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MalwareFamily::Ramnit => "Ramnit",
            MalwareFamily::Starman => "Starman",
            MalwareFamily::Kryptik => "Kryptik",
            MalwareFamily::Nivdort => "Nivdort",
            MalwareFamily::Razy => "Razy",
            MalwareFamily::Zusy => "Zusy",
            MalwareFamily::Bayrod => "Bayrod",
            MalwareFamily::Artemis => "Artemis",
            MalwareFamily::Msil => "MSIL",
            MalwareFamily::Vupa => "Vupa",
            MalwareFamily::Allaple => "Allaple",
        };
        f.write_str(s)
    }
}

/// Resolves sample hashes to family labels (the VirusTotal stand-in).
///
/// # Example
///
/// ```
/// use iotscope_intel::family::{FamilyResolver, MalwareFamily};
/// use iotscope_intel::sandbox::MalwareHash;
///
/// let mut resolver = FamilyResolver::new();
/// let h = MalwareHash::from_hex("ab12");
/// resolver.register(h.clone(), MalwareFamily::Ramnit);
/// assert_eq!(resolver.resolve(&h), Some(MalwareFamily::Ramnit));
/// assert_eq!(resolver.resolve(&MalwareHash::from_hex("ffff")), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FamilyResolver {
    by_hash: HashMap<MalwareHash, MalwareFamily>,
}

impl FamilyResolver {
    /// An empty resolver.
    pub fn new() -> Self {
        FamilyResolver::default()
    }

    /// Register (or replace) the family label for a hash.
    pub fn register(&mut self, hash: MalwareHash, family: MalwareFamily) {
        self.by_hash.insert(hash, family);
    }

    /// Resolve a hash to its family, if known.
    pub fn resolve(&self, hash: &MalwareHash) -> Option<MalwareFamily> {
        self.by_hash.get(hash).copied()
    }

    /// Number of known hashes.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Whether no hash is registered.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// Iterate `(hash, family)` pairs in unspecified (hash) order —
    /// writers sort by hash themselves.
    pub fn iter(&self) -> impl Iterator<Item = (&MalwareHash, MalwareFamily)> {
        self.by_hash.iter().map(|(hash, family)| (hash, *family))
    }

    /// Distinct families across all registered hashes, sorted.
    pub fn known_families(&self) -> Vec<MalwareFamily> {
        let mut v: Vec<MalwareFamily> = self
            .by_hash
            .values()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_families() {
        assert_eq!(MalwareFamily::ALL.len(), 11);
        let labels: std::collections::HashSet<String> =
            MalwareFamily::ALL.iter().map(|f| f.to_string()).collect();
        assert_eq!(labels.len(), 11);
        assert!(labels.contains("Ramnit"));
        assert!(labels.contains("Zusy"));
    }

    #[test]
    fn resolver_register_resolve() {
        let mut r = FamilyResolver::new();
        assert!(r.is_empty());
        let h1 = MalwareHash::from_hex("0011");
        let h2 = MalwareHash::from_hex("0022");
        r.register(h1.clone(), MalwareFamily::Kryptik);
        r.register(h2.clone(), MalwareFamily::Kryptik);
        assert_eq!(r.len(), 2);
        assert_eq!(r.resolve(&h1), Some(MalwareFamily::Kryptik));
        assert_eq!(r.known_families(), vec![MalwareFamily::Kryptik]);
        // Replacing a hash's label.
        r.register(h1.clone(), MalwareFamily::Vupa);
        assert_eq!(r.resolve(&h1), Some(MalwareFamily::Vupa));
        assert_eq!(r.len(), 2);
        assert_eq!(r.known_families().len(), 2);
    }
}
