//! Threat-intelligence substrates for `iotscope`.
//!
//! Section V of the paper correlates the inferred IoT devices with two
//! external sources, neither of which is redistributable:
//!
//! * **Cymon**, a public threat repository indexing IP-keyed events across
//!   six illicit categories (Table VI) — modeled by [`threat::ThreatRepo`];
//! * an **in-house malware database** built by parsing XML sandbox reports
//!   from a daily ThreatTrack feed, indexed by the network activity
//!   (contacted IPs/domains) of each sample, with VirusTotal resolving
//!   hashes to families (Table VII) — modeled by [`sandbox`] (the report
//!   format and parser), [`malwaredb::MalwareDb`] (the index) and
//!   [`family::FamilyResolver`].
//!
//! [`synth::IntelBuilder`] populates both stores *correlated with a
//! simulation's ground truth* plus background noise, so the analysis
//! pipeline's Section V joins exercise the same dataflow as the paper.
//! [`intel_io`] writes them into a data directory once, when the
//! dataset is made, and loads them back into an [`IntelContext`]: like
//! the paper's feeds, they are an input of the analysis, not a product
//! of it.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod family;
pub mod index;
pub mod intel_io;
pub mod malwaredb;
pub mod sandbox;
pub mod synth;
pub mod threat;

pub use family::{FamilyResolver, MalwareFamily};
pub use index::{IntelContext, IntelHit, IntelIndex};
pub use malwaredb::MalwareDb;
pub use sandbox::{MalwareHash, SandboxReport};
pub use threat::{ThreatCategory, ThreatEvent, ThreatRepo};

use std::error::Error;
use std::fmt;

/// Errors produced by the intel substrates.
#[derive(Debug)]
#[non_exhaustive]
pub enum IntelError {
    /// A sandbox report failed to parse.
    ParseReport(String),
}

impl fmt::Display for IntelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntelError::ParseReport(s) => write!(f, "invalid sandbox report: {s}"),
        }
    }
}

impl Error for IntelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IntelError>();
        let e = IntelError::ParseReport("missing hash".into());
        assert!(format!("{e}").contains("missing hash"));
    }
}
