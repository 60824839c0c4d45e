//! The `iotscope` analysis pipeline — the paper's primary contribution.
//!
//! This crate reproduces the data-driven methodology of *"Inferring,
//! Characterizing, and Investigating Internet-Scale Malicious IoT Device
//! Activities: A Network Telescope Perspective"* (Torabi et al., DSN
//! 2018):
//!
//! 1. **Correlation** ([`analysis`]) — join darknet flowtuples against an
//!    IoT inventory to infer compromised devices (§III-B);
//! 2. **Classification** ([`mod@classify`]) — split their traffic into
//!    scanning, backscatter, and UDP (§IV);
//! 3. **Characterization** ([`characterize`], [`udp`], [`scan`], [`dos`])
//!    — the aggregates behind every figure and table of §III–§IV;
//! 4. **Maliciousness** ([`malicious`]) — the threat-repository and
//!    malware-database joins of §V;
//! 5. **Statistics** ([`stats`]) — Mann–Whitney U, Pearson correlation,
//!    and ECDFs, as used throughout the paper;
//! 6. **Orchestration** ([`pipeline`], [`report`]) — end-to-end runs and
//!    a renderer that prints every artifact.
//!
//! # Quickstart
//!
//! ```
//! use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
//! use iotscope_core::report::{Report, ReportContext};
//! use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
//!
//! // Simulate a darknet (substituting for the UCSD telescope data).
//! let built = PaperScenario::build(PaperScenarioConfig::tiny(7));
//! let traffic = built.scenario.generate();
//!
//! // Infer and characterize compromised IoT devices.
//! let pipeline = AnalysisPipeline::new(&built.inventory.db, 143);
//! let outcome = pipeline.run(&traffic, &AnalyzeOptions::new()).unwrap();
//! let report = Report::build(&ReportContext {
//!     analysis: &outcome.analysis,
//!     db: &built.inventory.db,
//!     isps: &built.inventory.isps,
//!     intel: None,
//! });
//! assert!(report.compromised.0 + report.compromised.1 > 0);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod attribution;
pub mod behavior;
pub mod botnet;
pub mod characterize;
pub mod classify;
pub mod diff;
mod distinct;
pub mod dos;
pub mod fingerprint;
mod fold;
pub mod malicious;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod scan;
pub mod score;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod table;
pub mod taxonomy;
pub mod udp;
pub mod view;

pub use analysis::{Analysis, Analyzer};
pub use classify::{classify, TrafficClass};
pub use pipeline::{
    AnalysisOutcome, AnalysisPipeline, AnalysisSource, AnalyzeOptions, StoreReadStats, StoredWindow,
};
pub use query::{DeviceDetail, QueryApi, QueryContext, RealmStats, Summary};
pub use report::{Report, ReportContext, ReportIntel};
pub use score::{Escalation, ScoreConfig, ScoreEngine, ScoreRow, ScoreTable, Severity};
pub use table::{DeviceObservation, DeviceSet, DeviceTable, PortTable, ServiceTable};
pub use view::AnalysisView;
