//! Synthetic Internet-facing IoT device inventory for the `iotscope`
//! workspace.
//!
//! The paper correlates darknet traffic with a near real-time IoT database
//! obtained from Shodan: ~331,000 devices (181k consumer, 150k CPS) across
//! 200+ countries (§III-A1). That data is proprietary, so this crate builds
//! the closest synthetic equivalent: a deterministic generator
//! ([`synth::InventoryBuilder`]) that produces an inventory with the same
//! *marginal distributions* the paper publishes — country mix (Fig 1a),
//! consumer type mix, the 31 CPS services (Table III), and the ISP rosters
//! of Tables I/II — plus the IP-indexed query API ([`db::DeviceDb`]) the
//! correlation engine needs.
//!
//! The generator also *designates* which devices will act as compromised in
//! a simulation (with the compromised-population marginals of Fig 1b and
//! Tables I/II). That designation is the simulation's ground-truth ledger;
//! the analysis pipeline never sees it.
//!
//! # Example
//!
//! ```
//! use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig};
//!
//! let cfg = SynthConfig::small(7);
//! let out = InventoryBuilder::new(cfg.clone()).build();
//! assert_eq!(out.db.len() as u32, cfg.total_devices());
//! let first = out.db.iter().next().unwrap();
//! assert!(out.db.correlate(first.ip).is_some());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod correlate;
pub mod db;
pub mod device;
pub mod geo;
pub mod inventory_io;
pub mod isp;
pub mod synth;
pub mod taxonomy;

pub use correlate::{AddrIndex, CorrelationIndex};
pub use db::DeviceDb;
pub use device::{DeviceId, DeviceProfile, IotDevice};
pub use geo::CountryCode;
pub use isp::IspId;
pub use taxonomy::{ConsumerKind, CpsService, Realm};
