//! Observability substrate for the iotscope pipeline.
//!
//! A deliberately small, zero-dependency metrics layer: named metrics
//! live in a [`Registry`], handles ([`Counter`], [`Gauge`],
//! [`Histogram`], [`Timer`]) are cheap `Arc`-backed clones that hot
//! paths update with a single atomic operation, and a [`Snapshot`]
//! freezes every metric in **deterministic (lexicographic) order** for
//! the text and JSON exporters.
//!
//! # Determinism contract
//!
//! Every metric is registered with a [`Stability`]:
//!
//! * [`Stability::Stable`] — for a successful run over the same input
//!   the final value is identical regardless of thread count, worker
//!   scheduling, or wall-clock speed. Counters of *work done* (bytes
//!   read, records decoded, packets per class) belong here: the same
//!   hours are processed exactly once whichever worker gets them, and
//!   atomic additions commute.
//! * [`Stability::Variant`] — anything timing- or schedule-dependent:
//!   span timers, per-worker item counts, the thread-count gauge.
//!
//! [`Snapshot::stable_only`] filters to the stable subset, which is what
//! the pipeline's cross-thread-count determinism tests compare. Timers
//! are always variant.
//!
//! # Example
//!
//! ```
//! use iotscope_obs::Registry;
//!
//! let registry = Registry::new();
//! let bytes = registry.counter("store.bytes_read");
//! bytes.add(4096);
//! let t = registry.timer("pipeline.read_time");
//! {
//!     let _span = t.span(); // records elapsed time on drop
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("store.bytes_read"), Some(4096));
//! assert!(snap.to_text().contains("store.bytes_read"));
//! assert!(snap.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]

mod export;
mod metric;
mod registry;
mod snapshot;

pub use export::json_string;
pub use metric::{Counter, Gauge, Histogram, Span, Stability, Timer};
pub use registry::Registry;
pub use snapshot::{Snapshot, SnapshotEntry, SnapshotValue};

/// Power-of-four byte-size bucket bounds (64 B .. 64 MiB), a sensible
/// default for file- and payload-size histograms.
pub const BYTE_SIZE_BOUNDS: [u64; 11] = [
    64,
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
    64 << 20,
];
