//! Integration test crate for the iotscope workspace; see tests/tests/.
//!
//! The library half holds what the integration tests share: [`oracle`],
//! the naive reference analyzer every optimised ingest path is compared
//! to.

pub mod oracle;
