//! Network substrate for the `iotscope` workspace.
//!
//! This crate provides the low-level building blocks shared by the darknet
//! simulator ([`iotscope-telescope`]), the IoT device inventory
//! ([`iotscope-devicedb`]) and the analysis pipeline ([`iotscope-core`]):
//!
//! * IPv4 address arithmetic and CIDR prefixes ([`addr`]),
//! * transport-protocol, TCP-flag and ICMP-type taxonomies with the
//!   backscatter classification rules used by the paper ([`protocol`]),
//! * a registry of well-known and IoT/ICS-relevant ports ([`ports`]),
//! * the corsaro-style *flowtuple* record and its binary codec
//!   ([`flowtuple`]),
//! * an hourly flowtuple file store mirroring the UCSD telescope data
//!   layout ([`store`]),
//! * a year-scale segment container packing many hours behind a
//!   checksummed manifest, read zero-copy through read-only memory
//!   maps ([`segment`], [`mmap`]),
//! * hour-granularity time intervals and the paper's 143-hour analysis
//!   window ([`time`]).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), iotscope_net::NetError> {
//! use iotscope_net::{addr::Ipv4Cidr, flowtuple::FlowTuple, protocol::TcpFlags};
//! use std::net::Ipv4Addr;
//!
//! let telescope: Ipv4Cidr = "44.0.0.0/8".parse()?;
//! let ft = FlowTuple::tcp(
//!     Ipv4Addr::new(203, 0, 113, 7),
//!     Ipv4Addr::new(44, 12, 34, 56),
//!     51234,
//!     23,
//!     TcpFlags::SYN,
//! );
//! assert!(telescope.contains(ft.dst_ip));
//! # Ok(())
//! # }
//! ```
//!
//! [`iotscope-telescope`]: https://example.org/iotscope
//! [`iotscope-devicedb`]: https://example.org/iotscope
//! [`iotscope-core`]: https://example.org/iotscope

// `deny` rather than `forbid`: the crate stays unsafe-free except for
// the one audited mmap(2) FFI module below, which opts back in
// explicitly (its safety argument is in DESIGN.md §3a).
#![deny(unsafe_code)]

pub mod addr;
pub mod anon;
pub mod flowtuple;
#[allow(unsafe_code)]
pub mod mmap;
pub mod ports;
pub mod protocol;
pub mod segment;
pub mod store;
pub mod time;

use std::error::Error;
use std::fmt;

/// Errors produced by the network substrate.
///
/// All fallible public functions in this crate return `Result<_, NetError>`.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A textual CIDR or address failed to parse.
    ParseCidr(String),
    /// A prefix length was outside `0..=32`.
    InvalidPrefixLen(u8),
    /// A flowtuple record or file was malformed.
    Codec(String),
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A time interval was invalid (e.g. end before start).
    InvalidInterval(String),
}

impl NetError {
    /// Whether this is the flowtuple store's checksum rejection —
    /// corruption detected, as opposed to truncation or bad structure.
    /// The store metrics use this to count `store.checksum_failures`.
    pub fn is_checksum_mismatch(&self) -> bool {
        // `contains` rather than `starts_with`: v3 block failures are
        // reported as "block N: checksum mismatch ...".
        matches!(self, NetError::Codec(msg) if msg.contains("checksum mismatch"))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ParseCidr(s) => write!(f, "invalid CIDR syntax: {s}"),
            NetError::InvalidPrefixLen(n) => {
                write!(f, "invalid prefix length {n} (expected 0..=32)")
            }
            NetError::Codec(s) => write!(f, "flowtuple codec error: {s}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::InvalidInterval(s) => write!(f, "invalid interval: {s}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_error_is_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<NetError>();
        assert_sync::<NetError>();
    }

    #[test]
    fn net_error_display_is_lowercase_and_concise() {
        let e = NetError::InvalidPrefixLen(40);
        let msg = format!("{e}");
        assert!(msg.starts_with("invalid prefix length"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn net_error_from_io_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = NetError::from(io);
        assert!(e.source().is_some());
    }
}
