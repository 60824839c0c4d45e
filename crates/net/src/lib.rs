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
//!   checksummed manifest, each hour one positioned read ([`segment`]),
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

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod addr;
pub mod anon;
pub mod flowtuple;
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
    /// A stored hour failed to read or decode: the hour, its 1-based
    /// window interval, and why.
    Hour {
        /// The hour that failed.
        hour: time::UnixHour,
        /// Its interval within the analysis window.
        interval: u32,
        /// The read or decode failure.
        cause: Box<NetError>,
    },
}

impl NetError {
    /// Whether this is the flowtuple store's checksum rejection —
    /// corruption detected, as opposed to truncation or bad structure.
    /// The store metrics use this to count `store.checksum_failures`.
    pub fn is_checksum_mismatch(&self) -> bool {
        match self {
            // `contains` rather than `starts_with`: v3 block failures are
            // reported as "block N: checksum mismatch ...".
            NetError::Codec(msg) => msg.contains("checksum mismatch"),
            NetError::Hour { cause, .. } => cause.is_checksum_mismatch(),
            _ => false,
        }
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
            NetError::Hour {
                hour,
                interval,
                cause,
            } => write!(f, "{hour} (interval {interval}): {cause}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Hour { cause, .. } => Some(cause.as_ref()),
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
    fn hour_variant_names_the_hour_and_looks_through_to_its_cause() {
        let e = NetError::Hour {
            hour: time::UnixHour::new(414_490),
            interval: 59,
            cause: Box::new(NetError::Codec("block 0: checksum mismatch".into())),
        };
        assert_eq!(
            e.to_string(),
            "h414490 (interval 59): flowtuple codec error: block 0: checksum mismatch"
        );
        assert!(e.is_checksum_mismatch());
        assert!(e.source().is_some());
    }

    #[test]
    fn net_error_from_io_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = NetError::from(io);
        assert!(e.source().is_some());
    }
}
