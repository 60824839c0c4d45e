//! Registry of well-known and IoT/ICS-relevant ports and services.
//!
//! The paper groups scanned destination ports into named services, some of
//! which span several ports (e.g. Telnet = 23/2323/23231, HTTP = 80/8080/81).
//! [`ScanService`] models exactly the 14 groups of Table V; [`ServiceRegistry`]
//! additionally names the UDP ports of Table IV and common infrastructure
//! ports so reports can label arbitrary ports.

use crate::protocol::TransportProtocol;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The 14 TCP service groups of Table V, ordered as in the paper
/// (by share of scanning packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ScanService {
    /// Telnet on 23, 2323 and the Mirai-variant port 23231.
    Telnet,
    /// HTTP on 80, 8080 and 81.
    Http,
    /// SSH on 22.
    Ssh,
    /// "BackroomNet" on 3387.
    BackroomNet,
    /// CPE WAN Management Protocol (TR-069) on 7547.
    Cwmp,
    /// WSDAPI-Secure on 5358.
    WsdapiS,
    /// Microsoft SQL Server on 1433.
    MsSqlServer,
    /// Kerberos on 88.
    Kerberos,
    /// Microsoft Directory Services (SMB) on 445.
    MsDs,
    /// EtherNet/IP I/O on 2222.
    EthernetIpIo,
    /// iRDMI / alternate HTTP on 8000.
    Irdmi,
    /// The unassigned port 21677 observed in the paper.
    Unassigned21677,
    /// Remote Desktop Protocol on 3389.
    Rdp,
    /// FTP on 21.
    Ftp,
}

impl ScanService {
    /// All 14 groups in Table V order.
    pub const ALL: [ScanService; 14] = [
        ScanService::Telnet,
        ScanService::Http,
        ScanService::Ssh,
        ScanService::BackroomNet,
        ScanService::Cwmp,
        ScanService::WsdapiS,
        ScanService::MsSqlServer,
        ScanService::Kerberos,
        ScanService::MsDs,
        ScanService::EthernetIpIo,
        ScanService::Irdmi,
        ScanService::Unassigned21677,
        ScanService::Rdp,
        ScanService::Ftp,
    ];

    /// The TCP destination ports belonging to this group.
    pub const fn ports(self) -> &'static [u16] {
        match self {
            ScanService::Telnet => &[23, 2323, 23231],
            ScanService::Http => &[80, 8080, 81],
            ScanService::Ssh => &[22],
            ScanService::BackroomNet => &[3387],
            ScanService::Cwmp => &[7547],
            ScanService::WsdapiS => &[5358],
            ScanService::MsSqlServer => &[1433],
            ScanService::Kerberos => &[88],
            ScanService::MsDs => &[445],
            ScanService::EthernetIpIo => &[2222],
            ScanService::Irdmi => &[8000],
            ScanService::Unassigned21677 => &[21677],
            ScanService::Rdp => &[3389],
            ScanService::Ftp => &[21],
        }
    }

    /// The group's primary (first-listed) port.
    pub fn primary_port(self) -> u16 {
        self.ports()[0]
    }

    /// Number of Table V slots: the 14 named groups plus the unnamed
    /// tail, whose [`group_of_port`](Self::group_of_port) value is
    /// [`OTHER_GROUP`](Self::OTHER_GROUP).
    pub const GROUPS: usize = Self::ALL.len() + 1;

    /// The [`group_of_port`](Self::group_of_port) value of every port
    /// outside the 14 named groups.
    pub const OTHER_GROUP: usize = Self::ALL.len();

    /// This group's position in [`ALL`](Self::ALL) (Table V order).
    pub const fn ordinal(self) -> usize {
        self as usize
    }

    /// The Table V slot of a TCP destination port: the
    /// [`ordinal`](Self::ordinal) of its named group, or
    /// [`OTHER_GROUP`](Self::OTHER_GROUP). One load from a 64 KiB table
    /// derived from [`ports`](Self::ports) at compile time.
    #[inline]
    pub fn group_of_port(port: u16) -> usize {
        usize::from(PORT_GROUP[usize::from(port)])
    }

    /// Classify a TCP destination port into its Table V group, if any.
    #[inline]
    pub fn from_port(port: u16) -> Option<ScanService> {
        Self::ALL.get(Self::group_of_port(port)).copied()
    }

    /// The label used in Table V, e.g. `"Telnet /23/2323/23231"`.
    pub fn table_label(self) -> String {
        let ports: Vec<String> = self.ports().iter().map(|p| p.to_string()).collect();
        format!("{} /{}", self, ports.join("/"))
    }
}

/// Port → Table V slot, for [`ScanService::group_of_port`].
static PORT_GROUP: [u8; 1 << 16] = {
    let mut table = [ScanService::OTHER_GROUP as u8; 1 << 16];
    let mut g = 0;
    while g < ScanService::ALL.len() {
        let ports = ScanService::ALL[g].ports();
        let mut i = 0;
        while i < ports.len() {
            table[ports[i] as usize] = g as u8;
            i += 1;
        }
        g += 1;
    }
    table
};

impl fmt::Display for ScanService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScanService::Telnet => "Telnet",
            ScanService::Http => "HTTP",
            ScanService::Ssh => "SSH",
            ScanService::BackroomNet => "BackroomNet",
            ScanService::Cwmp => "CWMP",
            ScanService::WsdapiS => "WSDAPI-S",
            ScanService::MsSqlServer => "MSSQLServer",
            ScanService::Kerberos => "Kerberos",
            ScanService::MsDs => "MS DS",
            ScanService::EthernetIpIo => "EthernetIP IO",
            ScanService::Irdmi => "iRDMI",
            ScanService::Unassigned21677 => "Unassigned",
            ScanService::Rdp => "RDP",
            ScanService::Ftp => "FTP",
        };
        f.write_str(s)
    }
}

/// Well-known UDP ports of Table IV, with the paper's labels.
///
/// Ports without an official assignment are labeled `"Not Assigned"`; the
/// interesting ones carry vulnerability lore (37547 is the Netcore/Netis
/// router backdoor, 53413 likewise).
pub const UDP_TABLE_PORTS: [(u16, &str); 10] = [
    (37547, "Not Assigned"),
    (137, "NetBIOS"),
    (53413, "Not Assigned"),
    (32124, "Not Assigned"),
    (28183, "Not Assigned"),
    (5353, "mDNS"),
    (4605, "Not Assigned"),
    (53, "DNS"),
    (3544, "Teredo"),
    (1194, "OpenVPN"),
];

/// A lookup table naming `(transport, port)` pairs.
///
/// # Example
///
/// ```
/// use iotscope_net::ports::ServiceRegistry;
/// use iotscope_net::protocol::TransportProtocol;
///
/// let reg = ServiceRegistry::standard();
/// assert_eq!(reg.name(TransportProtocol::Tcp, 23), Some("Telnet"));
/// assert_eq!(reg.name(TransportProtocol::Udp, 5353), Some("mDNS"));
/// assert_eq!(reg.name(TransportProtocol::Udp, 61234), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    names: HashMap<(TransportProtocol, u16), &'static str>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard registry covering every service named in the paper's
    /// tables plus common infrastructure ports.
    pub fn standard() -> Self {
        use TransportProtocol::{Tcp, Udp};
        let mut reg = ServiceRegistry::new();
        for svc in ScanService::ALL {
            for &p in svc.ports() {
                // Leak-free static names: ScanService names are 'static via
                // the match below.
                reg.insert(Tcp, p, scan_service_static_name(svc));
            }
        }
        for (port, name) in UDP_TABLE_PORTS {
            if name != "Not Assigned" {
                reg.insert(Udp, port, name);
            }
        }
        // Extra infrastructure ports used by examples and the simulator.
        reg.insert(Udp, 123, "NTP");
        reg.insert(Udp, 161, "SNMP");
        reg.insert(Udp, 1900, "SSDP");
        reg.insert(Tcp, 25, "SMTP");
        reg.insert(Tcp, 443, "HTTPS");
        reg.insert(Tcp, 502, "Modbus TCP");
        reg.insert(Tcp, 1911, "Niagara Fox");
        reg.insert(Tcp, 4911, "Niagara Fox TLS");
        reg.insert(Tcp, 1883, "MQTT");
        reg.insert(Tcp, 44818, "EtherNet/IP");
        reg.insert(Tcp, 20000, "DNP3");
        reg.insert(Tcp, 47808, "BACnet/IP");
        reg
    }

    /// Register (or replace) a name for `(proto, port)`.
    pub fn insert(&mut self, proto: TransportProtocol, port: u16, name: &'static str) {
        self.names.insert((proto, port), name);
    }

    /// Look up the service name for `(proto, port)`.
    pub fn name(&self, proto: TransportProtocol, port: u16) -> Option<&'static str> {
        self.names.get(&(proto, port)).copied()
    }

    /// The label used in report tables: the service name, or
    /// `"Not Assigned"` for unknown ports.
    pub fn label(&self, proto: TransportProtocol, port: u16) -> &'static str {
        self.name(proto, port).unwrap_or("Not Assigned")
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

fn scan_service_static_name(svc: ScanService) -> &'static str {
    match svc {
        ScanService::Telnet => "Telnet",
        ScanService::Http => "HTTP",
        ScanService::Ssh => "SSH",
        ScanService::BackroomNet => "BackroomNet",
        ScanService::Cwmp => "CWMP",
        ScanService::WsdapiS => "WSDAPI-S",
        ScanService::MsSqlServer => "MSSQLServer",
        ScanService::Kerberos => "Kerberos",
        ScanService::MsDs => "MS DS",
        ScanService::EthernetIpIo => "EthernetIP IO",
        ScanService::Irdmi => "iRDMI",
        ScanService::Unassigned21677 => "Unassigned",
        ScanService::Rdp => "RDP",
        ScanService::Ftp => "FTP",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_service_covers_all_table_v_ports() {
        assert_eq!(ScanService::from_port(23), Some(ScanService::Telnet));
        assert_eq!(ScanService::from_port(2323), Some(ScanService::Telnet));
        assert_eq!(ScanService::from_port(23231), Some(ScanService::Telnet));
        assert_eq!(ScanService::from_port(8080), Some(ScanService::Http));
        assert_eq!(ScanService::from_port(7547), Some(ScanService::Cwmp));
        assert_eq!(ScanService::from_port(3387), Some(ScanService::BackroomNet));
        assert_eq!(
            ScanService::from_port(21677),
            Some(ScanService::Unassigned21677)
        );
        assert_eq!(ScanService::from_port(9999), None);
    }

    #[test]
    fn port_lookup_equals_the_ports_definition_for_every_port() {
        for (i, svc) in ScanService::ALL.into_iter().enumerate() {
            assert_eq!(svc.ordinal(), i);
        }
        for port in 0..=u16::MAX {
            let groups: Vec<ScanService> = ScanService::ALL
                .into_iter()
                .filter(|s| s.ports().contains(&port))
                .collect();
            assert!(groups.len() <= 1, "port {port} in two groups");
            assert_eq!(ScanService::from_port(port), groups.first().copied());
            assert_eq!(
                ScanService::group_of_port(port),
                groups
                    .first()
                    .map_or(ScanService::OTHER_GROUP, |s| s.ordinal())
            );
        }
    }

    #[test]
    fn table_v_has_14_groups() {
        assert_eq!(ScanService::ALL.len(), 14);
    }

    #[test]
    fn scan_service_table_label_format() {
        assert_eq!(ScanService::Telnet.table_label(), "Telnet /23/2323/23231");
        assert_eq!(ScanService::Ssh.table_label(), "SSH /22");
    }

    #[test]
    fn primary_port_is_first_listed() {
        assert_eq!(ScanService::Telnet.primary_port(), 23);
        assert_eq!(ScanService::Http.primary_port(), 80);
    }

    #[test]
    fn registry_standard_lookups() {
        let reg = ServiceRegistry::standard();
        assert_eq!(reg.name(TransportProtocol::Tcp, 22), Some("SSH"));
        assert_eq!(reg.name(TransportProtocol::Tcp, 445), Some("MS DS"));
        assert_eq!(reg.name(TransportProtocol::Udp, 137), Some("NetBIOS"));
        assert_eq!(reg.name(TransportProtocol::Udp, 53), Some("DNS"));
        assert_eq!(reg.name(TransportProtocol::Udp, 3544), Some("Teredo"));
        assert_eq!(reg.name(TransportProtocol::Udp, 1194), Some("OpenVPN"));
        // Unassigned UDP table ports deliberately resolve to None.
        assert_eq!(reg.name(TransportProtocol::Udp, 37547), None);
        assert_eq!(reg.label(TransportProtocol::Udp, 37547), "Not Assigned");
        assert!(!reg.is_empty());
    }

    #[test]
    fn registry_protocol_distinguishes_tcp_udp() {
        let reg = ServiceRegistry::standard();
        // 53 is registered only for UDP in the standard table.
        assert_eq!(reg.name(TransportProtocol::Udp, 53), Some("DNS"));
        assert_eq!(reg.name(TransportProtocol::Tcp, 53), None);
    }

    #[test]
    fn registry_insert_overrides() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        reg.insert(TransportProtocol::Tcp, 9100, "JetDirect");
        assert_eq!(reg.name(TransportProtocol::Tcp, 9100), Some("JetDirect"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn udp_table_has_10_entries_in_paper_order() {
        assert_eq!(UDP_TABLE_PORTS.len(), 10);
        assert_eq!(UDP_TABLE_PORTS[0].0, 37547);
        assert_eq!(UDP_TABLE_PORTS[1], (137, "NetBIOS"));
        assert_eq!(UDP_TABLE_PORTS[9], (1194, "OpenVPN"));
    }
}
