//! IPv4-style addressing. The paper registers edge services by their unique
//! *cloud* `(IP address, port)` pair; these types are used as flow-match keys
//! throughout the workspace, so they are small `Copy` values with total order.

use std::fmt;
use std::str::FromStr;

/// A 32-bit IPv4-style address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr(pub u32);

impl IpAddr {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    pub(crate) const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error parsing an [`IpAddr`] or [`SocketAddr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}
impl std::error::Error for AddrParseError {}

impl FromStr for IpAddr {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.to_string()));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        Ok(IpAddr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An `(ip, port)` endpoint — the identity of a registered edge service and
/// the src/dst of every simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    pub ip: IpAddr,
    pub port: u16,
}

impl SocketAddr {
    pub const fn new(ip: IpAddr, port: u16) -> SocketAddr {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl FromStr for SocketAddr {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, port) = s
            .rsplit_once(':')
            .ok_or_else(|| AddrParseError(s.to_string()))?;
        Ok(SocketAddr {
            ip: ip.parse()?,
            port: port.parse().map_err(|_| AddrParseError(s.to_string()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_roundtrip() {
        let ip = IpAddr::new(192, 168, 1, 42);
        assert_eq!(ip.to_string(), "192.168.1.42");
        assert_eq!("192.168.1.42".parse::<IpAddr>().unwrap(), ip);
        assert_eq!(ip.octets(), [192, 168, 1, 42]);
    }

    #[test]
    fn socket_addr_roundtrip() {
        let sa: SocketAddr = "10.0.0.1:8080".parse().unwrap();
        assert_eq!(sa.ip, IpAddr::new(10, 0, 0, 1));
        assert_eq!(sa.port, 8080);
        assert_eq!(sa.to_string(), "10.0.0.1:8080");
    }

    #[test]
    fn parse_errors() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.4.5".parse::<IpAddr>().is_err());
        assert!("1.2.3.999".parse::<IpAddr>().is_err());
        assert!("1.2.3.4".parse::<SocketAddr>().is_err()); // missing port
        assert!("1.2.3.4:notaport".parse::<SocketAddr>().is_err());
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let a = SocketAddr::new(IpAddr::new(1, 0, 0, 1), 80);
        let b = SocketAddr::new(IpAddr::new(1, 0, 0, 1), 443);
        let c = SocketAddr::new(IpAddr::new(2, 0, 0, 1), 80);
        assert!(a < b && b < c);
    }
}
