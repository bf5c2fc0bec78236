//! Addressing types for the simulated cluster network.

use eus_simos::NodeId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Transport protocol. The UBF acts on both TCP and UDP (Appendix); other
/// protocols are assumed disabled at the host firewall on LLSC systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// Connection-oriented.
    Tcp,
    /// Datagram; "connections" are conntrack flows.
    Udp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Proto::Tcp => "tcp",
            Proto::Udp => "udp",
        })
    }
}

/// A port number.
pub type Port = u16;

/// First non-privileged port: binding below this requires root.
pub const PRIVILEGED_PORT_MAX: Port = 1023;

/// First port of the ephemeral range used for client sockets.
pub const EPHEMERAL_BASE: Port = 32768;

/// A (host, port) endpoint. Hosts are cluster nodes, so we address by
/// [`NodeId`] directly rather than modeling IP assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// The node.
    pub host: NodeId,
    /// The port.
    pub port: Port,
}

impl SocketAddr {
    /// Construct an endpoint.
    pub fn new(host: NodeId, port: Port) -> Self {
        SocketAddr { host, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// A flow identity: protocol plus both endpoints, as conntrack keys flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Transport protocol.
    pub proto: Proto,
    /// Initiator endpoint.
    pub src: SocketAddr,
    /// Responder endpoint.
    pub dst: SocketAddr,
}

impl FiveTuple {
    /// The reverse direction of this flow.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            proto: self.proto,
            src: self.dst,
            dst: self.src,
        }
    }
}

/// Two words, so the keyed conntrack hasher spends two rounds on a flow:
/// both hosts, then both ports and the protocol. The packing is injective,
/// so distinct flows collide no more often than the hash itself makes them.
impl Hash for FiveTuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((u64::from(self.src.host.0) << 32) | u64::from(self.dst.host.0));
        state.write_u64(
            (u64::from(self.src.port) << 32) | (u64::from(self.dst.port) << 16) | self.proto as u64,
        );
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -> {}", self.proto, self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_reverse() {
        let t = FiveTuple {
            proto: Proto::Tcp,
            src: SocketAddr::new(NodeId(1), 40000),
            dst: SocketAddr::new(NodeId(2), 8888),
        };
        assert_eq!(t.to_string(), "tcp node:1:40000 -> node:2:8888");
        let r = t.reversed();
        assert_eq!(r.src.host, NodeId(2));
        assert_eq!(r.reversed(), t);
    }
}
