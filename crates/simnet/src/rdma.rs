//! InfiniBand / RDMA modeling (paper Sec. IV-D and Appendix).
//!
//! RDMA data movement bypasses the host network stack, so the UBF cannot see
//! it. What the UBF *can* control is queue-pair (QP) setup: "many such
//! applications use a TCP connection as a control channel to set up their
//! InfiniBand queue pairs and thus can be effectively controlled by the UBF.
//! This does not prevent applications from using the connection manager (CM)
//! directly" — the residual path
//! `network_ubf::rdma_tcp_setup_governed_native_cm_not` demonstrates.
//!
//! Once a QP exists, [`Fabric::rdma_read`] reads registered memory regions
//! with **no credential checks at all**, modeling the hardware's
//! indifference to Unix ownership (cf. ReDMArk).

use crate::addr::{Proto, SocketAddr};
use crate::fabric::{ConnectError, Fabric};
use crate::socket::PeerInfo;
use eus_simos::{NodeId, UserDb};
use std::fmt;

/// A registered RDMA memory region. It records no owner: the NIC never
/// checks one.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    /// Region contents.
    pub data: Vec<u8>,
}

/// How a queue pair was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpSetupPath {
    /// Via a TCP control channel — subject to the UBF.
    TcpControl,
    /// Via the native IB connection manager — invisible to the UBF.
    NativeCm,
}

/// An established queue pair between two hosts.
#[derive(Debug, Clone)]
pub struct QueuePair {
    /// QP number.
    pub id: u64,
    /// Initiating host.
    pub src: NodeId,
    /// Target host.
    pub dst: NodeId,
    /// Identity of the initiating process (as known at setup).
    pub initiator: PeerInfo,
    /// Which setup path produced it.
    pub path: QpSetupPath,
}

/// RDMA operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// No region with that rkey on the target host.
    NoSuchRegion(u64),
    /// Unknown host.
    NoSuchHost(NodeId),
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::NoSuchRegion(k) => write!(f, "no RDMA region with rkey {k}"),
            RdmaError::NoSuchHost(n) => write!(f, "no such host {n}"),
        }
    }
}

impl std::error::Error for RdmaError {}

impl Fabric {
    /// Register a memory region on a host; returns the rkey a peer would use.
    pub fn rdma_register(&mut self, host: NodeId, data: Vec<u8>) -> Result<u64, RdmaError> {
        let h = self.host_mut(host).ok_or(RdmaError::NoSuchHost(host))?;
        let rkey = h.next_rkey;
        h.next_rkey += 1;
        h.rdma_regions.insert(rkey, MemoryRegion { data });
        Ok(rkey)
    }

    /// Set up a QP using a TCP control channel to a rendezvous listener on
    /// the target — the path the UBF governs, judged against `directory`
    /// as [`Fabric::connect`] is. The control connection stays open for the
    /// QP's lifetime (as MPI runtimes do).
    pub fn setup_qp_via_tcp(
        &mut self,
        directory: &UserDb,
        src_host: NodeId,
        initiator: PeerInfo,
        rendezvous: SocketAddr,
    ) -> Result<QueuePair, ConnectError> {
        let (_conn, _setup) =
            self.connect(directory, src_host, initiator, rendezvous, Proto::Tcp)?;
        let id = self.next_qp;
        self.next_qp += 1;
        Ok(QueuePair {
            id,
            src: src_host,
            dst: rendezvous.host,
            initiator,
            path: QpSetupPath::TcpControl,
        })
    }

    /// Set up a QP through the native IB connection manager: no TCP, no
    /// netfilter, no UBF. Succeeds whenever the target host exists — this is
    /// the residual channel the paper acknowledges.
    pub fn setup_qp_native_cm(
        &mut self,
        src_host: NodeId,
        initiator: PeerInfo,
        dst_host: NodeId,
    ) -> Result<QueuePair, RdmaError> {
        if self.host(src_host).is_none() {
            return Err(RdmaError::NoSuchHost(src_host));
        }
        if self.host(dst_host).is_none() {
            return Err(RdmaError::NoSuchHost(dst_host));
        }
        let id = self.next_qp;
        self.next_qp += 1;
        Ok(QueuePair {
            id,
            src: src_host,
            dst: dst_host,
            initiator,
            path: QpSetupPath::NativeCm,
        })
    }

    /// One-sided RDMA read: fetch a remote region's bytes. Note the absence
    /// of any uid comparison — the NIC moves bytes for whoever holds an rkey.
    pub fn rdma_read(&self, qp: &QueuePair, rkey: u64) -> Result<Vec<u8>, RdmaError> {
        let h = self.host(qp.dst).ok_or(RdmaError::NoSuchHost(qp.dst))?;
        h.rdma_regions
            .get(&rkey)
            .map(|r| r.data.clone())
            .ok_or(RdmaError::NoSuchRegion(rkey))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::{Gid, Uid};

    fn peer(uid: u32) -> PeerInfo {
        PeerInfo {
            uid: Uid(uid),
            egid: Gid(uid),
            pid: None,
        }
    }

    fn fabric() -> Fabric {
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        f
    }

    #[test]
    fn tcp_setup_path_goes_through_connect() {
        let mut f = fabric();
        let (db, rendezvous) = (UserDb::new(), SocketAddr::new(NodeId(2), 18515));
        // No rendezvous listener → setup fails exactly like a TCP connect.
        let err = f
            .setup_qp_via_tcp(&db, NodeId(1), peer(1), rendezvous)
            .unwrap_err();
        assert!(matches!(err, ConnectError::ConnectionRefused(_)));

        f.listen(NodeId(2), Proto::Tcp, 18515, peer(2)).unwrap();
        let qp = f
            .setup_qp_via_tcp(&db, NodeId(1), peer(1), rendezvous)
            .unwrap();
        assert_eq!(qp.path, QpSetupPath::TcpControl);
    }

    #[test]
    fn native_cm_bypasses_everything() {
        let mut f = fabric();
        // Even with no listener and (in later crates) a UBF, native CM works.
        let qp = f.setup_qp_native_cm(NodeId(1), peer(1), NodeId(2)).unwrap();
        assert_eq!(qp.path, QpSetupPath::NativeCm);
        assert!(f.setup_qp_native_cm(NodeId(1), peer(1), NodeId(9)).is_err());
    }

    #[test]
    fn rdma_read_ignores_ownership() {
        let mut f = fabric();
        let rkey = f.rdma_register(NodeId(2), b"victim data".to_vec()).unwrap();
        let qp = f
            .setup_qp_native_cm(NodeId(1), peer(999), NodeId(2))
            .unwrap();
        // uid 999 reads uid 100's region: the modeled hardware gap.
        assert_eq!(f.rdma_read(&qp, rkey).unwrap(), b"victim data");
        assert_eq!(
            f.rdma_read(&qp, 404).unwrap_err(),
            RdmaError::NoSuchRegion(404)
        );
    }
}
