//! Per-host socket table: who owns which port.
//!
//! Every socket records its owner's uid and *effective gid* — the egid is
//! what the UBF's group opt-in consults, and it is what `newgrp`/`sg` change
//! before a service is started (paper Sec. IV-D).

use crate::addr::{Port, Proto, EPHEMERAL_BASE, PRIVILEGED_PORT_MAX};
use eus_simos::{Credentials, Gid, Pid, Uid};
use std::collections::BTreeMap;
use std::fmt;

/// The identity attached to a socket: what an ident query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// Owning uid.
    pub uid: Uid,
    /// Effective gid of the owning process at bind/connect time.
    pub egid: Gid,
    /// Owning process, when known.
    pub pid: Option<Pid>,
}

impl PeerInfo {
    /// Identity from credentials.
    pub fn from_cred(cred: &Credentials) -> Self {
        PeerInfo {
            uid: cred.uid,
            egid: cred.gid,
            pid: None,
        }
    }

    /// True for uid 0.
    pub fn is_root(&self) -> bool {
        self.uid == eus_simos::ROOT_UID
    }
}

/// Whether a socket is a listener or a client (ephemeral) socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Accepting inbound connections.
    Listener,
    /// The local end of an outbound connection.
    Client,
}

/// One bound socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketEntry {
    /// Port owner identity.
    pub owner: PeerInfo,
    /// Listener or client.
    pub kind: SocketKind,
}

/// Binding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// EADDRINUSE.
    PortInUse(Proto, Port),
    /// Binding below 1024 without root.
    PrivilegedPort(Port),
    /// The ephemeral range is exhausted.
    NoEphemeralPorts,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::PortInUse(p, port) => write!(f, "{p} port {port} already in use"),
            BindError::PrivilegedPort(port) => {
                write!(f, "binding port {port} requires privilege")
            }
            BindError::NoEphemeralPorts => f.write_str("ephemeral port range exhausted"),
        }
    }
}

impl std::error::Error for BindError {}

/// All sockets on one host.
#[derive(Debug, Clone, Default)]
pub struct SocketTable {
    entries: BTreeMap<(Proto, Port), SocketEntry>,
    next_ephemeral: Port,
}

impl SocketTable {
    /// An empty table.
    pub fn new() -> Self {
        SocketTable {
            entries: BTreeMap::new(),
            next_ephemeral: EPHEMERAL_BASE,
        }
    }

    /// Bind a listening socket on a specific port.
    pub fn listen(&mut self, proto: Proto, port: Port, owner: PeerInfo) -> Result<(), BindError> {
        if port <= PRIVILEGED_PORT_MAX && !owner.is_root() {
            return Err(BindError::PrivilegedPort(port));
        }
        if self.entries.contains_key(&(proto, port)) {
            return Err(BindError::PortInUse(proto, port));
        }
        self.entries.insert(
            (proto, port),
            SocketEntry {
                owner,
                kind: SocketKind::Listener,
            },
        );
        Ok(())
    }

    /// Allocate an ephemeral client port for an outbound connection. The
    /// source identity is recorded so inbound ident queries can answer for
    /// the *initiator* side too.
    pub fn bind_ephemeral(&mut self, proto: Proto, owner: PeerInfo) -> Result<Port, BindError> {
        let start = self.next_ephemeral;
        loop {
            let candidate = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == Port::MAX {
                EPHEMERAL_BASE
            } else {
                self.next_ephemeral + 1
            };
            if let std::collections::btree_map::Entry::Vacant(e) =
                self.entries.entry((proto, candidate))
            {
                e.insert(SocketEntry {
                    owner,
                    kind: SocketKind::Client,
                });
                return Ok(candidate);
            }
            if self.next_ephemeral == start {
                return Err(BindError::NoEphemeralPorts);
            }
        }
    }

    /// Look up the socket bound to (proto, port).
    pub fn lookup(&self, proto: Proto, port: Port) -> Option<&SocketEntry> {
        self.entries.get(&(proto, port))
    }

    /// The listener on (proto, port), if any.
    pub fn listener(&self, proto: Proto, port: Port) -> Option<&SocketEntry> {
        self.lookup(proto, port)
            .filter(|e| e.kind == SocketKind::Listener)
    }

    /// Release a port.
    pub fn close(&mut self, proto: Proto, port: Port) -> bool {
        self.entries.remove(&(proto, port)).is_some()
    }

    /// Close every socket owned by `uid`; returns how many were closed.
    /// (Job epilog / session teardown.)
    pub fn close_all_of(&mut self, uid: Uid) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.owner.uid != uid);
        before - self.entries.len()
    }

    /// All listeners (diagnostics / audit).
    pub fn listeners(&self) -> impl Iterator<Item = (Proto, Port, &SocketEntry)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.kind == SocketKind::Listener)
            .map(|((proto, port), e)| (*proto, *port, e))
    }

    /// Number of bound sockets.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(uid: u32) -> PeerInfo {
        PeerInfo {
            uid: Uid(uid),
            egid: Gid(uid),
            pid: None,
        }
    }

    #[test]
    fn listen_and_lookup() {
        let mut t = SocketTable::new();
        t.listen(Proto::Tcp, 8888, peer(100)).unwrap();
        let e = t.listener(Proto::Tcp, 8888).unwrap();
        assert_eq!(e.owner.uid, Uid(100));
        // Different protocol namespace.
        assert!(t.listener(Proto::Udp, 8888).is_none());
    }

    #[test]
    fn port_conflicts_detected() {
        let mut t = SocketTable::new();
        t.listen(Proto::Tcp, 8888, peer(100)).unwrap();
        assert_eq!(
            t.listen(Proto::Tcp, 8888, peer(101)).unwrap_err(),
            BindError::PortInUse(Proto::Tcp, 8888)
        );
        // UDP on the same number is fine.
        t.listen(Proto::Udp, 8888, peer(101)).unwrap();
    }

    #[test]
    fn privileged_ports_require_root() {
        let mut t = SocketTable::new();
        assert_eq!(
            t.listen(Proto::Tcp, 80, peer(100)).unwrap_err(),
            BindError::PrivilegedPort(80)
        );
        let root = PeerInfo::from_cred(&Credentials::root());
        t.listen(Proto::Tcp, 80, root).unwrap();
    }

    #[test]
    fn ephemeral_ports_unique_and_owned() {
        let mut t = SocketTable::new();
        let a = t.bind_ephemeral(Proto::Tcp, peer(1)).unwrap();
        let b = t.bind_ephemeral(Proto::Tcp, peer(2)).unwrap();
        assert_ne!(a, b);
        assert!(a >= EPHEMERAL_BASE);
        assert_eq!(t.lookup(Proto::Tcp, b).unwrap().owner.uid, Uid(2));
        assert_eq!(t.lookup(Proto::Tcp, a).unwrap().kind, SocketKind::Client);
    }

    #[test]
    fn close_all_of_scrubs_one_user() {
        let mut t = SocketTable::new();
        t.listen(Proto::Tcp, 9000, peer(1)).unwrap();
        t.listen(Proto::Tcp, 9001, peer(2)).unwrap();
        t.bind_ephemeral(Proto::Udp, peer(1)).unwrap();
        assert_eq!(t.close_all_of(Uid(1)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.close(Proto::Tcp, 9001));
        assert!(!t.close(Proto::Tcp, 9001));
    }

    #[test]
    fn peer_info_from_cred_uses_egid() {
        let cred = Credentials::with_groups(Uid(10), Gid(55), [Gid(10)]);
        let p = PeerInfo::from_cred(&cred);
        assert_eq!(p.egid, Gid(55), "egid follows newgrp");
        assert!(!p.is_root());
    }
}
