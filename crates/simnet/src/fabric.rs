//! The cluster fabric: hosts, connection establishment, and data transfer.
//!
//! [`Fabric::connect`] models the full path of a new flow: ephemeral source
//! port allocation, the source's OUTPUT chain, delivery to the destination's
//! INPUT chain, `NFQUEUE` dispatch to a registered userspace handler (the
//! UBF daemon), conntrack establishment, and latency accounting per
//! [`crate::latency::LatencyModel`]. Established flows ([`Fabric::send`])
//! bypass the queue entirely — matching the paper's claim that the UBF costs
//! nothing after setup.

use crate::addr::{FiveTuple, Port, Proto, SocketAddr};
use crate::conntrack::ConnTrack;
use crate::latency::{LatencyModel, SetupCosts};
use crate::netfilter::{ConnState, Firewall, PacketMeta, Verdict};
use crate::rdma::MemoryRegion;
use crate::socket::{BindError, PeerInfo, SocketTable};
use eus_simcore::{Counter, SimDuration, SimRng};
use eus_simos::{Gid, NodeId, Uid};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Everything a queued-connection handler gets to see: the flow, plus both
/// endpoint identities. `initiator` is what the ident query to the
/// initiating host returns; `listener` is the receiving daemon's local
/// lookup. The handler records what the decision cost into `costs`.
#[derive(Debug)]
pub struct QueueCtx<'a> {
    /// The flow being decided.
    pub tuple: FiveTuple,
    /// Identity of the connecting process.
    pub initiator: PeerInfo,
    /// Identity of the listening process.
    pub listener: PeerInfo,
    /// Cost accounting, filled by the handler.
    pub costs: &'a mut SetupCosts,
}

/// A userspace daemon attached to an NFQUEUE number.
pub trait QueueHandler: Send {
    /// Daemon name for diagnostics.
    fn name(&self) -> &str;
    /// Decide the fate of a queued new connection.
    fn judge(&mut self, ctx: &mut QueueCtx<'_>) -> Verdict;
}

/// One host's network stack.
pub struct HostNet {
    /// The node this stack belongs to.
    pub id: NodeId,
    /// Bound sockets.
    pub sockets: SocketTable,
    /// Packet filter.
    pub firewall: Firewall,
    /// Flow tracking.
    pub conntrack: ConnTrack,
    /// RDMA memory regions registered on this host, by rkey.
    pub rdma_regions: BTreeMap<u64, MemoryRegion>,
    pub(crate) next_rkey: u64,
    handlers: BTreeMap<u16, Box<dyn QueueHandler>>,
}

impl fmt::Debug for HostNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostNet")
            .field("id", &self.id)
            .field("sockets", &self.sockets.len())
            .field("conntrack", &self.conntrack.len())
            .field("queues", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl HostNet {
    fn new(id: NodeId) -> Self {
        HostNet {
            id,
            sockets: SocketTable::new(),
            firewall: Firewall::open(),
            conntrack: ConnTrack::new(),
            rdma_regions: BTreeMap::new(),
            next_rkey: 1,
            handlers: BTreeMap::new(),
        }
    }

    /// Attach a userspace handler to a queue number.
    pub fn set_queue_handler(&mut self, queue: u16, handler: Box<dyn QueueHandler>) {
        self.handlers.insert(queue, handler);
    }

    /// Run a new flow's packet through this host's `chain` (`"output"` or
    /// `"input"`): accept, drop, or hand the flow to the handler on the
    /// queue the chain names. `Ok(true)` when a handler judged (and
    /// accepted) it.
    fn pass_chain(
        &mut self,
        chain: &'static str,
        pkt: &PacketMeta,
        initiator: PeerInfo,
        listener: PeerInfo,
        costs: &mut SetupCosts,
        queued_packets: &mut Counter,
    ) -> Result<bool, ConnectError> {
        let rules = if chain == "output" {
            &self.firewall.output
        } else {
            &self.firewall.input
        };
        match rules.evaluate(pkt) {
            Verdict::Accept => Ok(false),
            Verdict::Drop => Err(ConnectError::Dropped { chain }),
            Verdict::Queue(queue) => {
                queued_packets.incr();
                let handler = self
                    .handlers
                    .get_mut(&queue)
                    .ok_or(ConnectError::NoHandler(queue))?;
                let mut ctx = QueueCtx {
                    tuple: pkt.tuple,
                    initiator,
                    listener,
                    costs,
                };
                match handler.judge(&mut ctx) {
                    Verdict::Accept => Ok(true),
                    _ => Err(ConnectError::DeniedByDaemon {
                        queue,
                        handler: handler.name().to_string(),
                    }),
                }
            }
        }
    }
}

/// Handle to an established connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// An established flow.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Handle.
    pub id: ConnId,
    /// Flow identity.
    pub tuple: FiveTuple,
    /// Connecting side's identity.
    pub initiator: PeerInfo,
    /// Listening side's identity.
    pub listener: PeerInfo,
    /// Payload bytes moved so far.
    pub bytes_sent: u64,
}

/// Why a connection attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// Unknown node.
    NoSuchHost(NodeId),
    /// Could not bind the client socket.
    Bind(BindError),
    /// No listener on the destination port (RST).
    ConnectionRefused(SocketAddr),
    /// A firewall chain dropped the packet.
    Dropped {
        /// `"output"` or `"input"`.
        chain: &'static str,
    },
    /// The userspace daemon denied the connection.
    DeniedByDaemon {
        /// Queue number consulted.
        queue: u16,
        /// Handler name.
        handler: String,
    },
    /// A chain queued to a number with no attached handler (packets on an
    /// orphaned NFQUEUE are dropped, as on Linux).
    NoHandler(u16),
    /// The link between the endpoints is administratively severed (fault
    /// injection: [`Fabric::set_partitioned`]).
    Partitioned {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The connection-setup packet was lost on a lossy link (fault
    /// injection: [`Fabric::set_link_loss`]).
    LinkLost,
    /// The endpoint asked to run under a group (`newgrp`) its user may
    /// not assume: no such group, or not a member of it.
    NewgrpRefused {
        /// The user who asked.
        user: Uid,
        /// The group asked for.
        group: Gid,
    },
    /// The endpoint's user is not in the account database.
    NoSuchUser(Uid),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::NoSuchHost(n) => write!(f, "no such host {n}"),
            ConnectError::Bind(e) => write!(f, "bind failed: {e}"),
            ConnectError::ConnectionRefused(a) => write!(f, "connection refused by {a}"),
            ConnectError::Dropped { chain } => write!(f, "dropped by {chain} chain"),
            ConnectError::DeniedByDaemon { queue, handler } => {
                write!(f, "denied by {handler} on queue {queue}")
            }
            ConnectError::NoHandler(q) => write!(f, "queue {q} has no handler"),
            ConnectError::Partitioned { a, b } => {
                write!(f, "link {a} <-> {b} is partitioned")
            }
            ConnectError::LinkLost => f.write_str("setup packet lost on a lossy link"),
            ConnectError::NewgrpRefused { user, group } => {
                write!(f, "{user} may not newgrp to {group}")
            }
            ConnectError::NoSuchUser(u) => write!(f, "no such user {u}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Errors on established-flow sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Unknown connection handle.
    NoSuchConnection(ConnId),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoSuchConnection(c) => write!(f, "no such connection {c:?}"),
        }
    }
}

impl std::error::Error for SendError {}

/// Fabric-wide measurement.
#[derive(Debug, Clone, Default)]
pub struct FabricMetrics {
    /// Total connect() calls.
    pub connects_attempted: Counter,
    /// Connects that established.
    pub connects_allowed: Counter,
    /// Connects refused/denied/dropped.
    pub connects_denied: Counter,
    /// Packets sent on established flows.
    pub established_packets: Counter,
    /// New-connection packets punted to userspace.
    pub queued_packets: Counter,
    /// Connects refused because the host pair is partitioned (fault
    /// injection).
    pub connects_partitioned: Counter,
    /// Connects lost to injected link loss (fault injection).
    pub connects_lost: Counter,
}

/// The cluster network.
pub struct Fabric {
    /// Host ids in ascending order; `hosts[i]` is `ids[i]`'s stack. A
    /// connect or close finds each endpoint with one binary search over
    /// this short array. It stays compact however sparse the ids are (the
    /// revsync WAN's hosts are `NodeId(900_000 + realm)`).
    ids: Vec<NodeId>,
    hosts: Vec<HostNet>,
    /// Cost constants.
    pub latency: LatencyModel,
    connections: BTreeMap<ConnId, Connection>,
    next_conn: u64,
    pub(crate) next_qp: u64,
    /// Measurements.
    pub metrics: FabricMetrics,
    /// Severed host pairs, normalized `(min, max)` (fault injection):
    /// new connections between them fail with
    /// [`ConnectError::Partitioned`].
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Per-pair setup-packet loss probability, normalized `(min, max)`
    /// (fault injection); absent pairs are lossless and draw nothing from
    /// the fault RNG.
    loss: BTreeMap<(NodeId, NodeId), f64>,
    /// Per-pair additive latency, normalized `(min, max)` (fault
    /// injection): added to both setup and transfer time on that link.
    latency_spikes: BTreeMap<(NodeId, NodeId), SimDuration>,
    /// Seeded RNG behind loss decisions; drawn only for pairs with a
    /// configured loss rate, so fault-free runs consume no stream.
    fault_rng: SimRng,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("hosts", &self.hosts.len())
            .field("connections", &self.connections.len())
            .finish()
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// An empty fabric with default latency constants.
    pub fn new() -> Self {
        Fabric {
            ids: Vec::new(),
            hosts: Vec::new(),
            latency: LatencyModel::default(),
            connections: BTreeMap::new(),
            next_conn: 1,
            next_qp: 1,
            metrics: FabricMetrics::default(),
            partitions: BTreeSet::new(),
            loss: BTreeMap::new(),
            latency_spikes: BTreeMap::new(),
            fault_rng: SimRng::seed_from_u64(0xFAB_FA17),
        }
    }

    // ------------------------------------------------------------------
    // Link faults (eus-chaos)
    // ------------------------------------------------------------------

    /// Normalize a host pair so `(a, b)` and `(b, a)` address one link.
    fn link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sever (or heal) the link between two hosts: while down, every new
    /// connection between them fails with [`ConnectError::Partitioned`].
    /// Established flows are left to their owners — like a real cable cut,
    /// in-memory connection state survives until the application notices.
    pub fn set_partitioned(&mut self, a: NodeId, b: NodeId, down: bool) {
        let key = Self::link(a, b);
        if down {
            self.partitions.insert(key);
        } else {
            self.partitions.remove(&key);
        }
    }

    /// Whether the link between two hosts is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::link(a, b))
    }

    /// Set the setup-packet loss probability on a link (`0.0` clears it).
    /// Loss draws come from the seeded fault RNG, so runs reproduce.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, rate: f64) {
        let key = Self::link(a, b);
        if rate > 0.0 {
            self.loss.insert(key, rate.clamp(0.0, 1.0));
        } else {
            self.loss.remove(&key);
        }
    }

    /// Add (or, with `SimDuration::ZERO`, clear) a latency spike on a
    /// link: the extra is paid on every setup and every transfer crossing
    /// it.
    pub fn set_latency_spike(&mut self, a: NodeId, b: NodeId, extra: SimDuration) {
        let key = Self::link(a, b);
        if extra > SimDuration::ZERO {
            self.latency_spikes.insert(key, extra);
        } else {
            self.latency_spikes.remove(&key);
        }
    }

    /// Reseed the fault RNG (chaos runs derive it from the plan seed so
    /// loss decisions replay bit-for-bit).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = SimRng::seed_from_u64(seed);
    }

    /// The injected extra latency on a link (ZERO when unspiked).
    fn spike(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.latency_spikes
            .get(&Self::link(a, b))
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Add a host; an existing host is returned as it is.
    pub fn add_host(&mut self, id: NodeId) -> &mut HostNet {
        let i = match self.ids.binary_search(&id) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, id);
                self.hosts.insert(i, HostNet::new(id));
                i
            }
        };
        &mut self.hosts[i]
    }

    /// Where a host's stack sits in `hosts`.
    #[inline]
    fn slot(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Borrow a host's stack.
    pub fn host(&self, id: NodeId) -> Option<&HostNet> {
        self.slot(id).map(|i| &self.hosts[i])
    }

    /// Mutably borrow a host's stack.
    pub fn host_mut(&mut self, id: NodeId) -> Option<&mut HostNet> {
        self.slot(id).map(|i| &mut self.hosts[i])
    }

    /// Per-host conntrack flow-table occupancy (directional entries), in
    /// host order — the gauge source the cluster's observability plane
    /// samples at cycle boundaries.
    pub fn flow_table_occupancy(&self) -> Vec<(NodeId, usize)> {
        self.hosts
            .iter()
            .map(|h| (h.id, h.conntrack.len()))
            .collect()
    }

    /// Total directional conntrack entries across every host (each
    /// established connection contributes two entries — one per direction —
    /// in both endpoints' tables).
    pub fn flows_tracked(&self) -> usize {
        self.hosts.iter().map(|h| h.conntrack.len()).sum()
    }

    /// Bind a listener on a host.
    pub fn listen(
        &mut self,
        host: NodeId,
        proto: Proto,
        port: Port,
        owner: PeerInfo,
    ) -> Result<(), ConnectError> {
        self.host_mut(host)
            .ok_or(ConnectError::NoSuchHost(host))?
            .sockets
            .listen(proto, port, owner)
            .map_err(ConnectError::Bind)
    }

    /// Borrow an established connection.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.connections.get(&id)
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// What a new flow must pass once its client port (on `hosts[s]`) is
    /// bound: a listener at the destination (`hosts[d]`), whose identity
    /// is resolved first because both chains' handlers may need it, then
    /// the source's OUTPUT chain and the destination's INPUT chain.
    /// Returns whether a handler judged the flow, and the listener.
    fn admit(
        &mut self,
        s: usize,
        d: usize,
        pkt: &PacketMeta,
        initiator: PeerInfo,
        costs: &mut SetupCosts,
    ) -> Result<(bool, PeerInfo), ConnectError> {
        let dst = pkt.tuple.dst;
        let listener = self.hosts[d]
            .sockets
            .listener(pkt.tuple.proto, dst.port)
            .ok_or(ConnectError::ConnectionRefused(dst))?
            .owner;
        let queued = &mut self.metrics.queued_packets;
        let out = self.hosts[s].pass_chain("output", pkt, initiator, listener, costs, queued)?;
        let inp = self.hosts[d].pass_chain("input", pkt, initiator, listener, costs, queued)?;
        Ok((out || inp, listener))
    }

    /// Attempt a new connection. On success returns the connection handle
    /// and the modeled setup latency.
    pub fn connect(
        &mut self,
        src_host: NodeId,
        initiator: PeerInfo,
        dst: SocketAddr,
        proto: Proto,
    ) -> Result<(ConnId, SimDuration), ConnectError> {
        self.metrics.connects_attempted.incr();
        let result = self.connect_inner(src_host, initiator, dst, proto);
        match &result {
            Ok(_) => self.metrics.connects_allowed.incr(),
            Err(_) => self.metrics.connects_denied.incr(),
        }
        result
    }

    fn connect_inner(
        &mut self,
        src_host: NodeId,
        initiator: PeerInfo,
        dst: SocketAddr,
        proto: Proto,
    ) -> Result<(ConnId, SimDuration), ConnectError> {
        let d = self
            .slot(dst.host)
            .ok_or(ConnectError::NoSuchHost(dst.host))?;
        // Injected link faults fire before any host state is touched — a
        // severed or lossy cable never consumes an ephemeral port.
        if self.is_partitioned(src_host, dst.host) {
            self.metrics.connects_partitioned.incr();
            return Err(ConnectError::Partitioned {
                a: src_host,
                b: dst.host,
            });
        }
        if let Some(&rate) = self.loss.get(&Self::link(src_host, dst.host)) {
            if self.fault_rng.chance(rate) {
                self.metrics.connects_lost.incr();
                return Err(ConnectError::LinkLost);
            }
        }
        let s = self
            .slot(src_host)
            .ok_or(ConnectError::NoSuchHost(src_host))?;
        // Bind the client socket so ident queries about the initiator answer.
        let src_port = self.hosts[s]
            .sockets
            .bind_ephemeral(proto, initiator)
            .map_err(ConnectError::Bind)?;
        let tuple = FiveTuple {
            proto,
            src: SocketAddr::new(src_host, src_port),
            dst,
        };
        let pkt = PacketMeta {
            tuple,
            state: ConnState::New,
            payload_len: 0,
        };
        let mut costs = SetupCosts::default();
        let (queued, listener) = match self.admit(s, d, &pkt, initiator, &mut costs) {
            Ok(admitted) => admitted,
            Err(e) => {
                self.hosts[s].sockets.close(proto, src_port);
                return Err(e);
            }
        };

        // Establish: conntrack on both hosts, register the connection.
        self.hosts[s].conntrack.establish(tuple);
        self.hosts[d].conntrack.establish(tuple);
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.connections.insert(
            id,
            Connection {
                id,
                tuple,
                initiator,
                listener,
                bytes_sent: 0,
            },
        );
        let setup = self.latency.setup_time(queued, &costs) + self.spike(src_host, dst.host);
        Ok((id, setup))
    }

    /// Send payload on an established connection. Conntrack recognizes the
    /// flow, so the packet takes the passthrough path: no queue, no daemon —
    /// the cost is pure transfer time.
    pub fn send(&mut self, id: ConnId, payload: &bytes::Bytes) -> Result<SimDuration, SendError> {
        let conn = self
            .connections
            .get_mut(&id)
            .ok_or(SendError::NoSuchConnection(id))?;
        debug_assert!(
            self.ids
                .binary_search(&conn.tuple.dst.host)
                .is_ok_and(|d| self.hosts[d].conntrack.is_established(&conn.tuple)),
            "established connection must be in conntrack"
        );
        conn.bytes_sent += payload.len() as u64;
        let (a, b) = (conn.tuple.src.host, conn.tuple.dst.host);
        self.metrics.established_packets.incr();
        Ok(self.latency.transfer_time(payload.len()) + self.spike(a, b))
    }

    /// Close a connection: remove conntrack entries and free the client port.
    pub fn close(&mut self, id: ConnId) -> bool {
        let Some(conn) = self.connections.remove(&id) else {
            return false;
        };
        let t = conn.tuple;
        if let Some(h) = self.host_mut(t.src.host) {
            h.conntrack.remove(&t);
            h.sockets.close(t.proto, t.src.port);
        }
        if let Some(h) = self.host_mut(t.dst.host) {
            h.conntrack.remove(&t);
        }
        true
    }

    /// The connections whose endpoint on `node` is `uid`'s.
    pub fn flows_of(&self, node: NodeId, uid: Uid) -> impl Iterator<Item = ConnId> + '_ {
        self.connections
            .values()
            .filter(move |c| {
                (c.tuple.src.host == node && c.initiator.uid == uid)
                    || (c.tuple.dst.host == node && c.listener.uid == uid)
            })
            .map(|c| c.id)
    }

    /// Close every connection whose endpoint on `node` is `uid`'s: both
    /// ends' conntrack entries and the client port go, as in
    /// [`close`](Self::close). A job epilog calls this, so a departed
    /// tenant's flows stop carrying traffic. Returns the connections
    /// closed.
    pub fn close_flows_of(&mut self, node: NodeId, uid: Uid) -> usize {
        let doomed: Vec<ConnId> = self.flows_of(node, uid).collect();
        for &id in &doomed {
            self.close(id);
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netfilter::RuleMatch;
    use eus_simos::{Gid, Uid};

    fn peer(uid: u32) -> PeerInfo {
        PeerInfo {
            uid: Uid(uid),
            egid: Gid(uid),
            pid: None,
        }
    }

    fn two_hosts() -> Fabric {
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        f
    }

    #[test]
    fn flow_table_occupancy_tracks_connections() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        assert_eq!(f.flows_tracked(), 0);
        let (id, _) = f
            .connect(
                NodeId(1),
                peer(101),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        // One flow: two directional entries at each endpoint.
        assert_eq!(f.flows_tracked(), 4);
        let occ = f.flow_table_occupancy();
        assert_eq!(occ, vec![(NodeId(1), 2), (NodeId(2), 2)]);
        f.close(id);
        assert_eq!(f.flows_tracked(), 0);
    }

    #[test]
    fn open_firewall_connect_and_send() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        let (id, setup) = f
            .connect(
                NodeId(1),
                peer(101),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        assert_eq!(setup, f.latency.base_rtt, "no inspection on open firewall");
        let t = f.send(id, &bytes::Bytes::from_static(b"hello")).unwrap();
        assert!(t > SimDuration::ZERO);
        assert_eq!(f.connection(id).unwrap().bytes_sent, 5);
        assert!(f.close(id));
        assert!(!f.close(id));
        assert_eq!(f.metrics.connects_allowed.get(), 1);
    }

    #[test]
    fn connection_refused_without_listener() {
        let mut f = two_hosts();
        let err = f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 9999),
                Proto::Tcp,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConnectError::ConnectionRefused(SocketAddr::new(NodeId(2), 9999))
        );
        // The failed attempt released its ephemeral port.
        assert!(f.host(NodeId(1)).unwrap().sockets.is_empty());
        assert_eq!(f.metrics.connects_denied.get(), 1);
    }

    #[test]
    fn input_drop_rule_blocks() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        f.host_mut(NodeId(2)).unwrap().firewall.input.push(
            RuleMatch {
                proto: Some(Proto::Tcp),
                dport: Some((8888, 8888)),
                state: None,
            },
            Verdict::Drop,
            "block 8888",
        );
        let err = f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap_err();
        assert_eq!(err, ConnectError::Dropped { chain: "input" });
    }

    struct DenyUid(u32);
    impl QueueHandler for DenyUid {
        fn name(&self) -> &str {
            "deny-uid"
        }
        fn judge(&mut self, ctx: &mut QueueCtx<'_>) -> Verdict {
            ctx.costs.daemon_lookups += 1;
            ctx.costs.ident_rtts += 1;
            if ctx.initiator.uid == Uid(self.0) {
                Verdict::Drop
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn queue_handler_judges_new_connections() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        f.host_mut(NodeId(2)).unwrap().firewall.input.push(
            RuleMatch {
                proto: Some(Proto::Tcp),
                dport: Some((1024, 65535)),
                state: Some(ConnState::New),
            },
            Verdict::Queue(0),
            "inspect",
        );
        f.host_mut(NodeId(2))
            .unwrap()
            .set_queue_handler(0, Box::new(DenyUid(666)));

        // Denied initiator.
        let err = f
            .connect(
                NodeId(1),
                peer(666),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap_err();
        assert!(matches!(err, ConnectError::DeniedByDaemon { queue: 0, .. }));

        // Allowed initiator pays the inspection latency.
        let (_, setup) = f
            .connect(
                NodeId(1),
                peer(5),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        assert!(setup > f.latency.base_rtt);
        assert_eq!(f.metrics.queued_packets.get(), 2);
    }

    #[test]
    fn queue_without_handler_drops() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        f.host_mut(NodeId(2)).unwrap().firewall.input.push(
            RuleMatch::any(),
            Verdict::Queue(3),
            "orphaned queue",
        );
        let err = f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap_err();
        assert_eq!(err, ConnectError::NoHandler(3));
    }

    #[test]
    fn established_flow_bypasses_queue() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        // Standard shape: established accept first, then queue new.
        let fw = &mut f.host_mut(NodeId(2)).unwrap().firewall;
        fw.input.push(
            RuleMatch {
                state: Some(ConnState::Established),
                ..RuleMatch::any()
            },
            Verdict::Accept,
            "conntrack passthrough",
        );
        fw.input.push(
            RuleMatch {
                state: Some(ConnState::New),
                ..RuleMatch::any()
            },
            Verdict::Queue(0),
            "inspect new",
        );
        f.host_mut(NodeId(2))
            .unwrap()
            .set_queue_handler(0, Box::new(DenyUid(u32::MAX)));

        let (id, _) = f
            .connect(
                NodeId(1),
                peer(5),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        let queued_before = f.metrics.queued_packets.get();
        for _ in 0..10 {
            f.send(id, &bytes::Bytes::from_static(b"data")).unwrap();
        }
        assert_eq!(
            f.metrics.queued_packets.get(),
            queued_before,
            "established packets never hit the queue"
        );
        assert_eq!(f.metrics.established_packets.get(), 10);
    }

    #[test]
    fn partition_blocks_new_connects_and_heals_clean() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        f.set_partitioned(NodeId(2), NodeId(1), true); // either order
        let err = f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConnectError::Partitioned {
                a: NodeId(1),
                b: NodeId(2)
            }
        );
        assert!(f.is_partitioned(NodeId(1), NodeId(2)));
        assert_eq!(f.metrics.connects_partitioned.get(), 1);
        // No ephemeral port leaked by the refused attempt.
        assert!(f.host(NodeId(1)).unwrap().sockets.is_empty());
        f.set_partitioned(NodeId(1), NodeId(2), false);
        assert!(f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .is_ok());
    }

    #[test]
    fn link_loss_is_seeded_and_total_at_rate_one() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        f.set_link_loss(NodeId(1), NodeId(2), 1.0);
        for _ in 0..5 {
            assert_eq!(
                f.connect(
                    NodeId(1),
                    peer(1),
                    SocketAddr::new(NodeId(2), 8888),
                    Proto::Tcp,
                )
                .unwrap_err(),
                ConnectError::LinkLost
            );
        }
        assert_eq!(f.metrics.connects_lost.get(), 5);
        assert!(f.host(NodeId(1)).unwrap().sockets.is_empty());
        f.set_link_loss(NodeId(1), NodeId(2), 0.0);
        assert!(f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .is_ok());
        // Same seed, same partial-loss decisions.
        let run = |seed: u64| {
            let mut f = two_hosts();
            f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
            f.set_fault_seed(seed);
            f.set_link_loss(NodeId(1), NodeId(2), 0.5);
            (0..32)
                .map(|_| {
                    let r = f.connect(
                        NodeId(1),
                        peer(1),
                        SocketAddr::new(NodeId(2), 8888),
                        Proto::Tcp,
                    );
                    if let Ok((id, _)) = r {
                        f.close(id);
                        true
                    } else {
                        false
                    }
                })
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same loss pattern");
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
    }

    #[test]
    fn latency_spike_penalizes_setup_and_transfer() {
        let mut f = two_hosts();
        f.listen(NodeId(2), Proto::Tcp, 8888, peer(100)).unwrap();
        let (id, base_setup) = f
            .connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        let base_xfer = f.send(id, &bytes::Bytes::from_static(b"data")).unwrap();
        let extra = SimDuration::from_millis(250);
        f.set_latency_spike(NodeId(1), NodeId(2), extra);
        let spiked_xfer = f.send(id, &bytes::Bytes::from_static(b"data")).unwrap();
        assert_eq!(spiked_xfer, base_xfer + extra);
        let (id2, spiked_setup) = f
            .connect(
                NodeId(1),
                peer(2),
                SocketAddr::new(NodeId(2), 8888),
                Proto::Tcp,
            )
            .unwrap();
        assert_eq!(spiked_setup, base_setup + extra);
        f.set_latency_spike(NodeId(1), NodeId(2), SimDuration::ZERO);
        assert_eq!(
            f.send(id2, &bytes::Bytes::from_static(b"data")).unwrap(),
            base_xfer,
            "clearing the spike restores the base model"
        );
    }

    #[test]
    fn unknown_hosts_and_connections() {
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        assert_eq!(
            f.connect(
                NodeId(1),
                peer(1),
                SocketAddr::new(NodeId(9), 80),
                Proto::Tcp
            )
            .unwrap_err(),
            ConnectError::NoSuchHost(NodeId(9))
        );
        assert_eq!(
            f.connect(
                NodeId(9),
                peer(1),
                SocketAddr::new(NodeId(1), 80),
                Proto::Tcp
            )
            .unwrap_err(),
            ConnectError::NoSuchHost(NodeId(9))
        );
        assert_eq!(
            f.send(ConnId(42), &bytes::Bytes::new()).unwrap_err(),
            SendError::NoSuchConnection(ConnId(42))
        );
    }
}
