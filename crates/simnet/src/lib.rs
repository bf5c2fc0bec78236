//! # eus-simnet — cluster network substrate
//!
//! The kernel networking the User-Based Firewall builds on (paper Sec. IV-D):
//!
//! * [`socket`] — per-host socket tables where every socket carries its
//!   owner's uid and **effective gid** (what `newgrp`/`sg` change),
//! * [`netfilter`] — ordered rule chains with `Accept`/`Drop`/`Queue`
//!   verdicts; `Queue` punts to a registered userspace handler,
//! * [`conntrack`] — flow tracking that exempts established traffic from
//!   inspection,
//! * [`fabric`] — hosts wired together: full connection setup (both chains,
//!   queue dispatch, conntrack) and established-flow transfer, with a
//!   [`latency`] cost model,
//! * [`rdma`] — InfiniBand queue pairs set up either over a TCP control
//!   channel (UBF-governed) or via the native connection manager (the
//!   paper's acknowledged residual path), and one-sided reads/writes that
//!   ignore Unix ownership entirely.

#![warn(missing_docs)]

pub mod addr;
pub mod conntrack;
pub mod fabric;
pub mod latency;
pub mod netfilter;
pub mod rdma;
pub mod socket;

pub use addr::{FiveTuple, Port, Proto, SocketAddr, EPHEMERAL_BASE, PRIVILEGED_PORT_MAX};
pub use conntrack::ConnTrack;
pub use fabric::{
    ConnId, ConnectError, Connection, Fabric, FabricMetrics, HostNet, QueueCtx, QueueHandler,
    SendError,
};
pub use latency::{LatencyModel, SetupCosts};
pub use netfilter::{Chain, ConnState, Firewall, PacketMeta, Rule, RuleMatch, Verdict};
pub use rdma::{MemoryRegion, QpSetupPath, QueuePair, RdmaError};
pub use socket::{BindError, PeerInfo, SocketEntry, SocketKind, SocketTable};
