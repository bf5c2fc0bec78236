//! # eus-ubf — the User-Based Firewall
//!
//! Reproduction of the paper's second released artifact
//! (`mit-llsc/UserBasedFirewall`, Sec. IV-D + Appendix): instead of a
//! traditional port/protocol/service firewall, every *new* TCP/UDP
//! connection on ports ≥ 1024 is punted to a userspace daemon which allows
//! it only when the connecting and listening processes run as the **same
//! user**, or the connector is a member of the listener's **effective gid**
//! (the `newgrp`/`sg` group opt-in).
//!
//! * [`policy`] — the decision rule.
//! * [`daemon`] — the NFQUEUE handler with ident querying, decision cache,
//!   and exported statistics.
//! * [`ruleset`] — the nftables-shaped rules ([`ruleset::install_ubf_rules`])
//!   and one-call host deployment ([`ruleset::deploy_ubf`]).
//! * [`cache`] — bounded decision cache.
//!
//! The portal-side authorization hook (the artifact's Apache httpd
//! plug-in) is [`decide`] itself: the portal gateway calls it with the
//! requesting user as initiator against the target app's listener.
//!
//! Neither the daemons nor the portal keep the account database: the
//! cluster owns it and lends `&UserDb` for each call
//! ([`eus_simnet::QueueCtx::directory`]).
//!
//! Established flows never revisit the daemon (conntrack passthrough), so
//! the UBF's entire cost lands on connection setup
//! (`network_ubf::overhead_lands_on_setup_only` asserts it; the benchmark's
//! `net_wireup` workload reports the cache's `ubf.cache_hit_ratio`).

#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod policy;
pub mod ruleset;

pub use cache::{CacheKey, DecisionCache};
pub use daemon::{UbfDaemon, UbfStats, UbfStatsInner, UBF_CACHE_CAPACITY};
pub use policy::{decide, Decision};
pub use ruleset::{deploy_ubf, install_ubf_rules, UBF_INSPECT_FROM, UBF_QUEUE};
