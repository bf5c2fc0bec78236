//! # eus-revsync — asynchronous cross-realm revocation propagation
//!
//! PR 2's federation validated a sister realm's credential by querying the
//! *issuer's* revocation list synchronously — one lookup per validation,
//! across the WAN, against every trusted realm's plane. That cannot scale
//! to many sister realms or survive realistic inter-site latency, and both
//! companion systems (the federated-authentication layer of Prout et al.
//! 2019 and the multi-site sensitive-data platform of Scheerman et al.
//! 2021) instead move revocation state *between* administrative domains
//! asynchronously.
//!
//! This crate is that layer:
//!
//! * every realm's plane keeps a sequence-numbered, append-only revocation
//!   **delta log** (`eus_fedauth::RevocationList`); the log is the unit of
//!   replication — revocation is irreversible, so history only appends;
//! * sites hold local [`CrlReplica`]s for the realms they trust, built
//!   from the realm's exported [`eus_fedauth::RealmVerifier`] (signature checks become
//!   local) plus the replicated revoked-set;
//! * a [`RevSyncMesh`] moves deltas over a simulated WAN
//!   (`eus_simnet::Fabric` with wide-area latency constants): **push
//!   feeds** every [`RevSyncConfig::feed_interval`] (fire-and-forget,
//!   lossy) plus **pull anti-entropy** every
//!   [`RevSyncConfig::anti_entropy`] (exact, repairs any gap);
//! * validation consults only the local replica — *no synchronous issuer
//!   query on the hot path* — under a **bounded-staleness contract**: a
//!   replica older than [`RevSyncConfig::max_lag`] refuses to judge
//!   ([`eus_fedauth::CredError::StaleReplica`]), so an unreachable sister
//!   site degrades to fail-closed, never to fail-open.
//!
//! The propagation bound (one feed interval plus wire time when lossless,
//! one anti-entropy round under loss), the convergence and the
//! monotonicity properties live in `tests/revsync_properties.rs`; the
//! benchmark's `cred_churn` workload measures the replica hot path
//! (`revsync.validate.ns_per_call`).
//!
//! ```
//! use eus_fedauth::{shared_broker, BrokerPolicy, CredentialBroker, RealmId};
//! use eus_revsync::{RevSyncConfig, RevSyncMesh};
//! use eus_simcore::SimTime;
//! use eus_simos::UserDb;
//!
//! let mut db = UserDb::new();
//! let alice = db.create_user("alice").unwrap();
//! let home = shared_broker(CredentialBroker::new(RealmId(1), 1, BrokerPolicy::default()));
//! let sister = shared_broker(CredentialBroker::new(RealmId(2), 2, BrokerPolicy::default()));
//!
//! let cfg = RevSyncConfig::default();
//! let mut mesh = RevSyncMesh::new(cfg);
//! mesh.add_realm(RealmId(1), home);
//! mesh.add_realm(RealmId(2), sister.clone());
//! mesh.subscribe(RealmId(1), RealmId(2)); // home replicates sister's CRL
//!
//! let token = sister.write().login(&db, alice, None).unwrap();
//! assert_eq!(mesh.validate_token_at(RealmId(1), &token, SimTime::ZERO).unwrap(), alice);
//! sister.write().revoke_user(alice);
//! let later = SimTime::ZERO + cfg.feed_interval + eus_simcore::SimDuration::from_secs(1);
//! mesh.pump(later); // the push feed carries the delta across the WAN
//! assert!(mesh.validate_token_at(RealmId(1), &token, later).is_err());
//! ```

#![warn(missing_docs)]

pub mod mesh;
pub mod obs;
pub mod replica;

pub use mesh::{RevSyncMesh, RevSyncMetrics, CRL_FEED_PORT};
pub use obs::MeshObs;
pub use replica::{ApplyOutcome, CrlDelta, CrlReplica};

use eus_simcore::SimDuration;
use eus_simnet::LatencyModel;

/// Wide-area latency constants for the inter-site mesh: tens of
/// milliseconds of round trip and slower serialization than the intra-site
/// fabric — sites are cities apart, not racks apart.
pub fn wan_latency() -> LatencyModel {
    LatencyModel {
        base_rtt: SimDuration::from_micros(30_000),
        per_kib: SimDuration::from_micros(8),
        ..LatencyModel::default()
    }
}

/// Tunables for one site's revocation-propagation deployment.
#[derive(Debug, Clone, Copy)]
pub struct RevSyncConfig {
    /// Push-feed cadence: how often an issuer ships its newest delta-log
    /// entries (and heartbeats) to each subscriber.
    pub feed_interval: SimDuration,
    /// Anti-entropy cadence: how often a subscriber pulls everything after
    /// its applied frontier (exact; repairs push loss).
    pub anti_entropy: SimDuration,
    /// The staleness budget: a replica older than this refuses to judge
    /// credentials (bounded staleness fails closed).
    pub max_lag: SimDuration,
    /// Fraction of push feeds lost in transit (fire-and-forget transport;
    /// anti-entropy is the repair path).
    pub push_loss: f64,
}

impl Default for RevSyncConfig {
    fn default() -> Self {
        RevSyncConfig {
            feed_interval: SimDuration::from_secs(10),
            anti_entropy: SimDuration::from_secs(300),
            max_lag: SimDuration::from_secs(900),
            push_loss: 0.0,
        }
    }
}
