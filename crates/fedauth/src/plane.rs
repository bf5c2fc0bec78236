//! The [`CredentialPlane`] trait: the one surface every enforcement point
//! (sshd PAM, the scheduler submission gate, the portal) codes against, so a
//! deployment can swap a single [`crate::CredentialBroker`] for a
//! [`crate::ShardedBroker`] — or any future plane — without touching the
//! callers.
//!
//! The trait is object-safe on purpose: [`SharedBroker`] is an
//! `Arc<RwLock<Box<dyn CredentialPlane>>>`, and the PAM stacks, scheduler,
//! and portal all hold that handle.

use crate::ca::{CredError, CredSerial, RealmVerifier, SignedToken, SshCertificate};
use crate::obs::ValidateStats;
use crate::realm::{MfaCode, MfaEnrollment, RealmId, RecoveryCode};
use eus_obs::TraceBuffer;
use eus_simcore::SimTime;
use eus_simos::{Uid, UserDb};
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A plane's published clock: the one cell its
/// [`advance_to`](CredentialPlane::advance_to) stores to and every reader of
/// "now" loads from — the plane itself, its shards, and (through
/// [`CredentialPlane::clock`]) the [`crate::FederationDirectory`], which
/// judges time-boxed trust and replica staleness on it without taking the
/// plane's guard. There is no second copy of the instant to keep in step.
#[derive(Debug, Clone, Default)]
pub struct PlaneClock(Arc<AtomicU64>);

impl PlaneClock {
    // analyze:hot-path-begin(plane-clock)
    /// The instant the plane last advanced to. The `Acquire` load pairs
    /// with the `Release` half of the plane's advance: a reader that sees
    /// instant *t* sees everything the plane wrote before it advanced to
    /// *t*.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.0.load(Ordering::Acquire))
    }
    // analyze:hot-path-end

    /// Monotone advance; only the owning plane moves its clock.
    pub(crate) fn advance_to(&self, t: SimTime) {
        self.0.fetch_max(t.as_micros(), Ordering::AcqRel);
    }
}

/// A credential plane: issuance, verification, revocation, and lifecycle of
/// short-lived federated credentials for one realm.
///
/// Implemented by [`crate::CredentialBroker`] (one broker, one table) and
/// [`crate::ShardedBroker`] (N uid-hashed shards, for millions of sessions).
/// All methods are behaviorally identical across implementations — the
/// property tests in `tests/federation_properties.rs` assert observational
/// equivalence over arbitrary op sequences.
pub trait CredentialPlane: fmt::Debug + Send + Sync {
    /// The plane's realm.
    fn realm(&self) -> RealmId;

    /// The plane's current clock.
    fn now(&self) -> SimTime;

    /// A handle on the plane's published clock: reads the same cell
    /// [`now`](Self::now) does, from outside the plane's guard.
    fn clock(&self) -> PlaneClock;

    /// Advance the clock (monotonic; driven by the cluster simulation).
    fn advance_to(&mut self, t: SimTime);

    /// Federated login: assert identity (MFA per policy), mint a bearer
    /// token and an SSH certificate, and record them as a live session.
    fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError>;

    /// [`login`](Self::login) with the second factor supplied by the
    /// simulation (enrolled users "type" the current window code).
    fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError>;

    /// Mint a fresh SSH certificate against a live bearer token.
    fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError>;

    /// Ensure the user holds a live session (login on first touch or after
    /// expiry/revocation).
    fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError>;

    /// Validate a presented bearer token: signature, realm, window,
    /// revocation. Returns the authenticated uid.
    fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError>;

    /// Validate a presented SSH certificate. Returns the principal uid.
    fn validate_cert(&self, cert: &SshCertificate) -> Result<Uid, CredError>;

    /// Validate a serial known to the plane (portal sessions keep only the
    /// serial after login).
    fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError>;

    /// sshd account phase: live, unrevoked SSH certificate right now?
    fn authorize_ssh(&self, user: Uid) -> Result<(), CredError>;

    /// Scheduler submission gate: live, unrevoked bearer token right now?
    fn authorize_submit(&self, user: Uid) -> Result<(), CredError>;

    /// Submission gate for a job arriving at `at` (>= now).
    fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError>;

    /// The user's live certificate, if any.
    fn current_cert(&self, user: Uid) -> Option<SshCertificate>;

    /// The user's most recent token, if any.
    fn current_token(&self, user: Uid) -> Option<SignedToken>;

    /// Revoke one serial (immediate; irreversible).
    fn revoke_serial(&mut self, serial: CredSerial);

    /// Revoke every live credential of a user (incident response / logout).
    fn revoke_user(&mut self, user: Uid);

    /// Drop expired *and revoked* sessions/certificates; returns how many
    /// entries were removed.
    fn sweep_expired(&mut self) -> usize;

    /// Number of live (unswept) session tokens across all users.
    fn live_sessions(&self) -> usize;

    /// Enroll a binding second factor for a user (the portal `enroll_mfa`
    /// route): enforced from the next login on, regardless of realm policy.
    /// Re-enrollment of an already-challenged user is step-up-gated: the
    /// current one-time code must be presented, or the rebind is refused.
    /// Returns the secret plus single-use recovery codes, both shown once.
    fn enroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<MfaEnrollment, CredError>;

    /// Federated login with a single-use recovery code in place of the
    /// window code (the lost-authenticator path); the code is burned on
    /// success.
    fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError>;

    /// Remove a user's second factor; step-up-gated like rebinding (the
    /// current one-time code must be presented). Voids remaining recovery
    /// codes.
    fn unenroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<(), CredError>;

    /// Whether the user will be MFA-challenged at the next login.
    fn mfa_challenged(&self, user: Uid) -> bool;

    /// The current window code for an enrolled user (the simulation's
    /// stand-in for reading the authenticator out of band).
    fn current_mfa_code(&self, user: Uid) -> Option<MfaCode>;

    // ------------------------------------------------------------------
    // Revocation delta feed (eus-revsync)
    // ------------------------------------------------------------------

    /// Head of the plane's revocation delta log: how many serials have ever
    /// been revoked here (sequence numbers are 1-based and dense, in the
    /// order the revocations were applied through this plane's API).
    fn revocation_head(&self) -> u64;

    /// The delta after sequence number `since`: every serial revoked after
    /// the `since`-th revocation, oldest first. `revocations_since(0)` is
    /// the full log.
    fn revocations_since(&self, since: u64) -> Vec<CredSerial>;

    /// Export this plane's verification capability (realm CA state) so a
    /// sister site can verify signatures locally — the trust-bootstrap key
    /// exchange `eus-revsync` replicas build on.
    fn verifier(&self) -> RealmVerifier;

    /// Truncate delta-log entries with sequence number `<= upto` (log
    /// compaction: the mesh calls this with the minimum frontier every
    /// subscriber has acked past). Membership — the thing verification
    /// reads — is untouched and sequence numbers never renumber. Returns
    /// how many entries were dropped; the default never compacts.
    fn compact_revocations_below(&mut self, upto: u64) -> u64 {
        let _ = upto;
        0
    }

    /// The compaction floor: the highest sequence number truncated out of
    /// the delta log (0 when never compacted). Deltas are only available
    /// for `since >= floor`; below it subscribers re-bootstrap from
    /// [`revocation_snapshot`](Self::revocation_snapshot).
    fn revocation_floor(&self) -> u64 {
        0
    }

    /// The full revoked-serial membership, in a deterministic order: the
    /// bootstrap payload for a subscriber whose frontier fell below the
    /// compaction floor. The default (for planes that never compact) is
    /// the full delta log.
    fn revocation_snapshot(&self) -> Vec<CredSerial> {
        self.revocations_since(0)
    }

    // ------------------------------------------------------------------
    // Fault injection & degraded modes (eus-chaos)
    // ------------------------------------------------------------------

    /// Take the plane's identity provider down (or back up) — fault
    /// injection. While down, assertion paths (login, recovery login,
    /// MFA management) fail with [`CredError::Unavailable`]; validation
    /// of already-minted credentials keeps serving. Default: no-op
    /// (third-party planes without an outage model stay always-up).
    fn set_idp_available(&mut self, up: bool) {
        let _ = up;
    }

    /// Whether the identity provider is currently serving assertions.
    fn idp_available(&self) -> bool {
        true
    }

    /// Take the plane's certificate authority down (or back up) — fault
    /// injection. While down, minting fails with
    /// [`CredError::Unavailable`]; verification is local key material and
    /// keeps serving. Default: no-op.
    fn set_ca_available(&mut self, up: bool) {
        let _ = up;
    }

    /// Whether the certificate authority is currently minting.
    fn ca_available(&self) -> bool {
        true
    }

    /// Seize one shard (fault injection on sharded planes): issuance for
    /// users hashing to that shard fails with
    /// [`CredError::Unavailable`] while every other shard — and all
    /// validation — keeps serving. Returns false when the plane has no
    /// such shard (the single-broker default).
    fn seize_shard(&mut self, shard: usize, seized: bool) -> bool {
        let _ = (shard, seized);
        false
    }

    // ------------------------------------------------------------------
    // Shared-path mutation (per-shard locking)
    // ------------------------------------------------------------------

    /// Login through a shared (`&self`) borrow, for planes with interior
    /// per-shard locking: concurrent logins that land on *different* shards
    /// proceed in parallel while the caller holds the plane-wide lock only
    /// for reading. Returns `None` when the plane has no interior locking
    /// (the caller must fall back to the exclusive
    /// [`login`](Self::login) path).
    fn try_login_shared(
        &self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Option<Result<SignedToken, CredError>> {
        let _ = (db, user, mfa);
        None
    }

    /// The plane's verify-path statistics ([`ValidateStats`], atomic and
    /// `&self`-recordable), when it keeps any. Both built-in planes do;
    /// the default is `None` so third-party planes owe nothing.
    fn validate_stats(&self) -> Option<&ValidateStats> {
        None
    }

    /// The plane's causal trace ring ([`TraceBuffer`], interior-mutable so
    /// `&self` validate paths can record), when it keeps one. Default
    /// `None`: third-party planes owe nothing, and every traced call site
    /// degrades to a no-op against an absent buffer.
    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        None
    }
}

/// A shared credential-plane handle (PAM stacks, the scheduler, and the
/// portal all hold one). The plane behind it may be a single
/// [`crate::CredentialBroker`] or a [`crate::ShardedBroker`].
pub type SharedBroker = Arc<RwLock<Box<dyn CredentialPlane>>>;

/// Wrap any credential plane for sharing.
pub fn shared_broker<P: CredentialPlane + 'static>(plane: P) -> SharedBroker {
    Arc::new(RwLock::new(Box::new(plane)))
}
