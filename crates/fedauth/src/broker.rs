//! The credential broker: the single enforcement point every service
//! consults instead of trusting raw uids or long-lived keys.
//!
//! sshd's account check ([`CredentialBroker::authorize_ssh`]), the scheduler's
//! submission path, and the portal's session layer all hold a
//! [`crate::SharedBroker`] and ask it one O(1) question — "does this principal hold
//! a live, unrevoked credential of the right kind *right now*?" — keeping
//! issuance, expiry, and revocation in one place (the companion paper's
//! central identity plane).
//!
//! **One session table, no lock of its own.** A broker owns one session
//! table (the private `session` module) — the realm's IdP, CA, sessions
//! and certificates — as a plain field. The `&self` gates (`authorize_ssh`, `authorize_submit_at`,
//! `validate_serial`, …) read it under the caller's one plane guard; the
//! `&mut self` paths write it directly.
//!
//! **What a verdict reads.** A *verdict on a presented credential* reads
//! the CA keys, the revoked set (one plane-level [`RevocationList`],
//! written only through `&mut self`) and the clock (the plane's published
//! [`PlaneClock`]) — so `validate_token` takes nothing but the caller's
//! plane read guard.

use crate::ca::{CredError, CredSerial, RealmVerifier, SignedToken, SshCertificate};
use crate::obs::{ValidateStats, CRED_TRACE_CODE};
use crate::plane::PlaneClock;
use crate::realm::{MfaCode, MfaEnrollment, RealmId, RecoveryCode};
use crate::revocation::RevocationList;
use crate::session::{Reach, SessionTable};
use crate::splitmix64 as mix;
use eus_obs::TraceBuffer;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};

/// Credential lifetimes for a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerPolicy {
    /// Bearer-token lifetime (portal sessions, job submission).
    pub token_ttl: SimDuration,
    /// SSH-certificate lifetime (interactive access).
    pub cert_ttl: SimDuration,
    /// Whether enrolled users must present a second factor at login.
    pub require_mfa: bool,
}

impl Default for BrokerPolicy {
    fn default() -> Self {
        BrokerPolicy {
            // The companion paper's shape: hours, not the months-to-forever
            // of authorized_keys files.
            token_ttl: SimDuration::from_secs(12 * 3600),
            cert_ttl: SimDuration::from_secs(3600),
            require_mfa: false,
        }
    }
}

/// The credential plane for one realm: issuance, verification, revocation,
/// and lifecycle of short-lived federated credentials, over one session
/// table.
#[derive(Debug)]
pub struct CredentialBroker {
    /// The plane clock, published: the session table reads this same cell,
    /// and [`advance_to`](Self::advance_to) is one store to it.
    clock: PlaneClock,
    /// The realm's one revocation list. Only `&mut self` paths write it, so
    /// verdicts probe it under nothing but the caller's plane guard; its
    /// delta log is in plane-API order (the feed `eus-revsync` ships).
    revocations: RevocationList,
    /// The realm's IdP, CA, live sessions and certificates.
    table: SessionTable,
    /// Realm-wide IdP / CA reachability.
    reach: Reach,
    /// Verify-path statistics (atomic; off by default). Pure measurement —
    /// never consulted by an accept/reject decision.
    pub stats: ValidateStats,
    /// Causal trace ring for the credential plane (off by default).
    /// Interior-mutable so entry points behind a read lock (the ssh
    /// account check, submission gate) can mint and record spans through
    /// `&self`.
    pub trace: TraceBuffer,
}

impl CredentialBroker {
    /// A broker for `realm`; `seed` determines all key/token material.
    pub fn new(realm: RealmId, seed: u64, policy: BrokerPolicy) -> Self {
        let clock = PlaneClock::default();
        let table = SessionTable::new(realm, mix(seed), policy, clock.clone());
        CredentialBroker {
            clock,
            revocations: RevocationList::new(table.ca.serial_set_key()),
            table,
            reach: Reach {
                idp: true,
                ca: true,
            },
            stats: ValidateStats::new(),
            trace: TraceBuffer::disabled("cred", CRED_TRACE_CODE),
        }
    }

    /// The plane's realm.
    pub fn realm(&self) -> RealmId {
        self.table.ca.realm
    }

    /// The plane's current clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// A handle on the plane's published clock: reads the same cell
    /// [`now`](Self::now) does, from outside the plane's guard.
    pub fn clock(&self) -> PlaneClock {
        self.clock.clone()
    }

    /// Advance the clock (monotonic; driven by the cluster simulation).
    pub fn advance_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
    }

    /// Federated login: assert identity (MFA per policy), mint a bearer
    /// token and an SSH certificate, and record them as a live session.
    pub fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        self.table.login(self.reach, db, user, mfa)
    }

    /// Federated login with a single-use recovery code in place of the
    /// window code (the lost-authenticator path); the code is burned on
    /// success.
    pub fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        self.table.login_recovery(self.reach, db, user, code)
    }

    /// Mint a fresh SSH certificate against a live bearer token.
    pub fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError> {
        self.table
            .mint_ssh_cert(self.reach, self.revocations.serials(), token)
    }

    /// Ensure the user holds a live session (login on first touch or after
    /// expiry/revocation; enrolled users present their current window code).
    pub fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        self.table
            .ensure_session(self.reach, self.revocations.serials(), db, user)
    }

    // analyze:hot-path-begin(broker-validate)
    /// Validate a presented bearer token: signature, realm, window,
    /// revocation. Returns the authenticated uid: the verdict routine a
    /// sister site's CRL replica runs, on this plane's clock and revoked set.
    pub fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = self
            .table
            .ca
            .validate_token(token, self.clock.now(), self.revocations.serials());
        self.stats.finish(t0, r.is_ok());
        r
    }

    /// Validate a serial known to the plane (portal sessions keep only the
    /// serial after login).
    pub fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError> {
        self.table
            .validate_serial(self.revocations.serials(), user, serial)
    }

    /// sshd account phase: live, unrevoked SSH certificate right now?
    pub fn authorize_ssh(&self, user: Uid) -> Result<(), CredError> {
        self.table.authorize_ssh(self.revocations.serials(), user)
    }

    /// Scheduler submission gate: live, unrevoked bearer token right now?
    pub fn authorize_submit(&self, user: Uid) -> Result<(), CredError> {
        self.authorize_submit_at(user, self.clock.now())
    }

    /// Submission gate for a job arriving at `at` (>= now).
    pub fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError> {
        self.table
            .authorize_submit_at(self.revocations.serials(), user, at)
    }
    // analyze:hot-path-end

    /// The plane's verify-path statistics. Always `Some`: the `Option` is
    /// kept only because `benchmark/` reads it as `if let Some(v)` (ROADMAP
    /// item 1 drops it with `sched.shard.plans`).
    pub fn validate_stats(&self) -> Option<&ValidateStats> {
        Some(&self.stats)
    }

    /// The user's live certificate, if any.
    pub fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        self.table.current_cert(user)
    }

    /// The user's most recent token, if any.
    pub fn current_token(&self, user: Uid) -> Option<SignedToken> {
        self.table.current_token(user)
    }

    /// Revoke one serial (immediate; irreversible).
    pub fn revoke_serial(&mut self, serial: CredSerial) {
        self.revocations.revoke(serial);
    }

    /// Revoke every live credential of a user (incident response / logout).
    pub fn revoke_user(&mut self, user: Uid) {
        self.table.revoke_user(&mut self.revocations, user);
    }

    /// Drop expired *and revoked* sessions/certificates; returns how many
    /// entries were removed.
    // analyze:allow(dead-pub): the operator's session sweep that bounds the table; ROADMAP item 13 calls it on a cadence
    pub fn sweep_expired(&mut self) -> usize {
        self.table.sweep_expired(self.revocations.serials())
    }

    /// Number of live (unswept) session tokens across all users.
    // analyze:allow(dead-pub): resident session count, the table size the sweep bounds (ROADMAP item 13)
    pub fn live_sessions(&self) -> usize {
        self.table.live_sessions()
    }

    /// Enroll a binding second factor for a user (the portal `enroll_mfa`
    /// route): enforced from the next login on, regardless of realm policy.
    /// Re-enrollment of an already-challenged user is step-up-gated: the
    /// current one-time code must be presented, or the rebind is refused.
    /// Returns the secret plus single-use recovery codes, both shown once.
    pub fn enroll_mfa(
        &mut self,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<MfaEnrollment, CredError> {
        self.table.enroll_mfa(self.reach, user, mfa)
    }

    /// Remove a user's second factor; step-up-gated like rebinding (the
    /// current one-time code must be presented). Voids remaining recovery
    /// codes.
    pub fn unenroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<(), CredError> {
        self.table.unenroll_mfa(self.reach, user, mfa)
    }

    /// Whether the user will be MFA-challenged at the next login.
    // analyze:allow(dead-pub): whether the next login is MFA-challenged, the account's visible second-factor state
    pub fn mfa_challenged(&self, user: Uid) -> bool {
        self.table.idp.is_challenged(user)
    }

    /// The current window code for an enrolled user (the simulation's
    /// stand-in for reading the authenticator out of band).
    pub fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.table.current_mfa_code(user)
    }

    // ------------------------------------------------------------------
    // Revocation delta feed (eus-revsync)
    // ------------------------------------------------------------------

    /// Head of the plane's revocation delta log: how many serials have ever
    /// been revoked here (sequence numbers are 1-based and dense, in the
    /// order the revocations were applied through this plane's API).
    pub fn revocation_head(&self) -> u64 {
        self.revocations.head()
    }

    /// The delta after sequence number `since`: every serial revoked after
    /// the `since`-th revocation, oldest first. `revocations_since(0)` is
    /// the full log.
    pub fn revocations_since(&self, since: u64) -> Vec<CredSerial> {
        self.revocations.entries_since(since).to_vec()
    }

    /// Truncate delta-log entries with sequence number `<= upto` (log
    /// compaction: the mesh calls this with the minimum frontier every
    /// subscriber has acked past). Membership — the thing verification
    /// reads — is untouched and sequence numbers never renumber. Returns
    /// how many entries were dropped.
    pub fn compact_revocations_below(&mut self, upto: u64) -> u64 {
        self.revocations.compact_below(upto)
    }

    /// The compaction floor: the highest sequence number truncated out of
    /// the delta log (0 when never compacted). Deltas are only available
    /// for `since >= floor`; below it subscribers re-bootstrap from
    /// [`revocation_snapshot`](Self::revocation_snapshot).
    pub fn revocation_floor(&self) -> u64 {
        self.revocations.floor()
    }

    /// The full revoked-serial membership, in a deterministic order: the
    /// bootstrap payload for a subscriber whose frontier fell below the
    /// compaction floor.
    pub fn revocation_snapshot(&self) -> Vec<CredSerial> {
        self.revocations.snapshot()
    }

    /// Export this plane's verification capability (realm CA state) so a
    /// sister site can verify signatures locally — the trust-bootstrap key
    /// exchange `eus-revsync` replicas build on.
    pub fn verifier(&self) -> RealmVerifier {
        RealmVerifier::new(self.table.ca.clone())
    }

    // ------------------------------------------------------------------
    // Fault injection & degraded modes (eus-chaos)
    // ------------------------------------------------------------------

    /// Take the realm's identity provider down (or back up) — fault
    /// injection. While down, assertion paths (login, recovery login,
    /// MFA management) fail with [`CredError::Unavailable`]; validation
    /// of already-minted credentials keeps serving.
    pub fn set_idp_available(&mut self, up: bool) {
        self.reach.idp = up;
    }

    /// Whether the identity provider is serving assertions.
    pub fn idp_available(&self) -> bool {
        self.reach.idp
    }

    /// Take the realm's certificate authority down (or back up) — fault
    /// injection. While down, minting fails with
    /// [`CredError::Unavailable`]; verification is local key material and
    /// keeps serving.
    pub fn set_ca_available(&mut self, up: bool) {
        self.reach.ca = up;
    }

    /// Whether the certificate authority is minting.
    pub fn ca_available(&self) -> bool {
        self.reach.ca
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revocation::SerialSet;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn setup() -> (UserDb, CredentialBroker, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = CredentialBroker::new(RealmId(1), 11, BrokerPolicy::default());
        (db, broker, alice)
    }

    #[test]
    fn login_requires_live_certificate() {
        let (db, mut broker, alice) = setup();
        // No credential yet: sshd's account check refuses.
        assert!(broker.authorize_ssh(alice).is_err());
        // After federated login: allowed.
        broker.login(&db, alice, None).unwrap();
        assert!(broker.authorize_ssh(alice).is_ok());
    }

    #[test]
    fn expired_certificate_shuts_the_door() {
        let (db, mut broker, alice) = setup();
        broker.login(&db, alice, None).unwrap();
        assert!(broker.authorize_ssh(alice).is_ok());
        let expiry = broker.current_cert(alice).unwrap().expires;
        broker.advance_to(expiry);
        assert!(
            broker.authorize_ssh(alice).is_err(),
            "certificate lapsed; the stolen key alone no longer works"
        );
    }

    #[test]
    fn login_validate_revoke_cycle() {
        let (db, mut b, alice) = setup();
        let t = b.login(&db, alice, None).unwrap();
        assert_eq!(b.validate_token(&t).unwrap(), alice);
        assert!(b.authorize_submit(alice).is_ok());
        assert!(b.authorize_ssh(alice).is_ok());

        b.revoke_user(alice);
        assert_eq!(b.validate_token(&t), Err(CredError::Revoked(t.serial)));
        assert!(b.authorize_submit(alice).is_err());
        assert!(b.authorize_ssh(alice).is_err());
    }

    #[test]
    fn expiry_is_enforced_and_swept() {
        let (db, mut b, alice) = setup();
        let t = b.login(&db, alice, None).unwrap();
        b.advance_to(t.expires);
        assert_eq!(
            b.validate_token(&t),
            Err(CredError::Expired { until: t.expires })
        );
        assert!(b.authorize_ssh(alice).is_err(), "cert TTL < token TTL");
        assert_eq!(b.live_sessions(), 1);
        assert_eq!(b.sweep_expired(), 2, "token + cert removed");
        assert_eq!(b.live_sessions(), 0);
    }

    #[test]
    fn sweep_drops_revoked_but_unexpired_entries() {
        // Regression: serial-level revocation (the portal-logout path) left
        // the session entry resident until its 12h window lapsed, so the
        // table grew unboundedly between expiry sweeps.
        let (db, mut b, alice) = setup();
        let t1 = b.login(&db, alice, None).unwrap();
        let t2 = b.login(&db, alice, None).unwrap();
        b.revoke_serial(t1.serial);
        assert_eq!(b.live_sessions(), 2, "revoked entry still resident");
        // The sweep removes the revoked token but keeps the live one and
        // the (unrevoked) cert.
        assert_eq!(b.sweep_expired(), 1);
        assert_eq!(b.live_sessions(), 1);
        assert!(b.validate_token(&t2).is_ok());
        assert!(b.authorize_ssh(alice).is_ok(), "cert untouched");
        // Revoking the cert's serial sweeps the cert too.
        let cert = b.current_cert(alice).unwrap();
        b.revoke_serial(cert.serial);
        assert_eq!(b.sweep_expired(), 1);
        assert!(b.authorize_ssh(alice).is_err());
    }

    #[test]
    fn ensure_session_refreshes_only_when_needed() {
        let (db, mut b, alice) = setup();
        let t1 = b.ensure_session(&db, alice).unwrap();
        let t2 = b.ensure_session(&db, alice).unwrap();
        assert_eq!(t1.serial, t2.serial, "live session is reused");
        b.advance_to(t1.expires);
        let t3 = b.ensure_session(&db, alice).unwrap();
        assert_ne!(t1.serial, t3.serial, "expired session re-issued");
        assert!(b.validate_token(&t3).is_ok());
    }

    #[test]
    fn ensure_session_remints_cert_after_cert_only_expiry() {
        let (db, mut b, alice) = setup();
        let t = b.ensure_session(&db, alice).unwrap();
        let cert = b.current_cert(alice).unwrap();
        // Cert TTL (1h) < token TTL (12h): advance past the cert only.
        b.advance_to(cert.expires);
        assert!(b.authorize_ssh(alice).is_err(), "cert lapsed");
        let t2 = b.ensure_session(&db, alice).unwrap();
        assert_eq!(t.serial, t2.serial, "token still live, not re-issued");
        assert!(b.authorize_ssh(alice).is_ok(), "cert re-minted");
    }

    #[test]
    fn mfa_enrolled_users_can_refresh_transparently() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut b = CredentialBroker::new(
            RealmId(1),
            11,
            BrokerPolicy {
                require_mfa: true,
                ..BrokerPolicy::default()
            },
        );
        b.table.idp.enroll_mfa(alice);
        // Explicit login without a code is refused...
        assert_eq!(b.login(&db, alice, None), Err(CredError::MfaRequired));
        // ...but the transparent paths present the current window code.
        let t = b.ensure_session(&db, alice).unwrap();
        assert!(b.validate_token(&t).is_ok());
        b.advance_to(t.expires);
        assert!(b.ensure_session(&db, alice).is_ok(), "refresh after expiry");
    }

    #[test]
    fn concurrent_sessions_stay_independently_valid() {
        let (db, mut b, alice) = setup();
        let t1 = b.login(&db, alice, None).unwrap();
        let t2 = b.login(&db, alice, None).unwrap();
        assert!(b.validate_token(&t1).is_ok(), "first tab still logged in");
        assert!(b.validate_token(&t2).is_ok());
        assert!(b.validate_serial(alice, t1.serial).is_ok());
        assert_eq!(b.live_sessions(), 2);
        // Incident response still kills everything at once.
        b.revoke_user(alice);
        assert!(b.validate_token(&t1).is_err());
        assert!(b.validate_token(&t2).is_err());
    }

    #[test]
    fn future_arrivals_are_gated_by_the_window_at_arrival() {
        let (db, mut b, alice) = setup();
        let t = b.login(&db, alice, None).unwrap();
        assert!(b.authorize_submit_at(alice, b.now()).is_ok());
        assert_eq!(
            b.authorize_submit_at(alice, t.expires),
            Err(CredError::Expired { until: t.expires }),
            "a job arriving after the token lapses must be refused at submit"
        );
    }

    #[test]
    fn cross_realm_token_rejected() {
        let (db, _, alice) = setup();
        // A sister site with its own IdP/CA mints a token for the same uid.
        let mut foreign = CredentialBroker::new(RealmId(2), 99, BrokerPolicy::default());
        let foreign_token = foreign.login(&db, alice, None).unwrap();
        // Refused on realm before any signature check.
        let mut home = CredentialBroker::new(RealmId(1), 11, BrokerPolicy::default());
        home.login(&db, alice, None).unwrap();
        assert_eq!(
            home.validate_token(&foreign_token),
            Err(CredError::RealmMismatch {
                ours: RealmId(1),
                theirs: RealmId(2),
            })
        );
    }

    #[test]
    fn many_concurrent_sessions_stay_indexed_by_serial() {
        // The `(user, serial)`-keyed table must keep every behavior of the old Vec:
        // oldest-first ordering, newest-token lookup, all-sessions revoke —
        // while making per-serial validation a map hit.
        let (db, mut b, alice) = setup();
        let tokens: Vec<_> = (0..500)
            .map(|_| b.login(&db, alice, None).unwrap())
            .collect();
        assert_eq!(b.live_sessions(), 500);
        for t in &tokens {
            assert!(b.validate_serial(alice, t.serial).is_ok());
            assert_eq!(b.validate_token(t).unwrap(), alice);
        }
        assert_eq!(
            b.current_token(alice).unwrap().serial,
            tokens.last().unwrap().serial,
            "newest token = highest serial"
        );
        // Revoking one serial touches only that session.
        b.revoke_serial(tokens[250].serial);
        assert!(b.validate_serial(alice, tokens[250].serial).is_err());
        assert!(b.validate_serial(alice, tokens[251].serial).is_ok());
        assert_eq!(b.sweep_expired(), 1);
        assert_eq!(b.live_sessions(), 499);
        // Incident response still kills everything.
        b.revoke_user(alice);
        assert_eq!(b.live_sessions(), 0);
        assert!(tokens.iter().all(|t| b.validate_token(t).is_err()));
    }

    #[test]
    fn outage_refuses_issuance_but_not_validation() {
        let (db, mut b, alice) = setup();
        let t = b.login(&db, alice, None).unwrap();
        b.set_idp_available(false);
        assert_eq!(b.login(&db, alice, None), Err(CredError::Unavailable));
        assert_eq!(
            b.validate_token(&t).unwrap(),
            alice,
            "minted tokens keep validating through the outage"
        );
        assert!(b.authorize_submit(alice).is_ok());
        b.set_idp_available(true);
        assert!(b.login(&db, alice, None).is_ok(), "heal restores issuance");
        b.set_ca_available(false);
        assert_eq!(b.mint_ssh_cert(&t), Err(CredError::Unavailable));
        assert_eq!(
            b.login(&db, alice, None),
            Err(CredError::Unavailable),
            "login needs the CA to mint"
        );
        assert!(b.validate_token(&t).is_ok());
        b.set_ca_available(true);
        assert!(b.mint_ssh_cert(&t).is_ok());
    }

    #[test]
    fn outage_refuses_mfa_management() {
        // Regression: enroll / unenroll asserted against a dark IdP.
        let (_db, mut b, alice) = setup();
        b.set_idp_available(false);
        assert_eq!(
            b.enroll_mfa(alice, None).err(),
            Some(CredError::Unavailable)
        );
        assert!(
            !b.mfa_challenged(alice),
            "nothing bound while the IdP is down"
        );
        b.set_idp_available(true);
        b.enroll_mfa(alice, None).unwrap();
        let code = b.current_mfa_code(alice);
        b.set_idp_available(false);
        assert_eq!(b.unenroll_mfa(alice, code), Err(CredError::Unavailable));
        b.set_idp_available(true);
        assert_eq!(b.unenroll_mfa(alice, code), Ok(()));
        assert!(!b.mfa_challenged(alice));
    }

    #[test]
    fn serial_validation_tracks_session_and_revocation() {
        let (db, mut b, alice) = setup();
        let t = b.login(&db, alice, None).unwrap();
        assert!(b.validate_serial(alice, t.serial).is_ok());
        assert!(b.validate_serial(alice, CredSerial(9999)).is_err());
        b.revoke_serial(t.serial);
        assert_eq!(
            b.validate_serial(alice, t.serial),
            Err(CredError::Revoked(t.serial))
        );
    }

    fn population() -> (UserDb, CredentialBroker, Vec<Uid>) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..16)
            .map(|i| db.create_user(&format!("u{i}")).unwrap())
            .collect();
        let plane = CredentialBroker::new(RealmId(1), 77, BrokerPolicy::default());
        (db, plane, users)
    }

    #[test]
    fn plane_clock_is_the_published_clock_through_any_advance_interleaving() {
        // Forwards, repeated, backwards, zero: the published clock (read
        // with no lock at all) must be exactly what the plane says and what
        // a login stamps.
        let tape = [5u64, 5, 3, 0, 90, 60, 90, 3600, 10, 3601];
        let (db, mut p, users) = population();
        let published = p.clock();
        let mut seen = Vec::new();
        for (i, secs) in tape.into_iter().enumerate() {
            p.advance_to(SimTime::from_secs(secs));
            assert_eq!(published.now(), p.now(), "after advance_to({secs}s)");
            let t = p.login(&db, users[i % users.len()], None).unwrap();
            assert_eq!(t.issued, p.now(), "logins stamp the plane clock");
            seen.push(p.now());
        }
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert_eq!(*seen.last().unwrap(), SimTime::from_secs(3601));
        // A token dies at exactly its window's end.
        let t = p.login(&db, users[0], None).unwrap();
        p.advance_to(t.expires - SimDuration::from_micros(1));
        assert_eq!(p.validate_token(&t), Ok(users[0]));
        p.advance_to(t.expires);
        assert_eq!(
            p.validate_token(&t),
            Err(CredError::Expired { until: t.expires })
        );
    }

    #[test]
    fn one_table_mints_the_plain_serial_stream() {
        // Each login mints a token then a certificate: serials 1, 2, 3, …
        // whoever logs in.
        let (db, mut p, users) = population();
        for (i, &u) in users.iter().enumerate() {
            let t = p.login(&db, u, None).unwrap();
            assert_eq!(t.serial, CredSerial(2 * i as u64 + 1));
            assert_eq!(
                p.current_cert(u).unwrap().serial,
                CredSerial(2 * i as u64 + 2)
            );
        }
    }

    #[test]
    fn plane_level_delta_log_tracks_revocations_in_api_order() {
        let (db, mut p, users) = population();
        let t0 = p.login(&db, users[0], None).unwrap();
        let t1 = p.login(&db, users[1], None).unwrap();
        assert_eq!(p.revocation_head(), 0);
        p.revoke_serial(t1.serial);
        p.revoke_serial(t1.serial); // duplicate: no new entry
        p.revoke_user(users[0]); // token + cert
        let log = p.revocations_since(0);
        assert_eq!(p.revocation_head(), 3);
        assert_eq!(log[0], t1.serial, "API order, not serial order");
        assert_eq!(log[1], t0.serial);
        assert_eq!(p.revocations_since(2).len(), 1);
    }

    #[test]
    fn exported_verifier_judges_without_revocation_state() {
        let (db, mut p, users) = population();
        let tokens: Vec<SignedToken> = users
            .iter()
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        let v = p.verifier();
        let none_revoked = SerialSet::with_hasher(v.serial_set_key());
        for (u, t) in users.iter().zip(&tokens) {
            assert_eq!(v.validate_token(t, p.now(), &none_revoked).unwrap(), *u);
        }
        // The verifier holds no revocation state — that is the caller's
        // set — so a revoked-at-issuer token still passes against a set
        // that has not heard.
        p.revoke_serial(tokens[0].serial);
        assert!(v.validate_token(&tokens[0], p.now(), &none_revoked).is_ok());
        // Tampering still breaks the signature.
        let mut forged = tokens[1];
        forged.user = Uid(999);
        assert_eq!(
            v.validate_token(&forged, p.now(), &none_revoked),
            Err(CredError::BadSignature)
        );
    }

    #[test]
    fn plane_log_compaction_preserves_sequence_and_snapshot() {
        let (db, mut p, users) = population();
        let tokens: Vec<SignedToken> = users
            .iter()
            .take(4)
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        for t in &tokens {
            p.revoke_serial(t.serial);
        }
        assert_eq!(p.revocation_head(), 4);
        assert_eq!(p.compact_revocations_below(2), 2);
        assert_eq!(p.revocation_floor(), 2);
        assert_eq!(p.revocation_head(), 4, "head survives compaction");
        assert_eq!(
            p.revocations_since(2),
            vec![tokens[2].serial, tokens[3].serial]
        );
        // Below the floor the delta clamps; the snapshot path carries the
        // full membership, sorted.
        assert_eq!(p.revocations_since(0).len(), 2);
        let mut expect: Vec<CredSerial> = tokens.iter().map(|t| t.serial).collect();
        expect.sort_unstable();
        assert_eq!(p.revocation_snapshot(), expect);
        assert_eq!(p.compact_revocations_below(1), 0, "below floor: no-op");
    }

    /// The naive session table: per user, a `Vec` of live tokens (oldest
    /// first) and the current certificate, beside the revocation log in
    /// API order and every token minted so far with its owner.
    struct Model {
        now: SimTime,
        next_serial: u64,
        tokens: Vec<Vec<SignedToken>>,
        certs: Vec<Option<SshCertificate>>,
        revoked: Vec<CredSerial>,
        minted: Vec<(usize, SignedToken)>,
    }

    const TAPE_USERS: usize = 4;

    /// Short windows, so that a tape of a few minutes sees expiry.
    const TAPE_POLICY: BrokerPolicy = BrokerPolicy {
        token_ttl: SimDuration::from_secs(100),
        cert_ttl: SimDuration::from_secs(30),
        require_mfa: false,
    };

    fn window(issued: SimTime, expires: SimTime, at: SimTime) -> Result<(), CredError> {
        if at < issued {
            Err(CredError::NotYetValid { from: issued })
        } else if at >= expires {
            Err(CredError::Expired { until: expires })
        } else {
            Ok(())
        }
    }

    impl Model {
        fn is_revoked(&self, s: CredSerial) -> bool {
            self.revoked.contains(&s)
        }

        fn revoke(&mut self, s: CredSerial) {
            if !self.is_revoked(s) {
                self.revoked.push(s);
            }
        }

        /// A presented credential's verdict now: window, then revocation.
        fn verdict(
            &self,
            serial: CredSerial,
            issued: SimTime,
            expires: SimTime,
        ) -> Result<(), CredError> {
            window(issued, expires, self.now)?;
            if self.is_revoked(serial) {
                Err(CredError::Revoked(serial))
            } else {
                Ok(())
            }
        }

        fn token_ok(&self, t: &SignedToken) -> bool {
            self.verdict(t.serial, t.issued, t.expires).is_ok()
        }

        /// The certificate the CA mints next for user `u`. The model cannot
        /// sign, so realm and signature are taken from `certs[u]`, which the
        /// caller has just set to the broker's answer (`None` fails here).
        fn expect_cert(&mut self, users: &[Uid], u: usize) -> SshCertificate {
            let serial = CredSerial(self.next_serial);
            self.next_serial += 1;
            SshCertificate {
                serial,
                user: users[u],
                issued: self.now,
                expires: self.now + TAPE_POLICY.cert_ttl,
                ..self.certs[u].expect("the broker holds a certificate for the user")
            }
        }

        /// Record a login the broker answered with `t`, checking what it
        /// minted: the next token serial, then the next certificate serial.
        fn logged_in(
            &mut self,
            b: &CredentialBroker,
            users: &[Uid],
            u: usize,
            t: SignedToken,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(t.serial, CredSerial(self.next_serial));
            prop_assert_eq!((t.user, t.issued), (users[u], self.now));
            prop_assert_eq!(t.expires, self.now + TAPE_POLICY.token_ttl);
            self.next_serial += 1;
            let cert = b.current_cert(users[u]);
            self.certs[u] = cert;
            let expect = self.expect_cert(users, u);
            prop_assert_eq!(cert, Some(expect));
            self.tokens[u].push(t);
            self.minted.push((u, t));
            Ok(())
        }

        /// Every read the broker answers about the session table.
        fn check(&self, b: &CredentialBroker, users: &[Uid]) -> Result<(), TestCaseError> {
            prop_assert_eq!(b.now(), self.now);
            for (u, &user) in users.iter().enumerate() {
                prop_assert_eq!(b.current_token(user), self.tokens[u].last().copied());
                let ssh = match self.certs[u] {
                    None => Err(CredError::NoCredential(user)),
                    Some(c) => self.verdict(c.serial, c.issued, c.expires),
                };
                prop_assert_eq!(b.authorize_ssh(user), ssh);
                for ahead in [0, 50, 200] {
                    let at = self.now + SimDuration::from_secs(ahead);
                    let mut expect = Err(CredError::NoCredential(user));
                    for t in self.tokens[u].iter().rev() {
                        if self.is_revoked(t.serial) {
                            expect = Err(CredError::Revoked(t.serial));
                            continue;
                        }
                        expect = window(t.issued, t.expires, at);
                        if expect.is_ok() {
                            break;
                        }
                    }
                    prop_assert_eq!(
                        b.authorize_submit_at(user, at),
                        expect,
                        "{} +{}s",
                        user,
                        ahead
                    );
                }
            }
            for &(owner, t) in &self.minted {
                let other = users[(owner + 1) % TAPE_USERS];
                let (for_owner, for_other) = if self.is_revoked(t.serial) {
                    (
                        Err(CredError::Revoked(t.serial)),
                        Err(CredError::Revoked(t.serial)),
                    )
                } else if self.tokens[owner].contains(&t) {
                    (
                        window(t.issued, t.expires, self.now),
                        Err(CredError::NoCredential(other)),
                    )
                } else {
                    let owner = users[owner];
                    (
                        Err(CredError::NoCredential(owner)),
                        Err(CredError::NoCredential(other)),
                    )
                };
                prop_assert_eq!(b.validate_serial(users[owner], t.serial), for_owner);
                prop_assert_eq!(b.validate_serial(other, t.serial), for_other);
            }
            let live: usize = self.tokens.iter().map(Vec::len).sum();
            prop_assert_eq!(b.live_sessions(), live);
            prop_assert_eq!(b.revocations_since(0), self.revoked.clone());
            Ok(())
        }
    }

    proptest! {
        /// The session table against the naive model, after every op of a
        /// random tape over 4 users: login, a second concurrent login,
        /// `mint_ssh_cert` (presenting any token minted so far, revoked or
        /// lapsed ones included), `revoke_user`, `advance_to`,
        /// `sweep_expired` and `ensure_session`.
        #[test]
        fn the_session_table_matches_a_per_user_model(
            tape in proptest::collection::vec((0u8..7, 0usize..TAPE_USERS, 0u64..60), 0..48),
        ) {
            let mut db = UserDb::new();
            let users: Vec<Uid> = (0..TAPE_USERS)
                .map(|i| db.create_user(&format!("u{i}")).unwrap())
                .collect();
            let mut b = CredentialBroker::new(RealmId(1), 41, TAPE_POLICY);
            let mut m = Model {
                now: b.now(),
                next_serial: 1,
                tokens: vec![Vec::new(); TAPE_USERS],
                certs: vec![None; TAPE_USERS],
                revoked: Vec::new(),
                minted: Vec::new(),
            };
            for (op, u, arg) in tape {
                let user = users[u];
                match op {
                    0 => {
                        let t = b.login(&db, user, None).unwrap();
                        m.logged_in(&b, &users, u, t)?;
                    }
                    1 => {
                        for _ in 0..2 {
                            let t = b.login(&db, user, None).unwrap();
                            m.logged_in(&b, &users, u, t)?;
                        }
                    }
                    2 => {
                        if m.minted.is_empty() {
                            continue;
                        }
                        let (owner, t) = m.minted[arg as usize % m.minted.len()];
                        let got = b.mint_ssh_cert(&t);
                        match m.verdict(t.serial, t.issued, t.expires) {
                            Ok(()) => {
                                let cert = got.unwrap();
                                m.certs[owner] = Some(cert);
                                prop_assert_eq!(cert, m.expect_cert(&users, owner));
                            }
                            Err(e) => prop_assert_eq!(got, Err(e)),
                        }
                    }
                    3 => {
                        b.revoke_user(user);
                        for t in std::mem::take(&mut m.tokens[u]) {
                            m.revoke(t.serial);
                        }
                        if let Some(c) = m.certs[u].take() {
                            m.revoke(c.serial);
                        }
                    }
                    4 => {
                        m.now += SimDuration::from_secs(arg);
                        b.advance_to(m.now);
                    }
                    5 => {
                        let before = m.tokens.iter().map(Vec::len).sum::<usize>()
                            + m.certs.iter().flatten().count();
                        for v in 0..TAPE_USERS {
                            let kept: Vec<SignedToken> = m.tokens[v]
                                .iter()
                                .filter(|t| m.now < t.expires && !m.is_revoked(t.serial))
                                .copied()
                                .collect();
                            m.tokens[v] = kept;
                            if m.certs[v]
                                .is_some_and(|c| m.now >= c.expires || m.is_revoked(c.serial))
                            {
                                m.certs[v] = None;
                            }
                        }
                        let after = m.tokens.iter().map(Vec::len).sum::<usize>()
                            + m.certs.iter().flatten().count();
                        prop_assert_eq!(b.sweep_expired(), before - after);
                    }
                    _ => {
                        let live = m.tokens[u].iter().rev().find(|t| m.token_ok(t)).copied();
                        let got = b.ensure_session(&db, user).unwrap();
                        match live {
                            None => m.logged_in(&b, &users, u, got)?,
                            Some(t) => {
                                prop_assert_eq!(got, t);
                                let ssh = m.certs[u].map(|c| m.verdict(c.serial, c.issued, c.expires));
                                if ssh != Some(Ok(())) {
                                    let cert = b.current_cert(user);
                                    m.certs[u] = cert;
                                    prop_assert_eq!(cert, Some(m.expect_cert(&users, u)));
                                }
                            }
                        }
                    }
                }
                m.check(&b, &users)?;
            }
        }
    }
}
