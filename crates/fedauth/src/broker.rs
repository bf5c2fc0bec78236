//! The credential broker: the single enforcement point every service
//! consults instead of trusting raw uids or long-lived keys.
//!
//! sshd's PAM account phase ([`crate::PamFedAuth`]), the scheduler's
//! submission path, and the portal's session layer all hold a
//! [`crate::SharedBroker`] and ask it one O(1) question — "does this principal hold
//! a live, unrevoked credential of the right kind *right now*?" — keeping
//! issuance, expiry, and revocation in one place (the companion paper's
//! central identity plane).

use crate::ca::{
    CertificateAuthority, CredError, CredSerial, RealmVerifier, SignedToken, SshCertificate,
};
use crate::obs::{ValidateStats, CRED_TRACE_CODE};
use crate::plane::{CredentialPlane, PlaneClock};
use crate::realm::{
    IdentityAssertion, IdentityProvider, MfaCode, MfaEnrollment, RealmId, RecoveryCode,
};
use crate::revocation::{RevocationList, SerialSet};
use eus_obs::TraceBuffer;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use std::collections::BTreeMap;

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

/// What one shard lock guards: a uid partition's IdP, CA, live sessions and
/// certificates. Revocation state is **not** here — a plane keeps one
/// [`RevocationList`] and lends it to the methods below, and the clock is
/// the plane's published [`PlaneClock`] — so a verdict on a *presented*
/// credential ([`CertificateAuthority::validate_token`]) needs no shard at
/// all. A [`CredentialBroker`] is one of these plus the list; a
/// [`crate::ShardedBroker`] is N of them, each behind its own lock.
#[derive(Debug)]
pub(crate) struct SessionShard {
    pub(crate) idp: IdentityProvider,
    pub(crate) ca: CertificateAuthority,
    clock: PlaneClock,
    /// Live tokens per user, **keyed by serial** (serials are monotonic per
    /// CA, so iteration order is still oldest-first). The serial key makes
    /// `validate_serial` an O(log) map lookup instead of a linear scan of
    /// the user's sessions — users with hundreds of concurrent portal tabs
    /// and sbatch tokens are real (concurrent sessions are: two portal
    /// tabs, a portal session plus an sbatch token, ...).
    sessions: BTreeMap<Uid, BTreeMap<CredSerial, SignedToken>>,
    certs: BTreeMap<Uid, SshCertificate>,
    /// Identity-provider reachability (fault injection; defaults up).
    /// While down, assertion paths fail with [`CredError::Unavailable`];
    /// validation of already-minted credentials is untouched.
    pub(crate) idp_available: bool,
    /// Certificate-authority reachability (fault injection; defaults up).
    /// While down, minting fails with [`CredError::Unavailable`];
    /// verification is local key material and keeps serving.
    pub(crate) ca_available: bool,
}

impl SessionShard {
    /// A shard for `realm` on the plane's `clock`; `seed` determines all
    /// key/token material.
    pub(crate) fn new(realm: RealmId, seed: u64, policy: BrokerPolicy, clock: PlaneClock) -> Self {
        let mut idp = IdentityProvider::new(realm, seed);
        if policy.require_mfa {
            idp = idp.with_mfa_required();
        }
        SessionShard {
            idp,
            ca: CertificateAuthority::new(realm, seed)
                .with_token_ttl(policy.token_ttl)
                .with_cert_ttl(policy.cert_ttl),
            clock,
            sessions: BTreeMap::new(),
            certs: BTreeMap::new(),
            idp_available: true,
            ca_available: true,
        }
    }

    /// Federated login: assert identity (MFA per policy), mint a bearer
    /// token and an SSH certificate, and record them as a live session.
    /// Concurrent sessions are real — a second login *appends* to the
    /// user's live sessions rather than replacing them (two portal tabs, a
    /// portal session plus an sbatch token, …); only revocation or expiry
    /// ends a session.
    pub(crate) fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        if !self.idp_available || !self.ca_available {
            return Err(CredError::Unavailable);
        }
        let assertion = self.idp.assert_identity(db, user, mfa, self.clock.now())?;
        Ok(self.mint_session(&assertion))
    }

    /// Login with a single-use recovery code in place of the window code
    /// (the lost-authenticator path); the code is burned on success.
    pub(crate) fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        if !self.idp_available || !self.ca_available {
            return Err(CredError::Unavailable);
        }
        let assertion = self
            .idp
            .assert_identity_recovery(db, user, code, self.clock.now())?;
        Ok(self.mint_session(&assertion))
    }

    /// Mint and record the token + SSH certificate for an assertion.
    fn mint_session(&mut self, assertion: &IdentityAssertion) -> SignedToken {
        let now = self.clock.now();
        let token = self.ca.mint_token(assertion, now);
        let cert = self.ca.mint_cert(assertion, now);
        self.sessions
            .entry(assertion.user)
            .or_default()
            .insert(token.serial, token);
        self.certs.insert(assertion.user, cert);
        token
    }

    /// [`login`](Self::login) with the second factor supplied by the
    /// simulation: enrolled users "type" the current window code (the
    /// out-of-band factor a real client would present), others log in
    /// single-factor.
    pub(crate) fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        let mfa = self.current_mfa_code(user);
        self.login(db, user, mfa)
    }

    /// Mint a fresh SSH certificate against a live bearer token (the
    /// `ssh-cert fetch` workflow).
    pub(crate) fn mint_ssh_cert(
        &mut self,
        revoked: &SerialSet,
        token: &SignedToken,
    ) -> Result<SshCertificate, CredError> {
        if !self.ca_available {
            return Err(CredError::Unavailable);
        }
        let now = self.clock.now();
        let user = self.ca.validate_token(token, now, revoked)?;
        let assertion = IdentityAssertion {
            realm: self.idp.realm,
            user,
            asserted_at: now,
            mfa_verified: false,
        };
        let cert = self.ca.mint_cert(&assertion, now);
        self.certs.insert(user, cert);
        Ok(cert)
    }

    /// Ensure the user holds a live session (login on first touch or after
    /// expiry/revocation) — the "credentials refresh transparently at
    /// connect time" path legitimate clients use.
    pub(crate) fn ensure_session(
        &mut self,
        revoked: &SerialSet,
        db: &UserDb,
        user: Uid,
    ) -> Result<SignedToken, CredError> {
        let now = self.clock.now();
        let live = self.sessions.get(&user).and_then(|v| {
            v.values()
                .rev()
                .find(|t| self.ca.validate_token(t, now, revoked).is_ok())
        });
        let token = match live {
            Some(t) => *t,
            // Re-login; enrolled users present their current window code.
            None => return self.login_auto(db, user),
        };
        // Certificates are shorter-lived than tokens: a live session may
        // still need its cert re-minted before ssh succeeds.
        if self.authorize_ssh(revoked, user).is_err() {
            self.mint_ssh_cert(revoked, &token)?;
        }
        Ok(token)
    }

    // analyze:hot-path-begin(broker-validate)
    /// Validate a serial known to the shard (portal sessions keep only the
    /// serial after login). O(log) via the serial-keyed session index —
    /// constant-time in the user's concurrent-session count, however many
    /// tabs and tokens they hold.
    pub(crate) fn validate_serial(
        &self,
        revoked: &SerialSet,
        user: Uid,
        serial: CredSerial,
    ) -> Result<(), CredError> {
        if revoked.contains(&serial) {
            return Err(CredError::Revoked(serial));
        }
        match self.sessions.get(&user).and_then(|v| v.get(&serial)) {
            Some(t) => self.ca.verify_token(t, self.clock.now()),
            None => Err(CredError::NoCredential(user)),
        }
    }

    /// sshd account phase: does this principal hold a live, unrevoked SSH
    /// certificate right now?
    pub(crate) fn authorize_ssh(&self, revoked: &SerialSet, user: Uid) -> Result<(), CredError> {
        let cert = self.certs.get(&user).ok_or(CredError::NoCredential(user))?;
        self.ca
            .validate_cert(cert, self.clock.now(), revoked)
            .map(|_| ())
    }

    /// Submission gate for a job arriving at `at` (>= now): the token must
    /// be unrevoked now and inside its window at the arrival instant, so a
    /// future-dated submission cannot outlive its credential.
    pub(crate) fn authorize_submit_at(
        &self,
        revoked: &SerialSet,
        user: Uid,
        at: SimTime,
    ) -> Result<(), CredError> {
        let when = at.max(self.clock.now());
        let mut last = CredError::NoCredential(user);
        for token in self
            .sessions
            .get(&user)
            .into_iter()
            .flat_map(|v| v.values())
            .rev()
        {
            if revoked.contains(&token.serial) {
                last = CredError::Revoked(token.serial);
                continue;
            }
            match self.ca.verify_token(token, when) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
    // analyze:hot-path-end

    /// The user's live certificate, if any (probes use this to model theft).
    pub(crate) fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        self.certs.get(&user).copied()
    }

    /// The user's most recent token, if any (highest serial = newest).
    pub(crate) fn current_token(&self, user: Uid) -> Option<SignedToken> {
        self.sessions
            .get(&user)
            .and_then(|v| v.values().next_back().copied())
    }

    /// Revoke every live credential of a user (incident response / logout)
    /// into the plane's list: tokens oldest first, then the certificate.
    pub(crate) fn revoke_user(&mut self, revocations: &mut RevocationList, user: Uid) {
        for (serial, _) in self.sessions.remove(&user).unwrap_or_default() {
            revocations.revoke(serial);
        }
        if let Some(c) = self.certs.remove(&user) {
            revocations.revoke(c.serial);
        }
    }

    /// Drop expired *and revoked* sessions and certificates; returns how
    /// many entries the sweep removed. (Both kinds already fail validation —
    /// the sweep bounds the table sizes, as a production broker must.
    /// Revoked-but-unexpired entries used to survive until their window
    /// lapsed, so a busy logout cycle grew the tables between sweeps.)
    pub(crate) fn sweep_expired(&mut self, revoked: &SerialSet) -> usize {
        let now = self.clock.now();
        let before = self.live_sessions() + self.certs.len();
        for tokens in self.sessions.values_mut() {
            tokens.retain(|serial, t| now < t.expires && !revoked.contains(serial));
        }
        self.sessions.retain(|_, tokens| !tokens.is_empty());
        self.certs
            .retain(|_, c| now < c.expires && !revoked.contains(&c.serial));
        before - (self.live_sessions() + self.certs.len())
    }

    /// Number of live (unswept) session tokens across the shard's users.
    pub(crate) fn live_sessions(&self) -> usize {
        self.sessions.values().map(BTreeMap::len).sum()
    }

    // The MFA routes live here so the binding-enrollment policy is encoded
    // once for both planes.
    pub(crate) fn enroll_mfa(
        &mut self,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<MfaEnrollment, CredError> {
        self.idp.enroll_mfa_stepup(user, mfa, self.clock.now())
    }

    pub(crate) fn unenroll_mfa(
        &mut self,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<(), CredError> {
        self.idp.unenroll_mfa(user, mfa, self.clock.now())
    }

    pub(crate) fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.idp.current_code(user, self.clock.now())
    }
}

/// The broker: home-realm IdP + CA + revocation list + live-session state.
/// Every operation is a [`CredentialPlane`] method — bring the trait into
/// scope to call them.
#[derive(Debug)]
pub struct CredentialBroker {
    /// IdP, CA, sessions and certificates: one [`SessionShard`] holding
    /// every user.
    pub(crate) shard: SessionShard,
    /// The realm-wide revocation list.
    pub revocations: RevocationList,
    /// Verify-path statistics (atomic; off by default). Pure measurement —
    /// never consulted by an accept/reject decision.
    pub stats: ValidateStats,
    /// Causal trace ring for the credential plane (off by default).
    /// Interior-mutable so entry points behind a read lock (PAM account
    /// phase, submission gate) can mint and record spans through `&self`.
    pub trace: TraceBuffer,
}

impl CredentialBroker {
    /// A broker for `realm`; `seed` determines all key/token material.
    pub fn new(realm: RealmId, seed: u64, policy: BrokerPolicy) -> Self {
        let shard = SessionShard::new(realm, seed, policy, PlaneClock::default());
        CredentialBroker {
            revocations: RevocationList::new(shard.ca.serial_set_key()),
            shard,
            stats: ValidateStats::new(),
            trace: TraceBuffer::disabled("cred", CRED_TRACE_CODE),
        }
    }
}

impl CredentialPlane for CredentialBroker {
    fn realm(&self) -> RealmId {
        self.shard.idp.realm
    }
    fn now(&self) -> SimTime {
        self.shard.clock.now()
    }
    fn clock(&self) -> PlaneClock {
        self.shard.clock.clone()
    }
    fn advance_to(&mut self, t: SimTime) {
        self.shard.clock.advance_to(t);
    }
    fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        self.shard.login(db, user, mfa)
    }
    fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        self.shard.login_auto(db, user)
    }
    fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError> {
        self.shard.mint_ssh_cert(self.revocations.serials(), token)
    }
    fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        self.shard
            .ensure_session(self.revocations.serials(), db, user)
    }
    // analyze:hot-path-begin(broker-validate)
    fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = self
            .shard
            .ca
            .validate_token(token, self.now(), self.revocations.serials());
        self.stats.finish(t0, r.is_ok());
        r
    }
    fn validate_cert(&self, cert: &SshCertificate) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = self
            .shard
            .ca
            .validate_cert(cert, self.now(), self.revocations.serials());
        self.stats.finish(t0, r.is_ok());
        r
    }
    fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError> {
        self.shard
            .validate_serial(self.revocations.serials(), user, serial)
    }
    fn authorize_ssh(&self, user: Uid) -> Result<(), CredError> {
        self.shard.authorize_ssh(self.revocations.serials(), user)
    }
    fn authorize_submit(&self, user: Uid) -> Result<(), CredError> {
        self.authorize_submit_at(user, self.now())
    }
    fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError> {
        self.shard
            .authorize_submit_at(self.revocations.serials(), user, at)
    }
    // analyze:hot-path-end
    fn validate_stats(&self) -> Option<&ValidateStats> {
        Some(&self.stats)
    }
    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        Some(&self.trace)
    }
    fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        self.shard.current_cert(user)
    }
    fn current_token(&self, user: Uid) -> Option<SignedToken> {
        self.shard.current_token(user)
    }
    fn revoke_serial(&mut self, serial: CredSerial) {
        self.revocations.revoke(serial);
    }
    fn revoke_user(&mut self, user: Uid) {
        self.shard.revoke_user(&mut self.revocations, user);
    }
    fn sweep_expired(&mut self) -> usize {
        self.shard.sweep_expired(self.revocations.serials())
    }
    fn live_sessions(&self) -> usize {
        self.shard.live_sessions()
    }
    fn enroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<MfaEnrollment, CredError> {
        self.shard.enroll_mfa(user, mfa)
    }
    fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        self.shard.login_recovery(db, user, code)
    }
    fn unenroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<(), CredError> {
        self.shard.unenroll_mfa(user, mfa)
    }
    fn mfa_challenged(&self, user: Uid) -> bool {
        self.shard.idp.is_challenged(user)
    }
    fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.shard.current_mfa_code(user)
    }
    fn revocation_head(&self) -> u64 {
        self.revocations.head()
    }
    fn revocations_since(&self, since: u64) -> Vec<CredSerial> {
        self.revocations.entries_since(since).to_vec()
    }
    fn compact_revocations_below(&mut self, upto: u64) -> u64 {
        self.revocations.compact_below(upto)
    }
    fn revocation_floor(&self) -> u64 {
        self.revocations.floor()
    }
    fn revocation_snapshot(&self) -> Vec<CredSerial> {
        self.revocations.snapshot()
    }
    fn set_idp_available(&mut self, up: bool) {
        self.shard.idp_available = up;
    }
    fn idp_available(&self) -> bool {
        self.shard.idp_available
    }
    fn set_ca_available(&mut self, up: bool) {
        self.shard.ca_available = up;
    }
    fn ca_available(&self) -> bool {
        self.shard.ca_available
    }
    fn verifier(&self) -> RealmVerifier {
        RealmVerifier::new(self.realm(), vec![self.shard.ca.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (UserDb, CredentialBroker, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = CredentialBroker::new(RealmId(1), 11, BrokerPolicy::default());
        (db, broker, alice)
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
        b.shard.idp.enroll_mfa(alice);
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
        let (db, mut home, alice) = setup();
        home.login(&db, alice, None).unwrap();
        // A sister site with its own IdP/CA mints a token for the same uid.
        let mut foreign = CredentialBroker::new(RealmId(2), 99, BrokerPolicy::default());
        let foreign_token = foreign.login(&db, alice, None).unwrap();
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
        // The serial-keyed index must keep every behavior of the old Vec:
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
}
