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
use crate::plane::CredentialPlane;
use crate::realm::{
    IdentityAssertion, IdentityProvider, MfaCode, MfaEnrollment, RealmId, RecoveryCode,
};
use crate::revocation::RevocationList;
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

/// The broker: home-realm IdP + CA + revocation list + live-session state.
#[derive(Debug)]
pub struct CredentialBroker {
    /// The home realm's identity provider.
    pub idp: IdentityProvider,
    /// The home realm's certificate authority.
    pub ca: CertificateAuthority,
    /// The realm-wide revocation list.
    pub revocations: RevocationList,
    now: SimTime,
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
    idp_available: bool,
    /// Certificate-authority reachability (fault injection; defaults up).
    /// While down, minting fails with [`CredError::Unavailable`];
    /// verification is local key material and keeps serving.
    ca_available: bool,
    /// Verify-path statistics (atomic; off by default). Recorded only by
    /// the plane-level trait methods, so a broker serving as a
    /// [`crate::ShardedBroker`] shard stays silent — the plane counts once.
    pub stats: ValidateStats,
    /// Causal trace ring for the credential plane (off by default).
    /// Interior-mutable so entry points behind a read lock (PAM account
    /// phase, submission gate) can mint and record spans through `&self`.
    pub trace: TraceBuffer,
}

impl CredentialBroker {
    /// A broker for `realm`; `seed` determines all key/token material.
    pub fn new(realm: RealmId, seed: u64, policy: BrokerPolicy) -> Self {
        let mut idp = IdentityProvider::new(realm, seed);
        if policy.require_mfa {
            idp = idp.with_mfa_required();
        }
        let ca = CertificateAuthority::new(realm, seed)
            .with_token_ttl(policy.token_ttl)
            .with_cert_ttl(policy.cert_ttl);
        CredentialBroker {
            idp,
            revocations: RevocationList::new(ca.serial_set_key()),
            ca,
            now: SimTime::ZERO,
            sessions: BTreeMap::new(),
            certs: BTreeMap::new(),
            idp_available: true,
            ca_available: true,
            stats: ValidateStats::new(),
            trace: TraceBuffer::disabled("cred", CRED_TRACE_CODE),
        }
    }

    /// Partition the CA's serial space (see
    /// [`CertificateAuthority::set_serial_partition`]); used by
    /// [`crate::ShardedBroker`] so shard serials never collide.
    pub fn with_serial_partition(mut self, index: u64, stride: u64) -> Self {
        self.ca.set_serial_partition(index, stride);
        self
    }

    /// The broker's realm.
    pub fn realm(&self) -> RealmId {
        self.idp.realm
    }

    /// The broker's current clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock (monotonic; driven by the cluster simulation).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    // ------------------------------------------------------------------
    // Issuance
    // ------------------------------------------------------------------

    /// Federated login: assert identity (MFA per policy), mint a bearer
    /// token and an SSH certificate, and record them as a live session.
    /// Concurrent sessions are real — a second login *appends* to the
    /// user's live sessions rather than replacing them (two portal tabs, a
    /// portal session plus an sbatch token, …); only revocation or expiry
    /// ends a session.
    pub fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        if !self.idp_available || !self.ca_available {
            return Err(CredError::Unavailable);
        }
        let assertion = self.idp.assert_identity(db, user, mfa, self.now)?;
        Ok(self.mint_session(&assertion))
    }

    /// Login with a single-use recovery code in place of the window code
    /// (the lost-authenticator path); the code is burned on success.
    pub fn login_recovery(
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
            .assert_identity_recovery(db, user, code, self.now)?;
        Ok(self.mint_session(&assertion))
    }

    /// Mint and record the token + SSH certificate for an assertion.
    fn mint_session(&mut self, assertion: &IdentityAssertion) -> SignedToken {
        let token = self.ca.mint_token(assertion, self.now);
        let cert = self.ca.mint_cert(assertion, self.now);
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
    pub fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        let mfa = self.idp.current_code(user, self.now);
        self.login(db, user, mfa)
    }

    /// Mint a fresh SSH certificate against a live bearer token (the
    /// `ssh-cert fetch` workflow).
    pub fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError> {
        if !self.ca_available {
            return Err(CredError::Unavailable);
        }
        let user = self.validate_token(token)?;
        let assertion = crate::realm::IdentityAssertion {
            realm: self.realm(),
            user,
            asserted_at: self.now,
            mfa_verified: false,
        };
        let cert = self.ca.mint_cert(&assertion, self.now);
        self.certs.insert(user, cert);
        Ok(cert)
    }

    /// Ensure the user holds a live session (login on first touch or after
    /// expiry/revocation) — the "credentials refresh transparently at
    /// connect time" path legitimate clients use.
    pub fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        let live = self
            .sessions
            .get(&user)
            .and_then(|v| v.values().rev().find(|t| self.validate_token(t).is_ok()));
        let token = match live {
            Some(t) => *t,
            // Re-login; enrolled users present their current window code.
            None => return self.login_auto(db, user),
        };
        // Certificates are shorter-lived than tokens: a live session may
        // still need its cert re-minted before ssh succeeds.
        let cert_live = self
            .certs
            .get(&user)
            .is_some_and(|c| self.validate_cert(c).is_ok());
        if !cert_live {
            self.mint_ssh_cert(&token)?;
        }
        Ok(token)
    }

    // ------------------------------------------------------------------
    // Verification (hot path)
    // ------------------------------------------------------------------

    // analyze:hot-path-begin(broker-validate)
    /// Validate a presented bearer token: signature, realm, window,
    /// revocation. Returns the authenticated uid.
    pub fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        self.ca.verify_token(token, self.now)?;
        if self.revocations.is_revoked(token.serial) {
            return Err(CredError::Revoked(token.serial));
        }
        Ok(token.user)
    }

    /// Validate a presented SSH certificate. Returns the principal uid.
    pub fn validate_cert(&self, cert: &SshCertificate) -> Result<Uid, CredError> {
        self.ca.verify_cert(cert, self.now)?;
        if self.revocations.is_revoked(cert.serial) {
            return Err(CredError::Revoked(cert.serial));
        }
        Ok(cert.user)
    }

    /// Validate a serial known to the broker (portal sessions keep only the
    /// serial after login). O(log) via the serial-keyed session index —
    /// constant-time in the user's concurrent-session count, however many
    /// tabs and tokens they hold.
    pub fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError> {
        if self.revocations.is_revoked(serial) {
            return Err(CredError::Revoked(serial));
        }
        match self.sessions.get(&user).and_then(|v| v.get(&serial)) {
            Some(t) => self.ca.verify_token(t, self.now).map(|_| ()),
            None => Err(CredError::NoCredential(user)),
        }
    }

    /// sshd account phase: does this principal hold a live, unrevoked SSH
    /// certificate right now?
    pub fn authorize_ssh(&self, user: Uid) -> Result<(), CredError> {
        let cert = self.certs.get(&user).ok_or(CredError::NoCredential(user))?;
        self.validate_cert(cert).map(|_| ())
    }

    /// Scheduler submission gate: does this principal hold a live, unrevoked
    /// bearer token right now?
    pub fn authorize_submit(&self, user: Uid) -> Result<(), CredError> {
        self.authorize_submit_at(user, self.now)
    }

    /// Submission gate for a job arriving at `at` (>= now): the token must
    /// be unrevoked now and inside its window at the arrival instant, so a
    /// future-dated submission cannot outlive its credential.
    pub fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError> {
        let when = if at > self.now { at } else { self.now };
        let mut last = CredError::NoCredential(user);
        for token in self
            .sessions
            .get(&user)
            .into_iter()
            .flat_map(|v| v.values())
            .rev()
        {
            if self.revocations.is_revoked(token.serial) {
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
    pub fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        self.certs.get(&user).copied()
    }

    /// The user's most recent token, if any (highest serial = newest).
    pub fn current_token(&self, user: Uid) -> Option<SignedToken> {
        self.sessions
            .get(&user)
            .and_then(|v| v.values().next_back().copied())
    }

    // ------------------------------------------------------------------
    // Revocation & lifecycle
    // ------------------------------------------------------------------

    /// Revoke one serial (immediate; irreversible). Returns true the first
    /// time, false if it was already revoked.
    pub fn revoke_serial(&mut self, serial: CredSerial) -> bool {
        self.revocations.revoke(serial)
    }

    /// Revoke every live credential of a user (incident response / logout).
    /// Returns the serials newly revoked, in revocation order — the
    /// sharded plane uses this to keep its plane-level delta log aligned
    /// with the per-shard lists.
    pub fn revoke_user(&mut self, user: Uid) -> Vec<CredSerial> {
        let mut revoked = Vec::new();
        for (serial, _) in self.sessions.remove(&user).unwrap_or_default() {
            if self.revocations.revoke(serial) {
                revoked.push(serial);
            }
        }
        if let Some(c) = self.certs.remove(&user) {
            if self.revocations.revoke(c.serial) {
                revoked.push(c.serial);
            }
        }
        revoked
    }

    /// Drop expired *and revoked* sessions and certificates; returns how
    /// many entries the sweep removed. (Both kinds already fail validation —
    /// the sweep bounds the table sizes, as a production broker must.
    /// Revoked-but-unexpired entries used to survive until their window
    /// lapsed, so a busy logout cycle grew the tables between sweeps.)
    pub fn sweep_expired(&mut self) -> usize {
        let now = self.now;
        let before = self.live_sessions() + self.certs.len();
        for tokens in self.sessions.values_mut() {
            tokens.retain(|serial, t| now < t.expires && !self.revocations.is_revoked(*serial));
        }
        self.sessions.retain(|_, tokens| !tokens.is_empty());
        self.certs
            .retain(|_, c| now < c.expires && !self.revocations.is_revoked(c.serial));
        before - (self.live_sessions() + self.certs.len())
    }

    /// Number of live (unswept) session tokens across all users.
    pub fn live_sessions(&self) -> usize {
        self.sessions.values().map(BTreeMap::len).sum()
    }

    // ------------------------------------------------------------------
    // Fault injection (eus-chaos)
    // ------------------------------------------------------------------

    /// Take the identity provider down (or back up). While down, every
    /// assertion path fails with [`CredError::Unavailable`]; validation of
    /// already-minted credentials keeps serving.
    pub fn set_idp_available(&mut self, up: bool) {
        self.idp_available = up;
    }

    /// Whether the identity provider is currently serving assertions.
    pub fn idp_available(&self) -> bool {
        self.idp_available
    }

    /// Take the certificate authority down (or back up). While down,
    /// minting fails with [`CredError::Unavailable`]; verification is local
    /// key material and keeps serving.
    pub fn set_ca_available(&mut self, up: bool) {
        self.ca_available = up;
    }

    /// Whether the certificate authority is currently minting.
    pub fn ca_available(&self) -> bool {
        self.ca_available
    }
}

impl CredentialPlane for CredentialBroker {
    fn realm(&self) -> RealmId {
        CredentialBroker::realm(self)
    }
    fn now(&self) -> SimTime {
        CredentialBroker::now(self)
    }
    fn advance_to(&mut self, t: SimTime) {
        CredentialBroker::advance_to(self, t)
    }
    fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        CredentialBroker::login(self, db, user, mfa)
    }
    fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        CredentialBroker::login_auto(self, db, user)
    }
    fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError> {
        CredentialBroker::mint_ssh_cert(self, token)
    }
    fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        CredentialBroker::ensure_session(self, db, user)
    }
    fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = CredentialBroker::validate_token(self, token);
        self.stats.finish(t0, r.is_ok());
        r
    }
    fn validate_cert(&self, cert: &SshCertificate) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = CredentialBroker::validate_cert(self, cert);
        self.stats.finish(t0, r.is_ok());
        r
    }
    fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError> {
        CredentialBroker::validate_serial(self, user, serial)
    }
    fn validate_stats(&self) -> Option<&ValidateStats> {
        Some(&self.stats)
    }
    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        Some(&self.trace)
    }
    fn authorize_ssh(&self, user: Uid) -> Result<(), CredError> {
        CredentialBroker::authorize_ssh(self, user)
    }
    fn authorize_submit(&self, user: Uid) -> Result<(), CredError> {
        CredentialBroker::authorize_submit(self, user)
    }
    fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError> {
        CredentialBroker::authorize_submit_at(self, user, at)
    }
    fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        CredentialBroker::current_cert(self, user)
    }
    fn current_token(&self, user: Uid) -> Option<SignedToken> {
        CredentialBroker::current_token(self, user)
    }
    fn revoke_serial(&mut self, serial: CredSerial) {
        CredentialBroker::revoke_serial(self, serial);
    }
    fn revoke_user(&mut self, user: Uid) {
        CredentialBroker::revoke_user(self, user);
    }
    fn sweep_expired(&mut self) -> usize {
        CredentialBroker::sweep_expired(self)
    }
    fn live_sessions(&self) -> usize {
        CredentialBroker::live_sessions(self)
    }
    fn enroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<MfaEnrollment, CredError> {
        let now = self.now;
        self.idp.enroll_mfa_stepup(user, mfa, now)
    }
    fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        CredentialBroker::login_recovery(self, db, user, code)
    }
    fn unenroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<(), CredError> {
        let now = self.now;
        self.idp.unenroll_mfa(user, mfa, now)
    }
    fn mfa_challenged(&self, user: Uid) -> bool {
        self.idp.is_challenged(user)
    }
    fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.idp.current_code(user, self.now)
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
        CredentialBroker::set_idp_available(self, up)
    }
    fn idp_available(&self) -> bool {
        CredentialBroker::idp_available(self)
    }
    fn set_ca_available(&mut self, up: bool) {
        CredentialBroker::set_ca_available(self, up)
    }
    fn ca_available(&self) -> bool {
        CredentialBroker::ca_available(self)
    }
    fn verifier(&self) -> RealmVerifier {
        RealmVerifier::new(self.realm(), vec![self.ca.clone()])
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
        b.idp.enroll_mfa(alice);
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
