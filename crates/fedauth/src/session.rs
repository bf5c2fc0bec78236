//! `SessionTable`: the one session table a [`crate::CredentialBroker`]
//! owns — the realm's IdP, CA, live sessions and certificates.
//!
//! The table is a plain field of the broker, behind no lock of its own:
//! the `&self` gates read it under the caller's one plane guard, and the
//! `&mut self` paths write it directly. A *verdict on a presented
//! credential* reads none of it beyond the CA's keys: the revoked set and
//! the clock are the plane's, kept once at plane level.
//!
//! Correctness-by-construction details:
//!
//! * the CA mints the plain serial stream 1, 2, 3, …, so serials are unique
//!   in the realm and a token and its certificate never share one;
//! * every credential carries the realm id, so realm binding (the
//!   `CrossRealmSpoof` defense) is judged before any signature;
//! * revocation state is one plane-level list, its delta log appended in
//!   the order revocations pass through the plane API — the feed a sister
//!   realm replicates (`eus-revsync`).

use crate::broker::BrokerPolicy;
use crate::ca::{CertificateAuthority, CredError, CredSerial, SignedToken, SshCertificate};
use crate::plane::PlaneClock;
use crate::realm::{
    IdentityAssertion, IdentityProvider, MfaCode, MfaEnrollment, RealmId, RecoveryCode,
};
use crate::revocation::{RevocationList, SerialSet};
use eus_simcore::SimTime;
use eus_simos::{Uid, UserDb};
use std::collections::BTreeMap;

/// Realm-wide issuer reachability (fault injection; both up by default),
/// kept once on the plane and lent to each issuing call. While the IdP is
/// down, assertion paths (login, recovery login, MFA management) fail with
/// [`CredError::Unavailable`]; while the CA is down, minting does.
/// Validation of already-minted credentials reads neither.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reach {
    pub(crate) idp: bool,
    pub(crate) ca: bool,
}

/// The realm's IdP, CA, live sessions and certificates. Revocation state is
/// **not** here — the plane keeps one [`RevocationList`] and lends it to the
/// methods below, and the clock is the plane's published [`PlaneClock`] —
/// so a verdict on a *presented* credential
/// ([`CertificateAuthority::validate_token`]) reads only the CA's keys.
#[derive(Debug)]
pub(crate) struct SessionTable {
    pub(crate) idp: IdentityProvider,
    pub(crate) ca: CertificateAuthority,
    clock: PlaneClock,
    /// Live tokens, one entry per session, **keyed by `(user, serial)`**:
    /// a user's sessions are the contiguous key range `user_tokens` walks,
    /// oldest first (serials are monotonic per CA). A user with one session
    /// holds one entry, not a B-tree of their own, and `validate_serial` is
    /// one O(log n) lookup however many tabs and sbatch tokens they hold.
    sessions: BTreeMap<(Uid, CredSerial), SignedToken>,
    certs: BTreeMap<Uid, SshCertificate>,
}

impl SessionTable {
    /// A table for `realm` on the plane's `clock`; `seed` determines all
    /// key/token material.
    pub(crate) fn new(realm: RealmId, seed: u64, policy: BrokerPolicy, clock: PlaneClock) -> Self {
        let mut idp = IdentityProvider::new(realm, seed);
        if policy.require_mfa {
            idp = idp.with_mfa_required();
        }
        SessionTable {
            idp,
            ca: CertificateAuthority::new(realm, seed)
                .with_token_ttl(policy.token_ttl)
                .with_cert_ttl(policy.cert_ttl),
            clock,
            sessions: BTreeMap::new(),
            certs: BTreeMap::new(),
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
        reach: Reach,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        serving(reach.idp && reach.ca)?;
        let assertion = self.idp.assert_identity(db, user, mfa, self.clock.now())?;
        Ok(self.mint_session(&assertion))
    }

    /// Login with a single-use recovery code in place of the window code
    /// (the lost-authenticator path); the code is burned on success.
    pub(crate) fn login_recovery(
        &mut self,
        reach: Reach,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        serving(reach.idp && reach.ca)?;
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
        self.sessions.insert((assertion.user, token.serial), token);
        self.certs.insert(assertion.user, cert);
        token
    }

    /// Mint a fresh SSH certificate against a live bearer token (the
    /// `ssh-cert fetch` workflow).
    pub(crate) fn mint_ssh_cert(
        &mut self,
        reach: Reach,
        revoked: &SerialSet,
        token: &SignedToken,
    ) -> Result<SshCertificate, CredError> {
        serving(reach.ca)?;
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
    /// connect time" path legitimate clients use. The re-login presents
    /// the current window code for enrolled users (the out-of-band factor a
    /// real client would type); others log in single-factor.
    pub(crate) fn ensure_session(
        &mut self,
        reach: Reach,
        revoked: &SerialSet,
        db: &UserDb,
        user: Uid,
    ) -> Result<SignedToken, CredError> {
        let now = self.clock.now();
        let live = self
            .user_tokens(user)
            .rev()
            .find(|t| self.ca.validate_token(t, now, revoked).is_ok());
        let token = match live {
            Some(t) => *t,
            None => {
                let mfa = self.current_mfa_code(user);
                return self.login(reach, db, user, mfa);
            }
        };
        // Certificates are shorter-lived than tokens: a live session may
        // still need its cert re-minted before ssh succeeds.
        if self.authorize_ssh(revoked, user).is_err() {
            self.mint_ssh_cert(reach, revoked, &token)?;
        }
        Ok(token)
    }

    // analyze:hot-path-begin(session-validate)
    /// Validate a serial known to the table (portal sessions keep only the
    /// serial after login). One O(log n) lookup of the `(user, serial)`
    /// key, whatever the user's concurrent-session count.
    pub(crate) fn validate_serial(
        &self,
        revoked: &SerialSet,
        user: Uid,
        serial: CredSerial,
    ) -> Result<(), CredError> {
        if revoked.contains(&serial) {
            return Err(CredError::Revoked(serial));
        }
        match self.sessions.get(&(user, serial)) {
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
        for token in self.user_tokens(user).rev() {
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
        self.user_tokens(user).next_back().copied()
    }

    /// Revoke every live credential of a user (incident response / logout)
    /// into the plane's list: tokens oldest first, then the certificate.
    pub(crate) fn revoke_user(&mut self, revocations: &mut RevocationList, user: Uid) {
        // Remove key by key: only the user's range is touched (cutting the
        // range out with `split_off` + `append` rebuilds the whole map).
        let serials: Vec<CredSerial> = self.user_tokens(user).map(|t| t.serial).collect();
        for serial in serials {
            self.sessions.remove(&(user, serial));
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
        self.sessions
            .retain(|(_, serial), t| now < t.expires && !revoked.contains(serial));
        self.certs
            .retain(|_, c| now < c.expires && !revoked.contains(&c.serial));
        before - (self.live_sessions() + self.certs.len())
    }

    /// Number of live (unswept) session tokens across all users.
    pub(crate) fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The user's live tokens, oldest first.
    fn user_tokens(&self, user: Uid) -> impl DoubleEndedIterator<Item = &SignedToken> {
        let keys = (user, CredSerial(0))..=(user, CredSerial(u64::MAX));
        self.sessions.range(keys).map(|(_, t)| t)
    }

    // MFA management asserts against the IdP, so it needs the IdP up like
    // a login does.
    pub(crate) fn enroll_mfa(
        &mut self,
        reach: Reach,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<MfaEnrollment, CredError> {
        serving(reach.idp)?;
        self.idp.enroll_mfa_stepup(user, mfa, self.clock.now())
    }

    pub(crate) fn unenroll_mfa(
        &mut self,
        reach: Reach,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<(), CredError> {
        serving(reach.idp)?;
        self.idp.unenroll_mfa(user, mfa, self.clock.now())
    }

    pub(crate) fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.idp.current_code(user, self.clock.now())
    }
}

/// `Ok` when the realm-wide issuer a call needs is `up`;
/// [`CredError::Unavailable`] otherwise.
fn serving(up: bool) -> Result<(), CredError> {
    if up {
        Ok(())
    } else {
        Err(CredError::Unavailable)
    }
}
