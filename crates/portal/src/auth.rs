//! Portal authentication: the "user authentication is required to connect to
//! the HPC Portal" half of Sec. IV-E. Credential verification itself is
//! abstracted (the real portal fronts the site SSO); what matters to the
//! separation model is the binding of a bearer token to a uid.
//!
//! Two hardening layers beyond the original naive store:
//!
//! * token material comes from a seeded [`SimRng`] stream, so session ids
//!   are unguessable (the original sequential counter let an attacker forge
//!   a neighbor's session by decrementing);
//! * sessions can carry a TTL on the simulation clock — [`whoami`] refuses
//!   stale tokens and [`sweep_expired`] evicts them — and, when a federated
//!   [`SharedBroker`] is attached, every lookup also consults the broker's
//!   revocation list, so central revocation is immediate at the portal.
//!
//! With a broker attached the portal also surfaces MFA self-service:
//! [`enroll_mfa`] binds a second factor at the realm IdP, and from the next
//! login on [`login_mfa`] must present a current window code.
//!
//! [`whoami`]: PortalAuth::whoami
//! [`sweep_expired`]: PortalAuth::sweep_expired
//! [`enroll_mfa`]: PortalAuth::enroll_mfa
//! [`login_mfa`]: PortalAuth::login_mfa
//! [`SharedBroker`]: eus_fedauth::SharedBroker

use eus_fedauth::{
    CredError, CredSerial, MfaCode, MfaEnrollment, RecoveryCode, SharedBroker, SignedToken,
};
use eus_simcore::{SimDuration, SimRng, SimTime};
use eus_simos::{Uid, UserDb};
use std::collections::BTreeMap;
use std::fmt;

/// An opaque session token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// Authentication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Unknown user at login.
    NoSuchUser(Uid),
    /// Token absent, expired, or revoked.
    InvalidToken,
    /// The federated broker refused the login.
    Federated(CredError),
    /// MFA enrollment needs a federated broker attached (there is no local
    /// IdP to hold the secret).
    MfaUnavailable,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::NoSuchUser(u) => write!(f, "no such user {u}"),
            AuthError::InvalidToken => f.write_str("invalid or expired token"),
            AuthError::Federated(e) => write!(f, "federated login refused: {e}"),
            AuthError::MfaUnavailable => f.write_str("MFA enrollment requires a federated broker"),
        }
    }
}

impl std::error::Error for AuthError {}

#[derive(Debug, Clone, Copy)]
struct SessionEntry {
    user: Uid,
    /// Expiry instant; `None` = the legacy long-lived session.
    expires: Option<SimTime>,
    /// Backing broker credential, when federated.
    serial: Option<CredSerial>,
}

use eus_fedauth::splitmix64 as mix64;

/// Token store.
#[derive(Debug)]
pub struct PortalAuth {
    sessions: BTreeMap<Token, SessionEntry>,
    rng: SimRng,
    now: SimTime,
    ttl: Option<SimDuration>,
    broker: Option<SharedBroker>,
    /// Portal-private key for deriving web-session tokens from broker
    /// material: both 64-bit halves feed in, but without this key nobody
    /// who *observes* the bearer token (sister-site validators, relying
    /// services) can compute the portal session token from it.
    fold_key: u64,
}

impl Default for PortalAuth {
    fn default() -> Self {
        Self::new()
    }
}

impl PortalAuth {
    /// Empty store with long-lived sessions (no TTL) and a fixed seed; use
    /// [`with_seed`](Self::with_seed) to vary the token stream.
    pub fn new() -> Self {
        Self::with_seed(0x60A7_5EC5)
    }

    /// Empty store whose token material derives from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let fold_key = rng.range_u64(1, u64::MAX);
        PortalAuth {
            sessions: BTreeMap::new(),
            rng,
            now: SimTime::ZERO,
            ttl: None,
            broker: None,
            fold_key,
        }
    }

    /// Set a session TTL (applies to subsequent logins).
    // analyze:allow(dead-pub): operator-set portal session lifetime
    pub fn with_ttl(mut self, ttl: SimDuration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Route logins through a federated credential broker: tokens become
    /// broker-issued (short-TTL, centrally revocable) and every `whoami`
    /// consults the broker's revocation list.
    pub fn attach_broker(&mut self, broker: SharedBroker) {
        self.broker = Some(broker);
    }

    /// Advance the clock (monotonic; driven by the cluster simulation).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Mint a portal token, preferring `seed` (derived from broker
    /// material) and falling back to the rng stream until the candidate is
    /// nonzero and unused. Every mint path collision-checks here: a
    /// colliding insert would silently clobber another live session — a
    /// cross-user session-confusion bug the federated path used to have.
    fn mint_unused_token(&mut self, seed: Option<u64>) -> Token {
        let mut candidate = seed.unwrap_or_else(|| self.rng.range_u64(1, u64::MAX));
        loop {
            if candidate != 0 && !self.sessions.contains_key(&Token(candidate)) {
                return Token(candidate);
            }
            candidate = self.rng.range_u64(1, u64::MAX);
        }
    }

    /// Authenticate a user (site SSO assumed) and mint a token. With a
    /// federated broker attached, users with a binding MFA enrollment must
    /// log in through [`login_mfa`](Self::login_mfa).
    pub fn login(&mut self, db: &UserDb, user: Uid) -> Result<Token, AuthError> {
        self.login_mfa(db, user, None)
    }

    /// [`login`](Self::login) with an optional one-time code for
    /// MFA-enrolled users (ignored without a broker: local sessions model
    /// the pre-federation portal, which had no second factor).
    pub fn login_mfa(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<Token, AuthError> {
        if db.user(user).is_none() {
            return Err(AuthError::NoSuchUser(user));
        }
        if let Some(broker) = self.broker.clone() {
            let signed = {
                let mut broker = broker.write();
                broker.advance_to(self.now);
                broker.login(db, user, mfa).map_err(AuthError::Federated)?
            };
            return Ok(self.record_federated_session(user, &signed));
        }
        // Local minting: unguessable material, collision-checked.
        let t = self.mint_unused_token(None);
        self.sessions.insert(
            t,
            SessionEntry {
                user,
                expires: self.ttl.map(|ttl| self.now + ttl),
                serial: None,
            },
        );
        Ok(t)
    }

    /// [`login`](Self::login) with a single-use MFA recovery code in place
    /// of the window code — the lost-authenticator path. The code is burned
    /// on success; requires a federated broker (local sessions predate the
    /// second factor entirely).
    pub fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<Token, AuthError> {
        if db.user(user).is_none() {
            return Err(AuthError::NoSuchUser(user));
        }
        let broker = self.broker.clone().ok_or(AuthError::MfaUnavailable)?;
        let signed = {
            let mut broker = broker.write();
            broker.advance_to(self.now);
            broker
                .login_recovery(db, user, code)
                .map_err(AuthError::Federated)?
        };
        Ok(self.record_federated_session(user, &signed))
    }

    /// Record a broker-issued credential as a portal session. Derives the
    /// 64-bit portal token from the *full* 128-bit bearer material —
    /// truncating to the low half used to discard 64 bits of entropy —
    /// mixed with the portal-private key, so services that legitimately see
    /// the bearer token cannot compute the web session token from it (a
    /// plain high^low fold would let any such observer hijack the portal
    /// session).
    fn record_federated_session(&mut self, user: Uid, signed: &SignedToken) -> Token {
        let folded = mix64((signed.material >> 64) as u64 ^ self.fold_key)
            ^ mix64(signed.material as u64 ^ self.fold_key.rotate_left(21));
        let t = self.mint_unused_token(Some(folded));
        self.sessions.insert(
            t,
            SessionEntry {
                user,
                expires: Some(signed.expires),
                serial: Some(signed.serial),
            },
        );
        t
    }

    /// The portal's `enroll_mfa` route: a logged-in user enrolls a binding
    /// second factor at the realm IdP. The returned secret and single-use
    /// recovery codes are shown once (the QR-code moment); from the next
    /// login on, this user must present a current one-time code
    /// ([`login_mfa`](Self::login_mfa)) or burn a recovery code
    /// ([`login_recovery`](Self::login_recovery)).
    ///
    /// Rebinding an existing factor is step-up-gated: an already-challenged
    /// user must present their *current* code (`mfa`) or the route refuses —
    /// a stolen session token alone cannot swap in the thief's authenticator.
    pub fn enroll_mfa(
        &mut self,
        token: Token,
        mfa: Option<MfaCode>,
    ) -> Result<MfaEnrollment, AuthError> {
        let user = self.whoami(token)?;
        let broker = self.broker.as_ref().ok_or(AuthError::MfaUnavailable)?;
        let mut broker = broker.write();
        // Same clock sync as the login path: the step-up TOTP check must
        // judge the code against *now*, not the broker's last-seen time.
        broker.advance_to(self.now);
        broker.enroll_mfa(user, mfa).map_err(AuthError::Federated)
    }

    /// The portal's `unenroll_mfa` route: remove the session user's second
    /// factor. Step-up-gated exactly like rebinding — the current one-time
    /// code must be presented — so a stolen session token alone cannot
    /// strip an account down to single-factor. Remaining recovery codes are
    /// voided with the factor.
    pub fn unenroll_mfa(&mut self, token: Token, mfa: Option<MfaCode>) -> Result<(), AuthError> {
        let user = self.whoami(token)?;
        let broker = self.broker.as_ref().ok_or(AuthError::MfaUnavailable)?;
        let mut broker = broker.write();
        broker.advance_to(self.now);
        broker.unenroll_mfa(user, mfa).map_err(AuthError::Federated)
    }

    /// Resolve a token to its uid. Stale or centrally-revoked tokens are
    /// refused as [`AuthError::InvalidToken`].
    pub fn whoami(&self, token: Token) -> Result<Uid, AuthError> {
        let entry = self.sessions.get(&token).ok_or(AuthError::InvalidToken)?;
        if let Some(expires) = entry.expires {
            if self.now >= expires {
                return Err(AuthError::InvalidToken);
            }
        }
        if let (Some(broker), Some(serial)) = (&self.broker, entry.serial) {
            broker
                .read()
                .validate_serial(entry.user, serial)
                .map_err(|_| AuthError::InvalidToken)?;
        }
        Ok(entry.user)
    }

    /// Revoke a token. With a broker attached the backing credential is
    /// revoked centrally as well (immediate everywhere, irreversible).
    pub fn logout(&mut self, token: Token) -> bool {
        match self.sessions.remove(&token) {
            Some(entry) => {
                if let (Some(broker), Some(serial)) = (&self.broker, entry.serial) {
                    broker.write().revoke_serial(serial);
                }
                true
            }
            None => false,
        }
    }

    /// Evict expired sessions — and, with a broker attached, sessions whose
    /// backing credential was centrally revoked or already swept at the
    /// broker; returns how many were removed. All of these already fail
    /// [`whoami`](Self::whoami) — the sweep bounds the table size, as a
    /// production store must (a revoked-but-unexpired entry would otherwise
    /// stay resident until its 12h window lapsed).
    // analyze:allow(dead-pub): the operator's session sweep that bounds the table; ROADMAP item 13 calls it on a cadence
    pub fn sweep_expired(&mut self) -> usize {
        let now = self.now;
        let before = self.sessions.len();
        let broker = self.broker.as_ref().map(|b| b.read());
        self.sessions.retain(|_, e| {
            if e.expires.is_some_and(|exp| now >= exp) {
                return false;
            }
            match (&broker, e.serial) {
                (Some(b), Some(serial)) => b.validate_serial(e.user, serial).is_ok(),
                _ => true,
            }
        });
        drop(broker);
        before - self.sessions.len()
    }

    /// Number of live sessions.
    // analyze:allow(dead-pub): resident session count, the table size the sweep bounds (ROADMAP item 13)
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_fedauth::{shared_broker, BrokerPolicy, CredentialBroker, RealmId};

    #[test]
    fn login_whoami_logout() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut auth = PortalAuth::new();
        let t = auth.login(&db, alice).unwrap();
        assert_eq!(auth.whoami(t).unwrap(), alice);
        assert!(auth.logout(t));
        assert_eq!(auth.whoami(t), Err(AuthError::InvalidToken));
        assert!(!auth.logout(t));
    }

    #[test]
    fn unknown_user_rejected() {
        let db = UserDb::new();
        let mut auth = PortalAuth::new();
        assert_eq!(
            auth.login(&db, Uid(999)),
            Err(AuthError::NoSuchUser(Uid(999)))
        );
    }

    #[test]
    fn tokens_are_unique_per_login() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut auth = PortalAuth::new();
        let t1 = auth.login(&db, alice).unwrap();
        let t2 = auth.login(&db, alice).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(auth.live_sessions(), 2);
    }

    #[test]
    fn tokens_are_not_sequential() {
        // The original store minted Token(1), Token(2), ... — an attacker
        // could forge a neighbor's session by decrementing. Material is now
        // drawn from the seeded stream.
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut auth = PortalAuth::new();
        let t1 = auth.login(&db, alice).unwrap();
        let t2 = auth.login(&db, alice).unwrap();
        assert_ne!(t2.0, t1.0 + 1, "sequential tokens are guessable");
        assert!(t1.0 > u32::MAX as u64 || t2.0 > u32::MAX as u64);
        // Guessing near a known token finds nothing.
        assert_eq!(auth.whoami(Token(t1.0 - 1)), Err(AuthError::InvalidToken));
    }

    #[test]
    fn ttl_expires_sessions_on_the_sim_clock() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut auth = PortalAuth::new().with_ttl(SimDuration::from_secs(3600));
        let t = auth.login(&db, alice).unwrap();
        assert_eq!(auth.whoami(t).unwrap(), alice);

        auth.advance_to(SimTime::from_secs(3599));
        assert!(auth.whoami(t).is_ok(), "inside the window");
        auth.advance_to(SimTime::from_secs(3600));
        assert_eq!(auth.whoami(t), Err(AuthError::InvalidToken));

        assert_eq!(auth.live_sessions(), 1, "stale entry still resident");
        assert_eq!(auth.sweep_expired(), 1);
        assert_eq!(auth.live_sessions(), 0);
        assert_eq!(auth.sweep_expired(), 0, "sweep is idempotent");
    }

    #[test]
    fn broker_backed_concurrent_logins_both_stay_valid() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker);
        // Two tabs: the second login must not invalidate the first.
        let t1 = auth.login(&db, alice).unwrap();
        let t2 = auth.login(&db, alice).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(auth.whoami(t1).unwrap(), alice);
        assert_eq!(auth.whoami(t2).unwrap(), alice);
        // Logging one out revokes only that tab's backing credential.
        assert!(auth.logout(t1));
        assert_eq!(auth.whoami(t1), Err(AuthError::InvalidToken));
        assert_eq!(auth.whoami(t2).unwrap(), alice);
    }

    #[test]
    fn federated_tokens_fold_full_material_and_collision_check() {
        // Regression: `Token(signed.material as u64)` truncated the u128
        // bearer material to its low half and skipped the collision check,
        // so a colliding token silently clobbered another live session.
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());

        let t = auth.login(&db, alice).unwrap();
        let material = broker.read().current_token(alice).unwrap().material;
        assert_ne!(t.0, material as u64, "low-half truncation is the old bug");
        assert_ne!(
            t.0,
            (material >> 64) as u64 ^ material as u64,
            "a publicly computable fold would let any bearer-token observer \
             (sister-site validators) hijack the web session"
        );
        assert_ne!(t.0, (material >> 64) as u64, "high-half truncation too");

        // Many federated logins: all tokens distinct, all sessions live
        // (a clobber would orphan earlier entries).
        let tokens: Vec<Token> = (0..500).map(|_| auth.login(&db, alice).unwrap()).collect();
        let distinct: std::collections::BTreeSet<_> = tokens.iter().collect();
        assert_eq!(distinct.len(), tokens.len());
        assert_eq!(auth.live_sessions(), 501);
        for t in &tokens {
            assert_eq!(auth.whoami(*t).unwrap(), alice);
        }
    }

    #[test]
    fn sweep_drops_centrally_revoked_federated_sessions() {
        // Regression: broker-revoked sessions failed whoami but stayed
        // resident in the portal table until their 12h window lapsed.
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let bob = db.create_user("bob").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());
        let _ta = auth.login(&db, alice).unwrap();
        let tb = auth.login(&db, bob).unwrap();
        assert_eq!(auth.live_sessions(), 2);

        broker.write().revoke_user(alice);
        assert_eq!(auth.sweep_expired(), 1, "alice's dead session evicted");
        assert_eq!(auth.live_sessions(), 1);
        assert_eq!(auth.whoami(tb).unwrap(), bob, "bob untouched");
        assert_eq!(auth.sweep_expired(), 0, "sweep is idempotent");
    }

    #[test]
    fn mfa_enrollment_is_enforced_on_next_login() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());

        // Enroll through the portal route while logged in.
        let t = auth.login(&db, alice).unwrap();
        assert!(!broker.read().mfa_challenged(alice));
        let secret = auth.enroll_mfa(t, None).unwrap().secret;
        assert!(
            broker.read().mfa_challenged(alice),
            "portal enrollment is binding"
        );

        // Next login without a code is refused; with the current window
        // code it succeeds.
        assert_eq!(
            auth.login(&db, alice),
            Err(AuthError::Federated(eus_fedauth::CredError::MfaRequired))
        );
        let code = eus_fedauth::realm::mfa_code_at(secret, broker.read().now());
        let t2 = auth.login_mfa(&db, alice, Some(code)).unwrap();
        assert_eq!(auth.whoami(t2).unwrap(), alice);

        // Enrollment requires a live session and a broker.
        assert!(auth.enroll_mfa(Token(123), None).is_err());
        let mut local = PortalAuth::new();
        let lt = local.login(&db, alice).unwrap();
        assert_eq!(local.enroll_mfa(lt, None), Err(AuthError::MfaUnavailable));
    }

    #[test]
    fn mfa_rebinding_requires_stepup_with_the_current_code() {
        // A stolen live session token alone must NOT let an attacker swap
        // in their own authenticator over an enrolled user's factor.
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());

        let t = auth.login(&db, alice).unwrap();
        let secret = auth.enroll_mfa(t, None).unwrap().secret;

        // Rebind attempts against the (still live) session: refused without
        // the current code, refused with a wrong code.
        assert_eq!(
            auth.enroll_mfa(t, None),
            Err(AuthError::Federated(eus_fedauth::CredError::MfaRequired))
        );
        let now = broker.read().now();
        let code = eus_fedauth::realm::mfa_code_at(secret, now);
        let wrong = eus_fedauth::MfaCode(code.0.wrapping_add(3) % 1_000_000);
        assert_eq!(
            auth.enroll_mfa(t, Some(wrong)),
            Err(AuthError::Federated(eus_fedauth::CredError::MfaInvalid))
        );
        // The legitimate owner, holding the current code, can rotate the
        // factor; the old secret stops validating at the next login.
        let secret2 = auth.enroll_mfa(t, Some(code)).unwrap().secret;
        assert_ne!(secret, secret2);
        let now = broker.read().now();
        let stale = eus_fedauth::realm::mfa_code_at(secret, now);
        assert!(auth.login_mfa(&db, alice, Some(stale)).is_err());
        let fresh = eus_fedauth::realm::mfa_code_at(secret2, now);
        assert!(auth.login_mfa(&db, alice, Some(fresh)).is_ok());

        // The step-up judges codes on the *portal's* clock: after the
        // portal advances past the broker's last-seen time, the code for
        // the current portal window rotates the factor (the route syncs the
        // broker clock like login does), and the t=0-era code is dead.
        auth.advance_to(SimTime::from_secs(300));
        let old_window = eus_fedauth::realm::mfa_code_at(secret2, now);
        let current = eus_fedauth::realm::mfa_code_at(secret2, SimTime::from_secs(300));
        assert_ne!(old_window, current);
        assert_eq!(
            auth.enroll_mfa(t, Some(old_window)),
            Err(AuthError::Federated(eus_fedauth::CredError::MfaInvalid))
        );
        assert!(auth.enroll_mfa(t, Some(current)).is_ok());
    }

    #[test]
    fn recovery_codes_login_once_and_unenroll_is_stepup_gated() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());

        let t = auth.login(&db, alice).unwrap();
        let enrollment = auth.enroll_mfa(t, None).unwrap();
        assert_eq!(
            enrollment.recovery.len(),
            eus_fedauth::RECOVERY_CODE_COUNT,
            "enrollment hands out the one-time-shown recovery codes"
        );

        // Lost authenticator: a recovery code logs in where a missing TOTP
        // would refuse — and burns.
        assert_eq!(
            auth.login(&db, alice),
            Err(AuthError::Federated(CredError::MfaRequired))
        );
        let code = enrollment.recovery[0];
        let t2 = auth.login_recovery(&db, alice, code).unwrap();
        assert_eq!(auth.whoami(t2).unwrap(), alice);
        assert_eq!(
            auth.login_recovery(&db, alice, code),
            Err(AuthError::Federated(CredError::MfaInvalid)),
            "a recovery code works exactly once"
        );
        // Unenrolled users get no recovery backdoor.
        let bob = db.create_user("bob").unwrap();
        assert!(auth
            .login_recovery(&db, bob, enrollment.recovery[1])
            .is_err());
        // And the route needs a broker at all.
        let mut local = PortalAuth::new();
        assert_eq!(
            local.login_recovery(&db, alice, code),
            Err(AuthError::MfaUnavailable)
        );

        // Unenroll: refused on the session alone, allowed with the current
        // code; afterwards login is single-factor again and the remaining
        // recovery codes are dead.
        assert_eq!(
            auth.unenroll_mfa(t2, None),
            Err(AuthError::Federated(CredError::MfaRequired))
        );
        let now_code = eus_fedauth::realm::mfa_code_at(enrollment.secret, auth.now);
        auth.unenroll_mfa(t2, Some(now_code)).unwrap();
        assert!(!broker.read().mfa_challenged(alice));
        assert!(auth.login(&db, alice).is_ok());
        assert!(
            auth.login_recovery(&db, alice, enrollment.recovery[2])
                .is_err(),
            "unenrolling voids the remaining codes"
        );
    }

    #[test]
    fn broker_backed_sessions_honor_central_revocation() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = shared_broker(CredentialBroker::new(
            RealmId(1),
            5,
            BrokerPolicy::default(),
        ));
        let mut auth = PortalAuth::new();
        auth.attach_broker(broker.clone());

        let t = auth.login(&db, alice).unwrap();
        assert_eq!(auth.whoami(t).unwrap(), alice);
        // Central incident response: revoke at the broker, not the portal.
        broker.write().revoke_user(alice);
        assert_eq!(auth.whoami(t), Err(AuthError::InvalidToken));
    }
}
