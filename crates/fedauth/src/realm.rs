//! Realms and identity assertion: the federation half of the companion
//! paper. Each participating site is a *realm*; its identity provider (IdP)
//! authenticates local users — optionally requiring a second factor — and
//! emits a realm-stamped assertion the [`crate::CertificateAuthority`]
//! exchanges for short-lived credentials.

use crate::ca::CredError;
use eus_simcore::{SimRng, SimTime};
use eus_simos::{Uid, UserDb};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A federation realm (one per participating site / identity domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RealmId(pub u32);

impl fmt::Display for RealmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "realm{}", self.0)
    }
}

/// An enrolled second-factor secret (the simulated TOTP seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfaSecret(pub u64);

/// A one-time code derived from a secret and a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfaCode(pub u32);

/// A single-use MFA recovery code, issued at enrollment and burned on use
/// (the "print these and keep them in a drawer" codes real portals hand
/// out for the lost-authenticator day).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecoveryCode(pub u64);

/// How many recovery codes each enrollment issues.
pub const RECOVERY_CODE_COUNT: usize = 8;

/// Everything a successful MFA enrollment hands back: the shared secret
/// (the QR-code moment) and the single-use recovery codes, both shown
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MfaEnrollment {
    /// The TOTP seed.
    pub secret: MfaSecret,
    /// Single-use recovery codes; each works once, in any order.
    pub recovery: Vec<RecoveryCode>,
}

/// Width of the one-time-code window.
const MFA_WINDOW_US: u64 = 30_000_000;

/// Derive the valid code for a secret in a given window (TOTP-shaped: a
/// keyed mix of the secret and the 30-second window counter).
pub fn mfa_code_for_window(secret: MfaSecret, window: u64) -> MfaCode {
    let z = crate::splitmix64(secret.0 ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    MfaCode((z % 1_000_000) as u32)
}

/// Derive the valid code for a secret at an instant.
pub fn mfa_code_at(secret: MfaSecret, now: SimTime) -> MfaCode {
    mfa_code_for_window(secret, now.as_micros() / MFA_WINDOW_US)
}

/// Does `presented` match the code for the window containing `now`, or for
/// an adjacent window (±1)? Real TOTP validators accept one step of clock
/// skew so a code read just before a window boundary still works when it is
/// typed just after the boundary.
fn mfa_code_matches(secret: MfaSecret, presented: MfaCode, now: SimTime) -> bool {
    let window = now.as_micros() / MFA_WINDOW_US;
    let lo = window.saturating_sub(1);
    (lo..=window + 1).any(|w| presented == mfa_code_for_window(secret, w))
}

/// A successful identity assertion: "this realm vouches that `user` proved
/// who they are at `asserted_at`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityAssertion {
    /// The asserting realm.
    pub realm: RealmId,
    /// The asserted local identity.
    pub user: Uid,
    /// When the assertion was made.
    pub asserted_at: SimTime,
    /// Whether a second factor was verified.
    pub mfa_verified: bool,
}

/// A realm's identity provider.
#[derive(Debug, Clone)]
pub struct IdentityProvider {
    /// The realm this IdP speaks for.
    pub realm: RealmId,
    /// Whether enrolled users must present a one-time code at login.
    pub require_mfa: bool,
    enrolled: BTreeMap<Uid, MfaSecret>,
    /// Users whose enrollment is individually binding (portal self-service
    /// opt-in): challenged even when the realm policy does not require MFA.
    enforced: BTreeSet<Uid>,
    /// Unburned recovery codes per user (issued at enrollment, single-use).
    recovery: BTreeMap<Uid, BTreeSet<u64>>,
    rng: SimRng,
}

impl IdentityProvider {
    /// An IdP for `realm` with a seeded secret stream.
    pub fn new(realm: RealmId, seed: u64) -> Self {
        IdentityProvider {
            realm,
            require_mfa: false,
            enrolled: BTreeMap::new(),
            enforced: BTreeSet::new(),
            recovery: BTreeMap::new(),
            rng: SimRng::seed_from_u64(seed ^ 0xFEDA_0001),
        }
    }

    /// Require a second factor from enrolled users.
    pub fn with_mfa_required(mut self) -> Self {
        self.require_mfa = true;
        self
    }

    /// Enroll a user's second factor; returns the shared secret. The factor
    /// is challenged only when the realm policy requires MFA — see
    /// [`enroll_mfa_enforced`](Self::enroll_mfa_enforced) for the binding
    /// self-service opt-in.
    pub fn enroll_mfa(&mut self, user: Uid) -> MfaSecret {
        let secret = MfaSecret(self.rng.range_u64(1, u64::MAX));
        self.enrolled.insert(user, secret);
        secret
    }

    /// Enroll a user's second factor *and* make it binding for that user:
    /// from the next login on, this user is challenged even if the realm
    /// policy does not require MFA. This is the portal's `enroll_mfa`
    /// self-service flow.
    pub fn enroll_mfa_enforced(&mut self, user: Uid) -> MfaSecret {
        let secret = self.enroll_mfa(user);
        self.enforced.insert(user);
        secret
    }

    /// Binding enrollment with step-up: a user who *already holds* a
    /// second-factor secret — enforced or not — must present a current
    /// one-time code before the secret is rebound (otherwise one stolen
    /// session token would let an attacker swap in their own authenticator,
    /// locking the owner out and downgrading the second factor to
    /// single-token security). First-time enrollment rides on the
    /// authenticated session alone, as real portals' security pages do.
    ///
    /// Issues a fresh set of [`RECOVERY_CODE_COUNT`] single-use recovery
    /// codes; any codes from a previous enrollment are voided.
    pub fn enroll_mfa_stepup(
        &mut self,
        user: Uid,
        mfa: Option<MfaCode>,
        now: SimTime,
    ) -> Result<MfaEnrollment, CredError> {
        if let Some(secret) = self.enrolled.get(&user).copied() {
            let presented = mfa.ok_or(CredError::MfaRequired)?;
            if !mfa_code_matches(secret, presented, now) {
                return Err(CredError::MfaInvalid);
            }
        }
        let secret = self.enroll_mfa_enforced(user);
        let recovery = self.mint_recovery_codes(user);
        Ok(MfaEnrollment { secret, recovery })
    }

    /// Mint a fresh recovery-code set for a user, voiding any previous set.
    fn mint_recovery_codes(&mut self, user: Uid) -> Vec<RecoveryCode> {
        let mut set = BTreeSet::new();
        while set.len() < RECOVERY_CODE_COUNT {
            set.insert(self.rng.range_u64(1, u64::MAX));
        }
        let codes: Vec<RecoveryCode> = set.iter().map(|&c| RecoveryCode(c)).collect();
        self.recovery.insert(user, set);
        codes
    }

    /// Burn a recovery code: true exactly once per issued code. A burned,
    /// foreign, or never-issued code returns false (and consumes nothing).
    pub fn consume_recovery(&mut self, user: Uid, code: RecoveryCode) -> bool {
        self.recovery
            .get_mut(&user)
            .is_some_and(|set| set.remove(&code.0))
    }

    /// Unburned recovery codes remaining for a user.
    #[cfg(test)]
    fn recovery_codes_left(&self, user: Uid) -> usize {
        self.recovery.get(&user).map_or(0, BTreeSet::len)
    }

    /// Remove a user's second factor. Step-up-gated exactly like rebinding:
    /// an enrolled user must present a current one-time code, so a stolen
    /// session token alone cannot strip the account down to single-factor.
    /// Unenrolling voids the remaining recovery codes. A no-op (Ok) for
    /// users with no enrolled factor.
    pub fn unenroll_mfa(
        &mut self,
        user: Uid,
        mfa: Option<MfaCode>,
        now: SimTime,
    ) -> Result<(), CredError> {
        let Some(secret) = self.enrolled.get(&user).copied() else {
            return Ok(());
        };
        let presented = mfa.ok_or(CredError::MfaRequired)?;
        if !mfa_code_matches(secret, presented, now) {
            return Err(CredError::MfaInvalid);
        }
        self.enrolled.remove(&user);
        self.enforced.remove(&user);
        self.recovery.remove(&user);
        Ok(())
    }

    /// Whether the user has an enrolled second factor.
    pub fn is_enrolled(&self, user: Uid) -> bool {
        self.enrolled.contains_key(&user)
    }

    /// Whether this user will be challenged at the next login (realm policy
    /// or binding self-enrollment).
    pub fn is_challenged(&self, user: Uid) -> bool {
        self.is_enrolled(user) && (self.require_mfa || self.enforced.contains(&user))
    }

    /// The current window code for an enrolled user — the simulation's
    /// stand-in for the user reading their authenticator out of band.
    pub fn current_code(&self, user: Uid, now: SimTime) -> Option<MfaCode> {
        self.enrolled.get(&user).map(|s| mfa_code_at(*s, now))
    }

    /// Authenticate `user` against the account database (site SSO assumed,
    /// as in `eus-portal`) and the MFA policy, emitting an assertion.
    pub fn assert_identity(
        &self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
        now: SimTime,
    ) -> Result<IdentityAssertion, CredError> {
        if db.user(user).is_none() {
            return Err(CredError::UnknownUser(user));
        }
        let mfa_verified = match (self.is_challenged(user), self.enrolled.get(&user)) {
            (true, Some(secret)) => {
                let presented = mfa.ok_or(CredError::MfaRequired)?;
                // ±1 window of skew, the way real TOTP validators do: a code
                // read at second 29 still works when presented at second 30.
                if !mfa_code_matches(*secret, presented, now) {
                    return Err(CredError::MfaInvalid);
                }
                true
            }
            // MFA not required for this user, or required but the user is
            // not yet enrolled (enrollment happens at first credential
            // issuance on the real system; unenrolled users authenticate
            // single-factor).
            _ => false,
        };
        Ok(IdentityAssertion {
            realm: self.realm,
            user,
            asserted_at: now,
            mfa_verified,
        })
    }

    /// Authenticate with a single-use recovery code in place of the window
    /// code (the lost-authenticator path). The code is burned on success;
    /// a wrong or already-burned code is [`CredError::MfaInvalid`]. Users
    /// with no enrolled factor have no recovery codes and always fail —
    /// recovery is strictly a downgrade path for an existing enrollment,
    /// never a login bypass.
    pub fn assert_identity_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
        now: SimTime,
    ) -> Result<IdentityAssertion, CredError> {
        if db.user(user).is_none() {
            return Err(CredError::UnknownUser(user));
        }
        if !self.is_enrolled(user) {
            return Err(CredError::NoCredential(user));
        }
        if !self.consume_recovery(user, code) {
            return Err(CredError::MfaInvalid);
        }
        Ok(IdentityAssertion {
            realm: self.realm,
            user,
            asserted_at: now,
            mfa_verified: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simcore::SimDuration;

    fn db_with_alice() -> (UserDb, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        (db, alice)
    }

    #[test]
    fn asserts_known_users_only() {
        let (db, alice) = db_with_alice();
        let idp = IdentityProvider::new(RealmId(1), 7);
        let a = idp
            .assert_identity(&db, alice, None, SimTime::ZERO)
            .unwrap();
        assert_eq!(a.user, alice);
        assert_eq!(a.realm, RealmId(1));
        assert!(!a.mfa_verified);
        assert_eq!(
            idp.assert_identity(&db, Uid(999), None, SimTime::ZERO),
            Err(CredError::UnknownUser(Uid(999)))
        );
    }

    #[test]
    fn mfa_gate_requires_the_window_code() {
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7).with_mfa_required();
        let secret = idp.enroll_mfa(alice);
        let now = SimTime::from_secs(45);

        assert_eq!(
            idp.assert_identity(&db, alice, None, now),
            Err(CredError::MfaRequired)
        );
        let wrong = MfaCode(mfa_code_at(secret, now).0.wrapping_add(1) % 1_000_000);
        assert_eq!(
            idp.assert_identity(&db, alice, Some(wrong), now),
            Err(CredError::MfaInvalid)
        );
        let ok = idp
            .assert_identity(&db, alice, Some(mfa_code_at(secret, now)), now)
            .unwrap();
        assert!(ok.mfa_verified);
    }

    #[test]
    fn window_boundary_accepts_one_step_of_skew() {
        // Regression: a code read at second 29 and presented at second 30
        // (the next window) used to be refused outright.
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7).with_mfa_required();
        let secret = idp.enroll_mfa(alice);

        let read_at = SimTime::from_secs(29);
        let presented_at = SimTime::from_secs(30);
        let code = mfa_code_at(secret, read_at);
        let ok = idp
            .assert_identity(&db, alice, Some(code), presented_at)
            .unwrap();
        assert!(ok.mfa_verified, "±1 window skew must be accepted");

        // The skew also runs the other way: a code from the *next* window
        // presented just before the boundary (fast client clock).
        let early = mfa_code_at(secret, SimTime::from_secs(31));
        assert!(idp
            .assert_identity(&db, alice, Some(early), SimTime::from_secs(29))
            .is_ok());

        // Two windows back is outside the skew allowance.
        let stale = mfa_code_at(secret, SimTime::ZERO);
        assert_ne!(stale, mfa_code_at(secret, SimTime::from_secs(60)));
        assert_eq!(
            idp.assert_identity(&db, alice, Some(stale), SimTime::from_secs(65)),
            Err(CredError::MfaInvalid),
            "codes older than one window stay dead"
        );
    }

    #[test]
    fn self_enrollment_is_binding_without_realm_policy() {
        // The portal's enroll_mfa flow: realm policy does NOT require MFA,
        // but a user who opted in is challenged from the next login on.
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7);
        assert!(!idp.require_mfa);
        let secret = idp.enroll_mfa_enforced(alice);
        assert!(idp.is_challenged(alice));

        let now = SimTime::from_secs(10);
        assert_eq!(
            idp.assert_identity(&db, alice, None, now),
            Err(CredError::MfaRequired)
        );
        let ok = idp
            .assert_identity(&db, alice, Some(mfa_code_at(secret, now)), now)
            .unwrap();
        assert!(ok.mfa_verified);

        // Plain (policy-gated) enrollment stays non-binding when the realm
        // does not require MFA.
        let mut idp2 = IdentityProvider::new(RealmId(1), 8);
        idp2.enroll_mfa(alice);
        assert!(!idp2.is_challenged(alice));
        assert!(idp2.assert_identity(&db, alice, None, now).is_ok());
    }

    #[test]
    fn rebinding_any_enrolled_secret_requires_stepup() {
        // Even a plain (policy-gated, unenforced) secret must be proven
        // before it can be replaced: a stolen session alone cannot swap in
        // the thief's authenticator over any existing factor.
        let (_db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7);
        let secret = idp.enroll_mfa(alice);
        let now = SimTime::from_secs(40);
        assert_eq!(
            idp.enroll_mfa_stepup(alice, None, now),
            Err(CredError::MfaRequired)
        );
        let rotated = idp
            .enroll_mfa_stepup(alice, Some(mfa_code_at(secret, now)), now)
            .unwrap();
        assert_ne!(rotated.secret, secret);
        assert!(idp.is_challenged(alice), "rotation is binding");
        assert_eq!(rotated.recovery.len(), RECOVERY_CODE_COUNT);
    }

    #[test]
    fn recovery_codes_burn_exactly_once() {
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7);
        let enr = idp.enroll_mfa_stepup(alice, None, SimTime::ZERO).unwrap();
        assert_eq!(idp.recovery_codes_left(alice), RECOVERY_CODE_COUNT);
        let code = enr.recovery[0];

        let now = SimTime::from_secs(90);
        let ok = idp.assert_identity_recovery(&db, alice, code, now).unwrap();
        assert!(ok.mfa_verified, "recovery counts as a verified factor");
        assert_eq!(idp.recovery_codes_left(alice), RECOVERY_CODE_COUNT - 1);
        // Second use of the same code is dead.
        assert_eq!(
            idp.assert_identity_recovery(&db, alice, code, now),
            Err(CredError::MfaInvalid)
        );
        // A made-up code never works.
        assert_eq!(
            idp.assert_identity_recovery(&db, alice, RecoveryCode(42), now),
            Err(CredError::MfaInvalid)
        );
        // Re-enrollment voids the old set and issues a fresh one.
        let now_code = mfa_code_at(enr.secret, now);
        let enr2 = idp.enroll_mfa_stepup(alice, Some(now_code), now).unwrap();
        assert_eq!(idp.recovery_codes_left(alice), RECOVERY_CODE_COUNT);
        assert_eq!(
            idp.assert_identity_recovery(&db, alice, enr.recovery[1], now),
            Err(CredError::MfaInvalid),
            "old-set codes are voided by re-enrollment"
        );
        assert!(idp
            .assert_identity_recovery(&db, alice, enr2.recovery[0], now)
            .is_ok());
    }

    #[test]
    fn recovery_is_not_a_bypass_for_unenrolled_users() {
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7);
        assert_eq!(
            idp.assert_identity_recovery(&db, alice, RecoveryCode(1), SimTime::ZERO),
            Err(CredError::NoCredential(alice))
        );
    }

    #[test]
    fn unenroll_requires_stepup_and_voids_recovery() {
        let (db, alice) = db_with_alice();
        let mut idp = IdentityProvider::new(RealmId(1), 7);
        let enr = idp.enroll_mfa_stepup(alice, None, SimTime::ZERO).unwrap();
        let now = SimTime::from_secs(40);

        // A stolen session alone cannot strip the factor.
        assert_eq!(
            idp.unenroll_mfa(alice, None, now),
            Err(CredError::MfaRequired)
        );
        let wrong = MfaCode(mfa_code_at(enr.secret, now).0.wrapping_add(1) % 1_000_000);
        assert_eq!(
            idp.unenroll_mfa(alice, Some(wrong), now),
            Err(CredError::MfaInvalid)
        );

        // With the current code the factor comes off, recovery codes die,
        // and the next login is single-factor again.
        idp.unenroll_mfa(alice, Some(mfa_code_at(enr.secret, now)), now)
            .unwrap();
        assert!(!idp.is_enrolled(alice));
        assert!(!idp.is_challenged(alice));
        assert_eq!(idp.recovery_codes_left(alice), 0);
        assert!(idp.assert_identity(&db, alice, None, now).is_ok());
        // Idempotent once unenrolled.
        assert_eq!(idp.unenroll_mfa(alice, None, now), Ok(()));
    }

    #[test]
    fn codes_rotate_with_the_window() {
        let secret = MfaSecret(99);
        let a = mfa_code_at(secret, SimTime::ZERO);
        let b = mfa_code_at(secret, SimTime::ZERO + SimDuration::from_secs(29));
        let c = mfa_code_at(secret, SimTime::ZERO + SimDuration::from_secs(31));
        assert_eq!(a, b, "same 30s window");
        assert_ne!(a, c, "next window rotates the code");
    }
}
