//! Multi-realm trust: the federation half of *Securing HPC using Federated
//! Authentication* at more than one site.
//!
//! PR 1's identity plane was single-realm: any credential whose realm
//! differed from the verifier's was refused with `RealmMismatch`. Real
//! federations are richer — a site *chooses* which sister realms it trusts.
//! [`TrustPolicy`] is that choice (an explicit realm allow-list), and
//! [`FederationDirectory`] holds the per-realm credential planes plus each
//! site's policy, so a token minted by a trusted sister realm validates at
//! the home site — against the *issuer's* CA key and revocation list —
//! while credentials from realms off the allow-list still fail closed
//! (the `CrossRealmSpoof` audit channel stays blocked).

use crate::broker::CredentialBroker;
use crate::ca::{CredError, SignedToken, SshCertificate};
use crate::plane::{PlaneClock, SharedBroker};
use crate::realm::RealmId;
use eus_simcore::SimTime;
use eus_simos::Uid;
use std::collections::BTreeMap;
use std::fmt;

/// A site's explicit realm allow-list: which sister realms' credentials it
/// accepts. The home realm is always trusted; everything else is opt-in
/// (fail closed). An entry may carry an expiry on the simulation clock —
/// the time-boxed collaboration: once `expires_at` passes, the realm's
/// credentials are refused with [`CredError::TrustExpired`] until trust is
/// re-granted (rotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustPolicy {
    home: RealmId,
    /// Allow-listed sister realms; `None` = permanent, `Some(t)` = trusted
    /// strictly before `t`.
    trusted: BTreeMap<RealmId, Option<SimTime>>,
}

impl TrustPolicy {
    /// The PR-1 behavior: trust only the home realm.
    pub fn home_only(home: RealmId) -> Self {
        TrustPolicy {
            home,
            trusted: BTreeMap::new(),
        }
    }

    /// Builder: also trust a sister realm, permanently.
    #[cfg(test)]
    pub(crate) fn with_trusted(mut self, realm: RealmId) -> Self {
        self.trust(realm);
        self
    }

    /// Add a sister realm to the allow-list, permanently (replaces any
    /// time-boxed entry — rotation extends, it never shortens by accident).
    pub fn trust(&mut self, realm: RealmId) {
        if realm != self.home {
            self.trusted.insert(realm, None);
        }
    }

    /// Add a sister realm to the allow-list until `expires_at` (exclusive):
    /// the time-boxed collaboration. Replaces any previous entry for the
    /// realm, so re-granting with a later expiry is the rotation path.
    pub fn trust_until(&mut self, realm: RealmId, expires_at: SimTime) {
        if realm != self.home {
            self.trusted.insert(realm, Some(expires_at));
        }
    }

    /// The policy's home realm.
    pub fn home(&self) -> RealmId {
        self.home
    }

    /// The full trust decision for a credential from `realm` presented at
    /// `now`: `Ok` when allow-listed and unexpired, the precise refusal
    /// otherwise (expired trust is distinguishable from never-granted trust
    /// so operators can tell a lapsed collaboration from an attack).
    pub fn gate(&self, realm: RealmId, now: SimTime) -> Result<(), CredError> {
        if realm == self.home {
            return Ok(());
        }
        match self.trusted.get(&realm) {
            Some(None) => Ok(()),
            Some(Some(expires_at)) if now < *expires_at => Ok(()),
            Some(Some(expires_at)) => Err(CredError::TrustExpired {
                realm,
                expired_at: *expires_at,
            }),
            None => Err(CredError::UntrustedRealm {
                ours: self.home,
                theirs: realm,
            }),
        }
    }

    /// When trust in `realm` lapses: `Some(t)` for a time-boxed entry,
    /// `None` for a permanent entry or a realm not listed at all.
    pub fn trust_expires_at(&self, realm: RealmId) -> Option<SimTime> {
        self.trusted.get(&realm).copied().flatten()
    }

    /// The allow-listed sister realms (home excluded), including entries
    /// whose expiry has already passed.
    pub fn trusted_realms(&self) -> impl Iterator<Item = RealmId> + '_ {
        self.trusted.keys().copied()
    }
}

impl fmt::Display for TrustPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{{", self.home)?;
        for (i, (r, exp)) in self.trusted.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match exp {
                None => write!(f, "{r}")?,
                Some(t) => write!(f, "{r}<{t}")?,
            }
        }
        f.write_str("}")
    }
}

/// One registered realm: its credential plane, the clock that plane
/// publishes (taken from it once, at registration) and the trust policy its
/// site applies. Kept together so a policy without a plane (and a clock to
/// judge time-boxed trust on) cannot be represented.
struct RealmEntry {
    plane: SharedBroker,
    clock: PlaneClock,
    trust: TrustPolicy,
}

/// The federation directory: per-realm credential planes plus each site's
/// trust policy. Validation of a foreign credential is delegated to the
/// *issuing* realm's plane — its CA key verifies the signature and its
/// revocation list is consulted — but only after the verifying site's
/// [`TrustPolicy`] allow-lists the issuer.
#[derive(Default)]
pub struct FederationDirectory {
    realms: BTreeMap<RealmId, RealmEntry>,
}

impl FederationDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a realm's credential plane and its trust policy. Replaces
    /// any previous registration for the realm. Panics if the plane or the
    /// policy was built for a different realm — a mis-registration would
    /// otherwise surface later as a baffling `RealmMismatch` on every
    /// credential the allow-listed realm mints.
    pub fn register(&mut self, realm: RealmId, plane: SharedBroker, trust: TrustPolicy) {
        assert_eq!(trust.home(), realm, "policy home must match the realm");
        let clock = {
            let plane = plane.read();
            assert_eq!(
                plane.realm(),
                realm,
                "plane must be built for the realm it is registered under"
            );
            plane.clock()
        };
        self.realms.insert(
            realm,
            RealmEntry {
                plane,
                clock,
                trust,
            },
        );
    }

    /// The registered realms, in order.
    pub fn realms(&self) -> impl Iterator<Item = RealmId> + '_ {
        self.realms.keys().copied()
    }

    /// A realm's credential plane, if registered.
    pub fn plane(&self, realm: RealmId) -> Option<&SharedBroker> {
        self.realms.get(&realm).map(|e| &e.plane)
    }

    /// A realm's trust policy, if registered.
    pub fn trust_policy(&self, realm: RealmId) -> Option<&TrustPolicy> {
        self.realms.get(&realm).map(|e| &e.trust)
    }

    /// Grant (or rotate) the `site` policy's trust in `realm` after
    /// registration: permanent when `expires_at` is `None`, time-boxed
    /// otherwise. Panics if the site is not registered.
    pub fn trust_realm_until(
        &mut self,
        site: RealmId,
        realm: RealmId,
        expires_at: Option<SimTime>,
    ) {
        let entry = self.realms.get_mut(&site).expect("site must be registered");
        match expires_at {
            Some(t) => entry.trust.trust_until(realm, t),
            None => entry.trust.trust(realm),
        }
    }

    // analyze:hot-path-begin(directory-validate)
    /// `site`'s plane clock, read from the cell the plane publishes — no
    /// guard. `None` for a site nobody registered.
    pub fn now_at(&self, site: RealmId) -> Option<SimTime> {
        self.realms.get(&site).map(|e| e.clock.now())
    }

    /// The policy half of validation, exposed for replica-backed
    /// validators: is a credential from `issuer` acceptable at `site`
    /// *right now*? Fails closed for unregistered sites, realms off the
    /// allow-list, and lapsed time-boxed trust. "Now" is the site's
    /// published plane clock — no guard is taken — and is returned, so the
    /// caller judges the credential itself at the same instant the gate was
    /// judged at.
    pub fn trust_gate(&self, site: RealmId, issuer: RealmId) -> Result<SimTime, CredError> {
        let entry = self
            .realms
            .get(&site)
            .ok_or(CredError::UnknownRealm(site))?;
        let now = entry.clock.now();
        entry.trust.gate(issuer, now)?;
        Ok(now)
    }

    /// The route both validators share: gate on the site's published
    /// clock, then **one** read guard — the issuing plane's — under which
    /// the credential is judged. The issuer is the site itself for a
    /// credential it minted; a sister realm nobody registered fails closed.
    fn validate_at(
        &self,
        site: RealmId,
        issuer: RealmId,
        judge: impl FnOnce(&CredentialBroker) -> Result<Uid, CredError>,
    ) -> Result<Uid, CredError> {
        let entry = self
            .realms
            .get(&site)
            .ok_or(CredError::UnknownRealm(site))?;
        entry.trust.gate(issuer, entry.clock.now())?;
        let plane = if issuer == site {
            &entry.plane
        } else {
            self.plane(issuer).ok_or(CredError::UnknownRealm(issuer))?
        };
        judge(&plane.read())
    }

    /// Validate a bearer token presented at `site`. Home-realm tokens take
    /// the usual path; a trusted sister realm's token is verified by its
    /// issuer (signature under the issuer's CA key, issuer's revocation
    /// list); realms off the allow-list — or realms nobody registered —
    /// fail closed.
    pub fn validate_token_at(&self, site: RealmId, token: &SignedToken) -> Result<Uid, CredError> {
        self.validate_at(site, token.realm, |plane| plane.validate_token(token))
    }

    /// Validate an SSH certificate presented at `site`; same trust rules as
    /// [`validate_token_at`](Self::validate_token_at).
    // analyze:allow(dead-pub): cross-realm SSH-certificate validation, the federated login route for certs
    pub fn validate_cert_at(&self, site: RealmId, cert: &SshCertificate) -> Result<Uid, CredError> {
        self.validate_at(site, cert.realm, |plane| plane.validate_cert(cert))
    }
    // analyze:hot-path-end

    /// Advance every registered plane's clock (the federation runs on one
    /// simulated clock).
    pub fn advance_to(&mut self, t: SimTime) {
        for entry in self.realms.values() {
            entry.plane.write().advance_to(t);
        }
    }
}

impl fmt::Debug for FederationDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederationDirectory")
            .field("realms", &self.realms.keys().collect::<Vec<_>>())
            .field(
                "trust",
                &self.realms.values().map(|e| &e.trust).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerPolicy;
    use crate::plane::shared_broker;
    use eus_simos::UserDb;

    fn federation() -> (UserDb, FederationDirectory, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut dir = FederationDirectory::new();
        // Home (1) trusts sister (2) but not (3).
        dir.register(
            RealmId(1),
            shared_broker(CredentialBroker::new(
                RealmId(1),
                10,
                BrokerPolicy::default(),
            )),
            TrustPolicy::home_only(RealmId(1)).with_trusted(RealmId(2)),
        );
        dir.register(
            RealmId(2),
            shared_broker(CredentialBroker::new(
                RealmId(2),
                20,
                BrokerPolicy::default(),
            )),
            TrustPolicy::home_only(RealmId(2)),
        );
        dir.register(
            RealmId(3),
            shared_broker(CredentialBroker::new(
                RealmId(3),
                30,
                BrokerPolicy::default(),
            )),
            TrustPolicy::home_only(RealmId(3)),
        );
        (db, dir, alice)
    }

    #[test]
    fn trusted_sister_realm_token_validates_at_home() {
        let (db, dir, alice) = federation();
        let sister = dir.plane(RealmId(2)).unwrap().clone();
        let token = sister.write().login(&db, alice, None).unwrap();
        assert_eq!(dir.validate_token_at(RealmId(1), &token).unwrap(), alice);
        // Trust is directional: realm 2 does not trust realm 1 back.
        let home = dir.plane(RealmId(1)).unwrap().clone();
        let home_token = home.write().login(&db, alice, None).unwrap();
        assert_eq!(
            dir.validate_token_at(RealmId(2), &home_token),
            Err(CredError::UntrustedRealm {
                ours: RealmId(2),
                theirs: RealmId(1),
            })
        );
    }

    #[test]
    fn untrusted_and_unknown_realms_fail_closed() {
        let (db, dir, alice) = federation();
        // Registered but off the allow-list.
        let r3 = dir.plane(RealmId(3)).unwrap().clone();
        let t3 = r3.write().login(&db, alice, None).unwrap();
        assert_eq!(
            dir.validate_token_at(RealmId(1), &t3),
            Err(CredError::UntrustedRealm {
                ours: RealmId(1),
                theirs: RealmId(3),
            })
        );
        // A realm nobody registered.
        let mut rogue = CredentialBroker::new(RealmId(99), 9, BrokerPolicy::default());
        let forged = rogue.login(&db, alice, None).unwrap();
        assert!(dir.validate_token_at(RealmId(1), &forged).is_err());
    }

    #[test]
    fn sister_realm_revocation_is_honored_at_home() {
        let (db, dir, alice) = federation();
        let sister = dir.plane(RealmId(2)).unwrap().clone();
        let token = sister.write().login(&db, alice, None).unwrap();
        assert!(dir.validate_token_at(RealmId(1), &token).is_ok());
        // Incident response at the *issuing* site kills the credential
        // everywhere in the federation.
        sister.write().revoke_user(alice);
        assert_eq!(
            dir.validate_token_at(RealmId(1), &token),
            Err(CredError::Revoked(token.serial))
        );
    }

    #[test]
    fn trusted_realm_cannot_forge_home_tokens() {
        // Trusting realm 2 means accepting tokens realm 2 *mints under its
        // own key* — not letting realm 2 material masquerade as realm 1.
        let (db, dir, alice) = federation();
        let sister = dir.plane(RealmId(2)).unwrap().clone();
        let mut forged = sister.write().login(&db, alice, None).unwrap();
        forged.realm = RealmId(1);
        assert_eq!(
            dir.validate_token_at(RealmId(1), &forged),
            Err(CredError::BadSignature),
            "re-stamped realm must break the issuer signature"
        );
    }

    #[test]
    fn time_boxed_trust_expires_closed_and_rotates() {
        use eus_simcore::SimDuration;
        let (db, mut dir, alice) = federation();
        let horizon = SimTime::from_secs(3600);
        // Re-grant realm 3 as a time-boxed collaboration at the home site.
        dir.trust_realm_until(RealmId(1), RealmId(3), Some(horizon));
        let r3 = dir.plane(RealmId(3)).unwrap().clone();
        let token = r3.write().login(&db, alice, None).unwrap();
        assert_eq!(dir.validate_token_at(RealmId(1), &token).unwrap(), alice);

        // The instant the box closes, the same token fails closed — with an
        // error naming the lapsed trust, not a generic refusal.
        dir.advance_to(horizon);
        assert_eq!(
            dir.validate_token_at(RealmId(1), &token),
            Err(CredError::TrustExpired {
                realm: RealmId(3),
                expired_at: horizon,
            })
        );

        // Rotation: re-granting with a later expiry restores acceptance.
        dir.trust_realm_until(
            RealmId(1),
            RealmId(3),
            Some(horizon + SimDuration::from_secs(3600)),
        );
        assert_eq!(dir.validate_token_at(RealmId(1), &token).unwrap(), alice);
        // And a permanent upgrade never lapses.
        dir.trust_realm_until(RealmId(1), RealmId(3), None);
        assert_eq!(
            dir.trust_policy(RealmId(1))
                .unwrap()
                .trust_expires_at(RealmId(3)),
            None
        );
    }

    #[test]
    fn certs_follow_the_same_trust_rules() {
        let (db, dir, alice) = federation();
        let sister = dir.plane(RealmId(2)).unwrap().clone();
        sister.write().login(&db, alice, None).unwrap();
        let cert = sister.read().current_cert(alice).unwrap();
        assert_eq!(dir.validate_cert_at(RealmId(1), &cert).unwrap(), alice);
        let r3 = dir.plane(RealmId(3)).unwrap().clone();
        r3.write().login(&db, alice, None).unwrap();
        let cert3 = r3.read().current_cert(alice).unwrap();
        assert!(matches!(
            dir.validate_cert_at(RealmId(1), &cert3),
            Err(CredError::UntrustedRealm { .. })
        ));
    }
}
