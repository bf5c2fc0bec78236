//! Multi-realm trust: the federation half of *Securing HPC using Federated
//! Authentication* at more than one site.
//!
//! A single-realm identity plane refuses any credential whose realm differs
//! from the verifier's with `RealmMismatch`. Real federations are richer — a site *chooses* which sister realms it trusts.
//! [`TrustPolicy`] is that choice: an explicit realm allow-list, judged
//! before any credential is looked at. A token minted by a trusted sister
//! realm then validates at the home site against the home site's local
//! replica of the issuer's revocation list (`eus-revsync`), while
//! credentials from realms off the allow-list fail closed (the
//! `CrossRealmSpoof` audit channel stays blocked).

use crate::ca::CredError;
use crate::realm::RealmId;
use eus_simcore::SimTime;
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

    /// The full trust decision for a credential from `realm` presented at
    /// `now`: `Ok` when allow-listed and unexpired, the precise refusal
    /// otherwise (expired trust is distinguishable from never-granted trust
    /// so operators can tell a lapsed collaboration from an attack).
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simcore::SimDuration;

    #[test]
    fn gate_is_directional_fails_closed_and_time_boxes_at_the_instant() {
        let (home, sister, other) = (RealmId(1), RealmId(2), RealmId(3));
        let t0 = SimTime::from_secs(100);
        let mut policy = TrustPolicy::home_only(home).with_trusted(sister);
        assert_eq!(
            policy.gate(home, t0),
            Ok(()),
            "the home realm always passes"
        );
        assert_eq!(policy.gate(sister, t0), Ok(()));
        // Trust is directional: the sister's own policy does not trust home.
        assert_eq!(
            TrustPolicy::home_only(sister).gate(home, t0),
            Err(CredError::UntrustedRealm {
                ours: sister,
                theirs: home,
            })
        );
        // Off the allow-list fails closed.
        assert_eq!(
            policy.gate(other, t0),
            Err(CredError::UntrustedRealm {
                ours: home,
                theirs: other,
            })
        );

        // A time box is open strictly before its end and names the lapse
        // from the end instant on.
        let horizon = SimTime::from_secs(3600);
        policy.trust_until(other, horizon);
        assert_eq!(
            policy.gate(other, horizon - SimDuration::from_micros(1)),
            Ok(())
        );
        let lapsed = Err(CredError::TrustExpired {
            realm: other,
            expired_at: horizon,
        });
        assert_eq!(policy.gate(other, horizon), lapsed);
        assert_eq!(policy.trust_expires_at(other), Some(horizon));

        // Rotation: a later expiry reopens the box.
        let later = horizon + SimDuration::from_secs(3600);
        policy.trust_until(other, later);
        assert_eq!(policy.gate(other, horizon), Ok(()));
        assert!(policy.gate(other, later).is_err());
        // A permanent upgrade never lapses, and trusting home is a no-op.
        policy.trust(other);
        assert_eq!(policy.trust_expires_at(other), None);
        assert_eq!(policy.gate(other, SimTime::from_secs(1 << 40)), Ok(()));
        policy.trust_until(home, t0);
        assert_eq!(policy.trusted_realms().collect::<Vec<_>>(), [sister, other]);
        assert_eq!(policy.to_string(), "realm1→{realm2,realm3}");
    }
}
