//! The certificate authority: exchanges identity assertions for short-lived,
//! signed credentials — bearer tokens (portal, job submission) and SSH
//! certificates (interactive access) — with validity windows on the
//! simulation clock and unguessable material from a seeded RNG stream.
//!
//! Verification is the hot path: a keyed-MAC recomputation plus two clock
//! comparisons, O(1) and allocation-free.

use crate::realm::{IdentityAssertion, RealmId};
use crate::revocation::{SerialSet, SerialSetKey};
use eus_simcore::{SimDuration, SimRng, SimTime};
use eus_simos::Uid;
use std::fmt;

/// Monotonic credential serial, unique per CA; the revocation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CredSerial(pub u64);

impl fmt::Display for CredSerial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serial#{}", self.0)
    }
}

/// Why a credential failed verification or issuance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CredError {
    /// Unknown user at assertion time.
    UnknownUser(Uid),
    /// MFA policy demands a one-time code.
    MfaRequired,
    /// Presented one-time code is wrong for the current window.
    MfaInvalid,
    /// Credential presented before its validity window opens.
    NotYetValid {
        /// Window start.
        from: SimTime,
    },
    /// Credential presented after its validity window closed.
    Expired {
        /// Window end.
        until: SimTime,
    },
    /// Credential was minted for a different realm than the verifier's.
    RealmMismatch {
        /// The verifier's realm.
        ours: RealmId,
        /// The credential's realm.
        theirs: RealmId,
    },
    /// Credential was minted by a realm the verifying site's trust policy
    /// does not allow-list (federation: known concept, refused realm).
    UntrustedRealm {
        /// The verifying site's realm.
        ours: RealmId,
        /// The credential's realm.
        theirs: RealmId,
    },
    /// No broker is registered for this realm in the federation directory.
    UnknownRealm(RealmId),
    /// The verifying site *was* allow-listed for this realm, but the trust
    /// entry's expiry has passed (time-boxed collaborations fail closed).
    TrustExpired {
        /// The credential's realm.
        realm: RealmId,
        /// When the trust entry lapsed.
        expired_at: SimTime,
    },
    /// The local CRL replica for this realm is older than the verifying
    /// site's staleness budget: without fresh-enough revocation data the
    /// site refuses to judge the credential (bounded-staleness fail-closed,
    /// `eus-revsync`).
    StaleReplica {
        /// The credential's realm (whose replica is stale).
        realm: RealmId,
        /// How far behind the replica is.
        lag: SimDuration,
    },
    /// Signature does not verify under this CA's key.
    BadSignature,
    /// Serial appears on the revocation list.
    Revoked(CredSerial),
    /// No live credential of the required kind for this user.
    NoCredential(Uid),
    /// The identity provider or certificate authority behind this plane is
    /// temporarily down (fault injection / real outage): issuance is
    /// refused, but already-minted credentials keep validating.
    Unavailable,
}

impl fmt::Display for CredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CredError::UnknownUser(u) => write!(f, "no such user {u}"),
            CredError::MfaRequired => f.write_str("second factor required"),
            CredError::MfaInvalid => f.write_str("one-time code invalid"),
            CredError::NotYetValid { from } => write!(f, "credential not valid before {from}"),
            CredError::Expired { until } => write!(f, "credential expired at {until}"),
            CredError::RealmMismatch { ours, theirs } => {
                write!(f, "credential realm {theirs} not trusted by {ours}")
            }
            CredError::UntrustedRealm { ours, theirs } => {
                write!(f, "realm {theirs} not on {ours}'s trust allow-list")
            }
            CredError::UnknownRealm(r) => write!(f, "no broker registered for {r}"),
            CredError::TrustExpired { realm, expired_at } => {
                write!(f, "trust in {realm} expired at {expired_at}")
            }
            CredError::StaleReplica { realm, lag } => {
                write!(f, "CRL replica for {realm} is {lag} stale (over budget)")
            }
            CredError::BadSignature => f.write_str("signature verification failed"),
            CredError::Revoked(s) => write!(f, "credential {s} is revoked"),
            CredError::NoCredential(u) => write!(f, "no live credential for {u}"),
            CredError::Unavailable => {
                f.write_str("identity provider / certificate authority temporarily unavailable")
            }
        }
    }
}

impl std::error::Error for CredError {}

/// A signed bearer token: the portal session / job-submission credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedToken {
    /// Revocation key.
    pub serial: CredSerial,
    /// Unguessable bearer material.
    pub material: u128,
    /// Subject.
    pub user: Uid,
    /// Issuing realm.
    pub realm: RealmId,
    /// Window start.
    pub issued: SimTime,
    /// Window end (exclusive).
    pub expires: SimTime,
    /// Keyed MAC over every field above.
    pub sig: u64,
}

/// A short-lived SSH certificate: replaces long-lived authorized keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SshCertificate {
    /// Revocation key.
    pub serial: CredSerial,
    /// Subject (the certificate principal).
    pub user: Uid,
    /// Issuing realm.
    pub realm: RealmId,
    /// Window start.
    pub issued: SimTime,
    /// Window end (exclusive).
    pub expires: SimTime,
    /// Keyed MAC over every field above.
    pub sig: u64,
}

/// splitmix64-style keyed MAC: enough to model "forgery requires the CA
/// key" in a deterministic simulation (not a real cryptographic MAC).
fn mac64(key: u64, words: &[u64]) -> u64 {
    let mut acc = key ^ 0x1B87_3593_44ED_75DB;
    for &w in words {
        acc ^= w;
        acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
        acc = (acc ^ (acc >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc = (acc ^ (acc >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= acc >> 31;
    }
    acc
}

fn token_words(t: &SignedToken) -> [u64; 7] {
    [
        t.serial.0,
        t.material as u64,
        (t.material >> 64) as u64,
        t.user.0 as u64,
        t.realm.0 as u64,
        t.issued.as_micros(),
        t.expires.as_micros(),
    ]
}

fn cert_words(c: &SshCertificate) -> [u64; 5] {
    [
        c.serial.0,
        c.user.0 as u64,
        c.realm.0 as u64,
        c.issued.as_micros(),
        c.expires.as_micros(),
    ]
}

/// The per-realm certificate authority.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// The realm whose credentials this CA signs.
    pub realm: RealmId,
    /// Token lifetime.
    pub token_ttl: SimDuration,
    /// SSH certificate lifetime.
    pub cert_ttl: SimDuration,
    key: u64,
    rng: SimRng,
    next_serial: u64,
}

impl CertificateAuthority {
    /// A CA for `realm`: the signing key and token material derive from
    /// `seed`, so identical seeds reproduce identical credential streams.
    pub fn new(realm: RealmId, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xFEDA_00CA);
        let key = rng.range_u64(1, u64::MAX);
        CertificateAuthority {
            realm,
            token_ttl: SimDuration::from_secs(12 * 3600),
            cert_ttl: SimDuration::from_secs(3600),
            key,
            rng,
            next_serial: 0,
        }
    }

    /// Override the token lifetime.
    pub fn with_token_ttl(mut self, ttl: SimDuration) -> Self {
        self.token_ttl = ttl;
        self
    }

    /// Override the certificate lifetime.
    pub fn with_cert_ttl(mut self, ttl: SimDuration) -> Self {
        self.cert_ttl = ttl;
        self
    }

    /// The next serial of the plain stream 1, 2, 3, ….
    fn next_serial(&mut self) -> CredSerial {
        self.next_serial += 1;
        CredSerial(self.next_serial)
    }

    /// The key this CA's revocation state hashes serials under: derived
    /// from the signing key, so it is seeded, secret, and known to exactly
    /// the parties that can already verify this CA's signatures — the
    /// issuer's [`crate::RevocationList`] and any [`RealmVerifier`] export.
    pub fn serial_set_key(&self) -> SerialSetKey {
        SerialSetKey::from_secret(self.key)
    }

    /// Mint a bearer token for an asserted identity.
    pub fn mint_token(&mut self, assertion: &IdentityAssertion, now: SimTime) -> SignedToken {
        let serial = self.next_serial();
        let material = (self.rng.range_u64(1, u64::MAX) as u128) << 64
            | self.rng.range_u64(1, u64::MAX) as u128;
        let mut t = SignedToken {
            serial,
            material,
            user: assertion.user,
            realm: self.realm,
            issued: now,
            expires: now + self.token_ttl,
            sig: 0,
        };
        t.sig = mac64(self.key, &token_words(&t));
        t
    }

    /// Mint an SSH certificate for an asserted identity.
    pub fn mint_cert(&mut self, assertion: &IdentityAssertion, now: SimTime) -> SshCertificate {
        let serial = self.next_serial();
        let mut c = SshCertificate {
            serial,
            user: assertion.user,
            realm: self.realm,
            issued: now,
            expires: now + self.cert_ttl,
            sig: 0,
        };
        c.sig = mac64(self.key, &cert_words(&c));
        c
    }

    /// Verify a token's realm, signature, and validity window at `now`.
    pub fn verify_token(&self, t: &SignedToken, now: SimTime) -> Result<(), CredError> {
        if t.realm != self.realm {
            return Err(CredError::RealmMismatch {
                ours: self.realm,
                theirs: t.realm,
            });
        }
        if t.sig != mac64(self.key, &token_words(t)) {
            return Err(CredError::BadSignature);
        }
        window_check(t.issued, t.expires, now)
    }

    /// Verify a certificate's realm, signature, and validity window at `now`.
    pub fn verify_cert(&self, c: &SshCertificate, now: SimTime) -> Result<(), CredError> {
        if c.realm != self.realm {
            return Err(CredError::RealmMismatch {
                ours: self.realm,
                theirs: c.realm,
            });
        }
        if c.sig != mac64(self.key, &cert_words(c)) {
            return Err(CredError::BadSignature);
        }
        window_check(c.issued, c.expires, now)
    }

    // analyze:hot-path-begin(ca-validate)
    /// The one verdict routine — the issuing plane, its session table's own
    /// liveness checks and a sister site's CRL replica all judge through
    /// it: realm, signature and window ([`verify_token`](Self::verify_token)),
    /// then one probe of `revoked`. Takes no lock and owns no state: the
    /// caller says which instant and which revoked set.
    pub fn validate_token(
        &self,
        t: &SignedToken,
        now: SimTime,
        revoked: &SerialSet,
    ) -> Result<Uid, CredError> {
        self.verify_token(t, now)?;
        if revoked.contains(&t.serial) {
            return Err(CredError::Revoked(t.serial));
        }
        Ok(t.user)
    }

    /// [`validate_token`](Self::validate_token) for SSH certificates.
    pub fn validate_cert(
        &self,
        c: &SshCertificate,
        now: SimTime,
        revoked: &SerialSet,
    ) -> Result<Uid, CredError> {
        self.verify_cert(c, now)?;
        if revoked.contains(&c.serial) {
            return Err(CredError::Revoked(c.serial));
        }
        Ok(c.user)
    }
    // analyze:hot-path-end
}

/// A portable verification handle for one realm's credential plane: the
/// realm's CA verification state, exported once at trust-establishment time
/// so a *sister site* can verify this realm's signatures locally — no
/// network round-trip to the issuer on the validate hot path.
///
/// In the simulation's keyed-MAC model the "public key" is the CA state
/// itself (the MAC is symmetric); a real deployment would export the CA
/// public keys. What matters structurally is identical: verification
/// capability is distributed once, while *revocation* state keeps changing —
/// which is exactly what `eus-revsync` replicates asynchronously.
///
/// The verifier wraps the issuing plane's one CA but exposes only its
/// verdicts: a holder can verify this realm's credentials, never mint them.
#[derive(Debug, Clone)]
pub struct RealmVerifier {
    ca: CertificateAuthority,
}

impl RealmVerifier {
    /// A verifier from the issuing plane's CA.
    pub fn new(ca: CertificateAuthority) -> Self {
        RealmVerifier { ca }
    }

    /// The key a replica of this realm's CRL hashes serials under (see
    /// [`CertificateAuthority::serial_set_key`]).
    pub fn serial_set_key(&self) -> SerialSetKey {
        self.ca.serial_set_key()
    }

    // analyze:hot-path-begin(realm-verify)
    /// Judge a token entirely locally, through the CA's
    /// [`validate_token`](CertificateAuthority::validate_token). The
    /// verifier holds no revocation state — the caller brings the set it
    /// keeps current (the issuer's own list, or a replica of it).
    pub fn validate_token(
        &self,
        t: &SignedToken,
        now: SimTime,
        revoked: &SerialSet,
    ) -> Result<Uid, CredError> {
        self.ca.validate_token(t, now, revoked)
    }
    // analyze:hot-path-end
}

fn window_check(issued: SimTime, expires: SimTime, now: SimTime) -> Result<(), CredError> {
    if now < issued {
        return Err(CredError::NotYetValid { from: issued });
    }
    if now >= expires {
        return Err(CredError::Expired { until: expires });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realm::IdentityProvider;
    use eus_simos::UserDb;

    fn assertion() -> (IdentityAssertion, CertificateAuthority) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let idp = IdentityProvider::new(RealmId(1), 5);
        let a = idp
            .assert_identity(&db, alice, None, SimTime::ZERO)
            .unwrap();
        (a, CertificateAuthority::new(RealmId(1), 5))
    }

    #[test]
    fn token_roundtrip_inside_window() {
        let (a, mut ca) = assertion();
        let t = ca.mint_token(&a, SimTime::ZERO);
        assert!(ca.verify_token(&t, SimTime::ZERO).is_ok());
        assert!(ca
            .verify_token(&t, t.expires - SimDuration::from_micros(1))
            .is_ok());
        assert_eq!(
            ca.verify_token(&t, t.expires),
            Err(CredError::Expired { until: t.expires })
        );
    }

    #[test]
    fn tampered_fields_break_the_signature() {
        let (a, mut ca) = assertion();
        let t = ca.mint_token(&a, SimTime::ZERO);
        let mut forged = t;
        forged.user = Uid(4242);
        assert_eq!(
            ca.verify_token(&forged, SimTime::ZERO),
            Err(CredError::BadSignature)
        );
        let mut extended = t;
        extended.expires = t.expires + SimDuration::from_secs(9999);
        assert_eq!(
            ca.verify_token(&extended, SimTime::ZERO),
            Err(CredError::BadSignature)
        );
    }

    #[test]
    fn foreign_realm_rejected_before_signature() {
        let (a, ca) = assertion();
        let mut foreign_ca = CertificateAuthority::new(RealmId(2), 6);
        let foreign_assertion = IdentityAssertion {
            realm: RealmId(2),
            ..a
        };
        let t = foreign_ca.mint_token(&foreign_assertion, SimTime::ZERO);
        assert_eq!(
            ca.verify_token(&t, SimTime::ZERO),
            Err(CredError::RealmMismatch {
                ours: RealmId(1),
                theirs: RealmId(2),
            })
        );
    }

    #[test]
    fn cert_window_is_the_short_ttl() {
        let (a, mut ca) = assertion();
        let c = ca.mint_cert(&a, SimTime::from_secs(10));
        assert_eq!(c.expires, SimTime::from_secs(10) + ca.cert_ttl);
        assert_eq!(
            ca.verify_cert(&c, SimTime::ZERO),
            Err(CredError::NotYetValid { from: c.issued })
        );
        assert!(ca.verify_cert(&c, SimTime::from_secs(100)).is_ok());
    }

    #[test]
    fn serials_and_material_never_repeat() {
        let (a, mut ca) = assertion();
        let mut serials = std::collections::BTreeSet::new();
        let mut materials = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let t = ca.mint_token(&a, SimTime::ZERO);
            assert!(serials.insert(t.serial));
            assert!(materials.insert(t.material));
        }
    }
}
