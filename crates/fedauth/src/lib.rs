//! # eus-fedauth — federated identity & credential lifecycle
//!
//! Reproduction of the identity layer from the companion paper *Securing HPC
//! using Federated Authentication* (Prout et al., 2019): every service on the
//! cluster stops trusting raw uids and long-lived keys, and instead consults
//! centrally-issued, **short-lived** credentials — signed bearer tokens for
//! the portal and job submission, SSH certificates for interactive access —
//! minted by a per-site [`CertificateAuthority`] after an
//! [`IdentityProvider`] assertion (optionally MFA-gated), and revocable in
//! O(1) on the verification hot path.
//!
//! This closes the "stolen long-lived credential" class of cross-user
//! channels that the base paper's mechanisms do not address, and is the
//! prerequisite for serving many sites/users through one identity plane:
//! every credential is bound to a [`RealmId`], so a uid from one site can
//! never be replayed against another.
//!
//! * [`realm`] — realms, identity assertion, MFA (±1-window TOTP skew,
//!   binding self-service enrollment).
//! * [`ca`] — the certificate authority: signed tokens and SSH certificates
//!   with validity windows on the simulation clock.
//! * [`revocation`] — the O(1) revocation list, plus the sequence-numbered
//!   append-only delta log that `eus-revsync` replicates between realms.
//! * [`broker`] — the [`CredentialBroker`] every enforcement point consults
//!   (sshd PAM, scheduler submission, portal fetch), over one session
//!   table.
//! * [`plane`] — the [`SharedBroker`] handle those enforcement points hold
//!   and the [`PlaneClock`] the broker publishes.
//! * [`federation`] — [`TrustPolicy`], the home site's realm allow-list: a
//!   trusted sister realm's credential validates at the home site (against
//!   the local revocation replica `eus-revsync` keeps) while untrusted
//!   realms fail closed.
//! * [`pam`] — [`PamFedAuth`], the sshd account-phase module.
//!
//! ```
//! use eus_fedauth::{BrokerPolicy, CredentialBroker, RealmId};
//! use eus_simos::UserDb;
//!
//! let mut db = UserDb::new();
//! let alice = db.create_user("alice").unwrap();
//! let mut broker = CredentialBroker::new(RealmId(1), 42, BrokerPolicy::default());
//! let token = broker.login(&db, alice, None).unwrap();
//! assert_eq!(broker.validate_token(&token).unwrap(), alice);
//! broker.revoke_serial(token.serial);
//! assert!(broker.validate_token(&token).is_err());
//! ```

#![warn(missing_docs)]

pub mod broker;
pub mod ca;
pub mod federation;
pub mod obs;
pub mod pam;
pub mod plane;
pub mod realm;
pub mod revocation;
mod session;

pub use broker::{BrokerPolicy, CredentialBroker};
pub use ca::{
    CertificateAuthority, CredError, CredSerial, RealmVerifier, SignedToken, SshCertificate,
};
pub use federation::TrustPolicy;
pub use obs::ValidateStats;
pub use pam::PamFedAuth;
pub use plane::{shared_broker, PlaneClock, SharedBroker};
pub use realm::{
    IdentityAssertion, IdentityProvider, MfaCode, MfaEnrollment, MfaSecret, RealmId, RecoveryCode,
    RECOVERY_CODE_COUNT,
};
pub use revocation::{RevocationList, SerialSet, SerialSetKey};

/// The identity plane's one bit-mixing primitive (the broker's seed
/// derivation, TOTP window codes, the portal's keyed token fold), shared with the keyed
/// hasher so the constants cannot drift between call sites.
pub use eus_simcore::splitmix64;
