//! Property-based credential-lifecycle invariants: certificates never
//! validate outside their window for any (issue, TTL, probe) triple,
//! revocation is immediate and irreversible under arbitrary op interleavings,
//! and minted token material never collides at portal scale.

use eus_fedauth::{
    BrokerPolicy, CertificateAuthority, CredentialBroker, CredentialPlane, IdentityProvider,
    RealmId, SignedToken,
};
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use hpc_user_separation::portal::PortalAuth;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A certificate is valid exactly on `[issued, issued + ttl)` — never
    /// before, never at or after expiry — for any triple of times.
    #[test]
    fn certs_never_validate_outside_their_window(
        issued_s in 0u64..100_000,
        ttl_s in 1u64..10_000,
        probe_s in 0u64..120_000,
    ) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let idp = IdentityProvider::new(RealmId(1), 1);
        let mut ca = CertificateAuthority::new(RealmId(1), 1)
            .with_cert_ttl(SimDuration::from_secs(ttl_s));

        let issued = SimTime::from_secs(issued_s);
        let assertion = idp.assert_identity(&db, alice, None, issued).unwrap();
        let cert = ca.mint_cert(&assertion, issued);

        let probe = SimTime::from_secs(probe_s);
        let inside = probe_s >= issued_s && probe_s < issued_s + ttl_s;
        prop_assert_eq!(
            ca.verify_cert(&cert, probe).is_ok(),
            inside,
            "issued={}s ttl={}s probe={}s",
            issued_s,
            ttl_s,
            probe_s
        );
    }

    /// For any interleaving of logins, revocations, clock advances, and
    /// checks: a token captured before its revocation never validates
    /// afterwards — not even after the user re-authenticates.
    #[test]
    fn revocation_is_immediate_and_irreversible(
        ops in proptest::collection::vec((0u8..4, 0u8..3), 1..60)
    ) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..3)
            .map(|i| db.create_user(&format!("u{i}")).unwrap())
            .collect();
        let mut broker = CredentialBroker::new(RealmId(1), 2, BrokerPolicy::default());
        // Every token ever minted, with whether its serial was revoked.
        let mut captured: Vec<(SignedToken, bool)> = Vec::new();
        let mut clock = SimTime::ZERO;

        for (action, subject) in ops {
            let user = users[subject as usize];
            match action {
                0 => {
                    let t = broker.login(&db, user, None).unwrap();
                    captured.push((t, false));
                }
                1 => {
                    if let Some(live) = broker.current_token(user) {
                        broker.revoke_user(user);
                        for (t, revoked) in captured.iter_mut() {
                            if t.serial == live.serial {
                                *revoked = true;
                            }
                        }
                    }
                }
                2 => {
                    clock += SimDuration::from_secs(60);
                    broker.advance_to(clock);
                }
                _ => {}
            }
            // Invariant after every step: revoked serials never validate.
            for (t, revoked) in &captured {
                if *revoked {
                    prop_assert!(
                        broker.validate_token(t).is_err(),
                        "revoked {} accepted",
                        t.serial
                    );
                }
            }
        }
    }
}

#[test]
fn ten_thousand_logins_never_collide() {
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();

    // Broker-issued tokens: serials and bearer material all distinct.
    let mut broker = CredentialBroker::new(RealmId(1), 3, BrokerPolicy::default());
    let mut serials = std::collections::BTreeSet::new();
    let mut materials = std::collections::BTreeSet::new();
    for _ in 0..10_000 {
        let t = broker.login(&db, alice, None).unwrap();
        assert!(serials.insert(t.serial), "serial reuse at {}", t.serial);
        assert!(materials.insert(t.material), "material collision");
    }

    // Portal-local tokens (no broker): same guarantee.
    let mut auth = PortalAuth::new();
    let mut tokens = std::collections::BTreeSet::new();
    for _ in 0..10_000 {
        let t = auth.login(&db, alice).unwrap();
        assert!(tokens.insert(t), "portal token collision");
    }
    assert_eq!(auth.live_sessions(), 10_000);
}

#[test]
fn expired_sessions_sweep_cleanly_at_scale() {
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();
    let mut auth = PortalAuth::new().with_ttl(SimDuration::from_secs(100));
    let early: Vec<_> = (0..50).map(|_| auth.login(&db, alice).unwrap()).collect();
    auth.advance_to(SimTime::from_secs(50));
    let late: Vec<_> = (0..50).map(|_| auth.login(&db, alice).unwrap()).collect();

    auth.advance_to(SimTime::from_secs(120));
    assert_eq!(auth.sweep_expired(), 50, "only the early batch expired");
    for t in early {
        assert!(auth.whoami(t).is_err());
    }
    for t in late {
        assert!(auth.whoami(t).is_ok());
    }
}
