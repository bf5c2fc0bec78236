//! Cross-realm federation walkthrough: a collaborator from a trusted sister
//! site uses their *home* credential at this cluster, an untrusted site's
//! credential fails closed, and a local user self-enrolls MFA through the
//! portal — all against the full paper configuration with the sharded
//! credential plane.
//!
//! ```text
//! cargo run --release --example cross_realm_federation
//! ```

use hpc_user_separation::fedauth::{
    realm::mfa_code_at, shared_broker, BrokerPolicy, CredentialBroker, RealmId,
};
use hpc_user_separation::portal::AuthError;
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};

fn main() {
    println!("== Multi-realm trust & portal MFA enrollment ==\n");

    // The home site allow-lists sister realm 2 (a collaborating lab); the
    // broker runs 4 uid-hashed shards (the llsc default).
    let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
    let mut cluster = SecureCluster::new(cfg, ClusterSpec::tiny());
    let alice = cluster.add_user("alice").unwrap();

    // 1. Two sister sites run their own brokers. Only realm 2 is trusted.
    let lab = shared_broker(CredentialBroker::new(
        RealmId(2),
        0xC0FFEE,
        BrokerPolicy::default(),
    ));
    let stranger = shared_broker(CredentialBroker::new(
        RealmId(3),
        0xDEAD_BEEF,
        BrokerPolicy::default(),
    ));
    cluster.register_sister_realm(RealmId(2), lab.clone());
    cluster.register_sister_realm(RealmId(3), stranger.clone());
    println!("federation: home {HOME_REALM} trusts realm2; realm3 registered, untrusted");

    // 2. The collaborator logs in at *their* site and presents the token
    //    here: the home site verifies it against the issuer's CA and
    //    revocation list, because the trust policy allow-lists realm 2.
    let visiting = cluster.login_at(&lab, alice).unwrap();
    let who = cluster.validate_federated_token(&visiting).unwrap();
    println!(
        "realm2 token {}: accepted at home as uid {who}",
        visiting.serial
    );

    // 3. The same uid asserted by the untrusted site is refused — realm
    //    binding plus the allow-list keep identity collisions harmless.
    let spoof = cluster.login_at(&stranger, alice).unwrap();
    println!(
        "realm3 token {}: {}",
        spoof.serial,
        cluster.validate_federated_token(&spoof).unwrap_err()
    );

    // 4. Revocation at the issuing site propagates here asynchronously:
    //    the sister's CRL delta feed (eus-revsync) lands within one feed
    //    interval, and the local replica rejects from then on — see
    //    examples/revocation_propagation.rs for the full timeline.
    lab.write().revoke_user(alice);
    let next_feed = cluster.sched.read().now()
        + cluster.config.revsync_feed_interval
        + hpc_user_separation::simcore::SimDuration::from_secs(1);
    cluster.advance_to(next_feed);
    println!(
        "one feed interval after realm2 incident response: {}",
        cluster.validate_federated_token(&visiting).unwrap_err()
    );

    // 5. Portal MFA self-enrollment: alice binds a second factor through
    //    the portal's enroll_mfa route. The next login without a code is
    //    refused; with the current window code it succeeds.
    let session = cluster.portal_login(alice).unwrap();
    let secret = cluster.portal_enroll_mfa(session, None).unwrap().secret;
    println!("\nportal: alice enrolled MFA (secret shown once, QR-code style)");
    let refused = cluster.portal_login(alice).unwrap_err();
    assert!(matches!(refused, AuthError::Federated(_)));
    println!("next login without a code: {refused}");
    // The user reads the current code off their authenticator (the broker's
    // out-of-band stand-in), which derives from the enrolled secret.
    let broker = cluster.broker.clone().unwrap();
    let code = broker.read().current_mfa_code(alice).unwrap();
    assert_eq!(code, mfa_code_at(secret, broker.read().now()));
    let token = cluster.portal_login_mfa(alice, Some(code)).unwrap();
    println!(
        "with the current window code: session open, whoami = {}",
        cluster.portal.auth.whoami(token).unwrap()
    );

    println!("\nresult: trusted sites interoperate on their own credentials;");
    println!("untrusted realms fail closed; users harden their own accounts.");
}
