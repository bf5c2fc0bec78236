//! Revocation-propagation walkthrough: how a credential revoked at its
//! issuing realm dies at a sister site — asynchronously, over a simulated
//! WAN, with bounded staleness failing closed when the feed stops.
//!
//! ```text
//! cargo run --release --example revocation_propagation
//! ```

use hpc_user_separation::fedauth::{shared_broker, BrokerPolicy, CredentialBroker, RealmId};
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};

fn main() {
    println!("== Asynchronous cross-realm revocation (eus-revsync) ==\n");

    // The home site trusts sister realm 2; registering the sister
    // bootstraps a local replica of its CRL and subscribes to its delta
    // feed (push every revsync_feed_interval, anti-entropy pulls behind).
    let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
    let feed = cfg.revsync_feed_interval;
    let budget = cfg.revsync_max_lag;
    let mut cluster = SecureCluster::new(cfg, ClusterSpec::tiny());
    let alice = cluster.add_user("alice").unwrap();

    let lab = shared_broker(CredentialBroker::new(
        RealmId(2),
        0xC0FFEE,
        BrokerPolicy::default(),
    ));
    cluster.register_sister_realm(RealmId(2), lab.clone());
    println!(
        "home {HOME_REALM}: subscribed to realm2's CRL feed (every {feed}, budget {budget})\n"
    );

    // t = 0 — the collaborator logs in at their site; their token is
    // accepted here against the *local* replica: signature through realm2's
    // exported verifier, revocation through the replicated CRL. No
    // round-trip to realm2.
    let token = cluster.login_at(&lab, alice).unwrap();
    println!(
        "t=0s      realm2 login ({}): validate at home → {:?}",
        token.serial,
        cluster
            .validate_federated_token(&token)
            .map(|u| u.to_string())
    );

    // t = 0 — incident response at realm2 revokes everything alice holds.
    // The home replica has not heard yet: the token is still accepted.
    // Asynchrony is explicit — revocation must *travel*.
    lab.write().revoke_user(alice);
    println!(
        "t=0s      realm2 revokes alice:    validate at home → {:?}  (delta still in flight)",
        cluster
            .validate_federated_token(&token)
            .map(|u| u.to_string())
    );

    // t = feed + 1s — the push feed has carried the CRL delta across the
    // WAN; the local replica now rejects the serial. Propagation lag is
    // bounded by the feed cadence plus wire time.
    let t1 = SimTime::ZERO + feed + SimDuration::from_secs(1);
    cluster.advance_to(t1);
    println!(
        "t={}  delta feed lands:        validate at home → {}",
        t1.since(SimTime::ZERO),
        cluster.validate_federated_token(&token).unwrap_err()
    );
    println!(
        "          replica lag now {}, staleness budget {}\n",
        cluster.replica_lag(RealmId(2)).unwrap(),
        budget
    );

    // The sister site drops off the WAN. The local replica keeps answering
    // — validation never needed the issuer — until its lag crosses the
    // staleness budget, and then it fails CLOSED: no fresh revocation
    // data, no cross-realm acceptance.
    cluster.partition_sister_feed(RealmId(2), true);
    let fresh = cluster.login_at(&lab, alice).unwrap();
    let t2 = t1 + budget + SimDuration::from_secs(2);
    cluster.advance_to(t2);
    println!(
        "t={}  feed severed > budget: validate at home → {}",
        t2.since(SimTime::ZERO),
        cluster.validate_federated_token(&fresh).unwrap_err()
    );

    // Healing the link restores freshness at the next exchange.
    cluster.partition_sister_feed(RealmId(2), false);
    let t3 = t2 + feed + SimDuration::from_secs(1);
    cluster.advance_to(t3);
    println!(
        "t={}  feed healed:           validate at home → {:?}",
        t3.since(SimTime::ZERO),
        cluster
            .validate_federated_token(&fresh)
            .map(|u| u.to_string())
    );

    println!("\nresult: revocations ride an append-only delta log between realms;");
    println!("sisters reject within one feed interval, and a silent issuer");
    println!("degrades to fail-closed at the staleness budget — never fail-open.");
}
