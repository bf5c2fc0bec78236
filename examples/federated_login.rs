//! Federated login walkthrough: login → certificate mint → ssh → job
//! submission → revocation, against the full paper configuration with the
//! companion paper's credential plane (`federated_auth`) enabled.
//!
//! ```text
//! cargo run --release --example federated_login
//! ```

use eus_sched::JobSpec;
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};

fn main() {
    println!("== Federated identity & credential lifecycle ==\n");
    let mut cluster = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let broker = cluster.broker.clone().expect("llsc deploys the broker");

    // 1. Provisioning performs the first federated login: alice immediately
    //    holds a short-lived bearer token and an SSH certificate.
    let alice = cluster.add_user("alice").unwrap();
    let token = broker.read().current_token(alice).unwrap();
    let cert = broker.read().current_cert(alice).unwrap();
    println!(
        "login:   token {} valid until {}",
        token.serial, token.expires
    );
    println!(
        "cert:    {} valid until {} (short TTL)",
        cert.serial, cert.expires
    );

    // 2. ssh to the login node: pam_fedauth verifies the live certificate.
    let login = cluster.login_node();
    let session = cluster.ssh(alice, login).expect("live certificate");
    println!("ssh:     session {:?} opened on {login}", session);

    // 3. Job submission presents the bearer token at the scheduler gate.
    let job = cluster
        .try_submit(JobSpec::new(alice, "train", SimDuration::from_secs(60)))
        .expect("live bearer token");
    cluster.advance_to(SimTime::from_secs(1));
    println!("submit:  job {job} accepted and scheduled");

    // 4. Incident response: revoke every credential alice holds. The stolen
    //    token is dead everywhere, immediately and irreversibly.
    broker.write().revoke_user(alice);
    let replay = broker.read().validate_token(&token);
    println!("revoke:  replayed token -> {replay:?}");
    assert!(replay.is_err(), "revocation must be immediate");
    let stale_submit =
        cluster.try_submit(JobSpec::new(alice, "backdoor", SimDuration::from_secs(60)));
    println!(
        "submit:  without credential -> {:?}",
        stale_submit.err().unwrap()
    );

    // 5. The legitimate user simply re-authenticates; the attacker holding
    //    yesterday's material cannot.
    let fresh = cluster.login_at(&broker, alice).unwrap();
    println!(
        "relogin: fresh token {} replaces the revoked one",
        fresh.serial
    );
    assert!(broker.read().validate_token(&fresh).is_ok());
    assert!(
        broker.read().validate_token(&token).is_err(),
        "old one stays dead"
    );

    println!("\nresult: no long-lived secrets — stolen material dies at the");
    println!("next revocation or expiry, and every service checks centrally.");
}
