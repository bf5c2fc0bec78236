//! E14 — federation at scale (multi-realm trust).
//!
//! Two claims, measured:
//!
//! 1. **Cross-realm matrix**: with an explicit trust allow-list, an
//!    allow-listed sister realm's token validates at the home site; realms
//!    off the list — registered or not — fail closed, and re-stamping a
//!    trusted realm's token as the home realm breaks its signature.
//! 2. **Ablation row**: the `CrossRealmSpoof` audit channel stays blocked
//!    under llsc (trust list or no trust list) and re-opens only when the
//!    whole credential plane is ablated.

use eus_bench::table::TextTable;
use eus_core::{
    audit, Channel, ClusterSpec, Mechanism, SecureCluster, SeparationConfig, HOME_REALM,
};
use eus_fedauth::{shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId};
use eus_simos::Uid;

fn verdict(r: &Result<Uid, CredError>) -> String {
    match r {
        Ok(_) => "ACCEPT".to_string(),
        Err(CredError::UntrustedRealm { .. }) => "reject: untrusted realm".to_string(),
        Err(CredError::UnknownRealm(_)) => "reject: unknown realm".to_string(),
        Err(CredError::BadSignature) => "reject: bad signature".to_string(),
        Err(e) => format!("reject: {e}"),
    }
}

fn cross_realm_matrix() {
    println!("-- cross-realm trust matrix (home = {HOME_REALM}, allow-list = {{realm2}}) --\n");
    let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
    let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();

    let trusted = shared_broker(CredentialBroker::new(
        RealmId(2),
        0x5157_E401,
        BrokerPolicy::default(),
    ));
    let registered_untrusted = shared_broker(CredentialBroker::new(
        RealmId(3),
        0x5157_E402,
        BrokerPolicy::default(),
    ));
    c.register_sister_realm(RealmId(2), trusted.clone());
    c.register_sister_realm(RealmId(3), registered_untrusted.clone());

    let home_token = c
        .broker
        .as_ref()
        .unwrap()
        .read()
        .current_token(alice)
        .unwrap();
    let mut rogue = CredentialBroker::new(RealmId(99), 0x0BAD_5EED, BrokerPolicy::default());
    let t2 = c.login_at(&trusted, alice).unwrap();
    let t3 = c.login_at(&registered_untrusted, alice).unwrap();
    let t99 = rogue.login(&c.db.read(), alice, None).unwrap();
    let mut restamped = t2;
    restamped.realm = HOME_REALM;

    let mut table = TextTable::new(&["issuer", "relationship", "verdict at home"]);
    let rows: [(&str, &str, Result<Uid, CredError>); 5] = [
        ("realm1", "home", c.validate_federated_token(&home_token)),
        (
            "realm2",
            "allow-listed sister",
            c.validate_federated_token(&t2),
        ),
        (
            "realm3",
            "registered, not allow-listed",
            c.validate_federated_token(&t3),
        ),
        ("realm99", "unregistered", c.validate_federated_token(&t99)),
        (
            "realm2→1",
            "trusted realm re-stamped as home",
            c.validate_federated_token(&restamped),
        ),
    ];
    for (issuer, rel, r) in &rows {
        table.row(&[issuer.to_string(), rel.to_string(), verdict(r)]);
    }
    print!("{}", table.render());

    assert!(rows[0].2.is_ok(), "home realm must accept its own token");
    assert!(
        rows[1].2.is_ok(),
        "allow-listed sister must validate at home"
    );
    assert!(
        matches!(rows[2].2, Err(CredError::UntrustedRealm { .. })),
        "registered-but-untrusted must fail closed"
    );
    assert!(rows[3].2.is_err(), "unregistered realm must fail closed");
    assert_eq!(
        rows[4].2,
        Err(CredError::BadSignature),
        "re-stamped realm must break the issuer signature"
    );
    // Revocation at the issuing site is honored at home asynchronously:
    // the eus-revsync delta feed lands within one feed interval (exp_revsync
    // charts the lag-vs-cadence tradeoff in detail).
    trusted.write().revoke_user(alice);
    let after_feed = c.sched.read().now()
        + c.config.revsync_feed_interval
        + eus_simcore::SimDuration::from_secs(1);
    c.advance_to(after_feed);
    assert!(c.validate_federated_token(&t2).is_err());
    println!("\nsister-site revocation: honored at home within one feed interval\n");
}

fn ablation_rows() {
    println!("-- CrossRealmSpoof across configurations (audit) --\n");
    let spec = ClusterSpec::tiny();
    let configs: [(&str, SeparationConfig); 3] = [
        ("llsc", SeparationConfig::llsc()),
        (
            "llsc+trust[2]",
            SeparationConfig::llsc().with_trusted_realms([2u32]),
        ),
        (
            Mechanism::FedAuth.label(),
            SeparationConfig::llsc().without(Mechanism::FedAuth),
        ),
    ];
    let mut table = TextTable::new(&["config", "CrossRealmSpoof", "unexpected leaks"]);
    let mut reports = Vec::new();
    for (name, cfg) in &configs {
        let report = audit::run_audit(cfg, &spec);
        let open = report.open_channels().contains(&Channel::CrossRealmSpoof);
        table.row(&[
            name.to_string(),
            if open { "OPEN" } else { "blocked" }.to_string(),
            report.unexpected_leaks().len().to_string(),
        ]);
        reports.push((*name, report));
    }
    print!("{}", table.render());

    for (name, report) in &reports {
        let open = report.open_channels().contains(&Channel::CrossRealmSpoof);
        if *name == "-fedauth" {
            assert!(open, "ablating the plane must re-open CrossRealmSpoof");
        } else {
            assert!(!open, "{name}: CrossRealmSpoof must stay blocked");
            assert!(
                report.only_expected_residuals(),
                "{name}: trust lists must not open anything"
            );
        }
    }
    println!("\nclaim check: trust allow-lists change no channel outcome; only");
    println!("ablating the credential plane re-opens the spoof.\n");
}

fn main() {
    println!("E14: federation at scale (multi-realm trust)\n");
    cross_realm_matrix();
    ablation_rows();
    println!("result: trusted federation without widened attack surface.");
}
