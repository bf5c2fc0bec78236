//! E13 — federated authentication (companion paper, Prout et al. 2019).
//!
//! Measures the credential plane the same way E12 measures every other
//! mechanism: the three credential channels (stolen-token replay,
//! expired-cert ssh, cross-realm impersonation) must be Blocked under the
//! full configuration and re-open — alone — under the `-fedauth` ablation,
//! leaving the paper's original three residuals untouched.

use eus_bench::table::TextTable;
use eus_core::{audit, Channel, ClusterSpec, SeparationConfig};
use eus_fedauth::{BrokerPolicy, CredentialBroker, CredentialPlane, RealmId};
use eus_simos::UserDb;
use std::time::Instant;

fn credential_channels() -> [Channel; 3] {
    [
        Channel::AuthTokenReplay,
        Channel::SshExpiredCert,
        Channel::CrossRealmSpoof,
    ]
}

fn main() {
    println!("E13: federated authentication (companion paper)\n");
    let spec = ClusterSpec::default();

    let llsc = audit::run_audit(&SeparationConfig::llsc(), &spec);
    let mut ablated_cfg = SeparationConfig::llsc();
    ablated_cfg.federated_auth = false;
    let ablated = audit::run_audit(&ablated_cfg, &spec);
    let baseline = audit::run_audit(&SeparationConfig::baseline(), &spec);

    let mut table = TextTable::new(&["channel", "llsc", "-fedauth", "baseline"]);
    for ch in credential_channels() {
        let cell = |report: &audit::AuditReport| {
            if report.open_channels().contains(&ch) {
                "OPEN".to_string()
            } else {
                "blocked".to_string()
            }
        };
        table.row(&[ch.to_string(), cell(&llsc), cell(&ablated), cell(&baseline)]);
    }
    print!("{}", table.render());

    // The ablation must flip exactly the credential channels.
    let reopened = ablated.unexpected_leaks();
    assert_eq!(
        reopened.len(),
        3,
        "ablation must re-open exactly 3 channels"
    );
    for ch in credential_channels() {
        assert!(reopened.contains(&ch), "{ch} must re-open without fedauth");
        assert!(!llsc.open_channels().contains(&ch), "{ch} must be blocked");
    }
    assert!(llsc.only_expected_residuals());
    println!("\nclaim check: -fedauth re-opens exactly the 3 credential channels;");
    println!("the paper's original residuals are unchanged in every row.\n");

    // Verification hot-path cost: the O(1) promise, measured.
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();
    let mut broker = CredentialBroker::new(RealmId(1), 7, BrokerPolicy::default());
    let token = broker.login(&db, alice, None).unwrap();
    for i in 0..50_000u64 {
        // A populated revocation list, so the O(1) check is not trivially
        // hitting an empty set.
        broker.revoke_serial(eus_fedauth::CredSerial(1_000_000 + i));
    }
    let iters = 200_000u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(broker.validate_token(std::hint::black_box(&token)).unwrap());
    }
    let per = t0.elapsed() / iters;
    println!(
        "verify hot path: {per:?}/validate_token with a 50k-entry revocation list ({iters} iters)"
    );
}
