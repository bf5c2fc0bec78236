//! E15 — asynchronous cross-realm revocation propagation (`eus-revsync`).
//!
//! Four claims, measured:
//!
//! 1. **Propagation lag tracks feed cadence**: across 2–8 realm meshes, a
//!    serial revoked at its issuer is rejected at every subscribed sister
//!    within roughly one feed interval plus WAN latency — and always inside
//!    the staleness budget. With lossy push transport, anti-entropy bounds
//!    the tail instead.
//! 2. **The cluster timeline**: revoke-at-issuer → still-accepted (the
//!    replica has not heard) → rejected once the delta lands. Asynchrony is
//!    explicit and bounded, not hidden.
//! 3. **Bounded staleness fails closed**: sever the feed and the replica
//!    keeps answering only until its lag exceeds the budget; past that,
//!    cross-realm validation refuses outright (`StaleReplica`) rather than
//!    trusting possibly-revoked credentials.
//! 4. **No synchronous issuer query on the hot path**: validation keeps
//!    working (within budget) while the issuer is unreachable, and the
//!    local replica lookup costs the same O(1) nanoseconds as the old
//!    direct-broker check — without the cross-WAN round trip the old path
//!    implied.

use eus_bench::table::TextTable;
use eus_core::{ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};
use eus_fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, FederationDirectory, RealmId,
    TrustPolicy,
};
use eus_revsync::{RevSyncConfig, RevSyncMesh};
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use std::time::Instant;

/// Build an all-to-all mesh of `n` realms (every site subscribes to every
/// other site's feed) and return it with the planes.
fn full_mesh(
    n: u32,
    cfg: RevSyncConfig,
) -> (
    UserDb,
    Uid,
    RevSyncMesh,
    Vec<(RealmId, eus_fedauth::SharedBroker)>,
) {
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();
    let mut mesh = RevSyncMesh::new(cfg);
    let mut planes = Vec::new();
    for r in 1..=n {
        let realm = RealmId(r);
        let plane = shared_broker(CredentialBroker::new(
            realm,
            0x0E15_0000 + r as u64,
            BrokerPolicy::default(),
        ));
        mesh.add_realm(realm, plane.clone());
        planes.push((realm, plane));
    }
    for (site, _) in &planes {
        for (issuer, _) in &planes {
            if site != issuer {
                mesh.subscribe(*site, *issuer);
            }
        }
    }
    (db, alice, mesh, planes)
}

/// Revoke at the issuer at `t0` and step the mesh until every other site
/// rejects the token; returns the propagation lag (revoke → last rejection).
fn propagation_lag(
    db: &UserDb,
    alice: Uid,
    mesh: &mut RevSyncMesh,
    planes: &[(RealmId, eus_fedauth::SharedBroker)],
    t0: SimTime,
    step: SimDuration,
    deadline: SimDuration,
) -> SimDuration {
    let (issuer, plane) = planes.last().unwrap();
    let token = plane.write().login(db, alice, None).unwrap();
    mesh.pump(t0);
    plane.write().revoke_user(alice);
    let mut t = t0;
    loop {
        let all_reject = planes[..planes.len() - 1].iter().all(|(site, _)| {
            matches!(
                mesh.validate_token_at(*site, &token, t),
                Err(CredError::Revoked(_))
            )
        });
        if all_reject {
            return t.since(t0);
        }
        assert!(
            t.since(t0) < deadline,
            "revocation failed to propagate from {issuer} within {deadline}"
        );
        t += step;
        mesh.pump(t);
    }
}

fn lag_vs_cadence() {
    println!("-- propagation lag vs feed cadence (full mesh, 5 revocations each) --\n");
    let mut table = TextTable::new(&[
        "realms",
        "feed",
        "anti-entropy",
        "push loss",
        "mean lag",
        "max lag",
        "budget",
        "verdict",
    ]);
    let step = SimDuration::from_millis(100);
    let cases: Vec<(u32, SimDuration, SimDuration, f64)> = vec![
        (
            2,
            SimDuration::from_secs(2),
            SimDuration::from_secs(300),
            0.0,
        ),
        (
            2,
            SimDuration::from_secs(10),
            SimDuration::from_secs(300),
            0.0,
        ),
        (
            4,
            SimDuration::from_secs(10),
            SimDuration::from_secs(300),
            0.0,
        ),
        (
            8,
            SimDuration::from_secs(10),
            SimDuration::from_secs(300),
            0.0,
        ),
        (
            4,
            SimDuration::from_secs(30),
            SimDuration::from_secs(300),
            0.0,
        ),
        (
            4,
            SimDuration::from_secs(60),
            SimDuration::from_secs(300),
            0.0,
        ),
        // Lossy push transport: anti-entropy bounds the tail.
        (
            4,
            SimDuration::from_secs(10),
            SimDuration::from_secs(60),
            0.5,
        ),
    ];
    for (realms, feed, ae, loss) in cases {
        let cfg = RevSyncConfig {
            feed_interval: feed,
            anti_entropy: ae,
            push_loss: loss,
            ..RevSyncConfig::default()
        };
        let (db, alice, mut mesh, planes) = full_mesh(realms, cfg);
        let mut lags = Vec::new();
        for k in 0..5u64 {
            // Stagger revocations against the feed phase.
            let t0 = SimTime::from_secs(100 * (k + 1)) + SimDuration::from_millis(1700 * k);
            let deadline = ae + feed + SimDuration::from_secs(5);
            lags.push(propagation_lag(
                &db, alice, &mut mesh, &planes, t0, step, deadline,
            ));
        }
        let max = *lags.iter().max().unwrap();
        let mean_us = lags.iter().map(|l| l.as_micros()).sum::<u64>() / lags.len() as u64;
        let within = max <= cfg.max_lag;
        assert!(within, "propagation must stay inside the staleness budget");
        if loss == 0.0 {
            assert!(
                max <= feed + SimDuration::from_secs(1),
                "lossless feeds must propagate within one interval (+wire): {max}"
            );
        } else {
            assert!(
                max <= ae + feed + SimDuration::from_secs(1),
                "anti-entropy must bound the lossy tail: {max}"
            );
        }
        table.row(&[
            realms.to_string(),
            feed.to_string(),
            ae.to_string(),
            format!("{:.0}%", loss * 100.0),
            SimDuration::from_micros(mean_us).to_string(),
            max.to_string(),
            cfg.max_lag.to_string(),
            "within budget".to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nclaim check: lag ≈ feed cadence + WAN wire time; loss shifts the");
    println!("tail to the anti-entropy period; both stay inside the budget.\n");
}

fn cluster_timeline() {
    println!("-- revoke-at-issuer → reject-at-home timeline (SecureCluster) --\n");
    let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
    let feed = cfg.revsync_feed_interval;
    let budget = cfg.revsync_max_lag;
    let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let sister = shared_broker(CredentialBroker::new(
        RealmId(2),
        0x0E15_0051,
        BrokerPolicy::default(),
    ));
    c.register_sister_realm(RealmId(2), sister.clone());

    let mut table = TextTable::new(&["t", "event", "validate at home"]);
    let token = c.login_at(&sister, alice).unwrap();
    let v0 = c.validate_federated_token(&token);
    table.row(&["0s".into(), "login at sister realm2".into(), verdict(&v0)]);
    assert!(v0.is_ok());

    sister.write().revoke_user(alice);
    let v1 = c.validate_federated_token(&token);
    table.row(&[
        "0s".into(),
        "revoke_user at realm2 (issuer)".into(),
        verdict(&v1),
    ]);
    assert!(v1.is_ok(), "the replica has not heard yet — by design");

    let t_feed = SimTime::ZERO + feed + SimDuration::from_secs(1);
    c.advance_to(t_feed);
    let v2 = c.validate_federated_token(&token);
    table.row(&[
        format!("{}", feed + SimDuration::from_secs(1)),
        "CRL delta feed lands".into(),
        verdict(&v2),
    ]);
    assert_eq!(v2, Err(CredError::Revoked(token.serial)));
    let lag = c.replica_lag(RealmId(2)).unwrap();
    assert!(lag <= budget, "replica lag {lag} must be inside {budget}");

    // Sever the feed: validation keeps working on the replica alone (no
    // synchronous issuer query!) until the budget runs out, then fails
    // closed.
    c.partition_sister_feed(RealmId(2), true);
    let fresh = c.login_at(&sister, alice).unwrap();
    // Lag counts from the last feed's issuer-side snapshot, so the budget
    // edge sits at last_sync + budget.
    let last_sync = c
        .revsync
        .as_ref()
        .unwrap()
        .replica(HOME_REALM, RealmId(2))
        .unwrap()
        .last_sync();
    let t_in = last_sync + budget;
    c.advance_to(t_in);
    let v3 = c.validate_federated_token(&fresh);
    table.row(&[
        format!("{}", t_in.since(SimTime::ZERO)),
        "feed severed; inside staleness budget".into(),
        verdict(&v3),
    ]);
    assert!(
        v3.is_ok(),
        "within budget the local replica answers with the issuer unreachable — \
         proof there is no synchronous issuer query on the hot path"
    );

    let t_out = t_in + SimDuration::from_secs(1);
    c.advance_to(t_out);
    let v4 = c.validate_federated_token(&fresh);
    table.row(&[
        format!("{}", t_out.since(SimTime::ZERO)),
        "lag exceeds budget".into(),
        verdict(&v4),
    ]);
    assert!(
        matches!(
            v4,
            Err(CredError::StaleReplica {
                realm: RealmId(2),
                ..
            })
        ),
        "past the budget validation fails closed"
    );
    print!("{}", table.render());
    println!();
}

fn verdict(r: &Result<Uid, CredError>) -> String {
    match r {
        Ok(u) => format!("ACCEPT ({u})"),
        Err(e) => format!("reject: {e}"),
    }
}

fn hot_path_cost() {
    println!("-- validate hot path: local replica vs synchronous issuer query --\n");
    const REVOKED: u64 = 100_000;
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();
    let home = shared_broker(CredentialBroker::new(
        HOME_REALM,
        0x0E15_0001,
        BrokerPolicy::default(),
    ));
    let sister = shared_broker(CredentialBroker::new(
        RealmId(2),
        0x0E15_0002,
        BrokerPolicy::default(),
    ));
    let token = sister.write().login(&db, alice, None).unwrap();
    {
        let mut s = sister.write();
        for i in 0..REVOKED {
            s.revoke_serial(eus_fedauth::CredSerial(1_000_000 + i));
        }
    }

    // Old path: the federation directory queries the issuer's plane.
    let mut dir = FederationDirectory::new();
    dir.register(
        HOME_REALM,
        home.clone(),
        TrustPolicy::home_only(HOME_REALM).with_trusted(RealmId(2)),
    );
    dir.register(
        RealmId(2),
        sister.clone(),
        TrustPolicy::home_only(RealmId(2)),
    );

    // New path: a local replica of the sister's CRL.
    let cfg = RevSyncConfig::default();
    let mut mesh = RevSyncMesh::new(cfg);
    mesh.add_realm(HOME_REALM, home);
    mesh.add_realm(RealmId(2), sister);
    mesh.subscribe(HOME_REALM, RealmId(2));

    let iters = 200_000u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(dir.validate_token_at(HOME_REALM, std::hint::black_box(&token)))
            .unwrap();
    }
    let sync_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(mesh.validate_token_at(
            HOME_REALM,
            std::hint::black_box(&token),
            SimTime::ZERO,
        ))
        .unwrap();
    }
    let replica_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let mut table = TextTable::new(&["path", "issuer contact", "ns/op (100k-entry CRL)"]);
    table.row(&[
        "synchronous issuer query (PR 2)".into(),
        "every validation".into(),
        format!("{sync_ns:.0}"),
    ]);
    table.row(&[
        "local CRL replica (eus-revsync)".into(),
        "none".into(),
        format!("{replica_ns:.0}"),
    ]);
    print!("{}", table.render());
    println!("\nboth are O(1) in-memory checks — but the replica path carries no");
    println!("cross-WAN dependency, so the in-simulation ns/op is the true cost.");
    println!("(criterion bench: benches/revsync_replica.rs)\n");
}

fn main() {
    println!("E15: asynchronous cross-realm revocation propagation (eus-revsync)\n");
    lag_vs_cadence();
    cluster_timeline();
    hot_path_cost();
    println!("result: revocations travel as append-only CRL deltas on push feeds");
    println!("with pull anti-entropy repair; sisters reject within one feed");
    println!("interval, unreachable issuers degrade to fail-closed at the");
    println!("staleness budget, and the validate hot path never leaves the site.");
}
