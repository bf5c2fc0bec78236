//! `eus-revsync` properties:
//!
//! 1. **Anti-entropy convergence**: whatever partial state push loss and
//!    partitions leave a replica in, one healed anti-entropy round brings
//!    it to exactly the issuer's log (same revoked set, same frontier).
//! 2. **Bounded propagation**: a serial revoked at its issuer is rejected
//!    at *every* subscribed sister site within the staleness budget, for
//!    any realm count and loss rate.
//! 3. **Fail closed past the budget**: a severed feed makes validation
//!    refuse (`StaleReplica`) once — and only once — the replica's lag
//!    exceeds the budget.
//! 4. **Monotonicity regression**: no delta sequence, however gappy,
//!    overlapping, or stale, can make a replica *un*-revoke a serial.
//!
//! The CI `revsync-properties` job reruns this file with a larger case
//! count via `REVSYNC_PROPTEST_CASES`.

mod common;

use eus_fedauth::{
    shared_broker, BrokerPolicy, CredError, CredSerial, CredentialBroker, RealmId, SharedBroker,
};
use eus_revsync::{ApplyOutcome, CrlDelta, CrlReplica, RevSyncConfig, RevSyncMesh};
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn mesh_of(
    n: u32,
    cfg: RevSyncConfig,
) -> (UserDb, Vec<Uid>, RevSyncMesh, Vec<(RealmId, SharedBroker)>) {
    let mut db = UserDb::new();
    let users: Vec<Uid> = (0..4)
        .map(|i| db.create_user(&format!("u{i}")).unwrap())
        .collect();
    let mut mesh = RevSyncMesh::new(cfg);
    let mut planes = Vec::new();
    for r in 1..=n {
        let realm = RealmId(r);
        let plane = shared_broker(CredentialBroker::new(
            realm,
            1000 + r as u64,
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
    (db, users, mesh, planes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("REVSYNC_PROPTEST_CASES", 24), ..ProptestConfig::default() })]

    /// (1) + (2): random revocation traffic under random push loss — after
    /// time passes, every replica converges to its issuer's exact log, and
    /// every revoked serial is rejected at every sister inside the budget.
    #[test]
    fn anti_entropy_converges_replicas_from_any_partial_state(
        n in 2u32..5,
        loss_pct in 0u8..=100,
        ops in proptest::collection::vec((0u8..4, 0u8..4, 1u64..60), 1..24),
    ) {
        let cfg = RevSyncConfig {
            feed_interval: SimDuration::from_secs(5),
            anti_entropy: SimDuration::from_secs(60),
            max_lag: SimDuration::from_secs(900),
            push_loss: loss_pct as f64 / 100.0,
        };
        let (db, users, mut mesh, planes) = mesh_of(n, cfg);
        let mut minted: Vec<eus_fedauth::SignedToken> = Vec::new();
        let mut now = SimTime::ZERO;

        // Random interleaving of logins, revocations, and time.
        for (what, subject, dt) in ops {
            let (_, plane) = &planes[(subject as usize) % planes.len()];
            let user = users[(subject as usize) % users.len()];
            match what {
                0 => {
                    if let Ok(t) = plane.write().login(&db, user, None) {
                        minted.push(t);
                    }
                }
                1 => {
                    plane.write().revoke_user(user);
                }
                2 => {
                    if let Some(t) = minted.get(subject as usize) {
                        let serial = t.serial;
                        // Route to the minting plane (realm-tagged).
                        for (realm, p) in &planes {
                            if *realm == t.realm {
                                p.write().revoke_serial(serial);
                            }
                        }
                    }
                }
                _ => {
                    now += SimDuration::from_secs(dt);
                    mesh.pump(now);
                }
            }
        }

        // Let one full anti-entropy period (plus wire slack) elapse.
        let settle = now + cfg.anti_entropy + cfg.feed_interval + SimDuration::from_secs(5);
        mesh.pump(settle);

        for (site, _) in &planes {
            for (issuer, plane) in &planes {
                if site == issuer {
                    continue;
                }
                let replica = mesh.replica(*site, *issuer).unwrap();
                let issuer_log = plane.read().revocations_since(0);
                prop_assert_eq!(
                    replica.applied_seq(),
                    issuer_log.len() as u64,
                    "replica of {} at {} must reach the issuer frontier",
                    issuer, site
                );
                let replica_knows: BTreeSet<CredSerial> =
                    issuer_log.iter().filter(|s| replica.is_revoked(**s)).copied().collect();
                let issuer_set: BTreeSet<CredSerial> = issuer_log.iter().copied().collect();
                prop_assert_eq!(replica.revoked_count(), issuer_set.len());
                prop_assert_eq!(replica_knows, issuer_set, "replica must hold the full set");
                // Freshness is inside the budget once traffic flows again.
                prop_assert!(replica.lag(settle) <= cfg.max_lag);
            }
        }

        // (2) every still-window-valid revoked token is rejected at every
        // sister; unrevoked live tokens still validate.
        for t in &minted {
            let issuer_plane = &planes.iter().find(|(r, _)| *r == t.realm).unwrap().1;
            let revoked = matches!(
                issuer_plane.read().validate_token(t),
                Err(CredError::Revoked(_))
            );
            let expired = settle >= t.expires;
            for (site, _) in &planes {
                if *site == t.realm {
                    continue;
                }
                let verdict = mesh.validate_token_at(*site, t, settle);
                if revoked {
                    prop_assert_eq!(
                        verdict,
                        Err(CredError::Revoked(t.serial)),
                        "a serial revoked at {} must be rejected at {} within budget",
                        t.realm, site
                    );
                } else if !expired {
                    prop_assert_eq!(verdict.unwrap(), t.user);
                }
            }
        }
    }

    /// (3): sever every feed into one site; validation fails closed exactly
    /// when the replica's lag crosses the budget — never open.
    #[test]
    fn lag_beyond_budget_fails_closed(
        budget_secs in 60u64..600,
        over in 1u64..100,
    ) {
        let cfg = RevSyncConfig {
            feed_interval: SimDuration::from_secs(5),
            anti_entropy: SimDuration::from_secs(30),
            max_lag: SimDuration::from_secs(budget_secs),
            ..RevSyncConfig::default()
        };
        let (db, users, mut mesh, planes) = mesh_of(2, cfg);
        let (sister, sister_plane) = (planes[1].0, planes[1].1.clone());
        let home = planes[0].0;
        let token = sister_plane.write().login(&db, users[0], None).unwrap();

        mesh.set_partitioned(sister, home, true);
        // The lag at any instant past the last sync dates that sync.
        let probe = SimTime::from_secs(1 << 30);
        let last_sync = probe - mesh.replica(home, sister).unwrap().lag(probe);

        // At the edge: still answering.
        let edge = last_sync + cfg.max_lag;
        mesh.pump(edge);
        prop_assert_eq!(mesh.validate_token_at(home, &token, edge).unwrap(), users[0]);

        // Past the edge: refused outright, and the refusal names the realm.
        let past = edge + SimDuration::from_secs(over);
        mesh.pump(past);
        let verdict = mesh.validate_token_at(home, &token, past);
        prop_assert!(
            matches!(verdict, Err(CredError::StaleReplica { realm, .. }) if realm == sister),
            "expected StaleReplica, got {:?}",
            verdict
        );
    }

    /// (4) regression: whatever deltas arrive — gappy, overlapping, stale,
    /// or fabricated — a replica never forgets a revocation.
    #[test]
    fn replica_state_never_unrevokes_a_serial(
        deltas in proptest::collection::vec(
            (1u64..12, proptest::collection::vec(0u64..40, 0..6), 0u64..500),
            1..30,
        ),
    ) {
        let issuer = RealmId(2);
        let broker = CredentialBroker::new(issuer, 7, BrokerPolicy::default());
        let mut replica =
            CrlReplica::bootstrap(issuer, broker.verifier(), vec![], SimTime::ZERO);
        let mut ever_revoked: BTreeSet<CredSerial> = BTreeSet::new();

        for (first_seq, serials, as_of) in deltas {
            let serials: Vec<CredSerial> = serials.into_iter().map(CredSerial).collect();
            let delta = CrlDelta {
                issuer,
                first_seq,
                head: first_seq - 1 + serials.len() as u64,
                serials,
                as_of: SimTime::from_secs(as_of),
                trace: hpc_user_separation::obs::TraceCtx::NONE,
            };
            let before = replica.applied_seq();
            match replica.apply(&delta) {
                ApplyOutcome::Applied(_) => {
                    for (i, s) in delta.serials.iter().enumerate() {
                        if delta.first_seq + i as u64 > before {
                            ever_revoked.insert(*s);
                        }
                    }
                }
                ApplyOutcome::Gap { expected } => {
                    prop_assert_eq!(expected, before + 1);
                    prop_assert_eq!(replica.applied_seq(), before, "gap applies nothing");
                }
            }
            // THE invariant: everything ever learned stays revoked.
            for s in &ever_revoked {
                prop_assert!(
                    replica.is_revoked(*s),
                    "replica un-revoked {} after a delta",
                    s
                );
            }
            // And the frontier never moves backwards.
            prop_assert!(replica.applied_seq() >= before);
        }
    }
}

/// End-to-end determinism: the same mesh run twice produces byte-identical
/// metrics (loss draws are seeded) — the property suite above relies on it.
#[test]
fn mesh_runs_are_deterministic() {
    let run = || {
        let cfg = RevSyncConfig {
            feed_interval: SimDuration::from_secs(5),
            anti_entropy: SimDuration::from_secs(60),
            push_loss: 0.5,
            ..RevSyncConfig::default()
        };
        let (db, users, mut mesh, planes) = mesh_of(3, cfg);
        for k in 0..10u64 {
            let (_, plane) = &planes[(k % 3) as usize];
            let _ = plane.write().login(&db, users[(k % 4) as usize], None);
            plane.write().revoke_user(users[(k % 4) as usize]);
            mesh.pump(SimTime::from_secs(7 * (k + 1)));
        }
        mesh.pump(SimTime::from_secs(300));
        format!("{:?}", mesh.metrics)
    };
    assert_eq!(run(), run());
}

/// Propagation tracks feed cadence: across 2–8-realm meshes, a serial
/// revoked at its issuer is rejected at every sister within one feed
/// interval plus a second of wire time when pushes are lossless, and within
/// one anti-entropy round of that when half the pushes are lost — inside
/// the staleness budget either way. Revocations land at staggered phases
/// of the feed.
#[test]
fn revocations_reach_every_sister_within_one_feed_interval() {
    for (realms, feed_s, anti_entropy_s, push_loss) in [
        (2, 2, 300, 0.0),
        (2, 10, 300, 0.0),
        (4, 10, 300, 0.0),
        (8, 10, 300, 0.0),
        (4, 30, 300, 0.0),
        (4, 60, 300, 0.0),
        (4, 10, 60, 0.5),
    ] {
        let cfg = RevSyncConfig {
            feed_interval: SimDuration::from_secs(feed_s),
            anti_entropy: SimDuration::from_secs(anti_entropy_s),
            push_loss,
            ..RevSyncConfig::default()
        };
        let wire = SimDuration::from_secs(1);
        let bound = if push_loss == 0.0 {
            cfg.feed_interval + wire
        } else {
            cfg.anti_entropy + cfg.feed_interval + wire
        };
        assert!(bound <= cfg.max_lag);
        let (db, users, mut mesh, planes) = mesh_of(realms, cfg);
        let (issuer, plane) = planes.last().unwrap();
        for k in 0..5u64 {
            let t0 = SimTime::from_secs(100 * (k + 1)) + SimDuration::from_millis(1700 * k);
            let token = plane.write().login(&db, users[0], None).unwrap();
            mesh.pump(t0);
            plane.write().revoke_user(users[0]);
            let mut t = t0;
            while !planes[..planes.len() - 1].iter().all(|(site, _)| {
                mesh.validate_token_at(*site, &token, t) == Err(CredError::Revoked(token.serial))
            }) {
                assert!(
                    t.since(t0) < bound,
                    "{realms} realms, feed {feed_s} s, loss {push_loss}: revocation {k} \
                     from {issuer} not everywhere within {bound}"
                );
                t += SimDuration::from_millis(100);
                mesh.pump(t);
            }
        }
    }
}
