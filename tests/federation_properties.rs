//! Federation-layer properties:
//!
//! 1. a [`ShardedBroker`] is **observationally equivalent** to a single
//!    [`CredentialBroker`] — the same accept/reject decision for every
//!    login/validate/revoke/sweep sequence (token *material* differs, the
//!    decisions never do);
//! 2. a [`TrustPolicy`]-governed federation never accepts a credential from
//!    a realm off the allow-list, whatever the op interleaving;
//! 3. the home plane's clock is one clock: through any interleaving of
//!    `advance_to`, clock-skew apply / heal and shared-path logins, a
//!    sharded plane reads the instant every one of its shards stamps, and
//!    a token expiring inside the skew window dies at the same instant at
//!    1 and 4 shards.

use eus_fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, CredentialPlane, FederationDirectory,
    RealmId, ShardedBroker, SignedToken, TrustPolicy,
};
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};
use proptest::prelude::*;

/// Collapse a decision to its observable shape: accept, or which kind of
/// refusal. Serial numbers and timestamps inside errors are
/// implementation-specific (shards partition the serial space), so compare
/// variants, not payloads.
fn shape<T>(r: &Result<T, CredError>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(CredError::UnknownUser(_)) => "unknown-user",
        Err(CredError::MfaRequired) => "mfa-required",
        Err(CredError::MfaInvalid) => "mfa-invalid",
        Err(CredError::NotYetValid { .. }) => "not-yet-valid",
        Err(CredError::Expired { .. }) => "expired",
        Err(CredError::RealmMismatch { .. }) => "realm-mismatch",
        Err(CredError::UntrustedRealm { .. }) => "untrusted-realm",
        Err(CredError::UnknownRealm(_)) => "unknown-realm",
        Err(CredError::TrustExpired { .. }) => "trust-expired",
        Err(CredError::StaleReplica { .. }) => "stale-replica",
        Err(CredError::BadSignature) => "bad-signature",
        Err(CredError::Revoked(_)) => "revoked",
        Err(CredError::NoCredential(_)) => "no-credential",
        Err(CredError::Unavailable) => "unavailable",
    }
}

/// One credential plane under test, with the tokens it has minted so far
/// (the i-th minted token corresponds across planes).
struct Driver {
    plane: Box<dyn CredentialPlane>,
    minted: Vec<SignedToken>,
    clock: SimTime,
}

impl Driver {
    fn new(plane: Box<dyn CredentialPlane>) -> Self {
        Driver {
            plane,
            minted: Vec::new(),
            clock: SimTime::ZERO,
        }
    }

    /// Apply one op; return its observable outcome.
    fn step(&mut self, db: &UserDb, users: &[Uid], op: (u8, u8)) -> String {
        let (action, subject) = op;
        let user = users[subject as usize % users.len()];
        match action % 7 {
            0 => {
                let r = self.plane.login(db, user, None);
                let s = shape(&r);
                if let Ok(t) = r {
                    self.minted.push(t);
                }
                format!("login:{s}")
            }
            1 => match self.minted.get(subject as usize) {
                Some(t) => {
                    let t = *t;
                    format!("validate:{}", shape(&self.plane.validate_token(&t)))
                }
                None => "validate:none".to_string(),
            },
            2 => {
                let r = self.plane.authorize_submit(user);
                format!("submit:{}", shape(&r))
            }
            3 => {
                self.plane.revoke_user(user);
                "revoke-user".to_string()
            }
            4 => match self.minted.get(subject as usize) {
                Some(t) => {
                    let serial = t.serial;
                    self.plane.revoke_serial(serial);
                    "revoke-serial".to_string()
                }
                None => "revoke-serial:none".to_string(),
            },
            5 => {
                self.clock += SimDuration::from_secs(3600 * subject as u64);
                self.plane.advance_to(self.clock);
                "advance".to_string()
            }
            _ => format!("sweep:{}", self.plane.sweep_expired()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Same op sequence, same decisions — for every shard count.
    #[test]
    fn sharded_broker_is_observationally_equivalent_to_single(
        ops in proptest::collection::vec((0u8..7, 0u8..8), 1..80),
        shards in 2u8..9,
    ) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..5)
            .map(|i| db.create_user(&format!("u{i}")).unwrap())
            .collect();
        let policy = BrokerPolicy::default();
        let mut single = Driver::new(Box::new(CredentialBroker::new(RealmId(1), 42, policy)));
        let mut sharded = Driver::new(Box::new(ShardedBroker::new(
            RealmId(1),
            42,
            shards as usize,
            policy,
        )));

        for op in ops {
            let a = single.step(&db, &users, op);
            let b = sharded.step(&db, &users, op);
            prop_assert_eq!(&a, &b, "decision diverged on op {:?}", op);
            // Observable aggregate state tracks too.
            prop_assert_eq!(
                single.plane.live_sessions(),
                sharded.plane.live_sessions(),
                "session counts diverged after {:?}",
                op
            );
        }
        // Final cross-check: every minted token judges identically.
        for (ts, tsh) in single.minted.iter().zip(&sharded.minted) {
            prop_assert_eq!(
                shape(&single.plane.validate_token(ts)),
                shape(&sharded.plane.validate_token(tsh))
            );
        }
    }

    /// Trust-policy soundness: whatever realms exist and whatever the
    /// allow-list, a token from a non-allow-listed realm NEVER validates at
    /// the home site.
    #[test]
    fn trust_policy_never_accepts_a_non_allow_listed_realm(
        realm_ids in proptest::collection::vec(2u32..40, 1..6),
        trusted_mask in 0u8..64,
        probe in 0u8..6,
    ) {
        let home = RealmId(1);
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();

        // Build the federation: home + N sister realms, a subset trusted.
        let mut trust = TrustPolicy::home_only(home);
        let mut dir = FederationDirectory::new();
        dir.register(
            home,
            shared_broker(CredentialBroker::new(home, 1, BrokerPolicy::default())),
            TrustPolicy::home_only(home), // placeholder, replaced below
        );
        let mut sisters = Vec::new();
        for (i, rid) in realm_ids.iter().enumerate() {
            let realm = RealmId(*rid);
            if dir.plane(realm).is_some() {
                continue; // duplicate id in the generated vec
            }
            let trusted = trusted_mask & (1 << i) != 0;
            if trusted {
                trust.trust(realm);
            }
            let plane = shared_broker(CredentialBroker::new(
                realm,
                100 + i as u64,
                BrokerPolicy::default(),
            ));
            dir.register(realm, plane.clone(), TrustPolicy::home_only(realm));
            sisters.push((realm, plane, trusted));
        }
        let home_plane = dir.plane(home).unwrap().clone();
        dir.register(home, home_plane, trust.clone());

        // Every sister logs alice in; the home site judges each token.
        for (realm, plane, trusted) in &sisters {
            let token = plane.write().login(&db, alice, None).unwrap();
            let verdict = dir.validate_token_at(home, &token);
            if *trusted {
                prop_assert_eq!(verdict.unwrap(), alice, "allow-listed {} must pass", realm);
            } else {
                prop_assert_eq!(
                    verdict,
                    Err(CredError::UntrustedRealm { ours: home, theirs: *realm }),
                    "non-allow-listed {} must fail closed",
                    realm
                );
            }
        }

        // And a realm that exists nowhere (not even registered) is refused
        // regardless of the mask.
        let ghost = RealmId(1000 + probe as u32);
        let mut rogue = CredentialBroker::new(ghost, 7, BrokerPolicy::default());
        let forged = rogue.login(&db, alice, None).unwrap();
        prop_assert!(dir.validate_token_at(home, &forged).is_err());
    }

    /// Plane-level clock coherence: the clock `ShardedBroker::now()` reads
    /// without a shard lock is the clock shared-path logins stamp on every
    /// shard, it never runs backwards, and neither it nor any verdict that
    /// depends on it shows the shard count.
    #[test]
    fn plane_clock_is_coherent_and_shard_count_invariant_under_skew(
        tape in proptest::collection::vec((0u8..5, 0u8..8), 1..48),
    ) {
        use hpc_user_separation::HOME_REALM;
        struct Site {
            c: SecureCluster,
            users: Vec<Uid>,
            minted: Vec<SignedToken>,
        }
        impl Site {
            fn new(shards: u32) -> Self {
                let cfg = SeparationConfig::llsc().with_broker_shards(shards);
                let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
                let users = (0..8).map(|i| c.add_user(&format!("u{i}")).unwrap()).collect();
                Site { c, users, minted: Vec::new() }
            }
            fn plane_now(&self) -> SimTime {
                self.c.broker.as_ref().unwrap().read().now()
            }
            /// Shared-path login where the plane has one (the sharded
            /// plane), exclusive otherwise.
            fn login(&mut self, k: usize) -> SignedToken {
                let plane = self.c.broker.clone().unwrap();
                let user = self.users[k % self.users.len()];
                let db = self.c.db.read();
                let shared = plane.read().try_login_shared(&db, user, None);
                let t = match shared {
                    Some(r) => r.unwrap(),
                    None => plane.write().login(&db, user, None).unwrap(),
                };
                drop(db);
                self.minted.push(t);
                t
            }
        }
        let mut single = Site::new(1);
        let mut sharded = Site::new(4);
        let mut fed = SimTime::ZERO;
        let mut last = SimTime::ZERO;

        for (action, arg) in tape {
            for site in [&mut single, &mut sharded] {
                match action {
                    // Forward (or repeated: dt = 0) federation ticks.
                    0 => {
                        let dt = [0, 1, 59, 600, 3_000, 20_000, 43_000, 90_000][arg as usize];
                        site.c.advance_to(fed + SimDuration::from_secs(dt));
                    }
                    // A backwards instant, straight at the plane.
                    1 => {
                        let back = SimTime::from_micros(
                            fed.as_micros().saturating_sub(arg as u64 * 7_000_000),
                        );
                        site.c.broker.as_ref().unwrap().write().advance_to(back);
                    }
                    // Skew apply / heal on the home plane, then a tick so
                    // it takes effect.
                    2 => {
                        let ahead = [0, 0, 30, 30, 3_600, 3_600, 40_000, 7][arg as usize];
                        site.c.set_realm_clock_skew(HOME_REALM, SimDuration::from_secs(ahead));
                        site.c.advance_to(fed);
                    }
                    // Up to the last half hour of the oldest token's life:
                    // inside a one-hour skew it is already dead.
                    3 => {
                        if let Some(t) = site.minted.first() {
                            let near = t.expires - SimDuration::from_secs(1_800);
                            if near > fed {
                                site.c.advance_to(near);
                            }
                        }
                    }
                    _ => {
                        let t = site.login(arg as usize);
                        prop_assert_eq!(t.issued, site.plane_now(), "login stamps the plane clock");
                    }
                }
            }
            fed = sharded.c.sched.read().now();
            prop_assert_eq!(single.c.sched.read().now(), fed);
            let now = sharded.plane_now();
            prop_assert_eq!(single.plane_now(), now, "shard count showed in the clock");
            prop_assert!(now >= last && now >= fed, "plane clock ran backwards");
            last = now;
            for (a, b) in single.minted.iter().zip(&sharded.minted) {
                prop_assert_eq!((a.user, a.issued, a.expires), (b.user, b.issued, b.expires));
                let want = if now >= b.expires {
                    Err(CredError::Expired { until: b.expires })
                } else {
                    Ok(b.user)
                };
                prop_assert_eq!(single.c.validate_federated_token(a), want);
                prop_assert_eq!(sharded.c.validate_federated_token(b), want);
            }
        }
    }
}

#[test]
fn sharded_cluster_keeps_the_llsc_audit_clean() {
    // End-to-end: the full llsc deployment with a sharded plane (the
    // default) audits identically to the single-broker collapse.
    use hpc_user_separation::audit::run_audit;
    let llsc = run_audit(&SeparationConfig::llsc(), &ClusterSpec::tiny());
    let single = run_audit(
        &SeparationConfig::llsc().single_shard(),
        &ClusterSpec::tiny(),
    );
    let mut a = llsc.open_channels();
    let mut b = single.open_channels();
    a.sort();
    b.sort();
    assert_eq!(a, b, "sharding must not change any channel outcome");
    assert!(llsc.only_expected_residuals());
}

#[test]
fn federated_portal_sessions_scale_and_sweep_under_sharding() {
    // A portal fronting a sharded plane at modest scale: thousands of
    // logins, all distinct, all resolvable, revocations immediate, sweeps
    // bounded.
    let cfg = SeparationConfig::llsc().with_broker_shards(8);
    let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
    let users: Vec<Uid> = (0..32)
        .map(|i| c.add_user(&format!("u{i}")).unwrap())
        .collect();
    let mut tokens = Vec::new();
    for round in 0..32 {
        let u = users[round % users.len()];
        tokens.push((u, c.portal_login(u).unwrap()));
    }
    let distinct: std::collections::BTreeSet<_> = tokens.iter().map(|(_, t)| *t).collect();
    assert_eq!(distinct.len(), tokens.len(), "no portal token collisions");
    for (u, t) in &tokens {
        assert_eq!(c.portal.auth.whoami(*t).unwrap(), *u);
    }
    // Central revocation of one user kills exactly their sessions.
    let victim = users[0];
    c.broker.as_ref().unwrap().write().revoke_user(victim);
    for (u, t) in &tokens {
        if *u == victim {
            assert!(c.portal.auth.whoami(*t).is_err());
        } else {
            assert_eq!(c.portal.auth.whoami(*t).unwrap(), *u);
        }
    }
    // Portal logout revokes the backing credential by *serial*; the broker
    // entry stays resident until a sweep. The sweep now drops such
    // revoked-but-unexpired entries (satellite fix) so tables stay bounded
    // between expiry sweeps.
    let survivor = tokens.iter().find(|(u, _)| *u != victim).unwrap().1;
    let before = c.broker.as_ref().unwrap().read().live_sessions();
    assert!(c.portal.auth.logout(survivor));
    assert_eq!(
        c.broker.as_ref().unwrap().read().live_sessions(),
        before,
        "serial revocation leaves the entry resident (that's what the sweep is for)"
    );
    let removed = c.broker.as_ref().unwrap().write().sweep_expired();
    assert!(removed >= 1, "revoked sessions must be sweepable");
    assert!(c.broker.as_ref().unwrap().read().live_sessions() < before);
}
