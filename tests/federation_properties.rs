//! Federation-layer properties:
//!
//! 1. a [`ShardedBroker`] is **observationally equivalent** to a single
//!    [`CredentialBroker`] — the same accept/reject decision for every
//!    login/validate/revoke/sweep sequence (token *material* differs, the
//!    decisions never do);
//! 2. a [`TrustPolicy`]-governed federation never accepts a credential from
//!    a realm off the allow-list, whatever the op interleaving;
//! 3. the home plane's clock is one clock, and it is the published one:
//!    through any interleaving of shared-path logins (taken under the
//!    plane's *read* guard), `revoke_user` / `revoke_serial` /
//!    `sweep_expired`, clock-skew apply / heal and every way a plane can be
//!    advanced, the cell the federation directory reads without a guard is
//!    `plane.now()`, and every live, revoked, forged and re-stamped token
//!    is judged exactly as a lone [`CredentialBroker`] fed the same ops
//!    judges it — at 1 and 4 shards;
//! 4. (`--cfg lock_order_check` builds) a home-token validation acquires
//!    exactly one lock, a sister-token validation and `replica_lag` none.

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

    /// Plane-level clock coherence and verdict equivalence: the clock the
    /// directory reads with no guard is `plane.now()` however the plane was
    /// advanced, it is the clock shared-path logins stamp on every shard,
    /// it never runs backwards and never shows the shard count — and every
    /// verdict, at the plane and through the façade, is the lone-broker
    /// model's.
    #[test]
    fn plane_clock_is_coherent_and_shard_count_invariant_under_skew(
        tape in proptest::collection::vec((0u8..9, 0u8..8), 1..48),
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
                let users: Vec<Uid> =
                    (0..8).map(|i| c.add_user(&format!("u{i}")).unwrap()).collect();
                // Provisioning logged each account in once.
                let plane = c.broker.clone().unwrap();
                let minted = users.iter().map(|&u| plane.read().current_token(u).unwrap()).collect();
                Site { c, users, minted }
            }
            fn plane_now(&self) -> SimTime {
                self.c.broker.as_ref().unwrap().read().now()
            }
            /// Shared-path login — the plane's *read* guard held across it
            /// — where the plane has one (the sharded plane), exclusive
            /// otherwise.
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
        /// A verdict with the one payload that differs between planes (a
        /// token's own serial: shards mint in residue classes) named, not
        /// numbered.
        fn verdict(t: &SignedToken, r: Result<Uid, CredError>) -> String {
            match r {
                Err(CredError::Revoked(s)) if s == t.serial => "Err(Revoked(own serial))".into(),
                other => format!("{other:?}"),
            }
        }
        let forged = |t: &SignedToken| SignedToken { user: Uid(t.user.0 + 1000), ..*t };
        let restamped = |t: &SignedToken| SignedToken { realm: RealmId(2), ..*t };

        let mut single = Site::new(1);
        let mut sharded = Site::new(4);
        // The model: one broker, no cluster, no lock — the same accounts
        // logged in at the same instants.
        let mut db = UserDb::new();
        let mut model = CredentialBroker::new(HOME_REALM, 7, BrokerPolicy::default());
        let mut model_minted: Vec<SignedToken> = (0..8)
            .map(|i| {
                let u = db.create_user(&format!("u{i}")).unwrap();
                model.login(&db, u, None).unwrap()
            })
            .collect();
        let mut fed = SimTime::ZERO;
        let mut last = SimTime::ZERO;

        for (action, arg) in tape {
            let mut swept = Vec::new();
            for site in [&mut single, &mut sharded] {
                let plane = site.c.broker.clone().unwrap();
                match action {
                    // Forward (or repeated: dt = 0) federation ticks.
                    0 => {
                        let dt = [0, 1, 59, 600, 3_000, 20_000, 43_000, 90_000][arg as usize];
                        site.c.advance_to(fed + SimDuration::from_secs(dt));
                    }
                    // Straight at the plane: a backwards instant, or one
                    // ahead of the federation's.
                    1 => {
                        let to = if arg % 2 == 0 {
                            fed.as_micros().saturating_sub(arg as u64 * 7_000_000)
                        } else {
                            fed.as_micros() + arg as u64 * 7_000_000
                        };
                        plane.write().advance_to(SimTime::from_micros(to));
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
                        let near = site.minted[0].expires - SimDuration::from_secs(1_800);
                        if near > fed {
                            site.c.advance_to(near);
                        }
                    }
                    4 => {
                        let t = site.login(arg as usize);
                        prop_assert_eq!(t.issued, site.plane_now(), "login stamps the plane clock");
                    }
                    5 => plane.write().revoke_user(site.users[arg as usize]),
                    6 => {
                        let serial = site.minted[arg as usize * 5 % site.minted.len()].serial;
                        plane.write().revoke_serial(serial);
                    }
                    7 => swept.push(plane.write().sweep_expired()),
                    // Through the directory, past the scheduler's clock.
                    _ => {
                        let t = fed + SimDuration::from_secs(arg as u64 * 500);
                        site.c.federation.as_mut().unwrap().advance_to(t);
                    }
                }
                let now = site.plane_now();
                prop_assert_eq!(plane.read().clock().now(), now);
                prop_assert_eq!(
                    site.c.federation.as_ref().unwrap().now_at(HOME_REALM),
                    Some(now),
                    "the directory reads another clock after action {}", action
                );
            }
            fed = sharded.c.sched.read().now();
            prop_assert_eq!(single.c.sched.read().now(), fed);
            let now = sharded.plane_now();
            prop_assert_eq!(single.plane_now(), now, "shard count showed in the clock");
            prop_assert!(now >= last && now >= fed, "plane clock ran backwards");
            last = now;

            // The same op at the model, which takes the instant as given.
            match action {
                4 => {
                    let u = Uid(sharded.minted.last().unwrap().user.0);
                    model_minted.push(model.login(&db, u, None).unwrap());
                }
                5 => model.revoke_user(sharded.users[arg as usize]),
                6 => {
                    let serial = model_minted[arg as usize * 5 % model_minted.len()].serial;
                    model.revoke_serial(serial);
                }
                7 => prop_assert_eq!(swept, vec![model.sweep_expired(); 2], "sweep counts"),
                _ => {}
            }
            model.advance_to(now);

            prop_assert_eq!(single.minted.len(), model_minted.len());
            prop_assert_eq!(sharded.minted.len(), model_minted.len());
            for (i, m) in model_minted.iter().enumerate() {
                for site in [&single, &sharded] {
                    let t = &site.minted[i];
                    prop_assert_eq!((t.user, t.issued, t.expires), (m.user, m.issued, m.expires));
                    let plane = site.c.broker.as_ref().unwrap();
                    for (probe, at_model) in [
                        (*t, *m),
                        (forged(t), forged(m)),
                        (restamped(t), restamped(m)),
                    ] {
                        let want = verdict(m, model.validate_token(&at_model));
                        prop_assert_eq!(
                            &verdict(t, plane.read().validate_token(&probe)), &want,
                            "plane verdict on token {} after action {}", i, action
                        );
                        let facade = verdict(t, site.c.validate_federated_token(&probe));
                        if probe.realm == HOME_REALM {
                            prop_assert_eq!(facade, want, "façade verdict on token {}", i);
                        } else {
                            prop_assert_eq!(
                                facade,
                                format!("{:?}", Err::<Uid, _>(CredError::UntrustedRealm {
                                    ours: HOME_REALM,
                                    theirs: probe.realm,
                                }))
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Guard counts on the validate routes, from the lock-order build's
/// per-thread acquisition counter: a home token is judged under exactly one
/// guard (the home plane's read guard — no shard's), a sister token and
/// `replica_lag` under none, whatever the verdict and the shard count.
#[cfg(lock_order_check)]
#[test]
fn a_home_validation_takes_one_guard_and_a_sister_validation_none() {
    fn guards<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = parking_lot::acquisitions();
        let r = f();
        (parking_lot::acquisitions() - before, r)
    }
    let sister_realm = RealmId(2);
    for shards in [1, 4] {
        let cfg = SeparationConfig::llsc()
            .with_broker_shards(shards)
            .with_trusted_realms(vec![sister_realm.0]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let users: Vec<Uid> = (0..6)
            .map(|i| c.add_user(&format!("u{i}")).unwrap())
            .collect();
        let home = c.broker.clone().unwrap();
        let sister = shared_broker(CredentialBroker::new(
            sister_realm,
            9,
            BrokerPolicy::default(),
        ));
        let sister_tokens: Vec<SignedToken> = users
            .iter()
            .map(|&u| c.login_at(&sister, u).unwrap())
            .collect();
        c.register_sister_realm(sister_realm, sister.clone());
        // One revoked credential on each route, delivered by the feed.
        home.write().revoke_user(users[0]);
        sister.write().revoke_user(users[0]);
        c.advance_to(SimTime::from_secs(60));

        for (i, &u) in users.iter().enumerate() {
            let live = home.read().current_token(u);
            // users[0] was revoked: its sessions are gone, judge a forgery
            // of a neighbour's token instead.
            let (token, want_ok) = match live {
                Some(t) => (t, true),
                None => {
                    let t = home.read().current_token(users[1]).unwrap();
                    (SignedToken { user: u, ..t }, false)
                }
            };
            let (n, r) = guards(|| c.validate_federated_token(&token));
            assert_eq!(r.is_ok(), want_ok, "home token of user {i}: {r:?}");
            assert_eq!(n, 1, "home validation at {shards} shard(s)");

            let (n, r) = guards(|| c.validate_federated_token(&sister_tokens[i]));
            assert_eq!(r.is_ok(), i != 0, "sister token of user {i}: {r:?}");
            assert_eq!(n, 0, "sister validation at {shards} shard(s)");
        }
        let (n, lag) = guards(|| c.replica_lag(sister_realm));
        assert!(lag.is_some());
        assert_eq!(n, 0, "replica_lag at {shards} shard(s)");
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
