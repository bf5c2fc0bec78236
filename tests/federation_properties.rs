//! Federation-layer properties:
//!
//! 1. the home site's trust policy never accepts a credential from a
//!    registered realm off its allow-list, nor from a realm nobody
//!    registered;
//! 2. the home plane's clock is one clock, and it is the published one:
//!    through any interleaving of logins, `revoke_user` / `revoke_serial` /
//!    `sweep_expired`, clock-skew apply / heal and every way a plane can be
//!    advanced, the cell the revocation mesh reads without a guard is
//!    `plane.now()`, and every live, revoked, forged and re-stamped token
//!    is judged exactly as a lone [`CredentialBroker`] fed the same ops
//!    judges it;
//! 3. (`--cfg lock_order_check` builds) a home-token validation and each
//!    session gate (`authorize_ssh`, `authorize_submit_at`,
//!    `validate_serial`) acquire exactly one lock, a sister-token
//!    validation and `replica_lag` none; `ssh_raw` takes one lock per login
//!    gate it runs.

use eus_fedauth::{shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SignedToken};
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Uid, UserDb};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Trust-policy soundness: whatever realms exist and whatever the
    /// allow-list, a token from a non-allow-listed realm NEVER validates at
    /// the home site.
    #[test]
    fn trust_policy_never_accepts_a_non_allow_listed_realm(
        realm_ids in proptest::collection::vec(2u32..40, 1..6),
        trusted_mask in 0u8..64,
        probe in 0u8..6,
    ) {
        use hpc_user_separation::HOME_REALM;
        let mut realms: Vec<RealmId> = Vec::new();
        for rid in realm_ids {
            if !realms.contains(&RealmId(rid)) {
                realms.push(RealmId(rid)); // skip duplicate ids in the generated vec
            }
        }
        let trusted = |i: usize| trusted_mask & (1 << i) != 0;
        let allow_list: Vec<u32> = (0..realms.len()).filter(|&i| trusted(i)).map(|i| realms[i].0).collect();

        // The federation: home + N registered sister realms, a subset of
        // them on the home site's allow-list.
        let cfg = SeparationConfig::llsc().with_trusted_realms(allow_list);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        let mut sisters = Vec::new();
        for (i, &realm) in realms.iter().enumerate() {
            let plane = shared_broker(CredentialBroker::new(
                realm,
                100 + i as u64,
                BrokerPolicy::default(),
            ));
            c.register_sister_realm(realm, plane.clone());
            sisters.push((realm, plane, trusted(i)));
        }

        // Every sister logs alice in; the home site judges each token.
        for (realm, plane, trusted) in &sisters {
            let token = c.login_at(plane, alice).unwrap();
            let verdict = c.validate_federated_token(&token);
            if *trusted {
                prop_assert_eq!(verdict.unwrap(), alice, "allow-listed {} must pass", realm);
            } else {
                prop_assert_eq!(
                    verdict,
                    Err(CredError::UntrustedRealm { ours: HOME_REALM, theirs: *realm }),
                    "non-allow-listed {} must fail closed",
                    realm
                );
            }
        }

        // And a realm that exists nowhere (not even registered) is refused
        // regardless of the mask.
        let ghost = RealmId(1000 + probe as u32);
        let rogue = shared_broker(CredentialBroker::new(ghost, 7, BrokerPolicy::default()));
        let forged = c.login_at(&rogue, alice).unwrap();
        prop_assert!(c.validate_federated_token(&forged).is_err());
    }

    /// Plane-level clock coherence and verdict equivalence: the clock the
    /// mesh reads with no guard is `plane.now()` however the plane was
    /// advanced, it is the clock logins stamp, it never runs backwards —
    /// and every verdict, at the plane and through the façade, is the
    /// lone-broker model's.
    #[test]
    fn plane_clock_is_coherent_under_skew(
        tape in proptest::collection::vec((0u8..9, 0u8..8), 1..48),
    ) {
        use hpc_user_separation::HOME_REALM;
        struct Site {
            c: SecureCluster,
            users: Vec<Uid>,
            minted: Vec<SignedToken>,
        }
        impl Site {
            fn new() -> Self {
                let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
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
            fn login(&mut self, k: usize) -> SignedToken {
                let plane = self.c.broker.clone().unwrap();
                let t = self.c.login_at(&plane, self.users[k % self.users.len()]).unwrap();
                self.minted.push(t);
                t
            }
        }
        /// A verdict with the one payload the plane and the model need not
        /// share (a token's own serial) named, not numbered.
        fn verdict(t: &SignedToken, r: Result<Uid, CredError>) -> String {
            match r {
                Err(CredError::Revoked(s)) if s == t.serial => "Err(Revoked(own serial))".into(),
                other => format!("{other:?}"),
            }
        }
        let forged = |t: &SignedToken| SignedToken { user: Uid(t.user.0 + 1000), ..*t };
        let restamped = |t: &SignedToken| SignedToken { realm: RealmId(2), ..*t };

        let mut site = Site::new();
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
            let plane = site.c.broker.clone().unwrap();
            let mut swept = None;
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
                7 => swept = Some(plane.write().sweep_expired()),
                // Through the mesh's handle, past the scheduler's clock.
                _ => {
                    let t = fed + SimDuration::from_secs(arg as u64 * 500);
                    let mesh = site.c.revsync.as_ref().unwrap();
                    mesh.plane(HOME_REALM).unwrap().write().advance_to(t);
                }
            }
            let now = site.plane_now();
            prop_assert_eq!(plane.read().clock().now(), now);
            prop_assert_eq!(
                site.c.revsync.as_ref().unwrap().now_at(HOME_REALM),
                Some(now),
                "the mesh reads another clock after action {}", action
            );
            fed = site.c.sched.read().now();
            prop_assert!(now >= last && now >= fed, "plane clock ran backwards");
            last = now;

            // The same op at the model, which takes the instant as given.
            match action {
                4 => {
                    let u = Uid(site.minted.last().unwrap().user.0);
                    model_minted.push(model.login(&db, u, None).unwrap());
                }
                5 => model.revoke_user(site.users[arg as usize]),
                6 => {
                    let serial = model_minted[arg as usize * 5 % model_minted.len()].serial;
                    model.revoke_serial(serial);
                }
                7 => prop_assert_eq!(swept, Some(model.sweep_expired()), "sweep counts"),
                _ => {}
            }
            model.advance_to(now);

            prop_assert_eq!(site.minted.len(), model_minted.len());
            for (i, (t, m)) in site.minted.iter().zip(&model_minted).enumerate() {
                prop_assert_eq!((t.user, t.issued, t.expires), (m.user, m.issued, m.expires));
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

/// Guard counts on the validate routes and the session gates, from the
/// lock-order build's per-thread acquisition counter: a home token is
/// judged under exactly one guard (the home plane's read guard), and
/// `authorize_ssh`, `authorize_submit_at` and `validate_serial` read the
/// session table under that same one guard; a sister token and
/// `replica_lag` take none — whatever the verdict.
#[cfg(lock_order_check)]
#[test]
fn a_home_validation_takes_one_guard_and_a_sister_validation_none() {
    let sister_realm = RealmId(2);
    let cfg = SeparationConfig::llsc().with_trusted_realms(vec![sister_realm.0]);
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
    let now = c.sched.read().now();

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
        assert_eq!(n, 1, "home validation");

        let (n, r) = guards(|| home.read().authorize_ssh(u));
        assert_eq!(r.is_ok(), want_ok, "authorize_ssh of user {i}: {r:?}");
        assert_eq!(n, 1, "authorize_ssh");
        let (n, r) = guards(|| home.read().authorize_submit_at(u, now));
        assert_eq!(r.is_ok(), want_ok, "authorize_submit_at of user {i}: {r:?}");
        assert_eq!(n, 1, "authorize_submit_at");
        let (n, r) = guards(|| home.read().validate_serial(u, token.serial));
        assert_eq!(r.is_ok(), want_ok, "validate_serial of user {i}: {r:?}");
        assert_eq!(n, 1, "validate_serial");

        let (n, r) = guards(|| c.validate_federated_token(&sister_tokens[i]));
        assert_eq!(r.is_ok(), i != 0, "sister token of user {i}: {r:?}");
        assert_eq!(n, 0, "sister validation");
    }
    let (n, lag) = guards(|| c.replica_lag(sister_realm));
    assert!(lag.is_some());
    assert_eq!(n, 0, "replica_lag");
}

/// Lock acquisitions `f` makes on this thread, and its result.
#[cfg(lock_order_check)]
fn guards<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = parking_lot::acquisitions();
    let r = f();
    (parking_lot::acquisitions() - before, r)
}

/// Guard counts on `ssh_raw`: each login gate takes its one guard and
/// drops it before the next — the user db (every login), the broker
/// (every node under `federated_auth`), the scheduler (compute nodes
/// under `pam_slurm`) — so an `llsc()` compute-node login takes 3, a
/// login-node login 2, and a `baseline()` login 1, whatever the verdict.
#[cfg(lock_order_check)]
#[test]
fn ssh_raw_takes_one_guard_per_gate() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let (compute, login) = (c.compute_ids[0], c.login_node());
    let (n, r) = guards(|| c.ssh_raw(alice, compute));
    assert!(r.is_err(), "no job on {compute} yet");
    assert_eq!(n, 3, "llsc compute node, refused");
    c.submit(eus_sched::JobSpec::new(
        alice,
        "j",
        SimDuration::from_secs(100),
    ));
    c.advance_to(SimTime::from_secs(1));
    let (n, r) = guards(|| c.ssh_raw(alice, compute));
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(n, 3, "llsc compute node, allowed");
    let (n, r) = guards(|| c.ssh_raw(alice, login));
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(n, 2, "llsc login node");

    let mut c = SecureCluster::new(SeparationConfig::baseline(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    for node in [c.compute_ids[0], c.login_node()] {
        let (n, r) = guards(|| c.ssh_raw(alice, node));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(n, 1, "baseline {node}");
    }
}

#[test]
fn federated_portal_sessions_scale_and_sweep() {
    // A portal fronting the plane at modest scale: many logins, all
    // distinct, all resolvable, revocations immediate, sweeps bounded.
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
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
