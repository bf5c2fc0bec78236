//! `cred_churn` — credential reads beside writes. The home site trusts two
//! sister realms; 100 000 revoked serials are pre-seeded across the three
//! revocation lists. One round, 11 simulated seconds long:
//!
//! 1. 10 000 token validations at the home site — half home-realm tokens
//!    (the home plane), half sister-realm tokens (the local CRL replica);
//! 2. 10 logins with a certificate mint each: 2 through the portal at
//!    home, 4 at each sister's issuer; the fresh tokens validate;
//! 3. at a seeded phase of the feed interval, `revoke_user` for those 10
//!    at their issuers — home revocations must deny at once;
//! 4. `advance_to` second by second until the home site denies every
//!    revoked sister token (the feed delivered), which must happen within
//!    the 11 s — the revoke-at-issuer → deny-at-home latency;
//! 5. `advance_to` the end of the round.
//!
//! No job, socket or file is touched: `fedauth` and `revsync` do the work.

use super::{add_users, Deployment, RunStats, Scale, SimOutcome, World};
use crate::drive::Driver;
use eus_core::fedauth::{
    shared_broker, BrokerPolicy, CredSerial, CredentialBroker, RealmId, SharedBroker, SignedToken,
};
use eus_core::simcore::{SimDuration, SimRng, SimTime};
use eus_core::simos::Uid;
use eus_core::{ClusterSpec, SecureCluster};
use std::time::Instant;

/// The trusted sister realms.
const SISTERS: [RealmId; 2] = [RealmId(2), RealmId(3)];
/// Round length: one feed interval (10 s) plus one second.
const ROUND_S: u64 = 11;
/// Logins/revocations per round, by issuer: home, sister 2, sister 3.
const CHURN: [usize; 3] = [2, 4, 4];
/// Revoked serials pre-seeded at home and at each sister (100 000 total).
const PRESEED: [u64; 3] = [50_000, 25_000, 25_000];

/// Counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Accounts provisioned; the first half validate, the second half churn.
    pub users: usize,
    /// Validations per round (half home-realm, half cross-realm).
    pub validations: usize,
    /// Rounds per repetition.
    pub rounds: usize,
    /// Share of `PRESEED` actually seeded, in percent (smoke runs less).
    pub preseed_pct: u64,
}

impl Size {
    /// The preset for `scale`.
    pub fn of(scale: Scale) -> Size {
        match scale {
            Scale::Full => Size {
                users: 2000,
                validations: 10_000,
                rounds: 200,
                preseed_pct: 100,
            },
            Scale::Smoke => Size {
                users: 200,
                validations: 1000,
                rounds: 12,
                preseed_pct: 5,
            },
        }
    }

    /// Users `[0, steady)` hold the long-lived tokens being validated.
    fn steady(&self) -> usize {
        self.users / 2
    }
}

/// One generated round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Indices into the home token table.
    pub home_picks: Vec<u32>,
    /// Indices into the sister token table.
    pub cross_picks: Vec<u32>,
    /// Churn users by issuer (home, sister 2, sister 3).
    pub churn: [Vec<usize>; 3],
    /// Microseconds into the round at which the revocations land.
    pub revoke_phase_us: u64,
}

/// Everything the run consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The counts these inputs were generated for.
    pub size: Size,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
}

/// Generate the rounds from the seed.
pub fn generate(seed: u64, size: Size) -> Inputs {
    let mut rng = SimRng::seed_from_u64(seed);
    let steady = size.steady();
    let churners = size.users - steady;
    assert!(churners >= CHURN.iter().sum(), "too few users to churn");
    let rounds = (0..size.rounds)
        .map(|_| {
            let half = size.validations / 2;
            let home_picks = (0..half).map(|_| rng.index(steady) as u32).collect();
            // The sister table holds `steady` tokens per sister.
            let cross_picks = (0..half)
                .map(|_| rng.index(steady * SISTERS.len()) as u32)
                .collect();
            // Distinct users per round: a user churns at one issuer only.
            let mut drawn: Vec<usize> = Vec::new();
            let churn = CHURN.map(|n| {
                (0..n)
                    .map(|_| loop {
                        let u = steady + rng.index(churners);
                        if !drawn.contains(&u) {
                            drawn.push(u);
                            break u;
                        }
                    })
                    .collect()
            });
            Round {
                home_picks,
                cross_picks,
                churn,
                revoke_phase_us: rng.range_u64(1, 1_000_000),
            }
        })
        .collect();
    Inputs { size, rounds }
}

/// Sister planes and the token tables, built at set-up.
pub struct Realms {
    /// The sisters' issuing planes, in `SISTERS` order.
    pub sisters: Vec<SharedBroker>,
    /// `(owner, token)` for every steady user's home-realm token.
    pub home_tokens: Vec<(Uid, SignedToken)>,
    /// `(owner, token)` for every steady user's token at each sister.
    pub sister_tokens: Vec<(Uid, SignedToken)>,
    /// Every account, by index.
    pub users: Vec<Uid>,
}

/// Provision the cluster and its federation.
pub fn build(inputs: &Inputs, dep: Deployment) -> World {
    assert_eq!(
        dep,
        Deployment::Llsc,
        "the baseline has no credential plane to churn"
    );
    let size = inputs.size;
    let cfg = dep
        .config()
        .with_trusted_realms(SISTERS.map(|r| r.0).to_vec());
    // No jobs run here; a minimal machine room keeps set-up about the
    // credential plane.
    let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
    let users = add_users(&mut c, size.users);
    let steady = &users[..size.steady()];

    let home = c.broker.clone().expect("llsc deploys the credential plane");
    let preseed = |plane: &SharedBroker, which: usize| {
        let mut p = plane.write();
        for i in 0..PRESEED[which] * size.preseed_pct / 100 {
            p.revoke_serial(CredSerial(10_000_000 * (which as u64 + 1) + i));
        }
    };
    preseed(&home, 0);
    let home_tokens = steady
        .iter()
        .map(|&u| {
            let tok = home.read().current_token(u).expect("add_user logs in");
            (u, tok)
        })
        .collect();

    let mut sisters = Vec::new();
    let mut sister_tokens = Vec::new();
    for (i, realm) in SISTERS.into_iter().enumerate() {
        let plane = shared_broker(CredentialBroker::new(
            realm,
            0x51_57E2 + realm.0 as u64,
            BrokerPolicy::default(),
        ));
        preseed(&plane, i + 1);
        {
            let db = c.db.read();
            let mut p = plane.write();
            for &u in steady {
                let tok = p.login(&db, u, None).expect("sister IdP knows the account");
                sister_tokens.push((u, tok));
            }
        }
        c.register_sister_realm(realm, plane.clone());
        sisters.push(plane);
    }

    World {
        cluster: c,
        realms: Some(Realms {
            sisters,
            home_tokens,
            sister_tokens,
            users,
        }),
    }
}

/// Run every round; one latency sample per round, one operation per
/// credential call (validate, login, mint, revoke).
pub fn run(drv: &mut Driver, inputs: &Inputs, realms: &mut Realms) -> RunStats {
    let mut op_ns = Vec::with_capacity(inputs.rounds.len());
    let mut ops = 0u64;
    let mut lag_max = SimDuration::ZERO;
    let (mut deny_sum_s, mut deny_max_s, mut denies) = (0.0f64, 0.0f64, 0u64);
    let start = SimTime::from_secs(10);
    drv.advance_to(start);

    for (k, round) in inputs.rounds.iter().enumerate() {
        let t_round = start + SimDuration::from_secs(ROUND_S * k as u64);
        let t0 = Instant::now();
        drv.tr.set_op(k as u64);
        let op = drv.tr.begin("harness.op");

        // 1. The read side.
        let (home, cross) = (&realms.home_tokens, &realms.sister_tokens);
        drv.validate_all(
            "fedauth.validate",
            round.home_picks.iter().map(|&i| &home[i as usize]),
            false,
        );
        drv.validate_all(
            "revsync.validate",
            round.cross_picks.iter().map(|&i| &cross[i as usize]),
            false,
        );
        ops += (round.home_picks.len() + round.cross_picks.len()) as u64;

        // 2. Logins + mints; the fresh tokens must validate.
        let mut fresh_home: Vec<(Uid, SignedToken)> = Vec::new();
        for &u in &round.churn[0] {
            let user = realms.users[u];
            drv.portal_login(user);
            let home = drv
                .c
                .broker
                .clone()
                .expect("llsc deploys the credential plane");
            let t = drv.tr.begin("fedauth.login");
            let tok = home.read().current_token(user);
            let cert = tok.as_ref().map(|t| home.write().mint_ssh_cert(t));
            drv.tr.end(t);
            drv.oracle.check(matches!(cert, Some(Ok(_))), || {
                format!("home mint for {user} failed: {cert:?}")
            });
            fresh_home.extend(tok.map(|t| (user, t)));
        }
        let mut fresh_sister: Vec<(usize, Uid, SignedToken)> = Vec::new();
        for (s, plane) in realms.sisters.iter().enumerate() {
            for &u in &round.churn[s + 1] {
                let user = realms.users[u];
                let t = drv.tr.begin("fedauth.login");
                let db = drv.c.db.read();
                let mut p = plane.write();
                let tok = p.login(&db, user, None);
                let cert = tok.as_ref().map(|t| p.mint_ssh_cert(t));
                drop((p, db));
                drv.tr.end(t);
                drv.oracle.check(matches!(cert, Ok(Ok(_))), || {
                    format!("sister login+mint for {user} failed: {cert:?}")
                });
                fresh_sister.extend(tok.ok().map(|t| (s, user, t)));
            }
        }
        let fresh_cross: Vec<(Uid, SignedToken)> =
            fresh_sister.iter().map(|(_, u, t)| (*u, *t)).collect();
        drv.validate_all("fedauth.validate", &fresh_home, false);
        drv.validate_all("revsync.validate", &fresh_cross, false);
        // A login, a mint and a validation per churn user.
        ops += 3 * (fresh_home.len() + fresh_cross.len()) as u64;

        // 3. Revocations land at a seeded phase of the feed interval.
        let t_revoke = t_round + SimDuration::from_micros(round.revoke_phase_us);
        drv.advance_to(t_revoke);
        let t = drv.tr.begin("fedauth.revoke");
        if let Some(home) = &drv.c.broker {
            let mut p = home.write();
            for (user, _) in &fresh_home {
                p.revoke_user(*user);
            }
        }
        for (s, user, _) in &fresh_sister {
            realms.sisters[*s].write().revoke_user(*user);
        }
        drv.tr.end(t);
        ops += (fresh_home.len() + fresh_sister.len()) as u64;
        drv.validate_all("fedauth.validate", &fresh_home, true);
        ops += fresh_home.len() as u64;

        // 4. Second by second until the feed has carried every sister
        //    revocation home.
        let mut pending = fresh_cross;
        let t_end = t_round + SimDuration::from_secs(ROUND_S);
        let mut t = t_revoke;
        while !pending.is_empty() && t < t_end {
            t = (t + SimDuration::from_secs(1)).min(t_end);
            drv.advance_to(t);
            lag_max = lag_max.max(worst_lag(&drv.c));
            let span = drv.tr.begin("revsync.validate");
            pending.retain(|(_, token)| {
                ops += 1;
                let denied = drv.c.validate_federated_token(token).is_err();
                if denied {
                    let s = t.since(t_revoke).as_secs_f64();
                    deny_sum_s += s;
                    deny_max_s = deny_max_s.max(s);
                    denies += 1;
                    drv.oracle.check(true, String::new);
                }
                !denied
            });
            drv.tr.end(span);
        }
        for (owner, _) in &pending {
            drv.oracle.check(false, || {
                format!("revoked token of {owner} still accepted after the feed")
            });
        }

        // 5. Close the round.
        drv.advance_to(t_end);
        lag_max = lag_max.max(worst_lag(&drv.c));
        drv.tr.end(op);
        op_ns.push(t0.elapsed().as_nanos() as u64);
    }

    RunStats {
        ops,
        op_ns,
        sim: SimOutcome {
            revoke_to_deny_s: deny_sum_s / denies.max(1) as f64,
            revoke_to_deny_max_s: deny_max_s,
            ..SimOutcome::default()
        },
        replica_lag_max_s: lag_max.as_secs_f64(),
    }
}

/// The stalest sister replica at the home site right now.
fn worst_lag(c: &SecureCluster) -> SimDuration {
    SISTERS
        .into_iter()
        .filter_map(|r| c.replica_lag(r))
        .max()
        .unwrap_or(SimDuration::ZERO)
}
