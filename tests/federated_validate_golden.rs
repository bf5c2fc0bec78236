//! Golden decisions for `SecureCluster::validate_federated_token`, plus an
//! independent oracle for the federated validate paths.
//!
//! The façade routes a presented token one of two ways — home-realm tokens
//! to the home credential plane, sister-realm tokens to the home site's
//! local CRL replica — behind one trust gate, on the home plane's clock.
//! Which `Result` comes back, payload included, and *which error wins*
//! when several conditions hold at once (untrusted and forged, stale and
//! revoked, revoked and expired) is the contract every enforcement point
//! codes against. This suite pins it twice:
//!
//! * [`GOLDEN`]: the exact `Result` (its `Debug` text) of every scenario
//!   in [`scenarios`], recorded from the façade as it stood before the
//!   validate read path was rebuilt to take one plane guard. A rewrite of
//!   that path keeps every constant.
//! * a property: random tapes of login / revoke / `advance_to` / feed
//!   partition / trust rotation / clock skew, with every minted token and
//!   certificate (and a forged and a re-stamped copy of each) judged after
//!   every op by the façade *and* by the same decision spelled out from
//!   public parts — `TrustPolicy::gate` on the home plane's clock, the
//!   home plane's own `validate_token`, `CrlReplica::validate_*`. The two
//!   must agree exactly, and so must the mesh's replica route.
//!   CI raises its case count through `FEDERATED_PROPTEST_CASES`.
//!
//! To re-record after an *intended* behaviour change, run the test and
//! copy the array it prints on mismatch.

mod common;

use eus_revsync::{RevSyncConfig, RevSyncMesh};
use hpc_user_separation::fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SharedBroker, SignedToken,
    SshCertificate,
};
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::simos::Uid;
use hpc_user_separation::{ClusterSpec, Mechanism, SecureCluster, SeparationConfig, HOME_REALM};
use proptest::prelude::*;

/// On the config allow-list and registered: permanently trusted.
const PERMANENT: RealmId = RealmId(2);
/// Registered through `register_sister_realm_until`: trusted before
/// [`Fixture::box_end`] only.
const TIMEBOXED: RealmId = RealmId(3);
/// Registered, never trusted.
const UNTRUSTED: RealmId = RealmId(4);
/// On the config allow-list but never registered: trusted, no replica.
const ORPHAN: RealmId = RealmId(5);
/// Known to nobody.
const UNREGISTERED: RealmId = RealmId(9);

/// The seed `SecureCluster::new` builds the home plane from: a twin plane
/// on the same seed holds the same CA keys, which is the only way to get a
/// *validly signed* home token whose window has not opened yet.
const HOME_PLANE_SEED: u64 = 0x5EED_FEDA;

/// When the fixture's federation forms.
const T0: SimTime = SimTime::from_secs(100);

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A home site with every kind of neighbour.
struct Fixture {
    c: SecureCluster,
    users: [Uid; 3],
    home: SharedBroker,
    permanent: SharedBroker,
    timeboxed: SharedBroker,
    untrusted: SharedBroker,
    box_end: SimTime,
}

impl Fixture {
    fn new(box_len: SimDuration) -> Self {
        let cfg = SeparationConfig::llsc().with_trusted_realms([PERMANENT.0, ORPHAN.0]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let users = ["alice", "bob", "carol"].map(|n| c.add_user(n).unwrap());
        c.advance_to(T0);
        let home = c.broker.clone().unwrap();
        let permanent = shared_broker(CredentialBroker::new(
            PERMANENT,
            0x2222,
            BrokerPolicy::default(),
        ));
        let timeboxed = shared_broker(CredentialBroker::new(
            TIMEBOXED,
            0x3333,
            BrokerPolicy::default(),
        ));
        let untrusted = shared_broker(CredentialBroker::new(
            UNTRUSTED,
            0x4444,
            BrokerPolicy::default(),
        ));
        let box_end = T0 + box_len;
        c.register_sister_realm(PERMANENT, permanent.clone());
        c.register_sister_realm_until(TIMEBOXED, timeboxed.clone(), box_end);
        c.register_sister_realm(UNTRUSTED, untrusted.clone());
        Fixture {
            c,
            users,
            home,
            permanent,
            timeboxed,
            untrusted,
            box_end,
        }
    }

    /// The golden scenarios' fixture: the time box outlasts a token.
    fn golden() -> Self {
        Fixture::new(secs(24 * 3600))
    }

    fn now(&self) -> SimTime {
        self.c.sched.read().now()
    }

    /// The mesh's cadences and staleness budget.
    fn revsync(&self) -> RevSyncConfig {
        *self.c.revsync.as_ref().unwrap().config()
    }

    fn login(&self, plane: &SharedBroker) -> SignedToken {
        self.c.login_at(plane, self.users[0]).unwrap()
    }

    fn validate(&self, t: &SignedToken) -> Result<Uid, CredError> {
        self.c.validate_federated_token(t)
    }

    /// One feed interval plus wire time: a revocation has travelled.
    fn let_the_feed_deliver(&mut self) {
        let t = self.now() + self.revsync().feed_interval + secs(1);
        self.c.advance_to(t);
    }

    /// A plane nobody registered, minting for `realm`.
    fn stranger(&self, realm: RealmId) -> SharedBroker {
        shared_broker(CredentialBroker::new(
            realm,
            0x9000 + realm.0 as u64,
            BrokerPolicy::default(),
        ))
    }

    /// A twin of the home plane (same seed, so same CA keys) whose clock
    /// runs `ahead` of the federation's.
    fn home_twin(&self, ahead: SimDuration) -> SharedBroker {
        let twin = shared_broker(CredentialBroker::new(
            HOME_REALM,
            HOME_PLANE_SEED,
            BrokerPolicy::default(),
        ));
        twin.write().advance_to(self.now() + ahead);
        twin
    }
}

fn forged(t: &SignedToken) -> SignedToken {
    SignedToken {
        sig: t.sig ^ 1,
        ..*t
    }
}

fn restamped(t: &SignedToken, realm: RealmId) -> SignedToken {
    SignedToken { realm, ..*t }
}

type Verdict = Result<Uid, CredError>;

/// The six single-condition verdicts for tokens minted at `plane`, a
/// trusted issuer (`None`: the home plane itself).
fn six_of(sister: Option<RealmId>) -> Vec<(String, Verdict)> {
    let who = sister.map_or("home".to_string(), |r| format!("realm{}", r.0));
    let issuer = |f: &Fixture| match sister {
        None => f.home.clone(),
        Some(PERMANENT) => f.permanent.clone(),
        Some(_) => f.timeboxed.clone(),
    };
    let mut out = Vec::new();

    let f = Fixture::golden();
    let t = f.login(&issuer(&f));
    out.push((format!("{who}/live"), f.validate(&t)));
    out.push((format!("{who}/forged-signature"), f.validate(&forged(&t))));
    // A sister's token re-stamped as ours, ours re-stamped as a trusted
    // sister's: the other route's key refuses the signature.
    let other = if sister.is_none() {
        PERMANENT
    } else {
        HOME_REALM
    };
    out.push((
        format!("{who}/wrong-realm-stamp"),
        f.validate(&restamped(&t, other)),
    ));

    let mut f = Fixture::golden();
    let t = f.login(&issuer(&f));
    issuer(&f).write().revoke_serial(t.serial);
    if sister.is_some() {
        out.push((format!("{who}/revoked-in-flight"), f.validate(&t)));
        f.let_the_feed_deliver();
    }
    out.push((format!("{who}/revoked"), f.validate(&t)));
    // Revoked and expired at once: the window is judged first.
    f.c.advance_to(t.expires);
    out.push((format!("{who}/revoked-and-expired"), f.validate(&t)));

    let mut f = Fixture::golden();
    let t = f.login(&issuer(&f));
    f.c.advance_to(t.expires - SimDuration::from_micros(1));
    out.push((format!("{who}/last-valid-instant"), f.validate(&t)));
    f.c.advance_to(t.expires);
    out.push((format!("{who}/expired"), f.validate(&t)));

    let mut f = Fixture::golden();
    let t = match sister {
        // The issuer's clock runs an hour ahead of ours.
        Some(realm) => {
            f.c.set_realm_clock_skew(realm, secs(3600));
            f.c.advance_to(T0 + secs(1));
            f.login(&issuer(&f))
        }
        None => f.login(&f.home_twin(secs(3600))),
    };
    out.push((format!("{who}/not-yet-valid"), f.validate(&t)));
    out
}

/// Every scenario's `(name, verdict)`, in [`GOLDEN`] order.
fn scenarios() -> Vec<(String, Verdict)> {
    let mut out = six_of(None);
    out.extend(six_of(Some(PERMANENT)));
    out.extend(six_of(Some(TIMEBOXED)));
    let mut case = |name: &str, v: Verdict| out.push((name.to_string(), v));

    // No credential plane at all.
    let off = SeparationConfig::llsc().without(Mechanism::FedAuth);
    let c = SecureCluster::new(off, ClusterSpec::tiny());
    let f = Fixture::golden();
    case("plane-off", c.validate_federated_token(&f.login(&f.home)));

    // The trust gate answers before any signature is looked at.
    let t = f.login(&f.untrusted);
    case("untrusted/valid-signature", f.validate(&t));
    case("untrusted/forged-signature", f.validate(&forged(&t)));
    let t = f.login(&f.stranger(UNREGISTERED));
    case("unregistered/valid-signature", f.validate(&t));
    let t = f.login(&f.stranger(ORPHAN));
    case("trusted-without-replica", f.validate(&t));
    case(
        "home-token-stamped-untrusted",
        f.validate(&restamped(&f.login(&f.home), UNTRUSTED)),
    );

    // The time box closes at `box_end`, exclusive.
    let mut f = Fixture::golden();
    f.c.advance_to(f.box_end - SimDuration::from_micros(1));
    let t = f.login(&f.timeboxed);
    case("trust-box/one-us-before-end", f.validate(&t));
    f.c.advance_to(f.box_end);
    case("trust-box/at-end", f.validate(&t));
    case("trust-box/at-end-forged", f.validate(&forged(&t)));

    // A replica over the staleness budget refuses to judge at all.
    let mut f = Fixture::golden();
    f.c.partition_sister_feed(PERMANENT, true);
    f.c.partition_sister_feed(TIMEBOXED, true);
    let t = f.login(&f.permanent);
    let tb = f.login(&f.timeboxed);
    f.permanent.write().revoke_serial(t.serial);
    let over = T0 + f.revsync().max_lag + secs(1);
    f.c.advance_to(over - secs(1));
    case("stale/at-budget", f.validate(&t));
    f.c.advance_to(over);
    case("stale/and-revoked", f.validate(&t));
    case("stale/and-forged", f.validate(&forged(&t)));
    f.c.advance_to(f.box_end);
    case("stale/and-trust-expired", f.validate(&tb));

    // Every judgment above reads the *home plane's* clock: skew it a
    // minute ahead and a token with 30 s left is expired, at either route,
    // and a replica's lag is a minute longer.
    for (who, realm) in [("home", HOME_REALM), ("realm2", PERMANENT)] {
        let mut f = Fixture::golden();
        let t = f.login(if realm == HOME_REALM {
            &f.home
        } else {
            &f.permanent
        });
        f.c.set_realm_clock_skew(HOME_REALM, secs(60));
        f.c.advance_to(t.expires - secs(90));
        case(&format!("home-skew/{who}-90s-left"), f.validate(&t));
        f.c.advance_to(t.expires - secs(30));
        case(&format!("home-skew/{who}-30s-left"), f.validate(&t));
    }
    let mut f = Fixture::golden();
    f.c.partition_sister_feed(PERMANENT, true);
    let t = f.login(&f.permanent);
    f.c.set_realm_clock_skew(HOME_REALM, secs(60));
    f.c.advance_to(T0 + f.revsync().max_lag - secs(30));
    case("home-skew/stale-inside-the-skew", f.validate(&t));
    out
}

/// `Debug` text of every scenario's verdict, in [`scenarios`] order.
const GOLDEN: [&str; 44] = [
    "Ok(Uid(1000))",                                                // home/live
    "Err(BadSignature)",                                            // home/forged-signature
    "Err(BadSignature)",                                            // home/wrong-realm-stamp
    "Err(Revoked(CredSerial(7)))",                                  // home/revoked
    "Err(Expired { until: SimTime(43300000000) })",                 // home/revoked-and-expired
    "Ok(Uid(1000))",                                                // home/last-valid-instant
    "Err(Expired { until: SimTime(43300000000) })",                 // home/expired
    "Err(NotYetValid { from: SimTime(3700000000) })",               // home/not-yet-valid
    "Ok(Uid(1000))",                                                // realm2/live
    "Err(BadSignature)",                                            // realm2/forged-signature
    "Err(BadSignature)",                                            // realm2/wrong-realm-stamp
    "Ok(Uid(1000))",                                                // realm2/revoked-in-flight
    "Err(Revoked(CredSerial(1)))",                                  // realm2/revoked
    "Err(Expired { until: SimTime(43300000000) })",                 // realm2/revoked-and-expired
    "Ok(Uid(1000))",                                                // realm2/last-valid-instant
    "Err(Expired { until: SimTime(43300000000) })",                 // realm2/expired
    "Err(NotYetValid { from: SimTime(3701000000) })",               // realm2/not-yet-valid
    "Ok(Uid(1000))",                                                // realm3/live
    "Err(BadSignature)",                                            // realm3/forged-signature
    "Err(BadSignature)",                                            // realm3/wrong-realm-stamp
    "Ok(Uid(1000))",                                                // realm3/revoked-in-flight
    "Err(Revoked(CredSerial(1)))",                                  // realm3/revoked
    "Err(Expired { until: SimTime(43300000000) })",                 // realm3/revoked-and-expired
    "Ok(Uid(1000))",                                                // realm3/last-valid-instant
    "Err(Expired { until: SimTime(43300000000) })",                 // realm3/expired
    "Err(NotYetValid { from: SimTime(3701000000) })",               // realm3/not-yet-valid
    "Err(UnknownRealm(RealmId(1)))",                                // plane-off
    "Err(UntrustedRealm { ours: RealmId(1), theirs: RealmId(4) })", // untrusted/valid-signature
    "Err(UntrustedRealm { ours: RealmId(1), theirs: RealmId(4) })", // untrusted/forged-signature
    "Err(UntrustedRealm { ours: RealmId(1), theirs: RealmId(9) })", // unregistered/valid-signature
    "Err(UnknownRealm(RealmId(5)))",                                // trusted-without-replica
    "Err(UntrustedRealm { ours: RealmId(1), theirs: RealmId(4) })", // home-token-stamped-untrusted
    "Ok(Uid(1000))",                                                // trust-box/one-us-before-end
    "Err(TrustExpired { realm: RealmId(3), expired_at: SimTime(86500000000) })", // trust-box/at-end
    "Err(TrustExpired { realm: RealmId(3), expired_at: SimTime(86500000000) })", // trust-box/at-end-forged
    "Ok(Uid(1000))",                                                             // stale/at-budget
    "Err(StaleReplica { realm: RealmId(2), lag: SimDuration(901000000) })", // stale/and-revoked
    "Err(StaleReplica { realm: RealmId(2), lag: SimDuration(901000000) })", // stale/and-forged
    "Err(TrustExpired { realm: RealmId(3), expired_at: SimTime(86500000000) })", // stale/and-trust-expired
    "Ok(Uid(1000))",                                // home-skew/home-90s-left
    "Err(Expired { until: SimTime(43300000000) })", // home-skew/home-30s-left
    "Ok(Uid(1000))",                                // home-skew/realm2-90s-left
    "Err(Expired { until: SimTime(43300000000) })", // home-skew/realm2-30s-left
    "Err(StaleReplica { realm: RealmId(2), lag: SimDuration(930000000) })", // home-skew/stale-inside-the-skew
];

#[test]
fn every_scenario_reproduces_its_recorded_verdict() {
    let got: Vec<(String, String)> = scenarios()
        .into_iter()
        .map(|(name, v)| (name, format!("{v:?}")))
        .collect();
    if got.iter().map(|(_, text)| text).ne(GOLDEN.iter()) {
        let mut table = String::new();
        for (i, (name, text)) in got.iter().enumerate() {
            let mark = if GOLDEN.get(i) == Some(&text.as_str()) {
                " "
            } else {
                "!"
            };
            table.push_str(&format!("  {mark} {text:?}, // {name}\n"));
        }
        panic!(
            "golden verdicts changed ({} scenarios, {} recorded); the façade now answers:\n{table}",
            got.len(),
            GOLDEN.len()
        );
    }
}

#[test]
fn the_scenarios_cover_every_refusal_the_facade_can_give() {
    // The table is only worth pinning if it reaches every branch.
    let seen: Vec<String> = scenarios()
        .into_iter()
        .map(|(_, v)| format!("{v:?}"))
        .collect();
    for needle in [
        "Ok(",
        "NotYetValid",
        "Expired {",
        "UntrustedRealm",
        "UnknownRealm(RealmId(1))",
        "UnknownRealm(RealmId(5))",
        "TrustExpired",
        "StaleReplica",
        "BadSignature",
        "Revoked(",
    ] {
        assert!(
            seen.iter().any(|s| s.contains(needle)),
            "no scenario answers {needle}"
        );
    }
}

// ----------------------------------------------------------------------
// The oracle: the same decisions, spelled out from public parts.
// ----------------------------------------------------------------------

/// The home site's trust gate at the home plane's clock, or the refusal.
fn gate(c: &SecureCluster, issuer: RealmId) -> Result<SimTime, CredError> {
    let now = c
        .broker
        .as_ref()
        .ok_or(CredError::UnknownRealm(HOME_REALM))?
        .read()
        .now();
    c.trust.gate(issuer, now)?;
    Ok(now)
}

/// `RevSyncMesh::validate_*_at(HOME, ..)`: the subscribed replica under the
/// mesh's staleness budget.
fn replica_token(mesh: &RevSyncMesh, t: &SignedToken, now: SimTime) -> Verdict {
    mesh.replica(HOME_REALM, t.realm)
        .ok_or(CredError::UnknownRealm(t.realm))?
        .validate_token(t, now, mesh.config().max_lag)
}

fn replica_cert(mesh: &RevSyncMesh, cert: &SshCertificate, now: SimTime) -> Verdict {
    mesh.replica(HOME_REALM, cert.realm)
        .ok_or(CredError::UnknownRealm(cert.realm))?
        .validate_cert(cert, now, mesh.config().max_lag)
}

/// `SecureCluster::validate_federated_token`: gate, then home tokens at
/// the home plane and everything else at the replica.
fn facade_token(c: &SecureCluster, t: &SignedToken) -> Verdict {
    let (Some(home), Some(mesh)) = (&c.broker, &c.revsync) else {
        return Err(CredError::UnknownRealm(HOME_REALM));
    };
    let now = gate(c, t.realm)?;
    if t.realm == HOME_REALM {
        return home.read().validate_token(t);
    }
    replica_token(mesh, t, now)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("FEDERATED_PROPTEST_CASES", 24), ..ProptestConfig::default() })]

    #[test]
    fn facade_directory_and_mesh_agree_with_the_spelled_out_composition(
        tape in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..40),
    ) {
        // A short box, so tapes cross its end.
        let mut f = Fixture::new(secs(20_000));
        let users = f.users;
        let stranger = f.stranger(UNREGISTERED);
        let planes = [
            f.home.clone(),
            f.permanent.clone(),
            f.timeboxed.clone(),
            f.untrusted.clone(),
            stranger,
        ];
        let realms = [HOME_REALM, PERMANENT, TIMEBOXED, UNTRUSTED, UNREGISTERED];
        let mut tokens: Vec<(usize, SignedToken)> = Vec::new();
        let mut certs: Vec<SshCertificate> = Vec::new();

        for (step, &(action, subject, arg)) in tape.iter().enumerate() {
            match action {
                0 => {
                    let p = subject as usize % planes.len();
                    let user = users[arg as usize % users.len()];
                    let t = f.c.login_at(&planes[p], user).unwrap();
                    tokens.push((p, t));
                    certs.push(planes[p].read().current_cert(user).unwrap());
                }
                1 => {
                    if !tokens.is_empty() {
                        let (p, t) = tokens[subject as usize % tokens.len()];
                        if arg % 2 == 0 {
                            planes[p].write().revoke_serial(t.serial);
                        } else {
                            planes[p].write().revoke_user(t.user);
                        }
                    }
                }
                2 => {
                    let dt = [1, 7, 11, 120, 901, 5_000, 21_000, 45_000][arg as usize];
                    let t = f.now() + secs(dt);
                    f.c.advance_to(t);
                }
                3 => {
                    let realm = [PERMANENT, TIMEBOXED][subject as usize % 2];
                    f.c.partition_sister_feed(realm, arg % 2 == 0);
                }
                4 => {
                    let realm = realms[1 + subject as usize % 4];
                    let until = match arg % 4 {
                        0 => None,
                        k => Some(f.now() + secs(600 * k as u64)),
                    };
                    match until {
                        Some(t) => f.c.trust.trust_until(realm, t),
                        None => f.c.trust.trust(realm),
                    }
                }
                _ => {
                    let realm = realms[subject as usize % 3];
                    let ahead = [0, 30, 3600, 50_000][arg as usize % 4];
                    f.c.set_realm_clock_skew(realm, secs(ahead));
                }
            }

            let mesh = f.c.revsync.as_ref().unwrap();
            let now = f.home.read().now();
            for (_, t) in &tokens {
                let other = if t.realm == HOME_REALM { PERMANENT } else { HOME_REALM };
                for probe in [*t, forged(t), restamped(t, other)] {
                    prop_assert_eq!(
                        f.c.validate_federated_token(&probe),
                        facade_token(&f.c, &probe),
                        "façade diverged at step {} on {:?}", step, probe
                    );
                    prop_assert_eq!(
                        mesh.validate_token_at(HOME_REALM, &probe, now),
                        replica_token(mesh, &probe, now),
                        "mesh diverged at step {} on {:?}", step, probe
                    );
                }
            }
            for cert in &certs {
                let bent = SshCertificate { sig: cert.sig ^ 1, ..*cert };
                for probe in [*cert, bent] {
                    prop_assert_eq!(
                        mesh.validate_cert_at(HOME_REALM, &probe, now),
                        replica_cert(mesh, &probe, now),
                        "mesh diverged at step {} on {:?}", step, probe
                    );
                }
            }
        }
    }
}
