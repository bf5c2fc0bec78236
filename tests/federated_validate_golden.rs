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
//!   in [`scenarios`], at `broker_shards` 1 and 4, recorded from the
//!   façade as it stood before the validate read path was rebuilt to take
//!   one plane guard. A rewrite of that path keeps every constant.
//! * a property: random tapes of login / revoke / `advance_to` / feed
//!   partition / trust rotation / clock skew, with every minted token and
//!   certificate (and a forged and a re-stamped copy of each) judged after
//!   every op by the façade *and* by the same decision spelled out from
//!   public parts — `TrustPolicy::gate`, the issuer plane's own
//!   `validate_*`, `CrlReplica::validate_*`. The two must agree exactly.
//!
//! To re-record after an *intended* behaviour change, run the test and
//! copy the array it prints on mismatch.

use eus_revsync::RevSyncMesh;
use hpc_user_separation::fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, FederationDirectory, RealmId,
    ShardedBroker, SharedBroker, SignedToken, SshCertificate,
};
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::simos::Uid;
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};
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
    shards: u32,
    users: [Uid; 3],
    home: SharedBroker,
    permanent: SharedBroker,
    timeboxed: SharedBroker,
    untrusted: SharedBroker,
    box_end: SimTime,
}

impl Fixture {
    fn new(shards: u32, box_len: SimDuration) -> Self {
        let cfg = SeparationConfig::llsc()
            .with_broker_shards(shards)
            .with_trusted_realms([PERMANENT.0, ORPHAN.0]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let users = ["alice", "bob", "carol"].map(|n| c.add_user(n).unwrap());
        c.advance_to(T0);
        let home = c.broker.clone().unwrap();
        let permanent = shared_broker(CredentialBroker::new(
            PERMANENT,
            0x2222,
            BrokerPolicy::default(),
        ));
        // Two shards: the exported verifier routes by serial residue.
        let timeboxed = shared_broker(ShardedBroker::new(
            TIMEBOXED,
            0x3333,
            2,
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
            shards,
            users,
            home,
            permanent,
            timeboxed,
            untrusted,
            box_end,
        }
    }

    /// The golden scenarios' fixture: the time box outlasts a token.
    fn golden(shards: u32) -> Self {
        Fixture::new(shards, secs(24 * 3600))
    }

    fn now(&self) -> SimTime {
        self.c.sched.read().now()
    }

    fn login(&self, plane: &SharedBroker) -> SignedToken {
        self.c.login_at(plane, self.users[0]).unwrap()
    }

    fn validate(&self, t: &SignedToken) -> Result<Uid, CredError> {
        self.c.validate_federated_token(t)
    }

    /// One feed interval plus wire time: a revocation has travelled.
    fn let_the_feed_deliver(&mut self) {
        let t = self.now() + self.c.config.revsync_feed_interval + secs(1);
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
        let twin = if self.shards > 1 {
            shared_broker(ShardedBroker::new(
                HOME_REALM,
                HOME_PLANE_SEED,
                self.shards as usize,
                BrokerPolicy::default(),
            ))
        } else {
            shared_broker(CredentialBroker::new(
                HOME_REALM,
                HOME_PLANE_SEED,
                BrokerPolicy::default(),
            ))
        };
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
fn six_of(shards: u32, sister: Option<RealmId>) -> Vec<(String, Verdict)> {
    let who = sister.map_or("home".to_string(), |r| format!("realm{}", r.0));
    let issuer = |f: &Fixture| match sister {
        None => f.home.clone(),
        Some(PERMANENT) => f.permanent.clone(),
        Some(_) => f.timeboxed.clone(),
    };
    let mut out = Vec::new();

    let f = Fixture::golden(shards);
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

    let mut f = Fixture::golden(shards);
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

    let mut f = Fixture::golden(shards);
    let t = f.login(&issuer(&f));
    f.c.advance_to(t.expires - SimDuration::from_micros(1));
    out.push((format!("{who}/last-valid-instant"), f.validate(&t)));
    f.c.advance_to(t.expires);
    out.push((format!("{who}/expired"), f.validate(&t)));

    let mut f = Fixture::golden(shards);
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

/// Every scenario's `(name, verdict)` at one shard count, in [`GOLDEN`]
/// order.
fn scenarios(shards: u32) -> Vec<(String, Verdict)> {
    let mut out = six_of(shards, None);
    out.extend(six_of(shards, Some(PERMANENT)));
    out.extend(six_of(shards, Some(TIMEBOXED)));
    let mut case = |name: &str, v: Verdict| out.push((name.to_string(), v));

    // No credential plane at all.
    let off = SeparationConfig {
        federated_auth: false,
        ..SeparationConfig::llsc().with_broker_shards(shards)
    };
    let c = SecureCluster::new(off, ClusterSpec::tiny());
    let f = Fixture::golden(shards);
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
    let mut f = Fixture::golden(shards);
    f.c.advance_to(f.box_end - SimDuration::from_micros(1));
    let t = f.login(&f.timeboxed);
    case("trust-box/one-us-before-end", f.validate(&t));
    f.c.advance_to(f.box_end);
    case("trust-box/at-end", f.validate(&t));
    case("trust-box/at-end-forged", f.validate(&forged(&t)));

    // A replica over the staleness budget refuses to judge at all.
    let mut f = Fixture::golden(shards);
    f.c.partition_sister_feed(PERMANENT, true);
    f.c.partition_sister_feed(TIMEBOXED, true);
    let t = f.login(&f.permanent);
    let tb = f.login(&f.timeboxed);
    f.permanent.write().revoke_serial(t.serial);
    let over = T0 + f.c.config.revsync_max_lag + secs(1);
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
        let mut f = Fixture::golden(shards);
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
    let mut f = Fixture::golden(shards);
    f.c.partition_sister_feed(PERMANENT, true);
    let t = f.login(&f.permanent);
    f.c.set_realm_clock_skew(HOME_REALM, secs(60));
    f.c.advance_to(T0 + f.c.config.revsync_max_lag - secs(30));
    case("home-skew/stale-inside-the-skew", f.validate(&t));
    out
}

/// `Debug` text of every scenario's verdict, in [`scenarios`] order —
/// identical at `broker_shards` 1 and 4 except for [`HOME_SERIAL`].
const GOLDEN: [&str; 44] = [
    "Ok(Uid(1000))",                                                // home/live
    "Err(BadSignature)",                                            // home/forged-signature
    "Err(BadSignature)",                                            // home/wrong-realm-stamp
    "Err(Revoked(CredSerial({home-serial})))",                      // home/revoked
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
    "Err(Revoked(CredSerial(2)))",                                  // realm3/revoked
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

/// The one payload that depends on the shard count: shards mint serials in
/// residue classes, so the home token the `home/revoked` scenario revokes
/// carries a different serial at `broker_shards` 1 and 4.
const HOME_SERIAL: [(u32, &str); 2] = [(1, "7"), (4, "20")];

#[test]
fn every_scenario_reproduces_its_recorded_verdict() {
    for (shards, home_serial) in HOME_SERIAL {
        let got: Vec<(String, String)> = scenarios(shards)
            .into_iter()
            .map(|(name, v)| (name, format!("{v:?}")))
            .collect();
        let want: Vec<String> = GOLDEN
            .iter()
            .map(|g| g.replace("{home-serial}", home_serial))
            .collect();
        if got.iter().map(|(_, text)| text).ne(want.iter()) {
            let mut table = String::new();
            for (i, (name, text)) in got.iter().enumerate() {
                let mark = if want.get(i) == Some(text) { " " } else { "!" };
                table.push_str(&format!("  {mark} {text:?}, // {name}\n"));
            }
            panic!(
                "golden verdicts changed at broker_shards = {shards} \
                 ({} scenarios, {} recorded); the façade now answers:\n{table}",
                got.len(),
                want.len()
            );
        }
    }
}

#[test]
fn the_scenarios_cover_every_refusal_the_facade_can_give() {
    // The table is only worth pinning if it reaches every branch.
    let seen: Vec<String> = scenarios(4)
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
fn gate(dir: &FederationDirectory, issuer: RealmId) -> Result<SimTime, CredError> {
    let policy = dir
        .trust_policy(HOME_REALM)
        .ok_or(CredError::UnknownRealm(HOME_REALM))?;
    let now = dir
        .plane(HOME_REALM)
        .ok_or(CredError::UnknownRealm(HOME_REALM))?
        .read()
        .now();
    policy.gate(issuer, now)?;
    Ok(now)
}

/// `FederationDirectory::validate_token_at(HOME, ..)`: gate, then the
/// issuer's own plane.
fn directory_token(dir: &FederationDirectory, t: &SignedToken) -> Verdict {
    gate(dir, t.realm)?;
    dir.plane(t.realm)
        .ok_or(CredError::UnknownRealm(t.realm))?
        .read()
        .validate_token(t)
}

fn directory_cert(dir: &FederationDirectory, cert: &SshCertificate) -> Verdict {
    gate(dir, cert.realm)?;
    dir.plane(cert.realm)
        .ok_or(CredError::UnknownRealm(cert.realm))?
        .read()
        .validate_cert(cert)
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
    let (Some(dir), Some(mesh)) = (&c.federation, &c.revsync) else {
        return Err(CredError::UnknownRealm(HOME_REALM));
    };
    let now = gate(dir, t.realm)?;
    if t.realm == HOME_REALM {
        return directory_token(dir, t);
    }
    replica_token(mesh, t, now)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn facade_directory_and_mesh_agree_with_the_spelled_out_composition(
        tape in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 1..40),
        sharded in 0u8..2,
    ) {
        let shards = if sharded == 1 { 4 } else { 1 };
        // A short box, so tapes cross its end.
        let mut f = Fixture::new(shards, secs(20_000));
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
                    f.c.federation
                        .as_mut()
                        .unwrap()
                        .trust_realm_until(HOME_REALM, realm, until);
                }
                _ => {
                    let realm = realms[subject as usize % 3];
                    let ahead = [0, 30, 3600, 50_000][arg as usize % 4];
                    f.c.set_realm_clock_skew(realm, secs(ahead));
                }
            }

            let dir = f.c.federation.as_ref().unwrap();
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
                        dir.validate_token_at(HOME_REALM, &probe),
                        directory_token(dir, &probe),
                        "directory diverged at step {} on {:?}", step, probe
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
                        dir.validate_cert_at(HOME_REALM, &probe),
                        directory_cert(dir, &probe),
                        "directory diverged at step {} on {:?}", step, probe
                    );
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
