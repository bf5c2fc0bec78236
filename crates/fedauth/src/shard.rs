//! [`ShardedBroker`]: the credential plane at millions-of-sessions scale.
//!
//! One [`crate::CredentialBroker`] keeps every live session in one table
//! behind one lock. For a site serving millions of users that table — and
//! the lock — becomes the bottleneck. The sharded broker partitions sessions
//! and SSH certificates across N uid-hashed shards: every per-user
//! operation touches exactly one shard.
//!
//! **Per-shard locking.** Each shard sits behind its own `RwLock`, so the
//! plane supports *shared-path mutation*: callers holding the plane-wide
//! lock only for reading can still log users in through
//! [`CredentialPlane::try_login_shared`] — concurrent logins that hash to
//! different shards proceed in parallel instead of serializing on one
//! plane-wide write lock. The `&mut`
//! trait methods use lock-free exclusive access (`get_mut`), so the
//! single-threaded paths pay nothing for the locks.
//!
//! **What the shard locks guard — and what they do not.** A shard lock
//! guards what a shared-path login mutates: the shard's sessions,
//! certificates, IdP state and its CA's mint counters. A *verdict on a
//! presented credential* reads none of that. It reads the CA keys (fixed at
//! construction, kept as one plane-level [`RealmVerifier`]), the revoked
//! set (one plane-level [`RevocationList`], written only through
//! `&mut self`) and the clock (the plane's published [`PlaneClock`]) — so
//! `validate_token` / `validate_cert` take **no** shard lock: the caller's
//! plane read guard is the only guard on the route.
//!
//! Correctness-by-construction details:
//!
//! * each shard's CA mints serials in a disjoint residue class
//!   (`serial % shards == shard index`), so serials stay globally unique and
//!   a serial's owning shard is recoverable without knowing the uid;
//! * every shard shares the realm id, so realm binding (the
//!   `CrossRealmSpoof` defense) is unchanged;
//! * revocation state is one plane-level list, its delta log appended in
//!   the order revocations pass through the plane API — so the feed a
//!   sister realm replicates (`eus-revsync`) is identical whether the
//!   issuer runs one broker or N shards;
//! * the plane is observationally equivalent to a single broker — the same
//!   accept/reject decision for every login/validate/revoke/sweep sequence
//!   (property-tested in `tests/federation_properties.rs`). Token *material*
//!   differs (different seeded streams), decisions never do.

use crate::broker::{BrokerPolicy, SessionShard};
use crate::ca::{CredError, CredSerial, RealmVerifier, SignedToken, SshCertificate};
use crate::obs::{ValidateStats, CRED_TRACE_CODE};
use crate::plane::{CredentialPlane, PlaneClock};
use crate::realm::{MfaCode, MfaEnrollment, RealmId, RecoveryCode};
use crate::revocation::RevocationList;
use eus_obs::TraceBuffer;
use eus_simcore::SimTime;
use eus_simos::{Uid, UserDb};
use parking_lot::RwLock;

/// A credential plane partitioned across N uid-hashed shards, each behind
/// its own lock.
#[derive(Debug)]
pub struct ShardedBroker {
    /// The plane clock, published: every shard reads this same cell, and
    /// [`advance_to`](CredentialPlane::advance_to) is one store to it.
    clock: PlaneClock,
    /// Every shard's CA verification state, in shard order — immutable
    /// after construction (minting moves a CA's counters, never its key).
    verifier: RealmVerifier,
    /// The realm's one revocation list. Only `&mut self` paths write it, so
    /// verdicts probe it under nothing but the caller's plane guard; its
    /// delta log is in plane-API order (the feed `eus-revsync` ships).
    revocations: RevocationList,
    shards: Vec<RwLock<SessionShard>>,
    /// Verify-path statistics (atomic; off by default). Pure measurement —
    /// never consulted by an accept/reject decision.
    pub stats: ValidateStats,
    /// Causal trace ring (off by default). Plane-level, like `stats`, so a
    /// sharded deployment still mints ids from one mint.
    pub trace: TraceBuffer,
}

use crate::splitmix64 as mix;

impl ShardedBroker {
    /// A sharded plane for `realm` with `shards` uid-hashed partitions;
    /// `seed` determines all key/token material (each shard forks its own
    /// stream).
    pub fn new(realm: RealmId, seed: u64, shards: usize, policy: BrokerPolicy) -> Self {
        assert!(shards >= 1, "at least one shard");
        let clock = PlaneClock::default();
        let shards: Vec<SessionShard> = (0..shards)
            .map(|i| {
                let mut s = SessionShard::new(realm, mix(seed ^ i as u64), policy, clock.clone());
                s.ca.set_serial_partition(i as u64, shards as u64);
                s
            })
            .collect();
        let verifier = RealmVerifier::new(realm, shards.iter().map(|s| s.ca.clone()).collect());
        ShardedBroker {
            clock,
            revocations: RevocationList::new(verifier.serial_set_key()),
            verifier,
            shards: shards.into_iter().map(RwLock::new).collect(),
            stats: ValidateStats::new(),
            trace: TraceBuffer::disabled("cred", CRED_TRACE_CODE),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live sessions in the most loaded shard (the table-bound a single
    /// lock actually protects; capacity planning reads this).
    pub fn largest_shard_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().live_sessions())
            .max()
            .unwrap_or(0)
    }

    /// The shard holding `user`'s sessions.
    fn shard_of(&self, user: Uid) -> usize {
        (mix(user.0 as u64) % self.shards.len() as u64) as usize
    }

    /// The lock guarding `user`'s shard — the one indexing site the
    /// session-reading gates share. The index is structurally in bounds:
    /// [`shard_of`](Self::shard_of) reduces modulo `shards.len()` and the
    /// constructor asserts at least one shard.
    fn shard(&self, user: Uid) -> &RwLock<SessionShard> {
        &self.shards[self.shard_of(user)]
    }

    /// Exclusive lock-free access to the shard for a user (`&mut self`
    /// paths never contend, so they skip the lock entirely).
    fn shard_mut(&mut self, user: Uid) -> &mut SessionShard {
        let i = self.shard_of(user);
        self.shards[i].get_mut()
    }

    // analyze:hot-path-begin(sharded-judge)
    /// A verdict on a presented token, under no lock of this plane's: the
    /// routine a sister site's CRL replica runs, on the plane's own clock
    /// and revoked set. A serial routes to its minting CA by residue.
    fn judge_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        self.verifier
            .validate_token(token, self.clock.now(), self.revocations.serials())
    }
    // analyze:hot-path-end
}

impl CredentialPlane for ShardedBroker {
    fn realm(&self) -> RealmId {
        self.verifier.realm()
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn clock(&self) -> PlaneClock {
        self.clock.clone()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
    }

    fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Result<SignedToken, CredError> {
        self.shard_mut(user).login(db, user, mfa)
    }

    fn login_auto(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        self.shard_mut(user).login_auto(db, user)
    }

    fn mint_ssh_cert(&mut self, token: &SignedToken) -> Result<SshCertificate, CredError> {
        let i = self.shard_of(token.user);
        self.shards[i]
            .get_mut()
            .mint_ssh_cert(self.revocations.serials(), token)
    }

    fn ensure_session(&mut self, db: &UserDb, user: Uid) -> Result<SignedToken, CredError> {
        let i = self.shard_of(user);
        self.shards[i]
            .get_mut()
            .ensure_session(self.revocations.serials(), db, user)
    }

    // analyze:hot-path-begin(sharded-validate)
    fn validate_token(&self, token: &SignedToken) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = self.judge_token(token);
        self.stats.finish(t0, r.is_ok());
        r
    }

    fn validate_cert(&self, cert: &SshCertificate) -> Result<Uid, CredError> {
        let t0 = self.stats.begin();
        let r = self
            .verifier
            .validate_cert(cert, self.clock.now(), self.revocations.serials());
        self.stats.finish(t0, r.is_ok());
        r
    }

    fn validate_serial(&self, user: Uid, serial: CredSerial) -> Result<(), CredError> {
        self.shard(user)
            .read()
            .validate_serial(self.revocations.serials(), user, serial)
    }

    fn authorize_ssh(&self, user: Uid) -> Result<(), CredError> {
        self.shard(user)
            .read()
            .authorize_ssh(self.revocations.serials(), user)
    }

    fn authorize_submit(&self, user: Uid) -> Result<(), CredError> {
        self.authorize_submit_at(user, self.clock.now())
    }

    fn authorize_submit_at(&self, user: Uid, at: SimTime) -> Result<(), CredError> {
        self.shard(user)
            .read()
            .authorize_submit_at(self.revocations.serials(), user, at)
    }
    // analyze:hot-path-end

    fn current_cert(&self, user: Uid) -> Option<SshCertificate> {
        self.shard(user).read().current_cert(user)
    }

    fn current_token(&self, user: Uid) -> Option<SignedToken> {
        self.shard(user).read().current_token(user)
    }

    fn revoke_serial(&mut self, serial: CredSerial) {
        self.revocations.revoke(serial);
    }

    fn revoke_user(&mut self, user: Uid) {
        let i = self.shard_of(user);
        self.shards[i]
            .get_mut()
            .revoke_user(&mut self.revocations, user);
    }

    fn sweep_expired(&mut self) -> usize {
        let revoked = self.revocations.serials();
        self.shards
            .iter_mut()
            .map(|s| s.get_mut().sweep_expired(revoked))
            .sum()
    }

    fn live_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.read().live_sessions()).sum()
    }

    fn enroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<MfaEnrollment, CredError> {
        self.shard_mut(user).enroll_mfa(user, mfa)
    }

    fn login_recovery(
        &mut self,
        db: &UserDb,
        user: Uid,
        code: RecoveryCode,
    ) -> Result<SignedToken, CredError> {
        self.shard_mut(user).login_recovery(db, user, code)
    }

    fn unenroll_mfa(&mut self, user: Uid, mfa: Option<MfaCode>) -> Result<(), CredError> {
        self.shard_mut(user).unenroll_mfa(user, mfa)
    }

    fn mfa_challenged(&self, user: Uid) -> bool {
        self.shard(user).read().idp.is_challenged(user)
    }

    fn current_mfa_code(&self, user: Uid) -> Option<MfaCode> {
        self.shard(user).read().current_mfa_code(user)
    }

    fn revocation_head(&self) -> u64 {
        self.revocations.head()
    }

    fn revocations_since(&self, since: u64) -> Vec<CredSerial> {
        self.revocations.entries_since(since).to_vec()
    }

    fn compact_revocations_below(&mut self, upto: u64) -> u64 {
        self.revocations.compact_below(upto)
    }

    fn revocation_floor(&self) -> u64 {
        self.revocations.floor()
    }

    fn revocation_snapshot(&self) -> Vec<CredSerial> {
        self.revocations.snapshot()
    }

    fn set_idp_available(&mut self, up: bool) {
        for s in &mut self.shards {
            s.get_mut().idp_available = up;
        }
    }

    fn idp_available(&self) -> bool {
        self.shards.iter().all(|s| s.read().idp_available)
    }

    fn set_ca_available(&mut self, up: bool) {
        for s in &mut self.shards {
            s.get_mut().ca_available = up;
        }
    }

    fn ca_available(&self) -> bool {
        self.shards.iter().all(|s| s.read().ca_available)
    }

    fn seize_shard(&mut self, shard: usize, seized: bool) -> bool {
        match self.shards.get_mut(shard) {
            Some(s) => {
                let s = s.get_mut();
                s.idp_available = !seized;
                s.ca_available = !seized;
                true
            }
            None => false,
        }
    }

    fn verifier(&self) -> RealmVerifier {
        self.verifier.clone()
    }

    /// Shared-path login through the owning shard's own write lock: the
    /// plane-wide handle stays a *read* borrow, so logins landing on other
    /// shards run concurrently (the per-shard-locking scale win).
    fn try_login_shared(
        &self,
        db: &UserDb,
        user: Uid,
        mfa: Option<MfaCode>,
    ) -> Option<Result<SignedToken, CredError>> {
        Some(self.shard(user).write().login(db, user, mfa))
    }

    fn validate_stats(&self) -> Option<&ValidateStats> {
        Some(&self.stats)
    }

    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        Some(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::CredentialBroker;
    use crate::revocation::SerialSet;

    fn setup(shards: usize) -> (UserDb, ShardedBroker, Vec<Uid>) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..16)
            .map(|i| db.create_user(&format!("u{i}")).unwrap())
            .collect();
        let plane = ShardedBroker::new(RealmId(1), 77, shards, BrokerPolicy::default());
        (db, plane, users)
    }

    #[test]
    fn per_user_lifecycle_spans_shards() {
        let (db, mut p, users) = setup(4);
        let tokens: Vec<SignedToken> = users
            .iter()
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        assert_eq!(p.live_sessions(), users.len());
        for (u, t) in users.iter().zip(&tokens) {
            assert_eq!(p.validate_token(t).unwrap(), *u);
            assert!(p.authorize_ssh(*u).is_ok());
            assert!(p.authorize_submit(*u).is_ok());
        }
        // Users actually spread over more than one shard.
        let occupied = (0..4)
            .filter(|&i| p.shards[i].read().live_sessions() > 0)
            .count();
        assert!(occupied > 1, "uid hash must spread users");
    }

    #[test]
    fn plane_clock_is_every_shards_clock_through_any_advance_interleaving() {
        // Forwards, repeated, backwards, zero: the published clock (read
        // with no lock at all) must be exactly what the plane says and what
        // a shared-path login on any shard stamps.
        let tape = [5u64, 5, 3, 0, 90, 60, 90, 3600, 10, 3601];
        let run = |shards: usize| {
            let (db, mut p, users) = setup(shards);
            let published = p.clock();
            let mut seen = Vec::new();
            for (i, secs) in tape.into_iter().enumerate() {
                p.advance_to(SimTime::from_secs(secs));
                assert_eq!(published.now(), p.now(), "after advance_to({secs}s)");
                let user = users[i % users.len()];
                let t = p.try_login_shared(&db, user, None).unwrap().unwrap();
                assert_eq!(t.issued, p.now(), "logins stamp the plane clock");
                seen.push(p.now());
            }
            // A token living through the tape dies at the same instant
            // whatever the shard count.
            let t = p.login(&db, users[0], None).unwrap();
            p.advance_to(t.expires - eus_simcore::SimDuration::from_micros(1));
            assert_eq!(p.validate_token(&t), Ok(users[0]));
            p.advance_to(t.expires);
            assert_eq!(
                p.validate_token(&t),
                Err(CredError::Expired { until: t.expires })
            );
            seen
        };
        let clocks = run(4);
        assert_eq!(clocks, run(1), "the clock never shows the shard count");
        assert!(clocks.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert_eq!(*clocks.last().unwrap(), SimTime::from_secs(3601));
    }

    #[test]
    fn serials_are_globally_unique_and_route_back() {
        let (db, mut p, users) = setup(8);
        let mut seen = std::collections::BTreeSet::new();
        for &u in &users {
            for _ in 0..10 {
                let t = p.login(&db, u, None).unwrap();
                assert!(seen.insert(t.serial), "serial collision across shards");
                assert_eq!((t.serial.0 % 8) as usize, p.shard_of(u));
            }
        }
    }

    #[test]
    fn serial_revocation_is_judged_without_the_minting_shard() {
        let (db, mut p, users) = setup(4);
        let t = p.login(&db, users[3], None).unwrap();
        p.revoke_serial(t.serial);
        // Every shard write-locked (a login in flight on each): the verdict
        // still arrives, because it needs none of them.
        let _held: Vec<_> = p.shards.iter().map(|s| s.write()).collect();
        assert_eq!(p.validate_token(&t), Err(CredError::Revoked(t.serial)));
    }

    #[test]
    fn plane_level_delta_log_tracks_revocations_in_api_order() {
        let (db, mut p, users) = setup(4);
        let t0 = p.login(&db, users[0], None).unwrap();
        let t1 = p.login(&db, users[1], None).unwrap();
        assert_eq!(p.revocation_head(), 0);
        p.revoke_serial(t1.serial);
        p.revoke_serial(t1.serial); // duplicate: no new entry
        p.revoke_user(users[0]); // token + cert
        let log = p.revocations_since(0);
        assert_eq!(p.revocation_head(), 3);
        assert_eq!(log[0], t1.serial, "API order, not shard order");
        assert_eq!(log[1], t0.serial);
        assert_eq!(p.revocations_since(2).len(), 1);
    }

    #[test]
    fn shared_path_login_matches_exclusive_login_decisions() {
        let (db, mut p, users) = setup(4);
        // Shared-path login under a &self borrow mints a live session...
        let t = p.try_login_shared(&db, users[2], None).unwrap().unwrap();
        assert_eq!(p.validate_token(&t).unwrap(), users[2]);
        // ...and refuses exactly like the exclusive path.
        let bad = p.try_login_shared(&db, Uid(4242), None).unwrap();
        assert_eq!(bad, p.login(&db, Uid(4242), None));
        // The single broker has no shared path (callers must fall back).
        let single = CredentialBroker::new(RealmId(1), 5, BrokerPolicy::default());
        assert!(CredentialPlane::try_login_shared(&single, &db, users[0], None).is_none());
    }

    #[test]
    fn verifier_routes_serials_to_the_minting_shards_ca() {
        let (db, mut p, users) = setup(4);
        let tokens: Vec<SignedToken> = users
            .iter()
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        let v = p.verifier();
        let none_revoked = SerialSet::with_hasher(v.serial_set_key());
        for (u, t) in users.iter().zip(&tokens) {
            assert_eq!(v.validate_token(t, p.now(), &none_revoked).unwrap(), *u);
        }
        // The verifier holds no revocation state — that is the caller's
        // set — so a revoked-at-issuer token still passes against a set
        // that has not heard.
        p.revoke_serial(tokens[0].serial);
        assert!(v.validate_token(&tokens[0], p.now(), &none_revoked).is_ok());
        // Tampering still breaks the signature.
        let mut forged = tokens[1];
        forged.user = Uid(999);
        assert_eq!(
            v.validate_token(&forged, p.now(), &none_revoked),
            Err(CredError::BadSignature)
        );
    }

    #[test]
    fn seized_shard_fails_issuance_while_others_serve() {
        let (db, mut p, users) = setup(4);
        let tokens: Vec<SignedToken> = users
            .iter()
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        let victim = users[0];
        let shard = p.shard_of(victim);
        assert!(p.seize_shard(shard, true));
        assert_eq!(p.login(&db, victim, None), Err(CredError::Unavailable));
        assert_eq!(
            p.validate_token(&tokens[0]).unwrap(),
            victim,
            "validation on the seized shard keeps serving"
        );
        let other = users
            .iter()
            .copied()
            .find(|&u| p.shard_of(u) != shard)
            .unwrap();
        assert!(p.login(&db, other, None).is_ok(), "other shards unaffected");
        // Global outage fans to every shard; heal restores.
        p.set_idp_available(false);
        assert!(!p.idp_available());
        for &u in &users {
            assert_eq!(p.login(&db, u, None), Err(CredError::Unavailable));
        }
        p.set_idp_available(true);
        assert!(p.seize_shard(shard, false));
        assert!(p.idp_available() && p.ca_available());
        assert!(p.login(&db, victim, None).is_ok());
        assert!(!p.seize_shard(99, true), "no such shard");
    }

    #[test]
    fn plane_log_compaction_preserves_sequence_and_snapshot() {
        let (db, mut p, users) = setup(4);
        let tokens: Vec<SignedToken> = users
            .iter()
            .take(4)
            .map(|&u| p.login(&db, u, None).unwrap())
            .collect();
        for t in &tokens {
            p.revoke_serial(t.serial);
        }
        assert_eq!(p.revocation_head(), 4);
        assert_eq!(p.compact_revocations_below(2), 2);
        assert_eq!(p.revocation_floor(), 2);
        assert_eq!(p.revocation_head(), 4, "head survives compaction");
        assert_eq!(
            p.revocations_since(2),
            vec![tokens[2].serial, tokens[3].serial]
        );
        // Below the floor the delta clamps; the snapshot path carries the
        // full membership, sorted.
        assert_eq!(p.revocations_since(0).len(), 2);
        let mut expect: Vec<CredSerial> = tokens.iter().map(|t| t.serial).collect();
        expect.sort_unstable();
        assert_eq!(p.revocation_snapshot(), expect);
        assert_eq!(p.compact_revocations_below(1), 0, "below floor: no-op");
    }

    #[test]
    fn cross_realm_rejection_is_preserved() {
        let (db, mut p, users) = setup(4);
        p.login(&db, users[0], None).unwrap();
        let mut foreign = CredentialBroker::new(RealmId(9), 5, BrokerPolicy::default());
        let forged = foreign.login(&db, users[0], None).unwrap();
        assert!(matches!(
            p.validate_token(&forged),
            Err(CredError::RealmMismatch { .. })
        ));
    }
}
