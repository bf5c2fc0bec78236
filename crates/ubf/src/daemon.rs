//! The UBF userspace daemon: the `NFQUEUE` handler that judges every new
//! connection on inspected ports (paper Sec. IV-D).
//!
//! Per queued packet the daemon performs:
//! 1. a local lookup of its own endpoint's socket owner,
//! 2. an ident-style query to the peer host (skipped on a cache hit),
//! 3. the [`crate::policy::decide`] check against the account database
//!    the connect's caller lends for the call ([`QueueCtx::directory`]).
//!
//! The daemon keeps no account state of its own: every host's daemon
//! reads the one database the cluster owns, as LDAP/sssd would provide.
//!
//! **Cache coherence.** A cached verdict can rest on group membership, and
//! its key — (uid, egid) of both ends — does not move when a user joins or
//! leaves a group. So every decision first compares the database's
//! [`UserDb::membership_epoch`] with the one the cache was filled under and
//! drops the whole cache when it has moved: a group opt-in follows
//! *current* membership on every host, with no TTL and no manual flush.
//!
//! Statistics are exported through a shared handle so experiments can read
//! them after the daemon has been moved into the fabric.

use crate::cache::{CacheKey, DecisionCache};
use crate::policy::{decide, Decision};
use eus_simcore::Counter;
use eus_simnet::{QueueCtx, QueueHandler, Verdict};
#[cfg(doc)]
use eus_simos::UserDb;
use parking_lot::Mutex;
use std::sync::Arc;

/// Daemon counters, readable from outside via [`UbfStats`] handle.
#[derive(Debug, Default)]
pub struct UbfStatsInner {
    /// Connections allowed (same user).
    pub allowed_same_user: Counter,
    /// Connections allowed (group opt-in).
    pub allowed_group: Counter,
    /// Connections allowed (system service).
    pub allowed_system: Counter,
    /// Connections denied.
    pub denied: Counter,
    /// Decisions answered from cache.
    pub cache_hits: Counter,
    /// Decisions that required an ident round trip.
    pub ident_queries: Counter,
}

impl UbfStatsInner {
    /// Total decisions made.
    pub fn total(&self) -> u64 {
        self.allowed_same_user.get()
            + self.allowed_group.get()
            + self.allowed_system.get()
            + self.denied.get()
    }

    fn record(&mut self, d: Decision) {
        match d {
            Decision::AllowSameUser => self.allowed_same_user.incr(),
            Decision::AllowGroupMember => self.allowed_group.incr(),
            Decision::AllowSystemService => self.allowed_system.incr(),
            Decision::Deny => self.denied.incr(),
        }
    }
}

/// Shared statistics handle.
pub type UbfStats = Arc<Mutex<UbfStatsInner>>;

/// Every daemon's decision-cache bound: the most entries its cache holds.
/// `net_wireup`'s `ubf.cache_hit_ratio` measures what the cache saves.
pub const UBF_CACHE_CAPACITY: usize = 4096;

/// The daemon. One instance runs per host (attached to that host's queue 0).
pub struct UbfDaemon {
    cache: DecisionCache,
    /// The [`UserDb::membership_epoch`] every cached decision was made under
    /// (0 while the cache is empty: an empty cache is valid under any).
    cache_epoch: u64,
    stats: UbfStats,
}

impl Default for UbfDaemon {
    /// A daemon with an empty decision cache.
    fn default() -> Self {
        UbfDaemon {
            cache: DecisionCache::new(UBF_CACHE_CAPACITY),
            cache_epoch: 0,
            stats: Arc::new(Mutex::new(UbfStatsInner::default())),
        }
    }
}

impl UbfDaemon {
    /// Clone the statistics handle (do this before moving the daemon into
    /// the fabric).
    pub fn stats(&self) -> UbfStats {
        self.stats.clone()
    }
}

impl QueueHandler for UbfDaemon {
    fn name(&self) -> &str {
        "ubf-daemon"
    }

    // analyze:hot-path-begin(ubf-match)
    fn judge(&mut self, ctx: &mut QueueCtx<'_>) -> Verdict {
        // Local lookup of our own endpoint (one daemon lookup).
        ctx.costs.daemon_lookups += 1;

        let key = CacheKey::new(&ctx.initiator, &ctx.listener);
        let db = ctx.directory;
        if db.membership_epoch() != self.cache_epoch {
            self.cache.invalidate_all();
            self.cache_epoch = db.membership_epoch();
        }
        let (d, hit) = match self.cache.get(&key) {
            Some(d) => (d, true),
            None => (decide(db, &ctx.initiator, &ctx.listener), false),
        };
        let mut stats = self.stats.lock();
        if hit {
            ctx.costs.cache_hit = true;
            if d.allowed() {
                // The cost model charges an allow hit one membership lookup.
                ctx.costs.daemon_lookups += 1;
            }
            stats.cache_hits.incr();
        } else {
            // Cache miss: ident round trip to the peer host, then a group
            // membership lookup.
            ctx.costs.ident_rtts += 1;
            ctx.costs.daemon_lookups += 1;
            stats.ident_queries.incr();
            self.cache.put(key, d);
        }
        stats.record(d);
        drop(stats);

        if d.allowed() {
            Verdict::Accept
        } else {
            Verdict::Drop
        }
    }
    // analyze:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simnet::{FiveTuple, PeerInfo, Proto, SetupCosts, SocketAddr};
    use eus_simos::{NodeId, Uid, UserDb};

    fn db_two_users() -> (UserDb, Uid, Uid) {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        (db, a, b)
    }

    fn ctx_for<'a>(
        db: &'a UserDb,
        init: Uid,
        listen: Uid,
        costs: &'a mut SetupCosts,
    ) -> QueueCtx<'a> {
        QueueCtx {
            tuple: FiveTuple {
                proto: Proto::Tcp,
                src: SocketAddr::new(NodeId(1), 40000),
                dst: SocketAddr::new(NodeId(2), 8888),
            },
            initiator: PeerInfo::from_cred(&db.credentials(init).unwrap()),
            listener: PeerInfo::from_cred(&db.credentials(listen).unwrap()),
            directory: db,
            costs,
        }
    }

    #[test]
    fn same_user_accepted_stranger_dropped() {
        let (db, a, b) = db_two_users();
        let mut daemon = UbfDaemon::default();
        let stats = daemon.stats();

        let mut costs = SetupCosts::default();
        let mut ctx = ctx_for(&db, a, a, &mut costs);
        assert_eq!(daemon.judge(&mut ctx), Verdict::Accept);

        let mut costs = SetupCosts::default();
        let mut ctx = ctx_for(&db, b, a, &mut costs);
        assert_eq!(daemon.judge(&mut ctx), Verdict::Drop);

        let s = stats.lock();
        assert_eq!(s.allowed_same_user.get(), 1);
        assert_eq!(s.denied.get(), 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn cache_skips_ident_on_repeat() {
        let (db, a, _) = db_two_users();
        let mut daemon = UbfDaemon::default();
        let stats = daemon.stats();

        let mut c1 = SetupCosts::default();
        daemon.judge(&mut ctx_for(&db, a, a, &mut c1));
        assert_eq!(c1.ident_rtts, 1);
        assert!(!c1.cache_hit);

        let mut c2 = SetupCosts::default();
        daemon.judge(&mut ctx_for(&db, a, a, &mut c2));
        assert_eq!(c2.ident_rtts, 0, "cached decision skips ident");
        assert!(c2.cache_hit);

        let s = stats.lock();
        assert_eq!(s.cache_hits.get(), 1);
        assert_eq!(s.ident_queries.get(), 1);
    }

    #[test]
    fn membership_change_drops_cached_decisions() {
        let (mut db, a, b) = db_two_users();
        let proj = db.create_project_group("proj", a).unwrap();
        let mut daemon = UbfDaemon::default();
        // a listens with egid = proj; b connects. Same cache key throughout.
        let judge = |daemon: &mut UbfDaemon, db: &UserDb| {
            let mut costs = SetupCosts::default();
            let mut ctx = ctx_for(db, b, a, &mut costs);
            ctx.listener =
                PeerInfo::from_cred(&db.newgrp(&db.credentials(a).unwrap(), proj).unwrap());
            (daemon.judge(&mut ctx), ctx.costs.cache_hit)
        };
        assert_eq!(judge(&mut daemon, &db), (Verdict::Drop, false));
        assert_eq!(judge(&mut daemon, &db), (Verdict::Drop, true));

        db.add_to_group(a, proj, b).unwrap();
        assert_eq!(
            judge(&mut daemon, &db),
            (Verdict::Accept, false),
            "stale deny"
        );
        assert_eq!(judge(&mut daemon, &db), (Verdict::Accept, true));

        db.remove_from_group(a, proj, b).unwrap();
        assert_eq!(
            judge(&mut daemon, &db),
            (Verdict::Drop, false),
            "stale allow"
        );
        assert_eq!(daemon.stats().lock().allowed_group.get(), 2);
    }
}
