//! The UBF userspace daemon: the `NFQUEUE` handler that judges every new
//! connection on inspected ports (paper Sec. IV-D).
//!
//! Per queued packet the daemon performs:
//! 1. a local lookup of its own endpoint's socket owner,
//! 2. an ident-style query to the peer host (skipped on a cache hit),
//! 3. the [`crate::policy::decide`] check against the shared user database.
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
use crate::obs::UbfPacketStats;
use crate::policy::{decide, Decision, UbfPolicy};
use eus_simcore::Counter;
use eus_simnet::{QueueCtx, QueueHandler, Verdict};
use eus_simos::UserDb;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Shared handle to the cluster user database (every daemon, the scheduler,
/// and the portal consult the same accounts, as LDAP/sssd would provide).
pub type SharedUserDb = Arc<RwLock<UserDb>>;

/// Wrap a [`UserDb`] for sharing.
pub fn shared_user_db(db: UserDb) -> SharedUserDb {
    Arc::new(RwLock::new(db))
}

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

    /// Total allowed.
    pub fn allowed(&self) -> u64 {
        self.total() - self.denied.get()
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

/// Configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct UbfConfig {
    /// Policy knobs.
    pub policy: UbfPolicy,
    /// Decision-cache capacity (0 disables; the ablation point for E9).
    pub cache_capacity: usize,
}

impl Default for UbfConfig {
    fn default() -> Self {
        UbfConfig {
            policy: UbfPolicy::default(),
            cache_capacity: 4096,
        }
    }
}

/// The daemon. One instance runs per host (attached to that host's queue 0).
pub struct UbfDaemon {
    db: SharedUserDb,
    config: UbfConfig,
    cache: DecisionCache,
    /// The [`UserDb::membership_epoch`] every cached decision was made under.
    cache_epoch: u64,
    stats: UbfStats,
    pkt: UbfPacketStats,
}

impl UbfDaemon {
    /// Create a daemon bound to the shared user database.
    pub fn new(db: SharedUserDb, config: UbfConfig) -> Self {
        let cache = DecisionCache::new(config.cache_capacity);
        let cache_epoch = db.read().membership_epoch();
        UbfDaemon {
            db,
            config,
            cache,
            cache_epoch,
            stats: Arc::new(Mutex::new(UbfStatsInner::default())),
            pkt: UbfPacketStats::disabled(),
        }
    }

    /// Clone the statistics handle (do this before moving the daemon into
    /// the fabric).
    pub fn stats(&self) -> UbfStats {
        self.stats.clone()
    }

    /// Replace the packet-path slot handle (keep a clone to read/enable
    /// after the daemon moves into the fabric).
    pub fn set_packet_stats(&mut self, pkt: UbfPacketStats) {
        self.pkt = pkt;
    }

    /// Clone the packet-path slot handle.
    pub fn packet_stats(&self) -> UbfPacketStats {
        self.pkt.clone()
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
        let pkt = &self.pkt;
        pkt.stats().incr(pkt.s_packets);

        let key = CacheKey::new(&ctx.initiator, &ctx.listener);
        let (d, hit) = {
            let db = self.db.read();
            if db.membership_epoch() != self.cache_epoch {
                self.cache.invalidate_all();
                self.cache_epoch = db.membership_epoch();
            }
            match self.cache.get(&key) {
                Some(d) => (d, true),
                None => (
                    decide(&self.config.policy, &db, &ctx.initiator, &ctx.listener),
                    false,
                ),
            }
        };
        let mut stats = self.stats.lock();
        if hit {
            ctx.costs.cache_hit = true;
            if d.allowed() {
                // The cost model charges an allow hit one membership lookup.
                ctx.costs.daemon_lookups += 1;
            }
            stats.cache_hits.incr();
            pkt.stats().incr(pkt.s_cache_hits);
        } else {
            // Cache miss: ident round trip to the peer host, then a group
            // membership lookup.
            ctx.costs.ident_rtts += 1;
            ctx.costs.daemon_lookups += 1;
            stats.ident_queries.incr();
            pkt.stats().incr(pkt.s_cache_misses);
            pkt.stats().incr(pkt.s_ident_rtts);
            self.cache.put(key, d);
            pkt.stats()
                .max(pkt.s_occupancy_peak, self.cache.len() as u64);
        }
        stats.record(d);
        drop(stats);

        if d.allowed() {
            Verdict::Accept
        } else {
            pkt.stats().incr(pkt.s_denies);
            Verdict::Drop
        }
    }
    // analyze:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simnet::{FiveTuple, PeerInfo, Proto, SetupCosts, SocketAddr};
    use eus_simos::{NodeId, Uid};

    fn db_two_users() -> (SharedUserDb, Uid, Uid) {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        (shared_user_db(db), a, b)
    }

    fn ctx_for<'a>(
        db: &SharedUserDb,
        init: Uid,
        listen: Uid,
        costs: &'a mut SetupCosts,
    ) -> QueueCtx<'a> {
        let guard = db.read();
        QueueCtx {
            tuple: FiveTuple {
                proto: Proto::Tcp,
                src: SocketAddr::new(NodeId(1), 40000),
                dst: SocketAddr::new(NodeId(2), 8888),
            },
            initiator: PeerInfo::from_cred(&guard.credentials(init).unwrap()),
            listener: PeerInfo::from_cred(&guard.credentials(listen).unwrap()),
            costs,
        }
    }

    #[test]
    fn same_user_accepted_stranger_dropped() {
        let (db, a, b) = db_two_users();
        let mut daemon = UbfDaemon::new(db.clone(), UbfConfig::default());
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
        let mut daemon = UbfDaemon::new(db.clone(), UbfConfig::default());
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
    fn cache_disabled_always_queries() {
        let (db, a, _) = db_two_users();
        let mut daemon = UbfDaemon::new(
            db.clone(),
            UbfConfig {
                cache_capacity: 0,
                ..UbfConfig::default()
            },
        );
        for _ in 0..3 {
            let mut c = SetupCosts::default();
            daemon.judge(&mut ctx_for(&db, a, a, &mut c));
            assert_eq!(c.ident_rtts, 1);
        }
        assert_eq!(daemon.stats().lock().ident_queries.get(), 3);
    }

    #[test]
    fn membership_change_drops_cached_decisions() {
        let (db, a, b) = db_two_users();
        let proj = db.write().create_project_group("proj", a).unwrap();
        let mut daemon = UbfDaemon::new(db.clone(), UbfConfig::default());
        // a listens with egid = proj; b connects. Same cache key throughout.
        let judge = |daemon: &mut UbfDaemon| {
            let mut costs = SetupCosts::default();
            let mut ctx = ctx_for(&db, b, a, &mut costs);
            let guard = db.read();
            ctx.listener =
                PeerInfo::from_cred(&guard.newgrp(&guard.credentials(a).unwrap(), proj).unwrap());
            drop(guard);
            (daemon.judge(&mut ctx), ctx.costs.cache_hit)
        };
        assert_eq!(judge(&mut daemon), (Verdict::Drop, false));
        assert_eq!(judge(&mut daemon), (Verdict::Drop, true));

        db.write().add_to_group(a, proj, b).unwrap();
        assert_eq!(judge(&mut daemon), (Verdict::Accept, false), "stale deny");
        assert_eq!(judge(&mut daemon), (Verdict::Accept, true));

        db.write().remove_from_group(a, proj, b).unwrap();
        assert_eq!(judge(&mut daemon), (Verdict::Drop, false), "stale allow");
        assert_eq!(daemon.stats().lock().allowed_group.get(), 2);
    }
}
