//! Decision cache for the UBF daemon.
//!
//! The ident round-trip dominates connection-setup cost, and HPC workloads
//! open many flows between the same (user, user) pairs in bursts (MPI rank
//! wire-up). A small positive/negative cache removes repeat ident queries
//! (`ubf.cache_hit_ratio` in the benchmark). Its capacity bounds the
//! number of entries, not the memory: the tables start empty and grow with
//! the entries actually held, so a host that judges a few hundred pairs
//! pays for a few hundred, whatever the bound. Entries are
//! keyed by both endpoints' (uid, egid), so a `newgrp` restart naturally
//! misses. A change of group *membership* does not change the key: the
//! daemon compares [`eus_simos::UserDb::membership_epoch`] on every
//! decision and calls [`DecisionCache::invalidate_all`] when it has moved.

use crate::policy::Decision;
use eus_simcore::{HashKey, KeyedMap};
use eus_simnet::PeerInfo;
use eus_simos::{Gid, Uid};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// The cache's hash key: seeded, as all key material in the simulation is
/// (a deployment would draw it at boot). Users pick the groups they
/// `newgrp` to, so the hash must be keyed; nothing reads the map's
/// iteration order.
const CACHE_KEY: HashKey = HashKey::from_secret(0x0BF0_CAC4_E0DE_C1DE);

/// Cache key: both identities, uid+egid each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    initiator_uid: Uid,
    initiator_egid: Gid,
    listener_uid: Uid,
    listener_egid: Gid,
}

impl CacheKey {
    /// Build a key from the two endpoints.
    pub fn new(initiator: &PeerInfo, listener: &PeerInfo) -> Self {
        CacheKey {
            initiator_uid: initiator.uid,
            initiator_egid: initiator.egid,
            listener_uid: listener.uid,
            listener_egid: listener.egid,
        }
    }
}

/// One word per endpoint, so the keyed hasher spends two rounds on a key.
impl Hash for CacheKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let word = |uid: Uid, gid: Gid| (u64::from(uid.0) << 32) | u64::from(gid.0);
        state.write_u64(word(self.initiator_uid, self.initiator_egid));
        state.write_u64(word(self.listener_uid, self.listener_egid));
    }
}

/// Bounded FIFO-evicting decision cache.
#[derive(Debug, Clone)]
pub struct DecisionCache {
    map: KeyedMap<CacheKey, Decision>,
    order: VecDeque<CacheKey>,
    capacity: usize,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (0 disables caching).
    /// Nothing is reserved up front: the tables grow with the entries.
    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            map: KeyedMap::with_hasher(CACHE_KEY),
            order: VecDeque::new(),
            capacity,
        }
    }

    // analyze:hot-path-begin(ubf-cache)
    /// Cached decision, if present.
    pub fn get(&self, key: &CacheKey) -> Option<Decision> {
        self.map.get(key).copied()
    }

    /// Record a decision.
    pub fn put(&mut self, key: CacheKey, decision: Decision) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, decision).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
    // analyze:hot-path-end

    /// Drop everything (group membership changed).
    pub fn invalidate_all(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Current number of cached decisions.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLOW: Decision = Decision::AllowSameUser;
    const DENY: Decision = Decision::Deny;

    fn peer(uid: u32, egid: u32) -> PeerInfo {
        PeerInfo {
            uid: Uid(uid),
            egid: Gid(egid),
            pid: None,
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = DecisionCache::new(8);
        let k = CacheKey::new(&peer(1, 1), &peer(2, 7));
        assert_eq!(c.get(&k), None);
        c.put(k, ALLOW);
        assert_eq!(c.get(&k), Some(ALLOW));
        // Different egid on the listener → different key (newgrp restart).
        let k2 = CacheKey::new(&peer(1, 1), &peer(2, 8));
        assert_eq!(c.get(&k2), None);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut c = DecisionCache::new(2);
        let k1 = CacheKey::new(&peer(1, 1), &peer(9, 9));
        let k2 = CacheKey::new(&peer(2, 2), &peer(9, 9));
        let k3 = CacheKey::new(&peer(3, 3), &peer(9, 9));
        c.put(k1, ALLOW);
        c.put(k2, DENY);
        c.put(k3, ALLOW);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k1), None, "oldest evicted");
        assert_eq!(c.get(&k2), Some(DENY));
        assert_eq!(c.get(&k3), Some(ALLOW));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = DecisionCache::new(0);
        let k = CacheKey::new(&peer(1, 1), &peer(2, 2));
        c.put(k, ALLOW);
        assert_eq!(c.get(&k), None);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = DecisionCache::new(4);
        c.put(CacheKey::new(&peer(1, 1), &peer(2, 2)), ALLOW);
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn a_new_cache_reserves_nothing() {
        for capacity in [0, 1, 4096] {
            let c = DecisionCache::new(capacity);
            assert_eq!(c.map.capacity(), 0, "capacity {capacity}");
            assert!(c.order.is_empty() && c.order.capacity() == 0);
        }
    }

    /// The cache against a naive FIFO model, a `VecDeque` of (key,
    /// decision) in insertion order, over random `put` / `get` /
    /// `invalidate_all` tapes. Every `get` agrees, `len() ≤ capacity` after
    /// every step, and each eviction takes the model's oldest key.
    #[test]
    fn matches_a_naive_fifo_model_on_random_tapes() {
        use eus_simcore::SimRng;
        const DECISIONS: [Decision; 4] = [
            Decision::AllowSameUser,
            Decision::AllowGroupMember,
            Decision::AllowSystemService,
            Decision::Deny,
        ];
        let key = |i: usize| CacheKey::new(&peer(i as u32, 100 + i as u32 % 3), &peer(7, 7));
        // (capacity, distinct keys, steps per tape, tapes): the key pool
        // exceeds every capacity so the bound is reached and evicts.
        for (capacity, keys, steps, tapes) in [
            (0, 8, 300, 16),
            (1, 8, 300, 32),
            (2, 8, 300, 32),
            (7, 24, 600, 32),
            (4096, 6000, 16_000, 2),
        ] {
            for seed in 0..tapes {
                let mut rng = SimRng::seed_from_u64(seed * 1_000 + capacity as u64);
                let mut c = DecisionCache::new(capacity);
                let mut model: VecDeque<(CacheKey, Decision)> = VecDeque::new();
                let find = |m: &VecDeque<(CacheKey, Decision)>, k: &CacheKey| {
                    m.iter().find(|(mk, _)| mk == k).map(|&(_, d)| d)
                };
                for step in 0..steps {
                    let k = key(rng.index(keys));
                    let roll = rng.index(1_000);
                    if roll < 2 {
                        c.invalidate_all();
                        model.clear();
                    } else if roll < 450 {
                        assert_eq!(
                            c.get(&k),
                            find(&model, &k),
                            "cap {capacity} seed {seed} step {step}"
                        );
                    } else {
                        let d = *rng.pick(&DECISIONS);
                        c.put(k, d);
                        if capacity > 0 {
                            if let Some(slot) = model.iter_mut().find(|(mk, _)| *mk == k) {
                                slot.1 = d;
                            } else {
                                model.push_back((k, d));
                                if model.len() > capacity {
                                    let (evicted, _) = model.pop_front().unwrap();
                                    assert_eq!(
                                        c.get(&evicted),
                                        None,
                                        "cap {capacity} seed {seed}: not FIFO"
                                    );
                                }
                            }
                        }
                        assert_eq!(c.get(&k), find(&model, &k));
                    }
                    assert!(c.len() <= capacity);
                    assert_eq!(c.len(), model.len());
                }
            }
        }
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let mut c = DecisionCache::new(2);
        let k = CacheKey::new(&peer(1, 1), &peer(2, 2));
        c.put(k, ALLOW);
        c.put(k, DENY); // update in place
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k), Some(DENY));
    }
}
