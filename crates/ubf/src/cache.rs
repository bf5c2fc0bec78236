//! Decision cache for the UBF daemon.
//!
//! The ident round-trip dominates connection-setup cost, and HPC workloads
//! open many flows between the same (user, user) pairs in bursts (MPI rank
//! wire-up). A small positive/negative cache with bounded capacity removes
//! repeat ident queries; the `ubf_overhead` bench ablates it. Entries are
//! keyed by both endpoints' (uid, egid), so a `newgrp` restart naturally
//! misses. A change of group *membership* does not change the key: the
//! daemon compares [`eus_simos::UserDb::membership_epoch`] on every
//! decision and calls [`DecisionCache::invalidate_all`] when it has moved.

use crate::policy::Decision;
use eus_simnet::PeerInfo;
use eus_simos::{Gid, Uid};
use std::collections::HashMap;

/// Cache key: both identities, uid+egid each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Bounded FIFO-evicting decision cache.
#[derive(Debug, Clone)]
pub struct DecisionCache {
    map: HashMap<CacheKey, Decision>,
    order: std::collections::VecDeque<CacheKey>,
    capacity: usize,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            map: HashMap::with_capacity(capacity),
            order: std::collections::VecDeque::with_capacity(capacity),
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
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
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
    fn reinsert_does_not_duplicate_order() {
        let mut c = DecisionCache::new(2);
        let k = CacheKey::new(&peer(1, 1), &peer(2, 2));
        c.put(k, ALLOW);
        c.put(k, DENY); // update in place
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k), Some(DENY));
    }
}
