//! Cache-native node storage for the scheduler core.
//!
//! [`NodeTable`] keeps every [`SchedNode`] in a dense `Vec` (node ids are
//! allocated sequentially from 1, so `slot = id.0 - 1`) and mirrors the
//! placement-relevant fields into struct-of-arrays columns: a candidate
//! scan that rejects a node on `free_cores` alone touches 4 bytes, not a
//! 200-byte struct behind a `BTreeMap` pointer chase. The columns are
//! refreshed through [`NodeTable::sync`], which the engine calls from the
//! same funnel that maintains the shadow mirror (`mirror_update`), so the
//! columns can never drift from the slots between scheduling decisions.
//!
//! [`NodeSet`] replaces the old `BTreeSet<NodeId>` idle/avail indexes with
//! a bitmap whose iteration order is still ascending node id — the
//! placement walk order (and therefore every trace) is unchanged from the
//! map-based engine, which is what keeps the equivalence suites green.

use crate::node::{NodeState, SchedNode};
use eus_simos::{NodeId, Uid};

/// Borrowed struct-of-arrays view over the node columns, for dense scans.
///
/// All slices share one length ([`NodeTable::len`]); slot `i` describes
/// `NodeId(i as u32 + 1)`.
#[derive(Debug, Clone, Copy)]
pub struct NodeCols<'a> {
    /// Unclaimed cores per slot.
    pub free_cores: &'a [u32],
    /// Unclaimed memory (MiB) per slot.
    pub free_mem: &'a [u64],
    /// Unclaimed GPUs per slot.
    pub free_gpus: &'a [u32],
    /// Running-allocation count per slot.
    pub jobs: &'a [u32],
    /// Sole owner per slot (`None` when idle or mixed-user).
    pub owner: &'a [Option<Uid>],
    /// `true` when the slot's node is `Up`.
    pub up: &'a [bool],
    /// Total cores per slot.
    pub cap_cores: &'a [u32],
    /// Total memory (MiB) per slot.
    pub cap_mem: &'a [u64],
    /// Total GPUs per slot.
    pub cap_gpus: &'a [u32],
}

/// Dense node storage: `SchedNode` slots plus SoA columns kept in sync.
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    slots: Vec<SchedNode>,
    free_cores: Vec<u32>,
    free_mem: Vec<u64>,
    free_gpus: Vec<u32>,
    jobs: Vec<u32>,
    owner: Vec<Option<Uid>>,
    up: Vec<bool>,
    cap_cores: Vec<u32>,
    cap_mem: Vec<u64>,
    cap_gpus: Vec<u32>,
}

/// Dense slot index for a node id (`NodeId(1)` → slot 0).
#[inline]
pub fn slot_of(id: NodeId) -> usize {
    (id.0 as usize).wrapping_sub(1)
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Append a node. Ids must arrive dense and ascending (the engine
    /// allocates them sequentially from 1); anything else would break the
    /// `slot = id - 1` addressing every column scan relies on.
    pub fn push(&mut self, node: SchedNode) {
        assert_eq!(
            slot_of(node.id),
            self.slots.len(),
            "node ids must be dense ascending"
        );
        self.free_cores.push(node.free_cores());
        self.free_mem.push(node.free_mem_mib());
        self.free_gpus.push(node.free_gpus());
        self.jobs.push(node.running.len() as u32);
        self.owner.push(node.owner());
        self.up.push(node.state == NodeState::Up);
        self.cap_cores.push(node.cores);
        self.cap_mem.push(node.mem_mib);
        self.cap_gpus.push(node.gpus);
        self.slots.push(node);
    }

    /// Refresh slot `id`'s columns from its `SchedNode`. The engine calls
    /// this from the mirror-update funnel after every claim / release /
    /// fail / repair, so column reads between scheduling decisions always
    /// see the slot's current state.
    pub fn sync(&mut self, id: NodeId) {
        let i = slot_of(id);
        // analyze:hot-path-begin(sched-soa-sync)
        if let Some(node) = self.slots.get(i) {
            if let Some(c) = self.free_cores.get_mut(i) {
                *c = node.free_cores();
            }
            if let Some(m) = self.free_mem.get_mut(i) {
                *m = node.free_mem_mib();
            }
            if let Some(g) = self.free_gpus.get_mut(i) {
                *g = node.free_gpus();
            }
            if let Some(j) = self.jobs.get_mut(i) {
                *j = node.running.len() as u32;
            }
            if let Some(o) = self.owner.get_mut(i) {
                *o = node.owner();
            }
            if let Some(u) = self.up.get_mut(i) {
                *u = node.state == NodeState::Up;
            }
        }
        // analyze:hot-path-end
    }

    /// The struct-of-arrays view for dense scans.
    pub fn cols(&self) -> NodeCols<'_> {
        NodeCols {
            free_cores: &self.free_cores,
            free_mem: &self.free_mem,
            free_gpus: &self.free_gpus,
            jobs: &self.jobs,
            owner: &self.owner,
            up: &self.up,
            cap_cores: &self.cap_cores,
            cap_mem: &self.cap_mem,
            cap_gpus: &self.cap_gpus,
        }
    }

    /// Borrow a node.
    pub fn get(&self, id: &NodeId) -> Option<&SchedNode> {
        self.slots.get(slot_of(*id))
    }

    /// Mutably borrow a node. Callers that change placement-relevant state
    /// must route through the engine's mirror-update funnel (which calls
    /// [`NodeTable::sync`]) before the next column scan.
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut SchedNode> {
        self.slots.get_mut(slot_of(*id))
    }

    /// Iterate nodes in ascending id order.
    pub fn values(&self) -> std::slice::Iter<'_, SchedNode> {
        self.slots.iter()
    }
}

impl std::ops::Index<&NodeId> for NodeTable {
    type Output = SchedNode;

    fn index(&self, id: &NodeId) -> &SchedNode {
        &self.slots[slot_of(*id)]
    }
}

/// A node-id bitmap with ascending-id iteration — the intrusive free-list
/// analog for the idle/avail indexes (membership flips are O(1) bit ops;
/// iteration is a word scan instead of a `BTreeSet` pointer chase).
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no nodes are members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `id`; returns `true` when it was not already present.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let bit = slot_of(id);
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        // analyze:hot-path-begin(sched-soa-nodeset)
        let mask = 1u64 << (bit % 64);
        if let Some(w) = self.words.get_mut(word) {
            if *w & mask == 0 {
                *w |= mask;
                self.len += 1;
                return true;
            }
        }
        // analyze:hot-path-end
        false
    }

    /// Remove `id`; returns `true` when it was present.
    pub fn remove(&mut self, id: &NodeId) -> bool {
        let bit = slot_of(*id);
        // analyze:hot-path-begin(sched-soa-nodeset)
        let mask = 1u64 << (bit % 64);
        if let Some(w) = self.words.get_mut(bit / 64) {
            if *w & mask != 0 {
                *w &= !mask;
                self.len -= 1;
                return true;
            }
        }
        // analyze:hot-path-end
        false
    }

    /// Membership test.
    pub fn contains(&self, id: &NodeId) -> bool {
        let bit = slot_of(*id);
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Iterate member ids in ascending order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending-id iterator over a [`NodeSet`].
#[derive(Debug)]
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        // analyze:hot-path-begin(sched-soa-nodeset)
        while self.current == 0 {
            self.word_idx += 1;
            match self.words.get(self.word_idx) {
                Some(w) => self.current = *w,
                None => return None,
            }
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        let slot = self.word_idx * 64 + bit;
        // analyze:hot-path-end
        Some(NodeId(slot as u32 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, TaskAlloc};

    fn node(id: u32) -> SchedNode {
        SchedNode::new(NodeId(id), 16, 65_536, 2)
    }

    #[test]
    fn columns_track_claims_through_sync() {
        let mut t = NodeTable::new();
        t.push(node(1));
        t.push(node(2));
        assert_eq!(t.len(), 2);
        let alloc = TaskAlloc {
            tasks: 1,
            cores: 4,
            mem_mib: 1_000,
            gpus: 1,
        };
        t.get_mut(&NodeId(2))
            .unwrap()
            .claim(JobId(7), alloc, Uid(9));
        // Columns are stale until the funnel syncs the slot.
        assert_eq!(t.cols().free_cores[1], 16);
        t.sync(NodeId(2));
        let c = t.cols();
        assert_eq!(c.free_cores[1], 12);
        assert_eq!(c.free_mem[1], 64_536);
        assert_eq!(c.free_gpus[1], 1);
        assert_eq!(c.jobs[1], 1);
        assert_eq!(c.owner[1], Some(Uid(9)));
        assert!(c.up[1]);
        assert_eq!(c.cap_cores[1], 16);
        assert_eq!(t[&NodeId(1)].id, NodeId(1));
        assert_eq!(
            t.values().map(|n| n.id.0).collect::<Vec<_>>(),
            vec![1, 2],
            "values() walks ascending ids"
        );
    }

    #[test]
    fn down_state_reaches_the_up_column() {
        let mut t = NodeTable::new();
        t.push(node(1));
        t.get_mut(&NodeId(1)).unwrap().state = NodeState::Down;
        t.sync(NodeId(1));
        assert!(!t.cols().up[0]);
    }

    #[test]
    #[should_panic(expected = "dense ascending")]
    fn sparse_ids_rejected() {
        let mut t = NodeTable::new();
        t.push(node(2));
    }

    #[test]
    fn nodeset_tracks_membership_in_id_order() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        for id in [130u32, 1, 64, 65, 2] {
            assert!(s.insert(NodeId(id)));
        }
        assert!(!s.insert(NodeId(64)), "double insert is a no-op");
        assert_eq!(s.len(), 5);
        assert!(s.contains(&NodeId(65)));
        assert!(!s.contains(&NodeId(3)));
        assert!(!s.contains(&NodeId(100_000)), "past-end probe is false");
        assert_eq!(
            s.iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![1, 2, 64, 65, 130],
            "iteration is ascending like the BTreeSet it replaces"
        );
        assert!(s.remove(&NodeId(64)));
        assert!(!s.remove(&NodeId(64)));
        assert!(!s.remove(&NodeId(99_999)));
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![1, 2, 65, 130]
        );
    }
}
