//! Dense node storage for the scheduler core.
//!
//! [`NodeTable`] keeps every [`SchedNode`] in a dense `Vec` (node ids are
//! allocated sequentially from 1, so `slot = id.0 - 1`). The slot is the
//! one authoritative copy of a node's capacity; the engine derives its
//! 40-byte capacity rows from it in the `mirror_update` funnel, and every
//! placement and shadow decision reads those rows.
//!
//! [`NodeSet`] replaces the old `BTreeSet<NodeId>` idle/avail indexes with
//! a bitmap whose iteration order is still ascending node id — the
//! placement walk order (and therefore every trace) is unchanged from the
//! map-based engine, which is what keeps the equivalence suites green.

use crate::node::SchedNode;
use eus_simos::NodeId;

/// Dense node storage: one `SchedNode` slot per node id.
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    slots: Vec<SchedNode>,
}

/// Dense slot index for a node id (`NodeId(1)` → slot 0).
#[inline]
pub fn slot_of(id: NodeId) -> usize {
    (id.0 as usize).wrapping_sub(1)
}

impl NodeTable {
    /// Append a node. Ids must arrive dense and ascending (the engine
    /// allocates them sequentially from 1); anything else would break the
    /// `slot = id - 1` addressing every row and bitmap relies on.
    pub fn push(&mut self, node: SchedNode) {
        assert_eq!(
            slot_of(node.id),
            self.slots.len(),
            "node ids must be dense ascending"
        );
        self.slots.push(node);
    }

    /// Borrow a node.
    pub fn get(&self, id: &NodeId) -> Option<&SchedNode> {
        self.slots.get(slot_of(*id))
    }

    /// Mutably borrow a node. Callers that change placement-relevant state
    /// must route through the engine's mirror-update funnel before the next
    /// scheduling decision reads the node's capacity row.
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

    fn node(id: u32) -> SchedNode {
        SchedNode::new(NodeId(id), 16, 65_536, 2)
    }

    #[test]
    fn slots_are_addressed_by_id_and_walked_ascending() {
        let mut t = NodeTable::default();
        t.push(node(1));
        t.push(node(2));
        assert_eq!(t[&NodeId(1)].id, NodeId(1));
        assert_eq!(t.get(&NodeId(2)).map(|n| n.id), Some(NodeId(2)));
        assert!(t.get(&NodeId(3)).is_none());
        assert_eq!(
            t.values().map(|n| n.id.0).collect::<Vec<_>>(),
            vec![1, 2],
            "values() walks ascending ids"
        );
    }

    #[test]
    #[should_panic(expected = "dense ascending")]
    fn sparse_ids_rejected() {
        let mut t = NodeTable::default();
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
