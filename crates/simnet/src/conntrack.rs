//! Connection tracking.
//!
//! The UBF only inspects the *first* packet of a flow; conntrack recognizes
//! every subsequent packet (both directions) as `Established` and the
//! firewall's passthrough rule accepts it without touching the queue. That
//! is why the UBF's cost lands entirely on connection setup (paper Sec. IV-D;
//! asserted by `network_ubf::overhead_lands_on_setup_only`).

use crate::addr::FiveTuple;
use eus_simcore::{HashKey, KeyedSet};

/// The flow table's hash key: seeded, as all key material in the
/// simulation is (a deployment would draw it at boot). Users choose the
/// ports and hosts in a tuple, so the hash must be keyed; nothing reads the
/// table's iteration order.
const FLOW_KEY: HashKey = HashKey::from_secret(0xC077_7ACC_F10A_5EED);

/// Per-host connection tracking table.
#[derive(Debug, Clone)]
pub struct ConnTrack {
    flows: KeyedSet<FiveTuple>,
}

impl Default for ConnTrack {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnTrack {
    /// An empty table.
    pub fn new() -> Self {
        ConnTrack {
            flows: KeyedSet::with_hasher(FLOW_KEY),
        }
    }

    /// Record a flow as established (both directions).
    pub fn establish(&mut self, tuple: FiveTuple) {
        self.flows.insert(tuple);
        self.flows.insert(tuple.reversed());
    }

    /// Is this packet part of an established flow?
    pub fn is_established(&self, tuple: &FiveTuple) -> bool {
        self.flows.contains(tuple)
    }

    /// Remove a flow (connection close / conntrack expiry).
    pub fn remove(&mut self, tuple: &FiveTuple) {
        self.flows.remove(tuple);
        self.flows.remove(&tuple.reversed());
    }

    /// Number of tracked directional entries.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are tracked.
    // analyze:allow(dead-pub): the emptiness check that goes with the live `len` (clippy::len_without_is_empty)
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Proto, SocketAddr};
    use eus_simos::NodeId;

    fn tuple() -> FiveTuple {
        FiveTuple {
            proto: Proto::Tcp,
            src: SocketAddr::new(NodeId(1), 40000),
            dst: SocketAddr::new(NodeId(2), 8888),
        }
    }

    #[test]
    fn establish_tracks_both_directions() {
        let mut ct = ConnTrack::new();
        let t = tuple();
        assert!(!ct.is_established(&t));
        ct.establish(t);
        assert!(ct.is_established(&t));
        assert!(ct.is_established(&t.reversed()));
        assert_eq!(ct.len(), 2);
    }

    #[test]
    fn remove_clears_both_directions() {
        let mut ct = ConnTrack::new();
        let t = tuple();
        ct.establish(t);
        ct.remove(&t.reversed());
        assert!(ct.is_empty());
        assert!(!ct.is_established(&t));
    }

    #[test]
    fn distinct_flows_are_independent() {
        let mut ct = ConnTrack::new();
        let a = tuple();
        let mut b = tuple();
        b.src.port = 40001;
        ct.establish(a);
        assert!(!ct.is_established(&b));
    }
}
