//! Fabric table invariants under random tapes of `add_host`, `listen`,
//! `connect`, `close` and per-user teardown (`close_flows_of`, then the
//! user's sockets), on small cluster ids and on the sparse ids the revsync
//! WAN uses (`NodeId(900_000 + realm)`). After every step: the conntrack tables hold
//! exactly the live connections' entries, the occupancy gauge lists every
//! host once in `NodeId` order, every live connection sends, and every
//! closed one is gone.

use bytes::Bytes;
use eus_simnet::{ConnId, ConnectError, Fabric, PeerInfo, Proto, SendError, SocketAddr};
use eus_simos::{Gid, NodeId, Uid};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const PORTS: [u16; 3] = [8000, 8001, 8002];

/// A host id from the tape: one of 70 cluster nodes, or one of four WAN
/// sites.
fn host_id(a: u8, b: u8) -> NodeId {
    if a % 4 == 3 {
        NodeId(900_000 + u32::from(b % 4))
    } else {
        NodeId(1 + u32::from(b) % 70)
    }
}

/// One of three users.
fn peer(u: u8) -> PeerInfo {
    let id = 1000 + u32::from(u % 3);
    PeerInfo {
        uid: Uid(id),
        egid: Gid(id),
        pid: None,
    }
}

/// A host the tape names: mostly one already added, sometimes any id
/// (possibly unknown to the fabric).
fn pick(hosts: &BTreeSet<NodeId>, a: u8, b: u8) -> NodeId {
    match hosts.iter().nth(usize::from(b) % hosts.len().max(1)) {
        Some(&h) if !a.is_multiple_of(8) => h,
        _ => host_id(a, b),
    }
}

/// A live connection as the model sees it.
struct Flow {
    src: NodeId,
    dst: NodeId,
    initiator: Uid,
    listener: Uid,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fabric_tables_track_exactly_the_live_connections(
        tape in proptest::collection::vec((0u8..5, 0u8..8, any::<u8>(), any::<u8>()), 1..150),
    ) {
        let mut f = Fabric::new();
        let mut hosts: BTreeSet<NodeId> = BTreeSet::new();
        let mut live: BTreeMap<ConnId, Flow> = BTreeMap::new();
        let mut closed: Vec<ConnId> = Vec::new();
        let payload = Bytes::from_static(b"ping");

        for (step, &(action, a, b, c)) in tape.iter().enumerate() {
            match action {
                0 => {
                    let id = host_id(a, b);
                    f.add_host(id);
                    hosts.insert(id);
                }
                1 => {
                    let h = pick(&hosts, a, b);
                    let r = f.listen(h, Proto::Tcp, PORTS[usize::from(c) % 3], peer(c / 3));
                    if !hosts.contains(&h) {
                        prop_assert_eq!(r, Err(ConnectError::NoSuchHost(h)));
                    }
                }
                2 => {
                    let (src, dst) = (pick(&hosts, a, b), pick(&hosts, a, c));
                    let port = PORTS[usize::from(c) % 3];
                    let listener = f
                        .host(dst)
                        .and_then(|h| h.sockets.listener(Proto::Tcp, port))
                        .map(|e| e.owner.uid);
                    let initiator = peer(a);
                    let r = f.connect(src, initiator, SocketAddr::new(dst, port), Proto::Tcp);
                    // The firewalls are open: a listener is all it takes.
                    prop_assert_eq!(
                        r.is_ok(),
                        hosts.contains(&src) && listener.is_some(),
                        "step {}: {:?}", step, r
                    );
                    if let (Ok((id, _)), Some(listener)) = (r, listener) {
                        live.insert(id, Flow { src, dst, initiator: initiator.uid, listener });
                    }
                }
                3 => {
                    let all: Vec<ConnId> = live.keys().chain(&closed).copied().collect();
                    if let Some(&id) = all.get(usize::from(b) % all.len().max(1)) {
                        let was_live = live.remove(&id).is_some();
                        prop_assert_eq!(f.close(id), was_live);
                        if was_live {
                            closed.push(id);
                        }
                    }
                }
                _ => {
                    let (node, uid) = (pick(&hosts, a, b), peer(c).uid);
                    let doomed: Vec<ConnId> = live
                        .iter()
                        .filter(|(_, fl)| {
                            (fl.src == node && fl.initiator == uid)
                                || (fl.dst == node && fl.listener == uid)
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    prop_assert_eq!(f.close_flows_of(node, uid), doomed.len());
                    if let Some(h) = f.host_mut(node) {
                        h.sockets.close_all_of(uid);
                    }
                    for id in doomed {
                        live.remove(&id);
                        closed.push(id);
                    }
                    prop_assert!(f.host(node).is_none_or(|h| h
                        .sockets
                        .listeners()
                        .all(|(_, _, e)| e.owner.uid != uid)));
                }
            }

            // Two directional entries per endpoint table: 4 per flow
            // between two hosts, 2 for a loopback flow (one shared table).
            let mut model: BTreeMap<NodeId, usize> = hosts.iter().map(|&h| (h, 0)).collect();
            for fl in live.values() {
                *model.entry(fl.src).or_default() += 2;
                if fl.dst != fl.src {
                    *model.entry(fl.dst).or_default() += 2;
                }
            }
            let loopback = live.values().filter(|fl| fl.src == fl.dst).count();
            prop_assert_eq!(
                f.flows_tracked(),
                4 * (live.len() - loopback) + 2 * loopback,
                "step {}", step
            );
            prop_assert_eq!(f.connection_count(), live.len());
            prop_assert_eq!(
                f.flow_table_occupancy(),
                model.into_iter().collect::<Vec<_>>(),
                "step {}: occupancy must list every host once, in NodeId order", step
            );
            for &id in live.keys() {
                prop_assert!(f.send(id, &payload).is_ok(), "step {}: live {:?} cannot send", step, id);
            }
            for &id in &closed {
                prop_assert_eq!(f.send(id, &payload), Err(SendError::NoSuchConnection(id)));
            }
        }
    }
}
