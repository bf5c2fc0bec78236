//! Property-based network invariants: for arbitrary sequences of listen /
//! connect / send / close operations, socket tables and conntrack stay
//! consistent, and the UBF policy decision is exactly reproduced by the
//! end-to-end fabric outcome.

use bytes::Bytes;
use eus_ubf::{decide, deploy_ubf, Decision};
use hpc_user_separation::simnet::{ConnId, Fabric, PeerInfo, Proto, SocketAddr};
use hpc_user_separation::simos::{Gid, NodeId, Uid, UserDb};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Listen {
        host: u8,
        port_slot: u8,
        user: u8,
    },
    Connect {
        from: u8,
        to: u8,
        port_slot: u8,
        user: u8,
    },
    CloseOldest,
    Send {
        bytes: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u8..4, 0u8..4).prop_map(|(host, port_slot, user)| Op::Listen {
            host,
            port_slot,
            user
        }),
        (0u8..3, 0u8..3, 0u8..4, 0u8..4).prop_map(|(from, to, port_slot, user)| Op::Connect {
            from,
            to,
            port_slot,
            user
        }),
        Just(Op::CloseOldest),
        (1u16..4096).prop_map(|bytes| Op::Send { bytes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fabric_state_stays_consistent(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..4)
            .map(|i| db.create_user(&format!("u{i}")).unwrap())
            .collect();
        let mut f = Fabric::new();
        let hosts = [NodeId(1), NodeId(2), NodeId(3)];
        for h in hosts {
            f.add_host(h);
            let host = f.host_mut(h).unwrap();
            deploy_ubf(host);
        }
        let ports = [8000u16, 8001, 8002, 8003];
        let peer = |u: u8| PeerInfo::from_cred(&db.credentials(users[u as usize]).unwrap());

        let mut open: Vec<ConnId> = Vec::new();
        let mut listeners: std::collections::BTreeMap<(NodeId, u16), Uid> = Default::default();

        for op in ops {
            match op {
                Op::Listen { host, port_slot, user } => {
                    let h = hosts[host as usize];
                    let port = ports[port_slot as usize];
                    let res = f.listen(h, Proto::Tcp, port, peer(user));
                    match listeners.entry((h, port)) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(res.is_err(), "double bind must fail");
                        }
                        std::collections::btree_map::Entry::Vacant(v) => {
                            if res.is_ok() {
                                v.insert(users[user as usize]);
                            }
                        }
                    }
                }
                Op::Connect { from, to, port_slot, user } => {
                    let src = hosts[from as usize];
                    let dst = hosts[to as usize];
                    let port = ports[port_slot as usize];
                    let res = f.connect(&db, src, peer(user), SocketAddr::new(dst, port), Proto::Tcp);
                    match listeners.get(&(dst, port)) {
                        None => prop_assert!(res.is_err(), "no listener must refuse"),
                        Some(owner) => {
                            // The end-to-end outcome must equal the pure
                            // policy decision.
                            let listener_peer = f
                                .host(dst)
                                .unwrap()
                                .sockets
                                .listener(Proto::Tcp, port)
                                .unwrap()
                                .owner;
                            let expected =
                                decide(&db, &peer(user), &listener_peer);
                            prop_assert_eq!(
                                res.is_ok(),
                                expected.allowed(),
                                "fabric disagrees with policy for {:?} -> {:?}",
                                users[user as usize],
                                owner
                            );
                            if let Ok((id, _)) = res {
                                open.push(id);
                            }
                        }
                    }
                }
                Op::CloseOldest => {
                    if !open.is_empty() {
                        let id = open.remove(0);
                        prop_assert!(f.close(id));
                        prop_assert!(!f.close(id), "double close is a no-op");
                    }
                }
                Op::Send { bytes } => {
                    if let Some(&id) = open.first() {
                        let payload = Bytes::from(vec![0u8; bytes as usize]);
                        prop_assert!(f.send(id, &payload).is_ok());
                    }
                }
            }
        }

        // Invariants at the end: connection count matches what we hold, and
        // every open connection is still conntrack-established on both ends.
        prop_assert_eq!(f.connection_count(), open.len());
        for id in &open {
            let conn = f.connection(*id).unwrap();
            let t = conn.tuple;
            prop_assert!(f.host(t.src.host).unwrap().conntrack.is_established(&t));
            prop_assert!(f.host(t.dst.host).unwrap().conntrack.is_established(&t));
        }
        // Close everything; conntrack must drain completely.
        for id in open {
            f.close(id);
        }
        for h in hosts {
            prop_assert!(f.host(h).unwrap().conntrack.is_empty());
        }
        let _ = Gid(0);
    }

    /// The UBF decision function is symmetric in the right ways: same-user
    /// always allowed, and group opt-in depends only on (initiator uid,
    /// listener egid) membership.
    #[test]
    fn policy_decision_matches_membership(init in 0u8..4, listen in 0u8..4, egid_of in 0u8..4) {
        let mut db = UserDb::new();
        let users: Vec<Uid> = (0..4).map(|i| db.create_user(&format!("u{i}")).unwrap()).collect();
        let proj = db.create_project_group("p", users[0]).unwrap();
        db.add_to_group(users[0], proj, users[1]).unwrap();

        let init_cred = db.credentials(users[init as usize]).unwrap();
        let listen_cred = db.credentials(users[listen as usize]).unwrap();
        // Listener may have newgrp'd to proj (only members can).
        let listener = if egid_of == 0 && db.is_member(users[listen as usize], proj) {
            PeerInfo::from_cred(&db.newgrp(&listen_cred, proj).unwrap())
        } else {
            PeerInfo::from_cred(&listen_cred)
        };
        let initiator = PeerInfo::from_cred(&init_cred);
        let d = decide(&db, &initiator, &listener);
        if initiator.uid == listener.uid {
            prop_assert_eq!(d, Decision::AllowSameUser);
        } else if db.is_member(initiator.uid, listener.egid) {
            prop_assert_eq!(d, Decision::AllowGroupMember);
        } else {
            prop_assert_eq!(d, Decision::Deny);
        }
    }
}
