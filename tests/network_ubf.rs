//! Network integration tests (paper Sec. IV-D + Appendix): the UBF decision
//! matrix end-to-end, the conntrack cost structure, and both RDMA setup
//! paths.

use bytes::Bytes;
use hpc_user_separation::sched::JobSpec;
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::simnet::{ConnectError, Proto, SendError, SocketAddr};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};

fn hardened() -> (
    SecureCluster,
    eus_simos::Uid,
    eus_simos::Uid,
    eus_simos::Uid,
    eus_simos::Gid,
) {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let eve = c.add_user("eve").unwrap();
    let proj = c.create_project("proj", alice).unwrap();
    c.add_project_member(alice, proj, bob).unwrap();
    (c, alice, bob, eve, proj)
}

#[test]
fn decision_matrix_tcp_and_udp() {
    let (mut c, alice, bob, eve, proj) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];

    for (proto, base_port) in [(Proto::Tcp, 9200u16), (Proto::Udp, 9300u16)] {
        // Default listener (egid = alice's UPG): only alice connects.
        c.listen(alice, n2, proto, base_port, None).unwrap();
        assert!(c
            .connect(alice, n1, SocketAddr::new(n2, base_port), proto)
            .is_ok());
        assert!(c
            .connect(bob, n1, SocketAddr::new(n2, base_port), proto)
            .is_err());
        assert!(c
            .connect(eve, n1, SocketAddr::new(n2, base_port), proto)
            .is_err());

        // Group-opted listener (newgrp proj): alice + bob, not eve.
        c.listen(alice, n2, proto, base_port + 1, Some(proj))
            .unwrap();
        assert!(c
            .connect(alice, n1, SocketAddr::new(n2, base_port + 1), proto)
            .is_ok());
        assert!(c
            .connect(bob, n1, SocketAddr::new(n2, base_port + 1), proto)
            .is_ok());
        assert!(matches!(
            c.connect(eve, n1, SocketAddr::new(n2, base_port + 1), proto),
            Err(ConnectError::DeniedByDaemon { .. })
        ));
    }
}

#[test]
fn overhead_lands_on_setup_only() {
    let (mut c, alice, ..) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(alice, n2, Proto::Tcp, 9400, None).unwrap();

    let queued_at_setup = c.fabric.metrics.queued_packets.get();
    let (conn, setup) = c
        .connect(alice, n1, SocketAddr::new(n2, 9400), Proto::Tcp)
        .unwrap();
    // Setup pays for nfqueue + daemon + (maybe) ident, and the daemon
    // inspects exactly one packet: an MPI wire-up pays once per rank pair.
    assert!(setup > c.fabric.latency.base_rtt);
    assert_eq!(c.fabric.metrics.queued_packets.get(), queued_at_setup + 1);

    // Established sends never touch the queue: transfer cost only.
    let queued_before = c.fabric.metrics.queued_packets.get();
    let mut total = SimDuration::ZERO;
    for _ in 0..100 {
        total += c
            .fabric
            .send(conn, &Bytes::from_static(&[0u8; 1024]))
            .unwrap();
    }
    assert_eq!(c.fabric.metrics.queued_packets.get(), queued_before);
    let per_packet = total / 100;
    assert!(
        per_packet < setup,
        "steady-state packet ({per_packet}) must be cheaper than setup ({setup})"
    );
}

#[test]
fn second_connection_hits_the_decision_cache() {
    let (mut c, alice, ..) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(alice, n2, Proto::Tcp, 9500, None).unwrap();
    let (_, first) = c
        .connect(alice, n1, SocketAddr::new(n2, 9500), Proto::Tcp)
        .unwrap();
    let (_, second) = c
        .connect(alice, n1, SocketAddr::new(n2, 9500), Proto::Tcp)
        .unwrap();
    assert!(
        second < first,
        "cached decision skips the ident RTT: {second} !< {first}"
    );
    let hits: u64 = c.ubf_stats.iter().map(|s| s.lock().cache_hits.get()).sum();
    assert!(hits >= 1);
}

/// A group opt-in follows *current* membership: a deny cached before a
/// user joins the listener's group, and an allow cached before they leave
/// it, must both die with the membership change — same host pair, same
/// listener, same (uid, egid) cache key, no manual invalidation.
#[test]
fn cached_decisions_follow_group_membership_changes() {
    let (mut c, alice, _, eve, proj) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    let to = SocketAddr::new(n2, 9550);
    c.listen(alice, n2, Proto::Tcp, 9550, Some(proj)).unwrap();

    let denied = |r: Result<_, ConnectError>| matches!(r, Err(ConnectError::DeniedByDaemon { .. }));
    // Twice, so the deny is answered from n2's cache the second time.
    assert!(denied(c.connect(eve, n1, to, Proto::Tcp)));
    assert!(denied(c.connect(eve, n1, to, Proto::Tcp)));

    c.add_project_member(alice, proj, eve).unwrap();
    assert!(
        c.connect(eve, n1, to, Proto::Tcp).is_ok(),
        "stale deny: eve joined proj but n2 still refuses her"
    );
    assert!(c.connect(eve, n1, to, Proto::Tcp).is_ok());

    c.db.write().remove_from_group(alice, proj, eve).unwrap();
    assert!(
        denied(c.connect(eve, n1, to, Proto::Tcp)),
        "stale allow: eve left proj but n2 still admits her"
    );
}

/// A refused `newgrp` is reported as what it is, not as a missing host.
#[test]
fn refused_newgrp_names_the_user_and_group() {
    let (mut c, _, _, eve, proj) = hardened();
    let node = c.compute_ids[0];
    let no_such = eus_simos::Gid(u32::MAX);
    for group in [proj, no_such] {
        let refused = Err(ConnectError::NewgrpRefused { user: eve, group });
        assert_eq!(c.listen(eve, node, Proto::Tcp, 9560, Some(group)), refused);
        let job = hpc_user_separation::sched::JobId(1);
        assert_eq!(
            c.launch_webapp(eve, job, "app", node, 9561, "x", Some(group))
                .map(|_| ()),
            refused
        );
    }
    assert_eq!(c.portal.routes.len(), 0, "no route for a refused launch");
}

/// An endpoint for a uid the account database does not know is refused
/// with a typed error on every network entry point — no panic, no socket.
#[test]
fn unknown_uid_is_refused_on_every_network_entry_point() {
    let (mut c, alice, _, _, _) = hardened();
    let (n1, n2) = (c.compute_ids[0], c.compute_ids[1]);
    let ghost = eus_simos::Uid(u32::MAX);
    let refused = Err(ConnectError::NoSuchUser(ghost));
    c.listen(alice, n2, Proto::Tcp, 9570, None).unwrap();
    let to = SocketAddr::new(n2, 9570);
    assert_eq!(c.connect(ghost, n1, to, Proto::Tcp).map(|_| ()), refused);
    assert_eq!(c.fabric.connection_count(), 0);
    assert_eq!(c.listen(ghost, n1, Proto::Tcp, 9571, None), refused);
    let job = hpc_user_separation::sched::JobId(1);
    assert_eq!(
        c.launch_webapp(ghost, job, "app", n1, 9572, "x", None)
            .map(|_| ()),
        refused
    );
    assert_eq!(c.portal.routes.len(), 0, "no route for a refused launch");
}

#[test]
fn epilog_tears_down_the_departed_tenants_flows() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let (node, other, login) = (c.compute_ids[0], c.compute_ids[1], c.login_node());
    c.submit(JobSpec::new(alice, "ranks", SimDuration::from_secs(100)));
    c.advance_to(SimTime::from_secs(1));
    // One flow into the job's node, one out of it; neither is closed.
    c.listen(alice, node, Proto::Tcp, 8888, None).unwrap();
    c.listen(alice, login, Proto::Tcp, 9000, None).unwrap();
    let (inbound, _) = c
        .connect(alice, other, SocketAddr::new(node, 8888), Proto::Tcp)
        .unwrap();
    let (outbound, _) = c
        .connect(alice, node, SocketAddr::new(login, 9000), Proto::Tcp)
        .unwrap();
    assert_eq!(c.fabric.flows_tracked(), 8);

    c.run_to_completion();
    let payload = Bytes::from_static(b"after the epilog");
    for conn in [inbound, outbound] {
        assert_eq!(
            c.fabric.send(conn, &payload),
            Err(SendError::NoSuchConnection(conn))
        );
    }
    assert_eq!(c.fabric.flows_tracked(), 0);
    assert_eq!(c.fabric.connection_count(), 0);
    // Only the node the job left is swept: the login listener stays.
    assert!(c
        .fabric
        .host(login)
        .unwrap()
        .sockets
        .listener(Proto::Tcp, 9000)
        .is_some());

    // The next tenant takes the same port and wires up.
    c.listen(bob, node, Proto::Tcp, 8888, None).unwrap();
    assert!(c
        .connect(bob, other, SocketAddr::new(node, 8888), Proto::Tcp)
        .is_ok());
    assert_eq!(c.fabric.flows_tracked(), 4);
}

#[test]
fn rdma_tcp_setup_governed_native_cm_not() {
    let (mut c, alice, _bob, eve, _proj) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    let rkey = c
        .fabric
        .rdma_register(n2, alice, b"alice tensor".to_vec())
        .unwrap();
    c.listen(alice, n2, Proto::Tcp, 18515, None).unwrap();

    // Eve's MPI-style QP setup over TCP: blocked by the UBF.
    let eve_peer = eus_simnet::PeerInfo::from_cred(&c.credentials(eve));
    assert!(c
        .fabric
        .setup_qp_via_tcp(n1, eve_peer, SocketAddr::new(n2, 18515))
        .is_err());

    // Alice's own works, and she reads her region.
    let alice_peer = eus_simnet::PeerInfo::from_cred(&c.credentials(alice));
    let qp = c
        .fabric
        .setup_qp_via_tcp(n1, alice_peer, SocketAddr::new(n2, 18515))
        .unwrap();
    assert_eq!(c.fabric.rdma_read(&qp, rkey).unwrap(), b"alice tensor");

    // Eve via native CM: the acknowledged residual path.
    let qp_cm = c.fabric.setup_qp_native_cm(n1, eve_peer, n2).unwrap();
    assert_eq!(c.fabric.rdma_read(&qp_cm, rkey).unwrap(), b"alice tensor");
}

#[test]
fn ubf_statistics_account_for_decisions() {
    let (mut c, alice, bob, ..) = hardened();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(alice, n2, Proto::Tcp, 9600, None).unwrap();
    c.connect(alice, n1, SocketAddr::new(n2, 9600), Proto::Tcp)
        .unwrap();
    let _ = c.connect(bob, n1, SocketAddr::new(n2, 9600), Proto::Tcp);

    let total_allowed: u64 = c
        .ubf_stats
        .iter()
        .map(|s| s.lock().allowed_same_user.get())
        .sum();
    let total_denied: u64 = c.ubf_stats.iter().map(|s| s.lock().denied.get()).sum();
    assert_eq!(total_allowed, 1);
    assert_eq!(total_denied, 1);
}

#[test]
fn baseline_network_wide_open() {
    let mut c = SecureCluster::new(SeparationConfig::baseline(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let eve = c.add_user("eve").unwrap();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(alice, n2, Proto::Tcp, 9700, None).unwrap();
    let (_, setup) = c
        .connect(eve, n1, SocketAddr::new(n2, 9700), Proto::Tcp)
        .unwrap();
    // And no inspection latency either.
    assert_eq!(setup, c.fabric.latency.base_rtt);
}
