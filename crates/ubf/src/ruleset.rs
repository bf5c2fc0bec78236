//! The nftables/iptables ruleset that feeds the UBF daemon (Appendix):
//! inspect *new* TCP and UDP connections on ports ≥ 1024; let conntrack-
//! established traffic straight through; leave privileged ports to the
//! conventional pre-approved-services policy.

use crate::daemon::{UbfConfig, UbfDaemon, UbfStats};
use crate::obs::UbfPacketStats;
use crate::SharedUserDb;
use eus_simnet::{ConnState, Firewall, HostNet, Proto, RuleMatch, Verdict};

/// The queue number the UBF daemon listens on.
pub const UBF_QUEUE: u16 = 0;

/// First inspected port (everything at or above goes to the daemon).
pub const UBF_INSPECT_FROM: u16 = 1024;

/// Install the UBF rules into a host firewall's INPUT chain.
pub fn install_ubf_rules(fw: &mut Firewall) {
    fw.input.push(
        RuleMatch {
            state: Some(ConnState::Established),
            ..RuleMatch::any()
        },
        Verdict::Accept,
        "conntrack: established/related accept",
    );
    fw.input.push(
        RuleMatch {
            proto: Some(Proto::Tcp),
            dport: Some((UBF_INSPECT_FROM, u16::MAX)),
            state: Some(ConnState::New),
        },
        Verdict::Queue(UBF_QUEUE),
        "ubf: new tcp >=1024 to daemon",
    );
    fw.input.push(
        RuleMatch {
            proto: Some(Proto::Udp),
            dport: Some((UBF_INSPECT_FROM, u16::MAX)),
            state: Some(ConnState::New),
        },
        Verdict::Queue(UBF_QUEUE),
        "ubf: new udp >=1024 to daemon",
    );
    // Policy stays Accept: ports < 1024 are root-managed services covered by
    // the conventional pre-approved PPS ruleset.
}

/// Deploy the full UBF onto one host: rules plus a daemon instance bound to
/// the shared user database, wired to a caller-held [`UbfPacketStats`]
/// handle so the judge path's slot counters (packets, cache hits/misses,
/// denies, ident round trips, cache occupancy peak) stay readable — and
/// switchable — after the daemon has moved into the fabric
/// ([`UbfPacketStats::disabled`] when nobody reads them). Returns the
/// daemon's statistics handle.
pub fn deploy_ubf_observed(
    host: &mut HostNet,
    db: SharedUserDb,
    config: UbfConfig,
    pkt: UbfPacketStats,
) -> UbfStats {
    install_ubf_rules(&mut host.firewall);
    let mut daemon = UbfDaemon::new(db, config);
    daemon.set_packet_stats(pkt);
    let stats = daemon.stats();
    host.set_queue_handler(UBF_QUEUE, Box::new(daemon));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::shared_user_db;
    use eus_simnet::{Fabric, PeerInfo, SocketAddr};
    use eus_simos::{NodeId, UserDb};

    fn cluster() -> (Fabric, SharedUserDb, eus_simos::Uid, eus_simos::Uid) {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        let shared = shared_user_db(db);
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        for n in [NodeId(1), NodeId(2)] {
            let host = f.host_mut(n).unwrap();
            deploy_ubf_observed(
                host,
                shared.clone(),
                UbfConfig::default(),
                UbfPacketStats::disabled(),
            );
        }
        (f, shared, a, b)
    }

    fn peer(db: &SharedUserDb, uid: eus_simos::Uid) -> PeerInfo {
        PeerInfo::from_cred(&db.read().credentials(uid).unwrap())
    }

    #[test]
    fn end_to_end_same_user_allowed_cross_user_denied() {
        let (mut f, db, a, b) = cluster();
        let pa = peer(&db, a);
        let pb = peer(&db, b);
        f.listen(NodeId(2), Proto::Tcp, 8888, pa).unwrap();

        // Same user connects fine.
        let (conn, setup) = f
            .connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 8888), Proto::Tcp)
            .unwrap();
        assert!(setup > f.latency.base_rtt, "inspection adds latency");
        f.close(conn);

        // Different user is dropped by the daemon.
        let err = f
            .connect(NodeId(1), pb, SocketAddr::new(NodeId(2), 8888), Proto::Tcp)
            .unwrap_err();
        assert!(matches!(
            err,
            eus_simnet::ConnectError::DeniedByDaemon {
                queue: UBF_QUEUE,
                ..
            }
        ));
    }

    #[test]
    fn privileged_ports_bypass_inspection() {
        let (mut f, db, a, _) = cluster();
        let root = PeerInfo::from_cred(&eus_simos::Credentials::root());
        f.listen(NodeId(2), Proto::Tcp, 22, root).unwrap();
        let pa = peer(&db, a);
        let (_, setup) = f
            .connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 22), Proto::Tcp)
            .unwrap();
        assert_eq!(setup, f.latency.base_rtt, "port 22 not queued");
        assert_eq!(f.metrics.queued_packets.get(), 0);
    }

    #[test]
    fn udp_also_inspected() {
        let (mut f, db, a, b) = cluster();
        let pa = peer(&db, a);
        let pb = peer(&db, b);
        f.listen(NodeId(2), Proto::Udp, 5001, pa).unwrap();
        assert!(f
            .connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 5001), Proto::Udp)
            .is_ok());
        assert!(f
            .connect(NodeId(1), pb, SocketAddr::new(NodeId(2), 5001), Proto::Udp)
            .is_err());
    }

    #[test]
    fn packet_slots_read_back_after_deploy() {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        let shared = shared_user_db(db);
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        let pkt = UbfPacketStats::new(true);
        deploy_ubf_observed(
            f.host_mut(NodeId(2)).unwrap(),
            shared.clone(),
            UbfConfig::default(),
            pkt.clone(),
        );
        let pa = peer(&shared, a);
        let pb = peer(&shared, b);
        f.listen(NodeId(2), Proto::Tcp, 9999, pa).unwrap();
        // Miss, hit, deny.
        f.connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 9999), Proto::Tcp)
            .unwrap();
        f.connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 9999), Proto::Tcp)
            .unwrap();
        f.connect(NodeId(1), pb, SocketAddr::new(NodeId(2), 9999), Proto::Tcp)
            .unwrap_err();
        let s = pkt.stats();
        assert_eq!(s.value(pkt.s_packets), 3);
        assert_eq!(s.value(pkt.s_cache_hits), 1);
        assert_eq!(s.value(pkt.s_cache_misses), 2);
        assert_eq!(s.value(pkt.s_ident_rtts), 2);
        assert_eq!(s.value(pkt.s_denies), 1);
        assert_eq!(s.value(pkt.s_occupancy_peak), 2);
        assert!((pkt.cache_hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_deploy_records_nothing() {
        let (mut f, db, a, _) = cluster();
        let pa = peer(&db, a);
        f.listen(NodeId(2), Proto::Tcp, 8888, pa).unwrap();
        f.connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 8888), Proto::Tcp)
            .unwrap();
        // The default deploy wires a disabled handle; nothing accumulates.
        let pkt = UbfPacketStats::disabled();
        assert_eq!(pkt.stats().total(), 0);
        assert!(!pkt.enabled());
    }

    #[test]
    fn stats_handle_reads_back() {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let shared = shared_user_db(db);
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        let stats = deploy_ubf_observed(
            f.host_mut(NodeId(2)).unwrap(),
            shared.clone(),
            UbfConfig::default(),
            UbfPacketStats::disabled(),
        );
        let pa = peer(&shared, a);
        f.listen(NodeId(2), Proto::Tcp, 9999, pa).unwrap();
        f.connect(NodeId(1), pa, SocketAddr::new(NodeId(2), 9999), Proto::Tcp)
            .unwrap();
        assert_eq!(stats.lock().allowed_same_user.get(), 1);
    }
}
