//! The nftables/iptables ruleset that feeds the UBF daemon (Appendix):
//! inspect *new* TCP and UDP connections on ports ≥ 1024; let conntrack-
//! established traffic straight through; leave privileged ports to the
//! conventional pre-approved-services policy.

use crate::daemon::{UbfDaemon, UbfStats};
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

/// Deploy the full UBF onto one host: rules plus a daemon instance, which
/// judges each flow against the account database the connect lends it.
/// Returns the daemon's statistics handle, which stays readable after the
/// daemon has moved into the fabric.
pub fn deploy_ubf(host: &mut HostNet) -> UbfStats {
    install_ubf_rules(&mut host.firewall);
    let daemon = UbfDaemon::default();
    let stats = daemon.stats();
    host.set_queue_handler(UBF_QUEUE, Box::new(daemon));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simcore::SimDuration;
    use eus_simnet::{ConnId, ConnectError, Fabric, PeerInfo, SocketAddr};
    use eus_simos::{NodeId, UserDb};

    /// Two UBF hosts and two users' endpoints; the stats are host 2's.
    fn cluster() -> (Fabric, UserDb, PeerInfo, PeerInfo, UbfStats) {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        let peer = |uid| PeerInfo::from_cred(&db.credentials(uid).unwrap());
        let (pa, pb) = (peer(a), peer(b));
        let mut f = Fabric::new();
        f.add_host(NodeId(1));
        f.add_host(NodeId(2));
        deploy_ubf(f.host_mut(NodeId(1)).unwrap());
        let stats = deploy_ubf(f.host_mut(NodeId(2)).unwrap());
        (f, db, pa, pb, stats)
    }

    /// Connect as `who` from host 1 to `port` on host 2.
    fn dial(
        f: &mut Fabric,
        db: &UserDb,
        who: PeerInfo,
        port: u16,
        proto: Proto,
    ) -> Result<(ConnId, SimDuration), ConnectError> {
        f.connect(db, NodeId(1), who, SocketAddr::new(NodeId(2), port), proto)
    }

    #[test]
    fn end_to_end_same_user_allowed_cross_user_denied() {
        let (mut f, db, pa, pb, _) = cluster();
        f.listen(NodeId(2), Proto::Tcp, 8888, pa).unwrap();

        // Same user connects fine.
        let (conn, setup) = dial(&mut f, &db, pa, 8888, Proto::Tcp).unwrap();
        assert!(setup > f.latency.base_rtt, "inspection adds latency");
        f.close(conn);

        // Different user is dropped by the daemon.
        let err = dial(&mut f, &db, pb, 8888, Proto::Tcp).unwrap_err();
        assert!(matches!(
            err,
            ConnectError::DeniedByDaemon {
                queue: UBF_QUEUE,
                ..
            }
        ));
    }

    #[test]
    fn privileged_ports_bypass_inspection() {
        let (mut f, db, pa, _, _) = cluster();
        let root = PeerInfo::from_cred(&eus_simos::Credentials::root());
        f.listen(NodeId(2), Proto::Tcp, 22, root).unwrap();
        let (_, setup) = dial(&mut f, &db, pa, 22, Proto::Tcp).unwrap();
        assert_eq!(setup, f.latency.base_rtt, "port 22 not queued");
        assert_eq!(f.metrics.queued_packets.get(), 0);
    }

    #[test]
    fn udp_also_inspected() {
        let (mut f, db, pa, pb, _) = cluster();
        f.listen(NodeId(2), Proto::Udp, 5001, pa).unwrap();
        assert!(dial(&mut f, &db, pa, 5001, Proto::Udp).is_ok());
        assert!(dial(&mut f, &db, pb, 5001, Proto::Udp).is_err());
    }

    #[test]
    fn stats_handle_reads_back() {
        let (mut f, db, pa, _, stats) = cluster();
        f.listen(NodeId(2), Proto::Tcp, 9999, pa).unwrap();
        dial(&mut f, &db, pa, 9999, Proto::Tcp).unwrap();
        assert_eq!(stats.lock().allowed_same_user.get(), 1);
    }
}
