//! HPC support-staff workflows (paper Secs. IV-A and IV-C).
//!
//! Facilitators and solutions architects are *not* full administrators, but
//! the paper gives them two whitelisted capabilities: `seepid` (attribute
//! system load to users when troubleshooting) and `smask_relax` (publish
//! shared datasets). This module implements the troubleshooting workflow on
//! top of those tools: per-user load attribution on a node, which only works
//! from a session that holds the hidepid-exemption group.

use crate::cluster::SecureCluster;
use eus_simos::{NodeId, SessionId, Uid};
use std::collections::BTreeMap;

/// Per-user process attribution on one node, as a facilitator would see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// The node inspected.
    pub node: NodeId,
    /// Processes visible per uid (root/system daemons included).
    pub procs_by_user: BTreeMap<Uid, usize>,
    /// Total processes visible to the inspector.
    pub total_visible: usize,
    /// Total processes actually on the node (ground truth, for tests).
    pub total_actual: usize,
}

impl LoadReport {
    /// The heaviest user by process count, if any non-root user is visible.
    pub fn hotspot(&self) -> Option<(Uid, usize)> {
        self.procs_by_user
            .iter()
            .filter(|(u, _)| **u != eus_simos::ROOT_UID)
            .max_by_key(|(_, n)| **n)
            .map(|(u, n)| (*u, *n))
    }
}

/// Attribute node load to users from a given session's viewpoint. On a
/// `hidepid=2` node this is only complete after the session ran
/// [`eus_fsperm::seepid`]; before that it shows the inspector's own
/// processes only — exactly the gap the tool exists to bridge.
pub fn attribute_load(cluster: &SecureCluster, node: NodeId, session: SessionId) -> LoadReport {
    let node_os = cluster.node(node);
    let cred = node_os
        .session(session)
        .map(|s| s.cred.clone())
        .unwrap_or_else(eus_simos::Credentials::root);
    let procfs = node_os.procfs();
    let mut procs_by_user: BTreeMap<Uid, usize> = BTreeMap::new();
    let entries = procfs.list(&cred);
    for e in &entries {
        *procs_by_user.entry(e.uid).or_default() += 1;
    }
    LoadReport {
        node,
        procs_by_user,
        total_visible: entries.len(),
        total_actual: node_os.procs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::config::SeparationConfig;
    use eus_fsperm::seepid;
    use eus_simcore::SimTime;

    #[test]
    fn load_attribution_requires_seepid_on_hardened_nodes() {
        let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
        let staff = c.add_user("staff").unwrap();
        let heavy = c.add_user("heavy-user").unwrap();
        let light = c.add_user("light-user").unwrap();
        c.fsperm_policy = c.fsperm_policy.clone().allow_seepid(staff);
        let login = c.login_node();

        // Two users generate load.
        let h_sid = c.ssh(heavy, login).unwrap();
        for _ in 0..5 {
            c.node_mut(login).spawn(h_sid, ["stress"], SimTime::ZERO);
        }
        let l_sid = c.ssh(light, login).unwrap();
        c.node_mut(login).spawn(l_sid, ["vim"], SimTime::ZERO);

        // Staff before seepid: incomplete view, no foreign hotspot.
        let s_sid = c.ssh(staff, login).unwrap();
        let before = attribute_load(&c, login, s_sid);
        assert!(before.total_visible < before.total_actual);
        assert!(before.hotspot().is_none() || before.hotspot().unwrap().0 == staff);

        // After seepid: the full picture, hotspot correctly attributed.
        let policy = c.fsperm_policy.clone();
        seepid(&policy, c.node_mut(login).session_mut(s_sid).unwrap()).unwrap();
        let after = attribute_load(&c, login, s_sid);
        assert_eq!(after.total_visible, after.total_actual);
        assert_eq!(after.hotspot(), Some((heavy, 5)));
        assert_eq!(after.procs_by_user[&light], 1);
    }

    #[test]
    fn baseline_nodes_need_no_tool() {
        let mut c = SecureCluster::new(SeparationConfig::baseline(), ClusterSpec::tiny());
        let staff = c.add_user("staff").unwrap();
        let user = c.add_user("user").unwrap();
        let login = c.login_node();
        let u_sid = c.ssh(user, login).unwrap();
        c.node_mut(login).spawn(u_sid, ["job"], SimTime::ZERO);
        let s_sid = c.ssh(staff, login).unwrap();
        let report = attribute_load(&c, login, s_sid);
        assert_eq!(
            report.total_visible, report.total_actual,
            "hidepid off: everything visible anyway"
        );
    }
}
