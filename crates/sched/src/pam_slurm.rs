//! `pam_slurm`: "users can only ssh into compute nodes on which they have
//! one or more jobs currently executing" (paper Sec. IV-B).
//!
//! [`account`] is the account check sshd runs on a compute node, over the
//! scheduler the cluster lends it for the call: it consults the live
//! allocation state at login time.
//!
//! # How the decision is made
//!
//! The check answers exactly one question per login —
//! [`Scheduler::has_running_job_on`] — which is O(log n) against the
//! node's cached per-user job counts (no allocation-map scan), so a
//! login-storm on a busy cluster costs nothing measurable.
//! Root and registered operators ([`Scheduler::add_admin`]) bypass the
//! check, mirroring the production exemption for administrators.
//!
//! # Interaction with the rest of the separation story
//!
//! * **Lifecycle** — access appears when the job starts and disappears
//!   with its epilog; `tests` below pin the revoked-after-completion path.
//! * **Preemption** (`SchedConfig::preemption`) — a kill-and-requeue
//!   releases the victim's allocations *before* its epilog events are
//!   drained, so a preempted user's ssh access to the node dies at the
//!   preemption instant, exactly as if the job had completed. The cluster
//!   layer then kills any session processes they had left
//!   (`pam_slurm_adopt`-style) before the preemptor's prolog runs.
//! * **Whole-node policy** — under `NodeSharing::WholeNodeUser` this gate
//!   means at most one non-admin user can ever ssh to a compute node,
//!   which is what shrinks the paper's failure "blast radius" to one user.

use crate::engine::Scheduler;
use eus_simos::{Credentials, NodeId};

/// May `cred` ssh to compute node `node`? `Err` carries the refusal's
/// reason. Root and registered operators may always log in
/// (administration).
pub fn account(sched: &Scheduler, cred: &Credentials, node: NodeId) -> Result<(), String> {
    let user = cred.uid;
    if cred.is_root() || sched.is_admin(user) || sched.has_running_job_on(user, node) {
        Ok(())
    } else {
        Err(format!("user {user} has no running job on {node}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SchedConfig;
    use crate::job::JobSpec;
    use crate::policy::NodeSharing;
    use eus_simcore::{SimDuration, SimTime};
    use eus_simos::UserDb;

    fn setup() -> (Scheduler, Credentials, Credentials) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let bob = db.create_user("bob").unwrap();
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::WholeNodeUser,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0); // NodeId(1)
        s.add_node(8, 64_000, 0); // NodeId(2)
        s.submit_at(
            SimTime::ZERO,
            JobSpec::new(alice, "train", SimDuration::from_secs(100)).with_tasks(2),
        );
        s.run_until(SimTime::from_secs(1));
        let cred = |u| db.credentials(u).unwrap();
        (s, cred(alice), cred(bob))
    }

    #[test]
    fn ssh_allowed_only_where_job_runs() {
        let (sched, alice, bob) = setup();
        // Alice's job landed on node 1.
        assert!(account(&sched, &alice, NodeId(1)).is_ok());
        assert!(
            account(&sched, &alice, NodeId(2)).is_err(),
            "no job on node 2"
        );
        assert_eq!(
            account(&sched, &bob, NodeId(1)),
            Err(format!(
                "user {} has no running job on {}",
                bob.uid,
                NodeId(1)
            )),
            "bob has no jobs"
        );
    }

    #[test]
    fn access_expires_with_the_job() {
        let (mut sched, alice, _) = setup();
        assert!(account(&sched, &alice, NodeId(1)).is_ok());
        sched.run_to_completion();
        assert!(
            account(&sched, &alice, NodeId(1)).is_err(),
            "job finished: ssh access revoked"
        );
    }

    #[test]
    fn root_and_admins_exempt() {
        let (mut sched, _, bob) = setup();
        sched.add_admin(bob.uid);
        assert!(account(&sched, &Credentials::root(), NodeId(2)).is_ok());
        assert!(
            account(&sched, &bob, NodeId(2)).is_ok(),
            "admin whitelisted"
        );
    }
}
