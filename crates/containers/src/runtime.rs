//! Container runtimes: HPC (Apptainer/Singularity-style) vs enterprise
//! (Docker-style), as contrasted in paper Sec. IV-G.
//!
//! The HPC runtime's defining properties, all modeled here:
//! * **unprivileged** — the contained process keeps the invoking user's
//!   credentials exactly; there is no API that could grant more,
//! * **host passthrough** — processes land in the host process table,
//!   network goes through the host stack, and the host/shared filesystems
//!   are bind-mounted — so `hidepid`, the UBF, and the smask patches all
//!   keep applying inside the container,
//! * **no image build on the cluster** — building requires administrative
//!   privileges users don't have; images arrive pre-built.
//!
//! The enterprise runtime is modeled only far enough to show why it is
//! rejected: it requires a root daemon and grants effective root to
//! container operators.

use crate::image::Image;
use eus_simcore::SimTime;
use eus_simos::{NodeOs, Pid, Session};
use std::fmt;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The enterprise runtime refuses unprivileged users (and HPC policy
    /// forbids giving them privilege).
    RequiresRootDaemon,
    /// Attempted to build an image on the cluster.
    BuildRequiresPrivilege,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::RequiresRootDaemon => {
                f.write_str("enterprise container runtimes require a root daemon")
            }
            ContainerError::BuildRequiresPrivilege => f.write_str(
                "image builds require administrative privileges; build on your own machine",
            ),
        }
    }
}

impl std::error::Error for ContainerError {}

/// A running HPC container: a host process plus the image it runs.
#[derive(Debug, Clone)]
pub struct ContainerProc {
    /// The host pid (visible in the host process table, subject to hidepid).
    pub pid: Pid,
    /// The image in use.
    pub image: Image,
}

/// The Apptainer-style runtime.
#[derive(Debug, Default)]
pub struct HpcRuntime;

impl HpcRuntime {
    /// Launch a containerized command under a login session. The spawned
    /// process carries the session's credentials unchanged — uid, egid, and
    /// supplementary groups pass straight through.
    pub fn launch(
        &self,
        node: &mut NodeOs,
        session: &Session,
        image: &Image,
        argv: impl IntoIterator<Item = impl Into<String>>,
        now: SimTime,
    ) -> ContainerProc {
        let mut cmdline: Vec<String> = vec![
            "apptainer".to_string(),
            "exec".to_string(),
            image.name.clone(),
        ];
        cmdline.extend(argv.into_iter().map(Into::into));
        let pid = node.procs.spawn(session.cred.clone(), cmdline, now);
        ContainerProc {
            pid,
            image: image.clone(),
        }
    }

    /// Building on the cluster is refused for everyone but root — users
    /// "must use their own computer where they have some administrative
    /// privileges".
    pub fn build(&self, session: &Session, _name: &str) -> Result<(), ContainerError> {
        if session.cred.is_root() {
            Ok(())
        } else {
            Err(ContainerError::BuildRequiresPrivilege)
        }
    }
}

/// The Docker-style runtime, present only to document the rejection.
#[derive(Debug, Default)]
pub struct EnterpriseRuntime;

impl EnterpriseRuntime {
    /// Enterprise container launch assumes the operator controls a root
    /// daemon; on a multi-user HPC system that is forbidden for general
    /// users, so this always fails for them.
    pub fn launch(&self, session: &Session) -> Result<(), ContainerError> {
        if session.cred.is_root() {
            Ok(())
        } else {
            Err(ContainerError::RequiresRootDaemon)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::procfs::{HidePid, ProcMountOpts};
    use eus_simos::{Mode, NodeId, UserDb};

    fn node_with_users() -> (UserDb, NodeOs, eus_simos::Uid, eus_simos::Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let bob = db.create_user("bob").unwrap();
        let mut node = NodeOs::new(NodeId(1), "c1");
        node.proc_opts = ProcMountOpts {
            hidepid: HidePid::Invisible,
            exempt_gid: None,
        };
        (db, node, alice, bob)
    }

    #[test]
    fn container_process_keeps_user_credentials() {
        let (db, mut node, alice, _) = node_with_users();
        let sid = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let session = node.session(sid).unwrap().clone();
        let image = Image::typical_research_stack("stack.sif", SimTime::ZERO);
        let cp = HpcRuntime.launch(
            &mut node,
            &session,
            &image,
            ["python", "train.py"],
            SimTime::ZERO,
        );
        let proc = node.procs.get(cp.pid).unwrap();
        assert_eq!(proc.cred, session.cred, "no privilege change");
        assert_eq!(proc.cmdline[0], "apptainer");
    }

    #[test]
    fn host_hidepid_applies_inside_container_world() {
        // The paper: "all of the security features described in this paper
        // pass through to the container as well." Containerized processes
        // live in the host table, so hidepid hides them from other users
        // and hides other users from them.
        let (db, mut node, alice, bob) = node_with_users();
        let sid_a = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let sid_b = node.open_session(db.credentials(bob).unwrap(), Mode::new(0));
        let sa = node.session(sid_a).unwrap().clone();
        let sb = node.session(sid_b).unwrap().clone();
        let image = Image::typical_research_stack("stack.sif", SimTime::ZERO);
        HpcRuntime.launch(&mut node, &sa, &image, ["job-a"], SimTime::ZERO);
        HpcRuntime.launch(&mut node, &sb, &image, ["job-b"], SimTime::ZERO);

        let procfs = node.procfs();
        assert_eq!(procfs.foreign_visible_count(&sa.cred), 0);
        assert_eq!(procfs.foreign_visible_count(&sb.cred), 0);
    }

    #[test]
    fn builds_refused_on_cluster() {
        let (db, mut node, alice, _) = node_with_users();
        let sid = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let session = node.session(sid).unwrap().clone();
        assert_eq!(
            HpcRuntime.build(&session, "new.sif").unwrap_err(),
            ContainerError::BuildRequiresPrivilege
        );
    }

    #[test]
    fn enterprise_runtime_rejected_for_users() {
        let (db, mut node, alice, _) = node_with_users();
        let sid = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let session = node.session(sid).unwrap().clone();
        assert_eq!(
            EnterpriseRuntime.launch(&session).unwrap_err(),
            ContainerError::RequiresRootDaemon
        );
    }
}
