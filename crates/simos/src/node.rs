//! A simulated cluster node: process table, `/proc` mount, local filesystem,
//! login sessions, and the abstract socket namespace.
//!
//! A node owns only its node-local storage (`/tmp`, `/dev/shm`, `/dev`).
//! The cluster-wide trees (`/home`, `/proj`) are not per-node state: the
//! cluster owns one `Vfs` for each and resolves those paths to them on
//! every node, mirroring how Lustre/NFS make one tree visible cluster-wide.

use crate::cred::Credentials;
use crate::ids::{NodeId, Pid, SessionId};
use crate::pam::Session;
use crate::process::ProcessTable;
use crate::procfs::{ProcFs, ProcMountOpts};
use crate::shm::AbstractSocketSpace;
use crate::vfs::{Mode, Vfs};
use eus_simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// One simulated machine.
pub struct NodeOs {
    /// Node identity.
    pub id: NodeId,
    /// Hostname for diagnostics.
    pub hostname: String,
    /// Live processes.
    pub procs: ProcessTable,
    /// `/proc` mount options (the hidepid configuration).
    pub proc_opts: ProcMountOpts,
    /// Node-local filesystem: every path outside the cluster-wide trees.
    pub local_fs: Vfs,
    /// Abstract-namespace Unix sockets on this node.
    pub abstract_sockets: AbstractSocketSpace,
    /// Open sessions.
    pub sessions: BTreeMap<SessionId, Session>,
    next_session: u64,
}

impl fmt::Debug for NodeOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeOs")
            .field("id", &self.id)
            .field("hostname", &self.hostname)
            .field("procs", &self.procs.len())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl NodeOs {
    /// A fresh node with a standard local filesystem layout, default `/proc`
    /// options (hidepid off — vanilla Linux), and no sessions.
    pub fn new(id: NodeId, hostname: impl Into<String>) -> Self {
        let hostname = hostname.into();
        let local_fs = Vfs::standard_node_layout(format!("{hostname}-local"));
        NodeOs {
            id,
            hostname,
            procs: ProcessTable::new(),
            proc_opts: ProcMountOpts::default(),
            local_fs,
            abstract_sockets: AbstractSocketSpace::new(),
            sessions: BTreeMap::new(),
            next_session: 1,
        }
    }

    /// Open a login session for `cred` with umask 022 and the enforced
    /// `smask` (0: none). The caller has already run every login gate.
    pub fn open_session(&mut self, cred: Credentials, smask: Mode) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        let session = Session {
            id,
            user: cred.uid,
            cred,
            umask: Mode::new(0o022),
            smask,
            node: self.id,
        };
        self.sessions.insert(id, session);
        id
    }

    /// Close a session (processes it spawned keep running, as on Linux).
    pub fn logout(&mut self, sid: SessionId) -> bool {
        self.sessions.remove(&sid).is_some()
    }

    /// Borrow an open session.
    pub fn session(&self, sid: SessionId) -> Option<&Session> {
        self.sessions.get(&sid)
    }

    /// Mutably borrow an open session (the support tools adjust credentials).
    pub fn session_mut(&mut self, sid: SessionId) -> Option<&mut Session> {
        self.sessions.get_mut(&sid)
    }

    /// Spawn a process under a session's credentials.
    pub fn spawn(
        &mut self,
        sid: SessionId,
        cmdline: impl IntoIterator<Item = impl Into<String>>,
        now: SimTime,
    ) -> Option<Pid> {
        let cred = self.sessions.get(&sid)?.cred.clone();
        Some(self.procs.spawn(cred, cmdline, now))
    }

    /// The `/proc` view with this node's mount options.
    pub fn procfs(&self) -> ProcFs<'_> {
        ProcFs::new(&self.procs, self.proc_opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::UserDb;

    #[test]
    fn login_creates_session_and_spawn_uses_its_cred() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let sid = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let s = node.session(sid).unwrap();
        assert_eq!(
            (s.user, s.umask, s.smask),
            (alice, Mode::new(0o022), Mode::new(0))
        );
        let pid = node.spawn(sid, ["bash"], SimTime::ZERO).unwrap();
        assert_eq!(node.procs.get(pid).unwrap().uid(), alice);
        assert!(node.logout(sid));
        assert!(!node.logout(sid));
        // Spawn after logout fails.
        assert!(node.spawn(sid, ["x"], SimTime::ZERO).is_none());
    }
}
