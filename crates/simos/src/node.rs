//! A simulated cluster node: process table, `/proc` mount, local filesystem,
//! shared-filesystem mounts, PAM stack, login sessions, and the abstract
//! socket namespace.
//!
//! Shared filesystems (`/home`, `/proj`) are `Arc<RwLock<Vfs>>` handles
//! mounted on every node, mirroring how Lustre/NFS make one tree visible
//! cluster-wide; node-local storage (`/tmp`, `/dev/shm`, `/dev`) stays
//! per-node.

use crate::ids::{NodeId, Pid, SessionId, Uid};
use crate::pam::{PamContext, PamDenied, PamStack, Session};
use crate::process::ProcessTable;
use crate::procfs::{ProcFs, ProcMountOpts};
use crate::shm::AbstractSocketSpace;
use crate::users::{UserDb, UserDbError};
use crate::vfs::{FsCtx, FsResult, Vfs};
use eus_simcore::SimTime;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A shareable filesystem handle.
pub type FsHandle = Arc<RwLock<Vfs>>;

/// Wrap a [`Vfs`] for mounting.
pub fn fs_handle(fs: Vfs) -> FsHandle {
    Arc::new(RwLock::new(fs))
}

/// One mount table entry.
#[derive(Clone)]
pub struct Mount {
    /// Absolute path prefix (`"/"`, `"/home"`, …).
    pub prefix: String,
    /// The mounted filesystem.
    pub fs: FsHandle,
}

/// Longest-prefix mount resolution.
#[derive(Clone)]
pub struct MountTable {
    mounts: Vec<Mount>,
}

impl fmt::Debug for MountTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefixes: Vec<&str> = self.mounts.iter().map(|m| m.prefix.as_str()).collect();
        f.debug_struct("MountTable")
            .field("prefixes", &prefixes)
            .finish()
    }
}

impl MountTable {
    /// A table with a single root mount.
    pub fn new(root: FsHandle) -> Self {
        MountTable {
            mounts: vec![Mount {
                prefix: "/".to_string(),
                fs: root,
            }],
        }
    }

    /// Add a mount at `prefix` (must be absolute, not `/`).
    pub fn add(&mut self, prefix: &str, fs: FsHandle) {
        assert!(
            prefix.starts_with('/') && prefix.len() > 1 && !prefix.ends_with('/'),
            "mount prefix must be absolute and non-root: {prefix}"
        );
        self.mounts.push(Mount {
            prefix: prefix.to_string(),
            fs,
        });
        // Longest prefix first so resolution is a linear scan.
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
    }

    /// Resolve a path to (filesystem, path-within-filesystem).
    pub fn resolve(&self, path: &str) -> (FsHandle, String) {
        for m in &self.mounts {
            if m.prefix == "/" {
                return (m.fs.clone(), path.to_string());
            }
            if path == m.prefix {
                return (m.fs.clone(), "/".to_string());
            }
            if let Some(rest) = path.strip_prefix(&m.prefix) {
                if rest.starts_with('/') {
                    return (m.fs.clone(), rest.to_string());
                }
            }
        }
        unreachable!("the root mount matches every path");
    }

    /// All mounts (diagnostics).
    pub fn mounts(&self) -> &[Mount] {
        &self.mounts
    }
}

/// Errors from node login.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginError {
    /// A PAM module denied the login.
    Pam(PamDenied),
    /// The user database rejected the user.
    User(UserDbError),
    /// The cluster has no node with this id.
    NoSuchNode(NodeId),
}

impl fmt::Display for LoginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoginError::Pam(d) => write!(f, "{d}"),
            LoginError::User(e) => write!(f, "{e}"),
            LoginError::NoSuchNode(n) => write!(f, "no such node {n}"),
        }
    }
}

impl std::error::Error for LoginError {}

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
    /// Node-local filesystem (also the root mount).
    pub local_fs: FsHandle,
    /// All mounts (local root + shared filesystems).
    pub mounts: MountTable,
    /// Abstract-namespace Unix sockets on this node.
    pub abstract_sockets: AbstractSocketSpace,
    /// The PAM stack gating logins.
    pub pam: PamStack,
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
    /// options (hidepid off — vanilla Linux), and an empty PAM stack.
    pub fn new(id: NodeId, hostname: impl Into<String>) -> Self {
        let hostname = hostname.into();
        let local = fs_handle(Vfs::standard_node_layout(format!("{hostname}-local")));
        NodeOs {
            id,
            hostname,
            procs: ProcessTable::new(),
            proc_opts: ProcMountOpts::default(),
            local_fs: local.clone(),
            mounts: MountTable::new(local),
            abstract_sockets: AbstractSocketSpace::new(),
            pam: PamStack::new(),
            sessions: BTreeMap::new(),
            next_session: 1,
        }
    }

    /// Mount a shared filesystem at `prefix`.
    pub fn mount(&mut self, prefix: &str, fs: FsHandle) {
        self.mounts.add(prefix, fs);
    }

    /// Attempt a login through the PAM stack.
    pub fn login(
        &mut self,
        db: &UserDb,
        user: Uid,
        service: &str,
    ) -> Result<SessionId, LoginError> {
        let cred = db.credentials(user).map_err(LoginError::User)?;
        let ctx = PamContext {
            service: service.to_string(),
            user,
            cred,
            node: self.id,
        };
        let sid = SessionId(self.next_session);
        let session = self.pam.login(&ctx, sid).map_err(LoginError::Pam)?;
        self.next_session += 1;
        self.sessions.insert(sid, session);
        Ok(sid)
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

    /// Run a closure against the filesystem owning `path`, with the path
    /// rebased into that filesystem.
    pub fn with_fs<R>(&self, path: &str, f: impl FnOnce(&mut Vfs, &str) -> R) -> R {
        let (fs, rebased) = self.mounts.resolve(path);
        let mut guard = fs.write();
        f(&mut guard, &rebased)
    }

    /// Read a file via the mount table.
    pub fn fs_read(&self, ctx: &FsCtx, path: &str) -> FsResult<Vec<u8>> {
        self.with_fs(path, |fs, p| fs.read(ctx, p))
    }

    /// Create-or-truncate and write a file via the mount table.
    pub fn fs_write(
        &self,
        ctx: &FsCtx,
        path: &str,
        mode: crate::vfs::Mode,
        data: &[u8],
    ) -> FsResult<()> {
        self.with_fs(path, |fs, p| fs.write_file(ctx, p, mode, data))
    }

    /// List a directory via the mount table.
    pub fn fs_readdir(&self, ctx: &FsCtx, path: &str) -> FsResult<Vec<String>> {
        self.with_fs(path, |fs, p| fs.readdir(ctx, p))
    }

    /// Stat via the mount table.
    pub fn fs_stat(&self, ctx: &FsCtx, path: &str) -> FsResult<crate::vfs::FileStat> {
        self.with_fs(path, |fs, p| fs.stat(ctx, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::Mode;

    #[test]
    fn mount_resolution_longest_prefix() {
        let root = fs_handle(Vfs::new("root"));
        let home = fs_handle(Vfs::new("home"));
        let proj = fs_handle(Vfs::new("proj"));
        let mut mt = MountTable::new(root.clone());
        mt.add("/home", home.clone());
        mt.add("/home/special", proj.clone());

        let (fs, p) = mt.resolve("/tmp/x");
        assert!(Arc::ptr_eq(&fs, &root));
        assert_eq!(p, "/tmp/x");

        let (fs, p) = mt.resolve("/home/alice/f");
        assert!(Arc::ptr_eq(&fs, &home));
        assert_eq!(p, "/alice/f");

        let (fs, p) = mt.resolve("/home/special/f");
        assert!(Arc::ptr_eq(&fs, &proj));
        assert_eq!(p, "/f");

        let (fs, p) = mt.resolve("/home");
        assert!(Arc::ptr_eq(&fs, &home));
        assert_eq!(p, "/");

        // Prefix must match at a component boundary.
        let (fs, _) = mt.resolve("/homework");
        assert!(Arc::ptr_eq(&fs, &root));
    }

    #[test]
    fn shared_mount_visible_from_two_nodes() {
        let shared = fs_handle(Vfs::new("shared-home"));
        shared
            .write()
            .mkdir(&FsCtx::root(), "/alice", Mode::new(0o700))
            .unwrap();
        let mut n1 = NodeOs::new(NodeId(1), "node1");
        let mut n2 = NodeOs::new(NodeId(2), "node2");
        n1.mount("/home", shared.clone());
        n2.mount("/home", shared.clone());

        let root_ctx = FsCtx::root();
        n1.fs_write(&root_ctx, "/home/alice/hello", Mode::new(0o600), b"hi")
            .unwrap();
        assert_eq!(n2.fs_read(&root_ctx, "/home/alice/hello").unwrap(), b"hi");
        // Local /tmp is NOT shared.
        n1.fs_write(&root_ctx, "/tmp/only-n1", Mode::new(0o600), b"x")
            .unwrap();
        assert!(n2.fs_read(&root_ctx, "/tmp/only-n1").is_err());
    }

    #[test]
    fn login_creates_session_and_spawn_uses_its_cred() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let sid = node.login(&db, alice, "sshd").unwrap();
        let pid = node.spawn(sid, ["bash"], SimTime::ZERO).unwrap();
        assert_eq!(node.procs.get(pid).unwrap().uid(), alice);
        assert!(node.logout(sid));
        assert!(!node.logout(sid));
        // Spawn after logout fails.
        assert!(node.spawn(sid, ["x"], SimTime::ZERO).is_none());
    }

    #[test]
    fn login_unknown_user_fails() {
        let db = UserDb::new();
        let mut node = NodeOs::new(NodeId(1), "n");
        assert!(matches!(
            node.login(&db, Uid(777), "sshd"),
            Err(LoginError::User(_))
        ));
    }

    #[test]
    #[should_panic(expected = "mount prefix")]
    fn bad_mount_prefix_panics() {
        let mut mt = MountTable::new(fs_handle(Vfs::new("r")));
        mt.add("relative", fs_handle(Vfs::new("x")));
    }
}
