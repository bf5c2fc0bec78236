//! In-memory Unix filesystem with full discretionary access control.
//!
//! This is the substrate the paper's File Permission Handler patches apply
//! to. It implements:
//!
//! * path resolution with search-permission checks and symlink following,
//! * the Linux permission algorithm (see [`perm::check_access`]) including
//!   POSIX ACLs with Linux's mask-in-group-bits convention,
//! * sticky-bit restricted deletion, setgid directory group inheritance,
//! * `umask` at create time — and, when the *smask kernel patch* is enabled
//!   ([`Vfs::enforce_smask`]), an immutable security mask applied at **create
//!   and chmod** for unprivileged users (paper Sec. IV-C),
//! * the *ACL restriction patch* ([`Vfs::restrict_acl`]): named-group grants
//!   require membership of the granting user, and named-user grants are
//!   limited to users sharing a group with the granter.
//!
//! The patch flags live here (they are kernel behaviour); the `eus-fsperm`
//! crate flips them and manages per-session smask values via PAM.

pub mod acl;
pub mod perm;

pub use acl::PosixAcl;
pub use perm::{check_access, Mode, Perm, PermMeta};

use crate::cred::Credentials;
use crate::devices::DeviceId;
use crate::ids::{Gid, Uid};
use crate::users::UserDb;
use std::collections::BTreeMap;
use std::fmt;

/// Inode number.
pub type Ino = u64;

/// What an inode is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file with contents.
    File {
        /// File bytes.
        data: Vec<u8>,
    },
    /// Directory with named entries.
    Dir {
        /// Name → child inode.
        entries: BTreeMap<String, Ino>,
    },
    /// Character device node.
    Device {
        /// The device this node fronts.
        dev: DeviceId,
    },
    /// Symbolic link.
    Symlink {
        /// Link target (absolute, or relative without `..`).
        target: String,
    },
}

/// Ownership and permission metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Metadata {
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Mode bits (group bits double as the ACL mask when an ACL is present).
    pub mode: Mode,
    /// Extended ACL entries, if any.
    pub acl: Option<PosixAcl>,
}

/// One filesystem object.
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// Ownership/permissions.
    pub meta: Metadata,
    /// Contents.
    pub kind: InodeKind,
}

impl Inode {
    fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Dir { .. })
    }

    fn perm_meta(&self) -> PermMeta<'_> {
        PermMeta {
            uid: self.meta.uid,
            gid: self.meta.gid,
            mode: self.meta.mode,
            acl: self.meta.acl.as_ref(),
            is_dir: self.is_dir(),
        }
    }
}

/// Coarse file type reported by [`Vfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Device node.
    Device,
    /// Symlink.
    Symlink,
}

/// `stat(2)`-shaped result.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStat {
    /// Inode number.
    pub ino: Ino,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Mode bits.
    pub mode: Mode,
    /// ACL, if present.
    pub acl: Option<PosixAcl>,
    /// File type.
    pub kind: FileKind,
    /// Content size (bytes for files, entry count for directories).
    pub size: usize,
}

/// The caller context for filesystem operations: credentials plus the
/// create-time masks. `umask` is the classic advisory mask; `smask` is the
/// paper's enforced security mask, set per session by the PAM module and
/// honored only when the kernel patch ([`Vfs::enforce_smask`]) is active.
#[derive(Debug, Clone, PartialEq)]
pub struct FsCtx {
    /// Acting credentials.
    pub cred: Credentials,
    /// Advisory create mask (default `022`).
    pub umask: Mode,
    /// Enforced security mask (default none; LLSC sets `007`).
    pub smask: Mode,
}

impl FsCtx {
    /// A regular user context with umask 022 and no smask.
    pub fn user(cred: Credentials) -> Self {
        FsCtx {
            cred,
            umask: Mode::new(0o022),
            smask: Mode::new(0),
        }
    }

    /// The root context used for system setup.
    pub fn root() -> Self {
        FsCtx::user(Credentials::root())
    }

    /// Builder: replace the umask.
    pub fn with_umask(mut self, m: Mode) -> Self {
        self.umask = m;
        self
    }

    /// Builder: replace the smask.
    pub fn with_smask(mut self, m: Mode) -> Self {
        self.smask = m;
        self
    }
}

/// Filesystem operation errors (errno-shaped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT.
    NotFound(String),
    /// ENOTDIR.
    NotADirectory(String),
    /// EISDIR.
    IsADirectory(String),
    /// Not a regular file (read/write on a device or directory).
    NotAFile(String),
    /// Not a device node.
    NotADevice(String),
    /// EEXIST.
    AlreadyExists(String),
    /// EACCES/EPERM, with the denied operation.
    PermissionDenied {
        /// Which operation was refused.
        op: &'static str,
        /// The path involved.
        path: String,
    },
    /// The File Permission Handler ACL patch refused the grant.
    AclRestricted(String),
    /// ELOOP.
    SymlinkLoop(String),
    /// ENOTEMPTY.
    DirectoryNotEmpty(String),
    /// Malformed path (empty, relative at the API boundary, or `..` in a
    /// symlink target).
    InvalidPath(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::NotAFile(p) => write!(f, "not a regular file: {p}"),
            FsError::NotADevice(p) => write!(f, "not a device: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::PermissionDenied { op, path } => {
                write!(f, "permission denied ({op}): {path}")
            }
            FsError::AclRestricted(msg) => write!(f, "acl restricted: {msg}"),
            FsError::SymlinkLoop(p) => write!(f, "too many levels of symbolic links: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

const SYMLINK_DEPTH_MAX: u32 = 8;

/// The filesystem.
#[derive(Debug, Clone)]
pub struct Vfs {
    /// Human-readable name (e.g. `"shared-home"`, `"node3-local"`).
    pub name: String,
    inodes: BTreeMap<Ino, Inode>,
    next_ino: Ino,
    root: Ino,
    /// File Permission Handler kernel patch #1: enforce `FsCtx::smask` at
    /// create and chmod for unprivileged users.
    pub enforce_smask: bool,
    /// File Permission Handler kernel patch #2: restrict ACL grants to
    /// groups the granter belongs to / users sharing a group with them.
    pub restrict_acl: bool,
}

impl Vfs {
    /// An empty filesystem: `/` owned root:root mode 0755, patches off
    /// (vanilla kernel).
    pub fn new(name: impl Into<String>) -> Self {
        let mut inodes = BTreeMap::new();
        inodes.insert(
            1,
            Inode {
                ino: 1,
                meta: Metadata {
                    uid: crate::ids::ROOT_UID,
                    gid: crate::ids::ROOT_GID,
                    mode: Mode::new(0o755),
                    acl: None,
                },
                kind: InodeKind::Dir {
                    entries: BTreeMap::new(),
                },
            },
        );
        Vfs {
            name: name.into(),
            inodes,
            next_ino: 2,
            root: 1,
            enforce_smask: false,
            restrict_acl: false,
        }
    }

    /// A node-local root filesystem with the standard world-writable
    /// directories the paper calls out: `/tmp` and `/dev/shm` (mode 1777)
    /// plus `/dev`, `/var`, `/etc`, `/usr`.
    pub fn standard_node_layout(name: impl Into<String>) -> Self {
        let mut fs = Vfs::new(name);
        let root_ctx = FsCtx::root().with_umask(Mode::new(0));
        fs.mkdir(&root_ctx, "/tmp", Mode::new(0o1777))
            .expect("setup");
        fs.mkdir(&root_ctx, "/dev", Mode::new(0o755))
            .expect("setup");
        fs.mkdir(&root_ctx, "/dev/shm", Mode::new(0o1777))
            .expect("setup");
        fs.mkdir(&root_ctx, "/var", Mode::new(0o755))
            .expect("setup");
        fs.mkdir(&root_ctx, "/etc", Mode::new(0o755))
            .expect("setup");
        fs.mkdir(&root_ctx, "/usr", Mode::new(0o755))
            .expect("setup");
        fs
    }

    fn inode(&self, ino: Ino) -> &Inode {
        self.inodes.get(&ino).expect("dangling ino")
    }

    fn inode_mut(&mut self, ino: Ino) -> &mut Inode {
        self.inodes.get_mut(&ino).expect("dangling ino")
    }

    fn alloc(&mut self, meta: Metadata, kind: InodeKind) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Inode { ino, meta, kind });
        ino
    }

    /// Lexically normalize an absolute path into components.
    fn normalize(path: &str) -> FsResult<Vec<String>> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath(path.to_string()));
        }
        let mut comps: Vec<String> = Vec::new();
        for c in path.split('/') {
            match c {
                "" | "." => {}
                ".." => {
                    comps.pop();
                }
                other => comps.push(other.to_string()),
            }
        }
        Ok(comps)
    }

    /// Walk components from the root, enforcing search permission on every
    /// directory traversed and following symlinks (up to a depth cap). When
    /// `follow_last` is false a trailing symlink is returned as itself.
    fn walk(&self, ctx: &FsCtx, path: &str, follow_last: bool) -> FsResult<Ino> {
        let mut queue: std::collections::VecDeque<String> = Self::normalize(path)?.into(); // front = next component
        let mut cur = self.root;
        let mut depth = 0u32;
        while let Some(name) = queue.pop_front() {
            let dir = self.inode(cur);
            let entries = match &dir.kind {
                InodeKind::Dir { entries } => entries,
                _ => return Err(FsError::NotADirectory(path.to_string())),
            };
            if !check_access(&ctx.cred, &dir.perm_meta(), Perm::X) {
                return Err(FsError::PermissionDenied {
                    op: "search",
                    path: path.to_string(),
                });
            }
            let child = *entries
                .get(&name)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if let InodeKind::Symlink { target } = &self.inode(child).kind {
                if queue.is_empty() && !follow_last {
                    return Ok(child);
                }
                depth += 1;
                if depth > SYMLINK_DEPTH_MAX {
                    return Err(FsError::SymlinkLoop(path.to_string()));
                }
                if target.contains("..") {
                    return Err(FsError::InvalidPath(target.clone()));
                }
                let tcomps: Vec<String> = target
                    .split('/')
                    .filter(|c| !c.is_empty() && *c != ".")
                    .map(str::to_string)
                    .collect();
                for c in tcomps.into_iter().rev() {
                    queue.push_front(c);
                }
                if target.starts_with('/') {
                    cur = self.root;
                }
                // Relative targets resolve from `cur` (the dir holding the
                // link), which is already correct.
                continue;
            }
            cur = child;
        }
        Ok(cur)
    }

    /// Resolve to the parent directory inode plus the final component name.
    fn walk_parent(&self, ctx: &FsCtx, path: &str) -> FsResult<(Ino, String)> {
        let comps = Self::normalize(path)?;
        let name = comps
            .last()
            .ok_or_else(|| FsError::InvalidPath(path.to_string()))?
            .clone();
        let parent_path = format!("/{}", comps[..comps.len() - 1].join("/"));
        let parent = self.walk(ctx, &parent_path, true)?;
        if !self.inode(parent).is_dir() {
            return Err(FsError::NotADirectory(parent_path));
        }
        Ok((parent, name))
    }

    fn check(
        &self,
        ctx: &FsCtx,
        ino: Ino,
        want: Perm,
        op: &'static str,
        path: &str,
    ) -> FsResult<()> {
        if check_access(&ctx.cred, &self.inode(ino).perm_meta(), want) {
            Ok(())
        } else {
            Err(FsError::PermissionDenied {
                op,
                path: path.to_string(),
            })
        }
    }

    /// Effective mode for a newly created object: umask always applies;
    /// smask additionally applies when the kernel patch is on and the caller
    /// is unprivileged.
    fn create_mode(&self, ctx: &FsCtx, requested: Mode) -> Mode {
        let mut m = requested.clear(ctx.umask);
        if self.enforce_smask && !ctx.cred.is_root() {
            m = m.clear(ctx.smask);
        }
        m
    }

    /// Group for a new object: setgid parents propagate their group (and the
    /// setgid bit itself, for directories), otherwise the creator's egid.
    fn new_object_group(&self, ctx: &FsCtx, parent: Ino, is_dir: bool, mode: Mode) -> (Gid, Mode) {
        let p = self.inode(parent);
        if p.meta.mode.is_setgid() {
            let mode = if is_dir {
                Mode::new(mode.bits() | Mode::SETGID)
            } else {
                mode
            };
            (p.meta.gid, mode)
        } else {
            (ctx.cred.gid, mode)
        }
    }

    fn insert_child(
        &mut self,
        ctx: &FsCtx,
        path: &str,
        kind_is_dir: bool,
        requested: Mode,
        build: impl FnOnce() -> InodeKind,
    ) -> FsResult<Ino> {
        let (parent, name) = self.walk_parent(ctx, path)?;
        self.check(ctx, parent, Perm::WX, "create", path)?;
        if let InodeKind::Dir { entries } = &self.inode(parent).kind {
            if entries.contains_key(&name) {
                return Err(FsError::AlreadyExists(path.to_string()));
            }
        }
        let mode = self.create_mode(ctx, requested);
        let (gid, mode) = self.new_object_group(ctx, parent, kind_is_dir, mode);
        let ino = self.alloc(
            Metadata {
                uid: ctx.cred.uid,
                gid,
                mode,
                acl: None,
            },
            build(),
        );
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent).kind {
            entries.insert(name, ino);
        }
        Ok(ino)
    }

    /// Create a directory.
    pub fn mkdir(&mut self, ctx: &FsCtx, path: &str, mode: Mode) -> FsResult<Ino> {
        self.insert_child(ctx, path, true, mode, || InodeKind::Dir {
            entries: BTreeMap::new(),
        })
    }

    /// Create an empty regular file.
    pub fn create(&mut self, ctx: &FsCtx, path: &str, mode: Mode) -> FsResult<Ino> {
        self.insert_child(ctx, path, false, mode, || InodeKind::File {
            data: Vec::new(),
        })
    }

    /// Create a device node (root only, as `mknod` without CAP_MKNOD fails).
    pub fn mknod(&mut self, ctx: &FsCtx, path: &str, dev: DeviceId, mode: Mode) -> FsResult<Ino> {
        if !ctx.cred.is_root() {
            return Err(FsError::PermissionDenied {
                op: "mknod",
                path: path.to_string(),
            });
        }
        self.insert_child(ctx, path, false, mode, || InodeKind::Device { dev })
    }

    /// Create a symlink (mode is conventionally 0777 and ignored by checks).
    pub fn symlink(&mut self, ctx: &FsCtx, target: &str, linkpath: &str) -> FsResult<Ino> {
        let target = target.to_string();
        self.insert_child(ctx, linkpath, false, Mode::new(0o777), move || {
            InodeKind::Symlink { target }
        })
    }

    /// Write (replace) a file's contents.
    pub fn write(&mut self, ctx: &FsCtx, path: &str, data: &[u8]) -> FsResult<()> {
        let ino = self.walk(ctx, path, true)?;
        self.check(ctx, ino, Perm::W, "write", path)?;
        match &mut self.inode_mut(ino).kind {
            InodeKind::File { data: d } => {
                d.clear();
                d.extend_from_slice(data);
                Ok(())
            }
            InodeKind::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
            _ => Err(FsError::NotAFile(path.to_string())),
        }
    }

    /// Create-or-truncate then write: the common "user drops a file" op.
    pub fn write_file(&mut self, ctx: &FsCtx, path: &str, mode: Mode, data: &[u8]) -> FsResult<()> {
        match self.create(ctx, path, mode) {
            Ok(_) | Err(FsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        self.write(ctx, path, data)
    }

    /// Read a file's contents.
    pub fn read(&self, ctx: &FsCtx, path: &str) -> FsResult<Vec<u8>> {
        let ino = self.walk(ctx, path, true)?;
        self.check(ctx, ino, Perm::R, "read", path)?;
        match &self.inode(ino).kind {
            InodeKind::File { data } => Ok(data.clone()),
            InodeKind::Dir { .. } => Err(FsError::IsADirectory(path.to_string())),
            _ => Err(FsError::NotAFile(path.to_string())),
        }
    }

    /// List a directory's entry names (requires read on the directory —
    /// this is the `/tmp` *filename* disclosure path of Sec. V).
    pub fn readdir(&self, ctx: &FsCtx, path: &str) -> FsResult<Vec<String>> {
        let ino = self.walk(ctx, path, true)?;
        self.check(ctx, ino, Perm::R, "readdir", path)?;
        match &self.inode(ino).kind {
            InodeKind::Dir { entries } => Ok(entries.keys().cloned().collect()),
            _ => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// `stat` (follows symlinks).
    pub fn stat(&self, ctx: &FsCtx, path: &str) -> FsResult<FileStat> {
        let ino = self.walk(ctx, path, true)?;
        let node = self.inode(ino);
        let (kind, size) = match &node.kind {
            InodeKind::File { data } => (FileKind::File, data.len()),
            InodeKind::Dir { entries } => (FileKind::Dir, entries.len()),
            InodeKind::Device { .. } => (FileKind::Device, 0),
            InodeKind::Symlink { target } => (FileKind::Symlink, target.len()),
        };
        Ok(FileStat {
            ino,
            uid: node.meta.uid,
            gid: node.meta.gid,
            mode: node.meta.mode,
            acl: node.meta.acl.clone(),
            kind,
            size,
        })
    }

    /// Does the path resolve for this caller?
    pub fn exists(&self, ctx: &FsCtx, path: &str) -> bool {
        self.walk(ctx, path, true).is_ok()
    }

    /// Would `want` access be granted on `path`? (`access(2)`.)
    pub fn access(&self, ctx: &FsCtx, path: &str, want: Perm) -> FsResult<bool> {
        let ino = self.walk(ctx, path, true)?;
        Ok(check_access(&ctx.cred, &self.inode(ino).perm_meta(), want))
    }

    /// Sticky-bit deletion rule: in a sticky directory only the file owner,
    /// the directory owner, or root may remove/rename an entry.
    fn sticky_ok(&self, ctx: &FsCtx, parent: Ino, child: Ino) -> bool {
        let p = self.inode(parent);
        if !p.meta.mode.is_sticky() || ctx.cred.is_root() {
            return true;
        }
        ctx.cred.uid == p.meta.uid || ctx.cred.uid == self.inode(child).meta.uid
    }

    /// Remove a file, device, or symlink.
    pub fn unlink(&mut self, ctx: &FsCtx, path: &str) -> FsResult<()> {
        let (parent, name) = self.walk_parent(ctx, path)?;
        self.check(ctx, parent, Perm::WX, "unlink", path)?;
        let child = match &self.inode(parent).kind {
            InodeKind::Dir { entries } => *entries
                .get(&name)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?,
            _ => unreachable!("walk_parent returns dirs"),
        };
        if self.inode(child).is_dir() {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        if !self.sticky_ok(ctx, parent, child) {
            return Err(FsError::PermissionDenied {
                op: "unlink (sticky)",
                path: path.to_string(),
            });
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent).kind {
            entries.remove(&name);
        }
        self.inodes.remove(&child);
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, ctx: &FsCtx, path: &str) -> FsResult<()> {
        let (parent, name) = self.walk_parent(ctx, path)?;
        self.check(ctx, parent, Perm::WX, "rmdir", path)?;
        let child = match &self.inode(parent).kind {
            InodeKind::Dir { entries } => *entries
                .get(&name)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?,
            _ => unreachable!(),
        };
        match &self.inode(child).kind {
            InodeKind::Dir { entries } if !entries.is_empty() => {
                return Err(FsError::DirectoryNotEmpty(path.to_string()))
            }
            InodeKind::Dir { .. } => {}
            _ => return Err(FsError::NotADirectory(path.to_string())),
        }
        if !self.sticky_ok(ctx, parent, child) {
            return Err(FsError::PermissionDenied {
                op: "rmdir (sticky)",
                path: path.to_string(),
            });
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent).kind {
            entries.remove(&name);
        }
        self.inodes.remove(&child);
        Ok(())
    }

    /// Rename within this filesystem.
    pub fn rename(&mut self, ctx: &FsCtx, from: &str, to: &str) -> FsResult<()> {
        let (src_parent, src_name) = self.walk_parent(ctx, from)?;
        self.check(ctx, src_parent, Perm::WX, "rename-from", from)?;
        let moving = match &self.inode(src_parent).kind {
            InodeKind::Dir { entries } => *entries
                .get(&src_name)
                .ok_or_else(|| FsError::NotFound(from.to_string()))?,
            _ => unreachable!(),
        };
        if !self.sticky_ok(ctx, src_parent, moving) {
            return Err(FsError::PermissionDenied {
                op: "rename (sticky)",
                path: from.to_string(),
            });
        }
        let (dst_parent, dst_name) = self.walk_parent(ctx, to)?;
        self.check(ctx, dst_parent, Perm::WX, "rename-to", to)?;
        if let InodeKind::Dir { entries } = &self.inode(dst_parent).kind {
            if let Some(&existing) = entries.get(&dst_name) {
                if self.inode(existing).is_dir() {
                    return Err(FsError::IsADirectory(to.to_string()));
                }
                if !self.sticky_ok(ctx, dst_parent, existing) {
                    return Err(FsError::PermissionDenied {
                        op: "rename-replace (sticky)",
                        path: to.to_string(),
                    });
                }
            }
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(src_parent).kind {
            entries.remove(&src_name);
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(dst_parent).kind {
            if let Some(old) = entries.insert(dst_name, moving) {
                self.inodes.remove(&old);
            }
        }
        Ok(())
    }

    /// Change permission bits. Owner or root only. Under the smask patch the
    /// security mask is re-applied — world bits cannot be introduced by
    /// chmod, which is exactly what distinguishes smask from umask. Returns
    /// the mode that actually took effect.
    pub fn chmod(&mut self, ctx: &FsCtx, path: &str, mode: Mode) -> FsResult<Mode> {
        let ino = self.walk(ctx, path, true)?;
        let node = self.inode(ino);
        if !(ctx.cred.is_root() || ctx.cred.uid == node.meta.uid) {
            return Err(FsError::PermissionDenied {
                op: "chmod",
                path: path.to_string(),
            });
        }
        let mut effective = mode;
        if self.enforce_smask && !ctx.cred.is_root() {
            effective = effective.clear(ctx.smask);
        }
        self.inode_mut(ino).meta.mode = effective;
        Ok(effective)
    }

    /// Change ownership. Changing the uid requires root; changing the gid is
    /// allowed for the owner if (and only if) they are a member of the target
    /// group, per Linux chown(2).
    pub fn chown(
        &mut self,
        ctx: &FsCtx,
        path: &str,
        new_uid: Option<Uid>,
        new_gid: Option<Gid>,
    ) -> FsResult<()> {
        let ino = self.walk(ctx, path, true)?;
        let node = self.inode(ino);
        if let Some(u) = new_uid {
            if !ctx.cred.is_root() && u != node.meta.uid {
                return Err(FsError::PermissionDenied {
                    op: "chown",
                    path: path.to_string(),
                });
            }
        }
        if let Some(g) = new_gid {
            let owner_ok = ctx.cred.uid == node.meta.uid && ctx.cred.is_member(g);
            if !ctx.cred.is_root() && !owner_ok {
                return Err(FsError::PermissionDenied {
                    op: "chgrp",
                    path: path.to_string(),
                });
            }
        }
        let node = self.inode_mut(ino);
        if let Some(u) = new_uid {
            node.meta.uid = u;
        }
        if let Some(g) = new_gid {
            node.meta.gid = g;
        }
        Ok(())
    }

    /// Do two users share any group (used by the ACL restriction patch for
    /// named-user grants)?
    fn shares_group(db: &UserDb, granter: &Credentials, grantee: Uid) -> bool {
        if db.is_member(grantee, granter.gid) {
            return true;
        }
        granter.groups.iter().any(|g| db.is_member(grantee, *g))
    }

    /// Set the extended ACL. Owner or root only. With the ACL restriction
    /// patch active, named-group entries require the granter's membership and
    /// named-user entries require a shared group — the paper's "a user cannot
    /// grant permission to a group unless they are a member of said group"
    /// plus "ACLs to group members only".
    pub fn setfacl(&mut self, ctx: &FsCtx, path: &str, acl: PosixAcl, db: &UserDb) -> FsResult<()> {
        let ino = self.walk(ctx, path, true)?;
        let node = self.inode(ino);
        if !(ctx.cred.is_root() || ctx.cred.uid == node.meta.uid) {
            return Err(FsError::PermissionDenied {
                op: "setfacl",
                path: path.to_string(),
            });
        }
        if self.restrict_acl && !ctx.cred.is_root() {
            for (g, _) in acl.group_entries() {
                if !ctx.cred.is_member(g) {
                    return Err(FsError::AclRestricted(format!(
                        "cannot grant to {g}: granter is not a member"
                    )));
                }
            }
            for (u, _) in acl.user_entries() {
                if !Self::shares_group(db, &ctx.cred, u) {
                    return Err(FsError::AclRestricted(format!(
                        "cannot grant to {u}: no shared group with granter"
                    )));
                }
            }
        }
        // setfacl recomputes the mask (stored in the group bits) as the
        // union of all group-class entries, as the real tool does by default.
        let mask = acl.implied_mask();
        let node = self.inode_mut(ino);
        node.meta.mode = node.meta.mode.with_group(mask);
        node.meta.acl = Some(acl);
        Ok(())
    }

    /// Read the extended ACL (requires path search only, like getfacl).
    pub fn getfacl(&self, ctx: &FsCtx, path: &str) -> FsResult<Option<PosixAcl>> {
        let ino = self.walk(ctx, path, true)?;
        Ok(self.inode(ino).meta.acl.clone())
    }

    /// Open a device node with the requested access, returning its id.
    pub fn open_device(&self, ctx: &FsCtx, path: &str, want: Perm) -> FsResult<DeviceId> {
        let ino = self.walk(ctx, path, true)?;
        self.check(ctx, ino, want, "open-device", path)?;
        match &self.inode(ino).kind {
            InodeKind::Device { dev } => Ok(*dev),
            _ => Err(FsError::NotADevice(path.to_string())),
        }
    }

    /// Root-only escape hatch for cluster construction: set metadata fields
    /// directly (e.g. make `/home/alice` root-owned, group `alice`, 0770).
    pub fn set_meta_as_root(&mut self, path: &str, f: impl FnOnce(&mut Metadata)) -> FsResult<()> {
        let ctx = FsCtx::root();
        let ino = self.walk(&ctx, path, true)?;
        f(&mut self.inode_mut(ino).meta);
        Ok(())
    }

    /// Number of inodes (for tests/diagnostics).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Gid, Uid};

    fn user_ctx(uid: u32) -> FsCtx {
        FsCtx::user(Credentials::new(Uid(uid), Gid(uid)))
    }

    fn setup() -> Vfs {
        let mut fs = Vfs::standard_node_layout("test");
        let root = FsCtx::root().with_umask(Mode::new(0));
        fs.mkdir(&root, "/home", Mode::new(0o755)).unwrap();
        // Paper-style home: root-owned, group = user's UPG, mode 0770.
        fs.mkdir(&root, "/home/u100", Mode::new(0o770)).unwrap();
        fs.set_meta_as_root("/home/u100", |m| {
            m.gid = Gid(100);
        })
        .unwrap();
        fs
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.create(&ctx, "/home/u100/notes.txt", Mode::new(0o644))
            .unwrap();
        fs.write(&ctx, "/home/u100/notes.txt", b"hello").unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/notes.txt").unwrap(), b"hello");
        let st = fs.stat(&ctx, "/home/u100/notes.txt").unwrap();
        assert_eq!(st.kind, FileKind::File);
        assert_eq!(st.size, 5);
        assert_eq!(st.uid, Uid(100));
        // umask 022 applied.
        assert_eq!(st.mode, Mode::new(0o644));
    }

    #[test]
    fn other_user_cannot_enter_home() {
        let mut fs = setup();
        let alice = user_ctx(100);
        let bob = user_ctx(101);
        fs.write_file(&alice, "/home/u100/secret", Mode::new(0o644), b"s")
            .unwrap();
        // Bob lacks search permission on /home/u100 (0770 root:upg100).
        let err = fs.read(&bob, "/home/u100/secret").unwrap_err();
        assert!(matches!(
            err,
            FsError::PermissionDenied { op: "search", .. }
        ));
    }

    #[test]
    fn home_owner_cannot_chmod_top_level() {
        let mut fs = setup();
        let alice = user_ctx(100);
        // Home is root-owned: the user cannot open it to the world.
        let err = fs
            .chmod(&alice, "/home/u100", Mode::new(0o777))
            .unwrap_err();
        assert!(matches!(err, FsError::PermissionDenied { op: "chmod", .. }));
    }

    #[test]
    fn umask_applies_smask_off_allows_world_bits_via_chmod() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.create(&ctx, "/home/u100/f", Mode::new(0o666)).unwrap();
        assert_eq!(
            fs.stat(&ctx, "/home/u100/f").unwrap().mode,
            Mode::new(0o644)
        );
        // Vanilla kernel: chmod can re-add world bits (this is the hole the
        // smask patch closes).
        fs.chmod(&ctx, "/home/u100/f", Mode::new(0o666)).unwrap();
        assert_eq!(
            fs.stat(&ctx, "/home/u100/f").unwrap().mode,
            Mode::new(0o666)
        );
    }

    #[test]
    fn smask_enforced_on_create_and_chmod() {
        let mut fs = setup();
        fs.enforce_smask = true;
        let ctx = user_ctx(100).with_smask(Mode::new(0o007));
        fs.create(&ctx, "/home/u100/f", Mode::new(0o666)).unwrap();
        assert_eq!(
            fs.stat(&ctx, "/home/u100/f").unwrap().mode,
            Mode::new(0o640)
        );
        let effective = fs.chmod(&ctx, "/home/u100/f", Mode::new(0o666)).unwrap();
        assert_eq!(effective, Mode::new(0o660));
        assert!(!fs.stat(&ctx, "/home/u100/f").unwrap().mode.any_world());
        // Root is exempt.
        let root = FsCtx::root().with_smask(Mode::new(0o007));
        fs.chmod(&root, "/home/u100/f", Mode::new(0o666)).unwrap();
        assert!(fs.stat(&root, "/home/u100/f").unwrap().mode.any_world());
    }

    #[test]
    fn tmp_sticky_semantics() {
        let mut fs = setup();
        let alice = user_ctx(100);
        let bob = user_ctx(101);
        fs.write_file(&alice, "/tmp/alice-scratch", Mode::new(0o644), b"x")
            .unwrap();
        // Bob can see the *name* (the residual path of Sec. V) ...
        assert!(fs
            .readdir(&bob, "/tmp")
            .unwrap()
            .contains(&"alice-scratch".to_string()));
        // ... and read a world-readable file (vanilla mode bits) ...
        assert!(fs.read(&bob, "/tmp/alice-scratch").is_ok());
        // ... but cannot delete or rename it (sticky).
        assert!(matches!(
            fs.unlink(&bob, "/tmp/alice-scratch").unwrap_err(),
            FsError::PermissionDenied { .. }
        ));
        assert!(matches!(
            fs.rename(&bob, "/tmp/alice-scratch", "/tmp/stolen")
                .unwrap_err(),
            FsError::PermissionDenied { .. }
        ));
        // The owner can.
        fs.unlink(&alice, "/tmp/alice-scratch").unwrap();
    }

    #[test]
    fn setgid_dir_inherits_group() {
        let mut fs = setup();
        let root = FsCtx::root().with_umask(Mode::new(0));
        fs.mkdir(&root, "/proj", Mode::new(0o755)).unwrap();
        fs.mkdir(&root, "/proj/alpha", Mode::new(0o2770)).unwrap();
        fs.set_meta_as_root("/proj/alpha", |m| m.gid = Gid(500))
            .unwrap();
        let member = FsCtx::user(Credentials::with_groups(Uid(100), Gid(100), [Gid(500)]));
        fs.create(&member, "/proj/alpha/data", Mode::new(0o664))
            .unwrap();
        let st = fs.stat(&member, "/proj/alpha/data").unwrap();
        assert_eq!(st.gid, Gid(500), "file inherits project group");
        // Subdir also inherits the setgid bit.
        fs.mkdir(&member, "/proj/alpha/sub", Mode::new(0o770))
            .unwrap();
        assert!(fs
            .stat(&member, "/proj/alpha/sub")
            .unwrap()
            .mode
            .is_setgid());
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.mkdir(&ctx, "/home/u100/d", Mode::new(0o755)).unwrap();
        fs.create(&ctx, "/home/u100/d/f", Mode::new(0o644)).unwrap();
        assert!(matches!(
            fs.rmdir(&ctx, "/home/u100/d").unwrap_err(),
            FsError::DirectoryNotEmpty(_)
        ));
        assert!(matches!(
            fs.unlink(&ctx, "/home/u100/d").unwrap_err(),
            FsError::IsADirectory(_)
        ));
        fs.unlink(&ctx, "/home/u100/d/f").unwrap();
        fs.rmdir(&ctx, "/home/u100/d").unwrap();
        assert!(!fs.exists(&ctx, "/home/u100/d"));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.write_file(&ctx, "/home/u100/a", Mode::new(0o644), b"a")
            .unwrap();
        fs.write_file(&ctx, "/home/u100/b", Mode::new(0o644), b"b")
            .unwrap();
        fs.rename(&ctx, "/home/u100/a", "/home/u100/b").unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/b").unwrap(), b"a");
        assert!(!fs.exists(&ctx, "/home/u100/a"));
    }

    #[test]
    fn symlink_resolution_and_loops() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.write_file(&ctx, "/home/u100/real", Mode::new(0o644), b"data")
            .unwrap();
        fs.symlink(&ctx, "/home/u100/real", "/home/u100/link")
            .unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/link").unwrap(), b"data");
        // lstat-style: stat on the link itself.
        let st = fs.stat(&ctx, "/home/u100/link");
        assert_eq!(st.unwrap().kind, FileKind::File, "stat follows");
        // Loop detection.
        fs.symlink(&ctx, "/home/u100/l2", "/home/u100/l1").unwrap();
        fs.symlink(&ctx, "/home/u100/l1", "/home/u100/l2").unwrap();
        assert!(matches!(
            fs.read(&ctx, "/home/u100/l1").unwrap_err(),
            FsError::SymlinkLoop(_)
        ));
        // Relative symlink.
        fs.symlink(&ctx, "real", "/home/u100/rel").unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/rel").unwrap(), b"data");
    }

    #[test]
    fn chown_rules() {
        let mut fs = setup();
        let alice = user_ctx(100);
        fs.create(&alice, "/home/u100/f", Mode::new(0o644)).unwrap();
        // Non-root cannot give files away.
        assert!(fs
            .chown(&alice, "/home/u100/f", Some(Uid(101)), None)
            .is_err());
        // Owner can chgrp only into a group they belong to.
        assert!(fs
            .chown(&alice, "/home/u100/f", None, Some(Gid(999)))
            .is_err());
        let member = FsCtx::user(Credentials::with_groups(Uid(100), Gid(100), [Gid(500)]));
        fs.chown(&member, "/home/u100/f", None, Some(Gid(500)))
            .unwrap();
        assert_eq!(fs.stat(&alice, "/home/u100/f").unwrap().gid, Gid(500));
        // Root can do anything.
        fs.chown(&FsCtx::root(), "/home/u100/f", Some(Uid(1)), Some(Gid(1)))
            .unwrap();
    }

    #[test]
    fn acl_grant_and_restriction_patch() {
        let mut fs = setup();
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let bob = db.create_user("bob").unwrap();
        let carol = db.create_user("carol").unwrap();
        let proj = db.create_project_group("proj", alice).unwrap();
        db.add_to_group(alice, proj, bob).unwrap();

        let root = FsCtx::root().with_umask(Mode::new(0));
        fs.mkdir(&root, "/work", Mode::new(0o777)).unwrap();

        let alice_ctx = FsCtx::user(db.credentials(alice).unwrap());
        fs.create(&alice_ctx, "/work/f", Mode::new(0o640)).unwrap();

        // Vanilla kernel: alice may grant to anyone.
        fs.setfacl(
            &alice_ctx,
            "/work/f",
            PosixAcl::new(Perm::NONE).with_user(carol, Perm::R),
            &db,
        )
        .unwrap();
        let carol_ctx = FsCtx::user(db.credentials(carol).unwrap());
        assert!(fs.read(&carol_ctx, "/work/f").is_ok());

        // Patched kernel: grants to strangers are refused.
        fs.restrict_acl = true;
        assert!(matches!(
            fs.setfacl(
                &alice_ctx,
                "/work/f",
                PosixAcl::new(Perm::NONE).with_user(carol, Perm::R),
                &db,
            )
            .unwrap_err(),
            FsError::AclRestricted(_)
        ));
        // Grants to a shared-group member are fine.
        fs.setfacl(
            &alice_ctx,
            "/work/f",
            PosixAcl::new(Perm::NONE).with_user(bob, Perm::R),
            &db,
        )
        .unwrap();
        // Group grants require membership.
        assert!(matches!(
            fs.setfacl(
                &alice_ctx,
                "/work/f",
                PosixAcl::new(Perm::NONE).with_group(Gid(4242), Perm::R),
                &db,
            )
            .unwrap_err(),
            FsError::AclRestricted(_)
        ));
        fs.setfacl(
            &alice_ctx,
            "/work/f",
            PosixAcl::new(Perm::NONE).with_group(proj, Perm::R),
            &db,
        )
        .unwrap();
        let bob_ctx = FsCtx::user(db.credentials(bob).unwrap());
        assert!(fs.read(&bob_ctx, "/work/f").is_ok());
    }

    #[test]
    fn setfacl_recomputes_mask_in_group_bits() {
        let mut fs = setup();
        let db = UserDb::new();
        let ctx = user_ctx(100);
        fs.create(&ctx, "/home/u100/f", Mode::new(0o600)).unwrap();
        fs.setfacl(
            &ctx,
            "/home/u100/f",
            PosixAcl::new(Perm::NONE).with_user(Uid(101), Perm::RW),
            &db,
        )
        .unwrap();
        let st = fs.stat(&ctx, "/home/u100/f").unwrap();
        assert_eq!(st.mode.group(), Perm::RW, "mask = union of entries");
    }

    #[test]
    fn device_nodes_root_only_and_permission_gated() {
        let mut fs = setup();
        let root = FsCtx::root().with_umask(Mode::new(0));
        let alice = user_ctx(100);
        let dev = DeviceId {
            major: 195,
            minor: 0,
        };
        assert!(fs
            .mknod(&alice, "/dev/gpu0", dev, Mode::new(0o660))
            .is_err());
        fs.mknod(&root, "/dev/gpu0", dev, Mode::new(0o660)).unwrap();
        // 0660 root:root — alice cannot open.
        assert!(fs.open_device(&alice, "/dev/gpu0", Perm::RW).is_err());
        // Assign to alice's private group (what the scheduler prolog does).
        fs.set_meta_as_root("/dev/gpu0", |m| m.gid = Gid(100))
            .unwrap();
        assert_eq!(fs.open_device(&alice, "/dev/gpu0", Perm::RW).unwrap(), dev);
    }

    #[test]
    fn invalid_paths_rejected() {
        let fs = Vfs::new("t");
        let ctx = FsCtx::root();
        assert!(matches!(
            fs.read(&ctx, "relative/path").unwrap_err(),
            FsError::InvalidPath(_)
        ));
        assert!(fs.walk(&ctx, "/", true).is_ok());
    }

    #[test]
    fn dotdot_normalization() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.write_file(&ctx, "/home/u100/f", Mode::new(0o644), b"x")
            .unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/../u100/./f").unwrap(), b"x");
        // `..` above root stays at root.
        assert!(fs.exists(&FsCtx::root(), "/../../tmp"));
    }

    #[test]
    fn search_permission_required_along_path() {
        let mut fs = setup();
        let root = FsCtx::root().with_umask(Mode::new(0));
        fs.mkdir(&root, "/locked", Mode::new(0o700)).unwrap();
        fs.mkdir(&root, "/locked/inner", Mode::new(0o777)).unwrap();
        let alice = user_ctx(100);
        let err = fs.readdir(&alice, "/locked/inner").unwrap_err();
        assert!(matches!(
            err,
            FsError::PermissionDenied { op: "search", .. }
        ));
    }

    #[test]
    fn write_file_is_idempotent_create() {
        let mut fs = setup();
        let ctx = user_ctx(100);
        fs.write_file(&ctx, "/home/u100/f", Mode::new(0o644), b"one")
            .unwrap();
        fs.write_file(&ctx, "/home/u100/f", Mode::new(0o644), b"two")
            .unwrap();
        assert_eq!(fs.read(&ctx, "/home/u100/f").unwrap(), b"two");
    }
}
