//! # eus-simos — simulated Linux node substrate
//!
//! The paper's mechanisms are Linux configurations and kernel patches; this
//! crate is the Linux they apply to, reduced to the security semantics that
//! matter for multi-tenant HPC:
//!
//! * [`users`] — the **user private group** scheme and steward-managed
//!   project groups (Sec. IV-C),
//! * [`process`] / [`procfs`] — the process table and `/proc` with
//!   `hidepid=`/`gid=` mount options (Sec. IV-A),
//! * [`vfs`] — a full-DAC filesystem (mode bits, POSIX ACLs, sticky/setgid,
//!   umask) with the File Permission Handler's patch points (`smask`
//!   enforcement and ACL restriction — flipped on by `eus-fsperm`),
//! * [`pam`] — the login [`Session`] a node opens once `pam_slurm` and the
//!   other login gates pass, carrying the smask the session module sets,
//! * [`node`] — nodes with their local filesystem and login sessions,
//! * [`shm`] — abstract-namespace Unix sockets, one of the residual channels
//!   of Sec. V,
//! * [`devices`] — `/dev` identities for scheduler-assigned accelerators.
//!
//! Semantics are implemented from the relevant man pages (proc(5), acl(5),
//! chown(2), chmod(2)) so that "blocked" and "allowed" in the experiment
//! tables mean what they would mean on a production node.

#![warn(missing_docs)]

pub mod cred;
pub mod devices;
pub mod ids;
pub mod node;
pub mod pam;
pub mod process;
pub mod procfs;
pub mod shm;
pub mod users;
pub mod vfs;

pub use cred::Credentials;
pub use devices::DeviceId;
pub use ids::{Gid, NodeId, Pid, SessionId, Uid, ROOT_GID, ROOT_UID};
pub use node::NodeOs;
pub use pam::Session;
pub use process::{Process, ProcessTable};
pub use procfs::{HidePid, ProcError, ProcFs, ProcMountOpts};
pub use shm::{AbstractSocket, AbstractSocketSpace, ShmError};
pub use users::{Group, GroupKind, User, UserDb, UserDbError};
pub use vfs::{
    check_access, FileKind, FileStat, FsCtx, FsError, FsResult, Mode, Perm, PermMeta, PosixAcl, Vfs,
};
