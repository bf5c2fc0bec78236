//! The login session a node opens once every gate has passed.
//!
//! Two of the paper's mechanisms are PAM hooks: `pam_slurm` (ssh to a
//! compute node only while you have a job there, Sec. IV-B — a plain check
//! in `eus-sched`) and the File Permission Handler's session module that
//! sets the enforced `smask` (Sec. IV-C). The cluster's login path runs
//! those gates itself and hands the node the credentials and smask the
//! session opens with ([`crate::NodeOs::open_session`]).

use crate::cred::Credentials;
use crate::ids::{NodeId, SessionId, Uid};
use crate::vfs::{FsCtx, Mode};

/// An established login session. Carries the mutable credential state the
/// support tools (`seepid`, `smask_relax`, `newgrp`) operate on.
#[derive(Debug, Clone)]
pub struct Session {
    /// Session id, unique per node.
    pub id: SessionId,
    /// The logged-in user.
    pub user: Uid,
    /// Effective credentials (may gain groups via `seepid`, swap egid via
    /// `newgrp`).
    pub cred: Credentials,
    /// Advisory file-creation mask.
    pub umask: Mode,
    /// Enforced security mask (honored when the kernel patch is active).
    pub smask: Mode,
    /// Node this session lives on.
    pub node: NodeId,
}

impl Session {
    /// The filesystem context this session performs I/O with.
    pub fn fs_ctx(&self) -> FsCtx {
        FsCtx {
            cred: self.cred.clone(),
            umask: self.umask,
            smask: self.smask,
        }
    }
}
