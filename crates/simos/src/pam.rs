//! A miniature PAM (pluggable authentication modules) stack.
//!
//! Two of the paper's mechanisms are PAM modules: `pam_slurm` (ssh to a
//! compute node only while you have a job there, Sec. IV-B — implemented in
//! `eus-sched`) and the File Permission Handler's session module that sets
//! the enforced `smask` (Sec. IV-C / Appendix — implemented in `eus-fsperm`).
//! This module provides the stack they plug into: an *account* phase that can
//! deny access and a *session* phase that can decorate the resulting session
//! (credentials, umask, smask).

use crate::cred::Credentials;
use crate::ids::{NodeId, SessionId, Uid};
use crate::vfs::{FsCtx, Mode};
use std::fmt;

/// Outcome of a PAM module decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PamVerdict {
    /// Continue / allow.
    Success,
    /// Deny with a reason (maps to PAM_PERM_DENIED).
    Denied(String),
}

/// Inputs available to modules during a login attempt.
#[derive(Debug, Clone)]
pub struct PamContext {
    /// The service attempting login (`"sshd"`, `"slurmd"`, `"portal"`, …).
    pub service: String,
    /// The authenticating user.
    pub user: Uid,
    /// Full credentials resolved from the user database.
    pub cred: Credentials,
    /// The node being logged into.
    pub node: NodeId,
}

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

/// A PAM module: both phases default to no-ops so modules implement only
/// what they need.
pub trait PamModule: Send + Sync {
    /// Module name for diagnostics.
    fn name(&self) -> &str;

    /// Account phase: may deny the login outright.
    fn account(&self, _ctx: &PamContext) -> PamVerdict {
        PamVerdict::Success
    }

    /// Session phase: may adjust the session being opened.
    fn open_session(&self, _ctx: &PamContext, _session: &mut Session) -> PamVerdict {
        PamVerdict::Success
    }
}

/// Login failure: which module denied, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PamDenied {
    /// The denying module.
    pub module: String,
    /// Its reason.
    pub reason: String,
}

impl fmt::Display for PamDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pam module {} denied login: {}",
            self.module, self.reason
        )
    }
}

impl std::error::Error for PamDenied {}

/// An ordered stack of modules, all treated as `required`.
#[derive(Default)]
pub struct PamStack {
    modules: Vec<Box<dyn PamModule>>,
}

impl fmt::Debug for PamStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PamStack")
            .field(
                "modules",
                &self
                    .modules
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PamStack {
    /// An empty stack (every login allowed, default session settings).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a module.
    pub fn push(&mut self, module: Box<dyn PamModule>) {
        self.modules.push(module);
    }

    /// Run the full login flow: account phase (all modules must pass), then
    /// open a session and run the session phase.
    pub fn login(&self, ctx: &PamContext, id: SessionId) -> Result<Session, PamDenied> {
        for m in &self.modules {
            if let PamVerdict::Denied(reason) = m.account(ctx) {
                return Err(PamDenied {
                    module: m.name().to_string(),
                    reason,
                });
            }
        }
        let mut session = Session {
            id,
            user: ctx.user,
            cred: ctx.cred.clone(),
            umask: Mode::new(0o022),
            smask: Mode::new(0),
            node: ctx.node,
        };
        for m in &self.modules {
            if let PamVerdict::Denied(reason) = m.open_session(ctx, &mut session) {
                return Err(PamDenied {
                    module: m.name().to_string(),
                    reason,
                });
            }
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Gid;

    struct DenyService(String);
    impl PamModule for DenyService {
        fn name(&self) -> &str {
            "deny-service"
        }
        fn account(&self, ctx: &PamContext) -> PamVerdict {
            if ctx.service == self.0 {
                PamVerdict::Denied(format!("service {} blocked", self.0))
            } else {
                PamVerdict::Success
            }
        }
    }

    struct SetSmask(Mode);
    impl PamModule for SetSmask {
        fn name(&self) -> &str {
            "set-smask"
        }
        fn open_session(&self, _ctx: &PamContext, s: &mut Session) -> PamVerdict {
            s.smask = self.0;
            PamVerdict::Success
        }
    }

    fn ctx(service: &str) -> PamContext {
        PamContext {
            service: service.to_string(),
            user: Uid(100),
            cred: Credentials::new(Uid(100), Gid(100)),
            node: NodeId(1),
        }
    }

    #[test]
    fn empty_stack_allows_with_defaults() {
        let stack = PamStack::new();
        let s = stack.login(&ctx("sshd"), SessionId(1)).unwrap();
        assert_eq!(s.user, Uid(100));
        assert_eq!(s.umask, Mode::new(0o022));
        assert_eq!(s.smask, Mode::new(0));
    }

    #[test]
    fn account_phase_denies() {
        let mut stack = PamStack::new();
        stack.push(Box::new(DenyService("sshd".into())));
        let err = stack.login(&ctx("sshd"), SessionId(1)).unwrap_err();
        assert_eq!(err.module, "deny-service");
        assert!(stack.login(&ctx("portal"), SessionId(2)).is_ok());
    }

    #[test]
    fn session_phase_decorates() {
        let mut stack = PamStack::new();
        stack.push(Box::new(SetSmask(Mode::new(0o007))));
        let s = stack.login(&ctx("sshd"), SessionId(1)).unwrap();
        assert_eq!(s.smask, Mode::new(0o007));
        assert_eq!(s.fs_ctx().smask, Mode::new(0o007));
    }
}
