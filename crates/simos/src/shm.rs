//! Abstract-namespace Unix domain sockets.
//!
//! The paper's Results section (Sec. V) names these as one of the few
//! *residual* cross-user paths after all controls are deployed: abstract
//! sockets live in a per-network-namespace string namespace with **no
//! filesystem permissions at all**, so any local user can connect to any
//! listening abstract socket. We model that namespace per node so the audit
//! engine can demonstrate the residual channel (and so a future namespace-
//! per-job extension could close it).

use crate::cred::Credentials;
use crate::ids::Uid;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from abstract-socket operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// The name is already bound.
    NameInUse(String),
    /// Nobody is listening on that name.
    NotListening(String),
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::NameInUse(n) => write!(f, "abstract socket name in use: @{n}"),
            ShmError::NotListening(n) => write!(f, "no listener on abstract socket @{n}"),
        }
    }
}

impl std::error::Error for ShmError {}

/// One bound abstract socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractSocket {
    /// The abstract name (conventionally shown with a leading `@`).
    pub name: String,
    /// The uid that bound it.
    pub owner: Uid,
}

/// The per-node abstract socket namespace.
#[derive(Debug, Clone, Default)]
pub struct AbstractSocketSpace {
    sockets: BTreeMap<String, AbstractSocket>,
}

impl AbstractSocketSpace {
    /// An empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a listener. First-come-first-served; no permissions involved.
    pub fn bind(&mut self, cred: &Credentials, name: &str) -> Result<(), ShmError> {
        if self.sockets.contains_key(name) {
            return Err(ShmError::NameInUse(name.to_string()));
        }
        self.sockets.insert(
            name.to_string(),
            AbstractSocket {
                name: name.to_string(),
                owner: cred.uid,
            },
        );
        Ok(())
    }

    /// Connect to a listener. Succeeds for **any** local user — this absence
    /// of a permission check is the modeled vulnerability; the return value
    /// tells the caller whose socket they reached.
    pub fn connect(&self, _cred: &Credentials, name: &str) -> Result<Uid, ShmError> {
        self.sockets
            .get(name)
            .map(|s| s.owner)
            .ok_or_else(|| ShmError::NotListening(name.to_string()))
    }

    /// Enumerate bound names — abstract names are also *listable* by any
    /// user (`/proc/net/unix`), a secondary disclosure the audit counts.
    pub fn list(&self) -> Vec<&AbstractSocket> {
        self.sockets.values().collect()
    }

    /// Remove every socket bound by `uid` (session/job cleanup).
    pub fn cleanup_user(&mut self, uid: Uid) -> usize {
        let before = self.sockets.len();
        self.sockets.retain(|_, s| s.owner != uid);
        before - self.sockets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Gid;

    fn cred(u: u32) -> Credentials {
        Credentials::new(Uid(u), Gid(u))
    }

    #[test]
    fn cross_user_connect_succeeds_by_design() {
        let mut ns = AbstractSocketSpace::new();
        ns.bind(&cred(1), "mpi-demon").unwrap();
        // A different user connects without any permission check: this is
        // the residual channel the paper acknowledges.
        let owner = ns.connect(&cred(2), "mpi-demon").unwrap();
        assert_eq!(owner, Uid(1));
    }

    #[test]
    fn name_collisions_and_missing_listeners() {
        let mut ns = AbstractSocketSpace::new();
        ns.bind(&cred(1), "x").unwrap();
        assert_eq!(
            ns.bind(&cred(2), "x").unwrap_err(),
            ShmError::NameInUse("x".into())
        );
        assert_eq!(
            ns.connect(&cred(2), "y").unwrap_err(),
            ShmError::NotListening("y".into())
        );
    }

    #[test]
    fn names_are_listable_by_anyone() {
        let mut ns = AbstractSocketSpace::new();
        ns.bind(&cred(1), "secret-project-app").unwrap();
        let names: Vec<&str> = ns.list().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["secret-project-app"]);
    }

    #[test]
    fn cleanup_removes_only_one_user() {
        let mut ns = AbstractSocketSpace::new();
        ns.bind(&cred(1), "a").unwrap();
        ns.bind(&cred(1), "b").unwrap();
        ns.bind(&cred(2), "c").unwrap();
        assert_eq!(ns.cleanup_user(Uid(1)), 2);
        assert_eq!(ns.list().len(), 1);
    }
}
