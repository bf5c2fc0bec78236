//! Route registry: (user, job, app-name) → compute-node endpoint.
//!
//! Routes are registered when a web-app job starts (the job submission
//! pipeline knows the node and port) and removed when it ends. Because the
//! gateway forwards to arbitrary endpoints, apps can run "on any compute
//! node in any partition" (Sec. IV-E) rather than a dedicated web partition.

use eus_sched::JobId;
use eus_simnet::{PeerInfo, SocketAddr};
use eus_simos::Uid;
use std::collections::BTreeMap;

/// Route identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteKey {
    /// Owning user.
    pub user: Uid,
    /// The job serving the app.
    pub job: JobId,
    /// App name ("jupyter", "tensorboard", …).
    pub name: String,
}

/// One registered route.
#[derive(Debug, Clone)]
pub struct Route {
    /// Identity.
    pub key: RouteKey,
    /// Where the app listens.
    pub target: SocketAddr,
    /// The listening process's identity (for authorization).
    pub listener: PeerInfo,
}

/// The table.
#[derive(Debug, Default)]
pub struct RouteTable {
    routes: BTreeMap<RouteKey, Route>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a route.
    pub fn register(&mut self, route: Route) {
        self.routes.insert(route.key.clone(), route);
    }

    /// Look up a route.
    pub fn get(&self, key: &RouteKey) -> Option<&Route> {
        self.routes.get(key)
    }

    /// Remove all routes of a job (epilog).
    pub fn remove_job(&mut self, job: JobId) -> usize {
        let before = self.routes.len();
        self.routes.retain(|k, _| k.job != job);
        before - self.routes.len()
    }

    /// Routes owned by a user (their portal home page listing).
    // analyze:allow(dead-pub): a user's portal home page: the apps they run
    pub fn for_user(&self, user: Uid) -> Vec<&Route> {
        self.routes
            .values()
            .filter(|r| r.key.user == user)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::{Gid, NodeId};

    fn route(user: u32, job: u64, name: &str, port: u16) -> Route {
        Route {
            key: RouteKey {
                user: Uid(user),
                job: JobId(job),
                name: name.to_string(),
            },
            target: SocketAddr::new(NodeId(7), port),
            listener: PeerInfo {
                uid: Uid(user),
                egid: Gid(user),
                pid: None,
            },
        }
    }

    #[test]
    fn register_lookup_remove() {
        let mut t = RouteTable::new();
        t.register(route(1, 10, "jupyter", 8888));
        let key = RouteKey {
            user: Uid(1),
            job: JobId(10),
            name: "jupyter".into(),
        };
        assert_eq!(t.get(&key).unwrap().target.port, 8888);
        assert_eq!(t.remove_job(JobId(10)), 1);
        assert!(t.get(&key).is_none());
    }

    #[test]
    fn remove_job_clears_all_its_routes() {
        let mut t = RouteTable::new();
        t.register(route(1, 10, "jupyter", 8888));
        t.register(route(1, 10, "tensorboard", 6006));
        t.register(route(1, 11, "jupyter", 8889));
        assert_eq!(t.remove_job(JobId(10)), 2);
        assert_eq!(t.routes.len(), 1);
    }

    #[test]
    fn per_user_listing() {
        let mut t = RouteTable::new();
        t.register(route(1, 10, "jupyter", 8888));
        t.register(route(2, 20, "jupyter", 8888));
        assert_eq!(t.for_user(Uid(1)).len(), 1);
        assert_eq!(t.for_user(Uid(3)).len(), 0);
    }
}
