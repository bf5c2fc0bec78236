//! The portal gateway (paper Sec. IV-E): authenticated forwarding of web-app
//! connections from compute nodes to the user's browser, replacing ad-hoc
//! SSH port forwarding.
//!
//! Two properties the experiments check:
//! 1. the entire path is authenticated and authorized — a valid token is
//!    required, the httpd UBF plug-in authorizes the (user → listener) pair,
//!    and the forwarded hop itself runs as the requesting user's identity so
//!    the compute node's packet-level UBF also sees the true initiator;
//! 2. apps can run on *any* compute node, not a dedicated partition — the
//!    gateway just dials whatever endpoint the route names.

use crate::apps::WebAppRegistry;
use crate::auth::{AuthError, PortalAuth, Token};
use crate::obs::PortalObs;
use crate::routes::{RouteKey, RouteTable};
use eus_simnet::{ConnectError, Fabric, PeerInfo, Proto};
use eus_simos::{NodeId, UserDb};
use eus_ubf::{HttpdUbfPlugin, SharedUserDb};
use std::fmt;

/// Gateway request errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortalError {
    /// Missing/invalid token.
    Auth(AuthError),
    /// No route registered under that name for that job.
    NoSuchRoute(String),
    /// The httpd UBF plug-in refused the (user, listener) pair.
    Forbidden,
    /// The forwarded connection failed at the network layer.
    Connect(ConnectError),
    /// The route exists but the app no longer serves content.
    AppGone,
}

impl fmt::Display for PortalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortalError::Auth(e) => write!(f, "authentication failed: {e}"),
            PortalError::NoSuchRoute(r) => write!(f, "no such route: {r}"),
            PortalError::Forbidden => f.write_str("forbidden by user-based authorization"),
            PortalError::Connect(e) => write!(f, "forward failed: {e}"),
            PortalError::AppGone => f.write_str("application no longer running"),
        }
    }
}

impl std::error::Error for PortalError {}

/// A successful portal fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Served content.
    pub body: String,
    /// Modeled end-to-end latency in microseconds (connect + one exchange).
    pub latency_us: u64,
}

/// The gateway.
pub struct PortalGateway {
    /// The node the portal itself runs on (a login/service node).
    pub host: NodeId,
    /// Token store.
    pub auth: PortalAuth,
    /// Route registry.
    pub routes: RouteTable,
    /// The paper's deployment (true): run the httpd UBF plug-in before
    /// forwarding, and forward with the requesting user's identity. False
    /// is the ablation baseline set by [`naive_proxy`](Self::naive_proxy):
    /// an authenticated reverse proxy that forwards as its own root service.
    authz: bool,
    /// Pre-registered route spans, outcome counters, and the entry-point
    /// trace ring (disabled until the cluster's `enable_obs` fan-out).
    pub obs: PortalObs,
    plugin: HttpdUbfPlugin,
    db: SharedUserDb,
}

impl PortalGateway {
    /// A gateway on `host`, authorizing against the shared user database.
    pub fn new(host: NodeId, db: SharedUserDb) -> Self {
        PortalGateway {
            host,
            auth: PortalAuth::new(),
            routes: RouteTable::new(),
            authz: true,
            obs: PortalObs::disabled(),
            plugin: HttpdUbfPlugin::new(db.clone()),
            db,
        }
    }

    /// Configure the naive reverse-proxy baseline (no route authorization,
    /// forwards as the portal service identity).
    pub fn naive_proxy(mut self) -> Self {
        self.authz = false;
        self
    }

    /// Read-only view of the user database.
    fn with_db<R>(&self, f: impl FnOnce(&UserDb) -> R) -> R {
        f(&self.db.read())
    }

    /// The `enroll_mfa` route: a logged-in user binds a second factor at
    /// the realm IdP (self-service, like the real portal's security page).
    /// Returns the one-time-shown shared secret plus single-use recovery
    /// codes; the next login must present a current window code or burn a
    /// recovery code. Rebinding an existing factor requires the current
    /// code (`mfa`) as step-up.
    pub fn enroll_mfa(
        &mut self,
        token: Token,
        mfa: Option<eus_fedauth::MfaCode>,
    ) -> Result<eus_fedauth::MfaEnrollment, PortalError> {
        self.auth.enroll_mfa(token, mfa).map_err(PortalError::Auth)
    }

    /// The `unenroll_mfa` route: remove the session user's second factor.
    /// Step-up-gated like rebinding (the current window code must be
    /// presented), so a stolen session alone cannot downgrade the account;
    /// remaining recovery codes are voided with the factor.
    pub fn unenroll_mfa(
        &mut self,
        token: Token,
        mfa: Option<eus_fedauth::MfaCode>,
    ) -> Result<(), PortalError> {
        self.auth
            .unenroll_mfa(token, mfa)
            .map_err(PortalError::Auth)
    }

    /// Fetch a route's app content on behalf of an authenticated user.
    pub fn fetch(
        &mut self,
        fabric: &mut Fabric,
        apps: &WebAppRegistry,
        token: Token,
        key: &RouteKey,
    ) -> Result<Response, PortalError> {
        let span = self.obs.rec.span_start();
        let r = self.fetch_inner(fabric, apps, token, key);
        if self.obs.rec.enabled() {
            let outcome = self.obs.fetch_outcome_counter(&r);
            self.obs.rec.incr(outcome);
        }
        self.obs.rec.span_end(self.obs.sp_fetch, span);
        r
    }

    fn fetch_inner(
        &mut self,
        fabric: &mut Fabric,
        apps: &WebAppRegistry,
        token: Token,
        key: &RouteKey,
    ) -> Result<Response, PortalError> {
        // 1. Authenticate.
        let user = self.auth.whoami(token).map_err(PortalError::Auth)?;
        // 2. Route lookup.
        let route = self
            .routes
            .get(key)
            .ok_or_else(|| PortalError::NoSuchRoute(key.name.clone()))?
            .clone();
        // 3. Authorize via the httpd UBF plug-in: the *requesting* user
        //    against the listening process's identity.
        let cred = self
            .with_db(|db| db.credentials(user))
            .map_err(|_| PortalError::Forbidden)?;
        if self.authz && !self.plugin.authorize(&cred, &route.listener).allowed() {
            return Err(PortalError::Forbidden);
        }
        // 4. Forward: the per-user forwarder connects from the portal host
        //    with the user's own identity, so the compute node's UBF also
        //    judges the true initiator. (A naive proxy instead connects as
        //    the portal's root service — which a UBF would wave through.)
        let initiator = if self.authz {
            PeerInfo::from_cred(&cred)
        } else {
            PeerInfo::from_cred(&eus_simos::Credentials::root())
        };
        let (conn, setup) = fabric
            .connect(self.host, initiator, route.target, Proto::Tcp)
            .map_err(PortalError::Connect)?;
        let app = apps.get(route.target).ok_or(PortalError::AppGone)?;
        let xfer = fabric
            .send(conn, &bytes::Bytes::from(app.content.clone().into_bytes()))
            .expect("connection just established");
        fabric.close(conn);
        Ok(Response {
            body: app.content.clone(),
            latency_us: (setup + xfer).as_micros(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::Route;
    use eus_sched::JobId;
    use eus_simnet::SocketAddr;
    use eus_simos::Uid;
    use eus_ubf::{deploy_ubf, shared_user_db};

    struct World {
        fabric: Fabric,
        apps: WebAppRegistry,
        gateway: PortalGateway,
        db: SharedUserDb,
        alice: Uid,
        bob: Uid,
    }

    fn world() -> World {
        let mut udb = UserDb::new();
        let alice = udb.create_user("alice").unwrap();
        let bob = udb.create_user("bob").unwrap();
        let db = shared_user_db(udb);
        let mut fabric = Fabric::new();
        fabric.add_host(NodeId(1)); // portal node
        fabric.add_host(NodeId(7)); // compute node
        deploy_ubf(fabric.host_mut(NodeId(7)).unwrap(), db.clone());
        let gateway = PortalGateway::new(NodeId(1), db.clone());
        World {
            fabric,
            apps: WebAppRegistry::new(),
            gateway,
            db,
            alice,
            bob,
        }
    }

    fn launch_alice_app(w: &mut World) -> RouteKey {
        let cred = w.db.read().credentials(w.alice).unwrap();
        let ep = w
            .apps
            .launch(&mut w.fabric, NodeId(7), &cred, 8888, "alice notebook")
            .unwrap();
        let key = RouteKey {
            user: w.alice,
            job: JobId(1),
            name: "jupyter".into(),
        };
        w.gateway.routes.register(Route {
            key: key.clone(),
            target: ep,
            listener: PeerInfo::from_cred(&cred),
        });
        key
    }

    #[test]
    fn owner_fetches_through_full_path() {
        let mut w = world();
        let key = launch_alice_app(&mut w);
        let token = w.gateway.auth.login(&w.db.read(), w.alice).unwrap();
        let resp = w
            .gateway
            .fetch(&mut w.fabric, &w.apps, token, &key)
            .unwrap();
        assert_eq!(resp.body, "alice notebook");
        assert!(resp.latency_us > 0);
    }

    #[test]
    fn unauthenticated_and_cross_user_blocked() {
        let mut w = world();
        let key = launch_alice_app(&mut w);

        // Garbage token.
        let err = w
            .gateway
            .fetch(&mut w.fabric, &w.apps, Token(4242), &key)
            .unwrap_err();
        assert!(matches!(err, PortalError::Auth(_)));

        // Bob authenticates but is not alice: plugin refuses before any
        // packet moves.
        let bob_token = w.gateway.auth.login(&w.db.read(), w.bob).unwrap();
        let attempted_before = w.fabric.metrics.connects_attempted.get();
        let err = w
            .gateway
            .fetch(&mut w.fabric, &w.apps, bob_token, &key)
            .unwrap_err();
        assert_eq!(err, PortalError::Forbidden);
        assert_eq!(
            w.fabric.metrics.connects_attempted.get(),
            attempted_before,
            "denied at the portal, not on the wire"
        );
    }

    #[test]
    fn direct_connection_bypassing_portal_still_hits_ubf() {
        let mut w = world();
        launch_alice_app(&mut w);
        // Bob skips the portal and dials the compute node directly: the
        // node-level UBF denies him anyway (defense in depth).
        let bob_peer = PeerInfo::from_cred(&w.db.read().credentials(w.bob).unwrap());
        let err = w
            .fabric
            .connect(
                NodeId(1),
                bob_peer,
                SocketAddr::new(NodeId(7), 8888),
                Proto::Tcp,
            )
            .unwrap_err();
        assert!(matches!(err, ConnectError::DeniedByDaemon { .. }));
    }

    #[test]
    fn project_group_app_shared_with_member() {
        let mut w = world();
        // Alice opts her app into a project group bob belongs to.
        let proj = {
            let mut db = w.db.write();
            let proj = db.create_project_group("proj", w.alice).unwrap();
            db.add_to_group(w.alice, proj, w.bob).unwrap();
            proj
        };
        let cred = w.db.read().credentials(w.alice).unwrap();
        let cred_proj = w.db.read().newgrp(&cred, proj).unwrap();
        let ep = w
            .apps
            .launch(&mut w.fabric, NodeId(7), &cred_proj, 9999, "team dashboard")
            .unwrap();
        let key = RouteKey {
            user: w.alice,
            job: JobId(2),
            name: "dash".into(),
        };
        w.gateway.routes.register(Route {
            key: key.clone(),
            target: ep,
            listener: PeerInfo::from_cred(&cred_proj),
        });
        let bob_token = w.gateway.auth.login(&w.db.read(), w.bob).unwrap();
        let resp = w
            .gateway
            .fetch(&mut w.fabric, &w.apps, bob_token, &key)
            .unwrap();
        assert_eq!(resp.body, "team dashboard");
    }

    #[test]
    fn fetch_outcomes_land_in_counters() {
        let mut w = world();
        let key = launch_alice_app(&mut w);
        w.gateway.obs = crate::obs::PortalObs::new(&eus_obs::ObsConfig::enabled());

        let token = w.gateway.auth.login(&w.db.read(), w.alice).unwrap();
        w.gateway
            .fetch(&mut w.fabric, &w.apps, token, &key)
            .unwrap();
        let bob_token = w.gateway.auth.login(&w.db.read(), w.bob).unwrap();
        w.gateway
            .fetch(&mut w.fabric, &w.apps, bob_token, &key)
            .unwrap_err();

        let obs = &w.gateway.obs;
        assert_eq!(obs.rec.counter_value(obs.c_fetch_ok), 1);
        assert_eq!(obs.rec.counter_value(obs.c_fetch_forbidden), 1);
        assert_eq!(obs.fetches_total(), 2);
        assert_eq!(obs.rec.span_stats(obs.sp_fetch).count, 2);
    }

    #[test]
    fn stopped_app_reports_gone() {
        let mut w = world();
        let key = launch_alice_app(&mut w);
        let token = w.gateway.auth.login(&w.db.read(), w.alice).unwrap();
        let ep = w.gateway.routes.get(&key).unwrap().target;
        w.apps.stop(&mut w.fabric, ep);
        let err = w
            .gateway
            .fetch(&mut w.fabric, &w.apps, token, &key)
            .unwrap_err();
        // The listener is gone, so the connect refuses.
        assert!(matches!(err, PortalError::Connect(_)));
    }
}
