//! `SecureCluster`: a whole simulated HPC system assembled from the
//! substrates according to a [`SeparationConfig`].
//!
//! This is the deployable artifact the paper describes: login + compute
//! nodes with shared `/home` and `/proj` filesystems, a Slurm-like scheduler
//! with the chosen node-sharing policy, per-node `/proc` options and PAM
//! stacks, the User-Based Firewall on every host, scheduler-managed GPUs,
//! and the web portal. The audit engine and every experiment run against
//! this type.

use crate::config::{Mechanism, SeparationConfig};
use crate::obs::{CoreObs, ObsConfig};
use eus_accel::GpuPool;
use eus_containers::{ContainerRegistry, HpcRuntime};
use eus_fedauth::{
    shared_broker, BrokerPolicy, CredSerial, CredentialBroker, PamFedAuth, RealmId, SharedBroker,
    SignedToken, TrustPolicy,
};
use eus_fsperm::{apply_kernel_patches, FilePermissionHandler, PamSmask, LLSC_SMASK};
use eus_portal::{PortalGateway, RouteKey, WebAppRegistry};
use eus_revsync::{RevSyncConfig, RevSyncMesh};
use eus_sched::{
    shared_scheduler, JobId, JobSpec, JobState, PamSlurm, SchedConfig, Scheduler, SharedScheduler,
};
use eus_simcore::{SimDuration, SimTime};
use eus_simnet::{ConnId, ConnectError, Fabric, PeerInfo, Port, Proto, SocketAddr};
use eus_simos::node::LoginError;
use eus_simos::procfs::ProcMountOpts;
use eus_simos::{
    Credentials, DeviceId, FsCtx, FsError, FsResult, Gid, Mode, NodeId, NodeOs, Pid, SessionId,
    Uid, UserDb, UserDbError, Vfs,
};
use eus_ubf::{
    deploy_ubf_observed, shared_user_db, SharedUserDb, UbfConfig, UbfPacketStats, UbfStats,
};
use std::collections::{BTreeMap, BTreeSet};

/// Hardware shape of the cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub compute_nodes: u32,
    /// Cores per compute node.
    pub cores_per_node: u32,
    /// Memory per compute node (MiB).
    pub mem_per_node_mib: u64,
    /// GPUs per compute node.
    pub gpus_per_node: u16,
    /// Device memory per GPU (bytes; kept small — remanence is the modeled
    /// property, not capacity).
    pub gpu_mem_bytes: usize,
    /// Number of login nodes (always ≥ 1; these stay multi-user, which is
    /// why hidepid matters even under whole-node scheduling).
    pub login_nodes: u32,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            compute_nodes: 8,
            cores_per_node: 16,
            mem_per_node_mib: 65_536,
            gpus_per_node: 2,
            gpu_mem_bytes: 4096,
            login_nodes: 1,
        }
    }
}

impl ClusterSpec {
    /// A small spec for fast tests.
    pub fn tiny() -> Self {
        ClusterSpec {
            compute_nodes: 2,
            cores_per_node: 8,
            mem_per_node_mib: 16_384,
            gpus_per_node: 1,
            gpu_mem_bytes: 1024,
            login_nodes: 1,
        }
    }
}

/// The home site's federation realm id.
pub const HOME_REALM: RealmId = RealmId(1);

/// An external dependency of the cluster whose outage the site degrades
/// around (rather than falling over): the identity provider behind logins,
/// the certificate authority behind credential minting, and the
/// cross-realm revocation feeds behind replica-backed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dependency {
    /// The home realm's identity provider (login/assertion path).
    Idp,
    /// The home realm's certificate authority (minting path).
    Ca,
    /// The revocation feeds from trusted sister realms (worst replica).
    Feed,
}

/// Health of one [`Dependency`], re-judged at every cycle boundary.
///
/// The ladder only descends while the outage persists — `Healthy →
/// Degraded → FailClosed` — and snaps back to `Healthy` the first boundary
/// after heal. *Degraded* means the cluster is serving on borrowed state:
/// new logins fail `Unavailable` but already-minted tokens keep validating
/// against local state (broker tables, CRL replicas). *FailClosed* means
/// the borrowed state has aged past the mesh's `max_lag`, the bound
/// the paper's bounded-staleness argument rests on, and the affected path
/// now refuses rather than trusts stale data. The judgment is pure
/// observation — enforcement lives in the broker gates and the replica
/// staleness check, which fail closed with or without this bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepHealth {
    /// Dependency reachable; nothing borrowed.
    Healthy,
    /// Outage in progress since `since`; serving on local state.
    Degraded {
        /// When the outage was first observed at a cycle boundary.
        since: SimTime,
    },
    /// Borrowed state exhausted; the affected path refuses.
    FailClosed,
}

impl DepHealth {
    /// The gauge encoding (`core.health.*`): 0 / 1 / 2 down the ladder.
    pub fn gauge(self) -> i64 {
        match self {
            DepHealth::Healthy => 0,
            DepHealth::Degraded { .. } => 1,
            DepHealth::FailClosed => 2,
        }
    }

    /// Is this the top of the ladder?
    pub fn is_healthy(self) -> bool {
        matches!(self, DepHealth::Healthy)
    }
}

/// A class of state a tenant can leave on a compute node. The eviction
/// drains each through one exhaustive `match`; [`SecureCluster::residue_of`]
/// reads each from the node's actual state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Residue {
    /// Processes running as the tenant.
    Procs,
    /// Connections whose endpoint on the node is the tenant's.
    Flows,
    /// Listening sockets the tenant holds on the node.
    Sockets,
    /// Abstract-namespace sockets the tenant bound.
    AbstractSockets,
    /// GPUs still assigned to the tenant.
    DeviceGrants,
    /// Dirty GPU memory that no remaining tenant may own.
    GpuMemory,
    /// Web apps the tenant serves from the node.
    WebApps,
}

impl Residue {
    /// Every class, in eviction order.
    fn all() -> [Residue; 7] {
        use Residue::*;
        [
            Procs,
            Flows,
            Sockets,
            AbstractSockets,
            DeviceGrants,
            GpuMemory,
            WebApps,
        ]
    }

    /// The mechanism whose deployment evicts this class (`None`: always).
    pub fn closed_by(self) -> Option<Mechanism> {
        match self {
            Residue::GpuMemory => Some(Mechanism::GpuScrub),
            Residue::DeviceGrants => Some(Mechanism::GpuDevPerms),
            _ => None,
        }
    }
}

/// The node hand-off's one ledger.
#[derive(Debug, Default)]
struct Tenancy {
    /// Per `(node, tenant)`: what the node's own state cannot attribute.
    tenants: BTreeMap<(NodeId, Uid), Tenant>,
    /// The job runs whose prolog ran (the started-job scan's one lookup);
    /// a run's first epilog takes it out.
    admitted: BTreeSet<JobId>,
}

/// One tenant on one node.
#[derive(Debug, Default)]
struct Tenant {
    /// The process each admitted job runs on the node.
    jobs: BTreeMap<JobId, Pid>,
    /// The web apps each job launched there.
    apps: Vec<(JobId, SocketAddr)>,
    /// Held GPUs there since arriving.
    gpus: bool,
}

/// The assembled system.
pub struct SecureCluster {
    /// Deployed mechanisms.
    pub config: SeparationConfig,
    /// Hardware shape.
    pub spec: ClusterSpec,
    /// Shared account database.
    pub db: SharedUserDb,
    /// The scheduler (shared: PAM stacks hold handles).
    pub sched: SharedScheduler,
    /// The network.
    pub fabric: Fabric,
    nodes: BTreeMap<NodeId, NodeOs>,
    /// Compute node ids (scheduler-managed).
    pub compute_ids: Vec<NodeId>,
    /// Login node ids (multi-user).
    pub login_ids: Vec<NodeId>,
    /// Cluster-wide `/home`: every node resolves `/home/...` here.
    pub shared_home: Vfs,
    /// Cluster-wide `/proj`: every node resolves `/proj/...` here.
    pub shared_proj: Vfs,
    /// All accelerators.
    pub gpus: GpuPool,
    /// The web portal.
    pub portal: PortalGateway,
    apps: WebAppRegistry,
    /// File Permission Handler site policy (whitelists, smask default).
    pub fsperm_policy: FilePermissionHandler,
    /// Container runtime.
    pub runtime: HpcRuntime,
    /// Shared-filesystem container copies.
    pub containers: ContainerRegistry,
    /// Per-host UBF statistics handles (empty when UBF off).
    pub ubf_stats: Vec<UbfStats>,
    /// One shared packet-path slot registry wired into every UBF daemon
    /// (cache hit ratios, denies, ident round trips, occupancy peak).
    /// Disabled until `enable_obs`; the handle reaches daemons already
    /// moved into the fabric.
    pub ubf_pkt: UbfPacketStats,
    /// The federated credential plane (`Some` when `config.federated_auth`):
    /// sshd PAM, job submission, and the portal all consult it.
    pub broker: Option<SharedBroker>,
    /// The home site's realm allow-list: `config.trusted_realms`
    /// permanently, plus every [`grant_trust`](Self::grant_trust).
    /// Judged before any sister credential reaches a replica. Private, so
    /// no grant skips the replica subscription it needs.
    trust: TrustPolicy,
    /// The revocation-propagation mesh (`Some` when
    /// `config.federated_auth`), and the one registry from realm to
    /// credential plane: the home plane and every registered sister realm
    /// are on it, each with the clock its plane publishes. The home site
    /// holds local CRL replicas for trusted sister realms only, fed by push
    /// deltas + pull anti-entropy over a simulated WAN. Cross-realm
    /// validation consults these replicas — never the issuer — under the
    /// mesh's `max_lag` (bounded staleness, fail closed).
    pub revsync: Option<RevSyncMesh>,
    /// The node hand-off's one ledger.
    tenancy: Tenancy,
    // Per-dependency degraded-mode state machines (see [`DepHealth`]),
    // re-judged at every cycle boundary.
    health_idp: DepHealth,
    health_ca: DepHealth,
    health_feed: DepHealth,
    // Injected per-realm clock skew: the realm's plane is advanced to
    // `now + skew` at every clock sync (forward-only; plane clocks are
    // monotone, so shrinking or clearing the skew just stops the extra
    // advance until the cluster clock catches up).
    clock_skew: BTreeMap<RealmId, SimDuration>,
    // Last-sampled totals for boundary SLO deltas (monotone counters read
    // at each `advance_to`; the difference feeds the SLO rings).
    prev_validate_calls: u64,
    prev_validate_ns: u64,
    prev_iwait_us: u64,
    prev_iwaits: u64,
    /// Cluster-plane observability (reconcile span, prolog/epilog
    /// counters, health gauges, SLOs). Disabled by default; pure
    /// measurement — never consulted by any enforcement decision.
    pub obs: CoreObs,
}

/// The tree that owns `path` on a node, and `path` rebased into it
/// (borrowed from the caller, never copied). `/home` and `/proj` — the
/// mount point itself, or below it at a component boundary — are the
/// cluster-wide trees; every other path (`/homework` included) is the
/// node's own `local`. `local` is `None` for a node the cluster does not
/// have, which has no `path` at all. `F` is `&Vfs` or `&mut Vfs`.
fn mounted<F>(path: &str, home: F, proj: F, local: Option<F>) -> FsResult<(F, &str)> {
    let local = local.ok_or_else(|| FsError::NotFound(path.to_string()))?;
    let under = |mount: &str| match path.strip_prefix(mount) {
        Some("") => Some("/"),
        Some(rest) if rest.starts_with('/') => Some(rest),
        _ => None,
    };
    Ok(if let Some(p) = under("/home") {
        (home, p)
    } else if let Some(p) = under("/proj") {
        (proj, p)
    } else {
        (local, path)
    })
}

impl SecureCluster {
    /// Assemble a cluster.
    pub fn new(config: SeparationConfig, spec: ClusterSpec) -> Self {
        let mut udb = UserDb::new();
        let seepid_gid = udb
            .create_system_group("proc-exempt")
            .expect("fresh db has no such group");
        let db = shared_user_db(udb);

        // Scheduler with the configured policy (+ policy plane knobs).
        let mut scheduler = Scheduler::new(SchedConfig {
            policy: config.node_policy,
            private_data: config.private_data_flags(),
            fair_share: config.sched_fair_share,
            preemption: config.sched_preemption,
            reservations: config.sched_reservations as usize,
            ..SchedConfig::default()
        });
        let compute_ids: Vec<NodeId> = (0..spec.compute_nodes)
            .map(|_| {
                scheduler.add_node(
                    spec.cores_per_node,
                    spec.mem_per_node_mib,
                    spec.gpus_per_node as u32,
                )
            })
            .collect();
        let sched = shared_scheduler(scheduler);

        // Shared filesystems.
        let mut shared_home = Vfs::new("shared-home");
        let mut shared_proj = Vfs::new("shared-proj");
        if config.fsperm {
            apply_kernel_patches(&mut shared_home);
            apply_kernel_patches(&mut shared_proj);
        }

        let fsperm_policy = FilePermissionHandler::new(seepid_gid);

        // Federated identity plane (companion-paper layer): one realm per
        // site; deterministic key/token material.
        let broker: Option<SharedBroker> = config.federated_auth.then(|| {
            shared_broker(CredentialBroker::new(
                HOME_REALM,
                0x5EED_FEDA,
                BrokerPolicy::default(),
            ))
        });
        let mut trust = TrustPolicy::home_only(HOME_REALM);
        for r in &config.trusted_realms {
            trust.trust(RealmId(*r));
        }
        let revsync = broker.as_ref().map(|b| {
            let mut mesh = RevSyncMesh::new(RevSyncConfig::default());
            mesh.add_realm(HOME_REALM, b.clone());
            mesh
        });

        // Nodes: compute then login.
        let mut nodes = BTreeMap::new();
        let login_ids: Vec<NodeId> = (0..spec.login_nodes)
            .map(|i| NodeId(spec.compute_nodes + 1 + i))
            .collect();
        let mut fabric = Fabric::new();
        let mut ubf_stats = Vec::new();
        let ubf_pkt = UbfPacketStats::disabled();
        let mut gpus = GpuPool::new();

        for (idx, id) in compute_ids
            .iter()
            .chain(login_ids.iter())
            .copied()
            .enumerate()
        {
            let is_compute = idx < compute_ids.len();
            let name = if is_compute {
                format!("compute{}", id.0)
            } else {
                format!("login{}", id.0)
            };
            let mut node = NodeOs::new(id, name);
            if let Some(b) = &broker {
                // Account phase runs first: no live SSH certificate, no login
                // anywhere — login or compute node alike.
                node.pam.push(Box::new(PamFedAuth::new(b.clone())));
            }
            if config.hidepid {
                node.proc_opts = ProcMountOpts::llsc(seepid_gid);
            }
            if config.fsperm {
                apply_kernel_patches(&mut node.local_fs);
                node.pam
                    .push(Box::new(PamSmask::from_handler(&fsperm_policy)));
            }
            if config.pam_slurm && is_compute {
                node.pam.push(Box::new(PamSlurm::new(sched.clone())));
            }
            let host = fabric.add_host(id);
            if config.ubf {
                ubf_stats.push(deploy_ubf_observed(
                    host,
                    db.clone(),
                    UbfConfig::default(),
                    ubf_pkt.clone(),
                ));
            }
            if is_compute && spec.gpus_per_node > 0 {
                gpus.install(
                    id,
                    spec.gpus_per_node,
                    spec.gpu_mem_bytes,
                    &mut node.local_fs,
                )
                .expect("fresh /dev");
                if !config.gpu_dev_perms {
                    for g in gpus.on_node(id) {
                        eus_accel::set_device_world_open(&mut node.local_fs, g.device)
                            .expect("device exists");
                    }
                }
            }
            nodes.insert(id, node);
        }

        let portal_host = login_ids[0];
        let mut portal = PortalGateway::new(portal_host, db.clone());
        if !config.portal_authz {
            portal = portal.naive_proxy();
        }
        if let Some(b) = &broker {
            portal.auth.attach_broker(b.clone());
        }

        SecureCluster {
            config,
            spec,
            db,
            sched,
            fabric,
            nodes,
            compute_ids,
            login_ids,
            shared_home,
            shared_proj,
            gpus,
            portal,
            apps: WebAppRegistry::new(),
            fsperm_policy,
            runtime: HpcRuntime,
            containers: ContainerRegistry::new(),
            ubf_stats,
            ubf_pkt,
            broker,
            trust,
            revsync,
            tenancy: Tenancy::default(),
            health_idp: DepHealth::Healthy,
            health_ca: DepHealth::Healthy,
            health_feed: DepHealth::Healthy,
            clock_skew: BTreeMap::new(),
            prev_validate_calls: 0,
            prev_validate_ns: 0,
            prev_iwait_us: 0,
            prev_iwaits: 0,
            obs: CoreObs::disabled(),
        }
    }

    /// Turn on observability across every plane at once: the cluster's own
    /// recorder (plus its trace ring and SLO plane), the scheduler's
    /// [`eus_sched::SchedObs`], the broker's atomic
    /// [`eus_fedauth::ValidateStats`] and trace ring, the revsync mesh's
    /// [`eus_revsync::MeshObs`], the portal's [`eus_portal::PortalObs`],
    /// and every UBF daemon's shared packet slots. Each plane keeps its own
    /// namespace (`core.*`, `sched.*`, `cred.*`, `revsync.*`, `portal.*`,
    /// `ubf.*`); snapshots are read per plane. The `revsync.replica.lag`
    /// SLO is re-aimed to half the configured staleness budget.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        self.obs = CoreObs::new(&cfg);
        self.obs.slo.set_target(
            self.obs.slo_replica_lag,
            self.max_lag().as_micros() as f64 / 2.0,
        );
        self.sched.write().enable_obs(cfg);
        self.portal.obs = eus_portal::PortalObs::new(&cfg);
        self.ubf_pkt.set_enabled(cfg.enabled);
        if let Some(b) = &self.broker {
            let guard = b.read();
            guard.stats.set_enabled(cfg.enabled);
            guard.trace.set_enabled(cfg.enabled);
        }
        if let Some(mesh) = &mut self.revsync {
            mesh.enable_obs(cfg);
        }
    }

    /// The first login node (where the portal runs).
    pub fn login_node(&self) -> NodeId {
        self.login_ids[0]
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &NodeOs {
        &self.nodes[&id]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeOs {
        self.nodes.get_mut(&id).expect("known node")
    }

    // ------------------------------------------------------------------
    // Accounts and filesystems
    // ------------------------------------------------------------------

    /// Create a user. With the File Permission Handler deployment
    /// (`config.fsperm`) homes follow the paper's layout: `/home/<name>`
    /// owned by root, group = the user's private group, mode 0770 — the user
    /// works freely inside but cannot chmod the top level open (Sec. IV-C).
    /// Without it, the traditional layout applies: user-owned, mode 0755,
    /// world-traversable — the baseline the audit contrasts.
    pub fn add_user(&mut self, name: &str) -> Result<Uid, UserDbError> {
        let uid = self.db.write().create_user(name)?;
        let upg = self
            .db
            .read()
            .user(uid)
            .expect("just created")
            .private_group;
        let root = FsCtx::root().with_umask(Mode::new(0));
        let home = &mut self.shared_home;
        if self.config.fsperm {
            home.mkdir(&root, &format!("/{name}"), Mode::new(0o770))
                .expect("fresh home dir");
            home.set_meta_as_root(&format!("/{name}"), |m| m.gid = upg)
                .expect("just created");
        } else {
            home.mkdir(&root, &format!("/{name}"), Mode::new(0o755))
                .expect("fresh home dir");
            home.set_meta_as_root(&format!("/{name}"), |m| {
                m.uid = uid;
                m.gid = upg;
            })
            .expect("just created");
        }
        if let Some(b) = &self.broker {
            // Account provisioning includes the first federated login, so a
            // fresh user holds a live token + SSH certificate (the real
            // system does this when the user first connects). Global lock
            // order: user db before broker, matching the portal auth
            // routes; the parking_lot lock_order_check cfg enforces that
            // this order stays acyclic.
            let db = self.db.read();
            // analyze:allow(lock-discipline): db -> broker is the documented global order
            b.write().login(&db, uid, None).expect("just created user");
        }
        Ok(uid)
    }

    /// Create an approved project group plus its `/proj/<name>` area:
    /// setgid 2770, root-owned, group-owned by the project (Sec. IV-C).
    pub fn create_project(&mut self, name: &str, steward: Uid) -> Result<Gid, UserDbError> {
        let gid = self.db.write().create_project_group(name, steward)?;
        let root = FsCtx::root().with_umask(Mode::new(0));
        let proj = &mut self.shared_proj;
        proj.mkdir(&root, &format!("/{name}"), Mode::new(0o2770))
            .expect("fresh proj dir");
        proj.set_meta_as_root(&format!("/{name}"), |m| m.gid = gid)
            .expect("just created");
        Ok(gid)
    }

    /// Steward adds a member (the data-steward approval workflow).
    pub fn add_project_member(
        &mut self,
        steward: Uid,
        project: Gid,
        user: Uid,
    ) -> Result<(), UserDbError> {
        self.db.write().add_to_group(steward, project, user)
    }

    /// The filesystem context a PAM login session would give this user:
    /// credentials from the database, smask 007 when the File Permission
    /// Handler is deployed. `Err` for a uid the database does not know.
    pub fn user_fs_ctx(&self, user: Uid) -> Result<FsCtx, UserDbError> {
        self.fs_ctx(&self.db.read(), user)
    }

    /// [`Self::user_fs_ctx`] judged under a db guard the caller holds.
    fn fs_ctx(&self, db: &UserDb, user: Uid) -> Result<FsCtx, UserDbError> {
        let ctx = FsCtx::user(db.credentials(user)?);
        Ok(if self.config.fsperm {
            ctx.with_smask(LLSC_SMASK)
        } else {
            ctx
        })
    }

    /// As whom an `fs_*` call runs, failing closed: an unknown uid is
    /// refused `op` on `path`.
    fn fs_at(&self, db: &UserDb, user: Uid, op: &'static str, path: &str) -> FsResult<FsCtx> {
        self.fs_ctx(db, user)
            .map_err(|_| FsError::PermissionDenied {
                op,
                path: path.to_string(),
            })
    }

    /// Credentials straight from the account database.
    pub fn credentials(&self, user: Uid) -> Credentials {
        self.db.read().credentials(user).expect("known user")
    }

    /// Write a file as `user` on `node`.
    pub fn fs_write(
        &mut self,
        user: Uid,
        node: NodeId,
        path: &str,
        mode: Mode,
        data: &[u8],
    ) -> FsResult<()> {
        let ctx = self.fs_at(&self.db.read(), user, "write", path)?;
        let local = self.nodes.get_mut(&node).map(|n| &mut n.local_fs);
        let (fs, p) = mounted(path, &mut self.shared_home, &mut self.shared_proj, local)?;
        fs.write_file(&ctx, p, mode, data)
    }

    /// Read a file as `user` on `node`.
    pub fn fs_read(&self, user: Uid, node: NodeId, path: &str) -> FsResult<Vec<u8>> {
        let ctx = self.fs_at(&self.db.read(), user, "read", path)?;
        let local = self.nodes.get(&node).map(|n| &n.local_fs);
        let (fs, p) = mounted(path, &self.shared_home, &self.shared_proj, local)?;
        fs.read(&ctx, p)
    }

    /// chmod as `user` on `node` (smask-filtered when deployed).
    pub fn fs_chmod(&mut self, user: Uid, node: NodeId, path: &str, mode: Mode) -> FsResult<Mode> {
        let ctx = self.fs_at(&self.db.read(), user, "chmod", path)?;
        let local = self.nodes.get_mut(&node).map(|n| &mut n.local_fs);
        let (fs, p) = mounted(path, &mut self.shared_home, &mut self.shared_proj, local)?;
        fs.chmod(&ctx, p, mode)
    }

    /// setfacl as `user` on `node` (restriction-patch-filtered when deployed).
    /// The caller's credentials and the ACL's group check are judged under
    /// one db guard.
    pub fn fs_setfacl(
        &mut self,
        user: Uid,
        node: NodeId,
        path: &str,
        acl: eus_simos::PosixAcl,
    ) -> Result<(), FsError> {
        let db = self.db.read();
        let ctx = self.fs_at(&db, user, "setfacl", path)?;
        let local = self.nodes.get_mut(&node).map(|n| &mut n.local_fs);
        let (fs, p) = mounted(path, &mut self.shared_home, &mut self.shared_proj, local)?;
        fs.setfacl(&ctx, p, acl, &db)
    }

    // ------------------------------------------------------------------
    // Login / processes
    // ------------------------------------------------------------------

    /// ssh to a node through its PAM stack, refreshing the user's federated
    /// credentials first when the broker is deployed — the legitimate-client
    /// path (`ssh` fetches a fresh short-lived certificate at connect time).
    pub fn ssh(&mut self, user: Uid, node: NodeId) -> Result<SessionId, LoginError> {
        self.refresh_credentials(user);
        self.ssh_raw(user, node)
    }

    /// ssh without the transparent credential refresh: whatever certificate
    /// the broker currently holds for `user` is what PAM judges. Audit
    /// probes use this to model replaying stolen or expired material.
    pub fn ssh_raw(&mut self, user: Uid, node: NodeId) -> Result<SessionId, LoginError> {
        // The db guard is held across the PAM stack (borrowed, never
        // copied). Global lock order: user db -> broker (PamFedAuth) ->
        // scheduler (PamSlurm); lock_order_check enforces it stays acyclic.
        let db = self.db.read();
        self.nodes
            .get_mut(&node)
            .ok_or(LoginError::NoSuchNode(node))?
            .login(&db, user, "sshd")
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    /// Submit a job arriving at the scheduler's current time — the
    /// legitimate-client path: the user's federated credentials refresh
    /// transparently first (like [`ssh`](Self::ssh)), so long traces never
    /// trip over token expiry. Panics only for users the broker cannot
    /// authenticate at all.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        self.refresh_credentials(spec.user);
        self.try_submit(spec).expect("known user refreshes cleanly")
    }

    /// Submit a job arriving at `at`, with the same transparent refresh.
    pub fn submit_at(&mut self, at: SimTime, spec: JobSpec) -> JobId {
        self.refresh_credentials(spec.user);
        self.try_submit_at(at, spec)
            .expect("known user refreshes cleanly")
    }

    /// Submit through the federated gate with *no* refresh: whatever token
    /// the broker currently holds for the user is what `sbatch` presents.
    /// With the broker deployed, an expired/revoked/absent credential is
    /// refused — the path audit probes use to model stolen-uid submissions.
    pub fn try_submit(&mut self, spec: JobSpec) -> Result<JobId, eus_fedauth::CredError> {
        let now = self.sched.read().now();
        self.try_submit_traced(now, spec, false)
    }

    /// [`try_submit`](Self::try_submit) for a job arriving at `at`: the
    /// token must also still be inside its window at the arrival instant.
    pub fn try_submit_at(
        &mut self,
        at: SimTime,
        spec: JobSpec,
    ) -> Result<JobId, eus_fedauth::CredError> {
        self.try_submit_traced(at, spec, true)
    }

    /// The shared gate + submit path, minting the `core.submit.try` trace
    /// root. The context chains through the broker's `cred.validate.submit`
    /// point span and is left with the scheduler, which stitches the
    /// eventual `sched.job.dispatch` onto it. All of it is a handful of
    /// never-taken branches when tracing is off.
    fn try_submit_traced(
        &mut self,
        at: SimTime,
        spec: JobSpec,
        arrival_at: bool,
    ) -> Result<JobId, eus_fedauth::CredError> {
        let tok = self.obs.trace.root("core.submit.try", at);
        let mut ctx = tok.ctx();
        if let Some(b) = &self.broker {
            let guard = b.read();
            let r = if arrival_at {
                guard.authorize_submit_at(spec.user, at)
            } else {
                guard.authorize_submit(spec.user)
            };
            if guard.trace.enabled() {
                ctx = guard
                    .trace
                    .hit(ctx, "cred.validate.submit", at, spec.user.0 as u64);
            }
            if let Err(e) = r {
                drop(guard);
                self.obs.trace.finish(tok, at);
                return Err(e);
            }
        }
        let mut sched = self.sched.write();
        let id = if arrival_at {
            sched.submit_at(at, spec)
        } else {
            sched.submit(spec)
        };
        sched.note_submit_trace(id, ctx);
        drop(sched);
        self.obs.trace.finish_with(tok, at, id.0);
        Ok(id)
    }

    /// Transparent credential refresh for a known user (no-op without the
    /// broker; unknown users fall through to the gate's denial).
    fn refresh_credentials(&mut self, user: Uid) {
        if let Some(b) = &self.broker {
            // Global lock order: user db before broker (see create_user);
            // the lock_order_check cfg enforces acyclicity at runtime.
            let db = self.db.read();
            // analyze:allow(lock-discipline): db -> broker is the documented global order
            let _ = b.write().ensure_session(&db, user);
        }
    }

    /// Advance the scheduler clock and reconcile OS state (spawn processes
    /// and assign GPUs for newly started jobs; run epilogs for ended ones).
    pub fn advance_to(&mut self, t: SimTime) {
        self.sched.write().run_until(t);
        self.sync_credential_clocks(t);
        self.reconcile();
        self.observe_boundary(t);
    }

    /// Run everything to completion and reconcile.
    pub fn run_to_completion(&mut self) -> SimTime {
        let end = self.sched.write().run_to_completion();
        self.sync_credential_clocks(end);
        self.reconcile();
        self.observe_boundary(end);
        end
    }

    /// The credential plane runs on the same simulated clock as the
    /// scheduler: expiry is a property of *when*, not of polling. Every
    /// plane on the revocation mesh — the home broker and each registered
    /// sister realm — ticks on that clock, and the mesh then pumps every
    /// feed/anti-entropy exchange due up to the new instant — this is the
    /// tick-driven feed pump.
    fn sync_credential_clocks(&mut self, t: SimTime) {
        if let Some(mesh) = &mut self.revsync {
            for plane in mesh.realms().filter_map(|realm| mesh.plane(realm)) {
                plane.write().advance_to(t);
            }
            // Injected clock skew (chaos): a skewed realm's plane runs
            // *ahead* of the federation clock by the configured offset, so
            // its sessions expire and sweep early relative to everyone else.
            // Applied after the uniform advance; plane clocks are monotone,
            // so this only ever moves forward.
            for (&realm, &skew) in &self.clock_skew {
                if let Some(plane) = mesh.plane(realm) {
                    plane.write().advance_to(t + skew);
                }
            }
            mesh.pump(t);
        }
        self.portal.auth.advance_to(t);
    }

    // ------------------------------------------------------------------
    // Federation (multi-realm trust)
    // ------------------------------------------------------------------

    /// Register a sister realm's credential plane: it joins the revocation
    /// mesh and ticks on the cluster's clock from then on. Whether the home
    /// site *accepts* that realm's credentials is governed solely by
    /// [`trust`](Self::trust) (`config.trusted_realms` and
    /// [`grant_trust`](Self::grant_trust)) — registration alone grants
    /// nothing (fail closed). The sister's clock is advanced to
    /// the cluster's current simulated time (the federation clock, whatever
    /// skew is injected on the home plane), so the whole federation ticks
    /// together from the moment it joins; if the realm is trusted, the home
    /// site also bootstraps a local CRL replica and subscribes to the
    /// realm's revocation feed (`eus-revsync`).
    pub fn register_sister_realm(&mut self, realm: RealmId, plane: SharedBroker) {
        assert_ne!(
            realm, HOME_REALM,
            "the home realm's plane is installed at construction and cannot be replaced"
        );
        let mesh = self
            .revsync
            .as_mut()
            .expect("federation requires config.federated_auth");
        // The federation clock — what `advance_to` syncs every plane to —
        // not the home plane's own: under an injected home skew that one
        // runs ahead, and a newcomer pushed to it could never come back
        // (plane clocks are monotone).
        let now = self.sched.read().now();
        plane.write().advance_to(now);
        match mesh.plane(realm) {
            Some(existing) => assert!(
                std::sync::Arc::ptr_eq(existing, &plane),
                "swapping {realm}'s plane for a different one is not supported: the \
                 mesh registers a realm once, and a CRL replica tracks the original \
                 plane's delta log (rotate trust with the same plane, or use a fresh \
                 realm id)"
            ),
            None => mesh.add_realm(realm, plane),
        }
        self.subscribe_if_trusted(realm, now);
    }

    /// Trust `realm`'s credentials at the home site: permanently (`until`
    /// is `None`) or strictly before `until`, after which validation fails
    /// closed with `CredError::TrustExpired` (a later `until` is the
    /// rotation path). A time-box never shortens permanent trust. When the
    /// realm is already registered and the home site holds no replica of
    /// it yet, the site subscribes to its revocation feed, so its tokens
    /// validate from now on instead of failing closed `UnknownRealm`.
    // analyze:allow(dead-pub): the operator's trust grant for a sister realm, permanent or time-boxed
    pub fn grant_trust(&mut self, realm: RealmId, until: Option<SimTime>) {
        match until {
            Some(expires_at) => {
                // Rotation extends, it never shortens by accident (the same
                // invariant `TrustPolicy::trust` keeps in the other
                // direction).
                let already_permanent = self.trust.trusted_realms().any(|r| r == realm)
                    && self.trust.trust_expires_at(realm).is_none();
                if !already_permanent {
                    self.trust.trust_until(realm, expires_at);
                }
            }
            None => self.trust.trust(realm),
        }
        let now = self.sched.read().now();
        self.subscribe_if_trusted(realm, now);
    }

    /// Trusted sisters (config allow-list or a grant) get a local CRL
    /// replica once registered; untrusted registrations are refused at the
    /// trust gate before any replica would be consulted, so none exists. A
    /// realm that already has one keeps it: its log frontier is still
    /// valid, since it replicates the same plane.
    fn subscribe_if_trusted(&mut self, realm: RealmId, now: SimTime) {
        let trusted = self.trust.trusted_realms().any(|r| r == realm);
        let Some(mesh) = self.revsync.as_mut() else {
            return;
        };
        if trusted
            && realm != HOME_REALM
            && mesh.plane(realm).is_some()
            && mesh.replica(HOME_REALM, realm).is_none()
        {
            mesh.pump(now);
            mesh.subscribe(HOME_REALM, realm);
        }
    }

    /// The home site's realm allow-list, read-only.
    // analyze:allow(dead-pub): the operator's view of which realms the home site trusts, and until when
    pub fn trust(&self) -> &TrustPolicy {
        &self.trust
    }

    /// Log `user` in at `plane` (the home broker or a sister realm's)
    /// against this cluster's account db, holding the db read guard for
    /// this call only (lock order: user db → broker). Don't call it while
    /// holding `db.write()` or any broker guard.
    pub fn login_at(
        &self,
        plane: &SharedBroker,
        user: Uid,
    ) -> Result<SignedToken, eus_fedauth::CredError> {
        let db = self.db.read();
        // analyze:allow(lock-discipline): db -> broker is the documented global order
        plane.write().login(&db, user, None)
    }

    /// Validate a bearer token presented at the home site under the
    /// federation trust policy: home-realm tokens against the local plane,
    /// allow-listed sister realms against the home site's **local CRL
    /// replica** (signature via the issuer's exported verifier, revocation
    /// via the replicated list — no synchronous issuer query), everything
    /// else refused. Bounded staleness: a replica lagging past the mesh's
    /// `max_lag` fails closed with `CredError::StaleReplica`. Without the
    /// credential plane (`config.federated_auth` off) every token fails
    /// closed with `UnknownRealm(HOME_REALM)` — there is no plane to
    /// consult, not a registration bug.
    ///
    /// Route once, hold the fewest guards: a home token is judged on the
    /// home plane under exactly one guard, its read guard (the home realm
    /// always passes its own trust gate); a sister token takes none: the trust
    /// gate reads the home plane's published clock and hands that same
    /// instant to the replica.
    // analyze:hot-path-begin(federated-validate)
    pub fn validate_federated_token(
        &self,
        token: &SignedToken,
    ) -> Result<Uid, eus_fedauth::CredError> {
        let unknown = eus_fedauth::CredError::UnknownRealm(HOME_REALM);
        let (Some(broker), Some(mesh)) = (&self.broker, &self.revsync) else {
            return Err(unknown);
        };
        if token.realm == HOME_REALM {
            return broker.read().validate_token(token);
        }
        // Trust policy first (untrusted / expired realms never reach the
        // replica), then the replica-backed hot path.
        let now = mesh.now_at(HOME_REALM).ok_or(unknown)?;
        self.trust.gate(token.realm, now)?;
        mesh.validate_token_at(HOME_REALM, token, now)
    }
    // analyze:hot-path-end

    /// How stale the home site's CRL replica of `realm` currently is
    /// (`None` when no replica exists: untrusted, unregistered, or the
    /// credential plane is off), judged at the home plane's clock.
    /// Capacity planners, the dependency-health ladder and the benchmark
    /// read this; validation itself enforces the mesh's `max_lag` against
    /// the same number.
    pub fn replica_lag(&self, realm: RealmId) -> Option<SimDuration> {
        let mesh = self.revsync.as_ref()?;
        mesh.replica_lag(HOME_REALM, realm, mesh.now_at(HOME_REALM)?)
    }

    /// Sever or restore the revocation feed from a sister realm (site
    /// outage / WAN partition). While severed the replica's lag grows;
    /// past the mesh's `max_lag` cross-realm validation fails closed.
    pub fn partition_sister_feed(&mut self, realm: RealmId, down: bool) {
        if let Some(mesh) = &mut self.revsync {
            mesh.set_partitioned(realm, HOME_REALM, down);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & degraded modes
    // ------------------------------------------------------------------

    /// Take the home realm's identity provider down (or back up). While
    /// down, *new* logins and assertions fail with
    /// [`CredError`](eus_fedauth::CredError)`::Unavailable`; already-minted
    /// tokens keep validating against local state. No-op without the
    /// credential plane.
    // analyze:allow(dead-pub): operator fault drill: IdP outage (the chaos plane's `IdpOutage`)
    pub fn set_idp_available(&mut self, up: bool) {
        if let Some(b) = &self.broker {
            b.write().set_idp_available(up);
        }
    }

    /// Is the home realm's identity provider reachable? (`true` without
    /// the credential plane: there is nothing to be down.)
    // analyze:allow(dead-pub): the operator's read of the IdP outage switch
    pub fn idp_available(&self) -> bool {
        self.broker
            .as_ref()
            .is_none_or(|b| b.read().idp_available())
    }

    /// Take the home realm's certificate authority down (or back up).
    /// While down, credential *minting* (SSH certs, token issuance) fails
    /// `Unavailable`; verification is local and keeps working.
    // analyze:allow(dead-pub): operator fault drill: CA outage (the chaos plane's `CaOutage`)
    pub fn set_ca_available(&mut self, up: bool) {
        if let Some(b) = &self.broker {
            b.write().set_ca_available(up);
        }
    }

    /// Stall (or unstall) the revocation push feed from a sister realm
    /// *silently*: pushes are swallowed without an error at the issuer, so
    /// no retry fires — only the subscriber's silence detector
    /// (`feed.silent`) and anti-entropy notice. The nastier cousin of
    /// [`partition_sister_feed`](Self::partition_sister_feed), whose
    /// failures are detected and retried.
    // analyze:allow(dead-pub): operator fault drill: a silently stalled revocation feed (the chaos plane's `FeedStall`)
    pub fn stall_sister_feed(&mut self, realm: RealmId, stalled: bool) {
        if let Some(mesh) = &mut self.revsync {
            mesh.set_feed_stalled(realm, HOME_REALM, stalled);
        }
    }

    /// Skew one realm's credential-plane clock `ahead` of the federation
    /// clock (chaos: a site whose NTP drifted). Applied at every clock
    /// sync; `SimDuration::ZERO` clears the skew. Forward-only: plane
    /// clocks are monotone, so reducing the skew never rewinds — the
    /// skewed plane just waits for the cluster clock to catch up.
    // analyze:allow(dead-pub): operator fault drill: a realm whose clock drifted (the chaos plane's `ClockSkew`)
    pub fn set_realm_clock_skew(&mut self, realm: RealmId, ahead: SimDuration) {
        if ahead.is_zero() {
            self.clock_skew.remove(&realm);
        } else {
            self.clock_skew.insert(realm, ahead);
        }
    }

    /// Compact every issuer's revocation delta log down to what its
    /// slowest subscriber still needs (see
    /// [`RevSyncMesh::compact_logs`](eus_revsync::RevSyncMesh::compact_logs)).
    /// Returns total entries dropped; 0 without the credential plane.
    // analyze:allow(dead-pub): the operator hook that bounds revocation logs
    pub fn compact_revocation_logs(&mut self) -> u64 {
        self.revsync.as_mut().map_or(0, |m| m.compact_logs())
    }

    /// Current health of one dependency, as of the last cycle boundary
    /// (see [`DepHealth`] for the ladder semantics).
    pub fn dependency_health(&self, dep: Dependency) -> DepHealth {
        match dep {
            Dependency::Idp => self.health_idp,
            Dependency::Ca => self.health_ca,
            Dependency::Feed => self.health_feed,
        }
    }

    /// Is any dependency below [`DepHealth::Healthy`] right now? (The
    /// boundary sample behind the `cluster.dependency.degraded` SLO.)
    pub fn degraded(&self) -> bool {
        !(self.health_idp.is_healthy()
            && self.health_ca.is_healthy()
            && self.health_feed.is_healthy())
    }

    /// Re-judge every dependency's [`DepHealth`] ladder at a cycle
    /// boundary. Runs with or without observability — experiments and the
    /// chaos harness read [`dependency_health`](Self::dependency_health)
    /// on quiet clusters too — but gauge updates and transition events
    /// only land while the recorder is on.
    fn update_dependency_health(&mut self, t: SimTime) {
        let budget = self.max_lag();
        let (idp_up, ca_up) = match &self.broker {
            Some(b) => {
                let g = b.read();
                (g.idp_available(), g.ca_available())
            }
            None => (true, true),
        };
        let next_idp = Self::step_outage(self.health_idp, idp_up, t, budget);
        let next_ca = Self::step_outage(self.health_ca, ca_up, t, budget);
        // Feed health follows the worst replica's lag: past half the
        // staleness budget (the same line the `revsync.replica.lag` SLO
        // aims at) the feed is degraded; past the full budget, validation
        // is already refusing, so the ladder says fail-closed.
        let next_feed = match self.worst_sister_lag() {
            None => DepHealth::Healthy,
            Some(lag) if lag > budget => DepHealth::FailClosed,
            Some(lag) if lag > budget / 2 => match self.health_feed {
                held @ DepHealth::Degraded { .. } => held,
                _ => DepHealth::Degraded { since: t },
            },
            Some(_) => DepHealth::Healthy,
        };
        self.note_health(Dependency::Idp, next_idp, t);
        self.note_health(Dependency::Ca, next_ca, t);
        self.note_health(Dependency::Feed, next_feed, t);
    }

    /// The staleness of the home site's most stale sister-realm replica
    /// (`None` with no mesh, or no sister subscribed to), judged at the
    /// home plane's clock — the instant validation judges it at, so under
    /// a home clock skew the ladder and the SLO see the lag that is
    /// refusing tokens.
    fn worst_sister_lag(&self) -> Option<SimDuration> {
        let mesh = self.revsync.as_ref()?;
        let now = mesh.now_at(HOME_REALM)?;
        mesh.realms()
            .filter_map(|realm| mesh.replica_lag(HOME_REALM, realm, now))
            .max()
    }

    /// The cross-realm staleness budget: the mesh's `max_lag`, or the
    /// default one where there is no mesh (it still aims the
    /// `revsync.replica.lag` SLO and bounds the IdP/CA outage ladders).
    fn max_lag(&self) -> SimDuration {
        self.revsync
            .as_ref()
            .map_or(RevSyncConfig::default().max_lag, |m| m.config().max_lag)
    }

    /// One step of the outage ladder for a binary up/down dependency:
    /// down marks `Degraded{since}`, staying down past the staleness
    /// budget exhausts the borrowed state (`FailClosed`), and heal snaps
    /// straight back to `Healthy`.
    fn step_outage(cur: DepHealth, up: bool, t: SimTime, budget: SimDuration) -> DepHealth {
        if up {
            return DepHealth::Healthy;
        }
        match cur {
            DepHealth::Healthy => DepHealth::Degraded { since: t },
            DepHealth::Degraded { since } if t.since(since) > budget => DepHealth::FailClosed,
            held => held,
        }
    }

    /// Commit one dependency's new health: update the state, set the
    /// `core.health.*` gauge, and flight-record the transition edge as a
    /// `core.health` event `(dependency, to, from)`.
    fn note_health(&mut self, dep: Dependency, next: DepHealth, t: SimTime) {
        let prev = self.dependency_health(dep);
        match dep {
            Dependency::Idp => self.health_idp = next,
            Dependency::Ca => self.health_ca = next,
            Dependency::Feed => self.health_feed = next,
        }
        if !self.obs.rec.enabled() {
            return;
        }
        let g = match dep {
            Dependency::Idp => self.obs.g_health_idp,
            Dependency::Ca => self.obs.g_health_ca,
            Dependency::Feed => self.obs.g_health_feed,
        };
        self.obs.rec.gauge_set(g, next.gauge());
        if next.gauge() != prev.gauge() {
            self.obs.rec.event(
                t,
                "core.health",
                dep as u64,
                next.gauge() as u64,
                prev.gauge() as u64,
            );
        }
    }

    /// The portal's administrative revoke route: revoke one credential
    /// serial at its issuing realm, minting the `portal.route.revoke`
    /// trace root that follows the revocation across the WAN — issuer log
    /// entry, push delta, replica apply, and any later fail-closed deny all
    /// chain onto this context. Returns whether the serial was freshly
    /// revoked (false: already revoked, or a realm that is neither home
    /// nor one the home site subscribes to).
    // analyze:allow(dead-pub): the portal's revoke action, root of the cross-plane revoke trace
    pub fn portal_revoke_serial(&mut self, realm: RealmId, serial: CredSerial) -> bool {
        // The portal ticks on the federation clock (`advance_to` syncs it).
        let now = self.sched.read().now();
        self.portal.obs.rec.incr(self.portal.obs.c_revokes);
        let tok = self.portal.obs.trace.root("portal.route.revoke", now);
        let fresh = match &mut self.revsync {
            Some(mesh) if realm == HOME_REALM || mesh.replica(HOME_REALM, realm).is_some() => {
                mesh.revoke_serial_traced(realm, serial, tok.ctx(), now)
            }
            _ => false,
        };
        self.portal.obs.trace.finish_with(tok, now, serial.0);
        fresh
    }

    /// Gather every completed span of one trace across all plane rings
    /// (core, portal, scheduler, broker, revsync), ordered parents-first.
    // analyze:allow(dead-pub): the operator's cross-plane trace of one request (ROADMAP item 4's "why denied" report reads it)
    pub fn collect_trace(&self, trace: u64) -> Vec<crate::obs::TraceSpan> {
        let mut rings: Vec<Vec<crate::obs::TraceSpan>> = vec![
            self.obs.trace.spans_for(trace),
            self.portal.obs.trace.spans_for(trace),
            self.sched.read().obs.trace.spans_for(trace),
        ];
        if let Some(b) = &self.broker {
            rings.push(b.read().trace.spans_for(trace));
        }
        if let Some(mesh) = &self.revsync {
            rings.push(mesh.obs.trace.spans_for(trace));
            // The planes of the sisters the home site subscribes to carry
            // their own cred rings (the issuer-side `cred.revoke.serial`
            // hit lives there). The home broker was gathered above.
            for realm in mesh.realms() {
                if let (Some(plane), Some(_)) = (mesh.plane(realm), mesh.replica(HOME_REALM, realm))
                {
                    rings.push(plane.read().trace.spans_for(trace));
                }
            }
        }
        crate::obs::assemble_trace(trace, &rings)
    }

    /// The tree view of one cross-plane trace (see
    /// [`collect_trace`](Self::collect_trace)).
    // analyze:allow(dead-pub): the operator's tree view of one cross-plane trace (ROADMAP item 4)
    pub fn render_trace(&self, trace: u64) -> String {
        crate::obs::render_trace(trace, &self.collect_trace(trace))
    }

    /// Push every plane's ring dumps into the `EUS_FLIGHT_DUMP` panic sink
    /// (no-op unless the env hook is armed): the trace rings, the core
    /// alert log, and the core and scheduler flight recorders (the
    /// latter holds the `job.submit` / `job.start` / `job.end` trail).
    /// Called at every cycle boundary while observability is on, so a
    /// panicking test or experiment leaves its full flight state on disk.
    pub fn publish_flight_dumps(&self) {
        use crate::obs::panicdump;
        if !panicdump::armed() {
            return;
        }
        panicdump::publish("core.trace", self.obs.trace.dump_json());
        panicdump::publish("core.alerts", self.obs.slo.alerts().dump_json());
        panicdump::publish("core.flight", self.obs.rec.flight.dump_json());
        panicdump::publish("portal.trace", self.portal.obs.trace.dump_json());
        {
            let sched = self.sched.read();
            panicdump::publish("sched.trace", sched.obs.trace.dump_json());
            panicdump::publish("sched.flight", sched.obs.rec.flight.dump_json());
        }
        if let Some(b) = &self.broker {
            panicdump::publish("cred.trace", b.read().trace.dump_json());
        }
        if let Some(mesh) = &self.revsync {
            panicdump::publish("revsync.trace", mesh.obs.trace.dump_json());
        }
    }

    /// Boundary observation pass, run after every reconcile: sample the
    /// flow-table gauge and tracked time-series, feed the SLO rings from
    /// monotone counter deltas, evaluate every objective (two-window
    /// burn-rate), flight-record fired/cleared alerts, and refresh the
    /// panic-dump sink when armed. The dependency-health ladders are
    /// re-judged here too — with or without observability, since quiet
    /// experiments read them; the *recording* half is skipped while
    /// observability is off.
    fn observe_boundary(&mut self, t: SimTime) {
        self.update_dependency_health(t);
        if self.obs.rec.enabled() {
            let flows = self.fabric.flows_tracked() as i64;
            self.obs.rec.gauge_set(self.obs.g_flows, flows);
        }
        if self.obs.slo.enabled() {
            // cred.validate.latency: mean broker validate ns this boundary.
            if let Some(b) = &self.broker {
                let (calls, ns) = {
                    let b = b.read();
                    (b.stats.calls(), b.stats.total_ns())
                };
                let dc = calls.saturating_sub(self.prev_validate_calls);
                let dns = ns.saturating_sub(self.prev_validate_ns);
                self.prev_validate_calls = calls;
                self.prev_validate_ns = ns;
                if dc > 0 {
                    self.obs
                        .slo
                        .record(self.obs.slo_validate, t, dns as f64 / dc as f64);
                }
            }
            // revsync.replica.lag: the worst replica's staleness, in µs.
            if let Some(lag) = self.worst_sister_lag() {
                self.obs
                    .slo
                    .record(self.obs.slo_replica_lag, t, lag.as_micros() as f64);
            }
            // sched.interactive.wait: mean queue wait of interactive-QoS
            // starts this boundary, in µs.
            {
                let sched = self.sched.read();
                let wait_us = sched.obs.rec.counter_value(sched.obs.c_interactive_wait_us);
                let n = sched.obs.rec.counter_value(sched.obs.c_interactive_waits);
                drop(sched);
                let dn = n.saturating_sub(self.prev_iwaits);
                let dw = wait_us.saturating_sub(self.prev_iwait_us);
                self.prev_iwaits = n;
                self.prev_iwait_us = wait_us;
                if dn > 0 {
                    self.obs
                        .slo
                        .record(self.obs.slo_interactive_wait, t, dw as f64 / dn as f64);
                }
            }
            // cluster.dependency.degraded: binary boundary sample — 1.0
            // whenever any dependency ladder is below Healthy.
            self.obs.slo.record(
                self.obs.slo_dep_degraded,
                t,
                if self.degraded() { 1.0 } else { 0.0 },
            );
            for a in self.obs.slo.evaluate(t) {
                self.obs.rec.event(
                    t,
                    "core.slo.alert",
                    matches!(a.kind, crate::obs::AlertKind::Fire) as u64,
                    a.value_short as u64,
                    a.target as u64,
                );
            }
        }
        if self.obs.rec.enabled() {
            self.publish_flight_dumps();
        }
    }

    fn reconcile(&mut self) {
        let sweep_tok = self.obs.rec.span_start();
        // Epilog work FIRST: a leaving (or preempted) tenant's cleanup must
        // land before any new tenant's prolog touches the same node — the
        // ordering the preemption path's separation guarantee rests on. A
        // job preempted and restarted since the last reconcile leaves the
        // ledger before the scan below, so it runs fresh processes.
        let (now, epilogs) = {
            let mut sched = self.sched.write();
            (sched.now(), sched.drain_epilogs())
        };
        for e in epilogs {
            self.obs.rec.incr(self.obs.c_epilogs);
            self.obs
                .rec
                .event(now, "core.epilog", e.job.0, e.node.0 as u64, e.gpus as u64);
            self.depart(e.node, e.user, e.job);
            if !e.user_still_active_on_node {
                self.evict(e.node, e.user, e.gpus > 0);
            }
        }

        // Snapshot what we need from the scheduler, then drop the guard.
        struct Started {
            job: JobId,
            user: Uid,
            cmdline: Vec<String>,
            environ: BTreeMap<String, String>,
            started: SimTime,
            allocs: Vec<(NodeId, u32 /*gpus*/)>,
        }
        let started: Vec<Started> = {
            let sched = self.sched.read();
            sched
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running && !self.tenancy.admitted.contains(&j.id))
                .map(|j| Started {
                    job: j.id,
                    user: j.spec.user,
                    cmdline: if j.spec.cmdline.is_empty() {
                        vec![j.spec.name.clone()]
                    } else {
                        j.spec.cmdline.clone()
                    },
                    environ: j.spec.environ.clone(),
                    started: j.started.expect("running"),
                    allocs: j.allocations.iter().map(|(n, a)| (*n, a.gpus)).collect(),
                })
                .collect()
        };

        // Prolog work: processes + GPU assignment.
        for s in started {
            self.obs.rec.incr(self.obs.c_prologs);
            self.obs.rec.event(
                now,
                "core.prolog",
                s.job.0,
                s.allocs.len() as u64,
                s.allocs.iter().map(|(_, g)| *g as u64).sum(),
            );
            let cred = self.credentials(s.user);
            self.tenancy.admitted.insert(s.job);
            for (nid, gpu_count) in &s.allocs {
                let node = self.nodes.get_mut(nid).expect("allocated node exists");
                let pid = node.procs.spawn_with_env(
                    cred.clone(),
                    s.cmdline.clone(),
                    s.environ.clone(),
                    None,
                    s.started,
                );
                let tenant = self.tenancy.tenants.entry((*nid, s.user)).or_default();
                tenant.jobs.insert(s.job, pid);
                tenant.gpus |= *gpu_count > 0;
                if *gpu_count > 0 && self.config.gpu_dev_perms {
                    self.gpus
                        .assign(
                            *nid,
                            *gpu_count as u16,
                            s.user,
                            cred.gid,
                            &mut node.local_fs,
                        )
                        .expect("device files exist");
                    self.obs.rec.incr(self.obs.c_gpu_assigns);
                }
            }
        }
        self.obs.rec.incr(self.obs.c_reconciles);
        self.obs.rec.span_end(self.obs.sp_reconcile, sweep_tok);
    }

    /// One epilog: `job` leaves `node`. Its process there dies, its portal
    /// routes go, and so do the web apps it launched there.
    fn depart(&mut self, node: NodeId, uid: Uid, job: JobId) {
        self.portal.routes.remove_job(job);
        self.tenancy.admitted.remove(&job);
        let Some(t) = self.tenancy.tenants.get_mut(&(node, uid)) else {
            return;
        };
        if let (Some(pid), Some(os)) = (t.jobs.remove(&job), self.nodes.get_mut(&node)) {
            os.procs.remove(pid);
        }
        for (_, endpoint) in t.apps.extract_if(.., |(j, _)| *j == job) {
            self.apps.stop(&mut self.fabric, endpoint);
        }
    }

    /// The tenant's last epilog on `node` (`pam_slurm_adopt`-style): drain
    /// every [`Residue`] class, even if the ledger never admitted the tenant
    /// (a job can start and end inside one `advance_to`).
    fn evict(&mut self, node: NodeId, uid: Uid, job_gpus: bool) {
        let held = self
            .tenancy
            .tenants
            .remove(&(node, uid))
            .is_some_and(|t| t.gpus);
        let os = self.nodes.get_mut(&node).expect("known node");
        let mut released = Vec::new();
        for class in Residue::all() {
            match class {
                Residue::Procs => _ = os.procs.kill_all_of(uid),
                Residue::Flows => _ = self.fabric.close_flows_of(node, uid),
                Residue::Sockets => {
                    if let Some(host) = self.fabric.host_mut(node) {
                        host.sockets.close_all_of(uid);
                    }
                }
                Residue::AbstractSockets => _ = os.abstract_sockets.cleanup_user(uid),
                Residue::DeviceGrants if self.config.gpu_dev_perms => {
                    released = self
                        .gpus
                        .release_user(node, uid, &mut os.local_fs)
                        .expect("device files exist");
                }
                Residue::GpuMemory if self.config.gpu_scrub && (job_gpus || held) => {
                    // Managed device permissions name the tenant's devices,
                    // so a co-tenant's stay untouched. Without them nothing
                    // records which device a tenant touched: scrub them all.
                    let perms = self.config.gpu_dev_perms;
                    let mine = |i: &u16| !perms || released.contains(&DeviceId::gpu(*i));
                    for idx in (0..self.spec.gpus_per_node).filter(mine) {
                        if let Some(gpu) = self.gpus.get_mut(node, idx) {
                            gpu.scrub();
                            self.obs.rec.incr(self.obs.c_gpu_scrubs);
                        }
                    }
                }
                Residue::DeviceGrants | Residue::GpuMemory => {}
                Residue::WebApps => {
                    for endpoint in self.apps.endpoints_of(node, uid) {
                        self.apps.stop(&mut self.fabric, endpoint);
                    }
                }
            }
        }
        debug_assert!(
            self.residue_of(node, uid)
                .iter()
                .all(|r| r.closed_by().is_some_and(|m| !self.config.has(m))),
            "{uid} left {:?} on {node}",
            self.residue_of(node, uid)
        );
    }

    /// What `uid` leaves on `node`, read from the node's actual state — the
    /// proc table, connections and sockets, abstract sockets, device
    /// assignments, GPU memory and the web-app registry — never from the
    /// ledger. Empty after the tenant's last epilog, except for a class
    /// whose [`Residue::closed_by`] mechanism is off.
    pub fn residue_of(&self, node: NodeId, uid: Uid) -> Vec<Residue> {
        let os = self.nodes.get(&node);
        let gpus = self.gpus.on_node(node);
        // A dirty device counts unless a remaining tenant may own it: its
        // assignee, or — without managed device permissions, where no
        // device names a tenant — anyone else still running on the node.
        let cotenant = !self.config.gpu_dev_perms
            && os.is_some_and(|n| n.procs.iter().any(|p| p.uid() != uid));
        Residue::all()
            .into_iter()
            .filter(|class| match class {
                Residue::Procs => os.is_some_and(|n| n.procs.count_for(uid) > 0),
                Residue::Flows => self.fabric.flows_of(node, uid).next().is_some(),
                Residue::Sockets => self
                    .fabric
                    .host(node)
                    .is_some_and(|h| h.sockets.listeners().any(|(_, _, s)| s.owner.uid == uid)),
                Residue::AbstractSockets => {
                    os.is_some_and(|n| n.abstract_sockets.list().iter().any(|s| s.owner == uid))
                }
                Residue::DeviceGrants => gpus.iter().any(|g| g.assigned_to == Some(uid)),
                Residue::GpuMemory => {
                    !cotenant
                        && gpus
                            .iter()
                            .any(|g| g.is_dirty() && g.assigned_to.is_none_or(|u| u == uid))
                }
                Residue::WebApps => !self.apps.endpoints_of(node, uid).is_empty(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// The credentials an endpoint of `user`'s runs under: the login
    /// credentials, or those after `newgrp` to a group the user belongs to.
    fn endpoint_cred(&self, user: Uid, newgrp: Option<Gid>) -> Result<Credentials, ConnectError> {
        let db = self.db.read();
        let cred = db
            .credentials(user)
            .map_err(|_| ConnectError::NoSuchUser(user))?;
        match newgrp {
            Some(group) => db
                .newgrp(&cred, group)
                .map_err(|_| ConnectError::NewgrpRefused { user, group }),
            None => Ok(cred),
        }
    }

    /// Bind a listener as `user` on a node, optionally after `newgrp` to a
    /// project group (the UBF opt-in).
    pub fn listen(
        &mut self,
        user: Uid,
        node: NodeId,
        proto: Proto,
        port: Port,
        newgrp: Option<Gid>,
    ) -> Result<(), ConnectError> {
        let cred = self.endpoint_cred(user, newgrp)?;
        self.fabric
            .listen(node, proto, port, PeerInfo::from_cred(&cred))
    }

    /// Connect as `user` from one node to an endpoint.
    pub fn connect(
        &mut self,
        user: Uid,
        from: NodeId,
        to: SocketAddr,
        proto: Proto,
    ) -> Result<(ConnId, SimDuration), ConnectError> {
        let peer = PeerInfo::from_cred(&self.endpoint_cred(user, None)?);
        self.fabric.connect(from, peer, to, proto)
    }

    // ------------------------------------------------------------------
    // Portal / web apps
    // ------------------------------------------------------------------

    /// Launch a web app for a user's job on a compute node and register its
    /// portal route. Returns the route key.
    #[allow(clippy::too_many_arguments)] // mirrors the launch command line
    pub fn launch_webapp(
        &mut self,
        user: Uid,
        job: JobId,
        name: &str,
        node: NodeId,
        port: Port,
        content: &str,
        newgrp: Option<Gid>,
    ) -> Result<RouteKey, ConnectError> {
        let cred = self.endpoint_cred(user, newgrp)?;
        let endpoint = self
            .apps
            .launch(&mut self.fabric, node, &cred, port, content)?;
        let tenant = self.tenancy.tenants.entry((node, user)).or_default();
        tenant.apps.push((job, endpoint));
        let key = RouteKey {
            user,
            job,
            name: name.to_string(),
        };
        self.portal.routes.register(eus_portal::Route {
            key: key.clone(),
            target: endpoint,
            listener: PeerInfo::from_cred(&cred),
        });
        Ok(key)
    }

    /// Authenticate a user to the portal. Like every login entry point,
    /// this borrows the account database under its read guard (global lock
    /// order: user db -> broker) — a login's cost must not grow with the
    /// number of other accounts.
    pub fn portal_login(&mut self, user: Uid) -> Result<eus_portal::Token, eus_portal::AuthError> {
        let db = self.db.read();
        self.portal.auth.login(&db, user)
    }

    /// [`portal_login`](Self::portal_login) with a one-time code for
    /// MFA-enrolled users.
    pub fn portal_login_mfa(
        &mut self,
        user: Uid,
        mfa: Option<eus_fedauth::MfaCode>,
    ) -> Result<eus_portal::Token, eus_portal::AuthError> {
        let db = self.db.read();
        self.portal.auth.login_mfa(&db, user, mfa)
    }

    /// The portal's `enroll_mfa` route: bind a second factor for the
    /// session's user; enforced from the next login on. Returns the secret
    /// plus single-use recovery codes (both shown once). Rebinding an
    /// existing factor requires the current code (`mfa`) as step-up.
    pub fn portal_enroll_mfa(
        &mut self,
        token: eus_portal::Token,
        mfa: Option<eus_fedauth::MfaCode>,
    ) -> Result<eus_fedauth::MfaEnrollment, eus_portal::PortalError> {
        self.portal.enroll_mfa(token, mfa)
    }

    /// [`portal_login_mfa`](Self::portal_login_mfa) with a single-use
    /// recovery code in place of the window code — the lost-authenticator
    /// path; the code is burned on success.
    // analyze:allow(dead-pub): lost-authenticator MFA recovery, a user-facing login path
    pub fn portal_login_recovery(
        &mut self,
        user: Uid,
        code: eus_fedauth::RecoveryCode,
    ) -> Result<eus_portal::Token, eus_portal::AuthError> {
        let db = self.db.read();
        self.portal.auth.login_recovery(&db, user, code)
    }

    /// The portal's `unenroll_mfa` route: remove the session user's second
    /// factor. Step-up-gated like rebinding — the current code must be
    /// presented — and remaining recovery codes are voided.
    // analyze:allow(dead-pub): step-up-gated MFA removal, a user-facing account action
    pub fn portal_unenroll_mfa(
        &mut self,
        token: eus_portal::Token,
        mfa: Option<eus_fedauth::MfaCode>,
    ) -> Result<(), eus_portal::PortalError> {
        self.portal.unenroll_mfa(token, mfa)
    }

    /// Fetch a route through the portal.
    pub fn portal_fetch(
        &mut self,
        token: eus_portal::Token,
        key: &RouteKey,
    ) -> Result<eus_portal::Response, eus_portal::PortalError> {
        self.portal.fetch(&mut self.fabric, &self.apps, token, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_sched::JobSpec;

    fn llsc_tiny() -> SecureCluster {
        SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny())
    }

    /// A gauge's value as an operator reads it: from a snapshot.
    /// The mesh's cadences and staleness budget.
    fn revsync_cfg(c: &SecureCluster) -> RevSyncConfig {
        *c.revsync.as_ref().unwrap().config()
    }

    fn gauge(c: &SecureCluster, name: &str) -> i64 {
        let snap = c.obs.rec.snapshot();
        snap.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    #[test]
    fn construction_shapes() {
        let c = llsc_tiny();
        assert_eq!(c.compute_ids.len(), 2);
        assert_eq!(c.login_ids.len(), 1);
        assert_eq!(c.gpus.on_node(c.compute_ids[0]).len(), 1);
        assert!(!c.ubf_stats.is_empty());
        assert_eq!(c.login_node(), NodeId(3));
    }

    #[test]
    fn add_user_builds_paper_home_layout() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let login = c.login_node();
        // Alice can work in her home.
        c.fs_write(alice, login, "/home/alice/notes", Mode::new(0o600), b"hi")
            .unwrap();
        assert_eq!(c.fs_read(alice, login, "/home/alice/notes").unwrap(), b"hi");
        // But cannot chmod the top level (root owns it).
        let err = c
            .fs_chmod(alice, login, "/home/alice", Mode::new(0o777))
            .unwrap_err();
        assert!(matches!(err, FsError::PermissionDenied { .. }));
        // And a stranger cannot enter.
        let bob = c.add_user("bob").unwrap();
        assert!(c.fs_read(bob, login, "/home/alice/notes").is_err());
    }

    /// What each `fs_*` entry point must refuse without panicking: a uid
    /// the account db never issued (`PermissionDenied` naming the op) and
    /// a node the cluster does not have (`NotFound`). Returns a known user,
    /// the login node and an unknown node.
    fn fs_unknowns() -> (SecureCluster, Uid, NodeId, NodeId) {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let login = c.login_node();
        (c, alice, login, NodeId(999))
    }

    const STRANGER: Uid = Uid(4242);
    const F: &str = "/home/alice/f";

    fn denied(op: &'static str) -> FsError {
        FsError::PermissionDenied { op, path: F.into() }
    }

    #[test]
    fn fs_write_refuses_unknown_uids_and_nodes() {
        let (mut c, alice, login, ghost) = fs_unknowns();
        let mut write = |u, n| c.fs_write(u, n, F, Mode::new(0o600), b"x");
        assert_eq!(write(STRANGER, login), Err(denied("write")));
        assert_eq!(write(alice, ghost), Err(FsError::NotFound(F.into())));
        assert_eq!(write(alice, login), Ok(()));
    }

    #[test]
    fn fs_read_refuses_unknown_uids_and_nodes() {
        let (mut c, alice, login, ghost) = fs_unknowns();
        c.fs_write(alice, login, F, Mode::new(0o600), b"x").unwrap();
        assert_eq!(c.fs_read(STRANGER, login, F), Err(denied("read")));
        assert_eq!(c.fs_read(alice, ghost, F), Err(FsError::NotFound(F.into())));
        assert_eq!(c.fs_read(alice, login, F), Ok(b"x".to_vec()));
    }

    #[test]
    fn fs_chmod_refuses_unknown_uids_and_nodes() {
        let (mut c, alice, login, ghost) = fs_unknowns();
        c.fs_write(alice, login, F, Mode::new(0o600), b"x").unwrap();
        let mut chmod = |u, n| c.fs_chmod(u, n, F, Mode::new(0o640));
        assert_eq!(chmod(STRANGER, login), Err(denied("chmod")));
        assert_eq!(chmod(alice, ghost), Err(FsError::NotFound(F.into())));
        assert!(chmod(alice, login).is_ok());
    }

    #[test]
    fn fs_setfacl_refuses_unknown_uids_and_nodes() {
        let (mut c, alice, login, ghost) = fs_unknowns();
        c.fs_write(alice, login, F, Mode::new(0o600), b"x").unwrap();
        let acl = || eus_simos::PosixAcl::new(eus_simos::Perm::NONE);
        assert_eq!(
            c.fs_setfacl(STRANGER, login, F, acl()),
            Err(denied("setfacl"))
        );
        assert_eq!(
            c.fs_setfacl(alice, ghost, F, acl()),
            Err(FsError::NotFound(F.into()))
        );
        assert_eq!(c.fs_setfacl(alice, login, F, acl()), Ok(()));
    }

    #[test]
    fn project_dir_shares_via_setgid() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let bob = c.add_user("bob").unwrap();
        let proj = c.create_project("fusion", alice).unwrap();
        c.add_project_member(alice, proj, bob).unwrap();
        let login = c.login_node();
        c.fs_write(
            alice,
            login,
            "/proj/fusion/data",
            Mode::new(0o660),
            b"shared",
        )
        .unwrap();
        // File inherited the project group via setgid, so bob reads it.
        assert_eq!(
            c.fs_read(bob, login, "/proj/fusion/data").unwrap(),
            b"shared"
        );
        // An outsider cannot.
        let eve = c.add_user("eve").unwrap();
        assert!(c.fs_read(eve, login, "/proj/fusion/data").is_err());
    }

    #[test]
    fn job_lifecycle_materializes_processes_and_gpus() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let spec = JobSpec::new(alice, "train", SimDuration::from_secs(100))
            .with_gpus_per_task(1)
            .with_cmdline(["python", "train.py"]);
        c.submit(spec);
        c.advance_to(SimTime::from_secs(1));

        // Process exists on the allocated node.
        let node = c.compute_ids[0];
        assert_eq!(c.node(node).procs.count_for(alice), 1);
        // GPU assigned to alice.
        let gpu = c.gpus.get(node, 0).unwrap();
        assert_eq!(gpu.assigned_to, Some(alice));

        // After completion: process gone, GPU released + scrubbed.
        c.run_to_completion();
        assert_eq!(c.node(node).procs.count_for(alice), 0);
        assert_eq!(c.gpus.get(node, 0).unwrap().assigned_to, None);
    }

    #[test]
    fn enable_obs_lights_up_every_plane_without_changing_outcomes() {
        let run = |obs: bool| {
            let mut c = llsc_tiny();
            if obs {
                c.enable_obs(ObsConfig::enabled());
            }
            let alice = c.add_user("alice").unwrap();
            let spec = JobSpec::new(alice, "train", SimDuration::from_secs(100))
                .with_gpus_per_task(1)
                .with_cmdline(["python", "train.py"]);
            c.submit(spec);
            // Mid-run advance so the running job's prolog materializes
            // before the completion sweep runs its epilog.
            c.advance_to(SimTime::from_secs(1));
            let end = c.run_to_completion();
            (c, end)
        };
        let (quiet, end_quiet) = run(false);
        let (loud, end_loud) = run(true);

        // Same simulation either way: obs is pure measurement.
        assert_eq!(end_quiet, end_loud);
        assert_eq!(
            quiet.sched.read().metrics.completed.get(),
            loud.sched.read().metrics.completed.get()
        );
        // The quiet cluster recorded nothing.
        assert_eq!(quiet.obs.rec.counter_value(quiet.obs.c_reconciles), 0);
        // The loud one saw the sweep, the prolog, the epilog, and GPU work.
        assert!(loud.obs.rec.counter_value(loud.obs.c_reconciles) >= 1);
        assert!(loud.obs.rec.counter_value(loud.obs.c_prologs) >= 1);
        assert!(loud.obs.rec.counter_value(loud.obs.c_epilogs) >= 1);
        assert!(loud.obs.rec.counter_value(loud.obs.c_gpu_assigns) >= 1);
        assert!(loud.obs.rec.counter_value(loud.obs.c_gpu_scrubs) >= 1);
        assert!(loud.obs.rec.span_stats(loud.obs.sp_reconcile).count >= 1);
        let kinds: Vec<&str> = loud
            .obs
            .rec
            .flight
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&"core.prolog"));
        assert!(kinds.contains(&"core.epilog"));
        // The scheduler plane lit up through the same switch.
        let sched = loud.sched.read();
        assert!(sched.obs.rec.counter_value(sched.obs.c_starts) >= 1);
        // And the broker's atomic validate stats are recording.
        let broker = loud.broker.as_ref().expect("llsc has fedauth").read();
        assert!(
            broker.stats.begin().is_some(),
            "a validation would be timed"
        );
    }

    #[test]
    fn portal_revoke_traces_across_the_wan_to_the_fail_closed_deny() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        c.enable_obs(ObsConfig::enabled());
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0x7ACE,
            BrokerPolicy::default(),
        ));
        // Sister trace ring on too, so `cred.revoke.serial` lands.
        sister.read().trace.set_enabled(true);
        c.register_sister_realm(RealmId(2), sister.clone());
        let token = c.login_at(&sister, alice).unwrap();
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);

        // Operator clicks revoke at the portal.
        assert!(c.portal_revoke_serial(RealmId(2), token.serial));
        let t = revsync_cfg(&c).feed_interval + SimDuration::from_secs(1);
        c.advance_to(SimTime::ZERO + t);
        assert_eq!(
            c.validate_federated_token(&token),
            Err(eus_fedauth::CredError::Revoked(token.serial))
        );

        // One trace covers the whole causal chain, across four planes.
        let root = c
            .portal
            .obs
            .trace
            .spans()
            .into_iter()
            .find(|s| s.name == "portal.route.revoke")
            .expect("portal minted the revoke root");
        let spans = c.collect_trace(root.trace);
        crate::obs::check_well_formed(&spans).expect("well-formed tree");
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for expect in [
            "portal.route.revoke",
            "cred.revoke.serial",
            "revsync.mesh.push",
            "revsync.replica.apply",
            "revsync.replica.deny",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        let tree = c.render_trace(root.trace);
        assert!(tree.contains("revsync.replica.deny"), "tree:\n{tree}");
    }

    #[test]
    fn forced_replica_lag_fires_exactly_the_lag_slo() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        c.enable_obs(ObsConfig::enabled());
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0x510,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister);

        // Clean baseline: pump a while with the feed healthy — no alerts.
        for s in 1..=6 {
            c.advance_to(SimTime::from_secs(s * 10));
        }
        assert_eq!(
            c.obs.slo.alerts().fired(),
            0,
            "clean baseline must be quiet"
        );

        // Sever the feed; lag grows past the re-aimed max_lag/2 target.
        c.partition_sister_feed(RealmId(2), true);
        let budget = revsync_cfg(&c).max_lag;
        let mut t = SimTime::from_secs(60);
        while t < SimTime::ZERO + budget {
            t += SimDuration::from_secs(10);
            c.advance_to(t);
        }
        let fired: Vec<&str> = c
            .obs
            .slo
            .alerts()
            .entries()
            .iter()
            .filter(|a| a.kind == crate::obs::AlertKind::Fire)
            .map(|a| a.slo)
            .collect();
        // Exactly the two objectives this fault implicates: the lag SLO
        // (the injected staleness) and the dependency-degraded SLO (the
        // feed's health ladder left Healthy) — nothing else.
        assert_eq!(
            fired,
            vec!["revsync.replica.lag", "cluster.dependency.degraded"],
            "exactly the lag + dependency SLOs"
        );
        // The alert is also a flight event.
        assert!(c
            .obs
            .rec
            .flight
            .events()
            .iter()
            .any(|e| e.kind == "core.slo.alert"));
        // Healing clears it (edge-triggered Clear) once the short window
        // holds only healthy samples again.
        c.partition_sister_feed(RealmId(2), false);
        for _ in 0..6 {
            t += SimDuration::from_secs(10);
            c.advance_to(t);
        }
        for slo in ["revsync.replica.lag", "cluster.dependency.degraded"] {
            assert!(
                c.obs
                    .slo
                    .alerts()
                    .entries()
                    .iter()
                    .any(|a| a.slo == slo && a.kind == crate::obs::AlertKind::Clear),
                "{slo} must clear after heal"
            );
        }
    }

    #[test]
    fn ssh_gated_by_pam_slurm_on_compute_only() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let compute = c.compute_ids[0];
        let login = c.login_node();
        // No job: compute denied, login fine.
        assert!(c.ssh(alice, compute).is_err());
        assert!(c.ssh(alice, login).is_ok());
        // With a running job on that node: allowed.
        c.submit(JobSpec::new(alice, "j", SimDuration::from_secs(100)));
        c.advance_to(SimTime::from_secs(1));
        assert!(c.ssh(alice, compute).is_ok());
    }

    #[test]
    fn ssh_to_an_unknown_node_is_a_typed_error_not_a_panic() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let ghost = NodeId(u32::MAX);
        assert!(!c.nodes.contains_key(&ghost));
        assert_eq!(c.ssh(alice, ghost), Err(LoginError::NoSuchNode(ghost)));
        assert_eq!(c.ssh_raw(alice, ghost), Err(LoginError::NoSuchNode(ghost)));
        // The cluster is still usable afterwards (no guard left behind).
        assert!(c.ssh(alice, c.login_node()).is_ok());
        c.add_user("bob").unwrap();
    }

    #[test]
    fn ubf_enforced_between_nodes() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let bob = c.add_user("bob").unwrap();
        let n1 = c.compute_ids[0];
        let n2 = c.compute_ids[1];
        c.listen(alice, n2, Proto::Tcp, 8888, None).unwrap();
        assert!(c
            .connect(alice, n1, SocketAddr::new(n2, 8888), Proto::Tcp)
            .is_ok());
        assert!(matches!(
            c.connect(bob, n1, SocketAddr::new(n2, 8888), Proto::Tcp)
                .unwrap_err(),
            ConnectError::DeniedByDaemon { .. }
        ));
    }

    #[test]
    fn long_traces_submit_past_token_expiry_via_transparent_refresh() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        // A day passes — far beyond the 12h token TTL and 1h cert TTL.
        c.advance_to(SimTime::from_secs(24 * 3600));
        // The legitimate path refreshes and submits; the raw gate refuses.
        assert!(c
            .try_submit(JobSpec::new(alice, "stale", SimDuration::from_secs(5)))
            .is_err());
        let job = c.submit(JobSpec::new(alice, "fresh", SimDuration::from_secs(5)));
        let t = c.sched.read().now() + SimDuration::from_secs(1);
        c.advance_to(t);
        assert!(c.sched.read().jobs.contains_key(&job));
        // A future-dated arrival beyond the fresh token's window is refused
        // even through the raw gate at submit time.
        let horizon = SimTime::from_secs(48 * 3600);
        assert!(c
            .try_submit_at(
                horizon,
                JobSpec::new(alice, "later", SimDuration::from_secs(5))
            )
            .is_err());
    }

    #[test]
    fn trusted_sister_realm_validates_at_home_untrusted_fails_closed() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();

        // Two sister sites mint credentials for the colliding uid: one is
        // allow-listed, one is not.
        let trusted = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xAAA,
            BrokerPolicy::default(),
        ));
        let untrusted = shared_broker(CredentialBroker::new(
            RealmId(3),
            0xBBB,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), trusted.clone());
        c.register_sister_realm(RealmId(3), untrusted.clone());

        let t2 = c.login_at(&trusted, alice).unwrap();
        let t3 = c.login_at(&untrusted, alice).unwrap();
        assert_eq!(c.validate_federated_token(&t2).unwrap(), alice);
        assert!(matches!(
            c.validate_federated_token(&t3),
            Err(eus_fedauth::CredError::UntrustedRealm { .. })
        ));
        // The home broker's own tokens still validate, and the direct
        // (non-directory) path still refuses every foreign realm.
        let home = c.broker.clone().unwrap();
        let th = home.read().current_token(alice).unwrap();
        assert_eq!(c.validate_federated_token(&th).unwrap(), alice);
        assert!(home.read().validate_token(&t2).is_err());
    }

    #[test]
    fn late_joining_sister_realm_inherits_the_cluster_clock() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        c.advance_to(SimTime::from_secs(48 * 3600));

        // A sister broker still at t=0 joins: its clock must jump to the
        // federation's, so a token it minted in its own past cannot read as
        // live here.
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xCC,
            BrokerPolicy::default(),
        ));
        let stale = c.login_at(&sister, alice).unwrap();
        c.register_sister_realm(RealmId(2), sister.clone());
        assert_eq!(sister.read().now(), SimTime::from_secs(48 * 3600));
        assert!(
            matches!(
                c.validate_federated_token(&stale),
                Err(eus_fedauth::CredError::Expired { .. })
            ),
            "a token from the sister's pre-join past must be expired"
        );
        // Fresh sister logins on the synced clock validate normally.
        let fresh = c.login_at(&sister, alice).unwrap();
        assert_eq!(c.validate_federated_token(&fresh).unwrap(), alice);
    }

    #[test]
    fn sister_realm_joins_on_the_federation_clock_under_home_skew() {
        // Regression: registration read the *home plane's* clock, so under
        // an injected home skew the newcomer (and the mesh) were pushed a
        // minute into the future and — plane clocks being monotone — stayed
        // ahead of every other realm after the skew healed.
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        c.set_realm_clock_skew(HOME_REALM, SimDuration::from_secs(60));
        c.advance_to(SimTime::from_secs(100));
        let home = c.broker.clone().unwrap();
        assert_eq!(home.read().now(), SimTime::from_secs(160), "skew applied");

        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xC10C,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        assert_eq!(sister.read().now(), SimTime::from_secs(100));
        assert_eq!(
            c.revsync.as_ref().unwrap().now_at(RealmId(2)),
            Some(SimTime::from_secs(100))
        );

        // The feed keeps its cadence from the join instant: a revocation
        // made right away is home within one interval of *federation* time.
        let token = c.login_at(&sister, alice).unwrap();
        assert_eq!(token.issued, SimTime::from_secs(100));
        sister.write().revoke_serial(token.serial);
        c.advance_to(
            SimTime::from_secs(100) + revsync_cfg(&c).feed_interval + SimDuration::from_secs(1),
        );
        assert_eq!(
            c.validate_federated_token(&token),
            Err(eus_fedauth::CredError::Revoked(token.serial))
        );

        // Heal: once the federation clock passes the skewed one, every
        // realm reads the same instant again.
        c.set_realm_clock_skew(HOME_REALM, SimDuration::ZERO);
        c.advance_to(SimTime::from_secs(200));
        assert_eq!(home.read().now(), SimTime::from_secs(200));
        assert_eq!(sister.read().now(), SimTime::from_secs(200));
    }

    #[test]
    fn sister_revocation_propagates_within_the_staleness_budget() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE1,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        let token = c.login_at(&sister, alice).unwrap();
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);

        // Revoke at the issuer. The home replica has not heard yet, so the
        // token still validates — asynchronous propagation is explicit.
        sister.write().revoke_user(alice);
        assert_eq!(
            c.validate_federated_token(&token).unwrap(),
            alice,
            "revocation is not magic: it must travel"
        );
        // One feed interval (plus wire time) later the replica has the
        // delta and the token dies everywhere at this site.
        let t = revsync_cfg(&c).feed_interval + SimDuration::from_secs(1);
        c.advance_to(SimTime::ZERO + t);
        assert_eq!(
            c.validate_federated_token(&token),
            Err(eus_fedauth::CredError::Revoked(token.serial))
        );
        // Propagation happened well inside the staleness budget.
        let lag = c.replica_lag(RealmId(2)).unwrap();
        assert!(lag <= revsync_cfg(&c).max_lag, "{lag} over budget");
    }

    #[test]
    fn severed_feed_fails_closed_past_the_staleness_budget() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE2,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        c.partition_sister_feed(RealmId(2), true);

        // Fresh sister token, minted after the partition (their site is
        // fine; only the feed to us is down).
        let budget = revsync_cfg(&c).max_lag;
        c.advance_to(SimTime::ZERO + budget + SimDuration::from_secs(1));
        let token = c.login_at(&sister, alice).unwrap();
        assert!(
            matches!(
                c.validate_federated_token(&token),
                Err(eus_fedauth::CredError::StaleReplica {
                    realm: RealmId(2),
                    ..
                })
            ),
            "an unreachable sister degrades to fail-closed, never fail-open"
        );
        assert!(c.replica_lag(RealmId(2)).unwrap() > budget);

        // Healing the feed restores acceptance at the next exchange.
        c.partition_sister_feed(RealmId(2), false);
        let t = c.sched.read().now() + revsync_cfg(&c).feed_interval + SimDuration::from_secs(1);
        c.advance_to(t);
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);
    }

    #[test]
    fn time_boxed_sister_realm_expires_closed() {
        // No config allow-list at all: trust comes only from the
        // time-boxed grant.
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(7),
            0xFEE3,
            BrokerPolicy::default(),
        ));
        let horizon = SimTime::from_secs(3600);
        c.register_sister_realm(RealmId(7), sister.clone());
        c.grant_trust(RealmId(7), Some(horizon));
        let token = c.login_at(&sister, alice).unwrap();
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);

        // The collaboration window closes: fail closed with the precise
        // reason, not a generic refusal.
        c.advance_to(horizon);
        let fresh = c.login_at(&sister, alice).unwrap();
        assert_eq!(
            c.validate_federated_token(&fresh),
            Err(eus_fedauth::CredError::TrustExpired {
                realm: RealmId(7),
                expired_at: horizon,
            })
        );

        // Rotation: granting the same realm a later expiry extends the
        // collaboration in place — the existing replica and its log
        // frontier survive, no panic, no re-bootstrap.
        let horizon2 = horizon + SimDuration::from_secs(3600);
        c.grant_trust(RealmId(7), Some(horizon2));
        assert_eq!(c.validate_federated_token(&fresh).unwrap(), alice);
        // Revocations still propagate on the surviving replica.
        sister.write().revoke_serial(fresh.serial);
        let t = c.sched.read().now() + revsync_cfg(&c).feed_interval + SimDuration::from_secs(1);
        c.advance_to(t);
        assert_eq!(
            c.validate_federated_token(&fresh),
            Err(eus_fedauth::CredError::Revoked(fresh.serial))
        );
    }

    #[test]
    fn time_box_never_downgrades_permanent_config_trust() {
        // Realm 2 is permanently allow-listed in the config; a time-boxed
        // grant must not attach an expiry.
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE4,
            BrokerPolicy::default(),
        ));
        let horizon = SimTime::from_secs(60);
        c.register_sister_realm(RealmId(2), sister.clone());
        c.grant_trust(RealmId(2), Some(horizon));
        assert_eq!(
            c.trust.trust_expires_at(RealmId(2)),
            None,
            "permanent config trust survives a time-boxed grant"
        );
        // Well past the (ignored) horizon the realm still validates.
        c.advance_to(horizon + SimDuration::from_secs(3600));
        let token = c.login_at(&sister, alice).unwrap();
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);
    }

    #[test]
    fn portal_recovery_and_unenroll_round_trip() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let session = c.portal_login(alice).unwrap();
        let enrollment = c.portal_enroll_mfa(session, None).unwrap();
        // Locked out of the authenticator: burn a recovery code.
        assert!(c.portal_login(alice).is_err());
        let t2 = c
            .portal_login_recovery(alice, enrollment.recovery[0])
            .unwrap();
        assert_eq!(c.portal.auth.whoami(t2).unwrap(), alice);
        assert!(
            c.portal_login_recovery(alice, enrollment.recovery[0])
                .is_err(),
            "single use"
        );
        // Unenroll (step-up-gated), then single-factor login works again.
        let code = c
            .broker
            .as_ref()
            .unwrap()
            .read()
            .current_mfa_code(alice)
            .unwrap();
        assert!(c.portal_unenroll_mfa(t2, None).is_err());
        c.portal_unenroll_mfa(t2, Some(code)).unwrap();
        assert!(c.portal_login(alice).is_ok());
    }

    #[test]
    #[should_panic(expected = "home realm")]
    fn home_realm_plane_cannot_be_replaced() {
        let mut c = llsc_tiny();
        let rogue = shared_broker(CredentialBroker::new(
            RealmId(1),
            0xBAD,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(1), rogue);
    }

    #[test]
    fn baseline_cluster_is_permissive() {
        let mut c = SecureCluster::new(SeparationConfig::baseline(), ClusterSpec::tiny());
        let alice = c.add_user("alice").unwrap();
        let bob = c.add_user("bob").unwrap();
        let n1 = c.compute_ids[0];
        let n2 = c.compute_ids[1];
        // No UBF: cross-user connect succeeds.
        c.listen(alice, n2, Proto::Tcp, 8888, None).unwrap();
        assert!(c
            .connect(bob, n1, SocketAddr::new(n2, 8888), Proto::Tcp)
            .is_ok());
        // No pam_slurm: ssh anywhere.
        assert!(c.ssh(bob, n1).is_ok());
    }

    #[test]
    fn idp_outage_walks_the_health_ladder_and_heals() {
        let mut c = llsc_tiny();
        c.enable_obs(ObsConfig::enabled());
        let alice = c.add_user("alice").unwrap();
        let broker = c.broker.clone().unwrap();
        let token = c.login_at(&broker, alice).unwrap();
        assert!(c.idp_available());

        c.set_idp_available(false);
        // Graceful degradation: new logins refused Unavailable, the
        // already-minted token keeps validating against local state.
        assert_eq!(
            c.login_at(&broker, alice),
            Err(eus_fedauth::CredError::Unavailable)
        );
        assert_eq!(broker.read().validate_token(&token).unwrap(), alice);

        c.advance_to(SimTime::from_secs(10));
        assert!(matches!(
            c.dependency_health(Dependency::Idp),
            DepHealth::Degraded { .. }
        ));
        assert!(c.degraded());
        assert_eq!(gauge(&c, "core.health.idp"), 1);
        // The degraded SLO fires on the very boundary (1-bucket windows).
        assert!(
            !c.obs
                .slo
                .alerts()
                .for_slo("cluster.dependency.degraded")
                .is_empty(),
            "degraded boundary must raise the dependency SLO"
        );
        // The transition edge is on the flight ring: (dep, to, from).
        assert!(c
            .obs
            .rec
            .flight
            .events()
            .iter()
            .any(|e| e.kind == "core.health" && e.a == Dependency::Idp as u64 && e.b == 1));

        // Outage outlasting the staleness budget exhausts the borrowed
        // state: fail-closed.
        c.advance_to(SimTime::ZERO + revsync_cfg(&c).max_lag + SimDuration::from_secs(20));
        assert_eq!(c.dependency_health(Dependency::Idp), DepHealth::FailClosed);
        assert_eq!(gauge(&c, "core.health.idp"), 2);

        // Heal snaps straight back to Healthy and logins work again.
        c.set_idp_available(true);
        let t = c.sched.read().now() + SimDuration::from_secs(10);
        c.advance_to(t);
        assert_eq!(c.dependency_health(Dependency::Idp), DepHealth::Healthy);
        assert!(!c.degraded());
        assert!(c.login_at(&broker, alice).is_ok());
    }

    #[test]
    fn feed_lag_walks_the_ladder_to_fail_closed_and_back() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        c.enable_obs(ObsConfig::enabled());
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE7,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister);
        let budget = revsync_cfg(&c).max_lag;

        // Feeds flowing: healthy.
        c.advance_to(SimTime::from_secs(30));
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::Healthy);

        // Severed feed: lag climbs past half the budget (degraded), then
        // past the budget (fail-closed — validation is refusing by now).
        c.partition_sister_feed(RealmId(2), true);
        let t0 = c.sched.read().now();
        c.advance_to(t0 + budget / 2 + SimDuration::from_secs(60));
        assert!(matches!(
            c.dependency_health(Dependency::Feed),
            DepHealth::Degraded { .. }
        ));
        c.advance_to(t0 + budget + SimDuration::from_secs(60));
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::FailClosed);
        assert_eq!(gauge(&c, "core.health.feed"), 2);

        // Heal: the resubscribed feed catches the replica up within one
        // interval and the ladder snaps back.
        c.partition_sister_feed(RealmId(2), false);
        let t = c.sched.read().now() + revsync_cfg(&c).feed_interval + SimDuration::from_secs(1);
        c.advance_to(t);
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::Healthy);
        assert!(!c.degraded());
    }

    #[test]
    fn home_clock_skew_shows_on_the_feed_ladder_it_refuses_on() {
        // Validation judges a replica's lag at the home plane's clock; the
        // feed ladder must judge it there too, or a skewed home refuses
        // every sister token while the ladder reads Healthy.
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        c.enable_obs(ObsConfig::enabled());
        let alice = c.add_user("alice").unwrap();
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE9,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        c.advance_to(SimTime::from_secs(100));
        let token = c.login_at(&sister, alice).unwrap();
        c.set_realm_clock_skew(HOME_REALM, SimDuration::from_secs(2000));
        c.advance_to(SimTime::from_secs(200));

        // Fed at 190 s, judged at the home plane's 2200 s.
        let lag = SimDuration::from_secs(2010);
        assert_eq!(c.replica_lag(RealmId(2)), Some(lag));
        assert_eq!(
            c.validate_federated_token(&token),
            Err(eus_fedauth::CredError::StaleReplica {
                realm: RealmId(2),
                lag,
            })
        );
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::FailClosed);
        assert_eq!(gauge(&c, "core.health.feed"), 2);
        assert!(c.degraded());
    }

    #[test]
    fn clock_skew_runs_a_sister_plane_ahead_and_never_rewinds() {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFEE8,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());

        let hour = SimDuration::from_secs(3600);
        c.set_realm_clock_skew(RealmId(2), hour);
        c.advance_to(SimTime::from_secs(10));
        assert_eq!(sister.read().now(), SimTime::from_secs(10) + hour);

        // Clearing the skew stops the extra advance; the plane's clock is
        // monotone, so it holds its high-water mark until the cluster
        // catches up.
        c.set_realm_clock_skew(RealmId(2), SimDuration::ZERO);
        c.advance_to(SimTime::from_secs(20));
        assert_eq!(sister.read().now(), SimTime::from_secs(10) + hour);
    }

    #[test]
    fn idp_outage_refuses_portal_mfa_enrollment() {
        let mut c = llsc_tiny();
        let alice = c.add_user("alice").unwrap();
        let session = c.portal_login(alice).unwrap();
        c.set_idp_available(false);
        assert!(matches!(
            c.portal_enroll_mfa(session, None),
            Err(eus_portal::PortalError::Auth(
                eus_portal::AuthError::Federated(eus_fedauth::CredError::Unavailable)
            ))
        ));
        c.set_idp_available(true);
        assert!(c.portal_enroll_mfa(session, None).is_ok());
    }
}
