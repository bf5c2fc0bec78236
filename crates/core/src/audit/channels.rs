//! Cross-user channels and their probes.
//!
//! Each [`Channel`] is one way user A could observe or interfere with user B
//! on a shared HPC system, drawn from paper Secs. IV-A–IV-G and the residual
//! list in Sec. V. A probe stages the scenario on a fresh cluster with an
//! `attacker` and a `victim` account and reports whether the channel leaked.

use crate::cluster::{LoginError, SecureCluster};
use crate::config::Mechanism;
use eus_fedauth::{CredError, RealmId};
use eus_portal::PortalError;
use eus_sched::{JobId, JobSpec};
use eus_simcore::{SimDuration, SimTime};
use eus_simnet::{ConnectError, Proto, SocketAddr};
use eus_simos::{FsCtx, FsError, Mode, PosixAcl, Uid};
use std::fmt;

/// One potential cross-user channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Foreign processes visible in `/proc` listings (IV-A).
    ProcList,
    /// Foreign command lines readable — the CVE-2020-27746 shape (IV-A).
    ProcCmdline,
    /// Foreign jobs visible in `squeue` (IV-B).
    SchedQueue,
    /// Foreign accounting records in `sacct` (IV-B).
    SchedAccounting,
    /// ssh onto a node where only the victim computes (IV-B).
    SshForeignNode,
    /// Two users' tasks co-resident on one compute node (IV-B).
    NodeCohabitation,
    /// Data shared via world permission bits in `/tmp` (IV-C).
    FsWorldBit,
    /// Data shared via an ACL grant to an unrelated user (IV-C).
    FsAclGrant,
    /// Foreign *filenames* in world-writable directories (IV-C, residual).
    FsTmpFilename,
    /// Reading files inside another user's home (IV-C).
    FsHomeAccess,
    /// TCP connect to a foreign user's listener (IV-D).
    NetTcp,
    /// UDP flow to a foreign user's listener (IV-D).
    NetUdp,
    /// Abstract-namespace Unix socket connect (V, residual).
    AbstractSocket,
    /// RDMA queue pair set up over a TCP control channel (IV-D).
    RdmaTcpSetup,
    /// RDMA queue pair via the native connection manager (V, residual).
    RdmaNativeCm,
    /// Opening a GPU device file assigned to (or used by) the victim (IV-F).
    GpuDevAccess,
    /// Reading a previous job's data out of GPU memory (IV-F).
    GpuRemanence,
    /// Reaching another user's web app through the portal (IV-E).
    PortalCrossUser,
    /// Replaying a stolen bearer token after central revocation (companion
    /// paper: federated authentication).
    AuthTokenReplay,
    /// ssh with stolen key material after its short-lived certificate
    /// lapsed (companion paper).
    SshExpiredCert,
    /// Presenting a sister site's credential for a colliding uid (companion
    /// paper: realm binding).
    CrossRealmSpoof,
}

impl Channel {
    /// Every channel, in report order.
    pub fn all() -> &'static [Channel] {
        use Channel::*;
        &[
            ProcList,
            ProcCmdline,
            SchedQueue,
            SchedAccounting,
            SshForeignNode,
            NodeCohabitation,
            FsWorldBit,
            FsAclGrant,
            FsTmpFilename,
            FsHomeAccess,
            NetTcp,
            NetUdp,
            AbstractSocket,
            RdmaTcpSetup,
            RdmaNativeCm,
            GpuDevAccess,
            GpuRemanence,
            PortalCrossUser,
            AuthTokenReplay,
            SshExpiredCert,
            CrossRealmSpoof,
        ]
    }

    /// The paper section the channel comes from.
    pub fn section(&self) -> &'static str {
        use Channel::*;
        match self {
            ProcList | ProcCmdline => "IV-A",
            SchedQueue | SchedAccounting | SshForeignNode | NodeCohabitation => "IV-B",
            FsWorldBit | FsAclGrant | FsTmpFilename | FsHomeAccess => "IV-C",
            NetTcp | NetUdp | RdmaTcpSetup => "IV-D",
            PortalCrossUser => "IV-E",
            GpuDevAccess | GpuRemanence => "IV-F",
            AbstractSocket | RdmaNativeCm => "V",
            AuthTokenReplay | SshExpiredCert | CrossRealmSpoof => "FedAuth",
        }
    }

    /// The one mechanism that closes this channel — turning it off re-opens
    /// the channel and nothing else does — or `None` for a Sec. V residual
    /// that no mechanism closes.
    pub fn closed_by(&self) -> Option<Mechanism> {
        use Channel::*;
        Some(match self {
            ProcList | ProcCmdline => Mechanism::HidePid,
            SchedQueue | SchedAccounting => Mechanism::PrivateData,
            SshForeignNode => Mechanism::PamSlurm,
            NodeCohabitation => Mechanism::WholeNode,
            FsWorldBit | FsAclGrant | FsHomeAccess => Mechanism::Fsperm,
            NetTcp | NetUdp | RdmaTcpSetup => Mechanism::Ubf,
            GpuDevAccess => Mechanism::GpuDevPerms,
            GpuRemanence => Mechanism::GpuScrub,
            PortalCrossUser => Mechanism::PortalAuthz,
            AuthTokenReplay | SshExpiredCert | CrossRealmSpoof => Mechanism::FedAuth,
            FsTmpFilename | AbstractSocket | RdmaNativeCm => return None,
        })
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Probe result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The attacker learned or reached something of the victim's.
    Leaked(String),
    /// The mechanism held.
    Blocked(String),
}

impl Outcome {
    /// True for [`Outcome::Leaked`].
    pub fn is_leak(&self) -> bool {
        matches!(self, Outcome::Leaked(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Leaked(s) => write!(f, "LEAKED: {s}"),
            Outcome::Blocked(s) => write!(f, "blocked: {s}"),
        }
    }
}

/// Run one channel's probe on a fresh cluster.
pub fn probe(channel: Channel, c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    match channel {
        Channel::ProcList => probe_proc_list(c, attacker, victim),
        Channel::ProcCmdline => probe_proc_cmdline(c, attacker, victim),
        Channel::SchedQueue => probe_sched_queue(c, attacker, victim),
        Channel::SchedAccounting => probe_sched_accounting(c, attacker, victim),
        Channel::SshForeignNode => probe_ssh_foreign(c, attacker, victim),
        Channel::NodeCohabitation => probe_cohabitation(c, attacker, victim),
        Channel::FsWorldBit => probe_fs_world_bit(c, attacker, victim),
        Channel::FsAclGrant => probe_fs_acl(c, attacker, victim),
        Channel::FsTmpFilename => probe_fs_tmp_names(c, attacker, victim),
        Channel::FsHomeAccess => probe_fs_home(c, attacker, victim),
        Channel::NetTcp => probe_net(c, attacker, victim, Proto::Tcp, 9100),
        Channel::NetUdp => probe_net(c, attacker, victim, Proto::Udp, 9101),
        Channel::AbstractSocket => probe_abstract_socket(c, attacker, victim),
        Channel::RdmaTcpSetup => probe_rdma_tcp(c, attacker, victim),
        Channel::RdmaNativeCm => probe_rdma_native(c, attacker),
        Channel::GpuDevAccess => probe_gpu_dev(c, attacker, victim),
        Channel::GpuRemanence => probe_gpu_remanence(c, attacker, victim),
        Channel::PortalCrossUser => probe_portal(c, attacker, victim),
        Channel::AuthTokenReplay => probe_token_replay(c, attacker, victim),
        Channel::SshExpiredCert => probe_ssh_expired_cert(c, victim),
        Channel::CrossRealmSpoof => probe_cross_realm(c, victim),
    }
}

fn probe_proc_list(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    let v_sid = c.ssh(victim, login).expect("login nodes accept all");
    c.node_mut(login)
        .spawn(v_sid, ["python", "train.py"], SimTime::ZERO)
        .expect("session open");
    let a_cred = c.credentials(attacker);
    let foreign = c.node(login).procfs().foreign_visible_count(&a_cred);
    if foreign > 0 {
        Outcome::Leaked(format!("{foreign} foreign process(es) listed"))
    } else {
        Outcome::Blocked("hidepid=2 hides foreign processes".into())
    }
}

fn probe_proc_cmdline(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    let v_sid = c.ssh(victim, login).expect("login nodes accept all");
    let secret = "--x11-magic-cookie=SECRET123";
    c.node_mut(login)
        .spawn(v_sid, ["srun", secret], SimTime::ZERO)
        .expect("session open");
    let a_cred = c.credentials(attacker);
    let node = c.node(login);
    let procfs = node.procfs();
    // The attacker sweeps the pid space, as the CVE exploit would.
    for proc in node.procs.iter() {
        if let Ok(cmdline) = procfs.read_cmdline(&a_cred, proc.pid) {
            if cmdline.iter().any(|a| a.contains("SECRET123")) {
                return Outcome::Leaked("secret read from a foreign cmdline".into());
            }
        }
    }
    Outcome::Blocked("foreign cmdlines unreadable".into())
}

fn probe_sched_queue(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    c.submit(JobSpec::new(
        victim,
        "secret-sponsor-run",
        SimDuration::from_secs(100),
    ));
    c.advance_to(SimTime::from_secs(1));
    let a_cred = c.credentials(attacker);
    let foreign = c
        .sched
        .read()
        .squeue(&a_cred)
        .into_iter()
        .filter(|v| v.user == victim)
        .count();
    if foreign > 0 {
        Outcome::Leaked("foreign job (name, state, nodes) visible in squeue".into())
    } else {
        Outcome::Blocked("PrivateData hides foreign jobs".into())
    }
}

fn probe_sched_accounting(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    c.submit(JobSpec::new(
        victim,
        "billing-run",
        SimDuration::from_secs(10),
    ));
    c.run_to_completion();
    let a_cred = c.credentials(attacker);
    let foreign = c
        .sched
        .read()
        .sacct(&a_cred)
        .into_iter()
        .filter(|r| r.user == victim)
        .count();
    if foreign > 0 {
        Outcome::Leaked("foreign accounting records visible in sacct".into())
    } else {
        Outcome::Blocked("PrivateData hides foreign usage".into())
    }
}

fn probe_ssh_foreign(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    c.submit(JobSpec::new(
        victim,
        "long-run",
        SimDuration::from_secs(1000),
    ));
    c.advance_to(SimTime::from_secs(1));
    let node = {
        let sched = c.sched.read();
        sched
            .jobs
            .values()
            .find(|j| j.spec.user == victim)
            .and_then(|j| j.allocations.keys().next().copied())
            .expect("victim job scheduled")
    };
    match c.ssh(attacker, node) {
        Ok(_) => Outcome::Leaked(format!("attacker shelled into {node} beside the victim")),
        Err(e) => ssh_refused(
            Channel::SshForeignNode,
            &e,
            "pam_slurm: no job on that node",
        ),
    }
}

/// A refused ssh is `Blocked` only when the mechanism that closes `channel`
/// refused it. A refusal from anywhere else (an unknown node or user,
/// another gate) means the probe never reached the gate it tests: that
/// fails the probe loudly rather than reading as a block.
fn ssh_refused(channel: Channel, err: &LoginError, evidence: &str) -> Outcome {
    assert_eq!(
        err.mechanism(),
        channel.closed_by(),
        "{channel} probe: ssh refused by the wrong gate: {err}"
    );
    Outcome::Blocked(evidence.into())
}

fn probe_cohabitation(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    // Both users stream small jobs sized to half a node.
    let half = c.spec.cores_per_node / 2;
    for i in 0..6u64 {
        for &u in &[attacker, victim] {
            c.submit_at(
                SimTime::from_secs(i),
                JobSpec::new(u, "slice", SimDuration::from_secs(30))
                    .with_tasks(half)
                    .with_mem_per_task(64),
            );
        }
    }
    for t in 1..40u64 {
        c.advance_to(SimTime::from_secs(t));
        let sched = c.sched.read();
        for node in sched.nodes.values() {
            if node.users_present().len() >= 2 {
                return Outcome::Leaked(format!(
                    "users co-resident on {} (side channels, OOM blast radius)",
                    node.id
                ));
            }
        }
    }
    Outcome::Blocked("one user per node at all times".into())
}

fn probe_fs_world_bit(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    // The victim tries both paths the patch closes: world bits at create and
    // re-added via chmod.
    c.fs_write(victim, login, "/tmp/drop", Mode::new(0o644), b"payload")
        .expect("tmp is world-writable");
    let _ = c.fs_chmod(victim, login, "/tmp/drop", Mode::new(0o644));
    match c.fs_read(attacker, login, "/tmp/drop") {
        Ok(_) => Outcome::Leaked("world-readable file shared via /tmp".into()),
        Err(e) => {
            let blocked = dac_refused(
                Channel::FsWorldBit,
                &e,
                "smask strips world bits at create and chmod",
            );
            let mode = c
                .node(login)
                .local_fs
                .stat(&FsCtx::root(), "/tmp/drop")
                .expect("the victim just wrote it")
                .mode;
            assert!(
                !mode.any_world(),
                "{} probe: read refused although the file is {mode}",
                Channel::FsWorldBit
            );
            blocked
        }
    }
}

/// A refused file access is `Blocked` only on a DAC `PermissionDenied`; a
/// missing path or an unknown node or user means the probe never reached
/// the permission check, and fails loudly.
fn dac_refused(channel: Channel, err: &FsError, evidence: &str) -> Outcome {
    assert!(
        matches!(err, FsError::PermissionDenied { .. }),
        "{channel} probe: refused by something other than the permission check: {err}"
    );
    Outcome::Blocked(evidence.into())
}

fn probe_fs_acl(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    c.fs_write(victim, login, "/tmp/acl-share", Mode::new(0o600), b"direct")
        .expect("tmp writable");
    let acl = PosixAcl::new(eus_simos::Perm::NONE).with_user(attacker, eus_simos::Perm::R);
    match c.fs_setfacl(victim, login, "/tmp/acl-share", acl) {
        Err(e) => {
            assert!(
                matches!(e, FsError::AclRestricted(_)),
                "{} probe: grant refused by something other than the ACL patch: {e}",
                Channel::FsAclGrant
            );
            Outcome::Blocked("ACL grant to non-group-peer refused".into())
        }
        Ok(()) => match c.fs_read(attacker, login, "/tmp/acl-share") {
            Ok(_) => Outcome::Leaked("file shared via named-user ACL".into()),
            Err(e) => dac_refused(Channel::FsAclGrant, &e, "ACL set but read still denied"),
        },
    }
}

fn probe_fs_tmp_names(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    c.fs_write(
        victim,
        login,
        "/tmp/victim-grant-proposal-2026",
        Mode::new(0o600),
        b"",
    )
    .expect("tmp writable");
    let Ok(ctx) = c.user_fs_ctx(attacker) else {
        return Outcome::Blocked("attacker has no account".into());
    };
    let names = c
        .node(login)
        .local_fs
        .readdir(&ctx, "/tmp")
        .expect("tmp readable");
    if names.iter().any(|n| n.contains("victim-grant-proposal")) {
        Outcome::Leaked("foreign filename visible in /tmp".into())
    } else {
        Outcome::Blocked("filenames not disclosed".into())
    }
}

fn probe_fs_home(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    let victim_name = c.db.read().user(victim).expect("known").name.clone();
    let path = format!("/home/{victim_name}/results.csv");
    // 0644 under the victim's (default) umask — the accidental default.
    c.fs_write(victim, login, &path, Mode::new(0o644), b"rows")
        .expect("own home writable");
    match c.fs_read(attacker, login, &path) {
        Ok(_) => Outcome::Leaked("file read out of a foreign home directory".into()),
        Err(e) => dac_refused(
            Channel::FsHomeAccess,
            &e,
            "home unreachable (root-owned 0770, UPG)",
        ),
    }
}

fn probe_net(
    c: &mut SecureCluster,
    attacker: Uid,
    victim: Uid,
    proto: Proto,
    port: u16,
) -> Outcome {
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(victim, n2, proto, port, None).expect("port free");
    let channel = match proto {
        Proto::Tcp => Channel::NetTcp,
        Proto::Udp => Channel::NetUdp,
    };
    match c.connect(attacker, n1, SocketAddr::new(n2, port), proto) {
        Ok(_) => Outcome::Leaked(format!("{proto} connection to a foreign service")),
        Err(e) => ubf_refused(channel, &e, "UBF: not same user, no group opt-in"),
    }
}

/// A refused connect is `Blocked` only when the UBF daemon refused it; a
/// refusal from anywhere else (no listener, a firewall chain, a refused
/// `newgrp`) means the probe never reached the UBF, and fails loudly.
fn ubf_refused(channel: Channel, err: &ConnectError, evidence: &str) -> Outcome {
    assert!(
        matches!(err, ConnectError::DeniedByDaemon { handler, .. } if handler == "ubf-daemon"),
        "{channel} probe: connect refused by something other than the UBF: {err}"
    );
    Outcome::Blocked(evidence.into())
}

fn probe_abstract_socket(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let login = c.login_node();
    let v_cred = c.credentials(victim);
    let a_cred = c.credentials(attacker);
    c.node_mut(login)
        .abstract_sockets
        .bind(&v_cred, "victim-ipc")
        .expect("fresh namespace");
    match c
        .node(login)
        .abstract_sockets
        .connect(&a_cred, "victim-ipc")
    {
        Ok(owner) => Outcome::Leaked(format!(
            "connected to {owner}'s abstract socket (no DAC exists)"
        )),
        Err(_) => Outcome::Blocked("abstract namespace isolated".into()),
    }
}

fn probe_rdma_tcp(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    let rkey = c
        .fabric
        .rdma_register(n2, b"victim tensor".to_vec())
        .expect("host exists");
    c.listen(victim, n2, Proto::Tcp, 18515, None)
        .expect("port free");
    let a_peer = eus_simnet::PeerInfo::from_cred(&c.credentials(attacker));
    let qp = c
        .fabric
        .setup_qp_via_tcp(&c.db.read(), n1, a_peer, SocketAddr::new(n2, 18515));
    match qp {
        Ok(qp) => match c.fabric.rdma_read(&qp, rkey) {
            Ok(_) => Outcome::Leaked("QP established over TCP; remote memory read".into()),
            Err(_) => Outcome::Blocked("QP up but region gone".into()),
        },
        Err(e) => ubf_refused(
            Channel::RdmaTcpSetup,
            &e,
            "UBF blocked the TCP control channel",
        ),
    }
}

fn probe_rdma_native(c: &mut SecureCluster, attacker: Uid) -> Outcome {
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    let rkey = c
        .fabric
        .rdma_register(n2, b"victim tensor".to_vec())
        .expect("host exists");
    let a_peer = eus_simnet::PeerInfo::from_cred(&c.credentials(attacker));
    match c.fabric.setup_qp_native_cm(n1, a_peer, n2) {
        Ok(qp) => match c.fabric.rdma_read(&qp, rkey) {
            Ok(_) => Outcome::Leaked("native-CM QP bypassed the UBF; memory read".into()),
            Err(_) => Outcome::Blocked("region unavailable".into()),
        },
        Err(_) => Outcome::Blocked("native CM unavailable".into()),
    }
}

fn probe_gpu_dev(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    // Victim runs a GPU job; the attacker tries to open the device file.
    c.submit(JobSpec::new(victim, "train", SimDuration::from_secs(1000)).with_gpus_per_task(1));
    c.advance_to(SimTime::from_secs(1));
    let node = c.compute_ids[0];
    let ctx = c
        .user_fs_ctx(attacker)
        .unwrap_or_else(|e| panic!("{} probe: {e}", Channel::GpuDevAccess));
    match c
        .node(node)
        .local_fs
        .open_device(&ctx, "/dev/gpu0", eus_simos::Perm::RW)
    {
        Ok(_) => Outcome::Leaked("opened a GPU in use by another user".into()),
        Err(e) => dac_refused(
            Channel::GpuDevAccess,
            &e,
            "device group-owned by assignee's UPG",
        ),
    }
}

fn probe_gpu_remanence(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    // Victim's GPU job writes a secret into device memory.
    c.submit(JobSpec::new(victim, "train", SimDuration::from_secs(10)).with_gpus_per_task(1));
    c.advance_to(SimTime::from_secs(1));
    let node = c.compute_ids[0];
    c.gpus
        .get_mut(node, 0)
        .expect("gpu installed")
        .write(0, b"victim model weights")
        .expect("in bounds");
    // Job ends; epilog runs (scrub per config).
    c.run_to_completion();
    // Attacker's job lands on the same GPU.
    c.submit(JobSpec::new(attacker, "probe", SimDuration::from_secs(10)).with_gpus_per_task(1));
    let resume_at = c.sched.read().now() + SimDuration::from_secs(1);
    c.advance_to(resume_at);
    let residue = c
        .gpus
        .get(node, 0)
        .expect("gpu installed")
        .read(0, 20)
        .expect("in bounds");
    if residue == b"victim model weights" {
        Outcome::Leaked("previous job's data read from GPU memory".into())
    } else {
        Outcome::Blocked("epilog scrub cleared device memory".into())
    }
}

fn probe_portal(c: &mut SecureCluster, attacker: Uid, victim: Uid) -> Outcome {
    let node = c.compute_ids[0];
    let key = c
        .launch_webapp(
            victim,
            JobId(9999),
            "jupyter",
            node,
            8888,
            "victim notebook",
            None,
        )
        .expect("port free");
    let token = c.portal_login(attacker).expect("valid account");
    match c.portal_fetch(token, &key) {
        Ok(resp) => Outcome::Leaked(format!(
            "fetched foreign app page ({} bytes)",
            resp.body.len()
        )),
        Err(PortalError::Forbidden) => {
            Outcome::Blocked("portal authorization + user-identity forward".into())
        }
        Err(e) => panic!(
            "{} probe: fetch refused by something other than portal authorization: {e}",
            Channel::PortalCrossUser
        ),
    }
}

fn probe_token_replay(c: &mut SecureCluster, _attacker: Uid, victim: Uid) -> Outcome {
    // The victim's bearer token is exfiltrated; the theft is noticed and the
    // victim's credentials are revoked (or, without a revocation plane,
    // merely "the victim logs out and a month passes"). The attacker then
    // replays the stolen token.
    match &c.broker {
        Some(broker) => {
            let stolen = broker
                .read()
                .current_token(victim)
                .expect("users are provisioned at creation");
            broker.write().revoke_user(victim);
            match broker.read().validate_token(&stolen) {
                Ok(_) => Outcome::Leaked("revoked bearer token still accepted".into()),
                Err(CredError::Revoked(s)) if s == stolen.serial => {
                    Outcome::Blocked("central revocation: replayed token refused".into())
                }
                Err(e) => panic!(
                    "{} probe: replay refused by the wrong check: {e}",
                    Channel::AuthTokenReplay
                ),
            }
        }
        None => {
            let stolen = c.portal_login(victim).expect("valid account");
            // Long-lived sessions never lapse: 30 days later it still works.
            c.portal.auth.advance_to(SimTime::from_secs(30 * 24 * 3600));
            match c.portal.auth.whoami(stolen) {
                Ok(_) => Outcome::Leaked(
                    "stolen bearer token still valid 30 days later (no expiry, no revocation)"
                        .into(),
                ),
                Err(_) => Outcome::Blocked("token lapsed".into()),
            }
        }
    }
}

fn probe_ssh_expired_cert(c: &mut SecureCluster, victim: Uid) -> Outcome {
    // The attacker stole the victim's ssh private key some time ago. With
    // federated auth the key is only as good as its short-lived certificate;
    // without it, authorized_keys entries work forever.
    let login = c.login_node();
    match &c.broker {
        Some(broker) => {
            let expiry = broker
                .read()
                .current_cert(victim)
                .expect("users are provisioned at creation")
                .expires;
            broker.write().advance_to(expiry);
            // Replay: the account check judges the stale certificate as-is
            // (no transparent refresh — the attacker cannot re-authenticate).
            match c.ssh_raw(victim, login) {
                Ok(_) => Outcome::Leaked("expired certificate accepted for ssh".into()),
                Err(e) => ssh_refused(
                    Channel::SshExpiredCert,
                    &e,
                    "pam_fedauth: certificate outside validity window",
                ),
            }
        }
        None => match c.ssh_raw(victim, login) {
            Ok(_) => Outcome::Leaked("stolen long-lived ssh key grants access indefinitely".into()),
            Err(e) => ssh_refused(Channel::SshExpiredCert, &e, "login refused"),
        },
    }
}

fn probe_cross_realm(c: &mut SecureCluster, victim: Uid) -> Outcome {
    const FOREIGN: RealmId = RealmId(99);
    // Federation means other sites also issue credentials; uid numbers
    // collide across sites. The attacker controls an account at a sister
    // site whose uid equals the victim's and presents that site's credential
    // here.
    match &c.broker {
        Some(broker) => {
            let mut foreign = eus_fedauth::CredentialBroker::new(
                FOREIGN,
                0x0BAD_5EED,
                eus_fedauth::BrokerPolicy::default(),
            );
            let forged = foreign
                .login(&c.db.read(), victim, None)
                .expect("uid collides across realms");
            match broker.read().validate_token(&forged) {
                Ok(_) => Outcome::Leaked("foreign realm credential accepted".into()),
                Err(CredError::RealmMismatch { theirs, .. }) if theirs == FOREIGN => {
                    Outcome::Blocked("realm binding: foreign credential refused".into())
                }
                Err(e) => panic!(
                    "{} probe: foreign credential refused by the wrong check: {e}",
                    Channel::CrossRealmSpoof
                ),
            }
        }
        None => {
            // No realm concept: services trust the raw uid, so any site's
            // assertion of "uid N" is indistinguishable from the local one.
            match c.portal_login(victim) {
                Ok(t) if c.portal.auth.whoami(t) == Ok(victim) => Outcome::Leaked(
                    "raw uid trusted: cross-site identity collision impersonates the victim".into(),
                ),
                _ => Outcome::Blocked("identity rejected".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_catalog_is_stable() {
        assert_eq!(Channel::all().len(), 21);
        // Sections cover IV-A..IV-G and V.
        for ch in Channel::all() {
            assert!(!ch.section().is_empty());
        }
        assert_eq!(Channel::ProcList.section(), "IV-A");
        assert_eq!(Channel::RdmaNativeCm.section(), "V");
        assert_eq!(Channel::AuthTokenReplay.section(), "FedAuth");
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Leaked("x".into()).is_leak());
        assert!(!Outcome::Blocked("y".into()).is_leak());
        assert!(Outcome::Leaked("x".into()).to_string().contains("LEAKED"));
    }
}
