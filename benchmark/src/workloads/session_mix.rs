//! `session_mix` — the paper's "personal HPC" path, one session at a time:
//!
//! open:  `portal_login` → `ssh(login)` → `fs_write`/`fs_read` in the own
//!        home + a cross-user `fs_read` → `submit_at` (1 in 4 a GPU job) →
//!        `advance_to` (dispatch + prolog) → `listen` + 4 same-user
//!        `connect`s across the job's nodes + 1 cross-user `connect`;
//! close: `advance_to` past the job's end (epilog, GPU scrub), then the
//!        drained-node / scrubbed-GPU checks and the two logouts.
//!
//! Sessions open every `STEP_S` simulated seconds and their jobs run for
//! 20–40 s, so several sessions are in flight at once and the open and
//! close halves of different sessions interleave on one monotone clock.
//! The cluster is never full (at most 9 jobs × 4 nodes of 64), so every
//! job starts at the boundary after its submission: job wait is zero by
//! construction here and is a `sched_*` metric.

use super::{add_users, first_uid, user_name, Deployment, RunStats, Scale, SimOutcome};
use crate::drive::Driver;
use bytes::Bytes;
use eus_core::sched::{JobId, JobSpec, JobState};
use eus_core::simcore::{SimDuration, SimRng, SimTime};
use eus_core::simnet::{Port, SocketAddr};
use eus_core::simos::{NodeId, Uid};
use eus_core::{ClusterSpec, SecureCluster};
use std::time::Instant;

/// Simulated seconds between session opens.
const STEP_S: u64 = 5;
/// Nodes (= tasks, one whole node each) per session job.
const JOB_NODES: u32 = 4;
/// Sessions of one user never overlap: a user is not redrawn within this
/// many sessions (longest job 40 s + slack, over `STEP_S`).
const USER_GAP: usize = 10;

/// Counts; the shape (session steps, job geometry) is fixed above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Accounts provisioned.
    pub users: usize,
    /// Compute nodes (16 cores, 2 GPUs each).
    pub nodes: u32,
    /// Sessions per repetition.
    pub sessions: usize,
}

impl Size {
    /// The preset for `scale`.
    pub fn of(scale: Scale) -> Size {
        match scale {
            Scale::Full => Size {
                users: 1000,
                nodes: 64,
                sessions: 700,
            },
            Scale::Smoke => Size {
                users: 300,
                nodes: 64,
                sessions: 60,
            },
        }
    }
}

/// One generated session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Index of the session's user.
    pub user: usize,
    /// Index of the other user: owner of the file the cross-user read
    /// targets, and initiator of the cross-user connect.
    pub peer: usize,
    /// A GPU job (1 in 4)?
    pub gpu: bool,
    /// Job run time, simulated seconds.
    pub job_secs: u64,
    /// Content of the file the session writes and reads back.
    pub payload: Vec<u8>,
}

/// Open or close half of a session, at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Step {
    /// When.
    pub at: SimTime,
    /// `false` = open, `true` = close (opens sort first at equal times).
    pub close: bool,
    /// Which session.
    pub session: usize,
}

/// Everything the run consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The counts these inputs were generated for.
    pub size: Size,
    /// The sessions.
    pub sessions: Vec<Session>,
    /// Their halves in clock order.
    pub script: Vec<Step>,
}

/// When session `k` opens.
fn open_at(k: usize) -> SimTime {
    SimTime::from_secs(10 + STEP_S * k as u64)
}

/// Generate sessions and their interleaved script from the seed.
pub fn generate(seed: u64, size: Size) -> Inputs {
    assert!(
        size.users > USER_GAP + 1,
        "too few users to keep sessions apart"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let mut sessions: Vec<Session> = Vec::with_capacity(size.sessions);
    for k in 0..size.sessions {
        let recent = &sessions[k.saturating_sub(USER_GAP)..];
        let user = loop {
            let u = rng.index(size.users);
            if recent.iter().all(|s| s.user != u) {
                break u;
            }
        };
        let peer = loop {
            let p = rng.index(size.users);
            if p != user {
                break p;
            }
        };
        sessions.push(Session {
            user,
            peer,
            gpu: rng.index(4) == 0,
            job_secs: rng.range_u64(20, 41),
            payload: (0..256).map(|_| rng.range_u64(0, 256) as u8).collect(),
        });
    }
    let mut script: Vec<Step> = Vec::with_capacity(2 * size.sessions);
    for (k, s) in sessions.iter().enumerate() {
        script.push(Step {
            at: open_at(k),
            close: false,
            session: k,
        });
        // Dispatch boundary is open + 1 s; the job ends `job_secs` later;
        // the close half runs one second after that.
        script.push(Step {
            at: open_at(k) + SimDuration::from_secs(s.job_secs + 2),
            close: true,
            session: k,
        });
    }
    script.sort();
    Inputs {
        size,
        sessions,
        script,
    }
}

/// Content of the file every user keeps in their home for others to try.
fn seed_file(i: usize) -> Vec<u8> {
    format!("results of {}", user_name(i)).into_bytes()
}

/// Provision the cluster: accounts, homes, one seed file per user.
pub fn build(inputs: &Inputs, dep: Deployment) -> SecureCluster {
    let spec = ClusterSpec {
        compute_nodes: inputs.size.nodes,
        cores_per_node: 16,
        gpus_per_node: 2,
        ..ClusterSpec::default()
    };
    let mut c = SecureCluster::new(dep.config(), spec);
    let users = add_users(&mut c, inputs.size.users);
    let login = c.login_node();
    for (i, &u) in users.iter().enumerate() {
        c.fs_write(
            u,
            login,
            &format!("/home/{}/seed.dat", user_name(i)),
            eus_core::simos::Mode::new(0o644),
            &seed_file(i),
        )
        .expect("a user writes in their own home");
    }
    c
}

/// Per-session state between its open and close halves.
#[derive(Default, Clone)]
struct Live {
    portal: Option<eus_core::portal::Token>,
    ssh: Option<eus_core::simos::SessionId>,
    job: Option<JobId>,
    nodes: Vec<NodeId>,
    gpu_index: u16,
}

/// Run every session; one latency sample per session (open + close wall).
pub fn run(drv: &mut Driver, inputs: &Inputs) -> RunStats {
    let first = first_uid(&drv.c);
    let uid = |i: usize| Uid(first.0 + i as u32);
    let login = drv.c.login_node();
    let ping = Bytes::from(vec![0x5a; 1024]);
    let mut live = vec![Live::default(); inputs.sessions.len()];
    let mut op_ns = vec![0u64; inputs.sessions.len()];

    for step in &inputs.script {
        let k = step.session;
        let s = &inputs.sessions[k];
        let user = uid(s.user);
        let t0 = Instant::now();
        drv.tr.set_op(k as u64);
        let op = drv.tr.begin("harness.op");
        if step.close {
            close(drv, s, user, step.at, &live[k]);
        } else {
            live[k] = open(drv, s, k, user, uid(s.peer), login, step.at, &ping);
        }
        drv.tr.end(op);
        op_ns[k] += t0.elapsed().as_nanos() as u64;
    }

    RunStats {
        ops: inputs.sessions.len() as u64,
        op_ns,
        sim: SimOutcome {
            connect_setup_us: drv.setup_us_sum as f64 / drv.setup_count.max(1) as f64,
            ..SimOutcome::default()
        },
        replica_lag_max_s: 0.0,
    }
}

#[allow(clippy::too_many_arguments)] // the session's whole context, used once
fn open(
    drv: &mut Driver,
    s: &Session,
    k: usize,
    user: Uid,
    peer: Uid,
    login: NodeId,
    at: SimTime,
    ping: &Bytes,
) -> Live {
    let mut live = Live {
        portal: drv.portal_login(user),
        ssh: drv.ssh(user, login),
        ..Live::default()
    };

    let own = format!("/home/{}/run-{k}.dat", user_name(s.user));
    drv.fs_write(user, login, &own, &s.payload);
    drv.fs_read(user, login, &own, Some(&s.payload));
    // Another user's results: readable on a stock cluster, refused under
    // the File Permission Handler's home layout.
    let theirs = format!("/home/{}/seed.dat", user_name(s.peer));
    let want = seed_file(s.peer);
    let expect = if drv.separated { None } else { Some(&want[..]) };
    drv.fs_read(user, login, &theirs, expect);

    let mut spec = JobSpec::new(
        user,
        format!("sess-{k}"),
        SimDuration::from_secs(s.job_secs),
    )
    .with_tasks(JOB_NODES)
    .with_cpus_per_task(16)
    .with_mem_per_task(8192);
    if s.gpu {
        spec = spec.with_gpus_per_task(1);
    }
    live.job = drv.submit_at(at, spec);
    drv.advance_to(at + SimDuration::from_secs(1));

    // Dispatch + prolog must have happened at that boundary.
    if let Some(id) = live.job {
        let sched = drv.c.sched.read();
        let job = &sched.jobs[&id];
        if job.state == JobState::Running {
            live.nodes = job.allocations.keys().copied().collect();
        }
    }
    drv.oracle
        .check(live.nodes.len() == JOB_NODES as usize, || {
            format!("session {k}: job not running on {JOB_NODES} nodes after dispatch")
        });
    if live.nodes.is_empty() {
        return live;
    }
    let head = live.nodes[0];
    let procs = drv.c.node(head).procs.count_for(user);
    drv.oracle.check(procs >= 1, || {
        format!("session {k}: prolog spawned nothing")
    });

    if s.gpu {
        // The job computes: device memory now holds the user's data.
        let assigned = drv
            .c
            .gpus
            .on_node(head)
            .iter()
            .position(|g| g.assigned_to == Some(user));
        drv.oracle
            .check(assigned.is_some() == drv.c.config.gpu_dev_perms, || {
                format!("session {k}: GPU assignment does not match gpu_dev_perms")
            });
        live.gpu_index = assigned.unwrap_or(0) as u16;
        let gpu = drv
            .c
            .gpus
            .get_mut(head, live.gpu_index)
            .expect("nodes carry two GPUs");
        // Sequential sharing: a scrubbed device shows the new tenant
        // nothing of the previous one.
        let residue = gpu.is_dirty();
        gpu.write(0, &s.payload)
            .expect("payload fits device memory");
        if drv.separated {
            drv.oracle.check(!residue, || {
                format!("session {k}: GPU on {head} handed over with residue")
            });
        }
    }

    // Rank 0 listens; the other ranks (and one repeat, which finds the UBF
    // decision cache warm) connect; a stranger tries from the login node.
    let port: Port = 20_000 + (k % 20_000) as Port;
    let addr = SocketAddr::new(head, port);
    drv.listen(user, head, port);
    for from in [live.nodes[1], live.nodes[2], live.nodes[3], live.nodes[1]] {
        if let Some(conn) = drv.connect(user, from, addr, true) {
            drv.send_all(&[conn], ping);
            drv.close(conn);
        }
    }
    if let Some(conn) = drv.connect(peer, login, addr, false) {
        drv.close(conn);
    }
    live
}

fn close(drv: &mut Driver, s: &Session, user: Uid, at: SimTime, live: &Live) {
    drv.advance_to(at);

    if let Some(id) = live.job {
        let state = drv.c.sched.read().jobs[&id].state;
        drv.oracle.check(state == JobState::Completed, || {
            format!("job {id:?} is {state:?} after its end, not Completed")
        });
    }
    for &n in &live.nodes {
        let left = drv.c.node(n).procs.count_for(user);
        drv.oracle.check(left == 0, || {
            format!("{n} not drained: {left} processes of {user}")
        });
    }
    if s.gpu {
        if let Some(&head) = live.nodes.first() {
            let gpu = drv
                .c
                .gpus
                .get(head, live.gpu_index)
                .expect("nodes carry two GPUs");
            // The device is the user's no longer. Unless the node already
            // has its next tenant, the residue must be gone exactly when
            // the epilog scrub is deployed; on a stock cluster it is still
            // there. (A next tenant checks for residue itself, in `open`.)
            let (dirty, holder) = (gpu.is_dirty(), gpu.assigned_to);
            drv.oracle.check(holder != Some(user), || {
                format!("GPU on {head} still assigned")
            });
            if holder.is_none() {
                drv.oracle.check(dirty != drv.separated, || {
                    format!("GPU on {head} dirty={dirty} after epilog")
                });
            }
        }
    }
    if let Some(sid) = live.ssh {
        let login = drv.c.login_node();
        drv.logout(login, sid);
    }
    if let Some(tok) = live.portal {
        drv.portal_logout(tok);
    }
}
