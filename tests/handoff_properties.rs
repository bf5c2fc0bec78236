//! The node hand-off as a property: whatever a tenant did on a compute
//! node, its last epilog there leaves nothing behind.
//!
//! Random tapes drive several users through GPU and CPU jobs (preemption
//! on, node failures injected), and between scheduling boundaries let
//! each user act only on nodes where one of their jobs runs: write GPU
//! memory, launch web apps (sometimes under another of their jobs), listen,
//! connect, bind abstract sockets and leave stray processes. After every
//! boundary, each `(node, uid)` whose last job left during it is checked
//! with [`SecureCluster::residue_of`], which reads the node's actual state:
//! it must be empty, except that without the GPU scrub (`baseline()` and
//! `llsc().without(GpuScrub)`) dirty GPU memory may stay. Every config
//! runs with whole-node and with shared placement.
//!
//! Release builds compile the eviction's own `debug_assert` out, so this
//! test checks the property itself.

mod common;

use hpc_user_separation::sched::{JobId, JobSpec, JobState, NodeSharing, QosClass};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simnet::{Proto, SocketAddr};
use hpc_user_separation::simos::{NodeId, Uid};
use hpc_user_separation::{ClusterSpec, Mechanism, Residue, SecureCluster, SeparationConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;

/// `llsc()`, `baseline()` and every single ablation, each with preemption
/// on and under both placements.
fn configs() -> Vec<SeparationConfig> {
    let mut base = vec![SeparationConfig::llsc(), SeparationConfig::baseline()];
    base.extend(
        Mechanism::all()
            .iter()
            .map(|&m| SeparationConfig::llsc().without(m)),
    );
    let mut out = Vec::new();
    for config in base {
        for placement in [NodeSharing::WholeNodeUser, NodeSharing::Shared] {
            let mut c = config.clone().with_preemption();
            c.node_policy = placement;
            out.push(c);
        }
    }
    out
}

/// `(node, uid)` for every running allocation.
fn tenants(c: &SecureCluster) -> BTreeSet<(NodeId, Uid)> {
    let sched = c.sched.read();
    let running = sched.jobs.values().filter(|j| j.state == JobState::Running);
    running
        .flat_map(|j| j.allocations.keys().map(move |&n| (n, j.spec.user)))
        .collect()
}

/// `(job, node, gpus there)` for every running allocation of `user`.
fn running_of(c: &SecureCluster, user: Uid) -> Vec<(JobId, NodeId, u32)> {
    let sched = c.sched.read();
    let running = sched
        .jobs
        .values()
        .filter(|j| j.state == JobState::Running && j.spec.user == user);
    running
        .flat_map(|j| j.allocations.iter().map(move |(&n, a)| (j.id, n, a.gpus)))
        .collect()
}

/// One action by `actor` on a node where one of its jobs runs.
fn act(c: &mut SecureCluster, rng: &mut SimRng, actor: Uid, now: SimTime) {
    let mine = running_of(c, actor);
    if mine.is_empty() {
        return;
    }
    let (_, node, gpus) = mine[rng.range_u64(0, mine.len() as u64) as usize];
    let port = 9000 + rng.range_u64(0, 6) as u16;
    match rng.range_u64(0, 6) {
        0 if gpus > 0 => {
            // A GPU job writes the devices it was given: its assigned ones,
            // or any, when the scheduler manages no device permissions.
            let managed = c.config.gpu_dev_perms;
            let devices = c.gpus.on_node(node);
            let targets: Vec<u16> = devices
                .iter()
                .filter(|g| !managed || g.assigned_to == Some(actor))
                .map(|g| g.device.minor)
                .collect();
            if let Some(&idx) = targets.get(rng.range_u64(0, 2) as usize) {
                let gpu = c.gpus.get_mut(node, idx).expect("installed");
                gpu.write(0, b"tenant weights").expect("in bounds");
            }
        }
        0 | 1 => {
            // Sometimes under another of the actor's jobs, which does not
            // run here: only the last epilog on this node can stop it.
            let owner = mine[rng.range_u64(0, mine.len() as u64) as usize].0;
            let _ = c.launch_webapp(actor, owner, "app", node, port, "notebook", None);
        }
        2 => {
            let _ = c.listen(actor, node, Proto::Tcp, port, None);
        }
        3 => {
            let hosts: Vec<NodeId> = c.compute_ids.iter().chain(&c.login_ids).copied().collect();
            let to = hosts[rng.range_u64(0, hosts.len() as u64) as usize];
            let _ = c.connect(actor, node, SocketAddr::new(to, port), Proto::Tcp);
        }
        4 => {
            let cred = c.credentials(actor);
            let name = format!("@mpi-{}", rng.range_u64(0, 4));
            let _ = c.node_mut(node).abstract_sockets.bind(&cred, &name);
        }
        _ => {
            // A process the job forked off and left behind.
            if let Ok(sid) = c.ssh(actor, node) {
                c.node_mut(node).spawn(sid, ["stray"], now);
            }
        }
    }
}

/// Run one tape under `config`; fail on the first residue the property
/// does not allow.
fn run_tape(seed: u64, config: SeparationConfig) -> Result<(), TestCaseError> {
    let label = format!("{} {:?}", config.label(), config.node_policy);
    let allowed: &[Residue] = if config.has(Mechanism::GpuScrub) {
        &[]
    } else {
        &[Residue::GpuMemory]
    };
    let spec = ClusterSpec {
        compute_nodes: 3,
        cores_per_node: 4,
        gpus_per_node: 2,
        ..ClusterSpec::tiny()
    };
    let mut c = SecureCluster::new(config, spec);
    let users: Vec<Uid> = (0..3)
        .map(|i| c.add_user(&format!("u{i}")).unwrap())
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    for step in 0..14 {
        for _ in 0..rng.range_u64(0, 3) {
            let user = users[rng.range_u64(0, users.len() as u64) as usize];
            let qos =
                [QosClass::Bulk, QosClass::Normal, QosClass::Urgent][rng.range_u64(0, 3) as usize];
            let secs = SimDuration::from_secs(5 + rng.range_u64(0, 120));
            let tasks = 1 + rng.range_u64(0, 2) as u32;
            let gpus = rng.range_u64(0, 2) as u32;
            c.submit(
                JobSpec::new(user, "job", secs)
                    .with_tasks(tasks)
                    .with_gpus_per_task(gpus)
                    .with_qos(qos),
            );
        }
        if rng.range_u64(0, 8) == 0 {
            let node = c.compute_ids[rng.range_u64(0, 3) as usize];
            c.sched
                .write()
                .schedule_node_failure(now + SimDuration::from_secs(5), node);
        }
        for _ in 0..rng.range_u64(0, 6) {
            let actor = users[rng.range_u64(0, users.len() as u64) as usize];
            act(&mut c, &mut rng, actor, now);
        }
        let before = tenants(&c);
        now += SimDuration::from_secs(5 + rng.range_u64(0, 40));
        c.advance_to(now);
        let after = tenants(&c);
        for &(node, uid) in before.difference(&after) {
            let left = c.residue_of(node, uid);
            prop_assert!(
                left.iter().all(|r| allowed.contains(r)),
                "{}: step {}: {} left {:?} on {}",
                label,
                step,
                uid,
                left,
                node
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("HANDOFF_PROPTEST_CASES", 4), ..ProptestConfig::default() })]

    /// After every boundary, a tenant whose last job left a node left
    /// nothing there but what a disabled mechanism allows.
    #[test]
    fn a_departed_tenant_leaves_no_residue(seed in 0u64..1_000_000) {
        for config in configs() {
            run_tape(seed, config)?;
        }
    }
}
