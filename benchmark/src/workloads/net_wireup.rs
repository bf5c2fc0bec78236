//! `net_wireup` — MPI-style all-to-all connection set-up through the
//! User-Based Firewall. One wire-up, for one user on 16 nodes:
//!
//! 16 `listen`s (one per rank) → `connect` over all 120 rank pairs (each
//! destination host judges the user pair cold once, then from its decision
//! cache) → 16 cross-user `connect` probes from the login node (refused
//! under llsc, established on a stock cluster) → 8 `fabric.send`s on each
//! of the 120 established flows (conntrack-accepted, never inspected) →
//! close every flow and listener.
//!
//! No job is submitted and the clock never moves: `simnet` and `ubf` do
//! nearly all the work.

use super::{add_users, first_uid, Deployment, RunStats, Scale, SimOutcome};
use crate::drive::Driver;
use bytes::Bytes;
use eus_core::simcore::SimRng;
use eus_core::simnet::{ConnId, Port, SocketAddr};
use eus_core::simos::{NodeId, Uid};
use eus_core::{ClusterSpec, SecureCluster};
use std::time::Instant;

/// Ranks (= nodes) per wire-up; 16 ranks make 120 pairs.
const RANKS: usize = 16;
/// Sends per established flow.
const SENDS: usize = 8;

/// Counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Accounts provisioned.
    pub users: usize,
    /// Compute nodes.
    pub nodes: u32,
    /// Wire-ups per repetition.
    pub wireups: usize,
}

impl Size {
    /// The preset for `scale`.
    pub fn of(scale: Scale) -> Size {
        match scale {
            Scale::Full => Size {
                users: 500,
                nodes: 64,
                wireups: 1500,
            },
            Scale::Smoke => Size {
                users: 300,
                nodes: 64,
                wireups: 100,
            },
        }
    }
}

/// One generated wire-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wireup {
    /// Index of the user whose ranks wire up.
    pub user: usize,
    /// Index of the stranger probing from the login node.
    pub prober: usize,
    /// Indices (into the cluster's compute nodes) of the 16 ranks' nodes.
    pub nodes: Vec<usize>,
}

/// Everything the run consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The counts these inputs were generated for.
    pub size: Size,
    /// The wire-ups, in order.
    pub wireups: Vec<Wireup>,
}

/// Generate the wire-ups from the seed.
pub fn generate(seed: u64, size: Size) -> Inputs {
    assert!(size.nodes as usize >= RANKS && size.users >= 2);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..size.nodes as usize).collect();
    let wireups = (0..size.wireups)
        .map(|_| {
            let user = rng.index(size.users);
            let prober = loop {
                let p = rng.index(size.users);
                if p != user {
                    break p;
                }
            };
            rng.shuffle(&mut pool);
            Wireup {
                user,
                prober,
                nodes: pool[..RANKS].to_vec(),
            }
        })
        .collect();
    Inputs { size, wireups }
}

/// Provision the cluster: nodes and accounts, nothing else.
pub fn build(inputs: &Inputs, dep: Deployment) -> SecureCluster {
    let spec = ClusterSpec {
        compute_nodes: inputs.size.nodes,
        cores_per_node: 16,
        gpus_per_node: 0,
        ..ClusterSpec::default()
    };
    let mut c = SecureCluster::new(dep.config(), spec);
    add_users(&mut c, inputs.size.users);
    c
}

/// Run every wire-up; one latency sample per wire-up, one operation per
/// attempted connect.
pub fn run(drv: &mut Driver, inputs: &Inputs) -> RunStats {
    let first = first_uid(&drv.c);
    let login = drv.c.login_node();
    let compute = drv.c.compute_ids.clone();
    let payload = Bytes::from(vec![0xa5; 4096]);
    let mut op_ns = Vec::with_capacity(inputs.wireups.len());
    let mut connects = 0u64;
    let mut flows: Vec<ConnId> = Vec::with_capacity(RANKS * (RANKS - 1) / 2);
    let mut nodes: Vec<NodeId> = Vec::with_capacity(RANKS);

    for (k, w) in inputs.wireups.iter().enumerate() {
        let user = Uid(first.0 + w.user as u32);
        let prober = Uid(first.0 + w.prober as u32);
        let port: Port = 30_000 + (k % 30_000) as Port;
        nodes.clear();
        nodes.extend(w.nodes.iter().map(|&i| compute[i]));
        flows.clear();

        let t0 = Instant::now();
        drv.tr.set_op(k as u64);
        let op = drv.tr.begin("harness.op");
        for &n in &nodes {
            drv.listen(user, n, port);
        }
        for i in 0..RANKS {
            for j in i + 1..RANKS {
                connects += 1;
                flows.extend(drv.connect(user, nodes[i], SocketAddr::new(nodes[j], port), true));
            }
        }
        for &n in &nodes {
            connects += 1;
            // A stranger's flow exists only on a stock cluster; it carries
            // no traffic here, so both deployments send the same bytes.
            if let Some(conn) = drv.connect(prober, login, SocketAddr::new(n, port), false) {
                drv.close(conn);
            }
        }
        for _ in 0..SENDS {
            drv.send_all(&flows, &payload);
        }
        for &conn in &flows {
            drv.close(conn);
        }
        for &n in &nodes {
            drv.close_listener(n, port);
        }
        drv.tr.end(op);
        op_ns.push(t0.elapsed().as_nanos() as u64);
    }

    RunStats {
        ops: connects,
        op_ns,
        sim: SimOutcome {
            connect_setup_us: drv.setup_us_sum as f64 / drv.setup_count.max(1) as f64,
            ..SimOutcome::default()
        },
        replica_lag_max_s: 0.0,
    }
}
