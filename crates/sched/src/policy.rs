//! Node-sharing policies (paper Sec. IV-B).
//!
//! * [`NodeSharing::Shared`] — default Slurm: any user's tasks co-resident
//!   on a node. Best packing, worst blast radius and isolation.
//! * [`NodeSharing::Exclusive`] — `--exclusive` for every job: a job owns
//!   whole nodes. Full isolation, poor utilization for many-small-job
//!   workloads ("it results in poor utilization if a user is executing many
//!   bulk synchronous parallel jobs").
//! * [`NodeSharing::WholeNodeUser`] — LLSC's policy [refs 25, 26]: once a
//!   user's job lands on a node, only *that user's* jobs may fill the
//!   remaining capacity. One user per node at any instant, without giving
//!   up intra-user packing.
//!
//! # Where these rules are consulted
//!
//! The engine applies a policy in one place, the capacity row's `fit`
//! (`engine.rs`): admissibility and capacity together, as the number of a
//! spec's tasks a node could host. The placement walk, the EASY-shadow /
//! reservation-calendar replays (placement exists **iff** the summed
//! per-node fit covers the task count) and the preemption feasibility
//! check all answer through it. The unoptimised reference in
//! `tests/common/reference.rs` spells the same rule over a `SchedNode`,
//! and the equivalence suites hold the two equal.
//!
//! Orthogonal axes that compose with the policy:
//!
//! * a per-job `--exclusive` request ([`crate::job::JobSpec::exclusive`])
//!   tightens any policy to an empty node and charges the whole node;
//! * the QoS class ([`crate::job::QosClass`]) never changes *where* a job
//!   may run — preemption frees capacity and then places through the same
//!   `fit`, so no policy invariant (e.g. one user per node)
//!   is ever violated by urgency.

use crate::job::JobSpec;
use std::fmt;

/// The cluster-wide node-sharing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSharing {
    /// Multiple users per node.
    Shared,
    /// Whole nodes per job.
    Exclusive,
    /// Whole nodes per **user** (the paper's policy).
    WholeNodeUser,
}

impl fmt::Display for NodeSharing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeSharing::Shared => "shared",
            NodeSharing::Exclusive => "exclusive",
            NodeSharing::WholeNodeUser => "whole-node",
        })
    }
}

impl NodeSharing {
    /// All three, for experiment sweeps.
    pub fn all() -> [NodeSharing; 3] {
        [
            NodeSharing::Shared,
            NodeSharing::Exclusive,
            NodeSharing::WholeNodeUser,
        ]
    }

    /// Does this policy charge the whole node to a job placed on it?
    /// (Exclusive jobs hold every core even if tasks need fewer.)
    pub fn charges_whole_node(&self, spec: &JobSpec) -> bool {
        matches!(self, NodeSharing::Exclusive) || spec.request_exclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simcore::SimDuration;
    use eus_simos::Uid;

    fn spec(user: u32) -> JobSpec {
        JobSpec::new(Uid(user), "j", SimDuration::from_secs(10))
            .with_cpus_per_task(2)
            .with_mem_per_task(4096)
    }

    #[test]
    fn per_job_exclusive_request_charges_the_whole_node() {
        let excl = spec(1).exclusive();
        assert!(NodeSharing::Shared.charges_whole_node(&excl));
        assert!(!NodeSharing::Shared.charges_whole_node(&spec(1)));
        assert!(NodeSharing::Exclusive.charges_whole_node(&spec(1)));
    }
}
