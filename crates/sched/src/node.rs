//! Compute nodes as the scheduler sees them.
//!
//! Free capacity and ownership are *cached* on the node and maintained on
//! every claim/release, so the placement hot path asks O(1) questions
//! instead of summing the running-allocation map per query (the scan this
//! module did before the scheduler-scale overhaul). The engine derives
//! each node's capacity row from the same cached getters in its
//! mirror-update funnel — a claim or release here is invisible to
//! placement and the shadow until that funnel runs, which is why every
//! mutation routes through it.

use crate::job::{JobId, TaskAlloc};
use eus_simos::{NodeId, Uid};
use std::collections::{BTreeMap, BTreeSet};

/// Node availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Accepting work.
    Up,
    /// Crashed (fault injection); jobs on it have failed.
    Down,
}

/// One compute node's schedulable resources and current holdings.
#[derive(Debug, Clone)]
pub struct SchedNode {
    /// Identity (matches the `eus-simos` node and the fabric host).
    pub id: NodeId,
    /// Total cores.
    pub cores: u32,
    /// Total memory (MiB).
    pub mem_mib: u64,
    /// Total GPUs.
    pub gpus: u32,
    /// Availability.
    pub state: NodeState,
    /// Resources currently claimed, per job.
    pub running: BTreeMap<JobId, TaskAlloc>,
    job_users: BTreeMap<JobId, Uid>,
    /// Running-job count per distinct user — makes `owner()` O(1).
    user_jobs: BTreeMap<Uid, u32>,
    // Cached free capacity, maintained by claim/release.
    free_cores: u32,
    free_mem_mib: u64,
    free_gpus: u32,
}

impl SchedNode {
    /// A fresh, idle node.
    pub fn new(id: NodeId, cores: u32, mem_mib: u64, gpus: u32) -> Self {
        SchedNode {
            id,
            cores,
            mem_mib,
            gpus,
            state: NodeState::Up,
            running: BTreeMap::new(),
            job_users: BTreeMap::new(),
            user_jobs: BTreeMap::new(),
            free_cores: cores,
            free_mem_mib: mem_mib,
            free_gpus: gpus,
        }
    }

    /// Cores not currently claimed. O(1).
    #[inline]
    pub fn free_cores(&self) -> u32 {
        self.free_cores
    }

    /// Memory not currently claimed (MiB). O(1).
    #[inline]
    pub fn free_mem_mib(&self) -> u64 {
        self.free_mem_mib
    }

    /// GPUs not currently claimed. O(1).
    #[inline]
    pub fn free_gpus(&self) -> u32 {
        self.free_gpus
    }

    /// True when no job holds anything here.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// The node's *sole* user, when exactly one distinct user is present —
    /// the quantity the whole-node user-based policy gates on. `None` when
    /// idle, and also `None` when a shared-policy run has mixed users here.
    /// O(1) via the per-user job counts.
    #[inline]
    pub fn owner(&self) -> Option<Uid> {
        if self.user_jobs.len() == 1 {
            self.user_jobs.keys().next().copied()
        } else {
            None
        }
    }

    /// Does `user` hold at least one running allocation here? O(log users).
    #[inline]
    pub fn has_user(&self, user: Uid) -> bool {
        self.user_jobs.contains_key(&user)
    }

    /// Distinct users with at least one running allocation here — the
    /// cohabitation count the separation audit reports.
    pub fn users_present(&self) -> BTreeSet<Uid> {
        self.user_jobs.keys().copied().collect()
    }

    /// Claim resources for a job. Panics if over-committed — the scheduler
    /// must only place what fits.
    pub fn claim(&mut self, job: JobId, alloc: TaskAlloc, user: Uid) {
        assert!(self.state == NodeState::Up, "claim on non-up node");
        assert!(alloc.cores <= self.free_cores, "core overcommit");
        assert!(alloc.mem_mib <= self.free_mem_mib, "memory overcommit");
        assert!(alloc.gpus <= self.free_gpus, "gpu overcommit");
        let prev = self.running.insert(job, alloc);
        assert!(prev.is_none(), "job double-claimed a node");
        self.job_users.insert(job, user);
        *self.user_jobs.entry(user).or_insert(0) += 1;
        self.free_cores -= alloc.cores;
        self.free_mem_mib -= alloc.mem_mib;
        self.free_gpus -= alloc.gpus;
    }

    /// Release a job's holdings.
    pub fn release(&mut self, job: JobId) -> Option<TaskAlloc> {
        if let Some(user) = self.job_users.remove(&job) {
            match self.user_jobs.get_mut(&user) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.user_jobs.remove(&user);
                }
            }
        }
        let alloc = self.running.remove(&job)?;
        self.free_cores += alloc.cores;
        self.free_mem_mib += alloc.mem_mib;
        self.free_gpus += alloc.gpus;
        Some(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cores: u32, mem: u64, gpus: u32) -> TaskAlloc {
        TaskAlloc {
            tasks: 1,
            cores,
            mem_mib: mem,
            gpus,
        }
    }

    #[test]
    fn claim_and_release_roundtrip() {
        let mut n = SchedNode::new(NodeId(1), 16, 64_000, 2);
        n.claim(JobId(1), alloc(4, 8_000, 1), Uid(100));
        assert_eq!(n.free_cores(), 12);
        assert_eq!(n.free_mem_mib(), 56_000);
        assert_eq!(n.free_gpus(), 1);
        assert_eq!(n.owner(), Some(Uid(100)));
        assert_eq!(n.cores - n.free_cores(), 4);
        assert!(n.has_user(Uid(100)));
        assert!(!n.has_user(Uid(101)));

        n.claim(JobId(2), alloc(4, 8_000, 0), Uid(100));
        n.release(JobId(1)).unwrap();
        assert_eq!(n.owner(), Some(Uid(100)), "still owned while a job remains");
        n.release(JobId(2)).unwrap();
        assert!(n.is_idle());
        assert_eq!(n.owner(), None, "ownership clears when idle");
        assert!(!n.has_user(Uid(100)));
        assert!(n.release(JobId(2)).is_none());
        assert_eq!(n.free_cores(), 16);
        assert_eq!(n.free_mem_mib(), 64_000);
        assert_eq!(n.free_gpus(), 2);
    }

    #[test]
    fn mixed_users_allowed_under_shared_policy() {
        let mut n = SchedNode::new(NodeId(1), 16, 64_000, 0);
        n.claim(JobId(1), alloc(4, 8_000, 0), Uid(1));
        n.claim(JobId(2), alloc(4, 8_000, 0), Uid(2));
        assert_eq!(n.owner(), None, "mixed users → no sole owner");
        assert_eq!(n.users_present().len(), 2);
        n.release(JobId(2));
        assert_eq!(n.owner(), Some(Uid(1)), "sole ownership restored");
    }

    #[test]
    #[should_panic(expected = "core overcommit")]
    fn overcommit_cores_panics() {
        let mut n = SchedNode::new(NodeId(1), 4, 1_000, 0);
        n.claim(JobId(1), alloc(8, 100, 0), Uid(1));
    }

    #[test]
    #[should_panic(expected = "gpu overcommit")]
    fn overcommit_gpus_panics() {
        let mut n = SchedNode::new(NodeId(1), 4, 1_000, 1);
        n.claim(JobId(1), alloc(1, 100, 2), Uid(1));
    }

    #[test]
    #[should_panic(expected = "double-claimed")]
    fn double_claim_panics() {
        let mut n = SchedNode::new(NodeId(1), 8, 8_000, 0);
        n.claim(JobId(1), alloc(1, 100, 0), Uid(1));
        n.claim(JobId(1), alloc(1, 100, 0), Uid(1));
    }
}
