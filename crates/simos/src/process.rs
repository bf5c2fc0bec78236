//! Per-node process table.
//!
//! Processes carry the full credential triple plus the observable surfaces
//! the paper worries about leaking: the command line (world-readable in
//! default Linux via `/proc/<pid>/cmdline`) and the environment (owner-only
//! even in default Linux). `hidepid` filtering happens in [`crate::procfs`].

use crate::cred::Credentials;
use crate::ids::{Pid, Uid};
use eus_simcore::SimTime;
use std::collections::BTreeMap;

/// One process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Credentials the process runs with.
    pub cred: Credentials,
    /// argv, with `argv[0]` first.
    pub cmdline: Vec<String>,
    /// Environment variables (`/proc/<pid>/environ`).
    pub environ: BTreeMap<String, String>,
    /// Simulated start time.
    pub started: SimTime,
    /// Parent pid, if any.
    pub parent: Option<Pid>,
}

impl Process {
    /// The owning uid.
    #[inline]
    pub fn uid(&self) -> Uid {
        self.cred.uid
    }

    /// The command name (`argv[0]`, or empty).
    pub fn comm(&self) -> &str {
        self.cmdline.first().map(String::as_str).unwrap_or("")
    }
}

/// A node's process table.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// An empty table; pid numbering starts at 1 (init-like daemons land
    /// first, just as on a real node).
    pub fn new() -> Self {
        ProcessTable {
            procs: BTreeMap::new(),
            next_pid: 1,
        }
    }

    /// Spawn a process and return its pid.
    pub fn spawn(
        &mut self,
        cred: Credentials,
        cmdline: impl IntoIterator<Item = impl Into<String>>,
        started: SimTime,
    ) -> Pid {
        self.spawn_with_env(cred, cmdline, BTreeMap::new(), None, started)
    }

    /// Spawn with an explicit environment and optional parent.
    pub fn spawn_with_env(
        &mut self,
        cred: Credentials,
        cmdline: impl IntoIterator<Item = impl Into<String>>,
        environ: BTreeMap<String, String>,
        parent: Option<Pid>,
        started: SimTime,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Process {
                pid,
                cred,
                cmdline: cmdline.into_iter().map(Into::into).collect(),
                environ,
                started,
                parent,
            },
        );
        pid
    }

    /// Look up a process.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Remove a process outright (exit + reap).
    pub fn remove(&mut self, pid: Pid) -> Option<Process> {
        self.procs.remove(&pid)
    }

    /// Kill every process owned by `uid`; returns the pids removed. Used by
    /// the scheduler epilog and by `pam_slurm_adopt`-style cleanup.
    pub fn kill_all_of(&mut self, uid: Uid) -> Vec<Pid> {
        let doomed: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.uid() == uid)
            .map(|p| p.pid)
            .collect();
        for pid in &doomed {
            self.procs.remove(pid);
        }
        doomed
    }

    /// All processes, pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.procs.values()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no processes exist.
    // analyze:allow(dead-pub): the emptiness check that goes with the live `len` (clippy::len_without_is_empty)
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Number of processes owned by `uid`.
    pub fn count_for(&self, uid: Uid) -> usize {
        self.procs.values().filter(|p| p.uid() == uid).count()
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
    fn spawn_assigns_increasing_pids() {
        let mut t = ProcessTable::new();
        let a = t.spawn(cred(1), ["init"], SimTime::ZERO);
        let b = t.spawn(cred(1), ["sshd"], SimTime::ZERO);
        assert!(b > a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().comm(), "init");
    }

    #[test]
    fn kill_all_of_targets_one_uid() {
        let mut t = ProcessTable::new();
        t.spawn(cred(1), ["a"], SimTime::ZERO);
        t.spawn(cred(2), ["b"], SimTime::ZERO);
        t.spawn(cred(1), ["c"], SimTime::ZERO);
        let killed = t.kill_all_of(Uid(1));
        assert_eq!(killed.len(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.count_for(Uid(2)), 1);
        assert_eq!(t.count_for(Uid(1)), 0);
    }

    #[test]
    fn environ_and_parent_retained() {
        let mut t = ProcessTable::new();
        let parent = t.spawn(cred(1), ["bash"], SimTime::ZERO);
        let env = BTreeMap::from([("SECRET".to_string(), "hunter2".to_string())]);
        let child = t.spawn_with_env(cred(1), ["srun"], env, Some(parent), SimTime::from_secs(1));
        let p = t.get(child).unwrap();
        assert_eq!(p.parent, Some(parent));
        assert_eq!(p.environ["SECRET"], "hunter2");
        assert_eq!(p.started, SimTime::from_secs(1));
    }

    #[test]
    fn remove_reaps() {
        let mut t = ProcessTable::new();
        let a = t.spawn(cred(1), ["x"], SimTime::ZERO);
        assert!(t.remove(a).is_some());
        assert!(t.remove(a).is_none());
        assert!(t.is_empty());
    }
}
