//! `/proc` visibility semantics (paper Sec. IV-A).
//!
//! Models the `hidepid=` and `gid=` options of the proc(5) mount:
//!
//! * `hidepid=0` — default Linux: everyone lists every pid and reads every
//!   process's cmdline.
//! * `hidepid=1` — other users' `/proc/<pid>` contents are unreadable, but
//!   the pid directories still appear (process *existence* leaks).
//! * `hidepid=2` — other users' processes are **invisible**: not listed, and
//!   probing a pid returns "no such process" rather than "permission denied",
//!   closing the existence side channel too.
//!
//! The `gid=` option names an exemption group; members see everything. The
//! paper's `seepid` tool adds that group to a whitelisted support-staff
//! session — implemented in `eus-fsperm::tools`.

use crate::cred::Credentials;
use crate::ids::{Gid, Pid, Uid};
use crate::process::{ProcState, ProcessTable};
use std::fmt;

/// The `hidepid=` mount option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HidePid {
    /// `hidepid=0`: no restriction (Linux default).
    #[default]
    Off,
    /// `hidepid=1`: foreign `/proc/<pid>` unreadable but listed.
    // analyze:allow(dead-pub): the `hidepid=1` mount option an operator may choose over the paper's `hidepid=2`
    NoAccess,
    /// `hidepid=2`: foreign processes invisible (the paper's setting).
    Invisible,
}

/// Mount options for a node's `/proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcMountOpts {
    /// The `hidepid=` level.
    pub hidepid: HidePid,
    /// The `gid=` exemption group, if configured.
    pub exempt_gid: Option<Gid>,
}

impl ProcMountOpts {
    /// The paper's configuration: `hidepid=2` plus a support-staff exemption
    /// group.
    pub fn llsc(exempt_gid: Gid) -> Self {
        ProcMountOpts {
            hidepid: HidePid::Invisible,
            exempt_gid: Some(exempt_gid),
        }
    }
}

/// Errors from probing `/proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcError {
    /// ESRCH/ENOENT — the pid does not exist *as far as the viewer can tell*.
    NotFound,
    /// EACCES — the pid exists but its contents are not readable.
    PermissionDenied,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::NotFound => f.write_str("no such process"),
            ProcError::PermissionDenied => f.write_str("permission denied"),
        }
    }
}

impl std::error::Error for ProcError {}

/// A `ps`-shaped row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcEntry {
    /// Process id.
    pub pid: Pid,
    /// Owner uid.
    pub uid: Uid,
    /// Command name.
    pub comm: String,
    /// Run state.
    pub state: ProcState,
}

/// A read-only view of a node's process table through its `/proc` mount.
pub struct ProcFs<'a> {
    table: &'a ProcessTable,
    opts: ProcMountOpts,
}

impl<'a> ProcFs<'a> {
    /// Bind a view to a table with the given mount options.
    pub fn new(table: &'a ProcessTable, opts: ProcMountOpts) -> Self {
        ProcFs { table, opts }
    }

    /// Full-content access check: owner, root, or exemption-group member.
    fn may_inspect(&self, viewer: &Credentials, owner: Uid) -> bool {
        viewer.is_root()
            || viewer.uid == owner
            || self
                .opts
                .exempt_gid
                .map(|g| viewer.is_member(g))
                .unwrap_or(false)
    }

    /// List the pids the viewer can see (what `ls /proc` / `ps` shows).
    pub fn list(&self, viewer: &Credentials) -> Vec<ProcEntry> {
        self.table
            .iter()
            .filter(|p| match self.opts.hidepid {
                HidePid::Off | HidePid::NoAccess => true,
                HidePid::Invisible => self.may_inspect(viewer, p.uid()),
            })
            .map(|p| ProcEntry {
                pid: p.pid,
                uid: p.uid(),
                comm: p.comm().to_string(),
                state: p.state,
            })
            .collect()
    }

    /// Read `/proc/<pid>/cmdline`. World-readable at `hidepid=0`; otherwise
    /// restricted to inspectors. At `hidepid=2` a foreign pid reads as
    /// *nonexistent*.
    pub fn read_cmdline(&self, viewer: &Credentials, pid: Pid) -> Result<Vec<String>, ProcError> {
        let p = self.table.get(pid).ok_or(ProcError::NotFound)?;
        match self.opts.hidepid {
            HidePid::Off => Ok(p.cmdline.clone()),
            HidePid::NoAccess => {
                if self.may_inspect(viewer, p.uid()) {
                    Ok(p.cmdline.clone())
                } else {
                    Err(ProcError::PermissionDenied)
                }
            }
            HidePid::Invisible => {
                if self.may_inspect(viewer, p.uid()) {
                    Ok(p.cmdline.clone())
                } else {
                    Err(ProcError::NotFound)
                }
            }
        }
    }

    /// Read `/proc/<pid>/environ`. Owner-or-root only at *every* hidepid
    /// level, as on stock Linux (mode 0400); at `hidepid=2` foreign pids are
    /// additionally indistinguishable from absent ones.
    #[cfg(test)]
    pub(crate) fn read_environ(
        &self,
        viewer: &Credentials,
        pid: Pid,
    ) -> Result<Vec<(String, String)>, ProcError> {
        let p = self.table.get(pid).ok_or(ProcError::NotFound)?;
        if viewer.is_root() || viewer.uid == p.uid() {
            return Ok(p
                .environ
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect());
        }
        match self.opts.hidepid {
            HidePid::Invisible if !self.may_inspect(viewer, p.uid()) => Err(ProcError::NotFound),
            _ => Err(ProcError::PermissionDenied),
        }
    }

    /// Does the viewer learn that `pid` exists at all? (The existence side
    /// channel `hidepid=2` closes.)
    #[cfg(test)]
    pub(crate) fn pid_exists_for(&self, viewer: &Credentials, pid: Pid) -> bool {
        match self.table.get(pid) {
            None => false,
            Some(p) => match self.opts.hidepid {
                HidePid::Off | HidePid::NoAccess => true,
                HidePid::Invisible => self.may_inspect(viewer, p.uid()),
            },
        }
    }

    /// Count of *foreign* (other users') processes visible to the viewer —
    /// the headline number of experiment E1.
    pub fn foreign_visible_count(&self, viewer: &Credentials) -> usize {
        self.list(viewer)
            .iter()
            .filter(|e| e.uid != viewer.uid)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simcore::SimTime;

    fn table() -> (ProcessTable, Credentials, Credentials, Credentials) {
        let mut t = ProcessTable::new();
        let alice = Credentials::new(Uid(1000), Gid(1000));
        let bob = Credentials::new(Uid(1001), Gid(1001));
        let root = Credentials::root();
        t.spawn(root.clone(), ["systemd"], SimTime::ZERO);
        t.spawn(alice.clone(), ["python", "train.py"], SimTime::ZERO);
        t.spawn(bob.clone(), ["matlab", "-r", "sim"], SimTime::ZERO);
        (t, alice, bob, root)
    }

    #[test]
    fn hidepid_off_everyone_sees_everything() {
        let (t, alice, _bob, _root) = table();
        let fs = ProcFs::new(&t, ProcMountOpts::default());
        assert_eq!(fs.list(&alice).len(), 3);
        assert_eq!(fs.foreign_visible_count(&alice), 2);
        // Bob's cmdline is world-readable.
        assert_eq!(
            fs.read_cmdline(&alice, Pid(3)).unwrap(),
            vec!["matlab", "-r", "sim"]
        );
    }

    #[test]
    fn hidepid_1_lists_but_denies_content() {
        let (t, alice, _bob, _root) = table();
        let fs = ProcFs::new(
            &t,
            ProcMountOpts {
                hidepid: HidePid::NoAccess,
                exempt_gid: None,
            },
        );
        assert_eq!(fs.list(&alice).len(), 3, "pids still enumerable");
        assert_eq!(
            fs.read_cmdline(&alice, Pid(3)),
            Err(ProcError::PermissionDenied)
        );
        assert!(fs.pid_exists_for(&alice, Pid(3)), "existence still leaks");
    }

    #[test]
    fn hidepid_2_makes_foreign_processes_invisible() {
        let (t, alice, bob, root) = table();
        let fs = ProcFs::new(
            &t,
            ProcMountOpts {
                hidepid: HidePid::Invisible,
                exempt_gid: None,
            },
        );
        // Alice sees only her own process.
        let entries = fs.list(&alice);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].uid, alice.uid);
        assert_eq!(fs.foreign_visible_count(&alice), 0);
        // Probing bob's pid looks like ESRCH, not EACCES.
        assert_eq!(fs.read_cmdline(&alice, Pid(3)), Err(ProcError::NotFound));
        assert!(!fs.pid_exists_for(&alice, Pid(3)));
        // Bob still sees himself; root sees all.
        assert_eq!(fs.list(&bob).len(), 1);
        assert_eq!(fs.list(&root).len(), 3);
    }

    #[test]
    fn exempt_gid_restores_support_staff_view() {
        let (t, _alice, _bob, _root) = table();
        let seepid_gid = Gid(900);
        let fs = ProcFs::new(&t, ProcMountOpts::llsc(seepid_gid));
        let staff = Credentials::with_groups(Uid(2000), Gid(2000), [seepid_gid]);
        assert_eq!(fs.list(&staff).len(), 3);
        assert!(fs.read_cmdline(&staff, Pid(2)).is_ok());
        // Without the group, the same person sees nothing foreign.
        let plain = Credentials::new(Uid(2000), Gid(2000));
        assert_eq!(fs.list(&plain).len(), 0);
    }

    #[test]
    fn environ_is_owner_only_even_at_hidepid_0() {
        let mut t = ProcessTable::new();
        let alice = Credentials::new(Uid(1), Gid(1));
        let bob = Credentials::new(Uid(2), Gid(2));
        let env = std::collections::BTreeMap::from([("TOKEN".to_string(), "s3cret".to_string())]);
        let pid = t.spawn_with_env(alice.clone(), ["job"], env, None, SimTime::ZERO);
        let fs = ProcFs::new(&t, ProcMountOpts::default());
        assert!(fs.read_environ(&alice, pid).is_ok());
        assert_eq!(fs.read_environ(&bob, pid), Err(ProcError::PermissionDenied));
        assert!(fs.read_environ(&Credentials::root(), pid).is_ok());
    }

    #[test]
    fn nonexistent_pid_is_not_found() {
        let (t, alice, ..) = table();
        let fs = ProcFs::new(&t, ProcMountOpts::default());
        assert_eq!(fs.read_cmdline(&alice, Pid(999)), Err(ProcError::NotFound));
        assert!(!fs.pid_exists_for(&alice, Pid(999)));
    }
}
