//! `PrivateData` view filtering (paper Sec. IV-B).
//!
//! Slurm's `PrivateData` option hides other users' jobs, usage, and
//! accounting records from scheduler queries. The scheduler state itself is
//! unchanged — only the *views* (`squeue`, `sacct`) filter.

use eus_simos::{Credentials, NodeId, Uid};
use std::sync::Arc;

use crate::job::{JobId, JobSpec, JobState};

/// Which record classes are private. (Slurm has more; these are the ones the
/// paper's experiments exercise.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrivateData {
    /// Hide other users' queued/running jobs (`PrivateData=jobs`).
    pub jobs: bool,
    /// Hide other users' accounting/usage records (`PrivateData=usage`).
    pub usage: bool,
}

impl PrivateData {
    /// Everything visible — default Slurm.
    pub fn open() -> Self {
        Self::default()
    }

    /// The paper's configuration: all private.
    pub fn llsc() -> Self {
        PrivateData {
            jobs: true,
            usage: true,
        }
    }
}

/// One `squeue` row as seen by a particular viewer.
///
/// The row is a *view* over the job's shared spec (`Arc<JobSpec>`): building
/// it no longer deep-clones the name and command line per visible job per
/// call. Rows only exist for jobs the viewer may see — the `PrivateData`
/// redaction is whole-row (a hidden job contributes nothing), exactly as
/// before the spec moved behind `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Owner.
    pub user: Uid,
    /// The job's spec, shared with the scheduler (name, cmdline, and the
    /// rest are privacy-relevant — paper: "many job properties could
    /// contain private information including username, jobname, command,
    /// working directory path").
    pub spec: Arc<JobSpec>,
    /// State.
    pub state: JobState,
    /// Nodes allocated (running jobs).
    pub nodes: Vec<NodeId>,
}

impl JobView {}

/// May `viewer` see `owner`'s records of a class gated by `private_flag`?
pub fn may_view(viewer: &Credentials, owner: Uid, private_flag: bool, is_admin: bool) -> bool {
    !private_flag || viewer.is_root() || is_admin || viewer.uid == owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::Gid;

    #[test]
    fn open_config_shows_all() {
        let viewer = Credentials::new(Uid(1), Gid(1));
        assert!(may_view(&viewer, Uid(2), false, false));
    }

    #[test]
    fn private_hides_others_but_not_self() {
        let viewer = Credentials::new(Uid(1), Gid(1));
        assert!(!may_view(&viewer, Uid(2), true, false));
        assert!(may_view(&viewer, Uid(1), true, false));
    }

    #[test]
    fn root_and_admins_see_through() {
        assert!(may_view(&Credentials::root(), Uid(2), true, false));
        let operator = Credentials::new(Uid(9), Gid(9));
        assert!(may_view(&operator, Uid(2), true, true));
    }

    #[test]
    fn presets() {
        assert_eq!(PrivateData::open(), PrivateData::default());
        let p = PrivateData::llsc();
        assert!(p.jobs && p.usage);
    }
}
