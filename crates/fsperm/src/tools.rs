//! Support-staff escape hatches (paper Secs. IV-A, IV-C).
//!
//! HPC research facilitators are not full administrators but occasionally
//! need more than a regular user:
//!
//! * [`seepid`] — add the hidepid-exemption group to a whitelisted session so
//!   staff can attribute system load to users when troubleshooting.
//! * [`smask_relax`] — enter a relaxed smask (002) so staff can publish
//!   world-readable datasets, AI models, and tool trees; [`smask_restore`]
//!   returns to site default.
//!
//! Both are whitelist-gated: an unlisted user keeps full separation.

use crate::smask::{FilePermissionHandler, RELAXED_SMASK};
use eus_simos::pam::Session;
use eus_simos::Uid;
use std::fmt;

/// Tool invocation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolError {
    /// The caller is not on the whitelist for this tool.
    NotWhitelisted {
        /// Who asked.
        uid: Uid,
        /// Which tool refused.
        tool: &'static str,
    },
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::NotWhitelisted { uid, tool } => {
                write!(f, "{uid} is not whitelisted for {tool}")
            }
        }
    }
}

impl std::error::Error for ToolError {}

/// Add the `/proc` exemption group to the session's supplementary groups so
/// the caller sees all processes despite `hidepid=2`.
pub fn seepid(handler: &FilePermissionHandler, session: &mut Session) -> Result<(), ToolError> {
    if !handler.seepid_whitelist.contains(&session.user) {
        return Err(ToolError::NotWhitelisted {
            uid: session.user,
            tool: "seepid",
        });
    }
    session.cred = session.cred.with_extra_group(handler.seepid_gid);
    Ok(())
}

/// Relax the session's enforced smask to 002 (world read/execute allowed,
/// world write still blocked) for publishing shared data areas.
pub fn smask_relax(
    handler: &FilePermissionHandler,
    session: &mut Session,
) -> Result<(), ToolError> {
    if !handler.relax_whitelist.contains(&session.user) {
        return Err(ToolError::NotWhitelisted {
            uid: session.user,
            tool: "smask_relax",
        });
    }
    session.smask = RELAXED_SMASK;
    Ok(())
}

/// Leave the relaxed shell: restore the site-default smask.
pub fn smask_restore(handler: &FilePermissionHandler, session: &mut Session) {
    session.smask = handler.default_smask;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smask::{apply_kernel_patches, LLSC_SMASK};
    use eus_simcore::SimTime;
    use eus_simos::procfs::{HidePid, ProcMountOpts};
    use eus_simos::{Gid, Mode, NodeId, NodeOs, SessionId, UserDb};

    fn staff_node() -> (UserDb, NodeOs, FilePermissionHandler, Uid, Uid) {
        let mut db = UserDb::new();
        let staff = db.create_user("staff").unwrap();
        let user = db.create_user("researcher").unwrap();
        let seepid_gid = db.create_system_group("proc-exempt").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        node.proc_opts = ProcMountOpts {
            hidepid: HidePid::Invisible,
            exempt_gid: Some(seepid_gid),
        };
        apply_kernel_patches(&mut node.local_fs);
        let handler = FilePermissionHandler::new(seepid_gid)
            .allow_relax(staff)
            .allow_seepid(staff);
        (db, node, handler, staff, user)
    }

    /// A login session with the site smask the session module installs.
    fn login(db: &UserDb, node: &mut NodeOs, h: &FilePermissionHandler, u: Uid) -> SessionId {
        node.open_session(db.credentials(u).unwrap(), h.default_smask)
    }

    #[test]
    fn seepid_reveals_foreign_processes_for_staff_only() {
        let (db, mut node, handler, staff, user) = staff_node();
        // A researcher's job is running.
        let user_sid = login(&db, &mut node, &handler, user);
        node.spawn(user_sid, ["python", "train.py"], SimTime::ZERO)
            .unwrap();

        let staff_sid = login(&db, &mut node, &handler, staff);
        // Before seepid: hidepid=2 hides the researcher's process.
        let cred_before = node.session(staff_sid).unwrap().cred.clone();
        assert_eq!(node.procfs().foreign_visible_count(&cred_before), 0);

        // After seepid: full view.
        seepid(&handler, node.session_mut(staff_sid).unwrap()).unwrap();
        let cred_after = node.session(staff_sid).unwrap().cred.clone();
        assert_eq!(node.procfs().foreign_visible_count(&cred_after), 1);

        // The researcher cannot run seepid.
        let err = seepid(&handler, node.session_mut(user_sid).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            ToolError::NotWhitelisted { tool: "seepid", .. }
        ));
    }

    #[test]
    fn smask_relax_allows_world_read_not_world_write() {
        let (db, mut node, handler, staff, _user) = staff_node();
        let sid = login(&db, &mut node, &handler, staff);
        assert_eq!(node.session(sid).unwrap().smask, LLSC_SMASK);

        smask_relax(&handler, node.session_mut(sid).unwrap()).unwrap();
        let ctx = node.session(sid).unwrap().fs_ctx().with_umask(Mode::new(0));
        let fs = &mut node.local_fs;
        fs.write_file(&ctx, "/tmp/dataset", Mode::new(0o777), b"model")
            .unwrap();
        let mode = fs.stat(&ctx, "/tmp/dataset").unwrap().mode;
        assert_eq!(mode.bits(), 0o775, "world r-x allowed, world w stripped");

        // Leaving the relaxed shell restores enforcement.
        smask_restore(&handler, node.session_mut(sid).unwrap());
        let ctx2 = node.session(sid).unwrap().fs_ctx().with_umask(Mode::new(0));
        let fs = &mut node.local_fs;
        fs.write_file(&ctx2, "/tmp/private", Mode::new(0o777), b"x")
            .unwrap();
        assert!(!fs.stat(&ctx2, "/tmp/private").unwrap().mode.any_world());
    }

    #[test]
    fn relax_denied_for_regular_users() {
        let (db, mut node, handler, _staff, user) = staff_node();
        let sid = login(&db, &mut node, &handler, user);
        let err = smask_relax(&handler, node.session_mut(sid).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ToolError::NotWhitelisted {
                uid: user,
                tool: "smask_relax"
            }
        );
        assert_eq!(node.session(sid).unwrap().smask, LLSC_SMASK);
    }

    #[test]
    fn seepid_grants_membership_in_exemption_group_only() {
        let (db, mut node, handler, staff, _user) = staff_node();
        let sid = login(&db, &mut node, &handler, staff);
        seepid(&handler, node.session_mut(sid).unwrap()).unwrap();
        let cred = &node.session(sid).unwrap().cred;
        assert!(cred.is_member(handler.seepid_gid));
        // No other elevation: still not root, gid unchanged.
        assert!(!cred.is_root());
        assert_eq!(cred.uid, staff);
        let _ = Gid(0);
    }
}
