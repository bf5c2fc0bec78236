//! The File Permission Handler's PAM module: installs the enforced `smask`
//! into every login session it opens. With the kernel patch active
//! ([`crate::smask::apply_kernel_patches`]), nothing the user does in that
//! session can set world permission bits.

use crate::smask::FilePermissionHandler;
use eus_simos::pam::{PamContext, PamModule, PamVerdict, Session};
use eus_simos::Mode;

/// PAM session module setting the per-session security mask.
#[derive(Debug, Clone)]
pub struct PamSmask {
    smask: Mode,
}

impl PamSmask {
    /// A module configured from site policy.
    pub fn from_handler(h: &FilePermissionHandler) -> Self {
        PamSmask {
            smask: h.default_smask,
        }
    }
}

impl PamModule for PamSmask {
    fn name(&self) -> &str {
        "pam_smask"
    }

    fn open_session(&self, _ctx: &PamContext, session: &mut Session) -> PamVerdict {
        session.smask = self.smask;
        PamVerdict::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smask::{apply_kernel_patches, LLSC_SMASK};
    use eus_simos::{Gid, NodeId, NodeOs, Uid, UserDb};

    #[test]
    fn sessions_get_the_site_smask() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let handler = FilePermissionHandler::new(Gid(900));
        node.pam.push(Box::new(PamSmask::from_handler(&handler)));

        let sid = node.login(&db, alice, "sshd").unwrap();
        let session = node.session(sid).unwrap();
        assert_eq!(session.smask, LLSC_SMASK);
        assert_eq!(session.fs_ctx().smask, LLSC_SMASK);
    }

    #[test]
    fn pam_plus_patch_blocks_world_sharing_via_session_io() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        apply_kernel_patches(&mut node.local_fs);
        node.pam.push(Box::new(PamSmask { smask: LLSC_SMASK }));
        let sid = node.login(&db, alice, "sshd").unwrap();
        let ctx = node.session(sid).unwrap().fs_ctx();

        let fs = &mut node.local_fs;
        fs.write_file(&ctx, "/tmp/drop", eus_simos::Mode::new(0o666), b"payload")
            .unwrap();
        let st = fs.stat(&ctx, "/tmp/drop").unwrap();
        assert!(!st.mode.any_world(), "world bits must be stripped");

        // And chmod inside the session cannot restore them.
        fs.chmod(&ctx, "/tmp/drop", eus_simos::Mode::new(0o666))
            .unwrap();
        assert!(!fs.stat(&ctx, "/tmp/drop").unwrap().mode.any_world());
    }

    #[test]
    fn unconfigured_node_keeps_vanilla_behaviour() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let sid = node.login(&db, alice, "sshd").unwrap();
        assert_eq!(node.session(sid).unwrap().smask, Mode::new(0));
        let uid = Uid(0);
        let _ = uid; // silence potential unused in minimal builds
    }
}
