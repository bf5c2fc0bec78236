//! The File Permission Handler configuration and kernel-patch activation
//! (paper Sec. IV-C and the Reproducibility Appendix).
//!
//! The real artifact is two Linux kernel patches plus a PAM module. In this
//! reproduction the patch *points* live in `eus-simos::vfs` (they are kernel
//! behaviour); this module owns turning them on and the site policy around
//! them: the default smask value and the whitelists for the `smask_relax`
//! and `seepid` support tools.

use eus_simos::{Gid, Mode, Uid, Vfs};
use std::collections::BTreeSet;

/// The smask value LLSC deploys: clear all world (other-class) bits —
/// `umask 007`'s effect, but immutable and enforced even on chmod.
pub const LLSC_SMASK: Mode = Mode::new(0o007);

/// The relaxed mask `smask_relax` grants support staff: world write is still
/// blocked but world read/execute may be set, so widely-used datasets and
/// tools can be published.
pub const RELAXED_SMASK: Mode = Mode::new(0o002);

/// Enable both kernel patches on a filesystem: smask enforcement at
/// create/chmod, and the ACL grant restrictions.
pub fn apply_kernel_patches(fs: &mut Vfs) {
    fs.enforce_smask = true;
    fs.restrict_acl = true;
}

/// Site policy for the File Permission Handler deployment.
#[derive(Debug, Clone)]
pub struct FilePermissionHandler {
    /// The smask every login session opens with (the session module's
    /// job, run by the cluster's login path).
    pub default_smask: Mode,
    /// Support staff allowed to run `smask_relax`.
    pub relax_whitelist: BTreeSet<Uid>,
    /// Support staff allowed to run `seepid`.
    pub seepid_whitelist: BTreeSet<Uid>,
    /// The hidepid-exemption group `seepid` grants (the `gid=` mount option
    /// value on `/proc`).
    pub seepid_gid: Gid,
}

impl FilePermissionHandler {
    /// LLSC defaults: smask 007, empty whitelists, with the given exemption
    /// group.
    pub fn new(seepid_gid: Gid) -> Self {
        FilePermissionHandler {
            default_smask: LLSC_SMASK,
            relax_whitelist: BTreeSet::new(),
            seepid_whitelist: BTreeSet::new(),
            seepid_gid,
        }
    }

    /// Builder: whitelist a support-staff user for `smask_relax`.
    pub fn allow_relax(mut self, uid: Uid) -> Self {
        self.relax_whitelist.insert(uid);
        self
    }

    /// Builder: whitelist a support-staff user for `seepid`.
    pub fn allow_seepid(mut self, uid: Uid) -> Self {
        self.seepid_whitelist.insert(uid);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::{Credentials, FsCtx, NodeId, NodeOs, UserDb};

    #[test]
    fn patches_flip_both_flags() {
        let mut fs = Vfs::new("t");
        assert!(!fs.enforce_smask && !fs.restrict_acl);
        apply_kernel_patches(&mut fs);
        assert!(fs.enforce_smask && fs.restrict_acl);
    }

    #[test]
    fn smask_constants_match_paper() {
        // smask 007: no world bits survive.
        assert_eq!(Mode::new(0o777).clear(LLSC_SMASK).bits(), 0o770);
        // smask 002: world r-x allowed, world w blocked.
        assert_eq!(Mode::new(0o777).clear(RELAXED_SMASK).bits(), 0o775);
    }

    #[test]
    fn patched_fs_blocks_world_bits_end_to_end() {
        let mut fs = Vfs::standard_node_layout("t");
        apply_kernel_patches(&mut fs);
        let ctx = FsCtx::user(Credentials::new(Uid(100), Gid(100)))
            .with_smask(LLSC_SMASK)
            .with_umask(Mode::new(0));
        fs.create(&ctx, "/tmp/f", Mode::new(0o777)).unwrap();
        let st = fs.stat(&ctx, "/tmp/f").unwrap();
        assert_eq!(st.mode.bits(), 0o770);
        fs.chmod(&ctx, "/tmp/f", Mode::new(0o707)).unwrap();
        assert!(!fs.stat(&ctx, "/tmp/f").unwrap().mode.any_world());
    }

    #[test]
    fn whitelists_build() {
        let h = FilePermissionHandler::new(Gid(900))
            .allow_relax(Uid(5))
            .allow_seepid(Uid(5))
            .allow_seepid(Uid(6));
        assert!(h.relax_whitelist.contains(&Uid(5)));
        assert_eq!(h.seepid_whitelist.len(), 2);
        assert_eq!(h.default_smask, LLSC_SMASK);
    }

    #[test]
    fn sessions_get_the_site_smask() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let handler = FilePermissionHandler::new(Gid(900));

        let sid = node.open_session(db.credentials(alice).unwrap(), handler.default_smask);
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
        let sid = node.open_session(db.credentials(alice).unwrap(), LLSC_SMASK);
        let ctx = node.session(sid).unwrap().fs_ctx();

        let fs = &mut node.local_fs;
        fs.write_file(&ctx, "/tmp/drop", Mode::new(0o666), b"payload")
            .unwrap();
        let st = fs.stat(&ctx, "/tmp/drop").unwrap();
        assert!(!st.mode.any_world(), "world bits must be stripped");

        // And chmod inside the session cannot restore them.
        fs.chmod(&ctx, "/tmp/drop", Mode::new(0o666)).unwrap();
        assert!(!fs.stat(&ctx, "/tmp/drop").unwrap().mode.any_world());
    }

    #[test]
    fn unconfigured_node_keeps_vanilla_behaviour() {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut node = NodeOs::new(NodeId(1), "login1");
        let sid = node.open_session(db.credentials(alice).unwrap(), Mode::new(0));
        let ctx = node.session(sid).unwrap().fs_ctx().with_umask(Mode::new(0));
        node.local_fs
            .write_file(&ctx, "/tmp/open", Mode::new(0o666), b"x")
            .unwrap();
        assert_eq!(
            node.local_fs.stat(&ctx, "/tmp/open").unwrap().mode.bits(),
            0o666
        );
    }
}
