//! # eus-fsperm — the File Permission Handler
//!
//! Reproduction of the paper's first released artifact
//! (`mit-llsc/HPCFilePermissionHandler`, Sec. IV-C + Appendix): two kernel
//! patches and a PAM session smask that, combined with the user-private-group
//! scheme, prevent users from sharing data through the filesystem except via
//! membership in a common supplementary (project) group.
//!
//! * [`smask`] — patch activation ([`smask::apply_kernel_patches`]) and site
//!   policy ([`smask::FilePermissionHandler`], whose `default_smask` every
//!   login session opens with). The `smask` is like `umask 007` but
//!   **immutable and enforced, even on chmod**.
//! * [`tools`] — `seepid` and `smask_relax`/`smask_restore`, the whitelisted
//!   support-staff escape hatches.
//! * `lustre` (test-only) — the LU-4746 model: pre-2.7.0 Lustre clients
//!   bypassed the smask accessor at create time. No cluster path creates
//!   through a Lustre client, so the model and its demonstration live in
//!   the crate's tests.
//!
//! Property tests at the bottom of this crate state the headline invariant:
//! under the patch + session smask, **no operation available to an unprivileged
//! user ever produces a world-accessible file**.

#![warn(missing_docs)]

#[cfg(test)]
mod lustre;
pub mod smask;
pub mod tools;

pub use smask::{apply_kernel_patches, FilePermissionHandler, LLSC_SMASK, RELAXED_SMASK};
pub use tools::{seepid, smask_relax, smask_restore, ToolError};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use eus_simos::{Credentials, FsCtx, Gid, Mode, Perm, PosixAcl, Uid, UserDb, Vfs};
    use proptest::prelude::*;

    fn patched_fs() -> Vfs {
        let mut fs = Vfs::standard_node_layout("prop");
        apply_kernel_patches(&mut fs);
        fs
    }

    fn llsc_ctx(uid: u32) -> FsCtx {
        FsCtx::user(Credentials::new(Uid(uid), Gid(uid)))
            .with_umask(Mode::new(0o022))
            .with_smask(LLSC_SMASK)
    }

    proptest! {
        /// For any requested mode, a file created in an smask-007 session has
        /// no world bits.
        #[test]
        fn created_files_never_world_accessible(bits in 0u16..0o7777) {
            let mut fs = patched_fs();
            let ctx = llsc_ctx(100);
            fs.create(&ctx, "/tmp/f", Mode::new(bits)).unwrap();
            let mode = fs.stat(&ctx, "/tmp/f").unwrap().mode;
            prop_assert!(!mode.any_world(), "requested {bits:o} got {mode}");
        }

        /// For any chmod request on an existing file, world bits never appear.
        #[test]
        fn chmod_never_introduces_world_bits(
            create_bits in 0u16..0o7777,
            chmod_bits in 0u16..0o7777,
        ) {
            let mut fs = patched_fs();
            let ctx = llsc_ctx(100);
            fs.create(&ctx, "/tmp/f", Mode::new(create_bits)).unwrap();
            let effective = fs.chmod(&ctx, "/tmp/f", Mode::new(chmod_bits)).unwrap();
            prop_assert!(!effective.any_world());
            prop_assert!(!fs.stat(&ctx, "/tmp/f").unwrap().mode.any_world());
        }

        /// Root (system services) is exempt from the smask, for any mode.
        #[test]
        fn root_exempt_from_smask(bits in 0u16..0o777) {
            let mut fs = patched_fs();
            let root = FsCtx::root().with_umask(Mode::new(0)).with_smask(LLSC_SMASK);
            fs.create(&root, "/tmp/sys", Mode::new(bits)).unwrap();
            let mode = fs.stat(&root, "/tmp/sys").unwrap().mode;
            prop_assert_eq!(mode.bits(), bits);
        }

        /// The ACL restriction patch: a grant to a user with no shared group
        /// is always rejected; a grant to a shared project-group member is
        /// always accepted — regardless of the permission bits requested.
        #[test]
        fn acl_grants_respect_group_boundaries(perm_bits in 0u8..8) {
            let mut fs = patched_fs();
            let mut db = UserDb::new();
            let granter = db.create_user("granter").unwrap();
            let friend = db.create_user("friend").unwrap();
            let stranger = db.create_user("stranger").unwrap();
            let proj = db.create_project_group("proj", granter).unwrap();
            db.add_to_group(granter, proj, friend).unwrap();

            let ctx = FsCtx::user(db.credentials(granter).unwrap())
                .with_smask(LLSC_SMASK);
            fs.create(&ctx, "/tmp/data", Mode::new(0o640)).unwrap();
            let perm = Perm::from_bits(perm_bits);

            let to_stranger = PosixAcl::new(Perm::NONE).with_user(stranger, perm);
            prop_assert!(fs.setfacl(&ctx, "/tmp/data", to_stranger, &db).is_err());

            let to_friend = PosixAcl::new(Perm::NONE).with_user(friend, perm);
            prop_assert!(fs.setfacl(&ctx, "/tmp/data", to_friend, &db).is_ok());

            let to_proj = PosixAcl::new(Perm::NONE).with_group(proj, perm);
            prop_assert!(fs.setfacl(&ctx, "/tmp/data", to_proj, &db).is_ok());
        }

        /// Sharing invariant (the Appendix claim): with patches + UPG scheme,
        /// for ANY sequence of create/chmod attempts by user A in a sticky
        /// world-writable directory, user B (no shared groups) can never read
        /// the file contents.
        #[test]
        fn no_cross_user_read_via_tmp(
            create_bits in 0u16..0o7777,
            chmod_bits in proptest::option::of(0u16..0o7777),
        ) {
            let mut fs = patched_fs();
            let a = llsc_ctx(100);
            let b = llsc_ctx(101);
            fs.create(&a, "/tmp/x", Mode::new(create_bits)).unwrap();
            fs.write(&a, "/tmp/x", b"secret").ok(); // may fail if A stripped own w
            if let Some(bits) = chmod_bits {
                fs.chmod(&a, "/tmp/x", Mode::new(bits)).unwrap();
            }
            prop_assert!(fs.read(&b, "/tmp/x").is_err(), "B must never read A's file");
        }
    }
}
