//! The Lustre `umask`/`smask` interaction (paper Sec. IV-C, footnote on
//! LU-4746, merged in Lustre 2.7.0).
//!
//! Pre-patch Lustre's create path read the process's `umask` variable
//! directly instead of going through the kernel accessor that the smask
//! patch hooks — so files created over Lustre silently escaped smask
//! enforcement. The fix replaced the direct read with the standard accessor.
//! We model both client generations so the regression is demonstrable.

use eus_simos::vfs::{FsCtx, FsResult, Ino, Mode, Vfs};

/// A Lustre client create path, patched or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LustreClient {
    /// True for Lustre ≥ 2.7.0 (LU-4746 merged): the create mask goes
    /// through the kernel accessor, so smask applies.
    pub(crate) patched: bool,
}

impl LustreClient {
    /// A fixed client.
    pub(crate) fn patched() -> Self {
        LustreClient { patched: true }
    }

    /// Create a file on a Lustre-backed filesystem through this client.
    pub(crate) fn create(
        &self,
        fs: &mut Vfs,
        ctx: &FsCtx,
        path: &str,
        mode: Mode,
    ) -> FsResult<Ino> {
        if self.patched {
            // Normal kernel path: Vfs applies umask + (if enforced) smask.
            fs.create(ctx, path, mode)
        } else {
            // Bug path: the smask never reaches the create, regardless of
            // the kernel patch. chmod on the same file would still be
            // smask-filtered — the leak is specifically at create time.
            let bypass = ctx.clone().with_smask(Mode::new(0));
            fs.create(&bypass, path, mode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smask::{apply_kernel_patches, LLSC_SMASK};
    use eus_simos::{Credentials, Gid, Uid};

    fn lustre_fs() -> (Vfs, FsCtx) {
        let mut fs = Vfs::standard_node_layout("lustre-scratch");
        apply_kernel_patches(&mut fs);
        let ctx = FsCtx::user(Credentials::new(Uid(100), Gid(100)))
            .with_umask(Mode::new(0))
            .with_smask(LLSC_SMASK);
        (fs, ctx)
    }

    #[test]
    fn unpatched_client_leaks_world_bits() {
        let (mut fs, ctx) = lustre_fs();
        LustreClient { patched: false }
            .create(&mut fs, &ctx, "/tmp/leaky", Mode::new(0o666))
            .unwrap();
        let mode = fs.stat(&ctx, "/tmp/leaky").unwrap().mode;
        assert!(mode.any_world(), "pre-LU-4746 escapes smask: {mode}");
    }

    #[test]
    fn patched_client_honors_smask() {
        let (mut fs, ctx) = lustre_fs();
        LustreClient::patched()
            .create(&mut fs, &ctx, "/tmp/tight", Mode::new(0o666))
            .unwrap();
        let mode = fs.stat(&ctx, "/tmp/tight").unwrap().mode;
        assert!(!mode.any_world(), "LU-4746 fixed: {mode}");
        assert_eq!(mode.bits(), 0o660);
    }

    #[test]
    fn chmod_still_enforced_even_with_unpatched_client() {
        // The bug is create-time only; the kernel chmod path still masks.
        let (mut fs, ctx) = lustre_fs();
        LustreClient { patched: false }
            .create(&mut fs, &ctx, "/tmp/f", Mode::new(0o666))
            .unwrap();
        fs.chmod(&ctx, "/tmp/f", Mode::new(0o666)).unwrap();
        assert!(!fs.stat(&ctx, "/tmp/f").unwrap().mode.any_world());
    }
}
