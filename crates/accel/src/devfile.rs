//! `/dev` permission management for accelerators (paper Sec. IV-F):
//!
//! > "GPUs are assigned as a single-user resource. This is accomplished by
//! > modifying the permissions on relevant character special files in /dev/
//! > to allow only the user private group of the user allocated that GPU via
//! > the scheduler. With this method, GPUs that have not been assigned to a
//! > user are not visible at all."

use eus_simos::vfs::{FsCtx, FsResult, Mode};
use eus_simos::{DeviceId, Gid, Vfs, ROOT_GID, ROOT_UID};

/// Mode of an unassigned device: no access for anyone but root.
pub const UNASSIGNED_MODE: Mode = Mode::new(0o000);

/// Mode of an assigned device: read/write for owner group (the assignee's
/// user private group).
pub const ASSIGNED_MODE: Mode = Mode::new(0o660);

/// Create the device node for a GPU in a node's local filesystem, in the
/// unassigned (invisible) state.
pub fn create_device_node(fs: &mut Vfs, dev: DeviceId) -> FsResult<()> {
    let ctx = FsCtx::root().with_umask(Mode::new(0));
    fs.mknod(&ctx, &dev.dev_path(), dev, UNASSIGNED_MODE)?;
    Ok(())
}

/// Assign the device to a user private group: root chgrps the node and opens
/// group read/write (what the scheduler prolog does).
pub fn assign_device(fs: &mut Vfs, dev: DeviceId, upg: Gid) -> FsResult<()> {
    fs.set_meta_as_root(&dev.dev_path(), |m| {
        m.gid = upg;
        m.mode = ASSIGNED_MODE;
    })
}

/// Baseline (pre-hardening) configuration: many sites ship accelerator
/// device nodes world read/write (the `0666` udev default), which is what
/// makes Sec. IV-F's permission flipping necessary. The audit's baseline
/// cluster uses this.
pub fn set_device_world_open(fs: &mut Vfs, dev: DeviceId) -> FsResult<()> {
    fs.set_meta_as_root(&dev.dev_path(), |m| {
        m.mode = Mode::new(0o666);
    })
}

/// Revoke access (epilog): back to root-only, invisible.
pub fn revoke_device(fs: &mut Vfs, dev: DeviceId) -> FsResult<()> {
    fs.set_meta_as_root(&dev.dev_path(), |m| {
        m.uid = ROOT_UID;
        m.gid = ROOT_GID;
        m.mode = UNASSIGNED_MODE;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::vfs::Perm;
    use eus_simos::{Credentials, Uid};

    fn node_fs() -> Vfs {
        Vfs::standard_node_layout("gpu-node")
    }

    #[test]
    fn lifecycle_unassigned_assigned_revoked() {
        let mut fs = node_fs();
        let dev = DeviceId::gpu(0);
        create_device_node(&mut fs, dev).unwrap();

        let alice = FsCtx::user(Credentials::new(Uid(100), Gid(100)));
        // Unassigned: no access.
        assert!(fs.open_device(&alice, "/dev/gpu0", Perm::RW).is_err());

        // Assigned to alice's UPG: she can open, bob cannot.
        assign_device(&mut fs, dev, Gid(100)).unwrap();
        assert_eq!(fs.open_device(&alice, "/dev/gpu0", Perm::RW).unwrap(), dev);
        let bob = FsCtx::user(Credentials::new(Uid(101), Gid(101)));
        assert!(fs.open_device(&bob, "/dev/gpu0", Perm::RW).is_err());

        // Revoked: nobody again.
        revoke_device(&mut fs, dev).unwrap();
        assert!(fs.open_device(&alice, "/dev/gpu0", Perm::RW).is_err());
    }

    #[test]
    fn assignment_is_group_based_so_project_peers_do_not_inherit() {
        let mut fs = node_fs();
        let dev = DeviceId::gpu(1);
        create_device_node(&mut fs, dev).unwrap();
        assign_device(&mut fs, dev, Gid(100)).unwrap();
        // A project peer shares a *project* group, not the UPG: no access.
        let peer = FsCtx::user(Credentials::with_groups(Uid(102), Gid(102), [Gid(500)]));
        assert!(fs.open_device(&peer, "/dev/gpu1", Perm::RW).is_err());
    }
}
