//! The per-cluster GPU pool: ties device state ([`crate::gpu::Gpu`]) to the
//! `/dev` permission lifecycle ([`crate::devfile`]) and the scheduler epilog.

use crate::devfile::{assign_device, create_device_node, revoke_device};
use crate::gpu::Gpu;
use eus_simos::vfs::FsResult;
use eus_simos::{DeviceId, Gid, NodeId, Uid, Vfs};
use std::collections::BTreeMap;

/// All GPUs in the cluster, keyed by (node, index).
#[derive(Debug, Default)]
pub struct GpuPool {
    gpus: BTreeMap<(NodeId, u16), Gpu>,
}

impl GpuPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `count` GPUs on a node, creating their device files in the
    /// node's local filesystem (unassigned, invisible).
    pub fn install(
        &mut self,
        node: NodeId,
        count: u16,
        mem_bytes: usize,
        fs: &mut Vfs,
    ) -> FsResult<()> {
        for i in 0..count {
            let gpu = Gpu::new(node, i, mem_bytes);
            create_device_node(fs, gpu.device)?;
            self.gpus.insert((node, i), gpu);
        }
        Ok(())
    }

    /// GPUs on a node.
    pub fn on_node(&self, node: NodeId) -> Vec<&Gpu> {
        self.gpus
            .range((node, 0)..=(node, u16::MAX))
            .map(|(_, g)| g)
            .collect()
    }

    /// Borrow one GPU.
    pub fn get(&self, node: NodeId, index: u16) -> Option<&Gpu> {
        self.gpus.get(&(node, index))
    }

    /// Mutably borrow one GPU (jobs write/read device memory through this).
    pub fn get_mut(&mut self, node: NodeId, index: u16) -> Option<&mut Gpu> {
        self.gpus.get_mut(&(node, index))
    }

    /// Assign the first `count` free GPUs on `node` to a user (prolog):
    /// records the assignee and flips the device-file group to their UPG.
    /// Returns the device ids assigned.
    pub fn assign(
        &mut self,
        node: NodeId,
        count: u16,
        user: Uid,
        upg: Gid,
        fs: &mut Vfs,
    ) -> FsResult<Vec<DeviceId>> {
        let free: Vec<u16> = self
            .gpus
            .range((node, 0)..=(node, u16::MAX))
            .filter(|(_, g)| g.assigned_to.is_none())
            .map(|((_, i), _)| *i)
            .take(count as usize)
            .collect();
        let mut out = Vec::with_capacity(free.len());
        for i in free {
            let gpu = self.gpus.get_mut(&(node, i)).expect("listed above");
            gpu.assigned_to = Some(user);
            assign_device(fs, gpu.device, upg)?;
            out.push(gpu.device);
        }
        Ok(out)
    }

    /// Release a user's GPUs on a node (epilog): unassign them and revoke
    /// `/dev` access. Device memory is left as it is; clearing it is the
    /// epilog's separate scrub step ([`Gpu::scrub`]). Returns the device ids
    /// released.
    pub fn release_user(
        &mut self,
        node: NodeId,
        user: Uid,
        fs: &mut Vfs,
    ) -> FsResult<Vec<DeviceId>> {
        let mine: Vec<u16> = self
            .gpus
            .range((node, 0)..=(node, u16::MAX))
            .filter(|(_, g)| g.assigned_to == Some(user))
            .map(|((_, i), _)| *i)
            .collect();
        let mut out = Vec::with_capacity(mine.len());
        for i in mine {
            let gpu = self.gpus.get_mut(&(node, i)).expect("listed above");
            gpu.assigned_to = None;
            revoke_device(fs, gpu.device)?;
            out.push(gpu.device);
        }
        Ok(out)
    }

    /// Total GPUs in the pool.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// True when no GPUs are installed.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GpuPool, Vfs) {
        let mut fs = Vfs::standard_node_layout("gpu-node");
        let mut pool = GpuPool::new();
        pool.install(NodeId(1), 2, 4096, &mut fs).unwrap();
        (pool, fs)
    }

    #[test]
    fn install_creates_device_files() {
        let (pool, fs) = setup();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.on_node(NodeId(1)).len(), 2);
        let root = eus_simos::FsCtx::root();
        assert!(fs.stat(&root, "/dev/gpu0").is_ok());
        assert!(fs.stat(&root, "/dev/gpu1").is_ok());
    }

    #[test]
    fn assign_takes_free_gpus_only() {
        let (mut pool, mut fs) = setup();
        let a = pool
            .assign(NodeId(1), 1, Uid(100), Gid(100), &mut fs)
            .unwrap();
        assert_eq!(a.len(), 1);
        let b = pool
            .assign(NodeId(1), 2, Uid(101), Gid(101), &mut fs)
            .unwrap();
        assert_eq!(b.len(), 1, "only one GPU left");
        assert_ne!(a[0], b[0]);
        let none = pool
            .assign(NodeId(1), 1, Uid(102), Gid(102), &mut fs)
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn remanence_attack_without_scrub_and_defense_with() {
        let (mut pool, mut fs) = setup();
        // Victim writes a secret, job ends WITHOUT scrub.
        pool.assign(NodeId(1), 1, Uid(100), Gid(100), &mut fs)
            .unwrap();
        pool.get_mut(NodeId(1), 0)
            .unwrap()
            .write(0, b"victim model weights")
            .unwrap();
        pool.release_user(NodeId(1), Uid(100), &mut fs).unwrap();

        // Attacker allocates next and reads the residue.
        pool.assign(NodeId(1), 1, Uid(200), Gid(200), &mut fs)
            .unwrap();
        let stolen = pool.get(NodeId(1), 0).unwrap().read(0, 20).unwrap();
        assert_eq!(stolen, b"victim model weights", "remanence leaks");
        pool.release_user(NodeId(1), Uid(200), &mut fs).unwrap();

        // Same flow with the epilog's scrub of what was released: the
        // attacker reads zeros.
        pool.assign(NodeId(1), 1, Uid(100), Gid(100), &mut fs)
            .unwrap();
        pool.get_mut(NodeId(1), 0)
            .unwrap()
            .write(0, b"secret2")
            .unwrap();
        let released = pool.release_user(NodeId(1), Uid(100), &mut fs).unwrap();
        assert_eq!(released, vec![DeviceId::gpu(0)]);
        let report = pool.get_mut(NodeId(1), 0).unwrap().scrub();
        assert!(report.duration > eus_simcore::SimDuration::ZERO);
        pool.assign(NodeId(1), 1, Uid(200), Gid(200), &mut fs)
            .unwrap();
        assert_eq!(
            pool.get(NodeId(1), 0).unwrap().read(0, 7).unwrap(),
            vec![0u8; 7]
        );
    }

    #[test]
    fn release_only_touches_that_users_gpus() {
        let (mut pool, mut fs) = setup();
        pool.assign(NodeId(1), 1, Uid(100), Gid(100), &mut fs)
            .unwrap();
        pool.assign(NodeId(1), 1, Uid(101), Gid(101), &mut fs)
            .unwrap();
        let released = pool.release_user(NodeId(1), Uid(100), &mut fs).unwrap();
        assert_eq!(released, vec![DeviceId::gpu(0)]);
        assert_eq!(pool.get(NodeId(1), 0).unwrap().assigned_to, None);
        assert_eq!(pool.get(NodeId(1), 1).unwrap().assigned_to, Some(Uid(101)));
    }
}
