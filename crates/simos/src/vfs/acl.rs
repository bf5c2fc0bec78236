//! POSIX access control lists (the extended entries beyond the mode bits).
//!
//! Representation follows Linux: the **mask** is stored in the file's
//! group-class mode bits (see [`super::perm::Mode::group`]); this struct holds
//! the `ACL_GROUP_OBJ` permissions plus named `ACL_USER`/`ACL_GROUP` entries.
//! The paper's File Permission Handler restricts *which* entries a user may
//! set; that check lives in the VFS `setfacl` path so the data type itself
//! stays policy-free.

use crate::ids::{Gid, Uid};
use std::collections::BTreeMap;
use std::fmt;

use super::perm::Perm;

/// Extended ACL entries for one inode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PosixAcl {
    /// Permissions of the owning group (`ACL_GROUP_OBJ`); with an ACL present
    /// the mode's group bits become the mask, so this is stored here.
    pub group_obj: Perm,
    users: BTreeMap<Uid, Perm>,
    groups: BTreeMap<Gid, Perm>,
}

impl PosixAcl {
    /// An ACL with the given owning-group permissions and no named entries.
    pub fn new(group_obj: Perm) -> Self {
        PosixAcl {
            group_obj,
            users: BTreeMap::new(),
            groups: BTreeMap::new(),
        }
    }

    /// Builder: add (or replace) a named user entry.
    pub fn with_user(mut self, uid: Uid, perm: Perm) -> Self {
        self.users.insert(uid, perm);
        self
    }

    /// Builder: add (or replace) a named group entry.
    // analyze:allow(dead-pub): a user's `setfacl -m g:<group>:<perm>` grant, the ACL half of group sharing
    pub fn with_group(mut self, gid: Gid, perm: Perm) -> Self {
        self.groups.insert(gid, perm);
        self
    }

    /// Permissions of a named user entry, if present.
    pub fn user_perm(&self, uid: Uid) -> Option<Perm> {
        self.users.get(&uid).copied()
    }

    /// Iterate named group entries.
    pub fn group_entries(&self) -> impl Iterator<Item = (Gid, Perm)> + '_ {
        self.groups.iter().map(|(g, p)| (*g, *p))
    }

    /// Iterate named user entries.
    pub fn user_entries(&self) -> impl Iterator<Item = (Uid, Perm)> + '_ {
        self.users.iter().map(|(u, p)| (*u, *p))
    }

    /// True if any entry (including group_obj) carries an execute bit; used
    /// for root's execute check.
    pub fn any_exec_entry(&self) -> bool {
        self.group_obj.contains(Perm::X)
            || self.users.values().any(|p| p.contains(Perm::X))
            || self.groups.values().any(|p| p.contains(Perm::X))
    }

    /// The smallest mask that would not cut any named entry or the owning
    /// group — what `setfacl` computes when no explicit mask is given.
    pub fn implied_mask(&self) -> Perm {
        let mut m = self.group_obj;
        for p in self.users.values() {
            m = m.union(*p);
        }
        for p in self.groups.values() {
            m = m.union(*p);
        }
        m
    }
}

impl fmt::Display for PosixAcl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group::{}", self.group_obj)?;
        for (u, p) in &self.users {
            write!(f, ",user:{}:{}", u.0, p)?;
        }
        for (g, p) in &self.groups {
            write!(f, ",group:{}:{}", g.0, p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let acl = PosixAcl::new(Perm::RX)
            .with_user(Uid(5), Perm::RW)
            .with_group(Gid(9), Perm::R);
        assert_eq!(acl.user_perm(Uid(5)), Some(Perm::RW));
        assert_eq!(acl.user_perm(Uid(6)), None);
        assert_eq!(acl.group_entries().collect::<Vec<_>>(), [(Gid(9), Perm::R)]);
    }

    #[test]
    fn implied_mask_is_union() {
        let acl = PosixAcl::new(Perm::R)
            .with_user(Uid(5), Perm::W)
            .with_group(Gid(9), Perm::X);
        assert_eq!(acl.implied_mask(), Perm::RWX);
    }

    #[test]
    fn exec_detection() {
        assert!(!PosixAcl::new(Perm::RW).any_exec_entry());
        assert!(PosixAcl::new(Perm::NONE)
            .with_group(Gid(1), Perm::X)
            .any_exec_entry());
    }

    #[test]
    fn display_form() {
        let acl = PosixAcl::new(Perm::RX).with_user(Uid(5), Perm::RW);
        assert_eq!(acl.to_string(), "group::r-x,user:5:rw-");
    }

    #[test]
    fn replacing_entries() {
        let acl = PosixAcl::new(Perm::NONE)
            .with_user(Uid(5), Perm::R)
            .with_user(Uid(5), Perm::RWX);
        assert_eq!(acl.user_perm(Uid(5)), Some(Perm::RWX));
        assert_eq!(acl.user_entries().count(), 1);
    }
}
