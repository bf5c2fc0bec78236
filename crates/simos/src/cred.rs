//! Process credentials: the (uid, egid, supplementary groups) triple every
//! access-control decision in the paper reduces to.

use crate::ids::{Gid, Uid, ROOT_GID, ROOT_UID};
use std::collections::BTreeSet;

/// The identity a process or session acts with.
///
/// `gid` is the *effective* gid (the one new files and listening sockets are
/// labeled with, and the one the User-Based Firewall's group opt-in consults);
/// `groups` are supplementary memberships. Group membership checks consider
/// both, matching Linux `in_group_p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Effective user id.
    pub uid: Uid,
    /// Effective (primary) group id.
    pub gid: Gid,
    /// Supplementary group ids.
    pub groups: BTreeSet<Gid>,
}

impl Credentials {
    /// Credentials with no supplementary groups.
    pub fn new(uid: Uid, gid: Gid) -> Self {
        Credentials {
            uid,
            gid,
            groups: BTreeSet::new(),
        }
    }

    /// Credentials with supplementary groups.
    // analyze:allow(dead-pub): credentials carrying supplementary groups, as a process holds them
    pub fn with_groups(uid: Uid, gid: Gid, groups: impl IntoIterator<Item = Gid>) -> Self {
        Credentials {
            uid,
            gid,
            groups: groups.into_iter().collect(),
        }
    }

    /// The superuser.
    pub fn root() -> Self {
        Credentials::new(ROOT_UID, ROOT_GID)
    }

    /// True for uid 0.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.uid == ROOT_UID
    }

    /// True when `g` is the effective gid or a supplementary group.
    #[inline]
    pub fn is_member(&self, g: Gid) -> bool {
        self.gid == g || self.groups.contains(&g)
    }

    /// A copy with a different effective gid, as produced by `newgrp`/`sg`.
    /// Membership validation belongs to [`crate::users::UserDb::newgrp`]; this
    /// is the raw credential operation.
    pub fn with_egid(&self, g: Gid) -> Self {
        let mut c = self.clone();
        // The old egid remains available as a supplementary group, as login
        // shells do.
        c.groups.insert(c.gid);
        c.gid = g;
        c.groups.remove(&g);
        c
    }

    /// A copy with an extra supplementary group (the `seepid` operation).
    pub fn with_extra_group(&self, g: Gid) -> Self {
        let mut c = self.clone();
        c.groups.insert(g);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_checks_egid_and_supplementary() {
        let c = Credentials::with_groups(Uid(10), Gid(10), [Gid(50), Gid(60)]);
        assert!(c.is_member(Gid(10)));
        assert!(c.is_member(Gid(50)));
        assert!(!c.is_member(Gid(99)));
    }

    #[test]
    fn root_detection() {
        assert!(Credentials::root().is_root());
        assert!(!Credentials::new(Uid(5), Gid(5)).is_root());
    }

    #[test]
    fn newgrp_swaps_egid_and_keeps_old_membership() {
        let c = Credentials::with_groups(Uid(10), Gid(10), [Gid(50)]);
        let c2 = c.with_egid(Gid(50));
        assert_eq!(c2.gid, Gid(50));
        assert!(c2.is_member(Gid(10)), "old primary stays supplementary");
        assert!(!c2.groups.contains(&Gid(50)), "new egid not duplicated");
    }

    #[test]
    fn extra_group_is_additive() {
        let c = Credentials::new(Uid(1), Gid(1)).with_extra_group(Gid(999));
        assert!(c.is_member(Gid(999)));
        assert_eq!(c.gid, Gid(1));
    }
}
