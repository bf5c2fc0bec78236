//! Cluster user/group database implementing the paper's **user private group**
//! scheme (Sec. IV-C): every user's default group contains only themselves, so
//! group permission bits grant nothing until a *project group* — administered
//! by its data stewards — deliberately connects users.

use crate::cred::Credentials;
use crate::ids::{Gid, Uid, ROOT_GID, ROOT_UID};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What kind of group an entry is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupKind {
    /// A user private group: exactly one member, ever.
    UserPrivate(Uid),
    /// An approved project group with data stewards who control membership.
    Project {
        /// Users allowed to add/remove members (usually project leaders).
        stewards: BTreeSet<Uid>,
    },
    /// System groups (root, the `seepid` exemption group, …).
    System,
}

/// One group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group name.
    pub name: String,
    /// Group id.
    pub gid: Gid,
    /// Member uids.
    pub members: BTreeSet<Uid>,
    /// Group kind.
    pub kind: GroupKind,
}

/// One user account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Login name.
    pub name: String,
    /// User id.
    pub uid: Uid,
    /// The user's private group (their default/primary gid).
    pub private_group: Gid,
}

/// Errors from user-database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserDbError {
    /// Unknown uid.
    NoSuchUser(Uid),
    /// Unknown gid.
    NoSuchGroup(Gid),
    /// A user or group with this name already exists.
    DuplicateName(String),
    /// The actor is not a steward of the project group (and not root).
    NotSteward {
        /// Who attempted the change.
        actor: Uid,
        /// The group involved.
        group: Gid,
    },
    /// The user is not a member of the group.
    NotMember {
        /// The non-member.
        user: Uid,
        /// The group involved.
        group: Gid,
    },
    /// User private groups never gain or lose members.
    PrivateGroupImmutable(Gid),
}

impl fmt::Display for UserDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserDbError::NoSuchUser(u) => write!(f, "no such user {u}"),
            UserDbError::NoSuchGroup(g) => write!(f, "no such group {g}"),
            UserDbError::DuplicateName(n) => write!(f, "name already in use: {n}"),
            UserDbError::NotSteward { actor, group } => {
                write!(f, "{actor} is not a data steward of {group}")
            }
            UserDbError::NotMember { user, group } => {
                write!(f, "{user} is not a member of {group}")
            }
            UserDbError::PrivateGroupImmutable(g) => {
                write!(f, "{g} is a user private group; membership is fixed")
            }
        }
    }
}

impl std::error::Error for UserDbError {}

/// The cluster-wide account database (one instance shared by every node, the
/// scheduler, and the firewall daemons, as `/etc/passwd`+LDAP would be).
///
/// Deliberately not `Clone`: readers borrow it (through the cluster's lock
/// guard), so no per-event path can pay for a copy of every account.
#[derive(Debug)]
pub struct UserDb {
    users: BTreeMap<Uid, User>,
    groups: BTreeMap<Gid, Group>,
    users_by_name: BTreeMap<String, Uid>,
    groups_by_name: BTreeMap<String, Gid>,
    next_uid: u32,
    next_gid: u32,
    /// Bumped whenever an existing group gains or loses a member.
    membership_epoch: u64,
}

impl Default for UserDb {
    fn default() -> Self {
        Self::new()
    }
}

impl UserDb {
    /// A database containing only `root` (uid 0, gid 0).
    pub fn new() -> Self {
        let mut db = UserDb {
            users: BTreeMap::new(),
            groups: BTreeMap::new(),
            users_by_name: BTreeMap::new(),
            groups_by_name: BTreeMap::new(),
            next_uid: 1000,
            next_gid: 1000,
            membership_epoch: 0,
        };
        db.users.insert(
            ROOT_UID,
            User {
                name: "root".into(),
                uid: ROOT_UID,
                private_group: ROOT_GID,
            },
        );
        db.users_by_name.insert("root".into(), ROOT_UID);
        db.groups.insert(
            ROOT_GID,
            Group {
                name: "root".into(),
                gid: ROOT_GID,
                members: BTreeSet::from([ROOT_UID]),
                kind: GroupKind::System,
            },
        );
        db.groups_by_name.insert("root".into(), ROOT_GID);
        db
    }

    /// Create a user together with their user private group of the same name.
    pub fn create_user(&mut self, name: &str) -> Result<Uid, UserDbError> {
        if self.users_by_name.contains_key(name) || self.groups_by_name.contains_key(name) {
            return Err(UserDbError::DuplicateName(name.to_string()));
        }
        let uid = Uid(self.next_uid);
        self.next_uid += 1;
        let gid = Gid(self.next_gid);
        self.next_gid += 1;
        self.users.insert(
            uid,
            User {
                name: name.to_string(),
                uid,
                private_group: gid,
            },
        );
        self.users_by_name.insert(name.to_string(), uid);
        self.groups.insert(
            gid,
            Group {
                name: name.to_string(),
                gid,
                members: BTreeSet::from([uid]),
                kind: GroupKind::UserPrivate(uid),
            },
        );
        self.groups_by_name.insert(name.to_string(), gid);
        Ok(uid)
    }

    /// Create a system group (no steward workflow; root-managed).
    pub fn create_system_group(&mut self, name: &str) -> Result<Gid, UserDbError> {
        if self.groups_by_name.contains_key(name) {
            return Err(UserDbError::DuplicateName(name.to_string()));
        }
        let gid = Gid(self.next_gid);
        self.next_gid += 1;
        self.groups.insert(
            gid,
            Group {
                name: name.to_string(),
                gid,
                members: BTreeSet::new(),
                kind: GroupKind::System,
            },
        );
        self.groups_by_name.insert(name.to_string(), gid);
        Ok(gid)
    }

    /// Create an approved project group with an initial data steward, who is
    /// also its first member. In production this is done by HPC staff; here
    /// any caller may create groups but membership changes are steward-gated.
    pub fn create_project_group(&mut self, name: &str, steward: Uid) -> Result<Gid, UserDbError> {
        if !self.users.contains_key(&steward) {
            return Err(UserDbError::NoSuchUser(steward));
        }
        if self.groups_by_name.contains_key(name) {
            return Err(UserDbError::DuplicateName(name.to_string()));
        }
        let gid = Gid(self.next_gid);
        self.next_gid += 1;
        self.groups.insert(
            gid,
            Group {
                name: name.to_string(),
                gid,
                members: BTreeSet::from([steward]),
                kind: GroupKind::Project {
                    stewards: BTreeSet::from([steward]),
                },
            },
        );
        self.groups_by_name.insert(name.to_string(), gid);
        Ok(gid)
    }

    /// A user private group holds exactly its owner, whoever asks — root
    /// included, so the kind is looked at before the actor.
    fn steward_check(&self, actor: Uid, group: &Group) -> Result<(), UserDbError> {
        match &group.kind {
            GroupKind::UserPrivate(_) => Err(UserDbError::PrivateGroupImmutable(group.gid)),
            _ if actor == ROOT_UID => Ok(()),
            GroupKind::Project { stewards } if stewards.contains(&actor) => Ok(()),
            _ => Err(UserDbError::NotSteward {
                actor,
                group: group.gid,
            }),
        }
    }

    /// Add `user` to a project group. Only that group's data stewards (or
    /// root, standing in for HPC staff) may do this — the paper's "data
    /// stewards approve adding and deleting users in their groups".
    pub fn add_to_group(&mut self, actor: Uid, gid: Gid, user: Uid) -> Result<(), UserDbError> {
        if !self.users.contains_key(&user) {
            return Err(UserDbError::NoSuchUser(user));
        }
        let group = self
            .groups
            .get(&gid)
            .ok_or(UserDbError::NoSuchGroup(gid))?
            .clone();
        self.steward_check(actor, &group)?;
        self.groups
            .get_mut(&gid)
            .expect("checked above")
            .members
            .insert(user);
        self.membership_epoch += 1;
        Ok(())
    }

    /// Remove `user` from a project group (steward- or root-gated).
    // analyze:allow(dead-pub): a data steward manages project-group membership (paper Sec. IV-C)
    pub fn remove_from_group(
        &mut self,
        actor: Uid,
        gid: Gid,
        user: Uid,
    ) -> Result<(), UserDbError> {
        let group = self
            .groups
            .get(&gid)
            .ok_or(UserDbError::NoSuchGroup(gid))?
            .clone();
        self.steward_check(actor, &group)?;
        let g = self.groups.get_mut(&gid).expect("checked above");
        if !g.members.remove(&user) {
            return Err(UserDbError::NotMember { user, group: gid });
        }
        self.membership_epoch += 1;
        Ok(())
    }

    /// Changes every time an existing group gains or loses a member
    /// ([`add_to_group`](Self::add_to_group),
    /// [`remove_from_group`](Self::remove_from_group)). Anything that
    /// caches an answer derived from membership compares this and drops
    /// its cache when it has moved.
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Promote a member to data steward (existing steward or root only).
    // analyze:allow(dead-pub): a data steward manages project-group membership (paper Sec. IV-C)
    pub fn add_steward(&mut self, actor: Uid, gid: Gid, user: Uid) -> Result<(), UserDbError> {
        let group = self
            .groups
            .get(&gid)
            .ok_or(UserDbError::NoSuchGroup(gid))?
            .clone();
        self.steward_check(actor, &group)?;
        if !group.members.contains(&user) {
            return Err(UserDbError::NotMember { user, group: gid });
        }
        if let GroupKind::Project { stewards } =
            &mut self.groups.get_mut(&gid).expect("checked above").kind
        {
            stewards.insert(user);
        }
        Ok(())
    }

    /// Is `user` a member of `gid`?
    pub fn is_member(&self, user: Uid, gid: Gid) -> bool {
        self.groups
            .get(&gid)
            .map(|g| g.members.contains(&user))
            .unwrap_or(false)
    }

    /// All groups that list `user` as a member (includes the private group).
    pub fn groups_of(&self, user: Uid) -> BTreeSet<Gid> {
        self.groups
            .values()
            .filter(|g| g.members.contains(&user))
            .map(|g| g.gid)
            .collect()
    }

    /// Full login credentials for a user: primary gid is the private group,
    /// supplementary groups are every other membership.
    pub fn credentials(&self, user: Uid) -> Result<Credentials, UserDbError> {
        let u = self.users.get(&user).ok_or(UserDbError::NoSuchUser(user))?;
        let mut groups = self.groups_of(user);
        groups.remove(&u.private_group);
        Ok(Credentials {
            uid: user,
            gid: u.private_group,
            groups,
        })
    }

    /// `newgrp`/`sg`: switch a credential's effective gid to `gid`, verifying
    /// membership. This is how a user opts a listening service into a project
    /// group for the User-Based Firewall (Sec. IV-D).
    pub fn newgrp(&self, cred: &Credentials, gid: Gid) -> Result<Credentials, UserDbError> {
        if !self.groups.contains_key(&gid) {
            return Err(UserDbError::NoSuchGroup(gid));
        }
        if !self.is_member(cred.uid, gid) {
            return Err(UserDbError::NotMember {
                user: cred.uid,
                group: gid,
            });
        }
        Ok(cred.with_egid(gid))
    }

    /// Look up a user by id.
    pub fn user(&self, uid: Uid) -> Option<&User> {
        self.users.get(&uid)
    }

    /// Look up a user by name.
    pub fn user_by_name(&self, name: &str) -> Option<&User> {
        self.users_by_name.get(name).and_then(|u| self.users.get(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(names: &[&str]) -> (UserDb, Vec<Uid>) {
        let mut db = UserDb::new();
        let uids = names.iter().map(|n| db.create_user(n).unwrap()).collect();
        (db, uids)
    }

    #[test]
    fn user_private_group_scheme() {
        let (db, uids) = db_with(&["alice", "bob"]);
        let alice = db.credentials(uids[0]).unwrap();
        let bob = db.credentials(uids[1]).unwrap();
        // Private groups contain exactly their owner.
        assert_ne!(alice.gid, bob.gid);
        assert!(db.is_member(uids[0], alice.gid));
        assert!(!db.is_member(uids[1], alice.gid));
        // Fresh users share no groups.
        assert!(alice.groups.is_empty());
    }

    #[test]
    fn private_groups_are_immutable() {
        let (mut db, uids) = db_with(&["alice", "bob"]);
        let alice_gid = db.user(uids[0]).unwrap().private_group;
        let err = db.add_to_group(ROOT_UID, alice_gid, uids[1]).unwrap_err();
        assert_eq!(err, UserDbError::PrivateGroupImmutable(alice_gid));
    }

    #[test]
    fn project_group_steward_workflow() {
        let (mut db, uids) = db_with(&["lead", "member", "outsider"]);
        let g = db.create_project_group("proj", uids[0]).unwrap();
        let epoch = db.membership_epoch();
        // Steward can add; non-steward cannot.
        db.add_to_group(uids[0], g, uids[1]).unwrap();
        assert_ne!(db.membership_epoch(), epoch, "a join moves the epoch");
        let epoch = db.membership_epoch();
        let err = db.add_to_group(uids[2], g, uids[2]).unwrap_err();
        assert!(matches!(err, UserDbError::NotSteward { .. }));
        assert_eq!(db.membership_epoch(), epoch, "a refused join does not");
        // Members get it in their supplementary set.
        let cred = db.credentials(uids[1]).unwrap();
        assert!(cred.is_member(g));
        // Steward can remove.
        db.remove_from_group(uids[0], g, uids[1]).unwrap();
        assert!(!db.is_member(uids[1], g));
        assert_ne!(db.membership_epoch(), epoch, "a leave moves the epoch");
    }

    #[test]
    fn root_cannot_empty_a_private_group() {
        let (mut db, uids) = db_with(&["alice"]);
        let upg = db.user(uids[0]).unwrap().private_group;
        let epoch = db.membership_epoch();
        let err = db.remove_from_group(ROOT_UID, upg, uids[0]).unwrap_err();
        assert_eq!(err, UserDbError::PrivateGroupImmutable(upg));
        assert!(db.is_member(uids[0], upg), "the owner is still in it");
        assert_eq!(
            db.membership_epoch(),
            epoch,
            "a refused leave moves nothing"
        );
    }

    #[test]
    fn root_can_manage_project_groups() {
        let (mut db, uids) = db_with(&["lead", "member"]);
        let g = db.create_project_group("proj", uids[0]).unwrap();
        db.add_to_group(ROOT_UID, g, uids[1]).unwrap();
        assert!(db.is_member(uids[1], g));
    }

    #[test]
    fn steward_promotion_requires_membership() {
        let (mut db, uids) = db_with(&["lead", "member", "outsider"]);
        let g = db.create_project_group("proj", uids[0]).unwrap();
        db.add_to_group(uids[0], g, uids[1]).unwrap();
        db.add_steward(uids[0], g, uids[1]).unwrap();
        // The new steward can now add people.
        db.add_to_group(uids[1], g, uids[2]).unwrap();
        // Promoting a non-member fails.
        let (mut db2, uids2) = db_with(&["lead", "outsider"]);
        let g2 = db2.create_project_group("p2", uids2[0]).unwrap();
        let err = db2.add_steward(uids2[0], g2, uids2[1]).unwrap_err();
        assert!(matches!(err, UserDbError::NotMember { .. }));
    }

    #[test]
    fn newgrp_requires_membership() {
        let (mut db, uids) = db_with(&["alice", "bob"]);
        let g = db.create_project_group("proj", uids[0]).unwrap();
        let alice = db.credentials(uids[0]).unwrap();
        let switched = db.newgrp(&alice, g).unwrap();
        assert_eq!(switched.gid, g);

        let bob = db.credentials(uids[1]).unwrap();
        let err = db.newgrp(&bob, g).unwrap_err();
        assert!(matches!(err, UserDbError::NotMember { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = UserDb::new();
        db.create_user("alice").unwrap();
        assert!(matches!(
            db.create_user("alice"),
            Err(UserDbError::DuplicateName(_))
        ));
        // User names also collide with group names (UPG scheme).
        assert!(matches!(
            db.create_project_group("alice", ROOT_UID),
            Err(UserDbError::DuplicateName(_))
        ));
    }

    #[test]
    fn credentials_for_unknown_user_fail() {
        let db = UserDb::new();
        assert!(matches!(
            db.credentials(Uid(4242)),
            Err(UserDbError::NoSuchUser(_))
        ));
    }

    #[test]
    fn lookups_by_name() {
        let (db, uids) = db_with(&["alice"]);
        assert_eq!(db.user_by_name("alice").unwrap().uid, uids[0]);
        assert!(db.user_by_name("nobody").is_none());
    }
}
