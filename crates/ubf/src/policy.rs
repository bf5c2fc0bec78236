//! The UBF decision rule (paper Sec. IV-D + Appendix):
//!
//! > "The ruleset implemented only permits a connection when the connecting
//! > and listening processes are running as the same user, or the connecting
//! > process is a member of the primary group (egid) of the listening
//! > process."
//!
//! The egid opt-in is what makes project-shared services work: a user runs
//! `newgrp proj` (or `sg proj -c ...`) before starting their server, and
//! every member of `proj` may then connect.

use eus_simnet::PeerInfo;
use eus_simos::UserDb;
use std::fmt;

/// Why a connection was allowed or denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Same uid on both ends.
    AllowSameUser,
    /// Connector is a member of the listener's effective gid.
    AllowGroupMember,
    /// One endpoint is a root-owned system service; host services are
    /// pre-approved by the PPS portion of the ruleset.
    AllowSystemService,
    /// No relationship between the endpoints.
    Deny,
}

impl Decision {
    /// Is this an allow?
    pub fn allowed(self) -> bool {
        !matches!(self, Decision::Deny)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Decision::AllowSameUser => "allow (same user)",
            Decision::AllowGroupMember => "allow (group member)",
            Decision::AllowSystemService => "allow (system service)",
            Decision::Deny => "deny",
        })
    }
}

// analyze:hot-path-begin(ubf-decide)
/// Decide a (initiator → listener) connection against the user database.
pub fn decide(db: &UserDb, initiator: &PeerInfo, listener: &PeerInfo) -> Decision {
    if initiator.is_root() || listener.is_root() {
        return Decision::AllowSystemService;
    }
    if initiator.uid == listener.uid {
        return Decision::AllowSameUser;
    }
    if db.is_member(initiator.uid, listener.egid) {
        return Decision::AllowGroupMember;
    }
    Decision::Deny
}
// analyze:hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::{Credentials, Pid, Uid};

    fn setup() -> (UserDb, Uid, Uid, Uid, eus_simos::Gid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let bob = db.create_user("bob").unwrap();
        let carol = db.create_user("carol").unwrap();
        let proj = db.create_project_group("proj", alice).unwrap();
        db.add_to_group(alice, proj, bob).unwrap();
        (db, alice, bob, carol, proj)
    }

    fn peer(db: &UserDb, uid: Uid) -> PeerInfo {
        PeerInfo::from_cred(&db.credentials(uid).unwrap())
    }

    #[test]
    fn same_user_allowed() {
        let (db, alice, ..) = setup();
        let p = peer(&db, alice);
        assert_eq!(decide(&db, &p, &p), Decision::AllowSameUser);
    }

    #[test]
    fn stranger_denied() {
        let (db, alice, _, carol, _) = setup();
        let a = peer(&db, alice);
        let c = peer(&db, carol);
        assert_eq!(decide(&db, &c, &a), Decision::Deny);
        assert_eq!(decide(&db, &a, &c), Decision::Deny);
    }

    #[test]
    fn group_optin_requires_listener_egid() {
        let (db, alice, bob, _, proj) = setup();
        // Alice listens with her default egid (her UPG): bob denied even
        // though they share `proj` — sharing requires the explicit opt-in.
        let a_default = peer(&db, alice);
        let b = peer(&db, bob);
        assert_eq!(decide(&db, &b, &a_default), Decision::Deny);
        // Alice runs `newgrp proj` and restarts her listener: bob allowed.
        let a_proj =
            PeerInfo::from_cred(&db.newgrp(&db.credentials(alice).unwrap(), proj).unwrap());
        assert_eq!(decide(&db, &b, &a_proj), Decision::AllowGroupMember);
        // Carol (not in proj) still denied.
        let carol = db.user_by_name("carol").unwrap().uid;
        let c = peer(&db, carol);
        assert_eq!(decide(&db, &c, &a_proj), Decision::Deny);
    }

    #[test]
    fn system_services_allowed() {
        let (db, alice, ..) = setup();
        let root = PeerInfo {
            pid: Some(Pid(1)),
            ..PeerInfo::from_cred(&Credentials::root())
        };
        let a = peer(&db, alice);
        assert!(decide(&db, &root, &a).allowed());
        assert!(decide(&db, &a, &root).allowed());
    }

    #[test]
    fn decision_display() {
        assert_eq!(Decision::Deny.to_string(), "deny");
        assert!(Decision::AllowSameUser.allowed());
        assert!(!Decision::Deny.allowed());
    }
}
