//! The Apache-httpd-plug-in side of the UBF (Appendix: "two Apache httpd
//! plug-ins" ship with the artifact).
//!
//! The web portal terminates the user's authenticated HTTPS session and then
//! forwards to an application listener on a compute node. This plug-in makes
//! the *portal* hop enforce the same user-based rule the packet path would:
//! the authenticated portal user plays the initiator role against the
//! target listener's identity, so "the entire connection path is
//! authenticated and authorized" (Sec. IV-E).

use crate::policy::{decide, Decision};
use crate::SharedUserDb;
use eus_simnet::PeerInfo;
use eus_simos::Credentials;

/// Authorization check the portal gateway calls before forwarding.
#[derive(Debug, Clone)]
pub struct HttpdUbfPlugin {
    db: SharedUserDb,
}

impl HttpdUbfPlugin {
    /// Bind the plug-in to the shared user database.
    pub fn new(db: SharedUserDb) -> Self {
        HttpdUbfPlugin { db }
    }

    /// May `portal_user` be forwarded to a backend owned by `listener`?
    pub fn authorize(&self, portal_user: &Credentials, listener: &PeerInfo) -> Decision {
        let initiator = PeerInfo::from_cred(portal_user);
        decide(&self.db.read(), &initiator, listener)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::shared_user_db;
    use eus_simos::UserDb;

    #[test]
    fn portal_user_reaches_own_backend_only() {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        let shared = shared_user_db(db);
        let plugin = HttpdUbfPlugin::new(shared.clone());

        let cred_a = shared.read().credentials(a).unwrap();
        let cred_b = shared.read().credentials(b).unwrap();
        let backend_a = PeerInfo::from_cred(&cred_a);

        assert!(plugin.authorize(&cred_a, &backend_a).allowed());
        assert!(!plugin.authorize(&cred_b, &backend_a).allowed());
    }

    #[test]
    fn group_backend_shared_via_egid() {
        let mut db = UserDb::new();
        let a = db.create_user("a").unwrap();
        let b = db.create_user("b").unwrap();
        let proj = db.create_project_group("proj", a).unwrap();
        db.add_to_group(a, proj, b).unwrap();
        let shared = shared_user_db(db);
        let plugin = HttpdUbfPlugin::new(shared.clone());

        let cred_a = shared.read().credentials(a).unwrap();
        let backend = PeerInfo::from_cred(&shared.read().newgrp(&cred_a, proj).unwrap());
        let cred_b = shared.read().credentials(b).unwrap();
        assert_eq!(
            plugin.authorize(&cred_b, &backend),
            Decision::AllowGroupMember
        );
    }
}
