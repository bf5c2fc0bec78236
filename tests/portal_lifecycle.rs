//! Portal + scheduler lifecycle integration: routes are born with web-app
//! jobs and die with them (the epilog wiring), and the load-attribution
//! support workflow runs on the assembled cluster.

use hpc_user_separation::portal::{PortalError, RouteKey};
use hpc_user_separation::sched::{JobKind, JobSpec};
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};

#[test]
fn routes_die_with_their_job() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();

    let job = c.submit(
        JobSpec::new(alice, "jupyter", SimDuration::from_secs(100)).with_kind(JobKind::WebApp),
    );
    c.advance_to(SimTime::from_secs(1));
    let node = {
        let sched = c.sched.read();
        *sched.jobs[&job].allocations.keys().next().unwrap()
    };
    let key = c
        .launch_webapp(alice, job, "jupyter", node, 8888, "nb", None)
        .unwrap();
    let token = c.portal_login(alice).unwrap();
    assert!(c.portal_fetch(token, &key).is_ok());
    assert_eq!(c.portal.routes.for_user(alice).len(), 1);

    // The job completes; the epilog removes the route.
    c.run_to_completion();
    assert!(
        c.portal.routes.for_user(alice).is_empty(),
        "route cleaned up by epilog"
    );
    assert!(matches!(
        c.portal_fetch(token, &key),
        Err(PortalError::NoSuchRoute(_))
    ));
}

#[test]
fn per_user_route_listing_is_private_by_construction() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let node = c.compute_ids[0];
    c.launch_webapp(
        alice,
        hpc_user_separation::sched::JobId(1),
        "a",
        node,
        8888,
        "x",
        None,
    )
    .unwrap();
    c.launch_webapp(
        bob,
        hpc_user_separation::sched::JobId(2),
        "b",
        node,
        8889,
        "y",
        None,
    )
    .unwrap();
    assert_eq!(c.portal.routes.for_user(alice).len(), 1);
    assert_eq!(c.portal.routes.for_user(bob).len(), 1);
}

#[test]
fn wrong_key_shapes_fail_cleanly() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let token = c.portal_login(alice).unwrap();
    let ghost = RouteKey {
        user: alice,
        job: hpc_user_separation::sched::JobId(404),
        name: "nothing".into(),
    };
    assert!(matches!(
        c.portal_fetch(token, &ghost),
        Err(PortalError::NoSuchRoute(_))
    ));
}

#[test]
fn load_attribution_workflow_end_to_end() {
    use hpc_user_separation::{attribute_load, fsperm::seepid};
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let staff = c.add_user("staff").unwrap();
    let user = c.add_user("user").unwrap();
    c.fsperm_policy = c.fsperm_policy.clone().allow_seepid(staff);
    let login = c.login_node();
    let u_sid = c.ssh(user, login).unwrap();
    for _ in 0..3 {
        c.node_mut(login).spawn(u_sid, ["hog"], SimTime::ZERO);
    }
    let s_sid = c.ssh(staff, login).unwrap();
    let before = attribute_load(&c, login, s_sid);
    assert!(before.total_visible < before.total_actual);
    let policy = c.fsperm_policy.clone();
    seepid(&policy, c.node_mut(login).session_mut(s_sid).unwrap()).unwrap();
    let report = attribute_load(&c, login, s_sid);
    assert_eq!(report.total_visible, report.total_actual);
    assert_eq!(report.hotspot(), Some((user, 3)));
}

#[test]
fn apps_reachable_on_any_partition_through_portal() {
    // Sec. IV-E: "we launch applications with web interfaces on any compute
    // node in any partition ... not restricted to a small partition".
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    {
        let mut sched = c.sched.write();
        let batch = c.compute_ids[0];
        let debug = c.compute_ids[1];
        sched.partitions_mut().add("batch", [batch], true).unwrap();
        sched.partitions_mut().add("debug", [debug], false).unwrap();
    }
    // A web-app job routed to the non-default debug partition.
    let job = c.submit(
        JobSpec::new(alice, "jupyter", SimDuration::from_secs(100))
            .with_kind(JobKind::WebApp)
            .with_partition("debug"),
    );
    c.advance_to(SimTime::from_secs(1));
    let node = {
        let sched = c.sched.read();
        *sched.jobs[&job]
            .allocations
            .keys()
            .next()
            .expect("scheduled")
    };
    assert_eq!(node, c.compute_ids[1], "routed to the debug partition");
    let key = c
        .launch_webapp(
            alice,
            job,
            "jupyter",
            node,
            8888,
            "debug-partition nb",
            None,
        )
        .unwrap();
    let token = c.portal_login(alice).unwrap();
    let resp = c.portal_fetch(token, &key).unwrap();
    assert_eq!(resp.body, "debug-partition nb");
}

/// Guard counts on `portal_fetch`: the account db's read guard once (the
/// plug-in's check and the forwarded connect share it), the broker's for
/// the session, and the judging UBF daemon's stats mutex. A plug-in refusal
/// stops before the connect.
#[cfg(lock_order_check)]
#[test]
fn portal_fetch_takes_three_guards() {
    fn guards<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = parking_lot::acquisitions();
        let r = f();
        (parking_lot::acquisitions() - before, r)
    }
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let job = hpc_user_separation::sched::JobId(1);
    let key = c
        .launch_webapp(alice, job, "nb", c.compute_ids[0], 8888, "nb", None)
        .unwrap();
    let token = c.portal_login(alice).unwrap();
    let (n, r) = guards(|| c.portal_fetch(token, &key));
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(n, 3, "allowed fetch");
    let token = c.portal_login(bob).unwrap();
    let (n, r) = guards(|| c.portal_fetch(token, &key));
    assert_eq!(r, Err(PortalError::Forbidden));
    assert_eq!(n, 2, "refused by the plug-in");
}
