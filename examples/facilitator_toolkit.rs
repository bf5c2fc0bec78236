//! The HPC-facilitator story (paper Secs. IV-A, IV-C): support staff are not
//! administrators, but whitelisted tools give them exactly two extras — see
//! all processes (`seepid`) and publish world-readable data (`smask_relax`)
//! — while everything else stays as locked down as for any user.
//!
//! ```text
//! cargo run --release --example facilitator_toolkit
//! ```

use hpc_user_separation::fsperm::{seepid, smask_relax, smask_restore};
use hpc_user_separation::simcore::SimTime;
use hpc_user_separation::simos::Mode;
use hpc_user_separation::{attribute_load, ClusterSpec, SecureCluster, SeparationConfig};

fn main() {
    let mut cluster = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::default());
    let facilitator = cluster.add_user("facilitator").unwrap();
    let heavy = cluster.add_user("grad-student").unwrap();
    let light = cluster.add_user("postdoc").unwrap();
    cluster.fsperm_policy = cluster
        .fsperm_policy
        .clone()
        .allow_seepid(facilitator)
        .allow_relax(facilitator);
    let login = cluster.login_node();

    println!("== facilitator toolkit walkthrough ==\n");

    // A ticket comes in: "the login node is slow."
    let h_sid = cluster.ssh(heavy, login).unwrap();
    for i in 0..7 {
        cluster
            .node_mut(login)
            .spawn(h_sid, ["python", &format!("tune-{i}.py")], SimTime::ZERO)
            .unwrap();
    }
    let l_sid = cluster.ssh(light, login).unwrap();
    cluster
        .node_mut(login)
        .spawn(l_sid, ["vim"], SimTime::ZERO)
        .unwrap();

    // Step 1: the facilitator logs in and looks around — hidepid=2 shows
    // them only themselves.
    let f_sid = cluster.ssh(facilitator, login).unwrap();
    let before = attribute_load(&cluster, login, f_sid);
    println!(
        "before seepid: sees {}/{} processes — cannot attribute the load",
        before.total_visible, before.total_actual
    );

    // Step 2: seepid (whitelisted) reveals the whole node.
    let policy = cluster.fsperm_policy.clone();
    seepid(&policy, cluster.node_mut(login).session_mut(f_sid).unwrap()).unwrap();
    let after = attribute_load(&cluster, login, f_sid);
    let (hot_uid, hot_n) = after.hotspot().expect("load exists");
    let hot_name = cluster.db.read().user(hot_uid).unwrap().name.clone();
    println!(
        "after  seepid: sees {}/{} — hotspot: {hot_name} with {hot_n} processes",
        after.total_visible, after.total_actual
    );

    // Step 3: publish a community dataset with smask_relax.
    smask_relax(&policy, cluster.node_mut(login).session_mut(f_sid).unwrap()).unwrap();
    let ctx = cluster
        .node(login)
        .session(f_sid)
        .unwrap()
        .fs_ctx()
        .with_umask(Mode::new(0));
    cluster
        .node_mut(login)
        .local_fs
        .write_file(&ctx, "/tmp/imagenet-index", Mode::new(0o644), b"...")
        .unwrap();
    smask_restore(&policy, cluster.node_mut(login).session_mut(f_sid).unwrap());
    let readable = cluster.fs_read(light, login, "/tmp/imagenet-index").is_ok();
    println!("published dataset readable by users: {readable}");

    // Step 4: the toolkit grants nothing else — the facilitator still can't
    // read user homes or connect to user services.
    cluster
        .fs_write(
            heavy,
            login,
            "/home/grad-student/thesis.tex",
            Mode::new(0o644),
            b"ch1",
        )
        .unwrap();
    let blocked = cluster
        .fs_read(facilitator, login, "/home/grad-student/thesis.tex")
        .is_err();
    println!("user homes still closed to staff: {blocked}");

    // And a regular user can invoke neither tool.
    let u_err = seepid(&policy, cluster.node_mut(login).session_mut(h_sid).unwrap()).is_err();
    println!("regular users denied the tools: {u_err}");

    assert!(readable && blocked && u_err);
    println!("\nleast privilege held: two escape hatches, each whitelisted, nothing more.");
}
