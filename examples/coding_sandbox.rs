//! The paper's motivating story (Secs. II–III): every HPC user is a software
//! developer, and "version 0" code is buggy. This example runs a deliberately
//! hostile "version 0" program for user `mallory` on the hardened cluster and
//! shows that every attempted interaction with `alice` is contained — the
//! coding-sandbox property.
//!
//! ```text
//! cargo run --release --example coding_sandbox
//! ```

use hpc_user_separation::sched::JobSpec;
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::simnet::{ConnectError, Proto, SocketAddr};
use hpc_user_separation::simos::Mode;
use hpc_user_separation::{ClusterSpec, Mechanism, SecureCluster, SeparationConfig};

fn main() {
    let mut cluster = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::default());
    let alice = cluster.add_user("alice").unwrap();
    let mallory = cluster.add_user("mallory").unwrap();
    let login = cluster.login_node();

    println!("== coding sandbox: mallory's buggy 'version 0' vs alice ==\n");

    // Alice is doing normal work: a job, a file, a service.
    cluster.submit(JobSpec::new(alice, "climate-model", SimDuration::from_secs(600)).with_tasks(4));
    cluster.advance_to(SimTime::from_secs(1));
    cluster
        .fs_write(
            alice,
            login,
            "/home/alice/results.csv",
            Mode::new(0o644),
            b"t,temp\n0,287.4\n",
        )
        .unwrap();
    let alice_node = cluster.compute_ids[0];
    cluster
        .listen(alice, alice_node, Proto::Tcp, 5555, None)
        .unwrap();

    let mut contained = 0;
    let mut check = |name: &str, blocked: bool, detail: &str| {
        println!(
            "  [{}] {name}: {detail}",
            if blocked { "BLOCKED" } else { "LEAKED " }
        );
        if blocked {
            contained += 1;
        }
    };

    // 1. Scan processes for alice's work.
    let mcred = cluster.credentials(mallory);
    let seen = cluster.node(login).procfs().foreign_visible_count(&mcred);
    check(
        "ps scrape",
        seen == 0,
        "hidepid=2 shows mallory only her own processes",
    );

    // 2. squeue for alice's job names.
    let foreign_jobs = cluster
        .sched
        .read()
        .squeue(&mcred)
        .iter()
        .filter(|v| v.user == alice)
        .count();
    check(
        "squeue scrape",
        foreign_jobs == 0,
        "PrivateData hides foreign jobs",
    );

    // 3. Read alice's results.
    let read = cluster.fs_read(mallory, login, "/home/alice/results.csv");
    check(
        "home read",
        read.is_err(),
        "root-owned 0770 home, user private group",
    );

    // 4. Drop a world-readable exfil file for alice to 'find'.
    cluster
        .fs_write(mallory, login, "/tmp/pwned", Mode::new(0o777), b"run me")
        .unwrap();
    let stat = {
        let ctx = cluster.user_fs_ctx(mallory).unwrap();
        cluster
            .node(login)
            .local_fs
            .stat(&ctx, "/tmp/pwned")
            .unwrap()
    };
    check(
        "world-writable drop",
        !stat.mode.any_world(),
        "smask 007 strips world bits even on request 0777",
    );

    // 5. Port-scan alice's service.
    let conn = cluster.connect(
        mallory,
        cluster.compute_ids[1],
        SocketAddr::new(alice_node, 5555),
        Proto::Tcp,
    );
    check(
        "tcp connect",
        conn.is_err_and(
            |e| matches!(e, ConnectError::DeniedByDaemon { handler, .. } if handler == "ubf-daemon"),
        ),
        "UBF: different user, no group opt-in",
    );

    // 6. ssh to the node alice computes on.
    let ssh = cluster.ssh(mallory, alice_node);
    check(
        "ssh to her node",
        ssh.is_err_and(|e| e.mechanism() == Some(Mechanism::PamSlurm)),
        "pam_slurm: no running job there",
    );

    // 7. Submit a fork-bomb-sized job to crash shared nodes: whole-node
    //    scheduling means it can only take out mallory's own nodes.
    cluster.submit(
        JobSpec::new(mallory, "oops-oom", SimDuration::from_secs(60))
            .with_tasks(2)
            .with_mem_per_task(999_999),
    );
    cluster.advance_to(SimTime::from_secs(2));
    let cohabited = cluster
        .sched
        .read()
        .nodes
        .values()
        .any(|n| n.users_present().len() > 1);
    check(
        "node co-residency",
        !cohabited,
        "whole-node policy: her crash can only fail her own jobs",
    );

    println!("\n{contained}/7 interference attempts contained.");
    println!("mallory sees a personal HPC; alice never notices her.");
    assert_eq!(contained, 7);
}
