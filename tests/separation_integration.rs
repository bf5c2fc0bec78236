//! End-to-end integration: the full hardened cluster exercised across every
//! subsystem in one scenario, plus the defense-in-depth claims of Secs. IV-A
//! and V.

use hpc_user_separation::sched::{JobSpec, JobState, NodeSharing, QosClass};
use hpc_user_separation::simcore::{splitmix64, SimDuration, SimTime};
use hpc_user_separation::simnet::{ConnectError, Proto, SocketAddr};
use hpc_user_separation::simos::{Mode, Pid};
use hpc_user_separation::{
    audit, Channel, ClusterSpec, Mechanism, Residue, SecureCluster, SeparationConfig,
};

fn llsc() -> SecureCluster {
    SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::default())
}

#[test]
fn two_group_collaboration_story() {
    // Alice and Bob collaborate in a project; Eve is an outsider. Every
    // *intended* sharing channel works; every unintended one is closed.
    let mut c = llsc();
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let eve = c.add_user("eve").unwrap();
    let proj = c.create_project("fusion", alice).unwrap();
    c.add_project_member(alice, proj, bob).unwrap();
    let login = c.login_node();

    // Intended: shared data in /proj via the setgid directory.
    c.fs_write(
        alice,
        login,
        "/proj/fusion/mesh.dat",
        Mode::new(0o660),
        b"mesh",
    )
    .unwrap();
    assert_eq!(
        c.fs_read(bob, login, "/proj/fusion/mesh.dat").unwrap(),
        b"mesh"
    );
    assert!(c.fs_read(eve, login, "/proj/fusion/mesh.dat").is_err());

    // Intended: a group-opted service reachable by members only.
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    c.listen(alice, n2, Proto::Tcp, 7000, Some(proj)).unwrap();
    assert!(c
        .connect(bob, n1, SocketAddr::new(n2, 7000), Proto::Tcp)
        .is_ok());
    assert!(matches!(
        c.connect(eve, n1, SocketAddr::new(n2, 7000), Proto::Tcp),
        Err(ConnectError::DeniedByDaemon { .. })
    ));

    // Unintended: even project members do not see each other's processes,
    // jobs, or homes — group sharing is data-scoped, not identity-scoped.
    c.submit(JobSpec::new(
        alice,
        "fusion-run",
        SimDuration::from_secs(300),
    ));
    c.advance_to(SimTime::from_secs(1));
    let bob_cred = c.credentials(bob);
    assert_eq!(c.node(login).procfs().foreign_visible_count(&bob_cred), 0);
    assert_eq!(
        c.sched
            .read()
            .squeue(&bob_cred)
            .iter()
            .filter(|v| v.user == alice)
            .count(),
        0
    );
    c.fs_write(
        alice,
        login,
        "/home/alice/draft.tex",
        Mode::new(0o644),
        b"x",
    )
    .unwrap();
    assert!(c.fs_read(bob, login, "/home/alice/draft.tex").is_err());
}

#[test]
fn defense_in_depth_hidepid_still_matters_under_whole_node() {
    // Sec. IV-B: "one might remark that process hiding would be unnecessary
    // [under whole-node scheduling]. However ... there are still some nodes
    // like login nodes on which multiple simultaneous users are working."
    let cfg = SeparationConfig::llsc().without(Mechanism::HidePid); // drop the "redundant" control
    assert_eq!(cfg.node_policy, NodeSharing::WholeNodeUser);
    let report = audit::run_audit(&cfg, &ClusterSpec::tiny());
    let unexpected = report.unexpected_leaks();
    assert!(
        unexpected.contains(&audit::Channel::ProcList),
        "login nodes leak without hidepid even under whole-node scheduling:\n{report}"
    );
}

/// splitmix digest of each rendered audit line, one per line position,
/// folded over the reports in [`every_single_ablation_reopens_something`]'s
/// order (llsc, baseline, each `llsc().without(m)`, llsc with a trusted
/// sister realm). It pins every row's status and evidence string, so a
/// change to what any probe observes shows even when the open set holds.
const AUDIT_LINE_DIGESTS: [u64; 23] = [
    0xf36f48a85a94e455,
    0x4a3cdccebcd89ac7,
    0x544c1dd02caac362,
    0x22624d4965dde3b4,
    0xc0a433ae6ceef2a3,
    0x943a7e9e56784335,
    0xec6d4fdea52809c6,
    0x95954165459b5f08,
    0x43227cd0cbd36c36,
    0x52c2a39cef6d1d51,
    0xb31f7790d78c8720,
    0xb809500bd9551782,
    0x3a98dcc76cab7b4e,
    0xaf310c9552cd4075,
    0xdcdae89ff1b0b4aa,
    0x742a4bf8ee2365f0,
    0x85b494170cd58348,
    0xfbc9c9cc03a9f8f8,
    0x7498a9b49c487413,
    0x999c92cf8d1e460f,
    0x309b36abc32e66ed,
    0xd4e4952f2464f9eb,
    0x5118af24dbb4f9a8,
];

fn fold_line(h: u64, line: &str) -> u64 {
    line.bytes()
        .fold(splitmix64(h ^ line.len() as u64), |h, b| {
            splitmix64(h ^ b as u64)
        })
}

#[test]
fn every_single_ablation_reopens_something() {
    // The paper's defense-in-depth matrix, asserted exactly: the full config
    // leaves only the Sec. V residuals open, removing one mechanism re-opens
    // exactly the channels it closes and nothing else, trusting a sister
    // realm opens nothing, and the baseline leaks on every channel.
    let audit = |cfg: &SeparationConfig| audit::run_audit(cfg, &ClusterSpec::tiny());
    let residuals_plus = |m: Option<Mechanism>| -> Vec<Channel> {
        let closers = [None, m];
        Channel::all()
            .iter()
            .copied()
            .filter(|ch| closers.contains(&ch.closed_by()))
            .collect()
    };
    let mut reports = vec![
        (audit(&SeparationConfig::llsc()), residuals_plus(None)),
        (
            audit(&SeparationConfig::baseline()),
            Channel::all().to_vec(),
        ),
    ];
    for &m in Mechanism::all() {
        let cfg = SeparationConfig::llsc().without(m);
        reports.push((audit(&cfg), residuals_plus(Some(m))));
    }
    let trusted = SeparationConfig::llsc().with_trusted_realms([2u32]);
    reports.push((audit(&trusted), residuals_plus(None)));
    for (report, expected) in &reports {
        assert_eq!(&report.open_channels(), expected, "{}", report.label);
    }

    // The rendered reports, evidence included, line by line.
    let rendered: Vec<String> = reports.iter().map(|(r, _)| r.to_string()).collect();
    let lines: Vec<Vec<&str>> = rendered.iter().map(|r| r.lines().collect()).collect();
    let digests: Vec<u64> = (0..AUDIT_LINE_DIGESTS.len())
        .map(|i| {
            lines
                .iter()
                .fold(0, |h, l| fold_line(h, l.get(i).copied().unwrap_or("")))
        })
        .collect();
    if let Some(i) = (0..digests.len()).find(|&i| digests[i] != AUDIT_LINE_DIGESTS[i]) {
        let shown: Vec<String> = lines
            .iter()
            .map(|l| format!("  {}", l.get(i).copied().unwrap_or("<missing>")))
            .collect();
        let all: Vec<String> = digests.iter().map(|d| format!("    {d:#018x},")).collect();
        panic!(
            "rendered audit line {i} changed; that line in every report:\n{}\n\
             actual digests:\n{}",
            shown.join("\n"),
            all.join("\n")
        );
    }
    assert!(lines.iter().all(|l| l.len() == AUDIT_LINE_DIGESTS.len()));
}

#[test]
fn same_port_collision_cannot_crosstalk() {
    // Sec. V: "Even if two users accidentally choose the same port number
    // for a network service, they cannot crosstalk and corrupt each others
    // data."
    let mut c = llsc();
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let n1 = c.compute_ids[0];
    let n2 = c.compute_ids[1];
    // Both pick port 8080 on *different* nodes (same node would EADDRINUSE).
    c.listen(alice, n1, Proto::Tcp, 8080, None).unwrap();
    c.listen(bob, n2, Proto::Tcp, 8080, None).unwrap();
    // Alice's client, misconfigured with bob's node, cannot reach bob's
    // service; her own works.
    assert!(c
        .connect(alice, c.login_node(), SocketAddr::new(n2, 8080), Proto::Tcp)
        .is_err());
    assert!(c
        .connect(alice, c.login_node(), SocketAddr::new(n1, 8080), Proto::Tcp)
        .is_ok());
}

#[test]
fn seepid_and_smask_relax_work_only_for_whitelisted_staff() {
    use hpc_user_separation::fsperm::{seepid, smask_relax};
    let mut c = llsc();
    let staff = c.add_user("facilitator").unwrap();
    let user = c.add_user("researcher").unwrap();
    let login = c.login_node();
    // Whitelist the facilitator.
    c.fsperm_policy = c
        .fsperm_policy
        .clone()
        .allow_seepid(staff)
        .allow_relax(staff);

    // A researcher process is running.
    let r_sid = c.ssh(user, login).unwrap();
    c.node_mut(login)
        .spawn(r_sid, ["octave", "run.m"], SimTime::ZERO)
        .unwrap();

    // Staff initially sees nothing foreign; after seepid they see it.
    let s_sid = c.ssh(staff, login).unwrap();
    let before = c
        .node(login)
        .procfs()
        .foreign_visible_count(&c.node(login).session(s_sid).unwrap().cred);
    assert_eq!(before, 0);
    let policy = c.fsperm_policy.clone();
    seepid(&policy, c.node_mut(login).session_mut(s_sid).unwrap()).unwrap();
    let after = c
        .node(login)
        .procfs()
        .foreign_visible_count(&c.node(login).session(s_sid).unwrap().cred);
    assert!(after >= 1);

    // The researcher cannot use either tool.
    assert!(seepid(&policy, c.node_mut(login).session_mut(r_sid).unwrap()).is_err());
    assert!(smask_relax(&policy, c.node_mut(login).session_mut(r_sid).unwrap()).is_err());

    // Staff publishes a world-readable dataset via smask_relax.
    smask_relax(&policy, c.node_mut(login).session_mut(s_sid).unwrap()).unwrap();
    let ctx = c
        .node(login)
        .session(s_sid)
        .unwrap()
        .fs_ctx()
        .with_umask(Mode::new(0));
    c.node_mut(login)
        .local_fs
        .write_file(&ctx, "/tmp/public-dataset", Mode::new(0o644), b"weights")
        .unwrap();
    // The researcher can read it.
    assert!(c.fs_read(user, login, "/tmp/public-dataset").is_ok());
}

#[test]
fn gpu_lifecycle_under_full_config() {
    let mut c = llsc();
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();

    // Alice trains; her GPU is hers alone.
    c.submit(JobSpec::new(alice, "train", SimDuration::from_secs(50)).with_gpus_per_task(1));
    c.advance_to(SimTime::from_secs(1));
    let node = c.compute_ids[0];
    c.gpus
        .get_mut(node, 0)
        .unwrap()
        .write(0, b"weights!")
        .unwrap();
    let bob_ctx = c.user_fs_ctx(bob).unwrap();
    assert!(c
        .node(node)
        .local_fs
        .open_device(&bob_ctx, "/dev/gpu0", hpc_user_separation::simos::Perm::RW)
        .is_err());

    // After her job: scrubbed and unassigned.
    c.run_to_completion();
    let gpu = c.gpus.get(node, 0).unwrap();
    assert_eq!(gpu.assigned_to, None);
    assert!(!gpu.is_dirty(), "epilog scrub ran");

    // The other rows of the remanence matrix: the next tenant's job opens
    // its own device under every configuration, and reads the previous
    // job's bytes unless the epilog scrub ran; device permissions alone
    // leave them.
    const PATTERN: &[u8] = b"victim model weights v3";
    for (label, gpu_scrub, gpu_dev_perms, survives) in [
        ("baseline", false, false, true),
        ("scrub only", true, false, false),
        ("dev perms only", false, true, true),
    ] {
        let mut cfg = SeparationConfig::baseline();
        cfg.gpu_scrub = gpu_scrub;
        cfg.gpu_dev_perms = gpu_dev_perms;
        let mut c = SecureCluster::new(cfg, ClusterSpec::default());
        let victim = c.add_user("victim").unwrap();
        let attacker = c.add_user("attacker").unwrap();
        c.submit(JobSpec::new(victim, "train", SimDuration::from_secs(10)).with_gpus_per_task(1));
        c.advance_to(SimTime::from_secs(1));
        let node = c.compute_ids[0];
        c.gpus.get_mut(node, 0).unwrap().write(0, PATTERN).unwrap();
        c.run_to_completion();
        c.submit(JobSpec::new(attacker, "probe", SimDuration::from_secs(10)).with_gpus_per_task(1));
        let t = c.sched.read().now() + SimDuration::from_secs(1);
        c.advance_to(t);
        let ctx = c.user_fs_ctx(attacker).unwrap();
        let own_device = c.node(node).local_fs.open_device(
            &ctx,
            "/dev/gpu0",
            hpc_user_separation::simos::Perm::RW,
        );
        assert!(own_device.is_ok(), "{label}: the tenant opens its own GPU");
        let bytes = c.gpus.get(node, 0).unwrap().read(0, PATTERN.len()).unwrap();
        assert_eq!(bytes == PATTERN, survives, "{label}: remanence");
    }
}

#[test]
fn gpu_is_scrubbed_when_its_user_leaves_the_node_on_a_cpu_only_job() {
    // Whole-node-user lets alice hold a GPU job and a CPU-only job on the
    // one compute node. The GPU job ends first, while she is still active
    // there, so its epilog leaves the node alone; the CPU-only job's
    // epilog, when she leaves, must still scrub the GPU she held — whether
    // or not the scheduler manages the device permissions.
    let spec = ClusterSpec {
        compute_nodes: 1,
        ..ClusterSpec::tiny()
    };
    for config in [
        SeparationConfig::llsc(),
        SeparationConfig::llsc().without(Mechanism::GpuDevPerms),
    ] {
        let label = config.label();
        let perms = config.gpu_dev_perms;
        let mut c = SecureCluster::new(config, spec.clone());
        let alice = c.add_user("alice").unwrap();
        let bob = c.add_user("bob").unwrap();
        let node = c.compute_ids[0];

        c.submit(JobSpec::new(alice, "train", SimDuration::from_secs(10)).with_gpus_per_task(1));
        c.submit(JobSpec::new(alice, "post", SimDuration::from_secs(20)));
        c.advance_to(SimTime::from_secs(1));
        c.gpus
            .get_mut(node, 0)
            .unwrap()
            .write(0, b"alice weights")
            .unwrap();
        c.advance_to(SimTime::from_secs(15));
        if perms {
            assert_eq!(c.gpus.get(node, 0).unwrap().assigned_to, Some(alice));
        }

        // Bob's GPU job waits for the node, then lands on the same device.
        c.submit(JobSpec::new(bob, "probe", SimDuration::from_secs(100)).with_gpus_per_task(1));
        c.advance_to(SimTime::from_secs(30));
        let gpu = c.gpus.get(node, 0).unwrap();
        if perms {
            assert_eq!(gpu.assigned_to, Some(bob));
        }
        assert_eq!(
            gpu.read(0, 13).unwrap(),
            vec![0u8; 13],
            "{label}: bob reads zeros"
        );
    }
}

#[test]
fn a_departing_tenant_leaves_a_cotenants_gpu_alone() {
    // Shared placement puts alice's short GPU job and bob's long one on the
    // one compute node, one GPU each. Alice's last epilog there scrubs the
    // device she held, not bob's, which he is still using.
    let spec = ClusterSpec {
        compute_nodes: 1,
        gpus_per_node: 2,
        ..ClusterSpec::tiny()
    };
    let mut c = SecureCluster::new(SeparationConfig::llsc().without(Mechanism::WholeNode), spec);
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let node = c.compute_ids[0];
    c.submit(JobSpec::new(alice, "train", SimDuration::from_secs(10)).with_gpus_per_task(1));
    c.submit(JobSpec::new(bob, "train", SimDuration::from_secs(1000)).with_gpus_per_task(1));
    c.advance_to(SimTime::from_secs(1));
    let device_of = |c: &SecureCluster, user| {
        let gpus = c.gpus.on_node(node);
        gpus.iter()
            .find(|g| g.assigned_to == Some(user))
            .unwrap()
            .device
            .minor
    };
    let (a, b) = (device_of(&c, alice), device_of(&c, bob));
    assert_ne!(a, b);
    let gpus = &mut c.gpus;
    gpus.get_mut(node, a)
        .unwrap()
        .write(0, b"alice weights")
        .unwrap();
    gpus.get_mut(node, b)
        .unwrap()
        .write(0, b"bob weights")
        .unwrap();

    c.advance_to(SimTime::from_secs(20));
    assert!(c.residue_of(node, alice).is_empty());
    let read = |idx, len| c.gpus.get(node, idx).unwrap().read(0, len).unwrap();
    assert_eq!(read(a, 13), vec![0u8; 13], "alice's device is scrubbed");
    assert_eq!(read(b, 11), b"bob weights", "bob's device is not");
}

#[test]
fn a_web_app_stops_with_its_job() {
    // Alice's notebook belongs to job A; her job B keeps her on the node
    // after A ends, so only A's epilog can stop the app.
    let spec = ClusterSpec {
        compute_nodes: 1,
        ..ClusterSpec::tiny()
    };
    let mut c = SecureCluster::new(SeparationConfig::llsc(), spec);
    let alice = c.add_user("alice").unwrap();
    let (node, login) = (c.compute_ids[0], c.login_node());
    let a = c.submit(JobSpec::new(alice, "notebook", SimDuration::from_secs(10)));
    c.submit(JobSpec::new(alice, "train", SimDuration::from_secs(1000)));
    c.advance_to(SimTime::from_secs(1));
    c.launch_webapp(alice, a, "jupyter", node, 8888, "alice notebook", None)
        .unwrap();
    assert!(c.residue_of(node, alice).contains(&Residue::WebApps));

    c.advance_to(SimTime::from_secs(20));
    assert!(c.sched.read().has_running_job_on(alice, node));
    assert_eq!(c.residue_of(node, alice), vec![Residue::Procs]);
    let app = SocketAddr::new(node, 8888);
    assert_eq!(
        c.connect(alice, login, app, Proto::Tcp),
        Err(ConnectError::ConnectionRefused(app))
    );
}

#[test]
fn a_job_preempted_and_restarted_within_one_advance_runs_fresh_processes() {
    // Bob's short urgent job preempts alice's bulk job on the one compute
    // node, ends, and the bulk job restarts on the node — all inside one
    // `advance_to`. The epilog of the killed run and the prolog of the
    // restart meet in the same reconcile.
    let spec = ClusterSpec {
        compute_nodes: 1,
        ..ClusterSpec::tiny()
    };
    let mut c = SecureCluster::new(SeparationConfig::llsc().with_preemption(), spec);
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let node = c.compute_ids[0];
    let alice_pids = |c: &SecureCluster| -> Vec<Pid> {
        let procs = &c.node(node).procs;
        procs
            .iter()
            .filter(|p| p.uid() == alice)
            .map(|p| p.pid)
            .collect()
    };

    let bulk = c.submit(
        JobSpec::new(alice, "train", SimDuration::from_secs(3600)).with_qos(QosClass::Bulk),
    );
    c.advance_to(SimTime::from_secs(60));
    let killed = alice_pids(&c);
    assert!(!killed.is_empty());

    c.submit(JobSpec::new(bob, "debug", SimDuration::from_secs(10)).with_qos(QosClass::Urgent));
    c.advance_to(SimTime::from_secs(120));
    {
        let sched = c.sched.read();
        assert_eq!(sched.preemptions.len(), 1);
        assert_eq!(sched.preemptions[0].victim, bulk);
        assert_eq!(sched.jobs[&bulk].state, JobState::Running);
        assert_eq!(sched.jobs[&bulk].started, Some(SimTime::from_secs(70)));
    }
    let now = alice_pids(&c);
    assert!(!now.is_empty(), "the restarted job has processes");
    assert!(
        now.iter().all(|pid| !killed.contains(pid)),
        "a process of the killed run survived: {killed:?} vs {now:?}"
    );
    let procs = &c.node(node).procs;
    assert!(now.iter().all(|&pid| procs
        .get(pid)
        .is_some_and(|p| p.started == SimTime::from_secs(70))));
}

#[test]
fn containers_pass_through_every_host_control() {
    // Sec. IV-G: "all of the security features described in this paper pass
    // through to the container as well." Run mallory's scan from inside an
    // Apptainer-style container and verify nothing changes.
    use hpc_user_separation::containers::{HpcRuntime, Image};
    use hpc_user_separation::simos::Mode as FsMode;

    let mut c = llsc();
    let alice = c.add_user("alice").unwrap();
    let mallory = c.add_user("mallory").unwrap();
    let login = c.login_node();

    // Alice's work: a process and a file.
    let a_sid = c.ssh(alice, login).unwrap();
    c.node_mut(login)
        .spawn(a_sid, ["python", "secret-model.py"], SimTime::ZERO)
        .unwrap();
    c.fs_write(alice, login, "/home/alice/w.bin", FsMode::new(0o644), b"w")
        .unwrap();

    // Mallory's container session.
    let m_sid = c.ssh(mallory, login).unwrap();
    let session = c.node(login).session(m_sid).unwrap().clone();
    let image = Image::typical_research_stack("scanner.sif", SimTime::ZERO);
    let cp = HpcRuntime.launch(
        c.node_mut(login),
        &session,
        &image,
        ["ps", "-ef"],
        SimTime::ZERO,
    );
    // The containerized process has exactly mallory's credentials...
    let cred = c.node(login).procs.get(cp.pid).unwrap().cred.clone();
    assert_eq!(cred, session.cred);
    // ...so hidepid still hides alice...
    assert_eq!(c.node(login).procfs().foreign_visible_count(&cred), 0);
    // ...the smask still strips world bits from anything it drops...
    let ctx = session.fs_ctx();
    let tmp = &mut c.node_mut(login).local_fs;
    tmp.write_file(&ctx, "/tmp/from-container", FsMode::new(0o777), b"x")
        .unwrap();
    assert!(!tmp
        .stat(&ctx, "/tmp/from-container")
        .unwrap()
        .mode
        .any_world());
    // ...and alice's home stays closed.
    assert!(c.fs_read(mallory, login, "/home/alice/w.bin").is_err());
}
