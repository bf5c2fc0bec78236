//! The filesystem sharing matrix (paper Sec. IV-C + Appendix): "these
//! changes effectively prevent users sharing data via the filesystem unless
//! they are both members of the same supplemental group."

use hpc_user_separation::simos::{FsCtx, Gid, Mode, Perm, PosixAcl, Uid, ROOT_UID};
use hpc_user_separation::{ClusterSpec, Mechanism, SecureCluster, SeparationConfig};

struct World {
    c: SecureCluster,
    alice: Uid,
    bob: Uid,
    eve: Uid,
    proj: Gid,
}

fn world(config: SeparationConfig) -> World {
    let mut c = SecureCluster::new(config, ClusterSpec::tiny());
    let alice = c.add_user("alice").unwrap();
    let bob = c.add_user("bob").unwrap();
    let eve = c.add_user("eve").unwrap();
    let proj = c.create_project("fusion", alice).unwrap();
    c.add_project_member(alice, proj, bob).unwrap();
    World {
        c,
        alice,
        bob,
        eve,
        proj,
    }
}

#[test]
fn hardened_matrix_every_unintended_path_closed() {
    let mut w = world(SeparationConfig::llsc());
    let login = w.c.login_node();

    // (a) world bits at create: stripped.
    w.c.fs_write(w.alice, login, "/tmp/a", Mode::new(0o666), b"x")
        .unwrap();
    assert!(w.c.fs_read(w.eve, login, "/tmp/a").is_err());

    // (b) world bits via chmod: stripped.
    w.c.fs_write(w.alice, login, "/tmp/b", Mode::new(0o600), b"x")
        .unwrap();
    let effective =
        w.c.fs_chmod(w.alice, login, "/tmp/b", Mode::new(0o666))
            .unwrap();
    assert!(!effective.any_world());
    assert!(w.c.fs_read(w.eve, login, "/tmp/b").is_err());

    // (c) ACL to an unrelated user: refused by the restriction patch.
    w.c.fs_write(w.alice, login, "/tmp/c", Mode::new(0o600), b"x")
        .unwrap();
    assert!(w
        .c
        .fs_setfacl(
            w.alice,
            login,
            "/tmp/c",
            PosixAcl::new(Perm::NONE).with_user(w.eve, Perm::R)
        )
        .is_err());

    // (d) ACL to a group alice is not in: refused.
    let eve_upg = w.c.db.read().user(w.eve).unwrap().private_group;
    assert!(w
        .c
        .fs_setfacl(
            w.alice,
            login,
            "/tmp/c",
            PosixAcl::new(Perm::NONE).with_group(eve_upg, Perm::R)
        )
        .is_err());

    // (e) chgrp to a group alice is not in: plain DAC already refuses.
    let ctx = w.c.user_fs_ctx(w.alice).unwrap();
    let err =
        w.c.node_mut(login)
            .local_fs
            .chown(&ctx, "/tmp/c", None, Some(eve_upg));
    assert!(err.is_err());

    // (f) home directory: unreachable.
    w.c.fs_write(w.alice, login, "/home/alice/f", Mode::new(0o644), b"x")
        .unwrap();
    assert!(w.c.fs_read(w.eve, login, "/home/alice/f").is_err());
    assert!(
        w.c.fs_read(w.bob, login, "/home/alice/f").is_err(),
        "groups don't open homes"
    );

    // Intended paths still work:
    // (g) the project directory (setgid, group-writable),
    w.c.fs_write(
        w.alice,
        login,
        "/proj/fusion/shared",
        Mode::new(0o660),
        b"data",
    )
    .unwrap();
    assert_eq!(
        w.c.fs_read(w.bob, login, "/proj/fusion/shared").unwrap(),
        b"data"
    );
    assert!(w.c.fs_read(w.eve, login, "/proj/fusion/shared").is_err());

    // (h) an ACL naming a *fellow group member* on a traversable path,
    w.c.fs_write(w.alice, login, "/tmp/for-bob", Mode::new(0o600), b"ok")
        .unwrap();
    w.c.fs_setfacl(
        w.alice,
        login,
        "/tmp/for-bob",
        PosixAcl::new(Perm::NONE).with_user(w.bob, Perm::R),
    )
    .unwrap();
    assert_eq!(w.c.fs_read(w.bob, login, "/tmp/for-bob").unwrap(), b"ok");

    // (i) an ACL naming the project group itself.
    w.c.fs_write(w.alice, login, "/tmp/for-proj", Mode::new(0o600), b"ok")
        .unwrap();
    w.c.fs_setfacl(
        w.alice,
        login,
        "/tmp/for-proj",
        PosixAcl::new(Perm::NONE).with_group(w.proj, Perm::R),
    )
    .unwrap();
    assert_eq!(w.c.fs_read(w.bob, login, "/tmp/for-proj").unwrap(), b"ok");
}

/// Every sharing attempt of the paper's Appendix matrix, as (attempt,
/// did the target read the file). The target is the stranger eve unless
/// the attempt names the group member bob.
fn sharing_matrix(config: SeparationConfig) -> Vec<(&'static str, bool)> {
    let mut w = world(config);
    let (alice, bob, eve) = (w.alice, w.bob, w.eve);
    let login = w.c.login_node();
    let c = &mut w.c;
    let mut out = Vec::new();
    c.fs_write(alice, login, "/tmp/w", Mode::new(0o666), b"x")
        .unwrap();
    out.push((
        "create 0666 in /tmp",
        c.fs_read(eve, login, "/tmp/w").is_ok(),
    ));
    c.fs_write(alice, login, "/tmp/wc", Mode::new(0o600), b"x")
        .unwrap();
    let _ = c.fs_chmod(alice, login, "/tmp/wc", Mode::new(0o666));
    out.push(("chmod 0666", c.fs_read(eve, login, "/tmp/wc").is_ok()));
    c.fs_write(alice, login, "/tmp/acl-e", Mode::new(0o600), b"x")
        .unwrap();
    let to_eve = PosixAcl::new(Perm::NONE).with_user(eve, Perm::R);
    let granted = c.fs_setfacl(alice, login, "/tmp/acl-e", to_eve).is_ok();
    out.push((
        "setfacl u:eve:r",
        granted && c.fs_read(eve, login, "/tmp/acl-e").is_ok(),
    ));
    let eve_upg = c.db.read().user(eve).unwrap().private_group;
    let to_upg = PosixAcl::new(Perm::NONE).with_group(eve_upg, Perm::R);
    let granted = c.fs_setfacl(alice, login, "/tmp/acl-e", to_upg).is_ok();
    out.push((
        "setfacl g:<eve's upg>:r",
        granted && c.fs_read(eve, login, "/tmp/acl-e").is_ok(),
    ));
    c.fs_write(alice, login, "/home/alice/p", Mode::new(0o644), b"x")
        .unwrap();
    out.push((
        "0644 in own home",
        c.fs_read(eve, login, "/home/alice/p").is_ok(),
    ));
    c.fs_write(alice, login, "/tmp/acl-b", Mode::new(0o600), b"x")
        .unwrap();
    let to_bob = PosixAcl::new(Perm::NONE).with_user(bob, Perm::R);
    let granted = c.fs_setfacl(alice, login, "/tmp/acl-b", to_bob).is_ok();
    out.push((
        "setfacl u:bob:r, bob",
        granted && c.fs_read(bob, login, "/tmp/acl-b").is_ok(),
    ));
    c.fs_write(alice, login, "/proj/fusion/d", Mode::new(0o660), b"x")
        .unwrap();
    out.push((
        "setgid /proj, bob",
        c.fs_read(bob, login, "/proj/fusion/d").is_ok(),
    ));
    out.push((
        "setgid /proj",
        c.fs_read(eve, login, "/proj/fusion/d").is_ok(),
    ));
    out
}

#[test]
fn only_the_permission_handler_confines_sharing_to_the_group() {
    // The same llsc cluster on a vanilla kernel and on the patched one:
    // vanilla shares along every accidental path, patched only along the
    // two group-scoped ones. The project directory never reaches eve.
    let vanilla = [true, true, true, true, true, true, true, false];
    let patched = [false, false, false, false, false, true, true, false];
    for (config, expected) in [
        (SeparationConfig::llsc().without(Mechanism::Fsperm), vanilla),
        (SeparationConfig::llsc(), patched),
    ] {
        let label = config.label();
        let got = sharing_matrix(config);
        let shared: Vec<bool> = got.iter().map(|(_, ok)| *ok).collect();
        assert_eq!(shared, expected, "{label}: {got:?}");
    }
}

#[test]
fn baseline_matrix_leaks_everywhere() {
    let mut w = world(SeparationConfig::baseline());
    let login = w.c.login_node();
    // World bits work at create and via chmod; ACLs to anyone work; homes
    // are world-traversable.
    w.c.fs_write(w.alice, login, "/tmp/a", Mode::new(0o666), b"x")
        .unwrap();
    assert!(w.c.fs_read(w.eve, login, "/tmp/a").is_ok());

    w.c.fs_write(w.alice, login, "/tmp/c", Mode::new(0o600), b"x")
        .unwrap();
    w.c.fs_setfacl(
        w.alice,
        login,
        "/tmp/c",
        PosixAcl::new(Perm::NONE).with_user(w.eve, Perm::R),
    )
    .unwrap();
    assert!(w.c.fs_read(w.eve, login, "/tmp/c").is_ok());

    w.c.fs_write(w.alice, login, "/home/alice/f", Mode::new(0o644), b"x")
        .unwrap();
    assert!(w.c.fs_read(w.eve, login, "/home/alice/f").is_ok());
}

#[test]
fn tmp_names_leak_but_sticky_protects_content_manipulation() {
    // The residual disclosure (names) does not extend to tampering.
    let mut w = world(SeparationConfig::llsc());
    let login = w.c.login_node();
    w.c.fs_write(w.alice, login, "/tmp/alice-run-42", Mode::new(0o600), b"x")
        .unwrap();
    let eve_ctx = w.c.user_fs_ctx(w.eve).unwrap();
    let names = w.c.node(login).local_fs.readdir(&eve_ctx, "/tmp").unwrap();
    assert!(
        names.contains(&"alice-run-42".to_string()),
        "name leaks (residual)"
    );
    // But eve cannot delete, rename, or read it.
    assert!(w
        .c
        .node_mut(login)
        .local_fs
        .unlink(&eve_ctx, "/tmp/alice-run-42")
        .is_err());
    assert!(w.c.fs_read(w.eve, login, "/tmp/alice-run-42").is_err());
}

#[test]
fn local_tmp_is_per_node_shared_home_is_global() {
    let mut w = world(SeparationConfig::llsc());
    let n1 = w.c.compute_ids[0];
    let n2 = w.c.compute_ids[1];
    w.c.fs_write(w.alice, n1, "/tmp/scratch", Mode::new(0o600), b"local")
        .unwrap();
    assert!(
        w.c.fs_read(w.alice, n2, "/tmp/scratch").is_err(),
        "/tmp is node-local"
    );
    w.c.fs_write(w.alice, n1, "/home/alice/global", Mode::new(0o600), b"g")
        .unwrap();
    assert_eq!(
        w.c.fs_read(w.alice, n2, "/home/alice/global").unwrap(),
        b"g",
        "/home is cluster-wide"
    );

    // A mount point itself is the root of the cluster-wide tree. No node
    // has a local `/home` or `/proj`, so a miss would be `NotFound`.
    let root = FsCtx::root();
    w.c.fs_chmod(ROOT_UID, n1, "/home", Mode::new(0o711))
        .unwrap();
    w.c.fs_chmod(ROOT_UID, n2, "/proj", Mode::new(0o711))
        .unwrap();
    assert_eq!(w.c.shared_home.stat(&root, "/").unwrap().mode.bits(), 0o711);
    assert_eq!(w.c.shared_proj.stat(&root, "/").unwrap().mode.bits(), 0o711);

    // A name that only starts with a mount point is node-local: not
    // visible from a second node, and nowhere in the shared trees.
    let shared = |c: &SecureCluster| (c.shared_home.inode_count(), c.shared_proj.inode_count());
    let before = shared(&w.c);
    let mkdir = root.with_umask(Mode::new(0));
    for dir in ["/homework", "/projects"] {
        for n in [n1, n2] {
            w.c.node_mut(n)
                .local_fs
                .mkdir(&mkdir, dir, Mode::new(0o1777))
                .unwrap();
        }
        let path = format!("{dir}/notes");
        w.c.fs_write(w.alice, n1, &path, Mode::new(0o600), b"n1")
            .unwrap();
        assert_eq!(w.c.fs_read(w.alice, n1, &path).unwrap(), b"n1");
        assert!(
            w.c.fs_read(w.alice, n2, &path).is_err(),
            "{dir} is node-local"
        );
    }
    assert_eq!(shared(&w.c), before, "nothing landed under /home or /proj");
}

/// Each `fs_*` entry point takes exactly one lock: the account db's read
/// guard (judging the caller, and for `fs_setfacl` the ACL's group check
/// too). The filesystems themselves are owned by the cluster, not locked.
#[cfg(lock_order_check)]
#[test]
fn each_fs_call_takes_one_guard() {
    fn guards<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = parking_lot::acquisitions();
        let r = f();
        (parking_lot::acquisitions() - before, r)
    }
    let mut w = world(SeparationConfig::llsc());
    let login = w.c.login_node();
    let (alice, bob) = (w.alice, w.bob);
    for path in ["/tmp/g", "/home/alice/g", "/proj/fusion/g"] {
        let (n, r) = guards(|| w.c.fs_write(alice, login, path, Mode::new(0o660), b"x"));
        assert_eq!((n, r), (1, Ok(())), "fs_write {path}");
        let (n, r) = guards(|| w.c.fs_read(alice, login, path));
        assert_eq!((n, r), (1, Ok(b"x".to_vec())), "fs_read {path}");
        let (n, r) = guards(|| w.c.fs_chmod(alice, login, path, Mode::new(0o640)));
        assert_eq!((n, r), (1, Ok(Mode::new(0o640))), "fs_chmod {path}");
        let acl = PosixAcl::new(Perm::NONE).with_user(bob, Perm::R);
        let (n, r) = guards(|| w.c.fs_setfacl(alice, login, path, acl));
        assert_eq!((n, r), (1, Ok(())), "fs_setfacl {path}");
    }
}
