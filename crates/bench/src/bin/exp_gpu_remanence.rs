//! E11 — GPU remanence and the epilog scrub (paper Sec. IV-F).
//!
//! A victim training job writes a recognizable pattern into GPU memory; the
//! next job on the device belongs to the attacker. We report how many bytes
//! of the pattern survive per configuration, and the modeled scrub cost
//! across device sizes.

use eus_bench::table::{f, TextTable};
use eus_core::{ClusterSpec, SecureCluster, SeparationConfig};
use eus_sched::JobSpec;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::Gid;

const PATTERN: &[u8] = b"victim model weights v3";

fn residue(config: SeparationConfig) -> (usize, bool) {
    let mut c = SecureCluster::new(config, ClusterSpec::default());
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
    // Can the attacker even open the device file on this config?
    let dev_open = c.user_fs_ctx(attacker).is_ok_and(|ctx| {
        c.node(node)
            .local_fs
            .open_device(&ctx, "/dev/gpu0", eus_simos::Perm::RW)
            .is_ok()
    });
    let bytes = c.gpus.get(node, 0).unwrap().read(0, PATTERN.len()).unwrap();
    let surviving = bytes
        .iter()
        .zip(PATTERN)
        .filter(|(a, b)| a == b && **b != 0)
        .count();
    (surviving, dev_open)
}

fn main() {
    println!("E11: GPU memory remanence (Sec. IV-F)\n");
    let mut table = TextTable::new(&["config", "pattern bytes surviving", "attacker dev access"]);

    let mut scrub_only = SeparationConfig::baseline();
    scrub_only.gpu_scrub = true;
    let mut perms_only = SeparationConfig::baseline();
    perms_only.gpu_dev_perms = true;

    for (label, cfg) in [
        ("baseline", SeparationConfig::baseline()),
        ("scrub only", scrub_only),
        ("dev perms only", perms_only),
        ("llsc (both)", SeparationConfig::llsc()),
    ] {
        let (surviving, dev_open) = residue(cfg);
        table.row(&[
            label.to_string(),
            format!("{surviving}/{}", PATTERN.len()),
            if dev_open {
                "open (own job)".into()
            } else {
                "own job only".to_string()
            },
        ]);
    }
    print!("{}", table.render());

    // Scrub cost model across device sizes.
    println!("\nmodeled epilog scrub cost (vendor clear at 4 GiB/s):");
    let mut cost = TextTable::new(&["device memory", "scrub time"]);
    for (label, bytes) in [
        ("16 GiB", 16usize << 30),
        ("40 GiB", 40usize << 30),
        ("80 GiB", 80usize << 30),
    ] {
        let gpu = eus_accel::Gpu::new(eus_simos::NodeId(1), 0, 0);
        let _ = gpu; // cost is linear; compute directly to avoid huge allocs
        let us = bytes.div_ceil(eus_accel::SCRUB_BYTES_PER_US);
        cost.row(&[label.to_string(), format!("{} s", f(us as f64 / 1e6, 2))]);
    }
    print!("{}", cost.render());

    let _ = Gid(0);
    println!("\nclaim check: without the scrub the next tenant reads the previous job's");
    println!("data verbatim; the epilog scrub zeroes it at seconds-per-job cost.");
}
