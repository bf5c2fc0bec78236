//! `EUS_FLIGHT_DUMP` carries the flight recorders, not only the trace
//! rings: after one scheduled job, an armed dump holds the scheduler's
//! `job.start`.
//!
//! One test in its own binary: `panicdump::armed` reads the environment
//! once per process, so the variable has to be set before anything else in
//! the process asks.

use hpc_user_separation::obs::{panicdump, ObsConfig};
use hpc_user_separation::sched::JobSpec;
use hpc_user_separation::simcore::{SimDuration, SimTime};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};

#[test]
fn an_armed_dump_holds_the_scheduler_job_trail() {
    let path = std::env::temp_dir().join(format!("eus-flight-dump-{}.json", std::process::id()));
    std::env::set_var("EUS_FLIGHT_DUMP", &path);
    assert!(panicdump::armed());

    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    c.enable_obs(ObsConfig::enabled());
    let alice = c.add_user("alice").unwrap();
    c.try_submit(JobSpec::new(alice, "one", SimDuration::from_secs(60)))
        .unwrap();
    c.advance_to(SimTime::from_secs(1));

    panicdump::write_dump();
    let dump = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    for plane in ["core.trace", "core.flight", "sched.trace", "sched.flight"] {
        assert!(
            dump.contains(&format!("\"{plane}\": ")),
            "{plane} missing:\n{dump}"
        );
    }
    assert!(
        dump.contains("\"kind\": \"job.start\""),
        "no job.start in the dump:\n{dump}"
    );
}
