//! Trace-layer (obs v2) properties:
//!
//! 1. **Quiet-vs-loud equality** — the same portal/scheduler/revsync op
//!    sequence produces *identical decisions* with tracing off and on.
//!    Tracing is pure measurement: a `TraceCtx` rides along with the
//!    work but never steers it.
//! 2. **Well-formedness** — every trace a loud run mints assembles into
//!    a proper tree: exactly one root, no orphan parents, and sim-time
//!    monotone from parent to child (`eus_core::obs::check_well_formed`).
//! 3. **The acceptance chain** — whenever a portal revocation reaches a
//!    lagging sister and the feed later delivers it, the revoke trace
//!    carries the full `portal.route.revoke → cred.revoke.serial →
//!    revsync.mesh.push → revsync.replica.apply` prefix, whatever the
//!    surrounding schedule.

mod common;

use eus_fedauth::{shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SignedToken};
use eus_simcore::{SimDuration, SimTime};
use hpc_user_separation::obs::{check_well_formed, AlertKind, ObsConfig, TraceSpan};
use hpc_user_separation::sched::{JobSpec, QosClass};
use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One cluster under a fixed op sequence; `loud` turns every ring on.
struct Run {
    c: SecureCluster,
    sister: eus_fedauth::SharedBroker,
    minted: Vec<SignedToken>,
    clock: SimTime,
    /// The observable decision stream — must match quiet vs loud.
    outcomes: Vec<String>,
}

impl Run {
    fn new(loud: bool) -> Self {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        if loud {
            c.enable_obs(ObsConfig::enabled());
        }
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xFED5,
            BrokerPolicy::default(),
        ));
        if loud {
            sister.read().trace.set_enabled(true);
        }
        c.register_sister_realm(RealmId(2), sister.clone());
        Run {
            c,
            sister,
            minted: Vec::new(),
            clock: SimTime::ZERO,
            outcomes: Vec::new(),
        }
    }

    fn step(&mut self, alice: eus_simos::Uid, op: (u8, u8)) {
        let (action, subject) = op;
        let out = match action % 6 {
            0 => {
                let spec = JobSpec::new(alice, "job", SimDuration::from_secs(10 + subject as u64));
                format!("submit:{}", common::shape(&self.c.try_submit(spec)))
            }
            1 => {
                self.clock += SimDuration::from_secs(10 * (1 + subject as u64 % 3));
                self.c.advance_to(self.clock);
                format!("advance:{}", self.clock)
            }
            2 => {
                let r = self.c.login_at(&self.sister, alice);
                let s = common::shape(&r);
                if let Ok(t) = r {
                    self.minted.push(t);
                }
                format!("login:{s}")
            }
            3 => match self.minted.get(subject as usize) {
                Some(t) => {
                    let t = *t;
                    format!(
                        "validate:{}",
                        common::shape(&self.c.validate_federated_token(&t))
                    )
                }
                None => "validate:none".into(),
            },
            4 => match self.minted.get(subject as usize) {
                Some(t) => {
                    let serial = t.serial;
                    format!("revoke:{}", self.c.portal_revoke_serial(RealmId(2), serial))
                }
                None => "revoke:none".into(),
            },
            _ => {
                let down = subject % 2 == 0;
                self.c.partition_sister_feed(RealmId(2), down);
                format!("partition:{down}")
            }
        };
        self.outcomes.push(out);
    }

    /// Every span on every ring this run can reach.
    fn all_spans(&self) -> Vec<TraceSpan> {
        let mut spans = Vec::new();
        spans.extend(self.c.obs.trace.spans());
        spans.extend(self.c.portal.obs.trace.spans());
        spans.extend(self.c.sched.read().obs.trace.spans());
        if let Some(b) = &self.c.broker {
            spans.extend(b.read().trace.spans());
        }
        if let Some(m) = &self.c.revsync {
            spans.extend(m.obs.trace.spans());
        }
        spans.extend(self.sister.read().trace.spans());
        spans
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Properties 1 and 2 on arbitrary op sequences.
    #[test]
    fn tracing_never_changes_decisions_and_every_tree_is_well_formed(
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..60),
    ) {
        let mut quiet = Run::new(false);
        let mut loud = Run::new(true);
        let alice_q = quiet.c.add_user("alice").unwrap();
        let alice_l = loud.c.add_user("alice").unwrap();
        for &op in &ops {
            quiet.step(alice_q, op);
            loud.step(alice_l, op);
        }

        // 1. Identical decision streams.
        prop_assert_eq!(&quiet.outcomes, &loud.outcomes);
        // The quiet run recorded nothing on any ring.
        prop_assert!(quiet.all_spans().is_empty());

        // 2. Every loud trace assembles into a well-formed tree.
        let traces: BTreeSet<u64> = loud.all_spans().iter().map(|s| s.trace).collect();
        for trace in traces {
            let spans = loud.c.collect_trace(trace);
            if let Err(e) = check_well_formed(&spans) {
                prop_assert!(false, "trace {trace:#x}: {e}\nspans: {spans:?}");
            }
        }
    }

    /// Property 3: delivered revocations keep the acceptance chain shape.
    #[test]
    fn delivered_revokes_keep_the_cross_plane_chain(
        pre_advances in 0u64..4,
        extra_tokens in 0usize..3,
    ) {
        let mut run = Run::new(true);
        let alice = run.c.add_user("alice").unwrap();
        for _ in 0..extra_tokens {
            let t = run.c.login_at(&run.sister, alice).unwrap();
            run.minted.push(t);
        }
        for i in 0..pre_advances {
            run.c.advance_to(SimTime::from_secs((i + 1) * 10));
        }
        let token = run.c.login_at(&run.sister, alice).unwrap();
        let now = run.c.broker.as_ref().unwrap().read().now();
        prop_assert!(run.c.portal_revoke_serial(RealmId(2), token.serial));
        // One feed interval later the delta has landed at the home replica.
        run.c
            .advance_to(now + run.c.revsync.as_ref().unwrap().config().feed_interval + SimDuration::from_secs(1));
        prop_assert_eq!(
            run.c.validate_federated_token(&token),
            Err(CredError::Revoked(token.serial))
        );

        let root = run
            .c
            .portal
            .obs
            .trace
            .spans()
            .into_iter()
            .rfind(|s| s.name == "portal.route.revoke")
            .expect("portal minted the revoke root");
        let spans = run.c.collect_trace(root.trace);
        check_well_formed(&spans).expect("well-formed revoke tree");
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for expect in [
            "portal.route.revoke",
            "cred.revoke.serial",
            "revsync.mesh.push",
            "revsync.replica.apply",
        ] {
            prop_assert!(names.contains(&expect), "missing {} in {:?}", expect, names);
        }
        // Parentage: the WAN hop hangs under the issuer-side revoke span.
        let by_id = |id: u64| spans.iter().find(|s| s.span == id);
        let push = spans.iter().find(|s| s.name == "revsync.mesh.push").unwrap();
        let parent = by_id(push.parent).expect("push span has a live parent");
        prop_assert_eq!(parent.name, "cred.revoke.serial");
        prop_assert!(parent.start <= push.start, "sim-time monotone down the chain");
    }
}

/// Alert precision for the scheduler's objective: interactive sessions
/// far past the tiny cluster's capacity push queue waits through the 60 s
/// objective, and exactly `sched.interactive.wait` fires. (The severed-feed
/// case, exactly the lag and dependency-degraded objectives, is
/// `forced_replica_lag_fires_exactly_the_lag_slo` in `eus-core`.)
#[test]
fn an_interactive_wait_storm_fires_exactly_its_slo() {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    c.enable_obs(ObsConfig::enabled());
    let alice = c.add_user("alice").unwrap();
    for i in 0..24 {
        let spec = JobSpec::new(alice, format!("shell{i}"), SimDuration::from_secs(120))
            .with_tasks(1)
            .with_cpus_per_task(8)
            .with_qos(QosClass::Interactive);
        c.try_submit(spec).unwrap();
    }
    for s in 1..=40 {
        c.advance_to(SimTime::from_secs(10 * s));
    }
    let fired: Vec<&str> = c
        .obs
        .slo
        .alerts()
        .entries()
        .iter()
        .filter(|a| a.kind == AlertKind::Fire)
        .map(|a| a.slo)
        .collect();
    assert_eq!(fired, ["sched.interactive.wait"]);
}
