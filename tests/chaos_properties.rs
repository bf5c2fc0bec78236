//! Chaos-plane properties: random [`FaultPlan`]s driven over random op
//! tapes, asserting the cross-plane invariants the paper's separation
//! argument needs to survive a misbehaving site:
//!
//! 1. **No breach, full heal** — whatever the fault schedule, the
//!    separation audit stays at its expected residuals, every dependency
//!    ladder walks back to `Healthy` once the plan is spent, and the
//!    scheduler conserves jobs (nothing lost, nothing double-run, every
//!    casualty attributed to a crash record). Checked with the
//!    scheduler's policy plane off and with fair-share classes on.
//! 2. **Quiet ≡ loud** — a chaos run with every observability ring on
//!    takes *identical decisions* to the same run with obs off. Chaos +
//!    measurement is still pure measurement.
//! 3. **Replay** — same seed, same tape ⇒ the same applied/healed fault
//!    log and the same decision stream. A failing schedule is a repro.
//! 4. **Alert honesty** — the `cluster.dependency.degraded` SLO never
//!    fires on a fault-free run, however busy the tape.
//! 5. **Fail-closed on budget** — a severed WAN feed walks the feed
//!    ladder to `FailClosed` within the staleness budget (never before
//!    half of it), and heals within one anti-entropy round.
//! 6. **Compaction never strands a replica** — a feed compacted while a
//!    partition holds the replica stale (even compacted *past* the
//!    subscriber's frontier) still converges it after the heal.
//!
//! `CHAOS_PROPTEST_CASES` scales the case count for CI soaks.

mod common;

use eus_chaos::{sister_realms, ChaosController, Fault, FaultPlan, PlanShape};
use eus_fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SharedBroker, SignedToken,
};
use eus_revsync::RevSyncConfig;
use eus_simcore::{SimDuration, SimTime};
use hpc_user_separation::audit::run_audit;
use hpc_user_separation::obs::{AlertKind, ObsConfig};
use hpc_user_separation::sched::{JobSpec, JobState};
use hpc_user_separation::{ClusterSpec, DepHealth, Dependency, SecureCluster, SeparationConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Fault plans land in this window; ops and settling ride beyond it.
fn horizon() -> SimDuration {
    SimDuration::from_secs(1800)
}

/// Longest controller-owned heal a random plan may draw.
fn max_heal() -> SimDuration {
    SimDuration::from_secs(600)
}

/// One federated cluster under one fault plan and one op tape.
struct ChaosRun {
    c: SecureCluster,
    sister: SharedBroker,
    ctrl: ChaosController,
    minted: Vec<SignedToken>,
    clock: SimTime,
    /// The observable decision stream — quiet and loud must agree.
    outcomes: Vec<String>,
    submitted: usize,
    /// Route submissions across the two fair-share partitions (policy
    /// plane runs only) so every cycle has two classes to schedule.
    partitioned: bool,
}

/// Collapse a credential outcome to its observable shape.
fn shape<T>(r: &Result<T, CredError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => format!("{e:?}"),
    }
}

impl ChaosRun {
    /// `faults == 0` builds a clean (fault-free) control run.
    fn new(seed: u64, faults: usize, loud: bool) -> Self {
        Self::build(seed, faults, loud, false)
    }

    /// A soak twin with the scheduler's policy plane on: fair-share over
    /// two single-node partitions.
    fn new_fair_share(seed: u64, faults: usize) -> Self {
        Self::build(seed, faults, false, true)
    }

    fn build(seed: u64, faults: usize, loud: bool, fair_share: bool) -> Self {
        let mut cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        if fair_share {
            cfg = cfg.with_fair_share();
        }
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        if fair_share {
            let ids = c.compute_ids.clone();
            let half = ids.len() / 2;
            let mut sched = c.sched.write();
            sched
                .partitions_mut()
                .add("batch", ids[..half].to_vec(), true)
                .unwrap();
            sched
                .partitions_mut()
                .add("debug", ids[half..].to_vec(), false)
                .unwrap();
        }
        if loud {
            c.enable_obs(ObsConfig::enabled());
        }
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xC4A0,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        let plan = if faults == 0 {
            FaultPlan::new(seed)
        } else {
            let shape = PlanShape {
                realms: sister_realms(&c),
                nodes: c.compute_ids.clone(),
                faults,
                horizon: horizon(),
                max_heal: max_heal(),
            };
            FaultPlan::random(seed, &shape)
        };
        let ctrl = ChaosController::new(plan);
        ctrl.arm(&mut c);
        ChaosRun {
            c,
            sister,
            ctrl,
            minted: Vec::new(),
            clock: SimTime::ZERO,
            outcomes: Vec::new(),
            submitted: 0,
            partitioned: fair_share,
        }
    }

    fn step(&mut self, alice: eus_simos::Uid, op: (u8, u8)) {
        let (action, subject) = op;
        let out = match action % 6 {
            0 => {
                let mut spec =
                    JobSpec::new(alice, "job", SimDuration::from_secs(10 + subject as u64));
                if self.partitioned {
                    spec = spec.with_partition(if subject % 2 == 0 { "batch" } else { "debug" });
                }
                let r = self.c.try_submit(spec);
                if r.is_ok() {
                    self.submitted += 1;
                }
                format!("submit:{}", shape(&r))
            }
            1 => {
                self.clock += SimDuration::from_secs(30 * (1 + subject as u64 % 4));
                self.ctrl.advance_to(&mut self.c, self.clock);
                format!("advance:{}", self.clock)
            }
            2 => {
                let r = self.c.login_at(&self.sister, alice);
                let s = shape(&r);
                if let Ok(t) = r {
                    self.minted.push(t);
                }
                format!("login:{s}")
            }
            3 => match self.minted.get(subject as usize) {
                Some(t) => {
                    let t = *t;
                    format!("validate:{}", shape(&self.c.validate_federated_token(&t)))
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
            _ => format!("compact:{}", self.c.compact_revocation_logs()),
        };
        self.outcomes.push(out);
    }

    /// Ride past every injection, every controller heal, the staleness
    /// budget, and one full anti-entropy round, so anything the plan
    /// broke has had its guaranteed recovery window.
    fn settle(&mut self) {
        let end = SimTime::ZERO
            + horizon()
            + max_heal()
            + self.revsync().anti_entropy
            + SimDuration::from_secs(300);
        while self.clock < end {
            self.clock += SimDuration::from_secs(30);
            self.ctrl.advance_to(&mut self.c, self.clock);
        }
    }

    /// The mesh's cadences and staleness budget.
    fn revsync(&self) -> RevSyncConfig {
        *self.c.revsync.as_ref().unwrap().config()
    }

    fn ladder(&self, dep: Dependency) -> DepHealth {
        self.c.dependency_health(dep)
    }

    /// A replay fingerprint: decisions + applied/healed logs + ladders.
    fn fingerprint(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}{:?}{:?}",
            self.outcomes,
            self.ctrl.applied,
            self.ctrl.healed,
            self.ladder(Dependency::Idp),
            self.ladder(Dependency::Ca),
            self.ladder(Dependency::Feed),
        )
    }
}

/// Property 1's body: drive `ops` under the run's fault plan, settle, and
/// check the posture — audit at its expected residuals, every ladder
/// healed, every job accounted for.
fn never_breaches_and_heals(
    mut run: ChaosRun,
    ops: &[(u8, u8)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let alice = run.c.add_user("alice").unwrap();
    for &op in ops {
        run.step(alice, op);
    }
    run.settle();
    prop_assert!(run.ctrl.done(), "plan must be fully delivered");

    // The separation posture never regresses under chaos.
    prop_assert!(
        run_audit(&run.c.config, &ClusterSpec::tiny()).only_expected_residuals(),
        "fault schedule must not open a separation channel"
    );

    // Every dependency ladder walked home after the last heal.
    for dep in [Dependency::Idp, Dependency::Ca, Dependency::Feed] {
        prop_assert_eq!(
            run.ladder(dep),
            DepHealth::Healthy,
            "{:?} ladder stranded after full heal window (seed {})",
            dep,
            seed
        );
    }

    // Job conservation: drain the queue, then every submitted job is
    // in exactly one terminal state and every casualty traces to a
    // recorded crash. Nothing lost, nothing stuck, nothing double-run.
    run.c.run_to_completion();
    let sched = run.c.sched.read();
    let count = |f: fn(&JobState) -> bool| sched.jobs.values().filter(|j| f(&j.state)).count();
    let completed = count(|s| *s == JobState::Completed);
    let failed = count(|s| *s == JobState::Failed);
    let nonterminal = count(|s| !s.is_terminal());
    let recorded: usize = sched.failures.iter().map(|r| r.failed_jobs.len()).sum();
    prop_assert_eq!(nonterminal, 0, "no job left in limbo");
    prop_assert_eq!(completed + failed, run.submitted, "all work accounted for");
    prop_assert_eq!(failed, recorded, "every casualty traces to a crash record");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("CHAOS_PROPTEST_CASES", 24), ..ProptestConfig::default() })]

    /// Property 1: no fault schedule opens a separation channel, strands
    /// a dependency ladder, or loses a job.
    #[test]
    fn faults_never_breach_separation_and_every_ladder_heals(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..40),
    ) {
        never_breaches_and_heals(ChaosRun::new(seed, 5, false), &ops, seed)?;
    }

    /// Property 1 again with the scheduler's policy plane on (the only
    /// chaos run that has it): fair-share classes over two partitions,
    /// the same random fault plans, the same posture afterwards.
    #[test]
    fn sharded_dispatch_under_chaos_matches_sequential_and_never_breaches(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..40),
    ) {
        never_breaches_and_heals(ChaosRun::new_fair_share(seed, 5), &ops, seed)?;
    }

    /// Property 2 (quiet ≡ loud): turning every ring on changes nothing
    /// the cluster *decides* during a chaos run.
    #[test]
    fn chaos_with_obs_on_is_decision_identical_to_quiet(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..40),
    ) {
        let mut quiet = ChaosRun::new(seed, 5, false);
        let mut loud = ChaosRun::new(seed, 5, true);
        let alice_q = quiet.c.add_user("alice").unwrap();
        let alice_l = loud.c.add_user("alice").unwrap();
        for &op in &ops {
            quiet.step(alice_q, op);
            loud.step(alice_l, op);
        }
        quiet.settle();
        loud.settle();
        prop_assert_eq!(&quiet.outcomes, &loud.outcomes);
        prop_assert_eq!(
            format!("{:?}", quiet.ctrl.applied),
            format!("{:?}", loud.ctrl.applied),
            "observability must not steer the fault schedule"
        );
    }

    /// Property 3: chaos runs replay exactly — the whole point of the
    /// seeded plan machinery.
    #[test]
    fn same_seed_and_tape_replay_the_identical_run(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..30),
    ) {
        let go = |seed: u64, ops: &[(u8, u8)]| {
            let mut run = ChaosRun::new(seed, 6, false);
            let alice = run.c.add_user("alice").unwrap();
            for &op in ops {
                run.step(alice, op);
            }
            run.settle();
            run.fingerprint()
        };
        prop_assert_eq!(go(seed, &ops), go(seed, &ops), "chaos must replay exactly");
    }

    /// Property 4: a fault-free run never fires the dependency-degraded
    /// SLO, however busy the tape — alerts mean injected faults, only. It
    /// is also fully available: every login and every submit succeeds, the
    /// cluster never reports itself degraded, and no objective fires.
    #[test]
    fn clean_runs_never_fire_the_degraded_slo(
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..40),
    ) {
        let mut run = ChaosRun::new(0, 0, true);
        let alice = run.c.add_user("alice").unwrap();
        for &op in &ops {
            run.step(alice, op);
            prop_assert!(!run.c.degraded(), "a fault-free run never degrades");
        }
        run.settle();
        prop_assert!(!run.c.degraded(), "clean run must end healthy");
        let alerts = run.c.obs.slo.alerts().for_slo("cluster.dependency.degraded");
        prop_assert!(
            alerts.is_empty(),
            "degraded SLO fired on a fault-free run: {alerts:?}"
        );
        prop_assert_eq!(run.c.obs.slo.alerts().fired(), 0, "no objective fires");
        let refused: Vec<&String> = run
            .outcomes
            .iter()
            .filter(|o| (o.starts_with("login:") || o.starts_with("submit:")) && !o.ends_with(":ok"))
            .collect();
        prop_assert!(refused.is_empty(), "a fault-free run refused {refused:?}");
    }

    /// Property 5: a severed WAN feed fails closed within the staleness
    /// budget — never before half of it — and one anti-entropy round
    /// after the heal the replica serves again.
    #[test]
    fn severed_feed_fails_closed_on_budget_and_recovers(
        offset_s in 10u64..200,
        extra_tokens in 0usize..3,
    ) {
        let mut run = ChaosRun::new(7, 0, false);
        let alice = run.c.add_user("alice").unwrap();
        let budget = run.revsync().max_lag;
        let sever_at = SimTime::from_secs(offset_s);
        let heal_after = budget + SimDuration::from_secs(120);
        let plan = FaultPlan::new(7).inject(
            sever_at,
            Fault::LinkPartition { a: RealmId(2), b: eus_chaos::HOME_REALM, heal_after },
        );
        let mut ctrl = ChaosController::new(plan);
        ctrl.arm(&mut run.c);
        for _ in 0..=extra_tokens {
            let t = run.c.login_at(&run.sister, alice).unwrap();
            run.minted.push(t);
        }

        // Half the budget in: degraded at worst, never yet fail-closed.
        let mut t = SimTime::ZERO;
        while t < sever_at + budget / 2 {
            t += SimDuration::from_secs(20);
            ctrl.advance_to(&mut run.c, t);
        }
        // Never fail-closed before half the budget is spent.
        prop_assert!(run.c.dependency_health(Dependency::Feed) != DepHealth::FailClosed);

        // Past the budget: fail-closed, and stale validation refuses.
        while t < sever_at + budget + SimDuration::from_secs(60) {
            t += SimDuration::from_secs(20);
            ctrl.advance_to(&mut run.c, t);
        }
        prop_assert_eq!(run.c.dependency_health(Dependency::Feed), DepHealth::FailClosed);
        let token = run.minted[0];
        prop_assert!(
            matches!(
                run.c.validate_federated_token(&token),
                Err(CredError::StaleReplica { .. })
            ),
            "an over-budget replica must refuse, never trust stale data"
        );

        // One anti-entropy round past the heal: healthy and serving.
        let recover_by =
            sever_at + heal_after + run.revsync().anti_entropy + SimDuration::from_secs(60);
        while t < recover_by {
            t += SimDuration::from_secs(20);
            ctrl.advance_to(&mut run.c, t);
        }
        prop_assert_eq!(run.c.dependency_health(Dependency::Feed), DepHealth::Healthy);
        prop_assert_eq!(run.c.validate_federated_token(&token), Ok(alice));

        // The degradation was observed end to end: on a loud replay the
        // SLO both fires and clears (this quiet run recorded nothing).
        let mut loud = ChaosRun::new(7, 0, true);
        let alice_l = loud.c.add_user("alice").unwrap();
        let _ = loud.c.login_at(&loud.sister, alice_l).unwrap();
        let mut lctrl = ChaosController::new(
            FaultPlan::new(7).inject(
                sever_at,
                Fault::LinkPartition { a: RealmId(2), b: eus_chaos::HOME_REALM, heal_after },
            ),
        );
        lctrl.arm(&mut loud.c);
        let mut lt = SimTime::ZERO;
        while lt < recover_by {
            lt += SimDuration::from_secs(20);
            lctrl.advance_to(&mut loud.c, lt);
        }
        let alerts = loud.c.obs.slo.alerts();
        prop_assert!(
            alerts.for_slo("cluster.dependency.degraded").iter().any(|a| a.kind == AlertKind::Fire),
            "degraded SLO must fire for the injected partition"
        );
        prop_assert!(
            alerts.for_slo("cluster.dependency.degraded").iter().any(|a| a.kind == AlertKind::Clear),
            "degraded SLO must clear after the heal"
        );
    }

    /// Property 6 (compaction safety): a feed compacted while a partition
    /// holds the replica stale — frontier-safe via the mesh, or past the
    /// subscriber's frontier straight on the issuer — still converges the
    /// replica after the heal. Revoked stays revoked, live stays live.
    #[test]
    fn compacted_feed_still_converges_a_stale_replica(
        revoke_mask in proptest::collection::vec(any::<bool>(), 4),
        aggressive in any::<bool>(),
    ) {
        let mut run = ChaosRun::new(11, 0, false);
        let alice = run.c.add_user("alice").unwrap();
        for _ in 0..revoke_mask.len() {
            let t = run.c.login_at(&run.sister, alice).unwrap();
            run.minted.push(t);
        }
        // Let the healthy feed deliver the mint-era state.
        run.clock = SimTime::from_secs(60);
        run.ctrl.advance_to(&mut run.c, run.clock);

        // Partition, then revoke behind the partition: the deltas pile up
        // in the issuer's log with the subscriber's frontier stuck.
        run.c.partition_sister_feed(RealmId(2), true);
        let mut revoked = Vec::new();
        for (t, &hit) in run.minted.iter().zip(&revoke_mask) {
            if hit {
                prop_assert!(run.c.portal_revoke_serial(RealmId(2), t.serial));
                revoked.push(t.serial);
            }
        }

        // Compact mid-partition. The mesh path respects subscriber
        // frontiers; the aggressive path compacts the issuer past them,
        // forcing the post-heal resync onto the snapshot path.
        if aggressive {
            let head = run.sister.read().revocation_head();
            run.sister.write().compact_revocations_below(head);
        } else {
            run.c.compact_revocation_logs();
        }

        // Heal and ride one anti-entropy round.
        run.c.partition_sister_feed(RealmId(2), false);
        let end = run.clock + run.revsync().anti_entropy + SimDuration::from_secs(120);
        while run.clock < end {
            run.clock += SimDuration::from_secs(30);
            run.ctrl.advance_to(&mut run.c, run.clock);
        }

        // Converged: every revocation landed, everything else serves.
        for (t, &hit) in run.minted.iter().zip(&revoke_mask) {
            let r = run.c.validate_federated_token(t);
            if hit {
                prop_assert!(r.is_err(), "revoked serial {} must not serve (got Ok)", t.serial);
            } else {
                prop_assert_eq!(r, Ok(alice), "live token lost in convergence");
            }
        }
    }
}
