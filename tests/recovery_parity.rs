//! Crash–recovery parity: crashing any process at any round boundary and
//! durably recovering it in place (journal replay into a fresh automaton)
//! is **unobservable** — decisions (value AND round), message counters,
//! and verdicts are identical to the uninterrupted run, for every
//! protocol family, under both the [`Sequential`] and [`Pool`] executors,
//! in the lock-step simulator, the sharded simulator, and on
//! [`HeightChain`] multi-height ledgers.
//!
//! Also covered: amnesiac rejoins share the `|faulty| ≤ t` budget with
//! Byzantine processes (over budget → typed rejection), and injected
//! journal corruption (torn tails, truncation, bit flips) is always
//! surfaced as a typed error — recovery never silently decodes garbage.

use std::collections::BTreeMap;
use std::sync::Arc;

use homonyms::classic::{Eig, UniqueRunner};
use homonyms::core::exec::{Executor, Pool, Sequential};
use homonyms::core::journal::{self, Fault, FileWal, Journal};
use homonyms::core::{
    Domain, FnFactory, HeightChainFactory, Id, IdAssignment, Pid, Protocol, ProtocolFactory,
    RecoveryMode, Round, Synchrony, SystemConfig, WireDecode, WireEncode,
};
use homonyms::psync::{AgreementFactory, BoundedAgreementFactory};
use homonyms::sim::adversary::Silent;
use homonyms::sim::{
    ChurnError, ChurnOp, ChurnPlan, RandomUntilGst, ShardSpec, ShardedSimulation, ShotSpec,
    Simulation,
};
use homonyms::sync::TransformedFactory;
use proptest::prelude::*;

/// One parity scenario: which correct process crashes, at which round
/// boundary, and how often snapshots are cut (0 = journal-only).
#[derive(Clone, Copy, Debug)]
struct CrashPlan {
    victim: Pid,
    at: u64,
    snapshot_every: u64,
}

/// Runs one simulation; `crash` (if any) crashes the victim at the given
/// round boundary and durably recovers it in the same boundary (zero
/// gap). Returns the decisions (value and round) plus the sent counter.
#[allow(clippy::too_many_arguments)]
fn run_solo<F, P, E>(
    factory: &F,
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: Vec<Pid>,
    gst: u64,
    horizon: u64,
    crash: Option<CrashPlan>,
    exec: E,
) -> (BTreeMap<Pid, (P::Value, Round)>, u64)
where
    P: Protocol + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    F: ProtocolFactory<P = P>,
    E: Executor,
{
    let mut builder = Simulation::builder(cfg, assignment, inputs)
        .executor(exec)
        .byzantine(byz, Silent)
        .drops(RandomUntilGst::new(Round::new(gst), 0.3, 7));
    if let Some(plan) = crash {
        builder = builder.durable(plan.snapshot_every);
    }
    let mut sim = builder.build_with(factory);
    while sim.round().index() < horizon && !sim.all_decided() {
        if let Some(plan) = crash {
            if sim.round().index() == plan.at {
                sim.crash(plan.victim).expect("victim is live and correct");
                sim.recover_with(factory, plan.victim, RecoveryMode::Durable)
                    .expect("durable journal replays");
            }
        }
        sim.step();
    }
    (sim.decisions().clone(), sim.report().messages_sent)
}

/// Asserts the crash/recover run is byte-identical to the golden run
/// under both executors.
#[allow(clippy::too_many_arguments)]
fn assert_recovery_parity<F, P>(
    factory: &F,
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: Vec<Pid>,
    gst: u64,
    horizon: u64,
    plan: CrashPlan,
) where
    P: Protocol + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    P::Value: std::fmt::Debug + PartialEq,
    F: ProtocolFactory<P = P>,
{
    let golden = run_solo(
        factory,
        cfg,
        assignment.clone(),
        inputs.clone(),
        byz.clone(),
        gst,
        horizon,
        None,
        Sequential,
    );
    let seq = run_solo(
        factory,
        cfg,
        assignment.clone(),
        inputs.clone(),
        byz.clone(),
        gst,
        horizon,
        Some(plan),
        Sequential,
    );
    assert_eq!(golden.0, seq.0, "decisions diverged (Sequential, {plan:?})");
    assert_eq!(golden.1, seq.1, "sent diverged (Sequential, {plan:?})");
    let pooled = run_solo(
        factory,
        cfg,
        assignment,
        inputs,
        byz,
        gst,
        horizon,
        Some(plan),
        Pool::new(4),
    );
    assert_eq!(golden.0, pooled.0, "decisions diverged (Pool, {plan:?})");
    assert_eq!(golden.1, pooled.1, "sent diverged (Pool, {plan:?})");
}

fn eig_factory(
    ell: usize,
    t: usize,
) -> impl ProtocolFactory<P = UniqueRunner<Eig<bool>>> + Clone + 'static {
    let domain = Domain::binary();
    FnFactory::new(move |id, input| UniqueRunner::new(Eig::new(ell, t, domain.clone()), id, input))
}

fn sync_cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, t).build().unwrap()
}

fn psync_cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, t)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Classic EIG (unique identifiers): any victim, any crash round,
    /// journal-only and snapshotted recovery, with a Byzantine process.
    #[test]
    fn classic_recovery_parity(victim in 0usize..3, at in 0u64..6, snap in 0u64..3) {
        let plan = CrashPlan { victim: Pid::new(victim), at, snapshot_every: snap };
        assert_recovery_parity(
            &eig_factory(4, 1),
            sync_cfg(4, 4, 1),
            IdAssignment::unique(4),
            vec![true, false, true, false],
            vec![Pid::new(3)],
            0,
            12,
            plan,
        );
    }

    /// The T(EIG) transformer (homonymous, ℓ < n) under the sync model.
    #[test]
    fn sync_transformer_recovery_parity(victim in 0usize..5, at in 0u64..8) {
        let factory = TransformedFactory::new(Eig::new(4, 1, Domain::binary()), 1);
        let horizon = factory.round_bound() + 9;
        let plan = CrashPlan { victim: Pid::new(victim), at, snapshot_every: 0 };
        assert_recovery_parity(
            &factory,
            sync_cfg(6, 4, 1),
            IdAssignment::stacked(4, 6).unwrap(),
            vec![true, true, false, false, true, false],
            vec![Pid::new(5)],
            0,
            horizon,
            plan,
        );
    }

    /// The faithful partially synchronous agreement, with pre-GST drops.
    #[test]
    fn psync_faithful_recovery_parity(victim in 0usize..2, at in 0u64..14) {
        let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
        let horizon = 8 + factory.round_bound() + 24;
        let plan = CrashPlan { victim: Pid::new(victim), at, snapshot_every: 0 };
        assert_recovery_parity(
            &factory,
            psync_cfg(4, 4, 1),
            IdAssignment::unique(4),
            vec![false, true, true, false],
            vec![Pid::new(2)],
            8,
            horizon,
            plan,
        );
    }

    /// The bounded-state agreement (flat-memory windows), same model.
    #[test]
    fn psync_bounded_recovery_parity(victim in 0usize..2, at in 0u64..14) {
        let factory = BoundedAgreementFactory::new(4, 4, 1, Domain::binary());
        let horizon = 8 + factory.round_bound() + 24;
        let plan = CrashPlan { victim: Pid::new(victim), at, snapshot_every: 0 };
        assert_recovery_parity(
            &factory,
            psync_cfg(4, 4, 1),
            IdAssignment::unique(4),
            vec![false, true, true, false],
            vec![Pid::new(3)],
            8,
            horizon,
            plan,
        );
    }

    /// Multi-height ledgers: a crash mid-chain recovers across height
    /// boundaries (the journal spans every height executed so far).
    #[test]
    fn height_chain_recovery_parity(victim in 0usize..4, at in 0u64..20) {
        let inner = AgreementFactory::new(4, 4, 1, Domain::binary());
        let budget = inner.round_bound() + 8;
        let factory = HeightChainFactory::new(inner, budget, 2, 1);
        let horizon = factory.round_bound() + 8;
        let plan = CrashPlan { victim: Pid::new(victim), at, snapshot_every: 0 };
        assert_recovery_parity(
            &factory,
            psync_cfg(4, 4, 1),
            IdAssignment::unique(4),
            vec![false, true, true, false],
            vec![],
            0,
            horizon,
            plan,
        );
    }

    /// Injected corruption is always surfaced: the recovered records are
    /// a byte-exact prefix of what was written (never garbage), and a
    /// bit flip is always reported as typed damage.
    #[test]
    fn injected_corruption_is_always_detected(seed in any::<u64>(), entries in 1usize..6) {
        let path = std::env::temp_dir().join(format!(
            "homonym_wal_{}_{seed:016x}.wal",
            std::process::id()
        ));
        let mut wal = FileWal::create(&path).expect("create WAL");
        let mut originals: Vec<Vec<u8>> = Vec::new();
        for r in 0..entries {
            let payload = journal::encode_deliveries_entry(
                Round::new(r as u64),
                &[(Id::new(1), Arc::new(seed ^ r as u64))],
            );
            wal.append(&payload).expect("append");
            originals.push(payload);
        }
        wal.sync().expect("sync");
        let fault = Fault::draw(seed, wal.synced_len());
        wal.inject(&fault).expect("inject");
        let rec = wal.recover();
        // Never garbage: whatever survives is a byte-exact prefix.
        prop_assert!(rec.records.len() <= originals.len());
        prop_assert_eq!(&rec.records[..], &originals[..rec.records.len()]);
        match fault {
            // A flipped bit always trips the header check or a CRC.
            Fault::BitFlip { .. } => prop_assert!(rec.damage.is_some()),
            // Removed bytes either tear a record (typed damage) or cut
            // cleanly at a record boundary (a strictly shorter log).
            Fault::TornTail { .. } | Fault::Truncate { .. } => {
                prop_assert!(rec.damage.is_some() || rec.records.len() < originals.len());
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Snapshotted recovery of classic EIG at n = 32 with a snapshot every
/// round: the victim's codec-exact snapshot after round 0 is 824 bits
/// (any change to the `EigState` encoding moves it), and restoring it is
/// unobservable.
#[test]
fn classic_eig_snapshot_bits_are_pinned() {
    let n = 32;
    let factory = eig_factory(n, 1);
    let victim = Pid::new(0);
    let builder = || {
        let inputs = (0..n).map(|k| k % 3 == 0).collect();
        Simulation::builder(sync_cfg(n, n, 1), IdAssignment::unique(n), inputs)
    };
    let mut golden = builder().build_with(&factory);
    golden.run(8);
    assert!(golden.all_decided());

    let mut sim = builder().durable(1).build_with(&factory);
    sim.step();
    let snapshot_bits = sim
        .processes()
        .find(|(pid, _)| *pid == victim)
        .map(|(_, p)| p.snapshot_bits());
    assert_eq!(snapshot_bits, Some(824));
    sim.crash(victim).expect("victim is live");
    sim.recover_with(&factory, victim, RecoveryMode::Durable)
        .expect("durable recovery");
    sim.run(8);
    assert_eq!(sim.decisions(), golden.decisions());
}

/// A corrupt file-backed WAL yields a typed `RecoveryFailed`, and the
/// engine state is unchanged (the pid stays crashed).
#[test]
fn corrupt_wal_fails_recovery_with_typed_error() {
    let factory = eig_factory(4, 1);
    let mut sim = Simulation::builder(
        sync_cfg(4, 4, 1),
        IdAssignment::unique(4),
        vec![true, false, true, false],
    )
    .durable(0)
    .build_with(&factory);

    let path = std::env::temp_dir().join(format!("homonym_corrupt_{}.wal", std::process::id()));
    let mut wal = FileWal::create(&path).expect("create WAL");
    wal.append(&journal::encode_deliveries_entry::<u64>(Round::ZERO, &[]))
        .expect("append");
    wal.sync().expect("sync");
    wal.inject(&Fault::BitFlip { offset: 6, bit: 3 })
        .expect("inject");
    sim.install_journal(Pid::new(1), Box::new(wal));

    sim.step();
    sim.crash(Pid::new(1)).expect("crash");
    let err = sim
        .recover_with(&factory, Pid::new(1), RecoveryMode::Durable)
        .unwrap_err();
    assert!(
        matches!(err, ChurnError::RecoveryFailed(_)),
        "expected RecoveryFailed, got {err:?}"
    );
    assert!(sim.crashed().contains(&Pid::new(1)), "pid stays crashed");
    let _ = std::fs::remove_file(&path);
}

/// A crash between append and fsync loses exactly the un-synced tail:
/// recovery replays the durable prefix without damage.
#[test]
fn wal_crash_between_write_and_fsync_keeps_durable_prefix() {
    let path = std::env::temp_dir().join(format!("homonym_torn_{}.wal", std::process::id()));
    let mut wal = FileWal::create(&path).expect("create WAL");
    let synced = journal::encode_deliveries_entry(Round::ZERO, &[(Id::new(1), Arc::new(7u64))]);
    wal.append(&synced).expect("append");
    wal.sync().expect("sync");
    let unsynced = journal::encode_deliveries_entry(Round::new(1), &[(Id::new(2), Arc::new(9u64))]);
    wal.append(&unsynced).expect("append");
    wal.crash(0xC0FFEE).expect("power loss");
    let rec = wal.recover();
    assert!(!rec.records.is_empty(), "durable prefix survives");
    assert_eq!(rec.records[0], synced);
    // A torn half-record of the un-synced tail is damage, never a record.
    if rec.records.len() > 1 {
        assert_eq!(rec.records[1], unsynced);
    }
    let _ = std::fs::remove_file(&path);
}

/// Crashed-amnesiac and Byzantine processes share one `|faulty| ≤ t`
/// budget: with the budget spent on a Byzantine process, an amnesiac
/// rejoin is rejected with a typed error.
#[test]
fn amnesiac_rejoin_shares_fault_budget_with_byzantine() {
    let factory = eig_factory(4, 1);
    let mut sim = Simulation::builder(
        sync_cfg(4, 4, 1),
        IdAssignment::unique(4),
        vec![true, false, true, false],
    )
    .byzantine([Pid::new(3)], Silent)
    .build_with(&factory);
    sim.step();
    sim.crash(Pid::new(0)).expect("crash");
    let err = sim
        .recover_with(&factory, Pid::new(0), RecoveryMode::Amnesiac)
        .unwrap_err();
    assert!(
        matches!(err, ChurnError::BudgetExceeded { would_be: 2, t: 1 }),
        "expected BudgetExceeded, got {err:?}"
    );

    // With budget available the rejoin succeeds and consumes it: turning
    // another process Byzantine afterwards must then be rejected.
    let mut sim = Simulation::builder(
        sync_cfg(4, 4, 1),
        IdAssignment::unique(4),
        vec![true, false, true, false],
    )
    .build_with(&factory);
    sim.step();
    sim.crash(Pid::new(0)).expect("crash");
    sim.recover_with(&factory, Pid::new(0), RecoveryMode::Amnesiac)
        .expect("budget available");
    assert!(sim.amnesiac().contains(&Pid::new(0)));
    let err = sim
        .try_turn_byzantine(&[Pid::new(2)].into_iter().collect())
        .unwrap_err();
    assert!(
        matches!(err, ChurnError::BudgetExceeded { would_be: 2, t: 1 }),
        "joint budget must count the amnesiac rejoiner, got {err:?}"
    );
}

/// Zero-gap crash/recover parity in the sharded engine: the churned
/// sharded simulator and the untouched golden run report identical shots.
#[test]
fn sharded_zero_gap_recovery_parity() {
    let cfg = sync_cfg(4, 4, 1);
    let horizon = 12u64;
    let spec = || {
        ShardSpec::new(cfg, IdAssignment::unique(4))
            .durable()
            .shot(ShotSpec::new(vec![true, false, true, false]).horizon(horizon))
            .shot(
                ShotSpec::new(vec![false, false, true, true])
                    .byzantine([Pid::new(3)], Silent)
                    .horizon(horizon),
            )
    };
    let plan = || {
        let mut p: ChurnPlan<UniqueRunner<Eig<bool>>> = ChurnPlan::new();
        p.at(
            3,
            ChurnOp::Crash(homonyms::sim::ShardId::new(0), Pid::new(1)),
        );
        p.at(
            3,
            ChurnOp::Recover(
                homonyms::sim::ShardId::new(0),
                Pid::new(1),
                RecoveryMode::Durable,
            ),
        );
        p
    };

    let mut golden = ShardedSimulation::new();
    golden.add_shard(spec(), eig_factory(4, 1));
    let golden = golden.run(8 * horizon);

    let mut churned = ShardedSimulation::new();
    churned.add_shard(spec(), eig_factory(4, 1));
    let churned = churned.run_churned(plan(), 8 * horizon);

    assert_eq!(golden.len(), churned.len());
    for (a, b) in golden.iter().zip(&churned) {
        assert_eq!(a.shots.len(), b.shots.len());
        for (x, y) in a.shots.iter().zip(&b.shots) {
            assert_eq!(
                x.report.outcome.decisions, y.report.outcome.decisions,
                "decisions diverge at {} shot {}",
                a.shard, x.shot
            );
            assert_eq!(x.report.messages_sent, y.report.messages_sent);
            assert_eq!(x.report.all_decided_round, y.report.all_decided_round);
        }
    }
}

/// A gapped durable recovery (the victim misses rounds while down) still
/// terminates with a passing verdict: replay brings it back consistent,
/// and the rounds it missed are ordinary message loss.
#[test]
fn gapped_durable_recovery_still_agrees() {
    let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
    let horizon = 8 + factory.round_bound() + 24;
    let mut sim = Simulation::builder(
        psync_cfg(4, 4, 1),
        IdAssignment::unique(4),
        vec![false, true, true, false],
    )
    .durable(0)
    .build_with(&factory);
    while sim.round().index() < horizon && !sim.all_decided() {
        if sim.round().index() == 2 {
            sim.crash(Pid::new(1)).expect("crash");
        }
        if sim.round().index() == 5 {
            sim.recover_with(&factory, Pid::new(1), RecoveryMode::Durable)
                .expect("recover");
        }
        sim.step();
    }
    let report = sim.report();
    assert!(report.verdict.all_hold(), "{}", report.verdict);
    assert!(sim.decisions().contains_key(&Pid::new(1)));
}
