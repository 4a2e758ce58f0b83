//! Shard isolation: interleaving K agreement instances over one shared
//! delivery plane is **unobservable**. Every shard's per-shot decisions,
//! message counters, and full delivery trace are byte-identical to running
//! that shot alone in a fresh [`Simulation`] — for random EIG shard sets
//! (shard counts, sizes, Byzantine sets, shot queues and inputs), and for
//! fixed shards of the other protocol families: the Figure 1 ring under
//! its sparse topology, Figure 5 under pre-GST drops with a silent
//! Byzantine process, and restricted numerate Figure 5 under drops.
//!
//! The second half pins the same property for the *executor*: fanning the
//! tick across a worker pool ([`Pool`]) at any worker count yields
//! byte-identical sharded traces, decisions, and per-shot report counters
//! to the [`Sequential`] schedule.

use std::fmt::Write as _;

use homonyms::classic::{Eig, UniqueRunner};
use homonyms::core::exec::{Executor, Pool, Sequential};
use homonyms::core::{
    ByzPower, Counting, Domain, FnFactory, IdAssignment, Pid, Protocol, ProtocolFactory, Round,
    Synchrony, SystemConfig, WireEncode,
};
use homonyms::lower_bounds::fig1;
use homonyms::psync::{AgreementFactory, RestrictedFactory};
use homonyms::sim::adversary::Silent;
use homonyms::sim::{
    RandomUntilGst, ShardId, ShardReport, ShardSpec, ShardedSimulation, ShardedTrace, ShotSpec,
    Simulation, Trace,
};
use homonyms::sync::TransformedFactory;
use proptest::prelude::*;

/// One random shard: size `n`, an optional Byzantine process, and 1–3
/// shots of random binary inputs.
#[derive(Clone, Debug)]
struct RandomShard {
    n: usize,
    byz: Option<Pid>,
    shots: Vec<Vec<bool>>,
}

fn shard_strategy() -> impl Strategy<Value = RandomShard> {
    (4usize..=6).prop_flat_map(|n| {
        (
            Just(n),
            // `n` encodes "no Byzantine process"; anything below names one.
            0usize..=n,
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), n..=n), 1..=3),
        )
            .prop_map(|(n, byz_raw, shots)| RandomShard {
                n,
                byz: (byz_raw < n).then(|| Pid::new(byz_raw)),
                shots,
            })
    })
}

/// Unique-identifier EIG tolerating one fault — the workhorse synchronous
/// agreement for n ≥ 4.
fn eig_factory(n: usize) -> impl ProtocolFactory<P = UniqueRunner<Eig<bool>>> + Clone + 'static {
    let domain = Domain::binary();
    FnFactory::new(move |id, input| UniqueRunner::new(Eig::new(n, 1, domain.clone()), id, input))
}

fn cfg(n: usize) -> SystemConfig {
    SystemConfig::builder(n, n, 1).build().unwrap()
}

/// Canonical byte-stable rendering of a trace (the `fabric_golden`
/// format): one line per attempted delivery, in recording order.
fn trace_dump<M: homonyms::core::Message>(trace: &Trace<M>) -> String {
    let mut s = String::new();
    for d in trace.deliveries() {
        let _ = writeln!(
            s,
            "{}|{}|{}|{}|{:?}|{}",
            d.round, d.from, d.src_id, d.to, d.msg, d.dropped
        );
    }
    s
}

const HORIZON: u64 = 12;

/// The shard specs of a random shard set, every shot bounded by
/// [`HORIZON`].
fn random_specs(
    shards: &[RandomShard],
) -> Vec<(
    ShardSpec<UniqueRunner<Eig<bool>>>,
    impl ProtocolFactory<P = UniqueRunner<Eig<bool>>> + Send + 'static,
)> {
    shards
        .iter()
        .map(|shard| {
            let mut spec = ShardSpec::new(cfg(shard.n), IdAssignment::unique(shard.n));
            for inputs in &shard.shots {
                let mut shot = ShotSpec::new(inputs.clone()).horizon(HORIZON);
                if let Some(byz) = shard.byz {
                    shot = shot.byzantine([byz], Silent);
                }
                spec = spec.shot(shot);
            }
            (spec, eig_factory(shard.n))
        })
        .collect()
}

/// Runs the shard set `specs()` interleaved in one [`ShardedSimulation`],
/// then replays every shot alone in a fresh [`Simulation`] built from a
/// second `specs()` call — same configuration, assignment, topology,
/// inputs, Byzantine set and strategy, drop policy, and the shot's
/// horizon as the round bound — and asserts the two are observationally
/// identical: decisions, round and message counters, and the full
/// delivery trace. Returns the sharded reports.
fn assert_shots_equal_solo_runs<P, F>(
    specs: impl Fn() -> Vec<(ShardSpec<P>, F)>,
    max_ticks: u64,
) -> Vec<ShardReport<P::Value>>
where
    P: Protocol + Send,
    P::Value: Send,
    P::Msg: WireEncode,
    F: ProtocolFactory<P = P> + Send + 'static,
{
    // The sharded run: all shards interleaved over one plane.
    let mut sharded = ShardedSimulation::new().record_trace(true);
    for (spec, factory) in specs() {
        sharded.add_shard(spec, factory);
    }
    let reports = sharded.run(max_ticks);
    assert!(sharded.all_idle(), "every queue drains within the budget");
    let sharded_trace = sharded.trace().unwrap();

    // Each shot, replayed alone in a fresh single-shot simulation, must be
    // observationally identical.
    for (s, (spec, factory)) in specs().into_iter().enumerate() {
        assert_eq!(reports[s].shots.len(), spec.shots.len());
        for (q, shot) in spec.shots.into_iter().enumerate() {
            let horizon = shot.horizon.expect("every shot carries a horizon");
            let mut solo = Simulation::builder(spec.cfg, spec.assignment.clone(), shot.inputs)
                .topology(spec.topology.clone())
                .byzantine(shot.byz, shot.adversary)
                .drops(shot.drops)
                .record_trace(true)
                .build_with(&factory);
            let solo_report = solo.run(horizon);

            let sharded_report = &reports[s].shots[q].report;
            let label = format!("shard {s} shot {q}");
            assert_eq!(
                sharded_report.outcome.decisions, solo_report.outcome.decisions,
                "decisions diverge at {label}"
            );
            assert_eq!(
                sharded_report.rounds, solo_report.rounds,
                "rounds at {label}"
            );
            assert_eq!(
                sharded_report.all_decided_round, solo_report.all_decided_round,
                "decision round at {label}"
            );
            assert_eq!(
                sharded_report.messages_sent, solo_report.messages_sent,
                "sent at {label}"
            );
            assert_eq!(
                sharded_report.messages_delivered, solo_report.messages_delivered,
                "delivered at {label}"
            );
            assert_eq!(
                sharded_report.messages_dropped, solo_report.messages_dropped,
                "dropped at {label}"
            );

            // Byte-identical traces: the extracted shard/shot slice of the
            // interleaved trace equals the solo trace.
            assert_eq!(
                trace_dump(&sharded_trace.shard_shot_trace(ShardId::new(s), q)),
                trace_dump(solo.trace().unwrap()),
                "trace diverges at {label}"
            );
        }
    }
    reports
}

/// Builds the sharded scheduler for a shard set on the given executor
/// (trace and wire-bit accounting on, so the comparison covers both).
fn build_sharded<E: Executor>(
    exec: E,
    shards: &[RandomShard],
) -> ShardedSimulation<UniqueRunner<Eig<bool>>, E> {
    let mut sharded = ShardedSimulation::with_executor(exec)
        .record_trace(true)
        .measure_bits(true);
    for (spec, factory) in random_specs(shards) {
        sharded.add_shard(spec, factory);
    }
    sharded
}

/// Canonical byte-stable rendering of a sharded trace (the
/// `fabric_golden` format): shard and shot tags plus the per-delivery
/// line, in global routing order.
fn sharded_trace_dump<M: homonyms::core::Message>(trace: &ShardedTrace<M>) -> String {
    let mut s = String::new();
    for e in trace.entries() {
        let d = &e.delivery;
        let _ = writeln!(
            s,
            "{}|{}|{}|{}|{}|{}|{:?}|{}",
            e.shard, e.shot, d.round, d.from, d.src_id, d.to, d.msg, d.dropped
        );
    }
    s
}

/// Canonical rendering of every observable of a sharded run's reports:
/// per-shot decisions, verdicts, round/message/bit counters, and
/// scheduling ticks.
fn report_dump(reports: &[ShardReport<bool>]) -> String {
    let mut s = String::new();
    for report in reports {
        for shot in &report.shots {
            let _ = writeln!(
                s,
                "{}#{}: decisions={:?} verdict={} rounds={} decided={:?} sent={} delivered={} \
                 dropped={} bits={:?} ticks={}..{}",
                shot.shard,
                shot.shot,
                shot.report.outcome.decisions,
                shot.report.verdict,
                shot.report.rounds,
                shot.report.all_decided_round,
                shot.report.messages_sent,
                shot.report.messages_delivered,
                shot.report.messages_dropped,
                shot.bits_sent,
                shot.started_tick,
                shot.finished_tick,
            );
        }
    }
    s
}

/// Runs a shard set under `exec` and returns every observable as one
/// byte-stable pair (trace dump, report dump).
fn observables<E: Executor>(exec: E, shards: &[RandomShard]) -> (String, String) {
    let mut sharded = build_sharded(exec, shards);
    let reports = sharded.run(64 * HORIZON);
    assert!(sharded.all_idle(), "every queue drains within the budget");
    (
        sharded_trace_dump(sharded.trace().unwrap()),
        report_dump(&reports),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_shots_equal_solo_runs(shards in proptest::collection::vec(shard_strategy(), 1..=4)) {
        assert_shots_equal_solo_runs(|| random_specs(&shards), 64 * HORIZON);
    }
}

/// The Figure 1 ring (the `fabric_golden` scenario): a sparse topology
/// where agreement is *violated* — the sharded engine violates it exactly
/// as a solo run does, and the same way in both shots.
#[test]
fn fig1_ring_shots_equal_solo_runs() {
    let sys = fig1::build(4, 1);
    let factory = || TransformedFactory::new(Eig::new_unchecked(3, 1, Domain::binary()), 1);
    let horizon = factory().round_bound() + 9;
    let cfg = SystemConfig::builder(sys.assignment.n(), 3, 0)
        .build()
        .expect("ring configuration is valid");
    let specs = || {
        vec![(
            ShardSpec::new(cfg, sys.assignment.clone())
                .topology(sys.topology.clone())
                .shot(ShotSpec::new(sys.inputs.clone()).horizon(horizon))
                .shot(ShotSpec::new(sys.inputs.clone()).horizon(horizon)),
            factory(),
        )]
    };
    let reports = assert_shots_equal_solo_runs(specs, 4 * horizon);
    let shots = &reports[0].shots;
    assert_eq!(
        shots[0].report.outcome.decisions,
        shots[1].report.outcome.decisions
    );
}

/// Figure 5 under pre-GST random drops, with a silent Byzantine process
/// in the first shot: two shards of two shots, every shot decides and
/// satisfies BA.
#[test]
fn psync_agreement_with_drops_shots_equal_solo_runs() {
    let cfg = SystemConfig::builder(4, 4, 1)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .unwrap();
    let factory = || AgreementFactory::new(4, 4, 1, Domain::binary());
    let horizon = 8 + factory().round_bound() + 24;
    let specs = || {
        (0..2u64)
            .map(|s| {
                let spec = ShardSpec::new(cfg, IdAssignment::unique(4))
                    .shot(
                        ShotSpec::new(vec![false, true, true, false])
                            .byzantine([Pid::new(2)], Silent)
                            .drops(RandomUntilGst::new(Round::new(8), 0.3, 5 + s))
                            .horizon(horizon),
                    )
                    .shot(
                        ShotSpec::new(vec![true, true, false, false])
                            .drops(RandomUntilGst::new(Round::new(4), 0.2, 11 + s))
                            .horizon(horizon),
                    );
                (spec, factory())
            })
            .collect()
    };
    let reports = assert_shots_equal_solo_runs(specs, 8 * horizon);
    assert!(reports.iter().all(|r| r.decided_shots() == 2));
    for shot in reports.iter().flat_map(|r| &r.shots) {
        assert!(shot.report.verdict.all_hold(), "{}", shot.report.verdict);
    }
}

/// Restricted numerate Figure 5 (ℓ = 2 shared identifiers) under pre-GST
/// drops: one shard of two shots, both decide and satisfy BA.
#[test]
fn restricted_agreement_shots_equal_solo_runs() {
    let cfg = SystemConfig::builder(4, 2, 1)
        .synchrony(Synchrony::PartiallySynchronous)
        .counting(Counting::Numerate)
        .byz_power(ByzPower::Restricted)
        .build()
        .unwrap();
    let factory = || RestrictedFactory::new(4, 2, 1, Domain::binary());
    let horizon = 6 + factory().round_bound() + 24;
    let specs = || {
        vec![(
            ShardSpec::new(cfg, IdAssignment::round_robin(2, 4).unwrap())
                .shot(
                    ShotSpec::new(vec![true, true, false, true])
                        .byzantine([Pid::new(3)], Silent)
                        .drops(RandomUntilGst::new(Round::new(6), 0.3, 5))
                        .horizon(horizon),
                )
                .shot(ShotSpec::new(vec![false, true, false, true]).horizon(horizon)),
            factory(),
        )]
    };
    let reports = assert_shots_equal_solo_runs(specs, 8 * horizon);
    assert_eq!(reports[0].decided_shots(), 2);
    for shot in &reports[0].shots {
        assert!(shot.report.verdict.all_hold(), "{}", shot.report.verdict);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The executor is unobservable: fanning the tick across a worker
    /// pool yields byte-identical traces, decisions, and per-shot report
    /// counters to the sequential schedule, at every worker count —
    /// including pools larger than the shard set.
    #[test]
    fn pool_executor_is_byte_identical_to_sequential(
        shards in proptest::collection::vec(shard_strategy(), 1..=4)
    ) {
        let (seq_trace, seq_reports) = observables(Sequential, &shards);
        for workers in [1usize, 2, 4, 7] {
            let (pool_trace, pool_reports) = observables(Pool::new(workers), &shards);
            prop_assert_eq!(
                &pool_trace,
                &seq_trace,
                "trace diverges at {} workers",
                workers
            );
            prop_assert_eq!(
                &pool_reports,
                &seq_reports,
                "reports diverge at {} workers",
                workers
            );
        }
    }
}

/// Fixed-scenario variant for CI's worker-count matrix: the worker count
/// comes from `POOL_WORKERS` (default 4), so the workflow can smoke-test
/// w = 1 vs w = 4 as separate jobs without recompiling the proptest.
#[test]
fn pool_workers_from_env_match_sequential() {
    let workers: usize = std::env::var("POOL_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(4);
    let shards: Vec<RandomShard> = (0..4)
        .map(|k| RandomShard {
            n: 4 + (k % 3),
            byz: (k % 2 == 0).then(|| Pid::new(k % 4)),
            shots: (0..=k % 3)
                .map(|q| (0..4 + (k % 3)).map(|i| (i + q + k) % 2 == 0).collect())
                .collect(),
        })
        .collect();
    let (seq_trace, seq_reports) = observables(Sequential, &shards);
    let (pool_trace, pool_reports) = observables(Pool::new(workers), &shards);
    assert_eq!(pool_trace, seq_trace, "trace diverges at {workers} workers");
    assert_eq!(
        pool_reports, seq_reports,
        "reports diverge at {workers} workers"
    );
    assert!(!seq_trace.is_empty() && !seq_reports.is_empty());
}
