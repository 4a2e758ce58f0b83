//! `sharded_adverse`: `ShardedSimulation`s back to back, each 16 shards
//! of faithful Figure 5 at n = 8 with 25 shots queued per shard — every
//! shot with one seeded Byzantine equivocator and random drops before
//! GST. The `shards` engine, the adversary and drop paths, `frame_bits`
//! in the hot path, many small inboxes instead of one large one.
//!
//! Measured at the engine boundary only: two `Instant` reads per
//! `step()`; a shot's host time runs from the tick it started in to the
//! tick it rolled over in.
//!
//! Why not one long-lived engine: it slows and grows as shots accumulate
//! on it (README, "Sizing"), so its numbers depend on how far a run got,
//! and a process that keeps faulting in fresh pages is at the mercy of
//! the host. Engines of a fixed size make every block of the run the same
//! work.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use homonym_core::{Domain, IdAssignment, Pid, Round, Synchrony, SystemConfig};
use homonym_psync::{AgreementFactory, HomonymAgreement};
use homonym_sim::adversary::Equivocator;
use homonym_sim::{RandomUntilGst, ShardSpec, ShardedSimulation, ShotReport, ShotSpec};

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::rng::SplitMix;
use crate::stats;
use crate::{back_to_back, median_setup_s, Args};

const SHARDS: usize = 16;
const N: usize = 8;
const ELL: usize = 7;
const T: usize = 1;
const GST: u64 = 8;
const DROP_P: f64 = 0.3;
/// Shots queued per shard of one engine: 400 decisions, about a second.
const SHOTS_PER_SHARD: usize = 25;
/// Engines a run completes at least; the exact metrics are theirs.
const FLOOR_ENGINES: usize = 4;

type P = HomonymAgreement<bool>;

fn factory() -> AgreementFactory<bool> {
    AgreementFactory::new(N, ELL, T, Domain::binary())
}

fn horizon() -> u64 {
    GST + factory().round_bound() + 24
}

/// Inputs, the Byzantine pid and the drop seed of one shot, from the seed.
fn shot(seed: u64, at: [usize; 3], assignment: &IdAssignment) -> ShotSpec<P> {
    let [engine, shard, index] = at.map(|x| x as u64);
    let mut stream = SplitMix::for_instance(seed, (engine << 32) | (shard << 16) | index);
    let inputs = stream.bools(N);
    let byz = BTreeSet::from([Pid::new(stream.below(N as u64) as usize)]);
    let lower_half = Pid::all(N / 2).collect();
    let adversary = Equivocator::new(&factory(), assignment, &byz, true, false, lower_half);
    ShotSpec::new(inputs)
        .byzantine(byz, adversary)
        .drops(RandomUntilGst::new(
            Round::new(GST),
            DROP_P,
            stream.next_u64(),
        ))
        .horizon(horizon())
}

fn build(seed: u64, engine: usize, shots_per_shard: usize) -> ShardedSimulation<P> {
    let cfg = SystemConfig::builder(N, ELL, T)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .expect("2ℓ > n + 3t");
    let assignment = IdAssignment::stacked(ELL, N).expect("ℓ ≤ n");
    let mut sim = ShardedSimulation::new().measure_bits(true);
    for shard in 0..SHARDS {
        let mut spec = ShardSpec::new(cfg, assignment.clone());
        for index in 0..shots_per_shard {
            spec = spec.shot(shot(seed, [engine, shard, index], &assignment));
        }
        sim.add_shard(spec, factory());
    }
    sim
}

/// One engine run until its queues drained.
struct EngineRun {
    shots: Vec<ShotReport<bool>>,
    build_ns: u64,
    tick_start_ns: Vec<u64>,
    tick_end_ns: Vec<u64>,
}

impl EngineRun {
    fn tick_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.tick_start_ns
            .iter()
            .zip(&self.tick_end_ns)
            .map(|(from, to)| to - from)
    }
}

fn run_engine(seed: u64, engine: usize, shots_per_shard: usize) -> EngineRun {
    let t0 = Instant::now();
    let mut sim = build(seed, engine, shots_per_shard);
    let build_ns = t0.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let (mut tick_start_ns, mut tick_end_ns) = (Vec::new(), Vec::new());
    while !sim.all_idle() {
        let t0 = started.elapsed();
        sim.step();
        tick_start_ns.push(t0.as_nanos() as u64);
        tick_end_ns.push(started.elapsed().as_nanos() as u64);
    }
    EngineRun {
        shots: sim.reports().into_iter().flat_map(|r| r.shots).collect(),
        build_ns,
        tick_start_ns,
        tick_end_ns,
    }
}

fn shots_per_shard(args: &Args) -> usize {
    if args.smoke {
        2
    } else {
        SHOTS_PER_SHARD
    }
}

/// Engines back to back, engine `i` from its own sub-streams of the seed.
fn engine_loop(args: &Args, budget: Duration, floor: usize) -> (Vec<EngineRun>, f64) {
    back_to_back(budget, floor, |i| {
        run_engine(args.seed, i, shots_per_shard(args))
    })
}

fn decided(s: &ShotReport<bool>) -> bool {
    s.report.all_decided_round.is_some() && s.report.verdict.all_hold()
}

/// `(attempted, failed)`: a shot fails if it hit its horizon undecided or
/// its verdict does not hold.
fn tally<'a>(shots: impl Iterator<Item = &'a ShotReport<bool>>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for s in shots {
        attempted += 1;
        failed += u64::from(!decided(s));
    }
    (attempted, failed)
}

fn floor(args: &Args) -> usize {
    if args.smoke {
        1
    } else {
        FLOOR_ENGINES
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &Args) -> Outcome {
    let floor = floor(args);
    // Set-up: one engine with all its shot specs, and its first tick.
    let setup_s = median_setup_s(|| build(args.seed, 0, shots_per_shard(args)).step());
    let (runs, peak_rss_mb) = engine_loop(args, args.budget(), floor);
    let (attempted, failed) = tally(runs.iter().flat_map(|r| &r.shots));
    // One block per engine; its build is inside, as a fleet pays it.
    let blocks: Vec<stats::Block> = runs
        .iter()
        .map(|r| stats::Block {
            samples_ms: r
                .shots
                .iter()
                .map(|s| {
                    let from = r.tick_start_ns[s.started_tick as usize];
                    let to = r.tick_end_ns[s.finished_tick as usize];
                    (to - from) as f64 / 1e6
                })
                .collect(),
            decided: r.shots.iter().filter(|s| decided(s)).count() as u64,
            wall_s: (r.build_ns + r.tick_ns().sum::<u64>()) as f64 / 1e9,
        })
        .collect();
    let timing = stats::timing(&blocks);
    let exact = || runs[..floor].iter().flat_map(|r| &r.shots);
    let (exact_attempted, exact_failed) = tally(exact());
    let exact_decided = (exact_attempted - exact_failed) as f64;
    let rounds: u64 = exact().map(|s| s.report.rounds).sum();
    let bits: u64 = exact().map(|s| s.bits_sent.expect("bits measured")).sum();
    println!(
        "sharded_adverse: {} engines, {}/{attempted} shots decided; exact metrics over the \
         first {floor} engines ({exact_attempted} shots)",
        runs.len(),
        attempted - failed,
    );
    Outcome::new(
        &END_TO_END,
        attempted,
        failed,
        &[
            ("setup_s", setup_s),
            ("decisions_per_s", timing.decisions_per_s),
            ("decision_ms_p50", timing.decision_ms_p50),
            ("decision_ms_p90", timing.decision_ms_p90),
            ("rounds_per_decision", rounds as f64 / exact_decided),
            ("bits_per_decision", bits as f64 / exact_decided),
            ("peak_rss_mb", peak_rss_mb),
        ],
    )
}

/// The engine boundary only: the `sim.*` metrics, the drop share and the
/// peak state; every span-derived metric reads 0.
fn run_traced(args: &Args) -> Outcome {
    let (runs, _) = engine_loop(args, args.budget() / 3, floor(args));
    let shots = || runs.iter().flat_map(|r| &r.shots);
    let (attempted, failed) = tally(shots());
    let steps = stats::sorted(
        &runs
            .iter()
            .flat_map(|r| r.tick_ns().map(|x| x as f64))
            .collect::<Vec<_>>(),
    );
    let ticks = steps.len();
    let tick_ns = steps.iter().sum::<f64>() / ticks as f64;
    let sent: u64 = shots().map(|s| s.report.messages_sent).sum();
    let dropped: u64 = shots().map(|s| s.report.messages_dropped).sum();
    let peak_state = shots().map(|s| s.report.peak_state_bits).max();
    Outcome::new(
        &PER_LAYER,
        attempted,
        failed,
        &[
            ("protocol.peak_state_bits", peak_state.unwrap_or(0) as f64),
            ("sim.ticks", ticks as f64),
            ("sim.tick_ns", tick_ns),
            ("sim.tick_ns_p99", stats::percentile(&steps, 99)),
            ("sim.unattributed_ns_per_tick", tick_ns),
            ("sim.dropped_share", dropped as f64 / sent as f64),
        ],
    )
}
