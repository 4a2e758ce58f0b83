//! The four workloads that run one `Simulation` at a time, back to back:
//! the three ledgers and `fabric_teig`. Closed loop, one client — the
//! next instance is built when the previous one has decided.
//!
//! The end-to-end run times the real engine with two `Instant` reads per
//! `step()`. The traced run drives the same instances by hand
//! (`hand.rs`), spans off and spans on. Either way the oracle holds a
//! hand-driven run against the engine run it mirrors.

use std::collections::BTreeMap;
use std::time::Instant;

use homonym_core::codec::{WireDecode, WireEncode};
use homonym_core::{
    IdAssignment, Pid, Protocol, ProtocolFactory, RecoveryMode, Round, SystemConfig,
};
use homonym_sim::Simulation;

use crate::hand::{Counters, HandRun};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::rng::SplitMix;
use crate::span::{self, Tracer};
use crate::stats;
use crate::{back_to_back, die, median_setup_s, Args};

type MsgOf<F> = <<F as ProtocolFactory>::P as Protocol>::Msg;

/// One solo workload: how to build an instance and how to read it.
pub struct Solo<F: ProtocolFactory> {
    pub factory: F,
    pub cfg: SystemConfig,
    pub assignment: IdAssignment,
    /// Journal every round into a `MemJournal` per process.
    pub durable: bool,
    pub max_rounds: u64,
    /// Rounds per decision: a height's budget on the ledgers, the whole
    /// run on `fabric_teig`.
    pub rounds_per_decision: u64,
    /// Decisions an instance is expected to reach.
    pub decisions_per_instance: u64,
    /// Heights at whose first tick the seeded victim is crashed and
    /// durably recovered, zero-gap.
    pub crash_heights: &'static [u64],
    /// How many decisions every correct process reached and agrees on.
    pub decided: fn(&[&F::P]) -> u64,
    /// Whether two consecutive emissions of a process carry the same
    /// bundle (`protocol.bundle_reuse_ratio`).
    pub same_bundle: fn(&MsgOf<F>, &MsgOf<F>) -> bool,
    /// Instances per block of the timing metrics (`stats::timing`).
    pub block: usize,
    /// Instances an end-to-end run completes at least, so the tail
    /// percentile has its samples.
    pub floor: usize,
    /// Leading instances the exact metrics and the hand-driven oracle of
    /// an end-to-end run cover.
    pub exact: usize,
}

/// The seeded part of one instance.
pub struct Instance {
    pub inputs: Vec<bool>,
    pub victim: Pid,
}

/// What a run of one instance reached — the engine's and the hand-driven
/// driver's must be equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reached {
    decisions: BTreeMap<Pid, (bool, Round)>,
    rounds: u64,
    messages_sent: u64,
    journal_bytes: u64,
    peak_state_bits: u64,
    decided: u64,
}

struct EngineRun {
    reached: Reached,
    /// Whether the engine's `Verdict` holds; if not, nothing the instance
    /// decided counts.
    verdict_holds: bool,
    /// Host time per decision: the ticks of each height (a recovery is
    /// charged to the height it happens in; the engine build to the
    /// first).
    decision_ns: Vec<u64>,
    /// Host time per `step()`, a recovery included in the step it
    /// precedes.
    step_ns: Vec<u64>,
    /// `(height, crash + recover_with wall time)`.
    recover_ns: Vec<(u64, u64)>,
    failed_recoveries: u64,
}

impl EngineRun {
    fn decided(&self) -> u64 {
        if self.verdict_holds {
            self.reached.decided
        } else {
            0
        }
    }
}

struct HandOut {
    reached: Reached,
    /// Host time inside ticks and recoveries.
    wall_ns: u64,
    counters: Counters,
}

impl<F> Solo<F>
where
    F: ProtocolFactory,
    F::P: Protocol<Value = bool> + Send,
    <F::P as Protocol>::Msg: WireEncode + WireDecode,
{
    fn instance(&self, seed: u64, index: u64) -> Instance {
        let mut stream = SplitMix::for_instance(seed, index);
        let inputs = stream.bools(self.cfg.n);
        let victim = Pid::new(stream.below(self.cfg.n as u64) as usize);
        Instance { inputs, victim }
    }

    fn build(&self, inst: &Instance) -> Simulation<F::P> {
        let builder = Simulation::builder(self.cfg, self.assignment.clone(), inst.inputs.clone());
        if self.durable {
            builder.durable(0).build_with(&self.factory)
        } else {
            builder.build_with(&self.factory)
        }
    }

    fn crashes_at(&self, round: u64) -> bool {
        round % self.rounds_per_decision == 0
            && self
                .crash_heights
                .contains(&(round / self.rounds_per_decision))
    }

    /// Builds and runs one instance on the real engine.
    fn run_engine(&self, inst: &Instance) -> EngineRun {
        let t0 = Instant::now();
        let mut sim = self.build(inst);
        let mut decision_ns = vec![t0.elapsed().as_nanos() as u64];
        let mut step_ns = Vec::with_capacity(self.max_rounds as usize);
        let mut recover_ns = Vec::new();
        let mut failed_recoveries = 0;
        while sim.round().index() < self.max_rounds && !sim.all_decided() {
            let r = sim.round().index();
            let height = (r / self.rounds_per_decision) as usize;
            let t0 = Instant::now();
            if self.crashes_at(r) {
                let recovered = sim.crash(inst.victim).and_then(|()| {
                    sim.recover_with(&self.factory, inst.victim, RecoveryMode::Durable)
                });
                recover_ns.push((height as u64, t0.elapsed().as_nanos() as u64));
                if let Err(e) = recovered {
                    eprintln!("recovery of {} failed: {e}", inst.victim);
                    failed_recoveries += 1;
                }
            }
            sim.step();
            let dt = t0.elapsed().as_nanos() as u64;
            if decision_ns.len() <= height {
                decision_ns.push(0);
            }
            decision_ns[height] += dt;
            step_ns.push(dt);
        }

        let report = sim.report();
        let procs: Vec<&F::P> = sim.processes().map(|(_, p)| p).collect();
        let decided = (self.decided)(&procs);
        let journal_bytes = Pid::all(self.cfg.n)
            .filter_map(|pid| sim.journal(pid))
            .flat_map(|j| j.recover().records)
            .map(|r| r.len() as u64)
            .sum();
        EngineRun {
            reached: Reached {
                decisions: sim.decisions().clone(),
                rounds: report.rounds,
                messages_sent: report.messages_sent,
                journal_bytes,
                peak_state_bits: report.peak_state_bits,
                decided,
            },
            verdict_holds: report.verdict.all_hold(),
            decision_ns,
            step_ns,
            recover_ns,
            failed_recoveries,
        }
    }

    /// Drives one instance by hand, spans into `tr`.
    fn run_hand(&self, index: usize, inst: &Instance, tr: &mut Tracer) -> HandOut {
        let mut run = HandRun::new(
            &self.factory,
            self.cfg.counting,
            self.assignment.clone(),
            inst.inputs.clone(),
            self.durable,
            self.same_bundle,
        );
        let t0 = Instant::now();
        while run.round().index() < self.max_rounds && !run.all_decided() {
            let r = run.round().index();
            if r % self.rounds_per_decision == 0 {
                tr.set_req(|| format!("I{index}.D{}", r / self.rounds_per_decision));
            }
            if self.crashes_at(r) {
                if let Err(e) = run.crash_and_recover(&self.factory, inst.victim, tr) {
                    die(&format!("hand-driven recovery failed: {e}"));
                }
            }
            run.tick(tr);
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let procs: Vec<&F::P> = run.processes().collect();
        HandOut {
            reached: Reached {
                decisions: run.decisions.clone(),
                rounds: run.round().index(),
                messages_sent: run.counters.messages_sent,
                journal_bytes: run.counters.record_bytes,
                peak_state_bits: run.peak_state_bits,
                decided: (self.decided)(&procs),
            },
            wall_ns,
            counters: run.counters,
        }
    }
}

/// The oracle: the hand-driven run must reach exactly what the engine
/// reached, or the per-layer numbers describe some other program.
fn check_mirror(workload: &str, index: usize, engine: &Reached, hand: &Reached) {
    if engine != hand {
        die(&format!(
            "{workload} instance {index}: the hand-driven run diverged from the engine\n\
             engine: {engine:?}\nhand:   {hand:?}"
        ));
    }
}

/// FNV-1a over every `(instance, pid, value, round)` decided — printed so
/// that `ledger_crash` can be held against `ledger_bounded`.
fn decisions_digest<'a>(runs: impl Iterator<Item = &'a Reached>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, reached) in runs.enumerate() {
        for (pid, (v, r)) in &reached.decisions {
            eat(i as u64);
            eat(pid.index() as u64);
            eat(u64::from(*v));
            eat(r.index());
        }
    }
    h
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e6).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `(attempted, failed)` over `runs`.
fn tally(runs: &[EngineRun], per_instance: u64) -> (u64, u64) {
    let attempted = runs.len() as u64 * per_instance;
    let decided: u64 = runs.iter().map(EngineRun::decided).sum();
    let failed_recoveries: u64 = runs.iter().map(|r| r.failed_recoveries).sum();
    (attempted, attempted - decided + failed_recoveries)
}

pub fn run<F>(workload: &str, make: impl Fn() -> Solo<F>, args: &Args) -> Outcome
where
    F: ProtocolFactory,
    F::P: Protocol<Value = bool> + Send,
    <F::P as Protocol>::Msg: WireEncode + WireDecode,
{
    if args.trace {
        run_traced(workload, make, args)
    } else {
        run_end_to_end(workload, make, args)
    }
}

/// The end-to-end run (`--trace 0`).
fn run_end_to_end<F>(workload: &str, make: impl Fn() -> Solo<F>, args: &Args) -> Outcome
where
    F: ProtocolFactory,
    F::P: Protocol<Value = bool> + Send,
    <F::P as Protocol>::Msg: WireEncode + WireDecode,
{
    // Set-up: the factory and configuration (`make`), the first instance's
    // seeded inputs, the engine build and its first tick.
    let setup_s = median_setup_s(|| {
        let solo = make();
        solo.build(&solo.instance(args.seed, 0)).step();
    });
    let solo = make();
    let (floor, exact) = if args.smoke {
        (1, 1)
    } else {
        (solo.floor, solo.exact)
    };
    let (runs, peak_rss) = back_to_back(args.budget(), floor, |i| {
        solo.run_engine(&solo.instance(args.seed, i as u64))
    });

    // A trailing partial block is left out, unless it is all there is.
    let whole = (runs.len() / solo.block * solo.block).max(runs.len().min(solo.block));
    let blocks: Vec<stats::Block> = runs[..whole]
        .chunks(solo.block)
        .map(|chunk| {
            let ns: Vec<u64> = chunk.iter().flat_map(|r| &r.decision_ns).copied().collect();
            stats::Block {
                samples_ms: ms(&ns),
                decided: chunk.iter().map(EngineRun::decided).sum(),
                wall_s: ns.iter().sum::<u64>() as f64 / 1e9,
            }
        })
        .collect();
    let timing = stats::timing(&blocks);
    let samples: usize = blocks.iter().map(|b| b.samples_ms.len()).sum();
    let (attempted, failed) = tally(&runs, solo.decisions_per_instance);
    let decided: u64 = runs.iter().map(EngineRun::decided).sum();
    println!(
        "{workload}: {} instances, {decided}/{attempted} decided, {samples} decision samples \
         in {} blocks (highest supported percentile: {})",
        runs.len(),
        blocks.len(),
        stats::highest_percentile(samples).map_or("none".into(), |p| format!("p{p}")),
    );
    println!(
        "{workload}: decisions_digest {:016x} over the first {floor} instances",
        decisions_digest(runs[..floor].iter().map(|r| &r.reached))
    );

    // Exact metrics and the oracle, on the leading instances: they always
    // run, so the counts do not depend on how fast this machine is.
    let mut counters = Counters::default();
    let mut off = Tracer::new(false);
    for (i, run) in runs[..exact].iter().enumerate() {
        let hand = solo.run_hand(i, &solo.instance(args.seed, i as u64), &mut off);
        check_mirror(workload, i, &run.reached, &hand.reached);
        counters.add(&hand.counters);
    }
    let exact = &runs[..exact];
    let exact_decided: u64 = exact.iter().map(EngineRun::decided).sum();
    let exact_rounds: u64 = exact.iter().map(|r| r.reached.rounds).sum();

    Outcome::new(
        &END_TO_END,
        attempted,
        failed,
        &[
            ("setup_s", setup_s),
            ("decisions_per_s", timing.decisions_per_s),
            ("decision_ms_p50", timing.decision_ms_p50),
            ("decision_ms_p90", timing.decision_ms_p90),
            ("rounds_per_decision", ratio(exact_rounds, exact_decided)),
            (
                "bits_per_decision",
                ratio(counters.bits_sent, exact_decided),
            ),
            ("peak_rss_mb", peak_rss),
        ],
    )
}

/// The traced run (`--trace 1`): the engine for a third of the time, then
/// the same instances by hand with spans off, then with spans on.
fn run_traced<F>(workload: &str, make: impl Fn() -> Solo<F>, args: &Args) -> Outcome
where
    F: ProtocolFactory,
    F::P: Protocol<Value = bool> + Send,
    <F::P as Protocol>::Msg: WireEncode + WireDecode,
{
    let solo = make();
    let floor = if args.smoke { 1 } else { solo.exact };
    let (runs, _) = back_to_back(args.budget() / 3, floor, |i| {
        solo.run_engine(&solo.instance(args.seed, i as u64))
    });
    let (attempted, failed) = tally(&runs, solo.decisions_per_instance);

    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    let mut c = Counters::default();
    for (i, run) in runs.iter().enumerate() {
        let inst = solo.instance(args.seed, i as u64);
        let hand_off = solo.run_hand(i, &inst, &mut off);
        check_mirror(workload, i, &run.reached, &hand_off.reached);
        off_ns += hand_off.wall_ns;
        let hand_on = solo.run_hand(i, &inst, &mut on);
        check_mirror(workload, i, &run.reached, &hand_on.reached);
        on_ns += hand_on.wall_ns;
        c.add(&hand_on.counters);
    }
    let path = crate::trace_path(workload);
    if let Err(e) = on.write_json(&path) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    println!("{workload}: spans written to {}", path.display());

    let own = on.self_ns_by_name();
    let ns = |name: &str| own.get(name).copied().unwrap_or(0);
    let steps = stats::sorted(
        &runs
            .iter()
            .flat_map(|r| r.step_ns.iter().map(|&x| x as f64))
            .collect::<Vec<_>>(),
    );
    let engine_ns: u64 = runs.iter().flat_map(|r| &r.step_ns).sum();
    if steps.len() as u64 != c.ticks {
        die(&format!(
            "{workload}: engine and hand-driven tick counts differ"
        ));
    }
    let tick_ns = ratio(engine_ns, c.ticks);
    // Calls the engine makes too; `codec.frame_bits` is the benchmark's
    // own (a solo `Simulation` does not measure bits).
    let mirrored: u64 = [
        span::SEND,
        span::RECEIVE,
        span::STATE_BITS,
        span::ROUTE,
        span::PLAN,
        span::INBOX,
        span::J_STAGE,
        span::J_ENCODE,
        span::J_APPEND,
        span::J_SYNC,
        span::J_SCAN,
        span::J_DECODE,
        span::J_REPLAY,
    ]
    .iter()
    .map(|name| ns(name))
    .sum();
    let recovers = ms(&runs
        .iter()
        .flat_map(|r| r.recover_ns.iter().map(|&(_, x)| x))
        .collect::<Vec<_>>());
    let last_crash = solo.crash_heights.iter().max();
    let late = ms(&runs
        .iter()
        .flat_map(|r| &r.recover_ns)
        .filter(|(h, _)| Some(h) == last_crash)
        .map(|&(_, x)| x)
        .collect::<Vec<_>>());
    let decided: u64 = runs.iter().map(EngineRun::decided).sum();
    let peak_state = runs.iter().map(|r| r.reached.peak_state_bits).max();
    let mb_per_s = |bytes: u64, ns: u64| ratio(bytes, ns) * 1e9 / 1e6;
    println!(
        "{workload}: traced {} instances, {} ticks, {} recoveries; hand-driven wall \
         {:.1} ms spans off, {:.1} ms spans on",
        runs.len(),
        c.ticks,
        c.recovers,
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6
    );

    let per_tick = |name: &str| ratio(ns(name), c.ticks);
    let per_recover = |name: &str| ratio(ns(name), c.recovers);
    Outcome::new(
        &PER_LAYER,
        attempted,
        failed,
        &[
            ("protocol.send_ns_per_tick", per_tick(span::SEND)),
            ("protocol.receive_ns_per_tick", per_tick(span::RECEIVE)),
            ("protocol.bundle_reuse_ratio", ratio(c.reused, c.emissions)),
            ("protocol.peak_state_bits", peak_state.unwrap_or(0) as f64),
            ("codec.frame_bits_ns_per_tick", per_tick(span::FRAME_BITS)),
            ("codec.bytes_per_frame", ratio(c.frame_bytes, c.emissions)),
            (
                "codec.encode_mb_per_s",
                mb_per_s(c.record_bytes, ns(span::J_ENCODE)),
            ),
            (
                "codec.decode_mb_per_s",
                mb_per_s(c.recovered_bytes, ns(span::J_DECODE)),
            ),
            ("fabric.route_ns_per_tick", per_tick(span::ROUTE)),
            ("fabric.inbox_ns_per_tick", per_tick(span::INBOX)),
            ("fabric.deliveries_per_tick", ratio(c.deliveries, c.ticks)),
            (
                "fabric.ns_per_delivery",
                ratio(ns(span::ROUTE) + ns(span::INBOX), c.deliveries),
            ),
            ("journal.encode_ns_per_tick", per_tick(span::J_ENCODE)),
            ("journal.append_ns_per_tick", per_tick(span::J_APPEND)),
            ("journal.sync_ns_per_tick", per_tick(span::J_SYNC)),
            ("journal.bytes_per_tick", ratio(c.record_bytes, c.ticks)),
            ("journal.bytes_per_decision", ratio(c.record_bytes, decided)),
            (
                "journal.encode_amplification",
                ratio(c.record_frames, c.emissions * u64::from(solo.durable)),
            ),
            ("journal.scan_ns_per_recover", per_recover(span::J_SCAN)),
            ("journal.decode_ns_per_recover", per_recover(span::J_DECODE)),
            ("journal.replay_ns_per_recover", per_recover(span::J_REPLAY)),
            (
                "journal.replayed_rounds_per_recover",
                ratio(c.replayed_rounds, c.recovers),
            ),
            (
                "journal.replay_ns_per_round",
                ratio(ns(span::J_REPLAY), c.replayed_rounds),
            ),
            ("journal.recover_ms_p50", stats::median(&recovers)),
            ("journal.recover_ms_late_p50", stats::median(&late)),
            ("sim.ticks", c.ticks as f64),
            ("sim.tick_ns", tick_ns),
            ("sim.tick_ns_p99", stats::percentile(&steps, 99)),
            ("sim.plan_ns_per_tick", per_tick(span::PLAN)),
            (
                "sim.unattributed_ns_per_tick",
                tick_ns - ratio(mirrored, c.ticks),
            ),
            (
                "trace.overhead_share",
                (on_ns as f64 - off_ns as f64) / off_ns as f64,
            ),
        ],
    )
}
