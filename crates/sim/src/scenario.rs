//! Schedule replay: materializing scenario schedules against the engines.
//!
//! [`homonym_core::scenario`] defines the *data* — a [`Schedule`] of timed
//! disruptions, serializable to a one-line hex artifact. This module is
//! the *interpreter*: [`Scenario::draw`] generates a full scenario from a
//! seed (every component from its own [`sub_seed`] stream),
//! [`run_scenario`] replays it against the lock-step engine's mutation
//! hooks, [`shrink`] bisects a failing schedule to a minimal
//! counterexample (ddmin over events, then per-event set shrinking), and
//! [`scenario_dot`] renders the timeline as a DOT trace graph for
//! debugging.
//!
//! Mid-run invariant checking is first-class: a schedule may
//! *deliberately* push the Byzantine count past `t`; the engine rejects
//! the turn and the replay reports [`ScenarioVerdict::Breach`] — the
//! scenario tests assert that detection, shrink the schedule to the one
//! offending event, and replay it from its hex line to the identical
//! verdict.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use homonym_core::codec::{WireDecode, WireEncode};
use homonym_core::exec::{Executor, Sequential};
use homonym_core::scenario::{stream, sub_seed, DropSpec, Schedule, ScheduleEvent, StrategyKind};
use homonym_core::{
    Id, IdAssignment, Message, Pid, Protocol, ProtocolFactory, RecoveryMode, Round, Synchrony,
    SystemConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{
    Adversary, CloneSpammer, Compose, CrashAt, Equivocator, Flooder, Mimic, ReplayFuzzer, Silent,
    StaleReplayer,
};
use crate::drops::{DropPolicy, IsolateUntil, NoDrops, PartitionUntil, RandomUntilGst};
use crate::engine::{RunReport, Simulation};
use crate::shards::{ChurnOp, ChurnPlan, ShardId, ShotSpec};
use crate::topology::Topology;
use crate::trace::Trace;

/// A complete replayable scenario: the static setup plus the schedule of
/// mid-run disruptions.
///
/// Everything is plain data (the strategy and drop policy are
/// *descriptions*, materialized at replay time), so a scenario is `Clone`
/// and the shrinker can carve candidate sub-scenarios freely.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The `(n, ℓ, t)` parameters and model axes.
    pub cfg: SystemConfig,
    /// Which process holds which identifier.
    pub assignment: IdAssignment,
    /// One input per process (Byzantine processes' entries are ignored).
    pub inputs: Vec<bool>,
    /// The processes Byzantine from round 0.
    pub init_byz: BTreeSet<Pid>,
    /// The coalition's strategy from round 0.
    pub init_strategy: StrategyKind,
    /// The drop policy from round 0.
    pub init_drops: DropSpec,
    /// The timed disruptions, plus the seed / GST / horizon they were
    /// drawn under.
    pub schedule: Schedule,
}

/// The outcome of replaying one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioVerdict {
    /// All three agreement properties held.
    Pass,
    /// The schedule tried to break a model invariant (e.g. turning
    /// processes Byzantine past the `t` budget) and the engine caught it.
    Breach {
        /// The round the offending event fired at.
        round: Round,
        /// The engine's rejection, rendered.
        reason: String,
    },
    /// An agreement property was violated — a real finding.
    Violation {
        /// The failed verdict, rendered.
        desc: String,
    },
}

impl ScenarioVerdict {
    /// Whether the replay passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, ScenarioVerdict::Pass)
    }
}

/// The full report of one scenario replay.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Pass / breach-detected / property-violated.
    pub verdict: ScenarioVerdict,
    /// The underlying engine report (partial if the run stopped at a
    /// breach).
    pub report: RunReport<bool>,
    /// FNV-1a digest of the canonical trace dump — byte-identical digests
    /// mean byte-identical executions.
    pub trace_digest: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical byte-stable rendering of a trace, digested — one line per
/// attempted delivery, in recording order.
pub fn trace_digest<M: Message>(trace: &Trace<M>) -> u64 {
    let mut s = String::new();
    for d in trace.deliveries() {
        let _ = writeln!(
            s,
            "{}|{}|{}|{}|{:?}|{}",
            d.round, d.from, d.src_id, d.to, d.msg, d.dropped
        );
    }
    fnv1a(s.as_bytes())
}

/// Draws a random identifier assignment: stacked, round-robin, or random
/// surjective — the same three shapes the protocol grids exercise.
pub fn draw_assignment(rng: &mut StdRng, n: usize, ell: usize) -> IdAssignment {
    match rng.gen_range(0..3u8) {
        0 => IdAssignment::stacked(ell, n).expect("ℓ ≤ n"),
        1 => IdAssignment::round_robin(ell, n).expect("ℓ ≤ n"),
        _ => {
            // First ℓ processes cover every identifier; the rest land
            // anywhere.
            let mut ids: Vec<Id> = (1..=ell as u16).map(Id::new).collect();
            for _ in ell..n {
                ids.push(Id::new(rng.gen_range(1..=ell as u16)));
            }
            IdAssignment::new(ell, ids).expect("surjective by construction")
        }
    }
}

/// Draws a strategy description: one to three parts composed from the
/// eight-kind library. `horizon` bounds `CrashAt` rounds, so every drawn
/// crash actually fires within the run.
pub fn draw_strategy(
    rng: &mut StdRng,
    n: usize,
    byz: &BTreeSet<Pid>,
    horizon: u64,
) -> StrategyKind {
    let byz_inputs: Vec<(Pid, bool)> = byz.iter().map(|&p| (p, rng.gen())).collect();
    let split: BTreeSet<Pid> = Pid::all(n).filter(|_| rng.gen()).collect();
    let count = rng.gen_range(1..=3usize);
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        parts.push(match rng.gen_range(0..8u8) {
            0 => StrategyKind::Silent,
            1 => StrategyKind::CrashAt {
                at: Round::new(rng.gen_range(1..horizon.max(2))),
                inner: Box::new(StrategyKind::Mimic {
                    inputs: byz_inputs.clone(),
                }),
            },
            2 => StrategyKind::Mimic {
                inputs: byz_inputs.clone(),
            },
            3 => StrategyKind::Equivocator {
                split: split.clone(),
            },
            4 => StrategyKind::CloneSpammer {
                inputs: vec![false, true],
            },
            5 => StrategyKind::ReplayFuzzer {
                seed: rng.gen(),
                burst: rng.gen_range(1..4u32),
            },
            6 => StrategyKind::StaleReplayer {
                delay: rng.gen_range(1..4u64),
                cap: rng.gen_range(1..5u32),
            },
            _ => StrategyKind::Flooder {
                copies: rng.gen_range(2..6u32),
            },
        });
    }
    if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        StrategyKind::Compose(parts)
    }
}

impl Scenario {
    /// Draws a full scenario for `cfg` from `seed`.
    ///
    /// Every component comes from its own [`sub_seed`] stream, so no two
    /// draws share RNG state. The horizon is `gst + slack` — the *actual*
    /// run length — and every drawn round (crash rounds, event rounds)
    /// is bounded by it, so drawn disruptions always fire. Disruptive
    /// drop phases (partitions, ramps) are bounded by `gst`, keeping the
    /// basic-model promise that drops are finite.
    pub fn draw(seed: u64, cfg: SystemConfig, slack: u64) -> Scenario {
        let mut a_rng = StdRng::seed_from_u64(sub_seed(seed, stream::ASSIGNMENT));
        let assignment = draw_assignment(&mut a_rng, cfg.n, cfg.ell);

        let mut i_rng = StdRng::seed_from_u64(sub_seed(seed, stream::INPUTS));
        let inputs: Vec<bool> = (0..cfg.n).map(|_| i_rng.gen()).collect();

        let mut b_rng = StdRng::seed_from_u64(sub_seed(seed, stream::BYZ));
        let init_k = if cfg.t == 0 {
            0
        } else {
            b_rng.gen_range(0..=cfg.t)
        };
        let mut pool: Vec<Pid> = Pid::all(cfg.n).collect();
        let mut init_byz = BTreeSet::new();
        for _ in 0..init_k {
            let k = b_rng.gen_range(0..pool.len());
            init_byz.insert(pool.swap_remove(k));
        }

        let mut e_rng = StdRng::seed_from_u64(sub_seed(seed, stream::EVENTS));
        let gst = match cfg.synchrony {
            Synchrony::Synchronous => 0,
            Synchrony::PartiallySynchronous => e_rng.gen_range(0..20u64),
        };
        let horizon = gst + slack;

        let mut s_rng = StdRng::seed_from_u64(sub_seed(seed, stream::STRATEGY));
        let init_strategy = draw_strategy(&mut s_rng, cfg.n, &init_byz, horizon);

        let init_drops = match cfg.synchrony {
            Synchrony::Synchronous => DropSpec::None,
            Synchrony::PartiallySynchronous => DropSpec::Random {
                p_permille: 300,
                until: Round::new(gst),
                stream: stream::DROPS,
            },
        };

        let mut schedule = Schedule::new(seed, Round::new(gst), Round::new(horizon));
        let mut budget = cfg.t.saturating_sub(init_byz.len());
        let n_events = e_rng.gen_range(0..=2usize);
        for _ in 0..n_events {
            match e_rng.gen_range(0..3u8) {
                // A correct process defects mid-run (within budget).
                0 if budget > 0 && !pool.is_empty() => {
                    let k = e_rng.gen_range(0..pool.len());
                    let pid = pool.swap_remove(k);
                    budget -= 1;
                    schedule.push(
                        Round::new(e_rng.gen_range(1..horizon.max(2))),
                        ScheduleEvent::TurnByzantine {
                            pids: [pid].into_iter().collect(),
                        },
                    );
                }
                // The coalition switches strategy.
                1 => {
                    let strategy = draw_strategy(&mut s_rng, cfg.n, &init_byz, horizon);
                    schedule.push(
                        Round::new(e_rng.gen_range(1..horizon.max(2))),
                        ScheduleEvent::SwitchStrategy { strategy },
                    );
                }
                // A partition forms pre-GST and heals by GST (psync
                // only: the drop budget must stay finite).
                _ if gst >= 2 => {
                    let at = e_rng.gen_range(0..gst - 1);
                    let heal = e_rng.gen_range(at + 1..=gst);
                    let cut: BTreeSet<Pid> = Pid::all(cfg.n).filter(|_| e_rng.gen()).collect();
                    let rest: BTreeSet<Pid> =
                        Pid::all(cfg.n).filter(|p| !cut.contains(p)).collect();
                    if cut.is_empty() || rest.is_empty() {
                        continue;
                    }
                    schedule.push(
                        Round::new(at),
                        ScheduleEvent::SetDrops {
                            policy: DropSpec::Partition {
                                sides: vec![cut, rest],
                                heal: Round::new(heal),
                            },
                        },
                    );
                    // Restore the seeded random policy when the
                    // partition heals, so the pre-GST noise resumes.
                    if matches!(cfg.synchrony, Synchrony::PartiallySynchronous) && heal < gst {
                        schedule.push(
                            Round::new(heal),
                            ScheduleEvent::SetDrops {
                                policy: DropSpec::Random {
                                    p_permille: 300,
                                    until: Round::new(gst),
                                    stream: stream::DROPS,
                                },
                            },
                        );
                    }
                }
                _ => {}
            }
        }

        // Crash/recover pair, from its own sub-stream. Durable recovery
        // is free (journal replay); an amnesiac rejoin spends one unit of
        // the shared fault budget, so it is only drawn when budget
        // remains. The crash is pushed before the recovery, so a
        // zero-gap pair applies in crash-then-recover order at its round.
        let mut c_rng = StdRng::seed_from_u64(sub_seed(seed, stream::CRASHES));
        if horizon >= 4 && !pool.is_empty() && c_rng.gen_bool(0.5) {
            let k = c_rng.gen_range(0..pool.len());
            let pid = pool.swap_remove(k);
            let at = c_rng.gen_range(1..horizon - 2);
            let gap = c_rng.gen_range(0..=2u64);
            let mode = if budget > 0 && c_rng.gen_bool(0.25) {
                RecoveryMode::Amnesiac
            } else {
                RecoveryMode::Durable
            };
            schedule.push(Round::new(at), ScheduleEvent::Crash { pid });
            schedule.push(
                Round::new((at + gap).min(horizon - 1)),
                ScheduleEvent::Recover { pid, mode },
            );
        }
        schedule.normalize();

        Scenario {
            cfg,
            assignment,
            inputs,
            init_byz,
            init_strategy,
            init_drops,
            schedule,
        }
    }

    /// A one-line human summary for failure messages.
    pub fn summary(&self) -> String {
        format!(
            "n={} ell={} t={} byz={:?} strategy={} gst={} events={}",
            self.cfg.n,
            self.cfg.ell,
            self.cfg.t,
            self.init_byz,
            self.init_strategy.label(),
            self.schedule.gst,
            self.schedule.events.len(),
        )
    }
}

/// Materializes a strategy description into a live adversary for the
/// given coalition.
///
/// Strategies are rebuilt from their description whenever the coalition
/// changes (a `TurnByzantine` event) or a `SwitchStrategy` event fires —
/// a fresh coalition starts with fresh strategy state, which is exactly
/// the round-boundary semantics of the lock-step model.
pub fn build_adversary<P, F>(
    kind: &StrategyKind,
    factory: &F,
    assignment: &IdAssignment,
    byz: &BTreeSet<Pid>,
) -> Box<dyn Adversary<P::Msg>>
where
    P: Protocol<Value = bool> + 'static,
    F: ProtocolFactory<P = P>,
{
    match kind {
        StrategyKind::Silent => Box::new(Silent),
        StrategyKind::Mimic { inputs } => {
            // Cover the *current* coalition: described inputs where
            // given, `false` for processes that defected later.
            let ins: Vec<(Pid, bool)> = byz
                .iter()
                .map(|&p| {
                    let v = inputs
                        .iter()
                        .find(|&&(q, _)| q == p)
                        .map(|&(_, v)| v)
                        .unwrap_or(false);
                    (p, v)
                })
                .collect();
            Box::new(Mimic::new(factory, assignment, &ins))
        }
        StrategyKind::Equivocator { split } => Box::new(Equivocator::new(
            factory,
            assignment,
            byz,
            false,
            true,
            split.clone(),
        )),
        StrategyKind::CloneSpammer { inputs } => {
            Box::new(CloneSpammer::new(factory, assignment, byz, inputs))
        }
        StrategyKind::Flooder { copies } => Box::new(Flooder::new(*copies as usize)),
        StrategyKind::ReplayFuzzer { seed, burst } => {
            Box::new(ReplayFuzzer::new(*seed, *burst as usize))
        }
        StrategyKind::StaleReplayer { delay, cap } => {
            Box::new(StaleReplayer::new(*delay, *cap as usize))
        }
        StrategyKind::CrashAt { at, inner } => Box::new(CrashAt::new(
            *at,
            build_adversary::<P, F>(inner, factory, assignment, byz),
        )),
        StrategyKind::Compose(parts) => Box::new(Compose::new(
            parts
                .iter()
                .map(|k| build_adversary::<P, F>(k, factory, assignment, byz))
                .collect(),
        )),
    }
}

/// Materializes a drop-policy description.
///
/// The random policy's decision stream is seeded with
/// `sub_seed(scenario_seed, spec.stream)` — **never** the scenario seed
/// itself — so drop decisions are independent of every other drawn
/// component (the seed-reuse bug the schedule subsystem retires).
pub fn materialize_drops(spec: &DropSpec, scenario_seed: u64) -> Box<dyn DropPolicy + Send> {
    match spec {
        DropSpec::None => Box::new(NoDrops),
        DropSpec::Random {
            p_permille,
            until,
            stream,
        } => Box::new(RandomUntilGst::new(
            *until,
            f64::from(*p_permille) / 1000.0,
            sub_seed(scenario_seed, *stream),
        )),
        DropSpec::Partition { sides, heal } => Box::new(PartitionUntil::new(sides.clone(), *heal)),
        DropSpec::Isolate { pids, heal } => Box::new(IsolateUntil::new(pids.clone(), *heal)),
    }
}

/// The complete graph on `n` minus the given undirected edges.
fn topology_minus(n: usize, cut: &BTreeSet<(Pid, Pid)>) -> Topology {
    if cut.is_empty() {
        return Topology::complete(n);
    }
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let e = (Pid::new(a), Pid::new(b));
            let rev = (Pid::new(b), Pid::new(a));
            if !cut.contains(&e) && !cut.contains(&rev) {
                edges.push(e);
            }
        }
    }
    Topology::with_edges(n, edges)
}

/// Replays a scenario against the lock-step engine.
///
/// Events fire at the *start* of their round, in schedule order. Shard
/// events are no-ops here (they target the sharded engine — see
/// [`schedule_churn_plan`]). A rejected invariant-breaking event stops
/// the run immediately with [`ScenarioVerdict::Breach`].
pub fn run_scenario<P, F>(scenario: &Scenario, factory: &F) -> ScenarioReport
where
    P: Protocol<Value = bool> + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    F: ProtocolFactory<P = P>,
{
    run_scenario_with(scenario, factory, Sequential)
}

/// [`run_scenario`], with the engine's ticks fanned across the given
/// executor — churned schedules (mid-run strategy switches, drop and
/// topology mutations, Byzantine growth) replay to the **identical**
/// trace digest and verdict at any worker count, because the engine's
/// chunked tick is byte-identical to the sequential sweep.
pub fn run_scenario_with<P, F, E>(scenario: &Scenario, factory: &F, exec: E) -> ScenarioReport
where
    P: Protocol<Value = bool> + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    F: ProtocolFactory<P = P>,
    E: Executor,
{
    let seed = scenario.schedule.seed;
    let mut current_strategy = scenario.init_strategy.clone();
    let adversary = build_adversary::<P, F>(
        &current_strategy,
        factory,
        &scenario.assignment,
        &scenario.init_byz,
    );
    // Journaling is only paid for when the schedule can actually crash
    // someone (durable recovery needs the journals).
    let has_crash = scenario
        .schedule
        .events
        .iter()
        .any(|te| matches!(te.event, ScheduleEvent::Crash { .. }));
    let mut builder = Simulation::builder(
        scenario.cfg,
        scenario.assignment.clone(),
        scenario.inputs.clone(),
    )
    .byzantine(scenario.init_byz.clone(), adversary)
    .drops(materialize_drops(&scenario.init_drops, seed))
    .record_trace(true)
    .executor(exec);
    if has_crash {
        builder = builder.durable(0);
    }
    let mut sim = builder.build_with(factory);

    let horizon = scenario.schedule.horizon.index();
    let mut breach: Option<(Round, String)> = None;
    'run: while sim.round().index() < horizon && !sim.all_decided() {
        let r = sim.round();
        for ev in scenario.schedule.events_at(r) {
            match ev {
                ScheduleEvent::TurnByzantine { pids } => {
                    if let Err(e) = sim.try_turn_byzantine(pids) {
                        breach = Some((r, e.to_string()));
                        break 'run;
                    }
                    // The grown coalition restarts the current strategy.
                    let byz = sim.byz().clone();
                    sim.set_adversary(build_adversary::<P, F>(
                        &current_strategy,
                        factory,
                        &scenario.assignment,
                        &byz,
                    ));
                }
                ScheduleEvent::SwitchStrategy { strategy } => {
                    current_strategy = strategy.clone();
                    let byz = sim.byz().clone();
                    sim.set_adversary(build_adversary::<P, F>(
                        &current_strategy,
                        factory,
                        &scenario.assignment,
                        &byz,
                    ));
                }
                ScheduleEvent::SetDrops { policy } => {
                    sim.set_drops(materialize_drops(policy, seed));
                }
                ScheduleEvent::SetTopology { cut } => {
                    sim.set_topology(topology_minus(scenario.cfg.n, cut));
                }
                ScheduleEvent::Crash { pid } => {
                    if let Err(e) = sim.crash(*pid) {
                        breach = Some((r, e.to_string()));
                        break 'run;
                    }
                }
                ScheduleEvent::Recover { pid, mode } => {
                    if let Err(e) = sim.recover_with(factory, *pid, *mode) {
                        breach = Some((r, e.to_string()));
                        break 'run;
                    }
                }
                ScheduleEvent::ShardAbort { .. } | ScheduleEvent::ShardEnqueue { .. } => {}
            }
        }
        sim.step();
    }

    let report = sim.report();
    let verdict = match breach {
        Some((round, reason)) => ScenarioVerdict::Breach { round, reason },
        None if report.verdict.all_hold() => ScenarioVerdict::Pass,
        None => ScenarioVerdict::Violation {
            desc: report.verdict.to_string(),
        },
    };
    let digest = sim.trace().map(trace_digest).unwrap_or(0);
    ScenarioReport {
        verdict,
        report,
        trace_digest: digest,
    }
}

/// Shrinks a failing scenario's schedule to a minimal counterexample.
///
/// ddmin over the event list — remove chunks, halving the chunk size
/// until single events — keeping a candidate iff its replay verdict
/// equals `target` exactly; then per-event shrinking (a `TurnByzantine`
/// pid set loses members one at a time under the same criterion). The
/// result replays to the identical verdict by construction.
///
/// Call this only with a non-`Pass` target: shrinking towards `Pass`
/// degenerates to the empty schedule.
pub fn shrink<P, F>(scenario: &Scenario, factory: &F, target: &ScenarioVerdict) -> Scenario
where
    P: Protocol<Value = bool> + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    F: ProtocolFactory<P = P>,
{
    let matches = |cand: &Scenario| run_scenario::<P, F>(cand, factory).verdict == *target;
    let mut best = scenario.clone();

    // Phase 1: ddmin over events.
    let mut chunk = best.schedule.events.len().max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < best.schedule.events.len() {
            let mut cand = best.clone();
            let end = (i + chunk).min(cand.schedule.events.len());
            cand.schedule.events.drain(i..end);
            if matches(&cand) {
                best = cand; // keep i: the list shifted under us
            } else {
                i += 1;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // Phase 2: shrink event payloads (TurnByzantine pid sets).
    loop {
        let mut improved = false;
        for idx in 0..best.schedule.events.len() {
            let pids = match &best.schedule.events[idx].event {
                ScheduleEvent::TurnByzantine { pids } if pids.len() > 1 => pids.clone(),
                _ => continue,
            };
            for p in pids {
                let mut cand = best.clone();
                if let ScheduleEvent::TurnByzantine { pids } = &mut cand.schedule.events[idx].event
                {
                    pids.remove(&p);
                    if pids.is_empty() {
                        continue;
                    }
                }
                if matches(&cand) {
                    best = cand;
                    improved = true;
                    break; // pid set changed; re-enumerate
                }
            }
        }
        if !improved {
            break;
        }
    }
    best
}

/// Renders a scenario replay as a DOT trace graph: the event timeline as
/// a chain from setup to verdict, breach/violation highlighted.
pub fn scenario_dot(scenario: &Scenario, report: &ScenarioReport) -> String {
    let mut g = String::new();
    let _ = writeln!(g, "digraph scenario {{");
    let _ = writeln!(g, "  rankdir=LR;");
    let _ = writeln!(g, "  node [shape=box, fontname=\"monospace\"];");
    let _ = writeln!(
        g,
        "  setup [label=\"seed={:#x}\\n{}\\ndrops={:?}\"];",
        scenario.schedule.seed,
        scenario.summary().replace('"', "'"),
        scenario.init_drops.gst(),
    );
    let mut prev = "setup".to_string();
    let breach_round = match &report.verdict {
        ScenarioVerdict::Breach { round, .. } => Some(*round),
        _ => None,
    };
    for (i, te) in scenario.schedule.events.iter().enumerate() {
        let name = format!("ev{i}");
        let hit = breach_round == Some(te.at);
        let color = if hit { ", color=red, penwidth=2" } else { "" };
        let _ = writeln!(
            g,
            "  {name} [label=\"r{}: {}\"{color}];",
            te.at.index(),
            te.event.label().replace('"', "'"),
        );
        let _ = writeln!(g, "  {prev} -> {name};");
        prev = name;
    }
    let (verdict_label, verdict_color) = match &report.verdict {
        ScenarioVerdict::Pass => ("pass".to_string(), "green"),
        ScenarioVerdict::Breach { round, reason } => {
            (format!("breach@r{}: {reason}", round.index()), "red")
        }
        ScenarioVerdict::Violation { desc } => (format!("violation: {desc}"), "red"),
    };
    let _ = writeln!(
        g,
        "  verdict [label=\"{}\\nrounds={} digest={:#018x}\", color={verdict_color}, penwidth=2];",
        verdict_label.replace('"', "'"),
        report.report.rounds,
        report.trace_digest,
    );
    let _ = writeln!(g, "  {prev} -> verdict;");
    let _ = writeln!(g, "}}");
    g
}

/// Compiles a schedule's shard events into a [`ChurnPlan`] for the
/// sharded engine, one churn op per event at the event's round (global
/// tick). `make_shot` builds the enqueued shots from the event's shard
/// index and inputs.
pub fn schedule_churn_plan<P, F>(schedule: &Schedule, mut make_shot: F) -> ChurnPlan<P>
where
    P: Protocol,
    F: FnMut(u32, &[bool]) -> ShotSpec<P>,
{
    let mut plan = ChurnPlan::new();
    for te in &schedule.events {
        match &te.event {
            ScheduleEvent::ShardAbort { shard } => {
                plan.at(te.at.index(), ChurnOp::Abort(ShardId::new(*shard as usize)));
            }
            ScheduleEvent::ShardEnqueue { shard, inputs } => {
                plan.at(
                    te.at.index(),
                    ChurnOp::Enqueue(ShardId::new(*shard as usize), make_shot(*shard, inputs)),
                );
            }
            _ => {}
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_classic::{Eig, UniqueRunner};
    use homonym_core::{Domain, FnFactory};

    fn cfg(n: usize, t: usize) -> SystemConfig {
        SystemConfig::builder(n, n, t).build().expect("valid cfg")
    }

    fn eig_factory(n: usize, t: usize) -> impl ProtocolFactory<P = UniqueRunner<Eig<bool>>> {
        let domain = Domain::binary();
        FnFactory::new(move |id, input| {
            UniqueRunner::new(Eig::new(n, t, domain.clone()), id, input)
        })
    }

    #[test]
    fn draw_is_deterministic_and_streams_are_independent() {
        let c = cfg(4, 1);
        let a = Scenario::draw(99, c, 10);
        let b = Scenario::draw(99, c, 10);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.init_byz, b.init_byz);
        assert_eq!(a.init_strategy, b.init_strategy);
        assert_eq!(a.schedule, b.schedule);
        // A different seed re-rolls the components.
        let d = Scenario::draw(100, c, 10);
        assert_ne!(
            (a.inputs.clone(), a.init_strategy.clone(), a.schedule.seed),
            (d.inputs.clone(), d.init_strategy.clone(), d.schedule.seed),
        );
    }

    #[test]
    fn every_strategy_kind_materializes() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        let assignment = IdAssignment::unique(4);
        let byz: BTreeSet<Pid> = [Pid::new(3)].into_iter().collect();
        let kinds = vec![
            StrategyKind::Silent,
            StrategyKind::Mimic {
                inputs: vec![(Pid::new(3), true)],
            },
            StrategyKind::Equivocator {
                split: [Pid::new(0)].into_iter().collect(),
            },
            StrategyKind::CloneSpammer {
                inputs: vec![false, true],
            },
            StrategyKind::Flooder { copies: 2 },
            StrategyKind::ReplayFuzzer { seed: 1, burst: 2 },
            StrategyKind::StaleReplayer { delay: 1, cap: 2 },
            StrategyKind::CrashAt {
                at: Round::new(2),
                inner: Box::new(StrategyKind::Silent),
            },
            StrategyKind::Compose(vec![
                StrategyKind::Silent,
                StrategyKind::Flooder { copies: 2 },
            ]),
        ];
        for kind in kinds {
            let scenario = Scenario {
                cfg: c,
                assignment: assignment.clone(),
                inputs: vec![true, false, true, false],
                init_byz: byz.clone(),
                init_strategy: kind.clone(),
                init_drops: DropSpec::None,
                schedule: Schedule::new(7, Round::ZERO, Round::new(12)),
            };
            let rep = run_scenario(&scenario, &factory);
            assert!(
                rep.verdict.is_pass(),
                "strategy {} violated agreement: {:?}",
                kind.label(),
                rep.verdict
            );
        }
    }

    #[test]
    fn budget_breach_is_detected_and_stops_the_run() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        let mut schedule = Schedule::new(3, Round::ZERO, Round::new(12));
        schedule.push(
            Round::new(1),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(0)].into_iter().collect(),
            },
        );
        let scenario = Scenario {
            cfg: c,
            assignment: IdAssignment::unique(4),
            inputs: vec![true; 4],
            init_byz: [Pid::new(3)].into_iter().collect(),
            init_strategy: StrategyKind::Silent,
            init_drops: DropSpec::None,
            schedule,
        };
        let rep = run_scenario(&scenario, &factory);
        match &rep.verdict {
            ScenarioVerdict::Breach { round, reason } => {
                assert_eq!(*round, Round::new(1));
                assert!(reason.contains("budget"), "reason: {reason}");
            }
            other => panic!("expected breach, got {other:?}"),
        }
    }

    #[test]
    fn legal_mid_run_defection_keeps_agreement() {
        // t = 2, one initial Byzantine, one more defects at round 1 —
        // within budget, so the run must still satisfy the spec.
        let c = cfg(7, 2);
        let factory = eig_factory(7, 2);
        let mut schedule = Schedule::new(11, Round::ZERO, Round::new(16));
        schedule.push(
            Round::new(1),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(1)].into_iter().collect(),
            },
        );
        let scenario = Scenario {
            cfg: c,
            assignment: IdAssignment::unique(7),
            inputs: vec![true, false, true, false, true, false, true],
            init_byz: [Pid::new(6)].into_iter().collect(),
            init_strategy: StrategyKind::Silent,
            init_drops: DropSpec::None,
            schedule,
        };
        let rep = run_scenario(&scenario, &factory);
        assert!(rep.verdict.is_pass(), "got {:?}", rep.verdict);
        // The defector's input and decision no longer count.
        assert!(!rep.report.outcome.inputs.contains_key(&Pid::new(1)));
    }

    #[test]
    fn replay_is_deterministic() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        for seed in [1u64, 2, 3, 4, 5] {
            let scenario = Scenario::draw(seed, c, 12);
            let a = run_scenario(&scenario, &factory);
            let b = run_scenario(&scenario, &factory);
            assert_eq!(a.trace_digest, b.trace_digest, "seed {seed}");
            assert_eq!(a.verdict, b.verdict, "seed {seed}");
        }
    }

    #[test]
    fn shrinker_reduces_to_the_offending_event() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        let mut schedule = Schedule::new(5, Round::ZERO, Round::new(12));
        // Noise events around one fatal over-budget turn.
        schedule.push(
            Round::new(1),
            ScheduleEvent::SwitchStrategy {
                strategy: StrategyKind::Flooder { copies: 2 },
            },
        );
        schedule.push(
            Round::new(1),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(0)].into_iter().collect(),
            },
        );
        schedule.push(
            Round::new(3),
            ScheduleEvent::SwitchStrategy {
                strategy: StrategyKind::Silent,
            },
        );
        let scenario = Scenario {
            cfg: c,
            assignment: IdAssignment::unique(4),
            inputs: vec![true; 4],
            init_byz: [Pid::new(3)].into_iter().collect(),
            init_strategy: StrategyKind::Silent,
            init_drops: DropSpec::None,
            schedule,
        };
        let rep = run_scenario(&scenario, &factory);
        assert!(matches!(rep.verdict, ScenarioVerdict::Breach { .. }));
        let minimal = shrink(&scenario, &factory, &rep.verdict);
        assert_eq!(minimal.schedule.events.len(), 1, "one offending event");
        assert!(matches!(
            minimal.schedule.events[0].event,
            ScheduleEvent::TurnByzantine { .. }
        ));
        // The minimal schedule replays to the identical verdict.
        let re = run_scenario(&minimal, &factory);
        assert_eq!(re.verdict, rep.verdict);
    }

    #[test]
    fn dot_artifact_marks_the_breach() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        let mut schedule = Schedule::new(5, Round::ZERO, Round::new(12));
        schedule.push(
            Round::new(1),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(0)].into_iter().collect(),
            },
        );
        let scenario = Scenario {
            cfg: c,
            assignment: IdAssignment::unique(4),
            inputs: vec![true; 4],
            init_byz: [Pid::new(3)].into_iter().collect(),
            init_strategy: StrategyKind::Silent,
            init_drops: DropSpec::None,
            schedule,
        };
        let rep = run_scenario(&scenario, &factory);
        let dot = scenario_dot(&scenario, &rep);
        assert!(dot.starts_with("digraph scenario {"));
        assert!(dot.contains("color=red"), "breach must be highlighted");
        assert!(dot.contains("turn_byz"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn topology_events_apply_and_restore() {
        let c = cfg(4, 1);
        let factory = eig_factory(4, 1);
        let mut schedule = Schedule::new(8, Round::ZERO, Round::new(12));
        // Cut one edge at round 0 and restore it at round 1; EIG with
        // n = ℓ = 4, t = 1 still decides within the horizon.
        schedule.push(
            Round::ZERO,
            ScheduleEvent::SetTopology {
                cut: [(Pid::new(0), Pid::new(2))].into_iter().collect(),
            },
        );
        schedule.push(
            Round::new(1),
            ScheduleEvent::SetTopology {
                cut: BTreeSet::new(),
            },
        );
        let scenario = Scenario {
            cfg: c,
            assignment: IdAssignment::unique(4),
            inputs: vec![true, true, false, false],
            init_byz: BTreeSet::new(),
            init_strategy: StrategyKind::Silent,
            init_drops: DropSpec::None,
            schedule,
        };
        let rep = run_scenario(&scenario, &factory);
        assert!(rep.verdict.is_pass(), "got {:?}", rep.verdict);
    }
}
