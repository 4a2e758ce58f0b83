//! Run-and-check harness: executes a protocol against a grid of scenarios
//! (input patterns × Byzantine placements × adversary strategies × drop
//! schedules) and aggregates the verdicts.
//!
//! The Table 1 experiments use this to give each configuration an
//! *empirical* verdict — "survived the whole suite" — to compare against
//! the paper's solvability predicate. A survived suite does not prove
//! solvability (no finite test can), but the suite includes the strongest
//! adversaries the paper's proofs construct, so failures are decisive and
//! survivals are meaningful.

use std::collections::BTreeSet;

use homonym_core::{
    ByzPower, Domain, IdAssignment, Pid, Protocol, ProtocolFactory, Round, Synchrony, SystemConfig,
    Value,
};

use crate::adversary::{
    Adversary, CloneSpammer, CrashAt, Equivocator, Flooder, Mimic, ReplayFuzzer, Silent,
    StaleReplayer,
};
use crate::drops::{DropPolicy, NoDrops, RandomUntilGst};
use crate::engine::{RunReport, Simulation};

/// One scenario: who is Byzantine, with which strategy, under which drop
/// schedule, with which inputs.
pub struct Scenario<P: Protocol> {
    /// Human-readable description, e.g. `"inputs=unanimous(0) byz=stack adversary=clone-spammer"`.
    pub name: String,
    /// Per-process proposals (Byzantine entries ignored).
    pub inputs: Vec<P::Value>,
    /// The Byzantine processes.
    pub byz: BTreeSet<Pid>,
    /// Their strategy.
    pub adversary: Box<dyn Adversary<P::Msg>>,
    /// The drop schedule.
    pub drops: Box<dyn DropPolicy>,
}

/// The outcome of one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult<V> {
    /// The scenario's name.
    pub name: String,
    /// The execution report.
    pub report: RunReport<V>,
}

/// The outcome of a whole suite.
#[derive(Clone, Debug)]
pub struct SuiteResult<V> {
    /// All scenario results, in execution order.
    pub results: Vec<ScenarioResult<V>>,
}

impl<V: Value> SuiteResult<V> {
    /// Whether every scenario satisfied all three properties.
    pub fn all_hold(&self) -> bool {
        self.results.iter().all(|r| r.report.verdict.all_hold())
    }

    /// Whether every scenario satisfied the safety properties.
    pub fn all_safe(&self) -> bool {
        self.results.iter().all(|r| r.report.verdict.safe())
    }

    /// The scenarios that violated some property.
    pub fn failures(&self) -> Vec<&ScenarioResult<V>> {
        self.results
            .iter()
            .filter(|r| !r.report.verdict.all_hold())
            .collect()
    }

    /// The worst-case round by which all correct processes decided, over
    /// the scenarios where they all did.
    pub fn max_decision_round(&self) -> Option<Round> {
        self.results
            .iter()
            .filter_map(|r| r.report.all_decided_round)
            .max()
    }

    /// Total messages sent across the suite.
    pub fn total_messages(&self) -> u64 {
        self.results.iter().map(|r| r.report.messages_sent).sum()
    }
}

/// Parameters for [`run_standard_suite`].
#[derive(Clone, Debug)]
pub struct SuiteParams<'a, V> {
    /// The system configuration under test.
    pub cfg: SystemConfig,
    /// The identifier assignment.
    pub assignment: &'a IdAssignment,
    /// The value domain (drives input patterns and adversary personas).
    pub domain: &'a Domain<V>,
    /// Observation horizon in rounds.
    pub horizon: u64,
    /// Stabilization round for partially synchronous drop schedules.
    pub gst: u64,
    /// Seed for randomized drops and fuzzing.
    pub seed: u64,
}

/// Runs one scenario to its horizon.
pub fn run_scenario<P, F>(
    factory: &F,
    cfg: SystemConfig,
    assignment: &IdAssignment,
    scenario: Scenario<P>,
    horizon: u64,
) -> ScenarioResult<P::Value>
where
    P: Protocol + Send + 'static,
    P::Value: Send,
    F: ProtocolFactory<P = P>,
{
    let mut sim = Simulation::builder(cfg, assignment.clone(), scenario.inputs)
        .byzantine(scenario.byz, scenario.adversary)
        .drops(scenario.drops)
        .build_with(factory);
    let report = sim.run(horizon);
    ScenarioResult {
        name: scenario.name,
        report,
    }
}

/// The Byzantine placements worth testing: inside the biggest homonym group
/// ("stack") and on sole identifiers ("soles"), which stress different
/// parts of the protocols.
pub fn byzantine_placements(assignment: &IdAssignment, t: usize) -> Vec<(String, BTreeSet<Pid>)> {
    if t == 0 {
        return vec![("none".to_string(), BTreeSet::new())];
    }
    let sizes = assignment.group_sizes();
    // Groups by descending size.
    let mut by_size: Vec<_> = sizes.iter().collect();
    by_size.sort_by_key(|&(id, &c)| (std::cmp::Reverse(c), *id));

    let mut stack: BTreeSet<Pid> = BTreeSet::new();
    for (&id, _) in &by_size {
        for pid in assignment.group(id) {
            if stack.len() < t {
                stack.insert(pid);
            }
        }
    }

    let mut soles: BTreeSet<Pid> = BTreeSet::new();
    for id in assignment.sole_identifiers() {
        if soles.len() < t {
            soles.extend(assignment.group(id));
        }
    }
    for pid in Pid::all(assignment.n()) {
        if soles.len() < t {
            soles.insert(pid);
        } else {
            break;
        }
    }

    let mut placements = vec![("stack".to_string(), stack.clone())];
    if soles != stack {
        placements.push(("soles".to_string(), soles));
    }
    placements
}

/// The input patterns worth testing: unanimous on each domain value
/// (exercising validity) and an alternating split (exercising agreement).
pub fn input_patterns<V: Value>(domain: &Domain<V>, n: usize) -> Vec<(String, Vec<V>)> {
    let mut patterns = Vec::new();
    for v in domain.values() {
        patterns.push((format!("unanimous({v:?})"), vec![v.clone(); n]));
    }
    if domain.len() >= 2 {
        let vals = domain.values();
        let split: Vec<V> = (0..n).map(|i| vals[i % vals.len()].clone()).collect();
        patterns.push(("split".to_string(), split));
    }
    patterns
}

/// Builds and runs the full standard suite:
/// `input patterns × Byzantine placements × strategies`, with drop
/// schedules appropriate to the configured synchrony.
///
/// Strategies: silent, crash (mid-run), mimic (adversarial inputs),
/// equivocator (two personas), clone-spammer (homonym-stack impersonation),
/// replay-fuzzer (seeded), stale-replayer (delayed echoes), flooder
/// (multiplicity attack). Under `ByzPower::Restricted` the engine clamps
/// multi-send automatically, so the same strategies probe the restricted
/// model's weaker adversary.
pub fn run_standard_suite<P, F>(
    factory: &F,
    params: &SuiteParams<'_, P::Value>,
) -> SuiteResult<P::Value>
where
    P: Protocol + Send + 'static,
    P::Value: Send,
    F: ProtocolFactory<P = P>,
{
    let cfg = params.cfg;
    let assignment = params.assignment;
    let domain = params.domain;
    let mut results = Vec::new();

    let make_drops = |salt: u64| -> Box<dyn DropPolicy> {
        match cfg.synchrony {
            Synchrony::Synchronous => Box::new(NoDrops),
            Synchrony::PartiallySynchronous => Box::new(RandomUntilGst::new(
                Round::new(params.gst),
                0.3,
                params.seed ^ salt,
            )),
        }
    };

    let mut salt = 0u64;
    for (input_name, inputs) in input_patterns(domain, cfg.n) {
        for (placement_name, byz) in byzantine_placements(assignment, cfg.t) {
            let byz_inputs: Vec<(Pid, P::Value)> = byz
                .iter()
                .enumerate()
                .map(|(k, &pid)| (pid, domain.values()[k % domain.len()].clone()))
                .collect();
            let opposite = domain.values().last().expect("non-empty domain").clone();
            let split_half: BTreeSet<Pid> =
                Pid::all(cfg.n).filter(|p| p.index() % 2 == 0).collect();

            let mut adversaries: Vec<(&str, Box<dyn Adversary<P::Msg>>)> = vec![
                ("silent", Box::new(Silent)),
                (
                    "crash",
                    Box::new(CrashAt::new(
                        Round::new(params.horizon / 2),
                        Mimic::new(factory, assignment, &byz_inputs),
                    )),
                ),
                (
                    "mimic",
                    Box::new(Mimic::new(factory, assignment, &byz_inputs)),
                ),
                (
                    "equivocator",
                    Box::new(Equivocator::new(
                        factory,
                        assignment,
                        &byz,
                        domain.default_value().clone(),
                        opposite.clone(),
                        split_half,
                    )),
                ),
                (
                    "clone-spammer",
                    Box::new(CloneSpammer::new(
                        factory,
                        assignment,
                        &byz,
                        domain.values(),
                    )),
                ),
                (
                    "replay-fuzzer",
                    Box::new(ReplayFuzzer::new(params.seed ^ 0x5eed ^ salt, 3)),
                ),
                ("stale-replayer", Box::new(StaleReplayer::new(2, 4))),
                ("flooder", Box::new(Flooder::new(4))),
            ];
            if cfg.t == 0 {
                // Without Byzantine processes only one strategy is
                // meaningful.
                adversaries.truncate(1);
            }

            for (adv_name, adversary) in adversaries {
                salt += 1;
                let scenario = Scenario {
                    name: format!("inputs={input_name} byz={placement_name} adversary={adv_name}"),
                    inputs: inputs.clone(),
                    byz: byz.clone(),
                    adversary,
                    drops: make_drops(salt),
                };
                results.push(run_scenario(
                    factory,
                    cfg,
                    assignment,
                    scenario,
                    params.horizon,
                ));
            }
        }
    }

    SuiteResult { results }
}

/// A conservative observation horizon for a configuration: `gst` plus
/// `slack` rounds for partially synchronous runs, `slack` alone for
/// synchronous ones.
pub fn horizon_for(cfg: &SystemConfig, gst: u64, slack: u64) -> u64 {
    match cfg.synchrony {
        Synchrony::Synchronous => slack,
        Synchrony::PartiallySynchronous => gst + slack,
    }
}

/// Whether the engine will clamp multi-send for this configuration
/// (convenience mirror of the config flag for report printing).
pub fn multisend_clamped(cfg: &SystemConfig) -> bool {
    cfg.byz_power == ByzPower::Restricted
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::Id;

    #[test]
    fn placements_cover_stack_and_soles() {
        let a = IdAssignment::stacked(4, 7).unwrap(); // group(1) = 4 procs
        let placements = byzantine_placements(&a, 2);
        assert_eq!(placements.len(), 2);
        let (_, stack) = &placements[0];
        // Both stack picks are inside group 1.
        for pid in stack {
            assert_eq!(a.id_of(*pid), Id::new(1));
        }
        let (_, soles) = &placements[1];
        for pid in soles {
            assert_ne!(a.id_of(*pid), Id::new(1));
        }
    }

    #[test]
    fn placements_empty_when_t_zero() {
        let a = IdAssignment::unique(4);
        let placements = byzantine_placements(&a, 0);
        assert_eq!(placements.len(), 1);
        assert!(placements[0].1.is_empty());
    }

    #[test]
    fn input_patterns_cover_domain_and_split() {
        let d = Domain::binary();
        let patterns = input_patterns(&d, 4);
        assert_eq!(patterns.len(), 3);
        assert_eq!(patterns[0].1, vec![false; 4]);
        assert_eq!(patterns[1].1, vec![true; 4]);
        assert_eq!(patterns[2].1, vec![false, true, false, true]);
    }

    #[test]
    fn horizon_accounts_for_gst() {
        let sync = SystemConfig::builder(4, 4, 1).build().unwrap();
        assert_eq!(horizon_for(&sync, 10, 20), 20);
        let psync = SystemConfig::builder(4, 4, 1)
            .synchrony(Synchrony::PartiallySynchronous)
            .build()
            .unwrap();
        assert_eq!(horizon_for(&psync, 10, 20), 30);
    }
}
