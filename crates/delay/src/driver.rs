//! The discrete-event driver: basic lossy rounds simulated over a delay
//! network.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{WireDecode, WireEncode};
use homonym_core::journal::{self, DeliveryRecords, Journal, MemJournal};
use homonym_core::spec::{self, Outcome, Verdict};
use homonym_core::IdAssignment;
use homonym_core::{
    ByzPower, Deliveries, FrameInterner, Inbox, Pid, Protocol, ProtocolFactory, RecoveryMode,
    Round, SharedEnvelope, SystemConfig,
};
use homonym_sim::adversary::{AdvCtx, Adversary, Silent};
use homonym_sim::shards::wire_bits;

use crate::model::{DelayModel, Instant};
use crate::net::{Flight, InFlight};
use crate::pacing::{FixedPacing, RoundPacing};

/// The report of one delay-world execution.
///
/// Everything [`homonym_sim::RunReport`] reports, plus the timing facts
/// that make the model-equivalence argument observable: how many messages
/// missed their round (`late`), how many never arrived before the run
/// ended (`unarrived`), and the last round whose inbox lost a message
/// (`last_lossy_round`).
#[derive(Clone, Debug)]
pub struct DelayReport<V> {
    /// Inputs and decisions of the correct processes.
    pub outcome: Outcome<V>,
    /// The three-property verdict.
    pub verdict: Verdict<V>,
    /// Rounds executed.
    pub rounds: u64,
    /// Wall-clock ticks elapsed.
    pub ticks: u64,
    /// Non-self messages handed to the network.
    pub messages_sent: u64,
    /// Exact wire bits of the non-self messages, measured by encoding
    /// each emission once through the frame codec — `Some` only when the
    /// run was built with [`DelayClusterBuilder::measure_bits`]. See
    /// [`wire_bits`].
    pub bits_sent: Option<u64>,
    /// Non-self messages that arrived within their round.
    pub delivered_on_time: u64,
    /// Messages that arrived after their round closed (the basic model's
    /// drops).
    pub late: u64,
    /// Messages still in flight when the run ended (also drops).
    pub unarrived: u64,
    /// Messages that arrived while their recipient was crashed (drops —
    /// a down process has no inbox).
    pub crash_dropped: u64,
    /// The last round whose inbox missed at least one message, if any.
    pub last_lossy_round: Option<Round>,
    /// Sum of [`Protocol::state_bits`] across the correct processes after
    /// the last round (0 when the protocol is not instrumented).
    pub state_bits: u64,
    /// Largest per-round [`DelayReport::state_bits`] sample over the run.
    pub peak_state_bits: u64,
}

impl<V> DelayReport<V> {
    /// Total messages the simulated basic-model execution dropped.
    pub fn dropped(&self) -> u64 {
        self.late + self.unarrived + self.crash_dropped
    }

    /// The first round from which every executed round was loss-free —
    /// the `T` of the paper's basic model, as realized by this execution.
    ///
    /// Returns `None` if lateness persisted into the final executed round
    /// (no clean suffix was demonstrated).
    pub fn clean_from(&self) -> Option<Round> {
        match self.last_lossy_round {
            None => Some(Round::ZERO),
            Some(last) if last.index() + 1 < self.rounds => Some(last.next()),
            Some(_) => None,
        }
    }
}

/// One scheduled crash/recover event of a delay-world run.
enum DelayChurn {
    Crash(Pid),
    Recover(Pid, RecoveryMode),
}

/// Builder for [`DelayCluster`]; see [`DelayCluster::builder`].
pub struct DelayClusterBuilder<P: Protocol> {
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: BTreeSet<Pid>,
    adversary: Box<dyn Adversary<P::Msg>>,
    model: Box<dyn DelayModel>,
    pacing: Box<dyn RoundPacing>,
    measure_bits: bool,
    churn: BTreeMap<u64, Vec<DelayChurn>>,
}

impl<P: Protocol> DelayClusterBuilder<P> {
    /// Declares the Byzantine processes and the strategy controlling them.
    /// Byzantine traffic crosses the same delay network as correct
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics if more than `t` processes are declared Byzantine or any is
    /// out of range.
    pub fn byzantine(
        mut self,
        byz: impl IntoIterator<Item = Pid>,
        adversary: impl Adversary<P::Msg> + 'static,
    ) -> Self {
        self.byz = byz.into_iter().collect();
        assert!(
            self.byz.len() <= self.cfg.t,
            "{} byzantine processes exceed t = {}",
            self.byz.len(),
            self.cfg.t
        );
        assert!(
            self.byz.iter().all(|p| p.index() < self.cfg.n),
            "byzantine pid out of range"
        );
        self.adversary = Box::new(adversary);
        self
    }

    /// Installs the delay model (default: [`Instant`]).
    pub fn model(mut self, model: impl DelayModel + 'static) -> Self {
        self.model = Box::new(model);
        self
    }

    /// Installs the round pacing (default: [`FixedPacing`] of 1 tick).
    pub fn pacing(mut self, pacing: impl RoundPacing + 'static) -> Self {
        self.pacing = Box::new(pacing);
        self
    }

    /// Measures exact wire bits per run (off by default) — see
    /// [`wire_bits`].
    pub fn measure_bits(mut self, on: bool) -> Self {
        self.measure_bits = on;
        self
    }

    /// Schedules a crash of `pid` at the start of `round`: it stops
    /// sending, in-flight messages addressed to it drop, and the
    /// coordinator's journal for it becomes its only surviving state.
    pub fn crash_at(mut self, round: u64, pid: Pid) -> Self {
        self.churn
            .entry(round)
            .or_default()
            .push(DelayChurn::Crash(pid));
        self
    }

    /// Schedules a recovery of `pid` at the start of `round` — durable
    /// (journal replay into a fresh automaton, byte-identical state) or
    /// amnesiac (fresh spawn consuming the shared `t` fault budget).
    pub fn recover_at(mut self, round: u64, pid: Pid, mode: RecoveryMode) -> Self {
        self.churn
            .entry(round)
            .or_default()
            .push(DelayChurn::Recover(pid, mode));
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration, assignment and inputs disagree on `n`
    /// or `ℓ`.
    pub fn build(self) -> DelayCluster<P> {
        self.cfg.validate().expect("invalid system configuration");
        assert_eq!(
            self.assignment.n(),
            self.cfg.n,
            "assignment covers n processes"
        );
        assert_eq!(
            self.assignment.ell(),
            self.cfg.ell,
            "assignment uses ell identifiers"
        );
        assert_eq!(self.inputs.len(), self.cfg.n, "one input per process");
        for events in self.churn.values() {
            for ev in events {
                let pid = match ev {
                    DelayChurn::Crash(pid) | DelayChurn::Recover(pid, _) => *pid,
                };
                assert!(pid.index() < self.cfg.n, "churn pid out of range");
                assert!(!self.byz.contains(&pid), "cannot crash a byzantine pid");
            }
        }
        DelayCluster {
            cfg: self.cfg,
            assignment: self.assignment,
            inputs: self.inputs,
            byz: self.byz,
            adversary: self.adversary,
            model: self.model,
            pacing: self.pacing,
            measure_bits: self.measure_bits,
            churn: self.churn,
        }
    }
}

/// A deterministic execution of homonym protocols over a delay network.
///
/// Rounds are simulated: all processes share the pacing schedule, send at
/// a round's opening tick, and close the round `duration` ticks later,
/// treating whatever arrived by then as the round's inbox. A message that
/// misses its round is discarded — it becomes one of the finitely many
/// drops the basic partially synchronous model allows.
///
/// # Example
///
/// ```
/// use homonym_core::{Domain, IdAssignment, SystemConfig, Synchrony};
/// use homonym_delay::{DelayCluster, EventuallyBounded, FixedPacing};
/// use homonym_psync::AgreementFactory;
///
/// let cfg = SystemConfig::builder(4, 4, 1)
///     .synchrony(Synchrony::PartiallySynchronous)
///     .build()
///     .unwrap();
/// let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
/// // Known bound Δ = 2 that only holds from tick 30 on; rounds of 2 ticks.
/// let report = DelayCluster::builder(cfg, IdAssignment::unique(4), vec![true; 4])
///     .model(EventuallyBounded::new(2, 30, 40, 9))
///     .pacing(FixedPacing::new(2))
///     .build()
///     .run(&factory, 400);
/// assert!(report.verdict.all_hold());
/// ```
pub struct DelayCluster<P: Protocol> {
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: BTreeSet<Pid>,
    adversary: Box<dyn Adversary<P::Msg>>,
    model: Box<dyn DelayModel>,
    pacing: Box<dyn RoundPacing>,
    measure_bits: bool,
    churn: BTreeMap<u64, Vec<DelayChurn>>,
}

impl<P: Protocol> DelayCluster<P> {
    /// Starts building a delay-world run of `cfg` under `assignment`,
    /// where process `i` proposes `inputs[i]`. Defaults: no Byzantine
    /// processes, [`Instant`] delays, [`FixedPacing`] of 1 tick (which
    /// together replicate the lock-step simulator exactly).
    pub fn builder(
        cfg: SystemConfig,
        assignment: IdAssignment,
        inputs: Vec<P::Value>,
    ) -> DelayClusterBuilder<P> {
        DelayClusterBuilder {
            cfg,
            assignment,
            inputs,
            byz: BTreeSet::new(),
            adversary: Box::new(Silent),
            model: Box::new(Instant),
            pacing: Box::new(FixedPacing::new(1)),
            measure_bits: false,
            churn: BTreeMap::new(),
        }
    }

    /// Runs until every correct process decides or `max_rounds` rounds
    /// have executed, then reports.
    ///
    /// # Panics
    ///
    /// Panics on the same contract violations as the lock-step simulator:
    /// a correct process addressing a recipient twice in one round, the
    /// adversary emitting from a correct process, or a decision changing.
    pub fn run<F>(&mut self, factory: &F, max_rounds: u64) -> DelayReport<P::Value>
    where
        F: ProtocolFactory<P = P>,
        P::Msg: WireEncode + WireDecode,
    {
        let n = self.cfg.n;
        let mut procs: BTreeMap<Pid, P> = self
            .assignment
            .iter()
            .filter(|(pid, _)| !self.byz.contains(pid))
            .map(|(pid, id)| (pid, factory.spawn(id, self.inputs[pid.index()].clone())))
            .collect();
        let correct_count = procs.len();
        let mut correct_inputs: BTreeMap<Pid, P::Value> = procs
            .keys()
            .map(|&pid| (pid, self.inputs[pid.index()].clone()))
            .collect();

        // Crash-recovery state: coordinator-held journals (one per
        // correct process, only when a crash is scheduled), the crashed
        // set, and the amnesiac rejoiners who left the accounting.
        let mut churn = std::mem::take(&mut self.churn);
        let mut journals: Option<BTreeMap<Pid, MemJournal>> =
            (!churn.is_empty()).then(|| procs.keys().map(|&p| (p, MemJournal::new())).collect());
        let mut crashed: BTreeSet<Pid> = BTreeSet::new();
        let mut amnesiac: BTreeSet<Pid> = BTreeSet::new();
        let mut records = DeliveryRecords::new();
        let mut crash_dropped = 0u64;

        let mut net: InFlight<P::Msg> = InFlight::new();
        // Per-round routing buckets on the shared delivery fabric, reused
        // across rounds.
        let mut deliveries: Deliveries<P::Msg> = Deliveries::new(n);
        let mut decisions: BTreeMap<Pid, (P::Value, Round)> = BTreeMap::new();
        let mut tick = 0u64;
        let mut round = Round::ZERO;
        // One frame token per distinct payload, stable across the run, so
        // receiving inboxes deduplicate by token instead of deep walks.
        let mut frames: FrameInterner<P::Msg> = FrameInterner::new();
        let mut messages_sent = 0u64;
        let mut bits_sent = 0u64;
        let mut delivered_on_time = 0u64;
        let mut late = 0u64;
        let mut state_bits = 0u64;
        let mut peak_state_bits = 0u64;
        let mut last_lossy_round: Option<Round> = None;
        let mark_lossy = |last: &mut Option<Round>, r: Round| {
            *last = Some(last.map_or(r, |prev: Round| prev.max(r)));
        };

        while round.index() < max_rounds && decisions.len() + amnesiac.len() < correct_count {
            let start = tick;
            let duration = self.pacing.duration(round).max(1);
            let deadline = start + duration;

            // 0. Apply due crash/recover events at the round boundary.
            let due = churn.split_off(&(round.index() + 1));
            for ev in std::mem::replace(&mut churn, due).into_values().flatten() {
                match ev {
                    DelayChurn::Crash(pid) => {
                        assert!(
                            procs.remove(&pid).is_some() && crashed.insert(pid),
                            "cannot crash {pid}: not a live correct process"
                        );
                    }
                    DelayChurn::Recover(pid, mode) => {
                        assert!(crashed.remove(&pid), "{pid} is not crashed");
                        let id = self.assignment.id_of(pid);
                        let input = self.inputs[pid.index()].clone();
                        let p = match mode {
                            RecoveryMode::Durable => {
                                let journal = journals
                                    .as_ref()
                                    .and_then(|j| j.get(&pid))
                                    .expect("journal for crashed pid");
                                let recovered = journal.recover();
                                assert!(
                                    recovered.damage.is_none(),
                                    "journal of {pid} damaged: {:?}",
                                    recovered.damage
                                );
                                let entries = journal::decode_entries::<P::Msg>(&recovered.records)
                                    .expect("journal entries decode");
                                let mut p = factory.spawn(id, input);
                                journal::replay(&mut p, entries, self.cfg.counting)
                                    .expect("journal replay");
                                p
                            }
                            RecoveryMode::Amnesiac => {
                                assert!(
                                    self.byz.len() + amnesiac.len() + 1 <= self.cfg.t,
                                    "fault budget exceeded: {} > t = {}",
                                    self.byz.len() + amnesiac.len() + 1,
                                    self.cfg.t
                                );
                                amnesiac.insert(pid);
                                correct_inputs.remove(&pid);
                                decisions.remove(&pid);
                                if let Some(journal) =
                                    journals.as_mut().and_then(|j| j.get_mut(&pid))
                                {
                                    journal.reset().expect("journal reset");
                                }
                                factory.spawn(id, input)
                            }
                        };
                        procs.insert(pid, p);
                    }
                }
            }

            // This round's on-time arrivals route into the reused fabric
            // buckets; journaled processes also stage their deliveries
            // for the write-ahead log.
            deliveries.clear();
            if journals.is_some() {
                records.begin(n);
            }

            // 1. Correct sends at the round's opening tick; one Arc wrap
            //    per emission, shared by every recipient's flight.
            let mut addressed: BTreeSet<Pid> = BTreeSet::new();
            for (&pid, proc_) in procs.iter_mut() {
                // One shared handle per emission (the `send_shared` seam;
                // protocols may hand back a cached bundle).
                let out = proc_.send_shared(round);
                let src_id = self.assignment.id_of(pid);
                addressed.clear();
                for (recipients, msg) in out {
                    // Exact frame size and token, computed once per
                    // emission however wide the fan-out.
                    let bits = if self.measure_bits {
                        wire_bits(&*msg)
                    } else {
                        0
                    };
                    let tok = frames.tok_for(&msg);
                    for to in recipients.expand(&self.assignment) {
                        assert!(
                            addressed.insert(to),
                            "correct process {pid} addressed {to} twice in {round}"
                        );
                        if to == pid {
                            // Self-delivery costs no network trip.
                            if journals.is_some() {
                                records.stage(to.index(), src_id, tok, &*msg);
                            }
                            deliveries
                                .push(to, SharedEnvelope::framed(src_id, Arc::clone(&msg), tok));
                        } else {
                            messages_sent += 1;
                            bits_sent += bits;
                            let arrive = start + self.model.delay(start, pid, to).max(1);
                            net.send(
                                arrive,
                                Flight {
                                    from: pid,
                                    src: src_id,
                                    to,
                                    round,
                                    msg: Arc::clone(&msg),
                                    tok,
                                },
                            );
                        }
                    }
                }
            }

            // 2. Adversary sends; restricted clamp, same network.
            let ctx = AdvCtx {
                round,
                cfg: &self.cfg,
                assignment: &self.assignment,
                byz: &self.byz,
            };
            let emissions = self.adversary.send(&ctx);
            let mut byz_sent: BTreeMap<(Pid, Pid), u32> = BTreeMap::new();
            for emission in emissions {
                assert!(
                    self.byz.contains(&emission.from),
                    "adversary emitted from non-byzantine {}",
                    emission.from
                );
                let src_id = self.assignment.id_of(emission.from);
                let bits = if self.measure_bits {
                    wire_bits(&*emission.msg)
                } else {
                    0
                };
                let tok = frames.tok_for(&emission.msg);
                for to in emission.to.expand(&self.assignment) {
                    if self.cfg.byz_power == ByzPower::Restricted {
                        let count = byz_sent.entry((emission.from, to)).or_insert(0);
                        if *count >= 1 {
                            continue;
                        }
                        *count += 1;
                    }
                    if to == emission.from {
                        continue; // a Byzantine process gains nothing from self-sends
                    }
                    messages_sent += 1;
                    bits_sent += bits;
                    let arrive = start + self.model.delay(start, emission.from, to).max(1);
                    net.send(
                        arrive,
                        Flight {
                            from: emission.from,
                            src: src_id,
                            to,
                            round,
                            msg: Arc::clone(&emission.msg),
                            tok,
                        },
                    );
                }
            }

            // 3. Advance the clock to the deadline and sort arrivals into
            //    on-time (tagged with this round) and late (an earlier
            //    round's inbox already closed without them).
            for flight in net.arrivals_up_to(deadline) {
                if crashed.contains(&flight.to) {
                    // A down process has no inbox: the arrival is lost,
                    // exactly like a basic-model drop.
                    crash_dropped += 1;
                    mark_lossy(&mut last_lossy_round, flight.round);
                } else if flight.round == round {
                    delivered_on_time += 1;
                    if journals.is_some() && procs.contains_key(&flight.to) {
                        records.stage(flight.to.index(), flight.src, flight.tok, &*flight.msg);
                    }
                    deliveries.push(
                        flight.to,
                        SharedEnvelope::framed(flight.src, flight.msg, flight.tok),
                    );
                } else {
                    debug_assert!(flight.round < round, "messages cannot arrive early");
                    late += 1;
                    mark_lossy(&mut last_lossy_round, flight.round);
                }
            }

            // Persist this round's inboxes before they are consumed (the
            // write-ahead contract: a crash after this point replays to
            // the post-receive state).
            if let Some(j) = &mut journals {
                for (&pid, journal) in j.iter_mut() {
                    if procs.contains_key(&pid) {
                        journal
                            .append(records.record(round, pid.index()))
                            .expect("journal append");
                        journal.sync().expect("journal sync");
                    }
                }
            }

            // 4. Close the round: deliver inboxes, record decisions.
            for (&pid, proc_) in procs.iter_mut() {
                let inbox = deliveries.take_inbox(pid, self.cfg.counting);
                proc_.receive(round, &inbox);
                if amnesiac.contains(&pid) {
                    // Amnesiac rejoiners run but left the accounting;
                    // their decisions draw on the shared fault budget.
                    continue;
                }
                if let Some(v) = proc_.decision() {
                    match decisions.get(&pid) {
                        None => {
                            decisions.insert(pid, (v, round));
                        }
                        Some((prev, _)) => {
                            assert!(
                                *prev == v,
                                "decision of {pid} changed from {prev:?} to {v:?}"
                            );
                        }
                    }
                }
            }

            state_bits = procs.values().map(|p| p.state_bits()).sum();
            peak_state_bits = peak_state_bits.max(state_bits);

            // 5. Byzantine inboxes to the adversary.
            let byz_inboxes: BTreeMap<Pid, Inbox<P::Msg>> = self
                .byz
                .iter()
                .map(|&pid| (pid, deliveries.take_inbox(pid, self.cfg.counting)))
                .collect();
            self.adversary.receive(round, &byz_inboxes);

            tick = deadline;
            round = round.next();
        }

        // Whatever never arrived is also a drop; attribute it to the round
        // it was sent in.
        let mut unarrived = 0u64;
        for flight in net.arrivals_up_to(u64::MAX) {
            unarrived += 1;
            mark_lossy(&mut last_lossy_round, flight.round);
        }

        let outcome = Outcome {
            inputs: correct_inputs,
            decisions,
            horizon: round,
        };
        let verdict = spec::check(&outcome);
        DelayReport {
            outcome,
            verdict,
            rounds: round.index(),
            ticks: tick,
            messages_sent,
            bits_sent: self.measure_bits.then_some(bits_sent),
            delivered_on_time,
            late,
            unarrived,
            crash_dropped,
            last_lossy_round,
            state_bits,
            peak_state_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AlwaysBounded, EventuallyBounded};
    use crate::pacing::DoublingPacing;
    use homonym_core::{FnFactory, Id, Recipients};
    use homonym_sim::adversary::ByzTarget;

    /// Flood the running minimum for `horizon` rounds, then decide it.
    #[derive(Clone, Debug)]
    struct FloodMin {
        id: Id,
        min: u32,
        horizon: u64,
        decision: Option<u32>,
    }

    impl Protocol for FloodMin {
        type Msg = u32;
        type Value = u32;

        fn id(&self) -> Id {
            self.id
        }

        fn send(&mut self, _round: Round) -> Vec<(Recipients, u32)> {
            vec![(Recipients::All, self.min)]
        }

        fn receive(&mut self, round: Round, inbox: &Inbox<u32>) {
            for (_, &msg, _) in inbox.iter() {
                self.min = self.min.min(msg);
            }
            if round.index() + 1 >= self.horizon && self.decision.is_none() {
                self.decision = Some(self.min);
            }
        }

        fn decision(&self) -> Option<u32> {
            self.decision
        }
    }

    fn flood_factory(horizon: u64) -> impl ProtocolFactory<P = FloodMin> {
        FnFactory::new(move |id, input| FloodMin {
            id,
            min: input,
            horizon,
            decision: None,
        })
    }

    fn cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
        SystemConfig::builder(n, ell, t).build().unwrap()
    }

    #[test]
    fn instant_fixed1_matches_lockstep_simulator() {
        let factory = flood_factory(3);
        let inputs = vec![9u32, 4, 7, 2];
        let mut delay =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs.clone()).build();
        let dr = delay.run(&factory, 10);

        let mut sim =
            homonym_sim::Simulation::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs)
                .build_with(&factory);
        let sr = sim.run(10);

        assert_eq!(dr.outcome.decisions, sr.outcome.decisions);
        assert_eq!(dr.rounds, sr.rounds);
        assert_eq!(dr.messages_sent, sr.messages_sent);
        assert_eq!(dr.late, 0);
        assert_eq!(dr.clean_from(), Some(Round::ZERO));
    }

    #[test]
    fn slow_network_under_fast_rounds_loses_everything() {
        // Delays of 4..=6 ticks against 1-tick rounds: every non-self
        // message misses its round; processes only ever hear themselves.
        let factory = flood_factory(3);
        let mut delay =
            DelayCluster::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![5u32, 3, 8])
                .model(AlwaysBounded::between(4, 6, 1))
                .pacing(FixedPacing::new(1))
                .build();
        let report = delay.run(&factory, 3);
        assert_eq!(report.delivered_on_time, 0);
        assert_eq!(report.dropped(), report.messages_sent);
        // Everyone decided their own input: agreement is violated.
        assert!(!report.verdict.agreement.holds());
        assert!(report.clean_from().is_none());
    }

    #[test]
    fn doubling_pacing_outruns_unknown_bound() {
        // Unknown bound Δ = 6 against doubling rounds: early rounds lose
        // messages, later rounds are clean, and a late-enough decision
        // horizon sees the true minimum everywhere.
        let factory = flood_factory(12);
        let mut delay =
            DelayCluster::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![5u32, 3, 8])
                .model(AlwaysBounded::between(4, 6, 2))
                .pacing(DoublingPacing::new(1, 2))
                .build();
        let report = delay.run(&factory, 20);
        assert!(report.verdict.all_hold(), "{:?}", report.verdict);
        assert!(report.late > 0, "early rounds must lose messages");
        let clean = report.clean_from().expect("lateness must cease");
        assert!(clean.index() > 0);
        // All decisions equal the global minimum.
        for (v, _) in report.outcome.decisions.values() {
            assert_eq!(*v, 3);
        }
    }

    #[test]
    fn eventually_bounded_with_matching_pacing_stabilizes() {
        let factory = flood_factory(30);
        let mut delay =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), vec![5u32, 3, 8, 1])
                .model(EventuallyBounded::new(2, 25, 30, 13))
                .pacing(FixedPacing::new(2))
                .build();
        let report = delay.run(&factory, 40);
        assert!(report.verdict.all_hold());
        let clean = report.clean_from().expect("post-calm rounds are clean");
        // The calm tick is 25; rounds are 2 ticks; every round from
        // ⌈25/2⌉ + 1 on is necessarily clean (the +1 covers a message sent
        // just before calm).
        assert!(clean.index() <= 25 / 2 + 2, "clean from {clean}");
    }

    #[test]
    fn self_delivery_is_immune_to_delays() {
        let factory = flood_factory(1);
        let mut delay = DelayCluster::builder(cfg(2, 2, 0), IdAssignment::unique(2), vec![7u32, 9])
            .model(AlwaysBounded::between(50, 50, 5))
            .pacing(FixedPacing::new(1))
            .build();
        let report = delay.run(&factory, 1);
        // Deciding after one round, each process heard (only) itself.
        let vals: Vec<u32> = report.outcome.decisions.values().map(|&(v, _)| v).collect();
        assert_eq!(vals, vec![7, 9]);
    }

    #[test]
    fn restricted_clamp_applies_on_the_delay_network() {
        use homonym_sim::adversary::{Emission, Scripted};
        // The Byzantine process tries three copies to one recipient in
        // round 0; the restricted model lets exactly one through.
        let spam = Scripted::new((0..3).map(|_| {
            (
                Round::ZERO,
                Emission::new(Pid::new(2), ByzTarget::One(Pid::new(0)), 0u32),
            )
        }));
        let mut config = cfg(4, 4, 1);
        config.byz_power = ByzPower::Restricted;
        config.counting = homonym_core::Counting::Numerate;
        let factory = flood_factory(2);
        let mut delay = DelayCluster::builder(config, IdAssignment::unique(4), vec![5u32, 5, 5, 5])
            .byzantine([Pid::new(2)], spam)
            .build();
        let report = delay.run(&factory, 3);
        // 2 rounds × 3 correct × 3 peers = 18 correct sends, plus exactly
        // one clamped Byzantine copy.
        assert_eq!(report.messages_sent, 19);
    }

    #[test]
    #[should_panic(expected = "byzantine processes exceed t")]
    fn too_many_byzantine_rejected() {
        let _ = DelayCluster::<FloodMin>::builder(
            cfg(3, 3, 0),
            IdAssignment::unique(3),
            vec![1u32, 2, 3],
        )
        .byzantine([Pid::new(0)], homonym_sim::adversary::Silent)
        .build();
    }

    #[test]
    #[should_panic(expected = "one input per process")]
    fn wrong_input_count_rejected() {
        let _ =
            DelayCluster::<FloodMin>::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![1u32, 2])
                .build();
    }

    #[test]
    #[should_panic(expected = "assignment covers n processes")]
    fn mismatched_assignment_rejected() {
        let _ = DelayCluster::<FloodMin>::builder(
            cfg(3, 3, 0),
            IdAssignment::unique(4),
            vec![1u32, 2, 3],
        )
        .build();
    }

    #[test]
    fn bits_are_exact_frame_sizes_when_enabled() {
        let factory = flood_factory(3);
        let inputs = vec![9u32, 4, 7, 2];
        let mut delay =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs.clone())
                .measure_bits(true)
                .build();
        let report = delay.run(&factory, 10);
        // Every payload is a small u32, which frames to 2 bytes (version
        // byte + 1 varint byte) = 16 exact bits per non-self message.
        assert_eq!(report.bits_sent, Some(report.messages_sent * 16));

        let mut off =
            DelayCluster::<FloodMin>::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs)
                .build();
        assert_eq!(off.run(&factory, 10).bits_sent, None);
    }

    #[test]
    fn zero_gap_durable_recovery_is_invisible() {
        // Crash p1 at the start of round 2 and durably recover it in the
        // same boundary: journal replay restores byte-identical state, so
        // the whole report matches the uninterrupted run.
        let factory = flood_factory(4);
        let inputs = vec![9u32, 4, 7, 2];
        let golden = DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs.clone())
            .build()
            .run(&factory, 10);
        let recovered =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), inputs.clone())
                .crash_at(2, Pid::new(1))
                .recover_at(2, Pid::new(1), homonym_core::RecoveryMode::Durable)
                .build()
                .run(&factory, 10);
        assert_eq!(golden.outcome.decisions, recovered.outcome.decisions);
        assert_eq!(golden.rounds, recovered.rounds);
        assert_eq!(golden.messages_sent, recovered.messages_sent);
        assert_eq!(recovered.crash_dropped, 0);
    }

    #[test]
    fn gapped_durable_recovery_drops_inflight_and_catches_up() {
        // p1 is down for rounds 1–2: messages addressed to it drop, it
        // sends nothing, then journal replay brings it back and the flood
        // still converges on the global minimum.
        let factory = flood_factory(8);
        let report =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), vec![9u32, 4, 7, 2])
                .crash_at(1, Pid::new(1))
                .recover_at(3, Pid::new(1), homonym_core::RecoveryMode::Durable)
                .build()
                .run(&factory, 12);
        assert!(report.crash_dropped > 0, "down rounds must drop arrivals");
        assert!(report.verdict.all_hold(), "{:?}", report.verdict);
        for (v, _) in report.outcome.decisions.values() {
            assert_eq!(*v, 2);
        }
    }

    #[test]
    fn amnesiac_rejoin_leaves_the_accounting() {
        let factory = flood_factory(6);
        let report =
            DelayCluster::builder(cfg(4, 4, 1), IdAssignment::unique(4), vec![9u32, 4, 7, 2])
                .crash_at(1, Pid::new(0))
                .recover_at(2, Pid::new(0), homonym_core::RecoveryMode::Amnesiac)
                .build()
                .run(&factory, 10);
        // The rejoiner consumed the fault budget: it neither counts for
        // termination nor appears in the outcome.
        assert!(!report.outcome.decisions.contains_key(&Pid::new(0)));
        assert!(!report.outcome.inputs.contains_key(&Pid::new(0)));
        assert!(report.verdict.all_hold(), "{:?}", report.verdict);
    }

    #[test]
    #[should_panic(expected = "fault budget exceeded")]
    fn amnesiac_rejoin_over_budget_panics() {
        // t = 0 leaves no budget for an amnesiac rejoin.
        let factory = flood_factory(6);
        let _ = DelayCluster::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![9u32, 4, 7])
            .crash_at(1, Pid::new(0))
            .recover_at(2, Pid::new(0), homonym_core::RecoveryMode::Amnesiac)
            .build()
            .run(&factory, 10);
    }

    #[test]
    fn unarrived_messages_count_as_drops() {
        let factory = flood_factory(1);
        let mut delay =
            DelayCluster::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![1u32, 2, 3])
                .model(AlwaysBounded::between(90, 100, 8))
                .pacing(FixedPacing::new(1))
                .build();
        let report = delay.run(&factory, 1);
        assert_eq!(report.unarrived, report.messages_sent);
        assert_eq!(report.dropped(), report.messages_sent);
        assert_eq!(report.last_lossy_round, Some(Round::ZERO));
    }
}
