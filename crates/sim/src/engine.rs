//! The lock-step round execution engine.
//!
//! The hot path rides the delivery fabric
//! ([`homonym_core::fabric`]): each emission's payload is wrapped in an
//! [`Arc`] exactly once and routed as one *cast*; recipients the same
//! casts reached share one inbox (`crate::par`), the trace moves pointer
//! clones, and per-round routing buffers are kept across rounds and
//! `clear()`ed instead of reallocated. Payload `clone()` count per round
//! is zero and handles per payload do not grow with n (pinned by the
//! `clone_counting` and `delivery_classes` tests below).
//!
//! The engine is generic over an [`Executor`]: under the default
//! [`Sequential`] a round runs exactly the historical single-threaded
//! sweep, while [`Pool`](homonym_core::exec::Pool) fans the send and
//! receive phases of **one instance's** round across worker threads —
//! contiguous pid chunks, merged back in chunk order, so traces,
//! decisions, and every counter are byte-identical at any worker count
//! (see the `crate::par` helpers for the full determinism argument).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::exec::{self, Executor, Sequential};
use homonym_core::intern::{IdBits, Tok};
use homonym_core::journal::{self, DeliveryRecords, Journal, MemJournal};
use homonym_core::spec::{self, Outcome, Verdict};
use homonym_core::{
    FrameInterner, Id, IdAssignment, Pid, Protocol, ProtocolFactory, RecoveryMode, Round,
    SystemConfig, WireDecode, WireEncode,
};

use crate::adversary::{AdvCtx, Adversary, Silent};
use crate::drops::{DropPolicy, NoDrops};
use crate::par::{self, Cast, DeliveryPlan, SendScratch};
use crate::topology::Topology;
use crate::trace::{Delivery, Trace};

/// Why a mid-run churn event was rejected by the engine.
///
/// Rejection is a *detection*, not a crash: the engine's state is
/// unchanged, and scenario harnesses surface the rejection as a model
/// breach in their reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The event would push the ever-faulty count — Byzantine processes
    /// plus amnesiac-recovered crashers, who share one budget — past `t`.
    BudgetExceeded {
        /// The ever-faulty count the event would have produced.
        would_be: usize,
        /// The configured fault budget.
        t: usize,
    },
    /// The named process does not exist in this system.
    UnknownPid(Pid),
    /// The named process is already Byzantine.
    AlreadyByzantine(Pid),
    /// The named process is already crashed.
    AlreadyCrashed(Pid),
    /// A recovery was requested for a process that is not crashed.
    NotCrashed(Pid),
    /// A durable recovery could not restore the process (no journal, a
    /// corrupt journal, or an undecodable snapshot). The engine's state
    /// is unchanged; the caller may fall back to an amnesiac rejoin,
    /// which consumes fault budget.
    RecoveryFailed(String),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::BudgetExceeded { would_be, t } => {
                write!(f, "fault budget exceeded: {would_be} > t = {t}")
            }
            ChurnError::UnknownPid(pid) => write!(f, "unknown process {pid:?}"),
            ChurnError::AlreadyByzantine(pid) => write!(f, "{pid:?} is already byzantine"),
            ChurnError::AlreadyCrashed(pid) => write!(f, "{pid:?} is already crashed"),
            ChurnError::NotCrashed(pid) => write!(f, "{pid:?} is not crashed"),
            ChurnError::RecoveryFailed(why) => write!(f, "recovery failed: {why}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// The report of one simulated execution.
#[derive(Clone, Debug)]
pub struct RunReport<V> {
    /// Inputs and decisions of the correct processes, for the checker.
    pub outcome: Outcome<V>,
    /// The three-property verdict.
    pub verdict: Verdict<V>,
    /// Rounds actually executed.
    pub rounds: u64,
    /// The round by which every correct process had decided, if all did.
    pub all_decided_round: Option<Round>,
    /// Non-self messages handed to the network.
    pub messages_sent: u64,
    /// Non-self messages delivered.
    pub messages_delivered: u64,
    /// Non-self messages lost to the drop policy.
    pub messages_dropped: u64,
    /// Sum of [`Protocol::state_bits`] across the correct processes after
    /// the last executed round (0 when the protocol is not instrumented).
    pub state_bits: u64,
    /// The largest per-round [`RunReport::state_bits`] sample seen over
    /// the run — flat for bounded-state protocols, growing for the
    /// faithful O(history) ones.
    pub peak_state_bits: u64,
}

/// [`DeliveryRecords::stage`] monomorphized by
/// [`SimulationBuilder::durable`], which is where the `Msg: WireEncode`
/// bound is checked (the hot `step` path itself carries no codec bounds).
type StageFrame<M> = fn(&mut DeliveryRecords, usize, Id, Tok, &M);

/// Per-process durability state: one journal per correct process, a
/// snapshot cadence, and the round's record builder (one record per
/// delivery class) with its codec hook.
struct Durability<P: Protocol> {
    journals: BTreeMap<Pid, Box<dyn Journal + Send>>,
    snapshot_every: u64,
    records: DeliveryRecords,
    stage: StageFrame<P::Msg>,
}

/// Builder for [`Simulation`]; see [`Simulation::builder`].
pub struct SimulationBuilder<P: Protocol, E: Executor = Sequential> {
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: BTreeSet<Pid>,
    adversary: Box<dyn Adversary<P::Msg>>,
    drops: Box<dyn DropPolicy>,
    topology: Topology,
    record_trace: bool,
    durable: Option<(u64, StageFrame<P::Msg>)>,
    exec: E,
}

impl<P: Protocol, E: Executor> SimulationBuilder<P, E> {
    /// Installs the executor the simulation's rounds run on (default:
    /// [`Sequential`]) — e.g. `.executor(Pool::new(4))` fans each round's
    /// send and receive phases across four worker threads, with traces,
    /// decisions, and counters byte-identical to the sequential run.
    pub fn executor<E2: Executor>(self, exec: E2) -> SimulationBuilder<P, E2> {
        SimulationBuilder {
            cfg: self.cfg,
            assignment: self.assignment,
            inputs: self.inputs,
            byz: self.byz,
            adversary: self.adversary,
            drops: self.drops,
            topology: self.topology,
            record_trace: self.record_trace,
            durable: self.durable,
            exec,
        }
    }

    /// Enables durable journaling: every correct process journals its
    /// per-round deliveries (in-memory by default — see
    /// [`Simulation::install_journal`] for a file-backed WAL) and, when
    /// `snapshot_every > 0` and the protocol supports snapshots, a state
    /// snapshot every `snapshot_every` rounds. A crashed process can then
    /// rejoin bit-exact via
    /// [`recover_with`](Simulation::recover_with)
    /// ([`RecoveryMode::Durable`]). Without this, crashed processes can
    /// only rejoin amnesiac (consuming fault budget).
    pub fn durable(mut self, snapshot_every: u64) -> Self
    where
        P::Msg: WireEncode,
    {
        self.durable = Some((snapshot_every, DeliveryRecords::stage::<P::Msg>));
        self
    }
    /// Declares the Byzantine processes and the strategy controlling them.
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

    /// Installs a drop policy (default: no drops — the synchronous model).
    pub fn drops(mut self, drops: impl DropPolicy + 'static) -> Self {
        self.drops = Box::new(drops);
        self
    }

    /// Installs a topology (default: complete).
    ///
    /// # Panics
    ///
    /// Panics if the topology's size differs from `n`.
    pub fn topology(mut self, topology: Topology) -> Self {
        assert_eq!(topology.n(), self.cfg.n, "topology size must equal n");
        self.topology = topology;
        self
    }

    /// Records a full delivery trace (off by default; required for the
    /// replay adversaries).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Spawns the correct processes from `factory` and finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration, assignment and inputs disagree on `n`
    /// or `ℓ`.
    pub fn build_with<F>(self, factory: &F) -> Simulation<P, E>
    where
        F: ProtocolFactory<P = P>,
    {
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

        let procs: BTreeMap<Pid, P> = self
            .assignment
            .iter()
            .filter(|(pid, _)| !self.byz.contains(pid))
            .map(|(pid, id)| (pid, factory.spawn(id, self.inputs[pid.index()].clone())))
            .collect();
        let inputs = self
            .assignment
            .iter()
            .filter(|(pid, _)| !self.byz.contains(pid))
            .map(|(pid, _)| (pid, self.inputs[pid.index()].clone()))
            .collect();
        let durability = self.durable.map(|(snapshot_every, stage)| Durability {
            journals: procs
                .keys()
                .map(|&pid| (pid, Box::new(MemJournal::new()) as Box<dyn Journal + Send>))
                .collect(),
            snapshot_every,
            records: DeliveryRecords::new(),
            stage,
        });
        Simulation {
            cfg: self.cfg,
            assignment: self.assignment,
            spawn_inputs: self.inputs,
            inputs,
            procs,
            crashed: BTreeSet::new(),
            amnesiac: BTreeSet::new(),
            durability,
            byz: self.byz,
            adversary: self.adversary,
            drops: self.drops,
            topology: self.topology,
            round: Round::ZERO,
            decisions: BTreeMap::new(),
            trace: self.record_trace.then(Trace::new),
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            state_bits: 0,
            peak_state_bits: 0,
            per_round_sent: Vec::new(),
            casts: Vec::new(),
            plan: DeliveryPlan::new(),
            frames: FrameInterner::new(),
            exec: self.exec,
            send_scratch: Vec::new(),
            byz_sent: IdBits::new(),
            recv_out: Vec::new(),
        }
    }
}

/// A deterministic lock-step execution of one system.
///
/// # Example
///
/// ```
/// use homonym_classic::{Eig, UniqueRunner};
/// use homonym_core::{Domain, FnFactory, IdAssignment, SystemConfig};
/// use homonym_sim::Simulation;
///
/// // Classical system: 4 processes, unique identifiers, no faults present.
/// let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
/// let domain = Domain::binary();
/// let factory = FnFactory::new(move |id, input| {
///     UniqueRunner::new(Eig::new(4, 1, domain.clone()), id, input)
/// });
/// let mut sim = Simulation::builder(cfg, IdAssignment::unique(4), vec![true; 4])
///     .build_with(&factory);
/// let report = sim.run(10);
/// assert!(report.verdict.all_hold());
/// ```
pub struct Simulation<P: Protocol, E: Executor = Sequential> {
    cfg: SystemConfig,
    assignment: IdAssignment,
    /// The full input vector, kept pristine for crash-recovery respawns
    /// (the `inputs` map below is the spec checker's view and shrinks as
    /// processes turn faulty).
    spawn_inputs: Vec<P::Value>,
    inputs: BTreeMap<Pid, P::Value>,
    procs: BTreeMap<Pid, P>,
    /// Processes currently down: not sending, inbound messages dropped.
    /// Still *correct* (their inputs and decisions keep counting) — they
    /// are expected to recover.
    crashed: BTreeSet<Pid>,
    /// Processes that rejoined amnesiac: running a correct automaton but
    /// observably faulty, sharing the `t` budget with `byz`. Their
    /// decisions are not recorded.
    amnesiac: BTreeSet<Pid>,
    durability: Option<Durability<P>>,
    byz: BTreeSet<Pid>,
    adversary: Box<dyn Adversary<P::Msg>>,
    drops: Box<dyn DropPolicy>,
    topology: Topology,
    round: Round,
    decisions: BTreeMap<Pid, (P::Value, Round)>,
    trace: Option<Trace<P::Msg>>,
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    state_bits: u64,
    peak_state_bits: u64,
    per_round_sent: Vec<u64>,
    // Per-round fabric buffers, reused across rounds (`clear()`, never
    // realloc): the cast list and the routing plan (per-cast recipient
    // rows, delivery classes, one shared inbox per class).
    casts: Vec<Cast<P::Msg>>,
    plan: DeliveryPlan<P::Msg>,
    /// One token per distinct emitted payload, persistent for the run —
    /// the token-framed dedup seam of
    /// [`Inbox::collect_shared`](homonym_core::Inbox::collect_shared).
    frames: FrameInterner<P::Msg>,
    /// The executor the round phases scatter on ([`Sequential`] unless
    /// the builder installed a pool).
    exec: E,
    // Parallel-tick scratch, reused across rounds: per-chunk send
    // buffers, the adversary's restricted-clamp bitset, and the
    // per-chunk receive results.
    send_scratch: Vec<SendScratch<P::Msg>>,
    byz_sent: IdBits,
    recv_out: Vec<Vec<(Pid, Option<P::Value>, u64)>>,
}

impl<P: Protocol> Simulation<P> {
    /// Starts building a simulation of `cfg` under `assignment`, where
    /// process `i` proposes `inputs[i]` (inputs of Byzantine processes are
    /// ignored). Defaults: no Byzantine processes, no drops, complete
    /// topology, no trace, [`Sequential`] execution.
    pub fn builder(
        cfg: SystemConfig,
        assignment: IdAssignment,
        inputs: Vec<P::Value>,
    ) -> SimulationBuilder<P> {
        SimulationBuilder {
            cfg,
            assignment,
            inputs,
            byz: BTreeSet::new(),
            adversary: Box::new(Silent),
            drops: Box::new(NoDrops),
            topology: Topology::complete(cfg.n),
            record_trace: false,
            durable: None,
            exec: Sequential,
        }
    }
}

impl<P: Protocol, E: Executor> Simulation<P, E> {
    /// The current round (the next one to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The system configuration.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The stabilization round of the installed drop policy.
    pub fn gst(&self) -> Round {
        self.drops.gst()
    }

    /// Whether every correct process has decided. Crashed processes are
    /// still correct (they are expected to recover), so an undecided
    /// crashed process keeps the run going; amnesiac rejoiners are
    /// faulty and do not count.
    pub fn all_decided(&self) -> bool {
        self.procs
            .keys()
            .filter(|p| !self.amnesiac.contains(p))
            .chain(self.crashed.iter())
            .all(|p| self.decisions.contains_key(p))
    }

    /// The decisions recorded so far.
    pub fn decisions(&self) -> &BTreeMap<Pid, (P::Value, Round)> {
        &self.decisions
    }

    /// The correct processes' automata, ascending by [`Pid`] — for
    /// inspecting protocol state between [`step`](Simulation::step)s (the
    /// lemma-invariant tests check lock coherence this way).
    pub fn processes(&self) -> impl Iterator<Item = (Pid, &P)> {
        self.procs.iter().map(|(&pid, p)| (pid, p))
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace<P::Msg>> {
        self.trace.as_ref()
    }

    /// Consumes the simulation, returning the trace (if recorded).
    pub fn into_trace(self) -> Option<Trace<P::Msg>> {
        self.trace
    }

    /// Non-self messages handed to the network in each executed round.
    ///
    /// Protocols that retransmit forever (the echo broadcast's relay
    /// property) show their growth here; the E7 experiment plots it.
    pub fn per_round_sent(&self) -> &[u64] {
        &self.per_round_sent
    }

    /// The current Byzantine set.
    pub fn byz(&self) -> &BTreeSet<Pid> {
        &self.byz
    }

    /// The currently crashed processes.
    pub fn crashed(&self) -> &BTreeSet<Pid> {
        &self.crashed
    }

    /// The processes that rejoined amnesiac (ever — the set never
    /// shrinks; it is the crash half of the shared fault budget).
    pub fn amnesiac(&self) -> &BTreeSet<Pid> {
        &self.amnesiac
    }

    /// The durable journal of `pid`, if durability is enabled and the
    /// process had one (for inspecting journal sizes and injecting
    /// faults in tests).
    pub fn journal(&self, pid: Pid) -> Option<&(dyn Journal + Send)> {
        self.durability
            .as_ref()
            .and_then(|d| d.journals.get(&pid))
            .map(|j| j.as_ref())
    }

    /// Replaces `pid`'s journal backend (e.g. with a file-backed
    /// [`homonym_core::journal::FileWal`]). The new journal should be
    /// empty — it records from the current round on.
    ///
    /// # Panics
    ///
    /// Panics if durability is not enabled or `pid` has no journal slot.
    pub fn install_journal(&mut self, pid: Pid, journal: Box<dyn Journal + Send>) {
        let dur = self
            .durability
            .as_mut()
            .expect("durability not enabled (SimulationBuilder::durable)");
        let slot = dur
            .journals
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no journal slot for {pid}"));
        *slot = journal;
    }

    /// Replaces the drop policy mid-run (a partition forms, a ramp
    /// starts, or the network heals).
    ///
    /// The basic partially synchronous model only requires the *total*
    /// number of drops to be finite, so swapping policies is sound as long
    /// as the schedule eventually installs a policy whose
    /// [`gst`](DropPolicy::gst) has passed.
    pub fn set_drops(&mut self, drops: Box<dyn DropPolicy>) {
        self.drops = drops;
    }

    /// Replaces the topology mid-run (links fail or are repaired).
    ///
    /// # Panics
    ///
    /// Panics if the new topology is sized for a different `n`.
    pub fn set_topology(&mut self, topology: Topology) {
        assert_eq!(topology.n(), self.cfg.n, "topology n mismatch");
        self.topology = topology;
    }

    /// Replaces the Byzantine coalition's strategy mid-run.
    ///
    /// The new adversary starts with no captured state — exactly the
    /// semantics of a coalition switching behaviour at a round boundary.
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary<P::Msg>>) {
        self.adversary = adversary;
    }

    /// Turns the given correct processes Byzantine at the next round
    /// boundary, validating the model's fault budget.
    ///
    /// The paper's bounds count processes that are *ever* faulty, so a
    /// process behaving correctly for a prefix and then joining the
    /// coalition is a legal `t`-bounded execution — but only while the
    /// ever-Byzantine count stays at most `t`. A schedule that pushes past
    /// the budget is **rejected** (nothing changes) and the breach is
    /// reported to the caller, which is how deliberate-violation schedules
    /// assert detection.
    ///
    /// On success the turned processes leave the correct set: their
    /// automata are dropped and their inputs and decisions no longer count
    /// for the spec checker.
    ///
    /// The budget is *joint*: ever-Byzantine processes and amnesiac
    /// crash-recoveries draw from the same `|faulty| ≤ t` pool (the
    /// paper's bounds count processes that are ever faulty, whatever the
    /// failure mode).
    pub fn try_turn_byzantine(&mut self, pids: &BTreeSet<Pid>) -> Result<(), ChurnError> {
        for &pid in pids {
            if pid.index() >= self.cfg.n {
                return Err(ChurnError::UnknownPid(pid));
            }
            if self.byz.contains(&pid) {
                return Err(ChurnError::AlreadyByzantine(pid));
            }
        }
        self.check_fault_budget(pids.iter().copied())?;
        for &pid in pids {
            self.byz.insert(pid);
            self.procs.remove(&pid);
            self.inputs.remove(&pid);
            self.decisions.remove(&pid);
            self.crashed.remove(&pid);
        }
        Ok(())
    }

    /// The joint fault-budget check shared by Byzantine churn and
    /// amnesiac recovery: ever-faulty = `byz ∪ amnesiac ∪ extra`.
    fn check_fault_budget(&self, extra: impl IntoIterator<Item = Pid>) -> Result<(), ChurnError> {
        let mut ever: BTreeSet<Pid> = self.byz.union(&self.amnesiac).copied().collect();
        ever.extend(extra);
        if ever.len() > self.cfg.t {
            return Err(ChurnError::BudgetExceeded {
                would_be: ever.len(),
                t: self.cfg.t,
            });
        }
        Ok(())
    }

    /// Crashes `pid` at the current round boundary: its automaton leaves
    /// the run (the journal, if any, is the only surviving state), it
    /// stops sending, and every message addressed to it drops until it
    /// recovers. The process is still *correct* — its input and any
    /// recorded decision keep counting for the spec checker, on the
    /// expectation that it recovers.
    pub fn crash(&mut self, pid: Pid) -> Result<(), ChurnError> {
        if pid.index() >= self.cfg.n {
            return Err(ChurnError::UnknownPid(pid));
        }
        if self.byz.contains(&pid) {
            return Err(ChurnError::AlreadyByzantine(pid));
        }
        if self.crashed.contains(&pid) {
            return Err(ChurnError::AlreadyCrashed(pid));
        }
        self.procs.remove(&pid);
        self.crashed.insert(pid);
        Ok(())
    }

    /// Recovers crashed process `pid` at the current round boundary.
    ///
    /// [`RecoveryMode::Durable`] rebuilds the automaton from its durable
    /// journal: a fresh spawn restores the latest snapshot (if any) and
    /// replays the journaled rounds after it — determinism makes the
    /// result byte-identical to the pre-crash state, so the process
    /// rejoins *correct*, at zero fault-budget cost. A missing, corrupt,
    /// or undecodable journal yields a typed
    /// [`ChurnError::RecoveryFailed`] and changes nothing.
    ///
    /// [`RecoveryMode::Amnesiac`] respawns from the original input with
    /// no memory. The rejoin is observably faulty (the process may
    /// equivocate against its own pre-crash decisions), so it consumes
    /// one unit of the joint `|faulty| ≤ t` budget — over budget, the
    /// event is rejected with [`ChurnError::BudgetExceeded`] and nothing
    /// changes. On success the pid's journal resets (pre-crash history
    /// must not replay into the fresh automaton) and its input and
    /// decisions leave the spec checker's view.
    pub fn recover_with<F>(
        &mut self,
        factory: &F,
        pid: Pid,
        mode: RecoveryMode,
    ) -> Result<(), ChurnError>
    where
        F: ProtocolFactory<P = P>,
        P::Msg: WireDecode,
    {
        if !self.crashed.contains(&pid) {
            return Err(ChurnError::NotCrashed(pid));
        }
        let id = self.assignment.id_of(pid);
        let input = self.spawn_inputs[pid.index()].clone();
        match mode {
            RecoveryMode::Amnesiac => {
                self.check_fault_budget([pid])?;
                if let Some(dur) = &mut self.durability {
                    if let Some(j) = dur.journals.get_mut(&pid) {
                        j.reset()
                            .map_err(|e| ChurnError::RecoveryFailed(e.to_string()))?;
                    }
                }
                self.amnesiac.insert(pid);
                self.inputs.remove(&pid);
                self.decisions.remove(&pid);
                self.crashed.remove(&pid);
                self.procs.insert(pid, factory.spawn(id, input));
                Ok(())
            }
            RecoveryMode::Durable => {
                let dur = self.durability.as_ref().ok_or_else(|| {
                    ChurnError::RecoveryFailed(
                        "durability not enabled (SimulationBuilder::durable)".into(),
                    )
                })?;
                let journal = dur
                    .journals
                    .get(&pid)
                    .ok_or_else(|| ChurnError::RecoveryFailed(format!("no journal for {pid}")))?;
                let recovered = journal.recover();
                if let Some(damage) = recovered.damage {
                    return Err(ChurnError::RecoveryFailed(damage.to_string()));
                }
                let entries = journal::decode_entries::<P::Msg>(&recovered.records)
                    .map_err(|e| ChurnError::RecoveryFailed(e.to_string()))?;
                let mut automaton = factory.spawn(id, input);
                journal::replay(&mut automaton, entries, self.cfg.counting)
                    .map_err(|e| ChurnError::RecoveryFailed(e.to_string()))?;
                self.crashed.remove(&pid);
                self.procs.insert(pid, automaton);
                Ok(())
            }
        }
    }

    /// Executes one round: correct sends, adversary sends, topology /
    /// restriction / drops, delivery, decision recording.
    ///
    /// Each emitted payload is wrapped in an [`Arc`] exactly once and kept
    /// as one *cast*, however many processes it addresses; recipients the
    /// same casts reached form one delivery class and share one inbox
    /// (and, when durable, one journal record's bytes). The cast list
    /// and the routing plan persist across rounds, so a fault-free
    /// broadcast round does O(emissions) fabric work plus the O(n²)
    /// route walk the drop policy's query order demands.
    ///
    /// Under a pool executor the send and receive phases fan out over
    /// contiguous pid chunks (buffers concatenated, results merged, in
    /// chunk order); the adversary, the frame interner, the stateful drop
    /// policy, and the class inboxes run on the calling thread in
    /// sequential order. See `crate::par`.
    ///
    /// # Panics
    ///
    /// Panics if a correct process addresses the same recipient twice in
    /// one round (a protocol bug), if the adversary emits from a
    /// non-Byzantine process (a scenario bug), or if a decision changes
    /// (a protocol bug).
    pub fn step(&mut self)
    where
        P: Send,
        P::Value: Send,
    {
        let r = self.round;
        let workers = self.exec.workers();
        self.casts.clear();

        // 1. Correct processes send; enforce one message per recipient.
        //    Contiguous pid chunks fill per-chunk cast buffers, appended
        //    in chunk order — the same cast list the sequential pid-order
        //    sweep builds.
        {
            let mut procs: Vec<(Pid, &mut P)> =
                self.procs.iter_mut().map(|(&pid, p)| (pid, p)).collect();
            let ranges = exec::chunk_ranges(procs.len(), workers);
            if self.send_scratch.len() < ranges.len() {
                self.send_scratch
                    .resize_with(ranges.len(), Default::default);
            }
            let assignment = &self.assignment;
            let mut proc_slice = procs.as_mut_slice();
            let mut scratch_slice = self.send_scratch.as_mut_slice();
            let mut tasks = Vec::with_capacity(ranges.len());
            for range in &ranges {
                let (chunk, rest) = std::mem::take(&mut proc_slice).split_at_mut(range.len());
                proc_slice = rest;
                let (scratch, rest) = std::mem::take(&mut scratch_slice).split_at_mut(1);
                scratch_slice = rest;
                let scratch = &mut scratch[0];
                tasks.push(move || par::send_chunk(chunk, r, assignment, |_| 0, None, scratch));
            }
            self.exec.scatter(tasks);
            for scratch in self.send_scratch.iter_mut().take(ranges.len()) {
                scratch.drain_into(&mut self.casts);
            }
        }

        // 2. Adversary sends (one stateful strategy object — calling
        //    thread); clamp to one per recipient if restricted. Then
        //    stamp every cast's frame token from the run's one interner,
        //    in sequential first-seen order.
        let ctx = AdvCtx {
            round: r,
            cfg: &self.cfg,
            assignment: &self.assignment,
            byz: &self.byz,
        };
        let emissions = self.adversary.send(&ctx);
        par::adversary_casts(
            emissions,
            &self.byz,
            &self.assignment,
            self.cfg.byz_power,
            &mut self.byz_sent,
            |_| 0,
            None,
            &mut self.casts,
        );
        par::stamp_toks(&mut self.frames, &mut self.casts);

        // 3. Topology and drops, planned in exact (cast, recipient) order
        //    on the calling thread (the drop policy is stateful: query
        //    order is observable), then one inbox per delivery class with
        //    someone to read it.
        let trace = &mut self.trace;
        let down = (!self.crashed.is_empty()).then_some(&self.crashed);
        let tallies = par::plan_routes(
            &self.casts,
            r,
            &self.assignment,
            &self.topology,
            down,
            self.drops.as_mut(),
            &mut self.plan,
            |cast, to, dropped| {
                if let Some(trace) = trace.as_mut() {
                    trace.record(Delivery {
                        round: r,
                        from: cast.from,
                        src_id: cast.src,
                        to,
                        msg: Arc::clone(&cast.msg),
                        dropped,
                    });
                }
            },
        );
        self.messages_sent += tallies.sent;
        self.messages_delivered += tallies.delivered;
        self.messages_dropped += tallies.dropped;
        let crashed = &self.crashed;
        self.plan
            .build_inboxes(&self.casts, self.cfg.counting, |pid| {
                !crashed.contains(&pid)
            });

        // 4. Deliver to correct processes; record decisions. Each chunk
        //    runs `receive` for its processes against their class's
        //    shared inbox — results merged and recorded in pid order.
        {
            let mut procs: Vec<(Pid, &mut P)> =
                self.procs.iter_mut().map(|(&pid, p)| (pid, p)).collect();
            let ranges = exec::chunk_ranges(procs.len(), workers);
            if self.recv_out.len() < ranges.len() {
                self.recv_out.resize_with(ranges.len(), Vec::new);
            }
            let plan = &self.plan;
            let mut proc_slice = procs.as_mut_slice();
            let mut out_slice = self.recv_out.as_mut_slice();
            let mut tasks = Vec::with_capacity(ranges.len());
            for range in &ranges {
                let (chunk, rest) = std::mem::take(&mut proc_slice).split_at_mut(range.len());
                proc_slice = rest;
                let (out, rest) = std::mem::take(&mut out_slice).split_at_mut(1);
                out_slice = rest;
                let out = &mut out[0];
                tasks.push(move || par::receive_chunk(chunk, r, plan, out));
            }
            self.exec.scatter(tasks);
        }
        let mut total_bits = 0u64;
        for out in self.recv_out.iter_mut() {
            for (pid, decision, bits) in out.drain(..) {
                total_bits += bits;
                if self.amnesiac.contains(&pid) {
                    // An amnesiac rejoiner is faulty: it runs a correct
                    // automaton but its decisions don't count (and may
                    // contradict its own pre-crash decision).
                    continue;
                }
                if let Some(v) = decision {
                    match self.decisions.get(&pid) {
                        None => {
                            self.decisions.insert(pid, (v, r));
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
        }

        self.per_round_sent.push(tallies.sent);

        // Sample protocol state after delivery: the bounded protocols
        // prove their O(1) steady-state memory through this counter.
        self.state_bits = total_bits;
        self.peak_state_bits = self.peak_state_bits.max(self.state_bits);

        // Journal this round's deliveries (and, at the snapshot cadence,
        // each process's post-receive state) and make them durable. One
        // entry per live process per round — `send` mutates state, so
        // recovery replay must re-run even empty-inbox rounds.
        if let Some(dur) = &mut self.durability {
            let procs = &self.procs;
            self.plan.journal(
                &self.casts,
                r,
                &mut dur.records,
                dur.stage,
                &mut dur.journals,
                |pid| procs.contains_key(&pid), // else crashed or turned: journal idles
            );
            let boundary = dur.snapshot_every > 0 && (r.index() + 1) % dur.snapshot_every == 0;
            for (&pid, journal) in dur.journals.iter_mut() {
                let Some(proc_) = self.procs.get(&pid) else {
                    continue;
                };
                if boundary {
                    if let Some(bytes) = proc_.snapshot() {
                        journal
                            .append(&journal::encode_snapshot_entry(r.next(), &bytes))
                            .expect("journal append failed");
                    }
                }
                journal.sync().expect("journal sync failed");
            }
        }

        // 5. Tell the adversary what its processes received.
        let byz_inboxes = self.plan.take_byz_inboxes(&self.byz);
        self.adversary.receive(r, &byz_inboxes);

        self.round = r.next();
    }

    /// Runs until every correct process has decided or `max_rounds` rounds
    /// have executed, then reports.
    pub fn run(&mut self, max_rounds: u64) -> RunReport<P::Value>
    where
        P: Send,
        P::Value: Send,
    {
        while self.round.index() < max_rounds && !self.all_decided() {
            self.step();
        }
        self.report()
    }

    /// Runs exactly `max_rounds` rounds (decided processes keep
    /// participating, as the paper's algorithms prescribe), then reports.
    pub fn run_exact(&mut self, max_rounds: u64) -> RunReport<P::Value>
    where
        P: Send,
        P::Value: Send,
    {
        while self.round.index() < max_rounds {
            self.step();
        }
        self.report()
    }

    /// The report for the execution so far.
    pub fn report(&self) -> RunReport<P::Value> {
        let outcome = Outcome {
            inputs: self.inputs.clone(),
            decisions: self.decisions.clone(),
            horizon: self.round,
        };
        let verdict = spec::check(&outcome);
        RunReport {
            all_decided_round: self
                .all_decided()
                .then(|| self.decisions.values().map(|&(_, r)| r).max())
                .flatten(),
            outcome,
            verdict,
            rounds: self.round.index(),
            messages_sent: self.messages_sent,
            messages_delivered: self.messages_delivered,
            messages_dropped: self.messages_dropped,
            state_bits: self.state_bits,
            peak_state_bits: self.peak_state_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::{ByzPower, FnFactory, Inbox, Recipients};

    /// A toy protocol: broadcast the input every round; decide on the
    /// smallest value heard from at least `quorum` distinct identifiers
    /// after round 0.
    #[derive(Clone, Debug)]
    struct Gossip {
        id: Id,
        input: u32,
        heard: BTreeMap<u32, BTreeSet<Id>>,
        quorum: usize,
        decision: Option<u32>,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        type Value = u32;

        fn id(&self) -> Id {
            self.id
        }

        fn send(&mut self, _round: Round) -> Vec<(Recipients, u32)> {
            vec![(Recipients::All, self.input)]
        }

        fn receive(&mut self, _round: Round, inbox: &Inbox<u32>) {
            for (id, &msg, _count) in inbox.iter() {
                self.heard.entry(msg).or_default().insert(id);
            }
            if self.decision.is_none() {
                self.decision = self
                    .heard
                    .iter()
                    .find(|(_, ids)| ids.len() >= self.quorum)
                    .map(|(&v, _)| v);
            }
        }

        fn decision(&self) -> Option<u32> {
            self.decision
        }
    }

    fn gossip_factory(quorum: usize) -> impl ProtocolFactory<P = Gossip> {
        FnFactory::new(move |id, input| Gossip {
            id,
            input,
            heard: BTreeMap::new(),
            quorum,
            decision: None,
        })
    }

    fn cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
        SystemConfig::builder(n, ell, t).build().unwrap()
    }

    #[test]
    fn decides_and_reports() {
        let factory = gossip_factory(3);
        let mut sim = Simulation::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![7, 7, 7])
            .build_with(&factory);
        let report = sim.run(5);
        assert!(report.verdict.all_hold());
        assert_eq!(report.all_decided_round, Some(Round::ZERO));
        // 3 processes broadcast to 2 peers each, for 1 round.
        assert_eq!(report.messages_sent, 6);
        assert_eq!(report.messages_delivered, 6);
    }

    #[test]
    fn innumerate_collapses_homonym_copies() {
        // Two homonyms (id 1) with the same input look like one sender to an
        // innumerate receiver: quorum 3 needs a third distinct identifier.
        let factory = gossip_factory(3);
        let assignment = IdAssignment::new(2, vec![Id::new(1), Id::new(1), Id::new(2)]).unwrap();
        let mut sim =
            Simulation::builder(cfg(3, 2, 0), assignment, vec![5, 5, 5]).build_with(&factory);
        let report = sim.run(4);
        // Only 2 distinct identifiers exist; quorum 3 unreachable.
        assert!(!report.verdict.termination.holds());
    }

    #[test]
    fn byzantine_inputs_are_excluded_from_validity() {
        let factory = gossip_factory(2);
        let mut sim = Simulation::builder(cfg(3, 3, 1), IdAssignment::unique(3), vec![7, 7, 9])
            .byzantine([Pid::new(2)], Silent)
            .build_with(&factory);
        let report = sim.run(5);
        // The Byzantine process's "input" 9 does not make validity vacuous.
        assert!(report.verdict.validity.holds());
        assert_eq!(report.outcome.inputs.len(), 2);
    }

    #[test]
    fn drops_lose_messages() {
        use crate::drops::ScriptedDrops;
        let factory = gossip_factory(3);
        let mut sim = Simulation::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![1, 1, 1])
            .drops(ScriptedDrops::new([
                (Round::ZERO, Pid::new(0), Pid::new(1)),
                (Round::ZERO, Pid::new(0), Pid::new(2)),
            ]))
            .build_with(&factory);
        let report = sim.run(3);
        assert_eq!(report.messages_dropped, 2);
        // Still decides in a later round once drops cease.
        assert!(report.verdict.all_hold());
        assert!(report.all_decided_round > Some(Round::ZERO));
    }

    #[test]
    fn restricted_clamps_byzantine_multisend() {
        use crate::adversary::{ByzTarget, Emission, Scripted};
        // The Byzantine process tries to send three copies to one recipient.
        let spam = Scripted::new((0..3).map(|_| {
            (
                Round::ZERO,
                Emission::new(Pid::new(2), ByzTarget::One(Pid::new(0)), 9u32),
            )
        }));
        let run = |byz_power| {
            let factory = gossip_factory(2);
            let mut config = cfg(3, 3, 1);
            config.byz_power = byz_power;
            config.counting = homonym_core::Counting::Numerate;
            let mut sim = Simulation::builder(config, IdAssignment::unique(3), vec![1, 1, 0])
                .byzantine([Pid::new(2)], spam.clone())
                .record_trace(true)
                .build_with(&factory);
            sim.run(1);
            sim.into_trace().unwrap().len()
        };
        // Unrestricted: 3 spam + 6 correct broadcasts land in the trace
        // (self-deliveries included: 2 correct senders × 3 targets).
        assert_eq!(run(ByzPower::Unrestricted), 9);
        // Restricted: the clamp keeps only the first spam copy.
        assert_eq!(run(ByzPower::Restricted), 7);
    }

    #[test]
    fn topology_restricts_channels() {
        // A line topology 0-1-2: process 0 and 2 cannot hear each other.
        let factory = gossip_factory(3);
        let topo =
            Topology::with_edges(3, [(Pid::new(0), Pid::new(1)), (Pid::new(1), Pid::new(2))]);
        let mut sim = Simulation::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![1, 2, 3])
            .topology(topo)
            .record_trace(true)
            .build_with(&factory);
        sim.run_exact(1);
        let trace = sim.trace().unwrap();
        assert!(trace
            .received_from_id(Pid::new(2), Id::new(1), Round::ZERO)
            .is_empty());
        assert!(!trace
            .received_from_id(Pid::new(1), Id::new(1), Round::ZERO)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "byzantine processes exceed t")]
    fn too_many_byzantine_rejected() {
        let factory = gossip_factory(2);
        let _ = Simulation::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![1, 1, 1])
            .byzantine([Pid::new(0)], Silent)
            .build_with(&factory);
    }

    #[test]
    fn run_exact_continues_after_decision() {
        let factory = gossip_factory(3);
        let mut sim = Simulation::builder(cfg(3, 3, 0), IdAssignment::unique(3), vec![2, 2, 2])
            .build_with(&factory);
        let report = sim.run_exact(6);
        assert_eq!(report.rounds, 6);
        assert!(report.verdict.all_hold());
        // Messages kept flowing after the decision round.
        assert_eq!(report.messages_sent, 6 * 6);
    }

    /// A payload whose `Clone` impl counts invocations — the probe for the
    /// fabric's headline guarantee.
    mod clone_counting {
        use super::*;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CLONES: AtomicU64 = AtomicU64::new(0);

        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Counted(u32);

        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }

        /// Broadcasts a fresh payload every round; never reads its inbox,
        /// so every observed clone is the engine's.
        #[derive(Clone, Debug)]
        struct Broadcaster {
            id: Id,
        }

        impl Protocol for Broadcaster {
            type Msg = Counted;
            type Value = u32;

            fn id(&self) -> Id {
                self.id
            }

            fn send(&mut self, round: Round) -> Vec<(Recipients, Counted)> {
                vec![(Recipients::All, Counted(round.index() as u32))]
            }

            fn receive(&mut self, _round: Round, _inbox: &Inbox<Counted>) {}

            fn decision(&self) -> Option<u32> {
                None
            }
        }

        /// The fabric's acceptance criterion: payload clones per round are
        /// O(emissions), not O(n²) deliveries. With n = 32 broadcasters
        /// over 4 rounds the engine routes 32² × 4 = 4096 deliveries (and
        /// records them all in the trace) — yet the engine clones nothing:
        /// each emission is wrapped in an `Arc` once and every recipient,
        /// trace entry, and inbox shares the handle.
        #[test]
        fn step_clones_are_o_emissions_not_o_deliveries() {
            let n = 32;
            let rounds = 4u64;
            let factory = FnFactory::new(|id, _input: u32| Broadcaster { id });
            let mut sim = Simulation::builder(
                SystemConfig::builder(n, n, 0).build().unwrap(),
                IdAssignment::unique(n),
                vec![0u32; n],
            )
            .record_trace(true)
            .build_with(&factory);

            let before = CLONES.load(Ordering::Relaxed);
            sim.run_exact(rounds);
            let clones = CLONES.load(Ordering::Relaxed) - before;

            let emissions = n as u64 * rounds;
            let deliveries = (n * n) as u64 * rounds;
            assert_eq!(sim.trace().unwrap().len() as u64, deliveries);
            assert!(
                clones <= emissions,
                "engine cloned {clones} payloads for {emissions} emissions \
                 ({deliveries} deliveries)"
            );
            assert_eq!(clones, 0, "the fabric engine clones no payloads at all");
        }
    }

    /// The cast path's sharing, observed from inside `receive`: processes
    /// that the same casts reached are handed the *same* inbox, and
    /// nothing else merges or splits a class.
    mod delivery_classes {
        use super::*;
        use crate::adversary::{ByzTarget, Emission, Scripted};
        use crate::drops::ScriptedDrops;
        use homonym_core::journal::encode_deliveries_entry;

        /// Sends its input to a fixed target every round and keeps what
        /// `receive` could see: the address and content (copied out, so
        /// the probe itself holds no payload handle) of the inbox it was
        /// handed, and how many handles its own payload had.
        #[derive(Clone, Debug)]
        struct Probe {
            id: Id,
            input: u32,
            to: Recipients,
            sent: Option<Arc<u32>>,
            inbox_addr: usize,
            heard: Vec<(Id, u32)>,
            handles: usize,
        }

        impl Protocol for Probe {
            type Msg = u32;
            type Value = u32;

            fn id(&self) -> Id {
                self.id
            }

            fn send(&mut self, _round: Round) -> Vec<(Recipients, u32)> {
                unreachable!("the engines call send_shared")
            }

            fn send_shared(&mut self, _round: Round) -> Vec<(Recipients, Arc<u32>)> {
                let msg = Arc::new(self.input);
                self.sent = Some(Arc::clone(&msg));
                vec![(self.to, msg)]
            }

            fn receive(&mut self, _round: Round, inbox: &Inbox<u32>) {
                self.inbox_addr = inbox as *const Inbox<u32> as usize;
                self.handles = self.sent.as_ref().map_or(0, Arc::strong_count);
                self.heard = inbox.iter().map(|(id, &msg, _)| (id, msg)).collect();
            }

            fn decision(&self) -> Option<u32> {
                None
            }
        }

        /// Process `k` proposes `k`, so a payload names its sender.
        fn probes(cfg: SystemConfig, assignment: IdAssignment) -> SimulationBuilder<Probe> {
            Simulation::builder(cfg, assignment, (0..cfg.n as u32).collect())
        }

        fn factory(to: impl Fn(Id) -> Recipients + 'static) -> impl ProtocolFactory<P = Probe> {
            FnFactory::new(move |id, input| Probe {
                id,
                input,
                to: to(id),
                sent: None,
                inbox_addr: 0,
                heard: Vec::new(),
                handles: 0,
            })
        }

        /// The live processes grouped by the inbox address they saw.
        fn classes<E: Executor>(sim: &Simulation<Probe, E>) -> Vec<Vec<usize>> {
            let mut by_addr: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (pid, p) in sim.processes() {
                by_addr.entry(p.inbox_addr).or_default().push(pid.index());
            }
            let mut classes: Vec<Vec<usize>> = by_addr.into_values().collect();
            classes.sort();
            classes
        }

        #[test]
        fn fault_free_broadcast_is_one_class_sharing_one_inbox() {
            let n = 64;
            let mut sim = probes(cfg(n, n, 0), IdAssignment::unique(n))
                .build_with(&factory(|_| Recipients::All));
            sim.step();
            assert_eq!(classes(&sim), vec![(0..n).collect::<Vec<_>>()]);
            for (pid, p) in sim.processes() {
                assert_eq!(p.heard.len(), n, "{pid} hears everyone");
                // The sender's own handle, the cast, the frame interner's
                // table and index, the class inbox — not one per recipient.
                assert_eq!(p.handles, 5, "{pid}: handles on an emitted payload");
            }
        }

        #[test]
        fn a_lost_message_splits_off_its_recipient_only() {
            let n = 6;
            // One direction of one link: only the recipient can tell.
            let mut sim = probes(cfg(n, n, 0), IdAssignment::unique(n))
                .drops(ScriptedDrops::new([(
                    Round::ZERO,
                    Pid::new(0),
                    Pid::new(1),
                )]))
                .build_with(&factory(|_| Recipients::All));
            sim.step();
            assert_eq!(classes(&sim), vec![vec![0, 2, 3, 4, 5], vec![1]]);
            // A cut link loses both directions: each end misses the other.
            let edges = Pid::all(n)
                .flat_map(|a| Pid::all(n).map(move |b| (a, b)))
                .filter(|&(a, b)| a < b && (a.index(), b.index()) != (0, 1));
            let mut sim = probes(cfg(n, n, 0), IdAssignment::unique(n))
                .topology(Topology::with_edges(n, edges))
                .build_with(&factory(|_| Recipients::All));
            sim.step();
            assert_eq!(classes(&sim), vec![vec![0], vec![1], vec![2, 3, 4, 5]]);
            let heard = |k: usize| &sim.procs[&Pid::new(k)].heard;
            assert!(!heard(0).contains(&(Id::new(2), 1)));
            assert!(!heard(1).contains(&(Id::new(1), 0)));
            assert_eq!(heard(2).len(), n);
        }

        #[test]
        fn a_byzantine_unicast_puts_its_target_alone() {
            let n = 5;
            let unicast = Scripted::new([(
                Round::ZERO,
                Emission::new(Pid::new(4), ByzTarget::One(Pid::new(2)), 99u32),
            )]);
            let mut sim = probes(cfg(n, n, 1), IdAssignment::unique(n))
                .byzantine([Pid::new(4)], unicast)
                .build_with(&factory(|_| Recipients::All));
            sim.step();
            assert_eq!(classes(&sim), vec![vec![0, 1, 3], vec![2]]);
            assert!(sim.procs[&Pid::new(2)].heard.contains(&(Id::new(5), 99)));
            assert!(!sim.procs[&Pid::new(0)].heard.contains(&(Id::new(5), 99)));
        }

        #[test]
        fn group_casts_split_classes_along_the_groups() {
            // G(1) = {0, 1}, G(2) = {2, 3}, G(3) = {4}; everyone addresses
            // its own group.
            let ids = [1, 1, 2, 2, 3].map(Id::new).to_vec();
            let assignment = IdAssignment::new(3, ids).unwrap();
            let mut sim = probes(cfg(5, 3, 0), assignment).build_with(&factory(Recipients::Group));
            sim.step();
            assert_eq!(classes(&sim), vec![vec![0, 1], vec![2, 3], vec![4]]);
            assert_eq!(
                sim.procs[&Pid::new(3)].heard,
                [(Id::new(2), 2), (Id::new(2), 3)]
            );
        }

        #[test]
        fn a_crashed_process_gets_no_record_and_its_class_mates_keep_theirs() {
            // Everyone addresses G(1) = {0, 1}, so {2, 3} hear nothing and
            // form one class — whether or not 3 is down.
            let ids = [1, 1, 2, 2].map(Id::new).to_vec();
            let run = |crash: bool| {
                let assignment = IdAssignment::new(2, ids.clone()).unwrap();
                let to_g1 = |_| Recipients::Group(Id::new(1));
                let mut sim = probes(cfg(4, 2, 0), assignment)
                    .durable(0)
                    .build_with(&factory(to_g1));
                if crash {
                    sim.crash(Pid::new(3)).unwrap();
                }
                sim.step();
                let records: Vec<Vec<Vec<u8>>> = Pid::all(4)
                    .map(|pid| sim.journal(pid).unwrap().recover().records)
                    .collect();
                (classes(&sim), records)
            };
            let (whole_classes, whole) = run(false);
            let (classes, crashed) = run(true);
            assert_eq!(whole_classes, vec![vec![0, 1], vec![2, 3]]);
            assert_eq!(classes, vec![vec![0, 1], vec![2]]);
            assert!(crashed[3].is_empty(), "down: nothing to replay");
            assert_eq!(crashed[2], whole[2], "its class-mate's record is unchanged");
            assert_eq!(
                crashed[2],
                vec![encode_deliveries_entry::<u32>(Round::ZERO, &[])]
            );
            // {0, 1} share one record: everyone still up, in cast order.
            let heard: Vec<(Id, Arc<u32>)> = [(1, 0), (1, 1), (2, 2)]
                .map(|(id, msg)| (Id::new(id), Arc::new(msg)))
                .to_vec();
            assert_eq!(
                crashed[0],
                vec![encode_deliveries_entry(Round::ZERO, &heard)]
            );
            assert_eq!(crashed[1], crashed[0]);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run_once = || {
            let factory = gossip_factory(2);
            let mut sim =
                Simulation::builder(cfg(4, 4, 1), IdAssignment::unique(4), vec![3, 1, 2, 0])
                    .byzantine([Pid::new(3)], crate::adversary::ReplayFuzzer::new(11, 2))
                    .record_trace(true)
                    .build_with(&factory);
            sim.run_exact(5);
            let decisions: Vec<_> = sim.decisions().iter().map(|(&p, &d)| (p, d)).collect();
            let n = sim.trace().unwrap().len();
            (decisions, n)
        };
        assert_eq!(run_once(), run_once());
    }
}
