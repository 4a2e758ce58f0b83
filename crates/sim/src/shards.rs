//! Sharded multi-shot agreement over the shared delivery fabric.
//!
//! The paper's protocols are single-shot: one agreement instance per run.
//! A production workload runs *many* independent instances at once, so
//! [`ShardedSimulation`] drives K instances — each with its own
//! [`SystemConfig`], identifier assignment, Byzantine set, drop policy and
//! topology — through one scheduler. Rounds are interleaved across shards
//! each global *tick*, every shard routes its own cast list into its own
//! delivery classes (`crate::par`), and the fabric's headline guarantee
//! is preserved: each emitted payload is wrapped in an
//! [`Arc`] exactly once, whatever the shard count (pinned
//! by the counting-`Clone` test in this module).
//!
//! Shards are *multi-shot*: a [`ShardSpec`] carries a queue of
//! [`ShotSpec`]s, and the tick after a shard's instance decides (or hits
//! its per-shot horizon) the shard restarts on the next queued shot — the
//! pipelining that turns one-shot agreement into a throughput workload.
//! Per shot the scheduler rolls up the same [`RunReport`] the single-shot
//! engine produces, plus scheduling metadata and an optional exact
//! wire-bit count ([`ShotReport`], aggregated per shard in
//! [`ShardReport`]) —
//! the message/bit cost instrumentation the arXiv:2311.08060
//! reproduction builds on.
//!
//! Interleaving is unobservable: each shard's per-shot decisions, message
//! counts and traces are byte-identical to running that shot alone in a
//! fresh [`Simulation`](crate::Simulation) (`tests/shard_isolation.rs`
//! property-tests this on random EIG shard sets and pins it on fixed
//! Figure 1 and Figure 5 shards).
//!
//! Ticks run on an [`Executor`]: shards share no per-tick state, so each
//! global tick can fan the live shards out across worker threads
//! ([`Pool`](homonym_core::exec::Pool)) with no locking — and because
//! per-shard work is merged back in shard order, the executor's schedule
//! is unobservable too (byte-identical traces, decisions, and reports at
//! any worker count).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use homonym_core::codec::{self, WireDecode, WireEncode};
use homonym_core::exec::{self, Executor, Sequential};
use homonym_core::intern::IdBits;
use homonym_core::journal::{self, DeliveryRecords, Journal, MemJournal};
use homonym_core::spec::{self, Outcome};
use homonym_core::{
    FrameInterner, IdAssignment, Pid, Protocol, ProtocolFactory, RecoveryMode, Round, SystemConfig,
};

use crate::adversary::{AdvCtx, Adversary, Silent};
use crate::drops::{DropPolicy, NoDrops};
use crate::engine::{ChurnError, RunReport};
use crate::par::{self, Cast, DeliveryPlan, SendScratch};
use crate::topology::Topology;
use crate::trace::{Delivery, Trace};

/// The index of one shard (one agreement-instance slot) in a sharded
/// scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(usize);

impl ShardId {
    /// The shard with the given index.
    pub fn new(index: usize) -> Self {
        ShardId(index)
    }

    /// The dense index of this shard.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One agreement instance to run on a shard: inputs plus the per-shot
/// fault environment (Byzantine set and strategy, drop policy, horizon).
///
/// Defaults: no Byzantine processes, no drops, no per-shot horizon (the
/// shot runs until it decides or the scheduler's tick budget ends).
pub struct ShotSpec<P: Protocol> {
    /// Process `i` proposes `inputs[i]` (Byzantine inputs are ignored).
    pub inputs: Vec<P::Value>,
    /// The Byzantine processes of this shot.
    pub byz: BTreeSet<Pid>,
    /// The strategy controlling the Byzantine processes (`Send`, so a
    /// pool executor may step the shard on a worker thread).
    pub adversary: Box<dyn Adversary<P::Msg> + Send>,
    /// The drop policy (fresh per shot, so shots are independent).
    pub drops: Box<dyn DropPolicy + Send>,
    /// If set, the shot ends after this many rounds even if undecided —
    /// the same bound as [`Simulation::run`](crate::Simulation::run)'s
    /// `max_rounds`.
    pub horizon: Option<u64>,
}

impl<P: Protocol> ShotSpec<P> {
    /// A shot proposing `inputs`, with no faults, no drops, no horizon.
    pub fn new(inputs: Vec<P::Value>) -> Self {
        ShotSpec {
            inputs,
            byz: BTreeSet::new(),
            adversary: Box::new(Silent),
            drops: Box::new(NoDrops),
            horizon: None,
        }
    }

    /// Declares the Byzantine processes and their strategy for this shot.
    pub fn byzantine(
        mut self,
        byz: impl IntoIterator<Item = Pid>,
        adversary: impl Adversary<P::Msg> + Send + 'static,
    ) -> Self {
        self.byz = byz.into_iter().collect();
        self.adversary = Box::new(adversary);
        self
    }

    /// Installs a drop policy for this shot.
    pub fn drops(mut self, drops: impl DropPolicy + Send + 'static) -> Self {
        self.drops = Box::new(drops);
        self
    }

    /// Bounds the shot to `rounds` rounds.
    pub fn horizon(mut self, rounds: u64) -> Self {
        self.horizon = Some(rounds);
        self
    }
}

/// One shard: a system configuration, an identifier assignment, a
/// topology, and a queue of [`ShotSpec`]s to run back to back.
pub struct ShardSpec<P: Protocol> {
    /// The `(n, ℓ, t)` parameters and model axes of every shot.
    pub cfg: SystemConfig,
    /// Which process holds which identifier.
    pub assignment: IdAssignment,
    /// The communication topology (default: complete).
    pub topology: Topology,
    /// The shots to run, in order.
    pub shots: VecDeque<ShotSpec<P>>,
    /// Whether every correct process journals its execution so crashed
    /// processes can be recovered durably (default: off).
    pub durable: bool,
}

impl<P: Protocol> ShardSpec<P> {
    /// A shard of `cfg` under `assignment` with an empty shot queue and
    /// the complete topology.
    pub fn new(cfg: SystemConfig, assignment: IdAssignment) -> Self {
        let n = cfg.n;
        ShardSpec {
            cfg,
            assignment,
            topology: Topology::complete(n),
            shots: VecDeque::new(),
            durable: false,
        }
    }

    /// Turns on per-process journaling, so [`ChurnOp::Crash`]ed processes
    /// can be [`ChurnOp::Recover`]ed durably (journal replay).
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Installs a topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology's size differs from `n`.
    pub fn topology(mut self, topology: Topology) -> Self {
        assert_eq!(topology.n(), self.cfg.n, "topology size must equal n");
        self.topology = topology;
        self
    }

    /// Appends a shot to the queue.
    pub fn shot(mut self, shot: ShotSpec<P>) -> Self {
        self.shots.push_back(shot);
        self
    }
}

/// The report of one completed (or horizon-/budget-terminated) shot.
#[derive(Clone, Debug)]
pub struct ShotReport<V> {
    /// The shard this shot ran on.
    pub shard: ShardId,
    /// The shot's position in the shard's queue (0-based).
    pub shot: usize,
    /// The same report a solo [`Simulation::run`](crate::Simulation::run)
    /// of this shot produces: outcome, verdict, rounds, message counts.
    pub report: RunReport<V>,
    /// The global tick at which the shot's round 0 executed.
    pub started_tick: u64,
    /// The global tick at which the shot's last round executed.
    pub finished_tick: u64,
    /// Exact wire bits handed to the network, if the scheduler was
    /// built with [`ShardedSimulation::measure_bits`] — see [`wire_bits`].
    pub bits_sent: Option<u64>,
}

/// The per-shard roll-up: every shot report, plus cost aggregates.
#[derive(Clone, Debug)]
pub struct ShardReport<V> {
    /// The shard.
    pub shard: ShardId,
    /// One report per shot, in queue order.
    pub shots: Vec<ShotReport<V>>,
}

impl<V> ShardReport<V> {
    /// Shots in which every correct process decided.
    pub fn decided_shots(&self) -> usize {
        self.shots
            .iter()
            .filter(|s| s.report.all_decided_round.is_some())
            .count()
    }

    /// Total non-self messages handed to the network across all shots.
    pub fn messages_sent(&self) -> u64 {
        self.shots.iter().map(|s| s.report.messages_sent).sum()
    }

    /// Total rounds executed across all shots.
    pub fn rounds(&self) -> u64 {
        self.shots.iter().map(|s| s.report.rounds).sum()
    }

    /// Total exact wire bits, if bit measurement was on.
    pub fn bits_sent(&self) -> Option<u64> {
        self.shots.iter().map(|s| s.bits_sent).sum()
    }
}

/// One delivery in a sharded run: the shard and shot it belongs to, plus
/// the ordinary [`Delivery`] record in that shard's *local* coordinates
/// (local [`Pid`]s, local round) — so extracting one shard's entries
/// reproduces exactly the trace a solo run would have recorded.
#[derive(Clone, Debug)]
pub struct ShardDelivery<M> {
    /// The shard the delivery belongs to.
    pub shard: ShardId,
    /// The shot (within the shard) the delivery belongs to.
    pub shot: usize,
    /// The delivery, in the shard's local coordinates.
    pub delivery: Delivery<M>,
}

/// A recorded sharded execution: every attempted delivery of every shard,
/// in global routing order, each tagged with its [`ShardId`] and shot.
#[derive(Clone, Debug, Default)]
pub struct ShardedTrace<M> {
    entries: Vec<ShardDelivery<M>>,
}

impl<M: homonym_core::Message> ShardedTrace<M> {
    /// An empty trace.
    pub fn new() -> Self {
        ShardedTrace {
            entries: Vec::new(),
        }
    }

    /// All recorded entries, in recording (= routing) order.
    pub fn entries(&self) -> &[ShardDelivery<M>] {
        &self.entries
    }

    /// Number of recorded (attempted) deliveries across all shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries of one shard's shot, extracted into an ordinary
    /// [`Trace`] (payload handles shared, not cloned). By the isolation
    /// property this equals the trace a solo run of that shot records.
    pub fn shard_shot_trace(&self, shard: ShardId, shot: usize) -> Trace<M> {
        let mut trace = Trace::new();
        for entry in &self.entries {
            if entry.shard == shard && entry.shot == shot {
                trace.record(entry.delivery.clone());
            }
        }
        trace
    }
}

/// The **exact** wire size of one payload, in bits: the framed binary
/// encoding's length under [`homonym_core::codec`] (one version byte plus
/// the varint-based payload encoding).
///
/// It is computed **once per emission** into a thread-local scratch
/// buffer (the `Arc` fan-out shares the number with every recipient), so
/// measuring bits neither allocates at steady state nor changes the
/// clone-count profile of the hot path.
pub fn wire_bits<M: WireEncode>(msg: &M) -> u64 {
    codec::frame_bits(msg)
}

/// The bookkeeping of one shard: its configuration, its shot queue, the
/// live shot's fault environment and counters, and the per-shot report
/// roll-up.
///
/// [`ShardedSimulation`] embeds one `ShardCore` per shard beside the
/// shard's automata and drives it through the shot lifecycle
/// ([`start_next_shot`](ShardCore::start_next_shot),
/// [`record_decision`](ShardCore::record_decision),
/// [`roll_over_if_done`](ShardCore::roll_over_if_done),
/// [`report`](ShardCore::report)); the core never holds automata, it
/// hands spawned ones back for the engine to place.
pub(crate) struct ShardCore<P: Protocol> {
    /// The `(n, ℓ, t)` parameters and model axes of every shot.
    pub cfg: SystemConfig,
    /// Which process holds which identifier.
    pub assignment: IdAssignment,
    /// The communication topology.
    pub topology: Topology,
    /// Spawns the automata of each shot.
    pub factory: Box<dyn ProtocolFactory<P = P> + Send>,
    /// The shots still queued.
    pub shots: VecDeque<ShotSpec<P>>,
    /// The current shot's position in the queue (0-based).
    pub shot: usize,
    /// The correct processes of the current shot, ascending. Amnesiac
    /// rejoiners stay here (they keep executing rounds) but leave
    /// [`inputs`](ShardCore::inputs) and the decision accounting.
    pub correct: Vec<Pid>,
    /// The correct processes' inputs (for the outcome checker).
    pub inputs: BTreeMap<Pid, P::Value>,
    /// The shot's full input vector, untouched by churn — recoveries
    /// respawn from here even after the spec view dropped the pid.
    spawn_inputs: Vec<P::Value>,
    /// The Byzantine processes of the current shot.
    pub byz: BTreeSet<Pid>,
    /// The currently crashed processes of the current shot (their
    /// automata are removed by the engine; the core force-drops their
    /// messages and suspends their journals).
    pub crashed: BTreeSet<Pid>,
    /// The processes that rejoined amnesiac this shot — they share the
    /// `t` fault budget with the Byzantine set and leave the shot's
    /// correctness accounting.
    pub amnesiac: BTreeSet<Pid>,
    /// Whether this shard journals deliveries for durable recovery.
    pub durable: bool,
    /// Per-process journals (populated per shot when `durable`).
    journals: BTreeMap<Pid, Box<dyn Journal + Send>>,
    /// The journaling pass's record builder, one record per delivery
    /// class (reused; empty until the first durable round).
    records: DeliveryRecords,
    /// The strategy controlling the Byzantine processes.
    pub adversary: Box<dyn Adversary<P::Msg> + Send>,
    /// The current shot's drop policy.
    pub drops: Box<dyn DropPolicy + Send>,
    /// The current shot's round bound, if any.
    pub horizon: Option<u64>,
    /// The current shot's next round (local to the shard).
    pub round: Round,
    /// The global tick at which the current shot's round 0 executed.
    pub started_tick: u64,
    /// Decisions of the current shot, with their rounds.
    pub decisions: BTreeMap<Pid, (P::Value, Round)>,
    /// Non-self messages handed to the network this shot.
    pub messages_sent: u64,
    /// Non-self messages delivered this shot.
    pub messages_delivered: u64,
    /// Non-self messages lost to the drop policy this shot.
    pub messages_dropped: u64,
    /// Exact wire bits sent this shot (see [`wire_bits`]).
    pub bits_sent: u64,
    /// Sum of [`Protocol::state_bits`] across the shot's correct
    /// processes at the last sampled round.
    pub state_bits: u64,
    /// Largest per-round [`ShardCore::state_bits`] sample this shot.
    pub peak_state_bits: u64,
    /// Whether a shot is currently live (false once the queue drains).
    pub active: bool,
    /// Reports of the completed shots, in queue order.
    pub done: Vec<ShotReport<P::Value>>,
    /// The live shot's frame interner: one token per distinct emitted
    /// payload. Tokens are only compared within one round's casts and
    /// journal records, so every shot starts a fresh interner and a
    /// finished shot's payloads are released with it.
    pub frames: FrameInterner<P::Msg>,
}

impl<P: Protocol> ShardCore<P> {
    /// An idle shard over `spec`'s shot queue.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the assignment
    /// disagrees with it.
    pub fn new(spec: ShardSpec<P>, factory: Box<dyn ProtocolFactory<P = P> + Send>) -> Self {
        spec.cfg.validate().expect("invalid system configuration");
        assert_eq!(
            spec.assignment.n(),
            spec.cfg.n,
            "assignment covers n processes"
        );
        assert_eq!(
            spec.assignment.ell(),
            spec.cfg.ell,
            "assignment uses ell identifiers"
        );
        ShardCore {
            cfg: spec.cfg,
            assignment: spec.assignment,
            topology: spec.topology,
            factory,
            shots: spec.shots,
            shot: 0,
            correct: Vec::new(),
            inputs: BTreeMap::new(),
            spawn_inputs: Vec::new(),
            byz: BTreeSet::new(),
            crashed: BTreeSet::new(),
            amnesiac: BTreeSet::new(),
            durable: spec.durable,
            journals: BTreeMap::new(),
            records: DeliveryRecords::new(),
            adversary: Box::new(Silent),
            drops: Box::new(NoDrops),
            horizon: None,
            round: Round::ZERO,
            started_tick: 0,
            decisions: BTreeMap::new(),
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            bits_sent: 0,
            state_bits: 0,
            peak_state_bits: 0,
            active: false,
            done: Vec::new(),
            frames: FrameInterner::new(),
        }
    }

    /// Installs the next queued shot and spawns its correct automata
    /// (returned for the engine to place), or goes idle if the queue is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the shot's inputs or Byzantine set are malformed.
    pub fn start_next_shot(&mut self, tick: u64) -> Option<Vec<(Pid, P)>> {
        let Some(spec) = self.shots.pop_front() else {
            self.active = false;
            return None;
        };
        assert_eq!(spec.inputs.len(), self.cfg.n, "one input per process");
        assert!(
            spec.byz.len() <= self.cfg.t,
            "{} byzantine processes exceed t = {}",
            spec.byz.len(),
            self.cfg.t
        );
        assert!(
            spec.byz.iter().all(|p| p.index() < self.cfg.n),
            "byzantine pid out of range"
        );
        let spawned: Vec<(Pid, P)> = self
            .assignment
            .iter()
            .filter(|(pid, _)| !spec.byz.contains(pid))
            .map(|(pid, id)| {
                (
                    pid,
                    self.factory.spawn(id, spec.inputs[pid.index()].clone()),
                )
            })
            .collect();
        self.correct = spawned.iter().map(|&(pid, _)| pid).collect();
        self.inputs = self
            .correct
            .iter()
            .map(|&pid| (pid, spec.inputs[pid.index()].clone()))
            .collect();
        self.spawn_inputs = spec.inputs;
        self.byz = spec.byz;
        self.crashed = BTreeSet::new();
        self.amnesiac = BTreeSet::new();
        self.journals = if self.durable {
            self.correct
                .iter()
                .map(|&pid| {
                    let journal: Box<dyn Journal + Send> = Box::new(MemJournal::new());
                    (pid, journal)
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        self.adversary = spec.adversary;
        self.drops = spec.drops;
        self.horizon = spec.horizon;
        self.round = Round::ZERO;
        self.started_tick = tick;
        self.decisions = BTreeMap::new();
        self.messages_sent = 0;
        self.messages_delivered = 0;
        self.messages_dropped = 0;
        self.bits_sent = 0;
        self.state_bits = 0;
        self.peak_state_bits = 0;
        self.frames = FrameInterner::new();
        self.active = true;
        Some(spawned)
    }

    /// Whether every correct process of the live shot has decided.
    /// Amnesiac rejoiners left the accounting; currently crashed
    /// processes still count (the shot waits for them to recover and
    /// decide, or runs to its horizon).
    pub fn all_decided(&self) -> bool {
        self.decisions.len() + self.amnesiac.len() == self.correct.len()
    }

    /// Records one round's total [`Protocol::state_bits`] across the
    /// shot's correct processes — engines call this after delivery, from
    /// wherever their automata live.
    pub fn record_state_bits(&mut self, total: u64) {
        self.state_bits = total;
        self.peak_state_bits = self.peak_state_bits.max(total);
    }

    /// Records a decision, enforcing irrevocability.
    ///
    /// # Panics
    ///
    /// Panics if the decision changes (a protocol bug).
    pub fn record_decision(&mut self, pid: Pid, v: P::Value) {
        if self.amnesiac.contains(&pid) {
            return; // left the shot's correctness accounting
        }
        match self.decisions.get(&pid) {
            None => {
                self.decisions.insert(pid, (v, self.round));
            }
            Some((prev, _)) => {
                assert!(
                    *prev == v,
                    "decision of {pid} changed from {prev:?} to {v:?}"
                );
            }
        }
    }

    /// If the live shot has decided or hit its horizon, finalizes its
    /// report and pipelines the next queued shot; returns the automata
    /// of the new shot for the engine to place ([`None`] if the shot
    /// continues or the queue drained).
    pub fn roll_over_if_done(
        &mut self,
        shard: ShardId,
        tick: u64,
        measure_bits: bool,
    ) -> Option<Vec<(Pid, P)>> {
        if !self.active {
            return None;
        }
        let decided = self.all_decided();
        let horizon_hit = self.horizon.is_some_and(|h| self.round.index() >= h);
        if !(decided || horizon_hit) {
            return None;
        }
        let report = self.shot_report(shard, tick, measure_bits);
        self.done.push(report);
        self.shot += 1;
        self.start_next_shot(tick + 1)
    }

    /// Finalizes the live shot **unconditionally** — decided or not —
    /// and pipelines the next queued shot; returns the new shot's
    /// automata for the engine to place ([`None`] if the queue is
    /// empty, leaving the shard idle).
    ///
    /// This is the churn seam: a schedule aborting a shard mid-shot
    /// records the interrupted shot's report (its verdict reflects
    /// whatever had been decided by the cut) instead of silently
    /// discarding the work.
    pub fn cut_shot(
        &mut self,
        shard: ShardId,
        tick: u64,
        measure_bits: bool,
    ) -> Option<Vec<(Pid, P)>> {
        if self.active {
            let report = self.shot_report(shard, tick, measure_bits);
            self.done.push(report);
            self.shot += 1;
        }
        self.start_next_shot(tick)
    }

    /// The report of the live shot as of now.
    pub fn shot_report(
        &self,
        shard: ShardId,
        finished_tick: u64,
        measure_bits: bool,
    ) -> ShotReport<P::Value> {
        let outcome = Outcome {
            inputs: self.inputs.clone(),
            decisions: self.decisions.clone(),
            horizon: self.round,
        };
        let verdict = spec::check(&outcome);
        ShotReport {
            shard,
            shot: self.shot,
            report: RunReport {
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
            },
            started_tick: self.started_tick,
            finished_tick,
            bits_sent: measure_bits.then_some(self.bits_sent),
        }
    }

    /// The shard's roll-up: completed shots, plus the live shot's
    /// current (possibly undecided) state if one is running.
    pub fn report(
        &self,
        shard: ShardId,
        current_tick: u64,
        measure_bits: bool,
    ) -> ShardReport<P::Value> {
        let mut shots = self.done.clone();
        if self.active {
            shots.push(self.shot_report(shard, current_tick.saturating_sub(1), measure_bits));
        }
        ShardReport { shard, shots }
    }

    /// The calling-thread middle of a shard's tick, run after the send
    /// chunks merged into `casts` (correct processes in ascending pid
    /// order): appends the adversary's casts, stamps frame tokens from
    /// the shot's one interner, plans the routes — topology plus the
    /// stateful drop policy, queried in exact (cast, recipient) order —
    /// folding the tallies into the shot's counters, journals the round
    /// (one record per delivery class) if the shard is durable, and
    /// builds the class inboxes the receive phase and
    /// [`deliver_byz`](ShardCore::deliver_byz) read from `plan`. `record`
    /// sees every *attempted* delivery in routing order (the trace hook);
    /// `traced` says whether it keeps them, since an untraced quiet round
    /// is not walked pair by pair (see [`par::plan_routes`]).
    /// [`ShardedSimulation::step`] calls this between its send and
    /// receive scatters.
    ///
    /// # Panics
    ///
    /// Panics if the adversary emits from a non-Byzantine process.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_tick(
        &mut self,
        shard: ShardId,
        byz_sent: &mut IdBits,
        casts: &mut Vec<Cast<P::Msg>>,
        plan: &mut DeliveryPlan<P::Msg>,
        measure_bits: bool,
        traced: bool,
        record: impl FnMut(&Cast<P::Msg>, Pid, bool),
    ) where
        P::Msg: WireEncode,
    {
        let ctx = AdvCtx {
            round: self.round,
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
            byz_sent,
            |m| if measure_bits { wire_bits(m) } else { 0 },
            Some(shard),
            casts,
        );
        par::stamp_toks(&mut self.frames, casts);
        let down = (!self.crashed.is_empty()).then_some(&self.crashed);
        let tallies = par::plan_routes(
            casts,
            self.round,
            &self.assignment,
            &self.topology,
            down,
            self.drops.as_mut(),
            traced,
            plan,
            record,
        );
        self.messages_sent += tallies.sent;
        self.messages_delivered += tallies.delivered;
        self.messages_dropped += tallies.dropped;
        self.bits_sent += tallies.bits;
        // A crashed process is not executing this round: nothing to
        // replay, nobody to read an inbox.
        let crashed = &self.crashed;
        if !self.journals.is_empty() {
            plan.journal(
                casts,
                self.round,
                &mut self.records,
                DeliveryRecords::stage::<P::Msg>,
                &mut self.journals,
                |pid| !crashed.contains(&pid),
            );
            for (pid, journal) in &mut self.journals {
                if !crashed.contains(pid) {
                    journal.sync().expect("journal sync failed");
                }
            }
        }
        plan.build_inboxes(casts, self.cfg.counting, |pid| !crashed.contains(&pid));
    }

    /// Marks `pid` crashed: its messages are force-dropped from the next
    /// route pass on and its journal is suspended. The engine must drop
    /// the pid's automaton itself (the core never holds automata).
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
        self.crashed.insert(pid);
        Ok(())
    }

    /// Recovers a crashed `pid`, returning the automaton the engine must
    /// place back where its automata live.
    ///
    /// [`Durable`](RecoveryMode::Durable) replays the pid's journal into
    /// a fresh spawn — byte-identical state, no budget cost — and fails
    /// with [`ChurnError::RecoveryFailed`] (state unchanged) if the
    /// shard is not durable or the journal is damaged.
    /// [`Amnesiac`](RecoveryMode::Amnesiac) rejoins with a fresh spawn,
    /// consuming the shared `|byz ∪ amnesiac| ≤ t` fault budget and
    /// leaving the shot's correctness accounting.
    pub fn recover(&mut self, pid: Pid, mode: RecoveryMode) -> Result<P, ChurnError>
    where
        P::Msg: WireDecode,
    {
        if !self.crashed.contains(&pid) {
            return Err(ChurnError::NotCrashed(pid));
        }
        let id = self.assignment.id_of(pid);
        let input = self.spawn_inputs[pid.index()].clone();
        match mode {
            RecoveryMode::Amnesiac => {
                let mut ever: BTreeSet<Pid> = self.byz.union(&self.amnesiac).copied().collect();
                ever.insert(pid);
                if ever.len() > self.cfg.t {
                    return Err(ChurnError::BudgetExceeded {
                        would_be: ever.len(),
                        t: self.cfg.t,
                    });
                }
                self.crashed.remove(&pid);
                self.amnesiac.insert(pid);
                self.inputs.remove(&pid);
                self.decisions.remove(&pid);
                if let Some(journal) = self.journals.get_mut(&pid) {
                    journal.reset().expect("journal reset failed");
                }
                Ok(self.factory.spawn(id, input))
            }
            RecoveryMode::Durable => {
                let Some(journal) = self.journals.get(&pid) else {
                    return Err(ChurnError::RecoveryFailed(format!(
                        "no journal for {pid} (shard not durable)"
                    )));
                };
                let recovered = journal.recover();
                if let Some(damage) = recovered.damage {
                    return Err(ChurnError::RecoveryFailed(damage.to_string()));
                }
                let entries = journal::decode_entries::<P::Msg>(&recovered.records)
                    .map_err(|e| ChurnError::RecoveryFailed(e.to_string()))?;
                let mut proc_ = self.factory.spawn(id, input);
                journal::replay(&mut proc_, entries, self.cfg.counting)
                    .map_err(|e| ChurnError::RecoveryFailed(e.to_string()))?;
                self.crashed.remove(&pid);
                Ok(proc_)
            }
        }
    }

    /// Phase 3 (Byzantine half) — hand the adversary its processes'
    /// inboxes at the current round (the caller advances the round
    /// afterwards) and release the tick's class inboxes.
    pub fn deliver_byz(&mut self, plan: &mut DeliveryPlan<P::Msg>) {
        let byz_inboxes = plan.take_byz_inboxes(&self.byz);
        self.adversary.receive(self.round, &byz_inboxes);
    }
}

/// One shard-churn operation, applied at the start of a global tick.
pub enum ChurnOp<P: Protocol> {
    /// Cut the shard's live shot (finalizing its report as-is) and start
    /// its next queued shot, if any.
    Abort(ShardId),
    /// Enqueue a fresh shot on the shard; if the shard is idle, the shot
    /// starts immediately.
    Enqueue(ShardId, ShotSpec<P>),
    /// Crash one process of the shard's live shot: its automaton is
    /// dropped and its messages are force-dropped until it recovers.
    Crash(ShardId, Pid),
    /// Recover a crashed process of the shard's live shot, durably
    /// (journal replay; requires [`ShardSpec::durable`]) or amnesiac
    /// (fresh spawn consuming the shared `t` fault budget).
    Recover(ShardId, Pid, RecoveryMode),
}

/// A tick-indexed script of shard churn: which shards abort, restart, or
/// receive fresh shots, and when.
///
/// Plans are consumed by [`ShardedSimulation::run_churned`]: at the
/// start of each global tick every operation due at (or before) that
/// tick is applied, in insertion order. The plan is plain data —
/// scenario schedules compile their shard events down to one.
pub struct ChurnPlan<P: Protocol> {
    ops: BTreeMap<u64, Vec<ChurnOp<P>>>,
}

impl<P: Protocol> Default for ChurnPlan<P> {
    fn default() -> Self {
        ChurnPlan {
            ops: BTreeMap::new(),
        }
    }
}

impl<P: Protocol> ChurnPlan<P> {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `op` at the start of global tick `tick`.
    pub fn at(&mut self, tick: u64, op: ChurnOp<P>) -> &mut Self {
        self.ops.entry(tick).or_default().push(op);
        self
    }

    /// Whether no operations remain.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Removes and returns every operation due at or before `tick`, in
    /// tick order then insertion order.
    pub fn take_due(&mut self, tick: u64) -> Vec<ChurnOp<P>> {
        let later = self.ops.split_off(&(tick + 1));
        let due = std::mem::replace(&mut self.ops, later);
        due.into_values().flatten().collect()
    }

    /// Whether any operation is scheduled strictly after `tick`.
    pub fn has_pending_after(&self, tick: u64) -> bool {
        self.ops.keys().any(|&t| t > tick)
    }
}

/// One shard of the lock-step engine: the shared bookkeeping, the
/// automata themselves, and the shard-private scratch buffers one tick's
/// work needs — so a worker task touching this shard's chunk touches
/// nothing outside it.
struct SimShard<P: Protocol> {
    core: ShardCore<P>,
    procs: BTreeMap<Pid, P>,
    /// This tick's casts (reused across ticks, local coords).
    casts: Vec<Cast<P::Msg>>,
    /// This tick's routing plan: per-cast recipient rows, delivery
    /// classes, one shared inbox per class.
    plan: DeliveryPlan<P::Msg>,
    /// This tick's trace entries, drained into the global trace — in
    /// shard order — after every shard has stepped.
    trace_buf: Vec<ShardDelivery<P::Msg>>,
    /// Per-chunk send buffers (intra-shard parallelism scratch).
    send_scratch: Vec<SendScratch<P::Msg>>,
    /// The adversary's restricted-clamp bitset, reused across ticks.
    byz_sent: IdBits,
    /// Per-chunk receive results: `(pid, decision, state_bits)`.
    recv_out: Vec<Vec<(Pid, Option<P::Value>, u64)>>,
}

/// Borrow bundle for one shard's send phase: unifies the shard-side
/// borrows under one lifetime so the flattened (shard, chunk) tasks can
/// be built in a second pass over all bundles.
struct SendCtx<'a, P: Protocol> {
    shard: ShardId,
    r: Round,
    assignment: &'a IdAssignment,
    procs: Vec<(Pid, &'a mut P)>,
    scratch: &'a mut [SendScratch<P::Msg>],
    ranges: Vec<Range<usize>>,
}

/// Borrow bundle for one shard's receive phase: the routing plan and the
/// per-chunk result buffers.
struct RecvCtx<'a, P: Protocol> {
    r: Round,
    plan: &'a DeliveryPlan<P::Msg>,
    ranges: Vec<Range<usize>>,
    procs: Vec<(Pid, &'a mut P)>,
    outs: &'a mut [Vec<(Pid, Option<P::Value>, u64)>],
}

/// A deterministic scheduler driving K independent agreement instances
/// tick by tick.
///
/// Each global **tick** executes one round of every live shard: the
/// shard sends, routes its casts into delivery classes, receives, and (if
/// decided or horizon-hit) rolls over to its next queued shot. Scratch
/// allocations are reused across both rounds and shots, and each payload
/// is wrapped in an `Arc` exactly once regardless of K.
///
/// The scheduler is generic over an [`Executor`]: under the default
/// [`Sequential`] executor shards step one after another on the calling
/// thread; under [`Pool`](homonym_core::exec::Pool) each tick fans the
/// shards out across worker threads, every worker touching only its
/// shards' own buffers and the per-shard trace buffers merging back in
/// shard order — so traces, decisions, and reports are **byte-identical
/// at any worker count** (`tests/shard_isolation.rs` property-tests
/// this; `tests/fabric_golden.rs` pins it against the sequential golden
/// digests).
///
/// # Example
///
/// ```
/// use homonym_classic::{Eig, UniqueRunner};
/// use homonym_core::{Domain, FnFactory, IdAssignment, SystemConfig};
/// use homonym_sim::shards::{ShardSpec, ShardedSimulation, ShotSpec};
///
/// let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
/// let domain = Domain::binary();
/// let factory = FnFactory::new(move |id, input| {
///     UniqueRunner::new(Eig::new(4, 1, domain.clone()), id, input)
/// });
/// let mut sharded = ShardedSimulation::new();
/// for _ in 0..3 {
///     let spec = ShardSpec::new(cfg, IdAssignment::unique(4))
///         .shot(ShotSpec::new(vec![true; 4]))
///         .shot(ShotSpec::new(vec![false; 4]));
///     sharded.add_shard(spec, factory.clone());
/// }
/// let reports = sharded.run(32);
/// assert_eq!(reports.len(), 3);
/// assert!(reports.iter().all(|r| r.decided_shots() == 2));
/// ```
pub struct ShardedSimulation<P: Protocol, E: Executor = Sequential> {
    shards: Vec<SimShard<P>>,
    exec: E,
    tick: u64,
    trace: Option<ShardedTrace<P::Msg>>,
    measure_bits: bool,
}

impl<P: Protocol> Default for ShardedSimulation<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> ShardedSimulation<P> {
    /// An empty scheduler stepping shards sequentially (add shards with
    /// [`add_shard`](ShardedSimulation::add_shard)).
    pub fn new() -> Self {
        Self::with_executor(Sequential)
    }
}

impl<P: Protocol, E: Executor> ShardedSimulation<P, E> {
    /// An empty scheduler whose ticks run on the given executor — e.g.
    /// `ShardedSimulation::with_executor(Pool::new(4))` steps each
    /// tick's live shards on four worker threads.
    pub fn with_executor(exec: E) -> Self {
        ShardedSimulation {
            shards: Vec::new(),
            exec,
            tick: 0,
            trace: None,
            measure_bits: false,
        }
    }

    /// Records a full sharded delivery trace (off by default).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.trace = on.then(ShardedTrace::new);
        self
    }

    /// Measures exact wire bits per shot (off by default) — see
    /// [`wire_bits`].
    pub fn measure_bits(mut self, on: bool) -> Self {
        self.measure_bits = on;
        self
    }

    /// Enqueues a shard and starts its first shot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the assignment disagrees
    /// with it, or a shot's inputs/Byzantine set are malformed.
    pub fn add_shard(
        &mut self,
        spec: ShardSpec<P>,
        factory: impl ProtocolFactory<P = P> + Send + 'static,
    ) -> ShardId {
        let id = ShardId(self.shards.len());
        let mut core = ShardCore::new(spec, Box::new(factory));
        let procs = core
            .start_next_shot(self.tick)
            .map(|spawned| spawned.into_iter().collect())
            .unwrap_or_default();
        self.shards.push(SimShard {
            core,
            procs,
            casts: Vec::new(),
            plan: DeliveryPlan::new(),
            trace_buf: Vec::new(),
            send_scratch: Vec::new(),
            byz_sent: IdBits::new(),
            recv_out: Vec::new(),
        });
        id
    }

    /// The number of shards enqueued.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of global ticks executed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether every shard has drained its shot queue.
    pub fn all_idle(&self) -> bool {
        self.shards.iter().all(|s| !s.core.active)
    }

    /// The recorded sharded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&ShardedTrace<P::Msg>> {
        self.trace.as_ref()
    }

    /// Consumes the scheduler, returning the trace (if recorded).
    pub fn into_trace(self) -> Option<ShardedTrace<P::Msg>> {
        self.trace
    }

    /// Executes one global tick: one round of every live shard.
    ///
    /// Work is fanned out as flattened **(shard, chunk)** units — a big
    /// shard splits internally into contiguous pid chunks instead of
    /// serializing the whole tick behind one indivisible task — in two
    /// scatters: every shard's send chunks, then every shard's receive
    /// chunks (each reading its shard's routing plan). Between them the
    /// calling thread walks the shards in shard order doing the
    /// inherently sequential work: merging chunk buffers in chunk order,
    /// the adversary's emissions, frame-token stamping, route planning
    /// (stateful drop policies make query order observable), journaling
    /// and the class inboxes.
    /// Per-shard object call sequences are exactly the single-shot
    /// engine's and trace buffers merge in shard order, so traces,
    /// decisions, and reports are **byte-identical at any worker count**.
    ///
    /// # Panics
    ///
    /// Panics on the same contract violations as
    /// [`Simulation::step`](crate::Simulation::step).
    pub fn step(&mut self)
    where
        P: Send,
        P::Value: Send,
        P::Msg: WireEncode,
    {
        let tick = self.tick;
        let measure_bits = self.measure_bits;
        let record_trace = self.trace.is_some();
        let workers = self.exec.workers();
        let measure = move |m: &P::Msg| if measure_bits { wire_bits(m) } else { 0 };

        // Phase 1 — sends, one flattened scatter of (shard, chunk) units.
        {
            let mut ctxs: Vec<SendCtx<'_, P>> = Vec::new();
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if !shard.core.active {
                    continue;
                }
                let SimShard {
                    core,
                    procs,
                    send_scratch,
                    ..
                } = shard;
                let ranges = exec::chunk_ranges(procs.len(), workers);
                if send_scratch.len() < ranges.len() {
                    send_scratch.resize_with(ranges.len(), Default::default);
                }
                ctxs.push(SendCtx {
                    shard: ShardId(s),
                    r: core.round,
                    assignment: &core.assignment,
                    procs: procs.iter_mut().map(|(&pid, p)| (pid, p)).collect(),
                    scratch: send_scratch.as_mut_slice(),
                    ranges,
                });
            }
            let mut tasks = Vec::new();
            for ctx in ctxs.iter_mut() {
                let sid = ctx.shard;
                let r = ctx.r;
                let assignment = ctx.assignment;
                let mut procs = ctx.procs.as_mut_slice();
                let mut scratch = std::mem::take(&mut ctx.scratch);
                for range in &ctx.ranges {
                    let (chunk, rest) = std::mem::take(&mut procs).split_at_mut(range.len());
                    procs = rest;
                    let (sc, rest) = scratch.split_at_mut(1);
                    scratch = rest;
                    let sc = &mut sc[0];
                    tasks.push(move || {
                        par::send_chunk(chunk, r, assignment, measure, Some(sid), sc)
                    });
                }
            }
            self.exec.scatter(tasks);
        }

        // Calling-thread pass, in shard order: merge chunk buffers (chunk
        // order = pid order), adversary emissions, frame-token stamping,
        // route planning, counters, journal, class inboxes.
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if !shard.core.active {
                continue;
            }
            let sid = ShardId(s);
            let SimShard {
                core,
                procs,
                casts,
                plan,
                send_scratch,
                trace_buf,
                byz_sent,
                ..
            } = shard;
            let r = core.round;
            casts.clear();
            let chunks = exec::chunk_ranges(procs.len(), workers).len();
            for scratch in send_scratch.iter_mut().take(chunks) {
                scratch.drain_into(casts);
            }
            let shot = core.shot;
            core.plan_tick(
                sid,
                byz_sent,
                casts,
                plan,
                measure_bits,
                record_trace,
                |cast, to, dropped| {
                    if record_trace {
                        trace_buf.push(ShardDelivery {
                            shard: sid,
                            shot,
                            delivery: Delivery {
                                round: r,
                                from: cast.from,
                                src_id: cast.src,
                                to,
                                msg: Arc::clone(&cast.msg),
                                dropped,
                            },
                        });
                    }
                },
            );
        }

        // Phase 2 — receive, one flattened scatter of (shard, chunk)
        // units; every chunk of a shard reads the shard's one plan.
        {
            let mut ctxs: Vec<RecvCtx<'_, P>> = Vec::new();
            for shard in self.shards.iter_mut() {
                if !shard.core.active {
                    continue;
                }
                let SimShard {
                    core,
                    procs,
                    plan,
                    recv_out,
                    ..
                } = shard;
                let ranges = exec::chunk_ranges(procs.len(), workers);
                if recv_out.len() < ranges.len() {
                    recv_out.resize_with(ranges.len(), Vec::new);
                }
                ctxs.push(RecvCtx {
                    r: core.round,
                    plan,
                    ranges,
                    procs: procs.iter_mut().map(|(&pid, p)| (pid, p)).collect(),
                    outs: recv_out.as_mut_slice(),
                });
            }
            let mut tasks = Vec::new();
            for ctx in ctxs.iter_mut() {
                let r = ctx.r;
                let plan = ctx.plan;
                let mut procs = ctx.procs.as_mut_slice();
                let mut outs = std::mem::take(&mut ctx.outs);
                for range in &ctx.ranges {
                    let (chunk, rest) = std::mem::take(&mut procs).split_at_mut(range.len());
                    procs = rest;
                    let (out, rest) = outs.split_at_mut(1);
                    outs = rest;
                    let out = &mut out[0];
                    tasks.push(move || par::receive_chunk(chunk, r, plan, out));
                }
            }
            self.exec.scatter(tasks);
        }

        // Post pass, in shard order: merge chunk results (decisions in
        // pid order), state sampling, Byzantine inboxes, round advance,
        // rollover.
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let sid = ShardId(s);
            if shard.core.active {
                let mut total = 0u64;
                for out in shard.recv_out.iter_mut() {
                    for (pid, decision, bits) in out.drain(..) {
                        total += bits;
                        if let Some(v) = decision {
                            shard.core.record_decision(pid, v);
                        }
                    }
                }
                shard.core.record_state_bits(total);
                shard.core.deliver_byz(&mut shard.plan);
                shard.core.round = shard.core.round.next();
            }
            if let Some(spawned) = shard.core.roll_over_if_done(sid, tick, measure_bits) {
                shard.procs = spawned.into_iter().collect();
            }
        }

        // Merge per-shard trace buffers in shard order — the same global
        // routing order a sequential sweep over the shards records.
        if let Some(trace) = &mut self.trace {
            for shard in &mut self.shards {
                trace.entries.append(&mut shard.trace_buf);
            }
        }

        self.tick = tick + 1;
    }

    /// Ticks until every shard's queue drains or `max_ticks` global ticks
    /// have executed, then reports per shard.
    pub fn run(&mut self, max_ticks: u64) -> Vec<ShardReport<P::Value>>
    where
        P: Send,
        P::Value: Send,
        P::Msg: WireEncode,
    {
        while self.tick < max_ticks && !self.all_idle() {
            self.step();
        }
        self.reports()
    }

    /// Enqueues a fresh shot on `shard` mid-run; if the shard is idle,
    /// the shot starts at the current tick.
    ///
    /// # Panics
    ///
    /// Panics if `shard` does not exist or the shot is malformed.
    pub fn enqueue_shot(&mut self, shard: ShardId, shot: ShotSpec<P>) {
        let tick = self.tick;
        let s = &mut self.shards[shard.index()];
        s.core.shots.push_back(shot);
        if !s.core.active {
            if let Some(spawned) = s.core.start_next_shot(tick) {
                s.procs = spawned.into_iter().collect();
            }
        }
    }

    /// Cuts `shard`'s live shot — its report is finalized as-is — and
    /// starts the next queued shot, if any (shard churn: a restart looks
    /// like an abort plus an enqueue).
    ///
    /// # Panics
    ///
    /// Panics if `shard` does not exist.
    pub fn abort_shot(&mut self, shard: ShardId) {
        let tick = self.tick;
        let measure_bits = self.measure_bits;
        let s = &mut self.shards[shard.index()];
        match s.core.cut_shot(shard, tick, measure_bits) {
            Some(spawned) => s.procs = spawned.into_iter().collect(),
            None => s.procs = BTreeMap::new(),
        }
    }

    /// Crashes one process of `shard`'s live shot: the automaton is
    /// dropped (sends stop, the inbox slot goes dark) and the journal —
    /// if the shard is durable — becomes the pid's only surviving state.
    ///
    /// # Panics
    ///
    /// Panics if `shard` does not exist.
    pub fn crash_process(&mut self, shard: ShardId, pid: Pid) -> Result<(), ChurnError> {
        let s = &mut self.shards[shard.index()];
        s.core.crash(pid)?;
        s.procs.remove(&pid);
        Ok(())
    }

    /// Recovers a crashed process of `shard`'s live shot — durable
    /// (journal replay into a fresh spawn, byte-identical state) or
    /// amnesiac (fresh spawn consuming the shared `t` fault budget).
    ///
    /// # Panics
    ///
    /// Panics if `shard` does not exist.
    pub fn recover_process(
        &mut self,
        shard: ShardId,
        pid: Pid,
        mode: RecoveryMode,
    ) -> Result<(), ChurnError>
    where
        P::Msg: WireDecode,
    {
        let s = &mut self.shards[shard.index()];
        let proc_ = s.core.recover(pid, mode)?;
        s.procs.insert(pid, proc_);
        Ok(())
    }

    /// Applies one churn operation now.
    ///
    /// # Panics
    ///
    /// Panics if a crash/recover operation is invalid for the shard's
    /// current state (scripted [`ChurnPlan`]s are engine-internal; the
    /// scenario interpreter validates through the fallible
    /// [`crash_process`](ShardedSimulation::crash_process) /
    /// [`recover_process`](ShardedSimulation::recover_process) seam
    /// instead).
    pub fn apply_churn_op(&mut self, op: ChurnOp<P>)
    where
        P::Msg: WireDecode,
    {
        match op {
            ChurnOp::Abort(shard) => self.abort_shot(shard),
            ChurnOp::Enqueue(shard, shot) => self.enqueue_shot(shard, shot),
            ChurnOp::Crash(shard, pid) => self
                .crash_process(shard, pid)
                .expect("churn plan crash failed"),
            ChurnOp::Recover(shard, pid, mode) => self
                .recover_process(shard, pid, mode)
                .expect("churn plan recover failed"),
        }
    }

    /// Like [`run`](ShardedSimulation::run), but applying the churn
    /// plan's due operations at the start of each tick. The run
    /// continues through idle stretches while operations remain
    /// scheduled (a plan may revive an idle shard), and stops when both
    /// the shards and the plan are drained or `max_ticks` is hit.
    pub fn run_churned(
        &mut self,
        mut plan: ChurnPlan<P>,
        max_ticks: u64,
    ) -> Vec<ShardReport<P::Value>>
    where
        P: Send,
        P::Value: Send,
        P::Msg: WireEncode + WireDecode,
    {
        while self.tick < max_ticks {
            for op in plan.take_due(self.tick) {
                self.apply_churn_op(op);
            }
            if self.all_idle() && !plan.has_pending_after(self.tick) {
                break;
            }
            self.step();
        }
        self.reports()
    }

    /// The per-shard reports so far. Completed shots appear as finalized;
    /// a still-live shot appears with its current (possibly undecided)
    /// state.
    pub fn reports(&self) -> Vec<ShardReport<P::Value>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.core.report(ShardId(s), self.tick, self.measure_bits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::{FnFactory, Id, Inbox, Recipients};

    /// A minimal synchronous agreement: broadcast the input every round,
    /// decide on the smallest value heard from all `n` identifiers.
    #[derive(Clone, Debug)]
    struct MinAgree {
        id: Id,
        input: u32,
        n: usize,
        heard: BTreeMap<u32, BTreeSet<Id>>,
        decision: Option<u32>,
    }

    impl Protocol for MinAgree {
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
                let all_ids: BTreeSet<Id> = self.heard.values().flatten().copied().collect();
                if all_ids.len() >= self.n {
                    self.decision = self.heard.keys().next().copied();
                }
            }
        }

        fn decision(&self) -> Option<u32> {
            self.decision
        }
    }

    fn min_agree_factory(n: usize) -> impl ProtocolFactory<P = MinAgree> + Clone {
        FnFactory::new(move |id, input| MinAgree {
            id,
            input,
            n,
            heard: BTreeMap::new(),
            decision: None,
        })
    }

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::builder(n, n, 0).build().unwrap()
    }

    #[test]
    fn pipelining_restarts_on_the_next_queued_shot() {
        let factory = min_agree_factory(3);
        let mut sharded = ShardedSimulation::new();
        let spec = ShardSpec::new(cfg(3), IdAssignment::unique(3))
            .shot(ShotSpec::new(vec![5, 5, 5]))
            .shot(ShotSpec::new(vec![7, 9, 7]))
            .shot(ShotSpec::new(vec![1, 2, 3]));
        sharded.add_shard(spec, factory);
        let reports = sharded.run(16);
        assert_eq!(reports.len(), 1);
        let shard = &reports[0];
        assert_eq!(shard.shots.len(), 3);
        assert_eq!(shard.decided_shots(), 3);
        // Each shot decides in its round 0 (everyone hears everyone), so
        // the pipeline runs them on consecutive ticks.
        for (k, shot) in shard.shots.iter().enumerate() {
            assert_eq!(shot.shot, k);
            assert_eq!(shot.started_tick, k as u64);
            assert_eq!(shot.finished_tick, k as u64);
            assert!(shot.report.verdict.all_hold(), "{}", shot.report.verdict);
        }
        // The decided values are the per-shot minima.
        let decided: Vec<u32> = shard
            .shots
            .iter()
            .map(|s| s.report.outcome.decisions.values().next().unwrap().0)
            .collect();
        assert_eq!(decided, vec![5, 7, 1]);
    }

    /// A finished shot's payloads go with its interner: after K shots of
    /// distinct inputs the shard retains what one shot interns, not K
    /// shots' worth.
    #[test]
    fn frame_interner_starts_fresh_every_shot() {
        let frames_after = |shots: u32| {
            let mut spec = ShardSpec::new(cfg(3), IdAssignment::unique(3));
            for k in 0..shots {
                spec = spec.shot(ShotSpec::new(vec![10 * k, 10 * k + 1, 10 * k + 2]));
            }
            let mut sharded = ShardedSimulation::new();
            sharded.add_shard(spec, min_agree_factory(3));
            let reports = sharded.run(64);
            assert_eq!(reports[0].decided_shots(), shots as usize);
            sharded.shards[0].core.frames.len()
        };
        assert_eq!(frames_after(1), 3);
        assert_eq!(frames_after(8), frames_after(1));
    }

    #[test]
    fn heterogeneous_shard_sizes_share_one_scheduler() {
        let mut sharded = ShardedSimulation::new();
        for n in [2usize, 5, 3] {
            let spec = ShardSpec::new(cfg(n), IdAssignment::unique(n))
                .shot(ShotSpec::new((0..n as u32).collect()));
            sharded.add_shard(spec, min_agree_factory(n));
        }
        let reports = sharded.run(8);
        assert!(sharded.all_idle());
        for (report, n) in reports.iter().zip([2u64, 5, 3]) {
            assert_eq!(report.decided_shots(), 1);
            // A full n × n broadcast minus self-deliveries, for one round.
            assert_eq!(report.messages_sent(), n * (n - 1));
            // Everyone decides the minimum, 0.
            let shot = &report.shots[0];
            assert!(shot.report.outcome.decisions.values().all(|&(v, _)| v == 0));
        }
    }

    #[test]
    fn bits_are_measured_once_per_emission_when_enabled() {
        let factory = min_agree_factory(2);
        let mut with_bits = ShardedSimulation::new().measure_bits(true);
        with_bits.add_shard(
            ShardSpec::new(cfg(2), IdAssignment::unique(2)).shot(ShotSpec::new(vec![3, 4])),
            factory.clone(),
        );
        let reports = with_bits.run(4);
        let shot = &reports[0].shots[0];
        // 2 non-self messages; a small u32 payload frames to 2 bytes
        // (version byte + 1 varint byte) = 16 exact bits each.
        assert_eq!(shot.bits_sent, Some(32));
        assert_eq!(reports[0].bits_sent(), Some(32));

        let mut without = ShardedSimulation::new();
        without.add_shard(
            ShardSpec::new(cfg(2), IdAssignment::unique(2)).shot(ShotSpec::new(vec![3, 4])),
            factory,
        );
        let reports = without.run(4);
        assert_eq!(reports[0].shots[0].bits_sent, None);
        assert_eq!(reports[0].bits_sent(), None);
    }

    #[test]
    fn trace_entries_carry_shard_and_shot_tags() {
        let factory = min_agree_factory(2);
        let mut sharded = ShardedSimulation::new().record_trace(true);
        for _ in 0..2 {
            sharded.add_shard(
                ShardSpec::new(cfg(2), IdAssignment::unique(2))
                    .shot(ShotSpec::new(vec![1, 2]))
                    .shot(ShotSpec::new(vec![8, 9])),
                factory.clone(),
            );
        }
        sharded.run(8);
        let trace = sharded.trace().unwrap();
        // 2 shards × 2 shots × (2 × 2 deliveries per round, 1 round each).
        assert_eq!(trace.len(), 16);
        for shard in [ShardId::new(0), ShardId::new(1)] {
            for shot in [0usize, 1] {
                let solo = trace.shard_shot_trace(shard, shot);
                assert_eq!(solo.len(), 4, "{shard} shot {shot}");
                // Local coordinates: pids 0..2 only, rounds from zero.
                assert!(solo
                    .deliveries()
                    .iter()
                    .all(|d| d.to.index() < 2 && d.round == Round::ZERO));
            }
        }
    }

    #[test]
    fn undecided_shot_is_cut_by_its_horizon() {
        // n = 3 but one process is Byzantine-silent: MinAgree waits for
        // all 3 identifiers forever.
        let factory = min_agree_factory(3);
        let cfg = SystemConfig::builder(3, 3, 1).build().unwrap();
        let mut sharded = ShardedSimulation::new();
        sharded.add_shard(
            ShardSpec::new(cfg, IdAssignment::unique(3)).shot(
                ShotSpec::new(vec![1, 1, 1])
                    .byzantine([Pid::new(2)], Silent)
                    .horizon(3),
            ),
            factory,
        );
        let reports = sharded.run(10);
        assert!(sharded.all_idle());
        let shot = &reports[0].shots[0];
        assert_eq!(shot.report.rounds, 3);
        assert!(shot.report.all_decided_round.is_none());
        assert!(!shot.report.verdict.termination.holds());
        assert_eq!(sharded.tick(), 3, "the scheduler idles after the cut");
    }

    /// The acceptance criterion: K = 64 independent n = 32 synchronous
    /// agreement shards, multi-shot, under one scheduler — and the engine
    /// clones **zero** payloads (same counting-`Clone` technique as the
    /// single-shot fabric test).
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

        impl WireEncode for Counted {
            fn encode(&self, w: &mut codec::Writer) {
                self.0.encode(w);
            }
        }

        /// Synchronous agreement on `Counted` payloads: broadcast the
        /// input, decide once all `n` identifiers are heard (round 0),
        /// never cloning what it receives.
        #[derive(Clone, Debug)]
        struct CountedAgree {
            id: Id,
            input: u32,
            n: usize,
            heard: BTreeSet<Id>,
            min: Option<u32>,
            decision: Option<u32>,
        }

        impl Protocol for CountedAgree {
            type Msg = Counted;
            type Value = u32;

            fn id(&self) -> Id {
                self.id
            }

            fn send(&mut self, _round: Round) -> Vec<(Recipients, Counted)> {
                vec![(Recipients::All, Counted(self.input))]
            }

            fn receive(&mut self, _round: Round, inbox: &Inbox<Counted>) {
                for (id, msg, _count) in inbox.iter() {
                    self.heard.insert(id);
                    self.min = Some(self.min.map_or(msg.0, |m| m.min(msg.0)));
                }
                if self.decision.is_none() && self.heard.len() >= self.n {
                    self.decision = self.min;
                }
            }

            fn decision(&self) -> Option<u32> {
                self.decision
            }
        }

        #[test]
        fn k64_n32_sync_agreement_clones_zero_payloads() {
            let k = 64usize;
            let n = 32usize;
            let shots = 2usize;
            let factory = FnFactory::new(move |id, input: u32| CountedAgree {
                id,
                input,
                n,
                heard: BTreeSet::new(),
                min: None,
                decision: None,
            });
            let mut sharded = ShardedSimulation::new().record_trace(true);
            for s in 0..k {
                let mut spec = ShardSpec::new(cfg(n), IdAssignment::unique(n));
                for shot in 0..shots {
                    let inputs = (0..n as u32).map(|i| i + (s + shot) as u32).collect();
                    spec = spec.shot(ShotSpec::new(inputs));
                }
                sharded.add_shard(spec, factory.clone());
            }

            let before = CLONES.load(Ordering::Relaxed);
            let reports = sharded.run(16);
            let clones = CLONES.load(Ordering::Relaxed) - before;

            assert!(sharded.all_idle());
            let decided: usize = reports.iter().map(ShardReport::decided_shots).sum();
            assert_eq!(decided, k * shots, "every shard decides every shot");
            // K × n² deliveries per tick, all recorded in the trace —
            // and the scheduler cloned no payload at all.
            let deliveries = (k * n * n * shots) as u64;
            assert_eq!(sharded.trace().unwrap().len() as u64, deliveries);
            assert_eq!(clones, 0, "the sharded fabric clones no payloads at all");
        }
    }
}
