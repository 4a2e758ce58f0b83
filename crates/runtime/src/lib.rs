//! A threaded actor runtime for homonym protocols.
//!
//! Runs the same deterministic [`Protocol`] automata as the simulator, but
//! with every correct process on its own OS thread, exchanging messages
//! through channels. A coordinator thread implements the network fabric —
//! lock-step rounds, identifier-based delivery, drop schedules, the
//! numerate/innumerate transform, and the restricted-Byzantine clamp —
//! with exactly the semantics of
//! [`homonym_sim::Simulation`], so a run here must produce
//! the same decisions as the simulator given the same inputs (the
//! `runtime_parity` integration tests assert this).
//!
//! This is the "deployment-shaped" substrate: it exists to demonstrate the
//! protocol automata are runtime-agnostic, and to benchmark the protocol
//! logic under real thread scheduling.
//!
//! Two coordinators are provided: [`Cluster`] runs one agreement instance
//! (the original single-shot parity target), and [`ShardedCluster`] drives
//! the sharded multi-shot schedule of
//! [`homonym_sim::shards::ShardedSimulation`] — K instances interleaved
//! per tick, each routed as casts into delivery classes, shards
//! restarting on their queued shots — with thread-per-process actors that
//! are *restarted* in place between shots (the `shard_runtime_parity`
//! integration tests pin the cross-engine equivalence).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread;

use crossbeam_channel::{bounded, Receiver, Sender};
use homonym_core::codec::{WireDecode, WireEncode};
use homonym_core::exec::{self, Executor, Sequential};
use homonym_core::intern::{IdBits, Tok};
use homonym_core::journal::{self, DeliveryRecords, Journal, MemJournal};
use homonym_core::spec::{self, Outcome};
use homonym_core::RecoveryMode;
use homonym_core::{
    ByzPower, Deliveries, FrameInterner, Id, IdAssignment, Inbox, Pid, Protocol, ProtocolFactory,
    Recipients, Round, SharedEnvelope, SystemConfig,
};
use homonym_sim::adversary::{AdvCtx, Adversary, Silent};
use homonym_sim::par::{self, Cast, DeliveryPlan, SendScratch};
use homonym_sim::shards::{
    wire_bits, ChurnOp, ChurnPlan, ShardCore, ShardId, ShardReport, ShardSpec,
};
use homonym_sim::{DropPolicy, NoDrops, RunReport};

enum ToActor<P: Protocol> {
    /// Replace the actor's automaton (a recovered process rejoins).
    Restart(P),
    Collect(Round),
    Deliver(Round, Inbox<P::Msg>),
    Stop,
}

/// One scheduled crash/recover event of a single-shot [`Cluster`] run.
enum ClusterChurn {
    Crash(Pid),
    Recover(Pid, RecoveryMode),
}

enum FromActor<M, V> {
    Sends(Pid, Vec<(Recipients, Arc<M>)>),
    /// Post-delivery report: decision (if any) plus the automaton's
    /// current `state_bits` sample.
    Received(Pid, Option<V>, u64),
}

/// Builder for a threaded cluster run.
///
/// # Example
///
/// ```
/// use homonym_classic::{Eig, UniqueRunner};
/// use homonym_core::{Domain, FnFactory, IdAssignment, SystemConfig};
/// use homonym_runtime::Cluster;
///
/// let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
/// let domain = Domain::binary();
/// let factory = FnFactory::new(move |id, input| {
///     UniqueRunner::new(Eig::new(4, 1, domain.clone()), id, input)
/// });
/// let report = Cluster::new(cfg, IdAssignment::unique(4), vec![true; 4])
///     .run(&factory, 10);
/// assert!(report.verdict.all_hold());
/// ```
pub struct Cluster<P: Protocol> {
    cfg: SystemConfig,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    byz: BTreeSet<Pid>,
    adversary: Box<dyn Adversary<P::Msg>>,
    drops: Box<dyn DropPolicy>,
    churn: BTreeMap<u64, Vec<ClusterChurn>>,
}

impl<P> Cluster<P>
where
    P: Protocol + Send + 'static,
    P::Value: Send,
{
    /// Starts configuring a threaded run of `cfg` under `assignment` with
    /// the given per-process proposals. Defaults: no Byzantine processes,
    /// no drops.
    pub fn new(cfg: SystemConfig, assignment: IdAssignment, inputs: Vec<P::Value>) -> Self {
        Cluster {
            cfg,
            assignment,
            inputs,
            byz: BTreeSet::new(),
            adversary: Box::new(Silent),
            drops: Box::new(NoDrops),
            churn: BTreeMap::new(),
        }
    }

    /// Schedules a crash of `pid` at the start of `round`: its actor
    /// idles (no sends, inbox drops) and the coordinator's journal for
    /// it becomes its only surviving state.
    pub fn crash_at(mut self, round: u64, pid: Pid) -> Self {
        self.churn
            .entry(round)
            .or_default()
            .push(ClusterChurn::Crash(pid));
        self
    }

    /// Schedules a recovery of `pid` at the start of `round` — durable
    /// (journal replay into a fresh automaton, byte-identical state) or
    /// amnesiac (fresh spawn consuming the shared `t` fault budget).
    pub fn recover_at(mut self, round: u64, pid: Pid, mode: RecoveryMode) -> Self {
        self.churn
            .entry(round)
            .or_default()
            .push(ClusterChurn::Recover(pid, mode));
        self
    }

    /// Declares Byzantine processes and their strategy (runs on the
    /// coordinator thread).
    ///
    /// # Panics
    ///
    /// Panics if more than `t` processes are declared Byzantine.
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
        self.adversary = Box::new(adversary);
        self
    }

    /// Installs a drop policy (default: none).
    pub fn drops(mut self, drops: impl DropPolicy + 'static) -> Self {
        self.drops = Box::new(drops);
        self
    }

    /// Spawns one thread per correct process and runs lock-step rounds
    /// until every correct process decides or `max_rounds` elapse.
    ///
    /// # Panics
    ///
    /// Panics on the same contract violations as the simulator (double
    /// addressing, adversary emitting from a correct process, changed
    /// decisions), and if a worker thread panics.
    pub fn run<F>(mut self, factory: &F, max_rounds: u64) -> RunReport<P::Value>
    where
        F: ProtocolFactory<P = P>,
        P::Msg: WireEncode + WireDecode,
    {
        let cfg = self.cfg;
        cfg.validate().expect("invalid system configuration");
        assert_eq!(self.assignment.n(), cfg.n, "assignment covers n processes");
        assert_eq!(self.inputs.len(), cfg.n, "one input per process");

        let correct: Vec<Pid> = Pid::all(cfg.n).filter(|p| !self.byz.contains(p)).collect();
        let correct_inputs: BTreeMap<Pid, P::Value> = correct
            .iter()
            .map(|&p| (p, self.inputs[p.index()].clone()))
            .collect();

        // Spawn actors.
        let (from_tx, from_rx): (
            Sender<FromActor<P::Msg, P::Value>>,
            Receiver<FromActor<P::Msg, P::Value>>,
        ) = bounded(cfg.n * 2);
        let mut to_actors: BTreeMap<Pid, Sender<ToActor<P>>> = BTreeMap::new();
        let mut handles = Vec::new();
        for &pid in &correct {
            let (to_tx, to_rx) = bounded::<ToActor<P>>(2);
            to_actors.insert(pid, to_tx);
            let from_tx = from_tx.clone();
            let mut proc_ =
                factory.spawn(self.assignment.id_of(pid), self.inputs[pid.index()].clone());
            handles.push(thread::spawn(move || {
                while let Ok(msg) = to_rx.recv() {
                    match msg {
                        ToActor::Restart(p) => proc_ = p,
                        ToActor::Collect(round) => {
                            let out = proc_.send_shared(round);
                            from_tx
                                .send(FromActor::Sends(pid, out))
                                .expect("coordinator alive");
                        }
                        ToActor::Deliver(round, inbox) => {
                            proc_.receive(round, &inbox);
                            from_tx
                                .send(FromActor::Received(
                                    pid,
                                    proc_.decision(),
                                    proc_.state_bits(),
                                ))
                                .expect("coordinator alive");
                        }
                        ToActor::Stop => break,
                    }
                }
            }));
        }

        // Coordinator loop. The wire list and delivery buckets are the
        // same Arc-shared fabric the lock-step simulator routes through,
        // reused across rounds.
        let mut decisions: BTreeMap<Pid, (P::Value, Round)> = BTreeMap::new();
        let mut messages_sent = 0u64;
        let mut messages_delivered = 0u64;
        let mut messages_dropped = 0u64;
        let mut state_bits = 0u64;
        let mut peak_state_bits = 0u64;
        let mut round = Round::ZERO;
        let mut wires: Vec<(Pid, Id, Pid, Arc<P::Msg>, Tok)> = Vec::new();
        let mut deliveries: Deliveries<P::Msg> = Deliveries::new(cfg.n);
        let mut frames: FrameInterner<P::Msg> = FrameInterner::new();

        // Crash-recovery state: coordinator-held journals (one per
        // correct process, only when a crash is scheduled), the crashed
        // set, and the amnesiac rejoiners who left the accounting.
        let mut churn = std::mem::take(&mut self.churn);
        let mut journals: Option<BTreeMap<Pid, MemJournal>> =
            (!churn.is_empty()).then(|| correct.iter().map(|&p| (p, MemJournal::new())).collect());
        let mut crashed: BTreeSet<Pid> = BTreeSet::new();
        let mut amnesiac: BTreeSet<Pid> = BTreeSet::new();
        let mut correct_inputs = correct_inputs;
        let mut records = DeliveryRecords::new();

        while round.index() < max_rounds && decisions.len() + amnesiac.len() < correct.len() {
            // 0. Apply due crash/recover events at the round boundary.
            let due = churn.split_off(&(round.index() + 1));
            for ev in std::mem::replace(&mut churn, due).into_values().flatten() {
                match ev {
                    ClusterChurn::Crash(pid) => {
                        assert!(
                            to_actors.contains_key(&pid) && !crashed.contains(&pid),
                            "cannot crash {pid}: not a live correct process"
                        );
                        crashed.insert(pid);
                    }
                    ClusterChurn::Recover(pid, mode) => {
                        assert!(crashed.contains(&pid), "{pid} is not crashed");
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
                                journal::replay(&mut p, entries, cfg.counting)
                                    .expect("journal replay");
                                p
                            }
                            RecoveryMode::Amnesiac => {
                                assert!(
                                    self.byz.len() + amnesiac.len() + 1 <= cfg.t,
                                    "fault budget exceeded: {} > t = {}",
                                    self.byz.len() + amnesiac.len() + 1,
                                    cfg.t
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
                        crashed.remove(&pid);
                        to_actors[&pid]
                            .send(ToActor::Restart(p))
                            .expect("actor alive");
                    }
                }
            }

            // 1. Collect correct sends (in parallel across actors).
            let live = correct.len() - crashed.len();
            for (pid, tx) in &to_actors {
                if !crashed.contains(pid) {
                    tx.send(ToActor::Collect(round)).expect("actor alive");
                }
            }
            let mut sends: BTreeMap<Pid, Vec<(Recipients, Arc<P::Msg>)>> = BTreeMap::new();
            for _ in 0..live {
                match from_rx.recv().expect("actor alive") {
                    FromActor::Sends(pid, out) => {
                        sends.insert(pid, out);
                    }
                    FromActor::Received(..) => unreachable!("no delivery outstanding"),
                }
            }

            // 2. Wires: correct then adversary (same order as the
            //    simulator, for determinism parity). Each payload arrives
            //    as one shared handle per emission (the `send_shared`
            //    seam); recipients share it.
            wires.clear();
            deliveries.clear();
            let mut addressed: BTreeSet<Pid> = BTreeSet::new();
            for (pid, out) in sends {
                let src_id = self.assignment.id_of(pid);
                addressed.clear();
                for (recipients, msg) in out {
                    let tok = frames.tok_for(&msg);
                    for to in recipients.expand(&self.assignment) {
                        assert!(
                            addressed.insert(to),
                            "correct process {pid} addressed {to} twice in {round}"
                        );
                        wires.push((pid, src_id, to, Arc::clone(&msg), tok));
                    }
                }
            }
            let ctx = AdvCtx {
                round,
                cfg: &cfg,
                assignment: &self.assignment,
                byz: &self.byz,
            };
            let mut byz_sent: BTreeMap<(Pid, Pid), u32> = BTreeMap::new();
            for emission in self.adversary.send(&ctx) {
                assert!(
                    self.byz.contains(&emission.from),
                    "adversary emitted from non-byzantine {}",
                    emission.from
                );
                let src_id = self.assignment.id_of(emission.from);
                let tok = frames.tok_for(&emission.msg);
                for to in emission.to.expand(&self.assignment) {
                    if cfg.byz_power == ByzPower::Restricted {
                        let count = byz_sent.entry((emission.from, to)).or_insert(0);
                        if *count >= 1 {
                            continue;
                        }
                        *count += 1;
                    }
                    wires.push((emission.from, src_id, to, Arc::clone(&emission.msg), tok));
                }
            }

            // 3. Drops and routing into the dense buckets. The stateful
            // drop policy is queried before the crash filter so its RNG
            // stream stays in lockstep with an uninterrupted run.
            if journals.is_some() {
                records.begin(cfg.n);
            }
            for (from, src_id, to, msg, tok) in wires.drain(..) {
                let is_self = from == to;
                if !is_self {
                    messages_sent += 1;
                    let policy_drop = self.drops.drops(round, from, to);
                    if policy_drop || crashed.contains(&to) {
                        messages_dropped += 1;
                        continue;
                    }
                    messages_delivered += 1;
                } else if crashed.contains(&to) {
                    continue;
                }
                if journals.is_some() && to_actors.contains_key(&to) {
                    records.stage(to.index(), src_id, tok, &*msg);
                }
                deliveries.push(to, SharedEnvelope::framed(src_id, msg, tok));
            }
            if let Some(j) = &mut journals {
                for (&pid, journal) in j.iter_mut() {
                    if crashed.contains(&pid) {
                        continue; // not executing this round
                    }
                    journal
                        .append(records.record(round, pid.index()))
                        .and_then(|()| journal.sync())
                        .expect("journal append failed");
                }
            }

            // 4. Deliver to actors; collect decisions.
            for (&pid, tx) in &to_actors {
                if crashed.contains(&pid) {
                    continue;
                }
                let inbox = deliveries.take_inbox(pid, cfg.counting);
                tx.send(ToActor::Deliver(round, inbox))
                    .expect("actor alive");
            }
            let mut round_bits = 0u64;
            for _ in 0..live {
                match from_rx.recv().expect("actor alive") {
                    FromActor::Received(pid, decision, bits) => {
                        round_bits += bits;
                        if amnesiac.contains(&pid) {
                            continue; // left the accounting
                        }
                        if let Some(v) = decision {
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
                    FromActor::Sends(..) => unreachable!("no collect outstanding"),
                }
            }
            state_bits = round_bits;
            peak_state_bits = peak_state_bits.max(state_bits);

            // 5. Byzantine inboxes to the adversary.
            let byz_inboxes: BTreeMap<Pid, Inbox<P::Msg>> = self
                .byz
                .iter()
                .map(|&pid| (pid, deliveries.take_inbox(pid, cfg.counting)))
                .collect();
            self.adversary.receive(round, &byz_inboxes);

            round = round.next();
        }

        // Shut down actors.
        for tx in to_actors.values() {
            let _ = tx.send(ToActor::Stop);
        }
        drop(to_actors);
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }

        let outcome = Outcome {
            inputs: correct_inputs,
            decisions: decisions.clone(),
            horizon: round,
        };
        let verdict = spec::check(&outcome);
        RunReport {
            all_decided_round: (decisions.len() + amnesiac.len() == correct.len())
                .then(|| decisions.values().map(|&(_, r)| r).max())
                .flatten(),
            outcome,
            verdict,
            rounds: round.index(),
            messages_sent,
            messages_delivered,
            messages_dropped,
            state_bits,
            peak_state_bits,
        }
    }
}

enum ToShardActor<P: Protocol> {
    /// Replace the actor's automaton (a new shot starts).
    Restart(P),
    Collect(Round),
    /// The round's inbox, shared with every actor of the same delivery
    /// class.
    Deliver(Round, Arc<Inbox<P::Msg>>),
    Stop,
}

enum FromShardActor<M, V> {
    Sends(usize, Pid, Vec<(Recipients, Arc<M>)>),
    /// Post-delivery report: decision (if any) plus the automaton's
    /// current `state_bits` sample.
    Received(usize, Pid, Option<V>, u64),
}

/// The sharded threaded coordinator: drives the same multi-shot shard
/// schedule as [`homonym_sim::shards::ShardedSimulation`], with every
/// process of every shard on its own OS thread.
///
/// Each global tick the coordinator collects one round of sends from all
/// live shards' actors, routes each shard's casts into delivery classes
/// (payload `Arc`s wrapped once per emission, one inbox built per
/// class), and ships every actor an `Arc` of its class's inbox. When a
/// shard's instance decides, the coordinator spawns fresh automata from
/// the shard's factory and *restarts* the existing actor threads in
/// place — no thread churn between shots. Per-shard reports use the same
/// [`ShardReport`]/[`ShotReport`] types as the simulator, so parity is a
/// field-for-field comparison.
///
/// Like the sharded simulator, the cluster is generic over an
/// [`Executor`]: the coordinator-side fan-out work of each tick —
/// turning the collected sends into casts (the duplicate-recipient check
/// and, when measured, the exact frame bits) and shipping the class
/// inboxes to the actors — is scattered as flattened **(shard, chunk)**
/// units across worker threads, while the actors keep parallelizing the
/// protocol work itself. Between the scatters the coordinator runs each
/// shard's inherently sequential middle (adversary, frame tokens,
/// stateful drop planning, class inboxes) in shard order — the
/// simulator's own `ShardCore::plan_tick` — so decisions, counters, and
/// reports are identical at any worker count.
///
/// # Example
///
/// ```
/// use homonym_classic::{Eig, UniqueRunner};
/// use homonym_core::{Domain, FnFactory, IdAssignment, SystemConfig};
/// use homonym_runtime::ShardedCluster;
/// use homonym_sim::{ShardSpec, ShotSpec};
///
/// let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
/// let domain = Domain::binary();
/// let factory = FnFactory::new(move |id, input| {
///     UniqueRunner::new(Eig::new(4, 1, domain.clone()), id, input)
/// });
/// let mut cluster = ShardedCluster::new();
/// cluster.add_shard(
///     ShardSpec::new(cfg, IdAssignment::unique(4))
///         .shot(ShotSpec::new(vec![true; 4]))
///         .shot(ShotSpec::new(vec![false; 4])),
///     factory,
/// );
/// let reports = cluster.run(32);
/// assert_eq!(reports[0].decided_shots(), 2);
/// ```
pub struct ShardedCluster<P: Protocol, E: Executor = Sequential> {
    shards: Vec<(ShardSpec<P>, Box<dyn ProtocolFactory<P = P> + Send>)>,
    measure_bits: bool,
    churn: ChurnPlan<P>,
    exec: E,
}

impl<P: Protocol> Default for ShardedCluster<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> ShardedCluster<P> {
    /// An empty sharded cluster whose coordinator work runs sequentially.
    pub fn new() -> Self {
        Self::with_executor(Sequential)
    }
}

impl<P: Protocol, E: Executor> ShardedCluster<P, E> {
    /// An empty sharded cluster whose per-tick coordinator work runs on
    /// the given executor — e.g.
    /// `ShardedCluster::with_executor(Pool::new(4))`.
    pub fn with_executor(exec: E) -> Self {
        ShardedCluster {
            shards: Vec::new(),
            measure_bits: false,
            churn: ChurnPlan::new(),
            exec,
        }
    }

    /// Measures exact wire bits per shot (off by default) — see
    /// [`wire_bits`](homonym_sim::shards::wire_bits).
    pub fn measure_bits(mut self, on: bool) -> Self {
        self.measure_bits = on;
        self
    }

    /// Registers a shard-churn plan, applied at the start of each global
    /// tick of [`run`](ShardedCluster::run): aborted shots are cut (their
    /// reports finalized as-is) and the freed actor threads restart on
    /// the shard's next queued shot; enqueued shots revive idle shards.
    ///
    /// This is the threaded counterpart of
    /// [`ShardedSimulation::run_churned`](homonym_sim::ShardedSimulation::run_churned)
    /// — both consume the same plan shape, so a scenario schedule drives
    /// either engine.
    pub fn churn(mut self, plan: ChurnPlan<P>) -> Self {
        self.churn = plan;
        self
    }

    /// Enqueues a shard and the factory its shots respawn from.
    pub fn add_shard(
        &mut self,
        spec: ShardSpec<P>,
        factory: impl ProtocolFactory<P = P> + Send + 'static,
    ) -> ShardId {
        let id = ShardId::new(self.shards.len());
        self.shards.push((spec, Box::new(factory)));
        id
    }
}

/// One shard of the threaded coordinator: the shared bookkeeping, the
/// senders to its actor threads, and the shard-private per-tick scratch —
/// everything a tick's worker tasks need to process this shard's chunks
/// without touching its neighbours.
struct ClusterShard<P: Protocol> {
    core: ShardCore<P>,
    txs: BTreeMap<Pid, Sender<ToShardActor<P>>>,
    /// This tick's collected sends, keyed by correct pid (phase 1a).
    sends: BTreeMap<Pid, Vec<(Recipients, Arc<P::Msg>)>>,
    /// This tick's casts (reused across ticks, local coords).
    casts: Vec<Cast<P::Msg>>,
    /// Per-chunk send scratch (phase 1b), reused across ticks.
    send_scratch: Vec<SendScratch<P::Msg>>,
    /// This tick's routing plan: delivery classes and their inboxes.
    plan: DeliveryPlan<P::Msg>,
    /// Restricted-clamp pair bitset, reused across ticks.
    byz_sent: IdBits,
}

/// Borrow bundle for one shard's send phase (the threaded counterpart of
/// the sharded simulator's — here the emissions were already collected
/// from the actors, so the chunks only turn them into casts).
struct SendCtx<'a, P: Protocol> {
    shard: ShardId,
    r: Round,
    assignment: &'a IdAssignment,
    sends: Vec<(Pid, Vec<(Recipients, Arc<P::Msg>)>)>,
    scratch: &'a mut [SendScratch<P::Msg>],
    ranges: Vec<std::ops::Range<usize>>,
}

/// Borrow bundle for one shard's deliver phase: the routing plan and
/// per-chunk clones of the actor senders (cloned so each chunk task owns
/// its handles).
struct RecvCtx<'a, P: Protocol> {
    r: Round,
    plan: &'a DeliveryPlan<P::Msg>,
    chunk_txs: Vec<Vec<(Pid, Sender<ToShardActor<P>>)>>,
}

impl<P, E> ShardedCluster<P, E>
where
    P: Protocol + Send + 'static,
    P::Value: Send,
    P::Msg: WireEncode + WireDecode,
    E: Executor,
{
    /// Spawns one thread per process of every shard and runs global
    /// lock-step ticks until every shard drains its shot queue or
    /// `max_ticks` elapse, then reports per shard.
    ///
    /// # Panics
    ///
    /// Panics on the same contract violations as the sharded simulator
    /// (all of which are asserted on the coordinator thread or one of
    /// the executor's workers). A panic *inside a protocol automaton*
    /// kills its actor thread and leaves the coordinator waiting for a
    /// reply that never comes — the run does not complete (the same
    /// limitation as [`Cluster`]); protocol code is trusted not to
    /// panic.
    pub fn run(self, max_ticks: u64) -> Vec<ShardReport<P::Value>> {
        let measure_bits = self.measure_bits;
        let exec = self.exec;
        let workers = exec.workers();
        let measure = move |m: &P::Msg| if measure_bits { wire_bits(m) } else { 0 };
        let mut churn = self.churn;

        // Validate the shards. The shot bookkeeping is the simulator's
        // own `ShardCore`, so validation, restarts and reports cannot
        // drift between the engines.
        let mut shards: Vec<ClusterShard<P>> = self
            .shards
            .into_iter()
            .map(|(spec, factory)| ClusterShard {
                core: ShardCore::new(spec, factory),
                txs: BTreeMap::new(),
                sends: BTreeMap::new(),
                casts: Vec::new(),
                send_scratch: Vec::new(),
                plan: DeliveryPlan::new(),
                byz_sent: IdBits::new(),
            })
            .collect();
        let total_slots: usize = shards.iter().map(|s| s.core.cfg.n).sum();

        // One actor thread per (shard, process); automata arrive via
        // Restart messages, so Byzantine-only slots simply idle.
        let (from_tx, from_rx): (
            Sender<FromShardActor<P::Msg, P::Value>>,
            Receiver<FromShardActor<P::Msg, P::Value>>,
        ) = bounded(total_slots.max(1) * 2);
        let mut handles = Vec::new();
        for (s, shard) in shards.iter_mut().enumerate() {
            for pid in Pid::all(shard.core.cfg.n) {
                let (to_tx, to_rx) = bounded::<ToShardActor<P>>(4);
                shard.txs.insert(pid, to_tx);
                let from_tx = from_tx.clone();
                handles.push(thread::spawn(move || {
                    let mut proc_: Option<P> = None;
                    while let Ok(msg) = to_rx.recv() {
                        match msg {
                            ToShardActor::Restart(p) => proc_ = Some(p),
                            ToShardActor::Collect(round) => {
                                let out =
                                    proc_.as_mut().expect("actor restarted").send_shared(round);
                                from_tx
                                    .send(FromShardActor::Sends(s, pid, out))
                                    .expect("coordinator alive");
                            }
                            ToShardActor::Deliver(round, inbox) => {
                                let p = proc_.as_mut().expect("actor restarted");
                                p.receive(round, &inbox);
                                // Released before the reply: once the
                                // coordinator has heard from everyone, no
                                // payload handle of the tick is left here.
                                drop(inbox);
                                from_tx
                                    .send(FromShardActor::Received(
                                        s,
                                        pid,
                                        p.decision(),
                                        p.state_bits(),
                                    ))
                                    .expect("coordinator alive");
                            }
                            ToShardActor::Stop => break,
                        }
                    }
                }));
            }
        }

        // Ships freshly spawned automata to their actors (the threaded
        // counterpart of the simulator placing them in its procs map).
        let restart_actors =
            |spawned: Vec<(Pid, P)>, txs: &BTreeMap<Pid, Sender<ToShardActor<P>>>| {
                for (pid, p) in spawned {
                    txs[&pid]
                        .send(ToShardActor::Restart(p))
                        .expect("actor alive");
                }
            };

        for shard in shards.iter_mut() {
            if let Some(spawned) = shard.core.start_next_shot(0) {
                restart_actors(spawned, &shard.txs);
            }
        }

        // The coordinator loop: the same cast-and-class tick as the
        // sharded simulator. Phase 1a (collecting sends) and phase 3b
        // (recording decisions) stay on the coordinator because they
        // drain the one reply channel; turning the sends into casts and
        // shipping the class inboxes fan out as flattened
        // (shard, chunk) units across the executor, with the sequential
        // middle (adversary, tokens, drop planning, class inboxes) on the
        // coordinator in shard order.
        let mut tick = 0u64;
        while tick < max_ticks {
            // Phase 0 — apply due churn: cut aborted shots (reports
            // finalized as-is) and start enqueued / next shots, shipping
            // fresh automata to the freed actors.
            for op in churn.take_due(tick) {
                match op {
                    ChurnOp::Abort(sid) => {
                        let shard = &mut shards[sid.index()];
                        if let Some(spawned) = shard.core.cut_shot(sid, tick, measure_bits) {
                            restart_actors(spawned, &shard.txs);
                        }
                    }
                    ChurnOp::Enqueue(sid, shot) => {
                        let shard = &mut shards[sid.index()];
                        shard.core.shots.push_back(shot);
                        if !shard.core.active {
                            if let Some(spawned) = shard.core.start_next_shot(tick) {
                                restart_actors(spawned, &shard.txs);
                            }
                        }
                    }
                    // Crash/recover: the core validates and (for durable
                    // recoveries) replays the journal into a fresh
                    // automaton; a crashed pid's actor simply idles —
                    // never collected from or delivered to — until a
                    // Restart ships the recovered automaton back.
                    ChurnOp::Crash(sid, pid) => {
                        shards[sid.index()]
                            .core
                            .crash(pid)
                            .expect("churn plan crash failed");
                    }
                    ChurnOp::Recover(sid, pid, mode) => {
                        let shard = &mut shards[sid.index()];
                        let p = shard
                            .core
                            .recover(pid, mode)
                            .expect("churn plan recover failed");
                        shard.txs[&pid]
                            .send(ToShardActor::Restart(p))
                            .expect("actor alive");
                    }
                }
            }
            if !shards.iter().any(|s| s.core.active) && !churn.has_pending_after(tick) {
                break;
            }

            // Phase 1a — collect sends from every live shard's actors
            // (in parallel across all shards).
            let mut expected = 0usize;
            for shard in shards.iter() {
                if !shard.core.active {
                    continue;
                }
                for pid in shard.core.live() {
                    shard.txs[&pid]
                        .send(ToShardActor::Collect(shard.core.round))
                        .expect("actor alive");
                }
                expected += shard.core.live_len();
            }
            for _ in 0..expected {
                match from_rx.recv().expect("actor alive") {
                    FromShardActor::Sends(s, pid, out) => {
                        shards[s].sends.insert(pid, out);
                    }
                    FromShardActor::Received(..) => unreachable!("no delivery outstanding"),
                }
            }

            // Phase 1b — turn the collected sends into casts, one
            // flattened scatter of (shard, chunk) units (correct pids in
            // ascending order per chunk, chunks concatenating in pid
            // order — the simulator's exact cast order).
            {
                let mut ctxs: Vec<SendCtx<'_, P>> = Vec::new();
                for (s, shard) in shards.iter_mut().enumerate() {
                    if !shard.core.active {
                        continue;
                    }
                    let ClusterShard {
                        core,
                        sends,
                        send_scratch,
                        ..
                    } = shard;
                    let ranges = exec::chunk_ranges(core.live_len(), workers);
                    if send_scratch.len() < ranges.len() {
                        send_scratch.resize_with(ranges.len(), Default::default);
                    }
                    let outs: Vec<(Pid, Vec<(Recipients, Arc<P::Msg>)>)> = core
                        .live()
                        .map(|pid| (pid, sends.remove(&pid).expect("send collected")))
                        .collect();
                    ctxs.push(SendCtx {
                        shard: ShardId::new(s),
                        r: core.round,
                        assignment: &core.assignment,
                        sends: outs,
                        scratch: send_scratch.as_mut_slice(),
                        ranges,
                    });
                }
                let mut tasks = Vec::new();
                for ctx in ctxs.iter_mut() {
                    let sid = ctx.shard;
                    let r = ctx.r;
                    let assignment = ctx.assignment;
                    let mut sends = ctx.sends.as_mut_slice();
                    let mut scratch = std::mem::take(&mut ctx.scratch);
                    for range in &ctx.ranges {
                        let (chunk, rest) = std::mem::take(&mut sends).split_at_mut(range.len());
                        sends = rest;
                        let (sc, rest) = scratch.split_at_mut(1);
                        scratch = rest;
                        let sc = &mut sc[0];
                        tasks.push(move || {
                            par::cast_sends(chunk, r, assignment, measure, Some(sid), sc)
                        });
                    }
                }
                exec.scatter(tasks);
            }

            // Coordinator pass, in shard order: merge chunk buffers
            // (chunk order = pid order), adversary emissions, frame
            // tokens, route planning, counters, journal, class inboxes —
            // the simulator's own [`ShardCore::plan_tick`], so the
            // engines cannot drift.
            for (s, shard) in shards.iter_mut().enumerate() {
                if !shard.core.active {
                    continue;
                }
                let ClusterShard {
                    core,
                    casts,
                    send_scratch,
                    plan,
                    byz_sent,
                    ..
                } = shard;
                casts.clear();
                let chunks = exec::chunk_ranges(core.live_len(), workers).len();
                for scratch in send_scratch.iter_mut().take(chunks) {
                    scratch.drain_into(casts);
                }
                core.plan_tick(
                    ShardId::new(s),
                    byz_sent,
                    casts,
                    plan,
                    measure_bits,
                    |_, _, _| {},
                );
            }

            // Phases 2–3a — ship each live process its class's inbox, one
            // flattened scatter of (shard, chunk) units; each chunk owns
            // clones of its pids' senders.
            {
                let mut ctxs: Vec<RecvCtx<'_, P>> = Vec::new();
                for shard in shards.iter() {
                    if !shard.core.active {
                        continue;
                    }
                    let core = &shard.core;
                    let live: Vec<Pid> = core.live().collect();
                    let chunk_txs = exec::chunk_ranges(live.len(), workers)
                        .into_iter()
                        .map(|range| {
                            live[range]
                                .iter()
                                .map(|&pid| (pid, shard.txs[&pid].clone()))
                                .collect()
                        })
                        .collect();
                    ctxs.push(RecvCtx {
                        r: core.round,
                        plan: &shard.plan,
                        chunk_txs,
                    });
                }
                let mut tasks = Vec::new();
                for ctx in ctxs.iter_mut() {
                    let r = ctx.r;
                    let plan = ctx.plan;
                    for chunk_txs in ctx.chunk_txs.drain(..) {
                        tasks.push(move || {
                            for (pid, tx) in chunk_txs {
                                tx.send(ToShardActor::Deliver(r, Arc::clone(plan.inbox(pid))))
                                    .expect("actor alive");
                            }
                        });
                    }
                }
                exec.scatter(tasks);
            }

            // Phase 3a (Byzantine half) — the Byzantine inboxes to the
            // adversaries, in shard order on the coordinator.
            for shard in shards.iter_mut() {
                if shard.core.active {
                    shard.core.deliver_byz(&mut shard.plan);
                }
            }

            // Phase 3b — decisions, recorded at the still-current round;
            // only then do the live shards' rounds advance.
            let mut bits_by_shard = vec![0u64; shards.len()];
            for _ in 0..expected {
                match from_rx.recv().expect("actor alive") {
                    FromShardActor::Received(s, pid, decision, bits) => {
                        if let Some(v) = decision {
                            shards[s].core.record_decision(pid, v);
                        }
                        bits_by_shard[s] += bits;
                    }
                    FromShardActor::Sends(..) => unreachable!("no collect outstanding"),
                }
            }
            for (shard, &bits) in shards.iter_mut().zip(&bits_by_shard) {
                if shard.core.active {
                    shard.core.record_state_bits(bits);
                    shard.core.round = shard.core.round.next();
                }
            }

            // Phase 4 — finalize decided / horizon-hit shots and restart
            // the freed actors on the next queued shot.
            for (s, shard) in shards.iter_mut().enumerate() {
                if let Some(spawned) =
                    shard
                        .core
                        .roll_over_if_done(ShardId::new(s), tick, measure_bits)
                {
                    restart_actors(spawned, &shard.txs);
                }
            }

            tick += 1;
        }

        // Shut down actors.
        for shard in &shards {
            for tx in shard.txs.values() {
                let _ = tx.send(ToShardActor::Stop);
            }
        }
        for shard in shards.iter_mut() {
            shard.txs.clear();
        }
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }

        shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.core.report(ShardId::new(s), tick, measure_bits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_classic::{Eig, UniqueRunner};
    use homonym_core::{Domain, FnFactory};

    fn eig_factory(ell: usize, t: usize) -> impl ProtocolFactory<P = UniqueRunner<Eig<bool>>> {
        let domain = Domain::binary();
        FnFactory::new(move |id, input| {
            UniqueRunner::new(Eig::new(ell, t, domain.clone()), id, input)
        })
    }

    #[test]
    fn threads_decide_like_the_simulator() {
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let factory = eig_factory(4, 1);
        let threaded = Cluster::new(cfg, IdAssignment::unique(4), vec![true, false, true, false])
            .run(&factory, 10);
        let mut sim = homonym_sim::Simulation::builder(
            cfg,
            IdAssignment::unique(4),
            vec![true, false, true, false],
        )
        .build_with(&factory);
        let simulated = sim.run(10);
        assert!(threaded.verdict.all_hold());
        assert_eq!(threaded.outcome.decisions, simulated.outcome.decisions);
        assert_eq!(threaded.messages_sent, simulated.messages_sent);
    }

    #[test]
    fn byzantine_strategy_runs_on_coordinator() {
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let factory = eig_factory(4, 1);
        let report = Cluster::new(cfg, IdAssignment::unique(4), vec![true; 4])
            .byzantine([Pid::new(3)], Silent)
            .run(&factory, 10);
        assert!(report.verdict.all_hold());
        assert_eq!(report.outcome.decisions.len(), 3);
    }

    #[test]
    fn sharded_cluster_pipelines_shots_like_the_simulator() {
        use homonym_sim::{ShardSpec, ShardedSimulation, ShotSpec};
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let factory = eig_factory(4, 1);
        let build_spec = || {
            ShardSpec::new(cfg, IdAssignment::unique(4))
                .shot(ShotSpec::new(vec![true, false, true, false]))
                .shot(
                    ShotSpec::new(vec![false, false, true, false]).byzantine([Pid::new(3)], Silent),
                )
        };
        let mut cluster = ShardedCluster::new();
        cluster.add_shard(build_spec(), eig_factory(4, 1));
        let threaded = cluster.run(32);

        let mut sim = ShardedSimulation::new();
        sim.add_shard(build_spec(), factory);
        let simulated = sim.run(32);

        assert_eq!(threaded.len(), 1);
        assert_eq!(threaded[0].shots.len(), 2);
        assert_eq!(threaded[0].decided_shots(), 2);
        for (a, b) in threaded[0].shots.iter().zip(&simulated[0].shots) {
            assert_eq!(a.report.outcome.decisions, b.report.outcome.decisions);
            assert_eq!(a.report.rounds, b.report.rounds);
            assert_eq!(a.report.messages_sent, b.report.messages_sent);
            assert_eq!(a.started_tick, b.started_tick);
            assert_eq!(a.finished_tick, b.finished_tick);
        }
    }

    #[test]
    fn sharded_cluster_runs_many_shards_at_once() {
        use homonym_sim::{ShardSpec, ShotSpec};
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let mut cluster = ShardedCluster::new();
        for k in 0..4usize {
            let inputs: Vec<bool> = (0..4).map(|i| (i + k) % 2 == 0).collect();
            cluster.add_shard(
                ShardSpec::new(cfg, IdAssignment::unique(4)).shot(ShotSpec::new(inputs)),
                eig_factory(4, 1),
            );
        }
        let reports = cluster.run(16);
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert_eq!(report.decided_shots(), 1);
            assert!(report.shots[0].report.verdict.all_hold());
        }
    }

    #[test]
    fn pooled_sharded_cluster_matches_sequential_cluster() {
        use homonym_core::exec::Pool;
        use homonym_sim::{ShardSpec, ShotSpec};
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let build = || {
            let mut shards = Vec::new();
            for k in 0..5usize {
                let inputs: Vec<bool> = (0..4).map(|i| (i + k) % 2 == 0).collect();
                let mut spec =
                    ShardSpec::new(cfg, IdAssignment::unique(4)).shot(ShotSpec::new(inputs));
                if k % 2 == 0 {
                    spec = spec.shot(
                        ShotSpec::new(vec![false, true, false, true])
                            .byzantine([Pid::new(3)], Silent),
                    );
                }
                shards.push(spec);
            }
            shards
        };

        let mut sequential = ShardedCluster::new();
        for spec in build() {
            sequential.add_shard(spec, eig_factory(4, 1));
        }
        let mut pooled = ShardedCluster::with_executor(Pool::new(3));
        for spec in build() {
            pooled.add_shard(spec, eig_factory(4, 1));
        }

        let a = sequential.run(32);
        let b = pooled.run(32);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.shots.len(), y.shots.len());
            for (p, q) in x.shots.iter().zip(&y.shots) {
                assert_eq!(p.report.outcome.decisions, q.report.outcome.decisions);
                assert_eq!(p.report.rounds, q.report.rounds);
                assert_eq!(p.report.messages_sent, q.report.messages_sent);
                assert_eq!(p.report.messages_delivered, q.report.messages_delivered);
                assert_eq!(p.started_tick, q.started_tick);
                assert_eq!(p.finished_tick, q.finished_tick);
            }
        }
    }

    #[test]
    fn horizon_stops_before_decisions() {
        // EIG needs t + 1 = 2 rounds; a horizon of 1 must stop the cluster
        // cleanly with termination (within the horizon) unmet.
        let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
        let factory = eig_factory(4, 1);
        let report = Cluster::new(cfg, IdAssignment::unique(4), vec![true; 4]).run(&factory, 1);
        assert_eq!(report.rounds, 1);
        assert!(report.outcome.decisions.is_empty());
        assert!(!report.verdict.termination.holds());
    }
}
