//! Byzantine adversary interface and strategy library.
//!
//! A Byzantine process "may choose to send arbitrary messages (or no
//! message) to each other process" — in particular it may target individual
//! processes (unlike correct processes, which can only address identifier
//! groups), and in the unrestricted model it may send many messages to the
//! same recipient in one round. The [`Adversary`] trait exposes exactly
//! that power; the engine clamps emissions to one per recipient when the
//! system is configured with restricted Byzantine processes, so the *model*
//! enforces the restriction rather than trusting strategy code.
//!
//! Strategies included:
//!
//! * [`Silent`] — sends nothing (the adversary of the paper's α and β
//!   executions);
//! * [`Mimic`] — runs the real protocol with chosen inputs (tests that
//!   merely-wrong inputs cannot break anything);
//! * [`CrashAt`] — behaves like an inner strategy, then goes silent;
//! * [`Equivocator`] — runs two protocol instances with different inputs
//!   and shows each half of the system a different persona;
//! * [`CloneSpammer`] — runs several instances and sends *all* their
//!   messages to everyone, impersonating a whole stack of homonyms
//!   (the multi-send power behind the Figure 1 and Figure 4 bounds);
//! * [`ReplayFuzzer`] — replays mutilated copies of previously received
//!   messages at random targets (seeded);
//! * [`Scripted`] — an explicit per-round emission list;
//! * [`TraceReplayer`] — replays a recorded execution's per-identifier
//!   deliveries (the Figure 4 construction).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::{
    Id, IdAssignment, Inbox, Message, Pid, Protocol, ProtocolFactory, Recipients, Round,
    SystemConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;

/// Whom a Byzantine emission is addressed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ByzTarget {
    /// A single process — Byzantine senders are not bound by
    /// identifier-only addressing.
    One(Pid),
    /// Every process.
    All,
    /// Every holder of an identifier.
    Group(Id),
}

impl ByzTarget {
    /// The processes addressed under `assignment`, in ascending process
    /// order, without allocating.
    pub fn expand(self, assignment: &IdAssignment) -> impl Iterator<Item = Pid> + '_ {
        let (one, all, group) = match self {
            ByzTarget::One(p) => (Some(p), None, None),
            ByzTarget::All => (None, Some(Pid::all(assignment.n())), None),
            ByzTarget::Group(id) => (None, None, Some(assignment.group_iter(id))),
        };
        one.into_iter()
            .chain(all.into_iter().flatten())
            .chain(group.into_iter().flatten())
    }
}

/// A correct process's addressing is the identifier-bound subset of a
/// Byzantine one's — the tick routes both as one target type.
impl From<Recipients> for ByzTarget {
    fn from(recipients: Recipients) -> Self {
        match recipients {
            Recipients::All => ByzTarget::All,
            Recipients::Group(id) => ByzTarget::Group(id),
        }
    }
}

/// One Byzantine message: sent by `from` (authenticated with `from`'s
/// identifier — forging is impossible in the model) to `to`.
///
/// The payload rides the delivery fabric: it is wrapped in an [`Arc`]
/// exactly once (at construction) and shared from there — by every
/// recipient the target expands to, by the trace, and by whichever replay
/// pool the strategy drew it from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emission<M> {
    /// The Byzantine process sending.
    pub from: Pid,
    /// The target.
    pub to: ByzTarget,
    /// The shared payload.
    pub msg: Arc<M>,
}

impl<M> Emission<M> {
    /// An emission carrying an owned payload (wrapped once, never cloned).
    pub fn new(from: Pid, to: ByzTarget, msg: M) -> Self {
        Emission {
            from,
            to,
            msg: Arc::new(msg),
        }
    }

    /// An emission sharing an already-wrapped payload.
    pub fn shared(from: Pid, to: ByzTarget, msg: Arc<M>) -> Self {
        Emission { from, to, msg }
    }
}

/// Static per-round context handed to adversaries.
#[derive(Clone, Copy, Debug)]
pub struct AdvCtx<'a> {
    /// The round about to execute.
    pub round: Round,
    /// System parameters.
    pub cfg: &'a SystemConfig,
    /// The identifier assignment (the adversary knows everything).
    pub assignment: &'a IdAssignment,
    /// The Byzantine processes this adversary controls.
    pub byz: &'a BTreeSet<Pid>,
}

/// A Byzantine strategy controlling all faulty processes of a run.
///
/// Per round the engine first calls [`send`](Adversary::send) (while
/// collecting correct processes' messages), then — after delivery — calls
/// [`receive`](Adversary::receive) with what each Byzantine process
/// received, enabling adaptive strategies. Strategies must be deterministic
/// given their construction parameters (seed included).
pub trait Adversary<M: Message> {
    /// The messages the Byzantine processes send this round.
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>>;

    /// What each Byzantine process received this round.
    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        let _ = (round, inboxes);
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "adversary"
    }
}

impl<M: Message> Adversary<M> for Box<dyn Adversary<M>> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        (**self).send(ctx)
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        (**self).receive(round, inboxes);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<M: Message> Adversary<M> for Box<dyn Adversary<M> + Send> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        (**self).send(ctx)
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        (**self).receive(round, inboxes);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Sends nothing, ever.
#[derive(Clone, Copy, Debug, Default)]
pub struct Silent;

impl<M: Message> Adversary<M> for Silent {
    fn send(&mut self, _ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "silent"
    }
}

fn protocol_emissions<M: Message>(from: Pid, out: Vec<(Recipients, M)>) -> Vec<Emission<M>> {
    out.into_iter()
        .map(|(r, msg)| {
            Emission::new(
                from,
                match r {
                    Recipients::All => ByzTarget::All,
                    Recipients::Group(i) => ByzTarget::Group(i),
                },
                msg,
            )
        })
        .collect()
}

/// Runs the real protocol with chosen inputs on each Byzantine process.
///
/// A `Mimic` adversary is indistinguishable from extra correct processes
/// with adversarial *inputs* — the weakest Byzantine behaviour, and a
/// useful sanity floor for the harness.
#[derive(Debug)]
pub struct Mimic<P: Protocol> {
    instances: BTreeMap<Pid, P>,
}

impl<P: Protocol> Mimic<P> {
    /// Creates instances for each Byzantine process with the given inputs.
    pub fn new<F>(factory: &F, assignment: &IdAssignment, inputs: &[(Pid, P::Value)]) -> Self
    where
        F: ProtocolFactory<P = P>,
    {
        Mimic {
            instances: inputs
                .iter()
                .map(|(pid, v)| (*pid, factory.spawn(assignment.id_of(*pid), v.clone())))
                .collect(),
        }
    }
}

impl<P: Protocol> Adversary<P::Msg> for Mimic<P> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<P::Msg>> {
        self.instances
            .iter_mut()
            .flat_map(|(&pid, p)| protocol_emissions(pid, p.send(ctx.round)))
            .collect()
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<P::Msg>>) {
        for (pid, p) in &mut self.instances {
            if let Some(inbox) = inboxes.get(pid) {
                p.receive(round, inbox);
            }
        }
    }

    fn name(&self) -> &str {
        "mimic"
    }
}

/// Behaves like `inner` until the crash round, then goes silent forever.
#[derive(Debug)]
pub struct CrashAt<A> {
    at: Round,
    inner: A,
}

impl<A> CrashAt<A> {
    /// Crashes (silences) the inner strategy from round `at` onward.
    pub fn new(at: Round, inner: A) -> Self {
        CrashAt { at, inner }
    }
}

impl<M: Message, A: Adversary<M>> Adversary<M> for CrashAt<A> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        if ctx.round >= self.at {
            Vec::new()
        } else {
            self.inner.send(ctx)
        }
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        if round < self.at {
            self.inner.receive(round, inboxes);
        }
    }

    fn name(&self) -> &str {
        "crash"
    }
}

/// Runs two protocol personas per Byzantine process — with inputs `a` and
/// `b` — and shows persona `a` to the processes in `split` and persona `b`
/// to everyone else.
///
/// Against homonym protocols this simulates the confusing situation the
/// paper highlights: two *correct-looking* behaviours behind one
/// identifier.
#[derive(Debug)]
pub struct Equivocator<P: Protocol> {
    personas: BTreeMap<Pid, (P, P)>,
    split: BTreeSet<Pid>,
    n: usize,
}

impl<P: Protocol> Equivocator<P> {
    /// Creates two personas per Byzantine process with inputs `input_a` and
    /// `input_b`; processes in `split` see persona A.
    pub fn new<F>(
        factory: &F,
        assignment: &IdAssignment,
        byz: &BTreeSet<Pid>,
        input_a: P::Value,
        input_b: P::Value,
        split: BTreeSet<Pid>,
    ) -> Self
    where
        F: ProtocolFactory<P = P>,
    {
        Equivocator {
            personas: byz
                .iter()
                .map(|&pid| {
                    let id = assignment.id_of(pid);
                    (
                        pid,
                        (
                            factory.spawn(id, input_a.clone()),
                            factory.spawn(id, input_b.clone()),
                        ),
                    )
                })
                .collect(),
            split,
            n: assignment.n(),
        }
    }

    fn expand(
        &self,
        assignment: &IdAssignment,
        from: Pid,
        out: Vec<(Recipients, P::Msg)>,
        to_split: bool,
    ) -> Vec<Emission<P::Msg>> {
        let mut emissions = Vec::new();
        for (recipients, msg) in out {
            let msg = Arc::new(msg);
            for to in Pid::all(self.n) {
                let addressed = match recipients {
                    Recipients::All => true,
                    Recipients::Group(i) => assignment.id_of(to) == i,
                };
                if addressed && self.split.contains(&to) == to_split {
                    emissions.push(Emission::shared(from, ByzTarget::One(to), Arc::clone(&msg)));
                }
            }
        }
        emissions
    }
}

impl<P: Protocol> Adversary<P::Msg> for Equivocator<P> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<P::Msg>> {
        let mut emissions = Vec::new();
        let pids: Vec<Pid> = self.personas.keys().copied().collect();
        for pid in pids {
            let (a, b) = self.personas.get_mut(&pid).expect("persona exists");
            let out_a = a.send(ctx.round);
            let out_b = b.send(ctx.round);
            emissions.extend(self.expand(ctx.assignment, pid, out_a, true));
            emissions.extend(self.expand(ctx.assignment, pid, out_b, false));
        }
        emissions
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<P::Msg>>) {
        for (pid, (a, b)) in &mut self.personas {
            if let Some(inbox) = inboxes.get(pid) {
                a.receive(round, inbox);
                b.receive(round, inbox);
            }
        }
    }

    fn name(&self) -> &str {
        "equivocator"
    }
}

/// Runs several protocol personas per Byzantine process and sends **all**
/// their messages to **everyone** — one faulty process impersonating an
/// entire stack of homonyms.
///
/// This is exactly the multi-send power the paper's lower bounds exploit
/// ("a Byzantine process can send multiple messages to the same recipient
/// in a round"); under `ByzPower::Restricted` the engine clamps it back to
/// one message per recipient, which is what makes the `ℓ > t` algorithms
/// possible.
#[derive(Debug)]
pub struct CloneSpammer<P: Protocol> {
    clones: BTreeMap<Pid, Vec<P>>,
}

impl<P: Protocol> CloneSpammer<P> {
    /// Creates one persona per input in `inputs` for each Byzantine
    /// process.
    pub fn new<F>(
        factory: &F,
        assignment: &IdAssignment,
        byz: &BTreeSet<Pid>,
        inputs: &[P::Value],
    ) -> Self
    where
        F: ProtocolFactory<P = P>,
    {
        CloneSpammer {
            clones: byz
                .iter()
                .map(|&pid| {
                    let id = assignment.id_of(pid);
                    (
                        pid,
                        inputs
                            .iter()
                            .map(|v| factory.spawn(id, v.clone()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }
}

impl<P: Protocol> Adversary<P::Msg> for CloneSpammer<P> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<P::Msg>> {
        let mut emissions = Vec::new();
        for (&pid, clones) in &mut self.clones {
            for clone in clones {
                emissions.extend(protocol_emissions(pid, clone.send(ctx.round)));
            }
        }
        emissions
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<P::Msg>>) {
        for (pid, clones) in &mut self.clones {
            if let Some(inbox) = inboxes.get(pid) {
                for clone in clones {
                    clone.receive(round, inbox);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "clone-spammer"
    }
}

/// Replays previously received messages at random targets — a generic,
/// protocol-agnostic fuzzer. Messages land with stale rounds and wrong
/// contexts, probing every handler's tolerance for out-of-protocol traffic.
#[derive(Debug)]
pub struct ReplayFuzzer<M> {
    pool: Vec<Arc<M>>,
    rng: StdRng,
    burst: usize,
    pool_cap: usize,
}

impl<M: Message> ReplayFuzzer<M> {
    /// Creates a fuzzer sending up to `burst` replayed messages per
    /// Byzantine process per round, with the given seed.
    pub fn new(seed: u64, burst: usize) -> Self {
        ReplayFuzzer {
            pool: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            burst,
            pool_cap: 4096,
        }
    }
}

impl<M: Message> Adversary<M> for ReplayFuzzer<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        if self.pool.is_empty() {
            return Vec::new();
        }
        let mut emissions = Vec::new();
        for &from in ctx.byz {
            for _ in 0..self.burst {
                let msg = Arc::clone(&self.pool[self.rng.gen_range(0..self.pool.len())]);
                let to = Pid::new(self.rng.gen_range(0..ctx.assignment.n()));
                emissions.push(Emission::shared(from, ByzTarget::One(to), msg));
            }
        }
        emissions
    }

    fn receive(&mut self, _round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        for inbox in inboxes.values() {
            for (_, msg, _) in inbox.iter_shared() {
                if self.pool.len() < self.pool_cap {
                    self.pool.push(Arc::clone(msg));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "replay-fuzzer"
    }
}

/// Emits an explicit per-round script. Rounds without entries are silent.
#[derive(Clone, Debug, Default)]
pub struct Scripted<M> {
    by_round: BTreeMap<Round, Vec<Emission<M>>>,
}

impl<M: Message> Scripted<M> {
    /// Creates a scripted adversary from `(round, emission)` pairs.
    pub fn new(entries: impl IntoIterator<Item = (Round, Emission<M>)>) -> Self {
        let mut by_round: BTreeMap<Round, Vec<Emission<M>>> = BTreeMap::new();
        for (r, e) in entries {
            by_round.entry(r).or_default().push(e);
        }
        Scripted { by_round }
    }
}

impl<M: Message> Adversary<M> for Scripted<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        self.by_round.get(&ctx.round).cloned().unwrap_or_default()
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

/// Replays a recorded execution: each Byzantine process `b` sends to each
/// mapped target `to` exactly the messages that `map[to]` received from
/// `b`'s identifier in the reference trace, round for round.
///
/// This is the engine of the Figure 4 partition construction: `Bᵢ` sends
/// "to each correct process with input 0 the same messages as that process
/// receives in α". Replaying a whole homonym *stack* through one process
/// requires multi-send — under `ByzPower::Restricted` the engine clamp
/// will truncate it, which is precisely why the bound changes there.
#[derive(Clone, Debug)]
pub struct TraceReplayer<M> {
    trace: Trace<M>,
    /// Target process in this run → process whose reception is replayed
    /// from the reference trace.
    map: BTreeMap<Pid, Pid>,
}

impl<M: Message> TraceReplayer<M> {
    /// Creates a replayer over `trace` with the given target mapping.
    pub fn new(trace: Trace<M>, map: BTreeMap<Pid, Pid>) -> Self {
        TraceReplayer { trace, map }
    }
}

impl<M: Message> Adversary<M> for TraceReplayer<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        let mut emissions = Vec::new();
        for &from in ctx.byz {
            let id = ctx.assignment.id_of(from);
            for (&to, &ref_pid) in &self.map {
                for msg in self.trace.received_arcs_from_id(ref_pid, id, ctx.round) {
                    emissions.push(Emission::shared(from, ByzTarget::One(to), msg));
                }
            }
        }
        emissions
    }

    fn name(&self) -> &str {
        "trace-replayer"
    }
}

/// Replays every message its Byzantine processes receive, `delay` rounds
/// later, back at every process. Stale round-tagged messages probe each
/// handler's freshness checks (the Figure 6 validity filter, the phase
/// tags of Figures 5/7, the level structure of EIG).
#[derive(Clone, Debug)]
pub struct StaleReplayer<M> {
    delay: u64,
    heard: BTreeMap<Round, Vec<Arc<M>>>,
    cap_per_round: usize,
}

impl<M: Message> StaleReplayer<M> {
    /// Creates a replayer echoing received messages `delay ≥ 1` rounds
    /// late, at most `cap_per_round` per Byzantine process per round.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` (same-round replay would be rushing).
    pub fn new(delay: u64, cap_per_round: usize) -> Self {
        assert!(delay >= 1, "same-round replay would require rushing");
        StaleReplayer {
            delay,
            heard: BTreeMap::new(),
            cap_per_round,
        }
    }
}

impl<M: Message> Adversary<M> for StaleReplayer<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        let Some(source_round) = ctx.round.index().checked_sub(self.delay) else {
            return Vec::new();
        };
        let msgs = self
            .heard
            .remove(&Round::new(source_round))
            .unwrap_or_default();
        let mut emissions = Vec::new();
        for &from in ctx.byz {
            for msg in msgs.iter().take(self.cap_per_round) {
                // Target only non-Byzantine processes so the replayer does
                // not feed on its own echoes.
                for to in Pid::all(ctx.assignment.n()).filter(|p| !ctx.byz.contains(p)) {
                    emissions.push(Emission::shared(from, ByzTarget::One(to), Arc::clone(msg)));
                }
            }
        }
        emissions
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        let bucket = self.heard.entry(round).or_default();
        for inbox in inboxes.values() {
            for (_, msg, _) in inbox.iter_shared() {
                bucket.push(Arc::clone(msg));
            }
        }
    }

    fn name(&self) -> &str {
        "stale-replayer"
    }
}

/// Floods each recipient with `copies` duplicates of the last message the
/// Byzantine process received — a pure multiplicity attack. Against
/// innumerate processes the copies collapse; against numerate ones the
/// unforgeability margins (`α ≤ correct + fᵢ`) must absorb them; under
/// `ByzPower::Restricted` the engine clamps all but one.
#[derive(Clone, Debug)]
pub struct Flooder<M> {
    copies: usize,
    last: Option<Arc<M>>,
}

impl<M: Message> Flooder<M> {
    /// Creates a flooder sending `copies` duplicates per recipient per
    /// round.
    pub fn new(copies: usize) -> Self {
        Flooder { copies, last: None }
    }
}

impl<M: Message> Adversary<M> for Flooder<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        let Some(msg) = &self.last else {
            return Vec::new();
        };
        let mut emissions = Vec::new();
        for &from in ctx.byz {
            for _ in 0..self.copies {
                emissions.push(Emission::shared(from, ByzTarget::All, Arc::clone(msg)));
            }
        }
        emissions
    }

    fn receive(&mut self, _round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        for inbox in inboxes.values() {
            if let Some((_, msg, _)) = inbox.iter_shared().last() {
                self.last = Some(Arc::clone(msg));
            }
        }
    }

    fn name(&self) -> &str {
        "flooder"
    }
}

/// Runs several strategies at once, concatenating their emissions.
#[derive(Default)]
pub struct Compose<M> {
    parts: Vec<Box<dyn Adversary<M>>>,
}

impl<M: Message> Compose<M> {
    /// Creates a composite of the given strategies.
    pub fn new(parts: Vec<Box<dyn Adversary<M>>>) -> Self {
        Compose { parts }
    }
}

impl<M: Message> Adversary<M> for Compose<M> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        self.parts.iter_mut().flat_map(|p| p.send(ctx)).collect()
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        for p in &mut self.parts {
            p.receive(round, inboxes);
        }
    }

    fn name(&self) -> &str {
        "composite"
    }
}

impl<M> std::fmt::Debug for Compose<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Compose({} parts)", self.parts.len())
    }
}
