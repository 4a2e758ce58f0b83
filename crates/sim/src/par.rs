//! The lock-step tick both lock-step engines ([`Simulation`] and
//! [`ShardedSimulation`]) share: casts, routes, delivery classes.
//!
//! A correct process cannot address one process, only "everyone" or
//! "every holder of identifier i", so in a round almost every recipient
//! is handed the *same set of frames*. The tick therefore never
//! materializes one wire per delivery. One agreement instance's round is:
//!
//! * **send** — the correct processes are partitioned into contiguous pid
//!   chunks; each worker runs [`Protocol::send_shared`] for its chunk and
//!   emits one [`Cast`] per emission (sender, target, payload handle)
//!   into a per-chunk buffer ([`SendScratch`]). The buffers concatenate
//!   in chunk order, so the cast list is the sequential pid-order sweep's.
//! * **route** — on the coordinating thread: the adversary's casts
//!   ([`adversary_casts`]), one frame token per cast ([`stamp_toks`]; a
//!   token is only sound within the one [`FrameInterner`] that issued
//!   it), then [`plan_routes`], which walks every *(cast, recipient)*
//!   pair in order — topology, the stateful [`DropPolicy`], the crashed
//!   set, the trace hook — and records, per cast, the set of recipients
//!   it reached. The walk is deliberately sequential:
//!   [`DropPolicy::drops`] may consume one RNG draw per queried message,
//!   so query order is observable and traces must replay byte for byte.
//! * **classes** — recipients are partitioned into *delivery classes*:
//!   two recipients share a class when exactly the same casts reached
//!   them. Only a cast that reached some but not all recipients (a drop,
//!   a cut link, a `Group` target, a Byzantine unicast, a crashed
//!   recipient) can tell two recipients apart, so a fault-free broadcast
//!   round costs O(1) per cast and ends with a single class. One
//!   [`Inbox`] is built per class (`DeliveryPlan::build_inboxes`) and,
//!   on durable engines, one journal record is staged and assembled per
//!   class and the same shared bytes appended to each member's own
//!   journal (`DeliveryPlan::journal`; a `MemJournal` keeps the handle,
//!   not a copy) — the record does not name its recipient, so neither the
//!   format nor recovery can tell.
//! * **receive** — contiguous pid chunks again; each worker runs
//!   [`Protocol::receive`] for its processes against their class's shared
//!   inbox and collects `(pid, decision, state_bits)`, merged in chunk
//!   (= pid) order afterwards.
//!
//! The per-delivery plane ([`homonym_core::Deliveries`]) is what the
//! virtual-time engine (`homonym_delay::DelayCluster`) still uses, and
//! what `tests/fabric_equivalence.rs` holds this pipeline to: equal
//! inboxes, tallies, drop-policy query order and journal bytes, per
//! recipient.
//!
//! The helpers take an optional [`ShardId`] label so the solo engine and
//! the sharded engine keep their exact historical panic messages.
//!
//! [`Simulation`]: crate::Simulation
//! [`ShardedSimulation`]: crate::ShardedSimulation

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::intern::{IdBits, Tok};
use homonym_core::journal::{DeliveryRecords, Journal};
use homonym_core::{
    ByzPower, Counting, FrameInterner, Id, IdAssignment, Inbox, Message, Pid, Protocol, Recipients,
    Round, SharedEnvelope,
};

use crate::adversary::{ByzTarget, Emission};
use crate::drops::DropPolicy;
use crate::shards::ShardId;
use crate::topology::Topology;

/// One emission on its way to its recipients: who sent it, whom it
/// addresses, and the shared payload handle — stored once, however many
/// processes the target expands to.
///
/// Engines fill and route cast lists exclusively through this module's
/// helpers; the internals are crate-private so the addressing and routing
/// rules cannot be bypassed from outside.
pub struct Cast<M> {
    pub(crate) from: Pid,
    pub(crate) src: Id,
    /// Correct processes cast to `All` or `Group` only; `One` is the
    /// Byzantine unicast.
    pub(crate) to: ByzTarget,
    pub(crate) msg: Arc<M>,
    pub(crate) bits: u64,
    /// The payload's frame token under the owning engine's
    /// [`FrameInterner`] — carried onto the envelopes of every class
    /// inbox and journal record the cast lands in.
    pub(crate) tok: Tok,
}

/// One send worker's reusable scratch: its chunk's cast buffer plus the
/// per-process duplicate-recipient bitset (alloc-free across rounds).
pub struct SendScratch<M> {
    pub(crate) casts: Vec<Cast<M>>,
    addressed: IdBits,
}

impl<M> Default for SendScratch<M> {
    fn default() -> Self {
        SendScratch {
            casts: Vec::new(),
            addressed: IdBits::new(),
        }
    }
}

impl<M> SendScratch<M> {
    /// Moves this chunk's casts onto the end of an instance's cast list
    /// (the chunk buffer keeps its allocation for the next round) —
    /// engines call this per chunk, in chunk order, to reproduce the
    /// sequential cast order.
    pub fn drain_into(&mut self, casts: &mut Vec<Cast<M>>) {
        casts.append(&mut self.casts);
    }
}

/// Turns one process's emissions into casts, enforcing the
/// one-message-per-recipient rule with the scratch bitset. Tokens are
/// stamped later, on the coordinating thread ([`stamp_toks`]).
fn push_emissions<M>(
    pid: Pid,
    out: Vec<(Recipients, Arc<M>)>,
    r: Round,
    assignment: &IdAssignment,
    measure: impl Fn(&M) -> u64,
    shard: Option<ShardId>,
    scratch: &mut SendScratch<M>,
) {
    let src = assignment.id_of(pid);
    // A target expands to distinct processes, so only a process that
    // emits more than once can address someone twice — the usual single
    // broadcast skips the per-recipient walk.
    let several = out.len() > 1;
    if several {
        scratch.addressed.clear();
    }
    for (recipients, msg) in out {
        let bits = measure(&msg);
        if several {
            for to in recipients.expand(assignment) {
                if !scratch.addressed.insert(to.index()) {
                    match shard {
                        Some(shard) => {
                            panic!("correct process {pid} of {shard} addressed {to} twice in {r}")
                        }
                        None => panic!("correct process {pid} addressed {to} twice in {r}"),
                    }
                }
            }
        }
        scratch.casts.push(Cast {
            from: pid,
            src,
            to: recipients.into(),
            msg,
            bits,
            tok: 0,
        });
    }
}

/// The send phase of one pid chunk: runs [`Protocol::send_shared`] for
/// every process of the chunk (ascending pid order) into the chunk's
/// cast buffer.
pub fn send_chunk<P: Protocol>(
    chunk: &mut [(Pid, &mut P)],
    r: Round,
    assignment: &IdAssignment,
    measure: impl Fn(&P::Msg) -> u64,
    shard: Option<ShardId>,
    scratch: &mut SendScratch<P::Msg>,
) {
    scratch.casts.clear();
    for (pid, proc_) in chunk.iter_mut() {
        let out = proc_.send_shared(r);
        push_emissions(*pid, out, r, assignment, &measure, shard, scratch);
    }
}

/// Appends the adversary's emissions to the cast list, enforcing the
/// emitting-from-Byzantine rule and (in the restricted model) the
/// one-message-per-`(from, to)` clamp via a reusable pair-indexed bitset.
///
/// An emission the clamp leaves whole stays one cast. One that repeats a
/// `(from, to)` pair is split into a unicast per recipient it may still
/// reach, in recipient order — so the *(cast, recipient)* sequence the
/// route pass walks is the one the clamp always produced.
///
/// Runs on the coordinating thread, after the send chunks merged — the
/// adversary is a single stateful strategy object, exactly like the
/// sequential engine's phase 2.
#[allow(clippy::too_many_arguments)]
pub fn adversary_casts<M>(
    emissions: Vec<Emission<M>>,
    byz: &BTreeSet<Pid>,
    assignment: &IdAssignment,
    byz_power: ByzPower,
    byz_sent: &mut IdBits,
    measure: impl Fn(&M) -> u64,
    shard: Option<ShardId>,
    casts: &mut Vec<Cast<M>>,
) {
    byz_sent.clear();
    let n = assignment.n();
    for emission in emissions {
        if !byz.contains(&emission.from) {
            match shard {
                Some(shard) => panic!(
                    "adversary of {shard} emitted from non-byzantine {}",
                    emission.from
                ),
                None => panic!("adversary emitted from non-byzantine {}", emission.from),
            }
        }
        let from = emission.from;
        let src = assignment.id_of(from);
        let bits = measure(&emission.msg);
        let cast = |to: ByzTarget| Cast {
            from,
            src,
            to,
            msg: Arc::clone(&emission.msg),
            bits,
            tok: 0,
        };
        if byz_power == ByzPower::Restricted {
            let pair = |to: Pid| from.index() * n + to.index();
            let repeats = emission
                .to
                .expand(assignment)
                .any(|to| byz_sent.contains(pair(to)));
            for to in emission.to.expand(assignment) {
                // The model forbids the second message.
                if byz_sent.insert(pair(to)) && repeats {
                    casts.push(cast(ByzTarget::One(to)));
                }
            }
            if repeats {
                continue;
            }
        }
        casts.push(cast(emission.to));
    }
}

/// Stamps every cast's frame token from the engine's one interner, on
/// the coordinating thread (per-chunk interners would be unsound: a token
/// is only meaningful within the interner that issued it).
///
/// The cast list is already in the sequential engine's order, so
/// first-seen token assignment is identical to the sequential sweep; the
/// unicasts of one split Byzantine emission share an `Arc` and resolve by
/// pointer comparison instead of an interner probe.
pub fn stamp_toks<M: Clone + Ord>(frames: &mut FrameInterner<M>, casts: &mut [Cast<M>]) {
    let mut last: Option<(*const M, Tok)> = None;
    for cast in casts {
        let ptr = Arc::as_ptr(&cast.msg);
        match last {
            Some((p, tok)) if std::ptr::eq(p, ptr) => cast.tok = tok,
            _ => {
                let tok = frames.tok_for(&cast.msg);
                cast.tok = tok;
                last = Some((ptr, tok));
            }
        }
    }
}

/// One route pass's counter deltas, reduced by the caller into its
/// engine's counters.
pub struct RouteTallies {
    /// Non-self messages handed to the network.
    pub sent: u64,
    /// Non-self messages delivered.
    pub delivered: u64,
    /// Non-self messages lost to the drop policy.
    pub dropped: u64,
    /// Exact wire bits of the sent messages (0 unless measured).
    pub bits: u64,
}

/// Marks a class that the row being refined on has not split.
const UNSPLIT: u32 = u32::MAX;

/// One delivery class while the partition is refined.
struct Class {
    /// Its member count.
    size: u32,
    /// Scratch, zero between rows: members the current row reached (and,
    /// after the last row, the cursor of the grouping pass).
    seen: u32,
    /// Scratch, [`UNSPLIT`] between rows: the class its reached members
    /// move to.
    split: u32,
}

/// One round's routing result: which recipients each cast reached, the
/// delivery classes that follow from it, and one shared inbox per class.
///
/// Engines keep one plan per instance for the lifetime of a run; every
/// buffer is reused across rounds. [`plan_routes`] fills the rows and the
/// classes, `build_inboxes` the inboxes, and the receive chunks read the
/// plan concurrently.
pub struct DeliveryPlan<M> {
    /// Per cast: the recipients it was delivered to. Kept at the
    /// high-water cast count; a round uses the first `casts.len()` rows.
    rows: Vec<IdBits>,
    /// Per recipient: its class.
    class_of: Vec<u32>,
    classes: Vec<Class>,
    /// The classes the row being refined on reached (scratch).
    touched: Vec<u32>,
    /// The recipients grouped by class (ascending within a class); class
    /// `k` is `members[starts[k]..starts[k + 1]]`.
    members: Vec<Pid>,
    starts: Vec<usize>,
    /// Per class: the inbox every member receives.
    inboxes: Vec<Arc<Inbox<M>>>,
    /// What a class nobody reads from gets instead of a built inbox.
    empty: Arc<Inbox<M>>,
}

impl<M: Message> Default for DeliveryPlan<M> {
    fn default() -> Self {
        DeliveryPlan {
            rows: Vec::new(),
            class_of: Vec::new(),
            classes: Vec::new(),
            touched: Vec::new(),
            members: Vec::new(),
            starts: Vec::new(),
            inboxes: Vec::new(),
            empty: Arc::new(Inbox::empty()),
        }
    }
}

impl<M: Message> DeliveryPlan<M> {
    /// An empty plan.
    pub fn new() -> Self {
        DeliveryPlan::default()
    }

    /// The number of delivery classes this round.
    fn classes(&self) -> usize {
        self.classes.len()
    }

    /// The class `pid` belongs to this round.
    fn class_of(&self, pid: Pid) -> usize {
        self.class_of[pid.index()] as usize
    }

    /// The members of class `k`, ascending.
    fn members(&self, k: usize) -> &[Pid] {
        &self.members[self.starts[k]..self.starts[k + 1]]
    }

    /// The inbox `pid` receives this round, shared with its whole class.
    pub fn inbox(&self, pid: Pid) -> &Arc<Inbox<M>> {
        &self.inboxes[self.class_of(pid)]
    }

    /// The casts delivered to class `k`, in cast (= delivery) order.
    fn delivered<'a>(
        &'a self,
        casts: &'a [Cast<M>],
        k: usize,
    ) -> impl Iterator<Item = &'a Cast<M>> + 'a {
        let member = self.members(k)[0].index();
        casts
            .iter()
            .zip(&self.rows)
            .filter(move |(_, row)| row.contains(member))
            .map(|(cast, _)| cast)
    }

    /// Partitions recipients `0..n` into classes of identical
    /// delivered-cast sets, by refining one all-inclusive class on every
    /// one of the round's `casts` rows that reached some but not all of
    /// them.
    fn partition(&mut self, n: usize, casts: usize) {
        let fresh = |size| Class {
            size,
            seen: 0,
            split: UNSPLIT,
        };
        self.class_of.clear();
        self.class_of.resize(n, 0);
        self.classes.clear();
        self.classes.push(fresh(n as u32));
        for row in &self.rows[..casts] {
            if row.is_empty() || row.len() == n {
                continue;
            }
            for p in row.iter() {
                let class = self.class_of[p];
                if self.classes[class as usize].seen == 0 {
                    self.touched.push(class);
                }
                self.classes[class as usize].seen += 1;
            }
            for p in row.iter() {
                let class = self.class_of[p] as usize;
                if self.classes[class].seen == self.classes[class].size {
                    continue; // the row reached the whole class
                }
                if self.classes[class].split == UNSPLIT {
                    self.classes[class].split = self.classes.len() as u32;
                    self.classes.push(fresh(0));
                }
                let moved = self.classes[class].split;
                self.class_of[p] = moved;
                self.classes[moved as usize].size += 1;
            }
            for class in self.touched.drain(..) {
                let class = &mut self.classes[class as usize];
                if class.split != UNSPLIT {
                    class.size -= class.seen;
                    class.split = UNSPLIT;
                }
                class.seen = 0;
            }
        }
        // Group the recipients by class: a counting sort, with `seen` as
        // the per-class cursor.
        self.starts.clear();
        let mut start = 0;
        for class in &self.classes {
            self.starts.push(start);
            start += class.size as usize;
        }
        self.starts.push(start);
        self.members.clear();
        self.members.resize(n, Pid::new(0));
        for (p, &class) in self.class_of.iter().enumerate() {
            let class = class as usize;
            self.members[self.starts[class] + self.classes[class].seen as usize] = Pid::new(p);
            self.classes[class].seen += 1;
        }
    }

    /// Builds one [`Inbox`] per class that has a member `wanted` reads
    /// for (a live or a Byzantine process), from the casts delivered to
    /// the class in cast order — exactly the envelopes, in exactly the
    /// order, every member's bucket of the per-delivery plane would hold.
    pub(crate) fn build_inboxes(
        &mut self,
        casts: &[Cast<M>],
        counting: Counting,
        wanted: impl Fn(Pid) -> bool,
    ) {
        self.inboxes.clear();
        for k in 0..self.classes() {
            let inbox = if self.members(k).iter().any(|&pid| wanted(pid)) {
                let envelopes = self
                    .delivered(casts, k)
                    .map(|cast| SharedEnvelope::framed(cast.src, Arc::clone(&cast.msg), cast.tok));
                Arc::new(Inbox::collect_shared(envelopes, counting))
            } else {
                Arc::clone(&self.empty)
            };
            self.inboxes.push(inbox);
        }
    }

    /// Journals the round: one [`Deliveries`
    /// entry](homonym_core::journal::JournalEntry::Deliveries) per class
    /// with a `live` journalled member, staged and assembled once into one
    /// shared allocation and appended to each such member's own journal
    /// with [`Journal::append_shared`] (even when the class
    /// received nothing — sending mutates state, so every executed round
    /// must replay). The caller syncs.
    ///
    /// `stage` is [`DeliveryRecords::stage`] at the engine's message
    /// type; the solo engine checks that bound where durability is
    /// switched on, not on its hot path.
    pub(crate) fn journal(
        &self,
        casts: &[Cast<M>],
        r: Round,
        records: &mut DeliveryRecords,
        stage: impl Fn(&mut DeliveryRecords, usize, Id, Tok, &M),
        journals: &mut BTreeMap<Pid, Box<dyn Journal + Send>>,
        live: impl Fn(Pid) -> bool,
    ) {
        records.begin(self.classes());
        for k in 0..self.classes() {
            let members = self.members(k);
            let journalled = |pid: &Pid| live(*pid) && journals.contains_key(pid);
            if !members.iter().any(journalled) {
                continue;
            }
            for cast in self.delivered(casts, k) {
                stage(records, k, cast.src, cast.tok, &cast.msg);
            }
            let record: Arc<[u8]> = Arc::from(records.record(r, k));
            for pid in members.iter().filter(|pid| live(**pid)) {
                if let Some(journal) = journals.get_mut(pid) {
                    journal
                        .append_shared(&record)
                        .expect("journal append failed");
                }
            }
        }
    }

    /// The Byzantine processes' inboxes, owned (the adversary interface
    /// takes them by map), and the end of the round for the plan: the
    /// class inboxes are released, so no payload handle outlives its tick
    /// here.
    pub(crate) fn take_byz_inboxes(&mut self, byz: &BTreeSet<Pid>) -> BTreeMap<Pid, Inbox<M>> {
        let inboxes = byz
            .iter()
            .map(|&pid| (pid, Inbox::clone(self.inbox(pid))))
            .collect();
        self.inboxes.clear();
        inboxes
    }
}

/// The route phase: walks every *(cast, recipient)* pair **in order** on
/// the coordinating thread — casts in list order, each target's
/// recipients ascending — applying topology, the (stateful) drop policy,
/// and the set of crashed (`down`) processes, and writes the plan the
/// receive chunks will read concurrently: per cast the recipients it
/// reached, and from those the delivery classes. `record` is called for
/// every *attempted* delivery (topology-connected pair) in routing order —
/// the trace hook.
///
/// This pass is deliberately sequential: [`DropPolicy::drops`] may
/// consume one RNG draw per queried message, so query order is
/// observable and must match the sequential engine exactly. For the same
/// reason the policy is queried even for messages addressed to a crashed
/// process *before* the crash filter forces the drop — the policy's RNG
/// stream stays in lockstep with the uninterrupted run, which is what
/// makes zero-gap crash/recover byte-identical to it.
#[allow(clippy::too_many_arguments)]
pub fn plan_routes<M: Message>(
    casts: &[Cast<M>],
    r: Round,
    assignment: &IdAssignment,
    topology: &Topology,
    down: Option<&BTreeSet<Pid>>,
    drops: &mut dyn DropPolicy,
    plan: &mut DeliveryPlan<M>,
    mut record: impl FnMut(&Cast<M>, Pid, bool),
) -> RouteTallies {
    if plan.rows.len() < casts.len() {
        plan.rows.resize_with(casts.len(), IdBits::new);
    }
    let mut tallies = RouteTallies {
        sent: 0,
        delivered: 0,
        dropped: 0,
        bits: 0,
    };
    for (cast, row) in casts.iter().zip(&mut plan.rows) {
        row.clear();
        for to in cast.to.expand(assignment) {
            if !topology.connected(cast.from, to) {
                continue; // no channel: the message is never sent
            }
            let is_self = cast.from == to;
            if !is_self {
                tallies.sent += 1;
                tallies.bits += cast.bits;
            }
            let downed = down.is_some_and(|d| d.contains(&to) || d.contains(&cast.from));
            let dropped = !is_self && (drops.drops(r, cast.from, to) || downed);
            record(cast, to, dropped);
            if dropped {
                tallies.dropped += 1;
                continue;
            }
            if !is_self {
                tallies.delivered += 1;
            }
            row.insert(to.index());
        }
    }
    plan.partition(assignment.n(), casts.len());
    tallies
}

/// The receive phase of one pid chunk: runs [`Protocol::receive`] for
/// every process against its class's shared inbox, and collects
/// `(pid, decision, state_bits)` in pid order for the coordinating
/// thread to merge — decisions are *recorded* there, in global pid order,
/// so irrevocability panics keep their sequential message and position.
pub fn receive_chunk<P: Protocol>(
    procs: &mut [(Pid, &mut P)],
    r: Round,
    plan: &DeliveryPlan<P::Msg>,
    out: &mut Vec<(Pid, Option<P::Value>, u64)>,
) {
    out.clear();
    for (pid, proc_) in procs.iter_mut() {
        proc_.receive(r, plan.inbox(*pid));
        out.push((*pid, proc_.decision(), proc_.state_bits()));
    }
}
