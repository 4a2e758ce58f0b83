//! The hand-driven tick: the same public calls `Simulation::step` makes
//! for a lock-step round, in the same order and over the same data flow
//! (wire list, frame tokens, route plan, delivery plane), each under one
//! span — so every layer is measured from outside, by timing calls into
//! its public functions, and nothing inside the engines is instrumented.
//!
//! `sim.unattributed_ns_per_tick` is the engine's tick minus these spans:
//! what the engine does besides (chunking for the executor, merging
//! decisions, the adversary hooks) and any drift between this model and
//! the engine. It says how faithful a model this file still is. The
//! oracle in `solo.rs` checks that a hand-driven run reaches the engine's
//! decisions, rounds, message count, journal bytes and peak state exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use homonym_core::codec::{self, WireDecode, WireEncode};
use homonym_core::intern::Tok;
use homonym_core::journal::{self, Journal, MemJournal};
use homonym_core::{
    Counting, Deliveries, FrameInterner, Id, IdAssignment, IdBits, Pid, Protocol, ProtocolFactory,
    Round, SharedEnvelope,
};
use homonym_sim::{DropPolicy, NoDrops, Topology};

use crate::span::{self, Tracer, NO_PARENT};

/// Exact counts taken at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub ticks: u64,
    /// `send_shared` emissions (distinct frames).
    pub emissions: u64,
    /// Emissions whose bundle is the one that process sent last.
    pub reused: u64,
    /// Frame bytes over all emissions.
    pub frame_bytes: u64,
    /// Envelopes pushed onto the delivery plane (self-deliveries too).
    pub deliveries: u64,
    /// Non-self deliveries — the engines' `messages_sent`.
    pub messages_sent: u64,
    /// Frame bits charged once per non-self delivery.
    pub bits_sent: u64,
    /// Payload bytes of the journal records appended, and the frames
    /// encoded into them.
    pub record_bytes: u64,
    pub record_frames: u64,
    pub recovers: u64,
    pub recovered_bytes: u64,
    pub replayed_rounds: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.ticks += o.ticks;
        self.emissions += o.emissions;
        self.reused += o.reused;
        self.frame_bytes += o.frame_bytes;
        self.deliveries += o.deliveries;
        self.messages_sent += o.messages_sent;
        self.bits_sent += o.bits_sent;
        self.record_bytes += o.record_bytes;
        self.record_frames += o.record_frames;
        self.recovers += o.recovers;
        self.recovered_bytes += o.recovered_bytes;
        self.replayed_rounds += o.replayed_rounds;
    }
}

/// One routed message — the engine's wire list, rebuilt here from public
/// types.
struct Wire<M> {
    from: Pid,
    src: Id,
    to: Pid,
    msg: Arc<M>,
    bits: u64,
    tok: Tok,
}

/// One instance driven by hand over the layers' public functions.
pub struct HandRun<P: Protocol> {
    counting: Counting,
    assignment: IdAssignment,
    inputs: Vec<P::Value>,
    procs: BTreeMap<Pid, P>,
    topology: Topology,
    drops: Box<dyn DropPolicy>,
    deliveries: Deliveries<P::Msg>,
    frames: FrameInterner<P::Msg>,
    journals: Option<BTreeMap<Pid, Box<dyn Journal + Send>>>,
    staged: Vec<Vec<(Id, Arc<P::Msg>)>>,
    wires: Vec<Wire<P::Msg>>,
    plan: Vec<bool>,
    addressed: IdBits,
    last_sent: Vec<Option<Arc<P::Msg>>>,
    same_bundle: fn(&P::Msg, &P::Msg) -> bool,
    round: Round,
    pub decisions: BTreeMap<Pid, (P::Value, Round)>,
    pub peak_state_bits: u64,
    pub counters: Counters,
}

impl<P> HandRun<P>
where
    P: Protocol,
    P::Msg: WireEncode + WireDecode,
{
    /// Spawns every process (no Byzantine ones, complete topology, no
    /// drops) and, if `durable`, gives each a `MemJournal` — what
    /// `Simulation::builder(..).durable(0)` sets up.
    pub fn new<F: ProtocolFactory<P = P>>(
        factory: &F,
        counting: Counting,
        assignment: IdAssignment,
        inputs: Vec<P::Value>,
        durable: bool,
        same_bundle: fn(&P::Msg, &P::Msg) -> bool,
    ) -> Self {
        let n = assignment.n();
        let procs: BTreeMap<Pid, P> = assignment
            .iter()
            .map(|(pid, id)| (pid, factory.spawn(id, inputs[pid.index()].clone())))
            .collect();
        let journals = durable.then(|| {
            procs
                .keys()
                .map(|&pid| (pid, Box::new(MemJournal::new()) as Box<dyn Journal + Send>))
                .collect()
        });
        HandRun {
            counting,
            assignment,
            inputs,
            procs,
            topology: Topology::complete(n),
            drops: Box::new(NoDrops),
            deliveries: Deliveries::new(n),
            frames: FrameInterner::new(),
            journals,
            staged: (0..n).map(|_| Vec::new()).collect(),
            wires: Vec::new(),
            plan: Vec::new(),
            addressed: IdBits::new(),
            last_sent: vec![None; n],
            same_bundle,
            round: Round::ZERO,
            decisions: BTreeMap::new(),
            peak_state_bits: 0,
            counters: Counters::default(),
        }
    }

    pub fn round(&self) -> Round {
        self.round
    }

    pub fn all_decided(&self) -> bool {
        self.procs.keys().all(|p| self.decisions.contains_key(p))
    }

    pub fn processes(&self) -> impl Iterator<Item = &P> {
        self.procs.values()
    }

    /// One lock-step round, phase by phase as `Simulation::step` runs it:
    /// send into the wire list, stamp frame tokens, plan the routes,
    /// deliver, receive, journal.
    pub fn tick(&mut self, tr: &mut Tracer) {
        let r = self.round;
        let c = &mut self.counters;
        let tick = tr.open(span::TICK, NO_PARENT);

        self.wires.clear();
        for (&pid, proc_) in self.procs.iter_mut() {
            let s = tr.open(span::SEND, tick);
            let out = proc_.send_shared(r);
            tr.close(s);
            let src = self.assignment.id_of(pid);
            self.addressed.clear();
            for (recipients, msg) in out {
                let s = tr.open(span::FRAME_BITS, tick);
                let bits = codec::frame_bits(&*msg);
                tr.close(s);
                c.emissions += 1;
                c.frame_bytes += bits / 8;
                let last = &mut self.last_sent[pid.index()];
                if last
                    .as_deref()
                    .is_some_and(|prev| (self.same_bundle)(prev, &msg))
                {
                    c.reused += 1;
                }
                let s = tr.open(span::ROUTE, tick);
                for to in recipients.expand(&self.assignment) {
                    assert!(
                        self.addressed.insert(to.index()),
                        "{pid} addressed {to} twice in {r}"
                    );
                    self.wires.push(Wire {
                        from: pid,
                        src,
                        to,
                        msg: Arc::clone(&msg),
                        bits,
                        tok: 0,
                    });
                }
                tr.close(s);
                *last = Some(msg);
            }
        }

        // Consecutive wires of one emission share the `Arc`: one interner
        // probe per emission, a pointer comparison per wire.
        let s = tr.open(span::ROUTE, tick);
        let mut stamped: Option<(*const P::Msg, Tok)> = None;
        for wire in &mut self.wires {
            let ptr = Arc::as_ptr(&wire.msg);
            wire.tok = match stamped {
                Some((p, tok)) if std::ptr::eq(p, ptr) => tok,
                _ => {
                    let tok = self.frames.tok_for(&wire.msg);
                    stamped = Some((ptr, tok));
                    tok
                }
            };
        }
        tr.close(s);

        let s = tr.open(span::PLAN, tick);
        self.plan.clear();
        for wire in &self.wires {
            let connected = self.topology.connected(wire.from, wire.to);
            let to_self = wire.from == wire.to;
            if connected && !to_self {
                c.messages_sent += 1;
                c.bits_sent += wire.bits;
            }
            let dropped = !to_self && self.drops.drops(r, wire.from, wire.to);
            self.plan.push(connected && !dropped);
        }
        tr.close(s);

        let s = tr.open(span::ROUTE, tick);
        self.deliveries.clear();
        for (wire, &deliver) in self.wires.iter().zip(&self.plan) {
            if deliver {
                let envelope = SharedEnvelope::framed(wire.src, Arc::clone(&wire.msg), wire.tok);
                self.deliveries.push(wire.to, envelope);
                c.deliveries += 1;
            }
        }
        tr.close(s);

        let mut state_bits = 0u64;
        for (&pid, proc_) in self.procs.iter_mut() {
            let s = tr.open(span::INBOX, tick);
            let inbox = self.deliveries.take_inbox(pid, self.counting);
            tr.close(s);
            let s = tr.open(span::RECEIVE, tick);
            proc_.receive(r, &inbox);
            tr.close(s);
            let s = tr.open(span::INBOX, tick);
            drop(inbox);
            tr.close(s);
            let s = tr.open(span::STATE_BITS, tick);
            state_bits += proc_.state_bits();
            tr.close(s);
            if let Some(v) = proc_.decision() {
                self.decisions.entry(pid).or_insert((v, r));
            }
        }
        self.peak_state_bits = self.peak_state_bits.max(state_bits);

        if let Some(journals) = &mut self.journals {
            let s = tr.open(span::J_STAGE, tick);
            for buf in &mut self.staged {
                buf.clear();
            }
            for (wire, &delivered) in self.wires.iter().zip(&self.plan) {
                if delivered {
                    self.staged[wire.to.index()].push((wire.src, Arc::clone(&wire.msg)));
                }
            }
            tr.close(s);
            for (&pid, journal) in journals.iter_mut() {
                let envelopes = &self.staged[pid.index()];
                let s = tr.open(span::J_ENCODE, tick);
                let record = journal::encode_deliveries_entry(r, envelopes);
                tr.close(s);
                let s = tr.open(span::J_APPEND, tick);
                journal.append(&record).expect("journal append failed");
                tr.close(s);
                let s = tr.open(span::J_SYNC, tick);
                journal.sync().expect("journal sync failed");
                tr.close(s);
                c.record_bytes += record.len() as u64;
                c.record_frames += envelopes.len() as u64;
            }
        }

        c.ticks += 1;
        self.round = r.next();
        tr.close(tick);
    }

    /// Crashes `pid` and recovers it durably in the same round boundary:
    /// scan the journal, decode its records, replay them into a fresh
    /// spawn — the calls `Simulation::recover_with(Durable)` makes.
    pub fn crash_and_recover<F: ProtocolFactory<P = P>>(
        &mut self,
        factory: &F,
        pid: Pid,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let rec = tr.open(span::RECOVER, NO_PARENT);
        self.procs.remove(&pid);
        let journal = self
            .journals
            .as_ref()
            .and_then(|j| j.get(&pid))
            .ok_or("no journal")?;
        let s = tr.open(span::J_SCAN, rec);
        let recovered = journal.recover();
        tr.close(s);
        if let Some(damage) = recovered.damage {
            return Err(damage.to_string());
        }
        let s = tr.open(span::J_DECODE, rec);
        let entries =
            journal::decode_entries::<P::Msg>(&recovered.records).map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open(span::J_REPLAY, rec);
        let mut automaton =
            factory.spawn(self.assignment.id_of(pid), self.inputs[pid.index()].clone());
        journal::replay(&mut automaton, entries, self.counting).map_err(|e| e.to_string())?;
        tr.close(s);
        self.procs.insert(pid, automaton);
        self.counters.recovers += 1;
        self.counters.recovered_bytes += recovered
            .records
            .iter()
            .map(|r| r.len() as u64)
            .sum::<u64>();
        self.counters.replayed_rounds += recovered.records.len() as u64;
        drop(recovered);
        tr.close(rec);
        Ok(())
    }
}
