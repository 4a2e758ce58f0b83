//! The authenticated broadcast of Proposition 6.
//!
//! A straightforward generalization of Srikanth–Toueg echo broadcast to
//! identifiers: to `Broadcast(m)` in superround `r`, send `⟨init m⟩` in the
//! first round of superround `r`; whoever receives it from identifier `i`
//! echoes `⟨echo m, r, i⟩` in every subsequent round; whoever has seen the
//! echo from `ℓ − 2t` distinct identifiers joins the echoing; whoever has
//! seen it from `ℓ − t` distinct identifiers performs `Accept(m, i)`.
//!
//! Guarantees (for `ℓ > 3t`, in the basic partially synchronous model):
//!
//! * **Correctness** — a broadcast by a correct process in superround
//!   `r ≥ T` is accepted by every correct process within superround `r`;
//! * **Unforgeability** — if every holder of identifier `i` is correct and
//!   none broadcast `m`, nobody accepts `(m, i)`: seeding an echo requires
//!   `ℓ − 2t > t` distinct identifiers, more than the Byzantine processes
//!   control;
//! * **Relay** — once any correct process accepts `(m, i)`, every correct
//!   process accepts it by superround `max(r + 1, T)` (echoes are
//!   retransmitted forever).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::intern::Tok;
use homonym_core::{Id, IdBits, Interner, Message, Round};

/// An `⟨echo m, r, i⟩` item: this sender vouches that identifier `src`
/// performed `Broadcast(payload)` in superround `sr`.
///
/// The payload is held behind an [`Arc`] (shared with the sender's
/// interner), so the per-round retransmission of the full echo set moves
/// pointers, never payloads. `Arc` forwards `Debug`/`Ord`/`Eq` to the
/// payload, so the wire rendering and ordering are those of the payload
/// itself.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EchoItem<M> {
    /// The broadcast payload `m`.
    pub payload: Arc<M>,
    /// The superround `r` of the original `⟨init m⟩`.
    pub sr: u64,
    /// The identifier `i` the broadcast is attributed to.
    pub src: Id,
}

impl<M> EchoItem<M> {
    /// An item vouching that `src` broadcast `payload` in superround `sr`.
    pub fn new(payload: M, sr: u64, src: Id) -> Self {
        EchoItem {
            payload: Arc::new(payload),
            sr,
            src,
        }
    }
}

impl<M: WireEncode> WireEncode for EchoItem<M> {
    fn encode(&self, w: &mut Writer) {
        self.payload.encode(w);
        self.sr.encode(w);
        self.src.encode(w);
    }
}

impl<M: WireDecode> WireDecode for EchoItem<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EchoItem {
            payload: Arc::new(M::decode(r)?),
            sr: u64::decode(r)?,
            src: Id::decode(r)?,
        })
    }
}

/// An `Accept(m, i)` event.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Accept<M> {
    /// The accepted payload.
    pub payload: M,
    /// The identifier it is attributed to.
    pub src: Id,
    /// The superround of the original broadcast.
    pub sr: u64,
}

/// The small copyable key the hot maps are indexed by: the interned
/// payload token, the superround, and the attributed identifier.
type EchoKey = (Tok, u64, Id);

/// One process's view of the echo-broadcast layer.
///
/// The component is transport-agnostic: the owning protocol embeds the
/// items produced by [`EchoBroadcast::to_send`] in its per-round bundle and
/// feeds extracted items back through [`EchoBroadcast::observe`].
///
/// Internally every payload is interned once
/// ([`Interner`]) and the echo/evidence/accept tables key on small
/// copyable `(token, superround, identifier)` tuples; evidence sets are
/// identifier bitsets ([`IdBits`]) whose threshold checks are popcounts.
/// Wire-visible behaviour — the items emitted and the accepts performed,
/// in order — is identical to the original deep-keyed implementation
/// (`proptests::interned_matches_reference_*` pins this against a kept
/// copy of that code).
///
/// # Example
///
/// ```
/// use homonym_core::{Id, Round};
/// use homonym_psync::EchoBroadcast;
///
/// // ℓ = 4 identifiers, t = 1.
/// let mut bc: EchoBroadcast<&str> = EchoBroadcast::new(4, 1);
/// bc.broadcast("hello");
/// let (inits, _echoes) = bc.to_send(Round::new(0));
/// assert_eq!(inits, vec!["hello"]);
/// ```
#[derive(Clone, Debug)]
pub struct EchoBroadcast<M> {
    ell: usize,
    t: usize,
    /// Every distinct payload seen, interned once.
    intern: Interner<M>,
    /// Keys this process echoes in every round from now on.
    echoing: BTreeSet<EchoKey>,
    /// The wire form of `echoing`, maintained incrementally behind an
    /// [`Arc`] — bundles embed this handle directly, so retransmitting
    /// the full echo set every round moves one pointer, and receivers
    /// can pointer-compare it to skip re-scanning an unchanged set.
    wire: Arc<BTreeSet<EchoItem<M>>>,
    /// The wire set as of the previous hand-out whose content differed —
    /// together with `delta` (`wire == prev ∪ delta`) this is the
    /// receive-side shortcut: a receiver that already counted `prev`
    /// only scans `delta`.
    prev: Arc<BTreeSet<EchoItem<M>>>,
    /// The items joined since `prev`.
    delta: Arc<BTreeSet<EchoItem<M>>>,
    /// Distinct identifiers seen echoing each key.
    evidence: BTreeMap<EchoKey, IdBits>,
    /// Keys already accepted (each accept fires once).
    accepted: BTreeSet<EchoKey>,
    /// Payloads queued for `⟨init⟩` at the next first-of-superround send.
    queue: Vec<M>,
    /// Bumped whenever `echoing` grows — the owning protocol compares
    /// generations to learn whether the outgoing echo set changed since
    /// it last built a bundle.
    generation: u64,
    /// Scratch: keys whose evidence grew this `observe` call, so the
    /// threshold sweep touches only what changed instead of re-scanning
    /// the whole evidence table every round.
    dirty: Vec<EchoKey>,
}

impl<M: Message> EchoBroadcast<M> {
    /// Creates the layer for `ell` identifiers tolerating `t` faults.
    ///
    /// The thresholds are `ℓ − 2t` (echo join) and `ℓ − t` (accept); for
    /// `ℓ ≤ 3t` they lose their guarantees, but the component still
    /// operates — lower-bound experiments run it out of range on purpose.
    pub fn new(ell: usize, t: usize) -> Self {
        let empty = Arc::new(BTreeSet::new());
        EchoBroadcast {
            ell,
            t,
            intern: Interner::new(),
            echoing: BTreeSet::new(),
            wire: Arc::clone(&empty),
            prev: Arc::clone(&empty),
            delta: empty,
            evidence: BTreeMap::new(),
            accepted: BTreeSet::new(),
            queue: Vec::new(),
            generation: 0,
            dirty: Vec::new(),
        }
    }

    /// Starts echoing `key` (idempotent); keeps the shared wire set and
    /// its delta in step and advances the generation on growth.
    fn start_echoing(&mut self, key: EchoKey) {
        if self.echoing.insert(key) {
            self.generation += 1;
            let (tok, sr, src) = key;
            let payload = Arc::clone(self.intern.resolve_shared(tok));
            let item = EchoItem { payload, sr, src };
            // Clone-on-write: receivers and cached bundles holding the
            // previous wire set keep it; the clone moves Arc handles.
            Arc::make_mut(&mut self.wire).insert(item.clone());
            Arc::make_mut(&mut self.delta).insert(item);
        }
    }

    /// The accept threshold `ℓ − t` (saturating).
    pub fn accept_threshold(&self) -> usize {
        self.ell.saturating_sub(self.t)
    }

    /// The echo-join threshold `ℓ − 2t` (saturating, at least 1 so a
    /// forged zero-threshold can never arise).
    pub fn join_threshold(&self) -> usize {
        self.ell.saturating_sub(2 * self.t).max(1)
    }

    /// Queues `Broadcast(payload)`: the `⟨init⟩` goes out at the next
    /// first-of-superround send.
    pub fn broadcast(&mut self, payload: M) {
        self.queue.push(payload);
    }

    /// The items to embed in this round's bundle: `⟨init⟩`s (only in the
    /// first round of a superround) and all active echoes, sorted by
    /// `(payload, superround, identifier)`.
    pub fn to_send(&mut self, round: Round) -> (Vec<M>, Vec<EchoItem<M>>) {
        let (inits, echoes) = self.shared_to_send(round);
        (inits, echoes.iter().cloned().collect())
    }

    /// [`to_send`](EchoBroadcast::to_send) with the echoes as the shared
    /// ordered set the bundle embeds directly — the owning protocol's
    /// build path, one `Arc` bump instead of a set construction.
    pub(crate) fn shared_to_send(&mut self, round: Round) -> (Vec<M>, Arc<BTreeSet<EchoItem<M>>>) {
        let inits = if round.is_first_of_superround() {
            std::mem::take(&mut self.queue)
        } else {
            Vec::new()
        };
        (inits, Arc::clone(&self.wire))
    }

    /// The incremental-scan hint shipped alongside the wire set: the
    /// previously handed-out version and the items joined since
    /// (`wire == prev ∪ delta`). Calling this hands the current version
    /// out, so future growth accumulates into a fresh delta against it.
    pub(crate) fn wire_delta(
        &mut self,
    ) -> (Arc<BTreeSet<EchoItem<M>>>, Arc<BTreeSet<EchoItem<M>>>) {
        let hint = (Arc::clone(&self.prev), Arc::clone(&self.delta));
        if !self.delta.is_empty() {
            self.prev = Arc::clone(&self.wire);
            self.delta = Arc::new(BTreeSet::new());
        }
        hint
    }

    /// Whether a queued `Broadcast` would emit an `⟨init⟩` if
    /// [`to_send`](EchoBroadcast::to_send) ran at `round`.
    pub(crate) fn init_due(&self, round: Round) -> bool {
        round.is_first_of_superround() && !self.queue.is_empty()
    }

    /// A counter that advances whenever the outgoing echo set grows.
    /// Equal generations ⇒ [`to_send`](EchoBroadcast::to_send) emits the
    /// same echoes — what lets the owning protocol reuse a cached bundle.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Feeds one round's received items: `inits` as `(sender identifier,
    /// payload)` pairs — only meaningful in the first round of a superround
    /// — and `echoes` as `(echoing identifier, item)` pairs. Returns the
    /// accepts newly performed.
    pub fn observe(
        &mut self,
        round: Round,
        inits: &[(Id, &M)],
        echoes: &[(Id, &EchoItem<M>)],
    ) -> Vec<Accept<M>> {
        // An ⟨init m⟩ from identifier i in the first round of superround r
        // starts our echoing of (m, r, i) from the next round on.
        if round.is_first_of_superround() {
            let sr = round.superround().index();
            for &(src, payload) in inits {
                let key = (self.intern.intern(payload), sr, src);
                self.start_echoing(key);
            }
        }

        // Record echo evidence by distinct echoing identifier; only keys
        // whose evidence grew are re-checked against the thresholds
        // (evidence never shrinks, so a key that crossed a threshold
        // earlier was handled the round it crossed).
        let ell = self.ell;
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        for &(echoer, item) in echoes {
            let key = (self.intern.intern_shared(&item.payload), item.sr, item.src);
            let bits = self
                .evidence
                .entry(key)
                .or_insert_with(|| IdBits::with_capacity(ell));
            if bits.insert(echoer.index()) {
                dirty.push(key);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        // Join echoing at ℓ − 2t, accept at ℓ − t (both are popcount
        // reads now). Accepts are reported in the order the deep-keyed
        // implementation produced them: ascending (payload, sr, src).
        let join = self.join_threshold();
        let accept = self.accept_threshold();
        let mut accepts = Vec::new();
        for &key in &dirty {
            let supporters = self.evidence[&key].len();
            if supporters >= join {
                self.start_echoing(key);
            }
            if supporters >= accept && self.accepted.insert(key) {
                accepts.push(Accept {
                    payload: self.intern.resolve(key.0).clone(),
                    sr: key.1,
                    src: key.2,
                });
            }
        }
        self.dirty = dirty;
        accepts.sort_by(|a, b| (&a.payload, a.sr, a.src).cmp(&(&b.payload, b.sr, b.src)));
        accepts
    }

    /// Whether `(payload, src)` has been accepted (at any superround).
    pub fn has_accepted(&self, payload: &M, src: Id) -> bool {
        let Some(tok) = self.intern.get(payload) else {
            return false;
        };
        self.accepted.iter().any(|&(m, _, i)| m == tok && i == src)
    }

    /// Number of keys currently being echoed (diagnostic; grows over the
    /// run because echoes are retransmitted forever, which the relay
    /// property requires).
    pub fn echoing_len(&self) -> usize {
        self.echoing.len()
    }

    /// Structural state-size estimate in bits, on the same per-entry
    /// scale as the bounded layer's
    /// [`state_bits`](crate::BoundedEchoBroadcast::state_bits), so
    /// faithful-vs-bounded comparisons measure entry counts, not
    /// representation tricks. Grows O(history) here — that growth is the
    /// number the bounded variant exists to remove.
    pub fn state_bits(&self) -> u64 {
        let key = 192u64;
        (self.echoing.len() as u64) * key
            + (self.wire.len() as u64) * key
            + (self.evidence.len() as u64) * (key + self.ell as u64)
            + (self.accepted.len() as u64) * key
            + (self.intern.len() as u64) * 128
            + (self.queue.len() as u64) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synchronous network of `ell` correct processes (one per
    /// identifier) running only the broadcast layer.
    struct Net {
        procs: Vec<EchoBroadcast<&'static str>>,
        round: Round,
    }

    impl Net {
        fn new(ell: usize, t: usize) -> Self {
            Net {
                procs: (0..ell).map(|_| EchoBroadcast::new(ell, t)).collect(),
                round: Round::ZERO,
            }
        }

        /// Runs one round with full delivery plus adversarial extra items.
        fn step(
            &mut self,
            extra_inits: &[(Id, &'static str)],
            extra_echoes: &[(Id, EchoItem<&'static str>)],
        ) -> Vec<Vec<Accept<&'static str>>> {
            let r = self.round;
            let mut all_inits: Vec<(Id, &'static str)> = extra_inits.to_vec();
            let mut all_echoes: Vec<(Id, EchoItem<&'static str>)> = extra_echoes.to_vec();
            for (k, p) in self.procs.iter_mut().enumerate() {
                let (inits, echoes) = p.to_send(r);
                let id = Id::from_index(k);
                for m in inits {
                    all_inits.push((id, m));
                }
                for e in echoes {
                    all_echoes.push((id, e));
                }
            }
            let inits_ref: Vec<(Id, &&'static str)> =
                all_inits.iter().map(|(i, m)| (*i, m)).collect();
            let echoes_ref: Vec<(Id, &EchoItem<&'static str>)> =
                all_echoes.iter().map(|(i, e)| (*i, e)).collect();
            let out = self
                .procs
                .iter_mut()
                .map(|p| p.observe(r, &inits_ref, &echoes_ref))
                .collect();
            self.round = r.next();
            out
        }
    }

    #[test]
    fn correctness_accept_within_the_superround() {
        let mut net = Net::new(4, 1);
        net.procs[0].broadcast("m");
        let accepts = net.step(&[], &[]); // round 0: init flows
        assert!(accepts.iter().all(|a| a.is_empty()));
        let accepts = net.step(&[], &[]); // round 1: echoes flow, accept
        for per_proc in &accepts {
            assert_eq!(per_proc.len(), 1);
            assert_eq!(per_proc[0].payload, "m");
            assert_eq!(per_proc[0].src, Id::new(1));
            assert_eq!(per_proc[0].sr, 0);
        }
    }

    #[test]
    fn accept_fires_once() {
        let mut net = Net::new(4, 1);
        net.procs[0].broadcast("m");
        net.step(&[], &[]);
        net.step(&[], &[]);
        // Echoes keep flowing but the accept must not repeat.
        let accepts = net.step(&[], &[]);
        assert!(accepts.iter().all(|a| a.is_empty()));
        assert!(net.procs[2].has_accepted(&"m", Id::new(1)));
    }

    #[test]
    fn unforgeability_t_echoes_do_not_seed() {
        // t = 1 Byzantine identifier injects echoes for a message nobody
        // broadcast; ℓ − 2t = 2 > 1, so the echo never catches on.
        let mut net = Net::new(4, 1);
        let forged = EchoItem::new("forged", 0, Id::new(2));
        for _ in 0..6 {
            let accepts = net.step(&[], &[(Id::new(4), forged.clone())]);
            assert!(accepts.iter().all(|a| a.is_empty()));
        }
        assert!(!net.procs[0].has_accepted(&"forged", Id::new(2)));
    }

    #[test]
    fn byzantine_init_can_be_accepted_but_attributed_correctly() {
        // A Byzantine identifier CAN get its own broadcast accepted — the
        // broadcast only authenticates the identifier, it does not certify
        // correctness of the content.
        let mut net = Net::new(4, 1);
        let accepts = net.step(&[(Id::new(3), "lie")], &[]);
        assert!(accepts.iter().all(|a| a.is_empty()));
        let accepts = net.step(&[], &[]);
        for per_proc in &accepts {
            assert_eq!(per_proc.len(), 1);
            assert_eq!(per_proc[0].src, Id::new(3));
        }
    }

    #[test]
    fn relay_via_continued_echoes() {
        // Process 0 accepts thanks to echoes the others never saw (they
        // were "dropped"); once it echoes itself and the network heals,
        // everyone else accepts one superround later.
        let ell = 4;
        let t = 1;
        let mut lonely: EchoBroadcast<&'static str> = EchoBroadcast::new(ell, t);
        let item = EchoItem::new("m", 0, Id::new(1));
        // ℓ − t = 3 distinct identifiers echo to process 0 only.
        let echoes: Vec<(Id, EchoItem<&'static str>)> =
            (2..=4).map(|i| (Id::new(i), item.clone())).collect();
        let refs: Vec<(Id, &EchoItem<&'static str>)> =
            echoes.iter().map(|(i, e)| (*i, e)).collect();
        let accepts = lonely.observe(Round::new(1), &[], &refs);
        assert_eq!(accepts.len(), 1);
        // It now echoes the key forever — the relay mechanism.
        let (_, out) = lonely.to_send(Round::new(2));
        assert!(out.iter().any(|e| *e.payload == "m" && e.src == Id::new(1)));
    }

    #[test]
    fn init_outside_first_round_of_superround_is_ignored() {
        let mut p: EchoBroadcast<&'static str> = EchoBroadcast::new(4, 1);
        // Round 1 is the second round of superround 0.
        let accepts = p.observe(Round::new(1), &[(Id::new(2), &"late")], &[]);
        assert!(accepts.is_empty());
        let (_, echoes) = p.to_send(Round::new(2));
        assert!(echoes.is_empty(), "late init must not start echoing");
    }

    #[test]
    fn queued_broadcast_waits_for_superround_start() {
        let mut p: EchoBroadcast<&'static str> = EchoBroadcast::new(4, 1);
        p.broadcast("m");
        let (inits, _) = p.to_send(Round::new(1)); // second round of sr 0
        assert!(inits.is_empty());
        let (inits, _) = p.to_send(Round::new(2)); // first round of sr 1
        assert_eq!(inits, vec!["m"]);
    }

    #[test]
    fn thresholds() {
        let p: EchoBroadcast<&'static str> = EchoBroadcast::new(7, 2);
        assert_eq!(p.accept_threshold(), 5);
        assert_eq!(p.join_threshold(), 3);
        // Saturation keeps degenerate configurations operational.
        let p: EchoBroadcast<&'static str> = EchoBroadcast::new(2, 1);
        assert_eq!(p.join_threshold(), 1);
    }
}
