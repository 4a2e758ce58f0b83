//! Bounded-state variants of the Proposition 6 broadcast and the Figure 5
//! agreement: flat steady-state memory, constant-size bundles.
//!
//! The faithful [`EchoBroadcast`](crate::EchoBroadcast) retransmits every
//! echo it ever joined, forever — the relay property asks for it, and both
//! the per-process state and the per-round bundle grow O(history). The
//! bounded variant applies the pattern production BFT engines use (see the
//! malachite note in `SNIPPETS.md`): each process stamps every bundle with
//! a monotone **watermark** (its current superround), receivers maintain a
//! per-identifier `max_sr` summary of those watermarks, and the
//! `ℓ − t`-th largest entry — the **stable superround**, a quorum of
//! identifiers demonstrably past it — drives a pruning horizon
//! `stable_sr − window`. Everything below the horizon is dropped from the
//! echo set, the evidence table, the accept log, and the outgoing wire
//! set, so bundles carry only the last `window` superrounds of echoes and
//! per-process state is O(window · ℓ · |payloads per superround|) —
//! constant in the run length.
//!
//! Pruning is **quorum-driven, not clock-driven**: the horizon advances
//! only when `ℓ − t` identifiers are *observed* past it (watermarks are
//! capped at the receiver's own superround, so Byzantine senders cannot
//! fast-forward it). A partition freezes the horizon rather than dropping
//! live evidence; once healed, the relay property holds for every key
//! still inside the window — which is all the agreement layer ever reads,
//! because its quorum checks are per-current-phase. The faithful protocols
//! stay untouched as the reference oracle; `bounded_equivalence` tests pin
//! decision-for-decision parity against them.
//!
//! Receiving costs what the senders *added*, not what they hold. Echo
//! evidence is cumulative and idempotent per identifier, so
//! [`BoundedAgreement`] remembers, per sender identifier, the echo sets
//! it has counted: a set re-delivered under the same `Arc` is skipped,
//! and a grown one is narrowed through the bundle's scan hint `(prev,
//! delta)` — the sender's previously handed-out set and the items it
//! joined since — to `delta` alone when `prev` was counted. The hint
//! obeys two rules on the sending side: a prune restarts it from a fresh
//! empty `prev` (a pruned set is not `prev ∪ delta`, so receivers fall
//! back to a difference against a counted set or a full scan), and while
//! `prev` is empty no delta is maintained — the hint is `(prev, wire)`,
//! which spares the first superround a second insert per join.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::{
    Domain, Id, IdBits, Inbox, Protocol, ProtocolFactory, Recipients, Round, Value,
};

use crate::agreement::{phase_pos, update_proper, Direct, Payload, PhasePos};
use crate::broadcast::{Accept, EchoItem};

/// How many superrounds of echoes survive behind the stable superround by
/// default: four full phases of the Figure 5 skeleton — far more slack
/// than any in-window quorum read needs, small enough that the state
/// plateau is a few dozen keys.
pub const DEFAULT_WINDOW_SUPERROUNDS: u64 = 16;

/// The deep key the bounded tables use, ordered superround-first so the
/// horizon sweep is an ordered prefix removal. No interner: an interner is
/// append-only and would silently reintroduce the O(history) growth this
/// module exists to remove.
type BKey<M> = (u64, Id, Arc<M>);

/// One process's view of the bounded echo-broadcast layer.
///
/// Same observable protocol as [`EchoBroadcast`](crate::EchoBroadcast) —
/// `⟨init m⟩` in the first round of a superround, `⟨echo m, r, i⟩`
/// joined at `ℓ − 2t` distinct identifiers, `Accept(m, i)` at `ℓ − t` —
/// restricted to the sliding superround window described in the module
/// docs. The owning protocol feeds received watermarks alongside the
/// echo items; everything below `stable_sr − window` is pruned.
#[derive(Clone, Debug)]
pub struct BoundedEchoBroadcast<M> {
    ell: usize,
    t: usize,
    /// Superrounds of history kept behind the stable superround.
    window: u64,
    /// Keys this process currently echoes (within the window).
    echoing: BTreeSet<BKey<M>>,
    /// The wire form of `echoing`, shared with outgoing bundles.
    wire: Arc<BTreeSet<EchoItem<M>>>,
    /// The wire set as last handed out with new content, or a fresh empty
    /// set (initially and after a prune). With `delta` it is the bundles'
    /// scan hint: `wire == prev ∪ delta` whenever `prev` is non-empty.
    prev: Arc<BTreeSet<EchoItem<M>>>,
    /// The items joined since `prev` — kept only while `prev` is
    /// non-empty; against an empty `prev` the hint is `wire` itself.
    delta: Arc<BTreeSet<EchoItem<M>>>,
    /// Distinct identifiers seen echoing each in-window key.
    evidence: BTreeMap<BKey<M>, IdBits>,
    /// In-window keys already accepted (each accept fires once; keys
    /// below the horizon cannot re-enter, so pruning cannot re-fire one).
    accepted: BTreeSet<BKey<M>>,
    /// Payloads queued for `⟨init⟩` at the next first-of-superround send.
    queue: Vec<M>,
    /// Monotone per-identifier watermark summary (capped at our own
    /// superround on ingest). Size ≤ ℓ.
    max_sr: BTreeMap<Id, u64>,
    /// Keys with superround below this are pruned and ignored. Monotone.
    horizon: u64,
    /// Bumped whenever the outgoing wire set changes (growth *or* prune).
    generation: u64,
    /// Scratch: keys whose evidence reached a threshold this `observe`
    /// call (empty between calls).
    dirty: Vec<BKey<M>>,
}

impl<M: homonym_core::Message> BoundedEchoBroadcast<M> {
    /// Creates the layer for `ell` identifiers tolerating `t` faults with
    /// the default window.
    pub fn new(ell: usize, t: usize) -> Self {
        Self::with_window(ell, t, DEFAULT_WINDOW_SUPERROUNDS)
    }

    /// Creates the layer with an explicit window (superrounds of history
    /// kept behind the stable superround).
    pub fn with_window(ell: usize, t: usize, window: u64) -> Self {
        let wire = Arc::new(BTreeSet::new());
        BoundedEchoBroadcast {
            ell,
            t,
            window,
            echoing: BTreeSet::new(),
            prev: Arc::clone(&wire),
            delta: Arc::clone(&wire),
            wire,
            evidence: BTreeMap::new(),
            accepted: BTreeSet::new(),
            queue: Vec::new(),
            max_sr: BTreeMap::new(),
            horizon: 0,
            generation: 0,
            dirty: Vec::new(),
        }
    }

    /// The accept threshold `ℓ − t` (saturating).
    pub fn accept_threshold(&self) -> usize {
        self.ell.saturating_sub(self.t)
    }

    /// The echo-join threshold `ℓ − 2t` (saturating, at least 1).
    pub fn join_threshold(&self) -> usize {
        self.ell.saturating_sub(2 * self.t).max(1)
    }

    /// Queues `Broadcast(payload)` for the next first-of-superround send.
    pub fn broadcast(&mut self, payload: M) {
        self.queue.push(payload);
    }

    /// The items for this round's bundle: due `⟨init⟩`s plus the
    /// (windowed) echo set as a shared handle.
    pub fn shared_to_send(&mut self, round: Round) -> (Vec<M>, Arc<BTreeSet<EchoItem<M>>>) {
        let inits = if round.is_first_of_superround() {
            std::mem::take(&mut self.queue)
        } else {
            Vec::new()
        };
        (inits, Arc::clone(&self.wire))
    }

    /// The scan hint shipped alongside the wire set: `(prev, delta)` with
    /// `wire == prev ∪ delta` — `(prev, wire)` while `prev` is empty.
    /// Calling this hands the current version out, so later growth
    /// accumulates into a fresh delta against it.
    pub(crate) fn wire_delta(
        &mut self,
    ) -> (Arc<BTreeSet<EchoItem<M>>>, Arc<BTreeSet<EchoItem<M>>>) {
        let added = if self.prev.is_empty() {
            &self.wire
        } else {
            &self.delta
        };
        let hint = (Arc::clone(&self.prev), Arc::clone(added));
        if !hint.1.is_empty() {
            self.prev = Arc::clone(&self.wire);
            self.delta = Arc::new(BTreeSet::new());
        }
        hint
    }

    /// Whether a queued `Broadcast` would emit an `⟨init⟩` at `round`.
    pub(crate) fn init_due(&self, round: Round) -> bool {
        round.is_first_of_superround() && !self.queue.is_empty()
    }

    /// A counter that advances whenever the outgoing echo set changes.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The current pruning horizon (diagnostic: superround below which
    /// all state has been discarded).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Starts echoing `key` (idempotent), keeping the wire set and its
    /// delta in step.
    fn start_echoing(&mut self, key: BKey<M>) {
        let item = EchoItem {
            payload: Arc::clone(&key.2),
            sr: key.0,
            src: key.1,
        };
        if self.echoing.insert(key) {
            self.generation += 1;
            if !self.prev.is_empty() {
                Arc::make_mut(&mut self.delta).insert(item.clone());
            }
            Arc::make_mut(&mut self.wire).insert(item);
        }
    }

    /// The stable superround: the `ℓ − t`-th largest watermark — a quorum
    /// of identifiers has demonstrably progressed past it.
    fn stable_sr(&self) -> u64 {
        let k = self.accept_threshold().max(1);
        if self.max_sr.len() < k {
            return 0;
        }
        let mut srs: Vec<u64> = self.max_sr.values().copied().collect();
        srs.sort_unstable_by(|a, b| b.cmp(a));
        srs[k - 1]
    }

    /// Drops every key below the horizon from all tables and the wire set.
    fn prune(&mut self) {
        let h = self.horizon;
        self.echoing.retain(|k| k.0 >= h);
        self.evidence.retain(|k, _| k.0 >= h);
        self.accepted.retain(|k| k.0 >= h);
        if self.wire.iter().any(|item| item.sr < h) {
            Arc::make_mut(&mut self.wire).retain(|item| item.sr >= h);
            self.generation += 1;
            // A pruned set is not `prev ∪ delta`: the next hint starts
            // from a fresh empty `prev`, which no receiver has counted, so
            // receivers fall back to their difference or full scan.
            self.prev = Arc::new(BTreeSet::new());
            self.delta = Arc::clone(&self.prev);
        }
    }

    /// Feeds one round's received items plus the senders' watermarks.
    /// Returns the accepts newly performed, in the faithful layer's
    /// `(payload, sr, src)` ascending order.
    pub fn observe(
        &mut self,
        round: Round,
        inits: &[(Id, &M)],
        echoes: &[(Id, &EchoItem<M>)],
        watermarks: &[(Id, u64)],
    ) -> Vec<Accept<M>> {
        let now_sr = round.superround().index();

        // Monotone watermark ingest, capped at our own superround so a
        // Byzantine sender cannot fast-forward the horizon. The stable
        // superround is a function of the summary alone, so it is
        // recomputed only when an entry rose (a new entry at 0 is the
        // smallest and leaves the `ℓ − t`-th largest where it was).
        let mut advanced = false;
        for &(src, sr) in watermarks {
            let sr = sr.min(now_sr);
            let entry = self.max_sr.entry(src).or_insert(0);
            if sr > *entry {
                *entry = sr;
                advanced = true;
            }
        }
        if advanced {
            let new_horizon = self.stable_sr().saturating_sub(self.window);
            if new_horizon > self.horizon {
                self.horizon = new_horizon;
                self.prune();
            }
        }

        // Inits start our echoing, stamped with our current superround —
        // always ≥ horizon, so a fresh init is never pruned on arrival.
        if round.is_first_of_superround() {
            for &(src, payload) in inits {
                self.start_echoing((now_sr, src, Arc::new(payload.clone())));
            }
        }

        // Echo evidence for in-window keys only: below the horizon the
        // key is settled history, above our own superround it can only be
        // forged (correct processes stamp inits with the receiver-side
        // superround, which our rounds have reached too). A key's count
        // rises one identifier at a time, so only a key that lands exactly
        // on a threshold can newly pass it: those are the keys to act on.
        let join = self.join_threshold();
        let accept = self.accept_threshold();
        let mut dirty = std::mem::take(&mut self.dirty);
        for &(echoer, item) in echoes {
            if item.sr < self.horizon || item.sr > now_sr {
                continue;
            }
            let key = (item.sr, item.src, Arc::clone(&item.payload));
            let grown_to = match self.evidence.get_mut(&key) {
                Some(bits) => bits.insert(echoer.index()).then(|| bits.len()),
                None => {
                    let mut bits = IdBits::with_capacity(self.ell);
                    bits.insert(echoer.index());
                    self.evidence.insert(key.clone(), bits);
                    Some(1)
                }
            };
            if grown_to.is_some_and(|count| count == join || count == accept) {
                dirty.push(key);
            }
        }

        let mut accepts = Vec::new();
        for key in &dirty {
            let supporters = self.evidence[key].len();
            if supporters >= join {
                self.start_echoing(key.clone());
            }
            if supporters >= accept && self.accepted.insert(key.clone()) {
                accepts.push(Accept {
                    payload: (*key.2).clone(),
                    sr: key.0,
                    src: key.1,
                });
            }
        }
        dirty.clear();
        self.dirty = dirty;
        accepts.sort_by(|a, b| (&a.payload, a.sr, a.src).cmp(&(&b.payload, b.sr, b.src)));
        accepts
    }

    /// Whether `(payload, src)` has been accepted *within the window*.
    pub fn has_accepted(&self, payload: &M, src: Id) -> bool {
        self.accepted
            .iter()
            .any(|(_, i, m)| *i == src && **m == *payload)
    }

    /// Number of keys currently echoed (bounded by the window, unlike the
    /// faithful layer's forever-growing set).
    pub fn echoing_len(&self) -> usize {
        self.echoing.len()
    }

    /// Structural state-size estimate in bits: every table entry at its
    /// key-plus-handle footprint. The absolute scale is a proxy; what the
    /// O(1) claim needs is that this number plateaus over a run.
    pub fn state_bits(&self) -> u64 {
        let key = 192u64;
        (self.echoing.len() as u64) * key
            + (self.wire.len() as u64) * key
            + (self.evidence.len() as u64) * (key + self.ell as u64)
            + (self.accepted.len() as u64) * key
            + (self.max_sr.len() as u64) * 80
            + (self.queue.len() as u64) * 64
    }
}

/// The single wire message of the bounded Figure 5 protocol: the faithful
/// bundle's four fields plus the sender's superround **watermark**. The
/// echo set is the *windowed* one, so the bundle is constant-size.
///
/// Like the faithful [`Bundle`](crate::Bundle), it also carries a *scan
/// hint* `(prev, delta)` with `echoes == prev ∪ delta`: a receiver that
/// already counted `prev` from this identifier scans only `delta`, the
/// items the sender joined since. The hint is not part of the wire
/// identity — `Debug`, `Eq`, `Ord` and the codec see the five wire fields
/// only — and a decoded bundle carries the trivial hint `(∅, echoes)`.
/// The sender's layer restarts it from a fresh empty `prev` whenever it
/// prunes (a pruned set is not `prev ∪ delta`), and while `prev` is empty
/// it ships `(prev, echoes)` rather than maintain a delta that would
/// duplicate the whole set.
#[derive(Clone)]
pub struct BoundedBundle<V> {
    inits: BTreeSet<Payload<V>>,
    echoes: EchoSet<V>,
    directs: BTreeSet<Direct<V>>,
    proper: Arc<BTreeSet<V>>,
    /// The sender's current superround — receivers fold it into their
    /// `max_sr` summary, which drives the pruning horizon.
    watermark: u64,
    /// `(prev, delta)` with `echoes == prev ∪ delta`; see above.
    hint: (EchoSet<V>, EchoSet<V>),
}

impl<V> BoundedBundle<V> {
    /// The wire fields, as a tuple — the single definition of what
    /// participates in equality, ordering, and rendering.
    #[allow(clippy::type_complexity)]
    fn wire_fields(
        &self,
    ) -> (
        &BTreeSet<Payload<V>>,
        &EchoSet<V>,
        &BTreeSet<Direct<V>>,
        &Arc<BTreeSet<V>>,
        u64,
    ) {
        (
            &self.inits,
            &self.echoes,
            &self.directs,
            &self.proper,
            self.watermark,
        )
    }
}

impl<V: PartialEq> PartialEq for BoundedBundle<V> {
    fn eq(&self, other: &Self) -> bool {
        self.wire_fields() == other.wire_fields()
    }
}

impl<V: Eq> Eq for BoundedBundle<V> {}

impl<V: Ord> PartialOrd for BoundedBundle<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Ord> Ord for BoundedBundle<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.wire_fields().cmp(&other.wire_fields())
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for BoundedBundle<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedBundle")
            .field("inits", &self.inits)
            .field("echoes", &self.echoes)
            .field("directs", &self.directs)
            .field("proper", &self.proper)
            .field("watermark", &self.watermark)
            .finish()
    }
}

impl<V: Value + WireEncode> WireEncode for BoundedBundle<V> {
    fn encode(&self, w: &mut Writer) {
        self.inits.encode(w);
        self.echoes.encode(w);
        self.directs.encode(w);
        self.proper.encode(w);
        self.watermark.encode(w);
    }
}

impl<V: Value + WireDecode> WireDecode for BoundedBundle<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let inits = BTreeSet::decode(r)?;
        let echoes: EchoSet<V> = Arc::new(BTreeSet::decode(r)?);
        Ok(BoundedBundle {
            inits,
            hint: (Arc::new(BTreeSet::new()), Arc::clone(&echoes)),
            echoes,
            directs: BTreeSet::decode(r)?,
            proper: Arc::new(BTreeSet::decode(r)?),
            watermark: u64::decode(r)?,
        })
    }
}

impl<V: Value> BoundedBundle<V> {
    /// The `⟨ack v, ph⟩` items this bundle carries.
    pub fn acks(&self) -> Vec<(&V, u64)> {
        self.directs
            .iter()
            .filter_map(|d| match d {
                Direct::Ack { v, ph } => Some((v, *ph)),
                _ => None,
            })
            .collect()
    }

    /// The `⟨lock v, ph⟩` leader requests this bundle carries.
    pub fn lock_requests(&self) -> Vec<(&V, u64)> {
        self.directs
            .iter()
            .filter_map(|d| match d {
                Direct::Lock { v, ph } => Some((v, *ph)),
                _ => None,
            })
            .collect()
    }

    /// The `⟨decide v⟩` relays this bundle carries.
    pub fn decide_relays(&self) -> Vec<&V> {
        self.directs
            .iter()
            .filter_map(|d| match d {
                Direct::Decide { v } => Some(v),
                _ => None,
            })
            .collect()
    }

    /// The proper set appended to this bundle.
    pub fn proper_view(&self) -> &BTreeSet<V> {
        &self.proper
    }

    /// The sender's superround watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// This bundle carrying one more echo item — a Byzantine forgery for
    /// the tests.
    #[cfg(test)]
    pub(crate) fn forged_with_echo(&self, item: EchoItem<Payload<V>>) -> Self {
        let mut forged = self.clone();
        Arc::make_mut(&mut forged.echoes).insert(item);
        forged.hint = (Arc::new(BTreeSet::new()), Arc::clone(&forged.echoes));
        forged
    }
}

/// The cached outgoing bundle and the fingerprints it was built from.
/// Unlike the faithful cache, the watermark pins reuse to one superround.
#[derive(Clone, Debug)]
struct SendCache<V> {
    bundle: Arc<BoundedBundle<V>>,
    generation: u64,
    proper_len: usize,
    watermark: u64,
    reusable: bool,
}

/// The bounded-state Figure 5 protocol: identical phase logic to
/// [`HomonymAgreement`](crate::HomonymAgreement) over the bounded
/// broadcast layer, with the per-phase evidence tables pruned a few
/// phases behind the current one.
#[derive(Clone, Debug)]
pub struct BoundedAgreement<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
    id: Id,

    proper: Arc<BTreeSet<V>>,
    locks: BTreeSet<(V, u64)>,
    decision: Option<V>,

    bcast: BoundedEchoBroadcast<Payload<V>>,
    /// Accepted proposals: phase → identifier → candidate sets accepted.
    propose_acc: BTreeMap<u64, BTreeMap<Id, BTreeSet<BTreeSet<V>>>>,
    /// Accepted votes: phase → value → identifiers accepted from.
    vote_acc: BTreeMap<u64, BTreeMap<V, BTreeSet<Id>>>,
    /// Lock values received from the leader identifier, per phase.
    leader_locks: BTreeMap<u64, BTreeSet<V>>,
    /// The lock value sent as a leader, per phase.
    my_lock: BTreeMap<u64, V>,
    /// Phases of evidence kept behind the current one.
    keep_phases: u64,

    send_cache: Option<SendCache<V>>,
    /// Per sender identifier: the echo sets counted in full the last time
    /// that identifier was heard from (see [`Protocol::receive`]).
    seen_echoes: BTreeMap<Id, Vec<EchoSet<V>>>,
}

/// A bundle's (windowed) echo set, as shared on the wire.
type EchoSet<V> = Arc<BTreeSet<EchoItem<Payload<V>>>>;

impl<V: Value> BoundedAgreement<V> {
    /// Creates the automaton — same parameters and panics as
    /// [`HomonymAgreement::new`](crate::HomonymAgreement::new).
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>, id: Id, input: V) -> Self {
        Self::with_window(n, ell, t, domain, id, input, DEFAULT_WINDOW_SUPERROUNDS)
    }

    /// [`new`](BoundedAgreement::new) with an explicit pruning window;
    /// the per-phase retention scales with it.
    fn with_window(
        n: usize,
        ell: usize,
        t: usize,
        domain: Domain<V>,
        id: Id,
        input: V,
        window: u64,
    ) -> Self {
        assert!(domain.contains(&input), "input must belong to the domain");
        assert!(ell >= t, "quorum ell - t requires ell >= t");
        BoundedAgreement {
            n,
            ell,
            t,
            id,
            proper: Arc::new(BTreeSet::from([input])),
            locks: BTreeSet::new(),
            decision: None,
            bcast: BoundedEchoBroadcast::with_window(ell, t, window),
            propose_acc: BTreeMap::new(),
            vote_acc: BTreeMap::new(),
            leader_locks: BTreeMap::new(),
            my_lock: BTreeMap::new(),
            keep_phases: (window / 4).max(1),
            send_cache: None,
            seen_echoes: BTreeMap::new(),
            domain,
        }
    }

    /// The identifier quorum size `ℓ − t`.
    pub fn quorum(&self) -> usize {
        self.ell - self.t
    }

    /// The `(n, ℓ, t)` parameters this instance was built for.
    pub fn params(&self) -> (usize, usize, usize) {
        (self.n, self.ell, self.t)
    }

    /// The proper set (diagnostic).
    pub fn proper(&self) -> &BTreeSet<V> {
        &self.proper
    }

    /// Number of keys the broadcast layer currently echoes (diagnostic:
    /// this is the number the long-horizon flat-state test watches).
    pub fn echoing_len(&self) -> usize {
        self.bcast.echoing_len()
    }

    /// The broadcast layer's pruning horizon.
    #[cfg(test)]
    pub(crate) fn horizon(&self) -> u64 {
        self.bcast.horizon()
    }

    /// Forgets which echo sets were counted, so that the next `receive`
    /// scans every set in full — the reference the tests hold the
    /// shortcuts to.
    #[cfg(test)]
    pub(crate) fn forget_counted_echoes(&mut self) {
        self.seen_echoes.clear();
    }

    fn is_leader(&self, ph: u64) -> bool {
        Id::phase_leader(ph, self.ell) == self.id
    }

    fn candidate_set(&self) -> BTreeSet<V> {
        self.proper
            .iter()
            .filter(|v| !self.locks.iter().any(|(w, _)| w != *v))
            .cloned()
            .collect()
    }

    fn propose_support(&self, ph: u64, v: &V) -> usize {
        self.propose_acc
            .get(&ph)
            .map(|per_id| {
                per_id
                    .values()
                    .filter(|sets| sets.iter().any(|s| s.contains(v)))
                    .count()
            })
            .unwrap_or(0)
    }

    fn quorum_supported(&self, ph: u64) -> Vec<V> {
        self.domain
            .values()
            .iter()
            .filter(|v| self.propose_support(ph, v) >= self.quorum())
            .cloned()
            .collect()
    }

    fn vote_support(&self, ph: u64, v: &V) -> usize {
        self.vote_acc
            .get(&ph)
            .and_then(|per_v| per_v.get(v))
            .map(BTreeSet::len)
            .unwrap_or(0)
    }

    fn decide(&mut self, v: V) {
        if self.decision.is_none() {
            self.decision = Some(v);
        }
    }

    fn route_accepts(&mut self, accepts: Vec<Accept<Payload<V>>>) {
        for a in accepts {
            match a.payload {
                Payload::Propose { values, ph } => {
                    self.propose_acc
                        .entry(ph)
                        .or_default()
                        .entry(a.src)
                        .or_default()
                        .insert(values);
                }
                Payload::Vote { v, ph } => {
                    self.vote_acc
                        .entry(ph)
                        .or_default()
                        .entry(v)
                        .or_default()
                        .insert(a.src);
                }
            }
        }
    }

    fn release_locks(&mut self) {
        let quorum = self.quorum();
        let stale: Vec<(V, u64)> = self
            .locks
            .iter()
            .filter(|(v1, ph1)| {
                self.vote_acc.iter().any(|(&ph2, per_v)| {
                    ph2 > *ph1
                        && per_v
                            .iter()
                            .any(|(v2, ids)| v2 != v1 && ids.len() >= quorum)
                })
            })
            .cloned()
            .collect();
        for pair in stale {
            self.locks.remove(&pair);
        }
    }

    /// Drops per-phase evidence more than `keep_phases` behind `ph`. The
    /// phase logic only ever reads the current phase's tables; the one
    /// cross-phase reader, `release_locks`, compares locks against
    /// *later*-phase votes, which the retention keeps.
    fn prune_phases(&mut self, ph: u64) {
        let keep = ph.saturating_sub(self.keep_phases);
        self.propose_acc.retain(|&p, _| p >= keep);
        self.vote_acc.retain(|&p, _| p >= keep);
        self.leader_locks.retain(|&p, _| p >= keep);
        self.my_lock.retain(|&p, _| p >= keep);
    }

    /// Same conservative bound as the faithful protocol.
    pub fn round_bound(n: usize, ell: usize) -> u64 {
        crate::HomonymAgreement::<V>::round_bound(n, ell)
    }

    fn build_or_reuse(
        &mut self,
        round: Round,
        directs: BTreeSet<Direct<V>>,
    ) -> Arc<BoundedBundle<V>> {
        let watermark = round.superround().index();
        if directs.is_empty() && !self.bcast.init_due(round) {
            if let Some(cache) = &self.send_cache {
                if cache.reusable
                    && cache.generation == self.bcast.generation()
                    && cache.proper_len == self.proper.len()
                    && cache.watermark == watermark
                {
                    return Arc::clone(&cache.bundle);
                }
            }
        }
        let (inits, echoes) = self.bcast.shared_to_send(round);
        let hint = self.bcast.wire_delta();
        let reusable = inits.is_empty() && directs.is_empty();
        let bundle = Arc::new(BoundedBundle {
            inits: inits.into_iter().collect(),
            echoes,
            directs,
            proper: Arc::clone(&self.proper),
            watermark,
            hint,
        });
        self.send_cache = Some(SendCache {
            bundle: Arc::clone(&bundle),
            generation: self.bcast.generation(),
            proper_len: self.proper.len(),
            watermark,
            reusable,
        });
        bundle
    }
}

impl<V: Value> Protocol for BoundedAgreement<V> {
    type Msg = BoundedBundle<V>;
    type Value = V;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, BoundedBundle<V>)> {
        self.send_shared(round)
            .into_iter()
            .map(|(recipients, bundle)| (recipients, (*bundle).clone()))
            .collect()
    }

    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<BoundedBundle<V>>)> {
        let PhasePos { ph, w } = phase_pos(round);
        let mut directs = BTreeSet::new();

        match w {
            0 => {
                let values = self.candidate_set();
                self.bcast.broadcast(Payload::Propose { values, ph });
            }
            2 if self.is_leader(ph) => {
                if let Some(vlock) = self.quorum_supported(ph).into_iter().next() {
                    self.my_lock.insert(ph, vlock.clone());
                    directs.insert(Direct::Lock { v: vlock, ph });
                }
            }
            4 => {
                let candidates: Vec<V> = self
                    .leader_locks
                    .get(&ph)
                    .map(|locks| {
                        locks
                            .iter()
                            .filter(|v| self.propose_support(ph, v) >= self.quorum())
                            .cloned()
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some(v) = candidates.into_iter().next() {
                    self.bcast.broadcast(Payload::Vote { v, ph });
                }
            }
            6 => {
                let quorum = self.quorum();
                let choice = self
                    .domain
                    .values()
                    .iter()
                    .find(|v| self.vote_support(ph, v) >= quorum)
                    .cloned();
                if let Some(v) = choice {
                    let stale: Vec<(V, u64)> = self
                        .locks
                        .iter()
                        .filter(|(w_, _)| *w_ == v)
                        .cloned()
                        .collect();
                    for pair in stale {
                        self.locks.remove(&pair);
                    }
                    self.locks.insert((v.clone(), ph));
                    directs.insert(Direct::Ack { v, ph });
                }
            }
            7 => {
                if let Some(v) = &self.decision {
                    directs.insert(Direct::Decide { v: v.clone() });
                }
            }
            _ => {}
        }

        vec![(Recipients::All, self.build_or_reuse(round, directs))]
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<BoundedBundle<V>>) {
        let PhasePos { ph, w } = phase_pos(round);

        // Broadcast layer. Within the window echo evidence is cumulative
        // and idempotent per (identifier, item), and the horizon only
        // rises, so an item once fed from an identifier — counted, or
        // ignored as below the horizon — changes nothing when fed again:
        // it is already counted, or (still, or by now) below the horizon.
        // Hence the faithful stack's rule: an echo set re-delivered as the
        // *same* `Arc` is skipped; a changed one whose hint names a set
        // already counted from that identifier is narrowed to the hint's
        // delta (`echoes == prev ∪ delta`); any other is narrowed to its
        // difference against a counted set, or scanned in full.
        // The one item that is ignored today and counts later is one
        // stamped past our own superround, so a set holding such an item
        // is not remembered as counted and is scanned again each round.
        let now_sr = round.superround().index();
        let mut inits: Vec<(Id, &Payload<V>)> = Vec::new();
        let mut echoes: Vec<(Id, &EchoItem<Payload<V>>)> = Vec::new();
        let mut watermarks: Vec<(Id, u64)> = Vec::new();
        let mut counted_now: Vec<(Id, EchoSet<V>)> = Vec::with_capacity(inbox.len());
        for (src, bundle, _) in inbox.iter() {
            for p in &bundle.inits {
                inits.push((src, p));
            }
            watermarks.push((src, bundle.watermark));
            let prev = self.seen_echoes.get(&src).map_or(&[][..], Vec::as_slice);
            let fed_from = echoes.len();
            let counted = |set: &EchoSet<V>| prev.iter().any(|e| Arc::ptr_eq(e, set));
            if !counted(&bundle.echoes) {
                if counted(&bundle.hint.0) {
                    echoes.extend(bundle.hint.1.iter().map(|e| (src, e)));
                } else if let Some(baseline) = prev.first() {
                    echoes.extend(bundle.echoes.difference(baseline).map(|e| (src, e)));
                } else {
                    echoes.extend(bundle.echoes.iter().map(|e| (src, e)));
                }
            }
            if echoes[fed_from..].iter().all(|(_, e)| e.sr <= now_sr) {
                counted_now.push((src, Arc::clone(&bundle.echoes)));
            }
        }
        let accepts = self.bcast.observe(round, &inits, &echoes, &watermarks);
        self.route_accepts(accepts);
        // An identifier keeps its last counted sets while it is silent or
        // sends only unsettled ones: an old baseline never stops being a
        // valid shortcut. `counted_now` is grouped by identifier.
        let mut last = None;
        for (src, set) in counted_now {
            let sets = self.seen_echoes.entry(src).or_default();
            if last != Some(src) {
                sets.clear();
                last = Some(src);
            }
            sets.push(set);
        }

        let proper_views: Vec<(Id, &BTreeSet<V>)> =
            inbox.iter().map(|(src, b, _)| (src, &*b.proper)).collect();
        update_proper(&mut self.proper, &self.domain, self.t, &proper_views);

        let leader = Id::phase_leader(ph, self.ell);
        if (2..=5).contains(&w) {
            for (src, bundle, _) in inbox.iter() {
                if src != leader {
                    continue;
                }
                for d in &bundle.directs {
                    if let Direct::Lock { v, ph: lph } = d {
                        if *lph == ph && self.domain.contains(v) {
                            self.leader_locks.entry(ph).or_default().insert(v.clone());
                        }
                    }
                }
            }
        }

        if w == 6 && self.is_leader(ph) && self.decision.is_none() {
            if let Some(vlock) = self.my_lock.get(&ph).cloned() {
                let ack_ids: BTreeSet<Id> = inbox
                    .ids_where(|b| {
                        b.directs
                            .iter()
                            .any(|d| matches!(d, Direct::Ack { v, ph: aph } if *v == vlock && *aph == ph))
                    })
                    .collect();
                if ack_ids.len() >= self.quorum() {
                    self.decide(vlock);
                }
            }
        }

        if w == 7 {
            if self.decision.is_none() {
                for v in self.domain.values() {
                    let ids: BTreeSet<Id> = inbox
                        .ids_where(|b| {
                            b.directs
                                .iter()
                                .any(|d| matches!(d, Direct::Decide { v: dv } if dv == v))
                        })
                        .collect();
                    if ids.len() >= self.t + 1 {
                        self.decide(v.clone());
                        break;
                    }
                }
            }
            self.release_locks();
            self.prune_phases(ph);
        }
    }

    fn decision(&self) -> Option<V> {
        self.decision.clone()
    }

    fn state_bits(&self) -> u64 {
        let mut bits = self.bcast.state_bits();
        bits += self.proper.len() as u64 * 64;
        bits += self.locks.len() as u64 * 128;
        for per_id in self.propose_acc.values() {
            for sets in per_id.values() {
                bits += 128;
                bits += sets.iter().map(|s| 64 + s.len() as u64 * 64).sum::<u64>();
            }
        }
        for per_v in self.vote_acc.values() {
            for ids in per_v.values() {
                bits += 64 + ids.len() as u64 * 16;
            }
        }
        bits += self
            .leader_locks
            .values()
            .map(|s| 64 + s.len() as u64 * 64)
            .sum::<u64>();
        bits += self.my_lock.len() as u64 * 128;
        bits += self
            .seen_echoes
            .values()
            .map(|sets| sets.len() as u64 * 64)
            .sum::<u64>();
        bits
    }
}

/// A [`ProtocolFactory`] for [`BoundedAgreement`] processes.
#[derive(Clone, Debug)]
pub struct BoundedAgreementFactory<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
    window: u64,
}

impl<V: Value> BoundedAgreementFactory<V> {
    /// Creates a factory with the default pruning window.
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>) -> Self {
        BoundedAgreementFactory {
            n,
            ell,
            t,
            domain,
            window: DEFAULT_WINDOW_SUPERROUNDS,
        }
    }

    /// Overrides the pruning window (superrounds kept behind the stable
    /// superround); the per-phase retention scales with it.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Conservative rounds-to-decision after stabilization.
    pub fn round_bound(&self) -> u64 {
        BoundedAgreement::<V>::round_bound(self.n, self.ell)
    }
}

impl<V: Value> ProtocolFactory for BoundedAgreementFactory<V> {
    type P = BoundedAgreement<V>;

    fn spawn(&self, id: Id, input: V) -> BoundedAgreement<V> {
        let domain = self.domain.clone();
        BoundedAgreement::with_window(self.n, self.ell, self.t, domain, id, input, self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::{Counting, Envelope};

    #[test]
    fn thresholds_match_faithful() {
        let b: BoundedEchoBroadcast<&'static str> = BoundedEchoBroadcast::new(7, 2);
        assert_eq!(b.accept_threshold(), 5);
        assert_eq!(b.join_threshold(), 3);
    }

    /// A tiny synchronous network of the bounded broadcast layer alone.
    struct Net {
        procs: Vec<BoundedEchoBroadcast<&'static str>>,
        round: Round,
    }

    impl Net {
        fn new(ell: usize, t: usize, window: u64) -> Self {
            Net {
                procs: (0..ell)
                    .map(|_| BoundedEchoBroadcast::with_window(ell, t, window))
                    .collect(),
                round: Round::ZERO,
            }
        }

        fn step(&mut self) -> Vec<Vec<Accept<&'static str>>> {
            let r = self.round;
            let mut all_inits: Vec<(Id, &'static str)> = Vec::new();
            let mut all_echoes: Vec<(Id, EchoItem<&'static str>)> = Vec::new();
            let mut marks: Vec<(Id, u64)> = Vec::new();
            for (k, p) in self.procs.iter_mut().enumerate() {
                let (inits, echoes) = p.shared_to_send(r);
                let id = Id::from_index(k);
                for m in inits {
                    all_inits.push((id, m));
                }
                for e in echoes.iter() {
                    all_echoes.push((id, e.clone()));
                }
                marks.push((id, r.superround().index()));
            }
            let inits_ref: Vec<(Id, &&'static str)> =
                all_inits.iter().map(|(i, m)| (*i, m)).collect();
            let echoes_ref: Vec<(Id, &EchoItem<&'static str>)> =
                all_echoes.iter().map(|(i, e)| (*i, e)).collect();
            let out = self
                .procs
                .iter_mut()
                .map(|p| p.observe(r, &inits_ref, &echoes_ref, &marks))
                .collect();
            self.round = r.next();
            out
        }
    }

    #[test]
    fn correctness_accept_within_the_superround() {
        let mut net = Net::new(4, 1, 4);
        net.procs[0].broadcast("m");
        let accepts = net.step();
        assert!(accepts.iter().all(|a| a.is_empty()));
        let accepts = net.step();
        for per_proc in &accepts {
            assert_eq!(per_proc.len(), 1);
            assert_eq!(per_proc[0].payload, "m");
            assert_eq!(per_proc[0].src, Id::from_index(0));
            assert_eq!(per_proc[0].sr, 0);
        }
    }

    #[test]
    fn old_keys_are_pruned_and_state_plateaus() {
        // One broadcast per superround; with a window of 4 superrounds the
        // echoed-key count must stop growing once the horizon moves.
        let mut net = Net::new(4, 1, 4);
        let payloads: Vec<&'static str> = vec![
            "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "p10", "p11", "p12", "p13",
            "p14", "p15",
        ];
        let mut sizes = Vec::new();
        for sr in 0..16u64 {
            net.procs[0].broadcast(payloads[sr as usize]);
            net.step();
            net.step();
            sizes.push(net.procs[1].echoing_len());
        }
        let plateau = *sizes.last().unwrap();
        assert!(plateau <= 6, "window 4 must bound the echo set: {sizes:?}");
        assert!(net.procs[1].horizon() > 0, "horizon must have advanced");
        // The faithful layer would hold all 16 keys here.
        assert!(plateau < 16);
        // state_bits plateaus too (same value for the last few superrounds'
        // worth of sizes once stable).
        assert_eq!(sizes[14], sizes[15], "steady state must be flat");
    }

    #[test]
    fn byzantine_watermarks_cannot_fast_forward_the_horizon() {
        let mut p: BoundedEchoBroadcast<&'static str> = BoundedEchoBroadcast::with_window(4, 1, 2);
        // ℓ − t = 3 forged watermarks claiming superround 1000, fed at
        // round 0: capped at our superround (0), horizon stays 0.
        let marks: Vec<(Id, u64)> = (1..=3u16).map(|i| (Id::new(i), 1000)).collect();
        let _ = p.observe(Round::ZERO, &[], &[], &marks);
        assert_eq!(p.horizon(), 0);
    }

    #[test]
    fn future_superround_echoes_are_ignored() {
        let mut p: BoundedEchoBroadcast<&'static str> = BoundedEchoBroadcast::new(4, 1);
        let forged = EchoItem::new("future", 50, Id::new(2));
        let echoes: Vec<(Id, &EchoItem<&'static str>)> = vec![
            (Id::new(1), &forged),
            (Id::new(2), &forged),
            (Id::new(3), &forged),
        ];
        let accepts = p.observe(Round::ZERO, &[], &echoes, &[]);
        assert!(accepts.is_empty());
        assert_eq!(p.echoing_len(), 0);
    }

    /// Runs a fully synchronous, failure-free network of the bounded
    /// protocol and returns per-process decisions.
    fn run_clean(
        n: usize,
        ell: usize,
        t: usize,
        assignment: &[u16],
        inputs: &[bool],
        rounds: u64,
    ) -> Vec<Option<bool>> {
        let factory = BoundedAgreementFactory::new(n, ell, t, Domain::binary());
        let mut procs: Vec<BoundedAgreement<bool>> = (0..n)
            .map(|k| factory.spawn(Id::new(assignment[k]), inputs[k]))
            .collect();
        for r in 0..rounds {
            let round = Round::new(r);
            let outs: Vec<BoundedBundle<bool>> = procs
                .iter_mut()
                .map(|p| p.send(round).remove(0).1)
                .collect();
            let envs: Vec<Envelope<BoundedBundle<bool>>> = outs
                .iter()
                .enumerate()
                .map(|(k, b)| Envelope {
                    src: Id::new(assignment[k]),
                    msg: b.clone(),
                })
                .collect();
            let inbox = Inbox::collect(envs, Counting::Innumerate);
            for p in &mut procs {
                p.receive(round, &inbox);
            }
        }
        procs.iter().map(|p| p.decision()).collect()
    }

    #[test]
    fn unanimous_clean_run_decides_input() {
        for v in [false, true] {
            let decisions = run_clean(4, 4, 1, &[1, 2, 3, 4], &[v; 4], 8 * 6);
            for d in &decisions {
                assert_eq!(*d, Some(v));
            }
        }
    }

    #[test]
    fn split_inputs_agree() {
        let decisions = run_clean(4, 4, 1, &[1, 2, 3, 4], &[false, true, false, true], 8 * 6);
        assert!(decisions[0].is_some());
        assert!(decisions.iter().all(|d| *d == decisions[0]));
    }

    #[test]
    fn homonyms_with_different_inputs_still_agree() {
        let decisions = run_clean(
            7,
            6,
            1,
            &[1, 1, 2, 3, 4, 5, 6],
            &[false, true, true, false, true, false, true],
            8 * 8,
        );
        assert!(decisions[0].is_some(), "{decisions:?}");
        assert!(decisions.iter().all(|d| *d == decisions[0]));
    }

    #[test]
    fn bundle_watermark_tracks_superround() {
        let mut p = BoundedAgreement::new(4, 4, 1, Domain::binary(), Id::new(1), true);
        let b0 = p.send(Round::new(0)).remove(0).1;
        assert_eq!(b0.watermark(), 0);
        let b5 = p.send(Round::new(5)).remove(0).1;
        assert_eq!(b5.watermark(), 2);
    }

    #[test]
    fn state_bits_is_nonzero_and_bounded_long_run() {
        let factory = BoundedAgreementFactory::new(4, 4, 1, Domain::binary()).with_window(4);
        let mut procs: Vec<BoundedAgreement<bool>> = (1..=4u16)
            .map(|i| factory.spawn(Id::new(i), i % 2 == 0))
            .collect();
        let mut peak_mid = 0u64;
        let mut last = 0u64;
        for r in 0..8 * 40 {
            let round = Round::new(r);
            let outs: Vec<BoundedBundle<bool>> = procs
                .iter_mut()
                .map(|p| p.send(round).remove(0).1)
                .collect();
            let envs: Vec<Envelope<BoundedBundle<bool>>> = outs
                .iter()
                .enumerate()
                .map(|(k, b)| Envelope {
                    src: Id::new(k as u16 + 1),
                    msg: b.clone(),
                })
                .collect();
            let inbox = Inbox::collect(envs, Counting::Innumerate);
            for p in &mut procs {
                p.receive(round, &inbox);
            }
            let total: u64 = procs.iter().map(|p| p.state_bits()).sum();
            if r == 8 * 10 {
                peak_mid = total;
            }
            last = total;
        }
        assert!(last > 0);
        // 30 further phases must not grow the state (allow a little jitter
        // for in-flight per-phase tables).
        assert!(
            last <= peak_mid.saturating_add(peak_mid / 4),
            "state grew over 30 idle phases: mid={peak_mid} last={last}"
        );
    }
}
