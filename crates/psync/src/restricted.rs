//! The partially synchronous agreement protocol for numerate processes
//! against restricted Byzantine senders (Figure 7, Appendix A.3.2).
//!
//! Same phase skeleton as Figure 5 — four superrounds per phase:
//! propose / lock / vote / ack — but every quorum is a **witness count**
//! over the multiplicity broadcast of Figure 6 rather than an identifier
//! count. The number of witnesses a process has for `(m, r)` is the sum
//! over identifiers `i` of the `αᵢ` in its `Accept(i, αᵢ, m, r)` actions.
//!
//! Safety rests on `n > 3t` (witness sets of size `n − t` pairwise
//! intersect in a correct broadcaster — Lemma 31); liveness rests on
//! `ℓ > t`: some identifier is held only by correct processes, and when
//! its holders lead a phase after stabilization every correct process
//! decides (Proposition 40). This is why `t + 1` identifiers suffice here,
//! versus `> (n + 3t)/2` for unrestricted Byzantine processes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::intern::Tok;
use homonym_core::{
    Domain, Id, Inbox, Interner, Protocol, ProtocolFactory, Recipients, Round, Value,
};

use crate::mult_broadcast::{MultBroadcast, MultPart};

/// Payloads of the multiplicity broadcast layer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestrictedPayload<V> {
    /// `⟨propose v⟩` — broadcast in superround `4ph` (Figure 7 line 7).
    /// Unlike Figure 5's set-valued proposals, each proper value is
    /// broadcast separately.
    Propose(V),
    /// `⟨vote v⟩` — broadcast in superround `4ph + 2` (line 14).
    Vote(V),
}

/// Direct (non-broadcast) items. Shared with the bounded variant
/// (`crate::bounded_restricted`), which speaks the same vocabulary.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Direct<V> {
    /// `⟨lock, v, ph⟩` (line 10).
    Lock {
        /// The leader's lock value.
        v: V,
        /// The phase.
        ph: u64,
    },
    /// `⟨ack, v, ph⟩` (line 19).
    Ack {
        /// The acked value.
        v: V,
        /// The phase.
        ph: u64,
    },
}

/// The single wire message per round: the Figure 6 part, the direct items,
/// and the proper set appended to every message.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RestrictedBundle<V> {
    part: MultPart<RestrictedPayload<V>>,
    directs: BTreeSet<Direct<V>>,
    proper: BTreeSet<V>,
}

impl<V: Value + WireEncode> WireEncode for RestrictedPayload<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            RestrictedPayload::Propose(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            RestrictedPayload::Vote(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<V: Value + WireDecode> WireDecode for RestrictedPayload<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(RestrictedPayload::Propose(V::decode(r)?)),
            1 => Ok(RestrictedPayload::Vote(V::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "RestrictedPayload",
                tag,
            }),
        }
    }
}

impl<V: Value + WireEncode> WireEncode for Direct<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Direct::Lock { v, ph } => {
                w.put_u8(0);
                v.encode(w);
                ph.encode(w);
            }
            Direct::Ack { v, ph } => {
                w.put_u8(1);
                v.encode(w);
                ph.encode(w);
            }
        }
    }
}

impl<V: Value + WireDecode> WireDecode for Direct<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(Direct::Lock {
                v: V::decode(r)?,
                ph: u64::decode(r)?,
            }),
            1 => Ok(Direct::Ack {
                v: V::decode(r)?,
                ph: u64::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "Direct",
                tag,
            }),
        }
    }
}

impl<V: Value + WireEncode> WireEncode for RestrictedBundle<V> {
    fn encode(&self, w: &mut Writer) {
        self.part.encode(w);
        self.directs.encode(w);
        self.proper.encode(w);
    }
}

impl<V: Value + WireDecode> WireDecode for RestrictedBundle<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RestrictedBundle {
            part: MultPart::decode(r)?,
            directs: BTreeSet::decode(r)?,
            proper: BTreeSet::decode(r)?,
        })
    }
}

impl<V: Value> RestrictedBundle<V> {
    /// The `⟨ack, v, ph⟩` items this bundle carries, as `(value, phase)`
    /// pairs. Diagnostic: the Lemma 32 invariant tests scan execution
    /// traces for acks sent by correct processes.
    pub fn acks(&self) -> Vec<(&V, u64)> {
        self.directs
            .iter()
            .filter_map(|d| match d {
                Direct::Ack { v, ph } => Some((v, *ph)),
                _ => None,
            })
            .collect()
    }

    /// The `⟨lock, v, ph⟩` leader requests this bundle carries.
    pub fn lock_requests(&self) -> Vec<(&V, u64)> {
        self.directs
            .iter()
            .filter_map(|d| match d {
                Direct::Lock { v, ph } => Some((v, *ph)),
                _ => None,
            })
            .collect()
    }

    /// The proper set appended to this bundle.
    pub fn proper_view(&self) -> &BTreeSet<V> {
        &self.proper
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PhasePos {
    ph: u64,
    /// Round within the phase, `0..8` (four superrounds).
    w: u64,
}

fn phase_pos(round: Round) -> PhasePos {
    PhasePos {
        ph: round.index() / 8,
        w: round.index() % 8,
    }
}

/// One process of the Figure 7 protocol.
///
/// # Example
///
/// ```
/// use homonym_core::{Domain, Id, Protocol};
/// use homonym_psync::RestrictedAgreement;
///
/// // n = 4, ℓ = 2, t = 1: ℓ > t and n > 3t — solvable against restricted
/// // Byzantine processes even though ℓ ≤ 3t.
/// let p = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(2), true);
/// assert_eq!(p.id(), Id::new(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RestrictedAgreement<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
    id: Id,

    proper: BTreeSet<V>,
    locks: BTreeSet<(V, u64)>,
    decision: Option<V>,

    bcast: MultBroadcast<RestrictedPayload<V>>,
    /// Every distinct accepted payload, interned once — the witness table
    /// keys on tokens so the per-round quorum probes never deep-compare
    /// or clone payloads.
    wit_intern: Interner<RestrictedPayload<V>>,
    /// Cumulative witness table: `(payload token, sr)` → identifier → the
    /// largest α accepted from it. The witness count is the sum over
    /// identifiers.
    witnesses: BTreeMap<(Tok, u64), BTreeMap<Id, u64>>,
    /// Lock values received from the leader identifier, per phase.
    leader_locks: BTreeMap<u64, BTreeSet<V>>,
    /// The last bundle built, plus the fingerprints deciding whether it
    /// can be re-sent as-is (the same incremental-bundle scheme as the
    /// Figure 5 protocol).
    send_cache: Option<SendCache<V>>,
}

/// The cached outgoing bundle and the state fingerprints it was built
/// from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SendCache<V> {
    bundle: Arc<RestrictedBundle<V>>,
    /// [`MultBroadcast`] generation at build time.
    generation: u64,
    /// Proper-set size at build time (the proper set only grows).
    proper_len: usize,
    /// Only bundles with no `⟨init⟩` tuples and no directs may be
    /// re-sent (echo tuples stay valid: their `R ≥ 2k` bound is
    /// monotone in the round).
    reusable: bool,
}

impl<V: Value> RestrictedAgreement<V> {
    /// Creates the automaton for a process holding `id` proposing `input`.
    ///
    /// Correct when `n > 3t` (safety) and `ℓ > t` (liveness); may be
    /// instantiated outside that range for lower-bound experiments.
    ///
    /// # Panics
    ///
    /// Panics if `input` is outside `domain`.
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>, id: Id, input: V) -> Self {
        assert!(domain.contains(&input), "input must belong to the domain");
        RestrictedAgreement {
            n,
            ell,
            t,
            id,
            proper: BTreeSet::from([input]),
            locks: BTreeSet::new(),
            decision: None,
            bcast: MultBroadcast::new(n, t, id),
            wit_intern: Interner::new(),
            witnesses: BTreeMap::new(),
            leader_locks: BTreeMap::new(),
            send_cache: None,
            domain,
        }
    }

    /// The witness quorum `n − t`.
    pub fn quorum(&self) -> u64 {
        (self.n - self.t) as u64
    }

    /// The proper set (diagnostic).
    pub fn proper(&self) -> &BTreeSet<V> {
        &self.proper
    }

    /// The lock set (diagnostic).
    pub fn locks(&self) -> &BTreeSet<(V, u64)> {
        &self.locks
    }

    fn is_leader(&self, ph: u64) -> bool {
        Id::phase_leader(ph, self.ell) == self.id
    }

    /// The current number of witnesses for `(payload, sr)`.
    fn witness_count(&self, payload: &RestrictedPayload<V>, sr: u64) -> u64 {
        self.wit_intern
            .get(payload)
            .and_then(|tok| self.witnesses.get(&(tok, sr)))
            .map(|per_id| per_id.values().sum())
            .unwrap_or(0)
    }

    /// Line 6: proper values not excluded by a lock on another value.
    fn candidate_set(&self) -> BTreeSet<V> {
        self.proper
            .iter()
            .filter(|v| !self.locks.iter().any(|(w, _)| w != *v))
            .cloned()
            .collect()
    }

    /// Values with at least `n − t` witnesses for `⟨propose v⟩` at
    /// superround `4ph`, ascending.
    fn witnessed_proposals(&self, ph: u64) -> Vec<V> {
        self.domain
            .values()
            .iter()
            .filter(|v| {
                self.witness_count(&RestrictedPayload::Propose((*v).clone()), 4 * ph)
                    >= self.quorum()
            })
            .cloned()
            .collect()
    }

    fn decide(&mut self, v: V) {
        if self.decision.is_none() {
            self.decision = Some(v);
        }
    }

    /// Lines 24–26: release locks overtaken by `n − t` witnesses for a
    /// vote on a different value in a later phase.
    fn release_locks(&mut self) {
        let quorum = self.quorum();
        let overtaken: Vec<(V, u64)> = self
            .locks
            .iter()
            .filter(|(v1, ph1)| {
                self.witnesses.iter().any(|(&(tok, sr), per_id)| {
                    matches!(self.wit_intern.resolve(tok), RestrictedPayload::Vote(v2) if v2 != v1)
                        && sr > 4 * ph1 + 2
                        && per_id.values().sum::<u64>() >= quorum
                })
            })
            .cloned()
            .collect();
        for pair in overtaken {
            self.locks.remove(&pair);
        }
    }

    /// Conservative rounds to decision after stabilization: every
    /// identifier leads within `ℓ` phases, plus slack.
    pub fn round_bound(ell: usize) -> u64 {
        8 * (ell as u64 + 2)
    }
}

impl<V: Value> Protocol for RestrictedAgreement<V> {
    type Msg = RestrictedBundle<V>;
    type Value = V;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, RestrictedBundle<V>)> {
        self.send_shared(round)
            .into_iter()
            .map(|(recipients, bundle)| (recipients, (*bundle).clone()))
            .collect()
    }

    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<RestrictedBundle<V>>)> {
        let PhasePos { ph, w } = phase_pos(round);
        let mut directs = BTreeSet::new();

        match w {
            0 => {
                // Line 7: broadcast each candidate value separately.
                for v in self.candidate_set() {
                    self.bcast.broadcast(RestrictedPayload::Propose(v), 4 * ph);
                }
            }
            2 if self.is_leader(ph) => {
                // Lines 9–10: leaders lock a witnessed proposal.
                if let Some(v) = self.witnessed_proposals(ph).into_iter().next() {
                    directs.insert(Direct::Lock { v, ph });
                }
            }
            4 => {
                // Lines 12–14: vote for a leader lock with witness support.
                let candidate = self
                    .leader_locks
                    .get(&ph)
                    .into_iter()
                    .flatten()
                    .find(|v| {
                        self.witness_count(&RestrictedPayload::Propose((*v).clone()), 4 * ph)
                            >= self.quorum()
                    })
                    .cloned();
                if let Some(v) = candidate {
                    self.bcast.broadcast(RestrictedPayload::Vote(v), 4 * ph + 2);
                }
            }
            6 => {
                // Lines 16–19: lock and ack a witnessed vote.
                let choice = self
                    .domain
                    .values()
                    .iter()
                    .find(|v| {
                        self.witness_count(&RestrictedPayload::Vote((*v).clone()), 4 * ph + 2)
                            >= self.quorum()
                    })
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
            _ => {}
        }

        // Reuse the cached bundle when its content would be identical:
        // no directs, no due inits, echo table and proper set untouched.
        if directs.is_empty() && !self.bcast.init_due(round) {
            if let Some(cache) = &self.send_cache {
                if cache.reusable
                    && cache.generation == self.bcast.generation()
                    && cache.proper_len == self.proper.len()
                {
                    return vec![(Recipients::All, Arc::clone(&cache.bundle))];
                }
            }
        }
        let part = self.bcast.part_to_send(round);
        let reusable = part.inits.is_empty() && directs.is_empty();
        let bundle = Arc::new(RestrictedBundle {
            part,
            directs,
            proper: self.proper.clone(),
        });
        self.send_cache = Some(SendCache {
            bundle: Arc::clone(&bundle),
            generation: self.bcast.generation(),
            proper_len: self.proper.len(),
            reusable,
        });
        vec![(Recipients::All, bundle)]
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<RestrictedBundle<V>>) {
        let PhasePos { ph, w } = phase_pos(round);

        // Broadcast layer (numerate: multiplicities flow through; no
        // pointer-skip here — Figure 6 recomputes its thresholds from
        // each round's support multiset, so every part must be scanned).
        let received: Vec<(Id, &MultPart<RestrictedPayload<V>>, u64)> = inbox
            .iter()
            .map(|(src, b, mult)| (src, &b.part, mult))
            .collect();
        for accept in self.bcast.observe(round, &received) {
            let key = (self.wit_intern.intern(&accept.payload), accept.sr);
            let per_id = self.witnesses.entry(key).or_default();
            let entry = per_id.entry(accept.src).or_insert(0);
            *entry = (*entry).max(accept.alpha);
        }

        // Proper-set rules (numerate: count messages with multiplicity).
        {
            let views: Vec<(u64, &BTreeSet<V>)> =
                inbox.iter().map(|(_, b, mult)| (mult, &b.proper)).collect();
            let total: u64 = views.iter().map(|&(c, _)| c).sum();
            let mut reached = false;
            for v in self.domain.values() {
                let support: u64 = views
                    .iter()
                    .filter(|(_, s)| s.contains(v))
                    .map(|&(c, _)| c)
                    .sum();
                if support >= self.t as u64 + 1 {
                    if !self.proper.contains(v) {
                        self.proper.insert(v.clone());
                    }
                    reached = true;
                }
            }
            if !reached && total >= 2 * self.t as u64 + 1 {
                for v in self.domain.values() {
                    if !self.proper.contains(v) {
                        self.proper.insert(v.clone());
                    }
                }
            }
        }

        // Leader lock messages for this phase.
        if (2..=5).contains(&w) {
            let leader = Id::phase_leader(ph, self.ell);
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

        if w == 6 {
            // Lines 20–23: decide on n − t ack messages (with multiplicity)
            // for a value with n − t witnessed proposals. Note: *anyone*
            // decides here, not just leaders — no decide relay is needed.
            if self.decision.is_none() {
                let quorum = self.quorum();
                let choice = self
                    .domain
                    .values()
                    .iter()
                    .find(|v| {
                        let acks = inbox.count_where(|b| {
                            b.directs.iter().any(
                                |d| matches!(d, Direct::Ack { v: av, ph: aph } if av == *v && *aph == ph),
                            )
                        });
                        acks >= quorum
                            && self.witness_count(&RestrictedPayload::Propose((*v).clone()), 4 * ph)
                                >= quorum
                    })
                    .cloned();
                if let Some(v) = choice {
                    self.decide(v);
                }
            }
        }

        if w == 7 {
            self.release_locks();
        }
    }

    fn decision(&self) -> Option<V> {
        self.decision.clone()
    }

    fn state_bits(&self) -> u64 {
        let mut bits = self.bcast.state_bits();
        bits += self.proper.len() as u64 * 64;
        bits += self.locks.len() as u64 * 128;
        bits += self.wit_intern.len() as u64 * 128;
        for per_id in self.witnesses.values() {
            bits += 128 + per_id.len() as u64 * 80;
        }
        bits += self
            .leader_locks
            .values()
            .map(|s| 64 + s.len() as u64 * 64)
            .sum::<u64>();
        bits
    }
}

/// A [`ProtocolFactory`] for [`RestrictedAgreement`] processes.
#[derive(Clone, Debug)]
pub struct RestrictedFactory<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
}

impl<V: Value> RestrictedFactory<V> {
    /// Creates a factory for `n` processes, `ell` identifiers, fault bound
    /// `t`, over `domain`.
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>) -> Self {
        RestrictedFactory { n, ell, t, domain }
    }

    /// Conservative rounds-to-decision after stabilization.
    pub fn round_bound(&self) -> u64 {
        RestrictedAgreement::<V>::round_bound(self.ell)
    }
}

impl<V: Value> ProtocolFactory for RestrictedFactory<V> {
    type P = RestrictedAgreement<V>;

    fn spawn(&self, id: Id, input: V) -> RestrictedAgreement<V> {
        RestrictedAgreement::new(self.n, self.ell, self.t, self.domain.clone(), id, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::{Counting, Envelope};

    fn run_clean(
        n: usize,
        ell: usize,
        t: usize,
        assignment: &[u16],
        inputs: &[bool],
        rounds: u64,
    ) -> Vec<Option<bool>> {
        let mut procs: Vec<RestrictedAgreement<bool>> = (0..n)
            .map(|k| {
                RestrictedAgreement::new(
                    n,
                    ell,
                    t,
                    Domain::binary(),
                    Id::new(assignment[k]),
                    inputs[k],
                )
            })
            .collect();
        for r in 0..rounds {
            let round = Round::new(r);
            let outs: Vec<RestrictedBundle<bool>> = procs
                .iter_mut()
                .map(|p| p.send(round).remove(0).1)
                .collect();
            let envs: Vec<Envelope<RestrictedBundle<bool>>> = outs
                .iter()
                .enumerate()
                .map(|(k, b)| Envelope {
                    src: Id::new(assignment[k]),
                    msg: b.clone(),
                })
                .collect();
            let inbox = Inbox::collect(envs, Counting::Numerate);
            for p in &mut procs {
                p.receive(round, &inbox);
            }
        }
        procs.iter().map(|p| p.decision()).collect()
    }

    #[test]
    fn unanimous_anonymous_system_decides() {
        // The striking case: ℓ = 2 = t + 1 identifiers for n = 4 processes —
        // far below the 3t + 1 identifiers unrestricted adversaries demand.
        for v in [false, true] {
            let decisions = run_clean(4, 2, 1, &[1, 2, 2, 2], &[v; 4], 8 * 5);
            for d in &decisions {
                assert_eq!(*d, Some(v));
            }
        }
    }

    #[test]
    fn split_inputs_agree() {
        let decisions = run_clean(4, 2, 1, &[1, 1, 2, 2], &[false, true, false, true], 8 * 5);
        assert!(decisions[0].is_some(), "{decisions:?}");
        assert!(
            decisions.iter().all(|d| *d == decisions[0]),
            "{decisions:?}"
        );
    }

    #[test]
    fn fully_anonymous_needs_t_zero() {
        // ℓ = 1, t = 0: trivially ℓ > t; everyone shares one identifier.
        let decisions = run_clean(3, 1, 0, &[1, 1, 1], &[true, true, true], 8 * 4);
        for d in &decisions {
            assert_eq!(*d, Some(true));
        }
    }

    #[test]
    fn witness_accumulation() {
        let mut p = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(1), true);
        let payload = RestrictedPayload::Propose(true);
        let key = (p.wit_intern.intern(&payload), 0u64);
        p.witnesses
            .entry(key)
            .or_default()
            .extend([(Id::new(1), 2u64), (Id::new(2), 1u64)]);
        assert_eq!(p.witness_count(&payload, 0), 3);
        // Max, not sum, per identifier.
        let per_id = p.witnesses.get_mut(&key).unwrap();
        let e = per_id.entry(Id::new(1)).or_insert(0);
        *e = (*e).max(1);
        assert_eq!(p.witness_count(&payload, 0), 3);
    }

    #[test]
    fn release_locks_on_later_vote_quorum() {
        let mut p = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(1), true);
        p.locks.insert((true, 0));
        // n − t = 3 witnesses for ⟨vote false⟩ at superround 4·1 + 2 = 6.
        let key = (p.wit_intern.intern(&RestrictedPayload::Vote(false)), 6);
        p.witnesses
            .entry(key)
            .or_default()
            .extend([(Id::new(1), 2u64), (Id::new(2), 1u64)]);
        p.release_locks();
        assert!(p.locks.is_empty());
    }

    #[test]
    fn lock_not_released_by_same_value_or_earlier_phase() {
        let mut p = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(1), true);
        p.locks.insert((true, 2));
        // Same value, later phase: no release.
        let same = (p.wit_intern.intern(&RestrictedPayload::Vote(true)), 14);
        p.witnesses.entry(same).or_default().insert(Id::new(1), 3);
        // Different value, earlier superround: no release.
        let earlier = (p.wit_intern.intern(&RestrictedPayload::Vote(false)), 6);
        p.witnesses
            .entry(earlier)
            .or_default()
            .insert(Id::new(1), 3);
        p.release_locks();
        assert!(p.locks.contains(&(true, 2)));
    }

    #[test]
    fn candidate_set_respects_locks() {
        let mut p = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(1), false);
        p.proper.insert(true);
        p.locks.insert((false, 1));
        assert_eq!(p.candidate_set(), BTreeSet::from([false]));
    }

    #[test]
    fn phase_leader_rotation_over_two_ids() {
        let p1 = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(1), true);
        let p2 = RestrictedAgreement::new(4, 2, 1, Domain::binary(), Id::new(2), true);
        assert!(p1.is_leader(0) && !p2.is_leader(0));
        assert!(!p1.is_leader(1) && p2.is_leader(1));
    }
}
