//! The partially synchronous homonym agreement protocol (Figure 5).
//!
//! Phases of four superrounds (eight rounds). In phase `ph`, every holder
//! of identifier `(ph mod ℓ) + 1` is a co-leader:
//!
//! | superround | action |
//! |---|---|
//! | 1 | everyone `Broadcast(⟨propose V, ph⟩)` — `V` is the proper set, or the locked value |
//! | 2 | leaders pick a `vlock` supported by accepted proposals from `ℓ − t` identifiers and send `⟨lock vlock, ph⟩` |
//! | 3 | everyone who saw a leader lock with `ℓ − t` accepted support `Broadcast(⟨vote v, ph⟩)` |
//! | 4 | `ℓ − t` accepted votes ⇒ lock `(v, ph)` and send `⟨ack v, ph⟩`; leaders decide on `ℓ − t` acks; deciders relay `⟨decide v⟩`, and `t + 1` decide messages let anyone decide |
//!
//! The three departures from Dwork–Lynch–Stockmeyer that homonyms force
//! (Section 4.2): identifier quorums of size `ℓ − t` whose pairwise
//! intersections contain a *sole-correct* identifier (Lemma 7, needing
//! `2ℓ > n + 3t`); the voting superround, because co-leaders sharing the
//! leader identifier may push different lock values; and the decide relay,
//! because a correct process sharing its identifier with a Byzantine
//! process may never drive a phase itself.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::{
    Domain, Id, IdBits, Inbox, Protocol, ProtocolFactory, Recipients, Round, Value,
};

use crate::broadcast::{EchoBroadcast, EchoItem};

/// Payloads sent through the authenticated broadcast layer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Payload<V> {
    /// `⟨propose V, ph⟩` (Figure 5 line 8).
    Propose {
        /// The proposer's candidate set `V`.
        values: BTreeSet<V>,
        /// The phase.
        ph: u64,
    },
    /// `⟨vote v, ph⟩` (line 16).
    Vote {
        /// The value voted for.
        v: V,
        /// The phase.
        ph: u64,
    },
}

/// Items carried outside the broadcast layer (plain send-to-all). Shared
/// with the bounded variant (`crate::bounded`), which speaks the same
/// direct-item vocabulary.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Direct<V> {
    /// `⟨lock v, ph⟩` from a phase leader (line 12).
    Lock {
        /// The leader's lock value.
        v: V,
        /// The phase.
        ph: u64,
    },
    /// `⟨ack v, ph⟩` (line 20).
    Ack {
        /// The acked value.
        v: V,
        /// The phase.
        ph: u64,
    },
    /// `⟨decide v⟩` (line 24).
    Decide {
        /// The decided value.
        v: V,
    },
}

/// The single wire message each process broadcasts per round: the
/// broadcast-layer items, the direct items, and the proper set that the
/// protocol appends to every message it sends.
///
/// The echo set sits behind its own [`Arc`], shared with the
/// [`EchoBroadcast`] layer that maintains it incrementally: rebuilding a
/// bundle because a direct item or an `⟨init⟩` changed costs one pointer
/// bump for the (typically large, forever-retransmitted) echo set, and a
/// receiver that already counted a pointer-identical set skips its scan.
/// `Arc` is transparent to `Debug`/`Ord`/`Eq`, so wire renderings,
/// orderings, and inbox dedup are exactly those of the plain set.
///
/// Alongside the four wire fields the bundle carries a *scan hint* — the
/// previous handed-out echo-set version and the items joined since
/// (`echoes == hint.0 ∪ hint.1`). The hint is **not** part of the wire
/// identity: it is excluded from `Debug`, `Eq`, and `Ord` (the manual
/// impls below), so traces, inbox dedup, and orderings are exactly those
/// of the four wire fields. It only lets a receiver that already counted
/// `hint.0` from this identifier scan the (small) `hint.1` instead of
/// the full set; a receiver that never saw `hint.0` ignores it.
#[derive(Clone)]
pub struct Bundle<V> {
    inits: BTreeSet<Payload<V>>,
    echoes: Arc<BTreeSet<EchoItem<Payload<V>>>>,
    directs: BTreeSet<Direct<V>>,
    proper: Arc<BTreeSet<V>>,
    /// `(prev, delta)` with `echoes == prev ∪ delta`; see above.
    hint: (EchoSet<V>, EchoSet<V>),
}

/// A shared echo-set handle (the type bundles and the broadcast layer
/// exchange).
type EchoSet<V> = Arc<BTreeSet<EchoItem<Payload<V>>>>;

impl<V> Bundle<V> {
    /// A bundle with a trivially consistent hint (`prev = ∅`,
    /// `delta = echoes`) — the constructor for hand-built bundles (tests,
    /// adversaries); engine-built bundles get the real incremental hint
    /// from the broadcast layer.
    #[cfg(test)]
    fn with_trivial_hint(
        inits: BTreeSet<Payload<V>>,
        echoes: EchoSet<V>,
        directs: BTreeSet<Direct<V>>,
        proper: Arc<BTreeSet<V>>,
    ) -> Self {
        let hint = (Arc::new(BTreeSet::new()), Arc::clone(&echoes));
        Bundle {
            inits,
            echoes,
            directs,
            proper,
            hint,
        }
    }

    /// The wire fields, as a tuple — the single definition of what
    /// participates in equality, ordering, and rendering.
    #[allow(clippy::type_complexity)]
    fn wire_fields(
        &self,
    ) -> (
        &BTreeSet<Payload<V>>,
        &Arc<BTreeSet<EchoItem<Payload<V>>>>,
        &BTreeSet<Direct<V>>,
        &Arc<BTreeSet<V>>,
    ) {
        (&self.inits, &self.echoes, &self.directs, &self.proper)
    }
}

impl<V: PartialEq> PartialEq for Bundle<V> {
    fn eq(&self, other: &Self) -> bool {
        self.wire_fields() == other.wire_fields()
    }
}

impl<V: Eq> Eq for Bundle<V> {}

impl<V: Ord> PartialOrd for Bundle<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Ord> Ord for Bundle<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.wire_fields().cmp(&other.wire_fields())
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for Bundle<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bundle")
            .field("inits", &self.inits)
            .field("echoes", &self.echoes)
            .field("directs", &self.directs)
            .field("proper", &self.proper)
            .finish()
    }
}

impl<V: Value + WireEncode> WireEncode for Payload<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Payload::Propose { values, ph } => {
                w.put_u8(0);
                values.encode(w);
                ph.encode(w);
            }
            Payload::Vote { v, ph } => {
                w.put_u8(1);
                v.encode(w);
                ph.encode(w);
            }
        }
    }
}

impl<V: Value + WireDecode> WireDecode for Payload<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(Payload::Propose {
                values: BTreeSet::decode(r)?,
                ph: u64::decode(r)?,
            }),
            1 => Ok(Payload::Vote {
                v: V::decode(r)?,
                ph: u64::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "Payload",
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
            Direct::Decide { v } => {
                w.put_u8(2);
                v.encode(w);
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
            2 => Ok(Direct::Decide { v: V::decode(r)? }),
            tag => Err(DecodeError::BadTag {
                what: "Direct",
                tag,
            }),
        }
    }
}

/// Only the four wire fields are encoded — the scan hint is a local
/// optimization (`echoes == hint.0 ∪ hint.1` already), so a decoded
/// bundle reconstructs the trivially consistent hint and compares equal
/// to the original under the wire-field `Eq`.
impl<V: Value + WireEncode> WireEncode for Bundle<V> {
    fn encode(&self, w: &mut Writer) {
        self.inits.encode(w);
        self.echoes.encode(w);
        self.directs.encode(w);
        self.proper.encode(w);
    }
}

impl<V: Value + WireDecode> WireDecode for Bundle<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let inits = BTreeSet::decode(r)?;
        let echoes: EchoSet<V> = Arc::new(BTreeSet::decode(r)?);
        let directs = BTreeSet::decode(r)?;
        let proper = Arc::new(BTreeSet::decode(r)?);
        let hint = (Arc::new(BTreeSet::new()), Arc::clone(&echoes));
        Ok(Bundle {
            inits,
            echoes,
            directs,
            proper,
            hint,
        })
    }
}

impl<V: Value> Bundle<V> {
    /// The `⟨ack v, ph⟩` items this bundle carries, as `(value, phase)`
    /// pairs. Diagnostic: the Lemma 8 invariant tests scan execution
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
}

/// Position of a round inside its phase (eight rounds per phase). Shared
/// with the bounded variant, which runs the same phase skeleton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PhasePos {
    pub(crate) ph: u64,
    /// Round within the phase, `0..8`.
    pub(crate) w: u64,
}

pub(crate) fn phase_pos(round: Round) -> PhasePos {
    PhasePos {
        ph: round.index() / 8,
        w: round.index() % 8,
    }
}

/// One process of the Figure 5 protocol.
///
/// # Example
///
/// ```
/// use homonym_core::{Domain, Id, Protocol};
/// use homonym_psync::HomonymAgreement;
///
/// // n = 4, ℓ = 4, t = 1: 2ℓ = 8 > n + 3t = 7, solvable.
/// let p = HomonymAgreement::new(4, 4, 1, Domain::binary(), Id::new(2), true);
/// assert_eq!(p.id(), Id::new(2));
/// ```
#[derive(Clone, Debug)]
pub struct HomonymAgreement<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
    id: Id,

    /// The proper set, behind an [`Arc`] shared with every bundle built
    /// from it — appending it to a bundle is a pointer bump, and
    /// clone-on-write only fires on the (rare) round it actually grows.
    proper: Arc<BTreeSet<V>>,
    /// `locks`: pairs `(v, ph)`.
    locks: BTreeSet<(V, u64)>,
    decision: Option<V>,

    bcast: EchoBroadcast<Payload<V>>,
    /// Accepted proposals: phase → identifier → the candidate sets accepted
    /// from it.
    propose_acc: BTreeMap<u64, BTreeMap<Id, BTreeSet<BTreeSet<V>>>>,
    /// Accepted votes: phase → value → identifiers accepted from.
    vote_acc: BTreeMap<u64, BTreeMap<V, BTreeSet<Id>>>,
    /// Lock values received from the leader identifier, per phase.
    leader_locks: BTreeMap<u64, BTreeSet<V>>,
    /// The lock value this process sent as a leader, per phase (line 21
    /// compares acks against it).
    my_lock: BTreeMap<u64, V>,
    /// Ablation switch: when false, the vote superround is skipped and a
    /// leader lock with quorum-supported proposals is acked directly (see
    /// [`AgreementFactory::ablated_without_votes`]).
    vote_superround: bool,

    /// The last bundle built, with the state fingerprints that decide
    /// whether it can be re-sent as-is (see
    /// [`HomonymAgreement::build_or_reuse`]).
    send_cache: Option<SendCache<V>>,
    /// Per sender identifier: the echo sets fully counted last round. A
    /// pointer-identical re-delivery (the sender's echo set did not grow,
    /// even if its directs/inits/proper did) skips the O(echoes) re-scan
    /// — echo evidence is cumulative and idempotent, so the skip is
    /// unobservable.
    seen_echoes: BTreeMap<Id, Vec<Arc<BTreeSet<EchoItem<Payload<V>>>>>>,
}

/// The cached outgoing bundle and the fingerprints of the state it was
/// built from.
#[derive(Clone, Debug)]
struct SendCache<V> {
    bundle: Arc<Bundle<V>>,
    /// [`EchoBroadcast`] generation at build time (echo set unchanged ⇔
    /// generations equal).
    generation: u64,
    /// Proper-set size at build time (the proper set only grows).
    proper_len: usize,
    /// Whether the bundle may be re-sent at all: only bundles carrying
    /// no `⟨init⟩`s and no direct items are round-agnostic.
    reusable: bool,
}

impl<V: Value> HomonymAgreement<V> {
    /// Creates the automaton for a process holding `id` proposing `input`
    /// in a system of `n` processes, `ell` identifiers, and at most `t`
    /// Byzantine processes.
    ///
    /// The protocol is correct when `2ℓ > n + 3t` and `n > 3t`; it can be
    /// instantiated outside that range (the Figure 4 experiment does).
    ///
    /// # Panics
    ///
    /// Panics if `input` is outside `domain`, or `ell < t`.
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>, id: Id, input: V) -> Self {
        assert!(domain.contains(&input), "input must belong to the domain");
        assert!(ell >= t, "quorum ell - t requires ell >= t");
        HomonymAgreement {
            n,
            ell,
            t,
            id,
            proper: Arc::new(BTreeSet::from([input])),
            locks: BTreeSet::new(),
            decision: None,
            bcast: EchoBroadcast::new(ell, t),
            propose_acc: BTreeMap::new(),
            vote_acc: BTreeMap::new(),
            leader_locks: BTreeMap::new(),
            my_lock: BTreeMap::new(),
            vote_superround: true,
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

    /// The lock set (diagnostic).
    pub fn locks(&self) -> &BTreeSet<(V, u64)> {
        &self.locks
    }

    /// Whether this process co-leads phase `ph`.
    fn is_leader(&self, ph: u64) -> bool {
        Id::phase_leader(ph, self.ell) == self.id
    }

    /// Line 7: the candidate set `V` — proper values not excluded by a
    /// lock on a different value.
    fn candidate_set(&self) -> BTreeSet<V> {
        self.proper
            .iter()
            .filter(|v| !self.locks.iter().any(|(w, _)| w != *v))
            .cloned()
            .collect()
    }

    /// The identifiers whose accepted proposals for `ph` contain `v`.
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

    /// The values with accepted-proposal support from at least `ℓ − t`
    /// identifiers in phase `ph`, ascending.
    fn quorum_supported(&self, ph: u64) -> Vec<V> {
        self.domain
            .values()
            .iter()
            .filter(|v| self.propose_support(ph, v) >= self.quorum())
            .cloned()
            .collect()
    }

    /// The identifiers whose `⟨vote v, ph⟩` we accepted.
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

    /// Routes newly accepted broadcast payloads into the evidence tables.
    fn route_accepts(&mut self, accepts: Vec<crate::broadcast::Accept<Payload<V>>>) {
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

    /// Lines 27–30: release locks overtaken by `ℓ − t` accepted votes for a
    /// different value in a later phase.
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

    /// A conservative bound on rounds to decision once the network is
    /// stable: every identifier leads within `ℓ` phases, plus one phase of
    /// slack, at eight rounds per phase.
    pub fn round_bound(n: usize, ell: usize) -> u64 {
        let _ = n;
        8 * (ell as u64 + 2)
    }

    /// This round's bundle: a shared handle on the cached one when
    /// nothing it carries changed since it was built (no directs, no due
    /// `⟨init⟩`s, echo set and proper set untouched), a fresh build
    /// otherwise. Reuse is the common case — mid-phase rounds only
    /// retransmit the standing echo set — and it is what keeps the
    /// steady-state round at zero payload clones (`psync_clone_budget`
    /// pins this).
    fn build_or_reuse(&mut self, round: Round, directs: BTreeSet<Direct<V>>) -> Arc<Bundle<V>> {
        if directs.is_empty() && !self.bcast.init_due(round) {
            if let Some(cache) = &self.send_cache {
                if cache.reusable
                    && cache.generation == self.bcast.generation()
                    && cache.proper_len == self.proper.len()
                {
                    return Arc::clone(&cache.bundle);
                }
            }
        }
        let (inits, echoes) = self.bcast.shared_to_send(round);
        let hint = self.bcast.wire_delta();
        let reusable = inits.is_empty() && directs.is_empty();
        let bundle = Arc::new(Bundle {
            inits: inits.into_iter().collect(),
            echoes,
            directs,
            proper: Arc::clone(&self.proper),
            hint,
        });
        self.send_cache = Some(SendCache {
            bundle: Arc::clone(&bundle),
            generation: self.bcast.generation(),
            proper_len: self.proper.len(),
            reusable,
        });
        bundle
    }
}

impl<V: Value> Protocol for HomonymAgreement<V> {
    type Msg = Bundle<V>;
    type Value = V;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, Bundle<V>)> {
        self.send_shared(round)
            .into_iter()
            .map(|(recipients, bundle)| (recipients, (*bundle).clone()))
            .collect()
    }

    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<Bundle<V>>)> {
        let PhasePos { ph, w } = phase_pos(round);
        let mut directs = BTreeSet::new();

        match w {
            0 => {
                // Superround 1: Broadcast(⟨propose V, ph⟩).
                let values = self.candidate_set();
                self.bcast.broadcast(Payload::Propose { values, ph });
            }
            2 if self.is_leader(ph) => {
                // Round 1 of superround 2: leaders send ⟨lock vlock, ph⟩.
                if let Some(vlock) = self.quorum_supported(ph).into_iter().next() {
                    self.my_lock.insert(ph, vlock.clone());
                    directs.insert(Direct::Lock { v: vlock, ph });
                }
            }
            4 if self.vote_superround => {
                // Superround 3: vote for a leader lock with quorum support.
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
                // Round 1 of superround 4: lock and ack.
                let quorum = self.quorum();
                let choice = if self.vote_superround {
                    self.domain
                        .values()
                        .iter()
                        .find(|v| self.vote_support(ph, v) >= quorum)
                        .cloned()
                } else {
                    // Ablated: ack whichever leader lock has quorum-supported
                    // proposals — different correct processes may have seen
                    // different leader locks, which is exactly the hazard the
                    // vote superround exists to rule out (Lemma 8).
                    self.leader_locks
                        .get(&ph)
                        .into_iter()
                        .flatten()
                        .find(|v| self.propose_support(ph, v) >= quorum)
                        .cloned()
                };
                if let Some(v) = choice {
                    // Line 19: add (v, ph), remove any other pair (v, *).
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
                // Round 2 of superround 4: deciders relay.
                if let Some(v) = &self.decision {
                    directs.insert(Direct::Decide { v: v.clone() });
                }
            }
            _ => {}
        }

        vec![(Recipients::All, self.build_or_reuse(round, directs))]
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<Bundle<V>>) {
        let PhasePos { ph, w } = phase_pos(round);

        // Broadcast layer: extract init/echo items from every bundle.
        // Echo evidence is cumulative and idempotent per (identifier,
        // item), so items already counted from this identifier need not
        // be re-fed: an echo set re-delivered as the *same* `Arc` (the
        // sender's standing set, unchanged even if its directs/inits/
        // proper moved) is skipped outright, and a changed set is
        // narrowed to its difference against a set previously counted
        // from the same identifier (sets only grow, so the difference is
        // the handful of newly joined items). Inits are round-dependent
        // (the superround is the receiver's), so they are always
        // extracted.
        let mut inits: Vec<(Id, &Payload<V>)> = Vec::new();
        let mut echoes: Vec<(Id, &EchoItem<Payload<V>>)> = Vec::new();
        let mut seen_now: BTreeMap<Id, Vec<Arc<BTreeSet<EchoItem<Payload<V>>>>>> = BTreeMap::new();
        for (src, bundle, _) in inbox.iter() {
            for p in &bundle.inits {
                inits.push((src, p));
            }
            let prev = self.seen_echoes.get(&src);
            let counted =
                prev.is_some_and(|sets| sets.iter().any(|e| Arc::ptr_eq(e, &bundle.echoes)));
            if !counted {
                let hinted =
                    prev.is_some_and(|sets| sets.iter().any(|e| Arc::ptr_eq(e, &bundle.hint.0)));
                if hinted {
                    // The sender's previous version was fully counted
                    // from this identifier: only the joined items are
                    // new.
                    for e in bundle.hint.1.iter() {
                        echoes.push((src, e));
                    }
                } else {
                    match prev.and_then(|sets| sets.first()) {
                        Some(baseline) => {
                            for e in bundle.echoes.difference(baseline) {
                                echoes.push((src, e));
                            }
                        }
                        None => {
                            for e in bundle.echoes.iter() {
                                echoes.push((src, e));
                            }
                        }
                    }
                }
            }
            seen_now
                .entry(src)
                .or_default()
                .push(Arc::clone(&bundle.echoes));
        }
        let accepts = self.bcast.observe(round, &inits, &echoes);
        self.route_accepts(accepts);
        // Identifiers silent this round (drops, partitions) keep their
        // last counted sets — counting is cumulative, so an old baseline
        // stays a valid shortcut when they reappear.
        for (src, sets) in std::mem::take(&mut self.seen_echoes) {
            seen_now.entry(src).or_insert(sets);
        }
        self.seen_echoes = seen_now;

        // Proper-set rules (innumerate: count distinct identifiers).
        let proper_views: Vec<(Id, &BTreeSet<V>)> =
            inbox.iter().map(|(src, b, _)| (src, &*b.proper)).collect();
        update_proper(&mut self.proper, &self.domain, self.t, &proper_views);

        // Direct items.
        let leader = Id::phase_leader(ph, self.ell);
        if (2..=5).contains(&w) {
            // Record leader lock messages for this phase (correct
            // leaders send them in round 2; accept them any time before
            // the vote is cast).
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
            // Line 21: leaders decide on ℓ − t acks for their lock value,
            // received in this round.
            if self.is_leader(ph) && self.decision.is_none() {
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
        }

        if w == 7 {
            // Lines 25–26: t + 1 identifiers relaying ⟨decide v⟩ this round.
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
            // Lines 27–30: end of phase, release overtaken locks.
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

/// Applies the Section 4.2 proper-set rules for one round's `(sender
/// identifier, proper set)` views (innumerate: by distinct identifiers).
/// Shared with the bounded variant.
pub(crate) fn update_proper<V: Value>(
    proper: &mut Arc<BTreeSet<V>>,
    domain: &Domain<V>,
    t: usize,
    views: &[(Id, &BTreeSet<V>)],
) {
    // One bitset counts the identifiers reporting each value in turn,
    // then, if no value reached t + 1, every reporting identifier.
    let mut ids = IdBits::new();
    let mut reached = false;
    for v in domain.values() {
        ids.clear();
        for &(i, s) in views {
            if s.contains(v) {
                ids.insert(i.index());
            }
        }
        if ids.len() >= t + 1 {
            // Guarded insert: a steady-state round re-confirms values
            // that are already proper, and must not clone them again.
            if !proper.contains(v) {
                Arc::make_mut(proper).insert(v.clone());
            }
            reached = true;
        }
    }
    if reached {
        return;
    }
    ids.clear();
    for &(i, _) in views {
        ids.insert(i.index());
    }
    if ids.len() >= 2 * t + 1 {
        for v in domain.values() {
            if !proper.contains(v) {
                Arc::make_mut(proper).insert(v.clone());
            }
        }
    }
}

/// A [`ProtocolFactory`] for [`HomonymAgreement`] processes.
#[derive(Clone, Debug)]
pub struct AgreementFactory<V> {
    n: usize,
    ell: usize,
    t: usize,
    domain: Domain<V>,
    vote_superround: bool,
}

impl<V: Value> AgreementFactory<V> {
    /// Creates a factory for a system of `n` processes, `ell` identifiers,
    /// fault bound `t`, over `domain`.
    pub fn new(n: usize, ell: usize, t: usize, domain: Domain<V>) -> Self {
        AgreementFactory {
            n,
            ell,
            t,
            domain,
            vote_superround: true,
        }
    }

    /// **Ablation**: builds the protocol *without* the vote superround —
    /// a leader lock with quorum-supported proposals is acked directly.
    ///
    /// The paper adds the votes because, with homonyms, a phase can have
    /// *several co-leaders* (or a Byzantine leader) pushing different lock
    /// values; without a voting step two correct processes can ack
    /// different values in the same phase, which breaks the invariant of
    /// Lemma 8 that all safety rests on. The `ablation_vote_superround`
    /// tests construct exactly that divergence.
    pub fn ablated_without_votes(n: usize, ell: usize, t: usize, domain: Domain<V>) -> Self {
        AgreementFactory {
            n,
            ell,
            t,
            domain,
            vote_superround: false,
        }
    }

    /// Conservative rounds-to-decision after stabilization (see
    /// [`HomonymAgreement::round_bound`]).
    pub fn round_bound(&self) -> u64 {
        HomonymAgreement::<V>::round_bound(self.n, self.ell)
    }
}

impl<V: Value> ProtocolFactory for AgreementFactory<V> {
    type P = HomonymAgreement<V>;

    fn spawn(&self, id: Id, input: V) -> HomonymAgreement<V> {
        let mut p = HomonymAgreement::new(self.n, self.ell, self.t, self.domain.clone(), id, input);
        p.vote_superround = self.vote_superround;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::{Counting, Envelope};

    fn proc(n: usize, ell: usize, t: usize, id: u16, input: bool) -> HomonymAgreement<bool> {
        HomonymAgreement::new(n, ell, t, Domain::binary(), Id::new(id), input)
    }

    /// Runs a fully synchronous, failure-free network of the protocol and
    /// returns per-process decisions after `rounds` rounds.
    fn run_clean(
        n: usize,
        ell: usize,
        t: usize,
        assignment: &[u16],
        inputs: &[bool],
        rounds: u64,
    ) -> Vec<Option<bool>> {
        let mut procs: Vec<HomonymAgreement<bool>> = (0..n)
            .map(|k| proc(n, ell, t, assignment[k], inputs[k]))
            .collect();
        for r in 0..rounds {
            let round = Round::new(r);
            let outs: Vec<Bundle<bool>> = procs
                .iter_mut()
                .map(|p| p.send(round).remove(0).1)
                .collect();
            let envs: Vec<Envelope<Bundle<bool>>> = outs
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
        // n = 4, ℓ = 4, t = 1 (solvable: 8 > 7).
        for v in [false, true] {
            let decisions = run_clean(4, 4, 1, &[1, 2, 3, 4], &[v; 4], 8 * 6);
            for d in &decisions {
                assert_eq!(*d, Some(v), "all must decide the unanimous input");
            }
        }
    }

    #[test]
    fn split_inputs_agree() {
        let decisions = run_clean(4, 4, 1, &[1, 2, 3, 4], &[false, true, false, true], 8 * 6);
        assert!(decisions[0].is_some());
        assert!(
            decisions.iter().all(|d| *d == decisions[0]),
            "{decisions:?}"
        );
    }

    #[test]
    fn homonyms_with_same_input_decide() {
        // n = 5, ℓ = 4, t = 0 edge: homonym group {1, 1}.
        let decisions = run_clean(5, 4, 0, &[1, 1, 2, 3, 4], &[true; 5], 8 * 6);
        for d in &decisions {
            assert_eq!(*d, Some(true));
        }
    }

    #[test]
    fn homonyms_with_different_inputs_still_agree() {
        // n = 7, ℓ = 6, t = 1: 2ℓ = 12 > n + 3t = 10. Identifier 1 held by
        // two correct processes with different inputs — the paper's
        // motivating hazard.
        let decisions = run_clean(
            7,
            6,
            1,
            &[1, 1, 2, 3, 4, 5, 6],
            &[false, true, true, false, true, false, true],
            8 * 8,
        );
        assert!(decisions[0].is_some(), "{decisions:?}");
        assert!(
            decisions.iter().all(|d| *d == decisions[0]),
            "{decisions:?}"
        );
    }

    #[test]
    fn candidate_set_respects_locks() {
        let mut p = proc(4, 4, 1, 1, true);
        assert_eq!(p.candidate_set(), BTreeSet::from([true]));
        Arc::make_mut(&mut p.proper).insert(false);
        assert_eq!(p.candidate_set(), BTreeSet::from([false, true]));
        p.locks.insert((true, 3));
        // A lock on `true` excludes every other value.
        assert_eq!(p.candidate_set(), BTreeSet::from([true]));
    }

    #[test]
    fn leader_rotation() {
        let p = proc(4, 4, 1, 1, true);
        assert!(p.is_leader(0));
        assert!(!p.is_leader(1));
        assert!(p.is_leader(4));
    }

    #[test]
    fn decision_is_sticky() {
        let mut p = proc(4, 4, 1, 1, true);
        p.decide(true);
        p.decide(false);
        assert_eq!(p.decision(), Some(true));
    }

    #[test]
    fn release_locks_requires_later_phase_and_other_value() {
        let mut p = proc(4, 4, 1, 1, true);
        p.locks.insert((true, 2));
        // Quorum (ℓ − t = 3) of votes for the SAME value: no release.
        p.vote_acc
            .entry(5)
            .or_default()
            .insert(true, [Id::new(1), Id::new(2), Id::new(3)].into());
        p.release_locks();
        assert!(p.locks.contains(&(true, 2)));
        // Quorum for a different value in a later phase: release.
        p.vote_acc
            .entry(6)
            .or_default()
            .insert(false, [Id::new(1), Id::new(2), Id::new(3)].into());
        p.release_locks();
        assert!(p.locks.is_empty());
        // An EARLIER phase must not release.
        p.locks.insert((true, 9));
        p.release_locks();
        assert!(p.locks.contains(&(true, 9)));
    }

    #[test]
    fn phase_pos_mapping() {
        assert_eq!(phase_pos(Round::new(0)), PhasePos { ph: 0, w: 0 });
        assert_eq!(phase_pos(Round::new(7)), PhasePos { ph: 0, w: 7 });
        assert_eq!(phase_pos(Round::new(8)), PhasePos { ph: 1, w: 0 });
        assert_eq!(phase_pos(Round::new(14)), PhasePos { ph: 1, w: 6 });
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn out_of_domain_input_rejected() {
        let _ = HomonymAgreement::new(4, 4, 1, Domain::new(vec![1u32, 2]), Id::new(1), 9);
    }

    // ----- ablation: the vote superround (Section 4.2, novelty 2) -----

    /// Builds the crafted deliveries that give a process accepted
    /// proposals for BOTH values from every identifier in phase 0, then a
    /// single leader lock for `lock_value`.
    fn feed_phase0_with_leader_lock(p: &mut HomonymAgreement<bool>, lock_value: bool) {
        let both: Arc<BTreeSet<bool>> = Arc::new([false, true].into());
        let payload = Payload::Propose {
            values: (*both).clone(),
            ph: 0,
        };

        // Round 0: every identifier inits ⟨propose {0,1}, 0⟩.
        let _ = p.send(Round::new(0));
        let round0: Vec<Envelope<Bundle<bool>>> = (1..=4u16)
            .map(|j| Envelope {
                src: Id::new(j),
                msg: Bundle::with_trivial_hint(
                    BTreeSet::from([payload.clone()]),
                    Arc::new(BTreeSet::new()),
                    BTreeSet::new(),
                    both.clone(),
                ),
            })
            .collect();
        p.receive(Round::new(0), &Inbox::collect(round0, Counting::Innumerate));

        // Round 1: every identifier echoes every identifier's init — all
        // four broadcasts reach the accept threshold ℓ − t = 3.
        let _ = p.send(Round::new(1));
        let round1: Vec<Envelope<Bundle<bool>>> = (1..=4u16)
            .map(|j| Envelope {
                src: Id::new(j),
                msg: Bundle::with_trivial_hint(
                    BTreeSet::new(),
                    Arc::new(
                        (1..=4u16)
                            .map(|src| {
                                crate::broadcast::EchoItem::new(payload.clone(), 0, Id::new(src))
                            })
                            .collect(),
                    ),
                    BTreeSet::new(),
                    both.clone(),
                ),
            })
            .collect();
        p.receive(Round::new(1), &Inbox::collect(round1, Counting::Innumerate));
        assert!(p.propose_support(0, &false) >= p.quorum());
        assert!(p.propose_support(0, &true) >= p.quorum());

        // Round 2: the (Byzantine or co-led) leader identifier 1 sends one
        // lock value to this process.
        let _ = p.send(Round::new(2));
        let lock = Envelope {
            src: Id::new(1),
            msg: Bundle::with_trivial_hint(
                BTreeSet::new(),
                Arc::new(BTreeSet::new()),
                BTreeSet::from([Direct::Lock {
                    v: lock_value,
                    ph: 0,
                }]),
                both.clone(),
            ),
        };
        p.receive(Round::new(2), &Inbox::collect([lock], Counting::Innumerate));

        // Rounds 3–5: quiet.
        for r in 3..6u64 {
            let _ = p.send(Round::new(r));
            p.receive(Round::new(r), &Inbox::empty());
        }
    }

    fn acks_sent_at_w6(p: &mut HomonymAgreement<bool>) -> Vec<(bool, u64)> {
        let bundle = p.send(Round::new(6)).remove(0).1;
        bundle
            .directs
            .iter()
            .filter_map(|d| match d {
                Direct::Ack { v, ph } => Some((*v, *ph)),
                _ => None,
            })
            .collect()
    }

    /// Without the vote superround, two correct processes that saw
    /// different leader locks (Byzantine leader, or two correct co-leaders
    /// under message loss) ack DIFFERENT values in the same phase — the
    /// exact situation Lemma 8 proves impossible for the real protocol.
    #[test]
    fn ablation_without_votes_breaks_lemma8() {
        let ablated = AgreementFactory::ablated_without_votes(4, 4, 1, Domain::binary());
        let mut p2 = ablated.spawn(Id::new(2), false);
        let mut p3 = ablated.spawn(Id::new(3), true);
        feed_phase0_with_leader_lock(&mut p2, false);
        feed_phase0_with_leader_lock(&mut p3, true);
        let acks2 = acks_sent_at_w6(&mut p2);
        let acks3 = acks_sent_at_w6(&mut p3);
        assert_eq!(acks2, vec![(false, 0)]);
        assert_eq!(acks3, vec![(true, 0)]);
        // Conflicting correct acks in the same phase: Lemma 8 is dead, and
        // with it the agreement proof.
    }

    /// The real protocol under the *same* deliveries never acks at all:
    /// acking requires ℓ − t accepted votes, and the vote quorums of any
    /// two values intersect in a sole-correct identifier (Lemma 7).
    #[test]
    fn real_protocol_survives_the_same_deliveries() {
        let real = AgreementFactory::new(4, 4, 1, Domain::binary());
        let mut p2 = real.spawn(Id::new(2), false);
        let mut p3 = real.spawn(Id::new(3), true);
        feed_phase0_with_leader_lock(&mut p2, false);
        feed_phase0_with_leader_lock(&mut p3, true);
        assert!(acks_sent_at_w6(&mut p2).is_empty());
        assert!(acks_sent_at_w6(&mut p3).is_empty());
    }

    /// On clean runs the ablated protocol still decides — the ablation
    /// only removes protection against divergent leader locks, so the
    /// difference is invisible until an adversary (or losses) exploit it.
    #[test]
    fn ablated_protocol_decides_on_clean_runs() {
        let decisions = {
            let factory = AgreementFactory::ablated_without_votes(4, 4, 1, Domain::binary());
            let mut procs: Vec<HomonymAgreement<bool>> = (1..=4u16)
                .map(|i| factory.spawn(Id::new(i), true))
                .collect();
            for r in 0..8 * 4 {
                let round = Round::new(r);
                let outs: Vec<Bundle<bool>> = procs
                    .iter_mut()
                    .map(|p| p.send(round).remove(0).1)
                    .collect();
                let envs: Vec<Envelope<Bundle<bool>>> = outs
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
            }
            procs.iter().map(|p| p.decision()).collect::<Vec<_>>()
        };
        for d in &decisions {
            assert_eq!(*d, Some(true), "{decisions:?}");
        }
    }
}
