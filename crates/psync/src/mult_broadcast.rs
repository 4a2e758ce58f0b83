//! The authenticated broadcast **with multiplicities** of Figure 6
//! (Appendix A.3.1), for numerate processes facing restricted Byzantine
//! senders.
//!
//! `Broadcast(i, m, r)` is performed by a process with identifier `i` in
//! superround `r`; `Accept(i, α, m, r)` carries an estimate `α` of how
//! many holders of `i` broadcast `m`. Every process sends one combined
//! message per round containing its `⟨init⟩` tuples and an
//! `⟨echo, h, a[h,m,k], m, k⟩` tuple for every non-zero counter. Per round
//! `R` a receiver, counting *valid* messages with multiplicity:
//!
//! * `R = 2r`: sets `a[h,m,r]` to the number of valid messages from `h`
//!   containing `(init, h, m, r)`;
//! * any `R`: if at least `n − 2t` valid messages contain
//!   `(echo, h, ⋆, m, k)`, raises `a[h,m,k]` to the largest `α` such that
//!   `n − 2t` of them carry `α' ≥ α`;
//! * odd `R`: if at least `n − t` valid messages contain the tuple,
//!   performs `Accept(h, α₂, m, k)` with `α₂` the largest `α` such that
//!   `n − t` carry `α' ≥ α`.
//!
//! Theorem 29: unicity, correctness, relay, and unforgeability
//! (`0 ≤ α' ≤ α + fᵢ`) hold whenever `n > 3t` and each Byzantine process
//! sends at most one message per recipient per round.

use std::collections::BTreeMap;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::intern::Tok;
use homonym_core::{Id, Interner, Message, Round};

/// The per-round wire part of the multiplicity broadcast: the sender's
/// `⟨init⟩` tuples (its own identifier is implicit — identifiers cannot be
/// forged) and its echo table.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MultPart<M> {
    /// `(m, r)` tuples: this sender performs `Broadcast(i, m, r)`.
    pub inits: BTreeMap<M, u64>,
    /// `(echo, h, α, m, k)` tuples, keyed by `(h, m, k)`.
    pub echoes: BTreeMap<(Id, M, u64), u64>,
}

impl<M: WireEncode> WireEncode for MultPart<M> {
    fn encode(&self, w: &mut Writer) {
        self.inits.encode(w);
        self.echoes.encode(w);
    }
}

impl<M: WireDecode + Ord> WireDecode for MultPart<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MultPart {
            inits: BTreeMap::decode(r)?,
            echoes: BTreeMap::decode(r)?,
        })
    }
}

/// An `Accept(i, α, m, r)` event.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MultAccept<M> {
    /// The identifier the broadcast is attributed to.
    pub src: Id,
    /// The multiplicity estimate.
    pub alpha: u64,
    /// The payload.
    pub payload: M,
    /// The superround of the original broadcast.
    pub sr: u64,
}

/// One process's view of the Figure 6 broadcast layer.
///
/// Transport-agnostic like
/// [`EchoBroadcast`](crate::EchoBroadcast): the owning protocol embeds
/// [`MultBroadcast::part_to_send`] in its bundle and feeds received parts
/// (with their *message multiplicities* — this layer is for numerate
/// systems) back through [`MultBroadcast::observe`].
///
/// # Example
///
/// ```
/// use homonym_core::{Id, Round};
/// use homonym_psync::MultBroadcast;
///
/// let mut bc: MultBroadcast<&str> = MultBroadcast::new(4, 1, Id::new(2));
/// bc.broadcast("m", 0);
/// let part = bc.part_to_send(Round::new(0));
/// assert!(part.inits.contains_key("m"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MultBroadcast<M> {
    n: usize,
    t: usize,
    id: Id,
    /// Every distinct payload seen, interned once; the counter table keys
    /// on tokens so probes and raises never deep-compare payloads.
    intern: Interner<M>,
    /// `a[h, m, k]`, keyed `(h, token of m, k)`.
    a: BTreeMap<(Id, Tok, u64), u64>,
    /// Broadcasts queued: payload → superround requested.
    pending: Vec<(M, u64)>,
    /// Bumped whenever a counter's *emitted* value changes — equal
    /// generations ⇒ [`part_to_send`](MultBroadcast::part_to_send) emits
    /// the same echo table, which lets the owning protocol reuse a cached
    /// wire part.
    generation: u64,
}

impl<M: Message> MultBroadcast<M> {
    /// Creates the layer for a process with identifier `id` in a system of
    /// `n` processes tolerating `t` faults.
    pub fn new(n: usize, t: usize, id: Id) -> Self {
        MultBroadcast {
            n,
            t,
            id,
            intern: Interner::new(),
            a: BTreeMap::new(),
            pending: Vec::new(),
            generation: 0,
        }
    }

    /// The echo-raise threshold `n − 2t` (saturating, at least 1).
    pub fn raise_threshold(&self) -> u64 {
        (self.n.saturating_sub(2 * self.t) as u64).max(1)
    }

    /// The accept threshold `n − t`.
    pub fn accept_threshold(&self) -> u64 {
        self.n.saturating_sub(self.t) as u64
    }

    /// Queues `Broadcast(id, payload, sr)`; the `⟨init⟩` goes out in the
    /// first round of superround `sr` (line 9 of Figure 6).
    pub fn broadcast(&mut self, payload: M, sr: u64) {
        self.pending.push((payload, sr));
    }

    /// The wire part for this round: `⟨init⟩` tuples whose superround is
    /// now, plus an echo tuple for every non-zero counter (lines 3–10).
    pub fn part_to_send(&mut self, round: Round) -> MultPart<M> {
        let mut part = MultPart {
            inits: BTreeMap::new(),
            echoes: self
                .a
                .iter()
                .filter(|(_, &alpha)| alpha > 0)
                .map(|(&(h, tok, k), &alpha)| ((h, self.intern.resolve(tok).clone(), k), alpha))
                .collect(),
        };
        if round.is_first_of_superround() {
            let sr = round.superround().index();
            let mut rest = Vec::new();
            for (m, want) in self.pending.drain(..) {
                if want <= sr {
                    part.inits.insert(m, sr);
                } else {
                    rest.push((m, want));
                }
            }
            self.pending = rest;
        }
        part
    }

    /// Whether a queued `Broadcast` would emit an `⟨init⟩` if
    /// [`part_to_send`](MultBroadcast::part_to_send) ran at `round`.
    pub(crate) fn init_due(&self, round: Round) -> bool {
        round.is_first_of_superround() && {
            let sr = round.superround().index();
            self.pending.iter().any(|&(_, want)| want <= sr)
        }
    }

    /// A counter that advances whenever the emitted echo table changes.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Figure 6's validity filter for one received message: the init
    /// tuples must carry the sender's identifier (enforced structurally —
    /// `inits` are attributed to the envelope identifier) and superround
    /// `2r = R`; echo tuples must satisfy `R ≥ 2k`.
    fn is_valid(part: &MultPart<M>, round: Round) -> bool {
        let r = round.index();
        part.inits.values().all(|&sr| 2 * sr == r)
            && part.echoes.keys().all(|&(_, _, k)| r >= 2 * k)
    }

    /// Processes one round's received messages — `(sender identifier,
    /// part, multiplicity)` triples — and returns the accepts performed
    /// (odd rounds only, per line 19).
    pub fn observe(
        &mut self,
        round: Round,
        received: &[(Id, &MultPart<M>, u64)],
    ) -> Vec<MultAccept<M>> {
        let r = round.index();
        let valid: Vec<(Id, &MultPart<M>, u64)> = received
            .iter()
            .filter(|(_, part, _)| Self::is_valid(part, round))
            .copied()
            .collect();

        // Line 13–14: initial counts from ⟨init⟩ tuples (even rounds).
        if r % 2 == 0 {
            let sr = r / 2;
            let mut init_counts: BTreeMap<(Id, Tok), u64> = BTreeMap::new();
            for (src, part, mult) in &valid {
                for (m, &want) in &part.inits {
                    debug_assert_eq!(want, sr);
                    *init_counts
                        .entry((*src, self.intern.intern(m)))
                        .or_insert(0) += mult;
                }
            }
            for ((h, tok), alpha) in init_counts {
                if self.a.insert((h, tok, sr), alpha) != Some(alpha) {
                    self.generation += 1;
                }
            }
        }

        // Lines 15–18: raise counters to the (n − 2t)-strongest echo value.
        let mut echo_support: BTreeMap<(Id, Tok, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for (_, part, mult) in &valid {
            for ((h, m, k), &alpha) in &part.echoes {
                echo_support
                    .entry((*h, self.intern.intern(m), *k))
                    .or_default()
                    .push((alpha, *mult));
            }
        }
        let mut accepts = Vec::new();
        for (key, mut support) in echo_support {
            // Sort by α descending; cumulative multiplicity.
            support.sort_by_key(|&(alpha, _)| std::cmp::Reverse(alpha));
            let kth_largest = |threshold: u64| -> Option<u64> {
                let mut cum = 0u64;
                for &(alpha, mult) in &support {
                    cum += mult;
                    if cum >= threshold {
                        return Some(alpha);
                    }
                }
                None
            };
            if let Some(alpha1) = kth_largest(self.raise_threshold()) {
                let entry = self.a.entry(key).or_insert(0);
                if alpha1 > *entry {
                    *entry = alpha1;
                    self.generation += 1;
                }
            }
            if r % 2 == 1 {
                if let Some(alpha2) = kth_largest(self.accept_threshold()) {
                    accepts.push(MultAccept {
                        src: key.0,
                        alpha: alpha2,
                        payload: self.intern.resolve(key.1).clone(),
                        sr: key.2,
                    });
                }
            }
        }
        // The deep-keyed implementation iterated its support map in
        // ascending (identifier, payload, superround) order; tokens sort
        // in first-seen order, so restore the original report order.
        accepts.sort_by(|a, b| (a.src, &a.payload, a.sr).cmp(&(b.src, &b.payload, b.sr)));
        accepts
    }

    /// The current counter `a[h, m, k]` (diagnostic).
    pub fn counter(&self, h: Id, m: &M, k: u64) -> u64 {
        self.intern
            .get(m)
            .and_then(|tok| self.a.get(&(h, tok, k)).copied())
            .unwrap_or(0)
    }

    /// The identifier this layer authenticates as.
    pub fn id(&self) -> Id {
        self.id
    }

    /// Structural state-size estimate in bits, on the same per-entry
    /// scale as the bounded analogue — grows O(history) here, because
    /// counters are never discarded.
    pub fn state_bits(&self) -> u64 {
        (self.a.len() as u64) * 256
            + (self.intern.len() as u64) * 128
            + (self.pending.len() as u64) * 128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synchronous network of correct processes over the layer alone.
    /// `assignment[k]` is the identifier of process `k`.
    struct Net {
        procs: Vec<MultBroadcast<&'static str>>,
        assignment: Vec<Id>,
        round: Round,
    }

    impl Net {
        fn new(n: usize, t: usize, assignment: &[u16]) -> Self {
            let assignment: Vec<Id> = assignment.iter().map(|&i| Id::new(i)).collect();
            Net {
                procs: (0..n)
                    .map(|k| MultBroadcast::new(n, t, assignment[k]))
                    .collect(),
                assignment,
                round: Round::ZERO,
            }
        }

        /// One round with full delivery; `forged` are extra (id, part)
        /// pairs injected by the adversary, each of multiplicity 1.
        fn step(
            &mut self,
            forged: &[(Id, MultPart<&'static str>)],
        ) -> Vec<Vec<MultAccept<&'static str>>> {
            let r = self.round;
            let parts: Vec<MultPart<&'static str>> =
                self.procs.iter_mut().map(|p| p.part_to_send(r)).collect();
            // Aggregate identical (id, part) pairs into multiplicities —
            // exactly what a numerate inbox does.
            let mut multiset: BTreeMap<(Id, MultPart<&'static str>), u64> = BTreeMap::new();
            for (k, part) in parts.iter().enumerate() {
                *multiset
                    .entry((self.assignment[k], part.clone()))
                    .or_insert(0) += 1;
            }
            for (id, part) in forged {
                *multiset.entry((*id, part.clone())).or_insert(0) += 1;
            }
            let received: Vec<(Id, &MultPart<&'static str>, u64)> = multiset
                .iter()
                .map(|((id, part), &mult)| (*id, part, mult))
                .collect();
            let out = self
                .procs
                .iter_mut()
                .map(|p| p.observe(r, &received))
                .collect();
            self.round = r.next();
            out
        }
    }

    #[test]
    fn correctness_counts_homonym_broadcasters() {
        // Four processes; identifier 1 held by two of them; both broadcast
        // "m" in superround 0. Everyone must accept with α ≥ 2.
        let mut net = Net::new(4, 1, &[1, 1, 2, 3]);
        net.procs[0].broadcast("m", 0);
        net.procs[1].broadcast("m", 0);
        let accepts = net.step(&[]); // round 0 (even): inits counted
        assert!(accepts.iter().all(|a| a.is_empty()));
        let accepts = net.step(&[]); // round 1 (odd): accepts fire
        for per_proc in &accepts {
            assert_eq!(per_proc.len(), 1);
            let a = &per_proc[0];
            assert_eq!(a.src, Id::new(1));
            assert_eq!(a.payload, "m");
            assert_eq!(a.sr, 0);
            assert!(a.alpha >= 2, "both homonym broadcasters must be counted");
        }
    }

    #[test]
    fn single_broadcaster_alpha_is_one() {
        let mut net = Net::new(4, 1, &[1, 2, 3, 4]);
        net.procs[2].broadcast("m", 0);
        net.step(&[]);
        let accepts = net.step(&[]);
        for per_proc in &accepts {
            assert_eq!(per_proc[0].alpha, 1);
            assert_eq!(per_proc[0].src, Id::new(3));
        }
    }

    #[test]
    fn unforgeability_alpha_bounded_by_fi() {
        // Identifier 1 is held by one correct process (who does NOT
        // broadcast) and one Byzantine process (f₁ = 1). The Byzantine
        // process claims an init; the accepted α must be ≤ 0 + f₁ = 1.
        let mut net = Net::new(4, 1, &[1, 2, 3, 4]);
        let forged_init = MultPart {
            inits: BTreeMap::from([("lie", 0)]),
            echoes: BTreeMap::new(),
        };
        // The adversary is restricted: one message per recipient — in this
        // test harness all processes see the same single forged copy.
        let accepts_r0 = net.step(&[(Id::new(1), forged_init)]);
        assert!(accepts_r0.iter().all(|a| a.is_empty()));
        let accepts = net.step(&[]);
        for per_proc in &accepts {
            for a in per_proc {
                assert!(a.alpha <= 1, "unforgeability bound violated: {a:?}");
            }
        }
    }

    #[test]
    fn echo_injection_below_n_minus_2t_is_ignored() {
        // A single Byzantine message carrying a huge echo value cannot move
        // counters: n − 2t = 2 > 1 message.
        let mut net = Net::new(4, 1, &[1, 2, 3, 4]);
        let forged = MultPart {
            inits: BTreeMap::new(),
            echoes: BTreeMap::from([((Id::new(2), "junk", 0), 99u64)]),
        };
        for _ in 0..4 {
            let accepts = net.step(&[(Id::new(1), forged.clone())]);
            assert!(accepts.iter().all(|a| a.is_empty()));
        }
        assert_eq!(net.procs[2].counter(Id::new(2), &"junk", 0), 0);
    }

    #[test]
    fn invalid_messages_discarded_entirely() {
        let mut p: MultBroadcast<&'static str> = MultBroadcast::new(4, 1, Id::new(1));
        // Init claiming superround 3 inside round 0 (2r ≠ R): invalid.
        let bad = MultPart {
            inits: BTreeMap::from([("m", 3u64)]),
            echoes: BTreeMap::new(),
        };
        let accepts = p.observe(Round::new(0), &[(Id::new(2), &bad, 4)]);
        assert!(accepts.is_empty());
        assert_eq!(p.counter(Id::new(2), &"m", 3), 0);

        // Echo from the future (R < 2k): invalid.
        let bad = MultPart {
            inits: BTreeMap::new(),
            echoes: BTreeMap::from([((Id::new(2), "m", 5u64), 1u64)]),
        };
        let accepts = p.observe(Round::new(1), &[(Id::new(2), &bad, 4)]);
        assert!(accepts.is_empty());
    }

    #[test]
    fn relay_counters_never_decrease() {
        let mut net = Net::new(4, 1, &[1, 1, 2, 3]);
        net.procs[0].broadcast("m", 0);
        net.procs[1].broadcast("m", 0);
        net.step(&[]);
        net.step(&[]);
        let before = net.procs[3].counter(Id::new(1), &"m", 0);
        assert!(before >= 2);
        // Several more rounds: counters persist and re-accepts carry the
        // same (or larger) α each superround.
        for _ in 0..4 {
            let accepts = net.step(&[]);
            for per in &accepts {
                for a in per {
                    assert!(a.alpha >= before);
                }
            }
        }
        assert!(net.procs[3].counter(Id::new(1), &"m", 0) >= before);
    }

    #[test]
    fn unicity_one_accept_per_superround() {
        let mut net = Net::new(4, 1, &[1, 2, 3, 4]);
        net.procs[0].broadcast("m", 0);
        let mut accept_rounds = Vec::new();
        for r in 0..8u64 {
            let accepts = net.step(&[]);
            if !accepts[1].is_empty() {
                accept_rounds.push(r);
                assert_eq!(accepts[1].len(), 1);
            }
        }
        // Accepts happen only in odd rounds: at most one per superround.
        assert!(accept_rounds.iter().all(|r| r % 2 == 1));
    }

    #[test]
    fn queued_broadcast_waits_for_requested_superround() {
        let mut p: MultBroadcast<&'static str> = MultBroadcast::new(4, 1, Id::new(1));
        p.broadcast("m", 2);
        assert!(p.part_to_send(Round::new(0)).inits.is_empty());
        assert!(p.part_to_send(Round::new(2)).inits.is_empty());
        let part = p.part_to_send(Round::new(4)); // superround 2
        assert_eq!(part.inits.get("m"), Some(&2));
    }
}
