//! Exponential information gathering (EIG) Byzantine agreement.
//!
//! The classical unauthenticated algorithm of Lamport–Shostak–Pease in its
//! information-gathering formulation (as in Bar-Noy–Dolev–Dwork–Strong and
//! Lynch's *Distributed Algorithms*): correct for `n > 3t`, decides after
//! exactly `t + 1` rounds. Message sizes are exponential in `t`, which is
//! irrelevant here — the transformer instantiates it with `n = ℓ`, and the
//! interesting homonym systems have small `ℓ`.

use std::collections::BTreeMap;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::{Domain, Id, Value};

use crate::interface::SyncBa;

/// A node label in the EIG tree: a path of distinct identifiers, root `ε`
/// is the empty path.
type Path = Vec<Id>;

/// The EIG algorithm description: `ℓ` processes with unique identifiers,
/// tolerating `t < ℓ/3` Byzantine faults over the given value domain.
///
/// # Example
///
/// ```
/// use homonym_classic::{Eig, SyncBa};
/// use homonym_core::{Domain, Id};
///
/// let algo = Eig::new(4, 1, Domain::binary());
/// let s = algo.init(Id::new(1), true);
/// assert_eq!(algo.decide(&s), None); // no decision before round t + 1
/// assert_eq!(algo.round_bound(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Eig<V> {
    ell: usize,
    t: usize,
    domain: Domain<V>,
}

/// The EIG tree: values recorded for each path, plus the decision once the
/// final round has been processed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EigState<V> {
    id: Id,
    /// `val(σ)` for every path recorded so far; the root holds the input.
    tree: BTreeMap<Path, V>,
    decided: Option<V>,
}

impl<V: Value> EigState<V> {
    /// The process's own input (the root of the tree).
    pub fn input(&self) -> &V {
        &self.tree[&Vec::new()]
    }

    /// Number of recorded tree nodes (diagnostic).
    pub fn tree_size(&self) -> usize {
        self.tree.len()
    }
}

/// One round's broadcast: `val(σ)` for every level-`r−1` path `σ` the
/// sender may relay (its own identifier not in `σ`).
pub type EigMsg<V> = BTreeMap<Path, V>;

impl<V: Value + WireEncode> WireEncode for EigState<V> {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.tree.encode(w);
        self.decided.encode(w);
    }
}

impl<V: Value + WireDecode> WireDecode for EigState<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EigState {
            id: Id::decode(r)?,
            tree: BTreeMap::decode(r)?,
            decided: Option::decode(r)?,
        })
    }
}

impl<V: Value> Eig<V> {
    /// Creates the algorithm description.
    ///
    /// # Panics
    ///
    /// Panics if `ell ≤ 3t` — EIG is incorrect there, and the transformer
    /// must not silently accept an unsound substrate. (Lower-bound
    /// experiments that *want* an unsound configuration construct it via
    /// [`Eig::new_unchecked`].)
    pub fn new(ell: usize, t: usize, domain: Domain<V>) -> Self {
        assert!(
            ell > 3 * t,
            "EIG requires ell > 3t (got ell = {ell}, t = {t})"
        );
        Self::new_unchecked(ell, t, domain)
    }

    /// Creates the algorithm description without the `ℓ > 3t` soundness
    /// check. The lower-bound scenarios run algorithms outside their sound
    /// range on purpose — that is the whole point of the Figure 1
    /// experiment.
    pub fn new_unchecked(ell: usize, t: usize, domain: Domain<V>) -> Self {
        Eig { ell, t, domain }
    }

    /// The value domain.
    pub fn domain(&self) -> &Domain<V> {
        &self.domain
    }

    fn default_value(&self) -> V {
        self.domain.default_value().clone()
    }

    /// Whether `path` is a structurally valid level-`level` tree label:
    /// correct length, distinct in-range identifiers.
    fn valid_path(&self, path: &Path, level: usize) -> bool {
        path.len() == level
            && path.iter().all(|id| id.index() < self.ell)
            && (1..path.len()).all(|k| !path[..k].contains(&path[k]))
    }

    /// `val(σ)`, defaulting for unrecorded paths.
    fn val(&self, s: &EigState<V>, path: &Path) -> V {
        s.tree
            .get(path)
            .cloned()
            .unwrap_or_else(|| self.default_value())
    }

    /// Recursive resolve: leaf value at level `t + 1`, strict majority of
    /// children elsewhere (default on tie or no majority).
    fn resolve(&self, s: &EigState<V>, path: &Path) -> V {
        if path.len() == self.t + 1 {
            return self.val(s, path);
        }
        let mut counts: BTreeMap<V, usize> = BTreeMap::new();
        let mut children = 0usize;
        for id in Id::all(self.ell) {
            if path.contains(&id) {
                continue;
            }
            children += 1;
            let mut child = path.clone();
            child.push(id);
            *counts.entry(self.resolve(s, &child)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .find(|&(_, c)| 2 * c > children)
            .map(|(v, _)| v)
            .unwrap_or_else(|| self.default_value())
    }
}

impl<V: Value> SyncBa for Eig<V> {
    type State = EigState<V>;
    type Msg = EigMsg<V>;
    type Value = V;

    fn ell(&self) -> usize {
        self.ell
    }

    fn t(&self) -> usize {
        self.t
    }

    fn init(&self, id: Id, input: V) -> EigState<V> {
        EigState {
            id,
            tree: BTreeMap::from([(Vec::new(), input)]),
            decided: None,
        }
    }

    fn message(&self, s: &EigState<V>, ba_round: u64) -> EigMsg<V> {
        if ba_round > self.t as u64 + 1 {
            return EigMsg::new(); // the protocol proper is over
        }
        let level = (ba_round - 1) as usize;
        s.tree
            .iter()
            .filter(|(path, _)| path.len() == level && !path.contains(&s.id))
            .map(|(path, v)| (path.clone(), v.clone()))
            .collect()
    }

    fn transition(
        &self,
        s: &EigState<V>,
        ba_round: u64,
        received: &BTreeMap<Id, EigMsg<V>>,
    ) -> EigState<V> {
        let mut next = s.clone();
        if ba_round > self.t as u64 + 1 {
            return next;
        }
        let level = (ba_round - 1) as usize;
        for (&sender, msg) in received {
            if sender.index() >= self.ell {
                continue;
            }
            for (path, v) in msg {
                // Record val(σ · sender) from the sender's report of val(σ);
                // reject malformed or self-referential labels.
                if !self.valid_path(path, level) || path.contains(&sender) {
                    continue;
                }
                if !self.domain.contains(v) {
                    continue; // out-of-domain junk from a Byzantine sender
                }
                let mut extended = path.clone();
                extended.push(sender);
                next.tree.entry(extended).or_insert_with(|| v.clone());
            }
        }
        if ba_round == self.t as u64 + 1 && next.decided.is_none() {
            next.decided = Some(self.resolve(&next, &Vec::new()));
        }
        next
    }

    fn decide(&self, s: &EigState<V>) -> Option<V> {
        s.decided.clone()
    }

    fn round_bound(&self) -> u64 {
        self.t as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a full synchronous execution of EIG among `ell` unique-id
    /// processes where `byz` identifiers send adversarial messages produced
    /// by `forge(byz_id, round, honest_msgs)`.
    fn run_eig(
        ell: usize,
        t: usize,
        inputs: &[bool],
        byz: &[Id],
        mut forge: impl FnMut(Id, u64, &BTreeMap<Id, EigMsg<bool>>) -> BTreeMap<Id, EigMsg<bool>>,
    ) -> Vec<Option<bool>> {
        let algo = Eig::new_unchecked(ell, t, Domain::binary());
        let mut states: BTreeMap<Id, EigState<bool>> = Id::all(ell)
            .filter(|id| !byz.contains(id))
            .map(|id| (id, algo.init(id, inputs[id.index()])))
            .collect();
        for r in 1..=(t as u64 + 1) {
            // Honest broadcasts.
            let honest: BTreeMap<Id, EigMsg<bool>> = states
                .iter()
                .map(|(&id, s)| (id, algo.message(s, r)))
                .collect();
            // Per-receiver inbox: honest messages plus per-receiver forgeries.
            let mut next = BTreeMap::new();
            for (&id, s) in &states {
                let mut inbox = honest.clone();
                for b in byz {
                    let forged = forge(*b, r, &honest);
                    if let Some(m) = forged.get(&id) {
                        inbox.insert(*b, m.clone());
                    }
                }
                next.insert(id, algo.transition(s, r, &inbox));
            }
            states = next;
        }
        Id::all(ell)
            .map(|id| states.get(&id).and_then(|s| algo.decide(s)))
            .collect()
    }

    #[test]
    fn all_correct_same_input_decides_that_input() {
        for v in [false, true] {
            let decisions = run_eig(4, 1, &[v; 4], &[], |_, _, _| BTreeMap::new());
            for d in decisions {
                assert_eq!(d, Some(v));
            }
        }
    }

    #[test]
    fn mixed_inputs_still_agree() {
        let decisions = run_eig(4, 1, &[true, false, true, false], &[], |_, _, _| {
            BTreeMap::new()
        });
        let first = decisions[0];
        assert!(first.is_some());
        for d in decisions {
            assert_eq!(d, first);
        }
    }

    #[test]
    fn silent_byzantine_tolerated() {
        let byz = [Id::new(3)];
        let decisions = run_eig(4, 1, &[true, true, true, true], &byz, |_, _, _| {
            BTreeMap::new()
        });
        for id in Id::all(4) {
            if !byz.contains(&id) {
                assert_eq!(decisions[id.index()], Some(true));
            }
        }
    }

    #[test]
    fn equivocating_byzantine_tolerated() {
        // The Byzantine identifier tells each correct process a different
        // story in round 1 and relays garbage in round 2.
        let byz = [Id::new(4)];
        let decisions = run_eig(4, 1, &[true, true, true, false], &byz, |b, r, _| {
            let mut per_recipient = BTreeMap::new();
            for (k, id) in Id::all(4).enumerate() {
                if id == b {
                    continue;
                }
                let mut m = EigMsg::new();
                if r == 1 {
                    m.insert(vec![], k % 2 == 0);
                } else {
                    for other in Id::all(4) {
                        if other != b {
                            m.insert(vec![other], k % 2 == 1);
                        }
                    }
                }
                per_recipient.insert(id, m);
            }
            per_recipient
        });
        let correct: Vec<Option<bool>> = Id::all(4)
            .filter(|id| !byz.contains(id))
            .map(|id| decisions[id.index()])
            .collect();
        assert!(correct[0].is_some());
        assert!(correct.iter().all(|d| *d == correct[0]), "{correct:?}");
        // Validity: the three correct processes all proposed true.
        assert_eq!(correct[0], Some(true));
    }

    #[test]
    fn two_faults_need_seven_processes() {
        let byz = [Id::new(6), Id::new(7)];
        let inputs = [true, false, true, false, true, false, false];
        let decisions = run_eig(7, 2, &inputs, &byz, |b, r, _| {
            // Crude equivocation: claim different root values to everyone.
            let mut per_recipient = BTreeMap::new();
            for (k, id) in Id::all(7).enumerate() {
                if id == b {
                    continue;
                }
                let mut m = EigMsg::new();
                if r == 1 {
                    m.insert(vec![], (k + b.index()) % 2 == 0);
                }
                per_recipient.insert(id, m);
            }
            per_recipient
        });
        let correct: Vec<Option<bool>> = Id::all(7)
            .filter(|id| !byz.contains(id))
            .map(|id| decisions[id.index()])
            .collect();
        assert!(correct[0].is_some());
        assert!(correct.iter().all(|d| *d == correct[0]), "{correct:?}");
    }

    #[test]
    fn malformed_messages_ignored() {
        let algo = Eig::new(4, 1, Domain::binary());
        let s = algo.init(Id::new(1), true);
        let mut bad = EigMsg::new();
        bad.insert(vec![Id::new(2), Id::new(2)], false); // repeated id
        bad.insert(vec![Id::new(9)], false); // out of range
        bad.insert(vec![Id::new(3)], false); // wrong level for round 1
        let received = BTreeMap::from([(Id::new(2), bad)]);
        let next = algo.transition(&s, 1, &received);
        assert_eq!(next.tree_size(), 1, "only the root should be present");
    }

    #[test]
    fn sender_cannot_relay_its_own_path() {
        let algo = Eig::new(4, 1, Domain::binary());
        let s = algo.init(Id::new(1), true);
        // Sender 2 claims a value for path [2] in round 2 — σ contains the
        // sender, which the tree structure forbids.
        let mut m = EigMsg::new();
        m.insert(vec![Id::new(2)], false);
        let next = algo.transition(&s, 2, &BTreeMap::from([(Id::new(2), m)]));
        assert!(!next.tree.contains_key(&vec![Id::new(2), Id::new(2)]));
    }

    #[test]
    fn decision_is_stable_after_round_bound() {
        let algo = Eig::new(4, 1, Domain::binary());
        let mut s = algo.init(Id::new(1), true);
        for r in 1..=5 {
            s = algo.transition(&s, r, &BTreeMap::new());
        }
        let d = algo.decide(&s);
        assert!(d.is_some());
        let s2 = algo.transition(&s, 6, &BTreeMap::new());
        assert_eq!(algo.decide(&s2), d);
    }

    #[test]
    #[should_panic(expected = "ell > 3t")]
    fn unsound_parameters_rejected() {
        let _ = Eig::new(3, 1, Domain::binary());
    }

    #[test]
    fn message_levels_match_rounds() {
        let algo = Eig::new(4, 1, Domain::binary());
        let s = algo.init(Id::new(1), true);
        let m1 = algo.message(&s, 1);
        assert_eq!(m1.len(), 1);
        assert!(m1.contains_key(&Vec::new()));
        // Round 3 is past t + 1 = 2: nothing to send.
        assert!(algo.message(&s, 3).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A structurally arbitrary (possibly malformed) EIG message: random
    /// paths over identifiers 1..=6 with random boolean values.
    fn arb_msg() -> impl Strategy<Value = EigMsg<bool>> {
        proptest::collection::btree_map(
            proptest::collection::vec(1u16..=6, 0..3)
                .prop_map(|raw| raw.into_iter().map(Id::new).collect::<Vec<Id>>()),
            any::<bool>(),
            0..5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// EIG agreement and validity hold under a fully arbitrary
        /// message-forging Byzantine identifier.
        #[test]
        fn eig_survives_arbitrary_forgery(
            inputs in proptest::collection::vec(any::<bool>(), 4),
            byz_index in 0u16..4,
            forged in proptest::collection::vec(arb_msg(), 8),
        ) {
            let ell = 4;
            let t = 1;
            let byz = Id::new(byz_index + 1);
            let algo = Eig::new(ell, t, Domain::binary());
            let mut states: std::collections::BTreeMap<Id, EigState<bool>> = Id::all(ell)
                .filter(|id| *id != byz)
                .map(|id| (id, algo.init(id, inputs[id.index()])))
                .collect();
            let mut forged_iter = forged.into_iter().cycle();
            for r in 1..=algo.round_bound() {
                let honest: std::collections::BTreeMap<Id, EigMsg<bool>> = states
                    .iter()
                    .map(|(&id, s)| (id, algo.message(s, r)))
                    .collect();
                let mut next = std::collections::BTreeMap::new();
                for (&id, s) in &states {
                    let mut inbox = honest.clone();
                    // A different forged message for every recipient and
                    // round: full per-recipient equivocation.
                    inbox.insert(byz, forged_iter.next().expect("cycled"));
                    next.insert(id, algo.transition(s, r, &inbox));
                }
                states = next;
            }
            let decisions: Vec<Option<bool>> =
                states.values().map(|s| algo.decide(s)).collect();
            // Termination.
            prop_assert!(decisions.iter().all(|d| d.is_some()));
            // Agreement.
            prop_assert!(decisions.iter().all(|d| *d == decisions[0]), "{decisions:?}");
            // Validity.
            let correct_inputs: Vec<bool> = Id::all(ell)
                .filter(|id| *id != byz)
                .map(|id| inputs[id.index()])
                .collect();
            if correct_inputs.iter().all(|&v| v) {
                prop_assert_eq!(decisions[0], Some(true));
            }
            if correct_inputs.iter().all(|&v| !v) {
                prop_assert_eq!(decisions[0], Some(false));
            }
        }

        /// The resolve function is deterministic and in-domain for any
        /// recorded tree.
        #[test]
        fn resolve_is_total_and_in_domain(
            entries in proptest::collection::btree_map(
                proptest::collection::vec(1u16..=4, 0..3).prop_map(|raw| {
                    raw.into_iter().map(Id::new).collect::<Vec<Id>>()
                }),
                any::<bool>(),
                0..10,
            ),
        ) {
            let algo = Eig::new(4, 1, Domain::binary());
            let mut s = algo.init(Id::new(1), true);
            // Splice arbitrary (even malformed) entries straight into the
            // tree; resolve must stay total.
            s.tree.extend(entries);
            let v1 = algo.resolve(&s, &Vec::new());
            let v2 = algo.resolve(&s, &Vec::new());
            prop_assert_eq!(v1, v2);
        }

        /// `decode(encode(m)) == m` for arbitrary (even malformed) EIG
        /// messages.
        #[test]
        fn eig_msg_roundtrips(msg in arb_msg()) {
            let frame = homonym_core::codec::encode_frame(&msg);
            let back: EigMsg<bool> =
                homonym_core::codec::decode_frame(&frame).expect("own frames must decode");
            prop_assert_eq!(back, msg);
        }

        /// `decode(encode(s)) == s` for EIG states with arbitrary trees
        /// and decision status.
        #[test]
        fn eig_state_roundtrips(
            raw_id in 1u16..=6,
            tree in arb_msg(),
            decided in any::<bool>(),
            decision in any::<bool>(),
        ) {
            let state = EigState {
                id: Id::new(raw_id),
                tree,
                decided: decided.then_some(decision),
            };
            let frame = homonym_core::codec::encode_frame(&state);
            let back: EigState<bool> =
                homonym_core::codec::decode_frame(&frame).expect("own frames must decode");
            prop_assert_eq!(back, state);
        }
    }
}
