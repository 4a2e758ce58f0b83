//! The `T(A)` transformer of Figure 3.

use std::collections::{BTreeMap, BTreeSet};

use homonym_classic::SyncBa;
use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::{Id, Inbox, Protocol, ProtocolFactory, Recipients, Round};

/// The phase-relative position of a round: each phase of `T(A)` is three
/// rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseRound {
    Selection,
    Deciding,
    Running,
}

fn phase_round(round: Round) -> (u64, PhaseRound) {
    let phase = round.index() / 3;
    let kind = match round.index() % 3 {
        0 => PhaseRound::Selection,
        1 => PhaseRound::Deciding,
        _ => PhaseRound::Running,
    };
    (phase, kind)
}

/// Wire messages of `T(A)`: one variant per round kind.
///
/// Generic over the simulated algorithm's state, message, and value types
/// (for an algorithm `A`, the wire type is
/// `TransformerMsg<A::State, A::Msg, A::Value>`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TransformerMsg<S, M, V> {
    /// Selection round: the sender's current `A`-state (Figure 3 line 3).
    State(S),
    /// Deciding round: the sender's `decide(s)` (Figure 3 line 6).
    Decide(Option<V>),
    /// Running round: `M(s, r)` of the simulated algorithm (line 10).
    Run(M),
}

/// The concrete wire type of `T(A)` for a given algorithm `A`.
pub type TransformerMsgOf<A> =
    TransformerMsg<<A as SyncBa>::State, <A as SyncBa>::Msg, <A as SyncBa>::Value>;

impl<S: WireEncode, M: WireEncode, V: WireEncode> WireEncode for TransformerMsg<S, M, V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            TransformerMsg::State(s) => {
                w.put_u8(0);
                s.encode(w);
            }
            TransformerMsg::Decide(d) => {
                w.put_u8(1);
                d.encode(w);
            }
            TransformerMsg::Run(m) => {
                w.put_u8(2);
                m.encode(w);
            }
        }
    }
}

impl<S: WireDecode, M: WireDecode, V: WireDecode> WireDecode for TransformerMsg<S, M, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(TransformerMsg::State(S::decode(r)?)),
            1 => Ok(TransformerMsg::Decide(Option::decode(r)?)),
            2 => Ok(TransformerMsg::Run(M::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "TransformerMsg",
                tag,
            }),
        }
    }
}

/// One homonym process running `T(A)` (Figure 3).
///
/// # Example
///
/// ```
/// use homonym_classic::Eig;
/// use homonym_core::{Domain, Id, Protocol};
/// use homonym_sync::Transformed;
///
/// // ℓ = 4 identifiers, t = 1: ℓ > 3t, so T(EIG) solves agreement for any
/// // n ≥ 4 homonym processes.
/// let algo = Eig::new(4, 1, Domain::binary());
/// let p = Transformed::new(algo, 1, Id::new(2), true);
/// assert_eq!(p.id(), Id::new(2));
/// ```
#[derive(Clone, Debug)]
pub struct Transformed<A: SyncBa> {
    algo: A,
    t: usize,
    id: Id,
    /// The simulated `A`-state `s`.
    state: A::State,
    decision: Option<A::Value>,
    /// Ablation switch: when false, the deciding rounds are inert and a
    /// process decides only from its own simulated state (see
    /// [`TransformedFactory::ablated_without_decide_relay`]).
    decide_relay: bool,
}

impl<A: SyncBa> Transformed<A> {
    /// Creates the automaton for a process holding `id` proposing `input`,
    /// simulating `algo` and tolerating `t` faults.
    ///
    /// # Panics
    ///
    /// Panics if `t` differs from the simulated algorithm's fault bound —
    /// the deciding-round threshold `t + 1` must match what `A` tolerates.
    pub fn new(algo: A, t: usize, id: Id, input: A::Value) -> Self {
        assert_eq!(
            t,
            algo.t(),
            "transformer and simulated algorithm must agree on t"
        );
        let state = algo.init(id, input);
        Transformed {
            algo,
            t,
            id,
            state,
            decision: None,
            decide_relay: true,
        }
    }

    /// The simulated `A`-state (exposed for the lockstep tests).
    pub fn state(&self) -> &A::State {
        &self.state
    }

    /// Rounds needed for every correct process to decide: three per
    /// simulated round, plus one full phase of slack for the
    /// deciding-round relay.
    pub fn round_bound(&self) -> u64 {
        3 * (self.algo.round_bound() + 1)
    }
}

impl<A: SyncBa> Protocol for Transformed<A> {
    type Msg = TransformerMsgOf<A>;
    type Value = A::Value;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, Self::Msg)> {
        let (phase, kind) = phase_round(round);
        let msg = match kind {
            // Line 3: get the group to agree on its state.
            PhaseRound::Selection => TransformerMsg::State(self.state.clone()),
            // Line 6: the deciding round replaces A's decision line.
            PhaseRound::Deciding => TransformerMsg::Decide(if self.decide_relay {
                self.algo.decide(&self.state)
            } else {
                None
            }),
            // Line 10: one real round of A (1-based round number).
            PhaseRound::Running => TransformerMsg::Run(self.algo.message(&self.state, phase + 1)),
        };
        vec![(Recipients::All, msg)]
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<Self::Msg>) {
        let (phase, kind) = phase_round(round);
        match kind {
            PhaseRound::Selection => {
                // Line 5: deterministic choice among the states received
                // from the process's own identifier — we take the smallest.
                let chosen = inbox
                    .from_id(self.id)
                    .filter_map(|(m, _)| match m {
                        TransformerMsg::State(s) => Some(s),
                        _ => None,
                    })
                    .min();
                if let Some(s) = chosen {
                    self.state = s.clone();
                }
                // (In the synchronous model a process always receives its own
                // state, so `chosen` is never empty for correct processes.)
            }
            PhaseRound::Deciding => {
                // Lines 8–9: decide any value reported by t + 1 distinct
                // identifiers; at least one of them names a fully correct
                // group, which only reports what A really decided.
                if self.decision.is_some() || !self.decide_relay {
                    return;
                }
                let mut support: BTreeMap<&A::Value, BTreeSet<Id>> = BTreeMap::new();
                for (id, msg, _) in inbox.iter() {
                    if let TransformerMsg::Decide(Some(v)) = msg {
                        support.entry(v).or_default().insert(id);
                    }
                }
                self.decision = support
                    .into_iter()
                    .find(|(_, ids)| ids.len() >= self.t + 1)
                    .map(|(v, _)| v.clone());
            }
            PhaseRound::Running => {
                // Lines 12–14: drop every message from identifiers that sent
                // more than one distinct message this round — their group is
                // provably not a single correct process.
                let mut received: BTreeMap<Id, A::Msg> = BTreeMap::new();
                for id in inbox.ids() {
                    let mut runs = inbox.from_id(id).filter_map(|(m, _)| match m {
                        TransformerMsg::Run(m) => Some(m),
                        _ => None,
                    });
                    let first = runs.next();
                    let distinct = inbox.distinct_from(id);
                    if let (Some(m), 1) = (first, distinct) {
                        received.insert(id, m.clone());
                    }
                }
                // Line 15: one transition of A (1-based round number).
                self.state = self.algo.transition(&self.state, phase + 1, &received);
                if !self.decide_relay && self.decision.is_none() {
                    // Ablated mode: only the process's own simulated state
                    // can decide (Figure 2 line 3) — which a Byzantine
                    // homonym can sabotage; see the ablation tests.
                    self.decision = self.algo.decide(&self.state);
                }
            }
        }
    }

    fn decision(&self) -> Option<Self::Value> {
        self.decision.clone()
    }
}

/// A [`ProtocolFactory`] producing [`Transformed`] processes for one run.
#[derive(Clone, Debug)]
pub struct TransformedFactory<A> {
    algo: A,
    t: usize,
    decide_relay: bool,
}

impl<A: SyncBa + Clone> TransformedFactory<A> {
    /// Creates a factory stamping out `T(algo)` processes tolerating `t`
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if `t` differs from `algo.t()`.
    pub fn new(algo: A, t: usize) -> Self {
        assert_eq!(
            t,
            algo.t(),
            "transformer and simulated algorithm must agree on t"
        );
        TransformedFactory {
            algo,
            t,
            decide_relay: true,
        }
    }

    /// **Ablation**: builds the transformer *without* the deciding rounds
    /// (processes send `Decide(None)` and ignore incoming decide reports,
    /// deciding only from their own simulated state).
    ///
    /// The paper adds the deciding rounds precisely because "the deciding
    /// rounds are useful for correct processes that belong to a group with
    /// a Byzantine process": such a process's selection round can be
    /// hijacked forever by a minimal Byzantine state, so without the relay
    /// it never decides — `tests/ablations.rs` exhibits exactly that
    /// failure.
    ///
    /// # Panics
    ///
    /// Panics if `t` differs from `algo.t()`.
    pub fn ablated_without_decide_relay(algo: A, t: usize) -> Self {
        assert_eq!(
            t,
            algo.t(),
            "transformer and simulated algorithm must agree on t"
        );
        TransformedFactory {
            algo,
            t,
            decide_relay: false,
        }
    }

    /// The worst-case rounds to decision (see
    /// [`Transformed::round_bound`]).
    pub fn round_bound(&self) -> u64 {
        3 * (self.algo.round_bound() + 1)
    }
}

impl<A: SyncBa + Clone> ProtocolFactory for TransformedFactory<A> {
    type P = Transformed<A>;

    fn spawn(&self, id: Id, input: A::Value) -> Transformed<A> {
        let mut p = Transformed::new(self.algo.clone(), self.t, id, input);
        p.decide_relay = self.decide_relay;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_classic::Eig;
    use homonym_core::{Counting, Domain, Envelope};

    type BoolEig = Eig<bool>;

    fn algo(ell: usize, t: usize) -> BoolEig {
        Eig::new(ell, t, Domain::binary())
    }

    fn state_msg(p: &Transformed<BoolEig>) -> TransformerMsgOf<BoolEig> {
        TransformerMsg::State(p.state().clone())
    }

    #[test]
    fn phase_round_mapping() {
        assert_eq!(phase_round(Round::new(0)), (0, PhaseRound::Selection));
        assert_eq!(phase_round(Round::new(1)), (0, PhaseRound::Deciding));
        assert_eq!(phase_round(Round::new(2)), (0, PhaseRound::Running));
        assert_eq!(phase_round(Round::new(3)), (1, PhaseRound::Selection));
    }

    #[test]
    fn selection_round_aligns_group_state() {
        // Two homonyms with different inputs; after the selection round both
        // hold the same state.
        let mut a = Transformed::new(algo(4, 1), 1, Id::new(1), false);
        let mut b = Transformed::new(algo(4, 1), 1, Id::new(1), true);
        let ma = state_msg(&a);
        let mb = state_msg(&b);
        let inbox = Inbox::collect(
            vec![
                Envelope {
                    src: Id::new(1),
                    msg: ma,
                },
                Envelope {
                    src: Id::new(1),
                    msg: mb,
                },
            ],
            Counting::Innumerate,
        );
        a.receive(Round::new(0), &inbox);
        b.receive(Round::new(0), &inbox);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn selection_ignores_other_identifiers() {
        let mut a = Transformed::new(algo(4, 1), 1, Id::new(1), false);
        let before = a.state().clone();
        let other = Transformed::new(algo(4, 1), 1, Id::new(2), true);
        let inbox = Inbox::collect(
            vec![Envelope {
                src: Id::new(2),
                msg: state_msg(&other),
            }],
            Counting::Innumerate,
        );
        a.receive(Round::new(0), &inbox);
        assert_eq!(
            *a.state(),
            before,
            "states from other identifiers must not be adopted"
        );
    }

    #[test]
    fn deciding_round_needs_t_plus_1_identifiers() {
        let t = 1;
        let mut p = Transformed::new(algo(4, t), t, Id::new(1), false);

        // One identifier claiming a decision is not enough.
        let inbox = Inbox::collect(
            vec![Envelope {
                src: Id::new(2),
                msg: TransformerMsg::Decide(Some(true)),
            }],
            Counting::Innumerate,
        );
        p.receive(Round::new(1), &inbox);
        assert_eq!(p.decision(), None);

        // Two distinct identifiers (t + 1) suffice.
        let inbox = Inbox::collect(
            vec![
                Envelope {
                    src: Id::new(2),
                    msg: TransformerMsg::Decide(Some(true)),
                },
                Envelope {
                    src: Id::new(3),
                    msg: TransformerMsg::Decide(Some(true)),
                },
            ],
            Counting::Innumerate,
        );
        p.receive(Round::new(4), &inbox);
        assert_eq!(p.decision(), Some(true));
    }

    #[test]
    fn deciding_round_ignores_none_votes() {
        let t = 1;
        let mut p = Transformed::new(algo(4, t), t, Id::new(1), false);
        let inbox = Inbox::collect(
            vec![
                Envelope {
                    src: Id::new(2),
                    msg: TransformerMsg::Decide(None),
                },
                Envelope {
                    src: Id::new(3),
                    msg: TransformerMsg::Decide(None),
                },
                Envelope {
                    src: Id::new(4),
                    msg: TransformerMsg::Decide(None),
                },
            ],
            Counting::Innumerate,
        );
        p.receive(Round::new(1), &inbox);
        assert_eq!(p.decision(), None);
    }

    #[test]
    fn running_round_discards_equivocating_identifiers() {
        let t = 1;
        let mut p = Transformed::new(algo(4, t), t, Id::new(1), false);
        // Identifier 2 sends two *different* run messages: a split (or
        // Byzantine) group. Its root claim must not enter the EIG tree.
        let mut m1 = homonym_classic::EigMsg::new();
        m1.insert(vec![], true);
        let mut m2 = homonym_classic::EigMsg::new();
        m2.insert(vec![], false);
        let inbox = Inbox::collect(
            vec![
                Envelope {
                    src: Id::new(2),
                    msg: TransformerMsg::Run(m1.clone()),
                },
                Envelope {
                    src: Id::new(2),
                    msg: TransformerMsg::Run(m2),
                },
                Envelope {
                    src: Id::new(3),
                    msg: TransformerMsg::Run(m1),
                },
            ],
            Counting::Innumerate,
        );
        let before = p.state().tree_size();
        p.receive(Round::new(2), &inbox);
        // Only identifier 3's message got through.
        assert_eq!(p.state().tree_size(), before + 1);
    }

    #[test]
    fn running_round_discards_ill_typed_messages() {
        let t = 1;
        let mut p = Transformed::new(algo(4, t), t, Id::new(1), false);
        let stray = Transformed::new(algo(4, t), t, Id::new(2), true);
        // A State message during a running round is junk; the identifier
        // also equivocates by type mixture, so everything from it goes.
        let mut run = homonym_classic::EigMsg::new();
        run.insert(vec![], true);
        let inbox = Inbox::collect(
            vec![
                Envelope {
                    src: Id::new(2),
                    msg: state_msg(&stray),
                },
                Envelope {
                    src: Id::new(2),
                    msg: TransformerMsg::Run(run),
                },
            ],
            Counting::Innumerate,
        );
        let before = p.state().tree_size();
        p.receive(Round::new(2), &inbox);
        assert_eq!(p.state().tree_size(), before);
    }

    #[test]
    #[should_panic(expected = "agree on t")]
    fn mismatched_t_rejected() {
        let _ = Transformed::new(algo(4, 1), 2, Id::new(1), false);
    }

    #[test]
    fn round_bound_is_three_times_plus_slack() {
        let f = TransformedFactory::new(algo(4, 1), 1);
        // EIG bound = t + 1 = 2 simulated rounds → 3 × (2 + 1) = 9.
        assert_eq!(f.round_bound(), 9);
    }
}

#[cfg(test)]
mod codec_proptests {
    use std::collections::BTreeMap;

    use super::*;
    use homonym_classic::{Eig, EigMsg, EigState, SyncBa};
    use homonym_core::codec::{decode_frame, encode_frame};
    use homonym_core::Domain;
    use proptest::prelude::*;

    /// A structurally arbitrary EIG message: random paths over
    /// identifiers 1..=6 with random boolean values.
    fn arb_eig_msg() -> impl Strategy<Value = EigMsg<bool>> {
        proptest::collection::btree_map(
            proptest::collection::vec(1u16..=6, 0..3)
                .prop_map(|raw| raw.into_iter().map(Id::new).collect::<Vec<Id>>()),
            any::<bool>(),
            0..5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `decode(encode(m)) == m` for every `T(EIG)` wire variant:
        /// selection-round states, deciding-round decisions, and
        /// running-round simulated messages.
        #[test]
        fn transformer_msg_roundtrips(
            tag in 0usize..3,
            raw_id in 1u16..=6,
            input in any::<bool>(),
            decide in any::<bool>(),
            decision in any::<bool>(),
            run_msg in arb_eig_msg(),
        ) {
            let algo = Eig::new(4, 1, Domain::binary());
            let msg: TransformerMsgOf<Eig<bool>> = match tag {
                0 => TransformerMsg::State(algo.init(Id::new(raw_id), input)),
                1 => TransformerMsg::Decide(decide.then_some(decision)),
                _ => TransformerMsg::Run(run_msg),
            };
            let back: TransformerMsgOf<Eig<bool>> =
                decode_frame(&encode_frame(&msg)).expect("own frames must decode");
            prop_assert_eq!(back, msg);
        }

        /// The `State` variant also round-trips rich states reached by
        /// actually stepping the simulated algorithm.
        #[test]
        fn transformer_state_roundtrips_after_steps(
            inputs in proptest::collection::vec(any::<bool>(), 4),
        ) {
            let algo = Eig::new(4, 1, Domain::binary());
            let mut states: Vec<EigState<bool>> = (0..4)
                .map(|k| algo.init(Id::from_index(k), inputs[k]))
                .collect();
            for ba_round in 1..=algo.round_bound() {
                let received: BTreeMap<Id, EigMsg<bool>> = (0..4)
                    .map(|k| (Id::from_index(k), algo.message(&states[k], ba_round)))
                    .collect();
                states = states
                    .iter()
                    .map(|s| algo.transition(s, ba_round, &received))
                    .collect();
                for s in &states {
                    let wrapped: TransformerMsgOf<Eig<bool>> =
                        TransformerMsg::State(s.clone());
                    let back: TransformerMsgOf<Eig<bool>> =
                        decode_frame(&encode_frame(&wrapped)).expect("own frames must decode");
                    prop_assert_eq!(back, wrapped);
                }
            }
        }
    }
}
