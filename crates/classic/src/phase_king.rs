//! The phase-king Byzantine agreement protocol (Berman–Garay–Perry).
//!
//! A polynomial-message alternative instantiation of `A`: `t + 1` phases of
//! two rounds each, constant-size messages, correct for `n > 4t`. Phase `k`
//! (1-based) first has everyone exchange preferences; then the *king* —
//! the process with identifier `k` — broadcasts its majority value, and
//! every process without an overwhelming majority (`> n/2 + t` copies)
//! adopts the king's value. Some phase has a correct king, which aligns all
//! preferences; overwhelming majorities persist thereafter.

use std::collections::BTreeMap;

use homonym_core::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use homonym_core::{Domain, Id, Value};

use crate::interface::SyncBa;

/// The phase-king algorithm description for `ℓ` unique-identifier
/// processes tolerating `t < ℓ/4` faults.
///
/// # Example
///
/// ```
/// use homonym_classic::{PhaseKing, SyncBa};
/// use homonym_core::{Domain, Id};
///
/// let algo = PhaseKing::new(5, 1, Domain::binary());
/// let s = algo.init(Id::new(1), false);
/// assert_eq!(algo.round_bound(), 4); // 2(t + 1) rounds
/// assert_eq!(algo.decide(&s), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseKing<V> {
    ell: usize,
    t: usize,
    domain: Domain<V>,
}

/// Phase-king local state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseKingState<V> {
    id: Id,
    pref: V,
    /// Majority value and its multiplicity from the exchange round of the
    /// current phase (consumed in the king round).
    maj: Option<(V, usize)>,
    decided: Option<V>,
}

impl<V: Value> PhaseKingState<V> {
    /// The current preference.
    pub fn pref(&self) -> &V {
        &self.pref
    }
}

/// Phase-king wire message.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseKingMsg<V> {
    /// Preference exchange (first round of a phase).
    Pref(V),
    /// The king's broadcast (second round of a phase).
    King(V),
}

impl<V: Value + WireEncode> WireEncode for PhaseKingMsg<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            PhaseKingMsg::Pref(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            PhaseKingMsg::King(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<V: Value + WireDecode> WireDecode for PhaseKingMsg<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(PhaseKingMsg::Pref(V::decode(r)?)),
            1 => Ok(PhaseKingMsg::King(V::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "PhaseKingMsg",
                tag,
            }),
        }
    }
}

impl<V: Value + WireEncode> WireEncode for PhaseKingState<V> {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.pref.encode(w);
        self.maj.encode(w);
        self.decided.encode(w);
    }
}

impl<V: Value + WireDecode> WireDecode for PhaseKingState<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PhaseKingState {
            id: Id::decode(r)?,
            pref: V::decode(r)?,
            maj: Option::decode(r)?,
            decided: Option::decode(r)?,
        })
    }
}

impl<V: Value> PhaseKing<V> {
    /// Creates the algorithm description.
    ///
    /// # Panics
    ///
    /// Panics if `ell ≤ 4t` (the protocol's soundness range) — use
    /// [`PhaseKing::new_unchecked`] to build deliberately unsound instances
    /// for lower-bound experiments.
    pub fn new(ell: usize, t: usize, domain: Domain<V>) -> Self {
        assert!(
            ell > 4 * t,
            "phase-king requires ell > 4t (got ell = {ell}, t = {t})"
        );
        Self::new_unchecked(ell, t, domain)
    }

    /// Creates the algorithm description without the `ℓ > 4t` check.
    pub fn new_unchecked(ell: usize, t: usize, domain: Domain<V>) -> Self {
        PhaseKing { ell, t, domain }
    }

    /// The value domain.
    pub fn domain(&self) -> &Domain<V> {
        &self.domain
    }

    fn default_value(&self) -> V {
        self.domain.default_value().clone()
    }

    /// Phase number (1-based) of a 1-based round.
    fn phase(ba_round: u64) -> u64 {
        ba_round.div_ceil(2)
    }

    fn is_exchange_round(ba_round: u64) -> bool {
        ba_round % 2 == 1
    }

    /// The king of phase `k` is the process with identifier `k`.
    fn king(phase: u64) -> Id {
        Id::new(u16::try_from(phase).expect("phase fits in u16"))
    }
}

impl<V: Value> SyncBa for PhaseKing<V> {
    type State = PhaseKingState<V>;
    type Msg = PhaseKingMsg<V>;
    type Value = V;

    fn ell(&self) -> usize {
        self.ell
    }

    fn t(&self) -> usize {
        self.t
    }

    fn init(&self, id: Id, input: V) -> PhaseKingState<V> {
        let input = if self.domain.contains(&input) {
            input
        } else {
            self.default_value()
        };
        PhaseKingState {
            id,
            pref: input,
            maj: None,
            decided: None,
        }
    }

    fn message(&self, s: &PhaseKingState<V>, ba_round: u64) -> PhaseKingMsg<V> {
        let phase = Self::phase(ba_round);
        if Self::is_exchange_round(ba_round) {
            PhaseKingMsg::Pref(s.pref.clone())
        } else if s.id == Self::king(phase) {
            let (maj, _) = s.maj.clone().unwrap_or_else(|| (self.default_value(), 0));
            PhaseKingMsg::King(maj)
        } else {
            // Non-kings still send something so every identifier emits one
            // message per round (keeps the transformer's equivocation filter
            // uniform); recipients ignore non-king King messages.
            PhaseKingMsg::Pref(s.pref.clone())
        }
    }

    fn transition(
        &self,
        s: &PhaseKingState<V>,
        ba_round: u64,
        received: &BTreeMap<Id, PhaseKingMsg<V>>,
    ) -> PhaseKingState<V> {
        let mut next = s.clone();
        let phase = Self::phase(ba_round);
        if phase > self.t as u64 + 1 {
            return next;
        }
        if Self::is_exchange_round(ba_round) {
            let mut counts: BTreeMap<V, usize> = BTreeMap::new();
            for msg in received.values() {
                if let PhaseKingMsg::Pref(v) = msg {
                    if self.domain.contains(v) {
                        *counts.entry(v.clone()).or_insert(0) += 1;
                    }
                }
            }
            let best = counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            next.maj = Some(match best {
                Some((v, c)) if 2 * c > self.ell => (v, c),
                Some((_, _)) | None => (self.default_value(), 0),
            });
        } else {
            let king_value = match received.get(&Self::king(phase)) {
                Some(PhaseKingMsg::King(v)) if self.domain.contains(v) => v.clone(),
                _ => self.default_value(),
            };
            let (maj, mult) = next.maj.take().unwrap_or_else(|| (self.default_value(), 0));
            next.pref = if 2 * mult > self.ell + 2 * self.t {
                maj
            } else {
                king_value
            };
            if phase == self.t as u64 + 1 && next.decided.is_none() {
                next.decided = Some(next.pref.clone());
            }
        }
        next
    }

    fn decide(&self, s: &PhaseKingState<V>) -> Option<V> {
        s.decided.clone()
    }

    fn round_bound(&self) -> u64 {
        2 * (self.t as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_phase_king(
        ell: usize,
        t: usize,
        inputs: &[bool],
        byz: &[Id],
        mut forge: impl FnMut(Id, u64, Id) -> Option<PhaseKingMsg<bool>>,
    ) -> Vec<Option<bool>> {
        let algo = PhaseKing::new_unchecked(ell, t, Domain::binary());
        let mut states: BTreeMap<Id, PhaseKingState<bool>> = Id::all(ell)
            .filter(|id| !byz.contains(id))
            .map(|id| (id, algo.init(id, inputs[id.index()])))
            .collect();
        for r in 1..=algo.round_bound() {
            let honest: BTreeMap<Id, PhaseKingMsg<bool>> = states
                .iter()
                .map(|(&id, s)| (id, algo.message(s, r)))
                .collect();
            let mut next = BTreeMap::new();
            for (&id, s) in &states {
                let mut inbox = honest.clone();
                for &b in byz {
                    if let Some(m) = forge(b, r, id) {
                        inbox.insert(b, m);
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
    fn unanimous_inputs_decide_that_value() {
        for v in [false, true] {
            let decisions = run_phase_king(5, 1, &[v; 5], &[], |_, _, _| None);
            for d in decisions {
                assert_eq!(d, Some(v));
            }
        }
    }

    #[test]
    fn mixed_inputs_agree() {
        let decisions =
            run_phase_king(5, 1, &[true, false, true, false, true], &[], |_, _, _| None);
        assert!(decisions[0].is_some());
        assert!(decisions.iter().all(|d| *d == decisions[0]));
    }

    #[test]
    fn byzantine_king_cannot_split_correct_processes() {
        // Byzantine identifier 1 is the first king and lies differently to
        // different recipients; the correct king of phase 2 restores
        // agreement.
        let byz = [Id::new(1)];
        let inputs = [false, true, false, true, false];
        let decisions = run_phase_king(5, 1, &inputs, &byz, |b, r, to| {
            if PhaseKing::<bool>::is_exchange_round(r) {
                Some(PhaseKingMsg::Pref(to.index() % 2 == 0))
            } else if PhaseKing::<bool>::king(PhaseKing::<bool>::phase(r)) == b {
                Some(PhaseKingMsg::King(to.index() % 2 == 0))
            } else {
                None
            }
        });
        let correct: Vec<Option<bool>> = Id::all(5)
            .filter(|id| !byz.contains(id))
            .map(|id| decisions[id.index()])
            .collect();
        assert!(correct[0].is_some());
        assert!(correct.iter().all(|d| *d == correct[0]), "{correct:?}");
    }

    #[test]
    fn byzantine_cannot_break_validity() {
        let byz = [Id::new(5)];
        let decisions = run_phase_king(5, 1, &[true; 5], &byz, |_, r, to| {
            if PhaseKing::<bool>::is_exchange_round(r) {
                Some(PhaseKingMsg::Pref(to.index() % 2 == 0))
            } else {
                Some(PhaseKingMsg::King(false))
            }
        });
        for id in Id::all(5).filter(|id| !byz.contains(id)) {
            assert_eq!(decisions[id.index()], Some(true));
        }
    }

    #[test]
    fn phase_round_mapping() {
        assert_eq!(PhaseKing::<bool>::phase(1), 1);
        assert_eq!(PhaseKing::<bool>::phase(2), 1);
        assert_eq!(PhaseKing::<bool>::phase(3), 2);
        assert!(PhaseKing::<bool>::is_exchange_round(1));
        assert!(!PhaseKing::<bool>::is_exchange_round(2));
        assert_eq!(PhaseKing::<bool>::king(2), Id::new(2));
    }

    #[test]
    #[should_panic(expected = "ell > 4t")]
    fn unsound_parameters_rejected() {
        let _ = PhaseKing::new(4, 1, Domain::binary());
    }

    #[test]
    fn out_of_domain_input_coerced_to_default() {
        let algo = PhaseKing::new_unchecked(5, 1, Domain::new(vec![1u32, 2]));
        let s = algo.init(Id::new(1), 7);
        assert_eq!(*s.pref(), 1);
    }

    #[test]
    fn decision_is_stable() {
        let algo = PhaseKing::new(5, 1, Domain::binary());
        let mut s = algo.init(Id::new(1), true);
        for r in 1..=10 {
            s = algo.transition(&s, r, &BTreeMap::new());
        }
        let d = algo.decide(&s);
        assert!(d.is_some());
        let s2 = algo.transition(&s, 11, &BTreeMap::new());
        assert_eq!(algo.decide(&s2), d);
    }
}

#[cfg(test)]
mod codec_proptests {
    use super::*;
    use homonym_core::codec::{decode_frame, encode_frame};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `decode(encode(m)) == m` for phase-king wire messages.
        #[test]
        fn phase_king_msg_roundtrips(king in any::<bool>(), v in any::<bool>()) {
            let msg = if king {
                PhaseKingMsg::King(v)
            } else {
                PhaseKingMsg::Pref(v)
            };
            let back: PhaseKingMsg<bool> =
                decode_frame(&encode_frame(&msg)).expect("own frames must decode");
            prop_assert_eq!(back, msg);
        }

        /// `decode(encode(s)) == s` for phase-king states across the
        /// whole `(pref, maj, decided)` shape space.
        #[test]
        fn phase_king_state_roundtrips(
            raw_id in 1u16..=6,
            pref in any::<bool>(),
            maj in any::<bool>(),
            maj_v in any::<bool>(),
            mult in 0usize..7,
            decided in any::<bool>(),
            decision in any::<bool>(),
        ) {
            let state = PhaseKingState {
                id: Id::new(raw_id),
                pref,
                maj: maj.then_some((maj_v, mult)),
                decided: decided.then_some(decision),
            };
            let back: PhaseKingState<bool> =
                decode_frame(&encode_frame(&state)).expect("own frames must decode");
            prop_assert_eq!(back, state);
        }
    }
}
