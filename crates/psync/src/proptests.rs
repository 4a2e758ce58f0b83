//! Property-based tests: the broadcast-layer guarantees and the quorum
//! lemma, swept over random loss schedules, assignments and adversarial
//! injections (rather than the hand-picked schedules of the unit tests) —
//! plus the equivalence of the interned [`EchoBroadcast`] against a kept
//! copy of the original deep-keyed implementation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use homonym_core::codec::{decode_frame, encode_frame, WireDecode, WireEncode};
use homonym_core::{
    Counting, Domain, Envelope, Id, IdAssignment, Inbox, Pid, Protocol, ProtocolFactory, Round,
    SharedEnvelope,
};
use proptest::prelude::*;

use crate::agreement::{Bundle, HomonymAgreement, Payload};
use crate::bounded::{
    BoundedAgreement, BoundedAgreementFactory, BoundedBundle, BoundedEchoBroadcast,
};
use crate::bounded_restricted::BoundedRestrictedAgreement;
use crate::broadcast::{EchoBroadcast, EchoItem};
use crate::invariants::sole_correct_witness;
use crate::mult_broadcast::{MultBroadcast, MultPart};
use crate::restricted::{RestrictedAgreement, RestrictedBundle};

// ------------------------- the reference (pre-interning) EchoBroadcast

/// The original deep-keyed echo-broadcast implementation, kept verbatim
/// (modulo the struct rename) as the behavioural reference for the
/// interned [`EchoBroadcast`]: maps keyed on owned `(M, u64, Id)` tuples,
/// `BTreeSet<Id>` evidence, full-table threshold sweep every round.
mod reference {
    use super::*;

    pub struct ReferenceEchoBroadcast<M> {
        ell: usize,
        t: usize,
        echoing: BTreeSet<(M, u64, Id)>,
        evidence: BTreeMap<(M, u64, Id), BTreeSet<Id>>,
        accepted: BTreeSet<(M, u64, Id)>,
        queue: Vec<M>,
    }

    impl<M: homonym_core::Message> ReferenceEchoBroadcast<M> {
        pub fn new(ell: usize, t: usize) -> Self {
            ReferenceEchoBroadcast {
                ell,
                t,
                echoing: BTreeSet::new(),
                evidence: BTreeMap::new(),
                accepted: BTreeSet::new(),
                queue: Vec::new(),
            }
        }

        pub fn accept_threshold(&self) -> usize {
            self.ell.saturating_sub(self.t)
        }

        pub fn join_threshold(&self) -> usize {
            self.ell.saturating_sub(2 * self.t).max(1)
        }

        pub fn broadcast(&mut self, payload: M) {
            self.queue.push(payload);
        }

        /// The original `to_send`, with the echoes as plain triples.
        #[allow(clippy::wrong_self_convention)] // mirrors the real API
        pub fn to_send(&mut self, round: Round) -> (Vec<M>, Vec<(M, u64, Id)>) {
            let inits = if round.is_first_of_superround() {
                std::mem::take(&mut self.queue)
            } else {
                Vec::new()
            };
            let echoes = self.echoing.iter().cloned().collect();
            (inits, echoes)
        }

        /// The original `observe`, with accepts as plain triples in the
        /// original report order (ascending evidence-key order).
        pub fn observe(
            &mut self,
            round: Round,
            inits: &[(Id, &M)],
            echoes: &[(Id, &(M, u64, Id))],
        ) -> Vec<(M, u64, Id)> {
            if round.is_first_of_superround() {
                let sr = round.superround().index();
                for &(src, payload) in inits {
                    self.echoing.insert((payload.clone(), sr, src));
                }
            }
            for &(echoer, item) in echoes {
                self.evidence
                    .entry(item.clone())
                    .or_default()
                    .insert(echoer);
            }
            let join = self.join_threshold();
            let accept = self.accept_threshold();
            let mut accepts = Vec::new();
            for (key, supporters) in &self.evidence {
                if supporters.len() >= join {
                    self.echoing.insert(key.clone());
                }
                if supporters.len() >= accept && self.accepted.insert(key.clone()) {
                    accepts.push(key.clone());
                }
            }
            accepts
        }

        pub fn has_accepted(&self, payload: &M, src: Id) -> bool {
            self.accepted
                .iter()
                .any(|(m, _, i)| m == payload && *i == src)
        }

        pub fn echoing_len(&self) -> usize {
            self.echoing.len()
        }
    }
}

/// The payload alphabet the equivalence sweep draws from.
const ALPHABET: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One scripted round of adversarial input: `(id, payload)` init claims
/// and `(echoer, (payload, sr, src))` echo items, in arbitrary order.
type ScriptedRound = (Vec<(u16, usize)>, Vec<(u16, (usize, u64, u16))>);

fn scripted_rounds(ell: usize, rounds: usize) -> impl Strategy<Value = Vec<ScriptedRound>> {
    let id = 1..=(ell as u16 + 1); // occasionally out-of-range ids too
    let inits = proptest::collection::vec((id.clone(), 0..ALPHABET.len()), 0..4);
    let echoes = proptest::collection::vec(
        (id.clone(), (0..ALPHABET.len(), 0u64..3, 1..=(ell as u16))),
        0..10,
    );
    proptest::collection::vec((inits, echoes), rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The interned `EchoBroadcast` is observationally identical to the
    /// kept reference implementation: same outgoing items, same accepts
    /// in the same order, same `has_accepted` answers, same echo-set
    /// size — for every round of every adversarial injection schedule
    /// (arbitrary echo orders, duplicate items, out-of-range echoers,
    /// forged superrounds) and every queued-broadcast pattern.
    #[test]
    fn interned_matches_reference_echo_broadcast(
        ell in 3usize..7,
        t in 0usize..2,
        script in scripted_rounds(5, 10),
        bcast_rounds in proptest::collection::vec(0usize..10, 0..3),
    ) {
        let mut interned: EchoBroadcast<&'static str> = EchoBroadcast::new(ell, t);
        let mut reference = reference::ReferenceEchoBroadcast::new(ell, t);
        prop_assert_eq!(interned.join_threshold(), reference.join_threshold());
        prop_assert_eq!(interned.accept_threshold(), reference.accept_threshold());

        for (r, (init_script, echo_script)) in script.iter().enumerate() {
            let round = Round::new(r as u64);
            if bcast_rounds.contains(&r) {
                interned.broadcast(ALPHABET[r % ALPHABET.len()]);
                reference.broadcast(ALPHABET[r % ALPHABET.len()]);
            }

            // Send side: identical inits, identical echo triples.
            let (inits_a, echoes_a) = interned.to_send(round);
            let (inits_b, echoes_b) = reference.to_send(round);
            prop_assert_eq!(&inits_a, &inits_b);
            let triples_a: Vec<(&'static str, u64, Id)> = echoes_a
                .iter()
                .map(|e| (*e.payload, e.sr, e.src))
                .collect();
            prop_assert_eq!(&triples_a, &echoes_b, "round {}", r);

            // Receive side: the same scripted items, in the same
            // (arbitrary) order.
            let inits: Vec<(Id, &&'static str)> = init_script
                .iter()
                .map(|&(id, p)| (Id::new(id), &ALPHABET[p]))
                .collect();
            let items: Vec<EchoItem<&'static str>> = echo_script
                .iter()
                .map(|&(_, (p, sr, src))| EchoItem::new(ALPHABET[p], sr, Id::new(src)))
                .collect();
            let ref_items: Vec<(&'static str, u64, Id)> = echo_script
                .iter()
                .map(|&(_, (p, sr, src))| (ALPHABET[p], sr, Id::new(src)))
                .collect();
            let echoes_in: Vec<(Id, &EchoItem<&'static str>)> = echo_script
                .iter()
                .zip(&items)
                .map(|(&(echoer, _), item)| (Id::new(echoer), item))
                .collect();
            let ref_echoes_in: Vec<(Id, &(&'static str, u64, Id))> = echo_script
                .iter()
                .zip(&ref_items)
                .map(|(&(echoer, _), item)| (Id::new(echoer), item))
                .collect();

            let accepts_a = interned.observe(round, &inits, &echoes_in);
            let accepts_b = reference.observe(round, &inits, &ref_echoes_in);
            let accepts_a: Vec<(&'static str, u64, Id)> = accepts_a
                .into_iter()
                .map(|a| (a.payload, a.sr, a.src))
                .collect();
            prop_assert_eq!(&accepts_a, &accepts_b, "accepts diverge in round {}", r);

            prop_assert_eq!(interned.echoing_len(), reference.echoing_len());
            for payload in ALPHABET {
                for id in 1..=(ell as u16) {
                    prop_assert_eq!(
                        interned.has_accepted(&payload, Id::new(id)),
                        reference.has_accepted(&payload, Id::new(id)),
                        "has_accepted({}, {}) diverges", payload, id
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inside its window the bounded layer is the reference layer: with a
    /// window no run outlasts, and the echoes stamped past the receiver's
    /// own superround (which the bounded layer ignores) withheld from the
    /// reference, both send the same items, join and accept the same
    /// keys in the same order, under the same adversarial schedules.
    #[test]
    fn bounded_echo_broadcast_matches_reference_within_the_window(
        ell in 3usize..7,
        t in 0usize..2,
        script in scripted_rounds(5, 10),
        bcast_rounds in proptest::collection::vec(0usize..10, 0..3),
    ) {
        let mut bounded: BoundedEchoBroadcast<&'static str> =
            BoundedEchoBroadcast::with_window(ell, t, u64::MAX);
        let mut reference = reference::ReferenceEchoBroadcast::new(ell, t);

        for (r, (init_script, echo_script)) in script.iter().enumerate() {
            let round = Round::new(r as u64);
            if bcast_rounds.contains(&r) {
                bounded.broadcast(ALPHABET[r % ALPHABET.len()]);
                reference.broadcast(ALPHABET[r % ALPHABET.len()]);
            }

            let (inits_a, echoes_a) = bounded.shared_to_send(round);
            let (inits_b, echoes_b) = reference.to_send(round);
            prop_assert_eq!(&inits_a, &inits_b);
            let triples_a: Vec<(&'static str, u64, Id)> = echoes_a
                .iter()
                .map(|e| (*e.payload, e.sr, e.src))
                .collect();
            prop_assert_eq!(&triples_a, &echoes_b, "round {}", r);

            let inits: Vec<(Id, &&'static str)> = init_script
                .iter()
                .map(|&(id, p)| (Id::new(id), &ALPHABET[p]))
                .collect();
            let items: Vec<(Id, EchoItem<&'static str>, (&'static str, u64, Id))> = echo_script
                .iter()
                .map(|&(echoer, (p, sr, src))| {
                    let src = Id::new(src);
                    (Id::new(echoer), EchoItem::new(ALPHABET[p], sr, src), (ALPHABET[p], sr, src))
                })
                .collect();
            let echoes_in: Vec<(Id, &EchoItem<&'static str>)> =
                items.iter().map(|(echoer, item, _)| (*echoer, item)).collect();
            let ref_echoes_in: Vec<(Id, &(&'static str, u64, Id))> = items
                .iter()
                .filter(|(_, item, _)| item.sr <= round.superround().index())
                .map(|(echoer, _, triple)| (*echoer, triple))
                .collect();

            let accepts_a: Vec<(&'static str, u64, Id)> = bounded
                .observe(round, &inits, &echoes_in, &[])
                .into_iter()
                .map(|a| (a.payload, a.sr, a.src))
                .collect();
            let accepts_b = reference.observe(round, &inits, &ref_echoes_in);
            prop_assert_eq!(&accepts_a, &accepts_b, "accepts diverge in round {}", r);
            prop_assert_eq!(bounded.echoing_len(), reference.echoing_len());
        }
    }
}

// ---------------------------------------------------------------- Lemma 7

/// Generates `(t, ell, n, tail assignment, byz picks, excluded-id picks)`.
/// The first `ell` processes take identifiers `1..=ell` (covering every
/// identifier); the tail is assigned randomly.
fn lemma7_params() -> impl Strategy<
    Value = (
        usize,
        usize,
        usize,
        Vec<u16>,
        Vec<usize>,
        Vec<u16>,
        Vec<u16>,
    ),
> {
    (1usize..=2)
        .prop_flat_map(|t| {
            (Just(t), (3 * t + 1)..=(3 * t + 4)).prop_flat_map(move |(t, ell)| {
                let n_hi = 2 * ell - 3 * t - 1; // largest n with 2ℓ > n + 3t
                (Just(t), Just(ell), ell..=n_hi)
            })
        })
        .prop_flat_map(|(t, ell, n)| {
            (
                Just(t),
                Just(ell),
                Just(n),
                proptest::collection::vec(1..=ell as u16, n - ell),
                proptest::collection::vec(0..n, t),
                proptest::collection::vec(1..=ell as u16, 0..=t),
                proptest::collection::vec(1..=ell as u16, 0..=t),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 7: whenever `2ℓ > n + 3t`, any two identifier sets of size
    /// `≥ ℓ − t` intersect in an identifier held by exactly one process,
    /// which is correct — for **every** assignment of the tail and every
    /// Byzantine placement.
    #[test]
    fn lemma7_witness_exists_whenever_bound_holds(
        (t, ell, n, tail, byz_picks, excl_a, excl_b) in lemma7_params()
    ) {
        prop_assume!(2 * ell > n + 3 * t);
        let mut ids: Vec<Id> = (1..=ell as u16).map(Id::new).collect();
        ids.extend(tail.iter().map(|&i| Id::new(i)));
        let assignment = IdAssignment::new(ell, ids).expect("every id covered");
        let byz: BTreeSet<Pid> = byz_picks.into_iter().map(Pid::new).collect();
        prop_assume!(byz.len() <= t);

        let quorum_from = |excl: &[u16]| -> BTreeSet<Id> {
            let excluded: BTreeSet<Id> = excl.iter().map(|&i| Id::new(i)).collect();
            (1..=ell as u16)
                .map(Id::new)
                .filter(|id| !excluded.contains(id))
                .collect()
        };
        let a = quorum_from(&excl_a);
        let b = quorum_from(&excl_b);
        prop_assert!(a.len() >= ell - t && b.len() >= ell - t);

        let witness = sole_correct_witness(&assignment, &byz, &a, &b);
        prop_assert!(
            witness.is_some(),
            "no sole-correct witness: n={n} ell={ell} t={t} a={a:?} b={b:?} byz={byz:?}"
        );
    }
}

// ------------------------------------------- EchoBroadcast under loss

/// A lossy synchronous network over the echo-broadcast layer alone:
/// `assignment[k]` is process `k`'s identifier; `(round, from, to)`
/// triples in `drops` are lost; everything from round `gst` on is
/// delivered.
struct LossyEchoNet {
    procs: Vec<EchoBroadcast<&'static str>>,
    assignment: Vec<Id>,
    drops: BTreeSet<(u64, usize, usize)>,
    round: u64,
    /// Per process: `(payload, src)` → superround of acceptance.
    accepted: Vec<BTreeMap<(&'static str, Id), u64>>,
}

impl LossyEchoNet {
    fn new(ell: usize, t: usize, assignment: &[u16], drops: BTreeSet<(u64, usize, usize)>) -> Self {
        let n = assignment.len();
        LossyEchoNet {
            procs: (0..n).map(|_| EchoBroadcast::new(ell, t)).collect(),
            assignment: assignment.iter().map(|&i| Id::new(i)).collect(),
            drops,
            round: 0,
            accepted: vec![BTreeMap::new(); n],
        }
    }

    /// One round; `forged_echoes` are delivered to every process, from
    /// the given (Byzantine) identifiers, immune to drops.
    fn step(&mut self, forged_echoes: &[(Id, EchoItem<&'static str>)]) {
        let r = Round::new(self.round);
        let sends: Vec<(Vec<&'static str>, Vec<EchoItem<&'static str>>)> =
            self.procs.iter_mut().map(|p| p.to_send(r)).collect();
        for k in 0..self.procs.len() {
            let mut inits: Vec<(Id, &&'static str)> = Vec::new();
            let mut echoes: Vec<(Id, &EchoItem<&'static str>)> = Vec::new();
            for (j, (j_inits, j_echoes)) in sends.iter().enumerate() {
                if j != k && self.drops.contains(&(self.round, j, k)) {
                    continue;
                }
                for m in j_inits {
                    inits.push((self.assignment[j], m));
                }
                for e in j_echoes {
                    echoes.push((self.assignment[j], e));
                }
            }
            for (id, e) in forged_echoes {
                echoes.push((*id, e));
            }
            for accept in self.procs[k].observe(r, &inits, &echoes) {
                self.accepted[k]
                    .entry((accept.payload, accept.src))
                    .or_insert(self.round / 2);
            }
        }
        self.round += 1;
    }
}

fn echo_drops(gst_sr: u64, n: usize) -> impl Strategy<Value = BTreeSet<(u64, usize, usize)>> {
    proptest::collection::btree_set(
        (0..gst_sr.max(1) * 2, 0..n, 0..n),
        0..(gst_sr as usize * n * n).max(1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Correctness + relay across random pre-stabilization loss: a
    /// broadcast performed *at* stabilization is accepted by everyone in
    /// that very superround; a broadcast performed *before* it obeys the
    /// relay bound (if anyone accepts at superround `r`, everyone accepts
    /// by `max(r + 1, T)`).
    #[test]
    fn echo_correctness_and_relay_under_random_loss(
        gst_sr in 1u64..4,
        drops in echo_drops(3, 5),
        early_src in 0usize..5,
    ) {
        // n = 5, ℓ = 4, t = 1: identifier 1 is a homonym pair (procs 0, 4).
        let assignment = [1u16, 2, 3, 4, 1];
        // Loss only before stabilization — that is what "stabilization"
        // means in the basic model.
        let drops: BTreeSet<(u64, usize, usize)> =
            drops.into_iter().filter(|&(r, _, _)| r < gst_sr * 2).collect();
        let mut net = LossyEchoNet::new(4, 1, &assignment, drops);

        // An early broadcast, exposed to the loss.
        net.procs[early_src].broadcast("early");
        let early_id = Id::new(assignment[early_src]);

        // Run the lossy prefix.
        for _ in 0..(gst_sr * 2) {
            net.step(&[]);
        }
        // Broadcast "fresh" exactly at stabilization.
        net.procs[2].broadcast("fresh");
        for _ in 0..8 {
            net.step(&[]);
        }

        // Correctness: everyone accepted ("fresh", id 3) in superround
        // gst_sr itself.
        for (k, acc) in net.accepted.iter().enumerate() {
            let sr = acc.get(&("fresh", Id::new(3)));
            prop_assert_eq!(
                sr, Some(&gst_sr),
                "proc {} accepted fresh at {:?}, not at stabilization {}", k, sr, gst_sr
            );
        }

        // Relay: if anyone accepted the early broadcast, everyone did, by
        // max(first + 1, T).
        let accept_srs: Vec<u64> = net
            .accepted
            .iter()
            .filter_map(|acc| acc.get(&("early", early_id)).copied())
            .collect();
        if let Some(&first) = accept_srs.iter().min() {
            prop_assert_eq!(accept_srs.len(), net.procs.len(), "relay must reach everyone");
            let deadline = (first + 1).max(gst_sr);
            for &sr in &accept_srs {
                prop_assert!(sr <= deadline, "accept at {sr} after relay deadline {deadline}");
            }
        }
    }

    /// Unforgeability: if no holder of identifier `i` broadcasts, then no
    /// flood of forged echo items from `t` Byzantine identifiers — across
    /// any loss schedule — makes any correct process accept from `i`.
    #[test]
    fn echo_unforgeability_under_forged_echo_floods(
        drops in echo_drops(2, 4),
        byz_id in 1u16..=4,
        victim_id in 1u16..=4,
        claimed_sr in 0u64..3,
    ) {
        prop_assume!(byz_id != victim_id);
        let assignment = [1u16, 2, 3, 4];
        let mut net = LossyEchoNet::new(4, 1, &assignment, drops);
        let forged = EchoItem::new("forged", claimed_sr, Id::new(victim_id));
        for _ in 0..10 {
            net.step(&[(Id::new(byz_id), forged.clone())]);
        }
        for acc in &net.accepted {
            prop_assert!(
                !acc.contains_key(&("forged", Id::new(victim_id))),
                "forged message accepted from innocent identifier {victim_id}"
            );
        }
    }
}

// ------------------------------------- MultBroadcast α-bounds under loss

/// A lossy network over the Figure 6 layer: numerate delivery (identical
/// parts from homonyms aggregate into multiplicities), per-receiver drops,
/// plus forged parts from a Byzantine identifier.
struct LossyMultNet {
    procs: Vec<MultBroadcast<&'static str>>,
    assignment: Vec<Id>,
    /// The Byzantine process: its correct automaton is silenced; the
    /// forged part replaces it (so each round it sends exactly one
    /// message per recipient — the restricted model).
    byz: usize,
    drops: BTreeSet<(u64, usize, usize)>,
    round: u64,
    /// Per process: accepted `(src, alpha, sr)` triples for "m".
    accepted: Vec<Vec<(Id, u64, u64)>>,
}

impl LossyMultNet {
    fn new(
        n: usize,
        t: usize,
        assignment: &[u16],
        byz: usize,
        drops: BTreeSet<(u64, usize, usize)>,
    ) -> Self {
        let assignment: Vec<Id> = assignment.iter().map(|&i| Id::new(i)).collect();
        LossyMultNet {
            procs: (0..n)
                .map(|k| MultBroadcast::new(n, t, assignment[k]))
                .collect(),
            assignment: assignment.clone(),
            byz,
            drops,
            round: 0,
            accepted: vec![Vec::new(); n],
        }
    }

    fn step(&mut self, forged: Option<MultPart<&'static str>>) {
        let r = Round::new(self.round);
        let parts: Vec<MultPart<&'static str>> =
            self.procs.iter_mut().map(|p| p.part_to_send(r)).collect();
        for k in 0..self.procs.len() {
            // Numerate inbox: aggregate surviving identical (id, part)s.
            let mut multiset: BTreeMap<(Id, MultPart<&'static str>), u64> = BTreeMap::new();
            for (j, part) in parts.iter().enumerate() {
                if j == self.byz {
                    continue; // silenced: the forged part replaces it
                }
                if j != k && self.drops.contains(&(self.round, j, k)) {
                    continue;
                }
                *multiset
                    .entry((self.assignment[j], part.clone()))
                    .or_insert(0) += 1;
            }
            if let Some(part) = &forged {
                // Byzantine traffic rides out the loss (worst case).
                *multiset
                    .entry((self.assignment[self.byz], part.clone()))
                    .or_insert(0) += 1;
            }
            let received: Vec<(Id, &MultPart<&'static str>, u64)> = multiset
                .iter()
                .map(|((id, part), &mult)| (*id, part, mult))
                .collect();
            for accept in self.procs[k].observe(r, &received) {
                if accept.payload == "m" {
                    self.accepted[k].push((accept.src, accept.alpha, accept.sr));
                }
            }
        }
        self.round += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Figure 6's α bounds (Lemmas 23–28) under random loss and forged
    /// parts: for identifier 1, broadcast by its α = 2 correct holders
    /// with f₁ = 0 Byzantine holders, every accept reports exactly α = 2;
    /// for the Byzantine identifier (α = 0 correct, f = 1), every accept
    /// reports α ≤ 1.
    #[test]
    fn mult_alpha_bounds_under_loss_and_forgery(
        gst_sr in 1u64..3,
        drops in echo_drops(2, 5),
        claimed_alpha in 2u64..20,
    ) {
        // Processes 0, 1 hold identifier 1; 2, 3, 4 hold 2, 3, 4.
        // Process 4 is Byzantine: its automaton is silenced and a forged
        // part carrying identifier 4 goes out instead (restricted: one
        // message per recipient per round).
        let assignment = [1u16, 1, 2, 3, 4];
        let (n, t) = (5, 1);
        let byz_id = Id::new(4);
        let drops: BTreeSet<(u64, usize, usize)> =
            drops.into_iter().filter(|&(r, _, _)| r < gst_sr * 2).collect();
        let mut net = LossyMultNet::new(n, t, &assignment, 4, drops);

        // Both holders of identifier 1 broadcast "m" at stabilization.
        net.procs[0].broadcast("m", gst_sr);
        net.procs[1].broadcast("m", gst_sr);

        for _ in 0..(gst_sr * 2 + 10) {
            // The forger floods inflated echo claims for the honest
            // identifier 1 and fabricated inits for itself, every round.
            let round_sr = net.round / 2;
            let forged = MultPart {
                inits: if net.round % 2 == 0 {
                    [("m", round_sr)].into_iter().collect()
                } else {
                    BTreeMap::new()
                },
                echoes: [
                    ((Id::new(1), "m", round_sr), claimed_alpha),
                    ((byz_id, "m", round_sr), claimed_alpha),
                ]
                .into_iter()
                .collect(),
            };
            net.step(Some(forged));
        }

        for (k, accepts) in net.accepted.iter().enumerate().take(4) {
            // Unforgeability (Lemma 28): α′ ≤ α + fᵢ.
            for &(src, alpha, _) in accepts {
                if src == Id::new(1) {
                    prop_assert!(alpha <= 2, "proc {k}: α = {alpha} > 2 for honest id 1");
                } else if src == byz_id {
                    prop_assert!(alpha <= 1, "proc {k}: α = {alpha} > 1 for byz id 4");
                }
            }
            // Correctness (Lemma 26): at stabilization the honest
            // broadcast is accepted with full multiplicity — α exactly 2,
            // by the bound above.
            prop_assert!(
                accepts
                    .iter()
                    .any(|&(src, alpha, sr)| src == Id::new(1) && alpha == 2 && sr == gst_sr),
                "correct proc {k} must accept (id 1, m, sr {gst_sr}) with α = 2: {accepts:?}"
            );
        }
    }
}

// ------------------------------------------------------ codec round-trips

/// Round-trips one message through the frame codec.
fn roundtrip<M: WireEncode + WireDecode>(msg: &M) -> M {
    decode_frame(&encode_frame(msg)).expect("own frames must decode")
}

/// One of the alphabet payloads as an owned (decodable) string.
fn alpha_string() -> impl Strategy<Value = String> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_string())
}

fn payload_strategy() -> impl Strategy<Value = Payload<String>> {
    (
        0usize..2,
        proptest::collection::btree_set(alpha_string(), 0..4),
        alpha_string(),
        0u64..9,
    )
        .prop_map(|(tag, values, v, ph)| {
            if tag == 0 {
                Payload::Propose { values, ph }
            } else {
                Payload::Vote { v, ph }
            }
        })
}

/// Drives `n = ℓ = 4, t = 1` agreement processes over the given inputs
/// with per-round loss, handing every emitted wire message to `check`.
fn drive_agreement<P: Protocol>(
    procs: &mut [P],
    rounds: u64,
    drops: &BTreeSet<(u64, usize, usize)>,
    mut check: impl FnMut(&P::Msg),
) {
    for r in 0..rounds {
        let round = Round::new(r);
        let sends: Vec<Vec<(homonym_core::Recipients, P::Msg)>> =
            procs.iter_mut().map(|p| p.send(round)).collect();
        for out in &sends {
            for (_, msg) in out {
                check(msg);
            }
        }
        for (k, proc_) in procs.iter_mut().enumerate() {
            let inbox = homonym_core::Inbox::collect(
                sends.iter().enumerate().flat_map(|(j, out)| {
                    let dropped = j != k && drops.contains(&(r, j, k));
                    out.iter().filter(move |_| !dropped).map(move |(_, msg)| {
                        homonym_core::Envelope {
                            src: Id::from_index(j),
                            msg: msg.clone(),
                        }
                    })
                }),
                homonym_core::Counting::Innumerate,
            );
            proc_.receive(round, &inbox);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(m)) == m` for the broadcast-layer payloads.
    #[test]
    fn payload_roundtrips(payload in payload_strategy()) {
        prop_assert_eq!(roundtrip(&payload), payload);
    }

    /// `decode(encode(m)) == m` for echo items.
    #[test]
    fn echo_item_roundtrips(
        payload in alpha_string(),
        sr in 0u64..100,
        src in 1u16..=8,
    ) {
        let item = EchoItem::new(payload, sr, Id::new(src));
        prop_assert_eq!(roundtrip(&item), item);
    }

    /// `decode(encode(m)) == m` for Figure 6 multiplicity parts.
    #[test]
    fn mult_part_roundtrips(
        inits in proptest::collection::btree_map(alpha_string(), 0u64..5, 0..4),
        echoes in proptest::collection::btree_map(
            ((1u16..=6).prop_map(Id::new), alpha_string(), 0u64..5),
            1u64..9,
            0..6,
        ),
    ) {
        let part = MultPart { inits, echoes };
        prop_assert_eq!(roundtrip(&part), part);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `decode(encode(b)) == b` for every bundle a real Figure 5 run
    /// emits under random inputs and pre-stabilization loss.
    #[test]
    fn bundle_roundtrips(
        inputs in proptest::collection::vec(any::<bool>(), 4),
        drops in echo_drops(2, 4),
        rounds in 8u64..20,
    ) {
        let domain = Domain::binary();
        let mut procs: Vec<HomonymAgreement<bool>> = (0..4)
            .map(|k| HomonymAgreement::new(4, 4, 1, domain.clone(), Id::from_index(k), inputs[k]))
            .collect();
        drive_agreement(&mut procs, rounds, &drops, |bundle: &Bundle<bool>| {
            assert_eq!(&roundtrip(bundle), bundle);
        });
    }

    /// `decode(encode(b)) == b` for every bundle a real Figure 7
    /// (restricted) run emits under random inputs and loss.
    #[test]
    fn restricted_bundle_roundtrips(
        inputs in proptest::collection::vec(any::<bool>(), 4),
        drops in echo_drops(2, 4),
        rounds in 8u64..20,
    ) {
        let domain = Domain::binary();
        let mut procs: Vec<RestrictedAgreement<bool>> = (0..4)
            .map(|k| {
                RestrictedAgreement::new(4, 4, 1, domain.clone(), Id::from_index(k), inputs[k])
            })
            .collect();
        drive_agreement(&mut procs, rounds, &drops, |bundle: &RestrictedBundle<bool>| {
            assert_eq!(&roundtrip(bundle), bundle);
        });
    }
}

// ------------------------- bounded-vs-faithful equivalence

/// Drives `procs` over `rounds` lock-step rounds under a structural
/// adversarial script and returns each process's first decision as
/// `(round, value)`.
///
/// The script is *structural* — per-edge loss via `drops`, plus an
/// optional replay adversary `(byz, victim)` that substitutes `victim`'s
/// outgoing messages for `byz`'s own every round — so the identical
/// script can be replayed against the faithful and the bounded protocol
/// stacks even though their wire types differ.
fn run_script<P: Protocol>(
    procs: &mut [P],
    rounds: u64,
    assignment: &[Id],
    counting: homonym_core::Counting,
    drops: &BTreeSet<(u64, usize, usize)>,
    byz_replay: Option<(usize, usize)>,
) -> Vec<Option<(u64, P::Value)>> {
    let mut decided: Vec<Option<(u64, P::Value)>> = procs.iter().map(|_| None).collect();
    for r in 0..rounds {
        let round = Round::new(r);
        let mut sends: Vec<Vec<(homonym_core::Recipients, P::Msg)>> =
            procs.iter_mut().map(|p| p.send(round)).collect();
        if let Some((byz, victim)) = byz_replay {
            sends[byz] = sends[victim].clone();
        }
        for (k, proc_) in procs.iter_mut().enumerate() {
            let inbox = homonym_core::Inbox::collect(
                sends.iter().enumerate().flat_map(|(j, out)| {
                    let dropped = j != k && drops.contains(&(r, j, k));
                    out.iter().filter(move |_| !dropped).map(move |(_, msg)| {
                        homonym_core::Envelope {
                            src: assignment[j],
                            msg: msg.clone(),
                        }
                    })
                }),
                counting,
            );
            proc_.receive(round, &inbox);
            if decided[k].is_none() {
                if let Some(v) = proc_.decision() {
                    decided[k] = Some((r, v));
                }
            }
        }
    }
    decided
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bounded Figure 5 stack decides **identically** to the faithful
    /// one — same value and same first-decision round at every process —
    /// under random inputs, random pre-stabilization loss and an optional
    /// replay adversary.
    #[test]
    fn bounded_agreement_matches_faithful(
        inputs in proptest::collection::vec(any::<bool>(), 4),
        drops in echo_drops(3, 4),
        byz in (0u8..3, 0usize..4, 0usize..4)
            .prop_map(|(tag, bz, victim)| (tag == 0).then_some((bz, victim))),
    ) {
        let domain = Domain::binary();
        let ids: Vec<Id> = (0..4).map(Id::from_index).collect();
        let mut faithful: Vec<HomonymAgreement<bool>> = (0..4)
            .map(|k| HomonymAgreement::new(4, 4, 1, domain.clone(), ids[k], inputs[k]))
            .collect();
        let mut bounded: Vec<BoundedAgreement<bool>> = (0..4)
            .map(|k| BoundedAgreement::new(4, 4, 1, domain.clone(), ids[k], inputs[k]))
            .collect();
        let rounds = 80;
        let f = run_script(
            &mut faithful, rounds, &ids, homonym_core::Counting::Innumerate, &drops, byz,
        );
        let b = run_script(
            &mut bounded, rounds, &ids, homonym_core::Counting::Innumerate, &drops, byz,
        );
        prop_assert_eq!(&f, &b, "bounded and faithful Figure 5 runs diverged");
        for (k, d) in f.iter().enumerate() {
            if byz.map_or(true, |(bz, _)| bz != k) {
                prop_assert!(d.is_some(), "correct proc {} never decided", k);
            }
        }
    }

    /// Same equivalence for the numerate Figure 7 stack, run under a
    /// genuine homonym assignment (n = 4, ℓ = 2, t = 1).
    #[test]
    fn bounded_restricted_matches_faithful(
        inputs in proptest::collection::vec(any::<bool>(), 4),
        drops in echo_drops(3, 4),
        byz in (0u8..3, 0usize..4, 0usize..4)
            .prop_map(|(tag, bz, victim)| (tag == 0).then_some((bz, victim))),
    ) {
        let domain = Domain::binary();
        let assignment = [Id::new(1), Id::new(1), Id::new(2), Id::new(2)];
        let mut faithful: Vec<RestrictedAgreement<bool>> = (0..4)
            .map(|k| {
                RestrictedAgreement::new(4, 2, 1, domain.clone(), assignment[k], inputs[k])
            })
            .collect();
        let mut bounded: Vec<BoundedRestrictedAgreement<bool>> = (0..4)
            .map(|k| {
                BoundedRestrictedAgreement::new(4, 2, 1, domain.clone(), assignment[k], inputs[k])
            })
            .collect();
        let rounds = 80;
        let f = run_script(
            &mut faithful, rounds, &assignment, homonym_core::Counting::Numerate, &drops, byz,
        );
        let b = run_script(
            &mut bounded, rounds, &assignment, homonym_core::Counting::Numerate, &drops, byz,
        );
        prop_assert_eq!(&f, &b, "bounded and faithful Figure 7 runs diverged");
    }
}

// ------------- bounded receive: shared handles, fresh decodes, full rescans

/// How one network of [`bounded_runs_however_fed`] receives its bundles.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Feed {
    /// As the engines feed it: one `Arc` per emission, shared by every
    /// recipient and by every round the sender's cache re-sends it, so
    /// `receive` skips and narrows echo sets it has counted.
    Shared,
    /// Every delivered bundle decoded afresh, as
    /// [`homonym_core::journal::replay`] feeds a recovering process: no
    /// two deliveries share a handle.
    Decoded,
    /// Decoded afresh by a receiver that remembers no counted set, so it
    /// scans every echo set in full — what `receive` does without any
    /// shortcut, and so the reference for the other two.
    Rescanned,
}

/// Runs three `n = ℓ = 4, t = 1` bounded Figure 5 networks, one per
/// [`Feed`], through the same script and returns the processes' final
/// pruning horizons. After every `receive` the three copies of a process
/// must agree: the [`Feed::Decoded`] copy with the [`Feed::Shared`] one
/// on the whole automaton (accepted keys, evidence, horizon, wire set,
/// accumulators and remembered sets, through `Debug`), its `state_bits`
/// and its decision; the [`Feed::Rescanned`] copy on all of that but the
/// remembered sets.
///
/// The script is `drops` plus what process `byz` sends in place of its
/// own bundles: with `replay`, `victim`'s bundle of the round under
/// `victim`'s own handle; with `stale`, one bundle forged at round 0
/// whose extra echo is stamped superround `sr`, re-sent under one handle
/// in every round — ignored until the receivers reach `sr`, counted from
/// then on, pruned once the horizon passes it.
fn bounded_runs_however_fed(
    window: u64,
    inputs: &[bool],
    drops: &BTreeSet<(u64, usize, usize)>,
    replay: Option<(usize, usize)>,
    stale: Option<(usize, u64)>,
    rounds: u64,
) -> Vec<u64> {
    let factory = BoundedAgreementFactory::new(4, 4, 1, Domain::binary()).with_window(window);
    let ids: Vec<Id> = (0..4).map(Id::from_index).collect();
    let feeds = [Feed::Shared, Feed::Decoded, Feed::Rescanned];
    let mut nets: Vec<Vec<BoundedAgreement<bool>>> = feeds
        .iter()
        .map(|_| (0..4).map(|k| factory.spawn(ids[k], inputs[k])).collect())
        .collect();
    let mut stale_bundle: Option<Arc<BoundedBundle<bool>>> = None;
    for r in 0..rounds {
        let round = Round::new(r);
        let sends: Vec<Vec<Arc<BoundedBundle<bool>>>> = nets
            .iter_mut()
            .map(|procs| {
                let mut out: Vec<Arc<BoundedBundle<bool>>> = procs
                    .iter_mut()
                    .map(|p| p.send_shared(round).remove(0).1)
                    .collect();
                if let Some((byz, victim)) = replay {
                    out[byz] = Arc::clone(&out[victim]);
                }
                if let Some((byz, sr)) = stale {
                    let bundle = stale_bundle.get_or_insert_with(|| {
                        let values = BTreeSet::from([true]);
                        let echo =
                            EchoItem::new(Payload::Propose { values, ph: sr / 4 }, sr, ids[byz]);
                        Arc::new(out[byz].forged_with_echo(echo))
                    });
                    out[byz] = Arc::clone(bundle);
                }
                out
            })
            .collect();
        assert!(
            sends.iter().all(|out| *out == sends[0]),
            "the networks sent differently in {round}"
        );
        for k in 0..4 {
            let arriving = (0..4).filter(|&j| j == k || !drops.contains(&(r, j, k)));
            for ((feed, procs), out) in feeds.iter().zip(&mut nets).zip(&sends) {
                let inbox = match feed {
                    Feed::Shared => Inbox::collect_shared(
                        arriving
                            .clone()
                            .map(|j| SharedEnvelope::shared(ids[j], Arc::clone(&out[j]))),
                        Counting::Innumerate,
                    ),
                    Feed::Decoded | Feed::Rescanned => Inbox::collect(
                        arriving.clone().map(|j| Envelope {
                            src: ids[j],
                            msg: roundtrip(&*out[j]),
                        }),
                        Counting::Innumerate,
                    ),
                };
                if *feed == Feed::Rescanned {
                    procs[k].forget_counted_echoes();
                }
                procs[k].receive(round, &inbox);
            }
            let [shared, decoded, rescanned] = [&nets[0][k], &nets[1][k], &nets[2][k]];
            assert_eq!(
                format!("{shared:?}"),
                format!("{decoded:?}"),
                "process {k} fed fresh decodes diverged in {round}"
            );
            assert_eq!(shared.state_bits(), decoded.state_bits());
            assert_eq!(shared.decision(), decoded.decision());
            let (mut shared, mut rescanned) = (shared.clone(), rescanned.clone());
            shared.forget_counted_echoes();
            rescanned.forget_counted_echoes();
            assert_eq!(
                format!("{shared:?}"),
                format!("{rescanned:?}"),
                "process {k} diverged from the full rescan in {round}"
            );
        }
    }
    nets[0].iter().map(BoundedAgreement::horizon).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The shortcuts of `BoundedAgreement::receive` are unobservable
    /// under the adversarial scripts of the equivalence tests above, at
    /// windows small enough that the horizon moves early.
    #[test]
    fn bounded_receive_shortcut_is_unobservable(
        window in (0usize..3).prop_map(|i| [2u64, 4, 16][i]),
        inputs in proptest::collection::vec(any::<bool>(), 4),
        drops in echo_drops(3, 4),
        replay in (0u8..3, 0usize..4, 0usize..4)
            .prop_map(|(tag, bz, victim)| (tag == 0).then_some((bz, victim))),
        stale in (0u8..2, 0usize..4, 1u64..12)
            .prop_map(|(tag, bz, sr)| (tag == 0).then_some((bz, sr))),
    ) {
        bounded_runs_however_fed(window, &inputs, &drops, replay, stale, 80);
    }
}

/// The two cases the shortcut's argument rests on, pinned: a Byzantine
/// bundle whose extra echo is stamped superround 6 arrives under one
/// handle from round 0 on — it must not be remembered as counted before
/// round 12, when the echo starts to count — and keeps arriving under
/// that handle while the horizon (window 2) rises past everything it
/// holds.
#[test]
fn bounded_receive_shortcut_survives_future_echoes_and_horizon_advances() {
    let horizons =
        bounded_runs_however_fed(2, &[true; 4], &BTreeSet::new(), None, Some((3, 6)), 80);
    assert!(
        horizons.iter().all(|&h| h > 6),
        "the horizon must have passed the forged echo: {horizons:?}"
    );
}

/// Long-horizon memory shape: over hundreds of rounds the faithful
/// stack's evidence state grows without bound (every phase mints new
/// `(payload, superround)` keys that are never dropped) while the
/// bounded stack plateaus once the watermark horizon starts pruning.
#[test]
fn bounded_state_is_flat_where_faithful_grows() {
    let domain = Domain::binary();
    let ids: Vec<Id> = (0..4).map(Id::from_index).collect();
    let mut faithful: Vec<HomonymAgreement<bool>> = (0..4)
        .map(|k| HomonymAgreement::new(4, 4, 1, domain.clone(), ids[k], k % 2 == 0))
        .collect();
    let mut bounded: Vec<BoundedAgreement<bool>> = (0..4)
        .map(|k| BoundedAgreement::new(4, 4, 1, domain.clone(), ids[k], k % 2 == 0))
        .collect();
    // Lossless all-to-all delivery of one round.
    fn step_round<P: Protocol>(procs: &mut [P], round: Round, ids: &[Id]) {
        let sends: Vec<Vec<(homonym_core::Recipients, P::Msg)>> =
            procs.iter_mut().map(|p| p.send(round)).collect();
        for proc_ in procs.iter_mut() {
            let inbox = homonym_core::Inbox::collect(
                sends.iter().enumerate().flat_map(|(j, out)| {
                    out.iter().map(move |(_, msg)| homonym_core::Envelope {
                        src: ids[j],
                        msg: msg.clone(),
                    })
                }),
                homonym_core::Counting::Innumerate,
            );
            proc_.receive(round, &inbox);
        }
    }
    let mut samples: Vec<(u64, u64)> = Vec::new(); // (faithful, bounded) bits
    for r in 0..400u64 {
        let round = Round::new(r);
        step_round(&mut faithful, round, &ids);
        step_round(&mut bounded, round, &ids);
        if r == 199 || r == 399 {
            samples.push((
                faithful.iter().map(|p| p.state_bits()).sum(),
                bounded.iter().map(|p| p.state_bits()).sum(),
            ));
        }
    }
    let (f_mid, b_mid) = samples[0];
    let (f_end, b_end) = samples[1];
    assert!(
        f_end > f_mid,
        "faithful state should keep growing: {f_mid} -> {f_end}"
    );
    assert!(
        b_end <= b_mid,
        "bounded state should plateau: {b_mid} -> {b_end}"
    );
    assert!(
        f_end > 2 * b_end,
        "bounded steady state should be far below faithful ({b_end} vs {f_end})"
    );
}
