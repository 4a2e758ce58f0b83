//! Multi-height chaining of agreement instances with flat memory.
//!
//! [`HeightChain`] runs one inner agreement protocol per **height**, each
//! height getting a fixed `budget` of rounds, and records the decided
//! value of every height in a ledger. The chain is itself a [`Protocol`],
//! so height `h + 1` reuses everything the execution fabric allocated for
//! height `h` — the cast list, the routing plan, the frame interner —
//! while the inner automaton is *replaced* at each height
//! boundary: steady-state memory per height is the footprint of one inner
//! instance plus one ledger slot, which the `state_bits` accounting in
//! `RunReport` turns into a tested number. This is the substrate the
//! roadmap's networked KV tier will commit operations through.
//!
//! Heights advance in lock-step (`height = round / budget`), so all
//! correct processes run the same inner instance at every round. A
//! process whose inner instance missed its height's decision adopts it at
//! the boundary from the `decided` reports its peers attach to every
//! chain message (`t + 1` distinct identifiers reporting the same value —
//! at least one correct, and inner agreement makes all correct reports
//! for a height equal); reports keep flowing after the boundary, so a
//! straggler back-fills missed heights while later heights run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
use crate::config::Counting;
use crate::fabric::SharedEnvelope;
use crate::id::Id;
use crate::message::{Inbox, Recipients};
use crate::process::{Protocol, ProtocolFactory, Round};
use crate::value::Value;

/// The chain's wire message: the inner protocol's message for the current
/// height, tagged with the height and the sender's latest resolved
/// `(height, value)` report.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainMsg<M, V> {
    /// The height the inner message belongs to.
    pub height: u64,
    /// The sender's freshest resolved height and its value (the boundary
    /// adoption / back-fill signal), if it has resolved any.
    pub decided: Option<(u64, V)>,
    /// The inner protocol's message, shared — re-wrapping for the chain
    /// costs one `Arc` bump, never a payload clone.
    pub inner: Arc<M>,
}

impl<M: WireEncode, V: WireEncode> WireEncode for ChainMsg<M, V> {
    fn encode(&self, w: &mut Writer) {
        self.height.encode(w);
        self.decided.encode(w);
        self.inner.encode(w);
    }
}

impl<M: WireDecode, V: WireDecode> WireDecode for ChainMsg<M, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ChainMsg {
            height: u64::decode(r)?,
            decided: Option::decode(r)?,
            inner: Arc::new(M::decode(r)?),
        })
    }
}

/// A multi-height ledger over any inner agreement protocol; see the
/// module docs.
///
/// As a [`Protocol`], the chain's `decision` is the value of the *last*
/// target height, surfaced only once every height `0..target_heights` has
/// resolved — so a deciding run certifies the complete ledger.
#[derive(Clone, Debug)]
pub struct HeightChain<F: ProtocolFactory> {
    factory: F,
    id: Id,
    input: <F::P as Protocol>::Value,
    /// Rounds per height (the inner protocol's post-stabilization round
    /// bound, plus slack, chosen by the caller).
    budget: u64,
    /// Heights the chain must resolve before it decides.
    target_heights: u64,
    /// Adoption threshold parameter: `t + 1` identical reports adopt.
    t: usize,
    height: u64,
    inner: F::P,
    /// Resolved value per height, `ledger[h]` for height `h`.
    ledger: Vec<Option<<F::P as Protocol>::Value>>,
    /// Freshest resolved `(height, value)` (what we report to peers).
    last_resolved: Option<(u64, <F::P as Protocol>::Value)>,
    /// Peer reports per unresolved height: value → reporting identifiers.
    reports: BTreeMap<u64, BTreeMap<<F::P as Protocol>::Value, BTreeSet<Id>>>,
    decision: Option<<F::P as Protocol>::Value>,
}

impl<F> HeightChain<F>
where
    F: ProtocolFactory + Clone,
    <F::P as Protocol>::Value: Value,
{
    /// Creates a chain for `target_heights` heights of `budget` rounds
    /// each, adopting boundary decisions at `t + 1` identical reports.
    ///
    /// # Panics
    ///
    /// Panics if `budget` or `target_heights` is 0.
    pub fn new(
        factory: F,
        id: Id,
        input: <F::P as Protocol>::Value,
        budget: u64,
        target_heights: u64,
        t: usize,
    ) -> Self {
        assert!(budget > 0, "a height needs at least one round");
        assert!(target_heights > 0, "the chain needs at least one height");
        let inner = factory.spawn(id, input.clone());
        HeightChain {
            factory,
            id,
            input,
            budget,
            target_heights,
            t,
            height: 0,
            inner,
            ledger: Vec::new(),
            last_resolved: None,
            reports: BTreeMap::new(),
            decision: None,
        }
    }

    /// The resolved value of height `h`, if any.
    pub fn ledger_entry(&self, h: u64) -> Option<&<F::P as Protocol>::Value> {
        self.ledger.get(h as usize).and_then(Option::as_ref)
    }

    /// Number of heights with a resolved value.
    pub fn heights_resolved(&self) -> usize {
        self.ledger.iter().filter(|s| s.is_some()).count()
    }

    /// The height currently running.
    pub fn current_height(&self) -> u64 {
        self.height
    }

    /// Records `v` as height `h`'s value (first write wins — inner
    /// agreement makes competing writes equal anyway), updates the
    /// freshest-resolved report, and surfaces the chain decision once the
    /// first `target_heights` slots are all resolved.
    fn resolve(&mut self, h: u64, v: <F::P as Protocol>::Value) {
        let idx = h as usize;
        if self.ledger.len() <= idx {
            self.ledger.resize(idx + 1, None);
        }
        if self.ledger[idx].is_none() {
            self.ledger[idx] = Some(v.clone());
            self.reports.remove(&h);
            if self.last_resolved.as_ref().map_or(true, |(lh, _)| *lh < h) {
                self.last_resolved = Some((h, v));
            }
            self.check_decision();
        }
    }

    fn check_decision(&mut self) {
        if self.decision.is_some() {
            return;
        }
        let target = self.target_heights as usize;
        if self.ledger.len() >= target && self.ledger[..target].iter().all(Option::is_some) {
            self.decision = self.ledger[target - 1].clone();
        }
    }

    /// Rolls forward to the height containing `round`: finalizes each
    /// passed height from the inner decision (peers' reports back-fill
    /// the slot later if the inner instance missed it) and replaces the
    /// inner automaton with a fresh spawn. The fabric-side state — cast
    /// list, routing plan, interner — carries over untouched; this
    /// replacement is what makes per-height memory O(1).
    fn roll_to(&mut self, target: u64) {
        while self.height < target {
            let h = self.height;
            if let Some(v) = self.inner.decision() {
                self.resolve(h, v);
            } else if self.ledger.len() <= h as usize {
                self.ledger.resize(h as usize + 1, None);
            }
            self.height += 1;
            self.inner = self.factory.spawn(self.id, self.input.clone());
        }
    }

    /// Applies any unresolved-height reports that have reached `t + 1`
    /// distinct identifiers (ascending value order breaks the — by inner
    /// agreement, impossible — tie deterministically).
    fn apply_reports(&mut self) {
        let ready: Vec<(u64, <F::P as Protocol>::Value)> = self
            .reports
            .iter()
            .filter(|(h, _)| {
                self.ledger
                    .get(**h as usize)
                    .map_or(true, |slot| slot.is_none())
            })
            .filter_map(|(&h, per_v)| {
                per_v
                    .iter()
                    .find(|(_, ids)| ids.len() >= self.t + 1)
                    .map(|(v, _)| (h, v.clone()))
            })
            .collect();
        for (h, v) in ready {
            self.resolve(h, v);
        }
    }

    fn local_round(&self, round: Round) -> Round {
        Round::new(round.index() - self.height * self.budget)
    }
}

impl<F> Protocol for HeightChain<F>
where
    F: ProtocolFactory + Clone + Send + Sync + 'static,
    F::P: Clone + std::fmt::Debug + Send + Sync,
    <F::P as Protocol>::Value: Value,
{
    type Msg = ChainMsg<<F::P as Protocol>::Msg, <F::P as Protocol>::Value>;
    type Value = <F::P as Protocol>::Value;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, Self::Msg)> {
        self.send_shared(round)
            .into_iter()
            .map(|(recipients, msg)| (recipients, (*msg).clone()))
            .collect()
    }

    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<Self::Msg>)> {
        self.roll_to(round.index() / self.budget);
        let local = self.local_round(round);
        let decided = match self.inner.decision() {
            Some(v) => Some((self.height, v)),
            None => self.last_resolved.clone(),
        };
        self.inner
            .send_shared(local)
            .into_iter()
            .map(|(recipients, inner)| {
                (
                    recipients,
                    Arc::new(ChainMsg {
                        height: self.height,
                        decided: decided.clone(),
                        inner,
                    }),
                )
            })
            .collect()
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<Self::Msg>) {
        self.roll_to(round.index() / self.budget);

        // Fold peers' decided reports in (current or unresolved past
        // heights only — the `reports` table stays bounded by the number
        // of open slots, which is 0 or 1 in a healthy run).
        for (src, msg, _) in inbox.iter() {
            if let Some((h, v)) = &msg.decided {
                let open = *h < self.target_heights.max(self.height + 1)
                    && self
                        .ledger
                        .get(*h as usize)
                        .map_or(true, |slot| slot.is_none());
                if open && (*h <= self.height) {
                    self.reports
                        .entry(*h)
                        .or_default()
                        .entry(v.clone())
                        .or_default()
                        .insert(src);
                }
            }
        }
        self.apply_reports();

        // Rebuild the inner inbox from the current height's messages.
        // Numerate collection with each multiplicity re-expanded returns
        // exactly the multiplicities of the outer inbox, whatever
        // counting model produced them.
        let local = self.local_round(round);
        let height = self.height;
        let inner_inbox = Inbox::collect_shared(
            inbox
                .iter_shared()
                .filter(|(_, m, _)| m.height == height)
                .flat_map(|(src, m, count)| {
                    std::iter::repeat_with(move || {
                        SharedEnvelope::shared(src, Arc::clone(&m.inner))
                    })
                    .take(count as usize)
                }),
            Counting::Numerate,
        );
        self.inner.receive(local, &inner_inbox);

        // An inner decision resolves the height immediately — peers
        // lagging at the boundary can then adopt from our next report.
        if let Some(v) = self.inner.decision() {
            self.resolve(height, v);
        }
    }

    fn decision(&self) -> Option<Self::Value> {
        self.decision.clone()
    }

    fn state_bits(&self) -> u64 {
        let mut bits = self.inner.state_bits();
        bits += self.ledger.len() as u64 * 64;
        for per_v in self.reports.values() {
            for ids in per_v.values() {
                bits += 64 + ids.len() as u64 * 16;
            }
        }
        bits
    }
}

/// A [`ProtocolFactory`] for [`HeightChain`] processes over any inner
/// factory.
#[derive(Clone, Debug)]
pub struct HeightChainFactory<F> {
    inner: F,
    budget: u64,
    target_heights: u64,
    t: usize,
}

impl<F> HeightChainFactory<F> {
    /// Chains `inner`-built instances: `target_heights` heights of
    /// `budget` rounds each, boundary adoption at `t + 1` reports.
    pub fn new(inner: F, budget: u64, target_heights: u64, t: usize) -> Self {
        HeightChainFactory {
            inner,
            budget,
            target_heights,
            t,
        }
    }

    /// Rounds the full chain needs: `budget` per height.
    pub fn round_bound(&self) -> u64 {
        self.budget * self.target_heights
    }
}

impl<F> ProtocolFactory for HeightChainFactory<F>
where
    F: ProtocolFactory + Clone + Send + Sync + 'static,
    F::P: Clone + std::fmt::Debug + Send + Sync,
    <F::P as Protocol>::Value: Value,
{
    type P = HeightChain<F>;

    fn spawn(&self, id: Id, input: <F::P as Protocol>::Value) -> HeightChain<F> {
        HeightChain::new(
            self.inner.clone(),
            id,
            input,
            self.budget,
            self.target_heights,
            self.t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Counting;
    use crate::message::Envelope;

    /// A toy inner protocol: broadcasts its input every round and decides
    /// the majority of what it received at `decide_at`.
    #[derive(Clone, Debug)]
    struct Toy {
        id: Id,
        input: bool,
        decide_at: u64,
        decided: Option<bool>,
    }

    impl Protocol for Toy {
        type Msg = bool;
        type Value = bool;

        fn id(&self) -> Id {
            self.id
        }

        fn send(&mut self, _round: Round) -> Vec<(Recipients, bool)> {
            vec![(Recipients::All, self.input)]
        }

        fn receive(&mut self, round: Round, inbox: &Inbox<bool>) {
            if self.decided.is_none() && round.index() >= self.decide_at {
                let mut yes = 0u64;
                let mut no = 0u64;
                for (_, &v, c) in inbox.iter() {
                    if v {
                        yes += c;
                    } else {
                        no += c;
                    }
                }
                if yes + no > 0 {
                    self.decided = Some(yes >= no);
                }
            }
        }

        fn decision(&self) -> Option<bool> {
            self.decided
        }

        fn state_bits(&self) -> u64 {
            64
        }
    }

    #[derive(Clone, Debug)]
    struct ToyFactory {
        decide_at: u64,
        /// This identifier's instances never decide on their own — the
        /// chain must adopt their heights from peer reports.
        laggard: Option<Id>,
    }

    impl ProtocolFactory for ToyFactory {
        type P = Toy;

        fn spawn(&self, id: Id, input: bool) -> Toy {
            Toy {
                id,
                input,
                decide_at: if Some(id) == self.laggard {
                    u64::MAX
                } else {
                    self.decide_at
                },
                decided: None,
            }
        }
    }

    fn run_chain(
        factory: HeightChainFactory<ToyFactory>,
        n: u16,
        inputs: &[bool],
        rounds: u64,
    ) -> Vec<HeightChain<ToyFactory>> {
        let mut procs: Vec<HeightChain<ToyFactory>> = (0..n)
            .map(|k| factory.spawn(Id::new(k + 1), inputs[k as usize]))
            .collect();
        for r in 0..rounds {
            let round = Round::new(r);
            let outs: Vec<(Id, ChainMsg<bool, bool>)> = procs
                .iter_mut()
                .map(|p| (p.id(), p.send(round).remove(0).1))
                .collect();
            let envs: Vec<Envelope<ChainMsg<bool, bool>>> = outs
                .iter()
                .map(|(src, m)| Envelope {
                    src: *src,
                    msg: m.clone(),
                })
                .collect();
            let inbox = Inbox::collect(envs, Counting::Numerate);
            for p in &mut procs {
                p.receive(round, &inbox);
            }
        }
        procs
    }

    #[test]
    fn chain_resolves_every_height_and_decides() {
        let factory = HeightChainFactory::new(
            ToyFactory {
                decide_at: 1,
                laggard: None,
            },
            4,
            3,
            1,
        );
        let procs = run_chain(factory, 4, &[true, true, false, true], 13);
        for p in &procs {
            assert!(p.heights_resolved() >= 3, "{:?}", p.ledger);
            assert_eq!(p.decision(), Some(true));
            for h in 0..3 {
                assert_eq!(p.ledger_entry(h), Some(&true));
            }
        }
    }

    #[test]
    fn laggard_adopts_heights_from_peer_reports() {
        let laggard = Id::new(4);
        let factory = HeightChainFactory::new(
            ToyFactory {
                decide_at: 1,
                laggard: Some(laggard),
            },
            4,
            2,
            1,
        );
        let procs = run_chain(factory, 4, &[true; 4], 16);
        let lag = procs.iter().find(|p| p.id() == laggard).unwrap();
        // Its inner instances never decide, yet t + 1 = 2 peer reports
        // back-fill every height.
        assert!(lag.heights_resolved() >= 2, "{:?}", lag.ledger);
        assert_eq!(lag.decision(), Some(true));
    }

    #[test]
    fn state_is_flat_across_heights() {
        let factory = HeightChainFactory::new(
            ToyFactory {
                decide_at: 1,
                laggard: None,
            },
            4,
            8,
            1,
        );
        let mut procs = run_chain(factory, 4, &[true; 4], 32);
        let p = &mut procs[0];
        // Inner state is one fresh Toy regardless of height; ledger adds
        // 64 bits per height — the only growth, linear in ledger length
        // and independent of rounds-per-height history.
        assert_eq!(p.state_bits(), 64 + 8 * 64);
    }

    #[test]
    fn chain_msg_round_trips_through_the_codec() {
        let msg = ChainMsg::<bool, bool> {
            height: 3,
            decided: Some((2, true)),
            inner: Arc::new(false),
        };
        let bytes = crate::codec::encode_frame(&msg);
        let back: ChainMsg<bool, bool> = crate::codec::decode_frame(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_budget_rejected() {
        let f = ToyFactory {
            decide_at: 1,
            laggard: None,
        };
        let _ = HeightChain::new(f, Id::new(1), true, 0, 1, 1);
    }
}
