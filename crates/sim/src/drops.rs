//! Message-drop policies: the basic partially synchronous model.
//!
//! Dwork, Lynch and Stockmeyer's *basic* partially synchronous model (which
//! the paper adopts verbatim) is the synchronous round model where, in each
//! execution, a finite but unbounded number of messages may fail to be
//! delivered. Operationally every policy here has a *global stabilization
//! round* ([`DropPolicy::gst`]) at and after which it drops nothing, making
//! the total number of drops finite.
//!
//! Self-delivery is never subject to drops: the engine does not consult the
//! policy when a process sends to itself.

use std::collections::BTreeSet;

use homonym_core::{Pid, Round};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decides which messages are lost.
///
/// Implementations must be deterministic given their construction
/// parameters (seeded randomness included) so executions are replayable.
///
/// **The `quiet` contract.** [`quiet`](Self::quiet)`(round)` returning
/// `true` promises that [`drops`](Self::drops) would return `false` for
/// every pair in `round` *and* that not asking changes nothing: no state
/// (an RNG draw, a log entry) depends on the round's queries. The engines
/// then skip the round's per-pair queries altogether. The default,
/// `false`, keeps every query — what a policy that observes its queries
/// must return.
pub trait DropPolicy {
    /// Whether the message sent in `round` from `from` to `to` is lost.
    ///
    /// Must return `false` for every round at or after [`gst`](Self::gst).
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool;

    /// The global stabilization round: no drops at or after it. Harnesses
    /// use this to size observation horizons.
    fn gst(&self) -> Round;

    /// Whether `round` may skip its [`drops`](Self::drops) queries: it
    /// drops nothing and no query would change the policy's state (see
    /// the trait doc).
    fn quiet(&self, _round: Round) -> bool {
        false
    }
}

impl DropPolicy for Box<dyn DropPolicy> {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        (**self).drops(round, from, to)
    }

    fn gst(&self) -> Round {
        (**self).gst()
    }

    fn quiet(&self, round: Round) -> bool {
        (**self).quiet(round)
    }
}

impl DropPolicy for Box<dyn DropPolicy + Send> {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        (**self).drops(round, from, to)
    }

    fn gst(&self) -> Round {
        (**self).gst()
    }

    fn quiet(&self, round: Round) -> bool {
        (**self).quiet(round)
    }
}

/// The fully synchronous model: nothing is ever dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoDrops;

impl DropPolicy for NoDrops {
    fn drops(&mut self, _round: Round, _from: Pid, _to: Pid) -> bool {
        false
    }

    fn gst(&self) -> Round {
        Round::ZERO
    }

    fn quiet(&self, round: Round) -> bool {
        round >= self.gst()
    }
}

/// Drops each non-self message independently with probability `p` before
/// the stabilization round, nothing afterwards.
#[derive(Clone, Debug)]
pub struct RandomUntilGst {
    gst: Round,
    p: f64,
    rng: StdRng,
}

impl RandomUntilGst {
    /// Creates a policy dropping with probability `p` until `gst`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn new(gst: Round, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1]"
        );
        RandomUntilGst {
            gst,
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DropPolicy for RandomUntilGst {
    fn drops(&mut self, round: Round, _from: Pid, _to: Pid) -> bool {
        // Consume one random draw per queried message pre-GST so the
        // decision sequence does not depend on short-circuiting callers.
        if round < self.gst {
            self.rng.gen_bool(self.p)
        } else {
            false
        }
    }

    fn gst(&self) -> Round {
        self.gst
    }

    fn quiet(&self, round: Round) -> bool {
        round >= self.gst()
    }
}

/// Partitions the processes into sides and drops everything crossing
/// between different sides until the heal round (exclusive). Processes not
/// listed on any side communicate freely.
///
/// This is the drop schedule of the Figure 4 lower-bound construction: the
/// input-0 half and the input-1 half cannot hear each other until both have
/// decided.
#[derive(Clone, Debug)]
pub struct PartitionUntil {
    sides: Vec<BTreeSet<Pid>>,
    heal: Round,
}

impl PartitionUntil {
    /// Creates a partition of the given sides, healing at `heal`.
    pub fn new(sides: Vec<BTreeSet<Pid>>, heal: Round) -> Self {
        PartitionUntil { sides, heal }
    }

    fn side_of(&self, p: Pid) -> Option<usize> {
        self.sides.iter().position(|s| s.contains(&p))
    }
}

impl DropPolicy for PartitionUntil {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        if round >= self.heal {
            return false;
        }
        match (self.side_of(from), self.side_of(to)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    fn gst(&self) -> Round {
        self.heal
    }

    fn quiet(&self, round: Round) -> bool {
        round >= self.gst()
    }
}

/// Isolates a set of processes — everything to or from them is dropped —
/// until the heal round (exclusive). Used to pad lower-bound constructions
/// with processes that must stay invisible while the contradiction forms.
#[derive(Clone, Debug)]
pub struct IsolateUntil {
    isolated: BTreeSet<Pid>,
    heal: Round,
}

impl IsolateUntil {
    /// Creates the policy isolating `isolated` until `heal`.
    pub fn new(isolated: BTreeSet<Pid>, heal: Round) -> Self {
        IsolateUntil { isolated, heal }
    }
}

impl DropPolicy for IsolateUntil {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        round < self.heal && (self.isolated.contains(&from) || self.isolated.contains(&to))
    }

    fn gst(&self) -> Round {
        self.heal
    }

    fn quiet(&self, round: Round) -> bool {
        round >= self.gst()
    }
}

/// Drops an explicit list of `(round, from, to)` triples; everything else
/// is delivered. The stabilization round is one past the last scripted
/// drop.
#[derive(Clone, Debug, Default)]
pub struct ScriptedDrops {
    drops: BTreeSet<(Round, Pid, Pid)>,
}

impl ScriptedDrops {
    /// Creates the policy from explicit drop triples.
    pub fn new(drops: impl IntoIterator<Item = (Round, Pid, Pid)>) -> Self {
        ScriptedDrops {
            drops: drops.into_iter().collect(),
        }
    }
}

impl DropPolicy for ScriptedDrops {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        self.drops.contains(&(round, from, to))
    }

    fn gst(&self) -> Round {
        self.drops
            .iter()
            .next_back()
            .map(|&(r, _, _)| r.next())
            .unwrap_or(Round::ZERO)
    }

    fn quiet(&self, round: Round) -> bool {
        round >= self.gst()
    }
}

/// Combines two policies: a message is dropped if either policy drops it.
/// The stabilization round is the later of the two.
#[derive(Clone, Debug)]
pub struct Both<A, B>(pub A, pub B);

impl<A: DropPolicy, B: DropPolicy> DropPolicy for Both<A, B> {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        // Evaluate both so stateful policies consume their randomness
        // deterministically.
        let a = self.0.drops(round, from, to);
        let b = self.1.drops(round, from, to);
        a || b
    }

    fn gst(&self) -> Round {
        self.0.gst().max(self.1.gst())
    }

    fn quiet(&self, round: Round) -> bool {
        self.0.quiet(round) && self.1.quiet(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> Pid {
        Pid::new(i)
    }

    #[test]
    fn no_drops_never_drops() {
        let mut d = NoDrops;
        assert!(!d.drops(Round::new(0), p(0), p(1)));
        assert_eq!(d.gst(), Round::ZERO);
    }

    #[test]
    fn random_stops_at_gst() {
        let mut d = RandomUntilGst::new(Round::new(10), 1.0, 42);
        assert!(d.drops(Round::new(9), p(0), p(1)));
        assert!(!d.drops(Round::new(10), p(0), p(1)));
        assert!(!d.drops(Round::new(11), p(0), p(1)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut d = RandomUntilGst::new(Round::new(50), 0.5, seed);
            (0..50)
                .map(|r| d.drops(Round::new(r), p(0), p(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8), "different seeds should differ");
    }

    #[test]
    fn partition_blocks_cross_side_only() {
        let mut d = PartitionUntil::new(vec![[p(0), p(1)].into(), [p(2)].into()], Round::new(5));
        assert!(d.drops(Round::new(0), p(0), p(2)));
        assert!(d.drops(Round::new(4), p(2), p(1)));
        assert!(!d.drops(Round::new(0), p(0), p(1)));
        // Unlisted processes communicate freely.
        assert!(!d.drops(Round::new(0), p(3), p(2)));
        // Healed.
        assert!(!d.drops(Round::new(5), p(0), p(2)));
        assert_eq!(d.gst(), Round::new(5));
    }

    #[test]
    fn isolate_blocks_both_directions() {
        let mut d = IsolateUntil::new([p(3)].into(), Round::new(2));
        assert!(d.drops(Round::new(1), p(3), p(0)));
        assert!(d.drops(Round::new(1), p(0), p(3)));
        assert!(!d.drops(Round::new(1), p(0), p(1)));
        assert!(!d.drops(Round::new(2), p(3), p(0)));
    }

    #[test]
    fn scripted_drops_exactly_the_listed_triples() {
        let mut d = ScriptedDrops::new([(Round::new(1), p(0), p(1)), (Round::new(3), p(2), p(0))]);
        assert!(d.drops(Round::new(1), p(0), p(1)));
        assert!(!d.drops(Round::new(1), p(1), p(0)));
        assert!(!d.drops(Round::new(2), p(0), p(1)));
        assert_eq!(d.gst(), Round::new(4));
    }

    /// Exhaustively queries every (round, from, to) at and after the
    /// policy's claimed `gst()`, asserting the contract: nothing drops
    /// from the stabilization round on.
    fn assert_gst_contract(name: &str, mut policy: impl DropPolicy, n: usize, probe_rounds: u64) {
        let gst = policy.gst();
        for dr in 0..probe_rounds {
            let round = Round::new(gst.index() + dr);
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        continue;
                    }
                    assert!(
                        !policy.drops(round, p(from), p(to)),
                        "{name}: dropped {from}->{to} at {:?} >= gst {:?}",
                        round,
                        gst
                    );
                }
            }
        }
    }

    #[test]
    fn every_policy_honors_the_gst_contract() {
        assert_gst_contract("no_drops", NoDrops, 4, 3);
        assert_gst_contract("random", RandomUntilGst::new(Round::new(6), 1.0, 9), 4, 3);
        assert_gst_contract(
            "partition",
            PartitionUntil::new(vec![[p(0)].into(), [p(1), p(2)].into()], Round::new(4)),
            4,
            3,
        );
        assert_gst_contract(
            "isolate",
            IsolateUntil::new([p(2)].into(), Round::new(5)),
            4,
            3,
        );
        assert_gst_contract(
            "scripted",
            ScriptedDrops::new([(Round::new(2), p(0), p(1))]),
            4,
            3,
        );
        assert_gst_contract(
            "both",
            Both(
                RandomUntilGst::new(Round::new(3), 1.0, 1),
                IsolateUntil::new([p(1)].into(), Round::new(7)),
            ),
            4,
            3,
        );
    }

    /// The `quiet` contract at n = 6 over rounds `0..gst + 4`: a quiet
    /// round drops no pair, every listed policy is quiet exactly from its
    /// `gst()` on, and both `Box` forwarders answer what the inner policy
    /// answers.
    fn assert_quiet_contract<D: DropPolicy + Clone + Send + 'static>(name: &str, policy: D) {
        let n = 6;
        let boxed: Box<dyn DropPolicy> = Box::new(policy.clone());
        let boxed_send: Box<dyn DropPolicy + Send> = Box::new(policy.clone());
        let mut policy = policy;
        let gst = policy.gst();
        for r in 0..gst.index() + 4 {
            let round = Round::new(r);
            let quiet = policy.quiet(round);
            assert_eq!(
                quiet,
                round >= gst,
                "{name}: quiet at {round:?}, gst {gst:?}"
            );
            assert_eq!(boxed.quiet(round), quiet, "{name}: Box<dyn> at {round:?}");
            assert_eq!(
                boxed_send.quiet(round),
                quiet,
                "{name}: Box<dyn + Send> at {round:?}"
            );
            if !quiet {
                continue;
            }
            for from in 0..n {
                for to in 0..n {
                    assert!(
                        from == to || !policy.drops(round, p(from), p(to)),
                        "{name}: quiet {round:?} dropped {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn quiet_rounds_drop_nothing_and_forward_through_boxes() {
        assert_quiet_contract("no_drops", NoDrops);
        assert_quiet_contract("random", RandomUntilGst::new(Round::new(6), 1.0, 9));
        assert_quiet_contract(
            "partition",
            PartitionUntil::new(vec![[p(0)].into(), [p(1), p(2)].into()], Round::new(4)),
        );
        assert_quiet_contract("isolate", IsolateUntil::new([p(2)].into(), Round::new(5)));
        assert_quiet_contract(
            "scripted",
            ScriptedDrops::new([(Round::new(2), p(0), p(1)), (Round::new(3), p(5), p(4))]),
        );
        assert_quiet_contract(
            "both",
            Both(
                RandomUntilGst::new(Round::new(3), 1.0, 1),
                IsolateUntil::new([p(1)].into(), Round::new(7)),
            ),
        );
        // A policy that keeps the default is never quiet, through a box
        // or not.
        struct Chatty;
        impl DropPolicy for Chatty {
            fn drops(&mut self, _: Round, _: Pid, _: Pid) -> bool {
                false
            }
            fn gst(&self) -> Round {
                Round::ZERO
            }
        }
        let boxed: Box<dyn DropPolicy> = Box::new(Chatty);
        assert!(!Chatty.quiet(Round::new(9)) && !boxed.quiet(Round::new(9)));
        assert!(!Both(NoDrops, Chatty).quiet(Round::new(9)));
    }

    #[test]
    fn empty_script_stabilizes_immediately() {
        let d = ScriptedDrops::new([]);
        assert_eq!(d.gst(), Round::ZERO);
        let d = ScriptedDrops::default();
        assert_eq!(d.gst(), Round::ZERO);
    }

    #[test]
    fn both_gst_is_the_max_in_either_order() {
        let early = || ScriptedDrops::new([(Round::new(1), p(0), p(1))]);
        let late = || IsolateUntil::new([p(0)].into(), Round::new(9));
        assert_eq!(Both(early(), late()).gst(), Round::new(9));
        assert_eq!(Both(late(), early()).gst(), Round::new(9));
        // Degenerate: both sides empty → Round::ZERO, not a panic.
        assert_eq!(Both(NoDrops, ScriptedDrops::default()).gst(), Round::ZERO);
    }

    #[test]
    fn random_consumes_one_draw_per_query_under_short_circuiting() {
        // A short-circuiting caller (e.g. `Both` with a trigger-happy
        // first policy, or an engine that skips already-dropped wires)
        // must not perturb the decision stream: the k-th pre-GST query
        // answers the same regardless of interleaved post-GST queries.
        let gst = Round::new(40);
        let baseline: Vec<bool> = {
            let mut d = RandomUntilGst::new(gst, 0.5, 1234);
            (0..40)
                .map(|r| d.drops(Round::new(r), p(0), p(1)))
                .collect()
        };
        let interleaved: Vec<bool> = {
            let mut d = RandomUntilGst::new(gst, 0.5, 1234);
            (0..40)
                .map(|r| {
                    // Post-GST queries in between must consume nothing.
                    assert!(!d.drops(Round::new(41), p(0), p(1)));
                    assert!(!d.drops(Round::new(99), p(1), p(0)));
                    d.drops(Round::new(r), p(0), p(1))
                })
                .collect()
        };
        assert_eq!(baseline, interleaved);
        // And within `Both`, the random stream advances one draw per
        // query even when the partner policy already decided to drop:
        // after 40 queries through `Both`, the inner policy sits at
        // exactly draw 40 of its stream.
        let mut both = Both(
            IsolateUntil::new([p(0)].into(), Round::new(40)),
            RandomUntilGst::new(gst, 0.5, 1234),
        );
        for r in 0..40 {
            // Isolated pre-GST, so the union always drops …
            assert!(both.drops(Round::new(r), p(1), p(0)));
        }
        // … but the inner stream still consumed one draw per query.
        let mut fresh = RandomUntilGst::new(gst, 0.5, 1234);
        for r in 0..40 {
            fresh.drops(Round::new(r), p(0), p(1));
        }
        let continue_both: Vec<bool> = (0..10)
            .map(|_| both.1.drops(Round::new(39), p(0), p(1)))
            .collect();
        let continue_fresh: Vec<bool> = (0..10)
            .map(|_| fresh.drops(Round::new(39), p(0), p(1)))
            .collect();
        assert_eq!(continue_both, continue_fresh);
    }

    #[test]
    fn both_is_a_union() {
        let mut d = Both(
            ScriptedDrops::new([(Round::new(0), p(0), p(1))]),
            ScriptedDrops::new([(Round::new(1), p(1), p(0))]),
        );
        assert!(d.drops(Round::new(0), p(0), p(1)));
        assert!(d.drops(Round::new(1), p(1), p(0)));
        assert!(!d.drops(Round::new(2), p(0), p(1)));
        assert_eq!(d.gst(), Round::new(2));
    }
}
