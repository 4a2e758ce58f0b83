//! The deterministic round-automaton interface implemented by every
//! algorithm in this workspace, plus round arithmetic.

use std::fmt;
use std::sync::Arc;

use crate::codec::DecodeError;
use crate::id::Id;
use crate::message::{Inbox, Message, Recipients};
use crate::value::Value;

/// A round number, starting at 0.
///
/// The paper's algorithms are phrased over *rounds* (send, then receive),
/// *superrounds* (two consecutive rounds, used by the authenticated
/// broadcasts), and *phases* (a fixed number of superrounds, used by the
/// agreement protocols). `Round` provides the conversions.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u64);

impl Round {
    /// The first round.
    pub const ZERO: Round = Round(0);

    /// Creates a round from its index.
    pub fn new(index: u64) -> Self {
        Round(index)
    }

    /// The index of this round.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The superround containing this round (superround `r` consists of
    /// rounds `2r` and `2r + 1`).
    pub fn superround(self) -> Superround {
        Superround(self.0 / 2)
    }

    /// Whether this is the first round of its superround.
    pub fn is_first_of_superround(self) -> bool {
        self.0 % 2 == 0
    }

    /// The next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Round({})", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A superround number (two consecutive rounds), starting at 0.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Superround(u64);

impl Superround {
    /// Creates a superround from its index.
    pub fn new(index: u64) -> Self {
        Superround(index)
    }

    /// The index of this superround.
    pub fn index(self) -> u64 {
        self.0
    }

    /// The first of the two rounds of this superround.
    pub fn first_round(self) -> Round {
        Round(self.0 * 2)
    }

    /// The second of the two rounds of this superround.
    pub fn second_round(self) -> Round {
        Round(self.0 * 2 + 1)
    }

    /// The phase containing this superround, with `per_phase` superrounds
    /// per phase (4 for the Figure 5 and Figure 7 protocols).
    pub fn phase(self, per_phase: u64) -> u64 {
        self.0 / per_phase
    }
}

impl fmt::Debug for Superround {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Superround({})", self.0)
    }
}

impl fmt::Display for Superround {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sr{}", self.0)
    }
}

/// A deterministic round automaton: the interface every protocol implements.
///
/// The contract per round `r` (matching the paper's "send, then receive"
/// round structure):
///
/// 1. the environment calls [`send`](Protocol::send) and collects the
///    outgoing messages (each addressed to all processes or to all holders
///    of one identifier — never to an individual process);
/// 2. the environment delivers an [`Inbox`] via
///    [`receive`](Protocol::receive);
/// 3. the environment reads [`decision`](Protocol::decision).
///
/// A correct process may send at most one message to each recipient per
/// round, so the messages returned by `send` must have non-overlapping
/// recipient sets (at most one `Recipients::All`, or group messages to
/// distinct identifiers). The simulator enforces this.
///
/// Implementations must be deterministic: identical states and inboxes must
/// produce identical behaviour. All state iteration should use ordered
/// collections (`BTreeMap`/`BTreeSet`).
pub trait Protocol {
    /// The wire message type.
    type Msg: Message;
    /// The agreement value type.
    type Value: Value;

    /// The identifier this process was assigned. Constant over the run.
    fn id(&self) -> Id;

    /// Produces this round's outgoing messages.
    fn send(&mut self, round: Round) -> Vec<(Recipients, Self::Msg)>;

    /// Produces this round's outgoing messages as shared handles — the
    /// entry point every execution backend (simulator, sharded simulator,
    /// delay driver) actually calls.
    ///
    /// The default wraps [`send`](Protocol::send)'s messages in fresh
    /// [`Arc`]s, which is exactly the single wrap per emission the
    /// delivery fabric performed itself before this seam existed.
    /// Protocols whose wire message is expensive to rebuild (the Figure 5
    /// bundle, whose echo set is retransmitted every round) override this
    /// to hand back a cached `Arc` when nothing changed since the last
    /// round — the fabric then fans the *same* allocation out again, and
    /// pointer-aware receivers can skip re-scanning it.
    ///
    /// Overrides must stay consistent with `send`: for any given state
    /// and round the two must describe the same wire messages, and
    /// exactly one of them is called per round.
    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<Self::Msg>)> {
        self.send(round)
            .into_iter()
            .map(|(recipients, msg)| (recipients, Arc::new(msg)))
            .collect()
    }

    /// Consumes this round's received messages.
    fn receive(&mut self, round: Round, inbox: &Inbox<Self::Msg>);

    /// The decision, if this process has decided. Must never change once
    /// `Some` (decisions are irrevocable); processes keep participating
    /// after deciding.
    fn decision(&self) -> Option<Self::Value>;

    /// A structural estimate of this process's retained protocol state,
    /// in bits: every table entry counted at a fixed per-entry footprint.
    ///
    /// The absolute scale is a proxy (handles and keys are costed, not
    /// measured); what matters is the *trend* over a run — the engines
    /// sample the per-process sum after every delivery and report the
    /// final and peak values in their run reports, which is how the
    /// bounded-state protocols turn their O(1)-memory claim into a tested
    /// number. The default of 0 means "not instrumented".
    fn state_bits(&self) -> u64 {
        0
    }

    /// A versioned, self-contained encoding of this process's full state,
    /// or `None` if the protocol does not support snapshots.
    ///
    /// Implementations encode through the exact wire codec — a
    /// [`crate::codec::encode_frame`] of the protocol state — so the
    /// snapshot carries the codec's version byte and its size in bits is
    /// codec-exact (`8 × len`, see
    /// [`snapshot_bits`](Protocol::snapshot_bits)). Protocols without a
    /// snapshot are still recoverable: the journal replays their whole
    /// history from round 0 (see [`crate::journal::replay`]).
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores this process to the state a [`snapshot`](Protocol::snapshot)
    /// captured. Must accept exactly the bytes `snapshot` produced;
    /// anything else fails with a typed [`DecodeError`] — restoring never
    /// guesses. The default (for protocols without snapshots) rejects
    /// every input.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), DecodeError> {
        let _ = snapshot;
        Err(DecodeError::BadValue("protocol does not support snapshots"))
    }

    /// The codec-exact size of this process's snapshot in bits (0 when
    /// snapshots are unsupported); `tests/recovery_parity.rs` pins it for
    /// classic EIG.
    fn snapshot_bits(&self) -> u64 {
        self.snapshot().map_or(0, |b| 8 * b.len() as u64)
    }
}

/// Creates protocol instances for the correct processes of a run (and for
/// adversary strategies that internally simulate correct behaviour).
///
/// A factory captures everything common to the run — the system
/// configuration, the value domain — while `spawn` supplies the per-process
/// identifier and input.
pub trait ProtocolFactory {
    /// The protocol this factory builds.
    type P: Protocol;

    /// Creates the automaton for a process holding `id` that proposes
    /// `input`.
    fn spawn(&self, id: Id, input: <Self::P as Protocol>::Value) -> Self::P;
}

/// A [`ProtocolFactory`] backed by a closure.
///
/// # Example
///
/// ```no_run
/// use homonym_core::{FnFactory, Id, ProtocolFactory};
/// # use homonym_core::{Inbox, Protocol, Recipients, Round};
/// # #[derive(Debug)] struct Echo { id: Id }
/// # impl Protocol for Echo {
/// #     type Msg = u8; type Value = bool;
/// #     fn id(&self) -> Id { self.id }
/// #     fn send(&mut self, _: Round) -> Vec<(Recipients, u8)> { vec![] }
/// #     fn receive(&mut self, _: Round, _: &Inbox<u8>) {}
/// #     fn decision(&self) -> Option<bool> { None }
/// # }
/// let factory = FnFactory::new(|id: Id, _input: bool| Echo { id });
/// let p = factory.spawn(Id::new(1), true);
/// ```
#[derive(Clone, Debug)]
pub struct FnFactory<P, F> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> FnFactory<P, F>
where
    P: Protocol,
    F: Fn(Id, P::Value) -> P,
{
    /// Wraps a `Fn(Id, Value) -> P` closure as a factory.
    pub fn new(f: F) -> Self {
        FnFactory {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F> ProtocolFactory for FnFactory<P, F>
where
    P: Protocol,
    F: Fn(Id, P::Value) -> P,
{
    type P = P;

    fn spawn(&self, id: Id, input: P::Value) -> P {
        (self.f)(id, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_superround_mapping() {
        assert_eq!(Round::new(0).superround(), Superround::new(0));
        assert_eq!(Round::new(1).superround(), Superround::new(0));
        assert_eq!(Round::new(2).superround(), Superround::new(1));
        assert!(Round::new(4).is_first_of_superround());
        assert!(!Round::new(5).is_first_of_superround());
    }

    #[test]
    fn superround_round_mapping() {
        let sr = Superround::new(3);
        assert_eq!(sr.first_round(), Round::new(6));
        assert_eq!(sr.second_round(), Round::new(7));
        assert_eq!(sr.first_round().superround(), sr);
        assert_eq!(sr.second_round().superround(), sr);
    }

    #[test]
    fn phase_arithmetic() {
        // Figure 5: four superrounds per phase.
        assert_eq!(Superround::new(0).phase(4), 0);
        assert_eq!(Superround::new(3).phase(4), 0);
        assert_eq!(Superround::new(4).phase(4), 1);
        assert_eq!(Round::new(8).superround().phase(4), 1);
    }

    #[test]
    fn round_ordering_and_next() {
        let r = Round::ZERO;
        assert!(r < r.next());
        assert_eq!(r.next().index(), 1);
    }
}
