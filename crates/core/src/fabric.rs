//! The shared delivery fabric: `Arc`-backed envelopes, frame tokens, and
//! the per-delivery plane.
//!
//! Every protocol in the paper sends "one message to every process / every
//! holder of an identifier", so a single round materializes O(n²)
//! deliveries of O(n) *distinct* payloads — and, because a correct process
//! cannot address one process, almost every recipient of a round receives
//! the *same set* of them. The fabric keeps each payload behind one
//! [`Arc`]: every engine wraps an emission exactly once, traces
//! retain handles instead of copies, and
//! [`Inbox::collect_shared`](crate::Inbox::collect_shared) builds inboxes
//! without ever invoking the payload's `Clone`.
//!
//! Two delivery paths ride on it:
//!
//! * The **lock-step engines** (`homonym_sim::par`) keep one *cast* per
//!   emission and never expand it: they record which recipients each cast
//!   reached, group recipients that were reached by exactly the same casts
//!   into *delivery classes*, and build one inbox (and one journal record)
//!   per class, shared by its members. What they take from this module is
//!   [`SharedEnvelope`] — the unit `collect_shared` consumes — and the
//!   [`FrameInterner`] that stamps one token per distinct payload.
//! * The **virtual-time engine** (`DelayCluster`, the delay driver)
//!   delivers one envelope at a time, whenever it arrives, into
//!   [`Deliveries`]: buckets keyed by dense [`Pid`] index (a `Vec`, not a
//!   `BTreeMap`) that an engine keeps across rounds and `clear()`s instead
//!   of reallocating. This per-delivery plane is also the reference the
//!   class path is tested against (`tests/fabric_equivalence.rs`): pushing
//!   one envelope per delivery and draining per recipient must yield the
//!   inboxes the classes share.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::config::Counting;
use crate::id::{Id, Pid};
use crate::intern::{Interner, Tok};
use crate::message::{Envelope, Inbox, Message};

/// A received message whose payload is shared with every other recipient:
/// the (authenticated) identifier of its sender plus an [`Arc`] handle on
/// the payload.
///
/// Cloning a `SharedEnvelope` bumps a reference count; it never clones the
/// payload. [`Envelope`] remains the owned view protocols and tests build
/// by hand — `SharedEnvelope::from` lifts one into the fabric.
///
/// An envelope may additionally carry a *frame token* — the payload's
/// dense [`Tok`] under the sending engine's [`FrameInterner`]. The token
/// is a routing hint, not part of the message: it is excluded from
/// equality, ordering, hashing, and `Debug` (the manual impls below), so
/// traces, golden digests, and inbox contents are exactly those of
/// `(src, msg)`. Its sole consumer is
/// [`Inbox::collect_shared`](crate::Inbox::collect_shared), which groups
/// token-equal homonym duplicates with a cheap `(Id, Tok)` comparison
/// instead of a deep structural walk per delivery.
#[derive(Clone)]
pub struct SharedEnvelope<M> {
    /// The sender's authenticated identifier.
    pub src: Id,
    /// The shared payload.
    pub msg: Arc<M>,
    /// The payload's frame token under the emitting engine's
    /// [`FrameInterner`], if the delivery path framed it. Tokens are only
    /// meaningful within one engine's delivery plane; envelopes that
    /// cross engines (tests, hand-built fixtures) carry `None` and take
    /// the structural dedup path.
    pub tok: Option<Tok>,
}

impl<M> SharedEnvelope<M> {
    /// Wraps an owned payload (one allocation, no payload clone).
    pub fn new(src: Id, msg: M) -> Self {
        SharedEnvelope {
            src,
            msg: Arc::new(msg),
            tok: None,
        }
    }

    /// Shares an already-wrapped payload (reference-count bump only).
    pub fn shared(src: Id, msg: Arc<M>) -> Self {
        SharedEnvelope {
            src,
            msg,
            tok: None,
        }
    }

    /// Shares an already-wrapped payload together with its frame token
    /// under the emitting engine's [`FrameInterner`].
    pub fn framed(src: Id, msg: Arc<M>, tok: Tok) -> Self {
        SharedEnvelope {
            src,
            msg,
            tok: Some(tok),
        }
    }
}

// The frame token is transport metadata: identity is `(src, msg)` alone,
// so envelopes compare, order, and hash exactly as they did before tokens
// existed (golden digests and trace orderings are unchanged).
impl<M: PartialEq> PartialEq for SharedEnvelope<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.src, &self.msg) == (other.src, &other.msg)
    }
}

impl<M: Eq> Eq for SharedEnvelope<M> {}

impl<M: Ord> PartialOrd for SharedEnvelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M: Ord> Ord for SharedEnvelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.src, &self.msg).cmp(&(other.src, &other.msg))
    }
}

impl<M: Hash> Hash for SharedEnvelope<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.src.hash(state);
        self.msg.hash(state);
    }
}

impl<M> From<Envelope<M>> for SharedEnvelope<M> {
    fn from(Envelope { src, msg }: Envelope<M>) -> Self {
        SharedEnvelope::new(src, msg)
    }
}

impl<M: fmt::Debug> fmt::Debug for SharedEnvelope<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} from id {}", self.msg, self.src)
    }
}

/// The per-engine payload interner behind token-framed delivery.
///
/// An engine keeps one `FrameInterner` per agreement instance and asks
/// it for the [`Tok`] of each emission once — every envelope of that
/// emission then carries the same token, and
/// [`Inbox::collect_shared`](crate::Inbox::collect_shared) groups
/// content-equal homonym duplicates by `(Id, Tok)` instead of deep
/// payload walks. Correctness never depends on the tokens (the inbox
/// merge stays content-keyed); only the dedup cost does.
///
/// Interned payloads are retained for the interner's lifetime (an
/// [`Interner`] never evicts) — bounded by *distinct* emissions, which the
/// send caches and `Arc` reuse of the protocol layer keep far below total
/// emissions; the multi-shot engines start a fresh interner per shot, so
/// a finished instance's payloads go with it. The
/// retention is also what makes the pointer memo sound: a memoized
/// `Arc` address can never be recycled while its entry exists, because
/// the interner itself holds that allocation alive.
pub struct FrameInterner<M> {
    interner: Interner<M>,
    /// `Arc` address → token, **only** for Arcs the interner itself
    /// retains (first-seen handles). Re-sending the same handle — the
    /// protocol send-cache fast path — resolves with no payload
    /// comparison at all.
    memo: BTreeMap<usize, Tok>,
}

impl<M: Clone + Ord> FrameInterner<M> {
    /// An empty interner.
    pub fn new() -> Self {
        FrameInterner {
            interner: Interner::new(),
            memo: BTreeMap::new(),
        }
    }

    /// The frame token for one emission's payload, interning it on first
    /// sight (an `Arc` clone, never a payload clone).
    #[inline]
    pub fn tok_for(&mut self, msg: &Arc<M>) -> Tok {
        let ptr = Arc::as_ptr(msg) as usize;
        if let Some(&tok) = self.memo.get(&ptr) {
            return tok;
        }
        let tok = self.interner.intern_shared(msg);
        // Memoize only when the interner retained THIS allocation (the
        // first handle of its content): retained Arcs never drop, so the
        // address cannot be reused and the memo entry stays valid.
        if Arc::ptr_eq(msg, self.interner.resolve_shared(tok)) {
            self.memo.insert(ptr, tok);
        }
        tok
    }

    /// Number of distinct payloads framed so far.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// Whether nothing has been framed yet.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }
}

impl<M: Clone + Ord> Default for FrameInterner<M> {
    fn default() -> Self {
        FrameInterner::new()
    }
}

impl<M: fmt::Debug> fmt::Debug for FrameInterner<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameInterner")
            .field("interner", &self.interner)
            .finish()
    }
}

/// One round's deliveries, bucketed by dense recipient index.
///
/// An engine keeps one `Deliveries` for the lifetime of a run: each round
/// it [`clear`](Deliveries::clear)s the buckets (retaining their
/// allocations), [`push`](Deliveries::push)es every routed envelope, and
/// drains per-recipient inboxes with
/// [`take_inbox`](Deliveries::take_inbox). At n in the hundreds this
/// replaces the seed engine's per-round `BTreeMap<Pid, Vec<Envelope>>`
/// (fresh allocation plus log-time bucket lookup per delivery) with an
/// indexed push.
#[derive(Clone, Debug)]
pub struct Deliveries<M> {
    buckets: Vec<Vec<SharedEnvelope<M>>>,
}

impl<M: Message> Deliveries<M> {
    /// Buckets for `n` recipients, all empty.
    pub fn new(n: usize) -> Self {
        Deliveries {
            buckets: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Empties every bucket, keeping their allocations for the next round.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
    }

    /// Routes one shared envelope to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn push(&mut self, to: Pid, envelope: SharedEnvelope<M>) {
        self.buckets[to.index()].push(envelope);
    }

    /// The number of envelopes currently routed to `to`.
    pub fn len_for(&self, to: Pid) -> usize {
        self.buckets[to.index()].len()
    }

    /// Total envelopes routed this round.
    pub fn total(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Drains `to`'s bucket into an [`Inbox`] under the given counting
    /// model. The bucket is left empty but keeps its allocation.
    pub fn take_inbox(&mut self, to: Pid, counting: Counting) -> Inbox<M> {
        Inbox::collect_shared(self.buckets[to.index()].drain(..), counting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u16, msg: &str) -> SharedEnvelope<String> {
        SharedEnvelope::new(Id::new(src), msg.to_string())
    }

    #[test]
    fn buckets_route_by_pid_index() {
        let mut d: Deliveries<String> = Deliveries::new(3);
        d.push(Pid::new(0), env(1, "a"));
        d.push(Pid::new(2), env(1, "b"));
        d.push(Pid::new(2), env(2, "b"));
        assert_eq!(d.len_for(Pid::new(0)), 1);
        assert_eq!(d.len_for(Pid::new(1)), 0);
        assert_eq!(d.len_for(Pid::new(2)), 2);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn take_inbox_drains_but_keeps_buckets() {
        let mut d: Deliveries<String> = Deliveries::new(2);
        d.push(Pid::new(1), env(1, "x"));
        d.push(Pid::new(1), env(1, "x"));
        let inbox = d.take_inbox(Pid::new(1), Counting::Numerate);
        assert_eq!(inbox.count(Id::new(1), &"x".to_string()), 2);
        assert_eq!(d.len_for(Pid::new(1)), 0);
        // The structure is reusable after a clear.
        d.clear();
        d.push(Pid::new(0), env(2, "y"));
        assert_eq!(d.total(), 1);
    }

    #[test]
    fn shared_payload_is_one_allocation() {
        let payload = Arc::new("big".to_string());
        let a = SharedEnvelope::shared(Id::new(1), Arc::clone(&payload));
        let b = SharedEnvelope::shared(Id::new(2), Arc::clone(&payload));
        assert!(Arc::ptr_eq(&a.msg, &b.msg));
        assert_eq!(Arc::strong_count(&payload), 3);
    }

    #[test]
    fn frame_tokens_are_stable_and_memoized() {
        let mut frames: FrameInterner<String> = FrameInterner::new();
        let a = Arc::new("alpha".to_string());
        let a2 = Arc::new("alpha".to_string()); // content-equal, distinct alloc
        let b = Arc::new("beta".to_string());
        let ta = frames.tok_for(&a);
        assert_eq!(frames.tok_for(&a), ta, "same handle, same token");
        assert_eq!(frames.tok_for(&a2), ta, "equal content, same token");
        assert_ne!(frames.tok_for(&b), ta);
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn tok_is_excluded_from_envelope_identity() {
        let payload = Arc::new("m".to_string());
        let plain = SharedEnvelope::shared(Id::new(1), Arc::clone(&payload));
        let framed = SharedEnvelope::framed(Id::new(1), Arc::clone(&payload), 7);
        let other = SharedEnvelope::framed(Id::new(1), Arc::clone(&payload), 8);
        assert_eq!(plain, framed);
        assert_eq!(framed, other);
        assert_eq!(plain.cmp(&framed), std::cmp::Ordering::Equal);
        assert_eq!(format!("{plain:?}"), format!("{framed:?}"));
    }

    #[test]
    fn debug_matches_envelope_rendering() {
        let owned = Envelope {
            src: Id::new(3),
            msg: 7u32,
        };
        let shared = SharedEnvelope::from(owned.clone());
        assert_eq!(format!("{owned:?}"), format!("{shared:?}"));
    }
}
