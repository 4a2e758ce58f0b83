//! The shared delivery fabric: `Arc`-backed envelopes and dense per-round
//! delivery buckets.
//!
//! Every protocol in the paper sends "one message to every process / every
//! holder of an identifier", so a single round materializes O(n²)
//! deliveries of O(n) *distinct* payloads. The fabric keeps each payload
//! behind one [`Arc`]: simulators and runtimes wrap an emission exactly
//! once and fan out pointer clones, traces retain handles instead of
//! copies, and [`Inbox::collect_shared`](crate::Inbox::collect_shared)
//! builds per-recipient inboxes without ever invoking the payload's
//! `Clone`. [`Deliveries`] is the per-round routing buffer: buckets keyed
//! by dense [`Pid`] index (a `Vec`, not a `BTreeMap`) that an engine keeps
//! across rounds and `clear()`s instead of reallocating.

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
/// An engine keeps one `FrameInterner` per delivery plane for the
/// lifetime of a run and asks it for the [`Tok`] of each emission once —
/// every recipient's envelope then carries the same token, and
/// [`Inbox::collect_shared`](crate::Inbox::collect_shared) groups
/// content-equal homonym duplicates by `(Id, Tok)` instead of deep
/// payload walks. Correctness never depends on the tokens (the inbox
/// merge stays content-keyed); only the dedup cost does.
///
/// Interned payloads are retained for the run (an [`Interner`] never
/// evicts) — bounded by *distinct* emissions, which the send caches and
/// `Arc` reuse of the protocol layer keep far below total emissions. The
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

    /// The number of recipient buckets.
    pub fn n(&self) -> usize {
        self.buckets.len()
    }

    /// Grows the bucket vector to at least `n` recipients, keeping every
    /// existing bucket (and its allocation). No-op if already large
    /// enough.
    ///
    /// This is how the sharded schedulers share one delivery plane: each
    /// shard claims a contiguous slot range, and enqueueing a new shard
    /// widens the plane without disturbing the buckets other shards are
    /// already reusing round after round.
    pub fn ensure_n(&mut self, n: usize) {
        if n > self.buckets.len() {
            self.buckets.resize_with(n, Vec::new);
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

    /// Splits the plane into disjoint contiguous views of the given
    /// widths, laid out back to back from slot 0 — one mutable view per
    /// width, each addressed in **global** slot coordinates.
    ///
    /// This is the lock-free seam of the parallel tick executor: each
    /// shard of a sharded scheduler owns the contiguous range
    /// `[offset, offset + n)`, so handing every worker its shards' views
    /// lets a whole tick's routing and inbox-draining proceed
    /// concurrently with no lock on the plane — the borrow checker
    /// guarantees the ranges cannot overlap.
    ///
    /// Widths may sum to less than [`n`](Deliveries::n); trailing slots
    /// are simply not covered by any view.
    ///
    /// # Panics
    ///
    /// Panics if the widths sum to more than [`n`](Deliveries::n).
    pub fn split_slots(
        &mut self,
        widths: impl IntoIterator<Item = usize>,
    ) -> Vec<DeliverySlots<'_, M>> {
        let mut rest = self.buckets.as_mut_slice();
        let mut start = 0;
        let mut views = Vec::new();
        for width in widths {
            assert!(
                width <= rest.len(),
                "slot ranges exceed the plane: {} + {width} > {}",
                start,
                start + rest.len()
            );
            let (head, tail) = rest.split_at_mut(width);
            views.push(DeliverySlots {
                start,
                buckets: head,
            });
            start += width;
            rest = tail;
        }
        views
    }

    /// The whole plane as a single range view (global coordinates, start
    /// 0) — what a sequential caller hands to code written against
    /// [`DeliverySlots`].
    pub fn as_slots(&mut self) -> DeliverySlots<'_, M> {
        DeliverySlots {
            start: 0,
            buckets: &mut self.buckets,
        }
    }
}

/// A mutable view of a contiguous slot range of a [`Deliveries`] plane,
/// addressed in the plane's **global** [`Pid`] coordinates.
///
/// Produced by [`Deliveries::split_slots`]; because each view borrows a
/// disjoint `&mut` sub-slice of the bucket vector, views can be handed to
/// different worker threads and used concurrently without any
/// synchronization. Out-of-range slots panic, so a shard that tries to
/// write outside its own range is caught immediately rather than
/// corrupting a neighbour.
#[derive(Debug)]
pub struct DeliverySlots<'a, M> {
    start: usize,
    buckets: &'a mut [Vec<SharedEnvelope<M>>],
}

impl<'a, M: Message> DeliverySlots<'a, M> {
    /// Splits this view into disjoint contiguous sub-views of the given
    /// widths, laid out back to back from the view's first slot — each
    /// still addressed in the plane's **global** coordinates.
    ///
    /// This is the nested seam of intra-instance parallelism: a sharded
    /// scheduler first splits the plane per shard
    /// ([`Deliveries::split_slots`]), then splits a big shard's view into
    /// per-worker recipient chunks, so one tick fans out over
    /// (shard, chunk) work units with the borrow checker still proving
    /// every unit disjoint.
    ///
    /// Consumes the view (the sub-views re-borrow its slice). Widths may
    /// sum to less than [`width`](DeliverySlots::width); the tail is left
    /// uncovered.
    ///
    /// # Panics
    ///
    /// Panics if the widths sum to more than this view's width.
    pub fn split_widths(
        self,
        widths: impl IntoIterator<Item = usize>,
    ) -> Vec<DeliverySlots<'a, M>> {
        let mut rest = self.buckets;
        let mut start = self.start;
        let mut views = Vec::new();
        for width in widths {
            assert!(
                width <= rest.len(),
                "sub-ranges exceed the view: {} + {width} > {}",
                start,
                start + rest.len()
            );
            let (head, tail) = rest.split_at_mut(width);
            views.push(DeliverySlots {
                start,
                buckets: head,
            });
            start += width;
            rest = tail;
        }
        views
    }
}

impl<M: Message> DeliverySlots<'_, M> {
    /// The first global slot this view covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The number of slots in this view.
    pub fn width(&self) -> usize {
        self.buckets.len()
    }

    /// Resolves a global slot to a local bucket index, panicking (with
    /// the offending slot) on anything outside this view's range.
    fn local_index(&self, to: Pid) -> usize {
        let local = to.index().checked_sub(self.start).unwrap_or_else(|| {
            panic!(
                "slot {to} below this view's range [{}, {})",
                self.start,
                self.start + self.buckets.len()
            )
        });
        assert!(
            local < self.buckets.len(),
            "slot {to} beyond this view's range [{}, {})",
            self.start,
            self.start + self.buckets.len()
        );
        local
    }

    fn bucket(&mut self, to: Pid) -> &mut Vec<SharedEnvelope<M>> {
        let local = self.local_index(to);
        &mut self.buckets[local]
    }

    /// Empties every bucket of the range, keeping allocations.
    pub fn clear(&mut self) {
        for bucket in self.buckets.iter_mut() {
            bucket.clear();
        }
    }

    /// Routes one shared envelope to global slot `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is outside this view's range.
    #[inline]
    pub fn push(&mut self, to: Pid, envelope: SharedEnvelope<M>) {
        self.bucket(to).push(envelope);
    }

    /// The number of envelopes currently routed to global slot `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is outside this view's range.
    pub fn len_for(&self, to: Pid) -> usize {
        self.buckets[self.local_index(to)].len()
    }

    /// Drains global slot `to` into an [`Inbox`] under the given counting
    /// model; the bucket keeps its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `to` is outside this view's range.
    pub fn take_inbox(&mut self, to: Pid, counting: Counting) -> Inbox<M> {
        Inbox::collect_shared(self.bucket(to).drain(..), counting)
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
    fn ensure_n_grows_but_never_shrinks_or_clears() {
        let mut d: Deliveries<String> = Deliveries::new(2);
        d.push(Pid::new(1), env(1, "kept"));
        d.ensure_n(4);
        assert_eq!(d.n(), 4);
        assert_eq!(d.len_for(Pid::new(1)), 1, "existing buckets survive");
        d.push(Pid::new(3), env(2, "new slot"));
        assert_eq!(d.total(), 2);
        d.ensure_n(1);
        assert_eq!(d.n(), 4, "ensure_n never shrinks");
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
    fn split_slots_views_are_disjoint_and_globally_addressed() {
        let mut d: Deliveries<String> = Deliveries::new(7);
        d.push(Pid::new(6), env(9, "pre-existing"));
        {
            let mut views = d.split_slots([2usize, 3, 2]);
            assert_eq!(views.len(), 3);
            assert_eq!(
                views.iter().map(DeliverySlots::start).collect::<Vec<_>>(),
                vec![0, 2, 5]
            );
            // Each view addresses its slots in GLOBAL coordinates.
            views[0].push(Pid::new(1), env(1, "a"));
            views[1].push(Pid::new(2), env(2, "b"));
            views[1].push(Pid::new(4), env(2, "c"));
            views[2].push(Pid::new(5), env(3, "d"));
            assert_eq!(views[2].len_for(Pid::new(6)), 1, "existing data visible");
            let inbox = views[1].take_inbox(Pid::new(2), Counting::Numerate);
            assert_eq!(inbox.count(Id::new(2), &"b".to_string()), 1);
        }
        // The views write through to the plane.
        assert_eq!(d.len_for(Pid::new(1)), 1);
        assert_eq!(d.len_for(Pid::new(2)), 0, "taken inbox drained the slot");
        assert_eq!(d.len_for(Pid::new(4)), 1);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn split_slots_may_leave_a_tail_uncovered() {
        let mut d: Deliveries<String> = Deliveries::new(5);
        let views = d.split_slots([2usize, 1]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[1].start(), 2);
        assert_eq!(views[1].width(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed the plane")]
    fn split_slots_rejects_oversized_ranges() {
        let mut d: Deliveries<String> = Deliveries::new(3);
        let _ = d.split_slots([2usize, 2]);
    }

    #[test]
    #[should_panic(expected = "below this view's range")]
    fn view_rejects_slots_below_its_range() {
        let mut d: Deliveries<String> = Deliveries::new(4);
        let mut views = d.split_slots([2usize, 2]);
        views[1].push(Pid::new(1), env(1, "trespass"));
    }

    #[test]
    #[should_panic(expected = "beyond this view's range")]
    fn view_rejects_slots_beyond_its_range() {
        let mut d: Deliveries<String> = Deliveries::new(4);
        let mut views = d.split_slots([2usize, 2]);
        views[0].push(Pid::new(2), env(1, "trespass"));
    }

    #[test]
    fn split_widths_nests_inside_a_shard_view() {
        let mut d: Deliveries<String> = Deliveries::new(8);
        {
            let views = d.split_slots([3usize, 5]);
            let mut it = views.into_iter();
            let _first = it.next().unwrap();
            let second = it.next().unwrap();
            // Sub-split the second shard's view into recipient chunks.
            let mut chunks = second.split_widths([2usize, 2]);
            assert_eq!(chunks.len(), 2);
            assert_eq!(chunks[0].start(), 3);
            assert_eq!(chunks[1].start(), 5);
            assert_eq!(chunks[1].width(), 2);
            // Still addressed in GLOBAL plane coordinates.
            chunks[0].push(Pid::new(4), env(1, "a"));
            chunks[1].push(Pid::new(6), env(2, "b"));
        }
        assert_eq!(d.len_for(Pid::new(4)), 1);
        assert_eq!(d.len_for(Pid::new(6)), 1);
        assert_eq!(d.total(), 2);
    }

    #[test]
    #[should_panic(expected = "below this view's range")]
    fn split_widths_sub_views_stay_bounded() {
        let mut d: Deliveries<String> = Deliveries::new(6);
        let views = d.split_slots([6usize]);
        let mut chunks = views.into_iter().next().unwrap().split_widths([3usize, 3]);
        chunks[1].push(Pid::new(2), env(1, "trespass"));
    }

    #[test]
    #[should_panic(expected = "exceed the view")]
    fn split_widths_rejects_oversized_sub_ranges() {
        let mut d: Deliveries<String> = Deliveries::new(4);
        let views = d.split_slots([4usize]);
        let _ = views.into_iter().next().unwrap().split_widths([3usize, 2]);
    }

    #[test]
    fn as_slots_covers_the_whole_plane() {
        let mut d: Deliveries<String> = Deliveries::new(3);
        let mut view = d.as_slots();
        view.push(Pid::new(0), env(1, "x"));
        view.push(Pid::new(2), env(1, "y"));
        view.clear();
        assert_eq!(d.total(), 0);
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
