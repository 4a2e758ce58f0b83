//! Message envelopes, addressing, and per-round inboxes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::config::Counting;
use crate::fabric::SharedEnvelope;
use crate::id::Id;

/// A protocol message payload.
///
/// Blanket-implemented for any ordered, cloneable, printable,
/// `Send + Sync + 'static` type. Ordering gives inboxes a canonical
/// iteration order, which keeps every execution deterministic; `Sync` lets
/// the delivery fabric share one `Arc`-wrapped payload across every
/// recipient (and across executor worker threads) instead of deep-cloning
/// it per delivery.
pub trait Message: Clone + Ord + Eq + fmt::Debug + Send + Sync + 'static {}

impl<T: Clone + Ord + Eq + fmt::Debug + Send + Sync + 'static> Message for T {}

/// Whom a correct process addresses a message to.
///
/// The paper's model: "a process cannot direct a message it sends to a
/// particular process, but can direct the message to all processes that
/// have a particular identifier". (Byzantine processes are not so limited —
/// they may send arbitrary messages to each process individually; that
/// power lives in the simulator's adversary interface, not here.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recipients {
    /// Every process, including the sender itself.
    All,
    /// Every process holding the given identifier.
    Group(Id),
}

impl Recipients {
    /// The processes addressed under `assignment`, in ascending process
    /// order, without allocating — `All` is every process, `Group(i)` is
    /// `G(i)`.
    pub fn expand(
        self,
        assignment: &crate::id::IdAssignment,
    ) -> impl Iterator<Item = crate::id::Pid> + '_ {
        let (all, group) = match self {
            Recipients::All => (Some(crate::id::Pid::all(assignment.n())), None),
            Recipients::Group(id) => (None, Some(assignment.group_iter(id))),
        };
        all.into_iter().flatten().chain(group.into_iter().flatten())
    }
}

/// A received message: the (authenticated) identifier of its sender plus
/// the payload. In the paper's notation, `m.id` and `m.val`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Envelope<M> {
    /// The sender's authenticated identifier.
    pub src: Id,
    /// The payload.
    pub msg: M,
}

impl<M: fmt::Debug> fmt::Debug for Envelope<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} from id {}", self.msg, self.src)
    }
}

/// The messages a process receives in one round.
///
/// Internally a multiset keyed by `(sender identifier, payload)`. In a
/// **numerate** system multiplicities are preserved; in an **innumerate**
/// system the environment collapses every multiplicity to 1 *before*
/// delivery, so numeracy is a property of the system rather than trusted
/// protocol behaviour — an innumerate protocol physically cannot observe
/// counts.
///
/// # Example
///
/// ```
/// use homonym_core::{Counting, Envelope, Id, Inbox};
///
/// let deliveries = vec![
///     Envelope { src: Id::new(1), msg: "hello" },
///     Envelope { src: Id::new(1), msg: "hello" }, // homonym clone
///     Envelope { src: Id::new(2), msg: "hello" },
/// ];
/// let numerate = Inbox::collect(deliveries.clone(), Counting::Numerate);
/// assert_eq!(numerate.count(Id::new(1), &"hello"), 2);
/// let innumerate = Inbox::collect(deliveries, Counting::Innumerate);
/// assert_eq!(innumerate.count(Id::new(1), &"hello"), 1);
/// // Either way, two distinct identifiers sent "hello".
/// assert_eq!(numerate.ids_where(|m| *m == "hello").count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Inbox<M> {
    // Keys are `Arc`-shared with the delivery fabric: building an inbox
    // from shared envelopes never clones a payload, and `BTreeMap`'s
    // `Borrow`-based lookup keeps every query usable with a plain `&M`.
    by_id: BTreeMap<Id, BTreeMap<Arc<M>, u64>>,
}

impl<M: Message> Inbox<M> {
    /// An empty inbox.
    pub fn empty() -> Self {
        Inbox {
            by_id: BTreeMap::new(),
        }
    }

    /// Builds an inbox from delivered envelopes under the given counting
    /// model.
    pub fn collect(deliveries: impl IntoIterator<Item = Envelope<M>>, counting: Counting) -> Self {
        Inbox::collect_shared(deliveries.into_iter().map(SharedEnvelope::from), counting)
    }

    /// Builds an inbox from fabric-shared envelopes under the given
    /// counting model.
    ///
    /// Equivalent to [`Inbox::collect`] on the underlying payloads (the
    /// `fabric_equivalence` property tests pin this), but moves `Arc`
    /// handles instead of owned payloads: no payload is cloned, however
    /// many recipients share it.
    ///
    /// Envelopes carrying a frame token (see
    /// [`SharedEnvelope::framed`](crate::fabric::SharedEnvelope)) are
    /// pre-grouped by `(sender id, token)` — a `(u16, u32)` comparison —
    /// so the homonym-duplicate hot case (many content-equal payloads
    /// from one identifier) costs one deep payload walk per *distinct*
    /// payload instead of one per delivery. Untokened envelopes take the
    /// structural path. The final merge is content-keyed either way, so
    /// the resulting inbox is identical whether or not (and however
    /// consistently) deliveries were framed.
    pub fn collect_shared(
        deliveries: impl IntoIterator<Item = SharedEnvelope<M>>,
        counting: Counting,
    ) -> Self {
        let mut by_id: BTreeMap<Id, BTreeMap<Arc<M>, u64>> = BTreeMap::new();
        let mut framed: BTreeMap<(Id, crate::intern::Tok), (Arc<M>, u64)> = BTreeMap::new();
        for SharedEnvelope { src, msg, tok } in deliveries {
            match tok {
                Some(tok) => {
                    framed
                        .entry((src, tok))
                        .and_modify(|(_, count)| *count += 1)
                        .or_insert((msg, 1));
                }
                None => {
                    *by_id.entry(src).or_default().entry(msg).or_insert(0) += 1;
                }
            }
        }
        for ((src, _), (msg, count)) in framed {
            *by_id.entry(src).or_default().entry(msg).or_insert(0) += count;
        }
        if counting == Counting::Innumerate {
            for msgs in by_id.values_mut() {
                for c in msgs.values_mut() {
                    *c = 1;
                }
            }
        }
        Inbox { by_id }
    }

    /// The multiplicity of `(id, msg)` — at most 1 in an innumerate system.
    pub fn count(&self, id: Id, msg: &M) -> u64 {
        self.by_id
            .get(&id)
            .and_then(|m| m.get(msg))
            .copied()
            .unwrap_or(0)
    }

    /// Whether at least one copy of `(id, msg)` arrived.
    pub fn contains(&self, id: Id, msg: &M) -> bool {
        self.count(id, msg) > 0
    }

    /// The identifiers from which at least one message arrived, ascending.
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.by_id.keys().copied()
    }

    /// The distinct payloads received from `id`, with multiplicities.
    pub fn from_id(&self, id: Id) -> impl Iterator<Item = (&M, u64)> + '_ {
        self.by_id
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().map(|(msg, &c)| (&**msg, c)))
    }

    /// The number of *distinct* payloads received from `id`.
    pub fn distinct_from(&self, id: Id) -> usize {
        self.by_id.get(&id).map_or(0, BTreeMap::len)
    }

    /// Iterates over all `(sender id, payload, multiplicity)` triples in
    /// canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &M, u64)> + '_ {
        self.by_id
            .iter()
            .flat_map(|(&id, msgs)| msgs.iter().map(move |(m, &c)| (id, &**m, c)))
    }

    /// Iterates over the same triples as [`iter`](Inbox::iter) but hands
    /// out the shared payload handles, so fabric-aware consumers (replay
    /// pools, trace stores) can retain a message without cloning it.
    pub fn iter_shared(&self) -> impl Iterator<Item = (Id, &Arc<M>, u64)> + '_ {
        self.by_id
            .iter()
            .flat_map(|(&id, msgs)| msgs.iter().map(move |(m, &c)| (id, m, c)))
    }

    /// The identifiers that sent at least one payload satisfying `pred`.
    ///
    /// This is the *innumerate-safe* evidence counter used all over the
    /// paper ("received ⟨echo m⟩ from `ℓ − t` distinct identifiers").
    pub fn ids_where<'a, F>(&'a self, pred: F) -> impl Iterator<Item = Id> + 'a
    where
        F: Fn(&M) -> bool + 'a,
    {
        self.by_id
            .iter()
            .filter(move |(_, msgs)| msgs.keys().any(|m| pred(m)))
            .map(|(&id, _)| id)
    }

    /// Total multiplicity of payloads satisfying `pred`, across all
    /// identifiers — the *numerate* evidence counter of Figures 6 and 7
    /// ("received `n − t` messages ⟨ack⟩ in this round").
    pub fn count_where<F>(&self, pred: F) -> u64
    where
        F: Fn(&M) -> bool,
    {
        self.iter()
            .filter(|(_, m, _)| pred(m))
            .map(|(_, _, c)| c)
            .sum()
    }

    /// Total multiplicity of all messages.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, _, c)| c).sum()
    }

    /// Number of distinct `(id, payload)` pairs.
    pub fn len(&self) -> usize {
        self.by_id.values().map(BTreeMap::len).sum()
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

impl<M: Message> Default for Inbox<M> {
    fn default() -> Self {
        Inbox::empty()
    }
}

impl<M: Message> FromIterator<Envelope<M>> for Inbox<M> {
    /// Collects with numerate (multiset) semantics; use [`Inbox::collect`]
    /// to control the counting model.
    fn from_iter<T: IntoIterator<Item = Envelope<M>>>(iter: T) -> Self {
        Inbox::collect(iter, Counting::Numerate)
    }
}

impl<M: fmt::Debug> fmt::Debug for Inbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (id, msgs) in &self.by_id {
            map.entry(id, msgs);
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(id: u16, msg: &str) -> Envelope<String> {
        Envelope {
            src: Id::new(id),
            msg: msg.to_string(),
        }
    }

    #[test]
    fn numerate_preserves_multiplicity() {
        let inbox = Inbox::collect(
            vec![env(1, "a"), env(1, "a"), env(1, "b"), env(2, "a")],
            Counting::Numerate,
        );
        assert_eq!(inbox.count(Id::new(1), &"a".to_string()), 2);
        assert_eq!(inbox.count(Id::new(1), &"b".to_string()), 1);
        assert_eq!(inbox.total(), 4);
        assert_eq!(inbox.len(), 3);
    }

    #[test]
    fn innumerate_collapses_duplicates() {
        let inbox = Inbox::collect(
            vec![env(1, "a"), env(1, "a"), env(1, "a"), env(2, "a")],
            Counting::Innumerate,
        );
        assert_eq!(inbox.count(Id::new(1), &"a".to_string()), 1);
        assert_eq!(inbox.total(), 2);
    }

    #[test]
    fn ids_where_counts_distinct_identifiers_once() {
        let inbox = Inbox::collect(
            vec![
                env(1, "echo"),
                env(1, "echo"),
                env(2, "echo"),
                env(3, "other"),
            ],
            Counting::Numerate,
        );
        let supporters: Vec<Id> = inbox.ids_where(|m| m == "echo").collect();
        assert_eq!(supporters, vec![Id::new(1), Id::new(2)]);
    }

    #[test]
    fn count_where_sums_multiplicity_across_ids() {
        let inbox = Inbox::collect(
            vec![env(1, "ack"), env(1, "ack"), env(2, "ack"), env(2, "nack")],
            Counting::Numerate,
        );
        assert_eq!(inbox.count_where(|m| m == "ack"), 3);
    }

    #[test]
    fn distinct_from_detects_equivocation() {
        // Figure 3 line 13: "more than one different message from identifier
        // j" exposes a Byzantine (or split-homonym) group.
        let inbox = Inbox::collect(vec![env(1, "x"), env(1, "y")], Counting::Innumerate);
        assert_eq!(inbox.distinct_from(Id::new(1)), 2);
        assert_eq!(inbox.distinct_from(Id::new(9)), 0);
    }

    #[test]
    fn empty_inbox() {
        let inbox: Inbox<String> = Inbox::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.total(), 0);
        assert_eq!(inbox.ids().count(), 0);
    }

    #[test]
    fn framed_and_structural_dedup_agree() {
        let payload = Arc::new("m".to_string());
        let other = Arc::new("x".to_string());
        let mixed = vec![
            SharedEnvelope::framed(Id::new(1), Arc::clone(&payload), 0),
            SharedEnvelope::framed(Id::new(1), Arc::clone(&payload), 0),
            // An untokened duplicate of the same content must merge with
            // the token group — the inbox is content-keyed, not token-keyed.
            SharedEnvelope::shared(Id::new(1), Arc::clone(&payload)),
            SharedEnvelope::framed(Id::new(2), Arc::clone(&payload), 0),
            SharedEnvelope::shared(Id::new(1), Arc::clone(&other)),
        ];
        let plain = mixed.iter().cloned().map(|mut e| {
            e.tok = None;
            e
        });
        let framed = Inbox::collect_shared(mixed.clone(), Counting::Numerate);
        let structural = Inbox::collect_shared(plain, Counting::Numerate);
        assert_eq!(framed, structural);
        assert_eq!(framed.count(Id::new(1), &"m".to_string()), 3);
        assert_eq!(framed.count(Id::new(2), &"m".to_string()), 1);
        let innumerate = Inbox::collect_shared(mixed, Counting::Innumerate);
        assert_eq!(innumerate.count(Id::new(1), &"m".to_string()), 1);
    }

    #[test]
    fn iteration_is_canonically_ordered() {
        let inbox = Inbox::collect(
            vec![env(2, "b"), env(1, "z"), env(1, "a"), env(2, "a")],
            Counting::Numerate,
        );
        let flat: Vec<(u16, String)> = inbox.iter().map(|(i, m, _)| (i.get(), m.clone())).collect();
        assert_eq!(
            flat,
            vec![
                (1, "a".to_string()),
                (1, "z".to_string()),
                (2, "a".to_string()),
                (2, "b".to_string())
            ]
        );
    }
}
