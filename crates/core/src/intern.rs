//! Payload interning and identifier bitsets — the small-key utilities the
//! hot protocol paths key their evidence tables with.
//!
//! The Figure 5/6/7 broadcast layers accumulate evidence per
//! `(payload, superround, identifier)` key. Payloads are deep values
//! (candidate sets, vote tuples), so keying maps on them directly means a
//! deep clone per observed item and a deep comparison per map probe —
//! `O(rounds × n × active echoes)` clones. An [`Interner`] maps each distinct
//! payload to a dense `u32` token exactly once; from then on the hot maps
//! key on small `Copy` tuples and the payload is only touched again when a
//! wire bundle is rebuilt or an accept fires.
//!
//! [`IdBits`] is the companion evidence set: "distinct identifiers seen
//! echoing this key" as a fixed-width bitset over the `ℓ` identifiers,
//! with a maintained popcount so the `ℓ − 2t` / `ℓ − t` threshold checks
//! are O(1) instead of a `BTreeSet` walk.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dense token standing for one interned payload.
///
/// Tokens are assigned in first-seen order and are only meaningful to the
/// [`Interner`] that issued them.
pub type Tok = u32;

/// Maps deep values to dense [`Tok`]s, cloning each distinct value exactly
/// once (into an [`Arc`], shared between the lookup map and the resolve
/// table).
///
/// # Example
///
/// ```
/// use homonym_core::intern::Interner;
///
/// let mut interner: Interner<String> = Interner::new();
/// let a = interner.intern(&"alpha".to_string());
/// let b = interner.intern(&"beta".to_string());
/// assert_ne!(a, b);
/// assert_eq!(interner.intern(&"alpha".to_string()), a); // stable
/// assert_eq!(interner.resolve(a), "alpha");
/// assert_eq!(interner.get(&"gamma".to_string()), None); // read-only probe
/// ```
#[derive(Clone)]
pub struct Interner<T> {
    lookup: BTreeMap<Arc<T>, Tok>,
    items: Vec<Arc<T>>,
}

impl<T: Clone + Ord> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            lookup: BTreeMap::new(),
            items: Vec::new(),
        }
    }

    /// The token for `value`, interning it (one clone) on first sight.
    pub fn intern(&mut self, value: &T) -> Tok {
        if let Some(&tok) = self.lookup.get(value) {
            return tok;
        }
        let tok = Tok::try_from(self.items.len()).expect("interner overflow");
        let shared = Arc::new(value.clone());
        self.items.push(Arc::clone(&shared));
        self.lookup.insert(shared, tok);
        tok
    }

    /// The token for `value`, interning by cloning the caller's [`Arc`]
    /// handle on first sight — no deep clone even for new payloads.
    pub fn intern_shared(&mut self, value: &Arc<T>) -> Tok {
        if let Some(&tok) = self.lookup.get(&**value) {
            return tok;
        }
        let tok = Tok::try_from(self.items.len()).expect("interner overflow");
        self.items.push(Arc::clone(value));
        self.lookup.insert(Arc::clone(value), tok);
        tok
    }

    /// The token for `value` if it has been interned, without interning.
    pub fn get(&self, value: &T) -> Option<Tok> {
        self.lookup.get(value).copied()
    }

    /// The value behind `tok`.
    ///
    /// # Panics
    ///
    /// Panics if `tok` was not issued by this interner.
    pub fn resolve(&self, tok: Tok) -> &T {
        &self.items[tok as usize]
    }

    /// The shared handle behind `tok` (for callers that retain payloads).
    ///
    /// # Panics
    ///
    /// Panics if `tok` was not issued by this interner.
    pub fn resolve_shared(&self, tok: Tok) -> &Arc<T> {
        &self.items[tok as usize]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Clone + Ord> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: PartialEq> PartialEq for Interner<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items.len() == other.items.len()
            && self.items.iter().zip(&other.items).all(|(a, b)| **a == **b)
    }
}

impl<T: Eq> Eq for Interner<T> {}

impl<T: std::hash::Hash> std::hash::Hash for Interner<T> {
    /// Hashes the interned values in token order — tokens are assigned
    /// first-seen, so two interners that interned the same values in the
    /// same order hash (and compare) equal regardless of map internals.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.items.len().hash(state);
        for item in &self.items {
            (**item).hash(state);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Interner<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("items", &self.items)
            .finish()
    }
}

/// A growable bitset over identifier indices with a maintained popcount,
/// so evidence-threshold checks ("seen from `ℓ − t` distinct
/// identifiers") are O(1).
///
/// # Example
///
/// ```
/// use homonym_core::intern::IdBits;
///
/// let mut bits = IdBits::with_capacity(4);
/// assert!(bits.insert(2));
/// assert!(!bits.insert(2)); // already present
/// assert!(bits.insert(70)); // grows past the initial width
/// assert_eq!(bits.len(), 2);
/// assert!(bits.contains(70) && !bits.contains(0));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdBits {
    words: Vec<u64>,
    count: u32,
}

impl IdBits {
    /// An empty bitset with no preallocated width.
    pub fn new() -> Self {
        IdBits::default()
    }

    /// An empty bitset sized for indices `0..bits` (it still grows on
    /// demand past that — malformed identifiers must count as evidence
    /// exactly like the `BTreeSet` they replace, not panic).
    pub fn with_capacity(bits: usize) -> Self {
        IdBits {
            words: vec![0; bits.div_ceil(64)],
            count: 0,
        }
    }

    /// Inserts `index`; returns whether it was newly set.
    // Inlinable across crates: the route pass sets one bit per delivered
    // (cast, recipient) pair.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (index % 64);
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.count += 1;
        true
    }

    /// Whether `index` is set.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of set indices (maintained, not recounted).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no index is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears every index while keeping the allocated width — the
    /// reset-and-reuse half of an alloc-free scratch bitset (the engines'
    /// per-tick duplicate checks reuse one `IdBits` across rounds).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Iterates over the set indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_stable_and_dense() {
        let mut i: Interner<u32> = Interner::new();
        let toks: Vec<Tok> = (0..5).map(|v| i.intern(&(v * 10))).collect();
        assert_eq!(toks, vec![0, 1, 2, 3, 4]);
        for (k, tok) in toks.iter().enumerate() {
            assert_eq!(*i.resolve(*tok), k as u32 * 10);
            assert_eq!(i.get(&(k as u32 * 10)), Some(*tok));
        }
        assert_eq!(i.intern(&30), 3, "re-interning returns the same token");
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i: Interner<&'static str> = Interner::new();
        assert_eq!(i.get(&"x"), None);
        assert!(i.is_empty());
        let tok = i.intern(&"x");
        assert_eq!(i.get(&"x"), Some(tok));
    }

    #[test]
    fn bits_insert_contains_count() {
        let mut b = IdBits::with_capacity(10);
        for idx in [0usize, 3, 9, 63, 64, 129] {
            assert!(b.insert(idx), "first insert of {idx}");
            assert!(!b.insert(idx), "second insert of {idx}");
            assert!(b.contains(idx));
        }
        assert_eq!(b.len(), 6);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 3, 9, 63, 64, 129]);
        assert!(!b.contains(1));
        assert!(!b.contains(10_000));
    }

    #[test]
    fn clear_keeps_width_but_forgets_everything() {
        let mut b = IdBits::with_capacity(8);
        b.insert(3);
        b.insert(200);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(!b.contains(3) && !b.contains(200));
        assert!(b.insert(3), "cleared indices insert as new");
    }

    #[test]
    fn iter_walks_both_ends_of_a_word() {
        let mut b = IdBits::new();
        for idx in [63usize, 0, 127, 64] {
            b.insert(idx);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127]);
    }

    #[test]
    fn empty_bits() {
        let b = IdBits::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(!b.contains(0));
        assert_eq!(b.iter().count(), 0);
    }
}
