//! The Figure 5 bundle path's clone budget: in a steady-state round — no
//! `⟨init⟩` due, no direct items, echo set and proper set unchanged —
//! the protocol performs **zero** deep clones of payload values, on both
//! the send side (the cached bundle is re-shared through the fabric) and
//! the receive side (pointer-identical echo sets are skipped, evidence
//! updates are no-ops, proper-set inserts are guarded). The budget holds
//! for the faithful stack and for the bounded one alike.
//!
//! The probe value type counts its `Clone` invocations; the network is
//! driven by hand through `send_shared`/`Inbox::collect_shared` — the
//! exact seam the engines use — so every observed clone is the
//! protocol's own. It counts its comparisons too, which pins the bounded
//! stack's receive work to what the senders added, not to what they hold.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use homonyms::core::{
    Counting, Domain, Id, Inbox, Protocol, Round, SharedEnvelope, WireEncode, Writer,
};
use homonyms::psync::{BoundedAgreement, HomonymAgreement};

static CLONES: AtomicU64 = AtomicU64::new(0);
static COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// The counters are process-global, so the tests must not overlap (the
/// harness runs `#[test]`s on multiple threads by default); each test
/// holds this lock for its whole measurement.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[derive(Debug, PartialEq, Eq, Hash)]
struct Counted(u8);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        COMPARISONS.fetch_add(1, Ordering::Relaxed);
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl WireEncode for Counted {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

/// How a Figure 5 stack builds one process: `(n, ℓ, t, domain, id, input)`.
type Spawn<P> = fn(usize, usize, usize, Domain<Counted>, Id, Counted) -> P;

/// A full-delivery synchronous network of `n = ℓ = 4`, `t = 1` Figure 5
/// processes over `Counted` values, driven through the shared-handle
/// seam. Returns the number of `Counted` clones observed in each round
/// (sends + deliveries + receives of all processes).
fn clones_per_round<P: Protocol<Value = Counted>>(spawn: Spawn<P>, rounds: u64) -> Vec<u64> {
    let n = 4usize;
    let domain = Domain::new(vec![Counted(0), Counted(1)]);
    let mut procs: Vec<P> = (0..n)
        .map(|k| {
            spawn(
                n,
                n,
                1,
                domain.clone(),
                Id::from_index(k),
                Counted(k as u8 % 2),
            )
        })
        .collect();

    let mut per_round = Vec::new();
    for r in 0..rounds {
        let round = Round::new(r);
        let before = CLONES.load(Ordering::Relaxed);
        let outs: Vec<Arc<P::Msg>> = procs
            .iter_mut()
            .map(|p| p.send_shared(round).remove(0).1)
            .collect();
        let inboxes: Vec<Inbox<P::Msg>> = (0..n)
            .map(|_| {
                Inbox::collect_shared(
                    outs.iter()
                        .enumerate()
                        .map(|(j, b)| SharedEnvelope::shared(Id::from_index(j), Arc::clone(b))),
                    Counting::Innumerate,
                )
            })
            .collect();
        for (p, inbox) in procs.iter_mut().zip(&inboxes) {
            p.receive(round, inbox);
        }
        per_round.push(CLONES.load(Ordering::Relaxed) - before);
    }
    assert!(
        procs.iter().all(|p| p.decision().is_some()),
        "the clean run must decide"
    );
    per_round
}

/// Three full phases. Rounds with w = 3 (the round after the leader's
/// lock went out and before the vote superround) are the steady state:
/// every process re-sends its standing bundle and re-receives sets it
/// already counted.
fn assert_steady_state_clones_nothing<P: Protocol<Value = Counted>>(spawn: Spawn<P>) {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let per_round = clones_per_round(spawn, 8 * 3);
    let mut steady = Vec::new();
    for (r, &clones) in per_round.iter().enumerate() {
        if r % 8 == 3 && r >= 8 {
            steady.push((r, clones));
        }
    }
    assert!(!steady.is_empty());
    for (r, clones) in steady {
        assert_eq!(
            clones, 0,
            "steady-state round {r} deep-cloned {clones} payload values \
             (per-round profile: {per_round:?})"
        );
    }
}

#[test]
fn steady_state_rounds_clone_zero_payloads() {
    assert_steady_state_clones_nothing(HomonymAgreement::new);
}

#[test]
fn bounded_steady_state_rounds_clone_zero_payloads() {
    assert_steady_state_clones_nothing(BoundedAgreement::new);
}

#[test]
fn whole_run_clone_budget_is_bounded() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Not just the steady rounds: the whole 3-phase run's clone count
    // must stay far below one-per-(echo × receiver × round), the
    // pre-interning cost shape. 24 rounds × 4 procs with dozens of
    // standing echoes would exceed 10k clones on the old path; the
    // interned path pays only for genuine state changes.
    let per_round = clones_per_round(HomonymAgreement::new, 8 * 3);
    let total: u64 = per_round.iter().sum();
    assert!(
        total < 600,
        "whole-run clone budget blown: {total} ({per_round:?})"
    );
}

/// Work per new item: in a clean `n = ℓ = 4`, `t = 1` bounded run, the
/// rounds right after each phase's proposals are joined (w = 1) see every
/// sender's echo set grown by the same `d` items, on a standing set that
/// is larger each phase. `receive` must compare exactly as many payload
/// values in phase 3 as in phase 2: it scans what the senders added
/// (their bundles' scan hints), not the standing sets.
#[test]
fn bounded_receive_work_is_per_new_item_not_per_standing_item() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4usize;
    let domain = Domain::new(vec![Counted(0), Counted(1)]);
    let mut procs: Vec<BoundedAgreement<Counted>> = (0..n)
        .map(|k| {
            let input = Counted(k as u8 % 2);
            BoundedAgreement::new(n, n, 1, domain.clone(), Id::from_index(k), input)
        })
        .collect();
    // Per round: each process's echo-set size as sent, and the payload
    // comparisons all four `receive` calls made.
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    let mut compared: Vec<u64> = Vec::new();
    for r in 0..8 * 4 {
        let round = Round::new(r);
        sizes.push(procs.iter().map(BoundedAgreement::echoing_len).collect());
        let outs: Vec<_> = procs
            .iter_mut()
            .map(|p| p.send_shared(round).remove(0).1)
            .collect();
        let inbox = Inbox::collect_shared(
            outs.iter()
                .enumerate()
                .map(|(j, b)| SharedEnvelope::shared(Id::from_index(j), Arc::clone(b))),
            Counting::Innumerate,
        );
        let before = COMPARISONS.load(Ordering::Relaxed);
        for p in &mut procs {
            p.receive(round, &inbox);
        }
        compared.push(COMPARISONS.load(Ordering::Relaxed) - before);
    }
    assert!(procs.iter().all(|p| p.decision().is_some()));

    let (early, late) = (8 * 2 + 1, 8 * 3 + 1);
    let grown = |r: usize| -> Vec<usize> {
        sizes[r]
            .iter()
            .zip(&sizes[r - 1])
            .map(|(now, was)| now - was)
            .collect()
    };
    let d = grown(early)[0];
    assert!(d > 0, "the senders' sets must grow: {sizes:?}");
    assert_eq!(grown(early), vec![d; n], "{sizes:?}");
    assert_eq!(grown(late), vec![d; n], "{sizes:?}");
    assert!(
        sizes[late][0] > sizes[early][0],
        "the standing set must be larger in the later round: {sizes:?}"
    );
    assert_eq!(
        compared[early], compared[late],
        "receive compared {} payload values on {} standing items and {} on {} \
         (per-round profile: {compared:?})",
        compared[early], sizes[early][0], compared[late], sizes[late][0]
    );
}
