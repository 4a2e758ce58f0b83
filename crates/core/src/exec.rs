//! The tick executor: the seam that fans independent per-shard and
//! per-chunk work out across cores.
//!
//! The sharded engine (`homonym_sim::shards::ShardedSimulation`) advances
//! K independent agreement instances one round per global tick, and
//! within a tick the shards are embarrassingly parallel: each owns its
//! cast list and routing plan and never reads another shard's state. The
//! solo `Simulation` splits one instance's send and receive phases into
//! disjoint pid chunks the same way. An [`Executor`] abstracts *how* such
//! a batch of independent steps runs:
//!
//! * [`Sequential`] — in task order on the calling thread (the original
//!   single-threaded schedule, and the default);
//! * [`Pool`] — on `workers` **persistent** threads (spawned once per
//!   pool, not once per tick), tasks dealt round-robin, results merged
//!   back **in task order** so every observable (traces, decisions,
//!   reports) is byte-identical to [`Sequential`] at any worker count.
//!   `tests/shard_isolation.rs` property-tests this and
//!   `tests/fabric_golden.rs` pins it against the sequential golden
//!   digests.
//!
//! Executors promise nothing about *interleaving*, only about result
//! order — callers must hand them tasks that are independent (each task
//! owns `&mut` access to disjoint data, e.g. one pid chunk of one
//! instance's processes).
//!
//! Later backends (async runtimes, multi-backend routing) are expected to
//! reuse this boundary rather than re-invent per-engine threading.

/// Splits `0..len` into at most `chunks` contiguous, non-empty,
/// balanced ranges (the first `len % chunks` ranges get one extra item).
/// Fewer ranges come back when `len < chunks`; an empty input yields no
/// ranges at all.
///
/// This is the work-partitioning helper behind intra-instance
/// parallelism: the chunk boundaries depend only on `(len, chunks)`, so
/// a chunk-then-merge pipeline produces the same ordered output no
/// matter how the chunks are scheduled.
///
/// # Example
///
/// ```
/// use homonym_core::exec::chunk_ranges;
///
/// assert_eq!(chunk_ranges(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(chunk_ranges(2, 4), vec![0..1, 1..2]); // never empty ranges
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let mut ranges = Vec::with_capacity(chunks);
    let (base, extra) = (len / chunks, len % chunks);
    let mut start = 0;
    for i in 0..chunks {
        let width = base + usize::from(i < extra);
        ranges.push(start..start + width);
        start += width;
    }
    ranges
}

/// Runs a tick's batch of independent tasks, returning their results in
/// task order.
///
/// # Determinism contract
///
/// `scatter` must return `results[i] == tasks[i]()` for every `i`, as if
/// the tasks had run sequentially — implementations may overlap task
/// *execution* arbitrarily but must not let the schedule leak into the
/// results. Combined with task independence (disjoint `&mut` data), this
/// makes every engine built on an executor schedule-oblivious.
pub trait Executor {
    /// How many tasks this executor may run concurrently (1 for
    /// [`Sequential`]). Engines may use this to size scratch pools.
    fn workers(&self) -> usize;

    /// Runs every task to completion and returns their outputs in task
    /// order.
    fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send;
}

/// The single-threaded executor: tasks run in order on the calling
/// thread. This is the default for both lock-step engines and the
/// behavioural reference for every other executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sequential;

impl Executor for Sequential {
    fn workers(&self) -> usize {
        1
    }

    fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        tasks.into_iter().map(|task| task()).collect()
    }
}

/// The thread-pool executor: a **persistent** set of `workers` threads
/// (spawned once, in [`Pool::new`], via the `scoped_threadpool` stand-in)
/// that each `scatter` deals its tasks onto round-robin. Tasks may borrow
/// the caller's data — which is what lets engines hand workers `&mut`
/// views of live shard state without `'static` gymnastics or locks —
/// because every `scatter` blocks until its last task finishes. Results
/// come back over a `crossbeam-channel` and are reordered by task index,
/// so output is byte-identical to [`Sequential`].
///
/// Earlier versions spawned fresh scoped threads per `scatter`; the
/// lock-step engines scatter every round, so that paid thread
/// creation every round. The persistent pool amortizes the spawn to once
/// per `Pool`.
///
/// A panic in any task propagates to the caller once every task of the
/// batch has finished (the first panicking task's payload — by
/// submission order — is re-raised with
/// [`resume_unwind`](std::panic::resume_unwind), so the original panic
/// message survives — engine contract violations stay diagnosable under
/// the pool; which sibling tasks had already run is not specified). The
/// pool itself survives and can run further batches.
///
/// Cloning a `Pool` shares the same worker threads (the underlying pool
/// sits behind an `Arc<Mutex<…>>`; `scatter` holds the lock for the
/// duration of the batch, so concurrent scatters from clones serialize).
/// Do **not** call `scatter` from inside a task of the same pool (or a
/// clone of it) — the inner call would block on the mutex the outer
/// batch holds until its last task finishes, which is a deadlock. Nested
/// fan-out needs a second, independent `Pool` (the engines never nest:
/// one scatter per global tick).
///
/// # Example
///
/// ```
/// use homonym_core::exec::{Executor, Pool, Sequential};
///
/// let data = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
/// let tasks = |d: &Vec<u64>| {
///     d.iter()
///         .map(|&x| move || x * x)
///         .collect::<Vec<_>>()
/// };
/// let seq = Sequential.scatter(tasks(&data));
/// let pooled = Pool::new(3).scatter(tasks(&data));
/// assert_eq!(seq, pooled); // same results, same order
/// ```
#[derive(Clone)]
pub struct Pool {
    workers: usize,
    inner: std::sync::Arc<std::sync::Mutex<scoped_threadpool::Pool>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Pool {
    /// An executor running tasks on `workers` persistent threads
    /// (spawned here, reused by every `scatter`).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (use [`Sequential`] for one-thread
    /// semantics without the pool machinery; `Pool::new(1)` is also
    /// valid and runs tasks on the caller's thread).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let threads = u32::try_from(workers).expect("worker count fits in u32");
        Pool {
            workers,
            inner: std::sync::Arc::new(std::sync::Mutex::new(scoped_threadpool::Pool::new(
                threads,
            ))),
        }
    }
}

impl Executor for Pool {
    fn workers(&self) -> usize {
        self.workers
    }

    fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if self.workers <= 1 || tasks.len() <= 1 {
            return Sequential.scatter(tasks);
        }

        let task_count = tasks.len();
        let mut results: Vec<Option<T>> = (0..task_count).map(|_| None).collect();
        let (result_tx, result_rx) = crossbeam_channel::unbounded::<(usize, T)>();
        {
            // A poisoned mutex only means an earlier batch panicked
            // after its rendezvous; the worker threads are intact.
            let mut pool = self
                .inner
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // `scoped` blocks until every task has run and re-raises the
            // first task panic with its original payload.
            pool.scoped(|scope| {
                for (index, task) in tasks.into_iter().enumerate() {
                    let result_tx = result_tx.clone();
                    scope.execute(move || {
                        result_tx
                            .send((index, task()))
                            .expect("scatter collector outlives workers");
                    });
                }
            });
        }
        drop(result_tx);
        while let Ok((index, value)) = result_rx.try_recv() {
            results[index] = Some(value);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every task produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn square_tasks(data: &[u64]) -> Vec<impl FnOnce() -> u64 + Send + '_> {
        data.iter().map(|&x| move || x * x).collect()
    }

    #[test]
    fn sequential_runs_in_order() {
        let order = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..5)
            .map(|i| {
                let order = &order;
                move || {
                    assert_eq!(order.fetch_add(1, Ordering::SeqCst), i);
                    i
                }
            })
            .collect();
        assert_eq!(Sequential.scatter(tasks), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_matches_sequential_at_every_worker_count() {
        let data: Vec<u64> = (0..23).collect();
        let expected = Sequential.scatter(square_tasks(&data));
        for workers in [1, 2, 3, 7, 32] {
            assert_eq!(
                Pool::new(workers).scatter(square_tasks(&data)),
                expected,
                "worker count {workers}"
            );
        }
    }

    #[test]
    fn pool_handles_empty_and_singleton_batches() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(Pool::new(4).scatter(empty).is_empty());
        assert_eq!(Pool::new(4).scatter(vec![|| 9u8]), vec![9]);
    }

    #[test]
    fn pool_tasks_mutate_disjoint_borrows() {
        let mut buckets = vec![0u64; 6];
        let tasks: Vec<_> = buckets
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| move || *slot = i as u64 * 10)
            .collect();
        Pool::new(3).scatter(tasks);
        assert_eq!(buckets, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        Pool::new(0);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in 0..40usize {
            for chunks in 1..10usize {
                let ranges = chunk_ranges(len, chunks);
                assert!(ranges.len() <= chunks);
                assert!(ranges.iter().all(|r| !r.is_empty()), "{len}/{chunks}");
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{len}/{chunks}");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "balanced: {len}/{chunks}");
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_zero_chunks_is_clamped() {
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
        assert!(chunk_ranges(0, 0).is_empty());
    }

    #[test]
    fn pool_propagates_task_panics_with_their_message() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).scatter(
                (0..4)
                    .map(|i| move || assert_ne!(i, 2, "task bug"))
                    .collect::<Vec<_>>(),
            )
        });
        let payload = result.expect_err("the task panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(
            message.contains("task bug"),
            "original message lost: {message:?}"
        );
    }
}
