//! Offline stand-in for the `scoped_threadpool` crate: a **persistent**
//! worker pool whose jobs may borrow from the caller's stack.
//!
//! [`Pool::new`] spawns its worker threads once; every
//! [`Pool::scoped`] call after that only sends boxed jobs down per-worker
//! channels and waits on a completion latch — no thread spawn/join per
//! call. This is the amortization the `homonym_core::exec::Pool` executor
//! rides: the sharded engine scatters one batch of shard ticks per global
//! round, and with scoped threads (the previous implementation) every
//! round paid thread creation; here the threads persist for the life of
//! the pool.
//!
//! Like the real crate, the soundness story for borrowed jobs is the
//! rendezvous: [`Pool::scoped`] does not return until every job submitted
//! through its [`Scope`] has finished running, so borrows with the
//! scope's lifetime are dead only after the last job is done. The one
//! `unsafe` block in this crate erases the job's lifetime to `'static`
//! on the strength of that guarantee.
//!
//! Deviation from the real crate (documented in compat/README.md): a
//! panicking job does not poison the pool — the panic payload is caught
//! on the worker, carried back, and re-raised from `scoped` (lowest
//! submission index first) after every job of the scope has completed,
//! so the original panic message survives and the workers stay usable.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A boxed job after lifetime erasure, as shipped to a worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a worker receives: the job plus the latch of the scope it
/// belongs to, so completion (and any panic payload) is reported to the
/// right rendezvous.
struct Dispatch {
    index: usize,
    job: Job,
    latch: Arc<Latch>,
}

/// The per-scope rendezvous: counts completed jobs and collects panic
/// payloads, indexed by submission order.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    completed: usize,
    panics: Vec<(usize, Box<dyn std::any::Any + Send>)>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: Mutex::new(LatchState {
                completed: 0,
                panics: Vec::new(),
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, index: usize, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.completed += 1;
        if let Some(payload) = panic {
            state.panics.push((index, payload));
        }
        self.done.notify_all();
    }

    /// Blocks until `submitted` jobs have completed, then returns the
    /// panic payload with the smallest submission index, if any.
    fn wait(&self, submitted: usize) -> Option<Box<dyn std::any::Any + Send>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.completed < submitted {
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.panics.sort_by_key(|&(index, _)| index);
        if state.panics.is_empty() {
            None
        } else {
            Some(state.panics.remove(0).1)
        }
    }
}

/// A pool of persistent worker threads that can run borrowed closures
/// via [`Pool::scoped`].
///
/// # Example
///
/// ```
/// let mut pool = scoped_threadpool::Pool::new(2);
/// let mut data = vec![0u64; 4];
/// pool.scoped(|scope| {
///     for (i, slot) in data.iter_mut().enumerate() {
///         scope.execute(move || *slot = i as u64 * 10);
///     }
/// });
/// assert_eq!(data, vec![0, 10, 20, 30]);
/// ```
pub struct Pool {
    /// One channel per worker; jobs are dealt round-robin by submission
    /// index, so work placement is a pure function of (submission order,
    /// worker count) — reproducible, though unobservable in results.
    senders: Vec<Sender<Dispatch>>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool of `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: u32) -> Pool {
        assert!(threads > 0, "a pool needs at least one worker");
        let mut senders = Vec::with_capacity(threads as usize);
        let mut handles = Vec::with_capacity(threads as usize);
        for _ in 0..threads {
            let (tx, rx) = channel::<Dispatch>();
            senders.push(tx);
            handles.push(std::thread::spawn(move || {
                while let Ok(Dispatch { index, job, latch }) = rx.recv() {
                    let outcome = catch_unwind(AssertUnwindSafe(job));
                    latch.complete(index, outcome.err());
                }
            }));
        }
        Pool { senders, handles }
    }

    /// The number of worker threads.
    pub fn thread_count(&self) -> u32 {
        self.senders.len() as u32
    }

    /// Runs `f` with a [`Scope`] whose
    /// [`execute`](Scope::execute)d jobs may borrow anything that
    /// outlives the `scoped` call; blocks until every submitted job has
    /// finished before returning — **even if `f` itself panics** (the
    /// panic is caught, the rendezvous completes, then the panic is
    /// re-raised; unwinding past running jobs would let workers touch
    /// the caller's dying stack frames). If any job panicked, the first
    /// panic (by submission order) is re-raised here with its original
    /// payload.
    pub fn scoped<'pool, 'scope, F, R>(&'pool mut self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: &*self,
            latch: Arc::new(Latch::new()),
            submitted: Cell::new(0),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The rendezvous: no borrow handed to a job may be touched by a
        // worker after this wait returns. This MUST run before any
        // unwinding continues — it is what the `unsafe` lifetime
        // erasure in `execute` rests on.
        let job_panic = scope.latch.wait(scope.submitted.get());
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.senders.clear(); // close the channels; workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The job-submission handle passed to the closure of [`Pool::scoped`].
pub struct Scope<'pool, 'scope> {
    pool: &'pool Pool,
    latch: Arc<Latch>,
    submitted: Cell<usize>,
    /// Invariant in `'scope`, like the real crate, so the borrow checker
    /// cannot shrink the scope lifetime under the submitted jobs.
    _marker: PhantomData<Cell<&'scope mut ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Submits a job to the pool. The job may borrow data alive for
    /// `'scope`; it is guaranteed to have finished by the time the
    /// enclosing [`Pool::scoped`] call returns.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let index = self.submitted.get();
        self.submitted.set(index + 1);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the job only borrows data that outlives 'scope, and
        // `Pool::scoped` blocks on the latch until every submitted job
        // has completed before it returns — so the erased borrows are
        // never used after they die. This is the same join-before-return
        // argument the real `scoped_threadpool` (and crossbeam's scoped
        // threads) rest on.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        let worker = index % self.pool.senders.len();
        self.pool.senders[worker]
            .send(Dispatch {
                index,
                job,
                latch: Arc::clone(&self.latch),
            })
            .expect("pool workers outlive every scope");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_mutate_borrowed_slots() {
        let mut pool = Pool::new(3);
        let mut data = vec![0u64; 10];
        pool.scoped(|scope| {
            for (i, slot) in data.iter_mut().enumerate() {
                scope.execute(move || *slot = i as u64 + 1);
            }
        });
        assert_eq!(data, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_persist_across_scopes() {
        let mut pool = Pool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scoped(|scope| {
                for _ in 0..4 {
                    scope.execute(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(pool.thread_count(), 2);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let mut pool = Pool::new(1);
        let out = pool.scoped(|_| 7);
        assert_eq!(out, 7);
    }

    #[test]
    fn panic_payload_is_reraised_and_pool_survives() {
        let mut pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| {});
                scope.execute(|| panic!("job bug"));
                scope.execute(|| {});
            });
        }));
        let payload = result.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a message");
        assert!(message.contains("job bug"), "lost message: {message:?}");

        // The pool is still usable after a panicking scope.
        let done = AtomicUsize::new(0);
        pool.scoped(|scope| {
            scope.execute(|| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn closure_panic_still_waits_for_submitted_jobs() {
        // A panic in the scoped closure itself must not unwind past
        // running jobs (their borrows die with the caller's frames):
        // the job below must have fully completed by the time `scoped`
        // re-raises the closure's panic.
        let mut pool = Pool::new(2);
        let mut slot = 0u64;
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    slot = 7;
                });
                panic!("closure bug");
            });
        }));
        let payload = result.expect_err("the closure panic must propagate");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "closure bug");
        assert_eq!(slot, 7, "the job must have finished before the unwind");
    }

    #[test]
    fn first_panic_by_submission_order_wins() {
        let mut pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| panic!("first"));
                scope.execute(|| panic!("second"));
            });
        }));
        let payload = result.expect_err("panic expected");
        let message = payload.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*message, "first");
    }
}
