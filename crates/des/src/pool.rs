//! Persistent worker pool for the subslot-boundary shard sweep.
//!
//! [`ShardPool`] keeps `K − 1` condvar-parked worker threads alive for
//! the lifetime of a simulation, replacing the per-boundary
//! `std::thread::scope` fork/join: at hundreds of subslot boundaries
//! per simulated second, spawning and joining OS threads at every
//! barrier spends more wall time in the kernel than in the decide
//! work it parallelises. A pool run ([`ShardPool::scope_run`])
//! publishes a batch of borrowed tasks, wakes the parked workers,
//! participates in the claim loop itself, and returns only after the
//! last task has finished — the same structural guarantee
//! `std::thread::scope` gives, which is what makes lending
//! non-`'static` borrows to persistent threads sound.
//!
//! Determinism: the pool changes *where* tasks run, never *what* they
//! compute — each task owns disjoint mutable state and fills its own
//! outbox, and the caller's barrier fold ([`crate::merge_by_pos`])
//! replays commits in global bucket order regardless of which thread
//! decided which shard. The scenarios determinism suite asserts
//! bit-identity against the scoped fork/join path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A borrowed task: a fat pointer to a caller-owned closure with its
/// lifetime erased, so the (necessarily `'static`) worker threads can
/// reach it. Only created and dereferenced inside one
/// [`ShardPool::scope_run`] call, whose completion barrier keeps the
/// underlying borrow alive for exactly that window.
#[derive(Clone, Copy)]
struct RawTask(*mut (dyn FnMut() + Send));

// SAFETY: a `RawTask` is only minted from a `&mut` to a `Send`
// closure, and the claim protocol (an index increment under the state
// mutex) hands each task to exactly one thread, so moving the pointer
// across threads transfers unique access to a `Send` value.
#[allow(unsafe_code)]
unsafe impl Send for RawTask {}

/// Shared pool state, guarded by one mutex.
struct State {
    /// The published batch. Cleared by the owning `scope_run` after
    /// the completion barrier, so no pointer outlives its borrow.
    tasks: Vec<RawTask>,
    /// Next unclaimed task index.
    next: usize,
    /// Claimed-but-unfinished tasks — the barrier condition.
    pending: usize,
    /// A task panicked; re-raised on the caller after the barrier.
    panicked: bool,
    /// The pool is being dropped; workers exit.
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here between batches.
    work: Condvar,
    /// The caller parks here waiting for the completion barrier.
    done: Condvar,
}

/// A pool of condvar-parked worker threads executing borrowed task
/// batches with scope semantics (see the module docs).
pub struct ShardPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ShardPool {
    /// Spawns a pool of `threads` parked workers. Zero threads is
    /// valid: [`ShardPool::scope_run`] always participates on the
    /// calling thread, so the pool degrades to a sequential loop.
    pub fn new(threads: usize) -> ShardPool {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                tasks: Vec::new(),
                next: 0,
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                // qma-lint: allow(bare-thread) — ShardPool is the
                // sanctioned spawn site the rule points everyone at;
                // workers park on a condvar and die with the pool.
                std::thread::Builder::new()
                    .name(format!("qma-shard-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn shard pool worker")
            })
            .collect();
        ShardPool { inner, workers }
    }

    /// Number of parked worker threads (the caller adds one more lane
    /// during [`ShardPool::scope_run`]).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs every task to completion, fanned out over the pool's
    /// workers plus the calling thread, and returns only after the
    /// last one finished. That completion barrier is the scope
    /// guarantee letting tasks borrow from the caller's stack — the
    /// pool-based equivalent of `std::thread::scope`. Re-raises a
    /// panic on the caller if any task panicked. The published task
    /// list is refilled in place, so a steady stream of batches
    /// allocates nothing here.
    #[allow(unsafe_code)]
    pub fn scope_run<'a, F: FnMut() + Send + 'a>(&mut self, tasks: &'a mut [F]) {
        if tasks.is_empty() {
            return;
        }
        let total = tasks.len();
        {
            let mut st = self.inner.state.lock().expect("shard pool state poisoned");
            debug_assert!(st.tasks.is_empty() && st.pending == 0, "overlapping batch");
            st.tasks.extend(tasks.iter_mut().map(|t| {
                let p: *mut (dyn FnMut() + Send + 'a) = t;
                // SAFETY: transmuting a fat raw pointer only to widen
                // the trait object's lifetime bound; address and
                // vtable metadata are unchanged. The pointer is
                // dereferenced only while this call is on the stack
                // (enforced by the `pending == 0` barrier below),
                // during which the `&mut` it came from is live, and
                // `&mut self` excludes overlapping batches.
                RawTask(unsafe {
                    std::mem::transmute::<
                        *mut (dyn FnMut() + Send + 'a),
                        *mut (dyn FnMut() + Send + 'static),
                    >(p)
                })
            }));
            st.next = 0;
            st.pending = total;
            st.panicked = false;
            self.inner.work.notify_all();
        }
        // The caller is a claimant too: a K-task batch on a K − 1
        // worker pool keeps this thread deciding instead of parked.
        claim_loop(&self.inner);
        let mut st = self.inner.state.lock().expect("shard pool state poisoned");
        while st.pending > 0 {
            st = self.inner.done.wait(st).expect("shard pool state poisoned");
        }
        st.tasks.clear();
        let panicked = std::mem::take(&mut st.panicked);
        drop(st);
        if panicked {
            panic!("shard pool task panicked (worker backtrace above)");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.inner.state.lock() {
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Claims and runs published tasks until the batch is exhausted.
/// Shared by the workers and the calling thread.
#[allow(unsafe_code)]
fn claim_loop(inner: &Inner) {
    loop {
        let task = {
            let mut st = inner.state.lock().expect("shard pool state poisoned");
            if st.next >= st.tasks.len() {
                return;
            }
            let task = st.tasks[st.next];
            st.next += 1;
            task
        };
        // SAFETY: the index increment under the mutex hands this task
        // to the current thread exclusively, so the `&mut` below is
        // unique; the `scope_run` caller is blocked on the completion
        // barrier (`pending > 0` until the bookkeeping after this
        // call), so the closure the pointer targets is still live.
        let task_ref = unsafe { &mut *task.0 };
        let result = catch_unwind(AssertUnwindSafe(task_ref));
        let mut st = inner.state.lock().expect("shard pool state poisoned");
        if result.is_err() {
            st.panicked = true;
        }
        st.pending -= 1;
        if st.pending == 0 {
            inner.done.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        {
            let mut st = inner.state.lock().expect("shard pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.next < st.tasks.len() {
                    break;
                }
                st = inner.work.wait(st).expect("shard pool state poisoned");
            }
        }
        claim_loop(inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_task_exactly_once() {
        let mut pool = ShardPool::new(3);
        let mut counters = [0u32; 8];
        {
            let mut tasks: Vec<_> = counters.iter_mut().map(|c| move || *c += 1).collect();
            let mut refs: Vec<&mut (dyn FnMut() + Send)> = tasks
                .iter_mut()
                .map(|t| t as &mut (dyn FnMut() + Send))
                .collect();
            pool.scope_run(&mut refs);
        }
        assert_eq!(counters, [1; 8]);
    }

    #[test]
    fn reusable_across_many_batches() {
        // The point of the pool: many boundary barriers on one set of
        // threads. Also covers batches larger and smaller than the
        // worker count, and the empty batch.
        let mut pool = ShardPool::new(2);
        let mut total = [0u64; 5];
        pool.scope_run::<fn()>(&mut []);
        for round in 0..100u64 {
            let mut tasks: Vec<_> = total
                .iter_mut()
                .map(|slot| move || *slot += round)
                .collect();
            let mut refs: Vec<&mut (dyn FnMut() + Send)> = tasks
                .iter_mut()
                .map(|t| t as &mut (dyn FnMut() + Send))
                .collect();
            pool.scope_run(&mut refs);
        }
        let expected: u64 = (0..100).sum();
        assert!(total.iter().all(|&t| t == expected));
    }

    #[test]
    fn zero_thread_pool_degrades_to_caller_only() {
        let mut pool = ShardPool::new(0);
        assert_eq!(pool.threads(), 0);
        let mut hits = 0u32;
        let mut task = || hits += 1;
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut task];
        pool.scope_run(&mut refs);
        assert_eq!(hits, 1);
    }

    #[test]
    fn task_panic_reaches_the_caller_and_pool_survives() {
        let mut pool = ShardPool::new(2);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut boom = || panic!("task exploded");
            let mut fine = || {};
            let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut boom, &mut fine];
            pool.scope_run(&mut refs);
        }));
        assert!(attempt.is_err(), "panic must propagate to the caller");
        // The pool must stay usable after a panicked batch.
        let mut hits = 0u32;
        let mut task = || hits += 1;
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut task];
        pool.scope_run(&mut refs);
        assert_eq!(hits, 1);
    }
}
