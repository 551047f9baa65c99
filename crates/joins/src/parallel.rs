//! Fork-join over one process-wide pool of kernel threads.
//!
//! The paper's join phases use all four cores of the testbed machines; our
//! implementations take an explicit thread count (cyclo-join's §V-G
//! experiment varies it from 1 to 4) and split work into per-thread shards
//! that are joined at the end.
//!
//! Shards run on a pool of `available_parallelism()` worker threads that
//! is started on first use and lives for the rest of the process, so a
//! fragment visit pays a queue push and a wake-up, not a thread spawn per
//! shard. The calling thread claims and runs shards too. A fork therefore
//! always completes even when every pool worker is busy — including a
//! fork nested inside a pool shard, or many ring hosts forking at once —
//! and the busy callers are the only extra threads competing for cores.
//!
//! Work below [`GRAIN`] tuples is not worth a dispatch: [`shards_for`] is
//! the one place every kernel asks how many shards to use, and it answers
//! 1 for small work, which [`fork_join`] runs inline. That also keeps
//! single-threaded runs exactly deterministic in profilers.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Tuples a kernel must touch before it forks at all.
///
/// Chosen from the `hash_visit_*` sweep of `cargo xtask bench` (see
/// EXPERIMENTS.md): at 1k probe tuples one inline hash visit beats the
/// same visit forked four ways onto the pool, at 4k the fork wins.
pub const GRAIN: usize = 4 * 1024;

/// How many shards a kernel touching `work` tuples should split into
/// with `threads` available: 1 (inline) below [`GRAIN`], else `threads`.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn shards_for(work: usize, threads: usize) -> usize {
    assert!(threads > 0, "a join needs at least one thread");
    if work < GRAIN {
        1
    } else {
        threads
    }
}

/// Runs `worker(shard_index)` for every shard in `0..threads` and returns
/// all results in shard order. `threads == 1` runs inline; otherwise the
/// shards are shared between the calling thread and the kernel pool.
///
/// # Panics
///
/// Panics if `threads` is zero. If any shard panics, the first panic is
/// re-raised in the caller once every shard has finished; the pool's
/// workers survive it.
pub fn fork_join<T, F>(threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "fork_join needs at least one thread");
    if threads == 1 {
        return vec![worker(0)];
    }
    let slots: Vec<Mutex<Option<T>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let run = |shard: usize| {
        let out = worker(shard);
        if let Some(slot) = slots.get(shard) {
            *lock(slot) = Some(out);
        }
    };
    let task: *const (dyn Fn(usize) + Sync + '_) = &run;
    // SAFETY: only the lifetime is erased; the pointer stays valid for as
    // long as any thread can call through it. Pool threads call it only
    // for a shard index they claimed below `threads`, and this function
    // does not return or unwind until all `threads` shards have finished:
    // `work` catches every shard's panic, and `wait` blocks on the finish
    // count. A ticket a worker picks up after that holds only an `Arc` of
    // the batch, finds every shard claimed and never touches the pointer.
    let task = Task(unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(task)
    });
    let batch = Arc::new(Batch {
        task,
        shards: threads,
        next: AtomicUsize::new(0),
        state: Mutex::new(BatchState::default()),
        finished: Condvar::new(),
    });
    pool().offer(&batch, threads - 1);
    batch.work();
    if let Some(payload) = batch.wait() {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every shard stores its result unless it panicked")
        })
        .collect()
}

/// Splits `len` items into `shards` contiguous ranges of near-equal size.
/// Empty ranges appear when `shards > len`.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Locks a mutex that no code panics while holding (shards run outside
/// every lock here), so a poisoned guard can never carry a half-done
/// update and is safe to take over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shard runner borrowed from a [`fork_join`] frame, lifetime erased.
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from any thread is sound
// while it is alive; `fork_join` keeps it alive while any shard can still
// be claimed (see the erasure above). Sending or sharing the pointer
// itself carries no other state.
unsafe impl Send for Task {}
// SAFETY: as for `Send`: shared access only ever calls the `Sync` pointee.
unsafe impl Sync for Task {}

/// One `fork_join` call: its shards, the claim counter and the finish
/// count the caller waits on.
struct Batch {
    task: Task,
    shards: usize,
    /// Next unclaimed shard. The counter only hands out indices; shard
    /// inputs are published through the pool queue's mutex and results
    /// through the slot and state mutexes, so `Relaxed` suffices.
    next: AtomicUsize,
    state: Mutex<BatchState>,
    finished: Condvar,
}

#[derive(Default)]
struct BatchState {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Claims and runs shards until none are left, catching panics.
    fn work(&self) {
        loop {
            let shard = self.next.fetch_add(1, Ordering::Relaxed);
            if shard >= self.shards {
                return;
            }
            // SAFETY: `shard < self.shards` was claimed by this thread, so
            // the owning `fork_join` is still blocked in `wait` and the
            // task is alive (see the erasure in `fork_join`).
            let task = unsafe { &*self.task.0 };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(shard)));
            let mut state = lock(&self.state);
            state.done += 1;
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            if state.done == self.shards {
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every shard has finished; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = lock(&self.state);
        while state.done < self.shards {
            state = self
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    }
}

/// The process-wide kernel pool: a queue of batch tickets and the
/// workers that drain it.
struct Pool {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    ready: Condvar,
    workers: usize,
}

/// The pool, started on first use with one worker per available core.
/// Workers are never joined: they live as long as the process, and every
/// shard panic is caught inside [`Batch::work`], so none is hidden. A
/// worker that cannot be spawned is simply absent; callers then run more
/// of their own shards.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            workers: cores,
        }));
        for i in 0..cores {
            let _ = std::thread::Builder::new()
                .name(format!("join-pool-{i}"))
                .spawn(move || pool.serve());
        }
        pool
    })
}

impl Pool {
    /// Offers `batch` to up to `helpers` idle workers.
    fn offer(&self, batch: &Arc<Batch>, helpers: usize) {
        let tickets = helpers.min(self.workers);
        if tickets == 0 {
            return;
        }
        lock(&self.queue).extend((0..tickets).map(|_| Arc::clone(batch)));
        if tickets == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// A worker's loop: take a ticket, help with its batch, repeat.
    fn serve(&self) {
        loop {
            let batch = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(batch) = queue.pop_front() {
                        break batch;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            batch.work();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_returns_in_shard_order() {
        let results = fork_join(4, |i| i * 10);
        assert_eq!(results, vec![0, 10, 20, 30]);
        let results = fork_join(37, |i| i);
        assert_eq!(results, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn fork_join_single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let results = fork_join(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
            "inline"
        });
        assert_eq!(results, vec!["inline"]);
    }

    #[test]
    fn fork_join_actually_parallelizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        fork_join(8, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = fork_join(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn panicking_shard_panics_the_caller() {
        let _ = fork_join(4, |i| {
            assert_ne!(i, 2, "shard 2 failed");
            i
        });
    }

    #[test]
    fn pool_survives_a_panicking_shard() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            fork_join(4, |i| {
                assert_ne!(i, 1, "shard 1 failed");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(outcome.is_err());
        // Every other shard still ran to completion before the re-raise.
        assert_eq!(finished.load(Ordering::SeqCst), 3);
        for _ in 0..20 {
            assert_eq!(fork_join(4, |i| i + 1), vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn nested_fork_join_completes() {
        let results = fork_join(4, |outer| fork_join(4, |inner| outer * 4 + inner));
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_complete() {
        let barrier = std::sync::Barrier::new(8);
        let sums: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..50)
                            .map(|_| fork_join(4, |i| t + i).into_iter().sum::<usize>())
                            .sum()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        for (t, sum) in sums.into_iter().enumerate() {
            assert_eq!(sum, 50 * (4 * t + 6));
        }
    }

    #[test]
    fn shards_for_runs_small_work_inline() {
        assert_eq!(shards_for(0, 4), 1);
        assert_eq!(shards_for(GRAIN - 1, 4), 1);
        assert_eq!(shards_for(GRAIN, 4), 4);
        assert_eq!(shards_for(100 * GRAIN, 4), 4);
        assert_eq!(shards_for(100 * GRAIN, 1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn shards_for_rejects_zero_threads() {
        let _ = shards_for(GRAIN, 0);
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        let ranges = shard_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = shard_ranges(2, 4);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(ranges.len(), 4);
    }

    #[test]
    fn shard_ranges_empty_input() {
        let ranges = shard_ranges(0, 3);
        assert!(ranges.iter().all(|r| r.is_empty()));
    }
}
