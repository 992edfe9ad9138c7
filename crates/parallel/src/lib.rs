//! Tiny std-only data parallelism for the workspace's hot loops.
//!
//! The build environment has no crates.io access, so `rayon` is not an
//! option; this crate provides the chunked parallel-map shapes the
//! workspace actually needs, in two execution flavours:
//!
//! * [`parallel_map`] — map a function over a shared slice, collecting
//!   outputs in input order (used by the experiment sweeps, where each item
//!   is a whole policy evaluation);
//! * [`map_chunks_mut`] — hand each worker a contiguous mutable chunk of a
//!   slice plus the chunk's start offset, collecting one output per chunk in
//!   chunk order (used by the Monte Carlo arrival sampler, where each chunk
//!   is a block of replication paths with per-path RNG state);
//! * [`WorkerPool`] — a **persistent** set of worker threads that park
//!   between calls, for serving loops that fan out every round and cannot
//!   afford a spawn/join per round: [`WorkerPool::parallel_map`] (the
//!   online fleet's checkpoint sharding) and [`WorkerPool::for_each`], one
//!   queued job per item that idle threads pull as they free up (the
//!   fleet's round pass over fixed-size tenant blocks).
//!
//! All helpers run inline (no threads involved) when a single worker would
//! do, so callers can use them unconditionally. None changes results
//! versus a serial run: **chunking depends only on the caller's worker
//! budget and the item count — never on how many OS threads actually
//! execute the chunks** — outputs are ordered by input position, and
//! callers that need randomness are expected to derive *per-item*
//! deterministic RNG streams. That makes the outcome independent of both
//! the worker count and the execution flavour (scoped spawn vs pool) — the
//! determinism contract the fixed-seed figure binaries and the online
//! fleet rely on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// Whether the current thread is one of this crate's workers. Nested
    /// fan-outs would oversubscribe the machine (each of c outer workers
    /// spawning c inner ones), so [`available_threads`] reports 1 inside a
    /// worker and nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads worth spawning from the current thread:
/// `std::thread::available_parallelism` (1 when unknown), or 1 when already
/// running inside a [`parallel_map`]/[`map_chunks_mut`] worker — the cores
/// are busy with the outer fan-out.
pub fn available_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Apply `f` to every element of `items` across at most `max_threads`
/// scoped worker threads, returning the outputs in input order.
///
/// The slice is split into one contiguous chunk per worker. With
/// `max_threads <= 1`, fewer than two items, or when already running inside
/// one of this crate's workers (nested fan-out), the map runs inline on the
/// calling thread. A panic in `f` propagates to the caller.
pub fn parallel_map<T, U, F>(items: &[T], max_threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = worker_budget(max_threads, items.len());
    if workers == 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    chunk.iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Split `items` into at most `max_threads` contiguous chunks and apply
/// `f(chunk_start, chunk)` to each on its own scoped thread, returning the
/// per-chunk outputs in chunk order.
///
/// `chunk_start` is the offset of the chunk's first element within `items`,
/// so workers can address sibling storage (e.g. scatter rows into a shared
/// matrix once the map returns). With `max_threads <= 1`, fewer than two
/// items, or inside one of this crate's workers (nested fan-out), the
/// single chunk is processed inline. A panic in `f` propagates to the
/// caller.
pub fn map_chunks_mut<T, U, F>(items: &mut [T], max_threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> U + Sync,
{
    let workers = worker_budget(max_threads, items.len());
    if workers == 1 {
        return vec![f(0, items)];
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    let mut out = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, chunk)| {
                scope.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    f(i * chunk_len, chunk)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => out.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Effective worker count for a fan-out over `items` elements: the caller's
/// budget, bounded by the item count, forced to 1 inside a nested worker.
fn worker_budget(max_threads: usize, items: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    max_threads.min(items).max(1)
}

/// A lifetime-erased job queued on the pool. Soundness: every batch
/// submitter blocks until all of its jobs have completed before returning,
/// so the borrows a job captures always outlive its execution.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a job is queued or shutdown is requested.
    job_ready: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Completion tracking for one submitted batch of jobs.
struct BatchSync {
    state: Mutex<BatchState>,
    done: Condvar,
}

/// A caught panic payload.
type Panic = Box<dyn std::any::Any + Send>;

struct BatchState {
    remaining: usize,
    /// The panic of the lowest-indexed panicking job, with that index,
    /// kept verbatim so the submitting call re-raises the *original* panic
    /// (message included) instead of a generic marker — supervisors above
    /// the pool match on the payload. Keyed on the job index rather than
    /// on completion order, so which panic surfaces does not depend on
    /// thread timing.
    panic: Option<(usize, Panic)>,
}

impl BatchSync {
    fn new(jobs: usize) -> Self {
        Self {
            state: Mutex::new(BatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, index: usize, panicked: Option<Panic>) {
        let mut state = self.state.lock().expect("pool batch lock poisoned");
        state.remaining -= 1;
        if let Some(payload) = panicked {
            keep_lowest(&mut state.panic, index, payload);
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every job of the batch has run; then propagate the
    /// lowest-indexed job's panic (original payload) to the submitter.
    fn wait(&self) {
        let mut state = self.state.lock().expect("pool batch lock poisoned");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("pool batch lock poisoned");
        }
        if let Some((_, payload)) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Keep the panic of the lower-indexed job in `slot`.
fn keep_lowest(slot: &mut Option<(usize, Panic)>, index: usize, payload: Panic) {
    if slot.as_ref().is_none_or(|(kept, _)| index < *kept) {
        *slot = Some((index, payload));
    }
}

/// One-shot output slot written by exactly one pool job and read by the
/// submitter after the batch barrier; the barrier's mutex/condvar pair
/// provides the happens-before edge.
struct Slot<U>(std::cell::UnsafeCell<Option<U>>);

// SAFETY: each slot is written by exactly one job and only read after the
// batch barrier has observed that job's completion.
unsafe impl<U: Send> Sync for Slot<U> {}

impl<U> Slot<U> {
    fn new() -> Self {
        Slot(std::cell::UnsafeCell::new(None))
    }

    /// Store the job's output. Called exactly once, from the one job that
    /// owns this slot.
    fn put(&self, value: U) {
        // SAFETY: single writer (see type docs); no concurrent reader until
        // the batch barrier passes.
        unsafe { *self.0.get() = Some(value) };
    }

    fn take(self) -> U {
        self.0
            .into_inner()
            .expect("pool job completed without writing its slot")
    }
}

/// A persistent pool of worker threads for round-based fan-outs.
///
/// [`parallel_map`]/[`map_chunks_mut`] spawn and join scoped threads on
/// every call — fine for one-shot sweeps, but a serving loop that fans out
/// every round pays the spawn/teardown on its critical path each time. A
/// `WorkerPool` keeps its threads alive and **parked** (condvar wait)
/// between calls; a round submits its jobs, the workers wake, run them,
/// and park again.
///
/// Guarantees:
///
/// * **Bit-identical outputs.** [`WorkerPool::parallel_map`] uses the
///   *same chunking* as the free function for a given `(worker budget,
///   item count)`, and [`WorkerPool::for_each`] runs exactly the items it
///   is given — the number of pool threads only changes which OS thread
///   runs a job, never what the jobs are or where outputs land.
/// * **Inline degradation.** A budget of 1 (or nested use inside any of
///   this crate's workers) runs inline on the caller, exactly like the free
///   functions; a pool built with `threads <= 1` never spawns at all.
/// * **No oversubscription.** Pool threads mark themselves as workers, so
///   nested fan-outs inside a job collapse to inline execution.
/// * **Panic propagation.** A panicking job poisons only its batch: every
///   other job of the batch still runs, then the submitting call re-raises
///   the lowest-indexed panicking job's *original* payload, and the pool
///   stays usable. Supervisors above the pool (the fleet's round boundary)
///   rely on the payload surviving verbatim to report what actually died.
///
/// Threads are spawned lazily on first use and joined on [`Drop`]. The pool
/// is `Sync`: submissions from multiple threads are safe (each batch tracks
/// its own completion), though the intended shape is one serving loop per
/// pool.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Thread count; threads are spawned lazily up to it.
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field(
                "spawned_threads",
                &self.handles.lock().map(|h| h.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl WorkerPool {
    /// Create a pool that will run jobs on up to `threads` persistent
    /// worker threads (spawned lazily on first use). `threads <= 1` makes
    /// every call run inline on the caller — no threads are ever spawned.
    pub fn new(threads: usize) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
            }),
            threads,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The pool's thread count (the cap on concurrently executing jobs).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawn the workers not yet spawned; returns how many exist.
    fn ensure_spawned(&self) -> usize {
        if self.threads <= 1 {
            return 0;
        }
        let mut handles = self.handles.lock().expect("pool handle lock poisoned");
        while handles.len() < self.threads {
            let shared = Arc::clone(&self.shared);
            let index = handles.len();
            let handle = std::thread::Builder::new()
                .name(format!("robustscaler-pool-{index}"))
                .spawn(move || Self::worker_loop(&shared))
                .expect("failed to spawn pool worker thread");
            handles.push(handle);
        }
        handles.len()
    }

    fn worker_loop(shared: &PoolShared) {
        // Pool threads are workers for their whole life: nested fan-outs
        // inside a job must run inline rather than oversubscribe.
        IN_WORKER.with(|flag| flag.set(true));
        loop {
            let job = {
                let mut queue = shared.queue.lock().expect("pool queue lock poisoned");
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = shared
                        .job_ready
                        .wait(queue)
                        .expect("pool queue lock poisoned");
                }
            };
            // The job's own wrapper (see `run_batch`) catches panics and
            // reports completion, so the loop body cannot unwind.
            job();
        }
    }

    /// Run `jobs` to completion, on pool threads when any exist, inline
    /// otherwise. Blocks until every job has finished — this barrier is
    /// what makes the lifetime erasure of the jobs' borrows sound. Every
    /// job runs even when an earlier one panics, in both flavours; the
    /// lowest-indexed job's panic is then re-raised.
    fn run_batch<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        if self.ensure_spawned() == 0 {
            // Inline flavour: same jobs, same order, caller's thread.
            let mut panic = None;
            for (index, job) in jobs.into_iter().enumerate() {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                    keep_lowest(&mut panic, index, payload);
                }
            }
            if let Some((_, payload)) = panic {
                std::panic::resume_unwind(payload);
            }
            return;
        }
        let batch = Arc::new(BatchSync::new(jobs.len()));
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock poisoned");
            for (index, job) in jobs.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).err();
                    batch.complete(index, outcome);
                });
                // SAFETY: `wait()` below blocks until every job of this
                // batch has completed, so all borrows captured in `wrapped`
                // (lifetime `'env`) strictly outlive its execution; the
                // transmute only erases that lifetime, layout is identical.
                let wrapped: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped) };
                queue.jobs.push_back(wrapped);
            }
            self.shared.job_ready.notify_all();
        }
        batch.wait();
    }

    /// Run `f(index, item)` for every item of `items`, one job per item
    /// on the pool's queue, and block until all have run.
    ///
    /// Idle pool threads pull the next queued item as soon as they finish
    /// one, so uneven items balance across the threads instead of leaving
    /// one idle behind a slow static chunk; a pool of one thread runs the
    /// items inline, in order. What an item is — and therefore what the
    /// output is — never depends on the thread count: callers hand in
    /// fixed-size blocks of their data (with any per-block output slots
    /// zipped in) and write results in place. Every item runs even when
    /// another panics; the lowest-indexed item's panic is then re-raised.
    pub fn for_each<I, F>(&self, items: I, f: F)
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let f = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| Box::new(move || f(index, item)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.run_batch(jobs);
    }

    /// [`parallel_map`] on the pool's persistent threads: apply `f` to
    /// every element of `items` across at most `max_workers` contiguous
    /// chunks, returning the outputs in input order. Bit-identical to the
    /// free function for the same budget and items.
    pub fn parallel_map<T, U, F>(&self, items: &[T], max_workers: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let workers = worker_budget(max_workers, items.len());
        if workers == 1 {
            return items.iter().map(&f).collect();
        }
        let chunk_len = items.len().div_ceil(workers);
        let chunk_count = items.len().div_ceil(chunk_len);
        let slots: Vec<Slot<Vec<U>>> = (0..chunk_count).map(|_| Slot::new()).collect();
        let f = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks(chunk_len)
            .zip(slots.iter())
            .map(|(chunk, slot)| {
                Box::new(move || slot.put(chunk.iter().map(f).collect()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_batch(jobs);
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            out.extend(slot.take());
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock poisoned");
            queue.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handle lock poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_at_least_one_thread() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn parallel_map_matches_serial_in_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 7, 16, 1_000, 5_000] {
            let parallel = parallel_map(&items, threads, |&x| x * x + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[42], 4, |&x| x + 1), vec![43]);
    }

    #[test]
    fn map_chunks_mut_mutates_every_element_once() {
        for threads in [1, 2, 5, 64] {
            let mut items: Vec<usize> = vec![0; 257];
            let chunk_info = map_chunks_mut(&mut items, threads, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = start + i;
                }
                (start, chunk.len())
            });
            // Every element holds its own index: each was visited exactly
            // once with the correct offset.
            assert!(items.iter().enumerate().all(|(i, &v)| v == i));
            // Chunks are contiguous, ordered and cover the slice.
            let mut expected_start = 0;
            for (start, len) in chunk_info {
                assert_eq!(start, expected_start);
                expected_start += len;
            }
            assert_eq!(expected_start, items.len());
        }
    }

    #[test]
    fn nested_fan_outs_run_inline_in_workers() {
        // Inside a worker, the thread budget collapses to 1 so a nested
        // parallel_map cannot oversubscribe the machine — and results are
        // unchanged either way.
        let items: Vec<u32> = (0..64).collect();
        let nested = parallel_map(&items, 8, |&x| {
            assert_eq!(available_threads(), 1);
            let inner: Vec<u32> = (0..4).collect();
            parallel_map(&inner, 8, move |&y| x * 10 + y)
        });
        for (x, inner) in nested.iter().enumerate() {
            let expected: Vec<u32> = (0..4).map(|y| x as u32 * 10 + y).collect();
            assert_eq!(inner, &expected);
        }
        // Back on the caller thread the full budget is visible again.
        assert!(available_threads() >= 1);
    }

    #[test]
    fn map_chunks_mut_runs_inline_on_one_worker() {
        let mut items = vec![1.0_f64; 8];
        let sums = map_chunks_mut(&mut items, 1, |start, chunk| {
            assert_eq!(start, 0);
            chunk.iter().sum::<f64>()
        });
        assert_eq!(sums, vec![8.0]);
    }

    #[test]
    fn pool_map_matches_free_functions_for_every_budget() {
        let items: Vec<u64> = (0..1_003).collect();
        let pool = WorkerPool::new(4);
        for budget in [1usize, 2, 3, 7, 16, 5_000] {
            let expected = parallel_map(&items, budget, |&x| x * 3 + 1);
            let pooled = pool.parallel_map(&items, budget, |&x| x * 3 + 1);
            assert_eq!(pooled, expected, "budget = {budget}");
        }
    }

    #[test]
    fn pool_reuses_threads_across_rounds_and_mutates_in_place() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<u64> = (0..100).collect();
        for round in 0..50u64 {
            pool.for_each(items.chunks_mut(7), |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, &v)| v == i as u64 + round + 1));
        }
    }

    #[test]
    fn single_thread_pool_never_spawns_and_runs_inline() {
        let pool = WorkerPool::new(1);
        let out = pool.parallel_map(&[1, 2, 3], 8, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(pool.ensure_spawned(), 0);
    }

    #[test]
    fn pool_nested_fan_outs_run_inline() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        let nested = pool.parallel_map(&items, 2, |&x| {
            assert_eq!(available_threads(), 1);
            let inner: Vec<u32> = (0..3).collect();
            parallel_map(&inner, 4, move |&y| x * 10 + y)
        });
        for (x, inner) in nested.iter().enumerate() {
            let expected: Vec<u32> = (0..3).map(|y| x as u32 * 10 + y).collect();
            assert_eq!(inner, &expected);
        }
    }

    #[test]
    fn pool_propagates_job_panics_and_stays_usable() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_map(&items, 4, |&x| {
                assert!(x != 5, "boom");
                x
            })
        }));
        // The original payload survives the pool boundary verbatim.
        let payload = result.unwrap_err();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is a string");
        assert!(message.contains("boom"), "{message}");
        // The pool survives a panicked batch.
        let out = pool.parallel_map(&items, 4, |&x| x + 1);
        assert_eq!(out, (1..9).collect::<Vec<u32>>());
    }

    #[test]
    fn for_each_visits_every_block_once_for_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut items: Vec<usize> = vec![0; 1_000];
            let mut sums = vec![0usize; 1_000usize.div_ceil(64)];
            pool.for_each(
                items.chunks_mut(64).zip(sums.iter_mut()),
                |block, (chunk, sum)| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = block * 64 + i;
                    }
                    *sum = chunk.iter().sum();
                },
            );
            assert!(items.iter().enumerate().all(|(i, &v)| v == i));
            assert_eq!(sums.iter().sum::<usize>(), (0..1_000).sum::<usize>());
        }
    }

    #[test]
    fn for_each_runs_every_item_and_raises_the_lowest_panic() {
        // Items 2 and 5 panic: every other item still runs, and the panic
        // that surfaces is item 2's whatever the thread count.
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut done = vec![false; 8];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.for_each(done.iter_mut(), |index, flag| {
                    assert!(index != 2 && index != 5, "item {index}");
                    *flag = true;
                })
            }));
            let payload = result.unwrap_err();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .expect("panic payload is a string");
            assert!(message.contains("item 2"), "{message}");
            let expected: Vec<bool> = (0..8).map(|i| i != 2 && i != 5).collect();
            assert_eq!(done, expected, "threads = {threads}");
        }
    }
}
