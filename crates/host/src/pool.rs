//! A std-only work-stealing thread pool for the *real* execution of the
//! simulated kernels and the repro harness.
//!
//! Everything in this repository runs the actual join on real data while a
//! discrete-event model computes how long the hardware would take. The
//! model's clock is unaffected by how the host executes that work — which
//! means the host side is free to use every core it has, as long as the
//! results stay deterministic. This module provides that: a chunked,
//! work-stealing `map` whose output is **bit-identical for every worker
//! count**, because each item's result is stored at the item's own index
//! and merged in input order.
//!
//! Threads start in two places, and both are scoped. [`Pool::map`] spawns
//! its helper threads with [`std::thread::scope`], the calling thread works
//! beside them as one of the workers, and the map returns once every helper
//! has finished. [`Pool::beside`] runs one side task on a helper thread
//! while the calling thread runs its main task (the serving loop
//! materializes upcoming requests' inputs this way), and returns once the
//! helper has finished. Each re-raises in the caller the first panic its
//! threads raised.
//!
//! The worker count comes from (highest priority first) an explicit
//! [`Pool::new`], the process-wide [`set_jobs`] override (the `repro
//! --jobs N` flag), the `HCJ_JOBS` environment variable, and finally
//! [`std::thread::available_parallelism`].
//!
//! Nested parallelism is flattened: a `map` called from inside a pool
//! worker — a helper, or the calling thread while it works through its own
//! map — runs inline on that worker. The outermost layer that asks for
//! parallelism gets it (figures under `repro all`, sweep points within a
//! single figure, or kernel blocks within a single join), and inner layers
//! do not oversubscribe the machine with threads-spawning-threads.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Process-wide worker-count override; 0 = unset (fall back to the
/// environment).
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on pool helpers, and on a map's calling thread while it works
    /// through that map: nested maps run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Set the process-wide worker count (the `repro --jobs N` flag).
/// Clamped to at least 1. Overrides `HCJ_JOBS`.
pub fn set_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs.max(1), Ordering::SeqCst);
}

/// The effective process-wide worker count: [`set_jobs`] if called, else
/// `HCJ_JOBS`, else the machine's available parallelism.
pub fn jobs() -> usize {
    match GLOBAL_JOBS.load(Ordering::SeqCst) {
        0 => default_jobs(),
        n => n,
    }
}

/// The worker count before any [`set_jobs`] override: `HCJ_JOBS` when set
/// to a positive integer, else [`std::thread::available_parallelism`].
/// Resolved once per process (kernels consult it per block).
pub fn default_jobs() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("HCJ_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// A handle expressing "run with this many workers". Cheap to construct;
/// threads are scoped per [`Pool::map`] call, so nothing persists between
/// calls and the pool can be created anywhere without lifetime plumbing.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool of exactly `jobs` workers (clamped to ≥ 1; 1 = inline).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// The pool implied by the process-wide setting (see [`jobs`]).
    pub fn current() -> Pool {
        Pool::new(jobs())
    }

    /// Worker count this pool was built with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether a map of two or more items on this pool would spawn helper
    /// threads (false inside a worker or with 1 job) — callers can use it
    /// to pick chunk counts.
    pub fn is_parallel(&self) -> bool {
        self.jobs > 1 && !IN_WORKER.with(Cell::get)
    }

    /// Apply `f` to every item, returning results **in item order** no
    /// matter how work was distributed. Work is handed out in contiguous
    /// index chunks from a shared atomic cursor (work stealing without
    /// queues); each result is written to its item's slot, so the output —
    /// and therefore everything downstream — is identical for every worker
    /// count, including 1.
    ///
    /// # Panics
    /// Re-raises the first panic an item raised, once every helper has
    /// finished.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(n);
        if workers == 1 || IN_WORKER.with(Cell::get) {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(n, || None);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        {
            let slots = DisjointSlice::new(&mut out);
            let cursor = AtomicUsize::new(0);
            // Chunks small enough that uneven items still balance, large
            // enough that the cursor is not contended per item.
            let chunk = (n / (workers * 4)).max(1);
            let work = || {
                let drained = panic::catch_unwind(AssertUnwindSafe(|| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        let r = f(i, item);
                        // SAFETY: the cursor hands out every index
                        // exactly once, so slot `i` has a single
                        // writer and no concurrent reader.
                        unsafe { slots.write(i, Some(r)) };
                    }
                }));
                if let Err(payload) = drained {
                    // Hand out no more chunks, and keep the first panic.
                    cursor.store(n, Ordering::Relaxed);
                    panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
                }
            };
            // One of the two places host threads start (clippy.toml
            // disallows `std::thread::scope` and `spawn` everywhere but
            // here and `beside`).
            #[allow(clippy::disallowed_methods)]
            std::thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(|| {
                        IN_WORKER.with(|w| w.set(true));
                        work();
                    });
                }
                // `work` catches every item's panic, so the flag is always
                // cleared again.
                IN_WORKER.with(|w| w.set(true));
                work();
                IN_WORKER.with(|w| w.set(false));
            });
        }
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
        out.into_iter().map(|r| r.expect("every map slot filled")).collect()
    }

    /// Run `main` on the calling thread and `side` beside it on one scoped
    /// helper thread, and return `main`'s result once the helper has
    /// finished. While `main` runs, the caller counts as a pool worker, so
    /// maps that `main` (or `side`) calls run inline: the helper holds the
    /// second core. On a serial pool (one job, or a caller already inside a
    /// worker) `side` never runs and `main` runs alone.
    ///
    /// `main` must make `side` return, or the call never does. Signal it
    /// from a drop guard inside `main`, so that a panicking `main` signals
    /// it too.
    ///
    /// # Panics
    /// Re-raises `main`'s panic, else `side`'s, once the helper has
    /// finished.
    pub fn beside<S, M, R>(&self, side: S, main: M) -> R
    where
        S: FnOnce() + Send,
        M: FnOnce() -> R,
    {
        if !self.is_parallel() {
            return main();
        }
        // The other place host threads start (clippy.toml disallows
        // `std::thread::scope` and `spawn` everywhere but here and `map`).
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                side();
            });
            IN_WORKER.with(|w| w.set(true));
            let ran = panic::catch_unwind(AssertUnwindSafe(main));
            IN_WORKER.with(|w| w.set(false));
            // Joining consumes a panicking helper's payload, so the scope
            // itself does not panic on it.
            let joined = helper.join();
            match (ran, joined) {
                (Ok(result), Ok(())) => result,
                (Err(payload), _) | (Ok(_), Err(payload)) => panic::resume_unwind(payload),
            }
        })
    }

    /// Split `0..len` into chunks suited to this pool: one per worker slice
    /// of roughly `len / (4 * jobs)` items (at least `min_chunk`), in
    /// order. A serial pool returns the full range as one chunk.
    pub fn chunks(&self, len: usize, min_chunk: usize) -> Vec<std::ops::Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let target =
            if self.is_parallel() { (len / (self.jobs * 4)).max(min_chunk.max(1)) } else { len };
        let mut ranges = Vec::with_capacity(len.div_ceil(target));
        let mut start = 0;
        while start < len {
            let end = (start + target).min(len);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }
}

/// A shared view of a mutable slice that workers write at **provably
/// disjoint** indices — the scatter side of the two-phase parallel
/// partitioners, where every output position is computed from exclusive
/// prefix sums before any worker starts.
///
/// Writes overwrite without reading or dropping the previous value, so the
/// slice should hold plain data (`Copy` types or freshly-initialized
/// `Option`s, as in [`Pool::map`]).
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing is sound because writers promise disjoint indices (the
// `write` contract); `T: Send` moves values across threads.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap a mutable slice for disjoint-range sharing across workers.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index` (bounds-checked).
    ///
    /// # Safety
    /// Each index must be written by at most one thread while the slice is
    /// shared, and not read until all writers are done. The previous value
    /// is overwritten without being dropped.
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(index < self.len, "DisjointSlice write out of bounds");
        // SAFETY: in-bounds by the assert; exclusivity is the caller's
        // contract.
        unsafe { self.ptr.add(index).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Condvar};
    use std::thread;

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let got = Pool::new(4).map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        let want: Vec<u64> = (0..1000).map(|x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_is_identical_across_worker_counts() {
        let items: Vec<u64> = (0..4097).collect();
        let serial = Pool::new(1).map(&items, |_, &x| x.wrapping_mul(0x9E37_79B1));
        for jobs in [2, 3, 8, 64] {
            let parallel = Pool::new(jobs).map(&items, |_, &x| x.wrapping_mul(0x9E37_79B1));
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn map_balances_uneven_work() {
        // One item is 1000x the others; with chunked stealing the other
        // workers drain the rest. (Correctness, not timing, is asserted.)
        let items: Vec<u32> = (0..64).collect();
        let got = Pool::new(4).map(&items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        assert_eq!(got.len(), 64);
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let outer: Vec<usize> = (0..8).collect();
        let got = Pool::new(4).map(&outer, |_, &i| {
            let inner: Vec<usize> = (0..16).collect();
            Pool::new(4).map(&inner, |_, &j| i * 100 + j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::new(8).map(&empty, |_, &x| x).is_empty());
        assert_eq!(Pool::new(8).map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn panicking_item_reaches_the_caller() {
        // Both items wait for each other, so the caller and a helper each
        // run one, and both panic.
        let barrier = Barrier::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::new(2).map(&[0u32, 1], |i, _| -> u32 {
                barrier.wait();
                panic!("item {i} failed")
            })
        }));
        let payload = caught.expect_err("the item's panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message == "item 0 failed" || message == "item 1 failed", "{message}");
        // The pool maps on afterwards, again with both items at once.
        let got = Pool::new(2).map(&[0u32, 1], |_, &x| {
            barrier.wait();
            x + 10
        });
        assert_eq!(got, vec![10, 11]);
    }

    #[test]
    // Two top-level maps need two threads that are not pool workers.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_top_level_maps_both_stay_in_order() {
        // Item 0 of each map waits for item 0 of the other, so both maps
        // are in progress at once.
        let barrier = Barrier::new(2);
        let items: Vec<u64> = (0..2000).collect();
        let run = |salt: u64| {
            Pool::new(4).map(&items, |i, &x| {
                if i == 0 {
                    barrier.wait();
                }
                x * salt
            })
        };
        let (a, b) = thread::scope(|s| {
            let other = s.spawn(|| run(7));
            (run(3), other.join().expect("the other thread's map returns"))
        });
        assert_eq!(a, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(b, items.iter().map(|x| x * 7).collect::<Vec<_>>());
    }

    #[test]
    fn is_parallel_is_false_inside_an_item_the_caller_runs() {
        // Four items that wait for each other on four workers: each worker,
        // the calling thread included, runs exactly one.
        let barrier = Barrier::new(4);
        let seen = Pool::new(4).map(&[(); 4], |_, _| {
            barrier.wait();
            (thread::current().id(), Pool::new(4).is_parallel())
        });
        let caller = thread::current().id();
        assert!(seen.iter().any(|&(id, _)| id == caller), "the calling thread takes part");
        assert!(seen.iter().all(|&(_, parallel)| !parallel));
        assert!(Pool::new(4).is_parallel(), "the caller is a top-level thread again");
    }

    /// A one-way gate: `wait` blocks until the gate opens.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
    }

    /// Opens its gate when dropped, unwinding included.
    struct OpenOnDrop<'a>(&'a Gate);

    impl Drop for OpenOnDrop<'_> {
        fn drop(&mut self) {
            *self.0.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.0.opened.notify_all();
        }
    }

    #[test]
    fn beside_runs_side_and_main_at_once() {
        // Each closure waits for the other, so they ran at the same time.
        let barrier = Barrier::new(2);
        let got = Pool::new(2).beside(
            || {
                barrier.wait();
            },
            || {
                barrier.wait();
                5
            },
        );
        assert_eq!(got, 5);
    }

    #[test]
    fn beside_on_a_serial_pool_runs_main_alone() {
        let ran = AtomicBool::new(false);
        let side = || ran.store(true, Ordering::SeqCst);
        assert_eq!(Pool::new(1).beside(side, || 3), 3);
        let inside = Pool::new(2).map(&[(); 2], |_, _| Pool::new(2).beside(side, || 4));
        assert_eq!(inside, vec![4, 4]);
        assert!(!ran.load(Ordering::SeqCst), "side never runs on a serial pool");
    }

    #[test]
    fn maps_inside_beside_run_inline() {
        let (main_parallel, side_parallel) = (AtomicBool::new(true), AtomicBool::new(true));
        Pool::new(2).beside(
            || side_parallel.store(Pool::new(4).is_parallel(), Ordering::SeqCst),
            || main_parallel.store(Pool::new(4).is_parallel(), Ordering::SeqCst),
        );
        assert!(!main_parallel.load(Ordering::SeqCst), "the caller counts as a worker");
        assert!(!side_parallel.load(Ordering::SeqCst), "the helper is a worker");
        assert!(Pool::new(4).is_parallel(), "the caller is a top-level thread again");
    }

    #[test]
    fn a_panic_in_side_or_main_reaches_the_caller() {
        // In both runs `side` blocks until `main`'s guard opens its gate:
        // a guard that did not open it on unwinding would hang the test.
        let gate = Gate::default();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::new(2).beside(
                || {
                    gate.wait();
                    panic!("side failed")
                },
                || {
                    let _open = OpenOnDrop(&gate);
                    7
                },
            )
        }));
        let payload = caught.expect_err("the side's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"side failed"));

        let gate = Gate::default();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::new(2).beside(
                || gate.wait(),
                || -> u32 {
                    let _open = OpenOnDrop(&gate);
                    panic!("main failed")
                },
            )
        }));
        let payload = caught.expect_err("the main's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"main failed"));
        assert!(Pool::new(2).is_parallel(), "the caller is a top-level thread again");
    }

    #[test]
    fn disjoint_slice_scatter() {
        let mut data = vec![0u32; 256];
        {
            let slice = DisjointSlice::new(&mut data);
            let idx: Vec<usize> = (0..256).collect();
            Pool::new(4).map(&idx, |_, &i| {
                // Permuted target: still one writer per index.
                let target = (i * 97) % 256;
                // SAFETY: i -> (i*97)%256 is a bijection on 0..256 (97 is
                // coprime with 256), so each target index has one writer.
                unsafe { slice.write(target, i as u32) };
            });
        }
        for (target, &v) in data.iter().enumerate() {
            assert_eq!((v as usize * 97) % 256, target);
        }
    }

    #[test]
    fn chunks_cover_range_in_order() {
        let pool = Pool::new(3);
        let chunks = pool.chunks(1000, 16);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 1000);
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(Pool::new(1).chunks(1000, 16).len() == 1);
        assert!(pool.chunks(0, 16).is_empty());
    }

    #[test]
    fn jobs_clamp_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }
}
