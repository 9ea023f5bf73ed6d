//! Intra-operator data parallelism: a small scoped-thread worker pool.
//!
//! The engine's embarrassingly parallel operators — `Encrypt`/`Decrypt`
//! columns, `Select` predicate evaluation, `Project` rebuilds, hash-join
//! build/probe — split their rows into contiguous chunks and run the
//! chunks on scoped threads ([`std::thread::scope`], no external
//! dependencies). Three properties matter:
//!
//! * **Determinism** — chunks are contiguous row ranges processed in
//!   row order and re-assembled in chunk order, and every source of
//!   randomness is derived from the *row index*, never from the chunk
//!   layout (the `Encrypt` operator seeds each row's RNG via
//!   `engine::mix_seed` over (seed, node, column, row)). Output —
//!   ciphertext bytes included — is bit-identical for every worker
//!   count, which the differential proptests assert.
//! * **No oversubscription** — all pool handles cloned from one pool
//!   (and everything using [`WorkerPool::global`]) share a single
//!   atomic permit counter. A parallel region takes only the extra
//!   threads currently available and otherwise runs on the calling
//!   thread, so ten concurrent sessions on an eight-core box do not
//!   spawn eighty workers.
//! * **Bounded setup cost** — a region only splits when every thread
//!   would get at least `min_chunk` rows, so cheap operators over small
//!   tables never pay a spawn.
//!
//! The worker count comes from the `MPQ_WORKERS` environment variable
//! when set (the `throughput` binary's `--workers` flag sets it
//! programmatically via [`WorkerPool::init_global`]), defaulting to
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// A handle on a shared budget of worker threads. Cloning is cheap and
/// shares the budget; independent budgets come from [`WorkerPool::new`].
#[derive(Clone, Debug)]
pub struct WorkerPool {
    /// Extra threads (beyond the callers) the pool may run, shared
    /// across clones.
    permits: Arc<AtomicUsize>,
    /// Total worker target (callers + extras), for chunk sizing.
    target: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::global()
    }
}

impl WorkerPool {
    /// A pool running at most `workers` threads in total (the calling
    /// thread counts as one; `workers - 1` extras may be spawned).
    pub fn new(workers: usize) -> WorkerPool {
        let w = workers.max(1);
        WorkerPool {
            permits: Arc::new(AtomicUsize::new(w - 1)),
            target: w,
        }
    }

    /// A pool that never spawns: everything runs on the caller.
    pub fn serial() -> WorkerPool {
        WorkerPool::new(1)
    }

    /// The process-wide shared pool (`MPQ_WORKERS` env override,
    /// default [`std::thread::available_parallelism`]).
    pub fn global() -> WorkerPool {
        GLOBAL
            .get_or_init(|| {
                let n = std::env::var("MPQ_WORKERS")
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1)
                    });
                WorkerPool::new(n)
            })
            .clone()
    }

    /// Fix the global pool's worker count before first use. Returns
    /// `false` (and changes nothing) if the global pool already exists.
    pub fn init_global(workers: usize) -> bool {
        GLOBAL.set(WorkerPool::new(workers)).is_ok()
    }

    /// The pool's total worker target.
    pub fn workers(&self) -> usize {
        self.target
    }

    /// Take up to `want` extra-thread permits without blocking.
    fn acquire(&self, want: usize) -> usize {
        let mut avail = self.permits.load(Ordering::Relaxed);
        loop {
            let take = want.min(avail);
            if take == 0 {
                return 0;
            }
            match self.permits.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(cur) => avail = cur,
            }
        }
    }

    fn release(&self, n: usize) {
        if n > 0 {
            self.permits.fetch_add(n, Ordering::Release);
        }
    }

    /// Acquire up to `want` permits, returned on drop — including
    /// during a panic unwind, so a panicking chunk closure cannot
    /// permanently shrink the shared budget (proptest and other
    /// `catch_unwind` users keep the process alive afterwards).
    fn acquire_guard(&self, want: usize) -> PermitGuard<'_> {
        PermitGuard {
            pool: self,
            n: if want > 0 { self.acquire(want) } else { 0 },
        }
    }

    /// How many threads (caller included) a region over `len` items
    /// may use, honoring `min_chunk`.
    fn plan_threads(&self, len: usize, min_chunk: usize) -> usize {
        let max_by_size = len / min_chunk.max(1);
        self.target.min(max_by_size).max(1)
    }

    /// Run `f` over contiguous index ranges covering `0..len`:
    /// [`WorkerPool::map_ranges`] without outputs.
    pub fn for_each_chunk<E, F>(&self, len: usize, min_chunk: usize, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(std::ops::Range<usize>) -> Result<(), E> + Sync,
    {
        self.map_ranges(len, min_chunk, f).map(drop)
    }

    /// Map contiguous index ranges covering `0..len` over shared data,
    /// one output per range, in range order — the pool's one splitter
    /// (a column encrypted chunk by chunk into per-chunk buffers, a
    /// predicate evaluated into per-chunk masks; callers concatenate).
    /// The first erroring range in *range order* — not completion
    /// order — determines the returned error, matching what a
    /// sequential left-to-right scan would report.
    pub fn map_ranges<R, E, F>(&self, len: usize, min_chunk: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(std::ops::Range<usize>) -> Result<R, E> + Sync,
    {
        let threads = self.plan_threads(len, min_chunk);
        let guard = self.acquire_guard(threads.saturating_sub(1));
        if guard.n == 0 {
            return Ok(vec![f(0..len)?]);
        }
        let threads = guard.n + 1;
        let base = len / threads;
        let rem = len % threads;
        let mut bounds = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let size = base + usize::from(t < rem);
            bounds.push(start..start + size);
            start += size;
        }
        let results: Vec<Result<R, E>> = std::thread::scope(|scope| {
            let f = &f;
            let mut iter = bounds.into_iter();
            let mine_range = iter.next().expect("at least one chunk");
            let handles: Vec<_> = iter.map(|r| scope.spawn(move || f(r))).collect();
            let mine = f(mine_range);
            let mut out = Vec::with_capacity(threads);
            out.push(mine);
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked")),
            );
            out
        });
        drop(guard);
        results.into_iter().collect()
    }
}

/// Extra-thread permits held by one parallel region, returned to the
/// shared budget on drop (normal exit and panic unwind alike).
struct PermitGuard<'a> {
    pool: &'a WorkerPool,
    n: usize,
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `map_ranges` as callers use it: per-range outputs concatenated.
    fn map_rows<R: Send + Clone, E: Send>(
        pool: &WorkerPool,
        len: usize,
        min_chunk: usize,
        f: impl Fn(usize) -> Result<Option<R>, E> + Sync,
    ) -> Result<Vec<R>, E> {
        let chunks = pool.map_ranges(len, min_chunk, |range| {
            let mut out = Vec::new();
            for i in range {
                out.extend(f(i)?);
            }
            Ok(out)
        })?;
        Ok(chunks.concat())
    }

    #[test]
    fn map_ranges_preserves_order_for_any_worker_count() {
        let expect: Vec<usize> = (0..1000).map(|x| x * 3).collect();
        for workers in [1, 2, 3, 7] {
            let pool = WorkerPool::new(workers);
            let out = map_rows(&pool, 1000, 1, |i| Ok::<_, ()>(Some(i * 3)));
            assert_eq!(out.unwrap(), expect, "workers = {workers}");
            // The ranges themselves are contiguous and ascending.
            let ranges = pool.map_ranges(1000, 1, Ok::<_, ()>).unwrap();
            assert_eq!(ranges.len(), workers);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[workers - 1].end, 1000);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn map_ranges_filters_and_errors_deterministically() {
        let pool = WorkerPool::new(4);
        // Filtering chunk-locally concatenates in order.
        let evens = map_rows(&pool, 500, 1, |i| Ok::<_, ()>((i % 2 == 0).then_some(i))).unwrap();
        assert_eq!(evens, (0..500).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        // The lowest erroring row wins regardless of which worker hits
        // it first.
        let err = map_rows(&pool, 500, 1, |i| {
            if i % 100 == 99 {
                Err(i)
            } else {
                Ok(Some(i))
            }
        })
        .unwrap_err();
        assert_eq!(err, 99);
    }

    #[test]
    fn min_chunk_prevents_spawning_for_small_inputs() {
        let pool = WorkerPool::new(8);
        // 10 items with min_chunk 32 → single caller-thread chunk.
        let ranges = pool.map_ranges(10, 32, Ok::<_, ()>).unwrap();
        assert_eq!(ranges, vec![0..10]);
    }

    #[test]
    fn for_each_chunk_covers_exact_ranges() {
        for workers in [1, 2, 5] {
            let pool = WorkerPool::new(workers);
            let seen = std::sync::Mutex::new(vec![false; 1003]);
            pool.for_each_chunk(1003, 1, |range| {
                let mut seen = seen.lock().unwrap();
                for i in range {
                    assert!(!seen[i], "index {i} covered twice");
                    seen[i] = true;
                }
                Ok::<(), ()>(())
            })
            .unwrap();
            assert!(seen.into_inner().unwrap().iter().all(|&s| s));
        }
    }

    #[test]
    fn panicking_chunk_returns_its_permits() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ()> = pool.for_each_chunk(100, 1, |range| {
                if range.start == 0 {
                    panic!("chunk died");
                }
                Ok(())
            });
        }));
        assert!(caught.is_err());
        // All 3 extra permits must be back in the budget.
        assert_eq!(pool.acquire(10), 3);
        pool.release(3);
    }

    #[test]
    fn permits_are_shared_and_returned() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.acquire(10), 3);
        // Budget exhausted: a clone sees no extras and runs serial.
        let clone = pool.clone();
        assert_eq!(clone.map_ranges(100, 1, Ok::<_, ()>).unwrap(), vec![0..100]);
        pool.release(3);
        assert_eq!(pool.acquire(1), 1);
        pool.release(1);
    }
}
