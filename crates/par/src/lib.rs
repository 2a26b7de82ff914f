//! # pastas-par — dependency-free parallel execution
//!
//! The paper's headline workload — re-selecting a 13,000-patient cohort
//! out of 168,000 inside Shneiderman's 0.1 s budget — is embarrassingly
//! parallel: per-history predicate evaluation, per-chunk index building,
//! per-source parsing, pairwise distances. This crate supplies the one
//! primitive all of those need: **ordered, chunked data-parallelism over
//! `std::thread::scope`**, with zero external dependencies.
//!
//! Guarantees:
//!
//! * **Determinism.** Every function returns results in input order, no
//!   matter the thread count. `PASTAS_THREADS=1` (or
//!   [`with_threads`]`(1, …)`) takes the *exact* serial code path, so
//!   parallel and serial runs agree bit for bit for pure closures — the
//!   property the equivalence tests assert.
//! * **No work for small inputs.** Inputs below a per-thread minimum stay
//!   serial; thread spawning only happens when there is enough work to
//!   amortize it.
//!
//! Thread count resolution order: the innermost [`with_threads`] scope,
//! then the `PASTAS_THREADS` environment variable (read once), then
//! [`std::thread::available_parallelism`].
//!
//! ```
//! let doubled = pastas_par::par_map(&[1, 2, 3], |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! let evens = pastas_par::par_filter_indices_min(&[1, 2, 3, 4], 1, |x| x % 2 == 0);
//! assert_eq!(evens, vec![1, 3]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pool;

use std::cell::Cell;
use std::sync::OnceLock;

/// Default minimum number of items each worker thread must receive before
/// a call goes parallel. Keeps tiny inputs on the serial path where thread
/// spawn overhead (~tens of µs) would dominate.
pub const DEFAULT_MIN_PER_THREAD: usize = 256;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PASTAS_THREADS").ok().and_then(|v| v.trim().parse().ok())
    })
}

/// The configured worker-thread count: innermost [`with_threads`] scope,
/// else `PASTAS_THREADS`, else the machine's available parallelism.
/// Always at least 1.
pub fn thread_count() -> usize {
    THREAD_OVERRIDE
        .with(|c| c.get())
        .or_else(env_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
        .max(1)
}

/// Run `f` with the worker-thread count pinned to `n` (≥ 1) on this
/// thread, restoring the previous setting afterwards — the benches' knob
/// for timing the serial path (`n = 1`) against the parallel one without
/// touching the environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    THREAD_OVERRIDE.with(|c| {
        let prev = c.replace(Some(n.max(1)));
        let result = f();
        c.set(prev);
        result
    })
}

/// How many worker threads a `len`-item call should use under the current
/// configuration and a per-thread minimum.
fn effective_threads(len: usize, min_per_thread: usize) -> usize {
    let by_size = len / min_per_thread.max(1);
    thread_count().min(by_size.max(1))
}

/// The chunking core: split `items` into `threads` contiguous chunks,
/// apply `work(chunk_start, chunk)` to each (in parallel when threads > 1),
/// and return the per-chunk results **in chunk order**. Use it directly
/// when the per-chunk work wants to build one accumulator per chunk (e.g.
/// a postings map) and needs each item's global index.
///
/// With one thread this performs exactly one call, `work(0, items)`, on
/// the calling thread — the serial path.
pub fn par_chunks<T, R, F>(items: &[T], min_per_thread: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let threads = effective_threads(items.len(), min_per_thread);
    if threads <= 1 {
        vec![work(0, items)]
    } else {
        let len = items.len();
        let base = len / threads;
        let rem = len % threads;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            let mut start = 0usize;
            for i in 0..threads {
                let size = base + usize::from(i < rem);
                // lint:allow(no-panic-hot-path) chunk sizes sum to len by construction
                let chunk = &items[start..start + size];
                let chunk_start = start;
                let work = &work;
                handles.push(scope.spawn(move || work(chunk_start, chunk)));
                start += size;
            }
            handles
                .into_iter()
                // lint:allow(no-panic-hot-path) re-raises the worker's own panic
                .map(|h| h.join().expect("pastas-par worker panicked"))
                .collect::<Vec<R>>()
        })
    }
}

/// Map `f` over `items` in parallel, preserving order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_min(items, DEFAULT_MIN_PER_THREAD, f)
}

/// [`par_map`] with an explicit per-thread minimum — use a small minimum
/// when each item is expensive (e.g. a whole alignment row).
pub fn par_map_min<T, R, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    concat(par_chunks(items, min_per_thread, |_, chunk| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    }))
}

/// Indices (as `u32`, ascending) of the items satisfying `pred`,
/// evaluated in parallel at the given per-thread minimum. Panics if
/// `items.len()` exceeds `u32::MAX`.
pub fn par_filter_indices_min<T, F>(items: &[T], min_per_thread: usize, pred: F) -> Vec<u32>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    assert!(
        u32::try_from(items.len()).is_ok(),
        "par_filter_indices requires len <= u32::MAX"
    );
    concat(par_chunks(items, min_per_thread, |start, chunk| {
        chunk
            .iter()
            .enumerate()
            .filter(|(_, t)| pred(t))
            .map(|(i, _)| (start + i) as u32)
            .collect::<Vec<u32>>()
    }))
}

/// Parallel fold: each chunk builds one `make()` accumulator and folds
/// its items into it **in place**, and the per-chunk accumulators are
/// combined **left to right in chunk order** with `merge`. With one
/// thread this is a plain serial fold (no `merge` call), so `merge` must
/// agree with `fold` in the usual monoid-homomorphism sense for the two
/// paths to coincide — true for the counters and month tables this
/// workspace folds.
pub fn par_fold<T, A, M, F, G>(items: &[T], make: M, fold: F, mut merge: G) -> A
where
    T: Sync,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
    G: FnMut(A, A) -> A,
{
    let chunks = par_chunks(items, DEFAULT_MIN_PER_THREAD, |_, chunk| {
        let mut acc = make();
        for item in chunk {
            fold(&mut acc, item);
        }
        acc
    });
    let mut iter = chunks.into_iter();
    // lint:allow(no-panic-hot-path) par_chunks returns >= 1 chunk even for empty input
    let first = iter.next().expect("par_chunks returns at least one chunk");
    iter.fold(first, &mut merge)
}

/// Run two independent closures, possibly concurrently, returning both
/// results. Serial (`a` then `b`) when one thread is configured.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    if thread_count() <= 1 {
        (a(), b())
    } else {
        std::thread::scope(|scope| {
            let hb = scope.spawn(b);
            let ra = a();
            // lint:allow(no-panic-hot-path) re-raises the worker's own panic
            (ra, hb.join().expect("pastas-par join worker panicked"))
        })
    }
}

fn concat<R>(chunks: Vec<Vec<R>>) -> Vec<R> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || par_map_min(&items, 1, |x| x * 3 + 1));
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn filter_indices_are_ascending_and_complete() {
        let items: Vec<u32> = (0..5_000).collect();
        let expected: Vec<u32> = (0..5_000).filter(|i| i % 7 == 0).collect();
        for threads in [1, 2, 8] {
            let got =
                with_threads(threads, || par_filter_indices_min(&items, 1, |x| x % 7 == 0));
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn fold_merges_in_chunk_order() {
        // String concatenation is order-sensitive: any reordering of
        // chunks or items would change the result.
        let items: Vec<String> = (0..3_000).map(|i| format!("{i},")).collect();
        let serial: String = items.concat();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || {
                par_fold(
                    &items,
                    String::new,
                    |acc, s| acc.push_str(s),
                    |mut a, b| {
                        a.push_str(&b);
                        a
                    },
                )
            });
            assert_eq!(got, serial, "threads {threads}");
        }
    }

    #[test]
    fn fold_builds_one_accumulator_a_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u32> = (0..3_000).collect();
        for threads in [1, 2, 8] {
            let made = AtomicUsize::new(0);
            let merged = std::cell::Cell::new(0);
            let got = with_threads(threads, || {
                par_fold(
                    &items,
                    || {
                        made.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    },
                    |acc: &mut Vec<u32>, &x| acc.push(x),
                    |mut a, mut b| {
                        merged.set(merged.get() + 1);
                        a.append(&mut b);
                        a
                    },
                )
            });
            assert_eq!(got, items, "threads {threads}");
            // 3,000 items are enough for 11 chunks of DEFAULT_MIN_PER_THREAD.
            assert_eq!(made.into_inner(), threads, "one Vec a chunk (threads {threads})");
            assert_eq!(merged.get(), threads - 1, "threads {threads}");
        }
    }

    /// The threads a section ran on: one id per chunk.
    fn chunk_threads(items: &[u32], min_per_thread: usize) -> Vec<std::thread::ThreadId> {
        par_chunks(items, min_per_thread, |_, _| std::thread::current().id())
    }

    #[test]
    fn small_inputs_stay_serial() {
        let ids = with_threads(8, || chunk_threads(&[1, 2, 3], DEFAULT_MIN_PER_THREAD));
        assert_eq!(
            ids,
            [std::thread::current().id()],
            "3 items < DEFAULT_MIN_PER_THREAD stay on the caller"
        );
    }

    #[test]
    fn large_inputs_use_the_configured_threads() {
        let items: Vec<u32> = (0..4_096).collect();
        let ids = with_threads(4, || chunk_threads(&items, 1));
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!((ids.len(), distinct.len()), (4, 4), "one worker a chunk");
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(thread_count(), 3);
            with_threads(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
    }

    #[test]
    fn empty_inputs() {
        assert!(par_map(&[] as &[u32], |x| *x).is_empty());
        assert!(par_filter_indices_min(&[] as &[u32], 1, |_| true).is_empty());
        assert_eq!(
            par_fold(&[] as &[u32], || 7u64, |a, &x| *a += x as u64, |a, b| a + b),
            7
        );
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let (a, b) = with_threads(threads, || {
                join(|| (0..100u64).sum::<u64>(), || "right".to_owned())
            });
            assert_eq!(a, 4950);
            assert_eq!(b, "right");
        }
    }
}

#[cfg(test)]
mod proptests;
