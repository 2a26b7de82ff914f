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
//! Every thread here lives for one call. Long-lived threads belong to
//! their owner: `pastas-serve`'s connection workers are its own.
//!
//! ```
//! let doubled = pastas_par::par_map_min(&[1, 2, 3], 1, |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! let sums = pastas_par::par_chunks(&[1, 2, 3, 4], 1, |_, chunk| chunk.iter().sum::<i32>());
//! assert_eq!(sums.iter().sum::<i32>(), 10);
//! let (a, b) = pastas_par::join(|| 1, || 2);
//! assert_eq!((a, b), (1, 2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
// A request path degrades to a typed error, never a panic.
#![deny(clippy::indexing_slicing, clippy::string_slice, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unreachable, clippy::unimplemented)]

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
    *ENV.get_or_init(|| std::env::var("PASTAS_THREADS").ok().and_then(|v| v.trim().parse().ok()))
}

/// The configured worker-thread count: innermost [`with_threads`] scope,
/// else `PASTAS_THREADS`, else the machine's available parallelism.
/// Always at least 1.
pub fn thread_count() -> usize {
    THREAD_OVERRIDE
        .with(|c| c.get())
        .or_else(env_threads)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "chunk sizes sum to len by construction"
                )]
                let chunk = &items[start..start + size];
                let chunk_start = start;
                let work = &work;
                handles.push(scope.spawn(move || work(chunk_start, chunk)));
                start += size;
            }
            // A worker's panic goes on unwinding here, with its own payload.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect::<Vec<R>>()
        })
    }
}

/// Map `f` over `items` in parallel, preserving order. No thread gets
/// fewer than `min_per_thread` items — use a small minimum when each item
/// is expensive (e.g. a whole alignment row).
pub fn par_map_min<T, R, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    concat(par_chunks(items, min_per_thread, |_, chunk| chunk.iter().map(&f).collect::<Vec<R>>()))
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
            // `b`'s panic goes on unwinding here, with its own payload.
            (ra, hb.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
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
        assert!(par_map_min(&[] as &[u32], 1, |x| *x).is_empty());
        assert_eq!(par_chunks(&[] as &[u32], 1, |start, chunk| (start, chunk.len())), [(0, 0)]);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let (a, b) =
                with_threads(threads, || join(|| (0..100u64).sum::<u64>(), || "right".to_owned()));
            assert_eq!(a, 4950);
            assert_eq!(b, "right");
        }
    }
}

#[cfg(test)]
mod proptests;
