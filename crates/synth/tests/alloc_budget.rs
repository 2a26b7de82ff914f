//! Allocation budget of synthesis: `generate_collection` on one thread
//! makes at most [`BUDGET_PER_PATIENT`] allocations a patient. A
//! per-entry heap object (a `String` code, an `Entry`) costs about one an
//! entry, 29 a patient, and fails it.
//!
//! The counter is a std-only global allocator around `System` that counts
//! the allocations and reallocations of the thread that armed it, so the
//! test harness's other threads do not disturb the count.

use pastas_synth::{generate_collection, SynthConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations a generated patient may cost.
const BUDGET_PER_PATIENT: f64 = 6.0;

thread_local! {
    /// `Some(count)` while this thread is being counted.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

/// The system allocator, counting into [`COUNT`].
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

#[test]
fn generation_stays_within_its_allocation_budget() {
    let patients = 2_000;
    let (collection, n) = pastas_par::with_threads(1, || {
        allocations(|| generate_collection(SynthConfig::with_patients(patients), 2016))
    });
    let per_patient = n as f64 / patients as f64;
    let per_entry = n as f64 / collection.stats().entries as f64;
    println!("{n} allocations: {per_patient:.2} a patient, {per_entry:.3} an entry");
    assert!(
        per_patient <= BUDGET_PER_PATIENT,
        "{per_patient:.2} allocations a patient, budget {BUDGET_PER_PATIENT}"
    );
}
