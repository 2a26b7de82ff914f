//! Shared server state: `Arc`-swapped immutable snapshots.
//!
//! Readers (`/select`, `/cohort.svg`, …) clone an `Arc` out of a read
//! lock held for nanoseconds and then work entirely on their private
//! snapshot — a slow render never blocks a `/command` or an ingest, and
//! vice versa. Writers serialize among themselves, build the *next*
//! snapshot off to the side ([`pastas_core::Workbench::snapshot`] shares
//! the collection's row chunks and the display order, so that touches
//! nothing per history), and publish it with one pointer swap. A publish
//! costs what changed: a sort or an alignment writes a new display
//! order, an ingest copies the row chunks (4,096 rows each) and id
//! sub-maps its touched rows live in, the order only if it appends
//! patients, and adjusts summary, fingerprint and the code index's
//! postings from the touched rows. Every snapshot carries a monotone
//! version; response-cache keys include it, so stale cached responses are
//! unreachable the moment a new snapshot lands.

use pastas_core::{CoreError, IngestStats, ViewCommand, Workbench};
use pastas_ingest::DeltaBatch;
use pastas_time::Date;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One immutable published state.
pub struct Snapshot {
    /// The workbench as of this version (never mutated once published).
    pub workbench: Workbench,
    /// Monotone publication counter (1 = the initial state).
    pub version: u64,
    /// The date `age(..)` clauses evaluate at: the collection's last
    /// event, read at publication from the summary the collection
    /// maintains (O(1); no publish walks the entries).
    pub reference_date: Date,
}

impl Snapshot {
    /// The response-cache key prefix binding an entry to this exact state:
    /// publication version plus collection fingerprint.
    pub fn cache_prefix(&self) -> String {
        format!(
            "v{}:c{:016x}",
            self.version,
            self.workbench.collection_fingerprint()
        )
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Run at every publication: validates each history's span and
    /// ordering, each *distinct* backing arena exactly once (previous
    /// pointer first, then a set: O(entries) however many private stores
    /// streamed ingest has left behind), the inverted code index, and
    /// what a publish maintains instead of recomputing — the collection
    /// summary against the from-entries walk, the fingerprint against the
    /// from-scratch one, a built digest column against a rebuilt one, the
    /// reference date against the summary.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let mut seen_stores = std::collections::HashSet::new();
        let mut previous = std::ptr::null();
        for history in self.workbench.collection().histories() {
            history.debug_validate();
            let ptr = std::sync::Arc::as_ptr(history.store());
            if ptr != previous && seen_stores.insert(ptr) {
                history.store().debug_validate();
            }
            previous = ptr;
        }
        self.workbench.index().debug_validate(self.workbench.collection());
        self.workbench.debug_validate();
        assert_eq!(self.reference_date, reference_date_of(&self.workbench));
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}
}

/// The swap point.
pub struct ServeState {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers; readers never take it.
    write: Mutex<()>,
    version: AtomicU64,
}

impl ServeState {
    /// Publish an initial workbench as version 1.
    pub fn new(workbench: Workbench) -> ServeState {
        let reference_date = reference_date_of(&workbench);
        let initial = Arc::new(Snapshot { workbench, version: 1, reference_date });
        initial.debug_validate();
        ServeState {
            current: RwLock::new(initial),
            write: Mutex::new(()),
            version: AtomicU64::new(1),
        }
    }

    /// The current snapshot (an `Arc` clone; the caller can hold it for as
    /// long as it likes without blocking anyone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Current publication version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Apply a view command against the current snapshot and publish the
    /// result as a new version. Returns the new version. On error nothing
    /// is published.
    pub fn apply(&self, command: &ViewCommand) -> Result<u64, CoreError> {
        let writer = self.writer();
        let mut workbench = self.head(&writer).workbench.snapshot();
        // The command may run parallel sections under the writer mutex;
        // readers never take it, so the join only delays other writers.
        workbench.apply_command(command)?;
        Ok(self.publish(&writer, workbench))
    }

    /// Replace the whole workbench (the batch-reload path) and publish
    /// it. Returns the new version.
    pub fn replace(&self, workbench: Workbench) -> u64 {
        self.publish(&self.writer(), workbench)
    }

    /// Apply streaming delta batches to a clone of the current snapshot
    /// and publish the result: readers see the appended rows the moment
    /// it lands. Publishes nothing when the batches net out to no change.
    pub(crate) fn ingest(
        &self,
        writer: &MutexGuard<'_, ()>,
        batches: &[DeltaBatch],
    ) -> (u64, IngestStats) {
        let base = self.head(writer);
        let mut workbench = base.workbench.snapshot();
        let stats = workbench.apply_ingest(batches);
        if stats.patients_touched == 0 {
            return (base.version, stats);
        }
        (self.publish(writer, workbench), stats)
    }

    /// Take the writer mutex. Its guard is the level token of the lock
    /// order: the writer mutex is the one lock ever held while another is
    /// taken, and every function that takes one under it — `head` and
    /// `publish` (`current`), `IngestQueue::drain` (the queue) — asks for
    /// the guard in its signature. Readers never take it.
    pub(crate) fn writer(&self) -> MutexGuard<'_, ()> {
        self.write.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The snapshot the next publish replaces. Under the writer guard no
    /// other publish can land between this read and the caller's own.
    pub(crate) fn head(&self, _writer: &MutexGuard<'_, ()>) -> Arc<Snapshot> {
        self.snapshot()
    }

    /// Publication is the one thing the writer mutex serializes, so it
    /// takes the guard: a caller that has not locked `write` does not
    /// build. Readers go through `current`, never `write`.
    fn publish(&self, _writer: &MutexGuard<'_, ()>, workbench: Workbench) -> u64 {
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let reference_date = reference_date_of(&workbench);
        let next = Arc::new(Snapshot { workbench, version, reference_date });
        // Debug builds prove the deep invariants of everything the
        // readers are about to share; release builds skip the walk.
        next.debug_validate();
        // Swap under the lock, drop after it: if this was the last handle
        // on the previous state, releasing it frees the chunks the publish
        // replaced (4,096 history handles each) and must not stall
        // readers.
        let previous =
            std::mem::replace(&mut *self.current.write().unwrap_or_else(|e| e.into_inner()), next);
        drop(previous);
        version
    }
}

/// The collection's last event, from its maintained summary: O(1) on every
/// publish after the first (which builds the summary, once per process).
fn reference_date_of(workbench: &Workbench) -> Date {
    workbench
        .collection()
        .stats()
        .last
        .map(|dt| dt.date())
        // lint:allow(no-panic-hot-path) 2013-01-01 is a valid constant date
        .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_query::SortKey;
    use pastas_synth::{generate_collection, SynthConfig};

    fn state() -> ServeState {
        ServeState::new(Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(120),
            5,
        )))
    }

    #[test]
    fn commands_publish_new_versions_and_old_snapshots_survive() {
        let state = state();
        let before = state.snapshot();
        assert_eq!(before.version, 1);
        let v = state.apply(&ViewCommand::Sort(SortKey::EntryCount)).unwrap();
        assert_eq!(v, 2);
        let after = state.snapshot();
        assert_eq!(after.version, 2);
        // The pre-command snapshot still reads its own consistent state.
        assert_ne!(before.workbench.order(), after.workbench.order());
        assert_eq!(before.version, 1);
        // Same collection → same fingerprint, different version → new keys.
        assert_ne!(before.cache_prefix(), after.cache_prefix());
        assert_eq!(
            before.workbench.collection_fingerprint(),
            after.workbench.collection_fingerprint()
        );
    }

    /// A view command publishes a new version that shares everything a
    /// view command cannot change: every row chunk and id sub-map (no
    /// row byte copied, nothing touched per history), fingerprint and
    /// reference date — and a command that leaves the display order alone
    /// shares that too.
    #[test]
    fn view_commands_share_the_collection_spine() {
        let state = state();
        let before = state.snapshot();
        let mut previous = state.snapshot();
        for command in [
            ViewCommand::Sort(SortKey::Span),
            ViewCommand::AlignOnCode("T90".into()),
            ViewCommand::SetFilter(None),
            ViewCommand::ClearAlignment,
        ] {
            let version = state.apply(&command).unwrap();
            let after = state.snapshot();
            assert_eq!(after.version, version);
            assert!(version > before.version);
            let (rows_before, rows_after) = (before.workbench.collection(), after.workbench.collection());
            assert_eq!(rows_after.row_bytes_copied_from(rows_before), 0, "{command:?} copied rows");
            let keeps_order = matches!(command, ViewCommand::SetFilter(_) | ViewCommand::ClearAlignment);
            assert_eq!(
                std::ptr::eq(previous.workbench.order(), after.workbench.order()),
                keeps_order,
                "{command:?}"
            );
            assert_eq!(after.reference_date, before.reference_date);
            assert_eq!(
                after.workbench.collection_fingerprint(),
                before.workbench.collection_fingerprint()
            );
            previous = after;
        }
    }

    /// An ingest publish moves reference date and fingerprint with the
    /// touched rows, and (debug builds) `publish` has checked both against
    /// their from-scratch oracles.
    #[test]
    fn ingest_publishes_advance_the_maintained_summary() {
        use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
        let state = state();
        let before = state.snapshot();
        let mut registry = IdentityRegistry::new();
        let persons = "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n";
        let claims =
            "claim_id;patient;date;provider;icpc;note\nK1;NIN-0900001;04.05.2031;GP;T90;\n";
        let batches = [
            parse_delta(DeltaFormat::Persons, persons, &mut registry),
            parse_delta(DeltaFormat::Claims, claims, &mut registry),
        ];
        let (version, stats) = state.ingest(&state.writer(), &batches);
        assert_eq!((version, stats.patients_created), (2, 1));
        let after = state.snapshot();
        assert_eq!(after.reference_date, Date::new(2031, 5, 4).unwrap());
        assert!(after.reference_date > before.reference_date);
        assert_ne!(
            after.workbench.collection_fingerprint(),
            before.workbench.collection_fingerprint()
        );
        assert_eq!(
            after.workbench.collection().stats().entries,
            before.workbench.collection().stats().entries + 1
        );
    }

    #[test]
    fn failed_commands_publish_nothing() {
        let state = state();
        assert!(state.apply(&ViewCommand::AlignOnCode("T90[".into())).is_err());
        assert_eq!(state.version(), 1);
    }

    #[test]
    fn replace_swaps_the_collection() {
        let state = state();
        let fp_before = state.snapshot().workbench.collection_fingerprint();
        let v = state.replace(Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(40),
            9,
        )));
        assert_eq!(v, 2);
        let snap = state.snapshot();
        assert_eq!(snap.workbench.collection().len(), 40);
        assert_ne!(snap.workbench.collection_fingerprint(), fp_before);
    }

    #[test]
    fn readers_share_the_selection_cache_across_versions() {
        use pastas_query::QueryBuilder;
        let state = state();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let a = state.snapshot();
        let _ = a.workbench.select_positions(&q);
        state.apply(&ViewCommand::Sort(SortKey::Span)).unwrap();
        let b = state.snapshot();
        let hits = b.workbench.selection_cache_hits();
        let _ = b.workbench.select_positions(&q);
        assert_eq!(
            b.workbench.selection_cache_hits(),
            hits + 1,
            "same collection, new version: selection cache still hits"
        );
    }
}
