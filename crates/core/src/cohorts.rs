//! Materialized cohort handles: frozen selections with a lifecycle.
//!
//! The paper's refinement loop re-reads one cohort many times (stats,
//! timeline, render) between edits to the criteria. A
//! [`CohortRegistry`] freezes a selection's posting bitmap under a
//! small id so those reads skip the planner entirely — the handle *is*
//! the row set. Handles are pinned to the snapshot version they were
//! materialized against: the first lookup after ingest publishes a new
//! version reports the handle stale (and drops it), because the frozen
//! positions index into a collection that no longer exists. The caller
//! answers `410 Gone` with a re-materialize hint built from the stored
//! query text.
//!
//! A handle also owns its aggregates: the first stats or panel read
//! folds the profile (with [`MEMO_TOP_K`] top codes, so any `k` a request
//! may ask for is a prefix), the first timeline read the monthly series;
//! every later read serializes the memo, which dies with the handle.
//!
//! The registry is a [`BoundedCache`] bounded by handle count and by
//! handle bytes (bitmap plus memos, charged when a read fills one);
//! least-recently-used handles are evicted first.
//! Re-materializing an identical selection (same canonical fingerprint,
//! same version) is deduplicated onto the existing handle.

use crate::cache::BoundedCache;
use crate::Workbench;
use pastas_analytics::CohortProfile;
use pastas_query::Bitmap;
use pastas_time::Date;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Top codes a handle's memoized profile keeps: the most a read may ask.
pub const MEMO_TOP_K: usize = 200;

/// A frozen selection: the posting bitmap of a cohort at one snapshot
/// version, plus what is needed to re-materialize it.
#[derive(Debug)]
pub struct CohortHandle {
    /// Registry-assigned id (`"c1"`, `"c2"`, …).
    pub id: String,
    /// Snapshot version the positions index into.
    pub version: u64,
    /// Number of selected patients.
    pub count: u64,
    /// Canonical query fingerprint (dedup key within a version).
    pub fingerprint: String,
    /// The original query text (the re-materialize hint).
    pub query: String,
    /// The frozen history positions.
    pub positions: Bitmap,
    /// Filled by [`CohortRegistry::profile`], with [`MEMO_TOP_K`] codes.
    profile: OnceLock<CohortProfile>,
    /// Filled by [`CohortRegistry::monthly`].
    monthly: OnceLock<Vec<(Date, u64)>>,
}

impl CohortHandle {
    /// Approximate heap bytes the handle pins, filled memos included.
    fn bytes(&self) -> usize {
        std::mem::size_of::<CohortHandle>()
            + self.positions.heap_bytes()
            + self.id.len()
            + self.fingerprint.len()
            + self.query.len()
            + self.profile.get().map_or(0, CohortProfile::heap_bytes)
            + self.monthly.get().map_or(0, |m| m.len() * std::mem::size_of::<(Date, u64)>())
    }

    /// The frozen positions, decoded (sorted).
    fn decode(&self) -> Vec<u32> {
        let mut positions = Vec::with_capacity(self.count as usize);
        self.positions.decode_into(0, &mut positions);
        positions
    }
}

/// Outcome of a registry lookup against the current snapshot version.
#[derive(Debug)]
pub enum CohortLookup {
    /// The handle is live: its version matches the current snapshot.
    Hit(Arc<CohortHandle>),
    /// The handle was pinned to an older version and has been dropped;
    /// the caller should answer `410 Gone` with the stored query as a
    /// re-materialize hint.
    Stale {
        /// Version the handle was materialized against.
        version: u64,
        /// The original query text.
        query: String,
    },
    /// No handle under that id (never existed, evicted, or already
    /// dropped as stale).
    Missing,
}

/// Bounds for the registry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Maximum live handles; LRU-evicted beyond this.
    pub max_handles: usize,
    /// Maximum total handle bytes; LRU-evicted beyond this.
    pub max_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig { max_handles: 64, max_bytes: 64 << 20 }
    }
}

/// Bounded, versioned store of materialized cohort handles. Thread-safe;
/// shared by reference between the HTTP router and the metrics endpoint.
pub struct CohortRegistry {
    handles: BoundedCache<Arc<CohortHandle>>,
    materializations: AtomicU64,
    stale_hits: AtomicU64,
    profile_folds: AtomicU64,
}

impl CohortRegistry {
    /// An empty registry with the given bounds.
    pub fn new(config: RegistryConfig) -> CohortRegistry {
        CohortRegistry {
            handles: BoundedCache::new(config.max_handles, config.max_bytes, |h| h.bytes()),
            materializations: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
            profile_folds: AtomicU64::new(0),
        }
    }

    /// Freeze `positions` (sorted, as returned by the planner) under a
    /// fresh id pinned to `version`. Re-materializing the same canonical
    /// fingerprint at the same version returns the existing handle.
    pub fn materialize(
        &self,
        version: u64,
        fingerprint: &str,
        query: &str,
        positions: &[u32],
    ) -> Arc<CohortHandle> {
        self.handles.find_or_insert(
            |h| h.version == version && h.fingerprint == fingerprint,
            || {
                // Ids count materializations: c1, c2, …
                let id = format!("c{}", self.materializations.fetch_add(1, Ordering::Relaxed) + 1);
                let handle = Arc::new(CohortHandle {
                    id: id.clone(),
                    version,
                    count: positions.len() as u64,
                    fingerprint: fingerprint.to_owned(),
                    query: query.to_owned(),
                    positions: Bitmap::from_sorted(positions),
                    profile: OnceLock::new(),
                    monthly: OnceLock::new(),
                });
                (id, handle)
            },
        )
    }

    /// Resolve `id` against the current snapshot version. A version
    /// mismatch drops the handle and reports it stale (counted in
    /// [`Self::stale_hits_total`]).
    pub fn lookup(&self, id: &str, current_version: u64) -> CohortLookup {
        match self.handles.get(id) {
            None => return CohortLookup::Missing,
            Some(handle) if handle.version == current_version => return CohortLookup::Hit(handle),
            Some(_) => {}
        }
        // Of two lookups racing to the same stale handle, one removes it.
        let Some(stale) = self.handles.remove(id) else {
            return CohortLookup::Missing;
        };
        self.stale_hits.fetch_add(1, Ordering::Relaxed);
        CohortLookup::Stale { version: stale.version, query: stale.query.clone() }
    }

    /// The profile of `handle`'s cohort with [`MEMO_TOP_K`] top codes (cut
    /// it with [`CohortProfile::with_top_k`]). The first call per handle
    /// folds it over `workbench` — the snapshot the handle is pinned to —
    /// and counts in [`Self::profile_folds_total`]; later ones are the memo.
    pub fn profile<'h>(
        &self,
        handle: &'h CohortHandle,
        workbench: &Workbench,
        reference: Date,
    ) -> &'h CohortProfile {
        self.fill(&handle.profile, || {
            self.profile_folds.fetch_add(1, Ordering::Relaxed);
            workbench.cohort_profile(&handle.decode(), reference, MEMO_TOP_K)
        })
    }

    /// The monthly series of `handle`'s cohort: folded from `workbench`'s
    /// month runs on the first call per handle, the memo afterwards.
    pub fn monthly<'h>(
        &self,
        handle: &'h CohortHandle,
        workbench: &Workbench,
    ) -> &'h [(Date, u64)] {
        self.fill(&handle.monthly, || workbench.cohort_monthly(&handle.decode())).as_slice()
    }

    /// A handle's memo, folded on first use. The fold grew the handle, so
    /// the registry charges it at once, not at the next materialization.
    fn fill<'h, T>(&self, memo: &'h OnceLock<T>, fold: impl FnOnce() -> T) -> &'h T {
        if let Some(value) = memo.get() {
            return value;
        }
        let value = memo.get_or_init(fold);
        self.handles.trim();
        value
    }

    /// Number of live handles.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if no handles are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes pinned by live handles, memos included.
    pub fn bytes(&self) -> usize {
        self.handles.bytes()
    }

    /// Handles materialized since startup (dedup hits not counted).
    pub fn materializations_total(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Lookups that found a stale handle since startup.
    pub fn stale_hits_total(&self) -> u64 {
        self.stale_hits.load(Ordering::Relaxed)
    }

    /// Profiles folded since startup: one per handle whose stats or panel
    /// was ever read, however many reads followed.
    pub fn profile_folds_total(&self) -> u64 {
        self.profile_folds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> CohortRegistry {
        CohortRegistry::new(RegistryConfig::default())
    }

    #[test]
    fn materialize_then_hit() {
        let reg = registry();
        let h = reg.materialize(1, "fp:a", "has(T90)", &[1, 5, 9]);
        assert_eq!(h.id, "c1");
        assert_eq!(h.count, 3);
        match reg.lookup("c1", 1) {
            CohortLookup::Hit(hit) => {
                assert_eq!(hit.positions.to_vec(), vec![1, 5, 9]);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(reg.materializations_total(), 1);
        assert_eq!(reg.stale_hits_total(), 0);
        assert_eq!(reg.len(), 1);
        assert!(reg.bytes() > 0);
    }

    #[test]
    fn version_bump_invalidates_on_first_touch() {
        let reg = registry();
        reg.materialize(1, "fp:a", "has(T90)", &[2, 4]);
        match reg.lookup("c1", 2) {
            CohortLookup::Stale { version, query } => {
                assert_eq!(version, 1);
                assert_eq!(query, "has(T90)");
            }
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(reg.stale_hits_total(), 1);
        // The stale handle is gone: the second touch is a plain miss.
        assert!(matches!(reg.lookup("c1", 2), CohortLookup::Missing));
        assert_eq!(reg.stale_hits_total(), 1);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.bytes(), 0);
    }

    #[test]
    fn identical_selection_deduplicates() {
        let reg = registry();
        let a = reg.materialize(1, "fp:a", "has(T90)", &[7]);
        let b = reg.materialize(1, "fp:a", "has( T90 )", &[7]);
        assert_eq!(a.id, b.id);
        assert_eq!(reg.materializations_total(), 1);
        // Same fingerprint at a NEW version is a distinct handle.
        let c = reg.materialize(2, "fp:a", "has(T90)", &[7, 8]);
        assert_ne!(a.id, c.id);
        assert_eq!(reg.materializations_total(), 2);
    }

    #[test]
    fn lru_eviction_respects_handle_bound() {
        let reg = CohortRegistry::new(RegistryConfig { max_handles: 2, max_bytes: 1 << 20 });
        reg.materialize(1, "fp:a", "a", &[1]);
        reg.materialize(1, "fp:b", "b", &[2]);
        // Touch c1 so c2 becomes the LRU victim.
        assert!(matches!(reg.lookup("c1", 1), CohortLookup::Hit(_)));
        reg.materialize(1, "fp:c", "c", &[3]);
        assert_eq!(reg.len(), 2);
        assert!(matches!(reg.lookup("c1", 1), CohortLookup::Hit(_)));
        assert!(matches!(reg.lookup("c2", 1), CohortLookup::Missing));
        assert!(matches!(reg.lookup("c3", 1), CohortLookup::Hit(_)));
    }

    #[test]
    fn byte_bound_evicts() {
        let wide: Vec<u32> = (0..4096).map(|i| i * 131).collect();
        let one = registry().materialize(1, "fp:a", "a", &wide).bytes();
        let reg = CohortRegistry::new(RegistryConfig { max_handles: 64, max_bytes: one * 3 / 2 });
        reg.materialize(1, "fp:a", "a", &wide);
        reg.materialize(1, "fp:b", "b", &wide);
        assert_eq!(reg.len(), 1, "byte bound keeps only the newest wide handle");
        assert!(matches!(reg.lookup("c2", 1), CohortLookup::Hit(_)));
        let small = CohortRegistry::new(RegistryConfig { max_handles: 64, max_bytes: one - 1 });
        assert_eq!(small.materialize(1, "fp:a", "a", &wide).count, 4096);
        assert!(small.is_empty(), "a handle over the bound by itself is not kept");
    }

    /// A read that fills a handle's profile memo grows the handle, and
    /// the registry charges it: under a bound only the filled memo
    /// crosses, the next materialization evicts the filled handle.
    #[test]
    fn a_filled_profile_memo_is_charged_and_evicted() {
        let wb = Workbench::from_collection(pastas_synth::generate_collection(
            pastas_synth::SynthConfig::with_patients(200),
            7,
        ));
        let (at, all) = (Date::new(2013, 1, 1).expect("valid"), (0..200).collect::<Vec<u32>>());
        let probe = registry().materialize(1, "fp:a", "a", &all);
        let bare = probe.bytes();
        let filled = registry().profile(&probe, &wb, at).heap_bytes() + bare;
        let reg =
            CohortRegistry::new(RegistryConfig { max_handles: 64, max_bytes: filled + bare - 1 });
        let a = reg.materialize(1, "fp:a", "a", &all);
        let _ = reg.profile(&a, &wb, at);
        assert_eq!((reg.len(), reg.bytes()), (1, filled), "the filled handle alone fits");
        reg.materialize(1, "fp:b", "b", &all);
        assert!(matches!(reg.lookup("c1", 1), CohortLookup::Missing), "the memo was charged");
        assert!(matches!(reg.lookup("c2", 1), CohortLookup::Hit(_)));
    }
}
