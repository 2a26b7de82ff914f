//! The workbench: one object holding the aggregated collection, its
//! indexes, the two ontologies, and the current view state.
//!
//! Every §IV interactive operation is a method whose wall-clock cost E8
//! benches against Shneiderman's 0.1 s budget: select, sort, align, filter,
//! zoom, hover.

use crate::cache::BoundedCache;
use pastas_ingest::{
    aggregate, entry_fingerprint, DeltaBatch, EntryFingerprint, QualityReport, SourceTexts,
};
use pastas_model::{HistoryCollection, OpenEpoch, PatientId};
use pastas_ontology::integration::IntegrationOntology;
use pastas_query::{
    align_rows, sort_histories, CodeIndex, EntryPredicate, Explain, HistoryQuery, QueryPlan,
    SortKey,
};
use pastas_regex::{ParseError, Regex};
use pastas_time::{Date, Duration};
use pastas_viz::html::{personal_timeline, PersonalTimelineOptions};
use pastas_viz::timeline::aligned_viewport;
use pastas_viz::{
    ascii, hit::HitMap, svg, AxisMode, Scene, TimelineOptions, TimelineView, Viewport,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of the mutable view state (what undo/redo restores).
#[derive(Debug, Clone)]
pub struct ViewState {
    pub(crate) order: Arc<Vec<u32>>,
    pub(crate) axis: AxisMode,
    pub(crate) filter: Option<EntryPredicate>,
}

/// Memoized selection results, keyed by the query's **canonical**
/// fingerprint (the normalized form's [`HistoryQuery::fingerprint`], via
/// [`pastas_query::plan::QueryPlan::canonical_fingerprint`]) — so
/// logically equivalent spellings (`And(a,b)` vs `And(b,a)`, `lacks(X)`
/// vs `not has(X)`) share one entry. Re-running a selection is the
/// workbench's dominant interaction; a hit skips planning, index probing
/// and candidate verification. Shared (`Arc`) between a workbench and its
/// [`Workbench::snapshot`]s — they view the same collection, so a hit from
/// any entry point warms every other — and replaced wholesale when the
/// collection changes ([`Workbench::set_collection`]), which leaves
/// snapshots of the *old* collection consistent with their own cache.
///
/// A [`BoundedCache`] of [`SELECTION_MEMO_BYTES`]: a server whose every
/// query is new would otherwise pin one position vector per query it
/// ever answered. Least recently used results leave first, so the
/// `has(pattern)` selection an alignment re-reads each view cycle
/// outlives a stream of cold selects.
///
/// Also home to the plan-path counters the serve layer exports:
/// `index_hits` counts uncached selections answered by posting-list set
/// algebra, `scan_fallbacks` those whose plan evaluated the query against
/// every history.
struct SelectionCache {
    entries: BoundedCache<Vec<u32>>,
    index_hits: AtomicU64,
    scan_fallbacks: AtomicU64,
    pattern_candidates: AtomicU64,
    pattern_automaton_runs: AtomicU64,
}

impl SelectionCache {
    fn new() -> Arc<SelectionCache> {
        Arc::new(SelectionCache {
            entries: BoundedCache::new(usize::MAX, SELECTION_MEMO_BYTES, |p| p.len() * 4),
            index_hits: AtomicU64::new(0),
            scan_fallbacks: AtomicU64::new(0),
            pattern_candidates: AtomicU64::new(0),
            pattern_automaton_runs: AtomicU64::new(0),
        })
    }

    fn count_plan_path(&self, used_full_scan: bool) {
        if used_full_scan {
            self.scan_fallbacks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_exec_stats(&self, stats: &pastas_query::plan::ExecStats) {
        if stats.pattern_candidates > 0 {
            self.pattern_candidates.fetch_add(stats.pattern_candidates, Ordering::Relaxed);
        }
        if stats.pattern_automaton_runs > 0 {
            self.pattern_automaton_runs.fetch_add(stats.pattern_automaton_runs, Ordering::Relaxed);
        }
    }
}

/// Most bytes of positions the selection memo keeps: two results the
/// size of a 1M-row collection, five of the paper's shape. A hit saves a
/// plan execution of a few milliseconds, and a client sending cold
/// selects fills any bound between two publishes — at 32 MiB that was
/// +14% peak RSS at 168k once a select took 0.6 ms instead of 4.
const SELECTION_MEMO_BYTES: usize = 8 << 20;

/// Outcome accounting of one [`Workbench::apply_ingest`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Per-patient deltas processed (across every batch).
    pub deltas_applied: usize,
    /// Entries accepted into the collection.
    pub entries_applied: usize,
    /// Entries dropped as exact duplicates of already-loaded ones (or of
    /// earlier entries in the same call), by the batch pipeline's
    /// [`entry_fingerprint`] identity.
    pub duplicates_dropped: usize,
    /// Entries dropped by the §IV pre-birth validation rule.
    pub dropped_pre_birth: usize,
    /// Distinct patients whose history changed (created or extended).
    pub patients_touched: usize,
    /// Patients appended to the collection (first appearance).
    pub patients_created: usize,
}

/// The workbench. See the crate docs for a tour.
pub struct Workbench {
    collection: HistoryCollection,
    index: Arc<CodeIndex>,
    ontology: Arc<IntegrationOntology>,
    quality: Option<QualityReport>,
    selections: Arc<SelectionCache>,
    /// `cond_masks[id]`: the [`pastas_analytics::condition_mask`] of code
    /// `CodeId(id)`, the one profile input that is not a row-table column.
    cond_masks: Arc<Vec<u32>>,
    // View state.
    /// The display order, shared with snapshots and view states until
    /// one of them writes it: a sort or an alignment replaces it, an
    /// ingest that appends patients copies it, and anything else shares.
    order: Arc<Vec<u32>>,
    axis: AxisMode,
    filter: Option<EntryPredicate>,
}

/// `masks` extended to every code of `collection`'s dictionary (shared
/// if it has them all); the dictionary only grows, so ids keep their masks.
fn grow_masks(
    masks: &Arc<Vec<u32>>,
    collection: &HistoryCollection,
    ontology: &IntegrationOntology,
) -> Arc<Vec<u32>> {
    let (mut masks, codes) = (Arc::clone(masks), collection.dictionary().iter());
    if codes.len() > masks.len() {
        let fresh =
            codes.skip(masks.len()).map(|code| pastas_analytics::condition_mask(ontology, code));
        Arc::make_mut(&mut masks).extend(fresh);
    }
    masks
}

impl Workbench {
    /// Build from an already-aggregated collection.
    pub fn from_collection(collection: HistoryCollection) -> Workbench {
        let index = Arc::new(CodeIndex::build(&collection));
        let order = Arc::new((0..collection.len() as u32).collect());
        let ontology = Arc::new(IntegrationOntology::new());
        let cond_masks = grow_masks(&Arc::default(), &collection, &ontology);
        Workbench {
            collection,
            index,
            ontology,
            quality: None,
            selections: SelectionCache::new(),
            cond_masks,
            order,
            axis: AxisMode::Calendar,
            filter: None,
        }
    }

    /// Replace the collection: rebuilds the index, resets the display
    /// order and axis (old positions are meaningless against the new
    /// data), and invalidates the selection cache. The filter is kept —
    /// it is position-independent.
    ///
    /// The old selection cache is *replaced*, not cleared: snapshots taken
    /// before the swap ([`Self::snapshot`]) still reference it together
    /// with the old collection, and stay internally consistent.
    pub fn set_collection(&mut self, collection: HistoryCollection) {
        self.index = Arc::new(CodeIndex::build(&collection));
        self.order = Arc::new((0..collection.len() as u32).collect());
        self.axis = AxisMode::Calendar;
        self.cond_masks = grow_masks(&Arc::default(), &collection, &self.ontology);
        self.collection = collection;
        self.selections = SelectionCache::new();
    }

    /// Apply parsed ingest deltas ([`pastas_ingest::parse_delta`])
    /// incrementally — the streaming alternative to
    /// [`Self::set_collection`]'s full rebuild.
    ///
    /// Entries dedup against the already-loaded collection (and each
    /// other) with the batch pipeline's [`entry_fingerprint`] identity,
    /// stage in a [`OpenEpoch`] (which applies the §IV pre-birth rule),
    /// and seal into the collection: existing patients keep their
    /// display position and code ids, new patients append at the end of
    /// the display order. Sealing writes the touched rows' columns, digest
    /// included, into copies of their row chunks. The code index is
    /// patched by [`CodeIndex::with_delta`] — only the postings the
    /// touched rows join or leave are copied, every other one is shared —
    /// the condition masks grow by the codes the dictionary gained, and
    /// the selection cache is replaced (snapshots of the old collection
    /// keep the old one).
    pub fn apply_ingest(&mut self, batches: &[DeltaBatch]) -> IngestStats {
        let mut stats = IngestStats::default();
        let mut epoch = OpenEpoch::new();
        // Per-patient fingerprints of already-loaded entries, extended
        // with each accepted delta entry so duplicates are dropped both
        // against the collection and within this call.
        let mut known: HashMap<u64, HashSet<EntryFingerprint>> = HashMap::new();
        for batch in batches {
            for delta in &batch.deltas {
                stats.deltas_applied += 1;
                let pid = delta.patient.id;
                let seen = known.entry(pid.0).or_insert_with(|| {
                    self.collection
                        .get(pid)
                        .map(|h| {
                            h.entries()
                                .iter()
                                .map(|e| entry_fingerprint(pid.0, &e.to_entry()))
                                .collect()
                        })
                        .unwrap_or_default()
                });
                let mut fresh = Vec::with_capacity(delta.entries.len());
                for e in &delta.entries {
                    if seen.insert(entry_fingerprint(pid.0, e)) {
                        fresh.push(e.clone());
                    } else {
                        stats.duplicates_dropped += 1;
                    }
                }
                // A delta that nets out to nothing for a patient we
                // already hold (a replayed batch, a re-registration) must
                // not dirty the row: replaying an increment is a no-op.
                if fresh.is_empty() && self.collection.get(pid).is_some() {
                    continue;
                }
                let report = epoch.append(delta.patient, fresh);
                stats.entries_applied += report.accepted;
                stats.dropped_pre_birth += report.dropped_pre_birth;
            }
        }
        let rows_before = self.collection.len();
        let touched = epoch.seal_into(&mut self.collection);
        stats.patients_touched = touched.len();
        stats.patients_created = self.collection.len() - rows_before;
        if touched.is_empty() {
            return stats;
        }
        let dirty: Vec<u32> = touched
            .iter()
            .map(|&id| {
                // every id in `touched` was sealed into the collection in the loop above
                self.collection.position_of(id).expect("sealed patient has a position") as u32
            })
            .collect();
        self.index = Arc::new(self.index.with_delta(&self.collection, &dirty));
        self.cond_masks = grow_masks(&self.cond_masks, &self.collection, &self.ontology);
        self.selections = SelectionCache::new();
        // Appended patients join the end of the display order (copying
        // it if a snapshot shares it); existing rows keep their
        // positions, so the current sort/alignment stays meaningful.
        if self.collection.len() > rows_before {
            Arc::make_mut(&mut self.order).extend(rows_before as u32..self.collection.len() as u32);
        }
        // Fold the parse/linkage accounting into the quality report.
        let quality = self.quality.get_or_insert_with(QualityReport::default);
        for batch in batches {
            quality.absorb(batch);
        }
        quality.duplicates_dropped += stats.duplicates_dropped;
        quality.dropped_pre_birth += stats.dropped_pre_birth;
        quality.entries_loaded += stats.entries_applied;
        stats
    }

    /// Does nothing and returns false: [`Self::apply_ingest`] leaves no
    /// fold to do. Kept for `benchmark/src/replay.rs`.
    pub fn compact(&mut self) -> bool {
        false
    }

    /// A cheap immutable snapshot sharing all heavy state: the
    /// collection's row chunks and id sub-maps (one pointer each,
    /// copy-on-write), code index, ontology, selection cache, condition
    /// masks, display order and alignment are `Arc`-shared, so nothing
    /// is copied or touched per history; the collection summary and the
    /// filter come along by value. The snapshot and the original diverge
    /// freely afterwards: whichever writes a shared part copies that part
    /// (a row chunk, the order) and only that.
    ///
    /// This is the serving layer's unit of publication: readers hold a
    /// snapshot and never block a writer that is building the next one.
    pub fn snapshot(&self) -> Workbench {
        Workbench {
            collection: self.collection.clone(),
            index: Arc::clone(&self.index),
            ontology: Arc::clone(&self.ontology),
            quality: self.quality.clone(),
            selections: Arc::clone(&self.selections),
            cond_masks: Arc::clone(&self.cond_masks),
            order: Arc::clone(&self.order),
            axis: self.axis.clone(),
            filter: self.filter.clone(),
        }
    }

    /// Apply a replayable view command (the programmatic face of the §IV
    /// interactions — also the `POST /command` endpoint's engine). Invalid
    /// parameters (e.g. a bad regex) return an error without changing
    /// state.
    pub fn apply_command(
        &mut self,
        command: &crate::session::ViewCommand,
    ) -> Result<(), crate::error::CoreError> {
        use crate::session::ViewCommand;
        match command {
            ViewCommand::Sort(key) => self.sort(key),
            ViewCommand::AlignOnCode(pattern) => {
                self.align_on_code(pattern)?;
            }
            ViewCommand::ClearAlignment => self.clear_alignment(),
            ViewCommand::SetFilter(f) => self.set_filter(f.clone()),
        }
        Ok(())
    }

    /// Deep invariant check (debug builds only; a no-op in release): the
    /// collection's own check (id map, row and digest columns against a
    /// rebuild, maintained summary against the from-entries walk), the
    /// selection memo's bounds, and the condition masks against the
    /// dictionary's codes.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        self.collection.debug_validate();
        self.selections.entries.debug_validate();
        let masks = grow_masks(&Arc::default(), &self.collection, &self.ontology);
        assert!(masks == self.cond_masks, "workbench: condition masks drifted from the dictionary");
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// Number of memoized selections.
    pub fn selection_cache_len(&self) -> usize {
        self.selections.entries.len()
    }

    /// Bytes of memoized selection positions.
    pub fn selection_cache_bytes(&self) -> usize {
        self.selections.entries.bytes()
    }

    /// Selection-cache hits since this collection was installed.
    pub fn selection_cache_hits(&self) -> u64 {
        self.selections.entries.hits()
    }

    /// Selection-cache misses since this collection was installed.
    pub fn selection_cache_misses(&self) -> u64 {
        self.selections.entries.misses()
    }

    /// Uncached selections whose physical plan was served by posting-list
    /// set algebra (no full-scan operator anywhere in the tree).
    pub fn select_index_hits(&self) -> u64 {
        self.selections.index_hits.load(Ordering::Relaxed)
    }

    /// Uncached selections whose physical plan fell back to evaluating
    /// the query against every history.
    pub fn select_scan_fallbacks(&self) -> u64 {
        self.selections.scan_fallbacks.load(Ordering::Relaxed)
    }

    /// Histories that survived temporal-pattern index prefilters and were
    /// handed to a pattern scan, summed over uncached selections.
    pub fn pattern_candidates(&self) -> u64 {
        self.selections.pattern_candidates.load(Ordering::Relaxed)
    }

    /// Temporal-pattern scans across uncached selections (one per
    /// candidate verified).
    pub fn pattern_automaton_runs(&self) -> u64 {
        self.selections.pattern_automaton_runs.load(Ordering::Relaxed)
    }

    /// Build by running the full heterogeneous-source aggregation pipeline.
    pub fn from_raw_sources(sources: SourceTexts<'_>) -> Workbench {
        let (collection, quality) = aggregate(sources);
        let mut wb = Workbench::from_collection(collection);
        wb.quality = Some(quality);
        wb
    }

    /// The aggregated collection.
    pub fn collection(&self) -> &HistoryCollection {
        &self.collection
    }

    /// The data-quality report, when built from raw sources.
    pub fn quality(&self) -> Option<&QualityReport> {
        self.quality.as_ref()
    }

    /// The integration & alignment ontology.
    pub fn ontology(&self) -> &IntegrationOntology {
        &self.ontology
    }

    /// The inverted code index.
    pub fn index(&self) -> &CodeIndex {
        &self.index
    }

    /// Current display order (history positions).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Snapshot the current view state (order, axis mode, filter) — the
    /// unit of undo/redo in [`crate::session::Session`].
    pub fn view_state(&self) -> ViewState {
        ViewState {
            order: Arc::clone(&self.order),
            axis: self.axis.clone(),
            filter: self.filter.clone(),
        }
    }

    /// Restore a previously captured view state.
    pub fn restore_view_state(&mut self, state: ViewState) {
        self.order = state.order;
        self.axis = state.axis;
        self.filter = state.filter;
    }

    // ------------------------------------------------------------------
    // Cohort identification (§IV: "extraction of sub-collections")
    // ------------------------------------------------------------------

    /// Positions of histories matching the query (planner-accelerated and
    /// memoized — repeating a selection on an unchanged collection is a
    /// cache hit, and the cache keys on the *canonical* fingerprint, so
    /// commuted or double-negated spellings of one query also hit). A hit
    /// costs one normalization; the plan is built on a miss only.
    pub fn select_positions(&self, query: &HistoryQuery) -> Vec<u32> {
        let normalized = pastas_query::normalize(query);
        let fingerprint = normalized.fingerprint();
        if let Some(hit) = self.selections.entries.get(&fingerprint) {
            return hit;
        }
        let plan = QueryPlan::from_normalized(
            &self.index,
            &self.collection,
            &normalized,
            fingerprint.clone(),
        );
        self.selections.count_plan_path(plan.uses_full_scan());
        let (positions, stats) = plan.execute_stats(&self.collection, &self.index);
        self.selections.count_exec_stats(&stats);
        self.selections.entries.put(fingerprint, positions.clone());
        positions
    }

    /// Like [`Self::select_positions`], but always executes the physical
    /// plan (bypassing the memo for the result — the cache still learns
    /// it) and returns the executed [`Explain`] tree alongside the
    /// positions: per-operator candidate counts and timings, the payload
    /// behind `pastas-serve`'s `/select?explain=1`.
    pub fn select_explain(&self, query: &HistoryQuery) -> (Vec<u32>, Explain) {
        let plan = QueryPlan::build(&self.index, &self.collection, query);
        self.selections.count_plan_path(plan.uses_full_scan());
        let (positions, explain, stats) = plan.execute_explain_stats(&self.collection, &self.index);
        self.selections.count_exec_stats(&stats);
        self.selections.entries.put(plan.canonical_fingerprint().to_owned(), positions.clone());
        (positions, explain)
    }

    /// Extract the matching sub-collection into a new workbench. The
    /// sub-collection shares the selected histories' arenas with this one
    /// (O(matches) 32-byte row copies — no entry data is cloned).
    pub fn select(&self, query: &HistoryQuery) -> Workbench {
        let positions = self.select_positions(query);
        let histories = self.collection.histories();
        let sub = HistoryCollection::from_histories(
            positions.iter().filter_map(|&i| histories.get(i as usize)).cloned(),
        );
        Workbench::from_collection(sub)
    }

    /// [`pastas_query::canonical_fingerprint`] (no plan is built): the
    /// selection memo's key and the registry's dedup key — commuted or
    /// double-negated spellings of one selection share a handle.
    pub fn canonical_query_fingerprint(&self, query: &HistoryQuery) -> String {
        pastas_query::canonical_fingerprint(query)
    }

    /// The nine-dimension composition profile of the cohort at
    /// `positions` (sorted history positions, e.g. a
    /// [`Self::select_positions`] result or a materialized handle's
    /// decoded bitmap), aged against `reference`: one parallel fold over
    /// `positions.len()` rows of the row table's columns and the
    /// condition masks — see `pastas-analytics`. Reads no entry and does
    /// **not** touch the planner or the selection cache.
    pub fn cohort_profile(
        &self,
        positions: &[u32],
        reference: Date,
        top_k: usize,
    ) -> pastas_analytics::CohortProfile {
        pastas_analytics::cohort_profile(
            &self.collection,
            &self.cond_masks,
            positions,
            reference,
            top_k,
        )
    }

    /// Monthly event counts of the cohort at `positions` (gap-filled,
    /// first-of-month keyed) — the cohort-level timeline: one parallel
    /// fold over the cohort's month runs, a column of the row table.
    pub fn cohort_monthly(&self, positions: &[u32]) -> Vec<(Date, u64)> {
        pastas_analytics::cohort_monthly(&self.collection, positions)
    }

    /// Patient ids matching the query.
    pub fn select_ids(&self, query: &HistoryQuery) -> Vec<PatientId> {
        let histories = self.collection.histories();
        self.select_positions(query).into_iter().map(|i| histories[i as usize].id()).collect()
    }

    // ------------------------------------------------------------------
    // View operations (§IV: sorting, aligning, filtering)
    // ------------------------------------------------------------------

    /// Re-sort the display order.
    pub fn sort(&mut self, key: &SortKey) {
        self.order = Arc::new(sort_histories(&self.collection, key));
    }

    /// Group the display order by trajectory similarity: cluster the
    /// diagnosis sequences (alignment distance, agglomerative linkage)
    /// into `k` groups and order rows cluster-by-cluster, each cluster led
    /// by its medoid (the "typical trajectory").
    ///
    /// O(n²) alignments — intended for cohort views of up to a few hundred
    /// rows; returns the per-history cluster assignment in display order.
    pub fn sort_by_similarity(&mut self, k: usize) -> Vec<usize> {
        use pastas_align::cluster::{agglomerative, distance_matrix, medoids};
        let sequences: Vec<Vec<pastas_codes::Code>> = self
            .collection
            .iter()
            .map(|h| h.diagnosis_sequence().into_iter().cloned().collect())
            .collect();
        let matrix = distance_matrix(&sequences, &pastas_align::Scoring::default());
        let assignment = agglomerative(&matrix, k);
        let meds = medoids(&matrix, &assignment);
        let mut order: Vec<u32> = (0..self.collection.len() as u32).collect();
        order.sort_by_key(|&i| {
            let i = i as usize;
            let cluster = assignment[i];
            // Medoid first within its cluster, then original order.
            (cluster, if meds.get(cluster) == Some(&i) { 0usize } else { 1 }, i)
        });
        let assignment_in_order: Vec<usize> =
            order.iter().map(|&i| assignment[i as usize]).collect();
        self.order = Arc::new(order);
        assignment_in_order
    }

    /// Align on the first entry whose code matches `pattern`; switches the
    /// axis to aligned mode and orders rows by anchor, unanchored
    /// histories last. Only the rows of the memoized `has(pattern)`
    /// selection are read, with the pattern bound once to the code
    /// dictionary ([`align_rows`]).
    pub fn align_on_code(&mut self, pattern: &str) -> Result<usize, ParseError> {
        let re = Regex::new(pattern)?;
        let candidates =
            self.select_positions(&HistoryQuery::any(EntryPredicate::CodeMatches(re.clone())));
        let (alignment, order) = align_rows(&self.collection, &re, &candidates);
        let n = alignment.len();
        self.order = Arc::new(order);
        self.axis = AxisMode::Aligned(alignment);
        Ok(n)
    }

    /// Back to calendar mode.
    pub fn clear_alignment(&mut self) {
        self.axis = AxisMode::Calendar;
    }

    /// Set (or clear) the event filter.
    pub fn set_filter(&mut self, filter: Option<EntryPredicate>) {
        self.filter = filter;
    }

    /// True if currently in aligned mode.
    pub fn is_aligned(&self) -> bool {
        self.axis.is_aligned()
    }

    // ------------------------------------------------------------------
    // Rendering
    // ------------------------------------------------------------------

    /// A default viewport covering the whole collection (calendar mode,
    /// from the extremes the collection's summary holds) or ±24 months
    /// (aligned mode), showing up to 40 rows.
    pub fn default_viewport(&self, width_px: f64, height_px: f64) -> Viewport {
        let rows = (self.collection.len() as f64).clamp(1.0, 40.0);
        match &self.axis {
            AxisMode::Aligned(_) => aligned_viewport(24, 24, rows, width_px, height_px),
            AxisMode::Calendar => {
                let stats = self.collection.stats();
                let (from, to) = match (stats.first, stats.last) {
                    (Some(a), Some(b)) if a < b => (a, b),
                    (Some(a), _) => (a, a + Duration::days(365)),
                    _ => {
                        // literal 2013-01-01 is a valid date
                        let d = pastas_time::Date::new(2013, 1, 1).expect("valid");
                        (d.at_midnight(), d.add_days(730).at_midnight())
                    }
                };
                let margin = Duration::days(((to - from).whole_days() / 30).max(7));
                Viewport::new(from + -margin, to + margin, rows, width_px, height_px)
            }
        }
    }

    /// The current view.
    fn view(&self) -> TimelineView<'_> {
        let opts = TimelineOptions {
            axis: self.axis.clone(),
            filter: self.filter.clone(),
            ..TimelineOptions::default()
        };
        TimelineView::new(&self.collection, opts).with_order(&self.order)
    }

    /// Lay out the current view, with its hit map.
    pub fn layout(&self, viewport: &Viewport) -> (Scene, HitMap) {
        self.view().layout(viewport)
    }

    /// Render the current view as SVG at the given canvas size.
    pub fn render_svg(&self, width_px: f64, height_px: f64) -> String {
        svg::render(&self.view().scene(&self.default_viewport(width_px, height_px)))
    }

    /// Render the overview density mode ("Overview first"): the whole
    /// collection as a blocks × buckets density matrix — the view that
    /// stays readable when the cohort has more histories than pixel rows.
    pub fn render_overview_svg(&self, width_px: f64, height_px: f64) -> String {
        use pastas_viz::overview::{density, render_overview, OverviewOptions};
        let stats = self.collection.stats();
        let (Some(from), Some(to)) = (stats.first, stats.last) else {
            return svg::render(&Scene::new(width_px, height_px));
        };
        let m = density(
            &self.collection,
            &self.order,
            from,
            to,
            self.filter.as_ref(),
            &OverviewOptions::default(),
        );
        svg::render(&render_overview(&m, width_px, height_px))
    }

    /// Render the current view as terminal text.
    pub fn render_ascii(&self, cols: usize, rows: usize) -> String {
        let vp = self.default_viewport(cols as f64 * 8.0, rows as f64 * 16.0);
        ascii::render(&self.view().scene(&vp), cols, rows)
    }

    /// Details-on-demand: the entry description under a cursor position in
    /// the default viewport.
    pub fn details_at(&self, viewport: &Viewport, x: f64, y: f64) -> Option<String> {
        let (_, hits) = self.layout(viewport);
        hits.hit_test(x, y).map(|r| r.details.clone())
    }

    /// Export one patient's interactive personal timeline (pastas.no).
    pub fn export_personal_timeline(&self, id: PatientId) -> Option<String> {
        let history = self.collection.get(id)?;
        let opts = PersonalTimelineOptions {
            title: format!("Health timeline for {id}"),
            ..PersonalTimelineOptions::default()
        };
        Some(personal_timeline(history, &opts))
    }

    /// The conditions (per the integration ontology) present anywhere in a
    /// patient's history.
    pub fn conditions_of(&self, id: PatientId) -> Vec<&'static str> {
        let Some(history) = self.collection.get(id) else {
            return Vec::new();
        };
        let mut out: Vec<&'static str> = history
            .entries()
            .iter()
            .filter_map(|e| e.code())
            .flat_map(|c| self.ontology.conditions_of(c))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_query::QueryBuilder;
    use pastas_synth::{generate_collection, SynthConfig};

    fn wb() -> Workbench {
        Workbench::from_collection(generate_collection(SynthConfig::with_patients(300), 19))
    }

    #[test]
    fn selection_shrinks_the_cohort() {
        let wb = wb();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let cohort = wb.select(&q);
        assert!(!cohort.collection().is_empty());
        assert!(cohort.collection().len() < 300);
        // Every selected patient really has the code.
        for h in cohort.collection() {
            assert!(h.entries().iter().any(|e| e.code().is_some_and(|c| c.value == "T90")));
        }
    }

    #[test]
    fn selection_ids_match_positions() {
        let wb = wb();
        let q = QueryBuilder::new().has_code("K86").unwrap().build();
        let ids = wb.select_ids(&q);
        let positions = wb.select_positions(&q);
        assert_eq!(ids.len(), positions.len());
    }

    #[test]
    fn repeated_selection_hits_the_cache() {
        let wb = wb();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let first = wb.select_positions(&q);
        assert_eq!(wb.selection_cache_len(), 1);
        let second = wb.select_positions(&q);
        assert_eq!(first, second);
        assert_eq!(wb.selection_cache_len(), 1, "same fingerprint, one entry");
        // A structurally different query is a different fingerprint.
        let q2 = QueryBuilder::new().has_code("K86").unwrap().build();
        let _ = wb.select_positions(&q2);
        assert_eq!(wb.selection_cache_len(), 2);
    }

    /// The memo key comes from normalization alone — it equals the key a
    /// built plan reports, for every spelling — and a memo hit neither
    /// plans nor counts a plan path.
    #[test]
    fn memo_key_is_the_plan_fingerprint_and_a_hit_plans_nothing() {
        let wb = wb();
        let at = pastas_time::Date::new(2013, 1, 1).unwrap();
        for text in [
            "has(T90) and lacks(K86) and age(40..90)",
            "age(40..90) and lacks(K86) and has(T90)",
            "not not has(T90)",
            "lacks(T90)",
            "not has(T90)",
            "not (has(T90) or sex(F))",
            "seq(T90 then[0d..3650d] K74|K86)",
            "not seq(T90 then medication)",
        ] {
            let q = pastas_query::parse_query(text, at).unwrap();
            let plan = QueryPlan::build(wb.index(), wb.collection(), &q);
            assert_eq!(wb.canonical_query_fingerprint(&q), plan.canonical_fingerprint(), "{text}");
            let first = wb.select_positions(&q);
            let planned = wb.select_index_hits() + wb.select_scan_fallbacks();
            let hits = wb.selection_cache_hits();
            assert_eq!(wb.select_positions(&q), first, "{text}");
            assert_eq!(wb.selection_cache_hits(), hits + 1, "{text}");
            assert_eq!(wb.select_index_hits() + wb.select_scan_fallbacks(), planned, "{text}");
        }
    }

    /// The selection memo evicts the least recently used result: a hit
    /// refreshes recency, so the result re-read (as `align` re-reads its
    /// `has(pattern)` every view cycle) outlives colder ones inserted
    /// after it.
    #[test]
    fn a_selection_memo_hit_refreshes_recency() {
        let wb = wb();
        let memo = &wb.selections.entries;
        let third = SELECTION_MEMO_BYTES / 4 / 3;
        for key in ["a", "b", "c"] {
            memo.put(key.to_owned(), vec![0; third]);
        }
        assert!(memo.get("a").is_some());
        memo.put("d".to_owned(), vec![0; third]);
        let held: Vec<bool> = ["a", "b", "c", "d"].iter().map(|k| memo.get(k).is_some()).collect();
        assert_eq!(held, [true, false, true, true], "b, not the re-read a, left");
        assert_eq!(wb.selection_cache_bytes(), third * 12);
    }

    #[test]
    fn commuted_clauses_hit_the_same_cache_entry() {
        let wb = wb();
        let at = pastas_time::Date::new(2013, 1, 1).unwrap();
        let ab = QueryBuilder::new().has_code("T90").unwrap().age_between(at, 40, 90).build();
        let ba = QueryBuilder::new().age_between(at, 40, 90).has_code("T90").unwrap().build();
        let first = wb.select_positions(&ab);
        assert_eq!(wb.selection_cache_misses(), 1);
        let second = wb.select_positions(&ba);
        assert_eq!(first, second);
        assert_eq!(wb.selection_cache_len(), 1, "one canonical entry for both spellings");
        assert_eq!(wb.selection_cache_hits(), 1, "commuted query is a cache hit");
        // `lacks(X)` and `not has(X)` also share an entry.
        let lacks = QueryBuilder::new().lacks_code("T90").unwrap().build();
        let not_has =
            HistoryQuery::Not(Box::new(QueryBuilder::new().has_code("T90").unwrap().build()));
        assert_eq!(wb.select_positions(&lacks), wb.select_positions(&not_has));
        assert_eq!(wb.selection_cache_len(), 2);
    }

    #[test]
    fn pattern_counters_accumulate_over_selections() {
        use pastas_query::{GapBound, TemporalPattern};
        use pastas_time::Duration;
        let wb = wb();
        assert_eq!(wb.pattern_candidates(), 0);
        let pred = |p: &str| pastas_query::EntryPredicate::code_regex(p).unwrap();
        let pat = TemporalPattern::starting_with(pred("T90"))
            .then(GapBound::within(Duration::days(3650)), pred("K74|K86|K87"));
        let q = QueryBuilder::new().pattern(pat).build();
        let first = wb.select_positions(&q);
        let after_one = wb.pattern_candidates();
        assert!(after_one > 0, "prefiltered candidates reached the pattern scan");
        assert_eq!(wb.pattern_automaton_runs(), after_one);
        // A cache hit re-runs nothing: the counters stand still.
        assert_eq!(wb.select_positions(&q), first);
        assert_eq!(wb.pattern_candidates(), after_one);
        // Explain bypasses the memo, so it executes and counts again.
        let _ = wb.select_explain(&q);
        assert_eq!(wb.pattern_candidates(), after_one * 2);
    }

    #[test]
    fn plan_path_counters_distinguish_index_from_scan() {
        let wb = wb();
        // Compound query with a negated code clause: pure set algebra.
        let indexed =
            QueryBuilder::new().has_code("K.*").unwrap().lacks_code("T90").unwrap().build();
        let _ = wb.select_positions(&indexed);
        assert_eq!(wb.select_index_hits(), 1);
        assert_eq!(wb.select_scan_fallbacks(), 0);
        // A demographic query is served from the demographic row column.
        let demographic = QueryBuilder::new().sex(pastas_model::Sex::Female).build();
        let _ = wb.select_positions(&demographic);
        assert_eq!(wb.select_index_hits(), 2);
        assert_eq!(wb.select_scan_fallbacks(), 0);
        // A count without a code cover: nothing for the index to serve.
        let residual = QueryBuilder::new().count_at_least(EntryPredicate::IsDiagnosis, 3).build();
        let _ = wb.select_positions(&residual);
        assert_eq!(wb.select_scan_fallbacks(), 1);
        // A cache hit re-runs no plan and moves neither counter.
        let _ = wb.select_positions(&indexed);
        assert_eq!(wb.select_index_hits(), 2);
        assert_eq!(wb.select_scan_fallbacks(), 1);
    }

    #[test]
    fn select_explain_reports_the_executed_operators() {
        let wb = wb();
        let q = QueryBuilder::new().has_code("K.*").unwrap().lacks_code("T90").unwrap().build();
        let (positions, explain) = wb.select_explain(&q);
        assert_eq!(positions, wb.select_positions(&q));
        assert!(!explain.used_full_scan(), "{}", explain.render_text());
        assert_eq!(explain.root.rows, positions.len());
        // The explain run warmed the cache for the plain path.
        assert_eq!(wb.selection_cache_hits(), 1);
    }

    #[test]
    fn set_collection_invalidates_the_selection_cache() {
        let mut wb = wb();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let before = wb.select_positions(&q);
        assert!(!before.is_empty());
        wb.set_collection(generate_collection(SynthConfig::with_patients(50), 7));
        assert_eq!(wb.selection_cache_len(), 0, "cache cleared");
        let after = wb.select_positions(&q);
        // Fresh result against the new collection, not a stale replay.
        assert!(after.iter().all(|&i| (i as usize) < wb.collection().len()));
        assert_eq!(wb.collection().len(), 50);
        assert_eq!(wb.order().len(), 50, "order reset to the new collection");
    }

    #[test]
    fn alignment_switches_axis_and_counts_anchors() {
        let mut wb = wb();
        assert!(!wb.is_aligned());
        let n = wb.align_on_code("T90").unwrap();
        assert!(wb.is_aligned());
        assert!(n > 0 && n < 300);
        wb.clear_alignment();
        assert!(!wb.is_aligned());
    }

    #[test]
    fn bad_pattern_is_an_error_not_a_panic() {
        let mut wb = wb();
        assert!(wb.align_on_code("T90[").is_err());
    }

    #[test]
    fn svg_and_ascii_rendering() {
        let wb = wb();
        let svg = wb.render_svg(800.0, 400.0);
        assert!(svg.contains("<svg") && svg.contains("viz-Row-bar"));
        let text = wb.render_ascii(100, 30);
        assert_eq!(text.lines().count(), 30);
        assert!(text.contains('─'), "row bars render");
    }

    #[test]
    fn details_on_demand_via_the_workbench() {
        let wb = wb();
        let vp = wb.default_viewport(800.0, 400.0);
        let (_, hits) = wb.layout(&vp);
        let some = hits.iter().next().expect("at least one entry drawn");
        let cx = (some.bbox.0 + some.bbox.2) / 2.0;
        let cy = (some.bbox.1 + some.bbox.3) / 2.0;
        let details = wb.details_at(&vp, cx, cy).expect("hit");
        assert!(!details.is_empty());
    }

    #[test]
    fn personal_timeline_export() {
        let wb = wb();
        let id = wb.collection().histories()[0].id();
        let page = wb.export_personal_timeline(id).unwrap();
        assert!(page.contains("<svg"));
        assert!(page.contains(&id.to_string()));
        assert!(wb.export_personal_timeline(PatientId(999_999)).is_none());
    }

    #[test]
    fn ontology_backed_condition_summary() {
        let wb = wb();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let ids = wb.select_ids(&q);
        let conditions = wb.conditions_of(ids[0]);
        assert!(conditions.contains(&"Diabetes"), "{conditions:?}");
    }

    #[test]
    fn sort_changes_order() {
        let mut wb = wb();
        let before = wb.order().to_vec();
        wb.sort(&SortKey::EntryCount);
        let after = wb.order().to_vec();
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "order should change for a varied cohort");
    }

    #[test]
    fn similarity_sort_groups_clusters_contiguously() {
        let wb0 = wb();
        let q = QueryBuilder::new().has_code("T90|R95").unwrap().build();
        let mut cohort = wb0.select(&q);
        let n = cohort.collection().len();
        assert!(n > 4, "need a few histories");
        let assignment = cohort.sort_by_similarity(3);
        assert_eq!(assignment.len(), n);
        // Cluster ids appear as contiguous runs in display order.
        let mut seen = Vec::new();
        for c in &assignment {
            if seen.last() != Some(c) {
                assert!(!seen.contains(c), "cluster {c} split across runs: {assignment:?}");
                seen.push(*c);
            }
        }
        assert!(seen.len() <= 3);
    }

    #[test]
    fn quality_report_flows_through_from_raw_sources() {
        use pastas_synth::emit::{emit, MessConfig};
        use pastas_synth::generate_population;
        let pop = generate_population(SynthConfig::with_patients(80), 3);
        let raw = emit(&pop, MessConfig::default());
        let wb = Workbench::from_raw_sources(SourceTexts {
            persons: &raw.persons,
            claims: &raw.claims,
            hospital: &raw.hospital,
            municipal: &raw.municipal,
            prescriptions: &raw.prescriptions,
        });
        assert_eq!(wb.collection().len(), 80);
        let q = wb.quality().expect("quality report");
        assert!(q.entries_loaded > 0);
    }

    #[test]
    fn apply_ingest_extends_the_collection_and_invalidates_selections() {
        use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
        let mut wb = wb();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let before = wb.select_positions(&q);
        assert_eq!(wb.selection_cache_len(), 1);
        let mut registry = IdentityRegistry::new();
        let persons = parse_delta(
            DeltaFormat::Persons,
            "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n",
            &mut registry,
        );
        let claims = parse_delta(
            DeltaFormat::Claims,
            "claim_id;patient;date;provider;icpc;note\nK1;NIN-0900001;04.05.2013;GP;T90;\n",
            &mut registry,
        );
        let stats = wb.apply_ingest(&[persons, claims]);
        assert_eq!(stats.patients_created, 1);
        assert_eq!(stats.patients_touched, 1);
        assert_eq!(stats.entries_applied, 1);
        assert_eq!(wb.collection().len(), 301);
        assert_eq!(wb.order().len(), 301, "appended row joins the display order");
        assert_eq!(wb.selection_cache_len(), 0, "selection cache replaced");
        let after = wb.select_positions(&q);
        assert_eq!(after.len(), before.len() + 1, "new T90 patient is selectable");
        // Re-sending the same delta is a no-op thanks to fingerprint dedup.
        let mut registry2 = IdentityRegistry::new();
        parse_delta(
            DeltaFormat::Persons,
            "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n",
            &mut registry2,
        );
        let replay = parse_delta(
            DeltaFormat::Claims,
            "claim_id;patient;date;provider;icpc;note\nK1;NIN-0900001;04.05.2013;GP;T90;\n",
            &mut registry2,
        );
        let stats = wb.apply_ingest(&[replay]);
        assert_eq!(stats.entries_applied, 0);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(wb.collection().len(), 301);
    }

    /// The display order is shared until something writes it: a snapshot
    /// and an ingest that only extends known patients share it, an ingest
    /// that appends a patient copies it (the snapshot keeps its own), and
    /// a sort replaces it. Neither ingest copies a row chunk it does not
    /// touch.
    #[test]
    fn the_display_order_is_copied_only_when_written() {
        use pastas_codes::Code;
        use pastas_ingest::PatientDelta;
        use pastas_model::{Entry, Payload, SourceKind};
        let wb = wb();
        let shared = |a: &Workbench, b: &Workbench| std::ptr::eq(a.order(), b.order());
        let mut next = wb.snapshot();
        assert!(shared(&wb, &next), "a snapshot shares the order");
        let event = Entry::event(
            Date::new(2014, 3, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        );
        let known = *wb.collection().histories()[5].patient();
        let batch = |patient| DeltaBatch {
            deltas: vec![PatientDelta { patient, entries: vec![event.clone()] }],
            ..DeltaBatch::default()
        };
        assert_eq!(next.apply_ingest(&[batch(known)]).patients_created, 0);
        assert!(shared(&wb, &next), "extending a known patient shares the order");
        let copied = next.collection().row_bytes_copied_from(wb.collection());
        assert!(copied > 0 && copied <= next.collection().row_bytes_at(&[5]), "row 5's chunk");
        let newcomer = pastas_model::Patient { id: PatientId(900_001), ..known };
        assert_eq!(next.apply_ingest(&[batch(newcomer)]).patients_created, 1);
        assert!(!shared(&wb, &next), "an append copies the order");
        assert_eq!((wb.order().len(), next.order().len()), (300, 301));
        let mut sorted = next.snapshot();
        sorted.sort(&SortKey::EntryCount);
        assert!(!shared(&next, &sorted) && shared(&next, &next.snapshot()));
        next.debug_validate();
    }

    /// One ingest batch of T90-style diagnosis events: `(patient, code,
    /// day of March 2014)` per delta.
    fn diagnosis_batch(deltas: &[(pastas_model::Patient, pastas_codes::Code, u32)]) -> DeltaBatch {
        use pastas_ingest::PatientDelta;
        use pastas_model::{Entry, Payload, SourceKind};
        DeltaBatch {
            deltas: deltas
                .iter()
                .map(|(patient, code, day)| PatientDelta {
                    patient: *patient,
                    entries: vec![Entry::event(
                        Date::new(2014, 3, *day).unwrap().at_midnight(),
                        Payload::Diagnosis(code.clone()),
                        SourceKind::PrimaryCare,
                    )],
                })
                .collect(),
            ..DeltaBatch::default()
        }
    }

    /// An ingest publish writes the touched rows' digest columns: the
    /// first cohort read after it folds them, a snapshot from before reads
    /// its own rows, and a collection swap brings its own masks.
    #[test]
    fn ingest_publishes_carry_the_digest_column() {
        use pastas_codes::Code;
        let mut wb = wb();
        let reference = Date::new(2014, 12, 31).unwrap();
        let reader = wb.snapshot();
        let before = reader.cohort_profile(&[5, 250], reference, 20);
        let known = *wb.collection().histories()[5].patient();
        let newcomer = pastas_model::Patient { id: PatientId(900_001), ..known };
        let batch =
            diagnosis_batch(&[(known, Code::icpc("T90"), 1), (newcomer, Code::icd10("Z99"), 2)]);
        assert_eq!(wb.apply_ingest(&[batch]).patients_touched, 2);
        wb.debug_validate();
        let after = wb.snapshot().cohort_profile(&[5, 250], reference, 20);
        assert_eq!(after.total_entries, before.total_entries + 1);
        assert_eq!(
            after,
            pastas_analytics::cohort_profile_serial(
                wb.collection(),
                wb.ontology(),
                &[5, 250],
                reference,
                20,
            )
        );
        // The pre-ingest snapshot still reads its own rows.
        assert_eq!(reader.cohort_profile(&[5, 250], reference, 20), before);
        wb.set_collection(generate_collection(SynthConfig::with_patients(50), 7));
        wb.debug_validate();
    }

    /// A freshly built workbench answers its first cohort reads from the
    /// row table, with nothing built on the way: the profile equals the
    /// serial oracle, and the timeline totals its entries.
    #[test]
    fn a_fresh_workbench_reads_cohorts_without_a_lazy_cell() {
        let wb = wb();
        let reference = Date::new(2014, 12, 31).unwrap();
        let all: Vec<u32> = (0..wb.collection().len() as u32).collect();
        let months = wb.snapshot().cohort_monthly(&all);
        let profile = wb.cohort_profile(&all, reference, 20);
        assert_eq!(
            profile,
            pastas_analytics::cohort_profile_serial(
                wb.collection(),
                wb.ontology(),
                &all,
                reference,
                20,
            )
        );
        assert_eq!(months.iter().map(|&(_, count)| count).sum::<u64>(), profile.total_entries);
    }

    /// An ingested ICD-10 subcode nobody registered indicates its
    /// category's condition: an `E11.9` row counts towards Diabetes in
    /// the profile and in `conditions_of`, as the serial oracle says.
    #[test]
    fn an_ingested_subcode_indicates_its_category() {
        use pastas_codes::Code;
        let mut wb = wb();
        let reference = Date::new(2014, 12, 31).unwrap();
        let diabetes = |wb: &Workbench| {
            let all: Vec<u32> = (0..wb.collection().len() as u32).collect();
            let profile = wb.cohort_profile(&all, reference, 20);
            let serial = pastas_analytics::cohort_profile_serial(
                wb.collection(),
                wb.ontology(),
                &all,
                reference,
                20,
            );
            assert_eq!(profile, serial);
            profile.conditions.iter().find(|(name, _)| name == "Diabetes").map_or(0, |&(_, n)| n)
        };
        let was = diabetes(&wb);
        let patient = (0..300)
            .map(|p| *wb.collection().histories()[p].patient())
            .find(|p| !wb.conditions_of(p.id).contains(&"Diabetes"))
            .expect("a patient without diabetes");
        wb.apply_ingest(&[diagnosis_batch(&[(patient, Code::icd10("E11.9"), 3)])]);
        wb.debug_validate();
        assert_eq!(diabetes(&wb), was + 1);
        assert!(wb.conditions_of(patient.id).contains(&"Diabetes"));
    }

    /// The condition masks grow only by the codes the dictionary gained:
    /// an ingest of known codes shares them with the snapshot before it,
    /// a new code joins a copy and the row lists it.
    #[test]
    fn a_new_code_joins_a_copy_of_the_vocabulary() {
        use pastas_codes::Code;
        let mut wb = wb();
        let known = *wb.collection().histories()[7].patient();
        let before = wb.snapshot();
        wb.apply_ingest(&[diagnosis_batch(&[(known, Code::icpc("T90"), 4)])]);
        assert!(Arc::ptr_eq(&before.cond_masks, &wb.cond_masks), "no new code, no copy");
        let codes = wb.collection().dictionary().len();
        wb.apply_ingest(&[diagnosis_batch(&[(known, Code::icd10("I50.1"), 5)])]);
        assert_eq!((before.cond_masks.len(), wb.cond_masks.len()), (codes, codes + 1));
        let id = wb.collection().dictionary().lookup(&Code::icd10("I50.1")).expect("interned");
        let row = wb.collection().spans(7..8).next().expect("row 7");
        assert!(row.codes.get(0).contains(&id), "the row lists the new code");
        let heart_failure = IntegrationOntology::condition_index("HeartFailure").expect("tracked");
        assert_eq!(wb.cond_masks[id.0 as usize], 1 << heart_failure);
        wb.debug_validate();
    }

    /// Ingest leaves nothing to fold: `compact` changes no result and no
    /// index.
    #[test]
    fn compact_after_ingest_changes_nothing() {
        use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
        let mut wb = wb();
        let mut registry = IdentityRegistry::new();
        let persons = parse_delta(
            DeltaFormat::Persons,
            "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n",
            &mut registry,
        );
        let claims = parse_delta(
            DeltaFormat::Claims,
            "claim_id;patient;date;provider;icpc;note\nK1;NIN-0900001;04.05.2013;GP;T90;\n",
            &mut registry,
        );
        wb.apply_ingest(&[persons, claims]);
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let mid = wb.select_positions(&q);
        let index: *const CodeIndex = wb.index();
        assert!(!wb.compact(), "nothing to fold");
        assert!(std::ptr::eq(wb.index(), index), "the same index");
        assert_eq!(wb.select_positions(&q), mid, "compaction changes no result");
    }

    /// The streaming path's convergence contract: an empty workbench fed
    /// the five sources as deltas answers cohort
    /// selections exactly like a batch build of the same raw text.
    #[test]
    fn streamed_ingest_converges_to_the_batch_build() {
        use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
        use pastas_synth::emit::{emit, MessConfig};
        use pastas_synth::generate_population;
        let pop = generate_population(SynthConfig::with_patients(60), 5);
        let raw = emit(&pop, MessConfig::default());
        let batch_wb = Workbench::from_raw_sources(SourceTexts {
            persons: &raw.persons,
            claims: &raw.claims,
            hospital: &raw.hospital,
            municipal: &raw.municipal,
            prescriptions: &raw.prescriptions,
        });
        let mut wb = Workbench::from_collection(HistoryCollection::new());
        let mut registry = IdentityRegistry::new();
        let batches = vec![
            parse_delta(DeltaFormat::Persons, &raw.persons, &mut registry),
            parse_delta(DeltaFormat::Claims, &raw.claims, &mut registry),
            parse_delta(DeltaFormat::Hospital, &raw.hospital, &mut registry),
            parse_delta(DeltaFormat::Municipal, &raw.municipal, &mut registry),
            parse_delta(DeltaFormat::Prescriptions, &raw.prescriptions, &mut registry),
        ];
        wb.apply_ingest(&batches);
        assert_eq!(wb.collection().len(), batch_wb.collection().len());
        assert_eq!(
            wb.collection().stats().entries,
            batch_wb.collection().stats().entries,
            "same dedup + validation, same entry count"
        );
        let queries = [
            QueryBuilder::new().has_code("T90").unwrap().build(),
            QueryBuilder::new().has_code("[KT].*").unwrap().lacks_code("A0.*").unwrap().build(),
            QueryBuilder::new().lacks_code("T90").unwrap().build(),
            QueryBuilder::new().sex(pastas_model::Sex::Female).build(),
        ];
        for q in &queries {
            let mut streamed = wb.select_ids(q);
            let mut batch = batch_wb.select_ids(q);
            streamed.sort();
            batch.sort();
            assert_eq!(streamed, batch, "query {q:?}");
        }
    }

    #[test]
    fn overview_density_mode() {
        let wb = wb();
        let svg = wb.render_overview_svg(800.0, 300.0);
        assert!(svg.contains("viz-Overview-cell"), "density cells rendered");
        // Cell count bounded by the default grid, not the cohort size.
        assert!(svg.matches("<rect").count() <= 96 * 64 + 1);
        let empty = Workbench::from_collection(HistoryCollection::new());
        assert!(empty.render_overview_svg(100.0, 100.0).contains("<svg"));
    }

    #[test]
    fn empty_collection_workbench() {
        let wb = Workbench::from_collection(HistoryCollection::new());
        let svg = wb.render_svg(400.0, 200.0);
        assert!(svg.contains("<svg"));
        assert!(wb.select_ids(&HistoryQuery::All).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 8,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// `align_on_code` equals the reference — `align_on` and a stable
        /// sort by anchor, unanchored rows last — in order, anchor count
        /// and every anchor, at one thread and at four, over a sharded
        /// collection an ingest patched, a new patient's
        /// fresh arena and a history detached onto a grown dictionary.
        #[test]
        fn bound_align_equals_the_reference(
            collection_seed in 0u64..20,
            at in 0usize..300,
            day in 1u32..29,
        ) {
            use pastas_codes::Code;
            use proptest::prelude::*;
            let config = SynthConfig { shard_patients: 100, ..SynthConfig::with_patients(300) };
            let collection = generate_collection(config, collection_seed);
            let existing = *collection.histories()[at].patient();
            let newcomer = pastas_model::Patient { id: PatientId(900_001), ..existing };
            let batch = diagnosis_batch(&[
                (existing, Code::icd10("ZZ9"), day),
                (existing, Code::icpc("T90"), day),
                (newcomer, Code::atc("C07AB02"), day),
            ]);
            for threads in [1, 4] {
                let mut wb = Workbench::from_collection(collection.clone());
                wb.apply_ingest(std::slice::from_ref(&batch));
                let detached = wb.collection().get(existing.id).unwrap().store().dictionary();
                let histories = collection.histories();
                let arena = histories[at].store().dictionary();
                prop_assert!(!Arc::ptr_eq(detached, arena), "a grown dictionary");
                prop_assert!(arena.is_prefix_of(detached));
                for pattern in ["T90", "K.*", "T9[01]|K86", "X99", "C07AB02", "ZZ9"] {
                    let pred = EntryPredicate::code_regex(pattern).unwrap();
                    let reference = pastas_query::align_on(wb.collection(), &pred);
                    let histories = wb.collection().histories();
                    let anchor = |p: u32| reference.anchor(histories[p as usize].id());
                    let mut order: Vec<u32> = (0..histories.len() as u32).collect();
                    order.sort_by_key(|&p| anchor(p).map_or(i64::MAX, |t| t.second_number()));
                    let mut bound = wb.snapshot();
                    let n = pastas_par::with_threads(threads, || bound.align_on_code(pattern));
                    prop_assert_eq!(n.unwrap(), reference.len(), "{}", pattern);
                    prop_assert_eq!(bound.order(), &order[..], "{}", pattern);
                    let AxisMode::Aligned(alignment) = &bound.axis else { panic!("not aligned") };
                    for p in 0..histories.len() as u32 {
                        prop_assert_eq!(alignment.anchor(histories[p as usize].id()), anchor(p));
                    }
                }
            }
        }

        /// The digest columns `apply_ingest` writes equal a rebuild
        /// (`debug_validate`), and every snapshot's profile equals the
        /// serial oracle, after every publish of a random ingest sequence
        /// — an existing patient extended, a new patient appended, a code
        /// no vocabulary has seen and an unseen subcode of a condition
        /// category, a replayed batch that nets out to nothing, and one
        /// fixed row dirtied every round. The patched index answers like
        /// the scan. Half the cases start from the collection rebuilt
        /// from independently built histories, every row re-encoded onto
        /// one dictionary by `from_histories`.
        #[test]
        fn maintained_columns_equal_the_rebuilt_ones(
            collection_seed in 0u64..20,
            steps in proptest::collection::vec((0u8..4, 0usize..1000, 1u32..29), 1..8),
            rebuilt in proptest::prelude::any::<bool>(),
        ) {
            use pastas_codes::Code;
            use pastas_ontology::integration::CONDITIONS;
            use proptest::prelude::*;
            // Several arenas, several chunks, a partial last chunk.
            let config = SynthConfig { shard_patients: 100, ..SynthConfig::with_patients(300) };
            let mut collection = generate_collection(config, collection_seed);
            if rebuilt {
                collection = HistoryCollection::from_histories(collection.iter().map(|h| {
                    let mut own = pastas_model::History::new(*h.patient());
                    own.insert_all(h.entries().iter().map(|e| e.to_entry()));
                    own
                }));
            }
            let queries = [
                QueryBuilder::new().has_code("T90").unwrap().build(),
                QueryBuilder::new().has_code("Z.*").unwrap().lacks_code("K74").unwrap().build(),
            ];
            let mut wb = Workbench::from_collection(collection);
            let reference = Date::new(2014, 12, 31).unwrap();
            let pinned = *wb.collection().histories()[7].patient();
            let mut replay: Option<DeltaBatch> = None;
            for (round, (kind, at, day)) in steps.into_iter().enumerate() {
                let rows = wb.collection().len();
                let existing = *wb.collection().histories()[at % rows].patient();
                let batch = match (kind, replay.take()) {
                    (0, _) => diagnosis_batch(&[(existing, Code::icpc("K74"), day)]),
                    (1, _) => {
                        let newcomer = pastas_model::Patient {
                            id: PatientId(900_000 + round as u64),
                            ..existing
                        };
                        diagnosis_batch(&[(newcomer, Code::atc("C07AB02"), day)])
                    }
                    (2, _) => {
                        let unseen = Code::icd10(&format!("Z{round}{day}"));
                        let (_, _, categories, _) = CONDITIONS[at % CONDITIONS.len()];
                        let category = categories[day as usize % categories.len()];
                        let subcode = Code::icd10(&format!("{category}.{}", round % 10));
                        diagnosis_batch(&[(existing, unseen, day), (existing, subcode, day)])
                    }
                    (_, Some(last)) => last,
                    (_, None) => DeltaBatch::default(),
                };
                let pin = diagnosis_batch(&[(pinned, Code::icpc("T90"), round as u32 % 28 + 1)]);
                let before = wb.snapshot();
                wb.apply_ingest(&[batch.clone(), pin]);
                replay = Some(batch);
                wb.debug_validate();
                for q in &queries {
                    prop_assert_eq!(
                        wb.index().select(wb.collection(), q),
                        pastas_query::index::select_scan(wb.collection(), q),
                        "round {}, {:?}", round, q
                    );
                }
                // What a reader sees, on the new snapshot and on the old.
                for snapshot in [wb.snapshot(), before] {
                    let all: Vec<u32> = (0..snapshot.collection().len() as u32).collect();
                    prop_assert_eq!(
                        snapshot.cohort_profile(&all, reference, 30),
                        pastas_analytics::cohort_profile_serial(
                            snapshot.collection(), snapshot.ontology(), &all, reference, 30,
                        )
                    );
                }
            }
        }
    }
}
