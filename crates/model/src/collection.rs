//! Collections of histories — the unit the workbench visualizes and queries.

use crate::{CodeDictionary, History, PatientId, Sex};
use pastas_time::DateTime;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Summary statistics over a collection, shown in the workbench status bar
/// and used by the scalability experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats {
    /// Number of histories.
    pub patients: usize,
    /// Total entries across all histories.
    pub entries: usize,
    /// Point events among them.
    pub events: usize,
    /// Intervals among them.
    pub intervals: usize,
    /// Earliest entry start.
    pub first: Option<DateTime>,
    /// Latest entry end.
    pub last: Option<DateTime>,
    /// Mean entries per history.
    pub mean_entries: f64,
}

/// The entry-level part of [`CollectionStats`]: the five numbers only a
/// walk over every entry can produce. A collection keeps its own current
/// (see [`HistoryCollection::stats`]), so the walk runs at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Summary {
    entries: usize,
    events: usize,
    intervals: usize,
    first: Option<DateTime>,
    last: Option<DateTime>,
}

impl Summary {
    /// One history's contribution (two passes over its columns).
    fn of(h: &History) -> Summary {
        let intervals = h.entries().iter().filter(|e| e.is_interval()).count();
        Summary {
            entries: h.len(),
            events: h.len() - intervals,
            intervals,
            first: h.first_time(),
            last: h.last_time(),
        }
    }

    /// The from-entries walk: O(entries). Reached from the lazy first
    /// [`HistoryCollection::stats`] call, the recompute after a mutation
    /// that dropped the summary, tests and `debug_validate` — never from a
    /// publish or a request.
    fn walk(histories: &[Arc<History>]) -> Summary {
        let mut total = Summary::default();
        for h in histories {
            total.add(&Summary::of(h));
        }
        total
    }

    fn add(&mut self, h: &Summary) {
        self.entries += h.entries;
        self.events += h.events;
        self.intervals += h.intervals;
        self.first = match (self.first, h.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = match (self.last, h.last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Replace `old`'s contribution with `new`'s. Returns false, leaving
    /// `self` stale, when `old` held an extreme that `new` no longer
    /// reaches: the extreme is then some other history's, and only a walk
    /// finds it. A history that grew (streamed ingest) never does that.
    fn swap(&mut self, old: &Summary, new: &Summary) -> bool {
        let held_first = old.first.is_some() && old.first == self.first;
        let held_last = old.last.is_some() && old.last == self.last;
        if (held_first && new.first.is_none_or(|t| Some(t) > old.first))
            || (held_last && new.last.is_none_or(|t| Some(t) < old.last))
        {
            return false;
        }
        self.entries -= old.entries;
        self.events -= old.events;
        self.intervals -= old.intervals;
        self.add(new);
        true
    }
}

/// The per-row columns, indexed by display position: the keys the view
/// sorts on — first start and last end (seconds since the epoch, what
/// [`History::first_time`] and [`History::last_time`] return; 0 for an
/// empty history) and entry count, 20 bytes a row — and the patient's
/// birth date (a day number) and sex, 5 bytes a row, which the query
/// planner's `age(..)` and `sex(..)` leaves read. A sort reads three
/// dense arrays instead of one `Arc<History>` and two binary searches per
/// row; a demographic leaf reads one.
///
/// The demographic columns sit behind their own [`Arc`]: a row whose
/// patient record is unchanged (a known patient's history extended)
/// leaves them shared, so only an appended or re-registered patient
/// copies them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowColumns {
    first_starts: Vec<i64>,
    last_ends: Vec<i64>,
    entry_counts: Vec<u32>,
    patients: Arc<PatientColumns>,
}

/// Birth day number and sex, one entry a row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PatientColumns {
    births: Vec<i32>,
    sexes: Vec<Sex>,
}

impl RowColumns {
    /// Write row `at` from `h`; `at == len` appends.
    fn set(&mut self, at: usize, h: &History) {
        let seconds = |t: Option<DateTime>| t.map_or(0, DateTime::second_number);
        let (first, last) = (seconds(h.first_time()), seconds(h.last_time()));
        let count = u32::try_from(h.len()).unwrap_or(u32::MAX);
        let patient = h.patient();
        // Calendar day numbers lie within ±3.7M, far inside `i32`.
        let birth = i32::try_from(patient.birth_date.day_number()).unwrap_or(i32::MAX);
        if at == self.entry_counts.len() {
            self.first_starts.push(first);
            self.last_ends.push(last);
            self.entry_counts.push(count);
            let patients = Arc::make_mut(&mut self.patients);
            patients.births.push(birth);
            patients.sexes.push(patient.sex);
        } else {
            (self.first_starts[at], self.last_ends[at], self.entry_counts[at]) = (first, last, count);
            if (self.patients.births[at], self.patients.sexes[at]) != (birth, patient.sex) {
                let patients = Arc::make_mut(&mut self.patients);
                (patients.births[at], patients.sexes[at]) = (birth, patient.sex);
            }
        }
    }

    /// Each row's first entry start, in seconds (0 when the row is empty).
    pub fn first_starts(&self) -> &[i64] {
        &self.first_starts
    }

    /// Each row's latest entry end, in seconds (0 when the row is empty).
    pub fn last_ends(&self) -> &[i64] {
        &self.last_ends
    }

    /// Each row's number of entries.
    pub fn entry_counts(&self) -> &[u32] {
        &self.entry_counts
    }

    /// Each row's patient birth date, as a day number
    /// ([`pastas_time::Date::day_number`]).
    pub fn births(&self) -> &[i32] {
        &self.patients.births
    }

    /// Each row's patient sex.
    pub fn sexes(&self) -> &[Sex] {
        &self.patients.sexes
    }
}

/// An ordered collection of patient histories with id-based lookup.
///
/// Order is significant: it is the vertical order of the visualization, and
/// the sorting operators of the workbench permute it.
///
/// Histories are stored behind [`Arc`], so extracting a sub-collection (the
/// workbench's cohort selection) copies pointers, not the histories
/// themselves — O(matches) regardless of history size. A row changes only
/// through [`Self::upsert_shared`]: a caller that edits a history edits
/// its own clone and upserts it.
///
/// Every row's store is on a version of the collection's one
/// [`CodeDictionary`] (see [`Self::dictionary`]), so a [`crate::CodeId`]
/// names the same code in every row.
///
/// The spine and the [`RowColumns`] are shared copy-on-write as well: a
/// clone is four pointer bumps, the first replaced history after a clone
/// copies the pointer vector and the sort-key columns (nothing per
/// entry), only a brand-new or re-registered patient copies the
/// demographic columns, and only a brand-new one the id map.
#[derive(Debug, Clone, Default)]
pub struct HistoryCollection {
    histories: Arc<Vec<Arc<History>>>,
    by_id: Arc<HashMap<PatientId, usize>>,
    rows: Arc<RowColumns>,
    /// The newest version of the code dictionary: every row's store is
    /// on a prefix of it.
    dict: Arc<CodeDictionary>,
    /// Unset until the first [`Self::stats`] call; from then on every
    /// mutator keeps it current or drops it.
    summary: OnceLock<Summary>,
}

impl HistoryCollection {
    /// An empty collection.
    pub fn new() -> HistoryCollection {
        HistoryCollection::default()
    }

    /// Build from histories. Later duplicates of a patient id replace
    /// earlier ones (last write wins, as when re-importing a source).
    pub fn from_histories<I: IntoIterator<Item = History>>(histories: I) -> HistoryCollection {
        HistoryCollection::from_shared(histories.into_iter().map(Arc::new))
    }

    /// Build from already-shared histories without copying entry data —
    /// the cheap path cohort extraction uses. Same last-write-wins
    /// semantics as [`Self::from_histories`].
    pub fn from_shared<I: IntoIterator<Item = Arc<History>>>(histories: I) -> HistoryCollection {
        let mut c = HistoryCollection::new();
        for h in histories {
            c.upsert_shared(h);
        }
        c
    }

    /// Insert or replace the history for a patient.
    pub fn upsert(&mut self, history: History) {
        self.upsert_shared(Arc::new(history));
    }

    /// Insert or replace the history for a patient, sharing the allocation.
    /// The only way a row changes: the row columns are rewritten and an
    /// initialised summary is adjusted from the replaced and the replacing
    /// history alone. A history whose store is on another dictionary than
    /// a prefix or an extension of the collection's is re-encoded onto it
    /// first (see [`Self::dictionary`]).
    pub fn upsert_shared(&mut self, history: Arc<History>) {
        let history = self.onto_dictionary(history);
        let at = self.by_id.get(&history.id()).copied();
        if let Some(summary) = self.summary.get_mut() {
            // A brand-new patient replaces an empty contribution.
            let old = at.map_or_else(Summary::default, |i| Summary::of(&self.histories[i]));
            if !summary.swap(&old, &Summary::of(&history)) {
                self.summary.take();
            }
        }
        Arc::make_mut(&mut self.rows).set(at.unwrap_or(self.histories.len()), &history);
        match at {
            Some(i) => Arc::make_mut(&mut self.histories)[i] = history,
            None => {
                Arc::make_mut(&mut self.by_id).insert(history.id(), self.histories.len());
                Arc::make_mut(&mut self.histories).push(history);
            }
        }
    }

    /// `history` on a prefix of this collection's dictionary. A store on
    /// an extension (or on an equal version) makes that version the
    /// collection's; one on a prefix needs nothing. Any other store — a
    /// history built on its own, as `from_histories` of independently
    /// built histories gives — is re-encoded onto a grown version.
    fn onto_dictionary(&mut self, history: Arc<History>) -> Arc<History> {
        let dict = history.store().dictionary();
        if self.dict.is_prefix_of(dict) {
            self.dict = Arc::clone(dict);
        } else if !dict.is_prefix_of(&self.dict) {
            let mut history = History::clone(&history);
            history.rebuild_on(Arc::clone(&self.dict), Vec::new());
            self.dict = Arc::clone(history.store().dictionary());
            return Arc::new(history);
        }
        history
    }

    /// The collection's code dictionary: its newest version, which every
    /// row's store holds a prefix of. A [`crate::CodeId`] read off any
    /// row resolves here.
    pub fn dictionary(&self) -> &Arc<CodeDictionary> {
        &self.dict
    }

    /// Histories in display order. The `Arc` is transparent to readers
    /// (deref coercion); cohort extraction clones the pointers.
    pub fn histories(&self) -> &[Arc<History>] {
        &self.histories
    }

    /// The per-row sort keys and demographics, indexed like
    /// [`Self::histories`].
    pub fn rows(&self) -> &RowColumns {
        &self.rows
    }

    /// Look up one history by patient id.
    pub fn get(&self, id: PatientId) -> Option<&History> {
        self.by_id.get(&id).map(|&i| self.histories[i].as_ref())
    }

    /// The shared handle for a patient's history.
    pub fn get_shared(&self, id: PatientId) -> Option<&Arc<History>> {
        self.by_id.get(&id).map(|&i| &self.histories[i])
    }

    /// The display position of a patient's history — the row index the
    /// query layer's postings refer to.
    pub fn position_of(&self, id: PatientId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// Number of histories.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// True if no histories.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// Extract a sub-collection by predicate, preserving order. This is the
    /// "extraction of sub-collections" operation of §IV. The result shares
    /// the selected histories (pointer copies, no entry data cloned).
    pub fn extract<F: Fn(&History) -> bool>(&self, pred: F) -> HistoryCollection {
        HistoryCollection::from_shared(self.histories.iter().filter(|h| pred(h)).cloned())
    }

    /// Extract a sub-collection by ids (ids not present are skipped). The
    /// result is ordered by the id list, so a sorted id list re-sorts the
    /// view. Shares the selected histories.
    pub fn extract_ids(&self, ids: &[PatientId]) -> HistoryCollection {
        HistoryCollection::from_shared(
            ids.iter().filter_map(|&id| self.get_shared(id).cloned()),
        )
    }

    /// Summary statistics. O(1) once the collection has its summary: the
    /// first call on a freshly built collection walks the entries, every
    /// clone inherits the result, and [`Self::upsert_shared`] (so also
    /// [`crate::OpenEpoch::seal_into`]) keeps it current from the touched
    /// histories. Only a replacement that may have moved an extreme
    /// inwards makes the next call walk again.
    pub fn stats(&self) -> CollectionStats {
        let s = *self.summary.get_or_init(|| Summary::walk(&self.histories));
        CollectionStats {
            patients: self.histories.len(),
            entries: s.entries,
            events: s.events,
            intervals: s.intervals,
            first: s.first,
            last: s.last,
            mean_entries: if self.histories.is_empty() {
                0.0
            } else {
                s.entries as f64 / self.histories.len() as f64
            },
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the id map addresses every row, every row's store is
    /// on a prefix of the dictionary, the row columns equal a rebuild and
    /// a maintained summary equals the from-entries walk.
    /// Histories and arenas have their own checks (see
    /// `Snapshot::debug_validate` in `pastas-serve`).
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        assert_eq!(self.by_id.len(), self.histories.len(), "collection: id map and rows differ");
        let mut rows = RowColumns::default();
        for (i, h) in self.histories.iter().enumerate() {
            assert_eq!(self.by_id.get(&h.id()), Some(&i), "collection: {} not at row {i}", h.id());
            assert!(
                h.store().dictionary().is_prefix_of(&self.dict),
                "collection: row {i}'s store is not on a prefix of the dictionary"
            );
            rows.set(i, h);
        }
        assert_eq!(*self.rows, rows, "collection: row columns drifted from a rebuild");
        if let Some(summary) = self.summary.get() {
            assert_eq!(
                *summary,
                Summary::walk(&self.histories),
                "collection: maintained summary drifted from the from-entries walk"
            );
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// True while [`Self::stats`] answers without walking.
    #[cfg(test)]
    pub(crate) fn holds_summary(&self) -> bool {
        self.summary.get().is_some()
    }

    /// The distinct arenas backing this collection, in first-appearance
    /// order — one for a monolithic build, one per patient range for a
    /// sharded one (see
    /// [`crate::CollectionBuilder::with_shard_patients`]).
    pub fn sharded_store(&self) -> crate::ShardedStore {
        crate::ShardedStore::from_collection(self)
    }

    /// Iterate over histories.
    pub fn iter(&self) -> HistoriesIter<'_> {
        HistoriesIter { inner: self.histories.iter() }
    }
}

/// Iterator over `&History` (hides the `Arc` from callers).
#[derive(Debug, Clone)]
pub struct HistoriesIter<'a> {
    inner: std::slice::Iter<'a, Arc<History>>,
}

impl<'a> Iterator for HistoriesIter<'a> {
    type Item = &'a History;
    fn next(&mut self) -> Option<&'a History> {
        self.inner.next().map(Arc::as_ref)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl DoubleEndedIterator for HistoriesIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.inner.next_back().map(Arc::as_ref)
    }
}

impl ExactSizeIterator for HistoriesIter<'_> {}

impl IntoIterator for HistoryCollection {
    type Item = History;
    type IntoIter = std::iter::Map<std::vec::IntoIter<Arc<History>>, fn(Arc<History>) -> History>;
    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.histories).into_iter().map(Arc::unwrap_or_clone)
    }
}

impl<'a> IntoIterator for &'a HistoryCollection {
    type Item = &'a History;
    type IntoIter = HistoriesIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entry, Patient, Payload, Sex, SourceKind};
    use pastas_codes::Code;
    use pastas_time::Date;

    fn history(id: u64, codes: &[(&str, i32)]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(id),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: if id.is_multiple_of(2) { Sex::Female } else { Sex::Male },
        });
        for &(code, year) in codes {
            h.insert(Entry::event(
                Date::new(year, 1, 1).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    #[test]
    fn upsert_replaces_by_id() {
        let mut c = HistoryCollection::new();
        c.upsert(history(1, &[("A01", 2015)]));
        c.upsert(history(2, &[("T90", 2015)]));
        c.upsert(history(1, &[("K74", 2016), ("R95", 2017)]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(PatientId(1)).unwrap().len(), 2);
    }

    #[test]
    fn extract_preserves_order() {
        let c = HistoryCollection::from_histories([
            history(3, &[("T90", 2015)]),
            history(1, &[("A01", 2015)]),
            history(2, &[("T90", 2016)]),
        ]);
        let diabetics = c.extract(|h| {
            h.entries().iter().any(|e| e.code().is_some_and(|c| c.value == "T90"))
        });
        let ids: Vec<_> = diabetics.iter().map(|h| h.id().0).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn extract_ids_orders_by_request() {
        let c = HistoryCollection::from_histories([
            history(1, &[]),
            history(2, &[]),
            history(3, &[]),
        ]);
        let sub = c.extract_ids(&[PatientId(3), PatientId(1), PatientId(99)]);
        let ids: Vec<_> = sub.iter().map(|h| h.id().0).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    #[test]
    fn stats() {
        let mut c = HistoryCollection::from_histories([
            history(1, &[("A01", 2014), ("T90", 2015)]),
            history(2, &[("K74", 2016)]),
        ]);
        let mut h = c.get(PatientId(2)).unwrap().clone();
        h.insert(Entry::interval(
            Date::new(2016, 5, 1).unwrap().at_midnight(),
            Date::new(2016, 5, 9).unwrap().at_midnight(),
            Payload::Episode(crate::EpisodeKind::Inpatient),
            SourceKind::Hospital,
        ));
        c.upsert(h);
        let s = c.stats();
        assert_eq!(s.patients, 2);
        assert_eq!(s.entries, 4);
        assert_eq!(s.events, 3);
        assert_eq!(s.intervals, 1);
        assert_eq!(s.first, Some(Date::new(2014, 1, 1).unwrap().at_midnight()));
        assert_eq!(s.last, Some(Date::new(2016, 5, 9).unwrap().at_midnight()));
        assert!((s.mean_entries - 2.0).abs() < 1e-9);
    }

    #[test]
    fn extract_shares_allocations() {
        let c = HistoryCollection::from_histories([
            history(1, &[("A01", 2015)]),
            history(2, &[("T90", 2016)]),
        ]);
        let sub = c.extract(|h| h.id().0 == 2);
        assert_eq!(sub.len(), 1);
        assert!(
            Arc::ptr_eq(&c.histories()[1], &sub.histories()[0]),
            "extraction copies pointers, not history data"
        );
    }

    #[test]
    fn upsert_leaves_a_sharing_collection_untouched() {
        let c = HistoryCollection::from_histories([
            history(1, &[("A01", 2015)]),
            history(2, &[]),
        ]);
        let mut sub = c.extract(|_| true);
        let mut h = sub.get(PatientId(1)).unwrap().clone();
        h.insert(Entry::event(
            Date::new(2020, 1, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        ));
        sub.upsert(h);
        sub.debug_validate();
        assert_eq!(sub.get(PatientId(1)).unwrap().len(), 2);
        assert_eq!(c.get(PatientId(1)).unwrap().len(), 1, "parent untouched");
        assert!(!Arc::ptr_eq(&c.histories()[0], &sub.histories()[0]));
        let year = |y| Date::new(y, 1, 1).unwrap().at_midnight().second_number();
        assert_eq!(sub.rows().entry_counts(), [2, 0]);
        assert_eq!(sub.rows().first_starts(), [year(2015), 0]);
        assert_eq!(sub.rows().last_ends(), [year(2020), 0]);
        assert_eq!(c.rows().last_ends(), [year(2015), 0], "parent's rows untouched");
    }

    /// Extending a known patient after a clone leaves the demographic
    /// columns shared with the clone; appending a patient, or
    /// re-registering one, copies them.
    #[test]
    fn demographic_columns_copy_only_when_a_patient_record_changes() {
        let c = HistoryCollection::from_histories([history(1, &[("A01", 2015)]), history(2, &[])]);
        let mut grown = c.clone();
        let mut h = grown.get(PatientId(1)).unwrap().clone();
        h.insert(Entry::event(
            Date::new(2020, 1, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        ));
        grown.upsert(h);
        grown.debug_validate();
        assert!(!Arc::ptr_eq(&c.rows, &grown.rows), "the sort keys were copied");
        assert!(Arc::ptr_eq(&c.rows.patients, &grown.rows.patients), "demographics shared");

        let mut appended = c.clone();
        appended.upsert(history(3, &[]));
        appended.debug_validate();
        assert!(!Arc::ptr_eq(&c.rows.patients, &appended.rows.patients));
        assert_eq!(appended.rows().sexes(), [Sex::Male, Sex::Female, Sex::Male]);
        assert_eq!(c.rows().sexes(), [Sex::Male, Sex::Female], "parent's rows untouched");

        let mut reborn = c.clone();
        let born = Date::new(1901, 2, 28).unwrap();
        reborn.upsert(History::new(Patient { id: PatientId(2), birth_date: born, sex: Sex::Male }));
        reborn.debug_validate();
        assert!(!Arc::ptr_eq(&c.rows.patients, &reborn.rows.patients));
        let day = |d: Date| d.day_number() as i32;
        assert_eq!(reborn.rows().births(), [day(Date::new(1950, 1, 1).unwrap()), day(born)]);
        assert_eq!(c.rows().births()[1], day(Date::new(1950, 1, 1).unwrap()));
    }

    #[test]
    fn empty_stats() {
        let s = HistoryCollection::new().stats();
        assert_eq!(s.patients, 0);
        assert_eq!(s.first, None);
        assert_eq!(s.mean_entries, 0.0);
    }
}
