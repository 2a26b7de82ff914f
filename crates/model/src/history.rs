//! One patient's validated, time-ordered history.
//!
//! Since the columnar refactor a history no longer owns a `Vec<Entry>`:
//! it views a contiguous row span of a (possibly shared) [`EventStore`]
//! arena. Reads go through the zero-copy [`Entries`]/[`EntryRef`] views;
//! mutation detaches the history onto its own store (on the arena's
//! code dictionary, so [`crate::CodeId`]s stay compatible) when the
//! arena is shared with other histories.

use crate::store::{CodeDictionary, Entries, EntryRef, EventStore};
use crate::{Entry, PatientId};
use pastas_time::{Date, DateTime, DayNumber, Duration};
use std::sync::Arc;

/// Patient sex as registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sex {
    /// Female.
    Female,
    /// Male.
    Male,
}

/// Demographic facts about a patient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patient {
    /// The database identifier.
    pub id: PatientId,
    /// Date of birth — the validation boundary: entries before it are
    /// "clearly invalid" and dropped (§IV).
    pub birth_date: Date,
    /// Registered sex.
    pub sex: Sex,
}

impl Patient {
    /// The §IV validation rule, in its one definition: an entry dated
    /// before the patient's birth is "clearly invalid". Compares instants,
    /// so the build and ingest paths pay no civil conversion per entry.
    pub fn admits(&self, start: DateTime) -> bool {
        start >= self.birth_date.at_midnight()
    }
}

/// What happened while inserting entries into a history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Entries accepted.
    pub accepted: usize,
    /// Entries dropped because they predate the patient's birth.
    pub dropped_pre_birth: usize,
}

impl ValidationReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: &ValidationReport) {
        self.accepted += other.accepted;
        self.dropped_pre_birth += other.dropped_pre_birth;
    }
}

/// One patient's history: demographics plus a row span of an
/// [`EventStore`], kept sorted by start time (ties broken by end time,
/// keeping interleaved sources stable).
#[derive(Debug, Clone)]
pub struct History {
    patient: Patient,
    store: Arc<EventStore>,
    lo: u32,
    hi: u32,
}

impl History {
    /// An empty history for `patient` (its own store until it joins a
    /// shared arena via [`crate::CollectionBuilder`]).
    pub fn new(patient: Patient) -> History {
        History { patient, store: Arc::new(EventStore::new()), lo: 0, hi: 0 }
    }

    /// A history viewing rows `[lo, hi)` of a shared arena.
    pub(crate) fn from_span(patient: Patient, store: Arc<EventStore>, lo: u32, hi: u32) -> History {
        History { patient, store, lo, hi }
    }

    /// The patient's demographics.
    pub fn patient(&self) -> &Patient {
        &self.patient
    }

    /// The patient id.
    pub fn id(&self) -> PatientId {
        self.patient.id
    }

    /// The backing arena (shared when this history came out of a
    /// [`crate::CollectionBuilder`]).
    pub fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// The rows of [`Self::store`] this history views.
    pub fn rows(&self) -> std::ops::Range<u32> {
        self.lo..self.hi
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the row span lies inside the arena and its entries
    /// are sorted by `(start, end)`. Does *not* re-validate the backing
    /// store — arenas are shared, so callers validate each distinct store
    /// once (see `Snapshot::debug_validate` in `pastas-serve`).
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        assert!(
            self.lo <= self.hi,
            "history {}: span [{}, {}) is reversed",
            self.patient.id,
            self.lo,
            self.hi
        );
        assert!(
            self.hi <= self.store.len_u32(),
            "history {}: span end {} outside arena (len {})",
            self.patient.id,
            self.hi,
            self.store.len()
        );
        let entries = self.entries();
        for i in 1..entries.len() {
            let (a, b) = (entries.get(i - 1), entries.get(i));
            assert!(
                (a.start(), a.end()) <= (b.start(), b.end()),
                "history {}: rows {} and {} out of (start, end) order",
                self.patient.id,
                i - 1,
                i
            );
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// Insert one entry, enforcing the §IV validation rule: entries dated
    /// before the patient's birth are ignored. Returns `true` if accepted.
    pub fn insert(&mut self, entry: Entry) -> bool {
        if !self.patient.admits(entry.start()) {
            return false;
        }
        let key = (entry.start(), entry.end());
        let at = self.store.partition_point_le(self.lo, self.hi, key);
        // Fast path: sole owner of a store we span entirely — splice the
        // columns in place.
        let whole = self.lo == 0 && self.hi as usize == self.store.len();
        if whole {
            if let Some(store) = Arc::get_mut(&mut self.store) {
                store.insert_at(at, &entry);
                self.hi += 1;
                return true;
            }
        }
        // Detach: rebuild a private store for this history on its
        // dictionary, so code ids stay those of the old arena.
        self.rebuild_on(Arc::clone(self.store.dictionary()), vec![entry]);
        true
    }

    /// Insert many entries; returns a [`ValidationReport`]. One store
    /// rebuild regardless of the batch size (the stable sort by
    /// `(start, end)` reproduces the order repeated [`Self::insert`]
    /// calls would have produced).
    pub fn insert_all<I: IntoIterator<Item = Entry>>(&mut self, entries: I) -> ValidationReport {
        let mut report = ValidationReport::default();
        let mut accepted: Vec<Entry> = Vec::new();
        for e in entries {
            if !self.patient.admits(e.start()) {
                report.dropped_pre_birth += 1;
            } else {
                report.accepted += 1;
                accepted.push(e);
            }
        }
        if !accepted.is_empty() {
            self.rebuild_on(Arc::clone(self.store.dictionary()), accepted);
        }
        report
    }

    /// Move onto one private store on `dict` holding this history's
    /// entries plus `more` (validated already), stably sorted by
    /// `(start, end)`. Codes `dict` lacks extend a copy of it.
    pub(crate) fn rebuild_on(&mut self, dict: Arc<CodeDictionary>, more: Vec<Entry>) {
        let mut all = self.entries().to_vec();
        all.extend(more);
        all.sort_by_key(|e| (e.start(), e.end()));
        let mut store = EventStore::with_dictionary(dict);
        for e in &all {
            store.push(e);
        }
        self.lo = 0;
        self.hi = store.len_u32();
        self.store = Arc::new(store);
    }

    /// The entries, sorted by (start, end) — a zero-copy view over the
    /// columnar store.
    pub fn entries(&self) -> Entries<'_> {
        Entries::new(&self.store, self.lo, self.hi)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True if the history has no entries.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// First entry start, if any.
    pub fn first_time(&self) -> Option<DateTime> {
        self.entries().first().map(|e| e.start())
    }

    /// Latest entry end, if any: the last entry's start, unless an
    /// interval of this history ends after it (an early long interval may
    /// end after later entries start). Looked up, not scanned.
    pub fn last_time(&self) -> Option<DateTime> {
        self.store.last_end(self.lo, self.hi)
    }

    /// The observed span of the history.
    pub fn span(&self) -> Option<Duration> {
        Some(self.last_time()? - self.first_time()?)
    }

    /// Entries overlapping the closed window `[from, to]`, in order.
    pub fn entries_in(&self, from: DateTime, to: DateTime) -> impl Iterator<Item = EntryRef<'_>> {
        self.entries().iter().filter(move |e| e.overlaps(from, to))
    }

    /// The patient's age in whole years at `date`.
    pub fn age_at(&self, date: Date) -> i32 {
        age(self.patient.birth_date, date)
    }

    /// The day number of the last birth date aged at least `years` whole
    /// years at `at`, by [`Self::age_at`]'s own arithmetic; one day before
    /// [`Date::MIN`] if no date is that old. The age never grows with the
    /// birth date, so the births aged `years` or more are every day up to
    /// this one: a binary search over the calendar finds it, and a caller
    /// that binds it once tests a birth with one integer comparison.
    pub fn last_birth_aged(at: Date, years: i32) -> DayNumber {
        let (mut lo, mut hi) = (Date::MIN.day_number(), Date::MAX.day_number() + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // `mid` lies in MIN..=MAX: the search never leaves the calendar.
            let born = Date::from_day_number(mid).unwrap_or(Date::MAX);
            if age(born, at) >= years {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo - 1
    }

    /// The first entry accepted by `pred`, in time order. This is the
    /// primitive behind alignment ("the first occurrence of the diabetes
    /// code, T90").
    pub fn first_matching<F: Fn(EntryRef<'_>) -> bool>(&self, pred: F) -> Option<EntryRef<'_>> {
        self.entries().iter().find(|e| pred(*e))
    }

    /// The diagnosis code sequence in time order — NSEPter's input ("the
    /// only information from the EHR that was utilized, was the diagnosis
    /// codes for each patient"). Borrowed from the dictionary; no clones.
    pub fn diagnosis_sequence(&self) -> Vec<&pastas_codes::Code> {
        self.entries()
            .iter()
            .filter_map(|e| match e.payload() {
                crate::PayloadRef::Diagnosis(c) => Some(c),
                _ => None,
            })
            .collect()
    }
}

/// Whole years from `birth` to `at`.
fn age(birth: Date, at: Date) -> i32 {
    at.months_between(birth).div_euclid(12)
}

impl PartialEq for History {
    fn eq(&self, other: &History) -> bool {
        self.patient == other.patient
            && self.len() == other.len()
            && self.entries().iter().zip(other.entries()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpisodeKind, Payload, SourceKind};
    use pastas_codes::Code;

    fn patient() -> Patient {
        Patient { id: PatientId(42), birth_date: Date::new(1950, 6, 15).unwrap(), sex: Sex::Female }
    }

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn diag(y: i32, m: u32, d: u32, code: &str) -> Entry {
        Entry::event(t(y, m, d), Payload::Diagnosis(Code::icpc(code)), SourceKind::PrimaryCare)
    }

    #[test]
    fn entries_stay_sorted_regardless_of_insert_order() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 6, 1, "K74"));
        h.insert(diag(2014, 1, 1, "T90"));
        h.insert(diag(2016, 2, 2, "R95"));
        h.insert(diag(2014, 6, 1, "A01"));
        let starts: Vec<_> = h.entries().iter().map(|e| e.start()).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn pre_birth_entries_are_dropped() {
        let mut h = History::new(patient());
        let report = h.insert_all(vec![
            diag(1949, 1, 1, "A01"),  // before 1950-06-15 birth
            diag(1950, 6, 15, "A01"), // birth day itself is valid
            diag(2000, 1, 1, "T90"),
        ]);
        assert_eq!(report, ValidationReport { accepted: 2, dropped_pre_birth: 1 });
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn span_accounts_for_long_intervals() {
        let mut h = History::new(patient());
        h.insert(Entry::interval(
            t(2015, 1, 1),
            t(2015, 12, 31),
            Payload::Episode(EpisodeKind::HomeCare),
            SourceKind::Municipal,
        ));
        h.insert(diag(2015, 3, 1, "T90"));
        assert_eq!(h.first_time(), Some(t(2015, 1, 1)));
        assert_eq!(h.last_time(), Some(t(2015, 12, 31))); // not the March event
        assert_eq!(h.span(), Some(Duration::days(364)));
    }

    #[test]
    fn last_time_over_shared_and_detached_stores() {
        let long_stay = Entry::interval(
            t(2014, 1, 1),
            t(2019, 1, 1),
            Payload::Episode(EpisodeKind::NursingHome),
            SourceKind::Municipal,
        );
        let short_stay = Entry::interval(
            t(2016, 1, 1),
            t(2016, 1, 5),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        let person = |id| Patient { id: PatientId(id), ..patient() };
        let mut b = crate::CollectionBuilder::new();
        // Neighbours in one arena: the spans must not see each other's
        // intervals.
        b.add_patient(person(1), vec![diag(2015, 1, 1, "A01"), diag(2018, 1, 1, "T90")]);
        b.add_patient(person(2), vec![long_stay, diag(2015, 3, 1, "T90"), diag(2018, 6, 1, "K74")]);
        b.add_patient(person(3), vec![]);
        b.add_patient(
            person(4),
            vec![diag(2013, 1, 1, "A01"), short_stay, diag(2017, 1, 1, "T90")],
        );
        let (collection, _) = b.build();
        let last = |id| collection.get(PatientId(id)).unwrap().last_time();
        assert_eq!(last(1), Some(t(2018, 1, 1)), "point events only: the last start");
        assert_eq!(last(2), Some(t(2019, 1, 1)), "the early interval outlasts every later start");
        assert_eq!(last(3), None, "empty span inside a shared arena");
        assert_eq!(last(4), Some(t(2017, 1, 1)), "an interval that ends before the last start");
        // Detach patient 1 onto a store of its own by mutating it.
        let mut own = collection.get(PatientId(1)).unwrap().clone();
        own.insert(Entry::interval(
            t(2015, 6, 1),
            t(2020, 1, 1),
            Payload::Episode(EpisodeKind::HomeCare),
            SourceKind::Municipal,
        ));
        assert!(!Arc::ptr_eq(own.store(), collection.get(PatientId(1)).unwrap().store()));
        assert_eq!(own.last_time(), Some(t(2020, 1, 1)));
        assert_eq!(own.span(), Some(t(2020, 1, 1) - t(2015, 1, 1)));
        for h in collection.iter().chain([&own]) {
            assert_eq!(h.last_time(), h.entries().iter().map(|e| e.end()).max());
        }
    }

    #[test]
    fn the_birth_rule_is_one_instant_for_every_caller() {
        let born = patient().birth_date;
        let at = |time| {
            Entry::event(time, Payload::Diagnosis(Code::icpc("A01")), SourceKind::PrimaryCare)
        };
        let eve = at(born.add_days(-1).at(23, 59, 59).unwrap());
        let midnight = at(born.at_midnight());
        assert!(!patient().admits(eve.start()));
        assert!(patient().admits(midnight.start()));
        let batch = vec![eve.clone(), midnight.clone(), diag(2000, 1, 1, "T90")];
        let expect = ValidationReport { accepted: 2, dropped_pre_birth: 1 };

        let mut one_by_one = History::new(patient());
        let mut report = ValidationReport::default();
        for e in batch.clone() {
            match one_by_one.insert(e) {
                true => report.accepted += 1,
                false => report.dropped_pre_birth += 1,
            }
        }
        assert_eq!(report, expect);
        let mut at_once = History::new(patient());
        assert_eq!(at_once.insert_all(batch.clone()), expect);
        let mut builder = crate::CollectionBuilder::new();
        assert_eq!(builder.add_patient(patient(), batch.clone()), expect);
        let mut epoch = crate::OpenEpoch::new();
        assert_eq!(epoch.append(patient(), batch), expect);
        let (built, _) = builder.build();
        let mut streamed = crate::HistoryCollection::new();
        epoch.seal_into(&mut streamed);
        for h in [
            &one_by_one,
            &at_once,
            built.get(patient().id).unwrap(),
            streamed.get(patient().id).unwrap(),
        ] {
            assert_eq!(
                h.first_time(),
                Some(midnight.start()),
                "00:00:00 on the birth date is kept"
            );
            assert_eq!(h.len(), 2);
        }
    }

    #[test]
    fn entries_in_window() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 1, 1, "A01"));
        h.insert(diag(2015, 6, 1, "T90"));
        h.insert(diag(2015, 12, 1, "K74"));
        let hits: Vec<_> = h.entries_in(t(2015, 5, 1), t(2015, 7, 1)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code().unwrap().value, "T90");
    }

    #[test]
    fn age_calculation() {
        let h = History::new(patient()); // born 1950-06-15
        assert_eq!(h.age_at(Date::new(2015, 6, 14).unwrap()), 64);
        assert_eq!(h.age_at(Date::new(2015, 6, 15).unwrap()), 65);
        assert_eq!(h.age_at(Date::new(1950, 6, 15).unwrap()), 0);
        assert_eq!(h.age_at(Date::new(1949, 1, 1).unwrap()), -2); // pre-birth dates
    }

    #[test]
    fn last_birth_aged_is_the_birthday_cutoff() {
        let d = |y, m, day| Date::new(y, m, day).unwrap().day_number();
        let at = Date::new(2015, 6, 15).unwrap();
        assert_eq!(History::last_birth_aged(at, 65), d(1950, 6, 15));
        assert_eq!(History::last_birth_aged(at, 0), d(2015, 6, 15));
        assert_eq!(History::last_birth_aged(at, -1), d(2016, 6, 15));
        // Born 29 February: a year older on 28 February of a common year.
        let common = Date::new(2013, 2, 28).unwrap();
        assert_eq!(History::last_birth_aged(common, 1), d(2012, 2, 29));
        assert_eq!(History::last_birth_aged(at, i32::MAX), Date::MIN.day_number() - 1);
        assert_eq!(History::last_birth_aged(at, i32::MIN), Date::MAX.day_number());
        assert_eq!(History::last_birth_aged(Date::MAX, 0), Date::MAX.day_number());
    }

    #[test]
    fn first_matching_finds_alignment_anchor() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 1, 1, "A01"));
        h.insert(diag(2015, 6, 1, "T90"));
        h.insert(diag(2016, 1, 1, "T90"));
        let anchor =
            h.first_matching(|e| e.code().is_some_and(|c| c.value == "T90")).expect("anchor");
        assert_eq!(anchor.start(), t(2015, 6, 1));
    }

    #[test]
    fn diagnosis_sequence_skips_other_payloads() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 1, 1, "A01"));
        h.insert(Entry::event(
            t(2015, 2, 1),
            Payload::Medication(Code::atc("C07AB02")),
            SourceKind::Prescription,
        ));
        h.insert(diag(2015, 3, 1, "T90"));
        let seq: Vec<_> = h.diagnosis_sequence().iter().map(|c| c.value.clone()).collect();
        assert_eq!(seq, vec!["A01", "T90"]);
    }

    #[test]
    fn empty_history_edge_cases() {
        let h = History::new(patient());
        assert!(h.is_empty());
        assert_eq!(h.first_time(), None);
        assert_eq!(h.last_time(), None);
        assert_eq!(h.span(), None);
    }

    #[test]
    fn insert_detaches_a_shared_span_without_disturbing_it() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 1, 1, "A01"));
        let shared = h.clone(); // both now point at the same store
        h.insert(diag(2015, 6, 1, "T90"));
        assert_eq!(h.len(), 2);
        assert_eq!(shared.len(), 1, "the shared clone is untouched");
        assert!(!Arc::ptr_eq(h.store(), shared.store()), "detached onto a new store");
        assert!(
            shared.store().dictionary().is_prefix_of(h.store().dictionary()),
            "the dictionary stays compatible"
        );
    }

    #[test]
    fn equal_keys_preserve_insertion_order() {
        let mut h = History::new(patient());
        h.insert(diag(2015, 1, 1, "A01"));
        h.insert(diag(2015, 1, 1, "T90"));
        h.insert(diag(2015, 1, 1, "K74"));
        let codes: Vec<_> = h.entries().iter().map(|e| e.code().unwrap().value.clone()).collect();
        assert_eq!(codes, vec!["A01", "T90", "K74"], "ties append after existing");
    }
}
