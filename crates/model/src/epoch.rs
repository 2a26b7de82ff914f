//! The mutable *open epoch*: the streaming-ingest staging area.
//!
//! Batch builds go `CollectionBuilder` → sealed arenas → frozen
//! collection. A production registry also receives a continuous feed, so
//! this module adds the append path: an [`OpenEpoch`] is an unsealed tail
//! arena that accepts per-patient entry deltas ([`OpenEpoch::append`])
//! and, on demand, seals them into a [`HistoryCollection`]
//! ([`OpenEpoch::seal_into`]) — merging into existing histories and
//! appending brand-new patients at the end of the display order, all on
//! one grown version of the collection's code dictionary (append-only,
//! so existing [`crate::CodeId`]s stay stable). The epoch then resets
//! and is ready for the next round of deltas.
//!
//! The epoch itself is *staging*: rows sit in arrival order and only
//! become query-visible once sealed into the collection and the query
//! layer has patched the postings the touched rows join or leave (see
//! `CodeIndex::with_delta` in `pastas-query`).

use crate::history::{History, Patient, ValidationReport};
use crate::store::EventStore;
use crate::{CodeDictionary, Entry, HistoryCollection, PatientId};
use std::collections::HashMap;
use std::sync::Arc;

/// The unsealed tail arena of a streaming collection: validated entry
/// deltas staged in arrival order, per patient, until sealed.
#[derive(Debug, Default)]
pub struct OpenEpoch {
    /// Staged rows, in arrival order (unsorted — sorting happens at seal).
    arena: EventStore,
    /// `(patient, lo, hi)` row spans of `arena`, contiguous and in
    /// arrival order. One patient may appear in several spans.
    spans: Vec<(Patient, u32, u32)>,
}

impl OpenEpoch {
    /// An empty epoch.
    pub fn new() -> OpenEpoch {
        OpenEpoch::default()
    }

    /// Stage one patient's entry delta. Entries predating the patient's
    /// birth are dropped here (§IV validation), exactly as the batch
    /// path's [`crate::CollectionBuilder::add_patient`] does. An empty
    /// (or fully dropped) delta still records the patient, so a
    /// demographics-only record creates an empty history at seal time.
    pub fn append(&mut self, patient: Patient, entries: Vec<Entry>) -> ValidationReport {
        let mut report = ValidationReport::default();
        let lo = self.arena.len_u32();
        for e in entries {
            if !patient.admits(e.start()) {
                report.dropped_pre_birth += 1;
            } else {
                report.accepted += 1;
                self.arena.push(&e);
            }
        }
        let hi = self.arena.len_u32();
        self.spans.push((patient, lo, hi));
        report
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of staged deltas (spans; one patient may count twice).
    pub fn pending_deltas(&self) -> usize {
        self.spans.len()
    }

    /// Seal the staged deltas into `collection` and reset the epoch.
    ///
    /// The staged codes the collection's dictionary lacks are appended
    /// to a copy of it first, in arrival order, and every store built
    /// here holds that one version. Existing patients get their history
    /// rebuilt — the new entries merge into the sorted `(start, end)`
    /// order, code ids stay stable and the history keeps its display
    /// position. New patients are appended at the end of the display
    /// order, in first-arrival order, all spanning one fresh shared arena
    /// (the same layout a [`crate::CollectionBuilder`] seal produces).
    ///
    /// Returns the distinct patient ids touched, in first-arrival order —
    /// the rows whose postings the query layer's index patches.
    pub fn seal_into(&mut self, collection: &mut HistoryCollection) -> Vec<PatientId> {
        if self.spans.is_empty() {
            return Vec::new();
        }
        let mut dict = Arc::clone(collection.dictionary());
        for code in self.arena.dictionary().iter() {
            CodeDictionary::intern_shared(&mut dict, code);
        }
        // Group staged rows per patient, preserving first-arrival order.
        let mut order: Vec<Patient> = Vec::new();
        let mut grouped: HashMap<PatientId, Vec<Entry>> = HashMap::new();
        for &(patient, lo, hi) in &self.spans {
            let entries = grouped.entry(patient.id).or_insert_with(|| {
                order.push(patient);
                Vec::new()
            });
            for row in lo..hi {
                entries.push(self.arena.get(row).to_entry());
            }
        }
        let mut touched: Vec<PatientId> = Vec::with_capacity(order.len());
        // New patients share one fresh arena, sealed below.
        let mut fresh = EventStore::with_dictionary(Arc::clone(&dict));
        let mut fresh_spans: Vec<(Patient, u32, u32)> = Vec::new();
        for patient in order {
            touched.push(patient.id);
            let mut entries = grouped.remove(&patient.id).unwrap_or_default();
            match collection.get(patient.id) {
                Some(existing) => {
                    // Merge into the existing history: one rebuild,
                    // replaced in place (stable display position).
                    let mut history = existing.clone();
                    history.rebuild_on(Arc::clone(&dict), entries);
                    collection.upsert(history);
                }
                None => {
                    entries.sort_by_key(|e| (e.start(), e.end()));
                    let lo = fresh.len_u32();
                    for e in &entries {
                        fresh.push(e);
                    }
                    fresh_spans.push((patient, lo, fresh.len_u32()));
                }
            }
        }
        if !fresh_spans.is_empty() {
            let arena = Arc::new(fresh);
            for (patient, lo, hi) in fresh_spans {
                collection.upsert(History::from_span(patient, Arc::clone(&arena), lo, hi));
            }
        }
        self.arena = EventStore::new();
        self.spans.clear();
        touched
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the spans tile the arena contiguously in arrival
    /// order and the arena's own columns validate.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        self.arena.debug_validate();
        let mut next = 0u32;
        for (i, &(_, lo, hi)) in self.spans.iter().enumerate() {
            assert!(lo <= hi, "epoch: span {i} is reversed ({lo}, {hi})");
            assert_eq!(
                lo,
                next,
                "epoch: span {i} does not start where span {} ended",
                i.max(1) - 1
            );
            next = hi;
        }
        assert_eq!(
            next,
            self.arena.len_u32(),
            "epoch: spans cover {next} rows but the arena holds {}",
            self.arena.len()
        );
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, Sex, SourceKind};
    use pastas_codes::Code;
    use pastas_time::Date;

    fn patient(id: u64) -> Patient {
        Patient { id: PatientId(id), birth_date: Date::new(1950, 6, 15).unwrap(), sex: Sex::Female }
    }

    fn diag(y: i32, m: u32, d: u32, code: &str) -> Entry {
        Entry::event(
            Date::new(y, m, d).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc(code)),
            SourceKind::PrimaryCare,
        )
    }

    #[test]
    fn append_validates_and_stages() {
        let mut epoch = OpenEpoch::new();
        let report =
            epoch.append(patient(1), vec![diag(1949, 1, 1, "A01"), diag(2015, 3, 1, "T90")]);
        assert_eq!(report, ValidationReport { accepted: 1, dropped_pre_birth: 1 });
        assert_eq!(epoch.len(), 1);
        assert_eq!(epoch.pending_deltas(), 1);
        epoch.debug_validate();
    }

    #[test]
    fn seal_appends_new_patients_in_arrival_order() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        epoch.append(patient(7), vec![diag(2015, 3, 1, "T90")]);
        epoch.append(patient(3), vec![diag(2016, 1, 1, "K74"), diag(2015, 1, 1, "A01")]);
        let touched = epoch.seal_into(&mut collection);
        assert_eq!(touched, vec![PatientId(7), PatientId(3)]);
        assert!(epoch.is_empty());
        let ids: Vec<u64> = collection.iter().map(|h| h.id().0).collect();
        assert_eq!(ids, vec![7, 3], "arrival order");
        // Entries come out (start, end)-sorted despite arrival order.
        let h3 = collection.get(PatientId(3)).unwrap();
        let codes: Vec<_> = h3.entries().iter().map(|e| e.code().unwrap().value.clone()).collect();
        assert_eq!(codes, vec!["A01", "K74"]);
        h3.debug_validate();
        // Both new patients share one fresh arena.
        assert!(Arc::ptr_eq(
            collection.get(PatientId(7)).unwrap().store(),
            collection.get(PatientId(3)).unwrap().store(),
        ));
    }

    #[test]
    fn seal_merges_existing_patients_with_stable_ids_and_positions() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        epoch.append(patient(1), vec![diag(2015, 1, 1, "T90")]);
        epoch.append(patient(2), vec![diag(2015, 2, 1, "K74")]);
        epoch.seal_into(&mut collection);
        let old_dict = Arc::clone(collection.get(PatientId(1)).unwrap().store().dictionary());
        let t90 = old_dict.lookup(&Code::icpc("T90")).expect("interned");

        // Second round touches patient 1 only.
        epoch.append(patient(1), vec![diag(2014, 6, 1, "A01")]);
        let touched = epoch.seal_into(&mut collection);
        assert_eq!(touched, vec![PatientId(1)]);
        assert_eq!(collection.position_of(PatientId(1)), Some(0), "position kept");
        let h = collection.get(PatientId(1)).unwrap();
        assert_eq!(h.len(), 2);
        let codes: Vec<_> = h.entries().iter().map(|e| e.code().unwrap().value.clone()).collect();
        assert_eq!(codes, vec!["A01", "T90"], "merged into sorted order");
        // The grown dictionary still resolves the old id to the same code.
        assert_eq!(h.store().dictionary().resolve(t90), &Code::icpc("T90"));
        assert!(old_dict.is_prefix_of(collection.dictionary()));
        assert!(Arc::ptr_eq(h.store().dictionary(), collection.dictionary()));
        // Patient 2 was untouched: same Arc as before.
        assert_eq!(collection.get(PatientId(2)).unwrap().len(), 1);
    }

    /// Streamed entries whose codes the dictionary already holds must not
    /// deep-clone it: the rebuilt history shares the collection's.
    #[test]
    fn extending_with_known_codes_shares_the_interner() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        epoch.append(patient(1), vec![diag(2015, 1, 1, "T90"), diag(2015, 2, 1, "K74")]);
        epoch.append(patient(2), vec![diag(2015, 3, 1, "A01")]);
        epoch.seal_into(&mut collection);
        let old = collection.get(PatientId(1)).unwrap().clone();
        epoch.append(patient(1), vec![diag(2016, 1, 1, "K74"), diag(2016, 2, 1, "A01")]);
        epoch.seal_into(&mut collection);
        let new = collection.get(PatientId(1)).unwrap();
        assert_eq!(new.len(), 4);
        assert!(Arc::ptr_eq(new.store().dictionary(), old.store().dictionary()));
        // A code the dictionary lacks joins a grown copy, which becomes
        // the collection's.
        epoch.append(patient(1), vec![diag(2017, 1, 1, "R95")]);
        epoch.seal_into(&mut collection);
        let grown = collection.get(PatientId(1)).unwrap();
        assert!(!Arc::ptr_eq(grown.store().dictionary(), old.store().dictionary()));
        assert_eq!(grown.store().dictionary().len(), old.store().dictionary().len() + 1);
        assert!(Arc::ptr_eq(grown.store().dictionary(), collection.dictionary()));
        collection.debug_validate();
    }

    #[test]
    fn persons_only_delta_creates_an_empty_history() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        epoch.append(patient(9), Vec::new());
        let touched = epoch.seal_into(&mut collection);
        assert_eq!(touched, vec![PatientId(9)]);
        let h = collection.get(PatientId(9)).unwrap();
        assert!(h.is_empty());
        h.debug_validate();
    }

    #[test]
    fn repeated_deltas_for_one_patient_coalesce_at_seal() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        epoch.append(patient(5), vec![diag(2016, 1, 1, "R95")]);
        epoch.append(patient(5), vec![diag(2015, 1, 1, "T90")]);
        assert_eq!(epoch.pending_deltas(), 2);
        epoch.debug_validate();
        let touched = epoch.seal_into(&mut collection);
        assert_eq!(touched, vec![PatientId(5)], "one distinct patient");
        let h = collection.get(PatientId(5)).unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.entries().get(0).start() < h.entries().get(1).start());
    }

    #[test]
    fn sealing_an_empty_epoch_is_a_no_op() {
        let mut collection = HistoryCollection::new();
        let mut epoch = OpenEpoch::new();
        assert!(epoch.seal_into(&mut collection).is_empty());
        assert!(collection.is_empty());
    }
}
