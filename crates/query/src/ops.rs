//! The workbench operators: sorting and aligning histories.
//!
//! §IV.B: "In an aligned diagram, the axis shows the number of months
//! before and after the alignment point." Alignment computes, per history,
//! the anchor instant (the first entry matching a predicate — "merged
//! around the first incidence of diabetes"); histories with no anchor drop
//! out of the aligned view.

use crate::predicate::EntryPredicate;
use pastas_model::{CodeId, CodeInterner, History, HistoryCollection, PatientId};
use pastas_regex::Regex;
use pastas_time::DateTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-history anchors for the aligned axis mode. Immutable once computed
/// and shared behind an [`Arc`]: the view state, its snapshots and every
/// render clone the handle, never the map.
#[derive(Debug, Clone, Default)]
pub struct Alignment {
    anchors: Arc<HashMap<PatientId, DateTime>>,
}

impl Alignment {
    /// The anchor for a patient, if the history had a matching entry.
    pub fn anchor(&self, id: PatientId) -> Option<DateTime> {
        self.anchors.get(&id).copied()
    }

    /// Number of aligned histories.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if no history anchored.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

/// Compute anchors: the **first** entry of each history matching `pred`.
/// Tests every entry of every history — the reference the bound
/// [`align_rows`] is checked against.
pub fn align_on(collection: &HistoryCollection, pred: &EntryPredicate) -> Alignment {
    let mut anchors = HashMap::new();
    for h in collection {
        if let Some(e) = h.first_matching(|e| pred.matches(e)) {
            anchors.insert(h.id(), e.start());
        }
    }
    Alignment { anchors: Arc::new(anchors) }
}

/// [`align_on`] for a code regex, over `candidates` only: the positions
/// of every history holding a matching code (the planner's
/// `has(pattern)`), so a history outside them has no anchor. The regex is
/// bound once per interner — one flag per [`pastas_model::CodeId`] — and
/// each entry is tested by a lookup on its `kinds`/`aux` words, never by
/// a string match. Interners are few: one per arena, plus one for each
/// history that detached with a code its arena lacked. Returns the
/// alignment and its display order: anchored rows by `(anchor,
/// position)`, then every other row in position order.
pub fn align_rows(
    collection: &HistoryCollection,
    re: &Regex,
    candidates: &[u32],
) -> (Alignment, Vec<u32>) {
    let histories = collection.histories();
    let mut bound: HashMap<*const CodeInterner, Vec<bool>> = HashMap::new();
    let mut first_match = |h: &History| {
        let interner = h.store().interner_arc();
        let flags = bound.entry(Arc::as_ptr(interner)).or_insert_with(|| {
            interner.iter().map(|c| re.is_full_match(&c.value)).collect()
        });
        let hit = |id: CodeId| flags.get(id.0 as usize).copied().unwrap_or(false);
        h.entries().iter().find(|e| e.code_id().is_some_and(hit)).map(|e| e.start())
    };
    let mut anchors = HashMap::with_capacity(candidates.len());
    let mut anchored = Vec::with_capacity(candidates.len());
    for &p in candidates {
        let Some(h) = histories.get(p as usize) else { continue };
        if let Some(t) = first_match(h) {
            anchors.insert(h.id(), t);
            anchored.push((t, p));
        }
    }
    (Alignment { anchors: Arc::new(anchors) }, anchor_order(histories.len(), anchored))
}

/// The aligned display order over `rows` positions: the `anchored` rows
/// by `(anchor, position)`, then every other row in position order —
/// what a stable sort on the anchor with unanchored rows last gives,
/// without a key per row.
fn anchor_order(rows: usize, mut anchored: Vec<(DateTime, u32)>) -> Vec<u32> {
    let mut rest = vec![true; rows];
    for &(_, p) in &anchored {
        if let Some(r) = rest.get_mut(p as usize) {
            *r = false;
        }
    }
    anchored.sort_unstable();
    let first = anchored.into_iter().map(|(_, p)| p);
    first.chain((0..rows as u32).zip(rest).filter_map(|(p, keep)| keep.then_some(p))).collect()
}

/// Sort keys for the vertical order of the display.
#[derive(Debug, Clone)]
pub enum SortKey {
    /// By patient id (the database order of Fig. 1).
    PatientId,
    /// By first entry time.
    FirstEntry,
    /// By total number of entries (utilization).
    EntryCount,
    /// By history span (long trajectories first when descending).
    Span,
}

/// Return history positions in sorted order (stable, ascending).
///
/// Key extraction (a lookup per history; no key walks the entries) is
/// chunked across threads; the sort itself is the serial stable sort over
/// precomputed keys, so the order is identical at every thread count.
pub fn sort_histories(collection: &HistoryCollection, key: &SortKey) -> Vec<u32> {
    let hs = collection.histories();
    let mut order: Vec<u32> = (0..hs.len() as u32).collect();
    // One dispatch a sort, not one a history: each key gets its own loop.
    let keys: Vec<i64> = match key {
        SortKey::PatientId => pastas_par::par_map(hs, |h| h.id().0 as i64),
        SortKey::FirstEntry => {
            pastas_par::par_map(hs, |h| h.first_time().map_or(i64::MAX, |t| t.second_number()))
        }
        SortKey::EntryCount => pastas_par::par_map(hs, |h| h.len() as i64),
        SortKey::Span => pastas_par::par_map(hs, |h| h.span().map_or(-1, |d| d.as_seconds())),
    };
    // lint:allow(no-panic-hot-path) order holds indices 0..hs.len(), one key each
    order.sort_by_key(|&i| keys[i as usize]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, History, Patient, Payload, Sex, SourceKind};
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn history(id: u64, events: &[(&str, (i32, u32, u32))]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(id),
            birth_date: Date::new(1940, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        for &(code, (y, m, d)) in events {
            h.insert(Entry::event(
                t(y, m, d),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    fn collection() -> HistoryCollection {
        HistoryCollection::from_histories([
            history(1, &[("A01", (2013, 1, 1)), ("T90", (2013, 6, 1)), ("T90", (2014, 1, 1))]),
            history(2, &[("T90", (2013, 2, 1))]),
            history(3, &[("K74", (2013, 3, 1))]), // never anchors on T90
        ])
    }

    #[test]
    fn alignment_uses_first_occurrence() {
        let c = collection();
        let a = align_on(&c, &EntryPredicate::code_regex("T90").unwrap());
        assert_eq!(a.len(), 2);
        assert_eq!(a.anchor(PatientId(1)), Some(t(2013, 6, 1)), "first T90, not the 2014 one");
        assert_eq!(a.anchor(PatientId(2)), Some(t(2013, 2, 1)));
        assert_eq!(a.anchor(PatientId(3)), None);
    }

    #[test]
    fn sort_by_patient_id_and_first_entry() {
        let c = collection();
        assert_eq!(sort_histories(&c, &SortKey::PatientId), vec![0, 1, 2]);
        // First entries: h1=2013-01-01, h2=2013-02-01, h3=2013-03-01.
        assert_eq!(sort_histories(&c, &SortKey::FirstEntry), vec![0, 1, 2]);
    }

    #[test]
    fn sort_by_entry_count_is_stable() {
        let c = collection();
        // Counts: 3, 1, 1 → ascending puts h2, h3 (stable) then h1.
        assert_eq!(sort_histories(&c, &SortKey::EntryCount), vec![1, 2, 0]);
    }

    #[test]
    fn sort_by_anchor_puts_unanchored_last() {
        let c = collection();
        let re = Regex::new("T90").unwrap();
        let (a, order) = align_rows(&c, &re, &[0, 1]);
        // Anchors: h1=2013-06-01, h2=2013-02-01, h3=None.
        assert_eq!((a.len(), order), (2, vec![1, 0, 2]));
        // Equal anchors fall back to position; the rest keep theirs.
        let at = t(2013, 2, 1);
        assert_eq!(anchor_order(5, vec![(at, 1), (at, 3), (t(2012, 1, 1), 4)]), [4, 1, 3, 0, 2]);
    }

    #[test]
    fn sort_by_span() {
        let c = collection();
        // Spans: h1 = one year, h2 = h3 = zero.
        let order = sort_histories(&c, &SortKey::Span);
        assert_eq!(order[2], 0, "longest span last when ascending");
    }

    #[test]
    fn empty_collection() {
        let c = HistoryCollection::new();
        let a = align_on(&c, &EntryPredicate::Any);
        assert!(a.is_empty());
        assert!(sort_histories(&c, &SortKey::PatientId).is_empty());
    }
}
