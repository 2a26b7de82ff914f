//! The workbench operators: sorting and aligning histories.
//!
//! §IV.B: "In an aligned diagram, the axis shows the number of months
//! before and after the alignment point." Alignment computes, per history,
//! the anchor instant (the first entry matching a predicate — "merged
//! around the first incidence of diabetes"); histories with no anchor drop
//! out of the aligned view.

use crate::predicate::{BoundPredicate, EntryPredicate};
use crate::radix::{radix_order, RowKeys};
use pastas_model::{HistoryCollection, PatientId, RowSpan};
use pastas_regex::Regex;
use pastas_time::DateTime;
use std::collections::HashMap;
use std::ops::Range;
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
/// bound once a call against the collection's dictionary, through the
/// one prefix resolver ([`BoundPredicate`]): each entry is tested by a
/// flag lookup on its `kinds`/`aux` words, never by a string match.
/// Returns the alignment and its display order:
/// anchored rows by `(anchor, position)`, then every other row in
/// position order.
pub fn align_rows(
    collection: &HistoryCollection,
    re: &Regex,
    candidates: &[u32],
) -> (Alignment, Vec<u32>) {
    let histories = collection.histories();
    let pred = EntryPredicate::CodeMatches(re.clone());
    let bound = BoundPredicate::new(&pred, collection.dictionary());
    let mut anchors = HashMap::with_capacity(candidates.len());
    let mut anchored = Vec::with_capacity(candidates.len());
    for &p in candidates {
        let Some(h) = histories.get(p as usize) else { continue };
        if let Some(e) = h.entries().iter().find(|&e| bound.matches(e)) {
            anchors.insert(h.id(), e.start());
            anchored.push((e.start(), p));
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

/// Return history positions in sorted order (stable, ascending: equal
/// keys keep position order). Empty histories sort after every other row
/// by first entry and before every other row by span.
///
/// Every key is read straight off the collection's row table, a chunk's
/// slices at a time: entry counts, first starts and last
/// ends from its columns, patient ids from its inline histories. No key
/// array is built: the radix order reads each row's key in its first
/// pass.
pub fn sort_histories(collection: &HistoryCollection, key: &SortKey) -> Vec<u32> {
    let n = collection.len();
    match key {
        SortKey::PatientId => {
            radix_order(n, ColumnKeys::new(collection, |s, i| s.histories.get(i).map(|h| h.id().0)))
        }
        SortKey::EntryCount => {
            radix_order(n, ColumnKeys::new(collection, |s, i| s.entry_counts.get(i).map(|&c| c.into())))
        }
        // The sign flip orders `i64` seconds as `u64`; empty rows go last.
        SortKey::FirstEntry => radix_order(
            n,
            ColumnKeys::new(collection, |s, i| {
                let (&count, &first) = (s.entry_counts.get(i)?, s.first_starts.get(i)?);
                (count > 0).then_some(first as u64 ^ 1 << 63)
            }),
        ),
        // A span is never negative; an empty row (0) goes before them all.
        SortKey::Span => radix_order(
            n,
            ColumnKeys::new(collection, |s, i| {
                let (&count, &first, &last) =
                    (s.entry_counts.get(i)?, s.first_starts.get(i)?, s.last_ends.get(i)?);
                Some(if count > 0 { last.abs_diff(first) + 1 } else { 0 })
            }),
        ),
    }
}

/// A sort key read off the row table: `key(span, i)` is the key of row
/// `i` of `span`.
struct ColumnKeys<'a, K> {
    collection: &'a HistoryCollection,
    key: K,
}

impl<'a, K: Fn(&RowSpan<'_>, usize) -> Option<u64> + Sync> ColumnKeys<'a, K> {
    fn new(collection: &'a HistoryCollection, key: K) -> Self {
        ColumnKeys { collection, key }
    }
}

impl<K: Fn(&RowSpan<'_>, usize) -> Option<u64> + Sync> RowKeys for ColumnKeys<'_, K> {
    fn each(&self, rows: Range<usize>, mut f: impl FnMut(usize, Option<u64>)) {
        for span in self.collection.spans(rows) {
            for i in 0..span.len() {
                f(span.start + i, (self.key)(&span, i));
            }
        }
    }

    fn key(&self, p: usize) -> Option<u64> {
        self.collection.spans(p..p + 1).next().and_then(|span| (self.key)(&span, 0))
    }
}

/// The oracle [`sort_histories`] is checked against: each key derived
/// from its history, under a stable comparison sort.
#[cfg(test)]
pub(crate) fn reference_sort(collection: &HistoryCollection, key: &SortKey) -> Vec<u32> {
    let key_of = |h: &pastas_model::History| match key {
        SortKey::PatientId => i128::from(h.id().0),
        SortKey::FirstEntry => i128::from(h.first_time().map_or(i64::MAX, |t| t.second_number())),
        SortKey::EntryCount => h.len() as i128,
        SortKey::Span => i128::from(h.span().map_or(-1, |d| d.as_seconds())),
    };
    let hs = collection.histories();
    let mut order: Vec<u32> = (0..hs.len() as u32).collect();
    order.sort_by_key(|&i| key_of(&hs[i as usize]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::RADIX_MIN_PER_THREAD;
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

    /// `radix_order` over explicit keys.
    fn order_of(keys: &[Option<u64>]) -> Vec<u32> {
        radix_order(keys.len(), |p| keys[p])
    }

    #[test]
    fn radix_order_is_stable_at_every_width() {
        let some = |ks: &[u64]| ks.iter().map(|&k| Some(k)).collect::<Vec<_>>();
        assert_eq!(order_of(&some(&[3, 1, 3, 1, 0])), [4, 1, 3, 0, 2], "ties keep position order");
        assert_eq!(order_of(&some(&[7])), [0]);
        assert_eq!(order_of(&some(&[5, 5, 5])), [0, 1, 2]);
        assert_eq!(order_of(&some(&[0, 0])), [0, 1], "no pass at all");
        let big = 1u64 << 40;
        assert_eq!(order_of(&some(&[big, 3, big + 1, 1 << 33, 3])), [1, 4, 3, 0, 2]);
        // Only the high digit differs: the first pass counts at its shift.
        assert_eq!(order_of(&some(&[big, 0, big, 0])), [1, 3, 0, 2]);
        // Rows without a key go last, in position order, behind equal keys too.
        assert_eq!(order_of(&[None, Some(2), None, Some(2)]), [1, 3, 0, 2]);
        assert_eq!(order_of(&[None, Some(big), Some(1), None]), [2, 1, 0, 3]);
        // Keys over the whole u64 range (six passes), and keys with many
        // ties and keyless rows, against a stable sort: one chunk, and
        // enough rows for four.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x
        };
        let rows = 4 * RADIX_MIN_PER_THREAD + 7;
        let wide: Vec<_> = (0..rows).map(|i| Some(if i % 3 == 0 { next() >> (i % 64) } else { next() })).collect();
        let tied: Vec<_> = (0..rows).map(|_| Some(next() % 5_000).filter(|k| k % 7 != 0)).collect();
        for keys in [&wide[..3_000], &wide, &tied] {
            let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
            expect.sort_by_key(|&i| keys[i as usize].map_or((1, 0), |k| (0, k)));
            for threads in [1, 4] {
                assert_eq!(pastas_par::with_threads(threads, || order_of(keys)), expect);
            }
        }
    }

    #[test]
    fn rebasing_places_empty_rows_and_negative_keys() {
        // Starts before 1970 are negative seconds; the sign flip keeps them first.
        let c = HistoryCollection::from_histories([
            history(1, &[("A01", (2013, 1, 1))]),
            history(2, &[]),
            history(3, &[("A01", (1960, 1, 1)), ("A01", (1961, 1, 1))]),
            history(4, &[("A01", (1969, 12, 31))]),
        ]);
        assert_eq!(sort_histories(&c, &SortKey::FirstEntry), [2, 3, 0, 1], "empty row last");
        assert_eq!(sort_histories(&c, &SortKey::Span), [1, 0, 3, 2], "empty row first");
        let empty = HistoryCollection::from_histories([history(1, &[]), history(2, &[])]);
        assert_eq!(sort_histories(&empty, &SortKey::FirstEntry), [0, 1], "only empty rows");
    }

    #[test]
    fn empty_collection() {
        let c = HistoryCollection::new();
        let a = align_on(&c, &EntryPredicate::Any);
        assert!(a.is_empty());
        assert!(sort_histories(&c, &SortKey::PatientId).is_empty());
    }
}
