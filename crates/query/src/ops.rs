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
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
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

/// Return history positions in sorted order (stable, ascending: equal
/// keys keep position order). Empty histories sort after every other row
/// by first entry and before every other row by span.
///
/// Entry counts, first starts and spans come from the collection's
/// [`pastas_model::RowColumns`]; only patient ids are read off the
/// histories. Every key is rebased to `0..` and ordered by [`radix_order`].
pub fn sort_histories(collection: &HistoryCollection, key: &SortKey) -> Vec<u32> {
    let rows = collection.rows();
    let counts = rows.entry_counts();
    let keys: Vec<u64> = match key {
        SortKey::PatientId => {
            let mut ids: Vec<u64> = collection.histories().iter().map(|h| h.id().0).collect();
            let min = ids.iter().copied().min().unwrap_or(0);
            ids.iter_mut().for_each(|id| *id -= min);
            ids
        }
        SortKey::EntryCount => counts.iter().map(|&n| u64::from(n)).collect(),
        SortKey::FirstEntry => rebased(counts, rows.first_starts().iter().copied(), true),
        SortKey::Span => {
            let spans = rows.last_ends().iter().zip(rows.first_starts()).map(|(l, f)| l - f);
            rebased(counts, spans, false)
        }
    };
    radix_order(&keys)
}

/// `keys` less the smallest key of a non-empty row, as `u64`. Empty rows
/// (a zero count) go after every other row when `empty_last`, at one past
/// the largest key; else before them, at 0, with the others shifted up
/// by one.
fn rebased(counts: &[u32], keys: impl Iterator<Item = i64> + Clone, empty_last: bool) -> Vec<u64> {
    let (min, max) = keys
        .clone()
        .zip(counts)
        .filter(|&(_, &n)| n > 0)
        .fold(None, |range, (k, _)| match range {
            Some((lo, hi)) => Some((k.min(lo), k.max(hi))),
            None => Some((k, k)),
        })
        .unwrap_or((0, 0));
    let (empty, shift) = if empty_last { (max.abs_diff(min) + 1, 0) } else { (0, 1) };
    keys.zip(counts).map(|(k, &n)| if n > 0 { k.abs_diff(min) + shift } else { empty }).collect()
}

/// Bits a radix digit covers: 2,048 buckets, whose counts fit in L1.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Rows a thread takes at the least in one radix pass.
const RADIX_MIN_PER_THREAD: usize = 1 << 14;

/// The positions of `keys` in stable ascending key order: a
/// least-significant-digit radix sort with as many passes as the largest
/// key has digits, and none when `keys` is already in order (patient ids
/// usually are). A pass splits the current order into contiguous chunks,
/// one a thread: each chunk reads its digits straight from `keys` once
/// and counts them, and then scatters its positions (only positions move)
/// to where its chunk starts within each digit's bucket, which keeps the
/// sort stable at every thread count.
fn radix_order(keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<AtomicU32> = (0..keys.len() as u32).map(AtomicU32::new).collect();
    let top = if keys.is_sorted() {
        0
    } else {
        keys.iter().max().map_or(0, |m| u64::BITS - m.leading_zeros())
    };
    let mut spare: Vec<AtomicU32> = Vec::new();
    for pass in 0..top.div_ceil(DIGIT_BITS) {
        spare.resize_with(keys.len(), AtomicU32::default);
        let mut chunks = pastas_par::par_chunks(&order, RADIX_MIN_PER_THREAD, |start, chunk| {
            let digits: Vec<u16> = chunk
                .iter()
                // lint:allow(no-panic-hot-path) order holds 0..keys.len()
                .map(|p| keys[p.load(Relaxed) as usize] >> (pass * DIGIT_BITS))
                .map(|k| (k & (BUCKETS as u64 - 1)) as u16)
                .collect();
            let mut at = [0u32; BUCKETS];
            for &d in &digits {
                // lint:allow(no-panic-hot-path) a digit is masked below BUCKETS
                at[usize::from(d)] += 1;
            }
            (start, digits, at)
        });
        // Counts to starts: bucket by bucket, chunk by chunk within one.
        let mut sum = 0;
        for b in 0..BUCKETS {
            for (_, _, at) in &mut chunks {
                // lint:allow(no-panic-hot-path) b < BUCKETS
                (sum, at[b]) = (sum + at[b], sum);
            }
        }
        pastas_par::par_chunks(&order, RADIX_MIN_PER_THREAD, |start, chunk| {
            let Some((_, digits, at)) = chunks.iter().find(|c| c.0 == start) else { return };
            let mut at = *at;
            for (p, &d) in chunk.iter().zip(digits) {
                let d = usize::from(d);
                // lint:allow(no-panic-hot-path) the starts place each position below keys.len()
                spare[at[d] as usize].store(p.load(Relaxed), Relaxed);
                // lint:allow(no-panic-hot-path) a digit is masked below BUCKETS
                at[d] += 1;
            }
        });
        std::mem::swap(&mut order, &mut spare);
    }
    order.into_iter().map(AtomicU32::into_inner).collect()
}

/// The oracle [`sort_histories`] is checked against: each key derived
/// from its history, under a stable comparison sort.
#[cfg(test)]
pub(crate) fn reference_sort(collection: &HistoryCollection, key: &SortKey) -> Vec<u32> {
    let key_of = |h: &History| match key {
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
    fn radix_order_is_stable_at_every_width() {
        assert_eq!(radix_order(&[3, 1, 3, 1, 0]), [4, 1, 3, 0, 2], "ties keep position order");
        assert_eq!(radix_order(&[7]), [0]);
        assert_eq!(radix_order(&[5, 5, 5]), [0, 1, 2]);
        assert_eq!(radix_order(&[0, 0]), [0, 1], "no pass at all");
        let big = 1u64 << 40;
        assert_eq!(radix_order(&[big, 3, big + 1, 1 << 33, 3]), [1, 4, 3, 0, 2]);
        // Keys over the whole u64 range (six passes), and keys with many
        // ties, against a stable sort: one chunk, and enough rows for four.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x
        };
        let rows = 4 * RADIX_MIN_PER_THREAD + 7;
        let wide: Vec<u64> = (0..rows).map(|i| if i % 3 == 0 { next() >> (i % 64) } else { next() }).collect();
        let tied: Vec<u64> = (0..rows).map(|_| next() % 5_000).collect();
        for keys in [&wide[..3_000], &wide, &tied] {
            let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
            expect.sort_by_key(|&i| keys[i as usize]);
            for threads in [1, 4] {
                assert_eq!(pastas_par::with_threads(threads, || radix_order(keys)), expect);
            }
        }
    }

    #[test]
    fn rebasing_places_empty_rows_and_negative_keys() {
        let (counts, keys) = ([1, 1, 1, 0], [-5i64, 3, -9, 100]);
        assert_eq!(rebased(&counts, keys.into_iter(), true), [4, 12, 0, 13]);
        assert_eq!(rebased(&counts, keys.into_iter(), false), [5, 13, 1, 0]);
        assert_eq!(rebased(&[0, 0], [7, -7].into_iter(), true), [1, 1], "only empty rows");
    }

    #[test]
    fn empty_collection() {
        let c = HistoryCollection::new();
        let a = align_on(&c, &EntryPredicate::Any);
        assert!(a.is_empty());
        assert!(sort_histories(&c, &SortKey::PatientId).is_empty());
    }
}
