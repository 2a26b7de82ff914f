//! Property tests for model invariants, including the columnar-store
//! round trip (ISSUE 2 satellite): any generated `Vec<Entry>` pushed into
//! an [`EventStore`] reads back through [`EntryRef`] as identical entries
//! in identical order, and history construction over the store reproduces
//! the exact `ValidationReport` accounting of the arrays-of-structs era.

use crate::*;
use pastas_codes::Code;
use pastas_time::{Date, DateTime};
use proptest::prelude::*;

fn arb_datetime() -> impl Strategy<Value = DateTime> {
    // 1990..2030, seconds resolution.
    (631_152_000i64..1_893_456_000).prop_map(|s| DateTime::from_second_number(s).unwrap())
}

/// Any representable instant, the calendar's two edges over-weighted:
/// two draws are usually more than the arena window's 136 years apart.
fn arb_any_datetime() -> impl Strategy<Value = DateTime> {
    let min = Date::MIN.at_midnight();
    let max = Date::MAX.at(23, 59, 59).unwrap();
    prop_oneof![
        arb_datetime(),
        arb_datetime(),
        Just(min),
        Just(max),
        (min.second_number()..=max.second_number())
            .prop_map(|s| DateTime::from_second_number(s).unwrap()),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Diagnosis(Code::icpc("T90"))),
        Just(Payload::Diagnosis(Code::icpc("K74"))),
        Just(Payload::Medication(Code::atc("C07AB02"))),
        Just(Payload::Diagnosis(Code::icd10("E11.9"))),
        (90.0f64..200.0)
            .prop_map(|v| Payload::Measurement { kind: MeasurementKind::SystolicBp, value: v }),
        Just(Payload::Episode(EpisodeKind::Inpatient)),
        ".{0,12}".prop_map(Payload::Note),
    ]
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (arb_datetime(), arb_datetime(), arb_payload(), any::<bool>()).prop_map(
        |(a, b, payload, point)| {
            if point {
                Entry::event(a, payload, SourceKind::PrimaryCare)
            } else {
                Entry::interval(a, b, payload, SourceKind::Hospital)
            }
        },
    )
}

/// Entries over the whole calendar, zero-length intervals included.
fn arb_far_entry() -> impl Strategy<Value = Entry> {
    (arb_any_datetime(), arb_any_datetime(), arb_payload(), 0u8..3, 0usize..5).prop_map(
        |(a, b, payload, shape, source)| match shape {
            0 => Entry::event(a, payload, SourceKind::ALL[source]),
            1 => Entry::interval(a, b, payload, SourceKind::ALL[source]),
            _ => Entry::interval(a, a, payload, SourceKind::ALL[source]),
        },
    )
}

/// Entries for the row-form test: far starts, and times drawn from a
/// pool of four so equal `(start, end)` keys tie often; every payload
/// kind, codes of three systems.
fn arb_row_entry() -> impl Strategy<Value = Entry> {
    let pool = |i: usize| {
        let base = Date::new(2001, 3, 1).unwrap().at_midnight();
        base.add(pastas_time::Duration::days(i as i64 * 3_000))
    };
    let payload = prop_oneof![
        arb_payload(),
        Just(Payload::Diagnosis(Code::icd10("T90"))),
        Just(Payload::Medication(Code::atc("A10BA02"))),
    ];
    let tied = (0usize..4, 0usize..4, payload.clone(), any::<bool>(), 0usize..5).prop_map(
        move |(a, b, payload, point, source)| {
            if point {
                Entry::event(pool(a), payload, SourceKind::ALL[source])
            } else {
                Entry::interval(pool(a), pool(b), payload, SourceKind::ALL[source])
            }
        },
    );
    prop_oneof![arb_far_entry(), tied.clone(), tied]
}

/// Every column of an arena, side tables included.
type Columns = (
    DateTime,
    Vec<u32>,
    Vec<u8>,
    Vec<u32>,
    Vec<(u32, DateTime, DateTime)>,
    Vec<(MeasurementKind, f64)>,
    Vec<String>,
);

fn columns(s: &EventStore) -> Columns {
    (
        s.base,
        s.starts.clone(),
        s.kinds.clone(),
        s.aux.clone(),
        s.wide.iter().map(|w| (w.row, w.start, w.end)).collect(),
        s.measurements.clone(),
        s.notes.clone(),
    )
}

fn patient() -> Patient {
    Patient { id: PatientId(7), birth_date: Date::new(1940, 1, 1).unwrap(), sex: Sex::Male }
}

/// [`CollectionStats`] from materialized entries, sharing no code with the
/// collection's own summary.
fn walked_stats(c: &HistoryCollection) -> CollectionStats {
    let all: Vec<Entry> = c.iter().flat_map(|h| h.entries().to_vec()).collect();
    let events = all.iter().filter(|e| !e.is_interval()).count();
    CollectionStats {
        patients: c.len(),
        entries: all.len(),
        events,
        intervals: all.len() - events,
        first: all.iter().map(Entry::start).min(),
        last: all.iter().map(Entry::end).max(),
        mean_entries: if c.is_empty() { 0.0 } else { all.len() as f64 / c.len() as f64 },
    }
}

proptest! {
    /// Intervals always normalize to start <= end.
    #[test]
    fn interval_invariant(a in arb_datetime(), b in arb_datetime()) {
        let e = Entry::interval(a, b, Payload::Episode(EpisodeKind::Inpatient), SourceKind::Hospital);
        prop_assert!(e.start() <= e.end());
    }

    /// Histories are always sorted by (start, end) no matter the insertion
    /// order, and validation accounting is exact.
    #[test]
    fn history_sorted_invariant(entries in proptest::collection::vec(arb_entry(), 0..40)) {
        let mut h = History::new(patient());
        let n = entries.len();
        let report = h.insert_all(entries);
        h.debug_validate();
        h.store().debug_validate();
        prop_assert_eq!(report.accepted + report.dropped_pre_birth, n);
        prop_assert_eq!(h.len(), report.accepted);
        let es = h.entries();
        for i in 1..es.len() {
            let (a, b) = (es.get(i - 1), es.get(i));
            prop_assert!((a.start(), a.end()) <= (b.start(), b.end()));
        }
        // All surviving entries respect the birth boundary.
        for e in h.entries() {
            prop_assert!(e.start().date() >= h.patient().birth_date);
        }
    }

    /// The store ⇄ `Vec<Entry>` round trip is lossless: arbitrary entries
    /// — at the calendar's edges, further apart than an arena's window —
    /// pushed in arrival order read back identical through `EntryRef`,
    /// whether the store is fresh or starts life detached on a shared
    /// dictionary.
    #[test]
    fn event_store_round_trip(
        entries in proptest::collection::vec(arb_far_entry(), 0..40),
        detached in any::<bool>(),
    ) {
        let mut store = EventStore::new();
        if detached {
            let arena = EventStore::from_entries(entries.iter().take(3));
            store = EventStore::with_dictionary(std::sync::Arc::clone(arena.dictionary()));
        }
        for e in &entries {
            store.push(e);
        }
        store.debug_validate();
        prop_assert_eq!(store.len(), entries.len());
        let all = History::from_span(patient(), std::sync::Arc::new(store), 0, entries.len() as u32);
        let (store, (base, offsets)) = (all.store(), all.entries().start_offsets());
        for (i, e) in entries.iter().enumerate() {
            let r = store.get(i as u32);
            // Zero-copy view agrees field by field …
            prop_assert_eq!(r.start(), e.start());
            prop_assert_eq!(r.end(), e.end());
            prop_assert_eq!(r.source(), e.source());
            prop_assert_eq!(r.is_interval(), e.is_interval());
            prop_assert!(r.payload() == *e.payload());
            // … and materializes back to the identical entry.
            prop_assert_eq!(&r.to_entry(), e);
            prop_assert_eq!(r.describe(), e.describe());
            // The offset view holds the start, or says it cannot.
            if offsets[i] != FAR_START {
                prop_assert_eq!(base + pastas_time::Duration::seconds(i64::from(offsets[i])), e.start());
            }
        }
        let scanned: Vec<_> = all.entries().scan().collect();
        let expect: Vec<_> = all.entries().iter().map(|e| (e.source(), e.code_id())).collect();
        prop_assert_eq!(scanned, expect);
    }

    /// Splicing an entry into the columns in place (`insert_at`, behind
    /// `History::insert` on a store the history owns) equals rebuilding:
    /// intervals before, at and behind the splice keep their wide rows,
    /// and `last_time` keeps equal to the scan it replaced.
    #[test]
    fn splicing_equals_rebuilding(entries in proptest::collection::vec(arb_far_entry(), 0..30)) {
        let mut spliced = History::new(Patient { birth_date: Date::MIN, ..patient() });
        let mut expect: Vec<Entry> = Vec::new();
        for e in entries {
            let key = (e.start(), e.end());
            let at = expect.partition_point(|x| (x.start(), x.end()) <= key);
            expect.insert(at, e.clone());
            let before = std::sync::Arc::as_ptr(spliced.store());
            prop_assert!(spliced.insert(e));
            prop_assert_eq!(std::sync::Arc::as_ptr(spliced.store()), before, "spliced in place");
            spliced.store().debug_validate();
            spliced.debug_validate();
            prop_assert_eq!(&spliced.entries().to_vec(), &expect);
            prop_assert_eq!(spliced.last_time(), expect.iter().map(Entry::end).max());
        }
    }

    /// Building through the shared-arena `CollectionBuilder` produces the
    /// same entries, order, and `ValidationReport` counts as the
    /// insert-by-insert `History` path.
    #[test]
    fn builder_matches_incremental_history(
        entries in proptest::collection::vec(arb_entry(), 0..40),
    ) {
        let mut reference = History::new(patient());
        let mut expected = ValidationReport::default();
        for e in entries.clone() {
            if reference.insert(e) {
                expected.accepted += 1;
            } else {
                expected.dropped_pre_birth += 1;
            }
        }
        let mut builder = CollectionBuilder::new();
        let report = builder.add_patient(patient(), entries);
        prop_assert_eq!(report, expected);
        let (collection, _) = builder.build();
        let built = collection.get(PatientId(7)).unwrap();
        prop_assert_eq!(built.len(), reference.len());
        for (a, b) in built.entries().iter().zip(reference.entries()) {
            prop_assert_eq!(a, b);
        }
    }

    /// A patient given as rows (`add_rows`, codes by index into a code
    /// table with repeats) builds what the same patient given as entries
    /// (`add_patient`) builds: per-patient and merged reports, the
    /// dictionary in id order, every arena column by column, and each
    /// history's arena and span. Pre-birth entries, far starts, equal
    /// `(start, end)` keys, intervals and every payload kind included.
    #[test]
    fn rows_build_what_entries_build(
        people in proptest::collection::vec(
            (1930i32..2030, proptest::collection::vec(arb_row_entry(), 0..12)),
            0..10,
        ),
        width in 0usize..4,
    ) {
        let table = vec![
            Code::icpc("K74"),
            Code::icpc("T90"),
            Code::atc("C07AB02"),
            Code::icd10("T90"),
            Code::icpc("T90"),
            Code::atc("A10BA02"),
            Code::icpc("K74"),
            Code::icd10("E11.9"),
        ];
        // The first or last slot of a code, by the row's position.
        let index = |c: &Code, k: usize| {
            let slot = if k.is_multiple_of(2) {
                table.iter().position(|t| t == c)
            } else {
                table.iter().rposition(|t| t == c)
            };
            slot.unwrap() as u32
        };
        let row = |e: &Entry, k: usize| {
            let item = match e.payload().clone() {
                Payload::Diagnosis(c) => RowItem::Diagnosis(index(&c, k)),
                Payload::Medication(c) => RowItem::Medication(index(&c, k)),
                Payload::Measurement { kind, value } => RowItem::Measurement { kind, value },
                Payload::Episode(kind) => RowItem::Episode(kind),
                Payload::Note(text) => RowItem::Note(text),
            };
            if e.is_interval() {
                Row::interval(e.start(), e.end(), item, e.source())
            } else {
                Row::event(e.start(), item, e.source())
            }
        };
        let person = |i: usize, year: i32| Patient {
            id: PatientId(i as u64),
            birth_date: Date::new(year, 1, 1).unwrap(),
            sex: Sex::Male,
        };
        let mut by_entries = CollectionBuilder::new().with_shard_patients(width);
        let mut by_rows =
            CollectionBuilder::new().with_shard_patients(width).with_codes(table.clone());
        let mut rows = Vec::new();
        for (i, (year, entries)) in people.iter().enumerate() {
            let expect = by_entries.add_patient(person(i, *year), entries.clone());
            rows.extend(entries.iter().enumerate().map(|(k, e)| row(e, k)));
            prop_assert_eq!(by_rows.add_rows(person(i, *year), &mut rows), expect);
            prop_assert!(rows.is_empty(), "add_rows drains its buffer");
        }
        let (a, report_a) = by_entries.build();
        let (b, report_b) = by_rows.build();
        prop_assert_eq!(report_a, report_b);
        let codes = |c: &HistoryCollection| c.dictionary().iter().cloned().collect::<Vec<_>>();
        prop_assert_eq!(codes(&a), codes(&b));
        // Ids follow the order codes first appear in the sorted arena:
        // a code is interned when its first kept row is pushed.
        let mut first_seen: Vec<Code> = Vec::new();
        for (i, (year, entries)) in people.iter().enumerate() {
            let p = person(i, *year);
            let mut kept: Vec<&Entry> = entries.iter().filter(|e| p.admits(e.start())).collect();
            kept.sort_by_key(|e| (e.start(), e.end()));
            for c in kept.iter().filter_map(|e| e.code()) {
                if !first_seen.contains(c) {
                    first_seen.push(c.clone());
                }
            }
        }
        prop_assert_eq!(codes(&b), first_seen);
        let (arenas_a, arenas_b) = (a.sharded_store(), b.sharded_store());
        prop_assert_eq!(arenas_a.shard_count(), arenas_b.shard_count());
        for (x, y) in arenas_a.shards().iter().zip(arenas_b.shards()) {
            y.debug_validate();
            prop_assert_eq!(columns(x), columns(y));
        }
        let arena_of = |c: &HistoryCollection, h: &History| {
            c.sharded_store().shards().iter().position(|s| std::sync::Arc::ptr_eq(s, h.store()))
        };
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.patient(), y.patient());
            prop_assert_eq!(arena_of(&a, x), arena_of(&b, y));
            prop_assert_eq!(x.rows(), y.rows());
        }
    }

    /// Builders filled over block-aligned patient ranges and joined by
    /// `append` give what one builder fed every patient gives: the same
    /// histories, arena count and boundaries, per-arena rows and code
    /// ids, one dictionary, and merged report — uneven last blocks,
    /// pieces of no blocks and pre-birth drops included.
    #[test]
    fn appended_builders_equal_one_builder(
        people in proptest::collection::vec(
            (1980i32..2020, proptest::collection::vec(arb_entry(), 0..6)),
            0..24,
        ),
        width in 1usize..6,
        pieces in proptest::collection::vec((1usize..4, any::<bool>()), 1..8),
    ) {
        let person = |i: usize, year: i32| Patient {
            id: PatientId(i as u64),
            birth_date: Date::new(year, 1, 1).unwrap(),
            sex: Sex::Female,
        };
        let mut whole = CollectionBuilder::new().with_shard_patients(width);
        for (i, (year, entries)) in people.iter().enumerate() {
            whole.add_patient(person(i, *year), entries.clone());
        }
        // Pieces of `blocks` blocks each, some after an empty piece,
        // cycling until every patient is placed.
        let mut joined = CollectionBuilder::new().with_shard_patients(width);
        let mut next = 0;
        for &(blocks, empty_first) in pieces.iter().cycle() {
            if empty_first {
                joined.append(CollectionBuilder::new().with_shard_patients(width));
            }
            let mut piece = CollectionBuilder::new().with_shard_patients(width);
            let end = (next + blocks * width).min(people.len());
            for (i, (year, entries)) in people.iter().enumerate().take(end).skip(next) {
                piece.add_patient(person(i, *year), entries.clone());
            }
            joined.append(piece);
            next = end;
            if next == people.len() {
                break;
            }
        }
        let (a, report_a) = whole.build();
        let (b, report_b) = joined.build();
        prop_assert_eq!(report_a, report_b);
        let (arenas_a, arenas_b) = (a.sharded_store(), b.sharded_store());
        prop_assert_eq!(arenas_a.shard_count(), arenas_b.shard_count());
        prop_assert_eq!(a.dictionary(), b.dictionary());
        for (x, y) in arenas_a.shards().iter().zip(arenas_b.shards()) {
            x.debug_validate();
            y.debug_validate();
            prop_assert!(std::sync::Arc::ptr_eq(x.dictionary(), a.dictionary()));
            prop_assert!(std::sync::Arc::ptr_eq(y.dictionary(), b.dictionary()));
            let rows = |s: &EventStore| {
                let row = |i| (s.get(i).to_entry(), s.get(i).code_id());
                (0..s.len_u32()).map(row).collect::<Vec<_>>()
            };
            prop_assert_eq!(rows(x), rows(y));
        }
        let arena_of = |c: &HistoryCollection, h: &History| {
            c.sharded_store().shards().iter().position(|s| std::sync::Arc::ptr_eq(s, h.store()))
        };
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.patient(), y.patient());
            prop_assert_eq!(arena_of(&a, x), arena_of(&b, y));
            prop_assert_eq!(x.entries().to_vec(), y.entries().to_vec());
        }
    }

    /// entries_in agrees with a naive overlap filter.
    #[test]
    fn window_query_agrees_with_naive(
        entries in proptest::collection::vec(arb_entry(), 0..30),
        a in arb_datetime(),
        b in arb_datetime(),
    ) {
        let (from, to) = if a <= b { (a, b) } else { (b, a) };
        let mut h = History::new(patient());
        h.insert_all(entries);
        let fast: Vec<_> = h.entries_in(from, to).map(|e| e.to_entry()).collect();
        let naive: Vec<_> = h
            .entries()
            .iter()
            .filter(|e| e.start() <= to && e.end() >= from)
            .map(|e| e.to_entry())
            .collect();
        prop_assert_eq!(fast, naive);
    }

    /// Collection stats add up.
    #[test]
    fn stats_add_up(sizes in proptest::collection::vec(0usize..12, 0..8)) {
        let mut c = HistoryCollection::new();
        for (i, n) in sizes.iter().enumerate() {
            let mut h = History::new(Patient {
                id: PatientId(i as u64),
                birth_date: Date::new(1940, 1, 1).unwrap(),
                sex: Sex::Female,
            });
            for k in 0..*n {
                h.insert(Entry::event(
                    Date::new(2000 + k as i32 % 20, 1, 1).unwrap().at_midnight(),
                    Payload::Diagnosis(Code::icpc("A01")),
                    SourceKind::PrimaryCare,
                ));
            }
            c.upsert(h);
        }
        let s = c.stats();
        prop_assert_eq!(s.patients, sizes.len());
        prop_assert_eq!(s.entries, sizes.iter().sum::<usize>());
        prop_assert_eq!(s.events + s.intervals, s.entries);
    }

    /// The summary a collection maintains equals the from-entries walk,
    /// and its row columns equal a rebuild (`debug_validate`), after every
    /// step of a random mutation sequence; the steps streamed ingest is
    /// made of (a history that grew, a brand-new patient, a sealed epoch)
    /// as well as cloning keep the summary held: none of them sends the
    /// next `stats()` back to the walk. A re-registration (same entries,
    /// another birth date and sex) leaves the summary held and rewrites
    /// the row's demographic columns, which `debug_validate` rebuilds.
    #[test]
    fn maintained_summary_equals_the_walk(
        seed in proptest::collection::vec(arb_entry(), 0..6),
        steps in proptest::collection::vec(
            (0u8..10, 0u64..5, proptest::collection::vec(arb_entry(), 0..5), 0usize..4),
            1..24,
        ),
    ) {
        let person = |id: u64| Patient { id: PatientId(id), ..patient() };
        let history = |id: u64, entries: Vec<Entry>| {
            let mut h = History::new(person(id));
            h.insert_all(entries);
            h
        };
        let mut c = HistoryCollection::from_histories(
            (0..3u64).map(|id| history(id, seed.iter().skip(id as usize).cloned().collect())),
        );
        prop_assert!(!c.holds_summary(), "construction does not walk");
        prop_assert_eq!(c.stats(), walked_stats(&c));
        let mut epoch = OpenEpoch::new();
        for (kind, id, entries, k) in steps {
            let held = c.holds_summary();
            let mut keeps = true;
            let existing = c.get(PatientId(id)).map(|h| h.entries().to_vec());
            match kind {
                // A history that grew: everything it had, and more.
                0 => {
                    let mut all = existing.unwrap_or_default();
                    all.extend(entries);
                    c.upsert(history(id, all));
                }
                // A shrinking replacement may pull an extreme inwards.
                1 => {
                    let mut all = existing.unwrap_or_default();
                    all.truncate(k);
                    c.upsert(history(id, all));
                    keeps = false;
                }
                2 => c.upsert(history(100 + c.len() as u64, entries)),
                // An edited clone: grown in place or detached.
                3 | 4 => {
                    if let Some(mut h) = c.get(PatientId(id)).cloned() {
                        if kind == 3 {
                            h.insert_all(entries);
                        } else if let Some(e) = entries.into_iter().next() {
                            h.insert(e);
                        }
                        c.upsert(h);
                    }
                }
                // Dropping the earliest entries moves the first start later.
                5 => {
                    let all = existing.unwrap_or_default();
                    c.upsert(history(id, all.into_iter().skip(k).collect()));
                    keeps = false;
                }
                6 => {
                    let sub = c.extract(|h| h.id().0 % 2 == id % 2);
                    prop_assert!(!sub.holds_summary(), "extraction does not walk");
                    prop_assert_eq!(sub.stats(), walked_stats(&sub));
                }
                7 => {
                    let copy = c.clone();
                    prop_assert_eq!(copy.holds_summary(), held);
                    c.upsert(history(id, entries));
                    prop_assert_eq!(copy.stats(), walked_stats(&copy), "the clone kept its own");
                    keeps = false;
                }
                // The same id re-registered: other birth date and sex.
                9 => {
                    let sex = match c.get(PatientId(id)).map(|h| h.patient().sex) {
                        Some(Sex::Male) => Sex::Female,
                        _ => Sex::Male,
                    };
                    let birth_date = Date::new(1900 + 20 * k as i32, 2, 28).unwrap();
                    let mut h = History::new(Patient { birth_date, sex, ..person(id) });
                    h.insert_all(existing.unwrap_or_default());
                    c.upsert(h);
                    let at = c.position_of(PatientId(id)).unwrap();
                    let row = c.spans(at..at + 1).next().unwrap();
                    prop_assert_eq!(row.births[0] as i64, birth_date.day_number());
                    prop_assert_eq!(row.sexes[0], sex);
                }
                _ => {
                    epoch.append(person(id), entries.clone());
                    epoch.append(person(200 + c.len() as u64), entries);
                    epoch.seal_into(&mut c);
                }
            }
            c.debug_validate();
            if keeps {
                prop_assert_eq!(c.holds_summary(), held, "step {} dropped or built the summary", kind);
            }
            prop_assert_eq!(c.stats(), walked_stats(&c), "after step {}", kind);
        }
    }

    /// extract ∘ extract == extract of the conjunction.
    #[test]
    fn extract_composes(ids in proptest::collection::vec(0u64..30, 0..20)) {
        let c = HistoryCollection::from_histories(ids.iter().map(|&i| {
            History::new(Patient {
                id: PatientId(i),
                birth_date: Date::new(1940, 1, 1).unwrap(),
                sex: Sex::Male,
            })
        }));
        let twice = c.extract(|h| h.id().0.is_multiple_of(2)).extract(|h| h.id().0.is_multiple_of(3));
        let once = c.extract(|h| h.id().0.is_multiple_of(6));
        let a: Vec<_> = twice.iter().map(|h| h.id()).collect();
        let b: Vec<_> = once.iter().map(|h| h.id()).collect();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The chunked row table after random writes equals a fresh
    /// `from_histories` build of a plain row list kept beside it (the
    /// oracle: a `Vec` and last write wins): rows, columns (the digest
    /// columns included), id map and summary, and so does a build that
    /// meets every id twice, its stale row first. The table starts a few rows short of a chunk boundary, so
    /// appends open chunks; every step keeps a clone, which must not see
    /// the later writes. Re-registrations change a row's birth date and
    /// sex; sealed epochs extend known rows and append new ones.
    #[test]
    fn chunked_table_equals_a_fresh_build(
        short in 0usize..6,
        steps in proptest::collection::vec(
            (0u8..5, 0usize..1 << 16, proptest::collection::vec(arb_entry(), 0..3)),
            1..24,
        ),
    ) {
        for threads in [1, 4] {
            pastas_par::with_threads(threads, || table_matches_its_oracle(short, steps.clone()))?;
        }
    }
}

/// The body of `chunked_table_equals_a_fresh_build`.
fn table_matches_its_oracle(
    short: usize,
    steps: Vec<(u8, usize, Vec<Entry>)>,
) -> Result<(), TestCaseError> {
    let person = |id: u64| Patient { id: PatientId(id), ..patient() };
    let rows = CHUNK_ROWS - short;
    let mut model: Vec<History> = (0..rows as u64).map(|id| History::new(person(id))).collect();
    let mut c = HistoryCollection::from_histories(model.clone());
    c.stats();
    let mut clones = Vec::new();
    let mut epoch = OpenEpoch::new();
    for (kind, pick, entries) in steps {
        clones.push((c.clone(), model.clone()));
        let at = pick % model.len();
        match kind {
            // A known row grows.
            0 => {
                let mut h = model[at].clone();
                h.insert_all(entries);
                model[at] = h.clone();
                c.upsert(h);
            }
            // A brand-new patient (two, crossing the boundary).
            1 => {
                for _ in 0..2 {
                    let mut h = History::new(person(model.len() as u64));
                    h.insert_all(entries.clone());
                    model.push(h.clone());
                    c.upsert(h);
                }
            }
            // Re-registered: another birth date and sex.
            2 => {
                let old = model[at].patient();
                let sex = if old.sex == Sex::Male { Sex::Female } else { Sex::Male };
                let birth_date = Date::new(1901 + (pick % 90) as i32, 2, 28).unwrap();
                let mut h = History::new(Patient { birth_date, sex, ..*old });
                h.insert_all(model[at].entries().to_vec());
                model[at] = h.clone();
                c.upsert(h);
            }
            // The last write of a patient id wins.
            3 => {
                let h = History::new(person(at as u64));
                model[at] = h.clone();
                c.upsert(h);
            }
            // A sealed epoch: one known row, one new patient.
            _ => {
                let new = model.len() as u64;
                epoch.append(person(at as u64), entries.clone());
                epoch.append(person(new), entries);
                for id in epoch.seal_into(&mut c) {
                    let h = c.get(id).unwrap().clone();
                    match model.get_mut(id.0 as usize) {
                        Some(row) => *row = h,
                        None => model.push(h),
                    }
                }
            }
        }
        c.debug_validate();
    }
    let fresh = HistoryCollection::from_histories(model.clone());
    let diff = c.table_diff(&fresh);
    prop_assert!(diff.is_none(), "{:?}", diff);
    // Duplicate ids through the parallel build: every row of the first
    // clone's list again after its stale version. The first appearance
    // places a row, the last write fills it.
    let stale = clones.first().map(|(_, rows)| rows.clone()).unwrap_or_default();
    let twice = HistoryCollection::from_histories(stale.into_iter().chain(model));
    let diff = twice.table_diff(&fresh);
    prop_assert!(diff.is_none(), "duplicates: {:?}", diff);
    for (i, (clone, rows)) in clones.into_iter().enumerate() {
        let diff = clone.table_diff(&HistoryCollection::from_histories(rows));
        prop_assert!(diff.is_none(), "clone {}: {:?}", i, diff);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The packed id map equals a `HashMap` model. A bulk build of
    /// shuffled ids with duplicates places each id at its first
    /// appearance and fills the row from its last; random upserts into a
    /// clone (known ids and new ones) keep every lookup equal to the
    /// model, and the original keeps its own. `lead` starts the draws a
    /// few rows short of a chunk boundary, so folded duplicates regroup
    /// across it.
    #[test]
    fn packed_id_map_equals_a_hash_map(
        draws in proptest::collection::vec(0u64..500, 0..400),
        salt in any::<u64>(),
        lead in 0usize..2,
        upserts in proptest::collection::vec(0u64..800, 0..60),
    ) {
        // Odd multipliers are bijections, so distinct draws stay distinct
        // ids, spread over the sub-maps and shuffled against row order.
        let id = |x: u64| PatientId(x.wrapping_mul(salt | 1));
        let row = |k: usize, x: u64| {
            let birth_date = Date::new(1900 + (k % 120) as i32, 1, 1).unwrap();
            History::new(Patient { id: id(x), birth_date, sex: Sex::Male })
        };
        let xs: Vec<u64> = (1000..1000 + (lead * (CHUNK_ROWS - 40)) as u64).chain(draws).collect();
        let mut model = IdModel::new();
        xs.iter().enumerate().for_each(|(k, &x)| model.write(&row(k, x)));
        let c = HistoryCollection::from_histories(xs.iter().enumerate().map(|(k, &x)| row(k, x)));
        c.debug_validate();
        model.check(&c)?;
        prop_assert!(c.id_map_bytes() <= 12 * c.len(), "{} bytes for {} rows", c.id_map_bytes(), c.len());
        let mut grown = (c.clone(), model.clone());
        for (k, &x) in upserts.iter().enumerate() {
            grown.1.write(&row(k, x));
            grown.0.upsert(row(k, x));
        }
        grown.0.debug_validate();
        grown.1.check(&grown.0)?;
        model.check(&c)?;
    }
}

/// The id map's model: patient id → (first-appearance row, the last
/// write's birth date).
#[derive(Clone)]
struct IdModel(std::collections::HashMap<PatientId, (usize, Date)>);

impl IdModel {
    fn new() -> IdModel {
        IdModel(std::collections::HashMap::new())
    }

    fn write(&mut self, h: &History) {
        let next = self.0.len();
        self.0.entry(h.id()).or_insert((next, h.patient().birth_date)).1 = h.patient().birth_date;
    }

    fn check(&self, c: &HistoryCollection) -> Result<(), TestCaseError> {
        prop_assert_eq!(c.len(), self.0.len());
        for (&id, &(p, birth)) in &self.0 {
            prop_assert_eq!(c.position_of(id), Some(p), "{}", id);
            prop_assert_eq!(c.get(id).map(|h| h.patient().birth_date), Some(birth), "{}", id);
        }
        for absent in (0..64).map(|k| PatientId(u64::MAX - k)) {
            prop_assert!(self.0.contains_key(&absent) || c.position_of(absent).is_none());
        }
        Ok(())
    }
}
