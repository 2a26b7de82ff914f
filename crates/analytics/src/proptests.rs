//! Property tests: the digest-column fold must agree with the serial
//! naive per-entry fold, and the month-run fold with a naive per-entry
//! map, on arbitrary collections, cohorts and thread counts; every
//! partition histogram's bucket totals must sum to the cohort size.

use crate::dimensions::{age_bucket, AGE_BANDS};
use crate::profile::{cohort_profile_serial, AgeCutoffs};
use crate::PatientColumns;
use pastas_model::{Entry, History, HistoryCollection, Patient, PatientId, Payload, Sex, SourceKind};
use pastas_ontology::integration::IntegrationOntology;
use pastas_synth::{generate_collection, SynthConfig};
use pastas_time::Date;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Thread counts the parallel pass must be invariant over (1 is the
/// exact serial chunking).
const THREADS: [usize; 2] = [1, 4];

/// Reference dates the profile oracle draws from besides the last event:
/// 28 February of a common year, 29 February, 1 March and 31 December.
const REFERENCES: [(i32, u32, u32); 4] = [(2014, 2, 28), (2024, 2, 29), (2014, 3, 1), (2014, 12, 31)];

/// Tiny deterministic PRNG (splitmix64), same scheme as the query
/// crate's proptests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A random sorted cohort: every position kept with probability ~`keep`
/// in 16ths (0 keeps nobody) — the shape `select_positions` hands the
/// profile pass.
fn random_cohort(rng: &mut Rng, len: usize, keep: u64) -> Vec<u32> {
    (0..len as u32).filter(|_| rng.next() % 16 < keep).collect()
}

/// The timeline the slow way: one ordered-map probe per entry, then the
/// gaps between the first and the last month filled with zeros.
fn naive_monthly(collection: &HistoryCollection, positions: &[u32]) -> Vec<(Date, u64)> {
    let mut months: BTreeMap<(i32, u32), u64> = BTreeMap::new();
    for &pos in positions {
        for entry in collection.histories()[pos as usize].entries().iter() {
            let date = entry.start().date();
            *months.entry((date.year(), date.month())).or_insert(0) += 1;
        }
    }
    let (Some((&first, _)), Some((&last, _))) = (months.first_key_value(), months.last_key_value())
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let (mut year, mut month) = first;
    while (year, month) <= last {
        let count = months.get(&(year, month)).copied().unwrap_or(0);
        out.push((Date::new(year, month, 1).expect("first of a month"), count));
        (year, month) = if month == 12 { (year + 1, 1) } else { (year, month + 1) };
    }
    out
}

/// A history of patient `id`, born at [`Date::MIN`], holding `entries` on
/// a store and arena of its own.
fn history_of(id: u64, entries: Vec<Entry>) -> History {
    let patient = Patient { id: PatientId(id), birth_date: Date::MIN, sex: Sex::Female };
    let mut history = History::new(patient);
    for entry in entries {
        history.insert(entry);
    }
    history
}

/// The cohort's monthly series from a freshly built column.
fn run_fold(collection: &HistoryCollection, positions: &[u32]) -> Vec<(Date, u64)> {
    PatientColumns::build(collection, &IntegrationOntology::new()).monthly(positions)
}

/// Histories whose entries are further apart than an arena's `u32`
/// window, out to both ends of the calendar: the row's runs take the far
/// starts through `EntryRef`, carry gaps of centuries in `(255, 0)` runs,
/// and fold into a month table as long as the collection's span.
#[test]
fn monthly_walk_counts_starts_outside_an_arena_window() {
    use pastas_model::{EpisodeKind, FAR_START};
    let mut collection = generate_collection(SynthConfig::with_patients(40), 5);
    let day = |y, m, d| Date::new(y, m, d).expect("valid").at_midnight();
    let stay = Payload::Episode(EpisodeKind::NursingHome);
    collection.upsert(history_of(6_000_000, vec![
        Entry::event(day(1812, 2, 29), stay.clone(), SourceKind::Municipal),
        Entry::interval(day(1812, 3, 1), day(2013, 7, 1), stay.clone(), SourceKind::Municipal),
        Entry::event(day(2013, 6, 1), stay.clone(), SourceKind::Municipal),
    ]));
    let positions: Vec<u32> = (0..collection.len() as u32).collect();
    assert_eq!(collection.histories()[40].entries().start_offsets().1[2], FAR_START);
    let months = run_fold(&collection, &positions);
    assert_eq!(months, naive_monthly(&collection, &positions));
    assert_eq!(months[0], (Date::new(1812, 2, 1).expect("valid"), 1));
    assert_eq!(run_fold(&collection, &positions[40..]).len(), (2013 - 1812) * 12 + 5);

    collection.upsert(history_of(6_000_001, vec![
        Entry::event(Date::MAX.at(23, 59, 59).expect("valid"), stay.clone(), SourceKind::Hospital),
        Entry::event(Date::MIN.at_midnight(), stay, SourceKind::Hospital),
    ]));
    let positions: Vec<u32> = (0..collection.len() as u32).collect();
    let months = run_fold(&collection, &positions);
    assert_eq!(months.len(), 19_999 * 12);
    assert_eq!(months, naive_monthly(&collection, &positions));
}

/// The profile's age cutoffs against the calendar arithmetic of
/// `History::age_at`, on every birth within three days of each cutoff,
/// at every reference the oracle draws and at both calendar ends — births
/// on and after the reference and at `Date::MIN` included.
#[test]
fn age_cutoffs_band_like_the_calendar() {
    let mut references: Vec<Date> =
        REFERENCES.iter().map(|&(y, m, d)| Date::new(y, m, d).expect("valid")).collect();
    references.extend([Date::new(2013, 1, 1).expect("valid"), Date::MIN, Date::MAX]);
    for reference in references {
        let cutoffs = AgeCutoffs::at(reference);
        let mut births = vec![Date::MIN, Date::MAX, reference, reference.add_days(1)];
        births.push(reference.add_days(400));
        for years in (1..AGE_BANDS as i32).map(|band| 10 * band) {
            let cutoff = History::last_birth_aged(reference, years);
            births.extend((-3..=3).filter_map(|day| Date::from_day_number(cutoff + day)));
        }
        for birth in births {
            let want = age_bucket(reference.months_between(birth).div_euclid(12));
            let got = cutoffs.band(birth.day_number() as i32);
            assert_eq!(got, want, "born {birth}, aged at {reference}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn column_fold_equals_serial_oracle(
        collection_seed in 0u64..50,
        cohort_seed in 0u64..u64::MAX,
        patients in 60usize..220,
        shard_patients in 40usize..120,
        persons_only in 0u64..4,
        keep in 0u64..16,
        reference_at in 0usize..REFERENCES.len() + 1,
    ) {
        // Multi-arena on purpose: shard_patients < patients puts the
        // rows on several arenas sharing one dictionary.
        let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
        let mut collection = generate_collection(config, collection_seed);
        let sampled = collection.len();
        // Patients the person register knows and no source has seen:
        // empty histories, each on a store and empty dictionary of its own.
        for id in 0..persons_only {
            collection.upsert(History::new(Patient {
                id: PatientId(5_000_000 + id),
                // Leap-day births, on age-decade cutoffs of the 28 and
                // 29 February references: the age's one calendar edge.
                birth_date: Date::new(1904 + 40 * id as i32, 2, 29).expect("leap year"),
                sex: if id % 2 == 0 { Sex::Female } else { Sex::Male },
            }));
        }
        let ontology = IntegrationOntology::new();
        let last_event = collection
            .stats()
            .last
            .map(|dt| dt.date())
            .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid"));
        let reference = REFERENCES.get(reference_at).map_or(last_event, |&(y, m, d)| {
            Date::new(y, m, d).expect("valid")
        });
        let mut rng = Rng(cohort_seed);
        // A random sample, and every persons-only row.
        let mut positions = random_cohort(&mut rng, sampled, keep);
        positions.extend(sampled as u32..collection.len() as u32);

        let serial =
            cohort_profile_serial(&collection, &ontology, &positions, reference, 25);
        let serial_monthly = naive_monthly(&collection, &positions);
        for threads in THREADS {
            let (profile, monthly) = pastas_par::with_threads(threads, || {
                let columns = PatientColumns::build(&collection, &ontology);
                (columns.profile(&positions, reference, 25), columns.monthly(&positions))
            });
            prop_assert_eq!(&profile, &serial, "threads {}", threads);
            prop_assert_eq!(&monthly, &serial_monthly, "threads {}", threads);

            // Partition invariant: every single-assignment histogram's
            // buckets sum to the cohort size.
            prop_assert_eq!(profile.cohort_size, positions.len() as u64);
            for h in profile.histograms().iter().filter(|h| h.partition) {
                let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                prop_assert_eq!(
                    total, profile.cohort_size,
                    "histogram {} must partition (threads {})", h.name, threads
                );
            }
        }
    }

    /// The run fold against the per-entry map on the shapes the run
    /// encoding splits or skips on: a month of more than 255 entries, a
    /// gap of more than 255 months inside an arena's window, a start
    /// outside it (`FAR_START`), entries on the last and the first day of
    /// a month, and persons-only rows — beside a multi-arena collection,
    /// at one thread and at four.
    #[test]
    fn run_fold_equals_naive_monthly(
        collection_seed in 0u64..50,
        cohort_seed in 0u64..u64::MAX,
        patients in 60usize..160,
        shard_patients in 40usize..120,
        year in 1900i32..2020,
        month in 1u32..13,
        burst in 256u32..700,
        gap in 256i32..420,
    ) {
        let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
        let mut collection = generate_collection(config, collection_seed);
        let mut rng = Rng(cohort_seed);
        let (persons_only, keep) = (rng.next() % 3, rng.next() % 16);
        let first = Date::new(year, month, 1).expect("valid");
        let code = || Payload::Diagnosis(pastas_codes::Code::icpc("T90"));
        let at = |date: Date, h, m, s| date.at(h, m, s).expect("valid time");
        let event = |t| Entry::event(t, code(), SourceKind::PrimaryCare);
        let dim = first.days_in_month();
        // `burst` entries over every day of one month, the last day and
        // the first day of the next month included.
        let burst_row: Vec<Entry> = (0..burst)
            .map(|i| event(at(first.add_days(i64::from(i % dim)), i / dim % 24, i / dim / 24, 0)))
            .chain([event(at(first.add_months(1), 0, 0, 0))])
            .collect();
        // Month edges on both sides, an interval counted at its start, and
        // a gap of `gap` months (well inside the arena's window).
        let edges = vec![
            event(at(first.last_of_month(), 23, 59, 59)),
            event(at(first.add_months(1), 0, 0, 0)),
            Entry::interval(
                at(first.add_months(1).last_of_month(), 12, 0, 0),
                at(first.add_months(3), 0, 0, 0),
                code(),
                SourceKind::Hospital,
            ),
            event(at(first.add_months(gap), 0, 0, 0)),
            event(at(first.add_months(gap).last_of_month(), 23, 59, 59)),
        ];
        // Two centuries before the rest: a start no `u32` window holds.
        let far = vec![
            event(at(first.add_months(-2400).last_of_month(), 6, 0, 0)),
            event(at(first, 0, 0, 0)),
            event(at(first.last_of_month(), 0, 0, 0)),
        ];
        let special = collection.len() as u32;
        let extra = [burst_row, edges, far];
        for (id, entries) in extra.into_iter().enumerate() {
            collection.upsert(history_of(7_000_000 + id as u64, entries));
        }
        for id in 0..persons_only {
            collection.upsert(History::new(Patient {
                id: PatientId(7_100_000 + id),
                birth_date: Date::new(1950, 1, 1).expect("valid"),
                sex: Sex::Male,
            }));
        }
        let far_row = collection.position_of(PatientId(7_000_002)).expect("upserted");
        let (_, offsets) = collection.histories().get(far_row).unwrap().entries().start_offsets();
        prop_assert!(offsets.contains(&pastas_model::FAR_START), "a far start");
        // Every special row is in the cohort, beside a random sample.
        let mut positions = random_cohort(&mut rng, special as usize, keep);
        positions.extend(special..collection.len() as u32);
        let naive = naive_monthly(&collection, &positions);
        for threads in THREADS {
            let folded = pastas_par::with_threads(threads, || run_fold(&collection, &positions));
            prop_assert_eq!(&folded, &naive, "threads {}", threads);
        }
    }
}
