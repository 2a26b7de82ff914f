//! Property-based tests: the planner-accelerated parallel selection path
//! must agree with the naive serial scan on arbitrary synthetic
//! collections, queries and thread counts (including patient-range
//! sharded stores and multi-shard indexes), query normalization must be
//! idempotent and semantics-preserving on arbitrary query ASTs, and the
//! compressed bitmap's set algebra must agree with the sorted-vec
//! merges it replaced.

use crate::bitmap::Bitmap;
use crate::index::{select_scan, CodeIndex};
use crate::normalize::normalize;
use crate::plan::QueryPlan;
use crate::predicate::EntryPredicate;
use crate::query::{HistoryQuery, QueryBuilder};
use crate::temporal::{GapBound, TemporalPattern};
use crate::SortKey;
use pastas_model::Sex;
use pastas_synth::{generate_collection, SynthConfig};
use pastas_time::{Date, Duration};
use proptest::prelude::*;

/// Patterns covering the probe shapes: exact literal, prefix run,
/// alternation, char class, full wildcard, a value that never matches,
/// and a literal a start anchor after text makes match nothing.
const PATTERNS: [&str; 8] = ["T90", "K.*", "T90|K74", "E1[014].*", "[KR].*", ".*", "Z99", "K74^"];

const THREADS: [usize; 3] = [1, 2, 8];

fn build_query(pattern: &str, negate: bool) -> crate::HistoryQuery {
    let b = QueryBuilder::new();
    let b = if negate {
        b.lacks_code(pattern).expect("valid pattern")
    } else {
        b.has_code(pattern).expect("valid pattern")
    };
    b.build()
}

/// Tiny deterministic PRNG (splitmix64) so random query ASTs can be
/// derived from a single proptest-driven `u64` — the vendored proptest
/// has no recursive strategy combinator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random demographic leaf, bare or negated: an age range at one of
/// several reference dates (29 February included; ranges reach below
/// zero and may be reversed, hence empty) or a sex.
fn random_demographic(rng: &mut Rng) -> HistoryQuery {
    let leaf = if rng.below(3) == 0 {
        HistoryQuery::SexIs(if rng.below(2) == 0 { Sex::Female } else { Sex::Male })
    } else {
        let (y, m, d) = [(2013, 1, 1), (2012, 2, 29), (2015, 6, 15)][rng.below(3) as usize];
        let min = rng.below(95) as i32 - 5;
        HistoryQuery::AgeBetween {
            at: Date::new(y, m, d).expect("valid date"),
            min,
            max: min + rng.below(50) as i32 - 2,
        }
    };
    if rng.below(3) == 0 {
        HistoryQuery::Not(Box::new(leaf))
    } else {
        leaf
    }
}

/// A query the paper's loop is made of: demographic leaves alone, under
/// `or`, and beside `has` / `lacks` / `count` / `seq` clauses.
fn random_demographic_shape(rng: &mut Rng) -> HistoryQuery {
    let pattern = |rng: &mut Rng| PATTERNS[rng.below(PATTERNS.len() as u64) as usize];
    let code = |rng: &mut Rng| EntryPredicate::code_regex(pattern(rng)).expect("valid pattern");
    match rng.below(6) {
        0 => random_demographic(rng),
        1 => HistoryQuery::Or(vec![random_demographic(rng), random_demographic(rng)]),
        2 => HistoryQuery::And(vec![
            build_query(pattern(rng), false),
            build_query(pattern(rng), true),
            random_demographic(rng),
        ]),
        3 => HistoryQuery::And(vec![
            HistoryQuery::CountAtLeast(code(rng), 1 + rng.below(3) as usize),
            random_demographic(rng),
            random_demographic(rng),
        ]),
        4 => HistoryQuery::And(vec![
            HistoryQuery::Pattern(
                TemporalPattern::starting_with(code(rng))
                    .then(GapBound::any_later(), EntryPredicate::IsDiagnosis),
            ),
            random_demographic(rng),
        ]),
        _ => HistoryQuery::Or(vec![
            HistoryQuery::And(vec![build_query(pattern(rng), false), random_demographic(rng)]),
            HistoryQuery::And(vec![
                HistoryQuery::CountAtLeast(EntryPredicate::IsDiagnosis, 2 + rng.below(4) as usize),
                random_demographic(rng),
            ]),
        ]),
    }
}

/// A random query AST of bounded depth, exercising every leaf kind
/// (counts both ways, temporal patterns with gap and Allen steps,
/// demographics) and every combinator including `Not`.
fn random_query(rng: &mut Rng, depth: u32) -> HistoryQuery {
    let leaf_only = depth == 0;
    let choice = if leaf_only { rng.below(9) } else { rng.below(12) };
    let pattern = |rng: &mut Rng| PATTERNS[rng.below(PATTERNS.len() as u64) as usize];
    match choice {
        0 => HistoryQuery::All,
        1 => HistoryQuery::any(EntryPredicate::code_regex(pattern(rng)).expect("valid pattern")),
        2 => HistoryQuery::none(EntryPredicate::code_regex(pattern(rng)).expect("valid pattern")),
        3 => HistoryQuery::CountAtLeast(
            EntryPredicate::code_regex(pattern(rng)).expect("valid pattern"),
            rng.below(4) as usize,
        ),
        4 => HistoryQuery::CountAtMost(
            EntryPredicate::code_regex(pattern(rng)).expect("valid pattern"),
            rng.below(3) as usize,
        ),
        5 => HistoryQuery::CountAtLeast(EntryPredicate::IsDiagnosis, 1 + rng.below(4) as usize),
        6 => random_demographic(rng),
        7 => HistoryQuery::Pattern(
            TemporalPattern::starting_with(
                EntryPredicate::code_regex(pattern(rng)).expect("valid pattern"),
            )
            .then(
                GapBound::within(Duration::days(30 + rng.below(300) as i64)),
                EntryPredicate::IsDiagnosis,
            ),
        ),
        8 => HistoryQuery::Pattern(random_pattern(rng)),
        9 => HistoryQuery::Not(Box::new(random_query(rng, depth - 1))),
        n => {
            let arity = 2 + rng.below(2) as usize;
            let children = (0..arity).map(|_| random_query(rng, depth - 1)).collect();
            if n == 10 {
                HistoryQuery::And(children)
            } else {
                HistoryQuery::Or(children)
            }
        }
    }
}

/// The planned result of `q` equals the serial scan's at every thread
/// count (`PASTAS_THREADS=1` is `with_threads(1, ..)`), and the explain
/// path returns the positions it annotates.
fn planned_equals_scan(
    c: &pastas_model::HistoryCollection,
    idx: &CodeIndex,
    q: &HistoryQuery,
) -> Result<(), TestCaseError> {
    let plan = QueryPlan::build(idx, c, q);
    let reference = pastas_par::with_threads(1, || select_scan(c, q));
    for threads in THREADS {
        let planned = pastas_par::with_threads(threads, || plan.execute(c, idx));
        prop_assert_eq!(
            &planned, &reference,
            "threads {}, query {:?}, plan:\n{}", threads, q, plan.render()
        );
    }
    let (explained, explain) = plan.execute_explain(c, idx);
    prop_assert_eq!(&explained, &reference, "explain path, query {:?}", q);
    prop_assert_eq!(explain.root.rows, reference.len());
    Ok(())
}

/// `c` again, from histories built one by one, each on a dictionary of
/// its own: `from_histories` re-encodes every row whose codes do not
/// open the collection's dictionary in the same order.
fn independently_built(c: &pastas_model::HistoryCollection) -> pastas_model::HistoryCollection {
    pastas_model::HistoryCollection::from_histories(c.iter().map(|h| {
        let mut own = pastas_model::History::new(*h.patient());
        own.insert_all(h.entries().iter().map(|e| e.to_entry()));
        own
    }))
}

/// The distinct dictionary versions `c`'s rows are on.
fn dictionary_versions(c: &pastas_model::HistoryCollection) -> usize {
    let versions = c.histories().iter().map(|h| std::sync::Arc::as_ptr(h.store().dictionary()));
    versions.collect::<std::collections::HashSet<_>>().len()
}

/// A random temporal pattern of 1–3 steps mixing gap and Allen
/// connectors; gap minima may be negative (overlap allowed), and a
/// quarter of the gap windows end at the previous entry's end, where
/// entries of the same contact start on the window's last second.
fn random_pattern(rng: &mut Rng) -> TemporalPattern {
    use pastas_ontology::temporal::AllenRel;
    let pred = |rng: &mut Rng| -> EntryPredicate {
        match rng.below(6) {
            0 => EntryPredicate::IsDiagnosis,
            1 => EntryPredicate::IsMedication,
            2 => EntryPredicate::IsInterval,
            3 => EntryPredicate::Any,
            _ => EntryPredicate::code_regex(PATTERNS[rng.below(PATTERNS.len() as u64) as usize])
                .expect("valid pattern"),
        }
    };
    let mut pat = TemporalPattern::starting_with(pred(rng));
    for _ in 0..rng.below(3) {
        if rng.below(4) == 0 {
            let rel = match rng.below(4) {
                0 => AllenRel::Before,
                1 => AllenRel::Overlaps,
                2 => AllenRel::During,
                _ => AllenRel::Meets,
            };
            pat = pat.then_related(rel, pred(rng));
        } else {
            let (min, max) = if rng.below(4) == 0 {
                (-(rng.below(30) as i64), 0)
            } else {
                let min = rng.below(60) as i64 - 10;
                (min, min + rng.below(365) as i64)
            };
            pat = pat.then(
                GapBound { min: Duration::days(min), max: Duration::days(max) },
                pred(rng),
            );
        }
    }
    pat
}

/// A random sorted-unique position set in one of several shapes chosen
/// to stress each container kind and the 65,536 chunk boundary:
/// sparse (array containers), dense windows (bits containers), run-heavy
/// (runs containers), and boundary-straddling mixtures.
fn random_set(rng: &mut Rng, shape: u64) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    match shape {
        // Sparse uniform over three chunks: array containers.
        0 => {
            let n = rng.below(3_000);
            for _ in 0..n {
                out.push(rng.below(200_000) as u32);
            }
        }
        // Dense window inside one chunk: a bits container.
        1 => {
            let base = rng.below(3) as u32 * 65_536;
            let n = 5_000 + rng.below(20_000);
            for _ in 0..n {
                out.push(base + rng.below(40_000) as u32);
            }
        }
        // Run-heavy, with runs allowed to straddle the chunk boundary.
        2 => {
            let mut pos = rng.below(1_000) as u32;
            for _ in 0..(1 + rng.below(40)) {
                let len = 1 + rng.below(5_000) as u32;
                out.extend(pos..pos + len);
                pos += len + 1 + rng.below(9_000) as u32;
            }
        }
        // Tight cluster right at the chunk boundary.
        3 => {
            for _ in 0..rng.below(2_000) {
                out.push(60_000 + rng.below(12_000) as u32);
            }
        }
        // Large scattered array filling one chunk (stays Array: ≤ 4096
        // values, non-compressible scatter).
        4 => {
            for _ in 0..(3_000 + rng.below(1_000)) {
                out.push(rng.below(65_536) as u32);
            }
        }
        // Tiny same-chunk set: paired with shape 4 this forces the ≥16x
        // array×array skew that routes intersect through the gallop.
        _ => {
            for _ in 0..(1 + rng.below(150)) {
                out.push(rng.below(65_536) as u32);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A random code regex: one of [`PATTERNS`], or a prefix of a random
/// code's value with a random tail (a wildcard, a class, an alternative,
/// a start anchor after text), so the prefix walk meets exact literals,
/// runs of every length and prefixes no code shares.
fn random_code_pattern(rng: &mut Rng) -> String {
    const TAILS: [&str; 9] = ["", ".*", ".", "[0-9]*", "|K.*", "9?", "$", "^", "(0|1).*"];
    if rng.below(3) == 0 {
        return PATTERNS[rng.below(PATTERNS.len() as u64) as usize].to_owned();
    }
    let value = random_code(rng).value;
    let cut = rng.below(value.len() as u64 + 1) as usize;
    let head = ["", "^"][rng.below(2) as usize];
    format!("{head}{}{}", value.get(..cut).unwrap(), TAILS[rng.below(TAILS.len() as u64) as usize])
}

/// A random ICPC-, ICD-10- or ATC-shaped code, most often one the
/// synthetic vocabulary lacks.
fn random_code(rng: &mut Rng) -> pastas_codes::Code {
    use pastas_codes::Code;
    let system = rng.below(3);
    let mut fill = |shape: &str| -> String {
        let digit = |rng: &mut Rng, base: u8, n: u64| char::from(base + rng.below(n) as u8);
        shape.chars().map(|c| match c { 'A' => digit(rng, b'A', 26), '9' => digit(rng, b'0', 10), c => c }).collect()
    };
    match system {
        0 => Code::icpc(&fill("A99")),
        1 => Code::icd10(&fill("A99.9")),
        _ => Code::atc(&fill("A99AA99")),
    }
}

/// A random entry predicate of bounded depth over every
/// [`EntryPredicate`] variant, for the bound-predicate differential.
fn random_entry_predicate(rng: &mut Rng, depth: u32) -> EntryPredicate {
    use pastas_codes::{Code, CodeSystem};
    use pastas_model::{MeasurementKind, SourceKind};
    let choice = if depth == 0 { rng.below(10) } else { rng.below(13) };
    let day = |rng: &mut Rng| Date::new(2010, 1, 1).expect("valid date").add_days(rng.below(2_500) as i64);
    match choice {
        0 => EntryPredicate::Any,
        1 => EntryPredicate::code_regex(&random_code_pattern(rng)).expect("valid pattern"),
        2 => EntryPredicate::CodeWithin(
            [Code::icpc("K"), Code::icpc("T90"), Code::atc("C07"), Code::atc("N02BE01"), Code::icpc("Z99"), Code::icd10("IV")]
                [rng.below(6) as usize]
                .clone(),
        ),
        3 => EntryPredicate::System([CodeSystem::Icpc2, CodeSystem::Icd10, CodeSystem::Atc][rng.below(3) as usize]),
        4 => EntryPredicate::Source(SourceKind::ALL[rng.below(SourceKind::ALL.len() as u64) as usize]),
        5 => EntryPredicate::IsDiagnosis,
        6 => EntryPredicate::IsMedication,
        7 => {
            let kinds = [MeasurementKind::SystolicBp, MeasurementKind::Hba1c, MeasurementKind::Weight];
            let lo = rng.below(160) as f64;
            EntryPredicate::MeasurementIn { kind: kinds[rng.below(3) as usize], lo, hi: lo + rng.below(80) as f64 }
        }
        8 => EntryPredicate::IsInterval,
        9 => {
            let from = day(rng);
            EntryPredicate::InWindow { from, to: from.add_days(rng.below(400) as i64 - 20) }
        }
        10 => EntryPredicate::And((0..1 + rng.below(3)).map(|_| random_entry_predicate(rng, depth - 1)).collect()),
        11 => EntryPredicate::Or((0..1 + rng.below(3)).map(|_| random_entry_predicate(rng, depth - 1)).collect()),
        _ => random_entry_predicate(rng, depth - 1).not(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn bitmap_round_trips_and_ops_agree_with_sorted_vec_merges(
        seed in 0u64..u64::MAX,
        shape_a in 0u64..6,
        shape_b in 0u64..6,
    ) {
        let mut rng = Rng(seed);
        let a = random_set(&mut rng, shape_a);
        let b = random_set(&mut rng, shape_b);
        let ba = Bitmap::from_sorted(&a);
        let bb = Bitmap::from_sorted(&b);
        ba.debug_validate();
        bb.debug_validate();
        // Round trip: Vec<u32> ⇄ containers is lossless.
        prop_assert_eq!(&ba.to_vec(), &a);
        prop_assert_eq!(&bb.to_vec(), &b);
        prop_assert_eq!(ba.len(), a.len());
        // Differential set algebra vs the retired sorted-vec merges.
        let and = ba.intersect(&bb);
        let or = ba.union(&bb);
        and.debug_validate();
        or.debug_validate();
        prop_assert_eq!(and.to_vec(), crate::plan::reference::intersect2(&a, &b));
        prop_assert_eq!(or.to_vec(), crate::plan::reference::union2(&a, &b));
        let n = a.last().copied().unwrap_or(0).max(b.last().copied().unwrap_or(0)) + 1;
        let not_a = ba.complement_up_to(n);
        not_a.debug_validate();
        prop_assert_eq!(not_a.to_vec(), crate::plan::reference::complement(&a, n));
        // Iterator decode agrees with bulk decode.
        prop_assert_eq!(or.iter().collect::<Vec<u32>>(), or.to_vec());
    }

    #[test]
    fn sharded_planner_agrees_with_scan_on_random_asts(
        ast_seed in 0u64..u64::MAX,
        collection_seed in 0u64..100,
        patients in 300u32..700,
        depth in 1u32..3,
    ) {
        // Multi-arena store (an arena per 128 patients) AND multi-shard
        // index (a reduced 256-row shard width so the per-shard fan-out
        // runs without generating 65k+ patients).
        let config = SynthConfig {
            shard_patients: 128,
            ..SynthConfig::with_patients(patients as usize)
        };
        let c = generate_collection(config, collection_seed);
        prop_assert!(c.sharded_store().shard_count() > 1);
        let idx = CodeIndex::build_with_shard_rows(&c, 256);
        idx.debug_validate(&c);
        // The reduced-width index answers exactly like the full-width one.
        let full = CodeIndex::build(&c);
        let broad = EntryPredicate::code_regex("[KR].*").expect("valid pattern");
        prop_assert_eq!(
            idx.candidates(&broad).to_vec(),
            full.candidates(&broad).to_vec()
        );
        let mut rng = Rng(ast_seed);
        planned_equals_scan(&c, &idx, &random_query(&mut rng, depth))?;
        planned_equals_scan(&c, &idx, &random_demographic_shape(&mut rng))?;
    }

    #[test]
    fn indexed_parallel_select_agrees_with_serial_scan(
        seed in 0u64..200,
        patients in 300u32..900,
        pattern_i in 0u32..8,
        negate_i in 0u32..2,
    ) {
        let negate = negate_i == 1;
        let c = generate_collection(SynthConfig::with_patients(patients as usize), seed);
        let idx = CodeIndex::build(&c);
        idx.debug_validate(&c);
        let q = build_query(PATTERNS[pattern_i as usize], negate);
        let reference = pastas_par::with_threads(1, || select_scan(&c, &q));
        for threads in THREADS {
            let via_index = pastas_par::with_threads(threads, || idx.select(&c, &q));
            let via_scan = pastas_par::with_threads(threads, || select_scan(&c, &q));
            prop_assert_eq!(&via_index, &reference, "index path, threads {}", threads);
            prop_assert_eq!(&via_scan, &reference, "scan path, threads {}", threads);
        }
    }

    /// Half the cases run on the collection rebuilt from independently
    /// built histories, whose rows `from_histories` re-encodes onto one
    /// dictionary: the plan agrees with the scan on either.
    #[test]
    fn planner_agrees_with_scan_on_random_asts(
        ast_seed in 0u64..u64::MAX,
        collection_seed in 0u64..100,
        patients in 200u32..600,
        depth in 1u32..4,
        rebuilt in any::<bool>(),
    ) {
        let config = SynthConfig::with_patients(patients as usize);
        let mut c = generate_collection(config, collection_seed);
        if rebuilt {
            c = independently_built(&c);
            c.debug_validate();
        }
        let idx = CodeIndex::build(&c);
        idx.debug_validate(&c);
        let mut rng = Rng(ast_seed);
        planned_equals_scan(&c, &idx, &random_query(&mut rng, depth))?;
        planned_equals_scan(&c, &idx, &random_demographic_shape(&mut rng))?;
    }

    #[test]
    fn normalization_is_idempotent_and_preserves_semantics(
        ast_seed in 0u64..u64::MAX,
        collection_seed in 0u64..100,
        depth in 1u32..4,
    ) {
        let q = random_query(&mut Rng(ast_seed), depth);
        let once = normalize(&q);
        let twice = normalize(&once);
        prop_assert_eq!(
            once.fingerprint(), twice.fingerprint(),
            "normalize not idempotent on {:?}", q
        );
        let c = generate_collection(SynthConfig::with_patients(150), collection_seed);
        for h in &c {
            prop_assert_eq!(q.matches(h), once.matches(h), "{:?} vs {:?}", &q, &once);
        }
    }

    /// Streaming differential: after every step of a random sequence of
    /// deltas the patched index equals a fresh build of the collection
    /// (vocabulary, counts and every shard's postings), and answers every
    /// query like the scan. The steps are delta batches (mutating
    /// existing patients and appending new ones), a row replaced by a
    /// shorter history (so it leaves postings, and a value only it held
    /// leaves the vocabulary), a code value the collection has never
    /// held, and enough appended patients to fill the last shard and open
    /// a new one. Half the cases start from the collection rebuilt from
    /// independently built histories (every row re-encoded onto one
    /// dictionary). Run at 1 and 4 worker threads.
    #[test]
    fn streaming_interleavings_agree_with_rebuild_oracle(
        op_seed in 0u64..u64::MAX,
        collection_seed in 0u64..100,
        ast_seed in 0u64..u64::MAX,
        rebuilt in any::<bool>(),
    ) {
        use pastas_codes::Code;
        use pastas_model::{Entry, History, OpenEpoch, Patient, PatientId, Payload, SourceKind};
        const CODES: [&str; 6] = ["T90", "K74", "K86", "Z98", "A01", "E10"];
        const WIDTH: u32 = 64;
        let entry = |code: &str, rng: &mut Rng| {
            let y = 2010 + rng.below(7) as i32;
            let m = 1 + rng.below(12) as u32;
            Entry::event(
                Date::new(y, m, 1).expect("valid date").at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            )
        };
        for threads in [1usize, 4] {
            pastas_par::with_threads(threads, || -> Result<(), TestCaseError> {
                let mut c = generate_collection(
                    SynthConfig { shard_patients: 64, ..SynthConfig::with_patients(150) },
                    collection_seed,
                );
                if rebuilt {
                    c = independently_built(&c);
                }
                let mut idx = CodeIndex::build_with_shard_rows(&c, WIDTH);
                let mut rng = Rng(op_seed);
                let mut next_new = 0u64;
                let mut new_patient = |rng: &mut Rng| {
                    next_new += 1;
                    // Birthdays on both sides of the reference dates'
                    // month and day, leap day included.
                    let (m, d) = [(1, 1), (2, 29), (6, 15), (12, 31)][rng.below(4) as usize];
                    Patient {
                        id: PatientId(5_000_000 + next_new),
                        birth_date: Date::new(1920 + 4 * rng.below(24) as i32, m, d)
                            .expect("valid date"),
                        sex: if rng.below(2) == 0 { Sex::Female } else { Sex::Male },
                    }
                };
                // Rows given a value nobody else holds, for the shorter
                // history to take it away again.
                let mut unique_holders: Vec<PatientId> = Vec::new();
                for step in 0..8u64 {
                    let mut epoch = OpenEpoch::new();
                    let mut dirty: Vec<u32> = Vec::new();
                    match rng.below(6) {
                        0..=2 => {
                            // 1–3 per-patient appends, existing and new.
                            for _ in 0..(1 + rng.below(3)) {
                                let patient = if rng.below(2) == 0 {
                                    *c.histories()[rng.below(c.len() as u64) as usize].patient()
                                } else {
                                    new_patient(&mut rng)
                                };
                                let entries: Vec<Entry> = (0..rng.below(3))
                                    .map(|_| entry(CODES[rng.below(CODES.len() as u64) as usize], &mut rng))
                                    .collect();
                                epoch.append(patient, entries);
                            }
                        }
                        3 => {
                            // A row replaced by a shorter history.
                            let id = unique_holders.pop().unwrap_or_else(|| {
                                c.histories()[rng.below(c.len() as u64) as usize].id()
                            });
                            let was = c.get(id).expect("held patient");
                            let mut shorter = History::new(*was.patient());
                            let keep = rng.below(was.len() as u64 / 2 + 1) as usize;
                            shorter.insert_all(was.entries().iter().take(keep).map(|e| e.to_entry()));
                            dirty.push(c.position_of(id).expect("held patient") as u32);
                            c.upsert(shorter);
                        }
                        4 => {
                            // A code value the collection has never held.
                            let patient = if rng.below(2) == 0 {
                                *c.histories()[rng.below(c.len() as u64) as usize].patient()
                            } else {
                                new_patient(&mut rng)
                            };
                            unique_holders.push(patient.id);
                            epoch.append(patient, vec![entry(&format!("Q{step}"), &mut rng)]);
                        }
                        _ => {
                            // Fill the last shard and open a new one.
                            for _ in 0..(WIDTH - c.len() as u32 % WIDTH + 1) {
                                let patient = new_patient(&mut rng);
                                let entries: Vec<Entry> = (0..rng.below(3))
                                    .map(|_| entry(CODES[rng.below(CODES.len() as u64) as usize], &mut rng))
                                    .collect();
                                epoch.append(patient, entries);
                            }
                        }
                    }
                    epoch.debug_validate();
                    let touched = epoch.seal_into(&mut c);
                    dirty.extend(
                        touched
                            .iter()
                            .map(|&id| c.position_of(id).expect("sealed patient has a position") as u32),
                    );
                    idx = idx.with_delta(&c, &dirty);
                    idx.debug_validate(&c);
                    let fresh = CodeIndex::build_with_shard_rows(&c, WIDTH);
                    prop_assert_eq!(idx.parts(), fresh.parts(), "step {}, threads {}", step, threads);
                    let mut rng = Rng(ast_seed ^ step);
                    planned_equals_scan(&c, &idx, &random_query(&mut rng, 2))?;
                    planned_equals_scan(&c, &idx, &random_demographic_shape(&mut rng))?;
                }
                Ok(())
            })?;
        }
    }

    /// The pattern scan agrees with the retired per-history naive
    /// matcher, hit for hit on `find_matches` and on `matches`, and the
    /// planned `Pattern` query agrees with `select_scan`, over random 1–3
    /// step patterns at 1 and 4 worker threads. The collection has an
    /// arena per 64 patients, and an ingest epoch moved rows onto stores
    /// of their own on a grown dictionary version, so the plan's bound
    /// steps (shard pass and dirty-row pass) meet stores on two versions.
    #[test]
    fn temporal_scan_agrees_with_naive_oracle(
        pattern_seed in 0u64..u64::MAX,
        collection_seed in 0u64..100,
        patients in 100u32..400,
    ) {
        use pastas_codes::Code;
        use pastas_model::{Entry, OpenEpoch, Payload, SourceKind};
        let pat = random_pattern(&mut Rng(pattern_seed));
        let mut c = generate_collection(
            SynthConfig { shard_patients: 64, ..SynthConfig::with_patients(patients as usize) },
            collection_seed,
        );
        let idx = CodeIndex::build_with_shard_rows(&c, 128);
        let mut rng = Rng(pattern_seed ^ collection_seed);
        let mut epoch = OpenEpoch::new();
        for _ in 0..4 {
            let h = &c.histories()[rng.below(c.len() as u64) as usize];
            let fallback = Date::new(2013, 1, 1).expect("valid date").at_midnight();
            let at = h.entries().first().map_or(fallback, |e| e.start());
            epoch.append(*h.patient(), vec![
                Entry::event(at, Payload::Diagnosis(Code::icpc("Z99")), SourceKind::PrimaryCare),
                Entry::event(at, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare),
            ]);
        }
        let dirty: Vec<u32> = epoch
            .seal_into(&mut c)
            .iter()
            .map(|&id| c.position_of(id).expect("sealed patient has a position") as u32)
            .collect();
        let idx = idx.with_delta(&c, &dirty);
        prop_assert!(dictionary_versions(&c) >= 2, "{} versions", dictionary_versions(&c));
        let histories: Vec<&pastas_model::History> = c.iter().collect();
        let naive_hits: Vec<_> = histories.iter().map(|h| pat.naive_find_matches(h)).collect();
        let naive_hit: Vec<bool> = histories.iter().map(|h| pat.naive_matches(h)).collect();
        prop_assert_eq!(
            naive_hits.iter().map(|hs| !hs.is_empty()).collect::<Vec<_>>(),
            naive_hit.clone(),
            "oracle self-consistency"
        );
        let query = HistoryQuery::Pattern(pat.clone());
        let plan = QueryPlan::build(&idx, &c, &query);
        let reference = pastas_par::with_threads(1, || select_scan(&c, &query));
        let naive_positions: Vec<u32> =
            (0..histories.len() as u32).filter(|&p| naive_hit[p as usize]).collect();
        prop_assert_eq!(&reference, &naive_positions, "select_scan");
        for threads in [1usize, 4] {
            let (hits, hit, planned) = pastas_par::with_threads(threads, || {
                (
                    pastas_par::par_map_min(&histories, 1, |h| pat.find_matches(h)),
                    pastas_par::par_map_min(&histories, 1, |h| pat.matches(h)),
                    plan.execute(&c, &idx),
                )
            });
            prop_assert_eq!(&hits, &naive_hits, "find_matches, threads {}", threads);
            prop_assert_eq!(&hit, &naive_hit, "matches, threads {}", threads);
            prop_assert_eq!(&planned, &reference, "planned, threads {}, plan:\n{}", threads, plan.render());
        }
    }

    /// The radix order from the row columns equals each history's own key
    /// under a stable comparison sort, for every key at one thread and at
    /// four, over a sharded collection that a seal and upserts left with
    /// empty histories, stays outlasting their history's last start, far
    /// starts, rows detached onto their own store, and first starts moved
    /// earlier and later.
    #[test]
    fn radix_sort_equals_the_reference(
        seed in 0u64..200,
        patients in 200u32..500,
        op_seed in 0u64..u64::MAX,
    ) {
        use pastas_codes::Code;
        use pastas_model::{Entry, EpisodeKind, History, OpenEpoch, Patient, PatientId, Payload, SourceKind};
        let mut c = generate_collection(
            SynthConfig { shard_patients: 128, ..SynthConfig::with_patients(patients as usize) },
            seed,
        );
        let mut rng = Rng(op_seed);
        let year = |y| Date::new(y, 1, 1).expect("valid date").at_midnight();
        let diag = |t| Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare);
        let stay = Entry::interval(year(2012), year(2195), Payload::Episode(EpisodeKind::Inpatient), SourceKind::Hospital);
        let mut epoch = OpenEpoch::new();
        for i in 0..8u64 {
            let p = *c.histories()[rng.below(c.len() as u64) as usize].patient();
            // Earlier first start, a far start, a stay past every start.
            let mut delta = vec![diag(p.birth_date.at_midnight()), diag(year(2190)), stay.clone()];
            delta.truncate(1 + rng.below(3) as usize);
            epoch.append(p, delta);
            epoch.append(Patient { id: PatientId(9_000_000 + i), ..p }, Vec::new());
        }
        epoch.seal_into(&mut c);
        // Later first starts: rows upserted without their earliest entries.
        for _ in 0..8 {
            let h = &c.histories()[rng.below(c.len() as u64) as usize];
            let mut later = History::new(*h.patient());
            later.insert_all(h.entries().iter().skip(1 + rng.below(3) as usize).map(|e| e.to_entry()));
            c.upsert(later);
        }
        c.debug_validate();
        // Every row alike but for its id: all-equal counts, starts and spans.
        let alike = pastas_model::HistoryCollection::from_histories((0..64).map(|i| {
            let mut h = History::new(Patient { id: PatientId(1 + i), ..*c.histories()[0].patient() });
            h.insert(diag(year(2014)));
            h
        }));
        for key in [SortKey::PatientId, SortKey::FirstEntry, SortKey::EntryCount, SortKey::Span] {
            let reference = crate::ops::reference_sort(&c, &key);
            // The same rows already in the key's order, and reversed.
            let reordered = |order: &mut dyn Iterator<Item = &u32>| {
                pastas_model::HistoryCollection::from_histories(
                    order.map(|&p| c.histories()[p as usize].clone()),
                )
            };
            let sorted = reordered(&mut reference.iter());
            let reversed = reordered(&mut reference.iter().rev());
            for rows in [&c, &sorted, &reversed, &alike] {
                let expect = crate::ops::reference_sort(rows, &key);
                for threads in [1, 4] {
                    let radix = pastas_par::with_threads(threads, || crate::sort_histories(rows, &key));
                    prop_assert_eq!(&radix, &expect, "{:?}, threads {}", key, threads);
                }
            }
        }
    }
    /// The one resolver and the binding on it agree with the string
    /// tests at every dictionary version. After each of several ingest
    /// epochs that grow the dictionary by random codes (most of them new),
    /// random leaves resolve to exactly the ids whose codes `holds_for`
    /// accepts over the whole dictionary, and random trees over every
    /// variant bound to that version answer every entry of every arena as
    /// `EntryPredicate::matches` does.
    #[test]
    fn bound_predicate_agrees_with_matches(seed in 0u64..200, tree_seed in 0u64..u64::MAX) {
        use pastas_model::{Entry, OpenEpoch, Payload, SourceKind};
        let mut c = generate_collection(SynthConfig { shard_patients: 64, ..SynthConfig::with_patients(240) }, seed);
        let mut rng = Rng(tree_seed);
        for version in 0..3 {
            if version > 0 {
                let mut epoch = OpenEpoch::new();
                for _ in 0..4 {
                    let p = *c.histories()[rng.below(c.len() as u64) as usize].patient();
                    let at = Date::new(2013, 1 + rng.below(12) as u32, 1).expect("valid date").at_midnight();
                    let entry = Entry::event(at, Payload::Diagnosis(random_code(&mut rng)), SourceKind::PrimaryCare);
                    epoch.append(p, vec![entry]);
                }
                epoch.seal_into(&mut c);
                prop_assert!(dictionary_versions(&c) >= 2, "{} versions", dictionary_versions(&c));
            }
            let dict = c.dictionary();
            for _ in 0..12 {
                let leaf = random_entry_predicate(&mut rng, 0);
                let codes = (0u32..).zip(dict.iter());
                let expect: Vec<u32> = codes.filter(|(_, code)| leaf.holds_for(code)).map(|(id, _)| id).collect();
                prop_assert_eq!(leaf.code_ids(dict), expect, "{:?}", leaf);
            }
            for _ in 0..6 {
                let pred = random_entry_predicate(&mut rng, 3);
                let bound = crate::BoundPredicate::new(&pred, dict);
                for h in c.histories() {
                    for e in h.entries() {
                        prop_assert_eq!(bound.matches(e), pred.matches(e), "{:?} on {:?}", pred, e);
                    }
                }
            }
        }
    }

    /// The radix order equals a stable sort of its keys at every key
    /// width the sorts meet (0 to 63 bits), for random, all-equal,
    /// already-sorted and reversed keys with and without keyless rows, at
    /// one thread and at four: enough rows for four chunks.
    #[test]
    fn radix_order_equals_a_stable_sort(
        width in 0usize..7,
        shape in 0u64..4,
        keyless in 0u64..3,
        key_seed in 0u64..u64::MAX,
    ) {
        let bits = [0u32, 1, 11, 12, 22, 33, 63][width];
        let mut rng = Rng(key_seed);
        let rows = 4 * (1 << 14) + rng.below(3_000) as usize;
        let top = if bits == 0 { 0 } else { u64::MAX >> (64 - bits) };
        // A constant high word: bits above the width every key shares.
        let high = if bits < 63 { (rng.next() >> bits) << bits } else { 0 };
        let mut keys: Vec<u64> = (0..rows).map(|_| high | (rng.next() & top)).collect();
        match shape {
            1 => keys.iter_mut().for_each(|k| *k = high | top),
            2 => keys.sort_unstable(),
            3 => keys.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        let keys: Vec<Option<u64>> = keys
            .into_iter()
            .map(|k| Some(k).filter(|_| keyless == 0 || rng.below(10 * keyless) != 0))
            .collect();
        let mut expect: Vec<u32> = (0..rows as u32).collect();
        expect.sort_by_key(|&p| keys[p as usize].map_or((1, 0), |k| (0, k)));
        for threads in [1, 4] {
            let order = pastas_par::with_threads(threads, || crate::radix::radix_order(rows, |p| keys[p]));
            prop_assert!(order == expect, "{} bits, shape {}, threads {}", bits, shape, threads);
        }
    }
}

/// Valid queries the mutator starts from, and what it splices in: the
/// language's punctuation and keywords, and multi-byte text — Unicode
/// whitespace among it, where a parser stepping by bytes slices a char.
const QUERY_SEEDS: [&str; 4] = [
    "has(T90|T89) and age(50..80) and count(diagnosis) >= 3",
    "(has(K77) or has(I50.*)) and not lacks(C07.*) and sex(F)",
    "seq(E1(0|1).* then[-30d..90d] interval then any)",
    "not (has(E1(0|1|4).*) or count(K.*) <= 2)",
];
const QUERY_PIECES: [&str; 16] = [
    "(", ")", "[", " ", "\u{a0}", "\u{2003}", "\u{3000}", "é", "and ", "or ", "not ", "has(",
    "seq(", " then", "..", ">=",
];

/// A near-valid query: a seed with pieces spliced in or chars deleted,
/// wrapped `depth` levels deep in parentheses, `not`s or regex groups.
fn arb_queryish() -> impl Strategy<Value = String> {
    let edits = proptest::collection::vec((any::<usize>(), 0..QUERY_PIECES.len()), 0..6);
    (0..QUERY_SEEDS.len(), edits, 0usize..3, 0usize..130).prop_map(|(seed, edits, wrap, depth)| {
        let mut chars: Vec<char> = QUERY_SEEDS[seed].chars().collect();
        for (at, piece) in edits {
            // Every third position deletes a char; the rest insert.
            let at = at % (chars.len() + 1);
            if at.is_multiple_of(3) && at < chars.len() {
                chars.remove(at);
            } else {
                chars.splice(at..at, QUERY_PIECES[piece].chars());
            }
        }
        let body: String = chars.into_iter().collect();
        let (open, close) = ("(".repeat(depth), ")".repeat(depth));
        match wrap {
            0 => format!("{open}{body}{close}"),
            1 => format!("{}{body}", "not ".repeat(depth)),
            _ => format!("has({open}T90{close}) and {body}"),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte soup, and mutated near-valid queries with Unicode whitespace
    /// and deep nesting, never panic the query parser; what parses
    /// normalizes.
    #[test]
    fn query_parser_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        text in arb_queryish(),
    ) {
        for text in [String::from_utf8_lossy(&bytes).into_owned(), text] {
            if let Ok(q) = crate::parse_query(&text, Date::MIN) {
                normalize(&q).fingerprint();
            }
        }
    }
}
