//! The cohort dimension aggregation and its serial oracle.
//!
//! [`PatientColumns::profile`] folds the digest rows of the selected
//! patients — given as sorted positions into the collection, exactly
//! what the query planner returns — into a [`CohortProfile`] in one
//! parallel pass: each worker carries a dense [`Accum`] of `u32` bucket
//! arrays (plus a vocabulary-sized count column for top-k codes) and the
//! partial accumulators merge by vector addition, so the result is
//! independent of chunking and thread count. [`PatientColumns::monthly`]
//! folds the same patients' month runs into the monthly series.
//! [`cohort_profile_serial`] is the deliberately naive per-history,
//! per-entry reference implementation the property tests diff against.

use crate::columns::{dominant, Digest, PatientColumns, CHUNK_ROWS, NO_YEAR};
use crate::dimensions::*;
use crate::tables::NO_BUCKET;
use pastas_ingest::json::write_string;
use pastas_model::{CodeDictionary, History, HistoryCollection, Sex, SourceKind};
use pastas_ontology::integration::{IntegrationOntology, CONDITIONS};
use pastas_time::Date;
use std::collections::BTreeMap;

/// How many top codes a profile reports by default.
pub const DEFAULT_TOP_K: usize = 20;

/// One rendered histogram of a finished profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Dimension name (stable, used as JSON key and panel title).
    pub name: &'static str,
    /// `(bucket label, patient count)` in bucket order.
    pub buckets: Vec<(String, u64)>,
    /// True if every cohort member lands in exactly one bucket, so the
    /// counts sum to the cohort size. False for the per-patient-distinct
    /// breakdowns (top codes, conditions) where one patient may count in
    /// several buckets.
    pub partition: bool,
}

/// The nine-dimension composition summary of a materialized cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortProfile {
    /// Number of selected patients.
    pub cohort_size: u64,
    /// Total entries across the selected histories.
    pub total_entries: u64,
    /// Reference date ages and first-contact years are relative to.
    pub reference: Date,
    /// Patients per age decade at the reference date.
    pub age_bands: Vec<u64>,
    /// Patients by registered sex (`[female, male]`).
    pub sex: Vec<u64>,
    /// Patients by most frequent event source (+ trailing `none`).
    pub dominant_source: Vec<u64>,
    /// Patients by events-per-patient band.
    pub entry_bands: Vec<u64>,
    /// Patients by observed history span band (+ trailing `none`).
    pub span_bands: Vec<u64>,
    /// Patients by dominant ICD-10 chapter (+ trailing `none`).
    pub icd_chapters: Vec<u64>,
    /// Patients by dominant ATC main group (+ trailing `none`).
    pub atc_groups: Vec<u64>,
    /// Patients by first-contact calendar year (`earlier` + window +
    /// trailing `none`).
    pub first_contact: Vec<u64>,
    /// `(code label, patients with the code)`, count-descending, ties
    /// broken by label — per-patient-distinct, not a partition.
    pub top_codes: Vec<(String, u64)>,
    /// `(condition name, patients indicating it)` in `CONDITIONS` order —
    /// per-patient-distinct, not a partition.
    pub conditions: Vec<(String, u64)>,
}

impl CohortProfile {
    /// The profile's histograms in display order.
    pub fn histograms(&self) -> Vec<Histogram> {
        let ref_year = self.reference.year();
        let labelled = |name: &'static str, counts: &[u64], label: &dyn Fn(usize) -> String| {
            Histogram {
                name,
                buckets: counts.iter().enumerate().map(|(i, &c)| (label(i), c)).collect(),
                partition: true,
            }
        };
        let mut out = vec![
            labelled("age_band", &self.age_bands, &age_label),
            labelled("sex", &self.sex, &|i| {
                if i == 0 { "female".to_owned() } else { "male".to_owned() }
            }),
            labelled("dominant_source", &self.dominant_source, &source_label),
            labelled("entries_per_patient", &self.entry_bands, &entry_label),
            labelled("history_span", &self.span_bands, &span_label),
            labelled("icd_chapter", &self.icd_chapters, &icd_label),
            labelled("atc_group", &self.atc_groups, &atc_label),
            labelled("first_contact_year", &self.first_contact, &|i| {
                first_contact_label(ref_year, i)
            }),
        ];
        out.push(Histogram {
            name: "top_codes",
            buckets: self.top_codes.clone(),
            partition: false,
        });
        out.push(Histogram {
            name: "conditions",
            buckets: self.conditions.iter().map(|(n, c)| (n.clone(), *c)).collect(),
            partition: false,
        });
        out
    }

    /// This profile cut to its `top_k` most frequent codes: what the fold
    /// would have returned for that `top_k`, given it ran with a larger
    /// one (the top codes are a sorted prefix).
    pub fn with_top_k(&self, top_k: usize) -> CohortProfile {
        let mut cut = self.clone();
        cut.top_codes.truncate(top_k);
        cut
    }

    /// Approximate heap bytes the profile holds (what a cache of profiles
    /// charges for one).
    pub fn heap_bytes(&self) -> usize {
        const BANDS: usize = AGE_BANDS + SEX_BANDS + SOURCE_BANDS + ENTRY_BANDS + SPAN_BANDS
            + ICD_BANDS + ATC_BANDS + FIRST_CONTACT_BANDS;
        let labelled = self.top_codes.iter().chain(&self.conditions);
        labelled.map(|(label, _)| std::mem::size_of::<(String, u64)>() + label.len()).sum::<usize>()
            + BANDS * std::mem::size_of::<u64>()
    }

    /// The profile as a JSON document (hand-written like the rest of the
    /// serve layer; labels are escaped).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"cohort_size\":{},\"total_entries\":{},\"reference\":\"{}\",\"histograms\":[",
            self.cohort_size, self.total_entries, self.reference
        ));
        for (i, h) in self.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"partition\":{},\"buckets\":[",
                h.name, h.partition
            ));
            for (j, (label, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                write_string(&mut out, label);
                out.push_str(&format!(",{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// The age-decade cutoffs of one reference date, as day numbers:
/// `cutoffs[i]` is the last birth aged `10 * (i + 1)` years or more
/// ([`History::last_birth_aged`]), so a birth's [`age_bucket`] is the
/// number of cutoffs it does not exceed — leap days included, since the
/// cutoffs come from the age's own arithmetic.
pub(crate) struct AgeCutoffs([i32; AGE_BANDS - 1]);

impl AgeCutoffs {
    /// Bind the cutoffs at `reference`: nine calendar searches a fold.
    pub(crate) fn at(reference: Date) -> AgeCutoffs {
        AgeCutoffs(std::array::from_fn(|i| {
            // The calendar's day numbers and the one before it fit in i32.
            History::last_birth_aged(reference, 10 * (i as i32 + 1)) as i32
        }))
    }

    /// The age band of a birth day number, counted without a branch.
    pub(crate) fn band(&self, birth: i32) -> usize {
        self.0.iter().map(|&cutoff| usize::from(birth <= cutoff)).sum()
    }
}

/// The dense per-worker accumulator: every dimension is a small `u32`
/// array indexed by bucket id; the top-k count column has one slot a
/// code of the collection's dictionary. Merging two accumulators is vector addition,
/// so the parallel fold is associative and chunk-shape independent.
struct Accum {
    cohort: u32,
    entries: u64,
    age: [u32; AGE_BANDS],
    sex: [u32; SEX_BANDS],
    source: [u32; SOURCE_BANDS],
    entry_bands: [u32; ENTRY_BANDS],
    span: [u32; SPAN_BANDS],
    chapters: [u32; ICD_BANDS],
    atc: [u32; ATC_BANDS],
    first_contact: [u32; FIRST_CONTACT_BANDS],
    /// Patients carrying each code, by id (per-patient-distinct).
    code_counts: Vec<u32>,
    cond_counts: [u32; CONDITIONS.len()],
}

impl Accum {
    fn new(codes: usize) -> Accum {
        Accum {
            cohort: 0,
            entries: 0,
            age: [0; AGE_BANDS],
            sex: [0; SEX_BANDS],
            source: [0; SOURCE_BANDS],
            entry_bands: [0; ENTRY_BANDS],
            span: [0; SPAN_BANDS],
            chapters: [0; ICD_BANDS],
            atc: [0; ATC_BANDS],
            first_contact: [0; FIRST_CONTACT_BANDS],
            code_counts: vec![0; codes],
            cond_counts: [0; CONDITIONS.len()],
        }
    }

    /// Fold one patient's digest row into the accumulator, aged by the
    /// reference date's `ages` cutoffs and its calendar year `ref_year`.
    fn add(&mut self, row: &Digest, codes: &[u32], ages: &AgeCutoffs, ref_year: i32) {
        self.cohort += 1;
        self.entries += u64::from(row.entries);
        self.age[ages.band(row.birth)] += 1;
        self.sex[row.sex as usize] += 1;
        self.entry_bands[entry_bucket(row.entries as usize)] += 1;
        self.first_contact[match row.first_year {
            NO_YEAR => FIRST_CONTACT_NONE,
            year => first_contact_bucket(ref_year, i32::from(year)),
        }] += 1;
        self.span[row.span as usize] += 1;
        self.source[row.source as usize] += 1;
        self.chapters[row.chapter as usize] += 1;
        self.atc[row.atc as usize] += 1;
        let mut mask = row.cond_mask;
        while mask != 0 {
            self.cond_counts[mask.trailing_zeros() as usize] += 1;
            mask &= mask - 1;
        }
        for &id in codes {
            self.code_counts[id as usize] += 1;
        }
    }

    /// Merge a partial accumulator (vector addition).
    fn merge(mut self, other: Accum) -> Accum {
        fn add_into(a: &mut [u32], b: &[u32]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.cohort += other.cohort;
        self.entries += other.entries;
        add_into(&mut self.age, &other.age);
        add_into(&mut self.sex, &other.sex);
        add_into(&mut self.source, &other.source);
        add_into(&mut self.entry_bands, &other.entry_bands);
        add_into(&mut self.span, &other.span);
        add_into(&mut self.chapters, &other.chapters);
        add_into(&mut self.atc, &other.atc);
        add_into(&mut self.first_contact, &other.first_contact);
        add_into(&mut self.code_counts, &other.code_counts);
        add_into(&mut self.cond_counts, &other.cond_counts);
        self
    }
}

impl PatientColumns {
    /// The full dimension profile of the cohort at `positions` (sorted
    /// indices into the collection this column describes, as returned by
    /// the query planner), aged against `reference`: one parallel fold
    /// over `positions.len()` digest rows into one accumulator a chunk.
    /// No entry is read and the calendar is consulted once a call.
    pub fn profile(&self, positions: &[u32], reference: Date, top_k: usize) -> CohortProfile {
        let (ages, ref_year) = (AgeCutoffs::at(reference), reference.year());
        let folded = pastas_par::par_fold(
            positions,
            || Accum::new(self.codes()),
            |acc, &pos| {
                let (row, codes) = self.row(pos);
                acc.add(row, codes, &ages, ref_year);
            },
            Accum::merge,
        );
        finish(folded, &self.dict, reference, top_k)
    }

    /// Monthly event counts over the cohort at `positions` (sorted
    /// indices, as for [`Self::profile`]): one `(first-of-month, entries
    /// starting that month)` row per month between the cohort's first and
    /// last entry, gaps filled with zeros. One parallel fold over the
    /// cohort's month runs, a chunk's positions at a time — a shift, an
    /// add and an increment a run; no entry is read and the calendar is
    /// consulted once an output month.
    pub fn monthly(&self, positions: &[u32]) -> Vec<(Date, u64)> {
        let base = self.months.start;
        let by_chunk: Vec<&[u32]> = positions
            .chunk_by(|a, b| *a as usize / CHUNK_ROWS == *b as usize / CHUNK_ROWS)
            .collect();
        let counts = pastas_par::par_fold(
            &by_chunk,
            || vec![0u64; self.months.len()],
            |acc, group| self.add_runs(group, base, acc),
            |mut a, b| {
                a.iter_mut().zip(&b).for_each(|(mine, theirs)| *mine += theirs);
                a
            },
        );
        // The cohort's own first and last month bound the series.
        let end = counts.iter().rposition(|&c| c > 0).map_or(0, |at| at + 1);
        let begin = counts.iter().position(|&c| c > 0).unwrap_or(end);
        let months = counts[begin..end].iter().zip(base + begin as i32..);
        months
            .map(|(&count, slot)| {
                let (year, month) = (slot.div_euclid(12), slot.rem_euclid(12) as u32 + 1);
                // the slot lies between two dates of the collection, so the year is in range; the month is 1..=12 and day 1 is valid in every month
                (Date::new(year, month, 1).expect("month slot is valid"), count)
            })
            .collect()
    }
}

/// Widen a folded accumulator into the public profile.
fn finish(acc: Accum, dict: &CodeDictionary, reference: Date, top_k: usize) -> CohortProfile {
    let widen = |a: &[u32]| a.iter().map(|&v| u64::from(v)).collect::<Vec<u64>>();
    let mut codes: Vec<(String, u64)> = dict
        .iter()
        .zip(&acc.code_counts)
        .filter(|&(_, &count)| count > 0)
        .map(|(code, &count)| (code.to_string(), u64::from(count)))
        .collect();
    codes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    codes.truncate(top_k);
    CohortProfile {
        cohort_size: u64::from(acc.cohort),
        total_entries: acc.entries,
        reference,
        age_bands: widen(&acc.age),
        sex: widen(&acc.sex),
        dominant_source: widen(&acc.source),
        entry_bands: widen(&acc.entry_bands),
        span_bands: widen(&acc.span),
        icd_chapters: widen(&acc.chapters),
        atc_groups: widen(&acc.atc),
        first_contact: widen(&acc.first_contact),
        top_codes: codes,
        conditions: CONDITIONS
            .iter()
            .zip(&acc.cond_counts)
            .map(|(&(name, ..), &count)| (name.to_owned(), u64::from(count)))
            .collect(),
    }
}

/// The serial naive reference: one history at a time and every entry of
/// it, sets and maps instead of digest rows, no sharding, no `pastas_par`.
/// Exists so the property tests can diff the parallel pass against an
/// independently structured implementation.
pub fn cohort_profile_serial(
    collection: &HistoryCollection,
    ontology: &IntegrationOntology,
    positions: &[u32],
    reference: Date,
    top_k: usize,
) -> CohortProfile {
    use std::collections::HashSet;
    let histories = collection.histories();
    let mut acc = Accum::new(0);
    let mut code_patients: BTreeMap<String, u64> = BTreeMap::new();
    let mut cond_counts = [0u64; CONDITIONS.len()];
    for &pos in positions {
        let history = &histories[pos as usize];
        acc.cohort += 1;
        acc.entries += history.len() as u64;
        acc.age[age_bucket(history.age_at(reference))] += 1;
        acc.sex[match history.patient().sex {
            Sex::Female => 0,
            Sex::Male => 1,
        }] += 1;
        acc.entry_bands[entry_bucket(history.len())] += 1;
        acc.span[span_bucket(history.span().map(|d| d.as_days_f64()))] += 1;
        acc.first_contact[match history.first_time() {
            Some(t) => first_contact_bucket(reference.year(), t.date().year()),
            None => FIRST_CONTACT_NONE,
        }] += 1;

        let mut per_source = [0u32; SourceKind::ALL.len()];
        let mut per_chapter = [0u32; ICD_BANDS - 1];
        let mut per_atc = [0u32; ATC_BANDS - 1];
        let mut seen: HashSet<String> = HashSet::new();
        let mut conditions: HashSet<&'static str> = HashSet::new();
        for entry in history.entries().iter() {
            per_source[entry.source().dense_index()] += 1;
            if let Some(code) = entry.code() {
                let chapter = crate::tables::chapter_of(code);
                if chapter != NO_BUCKET {
                    per_chapter[chapter as usize] += 1;
                }
                let group = crate::tables::atc_group_of(code);
                if group != NO_BUCKET {
                    per_atc[group as usize] += 1;
                }
                conditions.extend(ontology.conditions_of(code));
                seen.insert(code.to_string());
            }
        }
        acc.source[dominant(&per_source)] += 1;
        acc.chapters[dominant(&per_chapter)] += 1;
        acc.atc[dominant(&per_atc)] += 1;
        for label in seen {
            *code_patients.entry(label).or_insert(0) += 1;
        }
        for name in conditions {
            if let Some(i) = IntegrationOntology::condition_index(name) {
                cond_counts[i] += 1;
            }
        }
    }
    let mut profile = finish(acc, &CodeDictionary::default(), reference, top_k);
    let mut codes: Vec<(String, u64)> = code_patients.into_iter().collect();
    codes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    codes.truncate(top_k);
    profile.top_codes = codes;
    profile.conditions = CONDITIONS
        .iter()
        .zip(&cond_counts)
        .map(|(&(name, ..), &count)| (name.to_owned(), count))
        .collect();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_synth::{generate_collection, SynthConfig};

    fn fixture() -> (HistoryCollection, IntegrationOntology, Date) {
        let collection = generate_collection(SynthConfig::with_patients(120), 23);
        let reference = collection
            .stats()
            .last
            .map(|dt| dt.date())
            .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid"));
        (collection, IntegrationOntology::new(), reference)
    }

    fn folded(
        collection: &HistoryCollection,
        ontology: &IntegrationOntology,
        positions: &[u32],
        reference: Date,
    ) -> CohortProfile {
        PatientColumns::build(collection, ontology).profile(positions, reference, DEFAULT_TOP_K)
    }

    #[test]
    fn partitions_sum_to_cohort_size() {
        let (collection, ontology, reference) = fixture();
        let positions: Vec<u32> = (0..collection.len() as u32).collect();
        let p = folded(&collection, &ontology, &positions, reference);
        assert_eq!(p.cohort_size, collection.len() as u64);
        for h in p.histograms().iter().filter(|h| h.partition) {
            let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, p.cohort_size, "histogram {} must partition", h.name);
        }
    }

    #[test]
    fn parallel_equals_serial_on_full_cohort() {
        let (collection, ontology, reference) = fixture();
        let positions: Vec<u32> = (0..collection.len() as u32).collect();
        let par = folded(&collection, &ontology, &positions, reference);
        let ser =
            cohort_profile_serial(&collection, &ontology, &positions, reference, DEFAULT_TOP_K);
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_cohort_profiles_cleanly() {
        let (collection, ontology, reference) = fixture();
        let p = folded(&collection, &ontology, &[], reference);
        assert_eq!(p.cohort_size, 0);
        assert!(p.top_codes.is_empty());
        assert!(PatientColumns::build(&collection, &ontology).monthly(&[]).is_empty());
        assert!(p.to_json().starts_with("{\"cohort_size\":0,"));
    }

    #[test]
    fn monthly_timeline_is_contiguous_and_totals_entries() {
        let (collection, ontology, _) = fixture();
        let positions: Vec<u32> = (0..collection.len() as u32).collect();
        let months = PatientColumns::build(&collection, &ontology).monthly(&positions);
        let total: u64 = months.iter().map(|&(_, c)| c).sum();
        let entries: u64 = positions
            .iter()
            .map(|&p| collection.histories()[p as usize].len() as u64)
            .sum();
        assert_eq!(total, entries);
        for pair in months.windows(2) {
            let (a, b) = (pair[0].0, pair[1].0);
            assert_eq!(a.add_months(1), b, "months must be contiguous");
        }
    }
}
