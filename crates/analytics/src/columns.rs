//! The per-patient digest column: what a cohort profile needs to know
//! about a patient, computed once per collection instead of once per read.
//!
//! Eight of the profile's dimensions are attributes of the *patient* and
//! the other two (conditions, top codes) are per-patient-distinct sets.
//! [`PatientColumns`] holds one 24-byte [`Digest`] per collection
//! position plus the patient's distinct code ids, so a profile is
//! a fold over `|cohort|` rows and never walks an entry. Rows live in
//! chunks of [`CHUNK_ROWS`] behind `Arc`s: the column after an ingest
//! ([`PatientColumns::with_rows`]) shares every chunk the ingest did not
//! touch, so a publish copies O(touched rows).
//!
//! Beside each digest the chunk keeps the patient's month runs — one
//! 2-byte [`Run`] per calendar month with entries starting in it — so
//! the cohort's monthly series is a fold over runs, not entries.

use crate::dimensions::*;
use crate::tables::{CodeDims, NO_BUCKET};
use pastas_model::{
    CodeDictionary, Entries, History, HistoryCollection, RowSpan, Sex, SourceKind, FAR_START,
};
use pastas_ontology::integration::IntegrationOntology;
use pastas_time::{Date, DateTime};
use std::ops::Range;
use std::sync::Arc;

/// Rows per copy-on-write chunk (6 KiB of digests plus the code lists
/// and month runs).
pub(crate) const CHUNK_ROWS: usize = 256;

/// One month run of a row: the months since the row's previous run (the
/// first run counts from January of [`Digest::first_year`]) in the high
/// byte, the entries starting in that month in the low byte. A step or a
/// count wider than a byte splits the run: `(255, 0)` runs carry a long
/// gap, `(0, n)` runs continue a month of more than 255 entries.
type Run = u16;

/// The month index `year * 12 + month - 1` of `date`.
fn month_index(date: Date) -> i32 {
    date.year() * 12 + date.month() as i32 - 1
}

/// [`Digest::first_year`] of a patient without entries.
pub(crate) const NO_YEAR: i16 = i16::MIN;

/// One patient's reference-date-independent profile inputs. Bucket
/// fields hold the bucket index the dimension's `*_bucket` function
/// assigns, `none` buckets included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest {
    /// Birth date as a day number: the age band is a count of the
    /// profile's day-number cutoffs it does not exceed.
    pub birth: i32,
    pub entries: u32,
    /// Bit `i` set ⇔ some entry indicates `CONDITIONS[i]`.
    pub cond_mask: u32,
    /// Where this row's run of the chunk's `codes` ends; it starts where
    /// the previous row's ended.
    codes_end: u32,
    /// Calendar year of the first entry, or [`NO_YEAR`].
    pub first_year: i16,
    pub sex: u8,
    pub span: u8,
    pub source: u8,
    pub chapter: u8,
    pub atc: u8,
}

/// Index of the most frequent bucket, lowest index winning ties;
/// `counts.len()` (the dimension's trailing `none` bucket) if every
/// count is zero.
pub(crate) fn dominant(counts: &[u32]) -> usize {
    let best = counts.iter().enumerate().max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)));
    best.filter(|&(_, &max)| max > 0).map_or(counts.len(), |(at, _)| at)
}

/// Up to [`CHUNK_ROWS`] digests, their distinct-code lists and their
/// month runs, CSR style.
#[derive(Default)]
struct Chunk {
    rows: Vec<Digest>,
    /// Sorted distinct code ids, one run per row.
    codes: Vec<u32>,
    /// Month runs in month order, one span per row.
    runs: Vec<Run>,
    /// Where each row's span of `runs` ends; it starts where the
    /// previous row's ended.
    run_ends: Vec<u32>,
}

impl Chunk {
    fn row(&self, at: usize) -> (&Digest, &[u32]) {
        let lo = at.checked_sub(1).map_or(0, |before| self.rows[before].codes_end);
        let row = &self.rows[at];
        (row, &self.codes[lo as usize..row.codes_end as usize])
    }

    fn runs(&self, at: usize) -> &[Run] {
        let lo = at.checked_sub(1).map_or(0, |before| self.run_ends[before]);
        &self.runs[lo as usize..self.run_ends[at] as usize]
    }

    /// Append a row copied from another chunk.
    fn push_row(&mut self, row: &Digest, codes: &[u32], runs: &[Run]) {
        self.codes.extend_from_slice(codes);
        self.rows.push(Digest { codes_end: self.codes.len() as u32, ..*row });
        self.runs.extend_from_slice(runs);
        self.run_ends.push(self.runs.len() as u32);
    }

    /// Release the spare capacity of a finished chunk.
    fn shrink(mut self) -> Arc<Chunk> {
        self.codes.shrink_to_fit();
        self.runs.shrink_to_fit();
        Arc::new(self)
    }

    /// Append the digest of `history`: one fused pass over its source
    /// and code columns. `dims[id]` describes the code `CodeId(id)`.
    fn push_history(&mut self, history: &History, calendar: &Calendar, dims: &[CodeDims]) {
        let mut per_source = [0u32; SourceKind::ALL.len()];
        let mut per_chapter = [0u32; ICD_BANDS - 1];
        let mut per_atc = [0u32; ATC_BANDS - 1];
        let mut cond_mask = 0u32;
        let codes_lo = self.codes.len();
        for (source, code) in history.entries().scan() {
            per_source[source.dense_index()] += 1;
            if let Some(id) = code {
                let dims = dims[id.0 as usize];
                if dims.chapter != NO_BUCKET {
                    per_chapter[dims.chapter as usize] += 1;
                }
                if dims.atc != NO_BUCKET {
                    per_atc[dims.atc as usize] += 1;
                }
                cond_mask |= dims.cond_mask;
                self.codes.push(id.0);
            }
        }
        self.codes[codes_lo..].sort_unstable();
        let mut kept = codes_lo;
        for at in codes_lo..self.codes.len() {
            if at == codes_lo || self.codes[at] != self.codes[kept - 1] {
                self.codes[kept] = self.codes[at];
                kept += 1;
            }
        }
        self.codes.truncate(kept);
        let first_year = history.first_time().map_or(NO_YEAR, |t| t.date().year() as i16);
        self.push_runs(history.entries(), first_year, calendar);
        let span_days = history.span().map(|span| span.as_days_f64());
        self.rows.push(Digest {
            // Every date's day number fits: the calendar spans ±4.4M days.
            birth: history.patient().birth_date.day_number() as i32,
            entries: history.len() as u32,
            cond_mask,
            codes_end: kept as u32,
            first_year,
            sex: match history.patient().sex {
                Sex::Female => 0,
                Sex::Male => 1,
            },
            span: span_bucket(span_days) as u8,
            source: dominant(&per_source) as u8,
            chapter: dominant(&per_chapter) as u8,
            atc: dominant(&per_atc) as u8,
        });
    }

    /// Append the month runs of `entries`, whose first entry starts in
    /// `first_year`. The starts come from the arena's offset column (a
    /// [`FAR_START`] row through its `EntryRef`) and are sorted, so a run
    /// is one calendar step and a scan of the offsets below the next
    /// month's first second.
    fn push_runs(&mut self, entries: Entries<'_>, first_year: i16, calendar: &Calendar) {
        let (base, offsets) = entries.start_offsets();
        // The arena's base is a midnight, so `offset / 86_400` is a day.
        let base_day = base.second_number().div_euclid(86_400);
        let day_of = |at: usize| match offsets[at] {
            FAR_START => entries.get(at).start().second_number().div_euclid(86_400),
            offset => base_day + i64::from(offset / 86_400),
        };
        let mut last = i32::from(first_year) * 12;
        let (mut month, mut count, mut at) = (last, 0, 0);
        let mut slot = offsets.first().map_or(0, |_| calendar.search(day_of(0)));
        while at < offsets.len() {
            slot = calendar.step(slot, day_of(at));
            // A far start is never below the limit: it opens a run.
            let next = calendar.starts[slot + 1].saturating_sub(base_day).saturating_mul(86_400);
            let limit = next.clamp(0, i64::from(FAR_START)) as u32;
            let run = 1 + offsets[at + 1..].iter().take_while(|&&offset| offset < limit).count();
            let run_month = calendar.first + slot as i32;
            if run_month != month {
                self.push_run(&mut last, month, count);
                (month, count) = (run_month, 0);
            }
            count += run as u32;
            at += run;
        }
        self.push_run(&mut last, month, count);
        self.run_ends.push(self.runs.len() as u32);
    }

    /// Append `count` entries in `month`, `month - last` months after the
    /// previous run (none if `count` is 0), split to fit [`Run`].
    fn push_run(&mut self, last: &mut i32, month: i32, mut count: u32) {
        if count == 0 {
            return;
        }
        let mut step = month - *last;
        *last = month;
        if step <= 255 && count <= 255 {
            self.runs.push((step as Run) << 8 | count as Run);
            return;
        }
        while step > 255 {
            self.runs.push(255 << 8);
            step -= 255;
        }
        while count > 0 {
            let part = count.min(255);
            self.runs.push((step as Run) << 8 | part as Run);
            (step, count) = (0, count - part);
        }
    }
}

/// The digest column of one collection, indexed by history position.
/// Build it once ([`Self::build`]), carry it across ingests
/// ([`Self::with_rows`]), fold cohorts over it ([`Self::profile`]).
pub struct PatientColumns {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    /// The collection's dictionary: the code lists' ids resolve here.
    pub(crate) dict: Arc<CodeDictionary>,
    /// `dims[id]`: the dimension record of `CodeId(id)`, one a code of
    /// `dict`.
    dims: Arc<Vec<CodeDims>>,
    /// Month indices from the collection's first start to its last end:
    /// every run's month lies inside.
    pub(crate) months: Range<i32>,
}

/// The month indices `[first, last]` of a collection's summary span.
fn months_of(collection: &HistoryCollection) -> Range<i32> {
    let stats = collection.stats();
    let month = |t: Option<DateTime>| t.map(|t| month_index(t.date()));
    match (month(stats.first), month(stats.last)) {
        (Some(first), Some(last)) => first..last + 1,
        _ => 0..0,
    }
}

/// The first day of every month of a collection's span and of the month
/// after it, as day numbers: where the run builder looks a start's month
/// up, instead of converting each start to a date.
struct Calendar {
    /// Month index of `starts[0]`.
    first: i32,
    starts: Vec<i64>,
}

impl Calendar {
    fn of(months: &Range<i32>) -> Calendar {
        let first_day = |month: i32| {
            let (year, month) = (month.div_euclid(12), month.rem_euclid(12) as u32 + 1);
            // After December 9999 no date begins: no start reaches it.
            Date::new(year, month, 1).map_or(i64::MAX, Date::day_number)
        };
        let starts = (months.start..=months.end).map(first_day).collect();
        Calendar { first: months.start, starts }
    }

    /// The slot of the month holding `day`.
    fn search(&self, day: i64) -> usize {
        self.starts[1..].partition_point(|&start| start <= day)
    }

    /// The slot of the month holding `day`, stepping forward from slot
    /// `from` at or before it: a row's runs walk its months once.
    fn step(&self, mut from: usize, day: i64) -> usize {
        while self.starts[from + 1] <= day {
            from += 1;
        }
        from
    }
}

impl PatientColumns {
    /// The column of `collection`, from a walk of every entry (parallel
    /// over chunks). `ontology` resolves condition membership — pass a
    /// saturated instance; construction is expensive.
    pub fn build(collection: &HistoryCollection, ontology: &IntegrationOntology) -> PatientColumns {
        let dict = Arc::clone(collection.dictionary());
        let dims: Vec<CodeDims> = dict.iter().map(|code| CodeDims::of(code, ontology)).collect();
        let months = months_of(collection);
        let calendar = Calendar::of(&months);
        // The row table's chunks are whole multiples of ours.
        let spans = collection.spans(0..collection.len());
        let pieces: Vec<RowSpan<'_>> = spans.flat_map(|span| span.pieces(CHUNK_ROWS)).collect();
        let chunks = pastas_par::par_map_min(&pieces, 1, |piece| {
            let mut chunk = Chunk::default();
            for history in piece.histories {
                chunk.push_history(history, &calendar, &dims);
            }
            chunk.shrink()
        });
        PatientColumns { chunks, len: collection.len(), dict, dims: Arc::new(dims), months }
    }

    /// The column of `collection` given this one describes it but for the
    /// rows at `dirty`, which changed or were appended (every appended
    /// row must be named). Rebuilds the chunks holding a dirty row and
    /// shares the rest; the dimension records are copied only if the
    /// dictionary grew. A collection not on an extension of this
    /// column's dictionary gets a fresh [`Self::build`].
    pub fn with_rows(
        &self,
        collection: &HistoryCollection,
        ontology: &IntegrationOntology,
        dirty: &[u32],
    ) -> PatientColumns {
        let dict = Arc::clone(collection.dictionary());
        if !self.dict.is_prefix_of(&dict) {
            return PatientColumns::build(collection, ontology);
        }
        let (mut dims, known) = (Arc::clone(&self.dims), self.dims.len());
        if known < dict.len() {
            let fresh = dict.iter().skip(known).map(|code| CodeDims::of(code, ontology));
            Arc::make_mut(&mut dims).extend(fresh);
        }
        let months = months_of(collection);
        let calendar = Calendar::of(&months);
        let mut chunks = self.chunks.clone();
        chunks.resize_with(collection.len().div_ceil(CHUNK_ROWS), Default::default);
        let mut dirty = dirty.to_vec();
        dirty.sort_unstable();
        for run in dirty.chunk_by(|a, b| *a as usize / CHUNK_ROWS == *b as usize / CHUNK_ROWS) {
            let at = run[0] as usize / CHUNK_ROWS;
            let lo = at * CHUNK_ROWS;
            let mut next = Chunk::default();
            let span = collection.spans(lo..lo + CHUNK_ROWS).flat_map(|span| span.histories);
            for (history, pos) in span.zip(lo..) {
                if run.binary_search(&(pos as u32)).is_err() {
                    let (row, codes) = chunks[at].row(pos - lo);
                    next.push_row(row, codes, chunks[at].runs(pos - lo));
                    continue;
                }
                next.push_history(history, &calendar, &dims);
            }
            chunks[at] = next.shrink();
        }
        PatientColumns { chunks, len: collection.len(), dict, dims, months }
    }

    /// The number of codes the column's dictionary holds.
    pub(crate) fn codes(&self) -> usize {
        self.dims.len()
    }

    /// The digest and distinct code ids of the patient at `pos`.
    pub(crate) fn row(&self, pos: u32) -> (&Digest, &[u32]) {
        self.chunks[pos as usize / CHUNK_ROWS].row(pos as usize % CHUNK_ROWS)
    }

    /// Add the month runs of the patients at `group` — positions of one
    /// chunk — into `acc`, whose slot 0 is month index `base`.
    pub(crate) fn add_runs(&self, group: &[u32], base: i32, acc: &mut [u64]) {
        let Some(&first) = group.first() else { return };
        let chunk = &self.chunks[first as usize / CHUNK_ROWS];
        for &pos in group {
            let at = pos as usize % CHUNK_ROWS;
            let mut slot = i32::from(chunk.rows[at].first_year) * 12 - base;
            for &run in chunk.runs(at) {
                slot += i32::from(run >> 8);
                acc[slot as usize] += u64::from(run & 0xff);
            }
        }
    }

    /// The month runs of the patient at `pos`.
    fn runs(&self, pos: u32) -> &[Run] {
        self.chunks[pos as usize / CHUNK_ROWS].runs(pos as usize % CHUNK_ROWS)
    }
}

/// Row-wise equality: the same dictionary, and per row the same digest,
/// the same code ids and the same month runs. What the
/// maintained-versus-rebuilt oracles compare.
impl PartialEq for PatientColumns {
    fn eq(&self, other: &PatientColumns) -> bool {
        self.len == other.len
            && self.months == other.months
            && *self.dict == *other.dict
            && (0..self.len as u32).all(|pos| {
                self.row(pos) == other.row(pos) && self.runs(pos) == other.runs(pos)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, OpenEpoch, Patient, PatientId, Payload};
    use pastas_synth::{generate_collection, SynthConfig};

    fn event(year: i32, code: Code) -> Entry {
        let at = Date::new(year, 6, 1).expect("valid").at_midnight();
        Entry::event(at, Payload::Diagnosis(code), SourceKind::PrimaryCare)
    }

    /// Seal `deltas` into `collection`; the touched rows' positions.
    fn ingest(collection: &mut HistoryCollection, deltas: Vec<(Patient, Vec<Entry>)>) -> Vec<u32> {
        let mut epoch = OpenEpoch::new();
        for (patient, entries) in deltas {
            epoch.append(patient, entries);
        }
        let touched = epoch.seal_into(collection);
        touched.iter().map(|&id| collection.position_of(id).expect("sealed") as u32).collect()
    }

    #[test]
    fn a_row_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Digest>(), 24);
    }

    #[test]
    fn with_rows_rebuilds_only_the_touched_chunks() {
        let ontology = IntegrationOntology::new();
        let config = SynthConfig { shard_patients: 400, ..SynthConfig::with_patients(1024) };
        let mut collection = generate_collection(config, 31);
        let before = PatientColumns::build(&collection, &ontology);
        assert_eq!((before.len, before.chunks.len()), (1024, 4));
        let extended = *collection.histories()[300].patient();
        let newcomer = Patient { id: PatientId(9_000_001), ..extended };
        let dirty = ingest(
            &mut collection,
            vec![
                (extended, vec![event(2012, Code::icpc("T90"))]),
                (newcomer, vec![event(2011, Code::icpc("K74"))]),
            ],
        );
        assert_eq!(dirty, vec![300, 1024]);
        let after = before.with_rows(&collection, &ontology, &dirty);
        assert!(after == PatientColumns::build(&collection, &ontology));
        assert!(after != before);
        let shared: Vec<bool> =
            before.chunks.iter().zip(&after.chunks).map(|(a, b)| Arc::ptr_eq(a, b)).collect();
        assert_eq!(shared, [true, false, true, true], "chunk 1 holds row 300");
        assert_eq!(after.chunks.len(), 5, "row 1024 opens a chunk");
        assert!(Arc::ptr_eq(&before.dims, &after.dims), "no new code, no dimension copy");
        assert_eq!(after.row(1024).0.entries, 1);
    }

    #[test]
    fn a_new_code_joins_a_copy_of_the_vocabulary() {
        let ontology = IntegrationOntology::new();
        let mut collection = generate_collection(SynthConfig::with_patients(50), 3);
        let before = PatientColumns::build(&collection, &ontology);
        let known = before.codes();
        let patient = *collection.histories()[7].patient();
        let dirty = ingest(&mut collection, vec![(patient, vec![event(2012, Code::icd10("Z99"))])]);
        let after = before.with_rows(&collection, &ontology, &dirty);
        assert_eq!((before.codes(), after.codes()), (known, known + 1));
        assert_eq!(after.dict.resolve(pastas_model::CodeId(known as u32)), &Code::icd10("Z99"));
        assert!(after.row(7).1.contains(&(known as u32)), "the row lists the new code");
        assert!(after == PatientColumns::build(&collection, &ontology));
    }

    #[test]
    fn dominant_breaks_ties_low_and_knows_none() {
        assert_eq!(dominant(&[0, 3, 3, 1]), 1);
        assert_eq!(dominant(&[0, 0]), 2);
    }
}
