//! The per-patient digest column: what a cohort profile needs to know
//! about a patient, computed once per collection instead of once per read.
//!
//! Eight of the profile's dimensions are attributes of the *patient* and
//! the other two (conditions, top codes) are per-patient-distinct sets.
//! [`PatientColumns`] holds one 24-byte [`Digest`] per collection
//! position plus the patient's distinct global code ids, so a profile is
//! a fold over `|cohort|` rows and never walks an entry. Rows live in
//! chunks of [`CHUNK_ROWS`] behind `Arc`s: the column after an ingest
//! ([`PatientColumns::with_rows`]) shares every chunk the ingest did not
//! touch, so a publish copies O(touched rows).

use crate::dimensions::*;
use crate::tables::{CodeDims, Tables, Vocab, NO_BUCKET};
use pastas_model::{CodeId, History, HistoryCollection, Sex, SourceKind};
use pastas_ontology::integration::IntegrationOntology;
use pastas_time::Date;
use std::sync::Arc;

/// Rows per copy-on-write chunk (6 KiB of digests plus the code lists).
const CHUNK_ROWS: usize = 256;

/// [`Digest::first_year`] of a patient without entries.
pub(crate) const NO_YEAR: i16 = i16::MIN;

/// One patient's reference-date-independent profile inputs. Bucket
/// fields hold the bucket index the dimension's `*_bucket` function
/// assigns, `none` buckets included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest {
    pub birth: Date,
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

/// Up to [`CHUNK_ROWS`] digests and their distinct-code lists, CSR style.
#[derive(Default)]
struct Chunk {
    rows: Vec<Digest>,
    /// Sorted distinct global code ids, one run per row.
    codes: Vec<u32>,
}

impl Chunk {
    fn row(&self, at: usize) -> (&Digest, &[u32]) {
        let lo = at.checked_sub(1).map_or(0, |before| self.rows[before].codes_end);
        let row = &self.rows[at];
        (row, &self.codes[lo as usize..row.codes_end as usize])
    }

    /// Append a row copied from another chunk.
    fn push_row(&mut self, row: &Digest, codes: &[u32]) {
        self.codes.extend_from_slice(codes);
        self.rows.push(Digest { codes_end: self.codes.len() as u32, ..*row });
    }

    /// Append the digest of `history`: one fused pass over its source
    /// and code columns. `dims_of` translates the history's
    /// interner-local code ids.
    fn push_history(&mut self, history: &History, mut dims_of: impl FnMut(CodeId) -> CodeDims) {
        let mut per_source = [0u32; SourceKind::ALL.len()];
        let mut per_chapter = [0u32; ICD_BANDS - 1];
        let mut per_atc = [0u32; ATC_BANDS - 1];
        let mut cond_mask = 0u32;
        let codes_lo = self.codes.len();
        for (source, code) in history.entries().scan() {
            per_source[source.dense_index()] += 1;
            if let Some(id) = code {
                let dims = dims_of(id);
                if dims.chapter != NO_BUCKET {
                    per_chapter[dims.chapter as usize] += 1;
                }
                if dims.atc != NO_BUCKET {
                    per_atc[dims.atc as usize] += 1;
                }
                cond_mask |= dims.cond_mask;
                self.codes.push(dims.global);
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
        let first = history.first_time();
        let span_days = history.span().map(|span| span.as_days_f64());
        self.rows.push(Digest {
            birth: history.patient().birth_date,
            entries: history.len() as u32,
            cond_mask,
            codes_end: kept as u32,
            first_year: first.map_or(NO_YEAR, |t| t.date().year() as i16),
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
}

/// The digest column of one collection, indexed by history position.
/// Build it once ([`Self::build`]), carry it across ingests
/// ([`Self::with_rows`]), fold cohorts over it ([`Self::profile`]).
pub struct PatientColumns {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    pub(crate) vocab: Arc<Vocab>,
}

impl PatientColumns {
    /// The column of `collection`, from a walk of every entry (parallel
    /// over chunks). `ontology` resolves condition membership — pass a
    /// saturated instance; construction is expensive.
    pub fn build(collection: &HistoryCollection, ontology: &IntegrationOntology) -> PatientColumns {
        let histories = collection.histories();
        let mut vocab = Vocab::default();
        let tables = Tables::build(histories, &mut vocab, ontology);
        let spans: Vec<&[Arc<History>]> = histories.chunks(CHUNK_ROWS).collect();
        let chunks = pastas_par::par_map_min(&spans, 1, |span| {
            let mut chunk = Chunk::default();
            let mut hint = 0;
            for history in *span {
                let dims = tables.of(history, &mut hint);
                chunk.push_history(history, |id| dims[id.0 as usize]);
            }
            chunk.codes.shrink_to_fit();
            Arc::new(chunk)
        });
        PatientColumns { chunks, len: histories.len(), vocab: Arc::new(vocab) }
    }

    /// The column of `collection` given this one describes it but for the
    /// rows at `dirty`, which changed or were appended (every appended
    /// row must be named). Rebuilds the chunks holding a dirty row and
    /// shares the rest; the vocabulary is copied only if a code is new.
    pub fn with_rows(
        &self,
        collection: &HistoryCollection,
        ontology: &IntegrationOntology,
        dirty: &[u32],
    ) -> PatientColumns {
        let histories = collection.histories();
        let mut vocab = Arc::clone(&self.vocab);
        let mut chunks = self.chunks.clone();
        chunks.resize_with(histories.len().div_ceil(CHUNK_ROWS), Default::default);
        let mut dirty = dirty.to_vec();
        dirty.sort_unstable();
        for run in dirty.chunk_by(|a, b| *a as usize / CHUNK_ROWS == *b as usize / CHUNK_ROWS) {
            let at = run[0] as usize / CHUNK_ROWS;
            let lo = at * CHUNK_ROWS;
            let mut next = Chunk::default();
            let span = &histories[lo..histories.len().min(lo + CHUNK_ROWS)];
            for (history, pos) in span.iter().zip(lo..) {
                if run.binary_search(&(pos as u32)).is_err() {
                    let (row, codes) = chunks[at].row(pos - lo);
                    next.push_row(row, codes);
                    continue;
                }
                let interner = history.store().interner();
                next.push_history(history, |id| {
                    let code = interner.resolve(id);
                    let known = vocab.get(code);
                    known.unwrap_or_else(|| Arc::make_mut(&mut vocab).insert(code, ontology))
                });
            }
            next.codes.shrink_to_fit();
            chunks[at] = Arc::new(next);
        }
        PatientColumns { chunks, len: histories.len(), vocab }
    }

    /// The digest and distinct global code ids of the patient at `pos`.
    pub(crate) fn row(&self, pos: u32) -> (&Digest, &[u32]) {
        self.chunks[pos as usize / CHUNK_ROWS].row(pos as usize % CHUNK_ROWS)
    }
}

/// Row-wise equality up to vocabulary numbering (two columns may have met
/// the codes in different orders): same digests, same code *labels* per
/// row. What the maintained-versus-rebuilt oracles compare.
impl PartialEq for PatientColumns {
    fn eq(&self, other: &PatientColumns) -> bool {
        fn labels<'a>(columns: &'a PatientColumns, codes: &[u32]) -> Vec<&'a str> {
            let mut labels: Vec<&str> =
                codes.iter().map(|&id| columns.vocab.labels[id as usize].as_str()).collect();
            labels.sort_unstable();
            labels
        }
        self.len == other.len
            && (0..self.len as u32).all(|pos| {
                let ((a, a_codes), (b, b_codes)) = (self.row(pos), other.row(pos));
                a == b && labels(self, a_codes) == labels(other, b_codes)
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
        assert!(Arc::ptr_eq(&before.vocab, &after.vocab), "no new code, no vocabulary copy");
        assert_eq!(after.row(1024).0.entries, 1);
    }

    #[test]
    fn a_new_code_joins_a_copy_of_the_vocabulary() {
        let ontology = IntegrationOntology::new();
        let mut collection = generate_collection(SynthConfig::with_patients(50), 3);
        let before = PatientColumns::build(&collection, &ontology);
        let known = before.vocab.labels.len();
        let patient = *collection.histories()[7].patient();
        let dirty = ingest(&mut collection, vec![(patient, vec![event(2012, Code::icd10("Z99"))])]);
        let after = before.with_rows(&collection, &ontology, &dirty);
        assert_eq!((before.vocab.labels.len(), after.vocab.labels.len()), (known, known + 1));
        assert!(after.row(7).1.contains(&(known as u32)), "the row lists the new code");
        assert!(after == PatientColumns::build(&collection, &ontology));
    }

    #[test]
    fn dominant_breaks_ties_low_and_knows_none() {
        assert_eq!(dominant(&[0, 3, 3, 1]), 1);
        assert_eq!(dominant(&[0, 0]), 2);
    }
}
