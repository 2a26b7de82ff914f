//! The inverted code index, sharded and compressed.
//!
//! "It can be challenging to use for large data sets" is the paper's own
//! conclusion; this index is our answer. It maps every code of the
//! collection's [`CodeDictionary`] to the set of history positions
//! containing it, so a regex cohort selection matches the regex against
//! the *distinct codes* (hundreds of strings) instead of every entry of
//! millions of histories, then unions candidate sets.
//!
//! * The slot is the [`pastas_model::CodeId`]: every arena shares the
//!   one dictionary, so posting an entry is one integer index, with no
//!   per-entry string and no per-arena translation. The dictionary's
//!   `(value, system)`-sorted view serves the probes: the planner resolves
//!   a code leaf to slots once a query through the one prefix resolver
//!   (`EntryPredicate::code_ids`), which turns `K.*` into a
//!   `partition_point` and a walk over the `K…` run, and `T90` into one
//!   binary search.
//! * Postings are **compressed bitmaps** ([`crate::bitmap::Bitmap`]), so
//!   the planner's set algebra runs on containers and a negated clause
//!   costs runs, not millions of integers. They are **sharded by
//!   position range**: shard `k` covers `[k·65536, (k+1)·65536)`, a
//!   shard-local posting is one container, and the planner fans out per
//!   shard on [`pastas_par`] and assembles global bitmaps by container
//!   concatenation ([`crate::bitmap::Bitmap::append_shard`]).
//! * The build is chunked on [`pastas_par`] and deterministic (per-chunk
//!   postings merge in chunk order); its uncompressed state is one shard.
//! * Streaming ingest patches the one index ([`CodeIndex::with_delta`]):
//!   postings sit behind `Arc`, a publish copies only the (shard, slot)
//!   postings its dirty rows join or leave, and the result equals a fresh
//!   [`CodeIndex::build`].
//!
//! The index holds codes only: the planner answers `age(..)` / `sex(..)`
//! leaves from the collection's own demographic columns
//! ([`pastas_model::RowSpan::births`] and `sexes`, read chunk by chunk).

use crate::bitmap::Bitmap;
use crate::predicate::EntryPredicate;
use crate::query::HistoryQuery;
use pastas_model::{CodeDictionary, HistoryCollection, RowSpan};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// Rows a piece of an index build or a scan holds at most: the unit its
/// threads share out. Predicate evaluation is cheap per history, so small
/// cohorts stay on the serial path.
const PAR_MIN_HISTORIES: usize = 256;

/// History positions per index shard. Matches the bitmap container width
/// so shard-relative positions are exactly the low 16 bits: every
/// shard-local posting is one container, and assembling a global bitmap
/// is a key-offset concatenation.
pub const SHARD_ROWS: u32 = 1 << 16;

/// One patient-range shard of the index: compressed postings over the
/// shard-relative positions `0..rows`.
#[derive(Debug, PartialEq)]
pub(crate) struct IndexShard {
    /// First global history position of this shard (a multiple of
    /// [`SHARD_ROWS`]).
    pub(crate) base: u32,
    /// Histories covered (= [`SHARD_ROWS`] except for the final shard).
    pub(crate) rows: u32,
    /// `postings[id]`: shard-relative positions containing the code
    /// `CodeId(id)`, one per code of the index's dictionary; shard-locally
    /// empty slots hold the empty bitmap (cheap — no containers). Behind `Arc`,
    /// so a successor index ([`CodeIndex::with_delta`]) shares every
    /// posting it does not patch.
    pub(crate) postings: Vec<Arc<Bitmap>>,
}

impl IndexShard {
    /// Union the postings of `slots` within this shard (shard-relative).
    pub(crate) fn union_slots(&self, slots: &[u32]) -> Bitmap {
        let postings = slots.iter().filter_map(|&slot| self.postings.get(slot as usize));
        postings.fold(Bitmap::new(), |acc, posting| acc.union(posting))
    }
}

/// Memory accounting for the compressed postings, reported by E5 and the
/// serve layer's `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexFootprint {
    /// Number of patient-range shards.
    pub shards: usize,
    /// Total postings (code, position) pairs across every shard.
    pub postings: usize,
    /// Heap bytes of every compressed posting bitmap.
    pub postings_compressed_bytes: usize,
    /// Bytes the same postings would cost as `Vec<u32>` (4 B/position).
    pub postings_uncompressed_bytes_est: usize,
}

/// Inverted index: code → compressed history-position set, one slot per
/// [`pastas_model::CodeId`] of the collection's [`CodeDictionary`].
///
/// A regex selects by value (the paper's `T90`, `F.*|H.*`): it matches
/// every system's code of a value, and the union of their postings is
/// the predicate semantics of `EntryPredicate::CodeMatches`.
#[derive(Debug, Default)]
pub struct CodeIndex {
    /// The collection's dictionary when this index was derived: slot
    /// `id` posts `CodeId(id)`, and code leaves resolve against it.
    pub(crate) dict: Arc<CodeDictionary>,
    /// `counts[id]`: total positions holding the code across all shards
    /// — O(1) planner cardinality estimates. 0 for a code no row holds.
    counts: Vec<u32>,
    /// Patient-range shards in ascending `base` order, tiling `0..rows`.
    /// Behind `Arc` so a successor index ([`Self::with_delta`]) shares
    /// every shard no dirty row falls in instead of cloning postings.
    shards: Vec<Arc<IndexShard>>,
    /// Total history count (the complement universe).
    rows: u32,
    /// Shard width this index was built with ([`SHARD_ROWS`] in
    /// production; smaller in multi-shard tests). [`Self::with_delta`]
    /// tiles appended rows with the same width. `0` only in `Default`
    /// (treated as [`SHARD_ROWS`]).
    shard_rows: u32,
}

impl CodeIndex {
    /// Build the index over a collection.
    ///
    /// Each [`SHARD_ROWS`]-wide position block posts every row's distinct
    /// code ids (the row table's [`RowSpan::codes`]) shard-relatively —
    /// the id is the slot, so posting is one integer index — chunked
    /// across threads; per-chunk postings merge in position order so the result
    /// is identical at every thread count, and the uncompressed
    /// intermediate never exceeds one shard.
    pub fn build(collection: &HistoryCollection) -> CodeIndex {
        Self::build_with_shard_rows(collection, SHARD_ROWS)
    }

    /// [`Self::build`] with a custom shard width (≤ [`SHARD_ROWS`]).
    /// Test-only: exercising the multi-shard fan-out without generating
    /// 65k+ patients. Production always uses the aligned full width.
    pub(crate) fn build_with_shard_rows(
        collection: &HistoryCollection,
        shard_rows: u32,
    ) -> CodeIndex {
        assert!(shard_rows > 0 && shard_rows <= SHARD_ROWS, "bad shard width");
        let dict = Arc::clone(collection.dictionary());
        let codes = dict.len();
        // Post shard-relative positions, one fixed-width block at a
        // time. Within a shard, pieces of the row table parallelize and
        // merge back in position order; across shards the loop is
        // sequential, so peak uncompressed state is one shard's lists.
        let rows = collection.len() as u32;
        let shard_count = collection.len().div_ceil(shard_rows as usize);
        let mut shards = Vec::with_capacity(shard_count);
        let mut counts = vec![0u32; codes];
        for s in 0..shard_count {
            let base = s * shard_rows as usize;
            let pieces = row_pieces(collection, base..base + shard_rows as usize);
            #[expect(
                clippy::indexing_slicing,
                reason = "every row's dictionary is a prefix of dict"
            )]
            let chunks = pastas_par::par_chunks(&pieces, 1, |_, pieces| {
                let mut lists: Vec<Vec<u16>> = vec![Vec::new(); codes];
                for piece in pieces {
                    for (i, p) in (piece.start..piece.start + piece.len()).enumerate() {
                        for id in piece.codes.get(i) {
                            lists[id.0 as usize].push((p - base) as u16);
                        }
                    }
                }
                lists
            });
            // Each position lives in exactly one chunk and chunks come
            // back in ascending position order, so appending per-slot
            // lists chunk by chunk keeps every list ascending and unique.
            let mut merged: Vec<Vec<u16>> = vec![Vec::new(); codes];
            for lists in chunks {
                for (into, list) in merged.iter_mut().zip(lists) {
                    into.extend(list);
                }
            }
            let postings = merged
                .into_iter()
                .zip(&mut counts)
                .map(|(list, count)| {
                    *count += list.len() as u32;
                    Arc::new(list.into_iter().map(u32::from).collect())
                })
                .collect();
            let span = pieces.iter().map(RowSpan::len).sum::<usize>();
            let (base, rows) = (base as u32, span as u32);
            shards.push(Arc::new(IndexShard { base, rows, postings }));
        }
        CodeIndex { dict, counts, shards, rows, shard_rows }
    }

    /// The index of `collection` after the rows `newly_dirty` changed,
    /// patched from this one. Rows past [`Self::rows`] were appended and
    /// are dirty whether or not the caller lists them.
    ///
    /// Each dirty row's old codes are read off this index's postings
    /// (one `contains` a slot), its new ones off its row's code list,
    /// and only the (shard, slot) postings a row joins or leaves are
    /// copied and patched, `old ∩ ¬left ∪ joined`. Every other posting,
    /// and every shard no dirty row falls in, is shared (`Arc`). A code
    /// new to the dictionary grows every shard by the shared empty
    /// posting, and appended rows fill the last shard and then open new
    /// ones of the same width: the result is structurally equal to
    /// [`Self::build`] of `collection`. The streaming path
    /// (`Workbench::apply_ingest`) calls this after every sealed delta
    /// batch.
    #[expect(
        clippy::indexing_slicing,
        reason = "slots are a row's ids or old posting slots, all below the dictionary's length"
    )]
    pub fn with_delta(&self, collection: &HistoryCollection, newly_dirty: &[u32]) -> CodeIndex {
        let width = self.shard_width();
        let dict = Arc::clone(collection.dictionary());
        if !self.dict.is_prefix_of(&dict) {
            // Not a successor of the collection this index describes.
            return Self::build_with_shard_rows(collection, width);
        }
        let rows = collection.len() as u32;
        debug_assert!(newly_dirty.iter().all(|&p| p < rows), "dirty position beyond rows");
        let mut dirty: Vec<u32> = newly_dirty.iter().copied().filter(|&p| p < self.rows).collect();
        dirty.extend(self.rows..rows);
        dirty.sort_unstable();
        dirty.dedup();
        let mut counts = self.counts.clone();
        counts.resize(dict.len(), 0);
        // (shard, slot) → the shard-relative rows that join and leave its
        // posting, ascending since dirty rows are.
        let mut patches: BTreeMap<(usize, usize), (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for &p in &dirty {
            let (shard, rel) = ((p / width) as usize, p % width);
            let Some(row) = collection.spans(p as usize..p as usize + 1).next() else { continue };
            let now: Vec<usize> = row.codes.get(0).iter().map(|id| id.0 as usize).collect();
            let was: Vec<usize> = match self.shards.get(shard) {
                Some(old) if p < self.rows => {
                    let held = old.postings.iter().enumerate().filter(|(_, bm)| bm.contains(rel));
                    held.map(|(slot, _)| slot).collect()
                }
                _ => Vec::new(),
            };
            for &slot in now.iter().filter(|s| was.binary_search(s).is_err()) {
                patches.entry((shard, slot)).or_default().0.push(rel);
                counts[slot] += 1;
            }
            for &slot in was.iter().filter(|s| now.binary_search(s).is_err()) {
                patches.entry((shard, slot)).or_default().1.push(rel);
                counts[slot] -= 1;
            }
        }
        let empty = Arc::new(Bitmap::new());
        let mut shards = Vec::with_capacity(rows.div_ceil(width) as usize);
        for (s, base) in (0..rows).step_by(width as usize).enumerate() {
            let span = width.min(rows - base);
            let mut touched = patches.range((s, 0)..(s + 1, 0)).peekable();
            let old = self.shards.get(s);
            if let Some(old) = old.filter(|o| o.rows == span && o.postings.len() == dict.len()) {
                if touched.peek().is_none() {
                    shards.push(Arc::clone(old));
                    continue;
                }
            }
            let mut postings = old.map_or_else(Vec::new, |o| o.postings.clone());
            postings.resize(dict.len(), Arc::clone(&empty));
            for (&(_, slot), (joined, left)) in touched {
                let mut patched = postings[slot].union(&Bitmap::from_sorted(joined));
                if !left.is_empty() {
                    patched = patched.intersect(&Bitmap::from_sorted(left).complement_up_to(span));
                }
                postings[slot] = Arc::new(patched);
            }
            shards.push(Arc::new(IndexShard { base, rows: span, postings }));
        }
        CodeIndex { dict, counts, shards, rows, shard_rows: width }
    }

    /// An index sharing every shard with this one. [`Self::with_delta`]
    /// leaves nothing to fold; kept for `benchmark/src/replay.rs`.
    pub fn compact(&self) -> CodeIndex {
        CodeIndex {
            dict: Arc::clone(&self.dict),
            counts: self.counts.clone(),
            shards: self.shards.clone(),
            rows: self.rows,
            shard_rows: self.shard_rows,
        }
    }

    /// Heap bytes of the postings this index holds and `predecessor` does
    /// not share: what [`Self::with_delta`] copied to derive it.
    pub fn posting_bytes_copied_from(&self, predecessor: &CodeIndex) -> usize {
        let shared: HashSet<*const Bitmap> =
            predecessor.shards.iter().flat_map(|s| &s.postings).map(Arc::as_ptr).collect();
        let postings = self.shards.iter().flat_map(|s| &s.postings);
        postings.filter(|bm| !shared.contains(&Arc::as_ptr(bm))).map(|bm| bm.heap_bytes()).sum()
    }

    /// Number of distinct codes indexed: the dictionary's.
    pub fn vocabulary_size(&self) -> usize {
        self.dict.len()
    }

    /// Total history positions indexed (the complement universe).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The patient-range shards (plan execution fans out over these).
    pub(crate) fn shards(&self) -> &[Arc<IndexShard>] {
        &self.shards
    }

    /// Dictionary, counts and shards: what equals a fresh build's.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&CodeDictionary, &[u32], &[Arc<IndexShard>]) {
        (&self.dict, &self.counts, &self.shards)
    }

    /// The width shards are tiled with.
    pub(crate) fn shard_width(&self) -> u32 {
        if self.shard_rows == 0 {
            SHARD_ROWS
        } else {
            self.shard_rows
        }
    }

    /// Compressed-postings memory accounting for E5 and `/metrics`.
    pub fn footprint(&self) -> IndexFootprint {
        let mut compressed = 0usize;
        let mut uncompressed = 0usize;
        for shard in &self.shards {
            for bm in &shard.postings {
                compressed += bm.heap_bytes();
                uncompressed += bm.uncompressed_bytes_est();
            }
        }
        IndexFootprint {
            shards: self.shards.len(),
            postings: self.counts.iter().map(|&c| c as usize).sum(),
            postings_compressed_bytes: compressed,
            postings_uncompressed_bytes_est: uncompressed,
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the dictionary validates, shards tile `0..rows`
    /// exactly in blocks of the index's width (the last one possibly
    /// narrower) with one postings list per code, every posting bitmap
    /// honours its own container invariants ([`Bitmap::debug_validate`])
    /// inside the shard's row range, the per-code counts match the shard
    /// totals, and `collection` (the one this index describes, or a
    /// successor that grew) holds every row the index covers, on an
    /// extension of the index's dictionary.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self, collection: &HistoryCollection) {
        assert!(
            self.rows as usize <= collection.len(),
            "index: {} rows, but the collection holds {}",
            self.rows,
            collection.len()
        );
        assert!(
            self.dict.is_prefix_of(collection.dictionary()),
            "index: the collection's dictionary does not extend the index's"
        );
        self.dict.debug_validate();
        assert_eq!(self.counts.len(), self.dict.len(), "index: dictionary and counts differ");
        let mut next_base = 0u32;
        let mut totals = vec![0u64; self.dict.len()];
        for shard in &self.shards {
            assert_eq!(shard.base, next_base, "index: shards must tile 0..rows");
            assert!(shard.rows > 0 && shard.rows <= self.shard_width(), "index: bad shard width");
            assert!(
                shard.rows == self.shard_width() || shard.base + shard.rows == self.rows,
                "index: a narrow shard before the last"
            );
            next_base += shard.rows;
            assert_eq!(shard.postings.len(), self.dict.len(), "index: postings and dictionary differ");
            for ((slot, bm), total) in shard.postings.iter().enumerate().zip(&mut totals) {
                bm.debug_validate();
                *total += bm.len() as u64;
                let last = bm.iter().last();
                assert!(last.is_none_or(|l| l < shard.rows), "index: slot {slot} posts past the shard");
            }
        }
        assert_eq!(next_base, self.rows, "index: shards must cover every row");
        let counts: Vec<u64> = self.counts.iter().map(|&n| u64::from(n)).collect();
        assert_eq!(counts, totals, "index: cached counts != shard totals");
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self, _collection: &HistoryCollection) {}

    /// Union the postings of `slots` into one global bitmap: shard-local
    /// unions on compressed form, then container concatenation — one
    /// result set, no per-term vectors, no post-hoc sort/dedup.
    fn union_slots(&self, slots: &[u32]) -> Bitmap {
        let mut out = Bitmap::new();
        for shard in &self.shards {
            out.append_shard(shard.base, &shard.union_slots(slots));
        }
        out
    }

    /// History positions holding a code the code leaf (`CodeMatches`,
    /// `CodeWithin`, `System`) holds for, as one compressed bitmap.
    pub fn candidates(&self, leaf: &EntryPredicate) -> Bitmap {
        self.union_slots(&leaf.code_ids(&self.dict))
    }

    /// Upper-bound candidate estimate for a set of slots: their summed
    /// cached cardinalities (a history holding two of them counts twice —
    /// this is a planning estimate, not a result). Touches no posting.
    pub(crate) fn estimated_candidates(&self, slots: &[u32]) -> usize {
        slots.iter().filter_map(|&slot| self.counts.get(slot as usize)).map(|&n| n as usize).sum()
    }

    /// Evaluate a query over the collection through the physical planner
    /// ([`crate::plan::QueryPlan`]): code-regex clauses — positive *and*
    /// negative — become posting-bitmap set algebra, fanned out per
    /// shard, age and sex clauses sets read off the shard's patient
    /// column; residual clauses verify only the candidate set; only
    /// queries with no index-servable clause at all scan every history.
    /// Returns matching history positions in display order, identical to
    /// [`select_scan`].
    pub fn select(&self, collection: &HistoryCollection, query: &HistoryQuery) -> Vec<u32> {
        crate::plan::QueryPlan::build(self, collection, query).execute(collection, self)
    }
}


/// The naive path: evaluate the query against every history (pieces of
/// the row table across threads, order-preserving).
pub fn select_scan(collection: &HistoryCollection, query: &HistoryQuery) -> Vec<u32> {
    let pieces = row_pieces(collection, 0..collection.len());
    let kept = pastas_par::par_chunks(&pieces, 1, |_, pieces| {
        let rows = pieces.iter().flat_map(|piece| piece.histories.iter().zip(piece.start as u32..));
        rows.filter(|(h, _)| query.matches(h)).map(|(_, p)| p).collect::<Vec<u32>>()
    });
    kept.concat()
}

/// Rows `rows` of `collection` in pieces of at most
/// [`PAR_MIN_HISTORIES`], chunk by chunk: the work units a parallel scan
/// deals out to its threads.
fn row_pieces(collection: &HistoryCollection, rows: Range<usize>) -> Vec<RowSpan<'_>> {
    collection.spans(rows).flat_map(|span| span.pieces(PAR_MIN_HISTORIES)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::EntryPredicate;
    use crate::query::QueryBuilder;
    use pastas_synth::{generate_collection, SynthConfig};

    fn collection() -> HistoryCollection {
        generate_collection(SynthConfig::with_patients(400), 71)
    }

    #[test]
    fn index_and_scan_agree_on_simple_selection() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        idx.debug_validate(&c);
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        assert_eq!(idx.select(&c, &q), select_scan(&c, &q));
    }

    #[test]
    fn index_and_scan_agree_on_compound_queries() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let q = QueryBuilder::new()
            .has_code("T90|K74")
            .unwrap()
            .count_at_least(EntryPredicate::IsDiagnosis, 3)
            .build();
        assert_eq!(idx.select(&c, &q), select_scan(&c, &q));
    }

    #[test]
    fn negative_queries_are_served_by_posting_complement() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let q = QueryBuilder::new().lacks_code("T90").unwrap().build();
        let plan = crate::plan::QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "negation no longer scans:\n{}", plan.render());
        let got = idx.select(&c, &q);
        assert_eq!(got, select_scan(&c, &q));
        assert!(!got.is_empty(), "most patients lack diabetes");
    }

    fn code(pattern: &str) -> EntryPredicate {
        EntryPredicate::code_regex(pattern).unwrap()
    }

    /// The estimate bounds both the fetch and the selection, on an index
    /// a delta gave a brand-new patient with a code nobody else holds.
    #[test]
    fn estimated_candidates_bounds_the_fetch() {
        let mut c = collection();
        let existing = *c.histories()[3].patient();
        let built = CodeIndex::build(&c);
        let idx = apply_delta(
            &mut c,
            &built,
            vec![(existing, vec![diag(2016, "T90")]), (new_patient(1), vec![diag(2015, "Z99")])],
        );
        for pattern in ["T90", "K.*", "T90|K.*", ".*", "Z99"] {
            let est = idx.estimated_candidates(&code(pattern).code_ids(&idx.dict));
            let got = idx.candidates(&code(pattern)).len();
            assert!(est >= got, "estimate {est} < fetched {got} for {pattern}");
            let selected = idx.select(&c, &HistoryQuery::any(code(pattern))).len();
            assert!(est >= selected, "estimate {est} < selected {selected} for {pattern}");
        }
        assert_eq!(idx.estimated_candidates(&code("Z99").code_ids(&idx.dict)), 1, "the new patient counts");
        assert_eq!(idx.estimated_candidates(&[u32::MAX]), 0, "a slot past the dictionary holds nothing");
    }

    #[test]
    fn exact_literal_is_an_equality_probe() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let t90 = code("T90");
        assert!(matches!(&t90, EntryPredicate::CodeMatches(re) if re.prefix_info().exact));
        let hits = idx.candidates(&t90);
        assert!(!hits.is_empty());
        // And a literal that indexes nothing returns nothing.
        assert!(idx.candidates(&code("Z99")).is_empty());
    }

    #[test]
    fn vocabulary_is_much_smaller_than_entries() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        assert!(idx.vocabulary_size() > 5);
        assert!(idx.vocabulary_size() < 200, "vocab {}", idx.vocabulary_size());
        assert!(idx.vocabulary_size() < c.stats().entries / 10);
    }

    /// Regression for the old `candidates_for_regex`: it concatenated one
    /// `Vec<u32>` per matching vocabulary term and sort/dedup'd the pile.
    /// A broad regex must now come back as one unioned bitmap whose
    /// decode is already sorted and unique — and must equal the per-term
    /// union done the slow way.
    #[test]
    fn broad_regex_returns_one_unioned_bitmap() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let broad = code("[KRT].*");
        let slots = broad.code_ids(&idx.dict);
        assert!(slots.len() > 3, "broad regex must match many terms, got {}", slots.len());
        let got = idx.candidates(&broad);
        got.debug_validate(); // one canonical set, not a concatenation
        let decoded = got.to_vec();
        for w in decoded.windows(2) {
            assert!(w[0] < w[1], "decode must be sorted and unique");
        }
        // Per-term reference union.
        let mut expect: Vec<u32> = Vec::new();
        for &slot in &slots {
            let one = idx.union_slots(&[slot]);
            expect.extend(one.to_vec());
        }
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn chapter_regex_selects_superset_of_leaf() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let leaf = idx.candidates(&code("K86"));
        let chapter = idx.candidates(&code("K.*"));
        for x in leaf.iter() {
            assert!(chapter.contains(x));
        }
        assert!(chapter.len() >= leaf.len());
    }

    #[test]
    fn empty_collection_is_fine() {
        let c = HistoryCollection::new();
        let idx = CodeIndex::build(&c);
        idx.debug_validate(&c);
        assert_eq!(idx.vocabulary_size(), 0);
        assert_eq!(idx.rows(), 0);
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        assert!(idx.select(&c, &q).is_empty());
    }

    #[test]
    fn footprint_accounts_for_postings() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let fp = idx.footprint();
        assert_eq!(fp.shards, 1, "400 patients fit one shard");
        assert!(fp.postings_compressed_bytes > 0);
        let total: usize = (0..idx.vocabulary_size())
            .map(|slot| idx.counts[slot] as usize)
            .sum();
        assert_eq!(fp.postings_uncompressed_bytes_est, total * 4);
    }

    /// Large enough to make several `PAR_MIN_HISTORIES` pieces — the
    /// parallel-equivalence tests must actually take the parallel path.
    fn large_collection() -> HistoryCollection {
        generate_collection(SynthConfig::with_patients(1500), 71)
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let c = large_collection();
        let serial = pastas_par::with_threads(1, || CodeIndex::build(&c));
        for threads in [2, 8] {
            let par = pastas_par::with_threads(threads, || CodeIndex::build(&c));
            assert_eq!(par.dict, serial.dict, "threads {threads}");
            assert_eq!(par.counts, serial.counts, "threads {threads}");
            assert_eq!(par.shards, serial.shards, "threads {threads}");
        }
    }

    #[test]
    fn parallel_select_matches_serial_select() {
        let c = large_collection();
        let idx = CodeIndex::build(&c);
        let queries = [
            QueryBuilder::new().has_code("T90").unwrap().build(),
            QueryBuilder::new().has_code("K.*").unwrap().build(),
            QueryBuilder::new().lacks_code("T90").unwrap().build(),
        ];
        for q in &queries {
            let serial = pastas_par::with_threads(1, || idx.select(&c, q));
            for threads in [2, 8] {
                let par = pastas_par::with_threads(threads, || idx.select(&c, q));
                assert_eq!(par, serial, "threads {threads}, query {q:?}");
            }
        }
    }

    // -- streaming: with_delta --------------------------------------------

    use pastas_codes::{Code, CodeSystem};
    use pastas_model::{CodeId, Entry, History, OpenEpoch, Patient, PatientId, Payload, Sex};
    use pastas_model::SourceKind;
    use pastas_time::Date;

    fn new_patient(id: u64) -> Patient {
        Patient {
            id: PatientId(1_000_000 + id),
            birth_date: Date::new(1950, 6, 15).unwrap(),
            sex: Sex::Female,
        }
    }

    fn diag(y: i32, code: &str) -> Entry {
        Entry::event(
            Date::new(y, 3, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc(code)),
            SourceKind::PrimaryCare,
        )
    }

    /// Seal `deltas` into the collection and return the successor index.
    fn apply_delta(
        c: &mut HistoryCollection,
        idx: &CodeIndex,
        deltas: Vec<(Patient, Vec<Entry>)>,
    ) -> CodeIndex {
        let mut epoch = OpenEpoch::new();
        for (p, es) in deltas {
            epoch.append(p, es);
        }
        let touched = epoch.seal_into(c);
        let dirty: Vec<u32> =
            touched.iter().map(|&id| c.position_of(id).unwrap() as u32).collect();
        idx.with_delta(c, &dirty)
    }

    /// The maintained index is structurally the one a fresh build gives.
    fn assert_fresh(idx: &CodeIndex, c: &HistoryCollection) {
        idx.debug_validate(c);
        let fresh = CodeIndex::build_with_shard_rows(c, idx.shard_width());
        assert_eq!(idx.parts(), fresh.parts());
        assert_eq!(idx.rows, fresh.rows, "rows");
    }

    fn streaming_queries() -> Vec<HistoryQuery> {
        vec![
            QueryBuilder::new().has_code("T90").unwrap().build(),
            QueryBuilder::new().has_code("Z9[89]").unwrap().build(),
            QueryBuilder::new().lacks_code("T90").unwrap().build(),
            QueryBuilder::new().has_code("[KT].*").unwrap().lacks_code("Z98").unwrap().build(),
            HistoryQuery::CountAtMost(EntryPredicate::code_regex("T90").unwrap(), 1),
            HistoryQuery::Or(vec![
                QueryBuilder::new().has_code("Z99").unwrap().build(),
                HistoryQuery::SexIs(Sex::Female),
            ]),
            HistoryQuery::All,
        ]
    }

    #[test]
    fn with_delta_serves_mutations_and_appends_like_a_fresh_scan() {
        let mut c = collection();
        let idx = CodeIndex::build(&c);
        // Mutate two existing patients (one with a brand-new code value,
        // one with a known one) and append two new patients.
        let existing_a = *c.histories()[3].patient();
        let existing_b = *c.histories()[7].patient();
        let idx2 = apply_delta(
            &mut c,
            &idx,
            vec![
                (existing_a, vec![diag(2016, "Z98")]),
                (existing_b, vec![diag(2016, "T90")]),
                (new_patient(1), vec![diag(2015, "Z99"), diag(2016, "T90")]),
                (new_patient(2), Vec::new()),
            ],
        );
        assert_eq!(idx2.rows(), c.len() as u32);
        assert_fresh(&idx2, &c);
        for q in streaming_queries() {
            assert_eq!(idx2.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
        // The stale predecessor still validates and answers its own rows.
        idx.debug_validate(&c);
    }

    /// A delta into one shard copies only the postings its row joins: the
    /// other shards, and the touched shard's other postings, are the
    /// predecessor's. A row re-registered with the same entries copies
    /// nothing, and the `compact` shim shares every shard.
    #[test]
    fn with_delta_copies_only_the_touched_postings() {
        let mut c = large_collection();
        let idx = CodeIndex::build_with_shard_rows(&c, 256);
        assert!(idx.shards.len() > 3, "want several shards, got {}", idx.shards.len());
        // An ICPC code the dictionary holds and row 300 (shard 1) does not.
        let held: Vec<CodeId> = c.histories()[300].entries().iter().filter_map(|e| e.code_id()).collect();
        let icpc = |s: usize| idx.dict.resolve(CodeId(s as u32)).system == CodeSystem::Icpc2;
        let slot = (0..idx.dict.len()).find(|&s| icpc(s) && !held.contains(&CodeId(s as u32))).unwrap();
        let value = idx.dict.resolve(CodeId(slot as u32)).value.clone();
        let existing = *c.histories()[300].patient();
        let idx2 = apply_delta(&mut c, &idx, vec![(existing, vec![diag(2016, &value)])]);
        assert_fresh(&idx2, &c);
        for s in [0, 2, 3] {
            assert!(Arc::ptr_eq(&idx2.shards[s], &idx.shards[s]), "shard {s} untouched");
        }
        let (old, new) = (&idx.shards[1].postings, &idx2.shards[1].postings);
        for s in 0..idx.dict.len() {
            assert_eq!(Arc::ptr_eq(&old[s], &new[s]), s != slot, "slot {s}");
        }
        assert_eq!(idx2.posting_bytes_copied_from(&idx), new[slot].heap_bytes());
        assert_eq!(idx2.counts[slot], idx.counts[slot] + 1);
        // Row 600 re-registered with other demographics, same entries.
        let was = c.histories()[600].clone();
        let mut reborn = History::new(Patient {
            birth_date: Date::new(1901, 2, 28).unwrap(),
            sex: if was.patient().sex == Sex::Female { Sex::Male } else { Sex::Female },
            ..*was.patient()
        });
        reborn.insert_all(was.entries().iter().map(|e| e.to_entry()));
        c.upsert(reborn);
        let idx3 = idx2.with_delta(&c, &[600]);
        assert_fresh(&idx3, &c);
        assert!(idx3.shards.iter().zip(&idx2.shards).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(idx3.posting_bytes_copied_from(&idx2), 0);
        let shim = idx3.compact();
        assert!(shim.shards.iter().zip(&idx3.shards).all(|(a, b)| Arc::ptr_eq(a, b)));
        for q in streaming_queries() {
            assert_eq!(idx3.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
    }

    /// A row inside a shard re-registered with another birth date and
    /// sex: the plan reads the collection's demographic columns, so it
    /// agrees with the scan although no posting changed.
    #[test]
    fn a_re_registered_row_answers_demographic_leaves_from_the_collection() {
        let mut c = large_collection();
        let idx = CodeIndex::build_with_shard_rows(&c, 256);
        let at = Date::new(2015, 1, 1).unwrap();
        let aged = HistoryQuery::AgeBetween { at, min: 110, max: 120 };
        let was = c.histories()[300].clone();
        let sex = if was.patient().sex == Sex::Female { Sex::Male } else { Sex::Female };
        let queries = [
            aged.clone(),
            HistoryQuery::SexIs(sex),
            HistoryQuery::Not(Box::new(aged)),
            HistoryQuery::AgeBetween { at, min: 0, max: 150 },
        ];
        assert!(!idx.select(&c, &queries[0]).contains(&300), "not 110..120 years old yet");
        assert!(!idx.select(&c, &queries[1]).contains(&300));
        let mut reborn = History::new(Patient {
            birth_date: Date::new(1901, 2, 28).unwrap(),
            sex,
            ..*was.patient()
        });
        reborn.insert_all(was.entries().iter().map(|e| e.to_entry()));
        c.upsert(reborn);
        let idx2 = idx.with_delta(&c, &[300]);
        assert_fresh(&idx2, &c);
        for q in &queries {
            assert_eq!(idx2.select(&c, q), select_scan(&c, q), "{q:?}");
        }
        assert!(idx2.select(&c, &queries[0]).contains(&300));
        assert!(idx2.select(&c, &queries[1]).contains(&300));
    }

    #[test]
    fn delta_onto_an_empty_collection_opens_shards() {
        let mut c = HistoryCollection::new();
        let idx = CodeIndex::build(&c);
        let idx2 = apply_delta(
            &mut c,
            &idx,
            vec![
                (new_patient(1), vec![diag(2015, "T90")]),
                (new_patient(2), vec![diag(2016, "K74")]),
            ],
        );
        assert_eq!(idx2.shards.len(), 1);
        assert_fresh(&idx2, &c);
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        assert_eq!(idx2.select(&c, &q), select_scan(&c, &q));
    }
}
