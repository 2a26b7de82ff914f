//! The inverted code index, sharded and compressed.
//!
//! "It can be challenging to use for large data sets" is the paper's own
//! conclusion; this index is our answer. It maps every distinct code value
//! to the set of history positions containing it, so a regex cohort
//! selection first matches the regex against the *distinct code
//! vocabulary* (hundreds of strings) instead of every entry of millions of
//! histories, then unions candidate sets.
//!
//! Scale refinements on top of the vocabulary scan:
//!
//! * postings are **compressed bitmaps** ([`crate::bitmap::Bitmap`]), not
//!   `Vec<u32>`: the planner's set algebra (intersect/union/complement)
//!   runs on roaring-style containers without materializing positions,
//!   and a negated clause costs runs, not millions of integers;
//! * postings are **sharded by history-position range**: shard `k` covers
//!   positions `[k·65536, (k+1)·65536)`, so shard-relative positions fit
//!   the low 16 bits and every shard-local posting is a single dense
//!   container. The planner evaluates per shard (fanning out on
//!   [`pastas_par`]) and global bitmaps assemble by container
//!   concatenation ([`crate::bitmap::Bitmap::append_shard`]) — no decode,
//!   no re-sort;
//! * the build rides the model layer's [`pastas_model::CodeInterner`]:
//!   the vocabulary is assembled from the distinct codes each backing
//!   [`EventStore`] already interned (a per-store `CodeId` → vocabulary
//!   slot translation table), so posting an entry is two integer lookups
//!   via [`pastas_model::EntryRef::code_id`] — **no per-entry string
//!   clone or hash**. With a patient-range-sharded arena
//!   ([`pastas_model::ShardedStore`]) each store's interner merges into
//!   the same global symbol table, so per-shard interners stay small and
//!   the query layer never sees the split;
//! * the sorted vocabulary is probed by binary search; the regex engine's
//!   guaranteed literal prefix ([`pastas_regex::PrefixInfo`]) turns `K.*`
//!   into a `partition_point` plus a linear walk over the `K…` run, and
//!   `T90` into a single equality probe, with no per-query allocation;
//! * build and candidate verification run on the [`pastas_par`] parallel
//!   layer (chunked, deterministic: per-chunk postings merge in chunk
//!   order, so `PASTAS_THREADS=1` reproduces the serial result bit for
//!   bit); the intermediate build state is per-shard, bounding peak RSS
//!   at 10M patients;
//! * compiled regexes are memoized per index, so re-running a selection
//!   (the workbench's dominant interaction) skips recompilation.
//!
//! The index holds codes only: the planner answers `age(..)` / `sex(..)`
//! leaves from the collection's own demographic columns
//! ([`pastas_model::RowColumns::births`] and `sexes`), which
//! `upsert_shared` keeps current.
//!
//! The E5/E8 benches compare all paths (scan, vocabulary, prefix,
//! serial vs. parallel) and report compressed-vs-`Vec<u32>` posting bytes.

use crate::bitmap::Bitmap;
use crate::query::HistoryQuery;
use pastas_model::{EventStore, HistoryCollection};
use pastas_regex::Regex;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-thread minimum number of histories before index building or
/// candidate verification goes parallel. Predicate evaluation is cheap per
/// history, so small cohorts stay on the serial path.
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
    /// `postings[slot]`: shard-relative positions containing
    /// `vocab[slot]`. Same length as the vocabulary; shard-locally empty
    /// slots hold the empty bitmap (cheap — no containers).
    pub(crate) postings: Vec<Bitmap>,
}

impl IndexShard {
    /// Union the postings of `slots` within this shard (shard-relative).
    pub(crate) fn union_slots(&self, slots: &[u32]) -> Bitmap {
        let mut acc = Bitmap::new();
        for &slot in slots {
            // lint:allow(no-panic-hot-path) slots come from vocabulary walks
            acc = acc.union(&self.postings[slot as usize]);
        }
        acc
    }
}

/// The LSM-style *side-index* over open-epoch rows: sorted-vec postings
/// for the **dirty** history positions — those modified or appended
/// since the main shards were built. Rebuilt per delta batch by
/// [`CodeIndex::with_delta`] (cheap: proportional to the dirty
/// histories, not the collection) and folded into the main roaring
/// shards by [`CodeIndex::compact`].
///
/// Each dirty patient's postings here are their *complete current*
/// code set, so the planner can answer any query shape over the dirty
/// universe from the side postings alone and union that with the main
/// shards' answer restricted to clean rows — plan-vs-scan equivalence
/// holds mid-compaction (see `exec_side` in `plan.rs`).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SideIndex {
    /// Dirty history positions, strictly ascending. Every position at or
    /// beyond the main shards' coverage is dirty (appended patients).
    pub(crate) dirty: Vec<u32>,
    /// Distinct code values of the dirty histories, sorted.
    pub(crate) vocab: Vec<Box<str>>,
    /// `postings[slot]`: dirty positions (global, strictly ascending)
    /// whose history contains `vocab[slot]`.
    pub(crate) postings: Vec<Vec<u32>>,
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

/// Inverted index: distinct code value → compressed history-position set.
///
/// Values are merged across code systems (the paper's regexes — `T90`,
/// `F.*|H.*` — select by value; a value that exists in two systems simply
/// unions both sets, which matches the predicate semantics of
/// `EntryPredicate::CodeMatches`).
#[derive(Debug, Default)]
pub struct CodeIndex {
    /// Distinct code values present in the collection, sorted. Probed by
    /// binary search; a literal prefix selects a contiguous run.
    vocab: Vec<Box<str>>,
    /// `counts[slot]`: total positions holding `vocab[slot]` across all
    /// shards — O(1) planner cardinality estimates.
    counts: Vec<u32>,
    /// Patient-range shards in ascending `base` order, tiling the main
    /// (compacted) row range. Behind `Arc` so an incremental index
    /// ([`Self::with_delta`] / [`Self::compact`]) shares untouched
    /// shards with its predecessor instead of cloning postings.
    shards: Vec<Arc<IndexShard>>,
    /// Total history count (the complement universe), *including* rows
    /// covered only by the side-index (appended patients).
    rows: u32,
    /// Shard width this index was built with ([`SHARD_ROWS`] in
    /// production; smaller in multi-shard tests). Compaction tiles new
    /// rows with the same width. `0` only in `Default` (treated as
    /// [`SHARD_ROWS`]).
    shard_rows: u32,
    /// Postings for dirty rows, merged into `shards` by [`Self::compact`].
    side: SideIndex,
    /// Compiled patterns memoized across selections on this index.
    compiled: Mutex<HashMap<String, Regex>>,
}

impl CodeIndex {
    /// Build the index over a collection.
    ///
    /// Two phases. First the distinct backing stores (one shared arena,
    /// or one per patient-range shard) contribute their interned symbol
    /// tables to a merged sorted vocabulary, with one `CodeId` →
    /// vocabulary-slot translation table per store. Then each
    /// [`SHARD_ROWS`]-wide position block posts
    /// `translate(entry.code_id())` shard-relatively — integer lookups
    /// only, chunked across threads; per-chunk postings merge in position
    /// order so the result is identical at every thread count, and the
    /// uncompressed intermediate never exceeds one shard.
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
        let histories = collection.histories();

        // Phase 1: distinct stores and the store slot of each history.
        let mut stores: Vec<&Arc<EventStore>> = Vec::new();
        let mut slot_by_ptr: HashMap<*const EventStore, u32> = HashMap::new();
        let mut store_of: Vec<u32> = Vec::with_capacity(histories.len());
        for h in histories {
            let ptr = Arc::as_ptr(h.store());
            let slot = *slot_by_ptr.entry(ptr).or_insert_with(|| {
                stores.push(h.store());
                (stores.len() - 1) as u32
            });
            store_of.push(slot);
        }

        // Merged vocabulary over every store's interner — the global
        // symbol table uniting per-shard interners (values also merge
        // across code systems, matching `EntryPredicate::CodeMatches`).
        let mut values: Vec<&str> = stores
            .iter()
            .flat_map(|s| s.interner().iter().map(|c| c.value.as_str()))
            .collect();
        values.sort_unstable();
        values.dedup();
        // Per store: CodeId (append index) → merged vocabulary slot.
        let tables: Vec<Vec<u32>> = stores
            .iter()
            .map(|s| {
                s.interner()
                    .iter()
                    .map(|c| {
                        values
                            .binary_search(&c.value.as_str())
                            // lint:allow(no-panic-hot-path) phase 1 merged every value
                            .expect("interned value is in the merged vocabulary")
                            as u32
                    })
                    .collect()
            })
            .collect();

        // Phase 2: post shard-relative positions, one fixed-width block
        // at a time. Within a shard, chunks parallelize and merge back in
        // position order; across shards the loop is sequential, so peak
        // uncompressed state is one shard's lists.
        let rows = histories.len() as u32;
        let shard_count = histories.len().div_ceil(shard_rows as usize);
        let mut shards = Vec::with_capacity(shard_count);
        let mut counts = vec![0u32; values.len()];
        for s in 0..shard_count {
            let base = s * shard_rows as usize;
            // lint:allow(no-panic-hot-path) base < len for every s < shard_count
            let span = &histories[base..(base + shard_rows as usize).min(histories.len())];
            let chunks = pastas_par::par_chunks(span, PAR_MIN_HISTORIES, |start, chunk| {
                let mut lists: Vec<Vec<u16>> = vec![Vec::new(); values.len()];
                for (offset, h) in chunk.iter().enumerate() {
                    let rel = (start + offset) as u16;
                    // lint:allow(no-panic-hot-path) store_of has one entry per history
                    let table = &tables[store_of[base + start + offset] as usize];
                    for e in h.entries() {
                        if let Some(id) = e.code_id() {
                            // lint:allow(no-panic-hot-path) table maps every CodeId of its store
                            let list = &mut lists[table[id.0 as usize] as usize];
                            if list.last() != Some(&rel) {
                                list.push(rel);
                            }
                        }
                    }
                }
                lists
            });
            // Each position lives in exactly one chunk and chunks come
            // back in ascending position order, so appending per-slot
            // lists chunk by chunk keeps every list ascending and unique.
            let mut merged: Vec<Vec<u16>> = vec![Vec::new(); values.len()];
            for lists in chunks {
                for (slot, list) in lists.into_iter().enumerate() {
                    // lint:allow(no-panic-hot-path) every chunk allocates values.len() slots
                    merged[slot].extend(list);
                }
            }
            let postings: Vec<Bitmap> = merged
                .into_iter()
                .enumerate()
                .map(|(slot, list)| {
                    // lint:allow(no-panic-hot-path) counts has values.len() slots
                    counts[slot] += list.len() as u32;
                    list.into_iter().map(u32::from).collect()
                })
                .collect();
            shards.push(IndexShard { base: base as u32, rows: span.len() as u32, postings });
        }

        // A shared arena's interner may carry codes belonging to patients
        // outside this (sub-)collection; keep only values actually seen.
        let keep: Vec<usize> =
            // lint:allow(no-panic-hot-path) slots range over values.len()
            (0..values.len()).filter(|&slot| counts[slot] > 0).collect();
        // lint:allow(no-panic-hot-path) keep holds indexes below values.len()
        let vocab: Vec<Box<str>> = keep.iter().map(|&slot| Box::from(values[slot])).collect();
        // lint:allow(no-panic-hot-path) keep holds indexes below values.len()
        let counts: Vec<u32> = keep.iter().map(|&slot| counts[slot]).collect();
        for shard in &mut shards {
            let mut postings = Vec::with_capacity(keep.len());
            for &slot in &keep {
                // lint:allow(no-panic-hot-path) every shard has values.len() postings
                postings.push(std::mem::take(&mut shard.postings[slot]));
            }
            shard.postings = postings;
        }
        CodeIndex {
            vocab,
            counts,
            shards: shards.into_iter().map(Arc::new).collect(),
            rows,
            shard_rows,
            side: SideIndex::default(),
            compiled: Mutex::new(HashMap::new()),
        }
    }

    /// A successor index marking `newly_dirty` history positions (and any
    /// previously dirty ones) as served by the side-index: the main
    /// shards are shared untouched (`Arc` clones — no posting copied),
    /// the side vocabulary and postings carry over, and only the
    /// histories of this batch are walked and posted (afresh, if they
    /// were dirty already) — O(batch · entries-per-history) string work
    /// plus a copy of the side postings, whatever the debt already is.
    /// The streaming path (`Workbench::apply_ingest`) calls this after
    /// every sealed delta batch; [`Self::compact`] folds the accumulated
    /// side postings back into the shards.
    pub fn with_delta(&self, collection: &HistoryCollection, newly_dirty: &[u32]) -> CodeIndex {
        let rows = collection.len() as u32;
        let mut extra: Vec<u32> = newly_dirty.to_vec();
        extra.sort_unstable();
        extra.dedup();
        let dirty = crate::plan::reference::union2(&self.side.dirty, &extra);
        debug_assert!(dirty.last().is_none_or(|&p| p < rows), "dirty position beyond rows");
        // Side vocabulary + postings: the complete current code set of
        // every dirty history (not just the delta), so side evaluation
        // answers any plan shape over the dirty universe exactly.
        let mut vocab = self.side.vocab.clone();
        let mut postings = self.side.postings.clone();
        if extra.iter().any(|p| self.side.dirty.binary_search(p).is_ok()) {
            for list in &mut postings {
                list.retain(|p| extra.binary_search(p).is_err());
            }
        }
        let histories = collection.histories();
        for &p in &extra {
            // lint:allow(no-panic-hot-path) dirty positions index the collection
            for e in histories[p as usize].entries() {
                let Some(c) = e.code() else { continue };
                let value = c.value.as_str();
                let slot = match vocab.binary_search_by(|v| (**v).cmp(value)) {
                    Ok(slot) => slot,
                    Err(slot) => {
                        vocab.insert(slot, Box::from(value));
                        postings.insert(slot, Vec::new());
                        slot
                    }
                };
                // lint:allow(no-panic-hot-path) slot < postings.len(): found or just inserted
                let list = &mut postings[slot];
                if let Err(at) = list.binary_search(&p) {
                    list.insert(at, p);
                }
            }
        }
        // A history posted afresh may have left a value behind.
        let (vocab, postings) =
            vocab.into_iter().zip(postings).filter(|(_, list)| !list.is_empty()).unzip();
        CodeIndex {
            vocab: self.vocab.clone(),
            counts: self.counts.clone(),
            shards: self.shards.clone(),
            rows,
            shard_rows: self.shard_rows,
            side: SideIndex { dirty, vocab, postings },
            compiled: Mutex::new(HashMap::new()),
        }
    }

    /// Fold the side postings into the main shards, LSM-style: side
    /// postings union into the covering shards' compressed bitmaps
    /// (`append`-idempotent — entries are never removed, so main
    /// postings are always a subset of the truth for dirty rows), rows
    /// beyond the old shard coverage extend the tiling with fresh
    /// shards of the same width, and the result has an empty side-index.
    /// Shards no side posting falls in are shared (`Arc`) unless the
    /// vocabulary grew (new code values force a slot re-layout of every
    /// shard). The
    /// swap-in is the caller's job (e.g. the serve layer's compaction
    /// thread publishing a fresh snapshot).
    pub fn compact(&self) -> CodeIndex {
        let shard_rows = if self.shard_rows == 0 { SHARD_ROWS } else { self.shard_rows };
        if self.side.dirty.is_empty() {
            return CodeIndex {
                vocab: self.vocab.clone(),
                counts: self.counts.clone(),
                shards: self.shards.clone(),
                rows: self.rows,
                shard_rows: self.shard_rows,
                side: SideIndex::default(),
                compiled: Mutex::new(HashMap::new()),
            };
        }
        // Merged vocabulary. Common case: dirty histories reuse existing
        // code values and the vocabulary (hence every slot number) is
        // unchanged, so untouched shards stay shared.
        let grew = self.side.vocab.iter().any(|v| self.vocab.binary_search(v).is_err());
        let vocab: Vec<Box<str>> = if grew {
            let mut merged = self.vocab.clone();
            merged.extend(
                self.side
                    .vocab
                    .iter()
                    .filter(|v| self.vocab.binary_search(v).is_err())
                    .cloned(),
            );
            merged.sort();
            merged
        } else {
            self.vocab.clone()
        };
        let remap_old: Option<Vec<usize>> = if grew {
            Some(
                self.vocab
                    .iter()
                    // lint:allow(no-panic-hot-path) merged vocabulary keeps every old value
                    .map(|v| vocab.binary_search(v).expect("old value survives the merge"))
                    .collect(),
            )
        } else {
            None
        };
        // Distribute side postings into per-shard, slot-tagged relative
        // bitmaps, under the *new* tiling.
        let shard_count = (self.rows as usize).div_ceil(shard_rows as usize);
        let mut extra: Vec<Vec<(usize, Bitmap)>> = vec![Vec::new(); shard_count];
        for (side_slot, list) in self.side.postings.iter().enumerate() {
            let slot = vocab
                // lint:allow(no-panic-hot-path) side_slot enumerates the side vocabulary
                .binary_search(&self.side.vocab[side_slot])
                // lint:allow(no-panic-hot-path) merged vocabulary holds every side value
                .expect("side value survives the merge");
            let mut i = 0;
            while i < list.len() {
                // lint:allow(no-panic-hot-path) i < list.len() by the loop guard
                let shard_idx = (list[i] / shard_rows) as usize;
                // lint:allow(no-silent-truncation) shard_idx < shard_count so base fits u32
                let base = shard_idx as u32 * shard_rows;
                // lint:allow(no-panic-hot-path) i < list.len() by the loop guard
                let j = i + list[i..].partition_point(|&p| p < base + shard_rows);
                // lint:allow(no-panic-hot-path) i <= j <= list.len() by partition_point
                let rel: Vec<u32> = list[i..j].iter().map(|&p| p - base).collect();
                // lint:allow(no-panic-hot-path) shard_idx derives from p < rows
                extra[shard_idx].push((slot, Bitmap::from_sorted(&rel)));
                i = j;
            }
        }
        let mut shards: Vec<Arc<IndexShard>> = Vec::with_capacity(shard_count);
        for (s, extra) in extra.into_iter().enumerate() {
            // lint:allow(no-silent-truncation) s < shard_count so base fits u32
            let base = s as u32 * shard_rows;
            let rows_s = shard_rows.min(self.rows - base);
            let existing = self.shards.get(s);
            // A shard no side posting falls in keeps its postings.
            if !grew && extra.is_empty() {
                if let Some(e) = existing {
                    if e.rows == rows_s {
                        shards.push(Arc::clone(e));
                        continue;
                    }
                }
            }
            let mut postings: Vec<Bitmap> = vec![Bitmap::new(); vocab.len()];
            if let Some(e) = existing {
                for (old_slot, bm) in e.postings.iter().enumerate() {
                    // lint:allow(no-panic-hot-path) old_slot enumerates the old vocabulary
                    let slot = remap_old.as_ref().map_or(old_slot, |m| m[old_slot]);
                    // lint:allow(no-panic-hot-path) slot < vocab.len() by the remap
                    postings[slot] = bm.clone();
                }
            }
            for (slot, bm) in extra {
                // lint:allow(no-panic-hot-path) slot < vocab.len() by the merge
                postings[slot] = postings[slot].union(&bm);
            }
            shards.push(Arc::new(IndexShard { base, rows: rows_s, postings }));
        }
        // Recompute the cardinality cache from the merged shards.
        let mut counts = vec![0u32; vocab.len()];
        for shard in &shards {
            for (slot, bm) in shard.postings.iter().enumerate() {
                // lint:allow(no-silent-truncation) postings count < rows which fits u32
                let posted = bm.len() as u32;
                // lint:allow(no-panic-hot-path) every shard has vocab.len() postings
                counts[slot] += posted;
            }
        }
        CodeIndex {
            vocab,
            counts,
            shards,
            rows: self.rows,
            shard_rows: self.shard_rows,
            side: SideIndex::default(),
            compiled: Mutex::new(HashMap::new()),
        }
    }

    /// Number of distinct codes indexed.
    pub fn vocabulary_size(&self) -> usize {
        self.vocab.len()
    }

    /// Total history positions indexed (the complement universe).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The patient-range shards (plan execution fans out over these).
    pub(crate) fn shards(&self) -> &[Arc<IndexShard>] {
        &self.shards
    }

    /// True if no rows are served by the side-index (fully compacted).
    pub fn side_is_empty(&self) -> bool {
        self.side.dirty.is_empty()
    }

    /// Dirty history positions (ascending) served by the side-index.
    pub(crate) fn side_dirty(&self) -> &[u32] {
        &self.side.dirty
    }

    /// Side postings of one side-vocabulary slot (global positions).
    pub(crate) fn side_postings(&self, slot: u32) -> &[u32] {
        // lint:allow(no-panic-hot-path) callers pass slots from side_slots_for_patterns
        &self.side.postings[slot as usize]
    }

    /// Number of dirty rows in the side-index (`/metrics`: side size).
    pub fn side_rows(&self) -> usize {
        self.side.dirty.len()
    }

    /// Total side postings awaiting compaction (`/metrics`: debt).
    pub fn side_postings_total(&self) -> usize {
        self.side.postings.iter().map(Vec::len).sum()
    }

    /// Side-vocabulary slots matched by any of `patterns` (sorted,
    /// unique). Patterns that fail to compile match nothing, mirroring
    /// [`Self::slots_for_patterns`]'s executor fallback.
    pub(crate) fn side_slots_for_patterns(&self, patterns: &[String]) -> Vec<u32> {
        if self.side.vocab.is_empty() {
            return Vec::new();
        }
        let mut slots = Vec::new();
        for p in patterns {
            let Some(re) = self.compiled(p) else { continue };
            slots.extend(matching_slots_in(&self.side.vocab, &re));
        }
        slots.sort_unstable();
        slots.dedup();
        slots
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
    /// Panics unless the vocabulary is strictly sorted (sorted *and*
    /// deduplicated — what binary search and the prefix walk assume),
    /// shards partition `0..rows` in fixed-width blocks with one postings
    /// list per vocabulary slot, every posting bitmap honours its own
    /// container invariants ([`Bitmap::debug_validate`]) inside the
    /// shard's row range, the per-slot counts match the shard totals, and
    /// `collection` (the one this index describes, or a successor that
    /// grew) holds every row the index covers.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self, collection: &HistoryCollection) {
        assert!(
            self.rows as usize <= collection.len(),
            "index: {} rows, but the collection holds {}",
            self.rows,
            collection.len()
        );
        assert_eq!(
            self.counts.len(),
            self.vocab.len(),
            "index: vocabulary and counts differ in length"
        );
        for (a, b) in self.vocab.iter().zip(self.vocab.iter().skip(1)) {
            assert!(a < b, "index: vocabulary out of order or duplicated at {a:?} / {b:?}");
        }
        let mut next_base = 0u32;
        let mut totals = vec![0u64; self.vocab.len()];
        for shard in &self.shards {
            assert_eq!(shard.base, next_base, "index: shards must tile 0..rows");
            assert!(shard.rows > 0 && shard.rows <= SHARD_ROWS, "index: bad shard width");
            next_base += shard.rows;
            assert_eq!(
                shard.postings.len(),
                self.vocab.len(),
                "index: shard postings and vocabulary differ in length"
            );
            for (slot, bm) in shard.postings.iter().enumerate() {
                bm.debug_validate();
                // lint:allow(no-panic-hot-path) totals sized to vocab above
                totals[slot] += bm.len() as u64;
                if let Some(last) = bm.iter().last() {
                    assert!(
                        last < shard.rows,
                        "index: posting beyond shard rows at slot {slot}"
                    );
                }
            }
        }
        assert!(next_base <= self.rows, "index: shards cover more rows than exist");
        for (slot, &total) in totals.iter().enumerate() {
            assert_eq!(
                // lint:allow(no-panic-hot-path) counts and totals share vocab length
                u64::from(self.counts[slot]),
                total,
                "index: cached count != shard totals at slot {slot}"
            );
        }
        // Side-index twin: rows beyond the shards exist only while dirty.
        for p in next_base..self.rows {
            assert!(
                self.side.dirty.binary_search(&p).is_ok(),
                "index: appended row {p} is covered by neither shards nor side-index"
            );
        }
        for w in self.side.dirty.windows(2) {
            // lint:allow(no-panic-hot-path) windows(2) yields exactly two elements
            assert!(w[0] < w[1], "index: side dirty set out of order at {w:?}");
        }
        if let Some(&last) = self.side.dirty.last() {
            assert!(last < self.rows, "index: dirty position {last} beyond rows {}", self.rows);
        }
        assert_eq!(
            self.side.postings.len(),
            self.side.vocab.len(),
            "index: side postings and side vocabulary differ in length"
        );
        for (a, b) in self.side.vocab.iter().zip(self.side.vocab.iter().skip(1)) {
            assert!(a < b, "index: side vocabulary out of order or duplicated at {a:?} / {b:?}");
        }
        for (slot, list) in self.side.postings.iter().enumerate() {
            assert!(!list.is_empty(), "index: side slot {slot} posts nothing");
            for w in list.windows(2) {
                // lint:allow(no-panic-hot-path) windows(2) yields exactly two elements
                assert!(w[0] < w[1], "index: side postings out of order at slot {slot}");
            }
            for &p in list {
                assert!(
                    self.side.dirty.binary_search(&p).is_ok(),
                    "index: side slot {slot} posts clean row {p}"
                );
            }
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self, _collection: &HistoryCollection) {}

    /// Vocabulary slots whose value fully matches the regex. Uses the
    /// pattern's literal prefix to restrict the range — an exact literal
    /// is one binary search, a prefix pattern walks only its contiguous
    /// run. Returned ascending (and therefore unique).
    pub(crate) fn matching_slots(&self, re: &Regex) -> Vec<u32> {
        matching_slots_in(&self.vocab, re)
    }

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

    /// History positions whose entries contain a code fully matching the
    /// regex, as one compressed bitmap (ascending by construction).
    pub fn candidates_for_regex(&self, re: &Regex) -> Bitmap {
        self.union_slots(&self.matching_slots(re))
    }

    /// Like [`Self::candidates_for_regex`] but forcing the full-vocabulary
    /// scan — the prefix-path ablation baseline.
    pub fn candidates_scan_vocabulary(&self, re: &Regex) -> Bitmap {
        let slots: Vec<u32> = (0..self.vocab.len() as u32)
            // lint:allow(no-panic-hot-path) slot ranges over the vocabulary
            .filter(|&slot| re.is_full_match(&self.vocab[slot as usize]))
            .collect();
        self.union_slots(&slots)
    }

    /// Compile `pattern`, memoizing successes on this index. Returns
    /// `None` for invalid patterns (callers fall back to the scan path).
    fn compiled(&self, pattern: &str) -> Option<Regex> {
        let mut cache = self.compiled.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(re) = cache.get(pattern) {
            return Some(re.clone());
        }
        let re = Regex::new(pattern).ok()?;
        cache.insert(pattern.to_owned(), re.clone());
        Some(re)
    }

    /// Vocabulary slots matched by any of `patterns` (sorted, unique), or
    /// `None` if a pattern fails to compile.
    pub(crate) fn slots_for_patterns(&self, patterns: &[String]) -> Option<Vec<u32>> {
        let mut slots = Vec::new();
        for p in patterns {
            let re = self.compiled(p)?;
            slots.extend(self.matching_slots(&re));
        }
        slots.sort_unstable();
        slots.dedup();
        Some(slots)
    }

    /// History positions for a set of regex patterns (union), as one
    /// compressed bitmap.
    pub fn candidates_for_patterns(&self, patterns: &[String]) -> Option<Bitmap> {
        Some(self.union_slots(&self.slots_for_patterns(patterns)?))
    }

    /// Upper-bound candidate estimate for a pattern set: the summed
    /// cached cardinalities over the vocabulary range each pattern
    /// selects (duplicates across patterns counted twice — this is a
    /// planning estimate, not a result). Costs a vocabulary walk but
    /// touches no posting list. Patterns that fail to compile estimate
    /// as 0 (they fetch nothing, too).
    pub fn estimated_candidates(&self, patterns: &[String]) -> usize {
        let mut total = 0usize;
        for p in patterns {
            let Some(re) = self.compiled(p) else { continue };
            for slot in self.matching_slots(&re) {
                // lint:allow(no-panic-hot-path) matching_slots yields vocab indexes
                total += self.counts[slot as usize] as usize;
            }
        }
        total
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

/// Slots of a sorted, deduplicated vocabulary whose value fully matches
/// the regex — the shared probe behind the main vocabulary and the
/// side-index's. An exact literal is one binary search; a prefix
/// pattern walks only its contiguous run. Returned ascending.
fn matching_slots_in(vocab: &[Box<str>], re: &Regex) -> Vec<u32> {
    let info = re.prefix_info();
    if info.exact {
        return vocab
            .binary_search_by(|v| v.as_ref().cmp(info.prefix.as_str()))
            .ok()
            // lint:allow(no-silent-truncation) vocabulary slots fit u32
            .map(|i| i as u32)
            .into_iter()
            .collect();
    }
    let mut out = Vec::new();
    if info.prefix.is_empty() {
        for (slot, value) in vocab.iter().enumerate() {
            if re.is_full_match(value) {
                out.push(slot as u32);
            }
        }
    } else {
        let prefix = info.prefix.as_str();
        let start = vocab.partition_point(|v| v.as_ref() < prefix);
        // lint:allow(no-panic-hot-path) partition_point returns start <= len
        for (slot, value) in vocab[start..].iter().enumerate() {
            if !value.starts_with(prefix) {
                break;
            }
            if re.is_full_match(value) {
                out.push((start + slot) as u32);
            }
        }
    }
    out
}

/// The naive path: evaluate the query against every history (chunked
/// across threads, order-preserving).
pub fn select_scan(collection: &HistoryCollection, query: &HistoryQuery) -> Vec<u32> {
    pastas_par::par_filter_indices_min(collection.histories(), PAR_MIN_HISTORIES, |h| {
        query.matches(h)
    })
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

    #[test]
    fn estimated_candidates_bounds_the_fetch() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        for patterns in [
            vec!["T90".to_owned()],
            vec!["K.*".to_owned()],
            vec!["T90".to_owned(), "K.*".to_owned()],
            vec![".*".to_owned()],
            vec!["Z99".to_owned()],
        ] {
            let est = idx.estimated_candidates(&patterns);
            let got = idx.candidates_for_patterns(&patterns).unwrap();
            assert!(est >= got.len(), "estimate {est} < fetched {} for {patterns:?}", got.len());
        }
    }

    #[test]
    fn prefix_path_agrees_with_vocabulary_scan() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        for pattern in ["T90", "K.*", "E1[014].*", "C07AB..", "T90|T89", "F.*|H.*", ".*", "[KR].*"] {
            let re = Regex::new(pattern).unwrap();
            assert_eq!(
                idx.candidates_for_regex(&re),
                idx.candidates_scan_vocabulary(&re),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn exact_literal_is_an_equality_probe() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let re = Regex::new("T90").unwrap();
        assert!(re.prefix_info().exact);
        let hits = idx.candidates_for_regex(&re);
        assert!(!hits.is_empty());
        // And a literal that indexes nothing returns nothing.
        let re = Regex::new("Z99").unwrap();
        assert!(idx.candidates_for_regex(&re).is_empty());
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
        let re = Regex::new("[KRT].*").unwrap();
        let slots = idx.matching_slots(&re);
        assert!(slots.len() > 3, "broad regex must match many terms, got {}", slots.len());
        let got = idx.candidates_for_regex(&re);
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
        let leaf = idx.candidates_for_regex(&Regex::new("K86").unwrap());
        let chapter = idx.candidates_for_regex(&Regex::new("K.*").unwrap());
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

    /// Large enough that `PAR_MIN_HISTORIES` admits several chunks — the
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
            assert_eq!(par.vocab, serial.vocab, "threads {threads}");
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

    #[test]
    fn pattern_cache_memoizes_compilation() {
        let c = collection();
        let idx = CodeIndex::build(&c);
        let patterns = vec!["T90".to_owned(), "K.*".to_owned()];
        let first = idx.candidates_for_patterns(&patterns).unwrap();
        let second = idx.candidates_for_patterns(&patterns).unwrap();
        assert_eq!(first, second);
        let cache = idx.compiled.lock().unwrap();
        assert_eq!(cache.len(), 2, "both patterns cached after first call");
    }

    // -- streaming: with_delta / compact ----------------------------------

    use pastas_codes::Code;
    use pastas_model::{Entry, History, OpenEpoch, Patient, PatientId, Payload, Sex, SourceKind};
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
        idx2.debug_validate(&c);
        assert_eq!(idx2.rows(), c.len() as u32);
        assert_eq!(idx2.side_rows(), 4);
        assert!(idx2.side_postings_total() > 0);
        assert!(!idx2.side_is_empty());
        for q in streaming_queries() {
            assert_eq!(idx2.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
        // The stale predecessor still validates and answers its own rows.
        idx.debug_validate(&c);
    }

    #[test]
    fn compact_folds_side_postings_and_matches_a_fresh_build() {
        let mut c = collection();
        let idx = CodeIndex::build(&c);
        let existing = *c.histories()[0].patient();
        let idx2 = apply_delta(
            &mut c,
            &idx,
            vec![
                (existing, vec![diag(2016, "Z98")]),
                (new_patient(1), vec![diag(2015, "Z99")]),
            ],
        );
        let compacted = idx2.compact();
        compacted.debug_validate(&c);
        assert!(compacted.side_is_empty());
        assert_eq!(compacted.rows(), c.len() as u32);
        let fresh = CodeIndex::build(&c);
        assert_eq!(compacted.vocab, fresh.vocab, "merged vocabulary = fresh vocabulary");
        assert_eq!(compacted.counts, fresh.counts, "merged counts = fresh counts");
        for q in streaming_queries() {
            assert_eq!(compacted.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
        // Compacting a fully-compacted index is a cheap shared clone.
        let again = compacted.compact();
        assert!(again.side_is_empty());
        for (a, b) in again.shards.iter().zip(compacted.shards.iter()) {
            assert!(Arc::ptr_eq(a, b), "no-op compaction shares every shard");
        }
    }

    #[test]
    fn compact_shares_untouched_shards_when_vocabulary_is_stable() {
        let mut c = large_collection();
        let idx = CodeIndex::build_with_shard_rows(&c, 256);
        assert!(idx.shards.len() > 3, "want several shards, got {}", idx.shards.len());
        // Touch one patient in shard 1 with a code value the vocabulary
        // already holds — no re-layout, untouched shards stay shared.
        let existing = *c.histories()[300].patient();
        let idx2 = apply_delta(&mut c, &idx, vec![(existing, vec![diag(2016, "T90")])]);
        // And re-register one in shard 2 with other demographics and the
        // same entries: its side postings (its whole code set) rebuild
        // shard 2 although no posting changes.
        let was = Arc::clone(&c.histories()[600]);
        let mut reborn = History::new(Patient {
            birth_date: Date::new(1901, 2, 28).unwrap(),
            sex: if was.patient().sex == Sex::Female { Sex::Male } else { Sex::Female },
            ..*was.patient()
        });
        reborn.insert_all(was.entries().iter().map(|e| e.to_entry()));
        assert_eq!(reborn.len(), was.len());
        c.upsert(reborn);
        let idx2 = idx2.with_delta(&c, &[600]);
        idx2.debug_validate(&c);
        let compacted = idx2.compact();
        compacted.debug_validate(&c);
        assert!(Arc::ptr_eq(&compacted.shards[0], &idx.shards[0]), "shard 0 untouched");
        assert!(!Arc::ptr_eq(&compacted.shards[1], &idx.shards[1]), "shard 1 rebuilt");
        assert!(!Arc::ptr_eq(&compacted.shards[2], &idx.shards[2]), "shard 2 rebuilt");
        assert!(Arc::ptr_eq(&compacted.shards[3], &idx.shards[3]), "shard 3 untouched");
        for q in streaming_queries() {
            assert_eq!(compacted.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
    }

    /// A row inside a shard re-registered with another birth date and
    /// sex: the side pass and, after compaction, the shard pass read the
    /// collection's demographic columns, and both agree with the scan.
    #[test]
    fn a_re_registered_row_answers_demographic_leaves_from_the_collection() {
        let mut c = large_collection();
        let idx = CodeIndex::build_with_shard_rows(&c, 256);
        let at = Date::new(2015, 1, 1).unwrap();
        let aged = HistoryQuery::AgeBetween { at, min: 110, max: 120 };
        let was = Arc::clone(&c.histories()[300]);
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
        idx2.debug_validate(&c);
        let compacted = idx2.compact();
        compacted.debug_validate(&c);
        assert!(compacted.side_is_empty());
        for q in &queries {
            let scan = select_scan(&c, q);
            assert_eq!(idx2.select(&c, q), scan, "side pass, {q:?}");
            assert_eq!(compacted.select(&c, q), scan, "shard pass, {q:?}");
        }
        assert!(compacted.select(&c, &queries[0]).contains(&300));
        assert!(compacted.select(&c, &queries[1]).contains(&300));
    }

    #[test]
    fn repeated_deltas_accumulate_dirty_rows_until_one_compaction() {
        let mut c = collection();
        let mut idx = CodeIndex::build(&c);
        for round in 0..3u64 {
            let existing = *c.histories()[round as usize].patient();
            idx = apply_delta(
                &mut c,
                &idx,
                vec![
                    (existing, vec![diag(2016, "Z98")]),
                    (new_patient(round), vec![diag(2015, "T90")]),
                ],
            );
            idx.debug_validate(&c);
            assert_eq!(idx.side_rows(), 2 * (round as usize + 1));
            for q in streaming_queries() {
                assert_eq!(idx.select(&c, &q), select_scan(&c, &q), "round {round} {q:?}");
            }
        }
        let compacted = idx.compact();
        compacted.debug_validate(&c);
        assert!(compacted.side_is_empty());
        for q in streaming_queries() {
            assert_eq!(compacted.select(&c, &q), select_scan(&c, &q), "query {q:?}");
        }
    }

    /// The side-index rebuilt from every dirty history: what `with_delta`
    /// did per batch before it carried the side postings over.
    fn side_from_scratch(c: &HistoryCollection, dirty: &[u32]) -> SideIndex {
        let mut posted: Vec<(&str, u32)> = Vec::new();
        for &p in dirty {
            for e in c.histories()[p as usize].entries() {
                if let Some(code) = e.code() {
                    posted.push((code.value.as_str(), p));
                }
            }
        }
        posted.sort_unstable();
        posted.dedup();
        let mut side = SideIndex { dirty: dirty.to_vec(), ..SideIndex::default() };
        for (value, p) in posted {
            if side.vocab.last().map(|v| &**v) != Some(value) {
                side.vocab.push(Box::from(value));
                side.postings.push(Vec::new());
            }
            side.postings.last_mut().unwrap().push(p);
        }
        side
    }

    #[test]
    fn carried_over_side_postings_equal_a_rebuild_from_the_dirty_histories() {
        let mut c = collection();
        let mut idx = CodeIndex::build(&c);
        let again = *c.histories()[5].patient();
        for round in 0..4u64 {
            // One row dirtied in every round, one fresh row, one appended.
            let fresh = *c.histories()[round as usize].patient();
            idx = apply_delta(
                &mut c,
                &idx,
                vec![
                    (again, vec![diag(2010 + round as i32, ["Z98", "T90", "Q01", "Z98"][round as usize])]),
                    (fresh, vec![diag(2016, "K74")]),
                    (new_patient(round), vec![diag(2015, "A00")]),
                ],
            );
            idx.debug_validate(&c);
            assert_eq!(idx.side, side_from_scratch(&c, idx.side_dirty()), "round {round}");
        }
        // A dirty row replaced by a shorter history gives its values up,
        // and the one value only it held leaves the side vocabulary.
        assert!(idx.side.vocab.iter().any(|v| &**v == "Q01"));
        let at = c.position_of(again.id).unwrap() as u32;
        let mut shorter = pastas_model::History::new(again);
        shorter.insert(diag(2016, "T90"));
        c.upsert(shorter);
        idx = idx.with_delta(&c, &[at]);
        idx.debug_validate(&c);
        assert_eq!(idx.side, side_from_scratch(&c, idx.side_dirty()));
        assert!(!idx.side.vocab.iter().any(|v| &**v == "Q01"));
    }

    #[test]
    fn delta_onto_an_empty_collection_grows_shards_at_compaction() {
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
        idx2.debug_validate(&c);
        assert_eq!(idx2.shards.len(), 0, "no main shards yet");
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        assert_eq!(idx2.select(&c, &q), select_scan(&c, &q));
        let compacted = idx2.compact();
        compacted.debug_validate(&c);
        assert_eq!(compacted.shards.len(), 1);
        assert_eq!(compacted.select(&c, &q), select_scan(&c, &q));
    }
}
