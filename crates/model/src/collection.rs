//! Collections of histories — the unit the workbench visualizes and queries.

use crate::digest::{Csr, Digest};
use crate::{CodeDictionary, CodeId, Dominant, History, Lists, PatientId, Run, Sex};
use pastas_time::DateTime;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Summary statistics over a collection, shown in the workbench status bar
/// and used by the scalability experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats {
    /// Number of histories.
    pub patients: usize,
    /// Total entries across all histories.
    pub entries: usize,
    /// Point events among them.
    pub events: usize,
    /// Intervals among them.
    pub intervals: usize,
    /// Earliest entry start.
    pub first: Option<DateTime>,
    /// Latest entry end.
    pub last: Option<DateTime>,
    /// Mean entries per history.
    pub mean_entries: f64,
}

/// The entry-level part of [`CollectionStats`]: the five numbers only a
/// walk over every entry can produce. A collection keeps its own current
/// (see [`HistoryCollection::stats`]), so the walk runs at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Summary {
    entries: usize,
    events: usize,
    intervals: usize,
    first: Option<DateTime>,
    last: Option<DateTime>,
}

impl Summary {
    /// One history's contribution (two passes over its columns).
    fn of(h: &History) -> Summary {
        let intervals = h.entries().iter().filter(|e| e.is_interval()).count();
        Summary {
            entries: h.len(),
            events: h.len() - intervals,
            intervals,
            first: h.first_time(),
            last: h.last_time(),
        }
    }

    /// The from-entries walk: O(entries). Reached from the lazy first
    /// [`HistoryCollection::stats`] call, the recompute after a mutation
    /// that dropped the summary, tests and `debug_validate` — never from a
    /// publish or a request.
    fn walk<'a>(histories: impl Iterator<Item = &'a History>) -> Summary {
        let mut total = Summary::default();
        for h in histories {
            total.add(&Summary::of(h));
        }
        total
    }

    fn add(&mut self, h: &Summary) {
        self.entries += h.entries;
        self.events += h.events;
        self.intervals += h.intervals;
        self.first = match (self.first, h.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = match (self.last, h.last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Replace `old`'s contribution with `new`'s. Returns false, leaving
    /// `self` stale, when `old` held an extreme that `new` no longer
    /// reaches: the extreme is then some other history's, and only a walk
    /// finds it. A history that grew (streamed ingest) never does that.
    fn swap(&mut self, old: &Summary, new: &Summary) -> bool {
        let held_first = old.first.is_some() && old.first == self.first;
        let held_last = old.last.is_some() && old.last == self.last;
        if (held_first && new.first.is_none_or(|t| Some(t) > old.first))
            || (held_last && new.last.is_none_or(|t| Some(t) < old.last))
        {
            return false;
        }
        self.entries -= old.entries;
        self.events -= old.events;
        self.intervals -= old.intervals;
        self.add(new);
        true
    }
}

/// Rows one chunk of a [`HistoryCollection`] holds: row `p` is row
/// `p % CHUNK_ROWS` of chunk `p / CHUNK_ROWS`, and every chunk but the
/// last is full. A write copies the one chunk it lands in — 4,096 inline
/// histories and their columns, digest columns included, about 452 KiB
/// at 1M patients ([`HistoryCollection::row_bytes`] less the id map,
/// over the chunk count) — and shares every other.
pub const CHUNK_ROWS: usize = 4096;

/// Sub-maps the id map is split into ([`id_shard`]): a brand-new patient
/// copies one of them, about 1/256 of the map (≈ 47 KB at 1M patients).
const ID_SHARDS: usize = 256;

/// The id sub-map `id` lives in: the top eight bits of a Fibonacci hash,
/// fixed, so every collection of every process agrees.
#[expect(clippy::cast_possible_truncation, reason = "the top eight bits fit any usize")]
fn id_shard(id: PatientId) -> usize {
    (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - ID_SHARDS.ilog2())) as usize
}

/// A row position as the id map stores it.
fn row32(p: usize) -> u32 {
    u32::try_from(p).expect("a collection holds < 2^32 rows")
}

/// One id sub-map: its patients' ids, ascending, and each one's row
/// position beside it. 12 bytes a patient; a lookup is a binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct IdShard {
    ids: Vec<u64>,
    rows: Vec<u32>,
}

impl IdShard {
    /// The row of patient `id`.
    fn get(&self, id: PatientId) -> Option<usize> {
        let at = self.ids.binary_search(&id.0).ok()?;
        self.rows.get(at).map(|&p| p as usize)
    }

    /// Enter a patient not yet in `shard` at row `row`: in place if no
    /// other collection shares the sub-map, else into a copy of exactly
    /// the new length.
    fn insert(shard: &mut Arc<IdShard>, id: PatientId, row: u32) {
        let at = shard.ids.partition_point(|&x| x < id.0);
        if let Some(own) = Arc::get_mut(shard) {
            own.ids.insert(at, id.0);
            own.rows.insert(at, row);
            return;
        }
        fn spliced<T: Copy>(column: &[T], at: usize, value: T) -> Vec<T> {
            let mut out = Vec::with_capacity(column.len() + 1);
            out.extend_from_slice(&column[..at]);
            out.push(value);
            out.extend_from_slice(&column[at..]);
            out
        }
        let copy =
            IdShard { ids: spliced(&shard.ids, at, id.0), rows: spliced(&shard.rows, at, row) };
        *shard = Arc::new(copy);
    }

    /// Sort the entries by id, then row, in place.
    fn sort(&mut self) {
        if self.ids.is_sorted() {
            return;
        }
        let mut pairs: Vec<(u64, u32)> =
            self.ids.iter().copied().zip(self.rows.iter().copied()).collect();
        pairs.sort_unstable();
        for (k, (id, row)) in pairs.into_iter().enumerate() {
            (self.ids[k], self.rows[k]) = (id, row);
        }
    }

    /// Heap bytes: 12 a patient at full capacity.
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * size_of::<u64>() + self.rows.capacity() * size_of::<u32>()
    }
}

/// The id map of the rows in `groups` (row `p` is row `p % CHUNK_ROWS`
/// of group `p / CHUNK_ROWS`): each sub-map counted, filled and sorted,
/// O(n) for ids in row order and O(n log n) for shuffled ones, with no
/// memory beyond the map's 12 bytes a row. Duplicate ids, a rare input,
/// are first folded by a hash map as a row-by-row build would: the first
/// appearance places the row, the last write fills it.
fn index_rows(groups: &mut Vec<Vec<History>>) -> Vec<Arc<IdShard>> {
    if groups.is_empty() {
        return Vec::new();
    }
    let mut counts = [0; ID_SHARDS];
    for h in groups.iter().flatten() {
        counts[id_shard(h.id())] += 1;
    }
    let mut shards: Vec<IdShard> = counts
        .iter()
        .map(|&n| IdShard { ids: Vec::with_capacity(n), rows: Vec::with_capacity(n) })
        .collect();
    for (p, h) in groups.iter().flatten().enumerate() {
        let shard = &mut shards[id_shard(h.id())];
        shard.ids.push(h.id().0);
        shard.rows.push(row32(p));
    }
    shards.iter_mut().for_each(IdShard::sort);
    if shards.iter().any(|s| s.ids.windows(2).any(|w| w[0] == w[1])) {
        let mut first: HashMap<PatientId, usize> = HashMap::new();
        let mut rows: Vec<History> = Vec::new();
        for h in std::mem::take(groups).into_iter().flatten() {
            let next = rows.len();
            match *first.entry(h.id()).or_insert(next) {
                at if at == next => rows.push(h),
                at => rows[at] = h,
            }
        }
        *groups = into_groups(rows.into_iter());
        return index_rows(groups);
    }
    shards.into_iter().map(Arc::new).collect()
}

/// `rows` cut into groups of [`CHUNK_ROWS`], in order.
fn into_groups(rows: impl Iterator<Item = History>) -> Vec<Vec<History>> {
    let mut groups: Vec<Vec<History>> = Vec::new();
    for history in rows {
        match groups.last_mut() {
            Some(group) if group.len() < CHUNK_ROWS => group.push(history),
            _ => groups.push(vec![history]),
        }
    }
    groups
}

/// Write `value` at `at` of `column`; `at == len` appends.
fn put<T>(column: &mut Vec<T>, at: usize, value: T) {
    match column.get_mut(at) {
        Some(slot) => *slot = value,
        None => column.push(value),
    }
}

/// Up to [`CHUNK_ROWS`] consecutive rows: the histories inline (patient,
/// arena handle and row span, 32 bytes each, no allocation of their own)
/// and the per-row columns ([`RowSpan`] lists them): the sort keys, the
/// demographics a planner leaf reads, and the digest a cohort profile
/// folds, its code ids and month runs CSR style.
#[derive(Debug, Clone, Default)]
struct RowChunk {
    histories: Vec<History>,
    first_starts: Vec<i64>,
    last_ends: Vec<i64>,
    entry_counts: Vec<u32>,
    births: Vec<i32>,
    sexes: Vec<Sex>,
    dominant: Vec<Dominant>,
    first_years: Vec<i16>,
    codes: Csr<CodeId>,
    runs: Csr<Run>,
}

impl RowChunk {
    /// Write row `at` from `history`; `at == len` appends.
    fn set(&mut self, at: usize, history: History) {
        self.set_columns(at, &history, &mut Digest::default());
        put(&mut self.histories, at, history);
    }

    /// Write row `at`'s columns from `history` (`at` == the column length
    /// appends), computing its digest in `digest`'s buffers.
    fn set_columns(&mut self, at: usize, history: &History, digest: &mut Digest) {
        let seconds = |t: Option<DateTime>| t.map_or(0, DateTime::second_number);
        let (first, last) = (seconds(history.first_time()), seconds(history.last_time()));
        let count = u32::try_from(history.len()).unwrap_or(u32::MAX);
        let patient = *history.patient();
        // Calendar day numbers lie within ±3.7M, far inside `i32`.
        let birth = i32::try_from(patient.birth_date.day_number()).unwrap_or(i32::MAX);
        digest.fill(history);
        self.codes.set(at, &digest.codes);
        self.runs.set(at, &digest.runs);
        put(&mut self.first_starts, at, first);
        put(&mut self.last_ends, at, last);
        put(&mut self.entry_counts, at, count);
        put(&mut self.births, at, birth);
        put(&mut self.sexes, at, patient.sex);
        put(&mut self.dominant, at, digest.dominant);
        put(&mut self.first_years, at, digest.first_year);
    }

    /// The columns of a full chunk of `rows` (its histories left empty),
    /// written in one pass with one digest buffer and no spare capacity.
    fn columns_of(rows: &[History]) -> RowChunk {
        let mut chunk = RowChunk::default();
        let mut digest = Digest::default();
        for (at, history) in rows.iter().enumerate() {
            chunk.set_columns(at, history, &mut digest);
        }
        chunk.codes.shrink();
        chunk.runs.shrink();
        chunk
    }

    /// Rows `rows` of this chunk, the first at position `start`.
    fn span(&self, rows: Range<usize>, start: usize) -> RowSpan<'_> {
        let all = RowSpan {
            start: start - rows.start,
            histories: &self.histories,
            first_starts: &self.first_starts,
            last_ends: &self.last_ends,
            entry_counts: &self.entry_counts,
            births: &self.births,
            sexes: &self.sexes,
            dominant: &self.dominant,
            first_years: &self.first_years,
            codes: self.codes.lists(),
            runs: self.runs.lists(),
        };
        all.slice(rows)
    }

    /// True if the two chunks' columns are equal (histories have no `==`),
    /// the code ids compared as the codes they name in `dicts`.
    #[cfg(any(test, debug_assertions))]
    fn same_columns(&self, other: &RowChunk, dicts: [&CodeDictionary; 2]) -> bool {
        let codes = |chunk: &RowChunk, dict: &CodeDictionary, i: usize| {
            let mut codes: Vec<pastas_codes::Code> =
                chunk.codes.lists().get(i).iter().map(|&id| dict.resolve(id).clone()).collect();
            codes.sort();
            codes
        };
        (&self.first_starts, &self.last_ends, &self.entry_counts)
            == (&other.first_starts, &other.last_ends, &other.entry_counts)
            && (&self.births, &self.sexes) == (&other.births, &other.sexes)
            && (&self.dominant, &self.first_years) == (&other.dominant, &other.first_years)
            && (0..self.entry_counts.len()).all(|i| {
                self.runs.lists().get(i) == other.runs.lists().get(i)
                    && codes(self, dicts[0], i) == codes(other, dicts[1], i)
            })
    }

    /// Heap bytes of the rows: 70 a row at full capacity, and the code
    /// ids and month runs.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.histories.capacity() * size_of::<History>()
            + (self.first_starts.capacity() + self.last_ends.capacity()) * size_of::<i64>()
            + (self.entry_counts.capacity() + self.births.capacity()) * size_of::<u32>()
            + self.sexes.capacity() * size_of::<Sex>()
            + self.dominant.capacity() * size_of::<Dominant>()
            + self.first_years.capacity() * size_of::<i16>()
            + self.codes.heap_bytes()
            + self.runs.heap_bytes()
    }
}

/// Consecutive rows of one chunk as slices, what a scan reads instead of
/// looking rows up one by one. [`HistoryCollection::spans`] yields them.
#[derive(Debug, Clone, Copy)]
pub struct RowSpan<'a> {
    /// The position of the span's first row.
    pub start: usize,
    /// The rows' histories.
    pub histories: &'a [History],
    /// Each row's first entry start, in seconds (0 when the row is empty).
    pub first_starts: &'a [i64],
    /// Each row's latest entry end, in seconds (0 when the row is empty).
    pub last_ends: &'a [i64],
    /// Each row's number of entries.
    pub entry_counts: &'a [u32],
    /// Each row's patient birth date, as a day number
    /// ([`pastas_time::Date::day_number`]).
    pub births: &'a [i32],
    /// Each row's patient sex.
    pub sexes: &'a [Sex],
    /// Each row's dominant source, ICD-10 chapter and ATC main group.
    pub dominant: &'a [Dominant],
    /// Each row's first-contact year ([`crate::NO_YEAR`] when empty).
    pub first_years: &'a [i16],
    /// Each row's distinct code ids (the collection's), ascending.
    pub codes: Lists<'a, CodeId>,
    /// Each row's month runs, in month order.
    pub runs: Lists<'a, Run>,
}

impl<'a> RowSpan<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// True if the span holds no row.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// The span cut into consecutive spans of `rows` rows, the last
    /// perhaps shorter: the work units of a parallel scan.
    pub fn pieces(self, rows: usize) -> impl Iterator<Item = RowSpan<'a>> {
        let (rows, len) = (rows.max(1), self.len());
        (0..len).step_by(rows).map(move |lo| self.slice(lo..(lo + rows).min(len)))
    }

    /// Rows `r` of this span.
    fn slice(self, r: Range<usize>) -> RowSpan<'a> {
        RowSpan {
            start: self.start + r.start,
            histories: &self.histories[r.clone()],
            first_starts: &self.first_starts[r.clone()],
            last_ends: &self.last_ends[r.clone()],
            entry_counts: &self.entry_counts[r.clone()],
            births: &self.births[r.clone()],
            sexes: &self.sexes[r.clone()],
            dominant: &self.dominant[r.clone()],
            first_years: &self.first_years[r.clone()],
            codes: self.codes.slice(r.clone()),
            runs: self.runs.slice(r),
        }
    }
}

/// An ordered collection of patient histories with id-based lookup.
///
/// Order is significant: it is the vertical order of the visualization, and
/// the sorting operators of the workbench permute it.
///
/// The rows live in chunks of [`CHUNK_ROWS`], each behind its own
/// [`Arc`] and holding its histories inline beside the row columns
/// ([`RowSpan`] lists them); the id map is 256 sub-maps of sorted ids
/// beside their rows, 12 bytes a patient, each behind its own `Arc`
/// ([`Self::id_map_bytes`]). A clone copies the two pointer vectors (one
/// pointer a chunk, one a sub-map), and a write copies only what it
/// lands in: [`Self::upsert`] copies the one chunk holding the row and,
/// for a brand-new patient, the one sub-map its id falls in. A publish
/// that touches a few rows therefore copies a few chunks, whatever the
/// collection's size ([`Self::row_bytes_copied_from`] counts them).
/// A history is 32 bytes (its entries stay in their shared arena), so
/// extracting a sub-collection copies those, not entry data.
///
/// Every row's store is on a version of the collection's one
/// [`CodeDictionary`] (see [`Self::dictionary`]), so a [`crate::CodeId`]
/// names the same code in every row.
#[derive(Debug, Clone, Default)]
pub struct HistoryCollection {
    chunks: Vec<Arc<RowChunk>>,
    /// Patient id → position, by [`id_shard`]; empty until the first row.
    by_id: Vec<Arc<IdShard>>,
    /// The newest version of the code dictionary: every row's store is
    /// on a prefix of it.
    dict: Arc<CodeDictionary>,
    /// Unset until the first [`Self::stats`] call; from then on every
    /// mutator keeps it current or drops it.
    summary: OnceLock<Summary>,
}

impl HistoryCollection {
    /// An empty collection.
    pub fn new() -> HistoryCollection {
        HistoryCollection::default()
    }

    /// Build from histories. Later duplicates of a patient id replace
    /// earlier ones (last write wins, as when re-importing a source): the
    /// first appearance places the row. Serial passes place the rows and
    /// build the id map, sorted sub-map by sub-map; the chunks' columns,
    /// digests included, are then written in parallel, a chunk a task.
    pub fn from_histories<I: IntoIterator<Item = History>>(histories: I) -> HistoryCollection {
        let mut c = HistoryCollection::new();
        let mut groups = into_groups(histories.into_iter().map(|h| c.onto_dictionary(h)));
        c.by_id = index_rows(&mut groups);
        let columns = pastas_par::par_map_min(&groups, 1, |rows| RowChunk::columns_of(rows));
        let chunks = columns.into_iter().zip(groups);
        c.chunks =
            chunks.map(|(chunk, histories)| Arc::new(RowChunk { histories, ..chunk })).collect();
        c
    }

    /// Enter a new patient at position `p` into the id map.
    fn index_row(&mut self, id: PatientId, p: usize) {
        if self.by_id.is_empty() {
            self.by_id = vec![Arc::default(); ID_SHARDS];
        }
        IdShard::insert(&mut self.by_id[id_shard(id)], id, row32(p));
    }

    /// Insert or replace the history for a patient: the only way a row
    /// changes. The chunk holding the row is copied if another collection
    /// shares it (and the id sub-map, for a brand-new patient), the row's
    /// columns are rewritten and an initialised summary is adjusted from
    /// the replaced and the replacing history alone. A history whose
    /// store is on another dictionary than a prefix or an extension of
    /// the collection's is re-encoded onto it first (see
    /// [`Self::dictionary`]).
    pub fn upsert(&mut self, history: History) {
        let history = self.onto_dictionary(history);
        let id = history.id();
        let at = self.position_of(id);
        if self.summary.get().is_some() {
            // A brand-new patient replaces an empty contribution.
            let old = at.map_or_else(Summary::default, |p| Summary::of(&self.histories()[p]));
            let new = Summary::of(&history);
            if self.summary.get_mut().is_some_and(|summary| !summary.swap(&old, &new)) {
                self.summary.take();
            }
        }
        let at = at.unwrap_or_else(|| {
            let p = self.len();
            self.index_row(id, p);
            if p.is_multiple_of(CHUNK_ROWS) {
                self.chunks.push(Arc::default());
            }
            p
        });
        Arc::make_mut(&mut self.chunks[at / CHUNK_ROWS]).set(at % CHUNK_ROWS, history);
    }

    /// `history` on a prefix of this collection's dictionary. A store on
    /// an extension (or on an equal version) makes that version the
    /// collection's; one on a prefix needs nothing. Any other store — a
    /// history built on its own, as `from_histories` of independently
    /// built histories gives — is re-encoded onto a grown version.
    fn onto_dictionary(&mut self, mut history: History) -> History {
        let dict = history.store().dictionary();
        if self.dict.is_prefix_of(dict) {
            self.dict = Arc::clone(dict);
        } else if !dict.is_prefix_of(&self.dict) {
            history.rebuild_on(Arc::clone(&self.dict), Vec::new());
            self.dict = Arc::clone(history.store().dictionary());
        }
        history
    }

    /// The collection's code dictionary: its newest version, which every
    /// row's store holds a prefix of. A [`crate::CodeId`] read off any
    /// row resolves here.
    pub fn dictionary(&self) -> &Arc<CodeDictionary> {
        &self.dict
    }

    /// Histories in display order: `histories()[p]` is the row at
    /// position `p`. A scan over many rows reads [`Self::spans`] instead.
    pub fn histories(&self) -> Histories<'_> {
        Histories { chunks: &self.chunks, len: self.len() }
    }

    /// The rows at positions `rows` (clamped to the collection), chunk by
    /// chunk: each [`RowSpan`] holds the slices of one chunk's histories
    /// and columns that fall in the range, in position order.
    pub fn spans(&self, rows: Range<usize>) -> impl Iterator<Item = RowSpan<'_>> + '_ {
        let end = rows.end.min(self.len());
        let start = rows.start.min(end);
        let first = start / CHUNK_ROWS;
        let last = if start == end { first } else { end.div_ceil(CHUNK_ROWS) };
        self.chunks[first..last].iter().zip(first..).map(move |(chunk, c)| {
            let base = c * CHUNK_ROWS;
            let lo = start.max(base) - base;
            chunk.span(lo..end.min(base + chunk.histories.len()) - base, base + lo)
        })
    }

    /// Look up one history by patient id.
    pub fn get(&self, id: PatientId) -> Option<&History> {
        self.position_of(id).and_then(|p| self.histories().get(p))
    }

    /// The display position of a patient's history — the row index the
    /// query layer's postings refer to.
    pub fn position_of(&self, id: PatientId) -> Option<usize> {
        self.by_id.get(id_shard(id))?.get(id)
    }

    /// Number of histories.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK_ROWS + last.histories.len())
    }

    /// True if no histories.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Extract a sub-collection by predicate, preserving order. This is the
    /// "extraction of sub-collections" operation of §IV. The result shares
    /// the selected histories' arenas (no entry data cloned).
    pub fn extract<F: Fn(&History) -> bool>(&self, pred: F) -> HistoryCollection {
        HistoryCollection::from_histories(self.iter().filter(|h| pred(h)).cloned())
    }

    /// Extract a sub-collection by ids (ids not present are skipped). The
    /// result is ordered by the id list, so a sorted id list re-sorts the
    /// view. Shares the selected histories' arenas.
    pub fn extract_ids(&self, ids: &[PatientId]) -> HistoryCollection {
        HistoryCollection::from_histories(ids.iter().filter_map(|&id| self.get(id).cloned()))
    }

    /// Summary statistics. O(1) once the collection has its summary: the
    /// first call on a freshly built collection walks the entries, every
    /// clone inherits the result, and [`Self::upsert`] (so also
    /// [`crate::OpenEpoch::seal_into`]) keeps it current from the touched
    /// histories. Only a replacement that may have moved an extreme
    /// inwards makes the next call walk again.
    pub fn stats(&self) -> CollectionStats {
        let s = *self.summary.get_or_init(|| Summary::walk(self.iter()));
        let patients = self.len();
        CollectionStats {
            patients,
            entries: s.entries,
            events: s.events,
            intervals: s.intervals,
            first: s.first,
            last: s.last,
            mean_entries: if patients == 0 { 0.0 } else { s.entries as f64 / patients as f64 },
        }
    }

    /// Heap bytes of the row table: every chunk (histories and columns),
    /// every id sub-map and the two pointer vectors. A chunk or sub-map
    /// shared with another collection counts here in full, once.
    pub fn row_bytes(&self) -> usize {
        let pointers = (self.chunks.capacity() + self.by_id.capacity()) * size_of::<usize>();
        let chunks: usize = self.chunks.iter().map(|c| c.heap_bytes()).sum();
        chunks + self.id_map_bytes() + pointers
    }

    /// Heap bytes of the id map alone, a part of [`Self::row_bytes`]: 12
    /// a patient, a sorted id and its row position.
    pub fn id_map_bytes(&self) -> usize {
        self.by_id.iter().map(|m| m.heap_bytes()).sum()
    }

    /// Heap bytes of the chunks and id sub-maps this collection holds and
    /// `predecessor` does not share at the same place: what the writes
    /// that derived this collection from a clone of `predecessor` copied.
    /// Chunks and sub-maps never move, so they compare by position.
    pub fn row_bytes_copied_from(&self, predecessor: &HistoryCollection) -> usize {
        fn fresh<'a, T>(now: &'a [Arc<T>], was: &'a [Arc<T>]) -> impl Iterator<Item = &'a T> {
            let shared = |i: usize, a: &Arc<T>| was.get(i).is_some_and(|b| Arc::ptr_eq(a, b));
            now.iter().enumerate().filter(move |&(i, a)| !shared(i, a)).map(|(_, a)| a.as_ref())
        }
        let chunks: usize =
            fresh(&self.chunks, &predecessor.chunks).map(RowChunk::heap_bytes).sum();
        chunks + fresh(&self.by_id, &predecessor.by_id).map(IdShard::heap_bytes).sum::<usize>()
    }

    /// Heap bytes of the chunks holding `positions` and of the id
    /// sub-maps holding those rows' patients, each counted once: the most
    /// a write to those rows (and a predecessor without them) can copy.
    pub fn row_bytes_at(&self, positions: &[u32]) -> usize {
        let chunks: HashSet<usize> = positions.iter().map(|&p| p as usize / CHUNK_ROWS).collect();
        let histories = self.histories();
        let maps: HashSet<usize> = positions
            .iter()
            .filter_map(|&p| histories.get(p as usize))
            .map(|h| id_shard(h.id()))
            .collect();
        let chunk_bytes: usize =
            chunks.iter().filter_map(|&c| self.chunks.get(c)).map(|c| c.heap_bytes()).sum();
        chunk_bytes
            + maps.iter().filter_map(|&m| self.by_id.get(m)).map(|m| m.heap_bytes()).sum::<usize>()
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless every chunk but the last is full and none is empty,
    /// the id map addresses every row from the sub-map its id hashes to,
    /// each sub-map ascending by id,
    /// every row's store is on a prefix of the dictionary, the row
    /// columns equal a rebuild and a maintained summary equals the
    /// from-entries walk.
    /// Histories and arenas have their own checks (see
    /// `Snapshot::debug_validate` in `pastas-serve`).
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let histories = self.histories();
        let ids: usize = self.by_id.iter().map(|m| m.ids.len()).sum();
        assert_eq!(ids, histories.len(), "collection: id map and rows differ");
        assert!(self.by_id.is_empty() || self.by_id.len() == ID_SHARDS, "collection: id sub-maps");
        for (shard, map) in self.by_id.iter().enumerate() {
            assert_eq!(map.ids.len(), map.rows.len(), "collection: sub-map {shard}'s columns");
            assert!(map.ids.is_sorted_by(|a, b| a < b), "collection: sub-map {shard} out of order");
            for (&id, &p) in map.ids.iter().zip(&map.rows) {
                let id = PatientId(id);
                assert_eq!(id_shard(id), shard, "collection: {id} in the wrong sub-map");
                assert_eq!(
                    histories.get(p as usize).map(History::id),
                    Some(id),
                    "collection: {id} not at row {p}"
                );
            }
        }
        for (c, chunk) in self.chunks.iter().enumerate() {
            let rows = chunk.histories.len();
            let last = c + 1 == self.chunks.len();
            assert!(
                rows == CHUNK_ROWS || last && rows > 0,
                "collection: chunk {c} holds {rows} rows"
            );
            for (i, h) in chunk.histories.iter().enumerate() {
                assert!(
                    h.store().dictionary().is_prefix_of(&self.dict),
                    "collection: row {}'s store is not on a prefix of the dictionary",
                    c * CHUNK_ROWS + i
                );
            }
            let rebuilt = RowChunk::columns_of(&chunk.histories);
            assert!(
                chunk.same_columns(&rebuilt, [&self.dict; 2]),
                "collection: chunk {c}'s columns drifted"
            );
        }
        if let Some(summary) = self.summary.get() {
            assert_eq!(
                *summary,
                Summary::walk(self.iter()),
                "collection: maintained summary drifted from the from-entries walk"
            );
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// Where this collection's row table differs from `other`'s: chunk
    /// layout, each row's patient and entries, the columns, the id map
    /// and the summary. `None` when they agree.
    #[cfg(test)]
    pub(crate) fn table_diff(&self, other: &HistoryCollection) -> Option<String> {
        if self.len() != other.len() || self.chunks.len() != other.chunks.len() {
            return Some(format!(
                "{} rows in {} chunks vs {} in {}",
                self.len(),
                self.chunks.len(),
                other.len(),
                other.chunks.len()
            ));
        }
        for (c, (a, b)) in self.chunks.iter().zip(&other.chunks).enumerate() {
            if !a.same_columns(b, [&self.dict, &other.dict]) {
                return Some(format!("chunk {c}: columns differ"));
            }
            for (i, (x, y)) in a.histories.iter().zip(&b.histories).enumerate() {
                if x.patient() != y.patient() || x.entries().to_vec() != y.entries().to_vec() {
                    return Some(format!(
                        "row {}: {:?} vs {:?}",
                        c * CHUNK_ROWS + i,
                        x.patient(),
                        y.patient()
                    ));
                }
            }
        }
        let maps = |c: &HistoryCollection| -> Vec<IdShard> {
            c.by_id.iter().map(|m| IdShard::clone(m)).collect()
        };
        if maps(self) != maps(other) {
            return Some("id maps differ".to_owned());
        }
        (self.stats() != other.stats())
            .then(|| format!("{:?} vs {:?}", self.stats(), other.stats()))
    }

    /// True while [`Self::stats`] answers without walking.
    #[cfg(test)]
    pub(crate) fn holds_summary(&self) -> bool {
        self.summary.get().is_some()
    }

    /// The distinct arenas backing this collection, in first-appearance
    /// order — one for a monolithic build, one per patient range for a
    /// sharded one (see
    /// [`crate::CollectionBuilder::with_shard_patients`]).
    pub fn sharded_store(&self) -> crate::ShardedStore {
        crate::ShardedStore::from_collection(self)
    }

    /// Iterate over histories.
    pub fn iter(&self) -> HistoriesIter<'_> {
        self.histories().iter()
    }
}

/// The histories of a [`HistoryCollection`] in display order, borrowed:
/// `histories[p]` (or [`Self::get`]) is the row at position `p`,
/// looked up in its chunk. `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct Histories<'a> {
    chunks: &'a [Arc<RowChunk>],
    len: usize,
}

impl<'a> Histories<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row at position `p`, if there is one.
    pub fn get(&self, p: usize) -> Option<&'a History> {
        self.chunks.get(p / CHUNK_ROWS)?.histories.get(p % CHUNK_ROWS)
    }

    /// The first row.
    pub fn first(&self) -> Option<&'a History> {
        self.get(0)
    }

    /// The last row.
    pub fn last(&self) -> Option<&'a History> {
        self.len.checked_sub(1).and_then(|p| self.get(p))
    }

    /// Iterate over the rows in position order.
    pub fn iter(&self) -> HistoriesIter<'a> {
        let rows: fn(&'a Arc<RowChunk>) -> &'a [History] = |chunk| &chunk.histories;
        HistoriesIter { rows: self.chunks.iter().flat_map(rows), left: self.len }
    }
}

impl std::ops::Index<usize> for Histories<'_> {
    type Output = History;

    /// The row at position `p`; panics past the last, as a slice does.
    fn index(&self, p: usize) -> &History {
        self.get(p).unwrap_or_else(|| panic!("row {p} of {} out of range", self.len))
    }
}

impl<'a> IntoIterator for Histories<'a> {
    type Item = &'a History;
    type IntoIter = HistoriesIter<'a>;
    fn into_iter(self) -> HistoriesIter<'a> {
        self.iter()
    }
}

/// Iterator over the `&History` rows of a collection, chunk by chunk.
#[derive(Debug, Clone)]
pub struct HistoriesIter<'a> {
    #[expect(
        clippy::type_complexity,
        reason = "a named FlatMap over chunk slices; an alias would hide one field's type"
    )]
    rows: std::iter::FlatMap<
        std::slice::Iter<'a, Arc<RowChunk>>,
        &'a [History],
        fn(&'a Arc<RowChunk>) -> &'a [History],
    >,
    left: usize,
}

impl<'a> Iterator for HistoriesIter<'a> {
    type Item = &'a History;
    fn next(&mut self) -> Option<&'a History> {
        let h = self.rows.next()?;
        self.left -= 1;
        Some(h)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl DoubleEndedIterator for HistoriesIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let h = self.rows.next_back()?;
        self.left -= 1;
        Some(h)
    }
}

impl ExactSizeIterator for HistoriesIter<'_> {}

impl<'a> IntoIterator for &'a HistoryCollection {
    type Item = &'a History;
    type IntoIter = HistoriesIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entry, Patient, Payload, Sex, SourceKind};
    use pastas_codes::Code;
    use pastas_time::Date;

    fn history(id: u64, codes: &[(&str, i32)]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(id),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: if id.is_multiple_of(2) { Sex::Female } else { Sex::Male },
        });
        for &(code, year) in codes {
            h.insert(Entry::event(
                Date::new(year, 1, 1).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    #[test]
    fn upsert_replaces_by_id() {
        let mut c = HistoryCollection::new();
        c.upsert(history(1, &[("A01", 2015)]));
        c.upsert(history(2, &[("T90", 2015)]));
        c.upsert(history(1, &[("K74", 2016), ("R95", 2017)]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(PatientId(1)).unwrap().len(), 2);
    }

    #[test]
    fn extract_preserves_order() {
        let c = HistoryCollection::from_histories([
            history(3, &[("T90", 2015)]),
            history(1, &[("A01", 2015)]),
            history(2, &[("T90", 2016)]),
        ]);
        let diabetics =
            c.extract(|h| h.entries().iter().any(|e| e.code().is_some_and(|c| c.value == "T90")));
        let ids: Vec<_> = diabetics.iter().map(|h| h.id().0).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn extract_ids_orders_by_request() {
        let c =
            HistoryCollection::from_histories([history(1, &[]), history(2, &[]), history(3, &[])]);
        let sub = c.extract_ids(&[PatientId(3), PatientId(1), PatientId(99)]);
        let ids: Vec<_> = sub.iter().map(|h| h.id().0).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    #[test]
    fn stats() {
        let mut c = HistoryCollection::from_histories([
            history(1, &[("A01", 2014), ("T90", 2015)]),
            history(2, &[("K74", 2016)]),
        ]);
        let mut h = c.get(PatientId(2)).unwrap().clone();
        h.insert(Entry::interval(
            Date::new(2016, 5, 1).unwrap().at_midnight(),
            Date::new(2016, 5, 9).unwrap().at_midnight(),
            Payload::Episode(crate::EpisodeKind::Inpatient),
            SourceKind::Hospital,
        ));
        c.upsert(h);
        let s = c.stats();
        assert_eq!(s.patients, 2);
        assert_eq!(s.entries, 4);
        assert_eq!(s.events, 3);
        assert_eq!(s.intervals, 1);
        assert_eq!(s.first, Some(Date::new(2014, 1, 1).unwrap().at_midnight()));
        assert_eq!(s.last, Some(Date::new(2016, 5, 9).unwrap().at_midnight()));
        assert!((s.mean_entries - 2.0).abs() < 1e-9);
    }

    /// One column of every row, read through the spans.
    fn column<T: Copy>(c: &HistoryCollection, of: for<'a> fn(RowSpan<'a>) -> &'a [T]) -> Vec<T> {
        c.spans(0..c.len()).flat_map(|s| of(s).to_vec()).collect()
    }

    #[test]
    fn extract_shares_allocations() {
        let c = HistoryCollection::from_histories([
            history(1, &[("A01", 2015)]),
            history(2, &[("T90", 2016)]),
        ]);
        let sub = c.extract(|h| h.id().0 == 2);
        assert_eq!(sub.len(), 1);
        assert!(
            Arc::ptr_eq(c.histories()[1].store(), sub.histories()[0].store()),
            "extraction copies the row, not history data"
        );
    }

    #[test]
    fn upsert_leaves_a_sharing_collection_untouched() {
        let c = HistoryCollection::from_histories([history(1, &[("A01", 2015)]), history(2, &[])]);
        let mut sub = c.extract(|_| true);
        let mut h = sub.get(PatientId(1)).unwrap().clone();
        h.insert(Entry::event(
            Date::new(2020, 1, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        ));
        sub.upsert(h);
        sub.debug_validate();
        assert_eq!(sub.get(PatientId(1)).unwrap().len(), 2);
        assert_eq!(c.get(PatientId(1)).unwrap().len(), 1, "parent untouched");
        assert!(!Arc::ptr_eq(c.histories()[0].store(), sub.histories()[0].store()));
        let year = |y| Date::new(y, 1, 1).unwrap().at_midnight().second_number();
        assert_eq!(column(&sub, |s| s.entry_counts), [2, 0]);
        assert_eq!(column(&sub, |s| s.first_starts), [year(2015), 0]);
        assert_eq!(column(&sub, |s| s.last_ends), [year(2020), 0]);
        assert_eq!(column(&c, |s| s.last_ends), [year(2015), 0], "parent's rows untouched");
    }

    /// A one-row write after a clone copies the chunk it lands in and
    /// shares every other chunk and every id sub-map with the clone; a
    /// brand-new patient copies the last chunk and the one sub-map its
    /// id falls in; a re-registered patient rewrites its row's
    /// demographics in its own chunk only.
    #[test]
    fn a_write_copies_one_chunk_and_a_new_patient_one_id_sub_map() {
        let rows = 3 * CHUNK_ROWS + 5;
        let c = HistoryCollection::from_histories((0..rows as u64).map(|id| history(id, &[])));
        assert_eq!(c.chunks.len(), 4);
        let chunks_shared = |a: &HistoryCollection, b: &HistoryCollection| -> Vec<bool> {
            a.chunks.iter().zip(&b.chunks).map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        let maps_copied = |a: &HistoryCollection, b: &HistoryCollection| {
            a.by_id.iter().zip(&b.by_id).filter(|(x, y)| !Arc::ptr_eq(x, y)).count()
        };

        let mut grown = c.clone();
        let at = CHUNK_ROWS + 17;
        grown.upsert(history(at as u64, &[("T90", 2016)]));
        grown.debug_validate();
        assert_eq!(chunks_shared(&c, &grown), [true, false, true, true]);
        assert_eq!(maps_copied(&c, &grown), 0, "a known patient copies no id sub-map");
        assert_eq!(grown.row_bytes_copied_from(&c), grown.chunks[1].heap_bytes());
        assert!(grown.row_bytes_copied_from(&c) <= grown.row_bytes_at(&[at as u32]));
        assert_eq!(column(&c, |s| s.entry_counts)[at], 0, "parent's rows untouched");

        let mut appended = c.clone();
        appended.upsert(history(rows as u64, &[]));
        appended.debug_validate();
        assert_eq!(chunks_shared(&c, &appended), [true, true, true, false]);
        assert_eq!(maps_copied(&c, &appended), 1);
        let copied = appended.row_bytes_copied_from(&c);
        assert!(copied > 0 && copied <= appended.row_bytes_at(&[rows as u32]));
        assert_eq!(appended.position_of(PatientId(rows as u64)), Some(rows));

        // A new patient that opens a chunk: the full ones stay shared.
        let full =
            HistoryCollection::from_histories((0..CHUNK_ROWS as u64).map(|id| history(id, &[])));
        let mut opened = full.clone();
        opened.upsert(history(CHUNK_ROWS as u64, &[]));
        opened.debug_validate();
        assert_eq!(opened.chunks.len(), 2);
        assert!(Arc::ptr_eq(&full.chunks[0], &opened.chunks[0]));

        let mut reborn = c.clone();
        let born = Date::new(1901, 2, 28).unwrap();
        let id = PatientId(2 * CHUNK_ROWS as u64 + 1);
        reborn.upsert(History::new(Patient { id, birth_date: born, sex: Sex::Male }));
        reborn.debug_validate();
        assert_eq!(chunks_shared(&c, &reborn), [true, true, false, true]);
        assert_eq!(maps_copied(&c, &reborn), 0);
        let day = |d: Date| d.day_number() as i32;
        assert_eq!(column(&reborn, |s| s.births)[id.0 as usize], day(born));
        assert_eq!(column(&reborn, |s| s.sexes)[id.0 as usize], Sex::Male);
        assert_eq!(column(&c, |s| s.births)[id.0 as usize], day(Date::new(1950, 1, 1).unwrap()));
    }

    /// `spans` clamps to the collection and cuts at chunk boundaries.
    #[test]
    fn spans_cut_ranges_at_chunk_boundaries() {
        let rows = 2 * CHUNK_ROWS + 3;
        let c = HistoryCollection::from_histories((0..rows as u64).map(|id| history(id, &[])));
        let cuts = |r: std::ops::Range<usize>| -> Vec<(usize, usize)> {
            c.spans(r).map(|s| (s.start, s.len())).collect()
        };
        assert_eq!(cuts(0..rows), [(0, CHUNK_ROWS), (CHUNK_ROWS, CHUNK_ROWS), (2 * CHUNK_ROWS, 3)]);
        assert_eq!(cuts(5..CHUNK_ROWS + 1), [(5, CHUNK_ROWS - 5), (CHUNK_ROWS, 1)]);
        assert_eq!(cuts(CHUNK_ROWS..CHUNK_ROWS), []);
        assert_eq!(cuts(rows - 1..rows + 9), [(rows - 1, 1)]);
        assert_eq!(cuts(rows + 1..rows + 9), []);
        for span in c.spans(3..rows) {
            let ids: Vec<u64> = span.histories.iter().map(|h| h.id().0).collect();
            assert_eq!(
                ids,
                (span.start as u64..(span.start + span.len()) as u64).collect::<Vec<_>>()
            );
        }
        let histories = c.histories();
        assert_eq!(histories.iter().len(), rows);
        assert_eq!(histories.iter().next_back().map(History::id), Some(PatientId(rows as u64 - 1)));
        assert_eq!(histories.last().map(History::id), histories.get(rows - 1).map(History::id));
        assert!(histories.get(rows).is_none());
    }

    #[test]
    fn empty_stats() {
        let s = HistoryCollection::new().stats();
        assert_eq!(s.patients, 0);
        assert_eq!(s.first, None);
        assert_eq!(s.mean_entries, 0.0);
    }
}
