//! The columnar, interned event store — the arena behind [`History`].
//!
//! The paper's workloads (selecting 13,000 of 168,000 patients, keeping
//! every §IV interaction under the 0.1 s budget) are scans over entry
//! attributes: time, code, source. A `Vec<Entry>` per patient puts each
//! attribute behind an enum discriminant and each code behind its own
//! heap `String`; this module stores one collection's entries as
//! struct-of-arrays instead:
//!
//! * [`CodeDictionary`] — one per collection, shared by its arenas:
//!   every distinct [`Code`] appears once and entries refer to it by
//!   [`CodeId`], so equality is an integer compare, prefix tests are
//!   range walks over the sorted symbol table, and an id means the same
//!   code in every arena;
//! * [`EventStore`] — three parallel columns, 9 bytes a row: `starts`
//!   (`u32` seconds after the arena's base midnight), `kinds` (payload
//!   tag, source and the interval flag in one byte) and `aux` (a
//!   `CodeId`, an episode discriminant, or a side-table index for
//!   measurements and notes). A point event ends where it starts; the
//!   rows that need more — intervals, and starts more than 68 years from
//!   the base — keep both instants in the sparse, row-sorted `wide` table;
//! * [`EntryRef`] — a zero-copy view (`&EventStore` + row index) that the
//!   hot query/viz/align paths iterate without materializing [`Entry`];
//! * [`Entries`] — one history's contiguous row span, iterable like the
//!   old `&[Entry]` slice;
//! * [`CollectionBuilder`] — builds one shared arena for a whole
//!   collection, or one per patient range, all on one dictionary, so
//!   cohort extraction shares a single allocation. Patients arrive as
//!   encoded [`Row`]s (synthesis: codes by index into a code table, no
//!   heap object per entry) or as [`Entry`] values (`ingest::aggregate`),
//!   which it converts to rows: one validate-sort-append path.
//!
//! [`Entry`] stays as the construction/export/materialization type; the
//! store ⇄ `Vec<Entry>` round trip is lossless (property-tested in
//! `proptests.rs`).

use crate::digest::CodeGroups;
use crate::entry::{Entry, EpisodeKind, MeasurementKind, Payload, SourceKind};
use crate::history::{History, Patient, ValidationReport};
use crate::HistoryCollection;
use pastas_codes::Code;
use pastas_time::{DateTime, Duration};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The code dictionary
// ---------------------------------------------------------------------------

/// A handle to a [`Code`]: its append index in the collection's
/// [`CodeDictionary`]. The same id names the same code in every arena of
/// the collection, and stays stable as the dictionary grows (the sorted
/// view is a separate permutation), so stored `aux` columns never need
/// rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeId(pub u32);

/// The append-only symbol table of one collection's distinct codes.
///
/// Codes are kept in append (id) order plus a permutation sorted by
/// `(value, system)`, so exact lookup is a binary search and all codes
/// sharing a value prefix form one contiguous run of the sorted view —
/// the property the query layer's prefix probes exploit.
///
/// Every arena holds an `Arc` to a *version* of its collection's
/// dictionary. Ids are append indexes, so an older version is a prefix
/// of every newer one: a sealed arena never gains a code, and a grown
/// dictionary still decodes it. Versions are derived copy-on-write
/// ([`Arc::make_mut`]); [`Self::is_prefix_of`] tells, in O(1), whether
/// one version's ids mean the same codes in another.
#[derive(Debug, Clone, Default)]
pub struct CodeDictionary {
    codes: Vec<Code>,
    /// Ids sorted by `(value, system)`.
    sorted: Vec<u32>,
    /// `stamps[id]`: a process-unique number drawn when `id` was
    /// appended. Two versions carrying the same stamp at one id descend
    /// from the version that append made, so they agree on every id up
    /// to it.
    stamps: Vec<u64>,
    /// `groups[id]`: the ICD-10 chapter and ATC group of code `id`.
    groups: Vec<CodeGroups>,
}

/// Two dictionaries are equal when they hold the same codes under the
/// same ids, whatever versions they are.
impl PartialEq for CodeDictionary {
    fn eq(&self, other: &CodeDictionary) -> bool {
        self.codes == other.codes
    }
}

fn code_key(c: &Code) -> (&str, pastas_codes::CodeSystem) {
    (c.value.as_str(), c.system)
}

/// The source of [`CodeDictionary`] append stamps.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

impl CodeDictionary {
    /// Number of distinct codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no codes are held.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code behind an id.
    pub fn resolve(&self, id: CodeId) -> &Code {
        &self.codes[id.0 as usize]
    }

    /// Where `code` is, or belongs, in the sorted view.
    fn search(&self, code: &Code) -> Result<usize, usize> {
        self.sorted.binary_search_by(|&i| code_key(&self.codes[i as usize]).cmp(&code_key(code)))
    }

    /// The id of a code, if held.
    pub fn lookup(&self, code: &Code) -> Option<CodeId> {
        self.search(code).ok().map(|pos| CodeId(self.sorted[pos]))
    }

    /// Intern a code, returning its stable id.
    pub fn intern(&mut self, code: &Code) -> CodeId {
        match self.search(code) {
            Ok(pos) => CodeId(self.sorted[pos]),
            Err(pos) => {
                let id = u32::try_from(self.codes.len())
                    .expect("code dictionary holds < 2^32 distinct codes");
                self.codes.push(code.clone());
                self.sorted.insert(pos, id);
                self.stamps.push(NEXT_STAMP.fetch_add(1, Ordering::Relaxed));
                self.groups.push(CodeGroups::of(code));
                CodeId(id)
            }
        }
    }

    /// The id of `code` in the version `dict` points at, interning it
    /// into a copy-on-write version only if that one lacks it: `make_mut`
    /// on a version other arenas share deep-clones it.
    pub fn intern_shared(dict: &mut Arc<CodeDictionary>, code: &Code) -> CodeId {
        match dict.lookup(code) {
            Some(id) => id,
            None => Arc::make_mut(dict).intern(code),
        }
    }

    /// True if every id of this dictionary names the same code in
    /// `newer`: this is `newer` or a version it grew from.
    pub fn is_prefix_of(&self, newer: &CodeDictionary) -> bool {
        self.stamps.len() <= newer.stamps.len()
            && self.stamps.last().is_none_or(|s| newer.stamps[self.stamps.len() - 1] == *s)
    }

    /// The ICD-10 chapter and ATC group of the code behind an id, parsed
    /// once when it was interned.
    pub fn groups(&self, id: CodeId) -> CodeGroups {
        self.groups[id.0 as usize]
    }

    /// Iterate codes in id order (index `i` is `CodeId(i)`).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Code> {
        self.codes.iter()
    }

    /// The codes in `(value, system)` order, from the first whose value
    /// is not below `value`: a value's codes in every system, and then
    /// every code sharing a prefix, are one contiguous run.
    pub fn sorted_from(&self, value: &str) -> impl Iterator<Item = (CodeId, &Code)> {
        let start = self.sorted.partition_point(|&i| self.codes[i as usize].value.as_str() < value);
        self.sorted[start..].iter().map(|&i| (CodeId(i), &self.codes[i as usize]))
    }

    /// Approximate heap bytes held by the symbol table.
    pub fn heap_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<Code>()
            + self.codes.iter().map(|c| c.value.len()).sum::<usize>()
            + self.sorted.len() * std::mem::size_of::<u32>()
            + self.stamps.len() * std::mem::size_of::<u64>()
            + self.groups.len() * std::mem::size_of::<CodeGroups>()
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the sorted view is an exact permutation of the id
    /// space, strictly increasing by `(value, system)` — i.e. sorted
    /// *and* deduplicated, the property every binary-search lookup and
    /// prefix probe relies on — and every id has its stamp.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        assert_eq!(
            self.sorted.len(),
            self.codes.len(),
            "dictionary: sorted view and id space differ in length"
        );
        assert_eq!(self.stamps.len(), self.codes.len(), "dictionary: an id without its stamp");
        let groups: Vec<CodeGroups> = self.codes.iter().map(CodeGroups::of).collect();
        assert_eq!(self.groups, groups, "dictionary: code groups drifted from the codes");
        let mut seen = vec![false; self.codes.len()];
        for &id in &self.sorted {
            let slot = seen
                .get_mut(id as usize)
                .unwrap_or_else(|| panic!("dictionary: sorted view holds stray id {id}"));
            assert!(!*slot, "dictionary: id {id} appears twice in the sorted view");
            *slot = true;
        }
        for w in self.sorted.windows(2) {
            let (a, b) = (&self.codes[w[0] as usize], &self.codes[w[1] as usize]);
            assert!(
                code_key(a) < code_key(b),
                "dictionary: sorted view out of order or duplicated at {a:?} / {b:?}"
            );
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}
}

// ---------------------------------------------------------------------------
// Payload tags and codecs
// ---------------------------------------------------------------------------

const TAG_DIAGNOSIS: u8 = 0;
const TAG_MEDICATION: u8 = 1;
const TAG_MEASUREMENT: u8 = 2;
const TAG_EPISODE: u8 = 3;
const TAG_NOTE: u8 = 4;
/// The `kinds` byte: payload tag in bits 0–2, [`SourceKind::dense_index`]
/// in bits 3–5, [`FLAG_INTERVAL`] on top.
const TAG_MASK: u8 = 0x07;
const SOURCE_SHIFT: u32 = 3;
/// High bit of the `kinds` column: the entry is an interval.
const FLAG_INTERVAL: u8 = 0x80;

const SECS_PER_DAY: u32 = 86_400;
/// Days from an arena's base to its first entry: half the `u32` window.
const DAYS_BEFORE_FIRST: i64 = (1 << 31) / SECS_PER_DAY as i64;

/// The `starts` word of a row whose start the arena's window (`u32`
/// seconds from its base) cannot hold. Such a row's instants are in the
/// wide table; readers of [`Entries::start_offsets`] take its start from
/// [`EntryRef::start`].
pub const FAR_START: u32 = u32::MAX;

/// True if a row with these `starts` and `kinds` words has a wide row.
fn is_wide(offset: u32, kind: u8) -> bool {
    kind & FLAG_INTERVAL != 0 || offset == FAR_START
}

fn source_of(kind: u8) -> SourceKind {
    SourceKind::ALL[usize::from((kind & !FLAG_INTERVAL) >> SOURCE_SHIFT)]
}

fn code_id_of(kind: u8, aux: u32) -> Option<CodeId> {
    matches!(kind & TAG_MASK, TAG_DIAGNOSIS | TAG_MEDICATION).then_some(CodeId(aux))
}

fn episode_to_u32(k: EpisodeKind) -> u32 {
    match k {
        EpisodeKind::Inpatient => 0,
        EpisodeKind::Outpatient => 1,
        EpisodeKind::DayTreatment => 2,
        EpisodeKind::HomeCare => 3,
        EpisodeKind::NursingHome => 4,
        EpisodeKind::Rehabilitation => 5,
        EpisodeKind::MedicationExposure => 6,
    }
}

fn episode_from_u32(v: u32) -> EpisodeKind {
    match v {
        0 => EpisodeKind::Inpatient,
        1 => EpisodeKind::Outpatient,
        2 => EpisodeKind::DayTreatment,
        3 => EpisodeKind::HomeCare,
        4 => EpisodeKind::NursingHome,
        5 => EpisodeKind::Rehabilitation,
        _ => EpisodeKind::MedicationExposure,
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A row the 9-byte columns cannot hold alone: both instants of an
/// interval, or of an entry that starts outside the arena's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WideRow {
    pub(crate) row: u32,
    pub(crate) start: DateTime,
    pub(crate) end: DateTime,
}

/// A payload as the arena stores it: a code already interned, a note
/// borrowed from an [`Entry`] or moved out of a [`Row`].
enum Stored<'a> {
    Code(u8, CodeId),
    Measurement(MeasurementKind, f64),
    Episode(EpisodeKind),
    Note(Cow<'a, str>),
}

/// The struct-of-arrays entry arena. One store backs one or many
/// histories; each [`History`] views a contiguous row span.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    /// A version of the collection's dictionary: every `CodeId` in `aux`
    /// is below its length.
    pub(crate) dict: Arc<CodeDictionary>,
    /// The midnight `starts` counts from, fixed by the first push:
    /// [`DAYS_BEFORE_FIRST`] before that entry's day, so the window
    /// reaches 68 years either side of it.
    pub(crate) base: DateTime,
    /// Seconds after `base`; [`FAR_START`] when the start does not fit.
    pub(crate) starts: Vec<u32>,
    /// Payload tag | source | [`FLAG_INTERVAL`], see [`TAG_MASK`].
    pub(crate) kinds: Vec<u8>,
    /// Per-kind auxiliary word: `CodeId`, episode discriminant, or
    /// side-table index.
    pub(crate) aux: Vec<u32>,
    /// One row for every interval and every [`FAR_START`] row, ascending
    /// by row. Every other row ends where it starts.
    pub(crate) wide: Vec<WideRow>,
    pub(crate) measurements: Vec<(MeasurementKind, f64)>,
    pub(crate) notes: Vec<String>,
}

/// Where an [`EventStore`]'s heap bytes are, by part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreBytes {
    /// The `u32` start-offset column.
    pub time: usize,
    /// The `u32` auxiliary column.
    pub aux: usize,
    /// The tag/source/flag byte column.
    pub kinds: usize,
    /// The sparse interval and far-start table.
    pub wide: usize,
    /// Measurement and note side tables.
    pub side_tables: usize,
    /// The code dictionary.
    pub dictionary: usize,
}

impl StoreBytes {
    /// All parts.
    pub fn total(&self) -> usize {
        self.time + self.aux + self.kinds + self.wide + self.side_tables + self.dictionary
    }

    fn add(&mut self, other: &StoreBytes) {
        self.time += other.time;
        self.aux += other.aux;
        self.kinds += other.kinds;
        self.wide += other.wide;
        self.side_tables += other.side_tables;
        self.dictionary += other.dictionary;
    }
}

impl EventStore {
    /// An empty store with an empty dictionary of its own.
    pub fn new() -> EventStore {
        EventStore::default()
    }

    /// An empty store on a version of an existing dictionary: the codes
    /// it adds extend a copy, so every id the version holds keeps its
    /// code.
    pub fn with_dictionary(dict: Arc<CodeDictionary>) -> EventStore {
        EventStore { dict, ..EventStore::default() }
    }

    /// Build a store from entries, preserving their order (lossless —
    /// see [`EntryRef::to_entry`] for the way back).
    pub fn from_entries<'a, I: IntoIterator<Item = &'a Entry>>(entries: I) -> EventStore {
        let mut store = EventStore::new();
        for e in entries {
            store.push(e);
        }
        store
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Number of entries as the `u32` row-id type used by spans and the
    /// query index. The arena addresses rows with `u32` by design; a
    /// store that outgrows that is a logic error, so overflow panics
    /// loudly instead of wrapping.
    pub fn len_u32(&self) -> u32 {
        // deliberate loud overflow guard, per the doc comment above
        u32::try_from(self.kinds.len()).expect("event arena holds < 2^32 rows")
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless every parallel column has the same length, every
    /// tag is a known payload kind, every `aux` word lands inside the
    /// structure it indexes (dictionary, measurement side table, note
    /// side table, or episode discriminant space), and the wide table
    /// holds, ascending by row, exactly the intervals and far starts,
    /// each ending at or after it starts and agreeing with its row's
    /// offset. Also validates the shared dictionary.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let n = self.kinds.len();
        assert_eq!(self.starts.len(), n, "store: starts column length mismatch");
        assert_eq!(self.aux.len(), n, "store: aux column length mismatch");
        assert_eq!(
            self.base.second_number().rem_euclid(i64::from(SECS_PER_DAY)),
            0,
            "store: base is not a midnight"
        );
        self.dict.debug_validate();
        for w in self.wide.windows(2) {
            assert!(
                w[0].row < w[1].row,
                "store: wide table not strictly ascending at rows {} / {}",
                w[0].row,
                w[1].row
            );
        }
        let mut wide = self.wide.iter().peekable();
        for i in 0..n {
            let tag = self.kinds[i] & TAG_MASK;
            let aux = self.aux[i] as usize;
            match tag {
                TAG_DIAGNOSIS | TAG_MEDICATION => assert!(
                    aux < self.dict.len(),
                    "store: row {i} code id {aux} outside dictionary (len {})",
                    self.dict.len()
                ),
                TAG_MEASUREMENT => assert!(
                    aux < self.measurements.len(),
                    "store: row {i} measurement index {aux} outside side table"
                ),
                TAG_NOTE => assert!(
                    aux < self.notes.len(),
                    "store: row {i} note index {aux} outside side table"
                ),
                TAG_EPISODE => assert!(
                    self.aux[i] <= 6,
                    "store: row {i} episode discriminant {aux} unknown"
                ),
                other => panic!("store: row {i} has unknown payload tag {other}"),
            }
            let source = (self.kinds[i] & !FLAG_INTERVAL) >> SOURCE_SHIFT;
            assert!(
                usize::from(source) < SourceKind::ALL.len(),
                "store: row {i} has unknown source {source}"
            );
            let w = wide.next_if(|w| w.row as usize == i);
            assert_eq!(
                w.is_some(),
                is_wide(self.starts[i], self.kinds[i]),
                "store: row {i} and the wide table disagree on whether it is wide"
            );
            if let Some(w) = w {
                assert!(w.start <= w.end, "store: row {i} ends before it starts");
                assert!(
                    self.kinds[i] & FLAG_INTERVAL != 0 || w.start == w.end,
                    "store: row {i} is a point event with two instants"
                );
                assert_eq!(
                    self.offset_of(w.start),
                    self.starts[i],
                    "store: row {i} offset disagrees with its wide start"
                );
            }
        }
        if let Some(w) = wide.next() {
            panic!("store: wide row {} is past the last row", w.row);
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// True if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The dictionary version this store's code ids index.
    pub fn dictionary(&self) -> &Arc<CodeDictionary> {
        &self.dict
    }

    /// Re-number every code row into `dict` through `ids` (this store's
    /// old id → its id in `dict`), and move the store onto `dict`.
    fn renumber(&mut self, ids: &[u32], dict: &Arc<CodeDictionary>) {
        for (aux, &kind) in self.aux.iter_mut().zip(&self.kinds) {
            if code_id_of(kind, *aux).is_some() {
                *aux = ids[*aux as usize];
            }
        }
        self.dict = Arc::clone(dict);
    }

    /// `payload` as the arena stores it, its code interned.
    fn stored<'e>(&mut self, payload: &'e Payload) -> Stored<'e> {
        let mut code = |tag, c| Stored::Code(tag, CodeDictionary::intern_shared(&mut self.dict, c));
        match payload {
            Payload::Diagnosis(c) => code(TAG_DIAGNOSIS, c),
            Payload::Medication(c) => code(TAG_MEDICATION, c),
            Payload::Measurement { kind, value } => Stored::Measurement(*kind, *value),
            Payload::Episode(k) => Stored::Episode(*k),
            Payload::Note(text) => Stored::Note(Cow::Borrowed(text)),
        }
    }

    /// `start` as seconds after the base, [`FAR_START`] if that is not a
    /// smaller `u32`.
    fn offset_of(&self, start: DateTime) -> u32 {
        u32::try_from(start.since(self.base).as_seconds()).unwrap_or(FAR_START)
    }

    /// The `(starts, kinds, aux)` words of a row, its measurement or note
    /// appended to the side tables: the one encoder of the arena. The
    /// first row a store sees fixes its base.
    fn encode(
        &mut self,
        start: DateTime,
        interval: bool,
        source: SourceKind,
        item: Stored<'_>,
    ) -> (u32, u8, u32) {
        if self.kinds.is_empty() {
            let midnight = start.date().at_midnight();
            self.base = midnight.add(Duration::days(-DAYS_BEFORE_FIRST));
        }
        let (tag, aux) = match item {
            Stored::Code(tag, id) => (tag, id.0),
            Stored::Measurement(kind, value) => {
                self.measurements.push((kind, value));
                let idx = u32::try_from(self.measurements.len() - 1)
                    .expect("measurement side table holds < 2^32 rows");
                (TAG_MEASUREMENT, idx)
            }
            Stored::Episode(k) => (TAG_EPISODE, episode_to_u32(k)),
            Stored::Note(text) => {
                self.notes.push(text.into_owned());
                let idx = u32::try_from(self.notes.len() - 1)
                    .expect("note side table holds < 2^32 rows");
                (TAG_NOTE, idx)
            }
        };
        #[expect(clippy::cast_possible_truncation, reason = "dense_index() is below 5")]
        let source = (source.dense_index() as u8) << SOURCE_SHIFT;
        let flag = if interval { FLAG_INTERVAL } else { 0 };
        (self.offset_of(start), tag | source | flag, aux)
    }

    /// Append one row: both instants, the interval flag, the source and
    /// the stored payload.
    fn push_stored(
        &mut self,
        start: DateTime,
        end: DateTime,
        interval: bool,
        source: SourceKind,
        item: Stored<'_>,
    ) {
        let (offset, kind, aux) = self.encode(start, interval, source, item);
        if is_wide(offset, kind) {
            let row = self.len_u32();
            self.wide.push(WideRow { row, start, end });
        }
        self.starts.push(offset);
        self.kinds.push(kind);
        self.aux.push(aux);
    }

    /// Append one entry.
    pub fn push(&mut self, entry: &Entry) {
        let item = self.stored(entry.payload());
        self.push_stored(entry.start(), entry.end(), entry.is_interval(), entry.source(), item);
    }

    /// Splice one entry in at row `at` (used by the in-place insert fast
    /// path; side tables are append-only so other rows stay valid).
    pub(crate) fn insert_at(&mut self, at: u32, entry: &Entry) {
        let item = self.stored(entry.payload());
        let (offset, kind, aux) =
            self.encode(entry.start(), entry.is_interval(), entry.source(), item);
        let behind = self.wide.partition_point(|w| w.row < at);
        for w in &mut self.wide[behind..] {
            w.row += 1;
        }
        if is_wide(offset, kind) {
            self.wide.insert(behind, WideRow { row: at, start: entry.start(), end: entry.end() });
        }
        self.starts.insert(at as usize, offset);
        self.kinds.insert(at as usize, kind);
        self.aux.insert(at as usize, aux);
    }

    /// A zero-copy view of row `i`.
    pub fn get(&self, i: u32) -> EntryRef<'_> {
        assert!((i as usize) < self.len(), "row {i} out of bounds");
        EntryRef { store: self, idx: i }
    }

    /// The wide rows of rows `[lo, hi)`.
    fn wide_in(&self, lo: u32, hi: u32) -> &[WideRow] {
        let from = self.wide.partition_point(|w| w.row < lo);
        let len = self.wide[from..].partition_point(|w| w.row < hi);
        &self.wide[from..from + len]
    }

    /// The instant `offset` seconds after the base.
    fn at(&self, offset: u32) -> DateTime {
        self.base.add(Duration::seconds(i64::from(offset)))
    }

    /// The `(start, end)` of row `i`.
    fn times(&self, i: u32) -> (DateTime, DateTime) {
        let offset = self.starts[i as usize];
        if is_wide(offset, self.kinds[i as usize]) {
            let w = self.wide[self.wide.partition_point(|w| w.row < i)];
            debug_assert_eq!(w.row, i, "store: wide row missing");
            (w.start, w.end)
        } else {
            let at = self.at(offset);
            (at, at)
        }
    }

    /// The latest end among rows `[lo, hi)`, which are sorted by start:
    /// the last row's start, unless one of the span's wide rows ends
    /// later. Two binary searches, no walk.
    pub(crate) fn last_end(&self, lo: u32, hi: u32) -> Option<DateTime> {
        let last_start = self.times(hi.checked_sub(1).filter(|&last| last >= lo)?).0;
        self.wide_in(lo, hi).iter().map(|w| w.end).max().max(Some(last_start))
    }

    /// The payload of row `i`, borrowed.
    pub(crate) fn payload_ref(&self, i: u32) -> PayloadRef<'_> {
        let i = i as usize;
        let aux = self.aux[i];
        match self.kinds[i] & TAG_MASK {
            TAG_DIAGNOSIS => PayloadRef::Diagnosis(self.dict.resolve(CodeId(aux))),
            TAG_MEDICATION => PayloadRef::Medication(self.dict.resolve(CodeId(aux))),
            TAG_MEASUREMENT => {
                let (kind, value) = self.measurements[aux as usize];
                PayloadRef::Measurement { kind, value }
            }
            TAG_EPISODE => PayloadRef::Episode(episode_from_u32(aux)),
            _ => PayloadRef::Note(&self.notes[aux as usize]),
        }
    }

    /// Heap bytes held by the store, part by part. The dictionary is
    /// shared by the collection's arenas; [`MemoryFootprint::measure`]
    /// counts it once.
    pub fn byte_split(&self) -> StoreBytes {
        use std::mem::size_of;
        StoreBytes {
            time: self.starts.len() * size_of::<u32>(),
            aux: self.aux.len() * size_of::<u32>(),
            kinds: self.kinds.len(),
            wide: self.wide.len() * size_of::<WideRow>(),
            side_tables: self.measurements.len() * size_of::<(MeasurementKind, f64)>()
                + self.notes.iter().map(|n| size_of::<String>() + n.len()).sum::<usize>(),
            dictionary: self.dict.heap_bytes(),
        }
    }

    /// Approximate heap bytes held by the store (columns + wide table +
    /// side tables + dictionary).
    pub fn heap_bytes(&self) -> usize {
        self.byte_split().total()
    }

    /// Rows `[lo, hi)` whose `(start, end)` key is `<= key` — the stable
    /// insertion point used by [`History::insert`].
    pub(crate) fn partition_point_le(&self, lo: u32, hi: u32, key: (DateTime, DateTime)) -> u32 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.times(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

// ---------------------------------------------------------------------------
// Zero-copy views
// ---------------------------------------------------------------------------

/// A borrowed view of an entry's payload — what [`EntryRef::payload`]
/// yields instead of materializing a [`Payload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadRef<'a> {
    /// A recorded diagnosis.
    Diagnosis(&'a Code),
    /// A dispensed or administered medication.
    Medication(&'a Code),
    /// A clinical measurement.
    Measurement {
        /// What was measured.
        kind: MeasurementKind,
        /// The value, in [`MeasurementKind::unit`] units.
        value: f64,
    },
    /// A care episode.
    Episode(EpisodeKind),
    /// Free text extracted from the record.
    Note(&'a str),
}

impl<'a> PayloadRef<'a> {
    /// The clinical code, if this payload carries one.
    pub fn code(self) -> Option<&'a Code> {
        match self {
            PayloadRef::Diagnosis(c) | PayloadRef::Medication(c) => Some(c),
            _ => None,
        }
    }

    /// Materialize an owned [`Payload`].
    pub fn to_payload(self) -> Payload {
        match self {
            PayloadRef::Diagnosis(c) => Payload::Diagnosis(c.clone()),
            PayloadRef::Medication(c) => Payload::Medication(c.clone()),
            PayloadRef::Measurement { kind, value } => Payload::Measurement { kind, value },
            PayloadRef::Episode(k) => Payload::Episode(k),
            PayloadRef::Note(t) => Payload::Note(t.to_owned()),
        }
    }

    /// One-line rendering for details-on-demand panels (identical to
    /// [`Payload::describe`]).
    pub fn describe(self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out);
        out
    }

    /// [`Self::describe`], written onto the end of `out`.
    pub fn describe_into(self, out: &mut String) {
        let code = |out: &mut String, kind: &str, c: &Code| {
            let _ = write!(out, "{kind} {}", c.value);
            if let Some(name) = c.display_name() {
                let _ = write!(out, " ({name})");
            }
        };
        match self {
            PayloadRef::Diagnosis(c) => code(out, "diagnosis", c),
            PayloadRef::Medication(c) => code(out, "medication", c),
            PayloadRef::Measurement { kind, value } => {
                let _ = write!(out, "{} {value:.1} {}", kind.label(), kind.unit());
            }
            PayloadRef::Episode(k) => out.push_str(k.label()),
            PayloadRef::Note(text) => {
                let cut = text.char_indices().nth(60).map_or(text.len(), |(i, _)| i);
                out.push_str("note: ");
                out.push_str(&text[..cut]);
                if cut < text.len() {
                    out.push('…');
                }
            }
        }
    }
}

impl<'a> From<&'a Payload> for PayloadRef<'a> {
    fn from(p: &'a Payload) -> PayloadRef<'a> {
        match p {
            Payload::Diagnosis(c) => PayloadRef::Diagnosis(c),
            Payload::Medication(c) => PayloadRef::Medication(c),
            Payload::Measurement { kind, value } => {
                PayloadRef::Measurement { kind: *kind, value: *value }
            }
            Payload::Episode(k) => PayloadRef::Episode(*k),
            Payload::Note(t) => PayloadRef::Note(t),
        }
    }
}

impl PartialEq<Payload> for PayloadRef<'_> {
    fn eq(&self, other: &Payload) -> bool {
        *self == PayloadRef::from(other)
    }
}

/// A zero-copy view of one entry: a store reference plus a row index.
/// `Copy`, 16 bytes — the type the hot query/viz/align loops traffic in.
#[derive(Clone, Copy)]
pub struct EntryRef<'a> {
    store: &'a EventStore,
    idx: u32,
}

impl<'a> EntryRef<'a> {
    /// The anchor time: event time, or interval start.
    pub fn start(&self) -> DateTime {
        match self.store.starts[self.idx as usize] {
            FAR_START => self.store.times(self.idx).0,
            offset => self.store.at(offset),
        }
    }

    /// The end time: event time, or interval end.
    pub fn end(&self) -> DateTime {
        self.store.times(self.idx).1
    }

    /// The provenance tag.
    pub fn source(&self) -> SourceKind {
        source_of(self.store.kinds[self.idx as usize])
    }

    /// True for intervals.
    pub fn is_interval(&self) -> bool {
        self.store.kinds[self.idx as usize] & FLAG_INTERVAL != 0
    }

    /// True for point events.
    pub fn is_event(&self) -> bool {
        !self.is_interval()
    }

    /// The payload, borrowed from the store.
    pub fn payload(&self) -> PayloadRef<'a> {
        self.store.payload_ref(self.idx)
    }

    /// The clinical code, if any, borrowed from the dictionary.
    pub fn code(&self) -> Option<&'a Code> {
        self.payload().code()
    }

    /// The code id, if this entry carries a code. Integer identity across
    /// the collection's arenas — what the query layer posts.
    pub fn code_id(&self) -> Option<CodeId> {
        code_id_of(self.store.kinds[self.idx as usize], self.store.aux[self.idx as usize])
    }

    /// True if this entry overlaps the closed time window `[from, to]`.
    pub fn overlaps(&self, from: DateTime, to: DateTime) -> bool {
        self.start() <= to && self.end() >= from
    }

    /// One-line rendering for details-on-demand panels (identical to
    /// [`Entry::describe`]).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out);
        out
    }

    /// [`Self::describe`], written onto the end of `out`.
    pub fn describe_into(&self, out: &mut String) {
        let (start, end) = (self.start(), self.end());
        let _ = if self.is_interval() {
            write!(out, "{start} → {end} ({}) — ", end - start)
        } else {
            write!(out, "{start} — ")
        };
        self.payload().describe_into(out);
        let _ = write!(out, " [{}]", self.source());
    }

    /// Materialize an owned [`Entry`] (export and details-on-demand; the
    /// hot paths never call this).
    pub fn to_entry(&self) -> Entry {
        if self.is_interval() {
            Entry::interval(self.start(), self.end(), self.payload().to_payload(), self.source())
        } else {
            Entry::event(self.start(), self.payload().to_payload(), self.source())
        }
    }
}

impl std::fmt::Debug for EntryRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryRef")
            .field("start", &self.start())
            .field("end", &self.end())
            .field("payload", &self.payload())
            .field("source", &self.source())
            .field("interval", &self.is_interval())
            .finish()
    }
}

impl PartialEq for EntryRef<'_> {
    fn eq(&self, other: &EntryRef<'_>) -> bool {
        self.start() == other.start()
            && self.end() == other.end()
            && self.is_interval() == other.is_interval()
            && self.source() == other.source()
            && self.payload() == other.payload()
    }
}

impl PartialEq<Entry> for EntryRef<'_> {
    fn eq(&self, other: &Entry) -> bool {
        self.start() == other.start()
            && self.end() == other.end()
            && self.is_interval() == other.is_interval()
            && self.source() == other.source()
            && self.payload() == PayloadRef::from(other.payload())
    }
}

/// The uniform read interface over [`EntryRef`] and `&Entry` — generic
/// predicates and classifiers take `E: EntryView` by value (both
/// implementors are `Copy`), so existing `&Entry` call sites keep
/// compiling while the hot paths pass [`EntryRef`] without allocating.
pub trait EntryView: Copy {
    /// The anchor time: event time, or interval start.
    fn start(self) -> DateTime;
    /// The end time: event time, or interval end.
    fn end(self) -> DateTime;
    /// The provenance tag.
    fn source(self) -> SourceKind;
    /// True for intervals.
    fn is_interval(self) -> bool;
    /// The payload, borrowed.
    fn payload_ref(&self) -> PayloadRef<'_>;

    /// True for point events.
    fn is_event(self) -> bool {
        !self.is_interval()
    }

    /// The clinical code, if any.
    fn code_ref(&self) -> Option<&Code> {
        self.payload_ref().code()
    }

    /// True if this entry overlaps the closed time window `[from, to]`.
    fn overlaps_window(self, from: DateTime, to: DateTime) -> bool {
        self.start() <= to && self.end() >= from
    }
}

impl EntryView for &Entry {
    fn start(self) -> DateTime {
        Entry::start(self)
    }
    fn end(self) -> DateTime {
        Entry::end(self)
    }
    fn source(self) -> SourceKind {
        Entry::source(self)
    }
    fn is_interval(self) -> bool {
        Entry::is_interval(self)
    }
    fn payload_ref(&self) -> PayloadRef<'_> {
        PayloadRef::from(Entry::payload(self))
    }
}

impl EntryView for EntryRef<'_> {
    fn start(self) -> DateTime {
        EntryRef::start(&self)
    }
    fn end(self) -> DateTime {
        EntryRef::end(&self)
    }
    fn source(self) -> SourceKind {
        EntryRef::source(&self)
    }
    fn is_interval(self) -> bool {
        EntryRef::is_interval(&self)
    }
    fn payload_ref(&self) -> PayloadRef<'_> {
        EntryRef::payload(self)
    }
}

/// One history's contiguous row span — the replacement for the old
/// `&[Entry]` slice. `Copy`; iterate it directly (`for e in h.entries()`)
/// or via [`Entries::iter`]; index with [`Entries::get`].
#[derive(Clone, Copy, Debug)]
pub struct Entries<'a> {
    store: &'a EventStore,
    lo: u32,
    hi: u32,
}

impl<'a> Entries<'a> {
    pub(crate) fn new(store: &'a EventStore, lo: u32, hi: u32) -> Entries<'a> {
        Entries { store, lo, hi }
    }

    /// Number of entries in the span.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True if the span is empty.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// The `i`-th entry of the span (panics when out of bounds, like
    /// slice indexing did).
    #[expect(clippy::cast_possible_truncation, reason = "asserted i < len, and len fits u32")]
    pub fn get(&self, i: usize) -> EntryRef<'a> {
        assert!(i < self.len(), "entry index {i} out of bounds (len {})", self.len());
        EntryRef { store: self.store, idx: self.lo + i as u32 }
    }

    /// The first entry, if any.
    pub fn first(&self) -> Option<EntryRef<'a>> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// Iterate the span.
    pub fn iter(&self) -> EntriesIter<'a> {
        EntriesIter { store: self.store, next: self.lo, hi: self.hi }
    }

    /// The span's start times as the arena holds them: the arena's base
    /// (a midnight, so `offset / 86_400` is a day index from it) and one
    /// contiguous slice of seconds after it, one word an entry — what
    /// the cohort timeline walks. A [`FAR_START`] word stands for a start
    /// the slice cannot hold; read that row through [`Self::get`].
    pub fn start_offsets(&self) -> (DateTime, &'a [u32]) {
        (self.store.base, &self.store.starts[self.lo as usize..self.hi as usize])
    }

    /// Fused columnar scan: `(source, code id)` per entry,
    /// walking each column slice sequentially instead of re-indexing the
    /// store per field the way [`EntryRef`] accessors do. This is the
    /// hot-loop shape of the analytics dimension pass, which folds
    /// provenance and code-derived buckets in a single traversal.
    pub fn scan(&self) -> impl Iterator<Item = (SourceKind, Option<CodeId>)> + 'a {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        let kinds = &self.store.kinds[lo..hi];
        let aux = &self.store.aux[lo..hi];
        kinds.iter().zip(aux).map(|(&kind, &aux)| (source_of(kind), code_id_of(kind, aux)))
    }

    /// Materialize the span as owned entries (export/test paths).
    pub fn to_vec(&self) -> Vec<Entry> {
        self.iter().map(|e| e.to_entry()).collect()
    }
}

/// Iterator over a history's entries, yielding [`EntryRef`]s.
#[derive(Clone, Debug)]
pub struct EntriesIter<'a> {
    store: &'a EventStore,
    next: u32,
    hi: u32,
}

impl<'a> Iterator for EntriesIter<'a> {
    type Item = EntryRef<'a>;
    fn next(&mut self) -> Option<EntryRef<'a>> {
        if self.next >= self.hi {
            return None;
        }
        let r = EntryRef { store: self.store, idx: self.next };
        self.next += 1;
        Some(r)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.hi - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for EntriesIter<'_> {}
impl<'a> DoubleEndedIterator for EntriesIter<'a> {
    fn next_back(&mut self) -> Option<EntryRef<'a>> {
        if self.next >= self.hi {
            return None;
        }
        self.hi -= 1;
        Some(EntryRef { store: self.store, idx: self.hi })
    }
}

impl<'a> IntoIterator for Entries<'a> {
    type Item = EntryRef<'a>;
    type IntoIter = EntriesIter<'a>;
    fn into_iter(self) -> EntriesIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Entries<'a> {
    type Item = EntryRef<'a>;
    type IntoIter = EntriesIter<'a>;
    fn into_iter(self) -> EntriesIter<'a> {
        self.iter()
    }
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

/// Byte-level memory accounting for a collection: the columnar arena
/// footprint next to the array-of-structs estimate it replaced.
///
/// The AoS figure is what a `Vec<Entry>` representation costs: one full
/// [`Entry`] per row (`size_of::<Entry>()`) plus the per-entry heap its
/// payload owns (code value bytes, note bytes). The columnar figure is
/// [`EventStore::heap_bytes`] summed over the collection's *distinct*
/// arenas — shared arenas are counted once, which is the whole point —
/// with the collection's one dictionary counted once beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Total entries across the collection.
    pub entries: usize,
    /// Distinct [`EventStore`] arenas backing the collection.
    pub stores: usize,
    /// Bytes held by the columnar arenas (columns + dictionary).
    pub columnar_bytes: usize,
    /// `columnar_bytes` by part.
    pub split: StoreBytes,
    /// Estimated bytes for the same data as `Vec<Entry>` per patient.
    pub aos_bytes: usize,
    /// Total postings in the code index, when attached via
    /// [`MemoryFootprint::with_postings`] (the model layer cannot see the
    /// query index; the bench/serve layers fill this in).
    pub postings: usize,
    /// Compressed posting-bitmap bytes, when attached.
    pub postings_compressed_bytes: usize,
    /// What the same postings cost as `Vec<u32>`, when attached.
    pub postings_uncompressed_bytes_est: usize,
    /// Bytes of the row table: its chunks (histories inline, row
    /// columns) and its id map ([`crate::HistoryCollection::row_bytes`]).
    pub row_bytes: usize,
}

impl MemoryFootprint {
    /// Measure a collection.
    pub fn measure(collection: &crate::HistoryCollection) -> MemoryFootprint {
        // Neighbours usually share an arena, so the previous pointer
        // answers most rows; the set keeps the rest O(1) once streamed
        // ingest has given every touched patient a store of its own.
        let mut seen: HashSet<*const EventStore> = HashSet::new();
        let mut previous = std::ptr::null();
        let mut f = MemoryFootprint::default();
        for h in collection.iter() {
            let ptr = Arc::as_ptr(h.store());
            if ptr != previous && seen.insert(ptr) {
                f.split.add(&StoreBytes { dictionary: 0, ..h.store().byte_split() });
            }
            previous = ptr;
            f.entries += h.len();
            f.aos_bytes += h.len() * std::mem::size_of::<Entry>();
            for e in h.entries() {
                f.aos_bytes += match e.payload() {
                    PayloadRef::Diagnosis(c) | PayloadRef::Medication(c) => c.value.len(),
                    PayloadRef::Note(t) => t.len(),
                    PayloadRef::Measurement { .. } | PayloadRef::Episode(_) => 0,
                };
            }
        }
        f.stores = seen.len();
        f.split.dictionary = collection.dictionary().heap_bytes();
        f.columnar_bytes = f.split.total();
        f.row_bytes = collection.row_bytes();
        f
    }

    /// Columnar bytes per entry.
    pub fn columnar_per_entry(&self) -> f64 {
        self.columnar_bytes as f64 / (self.entries as f64).max(1.0)
    }

    /// Array-of-structs bytes per entry.
    pub fn aos_per_entry(&self) -> f64 {
        self.aos_bytes as f64 / (self.entries as f64).max(1.0)
    }

    /// How many times smaller the columnar layout is (AoS ÷ columnar).
    pub fn reduction(&self) -> f64 {
        self.aos_bytes as f64 / (self.columnar_bytes as f64).max(1.0)
    }

    /// Attach code-index posting accounting (measured by the query layer).
    pub fn with_postings(
        mut self,
        postings: usize,
        compressed_bytes: usize,
        uncompressed_bytes_est: usize,
    ) -> MemoryFootprint {
        self.postings = postings;
        self.postings_compressed_bytes = compressed_bytes;
        self.postings_uncompressed_bytes_est = uncompressed_bytes_est;
        self
    }

    /// Compressed bytes per posting (0 when no postings attached).
    pub fn bytes_per_posting(&self) -> f64 {
        self.postings_compressed_bytes as f64 / (self.postings as f64).max(1.0)
    }

    /// How many times smaller the compressed postings are than `Vec<u32>`.
    pub fn postings_reduction(&self) -> f64 {
        self.postings_uncompressed_bytes_est as f64
            / (self.postings_compressed_bytes as f64).max(1.0)
    }

    /// A human-readable report: the total, the columnar bytes per entry
    /// by part, and a postings line when those are attached.
    pub fn summary(&self) -> String {
        let per_entry = |bytes: usize| bytes as f64 / (self.entries as f64).max(1.0);
        let mut s = format!(
            "memory: {:.1} B/entry columnar vs {:.1} B/entry AoS ({:.2}x smaller; \
             {} entries in {} arena{})\n\
             columnar split: time {:.2} + aux {:.2} + kinds {:.2} + wide rows {:.2} + \
             side tables {:.2} + dictionary {:.2} B/entry",
            self.columnar_per_entry(),
            self.aos_per_entry(),
            self.reduction(),
            self.entries,
            self.stores,
            if self.stores == 1 { "" } else { "s" },
            per_entry(self.split.time),
            per_entry(self.split.aux),
            per_entry(self.split.kinds),
            per_entry(self.split.wide),
            per_entry(self.split.side_tables),
            per_entry(self.split.dictionary),
        );
        if self.postings > 0 {
            s.push_str(&format!(
                "\npostings: {:.2} B/posting compressed vs 4.00 B/posting Vec<u32> \
                 ({:.2}x smaller; {} postings)",
                self.bytes_per_posting(),
                self.postings_reduction(),
                self.postings
            ));
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Sharded store facade
// ---------------------------------------------------------------------------

/// The patient-range-sharded arena facade: the distinct [`EventStore`]
/// arenas backing a collection, in first-appearance (patient) order.
///
/// A monolithic collection has one shard; a [`CollectionBuilder`] with
/// [`CollectionBuilder::with_shard_patients`] produces one arena per
/// patient range, all on the collection's one [`CodeDictionary`], so
/// downstream code sees one vocabulary regardless of the split. No
/// request path uses this facade: it serves the synthesis content hash
/// (`pastas_synth::golden`), which walks the arena layout, the benches'
/// per-shard byte rows (E5, E12), and the tests that check how a
/// collection is split.
#[derive(Debug, Clone, Default)]
pub struct ShardedStore {
    shards: Vec<Arc<EventStore>>,
}

impl ShardedStore {
    /// The distinct arenas of a collection, in the order their first
    /// history appears.
    pub fn from_collection(collection: &crate::HistoryCollection) -> ShardedStore {
        let mut shards: Vec<Arc<EventStore>> = Vec::new();
        for h in collection.iter() {
            if shards.iter().all(|s| !Arc::ptr_eq(s, h.store())) {
                shards.push(Arc::clone(h.store()));
            }
        }
        ShardedStore { shards }
    }

    /// Number of arenas.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The arenas, in first-appearance order.
    pub fn shards(&self) -> &[Arc<EventStore>] {
        &self.shards
    }

    /// Heap bytes per arena (columns + dictionary), in shard order.
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.heap_bytes()).collect()
    }

    /// Heap bytes across all arenas.
    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }

    /// Entries across all arenas.
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Collection building
// ---------------------------------------------------------------------------

/// One entry in the form [`CollectionBuilder::add_rows`] takes: both
/// instants, the interval flag, the source and the payload, a coded one
/// by its index in the builder's code table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The anchor time: event time, or interval start.
    pub start: DateTime,
    /// The end time: the start for a point event.
    pub end: DateTime,
    /// True for intervals.
    pub interval: bool,
    /// The provenance tag.
    pub source: SourceKind,
    /// The payload.
    pub item: RowItem,
}

impl Row {
    /// A point event.
    pub fn event(time: DateTime, item: RowItem, source: SourceKind) -> Row {
        Row { start: time, end: time, interval: false, source, item }
    }

    /// An interval, `start` and `end` swapped if reversed (as
    /// [`Entry::interval`] does).
    pub fn interval(start: DateTime, end: DateTime, item: RowItem, source: SourceKind) -> Row {
        let (start, end) = if start <= end { (start, end) } else { (end, start) };
        Row { start, end, interval: true, source, item }
    }
}

/// A [`Row`]'s payload. A code is an index into the code table the
/// builder was given ([`CollectionBuilder::with_codes`]); it is interned
/// when the first row naming it is pushed.
#[derive(Debug, Clone, PartialEq)]
pub enum RowItem {
    /// A recorded diagnosis: its code's index in the code table.
    Diagnosis(u32),
    /// A medication: its code's index in the code table.
    Medication(u32),
    /// A clinical measurement.
    Measurement {
        /// What was measured.
        kind: MeasurementKind,
        /// The value, in [`MeasurementKind::unit`] units.
        value: f64,
    },
    /// A care episode.
    Episode(EpisodeKind),
    /// Free text, moved into the arena's note table.
    Note(String),
}

/// Builds the shared [`EventStore`] arena(s) for a whole collection.
///
/// A patient arrives as [`Row`]s ([`CollectionBuilder::add_rows`], the
/// synthesis path) or as [`Entry`] values
/// ([`CollectionBuilder::add_patient`], the `ingest::aggregate` path,
/// which converts them to rows). Either way the rows are birth-validated
/// and stably sorted by `(start, end)` (exactly the order repeated
/// [`History::insert`] calls produce), then appended to an arena that
/// every resulting [`History`] views by span — cohort extraction and
/// sorting never copy entry data. A row's code resolves through the
/// builder's memo of its code table (index → [`CodeId`]): the first row
/// pushed that names a code interns it, after the sort, so the
/// dictionary's id order is the order codes first appear in the sorted
/// arena, whichever form the patients came in.
///
/// By default the whole collection shares one arena. At the 1M–10M
/// patient scale a single arena becomes the memory and parallelism
/// ceiling, so [`CollectionBuilder::with_shard_patients`] seals the
/// current arena every *n* patients and starts a fresh one — the
/// [`ShardedStore`] layout the sharded query index rides on. Every arena
/// interns into the one dictionary, and [`CollectionBuilder::build`]
/// hands them all its final version.
#[derive(Debug, Default)]
pub struct CollectionBuilder {
    store: EventStore,
    /// Arenas already sealed by the patient-range shard cut, each on a
    /// prefix of `store`'s dictionary.
    sealed: Vec<EventStore>,
    /// `(patient, arena slot, lo, hi)` — the slot indexes `sealed` after
    /// the final seal in [`CollectionBuilder::build`].
    patients: Vec<(Patient, u32, u32, u32)>,
    /// Patients in the not-yet-sealed arena.
    in_current: u32,
    /// Seal threshold; 0 = monolithic (the default).
    shard_patients: u32,
    report: ValidationReport,
    /// The code table a [`RowItem`] code indexes.
    codes: Vec<Code>,
    /// `ids[i]`: the id of `codes[i]` in `store`'s dictionary, once a
    /// pushed row has named it.
    ids: Vec<Option<CodeId>>,
}

impl CollectionBuilder {
    /// An empty builder (monolithic: one shared arena).
    pub fn new() -> CollectionBuilder {
        CollectionBuilder::default()
    }

    /// Seal the arena every `n` patients, giving each patient range its
    /// own [`EventStore`] on the shared dictionary. `0` restores the
    /// monolithic default. Aligning `n` with the query index's shard
    /// width (65 536) keeps one arena per index shard.
    pub fn with_shard_patients(mut self, n: usize) -> CollectionBuilder {
        self.shard_patients = u32::try_from(n).unwrap_or(u32::MAX);
        self
    }

    /// The code table the coded [`RowItem`]s of [`Self::add_rows`] index.
    /// A code may appear more than once; nothing is interned until a row
    /// naming it is pushed.
    pub fn with_codes(mut self, codes: Vec<Code>) -> CollectionBuilder {
        self.ids = vec![None; codes.len()];
        self.codes = codes;
        self
    }

    /// Seal the open arena and open the next on its dictionary.
    fn seal(&mut self) {
        let next = EventStore::with_dictionary(Arc::clone(&self.store.dict));
        self.sealed.push(std::mem::replace(&mut self.store, next));
    }

    /// Add one patient's rows (any order; they are validated against the
    /// birth date and sorted here), draining `rows` so its buffer serves
    /// the next patient. Returns this patient's report. Panics if a coded
    /// row's index is outside the code table.
    pub fn add_rows(&mut self, patient: Patient, rows: &mut Vec<Row>) -> ValidationReport {
        if self.shard_patients > 0 && self.in_current >= self.shard_patients {
            self.seal();
            self.in_current = 0;
        }
        let offered = rows.len();
        rows.retain(|row| patient.admits(row.start));
        let report =
            ValidationReport { accepted: rows.len(), dropped_pre_birth: offered - rows.len() };
        rows.sort_by_key(|row| (row.start, row.end));
        #[expect(clippy::cast_possible_truncation, reason = "arena count stays far below u32::MAX")]
        let slot = self.sealed.len() as u32;
        let lo = self.store.len_u32();
        for row in rows.drain(..) {
            let mut code = |tag, i: u32| {
                let id = &mut self.ids[i as usize];
                let id = *id.get_or_insert_with(|| {
                    CodeDictionary::intern_shared(&mut self.store.dict, &self.codes[i as usize])
                });
                Stored::Code(tag, id)
            };
            let item = match row.item {
                RowItem::Diagnosis(i) => code(TAG_DIAGNOSIS, i),
                RowItem::Medication(i) => code(TAG_MEDICATION, i),
                RowItem::Measurement { kind, value } => Stored::Measurement(kind, value),
                RowItem::Episode(k) => Stored::Episode(k),
                RowItem::Note(text) => Stored::Note(Cow::Owned(text)),
            };
            self.store.push_stored(row.start, row.end, row.interval, row.source, item);
        }
        let hi = self.store.len_u32();
        self.patients.push((patient, slot, lo, hi));
        self.in_current += 1;
        self.report.merge(&report);
        report
    }

    /// Add one patient's entries: [`Self::add_rows`] over them, their
    /// codes appended to the code table for the call.
    pub fn add_patient(
        &mut self,
        patient: Patient,
        entries: impl IntoIterator<Item = Entry>,
    ) -> ValidationReport {
        let table = self.codes.len();
        let mut code = |c| {
            self.codes.push(c);
            self.ids.push(None);
            u32::try_from(self.codes.len() - 1).expect("code table holds < 2^32 codes")
        };
        let entries = entries.into_iter();
        let mut rows = Vec::with_capacity(entries.size_hint().0);
        for e in entries {
            let (start, end, interval, source) = (e.start(), e.end(), e.is_interval(), e.source());
            let payload = match e {
                Entry::Event(e) => e.payload,
                Entry::Interval(i) => i.payload,
            };
            let item = match payload {
                Payload::Diagnosis(c) => RowItem::Diagnosis(code(c)),
                Payload::Medication(c) => RowItem::Medication(code(c)),
                Payload::Measurement { kind, value } => RowItem::Measurement { kind, value },
                Payload::Episode(k) => RowItem::Episode(k),
                Payload::Note(text) => RowItem::Note(text),
            };
            rows.push(Row { start, end, interval, source, item });
        }
        let report = self.add_rows(patient, &mut rows);
        self.codes.truncate(table);
        self.ids.truncate(table);
        report
    }

    /// Move `other`'s patients in after this builder's, for builders
    /// filled in parallel over consecutive patient ranges. Interns
    /// `other`'s codes into this builder's dictionary in `other`'s id
    /// order and re-numbers its arenas' code rows to match, seals the
    /// current arena (unless it is still empty), then takes `other`'s
    /// sealed arenas with their slots re-based, its open arena and its
    /// report. Appending at every `shard_patients` boundary lays out the
    /// arenas, their code columns and the dictionary exactly as one
    /// builder fed every patient would.
    pub fn append(&mut self, mut other: CollectionBuilder) {
        if other.patients.is_empty() {
            return;
        }
        let mut dict = Arc::clone(&self.store.dict);
        let ids: Vec<u32> =
            other.store.dict.iter().map(|code| CodeDictionary::intern_shared(&mut dict, code).0).collect();
        for store in other.sealed.iter_mut().chain([&mut other.store]) {
            store.renumber(&ids, &dict);
        }
        let open = std::mem::replace(&mut self.store, other.store);
        if !self.patients.is_empty() {
            self.sealed.push(open);
        }
        #[expect(clippy::cast_possible_truncation, reason = "arena count stays far below u32::MAX")]
        let base = self.sealed.len() as u32;
        self.sealed.extend(other.sealed);
        let rebased = other.patients.into_iter().map(|(p, slot, lo, hi)| (p, slot + base, lo, hi));
        self.patients.extend(rebased);
        self.in_current = other.in_current;
        self.report.merge(&other.report);
    }

    /// Finish: one [`History`] span per patient (in insertion order) over
    /// the shared arena(s), every arena on the final dictionary, plus the
    /// merged validation report.
    pub fn build(self) -> (HistoryCollection, ValidationReport) {
        let dict = Arc::clone(&self.store.dict);
        let mut arenas: Vec<Arc<EventStore>> = self
            .sealed
            .into_iter()
            .map(|store| Arc::new(EventStore { dict: Arc::clone(&dict), ..store }))
            .collect();
        arenas.push(Arc::new(self.store));
        let collection = HistoryCollection::from_histories(
            self.patients.into_iter().map(|(patient, slot, lo, hi)| {
                History::from_span(patient, Arc::clone(&arenas[slot as usize]), lo, hi)
            }),
        );
        (collection, self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PatientId, Sex};
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    #[test]
    fn debug_validate_accepts_a_healthy_store() {
        let store = EventStore::from_entries(&sample_entries());
        store.debug_validate();
        store.dictionary().debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "aux column length mismatch")]
    fn debug_validate_catches_a_truncated_column() {
        let mut store = EventStore::from_entries(&sample_entries());
        store.aux.pop();
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside dictionary")]
    fn debug_validate_catches_a_dangling_code_id() {
        let mut store = EventStore::from_entries(&sample_entries());
        store.aux[0] = u32::MAX; // row 0 is a diagnosis: aux is a CodeId
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted view out of order")]
    fn debug_validate_catches_a_scrambled_interner() {
        let mut store = EventStore::from_entries(&sample_entries());
        Arc::make_mut(&mut store.dict).sorted.reverse();
        store.debug_validate();
    }

    /// `sample_entries` plus a second interval: wide rows at 3 and 5.
    #[cfg(debug_assertions)]
    fn two_interval_store() -> EventStore {
        let mut entries = sample_entries();
        entries.push(Entry::interval(
            t(2013, 8, 1),
            t(2013, 8, 3),
            Payload::Episode(EpisodeKind::DayTreatment),
            SourceKind::Hospital,
        ));
        let store = EventStore::from_entries(&entries);
        assert_eq!(store.wide.iter().map(|w| w.row).collect::<Vec<_>>(), [3, 5]);
        store.debug_validate();
        store
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wide table not strictly ascending")]
    fn debug_validate_catches_an_unsorted_wide_table() {
        let mut store = two_interval_store();
        store.wide.swap(0, 1);
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disagree on whether it is wide")]
    fn debug_validate_catches_an_interval_without_its_wide_row() {
        let mut store = two_interval_store();
        store.wide.remove(0);
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disagree on whether it is wide")]
    fn debug_validate_catches_a_wide_row_on_a_point_event() {
        let mut store = two_interval_store();
        store.wide.insert(0, WideRow { row: 0, start: t(2013, 3, 1), end: t(2013, 3, 1) });
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ends before it starts")]
    fn debug_validate_catches_a_reversed_interval() {
        let mut store = two_interval_store();
        store.wide[0].end = t(2013, 5, 31);
        store.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "offset disagrees with its wide start")]
    fn debug_validate_catches_a_wide_start_off_its_offset() {
        let mut store = two_interval_store();
        store.wide[0].start = t(2013, 5, 31);
        store.debug_validate();
    }

    #[test]
    fn starts_outside_the_window_take_the_wide_path() {
        let at = |time| Entry::event(time, Payload::Episode(EpisodeKind::HomeCare), SourceKind::Municipal);
        let base = t(1945, 2, 11); // 24,855 days before the first push
        let entries = vec![
            at(t(2013, 3, 1)),
            at(base),
            at(base + Duration::seconds(i64::from(FAR_START) - 1)),
            at(base + Duration::seconds(-1)),
            at(base + Duration::seconds(i64::from(FAR_START))),
            at(Date::MAX.at(23, 59, 59).unwrap()),
            at(Date::MIN.at_midnight()),
        ];
        let store = EventStore::from_entries(&entries);
        store.debug_validate();
        assert_eq!(store.base, base);
        assert_eq!(store.starts[1..3], [0, FAR_START - 1], "the window's two edges");
        assert_eq!(store.starts[3..], [FAR_START; 4]);
        assert_eq!(store.wide.iter().map(|w| w.row).collect::<Vec<_>>(), [3, 4, 5, 6]);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(store.get(i as u32).to_entry(), *e, "row {i}");
        }
        assert_eq!(store.heap_bytes(), 7 * 9 + 4 * std::mem::size_of::<WideRow>());
        // A store that opens at the calendar's edge clamps its base there.
        let early = EventStore::from_entries(&[at(Date::MIN.at(12, 0, 0).unwrap())]);
        assert_eq!((early.base, early.starts[0]), (Date::MIN.at_midnight(), 12 * 3_600));
        early.debug_validate();
    }

    fn sample_entries() -> Vec<Entry> {
        vec![
            Entry::event(
                t(2013, 3, 1),
                Payload::Diagnosis(Code::icpc("T90")),
                SourceKind::PrimaryCare,
            ),
            Entry::event(
                t(2013, 4, 1),
                Payload::Medication(Code::atc("C07AB02")),
                SourceKind::Prescription,
            ),
            Entry::event(
                t(2013, 5, 1),
                Payload::Measurement { kind: MeasurementKind::SystolicBp, value: 151.5 },
                SourceKind::PrimaryCare,
            ),
            Entry::interval(
                t(2013, 6, 1),
                t(2013, 6, 9),
                Payload::Episode(EpisodeKind::Inpatient),
                SourceKind::Hospital,
            ),
            Entry::event(
                t(2013, 7, 1),
                Payload::Note("kontroll; BT 150/90".into()),
                SourceKind::PrimaryCare,
            ),
        ]
    }

    #[test]
    fn round_trip_is_lossless_and_ordered() {
        let entries = sample_entries();
        let store = EventStore::from_entries(&entries);
        assert_eq!(store.len(), entries.len());
        for (i, e) in entries.iter().enumerate() {
            let r = store.get(i as u32);
            assert_eq!(r, *e, "row {i}");
            assert_eq!(r.to_entry(), *e, "materialized row {i}");
            assert_eq!(r.describe(), e.describe(), "description row {i}");
        }
    }

    #[test]
    fn interning_dedups_codes() {
        let mut entries = sample_entries();
        entries.extend(sample_entries());
        let store = EventStore::from_entries(&entries);
        assert_eq!(store.dictionary().len(), 2, "T90 and C07AB02 interned once");
        let t90 = Code::icpc("T90");
        let id = store.dictionary().lookup(&t90).expect("interned");
        assert_eq!(store.dictionary().resolve(id), &t90);
        assert_eq!(store.get(0).code_id(), Some(id));
        assert_eq!(store.get(5).code_id(), Some(id), "same id across duplicates");
        assert_eq!(store.get(2).code_id(), None, "measurements carry no code");
    }

    #[test]
    fn interner_sorted_runs_share_value_prefixes() {
        let mut dict = CodeDictionary::default();
        for v in ["T90", "K74", "T89", "A01", "T90"] {
            dict.intern(&Code::icpc(v));
        }
        dict.intern(&Code::icd10("T90"));
        assert_eq!(dict.len(), 5);
        let values: Vec<&str> = dict.sorted_from("").map(|(_, c)| c.value.as_str()).collect();
        let mut expect = values.clone();
        expect.sort_unstable();
        assert_eq!(values, expect, "sorted view ordered by value");
        let t9: Vec<&Code> = dict.sorted_from("T9").map(|(_, c)| c).collect();
        assert_eq!(t9.len(), 2, "both systems' T90 open the T9 run");
        assert!(t9.iter().all(|c| c.value == "T90"));
    }

    /// A version derived copy-on-write extends its parent; two versions
    /// grown apart from one parent are prefixes of neither.
    #[test]
    fn prefix_versions_are_told_apart_in_constant_time() {
        let mut base = CodeDictionary::default();
        base.intern(&Code::icpc("T90"));
        let empty = CodeDictionary::default();
        assert!(empty.is_prefix_of(&base) && base.is_prefix_of(&base));
        let (mut left, mut right) = (base.clone(), base.clone());
        left.intern(&Code::icpc("K74"));
        right.intern(&Code::icpc("A01"));
        assert!(base.is_prefix_of(&left) && base.is_prefix_of(&right));
        assert!(!left.is_prefix_of(&base), "a longer version is no prefix");
        assert!(!left.is_prefix_of(&right) && !right.is_prefix_of(&left));
        let mut twin = CodeDictionary::default();
        twin.intern(&Code::icpc("T90"));
        assert!(!twin.is_prefix_of(&left), "equal codes, another lineage");
        assert_eq!(twin, base, "but equal as dictionaries");
    }

    #[test]
    fn columnar_layout_is_smaller_than_aos() {
        let mut entries = Vec::new();
        for i in 0..1000u32 {
            entries.push(Entry::event(
                t(2013, 1 + (i % 12), 1 + (i % 28)),
                Payload::Diagnosis(Code::icpc(if i.is_multiple_of(2) { "T90" } else { "K74" })),
                SourceKind::PrimaryCare,
            ));
        }
        let store = EventStore::from_entries(&entries);
        let columnar = store.heap_bytes();
        let aos = entries.len() * std::mem::size_of::<Entry>()
            + entries.iter().filter_map(|e| e.code()).map(|c| c.value.len()).sum::<usize>();
        assert!(
            columnar * 2 < aos,
            "columnar {columnar} B should be well under half of AoS {aos} B"
        );
    }

    #[test]
    fn builder_shares_one_arena() {
        let mut b = CollectionBuilder::new();
        for id in 1..=3u64 {
            let patient = Patient {
                id: PatientId(id),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            };
            b.add_patient(patient, sample_entries());
        }
        let (collection, report) = b.build();
        assert_eq!(report.accepted, 15);
        assert_eq!(collection.len(), 3);
        let stores: Vec<_> =
            collection.iter().map(|h| Arc::as_ptr(h.store())).collect();
        assert!(stores.windows(2).all(|w| w[0] == w[1]), "one shared arena");
        for h in &collection {
            assert_eq!(h.len(), 5);
            assert!(h.entries().iter().all(|e| e.start() >= t(2013, 3, 1)));
        }
    }

    #[test]
    fn sharded_builder_seals_one_arena_per_patient_range() {
        let mut b = CollectionBuilder::new().with_shard_patients(2);
        for id in 1..=5u64 {
            let patient = Patient {
                id: PatientId(id),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            };
            b.add_patient(patient, sample_entries());
        }
        let (collection, report) = b.build();
        assert_eq!(report.accepted, 25);
        assert_eq!(collection.len(), 5);
        let sharded = collection.sharded_store();
        assert_eq!(sharded.shard_count(), 3, "5 patients / 2 per shard = 3 arenas");
        assert_eq!(sharded.total_entries(), 25);
        assert_eq!(sharded.shard_bytes().len(), 3);
        assert!(sharded.total_bytes() > 0);
        // Patients 1-2 share the first arena, 3-4 the second, 5 the third.
        let ptrs: Vec<_> = collection.iter().map(|h| Arc::as_ptr(h.store())).collect();
        assert_eq!(ptrs[0], ptrs[1]);
        assert_eq!(ptrs[2], ptrs[3]);
        assert_ne!(ptrs[0], ptrs[2]);
        assert_ne!(ptrs[2], ptrs[4]);
        // Every arena is on the collection's one dictionary.
        for h in &collection {
            assert_eq!(h.len(), 5);
            assert!(Arc::ptr_eq(h.store().dictionary(), collection.dictionary()));
            h.debug_validate();
        }
        // Spans restart at each fresh arena.
        for shard in sharded.shards() {
            assert_eq!(shard.len() % 5, 0);
            shard.debug_validate();
        }
    }

    #[test]
    fn sharded_and_monolithic_builders_agree_on_contents() {
        let make = |shard: usize| {
            let mut b = CollectionBuilder::new().with_shard_patients(shard);
            for id in 1..=4u64 {
                let patient = Patient {
                    id: PatientId(id),
                    birth_date: Date::new(1950, 1, 1).unwrap(),
                    sex: Sex::Male,
                };
                b.add_patient(patient, sample_entries());
            }
            b.build().0
        };
        let mono = make(0);
        let sharded = make(3);
        assert_eq!(mono.sharded_store().shard_count(), 1);
        assert_eq!(sharded.sharded_store().shard_count(), 2);
        for (a, b) in mono.iter().zip(sharded.iter()) {
            assert_eq!(a.patient().id, b.patient().id);
            assert_eq!(a.entries().to_vec(), b.entries().to_vec());
        }
    }

    #[test]
    fn builder_validates_and_sorts() {
        let mut b = CollectionBuilder::new();
        let patient = Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 6, 15).unwrap(),
            sex: Sex::Male,
        };
        let report = b.add_patient(
            patient,
            vec![
                Entry::event(
                    t(2015, 6, 1),
                    Payload::Diagnosis(Code::icpc("K74")),
                    SourceKind::PrimaryCare,
                ),
                Entry::event(
                    t(1949, 1, 1),
                    Payload::Diagnosis(Code::icpc("A01")),
                    SourceKind::PrimaryCare,
                ),
                Entry::event(
                    t(2014, 1, 1),
                    Payload::Diagnosis(Code::icpc("T90")),
                    SourceKind::PrimaryCare,
                ),
            ],
        );
        assert_eq!(report, ValidationReport { accepted: 2, dropped_pre_birth: 1 });
        let (collection, _) = b.build();
        let h = collection.get(PatientId(1)).unwrap();
        let starts: Vec<_> = h.entries().iter().map(|e| e.start()).collect();
        assert_eq!(starts, vec![t(2014, 1, 1), t(2015, 6, 1)]);
    }
}
