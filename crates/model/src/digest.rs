//! The digest columns of the row table, what a cohort profile reads of a
//! history beyond its patient and entry count: [`Dominant`] buckets, the
//! first-contact year, the distinct code ids and the month runs ([`Run`]).
//! They are written wherever a row is, so a fold never walks an entry.

use crate::{CodeId, Entries, History, SourceKind, FAR_START};
use pastas_codes::atc::{AtcCode, LEVEL1_GROUPS};
use pastas_codes::icd10::{Icd10Code, CHAPTERS};
use pastas_codes::{Code, CodeSystem};
use pastas_time::{Date, DateTime};
use std::ops::Range;

/// One month run of a row: the months since the row's previous run (the
/// first run counts from January of the row's first-contact year) in the
/// high byte, the entries starting in that month in the low byte. A step
/// or a count wider than a byte splits the run: `(255, 0)` runs carry a
/// long gap, `(0, n)` runs continue a month of more than 255 entries.
pub type Run = u16;

/// The first-contact year of a row without entries.
pub const NO_YEAR: i16 = i16::MIN;

/// A [`CodeGroups`] field of a code outside the dimension.
pub const NO_GROUP: u8 = u8::MAX;

/// What one code counts towards a row's dominant chapter and group: its
/// ICD-10 chapter index (in [`CHAPTERS`]) and its ATC main-group index
/// (in [`LEVEL1_GROUPS`]), each [`NO_GROUP`] where the code has none.
/// The dictionary holds one a code ([`crate::CodeDictionary::groups`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeGroups {
    /// ICD-10 chapter index, or [`NO_GROUP`].
    pub chapter: u8,
    /// ATC main-group index, or [`NO_GROUP`].
    pub atc: u8,
}

impl CodeGroups {
    /// Parse `code` once.
    pub fn of(code: &Code) -> CodeGroups {
        let byte = |index: Option<usize>| index.and_then(|i| u8::try_from(i).ok()).unwrap_or(NO_GROUP);
        let icd = (code.system == CodeSystem::Icd10).then(|| Icd10Code::parse(&code.value));
        let atc = (code.system == CodeSystem::Atc).then(|| AtcCode::parse(&code.value));
        CodeGroups {
            chapter: byte(icd.flatten().and_then(Icd10Code::chapter_index)),
            atc: byte(atc.flatten().map(|c| c.main_group_index())),
        }
    }
}

/// A row's dominant buckets: the most frequent source
/// ([`SourceKind::dense_index`]), ICD-10 chapter and ATC main group of its
/// entries, lowest index winning ties; each dimension's bucket count (its
/// `none` bucket) where the row has no such entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dominant {
    /// Dominant source.
    pub source: u8,
    /// Dominant ICD-10 chapter.
    pub chapter: u8,
    /// Dominant ATC main group.
    pub atc: u8,
}

/// Index of the most frequent bucket, lowest index winning ties;
/// `counts.len()` (the dimension's trailing `none` bucket) if every
/// count is zero.
pub fn dominant(counts: &[u32]) -> usize {
    let best = counts.iter().enumerate().max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)));
    best.filter(|&(_, &max)| max > 0).map_or(counts.len(), |(at, _)| at)
}

/// One list per row of a chunk, CSR style: row `i`'s list is
/// `items[ends[i]..ends[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr<T> {
    items: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Default for Csr<T> {
    fn default() -> Csr<T> {
        Csr { items: Vec::new(), ends: vec![0] }
    }
}

impl<T: Copy> Csr<T> {
    /// Write row `at`'s list: appended when `at` is the row count, else
    /// spliced over the old one. A chunk copied for a write has no spare
    /// capacity; a longer list grows it by an eighth at least, so the
    /// rows one publish rewrites share a reallocation and the chunk keeps
    /// at most that eighth spare (doubling would keep a half).
    pub(crate) fn set(&mut self, at: usize, list: &[T]) {
        let end = |len: usize| u32::try_from(len).unwrap_or(u32::MAX);
        if at + 1 == self.ends.len() {
            self.items.extend_from_slice(list);
            self.ends.push(end(self.items.len()));
            return;
        }
        let (lo, hi) = (self.ends[at] as usize, self.ends[at + 1] as usize);
        let growth = list.len().saturating_sub(hi - lo);
        if self.items.len() + growth > self.items.capacity() {
            self.items.reserve_exact(growth.max(self.items.len() / 8));
        }
        self.items.splice(lo..hi, list.iter().copied());
        let grown = end(list.len()).wrapping_sub(end(hi - lo));
        for row_end in &mut self.ends[at + 1..] {
            *row_end = row_end.wrapping_add(grown);
        }
    }

    /// Every row's list.
    pub(crate) fn lists(&self) -> Lists<'_, T> {
        Lists { items: &self.items, ends: &self.ends }
    }

    /// Release the spare capacity of a finished chunk.
    pub(crate) fn shrink(&mut self) {
        self.items.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes at full capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.items.capacity() * size_of::<T>() + self.ends.capacity() * size_of::<u32>()
    }
}

/// Consecutive rows' lists, borrowed from one chunk: row `i`'s is
/// [`Self::get`]`(i)`.
#[derive(Debug, Clone, Copy)]
pub struct Lists<'a, T> {
    items: &'a [T],
    /// One more than the rows: row `i` ends where row `i + 1` starts.
    ends: &'a [u32],
}

impl<'a, T> Lists<'a, T> {
    /// The list of row `i`.
    pub fn get(&self, i: usize) -> &'a [T] {
        &self.items[self.ends[i] as usize..self.ends[i + 1] as usize]
    }

    /// The lists of rows `rows` of these.
    pub(crate) fn slice(self, rows: Range<usize>) -> Lists<'a, T> {
        Lists { items: self.items, ends: &self.ends[rows.start..=rows.end] }
    }
}

/// One row's digest, computed from its history; the lists' buffers are
/// reused from row to row.
#[derive(Debug, Default)]
pub(crate) struct Digest {
    pub(crate) dominant: Dominant,
    pub(crate) first_year: i16,
    pub(crate) codes: Vec<CodeId>,
    pub(crate) runs: Vec<Run>,
}

impl Digest {
    /// Overwrite with the digest of `history`: one pass over its source
    /// and code columns (code groups from its own dictionary, a version
    /// of the collection's), then one over its start offsets.
    pub(crate) fn fill(&mut self, history: &History) {
        let dict = history.store().dictionary();
        let mut per_source = [0u32; SourceKind::ALL.len()];
        let mut per_chapter = [0u32; CHAPTERS.len()];
        let mut per_atc = [0u32; LEVEL1_GROUPS.len()];
        self.codes.clear();
        for (source, code) in history.entries().scan() {
            per_source[source.dense_index()] += 1;
            if let Some(id) = code {
                let groups = dict.groups(id);
                if let Some(count) = per_chapter.get_mut(usize::from(groups.chapter)) {
                    *count += 1;
                }
                if let Some(count) = per_atc.get_mut(usize::from(groups.atc)) {
                    *count += 1;
                }
                self.codes.push(id);
            }
        }
        self.codes.sort_unstable();
        self.codes.dedup();
        let byte = |index: usize| u8::try_from(index).unwrap_or(NO_GROUP);
        self.dominant = Dominant {
            source: byte(dominant(&per_source)),
            chapter: byte(dominant(&per_chapter)),
            atc: byte(dominant(&per_atc)),
        };
        // Every calendar year (±9999) fits.
        let year = |t: DateTime| i16::try_from(t.date().year()).unwrap_or(NO_YEAR);
        self.first_year = history.first_time().map_or(NO_YEAR, year);
        self.runs.clear();
        self.push_runs(history.entries());
    }

    /// Append the month runs of `entries`. The starts come from the
    /// arena's offset column (a [`FAR_START`] row through its `EntryRef`)
    /// and are sorted, so a run is one calendar conversion — the month of
    /// its first start and the first day of the next month — and a scan of
    /// the offsets below that day's first second.
    fn push_runs(&mut self, entries: Entries<'_>) {
        let (base, offsets) = entries.start_offsets();
        // The arena's base is a midnight, so `offset / 86_400` is a day.
        let base_day = base.second_number().div_euclid(86_400);
        let day_of = |at: usize| match offsets[at] {
            FAR_START => entries.get(at).start().second_number().div_euclid(86_400),
            offset => base_day + i64::from(offset / 86_400),
        };
        let mut last = i32::from(self.first_year) * 12;
        let (mut month, mut count, mut at) = (last, 0, 0);
        while at < offsets.len() {
            let day = day_of(at);
            let date = Date::from_day_number(day).unwrap_or(Date::MAX);
            let run_month = date.year() * 12 + date.month() as i32 - 1;
            // A far start is never below the limit: it opens a run.
            let next = day + i64::from(date.days_in_month() - date.day()) + 1;
            let limit = (next - base_day).saturating_mul(86_400).clamp(0, i64::from(FAR_START));
            let limit = u32::try_from(limit).unwrap_or(FAR_START);
            let run = 1 + offsets[at + 1..].iter().take_while(|&&offset| offset < limit).count();
            if run_month != month {
                self.push_run(&mut last, month, count);
                (month, count) = (run_month, 0);
            }
            count += u32::try_from(run).unwrap_or(u32::MAX);
            at += run;
        }
        self.push_run(&mut last, month, count);
    }

    /// Append `count` entries in `month`, `month - last` months after the
    /// previous run (none if `count` is 0), split to fit [`Run`].
    fn push_run(&mut self, last: &mut i32, month: i32, mut count: u32) {
        if count == 0 {
            return;
        }
        let mut step = month - *last;
        *last = month;
        while step > 255 {
            self.runs.push(255 << 8);
            step -= 255;
        }
        while count > 0 {
            let part = count.min(255);
            #[expect(clippy::cast_possible_truncation, reason = "step and part are 0..=255 here")]
            let run = (step as Run) << 8 | part as Run;
            self.runs.push(run);
            (step, count) = (0, count - part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_breaks_ties_low_and_knows_none() {
        assert_eq!(dominant(&[0, 3, 3, 1]), 1);
        assert_eq!(dominant(&[0, 0]), 2);
    }
}
