//! The PAsTAs patient data model.
//!
//! §IV of the paper fixes the model precisely: "all content to be visualized
//! or queried is pre-loaded into a data structure … The entries themselves
//! are either **intervals**, defined by their start and end times, or
//! **events** that happen at a given time and have no duration. Intervals
//! could be notions such as *Hospital stay*. Concerning point events, these
//! are single day contacts, usually with a recorded diagnosis. … entries
//! with a clearly invalid date (prior to the birth of the patient) are
//! ignored."
//!
//! This crate is that data structure:
//!
//! * [`Entry`] — an [`Event`] (point) or an [`Interval`], each carrying a
//!   [`Payload`] and a [`SourceKind`] provenance tag;
//! * [`History`] — one patient's validated, time-ordered entry sequence;
//! * [`HistoryCollection`] — the in-memory cohort the workbench operates on,
//!   a copy-on-write row table of [`CHUNK_ROWS`]-row chunks (histories
//!   inline beside the per-row sort keys and demographics, read as
//!   [`RowSpan`]s), with sub-collection extraction and summary statistics;
//! * [`EventStore`] — the columnar arena behind histories, its code ids
//!   into the collection's one [`CodeDictionary`],
//!   with the zero-copy [`EntryRef`]/[`Entries`] views the hot query, viz,
//!   and align paths iterate (see the `store` module docs for the layout).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
// No silent narrowing cast (tests may narrow).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod collection;
mod digest;
mod entry;
mod epoch;
mod history;
mod store;

pub use collection::{
    CollectionStats, Histories, HistoriesIter, HistoryCollection, RowSpan, CHUNK_ROWS,
};
pub use digest::{dominant, CodeGroups, Dominant, Lists, Run, NO_GROUP, NO_YEAR};
pub use entry::{EpisodeKind, Entry, Event, Interval, MeasurementKind, Payload, SourceKind};
pub use epoch::OpenEpoch;
pub use history::{History, Patient, Sex, ValidationReport};
pub use store::{
    CodeDictionary, CodeId, CollectionBuilder, Entries, EntriesIter, EntryRef, EntryView,
    EventStore, MemoryFootprint, PayloadRef, Row, RowItem, ShardedStore, StoreBytes, FAR_START,
};

/// A patient identifier, unique within a collection.
///
/// The paper shows "patient ID numbers (taken from the database) … along the
/// vertical axis"; this is that number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatientId(pub u64);

impl std::fmt::Display for PatientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{:07}", self.0)
    }
}

impl PatientId {
    /// Append this id's [`Display`](std::fmt::Display) form (`P` and at
    /// least seven digits) to `out` without the formatting machinery: a
    /// response listing several hundred thousand ids spends most of its
    /// time there otherwise.
    pub fn push_to(self, out: &mut String) {
        let mut digits = [b'0'; 20]; // u64::MAX has twenty
        let mut at = digits.len();
        let mut rest = self.0;
        while rest > 0 {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        out.push('P');
        out.extend(digits[at.min(digits.len() - 7)..].iter().map(|&d| char::from(d)));
    }
}

#[cfg(test)]
mod tests {
    use super::PatientId;

    #[test]
    fn push_to_writes_the_display_form() {
        let mut out = String::new();
        for id in [0, 7, 9_999_999, 10_000_000, 1_234_567_890_123, u64::MAX] {
            out.clear();
            PatientId(id).push_to(&mut out);
            assert_eq!(out, PatientId(id).to_string());
        }
        assert_eq!(PatientId(42).to_string(), "P0000042");
    }
}

#[cfg(test)]
mod proptests;
