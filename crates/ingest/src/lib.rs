//! Aggregation of heterogeneous clinical sources.
//!
//! The paper's title promise — "patient histories **aggregated from
//! heterogeneous sources**" — lives here. Four registries arrive in four
//! CSV dialects with four patient-identifier schemes and assorted data-
//! quality problems (duplicates, "clearly invalid" dates, free text with
//! "differing conventions and many typing errors"). This crate turns them
//! into one validated [`HistoryCollection`](pastas_model::HistoryCollection):
//!
//! * [`csv`] — a small delimiter-configurable line parser;
//! * [`adapters`] — one adapter per source file, each tolerant of bad rows
//!   (errors are *counted*, not fatal);
//! * [`linkage`] — identity resolution across the four id schemes, anchored
//!   in the person register (or in the persons a feed registered, over a
//!   row table already held);
//! * [`extract`] — regex extraction of measurements from free-text notes
//!   (`"BT 150/90"` → systolic + diastolic entries), per §IV.A;
//! * [`delta`] — one source text (a whole file or a streamed increment)
//!   parsed into per-patient entry deltas: adapters, linkage and the
//!   source→entry conventions, in one place;
//! * [`aggregate`](mod@aggregate) — the batch pipeline: the delta parser over the five
//!   files, then merge → dedup → validate, with a [`QualityReport`]
//!   accounting for every dropped row.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod adapters;
pub mod aggregate;
pub mod csv;
pub mod delta;
pub mod extract;
pub mod json;
pub mod linkage;

pub use aggregate::{aggregate, entry_fingerprint, EntryFingerprint, QualityReport, SourceTexts};
pub use delta::{parse_delta, DeltaBatch, DeltaFormat, PatientDelta};
pub use linkage::{IdentityRegistry, Linkage, Overlay};

#[cfg(test)]
mod proptests;
