//! Columnar cohort analytics: the dimension-breakdown pass behind the
//! paper's iterative refinement loop.
//!
//! The paper's users select a cohort, inspect its *composition*, and
//! refine the criteria — the counts → explore → materialize →
//! dimension-breakdown workflow. This crate computes the inspection
//! step: nine dimension histograms (age band, sex, dominant event
//! source, events-per-patient band, history-span band, dominant ICD-10
//! chapter, dominant ATC main group, first-contact year, top-k codes —
//! plus a condition breakdown resolved through the integration ontology)
//! over the selected patients.
//!
//! The design is dense ids end to end: [`dimensions`] fixes small bucket
//! vocabularies per dimension, and a [`PatientColumns`] digest column —
//! one 24-byte row per patient plus its distinct code ids, built
//! once per collection and carried across ingests from the touched rows —
//! holds every patient-level attribute, so the fold indexes `u32`
//! accumulator arrays over `|cohort|` rows: no entries, no strings, no
//! hashing. The same column keeps each patient's (month, count) runs, so
//! the cohort's monthly series ([`PatientColumns::monthly`]) folds runs,
//! not entries. Partial accumulators merge by vector addition via
//! `pastas_par::par_fold`, so the profile is deterministic and
//! independent of thread count, which the property tests check against
//! the naive serial per-entry oracle ([`cohort_profile_serial`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod columns;
pub mod dimensions;
pub mod profile;
mod tables;

#[cfg(test)]
mod proptests;

pub use columns::PatientColumns;
pub use profile::{cohort_profile_serial, CohortProfile, Histogram, DEFAULT_TOP_K};
