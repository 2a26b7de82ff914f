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
//! vocabularies per dimension, and the collection's row table holds every
//! patient-level input as a column, the digest columns (dominant
//! buckets, first-contact year, distinct code ids, month runs) included.
//! [`cohort_profile`] folds `|cohort|` rows into `u32` accumulator arrays
//! — no entries, no strings, no hashing — ORing one [`condition_mask`] a
//! code over each row's codes; [`cohort_monthly`] folds their month runs.
//! Partial accumulators merge by vector addition, so the profile is
//! independent of thread count, which the property tests check against
//! the naive serial per-entry oracle ([`cohort_profile_serial`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod dimensions;
pub mod profile;
mod tables;

#[cfg(test)]
mod proptests;

pub use profile::{
    cohort_monthly, cohort_profile, cohort_profile_serial, CohortProfile, Histogram, DEFAULT_TOP_K,
};
pub use tables::condition_mask;
