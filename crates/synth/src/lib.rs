//! Synthetic population and raw-source generation.
//!
//! The paper's data — "a prospective longitudinal cohort study with data on
//! somatic primary and specialist health care utilization for a two-year
//! period" over **168,000** patients — is proprietary Norwegian registry
//! data. This crate is the documented substitution (see DESIGN.md §2): a
//! seeded generator that reproduces the *statistical shape* that matters to
//! the workbench:
//!
//! * an adult, chronically-ill-skewed age/sex structure;
//! * per-condition prevalence rising with age (diabetes calibrated near the
//!   paper's 13k/168k ≈ 7.7% cohort selectivity);
//! * per-condition care pathways over the two-year window: GP contacts
//!   with ICPC-2 diagnoses and measurements, specialist contacts, hospital
//!   episodes with ICD-10 codes, ATC-coded dispensings on refill cycles,
//!   and municipal-care intervals for the frail elderly;
//! * background noise: unrelated acute contacts, out-of-hours visits.
//!
//! Output comes in two forms. [`generate_collection`] builds the in-memory
//! [`HistoryCollection`] directly (used at the full 168k scale).
//! [`emit::RawSources`] renders the same population as **four raw source
//! files in four deliberately different CSV dialects with four different
//! patient-identifier schemes** — the heterogeneous inputs `pastas-ingest`
//! must align.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod conditions;
pub mod emit;
pub mod golden;
mod pathways;
mod population;

pub use population::{
    generate_collection, generate_population, person_at, Person, Population, SynthConfig,
};

pub use pastas_model::HistoryCollection;
