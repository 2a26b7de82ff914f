//! Sequence alignment over diagnosis code sequences.
//!
//! The second predecessor project (§II.A.2) "employed alignment methods and
//! different measures to reduce the amount of noise … calculated
//! abstractions over sequences of diagnosis instances and mined for
//! relations between the diagnosis codes themselves." This crate rebuilds
//! that layer and fixes the NSEPter weaknesses the paper enumerates (the
//! serial merge "would miss an opportunity to merge nodes if two histories
//! differed in one single position. Moreover, the order in which the
//! histories were merged, mattered."):
//!
//! * [`scoring`] — hierarchy-aware code similarity (same code ≫ same
//!   chapter ≫ unrelated; the ICPC↔ICD bridge scores cross-system pairs);
//! * [`pairwise`] — Needleman–Wunsch global and Smith–Waterman local
//!   alignment with affine gaps (Gotoh);
//! * [`msa`] — progressive (star) multiple alignment;
//! * [`consensus`] — order-independent, noise-resilient consensus merging
//!   from MSA columns — the E9 ablation pits it against NSEPter's serial
//!   merge;
//! * [`abstraction`] — sequence abstraction (chapter roll-up, run
//!   collapsing);
//! * [`mining`] — ordered-pair association mining (support, confidence,
//!   lift);
//! * [`cluster`] — alignment-distance trajectory clustering (agglomerative,
//!   average linkage, with medoid representatives) answering the paper's
//!   "how can meaningful groups of these be extracted?".

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod abstraction;
pub mod cluster;
pub mod consensus;
pub mod mining;
pub mod msa;
pub mod pairwise;
pub mod scoring;

pub use consensus::{consensus_sequence, ConsensusColumn};
pub use msa::MultipleAlignment;
pub use pairwise::{global_align, local_align, AlignedPair, AlignmentResult};
pub use scoring::Scoring;

#[cfg(test)]
mod proptests;
