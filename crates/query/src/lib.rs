//! Cohort identification and exploration operators.
//!
//! §IV: "Interactive operations on this diagram include **extraction of
//! sub-collections, sorting and aligning histories, filtering events, and
//! searching for temporal patterns**." This crate is the headless engine
//! behind all four, plus the Fig. 4 query builder:
//!
//! * [`predicate`] — entry-level predicates, including the regex code
//!   filters of §IV.A (`F.*|H.*`) with boolean composition;
//! * [`query`] — history-level queries and the fluent [`QueryBuilder`];
//! * [`temporal`] — temporal pattern search: ordered event sequences with
//!   gap constraints ("T90 then hospitalization within 90 days");
//! * [`bitmap`] — compressed roaring-style posting bitmaps: set algebra
//!   on array/bits/run containers without materializing positions;
//! * [`index`] — the inverted code index, sharded by patient range with
//!   compressed postings, that keeps selection interactive from 168k to
//!   10M patients (the indexed-vs-scan ablation of E5/E8 compares
//!   against the naive path);
//! * [`normalize`](mod@normalize) — logical rewriting into one canonical form per query
//!   meaning (negation at the leaves, flat sorted clauses);
//! * [`plan`] — the physical planner/executor: set algebra over posting
//!   lists with residual verification and `Explain` introspection;
//! * [`ops`] — the workbench operators: sort, and align on a code bound
//!   once to the collection's code dictionary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
// A request path degrades to a typed error, never a panic.
#![deny(clippy::indexing_slicing, clippy::string_slice, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unreachable, clippy::unimplemented)]

pub mod bitmap;
pub mod index;
pub mod normalize;
pub mod plan;
#[cfg(test)]
mod proptests;
pub mod ops;
pub mod parse;
pub mod predicate;
pub mod query;
mod radix;
pub mod temporal;

pub use bitmap::Bitmap;
pub use index::{CodeIndex, IndexFootprint};
pub use normalize::{canonical_fingerprint, normalize};
pub use ops::{align_on, align_rows, sort_histories, Alignment, SortKey};
pub use plan::{Explain, ExplainNode, PlanNode, QueryPlan};
pub use predicate::{BoundPredicate, EntryPredicate};
pub use parse::parse_query;
pub use query::{HistoryQuery, QueryBuilder};
pub use temporal::{GapBound, StepConstraint, TemporalPattern};
