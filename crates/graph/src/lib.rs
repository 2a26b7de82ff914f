//! The NSEPter prototype, rebuilt as the paper's baseline.
//!
//! §II.A.1 describes it exactly: each history on a horizontal line of
//! diagnosis nodes; regex-driven node merging "performed serially from the
//! beginning of the histories, so that the first occurrence of a node from
//! one history was merged with the first from all the other histories";
//! recursive neighbour merging "in a hope that the histories would exhibit
//! similar patterns before or after an important event"; edge widths
//! "scaled according to the number of histories exhibiting the transition".
//!
//! The paper also lists its weaknesses — time is lost, graphs become
//! "virtually unreadable" at scale (Fig. 2b), and the merge is noise-
//! fragile and order-dependent. We reproduce the behaviour *and* the
//! weaknesses faithfully: E3 quantifies the crowding against the timeline
//! design, and E9 quantifies the merge fragility against the alignment
//! consensus.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod build;
pub mod layout;
pub mod merge;
pub mod metrics;

pub use build::{DiGraph, NodeId};
pub use layout::{layout, GraphLayout};
pub use merge::{merge_neighbors, merge_on_regex};
pub use metrics::{crowding, GraphMetrics};
