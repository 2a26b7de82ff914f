//! Perceptual models behind the visualization design.
//!
//! §II.B of the paper grounds its encoding choices in preattentive
//! processing: "the time used to process the visualization (search for the
//! red circle) is independent of the number of distracting elements", while
//! conjunction search "increases linearly with the number of distracting
//! elements". This crate makes those claims *executable*:
//!
//! * [`search`] — a visual-search response-time simulator in the
//!   Treisman feature-integration tradition, plus a classifier that decides
//!   whether a target/distractor display affords preattentive search at
//!   all. E4 regenerates Fig. 3's flat-vs-linear RT curves from it, and the
//!   viz glyph/color assignments are tested against the classifier.
//! * [`color`] — sRGB → CIE L\*a\*b\* conversion and ΔE distance, used to
//!   validate that the medication palette keeps every pair of classes
//!   discriminable.
//! * [`cost`] — cost-of-knowledge accounting (§II.C.1, Pirolli & Card):
//!   charge every interaction a time cost and compare exploration
//!   strategies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod color;
pub mod cost;
pub mod search;

pub use color::{delta_e, rgb_to_lab, Lab};
pub use search::{classify_search, simulate_rt, Item, SearchCondition, SearchExperiment};
