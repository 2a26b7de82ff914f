//! OWL-style knowledge representation and reasoning for PAsTAs.
//!
//! The paper: "The prototype represents and reasons with patient events in
//! different OWL-formalizations according to the perspective and use: One
//! for **integration and alignment** of patient records and observations;
//! Another for **visual presentation** of individual or cohort
//! trajectories." And §II.D notes the authors re-implemented much of
//! CNTRO's temporal-semantics machinery and were "investigating the use of
//! constraint logic programming to handle interval reasoning".
//!
//! There is no mature OWL reasoner in Rust, so this crate builds the stack
//! from scratch, sized to exactly what those two formalizations need:
//!
//! * [`vocab`] — an IRI interner and the PAsTAs vocabulary;
//! * [`store`] — an indexed RDF-style triple store (SPO/POS/OSP) with
//!   pattern matching;
//! * [`reasoner`] — an EL-flavoured reasoner: normalized TBox axioms
//!   (`A ⊑ B`, `A ⊓ B ⊑ C`, `A ⊑ ∃r.B`, `∃r.A ⊑ B`), completion-rule
//!   saturation for classification, and ABox realization;
//! * [`integration`] — the integration & alignment ontology: source record
//!   classes, the code hierarchies lifted to subsumption axioms, and the
//!   ICPC↔ICD condition bridge;
//! * [`presentation`] — the visual presentation ontology: glyph families,
//!   medication color classes, interval band categories;
//! * [`temporal`] — Allen's interval algebra with an *enumeratively
//!   derived* (and therefore provably exact) composition table, plus
//!   path-consistency constraint propagation and a Simple Temporal Network
//!   solver — the CNTRO-like layer;
//! * [`sparql`] — a basic-graph-pattern (SPARQL SELECT core) engine over
//!   the materialized ABox.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod integration;
pub mod presentation;
pub mod reasoner;
pub mod sparql;
pub mod store;
pub mod temporal;
pub mod vocab;

pub use reasoner::{Axiom, ClassId, Reasoner, RoleId};
pub use store::{Term, TripleStore};
pub use vocab::{Iri, Vocabulary};

#[cfg(test)]
mod proptests;
