//! `pastas-lint`: std-only static analysis for the pastas workspace.
//!
//! The serving stack is hand-rolled — its own HTTP parser, worker pool,
//! and columnar arena — exactly the layers where one stray `unwrap()`, a
//! narrowing cast, or an unclamped allocation turns into a production
//! incident. Nothing in the compiler enforces those house rules, so this
//! crate does: a hand-rolled Rust lexer ([`lexer`]) feeds a rule engine
//! ([`rules`]) that walks every `.rs` file under `crates/*/src` and emits
//! `file:line:col` diagnostics with stable rule ids, exiting non-zero on
//! findings. `scripts/ci.sh` runs it as the `lint` stage.
//!
//! The rule catalog lives in [`rules::RULES`]; DESIGN.md §9 documents
//! each rule's rationale and the suppression policy
//! (`// lint:allow(<rule>) <reason>` — the reason is mandatory).
//!
//! The static pass has a dynamic twin: `debug_validate()` deep invariant
//! checks on `EventStore`, `CodeIndex`, `ResponseCache`, and `Snapshot`,
//! compiled under `cfg(debug_assertions)` and exercised by proptests and
//! at snapshot publication. The lint rules keep panics out of the hot
//! paths and request-fed allocations clamped; the validators prove the
//! data structures those paths rely on are internally consistent.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod workspace;

#[cfg(test)]
mod proptests;

pub use lexer::{lex, Token, TokenKind};
pub use rules::{check_file, Finding, RULES};
pub use workspace::{analyze_sources, check_workspace, find_workspace_root};
