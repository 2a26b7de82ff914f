//! `pastas-serve`: a std-only concurrent cohort/timeline server.
//!
//! The workbench crates answer questions in-process; this crate puts them
//! behind a socket so many analysts (or one dashboard polling hard) can
//! share a single loaded collection. Everything is hand-rolled on
//! `std::net` — no async runtime, no HTTP dependency — because the
//! workloads are CPU-bound renders and selections, which a worker pool of
//! OS threads handles with far less machinery than an executor.
//!
//! The moving parts, one module each:
//!
//! * [`http`] — a small, hard-budgeted HTTP/1.1 request parser and
//!   response writer (fuzzed: any byte stream yields a typed error, never
//!   a panic);
//! * [`state`] — `Arc`-swapped immutable snapshots: readers never block
//!   writers, writers publish whole new versions atomically under one
//!   writer mutex, whose guard every nested lock acquisition takes as a
//!   parameter;
//! * [`router`] — `Request → Response` over the Workbench/Session API
//!   (`/select`, `/timeline/{patient}`, `/cohort.svg`, `/command`,
//!   `/details`, `/metrics`);
//! * [`cache`] — an LRU response cache keyed by
//!   `(version, query fingerprint, render params)`;
//! * [`ingest`] — the streaming path: a bounded delta queue behind
//!   `POST /ingest` (429 + `Retry-After` when full) and the apply worker
//!   that drains it into freshly published snapshots;
//! * [`metrics`] — lock-free counters plus a latency ring for p50/p99;
//! * [`server`] — acceptor thread + bounded worker pool with load
//!   shedding (`503 Retry-After`) and graceful drain;
//! * [`client`] — the loopback client the tests, smoke mode, and load
//!   bench drive the server with.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
// A request path degrades to a typed error, never a panic.
#![deny(clippy::indexing_slicing, clippy::string_slice, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unreachable, clippy::unimplemented)]
// No silent narrowing cast (tests may narrow).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

#[cfg(test)]
mod proptests;

pub mod cache;
pub mod client;
pub mod http;
pub mod ingest;
pub mod metrics;
pub mod router;
pub mod server;
pub mod state;

pub use cache::ResponseCache;
pub use client::{ClientResponse, Conn};
pub use http::{HttpError, Limits, Request, RequestReader, Response};
pub use ingest::{IngestConfig, IngestQueue};
pub use metrics::Metrics;
pub use router::{route, RouterCtx};
pub use server::{serve, start, ServerConfig, ServerHandle};
pub use state::{ServeState, Snapshot};
