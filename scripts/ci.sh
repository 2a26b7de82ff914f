#!/bin/bash
# CI gate: formatting of the crates formatted so far, release build with
# no warning on any target, full test suite,
# a warning-free clippy pass over every target (benches and examples
# included) that carries the repo's invariant lints, and warning-free
# rustdoc. Stricter than
# scripts/tier1.sh (which trades lint coverage for a paper-scale smoke
# run); run both before merging.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
    local name="$1"
    shift
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    printf 'ci: %-36s %5ds\n' "$name" "$((t1 - t0))" >&2
}

# Formatting by the root rustfmt.toml. Only crates already formatted are
# gated: another crate joins this list in the change that formats it.
stage "cargo fmt --check (formatted crates)" cargo fmt --check -p pastas-par -p pastas-core \
    -p pastas-serve
stage "cargo build --release" cargo build --release
# Every target (tests, benches, examples) builds in release without a
# warning. Cargo replays the warnings of crates it does not recompile, so
# a warning fails this stage on a warm cache as well as a cold one.
no_warnings() {
    local out
    if ! out=$(cargo build --release --all-targets 2>&1); then
        printf '%s\n' "$out" >&2
        return 1
    fi
    if grep '^warning' <<<"$out" >&2; then
        echo "ci: the release build of every target warns (lines above)" >&2
        return 1
    fi
}
stage "no warnings (release, all targets)" no_warnings
stage "cargo test" cargo test -q
# The benchmark harness (BENCHMARK.json, benchmark/) is a package outside
# this workspace that compiles against crate internals (`Workbench::
# snapshot`, `CodeIndex::with_delta`, `ServerHandle::ctx`, ...), so the
# root `cargo test` never builds it. Its unit tests plus a smoke run of
# both workloads at 2,000 patients: a crate change that breaks the
# harness fails here, not in the next benchmark run.
stage "benchmark harness tests" \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
# The exact serial path: PASTAS_THREADS=1 must give what the parallel
# sections give (the differential and determinism suites of the crates
# that fan out), so every data-parallel section is checked single-threaded
# as well as at the default.
stage "tests at PASTAS_THREADS=1" env PASTAS_THREADS=1 cargo test -q --release \
    -p pastas-query -p pastas-core -p pastas-serve -p pastas-ingest -p pastas-analytics -p pastas-par \
    -p pastas-synth -p pastas-model
# Allocation budgets (DESIGN.md §9): a counting allocator holds each hot
# path to a count per unit of work — synthesis per patient, a planned
# select per shard (and bytes per row), a pattern scan to a fixed count a
# query (its one bind included) and none per candidate, a code leaf's bind
# per matching code not per vocabulary code, the timeline per drawn
# element, the SVG writer per render, cohort reads not per row, the regex
# VM per call. --nocapture puts every number in the log.
stage "allocation budgets (release)" \
    cargo test -q --release -p pastas-core --test alloc_budgets -- --nocapture
# Clippy with the invariant lints each crate's lib.rs denies (DESIGN.md
# §9): no unwrap outside tests anywhere; no panic, expect, indexing or
# string slicing on the request paths of serve, par and query; no silent
# narrowing cast in model, serve and the query parser; and every exception
# an `#[expect(lint, reason = "…")]`, never an `#[allow]`. An expectation
# that no longer fires is a warning, so a stale one fails this stage too.
stage "cargo clippy (deny warnings)" cargo clippy --all-targets -- -D warnings
# Every intra-doc link resolves and points at something public.
stage "cargo doc (deny warnings)" env RUSTDOCFLAGS="-D warnings" \
    cargo doc -q --no-deps --workspace
# Planner smoke: differential scan-vs-plan check over a battery of query
# shapes (positive, negated, counted, compound, disjunctive, demographic)
# on a small synth collection, asserting the has∧lacks shape is served by
# posting-list set algebra. Exits non-zero on any mismatch.
stage "planner smoke (differential)" \
    cargo run --release --example plan_explain -- --smoke --patients 2000
# The same differential battery at one million patients on the sharded
# store (an arena per 65,536 patients — one per index shard): every
# index-servable shape must stay index-served and execute its plan
# inside the paper-interactive 100 ms budget, and so must each of the
# view's four sorts (median of five `Workbench::sort` runs per key) and
# each command of the view cycle with the `render_svg` after it.
stage "planner smoke (sharded 1M)" \
    cargo run --release --example plan_explain -- --smoke --patients 1000000 \
    --shard-patients 65536 --budget-ms 100
# Publish smoke at one million patients: 60 benchmark-shaped delta
# batches (claims and prescriptions increments of re-registered patients)
# each published the way the server does, built while the previous
# snapshot is alive. Fails when any publish copies more row-table bytes
# than the chunks and id sub-maps of its touched rows hold: a byte count,
# not a timing. Prints apply_ingest p50, the drop of the previous
# snapshot and the bytes a publish allocates.
stage "publish smoke (chunked rows, 1M)" \
    cargo run --release --example plan_explain -- --smoke-publish --patients 1000000 \
    --shard-patients 65536
# Synthesis smoke at one million patients: generates the benchmark's
# collection (seed 2016, an arena per 65,536 patients) and fails unless
# its content hash (the dictionary in id order, the arena layout, every
# decoded entry; pastas_synth::golden) equals the one recorded for that
# configuration: an equality check, not a timing. Prints the wall time
# an entry and the allocations a patient.
stage "synth smoke (1M, golden)" \
    cargo run --release --example plan_explain -- --smoke-synth --patients 1000000 \
    --shard-patients 65536
# Temporal smoke: every seq(...) shape's planned result must equal the
# full scan, code-bearing patterns must execute as an index-prefiltered
# PatternScan (no full-scan operator, nonzero candidate/pattern-scan
# stats), and cover-free patterns must plan to an honest full scan. The
# second run seals an arena per 256 patients, so the planned scans' bound
# entry tests cross eight arenas on one code dictionary.
stage "temporal smoke (pattern scans)" \
    cargo run --release --example plan_explain -- --smoke-temporal --patients 2000
stage "temporal smoke (eight arenas)" \
    cargo run --release --example plan_explain -- --smoke-temporal --patients 2000 \
    --shard-patients 256
# Loopback smoke of the serve layer: starts a real server on an
# OS-assigned port, fires every endpoint (including /select?explain=1 on
# a negated compound query, asserting an index-served plan), asserts
# 200s, a response-cache hit on the repeated /select, zero worker panics,
# and a graceful shutdown. Exits non-zero on any failed check.
stage "serve smoke (loopback)" \
    cargo run --release --example serve_cohorts -- --smoke --patients 1500
# Streaming-ingest smoke: POST one /ingest delta per source format for a
# brand-new patient, poll /metrics until the background writer has drained
# the queue, and assert the patient is selectable (+1 on its cohort) before
# any /compact; then /compact answers 200 with zero side rows, the patient
# has a timeline, and the ingest gauges read fully drained. Exits non-zero
# on any failed check.
stage "ingest smoke (streaming)" \
    cargo run --release --example serve_cohorts -- --smoke-ingest --patients 1500
# Materialized-cohort smoke: POST /cohort freezes a selection, the three
# /cohort/{id}/* reads answer over the frozen bitmap and fold its profile
# once between them (cohort_profile_folds_total), an ingest delta +
# /compact turns the handle 410 Gone (with a re-materialize hint) and
# frees its memos, and re-materializing at the new version sees the
# streamed patient. Also
# asserts the registry gauges on /metrics. Exits non-zero on any failure.
stage "analytics smoke (cohort registry)" \
    cargo run --release --example serve_cohorts -- --smoke-analytics --patients 1500

echo "ci: all stages passed" >&2
# The workspace size every PR records in CHANGES.md.
find crates -name '*.rs' | xargs wc -l | tail -1
