// lint-fixture-path: crates/analytics/src/flow_panic.rs
//! Fixture: a panic two calls below the `cohort_monthly` hot-path root.
//! The token rule never sees this — the panic lives in a helper the root
//! only reaches through the call graph.

pub fn cohort_monthly(rows: &[u32]) -> u32 {
    fold_rows(rows)
}

fn fold_rows(rows: &[u32]) -> u32 {
    first_row(rows)
}

fn first_row(rows: &[u32]) -> u32 {
    *rows.first().unwrap()
}

/// Unreachable from any hot root: no finding.
pub fn offline_report(rows: &[u32]) -> u32 {
    *rows.last().expect("caller checked")
}
