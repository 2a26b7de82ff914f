// lint-fixture-path: crates/query/src/parse.rs
//! Fixture: the query parser is in the truncation rule's scope although
//! the rest of the query crate is not. A parsed bound cast with `as i32`
//! is a finding; the saturating conversion is clean.

/// `as i32` wraps a bound above `i32::MAX`: a finding.
pub fn wrapped(max: u64) -> i32 {
    max as i32
}

/// Saturating conversion: clean.
pub fn saturated(max: u64) -> i32 {
    i32::try_from(max).unwrap_or(i32::MAX)
}

/// Widening: clean.
pub fn widen(n: u64) -> usize {
    n as usize
}
