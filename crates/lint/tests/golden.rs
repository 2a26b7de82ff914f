//! Golden-file tests for the rule engine.
//!
//! Each fixture under `tests/fixtures/` declares the workspace-relative
//! path it pretends to live at on line 1
//! (`// lint-fixture-path: crates/<crate>/src/<file>.rs`) so crate-scoped
//! rules fire deterministically, and pairs with a `.expected` twin holding
//! the exact rendered findings. Beyond the byte-for-byte comparison, each
//! test asserts the *shape* of the findings (rules and lines), so a stale
//! or wrongly blessed golden file cannot hide a behaviour change.
//!
//! Re-bless after an intentional message change with
//! `BLESS=1 cargo test -p pastas-lint --test golden`.

use pastas_lint::rules::{check_file, Finding};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// Run one fixture through `check_file` and compare against its golden
/// file, returning the findings for shape assertions.
fn check_fixture(name: &str) -> Vec<Finding> {
    let dir = fixture_dir();
    let source = fs::read_to_string(dir.join(format!("{name}.rs"))).expect("read fixture");
    let first = source.lines().next().unwrap_or("");
    let virtual_path = first
        .strip_prefix("// lint-fixture-path: ")
        .unwrap_or_else(|| panic!("fixture {name} lacks a lint-fixture-path header"))
        .trim()
        .to_owned();
    let findings = check_file(&virtual_path, &source);
    let got: String = findings.iter().map(|f| f.render() + "\n").collect();
    let expected_path = dir.join(format!("{name}.expected"));
    if std::env::var_os("BLESS").is_some() {
        fs::write(&expected_path, &got).expect("bless golden file");
    }
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|_| panic!("missing golden file {name}.expected (bless with BLESS=1)"));
    assert_eq!(got, expected, "fixture {name} drifted from its golden file");
    findings
}

/// `(rule, line)` pairs in output order — the shape a golden file must
/// agree with.
fn shape(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn hot_path_flags_every_panic_construct_once() {
    let findings = check_fixture("hot_path");
    assert_eq!(
        shape(&findings),
        vec![
            ("no-panic-hot-path", 8),  // .unwrap()
            ("no-panic-hot-path", 9),  // values[1]
            ("no-panic-hot-path", 10), // .expect()
            ("no-panic-hot-path", 12), // panic!
            ("no-panic-hot-path", 15), // unreachable!
        ]
    );
}

#[test]
fn suppression_scoping_and_reasons() {
    let findings = check_fixture("suppression");
    assert_eq!(
        shape(&findings),
        vec![
            ("suppression-needs-reason", 20), // reasonless allow
            ("suppression-needs-reason", 26), // unknown rule id
            ("no-panic-hot-path", 27),        // not suppressed by the unknown rule
            ("no-panic-hot-path", 34),        // allow two lines up is out of range
        ]
    );
}

#[test]
fn tricky_lexing_yields_exactly_the_final_todo() {
    let findings = check_fixture("tricky");
    assert_eq!(shape(&findings), vec![("no-panic-hot-path", 30)]);
}

#[test]
fn clean_file_has_zero_findings() {
    assert!(check_fixture("clean").is_empty());
}

#[test]
fn truncation_flags_only_the_narrowing_cast() {
    let findings = check_fixture("truncation");
    assert_eq!(shape(&findings), vec![("no-silent-truncation", 7)]);
}

#[test]
fn truncation_covers_the_query_parser() {
    let findings = check_fixture("parse_truncation");
    assert_eq!(shape(&findings), vec![("no-silent-truncation", 8)]);
    // The same source anywhere else in the query crate is out of scope.
    let source = std::fs::read_to_string(fixture_dir().join("parse_truncation.rs")).unwrap();
    assert!(check_file("crates/query/src/bitmap.rs", &source).is_empty());
}

#[test]
fn allow_file_silences_the_whole_file() {
    assert!(check_fixture("allow_file").is_empty());
}

#[test]
fn budget_flags_unclamped_request_fed_allocations() {
    let findings = check_fixture("budget");
    assert_eq!(
        shape(&findings),
        vec![("budget-enforced-alloc", 8), ("budget-enforced-alloc", 24)]
    );
}

#[test]
fn lock_unwrap_flags_non_test_unwraps_only() {
    let findings = check_fixture("lock_unwrap");
    assert_eq!(
        shape(&findings),
        vec![("no-unwrap-on-lock", 5), ("no-unwrap-on-lock", 11)]
    );
}
