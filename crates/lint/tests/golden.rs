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

use pastas_lint::rules::{check_file, CheckOptions, Finding};
use pastas_lint::workspace::analyze_sources;
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
    let findings = check_file(&virtual_path, &source, CheckOptions::default());
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

fn read_fixture(name: &str) -> (String, String) {
    let source =
        fs::read_to_string(fixture_dir().join(format!("{name}.rs"))).expect("read fixture");
    let first = source.lines().next().unwrap_or("");
    let virtual_path = first
        .strip_prefix("// lint-fixture-path: ")
        .unwrap_or_else(|| panic!("fixture {name} lacks a lint-fixture-path header"))
        .trim()
        .to_owned();
    (virtual_path, source)
}

/// Run one fixture through the full flow pipeline (token rules + parse +
/// interprocedural pass) and compare against its golden file.
fn check_flow_fixture(name: &str) -> Vec<Finding> {
    let (virtual_path, source) = read_fixture(name);
    let findings =
        analyze_sources(&[(virtual_path, source, CheckOptions::default())], true);
    let got: String = findings.iter().map(|f| f.render() + "\n").collect();
    let expected_path = fixture_dir().join(format!("{name}.expected"));
    if std::env::var_os("BLESS").is_some() {
        fs::write(&expected_path, &got).expect("bless golden file");
    }
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|_| panic!("missing golden file {name}.expected (bless with BLESS=1)"));
    assert_eq!(got, expected, "fixture {name} drifted from its golden file");
    findings
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
fn determinism_flags_both_clock_reads() {
    let findings = check_fixture("determinism");
    assert_eq!(
        shape(&findings),
        vec![("no-wallclock-determinism", 9), ("no-wallclock-determinism", 10)]
    );
}

#[test]
fn channels_flag_unbounded_and_guarded_send() {
    let findings = check_fixture("channels");
    assert_eq!(
        shape(&findings),
        vec![("no-unbounded-channel", 11), ("lock-across-await-point-analog", 18)]
    );
}

#[test]
fn ingest_buffers_flag_only_the_unguarded_push() {
    let findings = check_fixture("ingest_buffer");
    assert_eq!(shape(&findings), vec![("no-unbounded-ingest-buffer", 10)]);
}

#[test]
fn truncation_flags_only_the_narrowing_cast() {
    let findings = check_fixture("truncation");
    assert_eq!(shape(&findings), vec![("no-silent-truncation", 7)]);
}

#[test]
fn allow_file_silences_the_whole_file() {
    assert!(check_fixture("allow_file").is_empty());
}

#[test]
fn docs_flag_undocumented_pub_fns_in_a_root() {
    let findings = check_fixture("docs");
    assert_eq!(shape(&findings), vec![("pub-fn-docs", 17), ("pub-fn-docs", 27)]);
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
fn budget_flags_bitmap_decodes_inside_query_loops() {
    let findings = check_fixture("bitmap_decode");
    assert_eq!(
        shape(&findings),
        vec![
            ("budget-enforced-alloc", 10),
            ("budget-enforced-alloc", 14),
            ("budget-enforced-alloc", 17),
        ]
    );
}

#[test]
fn budget_flags_bitmap_decodes_inside_analytics_loops() {
    let findings = check_fixture("analytics_decode");
    assert_eq!(shape(&findings), vec![("budget-enforced-alloc", 9)]);
}

#[test]
fn budget_flags_allocations_inside_automaton_loops() {
    let findings = check_fixture("temporal_alloc");
    assert_eq!(
        shape(&findings),
        vec![
            ("budget-enforced-alloc", 9),
            ("budget-enforced-alloc", 10),
            ("budget-enforced-alloc", 11),
            ("budget-enforced-alloc", 17),
        ]
    );
    assert!(
        findings.iter().any(|f| f.message.contains("pooled scratch")),
        "the message points at the pool idiom"
    );
}

#[test]
fn flow_transitive_panic_reaches_through_two_calls() {
    let findings = check_flow_fixture("flow_transitive_panic");
    assert_eq!(shape(&findings), vec![("transitive-no-panic-hot-path", 15)]);
    assert!(
        findings[0].message.contains("cohort_monthly -> fold_rows -> first_row"),
        "witness path names the whole chain: {}",
        findings[0].message
    );
}

#[test]
fn flow_lock_cycle_spans_a_call_edge() {
    let findings = check_flow_fixture("flow_lock_cycle");
    assert_eq!(shape(&findings), vec![("lock-order-cycle", 7)]);
    let message = &findings[0].message;
    assert!(message.contains("core::Queues.a") && message.contains("core::Queues.b"));
}

#[test]
fn flow_blocking_call_under_lock_via_helper() {
    let findings = check_flow_fixture("flow_blocking_lock");
    assert_eq!(shape(&findings), vec![("blocking-call-under-lock", 7)]);
    assert!(findings[0].message.contains("recv"));
}

#[test]
fn lock_unwrap_flags_non_test_unwraps_only() {
    let findings = check_fixture("lock_unwrap");
    assert_eq!(
        shape(&findings),
        vec![("no-unwrap-on-lock", 5), ("no-unwrap-on-lock", 11)]
    );
}

#[test]
fn hygiene_fires_on_big_untested_module_and_proptests_satisfy_it() {
    let mut src = String::from("//! Big module.\n\npub struct S;\n");
    for i in 0..400 {
        src.push_str(&format!("fn helper_{i}() -> u32 {{ {i} }}\n"));
    }
    let findings = check_file("crates/codes/src/big.rs", &src, CheckOptions::default());
    assert_eq!(shape(&findings), vec![("test-file-hygiene", 1)]);
    assert_eq!(findings[0].col, 1);
    let with_proptests =
        check_file("crates/codes/src/big.rs", &src, CheckOptions { crate_has_proptests: true });
    assert!(with_proptests.is_empty(), "a crate proptests.rs satisfies the rule");
}
