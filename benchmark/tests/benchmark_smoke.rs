//! Smoke test of the harness binary: both workloads, one of them traced
//! as well, at 2,000 patients and a fraction of the run length.
//! Every metric `BENCHMARK.json` names must be printed with its unit, no
//! operation may fail, and the traced run must leave its span file.

use pastas_ingest::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let text = |entry: &Json, field: &str| {
        entry
            .get(field)
            .and_then(Json::as_str)
            .expect("string field")
            .to_owned()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|entry| (text(entry, "name"), text(entry, "unit")))
        .collect()
}

/// Run the harness in `cwd` and return its standard output.
fn run(cwd: &Path, workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.6",
            "--trace",
            trace,
        ])
        .args(["--patients", "2000"])
        .current_dir(cwd)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("harness starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    String::from_utf8(output.stdout).expect("utf8 output")
}

/// Check the `name value unit` lines and the closing JSON object.
fn check(stdout: &str, expected: &[(String, String)], context: &str) {
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{context}: {e}: {last}"));
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{context}: {last}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert!(result
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("{context}: no metrics object")
    };
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{context}: exactly the listed metrics"
    );
    for (name, unit) in expected {
        let line = stdout
            .lines()
            .find(|l| l.split(' ').next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("{context}: {name} is not printed"));
        let mut fields = line.split(' ');
        let value = fields.nth(1).and_then(|v| v.parse::<f64>().ok());
        assert!(value.is_some_and(f64::is_finite), "{context}: {line}");
        assert_eq!(fields.next(), Some(unit.as_str()), "{context}: {line}");
        let reported = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{context}: {name} not in JSON"));
        assert_eq!(
            reported.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        assert_eq!(
            reported.get("value").and_then(Json::as_f64),
            value,
            "{context}: {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let doc = benchmark_json();
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark_smoke");
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .expect("workload name");
        let stdout = run(&cwd, name, "0");
        check(&stdout, &end_to_end, name);
        let failed_share = stdout
            .lines()
            .find(|l| l.starts_with("failed_share "))
            .expect("failed_share line");
        assert!(
            failed_share.starts_with("failed_share 0 share"),
            "{name}: {failed_share}"
        );
        // No end-to-end metric may read 0: the driver takes bounds as
        // shares of the parent's median.
        for (metric, _) in &end_to_end {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{metric} ")))
                .expect("line");
            let value: f64 = line
                .split(' ')
                .nth(1)
                .expect("value")
                .parse()
                .expect("number");
            assert!(value > 0.0, "{name}: {line}");
        }
    }
    let traced = "paper_168k";
    let stdout = run(&cwd, traced, "1");
    check(&stdout, &per_layer, "traced paper_168k");
    let spans = cwd
        .join("target/benchmark")
        .join(format!("trace-{traced}.json"));
    let text = std::fs::read_to_string(&spans).expect("span file written");
    let doc = Json::parse(&text).expect("span file is JSON");
    let spans = doc.get("spans").and_then(Json::as_array).expect("spans");
    assert!(spans.len() > 100, "{} spans", spans.len());
    for name in [
        "client.select",
        "replay.select",
        "route.select",
        "query.exec",
        "client.ingest",
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
            "no {name} span"
        );
    }
}

#[test]
fn a_trace_value_other_than_0_or_1_is_a_usage_error() {
    for value in ["yes", "2", "true"] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["--workload", "paper_168k", "--trace", value])
            .output()
            .expect("harness starts");
        assert_eq!(output.status.code(), Some(2), "--trace {value}");
        assert!(output.stdout.is_empty(), "--trace {value} printed a result");
    }
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "paper_168k", "--traced"])
        .output()
        .expect("harness starts");
    assert_eq!(output.status.code(), Some(2), "--traced is not a flag");
}
