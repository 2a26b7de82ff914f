//! Shared helpers for the experiment benches.
//!
//! Each bench regenerates one figure/table/claim of the paper; the mapping
//! is in `DESIGN.md` §4 and results are recorded in `EXPERIMENTS.md`.
//! Benches honour `PASTAS_BENCH_SCALE` (base patient count, default modest
//! so `cargo bench` completes on a laptop; the paper-scale numbers in
//! EXPERIMENTS.md come from the examples at full scale).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use pastas_ingest::json::write_string;
use pastas_model::{HistoryCollection, MemoryFootprint};
use pastas_synth::{generate_collection, SynthConfig};

/// Patient count used as the benches' base scale. Override with the
/// `PASTAS_BENCH_SCALE` environment variable.
pub fn base_scale() -> usize {
    std::env::var("PASTAS_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// The shared benchmark cohort at `n` patients (seed fixed so all benches
/// agree on the data).
pub fn cohort(n: usize) -> HistoryCollection {
    generate_collection(SynthConfig::with_patients(n), 2016)
}

/// Print one experiment header so bench output reads as a report.
pub fn header(experiment: &str, paper_claim: &str) {
    eprintln!("\n=== {experiment} ===");
    eprintln!("paper: {paper_claim}");
}

/// Median-of-5 wall-clock time of `f`, in milliseconds.
pub fn median_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[2]
}

/// The `q` quantile (0 to 1) of ascending `sorted`, the nearest rank;
/// 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Print one memory-accounting row: resident bytes-per-entry of the
/// columnar arena next to the array-of-structs estimate it replaced
/// (recorded per experiment in `EXPERIMENTS.md`). Returns the footprint
/// so benches can assert on it.
pub fn memory_row(collection: &HistoryCollection) -> MemoryFootprint {
    let f = MemoryFootprint::measure(collection);
    eprintln!("{}", f.summary());
    f
}

/// Print one serial-vs-parallel comparison row: times `f` pinned to one
/// worker thread and at the configured count ([`pastas_par::thread_count`],
/// i.e. `PASTAS_THREADS` or the machine default), reporting both medians
/// and the speedup ratio.
pub fn par_ratio_row<F: FnMut()>(name: &str, mut f: F) {
    let serial = median_ms(|| pastas_par::with_threads(1, &mut f));
    let threads = pastas_par::thread_count();
    let parallel = median_ms(&mut f);
    eprintln!(
        "{name:<32} serial {serial:>8.2} ms   parallel({threads}) {parallel:>8.2} ms   speedup {:.2}x",
        serial / parallel.max(1e-9)
    );
}

/// Merge one top-level section into a shared `BENCH_*.json` report.
///
/// Several benches land results in the same file — E5 writes the `plan`
/// tiers and E13 the `temporal` tiers of `BENCH_plan.json` — so a plain
/// whole-file overwrite from either would clobber the other's numbers.
/// This reads the existing report with pastas-ingest's JSON parser (no
/// serde anywhere in the workspace), replaces the named section with
/// `section` (itself a JSON document), keeps every other section, and
/// re-renders the whole file deterministically (sorted keys, two-space
/// indent, leaf-only rows inline). A missing or unparseable file starts
/// fresh from `{}`.
pub fn merge_bench_section(path: &str, key: &str, section: &str) {
    use pastas_ingest::json::Json;
    use std::collections::BTreeMap;
    let parsed = Json::parse(section).expect("bench section must be valid JSON");
    let mut doc = match std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok()) {
        Some(Json::Object(members)) => members,
        _ => BTreeMap::new(),
    };
    doc.insert(key.to_owned(), parsed);
    let mut out = String::new();
    render_json(&Json::Object(doc), 0, &mut out);
    out.push('\n');
    std::fs::write(path, out).expect("write bench report");
}

/// True when a value renders on one line: any leaf, or a container whose
/// members are all leaves (the per-query rows of a bench report).
fn is_inline(v: &pastas_ingest::json::Json) -> bool {
    use pastas_ingest::json::Json;
    match v {
        Json::Array(items) => items.iter().all(|i| !matches!(i, Json::Array(_) | Json::Object(_))),
        Json::Object(members) => {
            members.values().all(|i| !matches!(i, Json::Array(_) | Json::Object(_)))
        }
        _ => true,
    }
}

fn render_json(v: &pastas_ingest::json::Json, indent: usize, out: &mut String) {
    use pastas_ingest::json::Json;
    use std::fmt::Write as _;
    let pad = " ".repeat(indent);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Number(n) => {
            // Counts and byte totals come back as f64 from the parser;
            // render them as integers when they are.
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::String(s) => write_string(out, s),
        Json::Array(items) if items.is_empty() => out.push_str("[]"),
        Json::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                render_json(item, indent + 2, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}]");
        }
        Json::Object(members) if members.is_empty() => out.push_str("{}"),
        Json::Object(members) if is_inline(v) => {
            out.push('{');
            for (i, (k, m)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(out, k);
                out.push_str(": ");
                render_json(m, indent, out);
            }
            out.push('}');
        }
        Json::Object(members) => {
            out.push_str("{\n");
            for (i, (k, m)) in members.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                write_string(out, k);
                out.push_str(": ");
                render_json(m, indent + 2, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::merge_bench_section;
    use pastas_ingest::json::Json;

    #[test]
    fn merge_preserves_the_other_sections() {
        let path = std::env::temp_dir().join("pastas_bench_merge_test.json");
        let path = path.to_str().expect("utf8 temp path");
        let _ = std::fs::remove_file(path);
        merge_bench_section(path, "plan", r#"{"tiers": [{"patients": 2000, "ms": 1.5}]}"#);
        merge_bench_section(path, "temporal", r#"{"tiers": [{"patients": 2000}]}"#);
        // Re-writing one section must keep the other intact.
        merge_bench_section(path, "plan", r#"{"tiers": [{"patients": 5000, "ms": 2.25}]}"#);
        let text = std::fs::read_to_string(path).expect("report exists");
        let doc = Json::parse(&text).expect("report re-parses");
        let plan_patients = doc
            .get("plan")
            .and_then(|p| p.get("tiers"))
            .and_then(|t| t.at(0))
            .and_then(|t| t.get("patients"))
            .and_then(Json::as_f64);
        assert_eq!(plan_patients, Some(5000.0));
        let kept = doc.get("temporal").and_then(|p| p.get("tiers")).and_then(|t| t.at(0));
        assert!(kept.is_some(), "temporal section survived the plan rewrite");
        assert!(text.contains("\"ms\": 2.25"), "fractional numbers round-trip: {text}");
        let _ = std::fs::remove_file(path);
    }
}
