//! E12 — cohort analytics: the nine-dimension row-table fold and
//! the materialized-registry hit path.
//!
//! Two claims under test, both against Shneiderman's 0.1 s budget the
//! refinement loop lives inside:
//!
//! * the dimension pass — age band, sex, dominant source, entries per
//!   patient, history span, ICD-10 chapter, ATC main group, first
//!   contact year, top-k codes + conditions — is one parallel fold over
//!   the cohort's rows of the row table's digest columns (written with
//!   the rows, when the collection is built) and stays under 100 ms at a
//!   million patients, for the paper-shaped cohort the benchmark reads (41% of
//!   the patients) as well as for the Fig. 4 one (7.6%);
//! * answering `/cohort/{id}/stats` from a frozen posting bitmap (one
//!   chunked decode + fold) beats re-running the cold path (plan +
//!   execute + fold) because the planner never runs.
//!
//! Not a criterion bench: tiers of 168k and 1M synthetic patients (10M
//! behind `--full`) are generated inline, so the harness is a plain
//! `main` emitting report rows to stderr and `BENCH_analytics.json` at
//! the repo root — one row per tier and cohort shape.

use pastas_bench::{base_scale, header, median_ms};
use pastas_core::Workbench;
use pastas_query::{Bitmap, QueryBuilder, QueryPlan};
use pastas_synth::{generate_collection, SynthConfig};
use pastas_time::Date;
use std::fmt::Write as _;
use std::hint::black_box;

/// The latency budget every interactive read is judged against (ms).
const BUDGET_MS: f64 = 100.0;

/// Run one patient tier and append one JSON row per cohort shape to
/// `json`.
fn tier(json: &mut String, first: bool, patients: usize, shard_patients: usize) {
    eprintln!("\n-- analytics tier: {patients} patients (shard_patients {shard_patients}) --");
    let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
    let t = std::time::Instant::now();
    let collection = generate_collection(config, 2016);
    let shards = collection.sharded_store().shard_count();
    let reference = collection
        .stats()
        .last
        .map(|dt| dt.date())
        .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid"));
    let wb = Workbench::from_collection(collection);
    eprintln!("generated + indexed in {:.1} s ({shards} shards)", t.elapsed().as_secs_f64());

    let shapes = [
        // The Fig. 4 diabetes-flavoured selection, same shape as E5.
        ("fig4", QueryBuilder::new().has_code("T90|T89|E1[014].*").expect("regex").build()),
        // What BENCHMARK.json's cohort sessions read: one chapter, a rare
        // `lacks` code outside it, an age clause that keeps everyone.
        (
            "paper_shaped",
            QueryBuilder::new()
                .has_code("K.*")
                .expect("regex")
                .lacks_code("E11")
                .expect("regex")
                .age_between(reference, 0, 120)
                .build(),
        ),
    ];
    for (at, (shape, query)) in shapes.iter().enumerate() {
        let positions = wb.select_positions(query);
        let cohort = positions.len();

        // The tentpole number: nine dimensions in one parallel fold.
        let profile = wb.cohort_profile(&positions, reference, 20);
        assert_eq!(profile.cohort_size as usize, cohort);
        let profile_ms = median_ms(|| {
            black_box(wb.cohort_profile(black_box(&positions), reference, 20));
        });
        // The same fold on one thread: the paper_168k workload's setting.
        let profile_1t_ms = pastas_par::with_threads(1, || {
            median_ms(|| {
                black_box(wb.cohort_profile(black_box(&positions), reference, 20));
            })
        });
        let timeline_ms = median_ms(|| {
            black_box(wb.cohort_monthly(black_box(&positions)));
        });

        // Registry hit path: one chunked decode of the frozen bitmap, then
        // fold — versus the cold path that re-plans and re-executes the
        // selection before folding. (A handle's second read is its memo.)
        let frozen = Bitmap::from_sorted(&positions);
        let mut scratch = Vec::with_capacity(cohort);
        let hit_ms = median_ms(|| {
            scratch.clear();
            frozen.decode_into(0, &mut scratch);
            black_box(wb.cohort_profile(black_box(&scratch), reference, 20));
        });
        let cold_ms = median_ms(|| {
            let plan = QueryPlan::build(wb.index(), wb.collection(), query);
            let selected = plan.execute(wb.collection(), wb.index());
            black_box(wb.cohort_profile(black_box(&selected), reference, 20));
        });

        // One verdict per read: a profile inside the budget says nothing
        // about the timeline beside it.
        let (profile_budget_met, timeline_budget_met) =
            (profile_ms <= BUDGET_MS, timeline_ms <= BUDGET_MS);
        let verdict = |met: bool| if met { "met" } else { "NOT met" };
        eprintln!(
            "{patients} patients, {shape} cohort {cohort} ({:.1}%, {} entries): profile \
             {profile_ms:.2} ms, {profile_1t_ms:.2} ms on 1 thread ({} histograms, budget \
             {BUDGET_MS:.0} ms: {})  monthly \
             {timeline_ms:.2} ms (budget: {})  registry-hit {hit_ms:.2} ms vs cold \
             select+aggregate {cold_ms:.2} ms ({:.2}x)",
            100.0 * cohort as f64 / patients as f64,
            profile.total_entries,
            profile.histograms().len(),
            verdict(profile_budget_met),
            verdict(timeline_budget_met),
            cold_ms / hit_ms.max(1e-6),
        );
        if !(first && at == 0) {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"patients\": {patients}, \"shards\": {shards}, \"shape\": \"{shape}\", \
             \"cohort\": {cohort}, \"cohort_entries\": {}, \
             \"profile_ms\": {profile_ms:.3}, \"profile_1t_ms\": {profile_1t_ms:.3}, \
             \"timeline_ms\": {timeline_ms:.3}, \
             \"profile_budget_met\": {profile_budget_met}, \
             \"timeline_budget_met\": {timeline_budget_met}, \"registry_hit_ms\": {hit_ms:.3}, \
             \"cold_select_aggregate_ms\": {cold_ms:.3}}}",
            profile.total_entries,
        );
    }
}

fn main() {
    header(
        "E12: cohort analytics (9-dimension row-table fold + registry hit path)",
        "dimension histograms over the selected cohort inside the 0.1 s budget",
    );
    // Default: the bench scale, the paper's 168k, and one million sharded
    // patients. `--full` (cargo bench --bench e12_analytics -- --full)
    // adds ten million.
    let full = std::env::args().any(|a| a == "--full");
    let mut json = String::from(
        "{\n  \"experiment\": \"e12_analytics\",\n  \"budget_ms\": 100.0,\n  \"tiers\": [\n",
    );
    tier(&mut json, true, base_scale(), 0);
    tier(&mut json, false, 168_000, 0);
    tier(&mut json, false, 1_000_000, 65_536);
    if full {
        tier(&mut json, false, 10_000_000, 65_536);
    }
    json.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analytics.json");
    std::fs::write(path, &json).expect("write BENCH_analytics.json");
    eprintln!("\nwrote {path}");
}
