//! The paper-scale cohort selection (experiment E5): **13,000 of 168,000**.
//!
//! §IV: "The prototype was used in the research project to select 13,000
//! patients from a data set of 168,000 patients based on predefined
//! characteristics." This example runs the same selection at full scale
//! and reports the cohort size, selectivity, and the indexed-vs-scan
//! latency ablation.
//!
//! The full run needs ~2 GB RAM and a few minutes of generation time;
//! scale down with `--patients`.
//!
//! ```text
//! cargo run --release --example cohort_selection_168k [--patients 168000]
//! ```

use pastas_core::prelude::*;
use pastas_query::index::select_scan;
use pastas_query::CodeIndex;
use std::time::Instant;

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 168_000) as usize;
    let seed = arg("--seed", 2013);

    println!("Generating the {patients}-patient population (seed {seed}) …");
    let t0 = Instant::now();
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let stats = collection.stats();
    println!(
        "  {} patients, {} entries ({} events + {} intervals) in {:.1}s",
        stats.patients,
        stats.entries,
        stats.events,
        stats.intervals,
        t0.elapsed().as_secs_f64()
    );

    let footprint = MemoryFootprint::measure(&collection);
    println!("  {}", footprint.summary());

    println!("Building the inverted code index …");
    let t0 = Instant::now();
    let index = CodeIndex::build(&collection);
    println!(
        "  {} distinct codes indexed in {:.2}s",
        index.vocabulary_size(),
        t0.elapsed().as_secs_f64()
    );

    // The predefined characteristic: diabetes (T90/T89 in primary care,
    // E10/E11/E14 in hospital data).
    let query = QueryBuilder::new().has_code("T90|T89|E1[014].*").expect("valid regex").build();

    let t0 = Instant::now();
    let indexed = index.select(&collection, &query);
    let t_indexed = t0.elapsed();

    let t0 = Instant::now();
    let scanned = select_scan(&collection, &query);
    let t_scan = t0.elapsed();

    assert_eq!(indexed, scanned, "index and scan must agree");
    println!("\n=== E5: cohort selection (paper: 13,000 of 168,000 = 7.7%) ===");
    println!(
        "selected {} of {} patients ({:.2}%)",
        indexed.len(),
        patients,
        common::percent(indexed.len(), patients)
    );
    println!(
        "latency: indexed {:.1} ms vs full scan {:.1} ms ({:.1}× speedup)",
        t_indexed.as_secs_f64() * 1e3,
        t_scan.as_secs_f64() * 1e3,
        t_scan.as_secs_f64() / t_indexed.as_secs_f64().max(1e-9)
    );

    // Parallel-vs-serial ratio on the indexed path (the parallel side uses
    // PASTAS_THREADS or the machine default; results are identical).
    let t0 = Instant::now();
    let serial = pastas_par::with_threads(1, || index.select(&collection, &query));
    let t_serial = t0.elapsed();
    assert_eq!(serial, indexed, "serial path must agree bit for bit");
    println!(
        "parallel ({} threads) {:.1} ms vs serial {:.1} ms ({:.2}× speedup)",
        pastas_par::thread_count(),
        t_indexed.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() / t_indexed.as_secs_f64().max(1e-9)
    );

    // Sanity: the cohort really is the diabetes cohort.
    let histories = collection.histories();
    let with_t90 = indexed
        .iter()
        .filter(|&&i| {
            histories[i as usize].entries().iter().any(|e| {
                e.code().is_some_and(|c| c.value.starts_with("T9") || c.value.starts_with("E1"))
            })
        })
        .count();
    println!("verified: {with_t90} of {} selected histories carry a diabetes code", indexed.len());

    // The Shneiderman budget check on the interactive path.
    let budget_ok = t_indexed.as_secs_f64() < 0.1;
    println!(
        "Shneiderman 0.1 s budget on the indexed path: {}",
        if budget_ok { "MET" } else { "exceeded" }
    );
}
