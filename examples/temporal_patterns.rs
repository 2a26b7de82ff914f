//! Temporal reasoning scenario: patterns, Allen constraints, the SPARQL
//! view of the ABox, and cohort statistics.
//!
//! Demonstrates the CNTRO-like layer the paper discusses (§II.D): gap-
//! constrained sequences ("readmitted within 30 days"), qualitative Allen
//! steps ("a stay *during* a home-care period"), conjunctive queries over
//! the materialized triple view, and the summary statistics a researcher
//! exports.
//!
//! ```text
//! cargo run --release --example temporal_patterns [--patients N]
//! ```

use pastas_core::prelude::*;
use pastas_ontology::integration::IntegrationOntology;
use pastas_ontology::sparql::{solve, Pattern};
use pastas_ontology::store::{Term, TripleStore};
use pastas_ontology::temporal::AllenRel;
use pastas_ontology::vocab::{ns, Vocabulary};
use pastas_query::stats;

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 8_000) as usize;
    let collection = generate_collection(SynthConfig::with_patients(patients), 12);
    println!("Cohort: {} patients, {} entries\n", patients, collection.stats().entries);

    // --- 1. Gap-constrained sequence: early readmission ----------------
    let readmit = TemporalPattern::starting_with(EntryPredicate::IsInterval)
        .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval);
    let readmissions: usize = collection.iter().filter(|h| readmit.matches(h)).count();
    println!("Pattern A — two care episodes within 30 days: {readmissions} patients");

    // --- 2. Allen-constrained step: a hospital stay DURING home care ---
    let frail_admission = TemporalPattern::starting_with(EntryPredicate::Source(
        SourceKind::Hospital,
    ))
    .then_related(
        AllenRel::Contains, // the next entry contains the stay
        EntryPredicate::Source(SourceKind::Municipal),
    );
    let frail: Vec<PatientId> = collection
        .iter()
        .filter(|h| frail_admission.matches(h))
        .map(|h| h.id())
        .collect();
    println!(
        "Pattern B — hospital stay during a municipal-care period: {} patients",
        frail.len()
    );

    // --- 3. The SPARQL view: who has both a dispensing and a stay? -----
    let onto = IntegrationOntology::new();
    let mut store = TripleStore::new();
    let mut vocab = Vocabulary::new();
    for h in collection.iter().take(2_000) {
        onto.assert_history(h, &mut store, &mut vocab);
    }
    let c = |name: &str| Pattern::Const(Term::Resource(vocab.get(name).expect(name)));
    let solutions = solve(
        &store,
        &[
            (Pattern::Var(0), c(ns::RDF_TYPE), c("pastas-int:InpatientStay")),
            (Pattern::Var(0), c("pastas-int:ofPatient"), Pattern::Var(2)),
            (Pattern::Var(1), c(ns::RDF_TYPE), c("pastas-int:Dispensing")),
            (Pattern::Var(1), c("pastas-int:ofPatient"), Pattern::Var(2)),
        ],
    );
    let mut distinct: Vec<_> = solutions.iter().map(|b| b[&2]).collect();
    distinct.sort();
    distinct.dedup();
    println!(
        "SPARQL view — patients with an inpatient stay AND a dispensing \
         (first 2,000 patients, {} triples): {}",
        store.len(),
        distinct.len()
    );

    // --- 4. Cohort statistics -------------------------------------------
    let cfg = SynthConfig::with_patients(patients);
    println!("\nMonthly utilization (all entries):");
    let series = stats::monthly_utilization(&collection, cfg.window_start, cfg.window_end(), None);
    for chunk in series.chunks(6) {
        let row: Vec<String> =
            chunk.iter().map(|(m, n)| format!("{:04}-{:02}: {n:>6}", m.year(), m.month())).collect();
        println!("  {}", row.join("  "));
    }

    println!("\nEntries per source:");
    for (source, n) in stats::source_profile(&collection) {
        println!("  {source:<14} {n:>8}");
    }

    println!("\nTop codes by patient count:");
    for (code, n) in stats::code_frequency(&collection).into_iter().take(8) {
        println!("  {code:<8} {n:>6}");
    }

    println!("\nAge pyramid (decades):");
    let pyramid = stats::age_pyramid(&collection, cfg.window_start, 10);
    let max = pyramid.iter().map(|&(_, n)| n).max().unwrap_or(1);
    for (band, n) in pyramid {
        let bar = "#".repeat(n * 50 / max);
        println!("  {band:>3}–{:<3} {n:>6} {bar}", band + 9);
    }
}
