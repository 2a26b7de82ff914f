//! Cohort exploration scenario: the research workflow of §IV.
//!
//! A health researcher explores heart-failure trajectories: select the
//! cohort, look for the "discharge → readmission within 30 days" temporal
//! pattern, align on the first heart-failure code, sort by utilization,
//! mine code-relation rules, and inspect the timeline — every operation of
//! the paper's workbench exercised on one realistic question.
//!
//! ```text
//! cargo run --example cohort_explorer [--patients N] [--seed S]
//! ```

use pastas_align::mining::mine_rules;
use pastas_core::prelude::*;

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 5_000) as usize;
    let seed = arg("--seed", 7);

    println!("Generating {patients} patients (seed {seed}) …");
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let wb = Workbench::from_collection(collection);

    // --- Step 1: the heart-failure cohort -----------------------------
    let hf = QueryBuilder::new().has_code("K77|I50.*").expect("regex").build();
    let mut cohort = wb.select(&hf);
    println!(
        "Heart-failure cohort: {} patients ({:.2}% of the population)",
        cohort.collection().len(),
        common::percent(cohort.collection().len(), patients)
    );

    // --- Step 2: temporal pattern — early readmission ------------------
    let readmit = TemporalPattern::starting_with(EntryPredicate::IsInterval)
        .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval);
    let readmitted: Vec<PatientId> =
        cohort.collection().iter().filter(|h| readmit.matches(h)).map(|h| h.id()).collect();
    println!(
        "Early readmission (two stays within 30 days): {} of {} HF patients ({:.1}%)",
        readmitted.len(),
        cohort.collection().len(),
        100.0 * readmitted.len() as f64 / cohort.collection().len().max(1) as f64
    );

    // --- Step 3: align on the first HF code, sort by utilization -------
    cohort.align_on_code("K77").expect("regex");
    println!("\nAligned view, ±24 months around the first K77 code:");
    print!("{}", cohort.render_ascii(110, 22));

    // --- Step 4: mine code relations around heart failure --------------
    let sequences: Vec<Vec<Code>> = cohort
        .collection()
        .iter()
        .map(|h| h.diagnosis_sequence().into_iter().cloned().collect())
        .collect();
    let rules = mine_rules(&sequences, 0.08, 0.3);
    println!("\nTop code-relation rules in the HF cohort (support ≥ 8%, confidence ≥ 30%):");
    println!(
        "{:<10} {:<10} {:>8} {:>11} {:>6}",
        "earlier", "later", "support", "confidence", "lift"
    );
    for r in rules.iter().take(8) {
        println!(
            "{:<10} {:<10} {:>7.1}% {:>10.1}% {:>6.2}",
            r.antecedent.value,
            r.consequent.value,
            100.0 * r.support,
            100.0 * r.confidence,
            r.lift
        );
    }

    // --- Step 5: conditions per the integration ontology ---------------
    if let Some(id) = readmitted.first() {
        println!(
            "\nReadmitted patient {} has ontology-derived conditions: {:?}",
            id,
            cohort.conditions_of(*id)
        );
    }

    let svg = cohort.render_svg(1100.0, 650.0);
    let path = std::env::temp_dir().join("pastas_hf_cohort.svg");
    std::fs::write(&path, svg).expect("write SVG");
    println!("\nWrote the aligned cohort SVG to {}", path.display());

    // --- Step 6: group similar trajectories together --------------------
    if cohort.collection().len() <= 300 {
        let assignment = cohort.sort_by_similarity(4);
        let mut sizes = std::collections::HashMap::new();
        for c in &assignment {
            *sizes.entry(*c).or_insert(0usize) += 1;
        }
        let mut sizes: Vec<_> = sizes.into_iter().collect();
        sizes.sort();
        println!("\nTrajectory clusters (alignment distance, average linkage): {:?}", sizes);
    }

    // --- Step 7: the Fails-style event chart of readmissions ------------
    use pastas_viz::eventchart::{collect_rows, render_event_chart, EventChartOptions};
    let rows = collect_rows(cohort.collection(), &readmit);
    let (chart, _) = render_event_chart(cohort.collection(), &rows, &EventChartOptions::default());
    let chart_path = std::env::temp_dir().join("pastas_readmission_chart.svg");
    std::fs::write(&chart_path, pastas_viz::svg::render(&chart)).expect("write SVG");
    println!(
        "Event chart: {} readmission hits, one row each → {}",
        rows.len(),
        chart_path.display()
    );

    // --- Step 8: extraction for downstream statistics --------------------
    let csv = to_csv(cohort.collection());
    let json = to_json(cohort.collection());
    let csv_path = std::env::temp_dir().join("pastas_hf_cohort.csv");
    let json_path = std::env::temp_dir().join("pastas_hf_cohort.json");
    std::fs::write(&csv_path, &csv).expect("write CSV");
    std::fs::write(&json_path, &json).expect("write JSON");
    let reloaded = from_json(&json).expect("own JSON round-trips");
    assert_eq!(reloaded.len(), cohort.collection().len());
    println!(
        "Extracted {} CSV rows and a JSON cohort (round-trip verified) → {} / {}",
        csv.lines().count() - 1,
        csv_path.display(),
        json_path.display()
    );
}
