//! Quickstart: the full PAsTAs pipeline in ~60 lines.
//!
//! Generates a small synthetic population, renders it through the four
//! heterogeneous source formats, aggregates them back (linkage + dedup +
//! validation), selects a cohort, aligns it, and renders both a terminal
//! preview and an SVG of the Fig. 1 view.
//!
//! ```text
//! cargo run --example quickstart [--patients N] [--seed S]
//! ```

use pastas_core::prelude::*;
use pastas_synth::emit::{emit, MessConfig};

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 400) as usize;
    let seed = arg("--seed", 42);

    // 1. A synthetic population, rendered as four heterogeneous sources.
    println!("Generating {patients} synthetic patients (seed {seed}) …");
    let population = generate_population(SynthConfig::with_patients(patients), seed);
    let raw = emit(&population, MessConfig::default());
    println!(
        "  sources: {} claims rows, {} hospital rows, {} municipal rows, {} rx rows",
        raw.claims.lines().count() - 1,
        raw.hospital.lines().count() - 1,
        raw.municipal.lines().count() - 1,
        raw.prescriptions.lines().count() - 1,
    );

    // 2. Aggregate them (the paper's title operation).
    let wb = Workbench::from_raw_sources(SourceTexts {
        persons: &raw.persons,
        claims: &raw.claims,
        hospital: &raw.hospital,
        municipal: &raw.municipal,
        prescriptions: &raw.prescriptions,
    });
    let q = wb.quality().expect("raw-source build has a report");
    println!(
        "  aggregated {} entries; dropped {} duplicates, {} pre-birth dates; \
         extracted {} note measurements",
        q.entries_loaded, q.duplicates_dropped, q.dropped_pre_birth, q.measurements_extracted
    );

    // 3. Cohort identification: the diabetes cohort (Fig. 4 headless).
    let query = QueryBuilder::new().has_code("T90|T89").expect("valid regex").build();
    let mut cohort = wb.select(&query);
    println!(
        "  selected {} of {} patients ({:.1}%) — the paper selected 13,000 of 168,000 (7.7%)",
        cohort.collection().len(),
        wb.collection().len(),
        100.0 * cohort.collection().len() as f64 / wb.collection().len() as f64,
    );

    // 4. Align on the first diabetes code and render.
    let anchored = cohort.align_on_code("T90|T89").expect("valid regex");
    println!("  aligned {anchored} histories on their first diabetes code\n");

    println!("Terminal preview (aligned view, anchor rule at '│'):");
    print!("{}", cohort.render_ascii(110, 24));

    let svg = cohort.render_svg(1000.0, 600.0);
    let path = std::env::temp_dir().join("pastas_quickstart.svg");
    std::fs::write(&path, &svg).expect("write SVG");
    println!("\nWrote the Fig. 1-style SVG to {}", path.display());

    // 5. Details-on-demand for the first diabetic patient.
    if let Some(h) = cohort.collection().histories().first() {
        println!("\nFirst patient in the cohort ({}):", h.id());
        for e in h.entries().iter().take(6) {
            println!("  {}", e.describe());
        }
        if h.len() > 6 {
            println!("  … and {} more entries", h.len() - 6);
        }
    }
}
