//! Statistical indicator report: the numbers next to the pictures.
//!
//! §I lists "statistical indicator analysis" among the established ways of
//! learning from EHR databases; §V positions the visualization as the
//! hypothesis-generation companion to exactly this kind of table. The
//! report computes standard utilization indicators for the whole
//! population and for selected chronic cohorts, side by side.
//!
//! ```text
//! cargo run --release --example indicator_report [--patients N]
//! ```

use pastas_core::indicators::{indicators, IndicatorPanel};
use pastas_core::prelude::*;

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 20_000) as usize;
    let seed = arg("--seed", 29);
    println!("Generating {patients} patients (seed {seed}) …\n");
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let wb = Workbench::from_collection(collection);
    let from = Date::new(2013, 1, 1).expect("date");
    let to = Date::new(2015, 1, 1).expect("date");

    let cohorts: Vec<(&str, IndicatorPanel)> = vec![
        ("all", indicators(wb.collection(), from, to)),
        ("diabetes", panel(&wb, "T90|T89|E1[014].*", from, to)),
        ("heart failure", panel(&wb, "K77|I50.*", from, to)),
        ("COPD", panel(&wb, "R95|J44.*", from, to)),
        ("depression", panel(&wb, "P76|F3[23].*", from, to)),
    ];

    println!(
        "{:<28} {:>9} {:>8} {:>8} {:>10} {:>7} {:>9} {:>7} {:>7}",
        "indicator", "all", "diabetes", "HF", "COPD", "depr.", "", "", ""
    );
    let row = |label: &str, f: &dyn Fn(&IndicatorPanel) -> String| {
        let values: Vec<String> = cohorts.iter().map(|(_, p)| f(p)).collect();
        println!(
            "{:<28} {:>9} {:>8} {:>8} {:>10} {:>7}",
            label, values[0], values[1], values[2], values[3], values[4]
        );
    };
    row("patients", &|p| p.patients.to_string());
    row("GP contacts / py", &|p| format!("{:.2}", p.gp_contacts_per_py));
    row("specialist / py", &|p| format!("{:.2}", p.specialist_contacts_per_py));
    row("admissions / 1000 py", &|p| format!("{:.0}", p.admissions_per_1000py));
    row("mean LOS (days)", &|p| format!("{:.1}", p.mean_los_days));
    row("30-day readmission", &|p| format!("{:.1}%", 100.0 * p.readmission_rate));
    row("polypharmacy (≥5 ATC/90d)", &|p| format!("{:.1}%", 100.0 * p.polypharmacy_rate));
    row("municipal care", &|p| format!("{:.1}%", 100.0 * p.municipal_care_rate));

    println!(
        "\nReading: every chronic cohort multiplies the population baseline —\n\
         the utilization gradient the visualization makes explorable."
    );
}

fn panel(wb: &Workbench, pattern: &str, from: Date, to: Date) -> IndicatorPanel {
    let q = QueryBuilder::new().has_code(pattern).expect("regex").build();
    let cohort = wb.select(&q);
    indicators(cohort.collection(), from, to)
}
