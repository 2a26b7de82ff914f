//! The patient-feedback study, simulated (experiment E6).
//!
//! §IV: trajectories of the 13,000 selected patients were presented to the
//! patients themselves; "92% could easily recognize their own trajectory,
//! 7% did not remember and 1% said everything was wrong." This example
//! reproduces the split under the default aggregation-error model and then
//! sweeps the error severity — the sensitivity analysis the paper lacks.
//!
//! ```text
//! cargo run --release --example recognition_study [--patients N]
//! ```

use pastas_core::prelude::*;
use pastas_core::RecognitionModel;

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 30_000) as usize;
    let seed = arg("--seed", 2014);

    println!("Generating {patients} patients and selecting the chronic cohort …");
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let chronic =
        QueryBuilder::new().has_code("T90|T89|K74|K77|K86|R95|P76").expect("regex").build();
    let cohort = collection.extract(|h| chronic.matches(h));
    println!(
        "  study cohort: {} patients ({:.1}% — the paper studied 13,000 of 168,000)",
        cohort.len(),
        100.0 * cohort.len() as f64 / patients as f64
    );

    let outcome = pastas_core::simulate_study(&cohort, &RecognitionModel::default(), seed);
    println!("\n=== E6: recognition study (paper: 92% / 7% / 1%) ===");
    println!("recognized       {:.1}%", 100.0 * outcome.recognized);
    println!("did not remember {:.1}%", 100.0 * outcome.not_remembered);
    println!("everything wrong {:.1}%", 100.0 * outcome.all_wrong);

    println!("\nSensitivity: recognition vs aggregation error severity");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12}",
        "swap prob", "dropout", "recognized", "not remembered", "all wrong"
    );
    for severity in [0.0f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let model = RecognitionModel {
            record_swap_prob: 0.01 * severity,
            source_dropout: 0.01 * severity,
            ..RecognitionModel::default()
        };
        let o = pastas_core::simulate_study(&cohort, &model, seed + severity as u64);
        println!(
            "{:>11.1}% {:>11.1}% {:>11.1}% {:>13.1}% {:>11.1}%",
            100.0 * model.record_swap_prob,
            100.0 * model.source_dropout,
            100.0 * o.recognized,
            100.0 * o.not_remembered,
            100.0 * o.all_wrong
        );
    }
    println!(
        "\nReading: the paper's 92/7/1 is consistent with ~1% linkage error and\n\
         ~1% per-source dropout; recognition degrades roughly linearly in both."
    );
}
