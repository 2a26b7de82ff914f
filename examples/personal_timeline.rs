//! Personal web timelines (experiment E7): the pastas.no artefact.
//!
//! §Abstract: "We have also used the tool to produce interactive personal
//! health time-lines (for more than 10,000 individuals) on the web."
//! This example exports self-contained HTML pages for a batch of patients
//! and reports throughput and page sizes. The default batch is small so
//! the example finishes instantly; pass `--count 10000` for the paper
//! scale.
//!
//! ```text
//! cargo run --release --example personal_timeline [--count N] [--out DIR]
//! ```

use pastas_core::prelude::*;
use std::time::Instant;

#[path = "common.rs"]
mod common;
use common::{arg, arg_str};

fn main() {
    let count = arg("--count", 50) as usize;
    let out_dir = arg_str("--out").unwrap_or_else(|| {
        std::env::temp_dir().join("pastas_timelines").to_string_lossy().into_owned()
    });
    let seed = arg("--seed", 3);

    // Enough patients that `count` of them are chronically ill.
    let patients = (count * 8).max(500);
    println!("Generating {patients} patients; exporting timelines for {count} chronic patients …");
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let wb = Workbench::from_collection(collection);

    // The feedback study presented *selected* patients their trajectories.
    let chronic = QueryBuilder::new()
        .has_code("T90|K74|K77|K86|R95|P76")
        .expect("regex")
        .build();
    let ids: Vec<PatientId> = wb.select_ids(&chronic).into_iter().take(count).collect();
    assert!(!ids.is_empty(), "no chronic patients found — increase --count context");

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let t0 = Instant::now();
    let mut total_bytes = 0usize;
    for id in &ids {
        let page = wb.export_personal_timeline(*id).expect("selected ids exist");
        total_bytes += page.len();
        let path = std::path::Path::new(&out_dir).join(format!("{id}.html"));
        std::fs::write(path, page).expect("write page");
    }
    let dt = t0.elapsed().as_secs_f64();

    println!("\n=== E7: personal web timelines (paper: >10,000 individuals) ===");
    println!("exported {} pages in {:.2}s ({:.0} pages/s)", ids.len(), dt, ids.len() as f64 / dt);
    println!(
        "mean page size {:.1} KiB (self-contained: SVG + details, no external assets)",
        total_bytes as f64 / ids.len() as f64 / 1024.0
    );
    println!(
        "at this rate, the paper's 10,000 individuals would take {:.1}s",
        10_000.0 / (ids.len() as f64 / dt)
    );
    println!("pages written under {out_dir}");
}
