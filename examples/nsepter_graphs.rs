//! The NSEPter baseline (Fig. 2): merged diagnosis graphs and why they
//! become "virtually unreadable".
//!
//! Reproduces both panels: (a) a small graph merged around the first
//! incidence of diabetes (T90), rendered to SVG; (b) the crowding blow-up
//! when several hundred patients are shown at once, quantified by the E3
//! metrics and contrasted with the timeline design's linear footprint.
//!
//! ```text
//! cargo run --example nsepter_graphs [--patients N]
//! ```

use pastas_core::prelude::*;
use pastas_graph::{crowding, layout, merge_neighbors, merge_on_regex, DiGraph};
use pastas_viz::graphview::{render_graph, GraphViewOptions};

#[path = "common.rs"]
mod common;
use common::arg;

fn main() {
    let patients = arg("--patients", 3_000) as usize;
    let collection = generate_collection(SynthConfig::with_patients(patients), 16);

    // Fig. 2(a): a small diabetes graph.
    let diabetics: Vec<Vec<Code>> = collection
        .iter()
        .filter(|h| h.entries().iter().any(|e| e.code().is_some_and(|c| c.value == "T90")))
        .take(8)
        .map(|h| h.diagnosis_sequence().into_iter().cloned().collect())
        .collect();
    println!("Fig. 2(a): {} diabetes histories, merged around the first T90", diabetics.len());
    let mut small = DiGraph::from_sequences(&diabetics);
    let re = pastas_regex::Regex::new("T90").expect("regex");
    let merged = merge_on_regex(&mut small, &re);
    merge_neighbors(&mut small, &merged, 2);
    let small_layout = layout(&small);
    let m = crowding(&small, &small_layout);
    println!(
        "  nodes {}, edges {}, crossings {}, max edge weight {}",
        m.nodes, m.edges, m.crossings, small.max_edge_weight()
    );
    let svg = pastas_viz::svg::render(&render_graph(
        &small,
        &small_layout,
        &GraphViewOptions::default(),
    ));
    let path = std::env::temp_dir().join("pastas_nsepter_small.svg");
    std::fs::write(&path, svg).expect("write SVG");
    println!("  wrote {}", path.display());

    // Fig. 2(b): several hundred patients — the crowding table (E3).
    println!("\nFig. 2(b): crowding growth (NSEPter graph vs timeline rows)");
    println!(
        "{:>9} {:>8} {:>8} {:>11} {:>9} | {:>15}",
        "histories", "nodes", "edges", "crossings", "density", "timeline rows"
    );
    for n in [25usize, 100, 400, 800] {
        let seqs: Vec<Vec<Code>> = collection
            .iter()
            .take(n)
            .map(|h| h.diagnosis_sequence().into_iter().cloned().collect())
            .collect();
        let mut g = DiGraph::from_sequences(&seqs);
        let merged = merge_on_regex(&mut g, &re);
        merge_neighbors(&mut g, &merged, 2);
        let l = layout(&g);
        let m = crowding(&g, &l);
        println!(
            "{:>9} {:>8} {:>8} {:>11} {:>9.2} | {:>15}",
            n, m.nodes, m.edges, m.crossings, m.density, n
        );
    }
    println!(
        "\nThe timeline design's footprint is one row per history (rightmost column):\n\
         linear, never crossing — the paper's motivation for abandoning the graph view."
    );
}
