//! Cohort dimension histograms as small multiples.
//!
//! One mini bar chart per profile dimension, laid out on a grid — the
//! cohort-composition panel the refinement loop reads between edits to
//! the selection criteria. Rendered through the shared [`Scene`] graph
//! so the SVG path reuses the existing renderer (classes + tooltips for
//! the interactive build), plus a direct text renderer for terminals.

use crate::color::{self, Color};
use crate::scene::{Primitive, Scene};
use pastas_analytics::{CohortProfile, Histogram};

const TITLE_PX: f64 = 12.0;
const LABEL_PX: f64 = 9.0;
const PAD: f64 = 10.0;
const BAR_FILL: Color = Color::rgb(0x4c, 0x78, 0xa8);
const BAR_EMPTY: Color = Color::rgb(0xe8, 0xe8, 0xe8);
const INK: Color = color::GLYPH_INK;

/// Lay the profile's histograms out as small multiples in a `w × h`
/// scene, three charts per row.
pub fn panel_scene(profile: &CohortProfile, w: f64, h: f64) -> Scene {
    let charts = profile.histograms();
    let mut scene = Scene::new(w, h);
    scene.push(
        Primitive::Text {
            x: PAD,
            y: PAD + TITLE_PX,
            text: format!(
                "cohort: {} patients, {} entries (reference {})",
                profile.cohort_size, profile.total_entries, profile.reference
            ),
            size: TITLE_PX,
            fill: INK,
        },
        "panel-header",
    );
    if charts.is_empty() {
        return scene;
    }
    let cols = 3usize;
    let rows = charts.len().div_ceil(cols);
    let top = PAD * 2.0 + TITLE_PX;
    let cell_w = (w - PAD) / cols as f64;
    let cell_h = (h - top - PAD) / rows as f64;
    for (i, chart) in charts.iter().enumerate() {
        let x0 = PAD + (i % cols) as f64 * cell_w;
        let y0 = top + (i / cols) as f64 * cell_h;
        draw_chart(&mut scene, chart, x0, y0, cell_w - PAD, cell_h - PAD);
    }
    scene
}

/// One mini bar chart inside the cell `(x0, y0, w, h)`.
fn draw_chart(scene: &mut Scene, chart: &Histogram, x0: f64, y0: f64, w: f64, h: f64) {
    scene.push(
        Primitive::Text {
            x: x0,
            y: y0 + TITLE_PX,
            text: chart.name.replace('_', " "),
            size: TITLE_PX,
            fill: INK,
        },
        "histogram-title",
    );
    let max = chart.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if max == 0 || chart.buckets.is_empty() {
        return;
    }
    let chart_top = y0 + TITLE_PX + 4.0;
    let chart_h = (h - TITLE_PX - 4.0 - LABEL_PX).max(8.0);
    let slot = w / chart.buckets.len() as f64;
    let bar_w = (slot * 0.8).max(1.0);
    for (i, (label, count)) in chart.buckets.iter().enumerate() {
        let bar_h = chart_h * (*count as f64 / max as f64);
        let x = x0 + i as f64 * slot;
        let fill = if *count == 0 { BAR_EMPTY } else { BAR_FILL };
        scene.push_with_tooltip(
            Primitive::Rect {
                x,
                y: chart_top + (chart_h - bar_h),
                w: bar_w,
                h: bar_h.max(if *count > 0 { 1.0 } else { 0.0 }),
                fill,
            },
            format!("histogram-bar {}", chart.name),
            format!("{}: {} = {}", chart.name, label, count),
        );
        // Label every bucket when they fit, else first/last only.
        let fits = slot >= LABEL_PX * label.len() as f64 * 0.62;
        if fits || i == 0 || i + 1 == chart.buckets.len() {
            scene.push(
                Primitive::Text {
                    x,
                    y: chart_top + chart_h + LABEL_PX,
                    text: label.clone(),
                    size: LABEL_PX,
                    fill: INK,
                },
                "histogram-label",
            );
        }
    }
}

/// The panel as a standalone SVG document.
pub fn panel_svg(profile: &CohortProfile, w: f64, h: f64) -> String {
    crate::svg::render(&panel_scene(profile, w, h))
}

/// The panel as plain text: one horizontal-bar block per histogram.
pub fn panel_ascii(profile: &CohortProfile, cols: usize) -> String {
    let bar_cols = cols.saturating_sub(30).max(10);
    let mut out = format!(
        "cohort: {} patients, {} entries (reference {})\n",
        profile.cohort_size, profile.total_entries, profile.reference
    );
    for chart in profile.histograms() {
        out.push('\n');
        out.push_str(chart.name);
        if !chart.partition {
            out.push_str(" (per-patient, overlapping)");
        }
        out.push('\n');
        let max = chart.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
        for (label, count) in &chart.buckets {
            let filled = if max == 0 {
                0
            } else {
                ((*count as f64 / max as f64) * bar_cols as f64).round() as usize
            };
            out.push_str(&format!(
                "  {label:>12} {:bar_cols$} {count}\n",
                "#".repeat(filled),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_analytics::cohort_profile_serial;
    use pastas_ontology::integration::IntegrationOntology;
    use pastas_synth::{generate_collection, SynthConfig};
    use pastas_time::Date;

    fn profile() -> CohortProfile {
        let collection = generate_collection(SynthConfig::with_patients(80), 31);
        let reference = collection
            .stats()
            .last
            .map(|dt| dt.date())
            .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid"));
        let positions: Vec<u32> = (0..collection.len() as u32).collect();
        cohort_profile_serial(&collection, &IntegrationOntology::new(), &positions, reference, 10)
    }

    #[test]
    fn svg_panel_has_one_chart_per_histogram() {
        let p = profile();
        let scene = panel_scene(&p, 900.0, 600.0);
        assert_eq!(scene.count_class_prefix("histogram-title"), p.histograms().len());
        assert!(scene.count_class_prefix("histogram-bar") > 0);
        let svg = panel_svg(&p, 900.0, 600.0);
        assert!(svg.contains("<svg"));
        assert!(svg.contains("age band"));
    }

    #[test]
    fn ascii_panel_lists_every_bucket_label() {
        let p = profile();
        let text = panel_ascii(&p, 100);
        assert!(text.contains("age_band"));
        assert!(text.contains("dominant_source"));
        assert!(text.contains("90+"));
        assert!(text.contains("none"));
    }

    #[test]
    fn empty_profile_renders_without_panicking() {
        let collection = generate_collection(SynthConfig::with_patients(10), 31);
        let reference = Date::new(2013, 1, 1).expect("valid");
        let p = cohort_profile_serial(&collection, &IntegrationOntology::new(), &[], reference, 10);
        assert!(panel_svg(&p, 400.0, 300.0).contains("<svg"));
        assert!(panel_ascii(&p, 80).contains("0 patients"));
    }
}
