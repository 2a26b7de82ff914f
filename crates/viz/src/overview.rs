//! The overview mode — "Overview first, zoom and filter, then
//! details-on-demand" (§II.C.3).
//!
//! At 168,000 patients there are more histories than screen pixel rows, so
//! the row-per-patient layout cannot provide the *overview* step of the
//! mantra. This mode aggregates: the display order is cut into row blocks,
//! time into buckets, and each cell shows the entry density as a grayscale
//! patch. The analyst spots dense regions (the "information scent" of
//! §II.C.1), then zooms into the row-per-patient view.

use crate::color::Color;
use crate::scene::{Primitive, Scene};
use pastas_model::HistoryCollection;
use pastas_query::{BoundPredicate, EntryPredicate};
use pastas_time::DateTime;

/// Overview parameters.
#[derive(Debug, Clone, Copy)]
pub struct OverviewOptions {
    /// Number of time buckets (columns).
    pub time_buckets: usize,
    /// Number of row blocks (each aggregates `ceil(rows / row_blocks)`
    /// consecutive histories of the display order).
    pub row_blocks: usize,
}

impl Default for OverviewOptions {
    fn default() -> OverviewOptions {
        OverviewOptions { time_buckets: 96, row_blocks: 64 }
    }
}

/// The density matrix: `matrix[block][bucket]` = entry count.
#[derive(Debug, Clone)]
pub struct DensityMatrix {
    /// Counts per (row block, time bucket).
    pub counts: Vec<Vec<u32>>,
    /// Highest cell value (0 for an empty matrix).
    pub max: u32,
    /// Histories per row block.
    pub block_size: usize,
}

/// Compute the density matrix over `[from, to)` in display `order`.
pub fn density(
    collection: &HistoryCollection,
    order: &[u32],
    from: DateTime,
    to: DateTime,
    filter: Option<&EntryPredicate>,
    opts: &OverviewOptions,
) -> DensityMatrix {
    let blocks = opts.row_blocks.max(1);
    let buckets = opts.time_buckets.max(1);
    let block_size = order.len().div_ceil(blocks).max(1);
    let span = (to - from).as_seconds().max(1) as f64;
    let histories = collection.histories();
    let mut counts = vec![vec![0u32; buckets]; blocks];
    let filter = filter.map(|f| BoundPredicate::new(f, collection.dictionary()));
    for (row, &hi) in order.iter().enumerate() {
        let block = row / block_size;
        if block >= blocks {
            break;
        }
        let history = &histories[hi as usize];
        for e in history.entries() {
            if filter.as_ref().is_some_and(|f| !f.matches(e)) {
                continue;
            }
            if e.end() < from || e.start() > to {
                continue;
            }
            // Point entries hit one bucket; intervals smear across theirs.
            let b0 = (((e.start().max(from) - from).as_seconds() as f64 / span)
                * buckets as f64) as usize;
            let b1 = (((e.end().min(to) - from).as_seconds() as f64 / span) * buckets as f64)
                as usize;
            for count in &mut counts[block][b0..=b1.min(buckets - 1)] {
                *count += 1;
            }
        }
    }
    let max = counts.iter().flatten().copied().max().unwrap_or(0);
    DensityMatrix { counts, max, block_size }
}

/// Render the density matrix as a scene (darker = denser; perceptually
/// this is a sequential lightness ramp, the safe encoding for magnitude).
pub fn render_overview(matrix: &DensityMatrix, width: f64, height: f64) -> Scene {
    let blocks = matrix.counts.len().max(1);
    let buckets = matrix.counts.first().map(Vec::len).unwrap_or(0).max(1);
    let cell_w = width / buckets as f64;
    let cell_h = height / blocks as f64;
    let mut scene = Scene::new(width, height);
    for (bi, row) in matrix.counts.iter().enumerate() {
        for (ti, &n) in row.iter().enumerate() {
            if n == 0 {
                continue;
            }
            // Lightness ramp: sqrt compression so sparse cells stay visible.
            let intensity = (n as f64 / matrix.max.max(1) as f64).sqrt();
            let shade = (235.0 - intensity * 190.0) as u8;
            scene.push_with_tooltip(
                Primitive::Rect {
                    x: ti as f64 * cell_w,
                    y: bi as f64 * cell_h,
                    w: cell_w.max(1.0),
                    h: cell_h.max(1.0),
                    fill: Color::rgb(shade, shade, shade),
                },
                "viz:Overview/cell",
                format!(
                    "{} entries (patients {}–{})",
                    n,
                    bi * matrix.block_size,
                    (bi + 1) * matrix.block_size - 1
                ),
            );
        }
    }
    scene
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, History, Patient, PatientId, Payload, Sex, SourceKind};
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn collection(n: usize) -> HistoryCollection {
        HistoryCollection::from_histories((0..n).map(|i| {
            let mut h = History::new(Patient {
                id: PatientId(i as u64 + 1),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            });
            // Every history has one event in March; the first half also
            // has one in September.
            h.insert(Entry::event(
                t(2013, 3, 15),
                Payload::Diagnosis(Code::icpc("A01")),
                SourceKind::PrimaryCare,
            ));
            if i < n / 2 {
                h.insert(Entry::event(
                    t(2013, 9, 15),
                    Payload::Diagnosis(Code::icpc("T90")),
                    SourceKind::PrimaryCare,
                ));
            }
            h
        }))
    }

    #[test]
    fn density_captures_the_temporal_structure() {
        let c = collection(100);
        let order: Vec<u32> = (0..100).collect();
        let m = density(
            &c,
            &order,
            t(2013, 1, 1),
            t(2014, 1, 1),
            None,
            &OverviewOptions { time_buckets: 12, row_blocks: 2 },
        );
        assert_eq!(m.counts.len(), 2);
        assert_eq!(m.counts[0].len(), 12);
        assert_eq!(m.block_size, 50);
        // March (bucket 2) is dense in both blocks.
        assert_eq!(m.counts[0][2], 50);
        assert_eq!(m.counts[1][2], 50);
        // September (bucket 8) only in the first block.
        assert_eq!(m.counts[0][8], 50);
        assert_eq!(m.counts[1][8], 0);
        assert_eq!(m.max, 50);
    }

    #[test]
    fn filter_narrows_the_overview() {
        let c = collection(40);
        let order: Vec<u32> = (0..40).collect();
        let only_t90 = EntryPredicate::code_regex("T90").unwrap();
        let m = density(
            &c,
            &order,
            t(2013, 1, 1),
            t(2014, 1, 1),
            Some(&only_t90),
            &OverviewOptions { time_buckets: 12, row_blocks: 1 },
        );
        let total: u32 = m.counts[0].iter().sum();
        assert_eq!(total, 20, "only the T90 half remains");
    }

    #[test]
    fn overview_scene_size_is_bounded_by_cells_not_patients() {
        // 10k patients, but the scene never exceeds blocks × buckets cells.
        let c = collection(1_000);
        let order: Vec<u32> = (0..1_000).collect();
        let opts = OverviewOptions { time_buckets: 24, row_blocks: 16 };
        let m = density(&c, &order, t(2013, 1, 1), t(2014, 1, 1), None, &opts);
        let scene = render_overview(&m, 800.0, 400.0);
        assert!(scene.len() <= 24 * 16, "scene has {} elements", scene.len());
        assert!(scene.count_class_prefix("viz:Overview/cell") > 0);
    }

    #[test]
    fn denser_cells_are_darker() {
        let c = collection(100);
        let order: Vec<u32> = (0..100).collect();
        let m = density(
            &c,
            &order,
            t(2013, 1, 1),
            t(2014, 1, 1),
            None,
            &OverviewOptions { time_buckets: 12, row_blocks: 2 },
        );
        let scene = render_overview(&m, 800.0, 400.0);
        let mut shades: Vec<u8> = scene
            .elements
            .iter()
            .filter_map(|e| match e.primitive {
                Primitive::Rect { fill, .. } => Some(fill.r),
                _ => None,
            })
            .collect();
        shades.sort_unstable();
        shades.dedup();
        assert!(!shades.is_empty());
        // The densest cell uses the darkest shade.
        assert_eq!(shades[0], 235 - 190, "full intensity shade");
    }

    #[test]
    fn empty_inputs() {
        let c = HistoryCollection::new();
        let m = density(&c, &[], t(2013, 1, 1), t(2014, 1, 1), None, &OverviewOptions::default());
        assert_eq!(m.max, 0);
        let scene = render_overview(&m, 100.0, 100.0);
        assert!(scene.is_empty());
    }
}
