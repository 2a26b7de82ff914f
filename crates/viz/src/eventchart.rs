//! The pattern-hit event chart — the Fails et al. design the paper
//! discusses (§II.D.2).
//!
//! "The visualisation used by Fails et al. can remind of an event chart
//! showing multiple lines per history, **one for each hit of a temporal
//! query**. However, the visualisation shows only the time spanned by the
//! search hits, as opposed to the traditional event chart showing the
//! entire histories."
//!
//! Given the hits of a `pastas_query::TemporalPattern`, this view lays out
//! one row per *hit* (a history with three readmission episodes gets three
//! rows), each row showing only the hit's span, left-aligned at the hit's
//! first step — which makes the internal tempo of the pattern comparable
//! across patients.

use crate::color;
use crate::hit::{HitMap, HitRecord};
use crate::scene::{Primitive, Scene};
use pastas_model::{EntryView, HistoryCollection};
use pastas_ontology::presentation::PresentationOntology;
use pastas_query::temporal::PatternHit;
use pastas_time::Duration;

/// One row of the chart: which history, which entry indexes.
#[derive(Debug, Clone)]
pub struct ChartRow {
    /// Position of the history in the collection.
    pub history_index: usize,
    /// The pattern hit.
    pub hit: PatternHit,
}

/// Collect chart rows by running a pattern over a collection.
pub fn collect_rows(
    collection: &HistoryCollection,
    pattern: &pastas_query::TemporalPattern,
) -> Vec<ChartRow> {
    let mut rows = Vec::new();
    for (i, h) in collection.iter().enumerate() {
        for hit in pattern.find_matches(h) {
            rows.push(ChartRow { history_index: i, hit });
        }
    }
    rows
}

/// Event-chart options.
#[derive(Debug, Clone, Copy)]
pub struct EventChartOptions {
    /// Canvas width, px.
    pub width: f64,
    /// Row height, px.
    pub row_height: f64,
    /// Extra time shown after the last step, as a fraction of the longest
    /// hit span.
    pub tail_fraction: f64,
}

impl Default for EventChartOptions {
    fn default() -> EventChartOptions {
        EventChartOptions { width: 900.0, row_height: 18.0, tail_fraction: 0.1 }
    }
}

/// Render the event chart: rows of hit spans, aligned at each hit's first
/// step, with step entries drawn using the normal glyph/band vocabulary.
pub fn render_event_chart(
    collection: &HistoryCollection,
    rows: &[ChartRow],
    opts: &EventChartOptions,
) -> (Scene, HitMap) {
    let presentation = PresentationOntology::new();
    let histories = collection.histories();

    // The time scale: longest hit span across rows (anchor → last end).
    let span_of = |row: &ChartRow| -> Duration {
        let entries = histories[row.history_index].entries();
        let first = entries.get(row.hit.steps[0]).start();
        let last = row
            .hit
            .steps
            .iter()
            .map(|&i| entries.get(i).end())
            .max()
            .expect("non-empty hit");
        last - first
    };
    let max_span = rows
        .iter()
        .map(|r| span_of(r).as_seconds())
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let scale = opts.width / (max_span * (1.0 + opts.tail_fraction)).max(1.0);

    let height = rows.len() as f64 * opts.row_height + 4.0;
    let mut scene = Scene::new(opts.width, height);
    let mut hits = HitMap::new();

    for (ri, row) in rows.iter().enumerate() {
        let entries = histories[row.history_index].entries();
        let anchor = entries.get(row.hit.steps[0]).start();
        let y = 2.0 + ri as f64 * opts.row_height;
        let bar_h = opts.row_height * 0.7;

        // The hit-span guide line.
        let span = span_of(row).as_seconds() as f64 * scale;
        scene.push(
            Primitive::Line {
                x1: 0.0,
                y1: y + bar_h / 2.0,
                x2: span.max(2.0),
                y2: y + bar_h / 2.0,
                stroke: color::ROW_BAR,
                width: bar_h * 0.5,
            },
            "chart:span",
        );

        for &ei in &row.hit.steps {
            let e = entries.get(ei);
            let x0 = (e.start() - anchor).as_seconds() as f64 * scale;
            let x1 = (e.end() - anchor).as_seconds() as f64 * scale;
            let prim = if e.is_interval() && presentation.band_for(e.payload()).is_some() {
                Primitive::Rect {
                    x: x0,
                    y,
                    w: (x1 - x0).max(1.5),
                    h: bar_h,
                    fill: color::BAND_HOSPITAL,
                }
            } else {
                let s = (bar_h * 0.6).clamp(3.0, 8.0);
                Primitive::Rect {
                    x: x0 - s / 2.0,
                    y: y + (bar_h - s) / 2.0,
                    w: s,
                    h: s,
                    fill: color::GLYPH_INK,
                }
            };
            let bbox = prim.bbox();
            scene.push_with_tooltip(prim, presentation.presentation_class(e), e.describe());
            hits.push(HitRecord {
                bbox,
                row: ri,
                history_index: row.history_index,
                entry_index: ei,
                details: e.describe(),
            });
        }
    }
    (scene, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, EpisodeKind, History, Patient, PatientId, Payload, Sex, SourceKind};
    use pastas_query::{EntryPredicate, GapBound, TemporalPattern};
    use pastas_time::{Date, DateTime};

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn collection() -> HistoryCollection {
        let mk = |id: u64, stays: &[(u32, u32)]| {
            let mut h = History::new(Patient {
                id: PatientId(id),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            });
            h.insert(Entry::event(
                t(2013, 1, 5),
                Payload::Diagnosis(Code::icpc("K77")),
                SourceKind::PrimaryCare,
            ));
            for &(m, d) in stays {
                h.insert(Entry::interval(
                    t(2013, m, d),
                    t(2013, m, d + 4),
                    Payload::Episode(EpisodeKind::Inpatient),
                    SourceKind::Hospital,
                ));
            }
            h
        };
        HistoryCollection::from_histories([
            mk(1, &[(2, 1), (2, 20)]),            // one readmission pair
            mk(2, &[(3, 1), (3, 10), (3, 20)]),   // two overlapping-window pairs
            mk(3, &[(5, 1)]),                     // no readmission
        ])
    }

    fn readmit_pattern() -> TemporalPattern {
        TemporalPattern::starting_with(EntryPredicate::IsInterval)
            .then(GapBound::within(pastas_time::Duration::days(30)), EntryPredicate::IsInterval)
    }

    #[test]
    fn one_row_per_hit_not_per_history() {
        let c = collection();
        let rows = collect_rows(&c, &readmit_pattern());
        // h1: 1 hit; h2: stays at 3/1, 3/10, 3/20 → anchors 1 and 2 both
        // complete → 2 hits; h3: none.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|r| r.history_index == 1).count(), 2);
        assert!(rows.iter().all(|r| r.history_index != 2));
    }

    #[test]
    fn rows_are_anchor_aligned() {
        let c = collection();
        let rows = collect_rows(&c, &readmit_pattern());
        let (scene, hits) = render_event_chart(&c, &rows, &EventChartOptions::default());
        assert!(!scene.is_empty());
        // Each row's first step starts at x ≈ 0.
        for ri in 0..rows.len() {
            let first = hits
                .row_records(ri)
                .min_by(|a, b| a.bbox.0.partial_cmp(&b.bbox.0).unwrap())
                .expect("row has records");
            assert!(first.bbox.0 <= 1.0, "row {ri} first step at {}", first.bbox.0);
        }
    }

    #[test]
    fn only_the_hit_span_is_drawn() {
        // The K77 diagnosis (before the stays) is not part of any hit and
        // must not appear — "events not part of a search hit are only
        // counted in the design of Fails et al."
        let c = collection();
        let rows = collect_rows(&c, &readmit_pattern());
        let (_, hits) = render_event_chart(&c, &rows, &EventChartOptions::default());
        assert!(hits.iter().all(|r| !r.details.contains("K77")));
    }

    #[test]
    fn empty_hits_render_empty_chart() {
        let c = collection();
        let never = TemporalPattern::starting_with(EntryPredicate::code_regex("Z99").unwrap());
        let rows = collect_rows(&c, &never);
        assert!(rows.is_empty());
        let (scene, hits) = render_event_chart(&c, &rows, &EventChartOptions::default());
        assert!(scene.is_empty());
        assert!(hits.is_empty());
    }
}
