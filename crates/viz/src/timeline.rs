//! The Fig. 1 timeline layout.
//!
//! Turns `(collection, display order, axis mode, filter, viewport)` into a
//! [`Scene`], plus a [`HitMap`] when the caller hit-tests. Pure function
//! of its inputs; the E1 bench measures exactly this call.

use crate::axis::{aligned_ticks, calendar_ticks, AxisMode, NOMINAL_MONTH_SECS};
use crate::color;
use crate::hit::{HitMap, HitRecord};
use crate::scene::{Element, Primitive, Scene};
use crate::viewport::Viewport;
use pastas_model::{EntryRef, HistoryCollection};
use pastas_ontology::presentation::{BandKind, GlyphShape, PresentationOntology};
use pastas_query::{BoundPredicate, EntryPredicate};
use pastas_time::{Date, DateTime, Duration};

/// The fixed epoch whose x-position represents "offset zero" in aligned
/// mode.
pub const ALIGNED_EPOCH_YEAR: i32 = 2000;

/// The zero-offset instant used by aligned viewports.
pub fn aligned_epoch() -> DateTime {
    // literal 2000-01-01 is a valid date
    Date::new(ALIGNED_EPOCH_YEAR, 1, 1).expect("valid").at_midnight()
}

/// A viewport showing `months_before..months_after` around the anchor.
pub fn aligned_viewport(
    months_before: i32,
    months_after: i32,
    rows: f64,
    width_px: f64,
    height_px: f64,
) -> Viewport {
    let e = aligned_epoch();
    Viewport::new(
        e + Duration::seconds((-months_before as f64 * NOMINAL_MONTH_SECS) as i64),
        e + Duration::seconds((months_after as f64 * NOMINAL_MONTH_SECS) as i64),
        rows,
        width_px,
        height_px,
    )
}

/// Layout options.
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Axis mode (calendar vs aligned).
    pub axis: AxisMode,
    /// Event filter: entries failing it are hidden ("filtering events").
    pub filter: Option<EntryPredicate>,
    /// Draw patient-id labels on the vertical axis.
    pub row_labels: bool,
    /// Pixels reserved at the bottom for the axis.
    pub axis_height: f64,
}

impl Default for TimelineOptions {
    fn default() -> TimelineOptions {
        TimelineOptions {
            axis: AxisMode::Calendar,
            filter: None,
            row_labels: true,
            axis_height: 24.0,
        }
    }
}

/// A timeline view: a collection in a display order plus options. The
/// view borrows both, so laying out forty visible rows of a million
/// allocates for forty.
#[derive(Debug)]
pub struct TimelineView<'a> {
    collection: &'a HistoryCollection,
    /// History position per display row; `None` is collection order.
    order: Option<&'a [u32]>,
    /// Layout options.
    pub options: TimelineOptions,
}

impl<'a> TimelineView<'a> {
    /// A view in natural collection order.
    pub fn new(collection: &'a HistoryCollection, options: TimelineOptions) -> TimelineView<'a> {
        TimelineView { collection, order: None, options }
    }

    /// Replace the display order (`pastas_query::sort_histories`,
    /// `pastas_query::align_rows`).
    /// A position out of range leaves its row blank.
    pub fn with_order(mut self, order: &'a [u32]) -> TimelineView<'a> {
        self.order = Some(order);
        self
    }

    /// Number of display rows.
    pub fn rows(&self) -> usize {
        self.order.map_or(self.collection.len(), <[u32]>::len)
    }

    /// Lay the view out into a scene + hit map (details-on-demand, the
    /// HTML export).
    pub fn layout(&self, vp: &Viewport) -> (Scene, HitMap) {
        let mut hits = HitMap::new();
        let scene = self.lay_out(vp, Some(&mut hits));
        (scene, hits)
    }

    /// The scene alone, for the renderers: no hit record is built.
    pub fn scene(&self, vp: &Viewport) -> Scene {
        self.lay_out(vp, None)
    }

    /// The one layout loop; `hits` is the optional hit-record sink. Each
    /// visible row's entries are walked once: an entry the filter (bound
    /// once a layout) rejects or the viewport clips costs no payload
    /// work, a band is drawn as it is met and a glyph after the row's
    /// last band, so bands paint under glyphs.
    fn lay_out(&self, vp: &Viewport, mut hits: Option<&mut HitMap>) -> Scene {
        let presentation = PresentationOntology::new();
        let mut scene = Scene::new(vp.width_px, vp.height_px + self.options.axis_height);
        let row_h = vp.row_height();
        let bar_h = (row_h * 0.62).clamp(1.0, 26.0);
        let histories = self.collection.histories();
        let epoch = aligned_epoch();
        let dict = self.collection.dictionary();
        let filter = self.options.filter.as_ref().map(|f| BoundPredicate::new(f, dict));
        let mut glyphs = Vec::new();

        for row in vp.visible_rows(self.rows()) {
            let position = self.order.map_or(row, |order| order[row] as usize);
            let Some(hist) = histories.get(position) else {
                continue;
            };
            let y_top = vp.y_of_row(row);
            let y_bar = y_top + (row_h - bar_h) / 2.0;
            let patient = hist.id();
            // In aligned mode the row's anchor; an unanchored row is not drawn.
            let anchor = match &self.options.axis {
                AxisMode::Calendar => None,
                AxisMode::Aligned(alignment) => match alignment.anchor(patient) {
                    Some(anchor) => Some(anchor),
                    None => continue,
                },
            };
            let x_of = |t: DateTime| vp.x_of(anchor.map_or(t, |a| epoch + (t - a)));

            // The gray history bar spans the history's extent (clipped).
            let (Some(first), Some(last)) = (hist.first_time(), hist.last_time()) else {
                continue;
            };
            let bar_x0 = x_of(first).max(0.0);
            let bar_x1 = x_of(last).min(vp.width_px);
            if bar_x1 > bar_x0 {
                scene.push(
                    Primitive::Rect {
                        x: bar_x0,
                        y: y_bar,
                        w: bar_x1 - bar_x0,
                        h: bar_h,
                        fill: color::ROW_BAR,
                    },
                    "viz:Row/bar",
                );
            }

            glyphs.clear();
            for (ei, e) in hist.entries().iter().enumerate() {
                if filter.as_ref().is_some_and(|f| !f.matches(e)) {
                    continue;
                }
                let (ex0, ex1) = (x_of(e.start()), x_of(e.end()));
                if ex1 < 0.0 || ex0 > vp.width_px {
                    continue; // outside the visible span
                }
                match e.is_interval().then(|| presentation.band_for(e.payload())).flatten() {
                    Some(band) => {
                        let primitive = band_rect(band, (ex0, ex1, y_bar, bar_h), vp);
                        let at = (row, position, ei);
                        push_entry(&mut scene, hits.as_deref_mut(), primitive, band.class(), e, at);
                    }
                    None => glyphs.push((ei, e, ex0)),
                }
            }
            for &(ei, e, x) in &glyphs {
                let primitive = glyph(&presentation, e, x, y_bar, bar_h);
                let class = presentation.glyph_for(e.payload()).class();
                let at = (row, position, ei);
                push_entry(&mut scene, hits.as_deref_mut(), primitive, class, e, at);
            }

            // Patient-id label (the paper's vertical axis).
            if self.options.row_labels && row_h >= 7.0 {
                scene.push(
                    Primitive::Text {
                        x: 2.0,
                        y: y_bar + bar_h - 1.0,
                        text: patient.to_string(),
                        size: (row_h * 0.45).clamp(6.0, 11.0),
                        fill: color::AXIS_INK,
                    },
                    "viz:Row/label",
                );
            }
        }

        self.draw_axis(&mut scene, vp);
        scene
    }

    fn draw_axis(&self, scene: &mut Scene, vp: &Viewport) {
        let y = vp.height_px;
        scene.push(
            Primitive::Line {
                x1: 0.0,
                y1: y,
                x2: vp.width_px,
                y2: y,
                stroke: color::AXIS_INK,
                width: 1.0,
            },
            "viz:Axis/rule",
        );
        let (ticks, origin) = match &self.options.axis {
            AxisMode::Calendar => (calendar_ticks(vp.time_from, vp.time_to), vp.time_from),
            AxisMode::Aligned(_) => {
                let e = aligned_epoch();
                let before =
                    (-((vp.time_from - e).as_seconds() as f64) / NOMINAL_MONTH_SECS).ceil() as i32;
                let after =
                    (((vp.time_to - e).as_seconds() as f64) / NOMINAL_MONTH_SECS).floor() as i32;
                // Anchor rule at offset zero.
                let x0 = vp.x_of(e);
                scene.push(
                    Primitive::Line {
                        x1: x0,
                        y1: 0.0,
                        x2: x0,
                        y2: y,
                        stroke: color::ANCHOR_RULE,
                        width: 1.0,
                    },
                    "viz:Axis/anchor",
                );
                (aligned_ticks(before.max(0), after.max(0)), e)
            }
        };
        for tick in ticks {
            let x = vp.x_of(origin + Duration::seconds(tick.at_seconds));
            if !(0.0..=vp.width_px).contains(&x) {
                continue;
            }
            scene.push(
                Primitive::Line {
                    x1: x,
                    y1: y,
                    x2: x,
                    y2: y + if tick.major { 6.0 } else { 4.0 },
                    stroke: color::AXIS_INK,
                    width: 1.0,
                },
                "viz:Axis/tick",
            );
            if tick.major {
                scene.push(
                    Primitive::Text {
                        x: x + 2.0,
                        y: y + self.options.axis_height - 6.0,
                        text: tick.label,
                        size: 10.0,
                        fill: color::AXIS_INK,
                    },
                    "viz:Axis/label",
                );
            }
        }
    }
}

/// Bytes a tooltip takes at most but for long notes: an interval's two
/// instants and duration, a named code and a source.
const TOOLTIP_BYTES: usize = 160;

/// Push one drawn entry with its details as a tooltip, written into one
/// buffer, and its hit record at `(row, history position, entry index)`
/// when `hits` is given.
fn push_entry(
    scene: &mut Scene,
    hits: Option<&mut HitMap>,
    primitive: Primitive,
    class: &'static str,
    e: EntryRef<'_>,
    (row, history_index, entry_index): (usize, usize, usize),
) {
    let mut details = String::with_capacity(TOOLTIP_BYTES);
    e.describe_into(&mut details);
    if let Some(hits) = hits {
        let bbox = primitive.bbox();
        hits.push(HitRecord { bbox, row, history_index, entry_index, details: details.clone() });
    }
    scene.elements.push(Element { primitive, class: class.into(), tooltip: Some(details) });
}

/// A band's rectangle; `geom` is its pixel geometry `(x0, x1, y, height)`.
fn band_rect(
    band: BandKind,
    (ex0, ex1, y_bar, bar_h): (f64, f64, f64, f64),
    vp: &Viewport,
) -> Primitive {
    let fill = match band {
        BandKind::Hospital => color::BAND_HOSPITAL,
        BandKind::Municipal => color::BAND_MUNICIPAL,
        BandKind::Rehabilitation => color::BAND_REHAB,
        BandKind::Medication => color::BAND_MEDICATION,
    };
    let x = ex0.max(0.0);
    let w = (ex1.min(vp.width_px) - x).max(1.0);
    Primitive::Rect { x, y: y_bar, w, h: bar_h, fill }
}

/// A point entry's glyph at `x` on the bar at `y_bar`.
fn glyph(
    presentation: &PresentationOntology,
    e: EntryRef<'_>,
    x: f64,
    y_bar: f64,
    bar_h: f64,
) -> Primitive {
    let s = (bar_h * 0.55).clamp(2.0, 9.0); // glyph size
    let cy = y_bar + bar_h / 2.0;
    let fill = presentation
        .entry_color_class(e)
        .map(|c| color::medication_color(c.0))
        .unwrap_or(color::GLYPH_INK);
    match presentation.glyph_for(e.payload()) {
        GlyphShape::Square => Primitive::Rect { x: x - s / 2.0, y: cy - s / 2.0, w: s, h: s, fill },
        GlyphShape::Arrow => Primitive::Polygon {
            // Upward arrow above the bar: the Fig. 1 BP marks.
            points: vec![
                (x, y_bar - 1.0),
                (x - s / 2.0, y_bar + s - 1.0),
                (x + s / 2.0, y_bar + s - 1.0),
            ],
            fill,
        },
        GlyphShape::Triangle => Primitive::Polygon {
            points: vec![
                (x, cy + s / 2.0),
                (x - s / 2.0, cy - s / 2.0),
                (x + s / 2.0, cy - s / 2.0),
            ],
            fill,
        },
        GlyphShape::Cross => Primitive::Polygon { points: cross_points(x, cy, s), fill },
        GlyphShape::Circle => Primitive::Circle { cx: x, cy, r: s / 2.0, fill },
    }
}

fn cross_points(cx: f64, cy: f64, s: f64) -> Vec<(f64, f64)> {
    // A plus-shaped dodecagon.
    let a = s / 6.0;
    let b = s / 2.0;
    vec![
        (cx - a, cy - b),
        (cx + a, cy - b),
        (cx + a, cy - a),
        (cx + b, cy - a),
        (cx + b, cy + a),
        (cx + a, cy + a),
        (cx + a, cy + b),
        (cx - a, cy + b),
        (cx - a, cy + a),
        (cx - b, cy + a),
        (cx - b, cy - a),
        (cx - a, cy - a),
    ]
}

#[cfg(test)]
impl TimelineView<'_> {
    /// The x pixel of an instant for a given history, or `None` when the
    /// history has no anchor in aligned mode.
    fn x_of_oracle(
        &self,
        vp: &Viewport,
        patient: pastas_model::PatientId,
        t: DateTime,
    ) -> Option<f64> {
        match &self.options.axis {
            AxisMode::Calendar => Some(vp.x_of(t)),
            AxisMode::Aligned(alignment) => {
                let anchor = alignment.anchor(patient)?;
                Some(vp.x_of(aligned_epoch() + (t - anchor)))
            }
        }
    }

    /// The former two-pass layout, the oracle [`Self::lay_out`] is held
    /// to: every entry tested twice against the unbound filter, the
    /// anchor looked up twice an entry, the class and tooltip formatted.
    pub(crate) fn lay_out_oracle(&self, vp: &Viewport, mut hits: Option<&mut HitMap>) -> Scene {
        let presentation = PresentationOntology::new();
        let mut scene = Scene::new(vp.width_px, vp.height_px + self.options.axis_height);
        let row_h = vp.row_height();
        let bar_h = (row_h * 0.62).clamp(1.0, 26.0);
        let histories = self.collection.histories();

        for row in vp.visible_rows(self.rows()) {
            let position = self.order.map_or(row, |order| order[row] as usize);
            let Some(hist) = histories.get(position) else {
                continue;
            };
            let y_top = vp.y_of_row(row);
            let y_bar = y_top + (row_h - bar_h) / 2.0;
            let patient = hist.id();

            // The gray history bar spans the history's extent (clipped).
            let (Some(first), Some(last)) = (hist.first_time(), hist.last_time()) else {
                continue;
            };
            let x_of = |t| self.x_of_oracle(vp, patient, t);
            let (Some(x0), Some(x1)) = (x_of(first), x_of(last)) else {
                continue; // unanchored history in aligned mode
            };
            let bar_x0 = x0.max(0.0);
            let bar_x1 = x1.min(vp.width_px);
            if bar_x1 > bar_x0 {
                scene.push(
                    Primitive::Rect {
                        x: bar_x0,
                        y: y_bar,
                        w: bar_x1 - bar_x0,
                        h: bar_h,
                        fill: color::ROW_BAR,
                    },
                    "viz:Row/bar",
                );
            }

            // Entries: bands first (under), then glyphs (over).
            for pass in 0..2 {
                for (ei, e) in hist.entries().iter().enumerate() {
                    if let Some(f) = &self.options.filter {
                        if !f.matches(e) {
                            continue;
                        }
                    }
                    let band =
                        if e.is_interval() { presentation.band_for(e.payload()) } else { None };
                    if (pass == 0) != band.is_some() {
                        continue;
                    }
                    let (Some(ex0), Some(ex1)) = (x_of(e.start()), x_of(e.end())) else {
                        continue;
                    };
                    if ex1 < 0.0 || ex0 > vp.width_px {
                        continue; // outside the visible span
                    }
                    let primitive = match band {
                        Some(band) => band_rect(band, (ex0, ex1, y_bar, bar_h), vp),
                        None => glyph(&presentation, e, ex0, y_bar, bar_h),
                    };
                    // Every drawn entry carries its details as a tooltip.
                    let details = e.describe();
                    if let Some(hits) = hits.as_deref_mut() {
                        hits.push(HitRecord {
                            bbox: primitive.bbox(),
                            row,
                            history_index: position,
                            entry_index: ei,
                            details: details.clone(),
                        });
                    }
                    let class = presentation.presentation_class(e).to_owned().into();
                    scene.elements.push(Element { primitive, class, tooltip: Some(details) });
                }
            }

            // Patient-id label (the paper's vertical axis).
            if self.options.row_labels && row_h >= 7.0 {
                scene.push(
                    Primitive::Text {
                        x: 2.0,
                        y: y_bar + bar_h - 1.0,
                        text: patient.to_string(),
                        size: (row_h * 0.45).clamp(6.0, 11.0),
                        fill: color::AXIS_INK,
                    },
                    "viz:Row/label",
                );
            }
        }

        self.draw_axis(&mut scene, vp);
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, EpisodeKind, History, Patient, PatientId, Payload, Sex, SourceKind};
    use pastas_query::{align_on, EntryPredicate};

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn sample_collection() -> HistoryCollection {
        let mut hs = Vec::new();
        for id in 1..=3u64 {
            let mut h = History::new(Patient {
                id: PatientId(id),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            });
            h.insert(Entry::event(
                t(2013, 3, id as u32),
                Payload::Diagnosis(Code::icpc("T90")),
                SourceKind::PrimaryCare,
            ));
            h.insert(Entry::event(
                t(2013, 6, 1),
                Payload::Measurement {
                    kind: pastas_model::MeasurementKind::SystolicBp,
                    value: 150.0,
                },
                SourceKind::PrimaryCare,
            ));
            h.insert(Entry::event(
                t(2013, 8, 1),
                Payload::Medication(Code::atc("C07AB02")),
                SourceKind::Prescription,
            ));
            h.insert(Entry::interval(
                t(2013, 9, 1),
                t(2013, 9, 10),
                Payload::Episode(EpisodeKind::Inpatient),
                SourceKind::Hospital,
            ));
            hs.push(h);
        }
        HistoryCollection::from_histories(hs)
    }

    fn vp() -> Viewport {
        Viewport::new(t(2013, 1, 1), t(2014, 1, 1), 10.0, 800.0, 400.0)
    }

    #[test]
    fn figure_1_inventory() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (scene, hits) = view.layout(&vp());
        assert_eq!(scene.count_class_prefix("viz:Row/bar"), 3, "one gray bar per history");
        assert_eq!(scene.count_class_prefix("viz:Glyph/square"), 3, "diagnosis rectangles");
        assert_eq!(scene.count_class_prefix("viz:Glyph/arrow"), 3, "BP arrows");
        assert_eq!(scene.count_class_prefix("viz:Glyph/triangle"), 3, "dispensings");
        assert_eq!(scene.count_class_prefix("viz:Band/hospital"), 3, "stay bands");
        assert!(scene.count_class_prefix("viz:Axis/tick") > 3);
        assert_eq!(scene.count_class_prefix("viz:Row/label"), 3);
        assert_eq!(hits.len(), 12, "every drawn entry is hit-testable");
    }

    #[test]
    fn details_on_demand_round_trip() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (_, hits) = view.layout(&vp());
        // Find the hospital band of row 0 via its own bbox centre.
        let band = hits
            .iter()
            .find(|r| r.row == 0 && r.details.contains("inpatient"))
            .expect("band record");
        let cx = (band.bbox.0 + band.bbox.2) / 2.0;
        let cy = (band.bbox.1 + band.bbox.3) / 2.0;
        let hit = hits.hit_test(cx, cy).expect("hit");
        assert!(hit.details.contains("inpatient stay"), "{}", hit.details);
        assert!(hit.details.contains("hospital"), "{}", hit.details);
    }

    #[test]
    fn filtering_hides_events() {
        let c = sample_collection();
        let opts =
            TimelineOptions { filter: Some(EntryPredicate::IsDiagnosis), ..Default::default() };
        let view = TimelineView::new(&c, opts);
        let (scene, hits) = view.layout(&vp());
        assert_eq!(scene.count_class_prefix("viz:Glyph/square"), 3);
        assert_eq!(scene.count_class_prefix("viz:Glyph/triangle"), 0, "medications filtered");
        assert_eq!(scene.count_class_prefix("viz:Band"), 0, "bands filtered");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn medication_glyphs_use_atc_colors() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (scene, _) = view.layout(&vp());
        let tri = scene
            .elements
            .iter()
            .find(|e| e.class == "viz:Glyph/triangle")
            .expect("triangle");
        if let Primitive::Polygon { fill, .. } = &tri.primitive {
            // C07AB02 is cardiovascular: palette index 2.
            assert_eq!(*fill, color::MEDICATION_PALETTE[2]);
        } else {
            panic!("medication glyph should be a polygon");
        }
    }

    #[test]
    fn aligned_mode_drops_unanchored_and_draws_anchor_rule() {
        let mut c = sample_collection();
        // A fourth history with no T90: must vanish in aligned mode.
        let mut h = History::new(Patient {
            id: PatientId(9),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Male,
        });
        h.insert(Entry::event(
            t(2013, 4, 1),
            Payload::Diagnosis(Code::icpc("K74")),
            SourceKind::PrimaryCare,
        ));
        c.upsert(h);
        let alignment = align_on(&c, &EntryPredicate::code_regex("T90").unwrap());
        let opts = TimelineOptions { axis: AxisMode::Aligned(alignment), ..Default::default() };
        let view = TimelineView::new(&c, opts);
        let avp = aligned_viewport(6, 12, 10.0, 800.0, 400.0);
        let (scene, _) = view.layout(&avp);
        assert_eq!(scene.count_class_prefix("viz:Row/bar"), 3, "unanchored row dropped");
        assert_eq!(scene.count_class_prefix("viz:Axis/anchor"), 1);
    }

    #[test]
    fn aligned_mode_places_anchors_at_zero() {
        let c = sample_collection();
        let alignment = align_on(&c, &EntryPredicate::code_regex("T90").unwrap());
        let opts = TimelineOptions { axis: AxisMode::Aligned(alignment), ..Default::default() };
        let view = TimelineView::new(&c, opts);
        let avp = aligned_viewport(6, 12, 10.0, 900.0, 400.0);
        let (scene, hits) = view.layout(&avp);
        let zero_x = avp.x_of(aligned_epoch());
        // Every T90 square sits on the anchor rule.
        for r in hits.iter().filter(|r| r.details.contains("T90")) {
            let cx = (r.bbox.0 + r.bbox.2) / 2.0;
            assert!((cx - zero_x).abs() < 1.0, "T90 at {cx}, anchor at {zero_x}");
        }
        assert!(scene.count_class_prefix("viz:Axis/label") > 0);
    }

    #[test]
    fn vertical_zoom_limits_rows_drawn() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default());
        let mut v = vp();
        v.rows_visible = 1.0;
        let (scene, _) = view.layout(&v);
        assert_eq!(scene.count_class_prefix("viz:Row/bar"), 1, "only one row visible");
    }

    #[test]
    fn horizontal_window_clips_entries() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default());
        // Window covering only March: just the diagnosis squares.
        let v = Viewport::new(t(2013, 2, 20), t(2013, 4, 1), 10.0, 800.0, 400.0);
        let (scene, _) = view.layout(&v);
        assert_eq!(scene.count_class_prefix("viz:Glyph/square"), 3);
        assert_eq!(scene.count_class_prefix("viz:Glyph/triangle"), 0);
        assert_eq!(scene.count_class_prefix("viz:Band"), 0);
    }

    #[test]
    fn custom_order_is_respected() {
        let c = sample_collection();
        let view = TimelineView::new(&c, TimelineOptions::default()).with_order(&[2, 0, 99]);
        assert_eq!(view.rows(), 3);
        let (scene, hits) = view.layout(&vp());
        assert_eq!(scene.count_class_prefix("viz:Row/bar"), 2, "out-of-range row stays blank");
        assert!(hits.iter().any(|r| r.row == 0 && r.history_index == 2));
        assert!(hits.iter().all(|r| r.history_index == 2 || r.history_index == 0));
    }

    #[test]
    fn empty_collection_draws_only_axis() {
        let c = HistoryCollection::new();
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (scene, hits) = view.layout(&vp());
        assert!(hits.is_empty());
        assert!(scene.count_class_prefix("viz:Row").eq(&0));
        assert!(scene.count_class_prefix("viz:Axis") > 0);
    }
}
