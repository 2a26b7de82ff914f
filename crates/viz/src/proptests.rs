//! Property tests: the layout pipeline never panics and produces sane
//! geometry for arbitrary viewports and collections.

use crate::axis::AxisMode;
use crate::hit::HitMap;
use crate::timeline::{TimelineOptions, TimelineView};
use pastas_query::EntryPredicate;
use crate::viewport::Viewport;
use pastas_codes::Code;
use pastas_model::{
    Entry, EpisodeKind, History, HistoryCollection, Patient, PatientId, Payload, Sex, SourceKind,
};
use pastas_time::{Date, DateTime, Duration};
use proptest::prelude::*;

fn arb_time() -> impl Strategy<Value = DateTime> {
    // 2012..2016.
    (1_325_376_000i64..1_451_606_400).prop_map(|s| DateTime::from_second_number(s).unwrap())
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (arb_time(), 0i64..90, 0usize..4).prop_map(|(t, len_days, kind)| match kind {
        0 => Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare),
        1 => Entry::event(t, Payload::Medication(Code::atc("C07AB02")), SourceKind::Prescription),
        2 => Entry::event(
            t,
            Payload::Measurement { kind: pastas_model::MeasurementKind::SystolicBp, value: 140.0 },
            SourceKind::PrimaryCare,
        ),
        _ => Entry::interval(
            t,
            t + Duration::days(len_days),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        ),
    })
}

fn arb_collection() -> impl Strategy<Value = HistoryCollection> {
    proptest::collection::vec(proptest::collection::vec(arb_entry(), 0..10), 0..8).prop_map(
        |patients| {
            HistoryCollection::from_histories(patients.into_iter().enumerate().map(|(i, es)| {
                let mut h = History::new(Patient {
                    id: PatientId(i as u64 + 1),
                    birth_date: Date::new(1940, 1, 1).unwrap(),
                    sex: Sex::Female,
                });
                h.insert_all(es);
                h
            }))
        },
    )
}

fn arb_viewport() -> impl Strategy<Value = Viewport> {
    (arb_time(), arb_time(), 1.0f64..200.0, 50.0f64..2000.0, 50.0f64..2000.0)
        .prop_map(|(a, b, rows, w, h)| Viewport::new(a, b, rows, w, h))
}

/// A wider entry mix for the layout oracle: several codes of both
/// systems, measurements, notes (cross glyphs), hospital stays and
/// medication-exposure bands, and instants far outside the view.
fn arb_varied_entry() -> impl Strategy<Value = Entry> {
    (arb_time(), 0i64..400, 0usize..9).prop_map(|(t, len_days, kind)| {
        let until = t + Duration::days(len_days);
        match kind {
            0 => Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare),
            1 => Entry::event(t, Payload::Diagnosis(Code::icpc("K74")), SourceKind::Hospital),
            2 => Entry::event(t, Payload::Medication(Code::atc("C07AB02")), SourceKind::Prescription),
            3 => Entry::event(t, Payload::Medication(Code::atc("N02BE01")), SourceKind::Prescription),
            4 => Entry::event(
                t,
                Payload::Measurement { kind: pastas_model::MeasurementKind::SystolicBp, value: 150.0 },
                SourceKind::PrimaryCare,
            ),
            5 => Entry::event(t, Payload::Note("seen <again> & \"soon\"".to_owned()), SourceKind::Municipal),
            6 => Entry::interval(t, until, Payload::Episode(EpisodeKind::Inpatient), SourceKind::Hospital),
            7 => Entry::interval(t, until, Payload::Episode(EpisodeKind::MedicationExposure), SourceKind::Prescription),
            _ => Entry::event(t + Duration::days(40_000), Payload::Diagnosis(Code::icpc("K86")), SourceKind::PrimaryCare),
        }
    })
}

/// A random collection of the varied entries, with one more patient's
/// rows sealed in by an ingest epoch onto a store of its own, on a grown
/// dictionary version that holds a code no other store has.
fn arb_ingested_collection() -> impl Strategy<Value = HistoryCollection> {
    proptest::collection::vec(proptest::collection::vec(arb_varied_entry(), 0..14), 1..9).prop_map(
        |patients| {
            let patient = |i: usize| Patient {
                id: PatientId(i as u64 + 1),
                birth_date: Date::new(1940, 1, 1).unwrap(),
                sex: Sex::Female,
            };
            let mut c = HistoryCollection::from_histories(patients.iter().enumerate().map(|(i, es)| {
                let mut h = History::new(patient(i));
                h.insert_all(es.iter().cloned());
                h
            }));
            let mut epoch = pastas_model::OpenEpoch::new();
            let at = Date::new(2014, 3, 1).unwrap().at_midnight();
            let ingested = vec![
                Entry::event(at, Payload::Diagnosis(Code::icpc("Z99")), SourceKind::PrimaryCare),
                Entry::event(at, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare),
            ];
            epoch.append(patient(0), ingested.clone());
            epoch.append(patient(patients.len()), ingested);
            epoch.seal_into(&mut c);
            c
        },
    )
}

/// The view filters: none, a kind, a code regex, a window, and trees.
fn filter_of(choice: usize) -> Option<EntryPredicate> {
    let window = EntryPredicate::InWindow {
        from: Date::new(2013, 3, 1).unwrap(),
        to: Date::new(2014, 8, 31).unwrap(),
    };
    let code = |p| EntryPredicate::code_regex(p).unwrap();
    match choice {
        0 => None,
        1 => Some(EntryPredicate::IsDiagnosis),
        2 => Some(code("K.*|Z99")),
        3 => Some(window),
        4 => Some(code("T90").or(EntryPredicate::IsInterval).and(window.clone().not())),
        _ => Some(EntryPredicate::IsMedication.or(code("K7.*")).not()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Layout never panics, and every hit bbox is finite and ordered.
    #[test]
    fn layout_is_total_and_geometry_is_sane(
        c in arb_collection(),
        vp in arb_viewport(),
    ) {
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (scene, hits) = view.layout(&vp);
        prop_assert!(scene.width.is_finite() && scene.height.is_finite());
        for r in hits.iter() {
            let (x0, y0, x1, y1) = r.bbox;
            prop_assert!(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite());
            prop_assert!(x0 <= x1 + 1e-9 && y0 <= y1 + 1e-9);
            prop_assert!(r.history_index < c.len());
        }
        // SVG rendering is total, non-empty, and well-formed at the ends.
        let svg = crate::svg::render(&scene);
        prop_assert!(svg.starts_with("<svg "));
        prop_assert!(svg.trim_end().ends_with("</svg>"));
    }

    /// Every hit record's details round-trip through hit testing at its
    /// own centre (the details-on-demand contract).
    #[test]
    fn hit_testing_finds_every_record_at_its_centre(c in arb_collection()) {
        let stats = c.stats();
        let (Some(from), Some(to)) = (stats.first, stats.last) else {
            return Ok(());
        };
        let vp = Viewport::new(from, to + Duration::days(1), 20.0, 800.0, 400.0);
        let view = TimelineView::new(&c, TimelineOptions::default());
        let (_, hits) = view.layout(&vp);
        for r in hits.iter() {
            let cx = (r.bbox.0 + r.bbox.2) / 2.0;
            let cy = (r.bbox.1 + r.bbox.3) / 2.0;
            let found = hits.hit_test(cx, cy);
            // Topmost element wins, so we may find a different record —
            // but we must find *something* there.
            prop_assert!(found.is_some(), "nothing at the centre of {:?}", r.bbox);
        }
    }

    /// Viewport mapping is monotone: later times map to x at least as
    /// large.
    #[test]
    fn viewport_x_is_monotone(vp in arb_viewport(), a in arb_time(), b in arb_time()) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(vp.x_of(a) <= vp.x_of(b) + 1e-9);
    }

    /// Zoom in then out by the same factor restores the span length
    /// (allowing a couple of seconds of rounding).
    #[test]
    fn zoom_round_trips_span(vp in arb_viewport(), factor in 1.1f64..8.0) {
        let mut v = vp;
        let focus = v.time_from + Duration::seconds(v.span().as_seconds() / 2);
        let before = v.span().as_seconds();
        v.zoom_time(factor, focus);
        v.zoom_time(1.0 / factor, focus);
        let after = v.span().as_seconds();
        // The minimum-span clamp may stop tiny spans from shrinking, and
        // each zoom truncates the two half-spans to whole seconds; the
        // zoom-out multiplies the zoom-in's truncation by `factor`, so the
        // drift bound scales with it.
        if before > 240 {
            let bound = (2.0 * factor + 4.0) as i64;
            prop_assert!((before - after).abs() <= bound, "span {before} → {after}");
        }
    }
    /// The one-pass layout equals the two-pass oracle: the same scene
    /// elements, the same hit records, the same SVG bytes, across random
    /// collections with an ingest-detached store, zoomed, scrolled and
    /// clipped viewports, both axis modes, every filter shape and a
    /// display order with a blank row.
    #[test]
    fn layout_equals_the_two_pass_oracle(
        c in arb_ingested_collection(),
        vp in arb_viewport(),
        scroll in 0.0f64..4.0,
        aligned in any::<bool>(),
        filter in 0usize..6,
        reverse in any::<bool>(),
    ) {
        let mut vp = vp;
        vp.row_offset = scroll;
        let axis = if aligned {
            vp = crate::timeline::aligned_viewport(6, 18, vp.rows_visible, vp.width_px, vp.height_px);
            AxisMode::Aligned(pastas_query::align_on(&c, &EntryPredicate::code_regex("T90").unwrap()))
        } else {
            AxisMode::Calendar
        };
        let mut order: Vec<u32> = (0..c.len() as u32).collect();
        if reverse {
            order.reverse();
            order.push(u32::MAX);
        }
        let options = TimelineOptions { axis, filter: filter_of(filter), ..TimelineOptions::default() };
        let view = TimelineView::new(&c, options).with_order(&order);
        let mut oracle_hits = HitMap::new();
        let oracle = view.lay_out_oracle(&vp, Some(&mut oracle_hits));
        let (laid_out, hits) = view.layout(&vp);
        let scene = view.scene(&vp);
        prop_assert_eq!(&laid_out, &oracle);
        prop_assert_eq!(&scene, &oracle);
        prop_assert_eq!(hits.iter().collect::<Vec<_>>(), oracle_hits.iter().collect::<Vec<_>>());
        prop_assert_eq!(crate::svg::render(&scene), crate::svg::render(&oracle));
    }
}
