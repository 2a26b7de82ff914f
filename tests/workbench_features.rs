//! Integration of the workbench extension features: session history,
//! extraction round-trips, exposure derivation, indicators, clustering,
//! the overview mode and the event chart — Shneiderman's full task
//! taxonomy exercised end-to-end on one synthetic cohort.

use pastas_core::exposure::{medication_exposures, with_exposures};
use pastas_core::indicators::indicators;
use pastas_core::prelude::*;
use pastas_query::SortKey;

fn workbench(n: usize, seed: u64) -> Workbench {
    Workbench::from_collection(generate_collection(SynthConfig::with_patients(n), seed))
}

#[test]
fn session_replay_reaches_the_same_view() {
    let mut s1 = Session::new(workbench(150, 3));
    s1.apply(ViewCommand::Sort(SortKey::EntryCount)).unwrap();
    s1.apply(ViewCommand::AlignOnCode("T90".into())).unwrap();
    s1.apply(ViewCommand::SetFilter(Some(EntryPredicate::IsDiagnosis))).unwrap();

    // Replaying the recorded history on a fresh session converges to the
    // same rendered view.
    let commands: Vec<ViewCommand> = s1.history().into_iter().cloned().collect();
    let mut s2 = Session::new(workbench(150, 3));
    for c in commands {
        s2.apply(c).unwrap();
    }
    assert_eq!(
        s1.workbench().render_svg(600.0, 300.0),
        s2.workbench().render_svg(600.0, 300.0),
        "replayed session renders identically"
    );

    // Undo all the way back equals the initial view.
    let initial = workbench(150, 3).render_svg(600.0, 300.0);
    while s1.undo() {}
    assert_eq!(s1.workbench().render_svg(600.0, 300.0), initial);
}

#[test]
fn extraction_round_trip_preserves_query_results() {
    let wb = workbench(300, 9);
    let q = QueryBuilder::new().has_code("T90|K86").unwrap().build();
    let before = wb.select_ids(&q);

    let json = to_json(wb.collection());
    let reloaded = from_json(&json).expect("round trip");
    let wb2 = Workbench::from_collection(reloaded);
    let after = wb2.select_ids(&q);
    assert_eq!(before, after, "queries agree across the export/import cycle");

    // CSV row count equals entry count.
    let csv = to_csv(wb.collection());
    assert_eq!(csv.lines().count() - 1, wb.collection().stats().entries);
}

#[test]
fn derived_exposures_become_medication_bands_in_the_scene() {
    let wb = workbench(400, 11);
    // Find a patient with several dispensings.
    let h = wb
        .collection()
        .iter()
        .find(|h| {
            h.entries().iter().filter(|e| matches!(e.payload(), PayloadRef::Medication(_))).count()
                >= 6
        })
        .expect("a medicated patient");
    let eras = medication_exposures(h, Duration::days(120));
    assert!(!eras.is_empty());
    let enriched = with_exposures(h, Duration::days(120));
    assert_eq!(enriched.len(), h.len() + eras.len());

    // Render the enriched single-patient view: medication bands appear.
    let c = HistoryCollection::from_histories([enriched]);
    let single = Workbench::from_collection(c);
    let svg = single.render_svg(900.0, 120.0);
    assert!(svg.contains("viz-Band-medication"), "exposure bands rendered");
}

#[test]
fn indicator_panels_scale_with_cohort_severity() {
    let wb = workbench(3_000, 13);
    let from = Date::new(2013, 1, 1).unwrap();
    let to = Date::new(2015, 1, 1).unwrap();
    let everyone = indicators(wb.collection(), from, to);
    let diabetics = wb.select(&QueryBuilder::new().has_code("T90").unwrap().build());
    let dm = indicators(diabetics.collection(), from, to);
    assert!(dm.gp_contacts_per_py > everyone.gp_contacts_per_py);
    assert!(dm.polypharmacy_rate > everyone.polypharmacy_rate);
    let table = dm.to_table();
    assert!(table.contains("GP contacts"));
}

#[test]
fn overview_and_detail_views_show_the_same_filter() {
    let mut wb = workbench(500, 17);
    wb.set_filter(Some(EntryPredicate::code_regex("T90").unwrap()));
    let overview = wb.render_overview_svg(600.0, 200.0);
    let vp = wb.default_viewport(600.0, 400.0);
    let (_, hits) = wb.layout(&vp);
    // Detail view shows only T90 under the filter; the overview renders
    // *some* cells iff any T90 exists.
    let any_t90 = hits.iter().any(|r| r.details.contains("T90"));
    assert!(hits.iter().all(|r| r.details.contains("T90")));
    assert_eq!(overview.contains("viz-Overview-cell"), any_t90);
}

#[test]
fn event_chart_and_pattern_query_agree() {
    use pastas_viz::eventchart::{collect_rows, render_event_chart, EventChartOptions};
    let wb = workbench(2_000, 19);
    let readmit = TemporalPattern::starting_with(EntryPredicate::IsInterval)
        .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval);
    let rows = collect_rows(wb.collection(), &readmit);
    let total_hits: usize = wb.collection().iter().map(|h| readmit.find_matches(h).len()).sum();
    assert_eq!(rows.len(), total_hits);
    let (scene, hits) = render_event_chart(wb.collection(), &rows, &EventChartOptions::default());
    if !rows.is_empty() {
        assert!(!scene.is_empty());
        assert_eq!(
            hits.iter().map(|r| r.row).collect::<std::collections::HashSet<_>>().len(),
            rows.len(),
            "every hit row has registered regions"
        );
    }
}

#[test]
fn similarity_clustering_flows_into_rendering() {
    let wb0 = workbench(800, 23);
    let q = QueryBuilder::new().has_code("T90|R95|P76").unwrap().build();
    let mut cohort = wb0.select(&q);
    if cohort.collection().len() < 6 {
        return; // pathological seed; other tests cover small cohorts
    }
    let assignment = cohort.sort_by_similarity(3);
    assert_eq!(assignment.len(), cohort.collection().len());
    let svg = cohort.render_svg(800.0, 500.0);
    assert!(svg.contains("viz-Row-bar"));
}
