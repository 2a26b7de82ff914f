//! End-to-end integration: synth → heterogeneous sources → aggregation →
//! cohort identification → alignment → rendering → export.

use pastas_core::prelude::*;
use pastas_synth::emit::{emit, MessConfig};

fn build_workbench(patients: usize, seed: u64, mess: MessConfig) -> Workbench {
    let pop = generate_population(SynthConfig::with_patients(patients), seed);
    let raw = emit(&pop, mess);
    Workbench::from_raw_sources(SourceTexts {
        persons: &raw.persons,
        claims: &raw.claims,
        hospital: &raw.hospital,
        municipal: &raw.municipal,
        prescriptions: &raw.prescriptions,
    })
}

#[test]
fn full_pipeline_produces_consistent_artifacts() {
    let wb = build_workbench(500, 21, MessConfig::default());
    assert_eq!(wb.collection().len(), 500);
    let quality = wb.quality().expect("raw-source build has a report");
    assert!(quality.entries_loaded > 1_000);
    assert!(quality.yield_fraction() > 0.95, "yield {:.3}", quality.yield_fraction());

    // Selection at several granularities.
    let diabetes = wb.select(&QueryBuilder::new().has_code("T90|T89|E1[014].*").unwrap().build());
    let chapter_t = wb.select(&QueryBuilder::new().has_code("T.*").unwrap().build());
    assert!(!diabetes.collection().is_empty());
    assert!(
        chapter_t.collection().len() >= diabetes.collection().len(),
        "chapter filter must be a superset of the leaf filter"
    );

    // Align, render, export.
    let mut cohort = diabetes;
    let anchored = cohort.align_on_code("T90|T89").unwrap();
    assert!(anchored > 0);
    let svg = cohort.render_svg(900.0, 500.0);
    assert!(svg.contains("viz-Axis-anchor"), "aligned view draws the anchor rule");
    let ascii = cohort.render_ascii(100, 20);
    assert!(ascii.contains('│'), "anchor rule in terminal output");

    let id = cohort.collection().histories()[0].id();
    let page = cohort.export_personal_timeline(id).unwrap();
    assert!(page.contains("<svg"));
}

#[test]
fn messy_sources_degrade_gracefully_and_are_accounted() {
    let clean = build_workbench(300, 33, MessConfig {
        duplicate_prob: 0.0,
        invalid_date_prob: 0.0,
        note_prob: 0.0,
    });
    let messy = build_workbench(300, 33, MessConfig {
        duplicate_prob: 0.15,
        invalid_date_prob: 0.02,
        note_prob: 0.2,
    });
    let (cq, mq) = (clean.quality().unwrap(), messy.quality().unwrap());
    assert!(mq.duplicates_dropped > cq.duplicates_dropped);
    assert!(mq.dropped_pre_birth > 0);
    assert!(mq.measurements_extracted > cq.measurements_extracted);
    // Dedup + validation bring the collections close: the messy build may
    // even have a few *more* entries (extracted note measurements), but
    // the diagnosis-entry counts must match exactly.
    let diag_count = |wb: &Workbench| {
        wb.collection()
            .iter()
            .flat_map(|h| h.entries())
            .filter(|e| matches!(e.payload(), PayloadRef::Diagnosis(_)))
            .count()
    };
    let (dc, dm) = (diag_count(&clean), diag_count(&messy));
    let diff = dc.abs_diff(dm) as f64 / dc as f64;
    assert!(diff < 0.03, "diagnosis counts {dc} vs {dm}");
}

#[test]
fn temporal_patterns_agree_between_query_and_manual_scan() {
    let wb = build_workbench(400, 55, MessConfig::default());
    let pattern = TemporalPattern::starting_with(EntryPredicate::code_regex("T90").unwrap())
        .then(GapBound::within(Duration::days(120)), EntryPredicate::IsInterval);
    let via_pattern: Vec<PatientId> = wb
        .collection()
        .iter()
        .filter(|h| pattern.matches(h))
        .map(|h| h.id())
        .collect();
    // Manual: T90 event followed by an interval starting within 120 days.
    let mut manual = Vec::new();
    for h in wb.collection() {
        let entries = h.entries();
        'outer: for (i, e) in entries.iter().enumerate() {
            if e.code().is_some_and(|c| c.value == "T90") {
                for later in entries.iter().skip(i + 1) {
                    if later.is_interval() {
                        let gap = later.start() - e.end();
                        if gap >= Duration::ZERO && gap <= Duration::days(120) {
                            manual.push(h.id());
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(via_pattern, manual);
}

#[test]
fn sorting_and_alignment_are_consistent_views_of_the_same_data() {
    let mut wb = build_workbench(200, 77, MessConfig::default());
    let stats_before = wb.collection().stats();
    wb.sort(&SortKey::EntryCount);
    wb.align_on_code("K86").unwrap();
    wb.sort(&SortKey::FirstEntry);
    // View operations never mutate the data.
    assert_eq!(wb.collection().stats(), stats_before);
    assert_eq!(wb.order().len(), 200);
    // The order is a permutation.
    let mut sorted = wb.order().to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..200).collect::<Vec<u32>>());
}

#[test]
fn scale_smoke_twenty_thousand() {
    // A fast sanity pass at moderately large scale (the full 168k runs in
    // the E5 example/bench).
    let collection = generate_collection(SynthConfig::with_patients(20_000), 2013);
    let wb = Workbench::from_collection(collection);
    let q = QueryBuilder::new().has_code("T90|T89|E1[014].*").unwrap().build();
    let cohort = wb.select_positions(&q);
    let selectivity = cohort.len() as f64 / 20_000.0;
    assert!(
        (0.055..0.105).contains(&selectivity),
        "selectivity {selectivity:.3} should approximate the paper's 7.7%"
    );
    // Rendering a large cohort stays bounded because layout only touches
    // visible rows.
    let svg = wb.render_svg(1200.0, 700.0);
    assert!(svg.len() < 3_000_000, "SVG size bounded by viewport, got {}", svg.len());
}

#[test]
fn event_store_stays_half_width() {
    // The benchmark shows `model.bytes_per_entry` only in a traced run;
    // this keeps it from drifting back unseen.
    assert_eq!(std::mem::size_of::<DateTime>(), 8);
    let collection = generate_collection(SynthConfig::with_patients(2_000), 2016);
    let footprint = MemoryFootprint::measure(&collection);
    assert!(
        footprint.columnar_per_entry() <= 12.0,
        "the store holds an entry in at most 12 bytes:\n{}",
        footprint.summary()
    );
    assert_eq!(footprint.split.total(), footprint.columnar_bytes);
    assert_eq!(footprint.split.time + footprint.split.aux + footprint.split.kinds, 9 * footprint.entries);
}
