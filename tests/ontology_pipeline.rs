//! Integration of the two OWL formalizations with the aggregated data:
//! classification, the ICPC↔ICD bridge, ABox materialization, and the
//! presentation mapping — the paper's "represents and reasons with patient
//! events in different OWL-formalizations according to the perspective and
//! use".

use pastas_core::prelude::*;
use pastas_ontology::integration::{code_class_name, IntegrationOntology};
use pastas_ontology::presentation::PresentationOntology;
use pastas_ontology::store::{Term, TripleStore};
use pastas_ontology::vocab::{ns, Vocabulary};

#[test]
fn aggregated_entries_classify_under_both_formalizations() {
    let collection = generate_collection(SynthConfig::with_patients(150), 5);
    let integration = IntegrationOntology::new();
    let presentation = PresentationOntology::new();

    let mut classified = 0usize;
    for h in &collection {
        for e in h.entries() {
            // Integration perspective: clinical classes.
            let classes = integration.classify_entry(e);
            assert!(
                classes.iter().any(|c| c == "pastas-int:PatientEntry"),
                "every entry is a PatientEntry: {classes:?}"
            );
            // Presentation perspective: exactly one visual class.
            let vclass = presentation.presentation_class(e);
            assert!(vclass.starts_with("viz:Glyph/") || vclass.starts_with("viz:Band/"));
            // The two namespaces never bleed into each other.
            assert!(classes.iter().all(|c| !c.starts_with("viz:")));
            classified += 1;
        }
    }
    assert!(classified > 500);
}

#[test]
fn the_bridge_makes_gp_and_hospital_diabetes_the_same_condition() {
    let integration = IntegrationOntology::new();
    let collection = generate_collection(SynthConfig::with_patients(3_000), 9);

    // Find a diabetic with both a T90 (GP) and an E11 (hospital) code.
    let both = collection.iter().find(|h| {
        let codes: Vec<&str> =
            h.entries().iter().filter_map(|e| e.code()).map(|c| c.value.as_str()).collect();
        codes.contains(&"T90") && codes.contains(&"E11")
    });
    let h = both.expect("some diabetic was hospitalized");
    let t90_conditions = integration.conditions_of(&Code::icpc("T90"));
    let e11_conditions = integration.conditions_of(&Code::icd10("E11"));
    assert_eq!(t90_conditions, e11_conditions);
    assert_eq!(t90_conditions, vec!["Diabetes"]);

    // And via entry classification: both entries land in EntryFor/Diabetes.
    for e in h.entries() {
        if e.code().is_some_and(|c| c.value == "T90" || c.value == "E11") {
            let classes = integration.classify_entry(e);
            assert!(classes.iter().any(|c| c == "pastas-int:EntryFor/Diabetes"), "{classes:?}");
        }
    }
}

#[test]
fn abox_materialization_scales_linearly_and_is_queryable() {
    let collection = generate_collection(SynthConfig::with_patients(200), 13);
    let integration = IntegrationOntology::new();
    let mut store = TripleStore::new();
    let mut vocab = Vocabulary::new();
    for h in &collection {
        integration.assert_history(h, &mut store, &mut vocab);
    }
    let stats = collection.stats();
    // Per entry: type + patient + source + start (+ code for coded, + end
    // for intervals) — between 4 and 6 triples.
    assert!(store.len() >= 4 * stats.entries);
    assert!(store.len() <= 6 * stats.entries);

    // Query the materialized graph: dispensings by type.
    let rdf_type = Term::Resource(vocab.get(ns::RDF_TYPE).unwrap());
    let dispensing = Term::Resource(vocab.get("pastas-int:Dispensing").unwrap());
    let dispensings = store.subjects(rdf_type, dispensing).len();
    let expected = collection
        .iter()
        .flat_map(|h| h.entries())
        .filter(|e| matches!(e.payload(), PayloadRef::Medication(_)))
        .count();
    assert_eq!(dispensings, expected);
}

#[test]
fn abstraction_answers_lifelines_style_rollups() {
    // "medications can be shown using a name for the group of drugs (beta
    // blocker) or by the individual drug names".
    let presentation = PresentationOntology::new();
    let metoprolol = Code::atc("C07AB02");
    assert_eq!(presentation.abstract_label(&metoprolol, 5), "Metoprolol");
    assert_eq!(presentation.abstract_label(&metoprolol, 2), "Beta blocking agents");
    // The roll-up agrees with the integration hierarchy.
    let integration = IntegrationOntology::new();
    assert!(integration.is_subclass(&code_class_name(&metoprolol), "ATC:C07"));
}

#[test]
fn every_synthesized_code_is_known_to_the_integration_ontology() {
    let collection = generate_collection(SynthConfig::with_patients(500), 17);
    let mut integration = IntegrationOntology::new();
    let mut unknown = Vec::new();
    let mut registered_any = false;
    for h in &collection {
        for e in h.entries() {
            if let Some(code) = e.code() {
                if integration.lookup(&code_class_name(code)).is_none() {
                    // Register on the fly — the supported workflow for
                    // codes outside the catalog.
                    integration.register_code(code);
                    registered_any = true;
                    unknown.push(code.clone());
                }
            }
        }
    }
    if registered_any {
        integration.saturate();
    }
    // After registration every code participates in its hierarchy.
    for code in unknown {
        let class = code_class_name(&code);
        let parent = code.parent().map(|p| code_class_name(&p));
        if let Some(parent) = parent {
            assert!(integration.is_subclass(&class, &parent), "{class} ⊑ {parent}");
        }
    }
}
