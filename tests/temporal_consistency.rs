//! Temporal reasoning over real model data: the Allen layer, the STN
//! layer, and the query layer must agree with each other and with the raw
//! timestamps.

use pastas_core::prelude::*;
use pastas_ontology::temporal::{AllenNetwork, AllenRel, AllenSet, Stn};

/// Extract the (start, end) extents of one history's entries.
fn extents(h: &History) -> Vec<(DateTime, DateTime)> {
    h.entries().iter().map(|e| (e.start(), e.end())).collect()
}

#[test]
fn observed_relations_form_a_path_consistent_network() {
    let collection = generate_collection(SynthConfig::with_patients(80), 23);
    let mut checked = 0usize;
    for h in collection.iter().filter(|h| h.len() >= 3 && h.len() <= 20) {
        let ex = extents(h);
        let n = ex.len();
        let mut net = AllenNetwork::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let rel = AllenRel::between_times(ex[i], ex[j]);
                net.constrain(i, j, AllenSet::of(rel));
            }
        }
        assert!(
            net.propagate(),
            "relations observed from real timestamps are necessarily consistent ({})",
            h.id()
        );
        checked += 1;
    }
    assert!(checked > 10, "checked {checked} histories");
}

#[test]
fn allen_relations_match_entry_overlap_semantics() {
    let collection = generate_collection(SynthConfig::with_patients(60), 29);
    for h in collection.iter().take(30) {
        let entries = h.entries();
        for i in 0..entries.len().min(10) {
            for j in 0..entries.len().min(10) {
                if i == j {
                    continue;
                }
                let (a, b) = (entries.get(i), entries.get(j));
                let rel = AllenRel::between_times((a.start(), a.end()), (b.start(), b.end()));
                let overlap = a.overlaps(b.start(), b.end());
                let disjoint = matches!(rel, AllenRel::Before | AllenRel::After);
                // Entry::overlaps uses closed intervals, so *only* strict
                // before/after imply non-overlap. (Meets/MetBy share an
                // endpoint after point-widening, which closed-interval
                // overlap counts as touching.)
                if disjoint {
                    let gap_secs = if a.end() < b.start() {
                        (b.start() - a.end()).as_seconds()
                    } else {
                        (a.start() - b.end()).as_seconds()
                    };
                    if gap_secs > 1 {
                        assert!(
                            !overlap,
                            "{rel:?} but overlapping: {} vs {}",
                            a.describe(),
                            b.describe()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gap_constraints_compile_to_consistent_stns() {
    // The "readmission within 30 days" pattern as an STN, checked against
    // actual pattern hits.
    let collection = generate_collection(SynthConfig::with_patients(4_000), 31);
    let pattern = TemporalPattern::starting_with(EntryPredicate::IsInterval)
        .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval);

    let mut hits_checked = 0usize;
    for h in &collection {
        for hit in pattern.find_matches(h) {
            let entries = h.entries();
            let first = entries.get(hit.steps[0]);
            let second = entries.get(hit.steps[1]);
            // Build the STN: 4 time points (s1, e1, s2, e2).
            let day = 86_400i64;
            let mut stn = Stn::new(4);
            // Interval structure: e >= s.
            stn.add_range(0, 1, 0, 365 * day);
            stn.add_range(2, 3, 0, 365 * day);
            // The gap constraint: s2 - e1 in [0, 30d].
            stn.add_range(1, 2, 0, 30 * day);
            assert!(stn.close(), "pattern STN must be consistent");
            // The actual timestamps satisfy the implied bounds.
            let (lo, hi) = stn.bounds(1, 2);
            let gap = (second.start() - first.end()).as_seconds();
            assert!(gap >= lo.unwrap() && gap <= hi.unwrap(), "gap {gap}s outside bounds");
            hits_checked += 1;
        }
    }
    assert!(hits_checked > 3, "found {hits_checked} readmissions to verify");
}

#[test]
fn aligned_axis_offsets_agree_with_months_between() {
    // The viz aligned axis buckets by Date::months_between; spot-check the
    // invariant on generated anchors.
    let collection = generate_collection(SynthConfig::with_patients(300), 37);
    let pred = EntryPredicate::code_regex("T90").unwrap();
    let alignment = align_on(&collection, &pred);
    let mut verified = 0;
    for h in &collection {
        let Some(anchor) = alignment.anchor(h.id()) else { continue };
        for e in h.entries().iter().take(5) {
            let k = e.start().date().months_between(anchor.date());
            // The floor invariant from pastas-time.
            assert!(anchor.date().add_months(k) <= e.start().date());
            assert!(anchor.date().add_months(k + 1) > e.start().date());
            verified += 1;
        }
    }
    assert!(verified > 20);
}
