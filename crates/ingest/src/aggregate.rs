//! The aggregation pipeline: parse and link ([`crate::delta`]) → merge →
//! dedup → validate.

use crate::delta::{self, parse_delta, DeltaBatch, DeltaFormat};
use crate::linkage::IdentityRegistry;
use pastas_model::{CollectionBuilder, Entry, HistoryCollection, Patient, Payload};
use std::collections::{HashMap, HashSet};

/// The five raw source texts.
#[derive(Debug, Clone, Copy)]
pub struct SourceTexts<'a> {
    /// Person register.
    pub persons: &'a str,
    /// GP/specialist claims.
    pub claims: &'a str,
    /// Hospital episodes.
    pub hospital: &'a str,
    /// Municipal care.
    pub municipal: &'a str,
    /// Dispensings.
    pub prescriptions: &'a str,
}

/// Accounting for everything the pipeline read, loaded and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityReport {
    /// Data rows seen across all files (excluding headers/blanks).
    pub rows_read: usize,
    /// Rows rejected by the adapters (malformed fields).
    pub parse_errors: usize,
    /// Rows whose patient id did not resolve against the register.
    pub unlinked_rows: usize,
    /// Exact duplicate entries dropped.
    pub duplicates_dropped: usize,
    /// Entries dropped by the §IV pre-birth validation rule.
    pub dropped_pre_birth: usize,
    /// Measurements recovered from free-text notes by regex.
    pub measurements_extracted: usize,
    /// Entries that made it into the collection.
    pub entries_loaded: usize,
}

impl QualityReport {
    /// Fraction of read rows that produced at least their primary entry.
    pub fn yield_fraction(&self) -> f64 {
        if self.rows_read == 0 {
            return 0.0;
        }
        1.0 - (self.parse_errors + self.unlinked_rows) as f64 / self.rows_read as f64
    }

    /// Fold one parsed increment's parse and linkage accounting in. What
    /// happens to its entries afterwards (dedup, §IV validation, load) is
    /// counted by whoever merges them.
    pub fn absorb(&mut self, batch: &DeltaBatch) {
        self.rows_read += batch.rows_read;
        self.parse_errors += batch.parse_errors;
        self.unlinked_rows += batch.unlinked_rows;
        self.measurements_extracted += batch.measurements_extracted;
    }
}

/// The dedup identity of one entry: patient, time extent, payload and
/// source. Entries agreeing on all five are exact duplicates.
pub type EntryFingerprint = (u64, i64, i64, u8, String);

/// A dedup fingerprint: exact duplicates (same patient, time extent,
/// payload identity and source) collapse to one entry. Public because
/// the streaming path ([`crate::delta`] consumers) must dedup incoming
/// deltas against already-loaded histories with the *same* identity, so
/// streamed and batch-loaded collections agree entry for entry.
pub fn entry_fingerprint(patient: u64, e: &Entry) -> EntryFingerprint {
    let payload_tag = match e.payload() {
        Payload::Diagnosis(c) => (0u8, c.to_string()),
        Payload::Medication(c) => (1, c.to_string()),
        Payload::Measurement { kind, value } => (2, format!("{kind:?}:{value:.3}")),
        Payload::Episode(k) => (3, format!("{k:?}")),
        Payload::Note(t) => (4, t.clone()),
    };
    (
        patient,
        e.start().second_number(),
        e.end().second_number(),
        payload_tag.0 + 10 * e.source() as u8,
        payload_tag.1,
    )
}

/// Run the full pipeline: the batch build is [`crate::delta`]'s parser
/// over five whole files — persons first (the linkage anchor), then the
/// four event sources — deduplicated and merged into one arena.
pub fn aggregate(src: SourceTexts<'_>) -> (HistoryCollection, QualityReport) {
    let mut registry = IdentityRegistry::new();
    let persons = parse_delta(DeltaFormat::Persons, src.persons, &mut registry);

    // The event sources only read the finished register — independent
    // work, fanned out on the parallel layer. The merge below consumes
    // the batches in the fixed source order, so the pipeline output is
    // identical to the serial one at every thread count.
    let registry = &registry;
    let (claims, (hospital, (municipal, prescriptions))) = pastas_par::join(
        || delta::claims_delta(src.claims, registry),
        || {
            pastas_par::join(
                || delta::hospital_delta(src.hospital, registry),
                || {
                    pastas_par::join(
                        || delta::municipal_delta(src.municipal, registry),
                        || delta::prescriptions_delta(src.prescriptions, registry),
                    )
                },
            )
        },
    );

    // Deduplicated entries accumulate per patient; the columnar arena is
    // built once at the end so every history shares one allocation.
    let mut histories: HashMap<u64, (Patient, Vec<Entry>)> =
        registry.patients().map(|p| (p.id.0, (p, Vec::new()))).collect();
    let mut seen: HashSet<EntryFingerprint> = HashSet::new();
    let mut report = QualityReport::default();
    for batch in [persons, claims, hospital, municipal, prescriptions] {
        report.absorb(&batch);
        for delta in batch.deltas {
            let id = delta.patient.id.0;
            let slot = histories.get_mut(&id).expect("resolved patients have histories");
            for entry in delta.entries {
                if seen.insert(entry_fingerprint(id, &entry)) {
                    slot.1.push(entry);
                } else {
                    report.duplicates_dropped += 1;
                }
            }
        }
    }

    // One shared columnar arena, patients in ascending id order for a
    // stable default display order. The builder applies the §IV pre-birth
    // validation rule and the canonical (start, end) sort per patient.
    let mut hs: Vec<(Patient, Vec<Entry>)> = histories.into_values().collect();
    hs.sort_by_key(|(p, _)| p.id);
    let mut builder = CollectionBuilder::new();
    for (patient, entries) in hs {
        let r = builder.add_patient(patient, entries);
        report.entries_loaded += r.accepted;
        report.dropped_pre_birth += r.dropped_pre_birth;
    }
    let (collection, _) = builder.build();
    (collection, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_synth::emit::{emit, MessConfig};
    use pastas_synth::{generate_population, SynthConfig};

    fn sources(s: &pastas_synth::emit::RawSources) -> SourceTexts<'_> {
        SourceTexts {
            persons: &s.persons,
            claims: &s.claims,
            hospital: &s.hospital,
            municipal: &s.municipal,
            prescriptions: &s.prescriptions,
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial() {
        let pop = generate_population(SynthConfig::with_patients(120), 11);
        let raw = emit(&pop, MessConfig::default());
        let (c1, r1) = pastas_par::with_threads(1, || aggregate(sources(&raw)));
        for threads in [2, 8] {
            let (c2, r2) = pastas_par::with_threads(threads, || aggregate(sources(&raw)));
            assert_eq!(r1, r2, "threads {threads}");
            assert_eq!(c1.len(), c2.len());
            for (a, b) in c1.iter().zip(c2.iter()) {
                assert_eq!(a, b, "threads {threads}");
            }
        }
    }

    #[test]
    fn round_trips_a_clean_population() {
        let pop = generate_population(SynthConfig::with_patients(200), 31);
        let raw = emit(&pop, MessConfig { duplicate_prob: 0.0, invalid_date_prob: 0.0, note_prob: 0.0 });
        let (collection, report) = aggregate(sources(&raw));

        assert_eq!(collection.len(), 200);
        assert_eq!(report.parse_errors, 0);
        assert_eq!(report.unlinked_rows, 0);
        assert_eq!(report.dropped_pre_birth, 0);

        // Entry counts match the direct construction: every contact,
        // admission (2 entries), dispensing and municipal period, plus one
        // measurement entry per claims row whose note carried one — except
        // that claims carry only a *date*, so two same-day contacts with
        // the same code legitimately collapse in the round trip. The
        // quality report accounts for exactly those.
        let direct: usize = (0..200).map(|i| pop.history_for(i).len()).sum();
        let loaded = collection.stats().entries;
        assert_eq!(
            loaded + report.duplicates_dropped,
            direct,
            "round-trip entry accounting mismatch"
        );
        assert!(
            (report.duplicates_dropped as f64) < 0.01 * direct as f64,
            "same-day collapses should be rare: {} of {direct}",
            report.duplicates_dropped
        );
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let pop = generate_population(SynthConfig::with_patients(300), 37);
        let clean = emit(&pop, MessConfig { duplicate_prob: 0.0, invalid_date_prob: 0.0, note_prob: 0.0 });
        let messy = emit(&pop, MessConfig { duplicate_prob: 0.25, invalid_date_prob: 0.0, note_prob: 0.0 });
        let (cc, _) = aggregate(sources(&clean));
        let (mc, mr) = aggregate(sources(&messy));
        assert!(mr.duplicates_dropped > 0, "expected injected duplicates");
        assert_eq!(cc.stats().entries, mc.stats().entries, "dedup restores the clean count");
    }

    #[test]
    fn pre_birth_dates_are_dropped_per_the_paper() {
        let pop = generate_population(SynthConfig::with_patients(400), 41);
        let messy = emit(&pop, MessConfig { duplicate_prob: 0.0, invalid_date_prob: 0.05, note_prob: 0.0 });
        let (_, report) = aggregate(sources(&messy));
        assert!(report.dropped_pre_birth > 0, "expected §IV validation drops");
    }

    #[test]
    fn note_measurements_are_recovered() {
        let pop = generate_population(SynthConfig::with_patients(300), 43);
        let raw = emit(&pop, MessConfig { duplicate_prob: 0.0, invalid_date_prob: 0.0, note_prob: 0.5 });
        let (collection, report) = aggregate(sources(&raw));
        assert!(report.measurements_extracted > 0);
        let measured = collection
            .iter()
            .flat_map(|h| h.entries())
            .filter(|e| matches!(e.payload(), pastas_model::PayloadRef::Measurement { .. }))
            .count();
        assert!(measured >= report.measurements_extracted);
    }

    #[test]
    fn unlinked_rows_are_counted() {
        let src = SourceTexts {
            persons: "nin;birth_date;sex\nNIN-0000001;1950-01-01;F\n",
            claims: "claim_id;patient;date;provider;icpc;note\nK1;NIN-0000001;04.05.2013;GP;T90;\nK2;NIN-0000099;04.05.2013;GP;T90;\n",
            hospital: "episode_id,patient,admitted,discharged,icd10_main,care_level\n",
            municipal: "patient|service|from|to\n",
            prescriptions: "patient\tdispensed\tatc\tddd\n",
        };
        let (collection, report) = aggregate(src);
        assert_eq!(collection.len(), 1);
        assert_eq!(report.unlinked_rows, 1);
        assert_eq!(report.entries_loaded, 1);
        assert!((report.yield_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cross_source_alignment_lands_in_one_history() {
        // The same person appears under all four id schemes.
        let src = SourceTexts {
            persons: "nin;birth_date;sex\nNIN-0000042;1950-01-01;M\n",
            claims: "claim_id;patient;date;provider;icpc;note\nK1;NIN-0000042;04.05.2013;GP;T90;\n",
            hospital: "episode_id,patient,admitted,discharged,icd10_main,care_level\nE1,00000042,2013-06-01,2013-06-05,E11,inpatient\n",
            municipal: "patient|service|from|to\nM42|home_care|2013-07-01|2013-09-01\n",
            prescriptions: "patient\tdispensed\tatc\tddd\n42\t2013-05-04T12:00:00\tA10BA02\t30\n",
        };
        let (collection, report) = aggregate(src);
        assert_eq!(collection.len(), 1);
        assert_eq!(report.unlinked_rows, 0);
        let h = collection.get(pastas_model::PatientId(42)).unwrap();
        // 1 claim + (interval + diagnosis) + 1 municipal + 1 rx = 5 entries.
        assert_eq!(h.len(), 5);
        let sources_seen: std::collections::HashSet<_> =
            h.entries().iter().map(|e| e.source()).collect();
        assert_eq!(sources_seen.len(), 4, "all four sources aligned");
    }

    #[test]
    fn empty_sources_give_empty_collection() {
        let src = SourceTexts {
            persons: "nin;birth_date;sex\n",
            claims: "h\n",
            hospital: "h\n",
            municipal: "h\n",
            prescriptions: "h\n",
        };
        let (collection, report) = aggregate(src);
        assert!(collection.is_empty());
        assert_eq!(report.entries_loaded, 0);
        assert_eq!(report.yield_fraction(), 0.0);
    }
}
