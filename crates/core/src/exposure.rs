//! Medication-exposure derivation — turning point dispensings into the
//! interval bands Fig. 1 colors by medication class.
//!
//! The raw prescription register only records *dispensings* (point events),
//! but the visualization wants continuous exposure periods ("The colors in
//! the visualization show different classes of medication" — shown as
//! spans, not dots, in the screenshot). The standard construction is the
//! OHDSI-style *drug era*: consecutive dispensings of the same substance
//! merge into one exposure while the gap stays within a persistence
//! window; the era extends one refill beyond the last dispensing.

use pastas_codes::Code;
use pastas_model::{Entry, EpisodeKind, History, Payload, PayloadRef, SourceKind};
use pastas_time::{DateTime, Duration};
use std::collections::HashMap;

/// One derived exposure period.
#[derive(Debug, Clone, PartialEq)]
pub struct Exposure {
    /// The substance (level-5 ATC as dispensed).
    pub code: Code,
    /// Era start (first dispensing).
    pub start: DateTime,
    /// Era end (last dispensing + persistence window).
    pub end: DateTime,
    /// Number of dispensings merged into the era.
    pub dispensings: usize,
}

impl Exposure {
    /// The exposure as a model entry (a medication-exposure interval
    /// carrying the substance code).
    pub fn to_entry(&self) -> Entry {
        Entry::interval(
            self.start,
            self.end,
            Payload::Medication(self.code.clone()),
            SourceKind::Prescription,
        )
    }
}

/// Derive exposure eras from a history's dispensings.
///
/// `persistence` is the maximum gap between consecutive dispensings of the
/// same substance that still counts as continuous use (90–120 days for the
/// quarterly refill cycles the synthetic register models); it also pads
/// the era past the final dispensing.
pub fn medication_exposures(history: &History, persistence: Duration) -> Vec<Exposure> {
    let mut per_substance: HashMap<&Code, Vec<DateTime>> = HashMap::new();
    for e in history.entries() {
        if let PayloadRef::Medication(code) = e.payload() {
            if e.is_event() {
                per_substance.entry(code).or_default().push(e.start());
            }
        }
    }
    let mut out = Vec::new();
    for (code, times) in per_substance {
        // History iteration is time-ordered, so times are sorted.
        let mut start = times[0];
        let mut last = times[0];
        let mut count = 1usize;
        for &t in &times[1..] {
            if t - last <= persistence {
                last = t;
                count += 1;
            } else {
                out.push(Exposure {
                    code: code.clone(),
                    start,
                    end: last + persistence,
                    dispensings: count,
                });
                start = t;
                last = t;
                count = 1;
            }
        }
        out.push(Exposure {
            code: code.clone(),
            start,
            end: last + persistence,
            dispensings: count,
        });
    }
    out.sort_by_key(|e| (e.start, e.code.value.clone()));
    out
}

/// A copy of the history with derived exposure intervals inserted (the
/// view the timeline renders with medication bands). The original point
/// dispensings are kept — the paper's design shows both levels of detail.
pub fn with_exposures(history: &History, persistence: Duration) -> History {
    let mut enriched = history.clone();
    for exp in medication_exposures(history, persistence) {
        enriched.insert(exp.to_entry());
    }
    enriched
}

/// Like [`with_exposures`] but replaces the substance payload with a bare
/// [`EpisodeKind::MedicationExposure`] episode — the fully abstracted view
/// (LifeLines' "group of drugs" level).
pub fn with_abstract_exposures(history: &History, persistence: Duration) -> History {
    let mut enriched = history.clone();
    for exp in medication_exposures(history, persistence) {
        enriched.insert(Entry::interval(
            exp.start,
            exp.end,
            Payload::Episode(EpisodeKind::MedicationExposure),
            SourceKind::Prescription,
        ));
    }
    enriched
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_model::{Patient, PatientId, Sex};
    use pastas_time::Date;

    fn t(days: i64) -> DateTime {
        Date::new(2013, 1, 1).unwrap().add_days(days).at_midnight()
    }

    fn history(dispensings: &[(&str, i64)]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        for &(code, day) in dispensings {
            h.insert(Entry::event(
                t(day),
                Payload::Medication(Code::atc(code)),
                SourceKind::Prescription,
            ));
        }
        h
    }

    #[test]
    fn regular_refills_merge_into_one_era() {
        let h = history(&[("C07AB02", 0), ("C07AB02", 90), ("C07AB02", 180)]);
        let eras = medication_exposures(&h, Duration::days(120));
        assert_eq!(eras.len(), 1);
        assert_eq!(eras[0].dispensings, 3);
        assert_eq!(eras[0].start, t(0));
        assert_eq!(eras[0].end, t(180 + 120), "padded by persistence");
    }

    #[test]
    fn a_long_gap_splits_the_era() {
        let h = history(&[("C07AB02", 0), ("C07AB02", 90), ("C07AB02", 400)]);
        let eras = medication_exposures(&h, Duration::days(120));
        assert_eq!(eras.len(), 2);
        assert_eq!(eras[0].dispensings, 2);
        assert_eq!(eras[1].dispensings, 1);
        assert_eq!(eras[1].start, t(400));
    }

    #[test]
    fn substances_form_independent_eras() {
        let h = history(&[("C07AB02", 0), ("A10BA02", 10), ("C07AB02", 90), ("A10BA02", 100)]);
        let eras = medication_exposures(&h, Duration::days(120));
        assert_eq!(eras.len(), 2);
        let codes: Vec<&str> = eras.iter().map(|e| e.code.value.as_str()).collect();
        assert!(codes.contains(&"C07AB02") && codes.contains(&"A10BA02"));
        assert!(eras.iter().all(|e| e.dispensings == 2));
    }

    #[test]
    fn enriched_history_renders_bands() {
        use pastas_ontology::presentation::{BandKind, PresentationOntology};
        let h = history(&[("C07AB02", 0), ("C07AB02", 90)]);
        let enriched = with_exposures(&h, Duration::days(120));
        assert_eq!(enriched.len(), 3, "2 dispensings + 1 era");
        let p = PresentationOntology::new();
        let era = enriched.entries().iter().find(|e| e.is_interval()).expect("era interval");
        assert_eq!(p.band_for(era.payload()), Some(BandKind::Medication));
        // The era still knows its substance → its ATC color class.
        assert!(p.entry_color_class(era).is_some());
        // Abstract view: no substance, still a medication band.
        let abstracted = with_abstract_exposures(&h, Duration::days(120));
        let era = abstracted.entries().iter().find(|e| e.is_interval()).unwrap();
        assert_eq!(p.band_for(era.payload()), Some(BandKind::Medication));
        assert!(p.entry_color_class(era).is_none());
    }

    #[test]
    fn no_dispensings_no_eras() {
        let h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Male,
        });
        assert!(medication_exposures(&h, Duration::days(90)).is_empty());
        assert_eq!(with_exposures(&h, Duration::days(90)).len(), 0);
    }

    #[test]
    fn synthetic_patients_develop_plausible_eras() {
        use pastas_synth::{generate_collection, SynthConfig};
        let c = generate_collection(SynthConfig::with_patients(300), 5);
        let mut eras_total = 0usize;
        let mut multi = 0usize;
        for h in &c {
            for era in medication_exposures(h, Duration::days(120)) {
                eras_total += 1;
                if era.dispensings >= 3 {
                    multi += 1;
                }
            }
        }
        assert!(eras_total > 50, "eras {eras_total}");
        // Quarterly refill simulation → most eras merge several dispensings.
        assert!(
            multi as f64 > 0.4 * eras_total as f64,
            "{multi} of {eras_total} eras have ≥3 dispensings"
        );
    }
}
