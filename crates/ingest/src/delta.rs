//! Streaming delta parsing: the four source dialects, arriving
//! incrementally.
//!
//! A live registry feed delivers *increments* — a page of new claims,
//! today's discharges, a fresh person-register extract — one source
//! format at a time. This module parses one such increment into
//! per-patient entry deltas ([`PatientDelta`]): adapters, linkage,
//! measurement extraction and the source→entry conventions all live
//! here. The batch pipeline ([`crate::aggregate`](mod@crate::aggregate)) is the same parser
//! run over five complete files, so a collection grown from deltas
//! converges to what a batch build of the same rows produces (the serve
//! layer's convergence e2e asserts this).
//!
//! Linkage is stateful across deltas: `persons` increments register new
//! patients into the caller's [`IdentityRegistry`]; rows of the other
//! formats resolve against everything registered so far, and rows that
//! do not resolve are counted (`unlinked_rows`), never fatal — the same
//! tolerance as the batch path.

use crate::adapters;
use crate::extract;
use crate::linkage::IdentityRegistry;
use pastas_model::{Entry, Patient, Payload, SourceKind};
use std::collections::HashMap;

/// Which source dialect a delta payload is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFormat {
    /// Person register (`nin;birth_date;sex`).
    Persons,
    /// GP/specialist claims (`claim_id;patient;date;provider;icpc;note`).
    Claims,
    /// Hospital episodes
    /// (`episode_id,patient,admitted,discharged,icd10_main,care_level`).
    Hospital,
    /// Municipal care (`patient|service|from|to`).
    Municipal,
    /// Dispensings (`patient\tdispensed\tatc\tddd`).
    Prescriptions,
}

impl DeltaFormat {
    /// Every format, in the batch pipeline's source order.
    pub const ALL: [DeltaFormat; 5] = [
        DeltaFormat::Persons,
        DeltaFormat::Claims,
        DeltaFormat::Hospital,
        DeltaFormat::Municipal,
        DeltaFormat::Prescriptions,
    ];

    /// Parse a format name (the serve layer's `?format=` value).
    pub fn from_name(name: &str) -> Option<DeltaFormat> {
        match name {
            "persons" => Some(DeltaFormat::Persons),
            "claims" => Some(DeltaFormat::Claims),
            "hospital" => Some(DeltaFormat::Hospital),
            "municipal" => Some(DeltaFormat::Municipal),
            "prescriptions" => Some(DeltaFormat::Prescriptions),
            _ => None,
        }
    }

    /// The canonical format name.
    pub fn name(self) -> &'static str {
        match self {
            DeltaFormat::Persons => "persons",
            DeltaFormat::Claims => "claims",
            DeltaFormat::Hospital => "hospital",
            DeltaFormat::Municipal => "municipal",
            DeltaFormat::Prescriptions => "prescriptions",
        }
    }
}

/// One patient's share of a parsed delta: demographics (so a receiver
/// can create the patient if this is their first appearance) plus the
/// new entries, in row order. Entries are *not* yet deduplicated
/// against the receiving collection — that is the applier's job, using
/// [`crate::aggregate::entry_fingerprint`].
#[derive(Debug, Clone)]
pub struct PatientDelta {
    /// Who the entries belong to.
    pub patient: Patient,
    /// New entries, in source-row order (empty for persons-only rows).
    pub entries: Vec<Entry>,
}

/// A parsed increment: per-patient deltas (first-appearance order) plus
/// the same accounting the batch [`crate::QualityReport`] keeps.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// Per-patient deltas, one per distinct patient, in the order
    /// patients first appear in the payload.
    pub deltas: Vec<PatientDelta>,
    /// Data rows seen (excluding headers/blanks).
    pub rows_read: usize,
    /// Rows rejected by the adapters (malformed fields).
    pub parse_errors: usize,
    /// Rows whose patient id did not resolve against the register.
    pub unlinked_rows: usize,
    /// Measurements recovered from free-text notes by regex.
    pub measurements_extracted: usize,
}

impl DeltaBatch {
    /// Total entries across every delta.
    pub fn entries(&self) -> usize {
        self.deltas.iter().map(|d| d.entries.len()).sum()
    }
}

/// Builds one [`DeltaBatch`]: counts the adapter's rows, resolves raw
/// patient ids, and groups entries per patient in first-appearance order.
struct Grouper {
    slots: HashMap<u64, usize>,
    batch: DeltaBatch,
}

impl Grouper {
    /// Start a batch from an adapter's `(rows, issues)` counts.
    fn new(rows: usize, issues: usize) -> Grouper {
        let batch =
            DeltaBatch { rows_read: rows + issues, parse_errors: issues, ..DeltaBatch::default() };
        Grouper { slots: HashMap::new(), batch }
    }

    /// Link a raw identifier, counting the row as unlinked on a miss.
    fn resolve(&mut self, registry: &IdentityRegistry, raw: &str) -> Option<Patient> {
        let patient = registry.resolve(raw).and_then(|id| registry.patient(id));
        if patient.is_none() {
            self.batch.unlinked_rows += 1;
        }
        patient
    }

    fn push(&mut self, patient: Patient, entry: Option<Entry>) {
        let deltas = &mut self.batch.deltas;
        let slot = *self.slots.entry(patient.id.0).or_insert_with(|| {
            deltas.push(PatientDelta { patient, entries: Vec::new() });
            deltas.len() - 1
        });
        if let Some(e) = entry {
            deltas[slot].entries.push(e);
        }
    }
}

/// Parse one increment of `format` into per-patient deltas.
///
/// This is the one place the source→entry conventions live (the batch
/// pipeline, [`crate::aggregate`](mod@crate::aggregate), is this parser over five whole files):
/// claims become a noon diagnosis event (plus one measurement event per
/// extracted note reading) attributed to `Specialist` for `SPEC`
/// providers and `PrimaryCare` otherwise; hospital rows become an episode
/// interval plus an admission-day diagnosis, both `Hospital`; municipal
/// rows an episode interval; dispensings a medication event. `persons`
/// rows register (or re-register) patients in `registry` and emit an
/// entry-less delta so a demographics-only arrival still creates the
/// patient downstream.
pub fn parse_delta(
    format: DeltaFormat,
    text: &str,
    registry: &mut IdentityRegistry,
) -> DeltaBatch {
    match format {
        DeltaFormat::Persons => persons_delta(text, registry),
        DeltaFormat::Claims => claims_delta(text, registry),
        DeltaFormat::Hospital => hospital_delta(text, registry),
        DeltaFormat::Municipal => municipal_delta(text, registry),
        DeltaFormat::Prescriptions => prescriptions_delta(text, registry),
    }
}

fn persons_delta(text: &str, registry: &mut IdentityRegistry) -> DeltaBatch {
    let (rows, issues) = adapters::parse_persons(text);
    let mut out = Grouper::new(rows.len(), issues.len());
    for row in rows {
        registry.register(row.id, row.birth_date, row.sex);
        let patient = registry
            .patient(pastas_model::PatientId(row.id))
            // register() on the line above inserts this id
            .expect("just registered");
        out.push(patient, None);
    }
    out.batch
}

/// Claims: diagnosis event + free-text measurement extraction. Like the
/// other three event sources it only reads the register, so the batch
/// pipeline runs the four side by side.
pub(crate) fn claims_delta(text: &str, registry: &IdentityRegistry) -> DeltaBatch {
    let (rows, issues) = adapters::parse_claims(text);
    let mut out = Grouper::new(rows.len(), issues.len());
    for row in rows {
        let Some(patient) = out.resolve(registry, &row.raw_patient) else { continue };
        let source = if row.provider == "SPEC" {
            SourceKind::Specialist
        } else {
            SourceKind::PrimaryCare
        };
        let time = row.date.at_midnight() + pastas_time::Duration::hours(12);
        out.push(patient, Some(Entry::event(time, Payload::Diagnosis(row.icpc), source)));
        for m in extract::extract_measurements(&row.note) {
            out.batch.measurements_extracted += 1;
            let reading = Payload::Measurement { kind: m.kind, value: m.value };
            out.push(patient, Some(Entry::event(time, reading, source)));
        }
    }
    out.batch
}

/// Hospital: interval + main diagnosis at admission.
pub(crate) fn hospital_delta(text: &str, registry: &IdentityRegistry) -> DeltaBatch {
    let (rows, issues) = adapters::parse_hospital(text);
    let mut out = Grouper::new(rows.len(), issues.len());
    for row in rows {
        let Some(patient) = out.resolve(registry, &row.raw_patient) else { continue };
        let start = row.admitted.at_midnight();
        let end = row.discharged.at_midnight();
        let stay = Entry::interval(start, end, Payload::Episode(row.kind), SourceKind::Hospital);
        out.push(patient, Some(stay));
        let admission = Entry::event(start, Payload::Diagnosis(row.icd10), SourceKind::Hospital);
        out.push(patient, Some(admission));
    }
    out.batch
}

/// Municipal care periods.
pub(crate) fn municipal_delta(text: &str, registry: &IdentityRegistry) -> DeltaBatch {
    let (rows, issues) = adapters::parse_municipal(text);
    let mut out = Grouper::new(rows.len(), issues.len());
    for row in rows {
        let Some(patient) = out.resolve(registry, &row.raw_patient) else { continue };
        let period = Entry::interval(
            row.from.at_midnight(),
            row.to.at_midnight(),
            Payload::Episode(row.kind),
            SourceKind::Municipal,
        );
        out.push(patient, Some(period));
    }
    out.batch
}

/// Dispensings.
pub(crate) fn prescriptions_delta(text: &str, registry: &IdentityRegistry) -> DeltaBatch {
    let (rows, issues) = adapters::parse_prescriptions(text);
    let mut out = Grouper::new(rows.len(), issues.len());
    for row in rows {
        let Some(patient) = out.resolve(registry, &row.raw_patient) else { continue };
        let dispensing =
            Entry::event(row.time, Payload::Medication(row.atc), SourceKind::Prescription);
        out.push(patient, Some(dispensing));
    }
    out.batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_model::{PatientId, Sex};
    use pastas_time::Date;

    fn registry() -> IdentityRegistry {
        let mut r = IdentityRegistry::new();
        r.register(1, Date::new(1950, 1, 1).unwrap(), Sex::Female);
        r.register(2, Date::new(1940, 6, 1).unwrap(), Sex::Male);
        r
    }

    #[test]
    fn format_names_round_trip() {
        for f in DeltaFormat::ALL {
            assert_eq!(DeltaFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(DeltaFormat::from_name("csv"), None);
    }

    #[test]
    fn persons_delta_registers_and_emits_entryless_deltas() {
        let mut r = registry();
        let batch = parse_delta(
            DeltaFormat::Persons,
            "nin;birth_date;sex\nNIN-0000009;1960-02-03;M\nbad;row\n",
            &mut r,
        );
        assert_eq!(batch.rows_read, 2);
        assert_eq!(batch.parse_errors, 1);
        assert_eq!(batch.deltas.len(), 1);
        assert_eq!(batch.deltas[0].patient.id, PatientId(9));
        assert!(batch.deltas[0].entries.is_empty());
        assert_eq!(r.len(), 3, "new person registered for later deltas");
    }

    #[test]
    fn claims_delta_follows_batch_conventions() {
        let mut r = registry();
        let batch = parse_delta(
            DeltaFormat::Claims,
            "claim_id;patient;date;provider;icpc;note\n\
             K1;NIN-0000001;04.05.2013;SPEC;T90;BT 150/90\n\
             K2;NIN-0000099;04.05.2013;GP;T90;\n",
            &mut r,
        );
        assert_eq!(batch.rows_read, 2);
        assert_eq!(batch.unlinked_rows, 1);
        assert_eq!(batch.measurements_extracted, 2, "systolic + diastolic");
        assert_eq!(batch.deltas.len(), 1);
        let d = &batch.deltas[0];
        assert_eq!(d.entries.len(), 3);
        // Diagnosis at noon, attributed to the specialist.
        assert_eq!(d.entries[0].source(), pastas_model::SourceKind::Specialist);
        assert_eq!(
            d.entries[0].start(),
            Date::new(2013, 5, 4).unwrap().at_midnight() + pastas_time::Duration::hours(12)
        );
        assert!(matches!(d.entries[0].payload(), Payload::Diagnosis(c) if c.value == "T90"));
    }

    #[test]
    fn hospital_delta_emits_interval_plus_admission_diagnosis() {
        let mut r = registry();
        let batch = parse_delta(
            DeltaFormat::Hospital,
            "episode_id,patient,admitted,discharged,icd10_main,care_level\n\
             E1,00000002,2013-06-01,2013-06-05,E11,inpatient\n",
            &mut r,
        );
        let d = &batch.deltas[0];
        assert_eq!(d.patient.id, PatientId(2));
        assert_eq!(d.entries.len(), 2);
        assert!(d.entries[0].is_interval());
        assert_eq!(d.entries[1].start(), Date::new(2013, 6, 1).unwrap().at_midnight());
        assert_eq!(d.entries[0].source(), pastas_model::SourceKind::Hospital);
    }

    #[test]
    fn municipal_and_prescription_deltas_parse() {
        let mut r = registry();
        let m = parse_delta(
            DeltaFormat::Municipal,
            "patient|service|from|to\nM1|home_care|2013-07-01|2013-09-01\n",
            &mut r,
        );
        assert_eq!(m.entries(), 1);
        assert!(m.deltas[0].entries[0].is_interval());
        let p = parse_delta(
            DeltaFormat::Prescriptions,
            "patient\tdispensed\tatc\tddd\n1\t2013-05-04T12:00:00\tA10BA02\t30\n",
            &mut r,
        );
        assert_eq!(p.entries(), 1);
        assert!(matches!(
            p.deltas[0].entries[0].payload(),
            Payload::Medication(c) if c.value == "A10BA02"
        ));
    }

    #[test]
    fn rows_of_one_patient_coalesce_in_first_appearance_order() {
        let mut r = registry();
        let batch = parse_delta(
            DeltaFormat::Claims,
            "claim_id;patient;date;provider;icpc;note\n\
             K1;NIN-0000002;04.05.2013;GP;T90;\n\
             K2;NIN-0000001;05.05.2013;GP;K74;\n\
             K3;NIN-0000002;06.05.2013;GP;K86;\n",
            &mut r,
        );
        assert_eq!(batch.deltas.len(), 2);
        assert_eq!(batch.deltas[0].patient.id, PatientId(2));
        assert_eq!(batch.deltas[0].entries.len(), 2);
        assert_eq!(batch.deltas[1].patient.id, PatientId(1));
    }

    /// Parity check: a delta-parsed increment carries the same entries
    /// the batch aggregate loads from identical rows.
    #[test]
    fn delta_entries_match_the_batch_pipeline() {
        use crate::aggregate::{aggregate, entry_fingerprint, SourceTexts};
        let persons = "nin;birth_date;sex\nNIN-0000001;1950-01-01;F\n";
        let claims = "claim_id;patient;date;provider;icpc;note\n\
                      K1;NIN-0000001;04.05.2013;GP;T90;HbA1c 7.2 %\n";
        let (collection, _) = aggregate(SourceTexts {
            persons,
            claims,
            hospital: "h\n",
            municipal: "h\n",
            prescriptions: "h\n",
        });
        let mut r = IdentityRegistry::new();
        parse_delta(DeltaFormat::Persons, persons, &mut r);
        let batch = parse_delta(DeltaFormat::Claims, claims, &mut r);
        let streamed: std::collections::HashSet<_> = batch
            .deltas
            .iter()
            .flat_map(|d| d.entries.iter().map(|e| entry_fingerprint(d.patient.id.0, e)))
            .collect();
        let loaded: std::collections::HashSet<_> = collection
            .iter()
            .flat_map(|h| {
                h.entries()
                    .iter()
                    .map(|e| entry_fingerprint(h.id().0, &e.to_entry()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(streamed, loaded);
    }
}
