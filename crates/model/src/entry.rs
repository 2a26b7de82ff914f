//! Entries: point events and intervals with clinical payloads.

use pastas_codes::Code;
use pastas_time::{DateTime, Duration};

/// Where an entry was aggregated from — the heterogeneous sources of the
/// paper's title. §III: "any visit to a hospital (inpatient, outpatient or
/// day treatment), receiving services from the adjacent municipalities
/// (home care services, nursing home etc.) and visits to a primary care
/// provider (GP, emergency primary care …) or private medical specialist",
/// plus the prescription register the medication colorings come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceKind {
    /// Somatic hospital (NPR-style episodes).
    Hospital,
    /// GP and emergency primary care (KUHR-style claims).
    PrimaryCare,
    /// Private medical specialist claims.
    Specialist,
    /// Municipal services: home care, nursing homes (IPLOS-style).
    Municipal,
    /// Dispensed prescriptions (NorPD-style).
    Prescription,
}

impl SourceKind {
    /// All sources, in a stable display order.
    pub const ALL: [SourceKind; 5] = [
        SourceKind::Hospital,
        SourceKind::PrimaryCare,
        SourceKind::Specialist,
        SourceKind::Municipal,
        SourceKind::Prescription,
    ];

    /// Short label used in legends and serialized output.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::Hospital => "hospital",
            SourceKind::PrimaryCare => "primary-care",
            SourceKind::Specialist => "specialist",
            SourceKind::Municipal => "municipal",
            SourceKind::Prescription => "prescription",
        }
    }

    /// Position within [`SourceKind::ALL`] — the dense id the analytics
    /// accumulator arrays index by.
    pub fn dense_index(self) -> usize {
        match self {
            SourceKind::Hospital => 0,
            SourceKind::PrimaryCare => 1,
            SourceKind::Specialist => 2,
            SourceKind::Municipal => 3,
            SourceKind::Prescription => 4,
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The kind of care an interval entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EpisodeKind {
    /// Admitted hospital stay.
    Inpatient,
    /// Hospital outpatient contact series.
    Outpatient,
    /// Hospital day treatment.
    DayTreatment,
    /// Municipal home-care service period.
    HomeCare,
    /// Nursing-home residency.
    NursingHome,
    /// Rehabilitation stay.
    Rehabilitation,
    /// Continuous medication exposure derived from dispensings.
    MedicationExposure,
}

impl EpisodeKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EpisodeKind::Inpatient => "inpatient stay",
            EpisodeKind::Outpatient => "outpatient series",
            EpisodeKind::DayTreatment => "day treatment",
            EpisodeKind::HomeCare => "home care",
            EpisodeKind::NursingHome => "nursing home",
            EpisodeKind::Rehabilitation => "rehabilitation",
            EpisodeKind::MedicationExposure => "medication exposure",
        }
    }
}

/// What a clinical measurement records. Fig. 1 shows "blood pressure
/// measurements" as arrows; the other kinds appear in the chronic-disease
/// pathways the cohort study follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MeasurementKind {
    /// Systolic blood pressure, mmHg.
    SystolicBp,
    /// Diastolic blood pressure, mmHg.
    DiastolicBp,
    /// Glycated haemoglobin, %.
    Hba1c,
    /// Body weight, kg.
    Weight,
    /// Peak expiratory flow, L/min.
    PeakFlow,
    /// Total cholesterol, mmol/L.
    Cholesterol,
}

impl MeasurementKind {
    /// Unit string for display.
    pub fn unit(self) -> &'static str {
        match self {
            MeasurementKind::SystolicBp | MeasurementKind::DiastolicBp => "mmHg",
            MeasurementKind::Hba1c => "%",
            MeasurementKind::Weight => "kg",
            MeasurementKind::PeakFlow => "L/min",
            MeasurementKind::Cholesterol => "mmol/L",
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MeasurementKind::SystolicBp => "systolic BP",
            MeasurementKind::DiastolicBp => "diastolic BP",
            MeasurementKind::Hba1c => "HbA1c",
            MeasurementKind::Weight => "weight",
            MeasurementKind::PeakFlow => "peak flow",
            MeasurementKind::Cholesterol => "cholesterol",
        }
    }
}

/// The clinical content of an entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A recorded diagnosis (ICPC-2 from primary care, ICD-10 from
    /// hospitals).
    Diagnosis(Code),
    /// A dispensed or administered medication (ATC-coded).
    Medication(Code),
    /// A clinical measurement.
    Measurement {
        /// What was measured.
        kind: MeasurementKind,
        /// The value, in [`MeasurementKind::unit`] units.
        value: f64,
    },
    /// A care episode (mostly used on intervals).
    Episode(EpisodeKind),
    /// Free text extracted from the record.
    Note(String),
}

impl Payload {
    /// The clinical code, if this payload carries one.
    pub fn code(&self) -> Option<&Code> {
        match self {
            Payload::Diagnosis(c) | Payload::Medication(c) => Some(c),
            _ => None,
        }
    }

    /// One-line rendering for details-on-demand panels.
    pub fn describe(&self) -> String {
        crate::PayloadRef::from(self).describe()
    }
}

/// A point entry — "events that happen at a given time and have no
/// duration".
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event happened.
    pub time: DateTime,
    /// What it was.
    pub payload: Payload,
    /// Which source it was aggregated from.
    pub source: SourceKind,
}

/// An interval entry — "defined by their start and end times", e.g. a
/// hospital stay.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Start of the interval.
    pub start: DateTime,
    /// End of the interval (inclusive semantics: the last covered instant).
    pub end: DateTime,
    /// What it was.
    pub payload: Payload,
    /// Which source it was aggregated from.
    pub source: SourceKind,
}

impl Interval {
    /// The interval's duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// An entry of a patient history: a point [`Event`] or an [`Interval`].
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A point event.
    Event(Event),
    /// A spanning interval.
    Interval(Interval),
}

impl Entry {
    /// Convenience constructor for a point event.
    pub fn event(time: DateTime, payload: Payload, source: SourceKind) -> Entry {
        Entry::Event(Event { time, payload, source })
    }

    /// Convenience constructor for an interval. `start` and `end` are
    /// normalized (swapped if reversed) so the invariant `start <= end`
    /// always holds.
    pub fn interval(start: DateTime, end: DateTime, payload: Payload, source: SourceKind) -> Entry {
        let (start, end) = if start <= end { (start, end) } else { (end, start) };
        Entry::Interval(Interval { start, end, payload, source })
    }

    /// The anchor time: event time, or interval start.
    pub fn start(&self) -> DateTime {
        match self {
            Entry::Event(e) => e.time,
            Entry::Interval(i) => i.start,
        }
    }

    /// The end time: event time, or interval end.
    pub fn end(&self) -> DateTime {
        match self {
            Entry::Event(e) => e.time,
            Entry::Interval(i) => i.end,
        }
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        match self {
            Entry::Event(e) => &e.payload,
            Entry::Interval(i) => &i.payload,
        }
    }

    /// The provenance tag.
    pub fn source(&self) -> SourceKind {
        match self {
            Entry::Event(e) => e.source,
            Entry::Interval(i) => i.source,
        }
    }

    /// The clinical code, if any.
    pub fn code(&self) -> Option<&Code> {
        self.payload().code()
    }

    /// True for point events.
    pub fn is_event(&self) -> bool {
        matches!(self, Entry::Event(_))
    }

    /// True for intervals.
    pub fn is_interval(&self) -> bool {
        matches!(self, Entry::Interval(_))
    }

    /// True if this entry overlaps the closed time window `[from, to]`.
    pub fn overlaps(&self, from: DateTime, to: DateTime) -> bool {
        self.start() <= to && self.end() >= from
    }

    /// One-line rendering for details-on-demand panels.
    pub fn describe(&self) -> String {
        match self {
            Entry::Event(e) => format!("{} — {} [{}]", e.time, e.payload.describe(), e.source),
            Entry::Interval(i) => format!(
                "{} → {} ({}) — {} [{}]",
                i.start,
                i.end,
                i.duration(),
                i.payload.describe(),
                i.source
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    #[test]
    fn interval_normalizes_reversed_bounds() {
        let e = Entry::interval(
            t(2020, 5, 10),
            t(2020, 5, 1),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        assert!(e.start() <= e.end());
        assert_eq!(e.start(), t(2020, 5, 1));
    }

    #[test]
    fn event_start_equals_end() {
        let e = Entry::event(
            t(2020, 3, 3),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        );
        assert_eq!(e.start(), e.end());
        assert!(e.is_event());
        assert!(!e.is_interval());
    }

    #[test]
    fn overlap_semantics() {
        let stay = Entry::interval(
            t(2020, 5, 1),
            t(2020, 5, 10),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        assert!(stay.overlaps(t(2020, 5, 5), t(2020, 5, 20)));
        assert!(stay.overlaps(t(2020, 4, 1), t(2020, 5, 1))); // touch at start
        assert!(stay.overlaps(t(2020, 5, 10), t(2020, 6, 1))); // touch at end
        assert!(!stay.overlaps(t(2020, 5, 11), t(2020, 6, 1)));
        assert!(!stay.overlaps(t(2020, 4, 1), t(2020, 4, 30)));
    }

    #[test]
    fn payload_codes() {
        assert!(Payload::Diagnosis(Code::icpc("T90")).code().is_some());
        assert!(Payload::Medication(Code::atc("C07AB02")).code().is_some());
        assert!(Payload::Episode(EpisodeKind::HomeCare).code().is_none());
        assert!(Payload::Measurement { kind: MeasurementKind::SystolicBp, value: 140.0 }
            .code()
            .is_none());
    }

    #[test]
    fn descriptions_are_informative() {
        let d = Payload::Diagnosis(Code::icpc("T90")).describe();
        assert!(d.contains("T90") && d.contains("Diabetes"), "{d}");
        let m = Payload::Measurement { kind: MeasurementKind::SystolicBp, value: 142.5 }.describe();
        assert!(m.contains("142.5") && m.contains("mmHg"), "{m}");
        let n = Payload::Note("x".repeat(100)).describe();
        assert!(n.len() < 100, "long notes are truncated: {n}");
    }

    #[test]
    fn entry_describe_includes_source_and_duration() {
        let stay = Entry::interval(
            t(2020, 5, 1),
            t(2020, 5, 10),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        let s = stay.describe();
        assert!(s.contains("9d") && s.contains("hospital"), "{s}");
    }

    #[test]
    fn source_and_measurement_tables() {
        assert_eq!(SourceKind::ALL.len(), 5);
        for s in SourceKind::ALL {
            assert!(!s.label().is_empty());
        }
        assert_eq!(MeasurementKind::SystolicBp.unit(), "mmHg");
        assert_eq!(MeasurementKind::Cholesterol.unit(), "mmol/L");
    }
}
