//! Statistical indicator analysis — §I's "second way" of extracting
//! knowledge from EHR databases, implemented so the workbench can put
//! numbers next to the pictures.
//!
//! Indicators follow the standard health-services definitions: rates are
//! per 1,000 patient-years of observation (the §III two-year window), the
//! readmission rate uses the 30-day convention, and polypharmacy is ≥ 5
//! distinct level-5 ATC substances dispensed within any 90-day window.

use pastas_model::{EpisodeKind, HistoryCollection, PayloadRef, SourceKind};
use pastas_query::{EntryPredicate, GapBound, TemporalPattern};
use pastas_time::{Date, Duration};
use std::collections::HashSet;

/// The indicator panel for one cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorPanel {
    /// Patients in the cohort.
    pub patients: usize,
    /// Total observed patient-years (window length × patients).
    pub patient_years: f64,
    /// Primary-care contacts per patient-year.
    pub gp_contacts_per_py: f64,
    /// Specialist contacts per patient-year.
    pub specialist_contacts_per_py: f64,
    /// Inpatient admissions per 1,000 patient-years.
    pub admissions_per_1000py: f64,
    /// Mean inpatient length of stay, days.
    pub mean_los_days: f64,
    /// Fraction of patients with ≥1 admission followed by another within
    /// 30 days of discharge.
    pub readmission_rate: f64,
    /// Fraction of patients dispensed ≥5 distinct ATC substances within
    /// some 90-day window.
    pub polypharmacy_rate: f64,
    /// Fraction of patients with any municipal-care period.
    pub municipal_care_rate: f64,
}

/// Compute the panel over an observation window `[from, to)`.
pub fn indicators(collection: &HistoryCollection, from: Date, to: Date) -> IndicatorPanel {
    let patients = collection.len();
    let years = (to.days_since(from) as f64 / 365.25).max(1e-9);
    let patient_years = years * patients as f64;

    let mut gp = 0usize;
    let mut specialist = 0usize;
    let mut admissions = 0usize;
    let mut los_total_days = 0.0f64;
    let mut readmitted = 0usize;
    let mut polypharmacy = 0usize;
    let mut municipal = 0usize;

    let readmit = TemporalPattern::starting_with(EntryPredicate::And(vec![
        EntryPredicate::IsInterval,
        EntryPredicate::Source(SourceKind::Hospital),
    ]))
    .then(
        GapBound::within(Duration::days(30)),
        EntryPredicate::And(vec![
            EntryPredicate::IsInterval,
            EntryPredicate::Source(SourceKind::Hospital),
        ]),
    );

    for h in collection {
        let mut dispensed: Vec<(pastas_time::DateTime, String)> = Vec::new();
        for e in h.entries() {
            if e.start().date() < from || e.start().date() >= to {
                continue;
            }
            match (e.payload(), e.source()) {
                (PayloadRef::Diagnosis(_), SourceKind::PrimaryCare) => gp += 1,
                (PayloadRef::Diagnosis(_), SourceKind::Specialist) => specialist += 1,
                (PayloadRef::Episode(EpisodeKind::Inpatient), _) => {
                    admissions += 1;
                    los_total_days += (e.end() - e.start()).as_days_f64();
                }
                (PayloadRef::Episode(EpisodeKind::HomeCare | EpisodeKind::NursingHome), _) => {
                    municipal += 1;
                }
                (PayloadRef::Medication(c), _) => dispensed.push((e.start(), c.value.clone())),
                _ => {}
            }
        }
        if readmit.matches(h) {
            readmitted += 1;
        }
        if has_polypharmacy(&dispensed) {
            polypharmacy += 1;
        }
    }

    // Municipal rate counts patients, not periods.
    let municipal_patients = collection
        .iter()
        .filter(|h| {
            h.entries().iter().any(|e| {
                matches!(
                    e.payload(),
                    PayloadRef::Episode(EpisodeKind::HomeCare | EpisodeKind::NursingHome)
                )
            })
        })
        .count();
    let _ = municipal;

    let n = patients.max(1) as f64;
    IndicatorPanel {
        patients,
        patient_years,
        gp_contacts_per_py: gp as f64 / patient_years.max(1e-9),
        specialist_contacts_per_py: specialist as f64 / patient_years.max(1e-9),
        admissions_per_1000py: admissions as f64 / patient_years.max(1e-9) * 1_000.0,
        mean_los_days: if admissions == 0 { 0.0 } else { los_total_days / admissions as f64 },
        readmission_rate: readmitted as f64 / n,
        polypharmacy_rate: polypharmacy as f64 / n,
        municipal_care_rate: municipal_patients as f64 / n,
    }
}

/// ≥5 distinct substances within some 90-day window (sliding over the
/// dispensing sequence, which `History` keeps time-sorted).
fn has_polypharmacy(dispensed: &[(pastas_time::DateTime, String)]) -> bool {
    let window = Duration::days(90);
    for (i, (t0, _)) in dispensed.iter().enumerate() {
        let mut distinct: HashSet<&str> = HashSet::new();
        for (t, code) in &dispensed[i..] {
            if *t - *t0 > window {
                break;
            }
            distinct.insert(code);
            if distinct.len() >= 5 {
                return true;
            }
        }
    }
    false
}

impl IndicatorPanel {
    /// Render as an aligned text table (the workbench side panel).
    pub fn to_table(&self) -> String {
        format!(
            "patients                      {:>10}\n\
             patient-years                 {:>10.0}\n\
             GP contacts / patient-year    {:>10.2}\n\
             specialist contacts / py      {:>10.2}\n\
             admissions / 1000 py          {:>10.1}\n\
             mean length of stay (days)    {:>10.1}\n\
             30-day readmission rate       {:>9.1}%\n\
             polypharmacy rate (≥5 ATC)    {:>9.1}%\n\
             municipal care rate           {:>9.1}%\n",
            self.patients,
            self.patient_years,
            self.gp_contacts_per_py,
            self.specialist_contacts_per_py,
            self.admissions_per_1000py,
            self.mean_los_days,
            100.0 * self.readmission_rate,
            100.0 * self.polypharmacy_rate,
            100.0 * self.municipal_care_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, History, Patient, PatientId, Payload, Sex};
    use pastas_synth::{generate_collection, SynthConfig};

    fn window() -> (Date, Date) {
        (Date::new(2013, 1, 1).unwrap(), Date::new(2015, 1, 1).unwrap())
    }

    #[test]
    fn synthetic_cohort_has_plausible_indicators() {
        let c = generate_collection(SynthConfig::with_patients(2_000), 5);
        let (from, to) = window();
        let p = indicators(&c, from, to);
        assert_eq!(p.patients, 2_000);
        assert!((p.patient_years - 4_000.0).abs() < 20.0);
        // A chronically-ill-skewed adult population.
        assert!((1.0..8.0).contains(&p.gp_contacts_per_py), "gp {}", p.gp_contacts_per_py);
        assert!(
            (20.0..200.0).contains(&p.admissions_per_1000py),
            "admissions {}",
            p.admissions_per_1000py
        );
        assert!((1.0..15.0).contains(&p.mean_los_days), "LOS {}", p.mean_los_days);
        assert!(p.readmission_rate < 0.2);
        assert!(p.polypharmacy_rate > 0.005, "poly {}", p.polypharmacy_rate);
        assert!(p.municipal_care_rate < 0.2);
    }

    #[test]
    fn sicker_cohorts_have_higher_indicators() {
        let c = generate_collection(SynthConfig::with_patients(4_000), 5);
        let (from, to) = window();
        let all = indicators(&c, from, to);
        let q = pastas_query::QueryBuilder::new().has_code("K77").unwrap().build();
        let hf = c.extract(|h| q.matches(h));
        let hf_panel = indicators(&hf, from, to);
        assert!(hf_panel.gp_contacts_per_py > all.gp_contacts_per_py);
        assert!(hf_panel.admissions_per_1000py > all.admissions_per_1000py * 2.0);
        assert!(hf_panel.polypharmacy_rate > all.polypharmacy_rate);
    }

    #[test]
    fn polypharmacy_window_logic() {
        let t0 = Date::new(2013, 1, 1).unwrap().at_midnight();
        let day = |d: i64| t0 + Duration::days(d);
        // Five substances in 80 days → positive.
        let tight: Vec<_> = (0..5).map(|i| (day(i * 20), format!("C0{i}AA01"))).collect();
        assert!(has_polypharmacy(&tight));
        // Five substances spread over a year with no dense window → negative.
        let sparse: Vec<_> = (0..5).map(|i| (day(i * 100), format!("C0{i}AA01"))).collect();
        assert!(!has_polypharmacy(&sparse));
        // Repeats of one substance never count.
        let repeats: Vec<_> = (0..10).map(|i| (day(i * 7), "C07AB02".to_owned())).collect();
        assert!(!has_polypharmacy(&repeats));
    }

    #[test]
    fn empty_cohort_panel_is_zeroes() {
        let (from, to) = window();
        let p = indicators(&HistoryCollection::new(), from, to);
        assert_eq!(p.patients, 0);
        assert_eq!(p.mean_los_days, 0.0);
        assert_eq!(p.readmission_rate, 0.0);
        let table = p.to_table();
        assert!(table.contains("patients"));
    }

    #[test]
    fn window_bounds_exclude_outside_entries() {
        let mut h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        // One contact inside, one outside the window.
        h.insert(Entry::event(
            Date::new(2013, 6, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("A01")),
            SourceKind::PrimaryCare,
        ));
        h.insert(Entry::event(
            Date::new(2016, 6, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icpc("A01")),
            SourceKind::PrimaryCare,
        ));
        let c = HistoryCollection::from_histories([h]);
        let (from, to) = window();
        let p = indicators(&c, from, to);
        assert!(
            (p.gp_contacts_per_py - 0.5).abs() < 1e-2,
            "one contact over two years: {}",
            p.gp_contacts_per_py
        );
    }
}
