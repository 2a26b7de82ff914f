//! Care-pathway simulation: one person's raw utilization events.
//!
//! The intermediate [`RawEvent`] form is the single source of truth shared
//! by the in-memory collection builder and the raw-source emitters, so the
//! CSV files and the direct `HistoryCollection` describe the *same*
//! population.

use crate::conditions::{ConditionModel, CONDITION_MODELS, NOISE_CONTACTS};
use crate::population::{Person, SynthConfig};
use pastas_codes::Code;
use pastas_model::{Entry, EpisodeKind, MeasurementKind, Payload, SourceKind};
use pastas_time::{Date, DateTime, Duration};
use rand::rngs::StdRng;
use rand::Rng;

/// One raw utilization record, before source formatting.
#[derive(Debug, Clone, PartialEq)]
pub enum RawEvent {
    /// A primary-care or specialist contact with a recorded ICPC diagnosis.
    Contact {
        /// Contact date/time.
        time: DateTime,
        /// Recorded ICPC-2 code.
        icpc: &'static str,
        /// Provider type.
        provider: Provider,
        /// Measurement taken at the contact, if any.
        measurement: Option<(MeasurementKind, f64)>,
    },
    /// A hospital episode with a main ICD-10 diagnosis.
    Admission {
        /// Admission time.
        start: DateTime,
        /// Discharge time.
        end: DateTime,
        /// Main ICD-10 diagnosis.
        icd10: &'static str,
        /// Episode kind (inpatient / outpatient / day treatment).
        kind: EpisodeKind,
    },
    /// A pharmacy dispensing.
    Dispensing {
        /// Dispensing date/time.
        time: DateTime,
        /// ATC code.
        atc: &'static str,
    },
    /// A municipal care-service period.
    Municipal {
        /// Service start.
        start: DateTime,
        /// Service end.
        end: DateTime,
        /// Service kind (home care / nursing home).
        kind: EpisodeKind,
    },
}

/// Provider type on a claims row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    /// Regular general practitioner.
    Gp,
    /// GP-operated emergency (out-of-hours) service.
    OutOfHours,
    /// Private specialist.
    Specialist,
}

impl RawEvent {
    /// Anchor time (used for ordering rows in emitted files).
    pub fn time(&self) -> DateTime {
        match self {
            RawEvent::Contact { time, .. } | RawEvent::Dispensing { time, .. } => *time,
            RawEvent::Admission { start, .. } | RawEvent::Municipal { start, .. } => *start,
        }
    }

    /// Expand to model entries, appended to `out` (a contact with a
    /// measurement yields two).
    pub fn push_entries(&self, out: &mut Vec<Entry>) {
        match self {
            RawEvent::Contact { time, icpc, provider, measurement } => {
                let source = match provider {
                    Provider::Specialist => SourceKind::Specialist,
                    _ => SourceKind::PrimaryCare,
                };
                out.push(Entry::event(*time, Payload::Diagnosis(Code::icpc(icpc)), source));
                if let Some((kind, value)) = measurement {
                    out.push(Entry::event(
                        *time,
                        Payload::Measurement { kind: *kind, value: *value },
                        source,
                    ));
                }
            }
            RawEvent::Admission { start, end, icd10, kind } => out.extend([
                Entry::interval(*start, *end, Payload::Episode(*kind), SourceKind::Hospital),
                Entry::event(*start, Payload::Diagnosis(Code::icd10(icd10)), SourceKind::Hospital),
            ]),
            RawEvent::Dispensing { time, atc } => out.push(Entry::event(
                *time,
                Payload::Medication(Code::atc(atc)),
                SourceKind::Prescription,
            )),
            RawEvent::Municipal { start, end, kind } => out.push(Entry::interval(
                *start,
                *end,
                Payload::Episode(*kind),
                SourceKind::Municipal,
            )),
        }
    }
}

/// Simulate one person's two-year utilization.
pub fn simulate(person: &Person, config: &SynthConfig, rng: &mut StdRng) -> Vec<RawEvent> {
    let mut events = Vec::new();
    let age = age_at(person.birth_date(), config.window_start);

    for &ci in &person.conditions {
        let model = &CONDITION_MODELS[ci];
        simulate_condition(model, config, rng, &mut events);
    }
    simulate_noise(config, rng, &mut events);
    simulate_municipal(age, person, config, rng, &mut events);

    events.sort_by_key(RawEvent::time);
    events
}

fn age_at(birth: Date, at: Date) -> i32 {
    at.months_between(birth).div_euclid(12)
}

fn simulate_condition(
    model: &ConditionModel,
    config: &SynthConfig,
    rng: &mut StdRng,
    out: &mut Vec<RawEvent>,
) {
    let years = config.window_years as f64;

    // GP follow-up contacts.
    for _ in 0..poisson(rng, model.gp_visits_per_year * years) {
        let time = random_daytime(config, rng);
        let measurement = model.measurement.filter(|_| rng.gen_bool(0.7)).map(|kind| {
            (kind, sample_measurement(kind, rng))
        });
        out.push(RawEvent::Contact { time, icpc: model.icpc, provider: Provider::Gp, measurement });
    }

    // Specialist contacts.
    for _ in 0..poisson(rng, model.specialist_visits_per_year * years) {
        out.push(RawEvent::Contact {
            time: random_daytime(config, rng),
            icpc: model.icpc,
            provider: Provider::Specialist,
            measurement: None,
        });
    }

    // Hospital admissions.
    for _ in 0..poisson(rng, model.admissions_per_year * years) {
        let start = random_daytime(config, rng);
        let los_days = (-model.mean_los_days * (1.0 - rng.gen::<f64>()).ln()).clamp(1.0, 60.0);
        let end = start + Duration::seconds((los_days * 86_400.0) as i64);
        let kind = if rng.gen_bool(0.8) {
            EpisodeKind::Inpatient
        } else if rng.gen_bool(0.5) {
            EpisodeKind::Outpatient
        } else {
            EpisodeKind::DayTreatment
        };
        out.push(RawEvent::Admission { start, end, icd10: model.icd10, kind });
    }

    // Maintenance medication on ~quarterly refill cycles.
    for &atc in model.medications {
        let mut day = rng.gen_range(0.0..90.0);
        let horizon = 365.25 * years;
        while day < horizon {
            let time = config.window_start.add_days(day as i64).at_midnight()
                + Duration::hours(rng.gen_range(9..18));
            out.push(RawEvent::Dispensing { time, atc });
            day += rng.gen_range(75.0..105.0);
        }
    }
}

fn simulate_noise(config: &SynthConfig, rng: &mut StdRng, out: &mut Vec<RawEvent>) {
    let years = config.window_years as f64;
    let total_weight: f64 = NOISE_CONTACTS.iter().map(|&(_, w)| w).sum();
    for _ in 0..poisson(rng, config.noise_contacts_per_year * years) {
        let mut pick = rng.gen_range(0.0..total_weight);
        let mut code = NOISE_CONTACTS[0].0;
        for &(c, w) in &NOISE_CONTACTS {
            if pick < w {
                code = c;
                break;
            }
            pick -= w;
        }
        let provider = if rng.gen_bool(0.15) { Provider::OutOfHours } else { Provider::Gp };
        out.push(RawEvent::Contact {
            time: seasonal_daytime(config, rng),
            icpc: code,
            provider,
            measurement: None,
        });
    }
}

/// A contact time with the winter peak of acute primary care (respiratory
/// infections cluster December–February): acceptance ∝ 1 + 0.35·cos of the
/// annual phase, peaking mid-January.
fn seasonal_daytime(config: &SynthConfig, rng: &mut StdRng) -> DateTime {
    loop {
        let t = random_daytime(config, rng);
        let doy = t.date().ordinal() as f64;
        let phase = std::f64::consts::TAU * (doy - 15.0) / 365.25;
        let weight = (1.0 + 0.35 * phase.cos()) / 1.35;
        if rng.gen_bool(weight.clamp(0.05, 1.0)) {
            return t;
        }
    }
}

fn simulate_municipal(
    age: i32,
    person: &Person,
    config: &SynthConfig,
    rng: &mut StdRng,
    out: &mut Vec<RawEvent>,
) {
    let frail = age >= 80
        || (age >= 75
            && person
                .conditions
                .iter()
                .any(|&ci| CONDITION_MODELS[ci].name == "HeartFailure"));
    if frail && rng.gen_bool(0.35) {
        let window_days = (config.window_years as i64) * 365;
        let s = rng.gen_range(0..window_days / 2);
        let len = rng.gen_range(30..window_days - s);
        out.push(RawEvent::Municipal {
            start: config.window_start.add_days(s).at_midnight(),
            end: config.window_start.add_days(s + len).at_midnight(),
            kind: EpisodeKind::HomeCare,
        });
    }
    if age >= 85 && rng.gen_bool(0.15) {
        let window_days = (config.window_years as i64) * 365;
        let s = rng.gen_range(window_days / 4..window_days);
        out.push(RawEvent::Municipal {
            start: config.window_start.add_days(s).at_midnight(),
            end: config.window_start.add_days(window_days).at_midnight(),
            kind: EpisodeKind::NursingHome,
        });
    }
}

fn random_daytime(config: &SynthConfig, rng: &mut StdRng) -> DateTime {
    let window_days = (config.window_years as i64) * 365;
    let day = rng.gen_range(0..window_days);
    config.window_start.add_days(day).at_midnight()
        + Duration::hours(rng.gen_range(8..20))
        + Duration::minutes(rng.gen_range(0..60))
}

fn sample_measurement(kind: MeasurementKind, rng: &mut StdRng) -> f64 {
    let (mean, sd) = match kind {
        MeasurementKind::SystolicBp => (140.0, 15.0),
        MeasurementKind::DiastolicBp => (85.0, 10.0),
        MeasurementKind::Hba1c => (7.2, 1.0),
        MeasurementKind::Weight => (82.0, 14.0),
        MeasurementKind::PeakFlow => (380.0, 80.0),
        MeasurementKind::Cholesterol => (5.4, 1.0),
    };
    // Box–Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + sd * z).max(0.1)
}

/// Knuth's Poisson sampler (fine for the small rates used here).
pub fn poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn test_person(age: i32, conditions: Vec<usize>) -> Person {
        Person::for_test(
            pastas_model::PatientId(1),
            Date::new(2013 - age, 1, 1).unwrap(),
            pastas_model::Sex::Female,
            conditions,
        )
    }

    fn config() -> SynthConfig {
        SynthConfig::default()
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut r = rng(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut r, 3.0) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = rng(2);
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn diabetic_gets_condition_specific_events() {
        let mut r = rng(7);
        let person = test_person(65, vec![0]); // Diabetes model
        let events = simulate(&person, &config(), &mut r);
        assert!(events.iter().any(|e| matches!(e, RawEvent::Contact { icpc: "T90", .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, RawEvent::Dispensing { atc: "A10BA02", .. })));
    }

    #[test]
    fn events_are_time_sorted() {
        let mut r = rng(11);
        let person = test_person(70, vec![0, 1, 4]);
        let events = simulate(&person, &config(), &mut r);
        for w in events.windows(2) {
            assert!(w[0].time() <= w[1].time());
        }
    }

    #[test]
    fn events_stay_inside_window() {
        let cfg = config();
        let window_end = cfg.window_start.add_days(cfg.window_years as i64 * 365 + 61);
        for seed in 0..10 {
            let mut r = rng(seed);
            let person = test_person(88, vec![3]);
            for e in simulate(&person, &cfg, &mut r) {
                assert!(e.time().date() >= cfg.window_start);
                assert!(e.time().date() <= window_end, "{:?}", e);
            }
        }
    }

    #[test]
    fn healthy_person_has_only_noise() {
        let mut r = rng(13);
        let person = test_person(40, vec![]);
        let events = simulate(&person, &config(), &mut r);
        assert!(events
            .iter()
            .all(|e| matches!(e, RawEvent::Contact { measurement: None, .. })));
    }

    #[test]
    fn admissions_expand_to_interval_plus_diagnosis() {
        let e = RawEvent::Admission {
            start: Date::new(2013, 5, 1).unwrap().at_midnight(),
            end: Date::new(2013, 5, 6).unwrap().at_midnight(),
            icd10: "I50",
            kind: EpisodeKind::Inpatient,
        };
        let mut entries = Vec::new();
        e.push_entries(&mut entries);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].is_interval());
        assert!(entries[1].is_event());
        assert_eq!(entries[1].code().unwrap().value, "I50");
    }

    #[test]
    fn contact_with_measurement_expands_to_two_entries() {
        let e = RawEvent::Contact {
            time: Date::new(2013, 5, 1).unwrap().at_midnight(),
            icpc: "K86",
            provider: Provider::Gp,
            measurement: Some((MeasurementKind::SystolicBp, 150.0)),
        };
        let mut entries = Vec::new();
        e.push_entries(&mut entries);
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let person = test_person(70, vec![0, 2]);
        let a = simulate(&person, &config(), &mut rng(99));
        let b = simulate(&person, &config(), &mut rng(99));
        assert_eq!(a, b);
        let c = simulate(&person, &config(), &mut rng(100));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn background_contacts_peak_in_winter() {
        // Pool noise contacts over many healthy patients: winter months
        // (Dec–Feb) should out-draw summer (Jun–Aug) by a clear margin.
        let cfg = config();
        let mut winter = 0usize;
        let mut summer = 0usize;
        for seed in 0..400 {
            let mut r = rng(seed);
            let person = test_person(45, vec![]);
            for e in simulate(&person, &cfg, &mut r) {
                match e.time().date().month() {
                    12 | 1 | 2 => winter += 1,
                    6..=8 => summer += 1,
                    _ => {}
                }
            }
        }
        assert!(
            winter as f64 > summer as f64 * 1.25,
            "winter {winter} vs summer {summer}"
        );
    }

    #[test]
    fn measurements_are_physiological() {
        let mut r = rng(21);
        for _ in 0..200 {
            let bp = sample_measurement(MeasurementKind::SystolicBp, &mut r);
            assert!(bp > 60.0 && bp < 260.0, "implausible BP {bp}");
        }
    }
}
