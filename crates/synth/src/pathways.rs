//! Care-pathway simulation: one person's raw utilization events.
//!
//! The intermediate [`RawEvent`] form is the single source of truth shared
//! by the in-memory collection builder and the raw-source emitters, so the
//! CSV files and the direct `HistoryCollection` describe the *same*
//! population.

use crate::conditions::{CONDITION_MODELS, NOISE_CONTACTS};
use crate::population::{Person, SynthConfig};
use pastas_codes::{Code, CodeSystem};
use pastas_model::{EpisodeKind, MeasurementKind, Row, RowItem, SourceKind};
use pastas_time::{Date, DateTime, Duration};
use rand::rngs::StdRng;
use rand::Rng;

const CONDITIONS: usize = CONDITION_MODELS.len();

/// `MEDICATIONS_BEFORE[ci]`: the medications of the conditions before
/// `ci`; the last slot counts them all.
const MEDICATIONS_BEFORE: [usize; CONDITIONS + 1] = {
    let mut before = [0; CONDITIONS + 1];
    let mut ci = 0;
    while ci < CONDITIONS {
        before[ci + 1] = before[ci] + CONDITION_MODELS[ci].medications.len();
        ci += 1;
    }
    before
};

/// Where the medications start in [`code_table`].
const FIRST_MEDICATION: usize = 2 * CONDITIONS;
/// Where the noise contacts' codes start in [`code_table`].
const FIRST_NOISE: usize = FIRST_MEDICATION + MEDICATIONS_BEFORE[CONDITIONS];

/// A code the generator records, as its index in [`code_table`]: every
/// condition's ICPC-2 code, then every condition's ICD-10 code, then
/// each condition's medications in turn, then the noise contacts' codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthCode(u32);

impl SynthCode {
    fn at(index: usize) -> SynthCode {
        SynthCode(u32::try_from(index).expect("the code table is small"))
    }

    /// Condition `ci`'s ICPC-2 code.
    fn icpc(ci: usize) -> SynthCode {
        SynthCode::at(ci)
    }

    /// Condition `ci`'s ICD-10 code.
    fn icd10(ci: usize) -> SynthCode {
        SynthCode::at(CONDITIONS + ci)
    }

    /// Condition `ci`'s medication `m`.
    fn medication(ci: usize, m: usize) -> SynthCode {
        SynthCode::at(FIRST_MEDICATION + MEDICATIONS_BEFORE[ci] + m)
    }

    /// The code of noise contact `k`.
    fn noise(k: usize) -> SynthCode {
        SynthCode::at(FIRST_NOISE + k)
    }

    /// The index in [`code_table`].
    pub fn index(self) -> u32 {
        self.0
    }

    /// The code's system and value.
    pub fn code(self) -> (CodeSystem, &'static str) {
        let i = self.0 as usize;
        if i < CONDITIONS {
            (CodeSystem::Icpc2, CONDITION_MODELS[i].icpc)
        } else if i < FIRST_MEDICATION {
            (CodeSystem::Icd10, CONDITION_MODELS[i - CONDITIONS].icd10)
        } else if i < FIRST_NOISE {
            let m = i - FIRST_MEDICATION;
            let ci = MEDICATIONS_BEFORE.partition_point(|&before| before <= m) - 1;
            (CodeSystem::Atc, CONDITION_MODELS[ci].medications[m - MEDICATIONS_BEFORE[ci]])
        } else {
            (CodeSystem::Icpc2, NOISE_CONTACTS[i - FIRST_NOISE].0)
        }
    }

    /// The code's value, as the source files record it.
    pub fn value(self) -> &'static str {
        self.code().1
    }
}

impl std::fmt::Display for SynthCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.value())
    }
}

/// The generator's code table, in [`SynthCode`] order: what a
/// [`pastas_model::CollectionBuilder`] fed [`RawEvent::push_rows`] rows
/// is given. A code two conditions share appears twice.
pub fn code_table() -> Vec<Code> {
    (0..FIRST_NOISE + NOISE_CONTACTS.len())
        .map(|i| {
            let (system, value) = SynthCode::at(i).code();
            Code::new(system, value)
        })
        .collect()
}

/// A [`SynthConfig`]'s observation window as numbers, worked out once
/// for every person simulated in it: its first midnight, its length in
/// days, and the day (counted from its start) on which each calendar
/// year it reaches begins. Times are then integer arithmetic, with no
/// calendar conversion per event.
pub struct Window {
    config: SynthConfig,
    start: DateTime,
    days: i64,
    year_starts: Vec<i64>,
}

impl Window {
    /// The window of `config`.
    pub fn new(config: SynthConfig) -> Window {
        let first = config.window_start;
        let days = (config.window_years as i64) * 365;
        let year_starts = (first.year()..=first.add_days(days).year())
            .map(|year| Date::new(year, 1, 1).expect("valid date").days_since(first))
            .collect();
        Window { config, start: first.at_midnight(), days, year_starts }
    }

    /// The instant `seconds` seconds into the window's day `day`.
    fn at(&self, day: i64, seconds: i64) -> DateTime {
        self.start + Duration::seconds(day * 86_400 + seconds)
    }

    /// The day of the year (1-based) of the window's day `day`.
    fn day_of_year(&self, day: i64) -> i64 {
        let year = self.year_starts.partition_point(|&start| start <= day);
        day - self.year_starts[year - 1] + 1
    }
}

/// One raw utilization record, before source formatting. The emitters
/// render it as a source-file row; [`RawEvent::push_rows`] hands it to
/// the collection builder as encoded rows, its codes as [`SynthCode`]
/// indexes into [`code_table`].
#[derive(Debug, Clone, PartialEq)]
pub enum RawEvent {
    /// A primary-care or specialist contact with a recorded ICPC diagnosis.
    Contact {
        /// Contact date/time.
        time: DateTime,
        /// Recorded ICPC-2 code.
        icpc: SynthCode,
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
        icd10: SynthCode,
        /// Episode kind (inpatient / outpatient / day treatment).
        kind: EpisodeKind,
    },
    /// A pharmacy dispensing.
    Dispensing {
        /// Dispensing date/time.
        time: DateTime,
        /// ATC code.
        atc: SynthCode,
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

    /// Expand to builder rows, appended to `out` (a contact with a
    /// measurement yields two, an admission its stay and its diagnosis).
    /// Codes are [`code_table`] indexes.
    pub fn push_rows(&self, out: &mut Vec<Row>) {
        match *self {
            RawEvent::Contact { time, icpc, provider, measurement } => {
                let source = match provider {
                    Provider::Specialist => SourceKind::Specialist,
                    _ => SourceKind::PrimaryCare,
                };
                out.push(Row::event(time, RowItem::Diagnosis(icpc.index()), source));
                if let Some((kind, value)) = measurement {
                    out.push(Row::event(time, RowItem::Measurement { kind, value }, source));
                }
            }
            RawEvent::Admission { start, end, icd10, kind } => out.extend([
                Row::interval(start, end, RowItem::Episode(kind), SourceKind::Hospital),
                Row::event(start, RowItem::Diagnosis(icd10.index()), SourceKind::Hospital),
            ]),
            RawEvent::Dispensing { time, atc } => out.push(Row::event(
                time,
                RowItem::Medication(atc.index()),
                SourceKind::Prescription,
            )),
            RawEvent::Municipal { start, end, kind } => out.push(Row::interval(
                start,
                end,
                RowItem::Episode(kind),
                SourceKind::Municipal,
            )),
        }
    }
}

/// Simulate one person's two-year utilization into `out` (cleared
/// first), sorted by time.
pub fn simulate(person: &Person, window: &Window, rng: &mut StdRng, out: &mut Vec<RawEvent>) {
    out.clear();
    let age = age_at(person.birth_date(), window.config.window_start);

    for &ci in &person.conditions {
        simulate_condition(ci, window, rng, out);
    }
    simulate_noise(window, rng, out);
    simulate_municipal(age, person, window, rng, out);

    out.sort_by_key(RawEvent::time);
}

fn age_at(birth: Date, at: Date) -> i32 {
    at.months_between(birth).div_euclid(12)
}

fn simulate_condition(ci: usize, window: &Window, rng: &mut StdRng, out: &mut Vec<RawEvent>) {
    let model = &CONDITION_MODELS[ci];
    let years = window.config.window_years as f64;
    let icpc = SynthCode::icpc(ci);

    // GP follow-up contacts.
    for _ in 0..poisson(rng, model.gp_visits_per_year * years) {
        let time = random_daytime(window, rng).1;
        let measurement = model.measurement.filter(|_| rng.gen_bool(0.7)).map(|kind| {
            (kind, sample_measurement(kind, rng))
        });
        out.push(RawEvent::Contact { time, icpc, provider: Provider::Gp, measurement });
    }

    // Specialist contacts.
    for _ in 0..poisson(rng, model.specialist_visits_per_year * years) {
        out.push(RawEvent::Contact {
            time: random_daytime(window, rng).1,
            icpc,
            provider: Provider::Specialist,
            measurement: None,
        });
    }

    // Hospital admissions.
    for _ in 0..poisson(rng, model.admissions_per_year * years) {
        let start = random_daytime(window, rng).1;
        let los_days = (-model.mean_los_days * (1.0 - rng.gen::<f64>()).ln()).clamp(1.0, 60.0);
        let end = start + Duration::seconds((los_days * 86_400.0) as i64);
        let kind = if rng.gen_bool(0.8) {
            EpisodeKind::Inpatient
        } else if rng.gen_bool(0.5) {
            EpisodeKind::Outpatient
        } else {
            EpisodeKind::DayTreatment
        };
        out.push(RawEvent::Admission { start, end, icd10: SynthCode::icd10(ci), kind });
    }

    // Maintenance medication on ~quarterly refill cycles.
    for m in 0..model.medications.len() {
        let atc = SynthCode::medication(ci, m);
        let mut day = rng.gen_range(0.0..90.0);
        let horizon = 365.25 * years;
        while day < horizon {
            let hour: i64 = rng.gen_range(9..18);
            let time = window.at(day as i64, hour * 3_600);
            out.push(RawEvent::Dispensing { time, atc });
            day += rng.gen_range(75.0..105.0);
        }
    }
}

fn simulate_noise(window: &Window, rng: &mut StdRng, out: &mut Vec<RawEvent>) {
    let years = window.config.window_years as f64;
    let total_weight: f64 = NOISE_CONTACTS.iter().map(|&(_, w)| w).sum();
    for _ in 0..poisson(rng, window.config.noise_contacts_per_year * years) {
        let mut pick = rng.gen_range(0.0..total_weight);
        let mut k = 0;
        for (j, &(_, w)) in NOISE_CONTACTS.iter().enumerate() {
            if pick < w {
                k = j;
                break;
            }
            pick -= w;
        }
        let provider = if rng.gen_bool(0.15) { Provider::OutOfHours } else { Provider::Gp };
        out.push(RawEvent::Contact {
            time: seasonal_daytime(window, rng),
            icpc: SynthCode::noise(k),
            provider,
            measurement: None,
        });
    }
}

/// A contact time with the winter peak of acute primary care (respiratory
/// infections cluster December–February): acceptance ∝ 1 + 0.35·cos of the
/// annual phase, peaking mid-January.
fn seasonal_daytime(window: &Window, rng: &mut StdRng) -> DateTime {
    loop {
        let (day, t) = random_daytime(window, rng);
        let doy = window.day_of_year(day) as f64;
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
    window: &Window,
    rng: &mut StdRng,
    out: &mut Vec<RawEvent>,
) {
    let frail = age >= 80
        || (age >= 75
            && person
                .conditions
                .iter()
                .any(|&ci| CONDITION_MODELS[ci].name == "HeartFailure"));
    let window_days = window.days;
    if frail && rng.gen_bool(0.35) {
        let s = rng.gen_range(0..window_days / 2);
        let len = rng.gen_range(30..window_days - s);
        out.push(RawEvent::Municipal {
            start: window.at(s, 0),
            end: window.at(s + len, 0),
            kind: EpisodeKind::HomeCare,
        });
    }
    if age >= 85 && rng.gen_bool(0.15) {
        let s = rng.gen_range(window_days / 4..window_days);
        out.push(RawEvent::Municipal {
            start: window.at(s, 0),
            end: window.at(window_days, 0),
            kind: EpisodeKind::NursingHome,
        });
    }
}

/// A day of the window and a daytime on it (08:00–19:59), drawn day,
/// then hour, then minute.
fn random_daytime(window: &Window, rng: &mut StdRng) -> (i64, DateTime) {
    let day = rng.gen_range(0..window.days);
    let hour: i64 = rng.gen_range(8..20);
    let minute: i64 = rng.gen_range(0..60);
    (day, window.at(day, hour * 3_600 + minute * 60))
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

    fn simulated(person: &Person, config: &SynthConfig, rng: &mut StdRng) -> Vec<RawEvent> {
        let mut events = Vec::new();
        simulate(person, &Window::new(*config), rng, &mut events);
        events
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
        let events = simulated(&person, &config(), &mut r);
        assert!(events
            .iter()
            .any(|e| matches!(e, RawEvent::Contact { icpc, .. } if icpc.value() == "T90")));
        assert!(events
            .iter()
            .any(|e| matches!(e, RawEvent::Dispensing { atc, .. } if atc.value() == "A10BA02")));
    }

    #[test]
    fn events_are_time_sorted() {
        let mut r = rng(11);
        let person = test_person(70, vec![0, 1, 4]);
        let events = simulated(&person, &config(), &mut r);
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
            for e in simulated(&person, &cfg, &mut r) {
                assert!(e.time().date() >= cfg.window_start);
                assert!(e.time().date() <= window_end, "{:?}", e);
            }
        }
    }

    #[test]
    fn healthy_person_has_only_noise() {
        let mut r = rng(13);
        let person = test_person(40, vec![]);
        let events = simulated(&person, &config(), &mut r);
        assert!(events
            .iter()
            .all(|e| matches!(e, RawEvent::Contact { measurement: None, .. })));
    }

    #[test]
    fn admissions_expand_to_interval_plus_diagnosis() {
        let heart_failure = CONDITION_MODELS.iter().position(|m| m.icd10 == "I50").unwrap();
        let e = RawEvent::Admission {
            start: Date::new(2013, 5, 1).unwrap().at_midnight(),
            end: Date::new(2013, 5, 6).unwrap().at_midnight(),
            icd10: SynthCode::icd10(heart_failure),
            kind: EpisodeKind::Inpatient,
        };
        let mut rows = Vec::new();
        e.push_rows(&mut rows);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].interval);
        assert!(!rows[1].interval);
        let RowItem::Diagnosis(code) = rows[1].item else { panic!("{:?}", rows[1]) };
        assert_eq!(code_table()[code as usize], Code::icd10("I50"));
    }

    #[test]
    fn contact_with_measurement_expands_to_two_entries() {
        let e = RawEvent::Contact {
            time: Date::new(2013, 5, 1).unwrap().at_midnight(),
            icpc: SynthCode::icpc(1),
            provider: Provider::Gp,
            measurement: Some((MeasurementKind::SystolicBp, 150.0)),
        };
        let mut rows = Vec::new();
        e.push_rows(&mut rows);
        assert_eq!(rows.len(), 2);
    }

    /// Every code of the condition models and the noise contacts has its
    /// slot in the table, and each slot names the code it stands for.
    #[test]
    fn code_table_lists_every_generated_code() {
        let table = code_table();
        for (ci, model) in CONDITION_MODELS.iter().enumerate() {
            assert_eq!(table[SynthCode::icpc(ci).index() as usize], Code::icpc(model.icpc));
            assert_eq!(table[SynthCode::icd10(ci).index() as usize], Code::icd10(model.icd10));
            for (m, atc) in model.medications.iter().enumerate() {
                assert_eq!(SynthCode::medication(ci, m).value(), *atc);
                assert_eq!(table[SynthCode::medication(ci, m).index() as usize], Code::atc(atc));
            }
        }
        for (k, (icpc, _)) in NOISE_CONTACTS.iter().enumerate() {
            assert_eq!(table[SynthCode::noise(k).index() as usize], Code::icpc(icpc));
        }
        assert_eq!(table.len(), SynthCode::noise(NOISE_CONTACTS.len() - 1).index() as usize + 1);
    }

    /// The window's day-of-year arithmetic agrees with the calendar, also
    /// for a window that opens mid-year and spans a leap day.
    #[test]
    fn window_days_of_year_match_the_calendar() {
        let start = Date::new(2015, 7, 9).unwrap();
        let window = Window::new(SynthConfig { window_start: start, window_years: 3, ..config() });
        for day in 0..window.days {
            let date = start.add_days(day);
            assert_eq!(window.day_of_year(day), i64::from(date.ordinal()), "day {day}");
            assert_eq!(window.at(day, 61), date.at(0, 1, 1).unwrap());
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let person = test_person(70, vec![0, 2]);
        let a = simulated(&person, &config(), &mut rng(99));
        let b = simulated(&person, &config(), &mut rng(99));
        assert_eq!(a, b);
        let c = simulated(&person, &config(), &mut rng(100));
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
            for e in simulated(&person, &cfg, &mut r) {
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
