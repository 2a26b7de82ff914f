//! Population generation: demographics, condition assignment, and assembly
//! into the in-memory collection.

use crate::conditions::CONDITION_MODELS;
use crate::pathways::{self, RawEvent, Window};
use pastas_model::{CollectionBuilder, History, HistoryCollection, Patient, PatientId, Row, Sex};
use pastas_time::Date;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of patients (the paper's full set is 168,000).
    pub patients: usize,
    /// Start of the observation window (§III: a two-year period).
    pub window_start: Date,
    /// Window length in whole years.
    pub window_years: u32,
    /// Background (non-condition) GP contacts per person-year.
    pub noise_contacts_per_year: f64,
    /// Seal the collection's arena every this many patients (a fresh
    /// [`pastas_model::EventStore`] per patient range, all on the one
    /// code dictionary — the sharded layout the query index scales on). `0` (the
    /// default) keeps the single shared arena. Align with the query
    /// index's 65,536-row shard width for one arena per index shard.
    /// The width is also the unit of parallel generation: each
    /// [`pastas_par`] thread simulates whole ranges; `0` keeps generation
    /// serial.
    pub shard_patients: usize,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            patients: 1_000,
            window_start: Date::new(2013, 1, 1).expect("valid date"),
            window_years: 2,
            noise_contacts_per_year: 1.0,
            shard_patients: 0,
        }
    }
}

impl SynthConfig {
    /// The paper-scale configuration: 168,000 patients over two years.
    pub fn paper_scale() -> SynthConfig {
        SynthConfig { patients: 168_000, ..SynthConfig::default() }
    }

    /// A configuration with `patients` patients and defaults otherwise.
    pub fn with_patients(patients: usize) -> SynthConfig {
        SynthConfig { patients, ..SynthConfig::default() }
    }

    /// End of the observation window.
    pub fn window_end(&self) -> Date {
        self.window_start.add_days(self.window_years as i64 * 365)
    }
}

/// A generated person: demographics plus assigned condition models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    patient: Patient,
    /// Indexes into [`CONDITION_MODELS`].
    pub conditions: Vec<usize>,
}

impl Person {
    /// Demographics.
    pub fn patient(&self) -> &Patient {
        &self.patient
    }

    /// Patient id.
    pub fn id(&self) -> PatientId {
        self.patient.id
    }

    /// Birth date.
    pub fn birth_date(&self) -> Date {
        self.patient.birth_date
    }

    /// Names of the person's conditions.
    pub fn condition_names(&self) -> Vec<&'static str> {
        self.conditions.iter().map(|&i| CONDITION_MODELS[i].name).collect()
    }

    /// Test-only constructor (used by the pathway unit tests).
    #[doc(hidden)]
    pub fn for_test(id: PatientId, birth_date: Date, sex: Sex, conditions: Vec<usize>) -> Person {
        Person { patient: Patient { id, birth_date, sex }, conditions }
    }
}

/// A generated population (demographics only; utilization is simulated
/// per-person on demand so the 168k case streams).
#[derive(Debug, Clone)]
pub struct Population {
    /// The generator configuration.
    pub config: SynthConfig,
    /// Master seed.
    pub seed: u64,
    /// The persons.
    pub persons: Vec<Person>,
}

/// Generate one person's skeleton (id, demographics, conditions) —
/// deterministic in `(seed, index)` alone, so populations stream:
/// callers can materialize person `i` without holding persons `0..i`.
pub fn person_at(config: &SynthConfig, seed: u64, index: usize) -> Person {
    let mut rng = person_rng(seed, index as u64, 0);
    let id = PatientId(index as u64 + 1);
    // Adult, elderly-skewed age structure: 18 + 77·u^0.85 gives a mean
    // near 54 with a solid 80+ tail — the chronically-ill cohort shape.
    let age = 18.0 + 77.0 * rng.gen::<f64>().powf(0.85);
    let birth_date = config
        .window_start
        .add_days(-(age * 365.25) as i64)
        .first_of_month()
        .add_days(rng.gen_range(0..28));
    let sex = if rng.gen_bool(0.52) { Sex::Female } else { Sex::Male };
    let age_years = age as i32;

    // Condition assignment with simple comorbidity coupling: diabetes
    // raises hypertension and IHD odds; heart conditions cluster.
    let mut conditions = Vec::new();
    let mut boost = 1.0;
    for (ci, model) in CONDITION_MODELS.iter().enumerate() {
        let mut p = model.prevalence_at(age_years);
        if boost > 1.0
            && matches!(model.name, "Hypertension" | "IschaemicHeartDisease" | "HeartFailure")
        {
            p = (p * boost).min(0.9);
        }
        if rng.gen_bool(p) {
            conditions.push(ci);
            if model.name == "Diabetes" || model.name == "IschaemicHeartDisease" {
                boost = 1.6;
            }
        }
    }
    Person { patient: Patient { id, birth_date, sex }, conditions }
}

/// Generate the population skeleton: ids, demographics, conditions.
pub fn generate_population(config: SynthConfig, seed: u64) -> Population {
    let persons = (0..config.patients).map(|i| person_at(&config, seed, i)).collect();
    Population { config, seed, persons }
}

impl Population {
    /// Simulate one person's raw events (deterministic in `(seed, person)`).
    pub fn events_for(&self, index: usize) -> Vec<RawEvent> {
        let mut rng = person_rng(self.seed, index as u64, 1);
        let mut events = Vec::new();
        pathways::simulate(&self.persons[index], &Window::new(self.config), &mut rng, &mut events);
        events
    }

    /// Build the full in-memory history for one person: a one-patient
    /// collection built from its rows, as [`generate_collection`] builds
    /// every patient.
    pub fn history_for(&self, index: usize) -> History {
        let person = &self.persons[index];
        let mut rows = Vec::new();
        let window = Window::new(self.config);
        push_person_rows(&window, self.seed, index, person, &mut Vec::new(), &mut rows);
        let mut builder = CollectionBuilder::new().with_codes(pathways::code_table());
        builder.add_rows(*person.patient(), &mut rows);
        let (collection, _) = builder.build();
        collection.iter().next().cloned().expect("the collection holds the one patient added")
    }

    /// Fraction of persons having the named condition.
    pub fn prevalence(&self, condition: &str) -> f64 {
        if self.persons.is_empty() {
            return 0.0;
        }
        let n = self
            .persons
            .iter()
            .filter(|p| p.condition_names().contains(&condition))
            .count();
        n as f64 / self.persons.len() as f64
    }
}

/// Generate the full collection in one call.
///
/// Patients land in shared columnar [`pastas_model::EventStore`]
/// arena(s) via [`CollectionBuilder`] — one arena by default, one per
/// [`SynthConfig::shard_patients`]-sized patient range when set — so
/// each code interns once in the collection's dictionary and entries
/// pack in struct-of-arrays form. The arena ranges are simulated on
/// [`pastas_par`] chunks, one builder a chunk, joined in order by
/// [`CollectionBuilder::append`]: the histories, the arena layout, the
/// dictionary and every arena's code ids are identical at every thread
/// count (`pastas_synth::golden` pins them). Each worker works out the
/// window's day numbers and gives its builder the generator's code
/// table once; a person is then generated, simulated into a reused
/// event buffer, handed to the builder as encoded rows (codes by table
/// index, interned by the builder when first pushed) and dropped —
/// no `Entry`, heap code or dictionary search per entry, and peak RSS at
/// the 10M tier is the arenas themselves, not a materialized population.
pub fn generate_collection(config: SynthConfig, seed: u64) -> HistoryCollection {
    let width = match config.shard_patients {
        0 => config.patients.max(1),
        n => n,
    };
    let blocks: Vec<usize> = (0..config.patients).step_by(width).collect();
    let builders = pastas_par::par_chunks(&blocks, 1, |_, starts| {
        let window = Window::new(config);
        let mut builder = CollectionBuilder::new()
            .with_shard_patients(config.shard_patients)
            .with_codes(pathways::code_table());
        let (mut events, mut rows) = (Vec::new(), Vec::new());
        for &lo in starts {
            for i in lo..(lo + width).min(config.patients) {
                let person = person_at(&config, seed, i);
                push_person_rows(&window, seed, i, &person, &mut events, &mut rows);
                builder.add_rows(*person.patient(), &mut rows);
            }
        }
        builder
    });
    let mut builders = builders.into_iter();
    let mut builder = builders.next().unwrap_or_default();
    builders.for_each(|other| builder.append(other));
    let (collection, _) = builder.build();
    collection
}

/// Simulate person `index` into `events` and append its rows to `rows`:
/// the one per-person path behind [`Population::history_for`] and
/// [`generate_collection`].
fn push_person_rows(
    window: &Window,
    seed: u64,
    index: usize,
    person: &Person,
    events: &mut Vec<RawEvent>,
    rows: &mut Vec<Row>,
) {
    let mut rng = person_rng(seed, index as u64, 1);
    pathways::simulate(person, window, &mut rng, events);
    for raw in events.iter() {
        raw.push_rows(rows);
    }
}

/// Independent per-person RNG streams: stable under reordering and
/// partial generation.
fn person_rng(seed: u64, person: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ person.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ stream.wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::content_hash;

    #[test]
    fn population_is_deterministic() {
        let a = generate_population(SynthConfig::with_patients(200), 42);
        let b = generate_population(SynthConfig::with_patients(200), 42);
        assert_eq!(a.persons, b.persons);
        let c = generate_population(SynthConfig::with_patients(200), 43);
        assert_ne!(a.persons, c.persons);
    }

    #[test]
    fn ages_are_adult_and_plausible() {
        let pop = generate_population(SynthConfig::with_patients(2_000), 1);
        let window_start = pop.config.window_start;
        let mut sum = 0i64;
        for p in &pop.persons {
            let age = window_start.months_between(p.birth_date()) / 12;
            assert!((18..=96).contains(&age), "age {age}");
            sum += age as i64;
        }
        let mean = sum as f64 / pop.persons.len() as f64;
        assert!((45.0..65.0).contains(&mean), "mean age {mean}");
    }

    #[test]
    fn diabetes_prevalence_matches_the_papers_selectivity() {
        // The paper selects 13,000 of 168,000 ≈ 7.7%; the E5 experiment
        // uses diabetes as the predefined characteristic.
        let pop = generate_population(SynthConfig::with_patients(20_000), 7);
        let p = pop.prevalence("Diabetes");
        assert!((0.06..0.095).contains(&p), "diabetes prevalence {p}");
    }

    #[test]
    fn comorbidity_coupling_is_positive() {
        let pop = generate_population(SynthConfig::with_patients(30_000), 3);
        let (mut dm_ht, mut dm, mut ht) = (0f64, 0f64, 0f64);
        let n = pop.persons.len() as f64;
        for p in &pop.persons {
            let names = p.condition_names();
            let d = names.contains(&"Diabetes");
            let h = names.contains(&"Hypertension");
            if d {
                dm += 1.0;
            }
            if h {
                ht += 1.0;
            }
            if d && h {
                dm_ht += 1.0;
            }
        }
        // P(HT | DM) > P(HT): the coupling is visible.
        assert!(dm_ht / dm > ht / n, "no comorbidity lift");
    }

    #[test]
    fn histories_are_valid_and_nonempty_for_sick_patients() {
        let pop = generate_population(SynthConfig::with_patients(300), 5);
        for i in 0..pop.persons.len() {
            let h = pop.history_for(i);
            for e in h.entries() {
                assert!(e.start().date() >= h.patient().birth_date);
            }
            if !pop.persons[i].conditions.is_empty() {
                assert!(!h.is_empty(), "sick patient with empty history");
            }
        }
    }

    #[test]
    fn collection_assembly() {
        let c = generate_collection(SynthConfig::with_patients(150), 11);
        assert_eq!(c.len(), 150);
        let stats = c.stats();
        assert!(stats.entries > 150, "population should have utilization");
        // Everything inside (or at least overlapping) the two-year window.
        let start = SynthConfig::default().window_start.at_midnight();
        assert!(stats.first.unwrap() >= start);
    }

    #[test]
    fn person_at_streams_the_same_population() {
        let pop = generate_population(SynthConfig::with_patients(100), 42);
        for (i, p) in pop.persons.iter().enumerate() {
            assert_eq!(*p, person_at(&pop.config, 42, i), "person {i}");
        }
    }

    /// A hash over every (patient, entries) pair, in collection order.
    fn fingerprint(c: &HistoryCollection) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for h in c.iter() {
            format!("{:?}{:?}", h.patient(), h.entries().to_vec()).hash(&mut hasher);
        }
        hasher.finish()
    }

    #[test]
    fn sharded_generation_matches_monolithic_contents() {
        let mono = pastas_par::with_threads(1, || {
            generate_collection(SynthConfig::with_patients(300), 17)
        });
        assert_eq!(mono.sharded_store().shard_count(), 1);
        for (width, arenas) in [(0, 1), (64, 5), (100, 3), (128, 3)] {
            let config = SynthConfig { shard_patients: width, ..SynthConfig::with_patients(300) };
            let serial = pastas_par::with_threads(1, || generate_collection(config, 17));
            let parallel = pastas_par::with_threads(4, || generate_collection(config, 17));
            assert_eq!(serial.sharded_store().shard_count(), arenas, "ceil(300/{width})");
            assert_eq!(fingerprint(&serial), fingerprint(&mono), "width {width}");
            assert_eq!(content_hash(&parallel), content_hash(&serial), "width {width}");
            assert_eq!(serial.dictionary(), mono.dictionary(), "width {width}");
        }
    }

    #[test]
    fn mean_entries_per_patient_is_realistic() {
        let c = generate_collection(SynthConfig::with_patients(1_000), 13);
        let mean = c.stats().mean_entries;
        // Chronically-ill cohort: roughly 5–30 entries over two years.
        assert!((4.0..30.0).contains(&mean), "mean entries {mean}");
    }
}
