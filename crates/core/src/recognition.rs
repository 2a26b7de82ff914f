//! The patient-recognition study, simulated (experiment E6).
//!
//! §IV of the paper: the prototype selected 13,000 patients, produced their
//! individual trajectories, and presented them to the patients themselves.
//! "only 1% of the patients said that everything was wrong in the presented
//! trajectories … while 92% could easily recognize their own trajectory and
//! 7% did not remember."
//!
//! We cannot mail synthetic patients a questionnaire, so we model the three
//! response channels the paper's numbers imply:
//!
//! 1. **Record integrity.** A presented trajectory is wrong *in toto* when
//!    identity linkage swapped records — probability
//!    [`RecognitionModel::record_swap_prob`] (the "everything was wrong" 1%).
//! 2. **Aggregation fidelity.** Sources drop out with probability
//!    [`RecognitionModel::source_dropout`]; a patient shown a trajectory
//!    missing most of what happened to them cannot recognise it.
//! 3. **Patient memory.** Patients with few health-service contacts have
//!    little to recognise; the probability of "did not remember" decays
//!    with the number of entries in the true trajectory.
//!
//! The defaults reproduce the paper's 92 / 7 / 1 split on the default
//! synthetic cohort; the E6 bench sweeps the error parameters to show how
//! the split degrades — the sensitivity analysis the paper does not report.

use pastas_model::{History, HistoryCollection, SourceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error-model and response-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecognitionModel {
    /// Probability a patient was shown someone else's record entirely
    /// (identity-linkage failure).
    pub record_swap_prob: f64,
    /// Per-source probability that the source's entries are missing from
    /// the presented trajectory.
    pub source_dropout: f64,
    /// Memory model: P(does not remember) = `memory_floor +
    /// memory_scale · exp(−entries / memory_halflife)`.
    pub memory_floor: f64,
    /// See `memory_floor`.
    pub memory_scale: f64,
    /// See `memory_floor`.
    pub memory_halflife: f64,
    /// Minimum fraction of the true trajectory that must survive
    /// aggregation for the patient to recognise it.
    pub recognition_threshold: f64,
}

impl Default for RecognitionModel {
    fn default() -> RecognitionModel {
        RecognitionModel {
            record_swap_prob: 0.010,
            source_dropout: 0.01,
            memory_floor: 0.015,
            memory_scale: 0.45,
            memory_halflife: 16.0,
            recognition_threshold: 0.45,
        }
    }
}

/// A patient's simulated questionnaire response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// "Could easily recognize their own trajectory."
    Recognized,
    /// "Did not remember."
    DidNotRemember,
    /// "Everything was wrong."
    EverythingWrong,
}

/// Aggregate study outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyOutcome {
    /// Number of patients in the study.
    pub patients: usize,
    /// Fraction answering "recognized".
    pub recognized: f64,
    /// Fraction answering "did not remember".
    pub not_remembered: f64,
    /// Fraction answering "everything wrong".
    pub all_wrong: f64,
}

/// Simulate one patient's response.
pub fn simulate_response(
    history: &History,
    model: &RecognitionModel,
    rng: &mut StdRng,
) -> Response {
    // Channel 1: linkage failure.
    if rng.gen_bool(model.record_swap_prob.clamp(0.0, 1.0)) {
        return Response::EverythingWrong;
    }
    // Channel 3: memory. Patients with sparse trajectories may not
    // remember the contacts at all.
    let n = history.len() as f64;
    let p_forget = (model.memory_floor
        + model.memory_scale * (-n / model.memory_halflife.max(0.1)).exp())
    .clamp(0.0, 1.0);
    if rng.gen_bool(p_forget) {
        return Response::DidNotRemember;
    }
    // Channel 2: aggregation fidelity. Drop whole sources, then check what
    // fraction of the trajectory survives.
    let mut kept = 0usize;
    let mut dropped_sources = 0u8;
    let mut keep_source = [true; 5];
    for (i, _) in SourceKind::ALL.iter().enumerate() {
        if rng.gen_bool(model.source_dropout.clamp(0.0, 1.0)) {
            keep_source[i] = false;
            dropped_sources += 1;
        }
    }
    let _ = dropped_sources;
    for e in history.entries() {
        let idx = SourceKind::ALL.iter().position(|&s| s == e.source()).expect("known source");
        if keep_source[idx] {
            kept += 1;
        }
    }
    let survival = if history.is_empty() { 1.0 } else { kept as f64 / history.len() as f64 };
    if survival >= model.recognition_threshold {
        Response::Recognized
    } else {
        Response::EverythingWrong
    }
}

/// Run the full study over a cohort.
pub fn simulate_study(
    collection: &HistoryCollection,
    model: &RecognitionModel,
    seed: u64,
) -> StudyOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = [0usize; 3];
    for h in collection {
        let r = simulate_response(h, model, &mut rng);
        counts[match r {
            Response::Recognized => 0,
            Response::DidNotRemember => 1,
            Response::EverythingWrong => 2,
        }] += 1;
    }
    let n = collection.len().max(1) as f64;
    StudyOutcome {
        patients: collection.len(),
        recognized: counts[0] as f64 / n,
        not_remembered: counts[1] as f64 / n,
        all_wrong: counts[2] as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_synth::{generate_collection, SynthConfig};

    #[test]
    fn defaults_reproduce_the_papers_split() {
        // Paper: 92% recognized / 7% did not remember / 1% everything
        // wrong — measured on the *selected* cohort (the 13,000 were the
        // chronically ill patients, whose trajectories are rich), so we
        // select the chronic cohort before running the study.
        let c = generate_collection(SynthConfig::with_patients(12_000), 7);
        let q = pastas_query::QueryBuilder::new().has_code("T90|K74|K77|K86|R95").unwrap().build();
        let c = c.extract(|h| q.matches(h));
        assert!(c.len() > 1_000, "selected cohort size {}", c.len());
        let o = simulate_study(&c, &RecognitionModel::default(), 99);
        assert!((o.recognized - 0.92).abs() < 0.03, "recognized {:.3}", o.recognized);
        assert!((o.not_remembered - 0.07).abs() < 0.03, "not remembered {:.3}", o.not_remembered);
        assert!((o.all_wrong - 0.01).abs() < 0.015, "all wrong {:.3}", o.all_wrong);
        let total = o.recognized + o.not_remembered + o.all_wrong;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linkage_failure_drives_everything_wrong() {
        let c = generate_collection(SynthConfig::with_patients(1_500), 11);
        let broken = RecognitionModel { record_swap_prob: 0.30, ..RecognitionModel::default() };
        let o = simulate_study(&c, &broken, 5);
        assert!(o.all_wrong > 0.25, "all wrong {:.3}", o.all_wrong);
    }

    #[test]
    fn source_dropout_erodes_recognition() {
        let c = generate_collection(SynthConfig::with_patients(1_500), 13);
        let base = simulate_study(&c, &RecognitionModel::default(), 5);
        let lossy = RecognitionModel { source_dropout: 0.5, ..RecognitionModel::default() };
        let o = simulate_study(&c, &lossy, 5);
        assert!(
            o.recognized < base.recognized - 0.1,
            "{:.3} vs {:.3}",
            o.recognized,
            base.recognized
        );
    }

    #[test]
    fn sparse_histories_are_forgotten_more() {
        use pastas_model::{History, Patient, PatientId, Sex};
        use pastas_time::Date;
        let sparse = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        let model = RecognitionModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let forgotten = (0..5_000)
            .filter(|_| simulate_response(&sparse, &model, &mut rng) == Response::DidNotRemember)
            .count() as f64
            / 5_000.0;
        // Empty trajectory: forget probability ≈ floor + scale ≈ 46%.
        assert!((0.38..0.55).contains(&forgotten), "forgotten {:.3}", forgotten);
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let c = generate_collection(SynthConfig::with_patients(500), 17);
        let a = simulate_study(&c, &RecognitionModel::default(), 1);
        let b = simulate_study(&c, &RecognitionModel::default(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_cohort() {
        let o = simulate_study(&HistoryCollection::new(), &RecognitionModel::default(), 1);
        assert_eq!(o.patients, 0);
        assert_eq!(o.recognized, 0.0);
    }
}
