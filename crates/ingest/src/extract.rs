//! Regex extraction from free text.
//!
//! §IV.A: "Regular expressions are also used for extraction of some of the
//! available free text data … However, this extraction is limited because
//! of differing conventions and many typing errors in the text." We extract
//! the patterns that round-trip losslessly: blood-pressure readings in the
//! Norwegian shorthand `BT 150/90` and explicit measurement phrases like
//! `systolic BP 142 mmHg`, using the workspace's own regex engine.

use pastas_model::MeasurementKind;
use pastas_regex::Regex;
use std::sync::OnceLock;

/// One extracted measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractedMeasurement {
    /// What was measured.
    pub kind: MeasurementKind,
    /// The numeric value.
    pub value: f64,
}

fn bp_regex() -> &'static Regex {
    static RE: OnceLock<Regex> = OnceLock::new();
    // "BT 150/90", "bt 150 / 90", "BP: 150/90"
    RE.get_or_init(|| {
        // compile-time literal pattern, covered by extraction unit tests
        Regex::with_options(r"B[TP]:? ?(\d{2,3}) ?/ ?(\d{2,3})", true).expect("static pattern")
    })
}

fn labelled_regex() -> &'static Regex {
    static RE: OnceLock<Regex> = OnceLock::new();
    // "systolic BP 142 mmHg", "HbA1c 7.4 %", "weight 83 kg", "peak flow 390"
    RE.get_or_init(|| {
        Regex::with_options(
            r"(systolic BP|diastolic BP|HbA1c|weight|peak flow|cholesterol) (\d+\.?\d*)",
            true,
        )
        // compile-time literal pattern, covered by extraction unit tests
        .expect("static pattern")
    })
}

/// Extract every recognizable measurement from a free-text note.
pub fn extract_measurements(note: &str) -> Vec<ExtractedMeasurement> {
    let mut out = Vec::new();
    for m in bp_regex().find_iter(note) {
        let (Some(sys), Some(dia)) = (m.group(1, note), m.group(2, note)) else {
            continue;
        };
        if let (Ok(sys), Ok(dia)) = (sys.parse::<f64>(), dia.parse::<f64>()) {
            // Reject obviously transposed/typo readings rather than
            // aggregating garbage.
            if sys > dia && (60.0..280.0).contains(&sys) && (30.0..160.0).contains(&dia) {
                out.push(ExtractedMeasurement { kind: MeasurementKind::SystolicBp, value: sys });
                out.push(ExtractedMeasurement { kind: MeasurementKind::DiastolicBp, value: dia });
            }
        }
    }
    for m in labelled_regex().find_iter(note) {
        let (Some(label), Some(value)) = (m.group(1, note), m.group(2, note)) else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else { continue };
        let kind = match label.to_ascii_lowercase().as_str() {
            "systolic bp" => MeasurementKind::SystolicBp,
            "diastolic bp" => MeasurementKind::DiastolicBp,
            "hba1c" => MeasurementKind::Hba1c,
            "weight" => MeasurementKind::Weight,
            "peak flow" => MeasurementKind::PeakFlow,
            "cholesterol" => MeasurementKind::Cholesterol,
            _ => continue,
        };
        out.push(ExtractedMeasurement { kind, value });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_norwegian_bp_shorthand() {
        let got = extract_measurements("kontroll, BT 150/90, ellers fint");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], ExtractedMeasurement { kind: MeasurementKind::SystolicBp, value: 150.0 });
        assert_eq!(got[1], ExtractedMeasurement { kind: MeasurementKind::DiastolicBp, value: 90.0 });
    }

    #[test]
    fn tolerates_convention_variants() {
        for note in ["bt 128/82", "BP: 128/82", "BT 128 / 82"] {
            let got = extract_measurements(note);
            assert_eq!(got.len(), 2, "{note:?}");
            assert_eq!(got[0].value, 128.0);
        }
    }

    #[test]
    fn rejects_implausible_readings() {
        assert!(extract_measurements("BT 90/150").is_empty(), "transposed");
        assert!(extract_measurements("BT 500/90").is_empty(), "typo systolic");
    }

    #[test]
    fn extracts_labelled_measurements() {
        let got = extract_measurements("HbA1c 7.4 at follow-up; weight 83");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], ExtractedMeasurement { kind: MeasurementKind::Hba1c, value: 7.4 });
        assert_eq!(got[1], ExtractedMeasurement { kind: MeasurementKind::Weight, value: 83.0 });
    }

    #[test]
    fn case_insensitive_labels() {
        let got = extract_measurements("PEAK FLOW 410");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, MeasurementKind::PeakFlow);
    }

    #[test]
    fn plain_text_yields_nothing() {
        assert!(extract_measurements("patient feeling better").is_empty());
        assert!(extract_measurements("").is_empty());
        // The paper's point: typo-ridden text resists extraction — and must
        // not produce junk values.
        assert!(extract_measurements("BTT 150//90 maybe").is_empty());
    }

    #[test]
    fn multiple_readings_in_one_note() {
        let got = extract_measurements("BT 150/90 before, BT 140/85 after");
        assert_eq!(got.len(), 4);
        assert_eq!(got[2].value, 140.0);
    }
}
