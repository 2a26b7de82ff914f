//! Extraction — the third of Shneiderman's neglected tasks (§II.C.3).
//!
//! Cohorts leave the workbench as flat files for downstream statistics
//! ("data to be statistically evaluated"): a CSV of entries and a JSON
//! document of histories. Both writers are hand-rolled (no serde) and
//! escape correctly; the JSON grammar is the obvious one so R/Python load
//! it directly.

use crate::error::CoreError;
use pastas_ingest::json::write_string;
use pastas_model::{Entry, EntryView, HistoryCollection, Payload, PayloadRef, Sex};
use std::fmt::Write as _;

/// Export every entry of the collection as CSV:
/// `patient;birth_date;sex;start;end;kind;code_or_label;value;source`.
pub fn to_csv(collection: &HistoryCollection) -> String {
    let mut out = String::new();
    out.push_str("patient;birth_date;sex;start;end;kind;code;value;source\n");
    for h in collection {
        let p = h.patient();
        let sex = match p.sex {
            Sex::Female => "F",
            Sex::Male => "M",
        };
        for e in h.entries() {
            let (kind, code, value) = payload_fields(e);
            writeln!(
                out,
                "{};{};{};{};{};{};{};{};{}",
                p.id,
                p.birth_date,
                sex,
                e.start(),
                e.end(),
                kind,
                csv_field(&code),
                value,
                e.source()
            )
            .expect("write to String");
        }
    }
    out
}

fn payload_fields<E: EntryView>(e: E) -> (&'static str, String, String) {
    match e.payload_ref() {
        PayloadRef::Diagnosis(c) => ("diagnosis", c.to_string(), String::new()),
        PayloadRef::Medication(c) => ("medication", c.to_string(), String::new()),
        PayloadRef::Measurement { kind, value } => {
            ("measurement", kind.label().to_owned(), format!("{value:.2}"))
        }
        PayloadRef::Episode(k) => ("episode", k.label().to_owned(), String::new()),
        PayloadRef::Note(t) => ("note", t.to_owned(), String::new()),
    }
}

fn csv_field(s: &str) -> String {
    // A bare carriage return splits a record in most CSV readers just
    // like a newline does, so it forces quoting too (RFC 4180 §2.6).
    if s.contains(';') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Export the collection as a JSON document:
/// `{"patients": [{"id": …, "entries": [...]}, …]}`.
pub fn to_json(collection: &HistoryCollection) -> String {
    let mut out = String::from("{\"patients\":[");
    for (i, h) in collection.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p = h.patient();
        let sex = match p.sex {
            Sex::Female => "F",
            Sex::Male => "M",
        };
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"birth_date\":\"{}\",\"sex\":\"{sex}\",\"entries\":[",
            p.id, p.birth_date
        );
        for (j, e) in h.entries().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (kind, code, value) = payload_fields(e);
            let _ = write!(
                out,
                "{{\"start\":\"{}\",\"end\":\"{}\",\"kind\":\"{kind}\",\"code\":",
                e.start(),
                e.end()
            );
            write_string(&mut out, &code);
            let _ = write!(out, ",\"source\":\"{}\"", e.source());
            if !value.is_empty() {
                let _ = write!(out, ",\"value\":{value}");
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Load a collection previously saved with [`to_json`].
///
/// Entries with equal start and end come back as point events, others as
/// intervals (which matches how [`to_json`] wrote them: only intervals
/// have distinct extents). Unknown kinds or malformed rows are reported
/// as [`CoreError::Document`].
pub fn from_json(text: &str) -> Result<HistoryCollection, CoreError> {
    use pastas_codes::{Code, CodeSystem};
    use pastas_ingest::json::Json;
    use pastas_model::{EpisodeKind, History, MeasurementKind, Patient, PatientId, SourceKind};
    use pastas_time::{Date, DateTime};

    let doc = Json::parse(text).map_err(CoreError::document)?;
    let patients = doc
        .get("patients")
        .and_then(Json::as_array)
        .ok_or_else(|| CoreError::document("missing patients array"))?;
    let mut histories = Vec::with_capacity(patients.len());
    for p in patients {
        let id_text =
            p.get("id").and_then(Json::as_str).ok_or_else(|| CoreError::document("missing id"))?;
        let id: u64 = id_text
            .trim_start_matches('P')
            .parse()
            .map_err(|_| CoreError::document(format!("bad id {id_text:?}")))?;
        let birth = p
            .get("birth_date")
            .and_then(Json::as_str)
            .ok_or_else(|| CoreError::document("missing birth_date"))?;
        let birth_date = Date::parse_iso(birth).map_err(CoreError::document)?;
        let sex = match p.get("sex").and_then(Json::as_str) {
            Some("F") => Sex::Female,
            Some("M") => Sex::Male,
            other => return Err(CoreError::document(format!("bad sex {other:?}"))),
        };
        let mut history = History::new(Patient { id: PatientId(id), birth_date, sex });
        for e in p.get("entries").and_then(Json::as_array).unwrap_or(&[]) {
            let start = DateTime::parse_iso(
                e.get("start")
                    .and_then(Json::as_str)
                    .ok_or_else(|| CoreError::document("missing start"))?,
            )
            .map_err(CoreError::document)?;
            let end = DateTime::parse_iso(
                e.get("end")
                    .and_then(Json::as_str)
                    .ok_or_else(|| CoreError::document("missing end"))?,
            )
            .map_err(CoreError::document)?;
            let code = e
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| CoreError::document("missing code"))?;
            let source = match e.get("source").and_then(Json::as_str) {
                Some("hospital") => SourceKind::Hospital,
                Some("primary-care") => SourceKind::PrimaryCare,
                Some("specialist") => SourceKind::Specialist,
                Some("municipal") => SourceKind::Municipal,
                Some("prescription") => SourceKind::Prescription,
                other => return Err(CoreError::document(format!("bad source {other:?}"))),
            };
            let parse_code = |text: &str| -> Result<Code, CoreError> {
                let (system, value) = text
                    .split_once(':')
                    .ok_or_else(|| CoreError::document(format!("bad code {text:?}")))?;
                let system = match system {
                    "ICPC2" => CodeSystem::Icpc2,
                    "ICD10" => CodeSystem::Icd10,
                    "ATC" => CodeSystem::Atc,
                    _ => return Err(CoreError::document(format!("bad code system {system:?}"))),
                };
                Ok(Code::new(system, value))
            };
            let payload = match e.get("kind").and_then(Json::as_str) {
                Some("diagnosis") => Payload::Diagnosis(parse_code(code)?),
                Some("medication") => Payload::Medication(parse_code(code)?),
                Some("measurement") => {
                    let kind = match code {
                        "systolic BP" => MeasurementKind::SystolicBp,
                        "diastolic BP" => MeasurementKind::DiastolicBp,
                        "HbA1c" => MeasurementKind::Hba1c,
                        "weight" => MeasurementKind::Weight,
                        "peak flow" => MeasurementKind::PeakFlow,
                        "cholesterol" => MeasurementKind::Cholesterol,
                        other => {
                            return Err(CoreError::document(format!(
                                "bad measurement kind {other:?}"
                            )))
                        }
                    };
                    let value = e
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| CoreError::document("missing value"))?;
                    Payload::Measurement { kind, value }
                }
                Some("episode") => {
                    let kind = match code {
                        "inpatient stay" => EpisodeKind::Inpatient,
                        "outpatient series" => EpisodeKind::Outpatient,
                        "day treatment" => EpisodeKind::DayTreatment,
                        "home care" => EpisodeKind::HomeCare,
                        "nursing home" => EpisodeKind::NursingHome,
                        "rehabilitation" => EpisodeKind::Rehabilitation,
                        "medication exposure" => EpisodeKind::MedicationExposure,
                        other => {
                            return Err(CoreError::document(format!("bad episode kind {other:?}")))
                        }
                    };
                    Payload::Episode(kind)
                }
                Some("note") => Payload::Note(code.to_owned()),
                other => return Err(CoreError::document(format!("bad entry kind {other:?}"))),
            };
            let entry = if start == end {
                Entry::event(start, payload, source)
            } else {
                Entry::interval(start, end, payload, source)
            };
            history.insert(entry);
        }
        histories.push(history);
    }
    Ok(HistoryCollection::from_histories(histories))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{EpisodeKind, History, MeasurementKind, Patient, PatientId, SourceKind};
    use pastas_time::Date;

    fn collection() -> HistoryCollection {
        let mut h = History::new(Patient {
            id: PatientId(9),
            birth_date: Date::new(1950, 2, 3).unwrap(),
            sex: Sex::Female,
        });
        let t = Date::new(2013, 5, 1).unwrap().at_midnight();
        h.insert(Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare));
        h.insert(Entry::event(
            t,
            Payload::Measurement { kind: MeasurementKind::SystolicBp, value: 151.25 },
            SourceKind::PrimaryCare,
        ));
        h.insert(Entry::interval(
            t,
            t + pastas_time::Duration::days(4),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        ));
        h.insert(Entry::event(
            t,
            Payload::Note("kontroll; BT 150/90".into()),
            SourceKind::PrimaryCare,
        ));
        HistoryCollection::from_histories([h])
    }

    #[test]
    fn csv_has_header_and_one_row_per_entry() {
        let csv = to_csv(&collection());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("patient;birth_date;sex;start"));
        assert!(lines[1].contains("ICPC2:T90"));
        assert!(lines[2].contains("151.25"));
        // The interval sorts after the point entries sharing its start.
        assert!(lines[4].contains("inpatient stay"), "{}", lines[4]);
    }

    #[test]
    fn csv_quotes_fields_containing_the_delimiter() {
        let csv = to_csv(&collection());
        assert!(
            csv.contains("\"kontroll; BT 150/90\""),
            "note with semicolon must be quoted: {csv}"
        );
        // Quoted row still has the right field count when parsed naively
        // by our own reader.
        let noisy_row = csv.lines().find(|l| l.contains("kontroll")).unwrap();
        let fields = pastas_ingest::csv::split_line(noisy_row, ';');
        assert_eq!(fields.len(), 9);
        assert_eq!(fields[6], "kontroll; BT 150/90");
    }

    #[test]
    fn csv_quotes_fields_containing_bare_carriage_returns() {
        // A lone \r splits records in most readers just like \n; both
        // must force quoting so the field stays one field.
        assert_eq!(csv_field("a\rb"), "\"a\rb\"");
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_counts() {
        let json = to_json(&collection());
        assert!(json.starts_with("{\"patients\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"start\":").count(), 4);
        assert_eq!(json.matches("\"id\":").count(), 1);
        // Balanced braces/brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Numeric measurement values are not quoted.
        assert!(json.contains("\"value\":151.25"));
    }

    #[test]
    fn json_escapes_strings() {
        let escaped = |s: &str| {
            let mut out = String::new();
            write_string(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_collection_exports() {
        let empty = HistoryCollection::new();
        assert_eq!(to_csv(&empty).lines().count(), 1, "header only");
        assert_eq!(to_json(&empty), "{\"patients\":[]}");
        assert_eq!(from_json("{\"patients\":[]}").unwrap().len(), 0);
    }

    #[test]
    fn json_round_trip_preserves_the_collection() {
        use pastas_synth::{generate_collection, SynthConfig};
        let original = generate_collection(SynthConfig::with_patients(60), 77);
        let json = to_json(&original);
        let loaded = from_json(&json).expect("load");
        assert_eq!(loaded.len(), original.len());
        for h in &original {
            let back = loaded.get(h.id()).expect("patient survives");
            assert_eq!(back.patient(), h.patient());
            assert_eq!(back.len(), h.len(), "{} entry count", h.id());
            for (a, b) in h.entries().iter().zip(back.entries()) {
                assert_eq!(a.start(), b.start());
                assert_eq!(a.end(), b.end());
                assert_eq!(a.source(), b.source());
                match (a.payload(), b.payload()) {
                    (
                        PayloadRef::Measurement { kind: ka, value: va },
                        PayloadRef::Measurement { kind: kb, value: vb },
                    ) => {
                        assert_eq!(ka, kb);
                        // Values round-trip through {value:.2}.
                        assert!((va - vb).abs() < 0.005, "{va} vs {vb}");
                    }
                    (pa, pb) => assert_eq!(pa, pb),
                }
            }
        }
    }

    /// A multi-megabyte export loads back to the same document: the
    /// parser copies string runs, so the load is linear in the text.
    #[test]
    fn a_multi_megabyte_export_round_trips() {
        use pastas_synth::{generate_collection, SynthConfig};
        let json = to_json(&generate_collection(SynthConfig::with_patients(800), 78));
        assert!(json.len() > 2 << 20, "{} bytes", json.len());
        assert_eq!(to_json(&from_json(&json).expect("load")), json);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err(), "missing patients");
        assert!(from_json("{\"patients\":[{\"id\":\"P1\"}]}").is_err(), "missing fields");
        let bad_kind = "{\"patients\":[{\"id\":\"P1\",\"birth_date\":\"1950-01-01\",\"sex\":\"F\",\
            \"entries\":[{\"start\":\"2013-01-01T00:00:00\",\"end\":\"2013-01-01T00:00:00\",\
            \"kind\":\"surgery\",\"code\":\"X\",\"source\":\"hospital\"}]}]}";
        assert!(from_json(bad_kind).is_err());
    }
}
