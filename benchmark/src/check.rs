//! Correctness checking. Two layers:
//!
//! * before timing, every query template runs over HTTP against a
//!   2,000-patient server and is diffed against
//!   [`pastas_query::index::select_scan`], the repo's reference scan;
//! * at full scale, where the scan costs seconds per query, every response
//!   is checked for invariants instead (`count` equals the ids length, the
//!   profile total equals the handle count, `has(X) + lacks(X)` equals
//!   the patient count, `version` never goes back).
//!
//! A violation is a failed operation: it counts in `failed`, next to
//! operations that errored or were shed.

use crate::client::Client;
use crate::workload::{Generator, Kind, DATA_SEED};
use pastas_core::Workbench;
use pastas_ingest::json::Json;
use pastas_query::index::select_scan;
use pastas_query::parse_query;
use pastas_serve::{serve, ServerConfig};
use pastas_synth::{generate_collection, SynthConfig};
use std::time::Duration;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, returned an unexpected status
    /// or failed a correctness check.
    pub failed: u64,
    /// The first failure reasons, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; an `Err` is a failure.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(reason);
            }
        }
    }

    /// Fold another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The fields of a `/select` response the checks need.
#[derive(Debug, PartialEq, Eq)]
pub struct SelectReply {
    /// Snapshot version the answer was computed at.
    pub version: u64,
    /// `count` as reported.
    pub count: u64,
    /// The ids, when the request was not `count_only`.
    pub ids: Option<Vec<String>>,
}

/// An unsigned integer field of a flat JSON object, by text scan: select
/// responses at 1M carry megabytes of ids and are not worth a full parse.
fn scan_u64(body: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\":");
    let rest = body
        .split_once(&tag)
        .ok_or_else(|| format!("no {key} in response"))?
        .1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().map_err(|_| format!("{key} is not a number"))
}

/// Parse a `/select` body and check that `count` equals the ids length.
pub fn parse_select(body: &str) -> Result<SelectReply, String> {
    let version = scan_u64(body, "version")?;
    let count = scan_u64(body, "count")?;
    let ids = match body.split_once("\"ids\":[") {
        None => None,
        Some((_, rest)) => {
            let list = rest.split_once(']').ok_or("unterminated ids array")?.0;
            let ids: Vec<String> = if list.is_empty() {
                Vec::new()
            } else {
                list.split(',')
                    .map(|id| id.trim_matches('"').to_owned())
                    .collect()
            };
            if ids.len() as u64 != count {
                return Err(format!("count {count} but {} ids", ids.len()));
            }
            Some(ids)
        }
    };
    Ok(SelectReply {
        version,
        count,
        ids,
    })
}

/// The handle id of a `POST /cohort` body (`{"id":"c7",...}`).
pub fn cohort_id(body: &str) -> Option<String> {
    let rest = body.split_once("\"id\":\"")?.1;
    Some(rest.split_once('"')?.0.to_owned())
}

/// An unsigned integer at `path` inside a parsed JSON document.
pub fn json_u64(doc: &Json, path: &[&str]) -> Result<u64, String> {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("no {} in response", path.join(".")))?;
    }
    node.as_f64()
        .map(|v| v as u64)
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

/// Checks that response versions never go back.
#[derive(Debug, Default)]
pub struct VersionWatch {
    last: u64,
}

impl VersionWatch {
    /// Observe the version of one more response.
    pub fn observe(&mut self, version: u64) -> Result<(), String> {
        if version < self.last {
            return Err(format!("version went back from {} to {version}", self.last));
        }
        self.last = version;
        Ok(())
    }
}

/// Diff the ids a server returned against the reference scan's.
pub fn diff_against_scan(query: &str, expected: &[String], got: &[String]) -> Result<(), String> {
    let mut expected: Vec<&str> = expected.iter().map(String::as_str).collect();
    let mut got: Vec<&str> = got.iter().map(String::as_str).collect();
    expected.sort_unstable();
    got.sort_unstable();
    if expected == got {
        return Ok(());
    }
    let missing = expected
        .iter()
        .filter(|id| got.binary_search(id).is_err())
        .count();
    let extra = got
        .iter()
        .filter(|id| expected.binary_search(id).is_err())
        .count();
    Err(format!(
        "{query}: server returned {} ids, scan {} ({missing} missing, {extra} extra)",
        got.len(),
        expected.len()
    ))
}

/// Patients of the differential server: small enough for the scan.
const PRECHECK_PATIENTS: usize = 2_000;

/// Run every query template of this seed over HTTP against a small server
/// and diff each answer against `select_scan`.
pub fn differential_precheck(seed: u64, tally: &mut Tally) {
    let collection = generate_collection(SynthConfig::with_patients(PRECHECK_PATIENTS), DATA_SEED);
    let handle = match serve(
        Workbench::from_collection(collection),
        ServerConfig::default(),
    ) {
        Ok(handle) => handle,
        Err(e) => return tally.record(Err(format!("pre-check server did not bind: {e}"))),
    };
    let snapshot = handle.ctx().state.snapshot();
    let collection = snapshot.workbench.collection();
    let mut client = Client::new(handle.addr(), Duration::from_secs(30));
    let mut generator = Generator::new(seed);
    let mut queries: Vec<String> = Vec::new();
    for kind in Kind::ALL {
        queries.push(generator.cohort_query(kind));
        queries.push(generator.cohort_query(kind));
    }
    queries.extend(generator.temporal_round().map(|r| r.query));
    for text in queries {
        let outcome = (|| {
            let response = client
                .post("/select", text.as_bytes())
                .map_err(|e| e.to_string())?;
            if response.status != 200 {
                return Err(format!("{text}: status {}", response.status));
            }
            let reply = parse_select(&response.body_str())?;
            let query = parse_query(&text, snapshot.reference_date).map_err(|e| e.to_string())?;
            let histories = collection.histories();
            let expected: Vec<String> = select_scan(collection, &query)
                .into_iter()
                .map(|i| histories[i as usize].id().to_string())
                .collect();
            diff_against_scan(&text, &expected, &reply.ids.unwrap_or_default())
        })();
        tally.record(outcome);
    }
    drop(client);
    drop(snapshot);
    handle.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_bodies_parse_and_count_must_match_ids() {
        let ok = parse_select(r#"{"version":3,"count":2,"ids":["P0000001","P0000009"]}"#);
        assert_eq!(
            ok,
            Ok(SelectReply {
                version: 3,
                count: 2,
                ids: Some(vec!["P0000001".to_owned(), "P0000009".to_owned()])
            })
        );
        let counted = parse_select(r#"{"version":1,"count":77}"#).expect("count-only parses");
        assert_eq!((counted.count, counted.ids), (77, None));
        assert_eq!(
            parse_select(r#"{"version":1,"count":0,"ids":[]}"#).map(|r| r.count),
            Ok(0)
        );
        // A planted wrong count is caught.
        let bad = parse_select(r#"{"version":1,"count":3,"ids":["P0000001","P0000009"]}"#);
        assert!(bad.is_err_and(|e| e.contains("count 3 but 2 ids")));
        assert!(parse_select(r#"{"error":"nope"}"#).is_err());
    }

    #[test]
    fn a_planted_wrong_expectation_is_caught() {
        let ids = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<String>>();
        let served = ids(&["P0000002", "P0000001", "P0000003"]);
        assert!(
            diff_against_scan("q", &ids(&["P0000001", "P0000002", "P0000003"]), &served).is_ok()
        );
        let planted = diff_against_scan("q", &ids(&["P0000001", "P0000002"]), &served);
        assert!(planted.is_err_and(|e| e.contains("0 missing, 1 extra")));
        let planted = diff_against_scan("q", &ids(&["P0000001", "P0000004"]), &served[..1]);
        assert!(planted.is_err_and(|e| e.contains("2 missing, 1 extra")));
        // And a failed check counts towards `failed`.
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(diff_against_scan("q", &ids(&["P0000009"]), &served));
        assert_eq!(
            (tally.attempted, tally.failed, tally.notes.len()),
            (2, 1, 1)
        );
    }

    #[test]
    fn versions_must_be_monotone() {
        let mut watch = VersionWatch::default();
        assert!(watch.observe(1).is_ok());
        assert!(watch.observe(1).is_ok());
        assert!(watch.observe(4).is_ok());
        assert!(watch.observe(3).is_err());
    }

    #[test]
    fn cohort_ids_are_read_off_the_body() {
        let body = r#"{"id":"c12","version":3,"count":40}"#;
        assert_eq!(cohort_id(body).as_deref(), Some("c12"));
        assert_eq!(cohort_id(r#"{"error":"nope"}"#), None);
    }

    #[test]
    fn json_paths_resolve() {
        let doc = Json::parse(r#"{"id":"c1","profile":{"cohort_size":41}}"#).expect("json");
        assert_eq!(json_u64(&doc, &["profile", "cohort_size"]), Ok(41));
        assert!(json_u64(&doc, &["profile", "nope"]).is_err());
        assert!(json_u64(&doc, &["id"]).is_err());
    }

    #[test]
    fn the_differential_precheck_passes_at_head() {
        let mut tally = Tally::default();
        differential_precheck(7, &mut tally);
        assert_eq!(
            tally.attempted, 16,
            "12 set-algebra queries and one battery round"
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
    }
}
