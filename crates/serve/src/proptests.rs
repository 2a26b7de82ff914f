//! Fuzz-style properties for the HTTP parser. The contract under test:
//! **any** byte stream, delivered in **any** fragmentation, produces
//! either well-formed [`Request`]s or a typed [`HttpError`] — never a
//! panic, never an unbounded read. Then a differential property of the
//! ingest queue's linkage: an overlay of registered persons over the
//! published row table links every row as a registry seeded with the
//! whole table does.

use crate::http::{HttpError, Limits, Request, RequestReader};
use pastas_ingest::DeltaFormat;
use proptest::prelude::*;
use std::io::{self, Read};

/// Delivers `data` in caller-chosen fragment sizes (then EOF) — models a
/// peer whose TCP segments split anywhere, including mid-header.
struct Fragmented {
    data: Vec<u8>,
    sizes: Vec<usize>,
    pos: usize,
    turn: usize,
}

impl Read for Fragmented {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() || out.is_empty() {
            return Ok(0);
        }
        let want = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = want.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drain a byte stream through the parser: requests until close or the
/// first error. Totality is the property — reaching the end *is* the test.
fn drain(bytes: Vec<u8>, sizes: Vec<usize>, limits: Limits) -> Vec<Result<Request, HttpError>> {
    let reader = Fragmented { data: bytes, sizes, pos: 0, turn: 0 };
    let mut reader = RequestReader::new(reader, limits);
    let mut out = Vec::new();
    loop {
        match reader.next_request() {
            Err(HttpError::ConnectionClosed) => break,
            result => {
                let stop = result.is_err();
                out.push(result);
                if stop {
                    break;
                }
            }
        }
    }
    out
}

/// Tight budgets so the generators actually reach them.
fn small_limits() -> Limits {
    Limits { max_head_bytes: 256, max_body_bytes: 128, max_headers: 8 }
}

/// Plausible-but-mutated request text: mostly valid pieces with junk mixed
/// in, which exercises far deeper parser states than uniform noise.
fn arb_requestish() -> impl Strategy<Value = Vec<u8>> {
    let method = prop_oneof![
        Just("GET".to_owned()),
        Just("POST".to_owned()),
        Just("get".to_owned()),
        Just("".to_owned()),
        "[A-Z%~]{1,6}".boxed(),
    ];
    let target = prop_oneof![
        Just("/select".to_owned()),
        Just("/cohort.svg?w=900&h=%zz".to_owned()),
        Just("no-slash".to_owned()),
        "[ -~]{0,20}".boxed().prop_map(|s| format!("/{s}")),
    ];
    let version = prop_oneof![
        Just("HTTP/1.1".to_owned()),
        Just("HTTP/1.0".to_owned()),
        Just("HTTP/2".to_owned()),
        Just("HTTP/1.1 junk".to_owned()),
        Just("".to_owned()),
    ];
    let headers = proptest::collection::vec(
        prop_oneof![
            Just("Host: x".to_owned()),
            Just("Connection: close".to_owned()),
            Just("Content-Length: 5".to_owned()),
            Just("Content-Length: nope".to_owned()),
            Just("Content-Length: 999999".to_owned()),
            Just("Transfer-Encoding: chunked".to_owned()),
            Just("no-colon-here".to_owned()),
            Just(": empty-name".to_owned()),
            "[ -~]{0,30}".boxed(),
        ],
        0..10,
    );
    let body = "[ -~]{0,40}".boxed();
    (method, target, version, headers, body).prop_map(|(m, t, v, hs, b)| {
        let mut text = format!("{m} {t} {v}\r\n");
        for h in hs {
            text.push_str(&h);
            text.push_str("\r\n");
        }
        text.push_str("\r\n");
        text.push_str(&b);
        text.into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniform byte soup never panics the parser, under any fragmentation.
    #[test]
    fn parser_is_total_over_byte_soup(
        bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..400),
        sizes in proptest::collection::vec(1usize..17, 1..5),
    ) {
        let results = drain(bytes, sizes, small_limits());
        // At most one error, and only as the final element.
        for (i, r) in results.iter().enumerate() {
            prop_assert!(r.is_ok() || i == results.len() - 1);
        }
    }

    /// Mutated near-valid requests never panic and classify as parse or
    /// typed error, under any fragmentation.
    #[test]
    fn parser_is_total_over_requestish_input(
        bytes in arb_requestish(),
        sizes in proptest::collection::vec(1usize..33, 1..5),
    ) {
        let _ = drain(bytes, sizes, Limits::default());
    }

    /// Fragmentation never changes the outcome: byte-at-a-time parses
    /// exactly like one contiguous buffer.
    #[test]
    fn fragmentation_is_invisible(bytes in arb_requestish()) {
        let whole = drain(bytes.clone(), vec![usize::MAX >> 1], Limits::default());
        let trickled = drain(bytes, vec![1], Limits::default());
        prop_assert_eq!(whole, trickled);
    }

    /// Every proper prefix of a valid request is `Truncated` (or parses a
    /// complete earlier request) — never a panic, never a bogus success.
    #[test]
    fn truncation_yields_typed_errors(cut in 0usize..64) {
        let full: &[u8] = b"POST /select HTTP/1.1\r\nContent-Length: 8\r\n\r\nhas(T90)";
        let cut = cut.min(full.len() - 1);
        let results = drain(full[..cut].to_vec(), vec![3], Limits::default());
        match results.last() {
            None => prop_assert!(cut == 0),
            Some(Err(e)) => prop_assert_eq!(e, &HttpError::Truncated),
            Some(Ok(_)) => prop_assert!(false, "prefix of length {} parsed", cut),
        }
    }

    /// Oversized declared bodies are rejected by type without buffering.
    #[test]
    fn declared_body_budget_is_enforced(extra in 1u64..1_000_000) {
        let limits = small_limits();
        let declared = limits.max_body_bytes as u64 + extra;
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let results = drain(head.into_bytes(), vec![7], limits);
        prop_assert_eq!(results.last(), Some(&Err(HttpError::BodyTooLarge)));
    }
}

/// One step of [`linkage_equals_a_seeded_registry`]: a format (0 persons,
/// 1–4 the event sources, 5 a drain), a pick, a row selector and a row
/// count.
type Step = (u8, usize, usize, usize);

/// The posted text of one step, its ids drawn from three boot patients,
/// the persons registered so far (applied or not), unknown ids and
/// malformed ones. A persons step registers new ids into `registered`
/// and re-registers known ones with other demographics.
fn step_text(
    format: DeltaFormat,
    (_, pick, select, rows): Step,
    boot: &[u64],
    registered: &mut Vec<u64>,
) -> String {
    let header = match format {
        DeltaFormat::Persons => "nin;birth_date;sex",
        DeltaFormat::Claims => "claim_id;patient;date;provider;icpc;note",
        DeltaFormat::Hospital => "episode_id,patient,admitted,discharged,icd10_main,care_level",
        DeltaFormat::Municipal => "patient|service|from|to",
        DeltaFormat::Prescriptions => "patient\tdispensed\tatc\tddd",
    };
    let mut text = format!("{header}\n");
    for r in 0..=rows {
        let (k, day) = (pick + r, 1 + (pick + 7 * r) % 27);
        // A few boot patients only, so that steps meet each other's ids.
        let boot_id = boot[k % 3];
        let known = registered.get(k % registered.len().max(1)).copied().unwrap_or(boot_id);
        if format == DeltaFormat::Persons {
            let id = match (select + r) % 4 {
                0 => {
                    registered.push(900_000 + registered.len() as u64);
                    registered[registered.len() - 1]
                }
                1 => boot_id,
                2 => known,
                _ => {
                    text.push_str("garbage;row\n");
                    continue;
                }
            };
            let sex = if k % 2 == 0 { "F" } else { "M" };
            // One birth in three falls after every event date: the
            // pre-birth rule then drops what a stale link would keep.
            let year = if k % 3 == 0 { 2035 } else { 1900 + k % 100 };
            text.push_str(&format!("NIN-{id:07};{year}-03-{day:02};{sex}\n"));
            continue;
        }
        let id = match (select + r) % 5 {
            0 | 1 => Some(boot_id),
            2 => Some(known),
            3 => Some(800_000 + k as u64),
            _ => None,
        };
        let raw = |scheme: fn(u64) -> String| {
            id.map_or_else(|| ["NIN-", "M12x", "PAT-7"][k % 3].to_owned(), scheme)
        };
        let line = match format {
            DeltaFormat::Claims => {
                format!("C{k};{};{day:02}.05.2031;GP;T90;", raw(|i| format!("NIN-{i:07}")))
            }
            DeltaFormat::Hospital => {
                format!(
                    "E{k},{},2031-06-{day:02},2031-06-28,E11,inpatient",
                    raw(|i| format!("{i:08}"))
                )
            }
            DeltaFormat::Municipal => {
                format!("{}|home_care|2031-07-{day:02}|2031-08-01", raw(|i| format!("M{i}")))
            }
            _ => format!("{}\t2031-09-{day:02}T12:00:00\tA10BA02\t30", raw(|i| i.to_string())),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Each row of a collection: its patient and entries, in row order.
fn table(
    c: &pastas_model::HistoryCollection,
) -> Vec<(pastas_model::Patient, Vec<pastas_model::Entry>)> {
    c.iter().map(|h| (*h.patient(), h.entries().to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ingest queue links against the persons ingest registered over
    /// the published row table. Its oracle is a registry seeded with every
    /// boot patient, the queue's former state, with batches applied the
    /// way the queue applies them. Over random persons batches (new ids,
    /// re-registrations with other demographics, malformed rows), event
    /// batches in the four formats (boot patients, registered persons
    /// applied or not, unknown and malformed ids) and drains in between,
    /// every receipt and every published collection equals the oracle's.
    #[test]
    fn linkage_equals_a_seeded_registry(
        steps in proptest::collection::vec((0u8..6, 0usize..1000, 0usize..20, 0usize..3), 1..24),
    ) {
        use crate::ingest::{IngestConfig, IngestQueue};
        use crate::state::ServeState;
        use pastas_core::Workbench;
        use pastas_ingest::{parse_delta, DeltaBatch, IdentityRegistry};
        use pastas_synth::{generate_collection, SynthConfig};
        use std::sync::Arc;

        let boot = Workbench::from_collection(generate_collection(SynthConfig::with_patients(40), 3));
        let ids: Vec<u64> = boot.collection().iter().map(|h| h.id().0).collect();
        let state = Arc::new(ServeState::new(boot.snapshot()));
        let config = IngestConfig { queue_capacity: 64, ..IngestConfig::default() };
        let queue = IngestQueue::new(Arc::clone(&state), config);
        let mut seeded = IdentityRegistry::new();
        for h in boot.collection().iter() {
            let p = h.patient();
            seeded.register(p.id.0, p.birth_date, p.sex);
        }
        let (mut oracle, mut pending): (Workbench, Vec<DeltaBatch>) = (boot, Vec::new());
        let mut registered = Vec::new();
        for step in steps.into_iter().chain([(5, 0, 0, 0)]) {
            let Some(&format) = DeltaFormat::ALL.get(usize::from(step.0)) else {
                queue.drain_and_apply();
                let mut next = oracle.snapshot();
                next.apply_ingest(&std::mem::take(&mut pending));
                oracle = next;
                prop_assert_eq!(table(state.snapshot().workbench.collection()), table(oracle.collection()));
                continue;
            };
            let text = step_text(format, step, &ids, &mut registered);
            let receipt = queue.try_push(format, &text).unwrap();
            let batch = parse_delta(format, &text, &mut seeded);
            prop_assert_eq!(
                (receipt.rows_read, receipt.parse_errors, receipt.unlinked_rows, receipt.entries),
                (batch.rows_read, batch.parse_errors, batch.unlinked_rows, batch.entries()),
                "{}", text
            );
            pending.push(batch);
        }
    }
}
