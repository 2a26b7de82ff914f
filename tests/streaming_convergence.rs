//! End-to-end streaming convergence: a live server fed the four source
//! registries as chunked `POST /ingest` increments — while a reader
//! hammers `/select` — must, after a quiesce + `POST /compact`, answer
//! every cohort query with exactly the counts of a from-scratch batch
//! build over the same raw text.
//!
//! The assertions are order-independent equalities, so the test is
//! deterministic under `PASTAS_THREADS=1` and correct under any thread
//! interleaving: reads never block (every in-flight `/select` answers
//! 200 from some published snapshot), and the final counts do not depend
//! on how the increments interleaved with the background apply passes.

use pastas_core::prelude::*;
use pastas_serve::{client, serve, ServerConfig};
use pastas_synth::emit::{emit, MessConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Split one source text into `chunk_rows`-row increments, each carrying
/// the header line so every chunk is a well-formed mini-file.
fn chunks(text: &str, chunk_rows: usize) -> Vec<String> {
    let mut lines = text.lines();
    let Some(header) = lines.next() else { return Vec::new() };
    let rows: Vec<&str> = lines.collect();
    rows.chunks(chunk_rows)
        .map(|rows| {
            let mut out = String::with_capacity(header.len() + rows.len() * 40);
            out.push_str(header);
            out.push('\n');
            for row in rows {
                out.push_str(row);
                out.push('\n');
            }
            out
        })
        .collect()
}

/// POST one increment, retrying on 429 backpressure after the advertised
/// `Retry-After` (capped low: this is a loopback test).
fn post_with_backoff(addr: std::net::SocketAddr, path: &str, body: &str) {
    let timeout = Duration::from_secs(30);
    for _attempt in 0..200 {
        let resp = client::post(addr, path, body.as_bytes(), timeout).expect("post");
        match resp.status {
            202 => return,
            429 => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected ingest status {other}: {}", resp.body_str()),
        }
    }
    panic!("ingest queue never drained");
}

fn server_count(addr: std::net::SocketAddr, query: &str) -> u64 {
    let resp = client::post(
        addr,
        "/select?count_only=1",
        query.as_bytes(),
        Duration::from_secs(30),
    )
    .expect("select");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str().into_owned();
    pastas_ingest::json::Json::parse(&body)
        .ok()
        .and_then(|doc| doc.get("count").and_then(|c| c.as_f64()))
        .map(|v| v as u64)
        .expect("count field")
}

#[test]
fn concurrent_ingest_converges_to_the_batch_build() {
    let population = generate_population(SynthConfig::with_patients(120), 23);
    let raw = emit(&population, MessConfig::default());

    // The oracle: one batch aggregation of the same raw text.
    let batch = Workbench::from_raw_sources(pastas_ingest::SourceTexts {
        persons: &raw.persons,
        claims: &raw.claims,
        hospital: &raw.hospital,
        municipal: &raw.municipal,
        prescriptions: &raw.prescriptions,
    });

    // The system under test starts EMPTY and learns everything from the
    // stream. A tight queue: backpressure (429) actually happens during
    // the run.
    let config = ServerConfig {
        workers: 4,
        ingest_queue_capacity: 4,
        ..ServerConfig::default()
    };
    let handle = serve(Workbench::from_collection(HistoryCollection::new()), config)
        .expect("bind");
    let addr = handle.addr();

    // A reader hammering /select the whole time: reads must never block
    // on ingest — every request answers 200 promptly from
    // whichever snapshot is current.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let _ = server_count(addr, "has(T90)");
                served += 1;
            }
            served
        })
    };

    // Persons first (the linkage anchor), then the four event sources as
    // interleaved small increments.
    for chunk in chunks(&raw.persons, 25) {
        post_with_backoff(addr, "/ingest?format=persons", &chunk);
    }
    let streams = [
        ("claims", chunks(&raw.claims, 40)),
        ("hospital", chunks(&raw.hospital, 40)),
        ("municipal", chunks(&raw.municipal, 40)),
        ("prescriptions", chunks(&raw.prescriptions, 40)),
    ];
    let mut pending: Vec<(String, std::collections::VecDeque<String>)> = streams
        .into_iter()
        .map(|(format, chunks)| (format!("/ingest?format={format}"), chunks.into()))
        .collect();
    // Round-robin across sources so increments of different formats
    // interleave at the server.
    while pending.iter().any(|(_, q)| !q.is_empty()) {
        for (path, queue) in &mut pending {
            if let Some(chunk) = queue.pop_front() {
                post_with_backoff(addr, path, &chunk);
            }
        }
    }

    // Quiesce: no more writers; one synchronous /compact applies every
    // 202'd batch.
    let resp = client::post(addr, "/compact", b"", Duration::from_secs(60)).expect("compact");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(resp.body_str().contains("\"side_rows\":0"), "{}", resp.body_str());

    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader thread");
    assert!(reads > 0, "the reader actually exercised /select during ingest");

    // Convergence: every cohort count equals the batch oracle's.
    let queries = [
        "has(T90)",
        "lacks(T90)",
        "has(K.*) and lacks(T90)",
        "has(T90) and has(A.*)",
    ];
    let reference = batch.collection().stats().last.map(|dt| dt.date());
    for query in queries {
        let oracle = {
            let parsed = pastas_query::parse_query(
                query,
                reference.unwrap_or(Date::new(2013, 1, 1).unwrap()),
            )
            .expect("query parses");
            batch.select_positions(&parsed).len() as u64
        };
        assert_eq!(
            server_count(addr, query),
            oracle,
            "streamed counts diverge from the batch build for {query:?}"
        );
    }

    // The gauges agree: nothing queued, nothing pending.
    let metrics = client::get(addr, "/metrics", Duration::from_secs(30)).expect("metrics");
    let doc = pastas_ingest::json::Json::parse(&metrics.body_str()).expect("metrics json");
    let gauge = |name: &str| doc.get(name).and_then(|g| g.as_f64()).unwrap_or(-1.0);
    assert_eq!(gauge("side_index_rows"), 0.0);
    assert_eq!(gauge("ingest_queue_depth"), 0.0);
    assert_eq!(gauge("ingest_pending_entries"), 0.0);
    assert_eq!(gauge("patients"), batch.collection().len() as f64);
    assert_eq!(gauge("worker_panics"), 0.0);

    handle.shutdown();
}

/// The batch build is the delta parser run over whole files: its quality
/// report is the five `parse_delta` batches absorbed plus what the merge
/// dropped and loaded, and its collection is the one an empty workbench
/// reaches by ingesting those batches — at every thread count.
#[test]
fn batch_aggregate_is_the_absorbed_delta_stream() {
    use pastas_ingest::{aggregate, parse_delta, DeltaFormat, IdentityRegistry, QualityReport};
    let population = generate_population(SynthConfig::with_patients(150), 29);
    let raw = emit(
        &population,
        MessConfig { duplicate_prob: 0.1, invalid_date_prob: 0.02, note_prob: 0.3 },
    );
    let texts = [&raw.persons, &raw.claims, &raw.hospital, &raw.municipal, &raw.prescriptions];

    let mut registry = IdentityRegistry::new();
    let batches: Vec<_> = DeltaFormat::ALL
        .iter()
        .zip(texts)
        .map(|(&format, text)| parse_delta(format, text, &mut registry))
        .collect();
    let mut streamed = Workbench::from_collection(HistoryCollection::new());
    let stats = streamed.apply_ingest(&batches);
    let mut expected = QualityReport::default();
    for batch in &batches {
        expected.absorb(batch);
    }
    expected.duplicates_dropped = stats.duplicates_dropped;
    expected.dropped_pre_birth = stats.dropped_pre_birth;
    expected.entries_loaded = stats.entries_applied;
    assert!(expected.duplicates_dropped > 0 && expected.dropped_pre_birth > 0, "{expected:?}");
    assert!(expected.measurements_extracted > 0, "{expected:?}");

    for threads in [1, 2, 8] {
        let (collection, report) = pastas_par::with_threads(threads, || {
            aggregate(pastas_ingest::SourceTexts {
                persons: &raw.persons,
                claims: &raw.claims,
                hospital: &raw.hospital,
                municipal: &raw.municipal,
                prescriptions: &raw.prescriptions,
            })
        });
        assert_eq!(report, expected, "threads {threads}");
        assert_eq!(collection.len(), streamed.collection().len(), "threads {threads}");
        for history in collection.iter() {
            let twin = streamed.collection().get(history.id()).expect("streamed patient");
            assert_eq!(history, twin, "threads {threads}, patient {:?}", history.id());
        }
    }
}
