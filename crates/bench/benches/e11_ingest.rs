//! E11 — streaming ingest: non-blocking incremental publication.
//!
//! The streaming claim under test: against the paper-scale collection a
//! stream of `parse_delta` increments can be applied and published while
//! readers keep executing planned selects, with (a) planned-select
//! latency during ingest within 2x of the quiesced pre-ingest baseline,
//! (b) bounded per-batch apply lag, and (c) an index patch per publish
//! (`CodeIndex::with_delta`) that copies only the postings the batch
//! touches: its time and the posting bytes it copied are reported per
//! publish, beside the row-table bytes the publish copied (the row
//! chunks and id sub-maps its touched rows live in). Results go to stderr as report rows and to
//! `BENCH_ingest.json` at the repo root as a machine-readable artifact
//! (compare the planned-select columns against `BENCH_plan.json` at the
//! same scale).
//!
//! Not a criterion bench: the subject is a writer/reader race around an
//! atomically swapped snapshot, so the harness is a plain `main` with one
//! reader thread hammering selects while the main thread streams batches
//! the way `ServeState::ingest` does (clone-snapshot, mutate, publish).
//! After each publish the writer waits, off the clock like its other
//! measurements, until the reader has taken four more selects, so the
//! during-ingest latencies stay a sample of hundreds however quickly the
//! batches publish (`during_ingest_selects` in the JSON).

use pastas_bench::{base_scale, cohort, header, median_ms, percentile};
use pastas_core::Workbench;
use pastas_ingest::{parse_delta, DeltaBatch, DeltaFormat, IdentityRegistry};
use pastas_query::{parse_query, HistoryQuery};
use pastas_synth::emit::{emit, MessConfig};
use pastas_synth::{generate_population, SynthConfig};
use pastas_time::Date;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

const QUERIES: [&str; 3] = ["has(T90)", "lacks(T90)", "has(K.*) and lacks(T90)"];

/// How many rows each streamed increment carries.
const CHUNK_ROWS: usize = 200;

/// Selects the reader completes after each publish before the writer
/// publishes the next batch: the during-ingest sample is at least this
/// many times the batch count, however fast publishes get.
const SELECTS_PER_PUBLISH: u64 = 4;

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v
}

/// Split one source text into CHUNK_ROWS-row increments, each carrying
/// the header line so every chunk is a well-formed mini-file.
fn chunks(text: &str) -> Vec<String> {
    let mut lines = text.lines();
    let Some(header) = lines.next() else { return Vec::new() };
    let rows: Vec<&str> = lines.collect();
    rows.chunks(CHUNK_ROWS)
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

fn main() {
    header(
        "E11: streaming ingest",
        "appends publish incrementally; readers never block and plans stay interactive",
    );
    let patients = base_scale();
    // The stream extends a slice of the existing cohort with fresh events:
    // every publish patches the postings of already-indexed rows.
    let delta_patients = (patients / 500).clamp(200, 2_000);

    eprintln!("generating {patients} patients …");
    let t0 = Instant::now();
    let workbench = Workbench::from_collection(cohort(patients));
    eprintln!("loaded in {:.1?}", t0.elapsed());

    let reference = workbench
        .collection()
        .stats()
        .last
        .map(|dt| dt.date())
        .unwrap_or_else(|| Date::new(2013, 1, 1).expect("valid date"));
    let queries: Vec<HistoryQuery> = QUERIES
        .iter()
        .map(|q| parse_query(q, reference).expect("bench query parses"))
        .collect();

    // Quiesced baseline: planned-select latency before any ingest, the
    // number BENCH_plan.json records at the same scale. Every select runs
    // the plan (`CodeIndex::select`); `Workbench::select_positions` would
    // answer all but the first from its memo.
    let planned = |wb: &Workbench, q: &HistoryQuery| wb.index().select(wb.collection(), q);
    let baseline_ms = sorted(
        queries
            .iter()
            .map(|q| median_ms(|| drop(std::hint::black_box(planned(&workbench, q)))))
            .collect(),
    );
    let baseline_med = percentile(&baseline_ms, 0.5);
    eprintln!(
        "baseline planned selects: {:?} ms (median {baseline_med:.3})",
        baseline_ms.iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>()
    );

    // The delta stream: persons first (the linkage anchor), then the four
    // event registries as interleaved chunked increments.
    let population = generate_population(SynthConfig::with_patients(delta_patients), 4077);
    let raw = emit(&population, MessConfig::default());
    let mut registry = IdentityRegistry::new();
    let mut batches: Vec<DeltaBatch> = Vec::new();
    for chunk in chunks(&raw.persons) {
        batches.push(parse_delta(DeltaFormat::Persons, &chunk, &mut registry));
    }
    let mut streams: Vec<std::collections::VecDeque<(DeltaFormat, String)>> = vec![
        chunks(&raw.claims).into_iter().map(|c| (DeltaFormat::Claims, c)).collect(),
        chunks(&raw.hospital).into_iter().map(|c| (DeltaFormat::Hospital, c)).collect(),
        chunks(&raw.municipal).into_iter().map(|c| (DeltaFormat::Municipal, c)).collect(),
        chunks(&raw.prescriptions)
            .into_iter()
            .map(|c| (DeltaFormat::Prescriptions, c))
            .collect(),
    ];
    while streams.iter().any(|s| !s.is_empty()) {
        for stream in &mut streams {
            if let Some((format, chunk)) = stream.pop_front() {
                batches.push(parse_delta(format, &chunk, &mut registry));
            }
        }
    }
    let entries_total: usize = batches.iter().map(DeltaBatch::entries).sum();
    eprintln!(
        "streaming {} batches / {entries_total} entries over {delta_patients} patients …",
        batches.len()
    );

    // Publication point: readers clone the Arc under a read lock and run
    // the select lock-free, exactly as ServeState's snapshot swap works.
    let current: Arc<RwLock<Arc<Workbench>>> = Arc::new(RwLock::new(Arc::new(workbench)));
    let stop = Arc::new(AtomicBool::new(false));
    let taken = Arc::new(AtomicU64::new(0));
    let reader = {
        let current = Arc::clone(&current);
        let stop = Arc::clone(&stop);
        let taken = Arc::clone(&taken);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut latencies = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let q = &queries[i % queries.len()];
                i += 1;
                let t = Instant::now();
                let snap =
                    Arc::clone(&current.read().unwrap_or_else(|e| e.into_inner()));
                std::hint::black_box(planned(&snap, q).len());
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                taken.fetch_add(1, Ordering::Release);
            }
            latencies
        })
    };

    // The writer: apply each batch to a cloned snapshot and publish. After
    // each publish, off the clock, the index patch that apply made is
    // timed once more on its own, the posting and row-table bytes the
    // published snapshot does not share with its predecessor are counted,
    // and the writer waits for the reader to take SELECTS_PER_PUBLISH
    // more selects.
    let mut apply_ms: Vec<f64> = Vec::with_capacity(batches.len());
    let mut delta_ms: Vec<f64> = Vec::with_capacity(batches.len());
    let mut copied_bytes: Vec<f64> = Vec::with_capacity(batches.len());
    let mut row_bytes: Vec<f64> = Vec::with_capacity(batches.len());
    let mut measuring_s = 0.0;
    let t_ingest = Instant::now();
    for batch in &batches {
        let t = Instant::now();
        let prev = Arc::clone(&current.read().unwrap_or_else(|e| e.into_inner()));
        let mut wb = prev.snapshot();
        wb.apply_ingest(std::slice::from_ref(batch));
        let wb = Arc::new(wb);
        *current.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&wb);
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let selects_before = taken.load(Ordering::Acquire);
        let dirty: Vec<u32> = batch
            .deltas
            .iter()
            .filter_map(|d| wb.collection().position_of(d.patient.id))
            .map(|p| p as u32)
            .collect();
        let patch = Instant::now();
        drop(std::hint::black_box(prev.index().with_delta(wb.collection(), &dirty)));
        delta_ms.push(patch.elapsed().as_secs_f64() * 1e3);
        copied_bytes.push(wb.index().posting_bytes_copied_from(prev.index()) as f64);
        row_bytes.push(wb.collection().row_bytes_copied_from(prev.collection()) as f64);
        while taken.load(Ordering::Acquire) < selects_before + SELECTS_PER_PUBLISH {
            std::thread::yield_now();
        }
        measuring_s += t.elapsed().as_secs_f64();
    }
    let ingest_elapsed = t_ingest.elapsed().as_secs_f64() - measuring_s;
    stop.store(true, Ordering::Relaxed);
    let during_ms = sorted(reader.join().expect("reader thread"));

    // Planned-select latency on the final snapshot.
    let final_snap = Arc::clone(&current.read().unwrap_or_else(|e| e.into_inner()));
    let post_ms = sorted(
        queries
            .iter()
            .map(|q| median_ms(|| drop(std::hint::black_box(planned(&final_snap, q)))))
            .collect(),
    );

    let throughput = entries_total as f64 / ingest_elapsed.max(1e-9);
    let apply_sorted = sorted(apply_ms);
    let delta_sorted = sorted(delta_ms);
    let copied_sorted = sorted(copied_bytes);
    let rows_sorted = sorted(row_bytes);
    let (lag_p50, lag_p99) =
        (percentile(&apply_sorted, 0.50), percentile(&apply_sorted, 0.99));
    let (during_p50, during_p99) =
        (percentile(&during_ms, 0.50), percentile(&during_ms, 0.99));
    let post_med = percentile(&post_ms, 0.5);
    let delta_p50 = percentile(&delta_sorted, 0.50);
    let delta_max = delta_sorted.last().copied().unwrap_or(0.0);
    let copied_p50 = percentile(&copied_sorted, 0.50);
    let copied_max = copied_sorted.last().copied().unwrap_or(0.0);
    let rows_p50 = percentile(&rows_sorted, 0.50);
    let rows_max = rows_sorted.last().copied().unwrap_or(0.0);
    let reads = during_ms.len();
    let ratio = if baseline_med > 0.0 { during_p50 / baseline_med } else { 0.0 };
    let target_met = reads > 0 && during_p50 <= 2.0 * baseline_med.max(0.05);

    eprintln!(
        "{patients} patients + {entries_total} streamed entries: \
         {throughput:.0} entries/s  apply-lag p50 {lag_p50:.2} ms p99 {lag_p99:.2} ms  \
         {reads} concurrent selects p50 {during_p50:.3} ms p99 {during_p99:.3} ms \
         ({ratio:.2}x baseline)  with_delta p50 {delta_p50:.2} ms max {delta_max:.2} ms  \
         posting bytes copied p50 {copied_p50:.0} max {copied_max:.0}  \
         row bytes copied p50 {rows_p50:.0} max {rows_max:.0}  \
         post-ingest select {post_med:.3} ms  \
         [target ≤2x baseline during ingest: {}]",
        if target_met { "met" } else { "NOT met at this scale" },
    );

    let json = format!(
        "{{\"experiment\":\"e11_ingest\",\"patients\":{patients},\
         \"delta_patients\":{delta_patients},\"batches\":{},\
         \"entries\":{entries_total},\"ingest_elapsed_s\":{ingest_elapsed:.3},\
         \"throughput_entries_per_s\":{throughput:.1},\
         \"apply_lag_p50_ms\":{lag_p50:.4},\"apply_lag_p99_ms\":{lag_p99:.4},\
         \"baseline_planned_ms\":{baseline_med:.4},\
         \"during_ingest_selects\":{reads},\
         \"during_ingest_p50_ms\":{during_p50:.4},\
         \"during_ingest_p99_ms\":{during_p99:.4},\
         \"during_over_baseline\":{ratio:.3},\
         \"with_delta_p50_ms\":{delta_p50:.4},\"with_delta_max_ms\":{delta_max:.4},\
         \"posting_bytes_copied_p50\":{copied_p50:.0},\
         \"posting_bytes_copied_max\":{copied_max:.0},\
         \"row_bytes_copied_p50\":{rows_p50:.0},\"row_bytes_copied_max\":{rows_max:.0},\
         \"post_ingest_planned_ms\":{post_med:.4},\
         \"target_ratio\":2.0,\"target_met\":{target_met}}}\n",
        apply_sorted.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {path}");
}
