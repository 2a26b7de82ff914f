//! The repo's benchmark harness (ISSUE 11, `BENCHMARK.json`).
//!
//! One run: check the seed's query templates against the reference scan
//! on a small server, set the workload's server up (several times, for
//! `setup_s`), drive the phases over loopback, check every answer,
//! print every metric as `name value unit`, and end with one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_168k --seed 1 --seconds 40 --trace 0
//! ```

mod check;
mod client;
mod phases;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use check::Tally;
use pastas_core::Workbench;
use pastas_model::MemoryFootprint;
use pastas_serve::{serve, ServerConfig, ServerHandle};
use pastas_synth::{generate_collection, SynthConfig};
use phases::{LiveState, Run};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Phase, Spec, DATA_SEED, TRACED_PHASES, UNTRACED_PHASES};

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> \
                     [--patients <n>]";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Serve this many patients instead of the workload's own scale: the
    /// smoke test's way of running every workload in seconds.
    patients: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut patients) = (1u64, 40.0f64, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--patients" => patients = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let patients = patients.unwrap_or(spec.patients).max(1);
    Ok(Args {
        spec,
        seed,
        seconds,
        traced,
        patients,
    })
}

/// What one set-up took.
struct SetUp {
    handle: ServerHandle,
    total_s: f64,
    synth_s: f64,
    from_collection_ms: f64,
}

/// Synthesize, index, bind, and warm the server up: one cohort session
/// (the first profile builds the dimension tables) and one view render.
/// All of it is what a user waits for before the first fast answer, so
/// all of it is in `setup_s`, and work a later change moves here shows.
fn set_up(spec: &Spec, patients: usize) -> Result<SetUp, String> {
    let start = Instant::now();
    let config = SynthConfig {
        shard_patients: spec.shard_patients,
        ..SynthConfig::with_patients(patients)
    };
    let collection = generate_collection(config, DATA_SEED);
    let synth_s = start.elapsed().as_secs_f64();
    let indexed = Instant::now();
    let workbench = Workbench::from_collection(collection);
    let from_collection_ms = indexed.elapsed().as_secs_f64() * 1e3;
    let handle = serve(workbench, ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut client = client::Client::new(handle.addr(), Duration::from_secs(120));
    let mut expect = |method: &str, path: &str, body: &[u8], want: u16| {
        let response = client
            .request(method, path, body)
            .map_err(|e| format!("warm-up {path}: {e}"))?;
        if response.status != want {
            return Err(format!("warm-up {path}: status {}", response.status));
        }
        Ok(response.body_str().into_owned())
    };
    // Noise codes only: the generator never draws these.
    let query = b"has(A98|A97)";
    expect("POST", "/select?count_only=1", query, 200)?;
    let made = expect("POST", "/cohort", query, 201)?;
    let id = check::cohort_id(&made).ok_or("warm-up /cohort: no id")?;
    expect("GET", &format!("/cohort/{id}/stats"), b"", 200)?;
    expect("GET", &format!("/cohort/{id}/timeline"), b"", 200)?;
    expect("GET", &format!("/cohort/{id}.svg"), b"", 200)?;
    expect("GET", workload::VIEW_SVG_PATH, b"", 200)?;
    expect("GET", "/metrics", b"", 200)?;
    drop(client);
    Ok(SetUp {
        handle,
        total_s: start.elapsed().as_secs_f64(),
        synth_s,
        from_collection_ms,
    })
}

/// Response-cache `(hits, lookups)` so far.
fn cache_counters(handle: &ServerHandle) -> (u64, u64) {
    let cache = &handle.ctx().cache;
    (cache.hits(), cache.hits() + cache.misses())
}

/// Read the planner's counters off `/metrics`. The first ingest publish
/// replaces the selection cache and its counters, so this runs before
/// the live phase.
fn read_planner_gauges(run: &mut Run<'_>) {
    match run.metrics() {
        Ok(doc) => {
            let get = |key: &str| check::json_u64(&doc, &[key]).unwrap_or(0) as f64;
            let (hits, misses) = (get("selection_cache_hits"), get("selection_cache_misses"));
            let (indexed, scanned) = (get("select_index_hits"), get("select_scan_fallbacks"));
            run.gauges.insert(
                "query.selection_cache_hit_rate",
                stats::ratio(hits, hits + misses),
            );
            run.gauges.insert(
                "query.full_scan_share",
                stats::ratio(scanned, indexed + scanned),
            );
            run.gauges
                .insert("query.postings_bytes", get("postings_compressed_bytes"));
        }
        Err(e) => run.tally.record(Err(e)),
    }
}

/// Drive the phases. An untraced run drives the three its end-to-end
/// metrics come from: cohort and view interleaved, then live. A traced
/// run drives all five (the battery interleaved with cohort and view, the
/// warm phase before and after them) and gives each its budget half
/// traced, then half untraced.
fn drive(run: &mut Run<'_>, seconds: f64) {
    let (passes, driven): (&[bool], &[Phase]) = if run.tracer.is_some() {
        (&[true, false], &TRACED_PHASES)
    } else {
        (&[false], &UNTRACED_PHASES)
    };
    let spec = run.spec;
    let budget = |phase: Phase| {
        Duration::from_secs_f64(seconds * spec.share(phase, driven) / passes.len() as f64)
    };
    let interactive = [
        budget(Phase::Cohort),
        budget(Phase::Temporal),
        budget(Phase::View),
    ];
    // The warm phase runs in two halves, before and after the interleaved
    // phases: two windows half a minute apart see more of a shared
    // machine's moods than one. The response cache's hit rate is taken
    // over the warm halves and over the cold phases between, apart.
    let counted = |run: &mut Run<'_>, sum: &mut (u64, u64), phase: &dyn Fn(&mut Run<'_>)| {
        let before = cache_counters(run.handle);
        phase(run);
        let after = cache_counters(run.handle);
        *sum = (sum.0 + after.0 - before.0, sum.1 + after.1 - before.1);
    };
    for &traced in passes {
        let (mut warm, mut cold) = ((0, 0), (0, 0));
        let half = budget(Phase::Warm) / 2;
        let warm_half = |run: &mut Run<'_>| {
            if !half.is_zero() {
                phases::warm_phase(run, half, traced);
            }
        };
        counted(run, &mut warm, &warm_half);
        counted(run, &mut cold, &|run| {
            phases::interactive_phases(run, interactive, traced)
        });
        counted(run, &mut warm, &warm_half);
        if !traced {
            for (gauge, (hits, lookups)) in [
                ("serve.cache_hit_rate.warm", warm),
                ("serve.cache_hit_rate.cold", cold),
            ] {
                let rate = stats::ratio(hits as f64, lookups as f64);
                run.gauges.insert(gauge, rate);
            }
        }
    }
    read_planner_gauges(run);
    let mut live = LiveState::new(&mut run.generator);
    for &traced in passes {
        phases::live_phase(run, &mut live, budget(Phase::Live), traced);
    }
    phases::live_epilogue(run, &live);
    let rejected = stats::ratio(live.rows_rejected as f64, live.rows_read as f64);
    run.gauges.insert("ingest.rows_rejected_share", rejected);
    match run.metrics() {
        Ok(doc) => {
            for (gauge, key) in [
                ("serve.shed_total", "shed_total"),
                ("serve.worker_panics", "worker_panics"),
                ("serve.handler_panics", "handler_panics"),
            ] {
                run.gauges
                    .insert(gauge, check::json_u64(&doc, &[key]).unwrap_or(0) as f64);
            }
        }
        Err(e) => run.tally.record(Err(e)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    eprintln!(
        "workload {} ({} patients), seed {}, {} s, traced {}",
        spec.name, args.patients, args.seed, args.seconds, args.traced
    );

    // Before the first data-parallel section: the program reads the
    // variable once.
    if let Some(threads) = spec.threads {
        std::env::set_var("PASTAS_THREADS", threads.to_string());
    }

    let mut precheck = Tally::default();
    check::differential_precheck(args.seed, &mut precheck);

    let mut totals = Vec::with_capacity(spec.setups);
    let mut kept: Option<SetUp> = None;
    for _ in 0..spec.setups.max(1) {
        if let Some(previous) = kept.take() {
            previous.handle.shutdown();
        }
        match set_up(spec, args.patients) {
            Ok(setup) => {
                totals.push(setup.total_s);
                kept = Some(setup);
            }
            Err(message) => {
                eprintln!("set-up failed: {message}");
                return ExitCode::from(1);
            }
        }
    }
    let Some(setup) = kept else {
        return ExitCode::from(1);
    };
    let setup_s = stats::median(&totals);

    let mut run = Run::new(spec, args.patients, &setup.handle, args.seed, args.traced);
    run.tally.merge(precheck);
    if args.traced {
        let snapshot = setup.handle.ctx().state.snapshot();
        let footprint = MemoryFootprint::measure(snapshot.workbench.collection());
        let entries = footprint.entries.max(1) as f64;
        run.gauges.insert(
            "model.bytes_per_entry",
            footprint.columnar_bytes as f64 / entries,
        );
        run.gauges
            .insert("model.entries_total", footprint.entries as f64);
        run.gauges
            .insert("core.from_collection_ms", setup.from_collection_ms);
        run.gauges.insert("synth.generate_s", setup.synth_s);
        run.gauges
            .insert("par.threads", pastas_par::thread_count() as f64);
    }
    drive(&mut run, args.seconds);
    let failed_share = stats::ratio(run.tally.failed as f64, run.tally.attempted as f64);
    run.gauges.insert("failed_share", failed_share);

    let tracer = run.tracer.take();
    let metrics = match &tracer {
        Some(tracer) => report::per_layer(&run, tracer),
        None => report::end_to_end(&run, setup_s),
    };
    let (attempted, failed) = (run.tally.attempted, run.tally.failed);
    for note in &run.tally.notes {
        eprintln!("failed: {note}");
    }
    drop(run);
    setup.handle.shutdown();

    if let Some(tracer) = &tracer {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
        let dir = std::path::Path::new(&dir).join("benchmark");
        let path = dir.join(format!("trace-{}.json", spec.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name, args.seed)));
        match written {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    for metric in &metrics {
        let note = if metric.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", metric.note)
        };
        println!("{} {} {}{note}", metric.name, metric.value, metric.unit);
    }
    if tracer.is_none() {
        // A traced run has it among its per-layer metrics.
        println!("failed_share {failed_share} share  # {failed} of {attempted} operations");
    }
    println!("{}", report::result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
