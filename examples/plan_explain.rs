//! Query-plan inspection and the planner's differential smoke test.
//!
//! ```text
//! cargo run --release --example plan_explain -- [--patients N] [--seed S]
//!     [--shard-patients K] [--budget-ms B] [--smoke] [--smoke-temporal]
//!     [--smoke-publish] [--smoke-synth] [--explain "QUERY"]
//! ```
//!
//! Default mode compiles and executes a few representative cohort
//! queries, printing each physical plan with per-operator candidate
//! counts and timings (`EXPLAIN ANALYZE` for the workbench). `--explain`
//! does the same for one query given in the query language. `--smoke` is
//! the CI stage: for a battery of query shapes — positive, negated,
//! counted, compound, disjunctive, demographic — it checks that the
//! planned result equals the full `select_scan`, that the acceptance
//! shape (`has ∧ lacks`) is served without a full-scan operator, and
//! exits non-zero on any mismatch. `--shard-patients K` seals a store
//! arena per `K` patients (the sharded layout; align with the index's
//! 65,536-row shard width), and `--budget-ms B` additionally fails the
//! smoke when any index-served shape's planned execution exceeds `B`
//! milliseconds, and likewise any of the view's four sort keys
//! (`Workbench::sort`, median of five), each command of the view
//! phase's eight-command cycle and the `render_svg` after it (median of
//! five each, every number printed) and the paper-shaped cohort's
//! profile and monthly series (median of five, folded from the row
//! table's digest columns) — the 1M-patient CI stage runs with
//! `--budget-ms 100`.
//! `--smoke-temporal` runs the same differential discipline over
//! `seq(...)` temporal shapes: code-bearing patterns must plan to an
//! index prefilter feeding a `PatternScan` operator (never a full
//! scan) and must report pattern scans through the execution stats,
//! while cover-free patterns must fall back to an honest full scan.
//! `--smoke-publish` streams [`SMOKE_PUBLISHES`] benchmark-shaped delta
//! batches the way the server publishes them (a snapshot of the current
//! workbench, `apply_ingest`, then the previous one dropped), with the
//! previous snapshot alive while the next is built, and fails when any
//! publish copies more row-table bytes than the chunks and id sub-maps
//! of its touched rows hold, or leaves a touched row whose digest
//! columns differ from a fresh digest of its history — counts, not
//! timings. It prints the `apply_ingest` and drop times, the row-table
//! bytes each publish copied and the bytes it allocated.
//! `--smoke-synth` generates the benchmark's collection (seed 2016) and
//! fails unless its content hash (`pastas_synth::golden`) equals the one
//! recorded for `--patients` and `--shard-patients` — an equality check,
//! not a timing. It prints the generation's wall time an entry and its
//! allocations a patient.

use pastas_core::Workbench;
use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
use pastas_query::index::select_scan;
use pastas_query::{parse_query, HistoryQuery, QueryPlan};
use pastas_synth::golden::{content_hash, RECORDED, RECORDED_SEED};
use pastas_synth::{generate_collection, SynthConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "common.rs"]
mod common;
use common::{arg, arg_str, flag};

/// Bytes this process has asked the allocator for (a reallocation counts
/// its new size): `--smoke-publish` reads it around each publish.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Allocations (and reallocations) this process has made:
/// `--smoke-synth` reads it around the generation.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting into [`ALLOCATED`] and [`ALLOCATIONS`].
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Publishes `--smoke-publish` streams.
const SMOKE_PUBLISHES: usize = 60;

/// The battery of query-language shapes the smoke test runs. The
/// triples are (text, must_be_index_served, budgeted): `must_index`
/// asserts the plan contains no full-scan operator — posting-list set
/// algebra end to end — and `budgeted` additionally holds the shape to
/// `--budget-ms`. Budgeted shapes are the pure set-algebra ones —
/// code clauses on postings, `age(..)` / `sex(..)` clauses on the
/// demographic row column; `count(K.*) >= 2` stays index-served but its Filter
/// verifies every candidate history (O(candidates) by construction), so
/// a per-shape millisecond cap would measure the collection, not the
/// planner, and a cover-free count has nothing but the scan.
const SHAPES: &[(&str, bool, bool)] = &[
    ("has(T90)", true, true),
    ("lacks(T90)", true, true),
    ("has(K.*) and lacks(T90)", true, true),
    ("has(T90|T89) and lacks(K74) and age(40..95)", true, true),
    ("has(T90) or has(R95)", true, true),
    ("count(K.*) >= 2", true, false),
    ("not (has(T90) and has(K74))", true, true),
    ("sex(F) and age(50..80)", true, true),
    ("has(K.*) or sex(F)", true, true),
    ("has(K.*) and lacks(T90) and age(40..90)", true, true),
    ("not age(18..64) and not sex(M)", true, true),
    ("has(T90) and not (age(0..39) or sex(M))", true, true),
    ("count(diagnosis) >= 3 and age(40..90)", false, false),
];

/// Temporal `seq(...)` shapes for `--smoke-temporal`. The second field
/// is `must_index`: shapes with at least one code-bearing step must be
/// served by an index prefilter feeding a `PatternScan`; shapes whose
/// steps carry no code cover (pure kind predicates) must plan to an
/// honest full scan rather than a pretend prefilter.
const TEMPORAL_SHAPES: &[(&str, bool)] = &[
    ("seq(T90 then K.*)", true),
    ("seq(K.* then[0d..365d] T90)", true),
    ("seq(T90 then[0d..3650d] medication then any)", true),
    ("seq(T90 then[-30d..90d] K.*)", true),
    ("seq(interval then any)", false),
];

fn main() {
    let patients = arg("--patients", 5_000) as usize;
    let seed = arg("--seed", 7);
    let shard_patients = arg("--shard-patients", 0) as usize;
    let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
    if flag("--smoke-synth") {
        std::process::exit(run_synth_smoke(config));
    }
    eprintln!("Generating {patients} patients (seed {seed}, shard_patients {shard_patients}) …");
    let collection = generate_collection(config, seed);
    let reference_date = collection
        .stats()
        .last
        .map(|dt| dt.date())
        .unwrap_or_else(|| pastas_time::Date::new(2013, 1, 1).expect("valid"));
    let workbench = Workbench::from_collection(collection);
    let fp = workbench.index().footprint();
    eprintln!(
        "index: {} shard(s), postings {} B compressed ({} B as Vec<u32>)",
        fp.shards, fp.postings_compressed_bytes, fp.postings_uncompressed_bytes_est
    );

    if flag("--smoke") {
        let budget_ms = arg("--budget-ms", 0);
        std::process::exit(run_smoke(&workbench, reference_date, budget_ms));
    }
    if flag("--smoke-temporal") {
        std::process::exit(run_temporal_smoke(&workbench, reference_date));
    }
    if flag("--smoke-publish") {
        std::process::exit(run_publish_smoke(workbench));
    }

    let queries: Vec<String> = match arg_str("--explain") {
        Some(text) => vec![text],
        None => ["has(T90)", "has(K.*) and lacks(T90)", "lacks(T90) and age(40..90)"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
    };
    for text in queries {
        let query = match parse_query(&text, reference_date) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("bad query {text:?}: {e}");
                std::process::exit(2);
            }
        };
        explain_one(&workbench, &text, &query);
    }
}

fn explain_one(workbench: &Workbench, text: &str, query: &HistoryQuery) {
    let (positions, explain) = workbench.select_explain(query);
    println!("query: {text}");
    println!(
        "matched {} of {} — {}",
        positions.len(),
        workbench.collection().len(),
        if explain.used_full_scan() { "full scan" } else { "index-served" }
    );
    print!("{}", explain.render_text());
    println!();
}

/// Differential check: planner output == scan output for every shape,
/// with the index-served expectations honoured. A nonzero `budget_ms`
/// additionally caps the planned execution time of every budgeted
/// (pure set-algebra) shape, median of three runs. Returns the exit
/// code.
fn run_smoke(workbench: &Workbench, reference_date: pastas_time::Date, budget_ms: u64) -> i32 {
    let collection = workbench.collection();
    let index = workbench.index();
    let mut failures = 0u32;
    for &(text, must_index, budgeted) in SHAPES {
        let query = match parse_query(text, reference_date) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("  FAIL parse {text:?}: {e}");
                failures += 1;
                continue;
            }
        };
        let plan = QueryPlan::build(index, collection, &query);
        let planned = plan.execute(collection, index);
        let scanned = select_scan(collection, &query);
        if planned != scanned {
            eprintln!(
                "  FAIL {text:?}: planned {} != scanned {}\n{}",
                planned.len(),
                scanned.len(),
                plan.render()
            );
            failures += 1;
            continue;
        }
        if must_index && plan.uses_full_scan() {
            eprintln!("  FAIL {text:?}: expected index-served plan, got\n{}", plan.render());
            failures += 1;
            continue;
        }
        let mut budget_note = String::new();
        if budget_ms > 0 && budgeted {
            let mut times: Vec<f64> = (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(plan.execute(collection, index));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = times[1];
            if median > budget_ms as f64 {
                eprintln!(
                    "  FAIL {text:?}: planned execution {median:.1} ms over the \
                     {budget_ms} ms budget\n{}",
                    plan.render()
                );
                failures += 1;
                continue;
            }
            budget_note = format!(", {median:.1} ms (budget {budget_ms} ms)");
        }
        eprintln!(
            "  ok   {text} — {} matched, {}{budget_note}",
            planned.len(),
            if plan.uses_full_scan() { "scan" } else { "index" }
        );
    }
    if budget_ms > 0 {
        failures += sorts_over_budget(workbench, budget_ms);
        failures += view_cycle_over_budget(workbench, budget_ms);
        failures += cohort_reads_over_budget(workbench, reference_date, budget_ms);
    }
    if failures > 0 {
        eprintln!("PLANNER SMOKE: {failures} check(s) FAILED");
        1
    } else {
        eprintln!("PLANNER SMOKE: all checks passed");
        0
    }
}

/// The view's four sorts held to the same budget: the median of five
/// `Workbench::sort` runs per key. Prints every median and counts the
/// keys over it.
fn sorts_over_budget(workbench: &Workbench, budget_ms: u64) -> u32 {
    use pastas_query::SortKey;
    let mut view = workbench.snapshot();
    let mut failures = 0;
    for key in [SortKey::PatientId, SortKey::FirstEntry, SortKey::EntryCount, SortKey::Span] {
        let median = median_of_five(|| view.sort(&key));
        eprintln!("  sort {key:?}: {median:.1} ms");
        if median > budget_ms as f64 {
            eprintln!("  FAIL sort {key:?}: {median:.1} ms over the {budget_ms} ms budget");
            failures += 1;
        }
    }
    failures
}

/// The view phase's cycle of eight commands held to the same budget:
/// each command, `align T90` among them (median of five `apply_command`
/// runs), and the 1200×700 `render_svg` after it (median of five).
/// Prints every median and counts the ones over it.
fn view_cycle_over_budget(workbench: &Workbench, budget_ms: u64) -> u32 {
    use pastas_core::ViewCommand;
    use pastas_query::{EntryPredicate, SortKey};
    let cycle = [
        ("sort entry_count", ViewCommand::Sort(SortKey::EntryCount)),
        ("sort span", ViewCommand::Sort(SortKey::Span)),
        ("sort first_entry", ViewCommand::Sort(SortKey::FirstEntry)),
        ("align T90", ViewCommand::AlignOnCode("T90".to_owned())),
        ("filter diagnosis", ViewCommand::SetFilter(Some(EntryPredicate::IsDiagnosis))),
        ("filter K.*", ViewCommand::SetFilter(EntryPredicate::code_regex("K.*").ok())),
        ("clear alignment", ViewCommand::ClearAlignment),
        ("clear filter", ViewCommand::SetFilter(None)),
    ];
    let mut view = workbench.snapshot();
    let mut failures = 0;
    for (name, command) in &cycle {
        let apply = median_of_five(|| {
            view.apply_command(command).expect("the cycle's commands apply");
        });
        let render = median_of_five(|| {
            std::hint::black_box(view.render_svg(1200.0, 700.0));
        });
        eprintln!("  view {name}: command {apply:.1} ms, render_svg {render:.1} ms");
        for (what, median) in [("command", apply), ("render_svg", render)] {
            if median > budget_ms as f64 {
                eprintln!("  FAIL view {name} {what}: {median:.1} ms over the {budget_ms} ms");
                failures += 1;
            }
        }
    }
    failures
}

/// The median of five timed runs of `run`, in milliseconds.
fn median_of_five(mut run: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[2]
}

/// The paper-shaped cohort's two reads held to the budget: its profile
/// and its monthly series, median of five each.
/// Reports (and counts) only the reads over it.
fn cohort_reads_over_budget(
    workbench: &Workbench,
    reference: pastas_time::Date,
    budget_ms: u64,
) -> u32 {
    let text = "has(K.*) and lacks(A98) and age(0..150)";
    let query = parse_query(text, reference).expect("the paper-shaped cohort parses");
    let positions = workbench.select_positions(&query);
    let reads = [
        (
            "profile",
            median_of_five(|| {
                std::hint::black_box(workbench.cohort_profile(&positions, reference, 20));
            }),
        ),
        (
            "monthly series",
            median_of_five(|| {
                std::hint::black_box(workbench.cohort_monthly(&positions));
            }),
        ),
    ];
    let mut failures = 0;
    for (read, median) in reads {
        if median > budget_ms as f64 {
            eprintln!("  FAIL {text:?} {read}: {median:.1} ms over the {budget_ms} ms budget");
            failures += 1;
        }
    }
    failures
}

/// Temporal differential check: every `seq(...)` shape's planned result
/// must equal the full `select_scan`, code-bearing shapes must execute
/// as an index-prefiltered `PatternScan` (no full-scan operator, nonzero
/// candidate / pattern-scan stats), and cover-free shapes must plan to
/// an honest full scan. Returns the exit code.
fn run_temporal_smoke(workbench: &Workbench, reference_date: pastas_time::Date) -> i32 {
    let collection = workbench.collection();
    let index = workbench.index();
    let mut failures = 0u32;
    for &(text, must_index) in TEMPORAL_SHAPES {
        let query = match parse_query(text, reference_date) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("  FAIL parse {text:?}: {e}");
                failures += 1;
                continue;
            }
        };
        let plan = QueryPlan::build(index, collection, &query);
        let (planned, stats) = plan.execute_stats(collection, index);
        let scanned = select_scan(collection, &query);
        if planned != scanned {
            eprintln!(
                "  FAIL {text:?}: planned {} != scanned {}\n{}",
                planned.len(),
                scanned.len(),
                plan.render()
            );
            failures += 1;
            continue;
        }
        if must_index {
            if plan.uses_full_scan() {
                eprintln!("  FAIL {text:?}: expected a prefiltered plan, got\n{}", plan.render());
                failures += 1;
                continue;
            }
            if !plan.render().contains("PatternScan") {
                eprintln!(
                    "  FAIL {text:?}: expected a PatternScan operator, got\n{}",
                    plan.render()
                );
                failures += 1;
                continue;
            }
            if stats.pattern_candidates == 0 || stats.pattern_automaton_runs == 0 {
                eprintln!(
                    "  FAIL {text:?}: executed without reporting pattern scans \
                     (candidates {}, runs {})",
                    stats.pattern_candidates, stats.pattern_automaton_runs
                );
                failures += 1;
                continue;
            }
        } else if !plan.uses_full_scan() {
            eprintln!(
                "  FAIL {text:?}: cover-free pattern should scan honestly, got\n{}",
                plan.render()
            );
            failures += 1;
            continue;
        }
        eprintln!(
            "  ok   {text} — {} matched, {}, {} candidate(s), {} pattern scan(s)",
            planned.len(),
            if plan.uses_full_scan() { "scan" } else { "index" },
            stats.pattern_candidates,
            stats.pattern_automaton_runs
        );
    }
    if failures > 0 {
        eprintln!("TEMPORAL SMOKE: {failures} check(s) FAILED");
        1
    } else {
        eprintln!("TEMPORAL SMOKE: all checks passed");
        0
    }
}

/// `text` (a source file with a header line) in increments of 200 rows,
/// each carrying the header: how the benchmark streams a source.
fn increments(text: &str) -> Vec<String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let rows: Vec<&str> = lines.collect();
    rows.chunks(200).map(|rows| format!("{header}\n{}\n", rows.join("\n"))).collect()
}

/// The publish smoke: the benchmark's delta stream — 2,000 persons drawn
/// with seed 4077 (ids 1 to 2,000, so at this scale they re-register
/// patients the collection holds), then claims and prescriptions
/// increments in turn — against a registry seeded from the collection,
/// as the server's is. Each of the first [`SMOKE_PUBLISHES`] increments is
/// one publish, built while its predecessor is alive. Fails when a
/// publish copies more row bytes (`row_bytes_copied_from`) than the
/// chunks and id sub-maps of its touched rows hold (`row_bytes_at`), or
/// when a touched row's digest columns differ from a fresh digest of
/// its history ([`digest_is_fresh`]). Returns the exit code.
fn run_publish_smoke(workbench: Workbench) -> i32 {
    use pastas_synth::emit::{emit, MessConfig};
    let mut registry = IdentityRegistry::new();
    for h in workbench.collection() {
        let p = h.patient();
        registry.register(p.id.0, p.birth_date, p.sex);
    }
    let population = pastas_synth::generate_population(SynthConfig::with_patients(2_000), 4077);
    let mess = MessConfig { duplicate_prob: 0.0, invalid_date_prob: 0.0, ..MessConfig::default() };
    let raw = emit(&population, mess);
    for text in increments(&raw.persons) {
        parse_delta(DeltaFormat::Persons, &text, &mut registry);
    }
    let claims = increments(&raw.claims).into_iter().map(|t| (DeltaFormat::Claims, t));
    let prescriptions =
        increments(&raw.prescriptions).into_iter().map(|t| (DeltaFormat::Prescriptions, t));
    let stream = claims.zip(prescriptions).flat_map(|(a, b)| [a, b]).take(SMOKE_PUBLISHES);
    let mut current = workbench;
    let (mut apply_ms, mut drop_ms, mut allocated, mut copied) = (vec![], vec![], vec![], vec![]);
    let mut failures = 0;
    for (i, (format, text)) in stream.enumerate() {
        let batch = parse_delta(format, &text, &mut registry);
        let before = ALLOCATED.load(Ordering::Relaxed);
        let t = std::time::Instant::now();
        let mut next = current.snapshot();
        next.apply_ingest(std::slice::from_ref(&batch));
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        allocated.push((ALLOCATED.load(Ordering::Relaxed) - before) as f64);
        let collection = next.collection();
        let dirty: Vec<u32> = batch
            .deltas
            .iter()
            .filter_map(|d| collection.position_of(d.patient.id))
            .map(|p| p as u32)
            .collect();
        let (bytes, bound) = (
            collection.row_bytes_copied_from(current.collection()),
            collection.row_bytes_at(&dirty),
        );
        if bytes > bound {
            eprintln!(
                "  FAIL publish {i}: copied {bytes} row bytes, its {} rows' chunks hold {bound}",
                dirty.len()
            );
            failures += 1;
        }
        for &pos in &dirty {
            if !digest_is_fresh(collection, pos as usize) {
                eprintln!(
                    "  FAIL publish {i}: row {pos}'s digest columns differ from a fresh digest"
                );
                failures += 1;
            }
        }
        copied.push(bytes as f64);
        let previous = std::mem::replace(&mut current, next);
        let t = std::time::Instant::now();
        drop(previous);
        drop_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let p50 = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (v.get(v.len() / 2).copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0))
    };
    let ((apply, apply_max), (dropped, _)) = (p50(&mut apply_ms), p50(&mut drop_ms));
    let ((alloc, alloc_max), (rows, rows_max)) = (p50(&mut allocated), p50(&mut copied));
    eprintln!(
        "  {} publishes: apply_ingest p50 {apply:.2} ms (max {apply_max:.2}), drop of the \
         previous snapshot p50 {dropped:.3} ms; allocated p50 {:.0} KiB (max {:.0}); row bytes \
         copied p50 {:.0} KiB (max {:.0})",
        apply_ms.len(),
        alloc / 1024.0,
        alloc_max / 1024.0,
        rows / 1024.0,
        rows_max / 1024.0
    );
    if failures > 0 || apply_ms.len() < SMOKE_PUBLISHES {
        eprintln!("PUBLISH SMOKE: {failures} check(s) FAILED, {} publishes", apply_ms.len());
        1
    } else {
        eprintln!("PUBLISH SMOKE: all checks passed");
        0
    }
}

/// True if row `pos`'s digest columns equal those of a one-row table
/// built afresh from its history (on the same dictionary version, so the
/// code ids agree).
fn digest_is_fresh(collection: &pastas_model::HistoryCollection, pos: usize) -> bool {
    let Some(row) = collection.spans(pos..pos + 1).next() else { return false };
    let fresh = pastas_model::HistoryCollection::from_histories(row.histories.to_vec());
    let Some(once) = fresh.spans(0..1).next() else { return false };
    let digest = |r: &pastas_model::RowSpan<'_>| {
        (
            r.dominant.to_vec(),
            r.first_years.to_vec(),
            r.codes.get(0).to_vec(),
            r.runs.get(0).to_vec(),
        )
    };
    digest(&row) == digest(&once)
}

/// The synthesis smoke: generate the collection of seed
/// [`RECORDED_SEED`] at `config` and compare its content hash with the
/// one recorded for that configuration. Prints the generation's wall
/// time an entry and its allocations a patient. Returns the exit code.
fn run_synth_smoke(config: SynthConfig) -> i32 {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let t = std::time::Instant::now();
    let collection = generate_collection(config, RECORDED_SEED);
    let elapsed = t.elapsed().as_secs_f64();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let entries = collection.stats().entries;
    let hash = content_hash(&collection);
    eprintln!(
        "  {} patients, {entries} entries in {elapsed:.2} s on {} thread(s): {:.0} ns an entry \
         (wall), {:.1} allocations a patient; content hash {hash:#018x}",
        config.patients,
        pastas_par::thread_count(),
        elapsed * 1e9 / entries.max(1) as f64,
        allocations as f64 / config.patients.max(1) as f64,
    );
    let recorded = RECORDED.iter().find(|r| (r.0, r.1) == (config.patients, config.shard_patients));
    match recorded {
        Some(&(_, _, expect)) if expect == hash => {
            eprintln!("SYNTH SMOKE: content hash equals the recorded one");
            0
        }
        Some(&(_, _, expect)) => {
            eprintln!("SYNTH SMOKE: FAILED: content hash {hash:#018x}, recorded {expect:#018x}");
            1
        }
        None => {
            eprintln!(
                "SYNTH SMOKE: FAILED: no hash recorded for {} patients at shard width {}",
                config.patients, config.shard_patients
            );
            1
        }
    }
}
