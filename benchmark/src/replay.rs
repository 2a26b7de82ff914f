//! The traced pass's in-process replays.
//!
//! Nothing inside the program records spans yet, so the harness makes the
//! layers visible from outside: after a request has gone over the socket,
//! it calls the same public functions the router calls, in the same
//! order, against [`ServerHandle::ctx`](pastas_serve::ServerHandle::ctx),
//! with a span around each call. Three roots per request:
//!
//! * `client.<op>`: the socket call itself (recorded in `phases`);
//! * `replay.<op>`: the stages of that request, one child span each.
//!   Selection goes through `QueryPlan::build` and
//!   `execute_explain_stats`, which bypass the memo the socket request
//!   just filled;
//! * `inproc`: a *twin* request (same template, freshly drawn parameters,
//!   so it is as cold as the socket request was) parsed from raw bytes
//!   (`serve.http_parse`), passed to `route()` whole (`route.<op>`) and
//!   serialized into a buffer (`serve.response_write`).
//!   `serve.socket_overhead_us.<op>` is the socket median minus the
//!   `route.<op>` median.

use crate::check::{cohort_id, Tally};
use crate::phases::{LiveState, Op, Receipt, Run};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{VIEW_CYCLE, VIEW_SVG_PATH};
use pastas_core::{CohortLookup, ViewCommand};
use pastas_ingest::{parse_delta, DeltaFormat, IdentityRegistry};
use pastas_model::PatientId;
use pastas_query::{parse_query, EntryPredicate, ExplainNode, QueryPlan, SortKey};
use pastas_serve::{route, Limits, Request, RequestReader, Response, RouterCtx};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` as a leaf span and also return its duration in microseconds.
fn timed_leaf<R>(
    tracer: &mut Tracer,
    name: &'static str,
    rid: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let result = tracer.leaf(name, rid, f);
    (result, start.elapsed().as_secs_f64() * 1e6)
}

/// The bytes [`pastas_serve::client::Conn`] would put on the wire.
fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Parse `raw` as the server's connection loop would.
fn parse_raw(raw: &[u8]) -> Option<Request> {
    RequestReader::new(raw, Limits::default())
        .next_request()
        .ok()
}

/// One twin request, in process: parse, `route()`, serialize. Counted as
/// an operation; an unexpected status is a failure.
#[allow(clippy::too_many_arguments)]
fn inproc(
    tracer: &mut Tracer,
    ctx: &RouterCtx,
    tally: &mut Tally,
    op: Op,
    rid: u64,
    method: &str,
    path: &str,
    body: &[u8],
    want: u16,
) -> Option<Response> {
    let raw = raw_request(method, path, body);
    let response = tracer.span("inproc", rid, |t| {
        let request = t.leaf("serve.http_parse", rid, || parse_raw(&raw))?;
        let response = t.leaf(op.route_span(), rid, || route(&request, ctx));
        let mut wire = Vec::with_capacity(response.body.len() + 256);
        t.leaf("serve.response_write", rid, || {
            response.write_to(&mut wire, true).ok()
        })?;
        Some(response)
    });
    let outcome = match &response {
        None => Err(format!(
            "in-process {method} {path}: did not parse or serialize"
        )),
        Some(r) if r.status != want => Err(format!(
            "in-process {method} {path}: status {} (want {want})",
            r.status
        )),
        Some(_) => Ok(()),
    };
    let ok = outcome.is_ok();
    tally.record(outcome);
    response.filter(|_| ok)
}

/// Per-layer sample name of an executed plan operator.
fn op_metric(op: &str) -> Option<&'static str> {
    Some(match op {
        "IndexFetch" => "query.op.index_fetch_us",
        "Intersect" => "query.op.intersect_us",
        "Union" => "query.op.union_us",
        "Complement" => "query.op.complement_us",
        "Filter" => "query.op.filter_us",
        "PatternScan" => "query.op.pattern_scan_us",
        "FullScan" => "query.op.full_scan_us",
        "SidePass" => "query.op.side_pass_us",
        _ => return None,
    })
}

/// Sum each operator's self time (its `elapsed_us` minus its children's)
/// over the executed tree.
fn operator_self_times(node: &ExplainNode, acc: &mut BTreeMap<&'static str, u64>) {
    let children: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
    if let Some(name) = op_metric(&node.op) {
        *acc.entry(name).or_default() += node.elapsed_us.saturating_sub(children);
    }
    for child in &node.children {
        operator_self_times(child, acc);
    }
}

/// Histories a per-history operator had to look at: the input rows of
/// every `Filter` and `PatternScan`, and every row for a `FullScan`.
fn rows_examined(node: &ExplainNode, all_rows: u64) -> u64 {
    let own = match node.op.as_str() {
        "Filter" | "PatternScan" => node.children.first().map_or(0, |input| input.rows as u64),
        "FullScan" => all_rows,
        _ => 0,
    };
    own + node
        .children
        .iter()
        .map(|c| rows_examined(c, all_rows))
        .sum::<u64>()
}

/// Stages of one selection: parse, cache probe, plan, execute, and for a
/// select with ids the body. Returns the pattern candidates and automaton
/// runs counted.
fn selection_stages(run: &mut Run<'_>, op: Op, rid: u64, text: &str, with_ids: bool) -> (u64, u64) {
    let Run {
        tracer: Some(tracer),
        handle,
        layers,
        ..
    } = run
    else {
        return (0, 0);
    };
    let ctx = handle.ctx();
    let snapshot = ctx.state.snapshot();
    let wb = &snapshot.workbench;
    let executed = tracer.span(op.replay_span(), rid, |t| {
        let query = t
            .leaf("query.parse", rid, || {
                parse_query(text, snapshot.reference_date)
            })
            .ok()?;
        t.leaf("serve.cache_probe", rid, || probe_cache(ctx));
        let plan = t.leaf("query.plan_build", rid, || {
            QueryPlan::build(wb.index(), wb.collection(), &query)
        });
        let (executed, exec_us) = timed_leaf(t, "query.exec", rid, || {
            plan.execute_explain_stats(wb.collection(), wb.index())
        });
        if with_ids {
            t.leaf("serve.body_build", rid, || {
                let histories = wb.collection().histories();
                let mut body = String::with_capacity(32 + executed.0.len() * 12);
                for &position in &executed.0 {
                    let _ = write!(body, "\"{}\",", histories[position as usize].id());
                }
                body
            });
        }
        Some((executed, exec_us))
    });
    let Some(((positions, explain, exec_stats), exec_us)) = executed else {
        return (0, 0);
    };
    let mut self_times = BTreeMap::new();
    operator_self_times(&explain.root, &mut self_times);
    for (name, us) in &self_times {
        layers.push(name, *us as f64);
    }
    let examined = rows_examined(&explain.root, wb.collection().len() as u64);
    layers.push(
        "query.rows_examined_per_result",
        examined as f64 / positions.len().max(1) as f64,
    );
    if exec_stats.pattern_candidates > 0 {
        // Whole execution over candidates: ROADMAP's 31 µs figure.
        layers.push(
            "query.us_per_candidate",
            exec_us / exec_stats.pattern_candidates as f64,
        );
    }
    (
        exec_stats.pattern_candidates,
        exec_stats.pattern_automaton_runs,
    )
}

/// The key of a response the harness plants in the response cache, so
/// `serve.cache_probe_us` times a hit whatever the router's key format.
const PROBE_KEY: &str = "bench:probe";

fn probe_cache(ctx: &RouterCtx) {
    if ctx.cache.get(PROBE_KEY).is_none() {
        ctx.cache
            .put(PROBE_KEY.to_owned(), Arc::new(Response::json(200, "{}")));
    }
}

/// After one traced cohort session: stage replays of its five requests,
/// then the twin session through `route()`.
pub fn session(run: &mut Run<'_>, rid: u64, index: usize, text: &str, count_only: bool, id: &str) {
    selection_stages(run, Op::Select, rid, text, !count_only);
    cohort_stages(run, rid, index, text, id);
    let (_, twin) = run.generator.session_query(run.spec.cohort_mix, index);
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        tally,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let path = if count_only {
        "/select?count_only=1"
    } else {
        "/select"
    };
    inproc(
        tracer,
        ctx,
        tally,
        Op::Select,
        rid,
        "POST",
        path,
        twin.as_bytes(),
        200,
    );
    let made = inproc(
        tracer,
        ctx,
        tally,
        Op::CohortMaterialize,
        rid,
        "POST",
        "/cohort",
        twin.as_bytes(),
        201,
    );
    let Some(twin_id) = made.and_then(|r| cohort_id(&String::from_utf8_lossy(&r.body))) else {
        return;
    };
    for (op, path) in [
        (Op::CohortStats, format!("/cohort/{twin_id}/stats")),
        (Op::CohortTimeline, format!("/cohort/{twin_id}/timeline")),
        (Op::CohortSvg, format!("/cohort/{twin_id}.svg")),
    ] {
        inproc(tracer, ctx, tally, op, rid, "GET", &path, b"", 200);
    }
}

/// Stages of `POST /cohort` and of the three reads over the frozen cohort.
fn cohort_stages(run: &mut Run<'_>, rid: u64, index: usize, text: &str, id: &str) {
    let Run {
        tracer: Some(tracer),
        handle,
        layers,
        registry,
        gauges,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let snapshot = ctx.state.snapshot();
    let wb = &snapshot.workbench;
    let Ok(query) = parse_query(text, snapshot.reference_date) else {
        return;
    };
    tracer.span(Op::CohortMaterialize.replay_span(), rid, |t| {
        // A memo hit, as it was for the server: `/select` ran just before.
        let positions = t.leaf("core.select_positions", rid, || wb.select_positions(&query));
        let fingerprint = t.leaf("query.plan_build", rid, || {
            wb.canonical_query_fingerprint(&query)
        });
        t.leaf("core.registry_materialize", rid, || {
            registry.materialize(snapshot.version, &fingerprint, text, &positions)
        });
    });
    let lookup = |t: &mut Tracer| match t.leaf("core.registry_lookup", rid, || {
        ctx.cohorts.lookup(id, snapshot.version)
    }) {
        CohortLookup::Hit(handle) => Some(handle),
        _ => None,
    };
    let decode = |t: &mut Tracer, handle: &pastas_core::CohortHandle| {
        t.leaf("query.bitmap_decode", rid, || {
            let mut positions = Vec::with_capacity(handle.count as usize);
            handle.positions.decode_into(0, &mut positions);
            positions
        })
    };
    let mut cohort: Option<(Vec<u32>, u64)> = None;
    tracer.span(Op::CohortStats.replay_span(), rid, |t| {
        let Some(handle) = lookup(t) else { return };
        let positions = decode(t, &handle);
        let (profile, us) = timed_leaf(t, "analytics.profile", rid, || {
            wb.cohort_profile(&positions, snapshot.reference_date, 20)
        });
        layers.push(
            "analytics.profile_ns_per_entry",
            us * 1e3 / profile.total_entries.max(1) as f64,
        );
        t.leaf("analytics.profile_json", rid, || profile.to_json());
        cohort = Some((positions, profile.total_entries));
    });
    tracer.span(Op::CohortTimeline.replay_span(), rid, |t| {
        let Some(handle) = lookup(t) else { return };
        let positions = decode(t, &handle);
        let (_, us) = timed_leaf(t, "analytics.monthly", rid, || {
            wb.cohort_monthly(&positions)
        });
        if let Some((_, entries)) = &cohort {
            layers.push(
                "analytics.monthly_ns_per_entry",
                us * 1e3 / (*entries).max(1) as f64,
            );
        }
    });
    tracer.span(Op::CohortSvg.replay_span(), rid, |t| {
        let Some(handle) = lookup(t) else { return };
        let positions = decode(t, &handle);
        let profile = t.leaf("analytics.profile", rid, || {
            wb.cohort_profile(&positions, snapshot.reference_date, 20)
        });
        t.leaf("viz.panel_svg", rid, || {
            pastas_viz::histogram::panel_svg(&profile, 900.0, 600.0)
        });
    });
    // Once per run: the profile on one thread against one thread a core,
    // whatever the workload runs the program on.
    if let (0, Some((positions, _))) = (index, &cohort) {
        let profile = || {
            std::hint::black_box(wb.cohort_profile(positions, snapshot.reference_date, 20));
        };
        let time = |f: &dyn Fn()| {
            stats::median(
                &(0..3)
                    .map(|_| {
                        let start = Instant::now();
                        f();
                        start.elapsed().as_secs_f64()
                    })
                    .collect::<Vec<f64>>(),
            )
        };
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let serial = time(&|| pastas_par::with_threads(1, profile));
        let parallel = time(&|| pastas_par::with_threads(cores, profile));
        gauges.insert("par.profile_speedup", serial / parallel.max(1e-12));
    }
}

/// After one traced battery request: its stages, its twin, and the regex
/// layer on its own. `first_round` requests feed the exact candidate and
/// automaton-run counts, which repeat under a seed.
pub fn temporal(run: &mut Run<'_>, rid: u64, shape: usize, text: &str, first_round: bool) {
    let (candidates, runs) = selection_stages(run, Op::Temporal, rid, text, false);
    if first_round {
        *run.gauges.entry("query.pattern_candidates").or_default() += candidates as f64;
        *run.gauges
            .entry("query.pattern_automaton_runs")
            .or_default() += runs as f64;
    }
    let twin = run.generator.temporal_round()[shape].query.clone();
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        tally,
        layers,
        ..
    } = run
    else {
        return;
    };
    let path = "/select?count_only=1";
    inproc(
        tracer,
        handle.ctx(),
        tally,
        Op::Temporal,
        rid,
        "POST",
        path,
        twin.as_bytes(),
        200,
    );
    regex_probe(tracer, layers, rid, text);
}

/// Compile each code-regex step of a `seq(...)` text and match it over
/// the chronic-code vocabulary: `regex.compile_us`, `regex.match_ns_per_code`.
fn regex_probe(tracer: &mut Tracer, layers: &mut crate::phases::Samples, rid: u64, text: &str) {
    const CODES: [&str; 16] = [
        "T90", "T89", "E11", "E10", "E14.2", "K86", "K85", "K87", "I10", "I15.1", "K74", "R95",
        "A10BA02", "C07AB02", "P76", "L90",
    ];
    let inner = text.trim_start_matches("seq(").trim_end_matches(')');
    tracer.span("probe.regex", rid, |t| {
        for step in inner.split(" then") {
            let pattern = step.rsplit("] ").next().unwrap_or(step).trim();
            if matches!(pattern, "medication" | "diagnosis" | "interval" | "any") {
                continue;
            }
            let Ok(regex) = t.leaf("regex.compile", rid, || pastas_regex::Regex::new(pattern))
            else {
                continue;
            };
            let rounds = 64;
            let start = Instant::now();
            let mut hits = 0usize;
            for _ in 0..rounds {
                hits += CODES
                    .iter()
                    .filter(|code| regex.is_full_match(code))
                    .count();
            }
            std::hint::black_box(hits);
            let ns = start.elapsed().as_secs_f64() * 1e9;
            layers.push(
                "regex.match_ns_per_code",
                ns / (rounds * CODES.len()) as f64,
            );
        }
    });
}

/// The [`ViewCommand`] the router parses from `VIEW_CYCLE[step]`.
fn view_command(step: usize) -> ViewCommand {
    match step {
        0 => ViewCommand::Sort(SortKey::EntryCount),
        1 => ViewCommand::Sort(SortKey::Span),
        2 => ViewCommand::Sort(SortKey::FirstEntry),
        3 => ViewCommand::AlignOnCode("T90".to_owned()),
        4 => ViewCommand::SetFilter(Some(EntryPredicate::IsDiagnosis)),
        5 => ViewCommand::SetFilter(EntryPredicate::code_regex("K.*").ok()),
        6 => ViewCommand::ClearAlignment,
        _ => ViewCommand::SetFilter(None),
    }
}

/// After one traced interaction: snapshot clone and apply on a private
/// clone, layout and render of the view just fetched, then the same
/// command and SVG again through `route()` (a repeated command costs the
/// same and publishes a new version, so the SVG is fresh again), and the
/// command a third time through `ServeState::apply`, the publish path.
pub fn interaction(run: &mut Run<'_>, rid: u64, step: usize) {
    let Run {
        tracer: Some(tracer),
        handle,
        tally,
        layers,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let command = view_command(step);
    let apply_span = match VIEW_CYCLE[step].0 {
        "sort" => "core.apply_command.sort",
        "align" => "core.apply_command.align",
        _ => "core.apply_command.filter",
    };
    let snapshot = ctx.state.snapshot();
    tracer.span(Op::Command.replay_span(), rid, |t| {
        let mut clone = t.leaf("core.snapshot_clone", rid, || snapshot.workbench.snapshot());
        t.leaf(apply_span, rid, || clone.apply_command(&command).is_ok());
    });
    tracer.span(Op::ViewSvg.replay_span(), rid, |t| {
        let wb = &snapshot.workbench;
        let scene = t.leaf("viz.layout", rid, || {
            wb.layout(&wb.default_viewport(1200.0, 700.0)).0
        });
        let svg = t.leaf("viz.render_svg", rid, || pastas_viz::svg::render(&scene));
        layers.push("viz.svg_bytes", svg.len() as f64);
    });
    drop(snapshot);
    let body = VIEW_CYCLE[step].1.as_bytes();
    inproc(
        tracer,
        ctx,
        tally,
        Op::Command,
        rid,
        "POST",
        "/command",
        body,
        200,
    );
    inproc(
        tracer,
        ctx,
        tally,
        Op::ViewSvg,
        rid,
        "GET",
        VIEW_SVG_PATH,
        b"",
        200,
    );
    let published = tracer.leaf("serve.snapshot_publish", rid, || ctx.state.apply(&command));
    tally.record(
        published
            .map(|_| ())
            .map_err(|e| format!("ServeState::apply: {e}")),
    );
}

/// Serve-layer costs of a warm request, one at a time: parsing its bytes,
/// a response-cache hit, serializing the cached response; and the fill
/// cost of the patient timeline page.
pub fn warm_probes(run: &mut Run<'_>, urls: &[(&'static str, String, Vec<u8>)]) {
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let requests: Vec<(Vec<u8>, Response)> = urls
        .iter()
        .filter_map(|(method, path, body)| {
            let raw = raw_request(method, path, body);
            let response = route(&parse_raw(&raw)?, ctx);
            Some((raw, response))
        })
        .collect();
    let patient = urls
        .iter()
        .find_map(|(_, path, _)| path.strip_prefix("/timeline/P")?.parse::<u64>().ok())
        .map(PatientId);
    let snapshot = ctx.state.snapshot();
    tracer.span("probe.warm", rid, |t| {
        for _ in 0..32 {
            for (raw, response) in &requests {
                t.leaf("serve.http_parse", rid, || parse_raw(raw));
                t.leaf("serve.cache_probe", rid, || probe_cache(ctx));
                let mut wire = Vec::with_capacity(response.body.len() + 256);
                t.leaf("serve.response_write", rid, || {
                    response.write_to(&mut wire, true).ok()
                });
            }
        }
        for _ in 0..8 {
            if let Some(id) = patient {
                t.leaf("viz.patient_timeline", rid, || {
                    snapshot.workbench.export_personal_timeline(id)
                });
            }
        }
    });
}

/// The identity registry of the writer-stage replay: the delta persons,
/// registered as E11 registers them.
fn delta_registry(live: &LiveState) -> IdentityRegistry {
    let mut registry = IdentityRegistry::new();
    for (_, chunk) in live
        .preamble()
        .iter()
        .filter(|(f, _)| *f == DeltaFormat::Persons)
    {
        parse_delta(DeltaFormat::Persons, chunk, &mut registry);
    }
    registry
}

/// Block until the server's compactor has applied everything queued.
fn wait_applied(ctx: &RouterCtx) {
    let give_up = Instant::now() + Duration::from_secs(60);
    while (ctx.ingest.pending_entries() > 0 || ctx.ingest.depth() > 0) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Before one traced ingest batch goes over the socket: the writer's
/// stages on a private clone that is never published (parse, snapshot
/// clone, apply, index delta, compaction), as E11 drives them; then two
/// more chunks through the server's own queue, one by
/// `IngestQueue::try_push` (timed to applied: compactor wake plus
/// `drain_and_apply`) and one by `route()`.
pub fn ingest(run: &mut Run<'_>, live: &mut LiveState, first: bool) {
    let Some((format, text)) = live.peek_chunk() else {
        return;
    };
    let mut registry = delta_registry(live);
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        layers,
        gauges,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let snapshot = ctx.state.snapshot();
    let (batch, us) = tracer.span(Op::Ingest.replay_span(), rid, |t| {
        timed_leaf(t, "ingest.parse_delta", rid, || {
            parse_delta(format, &text, &mut registry)
        })
    });
    layers.push(
        "ingest.parse_delta_us_per_row",
        us / batch.rows_read.max(1) as f64,
    );
    tracer.span("replay.ingest_apply", rid, |t| {
        let mut clone = t.leaf("core.snapshot_clone", rid, || snapshot.workbench.snapshot());
        t.leaf("core.apply_ingest", rid, || {
            clone.apply_ingest(std::slice::from_ref(&batch))
        });
        let dirty: Vec<u32> = batch
            .deltas
            .iter()
            .filter_map(|d| clone.collection().position_of(d.patient.id))
            .map(|p| p as u32)
            .collect();
        t.leaf("query.index_delta", rid, || {
            snapshot
                .workbench
                .index()
                .with_delta(clone.collection(), &dirty)
        });
        t.leaf("query.index_compact", rid, || clone.index().compact());
        t.leaf("core.compact", rid, || clone.compact());
        if first {
            // A fresh snapshot has no dimension tables: the first profile
            // builds them, the second only folds.
            let positions: Vec<u32> = (0..clone.collection().len().min(20_000) as u32).collect();
            let profile_ms = || {
                let start = Instant::now();
                std::hint::black_box(clone.cohort_profile(&positions, snapshot.reference_date, 20));
                start.elapsed().as_secs_f64() * 1e3
            };
            let cold = profile_ms();
            gauges.insert("analytics.tables_build_ms", (cold - profile_ms()).max(0.0));
        }
    });
    drop(snapshot);

    let Some((format, text)) = live.next_chunk() else {
        return;
    };
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        tally,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let pushed = tracer.leaf("serve.ingest_push", rid, || {
        ctx.ingest.try_push(format, &text)
    });
    tracer.leaf("serve.drain_apply", rid, || wait_applied(ctx));
    let outcome = match pushed {
        Ok(receipt) => {
            live.accept(&Receipt {
                entries: receipt.entries as u64,
                rows_read: receipt.rows_read as u64,
                rows_rejected: (receipt.parse_errors + receipt.unlinked_rows) as u64,
            });
            Ok(())
        }
        Err(full) => Err(format!("try_push refused at depth {}", full.queue_depth)),
    };
    tally.record(outcome);

    let Some((format, text)) = live.next_chunk() else {
        return;
    };
    let rid = run.begin_request();
    let Run {
        tracer: Some(tracer),
        handle,
        tally,
        ..
    } = run
    else {
        return;
    };
    let ctx = handle.ctx();
    let path = format!("/ingest?format={}", format.name());
    let accepted = inproc(
        tracer,
        ctx,
        tally,
        Op::Ingest,
        rid,
        "POST",
        &path,
        text.as_bytes(),
        202,
    );
    wait_applied(ctx);
    if let Some(response) = accepted {
        let receipt = Receipt::parse(&String::from_utf8_lossy(&response.body));
        match receipt {
            Ok(receipt) => live.accept(&receipt),
            Err(e) => run
                .tally
                .record(Err(format!("in-process ingest receipt: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(op: &str, rows: usize, elapsed_us: u64, children: Vec<ExplainNode>) -> ExplainNode {
        ExplainNode {
            op: op.to_owned(),
            detail: String::new(),
            rows,
            elapsed_us,
            counters: Vec::new(),
            children,
        }
    }

    #[test]
    fn operator_self_time_subtracts_children() {
        let tree = node(
            "Filter",
            40,
            1_000,
            vec![node(
                "Intersect",
                90,
                600,
                vec![
                    node("IndexFetch", 500, 250, vec![]),
                    node("IndexFetch", 300, 150, vec![]),
                ],
            )],
        );
        let mut acc = BTreeMap::new();
        operator_self_times(&tree, &mut acc);
        assert_eq!(acc["query.op.filter_us"], 400);
        assert_eq!(acc["query.op.intersect_us"], 200);
        assert_eq!(acc["query.op.index_fetch_us"], 400);
        assert_eq!(
            acc.values().sum::<u64>(),
            1_000,
            "self times sum to the root"
        );
        assert_eq!(rows_examined(&tree, 10_000), 90);
        assert_eq!(
            rows_examined(&node("FullScan", 7, 5, vec![]), 10_000),
            10_000
        );
    }

    #[test]
    fn view_commands_match_the_cycle() {
        assert_eq!(VIEW_CYCLE.len(), 8);
        for (step, (kind, body)) in VIEW_CYCLE.iter().enumerate() {
            let expected = match view_command(step) {
                ViewCommand::Sort(_) => "sort",
                ViewCommand::AlignOnCode(_) | ViewCommand::ClearAlignment => "align",
                ViewCommand::SetFilter(_) => "filter",
            };
            assert_eq!(*kind, expected, "step {step}: {body}");
        }
    }

    #[test]
    fn raw_requests_parse_back() {
        let request =
            parse_raw(&raw_request("POST", "/select?count_only=1", b"has(T90)")).expect("parses");
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/select")
        );
        assert_eq!(request.param("count_only"), Some("1"));
        assert_eq!(request.body, b"has(T90)");
    }
}
