//! Request routing: one function from [`Request`] to [`Response`].
//!
//! Endpoints (all responses JSON unless noted):
//!
//! | route | what it does |
//! |---|---|
//! | `POST /select` | body = query-language text → cohort ids/counts |
//! | `POST /cohort` | body = query text → materialized cohort handle id |
//! | `GET /cohort/{id}/stats?k=` | dimension histograms over a frozen cohort (handle memo) |
//! | `GET /cohort/{id}/timeline` | monthly event counts over a frozen cohort (handle memo) |
//! | `GET /cohort/{id}.svg?w=&h=` | histogram small-multiples panel (SVG; the stats memo) |
//! | `GET /timeline/{patient}` | one patient's personal timeline (HTML) |
//! | `GET /cohort.svg?w=&h=&overview=` | current view rendered as SVG |
//! | `GET /cohort.txt?cols=&rows=` | current view rendered as terminal text |
//! | `POST /command` | JSON view command (sort/align/filter) → new version |
//! | `GET /details?x=&y=&w=&h=` | details-on-demand under a cursor |
//! | `GET /metrics` | live counters, cache stats, latency percentiles |
//! | `GET /healthz` | liveness probe (text) |
//!
//! Cacheable GET/select responses go through the [`ResponseCache`]; the
//! key prefix is the snapshot's version (monotone per server), the
//! suffix the endpoint's own parameters — for `/select`, the query's
//! canonical [`HistoryQuery::fingerprint`](pastas_query::HistoryQuery::fingerprint).

use crate::cache::ResponseCache;
use crate::http::{Request, Response};
use crate::ingest::{IngestConfig, IngestQueue};
use crate::state::{ServeState, Snapshot};
use pastas_core::{CohortLookup, CohortRegistry, RegistryConfig, ViewCommand, MEMO_TOP_K};
use pastas_ingest::json::{write_string, Json};
use pastas_ingest::DeltaFormat;
use pastas_model::PatientId;
use pastas_query::{parse_query, EntryPredicate, SortKey};
use std::fmt::Write as _;
use std::sync::Arc;

/// Everything a handler can touch. The server owns one and hands
/// references to every connection.
pub struct RouterCtx {
    /// The swap point for published snapshots, shared with the ingest
    /// queue, which links ids against it and publishes through it.
    pub state: Arc<ServeState>,
    /// The shared response cache.
    pub cache: ResponseCache,
    /// The server's request metrics; the router reads it for `/metrics`.
    pub metrics: crate::metrics::Metrics,
    /// The bounded streaming-ingest queue behind `POST /ingest`.
    pub ingest: IngestQueue,
    /// Materialized cohort handles behind `POST /cohort` and
    /// `GET /cohort/{id}/*`, pinned to the snapshot version they were
    /// frozen against.
    pub cohorts: CohortRegistry,
}

impl RouterCtx {
    /// A context over an initial workbench with default ingest tuning.
    pub fn new(workbench: pastas_core::Workbench) -> RouterCtx {
        RouterCtx::with_ingest_config(workbench, IngestConfig::default())
    }

    /// [`RouterCtx::new`] with explicit ingest tuning (queue capacity,
    /// 429 `Retry-After`).
    pub fn with_ingest_config(
        workbench: pastas_core::Workbench,
        ingest: IngestConfig,
    ) -> RouterCtx {
        let state = Arc::new(ServeState::new(workbench));
        RouterCtx {
            ingest: IngestQueue::new(Arc::clone(&state), ingest),
            state,
            cache: ResponseCache::default(),
            metrics: crate::metrics::Metrics::new(),
            cohorts: CohortRegistry::new(RegistryConfig::default()),
        }
    }
}

/// `s` as a JSON string literal, for the `format!`-built bodies below.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

fn error_json(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", quoted(message)))
}

/// Route one request. Never panics: every failure path is a status code.
/// (Sole exception: the debug-only `/__fault/cache-poison` route panics
/// by design, to exercise the connection loop's catch and the poisoned-
/// lock recovery — it is compiled out of release binaries.)
pub fn route(req: &Request, ctx: &RouterCtx) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok"),
        ("GET", "/metrics") => metrics_response(ctx),
        ("POST", "/select") => select(req, ctx),
        ("POST", "/cohort") => cohort_materialize(req, ctx),
        ("POST", "/command") => command(req, ctx),
        ("POST", "/ingest") => ingest(req, ctx),
        ("POST", "/compact") => compact(ctx),
        ("GET", "/cohort.svg") => cohort_svg(req, ctx),
        ("GET", "/cohort.txt") => cohort_txt(req, ctx),
        ("GET", "/details") => details(req, ctx),
        ("GET", path) if path.starts_with("/timeline/") => timeline(path, ctx),
        // Frozen-cohort reads; "/cohort.svg" (the live view) has an
        // exact arm above and never reaches this prefix match.
        ("GET", path) if path.starts_with("/cohort/") => cohort_read(path, req, ctx),
        // Fault injection for the poisoned-lock regression test: panics
        // while holding the cache mutex. Debug builds only — the route
        // does not exist in a release binary.
        #[cfg(debug_assertions)]
        ("POST", "/__fault/cache-poison") => ctx.cache.poison_for_test(),
        (
            _,
            "/select" | "/cohort" | "/command" | "/ingest" | "/compact" | "/cohort.svg"
            | "/cohort.txt" | "/details" | "/metrics",
        ) => error_json(405, "method not allowed"),
        _ => error_json(404, "no such route"),
    }
}

/// Serve from cache or compute-and-fill. The whole response object is
/// shared via `Arc` internally; what goes to the wire is a clone of the
/// cached value.
fn cached(
    ctx: &RouterCtx,
    snapshot: &Snapshot,
    suffix: &str,
    build: impl FnOnce() -> Response,
) -> Response {
    ctx.cache.retire_before(snapshot.version);
    let key = format!("{}:{}", snapshot.cache_prefix(), suffix);
    if let Some(hit) = ctx.cache.get(&key) {
        return (*hit).clone();
    }
    let response = build();
    if response.status == 200 {
        ctx.cache.put(key, Arc::new(response.clone()));
    }
    response
}

fn select(req: &Request, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let text = req.body_str();
    let text = text.trim();
    if text.is_empty() {
        return error_json(400, "empty query: POST the query text, e.g. has(T90)");
    }
    // The reference date for age(..) clauses: the collection's last event
    // (queries are relative to the data, not the server's wall clock),
    // precomputed at publication because stats() walks every entry.
    let query = match parse_query(text, snapshot.reference_date) {
        Ok(q) => q,
        Err(e) => return error_json(400, &e.to_string()),
    };
    let count_only = req.param("count_only").is_some_and(|v| v != "0");
    let explain = req.param("explain").is_some_and(|v| v != "0");
    // The cache keys on the *canonical* fingerprint, so commuted or
    // double-negated spellings of one query share a cached response.
    let suffix = format!(
        "select:{}:{}:{}",
        u8::from(count_only),
        u8::from(explain),
        pastas_query::canonical_fingerprint(&query)
    );
    cached(ctx, &snapshot, &suffix, || {
        // One path from positions to the body; `explain` only chooses
        // which workbench call produces them.
        let workbench = &snapshot.workbench;
        let (positions, explained) = if explain {
            let (positions, info) = workbench.select_explain(&query);
            (positions, Some(info))
        } else {
            (workbench.select_positions(&query), None)
        };
        let mut body =
            String::with_capacity(64 + if count_only { 0 } else { positions.len() * 11 });
        let _ = write!(body, "{{\"version\":{},\"count\":{}", snapshot.version, positions.len());
        if !count_only {
            // Ascending patient id, whatever the row order: a collection
            // holding ingest-appended patients is not id-ordered.
            let histories = workbench.collection().histories();
            let mut ids: Vec<PatientId> = positions
                .iter()
                .filter_map(|&at| histories.get(at as usize))
                .map(|h| h.id())
                .collect();
            if !ids.is_sorted() {
                ids.sort_unstable();
            }
            body.push_str(",\"ids\":[");
            for (i, id) in ids.iter().enumerate() {
                body.push_str(if i > 0 { ",\"" } else { "\"" });
                id.push_to(&mut body);
                body.push('"');
            }
            body.push(']');
        }
        if let Some(info) = explained {
            let _ = write!(
                body,
                ",\"explain\":{{\"full_scan\":{},\"plan\":{}}}",
                info.used_full_scan(),
                info.render_json()
            );
        }
        body.push('}');
        Response::json(200, body)
    })
}

/// `POST /cohort`: run the selection once, freeze the resulting posting
/// bitmap in the registry, and answer `201` with the handle id. Every
/// later `GET /cohort/{id}/*` reuses the frozen positions without
/// re-planning. Re-materializing an equivalent query (same canonical
/// fingerprint) at the same version returns the existing handle.
fn cohort_materialize(req: &Request, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let text = req.body_str();
    let text = text.trim();
    if text.is_empty() {
        return error_json(400, "empty query: POST the query text, e.g. has(T90)");
    }
    let query = match parse_query(text, snapshot.reference_date) {
        Ok(q) => q,
        Err(e) => return error_json(400, &e.to_string()),
    };
    let positions = snapshot.workbench.select_positions(&query);
    let fingerprint = snapshot.workbench.canonical_query_fingerprint(&query);
    let handle = ctx.cohorts.materialize(snapshot.version, &fingerprint, text, &positions);
    Response::json(
        201,
        format!(
            "{{\"id\":{},\"version\":{},\"count\":{}}}",
            quoted(&handle.id),
            handle.version,
            handle.count
        ),
    )
}

/// `GET /cohort/{id}/stats`, `/cohort/{id}/timeline`, `/cohort/{id}.svg`:
/// reads over a frozen cohort. A handle pinned to a superseded snapshot
/// answers `410 Gone` with the original query as a re-materialize hint.
fn cohort_read(path: &str, req: &Request, ctx: &RouterCtx) -> Response {
    let rest = path.get("/cohort/".len()..).unwrap_or_default();
    let (id, kind) = if let Some(id) = rest.strip_suffix(".svg") {
        (id, "svg")
    } else if let Some((id, kind)) = rest.split_once('/') {
        (id, kind)
    } else {
        return error_json(404, "no such route");
    };
    let snapshot = ctx.state.snapshot();
    let handle = match ctx.cohorts.lookup(id, snapshot.version) {
        CohortLookup::Hit(handle) => handle,
        CohortLookup::Stale { version, query } => {
            return Response::json(
                410,
                format!(
                    "{{\"error\":\"cohort is stale\",\"id\":{},\"materialized_version\":{},\
                     \"current_version\":{},\"query\":{},\
                     \"hint\":\"POST /cohort with the query to re-materialize\"}}",
                    quoted(id),
                    version,
                    snapshot.version,
                    quoted(&query)
                ),
            );
        }
        CohortLookup::Missing => return error_json(404, &format!("no cohort {id:?}")),
    };
    // The handle owns its aggregates: the first stats or panel read
    // folds the profile, the first timeline read walks the months, and
    // every other `k` or canvas size serializes the memo. The planner
    // never runs. Repeats of one URL stop at the response cache.
    let profile = |k: usize| {
        ctx.cohorts.profile(&handle, &snapshot.workbench, snapshot.reference_date).with_top_k(k)
    };
    match kind {
        "stats" => {
            let k = req.param_or("k", 20_usize).clamp(1, MEMO_TOP_K);
            let suffix = format!("cohort:{}:stats:{k}", handle.id);
            cached(ctx, &snapshot, &suffix, || {
                let profile = profile(k);
                Response::json(
                    200,
                    format!(
                        "{{\"id\":{},\"version\":{},\"profile\":{}}}",
                        quoted(&handle.id),
                        handle.version,
                        profile.to_json()
                    ),
                )
            })
        }
        "timeline" => {
            let suffix = format!("cohort:{}:timeline", handle.id);
            cached(ctx, &snapshot, &suffix, || {
                let months = ctx.cohorts.monthly(&handle, &snapshot.workbench);
                let mut body = String::with_capacity(64 + months.len() * 16);
                let _ = write!(
                    body,
                    "{{\"id\":{},\"version\":{},\"count\":{},\"months\":[",
                    quoted(&handle.id),
                    handle.version,
                    handle.count
                );
                for (i, (month, n)) in months.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "[\"{:04}-{:02}\",{n}]", month.year(), month.month());
                }
                body.push_str("]}");
                Response::json(200, body)
            })
        }
        "svg" => {
            let w = dim(req, "w", 900.0);
            let h = dim(req, "h", 600.0);
            let suffix = format!("cohort:{}:svg:{w}:{h}", handle.id);
            cached(ctx, &snapshot, &suffix, || {
                let svg = pastas_viz::histogram::panel_svg(&profile(20), w, h);
                Response::with_body(200, "image/svg+xml", svg)
            })
        }
        other => error_json(404, &format!("no cohort endpoint {other:?}")),
    }
}

/// `POST /ingest?format=<source>`: parse one source increment and queue
/// its deltas for the apply worker. `202 Accepted` with parse
/// counts, or `429 Too Many Requests` + `Retry-After` when the bounded
/// queue is full — explicit backpressure, never an unbounded buffer.
fn ingest(req: &Request, ctx: &RouterCtx) -> Response {
    let Some(format) = req.param("format").and_then(DeltaFormat::from_name) else {
        return error_json(
            400,
            "ingest needs ?format= one of persons|claims|hospital|municipal|prescriptions",
        );
    };
    let text = req.body_str();
    if text.trim().is_empty() {
        return error_json(400, "empty ingest body: POST the source rows, header line first");
    }
    match ctx.ingest.try_push(format, &text) {
        Ok(receipt) => Response::json(
            202,
            format!(
                "{{\"accepted\":true,\"format\":\"{}\",\"rows_read\":{},\"parse_errors\":{},\
                 \"unlinked_rows\":{},\"entries\":{},\"queue_depth\":{}}}",
                format.name(),
                receipt.rows_read,
                receipt.parse_errors,
                receipt.unlinked_rows,
                receipt.entries,
                receipt.queue_depth
            ),
        ),
        Err(full) => Response::retry_later_json(
            429,
            format!("{{\"error\":\"ingest queue full\",\"queue_depth\":{}}}", full.queue_depth),
            ctx.ingest.retry_after_secs(),
        ),
    }
}

/// `POST /compact`: synchronously drain the ingest queue, apply every
/// pending delta, and publish, without waiting for the apply worker's
/// pace. The quiesce point — after a 200, everything previously 202'd is
/// queryable.
fn compact(ctx: &RouterCtx) -> Response {
    let report = ctx.ingest.drain_and_apply();
    let snapshot = ctx.state.snapshot();
    // `side_rows` is always 0; benchmark/src/phases.rs reads it.
    Response::json(
        200,
        format!(
            "{{\"version\":{},\"batches_applied\":{},\"entries_applied\":{},\"side_rows\":0}}",
            snapshot.version, report.batches, report.entries_applied
        ),
    )
}

fn command(req: &Request, ctx: &RouterCtx) -> Response {
    let doc = match Json::parse(&req.body_str()) {
        Ok(doc) => doc,
        Err(e) => return error_json(400, &format!("bad JSON: {e}")),
    };
    let command = match parse_command(&doc) {
        Ok(c) => c,
        Err(message) => return error_json(400, &message),
    };
    match ctx.state.apply(&command) {
        Ok(version) => Response::json(200, format!("{{\"version\":{version}}}")),
        Err(e) => error_json(400, &e.to_string()),
    }
}

fn parse_command(doc: &Json) -> Result<ViewCommand, String> {
    let name = doc
        .get("command")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"command\"".to_owned())?;
    // A field that is present must be a string: a wrongly-typed one is
    // an error, not the same as leaving it out.
    let field = |name: &str| {
        doc.get(name)
            .map(|v| v.as_str().ok_or_else(|| format!("\"{name}\" must be a string")))
            .transpose()
    };
    match name {
        "sort" => {
            let key = match field("key")? {
                Some("patient_id") | None => SortKey::PatientId,
                Some("first_entry") => SortKey::FirstEntry,
                Some("entry_count") => SortKey::EntryCount,
                Some("span") => SortKey::Span,
                Some(other) => return Err(format!("unknown sort key {other:?}")),
            };
            Ok(ViewCommand::Sort(key))
        }
        "align" => {
            let pattern = field("pattern")?.ok_or_else(|| "align needs \"pattern\"".to_owned())?;
            Ok(ViewCommand::AlignOnCode(pattern.to_owned()))
        }
        "clear_alignment" => Ok(ViewCommand::ClearAlignment),
        "filter" => match field("code")? {
            Some(pattern) => EntryPredicate::code_regex(pattern)
                .map(|p| ViewCommand::SetFilter(Some(p)))
                .map_err(|e| e.to_string()),
            None => match field("kind")? {
                Some("diagnosis") => Ok(ViewCommand::SetFilter(Some(EntryPredicate::IsDiagnosis))),
                Some("medication") => {
                    Ok(ViewCommand::SetFilter(Some(EntryPredicate::IsMedication)))
                }
                Some("interval") => Ok(ViewCommand::SetFilter(Some(EntryPredicate::IsInterval))),
                Some(other) => Err(format!("unknown filter kind {other:?}")),
                None => Ok(ViewCommand::SetFilter(None)),
            },
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Clamp a user-supplied canvas dimension to something renderable. `NaN`
/// and the infinities parse as `f64` but are no size: like an
/// unparsable value they fall back to the default (`f64::clamp` would
/// pass a `NaN` through to the renderer and the cache key).
fn dim(req: &Request, name: &str, default: f64) -> f64 {
    let v: f64 = req.param_or(name, default);
    if v.is_finite() { v } else { default }.clamp(16.0, 16_384.0)
}

fn cohort_svg(req: &Request, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let w = dim(req, "w", 900.0);
    let h = dim(req, "h", 500.0);
    let overview = req.param("overview").is_some_and(|v| v != "0");
    let suffix = format!("svg:{w}:{h}:{}", u8::from(overview));
    cached(ctx, &snapshot, &suffix, || {
        let svg = if overview {
            snapshot.workbench.render_overview_svg(w, h)
        } else {
            snapshot.workbench.render_svg(w, h)
        };
        Response::with_body(200, "image/svg+xml", svg)
    })
}

fn cohort_txt(req: &Request, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let cols = req.param_or("cols", 100_usize).clamp(16, 1024);
    let rows = req.param_or("rows", 30_usize).clamp(4, 512);
    let suffix = format!("txt:{cols}:{rows}");
    cached(ctx, &snapshot, &suffix, || {
        Response::text(200, snapshot.workbench.render_ascii(cols, rows))
    })
}

fn timeline(path: &str, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let raw = path.get("/timeline/".len()..).unwrap_or_default();
    let Ok(id) = raw.trim_start_matches('P').parse::<u64>() else {
        return error_json(400, &format!("bad patient id {raw:?}"));
    };
    let suffix = format!("timeline:{id}");
    cached(ctx, &snapshot, &suffix, || {
        match snapshot.workbench.export_personal_timeline(PatientId(id)) {
            Some(html) => Response::with_body(200, "text/html; charset=utf-8", html),
            None => error_json(404, &format!("no patient {raw}")),
        }
    })
}

fn details(req: &Request, ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let w = dim(req, "w", 900.0);
    let h = dim(req, "h", 500.0);
    let (Some(x), Some(y)) = (
        req.param("x").and_then(|v| v.parse::<f64>().ok()),
        req.param("y").and_then(|v| v.parse::<f64>().ok()),
    ) else {
        return error_json(400, "details needs numeric x and y");
    };
    if !(x.is_finite() && y.is_finite()) {
        return error_json(400, "details needs finite x and y");
    }
    let viewport = snapshot.workbench.default_viewport(w, h);
    match snapshot.workbench.details_at(&viewport, x, y) {
        Some(text) => Response::json(
            200,
            format!("{{\"version\":{},\"details\":{}}}", snapshot.version, quoted(&text)),
        ),
        None => error_json(404, "nothing under the cursor"),
    }
}

fn metrics_response(ctx: &RouterCtx) -> Response {
    let snapshot = ctx.state.snapshot();
    let wb = &snapshot.workbench;
    let index_footprint = wb.index().footprint();
    let cache_lookups = ctx.cache.hits() + ctx.cache.misses();
    let hit_rate =
        if cache_lookups == 0 { 0.0 } else { ctx.cache.hits() as f64 / cache_lookups as f64 };
    let (rss, hwm) = crate::metrics::resident_bytes();
    let extra = [
        ("rss_bytes", rss as f64),
        ("hwm_bytes", hwm as f64),
        ("state_version", snapshot.version as f64),
        ("patients", wb.collection().len() as f64),
        ("cache_entries", ctx.cache.len() as f64),
        ("cache_bytes", ctx.cache.bytes() as f64),
        ("cache_hits", ctx.cache.hits() as f64),
        ("cache_misses", ctx.cache.misses() as f64),
        ("cache_hit_rate", hit_rate),
        ("selection_cache_entries", wb.selection_cache_len() as f64),
        ("selection_cache_hits", wb.selection_cache_hits() as f64),
        ("selection_cache_misses", wb.selection_cache_misses() as f64),
        ("selection_cache_bytes", wb.selection_cache_bytes() as f64),
        ("select_index_hits", wb.select_index_hits() as f64),
        ("select_scan_fallbacks", wb.select_scan_fallbacks() as f64),
        ("pattern_candidates", wb.pattern_candidates() as f64),
        ("pattern_automaton_runs", wb.pattern_automaton_runs() as f64),
        ("row_table_bytes", wb.collection().row_bytes() as f64),
        ("id_map_bytes", wb.collection().id_map_bytes() as f64),
        ("shards", index_footprint.shards as f64),
        ("postings_compressed_bytes", index_footprint.postings_compressed_bytes as f64),
        ("postings_uncompressed_bytes_est", index_footprint.postings_uncompressed_bytes_est as f64),
        // Always 0; benchmark/src/phases.rs reads it.
        ("side_index_rows", 0.0),
        ("ingest_queue_depth", ctx.ingest.depth() as f64),
        ("ingest_pending_entries", ctx.ingest.pending_entries() as f64),
        ("ingest_batches_total", ctx.ingest.batches_total() as f64),
        ("ingest_rejected_total", ctx.ingest.rejected_total() as f64),
        ("ingest_applied_entries_total", ctx.ingest.applied_entries_total() as f64),
        ("ingest_registered_persons", ctx.ingest.registered_persons() as f64),
        ("cohort_registry_size", ctx.cohorts.len() as f64),
        ("cohort_registry_bytes", ctx.cohorts.bytes() as f64),
        ("cohort_materializations_total", ctx.cohorts.materializations_total() as f64),
        ("cohort_stale_hits_total", ctx.cohorts.stale_hits_total() as f64),
        ("cohort_profile_folds_total", ctx.cohorts.profile_folds_total() as f64),
    ];
    Response::json(200, ctx.metrics.render_json(&extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Limits, RequestReader};
    use pastas_core::Workbench;
    use pastas_synth::{generate_collection, SynthConfig};

    fn ctx() -> RouterCtx {
        RouterCtx::new(Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(150),
            11,
        )))
    }

    fn request(raw: &[u8]) -> Request {
        RequestReader::new(raw, Limits::default()).next_request().unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        request(
            format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                .as_bytes(),
        )
    }

    fn get(path: &str) -> Request {
        request(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
    }

    #[test]
    fn select_returns_ids_and_caches_the_repeat() {
        let ctx = ctx();
        let first = route(&post("/select", "has(T90)"), &ctx);
        assert_eq!(first.status, 200);
        let body = String::from_utf8(first.body.clone()).unwrap();
        assert!(body.contains("\"count\":"), "{body}");
        assert!(body.contains("\"ids\":[\"P"), "{body}");
        assert_eq!(ctx.cache.misses(), 1);
        let second = route(&post("/select", "has(T90)"), &ctx);
        assert_eq!(second.body, first.body);
        assert_eq!(ctx.cache.hits(), 1, "repeat is a cache hit");
        // Whitespace-insensitive via the canonical query fingerprint.
        let third = route(&post("/select", "  has(T90)  "), &ctx);
        assert_eq!(third.body, first.body);
        assert_eq!(ctx.cache.hits(), 2);
    }

    #[test]
    fn select_explain_renders_the_plan() {
        let ctx = ctx();
        // Compound query with a negated code clause: the acceptance-
        // criteria shape. Must be index-served, and say so.
        let resp = route(&post("/select?explain=1", "has(K.*) and lacks(T90)"), &ctx);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        assert!(body.contains("\"explain\":{"), "{body}");
        assert!(body.contains("\"full_scan\":false"), "{body}");
        assert!(body.contains("\"op\":\"IndexFetch\""), "{body}");
        assert!(Json::parse(&body).is_ok(), "explain response is valid JSON");
        // Same query without explain: same count, no explain payload,
        // distinct cache slot.
        let plain = route(&post("/select", "has(K.*) and lacks(T90)"), &ctx);
        let plain_body = String::from_utf8(plain.body).unwrap();
        assert!(!plain_body.contains("explain"), "{plain_body}");
        assert_eq!(ctx.cache.misses(), 2, "explain and plain cache separately");
        // And the counters surfaced through /metrics reflect the planner.
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"select_index_hits\":"), "{metrics}");
        assert!(metrics.contains("\"select_scan_fallbacks\":0"), "{metrics}");
    }

    #[test]
    fn select_explain_renders_pattern_scans() {
        let ctx = ctx();
        // A temporal sequence over two covered code steps: the planner
        // must prefilter through the index, and the explain tree must
        // show the PatternScan with its candidate counters.
        let resp = route(&post("/select?explain=1", "seq(T90 then[0d..3650d] K.*)"), &ctx);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"op\":\"PatternScan\""), "{body}");
        assert!(body.contains("\"counters\""), "{body}");
        assert!(body.contains("\"full_scan\":false"), "{body}");
        assert!(Json::parse(&body).is_ok(), "{body}");
        // The pattern gauges made it to /metrics.
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"pattern_candidates\":"), "{metrics}");
        assert!(metrics.contains("\"pattern_automaton_runs\":"), "{metrics}");
        assert!(!metrics.contains("\"pattern_candidates\":0"), "explain ran: {metrics}");
    }

    #[test]
    fn commuted_select_spellings_share_a_cached_response() {
        let ctx = ctx();
        let first = route(&post("/select", "has(T90) and age(40..90)"), &ctx);
        assert_eq!(first.status, 200);
        assert_eq!(ctx.cache.misses(), 1);
        let swapped = route(&post("/select", "age(40..90) and has(T90)"), &ctx);
        assert_eq!(swapped.body, first.body);
        assert_eq!(ctx.cache.hits(), 1, "commuted clauses hit the response cache");
    }

    #[test]
    fn snapshot_swap_to_sharded_store_keeps_warm_select_correct() {
        let ctx = ctx();
        let query = "has(K.*) and lacks(T90)";
        let v1 = route(&post("/select", query), &ctx);
        assert_eq!(v1.status, 200);
        let v1_body = String::from_utf8(v1.body.clone()).unwrap();
        assert!(v1_body.contains("\"version\":1"), "{v1_body}");
        route(&post("/select", query), &ctx);
        assert_eq!(ctx.cache.hits(), 1, "v1 cache is warm");
        // The same population rebuilt on a patient-range-sharded store
        // (three arenas), published as version 2 over the warm cache.
        let config = SynthConfig { shard_patients: 64, ..SynthConfig::with_patients(150) };
        let collection = generate_collection(config, 11);
        assert_eq!(collection.sharded_store().shard_count(), 3);
        assert_eq!(ctx.state.replace(Workbench::from_collection(collection)), 2);
        let v2 = route(&post("/select", query), &ctx);
        assert_eq!(v2.status, 200);
        let v2_body = String::from_utf8(v2.body).unwrap();
        assert!(v2_body.contains("\"version\":2"), "{v2_body}");
        assert_eq!(ctx.cache.hits(), 1, "stale v1 entry is unreachable, not served");
        // Same cohort either way: identical count and ids.
        let after = |b: &str, k: &str| b.split(k).nth(1).map(str::to_owned);
        assert_eq!(after(&v1_body, "\"count\":"), after(&v2_body, "\"count\":"));
        assert_eq!(after(&v1_body, "\"ids\":"), after(&v2_body, "\"ids\":"));
        // The v2 repeat is served warm again.
        let repeat = route(&post("/select", query), &ctx);
        assert_eq!(ctx.cache.hits(), 2, "v2 repeat hits the cache");
        assert_eq!(String::from_utf8(repeat.body).unwrap(), v2_body);
        // And the postings gauges are visible on /metrics.
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"shards\":1"), "{metrics}");
        assert!(metrics.contains("\"postings_compressed_bytes\":"), "{metrics}");
        assert!(metrics.contains("\"row_table_bytes\":"), "{metrics}");
        assert!(metrics.contains("\"postings_uncompressed_bytes_est\":"), "{metrics}");
    }

    const DELTA_PERSONS: &str = "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n";
    const DELTA_CLAIMS: &str =
        "claim_id;patient;date;provider;icpc;note\nX1;NIN-0900001;04.05.2013;GP;T90;\n";

    fn count_of(body: &[u8]) -> u64 {
        let text = String::from_utf8_lossy(body);
        Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("count").and_then(|c| c.as_f64()))
            .map(|v| v as u64)
            .expect("count field")
    }

    #[test]
    fn ingest_then_compact_makes_the_delta_selectable() {
        let ctx = ctx();
        let before = count_of(&route(&post("/select", "has(T90)"), &ctx).body);
        let accepted = route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx);
        assert_eq!(accepted.status, 202);
        let accepted = route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx);
        assert_eq!(accepted.status, 202);
        let body = String::from_utf8(accepted.body).unwrap();
        assert!(body.contains("\"accepted\":true"), "{body}");
        assert!(body.contains("\"entries\":1"), "{body}");
        let compacted = route(&post("/compact", ""), &ctx);
        assert_eq!(compacted.status, 200);
        let body = String::from_utf8(compacted.body).unwrap();
        assert!(body.contains("\"batches_applied\":2"), "{body}");
        assert!(body.contains("\"side_rows\":0"), "{body}");
        let after = count_of(&route(&post("/select", "has(T90)"), &ctx).body);
        assert_eq!(after, before + 1, "streamed patient joins the cohort");
        // Replaying the same rows is absorbed by fingerprint dedup: the
        // queue accepts them, application drops them, nothing re-publishes.
        let version = ctx.state.version();
        route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx);
        let second = route(&post("/compact", ""), &ctx);
        assert_eq!(second.status, 200);
        assert_eq!(ctx.state.version(), version, "duplicate delta publishes nothing");
        // The ingest gauges made it to /metrics.
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"ingest_batches_total\":3"), "{metrics}");
        assert!(metrics.contains("\"ingest_applied_entries_total\":1"), "{metrics}");
        assert!(metrics.contains("\"side_index_rows\":0"), "{metrics}");
        assert!(metrics.contains("\"ingest_queue_depth\":0"), "{metrics}");
    }

    /// An ingest-appended patient with an id below every synthetic one
    /// sits in the last row: ids must still come out ascending, and
    /// identically with and without `explain=1` (the two spellings used
    /// to take different paths, one in row order).
    #[test]
    fn select_lists_ids_ascending_with_and_without_explain() {
        fn ids(body: &[u8]) -> String {
            let text = String::from_utf8_lossy(body).into_owned();
            let ids = text.get(text.find("\"ids\":[").expect("ids in the body")..).unwrap();
            ids.get(..=ids.find(']').expect("ids end")).unwrap().to_owned()
        }
        let ctx = ctx();
        let persons = "nin;birth_date;sex\nNIN-0000000;1950-01-01;F\n";
        let claims =
            "claim_id;patient;date;provider;icpc;note\nX1;NIN-0000000;04.05.2013;GP;T90;\n";
        assert_eq!(route(&post("/ingest?format=persons", persons), &ctx).status, 202);
        assert_eq!(route(&post("/ingest?format=claims", claims), &ctx).status, 202);
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        let snapshot = ctx.state.snapshot();
        let rows = snapshot.workbench.collection().histories();
        assert_eq!(rows.last().map(|h| h.id()), Some(PatientId(0)), "appended, lowest id");
        for query in ["has(T90)", "has(T90) and age(40..100) and sex(F)"] {
            let plain = route(&post("/select", query), &ctx);
            let explained = route(&post("/select?explain=1", query), &ctx);
            assert_eq!((plain.status, explained.status), (200, 200));
            assert!(
                ids(&plain.body).starts_with("\"ids\":[\"P0000000\",\"P"),
                "{}",
                ids(&plain.body)
            );
            assert_eq!(ids(&plain.body), ids(&explained.body), "{query}");
            assert_eq!(count_of(&plain.body), count_of(&explained.body), "{query}");
            assert_eq!(count_of(&plain.body) as usize, ids(&plain.body).matches('P').count());
        }
    }

    #[test]
    fn ingest_invalidates_stale_selects_without_breaking_the_cache() {
        let ctx = ctx();
        let stale = route(&post("/select", "has(T90)"), &ctx);
        let unrelated = route(&post("/select", "has(K74)"), &ctx);
        let unrelated_count = count_of(&unrelated.body);
        assert_eq!(ctx.cache.misses(), 2);
        route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx);
        route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx);
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        // The stale pre-ingest answer is unreachable (new version in the
        // key): the select recomputes and sees the streamed patient.
        let hits_before = ctx.cache.hits();
        let fresh = route(&post("/select", "has(T90)"), &ctx);
        assert_eq!(ctx.cache.hits(), hits_before, "stale entry not served");
        assert_eq!(count_of(&fresh.body), count_of(&stale.body) + 1);
        assert_ne!(fresh.body, stale.body);
        // Caching still works at the new version, for this query and for
        // one the ingest did not touch.
        let repeat = route(&post("/select", "has(T90)"), &ctx);
        assert_eq!(ctx.cache.hits(), hits_before + 1, "fresh entry is cached");
        assert_eq!(repeat.body, fresh.body);
        let unrelated_fresh = route(&post("/select", "has(K74)"), &ctx);
        assert_eq!(count_of(&unrelated_fresh.body), unrelated_count);
        route(&post("/select", "has(K74)"), &ctx);
        assert_eq!(ctx.cache.hits(), hits_before + 2);
    }

    #[test]
    fn ingest_backpressure_answers_429_with_retry_after() {
        let ctx = RouterCtx::with_ingest_config(
            Workbench::from_collection(generate_collection(SynthConfig::with_patients(50), 3)),
            crate::ingest::IngestConfig { queue_capacity: 1, ..Default::default() },
        );
        assert_eq!(route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx).status, 202);
        let refused = route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx);
        assert_eq!(refused.status, 429);
        assert!(
            refused.headers.iter().any(|(n, v)| n == "Retry-After" && !v.is_empty()),
            "{:?}",
            refused.headers
        );
        assert!(String::from_utf8(refused.body).unwrap().contains("queue full"));
        // Draining the queue re-opens admission.
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        assert_eq!(route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx).status, 202);
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"ingest_rejected_total\":1"), "{metrics}");
    }

    fn cohort_id(body: &[u8]) -> String {
        let text = String::from_utf8_lossy(body);
        Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_owned))
            .expect("id field")
    }

    #[test]
    fn cohort_materialize_then_read_stats_timeline_and_svg() {
        let ctx = ctx();
        let made = route(&post("/cohort", "has(T90)"), &ctx);
        assert_eq!(made.status, 201);
        let made_body = String::from_utf8(made.body.clone()).unwrap();
        assert!(made_body.contains("\"version\":1"), "{made_body}");
        let id = cohort_id(&made.body);
        let count = count_of(&made.body);
        assert!(count > 0, "synthetic collection has T90 patients");
        // An equivalent spelling at the same version dedups to the
        // same handle instead of burning a new id.
        let again = route(&post("/cohort", "  has(T90)  "), &ctx);
        assert_eq!(again.status, 201);
        assert_eq!(cohort_id(&again.body), id);
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"cohort_registry_size\":1"), "{metrics}");
        assert!(metrics.contains("\"cohort_materializations_total\":1"), "{metrics}");
        assert!(metrics.contains("\"cohort_registry_bytes\":"), "{metrics}");

        let stats = route(&get(&format!("/cohort/{id}/stats")), &ctx);
        assert_eq!(stats.status, 200);
        let stats_body = String::from_utf8(stats.body).unwrap();
        assert!(Json::parse(&stats_body).is_ok(), "stats is valid JSON: {stats_body}");
        assert!(stats_body.contains(&format!("\"cohort_size\":{count}")), "{stats_body}");
        assert!(stats_body.contains("\"age_band\""), "{stats_body}");
        assert!(stats_body.contains("\"icd_chapter\""), "{stats_body}");

        let timeline = route(&get(&format!("/cohort/{id}/timeline")), &ctx);
        assert_eq!(timeline.status, 200);
        let timeline_body = String::from_utf8(timeline.body).unwrap();
        assert!(timeline_body.contains("\"months\":[[\""), "{timeline_body}");

        let svg = route(&get(&format!("/cohort/{id}.svg?w=800&h=500")), &ctx);
        assert_eq!(svg.status, 200);
        let svg_body = String::from_utf8(svg.body).unwrap();
        assert!(svg_body.contains("<svg"), "{svg_body}");
        assert!(svg_body.contains("age band"), "{svg_body}");

        assert_eq!(route(&get(&format!("/cohort/{id}/nope")), &ctx).status, 404);
        assert_eq!(route(&get("/cohort/c999/stats"), &ctx).status, 404);
        assert_eq!(route(&get("/cohort"), &ctx).status, 405);
        assert_eq!(route(&post("/cohort", ""), &ctx).status, 400);
        assert_eq!(route(&post("/cohort", "has(T90["), &ctx).status, 400);
    }

    /// Bodies nested past the parsers' caps are answered 400 on a 2 MiB
    /// thread (the std default a worker runs on), and the next request
    /// is served: they used to overflow the worker's stack and abort the
    /// process.
    #[test]
    fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
        let ctx = ctx();
        let query = format!("{}has(T90){}", "(".repeat(10_000), ")".repeat(10_000));
        let regex = format!("has({}T90{})", "(".repeat(4_000), ")".repeat(4_000));
        let json = format!("{}0{}", "[".repeat(10_000), "]".repeat(10_000));
        let bodies = [&query, &regex].map(|body| [("/select", body), ("/cohort", body)]);
        std::thread::scope(|s| {
            let worker = std::thread::Builder::new().stack_size(2 << 20).spawn_scoped(s, || {
                for (path, body) in bodies.into_iter().flatten().chain([("/command", &json)]) {
                    assert_eq!(route(&post(path, body), &ctx).status, 400, "{path} {}", body.len());
                }
                assert_eq!(route(&post("/select", "has(T90)"), &ctx).status, 200);
            });
            worker.expect("spawn").join().expect("no panic, no overflow");
        });
    }

    /// One entry dated on the calendar's last day moves the reference
    /// date every age is taken at to `Date::MAX`: age selects and the
    /// profile fold still answer.
    #[test]
    fn an_entry_on_the_last_calendar_day_keeps_ages_answering() {
        let ctx = ctx();
        let claims =
            "claim_id;patient;date;provider;icpc;note\nX1;NIN-0900001;31.12.9999;GP;T90;\n";
        assert_eq!(route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx).status, 202);
        assert_eq!(route(&post("/ingest?format=claims", claims), &ctx).status, 202);
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        let aged = route(&post("/select", "age(0..150)"), &ctx);
        assert_eq!(aged.status, 200);
        assert_eq!(count_of(&aged.body), 0, "everyone is 7,000 years old or more");
        let made = route(&post("/cohort", "has(T90)"), &ctx);
        assert_eq!(made.status, 201);
        let stats = route(&get(&format!("/cohort/{}/stats", cohort_id(&made.body))), &ctx);
        assert_eq!(stats.status, 200);
        let body = String::from_utf8(stats.body).unwrap();
        assert!(body.contains("\"reference\":\"9999-12-31\""), "{body}");
        assert!(body.contains("[\"90+\","), "{body}");
    }

    /// Age bounds beyond `i32` saturate instead of wrapping: an open upper
    /// bound admits everyone `age(0..150)` does, and a range that starts
    /// above `i32::MAX` admits nobody.
    #[test]
    fn age_bounds_beyond_i32_do_not_wrap() {
        let ctx = ctx();
        let count = |text: &str| {
            let resp = route(&post("/select", text), &ctx);
            assert_eq!(resp.status, 200, "{text}");
            count_of(&resp.body)
        };
        let everyone = count("age(0..150)");
        assert!(everyone > 0);
        assert_eq!(count("age(0..3000000000)"), everyone);
        assert_eq!(count("age(4294967350..4294967400)"), 0);
    }

    /// The acceptance criterion for the registry hit path: a warm
    /// `/cohort/{id}/stats` answers without invoking the planner. The
    /// plan-path counters (selection cache, index hits, scan fallbacks)
    /// must not move across stats reads — cold or warm.
    #[test]
    fn cohort_stats_answers_without_invoking_the_planner() {
        let ctx = ctx();
        let made = route(&post("/cohort", "has(K.*) and lacks(T90)"), &ctx);
        assert_eq!(made.status, 201);
        let id = cohort_id(&made.body);
        let counters = || {
            let snapshot = ctx.state.snapshot();
            let wb = &snapshot.workbench;
            (
                wb.selection_cache_hits(),
                wb.selection_cache_misses(),
                wb.select_index_hits(),
                wb.select_scan_fallbacks(),
            )
        };
        let before = counters();
        let cold = route(&get(&format!("/cohort/{id}/stats?k=10")), &ctx);
        assert_eq!(cold.status, 200);
        assert_eq!(counters(), before, "cold stats aggregates the frozen bitmap, no planning");
        let hits = ctx.cache.hits();
        let warm = route(&get(&format!("/cohort/{id}/stats?k=10")), &ctx);
        assert_eq!(warm.body, cold.body);
        assert_eq!(ctx.cache.hits(), hits + 1, "warm stats is a response-cache hit");
        assert_eq!(counters(), before, "warm stats never touches the planner");
    }

    fn folds(ctx: &RouterCtx) -> u64 {
        ctx.cohorts.profile_folds_total()
    }

    /// `stats` → `.svg` → `stats?k=5` on one handle fold the profile
    /// once; the second and third are the memo cut and serialized, and
    /// say exactly what a fold with their own `k` says.
    #[test]
    fn one_handle_folds_its_profile_once() {
        let ctx = ctx();
        let id = cohort_id(&route(&post("/cohort", "has(K.*) and lacks(T90)"), &ctx).body);
        assert_eq!(folds(&ctx), 0, "materializing folds nothing");
        let bytes_bare = ctx.cohorts.bytes();
        let stats = route(&get(&format!("/cohort/{id}/stats")), &ctx);
        assert_eq!((stats.status, folds(&ctx)), (200, 1));
        let bytes_profiled = ctx.cohorts.bytes();
        assert!(bytes_profiled > bytes_bare, "the registry charges for the memo");
        let svg = route(&get(&format!("/cohort/{id}.svg?w=800&h=500")), &ctx);
        let top5 = route(&get(&format!("/cohort/{id}/stats?k=5")), &ctx);
        assert_eq!((svg.status, top5.status, folds(&ctx)), (200, 200, 1));
        assert_eq!(ctx.cache.hits(), 0, "three URLs, three response-cache misses");
        assert_eq!(route(&get(&format!("/cohort/{id}/timeline")), &ctx).status, 200);
        assert_eq!(folds(&ctx), 1, "the timeline is not a profile fold");
        assert!(ctx.cohorts.bytes() > bytes_profiled, "nor is its memo free");
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"cohort_profile_folds_total\":1"), "{metrics}");

        let snapshot = ctx.state.snapshot();
        let CohortLookup::Hit(handle) = ctx.cohorts.lookup(&id, snapshot.version) else {
            panic!("handle is live");
        };
        let mut positions = Vec::new();
        handle.positions.decode_into(0, &mut positions);
        let direct = |k| snapshot.workbench.cohort_profile(&positions, snapshot.reference_date, k);
        let top5_body = String::from_utf8(top5.body).unwrap();
        let expected = format!("\"profile\":{}}}", direct(5).to_json());
        assert!(top5_body.ends_with(&expected), "{top5_body}");
        assert_eq!(
            String::from_utf8(svg.body).unwrap(),
            pastas_viz::histogram::panel_svg(&direct(20), 800.0, 500.0)
        );
        // Another handle is another fold.
        let other = cohort_id(&route(&post("/cohort", "has(T90)"), &ctx).body);
        route(&get(&format!("/cohort/{other}.svg")), &ctx);
        assert_eq!(folds(&ctx), 2);
    }

    #[test]
    fn a_gone_handle_drops_its_memos() {
        let ctx = ctx();
        let id = cohort_id(&route(&post("/cohort", "has(T90)"), &ctx).body);
        assert_eq!(route(&get(&format!("/cohort/{id}/stats")), &ctx).status, 200);
        assert_eq!(route(&get(&format!("/cohort/{id}/timeline")), &ctx).status, 200);
        let weak = match ctx.cohorts.lookup(&id, ctx.state.version()) {
            CohortLookup::Hit(handle) => Arc::downgrade(&handle),
            other => panic!("expected a live handle, got {other:?}"),
        };
        assert!(weak.upgrade().is_some() && ctx.cohorts.bytes() > 0);
        route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx);
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        assert_eq!(route(&get(&format!("/cohort/{id}/stats")), &ctx).status, 410);
        assert!(weak.upgrade().is_none(), "handle, profile and months freed together");
        assert_eq!(ctx.cohorts.bytes(), 0);
        // The next handle folds for itself, against the new snapshot.
        let remade = cohort_id(&route(&post("/cohort", "has(T90)"), &ctx).body);
        assert_eq!(route(&get(&format!("/cohort/{remade}/stats")), &ctx).status, 200);
        assert_eq!(folds(&ctx), 2);
    }

    /// FNV-1a over a response body.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The three cohort reads over the benchmark's six query kinds at
    /// 5,000 patients answer byte for byte what the entry-walk fold
    /// answered: the hashes were taken at the commit before the digest
    /// column (25a8ab7), with this very test body.
    #[test]
    fn cohort_reads_are_byte_identical_to_the_entry_walk() {
        const GOLDEN: [(&str, [u64; 3]); 6] = [
            ("has(T90|K86)", [0x8856ca2dd2da1b5c, 0x58615ca8bff74e1b, 0x7b5793b1b2e585f1]),
            ("lacks(T90)", [0x933ac0e7ae608b1b, 0xb4a6b55bbe5220bd, 0x69a84d8e6f5e26ab]),
            (
                "has(K.*) and lacks(E11) and age(0..120)",
                [0x2ba8e398e767d3e0, 0xd9e1db68927353da, 0x36bfefac8cc228ed],
            ),
            (
                "count(T90) >= 2 and age(30..90)",
                [0xe3dd3abdbd19f316, 0x7a24a4f62ad4faf1, 0x4adc3b27e4ca0434],
            ),
            ("has(T90) or has(R95)", [0x70dba919f4cf534c, 0x7b4db40264364ba6, 0x9812737d1ff7383e]),
            (
                "sex(F) and age(40..80) and has(K.*)",
                [0x2e9f6529a63fb8b1, 0x25eea5a46d878c8e, 0xc20ceaefe1f3b236],
            ),
        ];
        let ctx = RouterCtx::new(Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(5000),
            2016,
        )));
        for (query, golden) in GOLDEN {
            let id = cohort_id(&route(&post("/cohort", query), &ctx).body);
            let reads = [
                format!("/cohort/{id}/stats?k=20"),
                format!("/cohort/{id}/timeline"),
                format!("/cohort/{id}.svg?w=900&h=600"),
            ];
            let hashes = reads.map(|url| {
                let response = route(&get(&url), &ctx);
                assert_eq!(response.status, 200, "{url}");
                fnv(&response.body)
            });
            assert_eq!(hashes, golden, "{query}: {hashes:#x?}");
        }
    }

    #[test]
    fn publishing_a_new_version_invalidates_cohort_handles() {
        let ctx = ctx();
        let made = route(&post("/cohort", "has(T90)"), &ctx);
        let id = cohort_id(&made.body);
        let count = count_of(&made.body);
        assert_eq!(route(&get(&format!("/cohort/{id}/stats")), &ctx).status, 200);
        route(&post("/ingest?format=persons", DELTA_PERSONS), &ctx);
        route(&post("/ingest?format=claims", DELTA_CLAIMS), &ctx);
        assert_eq!(route(&post("/compact", ""), &ctx).status, 200);
        let published = ctx.state.version();
        assert!(published > 1, "the ingest published a new version");
        // First touch after the publish: 410 with the re-materialize hint.
        let gone = route(&get(&format!("/cohort/{id}/stats")), &ctx);
        assert_eq!(gone.status, 410);
        let gone_body = String::from_utf8(gone.body).unwrap();
        assert!(gone_body.contains("\"materialized_version\":1"), "{gone_body}");
        assert!(gone_body.contains(&format!("\"current_version\":{published}")), "{gone_body}");
        assert!(gone_body.contains("\"query\":\"has(T90)\""), "{gone_body}");
        assert!(gone_body.contains("re-materialize"), "{gone_body}");
        // The stale handle was dropped on that touch: now it's just gone.
        assert_eq!(route(&get(&format!("/cohort/{id}/stats")), &ctx).status, 404);
        // Re-materializing at version 2 sees the streamed patient.
        let remade = route(&post("/cohort", "has(T90)"), &ctx);
        assert_eq!(remade.status, 201);
        let remade_body = String::from_utf8(remade.body.clone()).unwrap();
        assert!(remade_body.contains(&format!("\"version\":{published}")), "{remade_body}");
        assert_ne!(cohort_id(&remade.body), id, "stale id is not recycled");
        assert_eq!(count_of(&remade.body), count + 1);
        let metrics = String::from_utf8(route(&get("/metrics"), &ctx).body).unwrap();
        assert!(metrics.contains("\"cohort_stale_hits_total\":1"), "{metrics}");
        assert!(metrics.contains("\"cohort_registry_size\":1"), "{metrics}");
    }

    #[test]
    fn cohort_reads_cache_on_version_id_and_params() {
        let ctx = ctx();
        let a = cohort_id(&route(&post("/cohort", "has(T90)"), &ctx).body);
        let b = cohort_id(&route(&post("/cohort", "has(K74)"), &ctx).body);
        assert_ne!(a, b);
        let misses = ctx.cache.misses();
        route(&get(&format!("/cohort/{a}/stats?k=5")), &ctx);
        assert_eq!(ctx.cache.misses(), misses + 1);
        route(&get(&format!("/cohort/{a}/stats?k=5")), &ctx);
        assert_eq!(ctx.cache.misses(), misses + 1, "same (id, params) is warm");
        route(&get(&format!("/cohort/{a}/stats?k=7")), &ctx);
        assert_eq!(ctx.cache.misses(), misses + 2, "k is part of the key");
        route(&get(&format!("/cohort/{b}/stats?k=5")), &ctx);
        assert_eq!(ctx.cache.misses(), misses + 3, "cohort id is part of the key");
        route(&get(&format!("/cohort/{a}.svg?w=400&h=300")), &ctx);
        route(&get(&format!("/cohort/{a}.svg?w=400&h=300")), &ctx);
        assert_eq!(ctx.cache.misses(), misses + 4, "svg panel caches too");
    }

    #[test]
    fn ingest_rejects_bad_formats_and_methods() {
        let ctx = ctx();
        assert_eq!(route(&post("/ingest", DELTA_PERSONS), &ctx).status, 400);
        assert_eq!(route(&post("/ingest?format=nope", DELTA_PERSONS), &ctx).status, 400);
        assert_eq!(route(&post("/ingest?format=claims", "   "), &ctx).status, 400);
        assert_eq!(route(&get("/ingest"), &ctx).status, 405);
        assert_eq!(route(&get("/compact"), &ctx).status, 405);
    }

    #[test]
    fn select_count_only_and_errors() {
        let ctx = ctx();
        let resp = route(&post("/select?count_only=1", "has(T90)"), &ctx);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"count\":") && !body.contains("\"ids\""), "{body}");
        assert_eq!(route(&post("/select", ""), &ctx).status, 400);
        let bad = route(&post("/select", "has(T90["), &ctx);
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8(bad.body).unwrap().contains("\"error\""));
    }

    #[test]
    fn command_bumps_version_and_invalidates_cached_views() {
        let ctx = ctx();
        let svg1 = route(&get("/cohort.svg?w=400&h=300"), &ctx);
        assert_eq!(svg1.status, 200);
        assert_eq!(ctx.cache.misses(), 1);
        let resp = route(&post("/command", r#"{"command":"sort","key":"entry_count"}"#), &ctx);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"version\":2"));
        // New version → new cache key → recomputed (a miss), under a new order.
        let svg2 = route(&get("/cohort.svg?w=400&h=300"), &ctx);
        assert_eq!(svg2.status, 200);
        assert_eq!(ctx.cache.misses(), 2, "old cached view unreachable");
        assert_eq!(route(&post("/command", r#"{"command":"nope"}"#), &ctx).status, 400);
        assert_eq!(route(&post("/command", "not json"), &ctx).status, 400);
        assert_eq!(
            route(&post("/command", r#"{"command":"align","pattern":"T90["}"#), &ctx).status,
            400,
            "bad regex is a 400, not a new version"
        );
        assert_eq!(ctx.state.version(), 2);
    }

    #[test]
    fn command_rejects_wrongly_typed_fields() {
        let ctx = ctx();
        for (body, field) in [
            (r#"{"command":"sort","key":5}"#, "\\\"key\\\""),
            (r#"{"command":"filter","code":5}"#, "\\\"code\\\""),
            (r#"{"command":"filter","kind":null}"#, "\\\"kind\\\""),
            (r#"{"command":"align","pattern":["T90"]}"#, "\\\"pattern\\\""),
        ] {
            let resp = route(&post("/command", body), &ctx);
            let text = String::from_utf8(resp.body).unwrap();
            assert_eq!(resp.status, 400, "{body}: {text}");
            assert!(text.contains(&format!("{field} must be a string")), "{body}: {text}");
        }
        assert_eq!(ctx.state.version(), 1, "no command was applied");
    }

    #[test]
    fn renders_and_timeline() {
        let ctx = ctx();
        let svg = route(&get("/cohort.svg"), &ctx);
        assert!(String::from_utf8(svg.body).unwrap().contains("<svg"));
        let overview = route(&get("/cohort.svg?overview=1"), &ctx);
        assert!(String::from_utf8(overview.body).unwrap().contains("Overview"));
        let txt = route(&get("/cohort.txt?cols=80&rows=20"), &ctx);
        assert_eq!(String::from_utf8(txt.body).unwrap().lines().count(), 20);

        let id = ctx.state.snapshot().workbench.collection().histories()[0].id();
        let page = route(&get(&format!("/timeline/{id}")), &ctx);
        assert_eq!(page.status, 200);
        assert!(String::from_utf8(page.body).unwrap().contains("<svg"));
        assert_eq!(route(&get("/timeline/P9999999"), &ctx).status, 404);
        assert_eq!(route(&get("/timeline/xyz"), &ctx).status, 400);
    }

    #[test]
    fn details_on_demand() {
        let ctx = ctx();
        let snapshot = ctx.state.snapshot();
        let viewport = snapshot.workbench.default_viewport(900.0, 500.0);
        let (_, hits) = snapshot.workbench.layout(&viewport);
        let record = hits.iter().next().expect("something drawn");
        let cx = (record.bbox.0 + record.bbox.2) / 2.0;
        let cy = (record.bbox.1 + record.bbox.3) / 2.0;
        let resp = route(&get(&format!("/details?x={cx}&y={cy}")), &ctx);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"details\":\""));
        assert_eq!(route(&get("/details?x=-9999&y=-9999"), &ctx).status, 404);
        assert_eq!(route(&get("/details?x=abc&y=1"), &ctx).status, 400);
        assert_eq!(route(&get("/details"), &ctx).status, 400);
    }

    /// `w=NaN` / `h=inf` parse as `f64` but fall back to the default
    /// canvas, as an unparsable value does: every such response is the
    /// default-size one, so no `NaN` reaches a renderer or a cache key.
    fn non_finite_canvas_is_the_default_canvas(ctx: &RouterCtx, base: &str, sep: char) {
        let expected = route(&get(base), ctx);
        assert_eq!(expected.status, 200, "{base}");
        for dims in ["w=NaN", "h=NaN", "w=inf&h=-inf", "w=NaN&h=NaN"] {
            let got = route(&get(&format!("{base}{sep}{dims}")), ctx);
            assert_eq!((got.status, &got.body), (200, &expected.body), "{base} {dims}");
        }
    }

    #[test]
    fn non_finite_canvas_on_cohort_svg() {
        non_finite_canvas_is_the_default_canvas(&ctx(), "/cohort.svg", '?');
    }

    #[test]
    fn non_finite_canvas_on_a_cohort_panel() {
        let ctx = ctx();
        let id = cohort_id(&route(&post("/cohort", "has(T90)"), &ctx).body);
        non_finite_canvas_is_the_default_canvas(&ctx, &format!("/cohort/{id}.svg"), '?');
    }

    #[test]
    fn non_finite_canvas_on_details() {
        let ctx = ctx();
        let snapshot = ctx.state.snapshot();
        let viewport = snapshot.workbench.default_viewport(900.0, 500.0);
        let (_, hits) = snapshot.workbench.layout(&viewport);
        let (x0, y0, x1, y1) = hits.iter().next().expect("something drawn").bbox;
        let base = format!("/details?x={}&y={}", (x0 + x1) / 2.0, (y0 + y1) / 2.0);
        non_finite_canvas_is_the_default_canvas(&ctx, &base, '&');
    }

    #[test]
    fn metrics_and_routing_edges() {
        let ctx = ctx();
        let _ = route(&post("/select", "has(T90)"), &ctx);
        let resp = route(&get("/metrics"), &ctx);
        let body = String::from_utf8(resp.body).unwrap();
        for field in [
            "\"requests_total\"",
            "\"latency_p50_ms\"",
            "\"cache_hit_rate\"",
            "\"state_version\":1",
            "\"selection_cache_misses\":1",
        ] {
            assert!(body.contains(field), "missing {field} in {body}");
        }
        let memo = ctx.state.snapshot().workbench.selection_cache_bytes();
        assert!(memo > 0 && body.contains(&format!("\"selection_cache_bytes\":{memo},")), "{body}");
        assert!(Json::parse(&body).is_ok(), "metrics is valid JSON");
        assert_eq!(route(&get("/nope"), &ctx).status, 404);
        assert_eq!(route(&get("/select"), &ctx).status, 405);
        assert_eq!(route(&request(b"DELETE /command HTTP/1.1\r\n\r\n"), &ctx).status, 405);
        assert_eq!(route(&get("/healthz"), &ctx).status, 200);
    }
}
