//! Serve a synthetic collection over HTTP: the workbench as a shared,
//! concurrent service.
//!
//! ```text
//! cargo run --release --example serve_cohorts -- [--patients N] [--seed S]
//!     [--addr HOST:PORT] [--threads T] [--smoke] [--smoke-ingest]
//!     [--smoke-analytics]
//! ```
//!
//! Default mode binds and serves until killed. `--smoke` instead binds an
//! OS-assigned loopback port, fires one request at every endpoint through
//! the in-crate client (checking statuses, a cache hit on the repeated
//! `/select`, and zero worker panics), shuts down gracefully, and exits
//! non-zero on any failure — the CI smoke stage. `--smoke-ingest` does the
//! same for the streaming path: one `POST /ingest` delta per source format
//! for a brand-new patient, then checks that the background writer applies
//! them (the ingest gauges drain) and the patient is selectable before any
//! `POST /compact`, that `/compact` answers with no side rows, and that the
//! patient has a timeline. `--smoke-analytics` exercises the materialized-
//! cohort lifecycle: `POST /cohort`, stats/timeline/SVG reads that fold
//! the profile exactly once between them, an ingest delta + compact that
//! must turn the handle `410 Gone` and free its memos, and a successful
//! re-materialization at the new version.

use pastas_ingest::json::Json;
use pastas_serve::{client, serve, ServerConfig};
use pastas_synth::{generate_collection, SynthConfig};
use std::time::{Duration, Instant};

#[path = "common.rs"]
mod common;
use common::{arg, arg_str, flag};

fn main() {
    let smoke = flag("--smoke");
    let smoke_ingest = flag("--smoke-ingest");
    let smoke_analytics = flag("--smoke-analytics");
    let any_smoke = smoke || smoke_ingest || smoke_analytics;
    let patients = arg("--patients", 168_000) as usize;
    let seed = arg("--seed", 7);
    let default_addr = if any_smoke { "127.0.0.1:0" } else { "127.0.0.1:7878" };
    let addr = arg_str("--addr").unwrap_or_else(|| default_addr.to_owned());

    eprintln!("Generating {patients} patients (seed {seed}) …");
    let t0 = Instant::now();
    let collection = generate_collection(SynthConfig::with_patients(patients), seed);
    let workbench = pastas_core::Workbench::from_collection(collection);
    eprintln!("Loaded in {:.1?}", t0.elapsed());

    let config =
        ServerConfig { addr, workers: arg("--threads", 0) as usize, ..ServerConfig::default() };
    let handle = serve(workbench, config).expect("bind");
    eprintln!("Serving on http://{}", handle.addr());
    eprintln!("  POST /select            body = query text, e.g. has(T90) and age(50..80)");
    eprintln!("  POST /cohort            body = query text -> frozen cohort handle");
    eprintln!("  GET  /cohort/c1/stats   ?k=20   (also /cohort/c1/timeline, /cohort/c1.svg)");
    eprintln!("  GET  /cohort.svg        ?w=900&h=500&overview=1");
    eprintln!("  GET  /cohort.txt        ?cols=100&rows=30");
    eprintln!("  GET  /timeline/P0000009");
    eprintln!("  POST /command           {{\"command\":\"sort\",\"key\":\"entry_count\"}}");
    eprintln!("  GET  /details           ?x=450&y=250");
    eprintln!("  GET  /metrics");

    if any_smoke {
        let mut failures = 0;
        if smoke {
            failures += run_smoke(handle.addr());
        }
        if smoke_ingest {
            failures += run_smoke_ingest(handle.addr());
        }
        if smoke_analytics {
            failures += run_smoke_analytics(handle.addr());
        }
        eprintln!("Shutting down …");
        handle.shutdown();
        if failures > 0 {
            eprintln!("SMOKE: {failures} check(s) FAILED");
            std::process::exit(1);
        }
        eprintln!("SMOKE: all checks passed");
        return;
    }

    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Fire one request at every endpoint; return the failed-check count.
fn run_smoke(addr: std::net::SocketAddr) -> u32 {
    let timeout = Duration::from_secs(30);
    let mut failures = 0u32;
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            eprintln!("  ok   {name}");
        } else {
            failures += 1;
            eprintln!("  FAIL {name}: {detail}");
        }
    };

    let mut conn = match client::Conn::connect(addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("  FAIL connect: {e}");
            return 1;
        }
    };

    // /select, twice: the repeat must be served from the response cache.
    let q = b"has(T90)";
    let first = conn.post("/select", q);
    let first_body = first.as_ref().map(|r| r.body_str().into_owned()).unwrap_or_default();
    check(
        "POST /select",
        first.as_ref().is_ok_and(|r| r.status == 200) && first_body.contains("\"ids\""),
        format!("{first:?}"),
    );
    let second = conn.post("/select", q);
    check(
        "POST /select (repeat)",
        second.as_ref().is_ok_and(|r| r.status == 200 && r.body_str() == first_body),
        format!("{second:?}"),
    );

    // /select?explain=1 on a compound query with a negated code clause:
    // the executed plan must come back, and must be index-served.
    let explain = conn.post("/select?explain=1&count_only=1", b"has(K.*) and lacks(T90)");
    let explain_body = explain.as_ref().map(|r| r.body_str().into_owned()).unwrap_or_default();
    check(
        "POST /select?explain=1",
        explain.as_ref().is_ok_and(|r| r.status == 200)
            && explain_body.contains("\"explain\"")
            && explain_body.contains("\"full_scan\":false"),
        format!("{explain_body:?}"),
    );

    let svg = conn.get("/cohort.svg?w=600&h=400");
    check(
        "GET /cohort.svg",
        svg.as_ref().is_ok_and(|r| r.status == 200 && r.body_str().contains("<svg")),
        format!("{:?}", svg.as_ref().map(|r| r.status)),
    );
    let txt = conn.get("/cohort.txt?cols=80&rows=20");
    check(
        "GET /cohort.txt",
        txt.as_ref().is_ok_and(|r| r.status == 200),
        format!("{:?}", txt.as_ref().map(|r| r.status)),
    );

    // A real patient id out of the /select response.
    let id = Json::parse(&first_body)
        .ok()
        .and_then(|doc| {
            doc.get("ids")
                .and_then(Json::as_array)
                .and_then(|ids| ids.first().and_then(Json::as_str).map(str::to_owned))
        })
        .unwrap_or_else(|| "P0000000".to_owned());
    let timeline = conn.get(&format!("/timeline/{id}"));
    check(
        "GET /timeline/{id}",
        timeline.as_ref().is_ok_and(|r| r.status == 200),
        format!("id {id}, {:?}", timeline.as_ref().map(|r| r.status)),
    );

    let cmd = conn.post("/command", br#"{"command":"sort","key":"entry_count"}"#);
    check(
        "POST /command",
        cmd.as_ref().is_ok_and(|r| r.status == 200 && r.body_str().contains("\"version\":2")),
        format!("{cmd:?}"),
    );

    let metrics = conn.get("/metrics");
    let doc = metrics
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| Json::parse(&r.body_str()).ok());
    let gauge = |doc: &Option<Json>, name: &str| {
        doc.as_ref().and_then(|d| d.get(name).and_then(Json::as_f64))
    };
    check("GET /metrics", doc.is_some(), format!("{:?}", metrics.as_ref().map(|r| r.status)));
    check(
        "response cache hit on repeated /select",
        gauge(&doc, "cache_hits").is_some_and(|v| v >= 1.0),
        format!("cache_hits = {:?}", gauge(&doc, "cache_hits")),
    );
    check(
        "zero worker panics",
        gauge(&doc, "worker_panics") == Some(0.0),
        format!("worker_panics = {:?}", gauge(&doc, "worker_panics")),
    );
    failures
}

/// Stream one delta per source format for a brand-new patient, wait for
/// the background writer to apply them, and verify the patient became
/// selectable with no `/compact`; return the failed-check count.
fn run_smoke_ingest(addr: std::net::SocketAddr) -> u32 {
    let timeout = Duration::from_secs(30);
    let mut failures = 0u32;
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            eprintln!("  ok   {name}");
        } else {
            failures += 1;
            eprintln!("  FAIL {name}: {detail}");
        }
    };

    let mut conn = match client::Conn::connect(addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("  FAIL connect: {e}");
            return 1;
        }
    };

    let count_of = |body: &str| {
        Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("count").and_then(Json::as_f64))
            .map(|v| v as u64)
    };
    let before = conn.post("/select?count_only=1", b"has(T90)");
    let before_count =
        before.as_ref().ok().filter(|r| r.status == 200).and_then(|r| count_of(&r.body_str()));
    check("POST /select (baseline count)", before_count.is_some(), format!("{before:?}"));

    // One increment per source format, all for patient NIN-0990001 —
    // an id far above anything the synthetic collection generates.
    let deltas: [(&str, &str); 5] = [
        ("persons", "nin;birth_date;sex\nNIN-0990001;1950-01-01;F\n"),
        ("claims", "claim_id;patient;date;provider;icpc;note\nX9;NIN-0990001;04.05.2013;GP;T90;\n"),
        (
            "hospital",
            "episode_id,patient,admitted,discharged,icd10_main,care_level\n\
             E9,NIN-0990001,2013-06-01,2013-06-05,E11,inpatient\n",
        ),
        ("municipal", "patient|service|from|to\nNIN-0990001|home_care|2013-07-01|2013-09-01\n"),
        (
            "prescriptions",
            "patient\tdispensed\tatc\tddd\nNIN-0990001\t2013-05-04T12:00:00\tA10BA02\t30\n",
        ),
    ];
    for (format, body) in deltas {
        let resp = conn.post(&format!("/ingest?format={format}"), body.as_bytes());
        check(
            &format!("POST /ingest?format={format}"),
            resp.as_ref()
                .is_ok_and(|r| r.status == 202 && r.body_str().contains("\"accepted\":true")),
            format!("{resp:?}"),
        );
    }

    let gauges = |conn: &mut client::Conn| {
        let metrics = conn.get("/metrics");
        let doc = metrics
            .as_ref()
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| Json::parse(&r.body_str()).ok());
        move |name: &str| doc.as_ref().and_then(|d| d.get(name).and_then(Json::as_f64))
    };
    // The background writer applies every accepted batch on its own.
    let give_up = Instant::now() + timeout;
    let drained = loop {
        let gauge = gauges(&mut conn);
        if gauge("ingest_pending_entries") == Some(0.0) && gauge("ingest_queue_depth") == Some(0.0)
        {
            break true;
        }
        if Instant::now() > give_up {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    check("the background writer drains the queue", drained, "timed out".to_owned());

    let after = conn.post("/select?count_only=1", b"has(T90)");
    let after_count =
        after.as_ref().ok().filter(|r| r.status == 200).and_then(|r| count_of(&r.body_str()));
    check(
        "streamed patient joins the has(T90) cohort before any /compact",
        matches!((before_count, after_count), (Some(b), Some(a)) if a == b + 1),
        format!("before {before_count:?}, after {after_count:?}"),
    );

    // `/compact` is the quiesce point: here nothing is left to apply.
    let compact = conn.post("/compact", b"");
    check(
        "POST /compact",
        compact.as_ref().is_ok_and(|r| r.status == 200 && r.body_str().contains("\"side_rows\":0")),
        format!("{compact:?}"),
    );

    let timeline = conn.get("/timeline/P0990001");
    check(
        "GET /timeline for the streamed patient",
        timeline.as_ref().is_ok_and(|r| r.status == 200),
        format!("{:?}", timeline.as_ref().map(|r| r.status)),
    );

    let gauge = gauges(&mut conn);
    check(
        "ingest gauges fully drained",
        gauge("side_index_rows") == Some(0.0)
            && gauge("ingest_queue_depth") == Some(0.0)
            && gauge("ingest_pending_entries") == Some(0.0)
            && gauge("worker_panics") == Some(0.0),
        format!(
            "side_index_rows {:?}, queue_depth {:?}, pending {:?}, worker_panics {:?}",
            gauge("side_index_rows"),
            gauge("ingest_queue_depth"),
            gauge("ingest_pending_entries"),
            gauge("worker_panics"),
        ),
    );
    failures
}

/// Materialize a cohort, read its histograms three ways, invalidate it
/// with an ingest + compact, and re-materialize at the new version;
/// return the failed-check count.
fn run_smoke_analytics(addr: std::net::SocketAddr) -> u32 {
    let timeout = Duration::from_secs(30);
    let mut failures = 0u32;
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            eprintln!("  ok   {name}");
        } else {
            failures += 1;
            eprintln!("  FAIL {name}: {detail}");
        }
    };

    let mut conn = match client::Conn::connect(addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("  FAIL connect: {e}");
            return 1;
        }
    };

    let id_of = |body: &str| {
        Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_owned))
    };

    // Freeze the selection under a handle.
    let made = conn.post("/cohort", b"has(T90)");
    let made_body = made.as_ref().map(|r| r.body_str().into_owned()).unwrap_or_default();
    let id = id_of(&made_body);
    check(
        "POST /cohort",
        made.as_ref().is_ok_and(|r| r.status == 201) && id.is_some(),
        format!("{made_body:?}"),
    );
    let Some(id) = id else { return failures + 1 };

    // The three frozen-cohort reads.
    let stats = conn.get(&format!("/cohort/{id}/stats?k=10"));
    check(
        "GET /cohort/{id}/stats",
        stats.as_ref().is_ok_and(|r| {
            r.status == 200
                && r.body_str().contains("\"age_band\"")
                && r.body_str().contains("\"icd_chapter\"")
        }),
        format!("{:?}", stats.as_ref().map(|r| r.status)),
    );
    let timeline = conn.get(&format!("/cohort/{id}/timeline"));
    check(
        "GET /cohort/{id}/timeline",
        timeline.as_ref().is_ok_and(|r| r.status == 200 && r.body_str().contains("\"months\":[")),
        format!("{:?}", timeline.as_ref().map(|r| r.status)),
    );
    let svg = conn.get(&format!("/cohort/{id}.svg?w=800&h=500"));
    check(
        "GET /cohort/{id}.svg",
        svg.as_ref().is_ok_and(|r| r.status == 200 && r.body_str().contains("<svg")),
        format!("{:?}", svg.as_ref().map(|r| r.status)),
    );

    // The handle owns its aggregates: stats, the panel and another `k`
    // are one fold between them.
    let top5 = conn.get(&format!("/cohort/{id}/stats?k=5"));
    let gauge_now = |conn: &mut client::Conn, name: &str| {
        let metrics = conn.get("/metrics").ok().filter(|r| r.status == 200)?;
        Json::parse(&metrics.body_str()).ok()?.get(name).and_then(Json::as_f64)
    };
    let folds = gauge_now(&mut conn, "cohort_profile_folds_total");
    check(
        "stats, .svg and stats?k=5 on one handle fold once",
        top5.as_ref().is_ok_and(|r| r.status == 200) && folds == Some(1.0),
        format!("{:?}, cohort_profile_folds_total {folds:?}", top5.as_ref().map(|r| r.status)),
    );

    // Publish a new version: the handle must go stale, not silently
    // answer against the superseded snapshot.
    let persons = "nin;birth_date;sex\nNIN-0990002;1947-03-02;M\n";
    let claims = "claim_id;patient;date;provider;icpc;note\nX10;NIN-0990002;04.05.2013;GP;T90;\n";
    let p = conn.post("/ingest?format=persons", persons.as_bytes());
    let c = conn.post("/ingest?format=claims", claims.as_bytes());
    check(
        "POST /ingest (delta for a new patient)",
        p.as_ref().is_ok_and(|r| r.status == 202) && c.as_ref().is_ok_and(|r| r.status == 202),
        format!("{:?} / {:?}", p.as_ref().map(|r| r.status), c.as_ref().map(|r| r.status)),
    );
    let compact = conn.post("/compact", b"");
    check("POST /compact", compact.as_ref().is_ok_and(|r| r.status == 200), format!("{compact:?}"));
    let gone = conn.get(&format!("/cohort/{id}/stats?k=10"));
    check(
        "stale handle answers 410 Gone with a re-materialize hint",
        gone.as_ref().is_ok_and(|r| {
            r.status == 410
                && r.body_str().contains("\"query\":\"has(T90)\"")
                && r.body_str().contains("re-materialize")
        }),
        format!("{gone:?}"),
    );

    let pinned = gauge_now(&mut conn, "cohort_registry_bytes");
    check(
        "the gone handle took its memos with it",
        pinned == Some(0.0),
        format!("cohort_registry_bytes {pinned:?}"),
    );

    // Re-materializing at the new version sees the streamed patient.
    let remade = conn.post("/cohort", b"has(T90)");
    let remade_body = remade.as_ref().map(|r| r.body_str().into_owned()).unwrap_or_default();
    let count_of = |body: &str| {
        Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("count").and_then(Json::as_f64))
            .map(|v| v as u64)
    };
    check(
        "re-materialize picks up the delta",
        remade.as_ref().is_ok_and(|r| r.status == 201)
            && id_of(&remade_body).is_some_and(|fresh| fresh != id)
            && matches!(
                (count_of(&made_body), count_of(&remade_body)),
                (Some(b), Some(a)) if a == b + 1
            ),
        format!("was {made_body:?}, now {remade_body:?}"),
    );

    // The registry gauges made it to /metrics.
    let metrics = conn.get("/metrics");
    let doc = metrics
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| Json::parse(&r.body_str()).ok());
    let gauge = |name: &str| doc.as_ref().and_then(|d| d.get(name).and_then(Json::as_f64));
    check(
        "cohort registry gauges",
        gauge("cohort_registry_size") == Some(1.0)
            && gauge("cohort_registry_bytes").is_some_and(|v| v > 0.0)
            && gauge("cohort_materializations_total") == Some(2.0)
            && gauge("cohort_stale_hits_total") == Some(1.0),
        format!(
            "size {:?}, bytes {:?}, materializations {:?}, stale_hits {:?}",
            gauge("cohort_registry_size"),
            gauge("cohort_registry_bytes"),
            gauge("cohort_materializations_total"),
            gauge("cohort_stale_hits_total"),
        ),
    );
    failures
}
