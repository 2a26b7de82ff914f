//! End-to-end tests over real sockets: keep-alive sessions, concurrent
//! clients, load shedding, malformed input handling, and graceful
//! shutdown.

use pastas_core::Workbench;
use pastas_serve::client::{self, Conn};
use pastas_serve::{serve, ServerConfig, ServerHandle};
use pastas_synth::{generate_collection, SynthConfig};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(workers: usize, queue: usize) -> ServerHandle {
    let workbench =
        Workbench::from_collection(generate_collection(SynthConfig::with_patients(200), 11));
    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    serve(workbench, config).expect("bind loopback")
}

#[test]
fn keep_alive_session_covers_every_endpoint() {
    let server = start(2, 16);
    let mut conn = Conn::connect(server.addr(), TIMEOUT).unwrap();

    let select = conn.post("/select", b"has(T90)").unwrap();
    assert_eq!(select.status, 200);
    let body = select.body_str().into_owned();
    assert!(body.contains("\"count\":") && body.contains("\"ids\":[\"P"), "{body}");

    let repeat = conn.post("/select", b"has(T90)").unwrap();
    assert_eq!(repeat.body_str(), body, "same query, same (cached) answer");

    let svg = conn.get("/cohort.svg?w=500&h=300").unwrap();
    assert_eq!(svg.status, 200);
    assert_eq!(svg.header("content-type"), Some("image/svg+xml"));
    assert!(svg.body_str().contains("<svg"));

    let txt = conn.get("/cohort.txt?cols=60&rows=12").unwrap();
    assert_eq!(txt.status, 200);
    assert_eq!(txt.body_str().lines().count(), 12);

    let cmd = conn.post("/command", br#"{"command":"sort","key":"entry_count"}"#).unwrap();
    assert_eq!(cmd.status, 200);
    assert!(cmd.body_str().contains("\"version\":2"));

    let missing = conn.get("/timeline/P9999999").unwrap();
    assert_eq!(missing.status, 404);

    let metrics = conn.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().into_owned();
    for field in ["\"requests_total\"", "\"cache_hits\"", "\"worker_panics\":0"] {
        assert!(text.contains(field), "missing {field} in {text}");
    }

    server.shutdown();
}

/// `/metrics` reports the process's resident bytes and peak, the id
/// map's share of the row table, and the persons ingest registered: one
/// after a persons batch, none for a claims batch that links against the
/// published rows.
#[test]
fn metrics_report_resident_bytes_the_id_map_and_registered_persons() {
    use pastas_ingest::json::Json;
    let server = start(2, 16);
    let mut conn = Conn::connect(server.addr(), TIMEOUT).unwrap();
    let gauge = |conn: &mut Conn, key: &str| -> f64 {
        let text = conn.get("/metrics").unwrap().body_str().into_owned();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{e:?}: {text}"));
        doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {key} in {text}"))
    };
    assert_eq!(gauge(&mut conn, "ingest_registered_persons"), 0.0);
    let id = server.ctx().state.snapshot().workbench.collection().histories()[0].id().0;
    let claims =
        format!("claim_id;patient;date;provider;icpc;note\nX1;NIN-{id:07};04.05.2013;GP;T90;\n");
    let linked = conn.post("/ingest?format=claims", claims.as_bytes()).unwrap();
    assert_eq!(linked.status, 202);
    assert!(linked.body_str().contains("\"unlinked_rows\":0"), "{}", linked.body_str());
    let persons = b"nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n";
    assert_eq!(conn.post("/ingest?format=persons", persons).unwrap().status, 202);
    assert_eq!(conn.post("/compact", b"").unwrap().status, 200);
    let (rss, hwm) = (gauge(&mut conn, "rss_bytes"), gauge(&mut conn, "hwm_bytes"));
    assert!(rss > 0.0 && hwm >= rss, "rss {rss} hwm {hwm}");
    let (rows, ids) = (gauge(&mut conn, "row_table_bytes"), gauge(&mut conn, "id_map_bytes"));
    assert!(ids > 0.0 && ids < rows, "id map {ids} of {rows}");
    assert_eq!(gauge(&mut conn, "ingest_registered_persons"), 1.0);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_consistent_answers() {
    let server = start(4, 64);
    let addr = server.addr();
    let expected =
        client::post(addr, "/select", b"has(T90)", TIMEOUT).unwrap().body_str().into_owned();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(addr, TIMEOUT).unwrap();
                for _ in 0..25 {
                    let resp = conn.post("/select", b"has(T90)").unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.body_str(), expected);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let metrics = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert!(metrics.body_str().contains("\"worker_panics\":0"));
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, queue of one. Each open connection pins its worker for
    // the whole session, so: conn1 occupies the worker, conn2 sits in the
    // queue, conn3 must be shed by the acceptor.
    let server = start(1, 1);
    let addr = server.addr();
    let mut conn1 = Conn::connect(addr, TIMEOUT).unwrap();
    assert_eq!(conn1.get("/healthz").unwrap().status, 200);
    let _conn2 = TcpStream::connect(addr).unwrap();
    // Let the acceptor move conn2 into the queue before conn3 arrives.
    std::thread::sleep(Duration::from_millis(200));

    let mut conn3 = Conn::connect(addr, TIMEOUT).unwrap();
    let shed = conn3.get("/healthz").unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body_str().contains("overloaded"));

    // The admitted connection still works while the shed one was refused.
    assert_eq!(conn1.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_close() {
    let server = start(2, 8);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(b"NOT A VALID REQUEST\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("Connection: close"), "{reply}");

    // Oversized declared body: typed rejection, not a hang.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(b"POST /select HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_inflight_work_and_refuses_new() {
    let server = start(2, 16);
    let addr = server.addr();
    // Clients hammering while we shut down.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut ok = 0u32;
                for _ in 0..50 {
                    match client::post(addr, "/select?count_only=1", b"has(T90)", TIMEOUT) {
                        Ok(resp) if resp.status == 200 => ok += 1,
                        // 503 (drained) or a refused/reset connection are
                        // the two legitimate outcomes during shutdown.
                        _ => break,
                    }
                }
                ok
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let served: u32 = workers.into_iter().map(|t| t.join().expect("client")).sum();
    assert!(served > 0, "some requests completed before the drain");

    // The port no longer answers.
    let gone = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    match gone {
        Err(_) => {}
        Ok(mut stream) => {
            // Accepted by a dying listener backlog at worst — it must not
            // serve anything.
            stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let _ = stream.read_to_end(&mut buf);
            assert!(buf.is_empty(), "post-shutdown request was answered");
        }
    }
}

/// Dropping the handle drains the queue: a connection that queued behind
/// the one busy worker, its request already written, is still answered.
#[test]
fn dropped_handle_answers_a_request_queued_behind_a_busy_worker() {
    let server = start(1, 4);
    let addr = server.addr();
    // `busy` holds the only worker between its keep-alive requests.
    let mut busy = Conn::connect(addr, TIMEOUT).unwrap();
    assert_eq!(busy.get("/healthz").unwrap().status, 200);
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.set_read_timeout(Some(TIMEOUT)).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while server.ctx().metrics.queue_depth() == 0 {
        assert!(std::time::Instant::now() < deadline, "the acceptor never queued the request");
        std::thread::sleep(Duration::from_millis(5));
    }

    let dropper = std::thread::spawn(move || drop(server));
    // The worker keeps `busy` until a response says the drain has begun.
    loop {
        let resp = busy.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        if resp.header("connection") == Some("close") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the drain never began");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut reply = String::new();
    queued.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "queued request dropped: {reply:?}");
    assert!(reply.contains("Connection: close"), "{reply}");
    dropper.join().expect("drop returns once the queue is drained");
}

/// A handler panic — injected while holding the response-cache mutex, the
/// worst case — must cost exactly one 500. The worker survives, the same
/// connection keeps serving, and the poisoned lock recovers on next use.
/// Debug builds only: the `/__fault` route is compiled out of release.
#[cfg(debug_assertions)]
#[test]
fn handler_panic_returns_500_and_the_worker_survives() {
    let server = start(2, 16);
    let mut conn = Conn::connect(server.addr(), TIMEOUT).unwrap();

    // Warm the cache so post-fault hits exercise the poisoned mutex.
    let before = conn.post("/select", b"has(T90)").unwrap();
    assert_eq!(before.status, 200);

    let fault = conn.post("/__fault/cache-poison", b"").unwrap();
    assert_eq!(fault.status, 500, "injected panic surfaces as a 500");
    assert!(fault.body_str().contains("internal handler panic"));

    // Same connection, same worker: the keep-alive loop survived the
    // panic and the cache lock recovered via PoisonError::into_inner.
    let after = conn.post("/select", b"has(T90)").unwrap();
    assert_eq!(after.status, 200, "worker and poisoned cache both recovered");
    assert_eq!(after.body_str(), before.body_str());

    let metrics = conn.get("/metrics").unwrap().body_str().into_owned();
    assert!(metrics.contains("\"worker_panics\":0"), "pool workers unharmed: {metrics}");
    assert!(metrics.contains("\"handler_panics\":1"), "panic was counted: {metrics}");

    server.shutdown();
}
