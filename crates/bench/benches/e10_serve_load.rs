//! E10-serve — loopback load test of the `pastas-serve` HTTP layer.
//!
//! The serving claim under test: against the paper-scale collection
//! (168,000 patients; run with `PASTAS_BENCH_SCALE=168000`) the server
//! sustains ≥ 1,000 req/s on `POST /select` with a warm response cache,
//! with zero worker panics and a clean graceful shutdown while clients are
//! still firing. Results go to stderr as a report row and to
//! `BENCH_serve.json` at the repo root as a machine-readable artifact.
//!
//! Not a criterion bench: the subject is a multi-threaded server, so the
//! harness is a plain `main` driving keep-alive client threads.

use pastas_bench::{base_scale, cohort, header, percentile};
use pastas_core::Workbench;
use pastas_serve::client::Conn;
use pastas_serve::{serve, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERIES: [&str; 4] = [
    "has(T90)",
    "has(K77|I50.*)",
    "has(T90) and age(50..80)",
    "count(any) >= 20 and has(A.*)",
];

fn main() {
    header(
        "E10-serve: loopback load",
        "multiple analysts share one loaded collection; interactions stay interactive",
    );
    let patients = base_scale();
    let clients: usize = std::env::var("PASTAS_BENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(4, 16)
        });
    let per_client: usize = std::env::var("PASTAS_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);

    eprintln!("generating {patients} patients …");
    let t0 = Instant::now();
    let workbench = Workbench::from_collection(cohort(patients));
    eprintln!("loaded in {:.1?}", t0.elapsed());

    let handle = serve(
        workbench,
        ServerConfig { queue_capacity: 4096, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let timeout = Duration::from_secs(60);

    // Warm the response cache: every query answered once, so the measured
    // phase exercises the cached path the way a dashboard's steady state
    // does (first-hit costs are E5's subject, not this bench's).
    let mut warm = Conn::connect(addr, timeout).expect("connect");
    for q in QUERIES {
        let resp = warm.post("/select?count_only=1", q.as_bytes()).expect("warm");
        assert_eq!(resp.status, 200, "warm-up {q} failed: {}", resp.body_str());
    }
    // Close the warm connection: an open keep-alive session pins a worker
    // until the idle timeout, which would skew a small worker pool.
    drop(warm);

    // Measured phase: keep-alive clients hammering POST /select.
    let errors = Arc::new(AtomicU64::new(0));
    let t_load = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                let mut conn = Conn::connect(addr, timeout).expect("connect");
                for i in 0..per_client {
                    let q = QUERIES[(c + i) % QUERIES.len()];
                    let t = Instant::now();
                    match conn.post("/select?count_only=1", q.as_bytes()) {
                        Ok(resp) if resp.status == 200 => {
                            latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            conn = Conn::connect(addr, timeout).expect("reconnect");
                        }
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    for t in threads {
        latencies.extend(t.join().expect("client thread"));
    }
    let elapsed = t_load.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let served = latencies.len();
    let throughput = served as f64 / elapsed;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    let p100 = latencies.last().copied().unwrap_or(0.0);

    // Graceful shutdown *under load*: a fresh wave of clients is firing
    // while the drain runs; anything not admitted may fail, but nothing
    // may panic and the handle must come back.
    let under_load: Vec<_> = (0..clients.min(4))
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let Ok(mut conn) = Conn::connect(addr, Duration::from_secs(2)) else {
                        return;
                    };
                    let _ = conn.post("/select?count_only=1", b"has(T90)");
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let panics = handle.shutdown();
    for t in under_load {
        t.join().expect("shutdown-wave client panicked");
    }
    assert_eq!(panics, 0, "worker panics under load");

    let target_met = throughput >= 1_000.0;
    eprintln!(
        "{patients} patients, {clients} clients × {per_client} reqs: \
         {throughput:.0} req/s  p50 {p50:.3} ms  p99 {p99:.3} ms  max {p100:.1} ms  \
         errors {}  panics {panics}  [target ≥1000 req/s: {}]",
        errors.load(Ordering::Relaxed),
        if target_met { "met" } else { "NOT met at this scale" },
    );

    let json = format!(
        "{{\"experiment\":\"e10_serve_load\",\"patients\":{patients},\
         \"clients\":{clients},\"requests\":{served},\
         \"elapsed_s\":{elapsed:.3},\"throughput_rps\":{throughput:.1},\
         \"p50_ms\":{p50:.4},\"p99_ms\":{p99:.4},\
         \"errors\":{},\"worker_panics\":{panics},\
         \"target_rps\":1000,\"target_met\":{target_met}}}\n",
        errors.load(Ordering::Relaxed),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {path}");
}
