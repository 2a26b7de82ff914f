//! The server proper: acceptor thread, bounded worker pool, per-connection
//! keep-alive loop, load shedding, and graceful shutdown.
//!
//! Threading model (DESIGN.md §8):
//!
//! * **one acceptor** blocks on [`TcpListener::accept`] and does almost
//!   nothing per connection — stamp socket timeouts, try to hand the
//!   connection to the pool;
//! * **`workers` pool threads** each own one connection at a time and run
//!   its whole keep-alive session (read → route → write, repeat);
//! * when the pool's bounded queue is full the **acceptor itself** writes
//!   `503 Service Unavailable` + `Retry-After` and closes — overload
//!   degrades into fast, explicit rejections instead of unbounded queues;
//! * [`ServerHandle::shutdown`] stops admissions, nudges the acceptor
//!   awake, and drains: every connection already accepted finishes its
//!   in-flight request (responses carry `Connection: close` once draining
//!   starts) before the workers are joined.

use crate::http::{HttpError, Limits, RequestReader, Response};
use crate::ingest::{ApplyPacer, IngestConfig};
use crate::router::{route, RouterCtx};
use pastas_par::pool::{Submitter, WorkerPool};
use std::io::{self, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults suit the loopback benches; a real
/// deployment would mostly raise `queue_capacity` and the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = loopback, OS-assigned port).
    pub addr: String,
    /// Worker threads (connection concurrency). 0 = available parallelism.
    pub workers: usize,
    /// Bounded queue of accepted-but-unclaimed connections; beyond this
    /// the acceptor sheds with 503.
    pub queue_capacity: usize,
    /// Per-connection socket read timeout (also the idle keep-alive cap).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// `Retry-After` seconds advertised on shed 503s.
    pub retry_after_secs: u32,
    /// Requests served per connection before it is closed (an upper bound
    /// on how long one client can pin a worker).
    pub max_requests_per_connection: usize,
    /// Request parsing budgets.
    pub limits: Limits,
    /// Response-cache entry bound.
    pub cache_entries: usize,
    /// Response-cache byte bound.
    pub cache_bytes: usize,
    /// Bounded ingest-delta queue; beyond this `POST /ingest` answers
    /// 429 with `Retry-After` — explicit backpressure, not a buffer.
    pub ingest_queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_capacity: 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
            max_requests_per_connection: 10_000,
            limits: Limits::default(),
            cache_entries: 512,
            cache_bytes: 256 << 20,
            ingest_queue_capacity: 256,
        }
    }
}

struct ServerShared {
    ctx: RouterCtx,
    config: ServerConfig,
    draining: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    ingest: Option<std::thread::JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

/// Bind, spawn the acceptor and workers, and return immediately.
pub fn start(ctx: RouterCtx, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Workers are connection-bound, not CPU-bound: an idle keep-alive
    // connection pins one until it times out, so floor the default well
    // above the core count of small machines.
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(4)
    } else {
        config.workers
    };
    let pool = WorkerPool::new(workers, config.queue_capacity);
    let _ = ctx.pool_stats.set(pool.stats());
    let shared = Arc::new(ServerShared { ctx, config, draining: AtomicBool::new(false) });

    let acceptor = {
        let shared = Arc::clone(&shared);
        let submit = pool.submitter();
        std::thread::Builder::new()
            .name("pastas-serve-acceptor".to_owned())
            .spawn(move || accept_loop(listener, shared, submit))
            // One-time server startup, not a request path.
            // lint:allow(no-panic-hot-path) unrecoverable startup failure
            .expect("spawn acceptor")
    };
    let ingest = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pastas-serve-ingest".to_owned())
            .spawn(move || apply_loop(&shared))
            // One-time server startup, not a request path.
            // lint:allow(no-panic-hot-path) unrecoverable startup failure
            .expect("spawn ingest worker")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        ingest: Some(ingest),
        pool: Some(pool),
    })
}

/// Convenience: serve a workbench with a config in one call.
pub fn serve(
    workbench: pastas_core::Workbench,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let ingest = IngestConfig {
        queue_capacity: config.ingest_queue_capacity,
        retry_after_secs: config.retry_after_secs,
    };
    let ctx = RouterCtx::with_ingest_config(
        workbench,
        config.cache_entries,
        config.cache_bytes,
        ingest,
    );
    start(ctx, config)
}

/// The apply worker: sleep until a delta batch arrives and the pause the
/// last pass earned is over ([`ApplyPacer`]), then drain-and-apply under
/// the writer guard and publish (the pacer's sleep is outside the guard).
/// Readers are never blocked — each pass builds the next snapshot off to
/// the side and publishes it with one pointer swap. On drain the final
/// pass runs unpaced, so every batch the server 202'd is applied before
/// the threads join.
fn apply_loop(shared: &ServerShared) {
    let mut pacer = ApplyPacer::new(Instant::now());
    loop {
        shared.ctx.ingest.wait_for_work(Duration::from_millis(25));
        let draining = shared.draining.load(Ordering::SeqCst);
        if !draining && shared.ctx.ingest.depth() == 0 {
            // Nothing to apply: an idle pass would just take the writer
            // mutex from a view command.
            continue;
        }
        let mut due = Instant::now();
        if !draining {
            due = pacer.due(due);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let report = shared.ctx.ingest.drain_and_apply(&shared.ctx.state);
        if draining {
            break;
        }
        pacer.applied(due, report.entries_applied);
    }
}

/// Accept until drain. Per accepted connection: stamp socket options,
/// submit a connection job to the pool; on a full queue, shed with 503
/// right here — the acceptor never blocks on workers.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, submit: Submitter) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        // The job needs the stream, and shedding needs it back on refusal;
        // a fd-level clone gives both paths a handle.
        let Ok(job_stream) = stream.try_clone() else {
            continue;
        };
        let job_shared = Arc::clone(&shared);
        let submitted =
            submit.try_submit(move || handle_connection(job_stream, &job_shared));
        if submitted.is_err() {
            shed(&stream, &shared);
        }
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared router context (state, cache, metrics).
    pub fn ctx(&self) -> &RouterCtx {
        &self.shared.ctx
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// drain the accepted-connection queue, join every thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Nudge the blocked acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        // Workers are done: nudge the apply worker so its final pass
        // applies every remaining 202'd batch, then join it.
        self.shared.ctx.ingest.notify();
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join();
        }
        // A worker may have admitted one last batch after the apply
        // worker's final pass drained; apply it here so no 202 is ever
        // dropped.
        let _ = self.shared.ctx.ingest.drain_and_apply(&self.shared.ctx.state);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

/// Serve one connection until close, error, or drain.
fn handle_connection(stream: TcpStream, shared: &ServerShared) {
    let mut reader = RequestReader::new(&stream, shared.config.limits);
    let mut writer = &stream;
    for served in 0..shared.config.max_requests_per_connection {
        match reader.next_request() {
            Ok(request) => {
                let t0 = Instant::now();
                // A panicking handler must cost one 500, not a pool worker:
                // the catch keeps the keep-alive loop (and the worker
                // running it) alive, and poisoned locks recover on the next
                // use via `unwrap_or_else(PoisonError::into_inner)`.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || route(&request, &shared.ctx),
                ))
                .unwrap_or_else(|_| {
                    shared.ctx.metrics.record_handler_panic();
                    Response::json(500, "{\"error\":\"internal handler panic\"}")
                });
                let status = response.status;
                let draining = shared.draining.load(Ordering::SeqCst);
                let last = request.wants_close()
                    || draining
                    || served + 1 == shared.config.max_requests_per_connection;
                let write_ok = response.write_to(&mut writer, !last).is_ok();
                shared.ctx.metrics.record(status, t0.elapsed());
                if last || !write_ok {
                    break;
                }
            }
            Err(HttpError::ConnectionClosed) => break,
            Err(HttpError::Io(_)) => break, // read timeout / reset: just close
            Err(error) => {
                shared.ctx.metrics.record_bad_request();
                if let Some(status) = error.status() {
                    let body = format!("{{\"error\":\"{error}\"}}");
                    let _ = Response::json(status, body).write_to(&mut writer, false);
                    shared.ctx.metrics.record(status, Duration::ZERO);
                }
                break;
            }
        }
    }
}

/// The load-shed response body, built through the shared backpressure
/// constructor so the 503 path advertises `Retry-After` exactly like
/// the ingest 429 path does.
fn shed_response(retry_after_secs: u32) -> Response {
    Response::retry_later_json(503, "{\"error\":\"server overloaded\"}", retry_after_secs)
}

/// Write the shed response straight from the acceptor thread; the
/// connection was never admitted, so this must stay O(microseconds).
fn shed(mut stream: &TcpStream, shared: &ServerShared) {
    let response = shed_response(shared.config.retry_after_secs);
    let _ = response.write_to(&mut stream, false);
    let _ = stream.flush();
    shared.ctx.metrics.record_shed();
    shared.ctx.metrics.record(503, Duration::ZERO);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the 503 half of the shared backpressure helper:
    /// shed responses must carry `Retry-After` (the 429 half is covered
    /// by `ingest_backpressure_answers_429_with_retry_after`).
    #[test]
    fn shed_response_advertises_retry_after() {
        let resp = shed_response(3);
        assert_eq!(resp.status, 503);
        assert!(
            resp.headers.iter().any(|(n, v)| n == "Retry-After" && v == "3"),
            "{:?}",
            resp.headers
        );
        assert!(String::from_utf8(resp.body).unwrap().contains("overloaded"));
    }
}
