//! The server proper: acceptor thread, bounded connection channel,
//! per-connection keep-alive loop, load shedding, and graceful shutdown.
//!
//! Threading model (DESIGN.md §8):
//!
//! * **one acceptor** blocks on [`TcpListener::accept`] and does almost
//!   nothing per connection — stamp socket timeouts, try to send the
//!   stream into a bounded `sync_channel`;
//! * **`workers` threads** share the channel's receiver behind one mutex;
//!   each owns one connection at a time and runs its whole keep-alive
//!   session (read → route → write, repeat) under one `catch_unwind`, so
//!   a panic costs that connection and not the thread;
//! * when the channel is full the **acceptor itself** writes
//!   `503 Service Unavailable` + `Retry-After` and closes — overload
//!   degrades into fast, explicit rejections instead of unbounded queues;
//! * [`ServerHandle::shutdown`] stops admissions and nudges the acceptor
//!   awake; the acceptor exits and drops the sender, and every worker
//!   serves what is already queued (responses carry `Connection: close`
//!   once draining starts) and stops when the channel is empty.

use crate::http::{HttpError, Limits, RequestReader, Response};
use crate::ingest::{ApplyPacer, IngestConfig};
use crate::router::{route, RouterCtx};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
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
    acceptor: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
    let (queue, inbox) = sync_channel(config.queue_capacity.max(1));
    let inbox = Arc::new(Mutex::new(inbox));
    let shared = Arc::new(ServerShared { ctx, config, draining: AtomicBool::new(false) });

    let workers = (0..workers)
        .map(|i| {
            let (inbox, shared) = (Arc::clone(&inbox), Arc::clone(&shared));
            std::thread::Builder::new()
                .name(format!("pastas-serve-worker-{i}"))
                .spawn(move || worker_loop(&inbox, &shared, handle_connection))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pastas-serve-acceptor".to_owned())
            .spawn(move || accept_loop(|| Ok(listener.accept()?.0), &shared, &queue))?
    };
    let ingest = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pastas-serve-ingest".to_owned())
            .spawn(move || apply_loop(&shared))?
    };

    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor), ingest: Some(ingest), workers })
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

/// Pause before `accept` is retried after it failed.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Accept until drain. Per accepted connection: stamp socket options and
/// send the stream to the workers; on a full queue, shed with 503 right
/// here — the acceptor never blocks on workers. Returning drops `queue`,
/// which lets the workers drain and stop.
///
/// A failed `accept` stops the loop only once draining has begun;
/// otherwise it waits [`ACCEPT_RETRY`] and accepts again. accept(2) fails
/// transiently — `ECONNABORTED`, `EMFILE`, `ENFILE`, and on Linux network
/// errors already pending on the new socket — and an acceptor that
/// stopped on one would leave a server that looks alive and never
/// accepts again.
fn accept_loop(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    shared: &ServerShared,
    queue: &SyncSender<TcpStream>,
) {
    loop {
        let stream = match accept() {
            Ok(stream) => stream,
            Err(_) if shared.draining.load(Ordering::SeqCst) => break,
            Err(_) => {
                std::thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        match queue.try_send(stream) {
            Ok(()) => shared.ctx.metrics.record_queued(),
            Err(TrySendError::Full(stream)) => shed(&stream, shared),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// A worker: take the next queued connection and serve it with `serve`
/// until the acceptor is gone and the queue is empty. A panic outside the
/// handler's own catch costs its connection, is counted in
/// `worker_panics`, and the thread goes on to the next connection.
fn worker_loop(
    inbox: &Mutex<Receiver<TcpStream>>,
    shared: &ServerShared,
    serve: impl Fn(TcpStream, &ServerShared),
) {
    loop {
        // The guard drops with this statement, so the next worker waits
        // for a connection while this one serves (a `while let` scrutinee
        // would hold it through the loop body).
        let next = inbox.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else { return };
        let metrics = &shared.ctx.metrics;
        metrics.record_connection_start();
        let panicked = catch_unwind(AssertUnwindSafe(|| serve(stream, shared))).is_err();
        metrics.record_connection_end(panicked);
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
    /// drain the accepted-connection queue, join every thread. Returns the
    /// worker panics counted over the server's life, the drain included.
    pub fn shutdown(mut self) -> u64 {
        self.begin_shutdown();
        self.shared.ctx.metrics.worker_panics()
    }

    fn begin_shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Nudge the blocked acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // The acceptor exits and drops the sender; each worker serves what
        // is already queued and stops when the channel is empty.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
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
                // A panicking handler must cost one 500, not a connection:
                // the catch keeps the keep-alive loop (and the worker
                // running it) alive, and poisoned locks recover on the next
                // use via `unwrap_or_else(PoisonError::into_inner)`.
                let response = catch_unwind(AssertUnwindSafe(|| route(&request, &shared.ctx)))
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
    use crate::client::Conn;
    use pastas_core::Workbench;
    use pastas_synth::{generate_collection, SynthConfig};
    use std::io::Read as _;
    use std::sync::atomic::AtomicUsize;

    fn test_shared() -> ServerShared {
        let workbench =
            Workbench::from_collection(generate_collection(SynthConfig::with_patients(50), 11));
        ServerShared {
            ctx: RouterCtx::new(workbench, 8, 1 << 20),
            config: ServerConfig::default(),
            draining: AtomicBool::new(false),
        }
    }

    /// A failed `accept` is retried while the server runs and stops the
    /// acceptor only once draining has begun.
    #[test]
    fn accept_errors_stop_the_acceptor_only_when_draining() {
        let shared = test_shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (queue, inbox) = sync_channel(2);
        let mut calls = 0;
        let accept = || -> io::Result<TcpStream> {
            calls += 1;
            if calls == 2 {
                return Ok(listener.accept()?.0);
            }
            // The first failure is retried; the one after it, while draining, stops the loop.
            shared.draining.store(calls > 2, Ordering::SeqCst);
            Err(io::ErrorKind::ConnectionAborted.into())
        };
        accept_loop(accept, &shared, &queue);
        assert!(inbox.try_recv().is_ok(), "the accept after the failed one was queued");
        assert_eq!(shared.ctx.metrics.queue_depth(), 1);
    }

    /// The receiver's lock is held while a worker waits for a connection,
    /// not while it serves one: two workers serve two connections at once.
    #[test]
    fn workers_serve_connections_side_by_side() {
        let shared = test_shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (queue, inbox) = sync_channel(2);
        let mut clients = Vec::new();
        for _ in 0..2 {
            clients.push(TcpStream::connect(addr).unwrap());
            queue.send(listener.accept().unwrap().0).unwrap();
        }
        drop(queue);

        let (inbox, inside) = (Mutex::new(inbox), AtomicUsize::new(0));
        let serve = |_: TcpStream, _: &ServerShared| {
            inside.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while inside.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "the other worker never started serving");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (inbox, shared) = (&inbox, &shared);
                scope.spawn(move || worker_loop(inbox, shared, serve));
            }
        });
        assert_eq!(inside.into_inner(), 2);
        assert_eq!(shared.ctx.metrics.worker_panics(), 0, "both connections were served at once");
    }

    /// A panic outside `route` costs its connection, counts once in
    /// `worker_panics`, and the same worker serves the next connection.
    #[test]
    fn connection_panic_costs_one_connection_and_the_worker_serves_on() {
        let shared = test_shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut doomed = TcpStream::connect(addr).unwrap();
        let (queue, inbox) = sync_channel(2);
        queue.send(listener.accept().unwrap().0).unwrap();
        let mut next = Conn::connect(addr, Duration::from_secs(30)).unwrap();
        queue.send(listener.accept().unwrap().0).unwrap();
        drop(queue);

        let (inbox, calls) = (Mutex::new(inbox), AtomicUsize::new(0));
        let serve = |stream, shared: &ServerShared| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("connection fault outside route");
            }
            handle_connection(stream, shared);
        };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| worker_loop(&inbox, &shared, serve));
            doomed.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut reply = Vec::new();
            doomed.read_to_end(&mut reply).unwrap();
            assert!(reply.is_empty(), "the panicked connection is closed unanswered");

            let metrics = next.get("/metrics").unwrap();
            assert_eq!(metrics.status, 200);
            assert!(metrics.body_str().contains("\"worker_panics\":1"), "{}", metrics.body_str());
            drop(next);
            // The queue is empty and its sender gone: the worker returns.
            worker.join().expect("the worker thread survived the panic");
        });
        assert_eq!(calls.into_inner(), 2, "one worker served both connections");
        assert_eq!(shared.ctx.metrics.worker_panics(), 1);
    }

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
