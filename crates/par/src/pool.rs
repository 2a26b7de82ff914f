//! A bounded, long-lived worker pool.
//!
//! [`crate::par_map`] and friends spawn scoped threads per call — the right
//! shape for data-parallel batch work, and the wrong one for a server that
//! must execute many small independent jobs arriving over time. This
//! module supplies the second shape: a fixed set of worker threads pulling
//! jobs from a **bounded** queue.
//!
//! The bound is the point. An unbounded queue turns overload into
//! unbounded memory growth and unbounded latency; a bounded queue makes
//! overload visible at the submission site ([`WorkerPool::try_submit`]
//! returns [`SubmitError::QueueFull`]) so the caller can shed load — the
//! backpressure contract `pastas-serve` builds its `503 Retry-After`
//! behaviour on.
//!
//! Guarantees:
//!
//! * **Backpressure, never blocking.** `try_submit` is non-blocking; a
//!   full queue is an `Err`, not a stall.
//! * **Panic isolation.** A panicking job never kills its worker thread;
//!   panics are caught, counted ([`WorkerPool::panic_count`]) and the
//!   worker returns to the queue.
//! * **Graceful drain.** [`WorkerPool::shutdown`] stops admissions, lets
//!   the workers finish every job already accepted, then joins them —
//!   nothing accepted is ever dropped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed load and retry later.
    QueueFull,
    /// [`WorkerPool::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "worker pool queue is full"),
            SubmitError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    depth: AtomicUsize,
    in_flight: AtomicUsize,
    panics: AtomicU64,
    completed: AtomicU64,
}

/// A fixed-size thread pool with a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap observer handle onto a pool's counters — hand it to a metrics
/// endpoint without giving it the power to submit or shut down. Holding
/// one does not keep the worker threads alive.
#[derive(Clone)]
pub struct PoolStats {
    shared: Arc<Shared>,
}

/// A cloneable submission handle. Lets another thread (the acceptor in
/// `pastas-serve`) submit jobs while the [`WorkerPool`] itself stays with
/// whoever will eventually call [`WorkerPool::shutdown`]. Once shutdown
/// begins every submission through the handle returns
/// [`SubmitError::ShuttingDown`].
#[derive(Clone)]
pub struct Submitter {
    shared: Arc<Shared>,
}

impl Submitter {
    /// Submit a job without blocking; same contract as
    /// [`WorkerPool::try_submit`].
    pub fn try_submit(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        submit(&self.shared, Box::new(job))
    }
}

fn submit(shared: &Shared, job: Job) -> Result<(), SubmitError> {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    if state.shutting_down {
        return Err(SubmitError::ShuttingDown);
    }
    if state.jobs.len() >= shared.capacity {
        return Err(SubmitError::QueueFull);
    }
    // bounded: capacity checked above, overflow answers QueueFull
    state.jobs.push_back(job);
    shared.depth.store(state.jobs.len(), Ordering::Relaxed);
    drop(state);
    shared.not_empty.notify_one();
    Ok(())
}

impl PoolStats {
    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Jobs currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Jobs whose closure panicked.
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Jobs run to completion.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }
}

impl WorkerPool {
    /// Spawn `threads` workers (at least 1) behind a queue holding at most
    /// `capacity` pending jobs (at least 1).
    pub fn new(threads: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutting_down: false }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pastas-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // One-time pool construction, not a request path: if the OS
                    // cannot spawn threads at startup the process has no useful
                    // degraded mode to fall back to.
                    // lint:allow(no-panic-hot-path) unrecoverable startup failure
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Submit a job without blocking. `Err(QueueFull)` is the
    /// backpressure signal: the caller decides whether to drop, retry, or
    /// degrade.
    pub fn try_submit(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        submit(&self.shared, Box::new(job))
    }

    /// A submission handle for a thread that must enqueue work but not
    /// own the pool's lifetime.
    pub fn submitter(&self) -> Submitter {
        Submitter { shared: Arc::clone(&self.shared) }
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Jobs currently executing on a worker.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Jobs whose closure panicked (each was caught; the worker survived).
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Jobs run to completion (panicked jobs count as completed).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// An observer handle for metrics endpoints.
    pub fn stats(&self) -> PoolStats {
        PoolStats { shared: Arc::clone(&self.shared) }
    }

    /// The maximum number of queued jobs.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Graceful drain: refuse new submissions, run every job already
    /// queued, then join all workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutting_down = true;
        drop(state);
        self.shared.not_empty.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    shared.depth.store(state.jobs.len(), Ordering::Relaxed);
                    break Some(job);
                }
                if state.shutting_down {
                    break None;
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.try_submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50, "drain runs every accepted job");
    }

    #[test]
    fn full_queue_is_backpressure_not_blocking() {
        // One worker, parked on a gate, so the queue fills deterministically.
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Worker is busy; the queue holds up to 2 more.
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::QueueFull));
        assert_eq!(pool.queue_depth(), 2);
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(|| panic!("job panic")).unwrap();
        let (tx, rx) = mpsc::channel::<u32>();
        pool.try_submit(move || tx.send(7).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        assert_eq!(pool.panic_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn submitter_outlives_the_pool_gracefully() {
        let pool = WorkerPool::new(1, 8);
        let handle = pool.submitter();
        let (tx, rx) = mpsc::channel::<u32>();
        handle.try_submit(move || tx.send(3).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 3);
        pool.shutdown();
        assert_eq!(handle.try_submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let pool = WorkerPool::new(2, 8);
        pool.begin_shutdown();
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 16);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                pool.try_submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10, "drop drains like shutdown");
    }
}
