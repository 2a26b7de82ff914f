//! Streaming ingest: the bounded delta queue between `POST /ingest` and
//! the background apply worker.
//!
//! `POST /ingest` parses the posted rows *immediately* (so the client's
//! 202 carries real parse/linkage counts) against a registry that lives
//! for the whole server — persons batches register identities that later
//! claims/hospital/municipal/prescription batches resolve against. The
//! parsed [`DeltaBatch`] then waits in a **bounded** queue; when the queue
//! is full the endpoint answers `429 Too Many Requests` with a
//! `Retry-After` header instead of buffering without limit — the same
//! explicit-backpressure stance the acceptor takes with its 503 shed.
//!
//! A single apply worker takes the server's writer guard, drains the
//! queue, applies the deltas to a cloned workbench
//! ([`pastas_core::Workbench::apply_ingest`], which patches the code
//! index's postings in place), and publishes the result as a new snapshot
//! — `POST /compact` does the same at once, and the guard orders the two.
//! Readers keep answering from the previous snapshot throughout and see
//! the appended rows the moment the pointer swaps. The worker's passes are
//! paced by the entries they applied (`ApplyPacer`).

use crate::state::ServeState;
use pastas_core::Workbench;
use pastas_ingest::{parse_delta, DeltaBatch, DeltaFormat, IdentityRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Ingest tuning knobs, a sub-config of
/// [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Bounded queue of parsed-but-unapplied delta batches; beyond this
    /// `POST /ingest` answers 429 with `Retry-After`.
    pub queue_capacity: usize,
    /// `Retry-After` seconds advertised on ingest 429s.
    pub retry_after_secs: u32,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig { queue_capacity: 256, retry_after_secs: 1 }
    }
}

/// What `POST /ingest` tells the client about an accepted batch.
#[derive(Debug, Clone)]
pub struct IngestReceipt {
    /// Data rows read from the posted text (header excluded).
    pub rows_read: usize,
    /// Rows that failed to parse (counted, not fatal — batch semantics).
    pub parse_errors: usize,
    /// Rows whose patient identifier resolved to no registered person.
    pub unlinked_rows: usize,
    /// Entries queued for application.
    pub entries: usize,
    /// Queue depth after this batch was admitted.
    pub queue_depth: usize,
}

/// The queue refused a batch: it is at capacity.
#[derive(Debug, Clone, Copy)]
pub struct QueueFull {
    /// Depth at refusal (== capacity).
    pub queue_depth: usize,
}

/// What one drain-and-apply pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppliedReport {
    /// Batches drained and applied this pass.
    pub batches: usize,
    /// Entries that survived dedup/validation and landed in the store.
    pub entries_applied: usize,
    /// Version of the last snapshot this pass published (0 = none).
    pub version: u64,
}

/// What the apply worker waits, per entry it applied, before it
/// starts its next pass: the background writer takes 4,000 entries a
/// second and no more.
const PAUSE_PER_APPLIED_ENTRY: Duration = Duration::from_micros(250);

/// Longest pause one pass can earn, so that a bulk load is not held to the
/// streaming rate: passes of more than 320 entries run 12.5 times a second.
const MAX_APPLY_PAUSE: Duration = Duration::from_millis(80);

/// Paces the apply worker's passes by the entries they applied. A
/// batch that arrives after a quiet spell is applied at once; under a
/// sustained stream the passes follow a clock (a 200-entry increment every
/// 50 ms) and whatever queued up meanwhile rides in one publish. Every
/// publish copies the row chunks its touched rows live in (about 230 KiB
/// each; whole-population arrays, 30.5 MiB at 1M patients, before the row
/// table was chunked) and retires every cached response, so the pace
/// bounds what a writer can cost the readers, and it makes a streamed
/// batch's lag to visibility the pause its predecessor earned rather than
/// what the scheduler made of the hand-offs between client, connection
/// worker and apply worker. A synchronous `POST /compact` is not paced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApplyPacer {
    /// Earliest start of the next pass that has batches to apply.
    next: Instant,
}

impl ApplyPacer {
    pub(crate) fn new(now: Instant) -> ApplyPacer {
        ApplyPacer { next: now }
    }

    /// When a pass that finds batches queued at `now` may start.
    pub(crate) fn due(&self, now: Instant) -> Instant {
        now.max(self.next)
    }

    /// Account for a pass that was due at `due` and applied `entries`. The
    /// pause counts from the nominal start, not from the wake-up, so a late
    /// wake-up does not push the later passes back.
    pub(crate) fn applied(&mut self, due: Instant, entries: usize) {
        let entries = u32::try_from(entries).unwrap_or(u32::MAX);
        let pause = PAUSE_PER_APPLIED_ENTRY.saturating_mul(entries).min(MAX_APPLY_PAUSE);
        self.next = self.next.max(due + pause);
    }
}

struct QueueInner {
    queue: VecDeque<DeltaBatch>,
    registry: IdentityRegistry,
}

/// The bounded ingest queue plus its identity registry and counters.
pub struct IngestQueue {
    inner: Mutex<QueueInner>,
    /// Wakes the apply worker when a batch arrives.
    work: Condvar,
    config: IngestConfig,
    batches_total: AtomicU64,
    rejected_total: AtomicU64,
    applied_entries_total: AtomicU64,
    /// Entries parsed and queued but not yet applied — the ingest lag, in
    /// entries.
    pending_entries: AtomicU64,
}

impl IngestQueue {
    /// A queue whose registry is seeded with every patient already in the
    /// workbench, so deltas for known patients link without a fresh
    /// persons upload.
    pub fn new(workbench: &Workbench, config: IngestConfig) -> IngestQueue {
        let mut registry = IdentityRegistry::new();
        for history in workbench.collection().histories() {
            let p = history.patient();
            registry.register(p.id.0, p.birth_date, p.sex);
        }
        IngestQueue {
            inner: Mutex::new(QueueInner { queue: VecDeque::new(), registry }),
            work: Condvar::new(),
            config,
            batches_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            applied_entries_total: AtomicU64::new(0),
            pending_entries: AtomicU64::new(0),
        }
    }

    /// Parse `text` as one `format` increment and enqueue the resulting
    /// deltas. Fails fast (without parsing) when the queue is full.
    pub fn try_push(&self, format: DeltaFormat, text: &str) -> Result<IngestReceipt, QueueFull> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.queue.len() >= self.config.queue_capacity {
            self.rejected_total.fetch_add(1, Ordering::Relaxed);
            return Err(QueueFull { queue_depth: inner.queue.len() });
        }
        // Parsing under the lock keeps registry updates (persons batches)
        // ordered with the deltas that resolve against them.
        let batch = parse_delta(format, text, &mut inner.registry);
        let entries = batch.entries();
        let receipt = IngestReceipt {
            rows_read: batch.rows_read,
            parse_errors: batch.parse_errors,
            unlinked_rows: batch.unlinked_rows,
            entries,
            queue_depth: inner.queue.len() + 1,
        };
        // bounded: capacity checked above, overflow answers 429
        inner.queue.push_back(batch);
        drop(inner);
        self.pending_entries.fetch_add(entries as u64, Ordering::Relaxed);
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.work.notify_one();
        Ok(receipt)
    }

    /// Take every queued batch. Only a writer drains (`drain_and_apply`
    /// holds the guard from here to its last publish), so a synchronous
    /// `POST /compact` cannot overtake a worker pass that has drained
    /// batches but not yet published them.
    pub(crate) fn drain(&self, _writer: &MutexGuard<'_, ()>) -> Vec<DeltaBatch> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.queue.drain(..).collect()
    }

    /// Under the writer guard: drain every queued batch, apply them to a
    /// fresh snapshot and publish. Safe to call from both the apply worker
    /// and a synchronous `POST /compact`.
    pub fn drain_and_apply(&self, state: &ServeState) -> AppliedReport {
        let writer = state.writer();
        let batches = self.drain(&writer);
        let mut report = AppliedReport { batches: batches.len(), ..AppliedReport::default() };
        if !batches.is_empty() {
            let queued: usize = batches.iter().map(DeltaBatch::entries).sum();
            let (version, stats) = state.ingest(&writer, &batches);
            self.pending_entries.fetch_sub(queued as u64, Ordering::Relaxed);
            self.applied_entries_total
                .fetch_add(stats.entries_applied as u64, Ordering::Relaxed);
            report.entries_applied = stats.entries_applied;
            report.version = version;
        }
        report
    }

    /// Block until a batch is queued, up to `timeout`. The apply worker's
    /// idle loop.
    pub fn wait_for_work(&self, timeout: Duration) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.queue.is_empty() {
            let _ = self.work.wait_timeout(inner, timeout);
        }
    }

    /// Wake a worker blocked in [`IngestQueue::wait_for_work`] (shutdown).
    pub fn notify(&self) {
        self.work.notify_all();
    }

    /// Batches currently queued.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }

    /// Entries parsed and queued but not yet applied (the ingest lag).
    pub fn pending_entries(&self) -> u64 {
        self.pending_entries.load(Ordering::Relaxed)
    }

    /// Batches accepted since startup.
    pub fn batches_total(&self) -> u64 {
        self.batches_total.load(Ordering::Relaxed)
    }

    /// Batches refused with 429 since startup.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_total.load(Ordering::Relaxed)
    }

    /// Entries that survived dedup/validation and were applied.
    pub fn applied_entries_total(&self) -> u64 {
        self.applied_entries_total.load(Ordering::Relaxed)
    }

    /// `Retry-After` seconds to advertise on a 429.
    pub fn retry_after_secs(&self) -> u32 {
        self.config.retry_after_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_synth::{generate_collection, SynthConfig};

    const PERSONS: &str = "nin;birth_date;sex\nNIN-0900001;1950-01-01;F\n";
    const CLAIMS: &str =
        "claim_id;patient;date;provider;icpc;note\nX1;NIN-0900001;04.05.2013;GP;T90;\n";

    fn queue_and_state(capacity: usize) -> (IngestQueue, ServeState) {
        let wb = Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(80),
            5,
        ));
        let queue = IngestQueue::new(
            &wb,
            IngestConfig { queue_capacity: capacity, ..IngestConfig::default() },
        );
        (queue, ServeState::new(wb))
    }

    #[test]
    fn push_apply_compact_lifecycle() {
        let (queue, state) = queue_and_state(8);
        queue.try_push(DeltaFormat::Persons, PERSONS).unwrap();
        let receipt = queue.try_push(DeltaFormat::Claims, CLAIMS).unwrap();
        assert_eq!(receipt.entries, 1);
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.pending_entries(), 1);
        let report = queue.drain_and_apply(&state);
        assert_eq!(report.batches, 2);
        assert_eq!(report.entries_applied, 1);
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.pending_entries(), 0);
        let snap = state.snapshot();
        assert_eq!(report.version, snap.version);
        assert_eq!(snap.workbench.collection().len(), 81);
        assert_eq!(snap.workbench.index().rows(), 81, "the index covers the new row");
        // A pass with nothing queued publishes nothing.
        let report = queue.drain_and_apply(&state);
        assert_eq!((report.batches, report.version), (0, 0));
        assert_eq!(state.snapshot().version, snap.version);
    }

    #[test]
    fn pacer_spaces_streamed_passes_by_the_entries_they_applied() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut pacer = ApplyPacer::new(t0);
        assert_eq!(pacer.due(t0), t0, "a first batch is applied at once");
        pacer.applied(t0, 200);
        // The next increment was queued 5 ms later and waits out the pause.
        assert_eq!(pacer.due(t0 + ms(5)), t0 + ms(50));
        pacer.applied(t0 + ms(50), 280);
        assert_eq!(pacer.due(t0 + ms(60)), t0 + ms(120));
        // An idle pass inside the pause does not shorten it.
        pacer.applied(t0 + ms(75), 0);
        assert_eq!(pacer.due(t0 + ms(76)), t0 + ms(120));
        // A bulk pass earns the longest pause and no more.
        pacer.applied(t0 + ms(120), 1_000_000);
        assert_eq!(pacer.due(t0 + ms(121)), t0 + ms(200));
        // After a quiet spell nothing is owed.
        assert_eq!(pacer.due(t0 + ms(900)), t0 + ms(900));
    }

    #[test]
    fn full_queue_refuses_without_parsing() {
        let (queue, _state) = queue_and_state(1);
        queue.try_push(DeltaFormat::Persons, PERSONS).unwrap();
        let full = queue.try_push(DeltaFormat::Claims, CLAIMS).unwrap_err();
        assert_eq!(full.queue_depth, 1);
        assert_eq!(queue.rejected_total(), 1);
        assert_eq!(queue.pending_entries(), 0, "refused batch was never parsed");
    }

    /// One round of [`writer_mutex_orders_drains_compactions_and_commands`]:
    /// pushers, two threads of drain-and-apply passes (the worker and a
    /// `POST /compact` at once), view commands and a reader, all
    /// interleaving freely. A pass must return only once every
    /// entry accepted before it started is applied — the quiesce promise
    /// of `POST /compact`. Returns the versions each looping thread saw.
    fn writer_round() -> Vec<Vec<u64>> {
        use pastas_core::ViewCommand;
        use pastas_query::SortKey;
        use std::sync::atomic::AtomicBool;
        const PUSHERS: usize = 3;
        const PUSHES: usize = 40;
        let (queue, state) = queue_and_state(PUSHERS * PUSHES);
        let ids: Vec<u64> =
            state.snapshot().workbench.collection().histories().iter().map(|h| h.id().0).collect();
        let day0 = pastas_time::Date::new(2031, 1, 1).unwrap();
        let (accepted, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        let push = |k: usize| {
            // A distinct day each, so no entry is a duplicate.
            let d = day0.add_days(k as i64);
            let claims = format!(
                "claim_id;patient;date;provider;icpc;note\n\
                 C{k};NIN-{:07};{:02}.{:02}.{};GP;T90;\n",
                ids[k % ids.len()],
                d.day(),
                d.month(),
                d.year()
            );
            let receipt = queue.try_push(DeltaFormat::Claims, &claims).unwrap();
            accepted.fetch_add(receipt.entries as u64, Ordering::SeqCst);
        };
        let drain = || {
            let before = accepted.load(Ordering::SeqCst);
            let version = queue.drain_and_apply(&state).version;
            assert!(queue.applied_entries_total() >= before, "a drain overtook a pass");
            version
        };
        let sort = || state.apply(&ViewCommand::Sort(SortKey::EntryCount)).unwrap();
        let read = || state.snapshot().version;
        let steps: [&(dyn Fn() -> u64 + Sync); 4] = [&drain, &drain, &sort, &read];
        let seen = std::thread::scope(|s| {
            let loops: Vec<_> = steps
                .into_iter()
                .map(|step| {
                    s.spawn(|| {
                        let mut versions = Vec::new();
                        while !stop.load(Ordering::SeqCst) {
                            versions.push(step());
                        }
                        versions
                    })
                })
                .collect();
            let pushers: Vec<_> = (0..PUSHERS)
                .map(|t| s.spawn(move || (t * PUSHES..(t + 1) * PUSHES).for_each(push)))
                .collect();
            pushers.into_iter().for_each(|h| h.join().unwrap());
            stop.store(true, Ordering::SeqCst);
            loops.into_iter().map(|h| h.join().unwrap()).collect()
        });
        queue.drain_and_apply(&state);
        let accepted = accepted.into_inner();
        assert_eq!(accepted, (PUSHERS * PUSHES) as u64);
        assert_eq!(queue.applied_entries_total(), accepted, "every entry applied exactly once");
        let head = state.snapshot();
        assert_eq!(head.workbench.index().rows() as usize, head.workbench.collection().len());
        assert_eq!((queue.depth(), queue.pending_entries()), (0, 0));
        seen
    }

    /// The writer mutex alone orders the writers (see [`writer_round`]),
    /// and no thread sees a version go backwards. The race a missing lock
    /// opens is narrow, so the scenario runs sixteen times; the whole runs
    /// on a helper thread, so a deadlock fails the test instead of hanging.
    #[test]
    fn writer_mutex_orders_drains_compactions_and_commands() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send((0..16).flat_map(|_| writer_round()).collect::<Vec<_>>());
        });
        let seen = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("the writers deadlocked or panicked");
        for versions in &seen {
            // A drain that published nothing reports version 0.
            let published: Vec<u64> = versions.iter().copied().filter(|&v| v > 0).collect();
            assert!(published.windows(2).all(|w| w[0] <= w[1]), "{published:?}");
        }
    }

    #[test]
    fn registry_links_deltas_to_preloaded_patients() {
        let (queue, state) = queue_and_state(8);
        let id = state.snapshot().workbench.collection().histories()[0].id();
        let claims = format!(
            "claim_id;patient;date;provider;icpc;note\nX9;NIN-{:07};04.05.2013;GP;Z98;\n",
            id.0
        );
        let receipt = queue.try_push(DeltaFormat::Claims, &claims).unwrap();
        assert_eq!(receipt.unlinked_rows, 0, "seeded registry resolves {id}");
        assert_eq!(receipt.entries, 1);
    }
}
