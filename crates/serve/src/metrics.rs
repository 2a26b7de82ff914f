//! Live server metrics: lock-free counters and a latency ring.
//!
//! Every request increments atomic counters and stamps its wall-clock
//! latency into a fixed ring of the most recent `RING` observations;
//! `GET /metrics` sorts a copy of the ring to report p50/p99. The ring
//! trades exactness-over-all-time for zero allocation and bounded memory —
//! the percentiles are over the last few thousand requests, which is what
//! an operator watching a live system wants anyway.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency observations kept (most recent wins; power of two).
const RING: usize = 4096;

/// All counters the server exposes. One instance per server, shared by
/// every worker through an `Arc`.
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// 503s sent because the bounded queue was full — the shed-load count.
    shed_total: AtomicU64,
    /// Connections dropped for parse/read failures.
    bad_requests: AtomicU64,
    /// Handler panics converted to 500s by the connection loop's catch.
    handler_panics: AtomicU64,
    ring: Vec<AtomicU64>,
    ring_next: AtomicUsize,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh metrics; the uptime clock starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            ring: (0..RING).map(|_| AtomicU64::new(u64::MAX)).collect(),
            ring_next: AtomicUsize::new(0),
        }
    }

    /// Record one served request: its status class and latency.
    pub fn record(&self, status: u16, latency: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX - 1);
        let slot = self.ring_next.fetch_add(1, Ordering::Relaxed) % RING;
        if let Some(cell) = self.ring.get(slot) {
            cell.store(micros, Ordering::Relaxed);
        }
    }

    /// Record a request shed with `503` because the queue was full.
    pub fn record_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection that died on a malformed request.
    pub fn record_bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a handler panic caught and converted to a 500.
    pub fn record_handler_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    pub fn handler_panics(&self) -> u64 {
        self.handler_panics.load(Ordering::Relaxed)
    }

    /// Requests served (any status).
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Requests shed with 503.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// `(p50, p99)` over the retained latency ring, in milliseconds.
    /// Zeros when nothing has been recorded yet.
    pub fn latency_percentiles_ms(&self) -> (f64, f64) {
        let mut sample: Vec<u64> = self
            .ring
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .filter(|&v| v != u64::MAX)
            .collect();
        if sample.is_empty() {
            return (0.0, 0.0);
        }
        sample.sort_unstable();
        let at = |q: f64| {
            #[expect(clippy::cast_possible_truncation, reason = "q <= 1.0 keeps idx <= len - 1")]
            let idx = ((sample.len() - 1) as f64 * q).round() as usize;
            sample.get(idx).map_or(0.0, |&us| us as f64 / 1e3)
        };
        (at(0.50), (at(0.99)))
    }

    /// Render the full metrics document as JSON. The caller contributes
    /// the gauges only it can see (queue depth, cache counters, worker
    /// panics) via `extra` — pairs of `(name, value)` appended verbatim.
    pub fn render_json(&self, extra: &[(&str, f64)]) -> String {
        use std::fmt::Write as _;
        let (p50, p99) = self.latency_percentiles_ms();
        let mut out = String::with_capacity(512);
        out.push('{');
        let _ = write!(
            out,
            "\"uptime_s\":{:.1},\"requests_total\":{},\"responses_2xx\":{},\
             \"responses_4xx\":{},\"responses_5xx\":{},\"shed_total\":{},\
             \"bad_requests\":{},\"handler_panics\":{},\
             \"latency_p50_ms\":{p50:.3},\"latency_p99_ms\":{p99:.3}",
            self.started.elapsed().as_secs_f64(),
            self.requests_total.load(Ordering::Relaxed),
            self.responses_2xx.load(Ordering::Relaxed),
            self.responses_4xx.load(Ordering::Relaxed),
            self.responses_5xx.load(Ordering::Relaxed),
            self.shed_total.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
            self.handler_panics.load(Ordering::Relaxed),
        );
        for (name, value) in extra {
            if value.fract() == 0.0 && value.abs() < 1e15 {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a whole number below 1e15 fits i64"
                )]
                let _ = write!(out, ",\"{name}\":{}", *value as i64);
            } else {
                let _ = write!(out, ",\"{name}\":{value:.4}");
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_classes() {
        let m = Metrics::new();
        m.record(200, Duration::from_micros(100));
        m.record(200, Duration::from_micros(300));
        m.record(404, Duration::from_micros(50));
        m.record(503, Duration::from_micros(10));
        m.record_shed();
        assert_eq!(m.requests_total(), 4);
        assert_eq!(m.shed_total(), 1);
        let json = m.render_json(&[("queue_depth", 3.0), ("cache_hit_rate", 0.5)]);
        assert!(json.contains("\"requests_total\":4"), "{json}");
        assert!(json.contains("\"responses_2xx\":2"));
        assert!(json.contains("\"responses_4xx\":1"));
        assert!(json.contains("\"responses_5xx\":1"));
        assert!(json.contains("\"queue_depth\":3"));
        assert!(json.contains("\"cache_hit_rate\":0.5000"));
        // Parses with the workspace's own JSON parser.
        assert!(pastas_ingest::json::Json::parse(&json).is_ok());
    }

    #[test]
    fn percentiles_over_the_ring() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record(200, Duration::from_micros(i * 1000));
        }
        let (p50, p99) = m.latency_percentiles_ms();
        assert!((p50 - 50.0).abs() <= 1.5, "p50 {p50}");
        assert!((p99 - 99.0).abs() <= 1.5, "p99 {p99}");
    }

    #[test]
    fn empty_ring_reports_zero() {
        assert_eq!(Metrics::new().latency_percentiles_ms(), (0.0, 0.0));
    }

    #[test]
    fn ring_wraps_without_growth() {
        let m = Metrics::new();
        for _ in 0..(RING * 2 + 17) {
            m.record(200, Duration::from_micros(5));
        }
        assert_eq!(m.requests_total() as usize, RING * 2 + 17);
        let (p50, _) = m.latency_percentiles_ms();
        assert!((p50 - 0.005).abs() < 1e-9);
    }
}
