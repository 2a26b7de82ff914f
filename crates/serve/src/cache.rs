//! A bounded LRU response cache.
//!
//! Keys are strings of the form
//! `v{state version}:c{collection fingerprint}:{endpoint}:{params…}` —
//! the query component reuses [`pastas_query::HistoryQuery::fingerprint`],
//! so two structurally identical queries share an entry no matter how they
//! were written. Including the state version means a `/command` or ingest
//! swap *implicitly* invalidates every stale entry: old keys are never
//! asked for again, and the first request at a newer version drops them
//! ([`ResponseCache::retire_before`]) instead of leaving them to the LRU.
//!
//! Bounded two ways (entry count and total body bytes) so a burst of
//! distinct heavy renders cannot balloon memory. Eviction is
//! least-recently-used by a monotone use tick; the scan is O(entries) but
//! entries are capped in the hundreds, so eviction stays in the noise next
//! to rendering.

use crate::http::Response;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Slot {
    last_used: u64,
    response: Arc<Response>,
}

struct Inner {
    slots: HashMap<String, Slot>,
    tick: u64,
    bytes: usize,
}

/// The cache. Cheap to share: lookups clone an `Arc`, not the body.
pub struct ResponseCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The newest state version older entries were retired for.
    newest: AtomicU64,
}

impl ResponseCache {
    /// A cache bounded by `max_entries` entries and `max_bytes` total body
    /// bytes (both at least 1).
    pub fn new(max_entries: usize, max_bytes: usize) -> ResponseCache {
        ResponseCache {
            inner: Mutex::new(Inner { slots: HashMap::new(), tick: 0, bytes: 0 }),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            newest: AtomicU64::new(0),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Response>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let response = Arc::clone(&slot.response);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(response)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting least-recently-used entries
    /// until both bounds hold. A body larger than the whole byte budget is
    /// simply not cached.
    pub fn put(&self, key: String, response: Arc<Response>) {
        let size = response.body.len();
        if size > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.slots.insert(key, Slot { last_used: tick, response }) {
            inner.bytes -= old.response.body.len();
        }
        inner.bytes += size;
        while inner.slots.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some(victim) = inner
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(slot) = inner.slots.remove(&victim) {
                inner.bytes -= slot.response.body.len();
            }
        }
    }

    /// Drop every entry keyed to a state version older than `version`,
    /// once per version. No request reaches them after a publish, and a
    /// run of view commands would otherwise park one rendered SVG per
    /// version until the LRU got to it. Keys not of the `v{version}:`
    /// form stay.
    pub fn retire_before(&self, version: u64) {
        // A counter, not a guard: it publishes nothing, and two callers
        // that both advance it retire the same keys.
        if self.newest.fetch_max(version, Ordering::Relaxed) >= version {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let version_of = |key: &str| key.strip_prefix('v')?.split(':').next()?.parse::<u64>().ok();
        inner.slots.retain(|key, _| version_of(key).is_none_or(|v| v >= version));
        inner.bytes = inner.slots.values().map(|slot| slot.response.body.len()).sum();
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached body bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless the byte accounting is *exact* — the cached `bytes`
    /// counter equals the recomputed sum of resident body lengths — and
    /// both LRU bounds hold, and no slot claims a recency tick from the
    /// future.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let actual: usize = inner.slots.values().map(|s| s.response.body.len()).sum();
        assert_eq!(
            inner.bytes, actual,
            "cache: byte accounting drifted (counter {} vs resident {})",
            inner.bytes, actual
        );
        assert!(
            inner.slots.len() <= self.max_entries,
            "cache: {} entries exceed the bound {}",
            inner.slots.len(),
            self.max_entries
        );
        assert!(
            inner.bytes <= self.max_bytes,
            "cache: {} bytes exceed the budget {}",
            inner.bytes,
            self.max_bytes
        );
        for (key, slot) in &inner.slots {
            assert!(
                slot.last_used <= inner.tick,
                "cache: entry {key:?} used at tick {} but the clock is at {}",
                slot.last_used,
                inner.tick
            );
        }
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}

    /// Fault injection for the poisoned-lock regression test: panic while
    /// holding the cache mutex, leaving it poisoned. Debug builds only —
    /// the `/__fault` route behind it does not exist in release binaries.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let _guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // lint:allow(no-panic-hot-path) deliberate fault injection, debug builds only
        panic!("injected fault: poisoning the response-cache lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> Arc<Response> {
        Arc::new(Response::text(200, body))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResponseCache::new(8, 1024);
        assert!(cache.get("a").is_none());
        cache.put("a".into(), resp("body"));
        let hit = cache.get("a").expect("hit");
        assert_eq!(hit.body, b"body");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.bytes(), 4);
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let cache = ResponseCache::new(2, 1024);
        cache.put("a".into(), resp("1"));
        cache.put("b".into(), resp("2"));
        let _ = cache.get("a"); // refresh a; b is now LRU
        cache.put("c".into(), resp("3"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn byte_bound_evicts_and_rejects_oversized() {
        let cache = ResponseCache::new(100, 10);
        cache.put("a".into(), resp("aaaa"));
        cache.put("b".into(), resp("bbbb"));
        cache.put("c".into(), resp("cccc")); // 12 bytes total -> evict LRU "a"
        assert!(cache.get("a").is_none());
        assert!(cache.bytes() <= 10);
        cache.put("huge".into(), resp("xxxxxxxxxxxxxxxx"));
        assert!(cache.get("huge").is_none(), "over-budget body is not cached");
    }

    #[test]
    fn a_newer_version_retires_older_entries_once() {
        let cache = ResponseCache::new(8, 1024);
        for key in ["v1:c0:svg", "v2:c0:svg", "v10:c0:svg", "metrics"] {
            cache.put(key.into(), resp("body"));
        }
        cache.retire_before(2);
        assert!(cache.get("v1:c0:svg").is_none(), "v1 retired");
        assert_eq!((cache.len(), cache.bytes()), (3, 12));
        cache.put("v1:c0:svg".into(), resp("late"));
        cache.retire_before(2);
        assert_eq!(cache.len(), 4, "a version retires once");
        cache.debug_validate();
    }

    #[test]
    fn reinserting_a_key_replaces_its_bytes() {
        let cache = ResponseCache::new(8, 1024);
        cache.put("a".into(), resp("aaaa"));
        cache.put("a".into(), resp("bb"));
        assert_eq!(cache.bytes(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").unwrap().body, b"bb");
    }
}
