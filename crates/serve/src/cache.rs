//! The response cache: a [`BoundedCache`] of rendered responses, plus
//! the retirement of stale state versions.
//!
//! Keys are strings of the form `v{state version}:{endpoint}:{params…}` —
//! the query component reuses [`pastas_query::HistoryQuery::fingerprint`],
//! so two structurally identical queries share an entry no matter how they
//! were written. Including the state version means a `/command` or ingest
//! swap *implicitly* invalidates every stale entry: old keys are never
//! asked for again, and the first request at a newer version drops them
//! ([`ResponseCache::retire_before`]) instead of leaving them to the LRU.
//!
//! Bounded by [`RESPONSE_CACHE_ENTRIES`] responses and
//! [`RESPONSE_CACHE_BYTES`] body bytes, so a burst of distinct heavy
//! renders cannot balloon memory; a body larger than the byte bound is
//! not kept.

use crate::http::Response;
use pastas_core::BoundedCache;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most responses the cache holds.
pub const RESPONSE_CACHE_ENTRIES: usize = 512;

/// Most body bytes the cache holds.
pub const RESPONSE_CACHE_BYTES: usize = 256 << 20;

/// The cache. Cheap to share: lookups clone an `Arc`, not the body. The
/// map's methods (`get`, `put`, `hits`, …) are reached through `Deref`.
pub struct ResponseCache {
    responses: BoundedCache<Arc<Response>>,
    /// The newest state version older entries were retired for.
    newest: AtomicU64,
}

impl Default for ResponseCache {
    fn default() -> ResponseCache {
        ResponseCache {
            responses: BoundedCache::new(RESPONSE_CACHE_ENTRIES, RESPONSE_CACHE_BYTES, |r| {
                r.body.len()
            }),
            newest: AtomicU64::new(0),
        }
    }
}

impl Deref for ResponseCache {
    type Target = BoundedCache<Arc<Response>>;

    fn deref(&self) -> &BoundedCache<Arc<Response>> {
        &self.responses
    }
}

impl ResponseCache {
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
        let version_of = |key: &str| key.strip_prefix('v')?.split(':').next()?.parse::<u64>().ok();
        self.responses.retain(|key| version_of(key).is_none_or(|v| v >= version));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_newer_version_retires_older_entries_once() {
        let cache = ResponseCache::default();
        for key in ["v1:svg", "v2:svg", "v10:svg", "metrics"] {
            cache.put(key.into(), Arc::new(Response::text(200, "body")));
        }
        cache.retire_before(2);
        assert!(cache.get("v1:svg").is_none(), "v1 retired");
        assert_eq!((cache.len(), cache.bytes()), (3, 12));
        cache.put("v1:svg".into(), Arc::new(Response::text(200, "late")));
        cache.retire_before(2);
        assert_eq!(cache.len(), 4, "a version retires once");
        cache.debug_validate();
    }
}
