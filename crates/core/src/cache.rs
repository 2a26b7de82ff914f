//! One bounded, thread-safe map from string keys to cached results: the
//! server's response cache, the [`crate::CohortRegistry`] and the
//! workbench's selection memo are each a [`BoundedCache`].
//!
//! Bounded by entry count and by bytes. A value's bytes are its `weight`,
//! read at insert and again by [`BoundedCache::trim`], the call a value
//! that grew makes (a cohort handle grows when a read fills its memos).
//! One eviction policy: an entry larger than the byte bound by itself is
//! not kept, and the least-recently-used entries leave until both bounds
//! hold. A get, a put and an eviction are O(log entries); only `trim` and
//! `retain` walk the map.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct Slot<V> {
    last_used: u64,
    bytes: usize,
    value: V,
}

struct Slots<V> {
    map: HashMap<String, Slot<V>>,
    /// Each entry's key under its `last_used` tick: oldest first.
    by_use: BTreeMap<u64, String>,
    tick: u64,
    /// The sum of the slots' `bytes`.
    bytes: usize,
}

impl<V> Slots<V> {
    /// Insert `key` stamped with a fresh tick, replacing its old entry.
    fn insert(&mut self, key: String, value: V, bytes: usize) {
        self.remove(&key);
        self.tick += 1;
        self.by_use.insert(self.tick, key.clone());
        self.map.insert(key, Slot { last_used: self.tick, bytes, value });
        self.bytes += bytes;
    }

    /// Stamp the entry last used at `used` with a fresh tick.
    fn touch(&mut self, used: u64) -> Option<&Slot<V>> {
        let key = self.by_use.remove(&used)?;
        let slot = self.map.get_mut(&key)?;
        self.tick += 1;
        slot.last_used = self.tick;
        self.by_use.insert(self.tick, key);
        Some(slot)
    }

    fn remove(&mut self, key: &str) -> Option<Slot<V>> {
        let slot = self.map.remove(key)?;
        self.by_use.remove(&slot.last_used);
        self.bytes -= slot.bytes;
        Some(slot)
    }

    /// Keep the entries `keep` accepts; it may re-weigh the slot first.
    fn retain(&mut self, mut keep: impl FnMut(&str, &mut Slot<V>) -> bool) {
        let Slots { map, by_use, bytes, .. } = self;
        map.retain(|key, slot| {
            *bytes -= slot.bytes;
            let kept = keep(key, slot);
            if kept {
                *bytes += slot.bytes;
            } else {
                by_use.remove(&slot.last_used);
            }
            kept
        });
    }
}

/// A string-keyed LRU map bounded by entry count and by value bytes.
pub struct BoundedCache<V> {
    slots: Mutex<Slots<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    max_entries: usize,
    max_bytes: usize,
    weight: fn(&V) -> usize,
}

impl<V: Clone> BoundedCache<V> {
    /// An empty cache of at most `max_entries` entries and `max_bytes`
    /// bytes, a value's bytes being `weight(value)`.
    pub fn new(max_entries: usize, max_bytes: usize, weight: fn(&V) -> usize) -> BoundedCache<V> {
        let slots = Slots { map: HashMap::new(), by_use: BTreeMap::new(), tick: 0, bytes: 0 };
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        BoundedCache { slots: Mutex::new(slots), hits, misses, max_entries, max_bytes, weight }
    }

    /// The lock, recovered if a panicking holder poisoned it: no method
    /// leaves the map half edited.
    fn lock(&self) -> MutexGuard<'_, Slots<V>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let found = {
            let mut slots = self.lock();
            let used = slots.map.get(key).map(|slot| slot.last_used);
            used.and_then(|used| slots.touch(used)).map(|slot| slot.value.clone())
        };
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or replace) `key`, then evict until both bounds hold.
    pub fn put(&self, key: String, value: V) {
        let bytes = (self.weight)(&value);
        self.admit(&mut self.lock(), key, value, bytes);
    }

    /// The first value `matches` accepts, its recency refreshed; else
    /// `make`'s key and value, inserted under the same lock, so two
    /// callers never both insert. Counts neither a hit nor a miss.
    pub fn find_or_insert(
        &self,
        matches: impl Fn(&V) -> bool,
        make: impl FnOnce() -> (String, V),
    ) -> V {
        let mut slots = self.lock();
        let used = slots.map.values().find(|slot| matches(&slot.value)).map(|slot| slot.last_used);
        if let Some(slot) = used.and_then(|used| slots.touch(used)) {
            return slot.value.clone();
        }
        let (key, value) = make();
        let bytes = (self.weight)(&value);
        self.admit(&mut slots, key, value.clone(), bytes);
        value
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &str) -> Option<V> {
        self.lock().remove(key).map(|slot| slot.value)
    }

    /// Keep only the entries whose key `keep` accepts.
    pub fn retain(&self, mut keep: impl FnMut(&str) -> bool) {
        self.lock().retain(|key, _| keep(key));
    }

    /// Weigh every entry again, then evict until both bounds hold: the
    /// call to make after a value's weight grew.
    pub fn trim(&self) {
        let mut slots = self.lock();
        slots.retain(|_, slot| {
            slot.bytes = (self.weight)(&slot.value);
            slot.bytes <= self.max_bytes
        });
        self.evict(&mut slots);
    }

    /// Insert `key` unless its value alone is over the byte bound (an old
    /// entry under `key` leaves either way), then evict.
    fn admit(&self, slots: &mut Slots<V>, key: String, value: V, bytes: usize) {
        if bytes > self.max_bytes {
            slots.remove(&key);
        } else {
            slots.insert(key, value, bytes);
            self.evict(slots);
        }
    }

    /// The one eviction loop: least recently used first.
    fn evict(&self, slots: &mut Slots<V>) {
        while slots.map.len() > self.max_entries || slots.bytes > self.max_bytes {
            let Some((_, key)) = slots.by_use.pop_first() else { break };
            slots.bytes -= slots.map.remove(&key).map_or(0, |slot| slot.bytes);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries' bytes as last weighed.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Deep invariant check (debug builds only; a no-op in release):
    /// each entry's stored bytes are its weight now (a value that grew
    /// was trimmed) and sum to the running total, both bounds hold, the
    /// recency index names each entry under its tick, and no tick is
    /// from the future.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let slots = self.lock();
        let (len, mut bytes) = (slots.map.len(), 0);
        for (key, slot) in &slots.map {
            assert_eq!(slot.bytes, (self.weight)(&slot.value), "cache: {key:?} weighed stale");
            assert!(slot.last_used <= slots.tick, "cache: {key:?} used after the clock");
            assert!(slots.by_use.get(&slot.last_used) == Some(key), "cache: {key:?} not indexed");
            bytes += slot.bytes;
        }
        assert!(slots.by_use.len() == len && bytes == slots.bytes, "cache: index or total drifted");
        assert!(len <= self.max_entries && bytes <= self.max_bytes, "cache: {len}, {bytes} B");
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
    pub fn poison_for_test(&self) -> ! {
        let _guard = self.lock();
        panic!("injected fault: poisoning the cache lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(max_entries: usize, max_bytes: usize) -> BoundedCache<String> {
        BoundedCache::new(max_entries, max_bytes, String::len)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = text(8, 1024);
        assert!(cache.get("a").is_none());
        cache.put("a".into(), "body".into());
        assert_eq!(cache.get("a").as_deref(), Some("body"));
        assert_eq!((cache.hits(), cache.misses(), cache.bytes()), (1, 1, 4));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let cache = text(2, 1024);
        cache.put("a".into(), "1".into());
        cache.put("b".into(), "2".into());
        let _ = cache.get("a"); // refresh a; b is now LRU
        cache.put("c".into(), "3".into());
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn byte_bound_evicts_and_rejects_oversized() {
        let cache = text(100, 10);
        cache.put("a".into(), "aaaa".into());
        cache.put("b".into(), "bbbb".into());
        cache.put("c".into(), "cccc".into()); // 12 bytes total -> evict LRU "a"
        assert!(cache.get("a").is_none());
        assert!(cache.bytes() <= 10);
        cache.put("huge".into(), "x".repeat(16));
        assert!(cache.get("huge").is_none(), "over-budget value is not kept");
        assert_eq!(cache.len(), 2, "and pushes nothing else out");
    }

    #[test]
    fn reinserting_a_key_replaces_its_bytes() {
        let cache = text(8, 1024);
        cache.put("a".into(), "aaaa".into());
        cache.put("a".into(), "bb".into());
        assert_eq!((cache.len(), cache.bytes()), (1, 2));
        assert_eq!(cache.get("a").as_deref(), Some("bb"));
    }
}
