//! Properties of the [`BoundedCache`] behind every result cache.

use crate::cache::BoundedCache;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary put/get/grow/retain interleavings keep `debug_validate`'s
    /// invariants after every operation. Values are weights that grow
    /// after insertion, then `trim` (as the registry does on filling a
    /// memo). A put that fits the byte bound is resident afterwards, and
    /// every get counts one hit or one miss.
    #[test]
    fn cache_invariants_hold_under_arbitrary_workloads(
        max_entries in 1usize..6,
        max_bytes in 1usize..64,
        ops in proptest::collection::vec((0u8..4, 0u8..8, 0usize..24), 0..40),
    ) {
        let cache: BoundedCache<Arc<AtomicUsize>> =
            BoundedCache::new(max_entries, max_bytes, |w| w.load(Ordering::Relaxed));
        for (gets, (op, key, size)) in (1..).zip(ops) {
            let key = format!("k{key}");
            match op {
                0 => cache.put(key.clone(), Arc::new(AtomicUsize::new(size))),
                1 => cache.retain(|k| k != key),
                _ => {}
            }
            let found = cache.get(&key);
            match (op, found) {
                (0, found) => prop_assert_eq!(found.is_some(), size <= max_bytes),
                (1, found) => prop_assert!(found.is_none()),
                (2, Some(weight)) => {
                    weight.fetch_add(size, Ordering::Relaxed);
                    cache.trim();
                }
                _ => {}
            }
            cache.debug_validate();
            prop_assert_eq!(cache.hits() + cache.misses(), gets);
        }
    }
}
