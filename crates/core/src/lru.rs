//! Shared, size-bounded, concurrency-safe LRU result store.
//!
//! The Tier-1 memo cache ([`crate::cache`]) and the compile graph memo
//! ([`crate::compile`]) both need the same thing: a bounded map that many
//! `par_map` workers can hit concurrently, that never grows past its
//! capacity (a sweep over a large generated population must not trade a
//! recompute for an OOM), and whose hit/miss/eviction counters are exact —
//! they back [`crate::cache_stats`].
//!
//! Recency is tracked with a monotonic use-tick per entry; eviction scans
//! for the least-recently-used entry. The scan is `O(len)`, which is
//! deliberate: capacities here are thousands at most, the scan touches no
//! allocation, and the simplicity keeps the store's invariants (bounded
//! length, exact counters) easy to verify — the contention property test
//! in `crates/core/tests/lru_contention.rs` hammers exactly those.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Exact operation counters of an [`LruStore`], taken under the lock so
/// the totals are a consistent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored (new keys and replacements alike).
    pub inserts: u64,
    /// Entries displaced to keep the store within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

/// A size-bounded, concurrency-safe LRU map.
///
/// All operations take `&self`; interior locking makes the store shareable
/// across threads without wrapper mutexes. `get` refreshes recency;
/// `insert` past capacity evicts the least-recently-used entry.
pub struct LruStore<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruStore<K, V> {
    /// A store holding at most `capacity` entries (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                inserts: 0,
                evictions: 0,
            }),
        }
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, refreshing its recency on a hit. Returns a clone so
    /// the lock is never held while the caller uses the value.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock().expect("lru lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Store `value` under `key`, evicting the least-recently-used entry
    /// if the store is at capacity and `key` is new. Returns `true` if an
    /// entry was evicted.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut inner = self.inner.lock().expect("lru lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.inserts += 1;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return false;
        }
        let mut evicted = false;
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                inner.evictions += 1;
                evicted = true;
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("lru lock").map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep running).
    pub fn clear(&self) {
        self.inner.lock().expect("lru lock").map.clear();
    }

    /// Consistent snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("lru lock");
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            len: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_hits_after_insert_and_counts() {
        let store: LruStore<u32, String> = LruStore::new(4);
        assert_eq!(store.get(&1), None);
        store.insert(1, "one".into());
        assert_eq!(store.get(&1).as_deref(), Some("one"));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.len, 1);
    }

    #[test]
    fn capacity_is_a_hard_bound_and_lru_order_decides_eviction() {
        let store: LruStore<u32, u32> = LruStore::new(2);
        store.insert(1, 10);
        store.insert(2, 20);
        // Touch 1 so 2 becomes the least recently used.
        assert_eq!(store.get(&1), Some(10));
        let evicted = store.insert(3, 30);
        assert!(evicted);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&2), None, "LRU entry 2 was evicted");
        assert_eq!(store.get(&1), Some(10));
        assert_eq!(store.get(&3), Some(30));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn replacing_an_existing_key_never_evicts() {
        let store: LruStore<u32, u32> = LruStore::new(2);
        store.insert(1, 10);
        store.insert(2, 20);
        assert!(!store.insert(1, 11), "replacement must not evict");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&1), Some(11));
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let store: LruStore<u32, u32> = LruStore::new(0);
        assert_eq!(store.capacity(), 1);
        store.insert(1, 10);
        store.insert(2, 20);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn clear_keeps_counters_running() {
        let store: LruStore<u32, u32> = LruStore::new(4);
        store.insert(1, 10);
        let _ = store.get(&1);
        store.clear();
        assert!(store.is_empty());
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 1);
    }
}
