//! Contention properties of the shared LRU result store.
//!
//! The store backs both the Tier-1 memo cache and the compile graph
//! memo, so its invariants must hold under exactly the kind of
//! pressure those callers generate: many `par_map` workers hitting one
//! store at once. Three properties are pinned here:
//!
//! 1. **Bounded**: `len() <= capacity` at every observation point, no
//!    matter the interleaving.
//! 2. **No lost inserts**: when capacity covers every distinct key, each
//!    inserted key is retrievable afterwards with the value some thread
//!    wrote for it.
//! 3. **Exact counters**: hits + misses equals the number of `get` calls,
//!    inserts equals the number of `insert` calls, and evictions equals
//!    distinct-key inserts minus resident entries — regardless of thread
//!    interleaving.

use dabench_core::{par_map, set_jobs, LruStore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic per-worker operation mix: every worker does `OPS` rounds
/// of get-then-insert over a key space larger than the store capacity.
const WORKERS: usize = 8;
const OPS: usize = 500;
const KEYSPACE: u64 = 64;
const CAPACITY: usize = 16;

#[test]
fn bounded_under_contention_with_exact_counters() {
    set_jobs(WORKERS);
    let store: LruStore<u64, u64> = LruStore::new(CAPACITY);
    let gets = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);
    let evictions_seen = AtomicU64::new(0);
    let bound_violations = AtomicU64::new(0);

    let inputs: Vec<usize> = (0..WORKERS).collect();
    par_map(&inputs, |&worker| {
        // SplitMix-ish per-worker stream so workers collide on keys but
        // stay deterministic in aggregate.
        let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker as u64 + 1);
        for _ in 0..OPS {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % KEYSPACE;
            gets.fetch_add(1, Ordering::SeqCst);
            if store.get(&key).is_none() {
                inserts.fetch_add(1, Ordering::SeqCst);
                if store.insert(key, key * 10) {
                    evictions_seen.fetch_add(1, Ordering::SeqCst);
                }
            }
            if store.len() > CAPACITY {
                bound_violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    });

    assert_eq!(
        bound_violations.load(Ordering::SeqCst),
        0,
        "len() exceeded capacity under contention"
    );
    let stats = store.stats();
    assert!(stats.len <= CAPACITY, "final len {} > capacity", stats.len);
    assert_eq!(
        stats.hits + stats.misses,
        gets.load(Ordering::SeqCst),
        "every get is exactly one hit or one miss"
    );
    assert_eq!(
        stats.inserts,
        inserts.load(Ordering::SeqCst),
        "every insert call is counted exactly once"
    );
    // Every eviction the store counted is one an inserting thread was
    // told about, and vice versa — the counter and the return value can
    // never drift apart, whatever the interleaving.
    assert_eq!(
        stats.evictions,
        evictions_seen.load(Ordering::SeqCst),
        "eviction counter drifted from observed evictions"
    );
    assert!(
        stats.evictions <= stats.inserts,
        "evictions {} cannot exceed inserts {}",
        stats.evictions,
        stats.inserts
    );
}

#[test]
fn no_lost_inserts_when_capacity_covers_the_keyspace() {
    set_jobs(WORKERS);
    let store: LruStore<u64, u64> = LruStore::new(KEYSPACE as usize);
    let inputs: Vec<u64> = (0..KEYSPACE).cycle().take(KEYSPACE as usize * 8).collect();
    par_map(&inputs, |&key| {
        store.insert(key, key + 1);
    });
    let stats = store.stats();
    assert_eq!(stats.evictions, 0, "capacity covers keyspace: no evictions");
    assert_eq!(stats.len, KEYSPACE as usize, "every key resident");
    for key in 0..KEYSPACE {
        assert_eq!(store.get(&key), Some(key + 1), "key {key} lost");
    }
}

#[test]
fn occupancy_balances_exactly_with_distinct_keys() {
    // Single-writer-per-key workload where the balance equation is exact:
    // distinct-key inserts == evictions + resident.
    set_jobs(WORKERS);
    let store: LruStore<u64, u64> = LruStore::new(CAPACITY);
    let inputs: Vec<u64> = (0..1000).collect();
    par_map(&inputs, |&key| {
        store.insert(key, key);
    });
    let stats = store.stats();
    assert_eq!(stats.inserts, 1000);
    assert_eq!(
        stats.evictions + stats.len as u64,
        1000,
        "occupancy must balance: {stats:?}"
    );
    assert_eq!(stats.len, CAPACITY);
}
