//! The LRU result cache: canonical-key hashes to stored response
//! bodies.
//!
//! Replacement decisions are delegated to the LRU policy the paper's
//! evaluation simulates, built by
//! [`PolicyKind::build_state`](cachekit_policies::PolicyKind::build_state)
//! — so the serving layer literally eats its own dog food. Each shard is
//! a small fully-associative "cache set": a slot vector indexed by way
//! plus one LRU [`PolicyState`] tracking recency, exactly how
//! `cachekit_sim` wires policies into sets.
//!
//! Sharding serves two masters: it bounds the linear key scan per
//! lookup (a shard holds at most [`MAX_WAYS`] entries) and it keeps
//! lock contention down under concurrent load. A key is a SipHash of
//! the canonical request under per-process random keys, so all its
//! bits are well mixed and its high bits pick the shard. The same key
//! picks the job queue's shard too, so which shard a request lands in
//! differs from one process to the next.

use cachekit_policies::{PolicyKind, PolicyState, ReplacementPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Associativity ceiling per shard; the policy crate caps way counts at
/// 128, and short linear scans stay cheap well below that.
pub const MAX_WAYS: usize = 64;

struct Entry {
    key: u64,
    body: String,
}

struct Shard {
    lru: PolicyState,
    slots: Vec<Option<Entry>>,
}

impl Shard {
    fn new(ways: usize) -> Self {
        Shard {
            lru: PolicyKind::Lru.build_state(ways, 0),
            slots: (0..ways).map(|_| None).collect(),
        }
    }

    fn get(&mut self, key: u64) -> Option<String> {
        let way = self
            .slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|e| e.key == key))?;
        self.lru.on_hit(way);
        Some(
            self.slots[way]
                .as_ref()
                .expect("hit slot is filled")
                .body
                .clone(),
        )
    }

    fn insert(&mut self, key: u64, body: String) {
        if let Some(way) = self
            .slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|e| e.key == key))
        {
            // Same canonical key ⇒ same deterministic body; just touch.
            self.lru.on_hit(way);
            return;
        }
        let way = match self.slots.iter().position(Option::is_none) {
            Some(empty) => empty,
            None => self.lru.victim(),
        };
        self.slots[way] = Some(Entry { key, body });
        self.lru.on_fill(way);
    }
}

/// A sharded, bounded, thread-safe response cache keyed by
/// [canonical request hashes](crate::proto::Request::cache_key).
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Hit/miss/insertion counters of a [`ResultCache`], read atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from a stored body.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Bodies stored (idempotent re-inserts of a resident key count
    /// too, but replace nothing).
    pub insertions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` response bodies (rounded up
    /// to a whole number of shards; `capacity = 0` disables storage
    /// but keeps the counters meaningful).
    pub fn new(capacity: usize) -> Self {
        let ways = capacity.clamp(1, MAX_WAYS);
        let shard_count = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(ways)
        };
        ResultCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::new(ways)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: u64) -> Option<&Mutex<Shard>> {
        if self.shards.is_empty() {
            return None;
        }
        let index = (key >> 32) as usize % self.shards.len();
        Some(&self.shards[index])
    }

    /// Look `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: u64) -> Option<String> {
        let body = self
            .shard_for(key)
            .and_then(|shard| shard.lock().expect("cache shard poisoned").get(key));
        match &body {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cachekit_obs::add("serve.cache.hits", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cachekit_obs::add("serve.cache.misses", 1);
            }
        }
        body
    }

    /// Store `body` under `key`, evicting the shard's LRU entry when
    /// the shard is full.
    pub fn insert(&self, key: u64, body: String) {
        if let Some(shard) = self.shard_for(key) {
            shard
                .lock()
                .expect("cache shard poisoned")
                .insert(key, body);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the hit/miss/insertion counters.
    pub fn stats(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_and_replays_bodies() {
        let cache = ResultCache::new(8);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "alpha".to_owned());
        assert_eq!(cache.get(1).as_deref(), Some("alpha"));
        assert_eq!(
            cache.stats(),
            CacheCounters {
                hits: 1,
                misses: 1,
                insertions: 1
            }
        );
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // capacity 2 ⇒ one shard of 2 ways: a tiny observable LRU.
        let cache = ResultCache::new(2);
        cache.insert(10, "a".to_owned());
        cache.insert(20, "b".to_owned());
        assert!(cache.get(10).is_some()); // 20 is now least recent
        cache.insert(30, "c".to_owned());
        assert!(cache.get(20).is_none(), "LRU entry must be evicted");
        assert!(cache.get(10).is_some());
        assert!(cache.get(30).is_some());
    }

    #[test]
    fn reinserting_a_resident_key_keeps_one_copy() {
        let cache = ResultCache::new(2);
        cache.insert(10, "a".to_owned());
        cache.insert(10, "a".to_owned());
        cache.insert(20, "b".to_owned());
        // Both keys still resident: the double insert used one slot.
        assert!(cache.get(10).is_some());
        assert!(cache.get(20).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        cache.insert(1, "a".to_owned());
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn large_capacities_shard() {
        let cache = ResultCache::new(1000);
        assert!(cache.shards.len() >= 16);
        for key in 0..2000u64 {
            // Spread the keys like real hashes; shard_for uses high bits.
            let spread = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            cache.insert(spread, format!("v{key}"));
        }
        let mut resident = 0;
        for key in 0..2000u64 {
            let spread = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if cache.get(spread).is_some() {
                resident += 1;
            }
        }
        assert!(resident > 500, "resident: {resident}");
    }
}
