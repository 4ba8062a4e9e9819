//! Every deterministic policy keeps a set's replacement state inline:
//! building one and driving it through every policy event allocates
//! nothing, and a cache of such sets allocates no more than a cache of
//! LRU sets (its set vector and its label, whatever the set count).
//!
//! A counting global allocator tallies the allocations each test thread
//! makes while its counting is switched on, like the one in
//! `crates/obs/tests/alloc_free_counters.rs` but with a per-thread count.

use cachekit::policies::rng::Prng;
use cachekit::policies::{PolicyKind, ReplacementPolicy};
use cachekit::sim::{Cache, CacheConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread has made since it started counting, or
    /// `None` while it is not counting. Per thread, so the tests that run
    /// alongside do not add to each other's counts.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    COUNT.with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a bump of a thread-local counter that needs no
// allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNT.with(|count| count.set(Some(0)));
    f();
    COUNT.with(|count| count.take()).expect("counting was on")
}

/// Every deterministic kind at `assoc` ways: the recency-stack kinds
/// (SLRU at both ends of its range), tree- and bit-PLRU, CLOCK, and
/// every age-counter kind.
fn deterministic_kinds(assoc: usize) -> Vec<PolicyKind> {
    let mut kinds = vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lip,
        PolicyKind::LazyLru,
        PolicyKind::Slru { protected: 0 },
        PolicyKind::Slru {
            protected: assoc - 1,
        },
        PolicyKind::TreePlru,
        PolicyKind::BitPlru,
        PolicyKind::Clock,
        PolicyKind::Nru,
    ];
    kinds.extend((1..=7).map(|bits| PolicyKind::Srrip { bits }));
    kinds.extend((0..=3).map(|insert| PolicyKind::Qlru { insert }));
    kinds
}

#[test]
fn building_and_driving_a_deterministic_policy_allocates_nothing() {
    for assoc in 1..=16 {
        let mut rng = Prng::seed_from_u64(assoc as u64);
        let events: Vec<(u32, usize)> = (0..500)
            .map(|_| (rng.gen_range(0..100u32), rng.gen_range(0..assoc)))
            .collect();
        let mut key = Vec::with_capacity(assoc + 1);
        for kind in deterministic_kinds(assoc) {
            // Warm-up: tree-PLRU memoizes its tree shape per
            // associativity on the first build.
            drop(kind.build_state(assoc, 0));
            let allocations = allocations_during(|| {
                let mut policy = kind.build_state(assoc, 0);
                for &(event, way) in &events {
                    match event {
                        0..=34 => policy.on_hit(way),
                        35..=54 => policy.on_fill(way),
                        55..=84 => {
                            let victim = policy.victim();
                            policy.on_fill(victim);
                        }
                        85..=97 => policy.on_invalidate(way),
                        _ => policy.reset(),
                    }
                    key.clear();
                    policy.write_state_key(&mut key);
                }
            });
            assert_eq!(allocations, 0, "{kind:?} at {assoc} ways allocated");
        }
    }
}

#[test]
fn a_cache_of_deterministic_policies_allocates_no_more_than_lru() {
    for (sets, assoc) in [(1024u64, 4usize), (512, 8)] {
        let config = CacheConfig::new(sets * assoc as u64 * 64, assoc, 64).expect("geometry");
        let kinds = deterministic_kinds(assoc);
        for &kind in &kinds {
            drop(Cache::new(config, kind));
        }
        let build = |kind| allocations_during(|| drop(Cache::new(config, kind)));
        let lru = build(PolicyKind::Lru);
        for kind in kinds {
            let allocations = build(kind);
            assert!(
                allocations <= lru,
                "{kind:?}: {allocations} allocations for {sets} sets at {assoc} ways, \
                 against {lru} for LRU"
            );
        }
    }
}
