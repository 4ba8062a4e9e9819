//! Cross-engine differential suite: every policy execution engine must
//! be **bit-identical** to the enum engine — same hits and misses, same
//! victims, same final set contents — on every differential policy kind.
//! The reference is always a `CacheSet` over the inline enum state,
//! driven one access at a time, except where noted.
//!
//! | subject | kinds × ways | test |
//! |---------|--------------|------|
//! | boxed replica of the pre-refactor set | 13 differential kinds × 4/8/16 | `boxed_and_enum_engines_are_bit_identical` |
//! | `CacheSet` over `TablePolicy` | every pair whose eager table compiles; a must-compile list | `table_engine_is_bit_identical_where_it_compiles` |
//! | `CacheSet` over `LazyTablePolicy` | every deterministic kind × 4/8/16 | `lazy_table_engine_is_bit_identical_for_every_deterministic_kind` |
//! | the same, with invalidations interleaved | every deterministic kind × 4/8/16 | `lazy_table_engine_is_bit_identical_under_invalidation` |
//! | `CacheSet`s over `LazyTablePolicy`, memo saturated at 4 states | LRU, PLRU, NRU × 8 | `saturated_lazy_memo_stays_bit_identical_via_direct_fallback` |
//! | eight threads of `CacheSet`s over `LazyTablePolicy`, one shared memo | LRU × 16 | `concurrent_lazy_memo_is_bit_identical_across_eight_threads` |
//! | `KernelCache` on an interleaved multi-set stream | LRU/FIFO/PLRU/NRU × 4/8/16 | `batch_kernels_are_bit_identical_across_the_whole_grid` |
//! | `CacheSet` over `TablePolicy` compiled by `PermTable::from_spec`, against the spec interpreter | catalog specs × 4/8 | `catalog_specs_round_trip_through_compiled_tables` |
//!
//! The boxed engine is a faithful local replica of the pre-refactor
//! cache set (array-of-`Option` tags driving concrete policies behind
//! `Box<dyn ReplacementPolicy>`), so the suite pins enum dispatch to the
//! concrete policies, not to itself. The enum engine itself passes the
//! policy conformance battery and, for deterministic kinds, state-key
//! soundness.

use cachekit::core::perm::{
    catalog_for, lazy_table_for_kind, table_for_kind, LazyPermTable, LazyTablePolicy, PermTable,
    PermutationPolicy, TablePolicy,
};
use cachekit::policies::conformance::{assert_conformance, assert_state_key_soundness};
use cachekit::policies::kernel::KernelCache;
use cachekit::policies::rng::{mix64, Prng};
use cachekit::policies::{
    Bip, BitPlru, Brrip, Clock, Fifo, LazyLru, Lip, Lru, Nru, PolicyKind, PolicyState, Qlru,
    RandomPolicy, ReplacementPolicy, Slru, Srrip, TreePlru,
};
use cachekit::sim::{AccessOutcome, CacheSet};
use std::sync::Arc;

const ASSOCS: [usize; 3] = [4, 8, 16];

/// Replica of the pre-refactor set representation.
struct BoxedSet {
    tags: Vec<Option<u64>>,
    policy: Box<dyn ReplacementPolicy>,
}

impl BoxedSet {
    fn new(policy: Box<dyn ReplacementPolicy>) -> Self {
        let assoc = policy.associativity();
        Self {
            tags: vec![None; assoc],
            policy,
        }
    }

    fn access(&mut self, tag: u64) -> AccessOutcome {
        if let Some(way) = self.tags.iter().position(|&t| t == Some(tag)) {
            self.policy.on_hit(way);
            return AccessOutcome::Hit;
        }
        let way = self
            .tags
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| self.policy.victim());
        let evicted = self.tags[way];
        self.tags[way] = Some(tag);
        self.policy.on_fill(way);
        AccessOutcome::Miss { evicted }
    }

    fn tag_in_way(&self, way: usize) -> Option<u64> {
        self.tags[way]
    }
}

/// The concrete boxed policy the pre-refactor engine used, with the
/// per-set seed derivation [`PolicyKind::build_state`] applies.
fn boxed_policy(kind: PolicyKind, assoc: usize, salt: u64) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(assoc)),
        PolicyKind::Fifo => Box::new(Fifo::new(assoc)),
        PolicyKind::TreePlru => Box::new(TreePlru::new(assoc)),
        PolicyKind::BitPlru => Box::new(BitPlru::new(assoc)),
        PolicyKind::Nru => Box::new(Nru::new(assoc)),
        PolicyKind::Clock => Box::new(Clock::new(assoc)),
        PolicyKind::Lip => Box::new(Lip::new(assoc)),
        PolicyKind::Slru { protected } => Box::new(Slru::new(assoc, protected)),
        PolicyKind::Bip { throttle } => Box::new(Bip::new(assoc, throttle, mix64(0xb1b0, salt))),
        PolicyKind::Srrip { bits } => Box::new(Srrip::new(assoc, bits)),
        PolicyKind::Brrip { bits, throttle } => {
            Box::new(Brrip::new(assoc, bits, throttle, mix64(0xbbb1, salt)))
        }
        PolicyKind::Random { seed } => Box::new(RandomPolicy::new(assoc, mix64(seed, salt))),
        PolicyKind::LazyLru => Box::new(LazyLru::new(assoc)),
        PolicyKind::Qlru { insert } => Box::new(Qlru::new(assoc, insert)),
    }
}

/// A set running a boxed table adapter, as serve's table caches build
/// them (`Cache::with_policy_factory`).
fn adapter_set(policy: impl ReplacementPolicy + 'static) -> CacheSet {
    CacheSet::from_state(PolicyState::from_boxed(Box::new(policy)))
}

/// A mixed hot/cold tag stream exercising hits, cold fills and capacity
/// evictions.
fn stream(assoc: usize, len: usize, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range(0..assoc as u64)
            } else {
                rng.gen_range(0..6 * assoc as u64)
            }
        })
        .collect()
}

#[test]
fn boxed_and_enum_engines_are_bit_identical() {
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let salt = assoc as u64;
            let mut boxed = BoxedSet::new(boxed_policy(kind, assoc, salt));
            let mut enumed = CacheSet::from_state(kind.build_state(assoc, salt));
            for (i, &tag) in stream(assoc, 4000, 0xD1FF ^ salt).iter().enumerate() {
                let a = boxed.access(tag);
                let b = enumed.access_tag(tag);
                assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
            }
            for w in 0..assoc {
                assert_eq!(
                    boxed.tag_in_way(w),
                    enumed.tag_in_way(w),
                    "{kind:?} A={assoc} final contents differ in way {w}"
                );
            }
            assert_eq!(
                boxed.policy.state_key(),
                enumed.policy().state_key(),
                "{kind:?} A={assoc} final replacement state differs"
            );
        }
    }
}

#[test]
fn table_engine_is_bit_identical_where_it_compiles() {
    // These kinds must compile within the budget at the listed
    // associativities; their absence would silently weaken the suite.
    let must_compile: &[(PolicyKind, &[usize])] = &[
        (PolicyKind::Lru, &[4, 8]),
        (PolicyKind::Fifo, &[4, 8, 16]),
        (PolicyKind::TreePlru, &[4, 8]),
        (PolicyKind::Lip, &[4, 8]),
        (PolicyKind::Slru { protected: 2 }, &[4, 8]),
        (PolicyKind::LazyLru, &[4, 8]),
    ];
    for &(kind, assocs) in must_compile {
        for &assoc in assocs {
            assert!(
                table_for_kind(kind, assoc).is_some(),
                "{kind:?} at {assoc} ways must be table-compilable"
            );
        }
    }
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let Some(table) = table_for_kind(kind, assoc) else {
                continue;
            };
            let mut tabled = adapter_set(TablePolicy::new(table));
            let mut enumed = CacheSet::from_state(kind.build_state(assoc, 0));
            for (i, &tag) in stream(assoc, 4000, 0x7AB1E).iter().enumerate() {
                let a = tabled.access_tag(tag);
                let b = enumed.access_tag(tag);
                assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
            }
            for w in 0..assoc {
                assert_eq!(
                    tabled.tag_in_way(w),
                    enumed.tag_in_way(w),
                    "{kind:?} A={assoc} final contents differ in way {w}"
                );
            }
        }
    }
}

#[test]
fn lazy_table_engine_is_bit_identical_for_every_deterministic_kind() {
    // The lazy table's coverage is exactly the deterministic kinds — at
    // *every* associativity, including the assoc-16 spaces the eager
    // compiler cannot afford (LRU at 16 ways is 16! states).
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let lazy = lazy_table_for_kind(kind, assoc);
            assert_eq!(
                lazy.is_some(),
                kind.is_deterministic(),
                "{kind:?} at {assoc} ways: lazy availability must track determinism"
            );
            let Some(table) = lazy else { continue };
            let mut lazed = CacheSet::from_state(PolicyState::from_boxed(Box::new(
                LazyTablePolicy::new(table),
            )));
            let mut enumed = CacheSet::from_state(kind.build_state(assoc, 0));
            for (i, &tag) in stream(assoc, 4000, 0x1A2 ^ assoc as u64).iter().enumerate() {
                let a = lazed.access_tag(tag);
                let b = enumed.access_tag(tag);
                assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
            }
            for w in 0..assoc {
                assert_eq!(
                    lazed.tag_in_way(w),
                    enumed.tag_in_way(w),
                    "{kind:?} A={assoc} final contents differ in way {w}"
                );
            }
            assert_eq!(
                lazed.policy().state_key(),
                enumed.policy().state_key(),
                "{kind:?} A={assoc} final replacement state differs"
            );
        }
    }
}

#[test]
fn lazy_table_engine_is_bit_identical_under_invalidation() {
    // The eager table has no invalidate transition; the lazy alphabet
    // does. Interleave accesses with invalidations of random resident
    // tags and require lock-step agreement with the enum engine.
    for kind in PolicyKind::differential_kinds() {
        if !kind.is_deterministic() {
            continue;
        }
        for assoc in [4usize, 8, 16] {
            let table = lazy_table_for_kind(kind, assoc).expect("deterministic kind");
            let mut lazed = CacheSet::from_state(PolicyState::from_boxed(Box::new(
                LazyTablePolicy::new(table),
            )));
            let mut enumed = CacheSet::from_state(kind.build_state(assoc, 0));
            let mut rng = Prng::seed_from_u64(0x1BAD ^ assoc as u64);
            for i in 0..4000 {
                if rng.gen_bool(0.15) {
                    let tag = rng.gen_range(0..6 * assoc as u64);
                    assert_eq!(
                        lazed.invalidate(tag),
                        enumed.invalidate(tag),
                        "{kind:?} A={assoc} invalidate diverged at step {i}"
                    );
                } else {
                    let tag = if rng.gen_bool(0.5) {
                        rng.gen_range(0..assoc as u64)
                    } else {
                        rng.gen_range(0..6 * assoc as u64)
                    };
                    assert_eq!(
                        lazed.access_tag(tag),
                        enumed.access_tag(tag),
                        "{kind:?} A={assoc} diverged at step {i}"
                    );
                }
            }
            assert_eq!(
                lazed.policy().state_key(),
                enumed.policy().state_key(),
                "{kind:?} A={assoc} final replacement state differs"
            );
        }
    }
}

#[test]
fn saturated_lazy_memo_stays_bit_identical_via_direct_fallback() {
    // With an absurdly small state budget the memo saturates almost
    // immediately; overflowing sets must degrade to concrete (direct)
    // execution, never to divergence. (lazy.rs's unit tests check that
    // the adapters really do fall back.)
    for kind in [PolicyKind::Lru, PolicyKind::TreePlru, PolicyKind::Nru] {
        let assoc = 8;
        let template = kind.build_state(assoc, 0);
        let table = Arc::new(LazyPermTable::new(&template, 4).expect("deterministic template"));
        let mut lazed: Vec<CacheSet> = (0..8)
            .map(|_| adapter_set(LazyTablePolicy::new(table.clone())))
            .collect();
        let mut enumed: Vec<CacheSet> = (0..8)
            .map(|s| CacheSet::from_state(kind.build_state(assoc, s)))
            .collect();
        let mut rng = Prng::seed_from_u64(0x5A7);
        for i in 0..20_000 {
            let set = rng.gen_range(0..8) as usize;
            let tag = rng.gen_range(0..6 * assoc as u64);
            assert_eq!(
                lazed[set].access_tag(tag),
                enumed[set].access_tag(tag),
                "{kind:?} diverged at step {i}"
            );
        }
        assert!(table.saturated(), "budget 4 must saturate {kind:?}");
        for (set, (la, en)) in lazed.iter().zip(&enumed).enumerate() {
            for w in 0..assoc {
                assert_eq!(
                    la.tag_in_way(w),
                    en.tag_in_way(w),
                    "{kind:?} set {set} way {w} differs"
                );
            }
            assert_eq!(
                la.policy().state_key(),
                en.policy().state_key(),
                "{kind:?} set {set} final replacement state differs"
            );
        }
    }
}

#[test]
fn batch_kernels_are_bit_identical_across_the_whole_grid() {
    // Every monomorphized (policy, assoc) kernel — LRU/FIFO/PLRU/NRU at
    // 4/8/16 ways — replayed at cache scale against per-access enum
    // sets, on an interleaved multi-set stream.
    let sets = 64usize;
    let mut compiled = 0;
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let Some(mut kernel) = KernelCache::for_kind(kind, assoc, sets) else {
                continue;
            };
            compiled += 1;
            let mut enumed: Vec<CacheSet> = (0..sets)
                .map(|s| CacheSet::from_state(kind.build_state(assoc, s as u64)))
                .collect();
            let mut rng = Prng::seed_from_u64(0xBA7C4 ^ assoc as u64);
            let interleaved: Vec<(u32, u64)> = (0..40_000)
                .map(|_| {
                    let set = rng.gen_range(0..sets as u64) as u32;
                    let tag = if rng.gen_bool(0.5) {
                        rng.gen_range(0..assoc as u64)
                    } else {
                        rng.gen_range(0..6 * assoc as u64)
                    };
                    (set, tag)
                })
                .collect();
            let (hits, misses) = kernel.access_many(&interleaved);
            let mut want_hits = 0u64;
            for &(set, tag) in &interleaved {
                want_hits += u64::from(enumed[set as usize].access_tag(tag).is_hit());
            }
            assert_eq!(
                hits, want_hits,
                "{kind:?} A={assoc} kernel hit count diverged"
            );
            assert_eq!(hits + misses, interleaved.len() as u64);
            for (set, enum_set) in enumed.iter().enumerate() {
                for w in 0..assoc {
                    assert_eq!(
                        kernel.tag(set, w),
                        enum_set.tag_in_way(w),
                        "{kind:?} A={assoc} set {set} way {w} differs"
                    );
                }
            }
        }
    }
    // LRU, FIFO, PLRU and NRU at 4, 8 and 16 ways.
    assert_eq!(compiled, 12, "kernel grid shrank");
}

#[test]
fn concurrent_lazy_memo_is_bit_identical_across_eight_threads() {
    // Eight threads hammer ONE shared lock-free memo (CAS-published
    // rows), each driving its own sets over its own stream. Every
    // thread must end bit-identical to a single-threaded enum replay of
    // the same stream — regardless of interleaving, lost CAS races, or
    // which thread interned which state first.
    use std::thread;
    let assoc = 16usize;
    let kind = PolicyKind::Lru; // 16! states: the memo actually grows.
    let template = kind.build_state(assoc, 0);
    let table = Arc::new(LazyPermTable::new(&template, 1 << 14).expect("deterministic"));
    let streams: Vec<Vec<(u32, u64)>> = (0..8)
        .map(|t| {
            let mut rng = Prng::seed_from_u64(0xC0CC ^ t);
            (0..30_000)
                .map(|_| {
                    let set = rng.gen_range(0..16) as u32;
                    let tag = if rng.gen_bool(0.5) {
                        rng.gen_range(0..assoc as u64)
                    } else {
                        rng.gen_range(0..6 * assoc as u64)
                    };
                    (set, tag)
                })
                .collect()
        })
        .collect();
    let got: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let table = table.clone();
                scope.spawn(move || {
                    let mut sets: Vec<CacheSet> = (0..16)
                        .map(|_| adapter_set(LazyTablePolicy::new(table.clone())))
                        .collect();
                    let mut hits = 0u64;
                    for &(set, tag) in stream {
                        hits += u64::from(sets[set as usize].access_tag(tag).is_hit());
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, (stream, &hits)) in streams.iter().zip(&got).enumerate() {
        let mut enumed: Vec<CacheSet> = (0..16)
            .map(|_| CacheSet::from_state(kind.build_state(assoc, 0)))
            .collect();
        let mut want = 0u64;
        for &(set, tag) in stream {
            want += u64::from(enumed[set as usize].access_tag(tag).is_hit());
        }
        assert_eq!(hits, want, "thread {t} diverged from the enum replay");
    }
}

#[test]
fn oversized_state_spaces_fall_back_to_the_enum_engine() {
    // Full LRU at 16 ways has 16! priority orders — far over the u16
    // budget. The memoized lookup must report that honestly (and the
    // serving layer then falls back to the enum engine).
    assert!(table_for_kind(PolicyKind::Lru, 16).is_none());
    assert!(table_for_kind(PolicyKind::Lip, 16).is_none());
}

#[test]
fn enum_engine_passes_policy_conformance_for_all_differential_kinds() {
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            assert_conformance(Box::new(kind.build_state(assoc, 5)));
        }
    }
}

#[test]
fn enum_engine_state_keys_are_sound_for_all_deterministic_kinds() {
    // Soundness (equal key => equal future behaviour) is only defined
    // for deterministic policies: stochastic kinds deliberately keep
    // their RNG position out of the key.
    for kind in PolicyKind::differential_kinds() {
        if !kind.is_deterministic() {
            continue;
        }
        assert_state_key_soundness(|| Box::new(kind.build_state(8, 5)), 300);
    }
}

#[test]
fn catalog_specs_round_trip_through_compiled_tables() {
    // Every deterministic permutation kind in the catalog: compiling the
    // spec must replay the spec interpreter's hit/miss trace exactly.
    for assoc in [4usize, 8] {
        for entry in catalog_for(assoc) {
            let table = PermTable::from_spec(&entry.spec, 65_535)
                .unwrap_or_else(|e| panic!("{} at {assoc} ways: {e}", entry.name));
            let mut tabled = adapter_set(TablePolicy::new(Arc::new(table)));
            let mut interp = CacheSet::from_state(PolicyState::from_boxed(Box::new(
                PermutationPolicy::new(entry.spec.clone()),
            )));
            for (i, &tag) in stream(assoc, 3000, 0xCA7A).iter().enumerate() {
                let a = tabled.access_tag(tag);
                let b = interp.access_tag(tag);
                assert_eq!(
                    a, b,
                    "catalog {} A={assoc} diverged at access {i}",
                    entry.name
                );
            }
        }
    }
}
