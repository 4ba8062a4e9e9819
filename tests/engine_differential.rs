//! Cross-engine differential suite: every policy execution engine must
//! be **bit-identical** to the enum engine — same hits and misses, same
//! victims, same final set contents — on every differential policy kind.
//! The reference is always a `CacheSet` over the inline enum state,
//! driven one access at a time, except where noted.
//!
//! | subject | kinds × ways | test |
//! |---------|--------------|------|
//! | boxed replica of the pre-refactor set; the recency-stack kinds run the `PermutationPolicy` interpreter over `PermutationSpec::for_kind`, the age-counter and bimodal kinds test-local references | 13 differential kinds and QLRU-1 × 4/8/16 | `boxed_and_enum_engines_are_bit_identical` |
//! | `CacheSet` over `TablePolicy` | every pair whose eager table compiles; a must-compile list | `table_engine_is_bit_identical_where_it_compiles` |
//! | `CacheSet` over `LazyTablePolicy` | every deterministic kind × 4/8/16 | `lazy_table_engine_is_bit_identical_for_every_deterministic_kind` |
//! | the same, with invalidations interleaved | every deterministic kind × 4/8/16 | `lazy_table_engine_is_bit_identical_under_invalidation` |
//! | `CacheSet`s over `LazyTablePolicy`, memo saturated at 4 states | LRU, PLRU, NRU × 8 | `saturated_lazy_memo_stays_bit_identical_via_direct_fallback` |
//! | eight threads of `CacheSet`s over `LazyTablePolicy`, one shared memo | LRU × 16 | `concurrent_lazy_memo_is_bit_identical_across_eight_threads` |
//! | `KernelCache` on an interleaved multi-set stream | LRU/FIFO/PLRU/NRU × 4/8/16 | `batch_kernels_are_bit_identical_across_the_whole_grid` |
//! | `CacheSet` over `TablePolicy` compiled by `PermTable::from_spec`, against the spec interpreter | catalog specs × 4/8 | `catalog_specs_round_trip_through_compiled_tables` |
//! | the enum engine against a pinned digest | LRU, FIFO, LIP, LazyLRU, every SLRU-k × 1–64 | `stack_kinds_replay_the_pinned_event_stream` |
//! | the enum engine against a pinned digest | NRU, SRRIP-1…7, QLRU-0…3, BitPLRU, CLOCK, BRRIP-2-1/32 × 1–128 | `age_and_bit_kinds_replay_the_pinned_event_stream` |
//! | the enum engine against a pinned digest | BIP-1/t, BRRIP-k-1/t for t ∈ {1, 2, 32}, k ∈ {1, 2, 3, 7} × 1–128, salts 0 and 5 | `bimodal_kinds_replay_the_pinned_event_stream` |
//! | `Cache`s of `DuelFamily` sets against a pinned digest | DIP-1/32, DIP-1/2, DRRIP (2 bits, 1/32), DRRIP (3 bits, 1/4) × 4/8/16 | `duels_replay_the_pinned_access_stream` |
//!
//! The boxed engine is a faithful local replica of the pre-refactor
//! cache set (array-of-`Option` tags driving policies behind
//! `Box<dyn ReplacementPolicy>`). Three groups of kinds run there on
//! independent implementations: the five recency-stack kinds as the
//! permutation-spec interpreter, which shares no step code with the enum
//! engine's `RecencyPolicy`; NRU, SRRIP-2 and QLRU-1 as the test-local
//! `ReferenceAges`, which shares none with `AgePolicy`; and BIP and
//! BRRIP as the test-local `ReferenceBimodal` over those two, which
//! shares none with `Bimodal`. The other kinds run their concrete
//! policies boxed, which checks dispatch and the set, not the policy.
//! The enum engine itself passes the policy conformance battery and,
//! for deterministic kinds, state-key soundness. The recency-stack kinds
//! and the catalog are pinned to digests computed before those kinds
//! were merged into one policy, the age-counter and bit-vector kinds to
//! one computed before the age kinds were merged, the bimodal kinds and
//! the DIP and DRRIP duels to two computed before the bimodal kinds
//! were merged, and the set layout to its stated size.

use cachekit::core::perm::{
    catalog_for, lazy_table_for_kind, table_for_kind, LazyPermTable, LazyTablePolicy, PermTable,
    PermutationPolicy, PermutationSpec, TablePolicy,
};
use cachekit::policies::conformance::{assert_conformance, assert_state_key_soundness};
use cachekit::policies::kernel::KernelCache;
use cachekit::policies::rng::{mix64, Prng};
use cachekit::policies::{
    BitPlru, Clock, DuelFamily, DuelState, PolicyKind, PolicyState, RandomPolicy,
    ReplacementPolicy, TreePlru,
};
use cachekit::sim::{AccessOutcome, Cache, CacheConfig, CacheSet};
use std::collections::HashMap;
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

/// A test-local age-counter policy sharing no step code with the
/// library's `AgePolicy`: per-way ages in a `Vec`, a fill at the
/// insertion age, and the victim search as a loop that ages every way
/// until one saturates.
#[derive(Debug, Clone)]
struct ReferenceAges {
    ages: Vec<u8>,
    max: u8,
    insert: u8,
}

impl ReferenceAges {
    /// NRU is a 1-bit counter filled at 0; SRRIP-k saturates at
    /// 2^k − 1 and fills one below; QLRU-i saturates at 3 and fills at i.
    fn new(kind: PolicyKind, assoc: usize) -> Self {
        let (max, insert) = match kind {
            PolicyKind::Nru => (1, 0),
            PolicyKind::Srrip { bits } => ((1 << bits) - 1, (1 << bits) - 2),
            PolicyKind::Qlru { insert } => (3, insert),
            _ => unreachable!("{kind:?} is not an age-counter kind"),
        };
        Self {
            ages: vec![max; assoc],
            max,
            insert,
        }
    }
}

impl ReplacementPolicy for ReferenceAges {
    fn associativity(&self) -> usize {
        self.ages.len()
    }

    fn name(&self) -> String {
        "reference ages".to_owned()
    }

    fn on_hit(&mut self, way: usize) {
        self.ages[way] = 0;
    }

    fn victim(&mut self) -> usize {
        loop {
            if let Some(way) = self.ages.iter().position(|&age| age == self.max) {
                return way;
            }
            for age in &mut self.ages {
                *age += 1;
            }
        }
    }

    fn on_fill(&mut self, way: usize) {
        self.ages[way] = self.insert;
    }

    fn on_invalidate(&mut self, way: usize) {
        self.ages[way] = self.max;
    }

    fn reset(&mut self) {
        self.ages = vec![self.max; self.ages.len()];
    }

    fn state_key(&self) -> Vec<u8> {
        self.ages.clone()
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// A test-local bimodal policy sharing no step code with the library's
/// `Bimodal`: a boxed base policy, and one `gen_ratio(1, throttle)` draw
/// per fill that picks the base's fill, or else the base's invalidation
/// step (a line inserted where the base evicts next).
#[derive(Debug, Clone)]
struct ReferenceBimodal {
    base: Box<dyn ReplacementPolicy>,
    throttle: u32,
    rng: Prng,
    seed: u64,
}

impl ReferenceBimodal {
    /// BIP-1/t runs LRU as the spec interpreter and BRRIP-k-1/t runs
    /// [`ReferenceAges`] for SRRIP-k, each seeded as `build_state` seeds
    /// the kind.
    fn new(kind: PolicyKind, assoc: usize, salt: u64) -> Self {
        let (base, throttle, seed): (Box<dyn ReplacementPolicy>, _, _) = match kind {
            PolicyKind::Bip { throttle } => (
                Box::new(PermutationPolicy::new(
                    PermutationSpec::for_kind(PolicyKind::Lru, assoc).expect("LRU is a stack"),
                )),
                throttle,
                mix64(0xb1b0, salt),
            ),
            PolicyKind::Brrip { bits, throttle } => (
                Box::new(ReferenceAges::new(PolicyKind::Srrip { bits }, assoc)),
                throttle,
                mix64(0xbbb1, salt),
            ),
            _ => unreachable!("{kind:?} is not a bimodal kind"),
        };
        Self {
            base,
            throttle,
            rng: Prng::seed_from_u64(seed),
            seed,
        }
    }
}

impl ReplacementPolicy for ReferenceBimodal {
    fn associativity(&self) -> usize {
        self.base.associativity()
    }

    fn name(&self) -> String {
        "reference bimodal".to_owned()
    }

    fn on_hit(&mut self, way: usize) {
        self.base.on_hit(way);
    }

    fn victim(&mut self) -> usize {
        self.base.victim()
    }

    fn on_fill(&mut self, way: usize) {
        let fills_as_base = self.rng.gen_ratio(1, self.throttle);
        if fills_as_base {
            self.base.on_fill(way);
        } else {
            self.base.on_invalidate(way);
        }
    }

    fn on_invalidate(&mut self, way: usize) {
        self.base.on_invalidate(way);
    }

    fn reset(&mut self) {
        self.base.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.base.state_key()
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// The boxed policy the replica runs, with the per-set seed derivation
/// [`PolicyKind::build_state`] applies: the spec interpreter for the
/// recency-stack kinds, [`ReferenceAges`] for the age-counter kinds,
/// [`ReferenceBimodal`] for the bimodal kinds, and the concrete policy
/// for every other kind.
fn boxed_policy(kind: PolicyKind, assoc: usize, salt: u64) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru
        | PolicyKind::Fifo
        | PolicyKind::Lip
        | PolicyKind::Slru { .. }
        | PolicyKind::LazyLru => Box::new(PermutationPolicy::new(
            PermutationSpec::for_kind(kind, assoc).expect("a recency-stack kind"),
        )),
        PolicyKind::Nru | PolicyKind::Srrip { .. } | PolicyKind::Qlru { .. } => {
            Box::new(ReferenceAges::new(kind, assoc))
        }
        PolicyKind::Bip { .. } | PolicyKind::Brrip { .. } => {
            Box::new(ReferenceBimodal::new(kind, assoc, salt))
        }
        PolicyKind::TreePlru => Box::new(TreePlru::new(assoc)),
        PolicyKind::BitPlru => Box::new(BitPlru::new(assoc)),
        PolicyKind::Clock => Box::new(Clock::new(assoc)),
        PolicyKind::Random { seed } => Box::new(RandomPolicy::new(assoc, mix64(seed, salt))),
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
    let mut kinds = PolicyKind::differential_kinds();
    kinds.push(PolicyKind::Qlru { insert: 1 });
    for kind in kinds {
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The recency-stack kinds at `assoc` ways: LRU, FIFO, LIP, LazyLRU and
/// SLRU with every protected size the associativity admits.
fn stack_kinds(assoc: usize) -> Vec<PolicyKind> {
    let mut kinds = vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lip,
        PolicyKind::LazyLru,
    ];
    kinds.extend((0..assoc).map(|protected| PolicyKind::Slru { protected }));
    kinds
}

#[test]
fn stack_kinds_replay_the_pinned_event_stream() {
    // Inline stacks (up to 16 ways) and heap-backed ones (24 ways up),
    // each driven through a seeded mix of every policy event. The digest
    // folds each kind's name, every victim and the state key after every
    // event, so any change to what these kinds do moves it.
    let mut hash = FNV_OFFSET;
    for assoc in [1usize, 2, 3, 4, 6, 8, 16, 24, 32, 64] {
        for (i, kind) in stack_kinds(assoc).into_iter().enumerate() {
            let mut policy = kind.build_state(assoc, 0);
            hash = fnv(hash, policy.name().as_bytes());
            let mut rng = Prng::seed_from_u64(mix64(assoc as u64, i as u64));
            for _ in 0..400 {
                let way = rng.gen_range(0..assoc);
                match rng.gen_range(0..100u32) {
                    0..=39 => policy.on_hit(way),
                    40..=59 => policy.on_fill(way),
                    60..=84 => {
                        let victim = policy.victim();
                        hash = fnv(hash, &(victim as u64).to_le_bytes());
                        policy.on_fill(victim);
                    }
                    85..=97 => policy.on_invalidate(way),
                    _ => policy.reset(),
                }
                hash = fnv(hash, &policy.state_key());
            }
        }
    }
    assert_eq!(
        hash, 0x2527_65af_64b6_9d30,
        "stack-kind digest {hash:#018x}"
    );
}

/// The age-counter kinds (NRU, every SRRIP width, every QLRU insertion
/// age), the two bit-vector kinds, and BRRIP over the age counters.
fn age_and_bit_kinds() -> Vec<PolicyKind> {
    let mut kinds = vec![PolicyKind::Nru];
    kinds.extend((1..=7).map(|bits| PolicyKind::Srrip { bits }));
    kinds.extend((0..=3).map(|insert| PolicyKind::Qlru { insert }));
    kinds.extend([
        PolicyKind::BitPlru,
        PolicyKind::Clock,
        PolicyKind::Brrip {
            bits: 2,
            throttle: 32,
        },
    ]);
    kinds
}

#[test]
fn age_and_bit_kinds_replay_the_pinned_event_stream() {
    // Each kind at 1–128 ways, driven through a seeded mix of every
    // policy event. The digest folds each kind's name, every victim,
    // and after every event the index of the first step of the run
    // whose state key equalled the current one: a fingerprint of which
    // states the run revisits that does not depend on how a key encodes
    // its state.
    let mut hash = FNV_OFFSET;
    for assoc in [1usize, 2, 3, 4, 6, 8, 16, 24, 32, 64, 128] {
        for (i, kind) in age_and_bit_kinds().into_iter().enumerate() {
            let mut policy = kind.build_state(assoc, 0);
            hash = fnv(hash, policy.name().as_bytes());
            let mut rng = Prng::seed_from_u64(mix64(0xA6E ^ assoc as u64, i as u64));
            let mut first_seen: HashMap<Vec<u8>, u64> = HashMap::new();
            for step in 0..600u64 {
                let way = rng.gen_range(0..assoc);
                match rng.gen_range(0..100u32) {
                    0..=34 => policy.on_hit(way),
                    35..=54 => policy.on_fill(way),
                    55..=84 => {
                        let victim = policy.victim();
                        hash = fnv(hash, &(victim as u64).to_le_bytes());
                        policy.on_fill(victim);
                    }
                    85..=97 => policy.on_invalidate(way),
                    _ => policy.reset(),
                }
                let first = *first_seen.entry(policy.state_key()).or_insert(step);
                hash = fnv(hash, &first.to_le_bytes());
            }
        }
    }
    assert_eq!(
        hash, 0x3865_0ab6_288f_497c,
        "age/bit-kind digest {hash:#018x}"
    );
}

/// BIP-1/t and BRRIP-k-1/t at every throttle and RRPV width the
/// bimodal pin covers.
fn bimodal_kinds() -> Vec<PolicyKind> {
    let mut kinds = Vec::new();
    for throttle in [1u32, 2, 32] {
        kinds.push(PolicyKind::Bip { throttle });
        kinds.extend([1u8, 2, 3, 7].map(|bits| PolicyKind::Brrip { bits, throttle }));
    }
    kinds
}

#[test]
fn bimodal_kinds_replay_the_pinned_event_stream() {
    // Each kind at 1–128 ways and two per-set salts, driven through a
    // seeded mix of every policy event. The digest folds each kind's
    // name, every victim and the state key after every event, so a
    // change to an insertion draw, to the base policy a kind runs or to
    // its seed moves it.
    let mut hash = FNV_OFFSET;
    for assoc in [1usize, 2, 3, 4, 6, 8, 16, 24, 32, 64, 128] {
        for salt in [0u64, 5] {
            for (i, kind) in bimodal_kinds().into_iter().enumerate() {
                let mut policy = kind.build_state(assoc, salt);
                hash = fnv(hash, policy.name().as_bytes());
                let mut rng =
                    Prng::seed_from_u64(mix64(0xB1B0 ^ assoc as u64, salt << 8 | i as u64));
                for _ in 0..600 {
                    let way = rng.gen_range(0..assoc);
                    match rng.gen_range(0..100u32) {
                        0..=34 => policy.on_hit(way),
                        35..=54 => policy.on_fill(way),
                        55..=84 => {
                            let victim = policy.victim();
                            hash = fnv(hash, &(victim as u64).to_le_bytes());
                            policy.on_fill(victim);
                        }
                        85..=97 => policy.on_invalidate(way),
                        _ => policy.reset(),
                    }
                    hash = fnv(hash, &policy.state_key());
                }
            }
        }
    }
    assert_eq!(
        hash, 0x528f_2d63_f400_f3aa,
        "bimodal-kind digest {hash:#018x}"
    );
}

/// A DIP-1/`throttle` cache: every set a member of one family, sharing
/// its PSEL, which is returned beside the cache.
fn dip_cache(config: CacheConfig, throttle: u32) -> (Cache, Arc<DuelState>) {
    let family = DuelFamily::new(PolicyKind::Bip { throttle }, config.associativity(), 0xD1B);
    let duel = Arc::clone(family.duel());
    let cache = Cache::with_policy_factory(config, "DIP", move |set| family.policy_for_set(set));
    (cache, duel)
}

/// A DRRIP cache over `bits`-wide RRPVs and BRRIP throttle `throttle`,
/// as [`dip_cache`] builds DIP.
fn drrip_cache(config: CacheConfig, bits: u8, throttle: u32) -> (Cache, Arc<DuelState>) {
    let brrip = PolicyKind::Brrip { bits, throttle };
    let family = DuelFamily::new(brrip, config.associativity(), 0xD2B);
    let duel = Arc::clone(family.duel());
    let cache = Cache::with_policy_factory(config, "DRRIP", move |set| family.policy_for_set(set));
    (cache, duel)
}

#[test]
fn duels_replay_the_pinned_access_stream() {
    // Scans of fresh lines over three times the capacity, which thrash
    // the baseline component, alternate with loops over half the
    // capacity, which its bimodal one is slow to take in; so leader
    // sets move PSEL both ways (at 4 ways across zero, so followers
    // switch sides). The digest
    // folds every outcome, evicted line, write-back and PSEL value, and
    // the final statistics.
    let mut hash = FNV_OFFSET;
    for (assoc, sets) in [(4usize, 64u64), (8, 128), (16, 64)] {
        let config = CacheConfig::new(sets * assoc as u64 * 64, assoc, 64).expect("valid");
        let lines = sets * assoc as u64;
        let duels = [
            dip_cache(config, 32),
            dip_cache(config, 2),
            drrip_cache(config, 2, 32),
            drrip_cache(config, 3, 4),
        ];
        for (i, (mut cache, duel)) in duels.into_iter().enumerate() {
            let mut rng = Prng::seed_from_u64(mix64(0xD0E1 ^ assoc as u64, i as u64));
            let phase_len = 3 * lines;
            for step in 0..40_000u64 {
                let (phase, offset) = (step / phase_len, step % phase_len);
                let line = if phase.is_multiple_of(2) {
                    lines * (1 + 3 * phase) + offset
                } else {
                    offset % (lines / 2)
                };
                let (outcome, writeback) = cache.access_op(line * 64, rng.gen_bool(0.1));
                match outcome {
                    AccessOutcome::Hit => hash = fnv(hash, &[0]),
                    AccessOutcome::Miss { evicted: None } => hash = fnv(hash, &[1]),
                    AccessOutcome::Miss {
                        evicted: Some(addr),
                    } => {
                        hash = fnv(hash, &[2]);
                        hash = fnv(hash, &addr.to_le_bytes());
                    }
                }
                if let Some(addr) = writeback {
                    hash = fnv(hash, &addr.to_le_bytes());
                }
                hash = fnv(hash, &duel.psel().to_le_bytes());
            }
            let stats = cache.stats();
            for count in [
                stats.accesses,
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.writes,
                stats.writebacks,
            ] {
                hash = fnv(hash, &count.to_le_bytes());
            }
        }
    }
    assert_eq!(hash, 0xa582_0a17_5ad2_a055, "duel digest {hash:#018x}");
}

#[test]
fn catalog_is_pinned_at_every_associativity_up_to_sixteen() {
    let mut hash = FNV_OFFSET;
    for assoc in 1..=16 {
        for entry in catalog_for(assoc) {
            hash = fnv(hash, entry.name.as_bytes());
            hash = fnv(hash, entry.spec.render().as_bytes());
        }
    }
    assert_eq!(hash, 0x3f8d_e003_40d7_d350, "catalog digest {hash:#018x}");
}

#[test]
fn set_layout_stays_within_its_stated_size() {
    // docs/engine.md states both sizes: a set's policy state is stored
    // inline, and a set is one small contiguous block.
    let state = std::mem::size_of::<PolicyState>();
    let set = std::mem::size_of::<CacheSet>();
    assert!(state <= 48, "PolicyState grew to {state} bytes");
    assert!(set <= 160, "CacheSet grew to {set} bytes");
}
