//! The evaluation half of the paper: simulate discovered and textbook
//! policies on the workload suite and check the expected qualitative
//! orderings ("who wins where").

use cachekit::core::perm::{PermutationPolicy, PermutationSpec};
use cachekit::policies::PolicyKind;
use cachekit::sim::{sweep, Cache, CacheConfig};
use cachekit::trace::workloads;

const CAPACITY: u64 = 64 * 1024;
const LINE: u64 = 64;

fn miss_ratio(kind: PolicyKind, trace: &[u64]) -> f64 {
    let cfg = CacheConfig::new(CAPACITY, 8, LINE).unwrap();
    sweep::simulate(cfg, kind, trace).miss_ratio()
}

fn workload(name: &str) -> Vec<u64> {
    workloads::suite(CAPACITY, LINE, 7)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} missing"))
        .trace
}

#[test]
fn every_policy_streams_at_high_miss_ratio() {
    // Insertion-throttled policies (LIP, BIP) legitimately pin the first
    // fill of each set and hit it on later passes, so the bound is looser
    // for them; recency policies must miss everything.
    let t = workload("seq_stream");
    for kind in PolicyKind::evaluation_kinds() {
        let m = miss_ratio(kind, &t);
        assert!(m > 0.85, "{}: {m}", kind.label());
    }
    assert!(miss_ratio(PolicyKind::Lru, &t) > 0.999);
    assert!(miss_ratio(PolicyKind::TreePlru, &t) > 0.999);
}

#[test]
fn every_policy_holds_a_fitting_loop() {
    let t = workload("fit_loop");
    for kind in PolicyKind::evaluation_kinds() {
        let m = miss_ratio(kind, &t);
        assert!(m < 0.10, "{}: {m}", kind.label());
    }
}

#[test]
fn lru_thrashes_on_slightly_oversized_loops_but_lip_does_not() {
    let t = workload("thrash_loop");
    let lru = miss_ratio(PolicyKind::Lru, &t);
    let lip = miss_ratio(PolicyKind::Lip, &t);
    let random = miss_ratio(PolicyKind::Random { seed: 3 }, &t);
    assert!(lru > 0.95, "LRU must thrash: {lru}");
    assert!(lip < 0.35, "LIP is thrash-resistant: {lip}");
    assert!(
        random < lru,
        "even random beats LRU here: {random} vs {lru}"
    );
}

#[test]
fn plru_tracks_lru_closely_on_reuse_heavy_workloads() {
    for name in ["zipf_hot", "stack_geo"] {
        let t = workload(name);
        let lru = miss_ratio(PolicyKind::Lru, &t);
        let plru = miss_ratio(PolicyKind::TreePlru, &t);
        assert!(
            (plru - lru).abs() < 0.03,
            "{name}: LRU {lru} vs PLRU {plru}"
        );
    }
}

#[test]
fn history_aware_policies_beat_random_on_skewed_reuse() {
    let t = workload("zipf_hot");
    let lru = miss_ratio(PolicyKind::Lru, &t);
    let random = miss_ratio(PolicyKind::Random { seed: 3 }, &t);
    assert!(lru < random, "LRU {lru} vs random {random}");
}

#[test]
fn scan_resistant_policies_win_on_mixed_scan_plus_hot() {
    let t = workload("scan_plus_hot");
    let lru = miss_ratio(PolicyKind::Lru, &t);
    let lip = miss_ratio(PolicyKind::Lip, &t);
    assert!(
        lip + 0.05 < lru,
        "LIP should protect the hot loop: LIP {lip} vs LRU {lru}"
    );
}

#[test]
fn discovered_lazylru_behaves_like_lru_within_a_few_percent() {
    // The "undocumented" policy is evaluated exactly like the paper
    // evaluates its discoveries: drop the inferred spec into the
    // simulator and compare.
    let spec = PermutationSpec::for_kind(PolicyKind::Lru, 8).unwrap();
    let _ = spec; // (reference point only)
    for w in workloads::suite(CAPACITY, LINE, 7) {
        let cfg = CacheConfig::new(CAPACITY, 8, LINE).unwrap();
        let lru = sweep::simulate(cfg, PolicyKind::Lru, &w.trace).miss_ratio();
        let lazy = sweep::simulate(cfg, PolicyKind::LazyLru, &w.trace).miss_ratio();
        assert!(
            (lazy - lru).abs() < 0.08,
            "{}: LRU {lru} vs LazyLRU {lazy}",
            w.name
        );
    }
}

#[test]
fn inferred_spec_reproduces_the_hidden_policy_in_simulation() {
    // Close the loop: run a cache whose sets execute the *inferred*
    // LazyLRU spec and compare miss counts against the concrete policy.
    let spec = cachekit::core::perm::derive_permutation_spec(Box::new(
        PolicyKind::LazyLru.build_state(8, 0),
    ))
    .unwrap();
    let cfg = CacheConfig::new(CAPACITY, 8, LINE).unwrap();
    for w in workloads::suite(CAPACITY, LINE, 9) {
        let mut inferred = Cache::with_policy_factory(cfg, "inferred", |_| {
            Box::new(PermutationPolicy::new(spec.clone()))
        });
        let mut concrete = Cache::new(cfg, PolicyKind::LazyLru);
        let a = inferred.run_trace(w.trace.iter().copied());
        let b = concrete.run_trace(w.trace.iter().copied());
        let (ra, rb) = (a.miss_ratio(), b.miss_ratio());
        assert!(
            (ra - rb).abs() < 0.01,
            "{}: inferred {ra} vs concrete {rb}",
            w.name
        );
    }
}

#[test]
fn lru_miss_ratio_is_monotone_in_capacity_across_the_suite() {
    for w in workloads::suite(CAPACITY, LINE, 11) {
        let configs = sweep::capacity_series(16 * 1024, 256 * 1024, 8, LINE).unwrap();
        let cells = sweep::sweep(&configs, &[PolicyKind::Lru], &w.trace);
        let ratios: Vec<f64> = cells.iter().map(|c| c.miss_ratio()).collect();
        for pair in ratios.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "{}: non-monotone {ratios:?}",
                w.name
            );
        }
    }
}
