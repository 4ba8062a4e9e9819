//! Round-trip through the full hardware path: hide a *random* permutation
//! policy inside a virtual CPU's L2 (behind a real L1, with the oracle's
//! flusher machinery in play) and check that the blind inference recovers
//! exactly the hidden spec.

mod common;

use cachekit::core::infer::{infer_geometry, InferenceConfig};
use cachekit::core::perm::{Permutation, PermutationPolicy, PermutationSpec};
use cachekit::hw::{CacheLevel, LevelOracle, VirtualCpu};
use cachekit::policies::rng::{Prng, Shuffle};
use cachekit::policies::PolicyKind;
use cachekit::sim::{Cache, CacheConfig};
use common::strict_policy;

fn random_spec(assoc: usize, seed: u64) -> PermutationSpec {
    let mut rng = Prng::seed_from_u64(seed);
    let hits = (0..assoc)
        .map(|_| {
            let mut map: Vec<usize> = (0..assoc).collect();
            map.shuffle(&mut rng);
            Permutation::new(map).expect("shuffle is a permutation")
        })
        .collect();
    PermutationSpec::new(hits, 0).expect("front insertion")
}

fn cpu_hiding(spec: &PermutationSpec) -> VirtualCpu {
    let assoc = spec.associativity();
    let l2_cfg = CacheConfig::new(assoc as u64 * 64 * 64, assoc, 64).expect("valid");
    let spec = spec.clone();
    let l2 = Cache::with_policy_factory(l2_cfg, "hidden", move |_| {
        Box::new(PermutationPolicy::new(spec.clone()))
    });
    let l1 = Cache::new(
        CacheConfig::new(4 * 1024, 4, 64).expect("valid"),
        PolicyKind::TreePlru,
    );
    VirtualCpu::builder("roundtrip")
        .l1_cache(l1)
        .l2_cache(l2)
        .build()
}

#[test]
fn random_hidden_specs_are_recovered_through_l2_measurements() {
    for seed in 0..6 {
        let spec = random_spec(4, seed);
        let mut cpu = cpu_hiding(&spec);
        let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).expect("geometry");
        assert_eq!(geometry.associativity, 4, "seed {seed}");
        let report = strict_policy(&mut oracle, &geometry, &config).expect("policy");
        assert_eq!(report.spec, spec, "seed {seed}");
    }
}

#[test]
fn wider_random_spec_is_recovered_too() {
    let spec = random_spec(8, 0xABCD);
    let mut cpu = cpu_hiding(&spec);
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2);
    let config = InferenceConfig::default();
    let geometry = infer_geometry(&mut oracle, &config).expect("geometry");
    let report = strict_policy(&mut oracle, &geometry, &config).expect("policy");
    assert_eq!(report.spec, spec);
}
