//! End-to-end reverse engineering against the virtual hardware: from a
//! black-box oracle to geometry and policy, exactly the paper's pipeline.

mod common;

use cachekit::core::infer::{
    infer_geometry, InferenceConfig, InferenceEngine, InferenceError, InferenceRequest,
    PermutationEngine, SimOracle,
};
use cachekit::hw::{fleet, CacheLevel, LevelOracle, MeasureMode, VirtualCpu};
use cachekit::policies::PolicyKind;
use cachekit::sim::{Cache, CacheConfig};
use common::strict_policy;

fn infer_level(
    cpu: &mut VirtualCpu,
    level: CacheLevel,
) -> Result<(cachekit::core::infer::Geometry, Option<&'static str>), InferenceError> {
    let mut oracle = LevelOracle::new(cpu, level);
    let config = InferenceConfig::default();
    let geometry = infer_geometry(&mut oracle, &config)?;
    let report = strict_policy(&mut oracle, &geometry, &config)?;
    Ok((geometry, report.matched))
}

#[test]
fn atom_l1_is_identified_as_lru() {
    let mut cpu = fleet::atom_d525();
    let (g, matched) = infer_level(&mut cpu, CacheLevel::L1).unwrap();
    assert_eq!(g.capacity, 24 * 1024);
    assert_eq!(g.associativity, 6);
    assert_eq!(g.line_size, 64);
    assert_eq!(g.num_sets, 64);
    assert_eq!(matched, Some("LRU"));
}

#[test]
fn atom_l2_is_identified_as_plru() {
    let mut cpu = fleet::atom_d525();
    let (g, matched) = infer_level(&mut cpu, CacheLevel::L2).unwrap();
    assert_eq!(g.capacity, 512 * 1024);
    assert_eq!(g.associativity, 8);
    assert_eq!(matched, Some("PLRU"));
}

#[test]
fn core2_l1_is_identified_as_plru() {
    let mut cpu = fleet::core2_e6300();
    let (g, matched) = infer_level(&mut cpu, CacheLevel::L1).unwrap();
    assert_eq!(g.capacity, 32 * 1024);
    assert_eq!(g.associativity, 8);
    assert_eq!(matched, Some("PLRU"));
}

#[test]
fn undocumented_policy_is_reported_as_such() {
    // A scaled-down E8400-style machine (same hidden L2 policy, smaller
    // geometry so the test stays fast in debug builds); the full-size
    // fleet run lives in the benchmark harness.
    let mut cpu = VirtualCpu::builder("mini_e8400")
        .l1(
            CacheConfig::new(4 * 1024, 4, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .l2(
            CacheConfig::new(96 * 1024, 24, 64).unwrap(),
            PolicyKind::LazyLru,
        )
        .build();
    let (g, matched) = infer_level(&mut cpu, CacheLevel::L2).unwrap();
    assert_eq!(g.capacity, 96 * 1024);
    assert_eq!(g.associativity, 24);
    assert_eq!(matched, None, "LazyLRU must not match any catalog entry");
}

#[test]
fn random_l2_is_rejected() {
    let mut cpu = VirtualCpu::builder("mini_mystery")
        .l1(
            CacheConfig::new(4 * 1024, 4, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .l2(
            CacheConfig::new(64 * 1024, 8, 64).unwrap(),
            PolicyKind::Random { seed: 0x777 },
        )
        .build();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2);
    let config = InferenceConfig::default();
    let geometry = infer_geometry(&mut oracle, &config).unwrap();
    assert_eq!(geometry.capacity, 64 * 1024);
    let err = strict_policy(&mut oracle, &geometry, &config).unwrap_err();
    match err {
        InferenceError::InconsistentReadout(_)
        | InferenceError::NotAPermutationPolicy { .. }
        | InferenceError::NotFrontInsertion { .. } => {}
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn timing_mode_agrees_with_perf_counters() {
    let mut cpu = fleet::atom_d525();
    let config = InferenceConfig::default();
    let (g_timing, matched_timing) = {
        let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1).with_mode(MeasureMode::Timing);
        let g = infer_geometry(&mut oracle, &config).unwrap();
        let r = strict_policy(&mut oracle, &g, &config).unwrap();
        (g, r.matched)
    };
    assert_eq!(g_timing.capacity, 24 * 1024);
    assert_eq!(matched_timing, Some("LRU"));
}

#[test]
fn strict_and_budgeted_engines_agree_on_a_clean_oracle() {
    // Atom D525-like LRU 6-way, the 8-way catalog policies and an
    // undocumented 4-way: on a clean channel both voters must produce
    // the same spec, match and validation verdict.
    let cases = [
        (PolicyKind::Lru, 6usize, Some("LRU")),
        (PolicyKind::Lru, 8usize, Some("LRU")),
        (PolicyKind::Fifo, 8usize, Some("FIFO")),
        (PolicyKind::TreePlru, 8usize, Some("PLRU")),
        (PolicyKind::LazyLru, 4usize, None),
    ];
    let config = InferenceConfig::default();
    for (kind, assoc, expect) in cases {
        let capacity = assoc as u64 * 64 * 64;
        let cache = Cache::new(CacheConfig::new(capacity, assoc, 64).unwrap(), kind);
        let geometry = infer_geometry(&mut SimOracle::new(cache.clone()), &config).unwrap();
        assert_eq!(geometry.associativity, assoc, "{kind:?}");
        let request = InferenceRequest::new(geometry, config.clone());
        let strict = strict_policy(&mut SimOracle::new(cache.clone()), &geometry, &config).unwrap();
        let budgeted = PermutationEngine::budgeted().infer(&mut SimOracle::new(cache), &request);
        let budgeted = budgeted
            .finding()
            .and_then(|f| f.permutation())
            .expect("budgeted verdict");
        assert_eq!(strict.matched, expect, "{kind:?}");
        assert_eq!(&strict, budgeted, "{kind:?}");
    }
}

#[test]
fn derived_spec_predicts_future_behaviour() {
    // The inferred spec must predict the hardware on a fresh random
    // workload, not just on the inference's own experiments.
    use cachekit::core::perm::PermutationSpec;
    use cachekit::policies::rng::Prng;

    let mut cpu = fleet::atom_d525();
    let config = InferenceConfig::default();
    let report = {
        let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
        let g = infer_geometry(&mut oracle, &config).unwrap();
        strict_policy(&mut oracle, &g, &config).unwrap()
    };
    assert_eq!(report.spec, PermutationSpec::lru(6));

    // Fresh experiment: base fill then a random tail, predicted by hand.
    let way = report.geometry.way_size();
    let base: Vec<u64> = (0..6u64).map(|i| i * way).collect();
    let mut rng = Prng::seed_from_u64(42);
    let tail: Vec<u64> = (0..60).map(|_| rng.gen_range(0..10u64) * way).collect();

    let mut state: Vec<u64> = base.iter().rev().copied().collect();
    let mut predicted = 0;
    for &a in &tail {
        match state.iter().position(|&b| b == a) {
            Some(i) => report.spec.apply_hit(&mut state, i),
            None => {
                predicted += 1;
                report.spec.apply_miss(&mut state, a);
            }
        }
    }
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
    let measured = cachekit::core::infer::measure_voted(&mut oracle, &base, &tail, 3);
    assert_eq!(measured, predicted);
}
