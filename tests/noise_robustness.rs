//! Majority voting vs measurement noise — the property behind Fig. 2.
//!
//! Failing seeds are reported as `CACHEKIT_REPLAY` lines (see
//! `common::shrink`), so a statistical regression pinpoints the exact
//! seeds to re-run.

mod common;

use cachekit::core::infer::{
    infer_geometry, Geometry, InferenceConfig, InferenceEngine, InferenceRequest, PermutationEngine,
};
use cachekit::hw::{CacheLevel, LevelOracle, NoiseModel, VirtualCpu};
use cachekit::policies::PolicyKind;
use cachekit::sim::CacheConfig;
use common::shrink::{check_cases, replay_line};

/// The seeds on which `predicate` fails, for replay reporting.
fn failing_seeds(seeds: std::ops::Range<u64>, predicate: impl Fn(u64) -> bool) -> Vec<u64> {
    seeds.filter(|&s| !predicate(s)).collect()
}

fn noisy_cpu(noise: NoiseModel, seed: u64) -> VirtualCpu {
    VirtualCpu::builder("noisy")
        .l1(
            CacheConfig::new(4 * 1024, 4, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .l2(
            CacheConfig::new(64 * 1024, 8, 64).unwrap(),
            PolicyKind::TreePlru,
        )
        .noise(noise)
        .seed(seed)
        .build()
}

/// Attempt a full L1 inference; true iff geometry and policy both land.
fn attempt(noise: NoiseModel, repetitions: usize, seed: u64) -> bool {
    let mut cpu = noisy_cpu(noise, seed);
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
    let config = InferenceConfig::with_repetitions(repetitions);
    let Ok(geometry) = infer_geometry(&mut oracle, &config) else {
        return false;
    };
    if (geometry.capacity, geometry.associativity) != (4 * 1024, 4) {
        return false;
    }
    let report =
        PermutationEngine::strict().infer(&mut oracle, &InferenceRequest::new(geometry, config));
    report.finding().and_then(|f| f.matched()) == Some("PLRU")
}

#[test]
fn clean_channel_single_shot_succeeds() {
    assert!(attempt(NoiseModel::none(), 1, 1));
}

#[test]
fn moderate_noise_defeats_single_shot_inference() {
    // With 10% counter noise a single-shot campaign should fail at least
    // sometimes across seeds; the point of the experiment is that it is
    // unreliable, not that it fails deterministically.
    let failures = (0..5)
        .filter(|&s| !attempt(NoiseModel::counter(0.10), 1, s))
        .count();
    assert!(
        failures >= 2,
        "expected single-shot inference to be unreliable, {failures}/5 failures"
    );
}

#[test]
fn voting_recovers_under_moderate_noise() {
    let failed = failing_seeds(0..5, |s| attempt(NoiseModel::counter(0.10), 9, s));
    assert!(
        failed.len() <= 1,
        "9-fold voting should survive 10% counter noise, {}/5 failed\nreplay with: {}",
        failed.len(),
        replay_line(0x4015E, &failed),
    );
}

/// Per-seed invariant joining this suite to the fault-injection kit: on
/// a noisy channel the *robust* pipeline may fail to conclude, but a
/// result that claims confidence must name the true policy. Checked
/// per seed through the shrinking/replay harness.
#[test]
fn robust_inference_is_never_confidently_wrong_under_noise() {
    check_cases(0x401, 8, |seed| {
        let mut cpu = noisy_cpu(NoiseModel::counter(0.10), seed);
        let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
        let geometry = Geometry {
            line_size: 64,
            capacity: 4 * 1024,
            associativity: 4,
            num_sets: 16,
        };
        let config = InferenceConfig::builder()
            .repetitions(3)
            .max_repetitions(24)
            .seed(seed)
            .build()
            .expect("valid config");
        let result = PermutationEngine::budgeted()
            .infer(&mut oracle, &InferenceRequest::new(geometry, config));
        if result.is_confident(0.75) {
            let matched = result.finding().expect("confident => Ok").matched();
            assert_eq!(matched, Some("PLRU"), "seed {seed}");
        }
    });
}

#[test]
fn background_evictions_are_harder_than_counter_noise() {
    // Background evictions corrupt the *state*, not just the reading;
    // re-reading the same run cannot fix them. At a high rate even
    // voting fails (the paper's answer: pin cores / quiesce the system).
    let heavy = NoiseModel {
        counter_noise: 0.0,
        background_eviction: 0.20,
    };
    let successes = (0..3).filter(|&s| attempt(heavy, 9, s)).count();
    assert!(
        successes <= 1,
        "20% background evictions should defeat the campaign, got {successes}/3 successes"
    );
}

#[test]
fn light_background_noise_is_survivable_with_voting() {
    let light = NoiseModel {
        counter_noise: 0.0,
        background_eviction: 0.002,
    };
    let failed = failing_seeds(0..3, |s| attempt(light, 9, s));
    assert!(
        failed.len() <= 1,
        "{}/3 failed\nreplay with: {}",
        failed.len(),
        replay_line(0x11647, &failed),
    );
}
