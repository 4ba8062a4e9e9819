//! Differential fault-injection tests: the fault layer must be
//! transparent at rate 0, and the *budgeted robust* pipeline must never
//! be confidently wrong under any seeded fault schedule — budget
//! exhaustion has to surface as an explicit degraded partial result,
//! never as a panic or a silent guess.

mod common;

use cachekit::core::infer::{
    CacheOracle, CacheOracleExt, Finding, Geometry, InferenceConfig, InferenceEngine,
    InferenceError, InferenceReport, InferenceRequest, PermutationEngine, SimOracle,
};
use cachekit::hw::Faults;
use cachekit::policies::PolicyKind;
use cachekit::sim::{Cache, CacheConfig};
use common::shrink::{replay_line, shrink_indices};

/// Confidence bar above which a result claims a trustworthy answer.
const CONFIDENCE_BAR: f64 = 0.75;

fn oracle_for(kind: PolicyKind, assoc: usize) -> SimOracle {
    let capacity = (assoc * 16 * 64) as u64; // 16 sets of `assoc` ways
    SimOracle::new(Cache::new(
        CacheConfig::new(capacity, assoc, 64).expect("valid"),
        kind,
    ))
}

fn geometry_for(assoc: usize) -> Geometry {
    Geometry {
        line_size: 64,
        capacity: (assoc * 16 * 64) as u64,
        associativity: assoc,
        num_sets: 16,
    }
}

fn config_for(seed: u64, budget: Option<u64>) -> InferenceConfig {
    let mut builder = InferenceConfig::builder()
        .repetitions(3)
        .max_repetitions(24)
        .seed(seed);
    if let Some(b) = budget {
        builder = builder.measurement_budget(b);
    }
    builder.build().expect("valid config")
}

/// Run `engine` over `oracle` at `geometry`.
fn infer(
    engine: PermutationEngine,
    oracle: &mut dyn CacheOracle,
    geometry: Geometry,
    config: InferenceConfig,
) -> InferenceReport {
    engine.infer(oracle, &InferenceRequest::new(geometry, config))
}

/// The outcome class a campaign is compared on across channels.
fn outcome_class(result: &Result<Finding, InferenceError>) -> String {
    match result {
        Ok(finding) => finding
            .matched()
            .map_or("undocumented".to_owned(), str::to_owned),
        Err(InferenceError::NotFrontInsertion { position }) => {
            format!("not-front-insertion@{position}")
        }
        Err(InferenceError::NotAPermutationPolicy { .. }) => "rejected".to_owned(),
        Err(InferenceError::BudgetExhausted { .. }) => "degraded".to_owned(),
        Err(_) => "inconsistent".to_owned(),
    }
}

#[test]
fn zero_fault_layer_is_bit_identical_on_raw_streams() {
    for kind in PolicyKind::differential_kinds() {
        let mut plain = oracle_for(kind, 8);
        let mut layered = oracle_for(kind, 8).layer(Faults::from_seed(0xD1FF));
        for i in 0..200u64 {
            let warmup: Vec<u64> = (0..(i % 10)).map(|j| j * 1024).collect();
            let probe: Vec<u64> = (0..4u64).map(|j| (i + j) * 1024).collect();
            assert_eq!(
                plain.measure(&warmup, &probe),
                layered.measure(&warmup, &probe),
                "{kind:?} measurement {i} diverged under a zero-rate layer"
            );
            assert_eq!(
                plain.try_measure(&warmup, &probe),
                layered.try_measure(&warmup, &probe),
                "{kind:?} try_measure {i} diverged under a zero-rate layer"
            );
        }
    }
}

#[test]
fn zero_fault_layer_is_bit_identical_through_inference() {
    let config = InferenceConfig::default();
    for kind in PolicyKind::differential_kinds() {
        let geometry = geometry_for(8);
        let strict = PermutationEngine::strict();
        let plain = infer(strict, &mut oracle_for(kind, 8), geometry, config.clone());
        let layered = infer(
            strict,
            &mut oracle_for(kind, 8).layer(Faults::from_seed(0xD1FF)),
            geometry,
            config.clone(),
        );
        assert_eq!(plain, layered, "{kind:?} inference diverged at rate 0");
    }
}

/// A composite fault plan at intensity `rate`.
fn fault_plan(rate: f64, seed: u64) -> Faults {
    Faults::from_seed(seed)
        .flips(rate)
        .drops(rate / 2.0)
        .timeouts(rate / 2.0)
        .prefetch_bursts(rate / 4.0, 3)
        .migrations(rate / 8.0, 4)
}

fn robust_campaign(kind: PolicyKind, assoc: usize, plan: Faults, seed: u64) -> InferenceReport {
    let mut oracle = oracle_for(kind, assoc).layer(plan);
    infer(
        PermutationEngine::budgeted(),
        &mut oracle,
        geometry_for(assoc),
        config_for(seed, Some(100_000)),
    )
}

/// The invariant the whole kit exists to enforce: across the seeded
/// fault matrix, a result that claims confidence must agree with the
/// fault-free channel. On violation the fault schedule is shrunk to a
/// minimal failing subsequence and reported with a replay line.
#[test]
fn confident_results_are_correct_across_the_fault_matrix() {
    let assocs_for = |kind: PolicyKind| match kind {
        // The full associativity ladder on the catalog policies, the
        // cheap associativities on the rest (the structural-finding
        // paths are identical across assoc).
        PolicyKind::Lru | PolicyKind::Fifo | PolicyKind::TreePlru | PolicyKind::LazyLru => {
            vec![4usize, 8, 16]
        }
        _ => vec![4, 8],
    };
    for kind in PolicyKind::differential_kinds() {
        for assoc in assocs_for(kind) {
            // Fault-free truth for this (kind, assoc) cell.
            let clean = robust_campaign(kind, assoc, Faults::from_seed(0), 0x5EED);
            assert!(!clean.degraded, "{kind:?}/{assoc}: clean run degraded");
            let expected = outcome_class(&clean.outcome);
            for (r, &rate) in [0.02f64, 0.05, 0.10].iter().enumerate() {
                let seed = 0xFA17 ^ (assoc as u64) << 8 ^ (r as u64) << 16;
                let confidently_wrong = |plan: &Faults| {
                    let result = robust_campaign(kind, assoc, plan.clone(), seed);
                    result.is_confident(CONFIDENCE_BAR)
                        && outcome_class(&result.outcome) != expected
                };
                let plan = fault_plan(rate, seed);
                if confidently_wrong(&plan) {
                    // Shrink over the fault indices actually scheduled in
                    // the first 100k measurements (>= any campaign).
                    let indices = plan.fault_indices(100_000);
                    let minimal = shrink_indices(&indices, |subset| {
                        confidently_wrong(&plan.clone().restricted_to(subset.to_vec()))
                    });
                    panic!(
                        "{kind:?} assoc {assoc} rate {rate}: confident result \
                         contradicts the clean channel ({} faults suffice)\n{}",
                        minimal.len(),
                        replay_line(seed, &minimal),
                    );
                }
            }
        }
    }
}

#[test]
fn budget_exhaustion_degrades_with_partial_confidences_and_no_panic() {
    // Budgets from trivially small through "mid read-out" to plentiful:
    // every campaign must return (never panic), and any campaign that
    // ran dry must say so explicitly with the accounting intact. The
    // clean channel makes the exhaustion point a deterministic function
    // of the budget alone, so the partial-progress window is stable.
    let kind = PolicyKind::TreePlru;
    let mut partial_lens = Vec::new();
    for budget in [1u64, 60, 140, 200, 260, 10_000] {
        let mut oracle = oracle_for(kind, 4).layer(Faults::from_seed(0xB4D));
        let config = config_for(7, Some(budget));
        let result = infer(
            PermutationEngine::budgeted(),
            &mut oracle,
            geometry_for(4),
            config,
        );
        assert_eq!(result.measurement_budget, Some(budget));
        assert!(result.measurements_used <= budget);
        if budget == 10_000 {
            // Plenty of budget: the campaign completes confidently.
            assert!(!result.degraded, "10k-attempt budget must suffice");
            assert!(result.is_confident(CONFIDENCE_BAR));
            assert_eq!(outcome_class(&result.outcome), "PLRU");
            continue;
        }
        assert!(result.degraded, "budget {budget} should exhaust");
        assert!(!result.is_confident(CONFIDENCE_BAR));
        match result.outcome {
            Err(InferenceError::BudgetExhausted { used, budget: b }) => {
                assert_eq!(b, budget);
                assert!(used <= budget);
            }
            ref other => panic!("degraded without BudgetExhausted: {other:?}"),
        }
        // Partial per-permutation confidences: at most one per way, each
        // a valid fraction, and monotone in the budget — a bigger budget
        // never completes fewer read-outs.
        assert!(result.position_confidences.len() <= 4);
        for &c in &result.position_confidences {
            assert!((0.0..=1.0).contains(&c));
        }
        partial_lens.push(result.position_confidences.len());
    }
    assert!(partial_lens.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(partial_lens[0], 0, "budget 1 dies before any read-out");
    assert!(
        *partial_lens.last().unwrap() > 0,
        "mid-sized budgets must degrade only after completing some read-outs"
    );
}

#[test]
fn unlimited_budget_faulty_channel_never_panics() {
    // High composite rates on every kind: the outcome may be anything
    // except a panic or a false confident answer.
    for kind in PolicyKind::differential_kinds() {
        let plan = fault_plan(0.25, 0xAB);
        let mut oracle = oracle_for(kind, 4).layer(plan);
        let result = infer(
            PermutationEngine::budgeted(),
            &mut oracle,
            geometry_for(4),
            config_for(3, None),
        );
        if result.is_confident(CONFIDENCE_BAR) {
            let clean = robust_campaign(kind, 4, Faults::from_seed(0), 3);
            assert_eq!(
                outcome_class(&result.outcome),
                outcome_class(&clean.outcome),
                "{kind:?}: confident under 25% faults but wrong"
            );
        }
    }
}

#[test]
fn shrinker_reduces_a_fault_schedule_to_the_guilty_indices() {
    // Synthetic differential: the "failure" depends on two specific
    // scheduled faults; ddmin over the schedule must isolate exactly
    // those, and the replay line must reproduce the failure.
    let plan = Faults::from_seed(0x5EED).flips(0.08).timeouts(0.04);
    let indices = plan.fault_indices(2_000);
    assert!(indices.len() > 20, "need a dense schedule to shrink");
    let guilty = [indices[3], indices[17]];
    let fails = |subset: &[u64]| {
        let restricted = plan.clone().restricted_to(subset.to_vec());
        guilty.iter().all(|g| restricted.fault_at(*g).is_some())
    };
    let minimal = shrink_indices(&indices, fails);
    assert_eq!(minimal, guilty.to_vec());
    // Replay: restricting to the line's indices still fails.
    let line = replay_line(plan.seed(), &minimal);
    let (seed, replayed) = common::shrink::parse_replay(&line).expect("well-formed line");
    assert_eq!(seed, plan.seed());
    assert!(fails(&replayed), "replay line must reproduce the failure");
}
