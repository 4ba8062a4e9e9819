//! Property battery for policy-aware eviction sets: every constructed
//! set must be *sound* (the reference simulator confirms the target is
//! evicted) and *minimal* (dropping any single access leaves the target
//! resident), across the differential corpus — permutation-class kinds
//! plan over their derived spec, the automata-only kinds over their
//! template or learned Mealy machine — plus honest refusals for the
//! stochastic kinds and the group-testing reduction for black-box
//! candidate supersets.

use cachekit::core::attack::{
    eviction_set_for_finding, eviction_set_for_kind, reduce_candidates, AttackError, EvictionSet,
};
use cachekit::core::infer::{
    AutomataEngine, CacheOracle, Finding, Geometry, InferenceConfig, InferenceEngine,
    InferenceRequest, SimOracle,
};
use cachekit::policies::PolicyKind;
use cachekit::sim::{Cache, CacheConfig};

/// Congruence stride of set 0 in the test geometry (16 sets × 64 B).
const STRIDE: u64 = 16 * 64;

/// Release builds run the full matrix. Debug builds — the tier-1
/// `cargo test -q` gate — trim the machine-backed kinds to the
/// associativities whose templates build in milliseconds (the same
/// trade `tests/automata_differential.rs` documents); `ci.sh` re-runs
/// the suite at release optimisation with the full matrix.
const FULL: bool = !cfg!(debug_assertions);

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

/// Associativities an eviction set is checked at. Permutation-class
/// kinds plan over the derived spec (cheap at any associativity); the
/// rest plan over a reference machine whose quotient state space grows
/// steeply with ways, so those are scaled down — not silently thinned:
/// the scaled matrix still proves the construction on every kind.
fn assocs_for(kind: PolicyKind) -> &'static [usize] {
    let machine_backed = matches!(
        kind,
        PolicyKind::BitPlru | PolicyKind::Nru | PolicyKind::Clock | PolicyKind::Srrip { .. }
    );
    if !machine_backed {
        &[4, 8, 16]
    } else if FULL {
        match kind {
            PolicyKind::Nru => &[4, 8, 16],
            // CLOCK's hand pointer multiplies the minimized machine
            // past the learned-template state cap at 16 ways (NRU
            // without the hand still fits): plan it at 4 and 8.
            _ => &[4, 8],
        }
    } else {
        match kind {
            PolicyKind::Nru | PolicyKind::Clock => &[4, 8],
            _ => &[4],
        }
    }
}

/// Soundness: after preparation, the constructed accesses evict the
/// target. Minimality: dropping any one access leaves it resident.
fn assert_sound_and_minimal(set: &EvictionSet, oracle: &mut SimOracle, label: &str) {
    assert!(
        set.confirms_on(oracle),
        "{label}: constructed set does not evict the target ({set:?})"
    );
    assert_eq!(
        set.attacker_misses + set.attacker_hits,
        set.accesses.len(),
        "{label}: hit/miss accounting disagrees with the sequence"
    );
    for drop in 0..set.accesses.len() {
        let mut warmup = set.preparation.clone();
        warmup.extend(
            set.accesses
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &a)| a),
        );
        assert_eq!(
            oracle.measure(&warmup, &[set.target]),
            0,
            "{label}: dropping access {drop} still evicts — the set is not minimal"
        );
    }
}

/// Every deterministic differential kind yields a sound, minimal
/// eviction set from its own model — permutation spec or reference
/// machine — verified against the real simulator, never the model.
#[test]
fn eviction_sets_are_sound_and_minimal_across_the_differential_corpus() {
    let mut checked = 0;
    for kind in PolicyKind::differential_kinds() {
        if !kind.is_deterministic() {
            continue;
        }
        for &assoc in assocs_for(kind) {
            if kind.validate_for_assoc(assoc).is_err() {
                continue;
            }
            let label = format!("{} A={assoc}", kind.label());
            let set = eviction_set_for_kind(kind, assoc, STRIDE)
                .unwrap_or_else(|e| panic!("{label}: construction failed: {e}"));
            assert!(!set.is_empty(), "{label}: empty eviction sequence");
            // Sanity ceiling: no deterministic kind in the corpus needs
            // more than one full sweep per way.
            assert!(
                set.len() <= assoc * assoc,
                "{label}: suspiciously long sequence ({})",
                set.len()
            );
            let mut oracle = oracle_for(kind, assoc);
            assert_sound_and_minimal(&set, &mut oracle, &label);
            checked += 1;
        }
    }
    let floor = if FULL { 26 } else { 23 };
    assert!(checked >= floor, "matrix too thin: {checked} cases");
}

/// Known tight bounds pin the construction quality: an LRU or FIFO
/// target needs a full-associativity sweep; tree-PLRU falls in
/// `log2(assoc) + 1` accesses (steer every tree level at the target
/// with hits, then one miss — the classic PLRU weakness); LIP's
/// LRU-insertion leaves a fresh target on the chopping block — one
/// access evicts it.
#[test]
fn eviction_set_lengths_match_policy_theory() {
    for assoc in [4usize, 8, 16] {
        let lru = eviction_set_for_kind(PolicyKind::Lru, assoc, STRIDE).expect("lru");
        assert_eq!(lru.len(), assoc, "LRU A={assoc}: length");
        let fifo = eviction_set_for_kind(PolicyKind::Fifo, assoc, STRIDE).expect("fifo");
        assert_eq!(fifo.len(), assoc, "FIFO A={assoc}: length");
        let plru = eviction_set_for_kind(PolicyKind::TreePlru, assoc, STRIDE).expect("plru");
        assert_eq!(
            plru.len(),
            assoc.ilog2() as usize + 1,
            "PLRU A={assoc}: length"
        );
        let lip = eviction_set_for_kind(PolicyKind::Lip, assoc, STRIDE).expect("lip");
        assert_eq!(
            lip.len(),
            1,
            "LIP A={assoc}: a fresh target dies in one miss"
        );
    }
}

/// Stochastic kinds refuse construction honestly: no bounded sequence
/// is guaranteed to evict, and the error says so instead of emitting a
/// sequence that usually works.
#[test]
fn stochastic_kinds_refuse_guaranteed_eviction_sets() {
    let mut refused = 0;
    for kind in PolicyKind::differential_kinds() {
        if kind.is_deterministic() {
            continue;
        }
        for assoc in [4usize, 8, 16] {
            match eviction_set_for_kind(kind, assoc, STRIDE) {
                Err(AttackError::NotDeterministic { policy }) => {
                    assert_eq!(policy, kind.label(), "error names the wrong policy")
                }
                other => panic!(
                    "{} A={assoc}: expected refusal, got {other:?}",
                    kind.label()
                ),
            }
            refused += 1;
        }
    }
    assert_eq!(refused, 9, "three stochastic kinds at three ways each");
}

/// The automata-only hidden policies — the kinds the permutation
/// formalism must reject — still yield sound, minimal eviction sets
/// when planned over a machine *learned* from the black-box oracle,
/// exactly the evidence a real campaign would hold. QLRU-1 runs at
/// assoc 2 for the same learning-cost reason as the differential suite.
#[test]
fn learned_machines_yield_sound_and_minimal_eviction_sets() {
    let engine = AutomataEngine::default();
    let mut covered = Vec::new();
    for kind in PolicyKind::non_permutation_kinds() {
        let assoc = match kind {
            PolicyKind::Qlru { .. } => 2,
            _ => 4,
        };
        if !FULL
            && matches!(
                kind,
                PolicyKind::BitPlru | PolicyKind::Srrip { .. } | PolicyKind::Qlru { .. }
            )
        {
            continue;
        }
        let config = InferenceConfig::builder()
            .repetitions(3)
            .max_repetitions(24)
            .seed(0xE51C7)
            .build()
            .expect("valid config");
        let mut oracle = oracle_for(kind, assoc);
        let report = engine.infer(
            &mut oracle,
            &InferenceRequest::new(geometry_for(assoc), config),
        );
        let Some(finding @ Finding::Automaton(_)) = report.finding() else {
            panic!("{}: learning failed: {report:?}", kind.label());
        };
        let set = eviction_set_for_finding(finding, STRIDE)
            .unwrap_or_else(|e| panic!("{}: construction failed: {e}", kind.label()));
        let label = format!("{} A={assoc} (learned)", kind.label());
        assert_sound_and_minimal(&set, &mut oracle_for(kind, assoc), &label);
        covered.push(kind.label());
    }
    let bar = if FULL { 5 } else { 2 };
    assert!(
        covered.len() >= bar,
        "learned battery must cover at least {bar} kinds: {covered:?}"
    );
}

/// Group testing reduces a large congruent candidate superset to
/// exactly `assoc` lines that still evict the target — the black-box
/// path when no model is available, only an oracle.
#[test]
fn group_testing_reduces_candidate_supersets() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru] {
        for assoc in [4usize, 8] {
            let candidates: Vec<u64> = (1..=(3 * assoc as u64 + 5)).map(|i| i * STRIDE).collect();
            let mut oracle = oracle_for(kind, assoc);
            let reduced = reduce_candidates(&mut oracle, 0, &candidates, assoc)
                .unwrap_or_else(|e| panic!("{} A={assoc}: {e}", kind.label()));
            assert_eq!(reduced.len(), assoc, "{} A={assoc}: size", kind.label());
            let mut warmup = vec![0u64];
            warmup.extend_from_slice(&reduced);
            assert_eq!(
                oracle.measure(&warmup, &[0]),
                1,
                "{} A={assoc}: reduced set does not evict",
                kind.label()
            );
        }
    }
}

/// Candidates that also hold lines of another set reduce to exactly the
/// congruent lines. Here every pair of neighbouring candidates holds a
/// congruent line, so a split into fixed-size pairs finds no part to
/// drop; the split into `assoc + 1` parts always leaves one.
#[test]
fn group_testing_drops_lines_of_other_sets() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru] {
        for assoc in [4usize, 8] {
            let congruent: Vec<u64> = (1..=assoc as u64).map(|i| i * STRIDE).collect();
            // Two lines of set 1: one after the first congruent line,
            // one at the end.
            let mut candidates = congruent.clone();
            candidates.insert(1, STRIDE + 64);
            candidates.push(2 * STRIDE + 64);
            let mut oracle = oracle_for(kind, assoc);
            let reduced = reduce_candidates(&mut oracle, 0, &candidates, assoc)
                .unwrap_or_else(|e| panic!("{} A={assoc}: {e}", kind.label()));
            assert_eq!(reduced, congruent, "{} A={assoc}", kind.label());
        }
    }
}

/// The reduction's honest limit: LIP inserts at the LRU position, so a
/// once-each candidate sweep never displaces an established target and
/// the reduction reports failure instead of looping or guessing.
#[test]
fn group_testing_reports_unreducible_channels() {
    let mut oracle = oracle_for(PolicyKind::Lip, 4);
    let candidates: Vec<u64> = (1..=17u64).map(|i| i * STRIDE).collect();
    match reduce_candidates(&mut oracle, 0, &candidates, 4) {
        Err(AttackError::ReductionFailed { reason }) => {
            assert!(
                reason.contains("does not evict"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected ReductionFailed, got {other:?}"),
    }
    // Too few candidates to ever cover the ways is also an error.
    assert!(matches!(
        reduce_candidates(&mut oracle_for(PolicyKind::Lru, 4), 0, &[STRIDE], 4),
        Err(AttackError::ReductionFailed { .. })
    ));
}
