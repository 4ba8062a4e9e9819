//! Empirical relative competitiveness of replacement policies.
//!
//! The authors' companion line of work (relative competitive analysis)
//! asks: in the worst case, how many times more misses does policy `P`
//! take than policy `Q` on the *same* access sequence? This module
//! estimates that ratio empirically — a lower bound on the true
//! competitive ratio — by driving both policies over a family of
//! adversarially structured random sequences on a single set and keeping
//! the worst observed quotient.
//!
//! An empirical bound is the honest scope here: the exact ratio requires
//! a maximum-ratio-cycle analysis over the product automaton, which
//! explodes for stack-based policies; the estimate already reproduces
//! the qualitative facts (a policy is 1-competitive against itself,
//! PLRU ≈ LRU, FIFO strictly worse than LRU somewhere, and vice versa).

use cachekit_policies::rng::Prng;
use cachekit_policies::{PolicyState, ReplacementPolicy};
use cachekit_sim::CacheSet;

/// Result of an empirical competitiveness estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitiveEstimate {
    /// Worst observed `misses(P) / misses(Q)` (≥ 0; ∞-free because the
    /// adversarial family always produces some misses under `Q`).
    pub max_ratio: f64,
    /// Seed of the worst sequence (replay with
    /// [`adversarial_sequence`]).
    pub witness_seed: u64,
    /// Sequences tried.
    pub trials: usize,
}

/// The adversarial sequence family: random walks over a small block
/// universe with bursts of re-use and bursts of fresh blocks — the mix
/// that separates recency-, insertion- and tree-based policies.
pub fn adversarial_sequence(assoc: usize, len: usize, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    let universe = (assoc as u64) + 1 + rng.gen_range(0..=assoc as u64);
    let mut seq = Vec::with_capacity(len);
    while seq.len() < len {
        match rng.gen_range(0..3) {
            // A burst of reuse around a hot block.
            0 => {
                let hot = rng.gen_range(0..universe);
                for _ in 0..rng.gen_range(1..=assoc) {
                    seq.push(hot);
                    seq.push(rng.gen_range(0..universe));
                }
            }
            // A scan segment.
            1 => {
                let start = rng.gen_range(0..universe);
                for i in 0..rng.gen_range(1..=2 * assoc as u64) {
                    seq.push((start + i) % universe);
                }
            }
            // Pure noise.
            _ => seq.push(rng.gen_range(0..universe)),
        }
    }
    seq.truncate(len);
    seq
}

fn misses_on(policy: &dyn ReplacementPolicy, seq: &[u64]) -> u64 {
    let mut set = CacheSet::from_state(PolicyState::from_boxed(policy.boxed_clone()));
    seq.iter().filter(|&&b| set.access_tag(b).is_miss()).count() as u64
}

/// Estimate the relative competitiveness of `p` against `q` (same
/// associativity): the worst `misses(p) / misses(q)` over `trials`
/// adversarial sequences.
///
/// # Panics
///
/// Panics if the associativities differ or `trials` is zero.
pub fn competitiveness(
    p: &dyn ReplacementPolicy,
    q: &dyn ReplacementPolicy,
    trials: usize,
    seed: u64,
) -> CompetitiveEstimate {
    assert_eq!(
        p.associativity(),
        q.associativity(),
        "policies must have equal associativity"
    );
    assert!(trials > 0, "need at least one trial");
    let assoc = p.associativity();
    let len = 60 * assoc;
    let mut best = CompetitiveEstimate {
        max_ratio: 0.0,
        witness_seed: seed,
        trials,
    };
    for t in 0..trials {
        let s = seed.wrapping_add(t as u64);
        let seq = adversarial_sequence(assoc, len, s);
        let mp = misses_on(p, &seq) as f64;
        let mq = misses_on(q, &seq) as f64;
        // Cold misses are shared; every sequence exceeds the universe, so
        // mq >= assoc + 1 > 0 always.
        let ratio = mp / mq;
        if ratio > best.max_ratio {
            best.max_ratio = ratio;
            best.witness_seed = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::{PolicyKind, TreePlru};

    #[test]
    fn a_policy_is_exactly_one_competitive_against_itself() {
        let e = competitiveness(
            &PolicyKind::Lru.build_state(4, 0),
            &PolicyKind::Lru.build_state(4, 0),
            50,
            1,
        );
        assert!((e.max_ratio - 1.0).abs() < 1e-12, "{e:?}");
    }

    #[test]
    fn fifo_loses_to_lru_somewhere_and_vice_versa() {
        let f_vs_l = competitiveness(
            &PolicyKind::Fifo.build_state(4, 0),
            &PolicyKind::Lru.build_state(4, 0),
            200,
            2,
        );
        let l_vs_f = competitiveness(
            &PolicyKind::Lru.build_state(4, 0),
            &PolicyKind::Fifo.build_state(4, 0),
            200,
            2,
        );
        assert!(f_vs_l.max_ratio > 1.05, "{f_vs_l:?}");
        assert!(l_vs_f.max_ratio > 1.0, "{l_vs_f:?}");
    }

    #[test]
    fn plru_stays_close_to_lru() {
        let e = competitiveness(
            &TreePlru::new(4),
            &PolicyKind::Lru.build_state(4, 0),
            200,
            3,
        );
        assert!(e.max_ratio >= 1.0);
        assert!(e.max_ratio < 2.0, "PLRU should track LRU: {e:?}");
    }

    #[test]
    fn witnesses_replay() {
        let e = competitiveness(
            &PolicyKind::Fifo.build_state(4, 0),
            &PolicyKind::Lru.build_state(4, 0),
            100,
            7,
        );
        let seq = adversarial_sequence(4, 60 * 4, e.witness_seed);
        let ratio = misses_on(&PolicyKind::Fifo.build_state(4, 0), &seq) as f64
            / misses_on(&PolicyKind::Lru.build_state(4, 0), &seq) as f64;
        assert!((ratio - e.max_ratio).abs() < 1e-12);
    }

    #[test]
    fn lazy_lru_is_nearly_lru_competitive() {
        let e = competitiveness(
            &PolicyKind::LazyLru.build_state(8, 0),
            &PolicyKind::Lru.build_state(8, 0),
            100,
            9,
        );
        assert!(e.max_ratio < 1.5, "{e:?}");
    }

    #[test]
    fn sequences_are_reproducible_and_bounded() {
        let a = adversarial_sequence(4, 100, 5);
        let b = adversarial_sequence(4, 100, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x < 9));
    }
}
