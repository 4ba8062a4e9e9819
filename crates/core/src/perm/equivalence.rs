//! Observational equivalence of replacement policies.
//!
//! Two policies are *observationally equivalent* on a set if, for every
//! access sequence over a block universe, they produce the same hit/miss
//! outcomes and evict the same blocks. Because both machines are finite
//! (finitely many policy states × finitely many content arrangements over
//! a finite universe), equivalence over all infinite sequences reduces to
//! a product-state search — a bisimulation check.

use cachekit_policies::{PolicyState, ReplacementPolicy};
use cachekit_sim::{AccessOutcome, CacheSet};
use std::collections::HashSet;

/// A diverging access sequence found by [`equivalent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The block accesses leading to (and including) the divergence.
    pub accesses: Vec<u64>,
    /// Outcome of the final access on the first policy.
    pub outcome_a: String,
    /// Outcome of the final access on the second policy.
    pub outcome_b: String,
}

/// Result of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// All reachable product states agree.
    Equivalent {
        /// Number of product states explored.
        states: usize,
    },
    /// The policies diverge on the returned access sequence.
    Diverges(Counterexample),
    /// The search hit the state budget before finishing.
    Inconclusive {
        /// Number of product states explored before giving up.
        states: usize,
    },
}

impl EquivalenceResult {
    /// Whether the result proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent { .. })
    }
}

fn outcome_str(o: &AccessOutcome) -> String {
    match o {
        AccessOutcome::Hit => "hit".to_owned(),
        AccessOutcome::Miss { evicted: None } => "miss".to_owned(),
        AccessOutcome::Miss { evicted: Some(t) } => format!("miss evicting {t}"),
    }
}

/// Contents plus policy state of one machine.
type MachineKey = (Vec<Option<u64>>, Vec<u8>);

/// Joint state key: contents (block per way — the way arrangement matters
/// to the machines, so keep it as-is) plus the policy state key, for both
/// machines.
fn joint_key(a: &CacheSet, b: &CacheSet) -> (MachineKey, MachineKey) {
    let contents = |s: &CacheSet| -> Vec<Option<u64>> {
        (0..s.associativity()).map(|w| s.tag_in_way(w)).collect()
    };
    (
        (contents(a), a.policy().state_key()),
        (contents(b), b.policy().state_key()),
    )
}

/// Exhaustively check observational equivalence of two policies over a
/// block universe of `universe` ids, exploring at most `max_states`
/// product states.
///
/// Both policies must have the same associativity.
///
/// # Panics
///
/// Panics if the associativities differ or `universe` is zero.
pub fn equivalent(
    a: &dyn ReplacementPolicy,
    b: &dyn ReplacementPolicy,
    universe: u64,
    max_states: usize,
) -> EquivalenceResult {
    assert_eq!(
        a.associativity(),
        b.associativity(),
        "policies must have equal associativity"
    );
    assert!(universe > 0, "universe must be nonempty");

    let mut visited = HashSet::new();
    // DFS stack of (setA, setB, access path so far).
    let mut stack = vec![(
        CacheSet::from_state(PolicyState::from_boxed(a.boxed_clone())),
        CacheSet::from_state(PolicyState::from_boxed(b.boxed_clone())),
        Vec::<u64>::new(),
    )];
    visited.insert(joint_key(&stack[0].0, &stack[0].1));

    while let Some((sa, sb, path)) = stack.pop() {
        for block in 0..universe {
            let mut na = sa.clone();
            let mut nb = sb.clone();
            let oa = na.access_tag(block);
            let ob = nb.access_tag(block);
            let mut npath = path.clone();
            npath.push(block);
            if oa != ob {
                return EquivalenceResult::Diverges(Counterexample {
                    accesses: npath,
                    outcome_a: outcome_str(&oa),
                    outcome_b: outcome_str(&ob),
                });
            }
            let key = joint_key(&na, &nb);
            if visited.insert(key) {
                if visited.len() > max_states {
                    return EquivalenceResult::Inconclusive {
                        states: visited.len(),
                    };
                }
                stack.push((na, nb, npath));
            }
        }
    }
    EquivalenceResult::Equivalent {
        states: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::{PermutationPolicy, PermutationSpec};
    use cachekit_policies::PolicyKind;

    fn state(kind: PolicyKind, assoc: usize) -> PolicyState {
        kind.build_state(assoc, 0)
    }

    #[test]
    fn stack_kinds_equal_their_permutation_specs() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Lip,
            PolicyKind::LazyLru,
            PolicyKind::Slru { protected: 1 },
        ] {
            let spec = PermutationSpec::for_kind(kind, 3).unwrap();
            let perm = PermutationPolicy::new(spec);
            let r = equivalent(&state(kind, 3), &perm, 5, 500_000);
            assert!(r.is_equivalent(), "{kind:?}: {r:?}");
        }
    }

    #[test]
    fn lru_differs_from_fifo_with_counterexample() {
        let lru = state(PolicyKind::Lru, 2);
        let fifo = state(PolicyKind::Fifo, 2);
        match equivalent(&lru, &fifo, 3, 100_000) {
            EquivalenceResult::Diverges(cex) => {
                // Replay the counterexample to confirm it is real.
                let mut sa = CacheSet::from_state(lru.clone());
                let mut sb = CacheSet::from_state(fifo.clone());
                let n = cex.accesses.len();
                for (i, &blk) in cex.accesses.iter().enumerate() {
                    let oa = sa.access_tag(blk);
                    let ob = sb.access_tag(blk);
                    if i + 1 == n {
                        assert_ne!(oa, ob, "counterexample does not diverge");
                    } else {
                        assert_eq!(oa, ob, "divergence before the last access");
                    }
                }
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn lazy_lru_assoc2_equals_lru() {
        let r = equivalent(
            &state(PolicyKind::LazyLru, 2),
            &state(PolicyKind::Lru, 2),
            4,
            100_000,
        );
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn lazy_lru_assoc4_differs_from_lru() {
        let r = equivalent(
            &state(PolicyKind::LazyLru, 4),
            &state(PolicyKind::Lru, 4),
            6,
            500_000,
        );
        assert!(matches!(r, EquivalenceResult::Diverges(_)), "{r:?}");
    }

    #[test]
    fn plru_two_way_equals_lru() {
        let r = equivalent(
            &state(PolicyKind::TreePlru, 2),
            &state(PolicyKind::Lru, 2),
            4,
            100_000,
        );
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn plru_four_way_differs_from_lru() {
        let r = equivalent(
            &state(PolicyKind::TreePlru, 4),
            &state(PolicyKind::Lru, 4),
            6,
            500_000,
        );
        assert!(matches!(r, EquivalenceResult::Diverges(_)), "{r:?}");
    }

    #[test]
    fn tiny_budget_is_inconclusive() {
        let r = equivalent(&state(PolicyKind::Lru, 4), &state(PolicyKind::Lru, 4), 6, 3);
        assert!(matches!(r, EquivalenceResult::Inconclusive { .. }), "{r:?}");
    }
}
