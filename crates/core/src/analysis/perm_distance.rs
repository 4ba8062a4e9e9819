//! Specialized predictability solvers for permutation policies.
//!
//! A permutation policy's behaviour depends only on the *positions* of
//! blocks in the priority order, never on physical way indices. The
//! evict/mls games therefore quotient by way renaming: instead of
//! `|states| × 2^A` nodes (which explodes for LRU, whose state space is
//! all `A!` orders), the abstract game runs on per-position flags —
//! `2^A` nodes for `evict`, at most `3^A` for `mls` — making the metrics
//! computable for the associativities the fleet actually has (8, 16, 24).
//!
//! The generic solvers in [`crate::analysis::distance`] remain the ground
//! truth; the test-suite cross-checks the two on small associativities.

use crate::analysis::DistanceError;
use crate::perm::PermutationSpec;
use std::collections::HashMap;

/// Node value during the longest-path computation.
#[derive(Clone, Copy)]
enum Value {
    OnStack,
    Done(usize),
}

/// `evict(P)` for a permutation policy (see
/// [`evict_distance`](crate::analysis::evict_distance) for the
/// definition). The abstract game state is one bit per *position*:
/// whether the block there is known to come from the access sequence.
///
/// # Errors
///
/// [`DistanceError::Unbounded`] when the adversary can stall forever
/// (e.g. LIP), [`DistanceError::TooLarge`] when `2^A` exceeds the budget.
pub fn evict_distance_spec(
    spec: &PermutationSpec,
    max_nodes: usize,
) -> Result<usize, DistanceError> {
    let assoc = spec.associativity();
    if 1usize
        .checked_shl(assoc as u32)
        .is_none_or(|n| n > max_nodes)
    {
        return Err(DistanceError::TooLarge {
            explored: max_nodes,
        });
    }

    fn solve(
        spec: &PermutationSpec,
        known: &[bool],
        memo: &mut HashMap<Vec<bool>, Value>,
    ) -> Result<usize, DistanceError> {
        if known.iter().all(|&k| k) {
            return Ok(0);
        }
        match memo.get(known) {
            Some(Value::Done(v)) => return Ok(*v),
            Some(Value::OnStack) => return Err(DistanceError::Unbounded),
            None => {}
        }
        memo.insert(known.to_vec(), Value::OnStack);

        let mut best = 0usize;
        // Miss: the last position is evicted, a known block is inserted.
        {
            let mut next = known.to_vec();
            spec.apply_miss(&mut next, true);
            best = best.max(solve(spec, &next, memo)?);
        }
        // Hit on any unknown position: it becomes known, then permutes.
        for i in 0..known.len() {
            if !known[i] {
                let mut next = known.to_vec();
                next[i] = true;
                spec.apply_hit(&mut next, i);
                best = best.max(solve(spec, &next, memo)?);
            }
        }
        let value = best + 1;
        memo.insert(known.to_vec(), Value::Done(value));
        Ok(value)
    }

    let mut memo = HashMap::new();
    solve(spec, &vec![false; assoc], &mut memo)
}

/// Per-position cell of the abstract `mls` game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    /// The line whose life span is being measured.
    Target,
    /// A line the adversary may still hit (distinctness not yet spent).
    Armed,
    /// A line already hit since its last fill.
    Exhausted,
}

/// `mls(P)` for a permutation policy (see
/// [`minimal_lifespan`](crate::analysis::minimal_lifespan)).
///
/// # Errors
///
/// [`DistanceError::TooLarge`] when the `3^A` node space exceeds the
/// budget or the search exhausts without evicting the target.
pub fn minimal_lifespan_spec(
    spec: &PermutationSpec,
    max_nodes: usize,
) -> Result<usize, DistanceError> {
    use std::collections::{HashSet, VecDeque};

    let assoc = spec.associativity();
    if 3usize
        .checked_pow(assoc as u32)
        .is_none_or(|n| n > max_nodes)
    {
        return Err(DistanceError::TooLarge {
            explored: max_nodes,
        });
    }

    // Start: a full set of adversary lines, then the target misses in.
    let mut start = vec![Cell::Armed; assoc];
    spec.apply_miss(&mut start, Cell::Target);

    let mut queue: VecDeque<(Vec<Cell>, usize)> = VecDeque::new();
    let mut seen: HashSet<Vec<Cell>> = HashSet::new();
    seen.insert(start.clone());
    queue.push_back((start, 0));

    while let Some((state, depth)) = queue.pop_front() {
        // Move 1: fresh miss (a new armed adversary line).
        {
            let mut next = state.clone();
            let evicted = spec.apply_miss(&mut next, Cell::Armed);
            if evicted == Cell::Target {
                return Ok(depth + 1);
            }
            if seen.insert(next.clone()) {
                queue.push_back((next, depth + 1));
            }
        }
        // Move 2: hit an armed, non-target position.
        for i in 0..assoc {
            if state[i] != Cell::Armed {
                continue;
            }
            let mut next = state.clone();
            next[i] = Cell::Exhausted;
            spec.apply_hit(&mut next, i);
            if seen.insert(next.clone()) {
                queue.push_back((next, depth + 1));
            }
        }
    }
    Err(DistanceError::TooLarge {
        explored: seen.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{evict_distance, minimal_lifespan};
    use crate::perm::derive_permutation_spec;
    use cachekit_policies::{PolicyKind, TreePlru};

    const BUDGET: usize = 4_000_000;

    #[test]
    fn evict_spec_matches_generic_solver_on_small_assoc() {
        for assoc in [1usize, 2, 3, 4] {
            let lru = evict_distance_spec(
                &PermutationSpec::for_kind(PolicyKind::Lru, assoc).unwrap(),
                BUDGET,
            )
            .unwrap();
            assert_eq!(
                lru,
                evict_distance(&PolicyKind::Lru.build_state(assoc, 0), BUDGET).unwrap()
            );
            let fifo = evict_distance_spec(
                &PermutationSpec::for_kind(PolicyKind::Fifo, assoc).unwrap(),
                BUDGET,
            )
            .unwrap();
            assert_eq!(
                fifo,
                evict_distance(&PolicyKind::Fifo.build_state(assoc, 0), BUDGET).unwrap()
            );
        }
        let plru4 = derive_permutation_spec(Box::new(TreePlru::new(4))).unwrap();
        assert_eq!(
            evict_distance_spec(&plru4, BUDGET).unwrap(),
            evict_distance(&TreePlru::new(4), BUDGET).unwrap()
        );
    }

    #[test]
    fn mls_spec_matches_generic_solver_on_small_assoc() {
        for assoc in [2usize, 3, 4] {
            let lru = minimal_lifespan_spec(
                &PermutationSpec::for_kind(PolicyKind::Lru, assoc).unwrap(),
                BUDGET,
            )
            .unwrap();
            assert_eq!(
                lru,
                minimal_lifespan(&PolicyKind::Lru.build_state(assoc, 0), BUDGET).unwrap()
            );
        }
        let plru4 = derive_permutation_spec(Box::new(TreePlru::new(4))).unwrap();
        assert_eq!(
            minimal_lifespan_spec(&plru4, BUDGET).unwrap(),
            minimal_lifespan(&TreePlru::new(4), BUDGET).unwrap()
        );
        let lazy =
            derive_permutation_spec(Box::new(PolicyKind::LazyLru.build_state(4, 0))).unwrap();
        assert_eq!(
            minimal_lifespan_spec(&lazy, BUDGET).unwrap(),
            minimal_lifespan(&PolicyKind::LazyLru.build_state(4, 0), BUDGET).unwrap()
        );
    }

    #[test]
    fn lru_distances_scale_to_large_assoc() {
        for assoc in [8usize, 16] {
            assert_eq!(
                evict_distance_spec(
                    &PermutationSpec::for_kind(PolicyKind::Lru, assoc).unwrap(),
                    BUDGET
                )
                .unwrap(),
                assoc
            );
        }
        // The mls game has 3^A nodes, so it scales a little less far.
        for assoc in [8usize, 12] {
            assert_eq!(
                minimal_lifespan_spec(
                    &PermutationSpec::for_kind(PolicyKind::Lru, assoc).unwrap(),
                    BUDGET
                )
                .unwrap(),
                assoc
            );
        }
        assert!(matches!(
            minimal_lifespan_spec(
                &PermutationSpec::for_kind(PolicyKind::Lru, 16).unwrap(),
                BUDGET
            ),
            Err(DistanceError::TooLarge { .. })
        ));
    }

    #[test]
    fn plru8_matches_closed_forms() {
        let plru8 = derive_permutation_spec(Box::new(TreePlru::new(8))).unwrap();
        // evict(PLRU) = A/2 * log2(A) + 1; mls(PLRU) = log2(A) + 1.
        assert_eq!(evict_distance_spec(&plru8, BUDGET).unwrap(), 13);
        assert_eq!(minimal_lifespan_spec(&plru8, BUDGET).unwrap(), 4);
    }

    #[test]
    fn lip_is_unbounded_and_fragile() {
        assert_eq!(
            evict_distance_spec(
                &PermutationSpec::for_kind(PolicyKind::Lip, 4).unwrap(),
                BUDGET
            ),
            Err(DistanceError::Unbounded)
        );
        // A LIP line is inserted at the victim position: dead in one miss.
        assert_eq!(
            minimal_lifespan_spec(
                &PermutationSpec::for_kind(PolicyKind::Lip, 4).unwrap(),
                BUDGET
            )
            .unwrap(),
            1
        );
    }

    #[test]
    fn budget_is_respected() {
        assert!(matches!(
            evict_distance_spec(
                &PermutationSpec::for_kind(PolicyKind::Lru, 24).unwrap(),
                1000
            ),
            Err(DistanceError::TooLarge { .. })
        ));
    }
}
