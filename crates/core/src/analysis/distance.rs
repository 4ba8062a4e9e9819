//! Exact computation of the `evict` and `mls` predictability metrics.

use crate::analysis::{reachable_states, ReachabilityError};
use cachekit_policies::ReplacementPolicy;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why a distance could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistanceError {
    /// The policy is stochastic.
    NonDeterministic,
    /// The game graph exceeds the state budget.
    TooLarge {
        /// Nodes explored before giving up.
        explored: usize,
    },
    /// No finite bound exists: an adversary can keep the target resident
    /// (for `evict`) forever. LIP is the canonical example — distinct
    /// fresh accesses never displace a protected line.
    Unbounded,
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::NonDeterministic => write!(f, "policy is stochastic"),
            DistanceError::TooLarge { explored } => {
                write!(f, "game graph exceeds budget ({explored} nodes)")
            }
            DistanceError::Unbounded => write!(f, "no finite bound exists"),
        }
    }
}

impl Error for DistanceError {}

impl From<ReachabilityError> for DistanceError {
    fn from(e: ReachabilityError) -> Self {
        match e {
            ReachabilityError::NonDeterministic => DistanceError::NonDeterministic,
            ReachabilityError::TooLarge { explored } => DistanceError::TooLarge { explored },
        }
    }
}

/// Node value during the longest-path computation.
#[derive(Clone, Copy)]
enum Value {
    OnStack,
    Done(usize),
}

/// `evict(P)`: the smallest `n` such that accessing `n` pairwise-distinct
/// fresh blocks is guaranteed to leave the set holding only those blocks,
/// for **every** initial state and **every** initial content (the
/// adversary decides which accesses secretly hit).
///
/// Computed as the longest adversary path in the game over
/// (policy state, set of ways known to hold sequence blocks): each access
/// either misses (the victim way becomes known) or — if any way is still
/// unknown — hits one of the unknown ways (which becomes known).
///
/// Classic values reproduced by this solver: `evict(LRU) = A`,
/// `evict(FIFO) = 2A - 1`; LIP is unbounded.
///
/// # Errors
///
/// See [`DistanceError`].
pub fn evict_distance(
    policy: &dyn ReplacementPolicy,
    max_nodes: usize,
) -> Result<usize, DistanceError> {
    let assoc = policy.associativity();
    assert!(assoc <= 128, "mask width");
    let full: u128 = if assoc == 128 {
        u128::MAX
    } else {
        (1u128 << assoc) - 1
    };
    let starts = reachable_states(policy, max_nodes)?;
    // The game graph has |states| x 2^A nodes; refuse upfront rather than
    // grinding through a search that cannot fit the budget.
    let projected = starts.len().saturating_mul(
        1usize
            .checked_shl(assoc.min(63) as u32)
            .unwrap_or(usize::MAX),
    );
    if projected > max_nodes {
        return Err(DistanceError::TooLarge {
            explored: projected,
        });
    }

    // Memo keys are flat byte strings — the policy's state key (written
    // without an intermediate allocation) followed by the mask — so
    // hashing walks one contiguous buffer instead of a (Vec, u128) tuple.
    let mut memo: HashMap<Vec<u8>, Value> = HashMap::new();

    fn solve(
        p: &dyn ReplacementPolicy,
        mask: u128,
        full: u128,
        assoc: usize,
        memo: &mut HashMap<Vec<u8>, Value>,
        max_nodes: usize,
    ) -> Result<usize, DistanceError> {
        if mask == full {
            return Ok(0);
        }
        let mut key = Vec::with_capacity(assoc + 16);
        p.write_state_key(&mut key);
        key.extend_from_slice(&mask.to_le_bytes());
        match memo.get(key.as_slice()) {
            Some(Value::Done(v)) => return Ok(*v),
            Some(Value::OnStack) => return Err(DistanceError::Unbounded),
            None => {}
        }
        if memo.len() >= max_nodes {
            return Err(DistanceError::TooLarge {
                explored: memo.len(),
            });
        }
        memo.insert(key.clone(), Value::OnStack);

        let mut best = 0usize;
        // Adversary option 1: the access misses; the victim way fills
        // with a (known) sequence block.
        {
            let mut q = p.boxed_clone();
            let v = q.victim();
            q.on_fill(v);
            let sub = solve(
                q.as_ref(),
                mask | (1u128 << v),
                full,
                assoc,
                memo,
                max_nodes,
            )?;
            best = best.max(sub);
        }
        // Adversary option 2: the access hits an unknown way (its content
        // happened to be the accessed block, which is thereby revealed).
        for u in 0..assoc {
            if mask & (1u128 << u) == 0 {
                let mut q = p.boxed_clone();
                q.on_hit(u);
                let sub = solve(
                    q.as_ref(),
                    mask | (1u128 << u),
                    full,
                    assoc,
                    memo,
                    max_nodes,
                )?;
                best = best.max(sub);
            }
        }
        let value = best + 1;
        memo.insert(key, Value::Done(value));
        Ok(value)
    }

    let mut worst = 0usize;
    for s in &starts {
        let v = solve(s.as_ref(), 0, full, assoc, &mut memo, max_nodes)?;
        worst = worst.max(v);
    }
    Ok(worst)
}

/// `mls(P)`: the *minimal life span* — the smallest number of
/// pairwise-distinct accesses (none of them to the block itself) that can
/// evict a just-inserted block, minimised over initial states and over
/// the adversary's access choices.
///
/// The adversary may miss (fresh block) or hit a resident way other than
/// the target's; a way can only be hit again after an intervening refill
/// (hitting the same block twice would violate distinctness).
///
/// Classic values reproduced by this solver: `mls(LRU) = A`,
/// `mls(PLRU) = log2(A) + 1`.
///
/// # Errors
///
/// See [`DistanceError`]. `Unbounded` cannot occur here (a return value
/// is only produced once some branch evicts the target, and every policy
/// evicts *something*; if no branch ever evicts the target the search
/// exhausts its graph and reports `TooLarge`).
pub fn minimal_lifespan(
    policy: &dyn ReplacementPolicy,
    max_nodes: usize,
) -> Result<usize, DistanceError> {
    use std::collections::{HashSet, VecDeque};

    let assoc = policy.associativity();
    let starts = reachable_states(policy, max_nodes)?;
    // Node space: |states| x A targets x 2^A hit masks.
    let projected = starts.len().saturating_mul(assoc).saturating_mul(
        1usize
            .checked_shl(assoc.min(63) as u32)
            .unwrap_or(usize::MAX),
    );
    if projected > max_nodes {
        return Err(DistanceError::TooLarge {
            explored: projected,
        });
    }

    // BFS over (policy state, target way, hit-exhausted ways) from every
    // "target just inserted" state; the first move that evicts the target
    // wins. BFS depth = number of adversary accesses.
    //
    // Visited keys are flat byte strings (state key ++ target ++ mask),
    // composed in one scratch buffer that is only cloned when the node is
    // genuinely new — revisits, the common case, allocate nothing.
    let mut queue: VecDeque<(Box<dyn ReplacementPolicy>, usize, u128, usize)> = VecDeque::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut scratch: Vec<u8> = Vec::new();

    fn note_new(
        p: &dyn ReplacementPolicy,
        target: usize,
        hit_used: u128,
        scratch: &mut Vec<u8>,
        seen: &mut HashSet<Vec<u8>>,
    ) -> bool {
        scratch.clear();
        p.write_state_key(scratch);
        scratch.push(target as u8);
        scratch.extend_from_slice(&hit_used.to_le_bytes());
        if seen.contains(scratch.as_slice()) {
            false
        } else {
            seen.insert(scratch.clone());
            true
        }
    }

    for s in &starts {
        let mut p = s.boxed_clone();
        let target = p.victim();
        p.on_fill(target);
        if note_new(p.as_ref(), target, 0, &mut scratch, &mut seen) {
            queue.push_back((p, target, 0, 0));
        }
    }

    while let Some((p, target, hit_used, depth)) = queue.pop_front() {
        if seen.len() >= max_nodes {
            return Err(DistanceError::TooLarge {
                explored: seen.len(),
            });
        }
        // Move 1: a fresh miss.
        {
            let mut q = p.boxed_clone();
            let v = q.victim();
            if v == target {
                return Ok(depth + 1);
            }
            q.on_fill(v);
            let hu = hit_used & !(1u128 << v); // refill re-arms the way
            if note_new(q.as_ref(), target, hu, &mut scratch, &mut seen) {
                queue.push_back((q, target, hu, depth + 1));
            }
        }
        // Move 2: hit a non-target, non-exhausted way.
        for u in 0..assoc {
            if u == target || hit_used & (1u128 << u) != 0 {
                continue;
            }
            let mut q = p.boxed_clone();
            q.on_hit(u);
            let hu = hit_used | (1u128 << u);
            if note_new(q.as_ref(), target, hu, &mut scratch, &mut seen) {
                queue.push_back((q, target, hu, depth + 1));
            }
        }
    }
    // Exhausted the graph without ever evicting the target.
    Err(DistanceError::TooLarge {
        explored: seen.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::{PolicyKind, RandomPolicy, TreePlru};

    #[test]
    fn evict_lru_is_assoc() {
        for assoc in [1usize, 2, 3, 4] {
            assert_eq!(
                evict_distance(&PolicyKind::Lru.build_state(assoc, 0), 2_000_000).unwrap(),
                assoc
            );
        }
    }

    #[test]
    fn evict_fifo_is_two_assoc_minus_one() {
        for assoc in [2usize, 3, 4] {
            assert_eq!(
                evict_distance(&PolicyKind::Fifo.build_state(assoc, 0), 2_000_000).unwrap(),
                2 * assoc - 1
            );
        }
    }

    #[test]
    fn evict_plru_exceeds_assoc() {
        let e4 = evict_distance(&TreePlru::new(4), 2_000_000).unwrap();
        assert!(e4 > 4, "evict(PLRU,4) = {e4}");
        let e8 = evict_distance(&TreePlru::new(8), 4_000_000).unwrap();
        assert!(e8 > 8, "evict(PLRU,8) = {e8}");
        assert!(e8 > e4);
    }

    #[test]
    fn evict_lip_is_unbounded() {
        assert_eq!(
            evict_distance(&PolicyKind::Lip.build_state(2, 0), 1_000_000),
            Err(DistanceError::Unbounded)
        );
    }

    #[test]
    fn mls_lru_is_assoc() {
        for assoc in [1usize, 2, 3, 4] {
            assert_eq!(
                minimal_lifespan(&PolicyKind::Lru.build_state(assoc, 0), 2_000_000).unwrap(),
                assoc
            );
        }
    }

    #[test]
    fn mls_fifo_is_assoc() {
        for assoc in [2usize, 4] {
            assert_eq!(
                minimal_lifespan(&PolicyKind::Fifo.build_state(assoc, 0), 2_000_000).unwrap(),
                assoc
            );
        }
    }

    #[test]
    fn mls_plru_is_logarithmic() {
        assert_eq!(minimal_lifespan(&TreePlru::new(4), 2_000_000).unwrap(), 3);
        assert_eq!(minimal_lifespan(&TreePlru::new(8), 4_000_000).unwrap(), 4);
    }

    #[test]
    fn stochastic_policies_are_rejected() {
        assert_eq!(
            evict_distance(&RandomPolicy::new(2, 0), 1000),
            Err(DistanceError::NonDeterministic)
        );
        assert_eq!(
            minimal_lifespan(&RandomPolicy::new(2, 0), 1000),
            Err(DistanceError::NonDeterministic)
        );
    }

    #[test]
    fn budget_is_respected() {
        assert!(matches!(
            evict_distance(&PolicyKind::Lru.build_state(6, 0), 50),
            Err(DistanceError::TooLarge { .. })
        ));
    }
}
