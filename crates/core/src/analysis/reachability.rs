//! Reachable-state enumeration for deterministic policies.

use cachekit_policies::ReplacementPolicy;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Why reachability enumeration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachabilityError {
    /// The policy is stochastic; its state space is not meaningfully
    /// enumerable through the deterministic interface.
    NonDeterministic,
    /// More than the budgeted number of states are reachable.
    TooLarge {
        /// States discovered before giving up.
        explored: usize,
    },
}

impl fmt::Display for ReachabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachabilityError::NonDeterministic => {
                write!(f, "stochastic policies have no enumerable state space")
            }
            ReachabilityError::TooLarge { explored } => {
                write!(f, "state space exceeds budget ({explored} states explored)")
            }
        }
    }
}

impl Error for ReachabilityError {}

/// Enumerate the states reachable from `policy`'s current state under
/// hits on every way and the miss transition (victim + fill), up to
/// `max_states`.
///
/// Returns one policy clone per distinct state (distinctness judged by
/// [`ReplacementPolicy::state_key`]).
///
/// # Errors
///
/// [`ReachabilityError::NonDeterministic`] for stochastic policies,
/// [`ReachabilityError::TooLarge`] if the budget is exceeded.
pub fn reachable_states(
    policy: &dyn ReplacementPolicy,
    max_states: usize,
) -> Result<Vec<Box<dyn ReplacementPolicy>>, ReachabilityError> {
    if !policy.is_deterministic() {
        return Err(ReachabilityError::NonDeterministic);
    }
    let assoc = policy.associativity();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out: Vec<Box<dyn ReplacementPolicy>> = Vec::new();
    let mut queue: Vec<Box<dyn ReplacementPolicy>> = vec![policy.boxed_clone()];
    seen.insert(policy.state_key());

    // One scratch key reused across the whole walk; only keys of *new*
    // states are cloned into `seen` (the hot path — an already-seen
    // successor — allocates nothing).
    let mut scratch: Vec<u8> = Vec::new();
    fn note(
        next: Box<dyn ReplacementPolicy>,
        scratch: &mut Vec<u8>,
        seen: &mut HashSet<Vec<u8>>,
        queue: &mut Vec<Box<dyn ReplacementPolicy>>,
    ) {
        scratch.clear();
        next.write_state_key(scratch);
        if !seen.contains(scratch.as_slice()) {
            seen.insert(scratch.clone());
            queue.push(next);
        }
    }

    while let Some(p) = queue.pop() {
        if out.len() >= max_states {
            return Err(ReachabilityError::TooLarge {
                explored: out.len(),
            });
        }
        for w in 0..assoc {
            let mut next = p.boxed_clone();
            next.on_hit(w);
            note(next, &mut scratch, &mut seen, &mut queue);
        }
        let mut next = p.boxed_clone();
        let v = next.victim();
        next.on_fill(v);
        note(next, &mut scratch, &mut seen, &mut queue);
        out.push(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::{PolicyKind, RandomPolicy, TreePlru};

    #[test]
    fn lru_reaches_all_orders() {
        // From the identity order, hits generate all A! permutations.
        let states = reachable_states(&PolicyKind::Lru.build_state(3, 0), 100).unwrap();
        assert_eq!(states.len(), 6);
        let states = reachable_states(&PolicyKind::Lru.build_state(4, 0), 100).unwrap();
        assert_eq!(states.len(), 24);
    }

    #[test]
    fn plru_reaches_all_bit_patterns() {
        let states = reachable_states(&TreePlru::new(4), 100).unwrap();
        assert_eq!(states.len(), 8); // 2^(A-1)
        let states = reachable_states(&TreePlru::new(8), 1000).unwrap();
        assert_eq!(states.len(), 128);
    }

    #[test]
    fn fifo_hits_do_not_expand_the_space() {
        // FIFO ignores hits; only the miss rotation moves the state, so
        // exactly A cyclic shifts... but fills move arbitrary ways to the
        // front only via the victim, giving the cyclic group.
        let states = reachable_states(&PolicyKind::Fifo.build_state(4, 0), 100).unwrap();
        assert_eq!(states.len(), 4);
    }

    #[test]
    fn budget_is_respected() {
        let err = reachable_states(&PolicyKind::Lru.build_state(5, 0), 10).unwrap_err();
        assert!(matches!(err, ReachabilityError::TooLarge { .. }));
    }

    #[test]
    fn stochastic_policies_are_rejected() {
        let err = reachable_states(&RandomPolicy::new(4, 0), 10).unwrap_err();
        assert_eq!(err, ReachabilityError::NonDeterministic);
    }
}
