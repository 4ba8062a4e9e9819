//! Deriving the permutation representation of a concrete policy.
//!
//! This is the *noise-free, software* twin of the hardware inference in
//! [`crate::infer`]: given any [`ReplacementPolicy`] implementation, treat
//! it as a black box over block accesses on a single cache set, and
//! recover its [`PermutationSpec`] — or prove that no such spec exists.
//! The same read-out idea (establish a state, then observe the order in
//! which fresh misses evict the residents) drives both; here the oracle is
//! perfect, so no voting is needed.
//!
//! The derivation doubles as the *catalog builder*: tree-PLRU's
//! permutation vectors, which are tedious to write down by hand, are
//! extracted from the executable [`cachekit_policies::TreePlru`] and then
//! verified by random differential testing.

use crate::perm::{Permutation, PermutationSpec};
use cachekit_policies::rng::Prng;
use cachekit_policies::{PolicyState, ReplacementPolicy};
use cachekit_sim::CacheSet;
use std::error::Error;
use std::fmt;

/// Why a policy has no (front-insertion) permutation representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeriveError {
    /// The policy is stochastic; its behaviour is not a function of the
    /// access history.
    NotDeterministic,
    /// The policy inserts new lines at a position other than the front;
    /// the read-out (and the paper's algorithm) require front insertion.
    NotFrontInsertion {
        /// The detected insertion position.
        position: usize,
    },
    /// A read-out did not produce a consistent total order.
    InconsistentReadout(String),
    /// The derived spec failed differential validation against the
    /// original policy.
    ValidationFailed {
        /// Number of diverging probe scripts.
        mismatches: usize,
        /// Number of scripts tried.
        rounds: usize,
    },
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::NotDeterministic => {
                write!(f, "policy is stochastic, not a permutation policy")
            }
            DeriveError::NotFrontInsertion { position } => {
                write!(f, "policy inserts at position {position}, not at the front")
            }
            DeriveError::InconsistentReadout(why) => {
                write!(f, "inconsistent state read-out: {why}")
            }
            DeriveError::ValidationFailed { mismatches, rounds } => write!(
                f,
                "derived spec diverged from the policy in {mismatches}/{rounds} validation scripts"
            ),
        }
    }
}

impl Error for DeriveError {}

/// Block ids: originals are `0..A`, fresh blocks start here.
const FRESH_BASE: u64 = 1 << 20;

/// A fresh single set driven by a clone of `template` in its initial
/// state, pre-filled with the base blocks `0..A`.
fn based_set(template: &dyn ReplacementPolicy) -> CacheSet {
    let mut set = CacheSet::from_state(PolicyState::from_boxed(template.boxed_clone()));
    let assoc = template.associativity();
    for b in 0..assoc as u64 {
        set.access_tag(b);
    }
    set
}

/// Drive `set` with fresh misses and return the base blocks (`< A`) in
/// the order they are evicted. Stops after `limit` misses.
fn eviction_schedule(set: &mut CacheSet, assoc: usize, limit: usize) -> Vec<u64> {
    let mut evicted = Vec::new();
    for i in 0..limit as u64 {
        if let cachekit_sim::AccessOutcome::Miss { evicted: Some(t) } =
            set.access_tag(FRESH_BASE + i)
        {
            if t < assoc as u64 {
                evicted.push(t);
            }
        }
        if evicted.len() == assoc {
            break;
        }
    }
    evicted
}

/// Detect the miss insertion position of `policy`.
///
/// Fills a set with base blocks, inserts one marked fresh block, then
/// counts how many further fresh misses occur before the marked block is
/// evicted: a block inserted at position `p` of an `A`-way set is evicted
/// by the `(A - p)`-th subsequent miss.
///
/// # Errors
///
/// Returns [`DeriveError::NotDeterministic`] for stochastic policies, or
/// [`DeriveError::InconsistentReadout`] if the marked block is never
/// evicted (the policy pins it, so it has no permutation representation
/// of this shape).
pub fn detect_insertion_position(policy: Box<dyn ReplacementPolicy>) -> Result<usize, DeriveError> {
    if !policy.is_deterministic() {
        return Err(DeriveError::NotDeterministic);
    }
    let assoc = policy.associativity();
    let mut set = based_set(policy.as_ref());
    let marked = FRESH_BASE - 1;
    set.access_tag(marked);
    for k in 1..=(2 * assoc + 2) as u64 {
        if let cachekit_sim::AccessOutcome::Miss { evicted: Some(t) } =
            set.access_tag(FRESH_BASE + k)
        {
            if t == marked {
                let k = k as usize;
                if k > assoc {
                    return Err(DeriveError::InconsistentReadout(format!(
                        "marked block evicted only after {k} misses (assoc {assoc})"
                    )));
                }
                return Ok(assoc - k);
            }
        }
    }
    Err(DeriveError::InconsistentReadout(
        "marked block never evicted by fresh misses".to_owned(),
    ))
}

/// Read out the priority order of the base blocks of a set prepared by
/// `prepare` (most protected first). Front insertion is assumed: the
/// `k`-th fresh miss evicts the block at position `A - k`.
fn read_out(template: &dyn ReplacementPolicy, prepare: &[u64]) -> Result<Vec<u64>, DeriveError> {
    let assoc = template.associativity();
    let mut set = based_set(template);
    for &b in prepare {
        set.access_tag(b);
    }
    let schedule = eviction_schedule(&mut set, assoc, assoc);
    if schedule.len() != assoc {
        return Err(DeriveError::InconsistentReadout(format!(
            "only {}/{assoc} base blocks evicted by {assoc} fresh misses",
            schedule.len()
        )));
    }
    let mut order: Vec<u64> = schedule;
    order.reverse();
    Ok(order)
}

/// Derive the [`PermutationSpec`] of `policy`, or explain why none exists.
///
/// The algorithm mirrors the paper's: detect the insertion position;
/// read out the base order after filling; for each position `i`, re-fill,
/// hit the block at position `i` once, read out again, and record the
/// induced permutation; finally validate the assembled spec by
/// differential testing on random access scripts.
///
/// # Errors
///
/// See [`DeriveError`] for the rejection cases — each corresponds to a
/// way a real policy can fall outside the permutation-policy class.
pub fn derive_permutation_spec(
    policy: Box<dyn ReplacementPolicy>,
) -> Result<PermutationSpec, DeriveError> {
    if !policy.is_deterministic() {
        return Err(DeriveError::NotDeterministic);
    }
    let assoc = policy.associativity();

    let position = detect_insertion_position(policy.boxed_clone())?;
    if position != 0 {
        return Err(DeriveError::NotFrontInsertion { position });
    }

    let base_order = read_out(policy.as_ref(), &[])?;

    let mut hits = Vec::with_capacity(assoc);
    for i in 0..assoc {
        let new_order = read_out(policy.as_ref(), &[base_order[i]])?;
        // Π_i maps old positions to new positions.
        let mut map = Vec::with_capacity(assoc);
        for &old_block in base_order.iter() {
            let new_pos = new_order
                .iter()
                .position(|&b| b == old_block)
                .ok_or_else(|| {
                    DeriveError::InconsistentReadout(format!(
                        "block {old_block} vanished during hit read-out at position {i}"
                    ))
                })?;
            map.push(new_pos);
        }
        let perm =
            Permutation::new(map).map_err(|e| DeriveError::InconsistentReadout(e.to_string()))?;
        hits.push(perm);
    }

    let spec = PermutationSpec::new(hits, 0)
        .map_err(|e| DeriveError::InconsistentReadout(e.to_string()))?;
    validate_spec(policy.as_ref(), &base_order, &spec)?;
    Ok(spec)
}

/// Differential validation at the abstract level: starting from the
/// synchronized base state (whose abstract order `base_order` was just
/// read out), predict the outcome of every access of a random script with
/// the candidate spec and compare against the real policy.
///
/// The permutation abstraction — like the paper's model — describes the
/// steady-state behaviour of a *full* set; the warm-up transient from
/// invalid ways is outside the modelled class (and indeed differs for
/// tree-PLRU), so prediction starts after the base fills.
fn validate_spec(
    template: &dyn ReplacementPolicy,
    base_order: &[u64],
    spec: &PermutationSpec,
) -> Result<(), DeriveError> {
    let assoc = template.associativity();
    let rounds = 200;
    let mut mismatches = 0;
    let mut rng = Prng::seed_from_u64(0xD1FF);
    for _ in 0..rounds {
        let mut original = based_set(template);
        let mut predicted: Vec<u64> = base_order.to_vec();
        let universe = (2 * assoc) as u64;
        let len = 10 * assoc;
        let mut ok = true;
        for _ in 0..len {
            let block = rng.gen_range(0..universe);
            let actual = original.access_tag(block);
            let expected = match predicted.iter().position(|&b| b == block) {
                Some(i) => {
                    spec.apply_hit(&mut predicted, i);
                    cachekit_sim::AccessOutcome::Hit
                }
                None => {
                    let evicted = spec.apply_miss(&mut predicted, block);
                    cachekit_sim::AccessOutcome::Miss {
                        evicted: Some(evicted),
                    }
                }
            };
            if actual != expected {
                ok = false;
                break;
            }
        }
        if !ok {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        return Err(DeriveError::ValidationFailed { mismatches, rounds });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::PermutationPolicy;
    use cachekit_policies::{PolicyKind, RandomPolicy, TreePlru};

    #[test]
    fn front_insertion_stack_kinds_derive_to_their_specs() {
        // The read-out of each front-insertion recency-stack kind equals
        // the spec built from its rule (SLRU-0 inserts at the front too).
        for (kind, assocs) in [
            (PolicyKind::Lru, &[1usize, 2, 4, 6, 8][..]),
            (PolicyKind::Fifo, &[2, 4, 8]),
            (PolicyKind::LazyLru, &[2, 4, 8]),
            (PolicyKind::Slru { protected: 0 }, &[4]),
        ] {
            for &assoc in assocs {
                let spec = derive_permutation_spec(Box::new(kind.build_state(assoc, 0))).unwrap();
                assert_eq!(
                    Some(spec),
                    PermutationSpec::for_kind(kind, assoc),
                    "{kind:?} at {assoc} ways"
                );
            }
        }
    }

    #[test]
    fn tree_plru_pow2_is_a_permutation_policy() {
        for assoc in [2usize, 4, 8] {
            let spec = derive_permutation_spec(Box::new(TreePlru::new(assoc)));
            assert!(spec.is_ok(), "assoc {assoc}: {spec:?}");
        }
    }

    #[test]
    fn lazy_lru_derives_and_differs_from_lru() {
        let spec =
            derive_permutation_spec(Box::new(PolicyKind::LazyLru.build_state(4, 0))).unwrap();
        assert_ne!(
            Some(&spec),
            PermutationSpec::for_kind(PolicyKind::Lru, 4).as_ref()
        );
        // Young-half hits are identities.
        assert!(spec.hit_permutation(0).is_identity());
        assert!(spec.hit_permutation(1).is_identity());
        // Old-half hits promote to the front.
        assert_eq!(
            spec.hit_permutation(3),
            &Permutation::promote_to_front(4, 3)
        );
    }

    #[test]
    fn slru_insertion_position_is_the_protected_size() {
        for (assoc, protected) in [(4usize, 2usize), (8, 4), (8, 2), (6, 3)] {
            let slru = || Box::new(PolicyKind::Slru { protected }.build_state(assoc, 0));
            assert_eq!(
                detect_insertion_position(slru()).unwrap(),
                protected,
                "assoc {assoc}, protected {protected}"
            );
            let err = derive_permutation_spec(slru()).unwrap_err();
            assert_eq!(
                err,
                DeriveError::NotFrontInsertion {
                    position: protected
                }
            );
        }
    }

    #[test]
    fn lip_is_detected_as_back_insertion() {
        let lip = || Box::new(PolicyKind::Lip.build_state(4, 0));
        let err = derive_permutation_spec(lip()).unwrap_err();
        assert_eq!(err, DeriveError::NotFrontInsertion { position: 3 });
        assert_eq!(detect_insertion_position(lip()).unwrap(), 3);
    }

    #[test]
    fn front_insertion_is_detected_for_lru_family() {
        for (kind, assoc) in [
            (PolicyKind::Lru, 6),
            (PolicyKind::Fifo, 6),
            (PolicyKind::TreePlru, 8),
        ] {
            let p = Box::new(kind.build_state(assoc, 0));
            assert_eq!(detect_insertion_position(p).unwrap(), 0, "{kind:?}");
        }
    }

    #[test]
    fn random_policy_is_rejected_as_nondeterministic() {
        let err = derive_permutation_spec(Box::new(RandomPolicy::new(4, 0))).unwrap_err();
        assert_eq!(err, DeriveError::NotDeterministic);
    }

    #[test]
    fn bit_plru_is_rejected() {
        // Bit-PLRU's behaviour depends on way indices, so no permutation
        // spec can reproduce it; the derivation must fail at read-out or
        // validation.
        let res = derive_permutation_spec(Box::new(PolicyKind::BitPlru.build_state(4, 0)));
        assert!(res.is_err(), "bit-PLRU must not derive: {res:?}");
    }

    #[test]
    fn nru_is_rejected() {
        let res = derive_permutation_spec(Box::new(PolicyKind::Nru.build_state(4, 0)));
        assert!(res.is_err(), "NRU must not derive: {res:?}");
    }

    #[test]
    fn srrip_is_rejected() {
        let res =
            derive_permutation_spec(Box::new(PolicyKind::Srrip { bits: 2 }.build_state(4, 0)));
        assert!(res.is_err(), "SRRIP must not derive: {res:?}");
    }

    #[test]
    fn derived_spec_round_trips() {
        // Deriving from a PermutationPolicy must reproduce its own spec.
        let original = PermutationSpec::for_kind(PolicyKind::Lru, 4).unwrap();
        let spec =
            derive_permutation_spec(Box::new(PermutationPolicy::new(original.clone()))).unwrap();
        assert_eq!(spec, original);
    }
}
