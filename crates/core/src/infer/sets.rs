//! Eviction-set discovery.
//!
//! The geometry campaign of [`crate::infer`] assumes it can *construct*
//! conflicting addresses once the geometry is known. When the mapping is
//! unknown (or untrusted — e.g. sliced or hashed indexing), conflicts
//! must be *discovered*: find a minimal set of addresses that evicts a
//! target. This module implements the classic group-testing reduction
//! (as used by the paper's lineage and by the eviction-set literature):
//! start from a large candidate pool that conflicts with the target, then
//! repeatedly drop groups whose removal preserves the conflict.

use crate::infer::oracle::{measure_voted, CacheOracle};
use std::error::Error;
use std::fmt;

/// Why an eviction set could not be found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionSetError {
    /// The full candidate pool does not evict the target — it cannot
    /// contain an eviction set.
    PoolDoesNotConflict,
    /// The reduction stopped making progress above the expected size
    /// (noise, or a policy for which the conflict test is not monotone).
    StuckAt {
        /// Size of the set when the reduction stalled.
        size: usize,
    },
}

impl fmt::Display for EvictionSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionSetError::PoolDoesNotConflict => {
                write!(f, "candidate pool does not evict the target")
            }
            EvictionSetError::StuckAt { size } => {
                write!(f, "reduction stalled at {size} candidates")
            }
        }
    }
}

impl Error for EvictionSetError {}

/// Does accessing `candidates` (after touching `target`) evict `target`?
///
/// The conflict test of the eviction-set literature: touch the target,
/// stream the candidates, re-probe the target.
pub fn evicts<O: CacheOracle + ?Sized>(
    oracle: &mut O,
    target: u64,
    candidates: &[u64],
    repetitions: usize,
) -> bool {
    let mut warmup = Vec::with_capacity(candidates.len() + 1);
    warmup.push(target);
    warmup.extend_from_slice(candidates);
    measure_voted(oracle, &warmup, &[target], repetitions) > 0
}

/// Reduce `pool` to a minimal eviction set for `target`.
///
/// Classic group-testing: split the current set into `groups` parts and
/// try dropping each part; keep any drop that preserves the conflict.
/// For an `A`-way set, `groups > A` guarantees by pigeonhole that some
/// part contains no conflicting line and is droppable, so the reduction
/// converges to exactly `A` addresses (`groups = A + 1` gives the
/// textbook `O(A·n)` access cost). With `groups <= A` the reduction may
/// stall above the minimum, which is reported as
/// [`EvictionSetError::StuckAt`].
///
/// The conflict test assumes an LRU-like (front-insertion) policy, where
/// streaming enough same-set lines is guaranteed to evict the target —
/// the same assumption the paper's read-out makes.
///
/// # Errors
///
/// See [`EvictionSetError`].
pub fn find_eviction_set<O: CacheOracle + ?Sized>(
    oracle: &mut O,
    target: u64,
    pool: &[u64],
    groups: usize,
    repetitions: usize,
) -> Result<Vec<u64>, EvictionSetError> {
    assert!(groups >= 2, "need at least two groups");
    let _span = cachekit_obs::span("find_eviction_set");
    if !evicts(oracle, target, pool, repetitions) {
        return Err(EvictionSetError::PoolDoesNotConflict);
    }
    let mut current: Vec<u64> = pool.to_vec();
    loop {
        let mut progressed = false;
        // Partition into exactly `groups` (nearly) equal parts. With
        // `groups = A + 1`, the pigeonhole argument guarantees one part
        // contains no conflicting line, so it is droppable — producing
        // fewer parts (as naive fixed-size chunking does near the end)
        // breaks that guarantee and stalls the reduction.
        let len = current.len();
        let mut g = 0;
        while g < groups && current.len() > 1 {
            let len_now = current.len();
            if len_now != len {
                // The set shrank: restart with a fresh partition.
                break;
            }
            let start = g * len / groups;
            let end = (g + 1) * len / groups;
            if start == end {
                g += 1;
                continue;
            }
            let mut without: Vec<u64> = Vec::with_capacity(len - (end - start));
            without.extend_from_slice(&current[..start]);
            without.extend_from_slice(&current[end..]);
            if !without.is_empty() && evicts(oracle, target, &without, repetitions) {
                current = without;
                progressed = true;
                break;
            }
            g += 1;
        }
        if !progressed {
            break;
        }
    }
    // Minimality check: no single element is droppable.
    for i in 0..current.len() {
        let mut without = current.clone();
        without.remove(i);
        if !without.is_empty() && evicts(oracle, target, &without, repetitions) {
            return Err(EvictionSetError::StuckAt {
                size: current.len(),
            });
        }
    }
    Ok(current)
}

/// Behavioral same-set test: do `a` and `b` map to the same set?
///
/// Works for *any* index function — including hashed/sliced ones where
/// arithmetic set computation is impossible — because it only uses
/// conflict behaviour: discover an eviction set for `a` from `pool`,
/// then check whether it also evicts `b`.
///
/// # Errors
///
/// Propagates [`EvictionSetError`] from the discovery step (e.g. the
/// pool holds too few lines of `a`'s set).
pub fn same_set<O: CacheOracle>(
    oracle: &mut O,
    a: u64,
    b: u64,
    pool: &[u64],
    groups: usize,
    repetitions: usize,
) -> Result<bool, EvictionSetError> {
    let eviction_set = find_eviction_set(oracle, a, pool, groups, repetitions)?;
    Ok(evicts(oracle, b, &eviction_set, repetitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::SimOracle;
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn oracle(kind: PolicyKind) -> (SimOracle, CacheConfig) {
        let cfg = CacheConfig::new(16 * 1024, 4, 64).unwrap(); // 64 sets
        (SimOracle::new(Cache::new(cfg, kind)), cfg)
    }

    /// A pool of lines spread over all sets, including >= assoc lines in
    /// the target's set.
    fn pool(cfg: &CacheConfig, lines: u64) -> Vec<u64> {
        (1..=lines).map(|i| i * cfg.line_size()).collect()
    }

    #[test]
    fn finds_exactly_assoc_conflicting_lines_under_lru() {
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let target = 0u64; // set 0
                           // 8 full "pages" of lines: 8 lines map to set 0.
        let pool = pool(&cfg, 8 * cfg.num_sets());
        let set = find_eviction_set(&mut o, target, &pool, 5, 1).unwrap();
        assert_eq!(set.len(), cfg.associativity());
        for &a in &set {
            assert_eq!(cfg.set_index(a), cfg.set_index(target), "addr {a:#x}");
        }
    }

    #[test]
    fn works_for_plru_too() {
        let cfg = CacheConfig::new(16 * 1024, 8, 64).unwrap();
        let mut o = SimOracle::new(Cache::new(cfg, PolicyKind::TreePlru));
        let target = 5 * 64; // set 5
        let pool: Vec<u64> = (1..=12 * cfg.num_sets())
            .map(|i| i * cfg.line_size())
            .collect();
        let set = find_eviction_set(&mut o, target, &pool, 9, 1).unwrap();
        assert_eq!(set.len(), cfg.associativity());
        for &a in &set {
            assert_eq!(cfg.set_index(a), cfg.set_index(target));
        }
    }

    #[test]
    fn non_conflicting_pool_is_rejected() {
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let target = 0u64;
        // Lines in other sets only.
        let pool: Vec<u64> = (1..32).map(|i| i * cfg.line_size() + 64).collect();
        assert_eq!(
            find_eviction_set(&mut o, target, &pool, 5, 1),
            Err(EvictionSetError::PoolDoesNotConflict)
        );
    }

    #[test]
    fn more_groups_than_assoc_still_converges() {
        // Convergence is guaranteed whenever groups > associativity; a
        // larger-than-necessary group count only costs extra tests.
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let pool = pool(&cfg, 8 * cfg.num_sets());
        for groups in [5usize, 7, 10] {
            let set = find_eviction_set(&mut o, 0, &pool, groups, 1).unwrap();
            assert_eq!(set.len(), cfg.associativity(), "groups = {groups}");
        }
    }

    #[test]
    fn too_few_groups_reports_a_stall() {
        // With groups <= associativity the pigeonhole argument fails and
        // the reduction can stall above the minimal size — reported, not
        // silently returned.
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let pool = pool(&cfg, 8 * cfg.num_sets());
        match find_eviction_set(&mut o, 0, &pool, 2, 1) {
            Ok(set) => assert_eq!(set.len(), cfg.associativity()),
            Err(EvictionSetError::StuckAt { size }) => {
                assert!(size > cfg.associativity());
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn same_set_agrees_with_the_modulo_mapping() {
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let pool = pool(&cfg, 8 * cfg.num_sets());
        let a = 3 * cfg.line_size(); // set 3
        let same = a + cfg.way_size(); // still set 3
        let other = a + cfg.line_size(); // set 4
        assert!(same_set(&mut o, a, same, &pool, 5, 1).unwrap());
        assert!(!same_set(&mut o, a, other, &pool, 5, 1).unwrap());
    }

    #[test]
    fn same_set_sees_through_hashed_indexing() {
        use cachekit_sim::IndexFunction;
        // A cache the arithmetic mapping cannot describe: the behavioral
        // test must still recover the true congruences.
        let cfg = CacheConfig::new(16 * 1024, 4, 64)
            .unwrap()
            .with_index_function(IndexFunction::XorFold);
        let mut o = SimOracle::new(Cache::new(cfg, PolicyKind::Lru));
        let pool: Vec<u64> = (1..=12 * cfg.num_sets())
            .map(|i| i * cfg.line_size())
            .collect();
        let a = 5 * cfg.line_size();
        // Find ground-truth partners/non-partners under the hash.
        let partner = (1..200u64)
            .map(|i| a + i * cfg.line_size())
            .find(|&x| cfg.set_index(x) == cfg.set_index(a))
            .expect("some partner exists");
        let stranger = (1..200u64)
            .map(|i| a + i * cfg.line_size())
            .find(|&x| cfg.set_index(x) != cfg.set_index(a))
            .expect("some stranger exists");
        assert!(same_set(&mut o, a, partner, &pool, 5, 1).unwrap());
        assert!(!same_set(&mut o, a, stranger, &pool, 5, 1).unwrap());
    }

    #[test]
    fn evicts_is_the_expected_conflict_test() {
        let (mut o, cfg) = oracle(PolicyKind::Lru);
        let same_set: Vec<u64> = (1..=4).map(|i| i * cfg.way_size()).collect();
        assert!(evicts(&mut o, 0, &same_set, 1));
        assert!(!evicts(&mut o, 0, &same_set[..3], 1));
    }
}
