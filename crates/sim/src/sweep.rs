//! Parameter sweeps: run one trace against many (geometry, policy)
//! combinations.
//!
//! The evaluation figures of the reproduction are all built on these
//! helpers: "miss ratio per policy per workload" (fig. 3), "miss ratio vs
//! cache size" (fig. 4) and "miss ratio vs associativity" (fig. 5) are
//! sweeps over [`PolicyKind`]s crossed with geometries.

use crate::{Cache, CacheConfig, CacheStats};
use cachekit_policies::PolicyKind;

/// One cell of a sweep result: a (policy, geometry) pair with its stats.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The policy simulated.
    pub policy: PolicyKind,
    /// Label of the policy (display name).
    pub policy_label: String,
    /// The geometry simulated.
    pub config: CacheConfig,
    /// Statistics of the run.
    pub stats: CacheStats,
}

impl SweepCell {
    /// Miss ratio of this cell.
    pub fn miss_ratio(&self) -> f64 {
        self.stats.miss_ratio()
    }
}

/// Simulate `trace` once on a fresh cache.
pub fn simulate(config: CacheConfig, policy: PolicyKind, trace: &[u64]) -> CacheStats {
    let mut cache = Cache::new(config, policy);
    cache.run_trace(trace.iter().copied())
}

/// Cross every policy with every geometry on one trace.
pub fn sweep(configs: &[CacheConfig], policies: &[PolicyKind], trace: &[u64]) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(configs.len() * policies.len());
    for &config in configs {
        for &policy in policies {
            let stats = simulate(config, policy, trace);
            cells.push(SweepCell {
                policy,
                policy_label: policy.label(),
                config,
                stats,
            });
        }
    }
    cells
}

/// Geometries with capacities doubling from `min_capacity` to
/// `max_capacity` at fixed associativity and line size.
///
/// # Errors
///
/// Returns the first [`crate::ConfigError`] produced by an invalid
/// geometry in the range.
pub fn capacity_series(
    min_capacity: u64,
    max_capacity: u64,
    associativity: usize,
    line_size: u64,
) -> Result<Vec<CacheConfig>, crate::ConfigError> {
    let mut configs = Vec::new();
    let mut cap = min_capacity;
    while cap <= max_capacity {
        configs.push(CacheConfig::new(cap, associativity, line_size)?);
        cap *= 2;
    }
    Ok(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thrash_trace(lines: u64, reps: usize, line_size: u64) -> Vec<u64> {
        let mut t = Vec::new();
        for _ in 0..reps {
            for i in 0..lines {
                t.push(i * line_size);
            }
        }
        t
    }

    #[test]
    fn lru_thrashes_where_fifo_also_thrashes_but_lip_does_not() {
        // Cyclic working set slightly larger than the cache: LRU misses
        // 100%, LIP keeps most of it.
        let cfg = CacheConfig::new(512, 8, 64).unwrap(); // 1 set, 8 ways
        let trace = thrash_trace(9, 50, 64);
        let lru = simulate(cfg, PolicyKind::Lru, &trace);
        let lip = simulate(cfg, PolicyKind::Lip, &trace);
        assert!(lru.miss_ratio() > 0.99, "LRU {}", lru.miss_ratio());
        assert!(lip.miss_ratio() < 0.5, "LIP {}", lip.miss_ratio());
    }

    #[test]
    fn bigger_caches_do_not_miss_more_under_lru() {
        let trace = thrash_trace(64, 10, 64);
        let configs = capacity_series(512, 8192, 4, 64).unwrap();
        let cells = sweep(&configs, &[PolicyKind::Lru], &trace);
        let ratios: Vec<f64> = cells.iter().map(SweepCell::miss_ratio).collect();
        for w in ratios.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "LRU is a stack algorithm: {ratios:?}");
        }
    }

    #[test]
    fn capacity_series_doubles() {
        let s = capacity_series(1024, 8192, 2, 64).unwrap();
        let caps: Vec<u64> = s.iter().map(|c| c.capacity()).collect();
        assert_eq!(caps, vec![1024, 2048, 4096, 8192]);
    }
}
