//! Stack-distance-profile driven trace generation, plus the profile
//! *measurement* that goes with it.
//!
//! The LRU stack distance of an access is the number of distinct blocks
//! touched since the previous access to the same block. Stack-distance
//! histograms are the standard compact summary of a workload's temporal
//! locality; SPEC-like behaviour can be approximated by sampling distances
//! from a target histogram (the generator here), and any trace can be
//! reduced back to its histogram (the profiler here), which the test-suite
//! uses to check the generator round-trips.

use cachekit_policies::rng::Prng;
use std::collections::HashMap;

/// A stack-distance histogram: `weights[d]` is the relative frequency of
/// reuses at distance `d`; `cold_weight` the relative frequency of first
/// touches (infinite distance).
#[derive(Debug, Clone, PartialEq)]
pub struct StackDistanceProfile {
    weights: Vec<f64>,
    cold_weight: f64,
}

impl StackDistanceProfile {
    /// Create a profile from per-distance weights and a cold-miss weight.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or all weights are zero.
    pub fn new(weights: Vec<f64>, cold_weight: f64) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0) && cold_weight >= 0.0,
            "weights must be non-negative"
        );
        let total: f64 = weights.iter().sum::<f64>() + cold_weight;
        assert!(total > 0.0, "at least one weight must be positive");
        Self {
            weights,
            cold_weight,
        }
    }

    /// A geometric profile: distance `d` has weight `(1-p)^d · p`, with
    /// `cold` cold-miss weight — short reuse distances dominate, the shape
    /// typical of integer SPEC codes.
    pub fn geometric(p: f64, max_distance: usize, cold: f64) -> Self {
        assert!((0.0..=1.0).contains(&p) && p > 0.0, "p must be in (0, 1]");
        let weights = (0..max_distance)
            .map(|d| (1.0 - p).powi(d as i32) * p)
            .collect();
        Self::new(weights, cold)
    }

    /// Largest distance with nonzero weight.
    pub fn max_distance(&self) -> usize {
        self.weights
            .iter()
            .rposition(|&w| w > 0.0)
            .map_or(0, |d| d + 1)
    }

    /// The normalised weight of distance `d`.
    pub fn frequency(&self, d: usize) -> f64 {
        let total: f64 = self.weights.iter().sum::<f64>() + self.cold_weight;
        self.weights.get(d).copied().unwrap_or(0.0) / total
    }

    /// Expected LRU miss ratio for a fully-associative cache of `capacity`
    /// lines: the probability mass at distances `>= capacity`, plus cold
    /// misses. This analytic value is what makes profiles useful for
    /// validating the simulator.
    pub fn lru_miss_ratio(&self, capacity: usize) -> f64 {
        let total: f64 = self.weights.iter().sum::<f64>() + self.cold_weight;
        let far: f64 = self.weights.iter().skip(capacity).sum();
        (far + self.cold_weight) / total
    }

    /// Generate `accesses` addresses whose stack-distance histogram
    /// approximates this profile (line-granular addresses, `line` bytes).
    ///
    /// The generator keeps an explicit LRU stack: with the profile's
    /// probabilities it either reuses the block at a sampled depth or
    /// touches a brand-new block.
    ///
    /// The stack is the set of live access times, one per block on it
    /// (the time it was last touched), in a Fenwick tree: the block at
    /// depth `d` is the one whose time is the `(live − d)`-th smallest.
    /// Finding, removing and pushing a block is O(log accesses), so the
    /// whole trace costs O(accesses · log accesses) plus one binary
    /// search per access over the profile. The draws from the seeded
    /// generator and the stack order are those of a plain vector stack
    /// with `remove(d)` and `insert(0, _)`, so the output is the same;
    /// that vector costs O(depth) per access.
    pub fn generate(&self, accesses: usize, line: u64, seed: u64) -> Vec<u64> {
        let total: f64 = self.weights.iter().sum::<f64>() + self.cold_weight;
        let mut cdf = Vec::with_capacity(self.weights.len());
        let mut acc = 0.0;
        for &w in &self.weights {
            acc += w;
            cdf.push(acc);
        }
        let mut rng = Prng::seed_from_u64(seed);
        let mut stack = LiveTimes::new(accesses);
        let mut next_block = 0u64;
        // Blocks by access time while generating; scaled to byte
        // addresses at the end.
        let mut trace = Vec::with_capacity(accesses);
        for now in 0..accesses {
            let u = rng.gen::<f64>() * total;
            let block = match cdf.partition_point(|&c| c < u) {
                d if d < self.weights.len() && d < stack.live => {
                    let last = stack.at_depth(d);
                    stack.remove(last);
                    trace[last]
                }
                _ => {
                    // Cold touch (or a distance deeper than the current
                    // stack, which is equivalent at this point).
                    let b = next_block;
                    next_block += 1;
                    b
                }
            };
            stack.insert(now);
            trace.push(block);
        }
        for addr in &mut trace {
            *addr *= line;
        }
        trace
    }
}

/// An LRU stack kept as the set of live access times: each block on the
/// stack is represented by the time it was last touched, so the most
/// recent block has the largest time. The set is a Fenwick
/// (binary-indexed) tree of 0/1 counts over times `0..capacity`, which
/// answers rank and select in O(log capacity).
struct LiveTimes {
    /// 1-based Fenwick array: `tree[i]` counts the live times in
    /// `(i − lowbit(i), i]`, time `t` sitting at index `t + 1`.
    tree: Vec<u32>,
    /// Number of blocks on the stack.
    live: usize,
}

impl LiveTimes {
    fn new(capacity: usize) -> Self {
        Self {
            tree: vec![0; capacity + 1],
            live: 0,
        }
    }

    fn insert(&mut self, time: usize) {
        self.live += 1;
        let mut i = time + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn remove(&mut self, time: usize) {
        self.live -= 1;
        let mut i = time + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Stack depth (0 = most recent) of the live time `time`: the number
    /// of live times after it.
    fn depth_of(&self, time: usize) -> usize {
        let mut at_or_before = 0;
        let mut i = time + 1;
        while i > 0 {
            at_or_before += self.tree[i] as usize;
            i &= i - 1;
        }
        self.live - at_or_before
    }

    /// The live time at stack depth `depth < live`: the
    /// `(live − depth)`-th smallest, found by descending the tree.
    fn at_depth(&self, depth: usize) -> usize {
        let mut rank = self.live - depth;
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && (self.tree[next] as usize) < rank {
                pos = next;
                rank -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        // `pos + 1` is the 1-based index of the time sought.
        pos
    }
}

/// Measure the stack-distance histogram of `trace` (line-granular with
/// `line`-byte blocks). Returns the histogram over distances `0..` and the
/// number of cold (first-touch) accesses.
///
/// Each block's last access time is kept in a map and the live times in
/// the same Fenwick-tree stack [`StackDistanceProfile::generate`] uses,
/// so an access costs O(log n) for a trace of `n` accesses instead of a
/// scan and shift of a vector stack; the distance of a reuse is the
/// number of live times after the block's last one, which is its depth
/// in that vector.
pub fn measure(trace: &[u64], line: u64) -> (Vec<u64>, u64) {
    assert!(line > 0, "line size must be nonzero");
    let mut stack = LiveTimes::new(trace.len());
    let mut last_touch: HashMap<u64, usize> = HashMap::new();
    let mut hist: Vec<u64> = Vec::new();
    let mut cold = 0u64;
    for (now, &addr) in trace.iter().enumerate() {
        match last_touch.insert(addr / line, now) {
            None => cold += 1,
            Some(last) => {
                let d = stack.depth_of(last);
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += 1;
                stack.remove(last);
            }
        }
        stack.insert(now);
    }
    (hist, cold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_profile_prefers_short_distances() {
        let p = StackDistanceProfile::geometric(0.5, 16, 0.01);
        assert!(p.frequency(0) > p.frequency(1));
        assert!(p.frequency(1) > p.frequency(4));
    }

    #[test]
    fn generated_trace_matches_profile_shape() {
        let p = StackDistanceProfile::geometric(0.4, 32, 0.02);
        let trace = p.generate(100_000, 64, 9);
        let (hist, _cold) = measure(&trace, 64);
        let total: u64 = hist.iter().sum();
        // Compare the empirical distance-0 and distance-3 frequencies with
        // the profile (within loose tolerance: cold touches shift mass).
        let f0 = hist[0] as f64 / total as f64;
        let f3 = hist[3] as f64 / total as f64;
        assert!((f0 - 0.4 / 0.98 / 1.02).abs() < 0.05, "f0 = {f0}");
        assert!(f0 > f3 * 3.0, "geometric decay expected: {f0} vs {f3}");
    }

    #[test]
    fn lru_miss_ratio_is_monotone_in_capacity() {
        let p = StackDistanceProfile::geometric(0.3, 64, 0.05);
        let mut prev = f64::INFINITY;
        for cap in [1usize, 2, 4, 8, 16, 32, 64] {
            let m = p.lru_miss_ratio(cap);
            assert!(m <= prev);
            prev = m;
        }
    }

    #[test]
    fn measure_simple_trace() {
        // Blocks: a b a b c a  (line = 1)
        let trace = [0u64, 1, 0, 1, 2, 0];
        let (hist, cold) = measure(&trace, 1);
        assert_eq!(cold, 3);
        // a reused at distance 1 (b touched since), b at 1, a at 2 (b, c).
        assert_eq!(hist, vec![0, 2, 1]);
    }

    #[test]
    fn measure_detects_perfect_streaming() {
        let trace: Vec<u64> = (0..100u64).map(|i| i * 64).collect();
        let (hist, cold) = measure(&trace, 64);
        assert_eq!(cold, 100);
        assert!(hist.iter().all(|&h| h == 0));
    }

    #[test]
    fn generate_is_reproducible() {
        let p = StackDistanceProfile::geometric(0.5, 8, 0.1);
        assert_eq!(p.generate(500, 64, 1), p.generate(500, 64, 1));
        assert_ne!(p.generate(500, 64, 1), p.generate(500, 64, 2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = StackDistanceProfile::new(vec![1.0, -0.5], 0.0);
    }
}
