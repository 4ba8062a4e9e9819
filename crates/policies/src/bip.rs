//! Bimodal insertion policy (Qureshi et al., ISCA 2007).

use crate::recency::RecencyStack;
use crate::rng::Prng;
use crate::{check_assoc, ReplacementPolicy};

/// The bimodal insertion policy.
///
/// Like LIP ([`PolicyKind::Lip`](crate::PolicyKind::Lip)), but with probability `1/throttle` a new line
/// is inserted at the MRU position instead of the LRU position. This lets
/// a small fraction of a streaming working set age into the cache, which
/// recovers LRU-like behaviour when the working set *does* fit while
/// keeping LIP's thrash resistance when it does not.
///
/// BIP is stochastic and therefore **not** a permutation policy; the
/// reverse-engineering pipeline in `cachekit-core` must reject it (its
/// measurements are not reproducible), which makes it a useful negative
/// test input.
#[derive(Debug, Clone)]
pub struct Bip {
    stack: RecencyStack,
    throttle: u32,
    rng: Prng,
    seed: u64,
}

impl Bip {
    /// Create a BIP policy with MRU-insertion probability `1/throttle`.
    ///
    /// `seed` makes the policy reproducible across runs.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, or if `throttle` is 0.
    pub fn new(assoc: usize, throttle: u32, seed: u64) -> Self {
        check_assoc(assoc);
        assert!(throttle >= 1, "throttle must be at least 1");
        Self {
            stack: RecencyStack::new(assoc),
            throttle,
            rng: Prng::seed_from_u64(seed),
            seed,
        }
    }

    /// The configured throttle (MRU insertion happens with probability
    /// `1/throttle`).
    pub fn throttle(&self) -> u32 {
        self.throttle
    }
}

impl ReplacementPolicy for Bip {
    fn associativity(&self) -> usize {
        self.stack.assoc()
    }

    fn name(&self) -> String {
        format!("BIP-1/{}", self.throttle)
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.stack.most_recent(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.stack.lru_way()
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        if self.rng.gen_ratio(1, self.throttle) {
            self.stack.most_recent(way);
        } else {
            self.stack.least_recent(way);
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.stack.least_recent(way);
    }

    fn reset(&mut self) {
        self.stack.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.stack.key()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.stack.write_key(out);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_one_behaves_like_lru_insertion() {
        let mut p = Bip::new(3, 1, 7);
        for w in 0..3 {
            p.on_fill(w);
        }
        // Every insertion went to MRU, so fill order is recency order.
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn mostly_inserts_at_lru() {
        let mut p = Bip::new(4, 32, 42);
        for w in 0..4 {
            p.on_fill(w);
        }
        // Count how often a fresh fill is the next victim (LRU insertion).
        let mut lru_insertions = 0;
        let trials = 1000;
        for _ in 0..trials {
            let v = p.victim();
            p.on_fill(v);
            if p.victim() == v {
                lru_insertions += 1;
            }
        }
        assert!(
            lru_insertions > trials * 9 / 10,
            "expected >90% LRU insertions, got {lru_insertions}/{trials}"
        );
    }

    #[test]
    fn reset_reseeds_rng() {
        let mut a = Bip::new(4, 2, 9);
        let mut decisions = Vec::new();
        for _ in 0..32 {
            let v = a.victim();
            a.on_fill(v);
            decisions.push(a.state_key());
        }
        a.reset();
        for d in &decisions {
            let v = a.victim();
            a.on_fill(v);
            assert_eq!(&a.state_key(), d, "replay after reset must match");
        }
    }

    #[test]
    fn reports_non_deterministic() {
        assert!(!Bip::new(2, 2, 0).is_deterministic());
    }
}
