//! Bimodal re-reference interval prediction (Jaleel et al., ISCA 2010).
//! Static RRIP is an age-counter kind ([`AgePolicy`]).

use crate::rng::Prng;
use crate::{AgePolicy, PolicyKind, ReplacementPolicy};

/// Bimodal re-reference interval prediction (BRRIP).
///
/// Like SRRIP but fills usually predict a *distant* re-reference (the
/// saturation age) and only occasionally (`1/throttle`) a long one,
/// mirroring the LIP→BIP relationship. Stochastic, hence not a
/// permutation policy.
#[derive(Debug, Clone)]
pub struct Brrip {
    inner: AgePolicy,
    throttle: u32,
    rng: Prng,
    seed: u64,
}

impl Brrip {
    /// Create a BRRIP policy with `bits`-wide RRPVs and long-insertion
    /// probability `1/throttle`.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, if `bits` is outside
    /// `1..=7` or if `throttle` is 0.
    pub fn new(assoc: usize, bits: u8, throttle: u32, seed: u64) -> Self {
        assert!(throttle >= 1, "throttle must be at least 1");
        Self {
            inner: AgePolicy::new(PolicyKind::Srrip { bits }, assoc),
            throttle,
            rng: Prng::seed_from_u64(seed),
            seed,
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn associativity(&self) -> usize {
        self.inner.associativity()
    }

    fn name(&self) -> String {
        match self.inner.kind() {
            PolicyKind::Srrip { bits } => PolicyKind::Brrip {
                bits,
                throttle: self.throttle,
            }
            .label(),
            _ => unreachable!("BRRIP runs SRRIP's ages"),
        }
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.inner.on_hit(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.inner.victim()
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        if self.rng.gen_ratio(1, self.throttle) {
            self.inner.on_fill(way);
        } else {
            self.inner.fill_distant(way);
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.inner.on_invalidate(way);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.inner.state_key()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.inner.write_state_key(out);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(4, 2, 32, 11);
        for w in 0..4 {
            p.on_fill(w);
        }
        let mut distant = 0;
        let trials = 1000;
        for _ in 0..trials {
            let v = p.victim();
            p.on_fill(v);
            if p.state_key()[v] == 3 {
                distant += 1;
            }
        }
        assert!(distant > trials * 9 / 10, "only {distant}/{trials} distant");
    }

    #[test]
    fn brrip_reset_replays() {
        let mut p = Brrip::new(4, 2, 2, 5);
        let mut seq = Vec::new();
        for _ in 0..32 {
            let v = p.victim();
            p.on_fill(v);
            seq.push((v, p.state_key()));
        }
        p.reset();
        for (v0, k0) in seq {
            let v = p.victim();
            p.on_fill(v);
            assert_eq!((v, p.state_key()), (v0, k0));
        }
    }
}
