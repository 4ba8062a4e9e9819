//! Inline, enum-dispatched policy state — the allocation-free execution
//! engine behind every cache set.
//!
//! [`PolicyState`] holds one variant per [`PolicyKind`](crate::PolicyKind),
//! except that the five recency-stack kinds share
//! [`Recency`](PolicyState::Recency), the three age-counter kinds share
//! [`Age`](PolicyState::Age) and the two bimodal kinds share
//! [`Bimodal`](PolicyState::Bimodal), plus [`Other`](PolicyState::Other)
//! for policies outside the kind catalog, such as the sets of a DIP or
//! DRRIP duel. The simulator stores it *inline* in each set:
//! no virtual call per access — every `on_hit`/`victim`/`on_fill` is a
//! direct `match` that the compiler can inline into the access loop —
//! and, for every deterministic kind up to 16 ways, no heap allocation
//! per set (`tests/inline_policy_state.rs` counts them).
//!
//! `PolicyState` itself implements [`ReplacementPolicy`], so boxing one
//! gives a trait object with identical behaviour where one is needed.

use crate::{
    AgePolicy, Bimodal, BitPlru, Clock, RandomPolicy, RecencyPolicy, ReplacementPolicy, TreePlru,
};

/// Replacement state of one cache set, dispatched by `match` instead of
/// through a vtable.
///
/// Construct it with [`PolicyKind::build_state`](crate::PolicyKind::build_state),
/// or wrap an arbitrary boxed policy with [`from_boxed`](Self::from_boxed).
///
/// The enum is at most 48 bytes, so a `CacheSet` embedding it stays one
/// small contiguous block; `tests/engine_differential.rs` pins the size.
///
/// All trait methods behave bit-identically to the wrapped concrete
/// policy; `tests/engine_differential.rs` enforces this for every
/// differential kind.
#[derive(Debug, Clone)]
pub enum PolicyState {
    /// LRU, FIFO, LIP, SLRU-k or LazyLRU: one recency stack and the
    /// kind's [`RecencyRule`](crate::RecencyRule).
    Recency(RecencyPolicy),
    /// Tree-based pseudo-LRU.
    TreePlru(TreePlru),
    /// Bit-based pseudo-LRU.
    BitPlru(BitPlru),
    /// CLOCK / second chance.
    Clock(Clock),
    /// NRU, SRRIP-k or QLRU-i: one age per way and the kind's
    /// saturation and insertion ages.
    Age(AgePolicy),
    /// BIP-1/t or BRRIP-k-1/t: LRU or SRRIP-k, whose state it holds,
    /// with a bimodal fill (boxed: stochastic policies carry a PRNG, and
    /// keeping the fat rare variants behind a pointer keeps the enum —
    /// and every cache set embedding it — small).
    Bimodal(Box<Bimodal>),
    /// Uniform random replacement (boxed, like
    /// [`PolicyState::Bimodal`]).
    Random(Box<RandomPolicy>),
    /// Any policy outside the [`PolicyKind`](crate::PolicyKind) catalog
    /// (the sets of a DIP or DRRIP duel, derived permutation policies).
    /// Pays the old boxed dispatch cost.
    Other(Box<dyn ReplacementPolicy>),
}

/// Dispatch an expression over every variant's inner policy.
macro_rules! dispatch {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            PolicyState::Recency($p) => $e,
            PolicyState::TreePlru($p) => $e,
            PolicyState::BitPlru($p) => $e,
            PolicyState::Clock($p) => $e,
            PolicyState::Age($p) => $e,
            PolicyState::Bimodal($p) => $e,
            PolicyState::Random($p) => $e,
            PolicyState::Other($p) => $e,
        }
    };
}

impl PolicyState {
    /// Wrap an arbitrary boxed policy. The wrapped policy keeps its
    /// boxed dispatch cost; use the dedicated variants (via
    /// [`PolicyKind::build_state`](crate::PolicyKind::build_state)) for
    /// catalog policies.
    pub fn from_boxed(policy: Box<dyn ReplacementPolicy>) -> Self {
        PolicyState::Other(policy)
    }
}

impl ReplacementPolicy for PolicyState {
    #[inline]
    fn associativity(&self) -> usize {
        dispatch!(self, p => p.associativity())
    }

    fn name(&self) -> String {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        dispatch!(self, p => p.on_hit(way))
    }

    #[inline]
    fn victim(&mut self) -> usize {
        dispatch!(self, p => p.victim())
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        dispatch!(self, p => p.on_fill(way))
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        dispatch!(self, p => p.on_invalidate(way))
    }

    fn reset(&mut self) {
        dispatch!(self, p => p.reset())
    }

    fn is_deterministic(&self) -> bool {
        dispatch!(self, p => p.is_deterministic())
    }

    fn state_key(&self) -> Vec<u8> {
        dispatch!(self, p => p.state_key())
    }

    #[inline]
    fn write_state_key(&self, out: &mut Vec<u8>) {
        dispatch!(self, p => p.write_state_key(out))
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn name_and_determinism_delegate() {
        for kind in PolicyKind::differential_kinds() {
            let state = kind.build_state(4, 0);
            assert_eq!(state.name(), kind.label());
            assert_eq!(state.is_deterministic(), kind.is_deterministic());
        }
    }

    #[test]
    fn write_state_key_appends_exact_state_key() {
        for kind in PolicyKind::differential_kinds() {
            let mut state = kind.build_state(8, 3);
            for w in [0usize, 3, 1, 4] {
                state.on_fill(w);
            }
            let mut buf = vec![0xAA];
            state.write_state_key(&mut buf);
            assert_eq!(buf[0], 0xAA, "existing bytes untouched");
            assert_eq!(buf[1..], state.state_key(), "kind {kind:?}");
        }
    }
}
