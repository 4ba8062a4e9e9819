//! Inline, enum-dispatched policy state — the allocation-free execution
//! engine behind every cache set.
//!
//! [`PolicyState`] holds one variant per [`PolicyKind`](crate::PolicyKind)
//! (plus [`Other`](PolicyState::Other) for policies outside the kind
//! catalog, such as the DIP/DRRIP set-dueling families). The simulator
//! stores it *inline* in each set: no heap box per set, no virtual call
//! per access — every `on_hit`/`victim`/`on_fill` is a direct `match`
//! that the compiler can inline into the access loop.
//!
//! `PolicyState` itself implements [`ReplacementPolicy`], so boxing one
//! gives a trait object with identical behaviour where one is needed.

use crate::{
    Bip, BitPlru, Clock, Fifo, LazyLru, Lip, Lru, Nru, Qlru, RandomPolicy, ReplacementPolicy, Slru,
    TreePlru,
};
use crate::{Brrip, Srrip};

/// Replacement state of one cache set, dispatched by `match` instead of
/// through a vtable.
///
/// Construct it with [`PolicyKind::build_state`](crate::PolicyKind::build_state),
/// via the `From` conversions from the concrete policy types, or wrap an
/// arbitrary boxed policy with [`from_boxed`](Self::from_boxed).
///
/// All trait methods behave bit-identically to the wrapped concrete
/// policy; `tests/engine_differential.rs` enforces this for every
/// differential kind.
#[derive(Debug, Clone)]
pub enum PolicyState {
    /// Least recently used.
    Lru(Lru),
    /// First-in first-out.
    Fifo(Fifo),
    /// Tree-based pseudo-LRU.
    TreePlru(TreePlru),
    /// Bit-based pseudo-LRU.
    BitPlru(BitPlru),
    /// Not recently used.
    Nru(Nru),
    /// CLOCK / second chance.
    Clock(Clock),
    /// LRU-insertion policy.
    Lip(Lip),
    /// Segmented LRU.
    Slru(Slru),
    /// Bimodal insertion policy (boxed: stochastic policies carry a
    /// PRNG, and keeping the fat rare variants behind a pointer keeps
    /// the enum — and every cache set embedding it — small).
    Bip(Box<Bip>),
    /// Static RRIP.
    Srrip(Srrip),
    /// Quad-age LRU.
    Qlru(Qlru),
    /// Bimodal RRIP (boxed, like [`PolicyState::Bip`]).
    Brrip(Box<Brrip>),
    /// Uniform random replacement (boxed, like [`PolicyState::Bip`]).
    Random(Box<RandomPolicy>),
    /// LRU with lazy promotion.
    LazyLru(LazyLru),
    /// Any policy outside the [`PolicyKind`](crate::PolicyKind) catalog
    /// (set-dueling DIP/DRRIP members, derived permutation policies,
    /// compiled-table adapters). Pays the old boxed dispatch cost.
    Other(Box<dyn ReplacementPolicy>),
}

/// Dispatch an expression over every variant's inner policy.
macro_rules! dispatch {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            PolicyState::Lru($p) => $e,
            PolicyState::Fifo($p) => $e,
            PolicyState::TreePlru($p) => $e,
            PolicyState::BitPlru($p) => $e,
            PolicyState::Nru($p) => $e,
            PolicyState::Clock($p) => $e,
            PolicyState::Lip($p) => $e,
            PolicyState::Slru($p) => $e,
            PolicyState::Bip($p) => $e,
            PolicyState::Srrip($p) => $e,
            PolicyState::Qlru($p) => $e,
            PolicyState::Brrip($p) => $e,
            PolicyState::Random($p) => $e,
            PolicyState::LazyLru($p) => $e,
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

    /// Static family label of the variant, e.g. `"LRU"` or `"SRRIP"`.
    ///
    /// Unlike [`ReplacementPolicy::name`] this does not allocate and
    /// does not carry parameters (`"SLRU"`, not `"SLRU-2"`); `Other`
    /// policies all report `"other"`.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyState::Lru(_) => "LRU",
            PolicyState::Fifo(_) => "FIFO",
            PolicyState::TreePlru(_) => "PLRU",
            PolicyState::BitPlru(_) => "BitPLRU",
            PolicyState::Nru(_) => "NRU",
            PolicyState::Clock(_) => "CLOCK",
            PolicyState::Lip(_) => "LIP",
            PolicyState::Slru(_) => "SLRU",
            PolicyState::Bip(_) => "BIP",
            PolicyState::Srrip(_) => "SRRIP",
            PolicyState::Qlru(_) => "QLRU",
            PolicyState::Brrip(_) => "BRRIP",
            PolicyState::Random(_) => "Random",
            PolicyState::LazyLru(_) => "LazyLRU",
            PolicyState::Other(_) => "other",
        }
    }

    /// Visit the concrete policy behind the enum with a generic visitor.
    ///
    /// This is the monomorphization hook for batched loops: the visitor's
    /// `visit` is instantiated once per concrete policy type, so the body
    /// runs with the policy's methods statically dispatched (and inlined)
    /// rather than matched per call. `Other` visits the boxed trait
    /// object and keeps dynamic dispatch.
    pub fn visit_concrete<V: StateVisitor>(&mut self, visitor: V) -> V::Output {
        // The boxed variants deref explicitly: `Box<Bip>` itself does not
        // implement `ReplacementPolicy`, the policy inside it does.
        match self {
            PolicyState::Lru(p) => visitor.visit(p),
            PolicyState::Fifo(p) => visitor.visit(p),
            PolicyState::TreePlru(p) => visitor.visit(p),
            PolicyState::BitPlru(p) => visitor.visit(p),
            PolicyState::Nru(p) => visitor.visit(p),
            PolicyState::Clock(p) => visitor.visit(p),
            PolicyState::Lip(p) => visitor.visit(p),
            PolicyState::Slru(p) => visitor.visit(p),
            PolicyState::Bip(p) => visitor.visit(&mut **p),
            PolicyState::Srrip(p) => visitor.visit(p),
            PolicyState::Qlru(p) => visitor.visit(p),
            PolicyState::Brrip(p) => visitor.visit(&mut **p),
            PolicyState::Random(p) => visitor.visit(&mut **p),
            PolicyState::LazyLru(p) => visitor.visit(p),
            PolicyState::Other(p) => visitor.visit(&mut **p),
        }
    }
}

/// A generic visitor over the concrete policy inside a [`PolicyState`];
/// see [`PolicyState::visit_concrete`].
pub trait StateVisitor {
    /// Result returned by the visit.
    type Output;
    /// Called with the concrete policy (statically dispatched for the
    /// catalog variants).
    fn visit<P: ReplacementPolicy + ?Sized>(self, policy: &mut P) -> Self::Output;
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

macro_rules! from_concrete {
    ($($ty:ident),* $(,)?) => {
        $(impl From<$ty> for PolicyState {
            fn from(p: $ty) -> Self {
                PolicyState::$ty(p)
            }
        })*
    };
}

from_concrete!(Lru, Fifo, TreePlru, BitPlru, Nru, Clock, Lip, Slru, Srrip, Qlru, LazyLru,);

impl From<Bip> for PolicyState {
    fn from(p: Bip) -> Self {
        PolicyState::Bip(Box::new(p))
    }
}

impl From<Brrip> for PolicyState {
    fn from(p: Brrip) -> Self {
        PolicyState::Brrip(Box::new(p))
    }
}

impl From<RandomPolicy> for PolicyState {
    fn from(p: RandomPolicy) -> Self {
        PolicyState::Random(Box::new(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn enum_matches_concrete_step_for_step() {
        let mut concrete = Lru::new(4);
        let mut state = PolicyState::from(Lru::new(4));
        for w in [0usize, 1, 2, 3, 1, 0] {
            concrete.on_fill(w);
            state.on_fill(w);
        }
        concrete.on_hit(2);
        state.on_hit(2);
        assert_eq!(concrete.victim(), state.victim());
        assert_eq!(concrete.state_key(), state.state_key());
    }

    #[test]
    fn labels_are_static_family_names() {
        assert_eq!(
            PolicyState::from(Slru::new(4, 2)).label(),
            "SLRU",
            "label drops parameters"
        );
        assert_eq!(
            PolicyState::from_boxed(Box::new(Lru::new(2))).label(),
            "other"
        );
    }

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

    #[test]
    fn visitor_reaches_the_concrete_policy() {
        struct Victim;
        impl StateVisitor for Victim {
            type Output = usize;
            fn visit<P: ReplacementPolicy + ?Sized>(self, p: &mut P) -> usize {
                p.victim()
            }
        }
        let mut state = PolicyKind::Fifo.build_state(4, 0);
        for w in 0..4 {
            state.on_fill(w);
        }
        assert_eq!(state.visit_concrete(Victim), 0);
    }
}
