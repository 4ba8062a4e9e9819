//! Executable permutation policies.

use crate::perm::Permutation;
use cachekit_policies::{PolicyKind, ReplacementPolicy};
use std::error::Error;
use std::fmt;

/// The complete description of a permutation policy: one hit permutation
/// per position plus the miss insertion position.
///
/// This is the object the reverse-engineering pipeline produces, the
/// catalog stores, and [`PermutationPolicy`] executes.
///
/// # Example
///
/// ```
/// use cachekit_core::perm::PermutationSpec;
/// use cachekit_policies::PolicyKind;
///
/// let lru = PermutationSpec::for_kind(PolicyKind::Lru, 4).unwrap();
/// assert_eq!(lru.insertion_position(), 0);
/// assert!(lru.hit_permutation(0).is_identity()); // MRU hit: no change
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PermutationSpec {
    hits: Vec<Permutation>,
    insertion: usize,
}

/// Error returned for inconsistent permutation-policy descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// No hit permutations were given.
    Empty,
    /// A hit permutation's size differs from the associativity.
    SizeMismatch {
        /// Index of the offending permutation.
        index: usize,
        /// Its size.
        len: usize,
        /// The expected associativity.
        assoc: usize,
    },
    /// The insertion position is not below the associativity.
    BadInsertion {
        /// The offending insertion position.
        position: usize,
        /// The associativity.
        assoc: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "a permutation spec needs at least one position"),
            SpecError::SizeMismatch { index, len, assoc } => write!(
                f,
                "hit permutation {index} has size {len}, expected {assoc}"
            ),
            SpecError::BadInsertion { position, assoc } => write!(
                f,
                "insertion position {position} out of range for associativity {assoc}"
            ),
        }
    }
}

impl Error for SpecError {}

impl PermutationSpec {
    /// Create a spec from hit permutations (position `i`'s update at index
    /// `i`) and the miss insertion position.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the permutations disagree in size or the
    /// insertion position is out of range.
    pub fn new(hits: Vec<Permutation>, insertion: usize) -> Result<Self, SpecError> {
        if hits.is_empty() {
            return Err(SpecError::Empty);
        }
        let assoc = hits.len();
        for (index, p) in hits.iter().enumerate() {
            if p.len() != assoc {
                return Err(SpecError::SizeMismatch {
                    index,
                    len: p.len(),
                    assoc,
                });
            }
        }
        if insertion >= assoc {
            return Err(SpecError::BadInsertion {
                position: insertion,
                assoc,
            });
        }
        Ok(Self { hits, insertion })
    }

    /// The spec of a catalog kind at `assoc` ways, or `None` for a kind
    /// the permutation formalism does not describe this way.
    ///
    /// LRU, FIFO, LIP, SLRU-k and LazyLRU are built from their
    /// [`PolicyKind::recency_rule`]: Π_i promotes position `i` to the
    /// front for `i ≥ promote_from` and is the identity below, and misses
    /// insert at `insert_at` (`None` where that position is not below
    /// the associativity). Tree-PLRU's spec is read out of the policy by
    /// [`derive_permutation_spec`](crate::perm::derive_permutation_spec),
    /// and is `None` where the derivation fails.
    ///
    /// # Example
    ///
    /// ```
    /// use cachekit_core::perm::PermutationSpec;
    /// use cachekit_policies::PolicyKind;
    ///
    /// let lip = PermutationSpec::for_kind(PolicyKind::Lip, 4).unwrap();
    /// assert_eq!(lip.insertion_position(), 3);
    /// assert!(PermutationSpec::for_kind(PolicyKind::Nru, 4).is_none());
    /// ```
    pub fn for_kind(kind: PolicyKind, assoc: usize) -> Option<Self> {
        if kind == PolicyKind::TreePlru {
            return crate::perm::derive_permutation_spec(Box::new(kind.build_state(assoc, 0))).ok();
        }
        let rule = kind.recency_rule(assoc)?;
        let hits = (0..assoc)
            .map(|i| {
                if i >= rule.promote_from {
                    Permutation::promote_to_front(assoc, i)
                } else {
                    Permutation::identity(assoc)
                }
            })
            .collect();
        Self::new(hits, rule.insert_at).ok()
    }

    /// Gradual promotion: a hit moves the touched line up by `step`
    /// positions (LRU is the limit `step >= assoc`; `step = 0` is FIFO).
    /// Found in designs that bound state-update work per access; a
    /// building block for exploring the permutation-policy space.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0.
    pub fn promote_by(assoc: usize, step: usize) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        let hits = (0..assoc)
            .map(|i| {
                let dest = i.saturating_sub(step);
                // Move position i to dest; positions dest..i shift down.
                let map = (0..assoc)
                    .map(|j| {
                        if j == i {
                            dest
                        } else if j >= dest && j < i {
                            j + 1
                        } else {
                            j
                        }
                    })
                    .collect();
                Permutation::new(map).expect("shift is a permutation")
            })
            .collect();
        Self { hits, insertion: 0 }
    }

    /// Number of ways.
    pub fn associativity(&self) -> usize {
        self.hits.len()
    }

    /// The hit permutation for position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn hit_permutation(&self, i: usize) -> &Permutation {
        &self.hits[i]
    }

    /// All hit permutations, position 0 first.
    pub fn hit_permutations(&self) -> &[Permutation] {
        &self.hits
    }

    /// The miss insertion position.
    pub fn insertion_position(&self) -> usize {
        self.insertion
    }

    /// Apply the miss update to a priority order: evict the last element,
    /// insert `incoming` at the insertion position.
    ///
    /// Returns the evicted element.
    ///
    /// # Panics
    ///
    /// Panics if `order` is empty or its length differs from the
    /// associativity.
    pub fn apply_miss<T: Clone>(&self, order: &mut Vec<T>, incoming: T) -> T {
        assert_eq!(order.len(), self.associativity(), "length mismatch");
        let evicted = order.pop().expect("associativity >= 1");
        order.insert(self.insertion, incoming);
        evicted
    }

    /// Apply the hit update for a hit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `order`'s length differs from the associativity or `i`
    /// is out of range.
    pub fn apply_hit<T: Clone>(&self, order: &mut Vec<T>, i: usize) {
        *order = self.hits[i].apply(order);
    }

    /// A compact multi-line rendering of the spec (one permutation per
    /// position, plus the insertion position) as printed in the paper's
    /// tables.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, p) in self.hits.iter().enumerate() {
            let _ = writeln!(s, "Π_{i} = {p}");
        }
        let _ = write!(s, "insert at {}", self.insertion);
        s
    }
}

impl fmt::Display for PermutationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PermutationSpec(A={}, insert@{})",
            self.associativity(),
            self.insertion
        )
    }
}

/// A runtime replacement policy driven by a [`PermutationSpec`].
///
/// The internal state is the priority order over *way indices*; the
/// victim is the way at the last position. Fills move the filled way to
/// the insertion position (which covers both the regular miss path and
/// warm-up fills into invalid ways).
///
/// # Example
///
/// ```
/// use cachekit_core::perm::{PermutationPolicy, PermutationSpec};
/// use cachekit_policies::{PolicyKind, ReplacementPolicy};
///
/// let lru = PermutationSpec::for_kind(PolicyKind::Lru, 2).unwrap();
/// let mut p = PermutationPolicy::new(lru);
/// p.on_fill(0);
/// p.on_fill(1);
/// p.on_hit(0);
/// assert_eq!(p.victim(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationPolicy {
    spec: PermutationSpec,
    /// Way indices ordered by priority; `order[0]` is most protected.
    order: Vec<u8>,
    label: String,
}

impl PermutationPolicy {
    /// Create a policy executing `spec`, labelled `"Perm(A=..)"`.
    pub fn new(spec: PermutationSpec) -> Self {
        let label = format!("Perm(A={})", spec.associativity());
        Self::with_label(spec, label)
    }

    /// Create a policy with a custom display label (e.g. the catalog name
    /// of the spec).
    pub fn with_label(spec: PermutationSpec, label: impl Into<String>) -> Self {
        let assoc = spec.associativity();
        Self {
            spec,
            order: (0..assoc as u8).collect(),
            label: label.into(),
        }
    }

    /// The spec being executed.
    pub fn spec(&self) -> &PermutationSpec {
        &self.spec
    }

    /// The current priority order over ways (most protected first).
    pub fn priority_order(&self) -> Vec<usize> {
        self.order.iter().map(|&w| w as usize).collect()
    }

    fn position_of(&self, way: usize) -> usize {
        assert!(
            way < self.order.len(),
            "way index {way} out of range for associativity {}",
            self.order.len()
        );
        self.order
            .iter()
            .position(|&w| w as usize == way)
            .expect("order contains every way")
    }
}

impl ReplacementPolicy for PermutationPolicy {
    fn associativity(&self) -> usize {
        self.order.len()
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(&mut self, way: usize) {
        let i = self.position_of(way);
        let mut order = std::mem::take(&mut self.order);
        self.spec.apply_hit(&mut order, i);
        self.order = order;
    }

    fn victim(&mut self) -> usize {
        *self.order.last().expect("associativity >= 1") as usize
    }

    fn on_fill(&mut self, way: usize) {
        // Move the filled way to the insertion position. When the way was
        // the victim (last position) this is exactly the miss update.
        let i = self.position_of(way);
        let w = self.order.remove(i);
        self.order.insert(self.spec.insertion_position(), w);
    }

    fn on_invalidate(&mut self, way: usize) {
        let i = self.position_of(way);
        let w = self.order.remove(i);
        self.order.push(w);
    }

    fn reset(&mut self) {
        let assoc = self.order.len();
        self.order.clear();
        self.order.extend(0..assoc as u8);
    }

    fn state_key(&self) -> Vec<u8> {
        self.order.clone()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.order);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: PolicyKind, assoc: usize) -> PermutationSpec {
        PermutationSpec::for_kind(kind, assoc).expect("a permutation kind")
    }

    /// Drive two policies with the same script and assert equal victims.
    fn assert_behaviourally_equal(
        mut a: Box<dyn ReplacementPolicy>,
        mut b: Box<dyn ReplacementPolicy>,
        script_seed: u64,
    ) {
        let assoc = a.associativity();
        let mut rng = cachekit_policies::rng::Prng::seed_from_u64(script_seed);
        for w in 0..assoc {
            a.on_fill(w);
            b.on_fill(w);
        }
        for step in 0..500 {
            if rng.gen_bool(0.6) {
                let w = rng.gen_range(0..assoc);
                a.on_hit(w);
                b.on_hit(w);
            } else {
                let va = a.victim();
                let vb = b.victim();
                assert_eq!(va, vb, "diverged at step {step}");
                a.on_fill(va);
                b.on_fill(vb);
            }
        }
    }

    #[test]
    fn for_kind_specs_behave_as_their_kinds() {
        // The interpreter over each recency-stack kind's spec, against the
        // enum policy the simulator runs for the same kind.
        for assoc in [1usize, 2, 3, 4, 8] {
            let mut kinds = vec![
                PolicyKind::Lru,
                PolicyKind::Fifo,
                PolicyKind::Lip,
                PolicyKind::LazyLru,
            ];
            kinds.extend((0..assoc).map(|protected| PolicyKind::Slru { protected }));
            for kind in kinds {
                assert_behaviourally_equal(
                    Box::new(PermutationPolicy::new(spec(kind, assoc))),
                    Box::new(kind.build_state(assoc, 0)),
                    assoc as u64,
                );
            }
        }
    }

    #[test]
    fn for_kind_declines_what_it_cannot_describe() {
        for kind in PolicyKind::non_permutation_kinds() {
            assert_eq!(PermutationSpec::for_kind(kind, 4), None, "{kind:?}");
        }
        assert_eq!(
            PermutationSpec::for_kind(PolicyKind::Random { seed: 1 }, 4),
            None
        );
        assert_eq!(
            PermutationSpec::for_kind(PolicyKind::Slru { protected: 4 }, 4),
            None,
            "no probationary position"
        );
    }

    #[test]
    fn spec_validation_errors() {
        assert_eq!(PermutationSpec::new(vec![], 0), Err(SpecError::Empty));
        let hits = vec![Permutation::identity(2), Permutation::identity(3)];
        assert!(matches!(
            PermutationSpec::new(hits, 0),
            Err(SpecError::SizeMismatch { index: 1, .. })
        ));
        let hits = vec![Permutation::identity(2), Permutation::identity(2)];
        assert!(matches!(
            PermutationSpec::new(hits, 2),
            Err(SpecError::BadInsertion { .. })
        ));
    }

    #[test]
    fn apply_miss_reports_eviction() {
        let spec = spec(PolicyKind::Lru, 3);
        let mut order = vec!['a', 'b', 'c'];
        let evicted = spec.apply_miss(&mut order, 'x');
        assert_eq!(evicted, 'c');
        assert_eq!(order, vec!['x', 'a', 'b']);
    }

    #[test]
    fn promote_by_spans_fifo_to_lru() {
        for assoc in [2usize, 4, 6] {
            assert_eq!(
                PermutationSpec::promote_by(assoc, 0),
                spec(PolicyKind::Fifo, assoc)
            );
            assert_eq!(
                PermutationSpec::promote_by(assoc, assoc),
                spec(PolicyKind::Lru, assoc)
            );
        }
    }

    #[test]
    fn promote_by_one_moves_gradually() {
        let spec = PermutationSpec::promote_by(4, 1);
        let mut order = vec!['a', 'b', 'c', 'd'];
        spec.apply_hit(&mut order, 2); // c moves up one
        assert_eq!(order, vec!['a', 'c', 'b', 'd']);
        spec.apply_hit(&mut order, 0); // already at the top: no change
        assert_eq!(order, vec!['a', 'c', 'b', 'd']);
    }

    #[test]
    fn promote_by_policies_round_trip_through_derivation() {
        use crate::perm::derive_permutation_spec;
        for step in [1usize, 2, 3] {
            let spec = PermutationSpec::promote_by(5, step);
            let derived =
                derive_permutation_spec(Box::new(PermutationPolicy::new(spec.clone()))).unwrap();
            assert_eq!(derived, spec, "step {step}");
        }
    }

    #[test]
    fn lip_spec_inserts_at_back() {
        let spec = spec(PolicyKind::Lip, 3);
        let mut order = vec!['a', 'b', 'c'];
        let evicted = spec.apply_miss(&mut order, 'x');
        assert_eq!(evicted, 'c');
        assert_eq!(order, vec!['a', 'b', 'x']);
    }

    #[test]
    fn policy_conforms_to_trait_contract() {
        for assoc in [1usize, 2, 4, 6] {
            cachekit_policies::conformance::assert_conformance(Box::new(PermutationPolicy::new(
                spec(PolicyKind::Lru, assoc),
            )));
            cachekit_policies::conformance::assert_conformance(Box::new(PermutationPolicy::new(
                spec(PolicyKind::Fifo, assoc),
            )));
        }
    }

    #[test]
    fn priority_order_tracks_updates() {
        let mut p = PermutationPolicy::new(spec(PolicyKind::Lru, 3));
        p.on_fill(0);
        p.on_fill(1);
        p.on_fill(2);
        assert_eq!(p.priority_order(), vec![2, 1, 0]);
        p.on_hit(0);
        assert_eq!(p.priority_order(), vec![0, 2, 1]);
    }

    #[test]
    fn render_lists_all_permutations() {
        let s = spec(PolicyKind::Lru, 2).render();
        assert!(s.contains("Π_0"));
        assert!(s.contains("Π_1"));
        assert!(s.contains("insert at 0"));
    }

    #[test]
    fn different_specs_give_different_behaviour() {
        // Sanity: FIFO and LRU specs diverge on a hit-protect pattern.
        let mut lru = PermutationPolicy::new(spec(PolicyKind::Lru, 2));
        let mut fifo = PermutationPolicy::new(spec(PolicyKind::Fifo, 2));
        for p in [&mut lru, &mut fifo] {
            p.on_fill(0);
            p.on_fill(1);
            p.on_hit(0);
        }
        assert_eq!(lru.victim(), 1);
        assert_eq!(fifo.victim(), 0);
    }

    #[test]
    fn works_inside_a_simulated_cache() {
        use cachekit_sim::{Cache, CacheConfig};
        let cfg = CacheConfig::new(1024, 4, 64).unwrap();
        let spec = spec(PolicyKind::Lru, 4);
        let mut ours = Cache::with_policy_factory(cfg, "Perm-LRU", |_| {
            Box::new(PermutationPolicy::new(spec.clone()))
        });
        let mut reference = Cache::new(cfg, PolicyKind::Lru);
        let trace: Vec<u64> = (0..4000u64).map(|i| (i * 131) % 8192).collect();
        let a = ours.run_trace(trace.iter().copied());
        let b = reference.run_trace(trace.iter().copied());
        assert_eq!(a, b);
    }
}
