//! Tree-based pseudo-LRU replacement.

use crate::{check_assoc, check_way, ReplacementPolicy};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Reference to a node in the PLRU tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    /// An internal decision node (index into the bit vector).
    Internal(usize),
    /// A leaf holding a way index.
    Leaf(usize),
}

/// Tree-based pseudo-LRU (PLRU), the replacement policy of the L1 and L2
/// caches of the Intel Core 2 and Atom families targeted by the paper.
///
/// The ways are the leaves of a binary tree; every internal node holds one
/// bit that points towards the *less* recently used subtree. An access
/// flips the bits on its root-to-leaf path to point away from the accessed
/// way; the victim is found by following the bits from the root.
///
/// For power-of-two associativity this is the textbook PLRU. For other
/// associativities (e.g. the 6-way L1 of the Intel Atom D525 or the 24-way
/// L2 of the Core 2 Duo E8400) the tree is built as balanced as possible,
/// with the left subtree taking the extra leaf — the standard
/// generalisation used by hardware with non-power-of-two ways.
///
/// PLRU needs only `A - 1` state bits instead of LRU's `log2(A!)`, which is
/// why hardware prefers it; the price is that its eviction behaviour only
/// approximates recency order, a difference the paper's evaluation (and our
/// reproduction of it) quantifies.
///
/// # Example
///
/// ```
/// use cachekit_policies::{TreePlru, ReplacementPolicy};
///
/// let mut p = TreePlru::new(4);
/// for w in 0..4 {
///     p.on_fill(w);
/// }
/// // After filling 0,1,2,3 the tree points at way 0.
/// assert_eq!(p.victim(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TreePlru {
    assoc: usize,
    /// One bit per internal node (bit `i` = node `i`); `0` = victim
    /// search goes left, `1` = it goes right. At most 127 internal nodes
    /// exist (associativity is capped at 128), so the whole replacement
    /// state is one inline word.
    bits: u128,
    /// The tree structure — a pure function of the associativity, built
    /// once per associativity and shared by every instance.
    shape: Arc<TreeShape>,
}

/// Immutable structure of the PLRU tree for one associativity: the
/// victim-walk topology plus, per way, the path masks a touch applies.
/// Shared (and memoized process-wide) because it never changes — only
/// the bit word does — so thousands of sets running the same policy keep
/// one hot copy in cache instead of a private one each.
#[derive(Debug)]
pub(crate) struct TreeShape {
    /// Children of each internal node.
    pub(crate) children: Vec<(NodeRefRepr, NodeRefRepr)>,
    /// Every internal node on the way's root-to-leaf path.
    pub(crate) path: Vec<u128>,
    /// The path nodes whose bit a touch sets (way in the left subtree,
    /// so the victim search must go right).
    pub(crate) away: Vec<u128>,
    pub(crate) root: NodeRefRepr,
}

/// Build (or fetch the memoized) tree shape for `assoc` ways.
pub(crate) fn shape_for(assoc: usize) -> Arc<TreeShape> {
    type Memo = Mutex<HashMap<usize, Arc<TreeShape>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let mut guard = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard
        .entry(assoc)
        .or_insert_with(|| {
            let mut children = Vec::new();
            let root = TreePlru::build(0, assoc, &mut children);
            let mut paths = vec![Vec::new(); assoc];
            TreePlru::record_paths(root, &children, &mut Vec::new(), &mut paths);
            let mut path = vec![0u128; assoc];
            let mut away = vec![0u128; assoc];
            for (way, p) in paths.iter().enumerate() {
                for &(node, went_left) in p {
                    path[way] |= 1u128 << node;
                    if went_left {
                        away[way] |= 1u128 << node;
                    }
                }
            }
            Arc::new(TreeShape {
                children,
                path,
                away,
                root,
            })
        })
        .clone()
}

impl PartialEq for TreePlru {
    fn eq(&self, other: &Self) -> bool {
        // The shape is a function of the associativity, so two policies
        // are equal iff their associativity and bit words agree.
        self.assoc == other.assoc && self.bits == other.bits
    }
}

impl Eq for TreePlru {}

impl std::hash::Hash for TreePlru {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.assoc.hash(state);
        self.bits.hash(state);
    }
}

// A compact, hashable representation of NodeRef (usize with tag bit).
pub(crate) type NodeRefRepr = isize;

fn encode(n: NodeRef) -> NodeRefRepr {
    match n {
        NodeRef::Internal(i) => i as isize,
        NodeRef::Leaf(w) => -(w as isize) - 1,
    }
}

fn decode(r: NodeRefRepr) -> NodeRef {
    if r >= 0 {
        NodeRef::Internal(r as usize)
    } else {
        NodeRef::Leaf((-r - 1) as usize)
    }
}

impl TreePlru {
    /// Create a tree-PLRU policy for a set with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128.
    pub fn new(assoc: usize) -> Self {
        check_assoc(assoc);
        Self {
            assoc,
            bits: 0,
            shape: shape_for(assoc),
        }
    }

    /// Recursively build a balanced tree over ways `lo..hi`, returning the
    /// subtree root. The left subtree receives the extra leaf when the
    /// range is odd.
    fn build(lo: usize, hi: usize, children: &mut Vec<(NodeRefRepr, NodeRefRepr)>) -> NodeRefRepr {
        debug_assert!(hi > lo);
        if hi - lo == 1 {
            return encode(NodeRef::Leaf(lo));
        }
        let mid = lo + (hi - lo).div_ceil(2);
        let left = Self::build(lo, mid, children);
        let right = Self::build(mid, hi, children);
        let idx = children.len();
        children.push((left, right));
        encode(NodeRef::Internal(idx))
    }

    fn record_paths(
        node: NodeRefRepr,
        children: &[(NodeRefRepr, NodeRefRepr)],
        prefix: &mut Vec<(usize, bool)>,
        paths: &mut [Vec<(usize, bool)>],
    ) {
        match decode(node) {
            NodeRef::Leaf(w) => paths[w] = prefix.clone(),
            NodeRef::Internal(i) => {
                let (l, r) = children[i];
                prefix.push((i, true));
                Self::record_paths(l, children, prefix, paths);
                prefix.pop();
                prefix.push((i, false));
                Self::record_paths(r, children, prefix, paths);
                prefix.pop();
            }
        }
    }

    /// Flip the bits on `way`'s path to point away from it: two mask
    /// operations on the inline bit word.
    #[inline]
    fn touch(&mut self, way: usize) {
        check_way(way, self.assoc);
        self.bits = (self.bits & !self.shape.path[way]) | self.shape.away[way];
    }

    /// The raw bit word, for the batch kernels in [`crate::kernel`].
    pub(crate) fn bits_word(&self) -> u128 {
        self.bits
    }

    pub(crate) fn set_bits_word(&mut self, bits: u128) {
        self.bits = bits;
    }

    /// The current PLRU bits (for inspection and tests), in node order.
    pub fn bits(&self) -> Vec<bool> {
        (0..self.shape.children.len())
            .map(|i| (self.bits >> i) & 1 != 0)
            .collect()
    }
}

impl ReplacementPolicy for TreePlru {
    fn associativity(&self) -> usize {
        self.assoc
    }

    fn name(&self) -> String {
        "PLRU".to_owned()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.touch(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        let mut node = self.shape.root;
        loop {
            match decode(node) {
                NodeRef::Leaf(w) => return w,
                NodeRef::Internal(i) => {
                    let (l, r) = self.shape.children[i];
                    node = if (self.bits >> i) & 1 != 0 { r } else { l };
                }
            }
        }
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.touch(way);
    }

    fn reset(&mut self) {
        self.bits = 0;
    }

    fn state_key(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_state_key(&mut out);
        out
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        // Same bytes as the old `Vec<bool>` representation serialized:
        // one 0/1 byte per internal node, in node order.
        out.extend((0..self.shape.children.len()).map(|i| ((self.bits >> i) & 1) as u8));
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
    fn two_way_plru_equals_lru() {
        let mut plru = TreePlru::new(2);
        let mut lru = PolicyKind::Lru.build_state(2, 0);
        let script = [0usize, 1, 1, 0, 1, 0, 0, 1, 1];
        for &w in &script {
            plru.on_hit(w);
            lru.on_hit(w);
            assert_eq!(plru.victim(), lru.victim());
        }
    }

    #[test]
    fn four_way_victim_walk() {
        let mut p = TreePlru::new(4);
        // Fill 0,1,2,3. After each access the path bits point away.
        for w in 0..4 {
            p.on_fill(w);
        }
        // Accessing 3 last: root points left, left pair points to 0.
        assert_eq!(p.victim(), 0);
        p.on_hit(0);
        // Now root points right; right pair last touched 3 -> points to 2.
        assert_eq!(p.victim(), 2);
        p.on_hit(2);
        assert_eq!(p.victim(), 1);
    }

    #[test]
    fn consecutive_misses_evict_every_way_once_pow2() {
        for assoc in [2usize, 4, 8, 16] {
            let mut p = TreePlru::new(assoc);
            for w in 0..assoc {
                p.on_fill(w);
            }
            let mut evicted = vec![false; assoc];
            for _ in 0..assoc {
                let v = p.victim();
                assert!(!evicted[v], "way {v} evicted twice (assoc {assoc})");
                evicted[v] = true;
                p.on_fill(v);
            }
            assert!(evicted.iter().all(|&e| e));
        }
    }

    #[test]
    fn plru_is_not_lru_at_four_ways() {
        // Classic PLRU anomaly: the victim is not always the least
        // recently used way.
        let mut plru = TreePlru::new(4);
        let mut lru = PolicyKind::Lru.build_state(4, 0);
        // Access pattern chosen so the tree points at a non-LRU way:
        // after 0,1,2,3 the hit on 0 flips the root to the right subtree,
        // where the pair bit points at way 2 — but way 1 is the LRU way.
        let script = [0usize, 1, 2, 3, 0];
        for &w in &script {
            plru.on_hit(w);
            lru.on_hit(w);
        }
        assert_eq!(lru.victim(), 1);
        assert_eq!(plru.victim(), 2);
    }

    #[test]
    fn non_power_of_two_assoc_is_supported() {
        for assoc in [3usize, 5, 6, 7, 12, 24] {
            let mut p = TreePlru::new(assoc);
            for w in 0..assoc {
                p.on_fill(w);
            }
            let v = p.victim();
            assert!(v < assoc);
            // A victim that is immediately refilled must not be the next
            // victim again (the touch must protect it).
            p.on_fill(v);
            assert_ne!(p.victim(), v, "assoc {assoc}");
        }
    }

    #[test]
    fn six_way_misses_cycle_through_all_ways() {
        let mut p = TreePlru::new(6);
        for w in 0..6 {
            p.on_fill(w);
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let v = p.victim();
            seen.insert(v);
            p.on_fill(v);
        }
        // The generalised tree may not produce a perfect cycle, but it must
        // touch a large fraction of the ways.
        assert!(seen.len() >= 4, "only {} distinct victims", seen.len());
    }

    #[test]
    fn reset_points_at_way_zero() {
        let mut p = TreePlru::new(8);
        for w in 0..8 {
            p.on_fill(w);
        }
        p.reset();
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn state_key_has_assoc_minus_one_bits() {
        for assoc in [1usize, 2, 4, 6, 8, 24] {
            let p = TreePlru::new(assoc);
            assert_eq!(p.state_key().len(), assoc - 1);
        }
    }

    #[test]
    fn assoc_one_is_degenerate() {
        let mut p = TreePlru::new(1);
        p.on_fill(0);
        assert_eq!(p.victim(), 0);
    }
}
