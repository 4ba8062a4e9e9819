//! The recency-stack policies: LRU, FIFO, LIP, SLRU and LazyLRU.
//!
//! In the permutation-policy formalism a policy is its hit permutations
//! plus its insertion position, and in those terms these five kinds
//! differ in two numbers only: the first stack position whose hit
//! promotes a line to the front, and the position a filled line is
//! inserted at ([`PolicyKind::recency_rule`] lists them). One
//! [`RecencyPolicy`] runs all five over one [`RecencyStack`].

use crate::{check_assoc, check_way, PolicyKind, ReplacementPolicy};

/// Largest associativity whose per-way bytes are stored inline.
const INLINE_WAYS: usize = 16;

/// One byte per way — a recency stack's way indices, or the ages of an
/// [`AgePolicy`](crate::AgePolicy). Catalog associativities (≤ 16 ways)
/// live inline so a set's policy state involves no heap pointer —
/// `PolicyState` carries the bytes by value, and a policy update touches
/// no cache line beyond the set itself. Wider configurations fall back
/// to a `Vec`.
///
/// The representation is a function of the associativity alone, and the
/// unused tail of the inline buffer stays zeroed, so the derived
/// equality/hash over the raw storage agree with equality of the bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum WayBytes {
    Inline { len: u8, buf: [u8; INLINE_WAYS] },
    Heap(Vec<u8>),
}

impl WayBytes {
    /// `assoc` bytes, way `w` holding `byte(w)`.
    pub(crate) fn from_fn(assoc: usize, byte: impl Fn(usize) -> u8) -> Self {
        check_assoc(assoc);
        if assoc <= INLINE_WAYS {
            let mut buf = [0u8; INLINE_WAYS];
            for (way, slot) in buf.iter_mut().enumerate().take(assoc) {
                *slot = byte(way);
            }
            WayBytes::Inline {
                len: assoc as u8,
                buf,
            }
        } else {
            WayBytes::Heap((0..assoc).map(byte).collect())
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            WayBytes::Inline { len, buf } => &buf[..*len as usize],
            WayBytes::Heap(v) => v,
        }
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            WayBytes::Inline { len, buf } => &mut buf[..*len as usize],
            WayBytes::Heap(v) => v,
        }
    }
}

/// A recency stack over way indices, shared by the LRU-family policies.
///
/// `stack[0]` is the most recently used way, `stack[assoc - 1]` the least
/// recently used (the eviction candidate).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RecencyStack {
    ways: WayBytes,
}

impl RecencyStack {
    pub(crate) fn new(assoc: usize) -> Self {
        Self {
            ways: WayBytes::from_fn(assoc, |way| way as u8),
        }
    }

    pub(crate) fn assoc(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        self.ways.as_mut_slice()
    }

    /// Position of `way` in the stack (0 = MRU).
    #[inline]
    pub(crate) fn position(&self, way: usize) -> usize {
        let stack = self.as_slice();
        check_way(way, stack.len());
        stack
            .iter()
            .position(|&w| w as usize == way)
            .expect("stack is a permutation of all ways")
    }

    /// Move `way` to the given position, shifting the ways in between.
    #[inline]
    pub(crate) fn move_to(&mut self, way: usize, pos: usize) {
        let cur = self.position(way);
        let stack = self.as_mut_slice();
        // One in-place rotate instead of remove + insert: same result,
        // but a single bounded memmove with no Vec length bookkeeping.
        if cur < pos {
            stack[cur..=pos].rotate_left(1);
        } else {
            stack[pos..=cur].rotate_right(1);
        }
    }

    #[inline]
    pub(crate) fn most_recent(&mut self, way: usize) {
        // At 8 ways the whole stack is one little-endian u64 (byte 0 =
        // MRU): locate the way's byte with the SWAR zero-byte trick and
        // rotate the prefix with shifts — the single hottest policy
        // update in the simulator, an order faster than scan + memmove.
        if let Ok(bytes) = <&mut [u8; 8]>::try_from(self.as_mut_slice()) {
            check_way(way, 8);
            let w = u64::from_le_bytes(*bytes);
            let x = w ^ 0x0101_0101_0101_0101u64.wrapping_mul(way as u64);
            // The stack is a permutation, so exactly one byte of x is
            // zero; the subtract-borrow detector flags the lowest one.
            let zeros = x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080;
            let cur = zeros.trailing_zeros() as usize / 8;
            let low = ((1u128 << ((cur + 1) * 8)) - 1) as u64;
            let rotated = (w & !low) | (((w << 8) & low) | way as u64);
            *bytes = rotated.to_le_bytes();
            return;
        }
        self.move_to(way, 0);
    }

    #[inline]
    pub(crate) fn least_recent(&mut self, way: usize) {
        let last = self.assoc() - 1;
        self.move_to(way, last);
    }

    #[inline]
    pub(crate) fn lru_way(&self) -> usize {
        *self.as_slice().last().expect("associativity >= 1") as usize
    }

    pub(crate) fn reset(&mut self) {
        for (way, slot) in self.as_mut_slice().iter_mut().enumerate() {
            *slot = way as u8;
        }
    }

    pub(crate) fn key(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Append the key bytes to `out` without allocating.
    pub(crate) fn write_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_slice());
    }

    /// The stack from MRU to LRU, as way indices.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        self.ways.as_slice()
    }
}

/// How a recency-stack policy updates its stack, in the permutation
/// formalism's terms: a hit at stack position `i ≥ promote_from` moves
/// the line to the front (lower positions are left alone), and a fill
/// moves the line to `insert_at`. Read from
/// [`PolicyKind::recency_rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecencyRule {
    /// First stack position whose hit promotes the line to the front;
    /// the associativity itself means no hit ever does (FIFO).
    pub promote_from: usize,
    /// Stack position a filled line is inserted at (0 = MRU).
    pub insert_at: usize,
}

/// The kind a [`RecencyPolicy`] was built as. It names the policy; the
/// rule alone decides what the policy does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StackKind {
    Lru,
    Fifo,
    Lip,
    Slru,
    LazyLru,
}

/// LRU, FIFO, LIP, SLRU-k or LazyLRU: one recency stack driven by the
/// kind's [`RecencyRule`].
///
/// The victim is always the way at the bottom of the stack, and an
/// invalidated way drops to the bottom. Build one with
/// [`PolicyKind::build_state`].
///
/// # Example
///
/// ```
/// use cachekit_policies::{PolicyKind, ReplacementPolicy};
///
/// // LIP inserts at the bottom of the stack, so a new line is the next
/// // victim unless a hit promotes it first.
/// let mut p = PolicyKind::Lip.build_state(2, 0);
/// p.on_fill(0);
/// p.on_fill(1);
/// assert_eq!(p.victim(), 1);
/// p.on_hit(1);
/// assert_eq!(p.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecencyPolicy {
    stack: RecencyStack,
    promote_from: u8,
    insert_at: u8,
    kind: StackKind,
}

impl RecencyPolicy {
    /// The policy of a recency-stack `kind` at `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, if `kind` is not a
    /// recency-stack kind, or if its insertion position is not below
    /// the associativity (SLRU needs at least one probationary
    /// position).
    pub(crate) fn new(kind: PolicyKind, assoc: usize) -> Self {
        let stack = RecencyStack::new(assoc);
        let rule = kind
            .recency_rule(assoc)
            .unwrap_or_else(|| panic!("{kind:?} is not a recency-stack kind"));
        assert!(
            rule.insert_at < assoc,
            "insertion position {} leaves no probationary position at {assoc} ways",
            rule.insert_at
        );
        let kind = match kind {
            PolicyKind::Lru => StackKind::Lru,
            PolicyKind::Fifo => StackKind::Fifo,
            PolicyKind::Lip => StackKind::Lip,
            PolicyKind::Slru { .. } => StackKind::Slru,
            PolicyKind::LazyLru => StackKind::LazyLru,
            _ => unreachable!("only recency-stack kinds have a rule"),
        };
        Self {
            stack,
            promote_from: rule.promote_from as u8,
            insert_at: rule.insert_at as u8,
            kind,
        }
    }

    /// The kind this policy was built as.
    pub(crate) fn kind(&self) -> PolicyKind {
        match self.kind {
            StackKind::Lru => PolicyKind::Lru,
            StackKind::Fifo => PolicyKind::Fifo,
            StackKind::Lip => PolicyKind::Lip,
            StackKind::Slru => PolicyKind::Slru {
                protected: self.insert_at as usize,
            },
            StackKind::LazyLru => PolicyKind::LazyLru,
        }
    }

    /// The rule this policy runs.
    pub(crate) fn rule(&self) -> RecencyRule {
        RecencyRule {
            promote_from: self.promote_from as usize,
            insert_at: self.insert_at as usize,
        }
    }

    /// The raw recency stack, for the batch kernels in [`crate::kernel`]
    /// (which pack it into one SWAR word and unpack it back).
    pub(crate) fn stack(&self) -> &RecencyStack {
        &self.stack
    }

    pub(crate) fn stack_mut(&mut self) -> &mut RecencyStack {
        &mut self.stack
    }
}

impl ReplacementPolicy for RecencyPolicy {
    fn associativity(&self) -> usize {
        self.stack.assoc()
    }

    fn name(&self) -> String {
        self.kind().label()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        // Every hit promotes (LRU, LIP, SLRU) without a position scan;
        // FIFO's hits do no work; only a threshold inside the stack
        // (LazyLRU) reads the way's position first.
        let from = self.promote_from as usize;
        if from == 0 || (from < self.stack.assoc() && self.stack.position(way) >= from) {
            self.stack.most_recent(way);
        }
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.stack.lru_way()
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        match self.insert_at {
            0 => self.stack.most_recent(way),
            at => self.stack.move_to(way, at as usize),
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.stack.least_recent(way);
    }

    fn reset(&mut self) {
        self.stack.reset();
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
    use crate::conformance::{run_script, Step};

    /// The stack from MRU to LRU.
    fn order(p: &RecencyPolicy) -> Vec<usize> {
        p.stack.as_slice().iter().map(|&w| w as usize).collect()
    }

    /// Kind, ways, script, the victims of the script's `MissFill`s, and
    /// the final stack from MRU to LRU.
    type Case = (PolicyKind, usize, Vec<Step>, Vec<usize>, Vec<usize>);

    #[test]
    fn hand_computed_cases() {
        use Step::{Fill, Hit, Invalidate, MissFill};
        let fills = |assoc: usize| (0..assoc).map(Fill).collect::<Vec<_>>();
        // At two ways LazyLRU's threshold A/2 = 1 promotes exactly the
        // hits that change an LRU stack, so both run this script alike.
        let two_way = || {
            [
                fills(2),
                vec![Hit(1), Hit(0), Hit(1), MissFill, Hit(0), MissFill],
            ]
            .concat()
        };
        let cases: Vec<Case> = vec![
            // LRU: a hit moves a way to the front; the victim is the way
            // used longest ago; an invalidated way is the next victim.
            (
                PolicyKind::Lru,
                4,
                [fills(4), vec![Hit(0), Hit(2), Hit(1), MissFill]].concat(),
                vec![3],
                vec![3, 1, 2, 0],
            ),
            // LRU on a heap-backed 24-way stack runs the same protocol.
            (
                PolicyKind::Lru,
                24,
                [fills(24), vec![Hit(0), MissFill, Invalidate(5), MissFill]].concat(),
                vec![1, 5],
                [vec![5, 1, 0], (2..24).rev().filter(|&w| w != 5).collect()].concat(),
            ),
            // FIFO: hits protect nothing, lines leave in fill order.
            (
                PolicyKind::Fifo,
                3,
                vec![
                    Fill(2),
                    Fill(0),
                    Fill(1),
                    Hit(2),
                    Hit(2),
                    MissFill,
                    MissFill,
                ],
                vec![2, 0],
                vec![0, 2, 1],
            ),
            // LIP: a fill lands at the bottom, so a stream of misses
            // recycles one way while the hit lines stay resident.
            (
                PolicyKind::Lip,
                3,
                [fills(3), vec![Hit(0), Hit(1), MissFill, MissFill, MissFill]].concat(),
                vec![2, 2, 2],
                vec![1, 0, 2],
            ),
            (PolicyKind::Lru, 2, two_way(), vec![0, 1], vec![1, 0]),
            (PolicyKind::LazyLru, 2, two_way(), vec![0, 1], vec![1, 0]),
            // LazyLRU: hits in the younger half (positions 0..A/2) are
            // ignored, hits in the older half promote.
            (
                PolicyKind::LazyLru,
                4,
                [fills(4), vec![Hit(3), Hit(2), Hit(0), Hit(1), MissFill]].concat(),
                vec![2],
                vec![2, 1, 0, 3],
            ),
            // SLRU-2: a fill enters probation at position 2, below the two
            // protected lines, and a scan never evicts a protected line.
            (
                PolicyKind::Slru { protected: 2 },
                4,
                [fills(4), vec![Hit(0), Hit(1)], vec![MissFill; 4]].concat(),
                vec![2, 3, 2, 3],
                vec![1, 0, 3, 2],
            ),
        ];
        for (kind, assoc, script, victims, stack) in cases {
            let mut p = RecencyPolicy::new(kind, assoc);
            assert_eq!(run_script(&mut p, &script), victims, "{kind:?}@{assoc}");
            assert_eq!(order(&p), stack, "{kind:?}@{assoc}");
            p.reset();
            assert_eq!(
                order(&p),
                (0..assoc).collect::<Vec<_>>(),
                "{kind:?}@{assoc}"
            );
        }
    }

    #[test]
    fn names_and_kinds_round_trip() {
        for assoc in [1usize, 4, 24] {
            let mut kinds = vec![
                PolicyKind::Lru,
                PolicyKind::Fifo,
                PolicyKind::Lip,
                PolicyKind::LazyLru,
            ];
            kinds.extend((0..assoc).map(|protected| PolicyKind::Slru { protected }));
            for kind in kinds {
                let p = RecencyPolicy::new(kind, assoc);
                assert_eq!(p.kind(), kind);
                assert_eq!(p.name(), kind.label());
                assert_eq!(Some(p.rule()), kind.recency_rule(assoc));
            }
        }
    }

    #[test]
    #[should_panic(expected = "probationary")]
    fn fully_protected_slru_is_rejected() {
        let _ = RecencyPolicy::new(PolicyKind::Slru { protected: 4 }, 4);
    }

    #[test]
    #[should_panic(expected = "way index")]
    fn hit_out_of_range_panics() {
        RecencyPolicy::new(PolicyKind::Lru, 2).on_hit(2);
    }
}
