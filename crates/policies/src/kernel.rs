//! Monomorphized per-(policy, associativity) batch access kernels.
//!
//! The enum engine in `docs/engine.md` dispatches one policy event at a
//! time. For the four policies whose whole replacement state fits in a
//! single machine word — LRU, FIFO, tree-PLRU and NRU at 4/8/16 ways —
//! this module compiles a **batch access loop per (policy,
//! associativity) pair**, selected once per batch:
//!
//! * the replacement state is one SWAR word (`u32`/`u64`/`u128` recency
//!   stack for LRU/FIFO, a bit word for PLRU/NRU), so a policy update is
//!   a handful of ALU ops with no memory traffic beyond the word itself;
//! * sets live in struct-of-arrays slabs sized to cache lines (an 8-way
//!   tag row is exactly one 64-byte line, and the slab base is aligned
//!   so rows never straddle lines);
//! * the batch loop is a **plain sequential pass with no unpredictable
//!   branch anywhere in its body**: the tag compare is a branchless
//!   SWAR scan, the mask reduces to a step "slot" (matched way, or a
//!   planted sentinel on a miss), and each kernel's
//!   [`LaneKernel::step_full`] folds hit and miss into one mask-blended
//!   update — tree-PLRU goes further and memoizes the whole step in a
//!   2048-entry packed LUT. With nothing to mispredict, out-of-order
//!   speculation runs many iterations deep and keeps future rows' loads
//!   in flight by itself (an explicit software probe-ahead window
//!   measured ~20% *slower* — its duplicate-set checks and staging were
//!   pure overhead);
//! * the loop is then reorder-buffer-bound, so the rows a fixed
//!   **lookahead** ahead are warmed into L1 with a cheap independent
//!   read (expressed through [`std::hint::black_box`] — this crate
//!   forbids `unsafe`, so the prefetch is a real load rather than a
//!   prefetch instruction; the effect, pulling the line in before the
//!   dependent access needs it, is the same);
//! * per-set policy words are stored at their natural width (tree-PLRU
//!   at 8 ways keeps one `u8` per set, so 16 K sets of tree state fit
//!   in 16 KiB of L1) via the [`TreeWord`] trait.
//!
//! [`KernelCache`] runs every kernel batch. `cachekit-sim`'s
//! `Cache::access_many` loads its sets into one with
//! [`KernelCache::load_set`], runs the batch through
//! [`KernelCache::access_many`] and stores the sets back with
//! [`KernelCache::store_set`]; the throughput benchmark times the same
//! loop as the inner-loop ceiling. It is bit-identical to the enum
//! engine — `tests/engine_differential.rs` pins kernel ≡ enum.

use crate::tree_plru::shape_for;
use crate::{PolicyKind, PolicyState, ReplacementPolicy};
use std::fmt::Debug;
use std::marker::PhantomData;

/// A word holding a recency stack as little-endian bytes (byte 0 = MRU,
/// byte `A - 1` = LRU). The word width equals the associativity, so the
/// whole word is the permutation.
pub trait StackWord: Copy + Debug + Eq + Send + Sync + 'static {
    /// Width in bytes (= the associativity the word can hold).
    const BYTES: usize;
    /// The broadcast-low-bit constant `0x0101…01`.
    const LO: Self;
    /// The broadcast-high-bit constant `0x8080…80`.
    const HI: Self;
    /// Assemble a word from stack bytes (`bytes.len() == BYTES`).
    fn from_stack(bytes: &[u8]) -> Self;
    /// Scatter the word back into stack bytes.
    fn to_stack(self, bytes: &mut [u8]);
    /// The SWAR zero-byte detector: the high bit of every byte equal to
    /// `way` is set. Borrow propagation can also raise false flags, but
    /// only above the lowest real match, so the lowest flag is exact.
    fn match_flags(self, way: u32) -> Self;
    /// Stack position of the lowest byte equal to `way`, read off the
    /// lowest [`match_flags`](Self::match_flags) bit. In a stack
    /// zero-padded above its last byte the real byte sits below the
    /// padding, so way 0 never matches a padding byte; a way absent from
    /// the word reads `BYTES`.
    fn position(self, way: u32) -> usize;
    /// Move the byte equal to `way` to position 0, shifting the bytes
    /// before it up — the LRU "promote to MRU" permutation, done with
    /// the SWAR zero-byte locate + prefix shift. Only the lowest byte
    /// equal to `way` moves, so a stack shorter than the word promotes
    /// correctly when zero-padded above its last byte (the enum
    /// engine's `RecencyStack::most_recent` relies on this).
    fn promote(self, way: u32) -> Self;
    /// Promote `way` only if it sits at stack position `from` or
    /// deeper, else leave the word unchanged — LazyLRU's hit. The two
    /// words are chosen with [`select`](Self::select), not a branch on
    /// the position.
    fn promote_from(self, way: u32, from: usize) -> Self;
    /// Fused full-set LRU step: promote the byte equal to `slot` when
    /// present, else rotate (a planted top-byte flag turns the absent
    /// miss sentinel into a match on the LRU tail), inserting `insert`
    /// at the MRU front. `insert` must be the victim way — `slot` on a
    /// hit, the old LRU byte on a miss.
    fn promote_or_rotate(self, slot: u32, insert: u32) -> Self;
    /// The byte at stack position `pos`.
    fn byte_at(self, pos: usize) -> u32;
    /// Promote the **last** (LRU) byte to MRU: every byte shifts up one
    /// and the old tail wraps to the front. `promote(byte_at(BYTES-1))`
    /// collapses to a plain byte rotate — no zero-byte search — which
    /// is the whole word update of a FIFO fill and of an LRU eviction.
    fn rotate_up(self) -> Self;
    /// Branch-free two-way select: `a` if `c`, else `b`, computed with
    /// a broadcast mask so the compiler cannot turn it back into a
    /// data-dependent branch.
    fn select(c: bool, a: Self, b: Self) -> Self;
}

macro_rules! stack_word {
    ($t:ty, $lo:expr, $hi:expr) => {
        impl StackWord for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            const LO: Self = $lo;
            const HI: Self = $hi;

            #[inline]
            fn from_stack(bytes: &[u8]) -> Self {
                debug_assert_eq!(bytes.len(), Self::BYTES);
                let mut w: $t = 0;
                for (i, &b) in bytes.iter().enumerate() {
                    w |= (b as $t) << (8 * i);
                }
                w
            }

            #[inline]
            fn to_stack(self, bytes: &mut [u8]) {
                debug_assert_eq!(bytes.len(), Self::BYTES);
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (self >> (8 * i)) as u8;
                }
            }

            #[inline(always)]
            fn match_flags(self, way: u32) -> Self {
                let x = self ^ Self::LO.wrapping_mul(way as $t);
                x.wrapping_sub(Self::LO) & !x & Self::HI
            }

            #[inline(always)]
            fn position(self, way: u32) -> usize {
                (self.match_flags(way).trailing_zeros() / 8) as usize
            }

            #[inline(always)]
            fn promote(self, way: u32) -> Self {
                // The stack is a permutation, so exactly one byte equals
                // `way`, and isolating the lowest match flag finds it
                // — shifting that bit up one builds the prefix mask
                // without a length branch (the shift falls off the top
                // when the match is the last byte, wrapping to an
                // all-ones mask, which is exactly the full-width case).
                let zeros = self.match_flags(way);
                let lowbit = zeros & zeros.wrapping_neg();
                let low = (lowbit << 1).wrapping_sub(1);
                (self & !low) | ((self << 8) & low) | (way as $t)
            }

            #[inline(always)]
            fn promote_or_rotate(self, slot: u32, insert: u32) -> Self {
                // `promote` and `rotate_up` fused for the full-set LRU
                // step: planting a flag on the top byte makes a missing
                // `slot` (the miss sentinel `ASSOC`, never a stack
                // value) "match" the LRU tail, and the prefix blend
                // then degrades to exactly the rotate. One pass, no
                // two-way select on the word — the select's extra mask
                // blend was the longest link in the LRU step's
                // dependency chain. The caller passes the victim way
                // as `insert` (on a hit that equals `slot`).
                let top = (1 as $t) << (<$t>::BITS - 1);
                let zeros = self.match_flags(slot) | top;
                let lowbit = zeros & zeros.wrapping_neg();
                let low = (lowbit << 1).wrapping_sub(1);
                (self & !low) | ((self << 8) & low) | (insert as $t)
            }

            #[inline(always)]
            fn promote_from(self, way: u32, from: usize) -> Self {
                Self::select(self.position(way) >= from, self.promote(way), self)
            }

            #[inline(always)]
            fn byte_at(self, pos: usize) -> u32 {
                ((self >> (8 * pos)) & 0xFF) as u32
            }

            #[inline(always)]
            fn rotate_up(self) -> Self {
                self.rotate_left(8)
            }

            #[inline(always)]
            fn select(c: bool, a: Self, b: Self) -> Self {
                let mask = (0 as $t).wrapping_sub(c as $t);
                (a & mask) | (b & !mask)
            }
        }
    };
}

stack_word!(u32, 0x0101_0101, 0x8080_8080);
stack_word!(u64, 0x0101_0101_0101_0101, 0x8080_8080_8080_8080);
stack_word!(
    u128,
    0x0101_0101_0101_0101_0101_0101_0101_0101,
    0x8080_8080_8080_8080_8080_8080_8080_8080
);

/// One monomorphized (policy, associativity) kernel: the per-set
/// replacement state is `Word`, and the five operations below are the
/// policy's event semantics over that word — exact mirrors of the
/// concrete `ReplacementPolicy` implementations, pinned by the
/// differential suite.
pub trait LaneKernel: Clone + Send + Sync + 'static {
    /// The associativity this kernel is compiled for.
    const ASSOC: usize;
    /// Packed per-set replacement state.
    type Word: Copy + Debug + Send + Sync + 'static;
    /// Stable kernel identifier, e.g. `"lru8/swar64"` (recorded in bench
    /// metadata and serve responses).
    fn label() -> &'static str;
    /// The cold (post-reset) state.
    fn cold(&self) -> Self::Word;
    /// Record a hit on `way`.
    fn hit(&self, w: &mut Self::Word, way: u32);
    /// Record a fill of `way`.
    fn fill(&self, w: &mut Self::Word, way: u32);
    /// Choose (and account) the eviction victim of a full set.
    fn victim(&self, w: &mut Self::Word) -> u32;
    /// Pack the matching `PolicyState` variant into a word (`None` if
    /// the state is not this kernel's policy/associativity).
    fn pack(&self, state: &PolicyState) -> Option<Self::Word>;
    /// Write the word back into the `PolicyState` it was packed from.
    fn unpack(&self, w: Self::Word, state: &mut PolicyState);

    /// One access step given the probe's match mask: pick the touched
    /// way, update the word and fill count, return `(way, hit)`. The
    /// reference composition of `hit`/`fill`/`victim`, branching per
    /// event, which each kernel's branchless
    /// [`step_full`](Self::step_full) must match bit-for-bit; used while
    /// a set is still warming up, where the fill-count branch is
    /// perfectly predicted anyway.
    #[inline(always)]
    fn step(&self, w: &mut Self::Word, m: u32, filled: &mut u8) -> (u32, bool) {
        if m != 0 {
            let way = m.trailing_zeros();
            self.hit(w, way);
            (way, true)
        } else {
            let way = if (*filled as usize) < Self::ASSOC {
                let f = *filled;
                *filled = f + 1;
                f as u32
            } else {
                self.victim(w)
            };
            self.fill(w, way);
            (way, false)
        }
    }

    /// The same step for a **full** set — no fill counter to consult —
    /// which each kernel writes **branchlessly**. Instead of a match
    /// mask it takes the probe's `slot`: the matching way for a hit,
    /// `ASSOC` for a miss (i.e. `m.trailing_zeros().min(ASSOC)`). The
    /// slot encoding lets the probe reduce its vector compare with an
    /// index-min — sidestepping LLVM's expensive predicate-to-integer
    /// lowering — and feeds table-driven kernels directly. The hit/miss
    /// branch is the hottest unpredictable branch in the whole engine
    /// (a mixed workload mispredicts it constantly, and every flush
    /// discards the speculative slab loads of the *next* accesses —
    /// serializing what is otherwise a memory-parallel loop), so the
    /// kernels select the way and the updated word with broadcast
    /// masks instead of branching. Must be bit-identical to `step` at
    /// `filled == ASSOC`.
    fn step_full(&self, w: &mut Self::Word, slot: u32) -> (u32, bool);
}

/// LRU or FIFO over a SWAR recency-stack word: the two recency rules
/// whose fill moves the way to the front. `PROMOTE` picks the hit step
/// of the rule — LRU's hits promote from position 0, FIFO's never
/// promote — and the fill, victim (the bottom byte), cold state, pack
/// and unpack are the same for both.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecencyKern<W, const A: usize, const PROMOTE: bool>(PhantomData<W>);

impl<W, const A: usize, const PROMOTE: bool> RecencyKern<W, A, PROMOTE> {
    /// The kind whose recency rule this kernel runs.
    const KIND: PolicyKind = if PROMOTE {
        PolicyKind::Lru
    } else {
        PolicyKind::Fifo
    };
}

impl<W: StackWord, const A: usize, const PROMOTE: bool> LaneKernel for RecencyKern<W, A, PROMOTE> {
    const ASSOC: usize = A;
    type Word = W;

    fn label() -> &'static str {
        match (PROMOTE, A) {
            (true, 4) => "lru4/swar32",
            (true, 8) => "lru8/swar64",
            (true, _) => "lru16/swar128",
            (false, 4) => "fifo4/swar32",
            (false, 8) => "fifo8/swar64",
            (false, _) => "fifo16/swar128",
        }
    }

    fn cold(&self) -> W {
        let mut bytes = [0u8; 16];
        for (way, b) in bytes.iter_mut().enumerate().take(A) {
            *b = way as u8;
        }
        W::from_stack(&bytes[..A])
    }

    #[inline(always)]
    fn hit(&self, w: &mut W, way: u32) {
        if PROMOTE {
            *w = w.promote(way);
        }
    }

    #[inline(always)]
    fn fill(&self, w: &mut W, way: u32) {
        *w = w.promote(way);
    }

    #[inline(always)]
    fn victim(&self, w: &mut W) -> u32 {
        w.byte_at(A - 1)
    }

    // Packs a recency-stack state that runs this kernel's rule at `A`
    // ways.
    fn pack(&self, state: &PolicyState) -> Option<W> {
        match state {
            PolicyState::Recency(r)
                if r.associativity() == A && Self::KIND.recency_rule(A) == Some(r.rule()) =>
            {
                Some(W::from_stack(r.stack().as_slice()))
            }
            _ => None,
        }
    }

    fn unpack(&self, w: W, state: &mut PolicyState) {
        if let PolicyState::Recency(r) = state {
            w.to_stack(r.stack_mut().as_mut_slice());
        }
    }

    // Branchless, one pass over the word; the victim way is computed
    // off-word in parallel. LRU's `promote_or_rotate` handles hit
    // (promote the matched byte) and miss (the sentinel slot `A`
    // matches no byte, so the planted tail flag turns the blend into
    // the rotate) in a single SWAR sequence — no two-way select on the
    // word, which was the longest link in the step's dependency chain.
    // FIFO's hits leave the word alone and its fill promotes the tail
    // byte, a plain rotate, so a mask blend picks the word.
    #[inline(always)]
    fn step_full(&self, w: &mut W, slot: u32) -> (u32, bool) {
        let hit = slot < A as u32;
        let mask = (hit as u32).wrapping_neg();
        let way = (mask & slot) | (!mask & w.byte_at(A - 1));
        *w = if PROMOTE {
            w.promote_or_rotate(slot, way)
        } else {
            W::select(hit, *w, w.rotate_up())
        };
        (way, hit)
    }
}

/// Narrow per-set word for the tree-bit kernel: `u8` holds the 3/7
/// tree bits of 4/8 ways, `u16` the 15 bits of 16 ways. Sizing the
/// slab word to the state (instead of a uniform `u32`) quarters the
/// word-array footprint, which keeps it cache-resident at bench set
/// counts — the word load heads `step_full`'s dependent chain, so its
/// latency is paid on every access.
pub trait TreeWord: Copy + Debug + Send + Sync + 'static {
    /// Widen to the `u32` domain the kernel computes in.
    fn bits(self) -> u32;
    /// Narrow back; the value always fits (tree bits only).
    fn from_bits(v: u32) -> Self;
}

macro_rules! tree_word {
    ($($t:ty),*) => {$(
        impl TreeWord for $t {
            #[inline(always)]
            fn bits(self) -> u32 {
                self as u32
            }

            #[inline(always)]
            fn from_bits(v: u32) -> Self {
                v as $t
            }
        }
    )*};
}

tree_word!(u8, u16, u32);

/// Tree-PLRU over its bit word: a touch is two mask ops using the same
/// per-way path/away masks as `TreePlru`, the victim walk follows the
/// same memoized tree topology (here flattened to fixed arrays).
#[derive(Debug, Clone)]
pub struct PlruKern<W, const A: usize> {
    path: [u32; 16],
    away: [u32; 16],
    /// Children of each internal node; leaves are encoded as
    /// `-(way + 1)`, mirroring `tree_plru::NodeRefRepr`.
    children: [(i8, i8); 16],
    root: i8,
    /// Memoized victim per word value for A ≤ 8: the walk depends only
    /// on the word's `A - 1` tree bits, so at most 128 words index a
    /// two-line table — one L1 load replaces the log2(A)-deep dependent
    /// select chain. (At A = 16 the 15-bit index would need 32 KiB,
    /// evicting the slab rows it is meant to serve; the walk stays.)
    vic_lut: [u8; 128],
    /// Fully memoized step for A ≤ 8: indexed by
    /// `(tree_bits << 4) | slot` where `slot` is the hit way
    /// (`trailing_zeros` of the match mask) or `A` for a miss. Each
    /// entry packs the touched way in bits 0–3 and the post-touch tree
    /// bits in bits 4–10, so `step_full` is one 4 KiB-table load —
    /// victim walk and touch masks both collapse into it. (At A = 16
    /// the 15 tree bits would need a 2 MiB table; the walk stays.)
    step_lut: [u16; 2048],
    _word: PhantomData<W>,
}

impl<W: TreeWord, const A: usize> PlruKern<W, A> {
    /// Build the kernel from the memoized tree shape for `A` ways.
    pub fn new() -> Self {
        let shape = shape_for(A);
        let mut path = [0u32; 16];
        let mut away = [0u32; 16];
        for way in 0..A {
            path[way] = shape.path[way] as u32;
            away[way] = shape.away[way] as u32;
        }
        let mut children = [(0i8, 0i8); 16];
        for (i, &(l, r)) in shape.children.iter().enumerate() {
            children[i] = (l as i8, r as i8);
        }
        let mut kern = Self {
            path,
            away,
            children,
            root: shape.root as i8,
            vic_lut: [0; 128],
            step_lut: [0; 2048],
            _word: PhantomData,
        };
        if A <= 8 {
            for w in 0..(1u32 << (A - 1)) {
                kern.vic_lut[w as usize] = kern.walk(w) as u8;
                for slot in 0..=A {
                    let way = if slot < A {
                        slot
                    } else {
                        kern.walk(w) as usize
                    };
                    let touched = (w & !kern.path[way]) | kern.away[way];
                    kern.step_lut[((w as usize) << 4) | slot] =
                        (way as u16) | ((touched as u16) << 4);
                }
            }
        }
        kern
    }

    /// The reference victim walk over the tree bits of `w`.
    #[inline(always)]
    fn walk(&self, w: u32) -> u32 {
        let mut node = self.root;
        loop {
            let (l, r) = self.children[node as usize];
            node = if (w >> node) & 1 != 0 { r } else { l };
            if node < 0 {
                return (-node - 1) as u32;
            }
        }
    }
}

impl<W: TreeWord, const A: usize> Default for PlruKern<W, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: TreeWord, const A: usize> LaneKernel for PlruKern<W, A> {
    const ASSOC: usize = A;
    type Word = W;

    fn label() -> &'static str {
        match A {
            4 => "plru4/bits3",
            8 => "plru8/bits7",
            _ => "plru16/bits15",
        }
    }

    fn cold(&self) -> W {
        W::from_bits(0)
    }

    #[inline(always)]
    fn hit(&self, w: &mut W, way: u32) {
        *w = W::from_bits((w.bits() & !self.path[way as usize]) | self.away[way as usize]);
    }

    #[inline(always)]
    fn fill(&self, w: &mut W, way: u32) {
        *w = W::from_bits((w.bits() & !self.path[way as usize]) | self.away[way as usize]);
    }

    #[inline(always)]
    fn victim(&self, w: &mut W) -> u32 {
        self.walk(w.bits())
    }

    fn pack(&self, state: &PolicyState) -> Option<W> {
        match state {
            PolicyState::TreePlru(p) if p.associativity() == A => {
                Some(W::from_bits(p.bits_word() as u32))
            }
            _ => None,
        }
    }

    fn unpack(&self, w: W, state: &mut PolicyState) {
        if let PolicyState::TreePlru(p) = state {
            p.set_bits_word(w.bits() as u128);
        }
    }

    // Branchless: for A ≤ 8 the whole step is one `step_lut` load
    // indexed directly by the probe's slot — the victim walk and touch
    // masks are memoized per (word, slot). At A = 16 a mask-selected
    // unrolled walk picks the victim — the tree is uniform-depth for
    // power-of-two ways, so the walk is exactly log2(A) select steps;
    // the touch masks then apply identically for hit and fill.
    #[inline(always)]
    fn step_full(&self, w: &mut W, slot: u32) -> (u32, bool) {
        let hit = slot < A as u32;
        let wu = w.bits();
        if A <= 8 {
            let tmask = (1u32 << (A - 1)) - 1;
            let tb = (wu & tmask) as usize;
            let e = self.step_lut[(tb << 4) | (slot as usize & 0xf)] as u32;
            let way = e & 0xf;
            *w = W::from_bits((wu & !tmask) | (e >> 4));
            (way, hit)
        } else {
            let mut node = self.root;
            for _ in 0..A.trailing_zeros() {
                let (l, r) = self.children[node as usize];
                let bmask = (((wu >> node) & 1) as i8).wrapping_neg();
                node = (r & bmask) | (l & !bmask);
            }
            let vic = (-node - 1) as u32;
            let mask = (hit as u32).wrapping_neg();
            let way = (mask & slot) | (!mask & vic);
            *w = W::from_bits((wu & !self.path[way as usize]) | self.away[way as usize]);
            (way, hit)
        }
    }
}

/// NRU over a reference-bit word: hits and fills set the way's bit, the
/// victim is the lowest clear bit after a lazy flash-clear when all bits
/// are set.
#[derive(Debug, Clone, Copy, Default)]
pub struct NruKern<const A: usize>;

impl<const A: usize> LaneKernel for NruKern<A> {
    const ASSOC: usize = A;
    type Word = u32;

    fn label() -> &'static str {
        match A {
            4 => "nru4/bits4",
            8 => "nru8/bits8",
            _ => "nru16/bits16",
        }
    }

    fn cold(&self) -> u32 {
        0
    }

    #[inline(always)]
    fn hit(&self, w: &mut u32, way: u32) {
        *w |= 1 << way;
    }

    #[inline(always)]
    fn fill(&self, w: &mut u32, way: u32) {
        *w |= 1 << way;
    }

    #[inline(always)]
    fn victim(&self, w: &mut u32) -> u32 {
        let full = (1u32 << A) - 1;
        if *w == full {
            *w = 0;
        }
        (!*w).trailing_zeros()
    }

    // Packs an age-counter state that runs NRU's rule at `A` ways: the
    // mask of ways at age 0 (referenced since the last clear).
    fn pack(&self, state: &PolicyState) -> Option<u32> {
        match state {
            PolicyState::Age(p)
                if p.associativity() == A && PolicyKind::Nru.age_rule() == Some(p.rule()) =>
            {
                Some(
                    p.ages()
                        .iter()
                        .enumerate()
                        .fold(0, |mask, (way, &age)| mask | (u32::from(age == 0) << way)),
                )
            }
            _ => None,
        }
    }

    fn unpack(&self, w: u32, state: &mut PolicyState) {
        if let PolicyState::Age(p) = state {
            for (way, age) in p.ages_mut().iter_mut().enumerate() {
                *age = u8::from((w >> way) & 1 == 0);
            }
        }
    }

    // Branchless: the lazy flash-clear and the victim scan are computed
    // unconditionally, then mask-blended against the hit path (which
    // leaves the mask untouched apart from setting the way's bit).
    #[inline(always)]
    fn step_full(&self, w: &mut u32, slot: u32) -> (u32, bool) {
        let hit = slot < A as u32;
        let full = (1u32 << A) - 1;
        let keep = ((*w != full) as u32).wrapping_neg();
        let cleared = *w & keep;
        let vic = (!cleared).trailing_zeros();
        let mask = (hit as u32).wrapping_neg();
        let way = (mask & slot) | (!mask & vic);
        let base = (mask & *w) | (!mask & cleared);
        *w = base | (1 << way);
        (way, hit)
    }
}

/// Struct-of-arrays slab of sets driven by one monomorphized kernel:
/// a flat tag array (rows aligned to 64-byte lines), one packed policy
/// word per set, and one fill counter per set.
#[derive(Debug, Clone)]
pub struct Slab<K: LaneKernel> {
    kern: K,
    sets: usize,
    /// Offset into `tags` such that row 0 starts on a 64-byte boundary.
    base: usize,
    tags: Vec<u64>,
    words: Vec<K::Word>,
    filled: Vec<u8>,
    /// How many sets have all ways filled. Once this reaches `sets`
    /// the batch loop drops the fill-count logic entirely (the
    /// `step_full` fast path) — and no access un-fills a full set;
    /// only [`load`](Self::load) can.
    full_sets: usize,
}

impl<K: LaneKernel> Slab<K> {
    /// Create a cold slab of `sets` sets driven by `kern`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(kern: K, sets: usize) -> Self {
        assert!(sets > 0, "slab needs at least one set");
        // Over-allocate by one line so the row base can be aligned to a
        // 64-byte boundary; with 4/8/16-way rows (32/64/128 bytes) no
        // row then straddles more lines than its size requires.
        let tags = vec![0u64; sets * K::ASSOC + 8];
        let base = tags.as_ptr().align_offset(64) / std::mem::size_of::<u64>();
        let words = vec![kern.cold(); sets];
        Self {
            kern,
            sets,
            base,
            tags,
            words,
            filled: vec![0; sets],
            full_sets: 0,
        }
    }

    #[inline(always)]
    fn row(&self, set: usize) -> usize {
        self.base + set * K::ASSOC
    }

    /// Branchless match mask of `tag` against the set's filled ways.
    #[inline(always)]
    fn probe(&self, set: usize, tag: u64) -> u32 {
        self.probe_full(set, tag) & ((1u32 << self.filled[set]) - 1)
    }

    /// Match mask of `tag` against every way — valid whenever the set
    /// is full (the filled mask would be all-ones anyway), and one load
    /// plus one mask cheaper than `probe`.
    #[inline(always)]
    fn probe_full(&self, set: usize, tag: u64) -> u32 {
        let r = self.row(set);
        let row = &self.tags[r..r + K::ASSOC];
        // Equality as lane arithmetic (`d == 0` ⇔ borrow out of `d - 1`
        // with the sign bit clear) rather than `t == tag`: predicate
        // lanes would round-trip through mask registers, which LLVM
        // rebuilds bit-by-bit, while integer lanes reduce with plain
        // vector ORs.
        let mut m = 0u64;
        for (i, &t) in row.iter().enumerate() {
            let d = t ^ tag;
            let zero = (d.wrapping_sub(1) & !d) >> 63;
            m |= zero << i;
        }
        m as u32
    }

    /// Apply one access given its precomputed match mask. Returns `true`
    /// on a hit.
    ///
    /// The tag store is unconditional: on a hit the touched way already
    /// holds `tag`, so rewriting it is a semantic no-op that spares the
    /// store its own hit/miss branch.
    #[inline(always)]
    fn apply(&mut self, set: usize, tag: u64, m: u32) -> bool {
        let before = self.filled[set];
        let (way, hit) = self
            .kern
            .step(&mut self.words[set], m, &mut self.filled[set]);
        if self.filled[set] != before && self.filled[set] as usize == K::ASSOC {
            self.full_sets += 1;
        }
        let r = self.row(set);
        self.tags[r + way as usize] = tag;
        hit
    }

    /// `apply` for a full set: the branchless `step_full`, no fill
    /// bookkeeping. The probe's match mask reduces to the step slot
    /// with one `or` + `trailing_zeros` (the planted bit `ASSOC` caps a
    /// miss), keeping the reduction off the probe side where LLVM's
    /// predicate-to-integer lowering is at its worst.
    #[inline(always)]
    fn apply_full(&mut self, set: usize, tag: u64, m: u32) -> bool {
        let slot = (m | (1u32 << K::ASSOC)).trailing_zeros();
        let (way, hit) = self.kern.step_full(&mut self.words[set], slot);
        let r = self.row(set);
        self.tags[r + way as usize] = tag;
        hit
    }

    /// One access against `set`. Returns `true` on a hit.
    #[inline]
    fn access(&mut self, set: usize, tag: u64) -> bool {
        let m = self.probe(set, tag);
        self.apply(set, tag, m)
    }

    /// Replay an interleaved `(set, tag)` stream. Returns
    /// `(hits, misses)`.
    ///
    /// While any set is still warming up, accesses replay one at a
    /// time through the reference step, re-checking between chunks; a
    /// mixed stream crosses into the fast path within its first few
    /// thousand accesses and stays there (a full set never un-fills).
    /// The fast path retires **no unpredictable branches** — see
    /// [`LaneKernel::step_full`] — so the machine keeps many slab-row
    /// loads in flight instead of flushing them on every mispredicted
    /// hit/miss. Both paths are bit-identical to the
    /// one-access-at-a-time protocol.
    pub fn access_many(&mut self, stream: &[(u32, u64)]) -> (u64, u64) {
        let n = stream.len();
        let mut hits = 0u64;
        let mut i = 0;
        const WARMUP_CHUNK: usize = 1024;
        while i < n && self.full_sets < self.sets {
            let end = (i + WARMUP_CHUNK).min(n);
            for &(s, t) in &stream[i..end] {
                hits += self.access(s as usize, t) as u64;
            }
            i = end;
        }
        hits += self.access_many_full(&stream[i..]);
        (hits, n as u64 - hits)
    }

    /// The batch loop once every set is full: one plain sequential
    /// pass, each access a branchless probe + step. With no
    /// unpredictable branch anywhere in the loop body, out-of-order
    /// speculation runs many iterations deep and keeps the independent
    /// slab-row loads of *future* accesses in flight by itself — a
    /// measured ~20% faster than an explicit probe-ahead window, whose
    /// duplicate-set checks and mask staging were pure overhead (and
    /// which needed a sequential fallback for correctness anyway).
    ///
    /// (Bounds checks stay: the loop's cost ladder shows the checked
    /// and uncheckable-by-construction variants within noise — the
    /// never-taken check branches predict perfectly — while flattening
    /// the probe into this loop body invites LLVM's SLP vectorizer to
    /// rebuild the compare through predicate registers, which is the
    /// expensive lowering the split `probe_full` avoids.)
    fn access_many_full(&mut self, stream: &[(u32, u64)]) -> u64 {
        // How far ahead to warm the next rows' cache lines. The loop is
        // reorder-buffer-bound: throughput tracks how many iterations
        // the machine can keep in flight, so pulling future rows into
        // L1 with a cheap independent read (this crate forbids
        // `unsafe`, so no prefetch instruction — `black_box` keeps the
        // load from being dead-code-eliminated) shortens each
        // iteration's load latency and buys more overlap than the few
        // extra ops cost.
        const LOOKAHEAD: usize = 12;
        let mut hits = 0u64;
        for (i, &(s, t)) in stream.iter().enumerate() {
            if let Some(&(ps, _)) = stream.get(i + LOOKAHEAD) {
                let r = self.row(ps as usize);
                std::hint::black_box(self.tags[r]);
                // A 16-way row spans two lines; the gate const-folds
                // away for the narrower kernels.
                if K::ASSOC * 8 > 64 {
                    std::hint::black_box(self.tags[r + 8]);
                }
            }
            let m = self.probe_full(s as usize, t);
            hits += self.apply_full(s as usize, t, m) as u64;
        }
        hits
    }

    /// The tag in `way` of `set`, if that way has been filled.
    pub fn tag(&self, set: usize, way: usize) -> Option<u64> {
        (way < self.filled[set] as usize).then(|| self.tags[self.row(set) + way])
    }

    /// See [`KernelCache::load_set`].
    fn load(&mut self, set: usize, tags: &[u64], state: &PolicyState) -> bool {
        assert!(tags.len() <= K::ASSOC, "more tags than ways");
        let Some(word) = self.kern.pack(state) else {
            return false;
        };
        let r = self.row(set);
        self.tags[r..r + tags.len()].copy_from_slice(tags);
        self.words[set] = word;
        let was_full = self.filled[set] as usize == K::ASSOC;
        self.filled[set] = tags.len() as u8;
        self.full_sets =
            self.full_sets + usize::from(tags.len() == K::ASSOC) - usize::from(was_full);
        true
    }

    /// See [`KernelCache::store_set`].
    fn store(&self, set: usize, tags: &mut [u64], state: &mut PolicyState) -> usize {
        let filled = self.filled[set] as usize;
        let r = self.row(set);
        tags[..filled].copy_from_slice(&self.tags[r..r + filled]);
        self.kern.unpack(self.words[set], state);
        filled
    }
}

macro_rules! kernel_combos {
    ($macro:ident) => {
        $macro! {
            (Lru4, RecencyKern<u32, 4, true>, PolicyKind::Lru, 4),
            (Lru8, RecencyKern<u64, 8, true>, PolicyKind::Lru, 8),
            (Lru16, RecencyKern<u128, 16, true>, PolicyKind::Lru, 16),
            (Fifo4, RecencyKern<u32, 4, false>, PolicyKind::Fifo, 4),
            (Fifo8, RecencyKern<u64, 8, false>, PolicyKind::Fifo, 8),
            (Fifo16, RecencyKern<u128, 16, false>, PolicyKind::Fifo, 16),
            (Plru4, PlruKern<u8, 4>, PolicyKind::TreePlru, 4),
            (Plru8, PlruKern<u8, 8>, PolicyKind::TreePlru, 8),
            (Plru16, PlruKern<u16, 16>, PolicyKind::TreePlru, 16),
            (Nru4, NruKern<4>, PolicyKind::Nru, 4),
            (Nru8, NruKern<8>, PolicyKind::Nru, 8),
            (Nru16, NruKern<16>, PolicyKind::Nru, 16)
        }
    };
}

macro_rules! define_kernel_cache {
    ($(($variant:ident, $kern:ty, $kind:pat, $assoc:literal)),*) => {
        /// The many-set batch-kernel engine: an enum over every compiled
        /// (policy, associativity) slab, so the kernel is selected
        /// **once** per batch and the inner loop is fully monomorphized.
        #[derive(Debug, Clone)]
        pub enum KernelCache {
            $(
                #[doc = "Monomorphized slab for this (policy, assoc) pair."]
                $variant(Slab<$kern>),
            )*
        }

        impl KernelCache {
            /// Build a cold kernel cache for `kind` at `assoc`, or `None`
            /// if no kernel is compiled for the pair.
            pub fn for_kind(kind: PolicyKind, assoc: usize, sets: usize) -> Option<Self> {
                match (kind, assoc) {
                    $(
                        ($kind, $assoc) => Some(Self::$variant(Slab::new(
                            <$kern>::default(),
                            sets,
                        ))),
                    )*
                    _ => None,
                }
            }

            /// The compiled kernel's identifier for `kind` at `assoc`,
            /// without building a cache.
            pub fn kernel_name(kind: PolicyKind, assoc: usize) -> Option<&'static str> {
                match (kind, assoc) {
                    $(
                        ($kind, $assoc) => Some(<$kern as LaneKernel>::label()),
                    )*
                    _ => None,
                }
            }

            /// Replay an interleaved `(set, tag)` stream. Returns
            /// `(hits, misses)`.
            pub fn access_many(&mut self, stream: &[(u32, u64)]) -> (u64, u64) {
                match self {
                    $(Self::$variant(s) => s.access_many(stream),)*
                }
            }

            /// The tag in `way` of `set`, if filled.
            pub fn tag(&self, set: usize, way: usize) -> Option<u64> {
                match self {
                    $(Self::$variant(s) => s.tag(set, way),)*
                }
            }

            /// Load `set` with `tags` in its first ways (the rest
            /// unfilled) and the policy word packed from `state`.
            /// Returns `false`, loading nothing, when the kernel does not
            /// pack `state` (another kind's state, another associativity,
            /// or a boxed policy).
            ///
            /// # Panics
            ///
            /// Panics if `tags` is longer than the associativity.
            pub fn load_set(&mut self, set: usize, tags: &[u64], state: &PolicyState) -> bool {
                match self {
                    $(Self::$variant(s) => s.load(set, tags, state),)*
                }
            }

            /// Store `set` back: its filled ways' tags into the front of
            /// `tags` and its policy word into `state`, the state it was
            /// loaded from. Returns the number of filled ways.
            pub fn store_set(&self, set: usize, tags: &mut [u64], state: &mut PolicyState) -> usize {
                match self {
                    $(Self::$variant(s) => s.store(set, tags, state),)*
                }
            }
        }
    };
}

kernel_combos!(define_kernel_cache);

/// Whether a batch kernel is compiled for `kind` at `assoc`.
pub fn kernel_available(kind: PolicyKind, assoc: usize) -> bool {
    KernelCache::kernel_name(kind, assoc).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn kernel_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::TreePlru,
            PolicyKind::Nru,
        ]
    }

    #[test]
    fn batched_replay_matches_sequential_replay() {
        // A many-set slab with a longer-than-sets stream exercises the
        // pipelined windows at scale; a twin slab replays the same
        // stream one access at a time through the canonical protocol.
        let sets = 4096usize;
        for kind in kernel_kinds() {
            for assoc in [4usize, 8, 16] {
                let mut rng = SplitMix64::new(0x9A27 ^ assoc as u64);
                let stream: Vec<(u32, u64)> = (0..6 * sets)
                    .map(|_| {
                        let set = (rng.next_u64() % sets as u64) as u32;
                        let tag = rng.next_u64() % (3 * assoc as u64);
                        (set, tag)
                    })
                    .collect();
                let mut batched = KernelCache::for_kind(kind, assoc, sets).unwrap();
                let mut serial = KernelCache::for_kind(kind, assoc, sets).unwrap();
                let (hits, misses) = batched.access_many(&stream);
                let mut want_hits = 0u64;
                for &pair in &stream {
                    want_hits += serial.access_many(&[pair]).0;
                }
                assert_eq!(hits, want_hits, "{kind:?} A={assoc} hit counts differ");
                assert_eq!(hits + misses, stream.len() as u64);
                for set in 0..sets {
                    for w in 0..assoc {
                        assert_eq!(
                            batched.tag(set, w),
                            serial.tag(set, w),
                            "{kind:?} A={assoc} set {set} way {w}"
                        );
                    }
                }
            }
        }
    }

    /// Reference single-set engine: the enum policy driven through the
    /// canonical protocol.
    struct RefSet {
        tags: Vec<Option<u64>>,
        policy: PolicyState,
    }

    impl RefSet {
        fn new(kind: PolicyKind, assoc: usize) -> Self {
            Self {
                tags: vec![None; assoc],
                policy: kind.build_state(assoc, 0),
            }
        }

        fn access(&mut self, tag: u64) -> bool {
            if let Some(way) = self.tags.iter().position(|&t| t == Some(tag)) {
                self.policy.on_hit(way);
                return true;
            }
            let way = match self.tags.iter().position(|t| t.is_none()) {
                Some(w) => w,
                None => self.policy.victim(),
            };
            self.tags[way] = Some(tag);
            self.policy.on_fill(way);
            false
        }
    }

    fn stream(assoc: usize, sets: usize, len: usize, seed: u64) -> Vec<(u32, u64)> {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| {
                let set = (rng.next_u64() % sets as u64) as u32;
                let tag = if rng.next_u64() % 10 < 7 {
                    rng.next_u64() % assoc as u64
                } else {
                    rng.next_u64() % (6 * assoc) as u64
                };
                (set, 0x1000 + tag)
            })
            .collect()
    }

    #[test]
    fn promote_matches_recency_stack() {
        use crate::RecencyPolicy;
        for assoc in [4usize, 8, 16] {
            let mut lru = RecencyPolicy::new(PolicyKind::Lru, assoc);
            let kern_word = |l: &RecencyPolicy| -> Vec<u8> { l.stack().as_slice().to_vec() };
            let mut rng = SplitMix64::new(7);
            match assoc {
                4 => {
                    let mut w: u32 = StackWord::from_stack(&kern_word(&lru));
                    for _ in 0..200 {
                        let way = (rng.next_u64() % assoc as u64) as u32;
                        lru.on_hit(way as usize);
                        w = w.promote(way);
                        assert_eq!(w, StackWord::from_stack(&kern_word(&lru)));
                    }
                }
                8 => {
                    let mut w: u64 = StackWord::from_stack(&kern_word(&lru));
                    for _ in 0..200 {
                        let way = (rng.next_u64() % assoc as u64) as u32;
                        lru.on_hit(way as usize);
                        w = w.promote(way);
                        assert_eq!(w, StackWord::from_stack(&kern_word(&lru)));
                    }
                }
                _ => {
                    let mut w: u128 = StackWord::from_stack(&kern_word(&lru));
                    for _ in 0..200 {
                        let way = (rng.next_u64() % assoc as u64) as u32;
                        lru.on_hit(way as usize);
                        w = w.promote(way);
                        assert_eq!(w, StackWord::from_stack(&kern_word(&lru)));
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_cache_matches_reference_sets() {
        for kind in kernel_kinds() {
            for assoc in [4usize, 8, 16] {
                let sets = 32;
                let mut kc = KernelCache::for_kind(kind, assoc, sets)
                    .unwrap_or_else(|| panic!("kernel missing for {kind:?}@{assoc}"));
                let mut refs: Vec<RefSet> = (0..sets).map(|_| RefSet::new(kind, assoc)).collect();
                let st = stream(assoc, sets, 20_000, 0xC0FFEE ^ assoc as u64);
                let (hits, misses) = kc.access_many(&st);
                let mut ref_hits = 0u64;
                for &(s, t) in &st {
                    ref_hits += refs[s as usize].access(t) as u64;
                }
                assert_eq!(hits, ref_hits, "{kind:?}@{assoc} hits");
                assert_eq!(hits + misses, st.len() as u64);
                for (s, r) in refs.iter().enumerate() {
                    for way in 0..assoc {
                        assert_eq!(
                            kc.tag(s, way),
                            r.tags[way],
                            "{kind:?}@{assoc} set {s} way {way}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_coverage_is_exactly_the_advertised_grid() {
        for kind in PolicyKind::differential_kinds() {
            for assoc in [4usize, 8, 16] {
                let expect = kernel_kinds().contains(&kind);
                assert_eq!(
                    kernel_available(kind, assoc),
                    expect,
                    "kernel coverage for {kind:?}@{assoc}"
                );
            }
        }
        assert!(!kernel_available(PolicyKind::Lru, 6));
        assert!(!kernel_available(PolicyKind::Lru, 32));
    }

    #[test]
    fn slab_loads_only_states_its_kernel_packs() {
        let mut slab = KernelCache::for_kind(PolicyKind::Lru, 8, 2).unwrap();
        // LIP's stack under the LRU kernel, a boxed LRU, another
        // associativity and another recency rule are refused, and the
        // set stays cold.
        for foreign in [
            PolicyKind::Lip.build_state(8, 0),
            PolicyState::from_boxed(Box::new(PolicyKind::Lru.build_state(8, 0))),
            PolicyKind::Lru.build_state(4, 0),
            PolicyKind::Fifo.build_state(8, 0),
        ] {
            assert!(!slab.load_set(0, &[7], &foreign), "{}", foreign.name());
            assert_eq!(slab.tag(0, 0), None, "{}", foreign.name());
        }
        // A state it packs comes back through `store_set` unchanged.
        let mut state = PolicyKind::Lru.build_state(8, 0);
        for way in [0, 1, 0] {
            state.on_fill(way);
        }
        assert!(slab.load_set(1, &[10, 11], &state));
        let mut tags = [0u64; 8];
        let mut back = PolicyKind::Lru.build_state(8, 0);
        assert_eq!(slab.store_set(1, &mut tags, &mut back), 2);
        assert_eq!(tags[..2], [10, 11]);
        assert_eq!(back.state_key(), state.state_key());
    }
}
