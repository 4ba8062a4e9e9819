//! Bit-based pseudo-LRU (also known as the MRU policy).

use crate::{check_assoc, check_way, ReplacementPolicy};

/// Bit-PLRU / "MRU" replacement.
///
/// Each way has one *MRU bit*. An access sets the bit of the touched way;
/// when that would make all bits 1, every other bit is cleared instead
/// (a "flash clear"). The victim is the lowest-indexed way whose bit is 0.
///
/// In the reverse-engineering literature this policy is usually called
/// **MRU**; it needs `A` bits of state and, unlike tree-PLRU, works for any
/// associativity. Crucially, its future behaviour depends on the *way
/// indices* of the resident lines (victims are scanned in way order after a
/// flash clear), so it is **not** a permutation policy — the inference
/// pipeline must detect the inconsistency and reject the
/// permutation-policy hypothesis, which makes `BitPlru` an important
/// negative test input for `cachekit-core`.
///
/// # Example
///
/// ```
/// use cachekit_policies::{BitPlru, ReplacementPolicy};
///
/// let mut p = BitPlru::new(4);
/// for w in 0..4 {
///     p.on_fill(w);
/// }
/// // Filling way 3 flash-cleared the others; ways 0..3 are unprotected.
/// assert_eq!(p.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitPlru {
    /// The MRU bits, bit `w` for way `w`; the bits at and above the
    /// associativity stay clear.
    bits: u128,
    assoc: u8,
}

impl BitPlru {
    /// Create a bit-PLRU policy for a set with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128.
    pub fn new(assoc: usize) -> Self {
        Self {
            bits: 0,
            assoc: check_assoc(assoc) as u8,
        }
    }

    #[inline]
    fn touch(&mut self, way: usize) {
        let assoc = self.assoc as usize;
        check_way(way, assoc);
        self.bits |= 1 << way;
        if self.bits == u128::MAX >> (128 - assoc) {
            self.bits = 1 << way;
        }
    }
}

impl ReplacementPolicy for BitPlru {
    fn associativity(&self) -> usize {
        self.assoc as usize
    }

    fn name(&self) -> String {
        "BitPLRU".to_owned()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.touch(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        // The flash clear keeps at least one bit unset whenever assoc > 1;
        // for the degenerate 1-way set the single way is always the victim.
        let way = (!self.bits).trailing_zeros() as usize;
        if way < self.assoc as usize {
            way
        } else {
            0
        }
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.touch(way);
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        check_way(way, self.assoc as usize);
        self.bits &= !(1 << way);
    }

    fn reset(&mut self) {
        self.bits = 0;
    }

    fn state_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.assoc as usize);
        self.write_state_key(&mut key);
        key
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend((0..self.assoc).map(|w| (self.bits >> w) as u8 & 1));
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_first_unset_bit() {
        let mut p = BitPlru::new(4);
        p.on_fill(0);
        p.on_fill(1);
        assert_eq!(p.victim(), 2);
        p.on_hit(2);
        assert_eq!(p.victim(), 3);
    }

    #[test]
    fn flash_clear_keeps_last_touched() {
        let mut p = BitPlru::new(4);
        for w in 0..4 {
            p.on_fill(w);
        }
        // Touching way 3 set all bits; flash clear keeps only way 3.
        assert_eq!(p.state_key(), [0, 0, 0, 1]);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn assoc_one_flash_clears_to_self() {
        let mut p = BitPlru::new(1);
        p.on_fill(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn eviction_order_depends_on_way_indices() {
        // Two histories that an order-based (permutation) policy could not
        // distinguish, but bit-PLRU does: after a flash clear the victims
        // are scanned in way order, not in access order.
        let mut p = BitPlru::new(4);
        for w in [3, 2, 1, 0] {
            p.on_fill(w);
        }
        // Flash clear happened at fill(0): only way 0 protected.
        assert_eq!(p.victim(), 1); // way order, although 1 is more recent than 2
    }

    #[test]
    fn invalidate_clears_bit() {
        let mut p = BitPlru::new(3);
        p.on_fill(0);
        p.on_fill(1);
        p.on_invalidate(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn the_full_mask_of_128_ways_flash_clears() {
        let mut p = BitPlru::new(128);
        for w in 0..127 {
            p.on_fill(w);
        }
        assert_eq!(p.victim(), 127);
        p.on_fill(127);
        let mut want = vec![0; 128];
        want[127] = 1;
        assert_eq!(p.state_key(), want);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn two_way_bit_plru_equals_lru() {
        let mut bp = BitPlru::new(2);
        let mut lru = crate::PolicyKind::Lru.build_state(2, 0);
        for &w in &[0usize, 1, 0, 0, 1, 1, 0, 1] {
            bp.on_hit(w);
            lru.on_hit(w);
            assert_eq!(bp.victim(), lru.victim());
        }
    }
}
