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
    bits: Vec<bool>,
}

impl BitPlru {
    /// Create a bit-PLRU policy for a set with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128.
    pub fn new(assoc: usize) -> Self {
        check_assoc(assoc);
        Self {
            bits: vec![false; assoc],
        }
    }

    fn touch(&mut self, way: usize) {
        check_way(way, self.bits.len());
        self.bits[way] = true;
        if self.bits.iter().all(|&b| b) {
            for (i, b) in self.bits.iter_mut().enumerate() {
                *b = i == way;
            }
        }
    }

    /// The MRU bits (for inspection and tests).
    pub fn mru_bits(&self) -> &[bool] {
        &self.bits
    }
}

impl ReplacementPolicy for BitPlru {
    fn associativity(&self) -> usize {
        self.bits.len()
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
        self.bits.iter().position(|&b| !b).unwrap_or(0)
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.touch(way);
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        check_way(way, self.bits.len());
        self.bits[way] = false;
    }

    fn reset(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
    }

    fn state_key(&self) -> Vec<u8> {
        self.bits.iter().map(|&b| b as u8).collect()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend(self.bits.iter().map(|&b| b as u8));
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
        assert_eq!(p.mru_bits(), &[false, false, false, true]);
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
