//! CLOCK (second-chance) replacement.

use crate::{check_assoc, check_way, ReplacementPolicy};

/// The CLOCK algorithm: a rotating hand over the ways, one reference bit
/// per way.
///
/// Accesses set the reference bit; the victim search advances the hand,
/// clearing set bits and evicting at the first clear one. CLOCK is the
/// classic software approximation of LRU (page replacement), included
/// here as another *way-indexed* policy: like bit-PLRU and NRU its
/// behaviour depends on physical way positions (the hand), so it is not a
/// permutation policy and the derivation must reject it.
///
/// # Example
///
/// ```
/// use cachekit_policies::{Clock, ReplacementPolicy};
///
/// let mut p = Clock::new(4);
/// for w in 0..4 {
///     p.on_fill(w);
/// }
/// // All referenced: the hand sweeps once, clearing bits, and evicts
/// // way 0 on its second pass.
/// assert_eq!(p.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clock {
    /// The reference bits, bit `w` for way `w`.
    referenced: u128,
    hand: u8,
    assoc: u8,
}

impl Clock {
    /// Create a CLOCK policy for a set with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128.
    pub fn new(assoc: usize) -> Self {
        Self {
            referenced: 0,
            hand: 0,
            assoc: check_assoc(assoc) as u8,
        }
    }

    /// Move the hand to the next way, wrapping after the last one (a
    /// compare, not a division: the associativity need not be a power
    /// of two).
    #[inline]
    fn advance_hand(&mut self) {
        self.hand += 1;
        if self.hand == self.assoc {
            self.hand = 0;
        }
    }
}

impl ReplacementPolicy for Clock {
    fn associativity(&self) -> usize {
        self.assoc as usize
    }

    fn name(&self) -> String {
        "CLOCK".to_owned()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        check_way(way, self.assoc as usize);
        self.referenced |= 1 << way;
    }

    #[inline]
    fn victim(&mut self) -> usize {
        loop {
            let at_hand = 1u128 << self.hand;
            if self.referenced & at_hand == 0 {
                return self.hand as usize;
            }
            self.referenced &= !at_hand;
            self.advance_hand();
        }
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.on_hit(way);
        if way == self.hand as usize {
            // The hand moves past a way it just replaced.
            self.advance_hand();
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        check_way(way, self.assoc as usize);
        self.referenced &= !(1 << way);
    }

    fn reset(&mut self) {
        self.referenced = 0;
        self.hand = 0;
    }

    fn state_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.assoc as usize + 1);
        self.write_state_key(&mut key);
        key
    }

    /// One byte per way's reference bit, then the hand.
    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend((0..self.assoc).map(|w| (self.referenced >> w) as u8 & 1));
        out.push(self.hand);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_gives_second_chances() {
        let mut p = Clock::new(3);
        for w in 0..3 {
            p.on_fill(w);
        }
        // All bits set; the sweep clears 0,1,2 and lands back on 0.
        assert_eq!(p.victim(), 0);
        // The sweep left the bits cleared, with the hand on way 0.
        assert_eq!(p.state_key(), [0, 0, 0, 0]);
    }

    #[test]
    fn referenced_way_survives_one_sweep() {
        let mut p = Clock::new(3);
        for w in 0..3 {
            p.on_fill(w);
        }
        let v = p.victim();
        assert_eq!(v, 0);
        p.on_fill(v); // hand moves to 1; bits [1,0,0]
        p.on_hit(1);
        // Victim search: hand at 1, referenced -> clear, advance to 2.
        assert_eq!(p.victim(), 2);
    }

    #[test]
    fn hand_advances_after_fill() {
        let mut p = Clock::new(4);
        for w in 0..4 {
            p.on_fill(w);
        }
        let v1 = p.victim();
        p.on_fill(v1);
        let v2 = p.victim();
        assert_ne!(v1, v2, "consecutive victims must differ");
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut p = Clock::new(4);
        p.on_fill(2);
        p.reset();
        assert_eq!(p.state_key(), [0, 0, 0, 0, 0]);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn assoc_one() {
        let mut p = Clock::new(1);
        p.on_fill(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn diverges_from_lru() {
        // CLOCK only approximates LRU; the same script produces different
        // victim sequences (hand-position dependence).
        use crate::conformance::{run_script, Step};
        use crate::PolicyKind;
        let script = [
            Step::Fill(0),
            Step::Fill(1),
            Step::Fill(2),
            Step::Hit(0),
            Step::MissFill,
            Step::Hit(1),
            Step::MissFill,
            Step::MissFill,
            Step::Hit(0),
            Step::MissFill,
            Step::MissFill,
        ];
        let clock_victims = run_script(&mut Clock::new(3), &script);
        let lru_victims = run_script(&mut PolicyKind::Lru.build_state(3, 0), &script);
        assert_eq!(clock_victims, vec![0, 2, 1, 2, 0]);
        assert_eq!(lru_victims, vec![1, 2, 0, 1, 2]);
    }
}
