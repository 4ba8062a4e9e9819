//! The age-counter policies: NRU, SRRIP-k and QLRU-i, one
//! [`AgePolicy`] driven by the two numbers `PolicyKind::age_rule`
//! defines for each. None is a permutation policy (a hit's effect
//! depends on the other ways' absolute ages, a victim search on way
//! indices); they are the permutation pipeline's negative inputs and
//! the automata backend's hidden policies.

use crate::recency::WayBytes;
use crate::{check_way, PolicyKind, ReplacementPolicy};

/// How an age-counter policy ages its ways: the saturation age `max`,
/// at which a way may be evicted, and the age a filled way starts at.
/// Read from [`PolicyKind::age_rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AgeRule {
    /// The saturation age: victims are chosen among the ways at it.
    pub(crate) max: u8,
    /// The age a filled way starts at.
    pub(crate) insert: u8,
}

/// The kind an [`AgePolicy`] was built as: it names the policy, the
/// rule alone decides what the policy does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AgeKind {
    Nru,
    Srrip,
    Qlru,
}

/// NRU, SRRIP-k or QLRU-i: one age per way, driven by the kind's
/// saturation age and insertion age. Build one with
/// [`PolicyKind::build_state`].
///
/// # Example
///
/// ```
/// use cachekit_policies::{PolicyKind, ReplacementPolicy};
///
/// // SRRIP-2 fills at age 2 and a hit sets age 0; no way is at 3, so
/// // the victim search ages every way once.
/// let mut p = PolicyKind::Srrip { bits: 2 }.build_state(4, 0);
/// for w in 0..4 {
///     p.on_fill(w);
/// }
/// p.on_hit(0);
/// assert_eq!(p.victim(), 1);
/// assert_eq!(p.state_key(), vec![1, 3, 3, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AgePolicy {
    ages: WayBytes,
    rule: AgeRule,
    kind: AgeKind,
}

impl AgePolicy {
    /// The policy of an age-counter `kind` at `assoc` ways, every way at
    /// the saturation age.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, or if `kind` is not
    /// an age-counter kind or its parameter is out of range (see
    /// [`PolicyKind::age_rule`]).
    pub(crate) fn new(kind: PolicyKind, assoc: usize) -> Self {
        let rule = kind
            .age_rule()
            .unwrap_or_else(|| panic!("{kind:?} is not an age-counter kind"));
        let kind = match kind {
            PolicyKind::Nru => AgeKind::Nru,
            PolicyKind::Srrip { .. } => AgeKind::Srrip,
            PolicyKind::Qlru { .. } => AgeKind::Qlru,
            _ => unreachable!("only age-counter kinds have a rule"),
        };
        Self {
            ages: WayBytes::from_fn(assoc, |_| rule.max),
            rule,
            kind,
        }
    }

    /// The kind this policy was built as.
    pub(crate) fn kind(&self) -> PolicyKind {
        match self.kind {
            AgeKind::Nru => PolicyKind::Nru,
            // SRRIP-k saturates at 2^k − 1.
            AgeKind::Srrip => PolicyKind::Srrip {
                bits: (self.rule.max + 1).trailing_zeros() as u8,
            },
            AgeKind::Qlru => PolicyKind::Qlru {
                insert: self.rule.insert,
            },
        }
    }

    /// The rule this policy runs.
    pub(crate) fn rule(&self) -> AgeRule {
        self.rule
    }

    /// The per-way ages, for the NRU batch kernel's packer in
    /// [`crate::kernel`].
    pub(crate) fn ages(&self) -> &[u8] {
        self.ages.as_slice()
    }

    pub(crate) fn ages_mut(&mut self) -> &mut [u8] {
        self.ages.as_mut_slice()
    }

    #[inline]
    fn set_age(&mut self, way: usize, age: u8) {
        let ages = self.ages.as_mut_slice();
        check_way(way, ages.len());
        ages[way] = age;
    }
}

impl ReplacementPolicy for AgePolicy {
    fn associativity(&self) -> usize {
        self.ages.as_slice().len()
    }

    fn name(&self) -> String {
        self.kind().label()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.set_age(way, 0);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        let max = self.rule.max;
        let ages = self.ages.as_mut_slice();
        loop {
            if let Some(way) = ages.iter().position(|&age| age == max) {
                return way;
            }
            ages.iter_mut().for_each(|age| *age += 1);
        }
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.set_age(way, self.rule.insert);
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.set_age(way, self.rule.max);
    }

    fn reset(&mut self) {
        let max = self.rule.max;
        self.ages.as_mut_slice().fill(max);
    }

    fn state_key(&self) -> Vec<u8> {
        self.ages.as_slice().to_vec()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.ages.as_slice());
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{run_script, Step};

    /// Kind, ways, script, the victims of the script's `MissFill`s, and
    /// the final ages.
    type Case = (PolicyKind, usize, Vec<Step>, Vec<usize>, Vec<u8>);

    #[test]
    fn hand_computed_cases() {
        use Step::{Fill, Hit, Invalidate, MissFill};
        let fills = |assoc: usize| (0..assoc).map(Fill).collect::<Vec<_>>();
        let nru = PolicyKind::Nru;
        let srrip = |bits| PolicyKind::Srrip { bits };
        let qlru = |insert| PolicyKind::Qlru { insert };
        let mut cases: Vec<Case> = vec![
            // NRU: the victim is the lowest way not referenced since the
            // last clear.
            (
                nru,
                4,
                vec![Fill(0), Fill(2), MissFill],
                vec![1],
                vec![0, 0, 0, 1],
            ),
            // With every way referenced, the victim search clears them
            // all and picks way 0.
            (
                nru,
                3,
                [fills(3), vec![MissFill]].concat(),
                vec![0],
                vec![0, 1, 1],
            ),
            (
                nru,
                3,
                [fills(3), vec![Hit(0), MissFill]].concat(),
                vec![0],
                vec![0, 1, 1],
            ),
            (nru, 1, vec![Fill(0), MissFill], vec![0], vec![0]),
            // SRRIP-2: fills predict a long interval (2), hits a near one.
            (srrip(2), 4, vec![Fill(0)], vec![], vec![2, 3, 3, 3]),
            (srrip(2), 4, vec![Fill(0), Hit(0)], vec![], vec![0, 3, 3, 3]),
            // No way is at 3, so one aging round brings ways 1..4 there.
            (
                srrip(2),
                4,
                [fills(4), vec![Hit(0), MissFill]].concat(),
                vec![1],
                vec![1, 2, 3, 3],
            ),
            // Aging saturates and terminates from age 0 at 3 bits.
            (
                srrip(3),
                2,
                vec![Hit(0), Hit(1), MissFill],
                vec![0],
                vec![6, 7],
            ),
            // With one bit a fill inserts at age 0, as NRU does.
            (
                srrip(1),
                3,
                [fills(3), vec![MissFill]].concat(),
                vec![0],
                vec![0, 1, 1],
            ),
            // A scan misses only the cold ways while ways 0 and 1 are hot.
            (
                srrip(2),
                4,
                [fills(4), [Hit(0), Hit(1), MissFill].repeat(32)].concat(),
                [2, 3].repeat(16),
                vec![0, 0, 2, 2],
            ),
            // QLRU-1: ages [0,1,1,1] need two aging rounds.
            (
                qlru(1),
                4,
                [fills(4), vec![Hit(0), MissFill]].concat(),
                vec![1],
                vec![2, 1, 3, 3],
            ),
            // QLRU-0 protects a fresh line for three aging rounds, QLRU-3
            // offers it up at once.
            (
                qlru(0),
                4,
                [fills(4), vec![Hit(0), Hit(1), Hit(2), MissFill]].concat(),
                vec![0],
                vec![0, 3, 3, 3],
            ),
            (
                qlru(3),
                4,
                [fills(4), vec![Hit(0), Hit(1), Hit(2), MissFill]].concat(),
                vec![3],
                vec![0, 0, 0, 3],
            ),
            // An invalidated way is saturated, so it is the next victim.
            (
                qlru(0),
                4,
                [fills(4), vec![Invalidate(2), MissFill]].concat(),
                vec![2],
                vec![0, 0, 0, 0],
            ),
            // A 24-way policy keeps its ages on the heap and runs alike.
            (
                srrip(2),
                24,
                [fills(24), vec![Invalidate(7), MissFill, Hit(5), MissFill]].concat(),
                vec![7, 0],
                (0..24)
                    .map(|w| match w {
                        0 => 2,
                        5 => 1,
                        _ => 3,
                    })
                    .collect(),
            ),
        ];
        for insert in 0..=3 {
            cases.push((
                qlru(insert),
                4,
                vec![Fill(0)],
                vec![],
                vec![insert, 3, 3, 3],
            ));
            cases.push((
                qlru(insert),
                4,
                vec![Fill(0), Hit(0)],
                vec![],
                vec![0, 3, 3, 3],
            ));
        }
        for (kind, assoc, script, victims, ages) in cases {
            let mut p = AgePolicy::new(kind, assoc);
            assert_eq!(run_script(&mut p, &script), victims, "{kind:?}@{assoc}");
            assert_eq!(p.ages(), ages, "{kind:?}@{assoc}");
            p.reset();
            assert_eq!(p.ages(), vec![p.rule.max; assoc], "{kind:?}@{assoc}");
        }
    }

    #[test]
    fn nru_clears_lazily_where_bit_plru_clears_eagerly() {
        // Bit-PLRU flash-cleared at the third fill, keeping way 2; NRU
        // keeps every way referenced until a victim search clears them.
        let mut nru = PolicyKind::Nru.build_state(3, 0);
        let mut bit_plru = PolicyKind::BitPlru.build_state(3, 0);
        for w in 0..3 {
            nru.on_fill(w);
            bit_plru.on_fill(w);
        }
        assert_eq!(nru.state_key(), [0, 0, 0]);
        assert_eq!(bit_plru.state_key(), [0, 0, 1]);
        nru.on_hit(0);
        bit_plru.on_hit(0);
        assert_eq!(nru.victim(), 0);
        assert_eq!(bit_plru.victim(), 1);
    }

    #[test]
    fn names_and_kinds_round_trip() {
        let mut kinds = vec![PolicyKind::Nru];
        kinds.extend((1..=7).map(|bits| PolicyKind::Srrip { bits }));
        kinds.extend((0..=3).map(|insert| PolicyKind::Qlru { insert }));
        for kind in kinds {
            let p = AgePolicy::new(kind, 4);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.name(), kind.label());
            assert_eq!(Some(p.rule()), kind.age_rule());
        }
    }

    #[test]
    #[should_panic(expected = "way index")]
    fn hit_out_of_range_panics() {
        AgePolicy::new(PolicyKind::Nru, 2).on_hit(2);
    }
}
