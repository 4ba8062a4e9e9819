//! Policy construction by name.

use crate::age::{AgePolicy, AgeRule};
use crate::recency::{RecencyPolicy, RecencyRule};
use crate::rng::mix64;
use crate::{Bimodal, BitPlru, Clock, PolicyState, RandomPolicy, TreePlru};

/// A constructible replacement-policy identity.
///
/// `PolicyKind` is the value-level name of a policy, used wherever policies
/// are selected by configuration: the simulator builds one instance per
/// cache set, the virtual CPUs of `cachekit-hw` pick their hidden policies,
/// and the benchmark harness sweeps over kinds.
///
/// # Example
///
/// ```
/// use cachekit_policies::{PolicyKind, ReplacementPolicy};
///
/// let mut p = PolicyKind::Lru.build_state(4, 0);
/// p.on_fill(1);
/// assert_eq!(p.name(), "LRU");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// First-in first-out.
    Fifo,
    /// Tree-based pseudo-LRU.
    TreePlru,
    /// Bit-based pseudo-LRU ("MRU").
    BitPlru,
    /// Not recently used.
    Nru,
    /// CLOCK / second chance.
    Clock,
    /// LRU-insertion policy.
    Lip,
    /// Segmented LRU with a protected segment of the given size.
    Slru {
        /// Number of protected stack positions (must be below the
        /// associativity).
        protected: usize,
    },
    /// Bimodal insertion policy with MRU-insertion probability `1/throttle`.
    Bip {
        /// Reciprocal of the MRU-insertion probability.
        throttle: u32,
    },
    /// Static RRIP with the given RRPV width.
    Srrip {
        /// RRPV counter width in bits (1..=7).
        bits: u8,
    },
    /// Bimodal RRIP.
    Brrip {
        /// RRPV counter width in bits (1..=7).
        bits: u8,
        /// Reciprocal of the long-insertion probability.
        throttle: u32,
    },
    /// Quad-age LRU with the given insertion age.
    Qlru {
        /// Age a fresh line is installed at (0..=3).
        insert: u8,
    },
    /// Uniform random replacement.
    Random {
        /// Base RNG seed (mixed with the per-set salt).
        seed: u64,
    },
    /// LRU with lazy promotion (the "undocumented" policy stand-in).
    LazyLru,
}

impl PolicyKind {
    /// Build the inline enum-dispatched policy state for a set with
    /// `assoc` ways — the execution-engine form the simulator stores per
    /// set: no virtual dispatch, and no heap allocation for a
    /// deterministic kind up to 16 ways.
    ///
    /// `salt` differentiates per-set RNG streams for stochastic policies
    /// (pass the set index); deterministic policies ignore it. BIP and
    /// BRRIP are one [`Bimodal`] over the base their bimodal rule names
    /// (LRU or SRRIP-k).
    ///
    /// # Panics
    ///
    /// Panics exactly where [`validate_for_assoc`](Self::validate_for_assoc)
    /// returns an error: `assoc` outside `1..=128`, or an invalid
    /// kind-specific parameter (zero throttle, RRPV width outside
    /// `1..=7`, QLRU insertion age above 3, SLRU leaving no
    /// probationary position).
    pub fn build_state(self, assoc: usize, salt: u64) -> PolicyState {
        match self {
            PolicyKind::Lru
            | PolicyKind::Fifo
            | PolicyKind::Lip
            | PolicyKind::Slru { .. }
            | PolicyKind::LazyLru => PolicyState::Recency(RecencyPolicy::new(self, assoc)),
            PolicyKind::Nru | PolicyKind::Srrip { .. } | PolicyKind::Qlru { .. } => {
                PolicyState::Age(AgePolicy::new(self, assoc))
            }
            PolicyKind::TreePlru => PolicyState::TreePlru(TreePlru::new(assoc)),
            PolicyKind::BitPlru => PolicyState::BitPlru(BitPlru::new(assoc)),
            PolicyKind::Clock => PolicyState::Clock(Clock::new(assoc)),
            PolicyKind::Bip { .. } => {
                PolicyState::Bimodal(Box::new(Bimodal::new(self, assoc, mix64(0xb1b0, salt))))
            }
            PolicyKind::Brrip { .. } => {
                PolicyState::Bimodal(Box::new(Bimodal::new(self, assoc, mix64(0xbbb1, salt))))
            }
            PolicyKind::Random { seed } => {
                PolicyState::Random(Box::new(RandomPolicy::new(assoc, mix64(seed, salt))))
            }
        }
    }

    /// The recency-stack rule of the kind at `assoc` ways, or `None` for
    /// a kind that is not a recency stack. This is the one definition of
    /// these five kinds; the policy the simulator runs and the
    /// permutation spec the inference catalog holds both read it.
    ///
    /// | kind | hits at stack positions ≥ `promote_from` promote to MRU | `insert_at` |
    /// |---|---|---|
    /// | LRU | 0 | 0 |
    /// | FIFO | A (never) | 0 |
    /// | LIP | 0 | A − 1 |
    /// | SLRU-k | 0 | k |
    /// | LazyLRU | A/2 | 0 |
    ///
    /// The rule does not check SLRU's protected size against the
    /// associativity; [`validate_for_assoc`](Self::validate_for_assoc)
    /// does.
    pub fn recency_rule(self, assoc: usize) -> Option<RecencyRule> {
        let (promote_from, insert_at) = match self {
            PolicyKind::Lru => (0, 0),
            PolicyKind::Fifo => (assoc, 0),
            PolicyKind::Lip => (0, assoc.saturating_sub(1)),
            PolicyKind::Slru { protected } => (0, protected),
            PolicyKind::LazyLru => (assoc / 2, 0),
            _ => return None,
        };
        Some(RecencyRule {
            promote_from,
            insert_at,
        })
    }

    /// The age-counter rule of the kind, or `None` for a kind that is not
    /// an age-counter policy. This is the one definition of these three
    /// kinds; the policy the simulator runs and the NRU batch kernel's
    /// packer both read it.
    ///
    /// | kind | saturation age `max` | insertion age |
    /// |---|---|---|
    /// | NRU | 1 | 0 |
    /// | SRRIP-k | 2^k − 1 | 2^k − 2 |
    /// | QLRU-i | 3 | i |
    ///
    /// A hit sets a way's age to 0, a fill to the insertion age and an
    /// invalidation to `max`; the victim is the lowest way at `max`,
    /// after every age has been raised until one reaches it. SRRIP with
    /// a 1-bit counter is NRU (Jaleel et al., ISCA 2010), and QLRU-2 is
    /// SRRIP-2.
    ///
    /// # Panics
    ///
    /// Panics if SRRIP's width is outside `1..=7` or QLRU's insertion
    /// age is above 3.
    pub(crate) fn age_rule(self) -> Option<AgeRule> {
        let (max, insert) = match self {
            PolicyKind::Nru => (1, 0),
            PolicyKind::Srrip { bits } => {
                assert!((1..=7).contains(&bits), "RRPV width must be 1..=7 bits");
                let max = (1u8 << bits) - 1;
                (max, max - 1)
            }
            PolicyKind::Qlru { insert } => {
                assert!(insert <= 3, "QLRU insertion age must be 0..=3");
                (3, insert)
            }
            _ => return None,
        };
        Some(AgeRule { max, insert })
    }

    /// The bimodal rule of the kind — the base kind it runs and the
    /// throttle `t` of its fill — or `None` for a kind that is not
    /// bimodal. This is the one definition of these two kinds; the
    /// policy the simulator runs and the DIP and DRRIP duels both read
    /// it.
    ///
    /// | kind | base | throttle |
    /// |---|---|---|
    /// | BIP-1/t (Qureshi et al., ISCA 2007) | LRU | t |
    /// | BRRIP-k-1/t (Jaleel et al., ISCA 2010) | SRRIP-k | t |
    ///
    /// A fill draws once and, with probability `1/t`, is the base's
    /// fill; otherwise it is the base's invalidation step, so the line
    /// starts where the base evicts next: the bottom of LRU's stack (as
    /// LIP inserts) or SRRIP-k's distant age 2^k − 1. Hits, victims,
    /// invalidations and the state key are the base's. A duel
    /// ([`DuelFamily`](crate::DuelFamily)) pits the kind against its
    /// base: DIP against LRU, DRRIP against SRRIP-k.
    ///
    /// # Panics
    ///
    /// Panics if the throttle is 0.
    pub(crate) fn bimodal_rule(self) -> Option<(PolicyKind, u32)> {
        let (base, throttle) = match self {
            PolicyKind::Bip { throttle } => (PolicyKind::Lru, throttle),
            PolicyKind::Brrip { bits, throttle } => (PolicyKind::Srrip { bits }, throttle),
            _ => return None,
        };
        assert!(throttle >= 1, "throttle must be at least 1");
        Some((base, throttle))
    }

    /// Check the kind's parameters against an associativity without
    /// building, returning a client-reportable message on mismatch.
    ///
    /// [`build_state`](Self::build_state) asserts these same constraints,
    /// so `Ok` means it cannot panic; callers that construct policies
    /// from untrusted input (the serving protocol, config files) should
    /// validate here first so a bad request is an error, not a panic.
    pub fn validate_for_assoc(self, assoc: usize) -> Result<(), String> {
        if assoc == 0 || assoc > 128 {
            return Err(format!("associativity {assoc} outside 1..=128"));
        }
        match self {
            PolicyKind::Srrip { bits } | PolicyKind::Brrip { bits, .. }
                if !(1..=7).contains(&bits) =>
            {
                Err(format!("RRPV width {bits} outside 1..=7 bits"))
            }
            PolicyKind::Bip { throttle: 0 } | PolicyKind::Brrip { throttle: 0, .. } => {
                Err("throttle must be at least 1 (the fill probability is 1/throttle)".into())
            }
            PolicyKind::Slru { protected } if protected >= assoc => Err(format!(
                "SLRU protected segment {protected} must be below the associativity {assoc} \
                 (at least one probationary position is required)"
            )),
            PolicyKind::Qlru { insert } if insert > 3 => Err(format!(
                "QLRU insertion age {insert} outside 0..=3 (the ages are 2-bit counters)"
            )),
            _ => Ok(()),
        }
    }

    /// Display name of the kind (matches the built policy's
    /// [`name`](crate::ReplacementPolicy::name) for the default parameters).
    pub fn label(self) -> String {
        match self {
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Fifo => "FIFO".into(),
            PolicyKind::TreePlru => "PLRU".into(),
            PolicyKind::BitPlru => "BitPLRU".into(),
            PolicyKind::Nru => "NRU".into(),
            PolicyKind::Clock => "CLOCK".into(),
            PolicyKind::Lip => "LIP".into(),
            PolicyKind::Slru { protected } => format!("SLRU-{protected}"),
            PolicyKind::Bip { throttle } => format!("BIP-1/{throttle}"),
            PolicyKind::Srrip { bits } => format!("SRRIP-{bits}"),
            PolicyKind::Qlru { insert } => format!("QLRU-{insert}"),
            PolicyKind::Brrip { bits, throttle } => format!("BRRIP-{bits}-1/{throttle}"),
            PolicyKind::Random { .. } => "Random".into(),
            PolicyKind::LazyLru => "LazyLRU".into(),
        }
    }

    /// Whether policies of this kind are deterministic functions of the
    /// access history.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            PolicyKind::Bip { .. } | PolicyKind::Brrip { .. } | PolicyKind::Random { .. }
        )
    }

    /// The deterministic kinds with default parameters — the set used by
    /// exhaustive tests and by the catalog-matching step of the
    /// reverse-engineering pipeline.
    pub fn deterministic_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::TreePlru,
            PolicyKind::BitPlru,
            PolicyKind::Nru,
            PolicyKind::Clock,
            PolicyKind::Lip,
            PolicyKind::Srrip { bits: 2 },
            PolicyKind::LazyLru,
        ]
    }

    /// The kinds compared in the evaluation figures (deterministic kinds
    /// plus the stochastic baselines).
    pub fn evaluation_kinds() -> Vec<PolicyKind> {
        let mut kinds = Self::deterministic_kinds();
        kinds.push(PolicyKind::Bip { throttle: 32 });
        kinds.push(PolicyKind::Brrip {
            bits: 2,
            throttle: 32,
        });
        kinds.push(PolicyKind::Random { seed: 0x5eed });
        kinds
    }

    /// The kinds exercised by the parallel/serial differential tests:
    /// the evaluation set plus SLRU, which the figures leave out but the
    /// execution engine must still replay bit-identically.
    pub fn differential_kinds() -> Vec<PolicyKind> {
        let mut kinds = Self::evaluation_kinds();
        kinds.push(PolicyKind::Slru { protected: 2 });
        kinds
    }

    /// Deterministic kinds the permutation-vector formalism cannot
    /// express (their hit updates depend on more than the relative
    /// access order) — the hidden-policy battery only the automata
    /// inference engine can name.
    pub fn non_permutation_kinds() -> Vec<PolicyKind> {
        vec![
            PolicyKind::BitPlru,
            PolicyKind::Nru,
            PolicyKind::Clock,
            PolicyKind::Srrip { bits: 2 },
            PolicyKind::Qlru { insert: 1 },
        ]
    }

    /// Parse a policy name back into a kind — the inverse of
    /// [`label`](Self::label), shared by the CLI and the serving
    /// protocol so both accept the same spellings.
    ///
    /// Accepts the canonical labels (`"SLRU-2"`, `"BIP-1/32"`,
    /// `"SRRIP-2"`, `"QLRU-1"`, `"BRRIP-2-1/32"`), case-insensitively,
    /// plus the plain aliases `PLRU`/`TREEPLRU`, `BITPLRU`/`MRU`, and
    /// bare `BIP`/`BRRIP`/`SRRIP`/`QLRU` (default parameters: throttle
    /// 32, 2 RRPV bits, insertion age 1). `"Random"` carries no seed in
    /// its label, so it parses to the evaluation seed `0x5eed`; every
    /// kind in [`differential_kinds`](Self::differential_kinds)
    /// round-trips through `label` → `parse_label` exactly.
    pub fn parse_label(name: &str) -> Option<PolicyKind> {
        let upper = name.trim().to_ascii_uppercase();
        let parsed = match upper.as_str() {
            "LRU" => PolicyKind::Lru,
            "FIFO" => PolicyKind::Fifo,
            "PLRU" | "TREEPLRU" => PolicyKind::TreePlru,
            "BITPLRU" | "MRU" => PolicyKind::BitPlru,
            "NRU" => PolicyKind::Nru,
            "CLOCK" => PolicyKind::Clock,
            "LIP" => PolicyKind::Lip,
            "BIP" => PolicyKind::Bip { throttle: 32 },
            "SRRIP" => PolicyKind::Srrip { bits: 2 },
            "QLRU" => PolicyKind::Qlru { insert: 1 },
            "BRRIP" => PolicyKind::Brrip {
                bits: 2,
                throttle: 32,
            },
            "RANDOM" => PolicyKind::Random { seed: 0x5eed },
            "LAZYLRU" => PolicyKind::LazyLru,
            _ => {
                if let Some(rest) = upper.strip_prefix("SLRU-") {
                    let protected: usize = rest.parse().ok()?;
                    PolicyKind::Slru { protected }
                } else if let Some(rest) = upper.strip_prefix("BIP-1/") {
                    let throttle: u32 = rest.parse().ok()?;
                    (throttle > 0).then_some(PolicyKind::Bip { throttle })?
                } else if let Some(rest) = upper.strip_prefix("SRRIP-") {
                    let bits: u8 = rest.parse().ok()?;
                    (1..=7)
                        .contains(&bits)
                        .then_some(PolicyKind::Srrip { bits })?
                } else if let Some(rest) = upper.strip_prefix("QLRU-") {
                    let insert: u8 = rest.parse().ok()?;
                    (insert <= 3).then_some(PolicyKind::Qlru { insert })?
                } else if let Some(rest) = upper.strip_prefix("BRRIP-") {
                    let (bits, throttle) = rest.split_once("-1/")?;
                    let bits: u8 = bits.parse().ok()?;
                    let throttle: u32 = throttle.parse().ok()?;
                    ((1..=7).contains(&bits) && throttle > 0)
                        .then_some(PolicyKind::Brrip { bits, throttle })?
                } else {
                    return None;
                }
            }
        };
        Some(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplacementPolicy;

    #[test]
    fn build_produces_matching_names() {
        for kind in PolicyKind::evaluation_kinds() {
            let p = kind.build_state(4, 0);
            assert_eq!(p.name(), kind.label(), "kind {kind:?}");
            assert_eq!(p.associativity(), 4);
        }
    }

    #[test]
    fn determinism_flags_match_instances() {
        for kind in PolicyKind::evaluation_kinds() {
            let p = kind.build_state(4, 0);
            assert_eq!(p.is_deterministic(), kind.is_deterministic());
        }
    }

    #[test]
    fn salt_differentiates_random_streams() {
        let mut a = PolicyKind::Random { seed: 1 }.build_state(8, 0);
        let mut b = PolicyKind::Random { seed: 1 }.build_state(8, 1);
        let va: Vec<usize> = (0..32).map(|_| a.victim()).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.victim()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn labels_round_trip_through_parse_label() {
        for kind in PolicyKind::differential_kinds() {
            assert_eq!(
                PolicyKind::parse_label(&kind.label()),
                Some(kind),
                "label {:?}",
                kind.label()
            );
        }
    }

    #[test]
    fn parse_label_accepts_aliases_and_rejects_junk() {
        assert_eq!(
            PolicyKind::parse_label("treeplru"),
            Some(PolicyKind::TreePlru)
        );
        assert_eq!(PolicyKind::parse_label("MRU"), Some(PolicyKind::BitPlru));
        assert_eq!(
            PolicyKind::parse_label("bip"),
            Some(PolicyKind::Bip { throttle: 32 })
        );
        assert_eq!(
            PolicyKind::parse_label(" slru-3 "),
            Some(PolicyKind::Slru { protected: 3 })
        );
        assert_eq!(
            PolicyKind::parse_label("qlru"),
            Some(PolicyKind::Qlru { insert: 1 })
        );
        assert_eq!(
            PolicyKind::parse_label("QLRU-0"),
            Some(PolicyKind::Qlru { insert: 0 })
        );
        assert_eq!(
            PolicyKind::parse_label("QLRU-4"),
            None,
            "insertion age out of range"
        );
        assert_eq!(
            PolicyKind::parse_label("SRRIP-9"),
            None,
            "bits out of range"
        );
        assert_eq!(PolicyKind::parse_label("BIP-1/0"), None, "zero throttle");
        assert_eq!(PolicyKind::parse_label("NOPE"), None);
    }

    #[test]
    fn validate_for_assoc_matches_build_panics() {
        assert!(PolicyKind::Slru { protected: 2 }
            .validate_for_assoc(4)
            .is_ok());
        assert!(PolicyKind::Slru { protected: 4 }
            .validate_for_assoc(4)
            .is_err());
        assert!(PolicyKind::Slru { protected: 8 }
            .validate_for_assoc(4)
            .is_err());
        assert!(PolicyKind::Lru.validate_for_assoc(0).is_err());
        assert!(PolicyKind::Lru.validate_for_assoc(129).is_err());
        for kind in PolicyKind::differential_kinds() {
            assert!(kind.validate_for_assoc(4).is_ok(), "kind {kind:?}");
        }
    }

    #[test]
    fn validate_for_assoc_is_ok_exactly_where_build_state_does_not_panic() {
        let mut kinds = PolicyKind::differential_kinds();
        kinds.extend((0..=4).map(|insert| PolicyKind::Qlru { insert }));
        kinds.extend([0, 1, 7, 8, 9].map(|bits| PolicyKind::Srrip { bits }));
        for bits in [0, 2, 8] {
            kinds.extend([0, 1].map(|throttle| PolicyKind::Brrip { bits, throttle }));
        }
        kinds.extend([0, 1].map(|throttle| PolicyKind::Bip { throttle }));
        kinds.extend([0, 3, 4].map(|protected| PolicyKind::Slru { protected }));
        for kind in kinds {
            for assoc in [0usize, 1, 4, 128, 129] {
                let builds = std::panic::catch_unwind(|| kind.build_state(assoc, 0)).is_ok();
                assert_eq!(
                    kind.validate_for_assoc(assoc).is_ok(),
                    builds,
                    "{kind:?} at {assoc} ways"
                );
            }
        }
    }

    #[test]
    fn deterministic_kinds_is_a_subset_of_evaluation_kinds() {
        let eval = PolicyKind::evaluation_kinds();
        for k in PolicyKind::deterministic_kinds() {
            assert!(eval.contains(&k));
        }
    }

    #[test]
    fn one_bit_srrip_is_nru_and_qlru_two_is_srrip_two() {
        assert_eq!(
            PolicyKind::Srrip { bits: 1 }.age_rule(),
            PolicyKind::Nru.age_rule()
        );
        assert_eq!(
            PolicyKind::Qlru { insert: 2 }.age_rule(),
            PolicyKind::Srrip { bits: 2 }.age_rule()
        );
        assert_eq!(PolicyKind::Lru.age_rule(), None);
    }

    #[test]
    fn non_permutation_kinds_are_deterministic_and_round_trip() {
        for kind in PolicyKind::non_permutation_kinds() {
            assert!(kind.is_deterministic(), "kind {kind:?}");
            assert_eq!(PolicyKind::parse_label(&kind.label()), Some(kind));
            assert!(kind.validate_for_assoc(4).is_ok());
        }
    }
}
