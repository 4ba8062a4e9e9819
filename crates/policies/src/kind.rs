//! Policy construction by name.

use crate::rng::mix64;
use crate::{
    Bip, BitPlru, Brrip, Clock, Fifo, LazyLru, Lip, Lru, Nru, PolicyState, Qlru, RandomPolicy,
    Slru, Srrip, TreePlru,
};

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
    /// set (no heap allocation, no virtual dispatch).
    ///
    /// `salt` differentiates per-set RNG streams for stochastic policies
    /// (pass the set index); deterministic policies ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, or if a kind-specific
    /// parameter is invalid (zero throttle, RRPV width outside `1..=7`).
    pub fn build_state(self, assoc: usize, salt: u64) -> PolicyState {
        match self {
            PolicyKind::Lru => PolicyState::Lru(Lru::new(assoc)),
            PolicyKind::Fifo => PolicyState::Fifo(Fifo::new(assoc)),
            PolicyKind::TreePlru => PolicyState::TreePlru(TreePlru::new(assoc)),
            PolicyKind::BitPlru => PolicyState::BitPlru(BitPlru::new(assoc)),
            PolicyKind::Nru => PolicyState::Nru(Nru::new(assoc)),
            PolicyKind::Clock => PolicyState::Clock(Clock::new(assoc)),
            PolicyKind::Lip => PolicyState::Lip(Lip::new(assoc)),
            PolicyKind::Slru { protected } => PolicyState::Slru(Slru::new(assoc, protected)),
            PolicyKind::Bip { throttle } => {
                PolicyState::Bip(Box::new(Bip::new(assoc, throttle, mix64(0xb1b0, salt))))
            }
            PolicyKind::Srrip { bits } => PolicyState::Srrip(Srrip::new(assoc, bits)),
            PolicyKind::Qlru { insert } => PolicyState::Qlru(Qlru::new(assoc, insert)),
            PolicyKind::Brrip { bits, throttle } => PolicyState::Brrip(Box::new(Brrip::new(
                assoc,
                bits,
                throttle,
                mix64(0xbbb1, salt),
            ))),
            PolicyKind::Random { seed } => {
                PolicyState::Random(Box::new(RandomPolicy::new(assoc, mix64(seed, salt))))
            }
            PolicyKind::LazyLru => PolicyState::LazyLru(LazyLru::new(assoc)),
        }
    }

    /// Check the kind's parameters against an associativity without
    /// building, returning a client-reportable message on mismatch.
    ///
    /// [`build_state`](Self::build_state) asserts these same constraints; callers
    /// that construct policies from untrusted input (the serving
    /// protocol, config files) should validate here first so a bad
    /// request is an error, not a panic.
    pub fn validate_for_assoc(self, assoc: usize) -> Result<(), String> {
        if assoc == 0 || assoc > 128 {
            return Err(format!("associativity {assoc} outside 1..=128"));
        }
        match self {
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
    fn deterministic_kinds_is_a_subset_of_evaluation_kinds() {
        let eval = PolicyKind::evaluation_kinds();
        for k in PolicyKind::deterministic_kinds() {
            assert!(eval.contains(&k));
        }
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
