//! Automata-learning inference backend: learn the cache's replacement
//! behaviour as an explicit Mealy machine instead of a permutation
//! vector.
//!
//! The permutation pipeline ([`PermutationEngine`](crate::infer::PermutationEngine))
//! is fast but only models *permutation policies* — policies whose state
//! is a total order over the ways. Many documented Intel policies are
//! outside that class (NRU, CLOCK, bit-PLRU, the QLRU family). This
//! module learns the policy with no structural assumption beyond
//! determinism and finiteness:
//!
//! 1. **Determinism battery** — repeated identical random words must
//!    give stable answers, or the policy is reported as
//!    [`NotDeterministic`](crate::infer::InferenceError::NotDeterministic).
//! 2. **Active learning** — an L*-style observation table over an
//!    abstract alphabet (a few tracked lines plus an always-fresh
//!    symbol) drives membership queries ("does the last access of this
//!    word hit?") through the same budgeted voting funnel as the
//!    permutation pipeline.
//! 3. **Bounded equivalence testing** — each hypothesis is challenged
//!    with an exhaustive sweep of short words and seeded random walks;
//!    surviving the budget accepts the hypothesis (sound only up to the
//!    tested bound — see `docs/automata.md`).
//! 4. **Template matching** — the minimized machine is compared against
//!    reference machines simulated from the policy catalog; an unmatched
//!    machine is reported as a *new* policy together with its learned
//!    state graph.
//!
//! ```
//! use cachekit_core::automata::{infer_automaton, AutomataConfig};
//! use cachekit_core::infer::{infer_geometry, InferenceConfig, SimOracle};
//! use cachekit_policies::PolicyKind;
//! use cachekit_sim::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cache = Cache::new(CacheConfig::new(4 * 1024, 4, 64)?, PolicyKind::Nru);
//! let mut oracle = SimOracle::new(cache);
//! let config = InferenceConfig::default();
//! let geometry = infer_geometry(&mut oracle, &config)?;
//! let report = infer_automaton(&mut oracle, &geometry, &config, &AutomataConfig::default())?;
//! assert_eq!(report.matched.as_deref(), Some("NRU"));
//! # Ok(())
//! # }
//! ```

mod learn;
mod machine;
mod templates;

pub use learn::LearnStats;
pub use machine::Mealy;
pub use templates::{match_template, template_kinds, template_library, template_machine};

use crate::infer::{CacheOracle, Geometry, InferenceConfig, InferenceError};
use cachekit_policies::rng::Prng;

/// Tuning knobs of the automata backend. The defaults learn every
/// catalog policy at the simulator's geometries in well under a second;
/// raise the equivalence budget for higher assurance, lower it for
/// cheaper (less sound) campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutomataConfig {
    /// Distinct tracked lines in the abstract alphabet. More lines
    /// distinguish more policies but grow the learned machine roughly
    /// geometrically; 2 separates the whole catalog.
    pub tracked: usize,
    /// Random words probed by the determinism battery.
    pub battery_words: usize,
    /// Raw readings taken of each battery word.
    pub battery_repeats: usize,
    /// Random walks per equivalence round.
    pub equivalence_queries: usize,
    /// Longest equivalence walk; `0` = auto (`3 × assoc + 4`).
    pub equivalence_max_len: usize,
    /// Learning rounds before giving up on convergence.
    pub max_rounds: usize,
    /// Pre-minimization state cap for exhaustive template construction;
    /// kinds whose raw product space exceeds it fall back to learning
    /// the template from the reference simulator.
    pub max_template_states: usize,
    /// Seed of the battery and equivalence word generators.
    pub seed: u64,
}

impl Default for AutomataConfig {
    fn default() -> Self {
        Self {
            tracked: 2,
            battery_words: 24,
            battery_repeats: 9,
            equivalence_queries: 2500,
            equivalence_max_len: 0,
            max_rounds: 64,
            max_template_states: 1 << 20,
            seed: 0xA7_70_AA_7A,
        }
    }
}

/// The outcome of one automata-learning campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AutomatonReport {
    /// The geometry the campaign ran against.
    pub geometry: Geometry,
    /// The learned machine, minimized and canonically numbered.
    pub machine: Mealy,
    /// Catalog label the machine matched, or `None` for a policy new to
    /// the template library (the machine itself is then the result).
    pub matched: Option<String>,
    /// Cost and fault accounting of the campaign.
    pub stats: LearnStats,
}

impl AutomatonReport {
    /// States of the learned machine.
    pub fn states(&self) -> usize {
        self.machine.states()
    }
}

/// Learn the replacement policy behind `oracle` as a Mealy machine and
/// match it against the catalog templates.
///
/// Shares the budget/vote semantics of the permutation pipeline: all
/// measurements flow through [`VotePlan`](crate::infer::VotePlan)
/// derived from `config` ([`vote_plan`](InferenceConfig::vote_plan)) and
/// charge [`budget`](InferenceConfig::budget); a dry budget aborts with
/// [`BudgetExhausted`](InferenceError::BudgetExhausted) instead of
/// guessing.
///
/// # Errors
///
/// [`NotDeterministic`](InferenceError::NotDeterministic) when the
/// battery finds unstable answers (random replacement lands here),
/// [`BudgetExhausted`](InferenceError::BudgetExhausted) on a dry budget,
/// and [`InconsistentReadout`](InferenceError::InconsistentReadout) when
/// no hypothesis survives within the round limit — or when the
/// observation table outgrows every template of the geometry's library
/// (twice the largest template's states): no catalog policy minimizes
/// that large, so unbounded growth means channel randomness slipped
/// past the battery, and the learner aborts instead of grinding the
/// budget into a quadratically growing table.
pub fn infer_automaton<O: CacheOracle>(
    oracle: &mut O,
    geometry: &Geometry,
    config: &InferenceConfig,
    auto: &AutomataConfig,
) -> Result<AutomatonReport, InferenceError> {
    infer_automaton_metered(oracle, geometry, config, auto).0
}

/// Like [`infer_automaton`], but returns the campaign's measurement
/// accounting alongside the outcome — including on failure. A
/// determinism rejection or a dry budget still spent real measurements
/// on the channel, and engine-level reports meter them honestly instead
/// of reporting a failed campaign as free.
pub fn infer_automaton_metered<O: CacheOracle>(
    oracle: &mut O,
    geometry: &Geometry,
    config: &InferenceConfig,
    auto: &AutomataConfig,
) -> (Result<AutomatonReport, InferenceError>, LearnStats) {
    let _span = cachekit_obs::span("infer_automaton");
    let mut oracle: &mut dyn CacheOracle = oracle;
    let mut mem = learn::Membership::new(
        &mut oracle,
        geometry,
        auto.tracked,
        config.vote_plan(),
        config.budget(),
    );
    let mut rng = Prng::seed_from_u64(auto.seed ^ config.seed);
    let max_len = if auto.equivalence_max_len == 0 {
        3 * geometry.associativity + 4
    } else {
        auto.equivalence_max_len
    };
    // Matching needs the library anyway (memoized process-wide), and
    // building it first yields the live state cap: no catalog policy at
    // this geometry minimizes past its largest template, so a table
    // growing to twice that size is a random channel that slipped the
    // determinism battery, not a policy — abort early instead of
    // grinding the whole budget into a quadratically growing table.
    let library = template_library(
        geometry.associativity,
        auto.tracked,
        auto.max_template_states,
    );
    let state_cap = library
        .iter()
        .map(|(_, m)| m.states())
        .max()
        .unwrap_or(0)
        .saturating_mul(2)
        .max(1024);
    let outcome = (|| {
        learn::determinism_battery(&mut mem, auto.battery_words, auto.battery_repeats, &mut rng)?;
        learn::learn_machine(
            &mut mem,
            auto.equivalence_queries,
            max_len,
            auto.max_rounds,
            state_cap,
            &mut rng,
        )
    })();
    let stats = mem.stats;
    let result = outcome.map(|machine| {
        let matched = match_template(&machine, &library);
        AutomatonReport {
            geometry: *geometry,
            machine,
            matched,
            stats,
        }
    });
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::SimOracle;
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn geometry(assoc: usize) -> Geometry {
        Geometry {
            line_size: 64,
            capacity: (assoc * 16 * 64) as u64,
            associativity: assoc,
            num_sets: 16,
        }
    }

    fn oracle(kind: PolicyKind, assoc: usize) -> SimOracle {
        let g = geometry(assoc);
        SimOracle::new(Cache::new(
            CacheConfig::new(g.capacity, assoc, 64).unwrap(),
            kind,
        ))
    }

    #[test]
    fn learns_lru_and_matches_the_template() {
        let mut o = oracle(PolicyKind::Lru, 4);
        let report = infer_automaton(
            &mut o,
            &geometry(4),
            &InferenceConfig::default(),
            &AutomataConfig::default(),
        )
        .unwrap();
        assert_eq!(report.matched.as_deref(), Some("LRU"));
        assert_eq!(report.states(), 1 + 2 * 4 + 4 * 3);
        assert!(report.stats.membership_queries > 0);
    }

    #[test]
    fn learns_a_non_permutation_policy() {
        let mut o = oracle(PolicyKind::BitPlru, 4);
        let report = infer_automaton(
            &mut o,
            &geometry(4),
            &InferenceConfig::default(),
            &AutomataConfig::default(),
        )
        .unwrap();
        assert_eq!(report.matched.as_deref(), Some("BitPLRU"));
    }

    #[test]
    fn random_replacement_is_reported_not_deterministic() {
        let mut o = oracle(PolicyKind::Random { seed: 7 }, 4);
        let err = infer_automaton(
            &mut o,
            &geometry(4),
            &InferenceConfig::default(),
            &AutomataConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, InferenceError::NotDeterministic { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn budget_exhaustion_aborts_cleanly() {
        let mut o = oracle(PolicyKind::Lru, 4);
        let config = InferenceConfig::builder()
            .measurement_budget(50)
            .build()
            .unwrap();
        let err =
            infer_automaton(&mut o, &geometry(4), &config, &AutomataConfig::default()).unwrap_err();
        assert!(
            matches!(err, InferenceError::BudgetExhausted { .. }),
            "got {err:?}"
        );
    }
}
