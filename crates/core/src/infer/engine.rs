//! The unified inference-engine API: one request/report shape over
//! every way cachekit can reverse engineer a replacement policy.
//!
//! The permutation pipeline and the automata learner answer the same
//! question — *what policy is behind this oracle?* — with different
//! modelling power, cost, and failure modes. [`InferenceEngine`] makes
//! that an explicit, swappable choice instead of a hard-coded function
//! call: callers build an [`InferenceRequest`], pick an engine (by
//! value, or by protocol name through [`engine_by_name`]), and receive
//! an [`InferenceReport`] whose accounting fields mean the same thing
//! regardless of backend.
//!
//! * [`PermutationEngine`] — the paper's pipeline: fast, but only
//!   policies expressible as permutation vectors. Budgeted by default
//!   (the robust serving path); [`PermutationEngine::strict`] gives the
//!   classic fail-fast variant.
//! * [`AutomataEngine`] — the L*-style Mealy-machine learner in
//!   [`crate::automata`]: slower, but identifies NRU, CLOCK, bit-PLRU
//!   and QLRU-class policies the permutation formalism must reject, and
//!   returns the learned machine itself for anything unmatched.
//! * [`AutoEngine`] — permutation first; on a *class* rejection
//!   (`NotAPermutationPolicy`, `NotFrontInsertion`) falls back to the
//!   automata learner.
//!
//! ```
//! use cachekit_core::infer::{
//!     engine_by_name, infer_geometry, InferenceConfig, InferenceRequest, SimOracle,
//! };
//! use cachekit_policies::PolicyKind;
//! use cachekit_sim::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cache = Cache::new(CacheConfig::new(16 * 1024, 4, 64)?, PolicyKind::TreePlru);
//! let mut oracle = SimOracle::new(cache);
//! let config = InferenceConfig::default();
//! let geometry = infer_geometry(&mut oracle, &config)?;
//! let engine = engine_by_name("permutation").expect("known engine");
//! let report = engine.infer(&mut oracle, &InferenceRequest::new(geometry, config));
//! assert_eq!(report.finding().and_then(|f| f.matched()), Some("PLRU"));
//! # Ok(())
//! # }
//! ```

use crate::automata::{infer_automaton_metered, AutomataConfig, AutomatonReport};
use crate::infer::oracle::CacheOracle;
use crate::infer::policy::{self, Budgeted, PolicyReport, Strict};
use crate::infer::{Geometry, InferenceConfig, InferenceError};

/// Everything an engine needs to run one inference campaign: the
/// geometry to probe at and the shared measurement configuration
/// (voting, budget, seed). Engine-specific tuning lives on the engine
/// value itself, so one request can be replayed across engines.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// The cache geometry the campaign targets (usually from
    /// [`infer_geometry`](crate::infer::infer_geometry)).
    pub geometry: Geometry,
    /// Voting, budget, and seeding shared by every engine.
    pub config: InferenceConfig,
}

impl InferenceRequest {
    /// Bundle a geometry and a configuration into a request.
    pub fn new(geometry: Geometry, config: InferenceConfig) -> Self {
        Self { geometry, config }
    }
}

/// What an engine discovered: the backend-specific evidence for its
/// verdict, unified enough for callers that only want the label.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// A validated permutation-vector model (the paper's formalism).
    Permutation(PolicyReport),
    /// A learned, minimized Mealy machine, matched or novel.
    Automaton(AutomatonReport),
}

impl Finding {
    /// The catalog label the evidence matched, if any. `None` means a
    /// policy outside the respective library — for the automata engine
    /// the machine itself is still available as evidence.
    pub fn matched(&self) -> Option<&str> {
        match self {
            Finding::Permutation(report) => report.matched,
            Finding::Automaton(report) => report.matched.as_deref(),
        }
    }

    /// The permutation-formalism evidence, when this finding carries
    /// it.
    pub fn permutation(&self) -> Option<&PolicyReport> {
        match self {
            Finding::Permutation(report) => Some(report),
            Finding::Automaton(_) => None,
        }
    }

    /// The learned-machine evidence, when this finding carries it.
    pub fn automaton(&self) -> Option<&AutomatonReport> {
        match self {
            Finding::Permutation(_) => None,
            Finding::Automaton(report) => Some(report),
        }
    }

    /// Human description of the evidence (the backend's own summary).
    pub fn summary(&self) -> String {
        match self {
            Finding::Permutation(report) => report.summary(),
            Finding::Automaton(report) => match &report.matched {
                Some(name) => format!(
                    "{} cache: policy = {name} ({}-state machine)",
                    report.geometry,
                    report.states()
                ),
                None => format!(
                    "{} cache: new policy — unmatched {}-state machine",
                    report.geometry,
                    report.states()
                ),
            },
        }
    }
}

/// The uniform outcome of one engine run. Field semantics are shared
/// across engines so differential comparisons and serving code never
/// branch on the backend for accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Name of the engine that produced this report. For
    /// [`AutoEngine`] this is the backend that produced the final
    /// verdict, not `"auto"`.
    pub engine: &'static str,
    /// The evidence found, or why inference stopped. Several errors are
    /// *findings* (`NotAPermutationPolicy`, `NotDeterministic`), not
    /// faults.
    pub outcome: Result<Finding, InferenceError>,
    /// `true` when the campaign ran its measurement budget dry and the
    /// outcome is therefore partial.
    pub degraded: bool,
    /// Overall confidence in `[0, 1]`: the minimum per-query agreement
    /// (permutation) or the determinism-battery stability (automata).
    pub confidence: f64,
    /// Per-hit-position read-out confidences (permutation engines
    /// only; empty for automata).
    pub position_confidences: Vec<f64>,
    /// Raw oracle attempts charged, faulted attempts included.
    pub measurements_used: u64,
    /// The configured budget ceiling (`None` = unlimited).
    pub measurement_budget: Option<u64>,
    /// Transient timeouts absorbed across the campaign.
    pub timeouts: u64,
    /// Dropped/short readings absorbed across the campaign.
    pub dropped: u64,
}

impl InferenceReport {
    /// The evidence, when the campaign produced any.
    pub fn finding(&self) -> Option<&Finding> {
        self.outcome.as_ref().ok()
    }

    /// Did the campaign produce a full answer at or above `threshold`
    /// confidence? The differential suites hold every engine to the
    /// same bar: `is_confident` must imply *correct*.
    pub fn is_confident(&self, threshold: f64) -> bool {
        self.outcome.is_ok() && !self.degraded && self.confidence >= threshold
    }
}

/// A strategy for reverse engineering the replacement policy behind a
/// black-box oracle. Object-safe: serving code holds
/// `Box<dyn InferenceEngine>` picked from the request's `engine` field.
pub trait InferenceEngine {
    /// Stable protocol name of this engine (`"permutation"`,
    /// `"automata"`, `"auto"`).
    fn name(&self) -> &'static str;

    /// Run one inference campaign against `oracle`. Engines never
    /// panic on channel behaviour: everything the channel can do wrong
    /// is an `outcome` error with honest accounting around it.
    fn infer(&self, oracle: &mut dyn CacheOracle, request: &InferenceRequest) -> InferenceReport;
}

/// The permutation-formalism engine (the paper's pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PermutationEngine {
    strict: bool,
}

impl PermutationEngine {
    /// The budgeted, fault-tolerant serving variant: adaptive voting
    /// against the request's measurement budget, with transient faults
    /// absorbed and a degraded partial report instead of unbounded
    /// spending. This is the default.
    pub fn budgeted() -> Self {
        Self { strict: false }
    }

    /// The classic fail-fast variant: a fixed median vote per query, no
    /// budget accounting (`measurements_used` is 0 and confidence is 1.0
    /// for a report, 0.0 for an error).
    pub fn strict() -> Self {
        Self { strict: true }
    }
}

impl InferenceEngine for PermutationEngine {
    fn name(&self) -> &'static str {
        "permutation"
    }

    fn infer(&self, oracle: &mut dyn CacheOracle, request: &InferenceRequest) -> InferenceReport {
        if self.strict {
            policy::run(self.name(), oracle, request, Strict::new(&request.config))
        } else {
            policy::run(self.name(), oracle, request, Budgeted::new(&request.config))
        }
    }
}

/// The automata-learning engine (see [`crate::automata`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AutomataEngine {
    /// Tuning of the learner; [`AutomataConfig::default`] learns the
    /// whole catalog at simulator geometries.
    pub automata: AutomataConfig,
}

impl AutomataEngine {
    /// An engine with specific learner tuning.
    pub fn with_config(automata: AutomataConfig) -> Self {
        Self { automata }
    }
}

impl InferenceEngine for AutomataEngine {
    fn name(&self) -> &'static str {
        "automata"
    }

    fn infer(&self, oracle: &mut dyn CacheOracle, request: &InferenceRequest) -> InferenceReport {
        let (outcome, stats) = infer_automaton_metered(
            &mut &mut *oracle,
            &request.geometry,
            &request.config,
            &self.automata,
        );
        let budget_limit = request.config.budget().limit();
        match outcome {
            Ok(report) => {
                // Confidence = determinism-battery stability: the
                // fraction of probe words whose repeated raw readings
                // agreed. Voting already absorbs transient faults, so
                // this measures how deterministic the channel looked,
                // which is the automata analogue of read-out agreement.
                let battery = self.automata.battery_words.max(1);
                let confidence = 1.0 - stats.battery_flagged as f64 / battery as f64;
                InferenceReport {
                    engine: self.name(),
                    outcome: Ok(Finding::Automaton(report)),
                    degraded: false,
                    confidence,
                    position_confidences: Vec::new(),
                    measurements_used: stats.readings + stats.timeouts + stats.dropped,
                    measurement_budget: budget_limit,
                    timeouts: stats.timeouts,
                    dropped: stats.dropped,
                }
            }
            Err(err) => {
                // A failed campaign still spent real measurements —
                // meter them instead of reporting the failure as free.
                let degraded = matches!(&err, InferenceError::BudgetExhausted { .. });
                InferenceReport {
                    engine: self.name(),
                    outcome: Err(err),
                    degraded,
                    confidence: 0.0,
                    position_confidences: Vec::new(),
                    measurements_used: stats.readings + stats.timeouts + stats.dropped,
                    measurement_budget: budget_limit,
                    timeouts: stats.timeouts,
                    dropped: stats.dropped,
                }
            }
        }
    }
}

/// Permutation first, automata on class rejection: the cheap engine
/// answers everything it can; only genuine "outside the permutation
/// class" findings pay for learning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutoEngine {
    /// The first-pass permutation engine (budgeted by default).
    pub permutation: PermutationEngine,
    /// The fallback learner.
    pub automata: AutomataEngine,
}

impl InferenceEngine for AutoEngine {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn infer(&self, oracle: &mut dyn CacheOracle, request: &InferenceRequest) -> InferenceReport {
        let first = self.permutation.infer(&mut *oracle, request);
        match &first.outcome {
            // Class rejections are what the automata engine exists
            // for. Everything else — success, budget exhaustion,
            // channel inconsistency — stands as the verdict (a dry
            // budget would doom the learner too, only slower).
            Err(InferenceError::NotAPermutationPolicy { .. })
            | Err(InferenceError::NotFrontInsertion { .. }) => self.automata.infer(oracle, request),
            _ => first,
        }
    }
}

/// Resolve a protocol engine name (`"permutation"`, `"automata"`,
/// `"auto"`) to a boxed engine with default tuning. `None` for unknown
/// names — the serving layer turns that into a 400.
pub fn engine_by_name(name: &str) -> Option<Box<dyn InferenceEngine + Send + Sync>> {
    match name {
        "permutation" => Some(Box::new(PermutationEngine::budgeted())),
        "automata" => Some(Box::new(AutomataEngine::default())),
        "auto" => Some(Box::new(AutoEngine::default())),
        _ => None,
    }
}

/// Every name [`engine_by_name`] accepts, in canonical order.
pub fn engine_names() -> &'static [&'static str] {
    &["permutation", "automata", "auto"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_geometry, SimOracle};
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn request(oracle: &mut SimOracle) -> InferenceRequest {
        let config = InferenceConfig::default();
        let geometry = infer_geometry(oracle, &config).unwrap();
        InferenceRequest::new(geometry, config)
    }

    fn oracle(kind: PolicyKind) -> SimOracle {
        SimOracle::new(Cache::new(CacheConfig::new(4 * 1024, 4, 64).unwrap(), kind))
    }

    #[test]
    fn permutation_engine_matches_the_strict_pipeline() {
        let mut o = oracle(PolicyKind::Lru);
        let req = request(&mut o);
        for engine in [PermutationEngine::budgeted(), PermutationEngine::strict()] {
            let report = engine.infer(&mut o, &req);
            assert_eq!(report.engine, "permutation");
            assert_eq!(report.finding().and_then(|f| f.matched()), Some("LRU"));
            assert!(report.is_confident(0.75), "{report:?}");
        }
    }

    #[test]
    fn automata_engine_identifies_a_non_permutation_policy() {
        let mut o = oracle(PolicyKind::Nru);
        let req = request(&mut o);
        let report = AutomataEngine::default().infer(&mut o, &req);
        assert_eq!(report.engine, "automata");
        assert_eq!(report.finding().and_then(|f| f.matched()), Some("NRU"));
        assert!(report.measurements_used > 0);
    }

    #[test]
    fn auto_engine_falls_back_on_class_rejection() {
        let mut o = oracle(PolicyKind::BitPlru);
        let req = request(&mut o);
        let report = AutoEngine::default().infer(&mut o, &req);
        assert_eq!(report.engine, "automata", "should have fallen back");
        assert_eq!(report.finding().and_then(|f| f.matched()), Some("BitPLRU"));
    }

    #[test]
    fn auto_engine_stops_at_the_permutation_answer_when_it_fits() {
        let mut o = oracle(PolicyKind::Fifo);
        let req = request(&mut o);
        let report = AutoEngine::default().infer(&mut o, &req);
        assert_eq!(report.engine, "permutation");
        assert_eq!(report.finding().and_then(|f| f.matched()), Some("FIFO"));
    }

    #[test]
    fn engine_names_resolve_and_unknown_names_do_not() {
        for name in engine_names() {
            let engine = engine_by_name(name).expect("listed names resolve");
            assert_eq!(engine.name(), *name);
        }
        assert!(engine_by_name("quantum").is_none());
    }

    #[test]
    fn random_replacement_is_an_error_finding_not_a_panic() {
        let mut o = oracle(PolicyKind::Random { seed: 3 });
        let req = request(&mut o);
        let report = AutomataEngine::default().infer(&mut o, &req);
        assert!(report.outcome.is_err());
        assert!(!report.is_confident(0.5));
    }
}
