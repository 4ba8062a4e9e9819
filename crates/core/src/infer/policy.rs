//! Replacement-policy inference over a measurement oracle.
//!
//! This is the hardware-facing twin of [`crate::perm::derive_permutation_spec`]:
//! the same read-out algorithm, but phrased purely in terms of
//! [`CacheOracle`] calls on conflicting addresses. One pipeline runs every
//! step — noise floor, insertion position, base order, one hit read-out
//! per position, predicted-vs-measured validation, catalog match — and a
//! [`Voter`] decides how each query is voted:
//!
//! * [`Strict`] takes the median of `repetitions` readings per query and
//!   never runs dry (`PermutationEngine::strict`);
//! * [`Budgeted`] votes adaptively, absorbs transient faults and charges
//!   every raw attempt against the campaign's [`MeasurementBudget`]; a
//!   campaign that runs the budget dry returns a degraded partial report
//!   instead of guessing (`PermutationEngine::budgeted`).

use crate::infer::engine::{Finding, InferenceReport, InferenceRequest};
use crate::infer::oracle::{estimate_counter_noise, CacheOracle};
use crate::infer::vote::{MeasurementBudget, VoteOutcome, VotePlan};
use crate::infer::{Geometry, InferenceConfig, InferenceError, ReadoutSearch};
use crate::perm::{match_spec, Permutation, PermutationSpec};
use cachekit_policies::rng::Prng;
use std::fmt;

/// The result of a successful policy inference.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// The geometry the inference ran against.
    pub geometry: Geometry,
    /// The inferred policy description.
    pub spec: PermutationSpec,
    /// Canonical name if the spec matches the catalog; `None` means a
    /// previously undocumented policy.
    pub matched: Option<&'static str>,
    /// Miss insertion position (always 0 for a successful inference).
    pub insertion_position: usize,
    /// Validation scripts run.
    pub validation_rounds: usize,
    /// Validation scripts that diverged (0 for a successful inference
    /// under the configured tolerance).
    pub validation_mismatches: usize,
}

impl PolicyReport {
    /// Human-readable one-paragraph summary, as printed in Table 2.
    pub fn summary(&self) -> String {
        let name = match self.matched {
            Some(n) => n.to_owned(),
            None => "UNDOCUMENTED (no catalog match)".to_owned(),
        };
        format!(
            "{} cache: policy = {}, validated on {}/{} scripts\n{}",
            self.geometry,
            name,
            self.validation_rounds - self.validation_mismatches,
            self.validation_rounds,
            self.spec.render()
        )
    }
}

impl fmt::Display for PolicyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Address planner for one cache set: the base blocks, a marked block and
/// a fresh pool, all mapping to set 0 with distinct tags.
struct SetAddrs {
    way_size: u64,
    assoc: usize,
}

impl SetAddrs {
    fn new(geometry: &Geometry) -> Self {
        Self {
            way_size: geometry.way_size(),
            assoc: geometry.associativity,
        }
    }

    fn base(&self, i: usize) -> u64 {
        debug_assert!(i < self.assoc);
        i as u64 * self.way_size
    }

    fn base_fill(&self) -> Vec<u64> {
        (0..self.assoc).map(|i| self.base(i)).collect()
    }

    fn marked(&self) -> u64 {
        999 * self.way_size
    }

    fn fresh(&self, k: usize) -> Vec<u64> {
        (0..k as u64).map(|i| (1000 + i) * self.way_size).collect()
    }

    fn extra(&self, i: usize) -> u64 {
        (self.assoc + i) as u64 * self.way_size
    }
}

/// The budget ran dry mid-query; carries the
/// [`BudgetExhausted`](InferenceError::BudgetExhausted) error to report.
pub(crate) struct Exhausted(InferenceError);

/// Why the pipeline stopped without a report.
enum Stop {
    /// The budget ran dry: the report is partial and degraded.
    Exhausted(InferenceError),
    /// A finding about the policy, or readings too inconsistent to use;
    /// an inconsistent read-out is retried, exhaustion never is.
    Failed(InferenceError),
}

impl From<Exhausted> for Stop {
    fn from(Exhausted(err): Exhausted) -> Self {
        Stop::Exhausted(err)
    }
}

fn inconsistent(reason: impl Into<String>) -> Stop {
    Stop::Failed(InferenceError::InconsistentReadout(reason.into()))
}

/// How the pipeline votes its queries, and what it reports about them.
pub(crate) trait Voter {
    /// The outer span of a campaign.
    const SPAN: &'static str;

    /// The channel's false-event rate on warm hits.
    fn noise_floor(&mut self, oracle: &mut dyn CacheOracle) -> Result<f64, Exhausted>;

    /// One read-out query: the voted miss count and the readings'
    /// agreement with it.
    fn vote(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<(usize, f64), Exhausted>;

    /// The voted miss count of one validation script.
    fn validate(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<usize, Exhausted>;

    /// The campaign's report around the pipeline's outcome.
    fn report(
        self,
        engine: &'static str,
        outcome: Result<Finding, InferenceError>,
        degraded: bool,
        position_confidences: Vec<f64>,
    ) -> InferenceReport;
}

/// Fixed-cost voting: the median of `repetitions` readings per query, no
/// budget, no accounting.
pub(crate) struct Strict {
    plan: VotePlan,
}

impl Strict {
    pub(crate) fn new(config: &InferenceConfig) -> Self {
        Self {
            plan: VotePlan::of(config.repetitions),
        }
    }
}

impl Voter for Strict {
    const SPAN: &'static str = "infer_policy";

    fn noise_floor(&mut self, oracle: &mut dyn CacheOracle) -> Result<f64, Exhausted> {
        Ok(estimate_counter_noise(oracle, 200))
    }

    fn vote(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<(usize, f64), Exhausted> {
        Ok((self.plan.measure(oracle, warmup, probe), 1.0))
    }

    fn validate(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<usize, Exhausted> {
        Ok(self.plan.measure(oracle, warmup, probe))
    }

    /// The verdict is the only confidence signal: 1.0 for a report, 0.0
    /// for an error.
    fn report(
        self,
        engine: &'static str,
        outcome: Result<Finding, InferenceError>,
        _degraded: bool,
        _position_confidences: Vec<f64>,
    ) -> InferenceReport {
        InferenceReport {
            engine,
            confidence: if outcome.is_ok() { 1.0 } else { 0.0 },
            outcome,
            degraded: false,
            position_confidences: Vec::new(),
            measurements_used: 0,
            measurement_budget: None,
            timeouts: 0,
            dropped: 0,
        }
    }
}

/// Adaptive, fault-absorbing voting against one shared budget, with
/// running fault and confidence accounting.
pub(crate) struct Budgeted {
    plan: VotePlan,
    /// Validation scripts take a fixed median, without escalation.
    validation: VotePlan,
    budget: MeasurementBudget,
    timeouts: u64,
    dropped: u64,
    /// Lowest agreement over the completed read-out queries; `None`
    /// before the first.
    confidence: Option<f64>,
}

impl Budgeted {
    pub(crate) fn new(config: &InferenceConfig) -> Self {
        Self {
            plan: config.vote_plan(),
            validation: VotePlan::of(config.repetitions),
            budget: config.budget(),
            timeouts: 0,
            dropped: 0,
            confidence: None,
        }
    }

    /// One query under `plan`, charged to the budget and the fault
    /// accounting.
    fn measure(
        &mut self,
        plan: VotePlan,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<VoteOutcome, Exhausted> {
        let out = plan.measure_budgeted(oracle, warmup, probe, &mut self.budget);
        self.timeouts = self.timeouts.saturating_add(out.timeouts);
        self.dropped = self.dropped.saturating_add(out.dropped);
        if out.exhausted {
            let used = self.budget.used();
            return Err(Exhausted(InferenceError::BudgetExhausted {
                used,
                budget: self.budget.limit().unwrap_or(used),
            }));
        }
        Ok(out)
    }
}

impl Voter for Budgeted {
    const SPAN: &'static str = "infer_policy_robust";

    /// Re-probe a freshly warmed line 100 times, one reading each: a
    /// clean channel always reports a hit.
    fn noise_floor(&mut self, oracle: &mut dyn CacheOracle) -> Result<f64, Exhausted> {
        let _span = cachekit_obs::span("estimate_noise");
        const ROUNDS: usize = 100;
        let mut events = 0usize;
        for _ in 0..ROUNDS {
            events += self
                .measure(VotePlan::single(), oracle, &[0], &[0])?
                .value
                .min(1);
        }
        Ok(events as f64 / ROUNDS as f64)
    }

    fn vote(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<(usize, f64), Exhausted> {
        let out = self.measure(self.plan, oracle, warmup, probe)?;
        self.confidence = Some(
            self.confidence
                .map_or(out.confidence, |c| c.min(out.confidence)),
        );
        Ok((out.value, out.confidence))
    }

    fn validate(
        &mut self,
        oracle: &mut dyn CacheOracle,
        warmup: &[u64],
        probe: &[u64],
    ) -> Result<usize, Exhausted> {
        Ok(self.measure(self.validation, oracle, warmup, probe)?.value)
    }

    fn report(
        self,
        engine: &'static str,
        outcome: Result<Finding, InferenceError>,
        degraded: bool,
        position_confidences: Vec<f64>,
    ) -> InferenceReport {
        InferenceReport {
            engine,
            outcome,
            degraded,
            confidence: self.confidence.unwrap_or(0.0),
            position_confidences,
            measurements_used: self.budget.used(),
            measurement_budget: self.budget.limit(),
            timeouts: self.timeouts,
            dropped: self.dropped,
        }
    }
}

/// One campaign: the oracle, the voter, and the read-out state.
struct Pipeline<'a, V> {
    oracle: &'a mut dyn CacheOracle,
    voter: V,
    addrs: SetAddrs,
    search: ReadoutSearch,
    /// Lowest agreement among the queries of the current read-out.
    readout_confidence: f64,
    /// Agreement of each completed hit read-out, in position order.
    position_confidences: Vec<f64>,
}

/// Run the permutation pipeline against `oracle`, voting every query
/// through `voter`.
pub(crate) fn run<V: Voter>(
    engine: &'static str,
    oracle: &mut dyn CacheOracle,
    request: &InferenceRequest,
    voter: V,
) -> InferenceReport {
    let _span = cachekit_obs::span(V::SPAN);
    let mut pipeline = Pipeline {
        oracle,
        voter,
        addrs: SetAddrs::new(&request.geometry),
        search: request.config.readout_search,
        readout_confidence: 1.0,
        position_confidences: Vec::with_capacity(request.geometry.associativity),
    };
    let (outcome, degraded) = match pipeline.drive(&request.geometry, &request.config) {
        Ok(report) => (Ok(Finding::Permutation(report)), false),
        Err(Stop::Failed(err)) => (Err(err), false),
        Err(Stop::Exhausted(err)) => (Err(err), true),
    };
    pipeline
        .voter
        .report(engine, outcome, degraded, pipeline.position_confidences)
}

impl<V: Voter> Pipeline<'_, V> {
    /// Was `target` evicted after establishing `base ++ prepare` and then
    /// forcing `k` fresh misses?
    fn evicted_within(
        &mut self,
        prepare: &[u64],
        target: u64,
        k: usize,
    ) -> Result<bool, Exhausted> {
        let mut warmup = self.addrs.base_fill();
        warmup.extend_from_slice(prepare);
        warmup.extend(self.addrs.fresh(k));
        let (misses, confidence) = self.voter.vote(self.oracle, &warmup, &[target])?;
        self.readout_confidence = self.readout_confidence.min(confidence);
        Ok(misses > 0)
    }

    /// Smallest `k` in `1..=assoc` such that `target` is evicted within
    /// `k` fresh misses, or `None` if it survives `assoc` misses. Resolved
    /// by binary search over the monotone predicate or by a linear scan,
    /// depending on the configured [`ReadoutSearch`].
    fn eviction_k(&mut self, prepare: &[u64], target: u64) -> Result<Option<usize>, Exhausted> {
        let assoc = self.addrs.assoc;
        match self.search {
            ReadoutSearch::Binary => {
                if !self.evicted_within(prepare, target, assoc)? {
                    return Ok(None);
                }
                let (mut lo, mut hi) = (1usize, assoc);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if self.evicted_within(prepare, target, mid)? {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                Ok(Some(lo))
            }
            ReadoutSearch::Linear => {
                for k in 1..=assoc {
                    if self.evicted_within(prepare, target, k)? {
                        return Ok(Some(k));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Read out the priority order of the base blocks after
    /// `base ++ prepare`: `order[pos] = base index`, position 0 most
    /// protected.
    fn read_out(&mut self, prepare: &[u64]) -> Result<Vec<usize>, Stop> {
        let _span = cachekit_obs::span("read_out");
        let assoc = self.addrs.assoc;
        let mut order: Vec<Option<usize>> = vec![None; assoc];
        for b in 0..assoc {
            let k = self
                .eviction_k(prepare, self.addrs.base(b))?
                .ok_or_else(|| {
                    inconsistent(format!("base block {b} survives {assoc} fresh misses"))
                })?;
            let pos = assoc - k;
            if let Some(other) = order[pos] {
                return Err(inconsistent(format!(
                    "blocks {other} and {b} both read out at position {pos}"
                )));
            }
            order[pos] = Some(b);
        }
        Ok(order.into_iter().map(|o| o.expect("all filled")).collect())
    }

    /// Re-run an inconsistent read-out up to three times in all: on a
    /// noisy channel a single flipped boolean can corrupt one read-out,
    /// and the measurements of a retry are independent. A dry budget
    /// stops at once. Returns the order and its lowest query agreement.
    fn read_out_retry(&mut self, prepare: &[u64]) -> Result<(Vec<usize>, f64), Stop> {
        let mut last = None;
        for _ in 0..3 {
            self.readout_confidence = 1.0;
            match self.read_out(prepare) {
                Ok(order) => return Ok((order, self.readout_confidence)),
                Err(Stop::Failed(err)) => last = Some(err),
                Err(stop) => return Err(stop),
            }
        }
        Err(Stop::Failed(last.expect("at least one attempt")))
    }

    /// The pipeline itself: every phase in query order.
    fn drive(
        &mut self,
        geometry: &Geometry,
        config: &InferenceConfig,
    ) -> Result<PolicyReport, Stop> {
        let assoc = geometry.associativity;
        let noise = self.voter.noise_floor(self.oracle)?;

        // Insertion position: fill the set, insert a marked block, and
        // count the fresh misses it survives. A block inserted at
        // position `p` of an `A`-way set is evicted by the `(A - p)`-th
        // subsequent miss.
        let position = {
            let _span = cachekit_obs::span("infer_insertion_position");
            let marked = self.addrs.marked();
            let k = self
                .eviction_k(&[marked], marked)?
                .ok_or_else(|| inconsistent("marked block never evicted by fresh misses"))?;
            assoc - k
        };
        if position != 0 {
            return Err(Stop::Failed(InferenceError::NotFrontInsertion { position }));
        }

        let (base_order, _) = self.read_out_retry(&[])?;

        // One hit read-out per position; each contributes its confidence
        // to the report even when a later position degrades.
        let mut hits = Vec::with_capacity(assoc);
        for &hit in &base_order {
            let (new_order, confidence) = self.read_out_retry(&[self.addrs.base(hit)])?;
            let map = base_order
                .iter()
                .map(|old_block| {
                    new_order
                        .iter()
                        .position(|b| b == old_block)
                        .expect("read_out returns a permutation of base indices")
                })
                .collect();
            hits.push(Permutation::new(map).map_err(|e| inconsistent(e.to_string()))?);
            self.position_confidences.push(confidence);
        }
        let spec = PermutationSpec::new(hits, 0).map_err(|e| inconsistent(e.to_string()))?;

        let rounds = config.validation_rounds;
        let mismatches = self.validate(&base_order, &spec, config, noise)?;
        let rejected = if noise < 0.005 {
            mismatches > 0
        } else {
            // A noisy channel occasionally lands outside the tolerance
            // band even for a correct model; reject only on systematic
            // divergence.
            mismatches * 4 > rounds
        };
        if rejected {
            return Err(Stop::Failed(InferenceError::NotAPermutationPolicy {
                mismatches,
                rounds,
            }));
        }

        Ok(PolicyReport {
            geometry: *geometry,
            matched: match_spec(&spec),
            spec,
            insertion_position: 0,
            validation_rounds: rounds,
            validation_mismatches: mismatches,
        })
    }

    /// Predicted-vs-measured validation on seeded random scripts:
    /// establish the base state, run a random tail over base and extra
    /// blocks, and compare the measured probe miss count with the
    /// model's prediction. Returns the number of diverging scripts.
    fn validate(
        &mut self,
        base_order: &[usize],
        spec: &PermutationSpec,
        config: &InferenceConfig,
        noise: f64,
    ) -> Result<usize, Exhausted> {
        let _span = cachekit_obs::span("validate");
        let assoc = self.addrs.assoc;
        let mut rng = Prng::seed_from_u64(config.seed);
        let mut mismatches = 0;
        for _ in 0..config.validation_rounds {
            let _span = cachekit_obs::span("validate_script");
            let tail: Vec<u64> = (0..10 * assoc)
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        self.addrs.base(rng.gen_range(0..assoc))
                    } else {
                        self.addrs.extra(rng.gen_range(0..assoc))
                    }
                })
                .collect();
            let predicted = predict_tail_misses(&self.addrs, base_order, spec, &tail);
            let measured = self
                .voter
                .validate(self.oracle, &self.addrs.base_fill(), &tail)?;
            if prediction_diverges(predicted, measured, tail.len(), noise) {
                mismatches += 1;
            }
        }
        Ok(mismatches)
    }
}

/// Abstract model prediction: miss count of `tail` run from the read-out
/// base state under `spec`.
fn predict_tail_misses(
    addrs: &SetAddrs,
    base_order: &[usize],
    spec: &PermutationSpec,
    tail: &[u64],
) -> usize {
    let mut state: Vec<u64> = base_order.iter().map(|&b| addrs.base(b)).collect();
    let mut predicted = 0usize;
    for &a in tail {
        match state.iter().position(|&b| b == a) {
            Some(i) => spec.apply_hit(&mut state, i),
            None => {
                predicted += 1;
                spec.apply_miss(&mut state, a);
            }
        }
    }
    predicted
}

/// Noise-adjusted divergence check: a channel with false-event rate `p`
/// turns a true count `m` out of `n` into `m + p(n - 2m)` in expectation.
fn prediction_diverges(predicted: usize, measured: usize, n: usize, noise: f64) -> bool {
    let n = n as f64;
    let expected = predicted as f64 + noise * (n - 2.0 * predicted as f64);
    let tolerance = if noise < 0.005 {
        0.0
    } else {
        (3.0 * (n * noise * (1.0 - noise)).sqrt()).max(2.0)
    };
    (measured as f64 - expected).abs() > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::oracle::SimOracle;
    use crate::infer::{infer_geometry, InferenceEngine, PermutationEngine};
    use cachekit_policies::PolicyKind;
    use cachekit_sim::{Cache, CacheConfig};

    fn oracle_for(kind: PolicyKind, capacity: u64, assoc: usize) -> SimOracle {
        SimOracle::new(Cache::new(
            CacheConfig::new(capacity, assoc, 64).unwrap(),
            kind,
        ))
    }

    /// Infer the geometry of a fresh `kind` cache (it must find `assoc`
    /// ways), then run `engine` on it with the default config.
    fn infer(
        engine: PermutationEngine,
        kind: PolicyKind,
        capacity: u64,
        assoc: usize,
    ) -> InferenceReport {
        let mut oracle = oracle_for(kind, capacity, assoc);
        let config = InferenceConfig::default();
        let geometry = infer_geometry(&mut oracle, &config).expect("geometry");
        assert_eq!(geometry.associativity, assoc);
        engine.infer(&mut oracle, &InferenceRequest::new(geometry, config))
    }

    fn strict(
        kind: PolicyKind,
        capacity: u64,
        assoc: usize,
    ) -> Result<PolicyReport, InferenceError> {
        infer(PermutationEngine::strict(), kind, capacity, assoc)
            .outcome
            .map(|f| f.permutation().expect("permutation finding").clone())
    }

    #[test]
    fn identifies_lru() {
        let report = strict(PolicyKind::Lru, 16 * 1024, 4).unwrap();
        assert_eq!(report.matched, Some("LRU"));
        assert_eq!(
            report.spec,
            PermutationSpec::for_kind(PolicyKind::Lru, 4).unwrap()
        );
    }

    #[test]
    fn identifies_fifo() {
        let report = strict(PolicyKind::Fifo, 16 * 1024, 4).unwrap();
        assert_eq!(report.matched, Some("FIFO"));
    }

    #[test]
    fn identifies_plru() {
        let report = strict(PolicyKind::TreePlru, 32 * 1024, 8).unwrap();
        assert_eq!(report.matched, Some("PLRU"));
    }

    #[test]
    fn reports_lazy_lru_as_undocumented() {
        let report = strict(PolicyKind::LazyLru, 16 * 1024, 8).unwrap();
        assert_eq!(report.matched, None);
        assert!(report.summary().contains("UNDOCUMENTED"));
    }

    #[test]
    fn rejects_random_and_bit_plru_replacement() {
        for kind in [PolicyKind::Random { seed: 7 }, PolicyKind::BitPlru] {
            match strict(kind, 16 * 1024, 4).unwrap_err() {
                InferenceError::InconsistentReadout(_)
                | InferenceError::NotAPermutationPolicy { .. }
                | InferenceError::NotFrontInsertion { .. } => {}
                other => panic!("{kind:?}: unexpected error kind: {other:?}"),
            }
        }
    }

    #[test]
    fn detects_lip_and_slru_insertion_positions() {
        let err = strict(PolicyKind::Lip, 16 * 1024, 4).unwrap_err();
        assert_eq!(err, InferenceError::NotFrontInsertion { position: 3 });
        let err = strict(PolicyKind::Slru { protected: 3 }, 16 * 1024, 8).unwrap_err();
        assert_eq!(err, InferenceError::NotFrontInsertion { position: 3 });
    }

    #[test]
    fn summary_mentions_policy_and_geometry() {
        let s = strict(PolicyKind::Lru, 16 * 1024, 4).unwrap().summary();
        assert!(s.contains("LRU"));
        assert!(s.contains("16 KiB"));
        assert!(s.contains("Π_0"));
    }

    #[test]
    fn clean_budgeted_campaign_is_confident_and_correct() {
        let result = infer(PermutationEngine::budgeted(), PolicyKind::Lru, 16 * 1024, 4);
        let found = result.finding().and_then(Finding::permutation);
        assert_eq!(found.expect("clean LRU infers").matched, Some("LRU"));
        assert!(!result.degraded);
        assert_eq!(result.confidence, 1.0);
        assert_eq!(result.position_confidences, vec![1.0; 4]);
        assert!(result.is_confident(0.99));
        assert!(result.measurements_used > 0);
        assert_eq!(result.measurement_budget, None);
        assert_eq!(result.timeouts, 0);
        assert_eq!(result.dropped, 0);
    }

    #[test]
    fn tiny_budget_degrades_without_panicking() {
        let mut oracle = oracle_for(PolicyKind::Lru, 16 * 1024, 4);
        let config = InferenceConfig::builder()
            .measurement_budget(40)
            .build()
            .unwrap();
        let geometry = Geometry {
            line_size: 64,
            capacity: 16 * 1024,
            associativity: 4,
            num_sets: 64,
        };
        let result = PermutationEngine::budgeted()
            .infer(&mut oracle, &InferenceRequest::new(geometry, config));
        assert!(result.degraded);
        assert!(!result.is_confident(0.5));
        assert_eq!(result.measurement_budget, Some(40));
        assert_eq!(result.measurements_used, 40);
        match result.outcome {
            Err(InferenceError::BudgetExhausted { used, budget }) => {
                assert_eq!(used, 40);
                assert_eq!(budget, 40);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!(result.position_confidences.len() < 4, "partial at best");
    }

    #[test]
    fn non_front_insertion_is_a_finding_not_degradation() {
        let result = infer(PermutationEngine::budgeted(), PolicyKind::Lip, 16 * 1024, 4);
        assert!(!result.degraded);
        assert_eq!(
            result.outcome,
            Err(InferenceError::NotFrontInsertion { position: 3 })
        );
    }
}
