//! Measurement-based reverse engineering of cache geometry and
//! replacement policy.
//!
//! The pipeline mirrors the paper's methodology: everything is phrased in
//! terms of one black-box operation — *flush, run a warm-up access
//! sequence, then count how many of a probe sequence's accesses miss*
//! ([`CacheOracle::measure`]) — so the identical code runs against the
//! noise-free software oracle ([`SimOracle`]), the noisy virtual CPUs of
//! `cachekit-hw`, and (with an `rdtsc`/perf-counter backend) real
//! hardware.
//!
//! Inference runs through the [`InferenceEngine`] trait: pick the
//! permutation pipeline, the automata learner, or the auto fallback
//! chain, and get one uniform [`InferenceReport`] shape back.
//!
//! ```
//! use cachekit_core::infer::{
//!     infer_geometry, InferenceConfig, InferenceEngine, InferenceRequest, PermutationEngine,
//!     SimOracle,
//! };
//! use cachekit_policies::PolicyKind;
//! use cachekit_sim::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cache = Cache::new(CacheConfig::new(16 * 1024, 4, 64)?, PolicyKind::TreePlru);
//! let mut oracle = SimOracle::new(cache);
//! let config = InferenceConfig::default();
//! let geometry = infer_geometry(&mut oracle, &config)?;
//! let engine = PermutationEngine::budgeted();
//! let report = engine.infer(&mut oracle, &InferenceRequest::new(geometry, config));
//! assert_eq!(report.finding().and_then(|f| f.matched()), Some("PLRU"));
//! # Ok(())
//! # }
//! ```

mod config;
mod engine;
mod geometry;
pub mod mapping;
mod oracle;
mod policy;
pub mod sets;
mod vote;

pub use config::{
    ConfigError, InferenceConfig, InferenceConfigBuilder, InferenceError, ReadoutSearch,
};
pub use engine::{
    engine_by_name, engine_names, AutoEngine, AutomataEngine, Finding, InferenceEngine,
    InferenceReport, InferenceRequest, PermutationEngine,
};
pub use geometry::{
    infer_associativity, infer_capacity, infer_geometry, infer_line_size, Geometry,
};
pub use oracle::{
    estimate_counter_noise, measure_voted, CacheOracle, CacheOracleExt, Counted, Counting,
    ExperimentRecord, MeasureFault, Metered, MeteredOracle, OracleLayer, Recorded, Recording,
    SimOracle,
};
pub use policy::PolicyReport;
pub use vote::{MeasurementBudget, VoteOutcome, VotePlan};
