//! Shared helpers for the integration-test suites. Each test binary
//! compiles this module independently, so not every helper is used by
//! every binary.
#![allow(dead_code)]

pub mod shrink;

use cachekit::core::infer::{
    CacheOracle, Geometry, InferenceConfig, InferenceEngine, InferenceError, InferenceRequest,
    PermutationEngine, PolicyReport,
};

/// The strict permutation engine's verdict on `oracle` at `geometry`.
pub fn strict_policy(
    oracle: &mut dyn CacheOracle,
    geometry: &Geometry,
    config: &InferenceConfig,
) -> Result<PolicyReport, InferenceError> {
    let request = InferenceRequest::new(*geometry, config.clone());
    let report = PermutationEngine::strict().infer(oracle, &request);
    report
        .outcome
        .map(|found| found.permutation().expect("a permutation finding").clone())
}
