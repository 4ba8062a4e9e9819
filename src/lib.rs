//! # cachekit
//!
//! A reproduction of **Abel & Reineke, "Reverse engineering of cache
//! replacement policies in Intel microprocessors and their evaluation"
//! (ISPASS 2014)** as a Rust workspace.
//!
//! This umbrella crate re-exports the public API of the member crates:
//!
//! * [`policies`] — replacement-policy implementations ([`policies::RecencyPolicy`],
//!   [`policies::TreePlru`], …) behind the
//!   [`policies::ReplacementPolicy`] trait;
//! * [`sim`] — a trace-driven set-associative cache simulator;
//! * [`trace`] — synthetic workload generators;
//! * [`core`] — the paper's contribution: *permutation policies* and the
//!   measurement-based reverse-engineering pipeline;
//! * [`hw`] — the simulated hardware substrate (virtual CPUs with hidden
//!   policies and noisy measurement channels) standing in for the paper's
//!   Intel Atom / Core 2 machines;
//! * [`obs`] — the zero-dependency tracing/metrics layer (spans, counters,
//!   log2 histograms) threaded through the pipeline; see
//!   `docs/observability.md`;
//! * [`serve`] — the JSON-over-HTTP serving layer (typed queries, bounded
//!   job queues with backpressure, an LRU result cache); see
//!   `docs/serving.md`;
//! * [`mod@bench`] — the experiment harness (result tables, run provenance,
//!   the engine-throughput benchmark); see `docs/engine.md` for the
//!   execution-engine architecture it measures;
//! * [`attack`] — the adversarial scenario suite (policy-aware eviction
//!   sets, stealth-feasibility scoring), re-exported from
//!   [`core::attack`]; see `docs/attacks.md`.
//!
//! ## Quickstart
//!
//! Reverse engineer the L2 replacement policy of a virtual CPU:
//!
//! ```
//! use cachekit::hw::{fleet, CacheLevel, LevelOracle};
//! use cachekit::core::infer::{
//!     infer_geometry, AutoEngine, InferenceConfig, InferenceEngine, InferenceRequest,
//! };
//!
//! let mut cpu = fleet::core2_e6300();
//! let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L2);
//! let cfg = InferenceConfig::default();
//! let geometry = infer_geometry(&mut oracle, &cfg)?;
//! // The auto engine runs the paper's permutation pipeline and falls
//! // back to the automata learner for policies outside its class.
//! let report = AutoEngine::default().infer(&mut oracle, &InferenceRequest::new(geometry, cfg));
//! println!("{}", report.outcome?.summary());
//! # Ok::<(), cachekit::core::infer::InferenceError>(())
//! ```

pub use cachekit_bench as bench;
pub use cachekit_core as core;
pub use cachekit_core::attack;
pub use cachekit_hw as hw;
pub use cachekit_obs as obs;
pub use cachekit_policies as policies;
pub use cachekit_serve as serve;
pub use cachekit_sim as sim;
pub use cachekit_trace as trace;
