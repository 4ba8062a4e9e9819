//! # cachekit-sim
//!
//! A trace-driven, set-associative cache simulator.
//!
//! This crate is the evaluation substrate of the `cachekit` workspace: the
//! paper's evaluation section compares the reverse-engineered replacement
//! policies against textbook ones by simulating them on benchmark traces,
//! and the simulated-hardware crate (`cachekit-hw`) builds its virtual
//! CPUs out of the same [`Cache`] type.
//!
//! The simulator models tags, validity and replacement state per set —
//! exactly the state that matters for hit/miss behaviour — and leaves data
//! contents, coherence and timing to higher layers.
//!
//! ## Example
//!
//! ```
//! use cachekit_policies::PolicyKind;
//! use cachekit_sim::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), cachekit_sim::ConfigError> {
//! let cfg = CacheConfig::new(32 * 1024, 8, 64)?; // 32 KiB, 8-way, 64 B lines
//! let mut cache = Cache::new(cfg, PolicyKind::Lru);
//! for addr in (0..4096).step_by(64) {
//!     cache.access(addr);
//! }
//! assert_eq!(cache.stats().misses, 64); // cold misses only
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
pub mod opt;
pub mod parallel;
mod set;
mod stats;
pub mod sweep;

pub use cache::{AccessOutcome, Cache, EvictedLine};
pub use config::{CacheConfig, ConfigError, IndexFunction};
pub use hierarchy::{
    default_latencies, Containment, Hierarchy, HierarchyOutcome, HierarchyStats, LevelSpec,
    DEFAULT_LEVEL_LATENCIES, DEFAULT_MEMORY_LATENCY,
};
pub use parallel::{
    effective_jobs, par_map, sweep_parallel, sweep_parallel_jobs, PoolClosed, WorkerPool,
};
pub use set::CacheSet;
pub use stats::CacheStats;
