//! # cachekit-hw
//!
//! The simulated hardware substrate: **virtual CPUs** standing in for the
//! Intel Atom D525 and Core 2 Duo E6300/E6750/E8400 machines the paper
//! measured.
//!
//! This sandbox has neither those processors nor a reliable timing
//! channel, so — per the reproduction's substitution rule — the hardware
//! is replaced by a simulator that preserves exactly what the paper's
//! algorithm interacts with:
//!
//! * a two-level, physically-indexed cache hierarchy with a **hidden**
//!   replacement policy per level (the inference pipeline only sees the
//!   black-box [`CacheOracle`](cachekit_core::infer::CacheOracle)
//!   interface, never the policy object);
//! * a **measurement channel** (performance-counter or latency-threshold
//!   based) with configurable noise: miscounted events and background
//!   evictions from "other" activity;
//! * the classic **interference sources** — a TLB whose page walks can
//!   pollute the caches, and an adjacent-line prefetcher — which the
//!   paper's methodology has to disable or defeat, and which can be
//!   switched on here to demonstrate why.
//!
//! The five-machine [`fleet`] mirrors the paper's targets; Tables 1/2 of
//! the reproduction are produced by pointing `cachekit-core`'s inference
//! at each fleet member.
//!
//! ## Example
//!
//! ```
//! use cachekit_core::infer::{infer_geometry, InferenceConfig};
//! use cachekit_hw::{fleet, CacheLevel, LevelOracle};
//!
//! let mut cpu = fleet::atom_d525();
//! let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
//! let g = infer_geometry(&mut oracle, &InferenceConfig::default()).unwrap();
//! assert_eq!(g.capacity, 24 * 1024);
//! assert_eq!(g.associativity, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod fault;
pub mod fleet;
mod latency;
mod noise;
mod oracle;
mod prefetch;
mod tlb;
mod vcpu;

pub use adversary::{AdaptiveAdversary, Adversary, AdversaryStrategy};
pub use fault::{FaultInjected, FaultKind, FaultRates, Faults};
pub use latency::LatencyModel;
pub use noise::NoiseModel;
pub use oracle::{CacheLevel, LevelOracle, MeasureMode};
pub use tlb::Tlb;
pub use vcpu::{AccessReport, VirtualCpu, VirtualCpuBuilder};
