//! Access-throughput benchmark for the policy execution engines.
//!
//! Measures accesses/second over a realistically sized cache — many
//! sets, interleaved accesses — for every differential policy kind at
//! associativities 4, 8 and 16 on the two engines serve runs:
//!
//! * **enum** — [`CacheSet`] with its inline enum-dispatched state,
//!   driven through the public per-access entry point
//!   ([`access_tag`](CacheSet::access_tag)); every request without a
//!   batch kernel runs here;
//! * **kernel** — the monomorphized batch kernel ([`KernelCache`]):
//!   per-(policy, assoc) specialized access loops over
//!   struct-of-arrays slabs with SWAR tag compare and software
//!   prefetch of upcoming rows. It is the inner-loop ceiling, the same
//!   one perfbench's `sim.kernel_ceiling_maccess_per_s` times.
//!
//! A pair without a kernel carries the typed skip reason `no_kernel`
//! instead of a bare `n/a`. `kern/enum` is the same-run ratio of the two
//! columns, recorded as data with no target. `states` counts the
//! full-set replacement states reachable from the cold state
//! ([`reachable_states`], at most 65,535; `-` beyond that or for a
//! stochastic kind).
//!
//! The set count (16384 sets at full size — 8 MiB of modeled lines at
//! 8 ways, an L3-class footprint) is the point of the comparison: an
//! interleaved stream visits sets in random order, so each access lands
//! on a cold set and pays for every pointer the engine chases there (a
//! wide set's tag `Vec`). Single-set micro-runs hide exactly this
//! difference — every engine fits in L1 there.
//!
//! Both engines replay the *same* seeded stream of `(set, tag)` pairs
//! (random set per access, 80/20 hot/cold tags), and their hit counts
//! are asserted equal — the benchmark doubles as a cheap cross-engine
//! differential check. Each engine's timed replays run inside a
//! `cachekit-obs` span (`bench_access.enum`, `.kernel`) that counts the
//! `accesses` it replayed. Results land in `results/bench_access.json`
//! (or `bench_access_smoke.json` with `--smoke`) through the usual
//! [`Runner`] plumbing.

use crate::json::Json;
use crate::{jobj, Runner, Table};
use cachekit_core::analysis::reachable_states;
use cachekit_policies::kernel::KernelCache;
use cachekit_policies::rng::Prng;
use cachekit_policies::PolicyKind;
use cachekit_sim::CacheSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Associativities the sweep covers.
pub const ASSOCS: [usize; 3] = [4, 8, 16];

/// Base PRNG seed for the access streams.
pub const SEED: u64 = 0xACCE55;

/// Most reachable states the `states` column counts.
pub const STATE_LIMIT: usize = 65_535;

/// Skip reason recorded for a pair without a batch kernel.
pub const NO_KERNEL: &str = "no_kernel";

/// Sweep sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Number of sets in the measured cache.
    pub sets: usize,
    /// Length of the `(set, tag)` stream each engine replays.
    pub accesses: usize,
    /// Timed repetitions per engine (the fastest is reported).
    pub repeats: usize,
}

impl BenchConfig {
    /// The full measurement (what `results/bench_access.json` records).
    pub fn full() -> Self {
        Self {
            sets: 16384,
            accesses: 6_000_000,
            repeats: 3,
        }
    }

    /// A seconds-scale smoke run for CI: same code paths, a small cache
    /// and short streams (the recorded speedups need the full footprint;
    /// a smoke cache is L2-resident and its ratios are meaningless).
    pub fn smoke() -> Self {
        Self {
            sets: 256,
            accesses: 100_000,
            repeats: 2,
        }
    }
}

/// Replay an interleaved stream one access at a time through each set's
/// public per-access entry point, returning hits: what real callers do
/// on an interleaved stream. [`access_tag`](CacheSet::access_tag)
/// inlines here because the set exports it `#[inline]`.
fn replay(sets: &mut [CacheSet], stream: &[(u32, u64)]) -> u64 {
    let mut hits = 0u64;
    for &(set, tag) in stream {
        hits += u64::from(sets[set as usize].access_tag(tag).is_hit());
    }
    hits
}

/// Seeded interleaved access stream: each access picks a uniformly
/// random set, and within the set an 80/20 hot/cold tag — 80% go to a
/// hot group smaller than the associativity (mostly hits), 20% sweep a
/// cold range (mostly misses), so both policy paths stay exercised in
/// every set.
pub fn workload(assoc: usize, sets: usize, len: usize, seed: u64) -> Vec<(u32, u64)> {
    let mut rng = Prng::seed_from_u64(seed);
    let hot = (3 * assoc as u64 / 4).max(1);
    let cold = 64 * assoc as u64;
    (0..len)
        .map(|_| {
            let set = rng.gen_range(0..sets as u64) as u32;
            let tag = if rng.gen_ratio(4, 5) {
                rng.gen_range(0..hot)
            } else {
                hot + rng.gen_range(0..cold)
            };
            (set, tag)
        })
        .collect()
}

/// One engine's result: best-repeat throughput plus the hit count of a
/// full replay (for the cross-engine consistency assertion).
#[derive(Debug, Clone, Copy)]
struct EngineRun {
    mops: f64,
    hits: u64,
}

/// Time `repeats` replays of an `accesses`-long stream inside the
/// engine's `span`, which also counts the replayed `accesses`.
fn time_engine(
    span: &str,
    repeats: usize,
    accesses: usize,
    mut replay: impl FnMut() -> u64,
) -> EngineRun {
    let _span = cachekit_obs::span(span);
    cachekit_obs::add("accesses", (repeats * accesses) as u64);
    let mut best = f64::INFINITY;
    let mut hits = 0;
    for _ in 0..repeats {
        let started = Instant::now();
        hits = black_box(replay());
        best = best.min(started.elapsed().as_secs_f64());
    }
    EngineRun {
        mops: accesses as f64 / best / 1e6,
        hits,
    }
}

/// One (kind, associativity) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Policy kind measured.
    pub kind: PolicyKind,
    /// Number of ways.
    pub assoc: usize,
    /// Enum-engine throughput, million accesses/second.
    pub enum_mops: f64,
    /// Batch-kernel throughput, or `None` when no kernel serves the
    /// pair.
    pub kernel: Option<f64>,
    /// Name of the dispatched kernel (e.g. `lru8/swar64`), if any.
    pub kernel_name: Option<&'static str>,
    /// Full-set states reachable from the cold state, if deterministic
    /// and at most [`STATE_LIMIT`].
    pub states: Option<usize>,
    /// Hits observed over one stream replay (identical on both engines).
    pub hits: u64,
}

impl Measurement {
    /// Batch-kernel speedup over the same-run enum engine.
    pub fn kernel_over_enum(&self) -> Option<f64> {
        self.kernel.map(|k| k / self.enum_mops)
    }
}

/// Measure one (kind, assoc) cell: replay the same stream on each
/// engine, assert the engines agree on the hit count, report the
/// fastest repeat of each.
pub fn measure(kind: PolicyKind, assoc: usize, cfg: &BenchConfig) -> Measurement {
    let stream = workload(assoc, cfg.sets, cfg.accesses, SEED ^ assoc as u64);

    // State (including stochastic policies' RNG position) carries over
    // across repeats, so repeats stay access-for-access comparable.
    let mut enumed: Vec<CacheSet> = (0..cfg.sets)
        .map(|s| CacheSet::from_state(kind.build_state(assoc, s as u64)))
        .collect();
    let enum_run = time_engine("bench_access.enum", cfg.repeats, cfg.accesses, || {
        replay(&mut enumed, &stream)
    });

    let kernel = KernelCache::for_kind(kind, assoc, cfg.sets).map(|mut cache| {
        let run = time_engine("bench_access.kernel", cfg.repeats, cfg.accesses, || {
            cache.access_many(&stream).0
        });
        assert_eq!(
            run.hits, enum_run.hits,
            "kernel and enum engines disagree for {kind:?} at {assoc} ways"
        );
        run.mops
    });

    Measurement {
        kind,
        assoc,
        enum_mops: enum_run.mops,
        kernel,
        kernel_name: KernelCache::kernel_name(kind, assoc),
        states: reachable_states(&kind.build_state(assoc, 0), STATE_LIMIT)
            .ok()
            .map(|states| states.len()),
        hits: enum_run.hits,
    }
}

fn fmt_mops(m: f64) -> String {
    format!("{m:.1}")
}

/// Kinds whose batch kernels the sweep must find.
const TARGET_KINDS: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru];

/// The outcome of a sweep: where the record landed, plus any *missing*
/// target rows — cells a target needs that the sweep failed to produce
/// (e.g. a kernel pair that no longer compiles). The `bench_access`
/// binary exits nonzero when this list is non-empty.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Path of the written `results/*.json`.
    pub path: PathBuf,
    /// Human-readable descriptions of absent target rows.
    pub missing: Vec<String>,
}

/// Run the whole sweep and write the instrumented record.
pub fn run_and_report(smoke: bool) -> SweepOutcome {
    let cfg = if smoke {
        BenchConfig::smoke()
    } else {
        BenchConfig::full()
    };
    let name = if smoke {
        "bench_access_smoke"
    } else {
        "bench_access"
    };
    let mut run = Runner::new(name).with_seed(SEED).with_jobs(1);
    let mut table = Table::new(
        "Access throughput by engine (million accesses/s, best repeat)",
        &["policy", "assoc", "enum", "kernel", "kern/enum", "states"],
    );
    let mut entries = Vec::new();
    let mut sweep = Vec::new();
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let m = measure(kind, assoc, &cfg);
            let engines = 1 + usize::from(m.kernel.is_some());
            run.add_cells(1);
            run.count("accesses", (cfg.accesses * cfg.repeats * engines) as u64);
            table.row(vec![
                kind.label(),
                assoc.to_string(),
                fmt_mops(m.enum_mops),
                m.kernel.map_or_else(|| NO_KERNEL.into(), fmt_mops),
                m.kernel_over_enum()
                    .map_or_else(|| "-".into(), |x| format!("{x:.2}")),
                m.states.map_or_else(|| "-".into(), |s| s.to_string()),
            ]);
            entries.push(jobj! {
                "policy": kind.label(),
                "assoc": assoc,
                "enum_mops": m.enum_mops,
                "kernel_mops": m.kernel.map_or(Json::Null, Json::from),
                "kernel_skip": if m.kernel.is_some() { Json::Null } else { Json::from(NO_KERNEL) },
                "kernel": m.kernel_name.map_or(Json::Null, Json::from),
                "kernel_over_enum": m.kernel_over_enum().map_or(Json::Null, Json::from),
                "states": m.states.map_or(Json::Null, Json::from),
                "hits": m.hits,
                "accesses": cfg.accesses,
            });
            sweep.push(m);
        }
    }

    // The kernel grid the sweep must cover. A target cell the sweep
    // could not produce is collected in `missing` and fails the binary.
    let mut missing = Vec::new();
    let mut targets = Vec::new();
    for kind in TARGET_KINDS {
        for assoc in [8, 16] {
            let present = sweep
                .iter()
                .any(|m| m.kind == kind && m.assoc == assoc && m.kernel.is_some());
            if !present {
                missing.push(format!("{} assoc {assoc} has no kernel row", kind.label()));
            }
        }
        let cell = sweep.iter().find(|m| m.kind == kind && m.assoc == 16);
        targets.push(jobj! {
            "check": "kernel_assoc16",
            "policy": kind.label(),
            "assoc": 16,
            "kernel": cell
                .and_then(|m| m.kernel_name)
                .map_or(Json::Null, Json::from),
            "met": cell.is_some_and(|m| m.kernel.is_some()),
        });
    }

    let path = run.finish(
        &table,
        jobj! {
            "smoke": smoke,
            "sets": cfg.sets,
            "accesses_per_engine": cfg.accesses,
            "repeats": cfg.repeats,
            "states_counted": format!(
                "full-set replacement states reachable from the cold state under hits and \
                 misses (analysis::reachable_states, at most {STATE_LIMIT}; null beyond it or \
                 for a stochastic kind), not (state, fill count) pairs"
            ),
            "entries": Json::Arr(entries),
            "targets": Json::Arr(targets),
        },
    );
    SweepOutcome { path, missing }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = workload(8, 32, 5000, 1);
        let b = workload(8, 32, 5000, 1);
        assert_eq!(a, b);
        let hot = a.iter().filter(|&&(_, t)| t < 6).count();
        assert!(hot > 3000 && hot < 4700, "hot fraction off: {hot}/5000");
        assert!(a.iter().all(|&(s, _)| s < 32));
        let first_set = a[0].0;
        assert!(
            a.iter().any(|&(s, _)| s != first_set),
            "stream never changes set"
        );
    }

    #[test]
    fn engines_agree_on_every_differential_kind() {
        let cfg = BenchConfig {
            sets: 32,
            accesses: 20_000,
            repeats: 1,
        };
        for kind in PolicyKind::differential_kinds() {
            for assoc in ASSOCS {
                // `measure` asserts a present kernel replays to the enum
                // hit count.
                let m = measure(kind, assoc, &cfg);
                assert!(m.hits > 0, "{kind:?}/{assoc}: degenerate stream");
                assert!(m.enum_mops > 0.0);
            }
        }
    }

    #[test]
    fn kernel_skips_and_state_counts_are_typed() {
        let cfg = BenchConfig {
            sets: 16,
            accesses: 4_000,
            repeats: 1,
        };
        // LRU at 16 ways: the kernel serves it, and its 16! orders are
        // beyond the state limit.
        let m = measure(PolicyKind::Lru, 16, &cfg);
        assert_eq!(m.kernel_name, Some("lru16/swar128"));
        assert!(m.kernel_over_enum().is_some());
        assert_eq!(m.states, None);
        // LRU at 4 ways reaches every one of its 4! orders.
        assert_eq!(measure(PolicyKind::Lru, 4, &cfg).states, Some(24));
        // A stochastic kind has no kernel and no state count.
        let m = measure(PolicyKind::Random { seed: 7 }, 8, &cfg);
        assert_eq!(m.kernel, None);
        assert_eq!(m.kernel_over_enum(), None);
        assert_eq!(m.states, None);
        // A deterministic kind outside the kernel grid has states but no
        // kernel.
        let m = measure(PolicyKind::Clock, 8, &cfg);
        assert_eq!(m.kernel, None);
        assert_eq!(m.kernel_name, None);
        assert!(m.states.is_some());
    }
}
