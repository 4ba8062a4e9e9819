//! Access-throughput benchmark for the policy execution engines.
//!
//! Measures accesses/second over a realistically sized cache — many
//! sets, interleaved accesses — for every differential policy kind at
//! associativities 4, 8 and 16 on the four engines:
//!
//! * **enum** — [`CacheSet`] with its inline enum-dispatched state,
//!   driven through the public per-access entry point
//!   ([`access_tag`](CacheSet::access_tag));
//! * **table** — one [`CacheSet`] per set over a boxed [`TablePolicy`]
//!   (deterministic kinds whose reachable state space fits the eager
//!   `u16` budget), which is what serve's `table` engine builds;
//! * **lazy** — one [`CacheSet`] per set over a boxed
//!   [`LazyTablePolicy`]: states interned on demand behind a lock-free
//!   memo, so kinds that blow the eager budget (LRU at 16 ways is
//!   `16!`) still get a number. This is serve's `lazy_table` engine;
//! * **kernel** — the monomorphized batch kernel ([`KernelCache`]):
//!   per-(policy, assoc) specialized access loops over
//!   struct-of-arrays slabs with SWAR tag compare and software
//!   prefetch of upcoming rows. It is the inner-loop ceiling, the same
//!   one perfbench's `sim.kernel_ceiling_maccess_per_s` times.
//!
//! The enum, table and lazy columns replay through the same per-access
//! loop, so they differ only in the policy each set runs.
//!
//! Cells an engine cannot serve carry a **typed skip reason** instead
//! of a bare `n/a`: `stochastic` (transitions depend on an RNG — no
//! table-family engine can memoize them), `table_blowup`
//! (deterministic, but the reachable space exceeds the eager budget;
//! the lazy column covers it), or `no_kernel` (no monomorphized kernel
//! compiled for the pair).
//!
//! The set count (16384 sets at full size — 8 MiB of modeled lines at
//! 8 ways, an L3-class footprint) is the point of the comparison: an
//! interleaved stream visits sets in random order, so each access lands
//! on a cold set and pays for every pointer the engine chases there (a
//! table adapter's policy box, a wide set's tag `Vec`). Single-set
//! micro-runs hide exactly this difference — every engine fits in L1
//! there.
//!
//! All engines replay the *same* seeded stream of `(set, tag)` pairs
//! (random set per access, 80/20 hot/cold tags), and their hit counts
//! are asserted equal — the benchmark doubles as a cheap cross-engine
//! differential check. Each engine's timed replays run inside a
//! `cachekit-obs` span (`bench_access.enum`, `.table`, `.lazy`,
//! `.kernel`) that counts the `accesses` it replayed. Results land in
//! `results/bench_access.json` (or `bench_access_smoke.json` with
//! `--smoke`) through the usual [`Runner`] plumbing.

use crate::json::Json;
use crate::{jobj, Runner, Table};
use cachekit_core::perm::{lazy_table_for_kind, table_for_kind, LazyTablePolicy, TablePolicy};
use cachekit_policies::kernel::KernelCache;
use cachekit_policies::rng::Prng;
use cachekit_policies::{PolicyKind, PolicyState, ReplacementPolicy};
use cachekit_sim::CacheSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Associativities the sweep covers.
pub const ASSOCS: [usize; 3] = [4, 8, 16];

/// Base PRNG seed for the access streams.
pub const SEED: u64 = 0xACCE55;

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

/// Why an engine has no throughput number for a (kind, assoc) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// Transitions depend on an RNG — no table-family engine can
    /// memoize them without changing behaviour.
    Stochastic,
    /// Deterministic, but the reachable state space exceeds the eager
    /// compile budget (the lazy column covers the kind instead).
    TableBlowup,
    /// No monomorphized batch kernel is compiled for this pair.
    NoKernel,
}

impl Skip {
    /// Machine-readable reason string recorded in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Skip::Stochastic => "stochastic",
            Skip::TableBlowup => "table_blowup",
            Skip::NoKernel => "no_kernel",
        }
    }
}

/// A throughput cell: measured mops, or a typed reason it was skipped.
pub type EngineCell = Result<f64, Skip>;

fn cell_mops(cell: EngineCell) -> Json {
    cell.map_or(Json::Null, Json::from)
}

fn cell_skip(cell: EngineCell) -> Json {
    cell.map_or_else(|s| Json::from(s.label()), |_| Json::Null)
}

fn cell_text(cell: EngineCell) -> String {
    cell.map_or_else(|s| s.label().into(), fmt_mops)
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

/// `sets` cold `CacheSet`s, each over its own boxed policy from
/// `policy`: the shape of serve's table-adapter caches
/// (`Cache::with_policy_factory`).
fn boxed_sets(sets: usize, policy: impl Fn() -> Box<dyn ReplacementPolicy>) -> Vec<CacheSet> {
    (0..sets)
        .map(|_| CacheSet::from_state(PolicyState::from_boxed(policy())))
        .collect()
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
    /// Eager-table throughput, or why the kind has no eager table.
    pub table: EngineCell,
    /// Reachable states of the eagerly compiled table, if any.
    pub table_states: Option<usize>,
    /// Lazy-table throughput, or why the kind has no lazy table.
    pub lazy: EngineCell,
    /// States the lazy memo interned by the end of the replay.
    pub lazy_states: Option<usize>,
    /// Whether the lazy memo hit its budget (some sets went direct).
    pub lazy_saturated: bool,
    /// Batch-kernel throughput, or why no kernel serves the pair.
    pub kernel: EngineCell,
    /// Name of the dispatched kernel (e.g. `lru8/swar64`), if any.
    pub kernel_name: Option<&'static str>,
    /// Hits observed over one stream replay (identical on all engines).
    pub hits: u64,
}

impl Measurement {
    /// Batch-kernel speedup over the same-run eager table.
    pub fn kernel_over_table(&self) -> Option<f64> {
        match (self.kernel, self.table) {
            (Ok(k), Ok(t)) => Some(k / t),
            _ => None,
        }
    }

    /// Whether any table-family engine (eager, lazy or kernel) produced
    /// a number for this cell.
    pub fn has_specialized_engine(&self) -> bool {
        self.table.is_ok() || self.lazy.is_ok() || self.kernel.is_ok()
    }
}

/// Measure one (kind, assoc) cell: replay the same stream on each
/// engine, assert the engines agree on the hit count, report the
/// fastest repeat of each.
pub fn measure(kind: PolicyKind, assoc: usize, cfg: &BenchConfig) -> Measurement {
    let stream = workload(assoc, cfg.sets, cfg.accesses, SEED ^ assoc as u64);

    // State (including stochastic policies' RNG position) carries over
    // across repeats, equally on every engine, so repeats stay
    // access-for-access comparable.
    let mut enumed: Vec<CacheSet> = (0..cfg.sets)
        .map(|s| CacheSet::from_state(kind.build_state(assoc, s as u64)))
        .collect();
    let enum_run = time_engine("bench_access.enum", cfg.repeats, cfg.accesses, || {
        replay(&mut enumed, &stream)
    });

    // The lazy table exists exactly for deterministic kinds, which makes
    // it the discriminator for the eager column's skip reason: an eager
    // miss on a lazily-compilable kind is a budget blowup, not an
    // in-principle impossibility.
    let lazy_table = lazy_table_for_kind(kind, assoc);

    let eager = table_for_kind(kind, assoc);
    let table_states = eager.as_ref().map(|t| t.states());
    let table = match eager {
        Some(t) => {
            let mut sets = boxed_sets(cfg.sets, || Box::new(TablePolicy::new(t.clone())));
            let run = time_engine("bench_access.table", cfg.repeats, cfg.accesses, || {
                replay(&mut sets, &stream)
            });
            assert_eq!(
                run.hits, enum_run.hits,
                "table and enum engines disagree for {kind:?} at {assoc} ways"
            );
            Ok(run.mops)
        }
        None if lazy_table.is_some() => Err(Skip::TableBlowup),
        None => Err(Skip::Stochastic),
    };

    let (lazy, lazy_states, lazy_saturated) = match &lazy_table {
        Some(t) => {
            let mut sets = boxed_sets(cfg.sets, || Box::new(LazyTablePolicy::new(t.clone())));
            let run = time_engine("bench_access.lazy", cfg.repeats, cfg.accesses, || {
                replay(&mut sets, &stream)
            });
            assert_eq!(
                run.hits, enum_run.hits,
                "lazy table and enum engines disagree for {kind:?} at {assoc} ways"
            );
            (Ok(run.mops), Some(t.states()), t.saturated())
        }
        None => (Err(Skip::Stochastic), None, false),
    };

    let kernel_name = KernelCache::kernel_name(kind, assoc);
    let kernel = match KernelCache::for_kind(kind, assoc, cfg.sets) {
        Some(mut cache) => {
            let run = time_engine("bench_access.kernel", cfg.repeats, cfg.accesses, || {
                cache.access_many(&stream).0
            });
            assert_eq!(
                run.hits, enum_run.hits,
                "kernel and enum engines disagree for {kind:?} at {assoc} ways"
            );
            Ok(run.mops)
        }
        None => Err(Skip::NoKernel),
    };

    Measurement {
        kind,
        assoc,
        enum_mops: enum_run.mops,
        table,
        table_states,
        lazy,
        lazy_states,
        lazy_saturated,
        kernel,
        kernel_name,
        hits: enum_run.hits,
    }
}

fn fmt_mops(m: f64) -> String {
    format!("{m:.1}")
}

/// Kinds whose assoc-8 speedup targets the sweep records.
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
        &[
            "policy", "assoc", "enum", "table", "lazy", "kernel", "kern/tab", "states",
        ],
    );
    let mut entries = Vec::new();
    let mut sweep = Vec::new();
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let m = measure(kind, assoc, &cfg);
            let engines = 1
                + usize::from(m.table.is_ok())
                + usize::from(m.lazy.is_ok())
                + usize::from(m.kernel.is_ok());
            run.add_cells(1);
            run.count("accesses", (cfg.accesses * cfg.repeats * engines) as u64);
            table.row(vec![
                kind.label(),
                assoc.to_string(),
                fmt_mops(m.enum_mops),
                cell_text(m.table),
                cell_text(m.lazy),
                cell_text(m.kernel),
                m.kernel_over_table()
                    .map_or_else(|| "-".into(), |x| format!("{x:.2}")),
                m.table_states
                    .or(m.lazy_states)
                    .map_or_else(|| "-".into(), |s| s.to_string()),
            ]);
            entries.push(jobj! {
                "policy": kind.label(),
                "assoc": assoc,
                "enum_mops": m.enum_mops,
                "table_mops": cell_mops(m.table),
                "table_skip": cell_skip(m.table),
                "lazy_mops": cell_mops(m.lazy),
                "lazy_skip": cell_skip(m.lazy),
                "kernel_mops": cell_mops(m.kernel),
                "kernel_skip": cell_skip(m.kernel),
                "kernel": m.kernel_name.map_or(Json::Null, Json::from),
                "kernel_over_table": m.kernel_over_table().map_or(Json::Null, Json::from),
                "table_states": m.table_states.map_or(Json::Null, Json::from),
                "lazy_states": m.lazy_states.map_or(Json::Null, Json::from),
                "lazy_saturated": m.lazy_saturated,
                "hits": m.hits,
                "accesses": cfg.accesses,
            });
            sweep.push(m);
        }
    }

    // The acceptance targets this refactor records. Presence failures
    // (a target cell the sweep could not produce at all) are collected
    // in `missing` and fail the binary; `met` flags additionally pin
    // the recorded speedups for the committed full run.
    let mut missing = Vec::new();
    let mut targets = Vec::new();
    for kind in TARGET_KINDS {
        let Some(m) = sweep.iter().find(|m| m.kind == kind && m.assoc == 8) else {
            missing.push(format!("{} assoc 8 row absent from sweep", kind.label()));
            continue;
        };
        if m.table.is_err() {
            missing.push(format!("{} assoc 8 has no eager-table row", kind.label()));
        }
        match m.kernel_over_table() {
            Some(x) => targets.push(jobj! {
                "check": "kernel_over_table",
                "policy": kind.label(),
                "assoc": 8,
                "value": x,
                "target": 2.0,
                "met": x >= 2.0,
            }),
            None => missing.push(format!("{} assoc 8 has no kernel row", kind.label())),
        }
    }
    for kind in TARGET_KINDS {
        let cell = sweep.iter().find(|m| m.kind == kind && m.assoc == 16);
        let present = cell.is_some_and(|m| m.kernel.is_ok());
        if !present {
            missing.push(format!("{} assoc 16 has no kernel row", kind.label()));
        }
        targets.push(jobj! {
            "check": "kernel_assoc16",
            "policy": kind.label(),
            "assoc": 16,
            "kernel": cell
                .and_then(|m| m.kernel_name)
                .map_or(Json::Null, Json::from),
            "met": present,
        });
    }
    // The v2 closure criterion: every deterministic kind at 16 ways has
    // at least one specialized (table-family or kernel) number. Kinds
    // skipped as stochastic are typed, not gaps.
    let gaps: Vec<Json> = sweep
        .iter()
        .filter(|m| m.assoc == 16 && m.lazy != Err(Skip::Stochastic) && !m.has_specialized_engine())
        .map(|m| Json::from(m.kind.label()))
        .collect();
    if !gaps.is_empty() {
        missing.push(format!("assoc 16 gaps: {gaps:?}"));
    }
    targets.push(jobj! {
        "check": "assoc16_no_gaps",
        "assoc": 16,
        "gaps": Json::Arr(gaps),
        "met": missing.iter().all(|m| !m.starts_with("assoc 16 gaps")),
    });

    let path = run.finish(
        &table,
        jobj! {
            "smoke": smoke,
            "sets": cfg.sets,
            "accesses_per_engine": cfg.accesses,
            "repeats": cfg.repeats,
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
                // `measure` internally asserts every present engine
                // (table, lazy, kernel) replays to the enum hit count.
                let m = measure(kind, assoc, &cfg);
                assert!(m.hits > 0, "{kind:?}/{assoc}: degenerate stream");
                assert!(m.enum_mops > 0.0);
            }
        }
    }

    #[test]
    fn skip_reasons_are_typed_not_bare() {
        let cfg = BenchConfig {
            sets: 16,
            accesses: 4_000,
            repeats: 1,
        };
        // LRU at 16 ways: eager table blows the budget, lazy and kernel
        // both serve it — the assoc-16 gap this sweep exists to close.
        let m = measure(PolicyKind::Lru, 16, &cfg);
        assert_eq!(m.table, Err(Skip::TableBlowup));
        assert!(m.lazy.is_ok());
        assert!(m.kernel.is_ok());
        assert_eq!(m.kernel_name, Some("lru16/swar128"));
        assert!(m.has_specialized_engine());
        // A stochastic kind: every table-family engine is typed out.
        let m = measure(PolicyKind::Random { seed: 7 }, 8, &cfg);
        assert_eq!(m.table, Err(Skip::Stochastic));
        assert_eq!(m.lazy, Err(Skip::Stochastic));
        assert_eq!(m.kernel, Err(Skip::NoKernel));
        assert!(!m.has_specialized_engine());
        // A deterministic kind outside the kernel grid keeps its table
        // columns but records a typed kernel skip.
        let m = measure(PolicyKind::Clock, 8, &cfg);
        assert!(m.table.is_ok());
        assert!(m.lazy.is_ok());
        assert_eq!(m.kernel, Err(Skip::NoKernel));
        assert_eq!(m.kernel_name, None);
    }
}
