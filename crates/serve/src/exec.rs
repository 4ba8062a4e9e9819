//! Request execution: the bridge from a validated [`Request`] to a
//! deterministic JSON result body.
//!
//! The server talks to executors through the [`Executor`] trait so
//! tests can substitute scripted ones (a fixed-latency executor turns
//! backpressure tests deterministic). Production uses
//! [`PipelineExecutor`], which drives the same library entry points as
//! the `cachekit` CLI: the budgeted robust inference pipeline, the
//! trace-driven simulator, the permutation-spec distance analyses, and
//! the synthetic workload suite.
//!
//! Result bodies are **bit-deterministic**: for a given canonical
//! request they contain no timestamps, durations, or other
//! run-dependent values. That property is what lets the result cache
//! return stored bytes and still be indistinguishable from a cold
//! execution (asserted by the backpressure test suite).

use crate::proto::{
    AttackScoreRequest, DistancesRequest, EvictionSetRequest, InferRequest, Request,
    SimulateHierarchyRequest, SimulateRequest, WorkloadsRequest,
};
use cachekit_bench::json::Json;
use cachekit_core::analysis::{evict_distance_spec, minimal_lifespan_spec, DistanceError};
use cachekit_core::attack::{eviction_set_for_kind, stealth_score};
use cachekit_core::infer::{engine_by_name, infer_geometry, Finding, InferenceRequest};
use cachekit_core::perm::{
    lazy_table_for_kind, table_for_kind, LazyTablePolicy, PermutationSpec, TablePolicy,
};
use cachekit_hw::{fleet, CacheLevel, LevelOracle};
use cachekit_policies::kernel::kernel_available;
use cachekit_policies::PolicyKind;
use cachekit_sim::{Cache, CacheConfig, Containment, Hierarchy};
use cachekit_trace::{io, workloads};

/// Search budget (oracle steps) for the distance analyses — matches the
/// CLI's `distances` command.
const DISTANCE_BUDGET: usize = 8_000_000;

/// Executes validated requests, producing deterministic JSON bodies.
///
/// Implementations must be cheap to share across worker threads; the
/// server holds one instance behind an `Arc`.
pub trait Executor: Send + Sync + 'static {
    /// Run `request` to completion and render its result body.
    ///
    /// The returned JSON must be fully determined by the request's
    /// canonical form (no clocks, no global state) — it may be stored
    /// in the result cache and replayed byte-for-byte.
    fn execute(&self, request: &Request) -> Json;
}

/// The production executor: runs the real cachekit pipelines.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineExecutor;

impl Executor for PipelineExecutor {
    fn execute(&self, request: &Request) -> Json {
        match request {
            Request::Infer(r) => run_infer(r),
            Request::Simulate(r) => run_simulate(r),
            Request::SimulateHierarchy(r) => run_simulate_hierarchy(r),
            Request::Distances(r) => run_distances(r),
            Request::Workloads(r) => run_workloads(r),
            Request::EvictionSet(r) => run_eviction_set(r),
            Request::AttackScore(r) => run_attack_score(r),
        }
    }
}

/// A result body for a request that failed *inside* the pipeline
/// (e.g. a CPU level outside the permutation class). These are valid,
/// cacheable answers — the request itself was well-formed.
fn error_body(kind: &str, message: String) -> Json {
    Json::object(vec![
        ("type", Json::from(kind)),
        ("ok", Json::from(false)),
        ("degraded", Json::from(false)),
        ("error", Json::from(message)),
    ])
}

fn run_infer(req: &InferRequest) -> Json {
    let config = match req.inference_config() {
        Ok(c) => c,
        Err(e) => return error_body("infer", e.to_string()),
    };
    let Some(mut cpu) = fleet::by_name(&req.cpu) else {
        return error_body("infer", format!("unknown cpu {:?}", req.cpu));
    };
    let level = match req.level.as_str() {
        "l1" => CacheLevel::L1,
        "l2" => CacheLevel::L2,
        _ => CacheLevel::L3,
    };
    if matches!(level, CacheLevel::L3) && cpu.l3_config().is_none() {
        return error_body("infer", format!("{} has no L3", req.cpu));
    }
    let engine =
        engine_by_name(&req.engine).expect("proto validation admits only known engine names");
    let mut oracle = LevelOracle::new(&mut cpu, level);
    let geometry = match infer_geometry(&mut oracle, &config) {
        Ok(g) => g,
        Err(e) => return error_body("infer", format!("geometry inference failed: {e}")),
    };
    let report = engine.infer(&mut oracle, &InferenceRequest::new(geometry, config));

    let mut fields = vec![
        ("type", Json::from("infer")),
        ("ok", Json::from(report.outcome.is_ok())),
        ("degraded", Json::from(report.degraded)),
        // `engine` echoes the request's (canonicalized) choice;
        // `backend` is the engine that produced the verdict — they
        // differ only under `auto` fallback.
        ("engine", Json::from(req.engine.as_str())),
        ("backend", Json::from(report.engine)),
        (
            "geometry",
            Json::object(vec![
                ("line_size", Json::from(geometry.line_size)),
                ("capacity", Json::from(geometry.capacity)),
                ("associativity", Json::from(geometry.associativity)),
                ("num_sets", Json::from(geometry.num_sets)),
            ]),
        ),
        ("confidence", Json::Num(report.confidence)),
        (
            "position_confidences",
            Json::from(report.position_confidences.clone()),
        ),
        ("measurements_used", Json::from(report.measurements_used)),
        ("measurement_budget", Json::from(report.measurement_budget)),
        ("timeouts", Json::from(report.timeouts)),
        ("dropped", Json::from(report.dropped)),
    ];
    match &report.outcome {
        Ok(Finding::Permutation(found)) => {
            fields.push((
                "policy",
                match found.matched {
                    Some(name) => Json::from(name),
                    None => Json::Null,
                },
            ));
            fields.push(("insertion_position", Json::from(found.insertion_position)));
            fields.push((
                "validation",
                Json::object(vec![
                    ("rounds", Json::from(found.validation_rounds)),
                    ("mismatches", Json::from(found.validation_mismatches)),
                ]),
            ));
            fields.push(("spec", Json::from(found.spec.render())));
        }
        Ok(Finding::Automaton(found)) => {
            fields.push((
                "policy",
                match &found.matched {
                    Some(name) => Json::from(name.as_str()),
                    None => Json::Null,
                },
            ));
            fields.push(("states", Json::from(found.states())));
            fields.push((
                "learning",
                Json::object(vec![
                    (
                        "membership_queries",
                        Json::from(found.stats.membership_queries),
                    ),
                    (
                        "equivalence_words",
                        Json::from(found.stats.equivalence_words),
                    ),
                    ("rounds", Json::from(found.stats.rounds)),
                ]),
            ));
        }
        Err(e) => fields.push(("error", Json::from(e.to_string()))),
    }
    Json::object(fields)
}

/// Build the cache for one simulated level and name its engine:
/// `"kernel"`, `"table"`, `"lazy_table"` or `"enum"`.
///
/// `containment` is `None` for a flat `simulate` request, or the
/// containment of the hierarchy the level belongs to; `writes` is the
/// request's write fraction, and only a flat cache reads it. The pick
/// follows policy, associativity, writes and containment, never measured
/// speed, so it is a pure function of the request and served bodies stay
/// cacheable. Every engine is bit-identical to the enum engine:
///
/// * a flat read-only request on a pair with a batch kernel runs the
///   kernel through [`Cache::access_many`];
/// * a flat cache, or a NINE level, whose reachable state space fits the
///   eager budget runs on [`TablePolicy`]. It has no invalidate
///   transition, and NINE never pulls a line out from under a level;
/// * a flat cache of any other deterministic kind runs on
///   [`LazyTablePolicy`];
/// * an inclusive or exclusive level runs on [`LazyTablePolicy`], whose
///   event alphabet includes invalidation, when the eager table
///   compiles: a proxy for a state space small enough that the shared
///   memo warms once and stays resident in a long-lived server;
/// * everything else runs on the inline enum engine.
pub fn select(
    policy: PolicyKind,
    config: CacheConfig,
    writes: f64,
    containment: Option<Containment>,
) -> (Cache, &'static str) {
    let assoc = config.associativity();
    if containment.is_none() && writes == 0.0 && kernel_available(policy, assoc) {
        return (Cache::new(config, policy), "kernel");
    }
    let eager = table_for_kind(policy, assoc);
    let lazy = match (containment, eager) {
        (None | Some(Containment::Nine), Some(table)) => {
            let cache = Cache::with_policy_factory(config, policy.label(), |_| {
                Box::new(TablePolicy::new(table.clone()))
            });
            return (cache, "table");
        }
        (None, None) | (Some(Containment::Inclusive | Containment::Exclusive), Some(_)) => {
            lazy_table_for_kind(policy, assoc)
        }
        (Some(_), None) => None,
    };
    match lazy {
        Some(table) => {
            let cache = Cache::with_policy_factory(config, policy.label(), |_| {
                Box::new(LazyTablePolicy::new(table.clone()))
            });
            (cache, "lazy_table")
        }
        None => (Cache::new(config, policy), "enum"),
    }
}

fn run_simulate(req: &SimulateRequest) -> Json {
    let config = match CacheConfig::new(req.capacity, req.assoc, req.line) {
        Ok(c) => c,
        Err(e) => return error_body("simulate", format!("invalid geometry: {e}")),
    };
    let Some(workload) = workloads::generate(&req.workload, req.capacity, req.line, req.seed)
    else {
        return unknown_workload("simulate", &req.workload);
    };
    let (mut cache, engine) = select(req.policy, config, req.writes, None);
    let (kernel, stats) = if engine == "kernel" {
        // With no writes every operation is a read of the trace address.
        cache.access_many(&workload.trace);
        (cache.batch_kernel(), cache.stats())
    } else {
        let ops = io::with_writes_iter(workload.trace.iter().copied(), req.writes, req.seed);
        (None, cache.run_ops(ops.map(|op| (op.addr, op.write))))
    };
    Json::object(vec![
        ("type", Json::from("simulate")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("engine", Json::from(engine)),
        (
            "kernel",
            match kernel {
                Some(name) => Json::from(name),
                None => Json::Null,
            },
        ),
        ("workload", Json::from(workload.name)),
        ("accesses", Json::from(stats.accesses)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("evictions", Json::from(stats.evictions)),
        ("writes", Json::from(stats.writes)),
        ("writebacks", Json::from(stats.writebacks)),
        ("miss_ratio", Json::Num(stats.miss_ratio())),
    ])
}

fn run_simulate_hierarchy(req: &SimulateHierarchyRequest) -> Json {
    let mut caches = Vec::with_capacity(req.levels.len());
    let mut engines = Vec::with_capacity(req.levels.len());
    for level in &req.levels {
        let config = match CacheConfig::new(level.capacity, level.assoc, req.line) {
            Ok(c) => c,
            Err(e) => return error_body("simulate_hierarchy", format!("invalid geometry: {e}")),
        };
        let (cache, engine) = select(level.policy, config, req.writes, Some(req.containment));
        caches.push(cache);
        engines.push(engine);
    }
    let outer_capacity = req
        .levels
        .last()
        .expect("levels validated non-empty")
        .capacity;
    let Some(workload) = workloads::generate(&req.workload, outer_capacity, req.line, req.seed)
    else {
        return unknown_workload("simulate_hierarchy", &req.workload);
    };
    let mut hierarchy = Hierarchy::from_caches(caches)
        .with_containment(req.containment)
        .with_latencies(req.latencies.clone(), req.memory_latency);
    for op in io::with_writes_iter(workload.trace.iter().copied(), req.writes, req.seed) {
        hierarchy.access_op(op.addr, op.write);
    }
    let hstats = hierarchy.hierarchy_stats();
    let levels: Vec<Json> = req
        .levels
        .iter()
        .zip(hierarchy.stats())
        .zip(&engines)
        .map(|((level, stats), engine)| {
            Json::object(vec![
                ("policy", Json::from(level.policy.label())),
                ("capacity", Json::from(level.capacity)),
                ("assoc", Json::from(level.assoc)),
                ("engine", Json::from(*engine)),
                ("accesses", Json::from(stats.accesses)),
                ("hits", Json::from(stats.hits)),
                ("misses", Json::from(stats.misses)),
                ("evictions", Json::from(stats.evictions)),
                ("writebacks", Json::from(stats.writebacks)),
                (
                    "miss_ratio",
                    Json::Num(if stats.accesses == 0 {
                        0.0
                    } else {
                        stats.miss_ratio()
                    }),
                ),
            ])
        })
        .collect();
    Json::object(vec![
        ("type", Json::from("simulate_hierarchy")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("containment", Json::from(req.containment.label())),
        ("workload", Json::from(workload.name)),
        ("levels", Json::Arr(levels)),
        ("accesses", Json::from(hstats.accesses)),
        ("amat_cycles", Json::Num(hierarchy.amat())),
        ("memory_fetches", Json::from(hstats.memory_fetches)),
        ("back_invalidations", Json::from(hstats.back_invalidations)),
        ("victim_fills", Json::from(hstats.victim_fills)),
        ("memory_writebacks", Json::from(hstats.memory_writebacks)),
        ("latencies", Json::from(req.latencies.clone())),
        ("memory_latency", Json::from(req.memory_latency)),
    ])
}

fn run_distances(req: &DistancesRequest) -> Json {
    let Some(spec) = PermutationSpec::for_kind(req.policy, req.assoc) else {
        return error_body(
            "distances",
            format!(
                "{} is not a permutation policy at {} ways",
                req.policy.label(),
                req.assoc
            ),
        );
    };
    let show = |r: Result<usize, DistanceError>| match r {
        Ok(v) => Json::from(v),
        Err(DistanceError::Unbounded) => Json::from("unbounded"),
        Err(e) => Json::from(format!("({e})")),
    };
    Json::object(vec![
        ("type", Json::from("distances")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        (
            "evict_distance",
            show(evict_distance_spec(&spec, DISTANCE_BUDGET)),
        ),
        (
            "minimal_lifespan",
            show(minimal_lifespan_spec(&spec, DISTANCE_BUDGET)),
        ),
    ])
}

/// The cacheable answer to a simulate-family request naming a workload
/// the suite does not have.
fn unknown_workload(kind: &str, name: &str) -> Json {
    error_body(
        kind,
        format!(
            "unknown workload {name:?}; available: {:?}",
            workloads::NAMES
        ),
    )
}

/// Lists the suite from trace lengths; no trace is built.
fn run_workloads(req: &WorkloadsRequest) -> Json {
    let entries: Vec<Json> = workloads::NAMES
        .iter()
        .map(|&name| {
            let known = "every suite name has a definition";
            let accesses = workloads::len(name, req.capacity, req.line, req.seed).expect(known);
            Json::object(vec![
                ("name", Json::from(name)),
                (
                    "description",
                    Json::from(workloads::description(name).expect(known)),
                ),
                ("accesses", Json::from(accesses)),
            ])
        })
        .collect();
    Json::object(vec![
        ("type", Json::from("workloads")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("capacity", Json::from(req.capacity)),
        ("line", Json::from(req.line)),
        ("workloads", Json::Arr(entries)),
    ])
}

/// Congruence stride the eviction-set bodies are rendered with: the
/// way size of the 16-set, 64-byte-line reference geometry every
/// attack suite pins. The construction is stride-generic (addresses
/// only need to be set-congruent); the body states the stride so a
/// client can re-target it.
const ATTACK_STRIDE: u64 = 16 * 64;

fn run_eviction_set(req: &EvictionSetRequest) -> Json {
    let set = match eviction_set_for_kind(req.policy, req.assoc, ATTACK_STRIDE) {
        Ok(set) => set,
        // A stochastic policy (or one with no derivable model) refuses
        // honestly; the refusal is a valid, cacheable answer.
        Err(e) => return error_body("eviction_set", e.to_string()),
    };
    // Confirm against the reference simulator before serving: the body
    // never claims a sequence the ground truth does not certify.
    let config = CacheConfig::new((req.assoc * 16 * 64) as u64, req.assoc, 64)
        .expect("reference geometry is valid");
    let mut oracle = cachekit_core::infer::SimOracle::new(Cache::new(config, req.policy));
    let confirmed = set.confirms_on(&mut oracle);
    Json::object(vec![
        ("type", Json::from("eviction_set")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        ("stride", Json::from(ATTACK_STRIDE)),
        ("target", Json::from(set.target)),
        ("preparation", Json::from(set.preparation.clone())),
        ("accesses", Json::from(set.accesses.clone())),
        ("length", Json::from(set.len())),
        ("attacker_misses", Json::from(set.attacker_misses)),
        ("attacker_hits", Json::from(set.attacker_hits)),
        ("confirmed", Json::from(confirmed)),
    ])
}

fn run_attack_score(req: &AttackScoreRequest) -> Json {
    let score = stealth_score(req.policy, req.assoc, req.scenario, req.rounds, req.seed);
    Json::object(vec![
        ("type", Json::from("attack_score")),
        ("ok", Json::from(true)),
        ("degraded", Json::from(false)),
        ("policy", Json::from(req.policy.label())),
        ("assoc", Json::from(req.assoc)),
        ("scenario", Json::from(req.scenario.label())),
        ("rounds", Json::from(score.rounds)),
        ("guaranteed", Json::from(score.guaranteed)),
        ("hold_rate", Json::Num(score.hold_rate)),
        ("misses_per_round", Json::Num(score.misses_per_round)),
        ("accesses_per_round", Json::Num(score.accesses_per_round)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Request {
        Request::parse(body).unwrap()
    }

    #[test]
    fn infer_results_are_bit_deterministic() {
        let req = parse(r#"{"type":"infer","cpu":"atom_d525","level":"l1"}"#);
        let a = PipelineExecutor.execute(&req).to_compact();
        let b = PipelineExecutor.execute(&req).to_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"ok\":true"), "body: {a}");
        assert!(a.contains("\"policy\":"), "body: {a}");
    }

    #[test]
    fn infer_serves_the_automata_engine_for_hidden_nru() {
        // quark_x1000's L1 hides NRU — outside the permutation class,
        // so only the automata engine can name it.
        let req = parse(r#"{"type":"infer","cpu":"quark_x1000","level":"l1","engine":"automata"}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(body.contains("\"engine\":\"automata\""), "body: {body}");
        assert!(body.contains("\"backend\":\"automata\""), "body: {body}");
        assert!(body.contains("\"policy\":\"NRU\""), "body: {body}");
        assert!(body.contains("\"states\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn infer_echoes_the_permutation_engine_and_backend() {
        let req = parse(r#"{"type":"infer","cpu":"atom_d525","level":"l1"}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"permutation\""), "body: {body}");
        assert!(body.contains("\"backend\":\"permutation\""), "body: {body}");
    }

    #[test]
    fn simulate_reports_stats() {
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,
                "workload":"seq_stream"}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(body.contains("\"miss_ratio\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn simulate_picks_the_table_engine_for_compilable_kinds() {
        // PLRU at 8 ways has a small reachable space, and the write
        // fraction disqualifies the read-only batch kernel: table engine.
        let req = parse(
            r#"{"type":"simulate","policy":"PLRU","capacity":65536,"assoc":8,
                "workload":"zipf_hot","writes":0.2}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"table\""), "body: {body}");
        // BIP is stochastic: enum engine.
        let req = parse(
            r#"{"type":"simulate","policy":"BIP","capacity":65536,"assoc":8,
                "workload":"zipf_hot"}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"enum\""), "body: {body}");
    }

    #[test]
    fn simulate_picks_the_batch_kernel_for_pure_read_compiled_pairs() {
        // Pure-read LRU at 16 ways: the monomorphized batch kernel runs,
        // and the response names which kernel was dispatched.
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":131072,"assoc":16,
                "workload":"zipf_hot"}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"kernel\""), "body: {body}");
        assert!(
            body.contains("\"kernel\":\"lru16/swar128\""),
            "body: {body}"
        );
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
        // Any write traffic falls back to the per-access table path.
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":131072,"assoc":16,
                "workload":"zipf_hot","writes":0.1}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(!body.contains("\"engine\":\"kernel\""), "body: {body}");
        assert!(body.contains("\"kernel\":null"), "body: {body}");
    }

    #[test]
    fn simulate_lazy_table_serves_kinds_that_blow_the_eager_budget() {
        // LRU at 16 ways with writes: 16! permutations blow the eager
        // table budget, but the lazy table interns only reached states.
        let req = parse(
            r#"{"type":"simulate","policy":"LRU","capacity":131072,"assoc":16,
                "workload":"zipf_hot","writes":0.2}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"engine\":\"lazy_table\""), "body: {body}");
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn kernel_engine_stats_are_bit_identical_to_the_enum_engine() {
        // The same pure-read request forced down the enum path (via a
        // direct Cache) must agree with the kernel path on every stat.
        let config = CacheConfig::new(131072, 16, 64).unwrap();
        let suite = workloads::suite(131072, 64, 7);
        for w in &suite {
            let addrs: Vec<u64> = io::with_writes(&w.trace, 0.0, 7)
                .iter()
                .map(|op| op.addr)
                .collect();
            let mut kerneled = Cache::new(config, cachekit_policies::PolicyKind::Lru);
            assert!(kerneled.batch_kernel().is_some());
            kerneled.access_many(&addrs);
            let mut enumed = Cache::new(config, cachekit_policies::PolicyKind::Lru);
            enumed.run_ops(addrs.iter().map(|&a| (a, false)));
            assert_eq!(kerneled.stats(), enumed.stats(), "workload {}", w.name);
            assert_eq!(
                kerneled.occupancy(),
                enumed.occupancy(),
                "workload {}",
                w.name
            );
        }
    }

    #[test]
    fn table_engine_stats_are_bit_identical_to_the_enum_engine() {
        use cachekit_policies::PolicyKind;
        for kind in [PolicyKind::Lru, PolicyKind::TreePlru, PolicyKind::Fifo] {
            let config = CacheConfig::new(16384, 8, 64).unwrap();
            let table = table_for_kind(kind, 8).expect("kind should compile at 8 ways");
            let mut tabled = Cache::with_policy_factory(config, kind.label(), |_| {
                Box::new(TablePolicy::new(table.clone()))
            });
            let mut enumed = Cache::new(config, kind);
            let suite = workloads::suite(16384, 64, 7);
            for w in &suite {
                let ops = io::with_writes(&w.trace, 0.3, 7);
                let a = tabled.run_ops(ops.iter().map(|op| (op.addr, op.write)));
                let b = enumed.run_ops(ops.iter().map(|op| (op.addr, op.write)));
                assert_eq!(a, b, "{kind:?} diverged on workload {}", w.name);
            }
            assert_eq!(tabled.occupancy(), enumed.occupancy(), "{kind:?}");
        }
    }

    /// Serve's engine pick, body by body: the 13 differential kinds plus
    /// QLRU-1 (which sim_cold serves), at 4, 8 and 16 ways, as a flat
    /// read, a flat request with writes, and a one-level hierarchy under
    /// NINE, inclusive and exclusive containment. Each row lists those
    /// five `engine` labels in that order; a flat body that names a
    /// batch kernel shows it in parentheses.
    #[test]
    fn engine_pick_is_pinned_for_every_kind_assoc_and_use() {
        const EXPECTED: &[&str] = &[
            "LRU@4: kernel(lru4/swar32) table table lazy_table lazy_table",
            "LRU@8: kernel(lru8/swar64) table table lazy_table lazy_table",
            "LRU@16: kernel(lru16/swar128) lazy_table enum enum enum",
            "FIFO@4: kernel(fifo4/swar32) table table lazy_table lazy_table",
            "FIFO@8: kernel(fifo8/swar64) table table lazy_table lazy_table",
            "FIFO@16: kernel(fifo16/swar128) table table lazy_table lazy_table",
            "PLRU@4: kernel(plru4/bits3) table table lazy_table lazy_table",
            "PLRU@8: kernel(plru8/bits7) table table lazy_table lazy_table",
            "PLRU@16: kernel(plru16/bits15) lazy_table enum enum enum",
            "BitPLRU@4: table table table lazy_table lazy_table",
            "BitPLRU@8: table table table lazy_table lazy_table",
            "BitPLRU@16: lazy_table lazy_table enum enum enum",
            "NRU@4: kernel(nru4/bits4) table table lazy_table lazy_table",
            "NRU@8: kernel(nru8/bits8) table table lazy_table lazy_table",
            "NRU@16: kernel(nru16/bits16) table table lazy_table lazy_table",
            "CLOCK@4: table table table lazy_table lazy_table",
            "CLOCK@8: table table table lazy_table lazy_table",
            "CLOCK@16: lazy_table lazy_table enum enum enum",
            "LIP@4: table table table lazy_table lazy_table",
            "LIP@8: table table table lazy_table lazy_table",
            "LIP@16: lazy_table lazy_table enum enum enum",
            "SRRIP-2@4: table table table lazy_table lazy_table",
            "SRRIP-2@8: table table table lazy_table lazy_table",
            "SRRIP-2@16: lazy_table lazy_table enum enum enum",
            "LazyLRU@4: table table table lazy_table lazy_table",
            "LazyLRU@8: table table table lazy_table lazy_table",
            "LazyLRU@16: lazy_table lazy_table enum enum enum",
            "BIP-1/32@4: enum enum enum enum enum",
            "BIP-1/32@8: enum enum enum enum enum",
            "BIP-1/32@16: enum enum enum enum enum",
            "BRRIP-2-1/32@4: enum enum enum enum enum",
            "BRRIP-2-1/32@8: enum enum enum enum enum",
            "BRRIP-2-1/32@16: enum enum enum enum enum",
            "Random@4: enum enum enum enum enum",
            "Random@8: enum enum enum enum enum",
            "Random@16: enum enum enum enum enum",
            "SLRU-2@4: table table table lazy_table lazy_table",
            "SLRU-2@8: table table table lazy_table lazy_table",
            "SLRU-2@16: lazy_table lazy_table enum enum enum",
            "QLRU-1@4: table table table lazy_table lazy_table",
            "QLRU-1@8: table table table lazy_table lazy_table",
            "QLRU-1@16: lazy_table lazy_table enum enum enum",
        ];
        let mut kinds = cachekit_policies::PolicyKind::differential_kinds();
        kinds.push(cachekit_policies::PolicyKind::Qlru { insert: 1 });
        let label = |body: &Json| {
            let engine = body.get("engine").and_then(Json::as_str);
            let engine = engine.unwrap_or_else(|| panic!("no engine in {}", body.to_compact()));
            match body.get("kernel").and_then(Json::as_str) {
                Some(kernel) => format!("{engine}({kernel})"),
                None => engine.to_string(),
            }
        };
        let mut rows = Vec::new();
        for kind in kinds {
            let policy = kind.label();
            for assoc in [4usize, 8, 16] {
                let mut row = format!("{policy}@{assoc}:");
                for writes in ["0", "0.2"] {
                    let body = PipelineExecutor.execute(&parse(&format!(
                        r#"{{"type":"simulate","policy":"{policy}","capacity":4096,
                            "assoc":{assoc},"workload":"seq_stream","writes":{writes}}}"#
                    )));
                    row += &format!(" {}", label(&body));
                }
                for containment in ["nine", "inclusive", "exclusive"] {
                    let body = PipelineExecutor.execute(&parse(&format!(
                        r#"{{"type":"simulate_hierarchy","workload":"seq_stream",
                            "containment":"{containment}","writes":0.2,"levels":[
                            {{"policy":"{policy}","capacity":4096,"assoc":{assoc}}}]}}"#
                    )));
                    let levels = body.get("levels").and_then(Json::as_array);
                    let level = levels.and_then(|l| l.first());
                    let level =
                        level.unwrap_or_else(|| panic!("no level in {}", body.to_compact()));
                    row += &format!(" {}", label(level));
                }
                rows.push(row);
            }
        }
        for r in &rows {
            eprintln!("ROW {r:?},");
        }
        assert_eq!(rows, EXPECTED);
    }

    #[test]
    fn simulate_hierarchy_reports_per_level_stats_and_amat() {
        let req = parse(
            r#"{"type":"simulate_hierarchy","workload":"thrash_loop","containment":"inclusive",
                "levels":[{"policy":"PLRU","capacity":8192,"assoc":4},
                          {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":true"), "body: {body}");
        assert!(
            body.contains("\"containment\":\"inclusive\""),
            "body: {body}"
        );
        assert!(body.contains("\"amat_cycles\":"), "body: {body}");
        assert!(body.contains("\"back_invalidations\":"), "body: {body}");
        assert_eq!(body, PipelineExecutor.execute(&req).to_compact());
    }

    #[test]
    fn simulate_hierarchy_engine_pick_depends_on_containment() {
        // PLRU at 4 ways compiles to an eager table, but `TablePolicy`
        // has no invalidate transition — only NINE containment (where no
        // line is ever pulled out from under a level) may use it. Under
        // Inclusive/Exclusive the lazy table, whose event alphabet
        // includes invalidation, takes over.
        let nine = parse(
            r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"nine",
                "levels":[{"policy":"PLRU","capacity":8192,"assoc":4},
                          {"policy":"PLRU","capacity":65536,"assoc":4}]}"#,
        );
        let body = PipelineExecutor.execute(&nine).to_compact();
        assert!(body.contains("\"engine\":\"table\""), "body: {body}");
        assert!(!body.contains("\"engine\":\"lazy_table\""), "body: {body}");
        for containment in ["inclusive", "exclusive"] {
            let req = parse(&format!(
                r#"{{"type":"simulate_hierarchy","workload":"fit_loop",
                    "containment":"{containment}","levels":[
                    {{"policy":"PLRU","capacity":8192,"assoc":4}},
                    {{"policy":"PLRU","capacity":65536,"assoc":4}}]}}"#
            ));
            let body = PipelineExecutor.execute(&req).to_compact();
            assert!(!body.contains("\"engine\":\"table\""), "body: {body}");
            assert!(body.contains("\"engine\":\"lazy_table\""), "body: {body}");
            assert!(body.contains("\"ok\":true"), "body: {body}");
        }
        // A kind outside the eager budget (LRU at 16) stays on the enum
        // engine under invalidating containments: the smallness gate
        // keeps the lazy memo from growing without bound in a server.
        let big = parse(
            r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"inclusive",
                "levels":[{"policy":"LRU","capacity":16384,"assoc":16},
                          {"policy":"LRU","capacity":131072,"assoc":16}]}"#,
        );
        let body = PipelineExecutor.execute(&big).to_compact();
        assert!(body.contains("\"engine\":\"enum\""), "body: {body}");
        assert!(!body.contains("\"engine\":\"lazy_table\""), "body: {body}");
    }

    #[test]
    fn lazy_table_hierarchy_stats_are_bit_identical_to_the_enum_engine() {
        use cachekit_policies::PolicyKind;
        for containment in [Containment::Inclusive, Containment::Exclusive] {
            for kind in [PolicyKind::TreePlru, PolicyKind::Fifo] {
                let build = |lazy: bool| {
                    let caches: Vec<Cache> = [(8192u64, 4usize), (65536, 4)]
                        .iter()
                        .map(|&(capacity, assoc)| {
                            let config = CacheConfig::new(capacity, assoc, 64).unwrap();
                            if lazy {
                                let table =
                                    lazy_table_for_kind(kind, assoc).expect("deterministic kind");
                                Cache::with_policy_factory(config, kind.label(), |_| {
                                    Box::new(LazyTablePolicy::new(table.clone()))
                                })
                            } else {
                                Cache::new(config, kind)
                            }
                        })
                        .collect();
                    Hierarchy::from_caches(caches).with_containment(containment)
                };
                let mut lazy = build(true);
                let mut enumed = build(false);
                let suite = workloads::suite(65536, 64, 11);
                for w in &suite {
                    for op in io::with_writes(&w.trace, 0.3, 11) {
                        lazy.access_op(op.addr, op.write);
                        enumed.access_op(op.addr, op.write);
                    }
                }
                assert_eq!(
                    lazy.stats(),
                    enumed.stats(),
                    "{kind:?} diverged under {containment:?}"
                );
                assert_eq!(
                    lazy.hierarchy_stats(),
                    enumed.hierarchy_stats(),
                    "{kind:?} under {containment:?}"
                );
            }
        }
    }

    #[test]
    fn simulate_hierarchy_single_level_nine_matches_flat_simulate() {
        // A depth-1 NINE hierarchy is definitionally a flat cache; the
        // two request types must agree on every shared statistic.
        let hier = parse(
            r#"{"type":"simulate_hierarchy","workload":"zipf_hot","writes":0.25,
                "levels":[{"policy":"SRRIP","capacity":65536,"assoc":8}]}"#,
        );
        let flat = parse(
            r#"{"type":"simulate","policy":"SRRIP","capacity":65536,"assoc":8,
                "workload":"zipf_hot","writes":0.25}"#,
        );
        let hier_body = PipelineExecutor.execute(&hier);
        let flat_body = PipelineExecutor.execute(&flat);
        let level = match hier_body.get("levels") {
            Some(Json::Arr(levels)) => &levels[0],
            other => panic!("levels must be an array, got {other:?}"),
        };
        for field in [
            "accesses",
            "hits",
            "misses",
            "evictions",
            "writebacks",
            "miss_ratio",
        ] {
            assert_eq!(
                level.get(field).and_then(Json::as_f64),
                flat_body.get(field).and_then(Json::as_f64),
                "field {field:?}"
            );
        }
    }

    #[test]
    fn simulate_hierarchy_unknown_workload_is_a_cacheable_error_body() {
        let req = parse(
            r#"{"type":"simulate_hierarchy","workload":"nope","levels":[
                {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        );
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":false"), "body: {body}");
        assert!(body.contains("unknown workload"), "body: {body}");
    }

    #[test]
    fn the_parse_time_price_never_under_counts_the_simulated_accesses() {
        for workload in workloads::NAMES {
            let flat = parse(&format!(
                r#"{{"type":"simulate","policy":"PLRU","capacity":16384,"assoc":4,
                    "workload":"{workload}","writes":0.1,"seed":5}}"#
            ));
            let Request::Simulate(req) = &flat else {
                unreachable!()
            };
            let body = PipelineExecutor.execute(&flat);
            let ran = body.get("accesses").and_then(Json::as_u64).unwrap();
            assert!(ran <= req.price(), "{workload}: {ran} > {}", req.price());
            let hier = parse(&format!(
                r#"{{"type":"simulate_hierarchy","workload":"{workload}","seed":5,
                    "containment":"exclusive","levels":[
                    {{"policy":"LRU","capacity":4096,"assoc":4}},
                    {{"policy":"FIFO","capacity":16384,"assoc":4}}]}}"#
            ));
            let Request::SimulateHierarchy(req) = &hier else {
                unreachable!()
            };
            let body = PipelineExecutor.execute(&hier);
            let Some(Json::Arr(levels)) = body.get("levels") else {
                panic!("levels must be an array")
            };
            let ran: u64 = levels
                .iter()
                .map(|l| l.get("accesses").and_then(Json::as_u64).unwrap())
                .sum();
            assert!(ran <= req.price(), "{workload}: {ran} > {}", req.price());
        }
    }

    #[test]
    fn distances_match_known_lru_values() {
        let req = parse(r#"{"type":"distances","policy":"LRU","assoc":4}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"evict_distance\":4"), "body: {body}");
        assert!(body.contains("\"minimal_lifespan\":4"), "body: {body}");
    }

    #[test]
    fn workloads_lists_the_suite() {
        let req = parse(r#"{"type":"workloads","capacity":65536}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"workloads\":["), "body: {body}");
        assert!(body.contains("seq_stream"), "body: {body}");
    }

    #[test]
    fn pipeline_errors_become_cacheable_error_bodies() {
        // RANDOM is outside the permutation class at the spec level.
        let req = parse(r#"{"type":"distances","policy":"RANDOM","assoc":4}"#);
        let body = PipelineExecutor.execute(&req).to_compact();
        assert!(body.contains("\"ok\":false"), "body: {body}");
        assert!(body.contains("\"error\":"), "body: {body}");
    }
}
