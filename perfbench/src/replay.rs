//! The traced replay of the serving path.
//!
//! Replays generated requests in process through the layers' public
//! entry points, in the order the server calls them, with a span around
//! every call:
//!
//! 1. `RequestDecoder::feed` / `try_next` (`serve.http.decode`)
//! 2. `Request::parse` (`serve.proto.parse`), then `cache_key`
//!    (`serve.proto.key`)
//! 3. `ResultCache::get` (`serve.cache.get`)
//! 4. on a miss the executor's steps (`serve.exec`): for simulate,
//!    `workloads::suite`, `io::with_writes`, `Cache::new` /
//!    `with_policy_factory`, then `access_many`, `run_ops` or
//!    `Hierarchy::access_op`; for infer, `infer_geometry`, then
//!    `InferenceEngine::infer` over a timing `CacheOracle` wrapped
//!    around `LevelOracle`
//! 5. `Json::to_compact` (`serve.serialize`), `ResultCache::insert`
//!    (`serve.cache.insert`), then `write_response` (`serve.http.encode`)
//!
//! The executor's body construction is mirrored here so the replay
//! produces the same bytes the server did; the workloads assert that it
//! does.

use crate::span::Tracer;
use cachekit_core::infer::{
    engine_by_name, infer_geometry, CacheOracle, Finding, InferenceRequest, MeasureFault,
};
use cachekit_core::perm::{lazy_table_for_kind, table_for_kind, LazyTablePolicy, TablePolicy};
use cachekit_hw::{fleet, CacheLevel, LevelOracle};
use cachekit_policies::PolicyKind;
use cachekit_serve::exec::{Executor, PipelineExecutor};
use cachekit_serve::http::{write_response, HttpResponse, RequestDecoder};
use cachekit_serve::proto::{InferRequest, SimulateHierarchyRequest, SimulateRequest};
use cachekit_serve::{Json, Request, ResultCache};
use cachekit_sim::{Cache, CacheConfig, Containment, Hierarchy};
use cachekit_trace::{io, workloads};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts the replay gathers where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub cache_gets: u64,
    pub cache_hits: u64,
    /// Simulated accesses per engine span name (`sim.kernel`, ...).
    pub accesses: BTreeMap<&'static str, u64>,
    /// Addresses `workloads::suite` generated, and how many of them the
    /// request went on to simulate.
    pub generated_addrs: u64,
    pub used_addrs: u64,
    pub oracle_measurements: u64,
    pub oracle_accesses: u64,
    /// Timeouts plus dropped readings the infer bodies report.
    pub retries: u64,
    /// Infer answers without a confident verdict.
    pub refusals: u64,
    /// Kernel-pair simulate requests: what the same-run ceiling replays.
    pub kernel_streams: Vec<KernelStream>,
}

/// One kernel-pair request's address stream, kept for the ceiling.
#[derive(Debug, Clone)]
pub struct KernelStream {
    pub request: u32,
    pub policy: PolicyKind,
    pub config: CacheConfig,
    pub addrs: Vec<u64>,
    pub hits: u64,
}

/// The outcome of one replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub body: String,
    pub cache: &'static str,
}

/// Replay the requests in `wire` (one or more pipelined requests) with
/// request ids starting at `first_id`.
pub fn replay_wire(
    tr: &Tracer,
    decoder: &mut RequestDecoder,
    cache: &ResultCache,
    wire: &[u8],
    first_id: u32,
    counts: &mut Counts,
) -> Vec<Replayed> {
    tr.set_request(first_id);
    tr.time("serve.http.decode", || decoder.feed(wire));
    let mut out = Vec::new();
    let mut id = first_id;
    loop {
        tr.set_request(id);
        let next = tr.time("serve.http.decode", || decoder.try_next());
        let http = match next {
            Ok(Some(http)) => http,
            Ok(None) => break,
            Err(e) => panic!("replayed bytes must decode: {e}"),
        };
        let started = Instant::now();
        let request = tr.time("serve.proto.parse", || {
            let body = std::str::from_utf8(&http.body).expect("generated bodies are UTF-8");
            Request::parse(body).expect("generated requests are valid")
        });
        let key = tr.time("serve.proto.key", || request.cache_key());
        counts.requests += 1;
        counts.cache_gets += 1;
        let stored = tr.time("serve.cache.get", || cache.get(key));
        let (body, mark) = match stored {
            Some(body) => {
                counts.cache_hits += 1;
                (body, "hit")
            }
            None => {
                let json = tr.time("serve.exec", || execute(tr, &request, id, counts));
                let body = tr.time("serve.serialize", || json.to_compact());
                tr.time("serve.cache.insert", || cache.insert(key, body.clone()));
                (body, "miss")
            }
        };
        tr.time("serve.http.encode", || {
            let response = HttpResponse::json(200, body.as_str())
                .with_header("X-Cache", mark)
                .with_header("X-Request-Kind", request.kind())
                .with_header("X-Service-Us", started.elapsed().as_micros().to_string());
            let mut bytes = Vec::with_capacity(body.len() + 160);
            write_response(&mut bytes, &response, false).expect("writes to memory cannot fail");
            std::hint::black_box(bytes);
        });
        out.push(Replayed { body, cache: mark });
        id += 1;
    }
    out
}

fn execute(tr: &Tracer, request: &Request, id: u32, counts: &mut Counts) -> Json {
    match request {
        Request::Simulate(r) => simulate(tr, r, id, counts),
        Request::SimulateHierarchy(r) => simulate_hierarchy(tr, r, counts),
        Request::Infer(r) => infer(tr, r, counts),
        // The cold workloads send only the three request types above;
        // anything else runs as one opaque executor call.
        other => PipelineExecutor.execute(other),
    }
}

fn error_body(kind: &str, message: String) -> Json {
    Json::object(vec![
        ("type", Json::from(kind)),
        ("ok", Json::from(false)),
        ("degraded", Json::from(false)),
        ("error", Json::from(message)),
    ])
}

fn suite(
    tr: &Tracer,
    capacity: u64,
    line: u64,
    seed: u64,
    counts: &mut Counts,
) -> Vec<workloads::Workload> {
    let suite = tr.time("trace.suite", || workloads::suite(capacity, line, seed));
    counts.generated_addrs += suite.iter().map(|w| w.trace.len() as u64).sum::<u64>();
    suite
}

fn simulate(tr: &Tracer, req: &SimulateRequest, id: u32, counts: &mut Counts) -> Json {
    let config = match CacheConfig::new(req.capacity, req.assoc, req.line) {
        Ok(c) => c,
        Err(e) => return error_body("simulate", format!("invalid geometry: {e}")),
    };
    let suite = suite(tr, req.capacity, req.line, req.seed, counts);
    let Some(workload) = suite.iter().find(|w| w.name == req.workload) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        return error_body(
            "simulate",
            format!("unknown workload {:?}; available: {names:?}", req.workload),
        );
    };
    let ops = tr.time("trace.with_writes", || {
        io::with_writes(&workload.trace, req.writes, req.seed)
    });
    counts.used_addrs += ops.len() as u64;
    let use_kernel = req.writes == 0.0
        && cachekit_policies::kernel::kernel_available(req.policy, config.associativity());
    let (engine, kernel, stats) = if use_kernel {
        let mut cache = tr.time("sim.build", || Cache::new(config, req.policy));
        let name = cache.batch_kernel();
        let stats = tr.time("sim.kernel", || {
            let addrs: Vec<u64> = ops.iter().map(|op| op.addr).collect();
            cache.access_many(&addrs);
            counts.kernel_streams.push(KernelStream {
                request: id,
                policy: req.policy,
                config,
                addrs,
                hits: cache.stats().hits,
            });
            cache.stats()
        });
        *counts.accesses.entry("sim.kernel").or_default() += stats.accesses;
        ("kernel", name, stats)
    } else {
        let (mut cache, engine) = tr.time("sim.build", || {
            match table_for_kind(req.policy, config.associativity()) {
                Some(table) => (
                    Cache::with_policy_factory(config, req.policy.label(), |_| {
                        Box::new(TablePolicy::new(table.clone()))
                    }),
                    "table",
                ),
                None => match lazy_table_for_kind(req.policy, config.associativity()) {
                    Some(table) => (
                        Cache::with_policy_factory(config, req.policy.label(), |_| {
                            Box::new(LazyTablePolicy::new(table.clone()))
                        }),
                        "lazy_table",
                    ),
                    None => (Cache::new(config, req.policy), "enum"),
                },
            }
        });
        let span = engine_span(engine);
        let stats = tr.time(span, || {
            cache.run_ops(ops.iter().map(|op| (op.addr, op.write)))
        });
        *counts.accesses.entry(span).or_default() += stats.accesses;
        (engine, None, stats)
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

/// The span name of an engine.
pub fn engine_span(engine: &str) -> &'static str {
    match engine {
        "kernel" => "sim.kernel",
        "table" => "sim.table",
        "lazy_table" => "sim.lazy_table",
        _ => "sim.enum",
    }
}

fn simulate_hierarchy(tr: &Tracer, req: &SimulateHierarchyRequest, counts: &mut Counts) -> Json {
    let mut caches = Vec::with_capacity(req.levels.len());
    let mut engines = Vec::with_capacity(req.levels.len());
    let build = tr.enter("sim.build");
    for level in &req.levels {
        let config = match CacheConfig::new(level.capacity, level.assoc, req.line) {
            Ok(c) => c,
            Err(e) => {
                tr.exit(build);
                return error_body("simulate_hierarchy", format!("invalid geometry: {e}"));
            }
        };
        let eager = table_for_kind(level.policy, config.associativity());
        if req.containment == Containment::Nine {
            match eager {
                Some(table) => {
                    caches.push(Cache::with_policy_factory(
                        config,
                        level.policy.label(),
                        |_| Box::new(TablePolicy::new(table.clone())),
                    ));
                    engines.push("table");
                }
                None => {
                    caches.push(Cache::new(config, level.policy));
                    engines.push("enum");
                }
            }
        } else {
            match eager.and_then(|_| lazy_table_for_kind(level.policy, config.associativity())) {
                Some(table) => {
                    caches.push(Cache::with_policy_factory(
                        config,
                        level.policy.label(),
                        |_| Box::new(LazyTablePolicy::new(table.clone())),
                    ));
                    engines.push("lazy_table");
                }
                None => {
                    caches.push(Cache::new(config, level.policy));
                    engines.push("enum");
                }
            }
        }
    }
    tr.exit(build);
    let outer_capacity = req
        .levels
        .last()
        .expect("levels validated non-empty")
        .capacity;
    let suite = suite(tr, outer_capacity, req.line, req.seed, counts);
    let Some(workload) = suite.iter().find(|w| w.name == req.workload) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        return error_body(
            "simulate_hierarchy",
            format!("unknown workload {:?}; available: {names:?}", req.workload),
        );
    };
    let ops = tr.time("trace.with_writes", || {
        io::with_writes(&workload.trace, req.writes, req.seed)
    });
    counts.used_addrs += ops.len() as u64;
    let mut hierarchy = tr.time("sim.build", || {
        Hierarchy::from_caches(caches)
            .with_containment(req.containment)
            .with_latencies(req.latencies.clone(), req.memory_latency)
    });
    tr.time("sim.hierarchy", || {
        for op in &ops {
            hierarchy.access_op(op.addr, op.write);
        }
    });
    let hstats = hierarchy.hierarchy_stats();
    *counts.accesses.entry("sim.hierarchy").or_default() += hstats.accesses;
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

/// Times every measurement the inference makes on the virtual CPU.
struct TimedOracle<'t, O> {
    inner: O,
    tr: &'t Tracer,
    measurements: u64,
    accesses: u64,
}

impl<O: CacheOracle> CacheOracle for TimedOracle<'_, O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        self.measurements += 1;
        self.accesses += (warmup.len() + probe.len()) as u64;
        let inner = &mut self.inner;
        self.tr.time("hw.oracle", || inner.measure(warmup, probe))
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        self.measurements += 1;
        self.accesses += (warmup.len() + probe.len()) as u64;
        let inner = &mut self.inner;
        self.tr
            .time("hw.oracle", || inner.try_measure(warmup, probe))
    }
}

/// The span name of an inference engine's campaign.
pub fn infer_span(engine: &str) -> &'static str {
    match engine {
        "automata" => "infer.automata",
        "auto" => "infer.auto",
        _ => "infer.permutation",
    }
}

fn infer(tr: &Tracer, req: &InferRequest, counts: &mut Counts) -> Json {
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
    let mut oracle = TimedOracle {
        inner: LevelOracle::new(&mut cpu, level),
        tr,
        measurements: 0,
        accesses: 0,
    };
    let geometry = tr.time("infer.geometry", || infer_geometry(&mut oracle, &config));
    let geometry = match geometry {
        Ok(g) => g,
        Err(e) => {
            counts.oracle_measurements += oracle.measurements;
            counts.oracle_accesses += oracle.accesses;
            counts.refusals += 1;
            return error_body("infer", format!("geometry inference failed: {e}"));
        }
    };
    let report = tr.time(infer_span(&req.engine), || {
        engine.infer(&mut oracle, &InferenceRequest::new(geometry, config))
    });
    counts.oracle_measurements += oracle.measurements;
    counts.oracle_accesses += oracle.accesses;
    counts.retries += report.timeouts + report.dropped;
    if !report.is_confident(req.min_confidence) {
        counts.refusals += 1;
    }

    let mut fields = vec![
        ("type", Json::from("infer")),
        ("ok", Json::from(report.outcome.is_ok())),
        ("degraded", Json::from(report.degraded)),
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
