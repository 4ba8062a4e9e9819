//! `sim_cold`: distinct `simulate` and `simulate_hierarchy` requests
//! over HTTP, so every request misses the result cache.
//!
//! Why: this is the cold serving path. Trace generation
//! (`workloads::suite` builds all eleven traces to simulate one) is most
//! of each request today and the engines a few percent, so a trace fix
//! shows here first and an engine fix after it.

use crate::load::{closed_loop, repeated_setup, start_server, Exchange, SETUPS};
use crate::replay::Counts;
use crate::util::{jobs, mix, Metrics};
use crate::{Outcome, Served};
use cachekit_policies::kernel::KernelCache;
use cachekit_policies::PolicyKind;
use cachekit_serve::Json;
use cachekit_sim::{default_latencies, Cache, CacheConfig, Containment, Hierarchy, LevelSpec};
use cachekit_trace::{io, workloads};
use std::collections::BTreeMap;
use std::time::Instant;

const KIB: u64 = 1024;
const LINE: u64 = 64;
const WRITES: f64 = 0.2;
const MEMORY_LATENCY: u64 = 200;

/// Seconds of `--seconds` one round accounts for: about the wall time a
/// round took on a 2-core machine when the round was composed.
pub const ROUND_S: f64 = 8.0;

/// One request of a round, before the round's seeds are drawn.
#[derive(Debug, Clone)]
pub enum Spec {
    Flat {
        policy: PolicyKind,
        capacity: u64,
        assoc: usize,
        workload: &'static str,
        writes: f64,
    },
    Hier {
        levels: Vec<(PolicyKind, u64, usize)>,
        containment: Containment,
        workload: &'static str,
    },
}

impl Spec {
    fn outer_capacity(&self) -> u64 {
        match self {
            Spec::Flat { capacity, .. } => *capacity,
            Spec::Hier { levels, .. } => levels.last().expect("levels").1,
        }
    }

    /// Whether the request runs on a monomorphized batch kernel.
    fn kernel_pair(&self) -> bool {
        match self {
            Spec::Flat {
                policy,
                assoc,
                writes,
                ..
            } => *writes == 0.0 && cachekit_policies::kernel::kernel_available(*policy, *assoc),
            Spec::Hier { .. } => false,
        }
    }

    fn body(&self, seed: u64) -> String {
        match self {
            Spec::Flat {
                policy,
                capacity,
                assoc,
                workload,
                writes,
            } => format!(
                r#"{{"type":"simulate","policy":"{}","capacity":{capacity},"assoc":{assoc},"line":{LINE},"workload":"{workload}","writes":{writes},"seed":{seed}}}"#,
                policy.label()
            ),
            Spec::Hier {
                levels,
                containment,
                workload,
            } => {
                let levels: Vec<String> = levels
                    .iter()
                    .map(|(p, c, a)| {
                        format!(r#"{{"policy":"{}","capacity":{c},"assoc":{a}}}"#, p.label())
                    })
                    .collect();
                format!(
                    r#"{{"type":"simulate_hierarchy","levels":[{}],"containment":"{}","line":{LINE},"workload":"{workload}","writes":{WRITES},"seed":{seed},"memory_latency":{MEMORY_LATENCY}}}"#,
                    levels.join(","),
                    containment.label()
                )
            }
        }
    }
}

fn flat(
    policy: PolicyKind,
    capacity_kib: u64,
    assoc: usize,
    workload: &'static str,
    writes: f64,
) -> Spec {
    Spec::Flat {
        policy,
        capacity: capacity_kib * KIB,
        assoc,
        workload,
        writes,
    }
}

/// The fixed composition of a round. Requests of one capacity share one
/// `(capacity, line, seed)` trace suite, the way a client comparing
/// policies on a workload would. Capacities run from L1 size (32 KiB) to
/// 2 MiB and every suite workload appears. Requests at the server's
/// 16 MiB cap are left out only because the `matmul` trace alone would
/// need about 40 GB there.
///
/// The order is fixed so two closed-loop clients split a round the same
/// way whatever the seed. The 2 MiB request goes first and the 1 MiB
/// request last: the other client works through about seven seconds of
/// smaller requests before it reaches the 1 MiB one, so the two large
/// suites never overlap and the round's peak memory does not depend on
/// timing. The counts put the figures inside groups of similar requests
/// rather than in a gap between two groups: over two rounds (62
/// samples) the median falls in the middle of the eight 64 KiB
/// requests, with twelve 32 KiB requests below them, and the tail
/// rule's eleventh-largest sample in the middle of the seven 256 KiB
/// requests, with only the 1 MiB and 2 MiB requests above them.
pub fn round_specs() -> Vec<Spec> {
    use PolicyKind::*;
    let (lru, fifo, plru, nru) = (Lru, Fifo, TreePlru, Nru);
    let hier = |containment, levels: Vec<(PolicyKind, u64, usize)>, workload| Spec::Hier {
        levels: levels
            .into_iter()
            .map(|(p, c, a)| (p, c * KIB, a))
            .collect(),
        containment,
        workload,
    };
    vec![
        flat(lru, 2048, 16, "zipf_hot", 0.0),
        flat(lru, 32, 4, "seq_stream", 0.0),
        flat(fifo, 32, 4, "fit_loop", 0.0),
        flat(plru, 32, 4, "thrash_loop", 0.0),
        flat(nru, 32, 4, "matmul", 0.0),
        flat(lru, 32, 8, "zipf_hot", 0.0),
        flat(fifo, 32, 8, "stack_geo", 0.0),
        flat(plru, 32, 8, "gc_trace", 0.0),
        flat(nru, 32, 8, "col_walk", 0.0),
        flat(Bip { throttle: 32 }, 32, 8, "ptr_chase", 0.0),
        flat(Random { seed: 0x5eed }, 32, 16, "fit_loop", 0.1),
        flat(Qlru { insert: 1 }, 32, 16, "stack_geo", 0.0),
        flat(Slru { protected: 2 }, 32, 8, "seq_stream", WRITES),
        flat(Srrip { bits: 2 }, 64, 8, "zipf_hot", 0.0),
        flat(Clock, 64, 8, "gc_trace", WRITES),
        flat(BitPlru, 64, 8, "phase_switch", 0.0),
        flat(Lip, 64, 8, "scan_plus_hot", WRITES),
        flat(lru, 64, 16, "col_walk", 0.0),
        flat(fifo, 64, 16, "ptr_chase", 0.0),
        flat(plru, 64, 16, "zipf_hot", 0.0),
        flat(nru, 64, 16, "thrash_loop", 0.0),
        flat(lru, 128, 16, "zipf_hot", WRITES),
        flat(plru, 128, 8, "matmul", WRITES),
        hier(
            Containment::Inclusive,
            vec![(plru, 32, 8), (Qlru { insert: 1 }, 128, 8), (lru, 256, 16)],
            "zipf_hot",
        ),
        hier(
            Containment::Exclusive,
            vec![(plru, 32, 8), (Srrip { bits: 2 }, 256, 16)],
            "phase_switch",
        ),
        hier(
            Containment::Nine,
            vec![(plru, 32, 8), (Qlru { insert: 1 }, 128, 8), (plru, 256, 16)],
            "col_walk",
        ),
        flat(lru, 256, 16, "gc_trace", 0.0),
        flat(fifo, 256, 16, "thrash_loop", 0.0),
        flat(plru, 256, 16, "stack_geo", 0.0),
        flat(nru, 256, 16, "scan_plus_hot", 0.0),
        flat(plru, 1024, 8, "ptr_chase", 0.0),
    ]
}

/// A generated request: its spec, trace seed and body.
#[derive(Debug, Clone)]
pub struct Generated {
    pub spec: Spec,
    pub seed: u64,
    pub body: String,
}

/// Round `round` of the run seeded `seed`: one trace seed per capacity,
/// fresh in every round so no request repeats.
pub fn generate(seed: u64, round: usize) -> Vec<Generated> {
    round_specs()
        .into_iter()
        .map(|spec| {
            let trace_seed =
                mix(seed, (round as u64) << 32 | spec.outer_capacity()) % 1_000_000_007;
            let body = spec.body(trace_seed);
            Generated {
                spec,
                seed: trace_seed,
                body,
            }
        })
        .collect()
}

/// One untimed warm-up request per distinct (policy, engine, geometry)
/// of a round, on a small trace, so process-wide memos (compiled tables,
/// lazy-table states, tree shapes) are filled before timing starts.
fn warmups() -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    for spec in round_specs() {
        let small = match &spec {
            Spec::Flat {
                policy,
                assoc,
                writes,
                workload,
                ..
            } => Spec::Flat {
                policy: *policy,
                capacity: 16 * LINE * *assoc as u64,
                assoc: *assoc,
                workload,
                writes: *writes,
            },
            Spec::Hier {
                levels,
                containment,
                workload,
            } => Spec::Hier {
                levels: levels
                    .iter()
                    .enumerate()
                    .map(|(i, (p, _, a))| (*p, (16 * LINE * *a as u64) << i, *a))
                    .collect(),
                containment: *containment,
                workload,
            },
        };
        seen.insert(small.body(1));
    }
    seen.into_iter().collect()
}

/// The untimed reference: every response's statistics must equal a
/// per-access enum-engine replay of the same operations. Returns one
/// error message per failed check, by request index.
fn check(requests: &[Generated], exchanges: &[Exchange]) -> Vec<Option<String>> {
    // Group by (capacity, seed) so each suite is generated once.
    let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, r) in requests.iter().enumerate() {
        groups
            .entry((r.spec.outer_capacity(), r.seed))
            .or_default()
            .push(i);
    }
    let groups: Vec<((u64, u64), Vec<usize>)> = groups.into_iter().collect();
    let verdicts = cachekit_sim::par_map(&groups, jobs(), |((capacity, seed), members)| {
        let suite = workloads::suite(*capacity, LINE, *seed);
        members
            .iter()
            .map(|&i| (i, check_one(&requests[i], &exchanges[i], &suite)))
            .collect::<Vec<_>>()
    });
    let mut out = vec![None; requests.len()];
    for (i, verdict) in verdicts.into_iter().flatten() {
        out[i] = verdict.err();
    }
    out
}

fn check_one(req: &Generated, ex: &Exchange, suite: &[workloads::Workload]) -> Result<(), String> {
    let resp = match &ex.response {
        Ok(r) => r,
        Err(e) => return Err(format!("transport: {e}")),
    };
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    if resp.cache != "miss" {
        return Err(format!("X-Cache: {} (expected miss)", resp.cache));
    }
    let body = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF-8 body".to_owned())?;
    let json = Json::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {body}"));
    }
    let (workload, writes) = match &req.spec {
        Spec::Flat {
            workload, writes, ..
        } => (*workload, *writes),
        Spec::Hier { workload, .. } => (*workload, WRITES),
    };
    let trace = &suite
        .iter()
        .find(|w| w.name == workload)
        .ok_or("workload missing from the suite")?
        .trace;
    let ops = io::with_writes(trace, writes, req.seed);
    match &req.spec {
        Spec::Flat {
            policy,
            capacity,
            assoc,
            ..
        } => {
            let config = CacheConfig::new(*capacity, *assoc, LINE).expect("valid geometry");
            let mut cache = Cache::new(config, *policy);
            for op in &ops {
                cache.access_op(op.addr, op.write);
            }
            let s = cache.stats();
            expect_stats(
                &json,
                s.accesses,
                s.hits,
                s.misses,
                s.evictions,
                s.writebacks,
            )?;
            expect_u64(&json, "writes", s.writes)?;
            expect_f64(&json, "miss_ratio", s.miss_ratio())
        }
        Spec::Hier {
            levels,
            containment,
            ..
        } => {
            let specs = levels
                .iter()
                .map(|&(p, c, a)| {
                    LevelSpec::new(CacheConfig::new(c, a, LINE).expect("valid geometry"), p)
                })
                .collect();
            let mut h = Hierarchy::new(specs)
                .with_containment(*containment)
                .with_latencies(default_latencies(levels.len()), MEMORY_LATENCY);
            for op in &ops {
                h.access_op(op.addr, op.write);
            }
            let hs = h.hierarchy_stats();
            expect_u64(&json, "accesses", hs.accesses)?;
            expect_u64(&json, "memory_fetches", hs.memory_fetches)?;
            expect_u64(&json, "back_invalidations", hs.back_invalidations)?;
            expect_u64(&json, "victim_fills", hs.victim_fills)?;
            expect_u64(&json, "memory_writebacks", hs.memory_writebacks)?;
            expect_f64(&json, "amat_cycles", h.amat())?;
            let body_levels = json
                .get("levels")
                .and_then(Json::as_array)
                .ok_or("no levels array")?;
            if body_levels.len() != levels.len() {
                return Err("level count differs".into());
            }
            for (level, s) in body_levels.iter().zip(h.stats()) {
                expect_stats(
                    level,
                    s.accesses,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.writebacks,
                )?;
            }
            Ok(())
        }
    }
}

fn expect_u64(json: &Json, field: &str, want: u64) -> Result<(), String> {
    match json.get(field).and_then(Json::as_u64) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{field}: served {got:?}, reference {want}")),
    }
}

fn expect_f64(json: &Json, field: &str, want: f64) -> Result<(), String> {
    match json.get(field).and_then(Json::as_f64) {
        Some(got) if (got - want).abs() <= 1e-9 * want.abs().max(1.0) => Ok(()),
        got => Err(format!("{field}: served {got:?}, reference {want}")),
    }
}

fn expect_stats(json: &Json, a: u64, h: u64, m: u64, e: u64, wb: u64) -> Result<(), String> {
    expect_u64(json, "accesses", a)?;
    expect_u64(json, "hits", h)?;
    expect_u64(json, "misses", m)?;
    expect_u64(json, "evictions", e)?;
    expect_u64(json, "writebacks", wb)
}

/// The untraced run: set up, send every round, check every response.
pub fn run(process_start: Instant, seed: u64, rounds: usize) -> (Outcome, Served) {
    let warm = warmups();
    let (server, setup_times) = repeated_setup(
        process_start,
        SETUPS,
        || {
            let server = start_server();
            let (ex, _) = closed_loop(server.addr(), jobs(), std::slice::from_ref(&warm));
            let bad = ex[0].iter().filter(|e| e.ok().is_none()).count();
            assert_eq!(bad, 0, "warm-up requests must succeed");
            server
        },
        |server| {
            server.shutdown();
        },
    );
    let generated: Vec<Vec<Generated>> = (0..rounds).map(|r| generate(seed, r)).collect();
    let bodies: Vec<Vec<String>> = generated
        .iter()
        .map(|g| g.iter().map(|r| r.body.clone()).collect())
        .collect();
    let (exchanges, wall_s) = closed_loop(server.addr(), jobs(), &bodies);
    let peak_rss_mb = crate::util::peak_rss_mb();
    server.shutdown();

    let mut failures = Vec::new();
    for (g, ex) in generated.iter().zip(&exchanges) {
        failures.extend(check(g, ex));
    }
    let all: Vec<&Exchange> = exchanges.iter().flatten().collect();
    let accesses: f64 = all
        .iter()
        .filter_map(|e| e.ok())
        .filter_map(|r| Json::parse(std::str::from_utf8(&r.body).ok()?).ok())
        .filter_map(|j| j.get("accesses").and_then(Json::as_f64))
        .sum();
    let mut metrics = Metrics::default();
    let tail_note = crate::serve_metrics(&mut metrics, &setup_times, &all, &failures, wall_s);
    metrics.put("sim_maccess_per_s", accesses / wall_s / 1e6, "Maccess/s");
    // A simulate answer is one measurement: one trace run on one cache.
    metrics.put("measurements_per_verdict", 1.0, "count");
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    let specs = round_specs();
    let traces: std::collections::BTreeSet<u64> = specs.iter().map(Spec::outer_capacity).collect();
    let shape = format!(
        "rounds={rounds} requests/round={} requests per (capacity, line, seed) trace={:.2} \
         kernel-pair requests/round={}",
        specs.len(),
        specs.len() as f64 / traces.len() as f64,
        specs.iter().filter(|s| s.kernel_pair()).count()
    );
    let outcome = Outcome::new(all.len(), &failures, metrics)
        .note(crate::load::describe_config(
            &crate::load::serve_config(),
            jobs(),
        ))
        .note(tail_note)
        .note(shape);
    let served = Served {
        wires: bodies.into_iter().next().unwrap_or_default(),
        exchanges: exchanges.into_iter().next().unwrap_or_default(),
        cold: Vec::new(),
    };
    (outcome, served)
}

/// `KernelCache::access_many` over each kernel-pair request's (set, tag)
/// stream: the inner-loop ceiling the request could reach. Returns
/// (accesses, best-of-three seconds) summed over requests, and whether
/// every ceiling run agreed with the served hit count.
pub fn kernel_ceiling(counts: &Counts) -> (u64, f64, bool) {
    let mut accesses = 0u64;
    let mut seconds = 0.0;
    let mut agree = true;
    for stream in &counts.kernel_streams {
        let config = stream.config;
        let pairs: Vec<(u32, u64)> = stream
            .addrs
            .iter()
            .map(|&a| (config.set_index(a) as u32, config.tag(a)))
            .collect();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut kc = KernelCache::for_kind(
                stream.policy,
                config.associativity(),
                config.num_sets() as usize,
            )
            .expect("kernel pair");
            let t = Instant::now();
            let (hits, _) = kc.access_many(std::hint::black_box(&pairs));
            best = best.min(t.elapsed().as_secs_f64());
            agree &= hits == stream.hits;
        }
        accesses += pairs.len() as u64;
        seconds += best;
    }
    (accesses, seconds, agree)
}
