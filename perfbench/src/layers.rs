//! The traced run: per-layer numbers from a replay of the untraced
//! run's generated inputs, checked against that run's outputs.

use crate::eval_sweep;
use crate::hits::DEPTH;
use crate::replay::{replay_wire, Counts, Replayed};
use crate::span::{Breakdown, Span, Tracer, NO_PARENT};
use crate::util::{median, Metrics};
use crate::{sim_cold, Outcome, Served, Untraced};
use cachekit_serve::http::RequestDecoder;
use cachekit_serve::{Request, ResultCache};
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans that together make up a request's server-side time, the part
/// `X-Service-Us` covers (decode and encode happen around it).
const SERVICE_SPANS: [&str; 6] = [
    "serve.proto.parse",
    "serve.proto.key",
    "serve.cache.get",
    "serve.exec",
    "serve.serialize",
    "serve.cache.insert",
];

/// Replay a served run's first round in process. Cold workloads replay
/// each request on its own; cache hits replay pipelined batches against
/// a cache holding the cold bodies.
fn replay_served(tr: &Tracer, served: &Served) -> (Vec<Replayed>, Counts) {
    let cache = ResultCache::new(4096);
    for (spelling, body) in &served.cold {
        let key = Request::parse(spelling)
            .expect("key spellings are valid")
            .cache_key();
        cache.insert(key, body.clone());
    }
    let batch = if served.cold.is_empty() { 1 } else { DEPTH };
    let mut counts = Counts::default();
    let mut out = Vec::new();
    let root = tr.enter("bench.replay");
    for (b, chunk) in served.wires.chunks(batch).enumerate() {
        let mut decoder = RequestDecoder::new();
        let wire: Vec<u8> = chunk
            .iter()
            .flat_map(|body| crate::client::post_query(body))
            .collect();
        out.extend(replay_wire(
            tr,
            &mut decoder,
            &cache,
            &wire,
            (b * batch) as u32,
            &mut counts,
        ));
    }
    tr.exit(root);
    (out, counts)
}

/// Per-layer metrics, each with a value on every workload (0 where the
/// workload does not use the layer).
fn layer_metrics(b: &Breakdown, c: &Counts, m: &mut Metrics) {
    let per = |name: &str, total: f64| -> f64 {
        let n = b.count(name);
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    };
    let requests = c.requests.max(1) as f64;
    m.put(
        "serve.http.decode_us",
        b.total_ms("serve.http.decode") * 1e3 / requests,
        "us",
    );
    m.put(
        "serve.http.encode_us",
        b.mean("serve.http.encode", 1e3),
        "us",
    );
    m.put(
        "serve.proto.parse_us",
        b.mean("serve.proto.parse", 1e3),
        "us",
    );
    m.put("serve.proto.key_us", b.mean("serve.proto.key", 1e3), "us");
    m.put("serve.cache.get_us", b.mean("serve.cache.get", 1e3), "us");
    m.put(
        "serve.cache.insert_us",
        b.mean("serve.cache.insert", 1e3),
        "us",
    );
    m.put(
        "serve.cache.hit_ratio",
        c.cache_hits as f64 / c.cache_gets.max(1) as f64,
        "ratio",
    );
    m.put("serve.exec_ms", b.mean("serve.exec", 1e6), "ms");
    m.put("serve.serialize_us", b.mean("serve.serialize", 1e3), "us");

    m.put("trace.suite_ms", b.mean("trace.suite", 1e6), "ms");
    m.put(
        "trace.with_writes_ms",
        b.mean("trace.with_writes", 1e6),
        "ms",
    );
    m.put(
        "trace.generated_maddr",
        per("trace.suite", c.generated_addrs as f64) / 1e6,
        "Maddr",
    );
    m.put(
        "trace.used_ratio",
        c.used_addrs as f64 / c.generated_addrs.max(1) as f64,
        "ratio",
    );

    m.put("sim.build_ms", b.mean("sim.build", 1e6), "ms");
    let engines = [
        "sim.kernel",
        "sim.table",
        "sim.lazy_table",
        "sim.enum",
        "sim.hierarchy",
    ];
    for engine in engines {
        let accesses = c.accesses.get(engine).copied().unwrap_or(0);
        let secs = b.total_ms(engine) / 1e3;
        let rate = if secs > 0.0 {
            accesses as f64 / secs / 1e6
        } else {
            0.0
        };
        m.put(&format!("{engine}.maccess_per_s"), rate, "Maccess/s");
        m.put(&format!("{engine}.accesses"), accesses as f64, "count");
    }
    let all: u64 = engines.iter().filter_map(|e| c.accesses.get(e)).sum();
    m.put(
        "sim.kernel_share",
        c.accesses.get("sim.kernel").copied().unwrap_or(0) as f64 / all.max(1) as f64,
        "ratio",
    );

    m.put("infer.geometry_ms", b.mean("infer.geometry", 1e6), "ms");
    m.put(
        "infer.permutation_ms",
        b.mean("infer.permutation", 1e6),
        "ms",
    );
    let automata_ms = b.mean("infer.automata", 1e6);
    m.put("infer.automata_ms", automata_ms, "ms");
    m.put("infer.retries", c.retries as f64, "count");
    m.put("infer.refusals", c.refusals as f64, "count");
    let infers = (b.count("infer.geometry")).max(1) as f64;
    m.put(
        "hw.oracle.measurements",
        c.oracle_measurements as f64 / infers,
        "count",
    );
    m.put(
        "hw.oracle.maccess",
        c.oracle_accesses as f64 / infers / 1e6,
        "Maccess",
    );
    let oracle_s = b.total_ms("hw.oracle") / 1e3;
    let exec_s = b.total_ms("serve.exec") / 1e3;
    m.put(
        "hw.oracle.busy_share",
        if exec_s > 0.0 { oracle_s / exec_s } else { 0.0 },
        "ratio",
    );
    m.put(
        "hw.oracle.maccess_per_s",
        if oracle_s > 0.0 {
            c.oracle_accesses as f64 / oracle_s / 1e6
        } else {
            0.0
        },
        "Maccess/s",
    );
}

/// The self-time table: every layer's wall-equivalent self time, the
/// residual (time in the replay loop itself) and their sum.
fn self_time_notes(b: &Breakdown) -> Vec<String> {
    let wall = b.wall_ns.max(1.0);
    let mut rows: Vec<(&str, f64)> = b.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut notes =
        vec!["layer self time (wall-equivalent; bench.replay is the residual):".to_owned()];
    for (name, ns) in rows {
        notes.push(format!(
            "  {name:<20} {:>12.3} ms {:>6.2}%  ({} spans)",
            ns / 1e6,
            100.0 * ns / wall,
            b.count(name)
        ));
    }
    notes.push(format!(
        "  sum of self times {:.3} ms = traced wall {:.3} ms",
        b.self_sum_ns() / 1e6,
        wall / 1e6
    ));
    notes
}

/// Medians of the two waits a request saw besides the replayed layer
/// time: transport (client latency minus `X-Service-Us`) and queueing
/// (`X-Service-Us` minus the request's replayed service spans).
fn waits(spans: &[Span], served: &Served) -> (f64, f64) {
    let mut service_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        let top = s.parent != NO_PARENT && spans[s.parent as usize].parent == NO_PARENT;
        if top && SERVICE_SPANS.contains(&s.name) {
            *service_ms.entry(s.request).or_default() += s.dur() as f64 / 1e6;
        }
    }
    let mut transport = Vec::new();
    let mut queue = Vec::new();
    for (i, ex) in served.exchanges.iter().enumerate() {
        if let Some(r) = ex.ok() {
            let service = r.service_us as f64 / 1e3;
            transport.push(ex.latency_ms - service);
            queue.push(service - service_ms.get(&(i as u32)).copied().unwrap_or(0.0));
        }
    }
    (median(&transport), median(&queue))
}

pub fn traced(run: Untraced, rps_off: Option<f64>) -> Outcome {
    let (outcome, mut m, notes) = match run {
        Untraced::Served(outcome, served) => traced_served(outcome, &served),
        Untraced::Sweep(outcome, run) => traced_sweep(outcome, &run),
    };
    let rps_on = outcome.metrics.get("rps").unwrap_or(0.0);
    let overhead = match rps_off {
        Some(off) if off > 0.0 => 100.0 * (off - rps_on) / off,
        _ => 0.0,
    };
    m.put("obs.overhead_pct", overhead, "%");
    let mut out = Outcome {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: m,
        notes: outcome.notes,
    };
    out.notes.extend(notes);
    out.notes.push(format!(
        "obs.overhead_pct: rps {rps_on:.3} with metrics on vs {:.3} with CACHEKIT_METRICS=0",
        rps_off.unwrap_or(0.0)
    ));
    out
}

fn traced_served(mut outcome: Outcome, served: &Served) -> (Outcome, Metrics, Vec<String>) {
    let quiet = Tracer::new(Instant::now(), false);
    let t = Instant::now();
    replay_served(&quiet, served);
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    let tr = Tracer::new(Instant::now(), true);
    let (replayed, counts) = replay_served(&tr, served);
    let spans = tr.spans();
    let b = Breakdown::of(&spans);

    // The replay must reproduce the served bytes.
    let mut notes = Vec::new();
    for (i, (rep, ex)) in replayed.iter().zip(&served.exchanges).enumerate() {
        let same = ex
            .ok()
            .is_some_and(|r| r.body == rep.body.as_bytes() && r.cache == rep.cache);
        if !same {
            outcome.failed += 1;
            notes.push(format!(
                "FAILED replay of request {i}: body or X-Cache differs from the served one"
            ));
        }
        outcome.attempted += 1;
    }
    if replayed.len() != served.exchanges.len() {
        outcome.failed += 1;
        notes.push("FAILED replay: request count differs".to_owned());
    }

    let mut m = Metrics::default();
    layer_metrics(&b, &counts, &mut m);
    let (transport, queue) = waits(&spans, served);
    m.put("serve.wait.transport_ms", transport, "ms");
    m.put("serve.wait.queue_ms", queue, "ms");
    let traces: std::collections::BTreeSet<(u64, u64)> = served
        .wires
        .iter()
        .filter_map(|w| {
            let json = cachekit_serve::Json::parse(w).ok()?;
            let capacity = json
                .get("capacity")
                .and_then(cachekit_serve::Json::as_u64)
                .or_else(|| {
                    json.get("levels")?
                        .as_array()?
                        .last()?
                        .get("capacity")?
                        .as_u64()
                })?;
            Some((capacity, json.get("seed")?.as_u64()?))
        })
        .collect();
    let sims = b.count("trace.suite");
    m.put(
        "trace.requests_per_trace",
        if traces.is_empty() {
            0.0
        } else {
            sims as f64 / traces.len() as f64
        },
        "count",
    );

    // The same-run ceiling: kernel-pair requests' (set, tag) streams on
    // KernelCache directly.
    let (ceiling_accesses, ceiling_s, agree) = sim_cold::kernel_ceiling(&counts);
    if !agree {
        outcome.failed += 1;
        notes.push(
            "FAILED kernel ceiling: KernelCache hit counts differ from the served ones".into(),
        );
    }
    let mut path_s = 0.0;
    for stream in &counts.kernel_streams {
        for s in &spans {
            if s.request == stream.request && matches!(s.name, "serve.exec" | "serve.serialize") {
                path_s += s.dur() as f64 / 1e9;
            }
        }
    }
    m.put(
        "sim.kernel_ceiling_maccess_per_s",
        if ceiling_s > 0.0 {
            ceiling_accesses as f64 / ceiling_s / 1e6
        } else {
            0.0
        },
        "Maccess/s",
    );
    m.put(
        "sim.kernel_efficiency",
        if path_s > 0.0 {
            ceiling_s / path_s
        } else {
            0.0
        },
        "ratio",
    );
    m.put("sim.parallel.busy_ratio", 0.0, "ratio");
    m.put("sim.parallel.slowest_cell_share", 0.0, "ratio");
    finish(&b, untraced_ms, &mut m, &mut notes);
    (outcome, m, notes)
}

fn traced_sweep(mut outcome: Outcome, run: &eval_sweep::Run) -> (Outcome, Metrics, Vec<String>) {
    let quiet = Tracer::new(Instant::now(), false);
    let (_, untraced_s) = eval_sweep::rounds(&quiet, run.seed, 1);
    let tr = Tracer::new(Instant::now(), true);
    let root = tr.enter("bench.replay");
    let (results, _) = eval_sweep::rounds(&tr, run.seed, 1);
    tr.exit(root);
    let spans = tr.spans();
    let b = Breakdown::of(&spans);
    let mut notes = Vec::new();
    let result = &results[0];
    outcome.attempted += 1;
    if run.digests.first() != Some(&result.digest) {
        outcome.failed += 1;
        notes.push("FAILED replay: round digest differs from the untraced run".to_owned());
    }

    let mut counts = Counts::default();
    for (_, n, kind) in &result.cells {
        let engine = if *kind == "flat" {
            "sim.enum"
        } else {
            "sim.hierarchy"
        };
        *counts.accesses.entry(engine).or_default() += n;
        counts.used_addrs += n;
    }
    counts.generated_addrs = result.generated;
    let mut m = Metrics::default();
    layer_metrics(&b, &counts, &mut m);
    m.put("serve.wait.transport_ms", 0.0, "ms");
    m.put("serve.wait.queue_ms", 0.0, "ms");
    m.put(
        "trace.requests_per_trace",
        result.cells.len() as f64 / b.count("trace.suite").max(1) as f64,
        "count",
    );
    m.put("sim.kernel_ceiling_maccess_per_s", 0.0, "Maccess/s");
    m.put("sim.kernel_efficiency", 0.0, "ratio");

    // Parallel regions in order: the flat sweep, then the hierarchy sweep.
    let regions: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sim.parallel")
        .map(|s| s.dur() as f64 / 1e9)
        .collect();
    let busy: f64 = result.cells.iter().map(|c| c.0).sum();
    let wall: f64 = regions.iter().sum();
    m.put(
        "sim.parallel.busy_ratio",
        busy / (crate::util::jobs() as f64 * wall.max(1e-9)),
        "ratio",
    );
    let mut slowest: f64 = 0.0;
    for (region, kind) in regions.iter().zip(["flat", "hierarchy"]) {
        let max = result
            .cells
            .iter()
            .filter(|c| c.2 == kind)
            .map(|c| c.0)
            .fold(0.0, f64::max);
        slowest = slowest.max(max / region.max(1e-9));
    }
    m.put("sim.parallel.slowest_cell_share", slowest, "ratio");
    finish(&b, untraced_s * 1e3, &mut m, &mut notes);
    (outcome, m, notes)
}

/// Accounting shared by every workload: traced wall, residual, tracing
/// overhead, and the self-time table.
fn finish(b: &Breakdown, untraced_ms: f64, m: &mut Metrics, notes: &mut Vec<String>) {
    let wall_ms = b.wall_ns / 1e6;
    m.put("bench.traced_wall_ms", wall_ms, "ms");
    m.put(
        "bench.residual_ms",
        b.self_ns.get("bench.replay").copied().unwrap_or(0.0) / 1e6,
        "ms",
    );
    m.put("bench.self_sum_ms", b.self_sum_ns() / 1e6, "ms");
    m.put(
        "bench.tracing_overhead_pct",
        100.0 * (wall_ms - untraced_ms) / untraced_ms.max(1e-9),
        "%",
    );
    notes.push(format!(
        "traced replay {wall_ms:.3} ms vs the same replay untraced {untraced_ms:.3} ms"
    ));
    notes.extend(self_time_notes(b));
}
