//! `hits_pipelined`: a fixed key set spanning all seven request types,
//! populated during set-up, then requested as closed-loop HTTP/1.1
//! pipelining, each key in equivalent spellings (reordered fields,
//! aliases, elided defaults), so every timed request is a result-cache
//! hit.
//!
//! Why: HTTP decode, parse/canonicalize, result-cache lookup, response
//! encode and the reactor are the whole cost and the engines do nothing.

use crate::client::{post_query, Conn, Response};
use crate::load::{closed_loop, repeated_setup, start_server_with, Exchange, SETUPS};
use crate::util::{median, mix, tail, Metrics};
use crate::{Outcome, Served, MISSING_MS};
use cachekit_serve::Json;
use std::time::Instant;

/// Requests in flight per connection.
pub const DEPTH: usize = 64;
/// Client connections, and reactors serving them: one each, so the
/// busy threads never outnumber a 2-core machine's cores. With two of
/// each, throughput moved by a fifth from run to run with how the
/// scheduler placed the four threads, and measured the scheduler more
/// than the server.
pub const CLIENTS: usize = 1;
/// Requests of the first connection kept for the traced replay.
pub const REPLAY_REQUESTS: usize = 20_000;
/// Every this-many-th response's latency is sampled (failures always
/// are). A run answers about a million hits; the tail rule over all of
/// them picks p99.999, which measures only the worst host stall.
pub const SAMPLE_EVERY: usize = 256;
/// The timed region is cut into this many slices, each over a fresh
/// connection; the figures are medians over slices.
pub const SLICES: usize = 10;

fn config() -> cachekit_serve::ServeConfig {
    cachekit_serve::ServeConfig {
        reactors: CLIENTS,
        ..crate::load::serve_config()
    }
}

/// The key set of a run: three equivalent spellings per key, the first
/// with every field spelled out. Seeds inside the keys come from the run
/// seed.
pub fn keys(seed: u64) -> Vec<[String; 3]> {
    let s = |i: u64| 1000 + mix(seed, i) % 1_000_000_007;
    let mut keys = Vec::new();
    for (i, (policy, alias, workload)) in [
        ("LRU", "lru", "zipf_hot"),
        ("PLRU", "TreePLRU", "fit_loop"),
        ("SRRIP-2", "srrip", "thrash_loop"),
    ]
    .into_iter()
    .enumerate()
    {
        let sd = s(i as u64);
        keys.push([
            format!(r#"{{"type":"simulate","policy":"{policy}","capacity":32768,"assoc":8,"line":64,"workload":"{workload}","writes":0,"seed":{sd}}}"#),
            format!(r#"{{"seed":{sd},"workload":"{workload}","assoc":8,"capacity":32768,"policy":"{policy}","type":"simulate"}}"#),
            format!(r#"{{"policy":"{alias}","type":"simulate","workload":"{workload}","capacity":32768,"seed":{sd},"assoc":8,"writes":0.0}}"#),
        ]);
    }
    for (i, (containment, alias, workload)) in [
        ("inclusive", "INCLUSIVE", "scan_plus_hot"),
        ("nine", "non-inclusive", "stack_geo"),
    ]
    .into_iter()
    .enumerate()
    {
        let sd = s(10 + i as u64);
        let latencies = format!("{:?}", cachekit_sim::default_latencies(2)).replace(' ', "");
        let levels = r#"[{"policy":"PLRU","capacity":8192,"assoc":4},{"policy":"LRU","capacity":65536,"assoc":8}]"#;
        let aliased = r#"[{"assoc":4,"capacity":8192,"policy":"treeplru"},{"capacity":65536,"policy":"lru","assoc":8}]"#;
        keys.push([
            format!(r#"{{"type":"simulate_hierarchy","levels":{levels},"containment":"{containment}","line":64,"workload":"{workload}","writes":0.2,"seed":{sd},"latencies":{latencies},"memory_latency":200}}"#),
            format!(r#"{{"seed":{sd},"writes":0.2,"workload":"{workload}","containment":"{containment}","levels":{levels},"type":"simulate_hierarchy"}}"#),
            format!(r#"{{"type":"simulate_hierarchy","containment":"{alias}","levels":{aliased},"writes":0.2,"workload":"{workload}","seed":{sd}}}"#),
        ]);
    }
    for (i, (cpu, level)) in [
        ("atom_d525", "l1"),
        ("mystery_rand", "l1"),
        ("quark_x1000", "l1"),
    ]
    .into_iter()
    .enumerate()
    {
        let sd = s(20 + i as u64);
        let upper = level.to_ascii_uppercase();
        keys.push([
            format!(r#"{{"type":"infer","cpu":"{cpu}","level":"{level}","engine":"permutation","seed":{sd}}}"#),
            format!(r#"{{"seed":{sd},"level":"{upper}","cpu":"{cpu}","type":"infer"}}"#),
            format!(r#"{{"engine":"PERMUTATION","type":"infer","seed":{sd},"cpu":"{cpu}","level":"{level}","budget":null}}"#),
        ]);
    }
    for (policy, alias, assoc) in [
        ("LRU", "lru", 4),
        ("PLRU", "treeplru", 8),
        ("FIFO", "fifo", 8),
    ] {
        keys.push([
            format!(r#"{{"type":"distances","policy":"{policy}","assoc":{assoc}}}"#),
            format!(r#"{{"assoc":{assoc},"policy":"{policy}","type":"distances"}}"#),
            format!(r#"{{"policy":"{alias}","assoc":{assoc},"type":"distances"}}"#),
        ]);
    }
    for (i, capacity) in [16384u64, 32768].into_iter().enumerate() {
        let sd = s(30 + i as u64);
        keys.push([
            format!(r#"{{"type":"workloads","capacity":{capacity},"line":64,"seed":{sd}}}"#),
            format!(r#"{{"seed":{sd},"capacity":{capacity},"type":"workloads"}}"#),
            format!(r#"{{"capacity":{capacity},"type":"workloads","seed":{sd},"line":64}}"#),
        ]);
    }
    for (policy, alias, assoc) in [
        ("LRU", "Lru", 8),
        ("PLRU", "TREEPLRU", 4),
        ("NRU", "nru", 4),
    ] {
        keys.push([
            format!(r#"{{"type":"eviction_set","policy":"{policy}","assoc":{assoc}}}"#),
            format!(r#"{{"assoc":{assoc},"type":"eviction_set","policy":"{policy}"}}"#),
            format!(r#"{{"policy":"{alias}","type":"eviction_set","assoc":{assoc}}}"#),
        ]);
    }
    for (i, (scenario, alias)) in [("hold_resident", "resident"), ("hold_evicted", "EVICTED")]
        .into_iter()
        .enumerate()
    {
        let sd = s(40 + i as u64);
        keys.push([
            format!(r#"{{"type":"attack_score","policy":"LRU","assoc":4,"scenario":"{scenario}","rounds":8,"seed":{sd}}}"#),
            format!(r#"{{"seed":{sd},"rounds":8,"scenario":"{scenario}","assoc":4,"policy":"LRU","type":"attack_score"}}"#),
            format!(r#"{{"policy":"lru","scenario":"{alias}","type":"attack_score","assoc":4,"seed":{sd},"rounds":8}}"#),
        ]);
    }
    keys
}

/// Work one answer reports: the accesses a simulate body simulated, and
/// the measurements an infer body made (any other answer is one
/// measurement).
fn answer_work(body: &str) -> (f64, f64) {
    let Ok(json) = Json::parse(body) else {
        return (0.0, 1.0);
    };
    let accesses = match json.get("type").and_then(Json::as_str) {
        Some("simulate" | "simulate_hierarchy") => {
            json.get("accesses").and_then(Json::as_f64).unwrap_or(0.0)
        }
        _ => 0.0,
    };
    let measurements = json
        .get("measurements_used")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    (accesses, measurements)
}

/// What one client connection saw over the timed region.
#[derive(Debug, Default)]
struct ClientRun {
    latencies: Vec<f64>,
    failures: Vec<String>,
    ok: usize,
    failed: usize,
    accesses: f64,
    measurements: f64,
    kept: Vec<(String, Exchange)>,
}

fn client(
    addr: std::net::SocketAddr,
    spellings: &[(usize, &str, Vec<u8>)],
    cold: &[(f64, f64, String)],
    offset: usize,
    seconds: f64,
    keep: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = Conn::open(addr).ok();
    let started = Instant::now();
    let mut next = offset;
    let mut wire = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        let batch: Vec<&(usize, &str, Vec<u8>)> = (0..DEPTH)
            .map(|i| &spellings[(next + i) % spellings.len()])
            .collect();
        next += DEPTH;
        wire.clear();
        for (_, _, bytes) in &batch {
            wire.extend_from_slice(bytes);
        }
        let sent = Instant::now();
        let mut broken = conn.as_mut().is_none_or(|c| c.send(&wire).is_err());
        for &&(key, body, _) in &batch {
            let response: Result<Response, String> = if broken {
                Err("connection broken".to_owned())
            } else {
                conn.as_mut()
                    .expect("open while not broken")
                    .read()
                    .map_err(|e| e.to_string())
            };
            let latency_ms = crate::util::ms(sent.elapsed());
            let (accesses, measurements, cold_body) = &cold[key];
            let verdict = match &response {
                Err(e) => Err(format!("transport: {e}")),
                Ok(r) if r.status != 200 => Err(format!("status {}", r.status)),
                Ok(r) if r.cache != "hit" => Err(format!("X-Cache: {} (expected hit)", r.cache)),
                Ok(r) if r.body != cold_body.as_bytes() => {
                    Err(format!("body differs from the cold body for {body}"))
                }
                Ok(_) => Ok(()),
            };
            broken |= response.is_err();
            match verdict {
                Ok(()) => {
                    run.ok += 1;
                    if run.ok % SAMPLE_EVERY == 0 {
                        run.latencies.push(latency_ms);
                    }
                    run.accesses += accesses;
                    run.measurements += measurements;
                }
                Err(reason) => {
                    run.latencies.push(MISSING_MS);
                    run.failed += 1;
                    if run.failures.len() < 5 {
                        run.failures.push(reason);
                    }
                }
            }
            if keep && run.kept.len() < REPLAY_REQUESTS {
                run.kept.push((
                    body.to_string(),
                    Exchange {
                        index: run.kept.len(),
                        latency_ms,
                        response,
                    },
                ));
            }
        }
        if broken {
            conn = Conn::open(addr).ok();
        }
    }
    run
}

pub fn run(process_start: Instant, seed: u64, seconds: f64) -> (Outcome, Served) {
    // The client thread and the reactor take turns on one CPU: no
    // pipelined batch waits for a wake-up on another, idle, virtual CPU,
    // whose delay follows the host's load rather than the server's work.
    // Under SCHED_BATCH the woken client does not preempt the reactor
    // mid-batch, so each batch is answered in one piece and the latency
    // figures do not depend on how the scheduler interleaved the two.
    let pinned = crate::util::pin_to_one_cpu();
    let batch = crate::util::batch_scheduling();
    let keys = keys(seed);
    let canonical: Vec<String> = keys.iter().map(|k| k[0].clone()).collect();
    let mut populate_failures = Vec::new();
    let ((server, cold), setup_times) = repeated_setup(
        process_start,
        SETUPS,
        || {
            let server = start_server_with(config());
            let (ex, _) = closed_loop(server.addr(), 1, std::slice::from_ref(&canonical));
            let cold: Vec<String> = ex[0]
                .iter()
                .map(|e| match e.ok() {
                    Some(r) if r.cache == "miss" => String::from_utf8_lossy(&r.body).into_owned(),
                    _ => {
                        populate_failures.push(format!("populating {}: {:?}", e.index, e.response));
                        String::new()
                    }
                })
                .collect();
            (server, cold)
        },
        |(server, _)| {
            server.shutdown();
        },
    );
    let cold_work: Vec<(f64, f64, String)> = cold
        .iter()
        .map(|body| {
            let (a, m) = answer_work(body);
            (a, m, body.clone())
        })
        .collect();
    // Every spelling of every key, interleaved in a seeded order.
    let mut spellings: Vec<(usize, &str, Vec<u8>)> = keys
        .iter()
        .enumerate()
        .flat_map(|(k, key)| key.iter().map(move |s| (k, s.as_str(), post_query(s))))
        .collect();
    crate::util::shuffle(&mut spellings, seed);

    let addr = server.addr();
    let mut slices: Vec<(Vec<ClientRun>, f64)> = Vec::with_capacity(SLICES);
    for slice in 0..SLICES {
        let started = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (spellings, cold_work) = (&spellings, &cold_work);
                    let offset = c * spellings.len() / CLIENTS;
                    let keep = c == 0 && slice == 0;
                    let secs = seconds / SLICES as f64;
                    scope.spawn(move || client(addr, spellings, cold_work, offset, secs, keep))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        slices.push((runs, started.elapsed().as_secs_f64()));
    }
    let peak_rss_mb = crate::util::peak_rss_mb();
    server.shutdown();

    // Each slice gives its own figures; the run reports their medians,
    // which a burst of host noise in a slice or two does not move.
    let runs: Vec<&ClientRun> = slices.iter().flat_map(|s| &s.0).collect();
    let ok: usize = runs.iter().map(|r| r.ok).sum();
    let failed = runs.iter().map(|r| r.failed).sum::<usize>() + populate_failures.len();
    let attempted = ok + failed;
    let (mut rps, mut p50, mut tails, mut access_rates) = (vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    for (runs, wall) in &slices {
        let latencies: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        rps.push(runs.iter().map(|r| r.ok).sum::<usize>() as f64 / wall);
        p50.push(median(&latencies));
        tails.push(tail(&latencies).0);
        access_rates.push(runs.iter().map(|r| r.accesses).sum::<f64>() / wall / 1e6);
        samples += latencies.len();
    }
    let measurements: f64 = runs.iter().map(|r| r.measurements).sum();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_times), "s");
    metrics.put("rps", median(&rps), "req/s");
    metrics.put("latency_p50_ms", median(&p50), "ms");
    metrics.put("latency_tail_ms", median(&tails), "ms");
    metrics.put("sim_maccess_per_s", median(&access_rates), "Maccess/s");
    metrics.put(
        "measurements_per_verdict",
        measurements / ok.max(1) as f64,
        "count",
    );
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    let per_slice = samples / SLICES;
    let pct = 100.0 * per_slice.saturating_sub(10).max(1) as f64 / per_slice.max(1) as f64;

    let mut outcome = Outcome {
        attempted,
        failed,
        metrics,
        notes: populate_failures,
    };
    for r in &runs {
        outcome
            .notes
            .extend(r.failures.iter().map(|f| format!("FAILED: {f}")));
    }
    outcome.notes.push(format!(
        "{SLICES} slices over fresh connections; rps, latency and access-rate figures are slice \
         medians (slice rps {rps:.0?}); latency_tail_ms is p{pct:.2} of about {per_slice} samples \
         per slice (every {SAMPLE_EVERY}th response); set-up times {setup_times:.4?} s"
    ));
    outcome
        .notes
        .push(crate::load::describe_config(&config(), CLIENTS));
    outcome
        .notes
        .push(format!("pinned to cpu {pinned:?}; SCHED_BATCH {batch}"));
    outcome.notes.push(format!(
        "keys={} spellings={} pipeline depth={DEPTH}",
        keys.len(),
        spellings.len(),
    ));
    let kept = std::mem::take(&mut slices[0].0[0].kept);
    let (wires, exchanges) = kept.into_iter().unzip();
    let served = Served {
        wires,
        exchanges,
        cold: canonical.into_iter().zip(cold).collect(),
    };
    (outcome, served)
}
