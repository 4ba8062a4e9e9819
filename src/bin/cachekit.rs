//! The `cachekit` command-line tool: simulate caches, reverse engineer
//! virtual hardware, run membership queries, and compute predictability
//! metrics — the library's functionality for shell users.
//!
//! ```text
//! cachekit simulate  --policy PLRU --capacity 262144 --assoc 8 --workload zipf_hot
//! cachekit simulate  --policy LRU  --capacity 65536  --assoc 8 --trace t.txt --writes 0.2
//! cachekit hierarchy --levels PLRU:16384:8,QLRU-1:131072:8,SRRIP:524288:16 \
//!                    --containment inclusive --workload gc_trace
//! cachekit infer     --cpu atom_d525 [--level l2] [--engine automata] [--reps 3] [--timing]
//! cachekit query     "A B C A? B?" --policy FIFO --assoc 4
//! cachekit distances --policy PLRU --assoc 8
//! cachekit attack    --policy PLRU --assoc 8 [--rounds 32] [--seed 7]
//! cachekit workloads --capacity 262144 --out traces/
//! cachekit trace     gen --workload zipf_hot --capacity 65536 --out t.ctb
//! cachekit trace     convert --in t.ctb --out t.txt --format text
//! cachekit trace     stats --in t.ctb
//! cachekit serve     --port 8459 --workers 2 --shards 2
//! ```

use cachekit::core::analysis::{evict_distance_spec, minimal_lifespan_spec, DistanceError};
use cachekit::core::infer::{
    engine_by_name, engine_names, infer_geometry, mapping, InferenceConfig, InferenceRequest,
};
use cachekit::core::perm::derive_permutation_spec;
use cachekit::core::query::Query;
use cachekit::hw::{fleet, CacheLevel, LevelOracle, MeasureMode};
use cachekit::policies::PolicyKind;
use cachekit::serve::{ServeConfig, Server};
use cachekit::sim::{Cache, CacheConfig};
use cachekit::trace::{io, workloads};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate(rest),
        "hierarchy" => cmd_hierarchy(rest),
        "infer" => cmd_infer(rest),
        "query" => cmd_query(rest),
        "distances" => cmd_distances(rest),
        "attack" => cmd_attack(rest),
        "mapping" => cmd_mapping(rest),
        "workloads" => cmd_workloads(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "bench" => cmd_bench(rest),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `cachekit help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "cachekit — cache replacement-policy reverse engineering and evaluation\n\n\
         commands:\n\
         \x20 simulate  --policy NAME --capacity BYTES --assoc N [--line 64]\n\
         \x20           (--workload NAME | --trace FILE) [--writes FRACTION] [--seed N]\n\
         \x20 hierarchy --levels POLICY:CAPACITY:ASSOC[,...] (innermost first)\n\
         \x20           [--containment inclusive|exclusive|nine] [--line 64]\n\
         \x20           (--workload NAME | --trace FILE) [--writes FRACTION] [--seed N]\n\
         \x20           [--latencies C,C,...] [--memory-latency 200]\n\
         \x20 infer     --cpu NAME [--level l1|l2|l3] [--engine permutation|automata|auto]\n\
         \x20           [--reps N] [--timing]\n\
         \x20 query     \"A B C A?\" (--policy NAME --assoc N | --cpu NAME [--level lX])\n\
         \x20 distances --policy NAME --assoc N\n\
         \x20 attack    --policy NAME --assoc N [--rounds 32] [--seed 7]\n\
         \x20 mapping   --cpu NAME [--level lX] [--bits 24]\n\
         \x20 workloads --capacity BYTES [--line 64] [--out DIR]\n\
         \x20 trace     gen --workload NAME --capacity BYTES --out FILE\n\
         \x20           [--format binary|text] [--writes FRACTION] [--seed N]\n\
         \x20 trace     convert --in FILE --out FILE [--format binary|text]\n\
         \x20 trace     stats --in FILE [--line 64]\n\
         \x20 serve     [--port 8459] [--host 127.0.0.1] [--workers N] [--shards N]\n\
         \x20           [--queue-depth N] [--cache N] [--deadline-ms N] [--reactors N]\n\
         \x20 bench     access-throughput [--smoke]\n\n\
         policies: LRU FIFO PLRU BitPLRU NRU CLOCK LIP BIP SRRIP BRRIP Random LazyLRU\n\
         cpus: atom_d525 core2_e6300 core2_e6750 core2_e8400 mystery_rand\n\
         \x20     quark_x1000 nehalem_3level sliced_llc"
    );
}

/// Parse `--key value` pairs plus at most one positional argument.
fn parse(args: &[String]) -> Result<(Option<String>, HashMap<String, String>), String> {
    let mut flags = HashMap::new();
    let mut positional = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            // Boolean flags take no value.
            if key == "timing" || key == "smoke" {
                flags.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} requires a value"))?;
            flags.insert(key.to_owned(), value.clone());
        } else if positional.is_none() {
            positional = Some(a.clone());
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse_u64(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<u64>,
) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        None => default.ok_or_else(|| format!("missing --{key}")),
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse_label(name).ok_or_else(|| format!("unknown policy {name:?}"))
}

fn parse_level(flags: &HashMap<String, String>) -> Result<CacheLevel, String> {
    match flags.get("level").map(String::as_str) {
        None | Some("l1") | Some("L1") => Ok(CacheLevel::L1),
        Some("l2") | Some("L2") => Ok(CacheLevel::L2),
        Some("l3") | Some("L3") => Ok(CacheLevel::L3),
        Some(other) => Err(format!("unknown level {other:?}")),
    }
}

/// Read a trace file in either format, sniffing the binary magic.
fn read_trace_any(path: &str) -> Result<Vec<io::MemOp>, String> {
    use cachekit::trace::binary;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(&binary::MAGIC) {
        binary::read_trace_binary(&bytes[..]).map_err(|e| format!("{path}: {e}"))
    } else {
        io::read_trace(&bytes[..]).map_err(|e| format!("{path}: {e}"))
    }
}

/// Resolve `--workload`/`--trace` flags into an op stream (shared by
/// `simulate` and `hierarchy`; `capacity` sizes the synthetic suite).
fn resolve_ops(flags: &HashMap<String, String>, capacity: u64) -> Result<Vec<io::MemOp>, String> {
    let line = parse_u64(flags, "line", Some(64))?;
    let seed = parse_u64(flags, "seed", Some(7))?;
    if let Some(path) = flags.get("trace") {
        read_trace_any(path)
    } else if let Some(wname) = flags.get("workload") {
        let w = workloads::generate(wname, capacity, line, seed).ok_or_else(|| {
            format!(
                "unknown workload {wname:?}; available: {:?}",
                workloads::NAMES
            )
        })?;
        let fraction = flags
            .get("writes")
            .map(|v| v.parse::<f64>().map_err(|_| "--writes: bad fraction"))
            .transpose()?
            .unwrap_or(0.0);
        Ok(io::with_writes(&w.trace, fraction, seed))
    } else {
        Err("need --workload NAME or --trace FILE".to_owned())
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let policy = parse_policy(flag(&flags, "policy")?)?;
    let capacity = parse_u64(&flags, "capacity", None)?;
    let assoc = parse_u64(&flags, "assoc", None)? as usize;
    let line = parse_u64(&flags, "line", Some(64))?;
    let config = CacheConfig::new(capacity, assoc, line).map_err(|e| e.to_string())?;

    let ops = resolve_ops(&flags, capacity)?;

    let mut cache = Cache::new(config, policy);
    let stats = cache.run_ops(ops.iter().map(|op| (op.addr, op.write)));
    println!("cache: {config}, policy {}", policy.label());
    println!("{stats}");
    if stats.writes > 0 {
        println!("writes: {}, writebacks: {}", stats.writes, stats.writebacks);
    }
    Ok(())
}

fn cmd_hierarchy(args: &[String]) -> Result<(), String> {
    use cachekit::sim::{default_latencies, Containment, Hierarchy, LevelSpec};
    let (_, flags) = parse(args)?;
    let line = parse_u64(&flags, "line", Some(64))?;

    let spec_text = flag(&flags, "levels")?;
    let mut specs = Vec::new();
    for (i, part) in spec_text.split(',').enumerate() {
        let fields: Vec<&str> = part.split(':').collect();
        let [policy, capacity, assoc] = fields[..] else {
            return Err(format!(
                "level {i}: expected POLICY:CAPACITY:ASSOC, got {part:?}"
            ));
        };
        let policy = parse_policy(policy)?;
        let capacity: u64 = capacity
            .parse()
            .map_err(|_| format!("level {i}: bad capacity {capacity:?}"))?;
        let assoc: usize = assoc
            .parse()
            .map_err(|_| format!("level {i}: bad associativity {assoc:?}"))?;
        let config =
            CacheConfig::new(capacity, assoc, line).map_err(|e| format!("level {i}: {e}"))?;
        policy
            .validate_for_assoc(assoc)
            .map_err(|e| format!("level {i}: {e}"))?;
        specs.push(LevelSpec::new(config, policy));
    }
    let containment = match flags.get("containment") {
        None => Containment::Nine,
        Some(s) => Containment::parse(s)
            .ok_or_else(|| format!("unknown containment {s:?} (inclusive, exclusive, nine)"))?,
    };
    if containment == Containment::Inclusive {
        for pair in specs.windows(2) {
            if pair[0].config.capacity() >= pair[1].config.capacity() {
                return Err(
                    "inclusive containment needs strictly growing capacities, innermost first"
                        .to_owned(),
                );
            }
        }
    }
    let latencies: Vec<u64> = match flags.get("latencies") {
        None => default_latencies(specs.len()),
        Some(s) => s
            .split(',')
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--latencies: bad cycle count {v:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    if latencies.len() != specs.len() {
        return Err(format!(
            "{} latencies for {} levels",
            latencies.len(),
            specs.len()
        ));
    }
    if latencies.contains(&0) {
        return Err("latencies must be at least 1 cycle".to_owned());
    }
    let memory_latency = parse_u64(&flags, "memory-latency", Some(200))?;
    if memory_latency == 0 {
        return Err("--memory-latency must be at least 1 cycle".to_owned());
    }

    let outer_capacity = specs.last().expect("levels is non-empty").config.capacity();
    let ops = resolve_ops(&flags, outer_capacity)?;

    let mut hierarchy = Hierarchy::new(specs)
        .with_containment(containment)
        .with_latencies(latencies.clone(), memory_latency);
    for op in &ops {
        hierarchy.access_op(op.addr, op.write);
    }

    println!(
        "hierarchy: {} level(s), {} containment, latencies {latencies:?} + {memory_latency} memory",
        hierarchy.depth(),
        containment
    );
    for (i, stats) in hierarchy.stats().iter().enumerate() {
        println!("L{}: {stats}", i + 1);
    }
    let h = hierarchy.hierarchy_stats();
    println!(
        "memory fetches: {}, back-invalidations: {}, victim fills: {}, memory writebacks: {}",
        h.memory_fetches, h.back_invalidations, h.victim_fills, h.memory_writebacks
    );
    println!(
        "AMAT: {:.2} cycles over {} accesses",
        hierarchy.amat(),
        h.accesses
    );
    Ok(())
}

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let name = flag(&flags, "cpu")?;
    let mut cpu = fleet::by_name(name).ok_or_else(|| format!("unknown cpu {name:?}"))?;
    let level = parse_level(&flags)?;
    if matches!(level, CacheLevel::L3) && cpu.l3_config().is_none() {
        return Err(format!("{name} has no L3"));
    }
    let reps = parse_u64(&flags, "reps", Some(3))? as usize;
    let engine_name = flags.get("engine").map_or("permutation", String::as_str);
    let engine = engine_by_name(engine_name).ok_or_else(|| {
        format!(
            "unknown engine {engine_name:?} (expected {})",
            engine_names().join(", ")
        )
    })?;
    let config = InferenceConfig::builder()
        .repetitions(reps)
        .build()
        .map_err(|e| e.to_string())?;
    let mut oracle = LevelOracle::new(&mut cpu, level);
    if flags.contains_key("timing") {
        oracle = oracle.with_mode(MeasureMode::Timing);
    }
    let geometry = infer_geometry(&mut oracle, &config).map_err(|e| e.to_string())?;
    println!("geometry: {geometry}");
    let report = engine.infer(&mut oracle, &InferenceRequest::new(geometry, config));
    match &report.outcome {
        Ok(finding) => println!("[{}] {}", report.engine, finding.summary()),
        Err(e) => println!("[{}] policy inference rejected: {e}", report.engine),
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args)?;
    let text = positional.ok_or("missing query string, e.g. \"A B C A?\"")?;
    let query: Query = text.parse().map_err(|e| format!("{e}"))?;
    if let Some(cpu_name) = flags.get("cpu") {
        let mut cpu =
            fleet::by_name(cpu_name).ok_or_else(|| format!("unknown cpu {cpu_name:?}"))?;
        let level = parse_level(&flags)?;
        let cfg = match level {
            CacheLevel::L1 => *cpu.l1_config(),
            CacheLevel::L2 => *cpu.l2_config(),
            CacheLevel::L3 => *cpu.l3_config().ok_or("machine has no L3")?,
        };
        let geometry = cachekit::core::infer::Geometry {
            line_size: cfg.line_size(),
            capacity: cfg.capacity(),
            associativity: cfg.associativity(),
            num_sets: cfg.num_sets(),
        };
        let mut oracle = LevelOracle::new(&mut cpu, level);
        let outcome = query.run_oracle(&mut oracle, &geometry, 3);
        println!("{}: {}", query, outcome.pattern());
    } else {
        let policy = parse_policy(flag(&flags, "policy")?)?;
        let assoc = parse_u64(&flags, "assoc", None)? as usize;
        let outcome = query.run_policy(&policy.build_state(assoc, 0));
        println!("{}: {}", query, outcome.pattern());
    }
    Ok(())
}

fn cmd_distances(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let kind = parse_policy(flag(&flags, "policy")?)?;
    let assoc = parse_u64(&flags, "assoc", None)? as usize;
    let spec = derive_permutation_spec(Box::new(kind.build_state(assoc, 0))).map_err(|e| {
        format!(
            "{} is not a (front-insertion) permutation policy: {e}",
            kind.label()
        )
    })?;
    let budget = 8_000_000;
    let show = |r: Result<usize, DistanceError>| match r {
        Ok(v) => v.to_string(),
        Err(DistanceError::Unbounded) => "unbounded".to_owned(),
        Err(e) => format!("({e})"),
    };
    println!(
        "{} at {assoc} ways: evict = {}, mls = {}",
        kind.label(),
        show(evict_distance_spec(&spec, budget)),
        show(minimal_lifespan_spec(&spec, budget)),
    );
    Ok(())
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    use cachekit::attack::{eviction_set_for_kind, stealth_score, StealthScenario};
    let (_, flags) = parse(args)?;
    let kind = parse_policy(flag(&flags, "policy")?)?;
    let assoc = parse_u64(&flags, "assoc", None)? as usize;
    kind.validate_for_assoc(assoc)?;
    let rounds = parse_u64(&flags, "rounds", Some(32))? as usize;
    let seed = parse_u64(&flags, "seed", Some(7))?;
    let stride = parse_u64(&flags, "stride", Some(16 * 64))?;

    println!("policy {} at {assoc} ways:", kind.label());
    match eviction_set_for_kind(kind, assoc, stride) {
        Ok(set) => {
            println!(
                "  eviction set: {} access(es) evict the target \
                 ({} attacker miss(es), {} hit(s))",
                set.len(),
                set.attacker_misses,
                set.attacker_hits
            );
            let fmt = |addrs: &[u64]| {
                addrs
                    .iter()
                    .map(|a| format!("{a:#x}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("  target:      {:#x}", set.target);
            println!("  preparation: {}", fmt(&set.preparation));
            println!("  accesses:    {}", fmt(&set.accesses));
        }
        Err(e) => println!("  eviction set: refused — {e}"),
    }
    for scenario in StealthScenario::all() {
        let score = stealth_score(kind, assoc, scenario, rounds, seed);
        println!(
            "  stealth {}: guaranteed={}, hold_rate={:.3}, \
             {:.2} miss(es)/round, {:.1} access(es)/round over {rounds} rounds",
            scenario.label(),
            score.guaranteed,
            score.hold_rate,
            score.misses_per_round,
            score.accesses_per_round,
        );
    }
    Ok(())
}

fn cmd_mapping(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let name = flag(&flags, "cpu")?;
    let mut cpu = fleet::by_name(name).ok_or_else(|| format!("unknown cpu {name:?}"))?;
    let level = parse_level(&flags)?;
    let cfg = match level {
        CacheLevel::L1 => *cpu.l1_config(),
        CacheLevel::L2 => *cpu.l2_config(),
        CacheLevel::L3 => *cpu.l3_config().ok_or("machine has no L3")?,
    };
    let bits = parse_u64(&flags, "bits", Some(24))? as u32;
    let geometry = cachekit::core::infer::Geometry {
        line_size: cfg.line_size(),
        capacity: cfg.capacity(),
        associativity: cfg.associativity(),
        num_sets: cfg.num_sets(),
    };
    let config = InferenceConfig::default();
    // Bit classification supplies its own upper-level displacement; the
    // oracle's flush lattice would pollute the probed sets (see the
    // mapping module docs).
    let mut oracle = LevelOracle::new(&mut cpu, level).without_flushers();
    let roles = mapping::classify_bits(&mut oracle, &geometry, &config, bits);
    print!("bit roles (LSB first): ");
    for role in &roles {
        print!(
            "{}",
            match role {
                mapping::BitRole::Offset => 'O',
                mapping::BitRole::Index => 'I',
                mapping::BitRole::Tag => 'T',
            }
        );
    }
    println!();
    match mapping::interpret(&roles) {
        Some((line, sets)) if mapping::consistent_with(&roles, &geometry) => {
            println!("standard layout confirmed: {line} B lines, {sets} sets");
        }
        Some((line, sets)) => println!(
            "contiguous split ({line} B lines, {sets} sets) CONTRADICTS the              datasheet geometry — non-standard indexing"
        ),
        None => println!("no contiguous offset/index/tag split — hashed/sliced indexing"),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let host = flags.get("host").map_or("127.0.0.1", String::as_str);
    let port = parse_u64(&flags, "port", Some(8459))?;
    let deadline_ms = parse_u64(&flags, "deadline-ms", Some(10_000))?;
    let config = ServeConfig {
        addr: format!("{host}:{port}"),
        workers_per_shard: parse_u64(&flags, "workers", Some(2))? as usize,
        queue_shards: parse_u64(&flags, "shards", Some(2))? as usize,
        queue_depth: parse_u64(&flags, "queue-depth", Some(32))? as usize,
        cache_capacity: parse_u64(&flags, "cache", Some(1024))? as usize,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        retry_unit_ms: parse_u64(&flags, "retry-ms", Some(50))?,
        reactors: parse_u64(&flags, "reactors", Some(0))? as usize,
    };
    let handle = Server::start(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("cachekit-serve listening on http://{}", handle.addr());
    println!("endpoints: POST /v1/query, GET /healthz, GET /metrics, POST /shutdown");
    handle.wait_until_shutdown_requested();
    println!("shutdown requested; draining...");
    let report = handle.shutdown();
    println!(
        "drained: {} jobs submitted, {} completed, {} panicked, {} rejected at admission",
        report.submitted, report.completed, report.panicked, report.rejected
    );
    if report.submitted != report.completed + report.panicked {
        return Err("drain dropped admitted jobs".to_owned());
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args)?;
    match positional.as_deref() {
        Some("access-throughput") => {
            let outcome = cachekit::bench::access::run_and_report(flags.contains_key("smoke"));
            println!("record: {}", outcome.path.display());
            if outcome.missing.is_empty() {
                Ok(())
            } else {
                Err(format!("missing target rows: {:?}", outcome.missing))
            }
        }
        Some(other) => Err(format!(
            "unknown benchmark {other:?}; available: access-throughput"
        )),
        None => Err("missing benchmark name, e.g. `cachekit bench access-throughput`".to_owned()),
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use cachekit::trace::{binary, stack_dist};
    let (positional, flags) = parse(args)?;

    let write_ops = |ops: &[io::MemOp], path: &str, format: &str| -> Result<(), String> {
        let mut out = Vec::new();
        match format {
            "binary" => binary::write_trace_binary(ops, &mut out).map_err(|e| e.to_string())?,
            "text" => io::write_trace(ops, &mut out).map_err(|e| e.to_string())?,
            other => return Err(format!("unknown format {other:?} (binary, text)")),
        }
        std::fs::write(path, &out).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: {} op(s), {} byte(s), {format} format",
            ops.len(),
            out.len()
        );
        Ok(())
    };

    match positional.as_deref() {
        Some("gen") => {
            let capacity = parse_u64(&flags, "capacity", None)?;
            let out = flag(&flags, "out")?;
            let format = flags.get("format").map_or("binary", String::as_str);
            let ops = resolve_ops(&flags, capacity)?;
            write_ops(&ops, out, format)
        }
        Some("convert") => {
            let input = flag(&flags, "in")?;
            let out = flag(&flags, "out")?;
            let format = flags.get("format").map_or("binary", String::as_str);
            let ops = read_trace_any(input)?;
            write_ops(&ops, out, format)
        }
        Some("stats") => {
            let input = flag(&flags, "in")?;
            let line = parse_u64(&flags, "line", Some(64))?;
            let ops = read_trace_any(input)?;
            if ops.is_empty() {
                println!("{input}: empty trace");
                return Ok(());
            }
            let writes = ops.iter().filter(|op| op.write).count();
            let addrs: Vec<u64> = ops.iter().map(|op| op.addr).collect();
            let (hist, cold) = stack_dist::measure(&addrs, line);
            let reuses: u64 = hist.iter().sum();
            // Distance below which half (resp. 90%) of the reuses fall:
            // the knee a capacity of that many lines would capture.
            let quantile = |q: f64| -> usize {
                let target = (reuses as f64 * q).ceil() as u64;
                let mut acc = 0u64;
                for (d, &n) in hist.iter().enumerate() {
                    acc += n;
                    if acc >= target {
                        return d;
                    }
                }
                hist.len().saturating_sub(1)
            };
            println!("{input}: {} op(s) ({} write(s))", ops.len(), writes);
            println!(
                "distinct lines: {cold} ({} bytes at {line}-byte lines)",
                cold * line
            );
            println!(
                "stack distances: {} reuse(s), cold fraction {:.3}",
                reuses,
                cold as f64 / ops.len() as f64
            );
            if reuses > 0 {
                println!(
                    "reuse distance: median {}, p90 {}, max {}",
                    quantile(0.5),
                    quantile(0.9),
                    hist.len() - 1
                );
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown trace command {other:?} (gen, convert, stats)"
        )),
        None => Err("missing trace command, e.g. `cachekit trace stats --in t.ctb`".to_owned()),
    }
}

fn cmd_workloads(args: &[String]) -> Result<(), String> {
    const KNOWN: &str = "every suite name has a definition";
    let (_, flags) = parse(args)?;
    let capacity = parse_u64(&flags, "capacity", None)?;
    let line = parse_u64(&flags, "line", Some(64))?;
    let seed = parse_u64(&flags, "seed", Some(7))?;
    match flags.get("out") {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            for name in workloads::NAMES {
                let w = workloads::generate(name, capacity, line, seed).expect(KNOWN);
                let path = format!("{dir}/{}.trace", w.name);
                let ops: Vec<io::MemOp> = w.trace.iter().map(|&a| io::MemOp::read(a)).collect();
                let mut file = std::io::BufWriter::new(
                    std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?,
                );
                io::write_trace(&ops, &mut file).map_err(|e| e.to_string())?;
                println!("{path}: {} accesses — {}", w.trace.len(), w.description);
            }
        }
        None => {
            println!("{:<14} {:>10}  description", "workload", "accesses");
            for name in workloads::NAMES {
                let accesses = workloads::len(name, capacity, line, seed).expect(KNOWN);
                let description = workloads::description(name).expect(KNOWN);
                println!("{name:<14} {accesses:>10}  {description}");
            }
        }
    }
    Ok(())
}
