//! `infer_cold`: distinct `infer` requests over HTTP, one per fleet
//! (cpu, level) on the permutation engine plus the automata and auto
//! engines on small-associativity levels.
//!
//! Why: this is the paper's reverse-engineering pipeline;
//! `infer_geometry`, `InferenceEngine::infer` and the virtual CPU behind
//! the oracle take nearly all host time.
//!
//! Automata campaigns on 8-way levels take 10-20 s and on 16-way levels
//! about 300 s, longer than a run, so the round keeps automata to the
//! 4-way (quark_x1000 L1, NRU) and 6-way (atom_d525 L1, LRU) levels.

use crate::load::{closed_loop, repeated_setup, start_server, SETUPS};
use crate::util::{jobs, mix, Metrics};
use crate::{Outcome, Served};
use cachekit_core::infer::InferenceConfig;
use cachekit_core::perm::derive_permutation_spec;
use cachekit_hw::fleet;
use cachekit_policies::PolicyKind;
use cachekit_serve::Json;
use std::time::Instant;

/// Seconds of `--seconds` one round accounts for. A round takes about
/// 9 s on a 2-core machine; a 10-second run makes four, so the latency
/// figures rest on 92 samples, four of each request.
pub const ROUND_S: f64 = 2.5;

/// One request of a round: (cpu, level, engine, whether the pipeline is
/// expected to answer it with a confident verdict).
type Entry = (&'static str, &'static str, &'static str, bool);

/// Every fleet (cpu, level) on the permutation engine, `auto` on three
/// L1s (answered with the permutation engine, or with automata on
/// quark_x1000's NRU), and `automata` on the 4- and 6-way L1s; largest
/// campaigns first so two closed-loop clients split a round the same way
/// whatever the seed. Levels outside the permutation class (NRU, SRRIP,
/// Random) and the sliced L3, whose geometry cannot be inferred, are
/// answered with an honest refusal, which is what they expect.
///
/// The counts put the figures inside groups of similar requests rather
/// than in a gap between two: nine requests of a round take under about
/// 0.2 s, six (the 8-way L1 and the small L2 campaigns) about 0.25-0.4 s,
/// and eight more, so the median falls in the middle of those six; the
/// tail rule's eleventh-largest of 92 samples falls among the four
/// copies of the third-largest campaign. `auto` on the other four L1s
/// would add only more requests under 0.2 s and push the median into
/// the gap below the six.
pub const ROUND: [Entry; 23] = [
    ("core2_e8400", "l2", "permutation", true),
    ("nehalem_3level", "l3", "permutation", true),
    ("core2_e6750", "l2", "permutation", true),
    ("quark_x1000", "l1", "auto", true),
    ("quark_x1000", "l1", "automata", true),
    ("atom_d525", "l1", "automata", true),
    ("sliced_llc", "l3", "permutation", false),
    ("nehalem_3level", "l2", "permutation", true),
    ("nehalem_3level", "l1", "permutation", true),
    ("nehalem_3level", "l1", "auto", true),
    ("core2_e8400", "l1", "permutation", true),
    ("core2_e8400", "l1", "auto", true),
    ("core2_e6300", "l2", "permutation", true),
    ("sliced_llc", "l2", "permutation", true),
    ("sliced_llc", "l1", "permutation", true),
    ("core2_e6750", "l1", "permutation", true),
    ("atom_d525", "l2", "permutation", true),
    ("core2_e6300", "l1", "permutation", true),
    ("mystery_rand", "l2", "permutation", false),
    ("mystery_rand", "l1", "permutation", true),
    ("atom_d525", "l1", "permutation", true),
    ("quark_x1000", "l2", "permutation", false),
    ("quark_x1000", "l1", "permutation", false),
];

fn body(cpu: &str, level: &str, engine: &str, seed: u64) -> String {
    format!(
        r#"{{"type":"infer","cpu":"{cpu}","level":"{level}","engine":"{engine}","seed":{seed}}}"#
    )
}

/// Round `round` of the run seeded `seed`: every request gets its own
/// validation seed, so none repeats.
pub fn generate(seed: u64, round: usize) -> Vec<String> {
    ROUND
        .iter()
        .enumerate()
        .map(|(i, (cpu, level, engine, _))| {
            let s = 1000 + mix(seed, (round * ROUND.len() + i) as u64) % 1_000_000_007;
            body(cpu, level, engine, s)
        })
        .collect()
}

/// Untimed warm-ups that fill the process-wide memos inference uses:
/// automata templates for the 4- and 6-way geometries, and the tree
/// shapes of the 8- and 16-way PLRU levels.
fn warmups() -> Vec<String> {
    vec![
        body("quark_x1000", "l1", "automata", 1),
        body("atom_d525", "l1", "automata", 1),
        body("core2_e6750", "l1", "permutation", 1),
    ]
}

/// The hidden policy behind a fleet level, and the spec rendering a
/// verdict must carry when the policy has no catalog name.
fn hidden(cpu: &str, level: &str) -> Option<(String, usize)> {
    let cpu = fleet::by_name(cpu)?;
    let (label, assoc) = match level {
        "l1" => (cpu.hidden_l1_policy(), cpu.l1_config().associativity()),
        "l2" => (cpu.hidden_l2_policy(), cpu.l2_config().associativity()),
        _ => (cpu.hidden_l3_policy()?, cpu.l3_config()?.associativity()),
    };
    Some((label.to_owned(), assoc))
}

/// Check one response. A confident verdict must name the level's hidden
/// policy (or, without a catalog name, match that policy's derived
/// spec); a refusal where a verdict is expected fails too.
/// Returns the body's `measurements_used`.
fn check(entry: &Entry, ex: &crate::load::Exchange, min_confidence: f64) -> Result<u64, String> {
    let (cpu, level, _, expect_verdict) = *entry;
    let resp = ex
        .response
        .as_ref()
        .map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    if resp.cache != "miss" {
        return Err(format!("X-Cache: {} (expected miss)", resp.cache));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF-8 body".to_owned())?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let measurements = json
        .get("measurements_used")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let confident = json.get("ok").and_then(Json::as_bool) == Some(true)
        && json.get("degraded").and_then(Json::as_bool) == Some(false)
        && json.get("confidence").and_then(Json::as_f64).unwrap_or(0.0) >= min_confidence;
    if !confident {
        return if expect_verdict {
            Err(format!(
                "{cpu} {level}: refused where a verdict is expected: {text}"
            ))
        } else {
            Ok(measurements)
        };
    }
    let (label, assoc) = hidden(cpu, level).ok_or("no such fleet level")?;
    match json.get("policy").and_then(Json::as_str) {
        Some(name) if name == label => Ok(measurements),
        Some(name) => Err(format!(
            "{cpu} {level}: confident verdict {name}, hidden {label}"
        )),
        None => {
            let kind = PolicyKind::parse_label(&label).ok_or("unparsable hidden label")?;
            let spec = derive_permutation_spec(Box::new(kind.build_state(assoc, 0)))
                .map_err(|e| format!("hidden {label} has no spec: {e}"))?
                .render();
            if json.get("spec").and_then(Json::as_str) == Some(spec.as_str()) {
                Ok(measurements)
            } else {
                Err(format!(
                    "{cpu} {level}: uncatalogued verdict does not match {label}'s spec"
                ))
            }
        }
    }
}

/// Oracle accesses the program counted so far (its `oracle.accesses`
/// counter; zero with metrics collection off).
fn oracle_accesses() -> u64 {
    cachekit_obs::snapshot()
        .counter_totals()
        .get("oracle.accesses")
        .copied()
        .unwrap_or(0)
}

pub fn run(process_start: Instant, seed: u64, rounds: usize) -> (Outcome, Served) {
    // With an arena per thread, the peak depended on which pool worker
    // happened to run which campaign (one round of four seeds read
    // 14.9-20.6 MB); with one arena it follows the campaigns' own memory.
    let one_arena = crate::util::single_malloc_arena();
    let warm = warmups();
    let (last, setup_times) = repeated_setup(
        process_start,
        SETUPS,
        || {
            let server = start_server();
            // One connection: two warm-up campaigns at once would set a
            // peak memory the timed rounds may not reach.
            let (ex, _) = closed_loop(server.addr(), 1, std::slice::from_ref(&warm));
            assert!(
                ex[0].iter().all(|e| e.ok().is_some()),
                "warm-up requests must succeed"
            );
            server
        },
        |server| {
            server.shutdown();
        },
    );
    // The timed server starts fresh so the oracle counter, which pool
    // threads fold in when they exit, covers exactly the timed requests.
    last.shutdown();
    let before = oracle_accesses();
    let server = start_server();
    let bodies: Vec<Vec<String>> = (0..rounds).map(|r| generate(seed, r)).collect();
    let (exchanges, wall_s) = closed_loop(server.addr(), jobs(), &bodies);
    let peak_rss_mb = crate::util::peak_rss_mb();
    server.shutdown();
    let simulated = oracle_accesses() - before;

    let min_confidence = InferenceConfig::default().min_confidence;
    let mut failures = Vec::new();
    let mut measurements = Vec::new();
    for ex in &exchanges {
        for (entry, e) in ROUND.iter().zip(ex) {
            match check(entry, e, min_confidence) {
                Ok(m) => {
                    measurements.push(m as f64);
                    failures.push(None);
                }
                Err(reason) => failures.push(Some(reason)),
            }
        }
    }
    let all: Vec<_> = exchanges.iter().flatten().collect();
    let mut metrics = Metrics::default();
    let tail_note = crate::serve_metrics(&mut metrics, &setup_times, &all, &failures, wall_s);
    metrics.put(
        "sim_maccess_per_s",
        simulated as f64 / wall_s / 1e6,
        "Maccess/s",
    );
    metrics.put(
        "measurements_per_verdict",
        measurements.iter().sum::<f64>() / measurements.len().max(1) as f64,
        "count",
    );
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    let outcome = Outcome::new(all.len(), &failures, metrics)
        .note(crate::load::describe_config(
            &crate::load::serve_config(),
            jobs(),
        ))
        .note(tail_note)
        .note(format!(
            "rounds={rounds} requests/round={} oracle accesses={simulated} \
             single malloc arena={one_arena}",
            ROUND.len()
        ));
    let first: Vec<String> = exchanges
        .first()
        .map(|ex| ex.iter().map(|e| format!("{:.0}", e.latency_ms)).collect())
        .unwrap_or_default();
    let outcome = outcome.note(format!(
        "round 0 latencies (ms, in request order): {}",
        first.join(" ")
    ));
    let served = Served {
        wires: bodies.into_iter().next().unwrap_or_default(),
        exchanges: exchanges.into_iter().next().unwrap_or_default(),
        cold: Vec::new(),
    };
    (outcome, served)
}
