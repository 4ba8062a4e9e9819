//! `eval_sweep`: the fig-binary path from trace to statistics, in
//! process with no server.
//!
//! A round generates the workload suite once per geometry, sweeps every
//! differential policy kind over the suite at an L2-sized 8-way geometry
//! on the per-access enum engine, and runs a fig13-style three-level
//! hierarchy sweep (3 containments x 3 LLC policies, 20% writes), each
//! on `par_map` with `jobs()` workers.
//!
//! Why: the same sim layer runs per access here rather than in batches;
//! the engines, the hierarchy and the parallel layer do most of the
//! work, trace generation is amortized over many cells, and there is no
//! serve layer.

use crate::span::{Span, Tracer};
use crate::util::{jobs, median, mix, tail, Digest, Metrics};
use crate::Outcome;
use cachekit_policies::PolicyKind;
use cachekit_sim::{default_latencies, Cache, CacheConfig, Containment, Hierarchy, LevelSpec};
use cachekit_trace::{io, workloads, MemOp};
use std::time::Instant;

/// Seconds of `--seconds` one round accounts for: about the wall time a
/// round took on a 2-core machine when the round was composed.
pub const ROUND_S: f64 = 2.5;

const KIB: u64 = 1024;
const LINE: u64 = 64;
const WRITES: f64 = 0.2;
const MEMORY_LATENCY: u64 = 200;
/// The flat sweep's geometry: an L2-sized 8-way cache.
const FLAT: (u64, usize) = (128 * KIB, 8);
/// The hierarchy sweep's L1 and L2 (policy, capacity, assoc); the LLC
/// is 64 KiB, 16-way, under each of `LLC_POLICIES`.
const INNER: [(PolicyKind, u64, usize); 2] = [
    (PolicyKind::TreePlru, 4 * KIB, 4),
    (PolicyKind::Qlru { insert: 1 }, 16 * KIB, 8),
];
const LLC: (u64, usize) = (64 * KIB, 16);
const LLC_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Lru,
    PolicyKind::Srrip { bits: 2 },
    PolicyKind::TreePlru,
];

/// Everything a run measured, kept for the traced replay.
#[derive(Debug, Default)]
pub struct Run {
    pub seed: u64,
    pub digests: Vec<u64>,
}

fn hierarchy(containment: Containment, llc: PolicyKind) -> Hierarchy {
    let mut specs: Vec<LevelSpec> = INNER
        .iter()
        .map(|&(p, c, a)| LevelSpec::new(CacheConfig::new(c, a, LINE).expect("valid"), p))
        .collect();
    specs.push(LevelSpec::new(
        CacheConfig::new(LLC.0, LLC.1, LINE).expect("valid"),
        llc,
    ));
    Hierarchy::new(specs)
        .with_containment(containment)
        .with_latencies(default_latencies(3), MEMORY_LATENCY)
}

/// What one round produced: for every cell in order, its wall time in
/// seconds, its simulated accesses and which sweep it belongs to.
pub struct RoundResult {
    pub cells: Vec<(f64, u64, &'static str)>,
    pub digest: u64,
    pub failures: Vec<Option<String>>,
    /// Addresses the round's suites generated.
    pub generated: u64,
}

/// `par_map` over `items` with a worker lane per item; spans hang off
/// a `sim.parallel` span. Returns results and each item's wall time.
fn traced_par_map<T: Sync, R: Send>(
    tr: &Tracer,
    items: &[T],
    f: impl Fn(&Tracer, &T) -> R + Sync,
) -> Vec<(R, f64)> {
    let parallel = tr.enter("sim.parallel");
    let origin = tr.origin();
    let enabled = tr.enabled();
    let out: Vec<(R, f64, Vec<Span>)> = cachekit_sim::par_map(items, jobs(), |item| {
        let lane = Tracer::worker(origin, enabled, parallel);
        let t = Instant::now();
        let r = f(&lane, item);
        let secs = t.elapsed().as_secs_f64();
        (r, secs, lane.into_spans())
    });
    tr.exit(parallel);
    let mut results = Vec::with_capacity(out.len());
    let mut lanes = Vec::with_capacity(out.len());
    for (r, secs, spans) in out {
        results.push((r, secs));
        lanes.push(spans);
    }
    tr.absorb(lanes, jobs());
    results
}

fn round(tr: &Tracer, seed: u64, r: usize) -> RoundResult {
    let s = mix(seed, r as u64) % 1_000_000_007;
    let kinds = PolicyKind::differential_kinds();
    let flat_config = CacheConfig::new(FLAT.0, FLAT.1, LINE).expect("valid");
    let suite = tr.time("trace.suite", || workloads::suite(FLAT.0, LINE, s));
    let grid: Vec<(usize, PolicyKind)> = (0..suite.len())
        .flat_map(|w| kinds.iter().map(move |&k| (w, k)))
        .collect();
    let flat = traced_par_map(tr, &grid, |lane, &(w, kind)| {
        let mut cache = lane.time("sim.build", || Cache::new(flat_config, kind));
        let trace = &suite[w].trace;
        let stats = lane.time("sim.enum", || cache.run_trace(trace.iter().copied()));
        (stats, trace.len() as u64)
    });

    let hsuite = tr.time("trace.suite", || workloads::suite(LLC.0, LINE, s));
    let ops: Vec<Vec<MemOp>> = hsuite
        .iter()
        .enumerate()
        .map(|(i, w)| {
            tr.time("trace.with_writes", || {
                io::with_writes(&w.trace, WRITES, s ^ i as u64)
            })
        })
        .collect();
    let workloads = ops.len();
    let hgrid: Vec<(Containment, PolicyKind, usize)> = Containment::ALL
        .iter()
        .flat_map(|&c| {
            LLC_POLICIES
                .iter()
                .flat_map(move |&p| (0..workloads).map(move |w| (c, p, w)))
        })
        .collect();
    let hier = traced_par_map(tr, &hgrid, |lane, &(c, p, w)| {
        let mut h = lane.time("sim.build", || hierarchy(c, p));
        lane.time("sim.hierarchy", || {
            for op in &ops[w] {
                h.access_op(op.addr, op.write);
            }
        });
        (h.stats(), h.hierarchy_stats(), h.amat())
    });

    // Digest and accounting checks, outside any span.
    let mut digest = Digest::default();
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    for (((stats, len), secs), &(w, kind)) in flat.into_iter().zip(&grid) {
        digest.bytes(kind.label().as_bytes());
        digest.bytes(suite[w].name.as_bytes());
        for v in [
            stats.accesses,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.writes,
            stats.writebacks,
        ] {
            digest.u64(v);
        }
        let ok = stats.accesses == len
            && stats.hits + stats.misses == stats.accesses
            && stats.evictions <= stats.misses;
        failures.push((!ok).then(|| {
            format!(
                "flat cell {} / {} fails accounting: {stats:?}",
                kind.label(),
                suite[w].name
            )
        }));
        cells.push((secs, len, "flat"));
    }
    let max_amat = (default_latencies(3).iter().sum::<u64>() + MEMORY_LATENCY) as f64;
    for (((levels, stats, amat), secs), &(c, p, w)) in hier.into_iter().zip(&hgrid) {
        digest.bytes(c.label().as_bytes());
        digest.bytes(p.label().as_bytes());
        digest.bytes(hsuite[w].name.as_bytes());
        for l in &levels {
            for v in [
                l.accesses,
                l.hits,
                l.misses,
                l.evictions,
                l.writes,
                l.writebacks,
            ] {
                digest.u64(v);
            }
        }
        for v in [
            stats.accesses,
            stats.total_cycles,
            stats.memory_fetches,
            stats.back_invalidations,
            stats.victim_fills,
            stats.memory_writebacks,
        ] {
            digest.u64(v);
        }
        digest.u64(amat.to_bits());
        let n = ops[w].len() as u64;
        let ok = stats.accesses == n
            && levels[0].accesses == n
            && stats.memory_fetches <= n
            && (default_latencies(3)[0] as f64..=max_amat).contains(&amat);
        failures.push((!ok).then(|| {
            format!(
                "hierarchy cell {c} / {} / {} fails accounting",
                p.label(),
                hsuite[w].name
            )
        }));
        cells.push((secs, n, "hierarchy"));
    }
    RoundResult {
        cells,
        digest: digest.0,
        failures,
        generated: suite
            .iter()
            .chain(&hsuite)
            .map(|w| w.trace.len() as u64)
            .sum(),
    }
}

/// Run `rounds` rounds; `tr` is disabled for the untraced run.
pub fn rounds(tr: &Tracer, seed: u64, rounds: usize) -> (Vec<RoundResult>, f64) {
    let started = Instant::now();
    let out = (0..rounds).map(|r| round(tr, seed, r)).collect();
    (out, started.elapsed().as_secs_f64())
}

/// Untimed warm-up: one small cell per distinct policy and hierarchy,
/// so first-use costs (tree shapes, allocator growth) are not timed.
fn warm_up() {
    let suite = workloads::suite(32 * KIB, LINE, 1);
    let trace = &suite
        .iter()
        .find(|w| w.name == "zipf_hot")
        .expect("zipf_hot")
        .trace;
    let config = CacheConfig::new(FLAT.0, FLAT.1, LINE).expect("valid");
    let kinds = PolicyKind::differential_kinds();
    cachekit_sim::par_map(&kinds, jobs(), |&k| {
        std::hint::black_box(cachekit_sim::sweep::simulate(config, k, trace))
    });
    for c in Containment::ALL {
        for p in LLC_POLICIES {
            let mut h = hierarchy(c, p);
            for &a in trace.iter().take(20_000) {
                h.access_op(a, false);
            }
            std::hint::black_box(h.amat());
        }
    }
}

pub fn run(process_start: Instant, seed: u64, n: usize) -> (Outcome, Run) {
    let ((), setup_times) =
        crate::load::repeated_setup(process_start, crate::load::SETUPS, warm_up, |()| {});
    let tr = Tracer::new(Instant::now(), false);
    let (results, wall_s) = rounds(&tr, seed, n);
    let peak_rss_mb = crate::util::peak_rss_mb();
    let mut failures = Vec::new();
    let mut latencies = Vec::new();
    let mut accesses = 0u64;
    let mut notes = Vec::new();
    for (r, res) in results.iter().enumerate() {
        notes.push(format!(
            "round {r} digest {:016x} over {} cells",
            res.digest,
            res.cells.len()
        ));
        failures.extend(res.failures.iter().cloned());
        for (secs, n, _) in &res.cells {
            latencies.push(secs * 1e3);
            accesses += n;
        }
    }
    let cells = latencies.len();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_times), "s");
    m.put("rps", cells as f64 / wall_s, "req/s");
    m.put("latency_p50_ms", median(&latencies), "ms");
    let (value, pct, samples) = tail(&latencies);
    m.put("latency_tail_ms", value, "ms");
    m.put(
        "sim_maccess_per_s",
        accesses as f64 / wall_s / 1e6,
        "Maccess/s",
    );
    // A sweep cell is one measurement: one trace run on one cache.
    m.put("measurements_per_verdict", 1.0, "count");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    let mut outcome = Outcome::new(cells, &failures, m);
    outcome.notes.extend(notes);
    outcome.notes.push(format!(
        "rounds={n} jobs={} latency_tail_ms is p{pct:.3} of {samples} cell times; set-up times {setup_times:.4?} s",
        jobs()
    ));
    let run = Run {
        seed,
        digests: results.iter().map(|r| r.digest).collect(),
    };
    (outcome, run)
}
