//! **Fig. 3** — miss ratio of the discovered policies vs textbook
//! policies across the workload suite, at a fixed L2-like geometry.
//! Reported both absolute and relative to LRU, the paper's reference.
//!
//! Run with: `cargo run --release -p cachekit-bench --bin fig3_missratio`

use cachekit_bench::{jobj, json::Json, pct, Runner, Table};
use cachekit_policies::{DuelFamily, PolicyKind};
use cachekit_sim::{sweep, Cache, CacheConfig, Hierarchy, LevelSpec};
use cachekit_trace::workloads;

/// Adaptive (set-dueling) policies need a fresh per-cache family; they
/// cannot be a `PolicyKind`, so simulate them explicitly.
fn adaptive_miss_ratio(config: CacheConfig, which: &str, trace: &[u64]) -> f64 {
    let mut cache = match which {
        "DIP" => {
            let bip = PolicyKind::Bip { throttle: 32 };
            let family = DuelFamily::new(bip, config.associativity(), config.num_sets(), 0xD1B);
            Cache::with_policy_factory(config, "DIP", move |set| family.policy_for_set(set))
        }
        _ => {
            let brrip = PolicyKind::Brrip {
                bits: 2,
                throttle: 32,
            };
            let family = DuelFamily::new(brrip, config.associativity(), config.num_sets(), 0xD2B);
            Cache::with_policy_factory(config, "DRRIP", move |set| family.policy_for_set(set))
        }
    };
    cache.run_trace(trace.iter().copied()).miss_ratio()
}

fn main() {
    let seed = 7;
    let mut run = Runner::new("fig3_missratio").with_seed(seed);
    let capacity = 256 * 1024u64;
    let config = CacheConfig::new(capacity, 8, 64).expect("valid geometry");
    let suite = workloads::suite(capacity, 64, seed);
    let kinds = PolicyKind::evaluation_kinds();

    let mut headers: Vec<&str> = vec!["workload"];
    let mut labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    labels.push("DIP".to_owned());
    labels.push("DRRIP".to_owned());
    labels.push("OPT".to_owned());
    headers.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(
        format!("Fig. 3: miss ratio per policy per workload ({config})"),
        &headers,
    );
    let mut rel = Table::new(
        "Fig. 3b: miss ratio relative to LRU (LRU = 1.00; <1 beats LRU)",
        &headers,
    );
    let mut series = Vec::new();

    // Each workload row is independent; fan the per-workload columns out
    // over the worker pool while keeping suite order.
    let sim_span = cachekit_obs::span("simulate_suite");
    let rows: Vec<Vec<f64>> = cachekit_sim::par_map(&suite, run.jobs(), |w| {
        let mut ratios: Vec<f64> = kinds
            .iter()
            .map(|&k| sweep::simulate(config, k, &w.trace).miss_ratio())
            .collect();
        ratios.push(adaptive_miss_ratio(config, "DIP", &w.trace));
        ratios.push(adaptive_miss_ratio(config, "DRRIP", &w.trace));
        ratios.push(cachekit_sim::opt::simulate_opt(config, &w.trace).miss_ratio());
        ratios
    });
    drop(sim_span);

    // Fig. 3c: the same policy comparison with a small PLRU L1 in front
    // (hierarchy engine, NINE containment). The L1 absorbs the short
    // reuse distances, so the L2 sees a filtered trace — which is what
    // the LLC policy faces on real parts, and what shifts the ranking.
    let l1_config = CacheConfig::new(8 * 1024, 4, 64).expect("valid geometry");
    let mut hier_headers: Vec<&str> = vec!["workload"];
    hier_headers.extend(labels[..kinds.len()].iter().map(String::as_str));
    let mut hier_table = Table::new(
        format!(
            "Fig. 3c: L2 local miss ratio behind an 8 KiB PLRU L1 (hierarchy engine, {config})"
        ),
        &hier_headers,
    );
    let hier_span = cachekit_obs::span("simulate_suite_hierarchy");
    let hier_rows: Vec<Vec<f64>> = cachekit_sim::par_map(&suite, run.jobs(), |w| {
        kinds
            .iter()
            .map(|&k| {
                let mut h = Hierarchy::new(vec![
                    LevelSpec::new(l1_config, PolicyKind::TreePlru),
                    LevelSpec::new(config, k),
                ]);
                for &a in &w.trace {
                    h.access(a);
                }
                let l2 = &h.stats()[1];
                if l2.accesses == 0 {
                    0.0
                } else {
                    l2.miss_ratio()
                }
            })
            .collect()
    });
    drop(hier_span);

    for ((w, ratios), hier) in suite.iter().zip(&rows).zip(&hier_rows) {
        run.add_cells(ratios.len() as u64);
        run.count("accesses", (w.trace.len() * ratios.len()) as u64);
        let lru = ratios[0].max(1e-9); // LRU is the first evaluation kind
        let mut abs_cells = vec![w.name.to_owned()];
        let mut rel_cells = vec![w.name.to_owned()];
        for &r in ratios {
            abs_cells.push(pct(r));
            rel_cells.push(format!("{:.2}", r / lru));
        }
        table.row(abs_cells);
        rel.row(rel_cells);
        let mut hier_cells = vec![w.name.to_owned()];
        hier_cells.extend(hier.iter().map(|&r| pct(r)));
        hier_table.row(hier_cells);
        run.add_cells(hier.len() as u64);
        series.push(jobj! {
            "workload": w.name,
            "policies": labels.clone(),
            "miss_ratios": ratios.clone(),
            "hier_policies": labels[..kinds.len()].to_vec(),
            "hier_l2_miss_ratios": hier.clone(),
        });
    }
    run.finish(&table, Json::from(series));
    println!("{}", rel.to_markdown());
    println!("{}", hier_table.to_markdown());
}
