//! **Table 3** — cost of the inference campaign (measurements and memory
//! accesses) as a function of associativity, for geometry inference,
//! the permutation read-out, and the automata learner separately. The
//! permutation read-out is O(A² log A) measurements; the automata
//! learner is polynomial in the *learned machine's* states (for LRU,
//! 1 + 2A + A(A−1) states), so its columns grow much faster — the price
//! of the stronger model class.
//!
//! Run with: `cargo run --release -p cachekit-bench --bin table3_cost [-- --smoke]`

use cachekit_bench::{jobj, json::Json, Runner, Table};
use cachekit_core::infer::{
    infer_geometry, AutomataEngine, CacheOracleExt, Counting, InferenceConfig, InferenceEngine,
    InferenceRequest, PermutationEngine, SimOracle,
};
use cachekit_policies::PolicyKind;
use cachekit_sim::{Cache, CacheConfig};

/// Largest associativity the automata columns cover: the learned LRU
/// machine has 1 + 2A + A(A−1) states and L* pays quadratically in
/// them, so beyond 8 ways the learner's cost dwarfs the rest of the
/// table's runtime. Skipped cells are printed as `-` and logged, never
/// silently truncated.
const AUTOMATA_MAX_ASSOC: usize = 8;

fn parse_smoke() -> bool {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: table3_cost [--smoke]");
                println!("  --smoke   associativities 2 and 4 only (for CI)");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    smoke
}

fn main() {
    let smoke = parse_smoke();
    // Smoke runs (the CI gate) write a separate artifact so they never
    // clobber the committed full-run table.
    let name = if smoke {
        "table3_cost_smoke"
    } else {
        "table3_cost"
    };
    let mut run = Runner::new(name);
    let mut table = Table::new(
        "Table 3: inference cost vs associativity (LRU target, 64-set cache)",
        &[
            "assoc",
            "geometry measurements",
            "geometry accesses",
            "permutation measurements",
            "permutation accesses",
            "automata measurements",
            "automata accesses",
        ],
    );
    let config = InferenceConfig::default();
    let mut series = Vec::new();

    // Each associativity is an independent campaign against its own
    // simulated cache; fan them out (the widest campaign dominates).
    let assocs: Vec<usize> = if smoke {
        vec![2, 4]
    } else {
        vec![2, 4, 8, 16, 24, 32]
    };
    let oracle_for = |assoc: usize| {
        let capacity = (assoc as u64) * 64 * 64; // 64 sets
        let cache = Cache::new(
            CacheConfig::new(capacity, assoc, 64).expect("valid geometry"),
            PolicyKind::Lru,
        );
        SimOracle::new(cache).layer(Counting)
    };
    type Costs = (u64, u64, u64, u64, Option<(u64, u64)>);
    let costs: Vec<Costs> = cachekit_sim::par_map(&assocs, run.jobs(), |&assoc| {
        let mut oracle = oracle_for(assoc);
        let geometry = infer_geometry(&mut oracle, &config).expect("geometry");
        let (gm, ga) = (oracle.measurements(), oracle.accesses());
        let request = InferenceRequest::new(geometry, config.clone());
        let report = PermutationEngine::strict().infer(&mut oracle, &request);
        let matched = report.finding().and_then(|f| f.matched());
        assert_eq!(matched, Some("LRU"), "assoc {assoc}");
        let (pm, pa) = (oracle.measurements() - gm, oracle.accesses() - ga);
        assert_eq!(report.measurements_used, pm, "assoc {assoc}");

        // The automata campaign runs against a *fresh* oracle so its
        // Counting deltas are not polluted by the permutation run.
        let automata = (assoc <= AUTOMATA_MAX_ASSOC).then(|| {
            let mut oracle = oracle_for(assoc);
            infer_geometry(&mut oracle, &config).expect("geometry");
            let (gm, ga) = (oracle.measurements(), oracle.accesses());
            let report = AutomataEngine::default().infer(&mut oracle, &request);
            let matched = report.finding().and_then(|f| f.matched());
            assert_eq!(matched, Some("LRU"), "automata, assoc {assoc}");
            (oracle.measurements() - gm, oracle.accesses() - ga)
        });
        (gm, ga, pm, pa, automata)
    });
    run.add_cells(assocs.len() as u64);

    for (&assoc, &(gm, ga, pm, pa, automata)) in assocs.iter().zip(&costs) {
        let (am, aa) = automata.unwrap_or((0, 0));
        run.count("measurements", gm + pm + am);
        run.count("accesses", ga + pa + aa);
        let cell = |v: u64| match automata {
            Some(_) => v.to_string(),
            None => "-".to_owned(),
        };
        table.row(vec![
            assoc.to_string(),
            gm.to_string(),
            ga.to_string(),
            pm.to_string(),
            pa.to_string(),
            cell(am),
            cell(aa),
        ]);
        series.push(jobj! {
            "assoc": assoc,
            "geometry": jobj! {"measurements": gm, "accesses": ga},
            "policy": jobj! {"measurements": pm, "accesses": pa},
            "automata": match automata {
                Some((am, aa)) => jobj! {"measurements": am, "accesses": aa},
                None => Json::Null,
            },
        });
    }
    run.finish(&table, Json::from(series));
    if let Some(&skipped) = assocs.iter().find(|&&a| a > AUTOMATA_MAX_ASSOC) {
        println!(
            "automata columns stop at {AUTOMATA_MAX_ASSOC} ways (first skipped: {skipped}): \
             learning LRU's 1+2A+A(A-1)-state machine is quadratic in its states."
        );
    }
    println!(
        "The permutation column grows ~A^2 log A: each of the A+1 read-outs\n\
         asks A positions, each answered by a log2(A) binary search of voted\n\
         boolean measurements. The automata column pays for the stronger\n\
         model class: membership words quadratic in the learned machine."
    );
}
