//! **Fig. 6** — predictability of the policies: the exact `evict` and
//! `mls` distances per policy and associativity, computed by game search
//! (see `cachekit_core::analysis`). Reproduces the classic values
//! (`evict(LRU)=A`, `evict(FIFO)=2A-1`, `evict(PLRU)=A/2·log2(A)+1`,
//! `mls(PLRU)=log2(A)+1`) and adds the discovered LazyLRU.
//!
//! All the policies in the figure are permutation policies, so the
//! specialized quotient solvers (`evict_distance_spec` /
//! `minimal_lifespan_spec`) carry the computation to 16 ways; the generic
//! explicit-state solvers cross-check them at small associativities.
//!
//! Run with: `cargo run --release -p cachekit-bench --bin fig6_predictability`

use cachekit_bench::{jobj, json::Json, Runner, Table};
use cachekit_core::analysis::{
    evict_distance, evict_distance_spec, minimal_lifespan, minimal_lifespan_spec, DistanceError,
};
use cachekit_core::perm::PermutationSpec;
use cachekit_policies::PolicyKind;

fn show(r: &Result<usize, DistanceError>) -> String {
    match r {
        Ok(v) => v.to_string(),
        Err(DistanceError::Unbounded) => "unbounded".to_owned(),
        Err(DistanceError::TooLarge { .. }) => "(budget)".to_owned(),
        Err(DistanceError::NonDeterministic) => "n/a".to_owned(),
    }
}

fn main() {
    let mut run = Runner::new("fig6_predictability");
    let kinds = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::TreePlru,
        PolicyKind::LazyLru,
        PolicyKind::Lip,
    ];
    let assocs = [2usize, 4, 8, 16];
    let budget = 8_000_000;

    let mut headers = vec!["policy".to_owned()];
    for a in assocs {
        headers.push(format!("A={a} evict"));
        headers.push(format!("A={a} mls"));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig. 6: predictability — evict / mls per policy and associativity",
        &headers_ref,
    );
    // Every (policy, assoc) game is independent; solve the grid on the
    // worker pool (the 16-way games dominate, so this splits the tail).
    let grid: Vec<(PolicyKind, usize)> = kinds
        .iter()
        .flat_map(|&k| assocs.iter().map(move |&a| (k, a)))
        .collect();
    type Distances = (Result<usize, DistanceError>, Result<usize, DistanceError>);
    let solve_span = cachekit_obs::span("solve_distances");
    let solved: Vec<Distances> = cachekit_sim::par_map(&grid, run.jobs(), |&(kind, a)| {
        let (e, m) = match PermutationSpec::for_kind(kind, a) {
            Some(spec) => (
                evict_distance_spec(&spec, budget),
                minimal_lifespan_spec(&spec, budget),
            ),
            None => {
                let p = kind.build_state(a, 0);
                (evict_distance(&p, budget), minimal_lifespan(&p, budget))
            }
        };
        // Cross-check the quotient solver against the generic one
        // where the latter is tractable.
        if a <= 4 {
            let p = kind.build_state(a, 0);
            assert_eq!(e, evict_distance(&p, budget), "{kind:?} A={a}");
            assert_eq!(m, minimal_lifespan(&p, budget), "{kind:?} A={a}");
        }
        (e, m)
    });
    drop(solve_span);
    run.add_cells(grid.len() as u64);

    let mut series = Vec::new();
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut cells = vec![kind.label()];
        for (ai, &a) in assocs.iter().enumerate() {
            let (e, m) = &solved[ki * assocs.len() + ai];
            cells.push(show(e));
            cells.push(show(m));
            series.push(jobj! {
                "policy": kind.label(), "assoc": a,
                "evict": e.as_ref().ok().copied(), "mls": m.as_ref().ok().copied(),
            });
        }
        table.row(cells);
    }
    run.finish(&table, Json::from(series));
    println!(
        "evict = pairwise-distinct accesses guaranteeing a fully known set;\n\
         mls   = fastest adversarial eviction of a freshly inserted line.\n\
         (PLRU exists only at powers of two; its 16-way mls exceeds the\n\
         3^16-node budget of the quotient game.)"
    );
}
