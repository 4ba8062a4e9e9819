//! **Fig. 1** — the permutation vectors of the canonical policies, the
//! paper's illustration of the formalism. LRU, FIFO and LIP are written
//! down from their recency-stack rules; PLRU's vectors are *derived mechanically* from the
//! executable tree implementation, and LazyLRU's (the undocumented-policy
//! stand-in) likewise.
//!
//! Run with: `cargo run --release -p cachekit-bench --bin fig1_vectors`

use cachekit_bench::{json::Json, Runner, Table};
use cachekit_core::perm::{derive_permutation_spec, PermutationSpec};
use cachekit_policies::{PolicyKind, TreePlru};

fn main() {
    let mut run = Runner::new("fig1_vectors");
    let mut table = Table::new(
        "Fig. 1: permutation vectors of canonical policies",
        &[
            "policy",
            "assoc",
            "hit permutations (position 0 first)",
            "insert",
        ],
    );
    let mut cells = 0u64;
    let mut add = |name: &str, spec: &PermutationSpec| {
        let perms = spec
            .hit_permutations()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        cells += 1;
        table.row(vec![
            name.to_owned(),
            spec.associativity().to_string(),
            perms,
            spec.insertion_position().to_string(),
        ]);
    };

    let derive_span = cachekit_obs::span("derive_vectors");
    for assoc in [4usize, 8] {
        for (name, kind) in [
            ("LRU", PolicyKind::Lru),
            ("FIFO", PolicyKind::Fifo),
            ("LIP", PolicyKind::Lip),
        ] {
            add(
                name,
                &PermutationSpec::for_kind(kind, assoc).expect("a recency-stack kind"),
            );
        }
        let plru = derive_permutation_spec(Box::new(TreePlru::new(assoc)))
            .expect("pow2 tree-PLRU is a permutation policy");
        add("PLRU", &plru);
        let lazy = derive_permutation_spec(Box::new(PolicyKind::LazyLru.build_state(assoc, 0)))
            .expect("LazyLRU is a permutation policy");
        add("LazyLRU", &lazy);
    }
    drop(derive_span);
    run.add_cells(cells);
    run.finish(
        &table,
        Json::from("PLRU/LazyLRU vectors derived mechanically"),
    );

    // Also show the negative result: non-power-of-two tree-PLRU is *not*
    // a permutation policy.
    for assoc in [3usize, 6, 24] {
        match derive_permutation_spec(Box::new(TreePlru::new(assoc))) {
            Ok(_) => println!("tree-PLRU({assoc}): unexpectedly derived"),
            Err(e) => println!("tree-PLRU({assoc}): NOT a permutation policy — {e}"),
        }
    }
}
