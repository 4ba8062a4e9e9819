//! The catalog of known permutation policies.
//!
//! The reverse-engineering pipeline matches an inferred
//! [`PermutationSpec`] against this catalog; a miss means the processor
//! implements a *previously undocumented* policy, the paper's headline
//! outcome for some of its targets.

use crate::perm::PermutationSpec;
use cachekit_policies::PolicyKind;

/// A named catalog policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Canonical policy name (e.g. `"LRU"`, `"PLRU"`).
    pub name: &'static str,
    /// The policy's permutation spec at the catalog associativity.
    pub spec: PermutationSpec,
}

/// All catalog policies at the given associativity, each built by
/// [`PermutationSpec::for_kind`].
///
/// Always contains LRU, FIFO and LIP; contains PLRU whenever tree-PLRU at
/// this associativity *is* a permutation policy (always for powers of
/// two; the generalised tree for other associativities is included only
/// if the derivation succeeds and validates).
pub fn catalog_for(assoc: usize) -> Vec<CatalogEntry> {
    [
        ("LRU", PolicyKind::Lru),
        ("FIFO", PolicyKind::Fifo),
        ("LIP", PolicyKind::Lip),
        ("PLRU", PolicyKind::TreePlru),
    ]
    .into_iter()
    .filter_map(|(name, kind)| {
        PermutationSpec::for_kind(kind, assoc).map(|spec| CatalogEntry { name, spec })
    })
    .collect()
}

/// Match `spec` against the catalog, returning the canonical name if it
/// is a known policy.
///
/// Specs produced by the read-out algorithm are canonical (the read-out
/// is deterministic), so structural equality is the right comparison.
pub fn match_spec(spec: &PermutationSpec) -> Option<&'static str> {
    catalog_for(spec.associativity())
        .into_iter()
        .find(|e| &e.spec == spec)
        .map(|e| e.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::derive_permutation_spec;

    #[test]
    fn catalog_contains_plru_for_powers_of_two() {
        for assoc in [2usize, 4, 8, 16] {
            let names: Vec<_> = catalog_for(assoc).iter().map(|e| e.name).collect();
            assert!(names.contains(&"PLRU"), "assoc {assoc}: {names:?}");
        }
    }

    #[test]
    fn catalog_entries_have_distinct_specs_beyond_assoc_two() {
        // At associativity 2, PLRU *is* LRU, so distinctness only holds
        // from 4 ways up.
        for assoc in [4usize, 8] {
            let entries = catalog_for(assoc);
            for i in 0..entries.len() {
                for j in (i + 1)..entries.len() {
                    assert_ne!(
                        entries[i].spec, entries[j].spec,
                        "{} and {} coincide at assoc {assoc}",
                        entries[i].name, entries[j].name
                    );
                }
            }
        }
    }

    #[test]
    fn derived_specs_match_their_catalog_names() {
        // LazyLRU is the undocumented policy: a permutation policy that
        // no catalog entry describes.
        for (kind, name) in [
            (PolicyKind::Lru, Some("LRU")),
            (PolicyKind::Fifo, Some("FIFO")),
            (PolicyKind::TreePlru, Some("PLRU")),
            (PolicyKind::LazyLru, None),
        ] {
            let spec = derive_permutation_spec(Box::new(kind.build_state(8, 0))).unwrap();
            assert_eq!(match_spec(&spec), name, "{kind:?}");
        }
    }
}
