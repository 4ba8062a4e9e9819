//! The names of the retired transition-table engines, as a stub.
//!
//! The eager and lazy table adapters are gone: every simulated cache runs
//! on the batch kernel or the enum engine. perfbench's traced replay
//! (`perfbench/src/replay.rs`), which changes only with the benchmark,
//! still imports these four names in its copy of the engine pick. Here
//! both lookups return `None` for every kind and associativity, so that
//! copy picks `kernel` or `enum` exactly as serve does, and the adapter
//! wraps an uninhabited type, so no value of it can exist. No crate of
//! this workspace uses the stub; ROADMAP item 8's benchmark change
//! deletes it together with the replay's table branches.

use cachekit_policies::{PolicyKind, ReplacementPolicy};
use std::convert::Infallible;
use std::sync::Arc;

/// Always `None`: no kind compiles to an eager table.
pub fn table_for_kind(_kind: PolicyKind, _assoc: usize) -> Option<Arc<Infallible>> {
    None
}

/// Always `None`: no kind compiles to a lazy table.
pub fn lazy_table_for_kind(_kind: PolicyKind, _assoc: usize) -> Option<Arc<Infallible>> {
    None
}

/// The retired table adapter. It wraps an uninhabited type, so no value
/// of it exists and none of its methods can run.
#[derive(Debug, Clone)]
pub struct TablePolicy(Infallible);

/// The retired lazy table adapter: the same uninhabited adapter.
pub type LazyTablePolicy = TablePolicy;

impl TablePolicy {
    /// Wrap a table; no table exists, so this is never called.
    pub fn new(table: Arc<Infallible>) -> Self {
        match *table {}
    }
}

impl ReplacementPolicy for TablePolicy {
    fn associativity(&self) -> usize {
        match self.0 {}
    }

    fn name(&self) -> String {
        match self.0 {}
    }

    fn on_hit(&mut self, _way: usize) {
        match self.0 {}
    }

    fn victim(&mut self) -> usize {
        match self.0 {}
    }

    fn on_fill(&mut self, _way: usize) {
        match self.0 {}
    }

    fn reset(&mut self) {
        match self.0 {}
    }

    fn state_key(&self) -> Vec<u8> {
        match self.0 {}
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        match self.0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_kind_compiles_to_a_table() {
        for kind in PolicyKind::differential_kinds() {
            for assoc in 1..=32 {
                assert!(table_for_kind(kind, assoc).is_none(), "{kind:?}@{assoc}");
                assert!(
                    lazy_table_for_kind(kind, assoc).is_none(),
                    "{kind:?}@{assoc}"
                );
            }
        }
    }
}
