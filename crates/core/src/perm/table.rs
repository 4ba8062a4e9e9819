//! Compiled transition tables: the permutation formalism as an engine.
//!
//! The paper models a replacement policy as a finite set of priority
//! orders with `Π_0 … Π_{A-1}` hit permutations and an insertion
//! position. For any *deterministic* policy whose reachable state space
//! is small — which is exactly the class the formalism targets — that
//! model can be compiled: enumerate every state reachable through the
//! pure-access protocol of a cache set (warm-up fills into ascending
//! invalid ways, hits on resident ways, miss = victim + fill) and
//! precompute `u16` transition tables. A hit then costs one table
//! lookup, and a miss one `u8` + one `u16` lookup — the paper's
//! Π-tables literally become the interpreter.
//!
//! [`PermTable::compile`] builds the tables from any deterministic
//! [`ReplacementPolicy`] (including concrete tree-PLRU, whose warm-up
//! transient falls outside the front-insertion permutation class but is
//! captured exactly here, since compilation walks the *policy's own*
//! transition graph). [`PermTable::from_spec`] compiles an abstract
//! [`PermutationSpec`] by wrapping it in a [`PermutationPolicy`] first.
//!
//! [`TablePolicy`] executes a table: a [`ReplacementPolicy`] adapter so
//! a compiled table can drive an ordinary
//! [`CacheSet`](cachekit_sim::CacheSet) or
//! [`Cache`](cachekit_sim::Cache) (the serving layer uses this).
//!
//! The compiled engine supports **pure access streams only**: reads and
//! writes, no invalidation, no external evictions. Callers that flush
//! or invalidate must stay on the enum engine.

use cachekit_policies::{PolicyKind, ReplacementPolicy};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use super::{PermutationPolicy, PermutationSpec};

/// Sentinel for never-enumerated `(state, way)` hit transitions. The
/// pure-access protocol cannot reach them (a hit requires the way to be
/// valid, and ways become valid in ascending order).
const UNREACHABLE: u16 = u16::MAX;

/// Largest state budget a table can use: `u16` ids with one value
/// reserved as the unreachable-state sentinel.
pub const MAX_STATE_BUDGET: usize = u16::MAX as usize;

/// Why a policy could not be compiled to transition tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The policy is stochastic; its transitions are not a function of
    /// the access history.
    NonDeterministic,
    /// The reachable state space exceeded the budget (e.g. full LRU at
    /// associativity 16 has `16!` orders).
    TooLarge {
        /// The state budget that was exhausted.
        budget: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::NonDeterministic => {
                write!(f, "stochastic policies cannot be table-compiled")
            }
            TableError::TooLarge { budget } => {
                write!(
                    f,
                    "reachable state space exceeds the budget of {budget} states"
                )
            }
        }
    }
}

impl Error for TableError {}

/// Compiled transition tables over the reachable states of a
/// deterministic policy driven through the pure-access protocol.
///
/// A *state* is a `(replacement state, ways filled)` pair; state `0` is
/// the cold power-on state with nothing filled. Per state `s`:
///
/// * `hit[s * A + w]` — successor after a hit on way `w`;
/// * `fill_way[s]` — the way the next fill must target (the lowest
///   invalid way during warm-up, the victim once full);
/// * `fill_next[s]` — successor after that fill (for full states this
///   folds the `victim()` side effects of policies like CLOCK or SRRIP
///   into the miss transition, matching how a cache set always pairs
///   `victim` with `on_fill`).
#[derive(Debug)]
pub struct PermTable {
    assoc: usize,
    source: String,
    n_states: usize,
    hit: Vec<u16>,
    fill_next: Vec<u16>,
    fill_way: Vec<u8>,
}

/// Work-in-progress compile state (interning map + growing tables).
struct Builder {
    assoc: usize,
    budget: usize,
    ids: HashMap<Vec<u8>, u16>,
    nodes: Vec<(Box<dyn ReplacementPolicy>, usize)>,
    hit: Vec<u16>,
    fill_next: Vec<u16>,
    fill_way: Vec<u8>,
    scratch: Vec<u8>,
}

impl Builder {
    /// Id of the `(state, filled)` node, interning it if new.
    fn intern(
        &mut self,
        policy: Box<dyn ReplacementPolicy>,
        filled: usize,
    ) -> Result<u16, TableError> {
        self.scratch.clear();
        policy.write_state_key(&mut self.scratch);
        self.scratch.push(filled as u8);
        if let Some(&id) = self.ids.get(self.scratch.as_slice()) {
            return Ok(id);
        }
        if self.nodes.len() >= self.budget {
            return Err(TableError::TooLarge {
                budget: self.budget,
            });
        }
        let id = self.nodes.len() as u16;
        self.ids.insert(self.scratch.clone(), id);
        self.nodes.push((policy, filled));
        self.hit.resize(self.hit.len() + self.assoc, UNREACHABLE);
        self.fill_next.push(UNREACHABLE);
        self.fill_way.push(0);
        Ok(id)
    }
}

impl PermTable {
    /// Compile `template`'s reachable pure-access state space into
    /// transition tables, exploring at most `max_states` states
    /// (clamped to [`MAX_STATE_BUDGET`]).
    ///
    /// The template is reset to its power-on state first; compilation
    /// relies on the [`state_key`](ReplacementPolicy::state_key)
    /// soundness contract (equal keys ⇒ identical future behaviour).
    pub fn compile(
        template: &dyn ReplacementPolicy,
        max_states: usize,
    ) -> Result<Self, TableError> {
        if !template.is_deterministic() {
            return Err(TableError::NonDeterministic);
        }
        let assoc = template.associativity();
        let mut b = Builder {
            assoc,
            budget: max_states.clamp(1, MAX_STATE_BUDGET),
            ids: HashMap::new(),
            nodes: Vec::new(),
            hit: Vec::new(),
            fill_next: Vec::new(),
            fill_way: Vec::new(),
            scratch: Vec::new(),
        };
        let mut fresh = template.boxed_clone();
        fresh.reset();
        b.intern(fresh, 0)?;
        let mut cursor = 0;
        while cursor < b.nodes.len() {
            let (policy, filled) = {
                let (p, filled) = &b.nodes[cursor];
                (p.boxed_clone(), *filled)
            };
            // Hits are only possible on already-filled ways (warm-up
            // fills ascend, so ways 0..filled are the valid ones).
            for way in 0..filled.min(assoc) {
                let mut next = policy.boxed_clone();
                next.on_hit(way);
                let id = b.intern(next, filled)?;
                b.hit[cursor * assoc + way] = id;
            }
            if filled < assoc {
                // Warm-up: the set fills its lowest invalid way.
                let mut next = policy.boxed_clone();
                next.on_fill(filled);
                let id = b.intern(next, filled + 1)?;
                b.fill_way[cursor] = filled as u8;
                b.fill_next[cursor] = id;
            } else {
                // Full: a miss consults the victim and fills it — one
                // combined transition, like the cache set performs it.
                let mut next = policy.boxed_clone();
                let victim = next.victim();
                assert!(victim < assoc, "victim {victim} out of range");
                next.on_fill(victim);
                let id = b.intern(next, assoc)?;
                b.fill_way[cursor] = victim as u8;
                b.fill_next[cursor] = id;
            }
            cursor += 1;
        }
        Ok(PermTable {
            assoc,
            source: template.name(),
            n_states: b.nodes.len(),
            hit: b.hit,
            fill_next: b.fill_next,
            fill_way: b.fill_way,
        })
    }

    /// Compile an abstract permutation spec (wrapped in a
    /// [`PermutationPolicy`] interpreter first).
    pub fn from_spec(spec: &PermutationSpec, max_states: usize) -> Result<Self, TableError> {
        Self::compile(&PermutationPolicy::new(spec.clone()), max_states)
    }

    /// Associativity the table was compiled for.
    pub fn associativity(&self) -> usize {
        self.assoc
    }

    /// Number of reachable `(state, filled)` nodes.
    pub fn states(&self) -> usize {
        self.n_states
    }

    /// Name of the policy the table was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Approximate table memory in bytes (for bench reports).
    pub fn table_bytes(&self) -> usize {
        self.hit.len() * 2 + self.fill_next.len() * 2 + self.fill_way.len()
    }

    #[inline]
    fn hit_next(&self, state: u16, way: usize) -> u16 {
        let next = self.hit[state as usize * self.assoc + way];
        assert!(
            next != UNREACHABLE,
            "hit on way {way} in state {state} is outside the pure-access protocol"
        );
        next
    }
}

/// [`ReplacementPolicy`] adapter over a compiled [`PermTable`], so the
/// table engine can drive an ordinary [`Cache`](cachekit_sim::Cache)
/// (dirty bits, write-backs and statistics come from the cache for
/// free, bit-identical to the enum engine).
///
/// Supports the pure-access protocol only:
/// [`on_invalidate`](ReplacementPolicy::on_invalidate) panics, and
/// fills must target the way the table predicts (always true when
/// driven by a cache set that is never invalidated or force-evicted).
#[derive(Debug, Clone)]
pub struct TablePolicy {
    table: Arc<PermTable>,
    state: u16,
}

impl TablePolicy {
    /// Create a cold-state policy executing `table`.
    pub fn new(table: Arc<PermTable>) -> Self {
        Self { table, state: 0 }
    }
}

impl ReplacementPolicy for TablePolicy {
    fn associativity(&self) -> usize {
        self.table.associativity()
    }

    fn name(&self) -> String {
        format!("Table({})", self.table.source())
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.state = self.table.hit_next(self.state, way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.table.fill_way[self.state as usize] as usize
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        let s = self.state as usize;
        assert_eq!(
            way, self.table.fill_way[s] as usize,
            "fill outside the pure-access protocol (invalidation is not supported \
             by the compiled-table engine)"
        );
        self.state = self.table.fill_next[s];
    }

    fn on_invalidate(&mut self, _way: usize) {
        panic!(
            "the eagerly-compiled table engine does not support invalidation; \
             use LazyTablePolicy (generalized event alphabet) or the enum engine"
        );
    }

    fn reset(&mut self) {
        self.state = 0;
    }

    fn state_key(&self) -> Vec<u8> {
        self.state.to_le_bytes().to_vec()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.state.to_le_bytes());
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Compile (and memoize process-wide) the table for a deterministic
/// catalog kind at the given associativity, with the full
/// [`MAX_STATE_BUDGET`]. Returns `None` for stochastic kinds, invalid
/// kind/assoc combinations, and state spaces over budget — callers fall
/// back to the enum engine. Negative results are memoized too, so a
/// too-large space is only explored once.
pub fn table_for_kind(kind: PolicyKind, assoc: usize) -> Option<Arc<PermTable>> {
    if !kind.is_deterministic() || kind.validate_for_assoc(assoc).is_err() {
        return None;
    }
    type Memo = Mutex<HashMap<(PolicyKind, usize), Option<Arc<PermTable>>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    {
        let guard = memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = guard.get(&(kind, assoc)) {
            return entry.clone();
        }
    }
    // Compile outside the lock (can take a while for ~50k-state spaces);
    // concurrent compiles of the same key are idempotent.
    let compiled = PermTable::compile(&kind.build_state(assoc, 0), MAX_STATE_BUDGET)
        .ok()
        .map(Arc::new);
    let mut guard = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.entry((kind, assoc)).or_insert(compiled).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::rng::Prng;
    use cachekit_policies::PolicyState;
    use cachekit_sim::CacheSet;

    fn random_stream(assoc: usize, len: usize, seed: u64) -> Vec<u64> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(0..(3 * assoc as u64)))
            .collect()
    }

    fn table_set(table: Arc<PermTable>) -> CacheSet {
        CacheSet::from_state(PolicyState::from_boxed(Box::new(TablePolicy::new(table))))
    }

    fn assert_table_matches_set(kind: PolicyKind, assoc: usize) {
        let table = PermTable::compile(&kind.build_state(assoc, 0), MAX_STATE_BUDGET)
            .unwrap_or_else(|e| panic!("{kind:?} A={assoc}: {e}"));
        let mut ts = table_set(Arc::new(table));
        let mut cs = CacheSet::from_state(kind.build_state(assoc, 0));
        for (i, &tag) in random_stream(assoc, 3000, 0xABBA).iter().enumerate() {
            let a = ts.access_tag(tag);
            let b = cs.access_tag(tag);
            assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
        }
        for w in 0..assoc {
            assert_eq!(
                ts.tag_in_way(w),
                cs.tag_in_way(w),
                "{kind:?} A={assoc} way {w}"
            );
        }
    }

    #[test]
    fn compiled_lru_matches_the_concrete_set() {
        assert_table_matches_set(PolicyKind::Lru, 4);
        assert_table_matches_set(PolicyKind::Lru, 8);
    }

    #[test]
    fn compiled_fifo_is_tiny_and_exact() {
        let table = PermTable::compile(&PolicyKind::Fifo.build_state(8, 0), 1000).unwrap();
        // FIFO: hits are self-loops, so the reachable space is one chain
        // of 8 warm-up states plus an 8-cycle of full rotations.
        assert_eq!(table.states(), 16);
        assert_table_matches_set(PolicyKind::Fifo, 8);
        assert_table_matches_set(PolicyKind::Fifo, 16);
    }

    #[test]
    fn compiled_tree_plru_captures_the_warmup_transient() {
        // The derived front-insertion spec for tree-PLRU is only valid in
        // steady state; compiling the concrete policy is exact from cold.
        assert_table_matches_set(PolicyKind::TreePlru, 4);
        assert_table_matches_set(PolicyKind::TreePlru, 8);
    }

    #[test]
    fn stochastic_kinds_are_rejected() {
        let err = PermTable::compile(
            &PolicyKind::Random { seed: 1 }.build_state(4, 0),
            MAX_STATE_BUDGET,
        );
        assert_eq!(err.unwrap_err(), TableError::NonDeterministic);
    }

    #[test]
    fn over_budget_spaces_are_reported_not_truncated() {
        let err = PermTable::compile(&PolicyKind::Lru.build_state(8, 0), 100);
        assert_eq!(err.unwrap_err(), TableError::TooLarge { budget: 100 });
    }

    #[test]
    fn from_spec_replays_the_permutation_interpreter() {
        let spec = PermutationSpec::lip(4);
        let table = Arc::new(PermTable::from_spec(&spec, MAX_STATE_BUDGET).unwrap());
        let mut ts = table_set(table);
        let mut cs = CacheSet::from_state(PolicyState::from_boxed(Box::new(
            PermutationPolicy::new(spec),
        )));
        for &tag in &random_stream(4, 2000, 0x11F0) {
            assert_eq!(ts.access_tag(tag), cs.access_tag(tag));
        }
    }

    #[test]
    fn table_for_kind_memoizes_and_rejects_stochastic() {
        let a = table_for_kind(PolicyKind::Fifo, 8).unwrap();
        let b = table_for_kind(PolicyKind::Fifo, 8).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the table");
        assert!(table_for_kind(PolicyKind::Bip { throttle: 32 }, 8).is_none());
        assert!(table_for_kind(PolicyKind::Slru { protected: 9 }, 8).is_none());
    }
}
