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
//! Two execution adapters sit on top:
//!
//! * [`TableSet`] — a bare single set (tags + validity + `u16` state)
//!   for throughput benchmarks and differential tests;
//! * [`TablePolicy`] — a [`ReplacementPolicy`] adapter so a compiled
//!   table can drive an ordinary [`CacheSet`](cachekit_sim::CacheSet)
//!   or [`Cache`](cachekit_sim::Cache) (the serving layer uses this).
//!
//! The compiled engine supports **pure access streams only**: reads and
//! writes, no invalidation, no external evictions. Callers that flush
//! or invalidate must stay on the enum engine.

use cachekit_policies::{PolicyKind, ReplacementPolicy};
use cachekit_sim::{find_way, AccessOutcome};
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

/// Validity mask of a flat table-engine set holding `filled` lines: the
/// pure-access protocol fills ways in ascending order, so exactly ways
/// `0..filled` are valid.
#[inline]
pub(crate) fn filled_mask(filled: usize) -> u128 {
    if filled >= 128 {
        u128::MAX
    } else {
        (1u128 << filled) - 1
    }
}

/// A single cache set executing a compiled [`PermTable`]: dense tags, a
/// validity mask and one `u16` state — nothing else.
///
/// Supports pure access streams only (no invalidation); behaviour is
/// bit-identical to driving the source policy through a
/// [`CacheSet`](cachekit_sim::CacheSet) with read accesses.
#[derive(Debug, Clone)]
pub struct TableSet {
    table: Arc<PermTable>,
    tags: Vec<u64>,
    valid: u128,
    state: u16,
}

impl TableSet {
    /// Create a cold set executing `table`.
    pub fn new(table: Arc<PermTable>) -> Self {
        let assoc = table.associativity();
        Self {
            table,
            tags: vec![0; assoc],
            valid: 0,
            state: 0,
        }
    }

    /// Number of ways.
    pub fn associativity(&self) -> usize {
        self.tags.len()
    }

    /// Look up `tag`; on a miss, install it. `evicted` in the outcome
    /// carries the displaced tag.
    #[inline]
    pub fn access(&mut self, tag: u64) -> AccessOutcome {
        if let Some(way) = find_way(&self.tags, self.valid, tag) {
            self.state = self.table.hit_next(self.state, way);
            return AccessOutcome::Hit;
        }
        let s = self.state as usize;
        let way = self.table.fill_way[s] as usize;
        let bit = 1u128 << way;
        let evicted = (self.valid & bit != 0).then(|| self.tags[way]);
        self.tags[way] = tag;
        self.valid |= bit;
        self.state = self.table.fill_next[s];
        AccessOutcome::Miss { evicted }
    }

    /// Run a stream of accesses, returning `(hits, misses)`.
    ///
    /// Access-for-access identical to calling [`access`](Self::access)
    /// per element, but once the set is full the loop tightens: the
    /// validity mask is constant (every way stays valid) and the
    /// per-transition bookkeeping reduces to the two table reads.
    pub fn access_many(&mut self, stream: &[u64]) -> (u64, u64) {
        let assoc = self.tags.len();
        let full = filled_mask(assoc);
        let mut hits = 0u64;
        let mut rest = stream;
        while self.valid != full {
            let Some((&tag, tail)) = rest.split_first() else {
                return (hits, stream.len() as u64 - hits);
            };
            rest = tail;
            if self.access(tag).is_hit() {
                hits += 1;
            }
        }
        let hit_rows = self.table.hit.as_slice();
        let fill_way = self.table.fill_way.as_slice();
        let fill_next = self.table.fill_next.as_slice();
        let tags = self.tags.as_mut_slice();
        let mut state = self.state as usize;
        for &tag in rest {
            if let Some(way) = find_way(tags, full, tag) {
                state = hit_rows[state * assoc + way] as usize;
                hits += 1;
            } else {
                let way = fill_way[state] as usize;
                tags[way] = tag;
                state = fill_next[state] as usize;
            }
        }
        self.state = state as u16;
        (hits, stream.len() as u64 - hits)
    }

    /// The tag resident in `way`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn tag_in_way(&self, way: usize) -> Option<u64> {
        let tag = self.tags[way];
        (self.valid & (1u128 << way) != 0).then_some(tag)
    }

    /// Drop all contents and return to the cold power-on state.
    pub fn reset(&mut self) {
        self.valid = 0;
        self.state = 0;
    }
}

/// A whole multi-set cache executing one compiled [`PermTable`] with
/// flat storage: all sets' tags in a single slab, one `u16` state and
/// one `u8` fill count per set, and the transition tables shared.
///
/// This is the table engine at realistic cache sizes. A per-set
/// [`TableSet`] (or a [`Cache`](cachekit_sim::Cache) of boxed policies)
/// scatters each set across its own heap allocations, so an interleaved
/// access stream pays a chain of dependent cache misses per access; here
/// a set's tags, state and fill count are three independent loads into
/// three dense arrays.
///
/// The fill count stands in for a validity mask: the pure-access
/// protocol fills ways in ascending order, so exactly ways
/// `0..filled[set]` are valid. Like [`TableSet`], the engine supports
/// pure access streams only (no invalidation or external eviction, which
/// would break that invariant — and the table's, which encodes fill
/// targets per state).
#[derive(Debug, Clone)]
pub struct TableCache {
    table: Arc<PermTable>,
    tags: Vec<u64>,
    state: Vec<u16>,
    filled: Vec<u8>,
}

impl TableCache {
    /// Create a cold cache of `sets` sets executing `table`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(table: Arc<PermTable>, sets: usize) -> Self {
        assert!(sets >= 1, "a cache needs at least one set");
        let assoc = table.associativity();
        Self {
            tags: vec![0; sets * assoc],
            state: vec![0; sets],
            filled: vec![0; sets],
            table,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.state.len()
    }

    /// Number of ways per set.
    pub fn associativity(&self) -> usize {
        self.table.associativity()
    }

    /// Look up `tag` in `set`; on a miss, install it. `evicted` in the
    /// outcome carries the displaced tag.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn access(&mut self, set: usize, tag: u64) -> AccessOutcome {
        let assoc = self.table.associativity();
        let tags = &mut self.tags[set * assoc..(set + 1) * assoc];
        let st = self.state[set];
        let filled = self.filled[set] as usize;
        if let Some(way) = find_way(tags, filled_mask(filled), tag) {
            self.state[set] = self.table.hit_next(st, way);
            return AccessOutcome::Hit;
        }
        let way = self.table.fill_way[st as usize] as usize;
        let evicted = if filled == assoc {
            Some(tags[way])
        } else {
            debug_assert_eq!(way, filled, "warm-up fills ascend");
            self.filled[set] = filled as u8 + 1;
            None
        };
        tags[way] = tag;
        self.state[set] = self.table.fill_next[st as usize];
        AccessOutcome::Miss { evicted }
    }

    /// Run an interleaved stream of `(set, tag)` accesses, returning
    /// `(hits, misses)`. Access-for-access identical to calling
    /// [`access`](Self::access) per element, with the table rows hoisted
    /// out of the loop: an access is the masked tag lookup and the two
    /// table reads.
    ///
    /// # Panics
    ///
    /// Panics if any set index is out of range.
    pub fn access_many(&mut self, stream: &[(u32, u64)]) -> (u64, u64) {
        let assoc = self.table.associativity();
        let hit_rows = self.table.hit.as_slice();
        let fill_way = self.table.fill_way.as_slice();
        let fill_next = self.table.fill_next.as_slice();
        let mut hits = 0u64;
        for &(set, tag) in stream {
            let set = set as usize;
            let tags = &mut self.tags[set * assoc..(set + 1) * assoc];
            let st = self.state[set] as usize;
            let filled = self.filled[set] as usize;
            if let Some(way) = find_way(tags, filled_mask(filled), tag) {
                self.state[set] = hit_rows[st * assoc + way];
                hits += 1;
            } else {
                let way = fill_way[st] as usize;
                tags[way] = tag;
                if filled < assoc {
                    self.filled[set] = filled as u8 + 1;
                }
                self.state[set] = fill_next[st];
            }
        }
        (hits, stream.len() as u64 - hits)
    }

    /// The tag resident in `way` of `set`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn tag_in_way(&self, set: usize, way: usize) -> Option<u64> {
        let assoc = self.table.associativity();
        assert!(way < assoc, "way {way} out of range");
        let tag = self.tags[set * assoc + way];
        (way < self.filled[set] as usize).then_some(tag)
    }

    /// Drop all contents and return every set to the cold state.
    pub fn reset(&mut self) {
        self.state.fill(0);
        self.filled.fill(0);
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

    fn assert_table_matches_set(kind: PolicyKind, assoc: usize) {
        let table = PermTable::compile(&kind.build_state(assoc, 0), MAX_STATE_BUDGET)
            .unwrap_or_else(|e| panic!("{kind:?} A={assoc}: {e}"));
        let mut ts = TableSet::new(Arc::new(table));
        let mut cs = CacheSet::from_state(kind.build_state(assoc, 0));
        for (i, &tag) in random_stream(assoc, 3000, 0xABBA).iter().enumerate() {
            let a = ts.access(tag);
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
        let mut ts = TableSet::new(table);
        let mut cs = CacheSet::from_state(PolicyState::from_boxed(Box::new(
            PermutationPolicy::new(spec),
        )));
        for &tag in &random_stream(4, 2000, 0x11F0) {
            assert_eq!(ts.access(tag), cs.access_tag(tag));
        }
    }

    #[test]
    fn table_policy_in_a_cache_set_matches_the_table_set() {
        let table = table_for_kind(PolicyKind::Lru, 4).unwrap();
        let mut ts = TableSet::new(table.clone());
        let mut cs =
            CacheSet::from_state(PolicyState::from_boxed(Box::new(TablePolicy::new(table))));
        for &tag in &random_stream(4, 2000, 0x7AB7) {
            assert_eq!(ts.access(tag), cs.access_tag(tag));
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

    #[test]
    fn table_cache_matches_independent_table_sets() {
        for (kind, assoc) in [
            (PolicyKind::Lru, 8),
            (PolicyKind::Fifo, 8),
            (PolicyKind::TreePlru, 8),
            (PolicyKind::Lru, 4),
        ] {
            let table = table_for_kind(kind, assoc).unwrap();
            const SETS: usize = 32;
            let mut cache = TableCache::new(table.clone(), SETS);
            let mut sets: Vec<TableSet> = (0..SETS).map(|_| TableSet::new(table.clone())).collect();
            let mut rng = Prng::seed_from_u64(0x5E75);
            let stream: Vec<(u32, u64)> = (0..20_000)
                .map(|_| {
                    (
                        rng.gen_range(0..SETS as u64) as u32,
                        rng.gen_range(0..(3 * assoc as u64)),
                    )
                })
                .collect();
            for (i, &(set, tag)) in stream.iter().enumerate() {
                let a = cache.access(set as usize, tag);
                let b = sets[set as usize].access(tag);
                assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
            }
            for (s, ts) in sets.iter().enumerate() {
                for w in 0..assoc {
                    assert_eq!(cache.tag_in_way(s, w), ts.tag_in_way(w), "set {s} way {w}");
                }
            }
        }
    }

    #[test]
    fn table_cache_access_many_matches_per_access_calls() {
        let table = table_for_kind(PolicyKind::Lru, 8).unwrap();
        const SETS: usize = 64;
        let mut batched = TableCache::new(table.clone(), SETS);
        let mut serial = TableCache::new(table, SETS);
        let mut rng = Prng::seed_from_u64(0xBA7C);
        let stream: Vec<(u32, u64)> = (0..30_000)
            .map(|_| {
                (
                    rng.gen_range(0..SETS as u64) as u32,
                    rng.gen_range(0..24u64),
                )
            })
            .collect();
        let (hits, misses) = batched.access_many(&stream);
        let mut serial_hits = 0u64;
        for &(set, tag) in &stream {
            if serial.access(set as usize, tag).is_hit() {
                serial_hits += 1;
            }
        }
        assert_eq!(hits, serial_hits);
        assert_eq!(hits + misses, stream.len() as u64);
        for s in 0..SETS {
            for w in 0..8 {
                assert_eq!(batched.tag_in_way(s, w), serial.tag_in_way(s, w));
            }
        }
    }

    #[test]
    fn table_cache_reset_returns_to_cold() {
        let table = table_for_kind(PolicyKind::TreePlru, 4).unwrap();
        let mut cache = TableCache::new(table, 4);
        let stream: Vec<(u32, u64)> = random_stream(4, 200, 9)
            .into_iter()
            .enumerate()
            .map(|(i, t)| ((i % 4) as u32, t))
            .collect();
        let cold = cache.access_many(&stream);
        cache.reset();
        assert_eq!(cache.access_many(&stream), cold);
    }

    #[test]
    fn table_set_reset_returns_to_cold() {
        let table = table_for_kind(PolicyKind::Lru, 4).unwrap();
        let mut ts = TableSet::new(table);
        let cold: Vec<_> = random_stream(4, 50, 3)
            .iter()
            .map(|&t| ts.access(t))
            .collect();
        ts.reset();
        let again: Vec<_> = random_stream(4, 50, 3)
            .iter()
            .map(|&t| ts.access(t))
            .collect();
        assert_eq!(cold, again);
    }
}
