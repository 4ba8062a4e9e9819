//! Lazily compiled transition tables: reachable states interned on
//! demand behind a lock-free memo.
//!
//! The eager [`PermTable`](super::PermTable) enumerates the *entire*
//! reachable pure-access state space up front, which makes two policy
//! classes fall off the table engine:
//!
//! * **Large spaces** — full LRU at associativity 16 has `16!` orders;
//!   the eager breadth-first walk blows the `u16` budget and the caller
//!   falls back to the enum engine.
//! * **Invalidation** — the eager node is a `(state, filled)` pair and
//!   its fill edge targets one precomputed way, so hierarchies that
//!   invalidate (`Inclusive` back-invalidation, `Exclusive` extraction)
//!   cannot run on it at all.
//!
//! [`LazyPermTable`] drops both restrictions by changing the alphabet:
//! nodes are **bare policy states** (no fill count) and the edges are
//! the full event set of a cache set —
//!
//! * `hit(way)`,
//! * `fill(way)` at an **arbitrary** way (warm-up fills, victim fills,
//!   and post-invalidation refills all look the same),
//! * `invalidate(way)`, and
//! * `victim` (which may mutate — NRU's lazy clear, CLOCK's hand sweep
//!   — so the edge carries both the chosen way and the successor).
//!
//! Each edge is compiled the first time any set asks for it and
//! published through a compare-and-swap into a per-state row; concurrent
//! resolvers race benignly (the transition function is deterministic, so
//! both compute the same successor). The memo is bounded: when the state
//! budget is exhausted, the requesting set falls back to **direct mode**
//! — it materializes a boxed clone of its current state's policy from
//! the arena and drives it concretely from then on. The fallback is
//! per-set and bit-identical, so a table that saturates degrades in
//! throughput, never in behaviour.
//!
//! Two consumers sit on top:
//!
//! * [`LazyTablePolicy`] — a [`ReplacementPolicy`] adapter with a
//!   *working* `on_invalidate`, so table execution is legal under
//!   `Inclusive`/`Exclusive` hierarchies (the eager
//!   [`TablePolicy`](super::TablePolicy) panics there);
//! * [`lazy_table_for_kind`] — the process-wide memoized constructor
//!   mirroring [`table_for_kind`](super::table_for_kind).

use cachekit_policies::{PolicyKind, ReplacementPolicy};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::TableError;

/// Hard ceiling on a lazy table's state budget. Ids are `u32` with two
/// reserved encodings (`0` = unresolved edge, `u32::MAX` = overflow),
/// but memory is the real bound: every state carries its key bytes plus
/// a boxed policy clone in the arena.
pub const MAX_LAZY_STATE_BUDGET: usize = 1 << 22;

/// Default state budget used by [`lazy_table_for_kind`]: large enough
/// that every small-space policy compiles completely and a huge space
/// (LRU-16) captures its hot core, small enough that a saturated table
/// stays tens of megabytes.
pub const DEFAULT_LAZY_STATE_BUDGET: usize = 1 << 18;

/// States per block in the edge banks. Rows are allocated a block at a
/// time, on first touch, so edges that are never exercised (e.g. the
/// whole invalidate bank under a pure access stream) cost nothing.
const BLOCK: usize = 1024;

/// Bank slot sentinel: the edge's successor could not be interned
/// (state budget exhausted).
const OVERFLOW32: u32 = u32::MAX;
/// Victim-bank sentinel, same meaning.
const OVERFLOW64: u64 = u64::MAX;

/// An interned state: its identity key and a policy clone frozen in
/// exactly that state (the template for computing outgoing edges — and
/// for materializing a direct-mode policy when the memo saturates).
#[derive(Debug)]
struct StateEntry {
    key: Vec<u8>,
    policy: Box<dyn ReplacementPolicy>,
}

/// A lazily-allocated bank of `u32` edge slots, `stride` slots per
/// state. Slot encoding: `0` unresolved, `u32::MAX` overflow, otherwise
/// `successor id + 1`.
#[derive(Debug)]
struct Bank {
    stride: usize,
    blocks: Vec<OnceLock<Box<[AtomicU32]>>>,
}

impl Bank {
    fn new(stride: usize, budget: usize) -> Self {
        Self {
            stride,
            blocks: (0..budget.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, id: u32, lane: usize) -> &AtomicU32 {
        debug_assert!(lane < self.stride);
        let block = self.blocks[id as usize / BLOCK].get_or_init(|| {
            (0..BLOCK * self.stride)
                .map(|_| AtomicU32::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        &block[(id as usize % BLOCK) * self.stride + lane]
    }
}

/// Like [`Bank`] but one `u64` per state, for the victim edge (the slot
/// packs the chosen way and the successor: `(way + 1) << 32 | id + 1`).
#[derive(Debug)]
struct VictimBank {
    blocks: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl VictimBank {
    fn new(budget: usize) -> Self {
        Self {
            blocks: (0..budget.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, id: u32) -> &AtomicU64 {
        let block = self.blocks[id as usize / BLOCK].get_or_init(|| {
            (0..BLOCK)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        &block[id as usize % BLOCK]
    }
}

/// A transition table compiled on demand over the **generalized** event
/// alphabet (hit / fill-at-any-way / invalidate / victim), with a
/// lock-free state memo. See the module docs for the design, and
/// [`LazyTablePolicy`] for the executor.
///
/// All methods take `&self`: one `Arc<LazyPermTable>` is shared by every
/// set (and every thread) simulating the same policy, and they grow the
/// memo cooperatively.
#[derive(Debug)]
pub struct LazyPermTable {
    assoc: usize,
    source: String,
    budget: usize,
    /// Open-addressed index over interned keys. Entry encoding:
    /// `0` = empty, otherwise `(hash >> 32) << 32 | id + 1` — the tag
    /// short-circuits most probe mismatches without touching the arena.
    index: Vec<AtomicU64>,
    mask: usize,
    /// `arena[id]` is written exactly once, before `id` is published
    /// through `index`, so any reader that obtained `id` from the index
    /// (or from an edge slot) finds the entry initialized.
    arena: Vec<OnceLock<StateEntry>>,
    next: AtomicU32,
    hit: Bank,
    fill: Bank,
    inv: Bank,
    vic: VictimBank,
}

impl LazyPermTable {
    /// Create a lazy table for `template`'s policy with the given state
    /// budget (clamped to [`MAX_LAZY_STATE_BUDGET`]). Only the reset
    /// (cold) state is compiled here; everything else is interned on
    /// demand.
    ///
    /// Fails with [`TableError::NonDeterministic`] for stochastic
    /// policies — their transitions are not a function of the state, so
    /// memoizing them would change behaviour.
    pub fn new(template: &dyn ReplacementPolicy, budget: usize) -> Result<Self, TableError> {
        if !template.is_deterministic() {
            return Err(TableError::NonDeterministic);
        }
        let budget = budget.clamp(1, MAX_LAZY_STATE_BUDGET);
        let assoc = template.associativity();
        // Load factor <= 1/2: index capacity is the budget doubled,
        // rounded up to a power of two.
        let cap = (2 * budget).next_power_of_two();
        let table = Self {
            assoc,
            source: template.name(),
            budget,
            index: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
            arena: (0..budget).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
            hit: Bank::new(assoc, budget),
            fill: Bank::new(assoc, budget),
            inv: Bank::new(assoc, budget),
            vic: VictimBank::new(budget),
        };
        let mut fresh = template.boxed_clone();
        fresh.reset();
        let root = table
            .intern(fresh)
            .expect("a budget of at least one state holds the root");
        debug_assert_eq!(root, 0, "the cold state is id 0");
        Ok(table)
    }

    /// Associativity the table serves.
    pub fn associativity(&self) -> usize {
        self.assoc
    }

    /// Name of the policy the table compiles.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The state budget (including ids lost to insert races).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of states interned so far.
    pub fn states(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.budget)
    }

    /// Whether the memo has hit its state budget (some sets may be
    /// running in direct mode).
    pub fn saturated(&self) -> bool {
        self.next.load(Ordering::Relaxed) as usize >= self.budget
    }

    /// The id of the cold (reset) state.
    pub fn root(&self) -> u32 {
        0
    }

    #[inline]
    fn entry(&self, id: u32) -> &StateEntry {
        self.arena[id as usize]
            .get()
            .expect("published ids have initialized arena entries")
    }

    /// A boxed policy clone frozen in state `id` — the direct-mode
    /// escape hatch for the adapter when the memo saturates.
    fn materialize(&self, id: u32) -> Box<dyn ReplacementPolicy> {
        self.entry(id).policy.boxed_clone()
    }

    /// The state-identity key of `id` (the underlying policy's
    /// `state_key`), for adapters that must report exact policy state.
    fn state_key_of(&self, id: u32) -> &[u8] {
        &self.entry(id).key
    }

    fn hash_key(key: &[u8]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        // Keep the tag bits non-zero-biased; the low bits pick the slot.
        h.finish() | 1
    }

    /// Intern `policy`'s state, returning its id, or `None` when the
    /// budget is exhausted. Lock-free: lookups are loads, inserts claim
    /// an id with `fetch_add` and publish it with one CAS on the index
    /// slot (a lost race wastes the claimed id — bounded by the number
    /// of simultaneous first-resolvers, and harmless).
    fn intern(&self, policy: Box<dyn ReplacementPolicy>) -> Option<u32> {
        let mut key = Vec::with_capacity(self.assoc + 1);
        policy.write_state_key(&mut key);
        let h = Self::hash_key(&key);
        let tag = (h >> 32) << 32;
        let mut slot = (h as usize) & self.mask;
        let mut claimed: Option<u32> = None;
        loop {
            let cur = self.index[slot].load(Ordering::Acquire);
            if cur == 0 {
                let id = match claimed {
                    Some(id) => id,
                    None => {
                        let id = self.next.fetch_add(1, Ordering::Relaxed);
                        if id as usize >= self.budget {
                            return None;
                        }
                        let entry = StateEntry {
                            key: key.clone(),
                            policy: policy.boxed_clone(),
                        };
                        self.arena[id as usize]
                            .set(entry)
                            .expect("freshly claimed id is unset");
                        claimed = Some(id);
                        id
                    }
                };
                match self.index[slot].compare_exchange(
                    0,
                    tag | (id as u64 + 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(id),
                    // Lost the race for this slot: somebody published
                    // here first. Re-examine it (it may be our key).
                    Err(_) => continue,
                }
            }
            if (cur & !0xFFFF_FFFF) == tag {
                let id = (cur as u32) - 1;
                if self.entry(id).key == key {
                    return Some(id);
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Resolve an edge slot: load it, or compute the successor with
    /// `step` and publish it. Returns the successor id, or `None` on
    /// overflow (the caller switches to direct mode).
    #[inline]
    fn resolve(
        &self,
        slot: &AtomicU32,
        id: u32,
        step: impl FnOnce(&mut dyn ReplacementPolicy),
    ) -> Option<u32> {
        match slot.load(Ordering::Acquire) {
            0 => {
                let mut p = self.entry(id).policy.boxed_clone();
                step(p.as_mut());
                let encoded = match self.intern(p) {
                    Some(nid) => nid + 1,
                    None => OVERFLOW32,
                };
                // Racing resolvers computed the same deterministic
                // successor; whoever publishes first wins and the value
                // read back is authoritative (the loser may have seen
                // `Some` where the winner recorded overflow, or vice
                // versa — both are behaviour-preserving, but taking the
                // published value keeps every set's view identical).
                match slot.compare_exchange(0, encoded, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => (encoded != OVERFLOW32).then(|| encoded - 1),
                    Err(prev) => (prev != OVERFLOW32).then(|| prev - 1),
                }
            }
            OVERFLOW32 => None,
            v => Some(v - 1),
        }
    }

    /// Successor of `id` after a hit on `way`.
    #[inline]
    fn hit_edge(&self, id: u32, way: usize) -> Option<u32> {
        self.resolve(self.hit.slot(id, way), id, |p| p.on_hit(way))
    }

    /// Successor of `id` after a fill of `way` (any way — warm-up,
    /// victim, or a refill into an invalidated hole).
    #[inline]
    fn fill_edge(&self, id: u32, way: usize) -> Option<u32> {
        self.resolve(self.fill.slot(id, way), id, |p| p.on_fill(way))
    }

    /// Successor of `id` after invalidating `way`.
    #[inline]
    fn invalidate_edge(&self, id: u32, way: usize) -> Option<u32> {
        self.resolve(self.inv.slot(id, way), id, |p| p.on_invalidate(way))
    }

    /// Victim selection from `id`: the chosen way and the successor
    /// state (policies like NRU and CLOCK mutate during selection).
    #[inline]
    fn victim_edge(&self, id: u32) -> Option<(usize, u32)> {
        let slot = self.vic.slot(id);
        match slot.load(Ordering::Acquire) {
            0 => {
                let mut p = self.entry(id).policy.boxed_clone();
                let way = p.victim();
                debug_assert!(way < self.assoc, "victim {way} out of range");
                let encoded = match self.intern(p) {
                    Some(nid) => ((way as u64 + 1) << 32) | (nid as u64 + 1),
                    None => OVERFLOW64,
                };
                let published =
                    match slot.compare_exchange(0, encoded, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => encoded,
                        Err(prev) => prev,
                    };
                (published != OVERFLOW64)
                    .then(|| (((published >> 32) - 1) as usize, (published as u32) - 1))
            }
            OVERFLOW64 => None,
            v => Some((((v >> 32) - 1) as usize, (v as u32) - 1)),
        }
    }
}

/// Per-set execution state over a [`LazyPermTable`]: normally just the
/// interned id; after the memo saturates, a concrete boxed policy.
#[derive(Debug)]
enum SetMode {
    Table(u32),
    Direct(Box<dyn ReplacementPolicy>),
}

impl Clone for SetMode {
    fn clone(&self) -> Self {
        match self {
            SetMode::Table(id) => SetMode::Table(*id),
            SetMode::Direct(p) => SetMode::Direct(p.boxed_clone()),
        }
    }
}

/// [`ReplacementPolicy`] adapter over a [`LazyPermTable`], the
/// table-family engine with a **working** `on_invalidate` — legal under
/// `Inclusive` and `Exclusive` hierarchies, where the eager
/// [`TablePolicy`](super::TablePolicy) panics.
///
/// Fills may target any way (the generalized alphabet has a fill edge
/// per way), so invalidation holes and non-ascending refills are fine.
/// When the shared memo saturates, the adapter materializes its current
/// state and continues concretely — bit-identical, just slower.
#[derive(Debug, Clone)]
pub struct LazyTablePolicy {
    table: Arc<LazyPermTable>,
    mode: SetMode,
}

impl LazyTablePolicy {
    /// Create a cold-state policy executing `table`.
    pub fn new(table: Arc<LazyPermTable>) -> Self {
        let root = table.root();
        Self {
            table,
            mode: SetMode::Table(root),
        }
    }

    /// Whether this adapter has fallen back to direct execution.
    pub fn is_direct(&self) -> bool {
        matches!(self.mode, SetMode::Direct(_))
    }

    /// Apply `step` through the table edge given by `edge`, falling
    /// back to direct mode when the edge overflows.
    #[inline]
    fn advance(
        &mut self,
        edge: impl FnOnce(&LazyPermTable, u32) -> Option<u32>,
        step: impl FnOnce(&mut dyn ReplacementPolicy),
    ) {
        match &mut self.mode {
            SetMode::Table(id) => match edge(&self.table, *id) {
                Some(nid) => *id = nid,
                None => {
                    let mut p = self.table.materialize(*id);
                    step(p.as_mut());
                    self.mode = SetMode::Direct(p);
                }
            },
            SetMode::Direct(p) => step(p.as_mut()),
        }
    }
}

impl ReplacementPolicy for LazyTablePolicy {
    fn associativity(&self) -> usize {
        self.table.associativity()
    }

    fn name(&self) -> String {
        format!("LazyTable({})", self.table.source())
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.advance(|t, id| t.hit_edge(id, way), |p| p.on_hit(way));
    }

    #[inline]
    fn victim(&mut self) -> usize {
        match &mut self.mode {
            SetMode::Table(id) => match self.table.victim_edge(*id) {
                Some((way, nid)) => {
                    *id = nid;
                    way
                }
                None => {
                    let mut p = self.table.materialize(*id);
                    let way = p.victim();
                    self.mode = SetMode::Direct(p);
                    way
                }
            },
            SetMode::Direct(p) => p.victim(),
        }
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        self.advance(|t, id| t.fill_edge(id, way), |p| p.on_fill(way));
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.advance(|t, id| t.invalidate_edge(id, way), |p| p.on_invalidate(way));
    }

    fn reset(&mut self) {
        self.mode = SetMode::Table(self.table.root());
    }

    fn state_key(&self) -> Vec<u8> {
        match &self.mode {
            SetMode::Table(id) => self.table.state_key_of(*id).to_vec(),
            SetMode::Direct(p) => p.state_key(),
        }
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        match &self.mode {
            SetMode::Table(id) => out.extend_from_slice(self.table.state_key_of(*id)),
            SetMode::Direct(p) => p.write_state_key(out),
        }
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Build (and memoize process-wide) the lazy table for a deterministic
/// catalog kind at the given associativity, with the
/// [`DEFAULT_LAZY_STATE_BUDGET`]. Returns `None` for stochastic kinds
/// and invalid combinations — there is no "too large" failure here;
/// over-budget spaces saturate at run time and the adapters degrade
/// per set.
pub fn lazy_table_for_kind(kind: PolicyKind, assoc: usize) -> Option<Arc<LazyPermTable>> {
    if !kind.is_deterministic() || kind.validate_for_assoc(assoc).is_err() {
        return None;
    }
    type Memo = Mutex<HashMap<(PolicyKind, usize), Option<Arc<LazyPermTable>>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let mut guard = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard
        .entry((kind, assoc))
        .or_insert_with(|| {
            LazyPermTable::new(&kind.build_state(assoc, 0), DEFAULT_LAZY_STATE_BUDGET)
                .ok()
                .map(Arc::new)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::rng::Prng;
    use cachekit_policies::PolicyState;
    use cachekit_sim::CacheSet;

    #[test]
    fn saturated_memo_degrades_to_direct_mode_not_divergence() {
        // A budget of 8 states saturates within the first few events of
        // LRU-8; every adapter must fall back and stay bit-identical.
        let table = Arc::new(LazyPermTable::new(&PolicyKind::Lru.build_state(8, 0), 8).unwrap());
        let mut adapters = [
            LazyTablePolicy::new(table.clone()),
            LazyTablePolicy::new(table.clone()),
        ];
        let mut concrete = [
            PolicyKind::Lru.build_state(8, 0),
            PolicyKind::Lru.build_state(8, 0),
        ];
        let mut rng = Prng::seed_from_u64(0xDEAD);
        for step in 0..4000 {
            let set = rng.gen_range(0..2u64) as usize;
            let way = rng.gen_range(0..8u64) as usize;
            let (adapter, policy) = (&mut adapters[set], &mut concrete[set]);
            match rng.gen_range(0..3u64) {
                0 => {
                    adapter.on_hit(way);
                    policy.on_hit(way);
                }
                1 => {
                    adapter.on_fill(way);
                    policy.on_fill(way);
                }
                _ => assert_eq!(adapter.victim(), policy.victim(), "victim at step {step}"),
            }
            assert_eq!(
                adapter.state_key(),
                policy.state_key(),
                "state diverged at step {step}"
            );
        }
        assert!(table.saturated());
        assert!(
            adapters.iter().all(LazyTablePolicy::is_direct),
            "both adapters must have fallen back"
        );
    }

    #[test]
    fn lazy_policy_supports_invalidation() {
        use cachekit_policies::ReplacementPolicy as _;
        let table = lazy_table_for_kind(PolicyKind::Lru, 8).unwrap();
        let mut via_table = PolicyKind::Lru.build_state(8, 0);
        let mut adapter = LazyTablePolicy::new(table);
        let mut rng = Prng::seed_from_u64(0x11AA);
        for step in 0..5000 {
            let way = rng.gen_range(0..8u64) as usize;
            match rng.gen_range(0..4u64) {
                0 => {
                    via_table.on_hit(way);
                    adapter.on_hit(way);
                }
                1 => {
                    via_table.on_fill(way);
                    adapter.on_fill(way);
                }
                2 => {
                    via_table.on_invalidate(way);
                    adapter.on_invalidate(way);
                }
                _ => {
                    assert_eq!(
                        via_table.victim(),
                        adapter.victim(),
                        "victim at step {step}"
                    );
                }
            }
            assert_eq!(
                via_table.state_key(),
                adapter.state_key(),
                "state diverged at step {step}"
            );
        }
    }

    #[test]
    fn lazy_table_for_kind_memoizes_and_rejects_stochastic() {
        let a = lazy_table_for_kind(PolicyKind::Fifo, 16).unwrap();
        let b = lazy_table_for_kind(PolicyKind::Fifo, 16).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the table");
        assert!(lazy_table_for_kind(PolicyKind::Random { seed: 3 }, 8).is_none());
        assert!(lazy_table_for_kind(PolicyKind::Bip { throttle: 32 }, 8).is_none());
    }

    #[test]
    fn concurrent_sets_share_one_growing_memo() {
        use std::thread;
        let table =
            Arc::new(LazyPermTable::new(&PolicyKind::TreePlru.build_state(8, 0), 1 << 12).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let mut lazy: Vec<CacheSet> = (0..8)
                        .map(|_| {
                            CacheSet::from_state(PolicyState::from_boxed(Box::new(
                                LazyTablePolicy::new(table.clone()),
                            )))
                        })
                        .collect();
                    let mut sets: Vec<CacheSet> = (0..8)
                        .map(|_| CacheSet::from_state(PolicyKind::TreePlru.build_state(8, 0)))
                        .collect();
                    let mut rng = Prng::seed_from_u64(0xBEEF ^ t as u64);
                    for _ in 0..20_000 {
                        let set = rng.gen_range(0..8u64) as usize;
                        let tag = rng.gen_range(0..24u64);
                        assert_eq!(lazy[set].access_tag(tag), sets[set].access_tag(tag));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        // PLRU-8 has 128 bit-states x fill transients; well within 2^12,
        // so nothing saturated and the memo holds the full space.
        assert!(!table.saturated());
        assert!(table.states() > 0);
    }
}
