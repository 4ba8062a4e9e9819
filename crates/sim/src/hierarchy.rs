//! Multi-level cache hierarchies with containment policies.
//!
//! A [`Hierarchy`] chains up to a handful of [`Cache`] levels (L1 first)
//! under one of three [`Containment`] disciplines:
//!
//! * **NINE** (non-inclusive, non-exclusive) — the organisation of the
//!   Core 2 family the paper targets, and the historical behaviour of
//!   this module: a missed line is filled into every level it missed in,
//!   and an outer-level eviction leaves inner copies alone.
//! * **Inclusive** — every inner-resident line is also outer-resident
//!   (the post-Nehalem L3 discipline). Evicting a line from an outer
//!   level *back-invalidates* its inner copies; a dirty inner copy folds
//!   its dirtiness into the write-back.
//! * **Exclusive** — a line is resident at exactly one level (the AMD
//!   victim-cache discipline). Demand fills land in L1 only; a hit at an
//!   outer level *moves* the line inward; L1 victims spill outward level
//!   by level.
//!
//! Every access also feeds a latency model: a hit at level *k* costs the
//! sum of the per-level hit latencies up to and including *k*, and a full
//! miss adds the memory latency. [`HierarchyStats::amat`] reports the
//! resulting average memory access time — the end-to-end number that
//! single-level miss ratios famously mispredict (`fig13_hierarchy`
//! exists to show exactly that).

use crate::{AccessOutcome, Cache, CacheConfig, CacheStats, EvictedLine};
use cachekit_policies::PolicyKind;

/// Containment discipline between adjacent levels of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Containment {
    /// Every inner-resident line is also resident at every outer level;
    /// outer evictions back-invalidate inner copies.
    Inclusive,
    /// A line is resident at exactly one level; outer levels are victim
    /// caches filled only by inner evictions.
    Exclusive,
    /// Non-inclusive, non-exclusive: fills go to every missed level and
    /// evictions at one level do not touch the others.
    Nine,
}

impl Containment {
    /// All containment disciplines, in the order experiments sweep them.
    pub const ALL: [Containment; 3] = [
        Containment::Inclusive,
        Containment::Exclusive,
        Containment::Nine,
    ];

    /// Canonical lower-case label (`"inclusive"`, `"exclusive"`,
    /// `"nine"`).
    pub fn label(self) -> &'static str {
        match self {
            Containment::Inclusive => "inclusive",
            Containment::Exclusive => "exclusive",
            Containment::Nine => "nine",
        }
    }

    /// Parse a label, case-insensitively. `"nine"` also accepts the
    /// spelled-out aliases `"non-inclusive"` / `"non_inclusive"` /
    /// `"noninclusive"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "inclusive" => Some(Containment::Inclusive),
            "exclusive" => Some(Containment::Exclusive),
            "nine" | "non-inclusive" | "non_inclusive" | "noninclusive" => Some(Containment::Nine),
            _ => None,
        }
    }
}

impl std::fmt::Display for Containment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Specification of one cache level.
#[derive(Debug, Clone)]
pub struct LevelSpec {
    /// Geometry of the level.
    pub config: CacheConfig,
    /// Replacement policy of the level.
    pub policy: PolicyKind,
}

impl LevelSpec {
    /// Convenience constructor.
    pub fn new(config: CacheConfig, policy: PolicyKind) -> Self {
        Self { config, policy }
    }
}

/// Outcome of a hierarchy access: which level (0-based) satisfied it, or
/// `Memory` if every level missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// Satisfied by the cache at the given index (0 = L1).
    Level(usize),
    /// Satisfied by main memory.
    Memory,
}

impl HierarchyOutcome {
    /// The deepest level that was *looked up* (all levels up to and
    /// including the hit level, or all of them on a full miss).
    pub fn levels_probed(&self, total: usize) -> usize {
        match *self {
            HierarchyOutcome::Level(l) => l + 1,
            HierarchyOutcome::Memory => total,
        }
    }
}

/// Hierarchy-wide counters: the latency model plus the containment
/// traffic the per-level [`CacheStats`] cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Demand accesses issued to the hierarchy.
    pub accesses: u64,
    /// Total cycles those accesses cost under the latency model.
    pub total_cycles: u64,
    /// Accesses that missed every level and went to memory.
    pub memory_fetches: u64,
    /// Inner copies dropped because an outer inclusive level evicted the
    /// line.
    pub back_invalidations: u64,
    /// Victim lines installed into an outer level by the exclusive
    /// spill path.
    pub victim_fills: u64,
    /// Dirty lines written back to memory (from the last level, or
    /// merged from a back-invalidated inner copy).
    pub memory_writebacks: u64,
}

impl HierarchyStats {
    /// Average memory access time in cycles (`NaN` before any access).
    pub fn amat(&self) -> f64 {
        self.total_cycles as f64 / self.accesses as f64
    }
}

/// Hit latency, in cycles, assumed for levels without an explicit
/// override ([3, 15, 60] for L1/L2/L3; deeper levels quadruple).
pub const DEFAULT_LEVEL_LATENCIES: [u64; 3] = [3, 15, 60];

/// Memory latency, in cycles, assumed without an explicit override.
pub const DEFAULT_MEMORY_LATENCY: u64 = 200;

/// Per-level hit latencies for a hierarchy of the given depth.
pub fn default_latencies(depth: usize) -> Vec<u64> {
    (0..depth)
        .map(|i| match DEFAULT_LEVEL_LATENCIES.get(i) {
            Some(&l) => l,
            None => DEFAULT_LEVEL_LATENCIES[2] << (2 * (i + 1 - DEFAULT_LEVEL_LATENCIES.len())),
        })
        .collect()
}

/// A multi-level cache hierarchy.
///
/// An access probes L1 first and proceeds outward on a miss; what happens
/// to fills, victims and write-backs is governed by the
/// [`Containment`] discipline (see the module docs). [`Hierarchy::new`]
/// defaults to [`Containment::Nine`] — the original behaviour of this
/// module — with the default latency model.
///
/// # Example
///
/// ```
/// use cachekit_policies::PolicyKind;
/// use cachekit_sim::{CacheConfig, Containment, Hierarchy, HierarchyOutcome, LevelSpec};
///
/// # fn main() -> Result<(), cachekit_sim::ConfigError> {
/// let mut h = Hierarchy::new(vec![
///     LevelSpec::new(CacheConfig::new(32 * 1024, 8, 64)?, PolicyKind::TreePlru),
///     LevelSpec::new(CacheConfig::new(2 * 1024 * 1024, 8, 64)?, PolicyKind::TreePlru),
/// ])
/// .with_containment(Containment::Inclusive);
/// assert_eq!(h.access(0x1000), HierarchyOutcome::Memory);
/// assert_eq!(h.access(0x1000), HierarchyOutcome::Level(0));
/// assert!(h.amat() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    containment: Containment,
    latencies: Vec<u64>,
    memory_latency: u64,
    hstats: HierarchyStats,
    /// NINE's pending write-backs as `(level, line)`, empty between
    /// accesses; kept so a dirty victim does not allocate per access.
    writebacks: Vec<(usize, u64)>,
}

impl Hierarchy {
    /// Build a hierarchy from level specifications, L1 first, with NINE
    /// containment and the default latency model.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<LevelSpec>) -> Self {
        assert!(!specs.is_empty(), "a hierarchy needs at least one level");
        Self::from_caches(
            specs
                .into_iter()
                .map(|s| Cache::new(s.config, s.policy))
                .collect(),
        )
    }

    /// Build a hierarchy from already-constructed caches, L1 first, with
    /// NINE containment and the default latency model.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn from_caches(levels: Vec<Cache>) -> Self {
        assert!(!levels.is_empty(), "a hierarchy needs at least one level");
        let latencies = default_latencies(levels.len());
        Self {
            levels,
            containment: Containment::Nine,
            latencies,
            memory_latency: DEFAULT_MEMORY_LATENCY,
            hstats: HierarchyStats::default(),
            writebacks: Vec::new(),
        }
    }

    /// Set the containment discipline (builder-style).
    pub fn with_containment(mut self, containment: Containment) -> Self {
        self.containment = containment;
        self
    }

    /// Set the latency model (builder-style): one hit latency per level,
    /// L1 first, plus the memory latency charged on a full miss.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` does not have one entry per level or if any
    /// latency is zero.
    pub fn with_latencies(mut self, latencies: Vec<u64>, memory_latency: u64) -> Self {
        assert_eq!(
            latencies.len(),
            self.levels.len(),
            "one latency per level required"
        );
        assert!(
            latencies.iter().all(|&l| l > 0) && memory_latency > 0,
            "latencies must be nonzero"
        );
        self.latencies = latencies;
        self.memory_latency = memory_latency;
        self
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The containment discipline in force.
    pub fn containment(&self) -> Containment {
        self.containment
    }

    /// Per-level hit latencies, L1 first.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Memory latency charged on a full miss.
    pub fn memory_latency(&self) -> u64 {
        self.memory_latency
    }

    /// Hierarchy-wide counters (latency model + containment traffic).
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.hstats
    }

    /// Average memory access time in cycles over all accesses so far.
    pub fn amat(&self) -> f64 {
        self.hstats.amat()
    }

    /// Read `addr`.
    pub fn access(&mut self, addr: u64) -> HierarchyOutcome {
        self.access_op(addr, false)
    }

    /// Write `addr` (write-allocate, write-back at every level).
    pub fn write(&mut self, addr: u64) -> HierarchyOutcome {
        self.access_op(addr, true)
    }

    /// Read or write `addr` under the configured containment discipline,
    /// charging the latency model for the levels the access traversed.
    pub fn access_op(&mut self, addr: u64, write: bool) -> HierarchyOutcome {
        let outcome = match self.containment {
            Containment::Nine => self.access_nine(addr, write),
            Containment::Inclusive => self.access_inclusive(addr, write),
            Containment::Exclusive => self.access_exclusive(addr, write),
        };
        self.hstats.accesses += 1;
        let probed = outcome.levels_probed(self.levels.len());
        let mut cycles: u64 = self.latencies[..probed].iter().sum();
        if outcome == HierarchyOutcome::Memory {
            cycles += self.memory_latency;
            self.hstats.memory_fetches += 1;
        }
        self.hstats.total_cycles += cycles;
        outcome
    }

    /// NINE: fill into every missed level; dirty victims displaced at
    /// level `i` are written through to level `i + 1` (or memory), as a
    /// write-back hierarchy does. This is the original behaviour of the
    /// module, preserved operation-for-operation.
    fn access_nine(&mut self, addr: u64, write: bool) -> HierarchyOutcome {
        let depth = self.levels.len();
        let mut result = HierarchyOutcome::Memory;
        debug_assert!(self.writebacks.is_empty());
        for i in 0..depth {
            // The dirty bit lands in the innermost level only: the fill
            // into deeper levels is a clean read-for-ownership fetch.
            let (outcome, wb) = self.levels[i].access_op(addr, write && i == 0);
            if let Some(victim) = wb {
                if i + 1 < depth {
                    self.writebacks.push((i + 1, victim));
                } else {
                    self.hstats.memory_writebacks += 1;
                }
            }
            if let AccessOutcome::Hit = outcome {
                result = HierarchyOutcome::Level(i);
                break;
            }
        }
        // Absorb the write-backs after the demand access settles: each is
        // a write at the next level (possibly cascading further).
        while let Some((level, victim)) = self.writebacks.pop() {
            let (_, wb) = self.levels[level].access_op(victim, true);
            if let Some(next_victim) = wb {
                if level + 1 < depth {
                    self.writebacks.push((level + 1, next_victim));
                } else {
                    self.hstats.memory_writebacks += 1;
                }
            }
        }
        result
    }

    /// Inclusive: fill into every missed level, outermost first (so the
    /// invariant already holds for the new line when the inner levels
    /// install it); an eviction at any level back-invalidates the inner
    /// copies and folds their dirtiness into the write-back.
    fn access_inclusive(&mut self, addr: u64, write: bool) -> HierarchyOutcome {
        let depth = self.levels.len();
        let mut hit = None;
        for i in 0..depth {
            if self.levels[i].probe_op(addr, write && i == 0) {
                hit = Some(i);
                break;
            }
        }
        let fill_to = hit.unwrap_or(depth);
        for i in (0..fill_to).rev() {
            if let Some(victim) = self.levels[i].install(addr, write && i == 0) {
                self.evict_inclusive(i, victim);
            }
        }
        match hit {
            Some(i) => HierarchyOutcome::Level(i),
            None => HierarchyOutcome::Memory,
        }
    }

    /// Handle an eviction at `level` under inclusion: drop every inner
    /// copy (merging dirtiness) and forward the write-back outward.
    fn evict_inclusive(&mut self, level: usize, victim: EvictedLine) {
        let mut dirty = victim.dirty;
        for inner in (0..level).rev() {
            if let Some(d) = self.levels[inner].extract(victim.addr) {
                self.hstats.back_invalidations += 1;
                dirty |= d;
            }
        }
        if dirty {
            self.writeback_inclusive(level + 1, victim.addr);
        }
    }

    /// Absorb a write-back at `to` (or memory). By inclusion the next
    /// level still holds the line, so this is normally a dirtying write
    /// hit; the allocate branch is defence in depth.
    fn writeback_inclusive(&mut self, to: usize, addr: u64) {
        if to >= self.levels.len() {
            self.hstats.memory_writebacks += 1;
            return;
        }
        if self.levels[to].probe_op(addr, true) {
            return;
        }
        if let Some(victim) = self.levels[to].install(addr, true) {
            self.evict_inclusive(to, victim);
        }
    }

    /// Exclusive: demand fills land in L1 only; a hit at an outer level
    /// extracts the line (dirtiness and all) and moves it inward; the L1
    /// victim spills outward level by level, with the last level's
    /// victims falling to memory.
    fn access_exclusive(&mut self, addr: u64, write: bool) -> HierarchyOutcome {
        let depth = self.levels.len();
        if self.levels[0].probe_op(addr, write) {
            return HierarchyOutcome::Level(0);
        }
        let mut found: Option<(usize, bool)> = None;
        for i in 1..depth {
            if self.levels[i].probe_op(addr, false) {
                let dirty = self.levels[i].extract(addr).unwrap_or(false);
                found = Some((i, dirty));
                break;
            }
        }
        let (outcome, dirty) = match found {
            Some((i, d)) => (HierarchyOutcome::Level(i), d),
            None => (HierarchyOutcome::Memory, false),
        };
        if let Some(victim) = self.levels[0].install(addr, dirty || write) {
            self.spill_exclusive(1, victim);
        }
        outcome
    }

    /// Spill a victim outward from `from`: install it at the next level,
    /// cascading whatever that displaces, until a level absorbs the line
    /// without an eviction or the last level's victim drops to memory.
    fn spill_exclusive(&mut self, from: usize, victim: EvictedLine) {
        let mut level = from;
        let mut v = victim;
        loop {
            if level >= self.levels.len() {
                if v.dirty {
                    self.hstats.memory_writebacks += 1;
                }
                return;
            }
            self.hstats.victim_fills += 1;
            match self.levels[level].install(v.addr, v.dirty) {
                Some(next) => {
                    v = next;
                    level += 1;
                }
                None => return,
            }
        }
    }

    /// Flush every level (dirty contents are dropped, like a hardware
    /// invalidate; the latency counters are untouched).
    pub fn flush(&mut self) {
        for level in &mut self.levels {
            level.flush();
        }
    }

    /// Borrow a level (0 = L1).
    pub fn level(&self, i: usize) -> &Cache {
        &self.levels[i]
    }

    /// Mutably borrow a level (0 = L1).
    pub fn level_mut(&mut self, i: usize) -> &mut Cache {
        &mut self.levels[i]
    }

    /// Per-level statistics, L1 first.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.levels.iter().map(Cache::stats).collect()
    }

    /// Reset statistics on every level and the hierarchy-wide counters.
    pub fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.reset_stats();
        }
        self.hstats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        Hierarchy::new(vec![
            LevelSpec::new(CacheConfig::new(512, 2, 64).unwrap(), PolicyKind::Lru),
            LevelSpec::new(CacheConfig::new(4096, 4, 64).unwrap(), PolicyKind::Lru),
        ])
    }

    fn two_level_as(containment: Containment) -> Hierarchy {
        two_level().with_containment(containment)
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let mut h = two_level();
        assert_eq!(h.access(0), HierarchyOutcome::Memory);
        assert_eq!(h.access(0), HierarchyOutcome::Level(0));
    }

    #[test]
    fn l1_eviction_leaves_l2_copy() {
        let mut h = two_level();
        let l1_ways = h.level(0).config().way_size();
        // Three conflicting L1 lines (2-way L1): the first gets evicted
        // from L1 but must still hit in L2.
        h.access(0);
        h.access(l1_ways);
        h.access(2 * l1_ways);
        assert!(!h.level(0).contains(0));
        assert_eq!(h.access(0), HierarchyOutcome::Level(1));
        // And it is refilled into L1 on the way.
        assert_eq!(h.access(0), HierarchyOutcome::Level(0));
    }

    #[test]
    fn stats_track_per_level_traffic() {
        let mut h = two_level();
        h.access(0); // L1 miss, L2 miss
        h.access(0); // L1 hit
        let stats = h.stats();
        assert_eq!(stats[0].accesses, 2);
        assert_eq!(stats[0].misses, 1);
        assert_eq!(stats[1].accesses, 1);
        assert_eq!(stats[1].misses, 1);
    }

    #[test]
    fn flush_empties_all_levels() {
        let mut h = two_level();
        h.access(0);
        h.flush();
        assert_eq!(h.access(0), HierarchyOutcome::Memory);
    }

    #[test]
    fn levels_probed_counts_lookups() {
        assert_eq!(HierarchyOutcome::Level(0).levels_probed(2), 1);
        assert_eq!(HierarchyOutcome::Level(1).levels_probed(2), 2);
        assert_eq!(HierarchyOutcome::Memory.levels_probed(2), 2);
    }

    #[test]
    fn dirty_l1_victims_are_written_back_into_l2() {
        let mut h = two_level();
        let l1_ways = h.level(0).config().way_size();
        h.write(0); // dirty in L1 (and resident in L2 from the fill)
        h.access(l1_ways);
        h.access(2 * l1_ways); // evicts the dirty line from L1
        assert_eq!(h.level(1).stats().writes, 1, "L2 absorbed the write-back");
        // The line is still (cleanly re-readable) from L2.
        assert_eq!(h.access(0), HierarchyOutcome::Level(1));
    }

    #[test]
    fn write_hits_do_not_traverse_levels() {
        let mut h = two_level();
        h.access(0);
        h.write(0); // L1 hit: the L2 must not see a second access
        assert_eq!(h.level(1).stats().accesses, 1);
        assert_eq!(h.level(0).stats().writes, 1);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_panics() {
        let _ = Hierarchy::new(vec![]);
    }

    #[test]
    fn containment_labels_round_trip() {
        for c in Containment::ALL {
            assert_eq!(Containment::parse(c.label()), Some(c));
            assert_eq!(Containment::parse(&c.label().to_uppercase()), Some(c));
        }
        assert_eq!(Containment::parse("non-inclusive"), Some(Containment::Nine));
        assert_eq!(Containment::parse("victim"), None);
    }

    #[test]
    fn amat_charges_latencies_per_level() {
        let mut h = two_level().with_latencies(vec![2, 10], 100);
        h.access(0); // full miss: 2 + 10 + 100
        h.access(0); // L1 hit: 2
        let hs = h.hierarchy_stats();
        assert_eq!(hs.accesses, 2);
        assert_eq!(hs.total_cycles, 114);
        assert_eq!(hs.memory_fetches, 1);
        assert!((h.amat() - 57.0).abs() < 1e-12);
    }

    #[test]
    fn inclusive_outer_eviction_back_invalidates_inner_copy() {
        // L2 is the constraint: 4 ways per set, L1 has 2. Walk five lines
        // that all map to L2 set 0; the fifth L2 fill evicts an earlier
        // line, which must vanish from L1 as well.
        let mut h = two_level_as(Containment::Inclusive);
        let l2_ways = h.level(1).config().way_size();
        for i in 0..5 {
            h.access(i * l2_ways);
        }
        let evicted_from_l2 = (0..5)
            .map(|i| i * l2_ways)
            .find(|&a| !h.level(1).contains(a))
            .expect("one line must have left L2");
        assert!(
            !h.level(0).contains(evicted_from_l2),
            "inclusion must drop the L1 copy when L2 evicts"
        );
    }

    #[test]
    fn inclusive_back_invalidated_dirty_line_reaches_memory() {
        let mut h = two_level_as(Containment::Inclusive);
        let l2_ways = h.level(1).config().way_size();
        h.write(0); // dirty at L1, clean copy at L2
                    // Keep line 0 hot in L1 (L1 hits do not refresh L2 recency) while
                    // four more lines walk L2 set 0 — the classic inclusion victim.
        for i in 1..5 {
            h.access(i * l2_ways);
            if i < 4 {
                h.access(0);
            }
        }
        assert!(!h.level(1).contains(0), "L2 evicted line 0");
        assert!(!h.level(0).contains(0), "inclusion dropped the hot L1 copy");
        let hs = h.hierarchy_stats();
        assert_eq!(hs.back_invalidations, 1);
        // The dirty L1 copy was merged into the eviction and, L2 being
        // the last level, written back to memory.
        assert_eq!(hs.memory_writebacks, 1);
        assert_eq!(h.access(0), HierarchyOutcome::Memory);
    }

    #[test]
    fn exclusive_hit_moves_line_inward() {
        let mut h = two_level_as(Containment::Exclusive);
        let l1_ways = h.level(0).config().way_size();
        h.access(0); // fill L1 only
        assert!(h.level(0).contains(0));
        assert!(!h.level(1).contains(0), "exclusive demand fill is L1-only");
        h.access(l1_ways);
        h.access(2 * l1_ways); // evicts line 0 from L1 into L2
        assert!(!h.level(0).contains(0));
        assert!(h.level(1).contains(0), "the victim spilled into L2");
        assert_eq!(h.access(0), HierarchyOutcome::Level(1));
        assert!(h.level(0).contains(0), "the hit moved the line back to L1");
        assert!(!h.level(1).contains(0), "…and removed it from L2");
    }

    #[test]
    fn exclusive_preserves_dirtiness_across_moves() {
        let mut h = two_level_as(Containment::Exclusive);
        let l1_ways = h.level(0).config().way_size();
        h.write(0); // dirty at L1
        h.access(l1_ways);
        h.access(2 * l1_ways); // spills dirty line 0 into L2
        assert!(h.level(1).is_dirty(0), "the spill carried the dirty bit");
        assert_eq!(h.access(0), HierarchyOutcome::Level(1));
        assert!(h.level(0).is_dirty(0), "the move back kept it dirty");
        assert_eq!(
            h.hierarchy_stats().memory_writebacks,
            0,
            "the dirty line never left the hierarchy"
        );
    }

    #[test]
    fn single_level_exclusive_and_inclusive_degenerate_to_a_cache() {
        for containment in Containment::ALL {
            let mut h = Hierarchy::new(vec![LevelSpec::new(
                CacheConfig::new(512, 2, 64).unwrap(),
                PolicyKind::Lru,
            )])
            .with_containment(containment);
            let mut c = Cache::new(CacheConfig::new(512, 2, 64).unwrap(), PolicyKind::Lru);
            for i in 0..200u64 {
                let addr = (i * 37) % 1024 * 64;
                let write = i % 3 == 0;
                let got = h.access_op(addr, write);
                let (want, _) = c.access_op(addr, write);
                assert_eq!(
                    got == HierarchyOutcome::Level(0),
                    want.is_hit(),
                    "{containment:?} step {i}"
                );
            }
            assert_eq!(h.level(0).stats(), c.stats(), "{containment:?}");
        }
    }
}
