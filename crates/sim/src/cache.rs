//! A complete single-level cache.

use crate::set::SetOutcome;
use crate::{CacheConfig, CacheSet, CacheStats};
use cachekit_policies::{PolicyKind, PolicyState, ReplacementPolicy};

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was fetched; `evicted` is the displaced line address.
    Miss {
        /// Line address displaced by the fill, if a valid line was evicted.
        evicted: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Whether this outcome is a miss.
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

/// A line displaced from a cache together with its dirtiness — what a
/// multi-level hierarchy needs to decide between a write-back and a
/// silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned address of the displaced line.
    pub addr: u64,
    /// Whether the line was dirty when displaced.
    pub dirty: bool,
}

/// A set-associative cache with a replacement policy per set.
///
/// # Example
///
/// ```
/// use cachekit_policies::PolicyKind;
/// use cachekit_sim::{AccessOutcome, Cache, CacheConfig};
///
/// # fn main() -> Result<(), cachekit_sim::ConfigError> {
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64)?, PolicyKind::Lru);
/// assert!(c.access(0x40).is_miss());
/// assert!(c.access(0x40).is_hit());
/// assert!(c.access(0x7f).is_hit()); // same line as 0x40
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<CacheSet>,
    /// Indices of the sets that went from empty to occupied since the
    /// last [`flush`](Self::flush) — every set holding a valid line is
    /// listed. Capped at the set count; a full list means "walk every
    /// set" (duplicates arise when a set is emptied and refilled).
    filled_sets: Vec<usize>,
    /// Whether some set holds a boxed [`PolicyState::Other`] policy, which
    /// no batch kernel runs and which may share state with other sets
    /// (see [`access_many`](Self::access_many)).
    boxed: bool,
    stats: CacheStats,
    policy_label: String,
}

impl Cache {
    /// Create a cache whose sets all use policies of `kind`, stored
    /// inline as enum-dispatched [`PolicyState`]s.
    pub fn new(config: CacheConfig, kind: PolicyKind) -> Self {
        Self::with_state_factory(config, kind.label(), |set| {
            kind.build_state(config.associativity(), set)
        })
    }

    /// Create a cache with one inline policy state per set produced by
    /// `factory` (called with the set index) — the enum-engine sibling of
    /// [`with_policy_factory`](Self::with_policy_factory).
    ///
    /// # Panics
    ///
    /// Panics if a produced policy's associativity does not match the
    /// configuration.
    pub fn with_state_factory(
        config: CacheConfig,
        policy_label: impl Into<String>,
        mut factory: impl FnMut(u64) -> PolicyState,
    ) -> Self {
        let sets: Vec<CacheSet> = (0..config.num_sets())
            .map(|i| {
                let p = factory(i);
                assert_eq!(
                    p.associativity(),
                    config.associativity(),
                    "policy associativity must match the cache configuration"
                );
                CacheSet::from_state(p)
            })
            .collect();
        let boxed = sets
            .iter()
            .any(|s| matches!(s.policy_state(), PolicyState::Other(_)));
        Self {
            config,
            sets,
            filled_sets: Vec::new(),
            boxed,
            stats: CacheStats::default(),
            policy_label: policy_label.into(),
        }
    }

    /// Create a cache with one boxed policy instance per set produced by
    /// `factory` (called with the set index).
    ///
    /// This is the extension point for policies outside the
    /// [`PolicyKind`] catalog (set-dueling families, derived permutation
    /// policies); each box is wrapped in [`PolicyState::from_boxed`] and
    /// keeps its dynamic-dispatch cost. Catalog policies should go
    /// through [`new`](Self::new) or
    /// [`with_state_factory`](Self::with_state_factory).
    ///
    /// # Panics
    ///
    /// Panics if a produced policy's associativity does not match the
    /// configuration.
    pub fn with_policy_factory(
        config: CacheConfig,
        policy_label: impl Into<String>,
        mut factory: impl FnMut(u64) -> Box<dyn ReplacementPolicy>,
    ) -> Self {
        Self::with_state_factory(config, policy_label, |i| {
            PolicyState::from_boxed(factory(i))
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Label of the replacement policy in use.
    pub fn policy_label(&self) -> &str {
        &self.policy_label
    }

    /// Read the byte at `addr`, updating contents and statistics.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_op(addr, false).0
    }

    /// Write the byte at `addr` (write-allocate, write-back: the line is
    /// fetched on a miss and marked dirty).
    pub fn write(&mut self, addr: u64) -> AccessOutcome {
        self.access_op(addr, true).0
    }

    /// Read or write `addr`. The second return value is the address of a
    /// dirty line written back by the fill, if any — multi-level
    /// hierarchies forward it to the next level.
    pub fn access_op(&mut self, addr: u64, write: bool) -> (AccessOutcome, Option<u64>) {
        let set = self.config.set_index(addr);
        let tag = self.config.tag(addr);
        if write {
            self.stats.writes += 1;
        }
        let (outcome, writeback) = self.sets[set].access_rw(tag, write);
        let writeback = writeback.map(|t| {
            self.stats.writebacks += 1;
            self.config.addr_of(t, set)
        });
        match outcome {
            SetOutcome::Hit { .. } => {
                self.stats.record_hit();
                (AccessOutcome::Hit, writeback)
            }
            SetOutcome::Miss { evicted, .. } => {
                self.stats.record_miss(evicted.is_some());
                // The first line into an empty set: list it for `flush`.
                if evicted.is_none() && self.sets[set].occupancy() == 1 {
                    self.note_filled(set);
                }
                (
                    AccessOutcome::Miss {
                        evicted: evicted.map(|t| self.config.addr_of(t, set)),
                    },
                    writeback,
                )
            }
        }
    }

    /// Probe for `addr` without allocating on a miss. Counts the access
    /// (and the write) plus the hit or miss in the statistics; a hit
    /// touches the replacement state exactly like
    /// [`access_op`](Self::access_op), a miss changes nothing.
    ///
    /// Together with [`install`](Self::install) this splits `access_op`
    /// into its two halves, letting a hierarchy decide *where* a missed
    /// line gets filled (or whether it gets filled at all).
    pub fn probe_op(&mut self, addr: u64, write: bool) -> bool {
        let set = self.config.set_index(addr);
        let tag = self.config.tag(addr);
        if write {
            self.stats.writes += 1;
        }
        if self.sets[set].probe_rw(tag, write) {
            self.stats.record_hit();
            true
        } else {
            self.stats.record_miss(false);
            false
        }
    }

    /// Fill the line containing `addr` (invalid way first, otherwise the
    /// policy's victim), optionally already dirty, and return the line it
    /// displaced. Counts the eviction (and the write-back for a dirty
    /// victim) but no access — the demand lookup was already counted by
    /// the probe that preceded it.
    ///
    /// The caller must ensure the line is not already resident.
    pub fn install(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        let set = self.config.set_index(addr);
        let tag = self.config.tag(addr);
        let evicted = self.sets[set].install_tag(tag, dirty);
        if evicted.is_none() && self.sets[set].occupancy() == 1 {
            self.note_filled(set);
        }
        evicted.map(|(t, d)| {
            self.stats.evictions += 1;
            if d {
                self.stats.writebacks += 1;
            }
            EvictedLine {
                addr: self.config.addr_of(t, set),
                dirty: d,
            }
        })
    }

    /// Remove the line containing `addr`, reporting whether it was dirty
    /// (`None` if it was not resident). No statistics are recorded: the
    /// hierarchy accounts the consequence — a write-back or a silent
    /// drop — itself.
    pub fn extract(&mut self, addr: u64) -> Option<bool> {
        let set = self.config.set_index(addr);
        self.sets[set].extract(self.config.tag(addr))
    }

    /// Whether the line containing `addr` is resident and dirty
    /// (non-perturbing).
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.sets[self.config.set_index(addr)].is_dirty(self.config.tag(addr))
    }

    /// Line-aligned addresses of every resident line, in set order (way
    /// order within a set). For containment-invariant checks; not a hot
    /// path.
    pub fn resident_lines(&self) -> Vec<u64> {
        let mut lines = Vec::with_capacity(self.occupancy());
        for (i, set) in self.sets.iter().enumerate() {
            for tag in set.resident_tags() {
                lines.push(self.config.addr_of(tag, i));
            }
        }
        lines
    }

    /// Whether the line containing `addr` is resident (non-perturbing,
    /// not counted in the statistics).
    pub fn contains(&self, addr: u64) -> bool {
        self.sets[self.config.set_index(addr)].contains(self.config.tag(addr))
    }

    /// Invalidate the line containing `addr`; returns whether it was
    /// resident.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.config.set_index(addr);
        let tag = self.config.tag(addr);
        self.sets[set].invalidate(tag)
    }

    /// Invalidate all contents (replacement state is preserved, like a
    /// hardware flush).
    ///
    /// Costs the sets occupied since the last flush, not the cache size:
    /// a set that received no line holds nothing to invalidate, so only
    /// the sets filled since then are visited (every set, if more fills
    /// than the cache has sets happened in between). Each visited set
    /// invalidates its valid ways in ascending order through
    /// [`CacheSet::flush`], exactly as a full walk would.
    pub fn flush(&mut self) {
        if self.filled_sets.len() >= self.sets.len() {
            for s in &mut self.sets {
                s.flush();
            }
        } else {
            for &i in &self.filled_sets {
                self.sets[i].flush();
            }
        }
        self.filled_sets.clear();
    }

    /// Record that set `index` may have gone from empty to occupied, so
    /// the next [`flush`](Self::flush) visits it. Past the cap the list
    /// stops growing and the flush walks every set.
    #[inline]
    fn note_filled(&mut self, index: usize) {
        if self.filled_sets.len() < self.sets.len() {
            self.filled_sets.push(index);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid lines across all sets.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(CacheSet::occupancy).sum()
    }

    /// Borrow a set (for inspection in tests and interference models).
    pub fn set(&self, index: usize) -> &CacheSet {
        &self.sets[index]
    }

    /// Mutably borrow a set (for interference models).
    ///
    /// The borrow can fill lines behind the cache's back, so an empty set
    /// is recorded for the next [`flush`](Self::flush) up front.
    pub fn set_mut(&mut self, index: usize) -> &mut CacheSet {
        if self.sets[index].occupancy() == 0 {
            self.note_filled(index);
        }
        &mut self.sets[index]
    }

    /// Run a read/write operation stream (pairs of `(addr, is_write)`),
    /// returning the stats delta for the run.
    pub fn run_ops<I: IntoIterator<Item = (u64, bool)>>(&mut self, ops: I) -> CacheStats {
        let before = self.stats;
        for (addr, write) in ops {
            self.access_op(addr, write);
        }
        let mut delta = self.stats;
        delta.accesses -= before.accesses;
        delta.hits -= before.hits;
        delta.misses -= before.misses;
        delta.evictions -= before.evictions;
        delta.writes -= before.writes;
        delta.writebacks -= before.writebacks;
        delta
    }

    /// The batch kernel `access_many` will use, if the cache's policy
    /// and associativity have one compiled (e.g. `"lru16/swar128"`) —
    /// `None` means `access_many` runs one access at a time. A cache
    /// holding boxed policies has none, whatever its label. Recorded by
    /// the serving layer and the benchmarks as engine metadata.
    pub fn batch_kernel(&self) -> Option<&'static str> {
        if self.boxed {
            return None;
        }
        let kind = PolicyKind::parse_label(&self.policy_label)?;
        cachekit_policies::kernel::KernelCache::kernel_name(kind, self.config.associativity())
    }

    /// Run a stream of read accesses in one call, returning
    /// `(hits, misses)` for the stream and updating the statistics.
    ///
    /// Behaviour (contents, replacement state, hit/miss/eviction and
    /// write-back counts) is identical to calling [`access`](Self::access)
    /// per element.
    ///
    /// A cache with a [`batch_kernel`](Self::batch_kernel) buckets the
    /// stream per set — which preserves program order within each set —
    /// and each set replays its run through the monomorphized kernel; a
    /// set with invalidation holes replays its run one access at a time.
    /// Bucketing is sound because catalog policies keep all their state
    /// inside their set.
    ///
    /// Every other cache runs the stream in program order, one
    /// [`access`](Self::access) at a time. That includes every cache
    /// holding boxed policies ([`PolicyState::Other`], e.g. from
    /// [`with_policy_factory`](Self::with_policy_factory)), which may
    /// share state across sets: the DIP and DRRIP families update one
    /// PSEL counter from their leader sets, and bucketing would reorder
    /// those updates.
    pub fn access_many(&mut self, addrs: &[u64]) -> (u64, u64) {
        if self.batch_kernel().is_none() {
            let delta = self.run_trace(addrs.iter().copied());
            return (delta.hits, delta.misses);
        }
        let mut runs: Vec<Vec<u64>> = vec![Vec::new(); self.sets.len()];
        for &addr in addrs {
            runs[self.config.set_index(addr)].push(self.config.tag(addr));
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (index, run) in runs.iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            let set = &mut self.sets[index];
            let occ_before = set.occupancy() as u64;
            let dirty_before = set.dirty_lines();
            let (h, m) = set.access_many(run);
            let occ_after = set.occupancy() as u64;
            hits += h;
            misses += m;
            // A miss that displaced a valid line is an eviction; fills
            // into invalid ways grow the occupancy instead.
            self.stats.evictions += m - (occ_after - occ_before);
            // Reads never dirty a line and only valid lines are dirty, so
            // every dirty bit the run cleared was a dirty victim.
            self.stats.writebacks += dirty_before - set.dirty_lines();
            if occ_before == 0 {
                self.note_filled(index);
            }
        }
        self.stats.accesses += hits + misses;
        self.stats.hits += hits;
        self.stats.misses += misses;
        (hits, misses)
    }

    /// Run a whole address trace, returning the stats delta for the run.
    pub fn run_trace<I: IntoIterator<Item = u64>>(&mut self, trace: I) -> CacheStats {
        let before = self.stats;
        for addr in trace {
            self.access(addr);
        }
        let mut delta = self.stats;
        delta.accesses -= before.accesses;
        delta.hits -= before.hits;
        delta.misses -= before.misses;
        delta.evictions -= before.evictions;
        delta.writes -= before.writes;
        delta.writebacks -= before.writebacks;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::Lru;

    fn small_lru() -> Cache {
        Cache::new(CacheConfig::new(1024, 2, 64).unwrap(), PolicyKind::Lru)
    }

    #[test]
    fn same_line_hits() {
        let mut c = small_lru();
        assert!(c.access(0x100).is_miss());
        for off in 0..64 {
            assert!(c.access(0x100 + off).is_hit());
        }
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small_lru(); // 8 sets, 2 ways
                                 // Fill three lines in three different sets; all must coexist.
        for addr in [0x000u64, 0x040, 0x080] {
            c.access(addr);
        }
        for addr in [0x000u64, 0x040, 0x080] {
            assert!(c.contains(addr));
        }
    }

    #[test]
    fn conflict_misses_in_one_set() {
        let mut c = small_lru();
        let ws = c.config().way_size();
        // Three lines mapping to set 0 in a 2-way cache thrash under LRU
        // when accessed cyclically.
        let lines = [0u64, ws, 2 * ws];
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a).is_miss());
            }
        }
        assert_eq!(c.stats().misses, 30);
    }

    #[test]
    fn eviction_reports_displaced_line_address() {
        let mut c = small_lru();
        let ws = c.config().way_size();
        c.access(0);
        c.access(ws);
        match c.access(2 * ws) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted, Some(0)),
            _ => panic!("expected an eviction"),
        }
    }

    #[test]
    fn flush_forces_cold_misses_again() {
        let mut c = small_lru();
        c.access(0x40);
        assert!(c.access(0x40).is_hit());
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(c.access(0x40).is_miss());
    }

    #[test]
    fn run_trace_returns_delta() {
        let mut c = small_lru();
        c.access(0x40);
        let delta = c.run_trace([0x40u64, 0x40, 0x80]);
        assert_eq!(delta.accesses, 3);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 1);
    }

    #[test]
    fn whole_cache_capacity_fits_exactly() {
        let mut c = small_lru();
        let line = c.config().line_size();
        let n_lines = c.config().capacity() / line;
        for i in 0..n_lines {
            assert!(c.access(i * line).is_miss());
        }
        // A second pass hits everywhere: the working set fits exactly.
        for i in 0..n_lines {
            assert!(c.access(i * line).is_hit());
        }
    }

    #[test]
    fn writes_produce_writebacks_on_eviction() {
        let mut c = small_lru();
        let ws = c.config().way_size();
        c.write(0);
        c.access(ws);
        // Third conflicting line evicts the dirty line 0.
        let (outcome, wb) = c.access_op(2 * ws, false);
        assert!(outcome.is_miss());
        assert_eq!(wb, Some(0));
        let stats = c.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.writebacks, 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = small_lru();
        let ws = c.config().way_size();
        c.access(0);
        c.access(ws);
        let (_, wb) = c.access_op(2 * ws, false);
        assert_eq!(wb, None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn access_many_matches_per_access_calls_and_stats() {
        // LRU@2, CLOCK@8 and LazyLRU@8 have no batch kernel; LRU@4 and
        // PLRU@8 do. LRU@4 also runs with a hole invalidated in every set
        // first, where the kernel falls back to per-access replay. All
        // must agree with the per-access path on every statistic, from a
        // cold cache and from one whose every line was written first (the
        // reads then evict dirty lines, so write-backs must be counted).
        for (kind, assoc, holes) in [
            (PolicyKind::Lru, 2usize, false),
            (PolicyKind::Lru, 4, false),
            (PolicyKind::Lru, 4, true),
            (PolicyKind::TreePlru, 8, false),
            (PolicyKind::Clock, 8, false),
            (PolicyKind::LazyLru, 8, false),
        ] {
            for dirty_first in [false, true] {
                let case = format!("{kind:?}@{assoc} holes={holes} dirty_first={dirty_first}");
                let cfg = CacheConfig::new(64 * assoc as u64 * 8, assoc, 64).unwrap();
                let mut batched = Cache::new(cfg, kind);
                let mut serial = Cache::new(cfg, kind);
                for cache in [&mut batched, &mut serial] {
                    if dirty_first || holes {
                        for line in 0..cfg.capacity() / 64 {
                            cache.access_op(line * 64, dirty_first);
                        }
                    }
                    if holes {
                        // Line `l` of the dense fill sits in way `l / sets`
                        // of its set: drop way 1 everywhere.
                        let sets = cfg.num_sets();
                        for line in sets..2 * sets {
                            assert!(cache.invalidate(line * 64), "{case}");
                        }
                    }
                }
                let addrs: Vec<u64> = (0..4000u64)
                    .map(|i| (i * 2654435761 % (3 * 64 * assoc as u64 * 8)) & !63)
                    .collect();
                let (hits, misses) = batched.access_many(&addrs);
                let before = serial.stats().hits;
                for &a in &addrs {
                    serial.access(a);
                }
                assert_eq!(hits, serial.stats().hits - before, "{case}");
                assert_eq!(hits + misses, addrs.len() as u64);
                assert_eq!(batched.stats(), serial.stats(), "{case}");
                if dirty_first {
                    assert!(serial.stats().writebacks > 0, "{case}");
                }
                for a in &addrs {
                    assert_eq!(batched.contains(*a), serial.contains(*a), "{case}");
                }
            }
        }
    }

    /// Set-dueling families share PSEL across sets, so `access_many` must
    /// keep program order for them: stats, contents and PSEL must match
    /// per-access calls after every chunk.
    #[test]
    fn access_many_keeps_program_order_for_set_dueling() {
        use cachekit_policies::{DipFamily, DrripFamily, DuelState};
        use std::sync::Arc;
        let cfg = CacheConfig::new(64 * 1024, 8, 64).unwrap();
        let build = |name: &str| -> (Cache, Arc<DuelState>) {
            if name == "DIP" {
                let f = DipFamily::new(8, 32, 7);
                let c = Cache::with_policy_factory(cfg, name, |s| f.policy_for_set(s));
                (c, Arc::clone(f.duel()))
            } else {
                let f = DrripFamily::new(8, 2, 32, 7);
                let c = Cache::with_policy_factory(cfg, name, |s| f.policy_for_set(s));
                (c, Arc::clone(f.duel()))
            }
        };
        // Alternate scans of fresh lines with loops over 1.25x the
        // capacity, which thrash the recency components but not the
        // bimodal ones, so the leader sets move PSEL.
        let lines = cfg.capacity() / 64;
        let chunks: Vec<Vec<u64>> = (0..6u64)
            .map(|phase| {
                if phase.is_multiple_of(2) {
                    (0..4 * lines)
                        .map(|i| (phase * 7 * lines + i) * 64)
                        .collect()
                } else {
                    (0..8 * lines).map(|i| (i % (lines * 5 / 4)) * 64).collect()
                }
            })
            .collect();
        for name in ["DIP", "DRRIP"] {
            let (mut batched, batched_duel) = build(name);
            let (mut serial, serial_duel) = build(name);
            for (c, chunk) in chunks.iter().enumerate() {
                let (hits, misses) = batched.access_many(chunk);
                let before = serial.stats().hits;
                for &a in chunk {
                    serial.access(a);
                }
                assert_eq!(hits, serial.stats().hits - before, "{name} chunk {c}");
                assert_eq!(hits + misses, chunk.len() as u64, "{name} chunk {c}");
                assert_eq!(batched.stats(), serial.stats(), "{name} chunk {c}");
                assert_eq!(batched_duel.psel(), serial_duel.psel(), "{name} chunk {c}");
                assert_eq!(
                    batched.resident_lines(),
                    serial.resident_lines(),
                    "{name} chunk {c}"
                );
            }
        }
    }

    #[test]
    fn batch_kernel_is_reported_for_compiled_pairs() {
        let kernels = Cache::new(CacheConfig::new(4096, 16, 64).unwrap(), PolicyKind::Lru);
        assert_eq!(kernels.batch_kernel(), Some("lru16/swar128"));
        let none = Cache::new(CacheConfig::new(4096, 2, 64).unwrap(), PolicyKind::Lru);
        assert_eq!(none.batch_kernel(), None);
        // Boxed policies run one access at a time whatever their label
        // (serve labels its table-adapter caches with the catalog name).
        let cfg = CacheConfig::new(32768, 8, 64).unwrap();
        let boxed = Cache::with_policy_factory(cfg, "LRU", |_| Box::new(Lru::new(8)));
        assert_eq!(boxed.batch_kernel(), None);
    }

    #[test]
    #[should_panic(expected = "associativity must match")]
    fn factory_with_wrong_assoc_panics() {
        let cfg = CacheConfig::new(1024, 2, 64).unwrap();
        let _ = Cache::with_state_factory(cfg, "bad", |_| PolicyKind::Lru.build_state(4, 0));
    }
}
