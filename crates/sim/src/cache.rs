//! A complete single-level cache.

use crate::set::SetOutcome;
use crate::{CacheConfig, CacheSet, CacheStats};
use cachekit_policies::kernel::KernelCache;
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
    /// The batch kernel [`access_many`](Self::access_many) runs, with the
    /// kind it was compiled for; picked once, by [`new`](Self::new).
    kernel: Option<(PolicyKind, &'static str)>,
    stats: CacheStats,
    policy_label: String,
}

impl Cache {
    /// Create a cache whose sets all use policies of `kind`, stored
    /// inline as enum-dispatched [`PolicyState`]s.
    pub fn new(config: CacheConfig, kind: PolicyKind) -> Self {
        let mut cache = Self::with_state_factory(config, kind.label(), |set| {
            kind.build_state(config.associativity(), set)
        });
        cache.kernel = KernelCache::kernel_name(kind, config.associativity()).map(|k| (kind, k));
        cache
    }

    /// Create a cache with one inline policy state per set produced by
    /// `factory` (called with the set index), and no batch kernel.
    ///
    /// # Panics
    ///
    /// Panics if a produced policy's associativity does not match the
    /// configuration.
    fn with_state_factory(
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
        Self {
            config,
            sets,
            filled_sets: Vec::new(),
            kernel: None,
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
    /// keeps its dynamic-dispatch cost, and no batch kernel runs it.
    /// Catalog policies should go through [`new`](Self::new).
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
        if write {
            self.stats.writes += 1;
        }
        match self.sets[set].access_rw(self.config.tag(addr), write) {
            (SetOutcome::Hit { .. }, _) => {
                self.stats.record_hit();
                (AccessOutcome::Hit, None)
            }
            (SetOutcome::Miss { evicted, .. }, writeback) => self.miss(set, evicted, writeback),
        }
    }

    /// The rest of a miss in `set` after the policy call: statistics, the
    /// flush list, and the displaced and written-back tags turned back
    /// into addresses. Out of line, so `access_op` holds no mapping value
    /// across the policy call: each is read from `self.config` here.
    #[inline(never)]
    fn miss(
        &mut self,
        set: usize,
        evicted: Option<u64>,
        writeback: Option<u64>,
    ) -> (AccessOutcome, Option<u64>) {
        self.stats.record_miss(evicted.is_some());
        // The first line into an empty set: list it for `flush`.
        if evicted.is_none() && self.sets[set].occupancy() == 1 {
            self.note_filled(set);
        }
        let writeback = writeback.map(|t| {
            self.stats.writebacks += 1;
            self.config.addr_of(t, set)
        });
        let evicted = evicted.map(|t| self.config.addr_of(t, set));
        (AccessOutcome::Miss { evicted }, writeback)
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

    /// The batch kernel `access_many` will use, if the cache was built
    /// by [`new`](Self::new) for a policy and associativity with one
    /// compiled (e.g. `"lru16/swar128"`) — `None` means `access_many`
    /// runs one access at a time. A cache holding boxed policies has
    /// none, whatever its label. Recorded by the serving layer and the
    /// benchmarks as engine metadata.
    pub fn batch_kernel(&self) -> Option<&'static str> {
        self.kernel.map(|(_, name)| name)
    }

    /// Run a stream of read accesses in one call, returning
    /// `(hits, misses)` for the stream and updating the statistics.
    ///
    /// Behaviour (contents, replacement state, hit/miss/eviction and
    /// write-back counts) is identical to calling [`access`](Self::access)
    /// per element.
    ///
    /// A cache with a [`batch_kernel`](Self::batch_kernel) loads every
    /// set into a [`KernelCache`] slab, runs the stream through
    /// [`KernelCache::access_many`] in program order, a bounded chunk of
    /// `(set, tag)` pairs at a time, and stores the sets back. It runs
    /// the stream one [`access`](Self::access) at a time instead when a
    /// set has an invalidation hole (its valid ways are not a dense
    /// prefix) or any line is dirty, since the slab keeps neither, or
    /// when a set holds a policy state the kernel does not pack (a set
    /// replaced through [`set_mut`](Self::set_mut)).
    ///
    /// Every other cache runs the stream one access at a time. That
    /// includes every cache holding boxed policies
    /// ([`PolicyState::Other`], e.g. from
    /// [`with_policy_factory`](Self::with_policy_factory)).
    pub fn access_many(&mut self, addrs: &[u64]) -> (u64, u64) {
        /// Pairs per kernel call: the pair buffer stays this small
        /// whatever the stream's length.
        const CHUNK: usize = 4096;
        let slab = match self.kernel {
            Some((kind, _)) if !addrs.is_empty() => self.load_slab(kind),
            _ => None,
        };
        let Some(mut slab) = slab else {
            let delta = self.run_trace(addrs.iter().copied());
            return (delta.hits, delta.misses);
        };
        let mut pairs = Vec::with_capacity(CHUNK.min(addrs.len()));
        let (mut hits, mut misses) = (0, 0);
        for chunk in addrs.chunks(CHUNK) {
            pairs.clear();
            pairs.extend(
                chunk
                    .iter()
                    .map(|&a| (self.config.set_index(a) as u32, self.config.tag(a))),
            );
            let (h, m) = slab.access_many(&pairs);
            hits += h;
            misses += m;
        }
        let mut fills = 0;
        for index in 0..self.sets.len() {
            let before = self.sets[index].occupancy();
            self.sets[index].store_from(&slab, index);
            let after = self.sets[index].occupancy();
            fills += (after - before) as u64;
            if before == 0 && after > 0 {
                self.note_filled(index);
            }
        }
        // A miss that displaced a valid line is an eviction; fills into
        // invalid ways grow the occupancy instead. No line was dirty and
        // reads dirty none, so nothing was written back.
        self.stats.evictions += misses - fills;
        self.stats.accesses += hits + misses;
        self.stats.hits += hits;
        self.stats.misses += misses;
        (hits, misses)
    }

    /// Every set loaded into a fresh slab of `kind`'s kernel, or `None`
    /// if some set refuses (see [`CacheSet::load_into`]).
    fn load_slab(&self, kind: PolicyKind) -> Option<KernelCache> {
        let mut slab = KernelCache::for_kind(kind, self.config.associativity(), self.sets.len())?;
        let loaded = self
            .sets
            .iter()
            .enumerate()
            .all(|(index, set)| set.load_into(&mut slab, index));
        loaded.then_some(slab)
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
    use cachekit_policies::kernel::kernel_available;

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
        // The 12 kernel pairs, plus LRU@2, CLOCK@8 and LazyLRU@8, which
        // have no kernel. Each stream is cut at seeded split points, and
        // between batches the twins may both flush, invalidate a line
        // (leaving a hole the slab cannot load) or write one (leaving a
        // dirty line the slab does not keep). After every batch the
        // batched cache must equal its per-access twin in every
        // statistic, resident line and set's replacement state.
        let mut cases: Vec<(PolicyKind, usize)> = Vec::new();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::TreePlru,
            PolicyKind::Nru,
        ] {
            cases.extend([4, 8, 16].map(|assoc| (kind, assoc)));
        }
        cases.extend([
            (PolicyKind::Lru, 2),
            (PolicyKind::Clock, 8),
            (PolicyKind::LazyLru, 8),
        ]);
        for (kind, assoc) in cases {
            let sets = 8u64;
            let cfg = CacheConfig::new(64 * assoc as u64 * sets, assoc, 64).unwrap();
            let mut batched = Cache::new(cfg, kind);
            let mut serial = Cache::new(cfg, kind);
            assert_eq!(
                batched.batch_kernel().is_some(),
                kernel_available(kind, assoc)
            );
            let mut rng = 0x5EED ^ assoc as u64;
            let mut next = |bound: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % bound
            };
            let lines = sets * assoc as u64;
            let addrs: Vec<u64> = (0..6000)
                .map(|_| {
                    let span = if next(4) == 0 { 3 * lines } else { lines };
                    64 * next(span)
                })
                .collect();
            let (mut at, mut batch) = (0, 0);
            while at < addrs.len() {
                let end = (at + next(1200) as usize).min(addrs.len());
                let case = format!("{kind:?}@{assoc} batch {batch} ({at}..{end})");
                let (hits, misses) = batched.access_many(&addrs[at..end]);
                let before = serial.stats();
                for &a in &addrs[at..end] {
                    serial.access(a);
                }
                assert_eq!(hits, serial.stats().hits - before.hits, "{case}");
                assert_eq!(misses, serial.stats().misses - before.misses, "{case}");
                assert_eq!(batched.stats(), serial.stats(), "{case}");
                assert_eq!(batched.resident_lines(), serial.resident_lines(), "{case}");
                for set in 0..sets as usize {
                    assert_eq!(
                        batched.set(set).policy().state_key(),
                        serial.set(set).policy().state_key(),
                        "{case} set {set}"
                    );
                }
                let line = addrs[next(addrs.len() as u64) as usize];
                let op = next(6);
                for cache in [&mut batched, &mut serial] {
                    match op {
                        0 => cache.flush(),
                        1 | 2 => {
                            cache.invalidate(line);
                        }
                        3 => {
                            cache.write(line);
                        }
                        _ => {}
                    }
                }
                (at, batch) = (end, batch + 1);
            }
            assert!(batch > 5, "{kind:?}@{assoc}: only {batch} batches");
        }
    }

    /// Set-dueling families share PSEL across sets, so `access_many` must
    /// keep program order for them: stats, contents and PSEL must match
    /// per-access calls after every chunk.
    #[test]
    fn access_many_keeps_program_order_for_set_dueling() {
        use cachekit_policies::{DuelFamily, DuelState};
        use std::sync::Arc;
        let cfg = CacheConfig::new(64 * 1024, 8, 64).unwrap();
        let build = |name: &str| -> (Cache, Arc<DuelState>) {
            if name == "DIP" {
                let f = DuelFamily::new(PolicyKind::Bip { throttle: 32 }, 8, cfg.num_sets(), 7);
                let c = Cache::with_policy_factory(cfg, name, |s| f.policy_for_set(s));
                (c, Arc::clone(f.duel()))
            } else {
                let f = DuelFamily::new(
                    PolicyKind::Brrip {
                        bits: 2,
                        throttle: 32,
                    },
                    8,
                    cfg.num_sets(),
                    7,
                );
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
        // Boxed policies run one access at a time whatever their label,
        // even a catalog name.
        let cfg = CacheConfig::new(32768, 8, 64).unwrap();
        let boxed =
            Cache::with_policy_factory(cfg, "LRU", |_| Box::new(PolicyKind::Lru.build_state(8, 0)));
        assert_eq!(boxed.batch_kernel(), None);
    }

    #[test]
    #[should_panic(expected = "associativity must match")]
    fn factory_with_wrong_assoc_panics() {
        let cfg = CacheConfig::new(1024, 2, 64).unwrap();
        let _ = Cache::with_state_factory(cfg, "bad", |_| PolicyKind::Lru.build_state(4, 0));
    }
}
