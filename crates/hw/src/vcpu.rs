//! The virtual CPU: a two-level hierarchy with hidden policies, TLB,
//! prefetcher and noise.

use crate::latency::LatencyModel;
use crate::noise::NoiseModel;
use crate::prefetch::Prefetcher;
use crate::tlb::Tlb;
use cachekit_policies::rng::Prng;
use cachekit_policies::PolicyKind;
use cachekit_sim::{Cache, CacheConfig, Hierarchy, HierarchyOutcome};

/// What one demand access did, as real hardware would report it through
/// per-event performance counters and `rdtsc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// Whether the access missed in the L1.
    pub l1_miss: bool,
    /// Whether the access missed in the L2 (false if it never reached it).
    pub l2_miss: bool,
    /// Whether the access missed in the L3 (false if it never reached it,
    /// or if the machine has no L3).
    pub l3_miss: bool,
    /// Measured latency in cycles (includes jitter and TLB-walk cost).
    pub latency: u64,
}

/// A virtual processor with hidden replacement policies.
///
/// Constructed through [`VirtualCpuBuilder`]; the canonical instances
/// live in [`crate::fleet`]. The *hidden* part is a discipline, not an
/// enforcement: the reverse-engineering pipeline only ever touches the
/// [`LevelOracle`](crate::LevelOracle) wrapper, which exposes nothing but
/// noisy measurement results.
#[derive(Debug)]
pub struct VirtualCpu {
    name: String,
    hierarchy: Hierarchy,
    tlb: Tlb,
    tlb_walk_pollutes: bool,
    prefetcher: Prefetcher,
    noise: NoiseModel,
    latency: LatencyModel,
    rng: Prng,
    background: Option<(Vec<u64>, usize)>,
    demand_accesses: u64,
    l1_miss_count: u64,
    l2_miss_count: u64,
    l3_miss_count: u64,
}

impl VirtualCpu {
    /// Start building a CPU with the given display name.
    pub fn builder(name: impl Into<String>) -> VirtualCpuBuilder {
        VirtualCpuBuilder::new(name)
    }

    /// Display name (e.g. `"core2_e6300"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The L1 geometry (datasheet knowledge, used by harnesses to check
    /// inference results; the oracle does not use it).
    pub fn l1_config(&self) -> &CacheConfig {
        self.hierarchy.level(0).config()
    }

    /// The L2 geometry.
    pub fn l2_config(&self) -> &CacheConfig {
        self.hierarchy.level(1).config()
    }

    /// The L3 geometry, when the machine has a third level.
    pub fn l3_config(&self) -> Option<&CacheConfig> {
        (self.hierarchy.depth() > 2).then(|| self.hierarchy.level(2).config())
    }

    /// Label of the hidden L3 policy, when present.
    pub fn hidden_l3_policy(&self) -> Option<&str> {
        (self.hierarchy.depth() > 2).then(|| self.hierarchy.level(2).policy_label())
    }

    /// Label of the hidden L1 policy — for *checking* experiment results,
    /// never for running them.
    pub fn hidden_l1_policy(&self) -> &str {
        self.hierarchy.level(0).policy_label()
    }

    /// Label of the hidden L2 policy.
    pub fn hidden_l2_policy(&self) -> &str {
        self.hierarchy.level(1).policy_label()
    }

    /// The latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The noise model.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.noise
    }

    /// Execute one demand access.
    pub fn access(&mut self, addr: u64) -> AccessReport {
        self.demand_accesses += 1;

        // A co-running workload (sibling thread) interleaves one access of
        // its own per demand access — state interference that, unlike
        // counter noise, no amount of re-reading can undo.
        if let Some((trace, cursor)) = &mut self.background {
            let bg = trace[*cursor % trace.len()];
            *cursor += 1;
            self.hierarchy.access(bg);
        }

        // Background interference: another agent evicts a random line
        // from the accessed set at each level.
        if self.noise.background_eviction > 0.0 {
            for level in 0..self.hierarchy.depth() {
                if self.rng.gen_bool(self.noise.background_eviction) {
                    let cache = self.hierarchy.level_mut(level);
                    let set = cache.config().set_index(addr);
                    let assoc = cache.config().associativity();
                    let way = self.rng.gen_range(0..assoc);
                    cache.set_mut(set).force_evict(way);
                }
            }
        }

        // Address translation.
        let mut extra_latency = 0;
        if !self.tlb.lookup(addr) {
            extra_latency += self.latency.tlb_miss;
            if self.tlb_walk_pollutes {
                let pte = self.tlb.pte_addr(addr);
                self.hierarchy.access(pte); // pollutes, not counted
            }
        }

        // The demand access itself.
        let outcome = self.hierarchy.access(addr);
        let depth = self.hierarchy.depth();
        let deepest_missed = match outcome {
            HierarchyOutcome::Level(l) => l, // missed levels 0..l
            HierarchyOutcome::Memory => depth,
        };
        let l1_miss = deepest_missed > 0;
        let l2_miss = deepest_missed > 1;
        let l3_miss = depth > 2 && deepest_missed > 2;
        if l1_miss {
            self.l1_miss_count += 1;
        }
        if l2_miss {
            self.l2_miss_count += 1;
        }
        if l3_miss {
            self.l3_miss_count += 1;
        }

        // Prefetch on demand miss (pollutes, not counted).
        if l1_miss {
            let line = self.hierarchy.level(0).config().line_size();
            if let Some(companion) = self.prefetcher.companion(addr, line) {
                self.hierarchy.access(companion);
            }
        }

        let level = match outcome {
            HierarchyOutcome::Level(l) => Some(l),
            HierarchyOutcome::Memory => None,
        };
        AccessReport {
            l1_miss,
            l2_miss,
            l3_miss,
            latency: self.latency.cycles(level, &mut self.rng) + extra_latency,
        }
    }

    /// Run a whole sequence, returning one report per access.
    pub fn run(&mut self, addrs: &[u64]) -> Vec<AccessReport> {
        addrs.iter().map(|&a| self.access(a)).collect()
    }

    /// Flush caches and TLB (the `wbinvd` + context-switch equivalent).
    /// Replacement state inside the caches is preserved, like hardware.
    pub fn flush(&mut self) {
        self.hierarchy.flush();
        self.tlb.flush();
    }

    /// Apply counter-noise distortion to an observed event (the oracle
    /// calls this once per probe access).
    pub fn distort(&mut self, event: bool) -> bool {
        if self.noise.counter_noise > 0.0 && self.rng.gen_bool(self.noise.counter_noise) {
            !event
        } else {
            event
        }
    }

    /// Total demand accesses executed.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_accesses
    }

    /// True (noise-free) cumulative L1 miss counter.
    pub fn l1_miss_count(&self) -> u64 {
        self.l1_miss_count
    }

    /// True (noise-free) cumulative L2 miss counter.
    pub fn l2_miss_count(&self) -> u64 {
        self.l2_miss_count
    }

    /// True (noise-free) cumulative L3 miss counter (0 without an L3).
    pub fn l3_miss_count(&self) -> u64 {
        self.l3_miss_count
    }
}

/// Builder for [`VirtualCpu`].
///
/// # Example
///
/// ```
/// use cachekit_hw::{NoiseModel, VirtualCpu};
/// use cachekit_policies::PolicyKind;
/// use cachekit_sim::CacheConfig;
///
/// # fn main() -> Result<(), cachekit_sim::ConfigError> {
/// let cpu = VirtualCpu::builder("toy")
///     .l1(CacheConfig::new(4 * 1024, 2, 64)?, PolicyKind::Lru)
///     .l2(CacheConfig::new(64 * 1024, 8, 64)?, PolicyKind::TreePlru)
///     .noise(NoiseModel::counter(0.01))
///     .build();
/// assert_eq!(cpu.name(), "toy");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VirtualCpuBuilder {
    name: String,
    l1: Option<LevelSource>,
    l2: Option<LevelSource>,
    l3: Option<LevelSource>,
    tlb_entries: usize,
    page_size: u64,
    tlb_walk_pollutes: bool,
    prefetcher: Prefetcher,
    noise: NoiseModel,
    latency: LatencyModel,
    seed: u64,
    background: Option<(Vec<u64>, usize)>,
}

/// How one level of the hierarchy is specified.
#[derive(Debug)]
enum LevelSource {
    /// Geometry plus a named policy kind.
    Spec(CacheConfig, PolicyKind),
    /// A fully constructed cache (arbitrary hidden policies, e.g. a
    /// permutation spec under test).
    Prebuilt(Cache),
}

impl LevelSource {
    fn into_cache(self) -> Cache {
        match self {
            LevelSource::Spec(cfg, kind) => Cache::new(cfg, kind),
            LevelSource::Prebuilt(cache) => cache,
        }
    }
}

impl VirtualCpuBuilder {
    /// Start a builder with default TLB (64 entries, 4 KiB pages), no
    /// prefetching, no noise and the default latency model.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            l1: None,
            l2: None,
            l3: None,
            tlb_entries: 64,
            page_size: 4096,
            tlb_walk_pollutes: false,
            prefetcher: Prefetcher::Disabled,
            noise: NoiseModel::none(),
            latency: LatencyModel::default(),
            seed: 0x5eed,
            background: None,
        }
    }

    /// Set the L1 geometry and hidden policy (this or
    /// [`l1_cache`](Self::l1_cache) is required).
    pub fn l1(mut self, config: CacheConfig, policy: PolicyKind) -> Self {
        self.l1 = Some(LevelSource::Spec(config, policy));
        self
    }

    /// Set the L2 geometry and hidden policy (this or
    /// [`l2_cache`](Self::l2_cache) is required).
    pub fn l2(mut self, config: CacheConfig, policy: PolicyKind) -> Self {
        self.l2 = Some(LevelSource::Spec(config, policy));
        self
    }

    /// Use a fully constructed cache as the L1 — for hidden policies that
    /// have no [`PolicyKind`] (e.g. an arbitrary permutation spec).
    pub fn l1_cache(mut self, cache: Cache) -> Self {
        self.l1 = Some(LevelSource::Prebuilt(cache));
        self
    }

    /// Use a fully constructed cache as the L2.
    pub fn l2_cache(mut self, cache: Cache) -> Self {
        self.l2 = Some(LevelSource::Prebuilt(cache));
        self
    }

    /// Add a third cache level (optional).
    pub fn l3(mut self, config: CacheConfig, policy: PolicyKind) -> Self {
        self.l3 = Some(LevelSource::Spec(config, policy));
        self
    }

    /// Configure the TLB.
    pub fn tlb(mut self, entries: usize, page_size: u64) -> Self {
        self.tlb_entries = entries;
        self.page_size = page_size;
        self
    }

    /// Make TLB page walks pollute the cache hierarchy ("hard mode").
    pub fn tlb_pollution(mut self, on: bool) -> Self {
        self.tlb_walk_pollutes = on;
        self
    }

    /// Enable the adjacent-line prefetcher ("hard mode"; the paper writes
    /// the disable MSRs before measuring).
    pub fn adjacent_line_prefetcher(mut self, on: bool) -> Self {
        self.prefetcher = if on {
            Prefetcher::AdjacentLine
        } else {
            Prefetcher::Disabled
        };
        self
    }

    /// Set the measurement-noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Set the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Seed for all stochastic behaviour (noise, jitter, hidden
    /// stochastic policies get their own seeds via `PolicyKind`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a co-running workload: its accesses interleave one-per
    /// demand access, cycling through `trace` (empty disables it).
    pub fn background_trace(mut self, trace: Vec<u64>) -> Self {
        self.background = if trace.is_empty() {
            None
        } else {
            Some((trace, 0))
        };
        self
    }

    /// Build the CPU.
    ///
    /// # Panics
    ///
    /// Panics if L1 or L2 was not configured.
    pub fn build(self) -> VirtualCpu {
        let l1 = self.l1.expect("L1 must be configured").into_cache();
        let l2 = self.l2.expect("L2 must be configured").into_cache();
        let mut levels = vec![l1, l2];
        if let Some(l3) = self.l3 {
            levels.push(l3.into_cache());
        }
        let hierarchy = Hierarchy::from_caches(levels);
        VirtualCpu {
            name: self.name,
            hierarchy,
            tlb: Tlb::new(self.tlb_entries, self.page_size),
            tlb_walk_pollutes: self.tlb_walk_pollutes,
            prefetcher: self.prefetcher,
            noise: self.noise,
            latency: self.latency,
            rng: Prng::seed_from_u64(self.seed),
            background: self.background,
            demand_accesses: 0,
            l1_miss_count: 0,
            l2_miss_count: 0,
            l3_miss_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> VirtualCpu {
        VirtualCpu::builder("toy")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(
                CacheConfig::new(64 * 1024, 8, 64).unwrap(),
                PolicyKind::TreePlru,
            )
            .build()
    }

    #[test]
    fn cold_access_misses_both_levels() {
        let mut cpu = toy();
        let r = cpu.access(0x1000);
        assert!(r.l1_miss && r.l2_miss);
        assert!(r.latency >= cpu.latency_model().memory);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut cpu = toy();
        cpu.access(0x1000);
        let r = cpu.access(0x1000);
        assert!(!r.l1_miss && !r.l2_miss);
        assert!(r.latency < cpu.latency_model().l1_miss_threshold());
    }

    #[test]
    fn l1_eviction_leaves_l2_hit() {
        let mut cpu = toy();
        let l1_ways = cpu.l1_config().way_size();
        cpu.access(0);
        cpu.access(l1_ways);
        cpu.access(2 * l1_ways); // evicts 0 from the 2-way L1
        let r = cpu.access(0);
        assert!(r.l1_miss);
        assert!(!r.l2_miss);
    }

    #[test]
    fn flush_restores_cold_behaviour() {
        let mut cpu = toy();
        cpu.access(0x40);
        cpu.flush();
        let r = cpu.access(0x40);
        assert!(r.l1_miss && r.l2_miss);
    }

    #[test]
    fn counters_accumulate() {
        let mut cpu = toy();
        cpu.access(0);
        cpu.access(0);
        cpu.access(64);
        assert_eq!(cpu.demand_accesses(), 3);
        assert_eq!(cpu.l1_miss_count(), 2);
        assert_eq!(cpu.l2_miss_count(), 2);
    }

    #[test]
    fn tlb_miss_adds_latency() {
        let mut cpu = toy();
        let cold = cpu.access(0x1000_0000).latency; // TLB miss + mem
        cpu.flush(); // drops caches and TLB
        cpu.access(0x1000_0000);
        // Cache flushed but same page touched twice in a row: second
        // access pays no TLB penalty if within the TLB reach.
        let warm_tlb = cpu.access(0x1000_0040).latency;
        assert!(cold > warm_tlb);
        let _ = warm_tlb;
    }

    #[test]
    fn prefetcher_pulls_the_buddy_line() {
        let mut cpu = VirtualCpu::builder("pf")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(CacheConfig::new(64 * 1024, 8, 64).unwrap(), PolicyKind::Lru)
            .adjacent_line_prefetcher(true)
            .build();
        cpu.access(0x1000);
        let r = cpu.access(0x1040); // buddy was prefetched
        assert!(!r.l1_miss);
    }

    #[test]
    fn background_trace_steals_cache_space() {
        // A background scan hammering the same set as the measured line
        // causes spurious demand misses. (FIFO L1: under LRU a 1:1
        // interleave cannot displace a line that is re-hit every round —
        // itself a nice illustration of the policies' different
        // interference resistance.)
        let bg: Vec<u64> = (1..=4u64).map(|i| i * 2 * 1024).collect(); // L1 set 0
        let mut cpu = VirtualCpu::builder("bg-trace")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Fifo)
            .l2(CacheConfig::new(64 * 1024, 8, 64).unwrap(), PolicyKind::Lru)
            .background_trace(bg)
            .build();
        cpu.access(0); // L1 set 0
                       // Re-accessing the same line keeps missing in L1: the background
                       // conflict stream rotates it out between demand accesses.
        let misses = (0..50).filter(|_| cpu.access(0).l1_miss).count();
        assert!(misses > 15, "only {misses}/50 L1 misses under interference");
    }

    #[test]
    fn counter_noise_flips_events() {
        let mut cpu = VirtualCpu::builder("noisy")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(CacheConfig::new(64 * 1024, 8, 64).unwrap(), PolicyKind::Lru)
            .noise(NoiseModel::counter(0.5))
            .build();
        let flips = (0..1000).filter(|_| cpu.distort(false)).count();
        assert!(flips > 350 && flips < 650, "flips = {flips}");
    }

    #[test]
    fn background_evictions_cause_spurious_misses() {
        let mut cpu = VirtualCpu::builder("bg")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(CacheConfig::new(64 * 1024, 8, 64).unwrap(), PolicyKind::Lru)
            .noise(NoiseModel {
                counter_noise: 0.0,
                background_eviction: 0.3,
            })
            .build();
        cpu.access(0x40);
        // Re-access the same line many times; with 30% background
        // evictions per level some of these must miss.
        let misses = (0..200).filter(|_| cpu.access(0x40).l1_miss).count();
        assert!(misses > 10, "misses = {misses}");
    }

    #[test]
    #[should_panic(expected = "L1 must be configured")]
    fn builder_requires_l1() {
        let _ = VirtualCpu::builder("x").build();
    }

    fn three_level() -> VirtualCpu {
        VirtualCpu::builder("3lvl")
            .l1(CacheConfig::new(4 * 1024, 2, 64).unwrap(), PolicyKind::Lru)
            .l2(
                CacheConfig::new(32 * 1024, 4, 64).unwrap(),
                PolicyKind::TreePlru,
            )
            .l3(
                CacheConfig::new(256 * 1024, 8, 64).unwrap(),
                PolicyKind::TreePlru,
            )
            .build()
    }

    #[test]
    fn three_level_reports_track_the_hit_level() {
        let mut cpu = three_level();
        let cold = cpu.access(0x40);
        assert!(cold.l1_miss && cold.l2_miss && cold.l3_miss);
        let warm = cpu.access(0x40);
        assert!(!warm.l1_miss && !warm.l2_miss && !warm.l3_miss);
        // Evict from the 2-way L1 only: next touch is an L1 miss, L2 hit.
        let l1_way = cpu.l1_config().way_size();
        cpu.access(0x40 + l1_way);
        cpu.access(0x40 + 2 * l1_way);
        let r = cpu.access(0x40);
        assert!(r.l1_miss);
        assert!(!r.l2_miss && !r.l3_miss);
        assert_eq!(cpu.l3_miss_count(), 3); // the three cold lines
    }

    #[test]
    fn l3_config_is_exposed_only_when_present() {
        assert!(toy().l3_config().is_none());
        let cpu = three_level();
        assert_eq!(cpu.l3_config().unwrap().capacity(), 256 * 1024);
        assert_eq!(cpu.hidden_l3_policy(), Some("PLRU"));
    }

    #[test]
    fn two_level_reports_never_set_l3_miss() {
        let mut cpu = toy();
        let r = cpu.access(0x9999);
        assert!(!r.l3_miss);
    }
}
