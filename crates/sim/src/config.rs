//! Cache geometry configuration and address mapping.

use std::error::Error;
use std::fmt;

/// Geometry of one cache level: capacity, associativity and line size.
///
/// The configuration owns the address mapping: physical addresses are
/// split into *offset* (within a line), *set index* and *tag*, in the
/// usual power-of-two layout used by the Intel processors the paper
/// targets. The number of sets (`capacity / (associativity × line_size)`)
/// must be a power of two; the associativity itself may be any value
/// (e.g. the 6-way L1 of the Atom D525 or the 24-way L2 of the Core 2 Duo
/// E8400).
///
/// The mapping is division-free. [`new`](Self::new) admits only a
/// power-of-two line size and a power-of-two set count, and it stores
/// their base-2 logarithms. For an unsigned `x` and `d = 2^k`,
/// `x / d == x >> k` and `x % d == x & (d - 1)` hold exactly, so
/// [`set_index`](Self::set_index), [`tag`](Self::tag) and
/// [`addr_of`](Self::addr_of) use shifts and masks and return what the
/// division formulas `addr / line % sets` and `addr / line / sets` would.
/// The shift `tag` uses is below 64, because one way
/// (`line_size × num_sets`) is no larger than the capacity, a `u64`.
///
/// # Example
///
/// ```
/// use cachekit_sim::CacheConfig;
///
/// # fn main() -> Result<(), cachekit_sim::ConfigError> {
/// let cfg = CacheConfig::new(6 * 1024 * 1024, 24, 64)?; // E8400 L2
/// assert_eq!(cfg.num_sets(), 4096);
/// assert_eq!(cfg.set_index(0x1234_5678), (0x1234_5678 >> 6) as usize % 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    capacity: u64,
    associativity: usize,
    line_size: u64,
    num_sets: u64,
    /// `log2(line_size)`.
    line_shift: u32,
    /// `log2(num_sets)`.
    set_bits: u32,
    index: IndexFunction,
}

/// How line addresses map to sets.
///
/// The processors the paper targets use plain modulo indexing; later
/// last-level caches hash higher address bits into the index (slice
/// selection), which defeats naive same-set address construction — the
/// failure mode `cachekit_core::infer::mapping` detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexFunction {
    /// `set = line_number mod num_sets` (the classic layout).
    #[default]
    Modulo,
    /// `set = (line_number XOR tag) mod num_sets` — a minimal model of
    /// hashed/sliced indexing: the low tag bits are folded into the
    /// index.
    XorFold,
}

/// Error returned for an invalid cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The line size was zero or not a power of two.
    BadLineSize(u64),
    /// The associativity was zero or above the supported maximum of 128.
    BadAssociativity(usize),
    /// The capacity is not `associativity × line_size × 2^k` for any `k`.
    BadCapacity {
        /// The offending capacity in bytes.
        capacity: u64,
        /// Capacity of one way (`line_size × num_sets` would need to
        /// divide this).
        way_granularity: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadLineSize(s) => {
                write!(f, "line size {s} is not a nonzero power of two")
            }
            ConfigError::BadAssociativity(a) => {
                write!(f, "associativity {a} is not in 1..=128")
            }
            ConfigError::BadCapacity {
                capacity,
                way_granularity,
            } => write!(
                f,
                "capacity {capacity} is not associativity x line size ({way_granularity}) \
                 times a power of two"
            ),
        }
    }
}

impl Error for ConfigError {}

impl CacheConfig {
    /// Create a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the line size is not a power of two, the
    /// associativity is outside `1..=128`, or the implied number of sets
    /// is not a power of two.
    pub fn new(capacity: u64, associativity: usize, line_size: u64) -> Result<Self, ConfigError> {
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(ConfigError::BadLineSize(line_size));
        }
        if associativity == 0 || associativity > 128 {
            return Err(ConfigError::BadAssociativity(associativity));
        }
        let way_granularity = associativity as u64 * line_size;
        if capacity == 0 || !capacity.is_multiple_of(way_granularity) {
            return Err(ConfigError::BadCapacity {
                capacity,
                way_granularity,
            });
        }
        let num_sets = capacity / way_granularity;
        if !num_sets.is_power_of_two() {
            return Err(ConfigError::BadCapacity {
                capacity,
                way_granularity,
            });
        }
        Ok(Self {
            capacity,
            associativity,
            line_size,
            num_sets,
            line_shift: line_size.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            index: IndexFunction::Modulo,
        })
    }

    /// Switch to hashed (XOR-folded) indexing. See [`IndexFunction`].
    pub fn with_index_function(mut self, index: IndexFunction) -> Self {
        self.index = index;
        self
    }

    /// The index function in use.
    pub fn index_function(&self) -> IndexFunction {
        self.index
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of ways per set.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Line (block) size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Size of one way in bytes (`line_size × num_sets`). Addresses that
    /// differ by a multiple of this map to the same set.
    pub fn way_size(&self) -> u64 {
        self.line_size * self.num_sets
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    /// Set index of `addr`.
    #[inline]
    pub fn set_index(&self, addr: u64) -> usize {
        let line_number = addr >> self.line_shift;
        let low = match self.index {
            IndexFunction::Modulo => line_number,
            IndexFunction::XorFold => line_number ^ (line_number >> self.set_bits),
        };
        (low & (self.num_sets - 1)) as usize
    }

    /// Tag of `addr` (the line address bits above the set index).
    #[inline]
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.set_bits)
    }

    /// Reconstruct the line address for a `(tag, set)` pair — the inverse
    /// of [`tag`](Self::tag) + [`set_index`](Self::set_index).
    #[inline]
    pub fn addr_of(&self, tag: u64, set: usize) -> u64 {
        let low = match self.index {
            IndexFunction::Modulo => set as u64,
            IndexFunction::XorFold => (set as u64 ^ tag) & (self.num_sets - 1),
        };
        ((tag << self.set_bits) + low) << self.line_shift
    }

    /// The `i`-th distinct line address mapping to `set` (a convenient
    /// generator for eviction sets).
    pub fn nth_line_in_set(&self, set: usize, i: u64) -> u64 {
        self.addr_of(i, set)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB, {}-way, {} B lines, {} sets",
            self.capacity / 1024,
            self.associativity,
            self.line_size,
            self.num_sets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_geometries_are_accepted() {
        for (cap, assoc, line, sets) in [
            (24 * 1024u64, 6usize, 64u64, 64u64), // Atom D525 L1
            (512 * 1024, 8, 64, 1024),            // Atom D525 L2
            (32 * 1024, 8, 64, 64),               // Core 2 L1
            (2 * 1024 * 1024, 8, 64, 4096),       // E6300 L2
            (4 * 1024 * 1024, 16, 64, 4096),      // E6750 L2
            (6 * 1024 * 1024, 24, 64, 4096),      // E8400 L2
        ] {
            let cfg = CacheConfig::new(cap, assoc, line).unwrap();
            assert_eq!(cfg.num_sets(), sets, "{cap} {assoc} {line}");
        }
    }

    #[test]
    fn bad_line_size_is_rejected() {
        assert!(matches!(
            CacheConfig::new(1024, 2, 48),
            Err(ConfigError::BadLineSize(48))
        ));
        assert!(matches!(
            CacheConfig::new(1024, 2, 0),
            Err(ConfigError::BadLineSize(0))
        ));
    }

    #[test]
    fn bad_associativity_is_rejected() {
        assert!(matches!(
            CacheConfig::new(1024, 0, 64),
            Err(ConfigError::BadAssociativity(0))
        ));
        assert!(matches!(
            CacheConfig::new(129 * 64 * 2, 129, 64),
            Err(ConfigError::BadAssociativity(129))
        ));
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        // 3 * 8 * 64 = capacity with 3 sets.
        assert!(CacheConfig::new(3 * 8 * 64, 8, 64).is_err());
    }

    #[test]
    fn mapping_round_trips() {
        let cfg = CacheConfig::new(32 * 1024, 8, 64).unwrap();
        for addr in [0u64, 63, 64, 4095, 0xdead_beef, u64::MAX / 2] {
            let line = cfg.line_addr(addr);
            let set = cfg.set_index(addr);
            let tag = cfg.tag(addr);
            assert_eq!(cfg.addr_of(tag, set), line);
            assert_eq!(cfg.set_index(line), set);
            assert_eq!(cfg.tag(line), tag);
        }
    }

    #[test]
    fn same_set_stride_is_way_size() {
        let cfg = CacheConfig::new(32 * 1024, 8, 64).unwrap();
        let base = 0x1000;
        for i in 0..32 {
            let a = base + i * cfg.way_size();
            assert_eq!(cfg.set_index(a), cfg.set_index(base));
            assert_eq!(cfg.tag(a), cfg.tag(base) + i);
        }
    }

    #[test]
    fn nth_line_in_set_generates_distinct_tags() {
        let cfg = CacheConfig::new(24 * 1024, 6, 64).unwrap();
        let set = 17;
        let mut tags = std::collections::HashSet::new();
        for i in 0..100 {
            let a = cfg.nth_line_in_set(set, i);
            assert_eq!(cfg.set_index(a), set);
            assert!(tags.insert(cfg.tag(a)));
        }
    }

    #[test]
    fn xor_fold_round_trips_and_scrambles() {
        let cfg = CacheConfig::new(32 * 1024, 8, 64)
            .unwrap()
            .with_index_function(IndexFunction::XorFold);
        // Round trip still holds under the hash.
        for addr in [0u64, 64, 4096, 0xdead_bec0, 123 * 64] {
            let line = cfg.line_addr(addr);
            assert_eq!(cfg.addr_of(cfg.tag(addr), cfg.set_index(addr)), line);
        }
        // Addresses spaced by the way size no longer share a set.
        let modulo = CacheConfig::new(32 * 1024, 8, 64).unwrap();
        let stride_conflicts = (0..16u64)
            .map(|i| cfg.set_index(i * cfg.way_size()))
            .collect::<std::collections::HashSet<_>>();
        assert!(stride_conflicts.len() > 1, "hash must scramble the stride");
        let plain = (0..16u64)
            .map(|i| modulo.set_index(i * modulo.way_size()))
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(plain.len(), 1);
    }

    /// The shift/mask mapping against the division formulas it replaced,
    /// kept here as the reference: every power-of-two line size and set
    /// count in range, odd and even associativities, both index
    /// functions, random addresses plus the extremes and way-size
    /// multiples.
    #[test]
    fn shift_mapping_matches_division_formulas() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // splitmix64
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for line_log in 0..=20u32 {
            for sets_log in 0..=16u32 {
                for assoc in [1usize, 3, 6, 8, 24] {
                    let (line, sets) = (1u64 << line_log, 1u64 << sets_log);
                    let modulo = CacheConfig::new(line * sets * assoc as u64, assoc, line)
                        .expect("power-of-two geometry");
                    for cfg in [modulo, modulo.with_index_function(IndexFunction::XorFold)] {
                        let way = cfg.way_size();
                        let mut addrs = vec![0, u64::MAX, way, 7 * way, way - 1, way * sets];
                        addrs.extend((0..24).map(|_| next()));
                        addrs.extend((0..8).map(|_| next() % 64 * way));
                        for addr in addrs {
                            let line_number = addr / line;
                            let tag = line_number / sets;
                            let set = match cfg.index_function() {
                                IndexFunction::Modulo => line_number % sets,
                                IndexFunction::XorFold => (line_number ^ tag) % sets,
                            } as usize;
                            let low = match cfg.index_function() {
                                IndexFunction::Modulo => set as u64,
                                IndexFunction::XorFold => (set as u64 ^ tag) % sets,
                            };
                            let line_addr = (tag * sets + low) * line;
                            assert_eq!(cfg.set_index(addr), set, "{cfg:?} {addr:#x}");
                            assert_eq!(cfg.tag(addr), tag, "{cfg:?} {addr:#x}");
                            assert_eq!(cfg.addr_of(tag, set), line_addr, "{cfg:?} {addr:#x}");
                            assert_eq!(cfg.line_addr(addr), line_addr, "{cfg:?} {addr:#x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_is_compact() {
        let cfg = CacheConfig::new(32 * 1024, 8, 64).unwrap();
        assert_eq!(cfg.to_string(), "32 KiB, 8-way, 64 B lines, 64 sets");
    }
}
