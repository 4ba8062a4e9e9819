//! A single cache set: tags, validity and replacement state.

use cachekit_policies::{PolicyKind, PolicyState, ReplacementPolicy};

/// One set of a set-associative cache.
///
/// The representation is struct-of-arrays and fully inline: a dense tag
/// array, validity and dirtiness as bitmasks (associativity is capped at
/// 128 ways), and the replacement state as an enum-dispatched
/// [`PolicyState`] — no heap box per set, no virtual call per access.
/// All higher-level behaviour — address mapping, statistics, multi-level
/// composition — lives in [`Cache`](crate::Cache); the set only answers
/// "hit or miss, and whom do I evict".
#[derive(Debug, Clone)]
pub struct CacheSet {
    /// Tag per way; only meaningful where the `valid` bit is set.
    tags: TagArray,
    valid: u128,
    dirty: u128,
    policy: PolicyState,
}

/// Largest associativity whose tag array is stored inline in the set.
const INLINE_TAG_WAYS: usize = 8;

/// Tag storage: catalog associativities up to [`INLINE_TAG_WAYS`] keep
/// their tags inside the set itself, so a lookup loads no pointer before
/// the tags — the set is one contiguous block whose loads all issue in
/// parallel. Wider configurations fall back to a `Vec`; the indirection
/// they pay is a constant per access, not a contract change.
///
/// Derefs to `[u64]` of length `assoc`, so all users index it like the
/// `Vec<u64>` it replaced.
#[derive(Debug, Clone)]
enum TagArray {
    Inline {
        len: u8,
        buf: [u64; INLINE_TAG_WAYS],
    },
    Heap(Vec<u64>),
}

impl TagArray {
    fn new(assoc: usize) -> Self {
        if assoc <= INLINE_TAG_WAYS {
            TagArray::Inline {
                len: assoc as u8,
                buf: [0; INLINE_TAG_WAYS],
            }
        } else {
            TagArray::Heap(vec![0; assoc])
        }
    }

    /// The lowest way among those set in `valid` that holds `tag`.
    ///
    /// An inline row compares all [`INLINE_TAG_WAYS`] slots, a
    /// fixed-width compare with no per-associativity dispatch; the slots
    /// past `len` are never valid, so the mask drops them.
    #[inline]
    fn find(&self, valid: u128, tag: u64) -> Option<usize> {
        match self {
            TagArray::Inline { buf, .. } => lowest_way(match_mask(buf, tag) & valid as u64),
            TagArray::Heap(row) => find_way(row, valid, tag),
        }
    }
}

impl std::ops::Deref for TagArray {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            TagArray::Inline { len, buf } => &buf[..*len as usize],
            TagArray::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for TagArray {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            TagArray::Inline { len, buf } => &mut buf[..*len as usize],
            TagArray::Heap(v) => v,
        }
    }
}

/// Result of a set lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetOutcome {
    /// The tag was present in the given way.
    Hit {
        /// The way that matched.
        way: usize,
    },
    /// The tag was installed; `evicted` is the tag it displaced, if any.
    Miss {
        /// The way the new line was installed into.
        way: usize,
        /// Tag displaced by the fill (`None` if the way was invalid).
        evicted: Option<u64>,
    },
}

/// Bitmask of the ways of `row` (at most 64) that hold `tag`: bit `w`
/// is set iff `row[w] == tag`. Every way is compared, so the loop
/// unrolls and vectorizes and costs no data-dependent branch, where an
/// early-exit scan mispredicts on nearly every access because the hit
/// way is essentially random.
#[inline]
fn match_mask(row: &[u64], tag: u64) -> u64 {
    debug_assert!(row.len() <= 64);
    let mut mask = 0u64;
    for (w, &t) in row.iter().enumerate() {
        mask |= u64::from(t == tag) << w;
    }
    mask
}

#[inline]
fn lowest_way(hits: u64) -> Option<usize> {
    (hits != 0).then(|| hits.trailing_zeros() as usize)
}

/// The lowest way of `row` that holds `tag` and whose bit is set in
/// `valid`: the lookup of a set whose row is too wide to store inline.
///
/// The whole row is compared into a bitmask (64 ways at a time), ANDed
/// with `valid` and the lowest bit taken, so full and partially filled
/// sets take the same path and a stale tag left in an invalidated way
/// never matches.
///
/// # Panics
///
/// Panics (in debug builds) if `row` is longer than 128 ways.
#[inline]
fn find_way(row: &[u64], valid: u128, tag: u64) -> Option<usize> {
    debug_assert!(row.len() <= 128);
    let mut base = 0;
    for chunk in row.chunks(64) {
        if let Some(way) = lowest_way(match_mask(chunk, tag) & (valid >> base) as u64) {
            return Some(base + way);
        }
        base += 64;
    }
    None
}

impl CacheSet {
    /// Create a set around an inline policy state — the primary
    /// constructor of the enum engine.
    ///
    /// # Panics
    ///
    /// Panics if the policy's associativity is zero or above 128 (both
    /// excluded by the catalog policy constructors; an `Other` policy
    /// could claim anything).
    pub fn from_state(policy: PolicyState) -> Self {
        let assoc = policy.associativity();
        assert!(assoc >= 1);
        assert!(
            assoc <= 128,
            "associativity above 128 exceeds the set bitmasks"
        );
        Self {
            tags: TagArray::new(assoc),
            valid: 0,
            dirty: 0,
            policy,
        }
    }

    /// Number of ways.
    pub fn associativity(&self) -> usize {
        self.tags.len()
    }

    /// Look up `tag`; on a miss, install it (filling an invalid way if one
    /// exists, otherwise evicting the policy's victim).
    #[inline]
    pub(crate) fn access(&mut self, tag: u64) -> SetOutcome {
        self.access_rw(tag, false).0
    }

    /// Read or write `tag`. Writes mark the line dirty (write-allocate).
    /// The second return value is the tag of a *dirty* evicted line, if
    /// the fill displaced one (the write-back the next level must absorb).
    #[inline]
    pub(crate) fn access_rw(&mut self, tag: u64, write: bool) -> (SetOutcome, Option<u64>) {
        if let Some(way) = self.way_of(tag) {
            self.policy.on_hit(way);
            if write {
                self.dirty |= 1u128 << way;
            }
            return (SetOutcome::Hit { way }, None);
        }
        let invalid = (!self.valid).trailing_zeros() as usize;
        let way = if invalid < self.tags.len() {
            invalid
        } else {
            self.policy.victim()
        };
        let bit = 1u128 << way;
        let evicted = (self.valid & bit != 0).then(|| self.tags[way]);
        let writeback = if self.dirty & bit != 0 { evicted } else { None };
        self.tags[way] = tag;
        self.valid |= bit;
        if write {
            self.dirty |= bit;
        } else {
            self.dirty &= !bit;
        }
        self.policy.on_fill(way);
        (SetOutcome::Miss { way, evicted }, writeback)
    }

    /// Look up `tag` without allocating on a miss. A hit touches the
    /// replacement state (and marks the line dirty on a write) exactly
    /// like the crate-internal `access_rw`; a miss leaves the set
    /// untouched. Returns whether the tag was resident.
    #[inline]
    pub fn probe_rw(&mut self, tag: u64, write: bool) -> bool {
        if let Some(way) = self.way_of(tag) {
            self.policy.on_hit(way);
            if write {
                self.dirty |= 1u128 << way;
            }
            true
        } else {
            false
        }
    }

    /// Install `tag` without a preceding lookup (invalid way first,
    /// otherwise the policy's victim), optionally already dirty. Returns
    /// the displaced `(tag, was_dirty)` pair if a valid line was evicted.
    ///
    /// The caller must ensure `tag` is not already resident — a duplicate
    /// install would leave the same tag in two ways.
    pub fn install_tag(&mut self, tag: u64, dirty: bool) -> Option<(u64, bool)> {
        let invalid = (!self.valid).trailing_zeros() as usize;
        let way = if invalid < self.tags.len() {
            invalid
        } else {
            self.policy.victim()
        };
        let bit = 1u128 << way;
        let evicted = (self.valid & bit != 0).then(|| (self.tags[way], self.dirty & bit != 0));
        self.tags[way] = tag;
        self.valid |= bit;
        if dirty {
            self.dirty |= bit;
        } else {
            self.dirty &= !bit;
        }
        self.policy.on_fill(way);
        evicted
    }

    /// Remove `tag`, reporting whether the dropped line was dirty
    /// (`None` if it was not resident). Unlike
    /// [`invalidate`](Self::invalidate), the dirtiness survives to the
    /// caller — what a hierarchy's back-invalidation and exclusive
    /// victim moves need to route the pending write-back.
    pub fn extract(&mut self, tag: u64) -> Option<bool> {
        let way = self.way_of(tag)?;
        let bit = 1u128 << way;
        let dirty = self.dirty & bit != 0;
        self.valid &= !bit;
        self.dirty &= !bit;
        self.policy.on_invalidate(way);
        Some(dirty)
    }

    /// Run a stream of read accesses through the set in one call,
    /// returning `(hits, misses)`.
    ///
    /// Behaviour is access-for-access identical to calling
    /// [`access_tag`](Self::access_tag) per element. When `kind` has a
    /// compiled batch kernel at this associativity (LRU/FIFO/PLRU/NRU at
    /// 4/8/16 ways, see `cachekit_policies::kernel`) and the set's policy
    /// state is that kind's, the monomorphized loop runs over the raw
    /// tag array; a set with invalidation holes, or any other policy,
    /// replays the stream one access at a time.
    pub(crate) fn access_many(&mut self, kind: PolicyKind, stream: &[u64]) -> (u64, u64) {
        let CacheSet {
            tags,
            valid,
            dirty,
            policy,
        } = self;
        if let Some(counts) = cachekit_policies::kernel::run_set_stream(
            kind, policy, &mut *tags, valid, dirty, stream,
        ) {
            return counts;
        }
        let hits = stream
            .iter()
            .filter(|&&tag| matches!(self.access(tag), SetOutcome::Hit { .. }))
            .count() as u64;
        (hits, stream.len() as u64 - hits)
    }

    /// Whether the line holding `tag` is dirty.
    pub fn is_dirty(&self, tag: u64) -> bool {
        self.way_of(tag)
            .is_some_and(|w| self.dirty & (1u128 << w) != 0)
    }

    /// Public tag-level access for callers that drive a bare set without
    /// an address mapping (the reverse-engineering derivations treat tags
    /// as abstract block ids).
    ///
    /// In the returned outcome, `evicted` carries the displaced *tag*.
    ///
    /// Marked `#[inline]` (like the whole per-access chain below it):
    /// callers in other crates drive this in per-access loops over many
    /// sets, and the workspace builds without cross-crate LTO, so the
    /// hint is what lets the policy dispatch inline into their loops.
    #[inline]
    pub fn access_tag(&mut self, tag: u64) -> crate::AccessOutcome {
        match self.access(tag) {
            SetOutcome::Hit { .. } => crate::AccessOutcome::Hit,
            SetOutcome::Miss { evicted, .. } => crate::AccessOutcome::Miss { evicted },
        }
    }

    /// Whether `tag` is resident (non-perturbing).
    pub fn contains(&self, tag: u64) -> bool {
        self.way_of(tag).is_some()
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

    /// The way holding `tag`, if resident.
    ///
    /// One masked lookup whatever the fill state: the tag row is
    /// compared into a bitmask, ANDed with the validity bits and the
    /// lowest way taken.
    #[inline]
    pub fn way_of(&self, tag: u64) -> Option<usize> {
        self.tags.find(self.valid, tag)
    }

    /// Invalidate `tag` if resident; returns whether a line was dropped.
    pub fn invalidate(&mut self, tag: u64) -> bool {
        if let Some(way) = self.way_of(tag) {
            let bit = 1u128 << way;
            self.valid &= !bit;
            self.dirty &= !bit;
            self.policy.on_invalidate(way);
            true
        } else {
            false
        }
    }

    /// Invalidate every line. The replacement state is *not* reset —
    /// mirroring real hardware, where `wbinvd` drops contents but leaves
    /// LRU/PLRU bits alone: the policy sees one `on_invalidate` per valid
    /// way, in ascending way order.
    ///
    /// Costs the valid lines, not the associativity: only set bits of the
    /// validity mask are visited, so flushing an empty set is free.
    pub fn flush(&mut self) {
        let valid = self.valid;
        let mut rest = valid;
        while rest != 0 {
            self.policy.on_invalidate(rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
        self.valid = 0;
        self.dirty &= !valid;
    }

    /// Evict the line in `way` directly (used by interference models to
    /// emulate external evictions). Returns the evicted tag.
    pub fn force_evict(&mut self, way: usize) -> Option<u64> {
        let t = self.tag_in_way(way)?;
        let bit = 1u128 << way;
        self.valid &= !bit;
        self.dirty &= !bit;
        self.policy.on_invalidate(way);
        Some(t)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Number of dirty lines.
    pub(crate) fn dirty_lines(&self) -> u64 {
        u64::from(self.dirty.count_ones())
    }

    /// The resident tags in way order.
    pub fn resident_tags(&self) -> Vec<u64> {
        (0..self.tags.len())
            .filter(|&w| self.valid & (1u128 << w) != 0)
            .map(|w| self.tags[w])
            .collect()
    }

    /// Access to the policy (for inspection in tests).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru_set(assoc: usize) -> CacheSet {
        CacheSet::from_state(PolicyKind::Lru.build_state(assoc, 0))
    }

    #[test]
    fn fills_use_invalid_ways_first() {
        let mut s = lru_set(4);
        for tag in 0..4 {
            match s.access(tag) {
                SetOutcome::Miss { way, evicted } => {
                    assert_eq!(way, tag as usize);
                    assert_eq!(evicted, None);
                }
                SetOutcome::Hit { .. } => panic!("cold access can't hit"),
            }
        }
        assert_eq!(s.occupancy(), 4);
    }

    #[test]
    fn full_set_evicts_lru_victim() {
        let mut s = lru_set(2);
        s.access(10);
        s.access(20);
        match s.access(30) {
            SetOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(10)),
            _ => panic!("expected miss"),
        }
        assert!(s.contains(20));
        assert!(s.contains(30));
        assert!(!s.contains(10));
    }

    #[test]
    fn hit_updates_policy() {
        let mut s = lru_set(2);
        s.access(1);
        s.access(2);
        assert!(matches!(s.access(1), SetOutcome::Hit { way: 0 }));
        match s.access(3) {
            SetOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(2)),
            _ => panic!(),
        }
    }

    #[test]
    fn invalidate_and_refill() {
        let mut s = lru_set(2);
        s.access(1);
        s.access(2);
        assert!(s.invalidate(1));
        assert!(!s.invalidate(1));
        assert_eq!(s.occupancy(), 1);
        // Next miss must reuse the invalid way, not evict tag 2.
        match s.access(3) {
            SetOutcome::Miss { evicted, .. } => assert_eq!(evicted, None),
            _ => panic!(),
        }
        assert!(s.contains(2));
    }

    #[test]
    fn flush_drops_contents_but_not_policy_state() {
        let mut s = CacheSet::from_state(PolicyKind::Fifo.build_state(2, 0));
        s.access(1);
        s.access(2);
        s.flush();
        assert_eq!(s.occupancy(), 0);
        // Tags are gone, contains is false.
        assert!(!s.contains(1));
    }

    #[test]
    fn flush_invalidates_valid_ways_in_ascending_order() {
        // Reference: one `force_evict` per way, lowest first — the
        // per-way walk `flush` replaces.
        for kind in PolicyKind::differential_kinds() {
            let mut flushed = CacheSet::from_state(kind.build_state(8, 3));
            for tag in [10, 11, 12, 13, 14, 15, 10, 16, 17, 18, 12] {
                flushed.access_rw(tag, tag % 2 == 0);
            }
            flushed.invalidate(11);
            flushed.invalidate(14);
            let mut walked = flushed.clone();
            flushed.flush();
            for way in 0..8 {
                walked.force_evict(way);
            }
            assert_eq!(flushed.occupancy(), 0, "kind {kind:?}");
            assert_eq!(
                flushed.policy().state_key(),
                walked.policy().state_key(),
                "kind {kind:?}"
            );
            assert_eq!((flushed.valid, flushed.dirty), (walked.valid, walked.dirty));
        }
    }

    #[test]
    fn writes_mark_dirty_and_evictions_report_writebacks() {
        let mut s = lru_set(2);
        s.access_rw(1, true);
        assert!(s.is_dirty(1));
        s.access_rw(2, false);
        assert!(!s.is_dirty(2));
        // Evicting the dirty line 1 reports a write-back.
        let (outcome, wb) = s.access_rw(3, false);
        assert!(matches!(outcome, SetOutcome::Miss { .. }));
        assert_eq!(wb, Some(1));
        // Evicting the clean line 2 does not.
        let (_, wb) = s.access_rw(4, true);
        assert_eq!(wb, None);
    }

    #[test]
    fn hit_write_dirties_resident_line() {
        let mut s = lru_set(2);
        s.access_rw(7, false);
        assert!(!s.is_dirty(7));
        s.access_rw(7, true);
        assert!(s.is_dirty(7));
    }

    #[test]
    fn invalidate_clears_dirtiness() {
        let mut s = lru_set(2);
        s.access_rw(1, true);
        s.invalidate(1);
        s.access_rw(1, false);
        assert!(!s.is_dirty(1));
    }

    #[test]
    fn force_evict_reports_tag() {
        let mut s = lru_set(2);
        s.access(5);
        assert_eq!(s.force_evict(0), Some(5));
        assert_eq!(s.force_evict(0), None);
    }

    #[test]
    fn access_many_matches_per_access_calls() {
        for kind in PolicyKind::differential_kinds() {
            let mut batched = CacheSet::from_state(kind.build_state(4, 9));
            let mut serial = CacheSet::from_state(kind.build_state(4, 9));
            let stream: Vec<u64> = (0..200u64).map(|i| (i * 7 + i * i / 5) % 11).collect();
            let (hits, misses) = batched.access_many(kind, &stream);
            let mut serial_hits = 0;
            for &tag in &stream {
                if serial.access_tag(tag).is_hit() {
                    serial_hits += 1;
                }
            }
            assert_eq!(hits, serial_hits, "kind {kind:?}");
            assert_eq!(hits + misses, stream.len() as u64);
            for w in 0..4 {
                assert_eq!(batched.tag_in_way(w), serial.tag_in_way(w), "kind {kind:?}");
            }
            assert_eq!(
                batched.policy().state_key(),
                serial.policy().state_key(),
                "kind {kind:?}"
            );
        }
    }

    /// `way_of` against a scan over (`valid`, tags) after every step of
    /// a seeded stream of accesses, installs, extracts, invalidations and
    /// flushes, on inline (4, 8) and heap (16, 24, and 72 for a row of
    /// two 64-way chunks) rows. An invalidated way keeps its stale tag,
    /// which is probed again right away.
    #[test]
    fn way_of_agrees_with_reference_scan() {
        fn reference(s: &CacheSet, tag: u64) -> Option<usize> {
            (0..s.associativity()).find(|&w| s.valid & (1u128 << w) != 0 && s.tags[w] == tag)
        }
        for assoc in [4usize, 8, 16, 24, 72] {
            let mut s = lru_set(assoc);
            let mut rng = assoc as u64;
            let universe = 2 * assoc as u64;
            for step in 0..4000u32 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = rng >> 33;
                let tag = r % universe;
                match r % 11 {
                    0..=5 => {
                        s.access_rw(tag, r.is_multiple_of(3));
                    }
                    6 => {
                        if !s.contains(tag) {
                            s.install_tag(tag, false);
                        }
                    }
                    7 => {
                        s.extract(tag);
                    }
                    8 | 9 => {
                        let way = (r / 16) as usize % assoc;
                        if let Some(stale) = s.tag_in_way(way) {
                            assert!(s.invalidate(stale));
                            assert_eq!(s.tags[way], stale, "invalidation keeps the tag");
                            assert_eq!(s.way_of(stale), None, "stale tag matched");
                        }
                    }
                    _ => {
                        if step.is_multiple_of(7) {
                            s.flush();
                        }
                    }
                }
                for probe in 0..universe + 1 {
                    assert_eq!(
                        s.way_of(probe),
                        reference(&s, probe),
                        "{assoc} ways, step {step}, tag {probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn access_many_clears_dirty_bits_on_refill() {
        let mut s = lru_set(2);
        s.access_rw(1, true);
        s.access_rw(2, false);
        // Batched refill displaces dirty tag 1; the way must not stay
        // dirty for the incoming tag.
        s.access_many(PolicyKind::Lru, &[3]);
        assert!(!s.is_dirty(3));
        assert!(!s.contains(1));
    }
}
