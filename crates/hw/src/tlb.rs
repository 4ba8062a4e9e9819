//! A small data TLB.

use std::collections::VecDeque;

/// A fully-associative, LRU-replaced translation look-aside buffer.
///
/// The TLB matters to the reproduction because the measurement sequences
/// stride across many pages: on real hardware every TLB miss costs a page
/// walk whose memory accesses can themselves evict cache lines — one of
/// the interference sources the paper's methodology must sidestep (large
/// pages, warm-up passes). The virtual CPUs model both the latency and
/// (optionally) the cache pollution of the walk.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: usize,
    page_size: u64,
    /// `log2(page_size)`: page numbers are a shift, not a division.
    page_shift: u32,
    /// Resident page numbers, most recently used at the front.
    resident: VecDeque<u64>,
    misses: u64,
    lookups: u64,
}

impl Tlb {
    /// Create a TLB with `entries` slots for `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or `page_size` is not a power of two.
    pub fn new(entries: usize, page_size: u64) -> Self {
        assert!(entries >= 1, "need at least one TLB entry");
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            entries,
            page_size,
            page_shift: page_size.trailing_zeros(),
            resident: VecDeque::new(),
            misses: 0,
            lookups: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Translate the page of `addr`; returns `true` on a TLB hit.
    pub fn lookup(&mut self, addr: u64) -> bool {
        self.lookups += 1;
        let vpn = addr >> self.page_shift;
        if let Some(pos) = self.resident.iter().position(|&p| p == vpn) {
            let p = self.resident.remove(pos).expect("position valid");
            self.resident.push_front(p);
            true
        } else {
            self.misses += 1;
            self.resident.push_front(vpn);
            if self.resident.len() > self.entries {
                self.resident.pop_back();
            }
            false
        }
    }

    /// The synthetic physical address of the page-table entry for `addr`
    /// (the line a page walk would touch).
    pub fn pte_addr(&self, addr: u64) -> u64 {
        const PAGE_TABLE_BASE: u64 = 1 << 40;
        PAGE_TABLE_BASE + (addr >> self.page_shift) * 8
    }

    /// Misses so far.
    pub fn miss_count(&self) -> u64 {
        self.misses
    }

    /// Lookups so far.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Drop all translations (as a context switch would).
    pub fn flush(&mut self) {
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.lookup(0x1000));
        assert!(t.lookup(0x1fff)); // same page
        assert_eq!(t.miss_count(), 1);
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.lookup(0x0000);
        t.lookup(0x1000);
        t.lookup(0x2000); // evicts page 0
        assert!(!t.lookup(0x0000));
        assert!(t.lookup(0x2000));
    }

    #[test]
    fn lru_order_respects_reuse() {
        let mut t = Tlb::new(2, 4096);
        t.lookup(0x0000);
        t.lookup(0x1000);
        t.lookup(0x0000); // page 0 now MRU
        t.lookup(0x2000); // evicts page 1
        assert!(t.lookup(0x0000));
        assert!(!t.lookup(0x1000));
    }

    #[test]
    fn pte_addresses_are_distinct_per_page() {
        let t = Tlb::new(4, 4096);
        assert_ne!(t.pte_addr(0x0000), t.pte_addr(0x1000));
        assert_eq!(t.pte_addr(0x0000), t.pte_addr(0x0fff));
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = Tlb::new(4, 4096);
        t.lookup(0x1000);
        t.flush();
        assert!(!t.lookup(0x1000));
    }
}
