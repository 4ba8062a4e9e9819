//! The accumulating store and its read-only [`Snapshot`] view.

use crate::hist::{bucket_bounds, bucket_index};
use std::collections::BTreeMap;

/// Aggregate timing statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// How many times the span was entered and exited.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Shortest single entry, nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn observe(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }

    fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One non-empty log2 bucket of a [`Histogram`]: the inclusive value
/// range it covers and how many recordings fell in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Smallest value that falls in this bucket.
    pub lo: u64,
    /// Largest value that falls in this bucket.
    pub hi: u64,
    /// Number of recorded values in `[lo, hi]`.
    pub count: u64,
}

/// A log2-bucketed distribution (only non-empty buckets are kept,
/// sorted by value range).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Non-empty buckets in ascending value order.
    pub buckets: Vec<HistBucket>,
}

impl Histogram {
    /// Total number of recorded values across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) of the recorded
    /// distribution, or `None` when nothing was recorded.
    ///
    /// The estimate is exact up to bucket resolution: the rank
    /// `max(1, ceil(q * total))` is located in its bucket, and the value
    /// is linearly interpolated across the bucket's inclusive `[lo, hi]`
    /// range (a bucket holding one value reports its `lo`). Quantiles of
    /// singleton buckets (`lo == hi`, e.g. exact powers of two at the
    /// bucket boundary) are therefore exact — the property the boundary
    /// tests below pin down. `q <= 0` reports the smallest bucket's `lo`;
    /// `q >= 1` the largest bucket's `hi`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        if q >= 1.0 {
            return self.buckets.last().map(|b| b.hi);
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut before = 0u64;
        for b in &self.buckets {
            if before + b.count >= rank {
                let k = rank - before; // 1-based position within the bucket
                let est = if b.count <= 1 {
                    b.lo
                } else {
                    b.lo + (b.hi - b.lo) * (k - 1) / (b.count - 1)
                };
                return Some(est);
            }
            before += b.count;
        }
        self.buckets.last().map(|b| b.hi)
    }
}

/// Mutable accumulation state; lives per-thread (the shard) and once
/// globally (the merge target).
#[derive(Debug, Clone, Default)]
pub(crate) struct Store {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) spans: BTreeMap<String, SpanStats>,
    pub(crate) hists: BTreeMap<String, BTreeMap<u32, u64>>,
}

impl Store {
    pub(crate) const fn new() -> Self {
        Store {
            counters: BTreeMap::new(),
            spans: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Add `n` to counter `key`; allocates only when the key is new.
    pub(crate) fn add_to_counter(&mut self, key: &str, n: u64) {
        match self.counters.get_mut(key) {
            Some(total) => *total += n,
            None => {
                self.counters.insert(key.to_owned(), n);
            }
        }
    }

    pub(crate) fn observe_span(&mut self, path: &str, dur_ns: u64) {
        let stats = match self.spans.get_mut(path) {
            Some(stats) => stats,
            None => self.spans.entry(path.to_owned()).or_default(),
        };
        stats.observe(dur_ns);
    }

    pub(crate) fn record_hist(&mut self, name: &str, value: u64) {
        let buckets = match self.hists.get_mut(name) {
            Some(buckets) => buckets,
            None => self.hists.entry(name.to_owned()).or_default(),
        };
        *buckets.entry(bucket_index(value)).or_insert(0) += 1;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.hists.is_empty()
    }

    /// Fold `other` into `self`, leaving `other` empty.
    pub(crate) fn merge_from(&mut self, other: &mut Store) {
        for (key, n) in std::mem::take(&mut other.counters) {
            *self.counters.entry(key).or_insert(0) += n;
        }
        for (path, stats) in std::mem::take(&mut other.spans) {
            self.spans.entry(path).or_default().merge(&stats);
        }
        for (name, buckets) in std::mem::take(&mut other.hists) {
            let target = self.hists.entry(name).or_default();
            for (index, count) in buckets {
                *target.entry(index).or_insert(0) += count;
            }
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let histograms = self
            .hists
            .iter()
            .map(|(name, buckets)| {
                let buckets = buckets
                    .iter()
                    .map(|(&index, &count)| {
                        let (lo, hi) = bucket_bounds(index);
                        HistBucket { lo, hi, count }
                    })
                    .collect();
                (name.clone(), Histogram { buckets })
            })
            .collect();
        Snapshot {
            counters: self.counters.clone(),
            spans: self.spans.clone(),
            histograms,
        }
    }
}

/// An immutable view of everything collected so far.
///
/// Counter keys are span-path prefixed (`"infer_geometry/infer_capacity/
/// oracle.measurements"`); [`Snapshot::counter_totals`] re-aggregates
/// them by leaf name when the per-phase breakdown is not needed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters, keyed by `span-path/counter-name`.
    pub counters: BTreeMap<String, u64>,
    /// Span timing statistics, keyed by span path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Log2-bucketed histograms, keyed by histogram name (not
    /// path-prefixed).
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// True when nothing at all was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.histograms.is_empty()
    }

    /// Counters summed across span paths: the leaf name (after the last
    /// `/`) keyed to the total over every phase it was incremented in.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (key, &n) in &self.counters {
            let leaf = key.rsplit('/').next().unwrap_or(key);
            *totals.entry(leaf.to_owned()).or_insert(0) += n;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_drains_the_source_and_sums_everything() {
        let mut a = Store::default();
        let mut b = Store::default();
        a.add_to_counter("x", 2);
        b.add_to_counter("x", 3);
        b.add_to_counter("y", 1);
        a.observe_span("s", 10);
        b.observe_span("s", 30);
        b.record_hist("h", 5);
        a.merge_from(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.counters["x"], 5);
        assert_eq!(a.counters["y"], 1);
        let s = a.spans["s"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 40, 10, 30));
        assert_eq!(a.snapshot().histograms["h"].total(), 1);
    }

    #[test]
    fn counter_totals_aggregate_by_leaf_name() {
        let mut s = Store::default();
        s.add_to_counter("phase_a/oracle.measurements", 4);
        s.add_to_counter("phase_b/oracle.measurements", 6);
        s.add_to_counter("oracle.measurements", 1);
        let totals = s.snapshot().counter_totals();
        assert_eq!(totals["oracle.measurements"], 11);
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let mut s = Store::default();
        for &v in values {
            s.record_hist("h", v);
        }
        s.snapshot().histograms["h"].clone()
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn quantile_is_exact_at_bucket_boundaries() {
        // 1..=8 fills buckets [1,1]:1, [2,3]:2, [4,7]:4, [8,15]:1.
        let h = hist_of(&[1, 2, 3, 4, 5, 6, 7, 8]);
        // rank 1 lands in the singleton [1,1] bucket: exact.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.125), Some(1));
        // rank 4 is the first value of the [4,7] bucket: its lo, exact.
        assert_eq!(h.quantile(0.5), Some(4));
        // rank 7 is the last value of [4,7]: its hi, exact.
        assert_eq!(h.quantile(0.875), Some(7));
        // rank 8 is the only value of [8,15]: its lo, exact.
        assert_eq!(h.quantile(0.9375), Some(8));
        assert_eq!(h.quantile(1.0), Some(15), "q=1 reports the bucket hi");
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        // Four values in the [4,7] bucket interpolate 4, 5, 6, 7.
        let h = hist_of(&[4, 5, 6, 7]);
        assert_eq!(h.quantile(0.25), Some(4));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(0.75), Some(6));
        assert_eq!(h.quantile(1.0), Some(7));
    }

    #[test]
    fn quantile_of_a_single_recording_reports_its_bucket_lo() {
        let h = hist_of(&[0]);
        assert_eq!(h.quantile(0.5), Some(0));
        let h = hist_of(&[64]);
        for q in [0.0, 0.5, 0.99] {
            assert_eq!(h.quantile(q), Some(64), "q={q}");
        }
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = hist_of(&[16, 32]);
        assert_eq!(h.quantile(-1.0), Some(16));
        assert_eq!(h.quantile(2.0), Some(63), "hi of the [32,63] bucket");
    }

    #[test]
    fn span_min_max_track_extremes_not_defaults() {
        let mut s = Store::default();
        s.observe_span("p", 7);
        s.observe_span("p", 3);
        s.observe_span("p", 9);
        let st = s.spans["p"];
        assert_eq!((st.min_ns, st.max_ns, st.count), (3, 9, 3));
    }
}
