//! `cachekit-obs`: a zero-dependency tracing/metrics substrate for the
//! oracle → inference → sweep pipeline.
//!
//! The reverse-engineering algorithm of the source paper is
//! measurement-bound: its cost is dominated by oracle queries. This
//! crate makes that cost observable with three primitives:
//!
//! - **Spans** ([`span`]): hierarchical RAII timers. Nested spans form
//!   a `/`-joined path (`infer_geometry/infer_capacity`); each path
//!   accumulates count/total/min/max nanoseconds.
//! - **Counters** ([`add`]): monotonic sums, attributed to the span
//!   path open at the call site — which is what turns a single
//!   `oracle.measurements` counter into a per-phase query breakdown.
//! - **Histograms** ([`record`]): log2-bucketed distributions (bucket
//!   `k` covers `[2^(k-1), 2^k - 1]`; zero has its own bucket) for
//!   worker-pool stats like items-per-worker and queue wait.
//!
//! Collection is on by default, can be disabled with
//! `CACHEKIT_METRICS=0` (or [`set_enabled`]), and costs a single atomic
//! load per call site when off. Instrumentation is strictly passive: it
//! never changes measurement order, PRNG streams, or results — the
//! differential tests assert bit-identical output with collection on
//! and off.
//!
//! Thread safety: inside a span, every thread accumulates into its own
//! shard and folds it into the process-wide store when its outermost
//! span closes, so pool workers never contend mid-measurement. Records
//! outside any span go straight to the process-wide store, so whatever
//! a thread recorded is visible once it is joined. [`snapshot`] returns
//! the merged view; `docs/observability.md` has the cost model.
//!
//! Setting `CACHEKIT_TRACE=1` additionally renders span opens/closes
//! live on stderr, indented by nesting depth.
//!
//! ```
//! let outer = cachekit_obs::span("phase");
//! cachekit_obs::add("oracle.measurements", 3);
//! drop(outer);
//! let snap = cachekit_obs::snapshot();
//! assert!(snap.spans.contains_key("phase"));
//! assert_eq!(snap.counter_totals().get("oracle.measurements"), Some(&3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod store;

pub use hist::{bucket_bounds, bucket_index};
pub use registry::{
    add, current_depth, enabled, flush, record, reset, set_enabled, snapshot, span, SpanGuard,
    METRICS_ENV, TRACE_ENV,
};
pub use store::{HistBucket, Histogram, Snapshot, SpanStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; tests that reset or toggle it
    // must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_are_attributed_to_the_open_span_path() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            let _outer = span("outer");
            add("hits", 1);
            {
                let _inner = span("inner");
                add("hits", 2);
            }
            add("hits", 4);
        }
        add("loose", 9);
        let snap = snapshot();
        assert_eq!(snap.counters["outer/hits"], 5);
        assert_eq!(snap.counters["outer/inner/hits"], 2);
        assert_eq!(snap.counters["loose"], 9);
        assert_eq!(snap.counter_totals()["hits"], 7);
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 1);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
    }

    #[test]
    fn disabled_collection_records_nothing_and_keeps_depth_zero() {
        let _g = guard();
        reset();
        set_enabled(false);
        {
            let _s = span("ghost");
            assert_eq!(current_depth(), 0, "disabled spans must not push");
            add("ghost.counter", 5);
            record("ghost.hist", 5);
        }
        set_enabled(true);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_stay_balanced_when_the_body_panics() {
        let _g = guard();
        reset();
        set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _s = span("doomed");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(current_depth(), 0, "unwind must pop the span");
        assert_eq!(snapshot().spans["doomed"].count, 1);
    }

    #[test]
    fn worker_thread_shards_merge_on_exit() {
        let _g = guard();
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    add("worker.items", 2);
                    record("worker.hist", 8);
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counters["worker.items"], 8);
        assert_eq!(snap.histograms["worker.hist"].total(), 4);
        assert_eq!(snap.histograms["worker.hist"].buckets.len(), 1);
        assert_eq!(snap.histograms["worker.hist"].buckets[0].lo, 8);
    }

    #[test]
    fn histogram_snapshot_carries_exact_bucket_bounds() {
        let _g = guard();
        reset();
        set_enabled(true);
        for v in [0u64, 1, 2, 3, 4, 7, 8] {
            record("h", v);
        }
        let snap = snapshot();
        let buckets = &snap.histograms["h"].buckets;
        let shape: Vec<(u64, u64, u64)> = buckets.iter().map(|b| (b.lo, b.hi, b.count)).collect();
        assert_eq!(
            shape,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 2), (8, 15, 1)]
        );
    }

    #[test]
    fn reset_clears_global_and_local_state() {
        let _g = guard();
        set_enabled(true);
        add("junk", 1);
        reset();
        assert!(snapshot().is_empty());
        assert_eq!(current_depth(), 0);
    }
}
