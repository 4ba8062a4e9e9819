//! The black-box measurement interface to a cache under test, and the
//! composable decorator ("layer") stack over it.
//!
//! Decorators compose uniformly through [`OracleLayer`]:
//!
//! ```
//! use cachekit_core::infer::{CacheOracleExt, Counting, Metered, SimOracle};
//! use cachekit_policies::PolicyKind;
//! use cachekit_sim::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cache = Cache::new(CacheConfig::new(16 * 1024, 4, 64)?, PolicyKind::Lru);
//! let mut oracle = SimOracle::new(cache).layer(Counting).layer(Metered);
//! use cachekit_core::infer::CacheOracle as _;
//! oracle.measure(&[0, 64], &[0, 128]);
//! assert_eq!(oracle.inner().measurements(), 1);
//! # Ok(())
//! # }
//! ```

use crate::infer::vote::VotePlan;
use cachekit_sim::Cache;
use std::fmt;

/// A transient measurement failure: the channel produced no usable
/// readout for this attempt, but retrying the same experiment may
/// succeed.
///
/// Real measurement harnesses see both kinds constantly — CacheQuery and
/// nanoBench both discard and repeat such runs. The distinction matters
/// to the retry engine: a [`Timeout`](Self::Timeout) signals contention
/// and is answered with exponential backoff, a
/// [`Dropped`](Self::Dropped) reading is simply retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureFault {
    /// The measurement timed out before producing a readout (scheduler
    /// preemption, vcpu migration mid-run, lost perf-counter read).
    Timeout,
    /// The readout was dropped or truncated (short read); no usable miss
    /// count came back.
    Dropped,
}

impl fmt::Display for MeasureFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureFault::Timeout => write!(f, "measurement timed out"),
            MeasureFault::Dropped => write!(f, "measurement dropped"),
        }
    }
}

/// Black-box access to a cache under measurement — the only interface the
/// reverse-engineering pipeline is allowed to use.
///
/// On real hardware one `measure` call corresponds to: flush the caches
/// (`wbinvd`), execute the warm-up access sequence, then execute the probe
/// accesses while reading the miss performance counter (or timing each
/// access and thresholding). The returned value is the number of probe
/// accesses that missed in the cache under measurement; it may be *noisy*
/// (prefetchers, TLB walks, interrupts), which is why the pipeline votes
/// over repeated calls.
pub trait CacheOracle {
    /// Flush, run `warmup`, then run `probe`; return how many of the
    /// `probe` accesses missed.
    ///
    /// The flush drops contents but keeps the replacement state, as
    /// `wbinvd` does. On the simulated oracles it costs the sets occupied
    /// since the previous flush ([`Cache::flush`]), so a measurement
    /// costs its own accesses rather than the cache size.
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize;

    /// Fallible variant of [`measure`](Self::measure): channels that can
    /// lose a reading outright (timeouts, dropped readouts) report the
    /// loss as a [`MeasureFault`] instead of a fabricated count.
    ///
    /// The default implementation never faults — it simply delegates to
    /// `measure`, so infallible oracles stay bit-identical whichever
    /// entry point the caller uses. Decorators must forward this method
    /// to their inner oracle, or faults would be silently flattened into
    /// zeros on the way through the stack.
    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        Ok(self.measure(warmup, probe))
    }
}

impl<O: CacheOracle + ?Sized> CacheOracle for &mut O {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        (**self).measure(warmup, probe)
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        (**self).try_measure(warmup, probe)
    }
}

/// A decorator that wraps a [`CacheOracle`] in another oracle — the
/// uniform composition point for the measurement stack.
///
/// A layer value is a small marker ([`Counting`], [`Recording`],
/// [`Metered`]) describing *what* to add; applying it via
/// [`CacheOracleExt::layer`] produces the concrete wrapper type.
pub trait OracleLayer<O: CacheOracle> {
    /// The wrapper produced by this layer.
    type Output: CacheOracle;
    /// Wrap `inner` in this layer's decorator.
    fn layer(self, inner: O) -> Self::Output;
}

/// Fluent `.layer(...)` composition for any sized oracle:
/// `oracle.layer(Counting).layer(Metered)`.
pub trait CacheOracleExt: CacheOracle + Sized {
    /// Wrap `self` in the decorator described by `layer`.
    fn layer<L: OracleLayer<Self>>(self, layer: L) -> L::Output {
        layer.layer(self)
    }
}

impl<O: CacheOracle + Sized> CacheOracleExt for O {}

/// A noise-free software oracle over a single simulated cache.
///
/// Used by the tests and by the cost experiments (Table 3), where the
/// interesting quantity is the number of measurements, not their noise.
#[derive(Debug, Clone)]
pub struct SimOracle {
    cache: Cache,
}

impl SimOracle {
    /// Wrap a simulated cache. The cache's current contents are
    /// irrelevant; every measurement starts with a flush.
    pub fn new(cache: Cache) -> Self {
        Self { cache }
    }

    /// The wrapped cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

impl CacheOracle for SimOracle {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        self.cache.flush();
        for &a in warmup {
            self.cache.access(a);
        }
        probe
            .iter()
            .filter(|&&a| self.cache.access(a).is_miss())
            .count()
    }
}

/// Layer marker: count measurements and accesses into local counters
/// (produces [`Counted`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

/// Layer marker: keep a transcript of every measurement (produces
/// [`Recorded`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Recording;

/// Layer marker: publish per-measurement counters to the global
/// `cachekit-obs` registry (produces [`MeteredOracle`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Metered;

impl<O: CacheOracle> OracleLayer<O> for Counting {
    type Output = Counted<O>;
    fn layer(self, inner: O) -> Counted<O> {
        Counted::new(inner)
    }
}

impl<O: CacheOracle> OracleLayer<O> for Recording {
    type Output = Recorded<O>;
    fn layer(self, inner: O) -> Recorded<O> {
        Recorded::new(inner)
    }
}

impl<O: CacheOracle> OracleLayer<O> for Metered {
    type Output = MeteredOracle<O>;
    fn layer(self, inner: O) -> MeteredOracle<O> {
        MeteredOracle::new(inner)
    }
}

/// Decorator that counts measurements and accesses — the "cost of the
/// attack" metric of Table 3. Counters are local to the wrapper (see
/// [`MeteredOracle`] for the global-registry variant).
#[derive(Debug, Clone)]
pub struct Counted<O> {
    inner: O,
    measurements: u64,
    accesses: u64,
}

impl<O: CacheOracle> Counted<O> {
    /// Wrap an oracle with counters starting at zero.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            measurements: 0,
            accesses: 0,
        }
    }

    /// Number of `measure` calls so far.
    pub fn measurements(&self) -> u64 {
        self.measurements
    }

    /// Total warm-up plus probe accesses issued so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: CacheOracle> CacheOracle for Counted<O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        self.measurements += 1;
        self.accesses += (warmup.len() + probe.len()) as u64;
        self.inner.measure(warmup, probe)
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        self.measurements += 1;
        self.accesses += (warmup.len() + probe.len()) as u64;
        self.inner.try_measure(warmup, probe)
    }
}

/// One recorded experiment of a [`Recorded`] oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Number of warm-up accesses.
    pub warmup_len: usize,
    /// Number of probe accesses.
    pub probe_len: usize,
    /// The reported miss count.
    pub misses: usize,
}

/// Decorator that keeps a transcript of every measurement — the artifact
/// trail a reverse-engineering campaign leaves behind, useful for
/// debugging a failed inference or for publishing the raw evidence
/// alongside a claimed policy.
#[derive(Debug, Clone)]
pub struct Recorded<O> {
    inner: O,
    records: Vec<ExperimentRecord>,
}

impl<O: CacheOracle> Recorded<O> {
    /// Wrap an oracle with an empty transcript.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            records: Vec::new(),
        }
    }

    /// The transcript so far, in measurement order.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Drop the transcript (e.g. between campaign phases).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: CacheOracle> CacheOracle for Recorded<O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        let misses = self.inner.measure(warmup, probe);
        self.records.push(ExperimentRecord {
            warmup_len: warmup.len(),
            probe_len: probe.len(),
            misses,
        });
        misses
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        // Only successful readings enter the transcript: a faulted
        // attempt produced no evidence worth publishing.
        let result = self.inner.try_measure(warmup, probe);
        if let Ok(misses) = result {
            self.records.push(ExperimentRecord {
                warmup_len: warmup.len(),
                probe_len: probe.len(),
                misses,
            });
        }
        result
    }
}

/// Decorator that publishes `oracle.measurements` / `oracle.accesses`
/// counters to the global `cachekit-obs` registry, attributed to the
/// span open at each `measure` call.
///
/// The inference pipeline already meters every *voted* measurement
/// through [`VotePlan`](crate::infer::VotePlan); use this layer for
/// oracles driven outside the voting funnel (custom campaigns, raw
/// `measure` loops) so their cost shows up in `run_report.metrics` too.
/// Wrapping an oracle that is also measured through `VotePlan` counts
/// those queries twice — pick one funnel per oracle.
#[derive(Debug, Clone)]
pub struct MeteredOracle<O> {
    inner: O,
}

impl<O: CacheOracle> MeteredOracle<O> {
    /// Wrap an oracle; the global registry is the only state.
    pub fn new(inner: O) -> Self {
        Self { inner }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: CacheOracle> CacheOracle for MeteredOracle<O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        cachekit_obs::add("oracle.measurements", 1);
        cachekit_obs::add("oracle.accesses", (warmup.len() + probe.len()) as u64);
        self.inner.measure(warmup, probe)
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        cachekit_obs::add("oracle.measurements", 1);
        cachekit_obs::add("oracle.accesses", (warmup.len() + probe.len()) as u64);
        self.inner.try_measure(warmup, probe)
    }
}

/// Former name of [`Counted`].
#[deprecated(
    since = "0.2.0",
    note = "use `oracle.layer(Counting)` or `Counted` instead"
)]
pub type CountingOracle<O> = Counted<O>;

/// Former name of [`Recorded`].
#[deprecated(
    since = "0.2.0",
    note = "use `oracle.layer(Recording)` or `Recorded` instead"
)]
pub type RecordingOracle<O> = Recorded<O>;

/// Take the median of `repetitions` measurements of the same experiment —
/// the voting primitive that makes the pipeline robust to sporadic
/// counter noise. Thin wrapper over [`VotePlan`].
///
/// # Panics
///
/// Panics if `repetitions` is zero.
pub fn measure_voted<O: CacheOracle>(
    oracle: &mut O,
    warmup: &[u64],
    probe: &[u64],
    repetitions: usize,
) -> usize {
    VotePlan::of(repetitions).measure(oracle, warmup, probe)
}

/// Estimate the channel's counter-noise rate: the probability that a
/// truly-hitting probe access is misreported as a miss.
///
/// Touches one line, then probes it `samples` times — every probe is a
/// true hit, so the fraction reported as misses is the false-miss rate.
/// The calibration the geometry and validation steps subtract this floor;
/// on a clean channel it returns exactly 0.
pub fn estimate_counter_noise<O: CacheOracle>(oracle: &mut O, samples: usize) -> f64 {
    assert!(samples >= 1, "need at least one sample");
    let _span = cachekit_obs::span("estimate_noise");
    let addr = 0u64;
    let probe = vec![addr; samples];
    let misses = VotePlan::single().measure(oracle, &[addr], &probe);
    misses as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit_policies::PolicyKind;
    use cachekit_sim::CacheConfig;

    fn oracle() -> SimOracle {
        SimOracle::new(Cache::new(
            CacheConfig::new(1024, 2, 64).unwrap(),
            PolicyKind::Lru,
        ))
    }

    #[test]
    fn measure_flushes_first() {
        let mut o = oracle();
        assert_eq!(o.measure(&[], &[0]), 1);
        // Same probe again: the flush makes it miss again.
        assert_eq!(o.measure(&[], &[0]), 1);
    }

    #[test]
    fn warmup_lines_hit_in_probe() {
        let mut o = oracle();
        assert_eq!(o.measure(&[0, 64], &[0, 64, 128]), 1);
    }

    #[test]
    fn counting_layer_tracks_cost() {
        let mut o = oracle().layer(Counting);
        o.measure(&[0, 64], &[128]);
        o.measure(&[], &[0]);
        assert_eq!(o.measurements(), 2);
        assert_eq!(o.accesses(), 4);
    }

    #[test]
    fn recording_layer_keeps_the_transcript() {
        let mut o = oracle().layer(Recording);
        o.measure(&[0, 64], &[0, 128]);
        o.measure(&[], &[0]);
        assert_eq!(
            o.records(),
            &[
                ExperimentRecord {
                    warmup_len: 2,
                    probe_len: 2,
                    misses: 1
                },
                ExperimentRecord {
                    warmup_len: 0,
                    probe_len: 1,
                    misses: 1
                },
            ]
        );
        o.clear();
        assert!(o.records().is_empty());
    }

    #[test]
    fn layers_compose_and_unwrap_in_either_order() {
        let mut o = oracle().layer(Counting).layer(Recording).layer(Metered);
        o.measure(&[0], &[0, 64]);
        assert_eq!(o.inner().records().len(), 1);
        assert_eq!(o.inner().inner().measurements(), 1);
        let counted = o.into_inner().into_inner();
        assert_eq!(counted.accesses(), 3);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_aliases_still_name_the_same_types() {
        let mut c: CountingOracle<SimOracle> = CountingOracle::new(oracle());
        c.measure(&[], &[0]);
        assert_eq!(c.measurements(), 1);
        let mut r: RecordingOracle<SimOracle> = RecordingOracle::new(oracle());
        r.measure(&[], &[0]);
        assert_eq!(r.records().len(), 1);
    }

    #[test]
    fn voted_measurement_is_stable_on_noise_free_oracle() {
        let mut o = oracle();
        let m = measure_voted(&mut o, &[0], &[0, 64], 5);
        assert_eq!(m, 1);
    }

    /// An oracle that lies on every other call.
    struct Flaky {
        inner: SimOracle,
        calls: usize,
    }
    impl CacheOracle for Flaky {
        fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
            self.calls += 1;
            let true_val = self.inner.measure(warmup, probe);
            if self.calls.is_multiple_of(2) {
                true_val + 3
            } else {
                true_val
            }
        }
    }

    #[test]
    fn voting_suppresses_minority_noise() {
        let mut o = Flaky {
            inner: oracle(),
            calls: 0,
        };
        // 5 calls: 3 truthful (odd calls), 2 inflated -> median is truthful.
        let m = measure_voted(&mut o, &[0], &[0], 5);
        assert_eq!(m, 0);
    }
}
