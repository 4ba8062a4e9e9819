//! Dependency-free parallel execution engine.
//!
//! Replacement-policy evaluation is embarrassingly parallel: every
//! (policy, geometry) cell of a sweep and every independent measurement
//! of an inference campaign can run on its own thread. This module
//! provides the one primitive the whole workspace builds on —
//! [`par_map`], an order-preserving parallel map over a bounded worker
//! pool built from [`std::thread::scope`] — plus the sweep entry points
//! ([`sweep_parallel`], [`sweep_parallel_jobs`]) that are guaranteed to
//! return results **bit-identical to, and in the same order as,** the
//! serial [`sweep`](crate::sweep::sweep).
//!
//! ## Worker-count resolution
//!
//! Every entry point resolves its worker count the same way:
//!
//! 1. an explicit `jobs` argument (e.g. from a `--jobs N` flag) wins;
//! 2. otherwise the `CACHEKIT_JOBS` environment variable, if set to a
//!    positive integer;
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! ## Determinism
//!
//! Work items are claimed dynamically (an atomic cursor), but every
//! result is written back to the slot of its input index, so the output
//! order never depends on thread scheduling. Item computations must be
//! deterministic functions of their input for full run-to-run
//! reproducibility — which holds for all simulator work, where stochastic
//! policies carry their own seeded PRNG.
//!
//! ## Observability
//!
//! When `cachekit-obs` collection is enabled (the default), every pooled
//! [`par_map`] call publishes per-worker stats: `par_map.items` /
//! `par_map.busy_ns` counters (items per second is their ratio),
//! `par_map.worker_items` / `par_map.worker_busy_us` /
//! `par_map.worker_queue_wait_us` histograms, and a
//! `par_map.imbalance_items` histogram (max − min items across the
//! workers of one call). The instrumentation never changes claiming or
//! output order, so parallel results remain bit-identical to serial.

use crate::sweep::{simulate, SweepCell};
use crate::CacheConfig;
use cachekit_policies::PolicyKind;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// Name of the environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "CACHEKIT_JOBS";

/// The machine's available parallelism (at least 1).
pub fn available_jobs() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a worker count: explicit request, then `CACHEKIT_JOBS`, then
/// [`available_jobs`]. Zero or unparsable values fall through to the
/// next source.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n >= 1 {
            return n;
        }
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_jobs()
}

/// Parallel map with deterministic output order.
///
/// Applies `f` to every element of `items` using at most `jobs` worker
/// threads and returns the results **in input order**, exactly as
/// `items.iter().map(f).collect()` would. The worker pool is bounded:
/// `jobs` scoped threads claim items off a shared atomic cursor, so cheap
/// and expensive items load-balance automatically.
///
/// A `jobs` of 0 or 1 (or a single-item input) runs inline on the caller
/// thread with no spawning at all.
///
/// # Panics
///
/// If `f` panics on any item the panic is propagated to the caller once
/// the pool has been joined.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    // Per-worker stats go to cachekit-obs when collection is on; the
    // instrumentation is strictly passive (work claiming, execution
    // order, and output placement are untouched), so results stay
    // bit-identical either way.
    let obs_on = cachekit_obs::enabled();
    let started_call = Instant::now();
    let per_worker_items: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let total_busy_ns = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, thread::Result<R>)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            let (per_worker_items, total_busy_ns) = (&per_worker_items, &total_busy_ns);
            scope.spawn(move || {
                let started_worker = Instant::now();
                let mut items_done = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let item_started = obs_on.then(Instant::now);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i])));
                    if let Some(t) = item_started {
                        busy_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        items_done += 1;
                    }
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
                if obs_on {
                    per_worker_items[w].store(items_done, Ordering::Relaxed);
                    total_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
                    let wall_ns =
                        u64::try_from(started_worker.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    // Queue wait = worker wall time not spent inside `f`
                    // (claiming, channel sends, waiting for stragglers).
                    cachekit_obs::record("par_map.worker_items", items_done);
                    cachekit_obs::record("par_map.worker_busy_us", busy_ns / 1_000);
                    cachekit_obs::record(
                        "par_map.worker_queue_wait_us",
                        wall_ns.saturating_sub(busy_ns) / 1_000,
                    );
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            match r {
                Ok(r) => out[i] = Some(r),
                Err(payload) => panic = panic.take().or(Some(payload)),
            }
        }
    });
    if obs_on {
        cachekit_obs::add("par_map.calls", 1);
        cachekit_obs::add("par_map.items", items.len() as u64);
        cachekit_obs::add(
            "par_map.busy_ns",
            total_busy_ns.load(Ordering::Relaxed).max(1),
        );
        cachekit_obs::add(
            "par_map.wall_ns",
            u64::try_from(started_call.elapsed().as_nanos())
                .unwrap_or(u64::MAX)
                .max(1),
        );
        let counts = per_worker_items.iter().map(|c| c.load(Ordering::Relaxed));
        let max = counts.clone().max().unwrap_or(0);
        let min = counts.min().unwrap_or(0);
        cachekit_obs::record("par_map.imbalance_items", max - min);
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    out.into_iter()
        .map(|r| r.expect("pool filled every slot"))
        .collect()
}

/// A persistent worker pool: `workers` threads that stay resident and
/// execute submitted jobs until the pool is dropped.
///
/// [`par_map`] spawns a fresh scoped pool per call, which is the right
/// shape for batch sweeps but wrong for a long-running service — a
/// server must keep its workers warm across requests instead of paying
/// thread spawn/join on every query. `WorkerPool` is that reusable
/// handle: `cachekit-serve` creates one at startup and feeds it jobs
/// for the lifetime of the process.
///
/// Jobs are executed in submission order by whichever worker frees up
/// first. A panicking job is contained: the panic is caught, counted
/// (`worker_pool.job_panics` in `cachekit-obs`), and the worker keeps
/// serving. Dropping the pool closes the queue, lets every already
/// submitted job finish, and joins the workers — the graceful-drain
/// guarantee the serving layer's shutdown path relies on.
///
/// ```
/// use cachekit_sim::parallel::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(2);
/// let done = Arc::new(AtomicU64::new(0));
/// for _ in 0..8 {
///     let done = Arc::clone(&done);
///     pool.submit(move || {
///         done.fetch_add(1, Ordering::Relaxed);
///     })
///     .unwrap();
/// }
/// drop(pool); // drain: all 8 jobs complete before the workers join
/// assert_eq!(done.load(Ordering::Relaxed), 8);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's queue was closed before the job could be accepted (only
/// possible mid-drop; a live pool always accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

impl WorkerPool {
    /// Spawn a pool of `workers` resident threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = std::sync::Arc::new(std::sync::Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = std::sync::Arc::clone(&receiver);
                thread::spawn(move || loop {
                    // Hold the lock only while picking a job: jobs run
                    // concurrently, the queue pop is serialized.
                    let job = {
                        let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    let Ok(job) = job else {
                        return; // queue closed and drained: the pool is dropping
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    cachekit_obs::add("worker_pool.jobs", 1);
                    if result.is_err() {
                        cachekit_obs::add("worker_pool.job_panics", 1);
                    }
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers: handles,
        }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queue a job for execution. Returns [`PoolClosed`] only when the
    /// pool is already shutting down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        match &self.sender {
            Some(tx) => tx.send(Box::new(job)).map_err(|_| PoolClosed),
            None => Err(PoolClosed),
        }
    }

    /// Close the queue, run every already submitted job to completion,
    /// and join the workers. Equivalent to dropping the pool, but
    /// callable when the caller wants the drain to be explicit.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Cross every policy with every geometry on one trace, in parallel.
///
/// Equivalent to [`sweep`](crate::sweep::sweep) — same cells, same
/// (config-major, policy-minor) order, bit-identical
/// [`CacheStats`](crate::CacheStats) — but cells are simulated
/// concurrently on [`effective_jobs`]`(None)` workers.
pub fn sweep_parallel(
    configs: &[CacheConfig],
    policies: &[PolicyKind],
    trace: &[u64],
) -> Vec<SweepCell> {
    sweep_parallel_jobs(configs, policies, trace, effective_jobs(None))
}

/// [`sweep_parallel`] with an explicit worker count.
pub fn sweep_parallel_jobs(
    configs: &[CacheConfig],
    policies: &[PolicyKind],
    trace: &[u64],
    jobs: usize,
) -> Vec<SweepCell> {
    let cells: Vec<(CacheConfig, PolicyKind)> = configs
        .iter()
        .flat_map(|&config| policies.iter().map(move |&policy| (config, policy)))
        .collect();
    par_map(&cells, jobs, |&(config, policy)| {
        let stats = simulate(config, policy, trace);
        SweepCell {
            policy,
            policy_label: policy.label(),
            config,
            stats,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{capacity_series, sweep};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, 8, |&i| i * 3);
        assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_runs_inline_when_single_job() {
        let items = [1, 2, 3];
        assert_eq!(par_map(&items, 1, |&i| i + 1), vec![2, 3, 4]);
        assert_eq!(par_map(&items, 0, |&i| i + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_map_handles_empty_input() {
        let items: [u8; 0] = [];
        assert!(par_map(&items, 4, |&b| b).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, 4, |&i| {
            if i == 33 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn sweep_parallel_matches_serial_sweep() {
        let trace: Vec<u64> = (0..4000u64).map(|i| (i % 173) * 64).collect();
        let configs = capacity_series(1024, 8192, 4, 64).unwrap();
        let policies = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::TreePlru,
            PolicyKind::Random { seed: 7 },
        ];
        let serial = sweep(&configs, &policies, &trace);
        for jobs in [1, 2, 3, 8] {
            let parallel = sweep_parallel_jobs(&configs, &policies, &trace, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.policy, p.policy);
                assert_eq!(s.config, p.config);
                assert_eq!(s.stats, p.stats, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn effective_jobs_prefers_explicit_request() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn worker_pool_runs_every_job_before_drop_returns() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            pool.submit(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        pool.submit(|| panic!("job boom")).unwrap();
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1, "worker kept serving");
    }

    #[test]
    fn worker_pool_clamps_zero_workers_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
