//! Global registry: an enable flag, a per-thread shard (store + span
//! stack), and the process-wide merge target.
//!
//! Writes inside a span go to the current thread's shard without
//! locking; the shard is folded into the global store when the outermost
//! span on that thread closes, so worker threads never contend on the
//! global mutex mid-measurement. Writes outside any span have no close to
//! wait for and go straight to the global store, which is what makes
//! them visible to [`snapshot`] as soon as the recording thread is
//! joined.

use crate::store::{Snapshot, Store};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Environment variable that disables collection when set to `0` (or
/// `false`/`off`). Collection defaults to on.
pub const METRICS_ENV: &str = "CACHEKIT_METRICS";

/// Environment variable that turns on the live stderr span renderer
/// when set to `1` (or `true`/`on`).
pub const TRACE_ENV: &str = "CACHEKIT_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();
static GLOBAL: Mutex<Option<Store>> = Mutex::new(None);
static TRACE: OnceLock<bool> = OnceLock::new();

struct ThreadShard {
    store: Store,
    /// The open span path: span names joined by `/`.
    path: String,
    /// Length of `path` before each open span was pushed (one entry per
    /// open span, outermost first).
    marks: Vec<usize>,
    /// Reused buffer for `path/name` counter keys, so a counter that
    /// already exists in the shard is bumped without allocating.
    key: String,
}

impl ThreadShard {
    fn depth(&self) -> usize {
        self.marks.len()
    }

    fn flush_to_global(&mut self) {
        if self.store.is_empty() {
            return;
        }
        with_global(|global| global.merge_from(&mut self.store));
    }
}

/// Run `f` on the process-wide store under its lock.
fn with_global<R>(f: impl FnOnce(&mut Store) -> R) -> R {
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    f(global.get_or_insert_with(Store::default))
}

impl Drop for ThreadShard {
    fn drop(&mut self) {
        // Thread exit with a span still open (a leaked guard): contribute
        // what it recorded before the shard disappears.
        self.flush_to_global();
    }
}

thread_local! {
    static SHARD: RefCell<ThreadShard> = const {
        RefCell::new(ThreadShard {
            store: Store::new(),
            path: String::new(),
            marks: Vec::new(),
            key: String::new(),
        })
    };
}

fn apply_env() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var(METRICS_ENV) {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "false" || v == "off" {
                ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
}

/// Whether collection is currently on. A single atomic load; every
/// recording entry point checks this first, so disabled runs pay no
/// allocation, no TLS borrow, and no lock.
#[inline]
pub fn enabled() -> bool {
    apply_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off at runtime (overrides [`METRICS_ENV`]).
pub fn set_enabled(on: bool) {
    apply_env();
    ENABLED.store(on, Ordering::Relaxed);
}

fn trace_enabled() -> bool {
    *TRACE.get_or_init(|| {
        std::env::var(TRACE_ENV).is_ok_and(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
    })
}

/// Add `n` to the counter `name`, attributed to the current thread's
/// open span path (`"<path>/<name>"`, or bare `name` outside any span).
///
/// Inside a span the counter lands in the thread's shard: the key is
/// built in a reused buffer and only a key's first insert since the
/// shard last drained allocates. Outside any span it is added to the
/// global store directly.
pub fn add(name: &str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    SHARD.with(|shard| {
        let mut shard = shard.borrow_mut();
        if shard.depth() == 0 {
            with_global(|global| global.add_to_counter(name, n));
            return;
        }
        let ThreadShard {
            store, path, key, ..
        } = &mut *shard;
        key.clear();
        key.push_str(path);
        key.push('/');
        key.push_str(name);
        store.add_to_counter(key, n);
    });
}

/// Record `value` into the log2 histogram `name`. Histogram names are
/// global (not span-path prefixed): they describe distributions, not
/// phase attribution. Like [`add`], a record outside any span goes to
/// the global store directly.
pub fn record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    SHARD.with(|shard| {
        let mut shard = shard.borrow_mut();
        if shard.depth() == 0 {
            with_global(|global| global.record_hist(name, value));
        } else {
            shard.store.record_hist(name, value);
        }
    });
}

/// Depth of the current thread's open-span stack (0 when balanced and
/// idle); used by tests to prove nesting survives panics.
pub fn current_depth() -> usize {
    SHARD.with(|shard| shard.borrow().depth())
}

/// RAII guard for one span entry: created by [`span`], records the
/// elapsed time and pops the span when dropped — including during a
/// panic unwind, which is what keeps nesting balanced when a worker
/// thread dies mid-span.
#[must_use = "a span measures the scope it is bound to; dropping it immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: Option<Instant>,
}

/// Open a named span on the current thread. Nested spans extend the
/// path (`outer/inner`); counters added while the span is open are
/// attributed to that path. Returns an inert guard when collection is
/// disabled.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: None };
    }
    SHARD.with(|shard| {
        let mut shard = shard.borrow_mut();
        let ThreadShard { path, marks, .. } = &mut *shard;
        marks.push(path.len());
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(name);
        if trace_enabled() {
            let indent = "  ".repeat(marks.len() - 1);
            eprintln!("[obs] {indent}> {path}");
        }
    });
    SpanGuard {
        armed: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.armed.take() else {
            return;
        };
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SHARD.with(|shard| {
            let mut shard = shard.borrow_mut();
            let ThreadShard {
                store, path, marks, ..
            } = &mut *shard;
            // The stack can only be shorter than expected if `reset`
            // ran while this span was open (test-only); skip quietly.
            let Some(mark) = marks.pop() else {
                return;
            };
            if trace_enabled() {
                let indent = "  ".repeat(marks.len());
                eprintln!("[obs] {indent}< {path} ({:.3} ms)", dur_ns as f64 / 1e6);
            }
            store.observe_span(path, dur_ns);
            path.truncate(mark);
            if marks.is_empty() {
                // Outermost close: publish this thread's shard.
                shard.flush_to_global();
            }
        });
    }
}

/// Fold the current thread's shard into the global store without
/// waiting for a span close or thread exit.
pub fn flush() {
    SHARD.with(|shard| shard.borrow_mut().flush_to_global());
}

/// Snapshot everything collected so far (flushes the calling thread's
/// shard first). Another thread's records are visible once it has been
/// joined, or earlier: span-less records at once, records inside a span
/// when that thread's outermost span closes.
pub fn snapshot() -> Snapshot {
    flush();
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    global.as_ref().map(Store::snapshot).unwrap_or_default()
}

/// Discard everything collected so far, globally and on the calling
/// thread (open spans on the calling thread are abandoned). Meant for
/// tests.
pub fn reset() {
    SHARD.with(|shard| {
        let mut shard = shard.borrow_mut();
        shard.store = Store::default();
        shard.path.clear();
        shard.marks.clear();
    });
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    *global = None;
}
