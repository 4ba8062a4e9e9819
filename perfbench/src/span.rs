//! In-memory spans for the traced run.
//!
//! The benchmark's own code opens a span around every call it makes
//! into a layer's public entry point. A span records its name, start,
//! end, parent span and request id; nothing is written until the run
//! ends. Self time is a span's duration minus the part its children
//! cover. Children that ran on pool workers count at `1 / jobs` of their
//! duration, so a parallel region's self time is its idle capacity and
//! every layer's self time plus the residual (the root span's self time)
//! adds up to the root's wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u32,
    /// Wall-equivalent share of one nanosecond of this span: 1 on the
    /// main thread, `1 / jobs` on a pool worker.
    pub weight: f64,
    /// The parent is a span of the same worker lane (rebased on merge).
    local_parent: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one thread. `enabled: false` makes every call a
/// no-op, which gives the same replay without tracing cost.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    inner: RefCell<Lane>,
}

#[derive(Debug, Default)]
struct Lane {
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Parent of spans opened on an empty stack (a worker lane's spans
    /// hang off the main thread's parallel-region span).
    base_parent: u32,
    /// Request id stamped on newly opened spans.
    request: u32,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            inner: RefCell::new(Lane {
                base_parent: NO_PARENT,
                ..Lane::default()
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set the request id stamped on spans opened from now on.
    pub fn set_request(&self, request: u32) {
        self.inner.borrow_mut().request = request;
    }

    /// Open a span; close it with [`exit`](Self::exit).
    pub fn enter(&self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start = self.now();
        let mut lane = self.inner.borrow_mut();
        let parent = lane.stack.last().copied().unwrap_or(lane.base_parent);
        let id = lane.spans.len() as u32;
        let request = lane.request;
        lane.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            weight: 1.0,
            local_parent: false,
        });
        lane.stack.push(id);
        id
    }

    pub fn exit(&self, id: u32) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let mut lane = self.inner.borrow_mut();
        let top = lane.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        lane.spans[id as usize].end = end;
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A tracer for a pool worker whose spans hang off `parent`, a span
    /// of the tracer with this `origin`, once [`absorb`](Self::absorb)ed.
    pub fn worker(origin: Instant, enabled: bool, parent: u32) -> Tracer {
        Tracer {
            origin,
            enabled,
            inner: RefCell::new(Lane {
                base_parent: parent,
                ..Lane::default()
            }),
        }
    }

    /// Merge worker lanes into this tracer, weighting their spans by
    /// `1 / jobs` of the parallel region they ran in.
    pub fn absorb(&self, lanes: Vec<Vec<Span>>, jobs: usize) {
        if !self.enabled {
            return;
        }
        let mut main = self.inner.borrow_mut();
        for spans in lanes {
            let offset = main.spans.len() as u32;
            for mut span in spans {
                if span.local_parent {
                    span.parent += offset;
                    span.local_parent = false;
                }
                span.weight = 1.0 / jobs as f64;
                main.spans.push(span);
            }
        }
    }

    /// This lane's spans, marking in-lane parents so `absorb` can
    /// rebase them.
    pub fn into_spans(self) -> Vec<Span> {
        let lane = self.inner.into_inner();
        let base = lane.base_parent;
        lane.spans
            .into_iter()
            .map(|mut s| {
                s.local_parent = s.parent != base;
                s
            })
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Per-layer totals over a finished trace.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Wall-equivalent self time per span name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Total (inclusive) duration per span name, nanoseconds, unweighted.
    pub total_ns: BTreeMap<&'static str, f64>,
    /// Number of spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Duration of the root span(s), nanoseconds.
    pub wall_ns: f64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut covered = vec![0.0f64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                let parent = &spans[s.parent as usize];
                covered[s.parent as usize] += s.dur() as f64 * s.weight / parent.weight;
            }
        }
        let mut b = Breakdown::default();
        for (s, cov) in spans.iter().zip(&covered) {
            let own = (s.dur() as f64 - cov).max(0.0) * s.weight;
            *b.self_ns.entry(s.name).or_default() += own;
            *b.total_ns.entry(s.name).or_default() += s.dur() as f64;
            *b.count.entry(s.name).or_default() += 1;
            if s.parent == NO_PARENT {
                b.wall_ns += s.dur() as f64;
            }
        }
        b
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Mean inclusive duration of spans named `name`, in `unit_ns`
    /// units (0 when there are none).
    pub fn mean(&self, name: &str, unit_ns: f64) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ns.get(name).copied().unwrap_or(0.0) / n as f64 / unit_ns
        }
    }

    /// Sum of every layer's self time, root included.
    pub fn self_sum_ns(&self) -> f64 {
        self.self_ns.values().sum()
    }
}
