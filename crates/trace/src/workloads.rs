//! The named workload suite used by the evaluation figures.
//!
//! Each workload is an access-pattern archetype, scaled relative to the
//! capacity of the cache under evaluation so that the interesting
//! regime (fits / almost fits / thrashes) is hit regardless of the
//! concrete geometry.
//!
//! Every workload is defined once, in one table: its name, description,
//! length and generator. [`generate`] builds one trace, [`suite`]
//! builds all eleven through it, and [`len`] and [`max_len`] answer a
//! trace's length without building it.
//!
//! | name            | pattern                                            |
//! |-----------------|----------------------------------------------------|
//! | `seq_stream`    | streaming scan, 4× capacity                        |
//! | `fit_loop`      | cyclic working set at 1/2 capacity                 |
//! | `thrash_loop`   | cyclic working set at 9/8 capacity                 |
//! | `zipf_hot`      | Zipf(1.1) over 4× capacity                         |
//! | `ptr_chase`     | random pointer chase over 2× capacity              |
//! | `matmul`        | naive matrix multiply, ~2× capacity footprint      |
//! | `stack_geo`     | geometric stack-distance profile around capacity   |
//! | `scan_plus_hot` | hot loop at 1/4 capacity disturbed by a 4× scan    |
//! | `phase_switch`  | Zipf hot set relocating to a disjoint region per phase |
//! | `col_walk`      | column-major walk of a row-major matrix, twice     |
//! | `gc_trace`      | GC mark phase over a fragmented heap, ~2× capacity |

use crate::gen;
use crate::stack_dist::StackDistanceProfile;

/// A named, generated memory trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier used in tables (e.g. `"thrash_loop"`).
    pub name: &'static str,
    /// One-line description of the access pattern.
    pub description: &'static str,
    /// The address trace.
    pub trace: Vec<u64>,
}

/// The workload names, in suite order.
pub const NAMES: [&str; DEFS.len()] = {
    let mut names = [""; DEFS.len()];
    let mut i = 0;
    while i < DEFS.len() {
        names[i] = DEFS[i].name;
        i += 1;
    }
    names
};

/// The geometry a suite is scaled to: a cache of `capacity` bytes in
/// `line`-byte lines.
#[derive(Clone, Copy)]
struct Sizing {
    capacity: u64,
    line: u64,
    /// `capacity / line`.
    lines: u64,
}

impl Sizing {
    fn new(capacity: u64, line: u64) -> Self {
        let lines = capacity / line;
        assert!(lines >= 16, "capacity must hold at least 16 lines");
        Self {
            capacity,
            line,
            lines,
        }
    }

    /// `thrash_loop`'s working set (9/8 capacity) and pass count.
    fn thrash(self) -> (u64, usize) {
        let lines = self.lines + self.lines / 8;
        (lines, (80_000 / lines as usize).clamp(8, 200))
    }

    /// `matmul`'s matrix order: 3 n² elements of 8 bytes ~ 2× capacity.
    fn matmul_n(self) -> usize {
        (((2 * self.capacity) as f64 / (3.0 * 8.0)).sqrt() as usize).max(8)
    }

    /// `col_walk`'s row count over 512 columns of 8-byte elements.
    fn col_walk_rows(self) -> usize {
        ((2 * self.capacity / (COL_WALK_COLS as u64 * 8)) as usize).max(8)
    }
}

/// Accesses in each of the fixed-length stochastic workloads.
const DRAWS: usize = 200_000;
/// Accesses in each of `phase_switch`'s four phases.
const PHASE_LEN: usize = 40_000;
const COL_WALK_COLS: usize = 512;

/// One workload: how to build its trace and how long the trace is.
struct Def {
    name: &'static str,
    description: &'static str,
    /// The trace length from the geometry alone: exact, except where
    /// `seeded_len` is set, in which case an upper bound over seeds.
    max_len: fn(Sizing) -> u64,
    /// The exact length of a workload whose length depends on the seed.
    seeded_len: Option<fn(Sizing, u64) -> u64>,
    build: fn(Sizing, u64) -> Vec<u64>,
}

const DEFS: [Def; 11] = [
    Def {
        name: "seq_stream",
        description: "streaming scan, 4x capacity",
        max_len: |s| 2 * (4 * s.capacity / s.line),
        seeded_len: None,
        build: |s, _| gen::sequential_scan(4 * s.capacity, 2, s.line),
    },
    Def {
        name: "fit_loop",
        description: "cyclic working set at 1/2 capacity",
        max_len: |s| 40 * (s.lines / 2),
        seeded_len: None,
        build: |s, _| gen::cyclic_working_set(s.lines / 2, 40, s.line),
    },
    Def {
        name: "thrash_loop",
        description: "cyclic working set at 9/8 capacity",
        max_len: |s| {
            let (lines, passes) = s.thrash();
            lines * passes as u64
        },
        seeded_len: None,
        build: |s, _| {
            let (lines, passes) = s.thrash();
            gen::cyclic_working_set(lines, passes, s.line)
        },
    },
    Def {
        name: "zipf_hot",
        description: "Zipf(1.1) over 4x capacity",
        max_len: |_| DRAWS as u64,
        seeded_len: None,
        build: |s, seed| gen::zipf(4 * s.lines, 1.1, DRAWS, s.line, seed ^ 0x1),
    },
    Def {
        name: "ptr_chase",
        description: "pointer chase over 2x capacity",
        max_len: |_| DRAWS as u64,
        seeded_len: None,
        build: |s, seed| gen::pointer_chase(2 * s.lines, DRAWS, s.line, seed ^ 0x2),
    },
    Def {
        name: "matmul",
        description: "naive matmul, ~2x capacity footprint",
        max_len: |s| 3 * (s.matmul_n() as u64).pow(3),
        seeded_len: None,
        build: |s, _| gen::matmul(s.matmul_n(), 8),
    },
    Def {
        name: "stack_geo",
        description: "geometric stack-distance profile around capacity",
        max_len: |_| DRAWS as u64,
        seeded_len: None,
        build: |s, seed| {
            StackDistanceProfile::geometric(2.0 / s.lines as f64, (2 * s.lines) as usize, 0.02)
                .generate(DRAWS, s.line, seed ^ 0x3)
        },
    },
    // Mixed phase tuned so that, at an 8-way geometry of this capacity,
    // the scan injects more than one associativity's worth of fresh lines
    // into each set between two reuses of a hot line — enough to flush
    // the hot loop out of a pure-recency policy, while insertion-throttled
    // policies (LIP/BIP) keep it resident.
    Def {
        name: "scan_plus_hot",
        description: "hot loop at 1/4 capacity disturbed by a 4x scan",
        max_len: |s| 40 * (s.lines / 4) + 10 * (4 * s.capacity / s.line),
        seeded_len: None,
        build: |s, _| {
            let hot = gen::cyclic_working_set(s.lines / 4, 40, s.line);
            let scan = gen::sequential_scan(4 * s.capacity, 10, s.line);
            gen::interleave(&hot, 8, &scan, 40)
        },
    },
    // Phased behaviour: the hot set relocates to a disjoint region every
    // phase (programs switching working sets), stressing adaptivity.
    Def {
        name: "phase_switch",
        description: "Zipf hot set relocating to a disjoint region per phase",
        max_len: |_| 4 * PHASE_LEN as u64,
        seeded_len: None,
        build: |s, seed| {
            gen::concat((0..4u64).map(|ph| {
                let base = ph * 8 * s.capacity;
                gen::zipf(2 * s.lines, 1.1, PHASE_LEN, s.line, seed ^ (0x10 + ph))
                    .into_iter()
                    .map(|a| a + base)
                    .collect()
            }))
        },
    },
    // Column-major walk of a row-major matrix: long strides that hammer a
    // subset of sets, twice (so the second pass measures retention).
    Def {
        name: "col_walk",
        description: "column-major walk of a row-major matrix, twice",
        max_len: |s| 2 * (s.col_walk_rows() * COL_WALK_COLS) as u64,
        seeded_len: None,
        build: |s, _| {
            let one_pass = gen::matrix_walk(s.col_walk_rows(), COL_WALK_COLS, 8, false, 0);
            gen::concat([one_pass.clone(), one_pass])
        },
    },
    // GC tracing loop: heap-dump transitive closure over a seeded object
    // graph. ~cap_lines objects of ~2 lines each puts the live heap at
    // roughly 2x capacity — the mark phase never fits.
    Def {
        name: "gc_trace",
        description: "GC mark phase over a fragmented heap, ~2x capacity",
        max_len: |s| gen::gc_mark_max_len(s.lines as usize, 3, s.line),
        seeded_len: Some(|s, seed| gen::gc_mark_len(s.lines as usize, 3, s.line, seed ^ 0x4)),
        build: |s, seed| gen::gc_mark(s.lines as usize, 3, s.line, seed ^ 0x4),
    },
];

fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// The one-line description of workload `name`, or `None` if the suite
/// has no workload of that name.
pub fn description(name: &str) -> Option<&'static str> {
    def(name).map(|d| d.description)
}

/// Build workload `name` of the suite for a cache of `capacity` bytes
/// with `line`-byte lines, or `None` if the suite has no workload of
/// that name. Records a `workloads.generate` span.
///
/// Costs what that one trace costs: O([`len`]) for every workload but
/// `stack_geo`, which is O(len · log len). The trace is the one
/// [`suite`] holds under that name, because `suite` is built from this
/// function.
///
/// # Panics
///
/// Panics if `capacity` is smaller than 16 lines.
pub fn generate(name: &str, capacity: u64, line: u64, seed: u64) -> Option<Workload> {
    let def = def(name)?;
    let sizing = Sizing::new(capacity, line);
    let _span = cachekit_obs::span("workloads.generate");
    Some(Workload {
        name: def.name,
        description: def.description,
        trace: (def.build)(sizing, seed),
    })
}

/// The exact length of [`generate`]`(name, capacity, line, seed)`'s
/// trace, without building it, or `None` for an unknown name.
///
/// O(1) for every workload but `gc_trace`, whose length depends on the
/// seed: that one draws its seeded object graph, O(capacity / line), but
/// skips the mark-phase walk and builds no trace.
///
/// # Panics
///
/// Panics if `capacity` is smaller than 16 lines.
pub fn len(name: &str, capacity: u64, line: u64, seed: u64) -> Option<u64> {
    let def = def(name)?;
    let sizing = Sizing::new(capacity, line);
    Some(match def.seeded_len {
        Some(seeded) => seeded(sizing, seed),
        None => (def.max_len)(sizing),
    })
}

/// An upper bound on [`len`] over every seed, in O(1), or `None` for an
/// unknown name: exact for the ten workloads whose length does not
/// depend on the seed, and for `gc_trace` a bound that never
/// under-counts (about 1.65× its typical length at 64-byte lines).
/// Cheap enough to price a request before anything runs.
///
/// # Panics
///
/// Panics if `capacity` is smaller than 16 lines.
pub fn max_len(name: &str, capacity: u64, line: u64) -> Option<u64> {
    let def = def(name)?;
    Some((def.max_len)(Sizing::new(capacity, line)))
}

/// Build the eleven-workload evaluation suite for a cache of
/// `capacity` bytes with `line`-byte lines: [`generate`] for every name
/// in [`NAMES`], in that order.
///
/// The suite mirrors the archetypes a SPEC-style evaluation exercises;
/// the [module docs](self) list them.
///
/// # Panics
///
/// Panics if `capacity` is smaller than 16 lines.
pub fn suite(capacity: u64, line: u64, seed: u64) -> Vec<Workload> {
    let _span = cachekit_obs::span("workloads.suite");
    NAMES
        .iter()
        .map(|name| generate(name, capacity, line, seed).expect("every name has a definition"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_nonempty_workloads() {
        let s = suite(64 * 1024, 64, 0);
        assert_eq!(s.len(), 11);
        for w in &s {
            assert!(!w.trace.is_empty(), "{} is empty", w.name);
            assert!(!w.description.is_empty());
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let s = suite(64 * 1024, 64, 0);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn gc_trace_overflows_capacity() {
        let capacity = 64 * 1024u64;
        let s = suite(capacity, 64, 0);
        let gc = s.iter().find(|w| w.name == "gc_trace").unwrap();
        let distinct = gc
            .trace
            .iter()
            .map(|a| a / 64)
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        assert!(
            distinct > capacity / 64,
            "the live heap must exceed capacity (distinct = {distinct})"
        );
    }

    #[test]
    fn suite_is_reproducible() {
        let a = suite(32 * 1024, 64, 5);
        let b = suite(32 * 1024, 64, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace, y.trace, "{}", x.name);
        }
    }

    #[test]
    fn fit_loop_fits_and_thrash_loop_does_not() {
        let capacity = 64 * 1024u64;
        let line = 64u64;
        let s = suite(capacity, line, 0);
        let distinct = |t: &[u64]| {
            t.iter()
                .map(|a| a / line)
                .collect::<std::collections::HashSet<_>>()
                .len() as u64
        };
        let fit = s.iter().find(|w| w.name == "fit_loop").unwrap();
        let thrash = s.iter().find(|w| w.name == "thrash_loop").unwrap();
        assert!(distinct(&fit.trace) <= capacity / line / 2);
        assert!(distinct(&thrash.trace) > capacity / line);
    }

    #[test]
    fn phases_are_disjoint() {
        let s = suite(64 * 1024, 64, 0);
        let w = s.iter().find(|w| w.name == "phase_switch").unwrap();
        let quarter = w.trace.len() / 4;
        let first: std::collections::HashSet<u64> =
            w.trace[..quarter].iter().map(|a| a / 64).collect();
        let last: std::collections::HashSet<u64> =
            w.trace[3 * quarter..].iter().map(|a| a / 64).collect();
        assert!(first.is_disjoint(&last), "phases must not share lines");
    }

    #[test]
    #[should_panic(expected = "at least 16 lines")]
    fn tiny_capacity_panics() {
        let _ = suite(512, 64, 0);
    }
}
