//! Synthetic address-trace generators.
//!
//! Every generator returns a `Vec<u64>` of byte addresses and is a pure
//! function of its parameters (stochastic generators take an explicit
//! seed), so traces are reproducible across runs and platforms.

use cachekit_policies::rng::Prng;
use cachekit_policies::rng::Shuffle;

/// `passes` sequential passes over a `footprint`-byte region, touching one
/// address per `line`-byte block — the streaming-scan archetype.
pub fn sequential_scan(footprint: u64, passes: usize, line: u64) -> Vec<u64> {
    assert!(line > 0, "line size must be nonzero");
    let lines = footprint / line;
    let mut trace = Vec::with_capacity((lines as usize) * passes);
    for _ in 0..passes {
        for i in 0..lines {
            trace.push(i * line);
        }
    }
    trace
}

/// `count` accesses with a fixed `stride`, repeated for `passes` rounds,
/// starting at `base`.
pub fn strided(base: u64, stride: u64, count: usize, passes: usize) -> Vec<u64> {
    let mut trace = Vec::with_capacity(count * passes);
    for _ in 0..passes {
        for i in 0..count as u64 {
            trace.push(base + i * stride);
        }
    }
    trace
}

/// A cyclic working set of `lines` blocks accessed round-robin for
/// `passes` rounds — the thrash archetype when `lines` exceeds the
/// associativity/capacity, and the perfect-reuse archetype when it fits.
pub fn cyclic_working_set(lines: u64, passes: usize, line: u64) -> Vec<u64> {
    sequential_scan(lines * line, passes, line)
}

/// `accesses` draws over `num_lines` blocks with a Zipf(`alpha`)
/// popularity distribution (rank 1 = hottest) — the hot/cold archetype.
///
/// # Panics
///
/// Panics if `num_lines` is 0 or `alpha` is not finite and positive.
pub fn zipf(num_lines: u64, alpha: f64, accesses: usize, line: u64, seed: u64) -> Vec<u64> {
    assert!(num_lines > 0, "need at least one line");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    // Precompute the CDF once; sampling is a binary search per access.
    let mut cdf = Vec::with_capacity(num_lines as usize);
    let mut acc = 0.0f64;
    for rank in 1..=num_lines {
        acc += 1.0 / (rank as f64).powf(alpha);
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = Prng::seed_from_u64(seed);
    // Shuffle the rank->address mapping so the hot lines are not all
    // adjacent (adjacency would conflate Zipf skew with spatial locality).
    let mut placement: Vec<u64> = (0..num_lines).collect();
    placement.shuffle(&mut rng);
    (0..accesses)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            let rank = cdf.partition_point(|&c| c < u);
            placement[rank.min(num_lines as usize - 1)] * line
        })
        .collect()
}

/// A pointer chase: a random Hamiltonian cycle over `num_lines` blocks,
/// walked for `steps` accesses — the dependent-load archetype with zero
/// spatial locality.
pub fn pointer_chase(num_lines: u64, steps: usize, line: u64, seed: u64) -> Vec<u64> {
    assert!(num_lines > 0, "need at least one line");
    let mut rng = Prng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..num_lines).collect();
    order.shuffle(&mut rng);
    let mut next = vec![0u64; num_lines as usize];
    for w in 0..num_lines as usize {
        next[order[w] as usize] = order[(w + 1) % num_lines as usize];
    }
    let mut cur = order[0];
    (0..steps)
        .map(|_| {
            let addr = cur * line;
            cur = next[cur as usize];
            addr
        })
        .collect()
}

/// A doubly nested loop over an `rows × cols` matrix of `element`-byte
/// entries; `row_major` selects the traversal order. Column-major walks of
/// row-major data are the classic cache-hostile loop nest.
pub fn matrix_walk(rows: usize, cols: usize, element: u64, row_major: bool, base: u64) -> Vec<u64> {
    let mut trace = Vec::with_capacity(rows * cols);
    if row_major {
        for r in 0..rows {
            for c in 0..cols {
                trace.push(base + ((r * cols + c) as u64) * element);
            }
        }
    } else {
        for c in 0..cols {
            for r in 0..rows {
                trace.push(base + ((r * cols + c) as u64) * element);
            }
        }
    }
    trace
}

/// The address stream of a naive `n × n` matrix multiply
/// (`C[i][j] += A[i][k] * B[k][j]`) over `element`-byte entries, with the
/// three matrices laid out contiguously — mixes streaming (A), strided
/// (B) and stationary (C) reuse.
pub fn matmul(n: usize, element: u64) -> Vec<u64> {
    let a = 0u64;
    let b = (n * n) as u64 * element;
    let c = 2 * b;
    let idx = |basem: u64, r: usize, col: usize| basem + ((r * n + col) as u64) * element;
    let mut trace = Vec::with_capacity(n * n * n * 3);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                trace.push(idx(a, i, k));
                trace.push(idx(b, k, j));
                trace.push(idx(c, i, j));
            }
        }
    }
    trace
}

/// Interleave two traces `a` and `b`, taking `chunk_a` accesses from `a`
/// then `chunk_b` from `b`, until both are exhausted — e.g. a hot loop
/// disturbed by a concurrent scan.
pub fn interleave(a: &[u64], chunk_a: usize, b: &[u64], chunk_b: usize) -> Vec<u64> {
    assert!(chunk_a > 0 && chunk_b > 0, "chunks must be nonzero");
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() || ib < b.len() {
        let ea = (ia + chunk_a).min(a.len());
        out.extend_from_slice(&a[ia..ea]);
        ia = ea;
        let eb = (ib + chunk_b).min(b.len());
        out.extend_from_slice(&b[ib..eb]);
        ib = eb;
    }
    out
}

/// Concatenate traces.
pub fn concat<I: IntoIterator<Item = Vec<u64>>>(parts: I) -> Vec<u64> {
    let mut out = Vec::new();
    for p in parts {
        out.extend(p);
    }
    out
}

/// The address stream of a garbage collector's mark phase: a
/// transitive-closure traversal (explicit DFS worklist) over a seeded
/// object graph whose objects were scattered across the heap by a
/// shuffled bump allocator — the fragmented layout a few collection
/// cycles leave behind.
///
/// Every object reached costs one mark-bitmap access (the test-and-set
/// lives in a dense side table, so those accesses are the *friendly*
/// part), a header-line read, and one read per field line; each of its
/// references pushes a random far-away object onto the worklist. The
/// result is the brutally cache-hostile dependent-pointer archetype of
/// heap tracing: near-zero spatial locality between parent and child,
/// with a trickle of bitmap reuse layered on top.
///
/// The graph is a random spanning tree over `num_objects` objects (so
/// the whole heap is reachable from the single root) plus `avg_fields`
/// extra edges per object on average. Pure function of its parameters.
///
/// # Panics
///
/// Panics if `num_objects` is 0 or `line` is 0.
pub fn gc_mark(num_objects: usize, avg_fields: usize, line: u64, seed: u64) -> Vec<u64> {
    assert!(num_objects > 0, "need at least one object");
    assert!(line > 0, "line size must be nonzero");
    let mut rng = Prng::seed_from_u64(seed);

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); num_objects];
    gc_graph(num_objects, avg_fields, &mut rng, |from, to| {
        edges[from].push(to)
    });

    // Fragmented placement: bump-allocate the objects in shuffled order.
    let mut order: Vec<usize> = (0..num_objects).collect();
    order.shuffle(&mut rng);
    let mut addr = vec![0u64; num_objects];
    let mut bump = 0u64;
    for &obj in &order {
        addr[obj] = bump;
        bump += gc_span(edges[obj].len(), line) * line;
    }
    // The mark bitmap sits above the heap, one bit per object.
    let bitmap_base = bump;
    let bitmap_line = |obj: usize| bitmap_base + (obj as u64 / (8 * line)) * line;

    let mut trace = Vec::new();
    let mut marked = vec![false; num_objects];
    let mut worklist = vec![0usize];
    while let Some(obj) = worklist.pop() {
        // Mark test-and-set: one bitmap access either way.
        trace.push(bitmap_line(obj));
        if std::mem::replace(&mut marked[obj], true) {
            continue;
        }
        // Scan the object: header, then its field lines.
        for k in 0..gc_span(edges[obj].len(), line) {
            trace.push(addr[obj] + k * line);
        }
        worklist.extend(edges[obj].iter().rev());
    }
    trace
}

/// The length of [`gc_mark`]`(num_objects, avg_fields, line, seed)`,
/// from its object graph alone: the mark phase pops the root and one
/// worklist entry per edge (one bitmap access each) and scans every
/// object once, since the spanning tree reaches them all. Costs the
/// graph's random draws, not the walk or the trace.
///
/// # Panics
///
/// Panics if `num_objects` is 0 or `line` is 0.
pub fn gc_mark_len(num_objects: usize, avg_fields: usize, line: u64, seed: u64) -> u64 {
    assert!(num_objects > 0, "need at least one object");
    assert!(line > 0, "line size must be nonzero");
    let mut rng = Prng::seed_from_u64(seed);
    let mut fields = vec![0usize; num_objects];
    gc_graph(num_objects, avg_fields, &mut rng, |from, _| {
        fields[from] += 1
    });
    let edges: usize = fields.iter().sum();
    let scans: u64 = fields.iter().map(|&f| gc_span(f, line)).sum();
    1 + edges as u64 + scans
}

/// An upper bound on [`gc_mark_len`] over every seed, in O(1). An
/// object has at most `2 · avg_fields` extra edges besides its tree
/// edges, and an object's field lines `⌈8f/line⌉` sum to at most
/// `⌈8E/line⌉ + num_objects` over `E` edges.
pub fn gc_mark_max_len(num_objects: usize, avg_fields: usize, line: u64) -> u64 {
    let objects = num_objects as u64;
    let edges = objects.saturating_sub(1) + 2 * avg_fields as u64 * objects;
    1 + edges + objects + (8 * edges).div_ceil(line) + objects
}

/// The seeded object graph of [`gc_mark`]: a random spanning tree rooted
/// at object 0, then `0..=2 · avg_fields` random extra references per
/// object. Reports each edge to `edge(from, to)` in draw order.
fn gc_graph(
    num_objects: usize,
    avg_fields: usize,
    rng: &mut Prng,
    mut edge: impl FnMut(usize, usize),
) {
    for child in 1..num_objects {
        let parent = rng.gen_range(0..child as u64) as usize;
        edge(parent, child);
    }
    for from in 0..num_objects {
        for _ in 0..rng.gen_range(0..=2 * avg_fields as u64) {
            edge(from, rng.gen_range(0..num_objects as u64) as usize);
        }
    }
}

/// Lines an object with `fields` references occupies: a header line
/// plus enough lines for its 8-byte references.
fn gc_span(fields: usize, line: u64) -> u64 {
    1 + (fields as u64 * 8).div_ceil(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_scan_covers_footprint_once_per_pass() {
        let t = sequential_scan(1024, 3, 64);
        assert_eq!(t.len(), 16 * 3);
        let distinct: HashSet<u64> = t.iter().map(|a| a / 64).collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn strided_respects_base_and_stride() {
        let t = strided(100, 7, 4, 2);
        assert_eq!(t, vec![100, 107, 114, 121, 100, 107, 114, 121]);
    }

    #[test]
    fn zipf_is_skewed() {
        let t = zipf(1000, 1.2, 50_000, 64, 42);
        let mut counts = std::collections::HashMap::new();
        for a in &t {
            *counts.entry(a).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let mean = t.len() / counts.len();
        assert!(
            max > mean * 20,
            "hottest line ({max}) should dwarf the mean ({mean})"
        );
    }

    #[test]
    fn zipf_is_reproducible() {
        assert_eq!(zipf(100, 1.0, 1000, 64, 7), zipf(100, 1.0, 1000, 64, 7));
        assert_ne!(zipf(100, 1.0, 1000, 64, 7), zipf(100, 1.0, 1000, 64, 8));
    }

    #[test]
    fn pointer_chase_visits_every_line_each_cycle() {
        let n = 64u64;
        let t = pointer_chase(n, n as usize * 2, 64, 3);
        let first: HashSet<u64> = t[..n as usize].iter().copied().collect();
        assert_eq!(first.len(), n as usize, "one full cycle visits all lines");
        // The second cycle repeats the first exactly.
        assert_eq!(&t[..n as usize], &t[n as usize..]);
    }

    #[test]
    fn matrix_walk_orders_differ() {
        let rm = matrix_walk(4, 8, 8, true, 0);
        let cm = matrix_walk(4, 8, 8, false, 0);
        assert_eq!(rm.len(), cm.len());
        assert_ne!(rm, cm);
        let set_rm: HashSet<u64> = rm.iter().copied().collect();
        let set_cm: HashSet<u64> = cm.iter().copied().collect();
        assert_eq!(set_rm, set_cm, "same footprint, different order");
    }

    #[test]
    fn matmul_touches_three_matrices() {
        let n = 4;
        let t = matmul(n, 8);
        assert_eq!(t.len(), n * n * n * 3);
        let max = t.iter().max().copied().unwrap();
        assert!(max >= 2 * (n * n) as u64 * 8);
    }

    #[test]
    fn interleave_preserves_all_accesses() {
        let a = vec![1u64, 2, 3, 4, 5];
        let b = vec![10u64, 20];
        let m = interleave(&a, 2, &b, 1);
        assert_eq!(m, vec![1, 2, 10, 3, 4, 20, 5]);
    }

    #[test]
    fn concat_joins_in_order() {
        let t = concat([vec![1u64], vec![2, 3]]);
        assert_eq!(t, vec![1, 2, 3]);
    }

    #[test]
    fn gc_mark_is_reproducible_and_reaches_the_whole_heap() {
        let a = gc_mark(500, 3, 64, 11);
        assert_eq!(a, gc_mark(500, 3, 64, 11));
        assert_ne!(a, gc_mark(500, 3, 64, 12));
        // Every object is reachable via the spanning tree, so the trace
        // must visit at least one line per object plus bitmap traffic.
        let distinct: HashSet<u64> = a.iter().map(|x| x / 64).collect();
        assert!(distinct.len() >= 500, "distinct lines = {}", distinct.len());
    }

    #[test]
    fn gc_mark_is_pointer_hostile() {
        // Consecutive accesses should mostly be far apart: the fraction
        // of |delta| <= one line must stay well below a sequential scan.
        let t = gc_mark(2000, 3, 64, 5);
        let near = t.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 64).count();
        assert!(
            (near as f64) < 0.5 * t.len() as f64,
            "near fraction {near}/{}",
            t.len()
        );
    }
}
