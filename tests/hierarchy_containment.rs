//! Containment-invariant property tests for the hierarchy engine.
//!
//! Each discipline makes a structural promise that must hold after
//! *every* operation, not just at the end of a trace:
//!
//! - **inclusive** — every line resident at level *k* is resident at
//!   every level outside it (the subset invariant);
//! - **exclusive** — a line is resident at *at most one* level
//!   (pairwise disjointness);
//! - **NINE** — levels are independent: a single-level NINE hierarchy
//!   is bit-identical to a bare [`Cache`], stats and contents.
//!
//! The op streams mix seeded random reads and writes over a footprint
//! chosen to overflow the inner levels, so fills, evictions,
//! back-invalidations, victim spills, and writebacks all fire.
//!
//! The flush differential at the end pins `Cache::flush`, which visits
//! only the sets filled since the previous flush, to a twin flushed set
//! by set — on bare caches (including DIP's shared duel state) and on
//! hierarchies under every containment.

use cachekit::policies::rng::Prng;
use cachekit::policies::{DuelFamily, DuelState, PolicyKind};
use cachekit::sim::{Cache, CacheConfig, Containment, Hierarchy, HierarchyOutcome, LevelSpec};
use std::collections::HashSet;
use std::sync::Arc;

/// Three-level geometry small enough to check invariants after every op.
fn three_level_specs(policies: [PolicyKind; 3]) -> Vec<LevelSpec> {
    let configs = [
        CacheConfig::new(1024, 4, 64).expect("valid"),
        CacheConfig::new(4096, 4, 64).expect("valid"),
        CacheConfig::new(16384, 8, 64).expect("valid"),
    ];
    configs
        .into_iter()
        .zip(policies)
        .map(|(c, p)| LevelSpec::new(c, p))
        .collect()
}

/// A seeded read/write stream with a footprint at ~2x the outer level.
fn op_stream(seed: u64, len: usize) -> Vec<(u64, bool)> {
    let mut rng = Prng::seed_from_u64(seed);
    let lines = 2u64 * 16384 / 64;
    (0..len)
        .map(|_| {
            let addr = rng.gen_range(0..lines) * 64;
            (addr, rng.gen_bool(0.3))
        })
        .collect()
}

fn resident_sets(h: &Hierarchy) -> Vec<HashSet<u64>> {
    (0..h.depth())
        .map(|i| h.level(i).resident_lines().into_iter().collect())
        .collect()
}

fn assert_inclusive_invariant(h: &Hierarchy, step: usize) {
    let sets = resident_sets(h);
    for pair in sets.windows(2) {
        assert!(
            pair[0].is_subset(&pair[1]),
            "step {step}: inner level holds lines the outer level lost: {:?}",
            pair[0].difference(&pair[1]).collect::<Vec<_>>()
        );
    }
}

fn assert_exclusive_invariant(h: &Hierarchy, step: usize) {
    let sets = resident_sets(h);
    for i in 0..sets.len() {
        for j in i + 1..sets.len() {
            let shared: Vec<_> = sets[i].intersection(&sets[j]).collect();
            assert!(
                shared.is_empty(),
                "step {step}: levels {i} and {j} both hold {shared:?}"
            );
        }
    }
}

/// Policy mixes the differential suite cares about: uniform recency,
/// the fig13 mixed configuration, and a stochastic mix.
fn policy_mixes() -> Vec<[PolicyKind; 3]> {
    vec![
        [PolicyKind::Lru, PolicyKind::Lru, PolicyKind::Lru],
        [
            PolicyKind::TreePlru,
            PolicyKind::Qlru { insert: 1 },
            PolicyKind::Srrip { bits: 2 },
        ],
        [
            PolicyKind::Fifo,
            PolicyKind::Random { seed: 0x5eed },
            PolicyKind::Lip,
        ],
    ]
}

#[test]
fn inclusive_subset_invariant_holds_after_every_op() {
    for (mix_idx, policies) in policy_mixes().into_iter().enumerate() {
        let mut h =
            Hierarchy::new(three_level_specs(policies)).with_containment(Containment::Inclusive);
        for (step, &(addr, write)) in op_stream(11 + mix_idx as u64, 4000).iter().enumerate() {
            h.access_op(addr, write);
            assert_inclusive_invariant(&h, step);
        }
        // The stream must actually have exercised back-invalidation,
        // otherwise the invariant was never at risk.
        assert!(
            h.hierarchy_stats().back_invalidations > 0,
            "mix {mix_idx}: no back-invalidations fired"
        );
    }
}

#[test]
fn exclusive_disjointness_holds_after_every_op() {
    for (mix_idx, policies) in policy_mixes().into_iter().enumerate() {
        let mut h =
            Hierarchy::new(three_level_specs(policies)).with_containment(Containment::Exclusive);
        for (step, &(addr, write)) in op_stream(23 + mix_idx as u64, 4000).iter().enumerate() {
            h.access_op(addr, write);
            assert_exclusive_invariant(&h, step);
        }
        assert!(
            h.hierarchy_stats().victim_fills > 0,
            "mix {mix_idx}: no victim fills fired"
        );
    }
}

/// A hit at an outer level of an exclusive hierarchy moves the line
/// inward; the next access to it must hit L1 — checked across policies
/// on the full stream.
#[test]
fn exclusive_rehit_after_outer_hit_lands_in_l1() {
    let mut h = Hierarchy::new(three_level_specs([
        PolicyKind::Lru,
        PolicyKind::Lru,
        PolicyKind::Lru,
    ]))
    .with_containment(Containment::Exclusive);
    for &(addr, write) in &op_stream(31, 4000) {
        let outcome = h.access_op(addr, write);
        if matches!(outcome, HierarchyOutcome::Level(k) if k > 0) {
            assert_eq!(
                h.access_op(addr, false),
                HierarchyOutcome::Level(0),
                "line {addr:#x} must have moved inward"
            );
        }
    }
}

#[test]
fn single_level_nine_chain_is_bit_identical_to_a_bare_cache() {
    let config = CacheConfig::new(4096, 4, 64).expect("valid");
    for kind in PolicyKind::differential_kinds() {
        if kind.validate_for_assoc(4).is_err() {
            continue;
        }
        let mut h = Hierarchy::new(vec![LevelSpec::new(config, kind)]);
        let mut cache = Cache::new(config, kind);
        for &(addr, write) in &op_stream(47, 6000) {
            h.access_op(addr, write);
            cache.access_op(addr, write);
        }
        assert_eq!(
            h.stats()[0],
            cache.stats(),
            "{} stats diverged",
            kind.label()
        );
        let mut hier_lines = h.level(0).resident_lines();
        let mut flat_lines = cache.resident_lines();
        hier_lines.sort_unstable();
        flat_lines.sort_unstable();
        assert_eq!(hier_lines, flat_lines, "{} contents diverged", kind.label());
        for &line in &hier_lines {
            assert_eq!(
                h.level(0).is_dirty(line),
                cache.is_dirty(line),
                "{} dirtiness diverged on {line:#x}",
                kind.label()
            );
        }
    }
}

/// Writebacks must conserve dirtiness: under every containment, a dirty
/// line either stays resident (dirty) somewhere or is counted as a
/// memory writeback when it finally leaves the hierarchy.
#[test]
fn flush_after_writes_sends_every_remaining_dirty_line_somewhere() {
    for containment in Containment::ALL {
        let mut h = Hierarchy::new(three_level_specs([
            PolicyKind::Lru,
            PolicyKind::TreePlru,
            PolicyKind::Lru,
        ]))
        .with_containment(containment);
        for &(addr, write) in &op_stream(59, 4000) {
            h.access_op(addr, write);
        }
        let stats = h.stats();
        let writes: u64 = stats.iter().map(|s| s.writes).sum();
        assert!(writes > 0, "{containment}: stream produced no writes");
        // Every level's writeback counter is bounded by its evictions
        // (a writeback only happens when a dirty line is displaced).
        for (i, s) in stats.iter().enumerate() {
            assert!(
                s.writebacks <= s.evictions,
                "{containment}: level {i} wrote back {} of {} evictions",
                s.writebacks,
                s.evictions
            );
        }
    }
}

/// Accounting identities every containment must satisfy on any stream:
/// L1 sees every demand access, outcomes partition into per-level hits
/// plus memory fetches, and AMAT is bracketed by the latency model.
#[test]
fn per_level_accounting_identities_hold_for_every_containment() {
    let ops = op_stream(67, 8000);
    for containment in Containment::ALL {
        for policies in policy_mixes() {
            let mut h = Hierarchy::new(three_level_specs(policies)).with_containment(containment);
            let mut level_hits = vec![0u64; h.depth()];
            let mut memory = 0u64;
            for &(addr, write) in &ops {
                match h.access_op(addr, write) {
                    HierarchyOutcome::Level(k) => level_hits[k] += 1,
                    HierarchyOutcome::Memory => memory += 1,
                }
            }
            let hstats = h.hierarchy_stats();
            assert_eq!(hstats.accesses, ops.len() as u64, "{containment}");
            assert_eq!(
                level_hits.iter().sum::<u64>() + memory,
                ops.len() as u64,
                "{containment}: outcomes must partition the stream"
            );
            assert_eq!(hstats.memory_fetches, memory, "{containment}");
            // Demand accesses all enter at L1 (writeback probes of outer
            // levels are extra, so only L1 is exact).
            assert_eq!(h.stats()[0].accesses, ops.len() as u64, "{containment}");
            let amat = h.amat();
            let floor = h.latencies()[0] as f64;
            let ceiling = (h.latencies().iter().sum::<u64>() + h.memory_latency()) as f64;
            assert!(
                (floor..=ceiling).contains(&amat),
                "{containment}: AMAT {amat} outside [{floor}, {ceiling}]"
            );
        }
    }
}

/// The containment disciplines must agree on a stream that never
/// overflows any level: with no evictions there is nothing for the
/// disciplines to disagree about — except exclusivity's deliberate
/// non-duplication, which still changes *where* lines live, so only
/// outcomes (not contents) are compared.
#[test]
fn disciplines_agree_on_outcomes_below_capacity() {
    let mut rng = Prng::seed_from_u64(71);
    let ops: Vec<(u64, bool)> = (0..2000)
        .map(|_| (rng.gen_range(0..12u64) * 64, rng.gen_bool(0.2)))
        .collect();
    let runs: Vec<Vec<HierarchyOutcome>> = Containment::ALL
        .iter()
        .map(|&containment| {
            let mut h = Hierarchy::new(three_level_specs([
                PolicyKind::Lru,
                PolicyKind::Lru,
                PolicyKind::Lru,
            ]))
            .with_containment(containment);
            ops.iter().map(|&(a, w)| h.access_op(a, w)).collect()
        })
        .collect();
    // Inclusive and NINE agree exactly (no evictions => identical fills).
    assert_eq!(runs[0], runs[2], "inclusive vs NINE below capacity");
    // Exclusive hits the same *accesses* but at inner levels after
    // migration; cold misses must match exactly.
    for (i, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(
            matches!(a, HierarchyOutcome::Memory),
            matches!(b, HierarchyOutcome::Memory),
            "op {i}: cold-miss sets must agree"
        );
    }
}

/// One step of a flush-differential stream.
#[derive(Debug, Clone)]
enum FlushOp {
    /// A demand read or write through the cache (or hierarchy).
    Access(u64, bool),
    /// A batched read run on the cache (the L1 of a hierarchy).
    Many(Vec<u64>),
    /// A direct operation on one level (level 0 of a bare cache).
    On(usize, LevelOp),
    Flush,
}

/// A direct operation on one cache level. Set and way operands are raw
/// seeds, reduced to the level's geometry when applied.
#[derive(Debug, Clone)]
enum LevelOp {
    /// `probe_op`, then `install` on a miss.
    ProbeInstall(u64, bool),
    Invalidate(u64),
    Extract(u64),
    /// `set_mut(set).force_evict(way)`.
    ForceEvict(u64, u64),
    /// `set_mut(set).access_tag(tag)`: a fill behind the cache's back.
    SetAccess(u64, u64),
}

/// A seeded stream over `lines` lines: half the addresses stay within
/// four sets of a `way_size`-strided block (so many flushes find only a
/// few occupied sets), half roam the whole footprint, with a flush at
/// seeded points roughly every 150 ops.
fn flush_op_stream(seed: u64, len: usize, lines: u64, way_size: u64, depth: usize) -> Vec<FlushOp> {
    let mut rng = Prng::seed_from_u64(seed);
    let addr = |rng: &mut Prng| {
        if rng.gen_bool(0.5) {
            rng.gen_range(0..4u64) * 64 + rng.gen_range(0..48u64) * way_size
        } else {
            rng.gen_range(0..lines) * 64
        }
    };
    (0..len)
        .map(|_| {
            let level = rng.gen_range(0..depth);
            let op = match rng.gen_range(0..150u64) {
                0 => return FlushOp::Flush,
                1..=3 => {
                    let run = rng.gen_range(1..40usize);
                    return FlushOp::Many((0..run).map(|_| addr(&mut rng)).collect());
                }
                4..=8 => LevelOp::ProbeInstall(addr(&mut rng), rng.gen_bool(0.3)),
                9..=14 => LevelOp::Invalidate(addr(&mut rng)),
                15..=20 => LevelOp::Extract(addr(&mut rng)),
                21..=25 => LevelOp::ForceEvict(rng.next_u64(), rng.next_u64()),
                26..=28 => LevelOp::SetAccess(rng.next_u64(), rng.gen_range(0..64u64)),
                _ => return FlushOp::Access(addr(&mut rng), rng.gen_bool(0.3)),
            };
            FlushOp::On(level, op)
        })
        .collect()
}

/// The reference flush: every set of `cache`, one by one.
fn flush_every_set(cache: &mut Cache) {
    for i in 0..cache.config().num_sets() as usize {
        cache.set_mut(i).flush();
    }
}

/// Apply `op` to one level; returns a comparable record of what it did.
fn apply_to_level(cache: &mut Cache, op: &LevelOp) -> String {
    let sets = cache.config().num_sets();
    let assoc = cache.config().associativity() as u64;
    match *op {
        LevelOp::ProbeInstall(addr, write) => {
            if cache.probe_op(addr, write) {
                "hit".into()
            } else {
                format!("{:?}", cache.install(addr, write))
            }
        }
        LevelOp::Invalidate(addr) => cache.invalidate(addr).to_string(),
        LevelOp::Extract(addr) => format!("{:?}", cache.extract(addr)),
        LevelOp::ForceEvict(set, way) => {
            let set = cache.set_mut((set % sets) as usize);
            format!("{:?}", set.force_evict((way % assoc) as usize))
        }
        LevelOp::SetAccess(set, tag) => {
            format!("{:?}", cache.set_mut((set % sets) as usize).access_tag(tag))
        }
    }
}

fn assert_caches_agree(subject: &Cache, twin: &Cache, ctx: &str) {
    assert_eq!(subject.stats(), twin.stats(), "{ctx}: stats");
    for i in 0..subject.config().num_sets() as usize {
        let (s, t) = (subject.set(i), twin.set(i));
        assert_eq!(
            s.policy().state_key(),
            t.policy().state_key(),
            "{ctx}: set {i} replacement state"
        );
        assert_eq!(s.resident_tags(), t.resident_tags(), "{ctx}: set {i} tags");
    }
}

/// A cache built twice from one recipe: `subject` is flushed with
/// `Cache::flush`, `twin` set by set. DIP twins each get their own
/// family, so each has its own shared duel state (`duels`).
struct FlushTwin {
    label: String,
    subject: Cache,
    twin: Cache,
    duels: Option<[Arc<DuelState>; 2]>,
}

fn flush_twins() -> Vec<FlushTwin> {
    let mut twins = Vec::new();
    for assoc in [1usize, 4, 8, 24] {
        // 64 sets: enough for DIP's leader sets of both kinds plus
        // followers.
        let config = CacheConfig::new(64 * assoc as u64 * 64, assoc, 64).expect("valid");
        for kind in [PolicyKind::Lru, PolicyKind::TreePlru, PolicyKind::LazyLru] {
            twins.push(FlushTwin {
                label: format!("{}@{assoc}", kind.label()),
                subject: Cache::new(config, kind),
                twin: Cache::new(config, kind),
                duels: None,
            });
        }
        let dip = || {
            let family = DuelFamily::new(PolicyKind::Bip { throttle: 32 }, assoc, 0xD1B);
            let duel = Arc::clone(family.duel());
            let cache =
                Cache::with_policy_factory(config, "DIP", move |set| family.policy_for_set(set));
            (cache, duel)
        };
        let ((subject, a), (twin, b)) = (dip(), dip());
        twins.push(FlushTwin {
            label: format!("DIP@{assoc}"),
            subject,
            twin,
            duels: Some([a, b]),
        });
    }
    twins
}

/// Drive both caches through `ops`, comparing every result and, at
/// each flush, every set; then flush once more and compare the next
/// 1,000 outcomes of a fresh stream.
fn run_flush_twin(t: &mut FlushTwin, ops: &[FlushOp], seed: u64) {
    let label = t.label.clone();
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("{label} step {step}: {op:?}");
        match op {
            FlushOp::Flush => {
                t.subject.flush();
                flush_every_set(&mut t.twin);
                assert_eq!(t.subject.occupancy(), 0, "{ctx}: lines left behind");
                assert_caches_agree(&t.subject, &t.twin, &ctx);
            }
            FlushOp::Access(addr, write) => assert_eq!(
                t.subject.access_op(*addr, *write),
                t.twin.access_op(*addr, *write),
                "{ctx}"
            ),
            FlushOp::Many(addrs) => assert_eq!(
                t.subject.access_many(addrs),
                t.twin.access_many(addrs),
                "{ctx}"
            ),
            FlushOp::On(_, op) => assert_eq!(
                apply_to_level(&mut t.subject, op),
                apply_to_level(&mut t.twin, op),
                "{ctx}"
            ),
        }
    }
    t.subject.flush();
    flush_every_set(&mut t.twin);
    assert_caches_agree(&t.subject, &t.twin, &format!("{label} final flush"));
    let footprint = 2 * t.subject.config().capacity();
    for (step, &(addr, write)) in op_stream(seed, 1000).iter().enumerate() {
        let addr = addr % footprint;
        assert_eq!(
            t.subject.access_op(addr, write),
            t.twin.access_op(addr, write),
            "{label}: outcome {step} after the last flush"
        );
    }
    if let Some([a, b]) = &t.duels {
        assert_eq!(a.psel(), b.psel(), "{label}: shared DIP selector");
    }
}

/// `Cache::flush` visits only the sets filled since the last flush; a
/// twin flushed set by set must stay indistinguishable from it.
#[test]
fn tracked_flush_matches_a_set_by_set_flush_on_bare_caches() {
    for (i, mut t) in flush_twins().into_iter().enumerate() {
        let config = *t.subject.config();
        let lines = 2 * config.capacity() / 64;
        let ops = flush_op_stream(101 + i as u64, 6000, lines, config.way_size(), 1);
        assert!(ops.iter().filter(|op| matches!(op, FlushOp::Flush)).count() > 10);
        run_flush_twin(&mut t, &ops, 211 + i as u64);
    }
}

/// Between two flushes, one set is emptied and refilled more times than
/// the cache has sets, then further sets are filled: the tracking list
/// overflows and the flush must fall back to walking every set.
#[test]
fn tracked_flush_falls_back_to_a_full_walk_past_its_cap() {
    for (i, mut t) in flush_twins().into_iter().enumerate() {
        let config = *t.subject.config();
        let (sets, way) = (config.num_sets(), config.way_size());
        let mut ops = vec![FlushOp::Flush];
        for _ in 0..sets + 2 {
            ops.push(FlushOp::Access(0, true));
            ops.push(FlushOp::On(0, LevelOp::Invalidate(0)));
        }
        for set in 1..sets / 2 {
            ops.push(FlushOp::Access(set * 64, set % 3 == 0));
            ops.push(FlushOp::On(0, LevelOp::ProbeInstall(way + set * 64, false)));
        }
        ops.push(FlushOp::Many((0..sets).map(|s| s * 64 + 2 * way).collect()));
        ops.push(FlushOp::Flush);
        ops.push(FlushOp::Access(5 * 64, false));
        run_flush_twin(&mut t, &ops, 307 + i as u64);
    }
}

/// The same differential through a three-level hierarchy under every
/// containment: `Hierarchy::flush` against a twin whose levels are
/// flushed set by set.
#[test]
fn tracked_flush_matches_a_set_by_set_flush_in_hierarchies() {
    for (i, containment) in Containment::ALL.into_iter().enumerate() {
        let build = || {
            Hierarchy::new(three_level_specs([
                PolicyKind::TreePlru,
                PolicyKind::LazyLru,
                PolicyKind::Lru,
            ]))
            .with_containment(containment)
        };
        let (mut subject, mut twin) = (build(), build());
        let l3 = *subject.level(2).config();
        let l2_way = subject.level(1).config().way_size();
        let ops = flush_op_stream(401 + i as u64, 6000, 2 * l3.capacity() / 64, l2_way, 3);
        let flush_twin = |h: &mut Hierarchy| {
            for level in 0..h.depth() {
                flush_every_set(h.level_mut(level));
            }
        };
        let agree = |a: &Hierarchy, b: &Hierarchy, ctx: &str| {
            assert_eq!(a.hierarchy_stats(), b.hierarchy_stats(), "{ctx}");
            for level in 0..a.depth() {
                assert_caches_agree(a.level(level), b.level(level), &format!("{ctx} L{level}"));
            }
        };
        for (step, op) in ops.iter().enumerate() {
            let ctx = format!("{containment} step {step}: {op:?}");
            match op {
                FlushOp::Flush => {
                    subject.flush();
                    flush_twin(&mut twin);
                    agree(&subject, &twin, &ctx);
                }
                FlushOp::Access(addr, write) => assert_eq!(
                    subject.access_op(*addr, *write),
                    twin.access_op(*addr, *write),
                    "{ctx}"
                ),
                FlushOp::Many(addrs) => assert_eq!(
                    subject.level_mut(0).access_many(addrs),
                    twin.level_mut(0).access_many(addrs),
                    "{ctx}"
                ),
                FlushOp::On(level, op) => assert_eq!(
                    apply_to_level(subject.level_mut(*level), op),
                    apply_to_level(twin.level_mut(*level), op),
                    "{ctx}"
                ),
            }
        }
        subject.flush();
        flush_twin(&mut twin);
        agree(&subject, &twin, &format!("{containment} final flush"));
        for (step, &(addr, write)) in op_stream(503 + i as u64, 1000).iter().enumerate() {
            assert_eq!(
                subject.access_op(addr, write),
                twin.access_op(addr, write),
                "{containment}: outcome {step} after the last flush"
            );
        }
    }
}
