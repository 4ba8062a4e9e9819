//! Set-dueling policies (DIP, DRRIP): the adaptive mechanisms must track
//! the better of their two component policies per workload.

use cachekit::policies::{DuelFamily, PolicyKind};
use cachekit::sim::{sweep, Cache, CacheConfig, CacheStats};
use cachekit::trace::workloads;

const CAPACITY: u64 = 64 * 1024;
const LINE: u64 = 64;

fn config() -> CacheConfig {
    CacheConfig::new(CAPACITY, 8, LINE).unwrap()
}

fn run_dip(trace: &[u64]) -> CacheStats {
    let family = DuelFamily::new(
        PolicyKind::Bip { throttle: 32 },
        8,
        config().num_sets(),
        0xD1B,
    );
    let mut cache = Cache::with_policy_factory(config(), "DIP", |set| family.policy_for_set(set));
    cache.run_trace(trace.iter().copied())
}

fn run_drrip(trace: &[u64]) -> CacheStats {
    let brrip = PolicyKind::Brrip {
        bits: 2,
        throttle: 32,
    };
    let family = DuelFamily::new(brrip, 8, config().num_sets(), 0xD2B);
    let mut cache = Cache::with_policy_factory(config(), "DRRIP", |set| family.policy_for_set(set));
    cache.run_trace(trace.iter().copied())
}

fn workload(name: &str) -> Vec<u64> {
    workloads::suite(CAPACITY, LINE, 7)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap()
        .trace
}

#[test]
fn dip_follows_bip_on_thrashing_loops() {
    let t = workload("thrash_loop");
    let lru = sweep::simulate(config(), PolicyKind::Lru, &t).miss_ratio();
    let bip = sweep::simulate(config(), PolicyKind::Bip { throttle: 32 }, &t).miss_ratio();
    let dip = run_dip(&t).miss_ratio();
    assert!(lru > 0.95, "LRU thrashes: {lru}");
    assert!(bip < 0.5, "BIP resists: {bip}");
    // DIP must land near BIP, far below LRU (leader sets still pay the
    // LRU price, so allow some slack above BIP).
    assert!(
        dip < 0.6,
        "DIP failed to adapt: {dip} (BIP {bip}, LRU {lru})"
    );
}

#[test]
fn dip_follows_lru_on_reuse_friendly_workloads() {
    let t = workload("stack_geo");
    let lru = sweep::simulate(config(), PolicyKind::Lru, &t).miss_ratio();
    let bip = sweep::simulate(config(), PolicyKind::Bip { throttle: 32 }, &t).miss_ratio();
    let dip = run_dip(&t).miss_ratio();
    assert!(bip > lru, "premise: LRU wins here ({lru} vs {bip})");
    assert!(
        dip < lru + (bip - lru) * 0.5,
        "DIP should track LRU: DIP {dip}, LRU {lru}, BIP {bip}"
    );
}

#[test]
fn drrip_is_never_far_from_the_better_component() {
    for name in ["thrash_loop", "zipf_hot", "stack_geo"] {
        let t = workload(name);
        let srrip = sweep::simulate(config(), PolicyKind::Srrip { bits: 2 }, &t).miss_ratio();
        let brrip = sweep::simulate(
            config(),
            PolicyKind::Brrip {
                bits: 2,
                throttle: 32,
            },
            &t,
        )
        .miss_ratio();
        let drrip = run_drrip(&t).miss_ratio();
        let best = srrip.min(brrip);
        let worst = srrip.max(brrip);
        assert!(
            drrip <= best + (worst - best) * 0.6 + 0.02,
            "{name}: DRRIP {drrip} vs SRRIP {srrip} / BRRIP {brrip}"
        );
    }
}

#[test]
fn dip_psel_moves_in_the_expected_direction() {
    // A thrashing trace drives PSEL positive (LRU leaders missing).
    let family = DuelFamily::new(PolicyKind::Bip { throttle: 32 }, 8, config().num_sets(), 1);
    let mut cache = Cache::with_policy_factory(config(), "DIP", |set| family.policy_for_set(set));
    cache.run_trace(workload("thrash_loop").iter().copied().take(50_000));
    assert!(
        family.duel().psel() > 0,
        "PSEL = {} after thrashing",
        family.duel().psel()
    );
}

#[test]
fn a_sixteen_set_duel_moves_psel_both_ways() {
    // Under 32 sets a duel still gets a leader of each kind (sets 0 and
    // 8 here), so PSEL can fall as well as rise. Scans of fresh lines
    // over three times the capacity alternate with loops over half of
    // it, which the two leaders miss on in turn.
    let sets = 16;
    let config = CacheConfig::new(sets * 8 * LINE, 8, LINE).unwrap();
    let family = DuelFamily::new(PolicyKind::Bip { throttle: 32 }, 8, sets, 0xD1B);
    let mut cache = Cache::with_policy_factory(config, "DIP", |set| family.policy_for_set(set));
    let lines = sets * 8;
    let phase_len = 3 * lines;
    let (mut low, mut high) = (0, 0);
    for step in 0..40_000u64 {
        let (phase, offset) = (step / phase_len, step % phase_len);
        let line = if phase.is_multiple_of(2) {
            lines * (1 + 3 * phase) + offset
        } else {
            offset % (lines / 2)
        };
        cache.access(line * LINE);
        let psel = family.duel().psel();
        (low, high) = (low.min(psel), high.max(psel));
    }
    assert!(low < 0 && high > 0, "PSEL stayed within {low}..={high}");
}
