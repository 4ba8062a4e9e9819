//! The bimodal policies: BIP (Qureshi et al., ISCA 2007) and BRRIP
//! (Jaleel et al., ISCA 2010), and their set duels DIP and DRRIP.
//!
//! Each is one [`Bimodal`] driven by the base kind and throttle that
//! `PolicyKind::bimodal_rule` defines: a fill is, except with
//! probability `1/throttle`, the base's invalidation step, so a new line
//! starts where the base would evict it next. A duel adds a role: a few
//! leader sets always run the base or the bimodal fill and vote with
//! their misses on one shared saturating counter (PSEL), and every other
//! set follows the side that is winning.
//!
//! The duel needs state shared *across* sets, which the per-set
//! [`ReplacementPolicy`] interface deliberately does not provide, so a
//! [`DuelFamily`] hands out per-set policies that share a PSEL through an
//! [`Arc`]. Build a dueling cache with
//! `Cache::with_policy_factory(cfg, label, |set| family.policy_for_set(set))`.

use crate::rng::Prng;
use crate::{PolicyKind, PolicyState, ReplacementPolicy};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// PSEL saturates at plus or minus this.
const PSEL_MAX: i32 = 512;

/// One set in this many leads for each side of a duel.
const LEADER_PERIOD: u64 = 32;

/// Shared policy-selection counter (PSEL) of a duel.
#[derive(Debug)]
pub struct DuelState {
    /// Saturating counter: positive = the bimodal side is winning.
    psel: AtomicI32,
}

impl DuelState {
    /// Add `delta` to PSEL unless that leaves `-PSEL_MAX..=PSEL_MAX`.
    fn vote(&self, delta: i32) {
        let _ = self
            .psel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v + delta).filter(|p| p.abs() <= PSEL_MAX)
            });
    }

    /// Whether followers should currently use the bimodal fill.
    pub fn bimodal_wins(&self) -> bool {
        self.psel() > 0
    }

    /// Raw PSEL value (for inspection and tests).
    pub fn psel(&self) -> i32 {
        self.psel.load(Ordering::Relaxed)
    }
}

/// The role a set plays in a duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Always fills as the base does, and a miss votes for the bimodal
    /// side.
    BaselineLeader,
    /// Always fills bimodally, and a miss votes for the base.
    BimodalLeader,
    /// Fills as whichever side is winning.
    Follower,
}

/// Leader assignment: every `LEADER_PERIOD`-th set leads for the base,
/// and every `LEADER_PERIOD`-th offset by half the period for the
/// bimodal side (the "static simple" dueling layout).
fn role_of(set: u64) -> Role {
    if set.is_multiple_of(LEADER_PERIOD) {
        Role::BaselineLeader
    } else if set % LEADER_PERIOD == LEADER_PERIOD / 2 {
        Role::BimodalLeader
    } else {
        Role::Follower
    }
}

/// BIP-1/t or BRRIP-k-1/t, alone or as one set of a DIP or DRRIP duel:
/// the base policy of the kind's `bimodal_rule` with a bimodal fill.
///
/// Build a lone one with [`PolicyKind::build_state`] and a duel's sets
/// with a [`DuelFamily`]. Stochastic, hence not a permutation policy:
/// the reverse-engineering pipeline in `cachekit-core` must reject it
/// (its measurements are not reproducible), which makes it a useful
/// negative test input.
///
/// # Example
///
/// ```
/// use cachekit_policies::{PolicyKind, ReplacementPolicy};
///
/// // BRRIP-2-1/32 usually fills at SRRIP-2's distant age 3, where
/// // SRRIP-2 itself fills at 2.
/// let mut p = PolicyKind::Brrip { bits: 2, throttle: 32 }.build_state(4, 0);
/// p.on_fill(0);
/// assert_eq!(p.name(), "BRRIP-2-1/32");
/// assert_eq!(p.state_key(), vec![3, 3, 3, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    base: PolicyState,
    kind: PolicyKind,
    throttle: u32,
    rng: Prng,
    seed: u64,
    duel: Option<(Role, Arc<DuelState>)>,
}

impl Bimodal {
    /// A lone policy of the bimodal `kind` at `assoc` ways, its RNG
    /// seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a bimodal kind, or as
    /// [`PolicyKind::build_state`] does for its base.
    pub(crate) fn new(kind: PolicyKind, assoc: usize, seed: u64) -> Self {
        Self::with_duel(kind, assoc, seed, None)
    }

    fn with_duel(
        kind: PolicyKind,
        assoc: usize,
        seed: u64,
        duel: Option<(Role, Arc<DuelState>)>,
    ) -> Self {
        let (base, throttle) = kind
            .bimodal_rule()
            .unwrap_or_else(|| panic!("{kind:?} is not a bimodal kind"));
        Self {
            base: base.build_state(assoc, 0),
            kind,
            throttle,
            rng: Prng::seed_from_u64(seed),
            seed,
            duel,
        }
    }
}

// The event methods stay out of line: the base is a `PolicyState`, so
// inlined into `PolicyState`'s own dispatch they would make it
// recursive and lengthen every other kind's access path. Inlined, the
// best per-access times of LRU, PLRU, NRU, SRRIP-2 and CLOCK at 4 and
// 8 ways read 4–29% above the unmerged policies' on a 2-vCPU VM; out
// of line, within 3.5%.
impl ReplacementPolicy for Bimodal {
    fn associativity(&self) -> usize {
        self.base.associativity()
    }

    fn name(&self) -> String {
        match (&self.duel, self.kind) {
            (None, kind) => kind.label(),
            (Some(_), PolicyKind::Bip { throttle }) => format!("DIP-1/{throttle}"),
            (Some(_), _) => "DRRIP".to_owned(),
        }
    }

    #[inline(never)]
    fn on_hit(&mut self, way: usize) {
        self.base.on_hit(way);
    }

    #[inline(never)]
    fn victim(&mut self) -> usize {
        self.base.victim()
    }

    #[inline(never)]
    fn on_fill(&mut self, way: usize) {
        // A fill means this set just missed: a duel's leader votes first.
        let bimodal = match &self.duel {
            None => true,
            Some((Role::BaselineLeader, duel)) => {
                duel.vote(1);
                false
            }
            Some((Role::BimodalLeader, duel)) => {
                duel.vote(-1);
                true
            }
            Some((Role::Follower, duel)) => duel.bimodal_wins(),
        };
        if bimodal && !self.rng.gen_ratio(1, self.throttle) {
            self.base.on_invalidate(way);
        } else {
            self.base.on_fill(way);
        }
    }

    #[inline(never)]
    fn on_invalidate(&mut self, way: usize) {
        self.base.on_invalidate(way);
    }

    /// Reset the base and reseed the RNG; a duel's PSEL is shared by
    /// every set and is left alone.
    fn reset(&mut self) {
        self.base.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.base.state_key()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.base.write_state_key(out);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Factory for the sets of one duel: DIP from a BIP kind (LRU against
/// BIP) or DRRIP from a BRRIP kind (SRRIP against BRRIP), sharing one
/// PSEL.
///
/// # Example
///
/// ```
/// use cachekit_policies::{DuelFamily, PolicyKind, ReplacementPolicy};
///
/// let family = DuelFamily::new(PolicyKind::Bip { throttle: 32 }, 4, 0x5eed);
/// let set0 = family.policy_for_set(0); // LRU leader
/// let _set16 = family.policy_for_set(16); // BIP leader
/// let _set3 = family.policy_for_set(3); // follower
/// assert_eq!(set0.name(), "DIP-1/32");
/// ```
#[derive(Debug, Clone)]
pub struct DuelFamily {
    kind: PolicyKind,
    assoc: usize,
    seed: u64,
    duel: Arc<DuelState>,
}

impl DuelFamily {
    /// A duel between the bimodal `kind` and its base for `assoc`-way
    /// sets; set `s` seeds its RNG with `seed ^ s·0x9e37`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a bimodal kind or
    /// [`PolicyKind::validate_for_assoc`] refuses it at `assoc` ways.
    pub fn new(kind: PolicyKind, assoc: usize, seed: u64) -> Self {
        if let Err(reason) = kind.validate_for_assoc(assoc) {
            panic!("{reason}");
        }
        assert!(
            kind.bimodal_rule().is_some(),
            "{kind:?} is not a bimodal kind"
        );
        Self {
            kind,
            assoc,
            seed,
            duel: Arc::new(DuelState {
                psel: AtomicI32::new(0),
            }),
        }
    }

    /// The shared duel state (for inspection and tests).
    pub fn duel(&self) -> &Arc<DuelState> {
        &self.duel
    }

    /// Build the policy instance for set `set`.
    pub fn policy_for_set(&self, set: u64) -> Box<dyn ReplacementPolicy> {
        Box::new(Bimodal::with_duel(
            self.kind,
            self.assoc,
            self.seed ^ set.wrapping_mul(0x9e37),
            Some((role_of(set), Arc::clone(&self.duel))),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bip(throttle: u32) -> PolicyKind {
        PolicyKind::Bip { throttle }
    }

    fn brrip(bits: u8, throttle: u32) -> PolicyKind {
        PolicyKind::Brrip { bits, throttle }
    }

    #[test]
    fn throttle_one_behaves_like_lru_insertion() {
        let mut p = Bimodal::new(bip(1), 3, 7);
        for w in 0..3 {
            p.on_fill(w);
        }
        // Every insertion went to MRU, so fill order is recency order.
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn mostly_inserts_at_lru() {
        let mut p = Bimodal::new(bip(32), 4, 42);
        for w in 0..4 {
            p.on_fill(w);
        }
        // Count how often a fresh fill is the next victim (LRU insertion).
        let mut lru_insertions = 0;
        let trials = 1000;
        for _ in 0..trials {
            let v = p.victim();
            p.on_fill(v);
            if p.victim() == v {
                lru_insertions += 1;
            }
        }
        assert!(
            lru_insertions > trials * 9 / 10,
            "expected >90% LRU insertions, got {lru_insertions}/{trials}"
        );
    }

    #[test]
    fn reset_reseeds_rng() {
        let mut a = Bimodal::new(bip(2), 4, 9);
        let mut decisions = Vec::new();
        for _ in 0..32 {
            let v = a.victim();
            a.on_fill(v);
            decisions.push(a.state_key());
        }
        a.reset();
        for d in &decisions {
            let v = a.victim();
            a.on_fill(v);
            assert_eq!(&a.state_key(), d, "replay after reset must match");
        }
    }

    #[test]
    fn reports_non_deterministic() {
        assert!(!Bimodal::new(bip(2), 2, 0).is_deterministic());
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Bimodal::new(brrip(2, 32), 4, 11);
        for w in 0..4 {
            p.on_fill(w);
        }
        let mut distant = 0;
        let trials = 1000;
        for _ in 0..trials {
            let v = p.victim();
            p.on_fill(v);
            if p.state_key()[v] == 3 {
                distant += 1;
            }
        }
        assert!(distant > trials * 9 / 10, "only {distant}/{trials} distant");
    }

    #[test]
    fn brrip_reset_replays() {
        let mut p = Bimodal::new(brrip(2, 2), 4, 5);
        let mut seq = Vec::new();
        for _ in 0..32 {
            let v = p.victim();
            p.on_fill(v);
            seq.push((v, p.state_key()));
        }
        p.reset();
        for (v0, k0) in seq {
            let v = p.victim();
            p.on_fill(v);
            assert_eq!((v, p.state_key()), (v0, k0));
        }
    }

    #[test]
    fn leaders_vote_followers_follow() {
        let family = DuelFamily::new(bip(32), 4, 7);
        let mut lru_leader = family.policy_for_set(0);
        let mut bip_leader = family.policy_for_set(16);
        let mut follower = family.policy_for_set(3);

        // Make the LRU leader miss a lot: PSEL goes positive.
        for w in [0usize, 1, 2, 3, 0, 1, 2, 3] {
            lru_leader.on_fill(w);
        }
        assert!(family.duel().psel() > 0);
        assert!(family.duel().bimodal_wins());

        // Follower now inserts BIP-style: mostly at LRU position.
        for w in 0..4 {
            follower.on_fill(w);
        }
        let mut lru_insertions = 0;
        for _ in 0..200 {
            let v = follower.victim();
            follower.on_fill(v);
            if follower.victim() == v {
                lru_insertions += 1;
            }
        }
        assert!(
            lru_insertions > 150,
            "follower not bimodal: {lru_insertions}"
        );

        // Now the BIP leader misses even more: PSEL swings negative.
        for _ in 0..20 {
            let v = bip_leader.victim();
            bip_leader.on_fill(v);
        }
        assert!(family.duel().psel() < 0);
        assert!(!family.duel().bimodal_wins());
    }

    #[test]
    fn psel_saturates() {
        let family = DuelFamily::new(bip(2), 2, 0);
        let mut leader = family.policy_for_set(0);
        for _ in 0..2000 {
            let v = leader.victim();
            leader.on_fill(v);
        }
        assert_eq!(family.duel().psel(), 512);
    }

    #[test]
    fn roles_partition_the_sets() {
        let mut leaders_a = 0;
        let mut leaders_b = 0;
        let mut followers = 0;
        for set in 0..1024u64 {
            match role_of(set) {
                Role::BaselineLeader => leaders_a += 1,
                Role::BimodalLeader => leaders_b += 1,
                Role::Follower => followers += 1,
            }
        }
        assert_eq!(leaders_a, 32);
        assert_eq!(leaders_b, 32);
        assert_eq!(followers, 1024 - 64);
    }

    #[test]
    fn dip_conforms_to_the_policy_contract() {
        let family = DuelFamily::new(bip(32), 4, 9);
        for set in [0u64, 3, 16] {
            cachekit_policies_conformance(family.policy_for_set(set));
        }
        let drrip = DuelFamily::new(brrip(2, 32), 4, 9);
        for set in [0u64, 3, 16] {
            cachekit_policies_conformance(drrip.policy_for_set(set));
        }
    }

    /// The shared PSEL makes reset non-hermetic across instances, so run
    /// only the per-instance parts of the conformance battery.
    fn cachekit_policies_conformance(mut p: Box<dyn ReplacementPolicy>) {
        let assoc = p.associativity();
        for w in 0..assoc {
            p.on_fill(w);
        }
        for i in 0..200 {
            if i % 3 == 0 {
                p.on_hit(i % assoc);
            } else {
                let v = p.victim();
                assert!(v < assoc);
                p.on_fill(v);
            }
        }
    }

    #[test]
    fn drrip_leader_votes() {
        let family = DuelFamily::new(brrip(2, 32), 4, 1);
        let mut leader = family.policy_for_set(0);
        for w in 0..4 {
            leader.on_fill(w);
        }
        assert!(family.duel().psel() > 0);
    }
}
