//! Dynamic insertion policies with set dueling (Qureshi et al., ISCA
//! 2007; Jaleel et al., ISCA 2010).
//!
//! DIP picks between LRU insertion and BIP insertion *at run time*: a few
//! "leader" sets permanently run each component policy and their misses
//! update a shared saturating counter (PSEL); all other sets follow the
//! currently winning component. DRRIP does the same for SRRIP vs BRRIP.
//!
//! Set dueling needs *cross-set* state, which the per-set
//! [`ReplacementPolicy`] interface deliberately does not provide — so the
//! families here hand out per-set policy instances that share a PSEL
//! through an [`Arc`]. Build a dueling cache with
//! `Cache::with_policy_factory(cfg, label, |set| family.policy_for_set(set))`.

use crate::recency::RecencyStack;
use crate::rng::Prng;
use crate::{check_assoc, AgePolicy, PolicyKind, ReplacementPolicy};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// Shared policy-selection counter (PSEL) plus dueling constants.
#[derive(Debug)]
pub struct DuelState {
    /// Saturating counter: positive = the "bimodal" component is winning.
    psel: AtomicI32,
    max: i32,
}

impl DuelState {
    fn new(max: i32) -> Arc<Self> {
        Arc::new(Self {
            psel: AtomicI32::new(0),
            max,
        })
    }

    /// A miss in a leader set of the *baseline* component (evidence for
    /// the bimodal component).
    fn baseline_missed(&self) {
        let _ = self
            .psel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v < self.max).then_some(v + 1)
            });
    }

    /// A miss in a leader set of the *bimodal* component.
    fn bimodal_missed(&self) {
        let _ = self
            .psel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v > -self.max).then_some(v - 1)
            });
    }

    /// Whether followers should currently use the bimodal component.
    pub fn bimodal_wins(&self) -> bool {
        self.psel.load(Ordering::Relaxed) > 0
    }

    /// Raw PSEL value (for inspection and tests).
    pub fn psel(&self) -> i32 {
        self.psel.load(Ordering::Relaxed)
    }
}

/// The role a set plays in the duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Always runs the baseline component and reports its misses.
    BaselineLeader,
    /// Always runs the bimodal component and reports its misses.
    BimodalLeader,
    /// Follows whichever component is winning.
    Follower,
}

/// Leader assignment: every `period`-th set leads for the baseline, and
/// every `period`-th offset by `period / 2` leads for the bimodal
/// component (the "static simple" dueling layout).
fn role_of(set: u64, period: u64) -> Role {
    if set.is_multiple_of(period) {
        Role::BaselineLeader
    } else if set % period == period / 2 {
        Role::BimodalLeader
    } else {
        Role::Follower
    }
}

/// Factory for DIP (LRU vs BIP) policies sharing one PSEL.
///
/// # Example
///
/// ```
/// use cachekit_policies::DipFamily;
///
/// let family = DipFamily::new(4, 32, 0x5eed);
/// let _set0 = family.policy_for_set(0); // LRU leader
/// let _set16 = family.policy_for_set(16); // BIP leader
/// let _set3 = family.policy_for_set(3); // follower
/// ```
#[derive(Debug, Clone)]
pub struct DipFamily {
    assoc: usize,
    throttle: u32,
    seed: u64,
    duel: Arc<DuelState>,
    period: u64,
}

impl DipFamily {
    /// Create a DIP family for `assoc`-way sets with BIP throttle
    /// `1/throttle`.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is invalid or `throttle` is 0.
    pub fn new(assoc: usize, throttle: u32, seed: u64) -> Self {
        check_assoc(assoc);
        assert!(throttle >= 1, "throttle must be at least 1");
        Self {
            assoc,
            throttle,
            seed,
            duel: DuelState::new(512),
            period: 32,
        }
    }

    /// The shared duel state (for inspection and tests).
    pub fn duel(&self) -> &Arc<DuelState> {
        &self.duel
    }

    /// Build the policy instance for set `set`.
    pub fn policy_for_set(&self, set: u64) -> Box<dyn ReplacementPolicy> {
        Box::new(Dip {
            stack: RecencyStack::new(self.assoc),
            role: role_of(set, self.period),
            duel: Arc::clone(&self.duel),
            throttle: self.throttle,
            rng: Prng::seed_from_u64(self.seed ^ set.wrapping_mul(0x9e37)),
            seed: self.seed ^ set.wrapping_mul(0x9e37),
        })
    }
}

/// One set's DIP policy (produced by [`DipFamily`]).
#[derive(Debug, Clone)]
pub struct Dip {
    stack: RecencyStack,
    role: Role,
    duel: Arc<DuelState>,
    throttle: u32,
    rng: Prng,
    seed: u64,
}

impl Dip {
    fn use_bip(&self) -> bool {
        match self.role {
            Role::BaselineLeader => false,
            Role::BimodalLeader => true,
            Role::Follower => self.duel.bimodal_wins(),
        }
    }
}

impl ReplacementPolicy for Dip {
    fn associativity(&self) -> usize {
        self.stack.assoc()
    }

    fn name(&self) -> String {
        format!("DIP-1/{}", self.throttle)
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.stack.most_recent(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.stack.lru_way()
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        // A fill means this set just missed: leaders vote.
        match self.role {
            Role::BaselineLeader => self.duel.baseline_missed(),
            Role::BimodalLeader => self.duel.bimodal_missed(),
            Role::Follower => {}
        }
        if self.use_bip() && !self.rng.gen_ratio(1, self.throttle) {
            self.stack.least_recent(way);
        } else {
            self.stack.most_recent(way);
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.stack.least_recent(way);
    }

    fn reset(&mut self) {
        self.stack.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.stack.key()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.stack.write_key(out);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

/// Factory for DRRIP (SRRIP vs BRRIP) policies sharing one PSEL.
#[derive(Debug, Clone)]
pub struct DrripFamily {
    assoc: usize,
    bits: u8,
    throttle: u32,
    seed: u64,
    duel: Arc<DuelState>,
    period: u64,
}

impl DrripFamily {
    /// Create a DRRIP family with `bits`-wide RRPVs and BRRIP throttle
    /// `1/throttle`.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 128, if `bits` is outside
    /// `1..=7` or if `throttle` is 0.
    pub fn new(assoc: usize, bits: u8, throttle: u32, seed: u64) -> Self {
        check_assoc(assoc);
        assert!((1..=7).contains(&bits), "RRPV width must be 1..=7 bits");
        assert!(throttle >= 1, "throttle must be at least 1");
        Self {
            assoc,
            bits,
            throttle,
            seed,
            duel: DuelState::new(512),
            period: 32,
        }
    }

    /// The shared duel state (for inspection and tests).
    pub fn duel(&self) -> &Arc<DuelState> {
        &self.duel
    }

    /// Build the policy instance for set `set`.
    pub fn policy_for_set(&self, set: u64) -> Box<dyn ReplacementPolicy> {
        Box::new(Drrip {
            inner: AgePolicy::new(PolicyKind::Srrip { bits: self.bits }, self.assoc),
            role: role_of(set, self.period),
            duel: Arc::clone(&self.duel),
            throttle: self.throttle,
            rng: Prng::seed_from_u64(self.seed ^ set.wrapping_mul(0x9e37)),
            seed: self.seed ^ set.wrapping_mul(0x9e37),
        })
    }
}

/// One set's DRRIP policy (produced by [`DrripFamily`]).
#[derive(Debug, Clone)]
pub struct Drrip {
    inner: AgePolicy,
    role: Role,
    duel: Arc<DuelState>,
    throttle: u32,
    rng: Prng,
    seed: u64,
}

impl ReplacementPolicy for Drrip {
    fn associativity(&self) -> usize {
        self.inner.associativity()
    }

    fn name(&self) -> String {
        "DRRIP".to_owned()
    }

    #[inline]
    fn on_hit(&mut self, way: usize) {
        self.inner.on_hit(way);
    }

    #[inline]
    fn victim(&mut self) -> usize {
        self.inner.victim()
    }

    #[inline]
    fn on_fill(&mut self, way: usize) {
        match self.role {
            Role::BaselineLeader => self.duel.baseline_missed(),
            Role::BimodalLeader => self.duel.bimodal_missed(),
            Role::Follower => {}
        }
        let use_brrip = match self.role {
            Role::BaselineLeader => false,
            Role::BimodalLeader => true,
            Role::Follower => self.duel.bimodal_wins(),
        };
        if use_brrip && !self.rng.gen_ratio(1, self.throttle) {
            // Distant insertion (BRRIP's common case).
            self.inner.fill_distant(way);
        } else {
            self.inner.on_fill(way);
        }
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        self.inner.on_invalidate(way);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rng = Prng::seed_from_u64(self.seed);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn state_key(&self) -> Vec<u8> {
        self.inner.state_key()
    }

    fn write_state_key(&self, out: &mut Vec<u8>) {
        self.inner.write_state_key(out);
    }

    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaders_vote_followers_follow() {
        let family = DipFamily::new(4, 32, 7);
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
        let family = DipFamily::new(2, 2, 0);
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
            match role_of(set, 32) {
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
        let family = DipFamily::new(4, 32, 9);
        for set in [0u64, 3, 16] {
            cachekit_policies_conformance(family.policy_for_set(set));
        }
        let drrip = DrripFamily::new(4, 2, 32, 9);
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
        let family = DrripFamily::new(4, 2, 32, 1);
        let mut leader = family.policy_for_set(0);
        for w in 0..4 {
            leader.on_fill(w);
        }
        assert!(family.duel().psel() > 0);
    }
}
