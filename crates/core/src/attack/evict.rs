//! Policy-aware eviction-set construction.
//!
//! Given an inferred policy — a [`PermutationSpec`] from the permutation
//! pipeline or a learned [`Mealy`] machine from the automata backend —
//! construct the *shortest* access sequence guaranteed to evict a target
//! line from its set, together with the warm-up that reproduces the
//! assumed starting state. Shortest-path construction buys minimality
//! for free: no subsequence of a shortest eviction word can evict the
//! target, so dropping any single access breaks the set (the property
//! `tests/eviction_sets.rs` verifies against the simulator).

use crate::automata::{template_machine, Mealy};
use crate::infer::sets::{find_eviction_set, EvictionSetError};
use crate::infer::{CacheOracle, Finding};
use crate::perm::{derive_permutation_spec, PermutationSpec};
use cachekit_policies::PolicyKind;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Line-index base of the scratch lines used by the homing/canonizing
/// preamble, and of the always-fresh eviction traffic. Mirrors the
/// automata learner's address plan: scratch, tracked and fresh lines
/// occupy disjoint index ranges of the same set, so no plan access can
/// alias another.
const SCRATCH_BASE: u64 = 500;
/// Line-index base of fresh (never re-referenced) lines.
const FRESH_BASE: u64 = 1000;

/// Why an eviction set could not be constructed or reduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The policy is stochastic: no bounded access sequence evicts the
    /// target with certainty, so the constructor refuses instead of
    /// emitting a sequence that only usually works.
    NotDeterministic {
        /// Display label of the offending policy.
        policy: String,
    },
    /// The policy has no faithful finite model to plan over (no
    /// permutation spec and no representable template machine).
    NoModel {
        /// Display label of the offending policy.
        policy: String,
    },
    /// The search exhausted the model without reaching an evicting
    /// state — the model claims the target can never be evicted by
    /// attacker accesses alone.
    NoEvictionPath {
        /// States explored before giving up.
        states: usize,
    },
    /// Group-testing reduction failed: the candidate set does not evict
    /// the target, or no group could be removed while preserving
    /// eviction.
    ReductionFailed {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NotDeterministic { policy } => {
                write!(f, "{policy} is stochastic: no guaranteed eviction sequence")
            }
            AttackError::NoModel { policy } => {
                write!(f, "{policy} has no finite model to plan an eviction over")
            }
            AttackError::NoEvictionPath { states } => {
                write!(f, "no evicting state reachable ({states} states explored)")
            }
            AttackError::ReductionFailed { reason } => {
                write!(f, "group-testing reduction failed: {reason}")
            }
        }
    }
}

impl Error for AttackError {}

/// A concrete, minimal plan to evict one target line from its cache
/// set, produced by [`eviction_set_for_spec`], [`eviction_set_for_machine`],
/// [`eviction_set_for_finding`] or [`eviction_set_for_kind`].
///
/// All addresses are multiples of the congruence `stride` (the distance
/// between two lines mapping to the same set), so the whole plan stays
/// inside one set. Soundness means: after `preparation` (which homes the
/// set and installs the target) the accesses in `accesses` evict
/// `target`; minimality means no shorter attacker sequence can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionSet {
    /// The victim line the plan evicts.
    pub target: u64,
    /// Warm-up establishing the assumed start state: fills the set with
    /// attacker lines, then installs the target.
    pub preparation: Vec<u64>,
    /// The minimal attacker access sequence that evicts the target.
    pub accesses: Vec<u64>,
    /// Accesses in `accesses` that miss (the attacker's self-noise).
    pub attacker_misses: usize,
    /// Accesses in `accesses` that hit (free maintenance accesses).
    pub attacker_hits: usize,
}

impl EvictionSet {
    /// Length of the eviction sequence.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the sequence is empty (never true for a valid plan: the
    /// installing miss leaves the target resident).
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Check the plan against a black-box oracle: run the preparation
    /// and the eviction sequence as warm-up, probe the target, and
    /// report whether the target missed (was evicted).
    pub fn confirms_on<O: CacheOracle + ?Sized>(&self, oracle: &mut O) -> bool {
        let mut warmup = self.preparation.clone();
        warmup.extend_from_slice(&self.accesses);
        oracle.measure(&warmup, &[self.target]) == 1
    }
}

/// One abstract move of the eviction plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Access the line currently at priority position `j` (a hit).
    Hit(usize),
    /// Access a never-before-seen line (a miss).
    Fresh,
}

/// Shortest move sequence that drives the target's priority position
/// from the insertion position to eviction. The state space is the
/// target's position (`0..assoc`) plus an "evicted" goal; BFS over it
/// returns a globally shortest sequence, hence a minimal one.
fn plan_for_spec(spec: &PermutationSpec) -> Vec<Move> {
    let assoc = spec.associativity();
    let insertion = spec.insertion_position();
    let evicted = assoc; // goal pseudo-position
    let mut parent: Vec<Option<(usize, Move)>> = vec![None; assoc + 1];
    let mut seen = vec![false; assoc + 1];
    let mut queue = VecDeque::new();
    seen[insertion] = true;
    queue.push_back(insertion);
    'bfs: while let Some(pos) = queue.pop_front() {
        let mut moves: Vec<(usize, Move)> = Vec::with_capacity(assoc);
        // A fresh miss evicts the last position and shifts the positions
        // at or past the insertion point down by one.
        let next = if pos == assoc - 1 {
            evicted
        } else if pos >= insertion {
            pos + 1
        } else {
            pos
        };
        moves.push((next, Move::Fresh));
        // A hit at any other position reorders by that position's
        // permutation.
        for j in (0..assoc).filter(|&j| j != pos) {
            moves.push((spec.hit_permutation(j).image(pos), Move::Hit(j)));
        }
        for (next, mv) in moves {
            if !seen[next] {
                seen[next] = true;
                parent[next] = Some((pos, mv));
                if next == evicted {
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
    }
    // Eviction is always reachable for a permutation policy: misses
    // alone walk the target back to the last position.
    assert!(seen[evicted], "permutation spec with unreachable eviction");
    let mut moves = Vec::new();
    let mut at = evicted;
    while let Some((prev, mv)) = parent[at] {
        moves.push(mv);
        at = prev;
        if at == insertion && moves.len() > assoc * assoc {
            break;
        }
    }
    moves.reverse();
    moves
}

/// Build the minimal eviction plan for a validated permutation spec.
///
/// `stride` is the congruence stride of the targeted set (the byte
/// distance between two lines that map to it): the target is line `0`,
/// every other plan line is a distinct multiple of `stride`.
///
/// The permutation abstraction models the *steady state* of a full set;
/// the cold-fill transient is explicitly outside the class (tree-PLRU
/// really does fill differently than it replaces), and on real hardware
/// a flush drops contents but not replacement state. The preparation
/// therefore canonizes instead of assuming: `assoc` scratch fills make
/// the set full, then — for a front-insertion spec — `assoc` fresh
/// misses leave a *known* order (each miss inserts at the front, so the
/// last `assoc` insertions in reverse), and the target's installing
/// miss starts the plan from a fully known state. For a non-front
/// spec (insertion position `p > 0`) no access sequence pins the
/// protected positions from the outside, so the plan is the guaranteed
/// miss sweep — `assoc - p` fresh misses walk the target out — which is
/// minimal among plans that never touch the unobservable front segment.
pub fn eviction_set_for_spec(spec: &PermutationSpec, stride: u64) -> EvictionSet {
    let assoc = spec.associativity();
    let insertion = spec.insertion_position();
    let target = 0u64;
    let mut fresh = FRESH_BASE;
    let mut next_fresh = || {
        let a = fresh * stride;
        fresh += 1;
        a
    };
    let mut preparation: Vec<u64> = (0..assoc as u64)
        .map(|i| (SCRATCH_BASE + i) * stride)
        .collect();
    if insertion != 0 {
        preparation.push(target);
        let accesses: Vec<u64> = (0..assoc - insertion).map(|_| next_fresh()).collect();
        let attacker_misses = accesses.len();
        return EvictionSet {
            target,
            preparation,
            accesses,
            attacker_misses,
            attacker_hits: 0,
        };
    }
    // Canonizing misses: after these the priority order is known exactly
    // — most recent insertion at the front.
    let canon: Vec<u64> = (0..assoc).map(|_| next_fresh()).collect();
    preparation.extend_from_slice(&canon);
    let mut order: Vec<u64> = canon.iter().rev().copied().collect();
    spec.apply_miss(&mut order, target);
    preparation.push(target);

    // Replay the abstract plan on the known order, resolving "hit the
    // line at position j" to the concrete address sitting there.
    let mut accesses = Vec::new();
    let mut attacker_misses = 0;
    let mut attacker_hits = 0;
    for mv in plan_for_spec(spec) {
        match mv {
            Move::Hit(j) => {
                debug_assert_ne!(order[j], target, "planned a hit on the target");
                accesses.push(order[j]);
                spec.apply_hit(&mut order, j);
                attacker_hits += 1;
            }
            Move::Fresh => {
                let a = next_fresh();
                spec.apply_miss(&mut order, a);
                accesses.push(a);
                attacker_misses += 1;
            }
        }
    }
    debug_assert!(!order.contains(&target), "plan failed to evict the target");
    EvictionSet {
        target,
        preparation,
        accesses,
        attacker_misses,
        attacker_hits,
    }
}

/// Build the minimal eviction plan from a learned Mealy machine over the
/// automata backend's abstract alphabet (tracked symbols plus an
/// always-fresh one). The machine's initial state is the homed set, so
/// `assoc` scratch fills plus the target's installing access reproduce
/// the planning start state; BFS over machine states then finds the
/// shortest attacker word after which the target misses.
///
/// # Errors
///
/// [`AttackError::NoEvictionPath`] when no reachable state reports the
/// target evicted — the machine claims attacker accesses cannot displace
/// the target (a learned-model artifact worth surfacing, not hiding).
pub fn eviction_set_for_machine(
    machine: &Mealy,
    assoc: usize,
    stride: u64,
) -> Result<EvictionSet, AttackError> {
    let alphabet = machine.alphabet();
    let tracked = alphabet - 1;
    let target_sym = 0u8;
    // Attacker symbols: the non-target tracked lines plus the fresh one.
    let symbols: Vec<u8> = (1..alphabet as u8).collect();
    let start = machine.state_after(&[target_sym]);
    let mut parent: Vec<Option<(usize, u8)>> = vec![None; machine.states()];
    let mut seen = vec![false; machine.states()];
    let mut queue = VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut goal = None;
    'bfs: while let Some(state) = queue.pop_front() {
        for &sym in &symbols {
            let next = machine.next(state, sym as usize);
            if !seen[next] {
                seen[next] = true;
                parent[next] = Some((state, sym));
                if !machine.output(next, target_sym as usize) {
                    goal = Some(next);
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
    }
    // The start state itself can already report the target absent only
    // if the installing access misbehaved; treat it as unreachable.
    let Some(goal) = goal else {
        return Err(AttackError::NoEvictionPath {
            states: seen.iter().filter(|&&s| s).count(),
        });
    };
    let mut word = Vec::new();
    let mut at = goal;
    while let Some((prev, sym)) = parent[at] {
        word.push(sym);
        at = prev;
        if at == start {
            break;
        }
    }
    word.reverse();

    // Realize the word with the learner's own address plan: tracked
    // symbol `s` is the reused attacker line `s * stride`, the fresh
    // symbol is a new line per access, and the homing preamble's scratch
    // lines live in their own range — the exact warm-up discipline the
    // machine was learned under, so its initial state is reproduced even
    // though a flush keeps the replacement state.
    let target = 0u64;
    let tracked_addr = |sym: u8| sym as u64 * stride;
    let mut fresh = FRESH_BASE;
    let mut next_fresh = || {
        let a = fresh * stride;
        fresh += 1;
        a
    };
    let mut preparation: Vec<u64> = (0..assoc as u64)
        .map(|i| (SCRATCH_BASE + i) * stride)
        .collect();
    preparation.push(target);
    let mut accesses = Vec::with_capacity(word.len());
    let mut attacker_misses = 0;
    let mut attacker_hits = 0;
    let mut state = start;
    for &sym in &word {
        if machine.output(state, sym as usize) {
            attacker_hits += 1;
        } else {
            attacker_misses += 1;
        }
        accesses.push(if (sym as usize) < tracked {
            tracked_addr(sym)
        } else {
            next_fresh()
        });
        state = machine.next(state, sym as usize);
    }
    Ok(EvictionSet {
        target,
        preparation,
        accesses,
        attacker_misses,
        attacker_hits,
    })
}

/// Build the eviction plan from engine evidence: permutation findings
/// plan over their spec, automata findings over their learned machine.
///
/// # Errors
///
/// Propagates [`eviction_set_for_machine`]'s errors for automata
/// evidence.
pub fn eviction_set_for_finding(
    finding: &Finding,
    stride: u64,
) -> Result<EvictionSet, AttackError> {
    match finding {
        Finding::Permutation(report) => Ok(eviction_set_for_spec(&report.spec, stride)),
        Finding::Automaton(report) => {
            eviction_set_for_machine(&report.machine, report.geometry.associativity, stride)
        }
    }
}

/// Pre-minimization state cap handed to the template builder when
/// planning from a policy kind.
const KIND_TEMPLATE_STATES: usize = 1 << 20;

/// Build the eviction plan for a known policy kind: permutation-class
/// kinds plan over their derived spec, the other deterministic kinds
/// over their reference template machine.
///
/// # Errors
///
/// [`AttackError::NotDeterministic`] for stochastic kinds (no bounded
/// sequence is guaranteed), [`AttackError::NoModel`] when no template is
/// representable, and [`eviction_set_for_machine`]'s errors otherwise.
pub fn eviction_set_for_kind(
    kind: PolicyKind,
    assoc: usize,
    stride: u64,
) -> Result<EvictionSet, AttackError> {
    if !kind.is_deterministic() {
        return Err(AttackError::NotDeterministic {
            policy: kind.label(),
        });
    }
    if let Ok(spec) = derive_permutation_spec(Box::new(kind.build_state(assoc, 0))) {
        return Ok(eviction_set_for_spec(&spec, stride));
    }
    let machine = template_machine(kind, assoc, 2, KIND_TEMPLATE_STATES).ok_or_else(|| {
        AttackError::NoModel {
            policy: kind.label(),
        }
    })?;
    eviction_set_for_machine(&machine, assoc, stride)
}

/// Reduce a candidate superset to a minimal eviction set for `target`
/// by group testing (the "Theory and Practice of Finding Eviction Sets"
/// reduction): [`find_eviction_set`] with `assoc + 1` groups and one
/// measurement per test. The candidates may hold lines of other sets;
/// with `assoc + 1` parts one part always holds no needed line, so the
/// reduction ends at exactly the `assoc` congruent lines on an LRU-like
/// channel.
///
/// The eviction test is black-box: warm the target and the current set,
/// then probe the target — a miss means the set evicted it.
///
/// # Errors
///
/// [`AttackError::ReductionFailed`] when there are fewer candidates than
/// ways, the candidates do not evict the target, or the reduction stalls
/// (a policy whose eviction behaviour is not monotone in the set can
/// defeat it; the error reports it instead of looping).
pub fn reduce_candidates<O: CacheOracle + ?Sized>(
    oracle: &mut O,
    target: u64,
    candidates: &[u64],
    assoc: usize,
) -> Result<Vec<u64>, AttackError> {
    assert!(assoc >= 1, "associativity must be at least 1");
    if candidates.len() < assoc {
        return Err(AttackError::ReductionFailed {
            reason: format!("{} candidates cannot cover {assoc} ways", candidates.len()),
        });
    }
    find_eviction_set(oracle, target, candidates, assoc + 1, 1).map_err(|e| {
        AttackError::ReductionFailed {
            reason: match e {
                EvictionSetError::PoolDoesNotConflict => {
                    "candidate set does not evict the target".into()
                }
                stuck => stuck.to_string(),
            },
        }
    })
}
