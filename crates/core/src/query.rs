//! A membership-query language for cache experiments.
//!
//! The follow-on tooling of the paper (CacheQuery, nanoBench) popularised
//! a tiny language for talking to a cache set: an access sequence over
//! named blocks where some accesses are *measured*. This module provides
//! that language — queries like
//!
//! ```text
//! A B C D  A?  E  A? B?
//! ```
//!
//! ("access A, B, C, D, measure whether A hits, access E, then measure A
//! and B again") — with two interpreters: against a black-box
//! [`CacheOracle`] (one experiment per measured access, exactly how
//! hardware is probed) and against a [`ReplacementPolicy`] directly (the
//! ground-truth simulation used in tests).
//!
//! # Example
//!
//! ```
//! use cachekit_core::query::Query;
//! use cachekit_policies::PolicyKind;
//!
//! let q: Query = "A B C A? B?".parse()?;
//! // 2-way LRU: C evicted A, then A's re-fetch evicted B.
//! let outcome = q.run_policy(&PolicyKind::Lru.build_state(2, 0));
//! assert_eq!(outcome.misses, vec![true, true]);
//! # Ok::<(), cachekit_core::query::ParseQueryError>(())
//! ```

use crate::infer::{measure_voted, CacheOracle, Geometry};
use cachekit_policies::{PolicyState, ReplacementPolicy};
use cachekit_sim::CacheSet;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// One access of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOp {
    /// Block name (an arbitrary identifier; equal names are the same
    /// block).
    pub block: String,
    /// Whether the access's hit/miss outcome is measured.
    pub measured: bool,
}

/// A parsed query: a sequence of accesses over named blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    ops: Vec<QueryOp>,
}

/// Error returned when a query string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseQueryError {
    /// The query contained no accesses.
    Empty,
    /// A token was not an identifier with an optional trailing `?`.
    BadToken(String),
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseQueryError::Empty => write!(f, "query contains no accesses"),
            ParseQueryError::BadToken(t) => write!(f, "bad query token {t:?}"),
        }
    }
}

impl Error for ParseQueryError {}

impl FromStr for Query {
    type Err = ParseQueryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut ops = Vec::new();
        for token in s.split_whitespace() {
            let (name, measured) = match token.strip_suffix('?') {
                Some(rest) => (rest, true),
                None => (token, false),
            };
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(ParseQueryError::BadToken(token.to_owned()));
            }
            ops.push(QueryOp {
                block: name.to_owned(),
                measured,
            });
        }
        if ops.is_empty() {
            return Err(ParseQueryError::Empty);
        }
        Ok(Query { ops })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}{}", op.block, if op.measured { "?" } else { "" })?;
        }
        Ok(())
    }
}

/// The measured outcomes of a query run: one boolean (missed?) per
/// measured access, in query order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// `true` = the measured access missed.
    pub misses: Vec<bool>,
}

impl QueryOutcome {
    /// Render like `"M H M"` (miss/hit per measured access).
    pub fn pattern(&self) -> String {
        self.misses
            .iter()
            .map(|&m| if m { "M" } else { "H" })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Query {
    /// The accesses of the query.
    pub fn ops(&self) -> &[QueryOp] {
        &self.ops
    }

    /// The distinct block names, in order of first appearance.
    pub fn blocks(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if !seen.contains(&op.block.as_str()) {
                seen.push(op.block.as_str());
            }
        }
        seen
    }

    /// Number of measured accesses.
    pub fn measured_count(&self) -> usize {
        self.ops.iter().filter(|op| op.measured).count()
    }

    /// Assign each block a distinct conflicting address in set 0 of
    /// `geometry`.
    fn address_map(&self, geometry: &Geometry) -> HashMap<&str, u64> {
        self.blocks()
            .into_iter()
            .enumerate()
            .map(|(i, b)| (b, geometry.nth_conflict_addr(i as u64)))
            .collect()
    }

    /// Run against a black-box oracle: one experiment per measured access
    /// (the prefix is replayed as warm-up each time, as on hardware).
    pub fn run_oracle<O: CacheOracle>(
        &self,
        oracle: &mut O,
        geometry: &Geometry,
        repetitions: usize,
    ) -> QueryOutcome {
        let addrs = self.address_map(geometry);
        let mut misses = Vec::with_capacity(self.measured_count());
        for (i, op) in self.ops.iter().enumerate() {
            if !op.measured {
                continue;
            }
            let warmup: Vec<u64> = self.ops[..i]
                .iter()
                .map(|o| addrs[o.block.as_str()])
                .collect();
            let probe = [addrs[op.block.as_str()]];
            misses.push(measure_voted(oracle, &warmup, &probe, repetitions) > 0);
        }
        QueryOutcome { misses }
    }

    /// Run against a policy directly (single cache set, ground truth).
    pub fn run_policy(&self, policy: &dyn ReplacementPolicy) -> QueryOutcome {
        let mut set = CacheSet::from_state(PolicyState::from_boxed(policy.boxed_clone()));
        let blocks = self.blocks();
        let id = |name: &str| blocks.iter().position(|&b| b == name).expect("known") as u64;
        let mut misses = Vec::with_capacity(self.measured_count());
        for op in &self.ops {
            let outcome = set.access_tag(id(&op.block));
            if op.measured {
                misses.push(outcome.is_miss());
            }
        }
        QueryOutcome { misses }
    }

    /// Convenience: parse and run against a policy.
    ///
    /// # Errors
    ///
    /// Returns [`ParseQueryError`] for malformed query strings.
    pub fn eval(s: &str, policy: &dyn ReplacementPolicy) -> Result<QueryOutcome, ParseQueryError> {
        Ok(s.parse::<Query>()?.run_policy(policy))
    }

    /// Synthesize a query that distinguishes two policies: the
    /// counterexample access path from the observational-equivalence
    /// check, with the diverging access measured — plus, when the
    /// divergence is only visible in *which* block got evicted (both
    /// policies missed), measured probes of every block touched so far.
    /// Returns `None` if the policies are equivalent on the explored
    /// space (or the budget ran out).
    pub fn distinguishing(
        a: &dyn ReplacementPolicy,
        b: &dyn ReplacementPolicy,
        universe: u64,
        max_states: usize,
    ) -> Option<Query> {
        use crate::perm::{equivalent, EquivalenceResult};
        let cex = match equivalent(a, b, universe, max_states) {
            EquivalenceResult::Diverges(cex) => cex,
            _ => return None,
        };
        let n = cex.accesses.len();
        let mut ops: Vec<QueryOp> = cex
            .accesses
            .iter()
            .enumerate()
            .map(|(i, &block)| QueryOp {
                // Name blocks A, B, C, ... by id.
                block: block_name(block),
                measured: i + 1 == n,
            })
            .collect();
        let plain = Query { ops: ops.clone() };
        if plain.run_policy(a) != plain.run_policy(b) {
            return Some(plain);
        }
        // Hit/miss agreed; the divergence is in the eviction. Probe every
        // block seen so far — the differently-evicted one will split.
        let mut seen = Vec::new();
        for &block in &cex.accesses {
            if !seen.contains(&block) {
                seen.push(block);
            }
        }
        for block in seen {
            ops.push(QueryOp {
                block: block_name(block),
                measured: true,
            });
        }
        let probed = Query { ops };
        debug_assert_ne!(
            probed.run_policy(a),
            probed.run_policy(b),
            "contents diverged, so some probe must split"
        );
        Some(probed)
    }
}

/// Human-readable block name for a numeric id: `A..Z`, then `B1`, `B2`, …
fn block_name(id: u64) -> String {
    if id < 26 {
        char::from(b'A' + id as u8).to_string()
    } else {
        format!("B{id}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::SimOracle;
    use cachekit_policies::{PolicyKind, TreePlru};
    use cachekit_sim::{Cache, CacheConfig};

    #[test]
    fn parse_and_display_round_trip() {
        let q: Query = " A  B C?  A? ".parse().unwrap();
        assert_eq!(q.to_string(), "A B C? A?");
        assert_eq!(q.measured_count(), 2);
        assert_eq!(q.blocks(), vec!["A", "B", "C"]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!("".parse::<Query>(), Err(ParseQueryError::Empty));
        assert!(matches!(
            "A B!".parse::<Query>(),
            Err(ParseQueryError::BadToken(_))
        ));
        assert!(matches!(
            "?".parse::<Query>(),
            Err(ParseQueryError::BadToken(_))
        ));
    }

    #[test]
    fn lru_versus_fifo_distinguishing_query() {
        // The textbook distinguishing experiment as a one-liner:
        // fill, re-touch A, add one more block, ask who survived.
        let q: Query = "A B C A D A? B?".parse().unwrap();
        let lru = q.run_policy(&PolicyKind::Lru.build_state(3, 0));
        let fifo = q.run_policy(&PolicyKind::Fifo.build_state(3, 0));
        // LRU: D evicts B (A was refreshed) -> A hit, B miss.
        assert_eq!(lru.pattern(), "H M");
        // FIFO: D evicts A (oldest fill) -> A miss; re-fetching A evicts
        // B (next oldest) -> B miss.
        assert_eq!(fifo.pattern(), "M M");
    }

    #[test]
    fn plru_anomaly_as_a_query() {
        // PLRU can evict a recently used block: the classic 4-way anomaly.
        let q: Query = "A B C D A E C?".parse().unwrap();
        let plru = q.run_policy(&TreePlru::new(4));
        let lru = q.run_policy(&PolicyKind::Lru.build_state(4, 0));
        assert_eq!(lru.pattern(), "H", "LRU keeps C");
        assert_eq!(plru.pattern(), "M", "PLRU's tree points at C after A E");
    }

    #[test]
    fn oracle_and_policy_interpretations_agree() {
        let cfg = CacheConfig::new(4 * 1024, 4, 64).unwrap();
        let geometry = Geometry {
            line_size: 64,
            capacity: 4 * 1024,
            associativity: 4,
            num_sets: 16,
        };
        for qs in ["A B C D E A? B? C?", "A B A? C B? D E F G A?"] {
            let q: Query = qs.parse().unwrap();
            let mut oracle = SimOracle::new(Cache::new(cfg, PolicyKind::TreePlru));
            let via_oracle = q.run_oracle(&mut oracle, &geometry, 1);
            let via_policy = q.run_policy(&TreePlru::new(4));
            assert_eq!(via_oracle, via_policy, "{qs}");
        }
    }

    #[test]
    fn distinguishing_queries_are_synthesized_and_real() {
        let q = Query::distinguishing(
            &PolicyKind::Lru.build_state(2, 0),
            &PolicyKind::Fifo.build_state(2, 0),
            3,
            100_000,
        )
        .expect("LRU and FIFO differ");
        let lru = q.run_policy(&PolicyKind::Lru.build_state(2, 0));
        let fifo = q.run_policy(&PolicyKind::Fifo.build_state(2, 0));
        assert_ne!(lru, fifo, "query {q} must distinguish");
        assert!(q.measured_count() >= 1);
    }

    #[test]
    fn distinguishing_returns_none_for_equivalent_policies() {
        let q = Query::distinguishing(
            &PolicyKind::Lru.build_state(2, 0),
            &crate::perm::PermutationPolicy::new(
                crate::perm::PermutationSpec::for_kind(PolicyKind::Lru, 2).unwrap(),
            ),
            4,
            100_000,
        );
        assert!(q.is_none());
    }

    #[test]
    fn eval_shortcut_works() {
        let out = Query::eval("A A?", &PolicyKind::Lru.build_state(2, 0)).unwrap();
        assert_eq!(out.pattern(), "H");
    }
}
