//! The typed request/response protocol and its canonicalization.
//!
//! Every request arriving at `/v1/query` is a JSON object with a
//! `"type"` discriminator (`infer`, `simulate`, `distances`,
//! `workloads`) and type-specific fields; elided fields take documented
//! defaults. Parsing validates everything up front — unknown CPUs,
//! unparsable policies, out-of-range geometries are a `400`, never a
//! worker-pool job.
//!
//! Canonicalization is what makes the result cache sound: a parsed
//! [`Request`] renders back to a *canonical* JSON form (fixed field
//! order, all defaults filled in, policy names normalized to their
//! [`PolicyKind::label`]) so that semantically equal requests — fields
//! reordered, defaults elided, names case-shifted — produce the same
//! [cache key](Request::cache_key), while any semantic difference
//! changes the canonical bytes and, barring a collision of a hash keyed
//! with a per-process secret, the key.

use cachekit_bench::json::Json;
use cachekit_core::attack::StealthScenario;
use cachekit_core::infer::{engine_names, ConfigError, InferenceConfig, ReadoutSearch};
use cachekit_policies::PolicyKind;
use cachekit_sim::Containment;
use cachekit_trace::workloads;
use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

/// Largest capacity (bytes) a `simulate` request, or any level of a
/// `simulate_hierarchy` request, may ask for; keeps one request's trace
/// generation and simulation time bounded.
pub const MAX_SIMULATE_CAPACITY: u64 = 16 * 1024 * 1024;

/// Most simulated accesses a `simulate` or `simulate_hierarchy` request
/// may cost: its workload's length bound times its level count (see
/// [`SimulateRequest::price`]). Admits every workload at the capacity cap
/// except `matmul`, which grows as capacity^1.5 and is admitted up to
/// 512 KiB; caps one request's trace at 512 MiB.
pub const MAX_SIMULATE_ACCESSES: u64 = 1 << 26;

/// Most cache lines (`capacity / line`) a `simulate`, `simulate_hierarchy`
/// (every level) or `workloads` request may size its workloads or
/// caches for. Several generators build tables over a few times that
/// many lines (`zipf_hot`'s CDF and placement, `ptr_chase`,
/// `phase_switch`, `stack_geo`, `gc_trace`'s object graph), which the
/// access price does not count; this bounds them at about 64 MiB. 16 MiB
/// at 64-byte lines is 2^18 lines.
pub const MAX_SIMULATE_LINES: u64 = 1 << 20;

/// Deepest cache hierarchy a `simulate_hierarchy` request may describe.
pub const MAX_HIERARCHY_LEVELS: usize = 4;

/// Largest associativity a `distances` request may ask for; the
/// reachable-state search grows quickly with the way count.
pub const MAX_DISTANCE_ASSOC: usize = 24;

/// Largest associativity an `eviction_set` request may ask for —
/// the same ceiling as `distances` (the machine-backed constructors
/// search a reachable-state space of the same shape).
pub const MAX_ATTACK_ASSOC: usize = 24;

/// Largest round count an `attack_score` request may ask for; each
/// round is a bounded cheapest-turn search, so this caps one request's
/// compute.
pub const MAX_ATTACK_ROUNDS: usize = 256;

/// A validated query, ready for execution and canonicalization.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Reverse engineer the replacement policy of a virtual CPU level
    /// through the budgeted robust pipeline.
    Infer(InferRequest),
    /// Simulate one (policy, geometry) cell on a named synthetic
    /// workload.
    Simulate(SimulateRequest),
    /// Simulate a multi-level hierarchy under a containment discipline
    /// on a named synthetic workload.
    SimulateHierarchy(SimulateHierarchyRequest),
    /// Eviction distance and minimal lifespan of a permutation policy.
    Distances(DistancesRequest),
    /// List the synthetic workload suite for a geometry.
    Workloads(WorkloadsRequest),
    /// Construct a minimal policy-aware eviction set from the policy's
    /// own model (permutation spec or reference machine).
    EvictionSet(EvictionSetRequest),
    /// Score the stealth feasibility of holding a victim line resident
    /// or evicted under the policy.
    AttackScore(AttackScoreRequest),
}

/// Parameters of an `infer` request (defaults match
/// [`InferenceConfig::default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Virtual CPU name (must exist in `cachekit_hw::fleet`).
    pub cpu: String,
    /// Cache level: `"l1"`, `"l2"`, or `"l3"`.
    pub level: String,
    /// Votes per boolean measurement.
    pub repetitions: usize,
    /// Adaptive escalation ceiling.
    pub max_repetitions: usize,
    /// Measurement budget (`None` = unlimited).
    pub budget: Option<u64>,
    /// Target per-query agreement in `(0, 1]`.
    pub min_confidence: f64,
    /// Validation-script seed.
    pub seed: u64,
    /// Read-out search strategy.
    pub readout: ReadoutSearch,
    /// Inference engine: `"permutation"` (default), `"automata"`, or
    /// `"auto"`.
    pub engine: String,
}

/// Parameters of a `simulate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Replacement policy (canonical label).
    pub policy: PolicyKind,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line: u64,
    /// Workload name from the synthetic suite.
    pub workload: String,
    /// Fraction of accesses turned into writes, `[0, 1]`.
    pub writes: f64,
    /// Workload generator seed.
    pub seed: u64,
}

/// One level of a `simulate_hierarchy` request, innermost first.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyLevel {
    /// Replacement policy of this level (canonical label).
    pub policy: PolicyKind,
    /// Capacity of this level in bytes.
    pub capacity: u64,
    /// Associativity of this level.
    pub assoc: usize,
}

/// Parameters of a `simulate_hierarchy` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateHierarchyRequest {
    /// Levels, innermost (L1) first; 1..=[`MAX_HIERARCHY_LEVELS`].
    pub levels: Vec<HierarchyLevel>,
    /// Containment discipline (canonical label; aliases normalize).
    pub containment: Containment,
    /// Line size in bytes, shared by every level.
    pub line: u64,
    /// Workload name from the synthetic suite (sized to the outermost
    /// level's capacity).
    pub workload: String,
    /// Fraction of accesses turned into writes, `[0, 1]`.
    pub writes: f64,
    /// Workload generator seed.
    pub seed: u64,
    /// Per-level hit latencies in cycles, innermost first.
    pub latencies: Vec<u64>,
    /// Memory latency in cycles charged on a full miss.
    pub memory_latency: u64,
}

/// Parameters of a `distances` request.
#[derive(Debug, Clone, PartialEq)]
pub struct DistancesRequest {
    /// Replacement policy (canonical label).
    pub policy: PolicyKind,
    /// Associativity.
    pub assoc: usize,
}

/// Parameters of a `workloads` request.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadsRequest {
    /// Cache capacity the suite is sized for, bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Generator seed.
    pub seed: u64,
}

/// Parameters of an `eviction_set` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionSetRequest {
    /// Replacement policy (canonical label). Stochastic kinds parse —
    /// the *refusal* (no bounded sequence is guaranteed to evict) is a
    /// pipeline outcome, rendered as a cacheable error body.
    pub policy: PolicyKind,
    /// Associativity.
    pub assoc: usize,
}

/// Parameters of an `attack_score` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScoreRequest {
    /// Replacement policy (canonical label); stochastic kinds score
    /// empirically (`guaranteed: false`).
    pub policy: PolicyKind,
    /// Associativity.
    pub assoc: usize,
    /// Scenario: hold the victim line resident or evicted.
    pub scenario: StealthScenario,
    /// Observation rounds scored.
    pub rounds: usize,
    /// Seed for the empirical (stochastic-policy) rounds.
    pub seed: u64,
}

/// Why a request body was rejected (always a client error: HTTP 400).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError(pub String);

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> Self {
        RequestError(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> RequestError {
    RequestError(msg.into())
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn field_usize(obj: &Json, key: &str, default: usize) -> Result<usize, RequestError> {
    Ok(field_u64(obj, key, default as u64)? as usize)
}

fn field_f64(obj: &Json, key: &str, default: f64) -> Result<f64, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(format!("field {key:?} must be a number"))),
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn parse_policy(obj: &Json) -> Result<PolicyKind, RequestError> {
    let name = field_str(obj, "policy")?.ok_or_else(|| bad("missing field \"policy\""))?;
    PolicyKind::parse_label(name).ok_or_else(|| bad(format!("unknown policy {name:?}")))
}

impl Request {
    /// Parse and validate a request body. Field order and elided
    /// defaults do not matter; everything checkable without running the
    /// pipeline is checked here.
    pub fn parse(body: &str) -> Result<Request, RequestError> {
        let json = Json::parse(body).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        Request::from_json(&json)
    }

    /// [`parse`](Self::parse) on an already decoded [`Json`] value.
    pub fn from_json(json: &Json) -> Result<Request, RequestError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        let kind = field_str(json, "type")?.ok_or_else(|| bad("missing field \"type\""))?;
        match kind {
            "infer" => Ok(Request::Infer(InferRequest::from_json(json)?)),
            "simulate" => Ok(Request::Simulate(SimulateRequest::from_json(json)?)),
            "simulate_hierarchy" => Ok(Request::SimulateHierarchy(
                SimulateHierarchyRequest::from_json(json)?,
            )),
            "distances" => Ok(Request::Distances(DistancesRequest::from_json(json)?)),
            "workloads" => Ok(Request::Workloads(WorkloadsRequest::from_json(json)?)),
            "eviction_set" => Ok(Request::EvictionSet(EvictionSetRequest::from_json(json)?)),
            "attack_score" => Ok(Request::AttackScore(AttackScoreRequest::from_json(json)?)),
            other => Err(bad(format!(
                "unknown request type {other:?} (expected infer, simulate, \
                 simulate_hierarchy, distances, workloads, eviction_set, \
                 or attack_score)"
            ))),
        }
    }

    /// The canonical JSON form: compact, fixed field order, every
    /// default filled in. Semantically equal requests are byte-equal
    /// here; semantically different ones never are.
    pub fn canonical_json(&self) -> String {
        self.to_json().to_compact()
    }

    /// The canonical form as a [`Json`] value (fixed field order).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Infer(r) => r.to_json(),
            Request::Simulate(r) => r.to_json(),
            Request::SimulateHierarchy(r) => r.to_json(),
            Request::Distances(r) => r.to_json(),
            Request::Workloads(r) => r.to_json(),
            Request::EvictionSet(r) => r.to_json(),
            Request::AttackScore(r) => r.to_json(),
        }
    }

    /// The result-cache key: a keyed hash (SipHash, std's
    /// [`RandomState`]) of the canonical JSON bytes. The keys are drawn
    /// at random once per process, so nobody can compute a colliding
    /// pair of requests offline, and a key means nothing outside the
    /// process that computed it.
    pub fn cache_key(&self) -> u64 {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        KEYS.get_or_init(RandomState::new)
            .hash_one(self.canonical_json().as_bytes())
    }

    /// Short label of the request type (metrics attribution).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Infer(_) => "infer",
            Request::Simulate(_) => "simulate",
            Request::SimulateHierarchy(_) => "simulate_hierarchy",
            Request::Distances(_) => "distances",
            Request::Workloads(_) => "workloads",
            Request::EvictionSet(_) => "eviction_set",
            Request::AttackScore(_) => "attack_score",
        }
    }
}

impl InferRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let cpu = field_str(obj, "cpu")?
            .ok_or_else(|| bad("missing field \"cpu\""))?
            .to_owned();
        if !cachekit_hw::fleet::names().contains(&cpu.as_str()) {
            return Err(bad(format!("unknown cpu {cpu:?}")));
        }
        let level = field_str(obj, "level")?
            .unwrap_or("l1")
            .to_ascii_lowercase();
        if !matches!(level.as_str(), "l1" | "l2" | "l3") {
            return Err(bad(format!("unknown level {level:?}")));
        }
        let defaults = InferenceConfig::default();
        let repetitions = field_usize(obj, "repetitions", defaults.repetitions)?;
        let max_repetitions = field_usize(
            obj,
            "max_repetitions",
            defaults.max_repetitions.max(repetitions),
        )?;
        let budget = match obj.get("budget") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| bad("field \"budget\" must be a non-negative integer"))?,
            ),
        };
        let min_confidence = field_f64(obj, "min_confidence", defaults.min_confidence)?;
        let seed = field_u64(obj, "seed", defaults.seed)?;
        let readout = match field_str(obj, "readout")? {
            None => ReadoutSearch::default(),
            Some(s) => s.parse::<ReadoutSearch>().map_err(bad)?,
        };
        // Elided engine canonicalizes to "permutation": pre-engine
        // request bodies keep their exact canonical form and cache key.
        let engine = field_str(obj, "engine")?
            .unwrap_or("permutation")
            .to_ascii_lowercase();
        if !engine_names().contains(&engine.as_str()) {
            return Err(bad(format!(
                "unknown engine {engine:?} (expected {})",
                engine_names().join(", ")
            )));
        }
        let parsed = Self {
            cpu,
            level,
            repetitions,
            max_repetitions,
            budget,
            min_confidence,
            seed,
            readout,
            engine,
        };
        parsed.inference_config()?; // builder-validate the tuning knobs
        Ok(parsed)
    }

    /// Map the request onto a validated [`InferenceConfig`].
    pub fn inference_config(&self) -> Result<InferenceConfig, RequestError> {
        let mut builder = InferenceConfig::builder()
            .repetitions(self.repetitions)
            .max_repetitions(self.max_repetitions)
            .min_confidence(self.min_confidence)
            .seed(self.seed)
            .readout(self.readout);
        if let Some(budget) = self.budget {
            builder = builder.measurement_budget(budget);
        }
        Ok(builder.build()?)
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("infer")),
            ("cpu", Json::from(self.cpu.as_str())),
            ("level", Json::from(self.level.as_str())),
            ("repetitions", Json::from(self.repetitions)),
            ("max_repetitions", Json::from(self.max_repetitions)),
            ("budget", Json::from(self.budget)),
            ("min_confidence", Json::Num(self.min_confidence)),
            ("seed", Json::from(self.seed)),
            ("readout", Json::from(self.readout.to_string())),
            ("engine", Json::from(self.engine.as_str())),
        ])
    }
}

impl SimulateRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let policy = parse_policy(obj)?;
        let capacity = field_u64(obj, "capacity", 0)?;
        if capacity == 0 {
            return Err(bad("missing or zero field \"capacity\""));
        }
        if capacity > MAX_SIMULATE_CAPACITY {
            return Err(bad(format!(
                "capacity {capacity} exceeds the serving cap of {MAX_SIMULATE_CAPACITY} bytes"
            )));
        }
        let assoc = field_usize(obj, "assoc", 0)?;
        let line = field_u64(obj, "line", 64)?;
        let workload = field_str(obj, "workload")?
            .ok_or_else(|| bad("missing field \"workload\""))?
            .to_owned();
        let writes = field_f64(obj, "writes", 0.0)?;
        if !(0.0..=1.0).contains(&writes) {
            return Err(bad(format!("writes fraction {writes} outside [0, 1]")));
        }
        let seed = field_u64(obj, "seed", 7)?;
        // Geometry validity (power-of-two line, capacity divisible by
        // line * assoc, 16-line minimum for the workload suite).
        cachekit_sim::CacheConfig::new(capacity, assoc, line)
            .map_err(|e| bad(format!("invalid geometry: {e}")))?;
        if capacity / line < 16 {
            return Err(bad("capacity must hold at least 16 lines"));
        }
        check_lines(capacity, line)?;
        // Policy parameters must fit the geometry (e.g. an SLRU
        // protected segment below the associativity) — `build` would
        // panic inside a worker job otherwise.
        policy.validate_for_assoc(assoc).map_err(bad)?;
        let parsed = Self {
            policy,
            capacity,
            assoc,
            line,
            workload,
            writes,
            seed,
        };
        check_price(&parsed.workload, parsed.price())?;
        Ok(parsed)
    }

    /// The accesses this request may simulate, from its workload's
    /// O(1) length bound ([`workloads::max_len`]); 0 for a workload the
    /// suite does not have, which executes to an error body.
    pub fn price(&self) -> u64 {
        workloads::max_len(&self.workload, self.capacity, self.line).unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("simulate")),
            ("policy", Json::from(self.policy.label())),
            ("capacity", Json::from(self.capacity)),
            ("assoc", Json::from(self.assoc)),
            ("line", Json::from(self.line)),
            ("workload", Json::from(self.workload.as_str())),
            ("writes", Json::Num(self.writes)),
            ("seed", Json::from(self.seed)),
        ])
    }
}

impl SimulateHierarchyRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let line = field_u64(obj, "line", 64)?;
        let Some(Json::Arr(level_objs)) = obj.get("levels") else {
            return Err(bad("missing field \"levels\" (array of level objects)"));
        };
        if level_objs.is_empty() {
            return Err(bad("field \"levels\" must name at least one level"));
        }
        if level_objs.len() > MAX_HIERARCHY_LEVELS {
            return Err(bad(format!(
                "{} levels exceed the serving cap of {MAX_HIERARCHY_LEVELS}",
                level_objs.len()
            )));
        }
        let mut levels = Vec::with_capacity(level_objs.len());
        for (i, level) in level_objs.iter().enumerate() {
            if !matches!(level, Json::Obj(_)) {
                return Err(bad(format!("level {i} must be a JSON object")));
            }
            let policy = parse_policy(level).map_err(|e| bad(format!("level {i}: {e}")))?;
            let capacity = field_u64(level, "capacity", 0)?;
            if capacity == 0 {
                return Err(bad(format!(
                    "level {i}: missing or zero field \"capacity\""
                )));
            }
            let assoc = field_usize(level, "assoc", 0)?;
            // Geometry validity per level; the shared line size rules out
            // mismatched-line hierarchies by construction.
            cachekit_sim::CacheConfig::new(capacity, assoc, line)
                .map_err(|e| bad(format!("level {i}: invalid geometry: {e}")))?;
            policy
                .validate_for_assoc(assoc)
                .map_err(|e| bad(format!("level {i}: {e}")))?;
            // Every level allocates its sets up front, and containment
            // other than inclusive lets an inner level outgrow the
            // outermost one, so each level obeys both caps.
            if capacity > MAX_SIMULATE_CAPACITY {
                return Err(bad(format!(
                    "level {i}: capacity {capacity} exceeds the serving cap of \
                     {MAX_SIMULATE_CAPACITY} bytes"
                )));
            }
            check_lines(capacity, line).map_err(|e| bad(format!("level {i}: {e}")))?;
            levels.push(HierarchyLevel {
                policy,
                capacity,
                assoc,
            });
        }
        let outer = levels.last().expect("levels is non-empty");
        if outer.capacity / line < 16 {
            return Err(bad("outermost capacity must hold at least 16 lines"));
        }
        let containment = match field_str(obj, "containment")? {
            None => Containment::Nine,
            Some(s) => {
                Containment::parse(s).ok_or_else(|| bad(format!("unknown containment {s:?}")))?
            }
        };
        // Inclusion with an inner level at least as large as its outer
        // neighbour cannot hold the subset invariant; reject up front.
        if containment == Containment::Inclusive {
            for pair in levels.windows(2) {
                if pair[0].capacity >= pair[1].capacity {
                    return Err(bad(format!(
                        "inclusive containment needs strictly growing capacities \
                         ({} then {})",
                        pair[0].capacity, pair[1].capacity
                    )));
                }
            }
        }
        let workload = field_str(obj, "workload")?
            .ok_or_else(|| bad("missing field \"workload\""))?
            .to_owned();
        let writes = field_f64(obj, "writes", 0.0)?;
        if !(0.0..=1.0).contains(&writes) {
            return Err(bad(format!("writes fraction {writes} outside [0, 1]")));
        }
        let seed = field_u64(obj, "seed", 7)?;
        let latencies = match obj.get("latencies") {
            None | Some(Json::Null) => cachekit_sim::default_latencies(levels.len()),
            Some(Json::Arr(items)) => {
                let mut v = Vec::with_capacity(items.len());
                for item in items {
                    v.push(item.as_u64().ok_or_else(|| {
                        bad("field \"latencies\" must be an array of positive integers")
                    })?);
                }
                v
            }
            Some(_) => return Err(bad("field \"latencies\" must be an array")),
        };
        if latencies.len() != levels.len() {
            return Err(bad(format!(
                "{} latencies for {} levels",
                latencies.len(),
                levels.len()
            )));
        }
        if latencies.contains(&0) {
            return Err(bad("latencies must be at least 1 cycle"));
        }
        let memory_latency = field_u64(obj, "memory_latency", 200)?;
        if memory_latency == 0 {
            return Err(bad("field \"memory_latency\" must be at least 1 cycle"));
        }
        let parsed = Self {
            levels,
            containment,
            line,
            workload,
            writes,
            seed,
            latencies,
            memory_latency,
        };
        check_price(&parsed.workload, parsed.price())?;
        Ok(parsed)
    }

    /// The accesses this request may simulate: the length bound of its
    /// workload, sized to the outermost level, times the level count,
    /// since every access may reach every level. 0 for a workload the
    /// suite does not have.
    pub fn price(&self) -> u64 {
        let outer = self.levels.last().expect("levels validated non-empty");
        workloads::max_len(&self.workload, outer.capacity, self.line)
            .unwrap_or(0)
            .saturating_mul(self.levels.len() as u64)
    }

    fn to_json(&self) -> Json {
        let levels: Vec<Json> = self
            .levels
            .iter()
            .map(|l| {
                Json::object(vec![
                    ("policy", Json::from(l.policy.label())),
                    ("capacity", Json::from(l.capacity)),
                    ("assoc", Json::from(l.assoc)),
                ])
            })
            .collect();
        Json::object(vec![
            ("type", Json::from("simulate_hierarchy")),
            ("levels", Json::Arr(levels)),
            ("containment", Json::from(self.containment.label())),
            ("line", Json::from(self.line)),
            ("workload", Json::from(self.workload.as_str())),
            ("writes", Json::Num(self.writes)),
            ("seed", Json::from(self.seed)),
            ("latencies", Json::from(self.latencies.clone())),
            ("memory_latency", Json::from(self.memory_latency)),
        ])
    }
}

impl DistancesRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let policy = parse_policy(obj)?;
        let assoc = field_usize(obj, "assoc", 0)?;
        if assoc == 0 {
            return Err(bad("missing or zero field \"assoc\""));
        }
        if assoc > MAX_DISTANCE_ASSOC {
            return Err(bad(format!(
                "assoc {assoc} exceeds the serving cap of {MAX_DISTANCE_ASSOC}"
            )));
        }
        policy.validate_for_assoc(assoc).map_err(bad)?;
        Ok(Self { policy, assoc })
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("distances")),
            ("policy", Json::from(self.policy.label())),
            ("assoc", Json::from(self.assoc)),
        ])
    }
}

impl WorkloadsRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let capacity = field_u64(obj, "capacity", 0)?;
        if capacity == 0 {
            return Err(bad("missing or zero field \"capacity\""));
        }
        if capacity > MAX_SIMULATE_CAPACITY {
            return Err(bad(format!(
                "capacity {capacity} exceeds the serving cap of {MAX_SIMULATE_CAPACITY} bytes"
            )));
        }
        let line = field_u64(obj, "line", 64)?;
        if line == 0 || !line.is_power_of_two() {
            return Err(bad(format!("line size {line} must be a power of two")));
        }
        if capacity / line < 16 {
            return Err(bad("capacity must hold at least 16 lines"));
        }
        check_lines(capacity, line)?;
        let seed = field_u64(obj, "seed", 7)?;
        Ok(Self {
            capacity,
            line,
            seed,
        })
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("workloads")),
            ("capacity", Json::from(self.capacity)),
            ("line", Json::from(self.line)),
            ("seed", Json::from(self.seed)),
        ])
    }
}

impl EvictionSetRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let policy = parse_policy(obj)?;
        let assoc = field_usize(obj, "assoc", 0)?;
        if assoc == 0 {
            return Err(bad("missing or zero field \"assoc\""));
        }
        if assoc > MAX_ATTACK_ASSOC {
            return Err(bad(format!(
                "assoc {assoc} exceeds the serving cap of {MAX_ATTACK_ASSOC}"
            )));
        }
        policy.validate_for_assoc(assoc).map_err(bad)?;
        Ok(Self { policy, assoc })
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("eviction_set")),
            ("policy", Json::from(self.policy.label())),
            ("assoc", Json::from(self.assoc)),
        ])
    }
}

impl AttackScoreRequest {
    fn from_json(obj: &Json) -> Result<Self, RequestError> {
        let policy = parse_policy(obj)?;
        let assoc = field_usize(obj, "assoc", 0)?;
        if assoc == 0 {
            return Err(bad("missing or zero field \"assoc\""));
        }
        if assoc > MAX_ATTACK_ASSOC {
            return Err(bad(format!(
                "assoc {assoc} exceeds the serving cap of {MAX_ATTACK_ASSOC}"
            )));
        }
        policy.validate_for_assoc(assoc).map_err(bad)?;
        // Aliases ("resident"/"evicted") canonicalize to the full
        // label, so they share a cache entry with the spelled-out form.
        let scenario = match field_str(obj, "scenario")? {
            None => return Err(bad("missing field \"scenario\"")),
            Some(s) => {
                StealthScenario::parse(s).ok_or_else(|| bad(format!("unknown scenario {s:?}")))?
            }
        };
        let rounds = field_usize(obj, "rounds", 32)?;
        if rounds == 0 {
            return Err(bad("field \"rounds\" must be at least 1"));
        }
        if rounds > MAX_ATTACK_ROUNDS {
            return Err(bad(format!(
                "rounds {rounds} exceeds the serving cap of {MAX_ATTACK_ROUNDS}"
            )));
        }
        let seed = field_u64(obj, "seed", 7)?;
        Ok(Self {
            policy,
            assoc,
            scenario,
            rounds,
            seed,
        })
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::from("attack_score")),
            ("policy", Json::from(self.policy.label())),
            ("assoc", Json::from(self.assoc)),
            ("scenario", Json::from(self.scenario.label())),
            ("rounds", Json::from(self.rounds)),
            ("seed", Json::from(self.seed)),
        ])
    }
}

/// Refuse a request whose workloads would be sized for more than
/// [`MAX_SIMULATE_LINES`] lines, naming the line count and the cap. The
/// CLI refuses the same geometries through this check.
pub fn check_lines(capacity: u64, line: u64) -> Result<(), RequestError> {
    let lines = capacity
        .checked_div(line)
        .ok_or_else(|| bad("line size must be at least 1"))?;
    if lines > MAX_SIMULATE_LINES {
        return Err(bad(format!(
            "capacity {capacity} at line size {line} is {lines} lines, over the \
             serving cap of {MAX_SIMULATE_LINES} lines"
        )));
    }
    Ok(())
}

/// Refuse a simulate-family request priced over
/// [`MAX_SIMULATE_ACCESSES`], naming the price and the budget.
fn check_price(workload: &str, price: u64) -> Result<(), RequestError> {
    if price > MAX_SIMULATE_ACCESSES {
        return Err(bad(format!(
            "workload {workload:?} prices at {price} simulated accesses, over the \
             serving budget of {MAX_SIMULATE_ACCESSES}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_and_elided_defaults_do_not_change_the_key() {
        let explicit = Request::parse(
            r#"{"type":"infer","cpu":"atom_d525","level":"l1","repetitions":3,
                "max_repetitions":12,"budget":null,"min_confidence":0.6666666666666666,
                "seed":3390155550,"readout":"binary"}"#,
        )
        .unwrap();
        let elided = Request::parse(r#"{"cpu":"atom_d525","type":"infer"}"#).unwrap();
        assert_eq!(explicit, elided);
        assert_eq!(explicit.canonical_json(), elided.canonical_json());
        assert_eq!(explicit.cache_key(), elided.cache_key());
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let base = Request::parse(r#"{"type":"infer","cpu":"atom_d525"}"#).unwrap();
        for variant in [
            r#"{"type":"infer","cpu":"atom_d525","level":"l2"}"#,
            r#"{"type":"infer","cpu":"core2_e6300"}"#,
            r#"{"type":"infer","cpu":"atom_d525","seed":1}"#,
            r#"{"type":"infer","cpu":"atom_d525","budget":1000}"#,
            r#"{"type":"infer","cpu":"atom_d525","readout":"linear"}"#,
            r#"{"type":"infer","cpu":"atom_d525","engine":"automata"}"#,
            r#"{"type":"infer","cpu":"atom_d525","engine":"auto"}"#,
        ] {
            let other = Request::parse(variant).unwrap();
            assert_ne!(base.cache_key(), other.cache_key(), "variant {variant}");
        }
    }

    #[test]
    fn legacy_bodies_canonicalize_to_the_explicit_permutation_engine() {
        // Requests written before the engine field existed must keep
        // their cache identity: an elided engine and an explicit
        // "permutation" are the same request, byte for byte.
        let legacy = Request::parse(r#"{"type":"infer","cpu":"atom_d525","level":"l2"}"#).unwrap();
        let explicit = Request::parse(
            r#"{"type":"infer","cpu":"atom_d525","level":"l2","engine":"permutation"}"#,
        )
        .unwrap();
        assert_eq!(legacy, explicit);
        assert_eq!(legacy.canonical_json(), explicit.canonical_json());
        assert_eq!(legacy.cache_key(), explicit.cache_key());
        assert!(
            legacy
                .canonical_json()
                .contains(r#""engine":"permutation""#),
            "canonical form spells the default out: {}",
            legacy.canonical_json()
        );
    }

    #[test]
    fn engine_names_are_case_insensitive_and_unknown_ones_are_rejected() {
        let upper =
            Request::parse(r#"{"type":"infer","cpu":"atom_d525","engine":"AUTOMATA"}"#).unwrap();
        let lower =
            Request::parse(r#"{"type":"infer","cpu":"atom_d525","engine":"automata"}"#).unwrap();
        assert_eq!(upper.cache_key(), lower.cache_key());
        let err =
            Request::parse(r#"{"type":"infer","cpu":"atom_d525","engine":"quantum"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
    }

    #[test]
    fn policy_names_normalize_to_canonical_labels() {
        let lower = Request::parse(
            r#"{"type":"simulate","policy":"treeplru","capacity":65536,"assoc":8,
                "workload":"zipf_hot"}"#,
        )
        .unwrap();
        let upper = Request::parse(
            r#"{"type":"simulate","policy":"PLRU","capacity":65536,"assoc":8,
                "workload":"zipf_hot","line":64,"writes":0,"seed":7}"#,
        )
        .unwrap();
        assert_eq!(lower.cache_key(), upper.cache_key());
        assert!(lower.canonical_json().contains("\"policy\":\"PLRU\""));
    }

    #[test]
    fn invalid_requests_are_rejected_at_parse_time() {
        for body in [
            "",
            "[]",
            r#"{"type":"launch"}"#,
            r#"{"type":"infer"}"#,
            r#"{"type":"infer","cpu":"warp_core"}"#,
            r#"{"type":"infer","cpu":"atom_d525","level":"l9"}"#,
            r#"{"type":"infer","cpu":"atom_d525","repetitions":0}"#,
            r#"{"type":"infer","cpu":"atom_d525","budget":0}"#,
            r#"{"type":"infer","cpu":"atom_d525","min_confidence":2.0}"#,
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8}"#,
            r#"{"type":"simulate","policy":"NOPE","capacity":65536,"assoc":8,"workload":"w"}"#,
            r#"{"type":"simulate","policy":"LRU","capacity":999,"assoc":8,"workload":"w"}"#,
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,"workload":"w",
                "writes":1.5}"#,
            r#"{"type":"distances","policy":"LRU","assoc":0}"#,
            r#"{"type":"distances","policy":"LRU","assoc":64}"#,
            r#"{"type":"distances","policy":"SLRU-8","assoc":4}"#,
            r#"{"type":"distances","policy":"SLRU-4","assoc":4}"#,
            r#"{"type":"simulate","policy":"SLRU-8","capacity":65536,"assoc":8,"workload":"w"}"#,
            r#"{"type":"workloads"}"#,
            r#"{"type":"workloads","capacity":65536,"line":48}"#,
        ] {
            assert!(Request::parse(body).is_err(), "body {body:?} must fail");
        }
    }

    #[test]
    fn simulate_family_requests_are_priced_against_the_access_budget() {
        let simulate = |capacity: u64, workload: &str| {
            Request::parse(&format!(
                r#"{{"type":"simulate","policy":"LRU","capacity":{capacity},"assoc":8,
                    "workload":"{workload}"}}"#
            ))
        };
        // matmul at 512 KiB: 3 * 209^3 accesses, inside the budget.
        let Ok(Request::Simulate(req)) = simulate(512 * 1024, "matmul") else {
            panic!("512 KiB matmul must parse")
        };
        assert_eq!(req.price(), 27_387_987);
        // At 1 MiB it is 3 * 295^3, over the budget.
        let err = simulate(1024 * 1024, "matmul").unwrap_err().to_string();
        assert!(err.contains("77017125"), "{err}");
        assert!(err.contains(&MAX_SIMULATE_ACCESSES.to_string()), "{err}");
        // Every other workload fits at the capacity cap; unknown names
        // cost nothing here and execute to an error body.
        for workload in ["scan_plus_hot", "gc_trace", "seq_stream", "nope"] {
            assert!(
                simulate(MAX_SIMULATE_CAPACITY, workload).is_ok(),
                "{workload}"
            );
        }
        // A hierarchy pays for its workload at every level.
        let hierarchy = |levels: usize| {
            let levels: Vec<String> = (0..levels)
                .map(|i| format!(r#"{{"policy":"LRU","capacity":{},"assoc":8}}"#, 65536 << i))
                .collect();
            Request::parse(&format!(
                r#"{{"type":"simulate_hierarchy","workload":"matmul","levels":[{}]}}"#,
                levels.join(",")
            ))
        };
        // Outermost 128 KiB: 3 * 104^3 per level.
        let Ok(Request::SimulateHierarchy(req)) = hierarchy(2) else {
            panic!("two-level hierarchy must parse")
        };
        assert_eq!(req.price(), 2 * 3_374_592);
        // Outermost 512 KiB over four levels.
        let err = hierarchy(4).unwrap_err().to_string();
        assert!(err.contains("109551948"), "{err}");
    }

    #[test]
    fn workload_sizing_is_capped_at_a_million_lines() {
        // 2^20 lines parse; 2^21 are refused by every request type that
        // sizes workloads or caches, with the line count and the cap in
        // the error. A non-inclusive hierarchy's inner level may outgrow
        // the outermost one, so it is capped too.
        let at = |lines: u64| {
            let capacity = lines * 8;
            [
                format!(
                    r#"{{"type":"simulate","policy":"LRU","capacity":{capacity},"assoc":8,
                        "line":8,"workload":"zipf_hot"}}"#
                ),
                format!(
                    r#"{{"type":"simulate_hierarchy","workload":"zipf_hot","line":8,"levels":[
                        {{"policy":"LRU","capacity":4096,"assoc":8}},
                        {{"policy":"LRU","capacity":{capacity},"assoc":8}}]}}"#
                ),
                format!(
                    r#"{{"type":"simulate_hierarchy","workload":"zipf_hot","line":8,"levels":[
                        {{"policy":"LRU","capacity":{capacity},"assoc":8}},
                        {{"policy":"LRU","capacity":4096,"assoc":8}}]}}"#
                ),
                format!(r#"{{"type":"workloads","capacity":{capacity},"line":8}}"#),
            ]
        };
        for body in at(MAX_SIMULATE_LINES) {
            assert!(Request::parse(&body).is_ok(), "{body}");
        }
        for body in at(2 * MAX_SIMULATE_LINES) {
            let err = Request::parse(&body).unwrap_err().to_string();
            assert!(err.contains("2097152 lines"), "{err}");
            assert!(err.contains(&MAX_SIMULATE_LINES.to_string()), "{err}");
        }
    }

    #[test]
    fn infer_request_maps_onto_the_inference_config() {
        let Request::Infer(req) = Request::parse(
            r#"{"type":"infer","cpu":"atom_d525","repetitions":5,"budget":9000,
                "min_confidence":0.9,"seed":11,"readout":"linear"}"#,
        )
        .unwrap() else {
            panic!("not an infer request")
        };
        let config = req.inference_config().unwrap();
        assert_eq!(config.repetitions, 5);
        assert_eq!(config.measurement_budget, Some(9000));
        assert_eq!(config.min_confidence, 0.9);
        assert_eq!(config.seed, 11);
        assert_eq!(config.readout_search, ReadoutSearch::Linear);
        assert!(config.max_repetitions >= 5);
    }
}
