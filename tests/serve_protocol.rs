//! Protocol-level guarantees of the serving layer's canonicalization:
//! semantically equal requests share a cache key, semantically
//! different ones never collide across the full differential policy
//! set.

use cachekit::policies::PolicyKind;
use cachekit::serve::Request;
use std::collections::HashMap;

fn key(body: &str) -> u64 {
    Request::parse(body)
        .unwrap_or_else(|e| panic!("body {body:?} must parse: {e}"))
        .cache_key()
}

#[test]
fn field_order_never_changes_the_key() {
    let orderings = [
        r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,"line":64,
            "workload":"zipf_hot","writes":0.25,"seed":9}"#,
        r#"{"workload":"zipf_hot","writes":0.25,"seed":9,"type":"simulate",
            "assoc":8,"line":64,"policy":"LRU","capacity":65536}"#,
        r#"{"seed":9,"line":64,"capacity":65536,"writes":0.25,"assoc":8,
            "workload":"zipf_hot","policy":"LRU","type":"simulate"}"#,
    ];
    let first = key(orderings[0]);
    for body in &orderings[1..] {
        assert_eq!(key(body), first, "body {body:?}");
    }
}

#[test]
fn elided_defaults_equal_explicit_defaults() {
    let pairs = [
        (
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,"workload":"fit_loop"}"#,
            r#"{"type":"simulate","policy":"LRU","capacity":65536,"assoc":8,"workload":"fit_loop",
                "line":64,"writes":0.0,"seed":7}"#,
        ),
        (
            r#"{"type":"infer","cpu":"atom_d525"}"#,
            r#"{"type":"infer","cpu":"atom_d525","level":"l1","repetitions":3,
                "max_repetitions":12,"budget":null,"min_confidence":0.6666666666666666,
                "seed":3390155550,"readout":"binary","engine":"permutation"}"#,
        ),
        (
            r#"{"type":"workloads","capacity":262144}"#,
            r#"{"type":"workloads","capacity":262144,"line":64,"seed":7}"#,
        ),
        (
            r#"{"type":"simulate_hierarchy","workload":"zipf_hot","levels":[
                {"policy":"PLRU","capacity":8192,"assoc":4},
                {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
            r#"{"type":"simulate_hierarchy","workload":"zipf_hot","levels":[
                {"policy":"PLRU","capacity":8192,"assoc":4},
                {"policy":"LRU","capacity":65536,"assoc":8}],
                "containment":"nine","line":64,"writes":0.0,"seed":7,
                "latencies":[3,15],"memory_latency":200}"#,
        ),
        (
            r#"{"type":"attack_score","policy":"FIFO","assoc":4,"scenario":"hold_resident"}"#,
            r#"{"type":"attack_score","policy":"FIFO","assoc":4,"scenario":"hold_resident",
                "rounds":32,"seed":7}"#,
        ),
    ];
    for (elided, explicit) in pairs {
        assert_eq!(key(elided), key(explicit), "pair {elided:?}");
    }
}

/// Request bodies written before the `engine` field existed must keep
/// their cache identity: elided engine and explicit `"permutation"`
/// canonicalize to the same bytes, hence the same key, so a server
/// upgrade never invalidates a client's cached results.
#[test]
fn pre_engine_bodies_hash_identically_to_the_canonicalized_new_form() {
    let legacy = r#"{"type":"infer","cpu":"core2_e6300","level":"l2","seed":11}"#;
    let explicit =
        r#"{"type":"infer","cpu":"core2_e6300","level":"l2","seed":11,"engine":"permutation"}"#;
    assert_eq!(key(legacy), key(explicit));
    let canonical = Request::parse(legacy).unwrap().canonical_json();
    assert_eq!(
        canonical,
        Request::parse(explicit).unwrap().canonical_json()
    );
    assert!(
        canonical.contains(r#""engine":"permutation""#),
        "{canonical}"
    );
    // Unknown engines are a 400 at the protocol door, not a worker job.
    assert!(Request::parse(r#"{"type":"infer","cpu":"atom_d525","engine":"oracle"}"#).is_err());
}

#[test]
fn policy_aliases_normalize_before_hashing() {
    let canonical = key(r#"{"type":"distances","policy":"PLRU","assoc":8}"#);
    for alias in ["plru", "TreePLRU", "treeplru", "Plru"] {
        let body = format!(r#"{{"type":"distances","policy":"{alias}","assoc":8}}"#);
        assert_eq!(key(&body), canonical, "alias {alias:?}");
    }
    // BitPLRU goes by MRU in some papers; both names, one key.
    assert_eq!(
        key(r#"{"type":"distances","policy":"MRU","assoc":8}"#),
        key(r#"{"type":"distances","policy":"BitPLRU","assoc":8}"#),
    );
}

/// The attack requests canonicalize like every other type: scenario
/// shorthand ("resident"/"evicted", any case) and policy aliases
/// normalize before hashing, so a client's spelling never fragments
/// the result cache.
#[test]
fn attack_scenario_aliases_normalize_before_hashing() {
    let canonical =
        key(r#"{"type":"attack_score","policy":"PLRU","assoc":4,"scenario":"hold_resident"}"#);
    for (policy, scenario) in [
        ("plru", "hold_resident"),
        ("TreePLRU", "resident"),
        ("PLRU", "RESIDENT"),
        ("treeplru", "Hold_Resident"),
    ] {
        let body = format!(
            r#"{{"type":"attack_score","policy":"{policy}","assoc":4,"scenario":"{scenario}"}}"#
        );
        assert_eq!(key(&body), canonical, "alias {policy:?}/{scenario:?}");
    }
    // ...but the two scenarios themselves must never collide.
    assert_ne!(
        canonical,
        key(r#"{"type":"attack_score","policy":"PLRU","assoc":4,"scenario":"evicted"}"#),
    );
    let evset = key(r#"{"type":"eviction_set","policy":"MRU","assoc":8}"#);
    assert_eq!(
        evset,
        key(r#"{"assoc":8,"policy":"BitPLRU","type":"eviction_set"}"#),
        "field order and policy alias must not change an eviction_set key"
    );
}

/// Attack requests are validated at the protocol door: a zero or
/// oversized associativity, a zero or oversized round count, and an
/// unknown or missing scenario are all 400s — never worker jobs.
/// Stochastic policies *parse* (their refusal is an honest pipeline
/// outcome, not a malformed request), but still obey the assoc caps.
#[test]
fn attack_requests_reject_out_of_range_parameters_at_parse_time() {
    use cachekit::serve::{MAX_ATTACK_ASSOC, MAX_ATTACK_ROUNDS};
    let over_assoc = MAX_ATTACK_ASSOC + 1;
    let over_rounds = MAX_ATTACK_ROUNDS + 1;
    let rejected = [
        r#"{"type":"eviction_set","policy":"LRU","assoc":0}"#.to_owned(),
        format!(r#"{{"type":"eviction_set","policy":"LRU","assoc":{over_assoc}}}"#),
        r#"{"type":"attack_score","policy":"LRU","assoc":0,"scenario":"resident"}"#.to_owned(),
        format!(
            r#"{{"type":"attack_score","policy":"LRU","assoc":{over_assoc},"scenario":"resident"}}"#
        ),
        r#"{"type":"attack_score","policy":"LRU","assoc":4,"scenario":"resident","rounds":0}"#
            .to_owned(),
        format!(
            r#"{{"type":"attack_score","policy":"LRU","assoc":4,"scenario":"resident",
                "rounds":{over_rounds}}}"#
        ),
        r#"{"type":"attack_score","policy":"LRU","assoc":4,"scenario":"flush_reload"}"#.to_owned(),
        r#"{"type":"attack_score","policy":"LRU","assoc":4}"#.to_owned(),
        // SLRU-2 at assoc 2 has no probationary position: structural
        // rejection, same as the distances/simulate paths.
        r#"{"type":"eviction_set","policy":"SLRU-2","assoc":2}"#.to_owned(),
    ];
    for body in &rejected {
        assert!(Request::parse(body).is_err(), "body {body:?} must fail");
    }
    // The boundary values themselves are fine, as is a stochastic kind.
    let accepted = [
        format!(r#"{{"type":"eviction_set","policy":"LRU","assoc":{MAX_ATTACK_ASSOC}}}"#),
        format!(
            r#"{{"type":"attack_score","policy":"LRU","assoc":4,"scenario":"resident",
                "rounds":{MAX_ATTACK_ROUNDS}}}"#
        ),
        r#"{"type":"eviction_set","policy":"BIP","assoc":4}"#.to_owned(),
    ];
    for body in &accepted {
        assert!(Request::parse(body).is_ok(), "body {body:?} must parse");
    }
}

/// Hierarchy requests canonicalize like the flat ones: containment
/// aliases and policy spellings normalize, elided latencies fill in the
/// documented defaults, and any semantic difference — swapping two
/// levels, changing the discipline — changes the key.
#[test]
fn hierarchy_containment_aliases_normalize_before_hashing() {
    let canonical = key(
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"nine","levels":[
            {"policy":"PLRU","capacity":8192,"assoc":4},
            {"policy":"QLRU-1","capacity":65536,"assoc":8}]}"#,
    );
    for alias in ["NINE", "non-inclusive", "non_inclusive", "NonInclusive"] {
        let body = format!(
            r#"{{"type":"simulate_hierarchy","workload":"fit_loop","containment":"{alias}",
                "levels":[{{"policy":"treeplru","capacity":8192,"assoc":4}},
                          {{"policy":"qlru-1","capacity":65536,"assoc":8}}]}}"#
        );
        assert_eq!(key(&body), canonical, "alias {alias:?}");
    }
    // Same levels, different discipline: a different key.
    for containment in ["inclusive", "exclusive"] {
        let body = format!(
            r#"{{"type":"simulate_hierarchy","workload":"fit_loop","containment":"{containment}",
                "levels":[{{"policy":"PLRU","capacity":8192,"assoc":4}},
                          {{"policy":"QLRU-1","capacity":65536,"assoc":8}}]}}"#
        );
        assert_ne!(key(&body), canonical, "containment {containment:?}");
    }
    // Swapping the per-level policies is a different hierarchy.
    assert_ne!(
        key(
            r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"nine","levels":[
                {"policy":"QLRU-1","capacity":8192,"assoc":4},
                {"policy":"PLRU","capacity":65536,"assoc":8}]}"#
        ),
        canonical
    );
}

/// Hierarchy geometry and containment combinations that cannot execute
/// are 400s at the protocol door, never worker jobs.
#[test]
fn hierarchy_requests_reject_invalid_combinations_at_parse_time() {
    let rejected = [
        // No levels at all, and more levels than the serving cap.
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[
            {"policy":"LRU","capacity":4096,"assoc":4},
            {"policy":"LRU","capacity":8192,"assoc":4},
            {"policy":"LRU","capacity":16384,"assoc":4},
            {"policy":"LRU","capacity":32768,"assoc":4},
            {"policy":"LRU","capacity":65536,"assoc":4}]}"#,
        // Inclusive with a non-growing capacity: the subset invariant
        // cannot hold.
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"inclusive",
            "levels":[{"policy":"LRU","capacity":65536,"assoc":8},
                      {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"inclusive",
            "levels":[{"policy":"LRU","capacity":131072,"assoc":8},
                      {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        // Unknown containment, bad per-level geometry, bad policy.
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","containment":"mostly",
            "levels":[{"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[
            {"policy":"LRU","capacity":999,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[
            {"policy":"NOPE","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[
            {"policy":"SLRU-8","capacity":65536,"assoc":8}]}"#,
        // Latency list must match the level count, cycle counts must be
        // positive, and the writes fraction is a fraction.
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","latencies":[3],"levels":[
            {"policy":"PLRU","capacity":8192,"assoc":4},
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","latencies":[0,15],"levels":[
            {"policy":"PLRU","capacity":8192,"assoc":4},
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","memory_latency":0,"levels":[
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","writes":1.5,"levels":[
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
        // The outermost level obeys the simulate capacity cap and the
        // 16-line suite minimum.
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","levels":[
            {"policy":"LRU","capacity":33554432,"assoc":8}]}"#,
        r#"{"type":"simulate_hierarchy","workload":"fit_loop","line":4096,"levels":[
            {"policy":"LRU","capacity":32768,"assoc":8}]}"#,
        // Missing the workload entirely.
        r#"{"type":"simulate_hierarchy","levels":[
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#,
    ];
    for body in rejected {
        assert!(Request::parse(body).is_err(), "body {body:?} must fail");
    }
    // An unknown *workload name* is NOT a parse error: the suite depends
    // on the geometry, so it resolves at execution into an error body.
    assert!(Request::parse(
        r#"{"type":"simulate_hierarchy","workload":"nope","levels":[
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#
    )
    .is_ok());
}

/// Semantically different requests must produce distinct keys across
/// the entire 13-policy differential set and several geometries — a
/// collision would silently serve one policy's results for another.
#[test]
fn no_collisions_across_the_differential_policy_set() {
    let mut seen: HashMap<u64, String> = HashMap::new();
    let mut check = |body: String| {
        let request = Request::parse(&body).unwrap_or_else(|e| panic!("{body:?}: {e}"));
        let canonical = request.canonical_json();
        if let Some(previous) = seen.insert(request.cache_key(), canonical.clone()) {
            assert_eq!(
                previous, canonical,
                "distinct canonical requests collided on one key"
            );
        }
    };

    for kind in PolicyKind::differential_kinds() {
        let label = kind.label();
        for assoc in [2, 4, 8] {
            if kind.validate_for_assoc(assoc).is_err() {
                // e.g. SLRU-2 at assoc 2: no probationary position, so
                // the protocol rejects it at parse time instead of
                // letting a worker job panic. Assert the rejection and
                // move on — an unparsable request has no cache key.
                let body = format!(r#"{{"type":"distances","policy":"{label}","assoc":{assoc}}}"#);
                assert!(Request::parse(&body).is_err(), "body {body:?} must fail");
                continue;
            }
            check(format!(
                r#"{{"type":"distances","policy":"{label}","assoc":{assoc}}}"#
            ));
            for workload in ["seq_stream", "zipf_hot", "thrash_loop"] {
                check(format!(
                    r#"{{"type":"simulate","policy":"{label}","capacity":65536,
                        "assoc":{assoc},"workload":"{workload}"}}"#
                ));
            }
            check(format!(
                r#"{{"type":"eviction_set","policy":"{label}","assoc":{assoc}}}"#
            ));
            for scenario in ["hold_resident", "hold_evicted"] {
                check(format!(
                    r#"{{"type":"attack_score","policy":"{label}","assoc":{assoc},
                        "scenario":"{scenario}"}}"#
                ));
            }
        }
    }
    // Rounds and seed are part of an attack_score's identity.
    for rounds in [1, 8, 64] {
        for seed in [0u64, 42] {
            check(format!(
                r#"{{"type":"attack_score","policy":"LRU","assoc":4,
                    "scenario":"evicted","rounds":{rounds},"seed":{seed}}}"#
            ));
        }
    }
    for seed in 0..50u64 {
        check(format!(
            r#"{{"type":"infer","cpu":"atom_d525","seed":{seed}}}"#
        ));
        check(format!(
            r#"{{"type":"workloads","capacity":65536,"seed":{seed}}}"#
        ));
    }
    for engine in ["automata", "auto"] {
        check(format!(
            r#"{{"type":"infer","cpu":"quark_x1000","engine":"{engine}"}}"#
        ));
    }
    // Hierarchy cells: every containment × a few LLC policies, plus the
    // same levels flattened to one — none may collide with each other or
    // with the flat simulate corpus above.
    for containment in ["inclusive", "exclusive", "nine"] {
        for llc in ["LRU", "PLRU", "SRRIP", "QLRU-1"] {
            check(format!(
                r#"{{"type":"simulate_hierarchy","workload":"zipf_hot",
                    "containment":"{containment}","levels":[
                    {{"policy":"PLRU","capacity":8192,"assoc":4}},
                    {{"policy":"{llc}","capacity":65536,"assoc":8}}]}}"#
            ));
        }
    }
    check(
        r#"{"type":"simulate_hierarchy","workload":"zipf_hot","levels":[
            {"policy":"LRU","capacity":65536,"assoc":8}]}"#
            .to_owned(),
    );
    // Seven bodies per valid (kind, assoc) cell — distances, three
    // simulates, eviction_set, two attack_scores — plus the seeded
    // infer/workloads sweep and the rounds/seed grid.
    assert!(
        seen.len() > 37 * 7 + 100,
        "expected full corpus, saw {} keys",
        seen.len()
    );
}

/// Invalid UTF-8 must be refused at the door, not lossily repaired:
/// `from_utf8_lossy` rewrites bad sequences to U+FFFD, which can turn
/// an invalid body into a *different* well-formed request — and a
/// cache key for bytes the client never sent.
#[test]
fn invalid_utf8_bodies_are_rejected_not_mangled() {
    use cachekit::serve::http::client::Connection;
    use cachekit::serve::{ServeConfig, Server};

    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut conn = Connection::open(&handle.addr().to_string()).expect("connect");

    // A valid request with one stray continuation byte inside a string:
    // bytewise invalid UTF-8, but lossy repair would yield well-formed
    // JSON again ("LR\u{FFFD}U") instead of surfacing the corruption.
    let valid = br#"{"type":"distances","policy":"LRU","assoc":4}"#;
    let mut corrupted = valid.to_vec();
    let inside_string = corrupted
        .windows(3)
        .position(|w| w == b"LRU")
        .expect("marker")
        + 2;
    corrupted.insert(inside_string, 0xFF);

    let refused = conn
        .request(
            "POST",
            "/v1/query",
            &[("Content-Type", "application/json")],
            &corrupted,
        )
        .expect("request");
    assert_eq!(refused.status, 400, "body: {}", refused.body_str());
    assert!(
        refused.body_str().contains("not valid UTF-8"),
        "the refusal must name the encoding problem: {}",
        refused.body_str()
    );

    // The byte-exact valid request still passes on the same connection.
    let accepted = conn
        .request(
            "POST",
            "/v1/query",
            &[("Content-Type", "application/json")],
            valid,
        )
        .expect("request");
    assert_eq!(accepted.status, 200, "body: {}", accepted.body_str());

    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
    assert_eq!(
        report.submitted, 1,
        "only the valid body may reach admission"
    );
}

#[test]
fn canonical_json_round_trips_to_the_same_request() {
    let bodies = [
        r#"{"type":"infer","cpu":"core2_e6300","level":"l2","budget":50000}"#,
        r#"{"type":"simulate","policy":"SRRIP","capacity":131072,"assoc":16,
            "workload":"ptr_chase","writes":0.5,"seed":3}"#,
        r#"{"type":"distances","policy":"BIP","assoc":8}"#,
        r#"{"type":"workloads","capacity":32768,"line":32,"seed":1}"#,
        r#"{"type":"eviction_set","policy":"CLOCK","assoc":8}"#,
        r#"{"type":"attack_score","policy":"SLRU-2","assoc":4,"scenario":"evicted",
            "rounds":16,"seed":5}"#,
        r#"{"type":"simulate_hierarchy","workload":"gc_trace","containment":"exclusive",
            "levels":[{"policy":"PLRU","capacity":8192,"assoc":4},
                      {"policy":"SRRIP","capacity":131072,"assoc":16}],
            "writes":0.3,"seed":11,"latencies":[4,40],"memory_latency":150}"#,
    ];
    for body in bodies {
        let request = Request::parse(body).unwrap();
        let canonical = request.canonical_json();
        let reparsed = Request::parse(&canonical).unwrap();
        assert_eq!(request, reparsed, "canonical form must be a fixed point");
        assert_eq!(reparsed.canonical_json(), canonical);
    }
}

/// Two `simulate` requests whose canonical JSON differs in `writes`
/// and `seed` but whose unkeyed 64-bit FNV-1a hashes are equal
/// (`b3399244af86f1bc`), found offline by a collision search. A client
/// that sends the first must not plant the answer to the second: the
/// second is computed (`X-Cache: miss`) and gets its own body.
#[test]
fn a_crafted_hash_collision_cannot_answer_another_request() {
    use cachekit::serve::http::client::Connection;
    use cachekit::serve::{Executor, PipelineExecutor, ServeConfig, Server};

    let planted = r#"{"type":"simulate","policy":"LRU","capacity":4096,"assoc":4,"line":64,"workload":"zipf_hot","writes":0.97406005859375,"seed":472979717596352}"#;
    let victim = r#"{"type":"simulate","policy":"LRU","capacity":4096,"assoc":4,"line":64,"workload":"zipf_hot","writes":0.53619384765625,"seed":458633912187062}"#;
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut conn = Connection::open(&handle.addr().to_string()).expect("connect");
    let first = conn.post_json("/v1/query", planted).expect("request");
    assert_eq!(first.status, 200, "body: {}", first.body_str());
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = conn.post_json("/v1/query", victim).expect("request");
    assert_eq!(second.status, 200, "body: {}", second.body_str());
    assert_eq!(
        second.header("x-cache"),
        Some("miss"),
        "a different request was answered from another request's entry"
    );
    let own = PipelineExecutor
        .execute(&Request::parse(victim).unwrap())
        .to_compact();
    assert_eq!(second.body_str(), own);
    assert_ne!(second.body_str(), first.body_str());
    handle.shutdown();
}

/// LIP and SLRU are permutation policies that insert below the front;
/// `distances` must answer them with what the solvers over the
/// concrete policy compute.
#[test]
fn distances_answers_policies_that_insert_below_the_front() {
    use cachekit::core::analysis::{evict_distance, minimal_lifespan, DistanceError};
    use cachekit::serve::{Executor, PipelineExecutor};

    let show = |r: Result<usize, DistanceError>| match r {
        Ok(v) => v.to_string(),
        Err(DistanceError::Unbounded) => "\"unbounded\"".to_owned(),
        Err(e) => panic!("the concrete solver failed: {e}"),
    };
    for (label, kind) in [
        ("LIP", PolicyKind::Lip),
        ("SLRU-2", PolicyKind::Slru { protected: 2 }),
    ] {
        let policy = kind.build_state(4, 0);
        let request = format!(r#"{{"type":"distances","policy":"{label}","assoc":4}}"#);
        let body = PipelineExecutor
            .execute(&Request::parse(&request).unwrap())
            .to_compact();
        let want = format!(
            "\"evict_distance\":{},\"minimal_lifespan\":{}",
            show(evict_distance(&policy, 8_000_000)),
            show(minimal_lifespan(&policy, 8_000_000))
        );
        assert!(body.contains("\"ok\":true"), "{label}: {body}");
        assert!(body.contains(&want), "{label}: want {want}, body: {body}");
    }
}
