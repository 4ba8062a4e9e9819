//! Backpressure and drain semantics of the serving layer, made
//! deterministic with a scripted (gate-blocked) executor, plus the
//! serving gates that need a real server:
//!
//! * a saturated queue answers `429` with a `Retry-After` hint;
//! * graceful drain completes every admitted job — nothing is dropped;
//! * a job that out-waits the deadline is shed with `503`, not run;
//! * a thousand concurrent keep-alive connections cost no threads and
//!   each answers a query and an 8-deep pipelined round;
//! * a cache hit replays the cold path's bytes exactly, at least 100x
//!   faster than the cold inference in service time.

use cachekit::serve::http::client::{ClientResponse, Connection};
use cachekit::serve::{sys, Executor, Json, Request, ServeConfig, Server, ServerHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An executor that blocks every execution until [`Gate::release`] —
/// saturation becomes a scripted certainty instead of a race.
struct GatedExecutor {
    gate: Arc<Gate>,
}

struct Gate {
    released: Mutex<bool>,
    condvar: Condvar,
    executions: AtomicU64,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            released: Mutex::new(false),
            condvar: Condvar::new(),
            executions: AtomicU64::new(0),
        })
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.condvar.notify_all();
    }

    fn wait(&self) {
        let guard = self.released.lock().unwrap();
        let _guard = self
            .condvar
            .wait_while(guard, |released| !*released)
            .unwrap();
    }
}

impl Executor for GatedExecutor {
    fn execute(&self, request: &Request) -> Json {
        self.gate.wait();
        self.gate.executions.fetch_add(1, Ordering::SeqCst);
        Json::object(vec![
            ("ok", Json::from(true)),
            ("echo", Json::from(request.canonical_json())),
        ])
    }
}

fn gated_server(queue_depth: usize, deadline: Option<Duration>) -> (ServerHandle, Arc<Gate>) {
    let gate = Gate::new();
    let handle = Server::start_with_executor(
        ServeConfig {
            queue_shards: 1,
            workers_per_shard: 1,
            queue_depth,
            cache_capacity: 0, // every request must reach admission
            deadline,
            retry_unit_ms: 20,
            ..ServeConfig::default()
        },
        Arc::new(GatedExecutor {
            gate: Arc::clone(&gate),
        }),
    )
    .expect("bind ephemeral port");
    (handle, gate)
}

fn body_for(seed: u64) -> String {
    format!(
        r#"{{"type":"distances","policy":"LRU","assoc":{}}}"#,
        2 + seed % 8
    )
}

/// Fire `count` distinct queries concurrently; return (status,
/// retry-after header, body) triples.
fn fire_concurrent(addr: &str, count: u64) -> Vec<(u16, Option<String>, String)> {
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for lane in 0..count {
            let results = &results;
            scope.spawn(move || {
                let mut conn = Connection::open(addr).expect("connect");
                let resp = conn
                    .post_json("/v1/query", &body_for(lane))
                    .expect("request");
                results.lock().unwrap().push((
                    resp.status,
                    resp.header("retry-after").map(str::to_owned),
                    resp.body_str(),
                ));
            });
        }
    });
    results.into_inner().unwrap()
}

#[test]
fn saturation_answers_429_with_retry_after_and_drops_nothing() {
    // Depth 2, one blocked worker: of 8 distinct concurrent queries at
    // most 2 are admitted; the rest must bounce with 429.
    let (handle, gate) = gated_server(2, None);
    let addr = handle.addr().to_string();

    let puncher = {
        let addr = addr.clone();
        std::thread::spawn(move || fire_concurrent(&addr, 8))
    };
    // Admissions settle fast (the worker is gated); then open the gate
    // so accepted jobs can finish.
    std::thread::sleep(Duration::from_millis(300));
    gate.release();
    let results = puncher.join().expect("client threads");

    let ok = results.iter().filter(|(s, _, _)| *s == 200).count();
    let throttled: Vec<_> = results.iter().filter(|(s, _, _)| *s == 429).collect();
    assert_eq!(ok + throttled.len(), 8, "results: {results:?}");
    assert!(
        (1..=6).contains(&throttled.len()),
        "8 queries at depth 2 must see refusals and admissions: {results:?}"
    );
    for (_, retry_after, body) in &throttled {
        let secs: u64 = retry_after
            .as_deref()
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!(secs >= 1);
        assert!(body.contains("\"retry_after_ms\":"), "body: {body}");
    }

    let report = handle.shutdown();
    assert_eq!(
        report.submitted, report.completed,
        "admitted jobs must all run"
    );
    assert_eq!(report.submitted, ok as u64);
    assert_eq!(report.rejected, throttled.len() as u64);
    assert_eq!(gate.executions.load(Ordering::SeqCst), ok as u64);
}

#[test]
fn graceful_drain_completes_every_inflight_job() {
    let (handle, gate) = gated_server(16, None);
    let addr = handle.addr().to_string();

    let puncher = {
        let addr = addr.clone();
        std::thread::spawn(move || fire_concurrent(&addr, 4))
    };
    std::thread::sleep(Duration::from_millis(300));

    // Shutdown while all four jobs are admitted and the worker is still
    // gated; release the gate from a helper so drain can finish.
    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            gate.release();
        })
    };
    let report = handle.shutdown();
    releaser.join().unwrap();

    let results = puncher.join().expect("client threads");
    assert!(
        results.iter().all(|(status, _, _)| *status == 200),
        "in-flight jobs must complete with real responses: {results:?}"
    );
    assert_eq!(report.submitted, 4);
    assert_eq!(report.completed, 4, "drain dropped jobs: {report:?}");
    assert_eq!(gate.executions.load(Ordering::SeqCst), 4);
}

#[test]
fn jobs_past_the_deadline_are_shed_not_executed() {
    let (handle, gate) = gated_server(8, Some(Duration::from_millis(50)));
    let addr = handle.addr().to_string();

    // Plug the single worker: this job passes its deadline check fresh,
    // then blocks on the gate mid-execution.
    let plug = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut conn = Connection::open(&addr).expect("connect");
            conn.post_json("/v1/query", r#"{"type":"workloads","capacity":65536}"#)
                .expect("plug request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // These three queue behind the plug and out-wait the 50 ms
    // deadline; on release each reaches its deadline check stale.
    let puncher = {
        let addr = addr.clone();
        std::thread::spawn(move || fire_concurrent(&addr, 3))
    };
    std::thread::sleep(Duration::from_millis(200));
    gate.release();
    let results = puncher.join().expect("client threads");
    assert_eq!(plug.join().expect("plug thread").status, 200);

    let shed = results.iter().filter(|(s, _, _)| *s == 503).count();
    assert_eq!(shed, 3, "stale jobs must shed: {results:?}");
    for (_, retry_after, body) in &results {
        assert!(retry_after.is_some(), "shed responses carry Retry-After");
        assert!(body.contains("shed"), "body: {body}");
    }
    // Shed jobs still count as completed (their closure ran), but only
    // the plug ever reached the executor.
    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
    assert_eq!(
        gate.executions.load(Ordering::SeqCst),
        1,
        "shed jobs must not execute the pipeline"
    );
}

#[test]
fn identical_racing_queries_execute_once_and_coalesce() {
    // Six concurrent *identical* cold queries: single-flight must run
    // the pipeline exactly once — one leader (X-Cache: miss), five
    // followers (X-Cache: coalesced) — all with the same bytes.
    // Capacity 16 ≫ 1 proves coalescing, not saturation, did the work.
    let (handle, gate) = gated_server(16, None);
    let addr = handle.addr().to_string();
    let body = body_for(0);

    let results = Mutex::new(Vec::new());
    let puncher = std::thread::spawn({
        let addr = addr.clone();
        let body = body.clone();
        move || {
            std::thread::scope(|scope| {
                for _ in 0..6 {
                    let (results, addr, body) = (&results, &addr, &body);
                    scope.spawn(move || {
                        let mut conn = Connection::open(addr).expect("connect");
                        let resp = conn.post_json("/v1/query", body).expect("request");
                        results.lock().unwrap().push((
                            resp.status,
                            resp.header("x-cache").map(str::to_owned),
                            resp.body_str(),
                        ));
                    });
                }
            });
            results.into_inner().unwrap()
        }
    });
    // Give all six time to reach the in-flight registry, then let the
    // single gated execution proceed.
    std::thread::sleep(Duration::from_millis(300));
    gate.release();
    let results = puncher.join().expect("client threads");

    assert!(
        results.iter().all(|(status, _, _)| *status == 200),
        "results: {results:?}"
    );
    let marks = |wanted: &str| {
        results
            .iter()
            .filter(|(_, mark, _)| mark.as_deref() == Some(wanted))
            .count()
    };
    assert_eq!(marks("miss"), 1, "exactly one leader: {results:?}");
    assert_eq!(marks("coalesced"), 5, "five followers: {results:?}");
    let reference = &results[0].2;
    assert!(
        results.iter().all(|(_, _, body)| body == reference),
        "coalesced bodies must be byte-identical: {results:?}"
    );
    assert_eq!(
        gate.executions.load(Ordering::SeqCst),
        1,
        "single-flight must run the pipeline exactly once"
    );

    let mut conn = Connection::open(&addr).expect("connect");
    let metrics = conn.get("/metrics").expect("metrics");
    assert!(
        metrics.body_str().contains("\"coalesced\":5"),
        "metrics must expose the coalesced counter: {}",
        metrics.body_str()
    );

    let report = handle.shutdown();
    assert_eq!(report.submitted, 1, "one admission for six requests");
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn late_arrivals_during_drain_get_503_not_silence() {
    // A client that connects after drain began (but before listener
    // teardown) must receive the 503 draining body — not a silent
    // close with zero bytes.
    let (handle, gate) = gated_server(8, None);
    gate.release(); // nothing gated in this test
    let addr = handle.addr().to_string();

    let mut conn = Connection::open(&addr).expect("connect");
    let resp = conn.post_json("/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200);

    // Fresh connections racing the drain: queries answer 503 draining,
    // health reports draining — nobody is dropped without a response.
    let mut late = Connection::open(&addr).expect("late arrival must still connect");
    let refusal = late
        .post_json("/v1/query", &body_for(1))
        .expect("late arrival must get a response, not a silent close");
    assert_eq!(refusal.status, 503, "body: {}", refusal.body_str());
    assert!(
        refusal.body_str().contains("draining"),
        "body: {}",
        refusal.body_str()
    );
    assert!(
        refusal.header("retry-after").is_some(),
        "draining refusals carry Retry-After"
    );

    let mut health_probe = Connection::open(&addr).expect("connect");
    let health = health_probe.get("/healthz").expect("healthz");
    assert_eq!(health.status, 503);
    assert!(health.body_str().contains("draining"));

    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn pipelined_requests_get_in_order_responses() {
    // Three requests in one write, three in-order responses, mixed
    // hit/miss — bodies byte-identical to serial issuance.
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let first = r#"{"type":"distances","policy":"LRU","assoc":4}"#;
    let second = r#"{"type":"distances","policy":"FIFO","assoc":4}"#;
    let third = r#"{"type":"distances","policy":"PLRU","assoc":8}"#;

    // Warm the first two serially on one connection.
    let mut serial = Connection::open(&addr).expect("connect");
    let serial_first = serial.post_json("/v1/query", first).expect("warm first");
    let serial_second = serial.post_json("/v1/query", second).expect("warm second");
    assert_eq!(
        serial_first.status,
        200,
        "body: {}",
        serial_first.body_str()
    );
    assert_eq!(serial_second.status, 200);

    // Pipeline hit, hit, miss in a single write on a second connection.
    let mut piped = Connection::open(&addr).expect("connect");
    let responses = piped
        .post_json_pipelined("/v1/query", &[first, second, third])
        .expect("pipelined burst");
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| r.status == 200));
    assert_eq!(responses[0].header("x-cache"), Some("hit"));
    assert_eq!(responses[1].header("x-cache"), Some("hit"));
    assert_eq!(responses[2].header("x-cache"), Some("miss"));
    assert_eq!(
        responses[0].body, serial_first.body,
        "pipelined responses must be byte-identical to serial issue"
    );
    assert_eq!(responses[1].body, serial_second.body);

    // The pipelined miss populated the cache; a serial replay matches.
    let serial_third = serial.post_json("/v1/query", third).expect("replay third");
    assert_eq!(serial_third.header("x-cache"), Some("hit"));
    assert_eq!(serial_third.body, responses[2].body);

    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn thousand_idle_connections_need_no_thousand_threads() {
    // The c10k smoke, scaled for CI: a thousand idle keep-alive
    // connections must be parked epoll registrations, not a thousand
    // handler threads, and every one of them must still answer. Thread
    // count is read from /proc/self/task (client connections live in
    // this process and cost no threads either, so the delta isolates
    // the server's behaviour).
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .count()
    }

    // Both ends of every connection are descriptors of this process,
    // more than the common soft limit of 1,024 allows; the headroom
    // covers the listener, epoll and eventfd descriptors and stdio.
    let wanted = 2 * 1000 + 128;
    let limit = sys::raise_nofile_limit(wanted);
    assert!(
        limit >= wanted,
        "RLIMIT_NOFILE: {wanted} descriptors needed, but the limit could only be raised \
         to {limit}; the hard limit is too low for this test"
    );

    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 1,
        reactors: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let before = thread_count();
    let mut conns: Vec<Connection> = (0..1000)
        .map(|i| Connection::open(&addr).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();
    // Let the reactors adopt everything the backlog held.
    std::thread::sleep(Duration::from_millis(300));
    let after = thread_count();
    assert!(
        after <= before + 4,
        "idle connections must not spawn threads: {before} -> {after} for 1000 conns"
    );

    // The parked connections are all live: each answers one cacheable
    // query and then an 8-deep pipelined round of it.
    let body = r#"{"type":"distances","policy":"LRU","assoc":8}"#;
    for (index, conn) in conns.iter_mut().enumerate() {
        let single = conn
            .post_json("/v1/query", body)
            .unwrap_or_else(|e| panic!("connection {index}: {e}"));
        assert_eq!(
            single.status,
            200,
            "connection {index}: {}",
            single.body_str()
        );
        let round = conn
            .post_json_pipelined("/v1/query", &[body; 8])
            .unwrap_or_else(|e| panic!("connection {index}, pipelined: {e}"));
        assert_eq!(round.len(), 8, "connection {index}");
        assert!(
            round.iter().all(|r| r.status == 200),
            "connection {index}, pipelined: {:?}",
            round.iter().map(|r| r.status).collect::<Vec<_>>()
        );
    }

    drop(conns);
    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
    assert_eq!(report.panicked, 0);
}

#[test]
fn gated_attack_score_jobs_coalesce_like_every_other_type() {
    // The attack_score job type rides the same admission, gating, and
    // single-flight machinery as the rest of the protocol: six
    // identical gated queries, one execution, five coalesced replays.
    let (handle, gate) = gated_server(16, None);
    let addr = handle.addr().to_string();
    let body =
        r#"{"type":"attack_score","policy":"FIFO","assoc":4,"scenario":"resident","rounds":8}"#;

    let results = Mutex::new(Vec::new());
    let puncher = std::thread::spawn({
        let addr = addr.clone();
        move || {
            std::thread::scope(|scope| {
                for _ in 0..6 {
                    let (results, addr) = (&results, &addr);
                    scope.spawn(move || {
                        let mut conn = Connection::open(addr).expect("connect");
                        let resp = conn.post_json("/v1/query", body).expect("request");
                        results.lock().unwrap().push((
                            resp.status,
                            resp.header("x-cache").map(str::to_owned),
                            resp.body_str(),
                        ));
                    });
                }
            });
            results.into_inner().unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    gate.release();
    let results = puncher.join().expect("client threads");

    assert!(
        results.iter().all(|(status, _, _)| *status == 200),
        "results: {results:?}"
    );
    let leaders = results
        .iter()
        .filter(|(_, mark, _)| mark.as_deref() == Some("miss"))
        .count();
    assert_eq!(leaders, 1, "exactly one leader: {results:?}");
    assert_eq!(
        gate.executions.load(Ordering::SeqCst),
        1,
        "single-flight must run the attack_score pipeline exactly once"
    );
    let report = handle.shutdown();
    assert_eq!(report.submitted, 1, "one admission for six requests");
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn duplicate_cold_hierarchy_queries_coalesce_into_one_execution() {
    // simulate_hierarchy is the most expensive simulate-family job; six
    // racing duplicates of a cold query must fund exactly one pipeline
    // execution, with five coalesced byte-identical replays.
    let (handle, gate) = gated_server(16, None);
    let addr = handle.addr().to_string();
    let body = r#"{"type":"simulate_hierarchy","workload":"thrash_loop",
        "containment":"inclusive","levels":[
        {"policy":"PLRU","capacity":8192,"assoc":4},
        {"policy":"LRU","capacity":65536,"assoc":8}]}"#;

    let results = Mutex::new(Vec::new());
    let puncher = std::thread::spawn({
        let addr = addr.clone();
        move || {
            std::thread::scope(|scope| {
                for _ in 0..6 {
                    let (results, addr) = (&results, &addr);
                    scope.spawn(move || {
                        let mut conn = Connection::open(addr).expect("connect");
                        let resp = conn.post_json("/v1/query", body).expect("request");
                        results.lock().unwrap().push((
                            resp.status,
                            resp.header("x-cache").map(str::to_owned),
                            resp.body_str(),
                        ));
                    });
                }
            });
            results.into_inner().unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    gate.release();
    let results = puncher.join().expect("client threads");

    assert!(
        results.iter().all(|(status, _, _)| *status == 200),
        "results: {results:?}"
    );
    let leaders = results
        .iter()
        .filter(|(_, mark, _)| mark.as_deref() == Some("miss"))
        .count();
    assert_eq!(leaders, 1, "exactly one leader: {results:?}");
    let bodies: std::collections::HashSet<&str> =
        results.iter().map(|(_, _, body)| body.as_str()).collect();
    assert_eq!(
        bodies.len(),
        1,
        "coalesced bodies must be byte-identical: {results:?}"
    );
    assert_eq!(
        gate.executions.load(Ordering::SeqCst),
        1,
        "single-flight must run the hierarchy pipeline exactly once"
    );
    let report = handle.shutdown();
    assert_eq!(report.submitted, 1, "one admission for six requests");
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn attack_jobs_execute_end_to_end_and_cache_honest_refusals() {
    // Real executor: an attack_score runs the stealth scorer, a
    // scenario alias replays from cache, and an eviction_set against a
    // stochastic policy is a *cacheable* honest refusal (ok:false
    // body), not a transport error.
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut conn = Connection::open(&handle.addr().to_string()).expect("connect");

    let score = r#"{"type":"attack_score","policy":"FIFO","assoc":4,
                    "scenario":"hold_resident","rounds":8}"#;
    let cold = conn.post_json("/v1/query", score).expect("cold score");
    assert_eq!(cold.status, 200, "body: {}", cold.body_str());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert!(cold.body_str().contains("\"ok\":true"));
    assert!(
        cold.body_str().contains("\"guaranteed\":true"),
        "FIFO stealth is deterministic: {}",
        cold.body_str()
    );

    // The "resident" shorthand canonicalizes to the same cache key.
    let alias = r#"{"type":"attack_score","policy":"FIFO","assoc":4,
                    "scenario":"resident","rounds":8}"#;
    let warm = conn.post_json("/v1/query", alias).expect("warm score");
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "alias must replay the cold bytes");

    let evset = r#"{"type":"eviction_set","policy":"LRU","assoc":4}"#;
    let built = conn.post_json("/v1/query", evset).expect("eviction set");
    assert_eq!(built.status, 200, "body: {}", built.body_str());
    assert!(built.body_str().contains("\"confirmed\":true"));
    assert!(
        built.body_str().contains("\"length\":4"),
        "LRU needs assoc misses: {}",
        built.body_str()
    );

    let refusal_body = r#"{"type":"eviction_set","policy":"BIP","assoc":4}"#;
    let refusal = conn.post_json("/v1/query", refusal_body).expect("refusal");
    assert_eq!(refusal.status, 200, "a refusal is an answer, not a fault");
    assert!(refusal.body_str().contains("\"ok\":false"));
    let replay = conn.post_json("/v1/query", refusal_body).expect("replay");
    assert_eq!(replay.header("x-cache"), Some("hit"));
    assert_eq!(refusal.body, replay.body);

    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
}

#[test]
fn cache_hits_replay_cold_bytes_identically() {
    // Real executor: a full pipeline inference, cold then cached.
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut conn = Connection::open(&handle.addr().to_string()).expect("connect");

    let body = r#"{"type":"infer","cpu":"atom_d525","level":"l1"}"#;
    let cold = conn.post_json("/v1/query", body).expect("cold");
    assert_eq!(cold.status, 200, "body: {}", cold.body_str());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert!(cold.body_str().contains("\"degraded\":false"));

    // Same request, different field order: same canonical key.
    let reordered = r#"{"cpu":"atom_d525","level":"l1","type":"infer"}"#;
    let warm = conn.post_json("/v1/query", reordered).expect("warm");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(
        cold.body, warm.body,
        "cached replay must be byte-identical to the cold execution"
    );

    // The hit skips the whole pipeline: in server-side service time it
    // must be at least 100x faster than the cold inference it replays.
    // The fastest of three hits is gated, so one preemption of the
    // reactor by a test running in parallel cannot fail it.
    let service_us = |resp: &ClientResponse| -> u64 {
        resp.header("x-service-us")
            .expect("every query response carries X-Service-Us")
            .parse()
            .expect("X-Service-Us is integral microseconds")
    };
    let mut hit_us = service_us(&warm);
    for _ in 0..2 {
        let replay = conn.post_json("/v1/query", reordered).expect("replay");
        assert_eq!(replay.header("x-cache"), Some("hit"));
        assert_eq!(cold.body, replay.body);
        hit_us = hit_us.min(service_us(&replay));
    }
    let cold_us = service_us(&cold);
    assert!(
        cold_us >= 100 * hit_us.max(1),
        "a cache hit took {hit_us} us against {cold_us} us cold: under the 100x gate"
    );

    let report = handle.shutdown();
    assert_eq!(report.submitted, report.completed);
    assert_eq!(report.panicked, 0);
}
