//! One request must not take the server down. Requests at the 16 MiB
//! capacity cap are answered from trace lengths or refused by their
//! price or line count before anything runs, so none of them builds a
//! trace, a generator table or a cache it could not hold. ci.sh runs
//! this file under a virtual-memory limit: a change that builds a
//! capacity-cap trace again aborts the process there within seconds,
//! whatever the host's memory.

use cachekit::serve::http::client::Connection;
use cachekit::serve::{Json, ServeConfig, Server, MAX_SIMULATE_ACCESSES, MAX_SIMULATE_LINES};

const CAP: u64 = 16 * 1024 * 1024;

fn query(conn: &mut Connection, body: &str) -> (u16, Json) {
    let resp = conn.post_json("/v1/query", body).expect("request");
    let text = resp.body_str();
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("body {text:?}: {e}"));
    (resp.status, json)
}

fn error_of(json: &Json) -> &str {
    json.get("error").and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn capacity_cap_requests_are_answered_or_priced_out_and_the_server_survives() {
    let handle = Server::start(ServeConfig {
        queue_shards: 1,
        workers_per_shard: 1,
        reactors: 1,
        deadline: None,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let mut conn = Connection::open(&addr).expect("connect");

    // Listing the suite at the cap reports `matmul`'s 3 * 1182^3
    // accesses without generating it.
    let (status, body) = query(
        &mut conn,
        &format!(r#"{{"type":"workloads","capacity":{CAP}}}"#),
    );
    assert_eq!(status, 200, "body {}", body.to_compact());
    let Some(Json::Arr(entries)) = body.get("workloads") else {
        panic!("no workloads array: {}", body.to_compact());
    };
    assert_eq!(entries.len(), 11);
    let accesses = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|e| e.get("accesses"))
            .and_then(Json::as_u64)
    };
    assert_eq!(accesses("matmul"), Some(4_954_201_704));
    assert_eq!(accesses("zipf_hot"), Some(200_000));

    // A cheap workload at the cap is simulated: only its own trace is
    // built.
    let (status, body) = query(
        &mut conn,
        &format!(
            r#"{{"type":"simulate","policy":"LRU","capacity":{CAP},"assoc":16,
                "workload":"zipf_hot"}}"#
        ),
    );
    assert_eq!(status, 200, "body {}", body.to_compact());
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(body.get("accesses").and_then(Json::as_u64), Some(200_000));

    // `matmul` at the cap is priced out at parse time.
    let (status, body) = query(
        &mut conn,
        &format!(
            r#"{{"type":"simulate","policy":"LRU","capacity":{CAP},"assoc":16,
                "workload":"matmul"}}"#
        ),
    );
    assert_eq!(status, 400, "body {}", body.to_compact());
    let error = error_of(&body);
    assert!(error.contains("4954201704"), "{error}");
    assert!(
        error.contains(&MAX_SIMULATE_ACCESSES.to_string()),
        "{error}"
    );

    // A 512 KiB `matmul` alone fits the budget, but a four-level
    // hierarchy pays for it at every level: 4 * 27,387,987 accesses.
    let levels = r#"[{"policy":"LRU","capacity":32768,"assoc":8},
                     {"policy":"LRU","capacity":65536,"assoc":8},
                     {"policy":"LRU","capacity":262144,"assoc":8},
                     {"policy":"LRU","capacity":524288,"assoc":8}]"#;
    let (status, body) = query(
        &mut conn,
        &format!(r#"{{"type":"simulate_hierarchy","workload":"matmul","levels":{levels}}}"#),
    );
    assert_eq!(status, 400, "body {}", body.to_compact());
    assert!(error_of(&body).contains("109551948"), "{}", error_of(&body));

    // At a 1-byte line the cap is 2^24 lines: `zipf_hot` is cheap in
    // accesses, but its tables would span 2^26 lines (about 1 GiB), so the
    // line count is refused before anything is built.
    let (status, body) = query(
        &mut conn,
        &format!(
            r#"{{"type":"simulate","policy":"LRU","capacity":{CAP},"assoc":16,"line":1,
                "workload":"zipf_hot"}}"#
        ),
    );
    assert_eq!(status, 400, "body {}", body.to_compact());
    let error = error_of(&body);
    assert!(error.contains(&CAP.to_string()), "{error}");
    assert!(error.contains(&MAX_SIMULATE_LINES.to_string()), "{error}");

    // A non-inclusive hierarchy may put a larger level inside a small
    // outermost one; that level would allocate 2^30 lines of sets, so it
    // is refused like a flat cache of its size.
    let (status, body) = query(
        &mut conn,
        r#"{"type":"simulate_hierarchy","line":1,"workload":"zipf_hot","levels":[
            {"policy":"LRU","capacity":1073741824,"assoc":8},
            {"policy":"LRU","capacity":1048576,"assoc":8}]}"#,
    );
    assert_eq!(status, 400, "body {}", body.to_compact());
    let error = error_of(&body);
    assert!(error.contains("level 0"), "{error}");
    assert!(error.contains(&CAP.to_string()), "{error}");

    // An unknown workload is still a cacheable answer, not a refusal.
    let (status, body) = query(
        &mut conn,
        &format!(
            r#"{{"type":"simulate","policy":"LRU","capacity":{CAP},"assoc":16,
                "workload":"nope"}}"#
        ),
    );
    assert_eq!(status, 200, "body {}", body.to_compact());
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    assert!(error_of(&body).contains("unknown workload"));

    let health = conn.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.body_str());
    handle.shutdown();
}
