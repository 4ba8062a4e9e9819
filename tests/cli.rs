//! Smoke tests for the `cachekit` command-line tool.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cachekit"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, _, err) = run(&["help"]);
    assert!(ok);
    assert!(err.contains("simulate"));
    assert!(err.contains("infer"));
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("commands"));
}

#[test]
fn simulate_workload_reports_stats() {
    let (ok, out, err) = run(&[
        "simulate",
        "--policy",
        "PLRU",
        "--capacity",
        "65536",
        "--assoc",
        "8",
        "--workload",
        "zipf_hot",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("miss ratio"), "out: {out}");
    assert!(out.contains("policy PLRU"));
}

#[test]
fn simulate_with_writes_reports_writebacks() {
    let (ok, out, _) = run(&[
        "simulate",
        "--policy",
        "LRU",
        "--capacity",
        "65536",
        "--assoc",
        "8",
        "--workload",
        "thrash_loop",
        "--writes",
        "0.5",
    ]);
    assert!(ok);
    assert!(out.contains("writebacks:"));
}

#[test]
fn infer_identifies_the_atom_l1() {
    let (ok, out, err) = run(&["infer", "--cpu", "atom_d525", "--level", "l1"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("24 KiB"), "out: {out}");
    assert!(out.contains("policy = LRU"));
}

#[test]
fn infer_engine_flag_picks_the_backend() {
    // `auto` answers permutation-class policies with the cheap engine
    // and reports which backend produced the verdict.
    let (ok, out, err) = run(&[
        "infer",
        "--cpu",
        "atom_d525",
        "--level",
        "l1",
        "--engine",
        "auto",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("[permutation]"), "out: {out}");
    assert!(out.contains("policy = LRU"), "out: {out}");
}

#[test]
fn infer_rejects_unknown_engines() {
    let (ok, _, err) = run(&["infer", "--cpu", "atom_d525", "--engine", "quantum"]);
    assert!(!ok);
    assert!(err.contains("unknown engine"), "stderr: {err}");
}

#[test]
fn query_runs_against_a_policy() {
    let (ok, out, _) = run(&["query", "A B C A? B?", "--policy", "LRU", "--assoc", "2"]);
    assert!(ok);
    assert!(out.contains("M M"), "out: {out}");
}

#[test]
fn distances_prints_the_metrics() {
    let (ok, out, _) = run(&["distances", "--policy", "PLRU", "--assoc", "8"]);
    assert!(ok);
    assert!(out.contains("evict = 13"), "out: {out}");
    assert!(out.contains("mls = 4"));
}

#[test]
fn distances_covers_permutation_policies_that_insert_below_the_front() {
    // LIP and SLRU are permutation policies that insert at the bottom
    // and at the probationary position; their answers must be those of
    // the solvers over the concrete policy.
    use cachekit::core::analysis::{evict_distance, minimal_lifespan, DistanceError};
    use cachekit::policies::PolicyKind;
    let show = |r: Result<usize, DistanceError>| match r {
        Ok(v) => v.to_string(),
        Err(DistanceError::Unbounded) => "unbounded".to_owned(),
        Err(e) => panic!("the concrete solver failed: {e}"),
    };
    for (name, kind) in [
        ("LIP", PolicyKind::Lip),
        ("SLRU-2", PolicyKind::Slru { protected: 2 }),
    ] {
        let policy = kind.build_state(4, 0);
        let want = format!(
            "evict = {}, mls = {}",
            show(evict_distance(&policy, 8_000_000)),
            show(minimal_lifespan(&policy, 8_000_000))
        );
        let (ok, out, err) = run(&["distances", "--policy", name, "--assoc", "4"]);
        assert!(ok, "{name}: {err}");
        assert!(out.contains(&want), "{name}: want {want:?}, out: {out}");
    }
}

#[test]
fn distances_rejects_non_permutation_policies() {
    let (ok, _, err) = run(&["distances", "--policy", "BitPLRU", "--assoc", "4"]);
    assert!(!ok);
    assert!(err.contains("not a"), "err: {err}");
}

#[test]
fn workloads_lists_the_suite() {
    let (ok, out, _) = run(&["workloads", "--capacity", "65536"]);
    assert!(ok);
    assert!(out.contains("thrash_loop"));
    assert!(out.contains("stack_geo"));
}

#[test]
fn workloads_dump_and_simulate_round_trip() {
    let dir = std::env::temp_dir().join("cachekit_cli_traces");
    let dir_s = dir.display().to_string();
    let (ok, _, err) = run(&["workloads", "--capacity", "65536", "--out", &dir_s]);
    assert!(ok, "stderr: {err}");
    let trace = dir.join("fit_loop.trace");
    let (ok, out, err) = run(&[
        "simulate",
        "--policy",
        "LRU",
        "--capacity",
        "65536",
        "--assoc",
        "8",
        "--trace",
        &trace.display().to_string(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("miss ratio"));
}

#[test]
fn hierarchy_reports_per_level_stats_and_amat() {
    let (ok, out, err) = run(&[
        "hierarchy",
        "--levels",
        "PLRU:8192:4,QLRU-1:65536:8",
        "--containment",
        "inclusive",
        "--workload",
        "thrash_loop",
        "--writes",
        "0.2",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("inclusive containment"), "out: {out}");
    assert!(out.contains("L1:"), "out: {out}");
    assert!(out.contains("L2:"), "out: {out}");
    assert!(out.contains("back-invalidations:"), "out: {out}");
    assert!(out.contains("AMAT:"), "out: {out}");
}

#[test]
fn hierarchy_rejects_shrinking_inclusive_capacities() {
    let (ok, _, err) = run(&[
        "hierarchy",
        "--levels",
        "LRU:65536:8,LRU:8192:4",
        "--containment",
        "inclusive",
        "--workload",
        "fit_loop",
    ]);
    assert!(!ok);
    assert!(err.contains("strictly growing"), "stderr: {err}");
}

#[test]
fn trace_gen_convert_stats_round_trip_both_formats() {
    let dir = std::env::temp_dir().join("cachekit_cli_binary_traces");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ctb = dir.join("zipf.ctb").display().to_string();
    let txt = dir.join("zipf.txt").display().to_string();
    let back = dir.join("zipf_back.ctb").display().to_string();

    let (ok, out, err) = run(&[
        "trace",
        "gen",
        "--workload",
        "zipf_hot",
        "--capacity",
        "65536",
        "--writes",
        "0.25",
        "--out",
        &ctb,
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("binary format"), "out: {out}");

    // binary -> text -> binary must preserve every op bit-exactly.
    let (ok, _, err) = run(&[
        "trace", "convert", "--in", &ctb, "--out", &txt, "--format", "text",
    ]);
    assert!(ok, "stderr: {err}");
    let (ok, _, err) = run(&["trace", "convert", "--in", &txt, "--out", &back]);
    assert!(ok, "stderr: {err}");
    assert_eq!(
        std::fs::read(&ctb).expect("read original"),
        std::fs::read(&back).expect("read round-trip"),
        "binary -> text -> binary must be byte-identical"
    );

    // Both formats feed the simulator and the stats report.
    for path in [&ctb, &txt] {
        let (ok, out, err) = run(&[
            "simulate",
            "--policy",
            "LRU",
            "--capacity",
            "65536",
            "--assoc",
            "8",
            "--trace",
            path,
        ]);
        assert!(ok, "stderr: {err}");
        assert!(out.contains("miss ratio"), "out: {out}");
    }
    let (ok, out, err) = run(&["trace", "stats", "--in", &ctb]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("reuse distance"), "out: {out}");
    assert!(out.contains("cold fraction"), "out: {out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_stats_rejects_garbage_without_panicking() {
    let dir = std::env::temp_dir().join("cachekit_cli_garbled_traces");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("garbled.ctb");
    // A valid magic followed by a lying block header: typed error.
    let mut bytes = b"CKTB\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&[0xFF; 8]);
    std::fs::write(&path, &bytes).expect("write garbled trace");
    let (ok, _, err) = run(&["trace", "stats", "--in", &path.display().to_string()]);
    assert!(!ok);
    assert!(err.contains("error:"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_policy_is_a_clean_error() {
    let (ok, _, err) = run(&[
        "simulate",
        "--policy",
        "OPT",
        "--capacity",
        "1024",
        "--assoc",
        "2",
        "--workload",
        "zipf_hot",
    ]);
    assert!(!ok);
    assert!(err.contains("unknown policy"));
}

/// Run a command that must be refused cleanly: a non-zero exit with an
/// error on stderr and no panic. Returns stderr.
fn refused(args: &[&str]) -> String {
    let (ok, out, err) = run(args);
    assert!(!ok, "{args:?} succeeded: {out}");
    assert!(err.contains("error:"), "{args:?} stderr: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    err
}

#[test]
fn policies_the_associativity_cannot_take_are_clean_errors() {
    let cases: [&[&str]; 5] = [
        &[
            "simulate",
            "--policy",
            "SLRU-8",
            "--capacity",
            "32768",
            "--assoc",
            "8",
            "--workload",
            "zipf_hot",
        ],
        &["distances", "--policy", "SLRU-4", "--assoc", "4"],
        &["query", "--policy", "SLRU-4", "--assoc", "4", "A B C A?"],
        &["query", "--policy", "LRU", "--assoc", "0", "A B C A?"],
        &["distances", "--policy", "LRU", "--assoc", "200"],
    ];
    for args in cases {
        refused(args);
    }
}

#[test]
fn geometries_over_the_line_cap_are_refused() {
    // `workloads` comes first: without the cap it only lists lengths,
    // while the other commands would build a trace of 16 M lines.
    let cap = cachekit::serve::MAX_SIMULATE_LINES.to_string();
    let cases: [&[&str]; 4] = [
        &["workloads", "--capacity", "16777216", "--line", "1"],
        &[
            "simulate",
            "--policy",
            "LRU",
            "--capacity",
            "16777216",
            "--assoc",
            "16",
            "--line",
            "1",
            "--workload",
            "zipf_hot",
        ],
        &[
            "hierarchy",
            "--levels",
            "LRU:32768:8,LRU:16777216:16",
            "--line",
            "1",
            "--workload",
            "zipf_hot",
        ],
        &[
            "trace",
            "gen",
            "--workload",
            "zipf_hot",
            "--capacity",
            "16777216",
            "--line",
            "1",
            "--out",
            "unused.ctb",
        ],
    ];
    for args in cases {
        let err = refused(args);
        assert!(err.contains(&cap), "{args:?} does not name the cap: {err}");
    }
}
