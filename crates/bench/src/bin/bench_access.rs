//! Engine-throughput benchmark: enum vs batch-kernel access rates for
//! every differential policy kind at 4/8/16 ways, the two engines serve
//! runs; the kernel column is the inner-loop ceiling.
//!
//! Run with: `cargo run --release -p cachekit-bench --bin bench_access
//! [-- --smoke]`. The full run writes `results/bench_access.json`;
//! `--smoke` runs tiny streams and writes
//! `results/bench_access_smoke.json` instead (CI uses this to keep the
//! code path exercised without clobbering recorded numbers).
//!
//! Exits nonzero when a target row is missing from the sweep — e.g. a
//! (policy, assoc) pair whose batch kernel no longer compiles — so
//! regressions in engine coverage fail loudly instead of silently
//! recording a skip.

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: bench_access [--smoke]");
                println!("  --smoke   tiny streams, separate results file (for CI)");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let outcome = cachekit_bench::access::run_and_report(smoke);
    if !outcome.missing.is_empty() {
        eprintln!("bench_access: missing target rows:");
        for row in &outcome.missing {
            eprintln!("  - {row}");
        }
        std::process::exit(1);
    }
}
