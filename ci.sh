#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build+test command, and
# the offline build of the umbrella crate. Mirrors what a hosted CI job
# would run; everything here must pass before a commit lands.
#
# The workspace has no registry dependencies (the PRNG and JSON
# serializers are vendored), so every step below works with the network
# unplugged; --offline makes cargo fail loudly if that ever regresses.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings

# Public-API docs must build clean (broken intra-doc links and missing
# docs are errors, not noise).
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Tier-1: the seed's acceptance command. Its tests/serve_backpressure.rs
# holds the serving gates: 429 with Retry-After under saturation, no
# job dropped or panicked at drain, 1,000 concurrent connections that
# each answer, and a cache hit at least 100x faster than cold inference.
run cargo build --release
run cargo test -q

# The member crates' own unit and doc tests. The root manifest is a
# package, so the tier-1 `cargo test` above covers only the umbrella
# crate; this runs everything under crates/.
run cargo test -q --workspace --exclude cachekit

# The fault-injection kit at release optimisation (the differential
# matrix and the vote-engine edge cases are sized for release), plus a
# fault-matrix smoke of the robustness figure: small rates, 3 policy
# kinds, and the confident-wrong == 0 assertion built into the binary.
run cargo test -q --release --test fault_differential --test vote_plan
run cargo run --release -q -p cachekit-bench --bin fig11_robustness -- --smoke

# Engine differential at release optimisation: every engine (the
# eager and lazy table adapters, the batch kernels, and a boxed replica
# set that runs the permutation-spec interpreter for the recency-stack
# kinds, test-local references for the age-counter and bimodal kinds
# and the concrete policies for the rest) bit-identical to the enum
# engine over all 13 differential kinds, the catalog-spec -> table round
# trip, and the pinned digests of the recency-stack kinds, of the
# age-counter and bit-vector kinds (NRU, SRRIP-1..7, QLRU-0..3, BitPLRU,
# CLOCK, BRRIP at 1-128 ways), of the bimodal kinds (BIP-1/t and
# BRRIP-k-1/t at 1-128 ways) and the DIP and DRRIP duels (whole caches,
# PSEL after every access), and of the catalog.
run cargo test -q --release --test engine_differential

# Inference-engine differential at release optimisation: permutation
# vs automata verdict agreement over all 13 kinds (clean and faulted,
# confident_wrong == 0), the closed-form state-count pins, and the
# hidden-policy battery the automata backend exists for.
run cargo test -q --release --test automata_differential

# The adversarial scenario suites at release optimisation: eviction-set
# soundness *and* minimality against simulator ground truth, and the
# red-team matrix (adaptive adversaries, confident_wrong == 0, honest
# budget-drain degradation, layer-composition commutativity).
run cargo test -q --release --test eviction_sets --test adversarial_inference

# Attack-figure smoke: per-policy eviction sets, stealth scores at 8
# rounds, and one red-team cell per strategy; the binary itself asserts
# confident_wrong == 0 and that every met flag holds.
run cargo run --release -q -p cachekit-bench --bin fig12_attack -- --smoke

# The hierarchy engine at release optimisation: the inclusive-subset
# and exclusive-disjointness invariants after every operation, the
# single-level NINE == bare-Cache bit-identity across all differential
# kinds, and the binary trace format's bit-exact round trips plus the
# corruption matrix (typed errors, never panics).
run cargo test -q --release --test hierarchy_containment --test trace_roundtrip

# Serve robustness under a memory cap: requests at the 16 MiB capacity
# cap must be answered from trace lengths or refused by their price, so
# the server never builds a trace it cannot hold. Built outside the cap,
# run under a 4 GB address-space limit, so a change that builds such a
# trace again aborts here within seconds, whatever the host's memory
# and overcommit setting.
run cargo test -q --release --test serve_robustness --no-run
echo "==> (ulimit -v 4000000; cargo test -q --release --test serve_robustness)"
(ulimit -v 4000000 && cargo test -q --release --test serve_robustness)

# Hierarchy-figure smoke: 3 containments x 3 LLC policies x 4
# workloads through the three-level engine; the binary asserts its
# per-cell sanity and mechanism targets (back-invalidations, victim
# fills, containment spread) and exits nonzero on any unmet flag.
run cargo run --release -q -p cachekit-bench --bin fig13_hierarchy -- --smoke

# Fig. 3 reproduction: fig3_missratio is the only artifact that runs the
# DIP and DRRIP duels end to end, so rerun it in full (about 10 s on 2
# vCPUs) and require the committed results/fig3_missratio.json outside
# its run report, which holds the timings. The committed file is put
# back on every exit path, so this stage leaves the tree as it found it.
fig3=results/fig3_missratio.json
fig3_saved=$(mktemp)
cp "$fig3" "$fig3_saved"
trap 'cp "$fig3_saved" "$fig3"; rm -f "$fig3_saved"' EXIT
run cargo run --release -q -p cachekit-bench --bin fig3_missratio >/dev/null
echo "==> compare $fig3 with the committed copy outside run_report"
if ! diff <(jq 'del(.run_report)' "$fig3_saved") <(jq 'del(.run_report)' "$fig3") >/dev/null; then
    echo "ci: $fig3 does not reproduce outside run_report" >&2
    exit 1
fi
cp "$fig3_saved" "$fig3"
rm -f "$fig3_saved"
trap - EXIT

# The committed full-run artifacts must not record an unmet target
# either (fig12's attack flags, fig13's ranking-flip witness).
for artifact in results/fig12_attack.json results/fig13_hierarchy.json; do
    echo "==> grep -c '\"met\": false' $artifact"
    if grep -q '"met": false' "$artifact"; then
        echo "ci: $artifact records an unmet target" >&2
        exit 1
    fi
done

# Cost-table smoke: runs both engines side by side at A in {2, 4} and
# writes results/table3_cost_smoke.json (the committed full-run record
# in results/table3_cost.json covers the full associativity ladder).
run cargo run --release -q -p cachekit-bench --bin table3_cost -- --smoke

# Engine-throughput smoke: exercises all four engines (enum, the eager
# and lazy table adapters serve runs, and the batch kernel) end-to-end
# and writes the untracked results/bench_access_smoke.json (the recorded
# numbers in results/bench_access.json come from the full run). The
# binary itself exits nonzero if any target row is missing from the
# sweep — e.g. a (policy, assoc) kernel that stopped compiling.
run cargo run --release -q -p cachekit-bench --bin bench_access -- --smoke

# The committed full-run engine record must have closed every gap: no
# bare "n/a" cells (skips are typed: stochastic / table_blowup /
# no_kernel), and no target recorded as unmet.
echo "==> grep -c 'n/a' results/bench_access.json"
if grep -q 'n/a' results/bench_access.json; then
    echo "ci: results/bench_access.json contains untyped n/a cells" >&2
    exit 1
fi
echo "==> grep -c '\"met\": false' results/bench_access.json"
if grep -q '"met": false' results/bench_access.json; then
    echo "ci: results/bench_access.json records an unmet target" >&2
    exit 1
fi

# Every committed run report must carry the spans its run recorded: an
# empty metrics block means the artifact cannot say where its time went.
echo "==> grep -l '\"spans\": {}' \$(git ls-files 'results/*.json')"
if empty=$(grep -l '"spans": {}' $(git ls-files 'results/*.json')); then
    echo "ci: committed artifacts record no spans:" >&2
    echo "$empty" >&2
    exit 1
fi

# End-to-end benchmark smoke. perfbench is a workspace of its own, so
# no stage above builds it. One round of every workload at seed 1:
# each run checks all of its outputs, and its last line must report
# them correct with no failed operation. eval_sweep's round digest
# covers every statistic the sweep simulates, so any change to
# simulated behaviour (an engine, the address mapping, the hierarchy)
# fails here; update the pin only for an intended behaviour change.
# infer_cold's oracle access count covers every query the inference
# pipeline sends to the virtual CPUs, whose hidden policies include
# NRU and SRRIP-2, so a change to a hidden policy or to the query
# stream fails here too. hits_pipelined must also serve at least 10,000 pipelined cache hits
# per second. A 1-second run reads 100k-170k req/s on a 2-vCPU VM, so
# noise stays clear of the floor and a hit path slowed more than about
# tenfold trips it.
echo "==> CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for workload in sim_cold eval_sweep infer_cold hits_pipelined; do
    echo "==> perfbench --workload $workload --seed 1 --seconds 1 --trace 0"
    out=$(./.bench_build/release/cachekit-perfbench --workload "$workload" --seed 1 --seconds 1 --trace 0)
    last=$(tail -n 1 <<<"$out")
    if [[ "$last" != *'"correct": true,'* || "$last" != *'"failed": 0,'* ]]; then
        echo "ci: perfbench $workload reports failures: $last" >&2
        exit 1
    fi
    if [[ "$workload" == eval_sweep ]] && ! grep -q '^round 0 digest aa0f605088a8d4a5 ' <<<"$out"; then
        echo "ci: perfbench eval_sweep round 0 digest moved:" >&2
        grep '^round 0 digest' <<<"$out" >&2
        exit 1
    fi
    if [[ "$workload" == infer_cold ]] && ! grep -q ' oracle accesses=21107863 ' <<<"$out"; then
        echo "ci: perfbench infer_cold oracle traffic moved:" >&2
        grep -o 'oracle accesses=[0-9]*' <<<"$out" >&2
        exit 1
    fi
    if [[ "$workload" == hits_pipelined ]]; then
        rps=$(awk '$1 == "rps" && $2 == "=" { print $3 }' <<<"$out")
        if ! awk -v rps="$rps" 'BEGIN { exit !(rps != "" && rps + 0 >= 10000) }'; then
            echo "ci: perfbench hits_pipelined reads rps = ${rps:-none} req/s, under the 10,000 floor" >&2
            exit 1
        fi
    fi
done

# Offline build of the umbrella package specifically (regression guard
# for the seed's original failure: manifests referencing crates.io).
run cargo build --release -p cachekit --offline

# Public-API smoke check: the examples exercise the builder/layer API
# surface and must keep compiling against it, and each must run to
# completion (about 1.2 s for all of them on 2 vCPUs; trace_file writes
# only under the temp directory).
run cargo build --release --examples --offline
for example in examples/*.rs; do
    run cargo run --release -q --offline --example "$(basename "$example" .rs)"
done

echo "ci: all checks passed"
