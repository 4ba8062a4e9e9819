//! The workload suite is generated one workload at a time, and its
//! lengths are answered without generating:
//!
//! * every workload's trace is pinned by length and FNV-1a digest at two
//!   (capacity, seed) pairs, recorded from the whole-suite generator that
//!   preceded `workloads::generate`;
//! * the Fenwick-tree stack-distance generator and `measure` agree with
//!   the plain vector-stack algorithms they replaced, kept here as the
//!   reference;
//! * `generate(..).trace.len() == len(..) <= max_len(..)`, with equality
//!   for every workload whose length does not depend on the seed;
//! * the streaming write marker yields `with_writes`'s operations.

use cachekit::policies::rng::Prng;
use cachekit::trace::io::{with_writes, with_writes_iter};
use cachekit::trace::stack_dist::{measure, StackDistanceProfile};
use cachekit::trace::workloads;
use std::collections::HashMap;

/// FNV-1a over the little-endian bytes of every address.
fn digest(trace: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for addr in trace {
        for byte in addr.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// (capacity, seed, workload, length, digest) at 64-byte lines.
const PINS: [(u64, u64, &str, usize, u64); 22] = [
    (16384, 3, "seq_stream", 2048, 0x142d6658d5c4d325),
    (16384, 3, "fit_loop", 5120, 0x8d13395bfc30ef25),
    (16384, 3, "thrash_loop", 57600, 0xab43be912d382f25),
    (16384, 3, "zipf_hot", 200000, 0xc54b0da010360c8e),
    (16384, 3, "ptr_chase", 200000, 0xa1e62b8176646f8f),
    (16384, 3, "matmul", 139968, 0x9bdbe027c2050e45),
    (16384, 3, "stack_geo", 200000, 0x3140cdd38eac9ed8),
    (16384, 3, "scan_plus_hot", 12800, 0x7622edc45f07cf25),
    (16384, 3, "phase_switch", 160000, 0x61c07e1a11b6e71a),
    (16384, 3, "col_walk", 8192, 0x4633d7dbbd92bb25),
    (16384, 3, "gc_trace", 1521, 0xedc1e25f6d0f8f76),
    (131072, 11, "seq_stream", 16384, 0x27f103bfec469b25),
    (131072, 11, "fit_loop", 40960, 0xe3995be184d7e325),
    (131072, 11, "thrash_loop", 78336, 0xcfbe594344084325),
    (131072, 11, "zipf_hot", 200000, 0x682a3d686a0d07a8),
    (131072, 11, "ptr_chase", 200000, 0x31a47d58b61dcd5b),
    (131072, 11, "matmul", 3374592, 0x651b76bc49bdc145),
    (131072, 11, "stack_geo", 200000, 0x415196932784cf14),
    (131072, 11, "scan_plus_hot", 102400, 0xc18653aa1d961b25),
    (131072, 11, "phase_switch", 160000, 0x3b09a4ebb8ee5e4f),
    (131072, 11, "col_walk", 65536, 0x4d0af00b15c35325),
    (131072, 11, "gc_trace", 12061, 0x910a78e358f4f0b3),
];

#[test]
fn every_workload_trace_is_pinned_by_length_and_digest() {
    for (capacity, seed, name, len, pin) in PINS {
        let w = workloads::generate(name, capacity, 64, seed).expect("suite workload");
        assert_eq!(w.name, name);
        assert_eq!(w.trace.len(), len, "{name} at ({capacity}, {seed})");
        assert_eq!(
            digest(&w.trace),
            pin,
            "{name} at ({capacity}, {seed}) moved"
        );
    }
}

#[test]
fn suite_is_generate_over_names_in_order() {
    let suite = workloads::suite(16384, 64, 3);
    let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
    assert_eq!(names, workloads::NAMES);
    for w in &suite {
        let one = workloads::generate(w.name, 16384, 64, 3).unwrap();
        assert_eq!(one.trace, w.trace, "{}", w.name);
        assert_eq!(one.description, w.description, "{}", w.name);
        assert_eq!(workloads::description(w.name), Some(w.description));
    }
    assert!(workloads::generate("nope", 16384, 64, 3).is_none());
    assert_eq!(workloads::len("nope", 16384, 64, 3), None);
    assert_eq!(workloads::max_len("nope", 16384, 64), None);
    assert_eq!(workloads::description("nope"), None);
}

#[test]
fn lengths_match_generated_traces_without_generating() {
    for capacity in [1024u64, 16 * 1024, 48 * 1024, 256 * 1024] {
        for line in [32u64, 64] {
            for seed in [0u64, 7, 901] {
                for name in workloads::NAMES {
                    let generated = workloads::generate(name, capacity, line, seed)
                        .unwrap()
                        .trace
                        .len() as u64;
                    let len = workloads::len(name, capacity, line, seed).unwrap();
                    let max = workloads::max_len(name, capacity, line).unwrap();
                    let at = format!("{name} at ({capacity}, {line}, {seed})");
                    assert_eq!(generated, len, "{at}");
                    if name == "gc_trace" {
                        assert!(len <= max, "{at}: {len} > bound {max}");
                    } else {
                        assert_eq!(len, max, "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn max_len_is_closed_form_at_the_serving_cap() {
    let cap = 16 * 1024 * 1024;
    // 3 n^3 with n = floor(sqrt(2 cap / 24)) = 1182.
    assert_eq!(
        workloads::max_len("matmul", cap, 64),
        Some(3 * 1182u64.pow(3))
    );
    assert_eq!(
        workloads::max_len("scan_plus_hot", cap, 64),
        Some(13_107_200)
    );
    assert_eq!(workloads::max_len("zipf_hot", cap, 64), Some(200_000));
    let gc = workloads::len("gc_trace", cap, 64, 7).unwrap();
    let bound = workloads::max_len("gc_trace", cap, 64).unwrap();
    assert!((1_000_000..2_000_000).contains(&gc), "gc_trace = {gc}");
    assert!(gc <= bound && bound < 2 * gc, "{gc} vs bound {bound}");
}

/// The vector-stack generator `StackDistanceProfile::generate` replaced:
/// `remove(d)` and `insert(0, _)` on every access.
fn reference_generate(
    weights: &[f64],
    cold: f64,
    accesses: usize,
    line: u64,
    seed: u64,
) -> Vec<u64> {
    let total: f64 = weights.iter().sum::<f64>() + cold;
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cdf.push(acc);
    }
    let mut rng = Prng::seed_from_u64(seed);
    let mut stack: Vec<u64> = Vec::new();
    let mut next_block = 0u64;
    let mut trace = Vec::with_capacity(accesses);
    for _ in 0..accesses {
        let u = rng.gen::<f64>() * total;
        let block = match cdf.partition_point(|&c| c < u) {
            d if d < weights.len() && d < stack.len() => stack.remove(d),
            _ => {
                let b = next_block;
                next_block += 1;
                b
            }
        };
        stack.insert(0, block);
        trace.push(block * line);
    }
    trace
}

/// The vector-stack measurement `stack_dist::measure` replaced.
fn reference_measure(trace: &[u64], line: u64) -> (Vec<u64>, u64) {
    let mut stack: Vec<u64> = Vec::new();
    let mut seen: HashMap<u64, ()> = HashMap::new();
    let mut hist: Vec<u64> = Vec::new();
    let mut cold = 0u64;
    for &addr in trace {
        let block = addr / line;
        if seen.insert(block, ()).is_none() {
            cold += 1;
        } else {
            let d = stack.iter().position(|&b| b == block).unwrap();
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
            stack.remove(d);
        }
        stack.insert(0, block);
    }
    (hist, cold)
}

fn geometric_weights(p: f64, max_distance: usize) -> Vec<f64> {
    (0..max_distance)
        .map(|d| (1.0 - p).powi(d as i32) * p)
        .collect()
}

#[test]
fn fenwick_generator_matches_the_vector_stack() {
    // stack_geo's own shape at several capacities, plus steeper ones.
    let mut cases: Vec<(Vec<f64>, f64)> = [16usize, 64, 512, 4096]
        .iter()
        .map(|&lines| (geometric_weights(2.0 / lines as f64, 2 * lines), 0.02))
        .collect();
    cases.push((geometric_weights(0.4, 32), 0.05));
    // Hand-made, no cold weight: early draws deeper than the stack are
    // the only first touches.
    cases.push((vec![0.5, 0.0, 0.3, 0.0, 0.2], 0.0));
    // Maximum distance 1.
    cases.push((vec![1.0], 0.1));
    cases.push((vec![1.0], 0.0));
    for (weights, cold) in &cases {
        let profile = StackDistanceProfile::new(weights.clone(), *cold);
        for seed in [1u64, 7, 902] {
            for accesses in [0usize, 1, 2, 20_000] {
                assert_eq!(
                    profile.generate(accesses, 64, seed),
                    reference_generate(weights, *cold, accesses, 64, seed),
                    "{} weights, cold {cold}, seed {seed}, {accesses} accesses",
                    weights.len()
                );
            }
        }
    }
    // The geometric constructor builds the same weights as the reference.
    assert_eq!(
        StackDistanceProfile::geometric(2.0 / 512.0, 1024, 0.02),
        StackDistanceProfile::new(geometric_weights(2.0 / 512.0, 1024), 0.02)
    );
}

#[test]
fn fenwick_measure_matches_the_vector_stack() {
    let mut traces: Vec<(Vec<u64>, u64)> = vec![(vec![], 64), (vec![0x40], 64)];
    for seed in [3u64, 11] {
        let mut rng = Prng::seed_from_u64(seed);
        // Uniform over 300 lines, at unaligned byte addresses.
        let uniform: Vec<u64> = (0..20_000)
            .map(|_| rng.gen_range(0..300u64 * 64 + 63))
            .collect();
        traces.push((uniform.clone(), 64));
        traces.push((uniform, 1));
        let profile = StackDistanceProfile::geometric(2.0 / 256.0, 512, 0.02);
        traces.push((profile.generate(20_000, 64, seed), 64));
        traces.push((profile.generate(20_000, 64, seed), 128));
    }
    for (trace, line) in &traces {
        assert_eq!(
            measure(trace, *line),
            reference_measure(trace, *line),
            "{} accesses at line {line}",
            trace.len()
        );
    }
}

#[test]
fn streaming_write_marks_equal_the_collected_ones() {
    let trace = workloads::generate("zipf_hot", 16384, 64, 5).unwrap().trace;
    for fraction in [0.0, 0.2, 1.0] {
        let collected = with_writes(&trace, fraction, 9);
        let streamed: Vec<_> = with_writes_iter(trace.iter().copied(), fraction, 9).collect();
        assert_eq!(streamed, collected, "fraction {fraction}");
    }
    // No writes: every operation reads its trace address.
    assert!(with_writes_iter(trace.iter().copied(), 0.0, 9)
        .zip(&trace)
        .all(|(op, &addr)| !op.write && op.addr == addr));
}
