//! cachekit's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <sim_cold|eval_sweep|infer_cold|hits_pipelined>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload with tracing off and prints the
//! end-to-end metrics. `--trace 1` repeats that run, repeats it again
//! in a child process with `CACHEKIT_METRICS=0`, then replays the run's
//! generated inputs through the layers' public entry points with a span
//! around every call and prints the per-layer metrics. Every run checks
//! every output; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod client;
mod eval_sweep;
mod hits;
mod infer_cold;
mod layers;
mod load;
mod replay;
mod sim_cold;
mod span;
mod util;

use load::Exchange;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, tail, Metrics};

/// Latency charged to a failed request: it misses every latency figure.
pub const MISSING_MS: f64 = 1e6;

const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_cold",
        "the cold serving path: trace generation is most of each request today and the engines \
         a few percent, so trace fixes show here first and engine fixes after them",
    ),
    (
        "eval_sweep",
        "the fig-binary path from trace to statistics: the per-access engines, the hierarchy and \
         the parallel layer do most of the work, trace generation is amortized, no serve layer",
    ),
    (
        "infer_cold",
        "the paper's reverse-engineering pipeline: geometry and policy inference over the virtual \
         CPU's oracle take nearly all host time",
    ),
    (
        "hits_pipelined",
        "HTTP decode, parse/canonicalize, result-cache lookup, response encode and the reactor are \
         the whole cost and the engines do nothing",
    ),
];

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome whose failures are the `Some` entries of `failures`
    /// (one per attempted operation).
    pub fn new(attempted: usize, failures: &[Option<String>], metrics: Metrics) -> Outcome {
        let mut notes = Vec::new();
        for (i, f) in failures.iter().enumerate() {
            if let Some(reason) = f {
                if notes.len() < 20 {
                    notes.push(format!("FAILED operation {i}: {reason}"));
                }
            }
        }
        Outcome {
            attempted,
            failed: failures.iter().filter(|f| f.is_some()).count(),
            metrics,
            notes,
        }
    }

    pub fn note(mut self, line: String) -> Outcome {
        self.notes.push(line);
        self
    }
}

/// The first round of a served run, kept for the traced replay.
#[derive(Debug, Default)]
pub struct Served {
    /// Request bodies of round one, in order.
    pub wires: Vec<String>,
    /// What the client saw for each of them.
    pub exchanges: Vec<Exchange>,
    /// For cache hits: each key's canonical spelling and cold body.
    pub cold: Vec<(String, String)>,
}

/// `setup_s`, `rps` and the latency figures of a served workload. A
/// failed request counts as missing every latency figure.
pub fn serve_metrics(
    m: &mut Metrics,
    setup_times: &[f64],
    all: &[&Exchange],
    failures: &[Option<String>],
    wall_s: f64,
) -> String {
    let latencies: Vec<f64> = all
        .iter()
        .zip(failures)
        .map(|(e, f)| {
            if f.is_some() {
                MISSING_MS
            } else {
                e.latency_ms
            }
        })
        .collect();
    let ok = failures.iter().filter(|f| f.is_none()).count();
    m.put("setup_s", median(setup_times), "s");
    m.put("rps", ok as f64 / wall_s, "req/s");
    m.put("latency_p50_ms", median(&latencies), "ms");
    let (value, pct, n) = tail(&latencies);
    m.put("latency_tail_ms", value, "ms");
    format!("latency_tail_ms is p{pct:.3} of {n} samples; set-up times {setup_times:.4?} s")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Rounds a run makes: its `--seconds` over the workload's round time,
/// rounded up, so the count (and with it which percentile the tail
/// rule picks) is fixed by the arguments rather than by the machine.
fn rounds(seconds: f64, round_s: f64) -> usize {
    ((seconds / round_s).ceil() as usize).max(1)
}

/// The untraced run of a workload, plus what the traced run replays.
enum Untraced {
    Served(Outcome, Served),
    Sweep(Outcome, eval_sweep::Run),
}

fn untraced(args: &Args, process_start: Instant) -> Untraced {
    match args.workload.as_str() {
        "sim_cold" => {
            let (o, s) = sim_cold::run(
                process_start,
                args.seed,
                rounds(args.seconds, sim_cold::ROUND_S),
            );
            Untraced::Served(o, s)
        }
        "infer_cold" => {
            let (o, s) = infer_cold::run(
                process_start,
                args.seed,
                rounds(args.seconds, infer_cold::ROUND_S),
            );
            Untraced::Served(o, s)
        }
        "hits_pipelined" => {
            let (o, s) = hits::run(process_start, args.seed, args.seconds);
            Untraced::Served(o, s)
        }
        _ => {
            let (o, r) = eval_sweep::run(
                process_start,
                args.seed,
                rounds(args.seconds, eval_sweep::ROUND_S),
            );
            Untraced::Sweep(o, r)
        }
    }
}

/// Rerun this workload in a child process with metrics collection off
/// and return its `rps`.
fn rps_with_metrics_off(args: &Args) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .env("CACHEKIT_METRICS", "0")
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last()?;
    let json = cachekit_serve::Json::parse(last).ok()?;
    json.get("metrics")?.get("rps")?.get("value")?.as_f64()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, why)| why);
    println!("workload {} (seed {}): {why}", args.workload, args.seed);
    println!(
        "machine: available_parallelism={} (jobs={})",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        util::jobs()
    );

    let run = untraced(&args, process_start);
    let outcome = if args.trace {
        layers::traced(run, rps_with_metrics_off(&args))
    } else {
        match run {
            Untraced::Served(o, _) | Untraced::Sweep(o, _) => o,
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for m in &outcome.metrics.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
