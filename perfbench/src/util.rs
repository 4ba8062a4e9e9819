//! Statistics, process measurements and small helpers shared by the
//! workloads.

use std::time::Duration;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it: the
/// `(n - 10)`-th smallest of `n` samples. Returns `(value, percentile,
/// samples)`; with ten samples or fewer it falls back to the minimum.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n.saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker count the benchmark uses for clients, reactors, pool workers
/// and `par_map` jobs: the machine's parallelism, capped at 2 so runs on
/// larger machines stay comparable.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to one CPU: the last one it may run on. Returns that CPU, or `None`
/// where the affinity calls fail (the thread is then left as it was).
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Put the calling thread, and every thread it starts afterwards, under
/// `SCHED_BATCH`: a thread that wakes up waits for the running one to
/// block or use up its time slice instead of preempting it. Returns
/// whether the kernel accepted the policy.
#[allow(unsafe_code)]
pub fn batch_scheduling() -> bool {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_BATCH: i32 = 3;
    // `struct sched_param` is one int, the static priority (0 here).
    let priority = 0i32;
    // SAFETY: `priority` is a readable `struct sched_param`; pid 0 is the
    // calling thread.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 }
}

/// Make every thread of this process allocate from glibc malloc's one
/// main arena rather than from an arena of its own. Call it before any
/// thread starts. Returns whether malloc accepted the setting.
#[allow(unsafe_code)]
pub fn single_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator parameters.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// SplitMix64: derives independent per-item seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over a byte stream, for digests of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in a fixed order and renders the result line.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
