//! Pins the exact oracle-call stream of both permutation-engine
//! variants. A test-local layer folds every call — its method
//! (`measure` or `try_measure`), warm-up, probe, and the reading or
//! fault it returned — into an FNV-1a digest. Each run pins its call
//! count, that stream digest, and a digest of the report's `Debug`
//! rendering, so an added, dropped or reordered query fails here even
//! when the verdict stays the same. A strict run's report must also
//! count exactly its pinned calls in `measurements_used`. Table 3's
//! measurement costs and every served `infer` body depend on that
//! stream.

use cachekit::core::infer::{
    engine_by_name, infer_geometry, CacheOracle, CacheOracleExt, Geometry, InferenceConfig,
    InferenceEngine, InferenceRequest, MeasureFault, PermutationEngine, SimOracle,
};
use cachekit::hw::{fleet, CacheLevel, Faults, LevelOracle};
use cachekit::policies::PolicyKind;
use cachekit::sim::{Cache, CacheConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Oracle layer that digests every call passing through it.
struct Digest<O> {
    inner: O,
    calls: u64,
    hash: u64,
}

impl<O: CacheOracle> Digest<O> {
    fn new(inner: O) -> Self {
        Self {
            inner,
            calls: 0,
            hash: FNV_OFFSET,
        }
    }

    fn fold(
        &mut self,
        method: &str,
        warmup: &[u64],
        probe: &[u64],
        out: Result<usize, MeasureFault>,
    ) {
        self.calls += 1;
        let mut h = fnv(self.hash, method.as_bytes());
        for seq in [warmup, probe] {
            h = fnv(h, &(seq.len() as u64).to_le_bytes());
            for &a in seq {
                h = fnv(h, &a.to_le_bytes());
            }
        }
        let (tag, value) = match out {
            Ok(m) => (0u8, m as u64),
            Err(MeasureFault::Timeout) => (1, 0),
            Err(MeasureFault::Dropped) => (2, 0),
        };
        h = fnv(h, &[tag]);
        self.hash = fnv(h, &value.to_le_bytes());
    }
}

impl<O: CacheOracle> CacheOracle for Digest<O> {
    fn measure(&mut self, warmup: &[u64], probe: &[u64]) -> usize {
        let m = self.inner.measure(warmup, probe);
        self.fold("measure", warmup, probe, Ok(m));
        m
    }

    fn try_measure(&mut self, warmup: &[u64], probe: &[u64]) -> Result<usize, MeasureFault> {
        let out = self.inner.try_measure(warmup, probe);
        self.fold("try_measure", warmup, probe, out);
        out
    }
}

/// Run `engine` over `oracle` and return (calls, stream digest, report
/// digest) and the report's `measurements_used`.
fn pin<O: CacheOracle>(
    engine: &dyn InferenceEngine,
    oracle: O,
    geometry: Geometry,
    config: InferenceConfig,
) -> ((u64, u64, u64), u64) {
    let mut digest = Digest::new(oracle);
    let report = engine.infer(&mut digest, &InferenceRequest::new(geometry, config));
    let rendered = fnv(FNV_OFFSET, format!("{report:?}").as_bytes());
    (
        (digest.calls, digest.hash, rendered),
        report.measurements_used,
    )
}

fn sim(kind: PolicyKind, assoc: usize) -> (SimOracle, Geometry) {
    let geometry = Geometry {
        line_size: 64,
        capacity: (assoc * 16 * 64) as u64,
        associativity: assoc,
        num_sets: 16,
    };
    let cache = Cache::new(
        CacheConfig::new(geometry.capacity, assoc, 64).expect("valid geometry"),
        kind,
    );
    (SimOracle::new(cache), geometry)
}

fn faulted(seed: u64) -> Faults {
    Faults::from_seed(seed)
        .flips(0.05)
        .drops(0.025)
        .timeouts(0.025)
        .prefetch_bursts(0.0125, 3)
        .migrations(0.00625, 4)
}

/// Every pinned run: (name, calls, stream digest, report digest).
fn runs() -> Vec<(String, (u64, u64, u64))> {
    let kinds = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::TreePlru,
        PolicyKind::LazyLru,
        PolicyKind::Lip,
        PolicyKind::Slru { protected: 2 },
        PolicyKind::BitPlru,
        PolicyKind::Random { seed: 7 },
    ];
    let variants = [
        ("strict", PermutationEngine::strict()),
        ("budgeted", PermutationEngine::budgeted()),
    ];
    let mut out = Vec::new();
    for (variant, engine) in variants {
        for assoc in [4usize, 8] {
            for kind in kinds {
                let (oracle, geometry) = sim(kind, assoc);
                let name = format!("{variant}/{}/{assoc}", kind.label());
                let (pinned, used) = pin(&engine, oracle, geometry, InferenceConfig::default());
                if variant == "strict" {
                    // The strict report counts every oracle call it made.
                    assert_eq!(used, pinned.0, "{name}: measurements_used");
                }
                out.push((name, pinned));
            }
        }
    }

    let budgeted = PermutationEngine::budgeted();
    let config = |budget: Option<u64>| {
        let mut builder = InferenceConfig::builder()
            .repetitions(3)
            .max_repetitions(24)
            .seed(0x5EED);
        if let Some(b) = budget {
            builder = builder.measurement_budget(b);
        }
        builder.build().expect("valid config")
    };
    for (kind, assoc, seed) in [
        (PolicyKind::TreePlru, 4usize, 0xFA17u64),
        (PolicyKind::Lru, 8, 0xAB),
    ] {
        let (oracle, geometry) = sim(kind, assoc);
        let name = format!("budgeted/faults-{seed:x}/{}/{assoc}", kind.label());
        let (pinned, _) = pin(
            &budgeted,
            oracle.layer(faulted(seed)),
            geometry,
            config(Some(100_000)),
        );
        out.push((name, pinned));
    }
    let (oracle, geometry) = sim(PolicyKind::TreePlru, 4);
    let (pinned, _) = pin(&budgeted, oracle, geometry, config(Some(200)));
    out.push(("budgeted/dry-200/PLRU/4".to_owned(), pinned));

    // The served path: what an `infer` request for atom_d525's L1 runs.
    let mut cpu = fleet::atom_d525();
    let config = InferenceConfig::default();
    let mut oracle = LevelOracle::new(&mut cpu, CacheLevel::L1);
    let geometry = infer_geometry(&mut oracle, &config).expect("atom L1 geometry");
    let engine = engine_by_name("permutation").expect("known engine");
    let (pinned, _) = pin(engine.as_ref(), oracle, geometry, config);
    out.push(("served/atom_d525/l1".to_owned(), pinned));
    out
}

/// The pinned runs, in `runs()` order. A moved constant means an engine's
/// query stream or report changed; update one only for an intended change
/// to the queries.
const PINNED: &[(&str, u64, u64, u64)] = &[
    ("strict/LRU/4", 310, 0x3a9f71ae53eccaf0, 0xc864f99f39a75717),
    ("strict/FIFO/4", 310, 0xa7a93da7d0cf4460, 0x9fb0165c5dcc3d18),
    ("strict/PLRU/4", 310, 0x8aa95fddf8cb6631, 0x88f213259c7d1fad),
    (
        "strict/LazyLRU/4",
        310,
        0x06d8c0f0d49aede2,
        0xe3090daee2015f4b,
    ),
    ("strict/LIP/4", 10, 0x113e69301f39c6fd, 0x211e481eac6a7271),
    (
        "strict/SLRU-2/4",
        10,
        0xee67e3f48042fa1c,
        0x584895b7a0cddd7c,
    ),
    (
        "strict/BitPLRU/4",
        10,
        0x4370ca6722506846,
        0x8611adec4e3e7d7b,
    ),
    ("strict/Random/4", 4, 0x030fab2104b02623, 0x473a117f913b6c4f),
    ("strict/LRU/8", 997, 0xcabc9e2d47e83886, 0xc3e64cbf2abee0cf),
    ("strict/FIFO/8", 997, 0x2ccc6d9f1315c5fb, 0xdea270bbc0358cc6),
    ("strict/PLRU/8", 997, 0x43b92c9e2dddc53d, 0x26625a87c4538b17),
    (
        "strict/LazyLRU/8",
        997,
        0xd0f89755073accbc,
        0xffa2970adfee3803,
    ),
    ("strict/LIP/8", 13, 0xf225ec72f1343284, 0xedfd1814454a4c16),
    (
        "strict/SLRU-2/8",
        13,
        0xd5c475a60936f9c8,
        0x029949835ee22e9f,
    ),
    (
        "strict/BitPLRU/8",
        13,
        0x30127d6a0f396242,
        0x9174b7f32272c298,
    ),
    ("strict/Random/8", 4, 0x379a4b720b80fe73, 0x473a117f913b6c4f),
    (
        "budgeted/LRU/4",
        409,
        0xf37d79885b01fc9d,
        0x4ce7e5a70f1cf93e,
    ),
    (
        "budgeted/FIFO/4",
        409,
        0x66b89a0ae27655b1,
        0x6c5429bb5832ae51,
    ),
    (
        "budgeted/PLRU/4",
        409,
        0x3c5c42af29156cdc,
        0xcc216dd87f23fa60,
    ),
    (
        "budgeted/LazyLRU/4",
        409,
        0x116da31885c9c0cf,
        0xfda76e9058a62492,
    ),
    (
        "budgeted/LIP/4",
        109,
        0xf2773e524021c110,
        0xea80269725ce90a9,
    ),
    (
        "budgeted/SLRU-2/4",
        109,
        0x9f3aa3d9fb8d7d15,
        0x499d2d57bf80072e,
    ),
    (
        "budgeted/BitPLRU/4",
        109,
        0x5033e58b528b2053,
        0x1d71fb4642e4f21f,
    ),
    (
        "budgeted/Random/4",
        103,
        0x225af47a968e1f0e,
        0x406a7c7d61a99af5,
    ),
    (
        "budgeted/LRU/8",
        1096,
        0x054fe0821a911829,
        0xcdca7d175f6c3836,
    ),
    (
        "budgeted/FIFO/8",
        1096,
        0x794c8506b21727f8,
        0x5602523df0c948cd,
    ),
    (
        "budgeted/PLRU/8",
        1096,
        0x400e1bb29c884f0a,
        0x5b4c0723d8cb664e,
    ),
    (
        "budgeted/LazyLRU/8",
        1096,
        0x2c279d57713f50d7,
        0xd80ddbd34a0c8a7a,
    ),
    (
        "budgeted/LIP/8",
        112,
        0x58a9c035f1cd724f,
        0xcf1d6772aa7a5c51,
    ),
    (
        "budgeted/SLRU-2/8",
        112,
        0x8d3620517a7a06ab,
        0xebac6850cab40a3a,
    ),
    (
        "budgeted/BitPLRU/8",
        112,
        0xcfe34bd53da4f34d,
        0xa3ff17d117dc8477,
    ),
    (
        "budgeted/Random/8",
        103,
        0xa309d35890929e92,
        0x406a7c7d61a99af5,
    ),
    (
        "budgeted/faults-fa17/PLRU/4",
        492,
        0xaf47ccb8258e986d,
        0x4d951318cf90ed21,
    ),
    (
        "budgeted/faults-ab/LRU/8",
        1199,
        0x1149f9d22c9ddf32,
        0x1dd87bc650045656,
    ),
    (
        "budgeted/dry-200/PLRU/4",
        200,
        0x5ffbd97c0d621d86,
        0x42591982b45e7c1f,
    ),
    (
        "served/atom_d525/l1",
        691,
        0xd644cf538553cbd5,
        0xe64e6924bcc2891b,
    ),
];

#[test]
fn every_variant_issues_the_pinned_oracle_stream() {
    let actual = runs();
    let actual: Vec<(&str, u64, u64, u64)> = actual
        .iter()
        .map(|(name, (c, s, r))| (name.as_str(), *c, *s, *r))
        .collect();
    assert_eq!(actual.len(), PINNED.len(), "pinned run list changed");
    for (got, want) in actual.iter().zip(PINNED) {
        assert_eq!(got, want, "oracle stream of {} moved", want.0);
    }
}
