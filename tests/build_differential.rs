//! Build differential suite. Both builds run one construction pipeline and
//! differ only in its four phase kernels: `DualLayerIndex::build` runs the
//! optimized kernels (incremental sorted peeling, kd-bucketed ∀ edges,
//! block-pruned ∃ edges), `DualLayerIndex::build_reference` the plain
//! reference kernels. The two must produce *byte-identical* indexes — not
//! just query-equivalent ones — so these tests check the pruned kernels.
//! Equality is checked on
//! the serialized snapshot, so any drift in layer order, edge order,
//! seeds, or pseudo-tuples fails. The shared pipeline itself (phase order,
//! the fine-layer cap, zero-mode resolution, both zero layers, assembly)
//! is the same code on both sides, so golden digests of built snapshots
//! over every arm it branches on guard its bytes.

use drtopk::common::{Distribution, WorkloadSpec};
use drtopk::core::{DlOptions, DualLayerIndex, EdsPolicy, ZeroMode};
use drtopk::storage::format::index_to_bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn distributions() -> [Distribution; 3] {
    [
        Distribution::Independent,
        Distribution::AntiCorrelated,
        Distribution::Correlated,
    ]
}

fn assert_identical(rel: &drtopk::common::Relation, base: &DlOptions, ctx: &str) {
    let reference = DualLayerIndex::build_reference(rel, base.clone());
    let optimized = DualLayerIndex::build(rel, base.clone());
    assert_eq!(
        index_to_bytes(&optimized.to_snapshot()),
        index_to_bytes(&reference.to_snapshot()),
        "{ctx}: optimized build differs from reference"
    );
}

#[test]
fn optimized_build_matches_reference_bytes() {
    // The full n grid is expensive under the unoptimized debug profile;
    // tier-1 (`cargo test -q`) runs the small sizes, release runs all.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    for &n in sizes {
        for dist in distributions() {
            for d in [2, 3, 4] {
                let rel = WorkloadSpec::new(dist, d, n, 97).generate();
                assert_identical(
                    &rel,
                    &DlOptions::dl_plus(),
                    &format!("DL+ {dist:?} n={n} d={d}"),
                );
            }
        }
    }
}

#[test]
fn optimized_build_matches_reference_across_variants() {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 300, 41).generate();
    let variants: Vec<(&str, DlOptions)> = vec![
        ("DL", DlOptions::dl()),
        ("DG", DlOptions::dg()),
        ("DG+", DlOptions::dg_plus()),
        (
            "DL+/AllFacets",
            DlOptions {
                eds_policy: EdsPolicy::AllFacets,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL+/BestUniform",
            DlOptions {
                eds_policy: EdsPolicy::BestUniform,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL/capped-fine",
            DlOptions {
                max_fine_layers: 3,
                ..DlOptions::dl()
            },
        ),
        (
            "DL+/fixed-clusters",
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 7 },
                ..DlOptions::dl_plus()
            },
        ),
    ];
    for (name, base) in &variants {
        assert_identical(&rel, base, name);
    }
    // 2-d exact zero layer exercises the chain-member seed exclusion.
    let rel2 = WorkloadSpec::new(Distribution::Independent, 2, 500, 43).generate();
    assert_identical(&rel2, &DlOptions::dl_plus(), "DL+ 2d exact zero");
    // Dominance below the attribute sum's precision: each 1/8-grid row
    // three times, with 3e-17, 2e-17 and 1e-17 added to its last column,
    // so a dominator can have the same floating-point sum and a larger id.
    for d in 2..=5 {
        let base = WorkloadSpec::new(Distribution::Independent, d, 60, 47).generate();
        let mut flat = Vec::new();
        for (_, row) in base.iter() {
            for e in [3e-17, 2e-17, 1e-17] {
                flat.extend(row.iter().map(|&x| (x * 8.0).floor() / 8.0));
                *flat.last_mut().unwrap() += e;
            }
        }
        let rel = drtopk::common::Relation::from_flat(d, flat).unwrap();
        assert_identical(&rel, &DlOptions::dl_plus(), &format!("DL+ sum ties d={d}"));
    }
}

/// `n` 5-d rows in nine clusters, each coordinate within 1e-7 above its
/// cluster centre.
fn near_duplicate_clusters(n: usize, seed: u64) -> drtopk::common::Relation {
    let d = 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<f64> = (0..9 * d).map(|_| rng.gen_range(0.05..0.95)).collect();
    let mut flat = Vec::with_capacity(n * d);
    for i in 0..n {
        for &x in &centres[(i % 9) * d..(i % 9 + 1) * d] {
            flat.push((x + 1e-7 * rng.gen::<f64>()).clamp(0.0, 1.0));
        }
    }
    drtopk::common::Relation::from_flat(d, flat).expect("coordinates stay in [0, 1]")
}

/// No input stalls a build. On 5-d near-duplicate clusters, QuickHull's
/// tolerance-inconsistent horizons can make one cone link millions of
/// facet pairs before its facet budget is checked again; the first coarse
/// layer of this 90-row relation (68 rows) is such a set. Without a bound
/// on those links this build runs past 30 s and 2 GB; with it, a build
/// takes milliseconds in release and matches the reference byte for byte.
#[test]
fn near_duplicate_5d_build_ends_in_bounded_time() {
    const BOUND: Duration = Duration::from_secs(30);
    let rel = near_duplicate_clusters(90, 3);
    let start = Instant::now();
    DualLayerIndex::build(&rel, DlOptions::dl_plus());
    let took = start.elapsed();
    assert!(took < BOUND, "DL+ build took {took:?}, over {BOUND:?}");
    assert_identical(
        &rel,
        &DlOptions::dl_plus(),
        "DL+ 5-d near-duplicate clusters",
    );
}

#[test]
fn optimized_build_matches_reference_tiny_and_empty() {
    for n in [0, 1, 2, 5] {
        for d in [2, 3] {
            let rel = WorkloadSpec::new(Distribution::Independent, d, n, 7).generate();
            assert_identical(&rel, &DlOptions::dl_plus(), &format!("tiny n={n} d={d}"));
        }
    }
}

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A relation full of exact and near duplicates: IND points snapped to a
/// 1/16 grid (so many rows coincide), every third row followed by a copy
/// jittered by at most 1e-9 per coordinate.
fn quantized_near_duplicates(d: usize, n: usize, seed: u64) -> drtopk::common::Relation {
    let base = WorkloadSpec::new(Distribution::Independent, d, n, seed).generate();
    let mut flat = Vec::with_capacity(n * d);
    let mut jitter: u64 = seed;
    let mut rows = 0;
    for (id, _) in base.iter() {
        if rows == n {
            break;
        }
        let snapped: Vec<f64> = base
            .tuple(id)
            .iter()
            .map(|&x| (x * 16.0).round() / 16.0)
            .collect();
        flat.extend_from_slice(&snapped);
        rows += 1;
        if id % 3 == 0 && rows < n {
            for &x in &snapped {
                jitter = jitter
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let e = (jitter >> 11) as f64 / (1u64 << 53) as f64 * 1e-9;
                flat.push((x + e).min(1.0));
            }
            rows += 1;
        }
    }
    drtopk::common::Relation::from_flat(d, flat).expect("coordinates stay in [0, 1]")
}

/// Snapshot digests of `DualLayerIndex::build` over a fixed matrix whose
/// eight option sets cover every arm the shared pipeline branches on. The
/// pipeline and the hull and simplex kernels must keep every built index
/// byte-identical:
/// `EdsPolicy::FirstFacet` takes the first qualifying facet in QuickHull's
/// enumeration order, so even a reordered facet list changes the bytes.
/// A change that moves a digest on purpose must say why in its log.
#[test]
fn build_bytes_match_golden_digests() {
    const GOLDEN: &[(&str, u64)] = &[
        ("DL+ IND d=2", 0x2f05335b4b3312cd),
        ("DL IND d=2", 0xde1029bc495b30ad),
        ("DG IND d=2", 0x59000682f03b41a7),
        ("DG+ IND d=2", 0xd949c82f4a80ba3e),
        ("DL+/AllFacets IND d=2", 0x2f05335b4b3312cd),
        ("DL+/BestUniform IND d=2", 0x2f05335b4b3312cd),
        ("DL+/fine<=4 IND d=2", 0x3a0bbcc7ae9099f1),
        ("DL+/clusters=7 IND d=2", 0xb8ea7153ddd44392),
        ("DL+ ANT d=2", 0x1d8c666c352a5a53),
        ("DL ANT d=2", 0x4d0103b45cf9ff25),
        ("DG ANT d=2", 0x3d1f14f7e2c60a8a),
        ("DG+ ANT d=2", 0x9eb03e2d64a67ecd),
        ("DL+/AllFacets ANT d=2", 0x1d8c666c352a5a53),
        ("DL+/BestUniform ANT d=2", 0x1d8c666c352a5a53),
        ("DL+/fine<=4 ANT d=2", 0xe20bd2aba2082931),
        ("DL+/clusters=7 ANT d=2", 0x0838703dbf5cca9e),
        ("DL+ COR d=2", 0x734b374f49b50918),
        ("DL COR d=2", 0x0d11cdd40393301b),
        ("DG COR d=2", 0xd10ca7bfc5ac8861),
        ("DG+ COR d=2", 0xdd67f57478cba409),
        ("DL+/AllFacets COR d=2", 0x734b374f49b50918),
        ("DL+/BestUniform COR d=2", 0x734b374f49b50918),
        ("DL+/fine<=4 COR d=2", 0x7391968ed8e7b9ac),
        ("DL+/clusters=7 COR d=2", 0x158c26b07c092eca),
        ("DL+ IND d=3", 0x3d7ea3925d7765cf),
        ("DL IND d=3", 0x723ad473d9df91d8),
        ("DG IND d=3", 0xbcd00b1a30ac4c57),
        ("DG+ IND d=3", 0x5a632cf454cc4053),
        ("DL+/AllFacets IND d=3", 0x637363d8f3a86ba8),
        ("DL+/BestUniform IND d=3", 0xbbe2b9b716faf44c),
        ("DL+/fine<=4 IND d=3", 0x98503eb907b8dda4),
        ("DL+/clusters=7 IND d=3", 0x3c820c4f0ac938aa),
        ("DL+ ANT d=3", 0x4a5149c78ae957fe),
        ("DL ANT d=3", 0x614331a3df0c3bcb),
        ("DG ANT d=3", 0x93af50eca439e176),
        ("DG+ ANT d=3", 0xc018f3054cf0c429),
        ("DL+/AllFacets ANT d=3", 0x60297536a0c7ba8d),
        ("DL+/BestUniform ANT d=3", 0x3d86de740f248e2b),
        ("DL+/fine<=4 ANT d=3", 0x66351693a21e426e),
        ("DL+/clusters=7 ANT d=3", 0x0ccfbadcbd6721f9),
        ("DL+ COR d=3", 0xa42d613bfb9d8dee),
        ("DL COR d=3", 0x7881a3cf1c2809e9),
        ("DG COR d=3", 0x2a21f98d70cf1385),
        ("DG+ COR d=3", 0x8fdcbec06c8a9da9),
        ("DL+/AllFacets COR d=3", 0xa50d087b374a601e),
        ("DL+/BestUniform COR d=3", 0xfb909ef19a04edcb),
        ("DL+/fine<=4 COR d=3", 0xa16d5e6604d1fbaa),
        ("DL+/clusters=7 COR d=3", 0xb91e066b42722918),
        ("DL+ IND d=4", 0xe8c2601e861c0f3e),
        ("DL IND d=4", 0x0ab4b55a2ac059e8),
        ("DG IND d=4", 0xa887470fbbe77ea2),
        ("DG+ IND d=4", 0xa2f724ab481bc7ba),
        ("DL+/AllFacets IND d=4", 0x4bc3eea47072995b),
        ("DL+/BestUniform IND d=4", 0x1ce3dd6459339b38),
        ("DL+/fine<=4 IND d=4", 0x8dc9e1eeaeb49e84),
        ("DL+/clusters=7 IND d=4", 0x67708487cf91be46),
        ("DL+ ANT d=4", 0x52463a2433265276),
        ("DL ANT d=4", 0x2759fe683d8c5a54),
        ("DG ANT d=4", 0x48e50a369136d412),
        ("DG+ ANT d=4", 0x55b81887129d33a9),
        ("DL+/AllFacets ANT d=4", 0xf68b69878cd712fc),
        ("DL+/BestUniform ANT d=4", 0xd2f518debef44705),
        ("DL+/fine<=4 ANT d=4", 0xf53b2681f51f629c),
        ("DL+/clusters=7 ANT d=4", 0xb9f8603a299ac095),
        ("DL+ COR d=4", 0x37d6a7facfa56266),
        ("DL COR d=4", 0x7ada012506b7abdd),
        ("DG COR d=4", 0x30d26f88d6ff9d9f),
        ("DG+ COR d=4", 0x45fdc4ffd8520048),
        ("DL+/AllFacets COR d=4", 0x1a0648aa032b36ad),
        ("DL+/BestUniform COR d=4", 0x27737e71fc6669ee),
        ("DL+/fine<=4 COR d=4", 0xf8a06b4cce966f70),
        ("DL+/clusters=7 COR d=4", 0xc98907b30d6f1fed),
        ("DL+ IND d=5", 0xa47ed2159af1d504),
        ("DL IND d=5", 0x9ffae41e18e80668),
        ("DG IND d=5", 0x45e8bebf608157df),
        ("DG+ IND d=5", 0xd4608902d63e8782),
        ("DL+/AllFacets IND d=5", 0x2cd26d06539e1d20),
        ("DL+/BestUniform IND d=5", 0xcfeb18ab150fdb9d),
        ("DL+/fine<=4 IND d=5", 0x87497f9cc082f11d),
        ("DL+/clusters=7 IND d=5", 0xa47ed2159af1d504),
        ("DL+ ANT d=5", 0x748d8e811eb3fc82),
        ("DL ANT d=5", 0xb6f051fa64707427),
        ("DG ANT d=5", 0x6561eb233029e01c),
        ("DG+ ANT d=5", 0x800c7c98bf05e11d),
        ("DL+/AllFacets ANT d=5", 0xe2d2114de3e519c2),
        ("DL+/BestUniform ANT d=5", 0x3518dc881e3cbec6),
        ("DL+/fine<=4 ANT d=5", 0xe42fb24c2ed2ffc6),
        ("DL+/clusters=7 ANT d=5", 0x83f3d08566656433),
        ("DL+ COR d=5", 0x121c4185dbefa3e7),
        ("DL COR d=5", 0xf0259aeb8d961975),
        ("DG COR d=5", 0x9bdbbd825b44f549),
        ("DG+ COR d=5", 0x8283c1755886781b),
        ("DL+/AllFacets COR d=5", 0xfb2df0e55060d89b),
        ("DL+/BestUniform COR d=5", 0x40c6fb49de1c4bb3),
        ("DL+/fine<=4 COR d=5", 0x3d757ac136e7d2c0),
        ("DL+/clusters=7 COR d=5", 0x297d9404c6d09fd7),
        ("DL+ quantized d=3", 0xd5b535605c6486a0),
        ("DL+ quantized d=4", 0xc972a4fdc4b154cb),
    ];
    let variants: [(&str, DlOptions); 8] = [
        ("DL+", DlOptions::dl_plus()),
        ("DL", DlOptions::dl()),
        ("DG", DlOptions::dg()),
        ("DG+", DlOptions::dg_plus()),
        (
            "DL+/AllFacets",
            DlOptions {
                eds_policy: EdsPolicy::AllFacets,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL+/BestUniform",
            DlOptions {
                eds_policy: EdsPolicy::BestUniform,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL+/fine<=4",
            DlOptions {
                max_fine_layers: 4,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL+/clusters=7",
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 7 },
                ..DlOptions::dl_plus()
            },
        ),
    ];
    let mut cases: Vec<(String, drtopk::common::Relation, DlOptions)> = Vec::new();
    // Sizes shrink with d so the unoptimized debug profile stays quick.
    for (d, n) in [(2, 2_000), (3, 1_000), (4, 500), (5, 300)] {
        for dist in distributions() {
            let rel = WorkloadSpec::new(dist, d, n, 0x601D + d as u64).generate();
            for (name, opts) in &variants {
                cases.push((
                    format!("{name} {} d={d}", dist.code()),
                    rel.clone(),
                    opts.clone(),
                ));
            }
        }
    }
    for d in [3, 4] {
        cases.push((
            format!("DL+ quantized d={d}"),
            quantized_near_duplicates(d, 1_500, 0x0D0 + d as u64),
            DlOptions::dl_plus(),
        ));
    }
    let mut got = Vec::with_capacity(cases.len());
    for (label, rel, opts) in &cases {
        let idx = DualLayerIndex::build(rel, opts.clone());
        got.push((label.clone(), fnv1a64(&index_to_bytes(&idx.to_snapshot()))));
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(l, h)| format!("        (\"{l}\", 0x{h:016x}),\n"))
            .collect();
        panic!("build digests moved; this run's table:\n{table}");
    }
}
