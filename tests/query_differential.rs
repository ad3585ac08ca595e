//! Query differential suite for the traversal-ordered layout, the fixed-d
//! scoring kernels, and the epoch-versioned scratch.
//!
//! The retained sequential reference build (`build_reference`) is the
//! oracle: the optimized build — renumbered nodes, arena-packed edges,
//! unrolled kernels — must return *identical* ids, Definition-9 costs, and
//! `QueryExplain` breakdowns on every cell of the matrix (dimensionality,
//! size, options variant). A separate seeded property
//! test pins the epoch-scratch contract: reusing one scratch across an
//! arbitrary query history, the caller's or the index's own pool, never
//! changes any answer versus a fresh scratch.

use drtopk::common::{Distribution, Weights, WorkloadSpec};
use drtopk::core::{
    DlOptions, DualLayerIndex, EdsPolicy, QueryBudget, QueryScratch, TopkCursor, ZeroMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compares ids, costs, and explain output of `idx` against `reference`
/// for a spread of k values and seeded random weight vectors.
fn assert_query_identical(
    reference: &DualLayerIndex,
    idx: &DualLayerIndex,
    d: usize,
    seed: u64,
    ctx: &str,
) {
    let n = reference.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ks = vec![1, 2, 7, n / 2, n];
    ks.retain(|&k| k > 0);
    ks.dedup();
    if ks.is_empty() {
        ks.push(1); // n = 0: still exercise the empty-answer path
    }
    for k in ks {
        let w = Weights::random(d, &mut rng);
        let want = reference.topk(&w, k);
        let got = idx.topk(&w, k);
        assert_eq!(got.ids, want.ids, "{ctx} k={k}: ids differ");
        assert_eq!(got.cost, want.cost, "{ctx} k={k}: costs differ");
        let (eres, eexp) = reference.explain(&w, k);
        let (ores, oexp) = idx.explain(&w, k);
        assert_eq!(ores, eres, "{ctx} k={k}: explain result differs");
        assert_eq!(oexp, eexp, "{ctx} k={k}: explain breakdown differs");
    }
}

/// Builds the optimized index and checks it against the reference build,
/// query-for-query.
fn assert_matrix_cell(rel: &drtopk::common::Relation, base: &DlOptions, seed: u64, ctx: &str) {
    let reference = DualLayerIndex::build_reference(rel, base.clone());
    let idx = DualLayerIndex::build(rel, base.clone());
    assert_query_identical(&reference, &idx, rel.dims(), seed, ctx);
}

#[test]
fn kernels_match_reference_across_dimensionalities() {
    // d = 1..=8 spans every fixed-d kernel plus the generic fallback's
    // boundary. Convex-hull fine-layer cost is exponential in d, so n
    // shrinks as d grows to keep the debug profile inside tier-1 time.
    for d in 1..=8usize {
        let n = match d {
            1..=4 => 150,
            5 => 120,
            6 => 60,
            7 => 40,
            _ => 30,
        };
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 900 + d as u64).generate();
        assert_matrix_cell(
            &rel,
            &DlOptions::dl_plus(),
            31 + d as u64,
            &format!("d={d}"),
        );
    }
}

#[test]
fn all_variants_match_reference() {
    let variants: Vec<(&str, DlOptions)> = vec![
        ("DL", DlOptions::dl()),
        ("DL+", DlOptions::dl_plus()),
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
            "DL+/clustered-zero",
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 7 },
                ..DlOptions::dl_plus()
            },
        ),
        (
            "DL+/no-zero",
            DlOptions {
                zero: ZeroMode::None,
                ..DlOptions::dl_plus()
            },
        ),
    ];
    let rel3 = WorkloadSpec::new(Distribution::Independent, 3, 250, 61).generate();
    for (name, base) in &variants {
        assert_matrix_cell(&rel3, base, 7, name);
    }
    // 2-d exact zero layer: the chain is seeded per query by weight range.
    let rel2 = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 300, 62).generate();
    assert_matrix_cell(&rel2, &DlOptions::dl_plus(), 8, "DL+ 2d exact-zero");
}

#[test]
fn degenerate_sizes_match_reference() {
    for n in [0usize, 1, 2] {
        for d in [1usize, 2, 3] {
            let rel = WorkloadSpec::new(Distribution::Independent, d, n, 5).generate();
            assert_matrix_cell(&rel, &DlOptions::dl_plus(), 3, &format!("n={n} d={d}"));
        }
    }
}

/// The 100k sample cell is release-only: the reference build is O(n²)-ish
/// in debug and would dominate tier-1 time.
#[test]
fn large_sample_matches_reference() {
    if cfg!(debug_assertions) {
        return;
    }
    for d in [2usize, 4] {
        let rel = WorkloadSpec::new(Distribution::Independent, d, 100_000, 77).generate();
        let reference = DualLayerIndex::build_reference(&rel, DlOptions::dl_plus());
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        assert_query_identical(&reference, &idx, d, 19, &format!("n=100k d={d}"));
    }
    // `explain` at k = n must stay O(n) in memory. VmHWM is the peak of
    // the whole test process, so the ceiling covers every test it runs.
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_kib();
        eprintln!("VmHWM {} MiB", peak >> 10);
        assert!(peak < 2 << 20, "peak RSS {peak} KiB exceeds 2 GiB");
    }
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`), KiB.
#[cfg(target_os = "linux")]
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB")
}

/// Seeded property test: after any sequence of queries through one reused
/// epoch scratch, the next query is indistinguishable from one answered on
/// a brand-new scratch — same ids, same cost — for arbitrary interleavings
/// of weights and k. This is the O(1)-reset correctness contract: stale
/// stamped state from query Q must never leak into query Q+1. The index's
/// pooled `topk` and `topk_guarded` run in between, with cost caps that
/// trip mid-traversal and leave their pooled scratch half-used.
#[test]
fn epoch_scratch_reuse_is_indistinguishable_from_fresh() {
    let mut rng = StdRng::seed_from_u64(20_240_808);
    let mut tripped = 0;
    for d in [2usize, 3, 5] {
        let n = if cfg!(debug_assertions) { 300 } else { 2_000 };
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 88 + d as u64).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let mut reused = QueryScratch::for_index(&idx);
        for q in 0..40 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=n);
            let with_reused = idx.topk_with_scratch(&w, k, &mut reused);
            let pooled = idx.topk(&w, k);
            let cap = rng.gen_range(0..=with_reused.cost.total());
            let capped = QueryBudget::unlimited().with_max_cost(cap);
            let guarded = idx.topk_guarded(&w, k, &capped);
            let mut fresh = QueryScratch::for_index(&idx);
            let with_fresh = idx.topk_with_scratch(&w, k, &mut fresh);
            assert_eq!(
                with_reused, with_fresh,
                "d={d} query {q}: reused scratch diverged from fresh"
            );
            assert_eq!(pooled, with_fresh, "d={d} query {q}: pooled topk diverged");
            let unlimited = idx.topk_guarded(&w, k, &QueryBudget::unlimited());
            assert!(unlimited.is_complete());
            assert_eq!(
                (&unlimited.ids, unlimited.cost),
                (&with_fresh.ids, with_fresh.cost),
                "d={d} query {q}: pooled topk_guarded diverged"
            );
            let mut fresh = QueryScratch::for_index(&idx);
            let mut cursor = TopkCursor::new(&idx, &w, &mut fresh, Some(&capped));
            let ids: Vec<_> = cursor.by_ref().take(k).map(|(t, _)| t).collect();
            assert_eq!(
                (guarded.ids, guarded.cost, guarded.truncated),
                (ids, cursor.cost(), cursor.truncated()),
                "d={d} query {q}: capped pooled topk_guarded diverged"
            );
            tripped += usize::from(cursor.truncated().is_some());
        }
        // Rebinding: the same scratch object must also serve an index of a
        // different size (it rebuilds itself on first reset).
        let rel_small = WorkloadSpec::new(Distribution::Independent, d, 50, 4).generate();
        let idx_small = DualLayerIndex::build(&rel_small, DlOptions::dl_plus());
        let w = Weights::uniform(d);
        assert_eq!(
            idx_small.topk_with_scratch(&w, 10, &mut reused),
            idx_small.topk(&w, 10),
            "d={d}: rebound scratch diverged"
        );
    }
    assert!(tripped > 0, "no cost cap tripped");
}
