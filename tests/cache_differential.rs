//! Differential suite for the weight-space result cache.
//!
//! The uncached query path is the oracle: with a [`ResultCache`] in
//! front, every answer's ids must stay bit-identical — across
//! dimensionalities (2-d exact-cell keys and d ≥ 3 certificate keys),
//! across the option matrix (including 2-d *without* the exact zero
//! layer, which falls back to quantized keys), under seeded dynamic
//! insert/delete churn hammering generation invalidation, and across
//! persistence recovery with replayed mutations. Reported costs follow
//! the documented cache semantics (0 on a 2-d cell hit, k rescores on a
//! certified hit, a k+1-fetch on a miss) and are pinned where exact.

use drtopk::common::{Cost, Distribution, Weights, WorkloadSpec, ZipfWeightWorkload};
use drtopk::core::{
    BatchExecutor, CacheOutcome, DlOptions, DualLayerIndex, DynamicIndex, EdsPolicy, Handle,
    QueryBudget, QueryScratch, ResultCache, ShardError, ShardProbe, TruncateReason, ZeroMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Queries `idx` through a fresh cache with a Zipf-repeated workload and
/// a spread of k values; every answer must match the uncached oracle, and
/// hit costs must follow the documented semantics.
fn assert_cache_identical(idx: &DualLayerIndex, d: usize, seed: u64, ctx: &str) {
    let cache = ResultCache::default();
    let n = idx.len();
    let workload = ZipfWeightWorkload::new(d, 10, 120, 1.0, seed).generate();
    let mut ks = vec![1usize, 3, 10, n / 2];
    ks.retain(|&k| k > 0);
    ks.dedup();
    if ks.is_empty() {
        ks.push(1); // n = 0: still exercise the empty-answer bypass
    }
    for (q, w) in workload.iter().enumerate() {
        let k = ks[q % ks.len()];
        let want = idx.topk(w, k);
        let got = cache.topk(idx, w, k);
        assert_eq!(got.ids, want.ids, "{ctx} q={q} k={k}: ids differ");
        match got.outcome {
            CacheOutcome::Hit2d => {
                assert_eq!(got.cost.total(), 0, "{ctx} q={q} k={k}: cell hits are free")
            }
            CacheOutcome::HitCertified => assert_eq!(
                got.cost.evaluated,
                want.ids.len() as u64,
                "{ctx} q={q} k={k}: certified hits rescore exactly k"
            ),
            CacheOutcome::Miss | CacheOutcome::Bypass => {}
        }
    }
    if n > 0 {
        let s = cache.stats();
        assert!(s.hits > 0, "{ctx}: zipf repeats must produce hits: {s:?}");
    }
}

#[test]
fn cache_matches_uncached_across_dimensionalities() {
    // d ∈ {2, 3, 5, 8}: the exact 2-d cell path plus quantized-direction
    // certificates up to the generic-kernel boundary.
    for d in [2usize, 3, 5, 8] {
        let n = match d {
            2 | 3 => 400,
            5 => 150,
            _ => 60,
        };
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 700 + d as u64).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        assert_cache_identical(&idx, d, 50 + d as u64, &format!("d={d}"));
    }
}

#[test]
fn cache_matches_across_option_matrix() {
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
            "DL+/clustered-zero",
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 5 },
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
    for (name, opts) in &variants {
        let idx = DualLayerIndex::build(&rel3, opts.clone());
        assert_cache_identical(&idx, 3, 9, name);
    }
    // 2-d without the exact zero layer: the cache must fall back to
    // quantized keys (no Zero2d cells to key by) and still stay exact.
    let rel2 = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 300, 62).generate();
    for (name, opts) in [
        ("2d DL+ exact-zero", DlOptions::dl_plus()),
        (
            "2d DL+ no-zero",
            DlOptions {
                zero: ZeroMode::None,
                ..DlOptions::dl_plus()
            },
        ),
        (
            "2d DL+ clustered-zero",
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 4 },
                ..DlOptions::dl_plus()
            },
        ),
    ] {
        let idx = DualLayerIndex::build(&rel2, opts.clone());
        assert_cache_identical(&idx, 2, 8, name);
    }
    // Degenerate sizes ride along: empty and near-empty relations.
    for n in [0usize, 1, 2] {
        for d in [2usize, 3] {
            let rel = WorkloadSpec::new(Distribution::Independent, d, n, 5).generate();
            let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
            assert_cache_identical(&idx, d, 3, &format!("n={n} d={d}"));
        }
    }
}

/// Seeded churn property test: a cached dynamic index and an uncached
/// twin receive the identical interleaving of inserts, deletes, repeated
/// queries, and forced compactions. Every query answer must match — any
/// missed invalidation would surface as a stale cached id here, because
/// repeated weights deliberately re-query entries filled before
/// mutations.
#[test]
fn dynamic_churn_never_serves_stale_answers() {
    for d in [2usize, 3] {
        let rel = WorkloadSpec::new(Distribution::Independent, d, 200, 40 + d as u64).generate();
        let mut cached = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3);
        let mut plain = cached.clone();
        let cache = Arc::new(ResultCache::default());
        cached.attach_cache(Arc::clone(&cache));
        let mut rng = StdRng::seed_from_u64(2026 + d as u64);
        // A small weight pool: queries repeat, so cache entries filled
        // before a mutation get re-requested after it.
        let pool: Vec<Weights> = (0..6).map(|_| Weights::random(d, &mut rng)).collect();
        let mut known: Vec<u64> = (0..rel.len() as u64).collect();
        for step in 0..500 {
            let r: f64 = rng.gen();
            if r < 0.35 {
                let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
                let h1 = cached.insert(&row).unwrap();
                let h2 = plain.insert(&row).unwrap();
                assert_eq!(h1, h2, "step {step}: handle streams diverged");
                known.push(h1);
            } else if r < 0.5 && !known.is_empty() {
                let h = known[rng.gen_range(0..known.len())];
                assert_eq!(cached.delete(h), plain.delete(h), "step {step}");
            } else if r < 0.53 {
                cached.compact();
                plain.compact();
            } else {
                let k = rng.gen_range(1..=20);
                let w = &pool[rng.gen_range(0..pool.len())];
                let (want, _) = plain.topk(w, k);
                // Twice back-to-back: the first fills (or validates), the
                // second exercises the hit path against the same oracle.
                for pass in 0..2 {
                    let (got, _) = cached.topk(w, k);
                    assert_eq!(
                        got, want,
                        "d={d} step {step} k={k} pass={pass}: stale answer"
                    );
                }
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0, "d={d}: churn run must still hit: {s:?}");
        assert!(
            s.invalidations > 100,
            "d={d}: every mutation must invalidate: {s:?}"
        );
    }
}

/// Recovery: a cache that survives a `to_state`/`from_state` round trip
/// (the crash-recovery path) is re-attached to the restored index and
/// must never serve entries from the index's previous life — attachment
/// invalidates, and replayed WAL inserts keep invalidating.
#[test]
fn recovery_and_replay_invalidate_reattached_caches() {
    for d in [2usize, 3] {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 150, 90 + d as u64).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 5.0);
        let cache = Arc::new(ResultCache::default());
        dynamic.attach_cache(Arc::clone(&cache));
        let mut rng = StdRng::seed_from_u64(7 + d as u64);
        let pool: Vec<Weights> = (0..5).map(|_| Weights::random(d, &mut rng)).collect();
        // Fill the cache, then capture state.
        for w in &pool {
            for k in [1usize, 5, 12] {
                dynamic.topk(w, k);
            }
        }
        assert!(!cache.is_empty(), "d={d}: warm-up must fill the cache");
        let state = dynamic.to_state();
        // Restore and re-attach the *same* cache object, still holding
        // entries from before the "crash".
        let mut restored = DynamicIndex::from_state(&state, DlOptions::dl_plus(), 5.0).unwrap();
        restored.attach_cache(Arc::clone(&cache));
        let mut reference = DynamicIndex::from_state(&state, DlOptions::dl_plus(), 5.0).unwrap();
        // Replay WAL-style inserts that land in the top ranks (rows near
        // the origin score best under minimization) so any stale cached
        // answer would be visibly wrong.
        for h in state.next_handle..state.next_handle + 10 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.05)).collect();
            restored.replay_insert(h, &row).unwrap();
            reference.replay_insert(h, &row).unwrap();
        }
        for (qi, w) in pool.iter().enumerate() {
            for k in [1usize, 5, 12] {
                let (got, _) = restored.topk(w, k);
                let (want, _) = reference.topk(w, k);
                assert_eq!(got, want, "d={d} q={qi} k={k}: stale post-recovery answer");
            }
        }
        // Second pass over the same weights: now entries are fresh and
        // hits are expected — and still identical.
        let hits_before = cache.stats().hits;
        for w in &pool {
            let (got, _) = restored.topk(w, 5);
            let (want, _) = reference.topk(w, 5);
            assert_eq!(got, want, "d={d}: post-replay refill diverged");
        }
        assert!(
            cache.stats().hits > hits_before,
            "d={d}: refilled entries must hit: {:?}",
            cache.stats()
        );
    }
}

/// The pre-cancelled and zero-cost budgets every budgeted ask below uses,
/// with the truncation each must report on a miss.
fn tight_budgets() -> Vec<(QueryBudget, TruncateReason)> {
    vec![
        (
            QueryBudget::unlimited().with_max_cost(0),
            TruncateReason::CostExceeded,
        ),
        (
            QueryBudget::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(true))),
            TruncateReason::Cancelled,
        ),
    ]
}

/// The cache contract, pinned on every cached entry point against the
/// uncached oracle. A hit is a complete answer under any budget (cost 0
/// on a 2-d cell hit, k on a certified hit); only a miss under an
/// unlimited budget fetches k+1 and fills; a budgeted miss truncates
/// exactly as the uncached guarded query does and never fills. Each
/// weight is asked more than once, so every repeat hits.
#[test]
fn every_cached_entry_point_keeps_the_cache_contract() {
    const K: usize = 8;
    let unlimited = QueryBudget::unlimited();
    for d in [2usize, 3] {
        let rel =
            WorkloadSpec::new(Distribution::AntiCorrelated, d, 300, 130 + d as u64).generate();
        let mut rng = StdRng::seed_from_u64(0xC0DE + d as u64);
        let pool: Vec<Weights> = (0..5).map(|_| Weights::random(d, &mut rng)).collect();
        let (hit_kind, hit_cost) = if d == 2 {
            (CacheOutcome::Hit2d, Cost::new())
        } else {
            let certified = Cost {
                evaluated: K as u64,
                pseudo_evaluated: 0,
            };
            (CacheOutcome::HitCertified, certified)
        };

        // Static index: the cache's own entry points, then the executor.
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let mut scratch = QueryScratch::for_index(&idx);
        for (q, w) in pool.iter().enumerate() {
            let ctx = format!("static d={d} q={q}");
            let want = idx.topk(w, K).ids;
            let fill_cost = idx.topk(w, K + 1).cost;
            let cache = ResultCache::default();
            assert!(cache.probe(&idx, w, K).is_none(), "{ctx}: cold probe");
            let miss = cache.topk_with_scratch(&idx, w, K, &mut scratch);
            assert_eq!(miss.outcome, CacheOutcome::Miss, "{ctx}");
            assert_eq!((&miss.ids, miss.cost), (&want, fill_cost), "{ctx}: fill");
            let repeat = cache.topk_with_scratch(&idx, w, K, &mut scratch);
            let probed = cache.probe(&idx, w, K).expect("a filled entry probes");
            for got in [repeat, probed] {
                assert_eq!(got.outcome, hit_kind, "{ctx}");
                assert_eq!((&got.ids, got.cost), (&want, hit_cost), "{ctx}: hit");
            }
            assert_eq!(cache.stats().hits, 2, "{ctx}");
            assert_eq!(cache.stats().stores, 1, "{ctx}: probes never fill");

            let cache = ResultCache::default();
            let exec = BatchExecutor::with_threads(&idx, 1).with_cache(&cache);
            let run = |budget: &QueryBudget| {
                let mut out = exec.run_guarded_each(&[(w.clone(), K, budget.clone())]);
                out.pop().unwrap().expect("no faults injected")
            };
            for (budget, reason) in tight_budgets() {
                let got = run(&budget);
                assert_eq!(got, idx.topk_guarded(w, K, &budget), "{ctx}: budgeted miss");
                assert_eq!(got.truncated, Some(reason), "{ctx}");
            }
            assert_eq!(cache.stats().stores, 0, "{ctx}: budgeted misses never fill");
            let filled = run(&unlimited);
            assert_eq!(
                (&filled.ids, filled.cost, filled.truncated),
                (&want, fill_cost, None),
                "{ctx}: executor fill"
            );
            assert_eq!(cache.stats().stores, 1, "{ctx}");
            let budgets = tight_budgets().into_iter().map(|(b, _)| b);
            for budget in std::iter::once(unlimited.clone()).chain(budgets) {
                let hits = cache.stats().hits;
                let got = run(&budget);
                assert_eq!(
                    (&got.ids, got.cost, got.truncated),
                    (&want, hit_cost, None),
                    "{ctx}: a hit is complete under any budget"
                );
                assert_eq!(cache.stats().hits, hits + 1, "{ctx}");
            }
            assert_eq!(cache.stats().stores, 1, "{ctx}: hits never fill");
        }

        // Dynamic index with a buffer and tombstones, then an uncached
        // twin and a cached one over the same live set.
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.5);
        for _ in 0..12 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.2)).collect();
            dynamic.insert(&row).unwrap();
        }
        for h in [3u64, 50, 77, 120, 301, 305] {
            assert!(dynamic.delete(h), "handle {h} is live");
        }
        assert_eq!(dynamic.rebuilds(), 0, "buffer and tombstones stay pending");
        let plain = dynamic.clone();
        let mut cached = dynamic;
        let cache = Arc::new(ResultCache::default());
        cached.attach_cache(Arc::clone(&cache));
        for (q, w) in pool.iter().enumerate() {
            let ctx = format!("dynamic d={d} q={q}");
            let mut live: Vec<(f64, Handle)> = (0..plain.next_handle())
                .filter_map(|h| plain.get(h).map(|row| (w.score(row), h)))
                .collect();
            live.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let want: Vec<Handle> = live.iter().take(K).map(|&(_, h)| h).collect();
            let check_scores = |hits: &[(f64, Handle)], index: &DynamicIndex| {
                for &(s, h) in hits {
                    let row = index.get(h).expect("answer handle is live");
                    assert_eq!(s.to_bits(), w.score(row).to_bits(), "{ctx}: handle {h}");
                }
            };

            // Uncached: every entry point is the same traversal.
            let (ids, cost) = plain.topk(w, K);
            assert_eq!(ids, want, "{ctx}: uncached topk");
            let full = plain.topk_guarded(w, K, &unlimited);
            assert_eq!((&full.ids, full.cost, full.truncated), (&want, cost, None));
            let (hits, probe_cost) = plain.probe(w, K, &unlimited).expect("probe");
            assert_eq!(hits.iter().map(|&(_, h)| h).collect::<Vec<_>>(), want);
            assert_eq!(probe_cost, cost, "{ctx}");
            check_scores(&hits, &plain);
            for (budget, reason) in tight_budgets() {
                let g = plain.topk_guarded(w, K, &budget);
                assert_eq!(g.truncated, Some(reason), "{ctx}");
                assert!(want.starts_with(&g.ids), "{ctx}: a true prefix");
                assert_eq!(
                    plain.probe(w, K, &budget),
                    Err(ShardError::Truncated(reason)),
                    "{ctx}"
                );
            }

            // Cached: budgeted misses match the uncached twin, store nothing.
            let stores = cache.stats().stores;
            for (budget, _) in tight_budgets() {
                let got = cached.topk_guarded(w, K, &budget);
                assert_eq!(got, plain.topk_guarded(w, K, &budget), "{ctx}");
                assert!(cached.probe(w, K, &budget).is_err(), "{ctx}");
            }
            assert_eq!(cache.stats().stores, stores, "{ctx}: budgeted misses");
            // The fill: through topk on even weights, the probe on odd ones.
            let fill_cost = plain.topk(w, K + 1).1;
            if q % 2 == 0 {
                assert_eq!(cached.topk(w, K), (want.clone(), fill_cost), "{ctx}");
            } else {
                let (hits, cost) = cached.probe(w, K, &unlimited).expect("probe");
                assert_eq!(hits.iter().map(|&(_, h)| h).collect::<Vec<_>>(), want);
                assert_eq!(cost, fill_cost, "{ctx}: probe fill");
                check_scores(&hits, &cached);
            }
            assert_eq!(cache.stats().stores, stores + 1, "{ctx}: one fill");
            // Every repeat hits, under any budget, on every entry point.
            let hits_before = cache.stats().hits;
            assert_eq!(cached.topk(w, K), (want.clone(), hit_cost), "{ctx}");
            let budgets = tight_budgets().into_iter().map(|(b, _)| b);
            for budget in std::iter::once(unlimited.clone()).chain(budgets) {
                let g = cached.topk_guarded(w, K, &budget);
                assert_eq!((&g.ids, g.cost, g.truncated), (&want, hit_cost, None));
                let (hits, cost) = cached.probe(w, K, &budget).expect("a hit");
                assert_eq!(hits.iter().map(|&(_, h)| h).collect::<Vec<_>>(), want);
                assert_eq!(cost, hit_cost, "{ctx}: probe hit");
                check_scores(&hits, &cached);
            }
            assert_eq!(cache.stats().hits, hits_before + 7, "{ctx}");
            assert_eq!(cache.stats().stores, stores + 1, "{ctx}: hits never fill");
        }
    }
}
