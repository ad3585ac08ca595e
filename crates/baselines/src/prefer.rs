//! PREFER-style view-based top-k (Hristidis, Koudas & Papakonstantinou,
//! SIGMOD 2001) — the third family in the paper's taxonomy (Section
//! VII-C), completing layer-, list-, and view-based coverage.
//!
//! The index materializes *views*: complete rankings of the relation
//! under a handful of representative weight vectors. A query with weights
//! `q` scans the most similar view in its order, scoring each tuple
//! exactly, and stops at the *watermark*: once the query's k-th best
//! score is at most `s · min_j(q_j / v_j)` — a sound lower bound on the
//! query score of any tuple whose view score is ≥ s (minimize `q·t`
//! subject to `v·t ≥ s`, relaxing the `[0,1]` box) — no deeper tuple can
//! improve the answer.
//!
//! The paper's Section VII-C drawback — "the overhead of storing and
//! managing multiple top-k views" — is visible directly: each view costs
//! O(n) storage and the answer quality depends on view/query similarity.

use drtopk_common::weights::ScoredTuple;
use drtopk_common::{Cost, Relation, TupleId, Weights};

/// One materialized view: a weight vector and the full ranking under it.
#[derive(Debug, Clone)]
struct View {
    weights: Weights,
    ranking: Vec<TupleId>,
}

/// A built PREFER-style view index.
#[derive(Debug, Clone)]
pub struct PreferIndex {
    rel: Relation,
    views: Vec<View>,
}

impl PreferIndex {
    /// Materializes one view per weight vector in `view_weights`.
    ///
    /// # Panics
    /// Panics if `view_weights` is empty or dimensionalities mismatch.
    pub fn build(rel: &Relation, view_weights: &[Weights]) -> Self {
        assert!(!view_weights.is_empty(), "at least one view is required");
        let views = view_weights
            .iter()
            .map(|w| {
                assert_eq!(w.dims(), rel.dims());
                View {
                    weights: w.clone(),
                    ranking: drtopk_common::topk_bruteforce(rel, w, rel.len()),
                }
            })
            .collect();
        PreferIndex {
            rel: rel.clone(),
            views,
        }
    }

    /// Materializes `count` views on a deterministic low-discrepancy set of
    /// weight vectors (uniform + rotations of a Kronecker sequence).
    pub fn build_with_default_views(rel: &Relation, count: usize) -> Self {
        let d = rel.dims();
        let mut weights = vec![Weights::uniform(d)];
        // Kronecker/Weyl sequence over the simplex: deterministic, spreads
        // views without an RNG.
        let mut x = 0.5f64;
        let alpha = 0.754_877_666; // plastic-number-based irrational step
        for _ in 1..count.max(1) {
            let mut raw = Vec::with_capacity(d);
            for j in 0..d {
                x = (x + alpha * (j + 1) as f64).fract();
                raw.push(0.05 + x);
            }
            weights.push(Weights::new(raw).expect("positive weights"));
        }
        Self::build(rel, &weights)
    }

    /// Total materialized entries (the storage overhead the paper notes).
    pub fn materialized_entries(&self) -> usize {
        self.views.len() * self.rel.len()
    }

    /// The watermark coefficient: `min_j q_j / v_j`.
    fn similarity(q: &Weights, v: &Weights) -> f64 {
        q.as_slice()
            .iter()
            .zip(v.as_slice())
            .map(|(q, v)| q / v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Answers a top-k query by scanning the best-matching view up to its
    /// watermark.
    pub fn topk(&self, q: &Weights, k: usize) -> (Vec<TupleId>, Cost) {
        assert_eq!(q.dims(), self.rel.dims());
        let mut cost = Cost::new();
        let k_eff = k.min(self.rel.len());
        if k_eff == 0 {
            return (Vec::new(), cost);
        }
        // Most similar view = largest watermark coefficient (tightest stop).
        let (view, coeff) = self
            .views
            .iter()
            .map(|v| (v, Self::similarity(q, &v.weights)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite coefficients"))
            .expect("at least one view");

        let mut candidates: Vec<ScoredTuple> = Vec::new();
        for &t in &view.ranking {
            let tv = self.rel.tuple(t);
            cost.tick();
            candidates.push(ScoredTuple {
                score: q.score(tv),
                id: t,
            });
            if candidates.len() >= k_eff {
                candidates.sort_unstable();
                candidates.truncate(k_eff);
                // Watermark: any unscanned tuple u has view score
                // >= the current tuple's view score s, hence query score
                // >= s * coeff.
                let s = view.weights.score(tv);
                if candidates[k_eff - 1].score <= s * coeff {
                    break;
                }
            }
        }
        candidates.sort_unstable();
        candidates.truncate(k_eff);
        (candidates.into_iter().map(|s| s.id).collect(), cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(12);
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in 2..=4 {
                let rel = WorkloadSpec::new(dist, d, 400, 77).generate();
                let idx = PreferIndex::build_with_default_views(&rel, 8);
                for k in [1, 10, 50] {
                    let w = Weights::random(d, &mut rng);
                    assert_eq!(
                        idx.topk(&w, k).0,
                        topk_bruteforce(&rel, &w, k),
                        "{dist:?} d={d} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_view_match_costs_k() {
        // Querying with a view's own weights stops at exactly k scans.
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 1000, 4).generate();
        let w = Weights::uniform(3);
        let idx = PreferIndex::build(&rel, std::slice::from_ref(&w));
        let (got, cost) = idx.topk(&w, 10);
        assert_eq!(got, topk_bruteforce(&rel, &w, 10));
        assert_eq!(cost.evaluated, 10, "identical weights need no over-scan");
    }

    #[test]
    fn more_views_reduce_cost() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 2000, 6).generate();
        let sparse = PreferIndex::build_with_default_views(&rel, 1);
        let dense = PreferIndex::build_with_default_views(&rel, 16);
        let mut rng = StdRng::seed_from_u64(5);
        let (mut c_sparse, mut c_dense) = (0u64, 0u64);
        for _ in 0..20 {
            let w = Weights::random(3, &mut rng);
            c_sparse += sparse.topk(&w, 10).1.total();
            c_dense += dense.topk(&w, 10).1.total();
        }
        assert!(
            c_dense < c_sparse,
            "denser view sets must tighten the watermark ({c_dense} vs {c_sparse})"
        );
        // ...and the paper's noted overhead is real:
        assert_eq!(dense.materialized_entries(), 16 * 2000);
    }

    #[test]
    fn k_edge_cases() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 25, 1).generate();
        let idx = PreferIndex::build_with_default_views(&rel, 3);
        let w = Weights::uniform(2);
        assert!(idx.topk(&w, 0).0.is_empty());
        assert_eq!(idx.topk(&w, 99).0, topk_bruteforce(&rel, &w, 25));
    }
}
