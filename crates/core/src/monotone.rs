//! Top-k under arbitrary *monotone* scoring functions.
//!
//! The paper assumes linear scoring because convex skylines — and hence
//! the ∃-dominance machinery — are only sound for linear functions. The
//! coarse level needs less: ∀-dominance ordering (Lemma 1) holds for
//! every monotone function, exactly the Dominant Graph's assumption. This
//! module therefore answers monotone top-k queries on any built
//! [`DualLayerIndex`] by traversing the ∀-graph only (∃ edges and the
//! zero-layer chain are linearity-dependent and are bypassed; clustered
//! pseudo-tuples are kept — a min-corner dominates its cluster under any
//! monotone function).
//!
//! With non-strictly-monotone functions (e.g. a weighted Chebyshev
//! maximum), dominance can produce score *ties*; the returned set is then
//! correct up to equal-score substitutions, matching the paper's "ties
//! are broken arbitrarily".

use crate::index::{DualLayerIndex, NodeId};
use crate::query::TopkResult;
use drtopk_common::{Cost, TupleId};
use std::collections::BinaryHeap;

/// A monotone scoring function over `[0,1]^d`: if `t ≤ u` component-wise
/// then `score(t) ≤ score(u)`. Implementations must be deterministic and
/// produce finite values on `[0,1]^d`.
pub trait MonotoneScore {
    /// Number of attributes the function expects.
    fn dims(&self) -> usize;
    /// Evaluates the function.
    fn score(&self, t: &[f64]) -> f64;
}

/// `F(t) = Σ wᵢ · tᵢ^p` — a weighted power sum (`p ≥ 1` convex,
/// `0 < p < 1` concave; all strictly monotone for positive weights).
#[derive(Debug, Clone)]
pub struct WeightedPower {
    /// Per-attribute positive weights.
    pub weights: Vec<f64>,
    /// The exponent `p`.
    pub power: f64,
}

impl MonotoneScore for WeightedPower {
    fn dims(&self) -> usize {
        self.weights.len()
    }
    fn score(&self, t: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(t)
            .map(|(w, x)| w * x.powf(self.power))
            .sum()
    }
}

/// `F(t) = max_i wᵢ · tᵢ` — weighted Chebyshev; monotone but not strictly
/// (changing a non-maximal coordinate leaves the score unchanged).
#[derive(Debug, Clone)]
pub struct WeightedChebyshev {
    /// Per-attribute positive weights.
    pub weights: Vec<f64>,
}

impl MonotoneScore for WeightedChebyshev {
    fn dims(&self) -> usize {
        self.weights.len()
    }
    fn score(&self, t: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(t)
            .map(|(w, x)| w * x)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// `F(t) = Σ wᵢ · ln(1 + tᵢ)` — a diminishing-returns aggregate.
#[derive(Debug, Clone)]
pub struct LogSum {
    /// Per-attribute positive weights.
    pub weights: Vec<f64>,
}

impl MonotoneScore for LogSum {
    fn dims(&self) -> usize {
        self.weights.len()
    }
    fn score(&self, t: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(t)
            .map(|(w, x)| w * (1.0 + x).ln())
            .sum()
    }
}

use crate::query::Entry;

impl DualLayerIndex {
    /// Answers a top-k query for an arbitrary monotone scoring function by
    /// traversing the coarse (∀-dominance) level only. See module docs for
    /// the tie semantics.
    ///
    /// # Panics
    /// Panics if `f.dims()` differs from the index's dimensionality.
    pub fn topk_monotone<F: MonotoneScore>(&self, f: &F, k: usize) -> TopkResult {
        assert_eq!(
            f.dims(),
            self.dims(),
            "scoring function dimensionality mismatch"
        );
        let n = self.len();
        let total = n + self.stats().pseudo_tuples;
        let k_eff = k.min(n);
        let mut cost = Cost::new();
        let mut ids: Vec<TupleId> = Vec::with_capacity(k_eff);
        if k_eff == 0 {
            return TopkResult::complete(ids, cost);
        }
        // Traverses in internal (traversal-ordered) node space, like the
        // linear path; `Entry::orig` keeps the id tie-break public.
        let mut remaining: Vec<u32> = self.forall_indeg.clone();
        let mut enqueued = vec![false; total];
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();

        let enqueue =
            |node: NodeId, heap: &mut BinaryHeap<Entry>, enqueued: &mut [bool], cost: &mut Cost| {
                if enqueued[node as usize] {
                    return;
                }
                enqueued[node as usize] = true;
                let real = self.is_real(node);
                if real {
                    cost.tick();
                } else {
                    cost.tick_pseudo();
                }
                let orig = self.node_orig[node as usize];
                heap.push(Entry {
                    score: f.score(self.node_coords(orig)),
                    real,
                    node,
                    orig,
                });
            };

        // Seeds: every node without ∀ in-edges — the whole first coarse
        // layer (or all pseudo-tuples when a clustered zero layer exists).
        for node in 0..total as NodeId {
            if remaining[node as usize] == 0 {
                enqueue(node, &mut heap, &mut enqueued, &mut cost);
            }
        }
        while ids.len() < k_eff {
            let Some(entry) = heap.pop() else {
                debug_assert!(false, "queue exhausted early");
                break;
            };
            if entry.real {
                ids.push(entry.orig as TupleId);
            }
            for &t in self.arena.forall_out(entry.node) {
                remaining[t as usize] -= 1;
                if remaining[t as usize] == 0 {
                    enqueue(t, &mut heap, &mut enqueued, &mut cost);
                }
            }
        }
        TopkResult::complete(ids, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};

    fn oracle_scores<F: MonotoneScore>(rel: &drtopk_common::Relation, f: &F, k: usize) -> Vec<f64> {
        let mut s: Vec<f64> = rel.iter().map(|(_, t)| f.score(t)).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s.truncate(k);
        s
    }

    fn check<F: MonotoneScore>(
        rel: &drtopk_common::Relation,
        idx: &DualLayerIndex,
        f: &F,
        k: usize,
    ) {
        let got = idx.topk_monotone(f, k);
        let mut gs: Vec<f64> = got.ids.iter().map(|&t| f.score(rel.tuple(t))).collect();
        gs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want = oracle_scores(rel, f, k);
        assert_eq!(gs.len(), want.len());
        for (a, b) in gs.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "monotone score mismatch: {a} vs {b}");
        }
        // Results must arrive in non-decreasing score order.
        let ordered: Vec<f64> = got.ids.iter().map(|&t| f.score(rel.tuple(t))).collect();
        assert!(ordered.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn quadratic_and_log_and_chebyshev_match_oracle() {
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in 2..=4 {
                let rel = WorkloadSpec::new(dist, d, 300, 99).generate();
                for opts in [DlOptions::dl(), DlOptions::dl_plus(), DlOptions::dg_plus()] {
                    let idx = DualLayerIndex::build(&rel, opts);
                    let w: Vec<f64> = (1..=d).map(|i| i as f64).collect();
                    for k in [1, 10, 40] {
                        check(
                            &rel,
                            &idx,
                            &WeightedPower {
                                weights: w.clone(),
                                power: 2.0,
                            },
                            k,
                        );
                        check(
                            &rel,
                            &idx,
                            &WeightedPower {
                                weights: w.clone(),
                                power: 0.5,
                            },
                            k,
                        );
                        check(&rel, &idx, &LogSum { weights: w.clone() }, k);
                        check(&rel, &idx, &WeightedChebyshev { weights: w.clone() }, k);
                    }
                }
            }
        }
    }

    #[test]
    fn monotone_cost_bounded_by_n_plus_pseudo() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 7).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let f = WeightedPower {
            weights: vec![1.0, 2.0, 3.0],
            power: 1.5,
        };
        let res = idx.topk_monotone(&f, 10);
        assert!(res.cost.evaluated <= 400);
        assert!(res.cost.evaluated >= 10);
    }

    #[test]
    fn linear_special_case_agrees_with_topk() {
        // power = 1 is the linear case: results must equal the linear path
        // exactly (same tie-break on distinct scores).
        use drtopk_common::Weights;
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let raw = vec![0.2, 0.3, 0.5];
        let f = WeightedPower {
            weights: raw.clone(),
            power: 1.0,
        };
        let w = Weights::new(raw).unwrap();
        assert_eq!(idx.topk_monotone(&f, 25).ids, idx.topk(&w, 25).ids);
    }
}
