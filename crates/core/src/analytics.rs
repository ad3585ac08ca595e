//! Analytical queries layered on the index traversal: reverse top-k and
//! the k-skyband.
//!
//! * **Reverse top-k** (bichromatic; Vlachou et al., ICDE 2010 — the
//!   paper's reference \[32\]): given a tuple and a population of user
//!   weight vectors, find the users whose top-k contains the tuple.
//!   Answered with threshold traversals bounded by the tuple's own score,
//!   so each user costs roughly a top-k query, not a scan.
//! * **k-skyband**: the tuples dominated by fewer than k others — a
//!   weight-independent superset of every possible top-k answer under any
//!   strictly monotone scoring function.

use crate::index::DualLayerIndex;
use crate::query::TopkCursor;
use drtopk_common::{dominates, Cost, TupleId, Weights};

impl DualLayerIndex {
    /// Bichromatic reverse top-k: indexes into `users` whose top-k result
    /// (under this index's relation) contains `target`. Also returns the
    /// total traversal cost.
    ///
    /// Per user `w`, `target ∈ top-k(w)` iff fewer than k tuples have a
    /// smaller `(score, id)` key — decided by a score-bounded traversal
    /// that stops as soon as k better tuples are seen.
    ///
    /// # Panics
    /// Panics if `target` is out of range or any user's dimensionality
    /// differs from the index's.
    pub fn reverse_topk(&self, target: TupleId, k: usize, users: &[Weights]) -> (Vec<usize>, Cost) {
        assert!((target as usize) < self.len(), "target out of range");
        let mut cost = Cost::new();
        let mut hits = Vec::new();
        if k == 0 {
            return (hits, cost);
        }
        self.pooled(|scratch| {
            for (ui, w) in users.iter().enumerate() {
                let t_score = w.score(self.relation().tuple(target));
                // Count tuples strictly preceding `target` in (score, id)
                // order; stop counting at k.
                let mut better = 0usize;
                let mut cursor = TopkCursor::new(self, w, scratch, None);
                for (t, score) in cursor.by_ref() {
                    if score > t_score || (score == t_score && t >= target) {
                        break;
                    }
                    if t != target {
                        better += 1;
                        if better >= k {
                            break;
                        }
                    }
                }
                cost.merge(&cursor.cost());
                if better < k {
                    hits.push(ui);
                }
            }
        });
        (hits, cost)
    }

    /// The k-skyband: tuples dominated by fewer than `k` others. For any
    /// strictly monotone scoring function, every top-k answer lies in the
    /// k-skyband, making it the tightest weight-independent candidate set.
    ///
    /// Computed from the coarse layers: only tuples in the first k coarse
    /// layers can qualify (each deeper layer adds a dominator along a
    /// chain), so the quadratic count runs over a small prefix.
    pub fn skyband(&self, k: usize) -> Vec<TupleId> {
        if k == 0 {
            return Vec::new();
        }
        let rel = self.relation();
        // Candidates: first k coarse layers (layer number = longest
        // dominance chain length <= 1 + #dominators).
        let candidates: Vec<TupleId> = self
            .coarse_layers()
            .iter()
            .take(k)
            .flat_map(|l| l.members())
            .collect();
        let mut out = Vec::new();
        'outer: for &t in &candidates {
            let tv = rel.tuple(t);
            let mut dominators = 0usize;
            // Dominators of a candidate can sit anywhere in the first k
            // layers (and nowhere deeper: a dominator's layer precedes
            // its dominatee's).
            for &s in &candidates {
                if s != t && dominates(rel.tuple(s), tv) {
                    dominators += 1;
                    if dominators >= k {
                        continue 'outer;
                    }
                }
            }
            out.push(t);
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reverse_topk_matches_bruteforce() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 300, 17).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let mut rng = StdRng::seed_from_u64(11);
        let users: Vec<Weights> = (0..25).map(|_| Weights::random(3, &mut rng)).collect();
        for target in [0u32, 17, 123, 299] {
            for k in [1, 5, 20] {
                let (got, cost) = idx.reverse_topk(target, k, &users);
                let want: Vec<usize> = users
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| topk_bruteforce(&rel, w, k).contains(&target))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, want, "target={target} k={k}");
                assert!(cost.total() <= (users.len() * rel.len()) as u64);
            }
        }
    }

    #[test]
    fn skyband_contains_every_topk_answer() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 3).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let mut rng = StdRng::seed_from_u64(2);
        for k in [1, 3, 10] {
            let band = idx.skyband(k);
            for _ in 0..10 {
                let w = Weights::random(3, &mut rng);
                for t in topk_bruteforce(&rel, &w, k) {
                    assert!(
                        band.contains(&t),
                        "top-{k} answer {t} missing from {k}-skyband"
                    );
                }
            }
            // Definitional check: members have < k dominators, and every
            // excluded tuple has >= k.
            for t in 0..rel.len() as TupleId {
                let dominators = (0..rel.len() as TupleId)
                    .filter(|&s| s != t && drtopk_common::dominates(rel.tuple(s), rel.tuple(t)))
                    .count();
                assert_eq!(band.contains(&t), dominators < k, "tuple {t} k={k}");
            }
        }
    }

    #[test]
    fn skyband_1_is_the_skyline() {
        let rel = WorkloadSpec::new(Distribution::Independent, 4, 250, 9).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let band = idx.skyband(1);
        let mut l1: Vec<TupleId> = idx.coarse_layers()[0].members().collect();
        l1.sort_unstable();
        assert_eq!(band, l1);
    }

    /// Whether tuple `t` has at least as many dominators as the number of
    /// coarse layers before its own: the bound that lets `skyband` skip
    /// every layer past the k-th.
    fn chain_length_lower_bounds_dominators(idx: &DualLayerIndex, t: TupleId) -> bool {
        let rel = idx.relation();
        let layer_of = idx
            .coarse_layers()
            .iter()
            .position(|l| l.members().any(|m| m == t))
            .expect("tuple is in some layer");
        let dominators = (0..rel.len() as TupleId)
            .filter(|&s| s != t && dominates(rel.tuple(s), rel.tuple(t)))
            .count();
        dominators >= layer_of
    }

    #[test]
    fn chain_length_bound_holds() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 200, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        for t in 0..rel.len() as TupleId {
            assert!(chain_length_lower_bounds_dominators(&idx, t), "tuple {t}");
        }
    }
}
