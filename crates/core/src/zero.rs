//! Zero-layer structures (Section V): selective access to the first fine
//! sublayer.

use drtopk_common::{Relation, TupleId, Weights};

/// Exact 2-d zero layer (Section V-A).
///
/// The first fine sublayer `L¹¹` is a convex chain; the weight simplex
/// (parameterized by `w₁`) partitions into contiguous ranges, one per chain
/// vertex, delimited by the slopes of the chain's facets. A query binary
/// searches its `w₁` into a range and seeds the queue with that single
/// vertex; popping a chain vertex then frees its chain neighbors (scores
/// along a convex chain are unimodal around the seed, so expansion in score
/// order is contiguous).
#[derive(Debug, Clone)]
pub struct Zero2d {
    /// The chain `L¹¹`, ordered by increasing x (decreasing y).
    pub chain: Vec<TupleId>,
    /// `breakpoints[t]` is the `w₁` value at which the minimizer switches
    /// from `chain[t]` (above) to `chain[t+1]` (below); strictly decreasing.
    pub breakpoints: Vec<f64>,
}

impl Zero2d {
    /// Builds the structure from the first fine sublayer's members.
    pub fn build(rel: &Relation, l11: &[TupleId]) -> Self {
        let mut chain: Vec<TupleId> = l11.to_vec();
        chain.sort_unstable_by(|&a, &b| {
            let (ta, tb) = (rel.tuple(a), rel.tuple(b));
            ta[0].partial_cmp(&tb[0]).unwrap().then(a.cmp(&b))
        });
        let mut breakpoints = Vec::with_capacity(chain.len().saturating_sub(1));
        for pair in chain.windows(2) {
            let (p, q) = (rel.tuple(pair[0]), rel.tuple(pair[1]));
            let dx = q[0] - p[0];
            let dy = p[1] - q[1];
            // Chain property: dx > 0, dy > 0. The switching weight solves
            // w₁·dx = (1 − w₁)·dy.
            debug_assert!(dx > 0.0 && dy > 0.0, "L11 must be a strict convex chain");
            breakpoints.push(dy / (dx + dy));
        }
        debug_assert!(
            breakpoints.windows(2).all(|w| w[0] >= w[1]),
            "breakpoints must decrease"
        );
        Zero2d { chain, breakpoints }
    }

    /// Chain position of the top-1 candidate for weight vector `w`
    /// (logarithmic search, as in Section V-A).
    pub fn select(&self, w: &Weights) -> usize {
        drtopk_obs::metrics().zero_probes.add(1);
        let w1 = w.as_slice()[0];
        // Minimizer is chain[t] for w1 in (breakpoints[t], breakpoints[t-1]).
        // breakpoints are decreasing, so partition_point on `w1 < bp`.
        self.breakpoints.partition_point(|&bp| w1 < bp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::relation::{toy_dataset, toy_id};
    use drtopk_common::Weights;

    fn toy_zero() -> (Relation, Zero2d) {
        let r = toy_dataset();
        let l11 = vec![toy_id('a'), toy_id('b'), toy_id('c')];
        let z = Zero2d::build(&r, &l11);
        (r, z)
    }

    #[test]
    fn chain_is_x_ordered() {
        let (_, z) = toy_zero();
        assert_eq!(z.chain, vec![toy_id('a'), toy_id('b'), toy_id('c')]);
        assert_eq!(z.breakpoints.len(), 2);
        assert!(z.breakpoints[0] > z.breakpoints[1]);
    }

    #[test]
    fn select_matches_bruteforce_over_weight_sweep() {
        let (r, z) = toy_zero();
        for step in 1..100 {
            let w1 = step as f64 / 100.0;
            let w = Weights::new(vec![w1, 1.0 - w1]).unwrap();
            let best = z.select(&w);
            let best_id = z.chain[best];
            for &c in &z.chain {
                assert!(
                    w.score(r.tuple(best_id)) <= w.score(r.tuple(c)) + 1e-12,
                    "select() must return the true chain minimizer (w1={w1})"
                );
            }
        }
    }

    #[test]
    fn extreme_weights_pick_chain_ends() {
        let (_, z) = toy_zero();
        let w_x = Weights::new(vec![0.99, 0.01]).unwrap();
        let w_y = Weights::new(vec![0.01, 0.99]).unwrap();
        assert_eq!(z.select(&w_x), 0, "x-heavy weight favors the min-x end");
        assert_eq!(
            z.select(&w_y),
            z.chain.len() - 1,
            "y-heavy weight favors the min-y end"
        );
    }

    #[test]
    fn single_vertex_chain() {
        let r = Relation::from_rows(2, &[vec![0.4, 0.4]]).unwrap();
        let z = Zero2d::build(&r, &[0]);
        assert!(z.breakpoints.is_empty());
        assert_eq!(z.select(&Weights::uniform(2)), 0);
    }
}
