//! The ∃-dominance-set test (Definitions 5–6 of the paper).
//!
//! A facet — a set of up to `d` tuples spanning a hyperplane segment — is
//! an ∃-dominance set of a tuple `t'` iff some *virtual tuple* on the
//! segment (a convex combination of the facet's tuples) dominates `t'`.
//! Soundness of the resulting edges: if `v = Σ λ_j t^j` dominates `t'`,
//! then for every strictly positive weight vector `w`,
//! `min_j F(t^j) ≤ F(v) < F(t')` — so at least one facet member always
//! precedes `t'` in score order, which is exactly what Lemma 2 needs.

use crate::lp::{Cmp, Status, Tableau};
use drtopk_common::{dominates, dominates_eq, Relation, TupleId};
use std::cell::RefCell;

thread_local! {
    /// One tableau per thread, reused by every ∃-dominance test a build
    /// runs on it.
    static EDS_TABLEAU: RefCell<Tableau> = RefCell::new(Tableau::default());
}

/// Decides whether the facet `facet` (tuple ids) is an ∃-dominance set of
/// tuple `target`: does `conv(facet)` contain a point dominating `target`?
#[allow(clippy::needless_range_loop)] // per-dimension mins are indexed against two arrays
pub fn facet_is_eds(rel: &Relation, facet: &[TupleId], target: TupleId) -> bool {
    let d = rel.dims();
    let t = rel.tuple(target);

    // Fast necessary condition: the facet's min-corner must weakly dominate
    // the target (every convex combination is >= the min-corner).
    for i in 0..d {
        let min_i = facet
            .iter()
            .map(|&f| rel.tuple(f)[i])
            .fold(f64::INFINITY, f64::min);
        if min_i > t[i] {
            return false;
        }
    }
    // Fast sufficient condition: a facet member itself dominates the target
    // (λ = a unit vector).
    for &f in facet {
        if dominates(rel.tuple(f), t) {
            return true;
        }
    }
    if facet.len() == 1 {
        // Single-member "facet": only the member itself is on the segment.
        return false;
    }
    if d == 2 {
        return segment_eds_2d(rel, facet, t);
    }

    // General case: maximize total slack Σ s_i subject to
    //   Σ_j λ_j t^j_i + s_i = t'_i   (i = 1..d)
    //   Σ_j λ_j = 1, λ ≥ 0, s ≥ 0.
    // Feasible with positive optimum ⇔ a strictly dominating virtual tuple
    // exists (zero optimum means the only candidate equals t').
    // Variables are λ_1..λ_m then s_1..s_d; every row is an equality, so
    // normalizing a negative right-hand side never changes a relation.
    let m = facet.len();
    EDS_TABLEAU.with(|cell| {
        let lp = &mut *cell.borrow_mut();
        lp.layout(m + d, std::iter::repeat_n(Cmp::Eq, d + 1));
        lp.objective_mut()[m..].fill(1.0);
        for i in 0..d {
            let row = lp.row_mut(i);
            for (j, &f) in facet.iter().enumerate() {
                row[j] = rel.tuple(f)[i];
            }
            row[m + i] = 1.0;
            lp.set_rhs(i, t[i]);
        }
        lp.row_mut(d)[..m].fill(1.0);
        lp.set_rhs(d, 1.0);
        lp.solve() == Status::Optimal && lp.value() > 1e-9
    })
}

/// Exact 2-d special case: does the segment between the facet's extreme
/// points intersect the open dominance region `{x ≤ t', x ≠ t'}`?
#[allow(clippy::needless_range_loop)] // the k loop zips three parallel pairs
fn segment_eds_2d(rel: &Relation, facet: &[TupleId], t: &[f64]) -> bool {
    // With more than two members (possible via degenerate fallbacks), the
    // convex hull of collinear points is the segment between the two
    // lexicographic extremes; for the exact chain facets it is just a pair.
    let (mut a, mut b) = {
        let p = rel.tuple(facet[0]);
        ((p[0], p[1]), (p[0], p[1]))
    };
    for &f in facet {
        let p = rel.tuple(f);
        if (p[0], p[1]) < (a.0, a.1) {
            a = (p[0], p[1]);
        }
        if (p[0], p[1]) > (b.0, b.1) {
            b = (p[0], p[1]);
        }
    }
    // Clamp the segment parameter to the sub-range where x ≤ t'_x and
    // y ≤ t'_y; nonempty range with a strictly-dominating point => EDS.
    // Parameterize p(λ) = a + λ(b-a), λ ∈ [0,1].
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for k in 0..2 {
        let (s, e, bound) = (
            if k == 0 { a.0 } else { a.1 },
            if k == 0 { b.0 } else { b.1 },
            t[k],
        );
        let delta = e - s;
        if delta.abs() < 1e-15 {
            if s > bound {
                return false;
            }
        } else {
            let lim = (bound - s) / delta;
            if delta > 0.0 {
                hi = hi.min(lim);
            } else {
                lo = lo.max(lim);
            }
        }
    }
    lo = lo.max(0.0);
    hi = hi.min(1.0);
    if lo > hi + 1e-12 {
        return false;
    }
    // A feasible λ exists; ensure the point is not exactly t' (strictness).
    let lam = 0.5 * (lo + hi);
    let px = a.0 + lam * (b.0 - a.0);
    let py = a.1 + lam * (b.1 - a.1);
    dominates_eq(&[px, py], t) && (px < t[0] || py < t[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::relation::{toy_dataset, toy_id};

    #[test]
    fn toy_example_2_facet_ab_is_eds_of_f() {
        let r = toy_dataset();
        assert!(facet_is_eds(&r, &[toy_id('a'), toy_id('b')], toy_id('f')));
    }

    #[test]
    fn toy_facet_bc_is_eds_of_g_but_not_of_f() {
        let r = toy_dataset();
        assert!(facet_is_eds(&r, &[toy_id('b'), toy_id('c')], toy_id('g')));
        assert!(!facet_is_eds(&r, &[toy_id('b'), toy_id('c')], toy_id('f')));
    }

    #[test]
    fn toy_facet_ab_is_not_eds_of_g() {
        // The segment a-b never drops below g's y coordinate.
        let r = toy_dataset();
        assert!(!facet_is_eds(&r, &[toy_id('a'), toy_id('b')], toy_id('g')));
    }

    #[test]
    fn member_dominating_target_is_eds() {
        let r = toy_dataset();
        // a dominates d, so any facet containing a is an EDS of d.
        assert!(facet_is_eds(&r, &[toy_id('a'), toy_id('b')], toy_id('d')));
    }

    #[test]
    fn lp_path_3d() {
        use drtopk_common::Relation;
        // Facet {(0.1,0.5,0.5), (0.5,0.1,0.5), (0.5,0.5,0.1)}: its centroid
        // (0.367, 0.367, 0.367) dominates (0.4, 0.4, 0.4) but nothing on the
        // triangle dominates (0.2, 0.2, 0.2).
        let rel = Relation::from_rows(
            3,
            &[
                vec![0.1, 0.5, 0.5],
                vec![0.5, 0.1, 0.5],
                vec![0.5, 0.5, 0.1],
                vec![0.4, 0.4, 0.4],
                vec![0.2, 0.2, 0.2],
            ],
        )
        .unwrap();
        assert!(facet_is_eds(&rel, &[0, 1, 2], 3));
        assert!(!facet_is_eds(&rel, &[0, 1, 2], 4));
    }

    #[test]
    fn strictness_boundary() {
        use drtopk_common::Relation;
        // The target lies exactly on the segment: the only weakly-dominating
        // virtual point equals the target, so this is NOT an EDS.
        let rel =
            Relation::from_rows(2, &[vec![0.2, 0.6], vec![0.6, 0.2], vec![0.4, 0.4]]).unwrap();
        assert!(!facet_is_eds(&rel, &[0, 1], 2));
        // Nudging the target up makes it an EDS.
        let rel2 =
            Relation::from_rows(2, &[vec![0.2, 0.6], vec![0.6, 0.2], vec![0.41, 0.41]]).unwrap();
        assert!(facet_is_eds(&rel2, &[0, 1], 2));
    }

    #[test]
    fn single_member_facet() {
        use drtopk_common::Relation;
        let rel =
            Relation::from_rows(2, &[vec![0.3, 0.3], vec![0.5, 0.5], vec![0.3, 0.3]]).unwrap();
        assert!(facet_is_eds(&rel, &[0], 1), "member dominates target");
        assert!(
            !facet_is_eds(&rel, &[0], 2),
            "identical point does not dominate"
        );
    }

    #[test]
    fn lp_agrees_with_grid_search_2d() {
        use drtopk_common::Relation;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let rows: Vec<Vec<f64>> = (0..3)
                .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
                .collect();
            let rel = Relation::from_rows(2, &rows).unwrap();
            let got = facet_is_eds(&rel, &[0, 1], 2);
            // Dense grid search over λ as an oracle.
            let a = rel.tuple(0);
            let b = rel.tuple(1);
            let t = rel.tuple(2);
            let mut want = false;
            for step in 0..=1000 {
                let lam = step as f64 / 1000.0;
                let p = [a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1])];
                if dominates(&p, t) {
                    want = true;
                    break;
                }
            }
            if got != want {
                // The grid can miss razor-thin feasible windows; re-check
                // with the exact predicate before failing.
                assert!(
                    got,
                    "test oracle found a dominating point the code missed: {rows:?}"
                );
            }
        }
    }
}
