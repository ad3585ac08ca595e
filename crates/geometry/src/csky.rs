//! Convex skylines (Definition 4) and convex-layer peeling.
//!
//! A tuple is a *convex skyline* tuple iff it minimizes some strictly
//! positive linear scoring function over the set. Geometrically these are
//! the vertices of the hull's *origin-facing* boundary: facets whose
//! outward normal is strictly negative in every component.
//!
//! Extraction strategy, by case:
//!
//! * `d == 2` — the exact lower-left monotone chain ([`crate::hull2d`]);
//! * general position, `|S| > d+1` — QuickHull over the points plus one
//!   *apex* sentinel at `(3,…,3)`. The apex collapses the upper hull to a
//!   small cone (big savings on anti-correlated workloads) while leaving
//!   every origin-facing facet untouched; facets containing the apex can
//!   never be all-negative, so it is filtered out for free;
//! * small or affinely degenerate sets — definitional LP membership tests
//!   (is there a strictly positive `w` making `t` the unique minimizer?).
//!
//! Vertices of strictly-negative facets are *exactly* convex-skyline
//! members; members exposed only by weights at the orthant boundary may be
//! missed, which shifts them one sublayer later — harmless for index
//! correctness (see DESIGN.md). To guarantee peeling progress, the
//! uniform-weight minimizer is always included.

use crate::hull2d::{cross, lower_left_chain};
use crate::hulldd::{quickhull, HullScratch};
use crate::lp::{Cmp, LpOutcome, Simplex};
use crate::GEOM_EPS;
use drtopk_common::{dominates, Relation, TupleId};

/// Coordinate of the apex sentinel used to discard the upper hull. Any
/// value strictly greater than the data maximum (1.0) works; 3.0 keeps the
/// sentinel well clear of visibility tolerances.
const APEX: f64 = 3.0;

/// How many points the LP fallback will process before degrading to the
/// probe-minima extraction (degenerate inputs only; see module docs).
const LP_FALLBACK_CAP: usize = 512;

/// A convex skyline: member positions plus the facets of its origin-facing
/// boundary. Positions index into the `ids` slice passed to
/// [`convex_skyline`]; facet entries are positions of members.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexSkyline {
    pub members: Vec<u32>,
    pub facets: Vec<Vec<u32>>,
}

/// The point buffer and hull state one convex-layer peel reuses across
/// its layers.
#[derive(Debug, Default)]
struct CskyScratch {
    pts: Vec<f64>,
    hull: HullScratch,
}

/// Computes the convex skyline of the tuples `ids` within `rel`.
///
/// Returns positions into `ids` (sorted ascending) and facets usable as
/// ∃-dominance-set candidates.
pub fn convex_skyline(rel: &Relation, ids: &[TupleId]) -> ConvexSkyline {
    convex_skyline_with(rel, ids, &mut CskyScratch::default())
}

fn convex_skyline_with(
    rel: &Relation,
    ids: &[TupleId],
    scratch: &mut CskyScratch,
) -> ConvexSkyline {
    let d = rel.dims();
    let m = ids.len();
    if m == 0 {
        return ConvexSkyline {
            members: Vec::new(),
            facets: Vec::new(),
        };
    }
    if m == 1 {
        return ConvexSkyline {
            members: vec![0],
            facets: vec![vec![0]],
        };
    }
    if d == 2 {
        return csky_2d(rel, ids);
    }
    if m <= d + 1 {
        return csky_lp(rel, ids);
    }
    match csky_hull(rel, ids, scratch) {
        Some(cs) => cs,
        None => {
            if m <= LP_FALLBACK_CAP {
                csky_lp(rel, ids)
            } else {
                csky_probe_minima(rel, ids)
            }
        }
    }
}

fn csky_2d(rel: &Relation, ids: &[TupleId]) -> ConvexSkyline {
    let pts: Vec<(f64, f64)> = ids
        .iter()
        .map(|&id| {
            let t = rel.tuple(id);
            (t[0], t[1])
        })
        .collect();
    let chain = lower_left_chain(&pts);
    let members: Vec<u32> = {
        let mut v: Vec<u32> = chain.iter().map(|&i| i as u32).collect();
        v.sort_unstable();
        v
    };
    // Facets are consecutive chain pairs, in chain order.
    let facets: Vec<Vec<u32>> = if chain.len() == 1 {
        vec![vec![chain[0] as u32]]
    } else {
        chain
            .windows(2)
            .map(|w| vec![w[0] as u32, w[1] as u32])
            .collect()
    };
    ConvexSkyline { members, facets }
}

fn csky_hull(rel: &Relation, ids: &[TupleId], scratch: &mut CskyScratch) -> Option<ConvexSkyline> {
    let d = rel.dims();
    let m = ids.len();
    let pts = &mut scratch.pts;
    pts.clear();
    for &id in ids {
        pts.extend_from_slice(rel.tuple(id));
    }
    pts.extend(std::iter::repeat_n(APEX, d)); // apex sentinel at index m
    scratch.hull.build(pts, d, GEOM_EPS).ok()?;
    let mut members: Vec<u32> = Vec::new();
    let mut facets: Vec<Vec<u32>> = Vec::new();
    for (vertices, normal, _) in scratch.hull.facets() {
        if normal.iter().all(|&c| c < -GEOM_EPS) {
            debug_assert!(
                vertices.iter().all(|&v| (v as usize) < m),
                "apex can never lie on an all-negative facet"
            );
            members.extend_from_slice(vertices);
            facets.push(vertices.to_vec());
        }
    }
    // Guarantee progress: the uniform-weight minimizer is always a convex
    // skyline member (ties broken by position).
    let uni_min = (0..m as u32)
        .min_by(|&a, &b| {
            let sa: f64 = rel.tuple(ids[a as usize]).iter().sum();
            let sb: f64 = rel.tuple(ids[b as usize]).iter().sum();
            sa.partial_cmp(&sb).unwrap().then(a.cmp(&b))
        })
        .expect("nonempty");
    members.push(uni_min);
    members.sort_unstable();
    members.dedup();
    Some(ConvexSkyline { members, facets })
}

/// Definitional extraction: `t` is a convex-skyline member iff the LP
/// `max δ s.t. Σw = 1, w·(t' − t) ≥ δ ∀t', w_i ≥ δ/(4d)` has optimum > 0.
#[allow(clippy::needless_range_loop)] // pairwise i/j comparisons read clearer indexed
fn csky_lp(rel: &Relation, ids: &[TupleId]) -> ConvexSkyline {
    let d = rel.dims();
    let m = ids.len();
    // CSKY ⊆ SKY: filter dominated tuples first (also guards the LP against
    // duplicate coordinates).
    let mut candidates: Vec<u32> = Vec::new();
    'outer: for i in 0..m {
        let t = rel.tuple(ids[i]);
        for j in 0..m {
            if i != j {
                let u = rel.tuple(ids[j]);
                if dominates(u, t) || (u == t && j < i) {
                    continue 'outer;
                }
            }
        }
        candidates.push(i as u32);
    }
    let mut members = Vec::new();
    for &ci in &candidates {
        if lp_is_convex_member(rel, ids, ci as usize, &candidates) {
            members.push(ci);
        }
    }
    if members.is_empty() {
        // Degenerate tie structure: fall back to the uniform minimizer.
        return csky_probe_minima(rel, ids);
    }
    // Facets: for tiny vertex sets, every ≤d-subset is a sound EDS
    // candidate (soundness never depends on true facet-ness).
    let facets = small_facets(&members, d);
    ConvexSkyline { members, facets }
}

fn lp_is_convex_member(rel: &Relation, ids: &[TupleId], i: usize, candidates: &[u32]) -> bool {
    let d = rel.dims();
    let t = rel.tuple(ids[i]);
    // Variables: w_1..w_d, δ. Maximize δ.
    let mut obj = vec![0.0; d + 1];
    obj[d] = 1.0;
    let mut s = Simplex::maximize(obj);
    let mut row = vec![1.0; d + 1];
    row[d] = 0.0;
    s.constraint(&row, Cmp::Eq, 1.0); // Σw = 1
    for &cj in candidates {
        if cj as usize == i {
            continue;
        }
        let u = rel.tuple(ids[cj as usize]);
        let mut r: Vec<f64> = u.iter().zip(t).map(|(a, b)| a - b).collect();
        r.push(-1.0); // w·(u - t) - δ ≥ 0
        s.constraint(&r, Cmp::Ge, 0.0);
    }
    for k in 0..d {
        let mut r = vec![0.0; d + 1];
        r[k] = 1.0;
        r[d] = -1.0 / (4.0 * d as f64); // w_k ≥ δ/(4d): strict positivity
        s.constraint(&r, Cmp::Ge, 0.0);
    }
    // δ ≤ 1 keeps the LP bounded.
    let mut cap = vec![0.0; d + 1];
    cap[d] = 1.0;
    s.constraint(&cap, Cmp::Le, 1.0);
    match s.solve() {
        LpOutcome::Optimal { value, .. } => value > 1e-9,
        _ => false,
    }
}

/// Last-resort extraction for large degenerate sets: the minimizers of a
/// handful of probe weights (uniform plus near-axis probes). Sound —
/// each probe minimizer is a convex-skyline member — and guarantees
/// peeling progress; selectivity just degrades.
fn csky_probe_minima(rel: &Relation, ids: &[TupleId]) -> ConvexSkyline {
    let d = rel.dims();
    let m = ids.len();
    let mut probes: Vec<Vec<f64>> = vec![vec![1.0 / d as f64; d]];
    for axis in 0..d {
        let mut w = vec![0.1 / (d as f64 - 1.0).max(1.0); d];
        w[axis] = 0.9;
        probes.push(w);
    }
    let mut members: Vec<u32> = Vec::new();
    for w in &probes {
        let best = (0..m as u32)
            .min_by(|&a, &b| {
                let sa: f64 = rel
                    .tuple(ids[a as usize])
                    .iter()
                    .zip(w)
                    .map(|(x, c)| x * c)
                    .sum();
                let sb: f64 = rel
                    .tuple(ids[b as usize])
                    .iter()
                    .zip(w)
                    .map(|(x, c)| x * c)
                    .sum();
                sa.partial_cmp(&sb).unwrap().then(a.cmp(&b))
            })
            .expect("nonempty");
        members.push(best);
    }
    members.sort_unstable();
    members.dedup();
    let facets = small_facets(&members, d);
    ConvexSkyline { members, facets }
}

/// Enumerates facet candidates for a tiny vertex set: the set itself if it
/// has ≤ d members, otherwise all d-subsets (at most C(d+1, d) = d+1 for
/// the sizes this is called with; capped defensively).
fn small_facets(members: &[u32], d: usize) -> Vec<Vec<u32>> {
    if members.len() <= d {
        return vec![members.to_vec()];
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..d).collect();
    loop {
        out.push(idx.iter().map(|&i| members[i]).collect());
        if out.len() >= 64 {
            break; // defensive cap; callers only hit this path on tiny sets
        }
        // Next d-combination of members.len() items.
        let mut i = d;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + members.len() - d {
                break;
            }
        }
        if idx[i] == i + members.len() - d {
            return out;
        }
        idx[i] += 1;
        for j in (i + 1)..d {
            idx[j] = idx[j - 1] + 1;
        }
    }
    out
}

/// Computes the positions of all hull vertices of the tuples `ids`
/// (apex sentinel excluded), or `None` when the set is affinely degenerate.
///
/// This is the "fat" convex layer used by the Onion and hybrid-layer
/// baselines: it is a superset of the convex skyline that provably contains
/// the minimizer of every strictly positive weight vector (any such
/// minimizer is a hull vertex), which is exactly what the top-j ⊆ first-j-
/// layers guarantee needs. Thanks to the apex sentinel, most upper-hull
/// vertices are absorbed and the superset stays close to the true convex
/// skyline.
///
/// In 2-d the exact chain is returned instead (it is already complete).
pub fn hull_vertices(rel: &Relation, ids: &[TupleId]) -> Option<Vec<u32>> {
    let d = rel.dims();
    let m = ids.len();
    if m == 0 {
        return Some(Vec::new());
    }
    if d == 2 {
        return Some(csky_2d(rel, ids).members);
    }
    if m <= d + 1 {
        return None; // too small for a full-dimensional hull; callers fall back
    }
    let mut pts = Vec::with_capacity((m + 1) * d);
    for &id in ids {
        pts.extend_from_slice(rel.tuple(id));
    }
    pts.extend(std::iter::repeat_n(APEX, d));
    match quickhull(&pts, d, GEOM_EPS) {
        Ok(h) => {
            // Containment audit: eps-inconsistent horizon walks on
            // near-duplicate inputs can drop true hull vertices, which
            // would silently void the minimizer-containment guarantee the
            // baselines build on. If any input point sits materially
            // outside the returned facets, declare the hull unusable so
            // callers take their sound skyline fallback. Bounded by a
            // work budget so huge well-behaved inputs don't pay O(n·f).
            const CONTAIN_TOL: f64 = 1e-6;
            const AUDIT_BUDGET: usize = 50_000_000;
            if (m + 1) * h.facets.len() <= AUDIT_BUDGET {
                for i in 0..m {
                    let p = &pts[i * d..(i + 1) * d];
                    for f in &h.facets {
                        let dist: f64 =
                            f.normal.iter().zip(p).map(|(a, b)| a * b).sum::<f64>() - f.offset;
                        if dist > CONTAIN_TOL {
                            return None;
                        }
                    }
                }
            }
            let mut v: Vec<u32> = h
                .vertices
                .into_iter()
                .filter(|&p| (p as usize) < m)
                .collect();
            v.sort_unstable();
            Some(v)
        }
        Err(_) => None,
    }
}

/// One peeled convex layer: tuple ids plus EDS-candidate facets (as tuple
/// ids).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexLayer {
    pub members: Vec<TupleId>,
    pub facets: Vec<Vec<TupleId>>,
}

/// Peels `ids` into consecutive convex layers (Onion-style): layer 1 is the
/// convex skyline of the set, layer j the convex skyline of the remainder.
///
/// In 2-d the whole peel shares one sorted order (`convex_layers_2d`);
/// for d ≥ 3 each layer recomputes its hull but the remainder subtraction
/// is a merge over the (sorted) member positions instead of a hash set.
pub fn convex_layers(rel: &Relation, ids: &[TupleId]) -> Vec<ConvexLayer> {
    if rel.dims() == 2 {
        return convex_layers_2d(rel, ids);
    }
    let mut remaining: Vec<TupleId> = ids.to_vec();
    let mut next: Vec<TupleId> = Vec::new();
    let mut layers = Vec::new();
    let mut scratch = CskyScratch::default();
    while !remaining.is_empty() {
        let cs = convex_skyline_with(rel, &remaining, &mut scratch);
        assert!(
            !cs.members.is_empty(),
            "convex skyline of a nonempty set is nonempty"
        );
        let members: Vec<TupleId> = cs.members.iter().map(|&p| remaining[p as usize]).collect();
        // Positions become tuple ids in place (both are `u32`). The list
        // grew by pushes, so it is trimmed to size: the build keeps it
        // until its ∃ edges are done.
        let mut facets: Vec<Vec<TupleId>> = cs
            .facets
            .into_iter()
            .map(|mut f| {
                for p in &mut f {
                    *p = remaining[*p as usize];
                }
                f
            })
            .collect();
        facets.shrink_to_fit();
        // Remove extracted members from the remainder. `cs.members` is
        // sorted ascending, so a single merge pass suffices.
        next.clear();
        next.reserve(remaining.len() - members.len());
        let mut mi = 0;
        for (pos, &id) in remaining.iter().enumerate() {
            if mi < cs.members.len() && cs.members[mi] as usize == pos {
                mi += 1;
            } else {
                next.push(id);
            }
        }
        debug_assert_eq!(mi, cs.members.len());
        std::mem::swap(&mut remaining, &mut next);
        layers.push(ConvexLayer { members, facets });
    }
    layers
}

/// 2-d peel with hull state reused across layers: the points are sorted by
/// `(x, y, position)` once, and every peel walks that order skipping
/// already-extracted points. Produces exactly the layers of repeated
/// [`convex_skyline`] calls: surviving points keep their relative order
/// between peels, so the shared sort sees them in the same sequence a
/// per-layer [`lower_left_chain`] sort would, and the chain walk below is
/// that function's, step for step (duplicate drop, collinearity pop
/// against the *remaining* spread, equal-x skip, decreasing-y prefix).
fn convex_layers_2d(rel: &Relation, ids: &[TupleId]) -> Vec<ConvexLayer> {
    let m = ids.len();
    if m == 0 {
        return Vec::new();
    }
    let pts: Vec<(f64, f64)> = ids
        .iter()
        .map(|&id| {
            let t = rel.tuple(id);
            (t[0], t[1])
        })
        .collect();
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_by(|&i, &j| {
        let (a, b) = (pts[i as usize], pts[j as usize]);
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.partial_cmp(&b.1).unwrap())
            .then(i.cmp(&j))
    });

    let mut alive = vec![true; m];
    let mut alive_count = m;
    let mut layers = Vec::new();
    let mut hull: Vec<u32> = Vec::new();
    while alive_count > 0 {
        // The collinearity tolerance scales with the spread of the points
        // still in play (matching `lower_left_chain` on the remainder).
        let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for (p, &a) in pts.iter().zip(&alive) {
            if a {
                lo_x = lo_x.min(p.0);
                hi_x = hi_x.max(p.0);
                lo_y = lo_y.min(p.1);
                hi_y = hi_y.max(p.1);
            }
        }
        let spread = (hi_x - lo_x).max(hi_y - lo_y).max(f64::MIN_POSITIVE);
        let tol = GEOM_EPS * spread * spread;

        hull.clear();
        let mut last_kept: Option<(f64, f64)> = None;
        for &i in &order {
            if !alive[i as usize] {
                continue;
            }
            let p = pts[i as usize];
            // Exact duplicates are consecutive in the sorted order: keep
            // only the first alive one per peel.
            if last_kept == Some(p) {
                continue;
            }
            last_kept = Some(p);
            while hull.len() >= 2 {
                let a = pts[hull[hull.len() - 2] as usize];
                let b = pts[hull[hull.len() - 1] as usize];
                if cross(a, b, p) <= tol {
                    hull.pop();
                } else {
                    break;
                }
            }
            if let Some(&last) = hull.last() {
                if pts[last as usize].0 == p.0 {
                    continue;
                }
            }
            hull.push(i);
        }
        // The convex skyline is the lower hull's strictly-decreasing-y
        // prefix.
        let mut chain_len = 1;
        while chain_len < hull.len()
            && pts[hull[chain_len] as usize].1 < pts[hull[chain_len - 1] as usize].1
        {
            chain_len += 1;
        }
        let chain = &hull[..chain_len];

        let facets: Vec<Vec<TupleId>> = if chain.len() == 1 {
            vec![vec![ids[chain[0] as usize]]]
        } else {
            chain
                .windows(2)
                .map(|w| vec![ids[w[0] as usize], ids[w[1] as usize]])
                .collect()
        };
        let mut positions: Vec<u32> = chain.to_vec();
        positions.sort_unstable();
        let members: Vec<TupleId> = positions.iter().map(|&p| ids[p as usize]).collect();
        for &p in &positions {
            alive[p as usize] = false;
        }
        alive_count -= positions.len();
        layers.push(ConvexLayer { members, facets });
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::relation::{toy_dataset, toy_id};
    use drtopk_common::{Distribution, Weights, WorkloadSpec};

    fn ids_of(cs: &ConvexSkyline, ids: &[TupleId]) -> Vec<TupleId> {
        cs.members.iter().map(|&p| ids[p as usize]).collect()
    }

    #[test]
    fn toy_first_convex_layer() {
        let r = toy_dataset();
        let all: Vec<TupleId> = (0..r.len() as TupleId).collect();
        let cs = convex_skyline(&r, &all);
        assert_eq!(
            ids_of(&cs, &all),
            vec![toy_id('a'), toy_id('b'), toy_id('c')]
        );
        // 2-d facets are the chain segments {a,b} and {b,c}.
        assert_eq!(cs.facets, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn toy_convex_layers_match_fig_2b() {
        let r = toy_dataset();
        let all: Vec<TupleId> = (0..r.len() as TupleId).collect();
        let layers = convex_layers(&r, &all);
        let want: Vec<Vec<char>> = vec![
            vec!['a', 'b', 'c'],
            vec!['d', 'f', 'g'],
            vec!['e', 'j'],
            vec!['h', 'i'],
            vec!['k'],
        ];
        let got: Vec<Vec<TupleId>> = layers.iter().map(|l| l.members.clone()).collect();
        let want_ids: Vec<Vec<TupleId>> = want
            .iter()
            .map(|l| l.iter().map(|&c| toy_id(c)).collect())
            .collect();
        assert_eq!(got, want_ids);
    }

    #[test]
    fn members_minimize_some_weight_3d() {
        // Every extracted member must be a true convex-skyline tuple:
        // verify against the definitional LP.
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 80, 21).generate();
        let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
        let cs = convex_skyline(&rel, &all);
        assert!(!cs.members.is_empty());
        let candidates: Vec<u32> = (0..rel.len() as u32).collect();
        for &p in &cs.members {
            assert!(
                lp_is_convex_member(&rel, &all, p as usize, &candidates),
                "member {p} fails definitional check"
            );
        }
    }

    #[test]
    fn hull_and_lp_agree_on_small_sets() {
        for seed in 0..5 {
            let rel = WorkloadSpec::new(Distribution::Independent, 3, 30, seed).generate();
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let hull_members = ids_of(
                &csky_hull(&rel, &all, &mut CskyScratch::default()).unwrap(),
                &all,
            );
            let lp_members = ids_of(&csky_lp(&rel, &all), &all);
            // The hull path may (rarely) miss boundary-exposed members but
            // must never invent one; usually the sets coincide.
            for m in &hull_members {
                assert!(
                    lp_members.contains(m),
                    "hull member {m} not confirmed by LP (seed {seed})"
                );
            }
            let missing = lp_members
                .iter()
                .filter(|m| !hull_members.contains(m))
                .count();
            assert!(
                missing <= lp_members.len() / 2,
                "hull missed too many members"
            );
        }
    }

    #[test]
    fn layers_partition_input() {
        for d in 2..=4 {
            let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 300, 7).generate();
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let layers = convex_layers(&rel, &all);
            let mut seen: Vec<TupleId> = layers.iter().flat_map(|l| l.members.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, all, "layers must partition the input (d={d})");
        }
    }

    #[test]
    fn layer_members_are_undominated_within_remainder() {
        // Fast-path convex layers do NOT promise monotone layer minima
        // (boundary-exposed vertices may land a sublayer late; the
        // hull_vertices fat layers carry that guarantee instead). What they
        // DO promise: every member is undominated within its remainder,
        // i.e. a genuine convex-skyline (hence skyline) tuple there.
        use drtopk_common::dominates;
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 3).generate();
        let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
        let layers = convex_layers(&rel, &all);
        let mut remainder: Vec<TupleId> = all.clone();
        for layer in &layers {
            for &m in &layer.members {
                for &o in &remainder {
                    assert!(
                        !dominates(rel.tuple(o), rel.tuple(m)),
                        "layer member {m} dominated inside its remainder"
                    );
                }
            }
            remainder.retain(|id| !layer.members.contains(id));
        }
    }

    #[test]
    fn fat_hull_layer_minima_are_nondecreasing() {
        use rand::{rngs::StdRng, SeedableRng};
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 3).generate();
        let mut remaining: Vec<TupleId> = (0..rel.len() as TupleId).collect();
        let mut layers: Vec<Vec<TupleId>> = Vec::new();
        while let Some(pos) = hull_vertices(&rel, &remaining) {
            if pos.is_empty() || pos.len() == remaining.len() {
                layers.push(std::mem::take(&mut remaining));
                break;
            }
            let layer: Vec<TupleId> = pos.iter().map(|&p| remaining[p as usize]).collect();
            remaining.retain(|id| !layer.contains(id));
            layers.push(layer);
        }
        if !remaining.is_empty() {
            layers.push(remaining);
        }
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let w = Weights::random(3, &mut rng);
            let minima: Vec<f64> = layers
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|&id| w.score(rel.tuple(id)))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            for pair in minima.windows(2) {
                assert!(
                    pair[0] <= pair[1] + 1e-12,
                    "fat layer minima must be non-decreasing"
                );
            }
        }
    }

    /// The literal definition of convex-layer peeling: one
    /// [`convex_skyline`] call per layer over the shrinking remainder.
    fn convex_layers_by_repeated_csky(rel: &Relation, ids: &[TupleId]) -> Vec<ConvexLayer> {
        let mut remaining: Vec<TupleId> = ids.to_vec();
        let mut layers = Vec::new();
        while !remaining.is_empty() {
            let cs = convex_skyline(rel, &remaining);
            let members: Vec<TupleId> = cs.members.iter().map(|&p| remaining[p as usize]).collect();
            let facets: Vec<Vec<TupleId>> = cs
                .facets
                .iter()
                .map(|f| f.iter().map(|&p| remaining[p as usize]).collect())
                .collect();
            let in_layer: std::collections::HashSet<u32> = cs.members.iter().copied().collect();
            remaining = remaining
                .iter()
                .enumerate()
                .filter(|(pos, _)| !in_layer.contains(&(*pos as u32)))
                .map(|(_, &id)| id)
                .collect();
            layers.push(ConvexLayer { members, facets });
        }
        layers
    }

    #[test]
    fn incremental_2d_peel_matches_repeated_csky() {
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ] {
            for (n, seed) in [(50, 2u64), (300, 19)] {
                let rel = WorkloadSpec::new(dist, 2, n, seed).generate();
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                assert_eq!(
                    convex_layers(&rel, &all),
                    convex_layers_by_repeated_csky(&rel, &all),
                    "{dist:?} n={n} seed={seed}: members AND facets must match"
                );
            }
        }
        // Degenerate shapes: duplicates, collinear runs, equal-x columns.
        let rows: Vec<Vec<f64>> = vec![
            vec![0.2, 0.8],
            vec![0.5, 0.5],
            vec![0.8, 0.2],
            vec![0.5, 0.5],
            vec![0.2, 0.8],
            vec![0.2, 0.3],
            vec![0.2, 0.6],
            vec![0.35, 0.65],
            vec![0.65, 0.35],
        ];
        let rel = Relation::from_rows(2, &rows).unwrap();
        let all: Vec<TupleId> = (0..rows.len() as TupleId).collect();
        assert_eq!(
            convex_layers(&rel, &all),
            convex_layers_by_repeated_csky(&rel, &all)
        );
        // Subset ids (the build peels coarse layers, not 0..n ranges).
        let subset: Vec<TupleId> = vec![8, 1, 5, 3, 0];
        assert_eq!(
            convex_layers(&rel, &subset),
            convex_layers_by_repeated_csky(&rel, &subset)
        );
    }

    #[test]
    fn duplicate_points_terminate() {
        let rows: Vec<Vec<f64>> = (0..20).map(|_| vec![0.5, 0.5, 0.5]).collect();
        let rel = Relation::from_rows(3, &rows).unwrap();
        let all: Vec<TupleId> = (0..20).collect();
        let layers = convex_layers(&rel, &all);
        let total: usize = layers.iter().map(|l| l.members.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn single_point_and_empty() {
        let rel = Relation::from_rows(3, &[vec![0.2, 0.3, 0.4]]).unwrap();
        let cs = convex_skyline(&rel, &[0]);
        assert_eq!(cs.members, vec![0]);
        let cs0 = convex_skyline(&rel, &[]);
        assert!(cs0.members.is_empty());
    }

    #[test]
    fn degenerate_coplanar_4d() {
        // All points on the hyperplane x0 + x1 + x2 + x3 = 2 exactly: the
        // hull path must fail over to LP and still extract a valid layer.
        let mut rows = Vec::new();
        let mut acc: u32 = 1;
        for _ in 0..30 {
            acc = acc.wrapping_mul(1664525).wrapping_add(1013904223);
            let a = 0.4 + 0.2 * ((acc >> 8) & 0xff) as f64 / 255.0;
            acc = acc.wrapping_mul(1664525).wrapping_add(1013904223);
            let b = 0.4 + 0.2 * ((acc >> 8) & 0xff) as f64 / 255.0;
            acc = acc.wrapping_mul(1664525).wrapping_add(1013904223);
            let c = 0.4 + 0.2 * ((acc >> 8) & 0xff) as f64 / 255.0;
            rows.push(vec![a, b, c, 2.0 - a - b - c]);
        }
        let rel = Relation::from_rows(4, &rows).unwrap();
        let all: Vec<TupleId> = (0..rows.len() as TupleId).collect();
        let layers = convex_layers(&rel, &all);
        let total: usize = layers.iter().map(|l| l.members.len()).sum();
        assert_eq!(total, rows.len());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use drtopk_common::Relation;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Near-duplicate clusters: the review's reproduction of the quickhull
    /// hang / corrupt-hull class. Peeling must terminate and the fat-layer
    /// path must either produce a sound layer or fall back.
    fn clustered_relation(d: usize, n: usize, clusters: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..0.95)).collect())
            .collect();
        let mut flat = Vec::with_capacity(n * d);
        for i in 0..n {
            let c = &centers[i % clusters];
            for &x in c {
                flat.push((x + 1e-7 * rng.gen::<f64>()).clamp(0.0, 1.0));
            }
        }
        Relation::from_flat_unchecked(d, flat)
    }

    #[test]
    fn near_duplicate_clusters_terminate_in_5d() {
        // Previously hung without the facet budget (review finding).
        for seed in [16u64, 43, 77] {
            let rel = clustered_relation(5, 60, 9, seed);
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let layers = convex_layers(&rel, &all);
            let total: usize = layers.iter().map(|l| l.members.len()).sum();
            assert_eq!(
                total, 60,
                "peeling must terminate and partition (seed {seed})"
            );
        }
    }

    #[test]
    fn fat_layer_guarantee_survives_near_duplicates() {
        // Previously returned corrupt hulls whose layers missed true
        // minimizers; the containment audit now rejects those hulls.
        use drtopk_common::Weights;
        for seed in [3u64, 5, 8] {
            let rel = clustered_relation(3, 40, 8, seed);
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            if let Some(pos) = hull_vertices(&rel, &all) {
                let members: Vec<TupleId> = pos.iter().map(|&p| all[p as usize]).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..20 {
                    let w = Weights::random(3, &mut rng);
                    let global = (0..rel.len() as TupleId)
                        .map(|t| w.score(rel.tuple(t)))
                        .fold(f64::INFINITY, f64::min);
                    let layer_min = members
                        .iter()
                        .map(|&t| w.score(rel.tuple(t)))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        layer_min <= global + 1e-9,
                        "fat layer missing the true minimizer (seed {seed})"
                    );
                }
            }
            // None is acceptable: callers fall back to the (sound) skyline.
        }
    }

    #[test]
    fn small_spread_chain_keeps_vertices() {
        // Review finding: absolute eps collapsed chains in 1e-4-wide boxes.
        use crate::hull2d::lower_left_chain;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let pts: Vec<(f64, f64)> = (0..40)
                .map(|_| (0.5 + 1e-4 * rng.gen::<f64>(), 0.5 + 1e-4 * rng.gen::<f64>()))
                .collect();
            let chain = lower_left_chain(&pts);
            // The chain must contain the minimizer of every positive weight.
            for step in 1..20 {
                let w1 = step as f64 / 20.0;
                let score = |p: (f64, f64)| w1 * p.0 + (1.0 - w1) * p.1;
                let best = pts.iter().map(|&p| score(p)).fold(f64::INFINITY, f64::min);
                let chain_best = chain
                    .iter()
                    .map(|&i| score(pts[i]))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    chain_best <= best + 1e-15,
                    "chain missing minimizer at w1={w1}"
                );
            }
        }
    }
}
