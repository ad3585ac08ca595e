//! Skyline algorithms over id-subsets of a relation.
//!
//! Every function takes `(rel, ids)` and returns the ids of skyline tuples
//! *within that subset*, sorted ascending. Exact duplicates are all kept:
//! under Definition 2 equal tuples do not dominate each other.

use drtopk_common::{dominates, Relation, TupleId};
use std::cmp::Ordering;

/// Selector for the skyline algorithm used by index builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkylineAlgo {
    Naive,
    Bnl,
    Sfs,
    /// Balanced-pivot lattice partitioning (the paper's choice \[28\]).
    #[default]
    BSkyTree,
    /// Divide-and-conquer (Börzsönyi et al.).
    DivideConquer,
}

impl SkylineAlgo {
    /// Runs the selected algorithm.
    pub fn run(&self, rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
        match self {
            SkylineAlgo::Naive => naive(rel, ids),
            SkylineAlgo::Bnl => bnl(rel, ids),
            SkylineAlgo::Sfs => sfs(rel, ids),
            SkylineAlgo::BSkyTree => bskytree(rel, ids),
            SkylineAlgo::DivideConquer => dnc(rel, ids),
        }
    }
}

/// O(n²) reference implementation: a tuple survives iff no other tuple in
/// the subset dominates it.
pub fn naive(rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
    let mut out = Vec::new();
    'outer: for &t in ids {
        let tv = rel.tuple(t);
        for &u in ids {
            if u != t && dominates(rel.tuple(u), tv) {
                continue 'outer;
            }
        }
        out.push(t);
    }
    out.sort_unstable();
    out
}

/// Block-nested-loops: stream tuples against a window of incomparable
/// candidates; dominated candidates are evicted, dominated inputs dropped.
pub fn bnl(rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
    let mut window: Vec<TupleId> = Vec::new();
    'outer: for &t in ids {
        let tv = rel.tuple(t);
        let mut i = 0;
        while i < window.len() {
            let wv = rel.tuple(window[i]);
            if dominates(wv, tv) {
                continue 'outer;
            }
            if dominates(tv, wv) {
                window.swap_remove(i);
            } else {
                i += 1;
            }
        }
        window.push(t);
    }
    window.sort_unstable();
    window
}

/// Lexicographic order of two tuples. A tuple that dominates another is
/// ≤ it everywhere and differs somewhere, so it sorts first. Orders by a
/// floating-point attribute sum break ties with this: a dominator's sum
/// is never larger, but it can be equal (`(0.5, 1e-17)` and
/// `(0.5, 2e-17)` both sum to 0.5).
pub(crate) fn lex_cmp(u: &[f64], v: &[f64]) -> Ordering {
    u.iter()
        .zip(v)
        .map(|(a, b)| a.partial_cmp(b).expect("coordinates are finite"))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Sort-filter-skyline: presort by attribute sum (a monotone preference
/// function), ties broken lexicographically, so a tuple can only be
/// dominated by tuples earlier in the order — the window never needs
/// cleaning.
pub fn sfs(rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
    let mut order: Vec<TupleId> = ids.to_vec();
    order.sort_unstable_by(|&a, &b| {
        let sa: f64 = rel.tuple(a).iter().sum();
        let sb: f64 = rel.tuple(b).iter().sum();
        sa.partial_cmp(&sb)
            .unwrap()
            .then_with(|| lex_cmp(rel.tuple(a), rel.tuple(b)))
            .then(a.cmp(&b))
    });
    let mut skyline: Vec<TupleId> = Vec::new();
    'outer: for &t in &order {
        let tv = rel.tuple(t);
        for &s in &skyline {
            if dominates(rel.tuple(s), tv) {
                continue 'outer;
            }
        }
        skyline.push(t);
    }
    skyline.sort_unstable();
    skyline
}

/// BSkyTree-style skyline: pick a balanced pivot (the min-sum point under
/// per-dimension range normalization — always a skyline tuple), partition
/// the rest into the 2^d lattice regions induced by per-dimension
/// comparisons against the pivot, recurse per region, and cross-filter a
/// region only against regions whose mask is a strict subset.
pub fn bskytree(rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
    let d = rel.dims();
    if d > 16 {
        // Lattice masks are u32; beyond ~16 dims the lattice degenerates
        // anyway. Fall back to SFS.
        return sfs(rel, ids);
    }
    let mut out = Vec::new();
    bskytree_rec(rel, ids, &mut out);
    out.sort_unstable();
    out
}

const BSKY_LEAF: usize = 24;

fn bskytree_rec(rel: &Relation, ids: &[TupleId], out: &mut Vec<TupleId>) {
    if ids.len() <= BSKY_LEAF {
        out.extend(sfs(rel, ids));
        return;
    }
    let d = rel.dims();

    // Balanced pivot: min-sum point after normalizing each dimension to the
    // subset's own range, so no single dimension skews the lattice. The
    // normalization is monotone, so with ties broken by `lex_cmp` no tuple
    // dominates the pivot.
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for &t in ids.iter() {
        for (i, &x) in rel.tuple(t).iter().enumerate() {
            lo[i] = lo[i].min(x);
            hi[i] = hi[i].max(x);
        }
    }
    let span: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(l, h)| (h - l).max(1e-12))
        .collect();
    let norm_sum = |t: TupleId| -> f64 {
        rel.tuple(t)
            .iter()
            .zip(&lo)
            .zip(&span)
            .map(|((x, l), s)| (x - l) / s)
            .sum()
    };
    let pivot = *ids
        .iter()
        .min_by(|&&a, &&b| {
            norm_sum(a)
                .partial_cmp(&norm_sum(b))
                .unwrap()
                .then_with(|| lex_cmp(rel.tuple(a), rel.tuple(b)))
                .then(a.cmp(&b))
        })
        .expect("nonempty");
    let pv: Vec<f64> = rel.tuple(pivot).to_vec();
    out.push(pivot);

    // Lattice partitioning: bit i set iff t_i >= pivot_i.
    let full: u32 = (1u32 << d) - 1;
    let mut parts: Vec<(u32, Vec<TupleId>)> = Vec::new();
    let mut index_of: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &t in ids.iter() {
        if t == pivot {
            continue;
        }
        let tv = rel.tuple(t);
        let mut mask = 0u32;
        let mut strict_worse = false;
        for i in 0..d {
            if tv[i] >= pv[i] {
                mask |= 1 << i;
                if tv[i] > pv[i] {
                    strict_worse = true;
                }
            }
        }
        if mask == full {
            if strict_worse {
                continue; // dominated by the pivot
            }
            out.push(t); // exact duplicate of the pivot: also a skyline tuple
            continue;
        }
        let slot = *index_of.entry(mask).or_insert_with(|| {
            parts.push((mask, Vec::new()));
            parts.len() - 1
        });
        parts[slot].1.push(t);
    }

    // Process regions in (popcount, mask) order so every potential
    // dominator region is finished first.
    parts.sort_unstable_by_key(|(m, _)| (m.count_ones(), *m));
    let mut region_skylines: Vec<(u32, Vec<TupleId>)> = Vec::with_capacity(parts.len());
    for (mask, members) in parts {
        let mut local = Vec::new();
        bskytree_rec(rel, &members, &mut local);
        // Cross-filter against subset-mask regions: only they can dominate.
        local.retain(|&t| {
            let tv = rel.tuple(t);
            for (m2, sky2) in &region_skylines {
                if m2 & mask == *m2 && sky2.iter().any(|&s| dominates(rel.tuple(s), tv)) {
                    return false;
                }
            }
            true
        });
        region_skylines.push((mask, local));
    }
    for (_, mut sky) in region_skylines {
        out.append(&mut sky);
    }
}

/// Divide-and-conquer skyline (Börzsönyi et al., ICDE 2001): split on a
/// dimension's median value, recurse, then filter the upper half's skyline
/// against the lower half's (the lower half is strictly better in the
/// split dimension, so dominance only flows one way).
pub fn dnc(rel: &Relation, ids: &[TupleId]) -> Vec<TupleId> {
    let mut out = dnc_rec(rel, ids.to_vec(), 0);
    out.sort_unstable();
    out
}

const DNC_LEAF: usize = 32;

fn dnc_rec(rel: &Relation, ids: Vec<TupleId>, depth: usize) -> Vec<TupleId> {
    if ids.len() <= DNC_LEAF {
        return sfs(rel, &ids);
    }
    let d = rel.dims();
    // Find a dimension (cycling from `depth`) whose median value splits the
    // set into two strictly non-empty halves.
    for probe in 0..d {
        let dim = (depth + probe) % d;
        let mut vals: Vec<f64> = ids.iter().map(|&t| rel.tuple(t)[dim]).collect();
        vals.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        let (low, high): (Vec<TupleId>, Vec<TupleId>) =
            ids.iter().partition(|&&t| rel.tuple(t)[dim] < median);
        if low.is_empty() || high.is_empty() {
            continue; // heavy ties on this dimension; try the next
        }
        let sky_low = dnc_rec(rel, low, depth + 1);
        let sky_high = dnc_rec(rel, high, depth + 1);
        // Low points have a strictly smaller value in `dim`, so no high
        // point can dominate a low one; only the reverse filter is needed.
        let mut merged = sky_low.clone();
        'outer: for &h in &sky_high {
            let hv = rel.tuple(h);
            for &l in &sky_low {
                if dominates(rel.tuple(l), hv) {
                    continue 'outer;
                }
            }
            merged.push(h);
        }
        return merged;
    }
    // Every dimension is constant across the set: all tuples are equal,
    // hence mutually non-dominating.
    sfs(rel, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::relation::{toy_dataset, toy_id};
    use drtopk_common::{Distribution, WorkloadSpec};

    #[test]
    fn toy_skyline_matches_fig_2a() {
        let r = toy_dataset();
        let all: Vec<TupleId> = (0..r.len() as TupleId).collect();
        let want: Vec<TupleId> = {
            let mut v: Vec<TupleId> = ['a', 'b', 'c', 'f', 'g']
                .iter()
                .map(|&c| toy_id(c))
                .collect();
            v.sort_unstable();
            v
        };
        for algo in [
            SkylineAlgo::Naive,
            SkylineAlgo::Bnl,
            SkylineAlgo::Sfs,
            SkylineAlgo::BSkyTree,
        ] {
            assert_eq!(algo.run(&r, &all), want, "{algo:?}");
        }
    }

    #[test]
    fn all_algorithms_agree() {
        for dist in [
            Distribution::Independent,
            Distribution::AntiCorrelated,
            Distribution::Correlated,
        ] {
            for d in 2..=5 {
                let rel = WorkloadSpec::new(dist, d, 400, 13).generate();
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                let reference = naive(&rel, &all);
                assert!(!reference.is_empty());
                assert_eq!(bnl(&rel, &all), reference, "BNL {dist:?} d={d}");
                assert_eq!(sfs(&rel, &all), reference, "SFS {dist:?} d={d}");
                assert_eq!(bskytree(&rel, &all), reference, "BSkyTree {dist:?} d={d}");
                assert_eq!(dnc(&rel, &all), reference, "DnC {dist:?} d={d}");
            }
        }
    }

    #[test]
    fn skyline_of_subset() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 5).generate();
        let subset: Vec<TupleId> = (0..200).filter(|i| i % 3 == 0).collect();
        let got = bskytree(&rel, &subset);
        assert_eq!(got, naive(&rel, &subset));
        assert!(got.iter().all(|id| subset.contains(id)));
    }

    #[test]
    fn duplicates_all_survive() {
        let rel = drtopk_common::Relation::from_rows(
            2,
            &[
                vec![0.5, 0.5],
                vec![0.5, 0.5],
                vec![0.9, 0.9],
                vec![0.2, 0.7],
            ],
        )
        .unwrap();
        let all: Vec<TupleId> = (0..4).collect();
        for algo in [
            SkylineAlgo::Naive,
            SkylineAlgo::Bnl,
            SkylineAlgo::Sfs,
            SkylineAlgo::BSkyTree,
        ] {
            assert_eq!(algo.run(&rel, &all), vec![0, 1, 3], "{algo:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 5, 1).generate();
        for algo in [
            SkylineAlgo::Naive,
            SkylineAlgo::Bnl,
            SkylineAlgo::Sfs,
            SkylineAlgo::BSkyTree,
        ] {
            assert!(algo.run(&rel, &[]).is_empty());
            assert_eq!(algo.run(&rel, &[3]), vec![3]);
        }
    }

    #[test]
    fn skyline_members_are_not_dominated() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 600, 77).generate();
        let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
        let sky = bskytree(&rel, &all);
        for &s in &sky {
            for &t in &all {
                assert!(!dominates(rel.tuple(t), rel.tuple(s)));
            }
        }
        // Completeness: every non-member is dominated by some member.
        for &t in &all {
            if !sky.contains(&t) {
                assert!(sky.iter().any(|&s| dominates(rel.tuple(s), rel.tuple(t))));
            }
        }
    }
}
