//! Skyline-layer peeling (the coarse level of the dual-resolution index).
//!
//! Two implementations produce identical layers:
//!
//! * [`skyline_layers`] — the literal definition: re-run a skyline
//!   algorithm on the remainder once per layer. O(L) full skyline passes.
//! * [`skyline_layers_incremental`] — sort once in an order that puts
//!   every dominator before the tuples it dominates, and assign every
//!   tuple its layer in one pass. A tuple's layer is
//!   `1 + max{layer(s) : s dominates t}` (the longest-dominance-chain
//!   characterization of skyline peeling), and because that dominator
//!   predicate is downward-closed across layers — layer j's members are
//!   dominated from layer j−1, so dominance chains extend all the way
//!   down — the maximum is found by *binary search* over layers instead
//!   of a scan. How a layer answers "do you contain a dominator of t?"
//!   depends on d:
//!   - d = 2: attribute-sum order, ties broken lexicographically (a
//!     dominator's floating-point sum can equal the dominated tuple's),
//!     and each layer is an x-sorted staircase (one O(log |layer|) probe);
//!   - d = 3: lexicographic `(x, y, z, id)` order, so every member already
//!     placed has x ≤ t's x and the question is 2-d on `(y, z)`. Each
//!     layer keeps the staircase of its members' `(y, z)` minima, each
//!     step with the smallest x at exactly that `(y, z)` to tell a
//!     dominator from an exact duplicate (one O(log |layer|) probe);
//!   - d ≥ 4: the d = 2 order, and each layer scans its members up to
//!     t's sum behind whole-layer and per-block min-corner filters.

use crate::algorithms::{lex_cmp, SkylineAlgo};
use drtopk_common::{Relation, TupleId};

/// Peels `ids` into consecutive skyline layers: layer 1 is the skyline of
/// the subset, layer i the skyline of the remainder (Section II).
/// Together the layers partition the input.
pub fn skyline_layers(rel: &Relation, ids: &[TupleId], algo: SkylineAlgo) -> Vec<Vec<TupleId>> {
    let mut remaining: Vec<TupleId> = ids.to_vec();
    let mut layers = Vec::new();
    while !remaining.is_empty() {
        let layer = algo.run(rel, &remaining);
        debug_assert!(!layer.is_empty());
        // `layer` and `remaining` are both sorted after the first pass; use
        // a merge-style subtraction to keep peeling near-linear per layer.
        let mut next = Vec::with_capacity(remaining.len() - layer.len());
        let mut sorted_remaining = remaining;
        sorted_remaining.sort_unstable();
        let mut li = 0;
        for &id in &sorted_remaining {
            if li < layer.len() && layer[li] == id {
                li += 1;
            } else {
                next.push(id);
            }
        }
        debug_assert_eq!(li, layer.len());
        remaining = next;
        layers.push(layer);
    }
    layers
}

/// A 2-d skyline layer as a staircase: sorted by x ascending, y strictly
/// decreasing except for exact duplicates (an antichain admits nothing
/// else). One binary search answers the dominator probe.
#[derive(Debug, Default)]
struct Staircase {
    steps: Vec<(f64, f64)>,
}

impl Staircase {
    /// Does any step dominate `(x, y)`? The best candidate is the
    /// rightmost step with x' ≤ x (its y is minimal among those); it
    /// dominates iff y' < y, or y' == y with x' strictly left.
    fn has_dominator(&self, x: f64, y: f64) -> bool {
        let k = self.steps.partition_point(|p| p.0 <= x);
        if k == 0 {
            return false;
        }
        let (px, py) = self.steps[k - 1];
        py < y || (py == y && px < x)
    }

    fn insert(&mut self, x: f64, y: f64) {
        let k = self.steps.partition_point(|p| p.0 <= x);
        self.steps.insert(k, (x, y));
    }
}

/// A 3-d skyline layer under lexicographic `(x, y, z)` processing: the
/// staircase of its members' `(y, z)` minima, y ascending and z strictly
/// decreasing, each step with the smallest x seen at exactly that
/// `(y, z)`. Every member was placed before the probed tuple, so it has
/// x ≤ the tuple's x, and one binary search answers the dominator probe.
#[derive(Debug, Default)]
struct YzStaircase {
    /// `(y, z, min x)` per step.
    steps: Vec<(f64, f64, f64)>,
}

impl YzStaircase {
    /// Does a member dominate `(x, y, z)`? The best candidate is the
    /// rightmost step with y' ≤ y (its z is minimal among all members
    /// with y' ≤ y); it dominates iff z' < z, or z' == z with y' < y, or
    /// it sits at exactly `(y, z)` with a smaller x (a member there with
    /// the same x is an exact duplicate, which does not dominate).
    fn has_dominator(&self, x: f64, y: f64, z: f64) -> bool {
        let k = self.steps.partition_point(|s| s.0 <= y);
        if k == 0 {
            return false;
        }
        let (sy, sz, sx) = self.steps[k - 1];
        sz < z || (sz == z && (sy < y || sx < x))
    }

    /// Adds a member. A point that a step weakly dominates in `(y, z)`
    /// adds no step: at exactly the step's `(y, z)` it is an exact
    /// duplicate of the step's members (one with a larger x would have had
    /// them as dominators), so the step's x stays the smallest. Otherwise
    /// the point replaces every step it dominates in `(y, z)`; it
    /// dominates, in 3-d, every later tuple those steps would.
    fn insert(&mut self, x: f64, y: f64, z: f64) {
        let k = self.steps.partition_point(|s| s.0 <= y);
        let mut start = k;
        if k > 0 {
            let (sy, sz, _) = self.steps[k - 1];
            if sz <= z {
                return;
            }
            if sy == y {
                start = k - 1;
            }
        }
        // Steps right of `y` with z' ≥ z are a prefix (z decreases).
        let end = k + self.steps[k..].partition_point(|s| s.1 >= z);
        self.steps.splice(start..end, [(y, z, x)]);
    }
}

/// Members per pruning block in an [`NdLayer`]: each block of the
/// sum-ordered member list carries its componentwise min-corner, so a
/// dominator probe skips whole blocks that cannot contain one.
const ND_BLOCK: usize = 64;

/// A d ≥ 4 layer: members in insertion (= attribute-sum) order with their
/// sums and a cache-friendly copy of their coordinates, plus min-corners
/// (whole-layer and per [`ND_BLOCK`]-member block) for pruning.
#[derive(Debug)]
struct NdLayer {
    d: usize,
    sums: Vec<f64>,
    /// Member coordinates, flat, insertion order (`sums.len() * d`).
    coords: Vec<f64>,
    corner: Vec<f64>,
    /// Componentwise min per block of `ND_BLOCK` members.
    block_corners: Vec<f64>,
}

/// Per-layer dominator-probe state for the incremental peel: d = 2, d = 3
/// and d ≥ 4 each have their own (see the module doc).
enum PeelState {
    Two(Vec<Staircase>),
    Three(Vec<YzStaircase>),
    General(Vec<NdLayer>),
}

impl PeelState {
    fn new(d: usize) -> PeelState {
        match d {
            2 => PeelState::Two(Vec::new()),
            3 => PeelState::Three(Vec::new()),
            _ => PeelState::General(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            PeelState::Two(s) => s.len(),
            PeelState::Three(s) => s.len(),
            PeelState::General(l) => l.len(),
        }
    }

    /// Does layer `j` contain a dominator of the tuple? Counts dominance
    /// tests into `tests` (one per staircase probe / member test).
    fn has_dominator(&self, j: usize, tv: &[f64], t_sum: f64, tests: &mut u64) -> bool {
        match self {
            PeelState::Two(stairs) => {
                *tests += 1;
                stairs[j].has_dominator(tv[0], tv[1])
            }
            PeelState::Three(stairs) => {
                *tests += 1;
                stairs[j].has_dominator(tv[0], tv[1], tv[2])
            }
            PeelState::General(layers) => {
                let layer = &layers[j];
                let d = layer.d;
                // A member can only dominate if the layer's min-corner
                // weakly dominates (0 tests spent otherwise).
                if layer.corner.iter().zip(tv).any(|(c, x)| c > x) {
                    return false;
                }
                // Dominators have sums no larger than the tuple's; the sums
                // are in insertion order (non-decreasing), so the scan
                // stops at the binary-searched cutoff — walked block-wise,
                // skipping blocks whose min-corner fails weak dominance.
                let cut = layer.sums.partition_point(|&s| s <= t_sum);
                let mut i = 0;
                while i < cut {
                    let b = i / ND_BLOCK;
                    let end = ((b + 1) * ND_BLOCK).min(cut);
                    let bc = &layer.block_corners[b * d..(b + 1) * d];
                    if bc.iter().zip(tv).any(|(c, x)| c > x) {
                        i = end;
                        continue;
                    }
                    for m in i..end {
                        *tests += 1;
                        let mv = &layer.coords[m * d..(m + 1) * d];
                        // An equal sum does not rule out an exact duplicate.
                        if mv.iter().zip(tv).all(|(a, b)| a <= b) && mv != tv {
                            return true;
                        }
                    }
                    i = end;
                }
                false
            }
        }
    }

    /// Adds the tuple to layer `j`, creating the layer when `j == len()`.
    fn insert(&mut self, j: usize, tv: &[f64], t_sum: f64) {
        match self {
            PeelState::Two(stairs) => {
                if j == stairs.len() {
                    stairs.push(Staircase::default());
                }
                stairs[j].insert(tv[0], tv[1]);
            }
            PeelState::Three(stairs) => {
                if j == stairs.len() {
                    stairs.push(YzStaircase::default());
                }
                stairs[j].insert(tv[0], tv[1], tv[2]);
            }
            PeelState::General(layers) => {
                if j == layers.len() {
                    layers.push(NdLayer {
                        d: tv.len(),
                        sums: Vec::new(),
                        coords: Vec::new(),
                        corner: tv.to_vec(),
                        block_corners: Vec::new(),
                    });
                }
                let layer = &mut layers[j];
                if layer.sums.len() % ND_BLOCK == 0 {
                    layer.block_corners.extend_from_slice(tv);
                } else {
                    let b = layer.sums.len() / ND_BLOCK;
                    let d = layer.d;
                    for (c, &x) in layer.block_corners[b * d..(b + 1) * d].iter_mut().zip(tv) {
                        if x < *c {
                            *c = x;
                        }
                    }
                }
                layer.sums.push(t_sum);
                layer.coords.extend_from_slice(tv);
                for (c, &x) in layer.corner.iter_mut().zip(tv) {
                    if x < *c {
                        *c = x;
                    }
                }
            }
        }
    }
}

/// Finds the layer for a tuple: the first `j ∈ [0, len]` whose layer does
/// *not* contain a dominator (the dominator predicate is true exactly on a
/// prefix of layers).
fn assign_layer(state: &PeelState, tv: &[f64], t_sum: f64, tests: &mut u64) -> usize {
    let mut lo = 0;
    let mut hi = state.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if state.has_dominator(mid, tv, t_sum, tests) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Incremental peel: identical layers to [`skyline_layers`], one sorted
/// pass instead of one skyline computation per layer. Returns the layers
/// plus the number of dominance tests spent.
pub fn skyline_layers_incremental(rel: &Relation, ids: &[TupleId]) -> (Vec<Vec<TupleId>>, u64) {
    if ids.is_empty() {
        return (Vec::new(), 0);
    }
    let mut order: Vec<(f64, TupleId)> = ids
        .iter()
        .map(|&t| (rel.tuple(t).iter().sum::<f64>(), t))
        .collect();
    // Both orders process every dominator before the tuples it dominates
    // (see `lex_cmp`); the id tie-break is cosmetic.
    let lex = |a: TupleId, b: TupleId| lex_cmp(rel.tuple(a), rel.tuple(b));
    if rel.dims() == 3 {
        // The sums go unused.
        order.sort_unstable_by(|a, b| lex(a.1, b.1).then(a.1.cmp(&b.1)));
    } else {
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then_with(|| lex(a.1, b.1))
                .then(a.1.cmp(&b.1))
        });
    }

    let mut state = PeelState::new(rel.dims());
    let mut out: Vec<Vec<TupleId>> = Vec::new();
    let mut tests: u64 = 0;
    for &(t_sum, t) in &order {
        let tv = rel.tuple(t);
        let j = assign_layer(&state, tv, t_sum, &mut tests);
        state.insert(j, tv, t_sum);
        if j == out.len() {
            out.push(Vec::new());
        }
        out[j].push(t);
    }

    // Match the reference output convention: each layer sorted by id.
    for layer in &mut out {
        layer.sort_unstable();
    }
    (out, tests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::dominance::dominates;
    use drtopk_common::relation::{toy_dataset, toy_id};
    use drtopk_common::{Distribution, WorkloadSpec};

    fn sorted_ids(labels: &[char]) -> Vec<TupleId> {
        let mut v: Vec<TupleId> = labels.iter().map(|&c| toy_id(c)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn toy_layers_match_fig_2a() {
        let r = toy_dataset();
        let all: Vec<TupleId> = (0..r.len() as TupleId).collect();
        let layers = skyline_layers(&r, &all, SkylineAlgo::BSkyTree);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0], sorted_ids(&['a', 'b', 'c', 'f', 'g']));
        assert_eq!(layers[1], sorted_ids(&['d', 'e', 'i', 'j']));
        assert_eq!(layers[2], sorted_ids(&['h', 'k']));
    }

    #[test]
    fn layers_partition_and_respect_dominance() {
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            let rel = WorkloadSpec::new(dist, 3, 500, 23).generate();
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let layers = skyline_layers(&rel, &all, SkylineAlgo::BSkyTree);
            let mut flat: Vec<TupleId> = layers.iter().flatten().copied().collect();
            flat.sort_unstable();
            assert_eq!(flat, all, "partition property");
            // No dominance within a layer.
            for layer in &layers {
                for &a in layer {
                    for &b in layer {
                        assert!(!dominates(rel.tuple(a), rel.tuple(b)));
                    }
                }
            }
            // Every tuple in layer i+1 is dominated by >= 1 tuple of layer i.
            for pair in layers.windows(2) {
                for &t in &pair[1] {
                    assert!(
                        pair[0]
                            .iter()
                            .any(|&s| dominates(rel.tuple(s), rel.tuple(t))),
                        "layer-(i+1) member lacks a layer-i dominator"
                    );
                }
            }
        }
    }

    /// A `d`-column relation whose dominance hides below the attribute
    /// sum's precision: each row of a 1/8 grid appears three times, with
    /// 3e-17, 2e-17 and 1e-17 added to its last column, in that id order.
    /// Each copy dominates the ones before it, and wherever the row sums to
    /// at least 0.5 the three floating-point sums are equal.
    fn sum_tie_relation(d: usize, seed: u64) -> Relation {
        let base = WorkloadSpec::new(Distribution::Independent, d, 40, seed).generate();
        let mut flat = Vec::new();
        for (_, row) in base.iter() {
            for e in [3e-17, 2e-17, 1e-17] {
                flat.extend(row.iter().map(|&x| (x * 8.0).floor() / 8.0));
                *flat.last_mut().unwrap() += e;
            }
        }
        let rel = Relation::from_flat(d, flat).unwrap();
        let sum = |t: TupleId| rel.tuple(t).iter().sum::<f64>();
        assert!(
            (0..rel.len() as TupleId)
                .step_by(3)
                .any(|t| dominates(rel.tuple(t + 1), rel.tuple(t)) && sum(t) == sum(t + 1)),
            "d={d}: no dominance hides in a tied sum"
        );
        rel
    }

    #[test]
    fn all_algorithms_produce_identical_layers() {
        let mut cases = vec![(
            "ANT d=4".to_string(),
            WorkloadSpec::new(Distribution::AntiCorrelated, 4, 300, 3).generate(),
        )];
        for d in 2..=5 {
            cases.push((format!("sum ties d={d}"), sum_tie_relation(d, 29)));
        }
        for (label, rel) in &cases {
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let reference = skyline_layers(rel, &all, SkylineAlgo::Naive);
            for algo in [SkylineAlgo::Bnl, SkylineAlgo::Sfs, SkylineAlgo::BSkyTree] {
                assert_eq!(
                    skyline_layers(rel, &all, algo),
                    reference,
                    "{label} {algo:?}"
                );
            }
            let (layers, _) = skyline_layers_incremental(rel, &all);
            assert_eq!(layers, reference, "{label} incremental");
        }
    }

    /// Three `d`-column relations of `n` rows whose ties the incremental
    /// orders must resolve as the reference does: IND rows snapped to a
    /// 1/16 grid, IND rows repeated about three times each under scattered
    /// ids (exact duplicates), and IND rows whose first coordinate is
    /// snapped to eight values (runs of equal x).
    fn tie_relations(d: usize, n: usize, seed: u64) -> Vec<(&'static str, Relation)> {
        let base = WorkloadSpec::new(Distribution::Independent, d, n, seed).generate();
        let row = |i: usize| base.tuple(i as TupleId);
        let distinct = n.div_ceil(3);
        let grid = (0..n)
            .flat_map(|i| row(i).iter().map(|&x| (x * 16.0).round() / 16.0))
            .collect();
        let dups = (0..n)
            .flat_map(|i| row(i * 7919 % distinct).iter().copied())
            .collect();
        let equal_x = (0..n)
            .flat_map(|i| {
                let r = row(i);
                std::iter::once((r[0] * 8.0).floor() / 8.0).chain(r[1..].iter().copied())
            })
            .collect();
        [("grid", grid), ("duplicates", dups), ("equal-x", equal_x)]
            .into_iter()
            .map(|(name, flat)| (name, Relation::from_flat(d, flat).unwrap()))
            .collect()
    }

    #[test]
    fn incremental_matches_peeling_reference() {
        let mut cases: Vec<(String, Relation)> = Vec::new();
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ] {
            for d in [2, 3, 4] {
                for (n, seed) in [(60, 7u64), (400, 41)] {
                    let rel = WorkloadSpec::new(dist, d, n, seed).generate();
                    cases.push((format!("{dist:?} d={d} n={n}"), rel));
                }
            }
        }
        for (n, seed) in [(60, 7u64), (400, 41)] {
            for (name, rel) in tie_relations(3, n, seed) {
                cases.push((format!("{name} d=3 n={n}"), rel));
            }
        }
        for (label, rel) in &cases {
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let reference = skyline_layers(rel, &all, SkylineAlgo::BSkyTree);
            let (layers, tests) = skyline_layers_incremental(rel, &all);
            assert_eq!(layers, reference, "{label}");
            assert!(tests > 0);
        }
    }

    #[test]
    fn incremental_on_subsets_duplicates_and_empty() {
        // Build behavior exercises peeling over arbitrary id subsets.
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 11).generate();
        let subset: Vec<TupleId> = (0..200).filter(|i| i % 3 != 0).collect();
        let reference = skyline_layers(&rel, &subset, SkylineAlgo::BSkyTree);
        assert_eq!(skyline_layers_incremental(&rel, &subset).0, reference);

        // Exact duplicates never dominate each other: they share a layer.
        let rows: Vec<Vec<f64>> = vec![vec![0.5, 0.5]; 7]
            .into_iter()
            .chain(std::iter::once(vec![0.6, 0.6]))
            .collect();
        let dup = Relation::from_rows(2, &rows).unwrap();
        let ids: Vec<TupleId> = (0..8).collect();
        let (layers, _) = skyline_layers_incremental(&dup, &ids);
        assert_eq!(layers, skyline_layers(&dup, &ids, SkylineAlgo::Naive));
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 7);

        assert!(skyline_layers_incremental(&rel, &[]).0.is_empty());
    }

    #[test]
    fn incremental_matches_peeling_reference_at_6144_rows() {
        // ANT at d = 2 and 3 and the three d = 3 tie relations at 6,144
        // rows each; the other peel tests stop at 400.
        let n = 6144;
        let mut cases: Vec<(String, Relation)> = Vec::new();
        for d in [2, 3] {
            let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 5).generate();
            cases.push((format!("ANT d={d}"), rel));
        }
        for (name, rel) in tie_relations(3, n, 5) {
            cases.push((format!("{name} d=3"), rel));
        }
        for (label, rel) in &cases {
            let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
            let reference = skyline_layers(rel, &all, SkylineAlgo::BSkyTree);
            let (layers, _) = skyline_layers_incremental(rel, &all);
            assert_eq!(layers, reference, "{label}");
        }
    }
}
