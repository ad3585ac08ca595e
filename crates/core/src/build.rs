//! Index construction (Algorithm 1 plus edge and zero-layer building).
//!
//! One pipeline, `run`, builds every index. It peels the coarse layers,
//! splits each into fine sublayers, connects adjacent coarse layers with ∀
//! edges and adjacent fine sublayers with ∃ edges, attaches the zero layer
//! and hands the parts to assembly. It takes the four phase kernels, and
//! the two builds differ only there:
//!
//! * [`DualLayerIndex::build`] runs the optimized kernels: an incremental
//!   sorted skyline peel (a staircase probe per layer at d = 2 and 3), the
//!   incremental convex peel, ∀-edge generation over a kd-tree of each
//!   layer's sum-sorted sources, and min-sum-pruned ∃-edge generation;
//! * [`DualLayerIndex::build_reference`] runs the plain reference kernels
//!   of `core::build_reference`.
//!
//! Every pruning rule is *order-preserving*: it only skips work whose
//! outcome is forced, so the built index is bit-identical to the
//! reference. The differential suite in `tests/build_differential.rs`
//! holds the two to byte-equal snapshots.

use crate::index::{CoarseLayer, DualLayerIndex, NodeId};
use crate::options::{DlOptions, EdsPolicy, ZeroMode, CLUSTER_SEED};
use crate::profile::BuildProfile;
use crate::zero::Zero2d;
use drtopk_cluster::{cluster_min_corners, kmeans};
use drtopk_common::{Relation, TupleId};
use drtopk_geometry::csky::{convex_layers, ConvexLayer};
use drtopk_geometry::facet_is_eds;
use drtopk_skyline::skyline_layers_incremental;
use std::time::Instant;

/// Most sources in one leaf of the ∀-edge kernel's [`SourceTree`].
const FORALL_LEAF: usize = 8;

/// Facets per ∃-edge pruning block (same idea over facet min-corners and
/// minimum member sums).
const EXISTS_BLOCK: usize = 32;

/// Safety margin for the ∃-edge minimum-sum prune. A facet whose minimum
/// member sum is ≥ the target's sum cannot contain a dominating virtual
/// point (every convex combination's sum is ≥ the minimum member sum,
/// while domination forces a strictly smaller sum), so `facet_is_eds`
/// must return false for it — but that test computes the virtual point in
/// floating point, so the prune only fires with this much slack to stay
/// exactly equivalent even under worst-case rounding.
const EXISTS_SUM_MARGIN: f64 = 1e-7;

/// Dominance edges as (source, target) pairs in public (original-id) space.
pub(crate) type Edges = Vec<(NodeId, NodeId)>;

/// The facets of one fine sublayer, each a list of member ids.
type Facets = Vec<Vec<TupleId>>;

/// Signature of [`Kernels::coarse`].
type CoarseKernel = fn(&Relation, &[TupleId]) -> (Vec<Vec<TupleId>>, u64);

/// Signature of [`Kernels::exists`].
type ExistsKernel = fn(&Relation, &[Vec<TupleId>], &[TupleId], EdsPolicy, &mut Edges) -> u64;

/// The four phase kernels [`run`] calls. An edge kernel appends its edges
/// in the reference's order and returns the dominance tests it ran
/// (`dominates` calls or `facet_is_eds` evaluations) for the profile; the
/// reference kernels count none.
pub(crate) struct Kernels {
    /// Coarse layers (iterated skylines) of `ids`, and the dominance
    /// tests the peel ran.
    pub(crate) coarse: CoarseKernel,
    /// Convex-layer peel of one coarse layer, or of the pseudo-tuples.
    pub(crate) convex: fn(&Relation, &[TupleId]) -> Vec<ConvexLayer>,
    /// ∀ edges from each of `sources` to every target it dominates.
    pub(crate) forall: fn(&Relation, &[TupleId], &[TupleId], &mut Edges) -> u64,
    /// ∃ edges to each target from the members of the facets that cover
    /// it, chosen by the EDS policy.
    pub(crate) exists: ExistsKernel,
}

/// The kernels [`DualLayerIndex::build`] runs.
const OPTIMIZED: Kernels = Kernels {
    coarse: skyline_layers_incremental,
    convex: convex_layers,
    forall: forall_edges_between,
    exists: exists_edges_between,
};

impl DualLayerIndex {
    /// Builds the dual-resolution layer index over `rel`.
    ///
    /// Construction follows Algorithm 1: peel skyline (coarse) layers,
    /// split each into convex-skyline (fine) sublayers, connect adjacent
    /// coarse layers with ∀-dominance edges and adjacent fine sublayers
    /// with facet-derived ∃-dominance edges, then attach the configured
    /// zero layer.
    pub fn build(rel: &Relation, opts: DlOptions) -> DualLayerIndex {
        Self::build_with_profile(rel, opts).0
    }

    /// Like [`DualLayerIndex::build`], additionally returning per-phase
    /// wall-clock and dominance-test counts (see [`BuildProfile`]).
    pub fn build_with_profile(rel: &Relation, opts: DlOptions) -> (DualLayerIndex, BuildProfile) {
        run(rel, opts, &OPTIMIZED)
    }
}

/// The construction pipeline: Algorithm 1 and the zero layer with the
/// kernels `k`, then assembly.
pub(crate) fn run(rel: &Relation, opts: DlOptions, k: &Kernels) -> (DualLayerIndex, BuildProfile) {
    let build_start = Instant::now();
    let mut profile = BuildProfile::default();
    let n = rel.len();
    let d = rel.dims();
    let all: Vec<TupleId> = (0..n as TupleId).collect();

    // Phase 1: coarse layers (iterated skylines).
    let t0 = Instant::now();
    let (coarse, tests) = (k.coarse)(rel, &all);
    profile.coarse_peel.dominance_tests = tests;
    profile.coarse_peel.seconds = t0.elapsed().as_secs_f64();

    // Phase 2: fine sublayers (iterated convex skylines per coarse layer),
    // each with the facets its ∃ edges start from.
    let t0 = Instant::now();
    let split_one = |members: &Vec<TupleId>| -> (CoarseLayer, Vec<Facets>) {
        if !opts.split_fine {
            let fine = vec![members.clone()];
            return (CoarseLayer { fine }, vec![Vec::new()]);
        }
        let mut peeled = (k.convex)(rel, members);
        if opts.max_fine_layers > 0 && peeled.len() > opts.max_fine_layers {
            // Merge the tail into the last allowed sublayer.
            let tail: Vec<TupleId> = peeled
                .drain(opts.max_fine_layers - 1..)
                .flat_map(|l| l.members)
                .collect();
            peeled.push(ConvexLayer {
                members: tail,
                facets: Vec::new(),
            });
        }
        let (fine, facets) = peeled.into_iter().map(|l| (l.members, l.facets)).unzip();
        (CoarseLayer { fine }, facets)
    };
    let (layers, fine_facets): (Vec<CoarseLayer>, Vec<Vec<Facets>>) =
        coarse.iter().map(split_one).unzip();
    profile.fine_split.seconds = t0.elapsed().as_secs_f64();

    // Phase 3: ∀-dominance edges between adjacent coarse layers.
    let t0 = Instant::now();
    let mut forall_edges: Edges = Vec::new();
    for w in layers.windows(2) {
        let sources: Vec<TupleId> = w[0].members().collect();
        let targets: Vec<TupleId> = w[1].members().collect();
        profile.forall_edges.dominance_tests +=
            (k.forall)(rel, &sources, &targets, &mut forall_edges);
    }
    profile.forall_edges.seconds = t0.elapsed().as_secs_f64();

    // Phase 4: ∃-dominance edges between adjacent fine sublayers (none
    // without a fine split: every coarse layer is then one sublayer).
    let t0 = Instant::now();
    let mut exists_edges: Edges = Vec::new();
    for (layer, facets) in layers.iter().zip(&fine_facets) {
        // Sublayer j's facets cover sublayer j + 1.
        for (facets, targets) in facets.iter().zip(layer.fine.iter().skip(1)) {
            profile.exists_edges.dominance_tests +=
                (k.exists)(rel, facets, targets, opts.eds_policy, &mut exists_edges);
        }
    }
    profile.exists_edges.seconds = t0.elapsed().as_secs_f64();

    // Phase 5: zero layer (skipped for empty relations).
    let t0 = Instant::now();
    let zero = match opts.zero {
        _ if n == 0 => ZeroMode::None,
        ZeroMode::Auto | ZeroMode::Exact2d if d == 2 && opts.split_fine => ZeroMode::Exact2d,
        ZeroMode::Auto | ZeroMode::Exact2d => ZeroMode::Clustered { clusters: 0 },
        other => other,
    };
    let mut pseudo: Vec<f64> = Vec::new();
    let mut pseudo_count = 0usize;
    let mut pseudo_fine: Vec<Vec<u32>> = Vec::new();
    let mut zero2d: Option<Zero2d> = None;
    match zero {
        ZeroMode::None => {}
        ZeroMode::Exact2d => zero2d = Some(Zero2d::build(rel, &layers[0].fine[0])),
        ZeroMode::Clustered { clusters } => {
            // Sort so the clustering is independent of fine-sublayer
            // order: DL+ and DG+ then share identical pseudo-tuples,
            // which the Theorem-5-style cost inclusion relies on.
            let mut l1: Vec<TupleId> = layers[0].members().collect();
            l1.sort_unstable();
            let c = match clusters {
                0 => (l1.len() as f64).sqrt().ceil() as usize,
                c => c,
            };
            let clustering = kmeans(rel, &l1, c.clamp(1, l1.len()), CLUSTER_SEED, 40);
            let corners = cluster_min_corners(rel, &l1, &clustering);
            pseudo_count = corners.len();
            pseudo = corners.concat();
            let to_node = |local: TupleId| -> NodeId { n as NodeId + local };
            // ∀ edges: each pseudo-tuple dominates (weakly) its cluster.
            for (pos, &cl) in clustering.assignment.iter().enumerate() {
                forall_edges.push((to_node(cl as TupleId), l1[pos] as NodeId));
            }
            let plocal: Vec<TupleId> = (0..pseudo_count as TupleId).collect();
            if !opts.split_fine {
                pseudo_fine = vec![plocal];
            } else {
                // DL+: peel the pseudo-tuples into their own fine
                // sublayers with ∃ edges, and connect the last pseudo
                // sublayer's facets to L¹¹.
                let prel = Relation::from_flat_unchecked(d, pseudo.clone());
                let players = (k.convex)(&prel, &plocal);
                for w in players.windows(2) {
                    let mut local = Vec::new();
                    profile.zero_layer.dominance_tests += (k.exists)(
                        &prel,
                        &w[0].facets,
                        &w[1].members,
                        opts.eds_policy,
                        &mut local,
                    );
                    exists_edges.extend(local.into_iter().map(|(s, t)| (to_node(s), to_node(t))));
                }
                // Boundary ∃ edges: last pseudo sublayer facets → L¹¹.
                // EDS feasibility must be tested in one coordinate space,
                // so build a throwaway relation holding pseudo corners
                // followed by the L¹¹ tuples.
                let l11 = &layers[0].fine[0];
                let mut combined = pseudo.clone();
                for &t in l11 {
                    combined.extend_from_slice(rel.tuple(t));
                }
                let crel = Relation::from_flat_unchecked(d, combined);
                let ctargets: Vec<TupleId> = (0..l11.len())
                    .map(|i| (pseudo_count + i) as TupleId)
                    .collect();
                let last = &players[players.len() - 1].facets;
                let mut local = Vec::new();
                profile.zero_layer.dominance_tests +=
                    (k.exists)(&crel, last, &ctargets, opts.eds_policy, &mut local);
                // Facet members are pseudo-locals, targets offset L¹¹ slots.
                for (s, t) in local {
                    exists_edges.push((to_node(s), l11[t as usize - pseudo_count] as NodeId));
                }
                pseudo_fine = players.into_iter().map(|l| l.members).collect();
            }
        }
        ZeroMode::Auto => unreachable!("resolved above"),
    }
    profile.zero_layer.seconds = t0.elapsed().as_secs_f64();

    // Final assembly (shared with snapshot loading): traversal-order
    // renumbering, edge arena, seeds, stats, internal-order scoring columns.
    let t0 = Instant::now();
    let idx = crate::assemble::assemble(
        rel,
        opts,
        layers,
        &forall_edges,
        &exists_edges,
        pseudo,
        pseudo_count,
        pseudo_fine,
        zero2d,
    );
    profile.assemble_seconds = t0.elapsed().as_secs_f64();
    profile.total_seconds = build_start.elapsed().as_secs_f64();
    (idx, profile)
}

/// Adds an edge `(s, t)` for every `s ∈ sources` dominating `t ∈ targets`;
/// returns the number of dominance tests performed.
///
/// Sources are sorted by attribute sum exactly as the reference sorts
/// them (same input order, same sum-only comparator), so equal-sum sources
/// keep the reference's relative order. The reference's predicate links a
/// source to a target when the source's sum is smaller and it is ≤ the
/// target in every coordinate (a smaller sum rules out equality, so the
/// source dominates). The sources are then bucketed spatially by a
/// [`SourceTree`], and each target walks only the nodes whose min-corner
/// weakly dominates it: leaves, and nodes whose max-corner it weakly
/// dominates, test each source with that predicate. Every skipped source
/// is one the predicate rejects, and each target's matches are emitted in
/// ascending sum-sorted position, so the edge sequence is exactly the
/// pairwise reference's.
fn forall_edges_between(
    rel: &Relation,
    sources: &[TupleId],
    targets: &[TupleId],
    edges: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    if sources.is_empty() || targets.is_empty() {
        return 0;
    }
    let mut by_sum: Vec<(f64, TupleId)> = sources
        .iter()
        .map(|&s| (rel.tuple(s).iter().sum::<f64>(), s))
        .collect();
    by_sum.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let tree = SourceTree::new(rel, &by_sum);

    let mut tests = 0u64;
    let mut hits: Vec<u32> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for &t in targets {
        let tv = rel.tuple(t);
        let t_sum: f64 = tv.iter().sum();
        hits.clear();
        tests += tree.dominators(tv, t_sum, &mut stack, &mut hits);
        hits.sort_unstable();
        edges.extend(
            hits.iter()
                .map(|&p| (by_sum[p as usize].1 as NodeId, t as NodeId)),
        );
    }
    tests
}

/// One [`SourceTree`] node: it covers the sources at tree positions
/// `lo..hi`. An inner node's left child follows it; `right` is the index
/// of its right child, and 0 marks a leaf.
struct KdNode {
    lo: u32,
    hi: u32,
    right: u32,
}

/// The sum-sorted sources of [`forall_edges_between`] as a kd-tree: each
/// node splits its sources at the median of one dimension, the next one
/// at each level, until at most [`FORALL_LEAF`] remain, and keeps their
/// min- and max-corners.
struct SourceTree {
    d: usize,
    nodes: Vec<KdNode>,
    /// Min-corner then max-corner, `2 * d` values per node.
    corners: Vec<f64>,
    /// Each tree position's index into the sum-sorted source list.
    pos: Vec<u32>,
    /// Sums and flat coordinates in tree order.
    sums: Vec<f64>,
    coords: Vec<f64>,
}

impl SourceTree {
    fn new(rel: &Relation, by_sum: &[(f64, TupleId)]) -> SourceTree {
        let d = rel.dims();
        let m = by_sum.len();
        // Coordinates in sum-sorted order.
        let mut pts = Vec::with_capacity(m * d);
        for &(_, s) in by_sum {
            pts.extend_from_slice(rel.tuple(s));
        }
        let mut pos: Vec<u32> = (0..m as u32).collect();
        // A split run holds more than FORALL_LEAF sources, so every leaf
        // holds at least half that many.
        let nodes = 2 * m.div_ceil(FORALL_LEAF / 2);
        let mut tree = SourceTree {
            d,
            nodes: Vec::with_capacity(nodes),
            corners: Vec::with_capacity(nodes * 2 * d),
            pos: Vec::new(),
            sums: Vec::new(),
            coords: Vec::with_capacity(m * d),
        };
        tree.split(&pts, &mut pos, 0, 0);
        tree.sums = pos.iter().map(|&p| by_sum[p as usize].0).collect();
        for &p in &pos {
            tree.coords
                .extend_from_slice(&pts[p as usize * d..(p as usize + 1) * d]);
        }
        tree.pos = pos;
        tree
    }

    /// Appends the node covering `run` (sum-sorted positions into `pts`,
    /// at tree positions from `lo`, split on dimension `k`) and, unless it
    /// is a leaf, its subtrees, reordering `run` into tree order.
    fn split(&mut self, pts: &[f64], run: &mut [u32], lo: usize, k: usize) {
        let d = self.d;
        let point = |p: u32| &pts[p as usize * d..(p as usize + 1) * d];
        let id = self.nodes.len();
        self.nodes.push(KdNode {
            lo: lo as u32,
            hi: (lo + run.len()) as u32,
            right: 0,
        });
        let base = self.corners.len();
        self.corners.extend(std::iter::repeat_n(f64::INFINITY, d));
        self.corners
            .extend(std::iter::repeat_n(f64::NEG_INFINITY, d));
        if run.len() <= FORALL_LEAF {
            let (mins, maxs) = self.corners[base..].split_at_mut(d);
            for &p in run.iter() {
                for ((m, x), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(point(p)) {
                    *m = m.min(v);
                    *x = x.max(v);
                }
            }
            return;
        }
        let mid = run.len() / 2;
        run.select_nth_unstable_by(mid, |&a, &b| point(a)[k].total_cmp(&point(b)[k]));
        let (left, right) = run.split_at_mut(mid);
        self.split(pts, left, lo, (k + 1) % d);
        let r = self.nodes.len();
        self.nodes[id].right = r as u32;
        self.split(pts, right, lo + mid, (k + 1) % d);
        // The box is the union of the children's.
        let (l, r) = ((id + 1) * 2 * d, r * 2 * d);
        for j in 0..d {
            self.corners[base + j] = self.corners[l + j].min(self.corners[r + j]);
            self.corners[base + d + j] = self.corners[l + d + j].max(self.corners[r + d + j]);
        }
    }

    /// Appends to `hits` the sum-sorted position of every source with a
    /// smaller sum than `t_sum` and ≤ `tv` in every coordinate, in no
    /// particular order; returns the number of sources tested.
    fn dominators(
        &self,
        tv: &[f64],
        t_sum: f64,
        stack: &mut Vec<usize>,
        hits: &mut Vec<u32>,
    ) -> u64 {
        let d = self.d;
        let mut tests = 0u64;
        stack.clear();
        stack.push(0);
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            let c = &self.corners[ni * 2 * d..(ni + 1) * 2 * d];
            if c[..d].iter().zip(tv).any(|(m, x)| m > x) {
                continue;
            }
            let covered = c[d..].iter().zip(tv).all(|(m, x)| m <= x);
            if !covered && node.right != 0 {
                stack.push(node.right as usize);
                stack.push(ni + 1);
                continue;
            }
            for i in node.lo as usize..node.hi as usize {
                tests += 1;
                let sv = &self.coords[i * d..(i + 1) * d];
                if self.sums[i] < t_sum && (covered || sv.iter().zip(tv).all(|(a, b)| a <= b)) {
                    hits.push(self.pos[i]);
                }
            }
        }
        tests
    }
}

/// Adds ∃-dominance edges from facet members of the previous fine sublayer
/// to each covered target, under the given policy; returns the number of
/// `facet_is_eds` evaluations.
///
/// Facets are scanned in enumeration order (the `FirstFacet` policy is
/// order-sensitive) but a facet is only *tested* when its min-corner
/// weakly dominates the target and its minimum member sum is materially
/// below the target's sum (see [`EXISTS_SUM_MARGIN`]); block-level
/// summaries of both bounds skip entire facet runs. Every skipped facet is
/// one `facet_is_eds` must reject, so edges match the unpruned reference
/// exactly.
fn exists_edges_between(
    rel: &Relation,
    facets: &[Vec<TupleId>],
    targets: &[TupleId],
    policy: EdsPolicy,
    edges: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    if facets.is_empty() || targets.is_empty() {
        return 0;
    }
    let d = rel.dims();
    // Per-facet min-corner prefilter: a facet can only be an EDS of t' if
    // its corner weakly dominates t'.
    let corners: Vec<Vec<f64>> = facets
        .iter()
        .map(|f| {
            (0..d)
                .map(|i| {
                    f.iter()
                        .map(|&m| rel.tuple(m)[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        })
        .collect();
    let min_sums: Vec<f64> = facets
        .iter()
        .map(|f| {
            f.iter()
                .map(|&m| rel.tuple(m).iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let blocks = facets.len().div_ceil(EXISTS_BLOCK);
    let mut bcorner = vec![f64::INFINITY; blocks * d];
    let mut bsum = vec![f64::INFINITY; blocks];
    for fi in 0..facets.len() {
        let b = fi / EXISTS_BLOCK;
        for k in 0..d {
            if corners[fi][k] < bcorner[b * d + k] {
                bcorner[b * d + k] = corners[fi][k];
            }
        }
        if min_sums[fi] < bsum[b] {
            bsum[b] = min_sums[fi];
        }
    }

    let mut tests = 0u64;
    let mut members: Vec<TupleId> = Vec::new();
    for &t in targets {
        let tv = rel.tuple(t);
        let t_sum: f64 = tv.iter().sum();
        members.clear();
        let mut best: Option<(usize, f64)> = None;
        'scan: for b in 0..blocks {
            if bsum[b] >= t_sum + EXISTS_SUM_MARGIN {
                continue;
            }
            if bcorner[b * d..(b + 1) * d]
                .iter()
                .zip(tv)
                .any(|(c, x)| c > x)
            {
                continue;
            }
            let lo = b * EXISTS_BLOCK;
            let hi = ((b + 1) * EXISTS_BLOCK).min(facets.len());
            for fi in lo..hi {
                if min_sums[fi] >= t_sum + EXISTS_SUM_MARGIN {
                    continue;
                }
                if corners[fi].iter().zip(tv).any(|(c, x)| c > x) {
                    continue;
                }
                tests += 1;
                if !facet_is_eds(rel, &facets[fi], t) {
                    continue;
                }
                match policy {
                    EdsPolicy::FirstFacet => {
                        members.extend_from_slice(&facets[fi]);
                        break 'scan;
                    }
                    EdsPolicy::AllFacets => {
                        for &m in &facets[fi] {
                            if !members.contains(&m) {
                                members.push(m);
                            }
                        }
                    }
                    EdsPolicy::BestUniform => {
                        if best.is_none_or(|(_, s)| min_sums[fi] > s) {
                            best = Some((fi, min_sums[fi]));
                        }
                    }
                }
            }
        }
        if let Some((fi, _)) = best {
            members.extend_from_slice(&facets[fi]);
        }
        for &m in &members {
            edges.push((m as NodeId, t as NodeId));
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_reference::{exists_edges_reference, forall_edges_reference};
    use drtopk_common::{Distribution, WorkloadSpec};
    use drtopk_skyline::{skyline_layers, SkylineAlgo};

    /// IND rows snapped to a 1/16 grid, so many coordinates, sums and
    /// whole rows tie.
    fn quantized(d: usize, n: usize, seed: u64) -> Relation {
        let base = WorkloadSpec::new(Distribution::Independent, d, n, seed).generate();
        let flat = base
            .iter()
            .flat_map(|(_, row)| row.iter().map(|&x| (x * 16.0).round() / 16.0))
            .collect();
        Relation::from_flat(d, flat).unwrap()
    }

    /// IND rows, each repeated about three times under scattered ids.
    fn duplicated(d: usize, n: usize, seed: u64) -> Relation {
        let base = WorkloadSpec::new(Distribution::Independent, d, n, seed).generate();
        let distinct = n.div_ceil(3);
        let flat = (0..n)
            .flat_map(|i| base.tuple((i * 7919 % distinct) as TupleId).iter().copied())
            .collect();
        Relation::from_flat(d, flat).unwrap()
    }

    /// `n` sources on a 1/16 grid that all sum to exactly `d / 4` (every
    /// sum is exact in binary), then `n` grid targets above them.
    fn equal_sum_sources(d: usize, n: usize, seed: u64) -> (Relation, Vec<TupleId>, Vec<TupleId>) {
        let base = WorkloadSpec::new(Distribution::Independent, d, n, seed).generate();
        let mut flat = Vec::with_capacity(2 * n * d);
        for (_, row) in base.iter() {
            // Spread d * 4 sixteenths over the columns, led by the row.
            let mut cells: Vec<u32> = row.iter().map(|&x| (x * 8.0) as u32).collect();
            let mut total: u32 = cells.iter().sum();
            let mut k = 0;
            while total != 4 * d as u32 {
                if total < 4 * d as u32 && cells[k] < 16 {
                    cells[k] += 1;
                    total += 1;
                } else if total > 4 * d as u32 && cells[k] > 0 {
                    cells[k] -= 1;
                    total -= 1;
                }
                k = (k + 1) % d;
            }
            flat.extend(cells.iter().map(|&c| f64::from(c) / 16.0));
        }
        for (_, row) in base.iter() {
            flat.extend(
                row.iter()
                    .map(|&x| (0.25 + x * 0.75) * 16.0)
                    .map(|x| x.round() / 16.0),
            );
        }
        let rel = Relation::from_flat(d, flat).unwrap();
        let sources = (0..n as TupleId).collect();
        let targets = (n as TupleId..2 * n as TupleId).collect();
        (rel, sources, targets)
    }

    #[test]
    fn pruned_forall_edges_match_pairwise_reference() {
        let check = |rel: &Relation, sources: &[TupleId], targets: &[TupleId], ctx: &str| {
            let mut fast = Vec::new();
            forall_edges_between(rel, sources, targets, &mut fast);
            let mut slow = Vec::new();
            forall_edges_reference(rel, sources, targets, &mut slow);
            assert_eq!(fast, slow, "{ctx}: edge sequences must match");
        };
        for d in 2..=5 {
            let mut rels: Vec<(String, Relation)> = Vec::new();
            for dist in [
                Distribution::Independent,
                Distribution::Correlated,
                Distribution::AntiCorrelated,
            ] {
                rels.push((
                    format!("{dist:?}"),
                    WorkloadSpec::new(dist, d, 500, 13).generate(),
                ));
            }
            rels.push(("quantized".into(), quantized(d, 500, 17)));
            rels.push(("duplicated".into(), duplicated(d, 500, 19)));
            for (name, rel) in &rels {
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                let layers = skyline_layers(rel, &all, SkylineAlgo::BSkyTree);
                for w in layers.windows(2) {
                    check(rel, &w[0], &w[1], &format!("{name} d={d} adjacent layers"));
                }
                // Every tuple against every tuple: equal rows on both sides.
                check(rel, &all, &all, &format!("{name} d={d} all pairs"));
                check(rel, &[], &all, &format!("{name} d={d} no sources"));
                check(rel, &all, &[], &format!("{name} d={d} no targets"));
            }
            let (rel, sources, targets) = equal_sum_sources(d, 300, 23);
            let mut fast = Vec::new();
            forall_edges_between(&rel, &sources, &targets, &mut fast);
            assert!(
                !fast.is_empty(),
                "d={d}: equal-sum sources dominate no target"
            );
            check(
                &rel,
                &sources,
                &targets,
                &format!("equal-sum sources d={d}"),
            );
        }
    }

    #[test]
    fn pruned_exists_edges_match_pairwise_reference() {
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in [2, 3, 4] {
                let rel = WorkloadSpec::new(dist, d, 400, 31).generate();
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                let peeled = convex_layers(&rel, &all);
                for policy in [
                    EdsPolicy::FirstFacet,
                    EdsPolicy::AllFacets,
                    EdsPolicy::BestUniform,
                ] {
                    for w in peeled.windows(2) {
                        let mut fast = Vec::new();
                        exists_edges_between(&rel, &w[0].facets, &w[1].members, policy, &mut fast);
                        let mut slow = Vec::new();
                        exists_edges_reference(
                            &rel,
                            &w[0].facets,
                            &w[1].members,
                            policy,
                            &mut slow,
                        );
                        assert_eq!(fast, slow, "{dist:?} d={d} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn exists_edges_degenerate_facets_match_reference() {
        // Hand-built 3-d fixture exercising the shapes convex peeling can
        // emit in degenerate inputs: a facet listing the same member twice,
        // facets with fewer than d vertices (segments and singletons), and
        // empty facet/target slices.
        let flat = vec![
            0.1, 0.1, 0.1, // 0: dominates most things
            0.1, 0.1, 0.1, // 1: exact duplicate of 0
            0.2, 0.6, 0.3, // 2
            0.6, 0.2, 0.4, // 3
            0.5, 0.5, 0.5, // 4: target
            0.7, 0.7, 0.7, // 5: target dominated by everything above
            0.05, 0.9, 0.9, // 6: incomparable-ish target
        ];
        let rel = Relation::from_flat_unchecked(3, flat);
        let facet_sets: Vec<Vec<Vec<TupleId>>> = vec![
            vec![vec![0, 0]],       // duplicate member in one facet
            vec![vec![0, 1]],       // duplicate *tuples* (distinct ids)
            vec![vec![2], vec![3]], // singleton facets (< d vertices)
            vec![vec![2, 3]],       // segment facet in 3-d (< d vertices)
            vec![vec![0, 2, 3], vec![1], vec![2, 2, 3]],
            vec![], // empty facet list
        ];
        let target_sets: Vec<Vec<TupleId>> = vec![vec![4, 5, 6], vec![5], vec![]];
        for facets in &facet_sets {
            for targets in &target_sets {
                for policy in [
                    EdsPolicy::FirstFacet,
                    EdsPolicy::AllFacets,
                    EdsPolicy::BestUniform,
                ] {
                    let mut fast = Vec::new();
                    exists_edges_between(&rel, facets, targets, policy, &mut fast);
                    let mut slow = Vec::new();
                    exists_edges_reference(&rel, facets, targets, policy, &mut slow);
                    assert_eq!(
                        fast, slow,
                        "facets={facets:?} targets={targets:?} {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn profile_reports_phase_activity() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 500, 9).generate();
        let (idx, profile) = DualLayerIndex::build_with_profile(&rel, DlOptions::dl_plus());
        assert!(idx.stats().coarse_layers > 1);
        assert!(profile.total_seconds > 0.0);
        assert!(
            profile.coarse_peel.dominance_tests > 0,
            "incremental peel counts"
        );
        assert!(profile.forall_edges.dominance_tests > 0);
        assert!(
            profile.exists_edges.dominance_tests > 0,
            "split_fine build runs EDS tests"
        );
        // DG builds do no EDS work at all.
        let (_, dg) = DualLayerIndex::build_with_profile(&rel, DlOptions::dg());
        assert_eq!(dg.exists_edges.dominance_tests, 0);
        assert_eq!(dg.zero_layer.dominance_tests, 0);
    }
}
